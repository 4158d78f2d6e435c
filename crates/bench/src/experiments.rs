//! The experiment sweeps of Section 7, one function per table/figure.
//!
//! Every function builds the corresponding workload, times the algorithms
//! the paper compares, and returns a [`ResultTable`] whose rows mirror the
//! series of the original plot. Absolute run times depend on the machine;
//! the *shape* (which algorithm wins, where the hard region lies) is what
//! EXPERIMENTS.md tracks.
//!
//! `ExperimentScale::Quick` shrinks the instances so a full sweep finishes
//! in well under a minute; `ExperimentScale::Paper` approaches the paper's
//! parameter ranges (still bounded by node budgets standing in for the
//! paper's timeouts).

use std::time::Instant;

use uprob_core::{
    confidence_parallel, ConditioningOptions, DecompositionOptions, ParallelOptions,
    SharedDecompositionCache, VariableHeuristic,
};
use uprob_datagen::{
    q1_answer, q1_answer_relation, q1_plan, q2_answer, q2_answer_relation, HardInstance,
    HardInstanceConfig, SensorConfig, SensorWorkload, TpchConfig, TpchDatabase,
};
use uprob_query::{
    answer_confidences_with_options, assert_constraint, boolean_confidence,
    planned_answer_confidences_with_options, Constraint, ProbDbService, ServiceOptions,
};
use uprob_reference::query::tuple_confidences as tuple_confidences_sequential;
use uprob_urel::{optimize_plan, Plan, Predicate};
use uprob_wsd::WsDescriptor;

use crate::parallel::{available_cores, ParallelWorkload, ParallelWorkloadConfig};
use crate::runner::{run_algorithm, Algorithm, RunOutcome};
use crate::table::ResultTable;

/// How large the sweeps should be.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExperimentScale {
    /// Small instances; the full suite finishes in tens of seconds.
    Quick,
    /// Instance sizes close to the paper's (minutes, uses node budgets).
    Paper,
}

impl ExperimentScale {
    fn is_quick(self) -> bool {
        matches!(self, ExperimentScale::Quick)
    }
}

/// Node budget standing in for the paper's per-run timeouts.
fn budget(scale: ExperimentScale) -> Option<u64> {
    match scale {
        ExperimentScale::Quick => Some(3_000_000),
        ExperimentScale::Paper => Some(50_000_000),
    }
}

/// A much smaller budget for configurations the paper itself reports as
/// hopeless without independence partitioning (plain VE on n ≫ w inputs);
/// they would otherwise dominate the sweep's wall-clock time.
fn tight_budget() -> Option<u64> {
    Some(50_000)
}

/// Renders a timed `conf()` run like [`RunOutcome::render_time`]: seconds
/// on success, a budget annotation on failure (the only error the harness
/// inputs can produce is an exhausted node budget).
fn render_timed<E>(result: Result<(), E>, elapsed: std::time::Duration) -> String {
    match result {
        Ok(()) => format!("{:.4}", elapsed.as_secs_f64()),
        Err(_) => format!(">{:.4} (budget)", elapsed.as_secs_f64()),
    }
}

/// The Karp–Luby variant used in a sweep: the classic iteration bound for
/// paper-scale runs (to mirror the original plots), the adaptive optimal
/// stopping rule for quick runs (same estimator, far fewer iterations).
fn kl(scale: ExperimentScale, epsilon: f64) -> Algorithm {
    match scale {
        ExperimentScale::Quick => Algorithm::OptimalKarpLuby { epsilon },
        ExperimentScale::Paper => Algorithm::KarpLuby { epsilon },
    }
}

/// **Figure 10** (table): queries Q1 and Q2 on probabilistic TPC-H at three
/// scale factors; reports #input variables, answer ws-set size,
/// INDVE(minlog) time, and the per-tuple `conf()` workload through both the
/// sequential path and the shared-cache batch path (with the batch cache
/// hit rate).
pub fn fig10(scale: ExperimentScale) -> ResultTable {
    let mut table = ResultTable::new(
        "Figure 10: TPC-H queries, INDVE(minlog) + batch conf()",
        &[
            "query",
            "tpch_scale",
            "input_vars",
            "ws_set_size",
            "indve_minlog_s",
            "seq_conf_s",
            "batch_conf_s",
            "cache_hit_rate",
        ],
    );
    let row_scale = if scale.is_quick() { 0.03 } else { 0.2 };
    let options = DecompositionOptions {
        node_budget: budget(scale),
        ..DecompositionOptions::indve_minlog()
    };
    for tpch_scale in [0.01, 0.05, 0.10] {
        let data = TpchDatabase::generate(
            TpchConfig::scale(tpch_scale)
                .with_row_scale(row_scale)
                .with_seed(2008),
        );
        let world_table = data.db.world_table();
        for (name, answer, relation) in [
            ("Q1", q1_answer(&data), q1_answer_relation(&data)),
            ("Q2", q2_answer(&data), q2_answer_relation(&data)),
        ] {
            let outcome = run_algorithm(
                Algorithm::IndVe(VariableHeuristic::MinLog),
                &answer.ws_set,
                world_table,
                budget(scale),
            );
            // The per-tuple conf() workload: every distinct tuple plus the
            // answer-level Boolean confidence — sequentially, then batched
            // over one shared decomposition cache. Budget exhaustion is
            // rendered like the INDVE column, not panicked on.
            let start = Instant::now();
            let sequential = tuple_confidences_sequential(&relation, world_table, &options)
                .and_then(|t| boolean_confidence(&relation, world_table, &options).map(|_| t));
            let sequential_cell = render_timed(sequential.as_ref().map(|_| ()), start.elapsed());
            let start = Instant::now();
            let batch = answer_confidences_with_options(
                &relation,
                world_table,
                &options,
                &ParallelOptions::auto(),
                &SharedDecompositionCache::new(),
            );
            let batch_elapsed = start.elapsed();
            let batch_cell = render_timed(batch.as_ref().map(|_| ()), batch_elapsed);
            let hit_rate_cell = match &batch {
                Ok(batch) => {
                    if let Ok(sequential) = &sequential {
                        assert_eq!(sequential.len(), batch.tuples.len());
                    }
                    format!("{:.3}", batch.stats.cache_hit_rate())
                }
                Err(_) => "-".to_string(),
            };
            table.push_row(vec![
                name.to_string(),
                format!("{tpch_scale}"),
                answer.input_variables.to_string(),
                answer.ws_set_size().to_string(),
                outcome.render_time(),
                sequential_cell,
                batch_cell,
                hit_rate_cell,
            ]);
        }
    }
    table
}

/// The TPC-H-shaped equi-join used by the planned-vs-eager comparison:
/// `σ_{orderdate > 1995-03-15}(orders) ⋈_{orderkey} lineitem`, with the
/// selection already pushed so the two execution paths differ only in the
/// join algorithm (nested loop vs hash).
pub fn orders_lineitem_join_plan() -> Plan {
    Plan::scan("orders")
        .select(Predicate::cmp(
            uprob_urel::Expr::col("orderdate"),
            uprob_urel::Comparison::Gt,
            uprob_urel::Expr::val(uprob_datagen::tpch::dates::DATE_1995_03_15),
        ))
        .join_on(
            Plan::scan("lineitem"),
            Predicate::cols_eq("orderkey", "lineitem.orderkey"),
        )
}

/// **Planned vs. eager execution**: the TPC-H equi-join through the eager
/// nested-loop reference, the pipelined hash join, and the full Q1
/// product-chain plan through the optimizer — the speedup column is the
/// nested-loop over hash-join wall-clock ratio on the identical join.
pub fn planned_vs_eager(scale: ExperimentScale) -> ResultTable {
    let mut table = ResultTable::new(
        "Planned vs. eager: TPC-H equi-join (nested loop vs hash join)",
        &[
            "row_scale",
            "orders",
            "lineitems",
            "join_rows",
            "eager_nested_loop_s",
            "pipelined_hash_s",
            "optimized_q1_s",
            "hash_join_speedup",
        ],
    );
    let row_scales: &[f64] = if scale.is_quick() {
        &[0.02, 0.05]
    } else {
        &[0.05, 0.1, 0.2]
    };
    for &row_scale in row_scales {
        let data = TpchDatabase::generate(
            TpchConfig::scale(0.01)
                .with_row_scale(row_scale)
                .with_seed(2008),
        );
        let join = orders_lineitem_join_plan();

        let start = Instant::now();
        let eager = uprob_reference::urel::execute_plan(&data.db, &join).expect("valid join plan");
        let eager_elapsed = start.elapsed();

        let start = Instant::now();
        let hashed = data.db.query_unoptimized(&join).expect("valid join plan");
        let hash_elapsed = start.elapsed();
        assert_eq!(eager.rows(), hashed.rows(), "hash join must match");

        // The full Q1 plan in its unoptimized product-chain form, through
        // optimize + pipelined execution (optimization time included).
        let start = Instant::now();
        let optimized = data.db.query(&q1_plan()).expect("valid q1 plan");
        let optimized_elapsed = start.elapsed();

        let speedup = eager_elapsed.as_secs_f64() / hash_elapsed.as_secs_f64().max(1e-9);
        table.push_row(vec![
            format!("{row_scale}"),
            data.db
                .relation("orders")
                .expect("orders")
                .len()
                .to_string(),
            data.db
                .relation("lineitem")
                .expect("lineitem")
                .len()
                .to_string(),
            format!("{} (q1: {})", hashed.len(), optimized.len()),
            format!("{:.4}", eager_elapsed.as_secs_f64()),
            format!("{:.4}", hash_elapsed.as_secs_f64()),
            format!("{:.4}", optimized_elapsed.as_secs_f64()),
            format!("{speedup:.1}x"),
        ]);
    }
    // The optimizer output is stable across scales; record its shape once
    // so regressions in rule firing show up in the table diff.
    let data = TpchDatabase::generate(TpchConfig::scale(0.01).with_row_scale(0.01).with_seed(1));
    let optimized = optimize_plan(&q1_plan(), &data.db).expect("valid q1 plan");
    table.push_row(vec![
        "optimized_q1_nodes".to_string(),
        optimized.node_count().to_string(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
    ]);
    table
}

/// **Figure 11(a)**: few variables, many ws-descriptors (w ≫ n).
/// Compares VE, INDVE(minlog) and Karp–Luby at ε = 0.1 and ε = 0.01.
pub fn fig11a(scale: ExperimentScale) -> ResultTable {
    let mut table = ResultTable::new(
        "Figure 11(a): 100 variables, many ws-descriptors (r=4, s=4)",
        &["ws_set_size", "ve_s", "indve_s", "kl(e.1)_s", "kl(e.01)_s"],
    );
    let sizes: &[usize] = if scale.is_quick() {
        &[1_000, 2_000, 5_000]
    } else {
        &[1_000, 2_000, 5_000, 10_000, 25_000, 50_000]
    };
    for &w in sizes {
        let instance = HardInstance::generate(HardInstanceConfig {
            num_variables: 100,
            alternatives: 4,
            descriptor_length: 4,
            num_descriptors: w,
            seed: 11,
        });
        let run = |algorithm| {
            run_algorithm(
                algorithm,
                &instance.ws_set,
                &instance.world_table,
                budget(scale),
            )
            .render_time()
        };
        table.push_row(vec![
            w.to_string(),
            run(Algorithm::Ve),
            run(Algorithm::IndVe(VariableHeuristic::MinLog)),
            run(kl(scale, 0.1)),
            run(kl(scale, 0.01)),
        ]);
    }
    table
}

/// **Figure 11(b)**: many variables, few ws-descriptors (n ≫ w, s = 2);
/// the case where independent partitioning pays off.
pub fn fig11b(scale: ExperimentScale) -> ResultTable {
    let mut table = ResultTable::new(
        "Figure 11(b): many variables, few ws-descriptors (r=4, s=2)",
        &[
            "ws_set_size",
            "indve_s",
            "ve_s",
            "kl(e.1)_s",
            "kl-opt(e.1)_s",
        ],
    );
    let (num_variables, sizes): (usize, &[usize]) = if scale.is_quick() {
        (20_000, &[100, 500, 2_000])
    } else {
        (100_000, &[100, 200, 500, 1_000, 2_500, 6_000])
    };
    for &w in sizes {
        let instance = HardInstance::generate(HardInstanceConfig {
            num_variables,
            alternatives: 4,
            descriptor_length: 2,
            num_descriptors: w,
            seed: 13,
        });
        let run = |algorithm| {
            run_algorithm(
                algorithm,
                &instance.ws_set,
                &instance.world_table,
                budget(scale),
            )
            .render_time()
        };
        let ve_outcome = run_algorithm(
            Algorithm::Ve,
            &instance.ws_set,
            &instance.world_table,
            tight_budget(),
        );
        table.push_row(vec![
            w.to_string(),
            run(Algorithm::IndVe(VariableHeuristic::MinLog)),
            ve_outcome.render_time(),
            run(kl(scale, 0.1)),
            run(Algorithm::OptimalKarpLuby { epsilon: 0.1 }),
        ]);
    }
    table
}

/// **Figure 12**: the easy-hard-easy transition when the number of
/// descriptors is close to the number of variables (70 variables, r=4,
/// s=4); INDVE(minlog) min/median/max over several seeds, against
/// KL(ε = 0.001).
pub fn fig12(scale: ExperimentScale) -> ResultTable {
    let mut table = ResultTable::new(
        "Figure 12: #variables close to ws-set size (70 vars, r=4, s=4)",
        &[
            "ws_set_size",
            "indve_min_s",
            "indve_median_s",
            "indve_max_s",
            "kl(e.001)_s",
        ],
    );
    let (num_variables, sizes, runs): (usize, &[usize], usize) = if scale.is_quick() {
        (24, &[5, 12, 24, 96, 400], 3)
    } else {
        (70, &[5, 20, 70, 200, 825, 5_000], 5)
    };
    for &w in sizes {
        let mut times: Vec<RunOutcome> = Vec::new();
        for seed in 0..runs as u64 {
            let instance = HardInstance::generate(HardInstanceConfig {
                num_variables,
                alternatives: 4,
                descriptor_length: 4.min(num_variables),
                num_descriptors: w,
                seed: 100 + seed,
            });
            times.push(run_algorithm(
                Algorithm::IndVe(VariableHeuristic::MinLog),
                &instance.ws_set,
                &instance.world_table,
                budget(scale),
            ));
        }
        let mut seconds: Vec<f64> = times.iter().map(|t| t.elapsed().as_secs_f64()).collect();
        seconds.sort_by(f64::total_cmp);
        let kl_instance = HardInstance::generate(HardInstanceConfig {
            num_variables,
            alternatives: 4,
            descriptor_length: 4.min(num_variables),
            num_descriptors: w,
            seed: 100,
        });
        let kl_epsilon = if scale.is_quick() { 0.01 } else { 0.001 };
        let kl = run_algorithm(
            kl(scale, kl_epsilon),
            &kl_instance.ws_set,
            &kl_instance.world_table,
            None,
        );
        table.push_row(vec![
            w.to_string(),
            format!("{:.4}", seconds.first().copied().unwrap_or(0.0)),
            format!("{:.4}", seconds[seconds.len() / 2]),
            format!("{:.4}", seconds.last().copied().unwrap_or(0.0)),
            kl.render_time(),
        ]);
    }
    table
}

/// **Figure 13**: the minlog versus minmax heuristics (r=4, s=4).
pub fn fig13(scale: ExperimentScale) -> ResultTable {
    let mut table = ResultTable::new(
        "Figure 13: INDVE heuristics, minmax versus minlog (r=4, s=4)",
        &["ws_set_size", "minmax_s", "minlog_s"],
    );
    let (num_variables, sizes): (usize, &[usize]) = if scale.is_quick() {
        (2_000, &[50, 100, 200, 500])
    } else {
        (100_000, &[50, 100, 200, 500, 1_000])
    };
    for &w in sizes {
        let instance = HardInstance::generate(HardInstanceConfig {
            num_variables,
            alternatives: 4,
            descriptor_length: 4,
            num_descriptors: w,
            seed: 17,
        });
        let run = |heuristic| {
            run_algorithm(
                Algorithm::IndVe(heuristic),
                &instance.ws_set,
                &instance.world_table,
                budget(scale),
            )
            .render_time()
        };
        table.push_row(vec![
            w.to_string(),
            run(VariableHeuristic::MinMax),
            run(VariableHeuristic::MinLog),
        ]);
    }
    table
}

/// Ablation: the value of independent partitioning and of the heuristics —
/// INDVE vs VE vs WE on an independence-rich workload (s = 2).
pub fn ablation_decomposition(scale: ExperimentScale) -> ResultTable {
    let mut table = ResultTable::new(
        "Ablation: decomposition rules on an independence-rich workload (r=2, s=2)",
        &[
            "ws_set_size",
            "indve_minlog_s",
            "indve_firstvar_s",
            "ve_s",
            "we_s",
        ],
    );
    let sizes: &[usize] = if scale.is_quick() {
        &[16, 50, 200, 800]
    } else {
        &[16, 50, 200, 800, 3_200]
    };
    for &w in sizes {
        let instance = HardInstance::generate(HardInstanceConfig {
            num_variables: (w * 4).max(16),
            alternatives: 2,
            descriptor_length: 2,
            num_descriptors: w,
            seed: 19,
        });
        let run = |algorithm, node_budget| {
            run_algorithm(
                algorithm,
                &instance.ws_set,
                &instance.world_table,
                node_budget,
            )
            .render_time()
        };
        // WE expands the difference ws-set, which is exponential on
        // independence-rich inputs (Section 6, ~2^w descriptors here); run
        // it unbudgeted where it can finish, and under the tight budget
        // elsewhere so it surfaces as budget-exceeded instead of hanging.
        let we_cell = if w <= 16 {
            run(Algorithm::We, None)
        } else {
            run(Algorithm::We, tight_budget())
        };
        table.push_row(vec![
            w.to_string(),
            run(Algorithm::IndVe(VariableHeuristic::MinLog), budget(scale)),
            run(
                Algorithm::IndVe(VariableHeuristic::FirstVariable),
                budget(scale),
            ),
            run(Algorithm::Ve, tight_budget()),
            we_cell,
        ]);
    }
    table
}

/// Ablation: conditioning overhead over pure confidence computation
/// (the paper reports that materialising the conditioned database "adds
/// only a small overhead").
pub fn ablation_conditioning(scale: ExperimentScale) -> ResultTable {
    let mut table = ResultTable::new(
        "Ablation: conditioning versus confidence computation (TPC-H, key constraint)",
        &[
            "tpch_scale",
            "constraint_ws_size",
            "confidence_s",
            "conditioning_s",
            "posterior_vars",
        ],
    );
    let row_scale = if scale.is_quick() { 0.02 } else { 0.1 };
    for tpch_scale in [0.01, 0.05] {
        let data = TpchDatabase::generate(
            TpchConfig::scale(tpch_scale)
                .with_row_scale(row_scale)
                .with_seed(7),
        );
        // Evidence: no order was placed after the last shipping date of its
        // lineitems — expressed here as a key constraint on the orders
        // relation restricted through a row filter; we use a simple
        // row-level constraint to keep the condition ws-set independent.
        let constraint = Constraint::row_filter(
            "lineitem",
            uprob_urel::Predicate::cmp(
                uprob_urel::Expr::col("quantity"),
                uprob_urel::Comparison::Lt,
                uprob_urel::Expr::val(49i64),
            ),
        );
        let satisfying = constraint
            .satisfying_ws_set(&data.db)
            .expect("constraint is well formed");
        let start = Instant::now();
        let confidence_outcome = run_algorithm(
            Algorithm::Ve,
            &satisfying,
            data.db.world_table(),
            budget(scale),
        );
        let confidence_time = start.elapsed();
        let start = Instant::now();
        let conditioned = assert_constraint(&data.db, &constraint, &ConditioningOptions::default())
            .expect("constraint is satisfiable");
        let conditioning_time = start.elapsed();
        let _ = confidence_outcome;
        table.push_row(vec![
            format!("{tpch_scale}"),
            satisfying.len().to_string(),
            format!("{:.4}", confidence_time.as_secs_f64()),
            format!("{:.4}", conditioning_time.as_secs_f64()),
            conditioned.db.world_table().num_variables().to_string(),
        ]);
    }
    table
}

/// Parallel scaling: wall-clock of the parallel exact fold versus
/// worker count, on the block-parallel hard workload (variable-disjoint
/// Figure-12-shaped blocks, so the root ⊗-partition fans out across
/// workers) and on the TPC-H Q1 boolean answer of Figure 10. Every row
/// also re-checks the bit-identity contract against the sequential fold;
/// speedups above 1x require the cores to actually exist, so the table
/// records how many the host exposes.
pub fn parallel_scaling(scale: ExperimentScale) -> ResultTable {
    let mut table = ResultTable::new(
        &format!(
            "Parallel scaling: split-and-fan-out exact fold ({} cores detected)",
            available_cores()
        ),
        &[
            "instance",
            "ws_set_size",
            "workers",
            "time_s",
            "speedup",
            "bit_identical",
        ],
    );
    let options = DecompositionOptions::indve_minlog();
    let workload = ParallelWorkload::generate(if scale.is_quick() {
        ParallelWorkloadConfig {
            blocks: 6,
            vars_per_block: 18,
            descriptors_per_block: 18,
            ..Default::default()
        }
    } else {
        ParallelWorkloadConfig {
            blocks: 16,
            vars_per_block: 26,
            descriptors_per_block: 26,
            ..Default::default()
        }
    });
    let tpch_row_scale = if scale.is_quick() { 0.05 } else { 0.1 };
    let data = TpchDatabase::generate(
        TpchConfig::scale(0.01)
            .with_row_scale(tpch_row_scale)
            .with_seed(2008),
    );
    let q1_boolean = q1_answer_relation(&data).answer_ws_set();
    let instances = [
        ("hard_blocks", &workload.world_table, &workload.ws_set),
        ("tpch_q1_boolean", data.db.world_table(), &q1_boolean),
    ];
    for (name, world_table, ws_set) in instances {
        let sequential = confidence_parallel(
            ws_set,
            world_table,
            &options,
            &ParallelOptions::sequential(),
            None,
        )
        .expect("the scaling instances run without a budget");
        let mut baseline: Option<f64> = None;
        for workers in [1usize, 2, 4, 8] {
            let parallel = ParallelOptions::new(workers);
            let start = Instant::now();
            let report = confidence_parallel(ws_set, world_table, &options, &parallel, None)
                .expect("the scaling instances run without a budget");
            let elapsed = start.elapsed().as_secs_f64();
            let baseline_s = *baseline.get_or_insert(elapsed);
            let identical = report.probability.to_bits() == sequential.probability.to_bits();
            table.push_row(vec![
                name.to_string(),
                ws_set.len().to_string(),
                workers.to_string(),
                format!("{elapsed:.4}"),
                format!("{:.2}", baseline_s / elapsed.max(1e-9)),
                if identical { "yes" } else { "DIVERGED" }.to_string(),
            ]);
        }
    }
    table
}

/// The `q`-quantile of an ascending-sorted latency sample (nearest rank).
fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let index = ((sorted_ms.len() - 1) as f64 * q).round() as usize;
    sorted_ms[index.min(sorted_ms.len() - 1)]
}

/// **Serving layer**: load-generates the snapshot-isolated
/// [`ProbDbService`] with 1/2/4/8 concurrent readers issuing a TPC-H plan
/// mix of `conf()` requests, and reports throughput (queries/s), latency
/// percentiles (p50/p99 in ms), the plan-cache and decomposition-cache hit
/// rates, the number of coalesced requests, and whether every served
/// answer stayed bit-identical to the single-owner sequential library
/// call.
pub fn serve_load(scale: ExperimentScale) -> ResultTable {
    let mut table = ResultTable::new(
        "Concurrent serving: ProbDbService load generation (TPC-H conf() mix)",
        &[
            "readers",
            "requests",
            "qps",
            "p50_ms",
            "p99_ms",
            "plan_hit_rate",
            "decomp_hit_rate",
            "coalesced",
            "bit_identical",
        ],
    );
    let row_scale = if scale.is_quick() { 0.02 } else { 0.1 };
    let data = TpchDatabase::generate(
        TpchConfig::scale(0.01)
            .with_row_scale(row_scale)
            .with_seed(2008),
    );
    let plans: Vec<Plan> = vec![
        q1_plan(),
        Plan::scan("orders").select(Predicate::cmp(
            uprob_urel::Expr::col("orderdate"),
            uprob_urel::Comparison::Gt,
            uprob_urel::Expr::val(uprob_datagen::tpch::dates::DATE_1995_03_15),
        )),
    ];
    let options = ServiceOptions::default();
    // The single-owner sequential reference per plan: the bit-identity
    // oracle every served answer is checked against.
    let reference: Vec<(u64, Vec<u64>)> = plans
        .iter()
        .map(|plan| {
            let answer = planned_answer_confidences_with_options(
                &data.db,
                plan,
                &options.decomposition,
                &ParallelOptions::sequential(),
                &SharedDecompositionCache::new(),
            )
            .expect("the serve workload decomposes without a budget");
            (
                answer.boolean.to_bits(),
                answer.tuples.iter().map(|(_, p)| p.to_bits()).collect(),
            )
        })
        .collect();
    let per_reader = if scale.is_quick() { 12 } else { 60 };
    for readers in [1usize, 2, 4, 8] {
        let service = ProbDbService::with_options(data.db.clone(), options);
        let mut latencies_ms: Vec<f64> = Vec::new();
        let mut identical = true;
        let start = Instant::now();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..readers)
                .map(|_| {
                    let service = &service;
                    let plans = &plans;
                    let reference = &reference;
                    scope.spawn(move || {
                        let mut latencies = Vec::with_capacity(per_reader);
                        let mut identical = true;
                        for i in 0..per_reader {
                            let plan = i % plans.len();
                            let request_start = Instant::now();
                            let answer = service
                                .conf(&plans[plan])
                                .expect("the serve workload decomposes without a budget");
                            latencies.push(request_start.elapsed().as_secs_f64() * 1e3);
                            let (boolean_bits, tuple_bits) = &reference[plan];
                            identical &= answer.boolean.to_bits() == *boolean_bits
                                && answer.tuples.len() == tuple_bits.len()
                                && answer
                                    .tuples
                                    .iter()
                                    .zip(tuple_bits)
                                    .all(|((_, p), bits)| p.to_bits() == *bits);
                        }
                        (latencies, identical)
                    })
                })
                .collect();
            for handle in handles {
                let (latencies, reader_identical) = handle.join().expect("reader thread");
                latencies_ms.extend(latencies);
                identical &= reader_identical;
            }
        });
        let wall = start.elapsed().as_secs_f64();
        latencies_ms.sort_by(f64::total_cmp);
        let stats = service.stats();
        let cache = service.snapshot().cache_stats();
        table.push_row(vec![
            readers.to_string(),
            latencies_ms.len().to_string(),
            format!("{:.1}", latencies_ms.len() as f64 / wall.max(1e-9)),
            format!("{:.3}", percentile(&latencies_ms, 0.50)),
            format!("{:.3}", percentile(&latencies_ms, 0.99)),
            format!("{:.2}", stats.plan_hit_rate()),
            format!("{:.2}", cache.hit_rate()),
            stats.coalesced.to_string(),
            if identical { "yes" } else { "DIVERGED" }.to_string(),
        ]);
    }
    table
}

/// **Continuous ingest**: streams the sensor workload through the
/// serving layer — `ingest()` appends uncertain readings without a
/// publish, `assert_all_delta()` re-conditions and publishes a posterior
/// snapshot that inherits warm decomposition-cache entries over the
/// (never-mutated) `sensors` fleet relation. Reports sustained ingest
/// throughput (tuples/s), staleness at publish time (rows visible to
/// writers but not yet to readers), how many conditioned violation
/// ws-sets were reused from the memo, the inherited-entry carry/hit
/// counts of the published cache, and whether the served fleet answer
/// stayed bit-identical to a cold single-owner sequential recompute.
pub fn ingest_load(scale: ExperimentScale) -> ResultTable {
    let mut table = ResultTable::new(
        "Continuous ingest: delta conditioning + cross-snapshot cache inheritance",
        &[
            "publish",
            "batches",
            "tuples",
            "tuples_per_s",
            "staleness_rows",
            "reused_violations",
            "inherited_entries",
            "inherited_hits",
            "bit_identical",
        ],
    );
    let config = if scale.is_quick() {
        SensorConfig::default()
    } else {
        SensorConfig {
            sensors: 24,
            readings_per_batch: 64,
            batches: 24,
            seed_readings: 16,
            seed: 2008,
        }
    };
    let batches_per_publish = 2usize;
    let workload = SensorWorkload::generate(&config);
    // The standing fleet query: which zones still have an operational
    // sensor. Its answer ws-sets mention only the per-sensor variables,
    // which ingest never touches — the entries inheritance must keep hot.
    let plan = Plan::scan("sensors").project(&["ZONE"]);
    let options = ServiceOptions::default();
    let service = ProbDbService::with_options(workload.db.clone(), options);
    service
        .conf(&plan)
        .expect("the fleet plan decomposes without a budget");

    let start = Instant::now();
    let mut total_tuples = 0usize;
    let mut batches_done = 0usize;
    let mut unpublished_rows = 0usize;
    let mut publishes = 0usize;
    let mut next_reading = config.seed_readings;
    for chunk in workload.batches.chunks(batches_per_publish) {
        for batch in chunk {
            service
                .ingest(|delta| {
                    for reading in batch {
                        let var =
                            delta.add_boolean(&format!("r{next_reading}"), reading.reliability)?;
                        next_reading += 1;
                        let descriptor =
                            WsDescriptor::from_pairs(delta.world_table(), &[(var, 1)])?;
                        delta.append("readings", reading.tuple(), descriptor)?;
                    }
                    Ok(())
                })
                .expect("the generated batch applies cleanly");
            total_tuples += batch.len();
            unpublished_rows += batch.len();
            batches_done += 1;
        }
        let staleness_rows = unpublished_rows;
        let outcome = service
            .assert_all_delta(&workload.constraints)
            .expect("the canonical constraints are satisfiable");
        unpublished_rows = 0;
        publishes += 1;
        // Serve the standing query from the published snapshot (warming
        // inherited entries into hits), then compare against the cold
        // single-owner sequential oracle on the same database.
        let served = service
            .conf(&plan)
            .expect("the fleet plan decomposes without a budget");
        let reference = planned_answer_confidences_with_options(
            outcome.snapshot.db(),
            &plan,
            &options.decomposition,
            &ParallelOptions::sequential(),
            &SharedDecompositionCache::new(),
        )
        .expect("the fleet plan decomposes without a budget");
        let identical = served.boolean.to_bits() == reference.boolean.to_bits()
            && served.tuples.len() == reference.tuples.len()
            && served
                .tuples
                .iter()
                .zip(&reference.tuples)
                .all(|((t1, p1), (t2, p2))| t1 == t2 && p1.to_bits() == p2.to_bits());
        let cache = service.snapshot().cache_stats();
        let elapsed = start.elapsed().as_secs_f64();
        table.push_row(vec![
            publishes.to_string(),
            batches_done.to_string(),
            total_tuples.to_string(),
            format!("{:.1}", total_tuples as f64 / elapsed.max(1e-9)),
            staleness_rows.to_string(),
            outcome.reused_violations.to_string(),
            cache.inherited_entries.to_string(),
            cache.inherited_hits.to_string(),
            if identical { "yes" } else { "DIVERGED" }.to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig10_quick_produces_six_rows() {
        let table = fig10(ExperimentScale::Quick);
        assert_eq!(table.len(), 6);
        // Every row reports a positive ws-set size and a parseable batch
        // cache hit rate.
        for row in table.rows() {
            assert!(row[3].parse::<usize>().unwrap() > 0);
            let hit_rate = row[7].parse::<f64>().unwrap();
            assert!((0.0..=1.0).contains(&hit_rate));
        }
    }

    #[test]
    fn fig10_batch_matches_sequential_and_reuses_the_cache() {
        // The acceptance check of the decomposition-cache subsystem on the
        // TPC-H Figure 10 workload: the batch path must reproduce the
        // sequential per-tuple confidences to 1e-12 and must report a
        // nonzero cache hit rate (the answer-level Boolean confidence
        // decomposes into the per-order components the batch memoized).
        let data =
            TpchDatabase::generate(TpchConfig::scale(0.01).with_row_scale(0.05).with_seed(2008));
        let world_table = data.db.world_table();
        let options = DecompositionOptions::indve_minlog();
        let relation = q1_answer_relation(&data);
        assert!(!relation.is_empty(), "the tiny instance has Q1 answers");

        let sequential = tuple_confidences_sequential(&relation, world_table, &options).unwrap();
        let batch = answer_confidences_with_options(
            &relation,
            world_table,
            &options,
            &ParallelOptions::auto(),
            &SharedDecompositionCache::new(),
        )
        .unwrap();
        assert_eq!(sequential.len(), batch.tuples.len());
        for ((t1, p1), (t2, p2)) in sequential.iter().zip(&batch.tuples) {
            assert_eq!(t1, t2);
            assert!(
                (p1 - p2).abs() < 1e-12,
                "tuple {t1:?}: sequential {p1}, batch {p2}"
            );
        }
        let boolean = boolean_confidence(&relation, world_table, &options).unwrap();
        assert!((batch.boolean - boolean).abs() < 1e-12);
        assert!(
            batch.stats.cache_hits > 0,
            "fig10 batch must reuse memoized sub-ws-sets: {:?}",
            batch.stats
        );
        assert!(batch.stats.cache_hit_rate() > 0.0);
    }

    #[test]
    fn fig13_quick_compares_both_heuristics() {
        let table = fig13(ExperimentScale::Quick);
        assert_eq!(table.len(), 4);
        assert_eq!(table.header()[1], "minmax_s");
    }

    #[test]
    fn ablation_conditioning_reports_overheads() {
        let table = ablation_conditioning(ExperimentScale::Quick);
        assert_eq!(table.len(), 2);
        for row in table.rows() {
            assert!(row[2].parse::<f64>().unwrap() >= 0.0);
            assert!(row[3].parse::<f64>().unwrap() >= 0.0);
        }
    }

    #[test]
    fn parallel_scaling_quick_stays_bit_identical_at_every_worker_count() {
        let table = parallel_scaling(ExperimentScale::Quick);
        // Two instances x four worker counts.
        assert_eq!(table.len(), 8);
        for row in table.rows() {
            assert!(row[1].parse::<usize>().unwrap() > 0);
            assert!(row[3].parse::<f64>().unwrap() >= 0.0);
            assert_eq!(
                row[5], "yes",
                "the bit-identity contract must hold in the scaling sweep: {row:?}"
            );
        }
    }

    #[test]
    fn serve_load_quick_reports_rates_and_stays_bit_identical() {
        let table = serve_load(ExperimentScale::Quick);
        // One row per reader count.
        assert_eq!(table.len(), 4);
        for row in table.rows() {
            assert!(row[1].parse::<usize>().unwrap() > 0, "requests: {row:?}");
            assert!(row[2].parse::<f64>().unwrap() > 0.0, "qps: {row:?}");
            let p50 = row[3].parse::<f64>().unwrap();
            let p99 = row[4].parse::<f64>().unwrap();
            assert!(p50 >= 0.0 && p99 >= p50, "percentiles: {row:?}");
            let plan_hits = row[5].parse::<f64>().unwrap();
            assert!((0.0..=1.0).contains(&plan_hits), "plan hit rate: {row:?}");
            let decomp_hits = row[6].parse::<f64>().unwrap();
            assert!(
                (0.0..=1.0).contains(&decomp_hits),
                "decomposition hit rate: {row:?}"
            );
            assert_eq!(
                row[8], "yes",
                "served answers must stay bit-identical: {row:?}"
            );
        }
        // Repeated identical requests must actually hit the plan cache.
        let single_reader = &table.rows()[0];
        assert!(single_reader[5].parse::<f64>().unwrap() > 0.5);
    }

    #[test]
    fn ingest_load_quick_inherits_hot_entries_and_stays_bit_identical() {
        let table = ingest_load(ExperimentScale::Quick);
        // Six default batches published every two batches.
        assert_eq!(table.len(), 3);
        let mut inherited_hits_seen = false;
        for row in table.rows() {
            assert!(row[2].parse::<usize>().unwrap() > 0, "tuples: {row:?}");
            assert!(row[3].parse::<f64>().unwrap() > 0.0, "tuples/s: {row:?}");
            // Ingest batches stay writer-visible (and reader-invisible)
            // until the publish, so staleness at publish time is exactly
            // the rows appended since the previous one.
            assert!(
                row[4].parse::<usize>().unwrap() > 0,
                "staleness rows: {row:?}"
            );
            // Every publish must carry warm entries forward: the fleet
            // relation is never mutated, so its cached decompositions
            // stay eligible.
            assert!(
                row[6].parse::<u64>().unwrap() > 0,
                "inherited entries: {row:?}"
            );
            inherited_hits_seen |= row[7].parse::<u64>().unwrap() > 0;
            assert_eq!(
                row[8], "yes",
                "served ingest answers must stay bit-identical: {row:?}"
            );
        }
        // The acceptance criterion of the delta-conditioning PR: after a
        // publish that leaves at least one relation unmutated, the
        // inherited-cache hit count is nonzero (the standing fleet query
        // is re-answered from carried-forward entries).
        assert!(
            inherited_hits_seen,
            "no publish reported inherited-cache hits: {:?}",
            table.rows()
        );
        // The memo makes re-conditioning incremental: once the key
        // constraint's relation stops changing, its violation ws-set is
        // reused rather than recomputed.
        let last = &table.rows()[2];
        assert!(
            last[5].parse::<u64>().unwrap() > 0,
            "reused violations: {last:?}"
        );
    }
}
