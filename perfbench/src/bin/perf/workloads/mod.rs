//! The five workloads, and the read paths more than one of them issues.

pub mod condition;
pub mod hard;
pub mod sensor;
pub mod tpch;

use std::time::Instant;

use uprob_core::{DecompositionOptions, ParallelOptions, SharedDecompositionCache};
use uprob_query::{
    answer_confidences_with_options, planned_answer_confidences_with_options, AnswerConfidences,
    ProbDbService,
};
use uprob_urel::{execute_plan, optimize_plan, Plan, ProbDb, URelation};

use crate::digest::Digest;
use crate::harness::{Counters, Lane};
use crate::trace::{SpanId, Tracer};

/// Derives an independent sub-seed (splitmix64 finalizer) so the parts of a
/// workload do not share RNG streams.
pub fn sub_seed(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(index.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Every confidence of one answer, in the answer's own (sorted-tuple) order.
pub fn answer_digest(answer: &AnswerConfidences) -> u64 {
    let mut digest = Digest::default();
    digest.push_f64(answer.boolean);
    digest.push_u64(answer.tuples.len() as u64);
    for (_, probability) in &answer.tuples {
        digest.push_f64(*probability);
    }
    digest.value()
}

/// The analyst's `select …, conf()` as one composite call on a database
/// nobody else holds: sequential fold, fresh decomposition cache. Also the
/// single-owner reference every served answer is compared with.
pub fn cold_read(db: &ProbDb, plan: &Plan, options: &DecompositionOptions) -> Option<u64> {
    planned_answer_confidences_with_options(
        db,
        plan,
        options,
        &ParallelOptions::sequential(),
        &SharedDecompositionCache::new(),
    )
    .ok()
    .map(|answer| answer_digest(&answer))
}

fn count_execution(counters: &mut Counters, answer: &URelation) {
    counters.add("urel.exec.rows_out", answer.len() as f64);
    counters.add("query.confidence.descriptors_in", answer.len() as f64);
}

fn count_answer(counters: &mut Counters, answer: &AnswerConfidences) {
    counters.add("query.confidence.tuples_out", answer.tuples.len() as f64);
    counters.add("core.decompose.nodes", answer.stats.total_nodes() as f64);
    counters.max("core.decompose.max_depth", answer.stats.max_depth as f64);
    counters.add("core.cache.hits", answer.stats.cache_hits as f64);
    counters.add("core.cache.misses", answer.stats.cache_misses as f64);
}

/// `optimize_plan` under a span, with the optimizer's node counts.
fn traced_optimize(
    tracer: &mut Tracer,
    counters: &mut Counters,
    (op, root): (u64, SpanId),
    plan: &Plan,
    db: &ProbDb,
) -> Option<Plan> {
    let optimized = tracer
        .span("urel.optimizer.optimize", op, Some(root), || {
            optimize_plan(plan, db)
        })
        .ok()?;
    counters.add("urel.optimizer.nodes_in", plan.node_count() as f64);
    counters.add("urel.optimizer.nodes_out", optimized.node_count() as f64);
    Some(optimized)
}

/// [`cold_read`] issued as its constituent public calls, each under a span.
pub fn traced_cold_read(
    lane: &mut Lane,
    db: &ProbDb,
    plan: &Plan,
    options: &DecompositionOptions,
) -> Option<u64> {
    let Lane {
        tracer, counters, ..
    } = lane;
    let tracer = tracer.as_mut().expect("traced window has a tracer");
    let op = tracer.next_op();
    let root = tracer.open("read", op, None);
    let answer = (|| {
        let optimized = traced_optimize(tracer, counters, (op, root), plan, db)?;
        let rows = tracer
            .span("urel.exec.execute", op, Some(root), || {
                execute_plan(db, &optimized)
            })
            .ok()?;
        count_execution(counters, &rows);
        let cache = SharedDecompositionCache::new();
        let answer = tracer
            .span("query.confidence.cold_answer", op, Some(root), || {
                answer_confidences_with_options(
                    &rows,
                    db.world_table(),
                    options,
                    &ParallelOptions::sequential(),
                    &cache,
                )
            })
            .ok()?;
        count_answer(counters, &answer);
        counters.max("core.cache.entries_peak", cache.stats().entries as f64);
        Some(answer)
    })();
    tracer.close(root);
    answer.map(|answer| answer_digest(&answer))
}

/// `ProbDbService::conf` issued as its constituent public calls: pin the
/// snapshot, take the optimized plan from a memo keyed like the service's
/// plan cache (one `optimize_plan` per plan and snapshot), execute, and
/// answer against the snapshot's warm decomposition cache.
pub struct ServedReader {
    stamp: u64,
    optimized: Vec<Option<Plan>>,
}

impl ServedReader {
    pub fn new(plans: usize) -> ServedReader {
        ServedReader {
            stamp: 0,
            optimized: vec![None; plans],
        }
    }

    /// Returns the answer digest and the stamp of the snapshot it read.
    pub fn read(
        &mut self,
        lane: &mut Lane,
        service: &ProbDbService,
        plans: &[Plan],
        index: usize,
    ) -> Option<(u64, u64)> {
        let Lane {
            tracer, counters, ..
        } = lane;
        let tracer = tracer.as_mut().expect("traced window has a tracer");
        let op = tracer.next_op();
        let root = tracer.open("read", op, None);
        let snapshot = service.snapshot();
        if snapshot.stamp() != self.stamp {
            self.stamp = snapshot.stamp();
            self.optimized.fill(None);
        }
        let answer = (|| {
            let db = snapshot.db();
            if self.optimized[index].is_none() {
                self.optimized[index] = Some(traced_optimize(
                    tracer,
                    counters,
                    (op, root),
                    &plans[index],
                    db,
                )?);
            }
            let optimized = self.optimized[index].as_ref()?;
            let rows = tracer
                .span("urel.exec.execute", op, Some(root), || {
                    execute_plan(db, optimized)
                })
                .ok()?;
            count_execution(counters, &rows);
            let options = service.options();
            let answer = tracer
                .span("query.confidence.warm_answer", op, Some(root), || {
                    answer_confidences_with_options(
                        &rows,
                        db.world_table(),
                        &options.decomposition,
                        &options.parallel,
                        snapshot.cache(),
                    )
                })
                .ok()?;
            count_answer(counters, &answer);
            counters.max(
                "core.cache.entries_peak",
                snapshot.cache_stats().entries as f64,
            );
            Some(answer)
        })();
        tracer.close(root);
        answer.map(|answer| (answer_digest(&answer), snapshot.stamp()))
    }
}

/// Two layer entry points a read does not time on its own, on `plan`'s
/// answer: `independent_partition` of the answer ws-set, and the warm answer
/// (grouping + cache probes, no fold) that `core.decompose.fold_ms` is the
/// cold answer minus.
pub fn probe_answer_layers(
    counters: &mut Counters,
    db: &ProbDb,
    plan: &Plan,
    options: &DecompositionOptions,
) {
    let Ok(rows) = db.query(plan) else {
        return;
    };
    let root = rows.answer_ws_set();
    let start = Instant::now();
    std::hint::black_box(root.independent_partition());
    counters.add("wsd.ws_set.partition_ms", ms_since(start));
    let cache = SharedDecompositionCache::new();
    let answer = || {
        answer_confidences_with_options(
            &rows,
            db.world_table(),
            options,
            &ParallelOptions::sequential(),
            &cache,
        )
    };
    let _ = std::hint::black_box(answer());
    let start = Instant::now();
    let _ = std::hint::black_box(answer());
    counters.add("probe.warm_answer_ms", ms_since(start));
}

/// Records the service's own counters at the end of an untraced window.
pub fn count_service(counters: &mut Counters, service: &ProbDbService) {
    let stats = service.stats();
    let share = |part: u64, whole: u64| {
        if whole == 0 {
            0.0
        } else {
            part as f64 / whole as f64
        }
    };
    counters.add("query.service.plan_hit_rate", stats.plan_hit_rate());
    counters.add(
        "query.service.coalesced_share",
        share(stats.coalesced, stats.coalesced + stats.confidence_folds),
    );
    counters.add(
        "query.service.confidence_folds",
        stats.confidence_folds as f64,
    );
    counters.add(
        "query.service.contained_panics",
        stats.contained_panics as f64,
    );
}
