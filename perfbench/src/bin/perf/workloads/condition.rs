//! `condition_assert`: data cleaning. `assert_all` of a row-filter
//! constraint on TPC-H `lineitem` and of the four-family constraint
//! workload, each followed by one posterior `conf()` read on the
//! materialized posterior database.

use std::time::{Duration, Instant};

use uprob_core::{condition, Conditioned, ConditioningOptions, DecompositionOptions};
use uprob_datagen::{
    q2_plan, ConstraintWorkload, ConstraintWorkloadConfig, TpchConfig, TpchDatabase,
};
use uprob_query::{assert_all, Constraint};
use uprob_urel::{Comparison, Expr, Plan, Predicate, ProbDb};
use uprob_wsd::WsSet;

use super::{cold_read, ms_since, probe_answer_layers, traced_cold_read};
use crate::digest::{Digest, Fingerprint};
use crate::harness::{count_allocations, Counters, Lane, Sink, Workload};

/// How many `lineitem` rows violate the TPC-H leg's constraint. The cost of
/// the assert grows with the square of this count (150 ms at 108, 210 ms at
/// 126), and `quantity < 49` — the `ablation_conditioning` evidence — is
/// violated by 108 to 126 rows depending on the seed. So the constraint is
/// `extendedprice < t` with `t` the 64th largest price: exactly 64
/// violation descriptors for every seed, the same shape of evidence, and a
/// prior confidence around 1e-25 that a numerically sloppy shortcut would
/// not reproduce bit for bit.
const TPCH_VIOLATIONS: usize = 64;

/// Do not scale up naively: `people: 96` made the posterior read run for
/// minutes, and TPC-H `row_scale(0.1)` costs 15 s per assert.
const CONSTRAINT_WORKLOAD: ConstraintWorkloadConfig = ConstraintWorkloadConfig {
    departments: 6,
    people: 48,
    conflicts: 2,
    dangling: 2,
    out_of_range: 2,
    seed: 0,
};

const TPCH: usize = 0;
const FAMILIES: usize = 1;
/// One round: one TPC-H assert (~70 ms) and three four-family asserts
/// (~50 ms each), so both read percentiles and the median write fall inside
/// the four-family leg and the TPC-H leg shows in `ops_s`.
const RING: [usize; 4] = [TPCH, FAMILIES, FAMILIES, FAMILIES];

struct Leg {
    db: ProbDb,
    constraints: Vec<Constraint>,
    read_plan: Plan,
    /// Bits of the prior confidence of the constraint set.
    reference_confidence: Option<u64>,
    /// Digest of the posterior read.
    reference_read: Option<u64>,
    violation_descriptors: u64,
    posterior_variables: u64,
}

pub struct ConditionAssert {
    legs: Vec<Leg>,
    conditioning: ConditioningOptions,
    decomposition: DecompositionOptions,
}

fn tpch_constraint(db: &ProbDb) -> Constraint {
    let mut prices: Vec<f64> = db
        .relation("lineitem")
        .map(|lineitem| {
            lineitem
                .iter()
                .filter_map(|(tuple, _)| {
                    tuple
                        .get(uprob_datagen::tpch::lineitem_columns::EXTENDEDPRICE)
                        .and_then(|v| v.as_float())
                })
                .collect()
        })
        .unwrap_or_default();
    prices.sort_by(|a, b| b.total_cmp(a));
    let threshold = prices
        .get(TPCH_VIOLATIONS - 1)
        .copied()
        .unwrap_or(f64::INFINITY);
    Constraint::row_filter(
        "lineitem",
        Predicate::cmp(
            Expr::col("extendedprice"),
            Comparison::Lt,
            Expr::val(threshold),
        ),
    )
}

impl ConditionAssert {
    fn write(&self, leg: &Leg) -> Option<Conditioned> {
        assert_all(&leg.db, &leg.constraints, &self.conditioning).ok()
    }

    /// `assert_all` as its constituent calls: compile each violation ws-set,
    /// union them, complement once, condition once.
    fn traced_write(&self, lane: &mut Lane, leg: &Leg) -> Option<Conditioned> {
        let Lane {
            tracer, counters, ..
        } = lane;
        let tracer = tracer.as_mut().expect("traced window has a tracer");
        let op = tracer.next_op();
        let root = tracer.open("write", op, None);
        let conditioned = (|| {
            let mut violations = WsSet::empty();
            for constraint in &leg.constraints {
                let compiled = tracer
                    .span("query.constraints.violation", op, Some(root), || {
                        constraint.violation_ws_set(&leg.db)
                    })
                    .ok()?;
                violations = tracer.span("wsd.ws_set.union", op, Some(root), || {
                    violations.union(&compiled)
                });
            }
            // Normalizing belongs to the set operation whose result it tidies.
            tracer.span("wsd.ws_set.union", op, Some(root), || {
                violations.normalize()
            });
            counters.add(
                "query.constraints.violation_descriptors",
                violations.len() as f64,
            );
            let table = leg.db.world_table();
            let satisfying = tracer.span("wsd.ws_set.difference", op, Some(root), || {
                let mut satisfying = WsSet::universal().difference(&violations, table);
                satisfying.normalize();
                satisfying
            });
            counters.add("wsd.ws_set.descriptors_out", satisfying.len() as f64);
            let conditioned = tracer
                .span("core.conditioning.condition", op, Some(root), || {
                    condition(&leg.db, &satisfying, &self.conditioning)
                })
                .ok()?;
            counters.add(
                "core.conditioning.new_variables",
                conditioned.new_variables as f64,
            );
            counters.add(
                "core.conditioning.posterior_variables",
                conditioned.db.world_table().num_variables() as f64,
            );
            Some(conditioned)
        })();
        tracer.close(root);
        conditioned
    }
}

impl Workload for ConditionAssert {
    fn setup(seed: u64) -> Self {
        let tpch =
            TpchDatabase::generate(TpchConfig::scale(0.01).with_row_scale(0.05).with_seed(seed));
        let families = ConstraintWorkload::generate(ConstraintWorkloadConfig {
            seed,
            ..CONSTRAINT_WORKLOAD
        });
        let leg = |db: ProbDb, constraints, read_plan| Leg {
            db,
            constraints,
            read_plan,
            reference_confidence: None,
            reference_read: None,
            violation_descriptors: 0,
            posterior_variables: 0,
        };
        let tpch_constraints = vec![tpch_constraint(&tpch.db)];
        let mut state = ConditionAssert {
            legs: vec![
                leg(tpch.db, tpch_constraints, q2_plan()),
                leg(
                    families.db,
                    families.constraints,
                    Plan::scan("person").project(&["DEPT"]),
                ),
            ],
            conditioning: ConditioningOptions::default(),
            decomposition: DecompositionOptions::default(),
        };
        // Reference pass (also the warm-up).
        for index in 0..state.legs.len() {
            let leg = &state.legs[index];
            let violations: u64 = leg
                .constraints
                .iter()
                .filter_map(|c| c.violation_ws_set(&leg.db).ok())
                .map(|set| set.len() as u64)
                .sum();
            let conditioned = state.write(leg);
            let read = conditioned
                .as_ref()
                .and_then(|c| cold_read(&c.db, &leg.read_plan, &state.decomposition));
            let leg = &mut state.legs[index];
            leg.violation_descriptors = violations;
            leg.reference_confidence = conditioned.as_ref().map(|c| c.confidence.to_bits());
            leg.posterior_variables = conditioned
                .as_ref()
                .map_or(0, |c| c.db.world_table().num_variables() as u64);
            leg.reference_read = read;
        }
        state
    }

    fn fingerprint(&self) -> Fingerprint {
        let (tpch, families) = (&self.legs[TPCH], &self.legs[FAMILIES]);
        let variables = |leg: &Leg| leg.db.world_table().num_variables() as u64;
        vec![
            ("tpch_variables", variables(tpch)),
            ("tpch_violation_descriptors", tpch.violation_descriptors),
            ("tpch_posterior_variables", tpch.posterior_variables),
            ("families_variables", variables(families)),
            (
                "families_violation_descriptors",
                families.violation_descriptors,
            ),
            ("families_posterior_variables", families.posterior_variables),
        ]
    }

    fn reference_digest(&self) -> u64 {
        let mut digest = Digest::default();
        for leg in &self.legs {
            digest.push_u64(leg.reference_confidence.unwrap_or(0));
            digest.push_u64(leg.reference_read.unwrap_or(0));
        }
        digest.value()
    }

    fn run(&mut self, window: Duration, traced: bool, sink: &mut Sink) {
        let mut lane = Lane::new(Instant::now(), 0, 1, traced);
        let this = &*self;
        lane.rounds(window, |lane| {
            for &index in &RING {
                let leg = &this.legs[index];
                let start = Instant::now();
                let conditioned = if traced {
                    this.traced_write(lane, leg)
                } else {
                    this.write(leg)
                };
                let latency = ms_since(start);
                if !traced {
                    lane.counters
                        .add("query.constraints.assert_all_ms", latency);
                }
                let confidence = conditioned.as_ref().map(|c| c.confidence.to_bits());
                lane.write(
                    latency,
                    confidence.is_some() && confidence == leg.reference_confidence,
                );
                let Some(conditioned) = conditioned else {
                    continue;
                };
                let start = Instant::now();
                let found = if traced {
                    traced_cold_read(lane, &conditioned.db, &leg.read_plan, &this.decomposition)
                } else {
                    cold_read(&conditioned.db, &leg.read_plan, &this.decomposition)
                };
                lane.read(
                    ms_since(start),
                    found.is_some() && found == leg.reference_read,
                );
            }
        });
        sink.absorb(lane);
    }

    fn probes(&mut self, counters: &mut Counters) {
        // Weighted like the ring, as the in-window means are.
        for leg in RING.iter().map(|&index| &self.legs[index]) {
            let table = leg.db.world_table();
            let satisfying: Vec<WsSet> = leg
                .constraints
                .iter()
                .filter_map(|c| c.violation_ws_set(&leg.db).ok())
                .map(|violations| WsSet::universal().difference(&violations, table))
                .collect();
            if let Some(conditioned) = self.write(leg) {
                probe_answer_layers(
                    counters,
                    &conditioned.db,
                    &leg.read_plan,
                    &self.decomposition,
                );
            }
            // The other route to the conjunction: intersect the per-constraint
            // satisfying sets instead of complementing the union once.
            let start = Instant::now();
            let conjunction = satisfying
                .iter()
                .fold(WsSet::universal(), |all, one| all.intersect(one));
            counters.add("wsd.ws_set.intersect_ms", ms_since(start));
            std::hint::black_box(conjunction);
        }
        let this = &*self;
        count_allocations(counters, 2 * RING.len() as u64, || {
            for &index in &RING {
                let leg = &this.legs[index];
                if let Some(conditioned) = this.write(leg) {
                    std::hint::black_box(cold_read(
                        &conditioned.db,
                        &leg.read_plan,
                        &this.decomposition,
                    ));
                }
            }
        });
    }
}
