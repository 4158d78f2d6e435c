//! `tpch_conf_cold` and `tpch_serve_warm`: the same TPC-H database and plan
//! ring, once through the single-owner library call with a fresh
//! decomposition cache per request, once through `ProbDbService::conf` with
//! the plan cache and the decomposition cache warm.

use std::time::{Duration, Instant};

use uprob_core::DecompositionOptions;
use uprob_datagen::{q1_plan, q2_plan, TpchConfig, TpchDatabase};
use uprob_query::{ProbDbService, ServiceOptions};
use uprob_urel::{Comparison, Expr, Plan, Predicate, ProbDb};

use super::{
    answer_digest, cold_read, count_service, ms_since, probe_answer_layers, sub_seed,
    traced_cold_read, ServedReader,
};
use crate::digest::{Digest, Fingerprint};
use crate::harness::{count_allocations, Counters, Lane, Sink, Workload};

/// The TPC-H orders ⋈ lineitem equi-join over recent orders: copied from
/// `uprob-bench`'s `experiments.rs` rather than imported, so the benchmark
/// depends on no harness code.
fn orders_lineitem_join_plan() -> Plan {
    Plan::scan("orders")
        .select(Predicate::cmp(
            Expr::col("orderdate"),
            Comparison::Gt,
            Expr::val(uprob_datagen::tpch::dates::DATE_1995_03_15),
        ))
        .join_on(
            Plan::scan("lineitem"),
            Predicate::cols_eq("orderkey", "lineitem.orderkey"),
        )
}

const Q1: usize = 0;
const Q2: usize = 1;
const JOIN: usize = 2;

/// One round. Q2 (the cheap safe selection) is three ops in five so the
/// median read falls inside Q2's latencies and p90 inside the join's: a
/// percentile on a boundary between two plans would flip between them from
/// run to run. Q1's answer size swings with the seed (it counts BUILDING
/// customers), so it is kept off both percentiles and shows in `ops_s`.
const RING: [usize; 5] = [Q2, Q1, Q2, JOIN, Q2];

/// Sized so a round takes ~0.2 s and a 10 s window holds > 200 reads; the
/// issue's `row_scale(0.2)` gave 0.5 s rounds, too few for p90.
fn generate(seed: u64) -> TpchDatabase {
    TpchDatabase::generate(TpchConfig::scale(0.1).with_row_scale(0.1).with_seed(seed))
}

struct Shared {
    plans: Vec<Plan>,
    /// Reference digest per plan from the single-owner sequential call.
    reference: Vec<Option<u64>>,
    options: DecompositionOptions,
    fingerprint: Fingerprint,
}

impl Shared {
    fn new(db: &ProbDb) -> Shared {
        let plans = vec![q1_plan(), q2_plan(), orders_lineitem_join_plan()];
        let options = DecompositionOptions::default();
        let reference = plans
            .iter()
            .map(|plan| cold_read(db, plan, &options))
            .collect();
        let rows = |name: &str| db.relation(name).map_or(0, |r| r.len() as u64);
        let fingerprint = vec![
            ("customer_rows", rows("customer")),
            ("orders_rows", rows("orders")),
            ("lineitem_rows", rows("lineitem")),
            ("variables", db.world_table().num_variables() as u64),
            (
                "q1_rows",
                db.query(&plans[Q1]).map_or(0, |r| r.len() as u64),
            ),
            (
                "q2_rows",
                db.query(&plans[Q2]).map_or(0, |r| r.len() as u64),
            ),
            (
                "join_rows",
                db.query(&plans[JOIN]).map_or(0, |r| r.len() as u64),
            ),
        ];
        Shared {
            plans,
            reference,
            options,
            fingerprint,
        }
    }

    fn reference_digest(&self) -> u64 {
        Digest::of_u64s(self.reference.iter().map(|r| r.unwrap_or(0)))
    }

    /// `independent_partition` and the warm answer (grouping + cache probes)
    /// on each plan's answer, weighted like the ring.
    fn probes(&self, db: &ProbDb, counters: &mut Counters) {
        for &index in &RING {
            probe_answer_layers(counters, db, &self.plans[index], &self.options);
        }
    }
}

pub struct ConfCold {
    data: TpchDatabase,
    shared: Shared,
}

impl Workload for ConfCold {
    fn setup(seed: u64) -> Self {
        let data = generate(seed);
        // Computing the references is also the warm-up pass.
        let shared = Shared::new(&data.db);
        ConfCold { data, shared }
    }

    fn fingerprint(&self) -> Fingerprint {
        self.shared.fingerprint.clone()
    }

    fn reference_digest(&self) -> u64 {
        self.shared.reference_digest()
    }

    fn run(&mut self, window: Duration, traced: bool, sink: &mut Sink) {
        let mut lane = Lane::new(Instant::now(), 0, 1, traced);
        let (db, shared) = (&self.data.db, &self.shared);
        lane.rounds(window, |lane| {
            for &index in &RING {
                let plan = &shared.plans[index];
                let start = Instant::now();
                let found = if traced {
                    traced_cold_read(lane, db, plan, &shared.options)
                } else {
                    cold_read(db, plan, &shared.options)
                };
                lane.read(
                    ms_since(start),
                    found.is_some() && found == shared.reference[index],
                );
            }
        });
        sink.absorb(lane);
    }

    fn probes(&mut self, counters: &mut Counters) {
        let (db, shared) = (&self.data.db, &self.shared);
        shared.probes(db, counters);
        count_allocations(counters, RING.len() as u64, || {
            for &index in &RING {
                std::hint::black_box(cold_read(db, &shared.plans[index], &shared.options));
            }
        });
    }
}

pub struct ServeWarm {
    service: ProbDbService,
    shared: Shared,
    /// Each reader's own rendering of the plans. The service coalesces
    /// concurrent requests whose plan renders identically; two closed-loop
    /// readers on a three-plan ring collide on about half their requests
    /// and then run in lock-step, so latency would measure their phase, not
    /// the service. A top-level rename is free at execution (schema only)
    /// and keeps the readers' keys apart.
    reader_plans: Vec<Vec<Plan>>,
    seed: u64,
}

const READERS: usize = 2;

impl Workload for ServeWarm {
    fn setup(seed: u64) -> Self {
        let data = generate(seed);
        let shared = Shared::new(&data.db);
        let service = ProbDbService::with_options(data.db, ServiceOptions::default());
        let reader_plans: Vec<Vec<Plan>> = (0..READERS)
            .map(|reader| {
                shared
                    .plans
                    .iter()
                    .map(|plan| plan.clone().rename(&format!("reader{reader}")))
                    .collect()
            })
            .collect();
        // Warm the plan cache and the snapshot's decomposition cache.
        for plan in reader_plans.iter().flatten() {
            let _ = service.conf(plan);
        }
        ServeWarm {
            service,
            shared,
            reader_plans,
            seed,
        }
    }

    fn fingerprint(&self) -> Fingerprint {
        self.shared.fingerprint.clone()
    }

    fn reference_digest(&self) -> u64 {
        self.shared.reference_digest()
    }

    fn run(&mut self, window: Duration, traced: bool, sink: &mut Sink) {
        let (service, shared, seed) = (&self.service, &self.shared, self.seed);
        let epoch = Instant::now();
        let lanes: Vec<Lane> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .reader_plans
                .iter()
                .enumerate()
                .map(|(reader, plans)| {
                    scope.spawn(move || {
                        let mut lane = Lane::new(epoch, reader as u64, READERS as u64, traced);
                        let mut decomposed = ServedReader::new(plans.len());
                        // Each reader shuffles the ring anew every round.
                        // Two closed loops over a fixed ring settle into a
                        // fixed phase set by the op costs; when that phase
                        // has both readers on the join at once they contend
                        // on the snapshot's shared cache and the join reads
                        // 60% slower (seed 2013 did, seeds 2008–2012 did
                        // not). Shuffling makes every window see the mix.
                        let mut ring = RING;
                        let mut random = sub_seed(seed, 5, reader as u64);
                        lane.rounds(window, |lane| {
                            for last in (1..ring.len()).rev() {
                                random = sub_seed(random, 5, last as u64);
                                ring.swap(last, (random % (last as u64 + 1)) as usize);
                            }
                            for index in ring {
                                let start = Instant::now();
                                let found = if traced {
                                    decomposed
                                        .read(lane, service, plans, index)
                                        .map(|(digest, _)| digest)
                                } else {
                                    service
                                        .conf(&plans[index])
                                        .ok()
                                        .map(|answer| answer_digest(&answer))
                                };
                                let latency = ms_since(start);
                                if !traced {
                                    lane.counters.add("query.service.conf_ms", latency);
                                }
                                lane.read(
                                    latency,
                                    found.is_some() && found == shared.reference[index],
                                );
                            }
                        });
                        lane
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("reader thread panicked"))
                .collect()
        });
        for lane in lanes {
            sink.absorb(lane);
        }
        if !traced {
            count_service(&mut sink.counters, service);
        }
    }

    fn probes(&mut self, counters: &mut Counters) {
        let snapshot = self.service.snapshot();
        self.shared.probes(snapshot.db(), counters);
        let (service, plans) = (&self.service, &self.reader_plans[0]);
        count_allocations(counters, RING.len() as u64, || {
            for &index in &RING {
                std::hint::black_box(service.conf(&plans[index]).is_ok());
            }
        });
    }
}
