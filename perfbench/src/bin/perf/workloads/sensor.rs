//! `sensor_ingest_serve`: the service under churn. One writer on an
//! open-loop schedule ingests a batch of uncertain readings and publishes a
//! re-conditioned posterior; one closed-loop reader keeps asking `conf()`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use uprob_datagen::{SensorConfig, SensorReading, SensorWorkload};
use uprob_query::{Constraint, ProbDbService, ServiceOptions, Snapshot};
use uprob_urel::{Plan, Predicate};
use uprob_wsd::WsDescriptor;

use super::{answer_digest, cold_read, count_service, ms_since, probe_answer_layers, ServedReader};
use crate::digest::{Digest, Fingerprint};
use crate::harness::{count_allocations, Counters, Lane, OpenLoop, Sink, Workload};

const SENSORS: usize = 24;
const READINGS_PER_BATCH: usize = 64;
const SEED_READINGS: usize = 16;
/// Batches ingested and published during set-up. A publish re-conditions
/// the whole prior line, so its cost grows with the stream (0.3 ms at batch
/// 1, 70 ms at batch 170): starting the timed window at batch 40 keeps the
/// slowest op of the window within 5x of the fastest instead of 300x.
const PRELOADED_BATCHES: usize = 40;
/// Stay ≤ 250 batches: the calibration probe stalled > 95 s inside one
/// call at batch 363. The stream ends there even if the window has not.
const MAX_BATCHES: usize = 250;
/// One batch is due every 80 ms: 125 batches in a 10 s window. On the
/// reference box the median write takes 31 ms and only the last publishes of
/// the window overrun their slot, so the writer runs at most 15 ms late.
const SCHEDULE: OpenLoop = OpenLoop {
    period: Duration::from_millis(80),
};
/// Every 10th batch carries one out-of-range reading, so conditioning is
/// not universal and the posterior differs from the prior.
const FAULT_EVERY: usize = 10;
const FAULT_VALUE: f64 = 150.0;
/// Every 5th published snapshot is kept, and the reads that landed on a
/// kept snapshot are checked against the single-owner sequential call.
const KEEP_EVERY: usize = 5;

const FLEET: usize = 0;
const JOIN: usize = 1;
/// The reader's ring: the join twice per fleet query, so the median read is
/// a join (a 1:1 ring would put p50 on the boundary between the two).
const RING: [usize; 3] = [JOIN, JOIN, FLEET];

/// The writer's side of the stream.
struct Stream {
    constraints: Vec<Constraint>,
    batches: Vec<Vec<SensorReading>>,
    /// Index of the next batch to ingest.
    next_batch: usize,
    /// Name counter of the next reading's world variable.
    next_reading: usize,
}

pub struct SensorIngestServe {
    service: ProbDbService,
    stream: Stream,
    plans: Vec<Plan>,
    /// Reference digests of both plans on the snapshot set-up published.
    reference: Vec<Option<u64>>,
    fingerprint: Fingerprint,
}

/// What the reader saw: the stamp of the snapshot that answered, the plan
/// and the answer digest.
struct Observation {
    stamp: u64,
    plan: usize,
    digest: u64,
}

impl Stream {
    fn ingest(&mut self, service: &ProbDbService) -> bool {
        let index = self.next_batch;
        let faulty = index % FAULT_EVERY == FAULT_EVERY - 1;
        let batch = &self.batches[index];
        let mut next_reading = self.next_reading;
        let outcome = service.ingest(|delta| {
            for (position, reading) in batch.iter().enumerate() {
                let var = delta.add_boolean(&format!("r{next_reading}"), reading.reliability)?;
                next_reading += 1;
                let descriptor = WsDescriptor::from_pairs(delta.world_table(), &[(var, 1)])?;
                let mut reading = reading.clone();
                if faulty && position == 0 {
                    reading.value = FAULT_VALUE;
                }
                delta.append("readings", reading.tuple(), descriptor)?;
            }
            Ok(())
        });
        self.next_batch += 1;
        self.next_reading = next_reading;
        outcome.is_ok_and(|report| report.appended_rows == batch.len())
    }

    /// The writer's lane: one batch per period, latency from the due time.
    /// Traced or not it issues the same two calls, `ingest` then
    /// `assert_all_delta`; tracing only adds the spans. Returns the kept
    /// snapshots by stamp.
    fn write_lane(
        &mut self,
        lane: &mut Lane,
        service: &ProbDbService,
        window: Duration,
    ) -> BTreeMap<u64, Arc<Snapshot>> {
        let traced = lane.tracer.is_some();
        let mut kept = BTreeMap::new();
        let mut slot = 0u32;
        while self.next_batch < self.batches.len() {
            let due = SCHEDULE.due(slot);
            if due >= window {
                break;
            }
            if let Some(wait) = due.checked_sub(lane.since_start()) {
                std::thread::sleep(wait);
            }
            let late_ms = SCHEDULE.ms_since_due(slot, lane.since_start());
            lane.counters
                .max("query.service.writer_late_ms_max", late_ms);
            let rows = self.batches[self.next_batch].len();

            let root = lane.open_op("write");
            let span = lane.open_child("urel.delta.ingest", root);
            let ingested = self.ingest(service);
            lane.close(span);
            // The outgoing snapshot's cache has served every read it ever
            // will: read its inherited-hit counter before it is replaced.
            let outgoing = service.snapshot().cache_stats();
            let span = lane.open_child("query.service.publish", root);
            let publish_start = Instant::now();
            let outcome = service.assert_all_delta(&self.constraints);
            let publish_ms = ms_since(publish_start);
            lane.close(span);
            lane.close(root.map(|(_, id)| id));

            let latency_ms = SCHEDULE.ms_since_due(slot, lane.since_start());
            lane.write(latency_ms, ingested && outcome.is_ok());
            let counters = &mut lane.counters;
            if !traced {
                counters.add("query.constraints.assert_all_delta_ms", publish_ms);
            }
            counters.add("urel.delta.rows_appended", rows as f64);
            counters.add("core.cache.inherited_hits", outgoing.inherited_hits as f64);
            counters.max("core.cache.entries_peak", outgoing.entries as f64);
            if let Ok(outcome) = outcome {
                let inherited = outcome.inherited;
                counters.add("core.cache.inherited_entries", inherited.inherited as f64);
                counters.add("core.cache.inherited_dropped", inherited.dropped as f64);
                counters.add(
                    "query.constraints.reused_violations",
                    outcome.reused_violations as f64,
                );
                counters.add(
                    "core.conditioning.new_variables",
                    outcome.new_variables as f64,
                );
                counters.add(
                    "core.conditioning.posterior_variables",
                    outcome.snapshot.db().world_table().num_variables() as f64,
                );
                if slot as usize % KEEP_EVERY == 0 {
                    kept.insert(outcome.snapshot.stamp(), outcome.snapshot);
                }
            }
            slot += 1;
        }
        lane.finish();
        kept
    }
}

/// The reader's lane: closed loop until the writer is done.
fn read_lane(
    lane: &mut Lane,
    service: &ProbDbService,
    plans: &[Plan],
    done: &AtomicBool,
) -> Vec<Observation> {
    let traced = lane.tracer.is_some();
    let mut decomposed = ServedReader::new(plans.len());
    let mut seen = Vec::new();
    'window: loop {
        for &plan in &RING {
            if done.load(Ordering::Acquire) {
                break 'window;
            }
            let before = service.snapshot().stamp();
            let start = Instant::now();
            let found = if traced {
                decomposed.read(lane, service, plans, plan)
            } else {
                service
                    .conf(&plans[plan])
                    .ok()
                    .map(|answer| (answer_digest(&answer), service.snapshot().stamp()))
            };
            let latency = ms_since(start);
            if !traced {
                lane.counters.add("query.service.conf_ms", latency);
            }
            // An error fails the read here; wrong bits fail it when the kept
            // snapshots are checked after the window.
            lane.read(latency, found.is_some());
            if let Some((digest, stamp)) = found {
                // Stamps never repeat, so equal stamps before and after
                // prove which snapshot the untraced `conf` answered from.
                if traced || stamp == before {
                    seen.push(Observation {
                        stamp,
                        plan,
                        digest,
                    });
                }
            }
        }
    }
    lane.finish();
    seen
}

impl Workload for SensorIngestServe {
    fn setup(seed: u64) -> Self {
        let workload = SensorWorkload::generate(&SensorConfig {
            sensors: SENSORS,
            readings_per_batch: READINGS_PER_BATCH,
            batches: MAX_BATCHES,
            seed_readings: SEED_READINGS,
            seed,
        });
        let plans = vec![
            Plan::scan("sensors").project(&["ZONE"]),
            Plan::scan("readings")
                .join_on(
                    Plan::scan("sensors"),
                    Predicate::cols_eq("SID", "sensors.SID"),
                )
                .project(&["ZONE"]),
        ];
        let service = ProbDbService::with_options(workload.db, ServiceOptions::default());
        let mut stream = Stream {
            constraints: workload.constraints,
            batches: workload.batches,
            next_batch: 0,
            next_reading: SEED_READINGS,
        };
        let mut setup_ok = true;
        for _ in 0..PRELOADED_BATCHES {
            setup_ok &= stream.ingest(&service);
            setup_ok &= service.assert_all_delta(&stream.constraints).is_ok();
        }
        let snapshot = service.snapshot();
        let options = service.options().decomposition;
        let reference: Vec<Option<u64>> = plans
            .iter()
            .map(|plan| cold_read(snapshot.db(), plan, &options))
            .collect();
        // Warm the plan cache and the decomposition cache of the snapshot
        // the window starts on; a served answer must equal the reference.
        for (plan, reference) in plans.iter().zip(&reference) {
            let served = service.conf(plan).ok().map(|a| answer_digest(&a));
            setup_ok &= served.is_some() && served == *reference;
        }
        let db = snapshot.db();
        let rows = |name: &str| db.relation(name).map_or(0, |r| r.len() as u64);
        let fingerprint = vec![
            ("sensors_rows", rows("sensors")),
            ("readings_rows", rows("readings")),
            (
                "posterior_variables",
                db.world_table().num_variables() as u64,
            ),
            ("stream_batches", stream.batches.len() as u64),
            ("setup_ok", u64::from(setup_ok)),
        ];
        SensorIngestServe {
            service,
            stream,
            plans,
            reference,
            fingerprint,
        }
    }

    fn fingerprint(&self) -> Fingerprint {
        self.fingerprint.clone()
    }

    fn reference_digest(&self) -> u64 {
        Digest::of_u64s(self.reference.iter().map(|r| r.unwrap_or(0)))
    }

    fn run(&mut self, window: Duration, traced: bool, sink: &mut Sink) {
        let epoch = Instant::now();
        let mut writer = Lane::new(epoch, 0, 2, traced);
        let mut reader = Lane::new(epoch, 1, 2, traced);
        let done = AtomicBool::new(false);
        let SensorIngestServe {
            service,
            stream,
            plans,
            ..
        } = self;
        let (service, plans) = (&*service, &*plans);
        let (kept, seen) = std::thread::scope(|scope| {
            let reading = scope.spawn(|| read_lane(&mut reader, service, plans, &done));
            let kept = stream.write_lane(&mut writer, service, window);
            done.store(true, Ordering::Release);
            (kept, reading.join().expect("reader thread panicked"))
        });

        // Outside the window: every read that landed on a kept snapshot is
        // compared with the single-owner sequential call on that snapshot.
        let options = service.options().decomposition;
        let mut references: BTreeMap<(u64, usize), Option<u64>> = BTreeMap::new();
        for observation in seen {
            let Some(snapshot) = kept.get(&observation.stamp) else {
                continue;
            };
            let reference = references
                .entry((observation.stamp, observation.plan))
                .or_insert_with(|| cold_read(snapshot.db(), &plans[observation.plan], &options));
            if *reference != Some(observation.digest) {
                reader.failed += 1;
            }
        }
        if !traced {
            count_service(&mut writer.counters, service);
        }
        sink.absorb(writer);
        sink.absorb(reader);
    }

    fn probes(&mut self, counters: &mut Counters) {
        let snapshot = self.service.snapshot();
        let options = self.service.options().decomposition;
        for &plan in &RING {
            probe_answer_layers(counters, snapshot.db(), &self.plans[plan], &options);
        }
        let (service, plans) = (&self.service, &self.plans);
        count_allocations(counters, RING.len() as u64, || {
            for &plan in &RING {
                std::hint::black_box(service.conf(&plans[plan]).is_ok());
            }
        });
    }
}
