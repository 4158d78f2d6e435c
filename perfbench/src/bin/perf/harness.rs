//! What every workload shares: the per-thread recorder, the phases of one
//! run (set-up several times, untraced window, traced window, layer probes)
//! and the assembly of the declared metrics from what was recorded.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::digest::{self, Fingerprint, Golden};
use crate::stats;
use crate::trace::{self, LayerTime, SpanId, Tracer};

const GOLDEN_DIGESTS: &str = include_str!("../../../digests.json");

/// Sums (with how many values were added), maxima and plain values,
/// keyed by the per-layer metric they feed.
#[derive(Default)]
pub struct Counters {
    sums: BTreeMap<&'static str, (f64, u64)>,
    maxes: BTreeMap<&'static str, f64>,
}

impl Counters {
    pub fn add(&mut self, name: &'static str, value: f64) {
        let entry = self.sums.entry(name).or_insert((0.0, 0));
        entry.0 += value;
        entry.1 += 1;
    }

    pub fn max(&mut self, name: &'static str, value: f64) {
        let entry = self.maxes.entry(name).or_insert(value);
        *entry = entry.max(value);
    }

    pub fn total(&self, name: &str) -> f64 {
        self.sums.get(name).map_or(0.0, |(sum, _)| *sum)
    }

    /// Mean per op that reported the counter.
    pub fn mean(&self, name: &str) -> Option<f64> {
        self.sums
            .get(name)
            .filter(|(_, n)| *n > 0)
            .map(|(sum, n)| sum / *n as f64)
    }

    pub fn absorb(&mut self, other: Counters) {
        for (name, (sum, n)) in other.sums {
            let entry = self.sums.entry(name).or_insert((0.0, 0));
            entry.0 += sum;
            entry.1 += n;
        }
        for (name, value) in other.maxes {
            self.max(name, value);
        }
    }
}

/// One load-generator thread's record of a window.
pub struct Lane {
    pub reads_ms: Vec<f64>,
    pub writes_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub counters: Counters,
    /// Present in the traced window only.
    pub tracer: Option<Tracer>,
    started: Instant,
    elapsed: Duration,
}

impl Lane {
    pub fn new(epoch: Instant, lane: u64, lanes: u64, traced: bool) -> Lane {
        Lane {
            reads_ms: Vec::new(),
            writes_ms: Vec::new(),
            attempted: 0,
            failed: 0,
            counters: Counters::default(),
            tracer: traced.then(|| Tracer::new(epoch, lane, lanes)),
            started: epoch,
            elapsed: Duration::ZERO,
        }
    }

    /// Records one completed read; `ok` is false for an error, a refusal or
    /// bits that differ from the reference.
    pub fn read(&mut self, latency_ms: f64, ok: bool) {
        self.reads_ms.push(latency_ms);
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn write(&mut self, latency_ms: f64, ok: bool) {
        self.writes_ms.push(latency_ms);
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Opens a root span for a new op when this lane is traced.
    pub fn open_op(&mut self, name: &'static str) -> Option<(u64, SpanId)> {
        self.tracer.as_mut().map(|tracer| {
            let op = tracer.next_op();
            (op, tracer.open(name, op, None))
        })
    }

    pub fn open_child(
        &mut self,
        name: &'static str,
        root: Option<(u64, SpanId)>,
    ) -> Option<SpanId> {
        let (op, parent) = root?;
        self.tracer
            .as_mut()
            .map(|tracer| tracer.open(name, op, Some(parent)))
    }

    pub fn close(&mut self, span: Option<SpanId>) {
        if let (Some(tracer), Some(span)) = (self.tracer.as_mut(), span) {
            tracer.close(span);
        }
    }

    pub fn since_start(&self) -> Duration {
        self.started.elapsed()
    }

    /// Marks the end of this lane's window.
    pub fn finish(&mut self) {
        self.elapsed = self.started.elapsed();
    }

    /// Runs whole rounds until `window` has passed: a round is the unit
    /// that repeats, so per-op means and exact counters do not depend on
    /// where the deadline fell.
    pub fn rounds(&mut self, window: Duration, mut round: impl FnMut(&mut Lane)) {
        loop {
            round(self);
            if self.since_start() >= window {
                break;
            }
        }
        self.finish();
    }
}

/// An open-loop schedule: slot `k` is due `k` periods after the window
/// starts, whether or not earlier slots have finished. Latency and lateness
/// are taken from the due time, so a stall is charged to every op it delays,
/// not only to the op that stalled.
#[derive(Clone, Copy)]
pub struct OpenLoop {
    pub period: Duration,
}

impl OpenLoop {
    pub fn due(&self, slot: u32) -> Duration {
        self.period * slot
    }

    /// Milliseconds from slot `slot`'s due time to `now` (both since the
    /// window started); zero when `now` is before the due time.
    pub fn ms_since_due(&self, slot: u32, now: Duration) -> f64 {
        now.saturating_sub(self.due(slot)).as_secs_f64() * 1e3
    }
}

/// Everything recorded in one window, all lanes merged.
#[derive(Default)]
pub struct Sink {
    pub reads_ms: Vec<f64>,
    pub writes_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Completed ops per second: the sum of each lane's own rate, so a lane
    /// that finishes its last round early does not dilute the others.
    pub ops_per_s: f64,
    pub counters: Counters,
    pub tracers: Vec<Tracer>,
}

impl Sink {
    pub fn absorb(&mut self, lane: Lane) {
        let ops = (lane.reads_ms.len() + lane.writes_ms.len()) as f64;
        if lane.elapsed > Duration::ZERO {
            self.ops_per_s += ops / lane.elapsed.as_secs_f64();
        }
        self.reads_ms.extend(lane.reads_ms);
        self.writes_ms.extend(lane.writes_ms);
        self.attempted += lane.attempted;
        self.failed += lane.failed;
        self.counters.absorb(lane.counters);
        self.tracers.extend(lane.tracer);
    }
}

pub trait Workload: Sized {
    /// Data generation, service construction, the reference answer of every
    /// distinct op (single-owner sequential calls) and one warm-up pass.
    fn setup(seed: u64) -> Self;

    fn fingerprint(&self) -> Fingerprint;

    /// Digest over the reference answers of every distinct op.
    fn reference_digest(&self) -> u64;

    /// Runs the workload for `window`. Untraced, every op is the composite
    /// public call; traced, it is issued as its constituent public calls,
    /// each under a span, and must return the composite's bits.
    fn run(&mut self, window: Duration, traced: bool, sink: &mut Sink);

    /// Fixed-size measurements outside any window (traced run only): layer
    /// entry points the ops do not cross on their own, and one round of
    /// composite ops under the counting allocator.
    fn probes(&mut self, counters: &mut Counters);
}

pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub window: Duration,
    pub trace: bool,
    /// How many times set-up is run (the median is reported).
    pub setups: usize,
    pub trace_dir: PathBuf,
}

/// What one run reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Every metric this run could compute; the caller prints the declared
    /// ones for its mode.
    pub metrics: BTreeMap<String, f64>,
    /// Sample counts behind the metrics of the untraced window.
    pub setups: u64,
    pub reads: u64,
    pub writes: u64,
}

/// Checks the generated input and the reference digest against the golden
/// file. `Err` on a fingerprint mismatch (the inputs are not the benchmark's
/// inputs any more); `Ok(false)` on a digest mismatch (wrong answers).
fn check_golden(workload: &str, seed: u64, found: &Golden) -> Result<bool, String> {
    let Some(golden) = digest::golden(GOLDEN_DIGESTS, workload, seed)? else {
        return Ok(true);
    };
    if golden.fingerprint != found.fingerprint {
        return Err(format!(
            "{workload} seed {seed}: generated input {:?} differs from the pinned fingerprint {:?}; \
             uprob-datagen changed under the benchmark",
            found.fingerprint, golden.fingerprint
        ));
    }
    if golden.digest != found.digest {
        eprintln!(
            "{workload} seed {seed}: reference digest {:016x} differs from the pinned {:016x}",
            found.digest, golden.digest
        );
    }
    Ok(golden.digest == found.digest)
}

pub fn found_golden<W: Workload>(state: &W) -> Golden {
    Golden {
        fingerprint: state
            .fingerprint()
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
        digest: state.reference_digest(),
    }
}

pub fn drive<W: Workload>(config: &RunConfig) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut golden_ok = true;
    let mut untraced = Sink::default();
    let mut traced = Sink::default();
    let mut probes = Counters::default();
    for round in 0..config.setups {
        let started = Instant::now();
        let mut state = W::setup(config.seed);
        setup_s.push(started.elapsed().as_secs_f64());
        if round == 0 {
            golden_ok = check_golden(&config.workload, config.seed, &found_golden(&state))?;
        }
        let last = round + 1 == config.setups;
        if !config.trace {
            if last {
                state.run(config.window, false, &mut untraced);
            }
            continue;
        }
        // The traced run compares an untraced and a traced window of equal
        // length, each from a freshly set-up state where there is one to
        // spare, so both start from the same stream position and caches.
        let half = config.window / 2;
        if round + 2 == config.setups || config.setups == 1 {
            state.run(half, false, &mut untraced);
        }
        if last {
            state.run(half, true, &mut traced);
            state.probes(&mut probes);
        }
    }

    let mut metrics = BTreeMap::new();
    stats::sort(&mut untraced.reads_ms);
    stats::sort(&mut untraced.writes_ms);
    let reads = &untraced.reads_ms;
    metrics.insert("setup_s".to_string(), stats::median(&setup_s));
    metrics.insert("ops_s".to_string(), untraced.ops_per_s);
    metrics.insert("read_p50_ms".to_string(), stats::percentile(reads, 0.50));
    let p90 = stats::supported_percentile(reads, 0.90).unwrap_or_else(|| {
        eprintln!(
            "{}: only {} reads, fewer than ten beyond p90; reporting it anyway",
            config.workload,
            reads.len()
        );
        stats::percentile(reads, 0.90)
    });
    metrics.insert("read_p90_ms".to_string(), p90);
    metrics.insert("peak_rss_mb".to_string(), peak_rss_mb());
    let (reads, writes) = (reads.len() as u64, untraced.writes_ms.len() as u64);

    let attempted = untraced.attempted + traced.attempted;
    let mut failed = untraced.failed + traced.failed;
    if !golden_ok {
        // The reference itself is wrong, so no op's answer can be trusted.
        failed = attempted;
    }
    if config.trace {
        write_spans(config, &traced.tracers)?;
        assemble_layers(&untraced, traced, probes, &mut metrics);
    }
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        setups: setup_s.len() as u64,
        reads,
        writes,
    })
}

fn write_spans(config: &RunConfig, tracers: &[Tracer]) -> Result<(), String> {
    let path = config
        .trace_dir
        .join(format!("{}.spans.json", config.workload));
    std::fs::create_dir_all(&config.trace_dir)
        .and_then(|()| std::fs::write(&path, trace::spans_json(tracers).to_string()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// `VmHWM` of this process in MiB (0 where /proc does not have it).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Turns spans and counters into the declared per-layer metrics. `*_ms` is
/// the mean self time per op that crossed the layer; counts are means per
/// op that reported them, so neither depends on how many rounds fitted
/// into the window.
fn assemble_layers(
    untraced: &Sink,
    traced: Sink,
    probes: Counters,
    metrics: &mut BTreeMap<String, f64>,
) {
    let layers = trace::layer_times(&traced.tracers);
    let traced_ops_per_s = traced.ops_per_s;
    let mut counters = traced.counters;
    counters.absorb(probes);
    let span = |name: &str| layers.get(name).copied().unwrap_or_default();
    let mut put = |name: &str, value: f64| {
        metrics.insert(name.to_string(), value);
    };

    for (name, time) in &layers {
        put(&format!("{name}_ms"), time.ms_per_op());
    }
    for name in counters.sums.keys() {
        put(name, counters.mean(name).unwrap_or(0.0));
    }
    for (name, value) in &counters.maxes {
        put(name, *value);
    }
    // Service-level and composite-call figures come from the untraced
    // window: they describe the product path, not the decomposed one.
    for name in untraced.counters.sums.keys() {
        put(name, untraced.counters.mean(name).unwrap_or(0.0));
    }
    for (name, value) in &untraced.counters.maxes {
        put(name, *value);
    }

    let seconds = |time: LayerTime| time.self_ms / 1e3;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    put(
        "urel.exec.rows_per_s",
        ratio(
            counters.total("urel.exec.rows_out"),
            seconds(span("urel.exec.execute")),
        ),
    );
    // Where ops call the fold directly it has its own span. Where it is only
    // reachable inside `answer_confidences_with_options`, its time is the
    // cold answer minus the warm answer (grouping + probes) of the same
    // relations, the latter measured by the probes.
    let fold = span("core.decompose.fold");
    let (fold_ms, fold_seconds) = if fold.ops > 0 {
        (fold.ms_per_op(), seconds(fold))
    } else {
        let cold = span("query.confidence.cold_answer");
        let warm = counters.mean("probe.warm_answer_ms").unwrap_or(0.0);
        if cold.ops > 0 {
            put("query.confidence.warm_answer_ms", warm);
        }
        let per_op = (cold.ms_per_op() - warm).max(0.0);
        (per_op, per_op * cold.ops as f64 / 1e3)
    };
    put("core.decompose.fold_ms", fold_ms);
    put(
        "core.decompose.nodes_per_s",
        ratio(counters.total("core.decompose.nodes"), fold_seconds),
    );
    let hits = counters.total("core.cache.hits");
    put(
        "core.cache.hit_rate",
        ratio(hits, hits + counters.total("core.cache.misses")),
    );
    put(
        "core.parallel.speedup_2w",
        ratio(
            counters.total("core.parallel.fold_1w_ms"),
            counters.total("core.parallel.fold_2w_ms"),
        ),
    );
    put(
        "alloc.count_per_op",
        ratio(counters.total("alloc.count"), counters.total("alloc.ops")),
    );
    put(
        "alloc.bytes_per_op",
        ratio(counters.total("alloc.bytes"), counters.total("alloc.ops")),
    );
    put(
        "trace.overhead_share",
        ratio(untraced.ops_per_s - traced_ops_per_s, untraced.ops_per_s),
    );
    put("write_p50_ms", stats::percentile(&untraced.writes_ms, 0.50));
    put("reads_n", untraced.reads_ms.len() as f64);
    put("writes_n", untraced.writes_ms.len() as f64);
    put(
        "query.service.conf_p99_ms",
        untraced
            .counters
            .mean("query.service.conf_ms")
            .map_or(0.0, |_| stats::percentile(&untraced.reads_ms, 0.99)),
    );
}

/// Runs one round of composite ops with the counting allocator on and
/// records the totals; exact on single-threaded workloads.
pub fn count_allocations(counters: &mut Counters, ops: u64, round: impl FnOnce()) {
    let (count_before, bytes_before) = trace::allocation_totals();
    trace::set_allocation_counting(true);
    round();
    trace::set_allocation_counting(false);
    let (count, bytes) = trace::allocation_totals();
    counters.add("alloc.count", (count - count_before) as f64);
    counters.add("alloc.bytes", (bytes - bytes_before) as f64);
    counters.add("alloc.ops", ops as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_report_means_totals_and_maxima() {
        let mut counters = Counters::default();
        counters.add("rows", 10.0);
        counters.add("rows", 30.0);
        counters.max("depth", 4.0);
        counters.max("depth", 9.0);
        counters.max("depth", 2.0);
        assert_eq!(counters.total("rows"), 40.0);
        assert_eq!(counters.mean("rows"), Some(20.0));
        assert_eq!(counters.mean("absent"), None);
        assert_eq!(counters.maxes["depth"], 9.0);
        let mut other = Counters::default();
        other.add("rows", 20.0);
        other.max("depth", 11.0);
        counters.absorb(other);
        assert_eq!(counters.mean("rows"), Some(20.0));
        assert_eq!(counters.maxes["depth"], 11.0);
    }

    #[test]
    fn lanes_run_whole_rounds_and_sum_their_rates() {
        let mut lane = Lane::new(Instant::now(), 0, 1, false);
        let mut rounds = 0;
        lane.rounds(Duration::from_millis(5), |lane| {
            rounds += 1;
            std::thread::sleep(Duration::from_millis(2));
            lane.read(2.0, true);
            lane.read(2.0, rounds != 1);
        });
        // Every started round finished: reads come in pairs.
        assert_eq!(lane.reads_ms.len(), 2 * rounds);
        assert_eq!(lane.failed, 1);
        let mut sink = Sink::default();
        let ops = lane.reads_ms.len() as f64;
        let elapsed = lane.elapsed.as_secs_f64();
        sink.absorb(lane);
        assert!((sink.ops_per_s - ops / elapsed).abs() < 1e-9);
        assert_eq!(sink.attempted, ops as u64);
    }

    #[test]
    fn open_loop_latency_runs_from_the_due_time() {
        let schedule = OpenLoop {
            period: Duration::from_millis(80),
        };
        let ms = Duration::from_millis;
        assert_eq!(schedule.due(0), ms(0));
        assert_eq!(schedule.due(2), ms(160));
        // Slot 1 stalled until 200 ms. Slot 2, due at 160 ms, could only
        // start then (40 ms late) and took 30 ms: its latency is 70 ms from
        // the due time, not the 30 ms a closed loop would report.
        assert_eq!(schedule.ms_since_due(2, ms(200)), 40.0);
        assert_eq!(schedule.ms_since_due(2, ms(230)), 70.0);
        // The backlog drains: slot 3 (due 240) starts on time at 240.
        assert_eq!(schedule.ms_since_due(3, ms(240)), 0.0);
        // An op that is early is not credited negative lateness.
        assert_eq!(schedule.ms_since_due(3, ms(100)), 0.0);
    }

    #[test]
    fn peak_rss_is_read_from_proc() {
        assert!(peak_rss_mb() > 0.0);
    }
}
