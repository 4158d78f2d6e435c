//! Parallel exact confidence computation.
//!
//! The ws-tree decomposition is naturally parallel: the parts of an
//! independent partition (⊗) and the branches of a ⊕-split are disjoint
//! subproblems. [`confidence_parallel`] runs the one fold of
//! [`crate::decompose`] with the probability algebra of
//! [`mod@crate::confidence`] to a frontier: on the calling thread it visits
//! the largest pending sub-set first, until every worker has a few to take;
//! it runs each pending sub-set as a [`fan_out_indexed`] job (the
//! workspace's one spawn site) that runs the fold; and it resumes the fold
//! of the frames it opened with each job's value in its slot.
//!
//! # Determinism contract
//!
//! The returned probability is **bit-identical** to the sequential fold
//! ([`crate::confidence()`]) for every worker count. The argument: the
//! probability of every sub-ws-set is a pure function of the sub-set and
//! the world table, so it does not matter *which* worker computes it or
//! *when*; and partial results are never folded in completion order —
//! each open frame of the frontier keeps one slot per child, and once every
//! job is done the frames close children before parents, absorbing their
//! slots in child order through the algebra the sequential fold uses, so
//! each evaluates exactly the sequential expression. A shared-cache hit returns a probability that is itself
//! bit-identical to recomputation, so the contract holds with or without a
//! [`SharedDecompositionCache`]. The differential and golden suites pin
//! this under a `UPROB_WORKERS` matrix in CI.
//!
//! # Budget accounting
//!
//! The split and every job of one run charge decomposition nodes against a
//! single shared atomic counter, so a [`DecompositionOptions::node_budget`]
//! bounds the run's **total** work: `BudgetExceeded` triggers at the
//! same amount of work regardless of the worker count (without a cache
//! the decomposition tree — and hence the abort-or-finish outcome — is
//! exactly the sequential one; cache hits can shift where the charges
//! fall, just as they do sequentially).
//!
//! # Panics
//!
//! A panic inside a subtree job reaches the caller with the job's own
//! payload, as [`fan_out_indexed`] re-raises it; the serving layer
//! contains it as one failed request.

use std::cmp::Reverse;
use std::ops::Range;
use std::sync::atomic::AtomicU64;
use std::sync::OnceLock;
use std::thread;

use uprob_approx::fan_out_indexed;
use uprob_wsd::{WorldTable, WsSet};

use crate::cache::SharedDecompositionCache;
use crate::confidence::{confidence_with_cache, Probability};
use crate::decompose::{Algebra, Decomposer, DecompositionOptions, Fold, Frame, Visit};
use crate::error::CoreError;
use crate::stats::Confidence;
use crate::Result;

/// Default grain: ws-sets with fewer descriptors are solved by the
/// sequential fold instead of being split further, so a split is only made
/// where a subtree is plausibly worth sharing out.
const DEFAULT_GRAIN: usize = 16;

/// Pending subtrees per worker at which the top split stops: enough that a
/// worker finishing its subtree early finds another, few enough that the
/// split on the calling thread stays a small share of the run.
const SUBTREES_PER_WORKER: usize = 4;

/// Worker-count and granularity policy for the parallel exact paths
/// ([`confidence_parallel`] and the `_with_options` engine/query surface).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParallelOptions {
    workers: usize,
    grain: usize,
}

impl Default for ParallelOptions {
    /// The sequential policy: parallelism is opt-in.
    fn default() -> Self {
        ParallelOptions::sequential()
    }
}

impl ParallelOptions {
    /// A policy running `workers` worker threads (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        ParallelOptions {
            workers: workers.max(1),
            grain: DEFAULT_GRAIN,
        }
    }

    /// The sequential policy (one worker): every entry point degenerates
    /// to the plain sequential fold with zero scheduling overhead.
    pub fn sequential() -> Self {
        ParallelOptions::new(1)
    }

    /// One worker per available hardware thread
    /// ([`std::thread::available_parallelism`], 1 if unknown).
    pub fn auto() -> Self {
        ParallelOptions::new(available_workers())
    }

    /// Reads the worker count from the `UPROB_WORKERS` environment
    /// variable (the knob the CI determinism matrix turns). Unset or
    /// empty means [`ParallelOptions::auto`]; anything else must parse
    /// as a positive integer or the call fails with
    /// [`CoreError::InvalidWorkerSpec`] — a typoed matrix leg must fail
    /// loudly, not silently test the automatic policy.
    ///
    /// **Read-once semantics:** the variable is resolved exactly once per
    /// process, on the first call; every later call — including a
    /// malformed-spec failure — replays that first resolution. Re-reading
    /// on every call would race against `set_var` in multi-threaded
    /// programs and would let the effective worker count drift mid-run
    /// under the serving layer, where one `ProbDbService` hands the same
    /// [`ParallelOptions`] to every request. Code that needs a different
    /// worker count at runtime must construct it explicitly with
    /// [`ParallelOptions::new`] and pass it down.
    pub fn from_env() -> Result<Self> {
        static ENV_WORKERS: OnceLock<std::result::Result<usize, CoreError>> = OnceLock::new();
        let resolved = ENV_WORKERS.get_or_init(|| {
            #[expect(
                clippy::disallowed_methods,
                reason = "the one sanctioned environment read, resolved once per process"
            )]
            let spec = std::env::var("UPROB_WORKERS").ok();
            workers_from_spec(spec.as_deref())
        });
        match resolved {
            Ok(workers) => Ok(ParallelOptions::new(*workers)),
            Err(error) => Err(error.clone()),
        }
    }

    /// Returns a copy with the given grain: ws-sets with fewer than
    /// `grain` descriptors are solved by the sequential fold rather than
    /// split. Tests over small random instances lower this so the split is
    /// actually exercised; production callers keep the default.
    pub fn with_grain(mut self, grain: usize) -> Self {
        self.grain = grain;
        self
    }

    /// The number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Whether this policy runs on a single worker.
    pub fn is_sequential(&self) -> bool {
        self.workers <= 1
    }
}

/// The number of available hardware threads, 1 if it cannot be queried.
pub fn available_workers() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// Parses a `UPROB_WORKERS`-style spec. `None` and empty/whitespace
/// specs mean "choose automatically" ([`available_workers`]); any other
/// value must be a positive integer (surrounding whitespace tolerated)
/// or the spec is rejected as [`CoreError::InvalidWorkerSpec`].
fn workers_from_spec(spec: Option<&str>) -> Result<usize> {
    let Some(raw) = spec else {
        return Ok(available_workers());
    };
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Ok(available_workers());
    }
    match trimmed.parse::<usize>() {
        Ok(workers) if workers >= 1 => Ok(workers),
        _ => Err(CoreError::InvalidWorkerSpec { spec: raw.into() }),
    }
}

/// An open frame of the frontier, the slots of its children in child
/// order, and its own slot.
type Split<'a> = (Frame<Probability<'a>>, Range<usize>, usize);

/// Stores `probability` in slot `slot`, a `(weight, probability)` pair.
fn resolve(slots: &mut [(f64, f64)], slot: usize, probability: f64) {
    if let Some((_, value)) = slots.get_mut(slot) {
        *value = probability;
    }
}

/// The general exact-confidence entry point: the probability of `set` on
/// `parallel.workers()` worker threads through an optional shared
/// decomposition cache, **bit-identical** to the sequential fold
/// ([`crate::confidence()`]) for every worker count, with or without the
/// cache (see the module documentation for the contract and the budget
/// semantics). With one worker — or a set below the grain — this *is* the
/// sequential fold. The `cache_hits` / `cache_misses` counters of the
/// returned [`Confidence::stats`] report this run's reuse.
///
/// At more than one worker, the calling thread expands the largest pending
/// subtree that has at least `grain` descriptors and more than one, until
/// there are `4 × workers` pending subtrees or none is left to expand; the
/// pending subtrees then run as [`fan_out_indexed`] jobs, largest first,
/// and the expanded splits fold children first.
///
/// # Errors
///
/// Returns [`CoreError::BudgetExceeded`] if `options.node_budget` is set
/// and the run's total (cross-worker) node count exhausts it, and
/// [`CoreError::CacheTableMismatch`] if `cache` was first used with a
/// different world table.
///
/// # Panics
///
/// A panic inside a subtree job is re-raised with the job's own payload.
pub fn confidence_parallel(
    set: &WsSet,
    table: &WorldTable,
    options: &DecompositionOptions,
    parallel: &ParallelOptions,
    cache: Option<&SharedDecompositionCache>,
) -> Result<Confidence> {
    if parallel.is_sequential() || set.len() < parallel.grain {
        return confidence_with_cache(set, table, options, cache);
    }
    if let Some(shared_cache) = cache {
        shared_cache.bind_table(table)?;
    }
    let nodes = AtomicU64::new(0);
    let algebra = Probability { table, cache };
    // The calling thread and every job charge the one node counter.
    let fold_on_nodes = || {
        let decomposer = Decomposer::with_shared_nodes(table, *options, &nodes);
        Fold::new(decomposer, algebra)
    };
    let mut fold = fold_on_nodes();
    // Slot 0 is the root's; every child of a split has one, holding the
    // weight it was listed with and, once known, its probability.
    let mut slots = vec![(1.0, f64::NAN)];
    let mut splits: Vec<Split> = Vec::new();
    // The sets of the frontier not yet visited: set, depth and slot.
    let mut pending = vec![(set.clone(), 1, 0)];
    while pending.len() < SUBTREES_PER_WORKER * parallel.workers() {
        let largest = pending
            .iter()
            .enumerate()
            .filter(|(_, (set, ..))| set.len() >= parallel.grain.max(2))
            .max_by_key(|(_, (set, ..))| set.len());
        let Some((index, _)) = largest else {
            break;
        };
        let (set, depth, slot) = pending.swap_remove(index);
        match fold.visit(&set, depth)? {
            Visit::Done(probability) => resolve(&mut slots, slot, probability),
            Visit::Open(mut frame) => {
                let first = slots.len();
                while let Some((weight, child)) = fold.algebra.next_child(&mut frame.node)? {
                    pending.push((child.into_owned(), depth + 1, slots.len()));
                    slots.push((weight, f64::NAN));
                }
                splits.push((frame, first..slots.len(), slot));
            }
        }
    }
    // Largest first, so the small sets fill the workers' tails. Each job's
    // value lands in its own slot, and the fold reads the slots in child
    // order, so neither job nor completion order reaches the bits.
    pending.sort_by_key(|(set, ..)| Reverse(set.len()));
    let solved = fan_out_indexed(pending.len(), parallel.workers(), |index| {
        #[cfg(test)]
        tests::maybe_inject_panic(parallel.grain);
        let (set, depth, slot) = pending.get(index)?;
        let mut job = fold_on_nodes();
        let probability = job.run(set, *depth);
        Some((*slot, probability.map(|p| (p, job.decomposer.stats))))
    });
    let mut stats = fold.decomposer.stats.clone();
    for (slot, solved) in solved.into_iter().flatten() {
        let (probability, job_stats) = solved?;
        stats.absorb(&job_stats);
        resolve(&mut slots, slot, probability);
    }
    // Resume the fold: the splits in reverse creation order, so that every
    // child is closed before its parent.
    while let Some((mut frame, children, slot)) = splits.pop() {
        for &(weight, probability) in slots.get(children).unwrap_or_default() {
            fold.algebra.absorb(&mut frame.node, weight, probability);
        }
        let probability = fold.close(frame);
        resolve(&mut slots, slot, probability);
    }
    let probability = slots.first().map_or(f64::NAN, |(_, root)| *root);
    Ok(Confidence { probability, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, Ordering};
    use uprob_wsd::{ValueIndex, VarId, WsDescriptor};

    /// Arms [`maybe_inject_panic`]: the next job of a run whose grain is
    /// [`INJECTION_GRAIN`] panics. The sentinel grain keeps concurrently
    /// running tests (which use grains 0, 2 and 16) from consuming the flag.
    static INJECT_TASK_PANIC: AtomicBool = AtomicBool::new(false);
    const INJECTION_GRAIN: usize = 3;

    /// Fault injection, called at the start of every subtree job.
    pub(super) fn maybe_inject_panic(grain: usize) {
        if grain == INJECTION_GRAIN && INJECT_TASK_PANIC.swap(false, Ordering::SeqCst) {
            panic!("injected task panic");
        }
    }

    /// The world table and ws-set S of Figure 3 (P(S) = 0.7578).
    fn figure3() -> (WorldTable, WsSet) {
        let mut w = WorldTable::new();
        let x = w
            .add_variable("x", &[(1, 0.1), (2, 0.4), (3, 0.5)])
            .unwrap();
        let y = w.add_variable("y", &[(1, 0.2), (2, 0.8)]).unwrap();
        let z = w.add_variable("z", &[(1, 0.4), (2, 0.6)]).unwrap();
        let u = w.add_variable("u", &[(1, 0.7), (2, 0.3)]).unwrap();
        let v = w.add_variable("v", &[(1, 0.5), (2, 0.5)]).unwrap();
        let s = WsSet::from_descriptors(vec![
            WsDescriptor::from_pairs(&w, &[(x, 1)]).unwrap(),
            WsDescriptor::from_pairs(&w, &[(x, 2), (y, 1)]).unwrap(),
            WsDescriptor::from_pairs(&w, &[(x, 2), (z, 1)]).unwrap(),
            WsDescriptor::from_pairs(&w, &[(u, 1), (v, 1)]).unwrap(),
            WsDescriptor::from_pairs(&w, &[(u, 2)]).unwrap(),
        ]);
        (w, s)
    }

    /// A seeded random instance large enough to exercise the top split.
    fn random_instance(seed: u64) -> (WorldTable, WsSet) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut w = WorldTable::new();
        let num_vars = rng.random_range(6..=10usize);
        let vars: Vec<VarId> = (0..num_vars)
            .map(|i| {
                let domain = rng.random_range(2..=4usize);
                w.add_uniform(&format!("v{i}"), domain).unwrap()
            })
            .collect();
        let mut set = WsSet::empty();
        for _ in 0..rng.random_range(6..=14usize) {
            let mut d = WsDescriptor::empty();
            for _ in 0..rng.random_range(1..=3usize) {
                let var = vars[rng.random_range(0..num_vars)];
                let domain = w.domain_size(var).unwrap();
                let _ = d.assign(var, ValueIndex(rng.random_range(0..domain) as u16));
            }
            set.push(d);
        }
        (w, set)
    }

    #[test]
    fn parallel_is_bit_identical_to_sequential_on_figure3() {
        let (w, s) = figure3();
        for options in [
            DecompositionOptions::indve_minlog(),
            DecompositionOptions::indve_minmax(),
            DecompositionOptions::ve_minlog(),
        ] {
            let sequential = confidence_with_cache(&s, &w, &options, None).unwrap();
            for workers in [2, 3, 8] {
                let parallel = ParallelOptions::new(workers).with_grain(2);
                let got = confidence_parallel(&s, &w, &options, &parallel, None).unwrap();
                assert_eq!(
                    got.probability.to_bits(),
                    sequential.probability.to_bits(),
                    "{options:?} with {workers} workers: {} vs {}",
                    got.probability,
                    sequential.probability
                );
                // Without a cache the decomposition tree is the sequential
                // one, so the merged counters match exactly.
                assert_eq!(got.stats, sequential.stats);
            }
        }
    }

    #[test]
    fn parallel_is_bit_identical_to_sequential_on_random_sets() {
        for seed in 0..16u64 {
            let (w, s) = random_instance(seed);
            for options in [
                DecompositionOptions::indve_minlog(),
                DecompositionOptions::ve_minlog(),
            ] {
                let sequential = confidence_with_cache(&s, &w, &options, None).unwrap();
                for workers in [2, 4, 8] {
                    let parallel = ParallelOptions::new(workers).with_grain(2);
                    let got = confidence_parallel(&s, &w, &options, &parallel, None).unwrap();
                    assert_eq!(
                        got.probability.to_bits(),
                        sequential.probability.to_bits(),
                        "seed {seed}, {options:?}, {workers} workers"
                    );
                    assert_eq!(got.stats, sequential.stats, "seed {seed}");
                }
            }
        }
    }

    #[test]
    fn parallel_choice_fold_survives_many_branch_drift() {
        // The ⊕-combine must keep the compensated branch-order sum: one
        // 0.5 head, 29998 half-ulp alternatives and a balancing tail; the
        // singleton cover has probability exactly 1.0.
        let tiny = 2f64.powi(-54);
        let tiny_count = 29_998usize;
        let mut alternatives: Vec<(i64, f64)> = vec![(0, 0.5)];
        alternatives.extend((0..tiny_count).map(|i| (1 + i as i64, tiny)));
        alternatives.push((1 + tiny_count as i64, 0.5 - tiny_count as f64 * tiny));
        let mut w = WorldTable::new();
        let x = w.add_variable("x", &alternatives).unwrap();
        let set: WsSet = (0..alternatives.len())
            .map(|v| {
                WsDescriptor::from_assignments([uprob_wsd::value::Assignment::new(
                    x,
                    ValueIndex(v as u16),
                )])
                .unwrap()
            })
            .collect();
        let options = DecompositionOptions::ve_minlog();
        let sequential = confidence_with_cache(&set, &w, &options, None).unwrap();
        let parallel = ParallelOptions::new(4).with_grain(2);
        let got = confidence_parallel(&set, &w, &options, &parallel, None).unwrap();
        assert_eq!(got.probability.to_bits(), sequential.probability.to_bits());
        assert!(
            (got.probability - 1.0).abs() < 1e-13,
            "parallel ⊕-fold drifted: {:e}",
            (got.probability - 1.0).abs()
        );
    }

    #[test]
    fn parallel_budget_aborts_like_sequential_and_ample_budget_matches() {
        let (w, s) = figure3();
        let tight = DecompositionOptions::indve_minlog().with_budget(2);
        for workers in [2, 4] {
            let parallel = ParallelOptions::new(workers).with_grain(2);
            let err = confidence_parallel(&s, &w, &tight, &parallel, None).unwrap_err();
            assert!(matches!(err, CoreError::BudgetExceeded { budget: 2 }));
        }
        let ample = DecompositionOptions::indve_minlog().with_budget(1_000_000);
        let sequential = confidence_with_cache(&s, &w, &ample, None).unwrap();
        for workers in [2, 4] {
            let parallel = ParallelOptions::new(workers).with_grain(2);
            let got = confidence_parallel(&s, &w, &ample, &parallel, None).unwrap();
            assert_eq!(got.probability.to_bits(), sequential.probability.to_bits());
        }
    }

    #[test]
    fn parallel_populates_the_shared_cache_for_sequential_reuse() {
        let (w, s) = figure3();
        let options = DecompositionOptions::indve_minlog();
        let cache = SharedDecompositionCache::new();
        let parallel = ParallelOptions::new(4).with_grain(2);
        let cold = confidence_parallel(&s, &w, &options, &parallel, Some(&cache)).unwrap();
        let plain = confidence_with_cache(&s, &w, &options, None).unwrap();
        assert_eq!(cold.probability.to_bits(), plain.probability.to_bits());
        assert!(cold.stats.cache_misses > 0);
        // A warm sequential run over the same set answers from the cache.
        let warm = confidence_with_cache(&s, &w, &options, Some(&cache)).unwrap();
        assert_eq!(warm.probability.to_bits(), cold.probability.to_bits());
        assert_eq!(warm.stats.cache_hits, 1);
        assert_eq!(warm.stats.total_nodes(), 0);
        // And a warm parallel run hits it too.
        let warm_parallel = confidence_parallel(&s, &w, &options, &parallel, Some(&cache)).unwrap();
        assert_eq!(
            warm_parallel.probability.to_bits(),
            cold.probability.to_bits()
        );
        assert!(warm_parallel.stats.cache_hits >= 1);
    }

    #[test]
    fn parallel_with_cache_is_bit_identical_on_random_sets() {
        for seed in 16..28u64 {
            let (w, s) = random_instance(seed);
            let options = DecompositionOptions::indve_minlog();
            let sequential = confidence_with_cache(&s, &w, &options, None).unwrap();
            for workers in [2, 8] {
                let cache = SharedDecompositionCache::new();
                let parallel = ParallelOptions::new(workers).with_grain(2);
                let got = confidence_parallel(&s, &w, &options, &parallel, Some(&cache)).unwrap();
                assert_eq!(
                    got.probability.to_bits(),
                    sequential.probability.to_bits(),
                    "seed {seed}, {workers} workers (cached)"
                );
            }
        }
    }

    /// An instance shaped for the top split, over weights that make every
    /// slot matter: a root ⊗ whose parts (20, 5 and 1 descriptors)
    /// straddle each tested grain; in the 20-descriptor part, a ⊕ on `h`
    /// whose `h = 0` branch holds 18 descriptors, a chain that splits again
    /// further down while its siblings stop one level up; and that branch
    /// as a set of its own, to warm a cache with.
    fn top_split_instance() -> (WorldTable, WsSet, WsSet) {
        let mut w = WorldTable::new();
        let h = w
            .add_variable("h", &[(0, 0.5), (1, 0.2), (2, 0.3)])
            .unwrap();
        let a: Vec<VarId> = (0..19)
            .map(|i| {
                w.add_variable(&format!("a{i}"), &[(0, 0.35), (1, 0.65)])
                    .unwrap()
            })
            .collect();
        let b0 = w.add_variable("b0", &[(0, 0.6), (1, 0.4)]).unwrap();
        let b1 = w.add_variable("b1", &[(0, 0.15), (1, 0.85)]).unwrap();
        let c: Vec<VarId> = (0..3)
            .map(|i| {
                w.add_variable(&format!("c{i}"), &[(0, 0.1), (1, 0.3), (2, 0.6)])
                    .unwrap()
            })
            .collect();
        let d = w.add_variable("d", &[(0, 0.45), (1, 0.55)]).unwrap();
        let descriptor = |pairs: &[(VarId, i64)]| WsDescriptor::from_pairs(&w, pairs).unwrap();
        let branch: WsSet = a
            .windows(2)
            .map(|pair| descriptor(&[(pair[0], 1), (pair[1], 0)]))
            .collect();
        let mut set: WsSet = a
            .windows(2)
            .map(|pair| descriptor(&[(h, 0), (pair[0], 1), (pair[1], 0)]))
            .collect();
        for pairs in [
            &[(h, 1), (b0, 1)][..],
            &[(h, 2), (b1, 1)],
            &[(c[0], 0), (c[1], 1)],
            &[(c[0], 1), (c[2], 2)],
            &[(c[1], 2), (c[2], 0)],
            &[(c[0], 2), (c[1], 0)],
            &[(c[2], 1)],
            &[(d, 1)],
        ] {
            set.push(descriptor(pairs));
        }
        (w, set, branch)
    }

    #[test]
    fn the_top_split_folds_like_the_sequential_fold() {
        let (w, set, branch) = top_split_instance();
        for options in [
            DecompositionOptions::indve_minlog(),
            DecompositionOptions::indve_minmax(),
        ] {
            let sequential = confidence_with_cache(&set, &w, &options, None).unwrap();
            for workers in [2, 3, 8] {
                for grain in [0, 2, 16] {
                    let context = format!("{options:?}, {workers} workers, grain {grain}");
                    let parallel = ParallelOptions::new(workers).with_grain(grain);
                    let got = confidence_parallel(&set, &w, &options, &parallel, None).unwrap();
                    assert_eq!(
                        got.probability.to_bits(),
                        sequential.probability.to_bits(),
                        "{context}: {} vs {}",
                        got.probability,
                        sequential.probability
                    );
                    assert_eq!(got.stats, sequential.stats, "{context}");
                    // A cache warmed by the `h = 0` branch answers that
                    // branch while the top is being split.
                    let cache = SharedDecompositionCache::new();
                    confidence_with_cache(&branch, &w, &options, Some(&cache)).unwrap();
                    let warm =
                        confidence_parallel(&set, &w, &options, &parallel, Some(&cache)).unwrap();
                    assert_eq!(
                        warm.probability.to_bits(),
                        sequential.probability.to_bits(),
                        "{context}, warm cache"
                    );
                    assert!(warm.stats.cache_hits >= 1, "{context}, warm cache");
                }
            }
        }
    }

    #[test]
    fn trivial_sets_and_single_worker_degenerate_to_sequential() {
        let (w, s) = figure3();
        let options = DecompositionOptions::indve_minlog();
        let sequential = confidence_with_cache(&s, &w, &options, None).unwrap();
        // One worker: nothing is split.
        let one =
            confidence_parallel(&s, &w, &options, &ParallelOptions::sequential(), None).unwrap();
        assert_eq!(one.probability.to_bits(), sequential.probability.to_bits());
        // A set below the grain: likewise.
        let coarse = ParallelOptions::new(4); // default grain 16 > |S| = 5
        let small = confidence_parallel(&s, &w, &options, &coarse, None).unwrap();
        assert_eq!(
            small.probability.to_bits(),
            sequential.probability.to_bits()
        );
        // Empty and universal sets, resolved by the split's first step.
        let parallel = ParallelOptions::new(4).with_grain(0);
        assert_eq!(
            confidence_parallel(&WsSet::empty(), &w, &options, &parallel, None)
                .unwrap()
                .probability,
            0.0
        );
        assert_eq!(
            confidence_parallel(&WsSet::universal(), &w, &options, &parallel, None)
                .unwrap()
                .probability,
            1.0
        );
    }

    #[test]
    fn parallel_options_policies() {
        assert!(ParallelOptions::default().is_sequential());
        assert_eq!(ParallelOptions::new(0).workers(), 1);
        assert_eq!(ParallelOptions::new(4).workers(), 4);
        assert!(!ParallelOptions::new(4).is_sequential());
        assert_eq!(ParallelOptions::new(4).grain, DEFAULT_GRAIN);
        assert_eq!(ParallelOptions::new(4).with_grain(2).grain, 2);
        assert!(ParallelOptions::auto().workers() >= 1);
    }

    #[test]
    fn injected_worker_panic_is_contained_and_later_runs_succeed() {
        let (w, s) = figure3();
        let options = DecompositionOptions::indve_minlog();
        let parallel = ParallelOptions::new(4).with_grain(INJECTION_GRAIN);
        INJECT_TASK_PANIC.store(true, Ordering::SeqCst);
        let payload = catch_unwind(AssertUnwindSafe(|| {
            confidence_parallel(&s, &w, &options, &parallel, None)
        }))
        .expect_err("the injected job panics");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"injected task panic"),
            "the job's own payload reaches the caller"
        );
        assert!(
            !INJECT_TASK_PANIC.load(Ordering::SeqCst),
            "the injection must have been consumed"
        );
        // The failed run owned the panic; the same call made afterwards
        // succeeds bit-identically.
        let sequential = confidence_with_cache(&s, &w, &options, None).unwrap();
        let got = confidence_parallel(&s, &w, &options, &parallel, None).unwrap();
        assert_eq!(got.probability.to_bits(), sequential.probability.to_bits());
    }

    #[test]
    fn from_env_resolves_once_per_process() {
        // Whatever the environment says, two calls agree: the spec is
        // resolved into a process-wide OnceLock on the first call.
        let first = ParallelOptions::from_env();
        let second = ParallelOptions::from_env();
        assert_eq!(first, second);
    }

    #[test]
    fn workers_spec_parsing() {
        assert_eq!(workers_from_spec(Some("4")).unwrap(), 4);
        assert_eq!(workers_from_spec(Some(" 2 ")).unwrap(), 2);
        assert_eq!(workers_from_spec(Some("1")).unwrap(), 1);
        let auto = available_workers();
        assert_eq!(workers_from_spec(None).unwrap(), auto);
        assert_eq!(workers_from_spec(Some("")).unwrap(), auto);
        assert_eq!(workers_from_spec(Some("   ")).unwrap(), auto);
        assert_eq!(workers_from_spec(Some("\t\n")).unwrap(), auto);
    }

    #[test]
    fn workers_spec_rejects_malformed_values() {
        for bad in [
            "0",
            " 0 ",
            "many",
            "-1",
            "2.5",
            "4 workers",
            "1_0",
            "+",
            "0x4",
        ] {
            let err = workers_from_spec(Some(bad)).unwrap_err();
            match err {
                CoreError::InvalidWorkerSpec { ref spec } => assert_eq!(spec, bad),
                other => panic!("expected InvalidWorkerSpec for {bad:?}, got {other:?}"),
            }
            assert!(err.to_string().contains("positive integer"), "{err}");
        }
        // Overflow is malformed too, not a silent clamp.
        assert!(matches!(
            workers_from_spec(Some("99999999999999999999999999")),
            Err(CoreError::InvalidWorkerSpec { .. })
        ));
    }
}
