//! Work-stealing parallel exact confidence computation.
//!
//! The ws-tree decomposition is naturally parallel: the parts of an
//! independent partition (⊗) and the sibling subtrees of a ⊕-split are
//! disjoint subproblems. [`confidence_parallel`] expands them on scoped
//! worker threads (launched through [`fan_out_indexed`], the workspace's
//! one spawn site) — one lock-protected deque per worker, owners popping
//! newest-first and thieves stealing oldest-first so the largest pending
//! subtrees migrate — while an arena of *combine nodes* reassembles the
//! partial results strictly in canonical child order with the same
//! compensated (Neumaier) arithmetic as the sequential fold of
//! [`mod@crate::confidence`].
//!
//! # Determinism contract
//!
//! The returned probability is **bit-identical** to the sequential fold
//! ([`crate::confidence()`]) for every worker count. The argument: the
//! probability of every sub-ws-set is a pure function of the sub-set and
//! the world table, so it does not matter *which* worker computes it or
//! *when*; and partial results are never folded in completion order —
//! each combine node keeps one slot per child and evaluates, only once
//! all slots are filled, exactly the sequential expression (`1 − Π (1 −
//! pᵢ)` in part order for ⊗, a Neumaier sum of `wᵢ · pᵢ` in branch order
//! with the missing-value tail last for ⊕). A shared-cache hit returns a
//! probability that is itself bit-identical to recomputation, so the
//! contract holds with or without a [`SharedDecompositionCache`]. The
//! differential and golden suites pin this under a `UPROB_WORKERS`
//! matrix in CI.
//!
//! # Budget accounting
//!
//! All workers of one run charge decomposition nodes against a single
//! shared atomic counter, so a [`DecompositionOptions::node_budget`]
//! bounds the run's **total** work: `BudgetExceeded` triggers at the
//! same amount of work regardless of the worker count (without a cache
//! the decomposition tree — and hence the abort-or-finish outcome — is
//! exactly the sequential one; cache hits can shift where the charges
//! fall, just as they do sequentially).

#![expect(
    clippy::expect_used,
    reason = "scheduler discipline: lock `.expect`s propagate a panicked worker (a poisoned lock must abort the run, not limp on), and slot/root `.expect`s assert the combine-node accounting the determinism contract requires"
)]
#![expect(
    clippy::indexing_slicing,
    reason = "every index is scheduler-internal: worker/victim ids are `% queues`-bounded, arena indices come from `alloc`, and combine slots are sized to the child count at allocation"
)]

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::thread;

use uprob_approx::fan_out_indexed;
use uprob_wsd::{NeumaierSum, WorldTable, WsSet};

use crate::cache::{PendingEntry, SharedDecompositionCache};
use crate::confidence::{confidence_rec, confidence_with_cache};
use crate::decompose::{for_each_choice_term, Decomposer, DecompositionOptions, DecompositionStep};
use crate::error::CoreError;
use crate::stats::{Confidence, DecompositionStats};
use crate::Result;

/// Default grain: ws-sets with fewer descriptors are solved inline by the
/// sequential fold instead of being scheduled, so the per-task overhead is
/// only paid where a subtree is plausibly worth stealing.
const DEFAULT_GRAIN: usize = 16;

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
            let spec = std::env::var("UPROB_WORKERS").ok();
            workers_from_spec(spec.as_deref())
        });
        match resolved {
            Ok(workers) => Ok(ParallelOptions::new(*workers)),
            Err(error) => Err(error.clone()),
        }
    }

    /// Returns a copy with the given scheduling grain: ws-sets with fewer
    /// than `grain` descriptors are solved inline rather than scheduled.
    /// Tests over small random instances lower this so the scheduler is
    /// actually exercised; production callers keep the default.
    pub fn with_grain(mut self, grain: usize) -> Self {
        self.grain = grain;
        self
    }

    /// The number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The scheduling grain (minimum descriptor count for a scheduled task).
    pub fn grain(&self) -> usize {
        self.grain
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

/// Sentinel parent index for the root task.
const ROOT: usize = usize::MAX;

/// One unit of schedulable work: compute the probability of `set` and
/// deliver it to slot `slot` of combine node `parent`.
struct Task {
    set: WsSet,
    depth: u64,
    parent: usize,
    slot: usize,
}

/// How a combine node folds its children: the arithmetic of the sequential
/// `confidence_rec`, over one slot per child.
enum CombineKind {
    /// ⊗: `1 − Π (1 − pᵢ)`, factors multiplied in part order.
    Product {
        /// One slot per part, filled as children resolve.
        factors: Vec<Option<f64>>,
    },
    /// ⊕: Neumaier sum of `wᵢ · pᵢ` over the terms of
    /// [`for_each_choice_term`] — the list the sequential fold sums.
    Sum {
        /// Branch weights, in canonical branch order.
        weights: Vec<f64>,
        /// One slot per branch, filled as children resolve.
        terms: Vec<Option<f64>>,
    },
}

impl CombineKind {
    fn set(&mut self, slot: usize, value: f64) {
        let slots = match self {
            CombineKind::Product { factors } => factors,
            CombineKind::Sum { terms, .. } => terms,
        };
        debug_assert!(slots[slot].is_none(), "combine slot delivered twice");
        slots[slot] = Some(value);
    }

    /// Folds the filled slots exactly as the sequential fold would.
    fn combine(&self) -> f64 {
        match self {
            CombineKind::Product { factors } => {
                let mut complement = 1.0;
                for factor in factors {
                    complement *= 1.0 - factor.expect("combine node resolved unfilled");
                }
                1.0 - complement
            }
            CombineKind::Sum { weights, terms } => {
                let mut total = NeumaierSum::new();
                for (weight, term) in weights.iter().zip(terms) {
                    total.add(weight * term.expect("combine node resolved unfilled"));
                }
                total.value()
            }
        }
    }
}

/// An unresolved inner node of the (virtual) ws-tree: where its own value
/// goes, how many children are still outstanding, and the pending cache
/// entry to fill once resolved.
struct CombineNode {
    parent: usize,
    slot: usize,
    remaining: usize,
    kind: CombineKind,
    cache_entry: Option<PendingEntry>,
}

/// Slab of combine nodes with a free-list: resolved nodes are recycled,
/// bounding the arena to the active frontier of the decomposition rather
/// than its full node count.
#[derive(Default)]
struct Arena {
    nodes: Vec<Option<CombineNode>>,
    free: Vec<usize>,
}

impl Arena {
    fn alloc(&mut self, node: CombineNode) -> usize {
        match self.free.pop() {
            Some(index) => {
                self.nodes[index] = Some(node);
                index
            }
            None => {
                self.nodes.push(Some(node));
                self.nodes.len() - 1
            }
        }
    }

    fn take(&mut self, index: usize) -> CombineNode {
        let node = self.nodes[index].take().expect("live combine node");
        self.free.push(index);
        node
    }
}

/// State shared by all workers of one parallel run.
struct Shared<'a> {
    queues: Vec<Mutex<VecDeque<Task>>>,
    arena: Mutex<Arena>,
    root: Mutex<Option<f64>>,
    done: AtomicBool,
    error: Mutex<Option<CoreError>>,
    cache: Option<&'a SharedDecompositionCache>,
    grain: usize,
}

impl Shared<'_> {
    /// Records the first error of the run and tells every worker to stop.
    /// Poison-tolerant on purpose: this is the containment path a
    /// panicking worker reports through, so it must stay usable even
    /// after another worker died while holding the error lock (the slot
    /// is a plain `Option` — there is no half-written state to observe).
    fn record_error(&self, error: CoreError) {
        let mut slot = self.error.lock().unwrap_or_else(PoisonError::into_inner);
        if slot.is_none() {
            *slot = Some(error);
        }
        self.done.store(true, Ordering::Release);
    }
}

/// Renders a `catch_unwind` payload to text, best effort: `&str` and
/// `String` payloads (what `panic!` produces) are returned verbatim,
/// anything else is summarized.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Publishes `value` under `pending` (the memo entry of the set it was
/// computed for, if one is owed), delivers it into `(parent, slot)` and
/// walks resolutions up the arena: whichever worker fills a node's last
/// slot folds it (in canonical order) and continues with the parent the
/// same way. The walk is iterative, so deep ws-trees never deepen the stack.
fn resolve(
    shared: &Shared<'_>,
    mut parent: usize,
    mut slot: usize,
    mut value: f64,
    mut pending: Option<PendingEntry>,
) {
    loop {
        if let (Some(cache), Some(entry)) = (shared.cache, pending) {
            cache.insert(entry, value);
        }
        if parent == ROOT {
            *shared.root.lock().expect("root lock poisoned") = Some(value);
            shared.done.store(true, Ordering::Release);
            return;
        }
        let finished = {
            let mut arena = shared.arena.lock().expect("arena lock poisoned");
            let node = arena.nodes[parent].as_mut().expect("live combine node");
            node.kind.set(slot, value);
            node.remaining -= 1;
            if node.remaining > 0 {
                return;
            }
            arena.take(parent)
        };
        value = finished.kind.combine();
        pending = finished.cache_entry;
        parent = finished.parent;
        slot = finished.slot;
    }
}

/// Allocates the combine node for an expanded task and pushes its child
/// tasks onto the expanding worker's own deque — in reverse slot order, so
/// LIFO pops visit the children in the same depth-first canonical order as
/// the sequential recursion (thieves take from the other end: the oldest,
/// largest subtrees).
fn spawn_children(
    shared: &Shared<'_>,
    worker: usize,
    node: CombineNode,
    children: Vec<WsSet>,
    depth: u64,
) {
    debug_assert_eq!(node.remaining, children.len());
    let index = shared
        .arena
        .lock()
        .expect("arena lock poisoned")
        .alloc(node);
    let mut queue = shared.queues[worker].lock().expect("queue lock poisoned");
    for (child_slot, set) in children.into_iter().enumerate().rev() {
        queue.push_front(Task {
            set,
            depth: depth + 1,
            parent: index,
            slot: child_slot,
        });
    }
}

/// Executes one task: small sets, and singletons at any grain (they close
/// in one product), are solved inline by the sequential fold (same cache
/// interaction, same arithmetic); larger sets take one
/// decomposition step, with the resulting subtrees scheduled as child
/// tasks behind a combine node. The memo probe runs *before* the step,
/// as in `confidence_rec` (both call `probe_memo`).
fn run_task(
    task: Task,
    worker: usize,
    shared: &Shared<'_>,
    decomposer: &mut Decomposer<'_>,
) -> Result<()> {
    let Task {
        set,
        depth,
        parent,
        slot,
    } = task;
    if set.len() < shared.grain || set.len() == 1 {
        let probability = confidence_rec(&set, decomposer, depth, shared.cache)?;
        resolve(shared, parent, slot, probability, None);
        return Ok(());
    }
    let pending =
        match SharedDecompositionCache::probe_memo(shared.cache, &set, &mut decomposer.stats) {
            Ok(probability) => {
                resolve(shared, parent, slot, probability, None);
                return Ok(());
            }
            Err(pending) => pending,
        };
    let (kind, children) = match decomposer.step(&set, depth)? {
        DecompositionStep::Empty => {
            resolve(shared, parent, slot, 0.0, pending);
            return Ok(());
        }
        DecompositionStep::Universal => {
            resolve(shared, parent, slot, 1.0, pending);
            return Ok(());
        }
        DecompositionStep::Partition(parts) => {
            let factors = vec![None; parts.len()];
            (CombineKind::Product { factors }, parts)
        }
        DecompositionStep::Eliminate {
            var,
            branches,
            missing_values,
            tail,
        } => {
            let mut weights = Vec::with_capacity(branches.len() + 1);
            let mut children = Vec::with_capacity(branches.len() + 1);
            for_each_choice_term(
                decomposer.table(),
                var,
                branches,
                &missing_values,
                tail,
                |weight, child| {
                    weights.push(weight);
                    children.push(child);
                    Ok(())
                },
            )?;
            let terms = vec![None; children.len()];
            (CombineKind::Sum { weights, terms }, children)
        }
    };
    if children.is_empty() {
        // A ⊕ without a single term folds to the empty Neumaier sum.
        resolve(shared, parent, slot, kind.combine(), pending);
    } else {
        let node = CombineNode {
            parent,
            slot,
            remaining: children.len(),
            kind,
            cache_entry: pending,
        };
        spawn_children(shared, worker, node, children, depth);
    }
    Ok(())
}

/// Pops the worker's own newest task, or steals the oldest task of another
/// worker's deque.
fn next_task(shared: &Shared<'_>, worker: usize) -> Option<Task> {
    if let Some(task) = shared.queues[worker]
        .lock()
        .expect("queue lock poisoned")
        .pop_front()
    {
        return Some(task);
    }
    let queues = shared.queues.len();
    for offset in 1..queues {
        let victim = (worker + offset) % queues;
        if let Some(task) = shared.queues[victim]
            .lock()
            .expect("queue lock poisoned")
            .pop_back()
        {
            return Some(task);
        }
    }
    None
}

/// Test-only fault injection: panics inside the next scheduled task when
/// the tests have armed [`tests::INJECT_TASK_PANIC`] and the run uses the
/// sentinel grain (so concurrently running tests never trip it).
#[cfg(test)]
fn maybe_inject_panic(grain: usize) {
    if grain == tests::INJECTION_GRAIN && tests::INJECT_TASK_PANIC.swap(false, Ordering::SeqCst) {
        panic!("injected task panic");
    }
}

#[cfg(not(test))]
fn maybe_inject_panic(_grain: usize) {}

/// The worker main loop: drain tasks until the root resolves or a worker
/// reports an error; idle workers yield between steal attempts.
///
/// Each iteration runs under `catch_unwind`: a panic anywhere in task
/// execution (or in a steal attempt hitting a lock the panicking worker
/// poisoned) is converted into [`CoreError::WorkerPanicked`] and recorded,
/// which sets `done` and drains the scheduler. Without this containment a
/// panicking worker would never set `done`, the surviving workers would
/// spin forever, and `thread::scope` would deadlock the process.
fn worker_loop(
    worker: usize,
    shared: &Shared<'_>,
    table: &WorldTable,
    options: DecompositionOptions,
    nodes: &AtomicU64,
) -> DecompositionStats {
    let mut decomposer = Decomposer::with_shared_nodes(table, options, nodes);
    while !shared.done.load(Ordering::Acquire) {
        let step = catch_unwind(AssertUnwindSafe(|| {
            maybe_inject_panic(shared.grain);
            match next_task(shared, worker) {
                Some(task) => {
                    if let Err(error) = run_task(task, worker, shared, &mut decomposer) {
                        shared.record_error(error);
                    }
                    true
                }
                None => false,
            }
        }));
        match step {
            Ok(true) => {}
            Ok(false) => thread::yield_now(),
            Err(payload) => shared.record_error(CoreError::WorkerPanicked {
                message: panic_message(payload.as_ref()),
            }),
        }
    }
    decomposer.stats
}

/// The general exact-confidence entry point: the probability of `set` on
/// `parallel.workers()` work-stealing worker threads through an optional
/// shared decomposition cache, **bit-identical** to the sequential fold
/// ([`crate::confidence()`]) for every worker count, with or without the
/// cache (see the module documentation for the contract and the budget
/// semantics). With one worker — or a set below the scheduling grain —
/// this *is* the sequential fold. The `cache_hits` / `cache_misses`
/// counters of the returned [`Confidence::stats`] report this run's reuse.
///
/// # Errors
///
/// Returns [`CoreError::BudgetExceeded`] if `options.node_budget` is set
/// and the run's total (cross-worker) node count exhausts it, and
/// [`CoreError::CacheTableMismatch`] if `cache` was first used with a
/// different world table.
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
    let workers = parallel.workers();
    let nodes = AtomicU64::new(0);
    let shared = Shared {
        queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
        arena: Mutex::new(Arena::default()),
        root: Mutex::new(None),
        done: AtomicBool::new(false),
        error: Mutex::new(None),
        cache,
        grain: parallel.grain,
    };
    shared.queues[0]
        .lock()
        .expect("queue lock poisoned")
        .push_front(Task {
            set: set.clone(),
            depth: 1,
            parent: ROOT,
            slot: 0,
        });
    // One job per worker index: a worker leaves its loop only once the run
    // is done, so each pool thread claims exactly one index (an index left
    // over after an early finish returns at once). Workers fill
    // pre-assigned combine-node slots and the fold over the arena is by
    // slot index, so completion order cannot reach the result bits.
    let mut stats = DecompositionStats::default();
    for worker_stats in fan_out_indexed(workers, workers, |worker| {
        worker_loop(worker, &shared, table, *options, &nodes)
    }) {
        stats.absorb(&worker_stats);
    }
    // Poison-tolerant like `record_error`: the error slot must stay
    // readable even if the recording worker died while holding it.
    if let Some(error) = shared
        .error
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .take()
    {
        return Err(error);
    }
    let probability = shared
        .root
        .lock()
        .expect("root lock poisoned")
        .take()
        .expect("finished parallel run must resolve the root");
    Ok(Confidence { probability, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use uprob_wsd::{ValueIndex, VarId, WsDescriptor};

    /// Arms [`maybe_inject_panic`]: the next task of a run whose grain is
    /// [`INJECTION_GRAIN`] panics. The sentinel grain keeps concurrently
    /// running tests (which use grains 0 and 2) from consuming the flag.
    pub(super) static INJECT_TASK_PANIC: AtomicBool = AtomicBool::new(false);
    pub(super) const INJECTION_GRAIN: usize = 3;

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

    /// A seeded random instance large enough to exercise the scheduler.
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

    #[test]
    fn trivial_sets_and_single_worker_degenerate_to_sequential() {
        let (w, s) = figure3();
        let options = DecompositionOptions::indve_minlog();
        let sequential = confidence_with_cache(&s, &w, &options, None).unwrap();
        // One worker: the scheduler is bypassed entirely.
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
        // Empty and universal sets under the scheduler-less path.
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
        assert_eq!(ParallelOptions::new(4).grain(), DEFAULT_GRAIN);
        assert_eq!(ParallelOptions::new(4).with_grain(2).grain(), 2);
        assert!(ParallelOptions::auto().workers() >= 1);
    }

    #[test]
    fn injected_worker_panic_is_contained_and_later_runs_succeed() {
        let (w, s) = figure3();
        let options = DecompositionOptions::indve_minlog();
        let parallel = ParallelOptions::new(4).with_grain(INJECTION_GRAIN);
        INJECT_TASK_PANIC.store(true, Ordering::SeqCst);
        let err = confidence_parallel(&s, &w, &options, &parallel, None).unwrap_err();
        match err {
            CoreError::WorkerPanicked { ref message } => {
                assert!(message.contains("injected"), "unexpected payload: {err}");
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
        assert!(
            !INJECT_TASK_PANIC.load(Ordering::SeqCst),
            "the injection must have been consumed"
        );
        // Containment: the failed run owned the panic; the same call made
        // afterwards (fresh scheduler state) succeeds bit-identically.
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
    fn panic_message_renders_common_payloads() {
        let static_payload: Box<dyn std::any::Any + Send> = Box::new("boom");
        assert_eq!(panic_message(static_payload.as_ref()), "boom");
        let string_payload: Box<dyn std::any::Any + Send> = Box::new(String::from("formatted"));
        assert_eq!(panic_message(string_payload.as_ref()), "formatted");
        let odd_payload: Box<dyn std::any::Any + Send> = Box::new(7u32);
        assert_eq!(
            panic_message(odd_payload.as_ref()),
            "non-string panic payload"
        );
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
