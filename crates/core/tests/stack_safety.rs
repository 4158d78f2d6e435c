//! The depth of a decomposition lives on the heap: every fold runs on a
//! 256 KiB thread stack, far below std's 2 MiB default for spawned threads,
//! over decompositions 2 000 levels deep. A fold that recursed on the
//! thread's stack would abort the process with a stack overflow here, which
//! no `catch_unwind` can contain.

use uprob_core::{
    condition, confidence, confidence_parallel, ConditioningOptions, CoreError,
    DecompositionOptions, ParallelOptions,
};
use uprob_urel::ProbDb;
use uprob_wsd::{VarId, WorldTable, WsDescriptor, WsSet};

/// Far below what a recursion of depth 2 000 needs.
const STACK: usize = 256 * 1024;

/// Descriptors in each deep shape.
const N: usize = 2_000;

/// Runs `f` on a fresh thread with a [`STACK`]-byte stack.
fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(STACK)
        .spawn(f)
        .unwrap()
        .join()
        .unwrap()
}

/// `N` Booleans of probability [`P`], and the set `{x₁ → 1}, …, {x_N → 1}`
/// of independent one-assignment descriptors. VE eliminates one variable a
/// level, and each level's `T` is the rest of the set.
fn independent() -> (WorldTable, WsSet) {
    let mut w = WorldTable::new();
    let vars: Vec<VarId> = (0..N)
        .map(|i| w.add_boolean(&format!("x{i}"), P).unwrap())
        .collect();
    let set = vars
        .iter()
        .map(|&x| WsDescriptor::from_pairs(&w, &[(x, 1)]).unwrap())
        .collect();
    (w, set)
}

const P: f64 = 1e-4;

/// `P({x₁ → 1}, …, {x_N → 1})` in closed form.
fn expected() -> f64 {
    -(N as f64 * (-P).ln_1p()).exp_m1()
}

#[test]
fn a_deep_sequential_fold_runs_on_a_small_stack() {
    let result = on_small_stack(|| {
        let (w, set) = independent();
        confidence(&set, &w, &DecompositionOptions::ve_minlog()).unwrap()
    });
    assert!(
        (result.probability - expected()).abs() < 1e-12,
        "{} vs {}",
        result.probability,
        expected()
    );
    // One ⊕ level per descriptor, and the last one's `∅` leaf below them.
    assert_eq!(result.stats.max_depth, N as u64 + 1);
}

#[test]
fn a_deep_parallel_fold_runs_on_a_small_stack() {
    let (sequential, parallel) = on_small_stack(|| {
        let (w, set) = independent();
        let options = DecompositionOptions::ve_minlog();
        let parallel = ParallelOptions::new(2).with_grain(0);
        let parallel = confidence_parallel(&set, &w, &options, &parallel, None).unwrap();
        (confidence(&set, &w, &options).unwrap(), parallel)
    });
    assert_eq!(
        parallel.probability.to_bits(),
        sequential.probability.to_bits()
    );
    assert_eq!(parallel.stats, sequential.stats);
}

#[test]
fn deep_conditioning_runs_on_a_small_stack() {
    let conditioned = on_small_stack(|| {
        let (w, set) = independent();
        let db = ProbDb::with_world_table(w);
        condition(&db, &set, &ConditioningOptions::default()).unwrap()
    });
    assert!(
        (conditioned.confidence - expected()).abs() < 1e-12,
        "{} vs {}",
        conditioned.confidence,
        expected()
    );
    assert_eq!(conditioned.new_variables, N);
}

#[test]
fn a_deep_budgeted_fold_aborts_with_the_typed_error() {
    // The path {x₀ → 1, x₁ → 1}, {x₁ → 1, x₂ → 1}, …: INDVE goes about one
    // level deeper per descriptor, and the whole tree is exponential in N.
    const BUDGET: u64 = 200_000;
    let outcome = on_small_stack(|| {
        let mut w = WorldTable::new();
        let vars: Vec<VarId> = (0..=N)
            .map(|i| w.add_boolean(&format!("x{i}"), 0.5).unwrap())
            .collect();
        let set: WsSet = vars
            .windows(2)
            .map(|pair| WsDescriptor::from_pairs(&w, &[(pair[0], 1), (pair[1], 1)]).unwrap())
            .collect();
        let options = DecompositionOptions::indve_minlog().with_budget(BUDGET);
        confidence(&set, &w, &options)
    });
    assert_eq!(
        outcome.unwrap_err(),
        CoreError::BudgetExceeded { budget: BUDGET }
    );
}
