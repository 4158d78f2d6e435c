//! Variable-ordering heuristics for the Davis–Putnam-style decomposition
//! (Section 4.2).
//!
//! When the decomposition has to eliminate a variable, the choice of
//! variable strongly influences the size of the resulting ws-tree. The
//! paper proposes two heuristics:
//!
//! * **minlog** (Figure 6): choose the variable minimising
//!   `log(Σ_i 2^{s_i})`, where `s_i = |S_{x→i} ∪ T|` is the size of the
//!   sub-problem for alternative `i`; the estimate is computed incrementally
//!   to avoid summing huge numbers.
//! * **minmax**: choose the variable minimising the size of the *largest*
//!   sub-problem `max_i |S_{x→i} ∪ T|` (the heuristic of Birnbaum &
//!   Lozinskii used for DP model counting, which the paper benchmarks
//!   against).
//!
//! Two simple baselines are included for ablation experiments.

use uprob_wsd::value::Assignment;
use uprob_wsd::{VarId, WorldTable, WsSet};

/// The variable-ordering heuristic used by variable elimination.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum VariableHeuristic {
    /// The paper's main heuristic (Figure 6): minimise the logarithm of the
    /// estimated total cost `Σ_i 2^{s_i}`.
    #[default]
    MinLog,
    /// Minimise the size of the largest sub-problem (`max_i s_i`).
    MinMax,
    /// Always eliminate the smallest [`VarId`] occurring in the ws-set
    /// (a deliberately naive baseline).
    FirstVariable,
    /// Eliminate the variable occurring in the most ws-descriptors
    /// (a frequency baseline).
    MostFrequent,
}

impl VariableHeuristic {
    /// All heuristics, for sweeps in tests and benchmarks.
    pub const ALL: [VariableHeuristic; 4] = [
        VariableHeuristic::MinLog,
        VariableHeuristic::MinMax,
        VariableHeuristic::FirstVariable,
        VariableHeuristic::MostFrequent,
    ];

    /// Short name used by the benchmark harness.
    pub fn name(self) -> &'static str {
        match self {
            VariableHeuristic::MinLog => "minlog",
            VariableHeuristic::MinMax => "minmax",
            VariableHeuristic::FirstVariable => "firstvar",
            VariableHeuristic::MostFrequent => "mostfreq",
        }
    }
}

/// Overwrites `runs` with the occurrence table of `set`: every assignment
/// of every descriptor, sorted by `(VarId, ValueIndex)`. One variable's
/// occurrences then form one contiguous run, and within it one value's
/// occurrences form a sub-run, in ascending value order.
fn fill_occurrence_runs(set: &WsSet, runs: &mut Vec<Assignment>) {
    runs.clear();
    for descriptor in set.iter() {
        runs.extend(descriptor.iter());
    }
    runs.sort_unstable();
}

/// The cost of eliminating the variable whose occurrence run is
/// `occurrences`, in a set of `set_size` descriptors; lower is better.
///
/// * minlog is the estimate of Figure 6 (base `k = 2`): an incremental
///   `log2(Σ_i 2^{s_i})` with `s_i = |S_{x→i} ∪ T|` over the occurring
///   alternatives `i` in value order, started at `|T|` when some
///   alternative does not occur (`T` is then translated once);
/// * minmax is `max_i |S_{x→i} ∪ T|`;
/// * most-frequent negates the occurrence count, and first-variable scores
///   every variable alike, so the smallest [`VarId`] wins the tie.
fn score(
    heuristic: VariableHeuristic,
    occurrences: &[Assignment],
    set_size: usize,
    table: &WorldTable,
) -> f64 {
    let tail = set_size - occurrences.len();
    let by_value = occurrences.chunk_by(|a, b| a.value == b.value);
    match heuristic {
        VariableHeuristic::FirstVariable => 0.0,
        VariableHeuristic::MostFrequent => -(occurrences.len() as f64),
        VariableHeuristic::MinMax => {
            let largest = by_value.map(<[Assignment]>::len).max().unwrap_or(0);
            (largest + tail) as f64
        }
        VariableHeuristic::MinLog => {
            let tail = tail as f64;
            let domain = occurrences
                .first()
                .and_then(|a| table.domain_size(a.var).ok())
                .unwrap_or(usize::MAX);
            let missing_assignment = by_value.clone().count() < domain;
            let mut estimate = if missing_assignment { tail } else { 0.0 };
            for count in by_value.map(<[Assignment]>::len) {
                let s_j = count as f64 + tail;
                // e := e + log2(1 + 2^(s_j - e)), the incremental log-sum-exp of
                // Figure 6, which avoids forming the potentially huge sums directly.
                estimate += (1.0 + (s_j - estimate).exp2()).log2();
            }
            estimate
        }
    }
}

/// Chooses the variable to eliminate next according to `heuristic`,
/// scoring every variable from one sorted occurrence table built in `runs`
/// (scratch space the caller keeps between steps).
///
/// Returns `None` if the ws-set mentions no variable (it is then either
/// empty or `{∅}` and the decomposition terminates). Ties are broken by the
/// smallest [`VarId`], which makes the decomposition deterministic.
pub(crate) fn choose_variable(
    set: &WsSet,
    table: &WorldTable,
    heuristic: VariableHeuristic,
    runs: &mut Vec<Assignment>,
) -> Option<VarId> {
    fill_occurrence_runs(set, runs);
    let mut best: Option<(f64, &[Assignment])> = None;
    for occurrences in runs.chunk_by(|a, b| a.var == b.var) {
        let s = score(heuristic, occurrences, set.len(), table);
        // Strict improvement wins; ties keep the earlier (smaller) VarId.
        if best.is_none_or(|(current, _)| s < current) {
            best = Some((s, occurrences));
        }
    }
    best.and_then(|(_, occurrences)| occurrences.first())
        .map(|a| a.var)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uprob_wsd::{ValueIndex, WorldTable, WsDescriptor};

    fn two_var_table() -> (WorldTable, VarId, VarId) {
        let mut w = WorldTable::new();
        let x = w.add_uniform("x", 2).unwrap();
        let y = w.add_uniform("y", 2).unwrap();
        (w, x, y)
    }

    /// The occurrence run of `var` in `set`.
    fn run_of(set: &WsSet, var: VarId) -> Vec<Assignment> {
        let mut runs = Vec::new();
        fill_occurrence_runs(set, &mut runs);
        runs.retain(|a| a.var == var);
        runs
    }

    fn choose(set: &WsSet, table: &WorldTable, heuristic: VariableHeuristic) -> Option<VarId> {
        choose_variable(set, table, heuristic, &mut Vec::new())
    }

    /// Builds the scenario of Remark 4.6: `n` descriptors; variable `x`
    /// occurs with the same assignment in `n − 1` of them, variable `y`
    /// occurs twice with different assignments (and has a third, unused
    /// alternative, so eliminating it would also translate `T` once).
    fn remark_4_6(n: usize) -> (WorldTable, WsSet, VarId, VarId) {
        let mut w = WorldTable::new();
        let x = w.add_uniform("x", 2).unwrap();
        let y = w.add_uniform("y", 3).unwrap();
        let mut descriptors = Vec::new();
        // n - 2 descriptors with x -> 0 only.
        for _ in 0..n - 2 {
            descriptors.push(WsDescriptor::from_pairs(&w, &[(x, 0)]).unwrap());
        }
        // One descriptor with x -> 0 and y -> 0, one with y -> 1 only.
        descriptors.push(WsDescriptor::from_pairs(&w, &[(x, 0), (y, 0)]).unwrap());
        descriptors.push(WsDescriptor::from_pairs(&w, &[(y, 1)]).unwrap());
        (w, WsSet::from_descriptors(descriptors), x, y)
    }

    #[test]
    fn occurrence_statistics_are_counted_per_value() {
        let (w, x, y) = two_var_table();
        let set = WsSet::from_descriptors(vec![
            WsDescriptor::from_pairs(&w, &[(x, 0)]).unwrap(),
            WsDescriptor::from_pairs(&w, &[(x, 0), (y, 1)]).unwrap(),
            WsDescriptor::from_pairs(&w, &[(y, 0)]).unwrap(),
        ]);
        let mut runs = Vec::new();
        fill_occurrence_runs(&set, &mut runs);
        let by_var: Vec<&[Assignment]> = runs.chunk_by(|a, b| a.var == b.var).collect();
        assert_eq!(by_var.len(), 2);
        assert!(by_var[0].iter().all(|a| a.var == x));
        assert_eq!(by_var[0], &[Assignment::new(x, ValueIndex(0)); 2]);
        assert_eq!(
            by_var[1],
            &[
                Assignment::new(y, ValueIndex(0)),
                Assignment::new(y, ValueIndex(1))
            ]
        );
        // MostFrequent scores the negated occurrence count.
        let score_y = score(VariableHeuristic::MostFrequent, by_var[1], set.len(), &w);
        assert_eq!(score_y, -2.0);
    }

    #[test]
    fn remark_4_6_minmax_and_minlog_disagree() {
        // minmax prefers y (estimate n − 1 < n), while minlog prefers x
        // because eliminating y would duplicate almost the whole set into
        // both branches.
        let n = 10;
        let (w, set, x, y) = remark_4_6(n);
        assert_eq!(choose(&set, &w, VariableHeuristic::MinMax), Some(y));
        assert_eq!(choose(&set, &w, VariableHeuristic::MinLog), Some(x));
    }

    #[test]
    fn minlog_estimate_matches_closed_form_on_small_inputs() {
        let (w, x, y) = two_var_table();
        let set = WsSet::from_descriptors(vec![
            WsDescriptor::from_pairs(&w, &[(x, 0)]).unwrap(),
            WsDescriptor::from_pairs(&w, &[(x, 1), (y, 0)]).unwrap(),
            WsDescriptor::from_pairs(&w, &[(y, 1)]).unwrap(),
        ]);
        let x_run = run_of(&set, x);
        // For x: T = 1, s_0 = 2, s_1 = 2, no missing assignment.
        // Figure 6 starts its running estimate at e = 0, so the incremental
        // log-sum computes log2(2^0 + 2^2 + 2^2) = log2(9).
        let estimate = score(VariableHeuristic::MinLog, &x_run, set.len(), &w);
        assert!((estimate - 9.0f64.log2()).abs() < 1e-9);
        // minmax for x: max(2, 2) = 2.
        let minmax = score(VariableHeuristic::MinMax, &x_run, set.len(), &w);
        assert!((minmax - 2.0).abs() < 1e-12);
    }

    #[test]
    fn minlog_accounts_for_missing_assignments() {
        let (w, x, _) = two_var_table();
        let set = WsSet::from_descriptors(vec![
            WsDescriptor::from_pairs(&w, &[(x, 0)]).unwrap(),
            WsDescriptor::empty(),
        ]);
        // x occurs only with value 0; value 1 is missing, so T (size 1) is
        // translated once: estimate = log2(2^1 + 2^2) ≈ 2.585.
        let estimate = score(VariableHeuristic::MinLog, &run_of(&set, x), set.len(), &w);
        assert!((estimate - (2.0f64 + 4.0).log2()).abs() < 1e-9);
    }

    #[test]
    fn baseline_heuristics() {
        let (w, x, y) = two_var_table();
        let set = WsSet::from_descriptors(vec![
            WsDescriptor::from_pairs(&w, &[(y, 0)]).unwrap(),
            WsDescriptor::from_pairs(&w, &[(y, 1)]).unwrap(),
            WsDescriptor::from_pairs(&w, &[(x, 0), (y, 0)]).unwrap(),
        ]);
        assert_eq!(choose(&set, &w, VariableHeuristic::FirstVariable), Some(x));
        assert_eq!(choose(&set, &w, VariableHeuristic::MostFrequent), Some(y));
    }

    #[test]
    fn empty_and_universal_sets_have_no_variable() {
        let (w, _, _) = two_var_table();
        assert_eq!(choose(&WsSet::empty(), &w, VariableHeuristic::MinLog), None);
        assert_eq!(
            choose(&WsSet::universal(), &w, VariableHeuristic::MinLog),
            None
        );
    }

    #[test]
    fn heuristic_names_are_stable() {
        assert_eq!(VariableHeuristic::MinLog.name(), "minlog");
        assert_eq!(VariableHeuristic::MinMax.name(), "minmax");
        assert_eq!(VariableHeuristic::ALL.len(), 4);
        assert_eq!(VariableHeuristic::default(), VariableHeuristic::MinLog);
    }
}
