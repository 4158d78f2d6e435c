//! The Davis–Putnam-style decomposition of ws-sets (Section 4.1, Figure 4).
//!
//! `ComputeTree` translates a ws-set into a ws-tree by repeatedly applying
//! one of two rules:
//!
//! * **independent partitioning** — split the ws-set into connected
//!   components of the variable co-occurrence graph and combine them with a
//!   ⊗ node;
//! * **variable elimination** — choose a variable `x` (using a
//!   [`VariableHeuristic`]), split the set into the descriptors consistent
//!   with each assignment `x → i` (each unioned with the descriptors `T`
//!   not mentioning `x`) and combine the recursive translations with a
//!   ⊕ node.
//!
//! The same recursion is reused, without materialising the tree, by exact
//! confidence computation ([`mod@crate::confidence`]) and by conditioning
//! ([`crate::conditioning`]): they *fold* probability computation or
//! database rewriting over the decomposition, which is exactly the
//! `ComputeTree ∘ P` composition described in Section 4.3.

use std::sync::atomic::{AtomicU64, Ordering};

use uprob_wsd::value::Assignment;
use uprob_wsd::{
    DomainValue, NeumaierSum, ValueIndex, VarId, WorldTable, WsDescriptor, WsSet, WsdError,
};

use crate::error::CoreError;
use crate::heuristics::{choose_variable, VariableHeuristic};
use crate::stats::DecompositionStats;
use crate::wstree::WsTree;
use crate::Result;

/// Which decomposition rules are enabled.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DecompositionMethod {
    /// Independent partitioning *and* variable elimination (the paper's
    /// INDVE algorithm).
    #[default]
    IndVe,
    /// Variable elimination only (the paper's VE algorithm).
    VeOnly,
}

impl DecompositionMethod {
    /// Short name used by the benchmark harness.
    pub fn name(self) -> &'static str {
        match self {
            DecompositionMethod::IndVe => "indve",
            DecompositionMethod::VeOnly => "ve",
        }
    }
}

/// Options controlling the decomposition.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct DecompositionOptions {
    /// Which rules may be applied.
    pub method: DecompositionMethod,
    /// Variable-ordering heuristic for variable elimination.
    pub heuristic: VariableHeuristic,
    /// Optional budget on the number of decomposition nodes; exceeding it
    /// aborts with [`CoreError::BudgetExceeded`]. Used by the benchmark
    /// harness to emulate the per-run timeouts of the paper.
    pub node_budget: Option<u64>,
}

impl DecompositionOptions {
    /// INDVE with the minlog heuristic (the paper's default configuration).
    pub fn indve_minlog() -> Self {
        DecompositionOptions {
            method: DecompositionMethod::IndVe,
            heuristic: VariableHeuristic::MinLog,
            node_budget: None,
        }
    }

    /// INDVE with the minmax heuristic.
    pub fn indve_minmax() -> Self {
        DecompositionOptions {
            heuristic: VariableHeuristic::MinMax,
            ..Self::indve_minlog()
        }
    }

    /// Variable elimination only, with the minlog heuristic.
    pub fn ve_minlog() -> Self {
        DecompositionOptions {
            method: DecompositionMethod::VeOnly,
            ..Self::indve_minlog()
        }
    }

    /// Returns a copy with the given node budget.
    pub fn with_budget(mut self, budget: u64) -> Self {
        self.node_budget = Some(budget);
        self
    }
}

/// One step of the decomposition: what `ComputeTree` would do at this node.
#[derive(Clone, Debug)]
pub enum DecompositionStep {
    /// The ws-set is empty: the node is `⊥`.
    Empty,
    /// The ws-set contains the nullary descriptor: the node is the `∅` leaf.
    Universal,
    /// Independent partitioning applies: the node is a ⊗ over these parts.
    Partition(Vec<WsSet>),
    /// Variable elimination on `var`.
    Eliminate {
        /// The eliminated variable.
        var: VarId,
        /// For every value of `var` occurring in the set: the child ws-set
        /// `S_{x→i} ∪ T` (descriptors with `x → i`, the assignment removed,
        /// unioned with the descriptors not mentioning `x`).
        branches: Vec<(ValueIndex, WsSet)>,
        /// Values of `var` not occurring in the set. Their child ws-set is
        /// `T` (translated only once, as noted in Figure 4).
        missing_values: Vec<ValueIndex>,
        /// The descriptors of the input not mentioning `var`.
        tail: WsSet,
    },
}

/// Shared state of one decomposition run (node budget and statistics).
///
/// The node counter is either run-local (the sequential fold) or a shared
/// atomic that several workers of one parallel run charge together, so a
/// node budget bounds the run's **total** work no matter how many workers
/// split it (see [`crate::parallel`]).
pub(crate) struct Decomposer<'a> {
    table: &'a WorldTable,
    options: DecompositionOptions,
    pub(crate) stats: DecompositionStats,
    nodes: u64,
    shared_nodes: Option<&'a AtomicU64>,
    /// Scratch for the occurrence table of `choose_variable`, reused by
    /// every step so that choosing a variable allocates nothing.
    occurrence_runs: Vec<Assignment>,
}

impl<'a> Decomposer<'a> {
    pub(crate) fn new(table: &'a WorldTable, options: DecompositionOptions) -> Self {
        Decomposer {
            table,
            options,
            stats: DecompositionStats::default(),
            nodes: 0,
            shared_nodes: None,
            occurrence_runs: Vec::new(),
        }
    }

    /// A decomposer charging decomposition nodes against `shared_nodes`,
    /// the counter all workers of one parallel run have in common.
    pub(crate) fn with_shared_nodes(
        table: &'a WorldTable,
        options: DecompositionOptions,
        shared_nodes: &'a AtomicU64,
    ) -> Self {
        Decomposer {
            shared_nodes: Some(shared_nodes),
            ..Decomposer::new(table, options)
        }
    }

    pub(crate) fn table(&self) -> &'a WorldTable {
        self.table
    }

    fn charge_node(&mut self) -> Result<()> {
        match self.shared_nodes {
            Some(shared) => charge_shared_nodes(shared, 1, self.options.node_budget),
            None => {
                self.nodes += 1;
                within_budget(self.nodes, self.options.node_budget)
            }
        }
    }

    /// Decides what `ComputeTree` does with `set` at recursion depth
    /// `depth`, updating the statistics.
    pub(crate) fn step(&mut self, set: &WsSet, depth: u64) -> Result<DecompositionStep> {
        self.charge_node()?;
        self.stats.max_depth = self.stats.max_depth.max(depth);
        if set.is_empty() {
            self.stats.bottoms += 1;
            return Ok(DecompositionStep::Empty);
        }
        if set.contains_universal() {
            self.stats.leaves += 1;
            return Ok(DecompositionStep::Universal);
        }
        if self.options.method == DecompositionMethod::IndVe {
            if let Some(parts) = set.independent_split() {
                self.stats.independent_nodes += 1;
                return Ok(DecompositionStep::Partition(parts));
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "the empty and universal cases return earlier in this function"
        )]
        let var = choose_variable(
            set,
            self.table,
            self.options.heuristic,
            &mut self.occurrence_runs,
        )
        .expect("a non-empty, non-universal ws-set mentions at least one variable");
        self.stats.choice_nodes += 1;
        self.stats.variable_eliminations += 1;
        let (branches, missing_values, tail) = eliminate_variable(set, var, self.table)?;
        self.stats.branches += branches.len() as u64;
        Ok(DecompositionStep::Eliminate {
            var,
            branches,
            missing_values,
            tail,
        })
    }

    /// The probability of the one-descriptor set `{d}` met at recursion
    /// depth `depth`, in closed form: what the fold over `step` computes
    /// for it, with the same node charges and counters (DESIGN.md,
    /// "Closed-form leaves").
    ///
    /// Under `step`, `{d}` is a chain of one-branch ⊕ nodes over `d`'s
    /// assignments in [`VarId`] order (every heuristic ties on a singleton
    /// and picks the smallest variable) ending in the `∅` leaf, and each
    /// node's one-term Neumaier sum is its term exactly. So the walk is the
    /// right-nested product `w₁·(w₂·(…·(w_k·1.0)))`, and it stops with `+0.0`
    /// at the first zero weight, whose branch it never visits. The charges
    /// and the zero check walk forwards; the product walks backwards, so no
    /// scratch buffer holds the weights in between.
    pub(crate) fn descriptor_probability(&mut self, d: &WsDescriptor, depth: u64) -> Result<f64> {
        for (level, a) in (depth..).zip(d.iter()) {
            self.charge_node()?;
            self.stats.choice_nodes += 1;
            self.stats.variable_eliminations += 1;
            self.stats.branches += 1;
            let weight = self.table.probability(a.var, a.value)?;
            if weight == 0.0 {
                self.stats.max_depth = self.stats.max_depth.max(level);
                return Ok(0.0);
            }
        }
        self.charge_node()?;
        self.stats.leaves += 1;
        self.stats.max_depth = self.stats.max_depth.max(depth + d.len() as u64);
        d.iter()
            .rev()
            .try_fold(1.0, |p, a| Ok(self.table.probability(a.var, a.value)? * p))
    }
}

/// The budget check of every decomposition-node charge — the one place
/// [`CoreError::BudgetExceeded`] is raised.
pub(crate) fn within_budget(total: u64, budget: Option<u64>) -> Result<()> {
    match budget {
        Some(budget) if total > budget => Err(CoreError::BudgetExceeded { budget }),
        _ => Ok(()),
    }
}

/// Adds `amount` decomposition nodes to the counter all workers of one run
/// share, erroring when the budget is exceeded: the budget bounds the run's
/// **total** work, independent of the worker count.
pub(crate) fn charge_shared_nodes(
    nodes: &AtomicU64,
    amount: u64,
    budget: Option<u64>,
) -> Result<()> {
    let total = nodes
        .fetch_add(amount, Ordering::Relaxed)
        .saturating_add(amount);
    within_budget(total, budget)
}

/// The ⊕ terms of a [`DecompositionStep::Eliminate`] step, handed to `term`
/// as `(weight, child)` in canonical order: every occurring value with a
/// non-zero weight, in value order, then — when `var` has missing values
/// and `T` is non-empty — `T` once, weighted by the compensated sum of the
/// missing values' weights if that is positive. Figure 7 sums exactly this
/// list; the sequential fold and the parallel top split both take it from
/// here.
///
/// `#[inline]`: the sequential fold runs this once per ⊕ node at ~0.5 µs a
/// node; left as an out-of-line call it read ~2 % lower `ops_s` on the
/// benchmark's `hard_confidence` workload.
#[inline]
pub(crate) fn for_each_choice_term(
    table: &WorldTable,
    var: VarId,
    branches: Vec<(ValueIndex, WsSet)>,
    missing_values: &[ValueIndex],
    tail: WsSet,
    mut term: impl FnMut(f64, WsSet) -> Result<()>,
) -> Result<()> {
    for (value, child) in branches {
        let weight = table.probability(var, value)?;
        if weight == 0.0 {
            continue;
        }
        term(weight, child)?;
    }
    // Alternatives of `var` not occurring in the set only contribute
    // through the tail T, whose probability is computed once.
    if !missing_values.is_empty() && !tail.is_empty() {
        let mut missing_weight = NeumaierSum::new();
        for value in missing_values {
            missing_weight.add(table.probability(var, *value)?);
        }
        let missing_weight = missing_weight.value();
        if missing_weight > 0.0 {
            term(missing_weight, tail)?;
        }
    }
    Ok(())
}

/// The parts of a [`DecompositionStep::Eliminate`]: branches, missing
/// values and tail.
type Elimination = (Vec<(ValueIndex, WsSet)>, Vec<ValueIndex>, WsSet);

/// Splits `set` by the assignments of `var` (the variable-elimination rule
/// of Figure 4). Returns the child ws-set for every occurring value
/// (`S_{x→i} ∪ T`, with the `x → i` assignment stripped), the values of
/// `var` that do not occur, and the tail `T`.
///
/// # Errors
///
/// A descriptor built against another world table may mention a variable
/// or value this table does not have: that is a [`CoreError::Wsd`] error.
pub(crate) fn eliminate_variable(
    set: &WsSet,
    var: VarId,
    table: &WorldTable,
) -> Result<Elimination> {
    let domain_size = table.domain_size(var)?;
    let mut tail = WsSet::empty();
    // Children indexed by value; only materialised for occurring values.
    let mut by_value: Vec<Option<WsSet>> = vec![None; domain_size];
    for descriptor in set.iter() {
        match descriptor.get(var) {
            None => tail.push(descriptor.clone()),
            Some(value) => by_value
                .get_mut(value.index())
                .ok_or(WsdError::UnknownValue {
                    var,
                    value: value.index() as DomainValue,
                })?
                .get_or_insert_with(WsSet::empty)
                .push(descriptor.without(var)),
        }
    }
    let mut branches = Vec::new();
    let mut missing_values = Vec::new();
    for (index, slot) in by_value.into_iter().enumerate() {
        let value = ValueIndex(index as u16);
        match slot {
            Some(mut child) => {
                for d in tail.iter() {
                    child.push(d.clone());
                }
                branches.push((value, child));
            }
            None => missing_values.push(value),
        }
    }
    Ok((branches, missing_values, tail))
}

/// Materialises the ws-tree of `ComputeTree(set)` (Figure 4).
///
/// Exact confidence computation and conditioning do **not** need the
/// materialised tree (they fold over the same recursion); this function is
/// useful for inspection, testing and the knowledge-compilation examples.
///
/// # Errors
///
/// Returns [`CoreError::BudgetExceeded`] if a node budget is configured and
/// exhausted.
pub fn build_tree(
    set: &WsSet,
    table: &WorldTable,
    options: &DecompositionOptions,
) -> Result<(WsTree, DecompositionStats)> {
    let mut decomposer = Decomposer::new(table, *options);
    let tree = build_rec(set, &mut decomposer, 1)?;
    Ok((tree, decomposer.stats))
}

fn build_rec(set: &WsSet, decomposer: &mut Decomposer<'_>, depth: u64) -> Result<WsTree> {
    match decomposer.step(set, depth)? {
        DecompositionStep::Empty => Ok(WsTree::Bottom),
        DecompositionStep::Universal => Ok(WsTree::Leaf),
        DecompositionStep::Partition(parts) => {
            let children = parts
                .iter()
                .map(|part| build_rec(part, decomposer, depth + 1))
                .collect::<Result<Vec<_>>>()?;
            Ok(WsTree::Independent(children))
        }
        DecompositionStep::Eliminate {
            var,
            branches,
            missing_values,
            tail,
        } => {
            let mut tree_branches = Vec::with_capacity(branches.len() + missing_values.len());
            for (value, child_set) in &branches {
                let child = build_rec(child_set, decomposer, depth + 1)?;
                tree_branches.push((*value, child));
            }
            // Branches for values that do not occur in the set: their child
            // is the translation of T, computed once and shared (cloned).
            if !missing_values.is_empty() && !tail.is_empty() {
                let tail_tree = build_rec(&tail, decomposer, depth + 1)?;
                for value in missing_values {
                    tree_branches.push((value, tail_tree.clone()));
                }
            }
            Ok(WsTree::Choice {
                var,
                branches: tree_branches,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uprob_wsd::WsDescriptor;

    /// The world table and ws-set S of Figure 3.
    fn figure3() -> (WorldTable, [VarId; 5], WsSet) {
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
        (w, [x, y, z, u, v], s)
    }

    #[test]
    fn eliminate_variable_splits_by_value() {
        let (w, [x, ..], s) = figure3();
        let (branches, missing, tail) = eliminate_variable(&s, x, &w).unwrap();
        // x occurs with values 1 and 2; value 3 is missing.
        assert_eq!(branches.len(), 2);
        assert_eq!(missing, vec![ValueIndex(2)]);
        // T consists of the two descriptors over u and v.
        assert_eq!(tail.len(), 2);
        // Branch x -> 1 contains the nullary descriptor plus T.
        let b1 = &branches[0].1;
        assert_eq!(b1.len(), 3);
        assert!(b1.contains_universal());
        // Branch x -> 2 contains {y -> 1}, {z -> 1} plus T.
        let b2 = &branches[1].1;
        assert_eq!(b2.len(), 4);
        assert!(!b2.contains_universal());
    }

    #[test]
    fn indve_uses_independent_partitioning_on_figure3() {
        let (w, _, s) = figure3();
        let (tree, stats) = build_tree(&s, &w, &DecompositionOptions::indve_minlog()).unwrap();
        assert!(stats.independent_nodes >= 1);
        assert!(matches!(tree, WsTree::Independent(_)));
        // VE-only never creates ⊗ nodes.
        let (_, ve_stats) = build_tree(&s, &w, &DecompositionOptions::ve_minlog()).unwrap();
        assert_eq!(ve_stats.independent_nodes, 0);
    }

    #[test]
    fn empty_and_universal_sets() {
        let (w, _, _) = figure3();
        let options = DecompositionOptions::default();
        let (tree, stats) = build_tree(&WsSet::empty(), &w, &options).unwrap();
        assert_eq!(tree, WsTree::Bottom);
        assert_eq!(stats.bottoms, 1);
        let (tree, stats) = build_tree(&WsSet::universal(), &w, &options).unwrap();
        assert_eq!(tree, WsTree::Leaf);
        assert_eq!(stats.leaves, 1);
    }

    #[test]
    fn node_budget_aborts_large_decompositions() {
        let (w, _, s) = figure3();
        let options = DecompositionOptions::indve_minlog().with_budget(2);
        let err = build_tree(&s, &w, &options).unwrap_err();
        assert!(matches!(err, CoreError::BudgetExceeded { budget: 2 }));
    }

    #[test]
    fn choice_terms_come_in_canonical_order() {
        // x: value 0 has probability zero, values 3 and 4 never occur.
        let mut w = WorldTable::new();
        let x = w
            .add_variable("x", &[(1, 0.0), (2, 0.25), (3, 0.25), (4, 0.2), (5, 0.3)])
            .unwrap();
        let y = w.add_uniform("y", 2).unwrap();
        let tail_descriptor = WsDescriptor::from_pairs(&w, &[(y, 0)]).unwrap();
        let with_tail = WsSet::from_descriptors(vec![
            WsDescriptor::from_pairs(&w, &[(x, 1), (y, 1)]).unwrap(),
            WsDescriptor::from_pairs(&w, &[(x, 2)]).unwrap(),
            WsDescriptor::from_pairs(&w, &[(x, 3), (y, 1)]).unwrap(),
            tail_descriptor.clone(),
        ]);
        let terms = |set: &WsSet, table: &WorldTable| {
            let (branches, missing, tail) = eliminate_variable(set, x, table).unwrap();
            let mut out: Vec<(f64, WsSet)> = Vec::new();
            for_each_choice_term(table, x, branches, &missing, tail, |weight, child| {
                out.push((weight, child));
                Ok(())
            })
            .unwrap();
            out
        };

        // The zero-weight value is skipped, occurring values come in value
        // order, and T comes last, once, with the summed missing weight.
        let got = terms(&with_tail, &w);
        let weights: Vec<f64> = got.iter().map(|(weight, _)| *weight).collect();
        assert_eq!(weights, vec![0.25, 0.25, 0.2 + 0.3]);
        assert!(
            got[0].1.contains_universal(),
            "x -> 2 child holds the nullary descriptor"
        );
        assert_eq!(got[1].1.len(), 2, "x -> 3 child is {{y -> 1}} ∪ T");
        assert_eq!(got[2].1, WsSet::from_descriptors(vec![tail_descriptor]));

        // Empty T: the missing values contribute no term.
        let no_tail: WsSet = with_tail.iter().take(3).cloned().collect();
        let weights: Vec<f64> = terms(&no_tail, &w).iter().map(|(w, _)| *w).collect();
        assert_eq!(weights, vec![0.25, 0.25]);

        // Missing values of total weight zero: no term for T either.
        let mut zero = WorldTable::new();
        let x0 = zero
            .add_variable("x", &[(1, 0.0), (2, 0.5), (3, 0.5), (4, 0.0), (5, 0.0)])
            .unwrap();
        zero.add_uniform("y", 2).unwrap();
        assert_eq!(x0, x);
        let weights: Vec<f64> = terms(&with_tail, &zero).iter().map(|(w, _)| *w).collect();
        assert_eq!(weights, vec![0.5, 0.5]);
    }

    #[test]
    fn method_names() {
        assert_eq!(DecompositionMethod::IndVe.name(), "indve");
        assert_eq!(DecompositionMethod::VeOnly.name(), "ve");
    }
}
