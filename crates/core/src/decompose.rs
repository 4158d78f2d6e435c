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
//! This module holds the one walk of that recursion, a private `Fold` of
//! an *algebra* over `Decomposer::step` that keeps every open node as a
//! frame on a heap stack, so a decomposition as deep as its input never
//! touches the thread's stack (DESIGN.md, "One fold"). Exact confidence
//! ([`mod@crate::confidence`], Figure 7, also the jobs and the frontier of
//! [`crate::parallel`]) and conditioning ([`crate::conditioning`],
//! Figure 8) are its two algebras; neither materialises the ws-tree, which
//! is the `ComputeTree ∘ P` composition described in Section 4.3. The tree
//! itself, with its semantics, is the oracle `uprob_reference::wstree`.

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};

use uprob_wsd::value::Assignment;
use uprob_wsd::{DomainValue, ValueIndex, VarId, WorldTable, WsDescriptor, WsSet, WsdError};

use crate::cache::PendingEntry;
use crate::error::CoreError;
use crate::heuristics::{choose_variable, VariableHeuristic};
use crate::stats::DecompositionStats;
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
#[cfg_attr(test, derive(Debug, PartialEq))]
pub(crate) enum DecompositionStep {
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

/// The parts of a [`DecompositionStep::Eliminate`]: branches, missing
/// values and tail.
pub(crate) type Elimination = (Vec<(ValueIndex, WsSet)>, Vec<ValueIndex>, WsSet);

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

/// What the hooks before a step found: the value of a sub-set settled
/// without a step, or the memo entry (if any) its value is owed to.
pub(crate) type Memo<V> = std::result::Result<V, Option<PendingEntry>>;

/// The next child an open node lists: the tag it gets its value back with,
/// and its sub-set.
pub(crate) type Child<'n, T> = Option<(T, Cow<'n, WsSet>)>;

/// A fold over the decomposition (DESIGN.md, "One fold"): the leaf values,
/// how an open ⊗ or ⊕ node lists its children and combines their values,
/// and the hooks [`Fold`] calls on a sub-set before stepping it. Figure 7's
/// probability and Figure 8's conditioning are its instances.
pub(crate) trait Algebra {
    /// What the fold computes for one sub-set.
    type Value;
    /// What an open node says about a child it lists and gets back with the
    /// child's value: a ⊕ branch's weight or value, say.
    type Tag: Copy;
    /// An open ⊗ or ⊕ node: its children not yet listed and its partial
    /// accumulator.
    type Node;

    /// The closed-form leaf and the memo probe, called on every sub-set
    /// before its step: a value (with the charges the steps would have
    /// made), or the memo entry owed the value the steps compute.
    fn probe(&mut self, _: &WsSet, _: u64, _: &mut Decomposer<'_>) -> Result<Memo<Self::Value>> {
        Ok(Err(None))
    }

    /// Publishes `value` under the memo entry `probe` returned.
    fn insert(&mut self, _entry: PendingEntry, _value: &Self::Value) {}

    /// The value of the `∅` leaf if `universal`, else of `⊥`.
    fn leaf(&mut self, universal: bool) -> Self::Value;

    /// Opens a ⊗ node over `parts`.
    fn partition(&mut self, parts: Vec<WsSet>) -> Result<Self::Node>;

    /// Opens a ⊕ node on `var` ([`DecompositionStep::Eliminate`]'s fields).
    fn eliminate(&mut self, var: VarId, elimination: Elimination) -> Result<Self::Node>;

    /// The next child of `node`, in the order [`Algebra::absorb`] combines
    /// the values, or `None` once every child has been listed.
    fn next_child<'n>(&mut self, node: &'n mut Self::Node) -> Result<Child<'n, Self::Tag>>;

    /// Combines the value of the child listed with `tag` into `node`.
    fn absorb(&mut self, node: &mut Self::Node, tag: Self::Tag, value: Self::Value);

    /// The value of `node` once every child has been absorbed.
    fn close(&mut self, node: Self::Node) -> Self::Value;
}

/// An open node of a fold: its depth, the algebra's node and the memo entry
/// its value is owed to.
pub(crate) struct Frame<A: Algebra> {
    depth: u64,
    pub(crate) node: A::Node,
    entry: Option<PendingEntry>,
}

/// What visiting a sub-set produced: its value, or an open node.
pub(crate) enum Visit<A: Algebra> {
    Done(A::Value),
    Open(Frame<A>),
}

/// The one walk of Figure 4: folds an [`Algebra`] over [`Decomposer::step`]
/// depth first, with every open node a [`Frame`] on a stack on the heap, so
/// the depth of a decomposition is bounded by memory, not by the thread's
/// stack.
pub(crate) struct Fold<'a, A> {
    pub(crate) decomposer: Decomposer<'a>,
    pub(crate) algebra: A,
}

impl<'a, A: Algebra> Fold<'a, A> {
    pub(crate) fn new(decomposer: Decomposer<'a>, algebra: A) -> Self {
        Fold {
            decomposer,
            algebra,
        }
    }

    /// Visits `set` at recursion depth `depth`: the hooks, then one step. A
    /// leaf is done on the spot; a ⊗ or ⊕ opens a frame.
    pub(crate) fn visit(&mut self, set: &WsSet, depth: u64) -> Result<Visit<A>> {
        let entry = match self.algebra.probe(set, depth, &mut self.decomposer)? {
            Ok(value) => return Ok(Visit::Done(value)),
            Err(entry) => entry,
        };
        let node = match self.decomposer.step(set, depth)? {
            DecompositionStep::Partition(parts) => self.algebra.partition(parts)?,
            DecompositionStep::Eliminate {
                var,
                branches,
                missing_values,
                tail,
            } => (self.algebra).eliminate(var, (branches, missing_values, tail))?,
            step => {
                let leaf = self
                    .algebra
                    .leaf(matches!(step, DecompositionStep::Universal));
                return Ok(Visit::Done(self.settle(leaf, entry)));
            }
        };
        Ok(Visit::Open(Frame { depth, node, entry }))
    }

    /// `value`, published under the memo entry it is owed to.
    fn settle(&mut self, value: A::Value, entry: Option<PendingEntry>) -> A::Value {
        if let Some(entry) = entry {
            self.algebra.insert(entry, &value);
        }
        value
    }

    /// The value of `frame` once every child has been absorbed.
    pub(crate) fn close(&mut self, frame: Frame<A>) -> A::Value {
        let value = self.algebra.close(frame.node);
        self.settle(value, frame.entry)
    }

    /// The value of `set` at recursion depth `depth`. Every open node below
    /// the root is a frame on one heap stack, with the tag its parent listed
    /// it with; a child is visited when its parent lists it, and a closed
    /// frame's value goes to its parent.
    pub(crate) fn run(&mut self, set: &WsSet, depth: u64) -> Result<A::Value> {
        let mut root = match self.visit(set, depth)? {
            Visit::Done(value) => return Ok(value),
            Visit::Open(frame) => frame,
        };
        let mut stack: Vec<(A::Tag, Frame<A>)> = Vec::new();
        loop {
            let top = stack.last_mut().map_or(&mut root, |(_, frame)| frame);
            let Some((tag, child)) = self.algebra.next_child(&mut top.node)? else {
                let Some((tag, frame)) = stack.pop() else {
                    return Ok(self.close(root));
                };
                let value = self.close(frame);
                let parent = stack.last_mut().map_or(&mut root, |(_, frame)| frame);
                self.algebra.absorb(&mut parent.node, tag, value);
                continue;
            };
            let visited = self.visit(&child, top.depth + 1);
            drop(child);
            match visited? {
                Visit::Done(value) => self.algebra.absorb(&mut top.node, tag, value),
                Visit::Open(frame) => stack.push((tag, frame)),
            }
        }
    }
}

/// The closure form of the ⊕ terms that the test-only step walk folds with.
#[cfg(test)]
pub(crate) use tests::for_each_choice_term;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::confidence::{confidence, Probability};
    use uprob_wsd::WsDescriptor;

    impl<'a> Decomposer<'a> {
        /// The world table, for the conditioning oracle (every algebra of
        /// the product holds its own).
        pub(crate) fn table(&self) -> &'a WorldTable {
            self.table
        }
    }

    /// The ⊕ terms of an elimination, handed to `term` as `(weight, child)`
    /// in the order the probability algebra lists them.
    pub(crate) fn for_each_choice_term(
        table: &WorldTable,
        var: VarId,
        branches: Vec<(ValueIndex, WsSet)>,
        missing_values: &[ValueIndex],
        tail: WsSet,
        mut term: impl FnMut(f64, WsSet) -> Result<()>,
    ) -> Result<()> {
        let mut algebra = Probability { table, cache: None };
        let mut node = algebra.eliminate(var, (branches, missing_values.to_vec(), tail))?;
        while let Some((weight, child)) = algebra.next_child(&mut node)? {
            term(weight, child.into_owned())?;
        }
        Ok(())
    }

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
        let options = DecompositionOptions::indve_minlog();
        let stats = confidence(&s, &w, &options).unwrap().stats;
        assert!(stats.independent_nodes >= 1);
        let root = Decomposer::new(&w, options).step(&s, 1).unwrap();
        assert!(matches!(root, DecompositionStep::Partition(_)));
        // VE-only never creates ⊗ nodes.
        let ve_stats = confidence(&s, &w, &DecompositionOptions::ve_minlog())
            .unwrap()
            .stats;
        assert_eq!(ve_stats.independent_nodes, 0);
    }

    #[test]
    fn empty_and_universal_sets() {
        let (w, _, _) = figure3();
        let options = DecompositionOptions::default();
        let empty = confidence(&WsSet::empty(), &w, &options).unwrap();
        assert_eq!(empty.probability, 0.0);
        assert_eq!(empty.stats.bottoms, 1);
        let universal = confidence(&WsSet::universal(), &w, &options).unwrap();
        assert_eq!(universal.probability, 1.0);
        assert_eq!(universal.stats.leaves, 1);
    }

    #[test]
    fn node_budget_aborts_large_decompositions() {
        let (w, _, s) = figure3();
        let options = DecompositionOptions::indve_minlog().with_budget(2);
        let err = confidence(&s, &w, &options).unwrap_err();
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
