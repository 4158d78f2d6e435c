//! Conditioning a probabilistic database (Section 5, Figure 8).
//!
//! `assert[B]` removes all possible worlds in which the condition `B` does
//! not hold and renormalises the remaining worlds so their probabilities sum
//! to one, *without* enumerating worlds: the algorithm is a second algebra
//! of the one fold over the Davis–Putnam-style decomposition that computes
//! confidence ([`crate::decompose`]), and as each ⊕ frame closes it
//! introduces a fresh re-weighted variable for the eliminated variable and
//! rewrites the ws-descriptors of the U-relations accordingly. That rewrite
//! depends on the condition alone, so the fold carries no rows: it returns
//! the leaves of the condition's ws-tree, and [`condition`] joins every row
//! against them in one pass
//! (DESIGN.md, "Conditioning: rewrite the tree, then join the rows"; the
//! literal row-threading recursion is the test-only oracle `reference`).
//!
//! The decomposition uses variable elimination only, so the produced
//! database represents exactly the Bayesian posterior (tested against
//! brute-force enumeration). Figure 8 also has a ⊗-node rule, which
//! conditions each independent part of a condition on its own; it does not
//! preserve tuple marginals when the condition is a disjunction of
//! independent parts and tuples depend on more than one part (DESIGN.md,
//! "The ⊗-rule marginals caveat"), so only the oracle implements it. On
//! conditions without a ⊗ node — Example 5.1's among them — the two agree.
//!
//! Conditioning deliberately bypasses the shared decomposition cache of
//! [`crate::cache`]: its fold allocates fresh variables in visit order, so
//! its sub-results are not pure functions of the sub-ws-set (DESIGN.md,
//! "What is not cached").

use std::borrow::Cow;
use std::collections::BTreeSet;

use uprob_urel::{ProbDb, Tuple, URelation};
use uprob_wsd::value::Assignment;
use uprob_wsd::{
    DomainValue, FxHashMap, NeumaierSum, ValueIndex, VarId, VariableInfo, WorldTable, WsDescriptor,
    WsSet, WsdError,
};

use crate::decompose::{
    Algebra, Child, Decomposer, DecompositionMethod, DecompositionOptions, Elimination, Fold,
};
use crate::error::CoreError;
use crate::heuristics::VariableHeuristic;
use crate::stats::DecompositionStats;
use crate::Result;

/// Options controlling [`condition`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ConditioningOptions {
    /// Variable-ordering heuristic used when eliminating variables.
    pub heuristic: VariableHeuristic,
    /// Apply the three simplification optimisations of Section 5
    /// (merge equivalent fresh variables, drop single-alternative variables,
    /// drop variables unused by the U-relations).
    pub simplify: bool,
    /// Optional budget on the number of decomposition nodes.
    pub node_budget: Option<u64>,
}

impl Default for ConditioningOptions {
    fn default() -> Self {
        ConditioningOptions {
            heuristic: VariableHeuristic::MinLog,
            simplify: true,
            node_budget: None,
        }
    }
}

/// The result of conditioning a database.
#[derive(Clone, Debug)]
pub struct Conditioned {
    /// The conditioned (posterior) database.
    pub db: ProbDb,
    /// The confidence of the condition in the *input* database; in the
    /// output database the condition holds with probability 1.
    pub confidence: f64,
    /// Decomposition counters.
    pub stats: DecompositionStats,
    /// Number of fresh variables introduced (before simplification).
    pub new_variables: usize,
    /// Prior variables eliminated by the conditioning fold (sorted,
    /// deduplicated, in prior [`VarId`]s). Any ws-set mentioning one of
    /// these changed meaning under the posterior measure; cached entries
    /// over them must be dropped.
    pub touched_variables: Vec<VarId>,
    /// Prior → posterior [`VarId`] remap for the *untouched* prior
    /// variables that survive in the posterior world table. Simplification
    /// renumbers variables ([`WorldTable::retain_variables`] assigns dense
    /// ids in registration order), but copies each surviving variable's
    /// name, domain and distribution verbatim and preserves relative id
    /// order — exactly the properties that make cross-snapshot cache
    /// inheritance bit-sound (see `uprob-core::cache::inherit`). Touched
    /// variables are never included, even when they physically survive.
    pub prior_remap: FxHashMap<VarId, VarId>,
}

/// One `∅` leaf of the condition's ws-tree, as a row sees it: Figure 8
/// turns a descriptor `d` that is consistent with `path` into
/// `(d ∖ vars(path)) ∪ fresh`, once per leaf, in DFS order.
#[derive(Default)]
struct Leaf {
    /// The `var → value` choices of the leaf's ⊕ ancestors (sorted by
    /// variable once the fold has returned).
    path: Vec<Assignment>,
    /// `var' → new index` for the same ancestors. Fresh variables are
    /// created on the way back up, so pushing them leaf-to-root keeps this
    /// ascending.
    fresh: Vec<Assignment>,
}

impl Leaf {
    /// Writes the rewrite of `d` under this leaf into `out`, leaving out the
    /// variables that `simplified` drops. Returns false (with `out` in an
    /// unspecified state) if `d` contradicts the path.
    fn rewrite_into(
        &self,
        d: &WsDescriptor,
        simplified: &[Option<VarId>],
        out: &mut Vec<Assignment>,
    ) -> bool {
        out.clear();
        for a in d.iter() {
            let choice = self
                .path
                .binary_search_by_key(&a.var, |p| p.var)
                .ok()
                .and_then(|at| self.path.get(at));
            match choice {
                Some(p) if p.value != a.value => return false,
                // An eliminated variable: `fresh` carries its replacement.
                Some(_) => {}
                None => out.extend(simplified_assignment(simplified, a)),
            }
        }
        out.extend_from_slice(&self.fresh);
        true
    }
}

/// `a` as the simplification table (see [`simplified_variables`]) leaves it.
fn simplified_assignment(simplified: &[Option<VarId>], a: Assignment) -> Option<Assignment> {
    let var = simplified.get(a.var.index()).copied().flatten()?;
    Some(Assignment::new(var, a.value))
}

/// A re-weighted copy `var'` of an eliminated variable, not yet registered
/// in any world table.
struct FreshVariable {
    source: VarId,
    name: String,
    alternatives: Vec<(DomainValue, f64)>,
}

/// Figure 8's `cond` as an algebra over the decomposition, with the
/// U-relations factored out: the value of a sub-condition is its confidence
/// plus the leaves that say how any descriptor is rewritten.
struct Conditioner<'a> {
    table: &'a WorldTable,
    /// The fresh variables in creation order: the `i`-th one will get the
    /// id `prior variables + i`.
    fresh: Vec<FreshVariable>,
    /// Their names, which later fresh names must avoid as well.
    fresh_names: BTreeSet<String>,
    /// Per source variable, the position in `fresh` of its latest copy.
    last_fresh: FxHashMap<VarId, usize>,
}

/// An open ⊕ node of the condition: one child per value of the eliminated
/// `var` with a non-zero weight and a non-empty sub-condition, in value
/// order; every missing value conditions `T` again.
struct Choice<'a> {
    var: VarId,
    source: VariableInfo<'a>,
    /// The children not yet listed: value, weight and sub-condition
    /// (`None`: `T`).
    children: std::vec::IntoIter<(ValueIndex, f64, Option<WsSet>)>,
    /// `T`, lent to the child of every missing value in turn.
    tail: WsSet,
    total: NeumaierSum,
    /// The branches whose sub-condition has positive confidence: value,
    /// `weight · confidence` and leaves.
    results: Vec<(ValueIndex, f64, Vec<Leaf>)>,
}

impl<'a> Algebra for Conditioner<'a> {
    type Value = (f64, Vec<Leaf>);
    /// The value of `var` a child conditions, and its prior weight.
    type Tag = (ValueIndex, f64);
    type Node = Choice<'a>;

    fn leaf(&mut self, universal: bool) -> Self::Value {
        match universal {
            true => (1.0, vec![Leaf::default()]),
            false => (0.0, Vec::new()),
        }
    }

    #[expect(
        clippy::unreachable,
        reason = "`condition` decomposes VE-only, and a VE-only step never partitions"
    )]
    fn partition(&mut self, _parts: Vec<WsSet>) -> Result<Choice<'a>> {
        unreachable!("VE-only decomposition partitioned")
    }

    fn eliminate(&mut self, var: VarId, elimination: Elimination) -> Result<Choice<'a>> {
        let (branches, _, tail) = elimination;
        let source = self.table.variable(var)?;
        let mut branches = branches.into_iter().peekable();
        let mut children = Vec::new();
        for (index, &weight) in source.probabilities.iter().enumerate() {
            let value = ValueIndex(index as u16);
            let child = branches.next_if(|(v, _)| *v == value).map(|(_, set)| set);
            // A zero-probability alternative contributes nothing: skip it
            // before conditioning its branch, as the confidence fold does.
            if (child.is_some() || !tail.is_empty()) && weight != 0.0 {
                children.push((value, weight, child));
            }
        }
        Ok(Choice {
            var,
            source,
            children: children.into_iter(),
            tail,
            total: NeumaierSum::new(),
            results: Vec::new(),
        })
    }

    fn next_child<'n>(&mut self, node: &'n mut Choice<'a>) -> Result<Child<'n, Self::Tag>> {
        Ok(node.children.next().map(|(value, weight, child)| {
            let child = child.map_or(Cow::Borrowed(&node.tail), Cow::Owned);
            ((value, weight), child)
        }))
    }

    fn absorb(&mut self, node: &mut Choice<'a>, tag: Self::Tag, child: Self::Value) {
        let ((value, weight), (confidence, leaves)) = (tag, child);
        if confidence > 0.0 {
            node.total.add(weight * confidence);
            node.results.push((value, weight * confidence, leaves));
        }
    }

    /// Figure 8, ⊕ case, on the way back up: renormalise the branch weights
    /// with a fresh variable and extend the leaves of the surviving
    /// branches.
    fn close(&mut self, node: Choice<'a>) -> Self::Value {
        let Choice {
            var,
            source,
            total,
            results,
            ..
        } = node;
        let table = self.table;
        let total = total.value();
        if total <= 0.0 {
            return (0.0, Vec::new());
        }
        // Fresh variable var' whose alternatives are the surviving values of
        // `var`, re-weighted so that they sum to one within this node. A
        // taken name stays taken, so the search for this source's next
        // `x'…'` resumes from its last one instead of from `x'`.
        let last = self.last_fresh.get(&var).and_then(|&at| self.fresh.get(at));
        let mut name = match last {
            Some(last) => format!("{}'", last.name),
            None => table.fresh_name(source.name),
        };
        while self.fresh_names.contains(&name) || table.variable_by_name(&name).is_some() {
            name.push('\'');
        }
        let alternatives: Vec<(DomainValue, f64)> = results
            .iter()
            .map(|(value, mass, _)| {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "surviving branch values come from this variable's domain"
                )]
                let label = source.values[value.index()];
                (label, mass / total)
            })
            .collect();
        let fresh = VarId((table.num_variables() + self.fresh.len()) as u32);
        self.fresh_names.insert(name.clone());
        self.last_fresh.insert(var, self.fresh.len());
        self.fresh.push(FreshVariable {
            source: var,
            name,
            alternatives,
        });
        // Rewrite: replace `var -> old value` by `var' -> new index`.
        let mut merged = Vec::new();
        for (new_index, (value, _, leaves)) in results.into_iter().enumerate() {
            for mut leaf in leaves {
                leaf.path.push(Assignment::new(var, value));
                leaf.fresh
                    .push(Assignment::new(fresh, ValueIndex(new_index as u16)));
                merged.push(leaf);
            }
        }
        (total, merged)
    }
}

/// Conditions `db` on the world-set described by `condition` (the ws-set of
/// the worlds that satisfy the asserted Boolean query).
///
/// Returns the posterior database, the confidence of the condition in the
/// input database and decomposition statistics.
///
/// The rewrite of Figure 8 is a function of the condition alone, so the
/// condition is decomposed once into its leaves and every row is then joined
/// against them (DESIGN.md, "Conditioning: rewrite the tree, then join the
/// rows"). The three simplification optimisations of Section 5 are tables
/// keyed by variable, applied while the rows are written:
///
/// 1. variables that do not appear in any U-relation are dropped from `W`;
/// 2. variables with a single domain alternative are dropped everywhere;
/// 3. fresh variables derived from the same original variable with identical
///    alternatives and weights are merged.
///
/// # Errors
///
/// * [`CoreError::EmptyCondition`] if the condition denotes an empty or
///   zero-probability world-set (the posterior is undefined);
/// * [`CoreError::BudgetExceeded`] if a node budget is configured and
///   exhausted.
pub fn condition(
    db: &ProbDb,
    condition: &WsSet,
    options: &ConditioningOptions,
) -> Result<Conditioned> {
    let table = db.world_table();
    let decomposition = DecompositionOptions {
        method: DecompositionMethod::VeOnly,
        heuristic: options.heuristic,
        node_budget: options.node_budget,
    };
    let conditioner = Conditioner {
        table,
        fresh: Vec::new(),
        fresh_names: BTreeSet::new(),
        last_fresh: FxHashMap::default(),
    };
    let mut fold = Fold::new(Decomposer::new(table, decomposition), conditioner);
    let (confidence, mut leaves) = fold.run(condition, 1)?;
    // A NaN confidence is treated like zero: a degenerate condition must
    // surface as the typed error, never as a NaN/Inf posterior.
    if confidence <= 0.0 || confidence.is_nan() {
        return Err(CoreError::EmptyCondition);
    }
    let Fold {
        decomposer,
        algebra: Conditioner { fresh, .. },
    } = fold;
    let prior_vars = table.num_variables();

    // Optimisations (2) and (3), decided per variable and applied to the
    // leaves, so that what they remove never reaches a row.
    let simplified = if options.simplify {
        simplified_variables(table, &fresh)
    } else {
        (0..(prior_vars + fresh.len()) as u32)
            .map(|v| Some(VarId(v)))
            .collect()
    };
    for leaf in &mut leaves {
        leaf.path.sort_unstable_by_key(|a| a.var);
        leaf.fresh = leaf
            .fresh
            .iter()
            .filter_map(|&a| simplified_assignment(&simplified, a))
            .collect();
        leaf.fresh.sort_unstable_by_key(|a| a.var);
    }

    // The join: every row against every leaf, in DFS order. The rewrites
    // share one buffer (with each row's length in `lens`) until the
    // posterior numbering is known; the rows hold a placeholder descriptor.
    let mut used = vec![!options.simplify; simplified.len()];
    let mut relations = Vec::with_capacity(db.num_relations());
    let mut rewritten = Vec::new();
    let mut assignments: Vec<Assignment> = Vec::new();
    let mut lens: Vec<usize> = Vec::new();
    for relation in db.relations() {
        let mut rows: Vec<(Tuple, WsDescriptor)> = Vec::with_capacity(relation.len());
        for (tuple, descriptor) in relation.iter() {
            for leaf in &leaves {
                if leaf.rewrite_into(descriptor, &simplified, &mut rewritten) {
                    for a in &rewritten {
                        if let Some(slot) = used.get_mut(a.var.index()) {
                            *slot = true;
                        }
                    }
                    assignments.extend_from_slice(&rewritten);
                    lens.push(rewritten.len());
                    rows.push((tuple.clone(), WsDescriptor::empty()));
                }
            }
        }
        relations.push((relation.schema().clone(), rows));
    }

    // Optimisation (1): the posterior table holds the variables some row
    // still mentions, densely renumbered in registration order.
    let is_used = |var: VarId| used.get(var.index()).is_some_and(|&u| u);
    let (mut posterior_table, prior_kept) = table.retain_variables(|var, _| is_used(var));
    let mut renumber: Vec<Option<VarId>> = table
        .variable_ids()
        .map(|var| prior_kept.get(&var).copied())
        .collect();
    for (index, variable) in fresh.iter().enumerate() {
        renumber.push(if is_used(VarId((prior_vars + index) as u32)) {
            Some(posterior_table.add_variable(&variable.name, &variable.alternatives)?)
        } else {
            None
        });
    }
    for a in &mut assignments {
        a.var = renumber
            .get(a.var.index())
            .copied()
            .flatten()
            .ok_or(WsdError::UnknownVariable { var: a.var })?;
    }
    let (mut assignments, mut lens) = (assignments.into_iter(), lens.into_iter());
    let mut out = ProbDb::with_world_table(posterior_table);
    for (schema, mut rows) in relations {
        for ((_, descriptor), len) in rows.iter_mut().zip(lens.by_ref()) {
            *descriptor = WsDescriptor::from_assignments(assignments.by_ref().take(len))?;
        }
        out.replace_relation(URelation::from_rows(schema, rows));
    }

    let mut touched_variables: Vec<VarId> = fresh.iter().map(|variable| variable.source).collect();
    touched_variables.sort();
    touched_variables.dedup();
    let prior_remap: FxHashMap<VarId, VarId> = table
        .variable_ids()
        .zip(&renumber)
        .filter(|(old, _)| touched_variables.binary_search(old).is_err())
        .filter_map(|(old, new)| Some((old, (*new)?)))
        .collect();

    Ok(Conditioned {
        db: out,
        confidence,
        stats: decomposer.stats,
        new_variables: fresh.len(),
        touched_variables,
        prior_remap,
    })
}

/// What optimisations (2) and (3) make of every variable id (the prior
/// variables, then the fresh ones in creation order): `None` for a variable
/// with a single alternative, whose assignments carry no information;
/// otherwise the variable itself or, for a fresh variable, the first earlier
/// fresh variable with the same source, alternatives and weights.
fn simplified_variables(table: &WorldTable, fresh: &[FreshVariable]) -> Vec<Option<VarId>> {
    const EPSILON: f64 = 1e-12;
    let prior_vars = table.num_variables();
    let prior = table
        .iter()
        .map(|(var, info)| (info.domain_size() > 1).then_some(var));
    // Per source variable: the fresh variables nothing earlier equals.
    let mut representatives: FxHashMap<VarId, Vec<(VarId, &FreshVariable)>> = FxHashMap::default();
    let merged = fresh.iter().enumerate().map(|(index, variable)| {
        if variable.alternatives.len() == 1 {
            return None;
        }
        let candidates = representatives.entry(variable.source).or_default();
        let same = candidates.iter().find(|(_, other)| {
            other.alternatives.len() == variable.alternatives.len()
                && other
                    .alternatives
                    .iter()
                    .zip(&variable.alternatives)
                    .all(|(a, b)| a.0 == b.0 && (a.1 - b.1).abs() < EPSILON)
        });
        Some(match same {
            Some(&(representative, _)) => representative,
            None => {
                let var = VarId((prior_vars + index) as u32);
                candidates.push((var, variable));
                var
            }
        })
    });
    prior.chain(merged).collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::reference;
    use std::collections::BTreeMap;
    use uprob_reference::worlds::{SetWorlds, TableWorlds};
    use uprob_urel::{ColumnType, Schema, Tuple, Value};

    /// The SSN database of Figures 1/2 plus the FD world-set of Example 5.1.
    fn ssn_db_and_condition() -> (ProbDb, WsSet) {
        let mut db = ProbDb::new();
        let j = db
            .world_table_mut()
            .add_variable("j", &[(1, 0.2), (7, 0.8)])
            .unwrap();
        let b = db
            .world_table_mut()
            .add_variable("b", &[(4, 0.3), (7, 0.7)])
            .unwrap();
        let schema = Schema::new("R", &[("SSN", ColumnType::Int), ("NAME", ColumnType::Str)]);
        let mut r = db.create_relation(schema).unwrap();
        {
            let w = db.world_table();
            r.push(
                Tuple::new(vec![Value::Int(1), Value::str("John")]),
                WsDescriptor::from_pairs(w, &[(j, 1)]).unwrap(),
            );
            r.push(
                Tuple::new(vec![Value::Int(7), Value::str("John")]),
                WsDescriptor::from_pairs(w, &[(j, 7)]).unwrap(),
            );
            r.push(
                Tuple::new(vec![Value::Int(4), Value::str("Bill")]),
                WsDescriptor::from_pairs(w, &[(b, 4)]).unwrap(),
            );
            r.push(
                Tuple::new(vec![Value::Int(7), Value::str("Bill")]),
                WsDescriptor::from_pairs(w, &[(b, 7)]).unwrap(),
            );
        }
        db.insert_relation(r).unwrap();
        let condition = WsSet::from_descriptors(vec![
            WsDescriptor::from_pairs(db.world_table(), &[(j, 1)]).unwrap(),
            WsDescriptor::from_pairs(db.world_table(), &[(j, 7), (b, 4)]).unwrap(),
        ]);
        (db, condition)
    }

    /// Probability that `tuple` appears in relation `name` of `db`, by
    /// brute-force world enumeration.
    fn tuple_marginal(db: &ProbDb, name: &str, tuple: &Tuple) -> f64 {
        db.world_table()
            .enumerate_worlds()
            .filter(|(world, _)| db.instantiate_world(world)[name].contains(tuple))
            .map(|(_, p)| p)
            .sum()
    }

    /// The distribution over deterministic instances of `db`, keyed by the
    /// printed form of the instance (stable and hashable).
    pub(crate) fn instance_distribution(db: &ProbDb) -> BTreeMap<String, f64> {
        let mut out: BTreeMap<String, f64> = BTreeMap::new();
        for (world, p) in db.world_table().enumerate_worlds() {
            let key = format!("{:?}", db.instantiate_world(&world));
            *out.entry(key).or_insert(0.0) += p;
        }
        out.retain(|_, p| *p > 1e-15);
        out
    }

    #[test]
    fn example_5_1_conditioning_on_the_functional_dependency() {
        let (db, condition) = ssn_db_and_condition();
        let result = condition_db_default(&db, &condition);
        assert!((result.confidence - 0.44).abs() < 1e-12);
        assert_confidence_matches_the_fold(&db, &condition);

        let conditioned = &result.db;
        // The posterior of Bill having SSN 4 is .3/.44 ≈ .68 (Introduction).
        let bill4 = Tuple::new(vec![Value::Int(4), Value::str("Bill")]);
        let p = tuple_marginal(conditioned, "R", &bill4);
        assert!((p - 0.3 / 0.44).abs() < 1e-9, "P(Bill has SSN 4) = {p}");
        // The other tuple marginals of Example 5.1.
        let john1 = Tuple::new(vec![Value::Int(1), Value::str("John")]);
        assert!((tuple_marginal(conditioned, "R", &john1) - 0.2 / 0.44).abs() < 1e-9);
        let john7 = Tuple::new(vec![Value::Int(7), Value::str("John")]);
        assert!((tuple_marginal(conditioned, "R", &john7) - 0.24 / 0.44).abs() < 1e-9);
        let bill7 = Tuple::new(vec![Value::Int(7), Value::str("Bill")]);
        assert!((tuple_marginal(conditioned, "R", &bill7) - 0.14 / 0.44).abs() < 1e-9);
        // The world weights sum to one.
        let total: f64 = conditioned
            .world_table()
            .enumerate_worlds()
            .map(|(_, p)| p)
            .sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    fn condition_db_default(db: &ProbDb, ws: &WsSet) -> Conditioned {
        condition(db, ws, &ConditioningOptions::default()).unwrap()
    }

    /// Figure 8 read literally, ⊗ rule included: the oracle's `IndVe` mode.
    fn figure_8(db: &ProbDb, ws: &WsSet, options: &ConditioningOptions) -> Result<Conditioned> {
        reference::condition(db, ws, options, DecompositionMethod::IndVe)
    }

    /// `Conditioned::confidence` is the Figure 7 fold of the condition, so
    /// `condition` and Figure 8 must both agree with `confidence()` on it.
    fn assert_confidence_matches_the_fold(db: &ProbDb, ws: &WsSet) {
        let options = DecompositionOptions::ve_minlog();
        let expected = crate::confidence(ws, db.world_table(), &options)
            .unwrap()
            .probability;
        let options = ConditioningOptions::default();
        for (what, got) in [
            ("condition", condition(db, ws, &options)),
            ("Figure 8", figure_8(db, ws, &options)),
        ] {
            let got = got.unwrap().confidence;
            assert!(
                (got - expected).abs() < 1e-12,
                "{what}: conditioned confidence {got}, fold {expected}"
            );
        }
    }

    /// No ⊗ node occurs on Example 5.1's condition, so VE-only conditioning
    /// prints the paper's database.
    #[test]
    fn example_5_1_fig8_variant_produces_the_paper_database() {
        let (db, cond_set) = ssn_db_and_condition();
        let result = condition(&db, &cond_set, &ConditioningOptions::default()).unwrap();
        assert!((result.confidence - 0.44).abs() < 1e-12);
        let table = result.db.world_table();
        // After simplification the world table holds b (unchanged) and a
        // fresh j' with weights .2/.44 and .8*.3/.44 (Example 5.1).
        assert_eq!(table.num_variables(), 2);
        let b = table.variable_by_name("b").unwrap();
        let jp = table.variable_by_name("j'").unwrap();
        assert!((table.probability(b, ValueIndex(0)).unwrap() - 0.3).abs() < 1e-12);
        assert!((table.probability(jp, ValueIndex(0)).unwrap() - 0.2 / 0.44).abs() < 1e-12);
        assert!((table.probability(jp, ValueIndex(1)).unwrap() - 0.24 / 0.44).abs() < 1e-12);
        // The relation has five rows, as in the paper: Bill/4 appears both
        // under j' -> 1 (with b -> 4) and under j' -> 7.
        assert_eq!(result.db.relation("R").unwrap().len(), 5);
    }

    #[test]
    fn exact_and_fig8_agree_when_no_independent_partitioning_occurs() {
        let (db, cond_set) = ssn_db_and_condition();
        let options = ConditioningOptions::default();
        let exact = condition(&db, &cond_set, &options).unwrap();
        let fig8 = figure_8(&db, &cond_set, &options).unwrap();
        assert_eq!(exact.confidence.to_bits(), fig8.confidence.to_bits());
        assert!(exact
            .db
            .world_table()
            .iter()
            .eq(fig8.db.world_table().iter()));
        assert_eq!(
            exact.db.relation("R").unwrap(),
            fig8.db.relation("R").unwrap()
        );
    }

    /// `S(ID)` over two fair coins `x`, `y`: row 1 under `x = 1`, row 2
    /// under `y = 1`, row 3 certain; and the condition `x = 1 ∨ y = 1`, a
    /// disjunction of two independent parts.
    pub(crate) fn x_or_y_db() -> (ProbDb, WsSet) {
        let mut db = ProbDb::new();
        let x = db.world_table_mut().add_boolean("x", 0.5).unwrap();
        let y = db.world_table_mut().add_boolean("y", 0.5).unwrap();
        let schema = Schema::new("S", &[("ID", ColumnType::Int)]);
        let mut rel = db.create_relation(schema).unwrap();
        {
            let w = db.world_table();
            rel.push(
                Tuple::new(vec![Value::Int(1)]),
                WsDescriptor::from_pairs(w, &[(x, 1)]).unwrap(),
            );
            rel.push(
                Tuple::new(vec![Value::Int(2)]),
                WsDescriptor::from_pairs(w, &[(y, 1)]).unwrap(),
            );
            rel.push(Tuple::new(vec![Value::Int(3)]), WsDescriptor::empty());
        }
        db.insert_relation(rel).unwrap();
        let cond_set = WsSet::from_descriptors(vec![
            WsDescriptor::from_pairs(db.world_table(), &[(x, 1)]).unwrap(),
            WsDescriptor::from_pairs(db.world_table(), &[(y, 1)]).unwrap(),
        ]);
        (db, cond_set)
    }

    /// The posterior over instances of `db` given `condition`, by direct
    /// Bayes over the enumerated prior worlds.
    pub(crate) fn bayes_posterior(db: &ProbDb, condition: &WsSet) -> BTreeMap<String, f64> {
        let mass = condition.probability_by_enumeration(db.world_table());
        let mut posterior: BTreeMap<String, f64> = BTreeMap::new();
        for (world, p) in db.world_table().enumerate_worlds() {
            if condition.matches_world(&world) {
                let key = format!("{:?}", db.instantiate_world(&world));
                *posterior.entry(key).or_insert(0.0) += p / mass;
            }
        }
        posterior
    }

    #[test]
    fn exact_conditioning_matches_bayes_posterior_at_instance_level() {
        // A condition with two independent parts and tuples spanning both
        // parts: the case where the ⊗ rule of Figure 8 loses precision (the
        // oracle's `tests` pin that) but `condition` must not.
        let (db, cond_set) = x_or_y_db();
        let result = condition(&db, &cond_set, &ConditioningOptions::default()).unwrap();
        assert!((result.confidence - 0.75).abs() < 1e-12);
        assert_confidence_matches_the_fold(&db, &cond_set);

        let prior = instance_distribution(&db);
        let expected = bayes_posterior(&db, &cond_set);
        let got = instance_distribution(&result.db);
        assert_eq!(expected.len(), got.len(), "prior: {prior:?}");
        for (key, p) in &expected {
            let q = got.get(key).copied().unwrap_or(0.0);
            assert!(
                (p - q).abs() < 1e-9,
                "instance {key}: expected {p}, got {q}"
            );
        }
        // Tuple marginals follow as well.
        let t1 = Tuple::new(vec![Value::Int(1)]);
        assert!((tuple_marginal(&result.db, "S", &t1) - 0.5 / 0.75).abs() < 1e-9);
        let t3 = Tuple::new(vec![Value::Int(3)]);
        assert!((tuple_marginal(&result.db, "S", &t3) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn conditioning_on_impossible_world_set_is_an_error() {
        let (db, _) = ssn_db_and_condition();
        let err = condition(&db, &WsSet::empty(), &ConditioningOptions::default()).unwrap_err();
        assert_eq!(err, CoreError::EmptyCondition);
    }

    #[test]
    fn conditioning_on_the_universal_set_is_the_identity() {
        let (db, _) = ssn_db_and_condition();
        let result = condition(&db, &WsSet::universal(), &ConditioningOptions::default()).unwrap();
        assert!((result.confidence - 1.0).abs() < 1e-12);
        let before = instance_distribution(&db);
        let after = instance_distribution(&result.db);
        assert_eq!(before.len(), after.len());
        for (key, p) in &before {
            assert!((p - after[key]).abs() < 1e-9);
        }
    }

    #[test]
    fn budget_is_enforced() {
        let (db, cond_set) = ssn_db_and_condition();
        let options = ConditioningOptions {
            node_budget: Some(1),
            ..Default::default()
        };
        assert!(matches!(
            condition(&db, &cond_set, &options),
            Err(CoreError::BudgetExceeded { .. })
        ));
    }

    #[test]
    fn zero_probability_alternatives_are_not_conditioned() {
        // x -> 1 has probability zero: its sub-condition {y -> 1} must be
        // skipped like the confidence fold skips it, not conditioned (a
        // charged node and a junk y' variable) and then thrown away.
        let mut db = ProbDb::new();
        let x = db
            .world_table_mut()
            .add_variable("x", &[(1, 0.0), (2, 0.5), (3, 0.5)])
            .unwrap();
        let y = db
            .world_table_mut()
            .add_variable("y", &[(1, 0.5), (2, 0.5)])
            .unwrap();
        let schema = Schema::new("T", &[("ID", ColumnType::Int)]);
        let mut rel = db.create_relation(schema).unwrap();
        for (id, pairs) in [(1, [(x, 2)]), (2, [(y, 1)]), (3, [(x, 1)])] {
            rel.push(
                Tuple::new(vec![Value::Int(id)]),
                WsDescriptor::from_pairs(db.world_table(), &pairs).unwrap(),
            );
        }
        db.insert_relation(rel).unwrap();
        let cond_set = WsSet::from_descriptors(vec![
            WsDescriptor::from_pairs(db.world_table(), &[(x, 1), (y, 1)]).unwrap(),
            WsDescriptor::from_pairs(db.world_table(), &[(x, 2)]).unwrap(),
        ]);
        let fold = crate::confidence(
            &cond_set,
            db.world_table(),
            &DecompositionOptions::ve_minlog(),
        )
        .unwrap();
        assert_eq!(fold.stats.total_nodes(), 2);

        let raw = ConditioningOptions {
            simplify: false,
            ..Default::default()
        };
        let result = condition(&db, &cond_set, &raw).unwrap();
        assert_eq!(result.stats, fold.stats);
        assert_eq!(result.confidence.to_bits(), fold.probability.to_bits());
        assert_eq!(result.new_variables, 1);
        let table = result.db.world_table();
        assert_eq!(table.num_variables(), 3, "x, y and the fresh x'");
        assert!(table.variable_by_name("y'").is_none());
        // The posterior: x -> 2 is certain, y is untouched.
        for (id, expected) in [(1, 1.0), (2, 0.5), (3, 0.0)] {
            let p = tuple_marginal(&result.db, "T", &Tuple::new(vec![Value::Int(id)]));
            assert!((p - expected).abs() < 1e-12, "tuple {id}: {p}");
        }
        // A budget covering only the non-zero branches is enough.
        let budgeted = ConditioningOptions {
            node_budget: Some(2),
            ..raw
        };
        assert_eq!(
            condition(&db, &cond_set, &budgeted).unwrap().new_variables,
            1
        );
    }

    #[test]
    fn budget_enforcement_is_uniform_across_we_exact_and_fig8() {
        // One hard instance, one budget: the WE confidence path, `condition`
        // and the ⊗-branches of Figure 8 must all abort with the
        // budget-exhausted error rather than return a (possibly wrong)
        // answer. The instance is independence-rich (eight variable-disjoint
        // pairs): WE's difference expansion doubles per descriptor, VE-only
        // conditioning re-translates the tail in every branch, and Figure 8
        // conditions every ⊗-part separately.
        let mut db = ProbDb::new();
        let mut descriptors = Vec::new();
        {
            let table = db.world_table_mut();
            for i in 0..8 {
                let x = table.add_boolean(&format!("x{i}"), 0.5).unwrap();
                let y = table.add_boolean(&format!("y{i}"), 0.5).unwrap();
                descriptors.push((x, y));
            }
        }
        let schema = Schema::new("T", &[("ID", ColumnType::Int)]);
        let mut rel = db.create_relation(schema).unwrap();
        {
            let w = db.world_table();
            for (i, &(x, _)) in descriptors.iter().enumerate() {
                rel.push(
                    Tuple::new(vec![Value::Int(i as i64)]),
                    WsDescriptor::from_pairs(w, &[(x, 1)]).unwrap(),
                );
            }
        }
        db.insert_relation(rel).unwrap();
        let cond_set: WsSet = descriptors
            .iter()
            .map(|&(x, y)| WsDescriptor::from_pairs(db.world_table(), &[(x, 1), (y, 1)]).unwrap())
            .collect();

        const BUDGET: u64 = 20;
        let we = crate::elimination::confidence_by_elimination(
            &cond_set,
            db.world_table(),
            Some(BUDGET),
        );
        assert_eq!(
            we.unwrap_err(),
            CoreError::BudgetExceeded { budget: BUDGET }
        );
        let budgeted = ConditioningOptions {
            node_budget: Some(BUDGET),
            ..Default::default()
        };
        for (what, result) in [
            ("condition", condition(&db, &cond_set, &budgeted)),
            ("Figure 8", figure_8(&db, &cond_set, &budgeted)),
        ] {
            assert_eq!(
                result.unwrap_err(),
                CoreError::BudgetExceeded { budget: BUDGET },
                "{what} must hit the budget"
            );
        }
        // Sanity: without a budget every path agrees on the confidence.
        let exact_p = 1.0 - 0.75f64.powi(8);
        let we_full =
            crate::elimination::confidence_by_elimination(&cond_set, db.world_table(), None)
                .unwrap();
        assert!((we_full.probability - exact_p).abs() < 1e-12);
        let options = ConditioningOptions::default();
        for (what, result) in [
            ("condition", condition(&db, &cond_set, &options)),
            ("Figure 8", figure_8(&db, &cond_set, &options)),
        ] {
            let confidence = result.unwrap().confidence;
            assert!(
                (confidence - exact_p).abs() < 1e-12,
                "{what} confidence {confidence}"
            );
        }
    }

    #[test]
    fn simplification_removes_unused_and_singleton_variables() {
        let (db, cond_set) = ssn_db_and_condition();
        let raw = condition(
            &db,
            &cond_set,
            &ConditioningOptions {
                simplify: false,
                ..Default::default()
            },
        )
        .unwrap();
        let simplified = condition(&db, &cond_set, &ConditioningOptions::default()).unwrap();
        assert!(simplified.db.world_table().num_variables() < raw.db.world_table().num_variables());
        // Both represent the same posterior.
        let a = instance_distribution(&raw.db);
        let b = instance_distribution(&simplified.db);
        assert_eq!(a.len(), b.len());
        for (key, p) in &a {
            assert!((p - b[key]).abs() < 1e-9);
        }
        assert!(simplified.db.validate().is_ok());
    }

    #[test]
    fn repeated_conditioning_composes() {
        // assert[B1] then assert[B2] equals assert[B1 ∧ B2] (Theorem 5.5 in
        // spirit: asserts commute and compose).
        let mut db = ProbDb::new();
        let x = db.world_table_mut().add_uniform("x", 3).unwrap();
        let y = db.world_table_mut().add_uniform("y", 3).unwrap();
        let schema = Schema::new("T", &[("ID", ColumnType::Int)]);
        let mut rel = db.create_relation(schema).unwrap();
        {
            let w = db.world_table();
            rel.push(
                Tuple::new(vec![Value::Int(1)]),
                WsDescriptor::from_pairs(w, &[(x, 0)]).unwrap(),
            );
            rel.push(
                Tuple::new(vec![Value::Int(2)]),
                WsDescriptor::from_pairs(w, &[(x, 1), (y, 1)]).unwrap(),
            );
            rel.push(
                Tuple::new(vec![Value::Int(3)]),
                WsDescriptor::from_pairs(w, &[(y, 2)]).unwrap(),
            );
        }
        db.insert_relation(rel).unwrap();
        // B1: x != 2 (x -> 0 or x -> 1). B2: y != 0.
        let b1 = WsSet::from_descriptors(vec![
            WsDescriptor::from_pairs(db.world_table(), &[(x, 0)]).unwrap(),
            WsDescriptor::from_pairs(db.world_table(), &[(x, 1)]).unwrap(),
        ]);
        let opts = ConditioningOptions::default();
        let step1 = condition(&db, &b1, &opts).unwrap();
        // Express B2 over the *conditioned* database's world table.
        let table1 = step1.db.world_table();
        let y1 = table1.variable_by_name("y").unwrap();
        let b2_after = WsSet::from_descriptors(vec![
            WsDescriptor::from_pairs(table1, &[(y1, 1)]).unwrap(),
            WsDescriptor::from_pairs(table1, &[(y1, 2)]).unwrap(),
        ]);
        let step2 = condition(&step1.db, &b2_after, &opts).unwrap();
        assert_confidence_matches_the_fold(&db, &b1);
        assert_confidence_matches_the_fold(&step1.db, &b2_after);

        // Direct computation of the posterior given B1 ∧ B2 on the prior.
        let mut expected: BTreeMap<String, f64> = BTreeMap::new();
        let mut mass = 0.0;
        for (world, p) in db.world_table().enumerate_worlds() {
            let x_ok = world[x.index()].index() != 2;
            let y_ok = world[y.index()].index() != 0;
            if x_ok && y_ok {
                mass += p;
                let key = format!("{:?}", db.instantiate_world(&world));
                *expected.entry(key).or_insert(0.0) += p;
            }
        }
        for p in expected.values_mut() {
            *p /= mass;
        }
        expected.retain(|_, p| *p > 1e-15);
        let got = instance_distribution(&step2.db);
        assert_eq!(expected.len(), got.len());
        for (key, p) in &expected {
            assert!((p - got[key]).abs() < 1e-9, "instance {key}");
        }
        // The combined confidence is the product of the step confidences.
        assert!((step1.confidence * step2.confidence - mass).abs() < 1e-9);

        // Conditioning once on B1 ∧ B2 (both over the *prior* table,
        // intersected and normalised) is the single-pass equivalent: same
        // confidence as the product, same posterior instance distribution.
        let b2 = WsSet::from_descriptors(vec![
            WsDescriptor::from_pairs(db.world_table(), &[(y, 1)]).unwrap(),
            WsDescriptor::from_pairs(db.world_table(), &[(y, 2)]).unwrap(),
        ]);
        let conjunction = b1.intersect(&b2).normalized();
        let joint = condition(&db, &conjunction, &opts).unwrap();
        assert_confidence_matches_the_fold(&db, &conjunction);
        assert!((joint.confidence - mass).abs() < 1e-12);
        let joint_got = instance_distribution(&joint.db);
        assert_eq!(expected.len(), joint_got.len());
        for (key, p) in &expected {
            assert!((p - joint_got[key]).abs() < 1e-9, "instance {key}");
        }
    }

    #[test]
    fn touched_and_remap_describe_the_posterior_table() {
        let (db, cond_set) = ssn_db_and_condition();
        let table = db.world_table();
        let j = table.variable_by_name("j").unwrap();
        let b = table.variable_by_name("b").unwrap();
        let result = condition(&db, &cond_set, &ConditioningOptions::default()).unwrap();
        // Both prior variables are eliminated by this condition (it mentions
        // j and b), so nothing survives into the remap…
        assert!(result.touched_variables.contains(&j));
        let remapped = result.prior_remap.sorted_entries();
        for (old, _) in &remapped {
            assert!(!result.touched_variables.contains(old));
        }
        // …and every remapped variable is a verbatim copy in the posterior.
        for (&old, &new) in remapped {
            let before = db.world_table().variable(old).unwrap();
            let after = result.db.world_table().variable(new).unwrap();
            assert_eq!(before, after);
        }

        // A condition touching only j leaves b untouched and remapped to a
        // live posterior id with identical distribution.
        let only_j =
            WsSet::from_descriptors(vec![
                WsDescriptor::from_pairs(db.world_table(), &[(j, 1)]).unwrap()
            ]);
        let result = condition(&db, &only_j, &ConditioningOptions::default()).unwrap();
        assert_eq!(result.touched_variables, vec![j]);
        let new_b = result.prior_remap.get(&b).copied().unwrap();
        let before = db.world_table().variable(b).unwrap();
        let after = result.db.world_table().variable(new_b).unwrap();
        assert_eq!(before.name, after.name);
        assert_eq!(before.values, after.values);
        assert!(before
            .probabilities
            .iter()
            .zip(after.probabilities)
            .all(|(x, y)| x.to_bits() == y.to_bits()));

        // With simplify off, surviving prior variables map to themselves.
        let raw = condition(
            &db,
            &only_j,
            &ConditioningOptions {
                simplify: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(raw.prior_remap.get(&b), Some(&b));
        assert!(!raw.prior_remap.contains_key(&j));
    }

    #[test]
    fn intersect_conditions_edge_cases() {
        let (db, cond_set) = ssn_db_and_condition();
        let opts = ConditioningOptions::default();
        // Conjunction with the universal set is a no-op (modulo
        // normalisation), for the ws-set and for the posterior.
        let with_universal = WsSet::universal().intersect(&cond_set).normalized();
        assert_eq!(with_universal, cond_set.normalized());
        let direct = condition(&db, &cond_set, &opts).unwrap();
        let via_universal = condition(&db, &with_universal, &opts).unwrap();
        assert_eq!(
            direct.confidence.to_bits(),
            via_universal.confidence.to_bits()
        );
        assert_eq!(
            direct.db.relation("R").unwrap(),
            via_universal.db.relation("R").unwrap()
        );
        // Contradictory conditions intersect to the empty set, and
        // conditioning on it reports the typed error.
        let table = db.world_table();
        let j = table.variable_by_name("j").unwrap();
        let j1 = WsSet::from_descriptors(vec![WsDescriptor::from_pairs(table, &[(j, 1)]).unwrap()]);
        let j7 = WsSet::from_descriptors(vec![WsDescriptor::from_pairs(table, &[(j, 7)]).unwrap()]);
        let contradiction = j1.intersect(&j7);
        assert!(contradiction.is_empty());
        assert_eq!(
            condition(&db, &contradiction, &opts).unwrap_err(),
            CoreError::EmptyCondition
        );
        // The empty conjunction is the universal set: the identity.
        let identity = condition(&db, &WsSet::universal(), &opts).unwrap();
        assert!((identity.confidence - 1.0).abs() < 1e-12);
    }

    /// One relation `T(ID)` over `db`'s world table with one row per
    /// descriptor, IDs counting from 1.
    fn relation_of(db: &mut ProbDb, descriptors: Vec<WsDescriptor>) {
        let schema = Schema::new("T", &[("ID", ColumnType::Int)]);
        let mut rel = db.create_relation(schema).unwrap();
        for (id, descriptor) in descriptors.into_iter().enumerate() {
            rel.push(Tuple::new(vec![Value::Int(id as i64 + 1)]), descriptor);
        }
        db.insert_relation(rel).unwrap();
    }

    fn ids_and_descriptors(db: &ProbDb) -> Vec<(i64, String)> {
        let relation = db.relation("T").unwrap();
        relation
            .iter()
            .map(|(tuple, d)| {
                let Some(Value::Int(id)) = tuple.get(0) else {
                    panic!("ID column is an integer");
                };
                (*id, d.display(db.world_table()).to_string())
            })
            .collect()
    }

    #[test]
    fn rows_join_the_leaves_in_dfs_order() {
        // Condition {x -> 0} ∪ {x -> 1, y -> 1} over x ∈ {0,1,2}, y ∈ {0,1}:
        // a ⊕ on x with two ∅ leaves below it, (x -> 0) and (x -> 1, y -> 1).
        let mut db = ProbDb::new();
        let x = db.world_table_mut().add_uniform("x", 3).unwrap();
        let y = db.world_table_mut().add_uniform("y", 2).unwrap();
        let z = db.world_table_mut().add_uniform("z", 2).unwrap();
        let w = db.world_table().clone();
        relation_of(
            &mut db,
            vec![
                // Inconsistent with every leaf: disappears.
                WsDescriptor::from_pairs(&w, &[(x, 2)]).unwrap(),
                // The empty descriptor: one copy per leaf, in DFS order.
                WsDescriptor::empty(),
                // Consistent with the second leaf only; z is not touched.
                WsDescriptor::from_pairs(&w, &[(x, 1), (z, 1)]).unwrap(),
                // Contradicts the second leaf on y, the first on x.
                WsDescriptor::from_pairs(&w, &[(x, 1), (y, 0)]).unwrap(),
            ],
        );
        let cond_set = WsSet::from_descriptors(vec![
            WsDescriptor::from_pairs(&w, &[(x, 0)]).unwrap(),
            WsDescriptor::from_pairs(&w, &[(x, 1), (y, 1)]).unwrap(),
        ]);
        let raw = ConditioningOptions {
            simplify: false,
            ..Default::default()
        };
        let result = condition(&db, &cond_set, &raw).unwrap();
        assert_eq!(result.new_variables, 2, "y' below x -> 1, then x'");
        assert_eq!(
            ids_and_descriptors(&result.db),
            vec![
                (2, "{x' -> 0}".to_string()),
                (2, "{y' -> 1, x' -> 1}".to_string()),
                (3, "{z -> 1, y' -> 1, x' -> 1}".to_string()),
            ]
        );
        // Simplified: y' has one alternative and is dropped, x, y are unused.
        let result = condition(&db, &cond_set, &ConditioningOptions::default()).unwrap();
        assert_eq!(
            ids_and_descriptors(&result.db),
            vec![
                (2, "{x' -> 0}".to_string()),
                (2, "{x' -> 1}".to_string()),
                (3, "{z -> 1, x' -> 1}".to_string()),
            ]
        );
        let names: Vec<&str> = result
            .db
            .world_table()
            .iter()
            .map(|(_, info)| info.name)
            .collect();
        assert_eq!(names, ["z", "x'"]);
        assert_eq!(result.touched_variables, vec![x, y]);
        assert_eq!(result.prior_remap.len(), 1);
        assert_eq!(result.prior_remap.get(&z), Some(&VarId(0)));
    }

    #[test]
    fn prior_single_alternative_variables_are_dropped_from_rows() {
        // `c` is a prior variable with one alternative that the condition
        // never mentions: simplification (2) still removes it from the rows,
        // and (1) then drops it from the table.
        let mut db = ProbDb::new();
        let c = db.world_table_mut().add_variable("c", &[(5, 1.0)]).unwrap();
        let x = db.world_table_mut().add_boolean("x", 0.5).unwrap();
        let y = db.world_table_mut().add_boolean("y", 0.5).unwrap();
        let w = db.world_table().clone();
        relation_of(
            &mut db,
            vec![
                WsDescriptor::from_pairs(&w, &[(c, 5), (y, 1)]).unwrap(),
                WsDescriptor::from_pairs(&w, &[(c, 5)]).unwrap(),
            ],
        );
        let cond_set =
            WsSet::from_descriptors(vec![WsDescriptor::from_pairs(&w, &[(x, 1)]).unwrap()]);
        let result = condition(&db, &cond_set, &ConditioningOptions::default()).unwrap();
        assert_eq!(
            ids_and_descriptors(&result.db),
            vec![(1, "{y -> 1}".to_string()), (2, "{}".to_string())]
        );
        assert_eq!(result.db.world_table().num_variables(), 1);
        assert!(!result.prior_remap.contains_key(&c));
        assert_eq!(result.prior_remap.get(&y), Some(&VarId(0)));
        // Unsimplified, `c` and the one-alternative x' both stay.
        let raw = ConditioningOptions {
            simplify: false,
            ..Default::default()
        };
        let result = condition(&db, &cond_set, &raw).unwrap();
        assert_eq!(
            ids_and_descriptors(&result.db),
            vec![
                (1, "{c -> 5, y -> 1, x' -> 1}".to_string()),
                (2, "{c -> 5, x' -> 1}".to_string())
            ]
        );
    }

    #[test]
    fn equivalent_fresh_variables_are_merged_into_the_first() {
        // {x -> 0, y -> 0} ∪ {x -> 1, y -> 0}: eliminating x leaves the same
        // sub-condition {y -> 0} under both alternatives, so the two fresh
        // copies of y are equivalent and the second is renamed to the first.
        let mut db = ProbDb::new();
        let x = db.world_table_mut().add_uniform("x", 3).unwrap();
        let y = db.world_table_mut().add_uniform("y", 3).unwrap();
        let w = db.world_table().clone();
        relation_of(&mut db, vec![WsDescriptor::empty()]);
        let cond_set = WsSet::from_descriptors(vec![
            WsDescriptor::from_pairs(&w, &[(x, 0), (y, 0)]).unwrap(),
            WsDescriptor::from_pairs(&w, &[(x, 0), (y, 1)]).unwrap(),
            WsDescriptor::from_pairs(&w, &[(x, 1), (y, 0)]).unwrap(),
            WsDescriptor::from_pairs(&w, &[(x, 1), (y, 1)]).unwrap(),
        ]);
        let options = ConditioningOptions {
            heuristic: VariableHeuristic::MinMax,
            ..Default::default()
        };
        let result = condition(&db, &cond_set, &options).unwrap();
        let reference =
            reference::condition(&db, &cond_set, &options, DecompositionMethod::VeOnly).unwrap();
        assert_eq!(result.new_variables, 3);
        assert_eq!(
            ids_and_descriptors(&result.db),
            ids_and_descriptors(&reference.db)
        );
        assert_eq!(result.db.world_table().num_variables(), 2);
        let rows = ids_and_descriptors(&result.db);
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|(_, d)| !d.contains("y''")), "{rows:?}");
    }

    #[test]
    fn fresh_names_avoid_prior_and_earlier_fresh_names() {
        // Sources `x` and `x'` compete for the same primed names: `x'` is
        // eliminated under each of the three alternatives of `x`, then `x`.
        let mut db = ProbDb::new();
        let x = db.world_table_mut().add_uniform("x", 3).unwrap();
        let xp = db.world_table_mut().add_uniform("x'", 3).unwrap();
        let w = db.world_table().clone();
        relation_of(&mut db, vec![WsDescriptor::empty()]);
        let cond_set = WsSet::from_descriptors(vec![
            WsDescriptor::from_pairs(&w, &[(xp, 0), (x, 0)]).unwrap(),
            WsDescriptor::from_pairs(&w, &[(xp, 0), (x, 1)]).unwrap(),
            WsDescriptor::from_pairs(&w, &[(xp, 1), (x, 1)]).unwrap(),
            WsDescriptor::from_pairs(&w, &[(xp, 1), (x, 2)]).unwrap(),
        ]);
        let raw = ConditioningOptions {
            simplify: false,
            ..Default::default()
        };
        let result = condition(&db, &cond_set, &raw).unwrap();
        let reference =
            reference::condition(&db, &cond_set, &raw, DecompositionMethod::VeOnly).unwrap();
        let names = |db: &ProbDb| -> Vec<String> {
            let table = db.world_table();
            table
                .iter()
                .map(|(_, info)| info.name.to_string())
                .collect()
        };
        assert_eq!(names(&result.db), names(&reference.db));
        assert_eq!(result.new_variables, 4);
        assert_eq!(
            names(&result.db).split_off(2),
            ["x''", "x'''", "x''''", "x'''''"]
        );
    }
}
