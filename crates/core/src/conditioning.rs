//! Conditioning a probabilistic database (Section 5, Figure 8).
//!
//! `assert[B]` removes all possible worlds in which the condition `B` does
//! not hold and renormalises the remaining worlds so their probabilities sum
//! to one, *without* enumerating worlds: the algorithm folds over the same
//! Davis–Putnam-style decomposition as confidence computation and, while
//! returning from the recursion, introduces fresh re-weighted variables for
//! every eliminated variable and rewrites the ws-descriptors of the
//! U-relations accordingly.
//!
//! Two variants are provided:
//!
//! * [`ConditioningMethod::Exact`] (default): the decomposition uses
//!   variable elimination only. The produced database represents exactly
//!   the Bayesian posterior (tested against brute-force enumeration).
//! * [`ConditioningMethod::PaperFig8`]: the verbatim algorithm of Figure 8,
//!   including its ⊗-node rule (each independent part of the condition is
//!   conditioned separately against the full U-relation and the results are
//!   unioned). This reproduces the paper's worked Examples 5.1/5.2/5.4 and
//!   its performance profile. Note that when the condition decomposes into
//!   several independent parts *and* tuples depend on more than one part,
//!   the ⊗ rule does not preserve tuple marginals (the disjunction of
//!   independent conditions induces correlations that re-weighting
//!   variables per part cannot express); see DESIGN.md, section "The
//!   ⊗-rule marginals caveat", for the analysis. For conditions that do
//!   not trigger the ⊗ rule the two variants coincide.
//!
//! Conditioning deliberately bypasses the shared decomposition cache of
//! [`crate::cache`]: its recursion rewrites U-relation descriptors and
//! allocates fresh variables, so its sub-results are not pure functions
//! of the sub-ws-set (DESIGN.md, "What is not cached").

use std::collections::BTreeMap;

use uprob_wsd::FxHashMap;

use uprob_urel::{ProbDb, URelation};
use uprob_wsd::{DomainValue, NeumaierSum, ValueIndex, VarId, WorldTable, WsDescriptor, WsSet};

use crate::decompose::{Decomposer, DecompositionMethod, DecompositionOptions, DecompositionStep};
use crate::error::CoreError;
use crate::heuristics::VariableHeuristic;
use crate::stats::DecompositionStats;
use crate::Result;

/// Which conditioning algorithm to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ConditioningMethod {
    /// Variable-elimination-only conditioning; exact posterior semantics.
    #[default]
    Exact,
    /// The verbatim algorithm of Figure 8 (independent partitioning + the
    /// ⊗-node rule).
    PaperFig8,
}

/// Options controlling [`condition`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ConditioningOptions {
    /// Algorithm variant.
    pub method: ConditioningMethod,
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
            method: ConditioningMethod::Exact,
            heuristic: VariableHeuristic::MinLog,
            simplify: true,
            node_budget: None,
        }
    }
}

impl ConditioningOptions {
    /// The verbatim Figure 8 configuration (used to reproduce the paper's
    /// worked examples and benchmarks).
    pub fn paper_fig8() -> Self {
        ConditioningOptions {
            method: ConditioningMethod::PaperFig8,
            ..Default::default()
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
    /// Prior variables eliminated by the conditioning recursion (sorted,
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

/// Row identity used while threading U-relation descriptors through the
/// recursion: `(relation index, row index)`.
type RowId = (usize, usize);

/// A set of descriptors tagged with the row they belong to. A row can give
/// rise to several descriptors in the output (one per surviving branch).
type TaggedSet = Vec<(RowId, WsDescriptor)>;

struct Conditioner<'a> {
    /// Decides every `ComputeTree` node and owns the budget and counters.
    decomposer: Decomposer<'a>,
    /// The output world table: the input table plus the fresh variables.
    new_table: WorldTable,
    /// For every fresh variable: the variable it was derived from.
    sources: Vec<(VarId, VarId)>,
}

impl<'a> Conditioner<'a> {
    fn new(table: &'a WorldTable, options: &ConditioningOptions) -> Self {
        let decomposition = DecompositionOptions {
            method: match options.method {
                ConditioningMethod::Exact => DecompositionMethod::VeOnly,
                ConditioningMethod::PaperFig8 => DecompositionMethod::IndVe,
            },
            heuristic: options.heuristic,
            node_budget: options.node_budget,
        };
        Conditioner {
            decomposer: Decomposer::new(table, decomposition),
            new_table: table.clone(),
            sources: Vec::new(),
        }
    }

    /// The recursive `cond` function of Figure 8, operating on the ws-set of
    /// the condition (decomposed on the fly) and the tagged descriptors of
    /// the U-relations.
    fn cond(&mut self, set: &WsSet, u: TaggedSet, depth: u64) -> Result<(f64, TaggedSet)> {
        match self.decomposer.step(set, depth)? {
            DecompositionStep::Empty => Ok((0.0, Vec::new())),
            DecompositionStep::Universal => Ok((1.0, u)),
            DecompositionStep::Partition(parts) => {
                // Figure 8, ⊗ case: every part is conditioned against the
                // full U and the rewritten descriptor sets are unioned.
                let mut complement = 1.0;
                let mut merged: TaggedSet = Vec::new();
                for part in &parts {
                    let (ci, ui) = self.cond(part, u.clone(), depth + 1)?;
                    complement *= 1.0 - ci;
                    merged.extend(ui);
                }
                Ok((1.0 - complement, merged))
            }
            DecompositionStep::Eliminate {
                var,
                branches,
                missing_values,
                tail,
            } => self.eliminate(var, &branches, &missing_values, &tail, u, depth),
        }
    }

    /// Figure 8, ⊕ case: recurse into every alternative of the eliminated
    /// `var`, renormalise the branch weights with a fresh variable and
    /// rewrite the descriptors of the surviving branches.
    fn eliminate(
        &mut self,
        var: VarId,
        branches: &[(ValueIndex, WsSet)],
        missing_values: &[ValueIndex],
        tail: &WsSet,
        u: TaggedSet,
        depth: u64,
    ) -> Result<(f64, TaggedSet)> {
        let table = self.decomposer.table();
        let source_info = table.variable(var)?;
        // Child condition per domain value (None = impossible branch).
        let mut child_sets: Vec<Option<&WsSet>> = vec![None; source_info.domain_size()];
        #[expect(
            clippy::indexing_slicing,
            reason = "child_sets has domain_size slots; values index the same domain"
        )]
        for (value, child) in branches {
            child_sets[value.index()] = Some(child);
        }
        if !tail.is_empty() {
            #[expect(clippy::indexing_slicing, reason = "same domain bound as above")]
            for value in missing_values {
                child_sets[value.index()] = Some(tail);
            }
        }

        struct Branch {
            value: ValueIndex,
            weight: f64,
            confidence: f64,
            rewritten: TaggedSet,
        }
        let mut results: Vec<Branch> = Vec::new();
        let mut total = NeumaierSum::new();
        for (index, slot) in child_sets.iter().enumerate() {
            let Some(child_set) = *slot else {
                continue;
            };
            let value = ValueIndex(index as u16);
            let weight = table.probability(var, value)?;
            // A zero-probability alternative contributes nothing: skip it
            // before conditioning its branch, as the confidence fold does.
            if weight == 0.0 {
                continue;
            }
            // U_i: the descriptors consistent with `var -> value`, extended
            // with that assignment.
            let u_i: TaggedSet = u
                .iter()
                .filter_map(|(row, d)| d.with(var, value).ok().map(|extended| (*row, extended)))
                .collect();
            let (ci, rewritten) = self.cond(child_set, u_i, depth + 1)?;
            if ci > 0.0 {
                total.add(weight * ci);
                results.push(Branch {
                    value,
                    weight,
                    confidence: ci,
                    rewritten,
                });
            }
        }
        let total = total.value();
        if total <= 0.0 {
            return Ok((0.0, Vec::new()));
        }
        // Fresh variable var' whose alternatives are the surviving values of
        // `var`, re-weighted so that they sum to one within this node.
        let fresh_name = self.new_table.fresh_name(&source_info.name);
        let alternatives: Vec<(DomainValue, f64)> = results
            .iter()
            .map(|b| {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "surviving branch values come from this variable's domain"
                )]
                let label = source_info.values[b.value.index()];
                (label, b.weight * b.confidence / total)
            })
            .collect();
        let fresh = self
            .new_table
            .add_variable(&fresh_name, &alternatives)
            .map_err(CoreError::Wsd)?;
        self.sources.push((fresh, var));
        // Rewrite: replace `var -> old value` by `var' -> new index`.
        let mut merged: TaggedSet = Vec::new();
        for (new_index, branch) in results.into_iter().enumerate() {
            for (row, mut descriptor) in branch.rewritten {
                descriptor.remove(var);
                #[expect(
                    clippy::expect_used,
                    reason = "`fresh` was just created; no input descriptor mentions it"
                )]
                descriptor
                    .assign(fresh, ValueIndex(new_index as u16))
                    .expect("fresh variable cannot already occur in the descriptor");
                merged.push((row, descriptor));
            }
        }
        Ok((total, merged))
    }
}

/// Conditions `db` on the world-set described by `condition` (the ws-set of
/// the worlds that satisfy the asserted Boolean query).
///
/// Returns the posterior database, the confidence of the condition in the
/// input database and decomposition statistics.
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
    let mut conditioner = Conditioner::new(table, options);

    // Collect the descriptors of every row of every relation, tagged with
    // their origin.
    let relation_names = db.relation_names();
    let mut tagged: TaggedSet = Vec::new();
    let mut tuples: Vec<Vec<uprob_urel::Tuple>> = Vec::with_capacity(relation_names.len());
    for (rel_index, name) in relation_names.iter().enumerate() {
        let relation = db.relation(name)?;
        let mut rel_tuples = Vec::with_capacity(relation.len());
        for (row_index, (tuple, descriptor)) in relation.iter().enumerate() {
            tagged.push(((rel_index, row_index), descriptor.clone()));
            rel_tuples.push(tuple.clone());
        }
        tuples.push(rel_tuples);
    }

    let (confidence, rewritten) = conditioner.cond(condition, tagged, 1)?;
    // A NaN confidence is treated like zero: a degenerate condition must
    // surface as the typed error, never as a NaN/Inf posterior.
    if confidence <= 0.0 || confidence.is_nan() {
        return Err(CoreError::EmptyCondition);
    }
    let new_variables = conditioner.sources.len();

    // Group the rewritten descriptors by row.
    let mut per_row: FxHashMap<RowId, Vec<WsDescriptor>> = FxHashMap::default();
    for (row, descriptor) in rewritten {
        per_row.entry(row).or_default().push(descriptor);
    }

    // Rebuild the database over the extended world table.
    let mut out = ProbDb::with_world_table(conditioner.new_table);
    for (rel_index, name) in relation_names.iter().enumerate() {
        let schema = db.relation(name)?.schema().clone();
        let mut relation = URelation::new(schema);
        #[expect(
            clippy::indexing_slicing,
            reason = "rel_index enumerates relation_names, which built `tuples` in the same order"
        )]
        for (row_index, tuple) in tuples[rel_index].iter().enumerate() {
            if let Some(descriptors) = per_row.get(&(rel_index, row_index)) {
                for descriptor in descriptors {
                    relation.push(tuple.clone(), descriptor.clone());
                }
            }
        }
        out.replace_relation(relation);
    }

    let mut touched_variables: Vec<VarId> = conditioner
        .sources
        .iter()
        .map(|&(_, source)| source)
        .collect();
    touched_variables.sort();
    touched_variables.dedup();

    let mapping: FxHashMap<VarId, VarId> = if options.simplify {
        simplify_with_mapping(&mut out, &conditioner.sources)
    } else {
        // Without simplification the posterior table is the prior table
        // plus appended fresh variables: every id maps to itself.
        out.world_table().variable_ids().map(|v| (v, v)).collect()
    };
    let prior_vars = table.num_variables() as u32;
    let prior_remap: FxHashMap<VarId, VarId> = mapping
        .into_iter()
        .filter(|(old, _)| old.0 < prior_vars && touched_variables.binary_search(old).is_err())
        .collect();

    Ok(Conditioned {
        db: out,
        confidence,
        stats: conditioner.decomposer.stats,
        new_variables,
        touched_variables,
        prior_remap,
    })
}

/// The intersection of several condition ws-sets (Section 3.2), normalised
/// between folds: the world-set of the *conjunction*. The empty slice
/// yields the universal set (the empty conjunction is true everywhere);
/// a one-element slice yields a normalised copy of that set.
pub fn intersect_conditions(conditions: &[WsSet]) -> WsSet {
    let mut iter = conditions.iter();
    let Some(first) = iter.next() else {
        return WsSet::universal();
    };
    let mut combined = first.normalized();
    for set in iter {
        combined = combined.intersect(set);
        combined.normalize();
    }
    combined
}

/// Conditions `db` on the **conjunction** of several conditions in a
/// single pass: the condition ws-sets are intersected once
/// ([`intersect_conditions`]) and the decomposition/renormalisation of
/// [`condition`] runs exactly once over the combined set — instead of
/// materialising an intermediate posterior database per condition, which
/// re-translates every U-relation and re-runs the fresh-variable
/// re-weighting at each step. Asserts compose (Theorem 5.5), so the
/// result represents the same posterior as the sequential fold.
///
/// # Errors
///
/// Same as [`condition`]; in particular [`CoreError::EmptyCondition`] when
/// the conjunction is empty or has probability zero (mutually
/// contradictory conditions).
pub fn condition_all(
    db: &ProbDb,
    conditions: &[WsSet],
    options: &ConditioningOptions,
) -> Result<Conditioned> {
    condition(db, &intersect_conditions(conditions), options)
}

/// The three simplification optimisations of Section 5:
///
/// 1. variables that do not appear in any U-relation are dropped from `W`;
/// 2. variables with a single domain alternative are dropped everywhere;
/// 3. fresh variables derived from the same original variable with identical
///    alternatives and weights are merged.
///
/// Returns the old → new [`VarId`] mapping of the variables that survive
/// optimisation (1). Variables dropped as unused are absent from the map;
/// delta consumers treat absence as "do not inherit anything mentioning
/// this variable".
pub fn simplify_with_mapping(
    db: &mut ProbDb,
    sources: &[(VarId, VarId)],
) -> FxHashMap<VarId, VarId> {
    merge_equivalent_variables(db, sources);
    drop_singleton_assignments(db);
    drop_unused_variables(db)
}

/// Optimisation (3): merge fresh variables with the same source, the same
/// alternatives and the same weights.
fn merge_equivalent_variables(db: &mut ProbDb, sources: &[(VarId, VarId)]) {
    const EPSILON: f64 = 1e-12;
    let table = db.world_table().clone();
    // BTreeMap, not a hash map: the rename loop below iterates this map
    // per descriptor, and renames must apply in a reproducible order.
    let mut canonical: BTreeMap<VarId, VarId> = BTreeMap::new();
    let mut representatives: Vec<(VarId, VarId)> = Vec::new(); // (source, representative)
    for &(fresh, source) in sources {
        let Ok(info) = table.variable(fresh) else {
            continue;
        };
        let mut merged = false;
        for &(other_source, representative) in &representatives {
            if other_source != source {
                continue;
            }
            #[expect(
                clippy::expect_used,
                reason = "representatives were looked up in this table when recorded"
            )]
            let rep_info = table
                .variable(representative)
                .expect("representative variable exists");
            let same = rep_info.values == info.values
                && rep_info.probabilities.len() == info.probabilities.len()
                && rep_info
                    .probabilities
                    .iter()
                    .zip(&info.probabilities)
                    .all(|(a, b)| (a - b).abs() < EPSILON);
            if same {
                canonical.insert(fresh, representative);
                merged = true;
                break;
            }
        }
        if !merged {
            representatives.push((source, fresh));
        }
    }
    if canonical.is_empty() {
        return;
    }
    for relation in db.relations_mut() {
        for (_, descriptor) in relation.rows_mut() {
            for (from, to) in &canonical {
                descriptor.rename_variable(*from, *to);
            }
        }
    }
}

/// Optimisation (2): assignments of variables with a single alternative
/// (probability 1) are removed from every descriptor.
fn drop_singleton_assignments(db: &mut ProbDb) {
    let singletons: Vec<VarId> = db
        .world_table()
        .iter()
        .filter(|(_, info)| info.domain_size() == 1)
        .map(|(var, _)| var)
        .collect();
    if singletons.is_empty() {
        return;
    }
    for relation in db.relations_mut() {
        for (_, descriptor) in relation.rows_mut() {
            for var in &singletons {
                descriptor.remove(*var);
            }
        }
    }
}

/// Optimisation (1): rebuild the world table with only the variables that
/// still occur in some U-relation, remapping the descriptors. Returns the
/// old → new mapping of the kept variables.
fn drop_unused_variables(db: &mut ProbDb) -> FxHashMap<VarId, VarId> {
    let mut used: std::collections::BTreeSet<VarId> = std::collections::BTreeSet::new();
    for relation in db.relations() {
        for (_, descriptor) in relation.iter() {
            used.extend(descriptor.variables());
        }
    }
    let (new_table, mapping) = db
        .world_table()
        .retain_variables(|var, _| used.contains(&var));
    // Remap every descriptor to the new variable ids.
    for relation in db.relations_mut() {
        for (_, descriptor) in relation.rows_mut() {
            #[expect(
                clippy::indexing_slicing,
                reason = "mapping covers every variable `used` kept, and descriptors only mention kept variables"
            )]
            let remapped: Vec<(VarId, ValueIndex)> = descriptor
                .iter()
                .map(|a| (mapping[&a.var], a.value))
                .collect();
            let mut rebuilt = WsDescriptor::empty();
            for (var, value) in remapped {
                #[expect(
                    clippy::expect_used,
                    reason = "injective id remap of an already-functional descriptor"
                )]
                rebuilt
                    .assign(var, value)
                    .expect("remapping preserves functionality");
            }
            *descriptor = rebuilt;
        }
    }
    db.set_world_table(new_table);
    mapping
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
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
        db.enumerate_instances()
            .filter(|(_, _, instance)| instance[name].contains(tuple))
            .map(|(_, p, _)| p)
            .sum()
    }

    /// The distribution over deterministic instances of `db`, keyed by the
    /// printed form of the instance (stable and hashable).
    fn instance_distribution(db: &ProbDb) -> BTreeMap<String, f64> {
        let mut out: BTreeMap<String, f64> = BTreeMap::new();
        for (_, p, instance) in db.enumerate_instances() {
            let key = format!("{instance:?}");
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

    /// `Conditioned::confidence` is the Figure 7 fold of the condition, so
    /// both conditioning variants must agree with `confidence()` on it.
    fn assert_confidence_matches_the_fold(db: &ProbDb, ws: &WsSet) {
        let options = DecompositionOptions::ve_minlog();
        let expected = crate::confidence(ws, db.world_table(), &options)
            .unwrap()
            .probability;
        for options in [
            ConditioningOptions::default(),
            ConditioningOptions::paper_fig8(),
        ] {
            let got = condition(db, ws, &options).unwrap().confidence;
            assert!(
                (got - expected).abs() < 1e-12,
                "{:?}: conditioned confidence {got}, fold {expected}",
                options.method
            );
        }
    }

    #[test]
    fn example_5_1_fig8_variant_produces_the_paper_database() {
        let (db, cond_set) = ssn_db_and_condition();
        let result = condition(&db, &cond_set, &ConditioningOptions::paper_fig8()).unwrap();
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
        let exact = condition(&db, &cond_set, &ConditioningOptions::default()).unwrap();
        let fig8 = condition(&db, &cond_set, &ConditioningOptions::paper_fig8()).unwrap();
        assert!((exact.confidence - fig8.confidence).abs() < 1e-12);
        assert_eq!(
            instance_distribution(&exact.db)
                .keys()
                .collect::<Vec<_>>()
                .len(),
            instance_distribution(&fig8.db)
                .keys()
                .collect::<Vec<_>>()
                .len()
        );
    }

    #[test]
    fn exact_conditioning_matches_bayes_posterior_at_instance_level() {
        // A condition with two independent parts and tuples spanning both
        // parts: the case where the ⊗ rule of Figure 8 loses precision but
        // the exact variant must not.
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
        // Condition: x = 1 OR y = 1.
        let cond_set = WsSet::from_descriptors(vec![
            WsDescriptor::from_pairs(db.world_table(), &[(x, 1)]).unwrap(),
            WsDescriptor::from_pairs(db.world_table(), &[(y, 1)]).unwrap(),
        ]);

        let result = condition(&db, &cond_set, &ConditioningOptions::default()).unwrap();
        assert!((result.confidence - 0.75).abs() < 1e-12);
        assert_confidence_matches_the_fold(&db, &cond_set);

        // Expected posterior over instances by direct Bayes on the prior.
        let prior = instance_distribution(&db);
        let mut expected: BTreeMap<String, f64> = BTreeMap::new();
        for (world, p) in db.world_table().enumerate_worlds() {
            if !cond_set.matches_world(&world) {
                continue;
            }
            let key = format!("{:?}", db.instantiate_world(&world));
            *expected.entry(key).or_insert(0.0) += p / 0.75;
        }
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
        // One hard instance, one budget: the WE confidence path, Exact
        // conditioning and the PaperFig8 ⊗-branches must all abort with the
        // budget-exhausted error rather than return a (possibly wrong)
        // answer. The instance is independence-rich (eight variable-disjoint
        // pairs): WE's difference expansion doubles per descriptor, Exact
        // (VE-only) conditioning re-translates the tail in every branch,
        // and Fig8 conditions every ⊗-part separately.
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
        let we = crate::elimination::confidence_by_elimination_parallel(
            &cond_set,
            db.world_table(),
            Some(BUDGET),
            None,
            &crate::ParallelOptions::sequential(),
        );
        assert_eq!(
            we.unwrap_err(),
            CoreError::BudgetExceeded { budget: BUDGET }
        );
        for options in [
            ConditioningOptions {
                node_budget: Some(BUDGET),
                ..Default::default()
            },
            ConditioningOptions {
                node_budget: Some(BUDGET),
                ..ConditioningOptions::paper_fig8()
            },
        ] {
            assert_eq!(
                condition(&db, &cond_set, &options).unwrap_err(),
                CoreError::BudgetExceeded { budget: BUDGET },
                "method {:?} must hit the budget",
                options.method
            );
        }
        // Sanity: without a budget every path agrees on the confidence.
        let exact_p = 1.0 - 0.75f64.powi(8);
        let we_full =
            crate::elimination::confidence_by_elimination(&cond_set, db.world_table()).unwrap();
        assert!((we_full.probability - exact_p).abs() < 1e-12);
        for options in [
            ConditioningOptions::default(),
            ConditioningOptions::paper_fig8(),
        ] {
            let result = condition(&db, &cond_set, &options).unwrap();
            assert!(
                (result.confidence - exact_p).abs() < 1e-12,
                "method {:?} confidence {}",
                options.method,
                result.confidence
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

        // condition_all on [B1, B2] (both over the *prior* table) is the
        // single-pass equivalent: same confidence as the product, same
        // posterior instance distribution.
        let b2 = WsSet::from_descriptors(vec![
            WsDescriptor::from_pairs(db.world_table(), &[(y, 1)]).unwrap(),
            WsDescriptor::from_pairs(db.world_table(), &[(y, 2)]).unwrap(),
        ]);
        let joint = condition_all(&db, &[b1.clone(), b2.clone()], &opts).unwrap();
        assert_confidence_matches_the_fold(&db, &intersect_conditions(&[b1, b2]));
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
        for old in result.prior_remap.keys() {
            assert!(!result.touched_variables.contains(old));
        }
        // …and every remapped variable is a verbatim copy in the posterior.
        for (&old, &new) in &result.prior_remap {
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
        let new_b = result.prior_remap[&b];
        let before = db.world_table().variable(b).unwrap();
        let after = result.db.world_table().variable(new_b).unwrap();
        assert_eq!(before.name, after.name);
        assert_eq!(before.values, after.values);
        assert!(before
            .probabilities
            .iter()
            .zip(&after.probabilities)
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
        assert_eq!(raw.prior_remap[&b], b);
        assert!(!raw.prior_remap.contains_key(&j));
    }

    #[test]
    fn intersect_conditions_edge_cases() {
        let (db, cond_set) = ssn_db_and_condition();
        // Empty slice: the universal set (the empty conjunction).
        assert!(intersect_conditions(&[]).contains_universal());
        // Singleton: a normalised copy.
        assert_eq!(
            intersect_conditions(std::slice::from_ref(&cond_set)),
            cond_set.normalized()
        );
        // Conjunction with the universal set is a no-op (modulo
        // normalisation).
        assert_eq!(
            intersect_conditions(&[WsSet::universal(), cond_set.clone()]),
            cond_set.normalized()
        );
        // Contradictory conditions intersect to the empty set, and
        // condition_all reports the typed error.
        let table = db.world_table();
        let j = table.variable_by_name("j").unwrap();
        let j1 = WsSet::from_descriptors(vec![WsDescriptor::from_pairs(table, &[(j, 1)]).unwrap()]);
        let j7 = WsSet::from_descriptors(vec![WsDescriptor::from_pairs(table, &[(j, 7)]).unwrap()]);
        assert!(intersect_conditions(&[j1.clone(), j7.clone()]).is_empty());
        assert_eq!(
            condition_all(&db, &[j1, j7], &ConditioningOptions::default()).unwrap_err(),
            CoreError::EmptyCondition
        );
        // condition_all on no conditions is the identity.
        let identity = condition_all(&db, &[], &ConditioningOptions::default()).unwrap();
        assert!((identity.confidence - 1.0).abs() < 1e-12);
    }
}
