//! The oracle [`crate::condition`] is differentially tested against —
//! test-only code, compiled under `cfg(test)` alone.
//!
//! [`condition`] is Figure 8 read literally: the descriptors of every row of
//! every U-relation are threaded through the recursion — filtered and
//! extended on the way into each ⊕ alternative, copied into each ⊗ part,
//! rewritten on the way back — and the three simplifications of Section 5
//! then run one after the other over the materialised posterior. Its cost is
//! `O(nodes × rows)`; the product twin decomposes the condition once and
//! joins the rows against its leaves, and must return the same
//! [`Conditioned`] field for field as the oracle's VE-only mode.
//!
//! The oracle's other mode, [`DecompositionMethod::IndVe`], is the paper's
//! Figure 8 with its ⊗ rule: each independent part of the condition is
//! conditioned against the full U-relation and the results are unioned.
//! That rule does not preserve marginals (DESIGN.md, "The ⊗-rule marginals
//! caveat"), so the product does not implement it; `tests` pins the
//! caveat, and `conditioning::tests` the paper's examples on which the two
//! agree.

use std::collections::{BTreeMap, BTreeSet};

use uprob_urel::{ProbDb, Tuple, URelation};
use uprob_wsd::{
    DomainValue, FxHashMap, NeumaierSum, ValueIndex, VarId, WorldTable, WsDescriptor, WsSet,
};

use crate::conditioning::{Conditioned, ConditioningOptions};
use crate::decompose::{Decomposer, DecompositionMethod, DecompositionOptions, DecompositionStep};
use crate::error::CoreError;
use crate::Result;

/// Row identity used while threading U-relation descriptors through the
/// recursion: `(relation index, row index)`.
type RowId = (usize, usize);

/// A set of descriptors tagged with the row they belong to. A row can give
/// rise to several descriptors in the output (one per surviving branch).
type TaggedSet = Vec<(RowId, WsDescriptor)>;

/// The rows of one posterior relation while they are being simplified.
type Rows = Vec<(Tuple, WsDescriptor)>;

struct Conditioner<'a> {
    decomposer: Decomposer<'a>,
    /// The output world table: the input table plus the fresh variables.
    new_table: WorldTable,
    /// For every fresh variable: the variable it was derived from.
    sources: Vec<(VarId, VarId)>,
}

impl Conditioner<'_> {
    /// The recursive `cond` function of Figure 8, operating on the ws-set of
    /// the condition (decomposed on the fly) and the tagged descriptors of
    /// the U-relations.
    fn cond(&mut self, set: &WsSet, u: TaggedSet, depth: u64) -> Result<(f64, TaggedSet)> {
        match self.decomposer.step(set, depth)? {
            DecompositionStep::Empty => Ok((0.0, Vec::new())),
            DecompositionStep::Universal => Ok((1.0, u)),
            DecompositionStep::Partition(parts) => {
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
        let mut child_sets: Vec<Option<&WsSet>> = vec![None; source_info.domain_size()];
        for (value, child) in branches {
            child_sets[value.index()] = Some(child);
        }
        if !tail.is_empty() {
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
        let fresh_name = self.new_table.fresh_name(source_info.name);
        let alternatives: Vec<(DomainValue, f64)> = results
            .iter()
            .map(|b| {
                let label = source_info.values[b.value.index()];
                (label, b.weight * b.confidence / total)
            })
            .collect();
        let fresh = self.new_table.add_variable(&fresh_name, &alternatives)?;
        self.sources.push((fresh, var));
        // Rewrite: replace `var -> old value` by `var' -> new index`.
        let mut merged: TaggedSet = Vec::new();
        for (new_index, branch) in results.into_iter().enumerate() {
            for (row, mut descriptor) in branch.rewritten {
                descriptor.remove(var);
                descriptor
                    .assign(fresh, ValueIndex(new_index as u16))
                    .expect("fresh variable cannot already occur in the descriptor");
                merged.push((row, descriptor));
            }
        }
        Ok((total, merged))
    }
}

/// Conditions `db` on `condition` by the literal row-threading recursion,
/// decomposing the condition with `method`. Under
/// [`DecompositionMethod::VeOnly`] this has the contract, errors and result
/// of [`crate::condition`], asymptotically slower; under
/// [`DecompositionMethod::IndVe`] it is Figure 8 with the ⊗ rule.
///
/// # Errors
///
/// Same as [`crate::condition`].
pub fn condition(
    db: &ProbDb,
    condition: &WsSet,
    options: &ConditioningOptions,
    method: DecompositionMethod,
) -> Result<Conditioned> {
    let table = db.world_table();
    let decomposition = DecompositionOptions {
        method,
        heuristic: options.heuristic,
        node_budget: options.node_budget,
    };
    let mut conditioner = Conditioner {
        decomposer: Decomposer::new(table, decomposition),
        new_table: table.clone(),
        sources: Vec::new(),
    };

    let mut tagged: TaggedSet = Vec::new();
    for (rel_index, relation) in db.relations().enumerate() {
        for (row_index, (_, descriptor)) in relation.iter().enumerate() {
            tagged.push(((rel_index, row_index), descriptor.clone()));
        }
    }
    let (confidence, rewritten) = conditioner.cond(condition, tagged, 1)?;
    if confidence <= 0.0 || confidence.is_nan() {
        return Err(CoreError::EmptyCondition);
    }
    let Conditioner {
        decomposer,
        new_table,
        sources,
    } = conditioner;

    // Group the rewritten descriptors by row and rebuild the relations.
    let mut per_row: BTreeMap<RowId, Vec<WsDescriptor>> = BTreeMap::new();
    for (row, descriptor) in rewritten {
        per_row.entry(row).or_default().push(descriptor);
    }
    let mut relations: Vec<Rows> = Vec::new();
    for (rel_index, relation) in db.relations().enumerate() {
        let mut rows = Rows::new();
        for (row_index, (tuple, _)) in relation.iter().enumerate() {
            for descriptor in per_row.remove(&(rel_index, row_index)).unwrap_or_default() {
                rows.push((tuple.clone(), descriptor));
            }
        }
        relations.push(rows);
    }

    let mut touched_variables: Vec<VarId> = sources.iter().map(|&(_, source)| source).collect();
    touched_variables.sort();
    touched_variables.dedup();

    let (posterior_table, mapping) = if options.simplify {
        merge_equivalent_variables(&mut relations, &new_table, &sources);
        drop_singleton_assignments(&mut relations, &new_table);
        drop_unused_variables(&mut relations, &new_table)
    } else {
        let identity = new_table.variable_ids().map(|v| (v, v)).collect();
        (new_table, identity)
    };
    let prior_vars = table.num_variables() as u32;
    let prior_remap: FxHashMap<VarId, VarId> = mapping
        .sorted_entries()
        .into_iter()
        .filter(|(old, _)| old.0 < prior_vars && touched_variables.binary_search(old).is_err())
        .map(|(&old, &new)| (old, new))
        .collect();

    let mut out = ProbDb::with_world_table(posterior_table);
    for (relation, rows) in db.relations().zip(relations) {
        let mut posterior = URelation::new(relation.schema().clone());
        for (tuple, descriptor) in rows {
            posterior.push(tuple, descriptor);
        }
        out.replace_relation(posterior);
    }
    Ok(Conditioned {
        db: out,
        confidence,
        stats: decomposer.stats,
        new_variables: sources.len(),
        touched_variables,
        prior_remap,
    })
}

/// Optimisation (3): merge fresh variables with the same source, the same
/// alternatives and the same weights.
fn merge_equivalent_variables(
    relations: &mut [Rows],
    table: &WorldTable,
    sources: &[(VarId, VarId)],
) {
    const EPSILON: f64 = 1e-12;
    let mut canonical: BTreeMap<VarId, VarId> = BTreeMap::new();
    let mut representatives: Vec<(VarId, VarId)> = Vec::new(); // (source, representative)
    for &(fresh, source) in sources {
        let info = table.variable(fresh).expect("fresh variable exists");
        let merged_into = representatives
            .iter()
            .filter(|&&(other_source, _)| other_source == source)
            .map(|&(_, representative)| representative)
            .find(|&representative| {
                let rep_info = table
                    .variable(representative)
                    .expect("representative variable exists");
                rep_info.values == info.values
                    && rep_info.probabilities.len() == info.probabilities.len()
                    && rep_info
                        .probabilities
                        .iter()
                        .zip(info.probabilities)
                        .all(|(a, b)| (a - b).abs() < EPSILON)
            });
        match merged_into {
            Some(representative) => {
                canonical.insert(fresh, representative);
            }
            None => representatives.push((source, fresh)),
        }
    }
    for (_, descriptor) in relations.iter_mut().flatten() {
        for (&from, &to) in &canonical {
            // Rename `from` to `to`, keeping the value; an existing
            // assignment of `to` wins.
            if let Some(value) = descriptor.get(from) {
                descriptor.remove(from);
                if !descriptor.defines(to) {
                    descriptor
                        .assign(to, value)
                        .expect("`to` was just checked to be unassigned");
                }
            }
        }
    }
}

/// Optimisation (2): assignments of variables with a single alternative
/// (probability 1) are removed from every descriptor.
fn drop_singleton_assignments(relations: &mut [Rows], table: &WorldTable) {
    let singletons: Vec<VarId> = table
        .iter()
        .filter(|(_, info)| info.domain_size() == 1)
        .map(|(var, _)| var)
        .collect();
    for (_, descriptor) in relations.iter_mut().flatten() {
        for var in &singletons {
            descriptor.remove(*var);
        }
    }
}

/// Optimisation (1): rebuild the world table with only the variables that
/// still occur in some U-relation, remapping the descriptors. Returns the
/// new table and the old → new mapping of the kept variables.
fn drop_unused_variables(
    relations: &mut [Rows],
    table: &WorldTable,
) -> (WorldTable, FxHashMap<VarId, VarId>) {
    let used: BTreeSet<VarId> = relations
        .iter()
        .flatten()
        .flat_map(|(_, descriptor)| descriptor.variables())
        .collect();
    let (new_table, mapping) = table.retain_variables(|var, _| used.contains(&var));
    for (_, descriptor) in relations.iter_mut().flatten() {
        let mut rebuilt = WsDescriptor::empty();
        for a in descriptor.iter() {
            rebuilt
                .assign(
                    *mapping.get(&a.var).expect("every used variable is kept"),
                    a.value,
                )
                .expect("remapping preserves functionality");
        }
        *descriptor = rebuilt;
    }
    (new_table, mapping)
}

#[cfg(test)]
mod tests {
    //! The differential conditioning harness: on randomly generated small
    //! U-relational databases and random condition ws-sets
    //! (`uprob_datagen::random`), the product [`crate::condition`] — which
    //! decomposes the condition once and joins every row against the leaves
    //! of its ws-tree — must return the **same object** as the oracle's
    //! VE-only mode: the same confidence bits, counters, fresh/touched
    //! variables, `prior_remap`, world table (names, domains, probability
    //! bits, ids) and the same rows in the same order, with the Section 5
    //! simplifications on and off — and the same typed error when there is
    //! no posterior or the node budget runs out.
    //!
    //! All randomness is driven by the (deterministic, pinned-seed) vendored
    //! proptest runner; a failing case prints the full `SmallInstanceRecipe`,
    //! which reproduces the database exactly via `database_of(&recipe.build())`.
    //! The two proptests skip under Miri: 256 cases each are far too slow
    //! there, and the unit tests of `conditioning` cover the same code.

    use std::result::Result;

    use super::*;
    use crate::conditioning::tests::{bayes_posterior, instance_distribution, x_or_y_db};
    use proptest::prelude::*;
    use uprob_datagen::{arb_small_recipe, SmallInstance};
    use uprob_urel::{ColumnType, Schema, Value};
    use uprob_wsd::VariableInfo;

    const VE: DecompositionMethod = DecompositionMethod::VeOnly;

    /// A two-relation database over the instance's world table, extended with
    /// one single-alternative variable `one`:
    ///
    /// * `R(ID)`: one row per descriptor of the instance's query ws-set, every
    ///   other one also carrying `one -> 0` (simplification (2) must drop it
    ///   even though no condition mentions it);
    /// * `S(ID, TAG)`: the certain row, then one row per descriptor of the
    ///   condition itself, last first — rows that agree with some leaf of the
    ///   condition's ws-tree on every variable and contradict others.
    fn database_of(instance: &SmallInstance) -> ProbDb {
        let mut db = ProbDb::with_world_table(instance.table.clone());
        let one = db
            .world_table_mut()
            .add_variable("one", &[(0, 1.0)])
            .unwrap();
        let mut r = db
            .create_relation(Schema::new("R", &[("ID", ColumnType::Int)]))
            .unwrap();
        for (id, descriptor) in instance.query.iter().enumerate() {
            let mut descriptor = descriptor.clone();
            if id % 2 == 1 {
                descriptor.assign(one, ValueIndex(0)).unwrap();
            }
            r.push(Tuple::new(vec![Value::Int(id as i64)]), descriptor);
        }
        db.insert_relation(r).unwrap();
        let mut s = db
            .create_relation(Schema::new(
                "S",
                &[("ID", ColumnType::Int), ("TAG", ColumnType::Str)],
            ))
            .unwrap();
        s.push(
            Tuple::new(vec![Value::Int(-1), Value::str("certain")]),
            WsDescriptor::empty(),
        );
        let condition: Vec<&WsDescriptor> = instance.condition.iter().collect();
        for (id, descriptor) in condition.into_iter().rev().enumerate() {
            s.push(
                Tuple::new(vec![Value::Int(id as i64), Value::str("condition")]),
                descriptor.clone(),
            );
        }
        db.insert_relation(s).unwrap();
        db
    }

    /// Field-by-field equality of two conditioning results; floats by bits.
    fn assert_same_posterior(got: &Conditioned, want: &Conditioned) -> Result<(), TestCaseError> {
        prop_assert_eq!(got.confidence.to_bits(), want.confidence.to_bits());
        prop_assert_eq!(&got.stats, &want.stats);
        prop_assert_eq!(got.new_variables, want.new_variables);
        prop_assert_eq!(&got.touched_variables, &want.touched_variables);
        prop_assert_eq!(&got.prior_remap, &want.prior_remap);

        let (got_table, want_table) = (got.db.world_table(), want.db.world_table());
        prop_assert_eq!(got_table.num_variables(), want_table.num_variables());
        for ((got_id, got_info), (want_id, want_info)) in got_table.iter().zip(want_table.iter()) {
            prop_assert_eq!(got_id, want_id);
            prop_assert_eq!(&got_info.name, &want_info.name);
            prop_assert_eq!(&got_info.values, &want_info.values);
            let bits = |info: VariableInfo<'_>| -> Vec<u64> {
                info.probabilities.iter().map(|p| p.to_bits()).collect()
            };
            prop_assert_eq!(
                bits(got_info),
                bits(want_info),
                "variable {}",
                &got_info.name
            );
            prop_assert_eq!(got_table.variable_by_name(got_info.name), Some(got_id));
        }

        prop_assert_eq!(got.db.relation_names(), want.db.relation_names());
        for (got_relation, want_relation) in got.db.relations().zip(want.db.relations()) {
            prop_assert_eq!(got_relation.schema(), want_relation.schema());
            prop_assert_eq!(got_relation.rows(), want_relation.rows());
        }
        prop_assert!(got.db.validate().is_ok());
        Ok(())
    }

    /// Both sides succeed with the same posterior or fail with the same error.
    fn assert_same_outcome(
        got: Result<Conditioned, CoreError>,
        want: Result<Conditioned, CoreError>,
        options: &ConditioningOptions,
    ) -> Result<(), TestCaseError> {
        match (got, want) {
            (Ok(got), Ok(want)) => assert_same_posterior(&got, &want),
            (Err(got), Err(want)) => {
                prop_assert_eq!(got, want);
                Ok(())
            }
            (got, want) => {
                prop_assert!(
                    false,
                    "{options:?}: product {:?}, reference {:?}",
                    got.map(|c| c.confidence),
                    want.map(|c| c.confidence)
                );
                Ok(())
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `condition` ≡ the oracle's VE-only mode, field by field.
        #[test]
        #[cfg_attr(miri, ignore)]
        fn the_leaf_join_is_the_row_threading_recursion(recipe in arb_small_recipe()) {
            let instance = recipe.build();
            let db = database_of(&instance);
            for simplify in [true, false] {
                for node_budget in [None, Some(3)] {
                    let options = ConditioningOptions {
                        simplify,
                        node_budget,
                        ..Default::default()
                    };
                    let got = crate::condition(&db, &instance.condition, &options);
                    let want = condition(&db, &instance.condition, &options, VE);
                    assert_same_outcome(got, want, &options)?;
                }
            }
        }

        /// The posterior of a posterior: conditioning the product's output again
        /// (fresh names colliding with `v0'`-style names already in the table,
        /// renumbered prior ids) still matches the oracle.
        #[test]
        #[cfg_attr(miri, ignore)]
        fn conditioning_a_posterior_matches_too(recipe in arb_small_recipe()) {
            let instance = recipe.build();
            let db = database_of(&instance);
            let raw = ConditioningOptions { simplify: false, ..Default::default() };
            let Ok(first) = crate::condition(&db, &instance.condition, &raw) else {
                return Ok(());
            };
            // The instance's query set only mentions prior variables, which the
            // unsimplified posterior keeps at their ids.
            for options in [raw, ConditioningOptions::default()] {
                let got = crate::condition(&first.db, &instance.query, &options);
                let want = condition(&first.db, &instance.query, &options, VE);
                assert_same_outcome(got, want, &options)?;
            }
        }
    }

    /// DESIGN.md, "The ⊗-rule marginals caveat": the condition
    /// `x = 1 ∨ y = 1` splits into two independent parts, and Figure 8's ⊗
    /// rule conditions each part as if it alone held — every row is
    /// rewritten once with `x` fixed to 1 and once with `y` fixed to 1 — and
    /// unions the results. That makes every row certain, `S(1)` included,
    /// whose Bayes posterior is 0.5 / 0.75. `condition` (VE-only) is the
    /// Bayes posterior.
    #[test]
    fn the_figure_8_rule_misses_the_posterior_of_a_disjunction() {
        let (db, cond_set) = x_or_y_db();
        let options = ConditioningOptions::default();
        let bayes = bayes_posterior(&db, &cond_set);
        let product = crate::condition(&db, &cond_set, &options).unwrap();
        let fig8 = condition(&db, &cond_set, &options, DecompositionMethod::IndVe).unwrap();
        // The condition's confidence is the same on both: only the rewrite
        // differs.
        assert_eq!(product.confidence.to_bits(), fig8.confidence.to_bits());
        assert!((fig8.confidence - 0.75).abs() < 1e-12);

        let close = |got: &BTreeMap<String, f64>| {
            got.len() == bayes.len()
                && bayes
                    .iter()
                    .all(|(key, p)| got.get(key).is_some_and(|q| (p - q).abs() < 1e-9))
        };
        assert!(close(&instance_distribution(&product.db)));
        let fig8_posterior = instance_distribution(&fig8.db);
        assert!(!close(&fig8_posterior), "Figure 8: {fig8_posterior:?}");
        // Every row is certain after the ⊗ rule: one deterministic instance.
        assert_eq!(fig8_posterior.len(), 1, "{fig8_posterior:?}");
    }
}
