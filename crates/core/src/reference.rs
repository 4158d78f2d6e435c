//! The reference implementation [`crate::condition`] is differentially
//! tested against — an oracle, **not** product API.
//!
//! Nothing on the product path calls into this module; it is imported only
//! by tests and the differential suite `tests/conditioning_equivalence.rs`.
//!
//! [`condition`] is Figure 8 read literally: the descriptors of every row of
//! every U-relation are threaded through the recursion — filtered and
//! extended on the way into each ⊕ alternative, copied into each ⊗ part,
//! rewritten on the way back — and the three simplifications of Section 5
//! then run one after the other over the materialised posterior. Its cost is
//! `O(nodes × rows)`; the product twin decomposes the condition once and
//! joins the rows against its leaves, and must return the same
//! [`Conditioned`] field for field.

#![expect(
    clippy::expect_used,
    clippy::indexing_slicing,
    reason = "oracle code: each site restates an invariant of the recursion (fresh variables are new, values index their own variable's domain, the retained-variable map covers every surviving assignment)"
)]

use std::collections::{BTreeMap, BTreeSet};

use uprob_urel::{ProbDb, Tuple, URelation};
use uprob_wsd::{
    DomainValue, FxHashMap, NeumaierSum, ValueIndex, VarId, WorldTable, WsDescriptor, WsSet,
};

use crate::conditioning::{Conditioned, ConditioningMethod, ConditioningOptions};
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
        let fresh_name = self.new_table.fresh_name(&source_info.name);
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

/// Conditions `db` on `condition` by the literal row-threading recursion.
/// Same contract, errors and result as [`crate::condition`], asymptotically
/// slower.
///
/// # Errors
///
/// Same as [`crate::condition`].
pub fn condition(
    db: &ProbDb,
    condition: &WsSet,
    options: &ConditioningOptions,
) -> Result<Conditioned> {
    let table = db.world_table();
    let decomposition = DecompositionOptions {
        method: match options.method {
            ConditioningMethod::Exact => DecompositionMethod::VeOnly,
            ConditioningMethod::PaperFig8 => DecompositionMethod::IndVe,
        },
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
        .into_iter()
        .filter(|(old, _)| old.0 < prior_vars && touched_variables.binary_search(old).is_err())
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
                        .zip(&info.probabilities)
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
                .assign(mapping[&a.var], a.value)
                .expect("remapping preserves functionality");
        }
        *descriptor = rebuilt;
    }
    (new_table, mapping)
}
