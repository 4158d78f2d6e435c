//! Cross-snapshot cache inheritance proptests — the invalidation
//! contract of `DESIGN.md`:
//!
//! 1. every entry carried forward by
//!    [`SharedDecompositionCache::inherit_from`] answers probes with a
//!    probability **bit-identical** to recomputing the remapped ws-set
//!    from scratch on the new snapshot (and to the predecessor cache's
//!    answer on the old snapshot);
//! 2. every entry whose key mentions a **touched** variable — or a
//!    variable the remap does not cover — is dropped, never inherited;
//! 3. the outcome accounting is total: `inherited + dropped` equals the
//!    predecessor's entry count.
//!
//! The remap under test is the one production produces: a monotone dense
//! renumbering from [`WorldTable::retain_variables`] (the simplification
//! step of conditioning), which copies each surviving variable's name,
//! domain and distribution verbatim.

use std::collections::BTreeSet;

use proptest::prelude::*;
use uprob::prelude::*;
use uprob::wsd::FxHashMap;
use uprob_datagen::arb_constraint_case;

/// Remaps `set` through `remap`, translating value indexes back to
/// domain values via the old table. Returns `None` when some mentioned
/// variable has no image (such a set cannot exist under the new table).
fn remapped_set(
    set: &WsSet,
    old_table: &WorldTable,
    new_table: &WorldTable,
    remap: &FxHashMap<VarId, VarId>,
) -> Option<WsSet> {
    let domains: Vec<&[DomainValue]> = old_table.iter().map(|(_, info)| info.values).collect();
    let mut out = WsSet::empty();
    for descriptor in set.iter() {
        let mut pairs: Vec<(VarId, DomainValue)> = Vec::with_capacity(descriptor.len());
        for assignment in descriptor.iter() {
            let new_var = *remap.get(&assignment.var)?;
            let value = domains[assignment.var.index()][assignment.value.index()];
            pairs.push((new_var, value));
        }
        out.push(WsDescriptor::from_pairs(new_table, &pairs).ok()?);
    }
    Some(out)
}

/// The ws-sets a serving layer would have warmed on this database: each
/// relation's membership set and each constraint's violation set.
fn warm_sets(db: &ProbDb, constraints: &[Constraint]) -> Vec<WsSet> {
    let mut sets = Vec::new();
    for name in db.relation_names() {
        let relation = db.relation(&name).unwrap();
        let membership: Vec<WsDescriptor> = relation.iter().map(|(_, d)| d.clone()).collect();
        sets.push(WsSet::from_descriptors(membership));
    }
    for constraint in constraints {
        sets.push(constraint.violation_ws_set(db).unwrap());
    }
    sets.retain(|s| !s.is_empty() && !s.contains_universal());
    sets
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Simulated publish: keep a random subset of variables (the dense
    /// `retain_variables` renumbering production uses) and mark a random
    /// subset of the survivors as touched. Inherited entries probe
    /// bit-identically to a from-scratch recompute; touched entries are
    /// dropped; the accounting is total.
    #[test]
    fn inherited_entries_are_bit_identical_and_touched_entries_are_dropped(
        (case, drop_bits, touch_bits) in (arb_constraint_case(), 0..=255u32, 0..=255u32)
    ) {
        let db = case.build_db();
        let constraints = case.build_constraints(&db);
        let table = db.world_table();
        let options = DecompositionOptions::default();

        // Warm the predecessor cache.
        let cache = SharedDecompositionCache::new();
        let sets = warm_sets(&db, &constraints);
        for set in &sets {
            confidence_parallel(
                set,
                table,
                &options,
                &ParallelOptions::sequential(),
                Some(&cache),
            )
            .unwrap();
        }
        let warmed_entries = cache.stats().entries;

        // The simulated publish: variable i is dropped when bit i of
        // `drop_bits` is set; a surviving variable is touched when bit i
        // of `touch_bits` is set.
        let dropped: BTreeSet<VarId> = table
            .iter()
            .map(|(var, _)| var)
            .filter(|var| var.index() < 32 && drop_bits & (1 << var.index()) != 0)
            .collect();
        let (new_table, remap) = table.retain_variables(|var, _| !dropped.contains(&var));
        let mut touched: Vec<VarId> = table
            .iter()
            .map(|(var, _)| var)
            .filter(|var| {
                !dropped.contains(var) && var.index() < 32 && touch_bits & (1 << var.index()) != 0
            })
            .collect();
        touched.sort_unstable();

        let inherited = SharedDecompositionCache::new();
        let outcome = inherited
            .inherit_from(&cache, table, &new_table, &remap, &touched)
            .unwrap();

        // 3. Total accounting.
        prop_assert_eq!(outcome.inherited + outcome.dropped, warmed_entries);
        prop_assert_eq!(inherited.stats().inherited_entries, outcome.inherited);

        for set in &sets {
            let vars: Vec<VarId> = set.variables().into_iter().collect();
            if vars.iter().any(|v| dropped.contains(v)) {
                // No image exists under the new table; such entries can
                // only be dropped, which the accounting above covers.
                continue;
            }
            let image = remapped_set(set, table, &new_table, &remap)
                .expect("every surviving variable has an image");
            let probe = inherited.probe(&image);
            if vars.iter().any(|v| touched.binary_search(v).is_ok()) {
                // 2. Touched entries must never be inherited.
                prop_assert!(
                    probe.is_none(),
                    "entry mentioning a touched variable survived inheritance"
                );
            } else if let Some(old_p) = cache.probe(set) {
                // 1. Inherited entries are bit-identical to the old answer
                // and to a from-scratch recompute on the new snapshot.
                let new_p = probe.expect("untouched, fully-mapped entry must be inherited");
                prop_assert_eq!(old_p.to_bits(), new_p.to_bits());
                let fresh = confidence(&image, &new_table, &options).unwrap();
                prop_assert_eq!(new_p.to_bits(), fresh.probability.to_bits());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The production remap: conditioning via `assert_all` reports
    /// `prior_remap` and `touched_variables`; inheriting through them
    /// never produces a probe that disagrees with a from-scratch
    /// recompute on the posterior snapshot.
    #[test]
    fn production_conditioning_remap_inherits_soundly(case in arb_constraint_case()) {
        let db = case.build_db();
        let constraints = case.build_constraints(&db);
        let table = db.world_table();
        let options = DecompositionOptions::default();

        let cache = SharedDecompositionCache::new();
        let sets = warm_sets(&db, &constraints);
        for set in &sets {
            confidence_parallel(
                set,
                table,
                &options,
                &ParallelOptions::sequential(),
                Some(&cache),
            )
            .unwrap();
        }

        let conditioned = match assert_all(&db, &constraints, &ConditioningOptions::default()) {
            Ok(c) => c,
            Err(_) => return Ok(()), // Unsatisfiable: nothing to publish.
        };
        let new_table = conditioned.db.world_table();
        let inherited = SharedDecompositionCache::new();
        let outcome = inherited
            .inherit_from(
                &cache,
                table,
                new_table,
                &conditioned.prior_remap,
                &conditioned.touched_variables,
            )
            .unwrap();
        prop_assert_eq!(outcome.inherited + outcome.dropped, cache.stats().entries);

        for set in &sets {
            let vars: Vec<VarId> = set.variables().into_iter().collect();
            let touched = |v: &VarId| conditioned.touched_variables.binary_search(v).is_ok();
            if vars.iter().any(|v| touched(v) || !conditioned.prior_remap.contains_key(v)) {
                continue; // No image under the posterior table.
            }
            let image = remapped_set(set, table, new_table, &conditioned.prior_remap)
                .expect("every surviving variable has an image");
            if let (Some(old_p), Some(new_p)) = (cache.probe(set), inherited.probe(&image)) {
                prop_assert_eq!(old_p.to_bits(), new_p.to_bits());
                let fresh = confidence(&image, new_table, &options).unwrap();
                prop_assert_eq!(new_p.to_bits(), fresh.probability.to_bits());
            }
        }
    }
}
