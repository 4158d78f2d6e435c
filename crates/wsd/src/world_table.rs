//! The world table `W`: independent finite-domain random variables.
//!
//! A [`WorldTable`] is the relational representation of the set of possible
//! worlds used throughout the paper (Section 2): it stores, for every
//! variable `x`, the finite domain `Dom_x` and the probability
//! `P({x -> i})` of each assignment, such that the probabilities of all
//! assignments of a variable sum to one.
//!
//! The table is columnar: one offsets column delimits each variable's run
//! in flat label and weight columns, the names share one arena, and a
//! [`VariableInfo`] is a borrowed view of one variable's runs.

use std::collections::hash_map::Entry;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Range;

use crate::error::WsdError;
use crate::fast_hash::{FxHashMap, FxHashSet, FxHasher};
use crate::numeric::{compensated_sum, NeumaierSum};
use crate::stamped::Stamped;
use crate::value::{DomainValue, ValueIndex, VarId};
use crate::Result;

/// Tolerance used when checking that a distribution sums to one.
pub const NORMALIZATION_TOLERANCE: f64 = 1e-6;

/// Domain and probability distribution of a single random variable: a view
/// into the columns of its [`WorldTable`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct VariableInfo<'a> {
    /// Human-readable name (unique within a world table).
    pub name: &'a str,
    /// External labels of the domain values, in registration order.
    pub values: &'a [DomainValue],
    /// `probabilities[i]` is `P({x -> values[i]})`.
    pub probabilities: &'a [f64],
}

impl VariableInfo<'_> {
    /// Number of alternatives of this variable.
    #[inline]
    pub fn domain_size(&self) -> usize {
        self.values.len()
    }

    /// Position of `value` in the domain, if present.
    fn index_of(&self, value: DomainValue) -> Option<ValueIndex> {
        self.values
            .iter()
            .position(|&v| v == value)
            .map(|i| ValueIndex(i as u16))
    }
}

/// A set of independent random variables over finite domains together with
/// their probability distributions (the relation `W` of the paper).
#[derive(Clone, Debug)]
pub struct WorldTable {
    /// The variables under one content stamp: refreshed on every mutation,
    /// shared by (unmutated) clones. Equal stamps imply identical contents,
    /// which lets memo caches detect in O(1) that they are being reused
    /// across a different (or conditioned, hence re-numbered) database.
    contents: Stamped<Contents>,
}

/// What a world table's stamp covers: the variables, in columns. Variable
/// `v`'s alternatives sit at `offsets[v]..offsets[v + 1]` of `labels` and
/// `weights`, and its name at `name_offsets[v]..name_offsets[v + 1]` of
/// `names`; both offset columns start at 0 and hold one entry more than
/// there are variables.
///
/// The name index keeps no copy of a name: `by_name` maps a name's
/// [`name_hash`] to the first variable registered under that hash, every
/// hit is confirmed against the arena, and a later name whose hash is
/// taken goes on the `collided` list.
#[derive(Clone, Debug)]
struct Contents {
    offsets: Vec<u32>,
    labels: Vec<DomainValue>,
    weights: Vec<f64>,
    name_offsets: Vec<u32>,
    names: String,
    by_name: FxHashMap<u64, VarId>,
    collided: Vec<VarId>,
}

impl Default for Contents {
    fn default() -> Self {
        Contents {
            offsets: vec![0],
            labels: Vec::new(),
            weights: Vec::new(),
            name_offsets: vec![0],
            names: String::new(),
            by_name: FxHashMap::default(),
            collided: Vec::new(),
        }
    }
}

/// The key of `name` in the name index. The unit tests keep two bits of
/// it, so their tables collide and exercise the `collided` list.
fn name_hash(name: &str) -> u64 {
    let mut hasher = FxHasher::default();
    name.hash(&mut hasher);
    let hash = hasher.finish();
    if cfg!(test) {
        hash & 0b11
    } else {
        hash
    }
}

/// `offsets[index]..offsets[index + 1]`, if both entries exist.
#[inline]
fn span(offsets: &[u32], index: usize) -> Option<Range<usize>> {
    match *offsets.get(index..index + 2)? {
        [start, end] => Some(start as usize..end as usize),
        _ => None,
    }
}

impl Contents {
    fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Appends a variable. The callers check that its name is new and that
    /// the columns stay within `u32` offsets.
    fn push(
        &mut self,
        name: &str,
        labels: impl Iterator<Item = DomainValue>,
        weights: impl Iterator<Item = f64>,
    ) -> VarId {
        let id = VarId(self.len() as u32);
        if let Entry::Vacant(slot) = self.by_name.entry(name_hash(name)) {
            slot.insert(id);
        } else {
            self.collided.push(id);
        }
        self.names.push_str(name);
        self.name_offsets.push(self.names.len() as u32);
        self.labels.extend(labels);
        self.weights.extend(weights);
        self.offsets.push(self.labels.len() as u32);
        id
    }

    fn name(&self, var: VarId) -> Option<&str> {
        self.names.get(span(&self.name_offsets, var.index())?)
    }

    /// The variable registered under `name`, if any.
    fn by_name(&self, name: &str) -> Option<VarId> {
        let first = *self.by_name.get(&name_hash(name))?;
        let named = |&var: &VarId| self.name(var) == Some(name);
        std::iter::once(first)
            .chain(self.collided.iter().copied())
            .find(named)
    }

    fn view(&self, var: VarId) -> Option<VariableInfo<'_>> {
        let alternatives = span(&self.offsets, var.index())?;
        Some(VariableInfo {
            name: self.name(var)?,
            values: self.labels.get(alternatives.clone())?,
            probabilities: self.weights.get(alternatives)?,
        })
    }
}

impl Default for WorldTable {
    fn default() -> Self {
        WorldTable {
            contents: Stamped::new(Contents::default()),
        }
    }
}

impl WorldTable {
    /// Creates an empty world table (it represents exactly one world).
    pub fn new() -> Self {
        WorldTable::default()
    }

    /// The content stamp of this table: refreshed on every mutation and
    /// shared only with unmutated clones, so equal stamps imply identical
    /// variables and distributions. Used by the decomposition cache to
    /// reject reuse across different databases.
    #[inline]
    pub fn stamp(&self) -> u64 {
        self.contents.stamp()
    }

    /// Registers a new variable with the given `(value, probability)`
    /// alternatives.
    ///
    /// The probabilities must be in `[0, 1]` and sum to one (within
    /// [`NORMALIZATION_TOLERANCE`]). A failed registration leaves the table
    /// and its stamp as they were.
    ///
    /// # Errors
    ///
    /// Returns an error if the domain is empty, too large or contains
    /// duplicate values, the name is already taken, a probability is out
    /// of range or the distribution is not normalised.
    pub fn add_variable(
        &mut self,
        name: &str,
        alternatives: &[(DomainValue, f64)],
    ) -> Result<VarId> {
        if alternatives.is_empty() {
            return Err(WsdError::EmptyDomain {
                name: name.to_string(),
            });
        }
        let fits = |column: usize, more: usize| u32::try_from(column + more).is_ok();
        if alternatives.len() > u16::MAX as usize
            || !fits(self.contents.labels.len(), alternatives.len())
            || !fits(self.contents.names.len(), name.len())
        {
            return Err(WsdError::DomainTooLarge {
                name: name.to_string(),
                size: alternatives.len(),
            });
        }
        if self.contents.by_name(name).is_some() {
            return Err(WsdError::DuplicateVariable {
                name: name.to_string(),
            });
        }
        let mut seen = FxHashSet::default();
        let mut sum = NeumaierSum::new();
        for &(value, p) in alternatives {
            if !seen.insert(value) {
                return Err(WsdError::DuplicateDomainValue {
                    name: name.to_string(),
                    value,
                });
            }
            if !(0.0..=1.0 + NORMALIZATION_TOLERANCE).contains(&p) || p.is_nan() {
                return Err(WsdError::InvalidProbability {
                    name: name.to_string(),
                    probability: p,
                });
            }
            sum.add(p);
        }
        let sum = sum.value();
        if (sum - 1.0).abs() > NORMALIZATION_TOLERANCE {
            return Err(WsdError::DistributionNotNormalized {
                name: name.to_string(),
                sum,
            });
        }
        // Validated: only now touch the columns (and refresh the stamp).
        Ok(self.contents.get_mut().push(
            name,
            alternatives.iter().map(|&(value, _)| value),
            alternatives.iter().map(|&(_, p)| p),
        ))
    }

    /// Registers a Boolean variable: value `1` ("the tuple is present") with
    /// probability `p` and value `0` with probability `1 - p`.
    ///
    /// This is the shape of variable used by tuple-independent probabilistic
    /// databases (Section 7, TPC-H scenario).
    pub fn add_boolean(&mut self, name: &str, p: f64) -> Result<VarId> {
        self.add_variable(name, &[(1, p), (0, 1.0 - p)])
    }

    /// Registers a variable with `k` uniform alternatives labelled `0..k`.
    pub fn add_uniform(&mut self, name: &str, k: usize) -> Result<VarId> {
        let p = 1.0 / k as f64;
        let alternatives: Vec<(DomainValue, f64)> = (0..k).map(|i| (i as DomainValue, p)).collect();
        self.add_variable(name, &alternatives)
    }

    /// Number of registered variables.
    #[inline]
    pub fn num_variables(&self) -> usize {
        self.contents.len()
    }

    /// True if no variable has been registered (exactly one world).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.contents.len() == 0
    }

    /// Metadata of a variable.
    ///
    /// # Errors
    ///
    /// Returns [`WsdError::UnknownVariable`] if `var` does not belong to this
    /// table.
    pub fn variable(&self, var: VarId) -> Result<VariableInfo<'_>> {
        self.contents
            .view(var)
            .ok_or(WsdError::UnknownVariable { var })
    }

    /// Looks up a variable by name.
    pub fn variable_by_name(&self, name: &str) -> Option<VarId> {
        self.contents.by_name(name)
    }

    /// Iterates over all `(VarId, VariableInfo)` pairs in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, VariableInfo<'_>)> {
        self.variable_ids()
            .map_while(|var| Some((var, self.contents.view(var)?)))
    }

    /// All registered variable ids.
    pub fn variable_ids(&self) -> impl Iterator<Item = VarId> + '_ {
        (0..self.contents.len() as u32).map(VarId)
    }

    /// Domain size of a variable.
    pub fn domain_size(&self, var: VarId) -> Result<usize> {
        span(&self.contents.offsets, var.index())
            .map(|alternatives| alternatives.len())
            .ok_or(WsdError::UnknownVariable { var })
    }

    /// Probability `P({var -> value_index})`.
    #[inline]
    pub fn probability(&self, var: VarId, value: ValueIndex) -> Result<f64> {
        let alternatives =
            span(&self.contents.offsets, var.index()).ok_or(WsdError::UnknownVariable { var })?;
        // Within `var`'s own weights, so never a neighbour's.
        let weights = self.contents.weights.get(alternatives).unwrap_or_default();
        weights
            .get(value.index())
            .copied()
            .ok_or(WsdError::UnknownValue {
                var,
                value: value.index() as DomainValue,
            })
    }

    /// External label of a domain value.
    pub fn value_label(&self, var: VarId, value: ValueIndex) -> Result<DomainValue> {
        let info = self.variable(var)?;
        info.values
            .get(value.index())
            .copied()
            .ok_or(WsdError::UnknownValue {
                var,
                value: value.index() as DomainValue,
            })
    }

    /// Resolves an external value label to its domain position.
    pub fn value_index(&self, var: VarId, value: DomainValue) -> Result<ValueIndex> {
        let info = self.variable(var)?;
        info.index_of(value)
            .ok_or(WsdError::UnknownValue { var, value })
    }

    /// `log2` of the number of possible worlds (sum of `log2` domain sizes).
    ///
    /// The count itself easily exceeds `u128` for realistic databases
    /// (the paper reports experiments with `10^(10^6)` worlds), so only the
    /// logarithm is exposed.
    pub fn log2_world_count(&self) -> f64 {
        compensated_sum(self.iter().map(|(_, v)| (v.domain_size() as f64).log2()))
    }

    /// Exact number of possible worlds, if it fits in a `u128`.
    pub fn world_count(&self) -> Option<u128> {
        let mut count: u128 = 1;
        for (_, v) in self.iter() {
            count = count.checked_mul(v.domain_size() as u128)?;
        }
        Some(count)
    }

    /// Creates a fresh variable name of the form `{base}'`, `{base}''`, … that
    /// is not yet used in this table.
    ///
    /// Used by the conditioning algorithm when it introduces re-weighted
    /// copies of eliminated variables (Section 5).
    pub fn fresh_name(&self, base: &str) -> String {
        let mut candidate = format!("{base}'");
        while self.contents.by_name(&candidate).is_some() {
            candidate.push('\'');
        }
        candidate
    }

    /// Builds a new world table containing only the variables selected by
    /// `keep`, returning the mapping from old to new [`VarId`]s.
    ///
    /// This implements simplification optimisation (1) of Section 5:
    /// variables that no longer appear in any U-relation can be dropped from
    /// `W`. The kept variables' columns are copied slice by slice.
    pub fn retain_variables<F>(&self, mut keep: F) -> (WorldTable, FxHashMap<VarId, VarId>)
    where
        F: FnMut(VarId, VariableInfo<'_>) -> bool,
    {
        let mut kept = Contents::default();
        let mut mapping = FxHashMap::default();
        for (var, info) in self.iter() {
            if keep(var, info) {
                let (labels, weights) = (info.values.iter(), info.probabilities.iter());
                mapping.insert(var, kept.push(info.name, labels.copied(), weights.copied()));
            }
        }
        let new_table = WorldTable {
            contents: Stamped::new(kept),
        };
        (new_table, mapping)
    }

    /// True if `self` extends `base` append-only: every variable of `base`
    /// exists in `self` at the same [`VarId`] with an identical name, domain
    /// and distribution (bitwise — NaN-free by construction).
    ///
    /// This is the compatibility check behind violation-memo reuse: a table
    /// that extends the memoized one cannot change the probability or the
    /// descriptor semantics of any ws-set over the old variables.
    pub fn extends(&self, base: &WorldTable) -> bool {
        let (new, old) = (&*self.contents, &*base.contents);
        if new.len() < old.len() {
            return false;
        }
        if self.stamp() == base.stamp() {
            return true;
        }
        // Equal offset prefixes line the label, weight and name prefixes up.
        new.offsets.starts_with(&old.offsets)
            && new.name_offsets.starts_with(&old.name_offsets)
            && new.names.starts_with(old.names.as_str())
            && new.labels.starts_with(&old.labels)
            && new
                .weights
                .iter()
                .zip(&old.weights)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

impl fmt::Display for WorldTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "W   Var   Dom   P")?;
        for (_, info) in self.iter() {
            for (value, p) in info.values.iter().zip(info.probabilities) {
                writeln!(f, "    {}   {}   {}", info.name, value, p)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ssn_table() -> (WorldTable, VarId, VarId) {
        let mut w = WorldTable::new();
        let j = w.add_variable("j", &[(1, 0.2), (7, 0.8)]).unwrap();
        let b = w.add_variable("b", &[(4, 0.3), (7, 0.7)]).unwrap();
        (w, j, b)
    }

    #[test]
    fn add_and_lookup_variable() {
        let (w, j, b) = ssn_table();
        assert_eq!(w.num_variables(), 2);
        assert_eq!(w.variable_by_name("j"), Some(j));
        assert_eq!(w.variable_by_name("b"), Some(b));
        assert_eq!(w.variable_by_name("missing"), None);
        assert_eq!(w.domain_size(j).unwrap(), 2);
        assert_eq!(w.value_label(j, ValueIndex(1)).unwrap(), 7);
        assert_eq!(w.value_index(b, 4).unwrap(), ValueIndex(0));
        assert!((w.probability(j, ValueIndex(0)).unwrap() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn boolean_and_uniform_helpers() {
        let mut w = WorldTable::new();
        let t = w.add_boolean("t1", 0.25).unwrap();
        let u = w.add_uniform("u", 4).unwrap();
        assert_eq!(w.domain_size(t).unwrap(), 2);
        assert!((w.probability(t, ValueIndex(0)).unwrap() - 0.25).abs() < 1e-12);
        assert!((w.probability(t, ValueIndex(1)).unwrap() - 0.75).abs() < 1e-12);
        assert_eq!(w.domain_size(u).unwrap(), 4);
        assert!((w.probability(u, ValueIndex(3)).unwrap() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn rejects_invalid_distributions() {
        let mut w = WorldTable::new();
        assert!(matches!(
            w.add_variable("x", &[]),
            Err(WsdError::EmptyDomain { .. })
        ));
        assert!(matches!(
            w.add_variable("x", &[(1, 0.5), (2, 0.4)]),
            Err(WsdError::DistributionNotNormalized { .. })
        ));
        assert!(matches!(
            w.add_variable("x", &[(1, 1.5), (2, -0.5)]),
            Err(WsdError::InvalidProbability { .. })
        ));
        assert!(matches!(
            w.add_variable("x", &[(1, 0.5), (1, 0.5)]),
            Err(WsdError::DuplicateDomainValue { .. })
        ));
        w.add_variable("x", &[(1, 1.0)]).unwrap();
        assert!(matches!(
            w.add_variable("x", &[(1, 1.0)]),
            Err(WsdError::DuplicateVariable { .. })
        ));
    }

    #[test]
    fn unknown_lookups_are_errors() {
        let (w, j, _) = ssn_table();
        assert!(matches!(
            w.variable(VarId(99)),
            Err(WsdError::UnknownVariable { .. })
        ));
        assert!(matches!(
            w.value_index(j, 42),
            Err(WsdError::UnknownValue { .. })
        ));
        assert!(matches!(
            w.probability(j, ValueIndex(9)),
            Err(WsdError::UnknownValue { .. })
        ));
    }

    /// Three variables of different domain sizes, so every variable's
    /// one-past-the-end index is a valid index of the next one's weights.
    fn ragged_table() -> WorldTable {
        let mut w = WorldTable::new();
        w.add_variable("first", &[(1, 0.25), (2, 0.75)]).unwrap();
        w.add_variable("middle", &[(5, 0.5), (6, 0.125), (7, 0.375)])
            .unwrap();
        w.add_variable("last", &[(9, 1.0)]).unwrap();
        w
    }

    #[test]
    fn value_past_the_domain_is_unknown_not_the_neighbours_weight() {
        let w = ragged_table();
        for var in w.variable_ids() {
            let size = w.domain_size(var).unwrap();
            let past = ValueIndex(size as u16);
            assert_eq!(
                w.probability(var, past),
                Err(WsdError::UnknownValue {
                    var,
                    value: size as DomainValue
                })
            );
            assert!(w.value_label(var, past).is_err());
            let info = w.variable(var).unwrap();
            assert_eq!(info.probabilities.len(), size);
            assert_eq!(info.values.len(), size);
            for index in 0..size {
                let p = w.probability(var, ValueIndex(index as u16)).unwrap();
                assert_eq!(p.to_bits(), info.probabilities[index].to_bits());
            }
        }
        assert_eq!(w.probability(VarId(1), ValueIndex(2)), Ok(0.375));
    }

    #[test]
    fn variable_past_the_table_is_unknown() {
        let w = ragged_table();
        let past = VarId(w.num_variables() as u32);
        let unknown = WsdError::UnknownVariable { var: past };
        assert_eq!(w.probability(past, ValueIndex(0)), Err(unknown.clone()));
        assert_eq!(w.domain_size(past), Err(unknown.clone()));
        assert_eq!(w.variable(past), Err(unknown));
        assert_eq!(
            WorldTable::new().domain_size(VarId(0)),
            Err(WsdError::UnknownVariable { var: VarId(0) })
        );
    }

    #[test]
    fn views_read_the_registered_columns() {
        let w = ragged_table();
        let names: Vec<&str> = w.iter().map(|(_, info)| info.name).collect();
        assert_eq!(names, ["first", "middle", "last"]);
        let middle = w.variable(VarId(1)).unwrap();
        assert_eq!(middle.values, [5, 6, 7]);
        assert_eq!(middle.probabilities, [0.5, 0.125, 0.375]);
        assert_eq!(middle.index_of(7), Some(ValueIndex(2)));
        assert_eq!(w.world_count(), Some(6));
    }

    /// `(kind, variable)` tweaks one variable of a random table: 1 changes
    /// its weights, 2 renames it, 3 relabels its domain, 0 leaves it alone.
    type Tweak = (u8, usize);

    /// A table of one variable per entry of `specs`, each entry the integer
    /// weights of its alternatives.
    fn build(specs: &[Vec<u8>], (kind, target): Tweak) -> WorldTable {
        let mut w = WorldTable::new();
        for (i, weights) in specs.iter().enumerate() {
            let tweak = if i == target { kind } else { 0 };
            let bump = |k: usize| f64::from(u8::from(tweak == 1 && k == 0));
            let total: f64 = (0..weights.len())
                .map(|k| f64::from(weights[k]) + bump(k))
                .sum();
            let alternatives: Vec<(DomainValue, f64)> = (0..weights.len())
                .map(|k| {
                    let label = 3 * k as DomainValue + DomainValue::from(tweak == 3);
                    (label, (f64::from(weights[k]) + bump(k)) / total)
                })
                .collect();
            let name = if tweak == 2 {
                format!("w{i}")
            } else {
                format!("v{i}")
            };
            w.add_variable(&name, &alternatives).unwrap();
        }
        w
    }

    /// What `extends` must answer, one variable view at a time.
    fn extends_by_views(new: &WorldTable, base: &WorldTable) -> bool {
        let same = |a: VariableInfo<'_>, b: VariableInfo<'_>| {
            a.name == b.name
                && a.values == b.values
                && (a.probabilities.iter().map(|p| p.to_bits()))
                    .eq(b.probabilities.iter().map(|p| p.to_bits()))
        };
        new.num_variables() >= base.num_variables()
            && base
                .iter()
                .zip(new.iter())
                .all(|((_, a), (_, b))| same(a, b))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// `retain_variables` equals re-adding the kept views one by one,
        /// and `extends` equals comparing the prefix's views one by one.
        #[test]
        fn retain_and_extends_agree_with_a_per_variable_rebuild(
            (specs, keep, split, tweak) in (
                proptest::collection::vec(proptest::collection::vec(1u8..=9, 1..=4), 0..8),
                proptest::collection::vec(0u8..2, 8),
                0usize..9,
                (0u8..4, 0usize..8),
            )
        ) {
            let table = build(&specs, (0, 0));
            let (kept, mapping) = table.retain_variables(|var, _| keep[var.index()] == 1);
            let mut rebuilt = WorldTable::new();
            for (var, info) in table.iter().filter(|(var, _)| keep[var.index()] == 1) {
                let alternatives: Vec<(DomainValue, f64)> =
                    info.values.iter().copied().zip(info.probabilities.iter().copied()).collect();
                let id = rebuilt.add_variable(info.name, &alternatives).unwrap();
                proptest::prop_assert_eq!(mapping.get(&var), Some(&id));
            }
            proptest::prop_assert_eq!(mapping.len(), rebuilt.num_variables());
            proptest::prop_assert!(extends_by_views(&kept, &rebuilt));
            proptest::prop_assert!(extends_by_views(&rebuilt, &kept));
            for (var, info) in kept.iter() {
                proptest::prop_assert_eq!(kept.variable_by_name(info.name), Some(var));
            }

            let base = build(&specs[..split.min(specs.len())], (0, 0));
            proptest::prop_assert!(table.extends(&base));
            let changed = build(&specs, tweak);
            for (new, old) in [(&changed, &base), (&base, &changed), (&changed, &table)] {
                proptest::prop_assert_eq!(new.extends(old), extends_by_views(new, old));
            }
        }
    }

    #[test]
    fn stamps_track_content_identity() {
        let (w, _, _) = ssn_table();
        // An unmutated clone shares the stamp (identical contents)…
        let clone = w.clone();
        assert_eq!(w.stamp(), clone.stamp());
        // …but any mutation refreshes it.
        let mut mutated = w.clone();
        mutated.add_boolean("extra", 0.5).unwrap();
        assert_ne!(w.stamp(), mutated.stamp());
        // Two independently built tables never share a stamp, even when
        // their contents happen to coincide.
        let (other, _, _) = ssn_table();
        assert_ne!(w.stamp(), other.stamp());
    }

    #[test]
    fn fresh_name_avoids_collisions() {
        let mut w = WorldTable::new();
        w.add_boolean("x", 0.5).unwrap();
        w.add_boolean("x'", 0.5).unwrap();
        assert_eq!(w.fresh_name("x"), "x''");
    }

    #[test]
    fn retain_variables_keeps_selected_only() {
        let (w, j, b) = ssn_table();
        let (w2, mapping) = w.retain_variables(|var, _| var == b);
        assert_eq!(w2.num_variables(), 1);
        assert_eq!(mapping.get(&b), Some(&VarId(0)));
        assert!(!mapping.contains_key(&j));
        assert_eq!(w2.variable_by_name("b"), Some(VarId(0)));
        assert!((w2.probability(VarId(0), ValueIndex(0)).unwrap() - 0.3).abs() < 1e-12);
    }

    /// Under the tests' two-bit name hash, most names land on a taken hash:
    /// each still resolves to its own variable, is refused a second time,
    /// and survives `retain_variables`, while an unknown name on a taken
    /// hash resolves to nothing.
    #[test]
    fn names_on_a_taken_hash_resolve_through_the_collided_list() {
        let mut w = WorldTable::new();
        let vars: Vec<VarId> = (0..64)
            .map(|i| w.add_boolean(&format!("v{i}"), 0.5).unwrap())
            .collect();
        assert!(w.contents.collided.len() >= 60);
        for (i, &var) in vars.iter().enumerate() {
            let name = format!("v{i}");
            assert_eq!(w.variable_by_name(&name), Some(var));
            assert!(matches!(
                w.add_boolean(&name, 0.5),
                Err(WsdError::DuplicateVariable { .. })
            ));
        }
        assert_eq!(w.variable_by_name("v64"), None);
        assert_eq!(w.fresh_name("v3"), "v3'");
        let (odd, mapping) = w.retain_variables(|var, _| var.index() % 2 == 1);
        for &var in &vars {
            let name = format!("v{}", var.index());
            assert_eq!(odd.variable_by_name(&name), mapping.get(&var).copied());
        }
    }

    #[test]
    fn extends_recognises_append_only_growth() {
        let (base, _, _) = ssn_table();
        let mut grown = base.clone();
        assert!(grown.extends(&base));
        grown.add_boolean("extra", 0.5).unwrap();
        assert!(grown.extends(&base));
        assert!(!base.extends(&grown));
        // An equal-length independently built table with the same contents
        // still extends (contents compared, not stamps)…
        let (twin, _, _) = ssn_table();
        assert!(twin.extends(&base));
        // …but changing an old variable's distribution breaks extension.
        let mut renumbered = WorldTable::new();
        renumbered.add_variable("j", &[(1, 0.3), (7, 0.7)]).unwrap();
        renumbered.add_variable("b", &[(4, 0.3), (7, 0.7)]).unwrap();
        assert!(!renumbered.extends(&base));
    }

    #[test]
    fn display_lists_all_alternatives() {
        let (w, _, _) = ssn_table();
        let text = format!("{w}");
        assert!(text.contains("j   1   0.2"));
        assert!(text.contains("b   7   0.7"));
    }
}
