//! The possible worlds, enumerated: the oracle every exact method is
//! checked against on instances small enough to list.
//!
//! A world is a total valuation of a [`WorldTable`] (one [`ValueIndex`] per
//! variable, in [`VarId`] order) and its probability is the product of the
//! chosen alternatives' weights (Section 2). [`TableWorlds`] lists them in
//! odometer order; [`SetWorlds`] filters them through a ws-set's
//! `matches_world` and sums their weights with Neumaier compensation, so
//! the oracle stays trustworthy on instances with very many (or very
//! skewed) worlds. Both are exponential in the number of variables.

use std::collections::BTreeSet;

use uprob_wsd::numeric::compensated_sum;
use uprob_wsd::{ValueIndex, VarId, WorldTable, WsSet};

/// The possible worlds of a world table.
pub trait TableWorlds {
    /// Every total valuation with its probability, the first variable
    /// varying fastest.
    fn enumerate_worlds(&self) -> WorldIter<'_>;

    /// Probability of the total valuation `world`.
    ///
    /// # Panics
    ///
    /// Panics if `world` does not supply exactly one in-domain value index
    /// per variable.
    fn world_probability(&self, world: &[ValueIndex]) -> f64;
}

impl TableWorlds for WorldTable {
    fn enumerate_worlds(&self) -> WorldIter<'_> {
        WorldIter {
            table: self,
            current: vec![ValueIndex(0); self.num_variables()],
            done: self.iter().any(|(_, v)| v.domain_size() == 0),
            first: true,
        }
    }

    fn world_probability(&self, world: &[ValueIndex]) -> f64 {
        assert_eq!(
            world.len(),
            self.num_variables(),
            "a total valuation must assign every variable"
        );
        self.iter()
            .zip(world)
            .map(|((_, info), idx)| info.probabilities[idx.index()])
            .product()
    }
}

/// Iterator over all total valuations of a [`WorldTable`].
pub struct WorldIter<'a> {
    table: &'a WorldTable,
    current: Vec<ValueIndex>,
    done: bool,
    first: bool,
}

impl Iterator for WorldIter<'_> {
    type Item = (Vec<ValueIndex>, f64);

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        if self.first {
            self.first = false;
            let p = self.table.world_probability(&self.current);
            return Some((self.current.clone(), p));
        }
        // Advance the odometer.
        let mut i = 0;
        loop {
            if i == self.current.len() {
                self.done = true;
                return None;
            }
            let size = self.table.domain_size(VarId(i as u32)).unwrap_or(0) as u16;
            if self.current[i].0 + 1 < size {
                self.current[i].0 += 1;
                for slot in &mut self.current[..i] {
                    slot.0 = 0;
                }
                break;
            }
            i += 1;
        }
        let p = self.table.world_probability(&self.current);
        Some((self.current.clone(), p))
    }
}

/// The world-set of a ws-set, by enumeration.
pub trait SetWorlds {
    /// `ω(S)` as a set of total valuations.
    fn enumerate_worlds(&self, table: &WorldTable) -> BTreeSet<Vec<ValueIndex>>;

    /// Probability of the represented world-set: the compensated sum of
    /// the weights of its worlds.
    fn probability_by_enumeration(&self, table: &WorldTable) -> f64;

    /// Whether two ws-sets represent the same world-set.
    fn is_equivalent_by_enumeration(&self, other: &WsSet, table: &WorldTable) -> bool;
}

impl SetWorlds for WsSet {
    fn enumerate_worlds(&self, table: &WorldTable) -> BTreeSet<Vec<ValueIndex>> {
        table
            .enumerate_worlds()
            .filter(|(world, _)| self.matches_world(world))
            .map(|(world, _)| world)
            .collect()
    }

    fn probability_by_enumeration(&self, table: &WorldTable) -> f64 {
        compensated_sum(
            table
                .enumerate_worlds()
                .filter(|(world, _)| self.matches_world(world))
                .map(|(_, p)| p),
        )
    }

    fn is_equivalent_by_enumeration(&self, other: &WsSet, table: &WorldTable) -> bool {
        self.enumerate_worlds(table) == other.enumerate_worlds(table)
    }
}
