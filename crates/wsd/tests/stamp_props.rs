//! Property-based tests for the stamp-refresh invariant behind stamp-bound
//! caches (PR 2) and snapshot serving: **equal stamps imply identical
//! contents**. Random mutation sequences run over a chain of clones, and
//! no mutated table may ever share a stamp with the table it was cloned
//! from — while an unmutated clone must keep sharing it (that sharing is
//! what lets a snapshot hand its decomposition cache to cheap copies).

use proptest::prelude::*;
use uprob_wsd::WorldTable;

/// One random mutation applied to a world table.
#[derive(Debug, Clone)]
enum Op {
    /// `add_boolean` with probability `p / 100`.
    Boolean { p: u8 },
    /// `add_uniform` with `k` alternatives.
    Uniform { k: u8 },
    /// `add_variable` with an explicit two-point distribution.
    TwoPoint { p: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..3, 1u8..=99).prop_map(|(kind, p)| match kind {
        0 => Op::Boolean { p },
        1 => Op::Uniform { k: p % 4 + 1 },
        _ => Op::TwoPoint { p },
    })
}

fn apply(table: &mut WorldTable, index: usize, op: &Op) {
    let name = format!("v{index}");
    match *op {
        Op::Boolean { p } => {
            table.add_boolean(&name, f64::from(p) / 100.0).unwrap();
        }
        Op::Uniform { k } => {
            table.add_uniform(&name, usize::from(k)).unwrap();
        }
        Op::TwoPoint { p } => {
            let p = f64::from(p) / 100.0;
            table.add_variable(&name, &[(3, p), (9, 1.0 - p)]).unwrap();
        }
    }
}

proptest! {
    /// Walks a chain of clones, mutating each link: every mutation changes
    /// the stamp, every unmutated clone shares its source's stamp, and no
    /// two distinct contents ever share a stamp along the chain.
    #[test]
    fn mutated_clones_never_share_a_stamp_with_their_source(
        ops in prop::collection::vec(op_strategy(), 1..8)
    ) {
        let mut table = WorldTable::new();
        let mut seen = vec![table.stamp()];
        for (index, op) in ops.iter().enumerate() {
            let mut clone = table.clone();
            prop_assert_eq!(
                clone.stamp(),
                table.stamp(),
                "an unmutated clone must share its source's stamp"
            );
            apply(&mut clone, index, op);
            prop_assert_ne!(
                clone.stamp(),
                table.stamp(),
                "a mutated clone must not share a stamp with its source"
            );
            prop_assert!(
                !seen.contains(&clone.stamp()),
                "stamp {} resurfaced later in the chain",
                clone.stamp()
            );
            seen.push(clone.stamp());
            table = clone;
        }
    }

    /// A failed mutation leaves the contents unchanged — every variable
    /// view, the variable count and every weight bit — so the stamp must
    /// not move either: refreshing it would needlessly invalidate caches.
    #[test]
    fn failed_mutations_preserve_the_stamp(
        (ops, p) in (prop::collection::vec(op_strategy(), 1..6), 1u8..=99)
    ) {
        let mut table = WorldTable::new();
        for (index, op) in ops.iter().enumerate() {
            apply(&mut table, index, op);
        }
        let snapshot = |table: &WorldTable| -> Vec<(String, Vec<i64>, Vec<u64>)> {
            table
                .iter()
                .map(|(_, info)| {
                    let bits = info.probabilities.iter().map(|w| w.to_bits()).collect();
                    (info.name.to_string(), info.values.to_vec(), bits)
                })
                .collect()
        };
        let (before, contents) = (table.stamp(), snapshot(&table));
        let p = f64::from(p) / 100.0;
        prop_assert!(table.add_boolean("v0", p).is_err(), "duplicate name must fail");
        prop_assert!(table.add_uniform("y", 0).is_err(), "empty domain must fail");
        prop_assert!(
            table.add_variable("y", &[(1, p), (2, 1.0)]).is_err(),
            "an unnormalised distribution must fail"
        );
        prop_assert!(
            table.add_variable("y", &[(1, p), (1, 1.0 - p)]).is_err(),
            "a duplicate domain value must fail"
        );
        prop_assert!(
            table.add_variable("y", &[(1, -p), (2, 1.0 + p)]).is_err(),
            "a probability outside [0, 1] must fail"
        );
        prop_assert_eq!(table.stamp(), before);
        prop_assert_eq!(table.num_variables(), ops.len());
        prop_assert_eq!(snapshot(&table), contents);
    }

    /// Stamps of independently built tables are globally distinct even when
    /// the tables have identical contents: the stamp is an identity of a
    /// *version*, and equality of stamps is only ever used to certify
    /// clone-derived sharing.
    #[test]
    fn independent_tables_get_distinct_stamps(p in 1u8..=99) {
        let build = || {
            let mut t = WorldTable::new();
            t.add_boolean("x", f64::from(p) / 100.0).unwrap();
            t
        };
        let a = build();
        let b = build();
        prop_assert_ne!(a.stamp(), b.stamp());
    }
}
