//! Descriptor storage at its boundaries: descriptors of 0 to 7 assignments,
//! on both sides of the inline capacity, each built four ways (`assign` in
//! shuffled order, `from_sorted_assignments`, `union` of two halves, and
//! grown past the capacity then shrunk back with `remove` / `without`). All
//! four must read, compare, order and hash exactly as the sorted
//! `Vec<Assignment>` they model: that is what keeps every cache key, set
//! order and probability independent of the representation.

use std::cmp::Ordering;
use std::hash::{Hash, Hasher};

use uprob_wsd::fast_hash::FxHasher;
use uprob_wsd::value::Assignment;
use uprob_wsd::{ValueIndex, VarId, WsDescriptor};

const SEED: u64 = 2008;
const MAX_LEN: usize = 7;
/// Variables are drawn from `0..VARS`; values from `0..VALUES`.
const VARS: u32 = 24;
const VALUES: u16 = 3;
const ROUNDS: usize = 40;

/// SplitMix64: a seed-pinned stream, so the test needs no RNG crate.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// `len` assignments on distinct variables, sorted by variable, and the
/// remaining variables shuffled (the pool extra assignments come from).
fn model(stream: &mut Stream, len: usize) -> (Vec<Assignment>, Vec<VarId>) {
    let mut vars: Vec<VarId> = (0..VARS).map(VarId).collect();
    stream.shuffle(&mut vars);
    let spare = vars.split_off(len);
    let mut sorted: Vec<Assignment> = vars
        .into_iter()
        .map(|var| Assignment::new(var, ValueIndex((stream.next() % u64::from(VALUES)) as u16)))
        .collect();
    sorted.sort();
    (sorted, spare)
}

/// The four constructions of the descriptor `sorted` models.
fn constructions(stream: &mut Stream, sorted: &[Assignment], spare: &[VarId]) -> [WsDescriptor; 4] {
    let mut shuffled = sorted.to_vec();
    stream.shuffle(&mut shuffled);
    let mut assigned = WsDescriptor::empty();
    for a in &shuffled {
        assigned.assign(a.var, a.value).unwrap();
    }

    let from_sorted = WsDescriptor::from_sorted_assignments(sorted.to_vec()).unwrap();

    let (left, right): (Vec<Assignment>, Vec<Assignment>) =
        sorted.iter().partition(|_| stream.next() % 2 == 0);
    // The halves overlap in one shared assignment when there is one to share.
    let mut right = right;
    if let Some(&a) = left.first() {
        right.push(a);
        right.sort();
    }
    let left = WsDescriptor::from_sorted_assignments(left).unwrap();
    let right = WsDescriptor::from_sorted_assignments(right).unwrap();
    let unioned = left.union(&right).unwrap();

    // Grow to more than the inline capacity (at least 5 and at least 2 more
    // than the target), then shrink back, alternating `remove` and `without`.
    let extra = (5usize.saturating_sub(sorted.len())).max(2) + stream.below(3);
    let mut grown = from_sorted.clone();
    let extras: Vec<VarId> = spare.iter().copied().take(extra).collect();
    for &var in &extras {
        grown = grown.with(var, ValueIndex(1)).unwrap();
    }
    assert_eq!(grown.len(), sorted.len() + extras.len());
    let mut shrunk = grown;
    for (step, &var) in extras.iter().enumerate() {
        if step % 2 == 0 {
            assert!(shrunk.remove(var));
        } else {
            shrunk = shrunk.without(var);
        }
    }

    [assigned, from_sorted, unioned, shrunk]
}

fn fx_hash<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut hasher = FxHasher::default();
    value.hash(&mut hasher);
    hasher.finish()
}

#[test]
fn descriptors_of_every_length_behave_as_their_sorted_slice() {
    let mut stream = Stream(SEED);
    let mut all: Vec<(Vec<Assignment>, WsDescriptor)> = Vec::new();
    for _ in 0..ROUNDS {
        for len in 0..=MAX_LEN {
            let (sorted, spare) = model(&mut stream, len);
            for (way, d) in constructions(&mut stream, &sorted, &spare)
                .into_iter()
                .enumerate()
            {
                let context = format!("length {len}, construction {way}, model {sorted:?}");
                assert_eq!(d.iter().collect::<Vec<_>>(), sorted, "{context}");
                assert_eq!(d.len(), len, "{context}");
                assert_eq!(d.is_empty(), len == 0, "{context}");
                for var in (0..VARS).map(VarId) {
                    let expected = sorted.iter().find(|a| a.var == var).map(|a| a.value);
                    assert_eq!(d.get(var), expected, "{context}, {var:?}");
                }
                assert_eq!(fx_hash(&d), fx_hash(sorted.as_slice()), "{context}");
                all.push((sorted.clone(), d));
            }
        }
    }
    // Equality and order against the slice's, over every pair: this mixes
    // lengths (inline against inline, inline against spilled, ...).
    for (model_a, a) in &all {
        for (model_b, b) in &all {
            let expected: Ordering = model_a.as_slice().cmp(model_b.as_slice());
            assert_eq!(a.cmp(b), expected, "{model_a:?} vs {model_b:?}");
            assert_eq!(a.partial_cmp(b), Some(expected));
            assert_eq!(a == b, model_a == model_b, "{model_a:?} vs {model_b:?}");
        }
    }
}

#[test]
fn a_descriptor_is_at_most_forty_bytes() {
    assert!(std::mem::size_of::<WsDescriptor>() <= 40);
}
