//! Fixture: well-formed, reasoned, *used* pragmas silence their findings.

pub fn tally(values: &[f64]) -> f64 {
    // uprob-lint: allow(num-raw-accum) -- fixture invariant: a debug tally that never reaches a result
    values.iter().sum::<f64>()
}

pub fn occupied(index: &FxHashMap<String, u64>) -> u64 {
    let mut n = 0;
    // uprob-lint: allow(det-hash-iter) -- fixture invariant: counting is order-insensitive
    for _ in index.keys() {
        n += 1;
    }
    n
}

pub fn trailing(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() // uprob-lint: allow(num-raw-accum) -- fixture invariant: same debug tally
}

pub fn pragma_text_in_a_string_is_data() -> &'static str {
    // A pragma spelled inside a string literal is never parsed — it
    // neither suppresses anything nor counts as stale.
    "uprob-lint: allow(num-raw-accum) -- not a pragma, just bytes"
}

/// Doc prose may *mention* `uprob-lint: allow(rule-id) -- reason` syntax
/// without being flagged: only well-formed pragmas naming registered
/// rules are treated as misplaced when they appear in doc comments.
pub fn doc_prose_about_pragmas() -> u64 {
    7
}
