//! Fixture: every way a pragma can go stale or be malformed.

//~v lint-pragma
// uprob-lint: allow(num-raw-accum) -- nothing on the next line ever sums
pub fn quiet() -> u64 {
    7
}

//~v lint-pragma
// uprob-lint: allow(num-raw-accum)
pub fn missing_reason(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() //~ num-raw-accum
}

//~v lint-pragma
// uprob-lint: allow(not-a-real-rule) -- the registry has no such id
pub fn unknown_rule() -> u64 {
    9
}

//~v lint-pragma
// uprob-lint: allow num-raw-accum -- parentheses are part of the grammar
pub fn malformed(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() //~ num-raw-accum
}

/// uprob-lint: allow(num-raw-accum) -- doc comments are rendered prose, not pragmas //~ lint-pragma
pub fn doc_comment_pragma_is_inert(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() //~ num-raw-accum
}
