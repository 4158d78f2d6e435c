//! The clippy half of the invariant contract, pinned.
//!
//! The per-site invariants of non-test library code are stock clippy lints
//! that the gate line at the top of each product crate's `lib.rs` switches
//! on, with the disallowed type and method lists in the workspace
//! `clippy.toml`. This module is compiled only under `cfg(clippy)` and
//! commits one violation per lint of the gate and one per `clippy.toml`
//! entry, each under its own `#[expect]`: if a lint is ever dropped from
//! clippy, or an entry from `clippy.toml`, that expectation goes
//! unfulfilled and `cargo clippy -- -D warnings` fails. The type half is
//! pinned by the `compile_fail` doctests of `FxHashMap`, `FxHashSet`,
//! `LeafLock` and `Stamped` (DESIGN.md "Invariants as types and clippy").
//!
//! The vendored `rand` shim has no thread-local generator, so there is no
//! `rand::thread_rng()` line: nothing to call, and nothing to forbid.

#![expect(dead_code, reason = "never called: these functions exist to be linted")]

fn head(values: &[u64]) -> u64 {
    #[expect(clippy::unwrap_used, reason = "contract: clippy must flag this")]
    *values.first().unwrap()
}

fn parse(raw: &str) -> u64 {
    #[expect(clippy::unwrap_used, reason = "contract: clippy must flag this")]
    raw.parse().unwrap()
}

fn lookup(index: &std::collections::BTreeMap<String, u64>, name: &str) -> u64 {
    #[expect(clippy::expect_used, reason = "contract: clippy must flag this")]
    *index.get(name).expect("name must be present")
}

fn open(path: &std::path::Path) -> String {
    #[expect(clippy::expect_used, reason = "contract: clippy must flag this")]
    std::fs::read_to_string(path).expect("readable file")
}

fn pick(kind: u8) -> &'static str {
    match kind {
        0 => "zero",
        1 => "one",
        #[expect(clippy::unreachable, reason = "contract: clippy must flag this")]
        _ => unreachable!("callers only pass 0 or 1"),
    }
}

#[expect(clippy::panic, reason = "contract: clippy must flag this")]
fn reject(reason: &str) -> ! {
    panic!("rejected: {reason}")
}

#[expect(clippy::todo, reason = "contract: clippy must flag this")]
fn later() {
    todo!()
}

#[expect(clippy::unimplemented, reason = "contract: clippy must flag this")]
fn never() {
    unimplemented!()
}

fn third(values: &[u64]) -> u64 {
    #[expect(clippy::indexing_slicing, reason = "contract: clippy must flag this")]
    values[2]
}

fn tail(values: &[u64], from: usize) -> &[u64] {
    #[expect(clippy::indexing_slicing, reason = "contract: clippy must flag this")]
    &values[from..]
}

fn build_index(names: &[String]) -> usize {
    #[expect(clippy::disallowed_types, reason = "contract: clippy must flag this")]
    let mut index = std::collections::HashMap::new();
    for (i, n) in names.iter().enumerate() {
        index.insert(n.clone(), i);
    }
    index.len()
}

fn dedup(values: &[u64]) -> usize {
    #[expect(clippy::disallowed_types, reason = "contract: clippy must flag this")]
    let seen: std::collections::HashSet<u64> = values.iter().copied().collect();
    seen.len()
}

fn seeded() -> u64 {
    use std::hash::BuildHasher;
    #[expect(clippy::disallowed_types, reason = "contract: clippy must flag this")]
    let state = std::hash::RandomState::new();
    state.hash_one(0u8)
}

fn timed<T>(work: impl FnOnce() -> T) -> (T, u128) {
    #[expect(clippy::disallowed_methods, reason = "contract: clippy must flag this")]
    let start = std::time::Instant::now();
    let value = work();
    (value, start.elapsed().as_nanos())
}

fn stamp() -> std::time::SystemTime {
    #[expect(clippy::disallowed_methods, reason = "contract: clippy must flag this")]
    std::time::SystemTime::now()
}

fn whoami() -> std::thread::ThreadId {
    #[expect(clippy::disallowed_methods, reason = "contract: clippy must flag this")]
    std::thread::current().id()
}

#[allow(clippy::needless_return)]
#[expect(
    clippy::allow_attributes_without_reason,
    reason = "contract: clippy must flag this"
)]
fn unexplained() {}

fn workers() -> bool {
    #[expect(clippy::disallowed_methods, reason = "contract: clippy must flag this")]
    std::env::var("UPROB_WORKERS").is_ok()
}

fn workers_os() -> bool {
    #[expect(clippy::disallowed_methods, reason = "contract: clippy must flag this")]
    std::env::var_os("UPROB_WORKERS").is_some()
}

fn scoped() {
    #[expect(clippy::disallowed_methods, reason = "contract: clippy must flag this")]
    std::thread::scope(|_| ());
}

fn detached() -> std::thread::JoinHandle<()> {
    #[expect(clippy::disallowed_methods, reason = "contract: clippy must flag this")]
    std::thread::spawn(|| ())
}

fn locked(memo: &std::sync::Mutex<u64>) -> bool {
    #[expect(clippy::disallowed_methods, reason = "contract: clippy must flag this")]
    memo.lock().is_ok()
}

fn read(cell: &std::sync::RwLock<u64>) -> bool {
    #[expect(clippy::disallowed_methods, reason = "contract: clippy must flag this")]
    cell.read().is_ok()
}

fn swap(cell: &std::sync::RwLock<u64>) -> bool {
    #[expect(clippy::disallowed_methods, reason = "contract: clippy must flag this")]
    cell.write().is_ok()
}

fn total(weights: &[f64]) -> f64 {
    #[expect(clippy::disallowed_methods, reason = "contract: clippy must flag this")]
    weights.iter().sum()
}
