//! The rule registry: every invariant the pass enforces, with the long
//! explanation behind `uprob-lint explain <rule>`.
//!
//! The registry is the single source of truth: the CLI's `rules` and
//! `explain` subcommands, the CI explain smoke-run and the pragma
//! validator all read this table, so a rule cannot exist without
//! documentation and documentation cannot outlive its rule.

/// One registered rule.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable id used in diagnostics and allow pragmas.
    pub id: &'static str,
    /// Rule family (shown by `rules`).
    pub family: &'static str,
    /// One-line summary.
    pub summary: &'static str,
    /// The invariant this rule guards and how to fix or allow a finding.
    pub explanation: &'static str,
}

/// All registered rules.
pub const RULES: &[Rule] = &[
    Rule {
        id: "det-hash-iter",
        family: "determinism",
        summary: "iteration over a HashMap/HashSet whose order can leak into results",
        explanation: "\
The workspace's headline contract is determinism: the parallel fold is \
bit-identical to the sequential fold at every worker count, planned \
execution is row-identical to the eager reference, and every confidence \
is a pure function of the database. std::collections hash tables iterate \
in an order that depends on the hasher seed and insertion history, so any \
hash-map iteration whose order reaches a constructed ws-set, a float \
accumulation, result rows or report output silently breaks those \
contracts.

Fix: iterate a BTreeMap/BTreeSet, sort the iteration result before use, \
or restructure so only membership lookups touch the hash table. Iteration \
that provably cannot leak order (e.g. feeding a commutative integer \
count) may be allowed inline:

    // uprob-lint: allow(det-hash-iter) -- <why the order cannot leak>

The rule fires on .iter()/.keys()/.values()/.drain()/.into_iter() and \
`for .. in` over bindings declared as HashMap/HashSet (including the \
FxHash aliases) in product crates; statements that visibly canonicalize \
(.sort*, BTree collect) or reduce to order-insensitive facts (.len(), \
.count(), .any(), .all(), .contains*, .min(), .max(), .is_empty()) are \
exempt.",
    },
    Rule {
        id: "det-default-hasher",
        family: "determinism",
        summary: "default-RandomState hash table in a hot crate where FxHasher is mandated",
        explanation: "\
SipHash with a random per-process seed is the std default. On the hot \
paths of this workspace (descriptor interning, decomposition memo tables, \
hash joins, samplers) it costs measurable time for DoS resistance that \
in-process trusted keys do not need, and its per-process seed makes \
iteration order vary run to run, compounding det-hash-iter hazards. The \
project policy (DESIGN.md) mandates uprob_wsd::fast_hash::{FxHashMap, \
FxHashSet} in product crates.

Fix: replace HashMap::new()/HashSet::new()/with_capacity and bare \
HashMap<K, V>/HashSet<T> type ascriptions with the FxHash aliases \
(FxHashMap::default() etc.). A deliberate std-hasher table (e.g. keyed by \
untrusted external input) may be allowed inline:

    // uprob-lint: allow(det-default-hasher) -- <why SipHash is required>",
    },
    Rule {
        id: "det-ambient-source",
        family: "determinism",
        summary: "wall-clock, thread-id or ambient randomness inside confidence-fold code",
        explanation: "\
Confidence computation, conditioning and the parallel scheduler must be \
pure functions of (database, options): the CI worker matrix re-runs every \
suite at 1/2/4/8 workers and pins bit-identical results. Reading \
Instant::now/SystemTime::now, thread ids, process ids, thread_rng or \
RandomState inside product-crate code injects ambient state that cannot \
be replayed. Timing belongs in uprob-bench; randomness must flow from an \
explicitly seeded rng passed in by the caller (see \
ApproximationOptions::with_seed and stream_seed).

Fix: thread the value in from the caller, or move the measurement to the \
bench crate. An intentionally ambient read may be allowed inline:

    // uprob-lint: allow(det-ambient-source) -- <why the result cannot depend on it>",
    },
    Rule {
        id: "stamp-refresh",
        family: "determinism",
        summary: "&mut self method on a stamped type that never refreshes the stamp",
        explanation: "\
Stamp-based cache binding (PR 2, DESIGN.md) rests on one invariant: equal \
stamps imply identical contents. Every mutation of a stamped value (the \
world table today; any future stamped type) must refresh its `stamp` \
field from the global counter, or a SharedDecompositionCache bound to the \
old stamp will keep serving probabilities computed for contents that no \
longer exist — silently wrong confidences, the worst failure mode this \
workspace has. The serving layer compounds the blast radius: a snapshot's \
plan cache and admission table key on stamps too.

The rule finds struct declarations carrying a `stamp` field, then checks \
every `&mut self` method in impl blocks of those types: a mutator must \
either mention `stamp` in its body (a direct refresh) or transitively \
call something that does — resolved as a fixpoint over the intra-crate \
call graph, so delegation through free functions, associated functions \
and cross-file helpers is credited. A mutator that genuinely cannot \
change observable contents (e.g. reserving capacity) may be allowed \
inline:

    // uprob-lint: allow(stamp-refresh) -- <why contents are unchanged>",
    },
    Rule {
        id: "num-raw-accum",
        family: "numeric",
        summary: "raw f64 accumulation (+= / .sum()) outside uprob_wsd::numeric",
        explanation: "\
The Neumaier policy (DESIGN.md, PR 2): every sum whose value reaches a \
reported probability is accumulated with uprob_wsd::numeric::NeumaierSum, \
keeping drift within half an ulp of the exact sum regardless of term \
count or ordering. A raw `total += term` loop or a bare `.sum::<f64>()` \
re-introduces O(n·eps) cancellation error and makes the result depend on \
summation order — which the parallel path would then have to reproduce \
exactly to keep the bit-identity contract.

Fix: accumulate through NeumaierSum (add()/value()). Accumulations that \
are deliberately raw — integer tallies the tracker missed, estimator \
internals whose bits are pinned by seeded statistical suites, or \
recurrences that are not plain sums — are allowed inline with the reason \
spelled out:

    // uprob-lint: allow(num-raw-accum) -- <why this sum is exempt from the policy>

The rule tracks float-initialized local bindings and flags `name +=` on \
them plus any `.sum::<f64>()` / statement-typed f64 `.sum()`; \
uprob_wsd::numeric itself (the policy's implementation) is exempt by \
config.",
    },
    Rule {
        id: "panic-unwrap",
        family: "panic",
        summary: ".unwrap() in non-test library code",
        explanation: "\
Library code panicking on a recoverable condition aborts every worker \
sharing the process — fatal for the planned concurrent serving layer, \
where one poisoned request must not take down the snapshot server. Every \
.unwrap() in non-test product code must either become a typed error \
(CoreError/UrelError/WsdError/QueryError all compose) or carry an inline \
justification naming the invariant that makes it unreachable:

    // uprob-lint: allow(panic-unwrap) -- <the invariant that holds here>

Test modules, #[test] fns, tests/, benches/ and examples are out of \
scope. The allowlist is the burn-down list: every entry is visible in \
diffs, and removing one means the site was converted to a typed error.",
    },
    Rule {
        id: "panic-expect",
        family: "panic",
        summary: ".expect(..) in non-test library code",
        explanation: "\
Same contract as panic-unwrap: .expect() documents the assumption but \
still aborts the process when it breaks. Convert fallible sites to typed \
errors; keep .expect() only for genuine invariants (lock poisoning \
propagation, scheduler slot accounting) with an inline allow naming the \
invariant:

    // uprob-lint: allow(panic-expect) -- <the invariant that holds here>",
    },
    Rule {
        id: "panic-macro",
        family: "panic",
        summary: "panic!/unreachable!/todo!/unimplemented! in non-test library code",
        explanation: "\
Explicit panic macros in product code are either dead-end stubs (todo!, \
unimplemented!) that must not ship, or control-flow assertions \
(panic!, unreachable!) that should be typed errors or carry an inline \
allow naming the invariant:

    // uprob-lint: allow(panic-macro) -- <the invariant that holds here>

debug_assert! family macros are exempt: they vanish in release builds \
and are the sanctioned way to state internal invariants.",
    },
    Rule {
        id: "panic-index",
        family: "panic",
        summary: "slice/array/map indexing that can panic in non-test library code",
        explanation: "\
`xs[i]` and `map[&k]` panic on out-of-range/missing keys. On fold and \
scheduler paths an index is usually maintained by construction — but the \
compiler cannot see that, and neither can a reviewer of a 500-line diff. \
Each indexing site in product code either becomes .get()/.get_mut() with \
typed-error handling, or carries an inline allow naming the structural \
invariant that bounds the index:

    // uprob-lint: allow(panic-index) -- <the invariant that bounds the index>

Full-range slicing `[..]` is exempt (it cannot panic). Files where every \
index is maintained by one audited data structure may use a file-level \
allow; shrinking those is the burn-down.",
    },
    Rule {
        id: "lock-order",
        family: "locks",
        summary: "nested lock acquisition violating the declared total order",
        explanation: "\
The work-stealing scheduler (crates/core/src/parallel.rs) holds several \
mutexes: per-worker deques, the combine-node arena, the root slot and the \
error slot; the decomposition cache holds its shard array. Deadlock \
freedom rests on a total acquisition order, declared in the lint config \
per file:

    crates/core/src/parallel.rs: queues < arena < root < error
    crates/core/src/cache.rs:    shards (never nested with itself)

The rule extracts every .lock() site, models guard lifetimes (a `let` \
guard lives to the end of its block; a temporary lives to the end of its \
statement, extended over the body for if-let/while-let/match scrutinees, \
matching Rust 2021 temporary-scope rules) and flags any acquisition made \
while a guard earlier-or-equal in the order is still live. Re-acquiring \
the same lock name while it is held is always flagged: with std::sync \
Mutex that is a self-deadlock. The future serving layer inherits this \
order, so extend the declared order rather than allowing violations; an \
inline allow is reserved for provably disjoint instances (e.g. two \
different worker deques during a steal — which the current code never \
nests).",
    },
    Rule {
        id: "lock-order-graph",
        family: "locks",
        summary: "lock acquisition reachable through calls that inverts a declared order",
        explanation: "\
The lexical lock-order rule sees one function at a time; this analysis \
propagates lock acquisitions through the intra-crate call graph. Each \
function gets a transitive summary (which locks can a call to it take), \
and every call made while a manifest lock's guard is live contributes \
acquisition-graph edges outer → inner. Three shapes are flagged, each \
with the full call path from the guard-holding function down to the \
acquiring one: an edge that runs backward through a declared order, a \
re-acquisition of the held lock itself (self-deadlock with std Mutex), \
and a pair of locks from different manifests that are mutually reachable \
— a cycle no single declared order rules out. Zero-hop inversions inside \
one body stay with the lexical rule.

Fix by acquiring in declared order along every call path, or by dropping \
the outer guard before the call (clone what you need out of the guard). \
The analysis is intra-crate and does not resolve trait dispatch, so a \
missing edge can hide a deadlock but never invent one; allows are \
reserved for paths proven unreachable:

    // uprob-lint: allow(lock-order-graph) -- <why this path cannot run>",
    },
    Rule {
        id: "lock-undeclared",
        family: "locks",
        summary: "lock acquisition on a field missing from the declared order",
        explanation: "\
Every lock in product code must appear in the lint config's per-file \
acquisition order before it can be taken: an undeclared lock is \
invisible to the lock-order analyses, so nesting it cannot be checked. \
The lexical pass flags undeclared `.lock()` receivers; the call-graph \
pass additionally flags RwLock `.read()`/`.write()` receivers (empty \
argument lists only, which distinguishes them from `io::Read`/`io::Write` \
calls). When adding a lock (or a whole new locking file, e.g. the \
serving layer), add its field name to the declared order in \
crates/lint/src/config.rs at the position that reflects where it may be \
acquired relative to the existing locks — the lint then enforces that \
position everywhere.",
    },
    Rule {
        id: "det-taint",
        family: "determinism",
        summary: "nondeterminism source inside code reachable from a bit-identity surface",
        explanation: "\
The bit-identity contracts have named surfaces: `confidence_parallel` \
(parallel ≡ sequential at every worker count), the `assert_all*` \
constraint entry points, and `ProbDbService`'s `conf*` methods (served ≡ \
direct). This analysis computes the set of functions transitively \
reachable from those surfaces over the intra-crate call graph — the \
*cone* — and flags every nondeterminism source inside it: iteration over \
hash-ordered containers, thread spawns (completion order is \
scheduler-dependent), and environment reads (`env::var*`, ambient input \
no stamp covers). Each finding carries the call path from the surface to \
the tainted function, so review starts from the contract at risk rather \
than the line.

Fix by making the site deterministic: sorted or indexed iteration, \
merging worker results by index rather than completion order, threading \
ambient input in as a stamped parameter. A source whose nondeterminism \
provably cannot reach the result bits is allowed inline with the \
argument spelled out (an existing allow(det-hash-iter) on the same site \
is honoured — one argued exemption covers both views):

    // uprob-lint: allow(det-taint) -- <why the nondeterminism cannot reach result bits>",
    },
    Rule {
        id: "lint-pragma",
        family: "meta",
        summary: "malformed, reason-less, unknown-rule or unused allow pragma",
        explanation: "\
The allowlist is only auditable if every entry is well-formed and true. \
This meta-rule flags: pragmas that do not parse \
(`uprob-lint: allow(rule) -- reason` / `allow-file(rule) -- reason`), \
pragmas without a `-- reason`, pragmas naming a rule id that is not \
registered, pragmas that suppress nothing (stale allows must be deleted \
as the burn-down progresses, not accumulate), and well-formed pragmas \
written inside doc comments — pragmas are only read from plain `//` and \
`/* */` comment tokens, so a doc-comment pragma is inert and almost \
certainly a mistake. Pragma-looking text inside string literals is never \
parsed. A pragma finding cannot itself be allowed.",
    },
];

/// Looks up a rule by id.
pub fn rule(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

/// True when `id` names a registered rule.
pub fn is_registered(id: &str) -> bool {
    rule(id).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_rule_has_id_summary_and_explanation() {
        assert!(!RULES.is_empty());
        for r in RULES {
            assert!(!r.id.is_empty());
            assert!(!r.summary.is_empty());
            assert!(
                r.explanation.len() > 100,
                "{} explanation too short to be useful",
                r.id
            );
            assert!(
                r.id.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "{} is not kebab-case",
                r.id
            );
        }
    }

    #[test]
    fn rule_ids_are_unique() {
        for (i, a) in RULES.iter().enumerate() {
            for b in &RULES[i + 1..] {
                assert_ne!(a.id, b.id);
            }
        }
    }

    #[test]
    fn lookup_finds_registered_rules_only() {
        assert!(rule("panic-unwrap").is_some());
        assert!(rule("no-such-rule").is_none());
        assert!(is_registered("lock-order"));
        assert!(!is_registered("lock"));
    }
}
