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
        id: "lock-order-graph",
        family: "locks",
        summary: "lock acquired — in the same body or through calls — against the declared order",
        explanation: "\
The decomposition cache holds its shard array; the serving layer its \
writer/plan/admission locks. Deadlock freedom rests on a total \
acquisition order, declared per file in crates/lint/src/config.rs:

    crates/core/src/cache.rs:     shards (never nested with itself)
    crates/query/src/service.rs:  writer < plans < inflight < current

The analysis extracts every .lock() (and empty-argument RwLock \
.read()/.write()) site, models guard lifetimes (a `let` guard lives to the \
end of its block; a temporary lives to the end of its statement, extended \
over the body for if-let/while-let/match scrutinees, matching Rust 2021 \
temporary-scope rules) and builds the crate-wide acquisition graph: an \
edge outer → inner for every lock taken while a guard on `outer` is live, \
whether the inner acquisition sits in the same function body (a path of \
zero calls) or is reached through any chain of intra-crate calls (each \
function carries a transitive summary of the locks a call to it can \
take). Three shapes are flagged, with the call path from the \
guard-holding function down to the acquiring one when there is one: an \
edge that runs backward through a declared order, a re-acquisition of the \
held lock itself (self-deadlock with std Mutex), and a pair of locks from \
different manifests that are mutually reachable — a cycle no single \
declared order rules out.

Fix by acquiring in declared order along every call path, or by dropping \
the outer guard first (end its block or statement; clone what you need \
out of the guard before the call). Extend the declared order rather than \
allowing violations. The analysis is intra-crate and does not resolve \
trait dispatch, so a missing edge can hide a deadlock but never invent \
one; allows are reserved for provably disjoint instances or paths proven \
unreachable:

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
Undeclared `.lock()` receivers are flagged in every product file; RwLock \
`.read()`/`.write()` receivers (empty argument lists only, which \
distinguishes them from `io::Read`/`io::Write` calls) in files that \
declare an order. When adding a lock (or a whole new locking file, e.g. the \
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
        assert!(rule("det-taint").is_some());
        assert!(rule("no-such-rule").is_none());
        assert!(is_registered("lock-order-graph"));
        assert!(!is_registered("lock-order"));
    }
}
