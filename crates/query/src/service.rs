//! The snapshot-isolated concurrent serving layer.
//!
//! The paper frames `assert[·]` as a database *transformation*: an
//! assertion produces a new conditioned database that subsequent queries
//! run against. This module maps that semantics directly onto concurrency:
//!
//! * a [`Snapshot`] is one immutable database version — the world table
//!   and the U-relations (whose rows embed the ws-descriptor state) under
//!   a stamp, and the [`Arc`]-held [`SharedDecompositionCache`] that its
//!   stamp check ties to exactly this version;
//! * a [`ProbDbService`] serves any number of reader threads against the
//!   current snapshot while a writer builds the next one: conditioning
//!   never mutates in place — [`ProbDbService::assert_all`] conditions the
//!   current snapshot into a **new** [`Snapshot`] and publishes it with an
//!   atomic `Arc` swap, so readers either see the whole old version or the
//!   whole new one, never a mix.
//!
//! # Publish protocol
//!
//! The current snapshot lives in an `RwLock<Arc<Snapshot>>` used only as a
//! swap cell: a reader takes the read lock just long enough to clone the
//! `Arc` (no query work happens under it), and the single writer replaces
//! the `Arc` under the write lock. Writers are serialized by the writer
//! mutex, which also holds the delta path's prior line, since only writers
//! touch it. Both locks are private to the `publish` module, and the swap
//! cell can be written only through the `Writer` that
//! exists while the writer mutex is held, so the lock order writer →
//! current is a type. These are the service's only locks. Readers that
//! pinned the old snapshot keep using it, warm cache included; it is freed
//! when the last reference drops.
//!
//! # Delta publish and cache inheritance
//!
//! A publish does not cold-start the decomposition cache. Every publish
//! path derives a variable remap from the old published snapshot to the
//! new database and carries warm entries across through
//! [`SharedDecompositionCache::inherit_from`] — the descriptor-
//! disjointness check that drops any entry mentioning a touched, unmapped
//! or re-distributed variable lives *there*, never here:
//!
//! * [`publish_delta`](ProbDbService::publish_delta) appends tuples,
//!   retractions and fresh variables through a [`DeltaBuilder`]; when the
//!   next database [`extends`](uprob_wsd::WorldTable::extends) the
//!   published one, the remap is the identity and **every** entry
//!   survives;
//! * [`assert_all`](ProbDbService::assert_all) inherits through the
//!   conditioning remap ([`Conditioned::prior_remap`] minus
//!   [`Conditioned::touched_variables`]), so an unmutated relation's warm
//!   entries survive conditioning;
//! * [`assert_all_delta`](ProbDbService::assert_all_delta) keeps an
//!   unconditioned **prior line** evolving by deltas plus a
//!   [`ViolationMemo`] of per-constraint violation ws-sets, re-deriving
//!   only the sets whose input relations changed, and inherits posterior →
//!   posterior by composing the previous publish's conditioning remap with
//!   the current one.
//!
//! [`Conditioned::prior_remap`]: uprob_core::Conditioned::prior_remap
//! [`Conditioned::touched_variables`]: uprob_core::Conditioned::touched_variables
//!
//! # Bit-identity contract
//!
//! A served read *is* the single-owner library call on the snapshot's
//! database: `query` is [`ProbDb::query`], and `conf` is
//! [`planned_answer_confidences_with_options`] over the snapshot's cache
//! at the service's options (shared-cache hits are bit-identical to
//! recomputation by the cache's contract). So a served answer equals the
//! library call bit for bit at every worker and reader count; the
//! workspace stress test pins this under the CI `UPROB_WORKERS` matrix.
//!
//! # Panic containment
//!
//! Every service entry point runs the request under one
//! [`std::panic::catch_unwind`]: a panicking request fails with
//! [`QueryError::RequestPanicked`] instead of unwinding into the caller,
//! and the locks it may have poisoned (the cache's are poison-tolerant, as
//! are the service's own) stay usable, so subsequent requests succeed. A
//! panic in a parallel job reaches the service with the job's own payload,
//! so the error names what actually panicked.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use uprob_core::{
    CacheStats, ConditioningOptions, DecompositionOptions, DecompositionStats, InheritOutcome,
    ParallelOptions, SharedDecompositionCache,
};
use uprob_urel::{DeltaBuilder, DeltaReport, Plan, ProbDb, URelation};
use uprob_wsd::{FxHashMap, Stamped, VarId, WorldTable};

use crate::confidence::AnswerConfidences;
use crate::constraints::{assert_all_delta, assert_all_in, Constraint, ViolationMemo};
use crate::error::QueryError;
use crate::planned::planned_answer_confidences_with_options;
use crate::Result;

/// One immutable published version of a probabilistic database: the world
/// table and relations (with their ws-descriptor state), and the shared
/// decomposition cache bound to exactly this version.
///
/// Snapshots are cheap to share (`Arc`) and their database is never
/// mutated after construction; conditioning produces a *new* snapshot (see
/// [`ProbDbService::assert_all`]).
pub struct Snapshot {
    /// The database under the snapshot stamp. A fresh stamp per snapshot:
    /// two snapshots can share an unmutated world table while differing in
    /// their relations.
    db: Stamped<ProbDb>,
    cache: Arc<SharedDecompositionCache>,
}

impl Snapshot {
    /// Wraps `db` around `cache` under a fresh stamp. A publish passes in a
    /// cache pre-warmed by [`SharedDecompositionCache::inherit_from`], which
    /// has already bound it to `db`'s world table; a cold cache binds itself
    /// on first use, so it can never serve probabilities computed for a
    /// different version.
    fn new(db: ProbDb, cache: SharedDecompositionCache) -> Self {
        Snapshot {
            db: Stamped::new(db),
            cache: Arc::new(cache),
        }
    }

    /// The database of this snapshot.
    pub fn db(&self) -> &ProbDb {
        &self.db
    }

    /// The snapshot stamp: unique per published version.
    pub fn stamp(&self) -> u64 {
        self.db.stamp()
    }

    /// The decomposition cache bound to this snapshot.
    pub fn cache(&self) -> &Arc<SharedDecompositionCache> {
        &self.cache
    }

    /// Counters of this snapshot's decomposition cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }
}

/// The policy one [`ProbDbService`] applies to every request: the
/// decomposition and conditioning options, and the **explicit** worker
/// policy — the service never consults the environment per request (see
/// [`ParallelOptions::from_env`] for the read-once rationale; resolve the
/// environment once at startup and pass the result in here).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ServiceOptions {
    /// Decomposition policy for every confidence computation.
    pub decomposition: DecompositionOptions,
    /// Conditioning policy for [`ProbDbService::assert_all`].
    pub conditioning: ConditioningOptions,
    /// Worker-count policy shared by every request (one pool policy, not
    /// per-request environment reads).
    pub parallel: ParallelOptions,
}

/// The outcome of a served [`ProbDbService::assert_all`]: the snapshot
/// that was published plus the conditioning summary of
/// [`uprob_core::conditioning::Conditioned`].
pub struct AssertOutcome {
    /// The newly published snapshot (also reachable via
    /// [`ProbDbService::snapshot`] until the next publish).
    pub snapshot: Arc<Snapshot>,
    /// The confidence of the asserted constraint set in the *previous*
    /// snapshot; in the published snapshot it holds with probability 1.
    pub confidence: f64,
    /// Decomposition counters of the conditioning run.
    pub stats: DecompositionStats,
    /// Number of fresh variables introduced (before simplification).
    pub new_variables: usize,
    /// Cache-inheritance summary of the publish: how many warm entries of
    /// the previous snapshot survived into the new one, and how many were
    /// dropped by the descriptor-disjointness check.
    pub inherited: InheritOutcome,
    /// Violation ws-sets served from the delta memo instead of being
    /// recompiled (always 0 for the full-rebuild
    /// [`ProbDbService::assert_all`]).
    pub reused_violations: u64,
}

/// The outcome of a served [`ProbDbService::publish_delta`].
pub struct DeltaOutcome {
    /// The newly published snapshot.
    pub snapshot: Arc<Snapshot>,
    /// What the delta touched (relations, variables, row counts).
    pub report: DeltaReport,
    /// Cache-inheritance summary of the publish — for a pure append delta
    /// the remap is the identity and every warm entry survives.
    pub inherited: InheritOutcome,
}

/// Aggregate counters of one service (monotone; read with
/// [`ProbDbService::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests admitted (queries, confidence requests and assertions,
    /// including failed ones).
    pub requests: u64,
    /// Confidence requests (`conf` and `conf_pinned`, including failed
    /// ones): each runs its own fold.
    pub confidence_folds: u64,
    /// Always 0: every `conf` request runs its own fold. Kept for the
    /// benchmark's frozen call surface.
    pub coalesced: u64,
    /// Requests that panicked and were contained as
    /// [`QueryError::RequestPanicked`].
    pub contained_panics: u64,
}

impl ServiceStats {
    /// Always 0: the service keeps no plan memo, so every request runs the
    /// optimizer. Kept for the benchmark's frozen call surface.
    pub fn plan_hit_rate(&self) -> f64 {
        0.0
    }
}

#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    confidence_folds: AtomicU64,
    contained_panics: AtomicU64,
}

/// The writer-side state of the delta path: the unconditioned **prior**
/// database evolving by [`DeltaBuilder`] mutations, the violation memo
/// keyed to it, and the conditioning remap of the last posterior publish
/// (prior variable → published posterior variable), used to compose the
/// posterior → posterior inheritance remap. It is the contents of the
/// writer mutex, so only a serialized [`publish::Writer`] can reach it.
#[derive(Default)]
struct PriorLine {
    /// `None` until the first delta request; initialized from the then-
    /// current snapshot.
    db: Option<ProbDb>,
    memo: ViolationMemo,
    /// `Some` iff the currently published snapshot is a posterior produced
    /// by [`ProbDbService::assert_all_delta`] from this prior line.
    posterior_remap: Option<FxHashMap<VarId, VarId>>,
}

/// A concurrent front-end over a probabilistic database: many reader
/// threads run [`query`](ProbDbService::query) /
/// [`conf`](ProbDbService::conf) against a consistent [`Snapshot`] while
/// [`assert_all`](ProbDbService::assert_all) builds and publishes the next
/// one. See the module docs for the publish protocol and the bit-identity
/// contract.
pub struct ProbDbService {
    /// The current snapshot and the writer lock (see module docs).
    published: publish::Published,
    options: ServiceOptions,
    counters: Counters,
}

impl ProbDbService {
    /// Serves `db` with [`ServiceOptions::default`] (sequential folds).
    pub fn new(db: ProbDb) -> Self {
        ProbDbService::with_options(db, ServiceOptions::default())
    }

    /// Serves `db` under an explicit request policy.
    pub fn with_options(db: ProbDb, options: ServiceOptions) -> Self {
        ProbDbService {
            published: publish::Published::new(Snapshot::new(db, SharedDecompositionCache::new())),
            options,
            counters: Counters::default(),
        }
    }

    /// The request policy of this service.
    pub fn options(&self) -> &ServiceOptions {
        &self.options
    }

    /// Pins the current snapshot: an `Arc` clone taken under a read lock
    /// held only for the clone itself. The returned snapshot stays fully
    /// usable (and internally consistent) across any number of concurrent
    /// publishes.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.published.snapshot()
    }

    /// Aggregate service counters.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            requests: self.counters.requests.load(Ordering::Relaxed),
            confidence_folds: self.counters.confidence_folds.load(Ordering::Relaxed),
            coalesced: 0,
            contained_panics: self.counters.contained_panics.load(Ordering::Relaxed),
        }
    }

    /// Evaluates `plan` against the current snapshot: [`ProbDb::query`] on
    /// the snapshot's database.
    ///
    /// # Errors
    ///
    /// Propagates plan-validation errors; a panicking request fails with
    /// [`QueryError::RequestPanicked`].
    pub fn query(&self, plan: &Plan) -> Result<URelation> {
        self.guarded(|| Ok(self.snapshot().db().query(plan)?))
    }

    /// The `conf()` aggregate of `plan` against the current snapshot (see
    /// [`conf_pinned`](ProbDbService::conf_pinned)).
    ///
    /// # Errors
    ///
    /// Propagates plan-validation and decomposition errors; a panicking
    /// request fails with [`QueryError::RequestPanicked`].
    pub fn conf(&self, plan: &Plan) -> Result<AnswerConfidences> {
        self.conf_pinned(&self.snapshot(), plan)
    }

    /// The `conf()` aggregate of `plan` against an explicitly pinned
    /// snapshot (e.g. to keep a multi-query read transaction consistent
    /// across publishes): [`planned_answer_confidences_with_options`] on
    /// the snapshot's database and cache, at the service's options.
    ///
    /// # Errors
    ///
    /// As for [`conf`](ProbDbService::conf).
    pub fn conf_pinned(&self, snapshot: &Arc<Snapshot>, plan: &Plan) -> Result<AnswerConfidences> {
        self.guarded(|| {
            self.counters
                .confidence_folds
                .fetch_add(1, Ordering::Relaxed);
            planned_answer_confidences_with_options(
                snapshot.db(),
                plan,
                &self.options.decomposition,
                &self.options.parallel,
                snapshot.cache(),
            )
        })
    }

    /// Runs an arbitrary read-only request against a pinned snapshot under
    /// the service's panic containment — the entry point for callers that
    /// compose several reads into one consistent unit.
    ///
    /// # Errors
    ///
    /// Whatever `request` returns; a panic inside `request` fails with
    /// [`QueryError::RequestPanicked`] instead of unwinding.
    pub fn with_snapshot<T>(&self, request: impl FnOnce(&Snapshot) -> Result<T>) -> Result<T> {
        self.guarded(|| {
            let snapshot = self.snapshot();
            request(&snapshot)
        })
    }

    /// `assert[·]` as a publish: conditions the current snapshot on
    /// `constraints` (single-pass, parallel violation compilation) and
    /// publishes the posterior database as a new [`Snapshot`] whose cache
    /// inherits every warm entry that survives the conditioning remap (see
    /// the module docs). Readers keep their pinned snapshots; writers are
    /// serialized. Resets the delta path's prior line — use
    /// [`assert_all_delta`](ProbDbService::assert_all_delta) for the
    /// incremental flavour.
    ///
    /// # Errors
    ///
    /// Propagates constraint-validation and conditioning errors (e.g.
    /// [`QueryError::UnsatisfiableConstraint`]); nothing is published on
    /// error. A panicking request fails with
    /// [`QueryError::RequestPanicked`].
    pub fn assert_all(&self, constraints: &[Constraint]) -> Result<AssertOutcome> {
        self.write(|writer| {
            let snapshot = self.snapshot();
            let conditioned = assert_all_in(
                snapshot.db(),
                constraints,
                &self.options.conditioning,
                &self.options.parallel,
                None,
            )?;
            let (cache, inherited) = Self::inherited_cache(
                &snapshot,
                conditioned.db.world_table(),
                &conditioned.prior_remap,
                &conditioned.touched_variables,
            );
            // A full conditioning starts a fresh delta line: the published
            // posterior has no tracked relationship to any earlier prior.
            *writer.prior = PriorLine::default();
            let confidence = conditioned.confidence;
            let stats = conditioned.stats;
            let new_variables = conditioned.new_variables;
            Ok(AssertOutcome {
                snapshot: writer.publish(Snapshot::new(conditioned.db, cache)),
                confidence,
                stats,
                new_variables,
                inherited,
                reused_violations: 0,
            })
        })
    }

    /// The incremental `assert[·]`: conditions the delta path's
    /// unconditioned **prior line** (initialized from the current snapshot
    /// on first use, advanced by
    /// [`publish_delta`](ProbDbService::publish_delta)) on `constraints`,
    /// reusing memoized violation ws-sets for every constraint whose input
    /// relations did not change since the last call, and publishes the
    /// posterior. The posterior is bit-identical to a full
    /// [`assert_all`](ProbDbService::assert_all) on the same prior; the
    /// published cache inherits posterior → posterior through the composed
    /// conditioning remaps.
    ///
    /// # Errors
    ///
    /// As for [`assert_all`](ProbDbService::assert_all); nothing is
    /// published (and neither the prior line nor the memo is corrupted) on
    /// error.
    pub fn assert_all_delta(&self, constraints: &[Constraint]) -> Result<AssertOutcome> {
        self.write(|writer| {
            let published = self.snapshot();
            let PriorLine {
                db,
                memo,
                posterior_remap,
            } = &mut *writer.prior;
            let prior_db = db.get_or_insert_with(|| published.db().clone());
            let reused_before = memo.reused();
            let conditioned = assert_all_delta(
                prior_db,
                constraints,
                &self.options.conditioning,
                &self.options.parallel,
                memo,
            )?;
            let reused_violations = memo.reused() - reused_before;
            // Pick the remap from the published snapshot's variables to
            // the new posterior's: direct if the prior line extends the
            // published snapshot (it *is* the snapshot, or the snapshot
            // plus ingested append-only deltas — published variables keep
            // their ids and distributions, so the conditioning remap
            // applies to them verbatim), composed through the previous
            // publish's conditioning remap if the published snapshot is
            // the previous posterior.
            let inheritance = if prior_db.world_table().extends(published.db().world_table()) {
                Some((
                    conditioned.prior_remap.clone(),
                    conditioned.touched_variables.clone(),
                ))
            } else {
                posterior_remap.as_ref().map(|saved| {
                    let composed: FxHashMap<VarId, VarId> = saved
                        .sorted_entries()
                        .into_iter()
                        .filter_map(|(prior_var, old_post)| {
                            conditioned
                                .prior_remap
                                .get(prior_var)
                                .map(|new_post| (*old_post, *new_post))
                        })
                        .collect();
                    // Touched is empty: any variable outside the composed
                    // remap (including the previous publish's fresh
                    // conditioning variables) is dropped as unmapped.
                    (composed, Vec::new())
                })
            };
            let (cache, inherited) = match inheritance {
                Some((remap, touched)) => Self::inherited_cache(
                    &published,
                    conditioned.db.world_table(),
                    &remap,
                    &touched,
                ),
                None => Self::cold_cache(),
            };
            *posterior_remap = Some(conditioned.prior_remap.clone());
            let confidence = conditioned.confidence;
            let stats = conditioned.stats;
            let new_variables = conditioned.new_variables;
            Ok(AssertOutcome {
                snapshot: writer.publish(Snapshot::new(conditioned.db, cache)),
                confidence,
                stats,
                new_variables,
                inherited,
                reused_violations,
            })
        })
    }

    /// Applies a batch of mutations to the delta path's prior line
    /// **without** publishing: readers keep the current (typically
    /// conditioned) snapshot until the next
    /// [`assert_all_delta`](ProbDbService::assert_all_delta) publishes a
    /// fresh posterior over the accumulated deltas — the bounded-staleness
    /// ingest flow of the `sensor_ingest_serve` benchmark workload.
    ///
    /// # Errors
    ///
    /// Propagates builder errors; the prior line is unchanged on error. A
    /// panicking `build` fails with [`QueryError::RequestPanicked`].
    pub fn ingest(
        &self,
        build: impl FnOnce(&mut DeltaBuilder) -> uprob_urel::Result<()>,
    ) -> Result<DeltaReport> {
        self.write(|writer| {
            let published = self.snapshot();
            let base = writer
                .prior
                .db
                .get_or_insert_with(|| published.db().clone());
            let mut builder = DeltaBuilder::new(base);
            build(&mut builder)?;
            let (next_db, report) = builder.finish();
            *base = next_db;
            Ok(report)
        })
    }

    /// Applies a batch of mutations to the delta path's prior line through
    /// a [`DeltaBuilder`] and publishes the result — **without**
    /// conditioning (pair with
    /// [`assert_all_delta`](ProbDbService::assert_all_delta) to publish
    /// posteriors instead). When the next database extends the published
    /// one (pure appends on the same line), the cache is inherited under
    /// the identity remap and every warm entry survives.
    ///
    /// # Errors
    ///
    /// Propagates builder errors (unknown relations, invalid descriptors,
    /// …); nothing is published and the prior line is unchanged on error.
    pub fn publish_delta(
        &self,
        build: impl FnOnce(&mut DeltaBuilder) -> uprob_urel::Result<()>,
    ) -> Result<DeltaOutcome> {
        self.write(|writer| {
            let published = self.snapshot();
            let PriorLine {
                db,
                posterior_remap,
                ..
            } = &mut *writer.prior;
            let base = db.get_or_insert_with(|| published.db().clone());
            let mut builder = DeltaBuilder::new(base);
            build(&mut builder)?;
            let (next_db, report) = builder.finish();
            *base = next_db.clone();
            let (cache, inherited) = Self::extended_cache(&published, next_db.world_table());
            // The published snapshot is now the prior line itself.
            *posterior_remap = None;
            Ok(DeltaOutcome {
                snapshot: writer.publish(Snapshot::new(next_db, cache)),
                report,
                inherited,
            })
        })
    }

    /// Builds the successor cache for a publish: every entry of `old`'s
    /// cache that survives `remap` minus `touched` is carried forward by
    /// [`SharedDecompositionCache::inherit_from`] — the single place the
    /// descriptor-disjointness soundness check lives. Falls back to a cold
    /// cache if the predecessor cache is bound to an unexpected table.
    fn inherited_cache(
        old: &Snapshot,
        new_table: &WorldTable,
        remap: &FxHashMap<VarId, VarId>,
        touched: &[VarId],
    ) -> (SharedDecompositionCache, InheritOutcome) {
        let cache = SharedDecompositionCache::new();
        match cache.inherit_from(
            old.cache(),
            old.db().world_table(),
            new_table,
            remap,
            touched,
        ) {
            Ok(outcome) => (cache, outcome),
            Err(_) => Self::cold_cache(),
        }
    }

    /// The successor cache of a publish without conditioning. When
    /// `next_table` extends the published one (append-only growth:
    /// published variables keep their ids and distributions) every warm
    /// entry is inherited under the identity remap. Otherwise the published
    /// snapshot is a posterior (or unrelated), its variables have no
    /// identity mapping into `next_table`, and the new snapshot starts cold.
    fn extended_cache(
        published: &Snapshot,
        next_table: &WorldTable,
    ) -> (SharedDecompositionCache, InheritOutcome) {
        let published_table = published.db().world_table();
        if !next_table.extends(published_table) {
            return Self::cold_cache();
        }
        let identity: FxHashMap<VarId, VarId> =
            published_table.iter().map(|(var, _)| (var, var)).collect();
        Self::inherited_cache(published, next_table, &identity, &[])
    }

    /// A successor cache that inherits nothing.
    fn cold_cache() -> (SharedDecompositionCache, InheritOutcome) {
        (SharedDecompositionCache::new(), InheritOutcome::default())
    }

    /// Runs one writer request under panic containment: the writer mutex
    /// is held for the whole of `request`.
    fn write<T>(&self, request: impl FnOnce(publish::Writer<'_>) -> Result<T>) -> Result<T> {
        self.guarded(|| self.published.write(request))
    }

    /// Runs one request under panic containment (see the module docs).
    fn guarded<T>(&self, request: impl FnOnce() -> Result<T>) -> Result<T> {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        match catch_unwind(AssertUnwindSafe(request)) {
            Ok(result) => result,
            Err(payload) => {
                self.counters
                    .contained_panics
                    .fetch_add(1, Ordering::Relaxed);
                Err(QueryError::RequestPanicked {
                    message: panic_message(payload.as_ref()),
                })
            }
        }
    }
}

/// The publish protocol as types (see the module docs). The two locks are
/// private here, and this module is the one place that takes them.
#[expect(
    clippy::disallowed_methods,
    reason = "the sanctioned writer-mutex and swap-cell site: the lock order writer → current is the `Writer` type"
)]
mod publish {
    use std::sync::{Arc, Mutex, PoisonError, RwLock};

    use super::{PriorLine, Snapshot};

    /// The swap cell holding the current snapshot, and the writer mutex
    /// holding the delta path's prior line.
    pub(super) struct Published {
        current: RwLock<Arc<Snapshot>>,
        writer: Mutex<PriorLine>,
    }

    /// A writer holding the writer mutex: the only way to reach the prior
    /// line and to replace the current snapshot. It lives for one
    /// [`Published::write`] closure and cannot escape it.
    pub(super) struct Writer<'g> {
        pub(super) prior: &'g mut PriorLine,
        current: &'g RwLock<Arc<Snapshot>>,
    }

    impl Published {
        pub(super) fn new(snapshot: Snapshot) -> Self {
            Published {
                current: RwLock::new(Arc::new(snapshot)),
                writer: Mutex::default(),
            }
        }

        /// The current snapshot: an `Arc` clone under a read lock held for
        /// the clone only.
        pub(super) fn snapshot(&self) -> Arc<Snapshot> {
            self.current
                .read()
                .unwrap_or_else(PoisonError::into_inner)
                .clone()
        }

        /// Runs `section` as the one writer, under the writer mutex.
        pub(super) fn write<T>(&self, section: impl FnOnce(Writer<'_>) -> T) -> T {
            let mut prior = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
            section(Writer {
                prior: &mut prior,
                current: &self.current,
            })
        }
    }

    impl Writer<'_> {
        /// The swap: replaces the current snapshot with `next`. The retired
        /// snapshot, warm cache included, is freed when its last reader
        /// lets go.
        pub(super) fn publish(&self, next: Snapshot) -> Arc<Snapshot> {
            let next = Arc::new(next);
            *self.current.write().unwrap_or_else(PoisonError::into_inner) = next.clone();
            next
        }
    }
}

/// Renders a `catch_unwind` payload to text, best effort: `&str` and
/// `String` payloads (what `panic!` produces) are returned verbatim,
/// anything else is summarized.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uprob_urel::{ColumnType, Comparison, Expr, Predicate, Schema, Tuple, Value};
    use uprob_wsd::WsDescriptor;

    /// The SSN database of Figure 2.
    fn ssn_db() -> ProbDb {
        let mut db = ProbDb::new();
        let j = db
            .world_table_mut()
            .add_variable("j", &[(1, 0.2), (7, 0.8)])
            .unwrap();
        let b = db
            .world_table_mut()
            .add_variable("b", &[(4, 0.3), (7, 0.7)])
            .unwrap();
        let schema = Schema::new("R", &[("SSN", ColumnType::Int), ("NAME", ColumnType::Str)]);
        let mut r = db.create_relation(schema).unwrap();
        {
            let w = db.world_table();
            r.push(
                Tuple::new(vec![Value::Int(1), Value::str("John")]),
                WsDescriptor::from_pairs(w, &[(j, 1)]).unwrap(),
            );
            r.push(
                Tuple::new(vec![Value::Int(7), Value::str("John")]),
                WsDescriptor::from_pairs(w, &[(j, 7)]).unwrap(),
            );
            r.push(
                Tuple::new(vec![Value::Int(4), Value::str("Bill")]),
                WsDescriptor::from_pairs(w, &[(b, 4)]).unwrap(),
            );
            r.push(
                Tuple::new(vec![Value::Int(7), Value::str("Bill")]),
                WsDescriptor::from_pairs(w, &[(b, 7)]).unwrap(),
            );
        }
        db.insert_relation(r).unwrap();
        db
    }

    fn bills_plan() -> Plan {
        Plan::scan("R")
            .select(Predicate::col_eq("NAME", "Bill"))
            .project(&["SSN"])
    }

    #[test]
    fn served_answers_are_bit_identical_to_the_library_call() {
        let db = ssn_db();
        let service = ProbDbService::with_options(
            db.clone(),
            ServiceOptions {
                parallel: ParallelOptions::new(4),
                ..ServiceOptions::default()
            },
        );
        let plan = bills_plan();
        let served = service.conf(&plan).unwrap();
        let reference = crate::planned::planned_answer_confidences_with_options(
            &db,
            &plan,
            &service.options().decomposition,
            &ParallelOptions::sequential(),
            &SharedDecompositionCache::new(),
        )
        .unwrap();
        assert_eq!(served.tuples.len(), reference.tuples.len());
        for ((t1, p1), (t2, p2)) in served.tuples.iter().zip(&reference.tuples) {
            assert_eq!(t1, t2);
            assert_eq!(p1.to_bits(), p2.to_bits());
        }
        assert_eq!(served.boolean.to_bits(), reference.boolean.to_bits());
        // The served rows match the single-owner query as well.
        assert_eq!(service.query(&plan).unwrap(), db.query(&plan).unwrap());
    }

    #[test]
    fn assert_all_publishes_a_conditioned_snapshot() {
        let db = ssn_db();
        let service = ProbDbService::new(db.clone());
        let pinned = service.snapshot();
        let fd = Constraint::functional_dependency("R", &["SSN"], &["NAME"]);
        let outcome = service.assert_all(std::slice::from_ref(&fd)).unwrap();
        assert!((outcome.confidence - 0.44).abs() < 1e-9);
        assert_eq!(outcome.snapshot.stamp(), service.snapshot().stamp());
        // The reader's pinned snapshot still answers from the prior: the
        // publish did not mutate it.
        let prior = service.conf_pinned(&pinned, &bills_plan()).unwrap();
        let reference = crate::planned::planned_answer_confidences_with_options(
            &db,
            &bills_plan(),
            &service.options().decomposition,
            &ParallelOptions::sequential(),
            &SharedDecompositionCache::new(),
        )
        .unwrap();
        assert_eq!(prior.boolean.to_bits(), reference.boolean.to_bits());
        // Served answers against the new snapshot match the single-owner
        // call on the conditioned database.
        let conditioned = crate::constraints::assert_all(
            &db,
            std::slice::from_ref(&fd),
            &ConditioningOptions::default(),
        )
        .unwrap();
        let served = service.conf(&bills_plan()).unwrap();
        let library = crate::planned::planned_answer_confidences_with_options(
            &conditioned.db,
            &bills_plan(),
            &service.options().decomposition,
            &ParallelOptions::sequential(),
            &SharedDecompositionCache::new(),
        )
        .unwrap();
        assert_eq!(served.boolean.to_bits(), library.boolean.to_bits());
        for ((t1, p1), (t2, p2)) in served.tuples.iter().zip(&library.tuples) {
            assert_eq!(t1, t2);
            assert_eq!(p1.to_bits(), p2.to_bits());
        }
    }

    #[test]
    fn unsatisfiable_assertion_publishes_nothing() {
        let service = ProbDbService::new(ssn_db());
        let before = service.snapshot().stamp();
        let impossible = Constraint::row_filter("R", Predicate::col_eq("NAME", "Nobody"));
        assert!(service.assert_all(&[impossible]).is_err());
        assert_eq!(
            service.snapshot().stamp(),
            before,
            "a failed assertion must not publish"
        );
    }

    #[test]
    fn panicking_request_is_contained_and_the_service_keeps_serving() {
        let service = ProbDbService::new(ssn_db());
        let err = service
            .with_snapshot::<()>(|_| panic!("injected request panic"))
            .unwrap_err();
        match err {
            QueryError::RequestPanicked { ref message } => {
                assert!(message.contains("injected"), "payload lost: {err}")
            }
            other => panic!("expected RequestPanicked, got {other:?}"),
        }
        // Subsequent requests — including folds through the same shared
        // structures — still succeed.
        let answer = service.conf(&bills_plan()).unwrap();
        assert!(answer.boolean > 0.0);
        let stats = service.stats();
        assert_eq!(stats.contained_panics, 1);
        assert!(stats.requests >= 2);
    }

    #[test]
    fn panic_message_renders_common_payloads() {
        let static_payload: Box<dyn std::any::Any + Send> = Box::new("boom");
        assert_eq!(panic_message(static_payload.as_ref()), "boom");
        let string_payload: Box<dyn std::any::Any + Send> = Box::new(String::from("formatted"));
        assert_eq!(panic_message(string_payload.as_ref()), "formatted");
        let odd_payload: Box<dyn std::any::Any + Send> = Box::new(7u32);
        assert_eq!(
            panic_message(odd_payload.as_ref()),
            "non-string panic payload"
        );
    }

    /// The SSN database plus an independent relation T over its own
    /// variable c — conditioning R-only constraints leaves c (and T's warm
    /// cache entries) untouched.
    fn db_with_extra_relation() -> ProbDb {
        let mut db = ssn_db();
        let c = db
            .world_table_mut()
            .add_variable("c", &[(1, 0.6), (2, 0.4)])
            .unwrap();
        let schema = Schema::new("T", &[("V", ColumnType::Int)]);
        let mut t = db.create_relation(schema).unwrap();
        {
            let w = db.world_table();
            t.push(
                Tuple::new(vec![Value::Int(10)]),
                WsDescriptor::from_pairs(w, &[(c, 1)]).unwrap(),
            );
            t.push(
                Tuple::new(vec![Value::Int(20)]),
                WsDescriptor::from_pairs(w, &[(c, 2)]).unwrap(),
            );
        }
        db.insert_relation(t).unwrap();
        db
    }

    fn t_plan() -> Plan {
        Plan::scan("T").project(&["V"])
    }

    fn assert_conf_bits(served: &AnswerConfidences, reference: &AnswerConfidences) {
        assert_eq!(served.tuples.len(), reference.tuples.len());
        for ((t1, p1), (t2, p2)) in served.tuples.iter().zip(&reference.tuples) {
            assert_eq!(t1, t2);
            assert_eq!(p1.to_bits(), p2.to_bits());
        }
        assert_eq!(served.boolean.to_bits(), reference.boolean.to_bits());
    }

    fn reference_conf(db: &ProbDb, plan: &Plan) -> AnswerConfidences {
        crate::planned::planned_answer_confidences_with_options(
            db,
            plan,
            &DecompositionOptions::default(),
            &ParallelOptions::sequential(),
            &SharedDecompositionCache::new(),
        )
        .unwrap()
    }

    #[test]
    fn pinned_snapshot_keeps_its_answer_across_a_publish() {
        let db = ssn_db();
        let service = ProbDbService::new(db.clone());
        let plan = bills_plan();
        let pinned = service.snapshot();
        let before = service.conf_pinned(&pinned, &plan).unwrap();
        let fd = Constraint::functional_dependency("R", &["SSN"], &["NAME"]);
        service.assert_all(std::slice::from_ref(&fd)).unwrap();
        assert_ne!(service.snapshot().stamp(), pinned.stamp());
        // The publish retired the pinned snapshot from `current`, not from
        // its reader: the pinned read still answers from the prior.
        let after = service.conf_pinned(&pinned, &plan).unwrap();
        assert_conf_bits(&after, &before);
        assert_conf_bits(&after, &reference_conf(&db, &plan));
        // An unpinned read serves the posterior.
        let conditioned =
            crate::constraints::assert_all(&db, &[fd], &ConditioningOptions::default()).unwrap();
        assert_conf_bits(
            &service.conf(&plan).unwrap(),
            &reference_conf(&conditioned.db, &plan),
        );
        // …which differs from the prior: P(SSN 4 | FD) = .3/.44, not .3.
        let p4 = |answer: &AnswerConfidences| {
            answer
                .tuples
                .iter()
                .find(|(t, _)| t.get(0) == Some(&Value::Int(4)))
                .unwrap()
                .1
        };
        assert!((p4(&before) - 0.3).abs() < 1e-9);
        assert!((p4(&service.conf(&plan).unwrap()) - 0.3 / 0.44).abs() < 1e-9);
    }

    #[test]
    fn concurrent_requests_for_a_missing_relation_share_one_typed_error() {
        let service = ProbDbService::new(ssn_db());
        let plan = Plan::scan("Missing").project(&["SSN"]);
        let expected = QueryError::Urel(uprob_urel::UrelError::UnknownRelation {
            relation: "Missing".into(),
        });
        let readers = 8;
        let barrier = std::sync::Barrier::new(readers);
        std::thread::scope(|scope| {
            for _ in 0..readers {
                scope.spawn(|| {
                    barrier.wait();
                    assert_eq!(service.conf(&plan).unwrap_err(), expected);
                });
            }
        });
        let stats = service.stats();
        assert_eq!(stats.confidence_folds, readers as u64);
        assert_eq!(stats.contained_panics, 0);
        assert!(service.conf(&bills_plan()).unwrap().boolean > 0.0);
    }

    /// The id of the variable named `name` in `db`'s world table.
    fn var_named(db: &ProbDb, name: &str) -> uprob_wsd::VarId {
        db.world_table()
            .iter()
            .find(|(_, info)| info.name == name)
            .unwrap()
            .0
    }

    /// The Boolean ws-set of relation T (`c = 1 ∨ c = 2`) under whatever
    /// id the variable named "c" has in `db`.
    fn t_boolean_set(db: &ProbDb) -> uprob_wsd::WsSet {
        let c = var_named(db, "c");
        let w = db.world_table();
        uprob_wsd::WsSet::from_descriptors(vec![
            WsDescriptor::from_pairs(w, &[(c, 1)]).unwrap(),
            WsDescriptor::from_pairs(w, &[(c, 2)]).unwrap(),
        ])
    }

    #[test]
    fn conditioning_publish_inherits_unmutated_relations_warm_entries() {
        let db = db_with_extra_relation();
        let service = ProbDbService::new(db.clone());
        // Warm the cache with T's confidence fold, then condition on an
        // R-only constraint: c is untouched, so T's entries must survive.
        service.conf(&t_plan()).unwrap();
        let before = service.snapshot();
        assert!(before.cache_stats().entries > 0);
        let warm = before
            .cache()
            .probe(&t_boolean_set(before.db()))
            .expect("the Boolean T fold is in the cacheable band");
        let fd = Constraint::functional_dependency("R", &["SSN"], &["NAME"]);
        let outcome = service.assert_all(std::slice::from_ref(&fd)).unwrap();
        assert!(
            outcome.inherited.inherited > 0,
            "warm T entries must survive conditioning: {:?}",
            outcome.inherited
        );
        assert!(service.snapshot().cache_stats().inherited_entries > 0);
        // The inherited entry, re-keyed to the posterior's variable ids, is
        // bit-identical to the prior value (c's marginal is untouched by
        // an R-only condition).
        let after = service.snapshot();
        let inherited = after
            .cache()
            .probe(&t_boolean_set(after.db()))
            .expect("the remapped T entry was carried forward");
        assert_eq!(warm.to_bits(), inherited.to_bits());
        // Served answers over T are bit-identical to the library call on
        // the conditioned database.
        let served = service.conf(&t_plan()).unwrap();
        let conditioned = crate::constraints::assert_all(
            &db,
            std::slice::from_ref(&fd),
            &ConditioningOptions::default(),
        )
        .unwrap();
        assert_conf_bits(&served, &reference_conf(&conditioned.db, &t_plan()));
    }

    #[test]
    fn delta_publish_inherits_the_whole_cache() {
        let service = ProbDbService::new(db_with_extra_relation());
        service.conf(&t_plan()).unwrap();
        let warm = service.snapshot().cache_stats().entries;
        assert!(warm > 0);
        let outcome = service
            .publish_delta(|delta| {
                let v = delta.add_boolean("n1", 0.9)?;
                let d = WsDescriptor::from_pairs(delta.world_table(), &[(v, 1)])?;
                delta.append("R", Tuple::new(vec![Value::Int(3), Value::str("Ann")]), d)
            })
            .unwrap();
        assert_eq!(outcome.report.touched_relations, vec!["R".to_string()]);
        assert_eq!(outcome.report.appended_rows, 1);
        assert_eq!(
            outcome.inherited.inherited, warm,
            "a pure append inherits every warm entry under the identity remap"
        );
        assert_eq!(outcome.inherited.dropped, 0);
        // Reads over the unmutated relation hit inherited entries,
        // bit-identical to a cold recomputation on the new database.
        let served = service.conf(&t_plan()).unwrap();
        assert_conf_bits(&served, &reference_conf(outcome.snapshot.db(), &t_plan()));
        assert!(service.snapshot().cache_stats().inherited_hits > 0);
    }

    #[test]
    fn delta_conditioning_reuses_violations_and_inherits_posterior_to_posterior() {
        let db = db_with_extra_relation();
        let service = ProbDbService::new(db.clone());
        let fd = Constraint::functional_dependency("R", &["SSN"], &["NAME"]);
        let t_check = Constraint::row_filter(
            "T",
            Predicate::cmp(Expr::col("V"), Comparison::Lt, Expr::val(100i64)),
        );
        let constraints = vec![fd.clone(), t_check.clone()];

        // Round 1: everything is compiled; the posterior matches the full
        // rebuild bit for bit.
        let round1 = service.assert_all_delta(&constraints).unwrap();
        assert_eq!(round1.reused_violations, 0);
        let full1 = crate::constraints::assert_all(&db, &constraints, &Default::default()).unwrap();
        assert_eq!(round1.confidence.to_bits(), full1.confidence.to_bits());
        assert_conf_bits(
            &service.conf(&t_plan()).unwrap(),
            &reference_conf(&full1.db, &t_plan()),
        );

        // Ingest into the prior line without publishing: readers still see
        // the round-1 posterior (bounded staleness).
        let published_before = service.snapshot().stamp();
        let mutate = |delta: &mut DeltaBuilder| {
            let v = delta.add_boolean("n1", 0.9)?;
            let d = WsDescriptor::from_pairs(delta.world_table(), &[(v, 1)])?;
            delta.append("R", Tuple::new(vec![Value::Int(3), Value::str("Ann")]), d)
        };
        let report = service.ingest(mutate).unwrap();
        assert_eq!(report.touched_relations, vec!["R".to_string()]);
        assert_eq!(service.snapshot().stamp(), published_before);

        // Round 2: only the FD (whose relation changed) recompiles; the T
        // check is served from the memo. The posterior equals the full
        // rebuild on the mutated prior, and the warm T entries of the
        // round-1 posterior survive through the composed remap.
        let round2 = service.assert_all_delta(&constraints).unwrap();
        assert_eq!(
            round2.reused_violations, 1,
            "the unmutated T check is reused"
        );
        // The round-1 posterior's query entries mention round-1 fresh
        // conditioning variables, which have no mapping into the round-2
        // posterior: the disjointness check must drop them (conservative,
        // no stale reads) rather than guess.
        assert!(
            round2.inherited.dropped > 0,
            "entries over round-1 fresh variables must be dropped: {:?}",
            round2.inherited
        );
        let mut builder = DeltaBuilder::new(&db);
        mutate(&mut builder).unwrap();
        let (mutated, _) = builder.finish();
        let full2 =
            crate::constraints::assert_all(&mutated, &constraints, &Default::default()).unwrap();
        assert_eq!(round2.confidence.to_bits(), full2.confidence.to_bits());
        let served = service.conf(&t_plan()).unwrap();
        assert_conf_bits(&served, &reference_conf(&full2.db, &t_plan()));
    }

    #[test]
    fn clean_delta_conditioning_inherits_posterior_to_posterior_with_hits() {
        // Constraints that no world violates condition on the universal
        // set: the posterior is content-identical to the prior and the
        // composed posterior → posterior remap is the identity, so every
        // warm entry survives across publishes and keeps getting hit.
        let service = ProbDbService::new(db_with_extra_relation());
        let t_check = Constraint::row_filter(
            "T",
            Predicate::cmp(Expr::col("V"), Comparison::Lt, Expr::val(100i64)),
        );
        let r_key = Constraint::key("R", &["SSN", "NAME"]);
        let constraints = vec![t_check, r_key];
        service.assert_all_delta(&constraints).unwrap();
        service.conf(&t_plan()).unwrap();
        assert!(service.snapshot().cache_stats().entries > 0);
        // Clean ingest into R only; T's violation check is reused and T's
        // warm entries survive into the next posterior.
        service
            .ingest(|delta| {
                let v = delta.add_boolean("n2", 0.5)?;
                let d = WsDescriptor::from_pairs(delta.world_table(), &[(v, 1)])?;
                delta.append("R", Tuple::new(vec![Value::Int(8), Value::str("Eve")]), d)
            })
            .unwrap();
        let round2 = service.assert_all_delta(&constraints).unwrap();
        assert_eq!(round2.reused_violations, 1);
        assert!(
            round2.inherited.inherited > 0,
            "clean conditioning must carry warm entries posterior to posterior: {:?}",
            round2.inherited
        );
        let served = service.conf(&t_plan()).unwrap();
        assert_conf_bits(&served, &reference_conf(round2.snapshot.db(), &t_plan()));
        assert!(
            service.snapshot().cache_stats().inherited_hits > 0,
            "reads over the unmutated relation hit inherited entries"
        );
    }

    #[test]
    fn first_conditioning_publish_after_ingest_inherits_from_the_base_snapshot() {
        // Ingest refreshes the prior line's stamp, but append-only deltas
        // leave the published snapshot's variables as a bit-identical
        // prefix of the prior table — the conditioning remap applies to
        // them verbatim, so even the *first* publish carries the base
        // snapshot's warm entries forward instead of starting cold.
        let service = ProbDbService::new(db_with_extra_relation());
        service.conf(&t_plan()).unwrap();
        assert!(service.snapshot().cache_stats().entries > 0);
        service
            .ingest(|delta| {
                let v = delta.add_boolean("n2", 0.5)?;
                let d = WsDescriptor::from_pairs(delta.world_table(), &[(v, 1)])?;
                delta.append("R", Tuple::new(vec![Value::Int(8), Value::str("Eve")]), d)
            })
            .unwrap();
        let t_check = Constraint::row_filter(
            "T",
            Predicate::cmp(Expr::col("V"), Comparison::Lt, Expr::val(100i64)),
        );
        let outcome = service.assert_all_delta(&[t_check]).unwrap();
        assert!(
            outcome.inherited.inherited > 0,
            "the first publish after ingest must inherit from the base snapshot: {:?}",
            outcome.inherited
        );
        let served = service.conf(&t_plan()).unwrap();
        assert_conf_bits(&served, &reference_conf(outcome.snapshot.db(), &t_plan()));
        assert!(
            service.snapshot().cache_stats().inherited_hits > 0,
            "reads over the unmutated relation hit inherited entries"
        );
    }

    #[test]
    fn concurrent_identical_requests_each_get_the_library_bits() {
        let db = ssn_db();
        let service = ProbDbService::new(db.clone());
        let plan = bills_plan();
        let expected = reference_conf(&db, &plan);
        assert_conf_bits(&service.conf(&plan).unwrap(), &expected);
        let readers = 8;
        let barrier = std::sync::Barrier::new(readers);
        std::thread::scope(|scope| {
            for _ in 0..readers {
                scope.spawn(|| {
                    barrier.wait();
                    assert_conf_bits(&service.conf(&plan).unwrap(), &expected);
                });
            }
        });
        let stats = service.stats();
        assert_eq!(
            stats.confidence_folds,
            1 + readers as u64,
            "every request runs its own fold"
        );
        assert_eq!(stats.coalesced, 0);
    }
}
