//! The dynamic hidden database: schema + storage + index + top-`k`
//! interface + versioning.
//!
//! Two disjoint API surfaces live here:
//!
//! * the **search interface** ([`HiddenDatabase::answer`]) — what a
//!   third-party estimator can reach, always through a budgeted
//!   [`crate::session::SearchSession`];
//! * the **owner/ground-truth API** (insert/delete/apply, `exact_*`,
//!   slot sampling) — what workload drivers and experiment harnesses use.
//!   Estimators must never call it; the crate layout enforces this by
//!   having estimators depend only on the [`crate::session::SearchBackend`]
//!   trait.

use aggtrack_parallel::{par_map_indexed, Threads};

use crate::errors::DbError;
use crate::index::{gallop_to, InvertedIndex, SortedPostings};
use crate::interface::{slot_matches, CachedEval, QueryOutcome, TopK};
use crate::memo::{InvalidationPolicy, QueryMemo};
use crate::persist::{Pager, PersistConfig};
use crate::query::{ConjunctiveQuery, Predicate};
use crate::ranking::ScoringPolicy;
use crate::schema::Schema;
use crate::stats::{EvalStats, InterfaceStats, MaintenanceStats, MemoStats, PersistStats};
use crate::store::{segment_of, Slot, Store, StoreCore, BLOCK_SLOTS, SEGMENT_SLOTS};
use crate::tuple::Tuple;
use crate::updates::{UpdateBatch, UpdateFootprint, UpdateSummary};
use crate::value::{AttrId, MeasureId, TupleKey, ValueId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io;

/// How multi-predicate queries pick their intersection strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IntersectPolicy {
    /// Three or more predicates whose *rarest* list is still dense
    /// (`>= BLOCKMAX_MIN_RAREST` live postings): the k-way block-max
    /// engine ([`IntersectPolicy::BlockMax`]). Everything else: gallop
    /// when the two rarest lists are lopsided
    /// (`large >= GALLOP_RATIO * small`), per-segment bitsets otherwise.
    #[default]
    Auto,
    /// Always gallop the two rarest lists.
    Gallop,
    /// Always intersect per segment through a bitset.
    Bitset,
    /// k-way block-max (WAND-style) intersection: every predicate list
    /// participates, 256-slot blocks are visited best-bound-first, and a
    /// block whose combined bound (min over the lists' block maxes,
    /// capped by the store's) cannot beat the top-`k` floor is skipped
    /// whole once overflow is pinned.
    BlockMax,
}

/// Evaluation-engine tuning. Every setting is **outcome-invariant**:
/// query answers are bit-identical across all combinations and to
/// [`HiddenDatabase::reference_answer`] (pinned by
/// `tests/eval_oracle_proptest.rs`); only wall-clock and [`EvalStats`]
/// counters move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalConfig {
    /// Stop top-`k` scans once `matched > k` and the heap floor provably
    /// beats every remaining segment's score bound.
    pub early_exit: bool,
    /// Intersection strategy for multi-predicate queries.
    pub intersect: IntersectPolicy,
}

impl Default for EvalConfig {
    fn default() -> Self {
        Self { early_exit: true, intersect: IntersectPolicy::Auto }
    }
}

/// Density cut-over for [`IntersectPolicy::Auto`]: gallop when the larger
/// list is at least this many times the smaller, per-segment bitsets
/// below. Pinned by the `intersect` criterion bench
/// (`crates/bench/benches/intersect.rs`): the strategies run within noise
/// of each other up to ratio ≈ 8, galloping pulls ahead from ≈ 16 and is
/// ~1.7× the bitset at 256, so 8 keeps the word-parallel bitset exactly
/// where it is never a regression and hands lopsided pairs to the gallop.
/// The k-way block-max engine reuses the same ratio for its per-block
/// sparse/dense cut (longest run ≥ 8× the shortest → gallop the block,
/// else word-AND it); the bench's `kway` group re-pins it at block
/// granularity, where the two in-block paths likewise cross between
/// ratio 4 and 16.
const GALLOP_RATIO: usize = 8;

/// 64-bit words per segment bitset.
const SEGMENT_WORDS: usize = SEGMENT_SLOTS / 64;

/// 64-bit words per block bitset (the dense-path unit of the k-way
/// block-max engine).
const BLOCK_WORDS: usize = BLOCK_SLOTS / 64;

/// Density floor for [`IntersectPolicy::Auto`]'s 3+-predicate routing:
/// the k-way block-max engine only pays off when even the *rarest*
/// participating list has at least this many live postings. Below it the
/// two-rarest pipeline touches only the rare list's few candidates,
/// while block-max pays a directory probe in every list for every block
/// of the driver — on the selective deep-query pool in `perf_baseline`
/// that overhead made unguarded routing ~4× slower than the pair
/// engines, whereas on half-density lists (the `intersection_kway`
/// section) block-max wins by skipping whole 256-slot blocks. Forcing
/// `BlockMax` explicitly bypasses the gate.
const BLOCKMAX_MIN_RAREST: usize = 2 * SEGMENT_SLOTS;

/// How much work one [`HiddenDatabase::maintain`] call may do, in slots/
/// postings scanned. Maintenance is incremental by design: a small
/// per-round budget amortises compaction across rounds instead of
/// stalling one round with a full sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaintenanceBudget {
    /// Slots (store sweeps) plus postings (index sweeps) the call may
    /// scan before stopping.
    pub slot_scans: usize,
}

impl MaintenanceBudget {
    /// No cap: finish all outstanding maintenance
    /// ([`HiddenDatabase::compact`]).
    pub fn unlimited() -> Self {
        Self { slot_scans: usize::MAX }
    }

    /// A cap of `n` scanned slots/postings.
    pub fn slots(n: usize) -> Self {
        Self { slot_scans: n }
    }
}

/// What one [`HiddenDatabase::maintain`] call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintenanceReport {
    /// Store segments whose score bound was recomputed exactly.
    pub segments_recomputed: usize,
    /// Recomputes that actually tightened a bound.
    pub bounds_tightened: usize,
    /// Posting lists compacted (tombstones purged, runs rebuilt).
    pub lists_compacted: usize,
    /// Tombstoned/duplicate postings removed.
    pub postings_purged: usize,
    /// Slots + postings scanned (budget spent).
    pub slots_scanned: usize,
    /// Whether the budget ran out with work left over.
    pub exhausted: bool,
}

/// A lightweight, allocation-free view of one stored tuple, used by the
/// owner-side ground-truth API.
#[derive(Clone, Copy)]
pub struct TupleRef<'a> {
    store: &'a StoreCore,
    slot: Slot,
}

impl<'a> TupleRef<'a> {
    /// External key.
    pub fn key(&self) -> TupleKey {
        self.store.key_at(self.slot)
    }

    /// Value of attribute `attr`.
    pub fn value(&self, attr: AttrId) -> ValueId {
        ValueId(self.store.value_at(attr.index(), self.slot))
    }

    /// Value of measure `m`.
    pub fn measure(&self, m: MeasureId) -> f64 {
        self.store.measure_at(m.index(), self.slot)
    }

    /// Whether this tuple satisfies `query`.
    pub fn matches(&self, query: &ConjunctiveQuery) -> bool {
        query
            .predicates()
            .iter()
            .all(|p| self.store.value_at(p.attr.index(), self.slot) == p.value.0)
    }
}

/// The dynamic hidden web database.
#[derive(Debug, Clone)]
pub struct HiddenDatabase {
    schema: Schema,
    store: Store,
    index: InvertedIndex,
    scoring: ScoringPolicy,
    k: usize,
    version: u64,
    cache: QueryMemo,
    policy: InvalidationPolicy,
    stats: InterfaceStats,
    eval_config: EvalConfig,
    eval_stats: EvalStats,
    maintenance_stats: MaintenanceStats,
    /// Reusable footprint buffers: single-op mutations would otherwise
    /// allocate (and drop) two vectors each.
    scratch_footprint: UpdateFootprint,
}

impl HiddenDatabase {
    /// Creates an empty database with top-`k` interface and the given
    /// scoring policy.
    pub fn new(schema: Schema, k: usize, scoring: ScoringPolicy) -> Self {
        let index = InvertedIndex::new(&schema);
        let store = Store::new(schema.attr_count(), schema.measure_count());
        Self {
            schema,
            store,
            index,
            scoring,
            k,
            version: 0,
            cache: QueryMemo::default(),
            policy: InvalidationPolicy::default(),
            stats: InterfaceStats::default(),
            eval_config: EvalConfig::default(),
            eval_stats: EvalStats::default(),
            maintenance_stats: MaintenanceStats::default(),
            scratch_footprint: UpdateFootprint::default(),
        }
    }

    /// Creates a database holding `tuples`, **bulk-loaded in score
    /// order**: slot order is `(score desc, key asc)` under `scoring`, so
    /// the segment and block score bounds fall as slots rise and a top-`k`
    /// scan finds its page in the first blocks it visits. Answers, ground
    /// truth and sampling are the same as after inserting the tuples one
    /// by one through [`HiddenDatabase::insert`]; only the slot layout
    /// (and so the evaluation cost) differs.
    ///
    /// Errors, without panicking and before building anything, with
    /// [`DbError::TupleMismatch`] if a tuple does not fit the schema and
    /// [`DbError::DuplicateKey`] if two tuples share a key. An empty
    /// `tuples` gives the same database as [`HiddenDatabase::new`].
    pub fn from_tuples(
        schema: Schema,
        k: usize,
        scoring: ScoringPolicy,
        tuples: Vec<Tuple>,
    ) -> Result<Self, DbError> {
        let mut db = Self::new(schema, k, scoring);
        for t in &tuples {
            db.validate_tuple(t)?;
        }
        let (attrs, measures) = (db.schema.attr_count(), db.schema.measure_count());
        db.store =
            Store::bulk_load(attrs, measures, tuples, |t| scoring.score(t.key(), t.measures()))?;
        db.index.rebuild(&db.store);
        Ok(db)
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The interface's `k` (page size).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Changes `k` (used by the Fig 8 parameter sweep). `k` affects every
    /// cached classification, so this clears the whole memo.
    pub fn set_k(&mut self, k: usize) {
        self.k = k;
        self.bump_version();
    }

    /// Monotonic data version; bumps on every *effective* mutation (an
    /// empty batch, which changes nothing, leaves it — and the memo —
    /// untouched).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// How the query memo reacts to mutations (default:
    /// [`InvalidationPolicy::Incremental`]).
    pub fn invalidation_policy(&self) -> InvalidationPolicy {
        self.policy
    }

    /// Switches the memo policy. Conservatively clears the memo (cheap,
    /// and policies differ in what they guarantee about existing entries).
    pub fn set_invalidation_policy(&mut self, policy: InvalidationPolicy) {
        self.policy = policy;
        self.bump_version();
    }

    /// Caps the number of memoised queries (admission/eviction bound;
    /// default [`crate::DEFAULT_MEMO_CAPACITY`]). `0` disables admission
    /// entirely.
    pub fn set_memo_capacity(&mut self, capacity: usize) {
        self.cache.set_capacity(capacity);
    }

    /// Number of queries currently memoised.
    pub fn memo_len(&self) -> usize {
        self.cache.len()
    }

    /// The memo's entry cap.
    pub fn memo_capacity(&self) -> usize {
        self.cache.capacity()
    }

    /// Memo lifecycle counters (invalidations, evictions, clears,
    /// demotions/resurrections).
    pub fn memo_stats(&self) -> MemoStats {
        self.cache.stats()
    }

    /// Number of memoised queries currently demoted to `Stale` (kept for
    /// the lookup-time revalidation re-check).
    pub fn memo_stale_len(&self) -> usize {
        self.cache.stale_len()
    }

    /// Toggles cross-round memo revalidation (default: on). When on, an
    /// invalidated overflow entry whose cached page the mutation
    /// provably spared is demoted to `Stale` instead of dropped, and the
    /// next lookup re-checks it against live scores/segment bounds —
    /// resurrecting the shared page when the top-`k` provably did not
    /// change. Outcome-invariant (pinned by the memo and compaction
    /// oracle proptests); only hit rates and wall-clock move.
    pub fn set_revalidation(&mut self, on: bool) {
        self.cache.set_revalidate(on);
    }

    /// Whether cross-round memo revalidation is active.
    pub fn revalidation_enabled(&self) -> bool {
        self.cache.revalidate_enabled()
    }

    // ----- maintenance ----------------------------------------------------

    /// Incremental segment maintenance: spends up to `budget` scanned
    /// slots/postings recomputing exact per-segment score bounds (the
    /// stalest segments first) and compacting tombstoned posting lists
    /// (rebuilding their segment-run skip metadata). Restores early-exit
    /// effectiveness — and segment-level revalidation precision — under
    /// delete-heavy / score-drop churn.
    ///
    /// **Outcome-invariant and slot-stable**: no tuple moves, the free
    /// list is untouched, no version bump, the memo is not invalidated.
    /// Every query answer, tie-break, and owner-side RNG draw is
    /// bit-identical whether or when maintenance runs (pinned by
    /// `compaction_oracle_proptest` and the bench determinism suite).
    pub fn maintain(&mut self, budget: MaintenanceBudget) -> MaintenanceReport {
        let mut remaining = budget.slot_scans;
        let mut report = MaintenanceReport::default();
        for seg in self.store.stale_segments() {
            let span = self.store.segment_range(seg);
            let cost = (span.end - span.start) as usize;
            if cost > remaining {
                // Skip, don't abort: a later (e.g. the trailing partial)
                // segment may still fit, and the leftover budget flows
                // to the index sweep either way.
                report.exhausted = true;
                continue;
            }
            remaining -= cost;
            report.slots_scanned += cost;
            report.segments_recomputed += 1;
            if self.store.recompute_segment_bound(seg) {
                report.bounds_tightened += 1;
            }
            self.store.debug_assert_bound_exact(seg);
        }
        let index_report = self.index.maintain(&self.store, &mut remaining);
        report.lists_compacted += index_report.lists_compacted;
        report.postings_purged += index_report.postings_purged;
        report.slots_scanned += index_report.postings_scanned;
        report.exhausted |= index_report.exhausted;
        let stats = &mut self.maintenance_stats;
        stats.maintain_calls += 1;
        stats.segments_recomputed += report.segments_recomputed as u64;
        stats.bounds_tightened += report.bounds_tightened as u64;
        stats.lists_compacted += report.lists_compacted as u64;
        stats.postings_purged += report.postings_purged as u64;
        stats.slots_scanned += report.slots_scanned as u64;
        report
    }

    /// Unbudgeted [`HiddenDatabase::maintain`]: finishes every
    /// outstanding bound recompute and list compaction.
    pub fn compact(&mut self) -> MaintenanceReport {
        self.maintain(MaintenanceBudget::unlimited())
    }

    /// Counters accumulated across maintenance calls.
    pub fn maintenance_stats(&self) -> MaintenanceStats {
        self.maintenance_stats
    }

    /// Store segments whose score bound may currently be loose — the
    /// outstanding bound-maintenance work.
    pub fn stale_segment_count(&self) -> usize {
        self.store.stale_segment_count()
    }

    /// The worst per-segment maintenance pressure:
    /// `max(stale_ops + dead slots)` over all store segments — how much
    /// a [`HiddenDatabase::compact`] would currently have to do.
    pub fn max_segment_pressure(&self) -> u32 {
        self.store.max_segment_pressure()
    }

    /// `|D|`: number of alive tuples.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Interface traffic counters.
    pub fn stats(&self) -> InterfaceStats {
        self.stats
    }

    /// Evaluation-engine path counters.
    pub fn eval_stats(&self) -> EvalStats {
        self.eval_stats
    }

    /// The evaluation-engine tuning in force.
    pub fn eval_config(&self) -> EvalConfig {
        self.eval_config
    }

    /// Retunes the evaluation engine. Outcome-invariant — answers are
    /// bit-identical under every configuration, so the memo survives the
    /// switch.
    pub fn set_eval_config(&mut self, config: EvalConfig) {
        self.eval_config = config;
    }

    /// The scoring policy in force (owner API; a real site would never
    /// disclose it).
    pub fn scoring_policy(&self) -> ScoringPolicy {
        self.scoring
    }

    // ----- persistence tier -----------------------------------------------

    /// Attaches the out-of-core persistence tier: segment data pages
    /// between memory and `cfg.dir/segments.dat` under a
    /// `cfg.resident_segments` budget (see [`crate::persist`]), spilling
    /// the cold majority immediately. **Outcome-invariant**: every
    /// answer, page, and tie-break is bit-identical to the all-RAM
    /// database (pinned by the out-of-core oracle proptest); only
    /// wall-clock and resident memory move.
    ///
    /// Errors if a tier is already attached or the region file cannot be
    /// created.
    pub fn enable_persist(&mut self, cfg: &PersistConfig) -> io::Result<()> {
        if self.persist_enabled() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "persistence tier already enabled",
            ));
        }
        let pager = Pager::open(
            &cfg.dir,
            self.schema.attr_count(),
            self.schema.measure_count(),
            cfg.resident_segments,
        )?;
        self.store.attach_pager(pager);
        Ok(())
    }

    /// Whether the persistence tier is attached.
    pub fn persist_enabled(&self) -> bool {
        self.store.pager().is_some()
    }

    /// Paging counters (spills, faults, cache evictions, on-disk bytes,
    /// residency high-water mark). All zeros without the tier.
    pub fn persist_stats(&self) -> PersistStats {
        self.store.pager().map(|p| p.stats()).unwrap_or_default()
    }

    /// Appends a durable full-state snapshot (codec v2: segment data
    /// plus all warm state — segment/block score bounds, posting-list
    /// block directories, the free list) to the journal in the persist
    /// directory and fsyncs. `&self` on purpose: checkpointing reads
    /// through the paged view and serialises index lists verbatim, so it
    /// can run between any two mutations without touching warm state.
    ///
    /// Errors if the tier is not enabled.
    pub fn checkpoint(&self) -> io::Result<()> {
        let pager = self.store.pager().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "checkpoint requires --persist")
        })?;
        let mut payload = Vec::new();
        crate::codec::write_snapshot(self, &mut payload)?;
        crate::persist::append_journal_record(
            &pager.dir().join(crate::persist::JOURNAL_FILE),
            &payload,
        )
    }

    /// Warm restart: recovers the last durable [`checkpoint`] from
    /// `cfg.dir`'s journal (ignoring any torn tail from a crash
    /// mid-append) and re-attaches the persistence tier. The restored
    /// database carries every bound, block directory, and free-list
    /// entry of the checkpointed one, so it evolves bit-identically from
    /// here — no cold-start recompute.
    ///
    /// Errors with [`io::ErrorKind::NotFound`] when the journal holds no
    /// valid record.
    ///
    /// [`checkpoint`]: HiddenDatabase::checkpoint
    pub fn open_persistent(cfg: &PersistConfig) -> io::Result<Self> {
        let journal = cfg.dir.join(crate::persist::JOURNAL_FILE);
        let payload = crate::persist::read_last_journal_record(&journal)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, "no durable snapshot in the journal")
        })?;
        let mut db = crate::codec::read_snapshot(&mut &payload[..])?;
        db.enable_persist(cfg)?;
        Ok(db)
    }

    /// The store, for the codec's verbatim snapshot walk.
    pub(crate) fn store_ref(&self) -> &Store {
        &self.store
    }

    /// The index, for the codec's verbatim snapshot walk.
    pub(crate) fn index_ref(&self) -> &InvertedIndex {
        &self.index
    }

    /// Rebuilds a database from restored snapshot state (codec v2):
    /// store and index verbatim, fresh version/memo/stats (the memo is
    /// an epoch cache — a restarted process starts a new epoch; answers
    /// are unaffected).
    pub(crate) fn from_restored(
        schema: Schema,
        k: usize,
        scoring: ScoringPolicy,
        store: Store,
        index: InvertedIndex,
    ) -> Self {
        let mut db = Self::new(schema, k, scoring);
        db.store = store;
        db.index = index;
        db
    }

    /// Version bump with a wholesale memo clear — for mutations that can
    /// affect *every* cached entry (`set_k`, policy switches).
    fn bump_version(&mut self) {
        self.version += 1;
        self.cache.clear();
    }

    /// Hands out the reusable footprint buffer (cleared). Single-op
    /// mutations are hot in the interface microbench; reusing the two
    /// vectors instead of allocating per op is part of the batched
    /// footprint construction work.
    fn take_footprint(&mut self) -> UpdateFootprint {
        let mut footprint = std::mem::take(&mut self.scratch_footprint);
        footprint.clear();
        footprint
    }

    /// Commits a mutation's footprint: bumps the version and invalidates
    /// the memo according to the active policy. A no-op for an empty
    /// footprint — a mutation that changed nothing invalidates nothing.
    /// The footprint buffer returns to the scratch slot for reuse.
    ///
    /// This runs on the error path of [`HiddenDatabase::apply`] too:
    /// a batch that fails mid-way leaves its applied prefix in place, and
    /// the memo must see that prefix's footprint or it would keep serving
    /// pages containing the prefix's deleted tuples.
    fn finish_mutation(&mut self, mut footprint: UpdateFootprint) {
        if !footprint.is_empty() {
            self.version += 1;
            match self.policy {
                InvalidationPolicy::Incremental => {
                    self.cache.invalidate(&mut footprint, self.version)
                }
                // Disabled: the memo never holds entries; nothing to drop.
                InvalidationPolicy::Disabled => {}
            }
        }
        self.scratch_footprint = footprint;
    }

    fn validate_tuple(&self, t: &Tuple) -> Result<(), DbError> {
        if t.values().len() != self.schema.attr_count() {
            return Err(DbError::TupleMismatch(format!(
                "expected {} values, got {}",
                self.schema.attr_count(),
                t.values().len()
            )));
        }
        if t.measures().len() != self.schema.measure_count() {
            return Err(DbError::TupleMismatch(format!(
                "expected {} measures, got {}",
                self.schema.measure_count(),
                t.measures().len()
            )));
        }
        for (i, &v) in t.values().iter().enumerate() {
            if !self.schema.value_in_domain(AttrId(i as u16), v) {
                return Err(DbError::TupleMismatch(format!("value {v} outside domain of A{i}")));
            }
        }
        Ok(())
    }

    // ----- owner API ------------------------------------------------------

    /// Inserts one tuple.
    pub fn insert(&mut self, tuple: Tuple) -> Result<(), DbError> {
        let mut footprint = self.take_footprint();
        let result = self.insert_inner(tuple, &mut footprint);
        self.finish_mutation(footprint);
        result
    }

    /// Deletes one tuple by key.
    pub fn delete(&mut self, key: TupleKey) -> Result<(), DbError> {
        let mut footprint = self.take_footprint();
        let result = self.delete_inner(key, &mut footprint);
        self.finish_mutation(footprint);
        result
    }

    /// Overwrites the measures of an alive tuple (its position in the query
    /// tree is unchanged; its rank may change under measure-based scoring).
    pub fn update_measures(&mut self, key: TupleKey, measures: Vec<f64>) -> Result<(), DbError> {
        let mut footprint = self.take_footprint();
        let result = self.update_measures_inner(key, &measures, &mut footprint);
        self.finish_mutation(footprint);
        result
    }

    /// Applies a batch: deletes, then measure updates, then inserts; bumps
    /// the version once. Fails atomically per element (earlier elements
    /// stay applied — batches from schedules are pre-validated), and the
    /// memo is invalidated for whatever prefix applied, **even on the
    /// error path** — a failed batch must not leave cached pages serving
    /// its already-deleted tuples.
    ///
    /// An empty batch is a true no-op: no version bump, memo retained —
    /// a round in which nothing changes costs nothing.
    pub fn apply(&mut self, batch: UpdateBatch) -> Result<UpdateSummary, DbError> {
        if batch.is_empty() {
            return Ok(UpdateSummary::default());
        }
        // The footprint accumulates across the whole batch and is sealed
        // (sorted + deduped) exactly once by the single invalidation pass
        // in `finish_mutation` — per-op work is plain vector appends.
        let mut footprint = self.take_footprint();
        let result = self.apply_batch(batch, &mut footprint);
        self.finish_mutation(footprint);
        result
    }

    fn apply_batch(
        &mut self,
        batch: UpdateBatch,
        footprint: &mut UpdateFootprint,
    ) -> Result<UpdateSummary, DbError> {
        let mut summary = UpdateSummary::default();
        for key in &batch.deletes {
            self.delete_inner(*key, footprint)?;
            summary.deleted += 1;
        }
        for (key, measures) in &batch.measure_updates {
            self.update_measures_inner(*key, measures, footprint)?;
            summary.measures_updated += 1;
        }
        for tuple in batch.inserts {
            self.insert_inner(tuple, footprint)?;
            summary.inserted += 1;
        }
        Ok(summary)
    }

    fn insert_inner(
        &mut self,
        tuple: Tuple,
        footprint: &mut UpdateFootprint,
    ) -> Result<(), DbError> {
        self.validate_tuple(&tuple)?;
        let score = self.scoring.score(tuple.key(), tuple.measures());
        let values: Vec<ValueId> = tuple.values().to_vec();
        let slot = self.store.insert(tuple, score)?;
        self.index.insert(slot, &values, score);
        footprint.record(slot, &values);
        Ok(())
    }

    /// The full value row of the (alive) tuple at `slot`, in schema order.
    fn row_of(&self, slot: Slot) -> Vec<ValueId> {
        (0..self.schema.attr_count()).map(|a| ValueId(self.store.value_at(a, slot))).collect()
    }

    fn delete_inner(
        &mut self,
        key: TupleKey,
        footprint: &mut UpdateFootprint,
    ) -> Result<(), DbError> {
        let slot = self.store.slot_of(key).ok_or(DbError::UnknownKey(key))?;
        let values = self.row_of(slot);
        self.store.delete(key)?;
        self.index.delete(slot, &values, &self.store);
        footprint.record(slot, &values);
        Ok(())
    }

    fn update_measures_inner(
        &mut self,
        key: TupleKey,
        measures: &[f64],
        footprint: &mut UpdateFootprint,
    ) -> Result<(), DbError> {
        if measures.len() != self.schema.measure_count() {
            return Err(DbError::TupleMismatch(format!(
                "expected {} measures, got {}",
                self.schema.measure_count(),
                measures.len()
            )));
        }
        let slot = self.store.update_measures(key, measures)?;
        // Rank score may depend on measures; recompute.
        let key_at = self.store.key_at(slot);
        let old_score = self.store.score_at(slot);
        let score = self.scoring.score(key_at, measures);
        self.store.set_score(slot, score);
        // The tuple's measures (served in cached pages) and rank (cached
        // page order) changed: its full row enters the footprint.
        let values = self.row_of(slot);
        if score > old_score {
            // A rank promotion must reach the per-list block-max bounds
            // eagerly — the store's set_score handles its own block
            // bounds, but the posting lists track theirs. A drop needs
            // nothing (standing bounds stay sound).
            self.index.note_score_raise(slot, &values, score);
        }
        footprint.record(slot, &values);
        Ok(())
    }

    // ----- search interface ----------------------------------------------

    /// Answers a search query through the top-`k` interface. **Unbudgeted**:
    /// sessions wrap this and charge the per-round budget.
    ///
    /// # Panics
    /// If the query references attributes/values outside the schema — that
    /// is a caller bug, not a runtime condition.
    pub fn answer(&mut self, query: &ConjunctiveQuery) -> QueryOutcome {
        query.validate(&self.schema).expect("search query must be valid for the schema");
        self.stats.answered += 1;
        if matches!(self.policy, InvalidationPolicy::Disabled) {
            // The memo-free oracle path: every answer re-evaluates.
            let mut eval = self.evaluate_uncached(query);
            let out = eval.outcome(&self.store);
            self.count_outcome(&out);
            return out;
        }
        // One fast fingerprint per answer; the memo never re-hashes the
        // query and only clones it on a confirmed miss. A `Stale` entry
        // runs the revalidation re-check against the store here and is
        // either served (resurrected) or dropped into the miss path.
        let hash = QueryMemo::hash_of(query);
        if let Some(cached) = self.cache.get_or_revalidate(hash, query, self.version, &self.store) {
            self.stats.cache_hits += 1;
            let out = cached.outcome(&self.store);
            self.count_outcome(&out);
            return out;
        }
        let mut eval = self.evaluate_uncached(query);
        let out = eval.outcome(&self.store);
        self.cache.insert(hash, query, eval, self.version);
        self.count_outcome(&out);
        out
    }

    fn count_outcome(&mut self, out: &QueryOutcome) {
        match out {
            QueryOutcome::Underflow => self.stats.underflows += 1,
            QueryOutcome::Valid(_) => self.stats.valids += 1,
            QueryOutcome::Overflow(_) => self.stats.overflows += 1,
        }
    }

    /// The uncached evaluation path: pays any pending lazy sorts for the
    /// query's posting lists, then runs the shared read-only engine
    /// ([`evaluate_query`]) over disjoint borrows of store/index/stats.
    fn evaluate_uncached(&mut self, query: &ConjunctiveQuery) -> CachedEval {
        // Sorting up front (rather than inside the engine) is what lets
        // the engine take the index by shared reference, alongside
        // disjoint borrows of the store and the eval counters. Sorting
        // *all* of the query's lists (not just the eventual drivers) is
        // outcome-invariant — the top-`k` page is independent of driver
        // choice (oracle-pinned) — and ranks drivers on post-dedup
        // lengths whichever lists end up driving.
        for p in query.predicates() {
            self.index.ensure_sorted(p.attr, p.value);
        }
        evaluate_query(
            query,
            &self.store,
            &self.index,
            self.k,
            self.eval_config,
            &mut self.eval_stats,
        )
    }

    // ----- ground truth (experiments/tests only) --------------------------

    /// The answer [`HiddenDatabase::answer`] must give, by brute force:
    /// every alive slot is checked against every predicate and ranked
    /// through the same `(score, key)` top-`k` order. Uses no index,
    /// memo or engine code, so it is the reference the oracle tests
    /// compare the engine against. Unmetered: leaves every stats counter
    /// alone.
    ///
    /// # Panics
    /// If the query references attributes/values outside the schema.
    pub fn reference_answer(&self, query: &ConjunctiveQuery) -> QueryOutcome {
        query.validate(&self.schema).expect("search query must be valid for the schema");
        let mut topk = TopK::new(self.k);
        for slot in self.store.alive_slots() {
            if slot_matches(query, &self.store, slot) {
                topk.offer_slot(&self.store, slot);
            }
        }
        topk.finish().outcome(&self.store)
    }

    /// Exact number of alive tuples matching `query` (root if `None`).
    /// Bypasses the interface; for experiments and tests. Sequential —
    /// see [`HiddenDatabase::exact_count_threads`] for the segment
    /// fan-out.
    pub fn exact_count(&self, query: Option<&ConjunctiveQuery>) -> u64 {
        self.exact_count_threads(query, Threads::sequential())
    }

    /// [`HiddenDatabase::exact_count`] fanned out over store segments on
    /// the given thread pool. Counts merge in segment order, so the
    /// result is identical for every thread count.
    pub fn exact_count_threads(&self, query: Option<&ConjunctiveQuery>, threads: Threads) -> u64 {
        match query {
            None => self.store.len() as u64,
            Some(q) => {
                let segs: Vec<usize> = self.store.live_segments().collect();
                par_map_indexed(segs.len(), threads, |i| {
                    self.store
                        .alive_slots_in(segs[i])
                        .filter(|&slot| slot_matches(q, &self.store, slot))
                        .count() as u64
                })
                .into_iter()
                .sum()
            }
        }
    }

    /// Exact sum of `f` over alive tuples matching `query`, added in
    /// ascending key order, so the result depends only on the tuples and
    /// not on which slot holds each one. Sequential — see
    /// [`HiddenDatabase::exact_sum_threads`] for the segment fan-out.
    pub fn exact_sum(
        &self,
        query: Option<&ConjunctiveQuery>,
        mut f: impl FnMut(TupleRef<'_>) -> f64,
    ) -> f64 {
        let mut terms = Vec::new();
        self.for_each_alive(|t| {
            if query.is_none_or(|q| t.matches(q)) {
                terms.push((t.key().0, f(t)));
            }
        });
        sum_in_key_order(terms)
    }

    /// [`HiddenDatabase::exact_sum`] fanned out over store segments.
    ///
    /// **Bit-identical to the sequential sum for every thread count**
    /// (the trial-runner merge contract): workers return the matched
    /// `(key, value)` terms of their segment; the main thread sorts the
    /// union by key and adds in that order, exactly as
    /// [`HiddenDatabase::exact_sum`] does.
    pub fn exact_sum_threads(
        &self,
        query: Option<&ConjunctiveQuery>,
        f: impl Fn(TupleRef<'_>) -> f64 + Sync,
        threads: Threads,
    ) -> f64 {
        let segs: Vec<usize> = self.store.live_segments().collect();
        let parts: Vec<Vec<(u64, f64)>> = par_map_indexed(segs.len(), threads, |i| {
            let mut terms = Vec::new();
            for slot in self.store.alive_slots_in(segs[i]) {
                let t = TupleRef { store: &self.store, slot };
                if query.is_none_or(|q| t.matches(q)) {
                    terms.push((t.key().0, f(t)));
                }
            }
            terms
        });
        sum_in_key_order(parts.concat())
    }

    /// Visits every alive tuple (owner API), in ascending slot order —
    /// the one owner-side view that follows the slot layout. A caller
    /// that draws from the visit order must put it in key order first.
    pub fn for_each_alive(&self, mut f: impl FnMut(TupleRef<'_>)) {
        for slot in self.store.alive_slots() {
            f(TupleRef { store: &self.store, slot });
        }
    }

    /// Borrowing accessor for an alive tuple by key (owner API).
    pub fn get(&self, key: TupleKey) -> Option<TupleRef<'_>> {
        self.store.slot_of(key).map(|slot| TupleRef { store: &self.store, slot })
    }

    /// Samples `count` distinct alive tuple keys uniformly at random,
    /// deterministically under the caller's RNG (owner API; schedules use
    /// this to pick deletion victims). The draws depend only on the set
    /// of alive keys, never on which slot holds a tuple.
    ///
    /// When the alive keys fill at least `1 / SAMPLE_DENSE_SPAN` of
    /// their range `min..=max` and at most half of them are wanted, keys
    /// are rejection-sampled over that range through the key → slot map
    /// (O(`count`) expected draws after one O(n) range scan). Otherwise
    /// the picks come from a partial Fisher–Yates shuffle of
    /// [`HiddenDatabase::alive_keys_sorted`].
    ///
    /// Returns fewer than `count` keys only if the database holds fewer
    /// alive tuples.
    pub fn sample_alive_keys<R: rand::Rng + ?Sized>(
        &self,
        rng: &mut R,
        count: usize,
    ) -> Vec<TupleKey> {
        let alive = self.store.len();
        let want = count.min(alive);
        let Some((lo, hi)) = self.store.alive_key_range().filter(|_| want > 0) else {
            return Vec::new();
        };
        let span = u128::from(hi - lo) + 1;
        if span <= SAMPLE_DENSE_SPAN * alive as u128 && want <= alive / 2 {
            let mut picked = std::collections::HashSet::with_capacity(want);
            let mut out = Vec::with_capacity(want);
            while out.len() < want {
                let key = TupleKey(rng.random_range(lo..=hi));
                if self.store.slot_of(key).is_some() && picked.insert(key) {
                    out.push(key);
                }
            }
            return out;
        }
        let mut keys = self.alive_keys_sorted();
        for i in 0..want {
            let j = rng.random_range(i..keys.len());
            keys.swap(i, j);
        }
        keys.truncate(want);
        keys
    }

    /// All alive keys, sorted (deterministic; owner API, O(n log n)).
    pub fn alive_keys_sorted(&self) -> Vec<TupleKey> {
        let mut keys: Vec<TupleKey> = self.store.alive_keys().map(|(k, _)| k).collect();
        keys.sort_unstable();
        keys
    }
}

/// Rejection sampling in [`HiddenDatabase::sample_alive_keys`] needs the
/// alive keys to fill at least `1 / SAMPLE_DENSE_SPAN` of their range:
/// at most that many expected draws per pick.
const SAMPLE_DENSE_SPAN: u128 = 4;

/// Adds the values of `terms` in ascending key order. Keys are unique
/// among alive tuples, so the order (and with it every rounding step) is
/// a function of the tuples alone.
fn sum_in_key_order(mut terms: Vec<(u64, f64)>) -> f64 {
    terms.sort_unstable_by_key(|&(key, _)| key);
    terms.iter().fold(0.0, |acc, &(_, v)| acc + v)
}

/// The uncached evaluation engine behind [`HiddenDatabase::answer`]. A
/// free function over shared borrows of the store and index, so the
/// caller can hand it its eval counters mutably at the same time.
/// Requires the posting list of every query predicate to be sorted
/// already (`evaluate_uncached` sorts them on demand). Dispatch:
///
/// * **root** — segment-ordered alive scan (descending max-score
///   order so early exits fire as soon as the page stabilises);
/// * **one predicate** — the posting list's segment runs, visited in
///   descending max-score order, with the same early exit;
/// * **two or more** — intersection of the two rarest lists
///   (galloping when lopsided, per-segment bitsets when dense),
///   residual predicates checked columnar per candidate.
///
/// Every path produces the same `CachedEval` bit-for-bit (pinned by
/// the oracle proptest): the top-`k` page under the total
/// `(score, key)` order is independent of candidate visit order, and
/// early exits only skip candidates that provably cannot enter it.
pub(crate) fn evaluate_query(
    query: &ConjunctiveQuery,
    store: &StoreCore,
    index: &InvertedIndex,
    k: usize,
    config: EvalConfig,
    stats: &mut EvalStats,
) -> CachedEval {
    match *query.predicates() {
        [] => eval_root(store, k, config, stats),
        [driver] => eval_single(query, driver, store, index, k, config, stats),
        _ => eval_multi(query, store, index, k, config, stats),
    }
}

/// Root (`SELECT *`): every alive tuple matches; scan segments in
/// descending max-score order and stop once the page is proven.
fn eval_root(store: &StoreCore, k: usize, config: EvalConfig, stats: &mut EvalStats) -> CachedEval {
    stats.root_scans += 1;
    let mut topk = TopK::new(k);
    let order = store.segments_by_score_desc();
    for (i, &(seg, bound)) in order.iter().enumerate() {
        // `order` is bound-descending, so this segment's bound caps
        // every remaining candidate.
        if config.early_exit && topk.can_stop(bound) {
            stats.early_exits += 1;
            stats.segments_skipped += (order.len() - i) as u64;
            break;
        }
        // One paged view per segment: with the persistence tier attached
        // this is a single fault instead of two per slot.
        let data = store.seg_view(seg);
        let base = (seg * SEGMENT_SLOTS) as Slot;
        for (off, (&a, &score)) in data.alive.iter().zip(data.scores.iter()).enumerate() {
            if a {
                topk.offer(score, base + off as Slot, || data.keys[off]);
            }
        }
    }
    topk.finish()
}

/// One predicate: walk the posting list's segment runs best-first.
fn eval_single(
    query: &ConjunctiveQuery,
    driver: Predicate,
    store: &StoreCore,
    index: &InvertedIndex,
    k: usize,
    config: EvalConfig,
    stats: &mut EvalStats,
) -> CachedEval {
    stats.single_scans += 1;
    let postings = index.sorted_postings(driver.attr, driver.value);
    let mut runs: Vec<(u64, usize, &[Slot])> =
        postings.runs().map(|(seg, run)| (store.segment_max_score(seg), seg, run)).collect();
    runs.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut topk = TopK::new(k);
    for (i, &(bound, _, run)) in runs.iter().enumerate() {
        if config.early_exit && topk.can_stop(bound) {
            stats.early_exits += 1;
            stats.segments_skipped += (runs.len() - i) as u64;
            break;
        }
        offer_run(query, store, run, &mut topk);
    }
    topk.finish()
}

/// The two rarest predicates of a multi-predicate query, by
/// `(estimated live postings, attr, value)`. The explicit tie-break
/// replaces the old order-dependent `min_by_key` (which silently
/// kept whichever tied predicate it met first), so the driver pair —
/// and with it the whole evaluation order — is stable no matter how
/// the query was assembled or how lists drift through mutations.
fn driver_pair(index: &InvertedIndex, query: &ConjunctiveQuery) -> (Predicate, Predicate) {
    let mut ranked: Vec<Predicate> = query.predicates().to_vec();
    ranked.sort_unstable_by_key(|p| (index.estimated_len(p.attr, p.value), p.attr, p.value));
    (ranked[0], ranked[1])
}

/// Two or more predicates: k-way block-max when asked for (or chosen by
/// `Auto` for 3+ predicates over dense lists), otherwise intersect the
/// two rarest lists.
fn eval_multi(
    query: &ConjunctiveQuery,
    store: &StoreCore,
    index: &InvertedIndex,
    k: usize,
    config: EvalConfig,
    stats: &mut EvalStats,
) -> CachedEval {
    // `Auto` hands 3+-predicate queries to the block-max engine when
    // every list is dense: with two lists the pair strategies already
    // see every list, but from three up the two-rarest pipeline pays a
    // columnar residual check per extra predicate while block-max
    // prunes with *all* lists' bounds at sub-segment granularity. The
    // `BLOCKMAX_MIN_RAREST` gate keeps selective queries — where the
    // rare list alone is cheaper to drive than any block directory —
    // on the pair engines.
    if config.intersect == IntersectPolicy::BlockMax
        || (config.intersect == IntersectPolicy::Auto
            && query.predicates().len() >= 3
            && query
                .predicates()
                .iter()
                .map(|p| index.estimated_len(p.attr, p.value))
                .min()
                .is_some_and(|rarest| rarest >= BLOCKMAX_MIN_RAREST))
    {
        return eval_blockmax(query, store, index, k, config.early_exit, stats);
    }
    let (a, b) = driver_pair(index, query);
    let pa = index.sorted_postings(a.attr, a.value);
    let pb = index.sorted_postings(b.attr, b.value);
    // Empty lists need no special case: every strategy degenerates to
    // an empty candidate stream (underflow), and routing through the
    // strategy keeps the EvalStats counters summing to the number of
    // evaluations performed.
    let mode = match config.intersect {
        IntersectPolicy::Auto => {
            if pb.len() >= GALLOP_RATIO * pa.len() {
                IntersectPolicy::Gallop
            } else {
                IntersectPolicy::Bitset
            }
        }
        forced => forced,
    };
    match mode {
        IntersectPolicy::Gallop => eval_gallop(query, store, pa, pb, k, config.early_exit, stats),
        IntersectPolicy::Bitset => eval_bitset(query, store, pa, pb, k, config.early_exit, stats),
        IntersectPolicy::Auto | IntersectPolicy::BlockMax => {
            unreachable!("Auto resolves to a concrete strategy above; BlockMax returned early")
        }
    }
}

/// Feeds one posting run into the heap: adjacent-duplicate skip (sorted
/// lists keep duplicates adjacent), then the columnar residual check.
#[inline]
fn offer_run(query: &ConjunctiveQuery, store: &StoreCore, run: &[Slot], topk: &mut TopK) {
    let mut prev = None;
    for &slot in run {
        if prev == Some(slot) {
            continue;
        }
        prev = Some(slot);
        if slot_matches(query, store, slot) {
            topk.offer_slot(store, slot);
        }
    }
}

/// Galloping (exponential-search) intersection of the two rarest lists:
/// every distinct slot of the small list looks itself up in the large one
/// in O(log distance), so a lopsided intersection costs
/// `O(small · log large)` instead of `O(small + large)`. Candidates come
/// out slot-ascending, so the early exit uses the store's suffix-max
/// bound at each segment boundary.
fn eval_gallop(
    query: &ConjunctiveQuery,
    store: &StoreCore,
    small: SortedPostings<'_>,
    large: SortedPostings<'_>,
    k: usize,
    early_exit: bool,
    stats: &mut EvalStats,
) -> CachedEval {
    stats.gallop_intersections += 1;
    let mut topk = TopK::new(k);
    // The O(#store segments) suffix-max bound is computed lazily, only
    // once the query has provably overflowed at a segment boundary — the
    // common small∩large query never overflows and must not pay a
    // store-wide sweep for an exit that cannot fire.
    let mut suffix: Option<Vec<u64>> = None;
    let (small, large) = (small.slots(), large.slots());
    let mut j = 0usize;
    let mut prev = None;
    let mut cur_seg = usize::MAX;
    for &slot in small {
        if prev == Some(slot) {
            continue;
        }
        prev = Some(slot);
        if early_exit {
            let seg = segment_of(slot);
            if seg != cur_seg {
                cur_seg = seg;
                if topk.overflowed() {
                    let bounds = suffix.get_or_insert_with(|| store.segment_suffix_max());
                    // Remaining candidates all live in segments >= seg.
                    if topk.can_stop(bounds[seg]) {
                        stats.early_exits += 1;
                        stats.segments_skipped += (bounds.len() - 1 - seg) as u64;
                        break;
                    }
                }
            }
        }
        j = gallop_to(large, j, slot);
        if j >= large.len() {
            break;
        }
        if large[j] == slot && slot_matches(query, store, slot) {
            topk.offer_slot(store, slot);
        }
    }
    topk.finish()
}

/// Per-segment bitset intersection for dense list pairs: for each segment
/// both lists touch, mark the smaller run in a 4096-bit map and probe the
/// larger run against it — O(|runs|) with word-level constants, visiting
/// segments best-score-first so the early exit can skip whole segments.
fn eval_bitset(
    query: &ConjunctiveQuery,
    store: &StoreCore,
    pa: SortedPostings<'_>,
    pb: SortedPostings<'_>,
    k: usize,
    early_exit: bool,
    stats: &mut EvalStats,
) -> CachedEval {
    stats.bitset_intersections += 1;
    let mut topk = TopK::new(k);
    // Segments present in both lists, ordered by descending score bound
    // (segment id breaks ties) — the posting runs are the skip metadata.
    let mut common: Vec<(u64, usize, &[Slot], &[Slot])> = pa
        .runs()
        .filter_map(|(seg, run_a)| {
            let run_b = pb.run_in(seg);
            (!run_b.is_empty()).then(|| (store.segment_max_score(seg), seg, run_a, run_b))
        })
        .collect();
    common.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut words = [0u64; SEGMENT_WORDS];
    for (i, &(bound, seg, run_a, run_b)) in common.iter().enumerate() {
        if early_exit && topk.can_stop(bound) {
            stats.early_exits += 1;
            stats.segments_skipped += (common.len() - i) as u64;
            break;
        }
        let (mark, probe) =
            if run_a.len() <= run_b.len() { (run_a, run_b) } else { (run_b, run_a) };
        let base = (seg * SEGMENT_SLOTS) as Slot;
        words.fill(0);
        for &slot in mark {
            let off = (slot - base) as usize;
            words[off >> 6] |= 1u64 << (off & 63);
        }
        let mut prev = None;
        for &slot in probe {
            if prev == Some(slot) {
                continue;
            }
            prev = Some(slot);
            let off = (slot - base) as usize;
            if words[off >> 6] & (1u64 << (off & 63)) != 0 && slot_matches(query, store, slot) {
                topk.offer_slot(store, slot);
            }
        }
    }
    topk.finish()
}

/// k-way block-max (WAND-style) intersection: *every* predicate list
/// participates. Candidate blocks come from the rarest list's block-max
/// directory, filtered to blocks every other list also posts to (a block
/// absent from any list cannot hold a full match — an alive matching
/// tuple posts to all of its value lists, stale postings are only ever
/// extra). Each surviving block carries the bound
/// `min(lists' block maxes, store's block max)`, blocks are visited
/// best-bound-first, and once the query has provably overflowed
/// ([`TopK::can_stop`]) every remaining block whose bound cannot beat
/// the heap floor is skipped whole. Within a block the lists intersect
/// through a galloping pivot walk when lopsided and a u64-word bitset
/// AND across all runs when dense (`GALLOP_RATIO` is the cut, re-pinned
/// at block granularity by the `kway` bench group).
///
/// Outcome-invariant like every other strategy: a skipped block only
/// elides candidates that provably cannot enter the top-`k` page, and
/// the overflow classification is pinned before the first skip.
fn eval_blockmax(
    query: &ConjunctiveQuery,
    store: &StoreCore,
    index: &InvertedIndex,
    k: usize,
    early_exit: bool,
    stats: &mut EvalStats,
) -> CachedEval {
    stats.blockmax_intersections += 1;
    // Rarest-first with the same explicit tie-break as `driver_pair`,
    // so the candidate enumeration (and with it every counter) is
    // stable no matter how the query was assembled.
    let mut ranked: Vec<Predicate> = query.predicates().to_vec();
    ranked.sort_unstable_by_key(|p| (index.estimated_len(p.attr, p.value), p.attr, p.value));
    let lists: Vec<SortedPostings<'_>> =
        ranked.iter().map(|p| index.sorted_postings(p.attr, p.value)).collect();
    let mut topk = TopK::new(k);
    // Directory join: one monotone cursor per non-driver list turns the
    // per-block bound lookup into a linear merge over the (sorted)
    // directories — O(total directory length) instead of a binary
    // search per list per driver block, which dominated the whole
    // evaluation on dense multi-predicate pools.
    let mut cursors = vec![0usize; lists.len() - 1];
    let mut blocks: Vec<(u64, Reverse<u32>)> = Vec::with_capacity(lists[0].blocks().len());
    'blk: for &(blk, list_bound) in lists[0].blocks() {
        let mut bound = list_bound.min(store.block_max_score(blk as usize));
        for (cursor, rest) in cursors.iter_mut().zip(&lists[1..]) {
            let dir = rest.blocks();
            while *cursor < dir.len() && dir[*cursor].0 < blk {
                *cursor += 1;
            }
            match dir.get(*cursor) {
                Some(&(b, rest_bound)) if b == blk => bound = bound.min(rest_bound),
                _ => continue 'blk,
            }
        }
        blocks.push((bound, Reverse(blk)));
    }
    // Best-bound-first, block id as the deterministic tie-break
    // (`Reverse` makes equal bounds pop lowest-id-first). A lazy heap
    // instead of a full sort: the early exit usually fires after a
    // handful of blocks, so O(B) heapify + O(log B) per visited block
    // beats O(B log B) sorting of a directory that mostly gets skipped.
    let mut heap = BinaryHeap::from(blocks);
    // Per-block scratch, allocated once per evaluation: the runs of the
    // block being intersected, and (reusing the directory cursors) the
    // sparse path's run cursors.
    let mut runs: Vec<&[Slot]> = Vec::with_capacity(lists.len());
    while let Some((bound, Reverse(blk))) = heap.pop() {
        // The heap is popped bound-descending, so this bound caps every
        // candidate in every remaining block.
        if early_exit && topk.can_stop(bound) {
            stats.early_exits += 1;
            stats.blocks_skipped += heap.len() as u64 + 1;
            break;
        }
        stats.blocks_scanned += 1;
        runs.clear();
        runs.extend(lists.iter().map(|l| l.block_run(blk)));
        intersect_block(query, store, &runs, &mut cursors, blk, &mut topk, stats);
    }
    topk.finish()
}

/// Intersects one block across all predicate `runs` (one per list),
/// feeding full matches (after the columnar `slot_matches`
/// revalidation) into the heap. `cursors` is the sparse path's scratch.
fn intersect_block(
    query: &ConjunctiveQuery,
    store: &StoreCore,
    runs: &[&[Slot]],
    cursors: &mut Vec<usize>,
    blk: u32,
    topk: &mut TopK,
    stats: &mut EvalStats,
) {
    // Pivot list = shortest run; rarest-first rank breaks ties.
    let driver_idx = (0..runs.len()).min_by_key(|&i| (runs[i].len(), i)).unwrap();
    let driver = runs[driver_idx];
    if driver.is_empty() {
        // A list's directory can promise a block its tombstoned slots
        // vacated; nothing to do.
        return;
    }
    let longest = runs.iter().map(|r| r.len()).max().unwrap();
    if longest >= GALLOP_RATIO * driver.len() {
        cursors.clear();
        cursors.resize(runs.len(), 0);
        block_gallop(query, store, runs, cursors, driver_idx, topk, stats);
    } else {
        block_bitset(query, store, runs, driver_idx, blk, topk);
    }
}

/// Sparse in-block path: walk the pivot (shortest) run and gallop every
/// other run forward to each pivot slot; the first miss rejects the
/// pivot, an exhausted run ends the block (runs ascend — nothing later
/// can match). `cursors` holds one zeroed position per run.
fn block_gallop(
    query: &ConjunctiveQuery,
    store: &StoreCore,
    runs: &[&[Slot]],
    cursors: &mut [usize],
    driver_idx: usize,
    topk: &mut TopK,
    stats: &mut EvalStats,
) {
    let mut prev = None;
    'pivot: for &slot in runs[driver_idx].iter() {
        if prev == Some(slot) {
            continue;
        }
        prev = Some(slot);
        for (i, run) in runs.iter().enumerate() {
            if i == driver_idx {
                continue;
            }
            let j = gallop_to(run, cursors[i], slot);
            stats.pivot_advances += 1;
            cursors[i] = j;
            if j >= run.len() {
                break 'pivot;
            }
            if run[j] != slot {
                continue 'pivot;
            }
        }
        if slot_matches(query, store, slot) {
            topk.offer_slot(store, slot);
        }
    }
}

/// Dense in-block path: the multi-list word-level AND. Marks the pivot
/// run in a [`BLOCK_WORDS`]-word bitset, ANDs every other run's bitset
/// into it word by word (bailing the moment the accumulator goes empty),
/// then emits surviving slots ascending. Duplicate postings collapse in
/// the bitset for free.
fn block_bitset(
    query: &ConjunctiveQuery,
    store: &StoreCore,
    runs: &[&[Slot]],
    driver_idx: usize,
    blk: u32,
    topk: &mut TopK,
) {
    let base = (blk as usize * BLOCK_SLOTS) as Slot;
    let mut acc = [0u64; BLOCK_WORDS];
    for &slot in runs[driver_idx] {
        let off = (slot - base) as usize;
        acc[off >> 6] |= 1u64 << (off & 63);
    }
    for (i, run) in runs.iter().enumerate() {
        if i == driver_idx {
            continue;
        }
        let mut cur = [0u64; BLOCK_WORDS];
        for &slot in run.iter() {
            let off = (slot - base) as usize;
            cur[off >> 6] |= 1u64 << (off & 63);
        }
        let mut any = 0u64;
        for w in 0..BLOCK_WORDS {
            acc[w] &= cur[w];
            any |= acc[w];
        }
        if any == 0 {
            return;
        }
    }
    for (w, &word) in acc.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            let off = (w << 6) | bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let slot = base + off as Slot;
            if slot_matches(query, store, slot) {
                topk.offer_slot(store, slot);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Predicate;

    fn db() -> HiddenDatabase {
        let schema = Schema::with_domain_sizes(&[2, 3], &["price"]).unwrap();
        HiddenDatabase::new(schema, 2, ScoringPolicy::NewestFirst)
    }

    fn t(key: u64, a0: u32, a1: u32, price: f64) -> Tuple {
        Tuple::new(TupleKey(key), vec![ValueId(a0), ValueId(a1)], vec![price])
    }

    fn q(pairs: &[(u16, u32)]) -> ConjunctiveQuery {
        ConjunctiveQuery::from_predicates(
            pairs.iter().map(|&(a, v)| Predicate::new(AttrId(a), ValueId(v))),
        )
    }

    #[test]
    fn end_to_end_insert_query() {
        let mut d = db();
        d.insert(t(1, 0, 0, 10.0)).unwrap();
        d.insert(t(2, 0, 1, 20.0)).unwrap();
        d.insert(t(3, 1, 2, 30.0)).unwrap();
        // Root: 3 tuples > k=2 → overflow with the 2 newest.
        let out = d.answer(&ConjunctiveQuery::select_all());
        assert!(out.is_overflow());
        let keys: Vec<u64> = out.tuples().iter().map(|v| v.key().0).collect();
        assert_eq!(keys, vec![3, 2]);
        // A0=0: exactly 2 → valid.
        let out = d.answer(&q(&[(0, 0)]));
        assert!(out.is_valid());
        assert_eq!(out.returned_count(), 2);
        // A0=1 AND A1=0: none → underflow.
        assert!(d.answer(&q(&[(0, 1), (1, 0)])).is_underflow());
    }

    #[test]
    fn schema_validation_on_insert() {
        let mut d = db();
        // Wrong arity.
        let bad = Tuple::new(TupleKey(1), vec![ValueId(0)], vec![1.0]);
        assert!(d.insert(bad).is_err());
        // Out-of-domain value.
        let bad = Tuple::new(TupleKey(1), vec![ValueId(0), ValueId(3)], vec![1.0]);
        assert!(d.insert(bad).is_err());
        // Wrong measure arity.
        let bad = Tuple::new(TupleKey(1), vec![ValueId(0), ValueId(0)], vec![]);
        assert!(d.insert(bad).is_err());
        assert_eq!(d.len(), 0);
    }

    #[test]
    fn version_bumps_and_cache_invalidates() {
        let mut d = db();
        d.insert(t(1, 0, 0, 1.0)).unwrap();
        let v1 = d.version();
        let root = ConjunctiveQuery::select_all();
        assert_eq!(d.answer(&root).returned_count(), 1);
        assert_eq!(d.answer(&root).returned_count(), 1);
        assert_eq!(d.stats().cache_hits, 1, "second identical query cached");
        d.insert(t(2, 0, 0, 1.0)).unwrap();
        assert!(d.version() > v1);
        assert_eq!(d.answer(&root).returned_count(), 2, "cache must not serve stale data");
    }

    #[test]
    fn memo_never_serves_stale_results_across_apply_batches() {
        // Regression guard for the pre-hashed memo + shared-view cache:
        // every `apply` must invalidate the affected memo entries, so
        // answers after each batch reflect the new state exactly
        // (classification, keys, measures).
        let mut d = db();
        let root = ConjunctiveQuery::select_all();
        let probe = q(&[(0, 0)]);
        for batch_no in 0..10u64 {
            let key = TupleKey(batch_no);
            let batch = UpdateBatch::empty().insert(t(batch_no, 0, 0, batch_no as f64));
            let batch = if batch_no >= 3 {
                batch
                    .delete(TupleKey(batch_no - 3))
                    .update_measures(TupleKey(batch_no - 1), vec![batch_no as f64 * 10.0])
            } else {
                batch
            };
            d.apply(batch).unwrap();
            // Warm the memo…
            let first = d.answer(&root);
            let probed = d.answer(&probe);
            // …and check the warm answers against ground truth.
            assert_eq!(first.returned_count().min(d.k()), d.len().min(d.k()));
            assert_eq!(probed.tuples().len() as u64, d.exact_count(Some(&probe)).min(d.k() as u64));
            assert!(probed.keys().any(|k2| k2 == key), "new tuple visible");
            if batch_no >= 3 {
                assert!(
                    probed.keys().all(|k2| k2 != TupleKey(batch_no - 3)),
                    "deleted tuple must not be served from the memo"
                );
                let updated = d.get(TupleKey(batch_no - 1)).unwrap();
                let served = probed
                    .tuples()
                    .iter()
                    .find(|t| t.key() == TupleKey(batch_no - 1))
                    .expect("updated tuple in page");
                assert_eq!(
                    served.measure(MeasureId(0)),
                    updated.measure(MeasureId(0)),
                    "measure update must invalidate cached views"
                );
            }
            // A second identical ask is a cache hit and must be identical.
            assert_eq!(d.answer(&probe), probed);
            assert!(d.stats().cache_hits > 0);
        }
    }

    #[test]
    fn batch_apply_order_allows_delete_then_reinsert() {
        let mut d = db();
        d.insert(t(1, 0, 0, 1.0)).unwrap();
        let batch = UpdateBatch::empty().delete(TupleKey(1)).insert(t(1, 1, 1, 2.0));
        let s = d.apply(batch).unwrap();
        assert_eq!(s.deleted, 1);
        assert_eq!(s.inserted, 1);
        assert_eq!(d.len(), 1);
        assert_eq!(d.get(TupleKey(1)).unwrap().value(AttrId(0)), ValueId(1));
    }

    #[test]
    fn measure_update_changes_ground_truth_not_membership() {
        let mut d = db();
        d.insert(t(1, 0, 0, 10.0)).unwrap();
        d.update_measures(TupleKey(1), vec![99.0]).unwrap();
        assert_eq!(d.len(), 1);
        let sum = d.exact_sum(None, |t| t.measure(MeasureId(0)));
        assert_eq!(sum, 99.0);
    }

    #[test]
    fn exact_aggregates() {
        let mut d = db();
        d.insert(t(1, 0, 0, 10.0)).unwrap();
        d.insert(t(2, 0, 1, 20.0)).unwrap();
        d.insert(t(3, 1, 1, 40.0)).unwrap();
        assert_eq!(d.exact_count(None), 3);
        assert_eq!(d.exact_count(Some(&q(&[(0, 0)]))), 2);
        let s = d.exact_sum(Some(&q(&[(1, 1)])), |t| t.measure(MeasureId(0)));
        assert_eq!(s, 60.0);
    }

    #[test]
    fn sampling_alive_keys_is_uniformish_and_exact_count() {
        use rand::SeedableRng;
        let mut d = db();
        for key in 0..50 {
            d.insert(t(key, (key % 2) as u32, (key % 3) as u32, key as f64)).unwrap();
        }
        for key in 0..25 {
            d.delete(TupleKey(key)).unwrap();
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let sample = d.sample_alive_keys(&mut rng, 10);
        assert_eq!(sample.len(), 10);
        for k in &sample {
            assert!(k.0 >= 25, "sampled deleted tuple {k}");
        }
        let mut uniq = sample.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 10, "sample must be distinct");
        // Ask for more than alive: get exactly the alive count.
        let all = d.sample_alive_keys(&mut rng, 1000);
        assert_eq!(all.len(), 25);
    }

    #[test]
    #[should_panic(expected = "valid for the schema")]
    fn invalid_query_panics() {
        let mut d = db();
        d.insert(t(1, 0, 0, 1.0)).unwrap();
        d.answer(&q(&[(0, 5)]));
    }

    #[test]
    fn failed_partial_batch_still_invalidates_memo() {
        // Regression (PR 2 satellite): `apply` used to return `Err`
        // mid-batch *without* invalidating, even though earlier elements
        // stayed applied — the memo then served pages containing deleted
        // tuples.
        let mut d = db();
        d.insert(t(1, 0, 0, 10.0)).unwrap();
        d.insert(t(2, 0, 1, 20.0)).unwrap();
        let probe = q(&[(0, 0)]);
        let before = d.answer(&probe);
        assert!(before.keys().any(|k| k == TupleKey(1)), "tuple 1 visible before the batch");
        let v_before = d.version();

        // Delete key 1 (applies), then fail on an unknown key.
        let batch = UpdateBatch::empty().delete(TupleKey(1)).delete(TupleKey(999));
        assert!(d.apply(batch).is_err());
        assert!(d.version() > v_before, "partial batch must bump the version");
        assert!(d.get(TupleKey(1)).is_none(), "prefix stayed applied");

        let after = d.answer(&probe);
        assert!(
            after.keys().all(|k| k != TupleKey(1)),
            "deleted tuple must not be served from the memo after a failed batch"
        );
        assert_eq!(d.exact_count(Some(&probe)), 1);
    }

    #[test]
    fn failed_batch_with_no_applied_prefix_is_a_no_op() {
        let mut d = db();
        d.insert(t(1, 0, 0, 10.0)).unwrap();
        let root = ConjunctiveQuery::select_all();
        d.answer(&root);
        let v = d.version();
        // First element already fails: nothing applied, nothing to
        // invalidate.
        assert!(d.apply(UpdateBatch::empty().delete(TupleKey(999))).is_err());
        assert_eq!(d.version(), v, "no change applied, no version bump");
        let hits = d.stats().cache_hits;
        d.answer(&root);
        assert_eq!(d.stats().cache_hits, hits + 1, "memo retained");
    }

    #[test]
    fn empty_batch_is_a_true_no_op() {
        // Regression (PR 2 satellite): an empty batch used to bump the
        // version and drop the whole memo, making no-change rounds pay
        // full cold-cache cost.
        let mut d = db();
        d.insert(t(1, 0, 0, 10.0)).unwrap();
        let root = ConjunctiveQuery::select_all();
        d.answer(&root);
        let v = d.version();
        let s = d.apply(UpdateBatch::empty()).unwrap();
        assert_eq!(s, UpdateSummary::default());
        assert_eq!(d.version(), v, "empty batch must not bump the version");
        let hits = d.stats().cache_hits;
        d.answer(&root);
        assert_eq!(d.stats().cache_hits, hits + 1, "memo survives a no-change round");
    }

    #[test]
    fn incremental_invalidation_retains_unaffected_entries() {
        let mut d = db();
        d.insert(t(1, 0, 0, 1.0)).unwrap();
        d.insert(t(2, 1, 1, 2.0)).unwrap();
        let untouched = q(&[(0, 1)]); // matches tuple 2 only
        let touched = q(&[(0, 0)]); // matches tuple 1 and the new tuple
        let root = ConjunctiveQuery::select_all();
        d.answer(&untouched);
        d.answer(&touched);
        d.answer(&root);
        assert_eq!(d.memo_len(), 3);

        // Insert a tuple with A0=0: `touched` and the root change;
        // `untouched` must survive and hit.
        d.insert(t(3, 0, 2, 3.0)).unwrap();
        assert_eq!(d.memo_len(), 1, "only the unaffected entry survives");
        let hits = d.stats().cache_hits;
        let out = d.answer(&untouched);
        assert_eq!(d.stats().cache_hits, hits + 1, "unaffected entry served warm");
        assert_eq!(out.returned_count(), 1);
        // The dropped entries re-evaluate correctly.
        assert_eq!(d.answer(&touched).returned_count(), 2);
        // Root overflows at k=2 with 3 alive tuples.
        assert!(d.answer(&root).is_overflow());
        let ms = d.memo_stats();
        assert_eq!(ms.invalidated, 2);
        assert!(ms.retained >= 1);
    }

    #[test]
    fn disabled_policy_never_caches_and_stays_correct() {
        let mut d = db();
        d.set_invalidation_policy(InvalidationPolicy::Disabled);
        d.insert(t(1, 0, 0, 1.0)).unwrap();
        let root = ConjunctiveQuery::select_all();
        assert_eq!(d.answer(&root).returned_count(), 1);
        assert_eq!(d.answer(&root).returned_count(), 1);
        assert_eq!(d.memo_len(), 0);
        assert_eq!(d.stats().cache_hits, 0);
    }

    #[test]
    fn memo_capacity_bounds_adversarial_distinct_queries() {
        let schema = Schema::with_domain_sizes(&[64, 3], &[]).unwrap();
        let mut d = HiddenDatabase::new(schema, 2, ScoringPolicy::NewestFirst);
        d.set_memo_capacity(8);
        for v in 0..64u32 {
            d.answer(&q(&[(0, v)]));
            assert!(d.memo_len() <= 8, "memo exceeded its cap at v={v}");
        }
        let ms = d.memo_stats();
        assert!(ms.evicted >= 56, "distinct stream must evict, got {}", ms.evicted);
        assert_eq!(ms.insertions, 64);
    }

    #[test]
    fn measure_update_invalidates_queries_matching_the_tuple() {
        let mut d = db();
        d.insert(t(1, 0, 0, 10.0)).unwrap();
        d.insert(t(2, 1, 1, 20.0)).unwrap();
        let probe = q(&[(0, 0)]);
        let other = q(&[(0, 1)]);
        d.answer(&probe);
        d.answer(&other);
        d.update_measures(TupleKey(1), vec![99.0]).unwrap();
        // `probe` matches tuple 1: its cached page held the old measure.
        let served = d.answer(&probe);
        assert_eq!(served.tuples()[0].measure(MeasureId(0)), 99.0);
        // `other` did not match tuple 1 and survived warm.
        let hits = d.stats().cache_hits;
        d.answer(&other);
        assert_eq!(d.stats().cache_hits, hits + 1);
    }

    #[test]
    fn set_k_affects_classification() {
        let mut d = db();
        for key in 0..3 {
            d.insert(t(key, 0, 0, 0.0)).unwrap();
        }
        assert!(d.answer(&ConjunctiveQuery::select_all()).is_overflow());
        d.set_k(3);
        assert!(d.answer(&ConjunctiveQuery::select_all()).is_valid());
    }

    /// Regression (PR 3 satellite): driver selection used `min_by_key` on
    /// the live-length estimate, which keeps whichever tied predicate
    /// iteration order happens to present first. Ties must break by
    /// `(attr, value)`.
    #[test]
    fn driver_selection_breaks_ties_deterministically() {
        let schema = Schema::with_domain_sizes(&[3, 3, 3], &[]).unwrap();
        let mut d = HiddenDatabase::new(schema, 2, ScoringPolicy::NewestFirst);
        // A0=1, A1=2, A2=1 all get exactly two postings; A0=0 gets four.
        for (key, (a0, a1, a2)) in
            [(1, 2, 1), (1, 2, 1), (0, 0, 0), (0, 0, 2)].into_iter().enumerate()
        {
            d.insert(Tuple::new(
                TupleKey(key as u64),
                vec![ValueId(a0), ValueId(a1), ValueId(a2)],
                vec![],
            ))
            .unwrap();
        }
        let query = ConjunctiveQuery::from_predicates([
            Predicate::new(AttrId(2), ValueId(1)),
            Predicate::new(AttrId(0), ValueId(1)),
            Predicate::new(AttrId(1), ValueId(2)),
        ]);
        let (a, b) = driver_pair(&d.index, &query);
        // All three tie at 2 live postings: (attr, value) order wins.
        assert_eq!((a.attr, a.value), (AttrId(0), ValueId(1)));
        assert_eq!((b.attr, b.value), (AttrId(1), ValueId(2)));
        // And the pair is invariant under predicate permutation.
        let permuted = ConjunctiveQuery::from_predicates([
            Predicate::new(AttrId(1), ValueId(2)),
            Predicate::new(AttrId(0), ValueId(1)),
            Predicate::new(AttrId(2), ValueId(1)),
        ]);
        assert_eq!(driver_pair(&d.index, &permuted), (a, b));
        assert_eq!(d.answer(&query), d.answer(&permuted));
    }

    /// Every intersection strategy and the early-exit toggle must agree
    /// bit-for-bit with each other and with ground truth.
    #[test]
    fn intersection_strategies_are_outcome_invariant() {
        let mut reference = None;
        for intersect in [
            IntersectPolicy::Auto,
            IntersectPolicy::Gallop,
            IntersectPolicy::Bitset,
            IntersectPolicy::BlockMax,
        ] {
            for early_exit in [true, false] {
                let schema = Schema::with_domain_sizes(&[2, 3, 4], &["m"]).unwrap();
                let mut d = HiddenDatabase::new(schema, 3, ScoringPolicy::NewestFirst);
                d.set_invalidation_policy(InvalidationPolicy::Disabled);
                d.set_eval_config(EvalConfig { early_exit, intersect });
                for key in 0..200u64 {
                    d.insert(Tuple::new(
                        TupleKey(key),
                        vec![
                            ValueId((key % 2) as u32),
                            ValueId((key % 3) as u32),
                            ValueId((key % 4) as u32),
                        ],
                        vec![key as f64],
                    ))
                    .unwrap();
                }
                for key in (0..200u64).step_by(5) {
                    d.delete(TupleKey(key)).unwrap();
                }
                let mut answers = Vec::new();
                for (v0, v1, v2) in
                    [(0, 0, 0), (1, 1, 1), (0, 2, 3), (1, 0, 2), (0, 1, 0), (1, 2, 1)]
                {
                    let q = q(&[(0, v0), (1, v1), (2, v2)]);
                    let out = d.answer(&q);
                    let truth = d.exact_count(Some(&q));
                    match truth {
                        0 => assert!(out.is_underflow()),
                        n if n <= 3 => {
                            assert!(out.is_valid());
                            assert_eq!(out.returned_count() as u64, n);
                        }
                        _ => assert!(out.is_overflow()),
                    }
                    answers.push(out);
                }
                match &reference {
                    None => reference = Some(answers),
                    Some(want) => {
                        assert_eq!(want, &answers, "{intersect:?} early_exit={early_exit} diverged")
                    }
                }
            }
        }
    }

    /// On a multi-segment `NewestFirst` store the best tuples live in the
    /// newest segment, so an overflowing scan must stop after it.
    #[test]
    fn early_exit_fires_on_multi_segment_newest_first() {
        let schema = Schema::with_domain_sizes(&[2], &[]).unwrap();
        let mut d = HiddenDatabase::new(schema, 5, ScoringPolicy::NewestFirst);
        d.set_invalidation_policy(InvalidationPolicy::Disabled);
        let n = (2 * crate::store::SEGMENT_SLOTS + 100) as u64;
        for key in 0..n {
            d.insert(t_a0(key, (key % 2) as u32)).unwrap();
        }
        let root = ConjunctiveQuery::select_all();
        let out = d.answer(&root);
        assert!(out.is_overflow());
        let keys: Vec<u64> = out.keys().map(|k| k.0).collect();
        assert_eq!(keys, vec![n - 1, n - 2, n - 3, n - 4, n - 5]);
        let stats = d.eval_stats();
        assert!(stats.early_exits >= 1, "root scan should exit early: {stats:?}");
        assert!(stats.segments_skipped >= 1);
        // Single-predicate scans exit early too.
        let before = d.eval_stats().early_exits;
        let probe = q(&[(0, 0)]);
        let out = d.answer(&probe);
        assert!(out.is_overflow());
        assert!(d.eval_stats().early_exits > before);
        // …and disabling the exit changes nothing but the counters.
        let mut exhaustive = d.clone();
        exhaustive.set_eval_config(EvalConfig { early_exit: false, ..EvalConfig::default() });
        assert_eq!(exhaustive.answer(&root), d.answer(&root));
        assert_eq!(exhaustive.answer(&probe), d.answer(&probe));
    }

    fn t_a0(key: u64, v: u32) -> Tuple {
        Tuple::new(TupleKey(key), vec![ValueId(v)], vec![])
    }

    /// The satellite regression pinning the ROADMAP claim: under
    /// `ByMeasureDesc` ranking, heavy deletes of the top scorers leave
    /// every segment bound stale-high, so the early exit stops firing —
    /// and a maintenance pass (exact bound recompute) re-arms it, with
    /// bit-identical answers throughout.
    #[test]
    fn compaction_rearms_early_exit_under_measure_ranked_deletes() {
        let schema = Schema::with_domain_sizes(&[2], &["m"]).unwrap();
        let mut d = HiddenDatabase::new(schema, 10, ScoringPolicy::ByMeasureDesc(MeasureId(0)));
        d.set_invalidation_policy(InvalidationPolicy::Disabled);
        let segs = 3usize;
        let n = (segs * crate::store::SEGMENT_SLOTS) as u64;
        // Every segment gets the same measure distribution, so every
        // segment's bound starts near the global maximum.
        let measure = |key: u64| (key.wrapping_mul(2654435761) % 1000) as f64;
        for key in 0..n {
            d.insert(Tuple::new(
                TupleKey(key),
                vec![ValueId((key % 2) as u32)],
                vec![measure(key)],
            ))
            .unwrap();
        }
        // Purge the high scorers everywhere except the last segment:
        // the alive maxima of the early segments collapse, their bounds
        // do not.
        let last_seg_start = ((segs - 1) * crate::store::SEGMENT_SLOTS) as u64;
        for key in 0..last_seg_start {
            if measure(key) >= 500.0 {
                d.delete(TupleKey(key)).unwrap();
            }
        }
        assert!(d.stale_segment_count() >= segs - 1, "deletes left bounds stale");

        let root = ConjunctiveQuery::select_all();
        let probe = q_a0(0);
        let before = d.eval_stats();
        let page_root = d.answer(&root);
        let page_probe = d.answer(&probe);
        assert!(page_root.is_overflow() && page_probe.is_overflow());
        let after = d.eval_stats();
        assert_eq!(after.early_exits, before.early_exits, "stale bounds disarm the exit");
        assert_eq!(after.segments_skipped, before.segments_skipped);

        let report = d.compact();
        assert!(report.bounds_tightened >= segs - 1, "{report:?}");
        assert!(report.postings_purged > 0, "tombstones purged: {report:?}");
        assert_eq!(d.stale_segment_count(), 0);
        let before = d.eval_stats();
        assert_eq!(d.answer(&root), page_root, "maintenance must not change answers");
        assert_eq!(d.answer(&probe), page_probe);
        let after = d.eval_stats();
        assert!(after.early_exits > before.early_exits, "compaction re-arms the exit");
        assert!(after.segments_skipped >= before.segments_skipped + 2, "{after:?}");
    }

    fn q_a0(v: u32) -> ConjunctiveQuery {
        ConjunctiveQuery::from_predicates([Predicate::new(AttrId(0), ValueId(v))])
    }

    /// `Auto` hands 3+-predicate queries to the k-way block-max engine
    /// when even the rarest list clears the `BLOCKMAX_MIN_RAREST` density
    /// gate, and keeps the pair strategies for 2 predicates and for
    /// selective conjunctions (where driving the rare list is cheaper
    /// than probing every list's block directory).
    #[test]
    fn auto_routes_dense_three_predicates_to_blockmax() {
        let schema = Schema::with_domain_sizes(&[2, 3, 4], &[]).unwrap();
        let mut d = HiddenDatabase::new(schema, 3, ScoringPolicy::NewestFirst);
        d.set_invalidation_policy(InvalidationPolicy::Disabled);
        // Dense population: value 0 on every attribute, exactly at the
        // density gate. A sparse (1, 1, 1) tail rides along.
        let dense = BLOCKMAX_MIN_RAREST as u64;
        for key in 0..dense + 60 {
            let v = u32::from(key >= dense);
            d.insert(Tuple::new(TupleKey(key), vec![ValueId(v), ValueId(v), ValueId(v)], vec![]))
                .unwrap();
        }
        d.answer(&q(&[(0, 0), (1, 0)]));
        let s = d.eval_stats();
        assert_eq!(s.blockmax_intersections, 0, "2 predicates stay on the pair engines");
        assert_eq!(s.gallop_intersections + s.bitset_intersections, 1);
        d.answer(&q(&[(0, 1), (1, 1), (2, 1)]));
        let s = d.eval_stats();
        assert_eq!(s.blockmax_intersections, 0, "sparse rarest list stays on the pair engines");
        assert_eq!(s.gallop_intersections + s.bitset_intersections, 2);
        d.answer(&q(&[(0, 0), (1, 0), (2, 0)]));
        let s = d.eval_stats();
        assert_eq!(s.blockmax_intersections, 1, "dense 3 predicates route to block-max");
        assert!(s.blocks_scanned >= 1);
        // Forcing BlockMax engages it even for two sparse lists.
        d.set_eval_config(EvalConfig {
            intersect: IntersectPolicy::BlockMax,
            ..Default::default()
        });
        d.answer(&q(&[(0, 1), (1, 1)]));
        assert_eq!(d.eval_stats().blockmax_intersections, 2);
    }

    /// Block-granularity sibling of
    /// `compaction_rearms_early_exit_under_measure_ranked_deletes`:
    /// deletes of the top scorers leave every block bound stale-high and
    /// the block-max skip stops firing; maintenance (exact store + list
    /// bound rebuilds) re-arms it — answers bit-identical throughout.
    #[test]
    fn compaction_rearms_blockmax_skips_under_measure_ranked_deletes() {
        let schema = Schema::with_domain_sizes(&[2, 2, 2], &["m"]).unwrap();
        let mut d = HiddenDatabase::new(schema, 10, ScoringPolicy::ByMeasureDesc(MeasureId(0)));
        d.set_invalidation_policy(InvalidationPolicy::Disabled);
        d.set_eval_config(EvalConfig {
            intersect: IntersectPolicy::BlockMax,
            ..Default::default()
        });
        let blocks = 8usize;
        let n = (blocks * BLOCK_SLOTS) as u64;
        // Every block gets the same measure staircase 0..BLOCK_SLOTS, so
        // every block bound starts at the same (exact) maximum.
        let measure = |key: u64| (key % BLOCK_SLOTS as u64) as f64;
        for key in 0..n {
            d.insert(Tuple::new(
                TupleKey(key),
                vec![ValueId(0), ValueId(0), ValueId(0)],
                vec![measure(key)],
            ))
            .unwrap();
        }
        // Purge the top half everywhere except the last two blocks: the
        // alive maxima of the early blocks collapse, their bounds do
        // not. (Sparing two blocks keeps the lists' tombstone fraction
        // at 37.5 %, under the reactive COMPACT_DEAD_FRACTION — the
        // point is that *only* the maintenance pass rebuilds bounds.)
        let spared_start = ((blocks - 2) * BLOCK_SLOTS) as u64;
        for key in 0..spared_start {
            if measure(key) >= (BLOCK_SLOTS / 2) as f64 {
                d.delete(TupleKey(key)).unwrap();
            }
        }
        let probe = q(&[(0, 0), (1, 0), (2, 0)]);
        let before = d.eval_stats();
        let page = d.answer(&probe);
        assert!(page.is_overflow());
        let after = d.eval_stats();
        assert_eq!(after.blockmax_intersections, before.blockmax_intersections + 1);
        assert_eq!(after.blocks_skipped, before.blocks_skipped, "stale bounds disarm the skip");
        assert_eq!(after.blocks_scanned, before.blocks_scanned + blocks as u64);

        let report = d.compact();
        // Note the *segment* bound does not tighten — the spared blocks
        // still hold the segment maximum. Everything this test pins
        // happens strictly below segment granularity.
        assert_eq!(report.bounds_tightened, 0, "{report:?}");
        assert!(report.segments_recomputed >= 1, "{report:?}");
        assert!(report.postings_purged > 0, "{report:?}");
        let before = d.eval_stats();
        assert_eq!(d.answer(&probe), page, "maintenance must not change answers");
        let after = d.eval_stats();
        // The two spared blocks (exact bound BLOCK_SLOTS-1) are visited
        // first and overflow the page; every purged block's rebuilt
        // bound (BLOCK_SLOTS/2 - 1) now provably misses the floor.
        assert_eq!(after.blocks_scanned, before.blocks_scanned + 2, "two blocks suffice");
        assert_eq!(after.blocks_skipped, before.blocks_skipped + (blocks as u64 - 2));
        assert!(after.early_exits > before.early_exits);
    }

    /// Regression: an in-place measure update that *raises* a tuple's
    /// rank must propagate to the per-list block-max bounds immediately.
    /// Without `note_score_raise` the tuple's block keeps its old low
    /// bound, the skip wrongly elides it, and the page misses the new
    /// leader.
    #[test]
    fn score_raise_propagates_to_blockmax_bounds() {
        let schema = Schema::with_domain_sizes(&[2, 2, 2], &["m"]).unwrap();
        let mut d = HiddenDatabase::new(schema, 2, ScoringPolicy::ByMeasureDesc(MeasureId(0)));
        d.set_invalidation_policy(InvalidationPolicy::Disabled);
        d.set_eval_config(EvalConfig {
            intersect: IntersectPolicy::BlockMax,
            ..Default::default()
        });
        // Block 0: uniformly low. Block 1: uniformly high — so block 0's
        // bound sits far under the floor and is the natural skip victim.
        let n = (2 * BLOCK_SLOTS) as u64;
        for key in 0..n {
            let m = if (key as usize) < BLOCK_SLOTS { 1.0 } else { 100.0 };
            d.insert(Tuple::new(TupleKey(key), vec![ValueId(0), ValueId(0), ValueId(0)], vec![m]))
                .unwrap();
        }
        let probe = q(&[(0, 0), (1, 0), (2, 0)]);
        let page = d.answer(&probe);
        assert!(page.is_overflow());
        assert!(page.keys().all(|k| k.0 >= BLOCK_SLOTS as u64), "page comes from block 1");
        // Promote a block-0 tuple over everything.
        d.update_measures(TupleKey(5), vec![999.0]).unwrap();
        let page = d.answer(&probe);
        assert_eq!(page.keys().next(), Some(TupleKey(5)), "raised tuple must lead the page");
        // And the raised page matches the exhaustive reference bit for bit.
        assert_eq!(d.reference_answer(&probe), page);
    }

    /// Maintenance is slot-stable: future inserts land in the same slots
    /// and every answer (including tie-breaks) is unchanged whether or
    /// when `maintain` runs.
    #[test]
    fn maintenance_is_outcome_and_slot_invariant() {
        let build = |maintain_every: Option<usize>| {
            let schema = Schema::with_domain_sizes(&[2, 3], &["price"]).unwrap();
            let mut d = HiddenDatabase::new(schema, 3, ScoringPolicy::ByMeasureDesc(MeasureId(0)));
            let mut outs = Vec::new();
            for round in 0..30u64 {
                // Ties everywhere: measures from a tiny domain, so key
                // tie-breaks decide pages.
                let batch = UpdateBatch::empty()
                    .insert(t(round * 2 + 1000, (round % 2) as u32, (round % 3) as u32, 5.0))
                    .insert(t(round * 2 + 1001, (round % 2) as u32, 0, 5.0));
                let batch =
                    if round >= 4 { batch.delete(TupleKey((round - 4) * 2 + 1000)) } else { batch };
                d.apply(batch).unwrap();
                if let Some(every) = maintain_every {
                    if (round as usize).is_multiple_of(every) {
                        d.maintain(MaintenanceBudget::slots(crate::store::SEGMENT_SLOTS));
                    }
                }
                outs.push(d.answer(&ConjunctiveQuery::select_all()));
                outs.push(d.answer(&q(&[(0, 0)])));
                outs.push(d.answer(&q(&[(0, 1), (1, 0)])));
            }
            (outs, d.alive_keys_sorted())
        };
        let (plain, keys_plain) = build(None);
        let (maintained, keys_maintained) = build(Some(3));
        assert_eq!(plain, maintained, "maintenance changed an answer");
        assert_eq!(keys_plain, keys_maintained);
    }

    /// Cross-round revalidation end to end: an overflow page survives
    /// below-the-floor churn as a resurrection (same shared page), and a
    /// page hit still drops it.
    #[test]
    fn revalidation_resurrects_overflow_pages_across_rounds() {
        let schema = Schema::with_domain_sizes(&[2], &["m"]).unwrap();
        let mut d = HiddenDatabase::new(schema, 2, ScoringPolicy::ByMeasureDesc(MeasureId(0)));
        assert!(d.revalidation_enabled(), "revalidation is the default");
        for key in 0..6u64 {
            d.insert(Tuple::new(TupleKey(key), vec![ValueId(0)], vec![100.0 + key as f64]))
                .unwrap();
        }
        let probe = ConjunctiveQuery::from_predicates([Predicate::new(AttrId(0), ValueId(0))]);
        let page = d.answer(&probe);
        assert!(page.is_overflow());
        assert_eq!(page.keys().collect::<Vec<_>>(), vec![TupleKey(5), TupleKey(4)]);

        // Below-the-floor churn: a matching insert scoring under the
        // page floor demotes the entry, then the next ask resurrects it.
        d.insert(Tuple::new(TupleKey(100), vec![ValueId(0)], vec![1.0])).unwrap();
        assert_eq!(d.memo_stale_len(), 1);
        let hits = d.stats().cache_hits;
        let again = d.answer(&probe);
        assert_eq!(again, page);
        assert_eq!(d.stats().cache_hits, hits + 1, "resurrection is a cache hit");
        assert_eq!(d.memo_stats().resurrected, 1);
        assert_eq!(d.memo_stale_len(), 0);

        // Above-the-floor churn: the re-check refutes the entry and the
        // fresh page shows the new leader.
        d.insert(Tuple::new(TupleKey(101), vec![ValueId(0)], vec![999.0])).unwrap();
        let fresh = d.answer(&probe);
        assert_eq!(fresh.keys().next(), Some(TupleKey(101)));
        assert_eq!(d.memo_stats().revalidation_failed, 1);

        // A page hit (deleting a served tuple) drops hard — no stale
        // entry left behind.
        d.delete(TupleKey(101)).unwrap();
        assert_eq!(d.memo_stale_len(), 0);
        let after_delete = d.answer(&probe);
        assert!(after_delete.keys().all(|k| k != TupleKey(101)));

        // Turning revalidation off restores PR 2 drop semantics.
        d.set_revalidation(false);
        d.answer(&probe);
        let demoted_before = d.memo_stats().demoted;
        d.insert(Tuple::new(TupleKey(102), vec![ValueId(0)], vec![2.0])).unwrap();
        assert_eq!(d.memo_stats().demoted, demoted_before);
        assert_eq!(d.memo_stale_len(), 0);
    }

    /// Ground-truth fan-out must match the sequential sweep bit-for-bit
    /// at every thread count.
    #[test]
    fn ground_truth_fanout_matches_sequential_bitwise() {
        use aggtrack_parallel::Threads;
        let schema = Schema::with_domain_sizes(&[2, 3], &["price"]).unwrap();
        let mut d = HiddenDatabase::new(schema, 4, ScoringPolicy::default());
        let n = (crate::store::SEGMENT_SLOTS + 777) as u64;
        for key in 0..n {
            d.insert(t(key, (key % 2) as u32, (key % 3) as u32, (key as f64).sqrt() * 0.1))
                .unwrap();
        }
        for key in (0..n).step_by(7) {
            d.delete(TupleKey(key)).unwrap();
        }
        let probe = q(&[(0, 1), (1, 2)]);
        let count = d.exact_count(Some(&probe));
        let sum = d.exact_sum(Some(&probe), |t| t.measure(MeasureId(0)));
        let root_sum = d.exact_sum(None, |t| t.measure(MeasureId(0)));
        for workers in [1, 2, 4, 7] {
            let threads = Threads::fixed(workers);
            assert_eq!(d.exact_count_threads(Some(&probe), threads), count);
            assert_eq!(
                d.exact_sum_threads(Some(&probe), |t| t.measure(MeasureId(0)), threads).to_bits(),
                sum.to_bits(),
                "{workers}-thread conditional sum drifted"
            );
            assert_eq!(
                d.exact_sum_threads(None, |t| t.measure(MeasureId(0)), threads).to_bits(),
                root_sum.to_bits(),
                "{workers}-thread root sum drifted"
            );
        }
    }

    fn persist_cfg(name: &str, resident: usize) -> crate::persist::PersistConfig {
        let dir =
            std::env::temp_dir().join(format!("hidden-db-database-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        crate::persist::PersistConfig::new(dir, resident)
    }

    /// The warm-restart promise end to end: checkpoint, drop the
    /// database, `open_persistent` — and the reopened database answers
    /// and evolves identically, out-of-core the whole way.
    #[test]
    fn checkpoint_and_open_persistent_roundtrip() {
        let cfg = persist_cfg("roundtrip", 2);
        let n = (crate::store::SEGMENT_SLOTS * 2 + 333) as u64;
        let mut d = db();
        d.enable_persist(&cfg).unwrap();
        assert!(d.persist_enabled());
        for key in 0..n {
            d.insert(t(key, (key % 2) as u32, (key % 3) as u32, key as f64)).unwrap();
        }
        for key in (0..n).step_by(11) {
            d.delete(TupleKey(key)).unwrap();
        }
        let probe = q(&[(0, 1), (1, 2)]);
        let before = d.answer(&probe);
        d.checkpoint().unwrap();

        drop(d);
        let mut re = HiddenDatabase::open_persistent(&cfg).unwrap();
        assert!(re.persist_enabled());
        assert_eq!(re.answer(&probe), before);
        assert!(
            re.persist_stats().peak_resident_segments <= 2,
            "reopen must stay inside the resident budget"
        );
        // Post-restart evolution still matches an in-RAM twin of the
        // same history (slot reuse included).
        re.insert(t(n + 1, 1, 2, -5.0)).unwrap();
        let out = re.answer(&probe);
        assert!(out.tuples().iter().any(|v| v.key() == TupleKey(n + 1)));
        let _ = std::fs::remove_dir_all(&cfg.dir);
    }

    /// Checkpoints are cumulative journal records: reopening always
    /// resumes from the *last* durable one.
    #[test]
    fn reopen_resumes_from_latest_checkpoint() {
        let cfg = persist_cfg("latest", 4);
        let mut d = db();
        d.enable_persist(&cfg).unwrap();
        d.insert(t(1, 0, 0, 1.0)).unwrap();
        d.checkpoint().unwrap();
        d.insert(t(2, 1, 1, 2.0)).unwrap();
        d.checkpoint().unwrap();
        drop(d);
        let re = HiddenDatabase::open_persistent(&cfg).unwrap();
        assert_eq!(re.len(), 2);
        let _ = std::fs::remove_dir_all(&cfg.dir);
    }

    /// A paged pool whose top-200 pages span every segment: prices are
    /// a key permutation, so the best tuples are scattered, and the
    /// budget of 2 leaves the read cache one slot.
    fn paged_scattered_pool(name: &str) -> (HiddenDatabase, crate::persist::PersistConfig) {
        let cfg = persist_cfg(name, 2);
        let schema = Schema::with_domain_sizes(&[2, 3], &["price"]).unwrap();
        let mut d = HiddenDatabase::new(schema, 200, ScoringPolicy::ByMeasureDesc(MeasureId(0)));
        d.enable_persist(&cfg).unwrap();
        let n = (crate::store::SEGMENT_SLOTS * 4 + 500) as u64;
        for key in 0..n {
            let price = (key * 7919 % 10_007) as f64;
            d.insert(t(key, (key % 2) as u32, (key % 3) as u32, price)).unwrap();
        }
        assert!(d.store.segment_count() >= 4);
        (d, cfg)
    }

    /// Ranking a page reads no store data and materialising it reads in
    /// slot order: an uncached answer faults each segment at most once
    /// for the scan and once for the page, not once per rank.
    #[test]
    fn paged_answers_fault_each_segment_at_most_twice() {
        let (mut d, cfg) = paged_scattered_pool("fault-once");
        d.set_invalidation_policy(InvalidationPolicy::Disabled);
        let bound = 2 * d.store.segment_count() as u64;
        for probe in [ConjunctiveQuery::select_all(), q(&[(0, 1)]), q(&[(0, 1), (1, 2)])] {
            let before = d.persist_stats().segments_faulted;
            let out = d.answer(&probe);
            assert!(out.is_overflow(), "{probe}: the page must be a full top-k");
            let segs: std::collections::BTreeSet<usize> =
                out.keys().map(|k| segment_of(d.store.slot_of(k).unwrap())).collect();
            assert!(segs.len() >= 4, "{probe}: the page spans {} segments", segs.len());
            let faults = d.persist_stats().segments_faulted - before;
            assert!(faults <= bound, "{probe}: {faults} faults > {bound}");
            assert_eq!(out, d.reference_answer(&probe));
        }
        let _ = std::fs::remove_dir_all(&cfg.dir);
    }

    /// Revalidating a demoted overflow entry sweeps its page and the
    /// churned slots in slot order: at most one fault per segment.
    #[test]
    fn paged_revalidation_faults_each_segment_at_most_once() {
        let (mut d, cfg) = paged_scattered_pool("revalidate-once");
        let root = ConjunctiveQuery::select_all();
        let page = d.answer(&root);
        assert!(page.is_overflow());
        // Below-the-floor churn in one segment: delete low-priced
        // tuples and insert replacements that rank under the floor.
        let base = crate::store::SEGMENT_SLOTS as u64;
        let mut batch = UpdateBatch::empty();
        for key in (base..base + 400).filter(|k| k * 7919 % 10_007 < 100).take(3) {
            batch = batch.delete(TupleKey(key));
        }
        for key in 0..3u64 {
            batch = batch.insert(t(1_000_000 + key, 0, 0, -1.0));
        }
        d.apply(batch).unwrap();
        assert_eq!(d.memo_stale_len(), 1, "the churn spares the page and demotes the entry");
        let before = d.persist_stats().segments_faulted;
        let again = d.answer(&root);
        let faults = d.persist_stats().segments_faulted - before;
        assert_eq!(d.memo_stats().resurrected, 1);
        assert_eq!(again, page);
        assert!(
            faults <= d.store.segment_count() as u64,
            "{faults} faults > {}",
            d.store.segment_count()
        );
        let _ = std::fs::remove_dir_all(&cfg.dir);
    }

    #[test]
    fn from_tuples_rejects_bad_input_without_panicking() {
        let schema = || Schema::with_domain_sizes(&[2, 3], &["price"]).unwrap();
        let load =
            |tuples| HiddenDatabase::from_tuples(schema(), 2, ScoringPolicy::default(), tuples);
        let dup = vec![t(1, 0, 0, 1.0), t(2, 1, 1, 2.0), t(1, 1, 2, 3.0)];
        assert!(matches!(load(dup), Err(DbError::DuplicateKey(TupleKey(1)))));
        let arity = vec![t(1, 0, 0, 1.0), Tuple::new(TupleKey(2), vec![ValueId(0)], vec![1.0])];
        assert!(matches!(load(arity), Err(DbError::TupleMismatch(_))));
        let measures = vec![Tuple::new(TupleKey(1), vec![ValueId(0), ValueId(0)], vec![])];
        assert!(matches!(load(measures), Err(DbError::TupleMismatch(_))));
        let domain = vec![t(1, 0, 0, 1.0), t(2, 0, 3, 1.0)];
        assert!(matches!(load(domain), Err(DbError::TupleMismatch(_))));
        // An empty load is the empty database, byte for byte.
        let mut empty = Vec::new();
        crate::codec::write_snapshot(&load(Vec::new()).unwrap(), &mut empty).unwrap();
        let mut fresh = Vec::new();
        let new = HiddenDatabase::new(schema(), 2, ScoringPolicy::default());
        crate::codec::write_snapshot(&new, &mut fresh).unwrap();
        assert_eq!(empty, fresh);
    }

    #[test]
    fn bulk_load_orders_segments_by_score_so_early_exits_skip() {
        // Five segments of tuples; A0 = 0 matches half of them, so a
        // one-predicate query overflows k = 10 by thousands.
        let n = 5 * SEGMENT_SLOTS as u64;
        let tuples: Vec<Tuple> = (0..n).map(|key| t(key, (key % 2) as u32, 0, 1.0)).collect();
        let schema = Schema::with_domain_sizes(&[2, 3], &["price"]).unwrap();
        let scoring = ScoringPolicy::default();
        let mut bulk =
            HiddenDatabase::from_tuples(schema.clone(), 10, scoring, tuples.clone()).unwrap();
        let bounds: Vec<u64> =
            (0..bulk.store.segment_count()).map(|s| bulk.store.segment_max_score(s)).collect();
        assert_eq!(bounds.len(), 5);
        assert!(bounds.windows(2).all(|w| w[0] >= w[1]), "segment bounds must not rise");
        let query = q(&[(0, 0)]);
        let page = bulk.answer(&query);
        assert!(page.is_overflow());
        assert!(bulk.eval_stats().segments_skipped > 0, "the page sits in the first segment");
        // The same tuples inserted one by one: hashed scores land in
        // every segment, no bound falls below the floor, nothing skips.
        let mut inserted = HiddenDatabase::new(schema, 10, scoring);
        for tuple in tuples {
            inserted.insert(tuple).unwrap();
        }
        assert_eq!(inserted.answer(&query), page);
        assert_eq!(inserted.eval_stats().segments_skipped, 0);
    }

    #[test]
    fn persist_misuse_is_rejected() {
        let cfg = persist_cfg("misuse", 2);
        let mut d = db();
        assert!(d.checkpoint().is_err(), "checkpoint without a tier must fail");
        assert_eq!(d.persist_stats(), crate::stats::PersistStats::default());
        d.enable_persist(&cfg).unwrap();
        assert!(d.enable_persist(&cfg).is_err(), "double enable must fail");
        // A fresh dir with no journal has nothing to open.
        let empty = persist_cfg("misuse-empty", 2);
        assert!(HiddenDatabase::open_persistent(&empty).is_err());
        let _ = std::fs::remove_dir_all(&cfg.dir);
        let _ = std::fs::remove_dir_all(&empty.dir);
    }
}
