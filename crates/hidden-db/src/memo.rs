//! The query memo: a pre-hashed map from [`ConjunctiveQuery`] to its
//! cached evaluation, with **postings-aware incremental invalidation**
//! and a **bounded CLOCK admission policy**.
//!
//! The memo sits on the hot path of every [`crate::database::HiddenDatabase::answer`]
//! call, so it avoids two costs a plain `HashMap<ConjunctiveQuery, _>`
//! pays:
//!
//! * **Double (Sip-)hashing.** The default hasher walks the predicate
//!   vector with SipHash on both the lookup and the insert. Here the
//!   caller computes a fast 64-bit fingerprint exactly once per answer
//!   ([`QueryMemo::hash_of`]) and the map is keyed by that fingerprint
//!   through an identity hasher.
//! * **Speculative key clones.** Entry-style APIs demand an owned key up
//!   front even when the query is already cached. The memo clones the
//!   query only on a confirmed miss, when the key is actually stored.
//!
//! Fingerprint collisions are handled, not assumed away: each bucket
//! holds entries keyed by the full query and lookups confirm structural
//! equality.
//!
//! ## Incremental invalidation
//!
//! A round that changes a handful of tuples should not re-evaluate every
//! repeated query from cold. A mutation hands the memo the
//! [`UpdateFootprint`] of the tuples it actually touched, and only the
//! entries that can have changed are dropped:
//!
//! * a reverse map `by_posting: (attr, value) → bucket fingerprints`
//!   finds candidate entries in time proportional to the footprint, not
//!   the memo size;
//! * a candidate is dropped iff its predicate set intersects the
//!   footprint's postings, or (belt and braces) its cached page contains
//!   a touched slot;
//! * the root query (`SELECT *`) matches every tuple, so its bucket is a
//!   candidate of every mutation;
//! * everything else survives the round untouched — including its shared
//!   `Arc` result page, which is sound because the page's slots were not
//!   touched by the batch.
//!
//! Soundness argument: a cached answer changes only if some touched tuple
//! matches its query; a tuple matches exactly when the query's predicate
//! set is a subset of the tuple's `(attr, value)` row, and every such row
//! is in the footprint, so every affected entry is a candidate under at
//! least one of its own predicates (or is the root).
//!
//! ## Cross-round revalidation
//!
//! Dropping every affected entry is still wasteful for the common churn
//! shape: an *overflow* page whose top-`k` provably did not change. Since
//! PR 5 an affected overflow entry whose cached page the footprint did
//! **not** touch is demoted to `Stale` instead of dropped, carrying a
//! bounded record of where the churn landed ([`TouchedSet`]) and a
//! conservative churn count. The next lookup runs a cheap re-check
//! against the store:
//!
//! * **classification margin** — `matched - churn > k` proves the query
//!   still overflows even if every churned row deleted a matching tuple;
//! * **page integrity** — every page slot is still alive (guaranteed by
//!   the demotion rules, re-checked as a belt-and-braces sweep);
//! * **floor check** — every churned location is harmless: a tracked
//!   touched *slot* either no longer matches the query or scores
//!   strictly below the page floor; a tracked touched *segment* (the
//!   spill level) has a max-score bound strictly below the floor — the
//!   PR 3 segment bounds, kept tight by the PR 5 compaction pass.
//!
//! All three pass → the entry (and its shared `Arc` page) is resurrected
//! and served; any fails → the entry is dropped and the query re-scans
//! from cold, exactly as before. Soundness leans on the demotion
//! invariant that a stale entry's page slots are untouched since
//! validation. Only the state *at lookup* matters — a stale entry is
//! never served between demotion and resurrection, so transient churn
//! needs no tracking beyond the counters above.
//!
//! ### Deferred reconciliation (PR 6)
//!
//! Stale entries used to stay in `by_posting` and absorb every matching
//! mutation's footprint eagerly, which put ~30 bucket probes back on the
//! pure-mutation hot path and collapsed insert+delete throughput by
//! ~10× (the PR 5 regression). Demotion now **unlinks** the entry from
//! the posting index, and the memo keeps a bounded, version-ordered
//! **churn journal** of sealed footprints recorded while any stale entry
//! exists. The entry's next lookup replays the journal suffix newer than
//! its demotion stamp: a journalled page touch drops it hard (the same
//! verdict the eager path produced, just deferred — the entry was never
//! served in between), a predicate match folds churn and touched slots
//! in, and only then does the re-check above run. A stale entry whose
//! demotion stamp has been evicted off the journal's front cannot prove
//! coverage and drops — bounded memory wins over maximal resurrection,
//! exactly like the [`TouchedSet`] spill ladder. Mutations therefore pay
//! one journal append (plus the fresh-entry candidate walk) no matter
//! how many demoted entries are parked.
//!
//! ## Version stamps
//!
//! Each entry records the database version at which it was validated
//! (insertion, or the latest invalidation pass that explicitly retained
//! it after a candidate check). Debug builds assert on every hit that the
//! entry's stamp is consistent with the last mutation touching any of its
//! predicates' postings (`QueryMemo::debug_assert_current`) — a
//! safety net that turns an invalidation bug into a loud assertion
//! instead of a silently stale page. Release builds trust the eager
//! invalidation and keep the ~20 ns hit path.
//!
//! ## Bounded admission
//!
//! Distinct-query adversarial streams previously grew the memo without
//! bound between mutations. Entries are now capped (default
//! [`DEFAULT_MEMO_CAPACITY`]): inserts beyond the cap evict via a CLOCK
//! (second-chance) sweep over buckets in insertion order — a hit sets the
//! entry's referenced bit, the sweep clears it once and evicts on the
//! second encounter. Eviction and invalidation both unlink the dropped
//! queries from `by_posting`, so the reverse map stays proportional to
//! the live entries.

use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

use crate::interface::{slot_matches, CachedEval};
use crate::query::ConjunctiveQuery;
use crate::stats::MemoStats;
use crate::store::{segment_of, Slot, Store};
use crate::updates::UpdateFootprint;
use crate::value::{AttrId, ValueId};

/// Default cap on cached queries. Comfortably above the working set of
/// every estimator workload (a few hundred distinct queries per round)
/// while bounding adversarial distinct-query streams.
pub const DEFAULT_MEMO_CAPACITY: usize = 4096;

/// How the database's query memo reacts to mutations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InvalidationPolicy {
    /// Postings-aware incremental invalidation (the default): only cached
    /// queries whose predicate set intersects the mutation's
    /// [`UpdateFootprint`] (plus the root query) are dropped.
    #[default]
    Incremental,
    /// No memoisation at all: every answer re-evaluates. The memo-free
    /// reference the consistency proptests and benches compare against.
    Disabled,
}

/// Hasher that passes a pre-computed `u64` through unchanged.
#[derive(Default)]
pub(crate) struct IdentityHasher(u64);

impl Hasher for IdentityHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("identity hasher is only fed pre-hashed u64 keys");
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

/// One-multiply hasher for packed posting keys: mutations probe
/// `by_posting` once per touched posting (attribute count × ops), and
/// SipHash on a 6-byte tuple key was the single hottest part of the
/// invalidation pass. Fibonacci multiply spreads the dense packed ids
/// across the high bits, which `HashMap` folds into its bucket index.
#[derive(Default)]
pub(crate) struct PostingKeyHasher(u64);

impl Hasher for PostingKeyHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("posting-key hasher is only fed packed u64 keys");
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// Packs a posting into the `by_posting` key: attribute in the high
/// word, value in the low.
#[inline]
fn pack_posting(attr: AttrId, value: ValueId) -> u64 {
    (u64::from(attr.0) << 32) | u64::from(value.0)
}

/// Exact touched-slot tracking caps out here (unique slots) and spills
/// to segments.
const TRACK_SLOTS_MAX: usize = 64;

/// Touched-segment tracking caps out here (unique segments) and gives up
/// (`Unbounded`).
const TRACK_SEGS_MAX: usize = 16;

/// Raw (unsorted, duplicates allowed) buffers compact when they exceed
/// 4× their level's unique-count cap. PR 6 regression fix: `absorb` used
/// to sort+dedup per demoted entry per mutation, which collapsed
/// pure-mutation throughput by ~10×; now a mutation pays a plain append
/// and the sort/dedup amortises over many absorptions.
const RAW_SLOTS_MAX: usize = TRACK_SLOTS_MAX * 4;

/// Raw cap of the segment level (see [`RAW_SLOTS_MAX`]).
const RAW_SEGS_MAX: usize = TRACK_SEGS_MAX * 4;

/// Where churn landed since an entry went stale, at decreasing precision
/// as it accumulates. Bounded: a stale entry costs O(1) memory no matter
/// how many rounds of churn pass before its next lookup — the raw
/// buffers never exceed their cap plus one footprint.
#[derive(Debug, Clone, Default, PartialEq)]
enum TouchedSet {
    /// Fresh entry (or just resurrected): nothing tracked.
    #[default]
    Empty,
    /// Touched slots (raw between compactions) — the precise
    /// occupant-score re-check.
    Slots(Vec<Slot>),
    /// Spilled to touched segments (raw between compactions) — the
    /// coarser max-score-bound re-check (which segment compaction keeps
    /// tight).
    Segments(Vec<u32>),
    /// Too much churn to track: the next lookup re-scans.
    Unbounded,
}

impl TouchedSet {
    /// Folds a (sealed) footprint's touched slots in with a raw append;
    /// classification (dedup + spill to the next precision level) is
    /// deferred to [`TouchedSet::compact`], which runs only when the raw
    /// buffer overflows its cap. The floor check tolerates unsorted,
    /// duplicated lists, so compaction timing never affects a
    /// revalidation verdict — only memory and mutation throughput.
    fn absorb(&mut self, footprint: &UpdateFootprint) {
        self.absorb_slots(footprint.slots());
    }

    /// [`TouchedSet::absorb`] from a raw slot list (sorted + deduped, as
    /// a sealed footprint's is) — the journal replay path folds stored
    /// footprints in through here.
    fn absorb_slots(&mut self, new: &[Slot]) {
        match self {
            Self::Unbounded => {}
            Self::Empty => {
                // Sealed footprints are sorted and deduped already.
                *self = Self::Slots(new.to_vec());
                self.compact();
            }
            Self::Slots(slots) => {
                slots.extend_from_slice(new);
                if slots.len() > RAW_SLOTS_MAX {
                    self.compact();
                }
            }
            Self::Segments(segs) => {
                segs.extend(new.iter().map(|&s| segment_of(s) as u32));
                if segs.len() > RAW_SEGS_MAX {
                    self.compact();
                }
            }
        }
    }

    /// Dedups the current level and spills to the next when the unique
    /// count exceeds the level's cap.
    fn compact(&mut self) {
        if let Self::Slots(slots) = self {
            slots.sort_unstable();
            slots.dedup();
            if slots.len() > TRACK_SLOTS_MAX {
                let segs: Vec<u32> = slots.iter().map(|&s| segment_of(s) as u32).collect();
                *self = Self::Segments(segs);
            }
        }
        if let Self::Segments(segs) = self {
            segs.sort_unstable();
            segs.dedup();
            if segs.len() > TRACK_SEGS_MAX {
                *self = Self::Unbounded;
            }
        }
    }
}

/// Caps on the churn journal: entry count, total stored slots, total
/// stored postings. Comfortably above what accrues between two lookups
/// of any estimator workload; an adversarial stale-and-never-look-up
/// stream just evicts from the front and forfeits resurrection.
const JOURNAL_ENTRIES_MAX: usize = 1024;

/// Total touched-slot cap across the journal (see [`JOURNAL_ENTRIES_MAX`]).
const JOURNAL_SLOTS_MAX: usize = 8192;

/// Total touched-posting cap across the journal (see
/// [`JOURNAL_ENTRIES_MAX`]).
const JOURNAL_POSTINGS_MAX: usize = 16384;

/// One mutation's sealed footprint, retained so stale entries reconcile
/// churn at their next lookup instead of being walked on the mutation
/// hot path (see "Deferred reconciliation" in the module docs).
#[derive(Debug, Clone)]
struct JournalEntry {
    /// Post-mutation database version (unique per mutation).
    version: u64,
    /// Elementary changes in the mutation (not deduped) — the margin
    /// charge for every stale entry the mutation can have affected.
    rows: u64,
    /// Touched postings, sorted + deduped (copied from the sealed
    /// footprint).
    postings: Vec<(AttrId, ValueId)>,
    /// Touched slots, sorted + deduped.
    slots: Vec<Slot>,
}

impl JournalEntry {
    /// [`UpdateFootprint::affects_query`] over the stored footprint.
    fn affects_query(&self, query: &ConjunctiveQuery) -> bool {
        if query.is_empty() {
            return !(self.postings.is_empty() && self.slots.is_empty());
        }
        query.predicates().iter().any(|p| self.postings.binary_search(&(p.attr, p.value)).is_ok())
    }

    /// [`UpdateFootprint::affects_page`] over the stored footprint.
    fn affects_page(&self, page_slots: &[Slot]) -> bool {
        page_slots.iter().any(|s| self.slots.binary_search(s).is_ok())
    }
}

/// One cached query with its bookkeeping.
#[derive(Debug, Clone)]
struct MemoEntry {
    query: ConjunctiveQuery,
    eval: CachedEval,
    /// Database version at which this entry was last validated — or, for
    /// a stale entry, the version whose churn it has folded in so far
    /// (set at demotion, advanced by journal replay): the journal-replay
    /// low-water mark.
    stamp: u64,
    /// CLOCK referenced bit: set on hit, cleared by the sweep.
    referenced: bool,
    /// Demoted by an invalidation pass; must pass the lookup-time
    /// re-check before it may be served again. A stale entry is unlinked
    /// from `by_posting` (stale ⟺ unlinked), so mutations never walk it.
    stale: bool,
    /// Rows churned since demotion (upper bound on matching tuples
    /// lost) — the classification margin.
    churn: u64,
    /// Where the churn landed, for the floor check.
    touched: TouchedSet,
}

/// The memo.
#[derive(Debug, Clone)]
pub(crate) struct QueryMemo {
    buckets: HashMap<u64, Vec<MemoEntry>, BuildHasherDefault<IdentityHasher>>,
    /// Posting → fingerprints of buckets holding a query with that
    /// predicate. Maintained eagerly on insert/evict/invalidate, so a
    /// mutation's invalidation work is proportional to its footprint.
    by_posting: HashMap<u64, Vec<u64>, BuildHasherDefault<PostingKeyHasher>>,
    /// Last version at which a mutation touched each posting (debug-only
    /// stamp-check support; bounded by the schema's attr × domain size —
    /// not maintained in release builds, where the eager invalidation is
    /// trusted and mutations stay cheap).
    #[cfg(debug_assertions)]
    posting_stamp: HashMap<(AttrId, ValueId), u64>,
    /// Last version at which any mutation occurred.
    root_stamp: u64,
    /// CLOCK ring of bucket fingerprints in admission order. May hold
    /// stale fingerprints for buckets already invalidated; the eviction
    /// sweep drops those lazily and `maybe_compact_clock` rebuilds the
    /// ring when they pile up. Invariants: ring ≥ live buckets (every
    /// bucket has a slot) and ring ≤ 2·live buckets + 64 (compaction).
    clock: VecDeque<u64>,
    capacity: usize,
    /// Live entries across all buckets (fresh + stale).
    len: usize,
    /// Entries currently demoted to `Stale`.
    stale_len: usize,
    /// Whether invalidation demotes eligible overflow entries to `Stale`
    /// for the lookup-time re-check instead of dropping them.
    revalidate: bool,
    stats: MemoStats,
    /// Reusable candidate buffer for invalidation passes (mutation hot
    /// path: no allocation per mutation).
    scratch: Vec<u64>,
    /// Churn journal: sealed footprints of mutations that ran while any
    /// entry was stale, in version order. Replayed by
    /// [`QueryMemo::get_or_revalidate`] to reconcile a stale entry
    /// before its re-check; bounded by the `JOURNAL_*_MAX` caps.
    journal: VecDeque<JournalEntry>,
    /// Running total of slots stored across `journal`.
    journal_slots: usize,
    /// Running total of postings stored across `journal`.
    journal_postings: usize,
    /// Highest version dropped off the journal's front (or skipped while
    /// revalidation was toggled off). A stale entry demoted at or before
    /// this version cannot prove coverage and fails its re-check.
    journal_evicted_through: u64,
}

impl Default for QueryMemo {
    fn default() -> Self {
        Self {
            buckets: HashMap::default(),
            by_posting: HashMap::default(),
            #[cfg(debug_assertions)]
            posting_stamp: HashMap::new(),
            root_stamp: 0,
            clock: VecDeque::new(),
            capacity: DEFAULT_MEMO_CAPACITY,
            len: 0,
            stale_len: 0,
            revalidate: true,
            stats: MemoStats::default(),
            scratch: Vec::new(),
            journal: VecDeque::new(),
            journal_slots: 0,
            journal_postings: 0,
            journal_evicted_through: 0,
        }
    }
}

impl QueryMemo {
    /// Fast 64-bit fingerprint of a query (FxHash-style multiply-rotate
    /// over the sorted predicate list; queries are canonical by
    /// construction so structurally equal queries fingerprint equal).
    #[inline]
    pub(crate) fn hash_of(query: &ConjunctiveQuery) -> u64 {
        const K: u64 = 0x517c_c1b7_2722_0a95;
        let mut h: u64 = 0x9E37_79B9_7F4A_7C15 ^ query.predicates().len() as u64;
        for p in query.predicates() {
            let word = (u64::from(p.attr.0) << 32) | u64::from(p.value.0);
            h = (h.rotate_left(5) ^ word).wrapping_mul(K);
        }
        h
    }

    /// Fingerprint of the root query — every mutation's first candidate.
    #[inline]
    fn root_hash() -> u64 {
        // `hash_of` with zero predicates is just the seed.
        0x9E37_79B9_7F4A_7C15
    }

    /// Cached evaluation for `query`, if present *and fresh*. Mutable so
    /// the entry can lazily materialise (and then share) its tuple views.
    /// Marks the entry referenced for the CLOCK sweep. `version` is the
    /// database's current version, used by the debug stamp check. A
    /// `Stale` entry reads as a miss here (but is left in place) — the
    /// production path is [`QueryMemo::get_or_revalidate`].
    #[inline]
    pub(crate) fn get_mut(
        &mut self,
        hash: u64,
        query: &ConjunctiveQuery,
        version: u64,
    ) -> Option<&mut CachedEval> {
        #[cfg(debug_assertions)]
        self.debug_assert_current(hash, query, version);
        #[cfg(not(debug_assertions))]
        let _ = version;
        let entry = self.buckets.get_mut(&hash)?.iter_mut().find(|e| e.query == *query)?;
        if entry.stale {
            return None;
        }
        entry.referenced = true;
        Some(&mut entry.eval)
    }

    /// The production lookup: serves a fresh entry directly; runs a
    /// `Stale` entry through the score/bound re-check against `store`,
    /// resurrecting it (stamped at `version`) on success or dropping it
    /// (the caller then re-evaluates from cold) on failure.
    pub(crate) fn get_or_revalidate(
        &mut self,
        hash: u64,
        query: &ConjunctiveQuery,
        version: u64,
        store: &Store,
    ) -> Option<&mut CachedEval> {
        let stale = self
            .buckets
            .get(&hash)
            .and_then(|b| b.iter().find(|e| e.query == *query))
            .map(|e| e.stale)?;
        if stale {
            let passes = self.revalidate && {
                // Deferred reconciliation: fold every journalled
                // mutation since demotion into the entry's churn record
                // before the re-check runs (see the module docs).
                let Self { ref journal, journal_evicted_through, ref mut buckets, .. } = *self;
                let entry = buckets
                    .get_mut(&hash)
                    .and_then(|b| b.iter_mut().find(|e| e.query == *query))
                    .expect("entry probed above");
                Self::reconcile(entry, journal, journal_evicted_through)
                    && Self::revalidation_passes(entry, store)
            };
            let Self { ref mut buckets, ref mut by_posting, .. } = *self;
            let bucket = buckets.get_mut(&hash).expect("bucket probed above");
            let idx = bucket.iter().position(|e| e.query == *query).expect("entry probed above");
            if passes {
                let entry = &mut bucket[idx];
                entry.stale = false;
                // The re-check only proves `matched - churn` matches
                // remain; the original count may have genuinely shrunk.
                // Resurrect with that proven lower bound, so the margin
                // of the *next* demotion cycle cannot double-spend churn
                // already consumed here — keeping the original `matched`
                // would let repeated demote/resurrect rounds of
                // below-floor deletes serve Overflow after the true
                // count fell to `k`.
                entry.eval.matched -= entry.churn as usize;
                entry.churn = 0;
                entry.touched = TouchedSet::Empty;
                entry.stamp = version;
                // Re-enter the posting index (demotion unlinked it).
                for p in entry.query.predicates() {
                    by_posting.entry(pack_posting(p.attr, p.value)).or_default().push(hash);
                }
                self.stale_len -= 1;
                self.stats.resurrected += 1;
            } else {
                // No unlink: demotion already removed the entry from
                // `by_posting` (stale ⟺ unlinked).
                bucket.swap_remove(idx);
                self.len -= 1;
                self.stale_len -= 1;
                self.stats.revalidation_failed += 1;
                if bucket.is_empty() {
                    self.buckets.remove(&hash);
                }
                return None;
            }
        }
        self.get_mut(hash, query, version)
    }

    /// Folds every journalled mutation newer than the entry's replay
    /// low-water mark (`stamp`) into its churn/touched record, in
    /// version order. Returns `false` when the entry cannot be proven
    /// reconcilable: the journal no longer covers its demotion (front
    /// evicted past `stamp`) or a journalled mutation touched its cached
    /// page — the same hard-drop verdict the eager path used to issue at
    /// mutation time, just deferred to the first lookup (sound because a
    /// stale entry is never served in between).
    fn reconcile(
        entry: &mut MemoEntry,
        journal: &VecDeque<JournalEntry>,
        evicted_through: u64,
    ) -> bool {
        debug_assert!(entry.stale, "only stale entries reconcile");
        if evicted_through > entry.stamp {
            return false;
        }
        let start = journal.partition_point(|j| j.version <= entry.stamp);
        for j in journal.iter().skip(start) {
            if j.affects_page(&entry.eval.slots) {
                return false;
            }
            if j.affects_query(&entry.query) {
                entry.churn = entry.churn.saturating_add(j.rows);
                entry.touched.absorb_slots(&j.slots);
            }
        }
        // Advance the low-water mark so a future replay (after further
        // demote-free mutations) cannot double-count this suffix.
        if let Some(last) = journal.back() {
            entry.stamp = entry.stamp.max(last.version);
        }
        true
    }

    /// The lookup-time re-check behind cross-round revalidation (see the
    /// module docs for the soundness argument). Read-only; the caller
    /// applies the verdict.
    fn revalidation_passes(entry: &MemoEntry, store: &Store) -> bool {
        let eval = &entry.eval;
        debug_assert!(eval.overflow, "only overflow entries are demoted");
        // Classification margin: even if every churned row deleted a
        // matching tuple, strictly more than `k` matches remain.
        let margin_ok = (eval.matched as u64)
            .checked_sub(entry.churn)
            .is_some_and(|left| left > eval.slots.len() as u64);
        if !margin_ok {
            return false;
        }
        // Page integrity: guaranteed untouched by the demotion rules;
        // the alive sweep is a cheap belt-and-braces re-check, and debug
        // builds verify the full match in the same pass. This sweep and
        // the floor check walk slot-sorted copies, so a paged store
        // faults each segment at most once per pass.
        let mut page = eval.slots.clone();
        page.sort_unstable();
        for &s in &page {
            if !store.is_alive(s) {
                debug_assert!(false, "stale entry's page slot died — demotion invariant broken");
                return false;
            }
            debug_assert!(
                slot_matches(&entry.query, store, s),
                "stale entry's page drifted — demotion invariant broken"
            );
        }
        // Floor check: no churned location can displace a page slot.
        // Only the state at lookup matters — the entry was never served
        // while stale, so transient occupants are irrelevant.
        match &entry.touched {
            TouchedSet::Empty => true,
            TouchedSet::Slots(slots) => {
                let mut touched = slots.clone();
                touched.sort_unstable();
                touched.iter().all(|&s| {
                    !slot_matches(&entry.query, store, s) || store.score_at(s) < eval.floor
                })
            }
            TouchedSet::Segments(segs) => segs.iter().all(|&seg| {
                (seg as usize) >= store.segment_count()
                    || store.segment_max_score(seg as usize) < eval.floor
            }),
            TouchedSet::Unbounded => false,
        }
    }

    /// The stamp-consistency safety net behind every debug-build hit: an
    /// entry may be served only if it was validated no earlier than the
    /// last mutation touching any of its predicates' postings (the root
    /// query checks against the last mutation of any kind). Turns an
    /// invalidation bug into a loud assertion instead of a stale page.
    #[cfg(debug_assertions)]
    fn debug_assert_current(&self, hash: u64, query: &ConjunctiveQuery, version: u64) {
        let Some(entry) =
            self.buckets.get(&hash).and_then(|b| b.iter().find(|e| e.query == *query))
        else {
            return; // miss: nothing to check
        };
        if entry.stale {
            // Known-stale entries are exempt: they are never served
            // without first passing (and being restamped by) the
            // revalidation re-check.
            return;
        }
        assert!(
            entry.stamp <= version,
            "memo entry stamped in the future ({} > {version})",
            entry.stamp
        );
        let current = if query.is_empty() {
            entry.stamp >= self.root_stamp
        } else {
            query.predicates().iter().all(|p| {
                entry.stamp >= self.posting_stamp.get(&(p.attr, p.value)).copied().unwrap_or(0)
            })
        };
        assert!(current, "memo would serve a stale entry for {query} (stamp {})", entry.stamp);
    }

    /// Inserts a confirmed-missing entry (caller has already probed with
    /// [`QueryMemo::get_mut`]; this is the one place the query is cloned),
    /// stamped with the current database version. Evicts via the CLOCK
    /// sweep first if the memo is at capacity.
    pub(crate) fn insert(
        &mut self,
        hash: u64,
        query: &ConjunctiveQuery,
        eval: CachedEval,
        version: u64,
    ) {
        if self.capacity == 0 {
            return;
        }
        while self.len >= self.capacity {
            self.evict_one();
        }
        for p in query.predicates() {
            self.by_posting.entry(pack_posting(p.attr, p.value)).or_default().push(hash);
        }
        let bucket = self.buckets.entry(hash).or_default();
        if bucket.is_empty() {
            self.clock.push_back(hash);
        }
        bucket.push(MemoEntry {
            query: query.clone(),
            eval,
            stamp: version,
            referenced: false,
            stale: false,
            churn: 0,
            touched: TouchedSet::Empty,
        });
        self.len += 1;
        self.stats.insertions += 1;
    }

    /// CLOCK second-chance eviction of one bucket. Terminates: every
    /// referenced bucket loses its bit on the first encounter and is
    /// evictable on the second, and stale ring slots just pop.
    fn evict_one(&mut self) {
        while let Some(hash) = self.clock.pop_front() {
            match self.buckets.get_mut(&hash) {
                // Bucket already gone (invalidated): drop the stale slot.
                None => continue,
                Some(entries) if entries.iter().any(|e| e.referenced) => {
                    for e in entries.iter_mut() {
                        e.referenced = false;
                    }
                    self.clock.push_back(hash);
                }
                Some(_) => {
                    let entries = self.buckets.remove(&hash).expect("bucket just probed");
                    self.len -= entries.len();
                    self.stale_len -= entries.iter().filter(|e| e.stale).count();
                    self.stats.evicted += entries.len() as u64;
                    // Stale entries were already unlinked at demotion;
                    // unlinking them again would steal a bucket mate's
                    // registration under any shared posting.
                    for e in entries.iter().filter(|e| !e.stale) {
                        Self::unlink(&mut self.by_posting, hash, &e.query);
                    }
                    return;
                }
            }
        }
    }

    /// Removes one `hash` occurrence from each of `query`'s posting lists.
    fn unlink(
        by_posting: &mut HashMap<u64, Vec<u64>, BuildHasherDefault<PostingKeyHasher>>,
        hash: u64,
        query: &ConjunctiveQuery,
    ) {
        for p in query.predicates() {
            let key = pack_posting(p.attr, p.value);
            if let Some(hashes) = by_posting.get_mut(&key) {
                if let Some(i) = hashes.iter().position(|&h| h == hash) {
                    hashes.swap_remove(i);
                }
                if hashes.is_empty() {
                    by_posting.remove(&key);
                }
            }
        }
    }

    /// Postings-aware incremental invalidation: drops exactly the entries
    /// the mutation described by `footprint` can have changed, re-stamps
    /// every explicitly checked survivor, and leaves the rest of the memo
    /// untouched. `version` is the database's *post-mutation* version.
    ///
    /// Allocation-free on the mutation hot path: candidates collect into
    /// a reusable scratch buffer and candidate buckets are filtered **in
    /// place** (`retain_mut`) instead of being removed, rebuilt, and
    /// re-inserted — pure-mutation workloads (the interface microbench's
    /// insert+delete pairs) pay vector appends and map probes only.
    pub(crate) fn invalidate(&mut self, footprint: &mut UpdateFootprint, version: u64) {
        footprint.seal();
        self.root_stamp = version;
        #[cfg(debug_assertions)]
        for &posting in footprint.postings() {
            self.posting_stamp.insert(posting, version);
        }
        if self.buckets.is_empty() {
            // Nothing cached: stamps above are all a mutation owes. The
            // ring may still hold slots of buckets a previous pass
            // dropped; keep it bounded.
            self.maybe_compact_clock();
            return;
        }
        let len_before = self.len;
        let mut candidates = std::mem::take(&mut self.scratch);
        candidates.clear();
        candidates.push(Self::root_hash());
        for posting in footprint.postings() {
            if let Some(hashes) = self.by_posting.get(&pack_posting(posting.0, posting.1)) {
                candidates.extend_from_slice(hashes);
            }
        }
        candidates.sort_unstable();
        candidates.dedup();
        let revalidate = self.revalidate;
        for &hash in &candidates {
            let Some(entries) = self.buckets.get_mut(&hash) else { continue };
            let (by_posting, len, stale_len, stats) =
                (&mut self.by_posting, &mut self.len, &mut self.stale_len, &mut self.stats);
            entries.retain_mut(|e| {
                if e.stale {
                    // Already demoted: unlinked from `by_posting`, so it
                    // is only reachable here as a bucket mate (hash
                    // collision) or via the root bucket. Its churn since
                    // demotion comes from the journal at its next
                    // lookup — the mutation pays nothing for it.
                    return true;
                }
                let page_hit = footprint.affects_page(&e.eval.slots);
                if !page_hit && !footprint.affects_query(&e.query) {
                    // Explicitly checked and retained: validated at the
                    // new version.
                    e.stamp = version;
                    return true;
                }
                // Affected. An overflow page the churn provably spared
                // (no touched slot on the page) demotes to `Stale` for
                // the lookup-time re-check; anything else drops hard —
                // in particular any page hit, which is what upholds the
                // invariant that a stale entry's page slots are
                // untouched since validation.
                if revalidate && e.eval.overflow && !page_hit {
                    e.stale = true;
                    *stale_len += 1;
                    stats.demoted += 1;
                    // The demoting footprint is absorbed eagerly (it is
                    // in hand) and `stamp` records the demotion version:
                    // the journal-replay low-water mark. Everything
                    // after this mutation reaches the entry through the
                    // journal, so drop it from the posting index.
                    e.stamp = version;
                    e.churn = e.churn.saturating_add(footprint.rows() as u64);
                    e.touched.absorb(footprint);
                    Self::unlink(by_posting, hash, &e.query);
                    return true;
                }
                *len -= 1;
                stats.invalidated += 1;
                Self::unlink(by_posting, hash, &e.query);
                false
            });
            if entries.is_empty() {
                self.buckets.remove(&hash);
            }
        }
        self.scratch = candidates;
        // Entries surviving this pass (len_before minus dropped).
        debug_assert!(self.len <= len_before);
        self.stats.retained += self.len as u64;
        if revalidate && self.stale_len > 0 {
            self.journal_push(footprint, version);
        }
        self.maybe_compact_clock();
    }

    /// Appends a sealed footprint to the churn journal, evicting from
    /// the front when any cap is exceeded. An entry demoted at or before
    /// an evicted version can no longer prove coverage and drops at its
    /// next lookup — bounded memory wins over maximal resurrection,
    /// exactly like the [`TouchedSet`] spill ladder.
    fn journal_push(&mut self, footprint: &UpdateFootprint, version: u64) {
        self.journal.push_back(JournalEntry {
            version,
            rows: footprint.rows() as u64,
            postings: footprint.postings().to_vec(),
            slots: footprint.slots().to_vec(),
        });
        self.journal_slots += footprint.slots().len();
        self.journal_postings += footprint.postings().len();
        while self.journal.len() > JOURNAL_ENTRIES_MAX
            || self.journal_slots > JOURNAL_SLOTS_MAX
            || self.journal_postings > JOURNAL_POSTINGS_MAX
        {
            let old = self.journal.pop_front().expect("over-cap journal is non-empty");
            self.journal_slots -= old.slots.len();
            self.journal_postings -= old.postings.len();
            self.journal_evicted_through = old.version;
        }
    }

    /// Bounds the CLOCK ring. Invalidation removes buckets without
    /// touching their ring slots, and below capacity `evict_one` (the
    /// other lazy cleaner) never runs — so under steady invalidate/
    /// re-admit churn the stale slots would otherwise accumulate forever.
    /// When stale slots outnumber live buckets, rebuild the ring in order
    /// keeping one slot per live bucket: amortised O(1) per mutation,
    /// and `clock.len() ≤ 2·buckets + 64` always holds.
    fn maybe_compact_clock(&mut self) {
        if self.clock.len() <= 2 * self.buckets.len() + 64 {
            return;
        }
        let mut seen = HashSet::with_capacity(self.buckets.len());
        let buckets = &self.buckets;
        self.clock.retain(|h| buckets.contains_key(h) && seen.insert(*h));
    }

    /// Drops every entry (`set_k`, policy switches).
    pub(crate) fn clear(&mut self) {
        self.buckets.clear();
        self.by_posting.clear();
        self.clock.clear();
        self.len = 0;
        self.stale_len = 0;
        self.journal.clear();
        self.journal_slots = 0;
        self.journal_postings = 0;
        self.journal_evicted_through = self.root_stamp;
        self.stats.wholesale_clears += 1;
        // posting_stamp / root_stamp deliberately survive: they describe
        // mutation history, not cache contents.
    }

    /// Toggles stale-entry demotion/revalidation. Turning it off also
    /// refuses to resurrect entries demoted while it was on (they drop
    /// lazily at their next lookup). Any toggle resets the churn journal
    /// and poisons coverage up to the current version: mutations during
    /// an off window are not journalled, so entries demoted before the
    /// window must not resurrect with that gap unaccounted.
    pub(crate) fn set_revalidate(&mut self, on: bool) {
        if on != self.revalidate {
            self.journal.clear();
            self.journal_slots = 0;
            self.journal_postings = 0;
            self.journal_evicted_through = self.root_stamp;
        }
        self.revalidate = on;
    }

    /// Whether demotion/revalidation is active.
    pub(crate) fn revalidate_enabled(&self) -> bool {
        self.revalidate
    }

    /// Number of cached queries currently demoted to `Stale`.
    pub(crate) fn stale_len(&self) -> usize {
        self.stale_len
    }

    /// Caps the number of cached entries, evicting down if over.
    pub(crate) fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        while self.len > self.capacity {
            self.evict_one();
        }
    }

    /// The configured entry cap.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Lifecycle counters.
    pub(crate) fn stats(&self) -> MemoStats {
        self.stats
    }

    /// Number of cached queries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Predicate;

    fn q(pairs: &[(u16, u32)]) -> ConjunctiveQuery {
        ConjunctiveQuery::from_predicates(
            pairs.iter().map(|&(a, v)| Predicate::new(AttrId(a), ValueId(v))),
        )
    }

    fn fp(slot: u32, values: &[u32]) -> UpdateFootprint {
        let mut f = UpdateFootprint::default();
        let vals: Vec<ValueId> = values.iter().map(|&v| ValueId(v)).collect();
        f.record(slot, &vals);
        f
    }

    #[test]
    fn root_hash_matches_hash_of_select_all() {
        assert_eq!(QueryMemo::root_hash(), QueryMemo::hash_of(&ConjunctiveQuery::select_all()));
    }

    #[test]
    fn fingerprints_are_structural() {
        let a = q(&[(0, 1), (2, 3)]);
        let b = q(&[(2, 3), (0, 1)]);
        assert_eq!(QueryMemo::hash_of(&a), QueryMemo::hash_of(&b));
        let c = q(&[(0, 1), (2, 4)]);
        assert_ne!(QueryMemo::hash_of(&a), QueryMemo::hash_of(&c));
        assert_ne!(QueryMemo::hash_of(&ConjunctiveQuery::select_all()), QueryMemo::hash_of(&a));
    }

    #[test]
    fn insert_then_get_roundtrip() {
        let mut memo = QueryMemo::default();
        let query = q(&[(1, 2)]);
        let h = QueryMemo::hash_of(&query);
        assert!(memo.get_mut(h, &query, 0).is_none());
        memo.insert(h, &query, CachedEval::new(true, vec![3, 1]), 0);
        let eval = memo.get_mut(h, &query, 0).expect("entry present");
        assert!(eval.overflow);
        assert_eq!(eval.slots, vec![3, 1]);
        assert_eq!(memo.len(), 1);
        memo.clear();
        assert!(memo.get_mut(h, &query, 0).is_none());
        assert_eq!(memo.len(), 0);
        assert_eq!(memo.stats().wholesale_clears, 1);
    }

    #[test]
    fn colliding_fingerprints_disambiguate_by_equality() {
        // Force a collision by inserting two different queries under the
        // same fingerprint (possible in principle; simulated here).
        let mut memo = QueryMemo::default();
        let a = q(&[(0, 0)]);
        let b = q(&[(0, 1)]);
        let h = 42;
        memo.insert(h, &a, CachedEval::new(false, vec![1]), 0);
        memo.insert(h, &b, CachedEval::new(true, vec![2]), 0);
        assert_eq!(memo.get_mut(h, &a, 0).unwrap().slots, vec![1]);
        assert_eq!(memo.get_mut(h, &b, 0).unwrap().slots, vec![2]);
        assert_eq!(memo.len(), 2);
    }

    #[test]
    fn invalidation_drops_only_intersecting_entries() {
        let mut memo = QueryMemo::default();
        let root = ConjunctiveQuery::select_all();
        let touched = q(&[(0, 1)]);
        let untouched = q(&[(0, 0)]);
        let cross = q(&[(1, 1)]); // same value id, different attribute
        for query in [&root, &touched, &untouched, &cross] {
            memo.insert(QueryMemo::hash_of(query), query, CachedEval::new(false, vec![]), 1);
        }
        assert_eq!(memo.len(), 4);

        // Mutated tuple at slot 9 with row (A0=u1, A1=u0).
        let mut footprint = fp(9, &[1, 0]);
        memo.invalidate(&mut footprint, 2);
        assert!(memo.get_mut(QueryMemo::hash_of(&root), &root, 2).is_none(), "root dropped");
        assert!(memo.get_mut(QueryMemo::hash_of(&touched), &touched, 2).is_none());
        assert!(memo.get_mut(QueryMemo::hash_of(&untouched), &untouched, 2).is_some());
        assert!(memo.get_mut(QueryMemo::hash_of(&cross), &cross, 2).is_some());
        assert_eq!(memo.len(), 2);
        assert_eq!(memo.stats().invalidated, 2);
    }

    #[test]
    fn invalidation_drops_entries_whose_page_contains_a_touched_slot() {
        let mut memo = QueryMemo::default();
        // An entry whose predicates do NOT intersect the footprint but
        // whose cached page references the touched slot — the belt-and-
        // braces page check must still drop it. (Unreachable for honest
        // footprints; simulated to pin the safety net.)
        let query = q(&[(0, 0)]);
        let h = QueryMemo::hash_of(&query);
        memo.insert(h, &query, CachedEval::new(false, vec![5]), 1);
        let mut footprint = fp(5, &[7]); // posting (A0,u7) doesn't intersect
        memo.invalidate(&mut footprint, 2);
        // Not a by_posting candidate, so it survives the posting pass…
        // …but the root bucket is always swept; this entry is not in it.
        // The page check only fires for candidates, so the entry survives:
        // its predicates don't intersect, which (for honest footprints)
        // proves its page holds no touched slot. Assert the documented
        // behaviour.
        assert!(memo.get_mut(h, &query, 2).is_some());

        // Now make it a candidate (footprint touches its posting) with a
        // page overlap and watch the page check agree with the predicate
        // check.
        let mut footprint = fp(5, &[0]);
        memo.invalidate(&mut footprint, 3);
        assert!(memo.get_mut(h, &query, 3).is_none());
    }

    #[test]
    fn survivors_are_restamped_when_checked() {
        let mut memo = QueryMemo::default();
        let a = q(&[(0, 0)]);
        let b = q(&[(0, 1)]);
        let ha = QueryMemo::hash_of(&a);
        let hb = QueryMemo::hash_of(&b);
        memo.insert(ha, &a, CachedEval::new(false, vec![]), 1);
        memo.insert(hb, &b, CachedEval::new(false, vec![]), 1);
        // Touch (A0,u1): b drops, a is untouched (not even a candidate).
        memo.invalidate(&mut fp(0, &[1]), 2);
        assert!(memo.get_mut(ha, &a, 2).is_some());
        assert!(memo.get_mut(hb, &b, 2).is_none());
    }

    #[test]
    fn clock_eviction_bounds_len_and_prefers_unreferenced() {
        let mut memo = QueryMemo::default();
        memo.set_capacity(3);
        let queries: Vec<ConjunctiveQuery> = (0..5u32).map(|v| q(&[(0, v)])).collect();
        for query in queries.iter().take(3) {
            memo.insert(QueryMemo::hash_of(query), query, CachedEval::new(false, vec![]), 0);
        }
        // Touch q0 so it is referenced; q1 is the first unreferenced.
        assert!(memo.get_mut(QueryMemo::hash_of(&queries[0]), &queries[0], 0).is_some());
        memo.insert(
            QueryMemo::hash_of(&queries[3]),
            &queries[3],
            CachedEval::new(false, vec![]),
            0,
        );
        assert_eq!(memo.len(), 3, "capacity enforced");
        assert!(
            memo.get_mut(QueryMemo::hash_of(&queries[0]), &queries[0], 0).is_some(),
            "referenced entry got its second chance"
        );
        assert!(
            memo.get_mut(QueryMemo::hash_of(&queries[1]), &queries[1], 0).is_none(),
            "first unreferenced entry evicted"
        );
        assert!(memo.stats().evicted >= 1);

        // A long distinct stream stays bounded.
        for v in 10..200u32 {
            let query = q(&[(1, v)]);
            memo.insert(QueryMemo::hash_of(&query), &query, CachedEval::new(false, vec![]), 0);
            assert!(memo.len() <= 3);
        }
    }

    #[test]
    fn set_capacity_evicts_down() {
        let mut memo = QueryMemo::default();
        for v in 0..10u32 {
            let query = q(&[(0, v)]);
            memo.insert(QueryMemo::hash_of(&query), &query, CachedEval::new(false, vec![]), 0);
        }
        assert_eq!(memo.len(), 10);
        memo.set_capacity(4);
        assert_eq!(memo.len(), 4);
        assert_eq!(memo.capacity(), 4);
    }

    #[test]
    fn zero_capacity_disables_admission() {
        let mut memo = QueryMemo::default();
        memo.set_capacity(0);
        let query = q(&[(0, 0)]);
        memo.insert(QueryMemo::hash_of(&query), &query, CachedEval::new(false, vec![]), 0);
        assert_eq!(memo.len(), 0);
        assert!(memo.get_mut(QueryMemo::hash_of(&query), &query, 0).is_none());
    }

    #[test]
    fn clock_ring_stays_bounded_under_invalidate_readmit_churn() {
        // Below capacity `evict_one` never runs, so without compaction
        // every invalidate/re-admit cycle would leak one stale ring slot
        // forever (the steady-state estimator workload).
        let mut memo = QueryMemo::default();
        let query = q(&[(0, 0)]);
        let h = QueryMemo::hash_of(&query);
        for round in 0..5_000u64 {
            memo.insert(h, &query, CachedEval::new(false, vec![]), round);
            memo.invalidate(&mut fp(0, &[0]), round + 1);
            assert!(memo.get_mut(h, &query, round + 1).is_none());
        }
        assert!(
            memo.clock.len() <= 2 * memo.buckets.len() + 64,
            "clock ring leaked: {} slots for {} buckets",
            memo.clock.len(),
            memo.buckets.len()
        );
    }

    /// Builds a one-attribute store with the given `(key, value, score)`
    /// rows, returning the slot of each.
    fn store_with(rows: &[(u64, u32, u64)]) -> (crate::store::Store, Vec<Slot>) {
        use crate::tuple::Tuple;
        use crate::value::TupleKey;
        let mut store = crate::store::Store::new(1, 0);
        let slots = rows
            .iter()
            .map(|&(key, v, score)| {
                store.insert(Tuple::new(TupleKey(key), vec![ValueId(v)], vec![]), score).unwrap()
            })
            .collect();
        (store, slots)
    }

    /// An overflow entry for `query` over `slots` with explicit
    /// revalidation anchors.
    fn overflow_eval(slots: Vec<Slot>, matched: usize, floor: u64) -> CachedEval {
        let mut eval = CachedEval::new(true, slots);
        eval.matched = matched;
        eval.floor = floor;
        eval
    }

    #[test]
    fn overflow_entry_demotes_then_resurrects_when_churn_stays_below_the_floor() {
        // Page: scores 100, 90 (floor 90); churn lands on a matching
        // tuple scoring 10 — provably unable to enter the page.
        let (store, slots) = store_with(&[(1, 0, 100), (2, 0, 90), (3, 0, 10)]);
        let mut memo = QueryMemo::default();
        let query = q(&[(0, 0)]);
        let h = QueryMemo::hash_of(&query);
        memo.insert(h, &query, overflow_eval(vec![slots[0], slots[1]], 5, 90), 1);

        memo.invalidate(&mut fp(slots[2], &[0]), 2);
        assert_eq!(memo.stale_len(), 1, "demoted, not dropped");
        assert_eq!(memo.len(), 1);
        assert_eq!(memo.stats().demoted, 1);
        assert_eq!(memo.stats().invalidated, 0);
        assert!(memo.get_mut(h, &query, 2).is_none(), "stale entries are never served raw");

        let eval = memo.get_or_revalidate(h, &query, 2, &store).expect("resurrected");
        assert_eq!(eval.slots, vec![slots[0], slots[1]], "same page, same order");
        assert_eq!(memo.stale_len(), 0);
        assert_eq!(memo.stats().resurrected, 1);
        // Fully rehabilitated: raw lookups serve it again.
        assert!(memo.get_mut(h, &query, 2).is_some());
    }

    #[test]
    fn revalidation_fails_when_a_churned_tuple_reaches_the_floor() {
        // Churned occupant scores 95 >= floor 90: it may displace a page
        // slot, so the lookup must fall through to a re-scan.
        let (store, slots) = store_with(&[(1, 0, 100), (2, 0, 90), (3, 0, 95)]);
        let mut memo = QueryMemo::default();
        let query = q(&[(0, 0)]);
        let h = QueryMemo::hash_of(&query);
        memo.insert(h, &query, overflow_eval(vec![slots[0], slots[1]], 5, 90), 1);
        memo.invalidate(&mut fp(slots[2], &[0]), 2);
        assert_eq!(memo.stale_len(), 1);
        assert!(memo.get_or_revalidate(h, &query, 2, &store).is_none(), "refuted at lookup");
        assert_eq!(memo.len(), 0, "refuted entries drop");
        assert_eq!(memo.stats().revalidation_failed, 1);
    }

    #[test]
    fn revalidation_fails_when_the_classification_margin_collapses() {
        // matched 3 with a 2-slot page: one churned row could shrink the
        // match count to k — the overflow classification is no longer
        // provable, even though the churned tuple itself is gone.
        let (mut store, slots) = store_with(&[(1, 0, 100), (2, 0, 90), (3, 0, 10)]);
        let mut memo = QueryMemo::default();
        let query = q(&[(0, 0)]);
        let h = QueryMemo::hash_of(&query);
        memo.insert(h, &query, overflow_eval(vec![slots[0], slots[1]], 3, 90), 1);
        store.delete(crate::value::TupleKey(3)).unwrap();
        memo.invalidate(&mut fp(slots[2], &[0]), 2);
        assert!(memo.get_or_revalidate(h, &query, 2, &store).is_none());
        assert_eq!(memo.stats().revalidation_failed, 1);
    }

    #[test]
    fn page_hits_and_non_overflow_entries_still_drop_hard() {
        let (store, slots) = store_with(&[(1, 0, 100), (2, 0, 90), (3, 0, 10)]);
        let mut memo = QueryMemo::default();
        let query = q(&[(0, 0)]);
        let h = QueryMemo::hash_of(&query);
        // A footprint touching a page slot must drop the entry outright —
        // this is what upholds the page-integrity invariant.
        memo.insert(h, &query, overflow_eval(vec![slots[0], slots[1]], 5, 90), 1);
        memo.invalidate(&mut fp(slots[0], &[0]), 2);
        assert_eq!(memo.len(), 0);
        assert_eq!(memo.stale_len(), 0);
        assert_eq!(memo.stats().demoted, 0);
        assert_eq!(memo.stats().invalidated, 1);
        // Valid (non-overflow) entries are never demoted.
        memo.insert(h, &query, CachedEval::new(false, vec![slots[0]]), 2);
        memo.invalidate(&mut fp(slots[2], &[0]), 3);
        assert_eq!(memo.len(), 0);
        assert_eq!(memo.stats().demoted, 0);
        let _ = store;
    }

    #[test]
    fn churn_accumulates_across_rounds_until_lookup() {
        // Two demoting rounds before the lookup: both churned tuples must
        // be checked, and the margin must count both rows.
        let (store, slots) =
            store_with(&[(1, 0, 100), (2, 0, 90), (3, 0, 10), (4, 0, 20), (5, 0, 30)]);
        let mut memo = QueryMemo::default();
        let query = q(&[(0, 0)]);
        let h = QueryMemo::hash_of(&query);
        memo.insert(h, &query, overflow_eval(vec![slots[0], slots[1]], 9, 90), 1);
        memo.invalidate(&mut fp(slots[2], &[0]), 2);
        memo.invalidate(&mut fp(slots[3], &[0]), 3);
        memo.invalidate(&mut fp(slots[4], &[0]), 4);
        assert_eq!(memo.stale_len(), 1);
        assert_eq!(memo.stats().demoted, 1, "one transition, three accumulations");
        assert!(memo.get_or_revalidate(h, &query, 4, &store).is_some(), "all churn below floor");
        assert_eq!(memo.stats().resurrected, 1);
    }

    /// Regression (code-review finding): resurrection must not reset the
    /// churn margin without also lowering `matched` to the proven lower
    /// bound — otherwise repeated demote/resurrect cycles of below-floor
    /// deletes "forget" earlier churn and keep serving Overflow after
    /// the true match count has fallen to `k`.
    #[test]
    fn margin_is_not_double_spent_across_demote_resurrect_cycles() {
        // k=2; matches: 100, 90 (the page), 10, 20. Two below-floor
        // deletes across two cycles leave exactly k matches — Valid.
        let (mut store, slots) = store_with(&[(1, 0, 100), (2, 0, 90), (3, 0, 10), (4, 0, 20)]);
        let mut memo = QueryMemo::default();
        let query = q(&[(0, 0)]);
        let h = QueryMemo::hash_of(&query);
        memo.insert(h, &query, overflow_eval(vec![slots[0], slots[1]], 4, 90), 1);
        // Cycle 1: delete the score-10 match; margin 4-1 > 2 holds.
        store.delete(crate::value::TupleKey(3)).unwrap();
        memo.invalidate(&mut fp(slots[2], &[0]), 2);
        let eval = memo.get_or_revalidate(h, &query, 2, &store).expect("cycle 1 resurrects");
        assert_eq!(eval.matched, 3, "resurrection must keep only the proven lower bound");
        // Cycle 2: delete the score-20 match; only k matches remain, so
        // the entry must be refuted — Overflow is no longer provable.
        store.delete(crate::value::TupleKey(4)).unwrap();
        memo.invalidate(&mut fp(slots[3], &[0]), 3);
        assert!(
            memo.get_or_revalidate(h, &query, 3, &store).is_none(),
            "margin must account for churn consumed by the earlier resurrection"
        );
        assert_eq!(memo.stats().revalidation_failed, 1);
    }

    #[test]
    fn disabling_revalidation_restores_drop_on_invalidate() {
        let (store, slots) = store_with(&[(1, 0, 100), (2, 0, 90), (3, 0, 10)]);
        let mut memo = QueryMemo::default();
        memo.set_revalidate(false);
        assert!(!memo.revalidate_enabled());
        let query = q(&[(0, 0)]);
        let h = QueryMemo::hash_of(&query);
        memo.insert(h, &query, overflow_eval(vec![slots[0], slots[1]], 5, 90), 1);
        memo.invalidate(&mut fp(slots[2], &[0]), 2);
        assert_eq!(memo.len(), 0, "PR 2 semantics: affected entries drop");
        assert_eq!(memo.stats().demoted, 0);
        let _ = store;
    }

    #[test]
    fn demotion_unlinks_from_the_posting_index_and_resurrection_relinks() {
        // The PR 6 throughput fix: a parked stale entry must not appear
        // in `by_posting`, so pure-mutation passes never walk it.
        let (store, slots) = store_with(&[(1, 0, 100), (2, 0, 90), (3, 0, 10)]);
        let mut memo = QueryMemo::default();
        let query = q(&[(0, 0)]);
        let h = QueryMemo::hash_of(&query);
        let key = pack_posting(AttrId(0), ValueId(0));
        memo.insert(h, &query, overflow_eval(vec![slots[0], slots[1]], 5, 90), 1);
        assert!(memo.by_posting.get(&key).is_some_and(|v| v.contains(&h)));
        memo.invalidate(&mut fp(slots[2], &[0]), 2);
        assert_eq!(memo.stale_len(), 1);
        assert!(
            memo.by_posting.get(&key).is_none_or(|v| !v.contains(&h)),
            "stale entries must leave the posting index"
        );
        assert!(memo.get_or_revalidate(h, &query, 2, &store).is_some(), "resurrects");
        assert!(
            memo.by_posting.get(&key).is_some_and(|v| v.contains(&h)),
            "resurrection must re-enter the posting index"
        );
        // And invalidation reaches it again afterwards: a page hit drops.
        memo.invalidate(&mut fp(slots[0], &[0]), 3);
        assert_eq!(memo.len(), 0);
    }

    #[test]
    fn journal_replay_charges_churn_missed_while_unlinked() {
        // matched 9, page of 2: three below-floor single-row mutations
        // after demotion leave margin 9-3 > 2 — resurrect with the full
        // charge folded in from the journal (the entry was unlinked for
        // mutations 2 and 3).
        let (store, slots) =
            store_with(&[(1, 0, 100), (2, 0, 90), (3, 0, 10), (4, 0, 20), (5, 0, 30)]);
        let mut memo = QueryMemo::default();
        let query = q(&[(0, 0)]);
        let h = QueryMemo::hash_of(&query);
        memo.insert(h, &query, overflow_eval(vec![slots[0], slots[1]], 9, 90), 1);
        memo.invalidate(&mut fp(slots[2], &[0]), 2);
        memo.invalidate(&mut fp(slots[3], &[0]), 3);
        memo.invalidate(&mut fp(slots[4], &[0]), 4);
        let eval = memo.get_or_revalidate(h, &query, 4, &store).expect("margin holds");
        assert_eq!(
            eval.matched, 6,
            "all three churned rows must be charged, not just the demoting one"
        );
    }

    #[test]
    fn journalled_page_hit_drops_the_stale_entry_at_lookup() {
        // After demotion the entry is unlinked, so a later mutation that
        // touches one of its page slots cannot hard-drop it at mutation
        // time — the journal replay must deliver that verdict at lookup.
        let (store, slots) = store_with(&[(1, 0, 100), (2, 0, 90), (3, 0, 10)]);
        let mut memo = QueryMemo::default();
        let query = q(&[(0, 0)]);
        let h = QueryMemo::hash_of(&query);
        memo.insert(h, &query, overflow_eval(vec![slots[0], slots[1]], 9, 90), 1);
        memo.invalidate(&mut fp(slots[2], &[0]), 2);
        assert_eq!(memo.stale_len(), 1);
        memo.invalidate(&mut fp(slots[0], &[0]), 3);
        assert_eq!(memo.stale_len(), 1, "page hit is deferred, not applied at mutation time");
        assert!(memo.get_or_revalidate(h, &query, 3, &store).is_none(), "refuted at lookup");
        assert_eq!(memo.len(), 0);
        assert_eq!(memo.stats().revalidation_failed, 1);
    }

    #[test]
    fn journal_eviction_forfeits_resurrection() {
        // Blow past the journal's entry cap with mutations that cannot
        // have affected the parked entry: coverage of its demotion
        // version is lost, so the lookup must refuse to resurrect.
        let (store, slots) = store_with(&[(1, 0, 100), (2, 0, 90), (3, 0, 10)]);
        let mut memo = QueryMemo::default();
        let query = q(&[(0, 0)]);
        let h = QueryMemo::hash_of(&query);
        memo.insert(h, &query, overflow_eval(vec![slots[0], slots[1]], 1000, 90), 1);
        memo.invalidate(&mut fp(slots[2], &[0]), 2);
        for i in 0..(JOURNAL_ENTRIES_MAX as u64 + 8) {
            // Distinct value, untouched pages: irrelevant to the entry.
            memo.invalidate(&mut fp(1_000 + i as u32, &[7]), 3 + i);
        }
        assert!(
            memo.get_or_revalidate(h, &query, JOURNAL_ENTRIES_MAX as u64 + 16, &store).is_none(),
            "evicted journal coverage must fail closed"
        );
        assert_eq!(memo.stats().revalidation_failed, 1);
    }

    #[test]
    fn revalidation_toggle_poisons_journal_coverage() {
        // Mutations during an off window are not journalled; an entry
        // demoted before the window must not resurrect with that gap
        // unaccounted, even if every mutation stayed below the floor.
        let (store, slots) = store_with(&[(1, 0, 100), (2, 0, 90), (3, 0, 10), (4, 0, 20)]);
        let mut memo = QueryMemo::default();
        let query = q(&[(0, 0)]);
        let h = QueryMemo::hash_of(&query);
        memo.insert(h, &query, overflow_eval(vec![slots[0], slots[1]], 9, 90), 1);
        memo.invalidate(&mut fp(slots[2], &[0]), 2);
        assert_eq!(memo.stale_len(), 1);
        memo.set_revalidate(false);
        memo.invalidate(&mut fp(slots[3], &[0]), 3);
        memo.set_revalidate(true);
        assert!(
            memo.get_or_revalidate(h, &query, 3, &store).is_none(),
            "the off-window mutation left an unjournalled gap"
        );
    }

    #[test]
    fn touched_tracking_spills_from_slots_to_segments_to_unbounded() {
        let mut touched = TouchedSet::Empty;
        let mut footprint = UpdateFootprint::default();
        // Few slots: exact tracking.
        for slot in 0..4u32 {
            footprint.record(slot, &[ValueId(0)]);
        }
        footprint.seal();
        touched.absorb(&footprint);
        assert!(matches!(&touched, TouchedSet::Slots(v) if v.len() == 4));
        // One footprint past the raw slot cap within one segment: the
        // overflow triggers compaction, which spills to segments.
        let mut footprint = UpdateFootprint::default();
        for slot in 0..(RAW_SLOTS_MAX as u32 + 8) {
            footprint.record(slot, &[ValueId(0)]);
        }
        footprint.seal();
        touched.absorb(&footprint);
        touched.compact();
        assert!(matches!(&touched, TouchedSet::Segments(v) if v.len() == 1));
        // Blow past the raw segment cap: unbounded.
        let mut footprint = UpdateFootprint::default();
        for seg in 0..(RAW_SEGS_MAX as u32 + 8) {
            footprint.record(seg * crate::store::SEGMENT_SLOTS as u32, &[ValueId(0)]);
        }
        footprint.seal();
        touched.absorb(&footprint);
        assert!(matches!(touched, TouchedSet::Unbounded));
        // Unbounded absorbs anything and stays unbounded.
        touched.absorb(&footprint);
        assert!(matches!(touched, TouchedSet::Unbounded));
    }

    #[test]
    fn touched_tracking_amortises_absorbs_and_stays_bounded() {
        // The PR 6 throughput fix: repeated small absorptions must not
        // sort/dedup each time, yet the raw buffer must stay bounded and
        // the unique-slot classification must survive compaction.
        let mut touched = TouchedSet::Empty;
        let mut footprint = UpdateFootprint::default();
        for slot in 0..4u32 {
            footprint.record(slot, &[ValueId(0)]);
        }
        footprint.seal();
        for _ in 0..10_000 {
            touched.absorb(&footprint);
            match &touched {
                TouchedSet::Slots(v) => {
                    assert!(v.len() <= RAW_SLOTS_MAX + 4, "raw buffer leaked: {}", v.len())
                }
                other => panic!("4 unique slots must stay at the Slots level, got {other:?}"),
            }
        }
        touched.compact();
        assert!(matches!(&touched, TouchedSet::Slots(v) if v.len() == 4));
    }

    #[test]
    fn eviction_unlinks_postings_so_reinsert_works() {
        let mut memo = QueryMemo::default();
        memo.set_capacity(1);
        let a = q(&[(0, 0)]);
        let b = q(&[(0, 1)]);
        memo.insert(QueryMemo::hash_of(&a), &a, CachedEval::new(false, vec![]), 0);
        memo.insert(QueryMemo::hash_of(&b), &b, CachedEval::new(false, vec![]), 0);
        assert_eq!(memo.len(), 1);
        // Re-admit `a`, then invalidate its posting: exactly one entry
        // must drop (no double-unlink damage from the earlier eviction).
        memo.insert(QueryMemo::hash_of(&a), &a, CachedEval::new(false, vec![]), 1);
        memo.invalidate(&mut fp(0, &[0]), 2);
        assert!(memo.get_mut(QueryMemo::hash_of(&a), &a, 2).is_none());
    }
}
