//! Columnar slot-based tuple storage, organised in fixed-size segments.
//!
//! Tuples live in *slots*; deleting a tuple frees its slot for reuse by a
//! later insert. All hot query-evaluation paths index columns directly by
//! slot, so matching a predicate against a candidate tuple is two array
//! loads. External identity is the [`TupleKey`], which is never reused.
//!
//! ## Segments
//!
//! Slots are grouped into fixed-size segments of [`SEGMENT_SLOTS`]
//! consecutive slots. Each segment's column data lives in its own
//! [`Arc`]-held block ([`SegmentData`]). The `Arc` is what lets the
//! persistence tier's read cache hand out a faulted segment without
//! copying it, and lets every evicted segment point at one shared empty
//! tombstone. Mutation goes through [`Arc::make_mut`], so a store clone
//! shares untouched segments and the writer pays one segment copy the
//! first time it touches a shared one.
//!
//! Each segment carries two summaries maintained on every mutation:
//!
//! * an **alive count** — lets scans (and the parallel ground-truth
//!   fan-out) skip fully dead segments without touching the bitmap;
//! * a **max-score upper bound** — never underestimates the best hidden
//!   ranking score of any alive occupant, which is what lets the
//!   evaluation engine stop a top-`k` scan early once the heap floor
//!   provably beats every remaining segment (see
//!   [`crate::interface::TopK::can_stop`]). Deletes do not lower the
//!   bound (that would cost a segment sweep); it resets to the true
//!   maximum whenever a segment empties, and is exact for append-mostly
//!   workloads like `NewestFirst` timelines.
//!
//! ## Maintenance
//!
//! Each segment additionally tracks how far its bound may have drifted
//! from exact: a **bound-staleness counter** counts the deletes and
//! score-drops since the bound was last known exact, and the **dead-slot
//! count** is derivable from the alive count. The maintenance pass
//! ([`crate::database::HiddenDatabase::maintain`]) consumes these to pick
//! the stalest segments and [`Store::recompute_segment_bound`] rewrites
//! each bound to the true maximum over alive occupants — re-arming
//! early exits under delete-heavy / measure-drop churn, where the lazy
//! bound otherwise only ever grows. Maintenance never moves a tuple and
//! never touches the free list, so slot identity is bit-for-bit
//! unaffected.
//!
//! ## Slot layout
//!
//! Answers, ground truth and sampling do not depend on which slot holds
//! a tuple: pages rank by `(score, key)`, ground-truth sums add in key
//! order, and deletion victims are sampled over keys. Only
//! `HiddenDatabase::for_each_alive` follows the layout (it visits in slot
//! order), and callers that draw from it sort by key first. The layout
//! is therefore free to serve evaluation speed. `Store::bulk_load` (behind
//! `HiddenDatabase::from_tuples`) places the initial pool in score order
//! — `(score desc, key asc)` — so segment and block score bounds fall as
//! slots rise and a best-bound-first top-`k` scan stops after the first
//! few blocks. Later inserts take a freed slot (most recently freed
//! first) or the next fresh one, whatever their score.

use std::collections::HashMap;
use std::ops::Deref;
use std::sync::Arc;

use crate::errors::DbError;
use crate::persist::Pager;
use crate::tuple::{Tuple, TupleView};
use crate::value::{TupleKey, ValueId};

/// Slot index within the store. Internal; never exposed through the
/// search interface.
pub type Slot = u32;

/// Slots per store segment.
pub const SEGMENT_SLOTS: usize = 4096;

// `segment_of` shifts, `segment_range` multiplies, and the evaluation
// engine's bitsets are `SEGMENT_SLOTS / 64` whole words — all three only
// agree for power-of-two, word-divisible sizes, so retuning to anything
// else must fail at compile time.
const _: () = assert!(SEGMENT_SLOTS.is_power_of_two() && SEGMENT_SLOTS.is_multiple_of(64));

/// `log2(SEGMENT_SLOTS)` — segment of a slot is `slot >> SEGMENT_SHIFT`.
pub const SEGMENT_SHIFT: u32 = SEGMENT_SLOTS.trailing_zeros();

/// `slot & SEGMENT_MASK` is the slot's offset within its segment.
pub const SEGMENT_MASK: usize = SEGMENT_SLOTS - 1;

/// Slots per block-max block: the sub-segment granularity of the score
/// bounds driving the k-way block-max intersection. 256 slots is 1/16th
/// of a segment — fine enough that one hot tuple no longer pins a whole
/// 4096-slot segment's worth of candidates into a scan, coarse enough
/// that the per-list block directories stay small (a full segment run
/// costs 16 entries) and a block's bitset is 4 words.
pub const BLOCK_SLOTS: usize = 256;

// The block-max engine word-ANDs whole blocks (`BLOCK_SLOTS / 64` words)
// and derives a slot's block by shifting, so blocks must be power-of-two,
// word-divisible, and must tile segments exactly.
const _: () = assert!(
    BLOCK_SLOTS.is_power_of_two()
        && BLOCK_SLOTS.is_multiple_of(64)
        && SEGMENT_SLOTS.is_multiple_of(BLOCK_SLOTS)
);

/// Blocks per segment (`SEGMENT_SLOTS / BLOCK_SLOTS`).
pub const BLOCKS_PER_SEGMENT: usize = SEGMENT_SLOTS / BLOCK_SLOTS;

/// `log2(BLOCK_SLOTS)` — global block of a slot is `slot >> BLOCK_SHIFT`.
pub const BLOCK_SHIFT: u32 = BLOCK_SLOTS.trailing_zeros();

/// The segment a slot belongs to.
#[inline]
pub fn segment_of(slot: Slot) -> usize {
    (slot >> SEGMENT_SHIFT) as usize
}

/// The global block a slot belongs to (block `b` covers slots
/// `b * BLOCK_SLOTS .. (b+1) * BLOCK_SLOTS`; segment `s` owns blocks
/// `s * BLOCKS_PER_SEGMENT .. (s+1) * BLOCKS_PER_SEGMENT`).
#[inline]
pub fn block_of(slot: Slot) -> usize {
    (slot >> BLOCK_SHIFT) as usize
}

/// `(segment, offset within segment)` of a slot.
#[inline]
fn locate(slot: Slot) -> (usize, usize) {
    (segment_of(slot), slot as usize & SEGMENT_MASK)
}

/// Per-segment summary maintained incrementally by the store.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SegmentMeta {
    /// Alive tuples in the segment.
    pub(crate) alive: u32,
    /// Upper bound on the hidden score of any alive occupant. May
    /// overestimate after deletes/score-drops; never underestimates.
    pub(crate) max_score: u64,
    /// Mutations since `max_score` was last known exact (deletes and
    /// in-place score drops — the two operations that can leave the
    /// bound standing above the true maximum). `0` means exact.
    pub(crate) stale_ops: u32,
    /// Per-block score upper bounds (block `b` covers local slots
    /// `b * BLOCK_SLOTS .. (b+1) * BLOCK_SLOTS`). Same soundness
    /// contract as `max_score` — never understates — but looseness is
    /// tracked only at segment granularity: `stale_ops == 0` promises
    /// an exact *segment* bound (a score raise snaps it back without a
    /// sweep), while block bounds are guaranteed exact only right after
    /// [`Store::recompute_segment_bound`] rebuilds them.
    pub(crate) block_max: [u64; BLOCKS_PER_SEGMENT],
    /// CLOCK reference bit for the persistence tier's writer-side
    /// eviction sweep: set on every writer touch, cleared as the hand
    /// passes. Meaningless (and harmlessly carried) without a pager.
    pub(crate) ref_bit: bool,
}

/// One segment's column data: up to [`SEGMENT_SLOTS`] rows, grown lazily
/// as slots are allocated. Held in an [`Arc`] (shared with the pager's
/// read cache, and with store clones until either side writes); mutated
/// only through [`Arc::make_mut`].
///
/// With the persistence tier attached, a segment may instead be
/// **evicted**: its slot in `StoreCore::segs` holds the pager's shared
/// empty tombstone (`evicted == true`) and the real rows live in the
/// region file until a read faults them back or the writer reclaims
/// them for mutation.
#[derive(Debug, Clone)]
pub(crate) struct SegmentData {
    /// `columns[a][off]` = value code of attribute `a` for local slot `off`.
    pub(crate) columns: Vec<Vec<u32>>,
    /// `measures[m][off]` = measure value.
    pub(crate) measures: Vec<Vec<f64>>,
    /// `keys[off]` = external key of the occupant (stale if dead).
    pub(crate) keys: Vec<u64>,
    /// `scores[off]` = hidden ranking score of the occupant.
    pub(crate) scores: Vec<u64>,
    /// Liveness per local slot.
    pub(crate) alive: Vec<bool>,
    /// Whether this is an eviction tombstone (rows on disk, not here).
    /// Always `false` for real data; the pager's shared tombstone is the
    /// only instance with `true`.
    pub(crate) evicted: bool,
}

impl SegmentData {
    pub(crate) fn empty(attr_count: usize, measure_count: usize) -> Self {
        Self {
            columns: vec![Vec::new(); attr_count],
            measures: vec![Vec::new(); measure_count],
            keys: Vec::new(),
            scores: Vec::new(),
            alive: Vec::new(),
            evicted: false,
        }
    }

    /// `len` alive rows of zeroed data, for a bulk load to fill in place.
    fn zeroed(attr_count: usize, measure_count: usize, len: usize) -> Self {
        Self {
            columns: vec![vec![0; len]; attr_count],
            measures: vec![vec![0.0; len]; measure_count],
            keys: vec![0; len],
            scores: vec![0; len],
            alive: vec![true; len],
            evicted: false,
        }
    }

    /// The shared placeholder installed in place of evicted segments.
    pub(crate) fn tombstone() -> Self {
        Self { evicted: true, ..Self::empty(0, 0) }
    }

    /// Appends a row at the next local offset (caller tracks allocation).
    pub(crate) fn push_row(&mut self, values: &[ValueId], measures: &[f64], key: u64, score: u64) {
        for (a, col) in self.columns.iter_mut().enumerate() {
            col.push(values[a].0);
        }
        for (m, col) in self.measures.iter_mut().enumerate() {
            col.push(measures[m]);
        }
        self.keys.push(key);
        self.scores.push(score);
        self.alive.push(true);
    }

    /// Overwrites the row at local offset `off` (slot reuse).
    pub(crate) fn write_row(
        &mut self,
        off: usize,
        values: &[ValueId],
        measures: &[f64],
        key: u64,
        score: u64,
    ) {
        for (a, col) in self.columns.iter_mut().enumerate() {
            col[off] = values[a].0;
        }
        for (m, col) in self.measures.iter_mut().enumerate() {
            col[off] = measures[m];
        }
        self.keys[off] = key;
        self.scores[off] = score;
        self.alive[off] = true;
    }
}

/// A borrowed-or-faulted view of one segment's data: the uniform read
/// path over resident and evicted segments. Resident segments come back
/// as a plain borrow (`Ram`, the all-RAM fast path — one predicted
/// branch over the previous direct indexing); evicted segments fault
/// through the pager's bounded read cache (`Hot`). `Deref` makes the
/// two cases indistinguishable to accessors.
#[derive(Debug)]
pub(crate) enum SegView<'a> {
    /// Segment is resident in the store.
    Ram(&'a SegmentData),
    /// Segment was faulted in from the persistence tier.
    Hot(Arc<SegmentData>),
}

impl Deref for SegView<'_> {
    type Target = SegmentData;

    #[inline]
    fn deref(&self) -> &SegmentData {
        match self {
            SegView::Ram(d) => d,
            SegView::Hot(a) => a,
        }
    }
}

/// The read side of the store: `Arc`-held segment data blocks plus the
/// per-segment summaries. Everything query evaluation, ground truth, and
/// the memo need lives here. [`Store`] derefs to this, so owner-side code
/// reads through the same API, and the evaluation engine can borrow it
/// while the writer-only state stays untouched.
///
/// Cloning a core that has a persistence tier attached **materialises**
/// it: evicted segments are read back from disk and the clone is fully
/// resident with no pager. A clone must never share a pager with its
/// source — both would then write back and evict the same region file —
/// so a cloned out-of-core database holds its whole pool in RAM.
#[derive(Debug)]
pub struct StoreCore {
    attr_count: usize,
    measure_count: usize,
    /// Segment data blocks; segment `s` covers slots
    /// `s * SEGMENT_SLOTS .. (s+1) * SEGMENT_SLOTS`. With a pager
    /// attached, entries may be the shared eviction tombstone.
    segs: Vec<Arc<SegmentData>>,
    /// Per-segment alive counts and score upper bounds, in lockstep with
    /// `segs`.
    meta: Vec<SegmentMeta>,
    /// Total slots allocated (alive + dead). Slots are allocated in
    /// ascending order, so only the last segment is partially grown.
    allocated: usize,
    alive_count: usize,
    /// The persistence tier, when attached (writer side only; clones
    /// materialise and drop it).
    pager: Option<Arc<Pager>>,
    /// Segments currently resident (`!evicted`). Equals `segs.len()`
    /// without a pager.
    resident: usize,
}

impl Clone for StoreCore {
    fn clone(&self) -> Self {
        let segs = match &self.pager {
            // No tier: the original cheap path — reference-count bumps.
            None => self.segs.clone(),
            Some(pager) => self
                .segs
                .iter()
                .enumerate()
                .map(
                    |(s, data)| {
                        if data.evicted {
                            pager.read_detached(s)
                        } else {
                            Arc::clone(data)
                        }
                    },
                )
                .collect(),
        };
        Self {
            attr_count: self.attr_count,
            measure_count: self.measure_count,
            resident: segs.len(),
            segs,
            meta: self.meta.clone(),
            allocated: self.allocated,
            alive_count: self.alive_count,
            pager: None,
        }
    }
}

/// Columnar storage for tuples plus the per-tuple hidden ranking score.
///
/// Wraps the shared [`StoreCore`] with the writer-only state: the free
/// list and the key → slot map. Read accessors come through `Deref`.
#[derive(Debug, Clone)]
pub struct Store {
    core: StoreCore,
    /// Free slots available for reuse.
    free: Vec<Slot>,
    /// Alive key → slot.
    key_to_slot: HashMap<u64, Slot>,
    /// CLOCK hand of the writer-side eviction sweep (persistence tier
    /// only; idle without a pager).
    clock_hand: usize,
}

impl Deref for Store {
    type Target = StoreCore;

    #[inline]
    fn deref(&self) -> &StoreCore {
        &self.core
    }
}

impl StoreCore {
    /// Number of alive tuples (`|D|`).
    pub fn len(&self) -> usize {
        self.alive_count
    }

    /// Whether the store holds no alive tuples.
    pub fn is_empty(&self) -> bool {
        self.alive_count == 0
    }

    /// Total slots allocated (alive + dead); the exclusive upper bound of
    /// valid slot indices.
    pub fn slot_bound(&self) -> Slot {
        self.allocated as Slot
    }

    /// The uniform read path over one segment's data: a plain borrow for
    /// resident segments, a pager fault for evicted ones. Hot-path
    /// accessors and the evaluation engine route every data read through
    /// here so paging stays invisible above this line.
    #[inline]
    pub(crate) fn seg_view(&self, seg: usize) -> SegView<'_> {
        let data = &self.segs[seg];
        if !data.evicted {
            SegView::Ram(data)
        } else {
            let pager = self.pager.as_ref().expect("evicted segment without a pager");
            SegView::Hot(pager.fault(seg))
        }
    }

    /// The persistence tier, if one is attached.
    pub(crate) fn pager(&self) -> Option<&Arc<Pager>> {
        self.pager.as_ref()
    }

    /// Per-segment summaries, in lockstep with the segments.
    pub(crate) fn metas(&self) -> &[SegmentMeta] {
        &self.meta
    }

    /// Whether `slot` currently holds an alive tuple.
    #[inline]
    pub fn is_alive(&self, slot: Slot) -> bool {
        let (seg, off) = locate(slot);
        self.seg_view(seg).alive[off]
    }

    /// Value code of attribute `attr_idx` at `slot` (caller guarantees the
    /// slot is alive).
    #[inline]
    pub fn value_at(&self, attr_idx: usize, slot: Slot) -> u32 {
        let (seg, off) = locate(slot);
        self.seg_view(seg).columns[attr_idx][off]
    }

    /// Measure value at `slot`.
    #[inline]
    pub fn measure_at(&self, measure_idx: usize, slot: Slot) -> f64 {
        let (seg, off) = locate(slot);
        self.seg_view(seg).measures[measure_idx][off]
    }

    /// Hidden ranking score at `slot`.
    #[inline]
    pub fn score_at(&self, slot: Slot) -> u64 {
        let (seg, off) = locate(slot);
        self.seg_view(seg).scores[off]
    }

    /// External key at `slot`.
    #[inline]
    pub fn key_at(&self, slot: Slot) -> TupleKey {
        let (seg, off) = locate(slot);
        TupleKey(self.seg_view(seg).keys[off])
    }

    // ----- segment summaries ---------------------------------------------

    /// Number of segments allocated (covers every slot below
    /// [`StoreCore::slot_bound`]).
    pub fn segment_count(&self) -> usize {
        self.meta.len()
    }

    /// Alive tuples in segment `seg`.
    #[inline]
    pub fn segment_alive(&self, seg: usize) -> u32 {
        self.meta[seg].alive
    }

    /// Upper bound on the hidden score of any alive tuple in `seg`
    /// (never underestimates; exact until a delete or score-drop).
    #[inline]
    pub fn segment_max_score(&self, seg: usize) -> u64 {
        self.meta[seg].max_score
    }

    /// Upper bound on the hidden score of any alive tuple in global
    /// block `blk` (see [`block_of`]). Never underestimates, and never
    /// exceeds the owning segment's [`StoreCore::segment_max_score`]
    /// (every block-bound raise raises the segment bound with it, and
    /// the two operations that lower the segment bound — exact
    /// recompute and the empty-segment reset — rebuild the block bounds
    /// in the same step). Exact right after
    /// [`Store::recompute_segment_bound`]; possibly loose otherwise.
    #[inline]
    pub fn block_max_score(&self, blk: usize) -> u64 {
        self.meta[blk / BLOCKS_PER_SEGMENT].block_max[blk % BLOCKS_PER_SEGMENT]
    }

    /// Dead (allocated but not alive) slots in segment `seg` — the
    /// sparsity signal maintenance uses to prioritise posting-list
    /// compaction.
    #[inline]
    pub fn segment_dead(&self, seg: usize) -> u32 {
        let span = self.segment_range(seg);
        (span.end - span.start) - self.meta[seg].alive
    }

    /// Mutations since `seg`'s score bound was last known exact. `0`
    /// means [`StoreCore::segment_max_score`] equals the true maximum over
    /// alive occupants.
    #[inline]
    pub fn segment_bound_staleness(&self, seg: usize) -> u32 {
        self.meta[seg].stale_ops
    }

    /// Number of segments with a possibly-loose score bound
    /// (allocation-free; [`StoreCore::stale_segments`] builds the ordered
    /// work queue).
    pub fn stale_segment_count(&self) -> usize {
        self.meta.iter().filter(|m| m.stale_ops > 0).count()
    }

    /// The worst per-segment maintenance pressure across the store:
    /// `max(stale_ops + dead slots)` over all segments. The writer queue's
    /// automatic maintenance trigger compares this against its threshold.
    pub fn max_segment_pressure(&self) -> u32 {
        (0..self.meta.len())
            .map(|s| self.meta[s].stale_ops.saturating_add(self.segment_dead(s)))
            .max()
            .unwrap_or(0)
    }

    /// Segments with a possibly-loose score bound, most-stale first
    /// (segment id breaks ties) — the maintenance pass's work queue.
    pub fn stale_segments(&self) -> Vec<usize> {
        let mut segs: Vec<(u32, usize)> = self
            .meta
            .iter()
            .enumerate()
            .filter(|(_, m)| m.stale_ops > 0)
            .map(|(s, m)| (m.stale_ops, s))
            .collect();
        segs.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        segs.into_iter().map(|(_, s)| s).collect()
    }

    /// The slot range covered by segment `seg`, clamped to allocated
    /// slots.
    #[inline]
    pub fn segment_range(&self, seg: usize) -> std::ops::Range<Slot> {
        let start = (seg * SEGMENT_SLOTS) as Slot;
        let end = ((seg + 1) * SEGMENT_SLOTS).min(self.allocated) as Slot;
        start..end
    }

    /// Segment ids with at least one alive tuple, ascending.
    pub fn live_segments(&self) -> impl Iterator<Item = usize> + '_ {
        self.meta.iter().enumerate().filter(|(_, m)| m.alive > 0).map(|(s, _)| s)
    }

    /// For every segment (descending max-score order, segment id as the
    /// deterministic tie-break): `(segment, score upper bound)`. This is
    /// the visit order that lets early-exit scans stop as soon as the
    /// heap floor beats the bound of the *next* segment.
    pub fn segments_by_score_desc(&self) -> Vec<(usize, u64)> {
        let mut order: Vec<(usize, u64)> = self
            .meta
            .iter()
            .enumerate()
            .filter(|(_, m)| m.alive > 0)
            .map(|(s, m)| (s, m.max_score))
            .collect();
        order.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        order
    }

    /// `suffix_max[seg]` = the max-score upper bound over all segments
    /// `>= seg` — the early-exit bound for *slot-ascending* scans
    /// (galloping intersections emit candidates in slot order).
    pub fn segment_suffix_max(&self) -> Vec<u64> {
        let mut suffix = vec![0u64; self.meta.len()];
        let mut best = 0u64;
        for (s, meta) in self.meta.iter().enumerate().rev() {
            if meta.alive > 0 {
                best = best.max(meta.max_score);
            }
            suffix[s] = best;
        }
        suffix
    }

    /// Materialises a read-only view of the tuple at `slot`.
    pub fn view(&self, slot: Slot) -> TupleView {
        let (seg, off) = locate(slot);
        let data = self.seg_view(seg);
        let values: Box<[ValueId]> = data.columns.iter().map(|col| ValueId(col[off])).collect();
        let measures: Box<[f64]> = data.measures.iter().map(|col| col[off]).collect();
        TupleView::new(TupleKey(data.keys[off]), values, measures)
    }

    /// Materialises the views of `slots`, in the order given, but reads
    /// them in ascending slot order. A page ranked by score hops between
    /// segments on almost every slot, and on a paged store each hop past
    /// the read cache is a full segment fault; slot order visits each
    /// segment once, holding one segment view at a time.
    pub(crate) fn views_in_slot_order(&self, slots: &[Slot]) -> Arc<[TupleView]> {
        let mut order: Vec<usize> = (0..slots.len()).collect();
        order.sort_unstable_by_key(|&i| slots[i]);
        let mut views: Vec<Option<TupleView>> = (0..slots.len()).map(|_| None).collect();
        for i in order {
            views[i] = Some(self.view(slots[i]));
        }
        views.into_iter().map(|v| v.expect("every index is visited once")).collect()
    }

    /// Iterates over the slots of all alive tuples.
    pub fn alive_slots(&self) -> impl Iterator<Item = Slot> + '_ {
        (0..self.segs.len()).flat_map(move |seg| {
            let base = (seg * SEGMENT_SLOTS) as Slot;
            let data = self.seg_view(seg);
            (0..data.alive.len())
                .filter_map(move |off| data.alive[off].then_some(base + off as Slot))
        })
    }

    /// Iterates over the alive slots of one segment, ascending. Skipping
    /// the scan entirely for empty segments is the caller's job (check
    /// [`StoreCore::segment_alive`] first).
    pub fn alive_slots_in(&self, seg: usize) -> impl Iterator<Item = Slot> + '_ {
        let base = (seg * SEGMENT_SLOTS) as Slot;
        let data = self.seg_view(seg);
        (0..data.alive.len()).filter_map(move |off| data.alive[off].then_some(base + off as Slot))
    }

    /// Exact maximum score over alive occupants of `seg` (one sweep).
    fn exact_segment_max(&self, seg: usize) -> u64 {
        let data = self.seg_view(seg);
        data.alive
            .iter()
            .zip(data.scores.iter())
            .filter(|(&a, _)| a)
            .map(|(_, &score)| score)
            .max()
            .unwrap_or(0)
    }

    /// Exact per-block maximum scores over alive occupants of `seg`
    /// (one sweep; empty blocks come back as `0`).
    fn exact_block_maxes(&self, seg: usize) -> [u64; BLOCKS_PER_SEGMENT] {
        let data = self.seg_view(seg);
        let mut maxes = [0u64; BLOCKS_PER_SEGMENT];
        for (off, (&a, &score)) in data.alive.iter().zip(data.scores.iter()).enumerate() {
            if a {
                let b = off >> BLOCK_SHIFT;
                maxes[b] = maxes[b].max(score);
            }
        }
        maxes
    }
}

impl Store {
    /// Creates an empty store for `attr_count` attributes and
    /// `measure_count` measures.
    pub fn new(attr_count: usize, measure_count: usize) -> Self {
        Self {
            core: StoreCore {
                attr_count,
                measure_count,
                segs: Vec::new(),
                meta: Vec::new(),
                allocated: 0,
                alive_count: 0,
                pager: None,
                resident: 0,
            },
            free: Vec::new(),
            key_to_slot: HashMap::new(),
            clock_hand: 0,
        }
    }

    /// Bulk load into fresh slots, **score-ordered**: slot order is
    /// `(score desc, key asc)`, with `score(t)` the hidden score of each
    /// tuple. Segment and block score bounds then fall as slots rise, so
    /// a top-`k` scan visiting bounds best-first finds its page in the
    /// first blocks and skips the rest.
    ///
    /// Built without the per-tuple insert path: slots are pre-sized, the
    /// tuples are consumed in the order given (each row written straight
    /// to its slot, so they free in allocation order), and the segment
    /// summaries come from the exact sweeps that
    /// [`Store::recompute_segment_bound`] uses. Shape validation is the
    /// caller's job; a repeated key is an error, checked before any row
    /// is written.
    pub(crate) fn bulk_load(
        attr_count: usize,
        measure_count: usize,
        tuples: Vec<Tuple>,
        score: impl Fn(&Tuple) -> u64,
    ) -> Result<Self, DbError> {
        let n = tuples.len();
        // `placed[slot]` = (score, key, index into `tuples`).
        let mut placed: Vec<(u64, u64, u32)> =
            tuples.iter().enumerate().map(|(i, t)| (score(t), t.key().0, i as u32)).collect();
        placed.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut key_to_slot = HashMap::with_capacity(n);
        for (slot, &(_, key, _)) in placed.iter().enumerate() {
            if key_to_slot.insert(key, slot as Slot).is_some() {
                return Err(DbError::DuplicateKey(TupleKey(key)));
            }
        }
        let mut segs: Vec<SegmentData> = (0..n.div_ceil(SEGMENT_SLOTS))
            .map(|s| {
                let len = SEGMENT_SLOTS.min(n - s * SEGMENT_SLOTS);
                SegmentData::zeroed(attr_count, measure_count, len)
            })
            .collect();
        let mut slot_of_tuple = vec![0 as Slot; n];
        for (slot, &(score, key, i)) in placed.iter().enumerate() {
            slot_of_tuple[i as usize] = slot as Slot;
            let (seg, off) = locate(slot as Slot);
            segs[seg].keys[off] = key;
            segs[seg].scores[off] = score;
        }
        drop(placed);
        for (tuple, &slot) in tuples.into_iter().zip(&slot_of_tuple) {
            let (_, values, measures) = tuple.into_parts();
            let (seg, off) = locate(slot);
            let data = &mut segs[seg];
            for (col, v) in data.columns.iter_mut().zip(&values) {
                col[off] = v.0;
            }
            for (col, &m) in data.measures.iter_mut().zip(&measures) {
                col[off] = m;
            }
        }
        drop(slot_of_tuple);
        let segs: Vec<Arc<SegmentData>> = segs.into_iter().map(Arc::new).collect();
        let mut store = Self {
            core: StoreCore {
                attr_count,
                measure_count,
                resident: segs.len(),
                meta: vec![SegmentMeta::default(); segs.len()],
                segs,
                allocated: n,
                alive_count: n,
                pager: None,
            },
            free: Vec::new(),
            key_to_slot,
            clock_hand: 0,
        };
        for seg in 0..store.core.segs.len() {
            store.core.meta[seg] = SegmentMeta {
                alive: store.core.segs[seg].alive.len() as u32,
                max_score: store.core.exact_segment_max(seg),
                block_max: store.core.exact_block_maxes(seg),
                ..Default::default()
            };
        }
        Ok(store)
    }

    /// Rebuilds a store from restored snapshot state (codec v2): segment
    /// data and summaries verbatim, the free list in its original order
    /// (so future slot reuse replays identically), and the key → slot
    /// map rebuilt by one scan over alive occupants. Returns `None` if
    /// two alive slots carry the same key — snapshot bytes that violate
    /// the store invariant (corruption), not a programming error.
    pub(crate) fn from_restored(
        attr_count: usize,
        measure_count: usize,
        segs: Vec<SegmentData>,
        meta: Vec<SegmentMeta>,
        allocated: usize,
        alive_count: usize,
        free: Vec<Slot>,
    ) -> Option<Self> {
        let segs: Vec<Arc<SegmentData>> = segs.into_iter().map(Arc::new).collect();
        let mut key_to_slot = HashMap::with_capacity(alive_count);
        for (seg, data) in segs.iter().enumerate() {
            let base = (seg * SEGMENT_SLOTS) as Slot;
            for (off, &a) in data.alive.iter().enumerate() {
                if a && key_to_slot.insert(data.keys[off], base + off as Slot).is_some() {
                    return None;
                }
            }
        }
        debug_assert_eq!(key_to_slot.len(), alive_count);
        Some(Self {
            core: StoreCore {
                attr_count,
                measure_count,
                resident: segs.len(),
                segs,
                meta,
                allocated,
                alive_count,
                pager: None,
            },
            free,
            key_to_slot,
            clock_hand: 0,
        })
    }

    /// The read side (what [`Store`] derefs to).
    pub fn core(&self) -> &StoreCore {
        &self.core
    }

    /// Free slots pending reuse, oldest first (snapshot input: restoring
    /// this list in order is what makes the restored database's future
    /// slot allocation bit-identical).
    pub(crate) fn free_slots(&self) -> &[Slot] {
        &self.free
    }

    // ----- persistence tier ----------------------------------------------

    /// Attaches the persistence tier: from here on the writer keeps at
    /// most `pager.writer_budget()` segments in core (CLOCK eviction with
    /// write-back) and evicted segments fault back transparently through
    /// [`StoreCore::seg_view`]. Immediately spills down to budget, so a
    /// store larger than the budget pages out its cold majority here.
    pub(crate) fn attach_pager(&mut self, pager: Arc<Pager>) {
        assert!(self.core.pager.is_none(), "persistence tier already attached");
        pager.ensure_segments(self.core.segs.len());
        self.core.resident = self.core.segs.iter().filter(|s| !s.evicted).count();
        pager.set_in_core(self.core.resident);
        self.core.pager = Some(pager);
        self.enforce_budget(usize::MAX);
        // Residency before the tier attached was the loader's footprint;
        // the bounded-memory promise starts now.
        self.core.pager.as_ref().unwrap().reset_peak();
    }

    /// Ensures `seg`'s data is in core for mutation, reclaiming it from
    /// the pager (cache or disk) if evicted.
    fn make_resident(&mut self, seg: usize) {
        if !self.core.segs[seg].evicted {
            return;
        }
        let pager = self.core.pager.as_ref().expect("evicted segment without a pager");
        let data = pager.take_for_write(seg).expect("persist: write-path fault failed");
        debug_assert!(!data.evicted);
        self.core.segs[seg] = data;
        self.core.resident += 1;
        let pager = self.core.pager.as_ref().unwrap();
        pager.set_in_core(self.core.resident);
    }

    /// The single writer-side mutation gate: faults the segment in if
    /// needed, marks it dirty for write-back, touches its CLOCK bit, and
    /// hands out the unshared data. Callers must follow the
    /// mutation with [`Store::enforce_budget`].
    fn seg_mut(&mut self, seg: usize) -> &mut SegmentData {
        self.make_resident(seg);
        if let Some(pager) = &self.core.pager {
            pager.mark_dirty(seg);
            self.core.meta[seg].ref_bit = true;
        }
        Arc::make_mut(&mut self.core.segs[seg])
    }

    /// Writes `seg` back to its region (skipped if clean and already on
    /// disk) and replaces the in-core data with the shared tombstone.
    fn spill_segment(&mut self, pager: &Pager, seg: usize) {
        pager.spill(seg, &self.core.segs[seg]).expect("persist: segment write-back failed");
        self.core.segs[seg] = pager.tombstone();
        self.core.resident -= 1;
        pager.set_in_core(self.core.resident);
    }

    /// Spills segments until the writer is back under its in-core budget,
    /// choosing victims with a CLOCK sweep (referenced segments get a
    /// second chance; `protect` — normally the segment just mutated — is
    /// never evicted). No-op without a pager.
    fn enforce_budget(&mut self, protect: usize) {
        let Some(pager) = self.core.pager.clone() else { return };
        let limit = pager.writer_budget();
        let n = self.core.segs.len();
        while self.core.resident > limit {
            let mut victim = None;
            // Two full revolutions always suffice: the first clears every
            // reference bit on the path, the second must find a victim
            // (resident > limit >= 1 means at least one evictable,
            // unprotected segment exists).
            for _ in 0..2 * n {
                let s = self.clock_hand;
                self.clock_hand = (self.clock_hand + 1) % n;
                if self.core.segs[s].evicted || s == protect {
                    continue;
                }
                if self.core.meta[s].ref_bit {
                    self.core.meta[s].ref_bit = false;
                    continue;
                }
                victim = Some(s);
                break;
            }
            let Some(v) = victim else { break };
            self.spill_segment(&pager, v);
        }
    }

    /// Slot of an alive tuple by key.
    pub fn slot_of(&self, key: TupleKey) -> Option<Slot> {
        self.key_to_slot.get(&key.0).copied()
    }

    /// `(min, max)` over alive keys, `None` when the store is empty. One
    /// pass over the key map.
    pub(crate) fn alive_key_range(&self) -> Option<(u64, u64)> {
        let mut keys = self.key_to_slot.keys();
        let first = *keys.next()?;
        Some(keys.fold((first, first), |(lo, hi), &k| (lo.min(k), hi.max(k))))
    }

    /// Iterates over `(key, slot)` of all alive tuples in unspecified order.
    pub fn alive_keys(&self) -> impl Iterator<Item = (TupleKey, Slot)> + '_ {
        self.key_to_slot.iter().map(|(&k, &s)| (TupleKey(k), s))
    }

    /// Recomputes `seg`'s score bound as the exact maximum over alive
    /// occupants (one sweep of the segment) and clears its staleness
    /// counter. Returns whether the bound tightened. Purely a summary
    /// rewrite: no tuple moves, no slot changes hands, and since the
    /// bound only ever shrinks towards the true maximum, every scan
    /// that consulted the old bound stays correct.
    pub fn recompute_segment_bound(&mut self, seg: usize) -> bool {
        let exact = self.core.exact_segment_max(seg);
        let blocks = self.core.exact_block_maxes(seg);
        let meta = &mut self.core.meta[seg];
        debug_assert!(exact <= meta.max_score, "segment bound was not an upper bound");
        debug_assert!(
            blocks.iter().zip(meta.block_max.iter()).all(|(e, b)| e <= b),
            "a block bound was not an upper bound"
        );
        let tightened = exact < meta.max_score;
        meta.max_score = exact;
        meta.block_max = blocks;
        meta.stale_ops = 0;
        tightened
    }

    /// Debug-build audit: `seg`'s bound must equal the true maximum over
    /// alive occupants. Called by the maintenance pass after every
    /// compaction step; release builds compile it away.
    pub fn debug_assert_bound_exact(&self, seg: usize) {
        #[cfg(debug_assertions)]
        {
            let exact = self.core.exact_segment_max(seg);
            assert_eq!(
                self.core.meta[seg].max_score, exact,
                "segment {seg}: bound not exact after compaction"
            );
            assert_eq!(self.core.meta[seg].stale_ops, 0, "segment {seg}: staleness not cleared");
            let blocks = self.core.exact_block_maxes(seg);
            assert_eq!(
                self.core.meta[seg].block_max, blocks,
                "segment {seg}: block bounds not exact after compaction"
            );
        }
        #[cfg(not(debug_assertions))]
        let _ = seg;
    }

    #[inline]
    fn note_insert(&mut self, slot: Slot, score: u64) {
        let meta = &mut self.core.meta[segment_of(slot)];
        meta.alive += 1;
        meta.max_score = meta.max_score.max(score);
        let blk = block_of(slot) % BLOCKS_PER_SEGMENT;
        meta.block_max[blk] = meta.block_max[blk].max(score);
    }

    #[inline]
    fn note_delete(&mut self, slot: Slot) {
        let meta = &mut self.core.meta[segment_of(slot)];
        meta.alive -= 1;
        if meta.alive == 0 {
            // Empty segment: the bounds reset exactly for free.
            meta.max_score = 0;
            meta.stale_ops = 0;
            meta.block_max = [0; BLOCKS_PER_SEGMENT];
        } else {
            meta.stale_ops = meta.stale_ops.saturating_add(1);
        }
    }

    /// Inserts a tuple with the given hidden score, returning its slot.
    ///
    /// Errors with [`DbError::DuplicateKey`] if the key is already alive.
    /// Shape validation against the schema happens in the database facade.
    pub fn insert(&mut self, tuple: Tuple, score: u64) -> Result<Slot, DbError> {
        let (key, values, measures) = tuple.into_parts();
        if self.key_to_slot.contains_key(&key.0) {
            return Err(DbError::DuplicateKey(key));
        }
        let slot = match self.free.pop() {
            Some(s) => {
                let (seg, off) = locate(s);
                self.seg_mut(seg).write_row(off, &values, &measures, key.0, score);
                self.enforce_budget(seg);
                s
            }
            None => {
                let s = self.core.allocated as Slot;
                let seg = segment_of(s);
                if seg == self.core.segs.len() {
                    let (attrs, ms) = (self.core.attr_count, self.core.measure_count);
                    self.core.segs.push(Arc::new(SegmentData::empty(attrs, ms)));
                    self.core.meta.push(SegmentMeta::default());
                    self.core.resident += 1;
                    if let Some(pager) = &self.core.pager {
                        pager.ensure_segments(self.core.segs.len());
                        pager.set_in_core(self.core.resident);
                    }
                }
                self.seg_mut(seg).push_row(&values, &measures, key.0, score);
                self.core.allocated += 1;
                self.enforce_budget(seg);
                s
            }
        };
        self.key_to_slot.insert(key.0, slot);
        self.core.alive_count += 1;
        self.note_insert(slot, score);
        Ok(slot)
    }

    /// Deletes the alive tuple with `key`, returning the freed slot.
    pub fn delete(&mut self, key: TupleKey) -> Result<Slot, DbError> {
        let slot = self.key_to_slot.remove(&key.0).ok_or(DbError::UnknownKey(key))?;
        let (seg, off) = locate(slot);
        self.seg_mut(seg).alive[off] = false;
        self.free.push(slot);
        self.core.alive_count -= 1;
        self.note_delete(slot);
        self.enforce_budget(seg);
        Ok(slot)
    }

    /// Overwrites the measures of an alive tuple in place (models a price
    /// change that does not move the tuple in the query tree).
    pub fn update_measures(&mut self, key: TupleKey, measures: &[f64]) -> Result<Slot, DbError> {
        let slot = self.slot_of(key).ok_or(DbError::UnknownKey(key))?;
        let (seg, off) = locate(slot);
        let data = self.seg_mut(seg);
        for (m, col) in data.measures.iter_mut().enumerate() {
            col[off] = measures[m];
        }
        self.enforce_budget(seg);
        Ok(slot)
    }

    /// Overwrites the hidden ranking score at `slot` (used when a measure
    /// update changes a measure-based rank). Raises the segment bound if
    /// needed; a lowered score leaves the old bound standing (still a
    /// valid upper bound) and marks the bound stale for maintenance.
    pub fn set_score(&mut self, slot: Slot, score: u64) {
        let (seg, off) = locate(slot);
        self.seg_mut(seg).scores[off] = score;
        self.enforce_budget(seg);
        let meta = &mut self.core.meta[seg];
        let blk = off >> BLOCK_SHIFT;
        // A raise must propagate to the slot's block bound immediately —
        // the tuple may now out-score its block's recorded maximum, and
        // block bounds must never understate. A drop leaves the block
        // bound standing (still a valid upper bound).
        meta.block_max[blk] = meta.block_max[blk].max(score);
        if score >= meta.max_score {
            // The new score meets or beats the old bound, so it *is* the
            // segment's true maximum: the bound snaps back to exact.
            meta.max_score = score;
            meta.stale_ops = 0;
        } else {
            // A drop below the bound may have demoted the previous
            // maximum holder; the bound stays sound but possibly loose.
            meta.stale_ops = meta.stale_ops.saturating_add(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(key: u64, vals: &[u32], ms: &[f64]) -> Tuple {
        Tuple::new(TupleKey(key), vals.iter().map(|&v| ValueId(v)).collect(), ms.to_vec())
    }

    #[test]
    fn insert_and_read_back() {
        let mut s = Store::new(2, 1);
        let slot = s.insert(t(1, &[0, 1], &[5.0]), 99).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.value_at(0, slot), 0);
        assert_eq!(s.value_at(1, slot), 1);
        assert_eq!(s.measure_at(0, slot), 5.0);
        assert_eq!(s.score_at(slot), 99);
        assert_eq!(s.key_at(slot), TupleKey(1));
        let v = s.view(slot);
        assert_eq!(v.key(), TupleKey(1));
        assert_eq!(v.values(), &[ValueId(0), ValueId(1)]);
    }

    #[test]
    fn duplicate_key_rejected() {
        let mut s = Store::new(1, 0);
        s.insert(t(1, &[0], &[]), 0).unwrap();
        assert!(matches!(s.insert(t(1, &[0], &[]), 0), Err(DbError::DuplicateKey(TupleKey(1)))));
    }

    #[test]
    fn delete_frees_slot_for_reuse() {
        let mut s = Store::new(1, 0);
        let a = s.insert(t(1, &[0], &[]), 0).unwrap();
        s.insert(t(2, &[1], &[]), 0).unwrap();
        s.delete(TupleKey(1)).unwrap();
        assert_eq!(s.len(), 1);
        assert!(!s.is_alive(a));
        let b = s.insert(t(3, &[1], &[]), 0).unwrap();
        assert_eq!(a, b, "freed slot must be reused");
        assert_eq!(s.len(), 2);
        assert_eq!(s.key_at(b), TupleKey(3));
    }

    #[test]
    fn delete_unknown_key_errors() {
        let mut s = Store::new(1, 0);
        assert!(matches!(s.delete(TupleKey(9)), Err(DbError::UnknownKey(TupleKey(9)))));
        s.insert(t(9, &[0], &[]), 0).unwrap();
        s.delete(TupleKey(9)).unwrap();
        assert!(s.delete(TupleKey(9)).is_err(), "double delete must fail");
    }

    #[test]
    fn update_measures_in_place() {
        let mut s = Store::new(1, 2);
        let slot = s.insert(t(1, &[0], &[1.0, 2.0]), 0).unwrap();
        s.update_measures(TupleKey(1), &[3.0, 4.0]).unwrap();
        assert_eq!(s.measure_at(0, slot), 3.0);
        assert_eq!(s.measure_at(1, slot), 4.0);
    }

    #[test]
    fn alive_iteration() {
        let mut s = Store::new(1, 0);
        s.insert(t(1, &[0], &[]), 0).unwrap();
        s.insert(t(2, &[0], &[]), 0).unwrap();
        s.insert(t(3, &[0], &[]), 0).unwrap();
        s.delete(TupleKey(2)).unwrap();
        let mut keys: Vec<u64> = s.alive_keys().map(|(k, _)| k.0).collect();
        keys.sort_unstable();
        assert_eq!(keys, vec![1, 3]);
        assert_eq!(s.alive_slots().count(), 2);
    }

    #[test]
    fn segment_alive_counts_track_mutations() {
        let mut s = Store::new(1, 0);
        for key in 0..10u64 {
            s.insert(t(key, &[0], &[]), key).unwrap();
        }
        assert_eq!(s.segment_count(), 1);
        assert_eq!(s.segment_alive(0), 10);
        for key in 0..4u64 {
            s.delete(TupleKey(key)).unwrap();
        }
        assert_eq!(s.segment_alive(0), 6);
        assert_eq!(s.live_segments().collect::<Vec<_>>(), vec![0]);
        assert_eq!(s.alive_slots_in(0).count(), 6);
        // Segment slot range is clamped to allocated slots.
        assert_eq!(s.segment_range(0), 0..10);
    }

    #[test]
    fn segment_max_score_is_an_upper_bound_and_resets_on_empty() {
        let mut s = Store::new(1, 0);
        s.insert(t(1, &[0], &[]), 50).unwrap();
        s.insert(t(2, &[0], &[]), 99).unwrap();
        assert_eq!(s.segment_max_score(0), 99);
        // Deleting the max holder leaves the (stale but sound) bound.
        s.delete(TupleKey(2)).unwrap();
        assert!(s.segment_max_score(0) >= 50);
        // Raising a score raises the bound.
        let slot = s.slot_of(TupleKey(1)).unwrap();
        s.set_score(slot, 200);
        assert_eq!(s.segment_max_score(0), 200);
        // Emptying the segment resets the bound exactly.
        s.delete(TupleKey(1)).unwrap();
        assert_eq!(s.segment_max_score(0), 0);
        assert_eq!(s.segment_alive(0), 0);
    }

    /// The exact-after-compact sibling of
    /// `segment_max_score_is_an_upper_bound_and_resets_on_empty`: after a
    /// recompute the bound must equal the true maximum, not merely bound
    /// it — and the staleness counter must reflect every loosening op.
    #[test]
    fn segment_max_score_is_exact_after_recompute() {
        let mut s = Store::new(1, 0);
        for key in 0..6u64 {
            s.insert(t(key, &[0], &[]), key * 10).unwrap();
        }
        assert_eq!(s.segment_bound_staleness(0), 0, "append-only bounds are exact");
        assert_eq!(s.segment_dead(0), 0);
        // Delete the two top scorers: the bound goes stale-high.
        s.delete(TupleKey(5)).unwrap();
        s.delete(TupleKey(4)).unwrap();
        assert_eq!(s.segment_max_score(0), 50, "lazy bound left standing");
        assert_eq!(s.segment_bound_staleness(0), 2);
        assert_eq!(s.segment_dead(0), 2);
        assert_eq!(s.stale_segments(), vec![0]);
        // Recompute: exact maximum over alive occupants, staleness reset.
        assert!(s.recompute_segment_bound(0), "bound must tighten");
        assert_eq!(s.segment_max_score(0), 30);
        assert_eq!(s.segment_bound_staleness(0), 0);
        assert!(s.stale_segments().is_empty());
        s.debug_assert_bound_exact(0);
        // A second recompute is a no-op.
        assert!(!s.recompute_segment_bound(0));
        // Score drops mark the bound stale; raises to/above the bound
        // snap it back to exact.
        let slot = s.slot_of(TupleKey(3)).unwrap();
        s.set_score(slot, 5);
        assert_eq!(s.segment_bound_staleness(0), 1);
        assert_eq!(s.segment_max_score(0), 30, "drop leaves the bound standing");
        s.set_score(slot, 99);
        assert_eq!(s.segment_bound_staleness(0), 0, "raise to a new max is exact again");
        assert_eq!(s.segment_max_score(0), 99);
        s.debug_assert_bound_exact(0);
    }

    /// Block-granularity sibling of `segment_max_score_is_exact_after_recompute`:
    /// per-block bounds never understate under deletes and score drops,
    /// and a recompute rebuilds every block bound exactly.
    #[test]
    fn block_max_scores_never_understate_and_are_exact_after_recompute() {
        let mut s = Store::new(1, 0);
        // Two blocks' worth of tuples: block 0 holds scores 0..BLOCK_SLOTS,
        // block 1 holds BLOCK_SLOTS..2*BLOCK_SLOTS (slot == key == score).
        let n = (2 * BLOCK_SLOTS) as u64;
        for key in 0..n {
            s.insert(t(key, &[0], &[]), key).unwrap();
        }
        assert_eq!(s.block_max_score(0), BLOCK_SLOTS as u64 - 1);
        assert_eq!(s.block_max_score(1), n - 1);
        assert!(s.block_max_score(0) <= s.segment_max_score(0));
        // Delete block 1's top two scorers: its bound goes stale-high but
        // must keep bounding the survivors; block 0's bound is untouched.
        s.delete(TupleKey(n - 1)).unwrap();
        s.delete(TupleKey(n - 2)).unwrap();
        assert_eq!(s.block_max_score(1), n - 1, "lazy block bound left standing");
        assert!(s.block_max_score(1) >= n - 3, "bound must cover survivors");
        // A score drop inside block 0 marks the segment stale but leaves
        // the (sound) block bound in place.
        let slot = s.slot_of(TupleKey(7)).unwrap();
        s.set_score(slot, 1);
        assert_eq!(s.block_max_score(0), BLOCK_SLOTS as u64 - 1);
        // A raise above the block bound must propagate immediately.
        s.set_score(slot, 10_000);
        assert_eq!(s.block_max_score(0), 10_000);
        assert_eq!(s.segment_max_score(0), 10_000);
        // Recompute rebuilds every block bound exactly.
        s.set_score(slot, 7);
        assert!(s.recompute_segment_bound(0));
        assert_eq!(s.block_max_score(0), BLOCK_SLOTS as u64 - 1);
        assert_eq!(s.block_max_score(1), n - 3);
        s.debug_assert_bound_exact(0);
        // Emptying a block (but not the segment) and recomputing resets
        // that block's bound to zero exactly.
        for key in BLOCK_SLOTS as u64..n - 2 {
            s.delete(TupleKey(key)).unwrap();
        }
        s.recompute_segment_bound(0);
        assert_eq!(s.block_max_score(1), 0, "empty block rebuilds to zero");
        assert_eq!(s.block_max_score(0), BLOCK_SLOTS as u64 - 1);
        s.debug_assert_bound_exact(0);
    }

    #[test]
    fn emptying_a_segment_clears_staleness_too() {
        let mut s = Store::new(1, 0);
        s.insert(t(1, &[0], &[]), 10).unwrap();
        s.insert(t(2, &[0], &[]), 20).unwrap();
        s.delete(TupleKey(2)).unwrap();
        assert_eq!(s.segment_bound_staleness(0), 1);
        s.delete(TupleKey(1)).unwrap();
        assert_eq!(s.segment_bound_staleness(0), 0, "empty segment is exactly bounded");
        assert_eq!(s.segment_max_score(0), 0);
        s.debug_assert_bound_exact(0);
    }

    #[test]
    fn segment_orderings_are_deterministic() {
        let mut s = Store::new(1, 0);
        // Only one segment exists at this size, but the orderings must
        // still be internally consistent.
        for key in 0..5u64 {
            s.insert(t(key, &[0], &[]), key * 10).unwrap();
        }
        let desc = s.segments_by_score_desc();
        assert_eq!(desc, vec![(0, 40)]);
        let suffix = s.segment_suffix_max();
        assert_eq!(suffix, vec![40]);
    }

    /// A cloned `StoreCore` is isolated from its source: segment-granular
    /// copy-on-write means later writer mutations never show through, and
    /// untouched segments keep sharing the same blocks.
    #[test]
    fn core_clone_is_isolated_from_later_mutations() {
        let mut s = Store::new(1, 1);
        for key in 0..8u64 {
            s.insert(t(key, &[0], &[key as f64]), key * 10).unwrap();
        }
        let snap = s.core().clone();
        assert!(Arc::ptr_eq(&snap.segs[0], &s.core.segs[0]), "clone shares segment blocks");

        s.delete(TupleKey(3)).unwrap();
        s.update_measures(TupleKey(5), &[99.0]).unwrap();
        s.insert(t(100, &[0], &[1.0]), 500).unwrap();

        // The clone still sees the pre-mutation world, bit for bit.
        assert_eq!(snap.len(), 8);
        assert!(snap.is_alive(3));
        assert_eq!(snap.measure_at(0, 5), 5.0);
        assert_eq!(snap.segment_max_score(0), 70);
        assert_eq!(snap.alive_slots().count(), 8);
        // The writer moved on (slot 3 reused by key 100, score bound up).
        assert_eq!(s.len(), 8);
        assert_eq!(s.key_at(3), TupleKey(100));
        assert_eq!(s.segment_max_score(0), 500);
        assert!(!Arc::ptr_eq(&snap.segs[0], &s.core.segs[0]), "writer copied on write");
    }

    fn pager_dir(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("hidden-db-store-{}-{name}", std::process::id()))
    }

    fn paged(name: &str, attr_count: usize, measure_count: usize, budget: usize) -> Store {
        let dir = pager_dir(name);
        let pager = crate::persist::Pager::open(&dir, attr_count, measure_count, budget)
            .expect("pager open");
        let mut s = Store::new(attr_count, measure_count);
        s.attach_pager(pager);
        s
    }

    /// The paging oracle at store granularity: a budget-2 paged store
    /// over 3 segments answers every read identically to the plain
    /// in-RAM store across inserts, deletes, reuse, measure updates and
    /// score raises — while actually spilling and faulting.
    #[test]
    fn paged_store_matches_plain_store_bit_for_bit() {
        let n = (SEGMENT_SLOTS * 2 + 100) as u64; // 3 segments
        let mut plain = Store::new(1, 1);
        let mut disk = paged("oracle", 1, 1, 2);
        for s in [&mut plain, &mut disk] {
            for key in 0..n {
                s.insert(t(key, &[0], &[key as f64]), key % 997).unwrap();
            }
            // Churn across all three segments: deletes (slot reuse),
            // measure updates, score raises.
            for key in (0..n).step_by(513) {
                s.delete(TupleKey(key)).unwrap();
            }
            for key in (1..n).step_by(771) {
                s.update_measures(TupleKey(key), &[-1.0]).unwrap();
            }
            for key in (2..n).step_by(997) {
                let slot = s.slot_of(TupleKey(key)).unwrap();
                s.set_score(slot, 50_000 + key);
            }
            for key in 0..64u64 {
                s.insert(t(n + key, &[0], &[0.0]), 40_000 + key).unwrap();
            }
        }

        assert_eq!(disk.len(), plain.len());
        assert_eq!(disk.slot_bound(), plain.slot_bound());
        assert_eq!(disk.alive_slots().collect::<Vec<_>>(), plain.alive_slots().collect::<Vec<_>>());
        for slot in plain.alive_slots().collect::<Vec<_>>() {
            assert_eq!(disk.key_at(slot), plain.key_at(slot));
            assert_eq!(disk.score_at(slot), plain.score_at(slot));
            assert_eq!(disk.value_at(0, slot), plain.value_at(0, slot));
            assert_eq!(disk.measure_at(0, slot), plain.measure_at(0, slot));
        }
        for seg in 0..plain.segment_count() {
            assert_eq!(disk.segment_max_score(seg), plain.segment_max_score(seg));
            assert_eq!(disk.segment_bound_staleness(seg), plain.segment_bound_staleness(seg));
        }
        for blk in 0..plain.segment_count() * BLOCKS_PER_SEGMENT {
            assert_eq!(disk.block_max_score(blk), plain.block_max_score(blk));
        }

        let pager = disk.core().pager().expect("pager attached").clone();
        let stats = pager.stats();
        assert!(stats.segments_spilled > 0, "budget 2 over 3 segments must spill");
        assert!(stats.segments_faulted > 0, "churn across segments must fault");
        assert!(
            stats.peak_resident_segments <= pager.total_budget() as u64,
            "peak residency {} exceeded the budget {}",
            stats.peak_resident_segments,
            pager.total_budget()
        );
    }

    /// Cloning a paged core materialises every evicted segment and
    /// detaches from the pager: the clone is fully in-RAM, immune to
    /// later evictions, and identical to the paged view.
    #[test]
    fn paged_core_clone_materializes_and_detaches() {
        let n = (SEGMENT_SLOTS * 2 + 10) as u64;
        let mut s = paged("clone", 1, 0, 2);
        for key in 0..n {
            s.insert(t(key, &[0], &[]), key).unwrap();
        }
        assert!(
            s.core().segs.iter().any(|d| d.evicted),
            "3 segments at budget 2 must leave one evicted"
        );
        let snap = s.core().clone();
        assert!(snap.pager().is_none(), "clone must not depend on the pager");
        assert!(snap.segs.iter().all(|d| !d.evicted), "clone materialises everything");
        assert_eq!(snap.len(), s.len());
        assert_eq!(snap.alive_slots().count(), n as usize);
        // Writer keeps moving; the clone is frozen.
        s.delete(TupleKey(0)).unwrap();
        assert!(snap.is_alive(0));
    }
}
