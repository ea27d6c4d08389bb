//! Inverted index: for every (attribute, value) pair, the posting list of
//! slots whose tuple carries that value.
//!
//! Deletions are *lazy*: a deleted slot stays in its posting lists as a
//! tombstone (queries filter through the store's alive bitset anyway, and
//! slot reuse overwrites columns, so stale entries are detected by
//! re-checking the column value). Each list compacts itself when tombstones
//! exceed `COMPACT_DEAD_FRACTION` of its length, keeping amortised update
//! cost O(1) while bounding scan waste.
//!
//! ## Sorted lists and segment runs
//!
//! Posting lists are kept **slot-sorted** lazily: appends that arrive in
//! ascending slot order (the common case — fresh slots grow monotonically)
//! keep the list sorted for free; an out-of-order append (slot reuse) just
//! marks the list dirty, and the next caller that needs sorted access pays
//! one `sort + dedup` ([`InvertedIndex::ensure_sorted`]). A sorted list
//! carries *segment run* metadata — for every store segment with at least
//! one posting, the offset where its run begins — which is what the
//! evaluation engine uses to (a) skip segments wholesale, (b) drive
//! per-segment bitset intersection, and (c) visit a list's segments in
//! descending max-score order for early-exit top-`k` scans. Sorted order
//! also guarantees duplicate postings (a slot freed and re-filled with the
//! same value while its stale posting survived) are **adjacent**, so
//! exactly-once candidate emission is a one-comparison skip instead of a
//! hash set.

use crate::schema::Schema;
use crate::store::{
    block_of, segment_of, Slot, StoreCore, BLOCKS_PER_SEGMENT, BLOCK_SLOTS, SEGMENT_SLOTS,
};
use crate::value::{AttrId, ValueId};

/// A posting list compacts when dead entries exceed this fraction.
const COMPACT_DEAD_FRACTION: f64 = 0.4;

/// Minimum length before compaction is considered (avoids thrashing tiny
/// lists).
const COMPACT_MIN_LEN: usize = 64;

/// Above this many candidate postings, duplicate suppression switches
/// from a linear probe to a `HashSet` (a linear probe on a handful of
/// elements beats hashing; beyond that the O(n²) worst case bites).
#[cfg(test)]
const DEDUP_LINEAR_MAX: usize = 24;

/// Adaptive seen-set for duplicate suppression in
/// [`InvertedIndex::for_each_live`]. (Test-only since the sorted-list
/// engine took over the production scans: sorted order makes duplicates
/// adjacent, so exactly-once emission no longer needs a seen-set.)
#[cfg(test)]
enum SeenSlots {
    Small(Vec<Slot>),
    Large(std::collections::HashSet<Slot>),
}

#[cfg(test)]
impl SeenSlots {
    fn with_expected(candidates: usize) -> Self {
        if candidates <= DEDUP_LINEAR_MAX {
            Self::Small(Vec::with_capacity(candidates))
        } else {
            Self::Large(std::collections::HashSet::with_capacity(candidates))
        }
    }

    /// Records `slot`; returns whether it was new.
    #[inline]
    fn insert(&mut self, slot: Slot) -> bool {
        match self {
            Self::Small(v) => {
                if v.contains(&slot) {
                    false
                } else {
                    v.push(slot);
                    true
                }
            }
            Self::Large(set) => set.insert(slot),
        }
    }
}

#[derive(Debug, Clone, Default)]
pub(crate) struct PostingList {
    /// Slots that at some point carried the value. May contain tombstones.
    pub(crate) slots: Vec<Slot>,
    /// Upper bound on tombstones in `slots`.
    pub(crate) dead: usize,
    /// Whether `slots` is sorted ascending (duplicates adjacent). Appends
    /// in ascending order preserve it; slot-reuse appends clear it.
    pub(crate) sorted: bool,
    /// Segment runs over `slots`, valid only while `sorted`: one
    /// `(segment, start offset)` per store segment with ≥ 1 posting; the
    /// run ends where the next one starts (or at `slots.len()`).
    pub(crate) runs: Vec<(u32, u32)>,
    /// Block-max directory: one `(global block, score upper bound)` per
    /// store block with ≥ 1 posting, ascending by block id. Unlike
    /// `runs` this stays valid even while the list is dirty — bounds
    /// only ever *raise* on append, and sort/dedup/tombstoning can only
    /// remove members (a bound over a superset still bounds the
    /// subset). [`PostingList::compact`] rebuilds the bounds exactly
    /// from the surviving (revalidated) postings.
    pub(crate) blocks: Vec<(u32, u64)>,
}

impl PostingList {
    #[inline]
    fn live_len_estimate(&self) -> usize {
        self.slots.len().saturating_sub(self.dead)
    }

    /// Raises the block-max bound covering `slot` to at least `score`,
    /// inserting the directory entry if the block is new. The common
    /// case (ascending appends) touches only the last entry; slot-reuse
    /// appends pay one binary search.
    #[inline]
    fn raise_block_bound(&mut self, slot: Slot, score: u64) {
        let blk = block_of(slot) as u32;
        match self.blocks.last().copied() {
            Some((b, bound)) if b == blk => {
                if score > bound {
                    self.blocks.last_mut().unwrap().1 = score;
                }
            }
            Some((b, _)) if b < blk => self.blocks.push((blk, score)),
            None => self.blocks.push((blk, score)),
            _ => match self.blocks.binary_search_by_key(&blk, |&(b, _)| b) {
                Ok(i) => self.blocks[i].1 = self.blocks[i].1.max(score),
                Err(i) => self.blocks.insert(i, (blk, score)),
            },
        }
    }

    /// Appends a posting, keeping `sorted`/`runs`/`blocks` coherent.
    #[inline]
    fn push(&mut self, slot: Slot, score: u64) {
        if self.sorted || self.slots.is_empty() {
            match self.slots.last() {
                Some(&last) if slot < last => {
                    self.sorted = false;
                    self.runs.clear();
                }
                _ => {
                    let seg = segment_of(slot) as u32;
                    if self.runs.last().map(|&(s, _)| s) != Some(seg) {
                        self.runs.push((seg, self.slots.len() as u32));
                    }
                    self.sorted = true;
                }
            }
        }
        self.raise_block_bound(slot, score);
        self.slots.push(slot);
    }

    /// Sorts + dedupes and rebuilds the run metadata (no-op when sorted).
    /// Block bounds are deliberately left alone: dedup only removes
    /// postings, so the recorded bounds stay valid upper bounds.
    fn ensure_sorted(&mut self) {
        if self.sorted {
            return;
        }
        self.slots.sort_unstable();
        self.slots.dedup();
        self.dead = self.dead.min(self.slots.len());
        self.rebuild_runs();
        self.sorted = true;
    }

    fn rebuild_runs(&mut self) {
        self.runs.clear();
        let mut prev = u32::MAX;
        for (i, &s) in self.slots.iter().enumerate() {
            let seg = segment_of(s) as u32;
            if seg != prev {
                self.runs.push((seg, i as u32));
                prev = seg;
            }
        }
    }

    /// Rebuilds the block-max directory exactly from the current
    /// postings' store scores. Only sound right after the list has been
    /// revalidated (tombstones purged), i.e. from
    /// [`InvertedIndex::compact`] — a tombstoned slot's score belongs to
    /// whatever tuple reused the slot.
    fn rebuild_blocks(&mut self, store: &StoreCore) {
        let mut blocks = std::mem::take(&mut self.blocks);
        blocks.clear();
        // Slots are sorted here (compaction sorts first), so this only
        // ever takes `raise_block_bound`'s append fast path.
        for &s in &self.slots {
            let blk = block_of(s) as u32;
            let score = store.score_at(s);
            match blocks.last_mut() {
                Some(last) if last.0 == blk => last.1 = last.1.max(score),
                _ => blocks.push((blk, score)),
            }
        }
        self.blocks = blocks;
    }
}

/// Read-only view of one slot-sorted posting list: the slots plus their
/// per-segment skip metadata. Handed out by
/// [`InvertedIndex::sorted_postings`] after an
/// [`InvertedIndex::ensure_sorted`] pass.
#[derive(Debug, Clone, Copy)]
pub struct SortedPostings<'a> {
    slots: &'a [Slot],
    runs: &'a [(u32, u32)],
    blocks: &'a [(u32, u64)],
}

impl<'a> SortedPostings<'a> {
    /// All postings, ascending by slot (duplicates, if any, adjacent).
    pub fn slots(&self) -> &'a [Slot] {
        self.slots
    }

    /// Number of postings (including tombstones and duplicates).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the list has no postings at all.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Iterates `(segment, run)` pairs in ascending segment order, where
    /// `run` is the sub-slice of postings falling in that segment.
    pub fn runs(&self) -> impl Iterator<Item = (usize, &'a [Slot])> + '_ {
        self.runs.iter().enumerate().map(move |(i, &(seg, start))| {
            let end = self.runs.get(i + 1).map_or(self.slots.len(), |&(_, s)| s as usize);
            (seg as usize, &self.slots[start as usize..end])
        })
    }

    /// The run of postings in `seg`, empty if the list has none there.
    pub fn run_in(&self, seg: usize) -> &'a [Slot] {
        match self.runs.binary_search_by_key(&(seg as u32), |&(s, _)| s) {
            Ok(i) => {
                let start = self.runs[i].1 as usize;
                let end = self.runs.get(i + 1).map_or(self.slots.len(), |&(_, s)| s as usize);
                &self.slots[start..end]
            }
            Err(_) => &[],
        }
    }

    /// The block-max directory: one `(global block, score upper bound)`
    /// per store block with ≥ 1 posting, ascending by block id. Bounds
    /// never understate the best alive matching score in the block (they
    /// may overstate after deletes/score-drops until the list compacts).
    pub fn blocks(&self) -> &'a [(u32, u64)] {
        self.blocks
    }

    /// Score upper bound for global block `blk`, or `None` if the list
    /// has no postings there (in which case no tuple in the block can
    /// match this predicate — stale postings are only ever *extra*).
    #[inline]
    pub fn block_bound(&self, blk: u32) -> Option<u64> {
        self.blocks.binary_search_by_key(&blk, |&(b, _)| b).ok().map(|i| self.blocks[i].1)
    }

    /// The run of postings falling in global block `blk`, empty if none.
    /// Two binary searches: the owning segment's run, then the block's
    /// slot range within it.
    pub fn block_run(&self, blk: u32) -> &'a [Slot] {
        let run = self.run_in(blk as usize / BLOCKS_PER_SEGMENT);
        let lo = (blk as usize * BLOCK_SLOTS) as Slot;
        let hi = lo + BLOCK_SLOTS as Slot;
        let start = run.partition_point(|&s| s < lo);
        let end = start + run[start..].partition_point(|&s| s < hi);
        &run[start..end]
    }
}

/// Exponential ("galloping") search: the smallest index `>= from` whose
/// slot is `>= target`. O(log d) in the distance `d` advanced, which is
/// what makes small∩large intersections cost `O(small · log large)`.
pub fn gallop_to(slots: &[Slot], from: usize, target: Slot) -> usize {
    if from >= slots.len() || slots[from] >= target {
        return from;
    }
    // Invariant: slots[lo] < target. Gallop hi outward until it crosses.
    let mut lo = from;
    let mut step = 1usize;
    let hi = loop {
        let hi = lo + step;
        if hi >= slots.len() {
            break slots.len();
        }
        if slots[hi] >= target {
            break hi;
        }
        lo = hi;
        step <<= 1;
    };
    // First index in (lo, hi] with slots[idx] >= target.
    lo + 1 + slots[lo + 1..hi].partition_point(|&s| s < target)
}

/// What one budgeted [`InvertedIndex::maintain`] sweep did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexMaintenance {
    /// Posting lists rewritten (tombstones purged, runs rebuilt).
    pub lists_compacted: usize,
    /// Postings examined across all compacted lists.
    pub postings_scanned: usize,
    /// Tombstoned/duplicate postings removed.
    pub postings_purged: usize,
    /// Whether the sweep stopped because the budget ran out.
    pub exhausted: bool,
}

/// Inverted index over all (attribute, value) pairs of a schema.
#[derive(Debug, Clone)]
pub struct InvertedIndex {
    /// `lists[a]` has one posting list per value of attribute `a`.
    lists: Vec<Vec<PostingList>>,
}

impl InvertedIndex {
    /// Creates an empty index shaped after `schema`.
    pub fn new(schema: &Schema) -> Self {
        let lists = schema
            .attr_ids()
            .map(|a| vec![PostingList::default(); schema.domain_size(a) as usize])
            .collect();
        Self { lists }
    }

    /// Registers a freshly inserted tuple (with its hidden score, which
    /// feeds the per-list block-max bounds).
    ///
    /// `values` are the tuple's value codes in schema order. If the slot was
    /// reused, old postings pointing at it become self-healing tombstones:
    /// they are filtered out on scan because the column no longer matches.
    pub fn insert(&mut self, slot: Slot, values: &[ValueId], score: u64) {
        for (a, &v) in values.iter().enumerate() {
            self.lists[a][v.index()].push(slot, score);
        }
    }

    /// Propagates an in-place score *raise* at `slot` (a measure update
    /// promoting the tuple's rank) to the block-max bounds of every list
    /// the tuple posts to. Raises must be eager — the tuple may now
    /// out-score its blocks' recorded bounds, and a block-max skip
    /// consulting an understated bound would wrongly elide it. Drops
    /// need nothing: a standing bound stays a valid upper bound, exactly
    /// like the store's segment bounds.
    pub fn note_score_raise(&mut self, slot: Slot, values: &[ValueId], score: u64) {
        for (a, &v) in values.iter().enumerate() {
            self.lists[a][v.index()].raise_block_bound(slot, score);
        }
    }

    /// Notes the deletion of `slot` (which carried `values`), updating
    /// tombstone counters and compacting lists that crossed the threshold.
    pub fn delete(&mut self, slot: Slot, values: &[ValueId], store: &StoreCore) {
        for (a, &v) in values.iter().enumerate() {
            let list = &mut self.lists[a][v.index()];
            list.dead += 1;
            let len = list.slots.len();
            if len >= COMPACT_MIN_LEN && (list.dead as f64) > COMPACT_DEAD_FRACTION * len as f64 {
                Self::compact(list, a, v, store);
            }
        }
        let _ = slot; // identity not needed: compaction revalidates by value.
    }

    fn compact(list: &mut PostingList, attr_idx: usize, value: ValueId, store: &StoreCore) {
        list.slots.retain(|&s| store.is_alive(s) && store.value_at(attr_idx, s) == value.0);
        list.slots.sort_unstable();
        list.slots.dedup();
        list.dead = 0;
        list.rebuild_runs();
        // Every survivor just revalidated, so its store score is its own:
        // the block-max directory rebuilds exactly (loose bounds from
        // deletes and score-drops drop out here, mirroring the store's
        // `recompute_segment_bound`).
        list.rebuild_blocks(store);
        list.sorted = true;
    }

    /// Budgeted maintenance sweep: compacts every posting list that
    /// carries tombstones or slot-reuse dirt — purging dead entries and
    /// rebuilding the segment-run skip metadata — in deterministic
    /// `(attr, value)` order until `budget` postings have been scanned.
    /// Lists below the reactive [`COMPACT_DEAD_FRACTION`] threshold get
    /// cleaned here too: under sustained churn no single list may ever
    /// cross the threshold while the *sum* of tombstones keeps every
    /// scan paying rent.
    ///
    /// Purely an index rewrite — scans already filter tombstones through
    /// the store, so query answers are bit-identical before and after
    /// (pinned by `compaction_oracle_proptest`).
    pub fn maintain(&mut self, store: &StoreCore, budget: &mut usize) -> IndexMaintenance {
        let mut report = IndexMaintenance::default();
        for (a, attr_lists) in self.lists.iter_mut().enumerate() {
            for (v, list) in attr_lists.iter_mut().enumerate() {
                if list.dead == 0 && (list.sorted || list.slots.is_empty()) {
                    continue;
                }
                let cost = list.slots.len();
                if cost > *budget {
                    // Skip (don't abort): one oversized list must not
                    // starve every smaller dirty list after it — those
                    // would otherwise pay tombstone-scan rent forever
                    // while the budget went unspent.
                    report.exhausted = true;
                    continue;
                }
                *budget -= cost;
                let before = list.slots.len();
                Self::compact(list, a, ValueId(v as u32), store);
                report.lists_compacted += 1;
                report.postings_scanned += before;
                report.postings_purged += before - list.slots.len();
            }
        }
        report
    }

    /// Estimated number of live postings for `(attr, value)` — an upper
    /// bound used to pick the cheapest list to drive an intersection.
    pub fn estimated_len(&self, attr: AttrId, value: ValueId) -> usize {
        self.lists[attr.index()][value.index()].live_len_estimate()
    }

    /// Sorts the posting list for `(attr, value)` if an out-of-order
    /// append (slot reuse) left it dirty. Amortised cost: appends are
    /// ascending in the common case, so this is usually a flag check.
    pub fn ensure_sorted(&mut self, attr: AttrId, value: ValueId) {
        self.lists[attr.index()][value.index()].ensure_sorted();
    }

    /// Sorted view of the posting list for `(attr, value)` with its
    /// segment-run skip metadata. Call [`InvertedIndex::ensure_sorted`]
    /// first; panics (debug) if the list is dirty.
    pub fn sorted_postings(&self, attr: AttrId, value: ValueId) -> SortedPostings<'_> {
        let list = &self.lists[attr.index()][value.index()];
        debug_assert!(
            list.sorted || list.slots.is_empty(),
            "sorted_postings on a dirty list — call ensure_sorted first"
        );
        SortedPostings { slots: &list.slots, runs: &list.runs, blocks: &list.blocks }
    }

    /// Scans the posting list for `(attr, value)`, invoking `f` for every
    /// slot that is alive *and still carries the value* (tombstone-safe),
    /// each exactly once.
    ///
    /// Duplicates can only arise when a slot appears twice in one list:
    /// that happens iff the slot was freed and re-inserted with the same
    /// value while the stale posting was still present (both postings then
    /// pass re-validation). A list with no recorded tombstones cannot hold
    /// duplicates, so the common case pays nothing. When duplicates are
    /// possible, suppression is a linear probe for short lists and a
    /// `HashSet` beyond [`DEDUP_LINEAR_MAX`] — the previous
    /// `Vec::contains` scheme degraded to O(n²) on long tombstoned lists.
    ///
    /// (Test-only since the segment engine took over the production
    /// scans; the tests keep it as an order-insensitive reference for
    /// the sorted-run paths.)
    #[cfg(test)]
    pub fn for_each_live(
        &self,
        attr: AttrId,
        value: ValueId,
        store: &StoreCore,
        mut f: impl FnMut(Slot),
    ) {
        let list = &self.lists[attr.index()][value.index()];
        if list.dead == 0 {
            for &s in &list.slots {
                if store.is_alive(s) && store.value_at(attr.index(), s) == value.0 {
                    f(s);
                }
            }
            return;
        }
        // Size the seen-set by the *live* estimate, not the raw list
        // length: on a heavily tombstoned list (dead ≈ 40 % right before
        // compaction) sizing by `slots.len()` over-allocated the `HashSet`
        // by almost half, and could pick the hash path when the live
        // candidate count actually fits the cheaper linear probe.
        let mut seen = SeenSlots::with_expected(list.live_len_estimate());
        for &s in &list.slots {
            if store.is_alive(s) && store.value_at(attr.index(), s) == value.0 && seen.insert(s) {
                f(s);
            }
        }
    }

    /// Every posting list that differs from the default empty state, as
    /// `(attr index, value index, list)` in deterministic `(attr, value)`
    /// order — the codec's snapshot walk. Lists are persisted *verbatim*
    /// (tombstones, dirty flags, directories and all) so a restored
    /// index is byte-equivalent to the snapshotted one and evolves
    /// identically from there.
    pub(crate) fn lists_for_snapshot(
        &self,
    ) -> impl Iterator<Item = (usize, usize, &PostingList)> + '_ {
        self.lists.iter().enumerate().flat_map(|(a, attr_lists)| {
            attr_lists.iter().enumerate().filter_map(move |(v, list)| {
                let nontrivial = !list.slots.is_empty()
                    || list.dead > 0
                    || !list.runs.is_empty()
                    || !list.blocks.is_empty();
                nontrivial.then_some((a, v, list))
            })
        })
    }

    /// Rebuilds an index from restored snapshot lists (codec v2). Lists
    /// not named keep the default empty state, exactly as
    /// [`InvertedIndex::new`] makes them.
    pub(crate) fn from_restored(schema: &Schema, lists: Vec<(usize, usize, PostingList)>) -> Self {
        let mut idx = Self::new(schema);
        for (a, v, list) in lists {
            idx.lists[a][v] = list;
        }
        idx
    }

    /// Fully rebuilds the index from the store's alive occupants: one
    /// ascending slot pass per attribute, reading that attribute's column
    /// segment by segment, so every list comes out sorted with its
    /// segment runs and block directory in place. Builds the index of a
    /// bulk load ([`crate::database::HiddenDatabase::from_tuples`]).
    pub fn rebuild(&mut self, store: &StoreCore) {
        for (a, attr_lists) in self.lists.iter_mut().enumerate() {
            for list in attr_lists.iter_mut() {
                list.slots.clear();
                list.runs.clear();
                list.blocks.clear();
                list.dead = 0;
                list.sorted = false;
            }
            for seg in 0..store.segment_count() {
                let data = store.seg_view(seg);
                let base = (seg * SEGMENT_SLOTS) as Slot;
                let rows = data.alive.iter().zip(&data.columns[a]).zip(&data.scores);
                for (off, ((&alive, &v), &score)) in rows.enumerate() {
                    if alive {
                        attr_lists[v as usize].push(base + off as Slot, score);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Store;
    use crate::tuple::Tuple;
    use crate::value::TupleKey;

    fn setup() -> (Schema, Store, InvertedIndex) {
        let schema = Schema::with_domain_sizes(&[2, 3], &[]).unwrap();
        let store = Store::new(2, 0);
        let index = InvertedIndex::new(&schema);
        (schema, store, index)
    }

    fn ins(store: &mut Store, index: &mut InvertedIndex, key: u64, vals: &[u32]) -> Slot {
        let values: Vec<ValueId> = vals.iter().map(|&v| ValueId(v)).collect();
        let slot = store.insert(Tuple::new(TupleKey(key), values.clone(), vec![]), key).unwrap();
        index.insert(slot, &values, key);
        slot
    }

    fn collect(index: &InvertedIndex, store: &Store, a: u16, v: u32) -> Vec<Slot> {
        let mut out = Vec::new();
        index.for_each_live(AttrId(a), ValueId(v), store, |s| out.push(s));
        out.sort_unstable();
        out
    }

    #[test]
    fn insert_then_scan() {
        let (_s, mut store, mut index) = setup();
        let s0 = ins(&mut store, &mut index, 1, &[0, 2]);
        let s1 = ins(&mut store, &mut index, 2, &[0, 1]);
        let _ = ins(&mut store, &mut index, 3, &[1, 2]);
        assert_eq!(collect(&index, &store, 0, 0), vec![s0, s1]);
        assert_eq!(collect(&index, &store, 1, 2).len(), 2);
        assert_eq!(collect(&index, &store, 1, 0), Vec::<Slot>::new());
    }

    #[test]
    fn delete_hides_tuple_without_compaction() {
        let (_s, mut store, mut index) = setup();
        let values = vec![ValueId(0), ValueId(1)];
        let slot = store.insert(Tuple::new(TupleKey(1), values.clone(), vec![]), 1).unwrap();
        index.insert(slot, &values, 1);
        store.delete(TupleKey(1)).unwrap();
        index.delete(slot, &values, &store);
        assert!(collect(&index, &store, 0, 0).is_empty());
    }

    #[test]
    fn slot_reuse_with_different_value_is_filtered() {
        let (_s, mut store, mut index) = setup();
        let v_old = vec![ValueId(0), ValueId(0)];
        let slot = store.insert(Tuple::new(TupleKey(1), v_old.clone(), vec![]), 1).unwrap();
        index.insert(slot, &v_old, 1);
        store.delete(TupleKey(1)).unwrap();
        index.delete(slot, &v_old, &store);
        // Reuse the same slot with a different A0 value.
        let v_new = vec![ValueId(1), ValueId(0)];
        let slot2 = store.insert(Tuple::new(TupleKey(2), v_new.clone(), vec![]), 2).unwrap();
        assert_eq!(slot, slot2);
        index.insert(slot2, &v_new, 2);
        // Old posting for (A0,u0) must not resurrect the new occupant.
        assert!(collect(&index, &store, 0, 0).is_empty());
        assert_eq!(collect(&index, &store, 0, 1), vec![slot2]);
    }

    #[test]
    fn slot_reuse_with_same_value_does_not_duplicate() {
        let (_s, mut store, mut index) = setup();
        let vals = vec![ValueId(1), ValueId(2)];
        let slot = store.insert(Tuple::new(TupleKey(1), vals.clone(), vec![]), 1).unwrap();
        index.insert(slot, &vals, 1);
        store.delete(TupleKey(1)).unwrap();
        index.delete(slot, &vals, &store);
        let slot2 = store.insert(Tuple::new(TupleKey(2), vals.clone(), vec![]), 2).unwrap();
        assert_eq!(slot, slot2);
        index.insert(slot2, &vals, 2);
        // The stale and fresh postings both point at the same alive slot
        // carrying the same value; the scan must yield it exactly once.
        assert_eq!(collect(&index, &store, 0, 1), vec![slot2]);
    }

    #[test]
    fn heavily_tombstoned_list_dedups_through_the_small_probe() {
        // A list with many tombstones but few live entries must stay
        // exact now that the seen-set is sized by `live_len_estimate()`
        // (≤ DEDUP_LINEAR_MAX → the linear Vec probe) — including a
        // reused slot that appears twice and must surface once.
        let (_s, mut store, mut index) = setup();
        // 30 tuples in (A0,u1); delete 25 — under COMPACT_MIN_LEN, so no
        // compaction: 30 postings, 25 tombstones, live estimate 5.
        for key in 0..30u64 {
            ins(&mut store, &mut index, key, &[1, 0]);
        }
        for key in 0..25u64 {
            let slot = store.slot_of(TupleKey(key)).unwrap();
            store.delete(TupleKey(key)).unwrap();
            index.delete(slot, &[ValueId(1), ValueId(0)], &store);
        }
        // Reuse a freed slot with the same value: its stale and fresh
        // postings both revalidate.
        let reused = ins(&mut store, &mut index, 100, &[1, 0]);
        let live = collect(&index, &store, 0, 1);
        assert_eq!(live.len(), 6);
        assert_eq!(live.iter().filter(|&&s| s == reused).count(), 1, "reused slot deduped");
    }

    #[test]
    fn compaction_keeps_results_correct() {
        let (_s, mut store, mut index) = setup();
        // Insert enough tuples into one list to trigger compaction.
        for key in 0..200u64 {
            ins(&mut store, &mut index, key, &[0, (key % 3) as u32]);
        }
        // Delete most of them.
        for key in 0..150u64 {
            let vals = vec![ValueId(0), ValueId((key % 3) as u32)];
            let slot = store.slot_of(TupleKey(key)).unwrap();
            store.delete(TupleKey(key)).unwrap();
            index.delete(slot, &vals, &store);
        }
        let live = collect(&index, &store, 0, 0);
        assert_eq!(live.len(), 50);
        for s in live {
            assert!(store.is_alive(s));
            assert!(store.key_at(s).0 >= 150);
        }
    }

    #[test]
    fn gallop_to_finds_lower_bounds() {
        let slots: Vec<Slot> = vec![2, 5, 5, 9, 14, 20, 33, 34, 90];
        for target in 0..100u32 {
            for from in 0..=slots.len() {
                let want = from + slots[from..].partition_point(|&s| s < target);
                assert_eq!(gallop_to(&slots, from, target), want, "target {target} from {from}");
            }
        }
        assert_eq!(gallop_to(&[], 0, 5), 0);
    }

    #[test]
    fn appends_keep_lists_sorted_and_runs_coherent() {
        let (_s, mut store, mut index) = setup();
        for key in 0..40u64 {
            ins(&mut store, &mut index, key, &[0, (key % 3) as u32]);
        }
        // Ascending appends: already sorted, no work needed.
        index.ensure_sorted(AttrId(0), ValueId(0));
        let view = index.sorted_postings(AttrId(0), ValueId(0));
        assert_eq!(view.len(), 40);
        assert!(view.slots().windows(2).all(|w| w[0] <= w[1]));
        let runs: Vec<(usize, usize)> = view.runs().map(|(seg, run)| (seg, run.len())).collect();
        assert_eq!(runs, vec![(0, 40)], "one segment at this size");
        assert_eq!(view.run_in(0).len(), 40);
        assert!(view.run_in(7).is_empty());
    }

    #[test]
    fn slot_reuse_dirties_then_resorts_with_adjacent_duplicates() {
        let (_s, mut store, mut index) = setup();
        for key in 0..10u64 {
            ins(&mut store, &mut index, key, &[1, 0]);
        }
        // Free slot 3 and re-insert with the same value: the stale and
        // fresh postings must end up adjacent after the lazy sort.
        let slot = store.slot_of(TupleKey(3)).unwrap();
        store.delete(TupleKey(3)).unwrap();
        index.delete(slot, &[ValueId(1), ValueId(0)], &store);
        let reused = ins(&mut store, &mut index, 99, &[1, 0]);
        assert_eq!(reused, slot);
        index.ensure_sorted(AttrId(0), ValueId(1));
        let view = index.sorted_postings(AttrId(0), ValueId(1));
        assert!(view.slots().windows(2).all(|w| w[0] <= w[1]));
        // dedup collapses the double posting entirely.
        assert_eq!(view.slots().iter().filter(|&&s| s == reused).count(), 1);
    }

    #[test]
    fn maintain_purges_tombstones_below_the_reactive_threshold() {
        let (_s, mut store, mut index) = setup();
        // 30 postings, 10 tombstones: under COMPACT_MIN_LEN and under the
        // dead fraction, so the reactive path never compacts this list.
        for key in 0..30u64 {
            ins(&mut store, &mut index, key, &[1, 0]);
        }
        for key in 0..10u64 {
            let slot = store.slot_of(TupleKey(key)).unwrap();
            store.delete(TupleKey(key)).unwrap();
            index.delete(slot, &[ValueId(1), ValueId(0)], &store);
        }
        let live_before = collect(&index, &store, 0, 1);
        let mut budget = usize::MAX;
        let report = index.maintain(&store, &mut budget);
        assert!(report.lists_compacted >= 1);
        assert_eq!(report.postings_purged, 20, "10 from (A0,u1) and 10 from (A1,u0)");
        assert!(!report.exhausted);
        assert_eq!(collect(&index, &store, 0, 1), live_before, "scan results unchanged");
        // Everything clean: a second sweep finds no work.
        let report = index.maintain(&store, &mut budget);
        assert_eq!(report, IndexMaintenance::default());
        // A zero budget does nothing but report exhaustion when dirty.
        for key in 30..32u64 {
            ins(&mut store, &mut index, key, &[1, 0]);
        }
        let slot = store.slot_of(TupleKey(30)).unwrap();
        store.delete(TupleKey(30)).unwrap();
        index.delete(slot, &[ValueId(1), ValueId(0)], &store);
        let mut none = 0usize;
        let report = index.maintain(&store, &mut none);
        assert!(report.exhausted);
        assert_eq!(report.lists_compacted, 0);
    }

    /// Exact truth for one list's block-max directory: for every block,
    /// the max store score over postings that are alive and still carry
    /// the value (the same revalidation `compact` applies).
    fn exact_blocks(index: &InvertedIndex, store: &Store, a: u16, v: u32) -> Vec<(u32, u64)> {
        let mut by_block: Vec<(u32, u64)> = Vec::new();
        index.for_each_live(AttrId(a), ValueId(v), store, |s| {
            let blk = block_of(s) as u32;
            let score = store.score_at(s);
            match by_block.binary_search_by_key(&blk, |&(b, _)| b) {
                Ok(i) => by_block[i].1 = by_block[i].1.max(score),
                Err(i) => by_block.insert(i, (blk, score)),
            }
        });
        by_block
    }

    /// Index sibling of the store's exact-after-recompute test: per-list
    /// block bounds never understate under churn, and a maintenance
    /// compaction rebuilds them exactly from revalidated postings.
    #[test]
    fn list_block_bounds_never_understate_and_compact_exactly() {
        let (schema, mut store, mut index) = setup();
        // Three blocks' worth of postings in (A0,u1), score == key.
        let n = (3 * BLOCK_SLOTS) as u64;
        for key in 0..n {
            ins(&mut store, &mut index, key, &[1, (key % 3) as u32]);
        }
        index.ensure_sorted(AttrId(0), ValueId(1));
        let view = index.sorted_postings(AttrId(0), ValueId(1));
        assert_eq!(view.blocks().len(), 3);
        assert_eq!(view.block_bound(0), Some(BLOCK_SLOTS as u64 - 1));
        assert_eq!(view.block_bound(2), Some(n - 1));
        assert_eq!(view.block_bound(3), None, "no postings past block 2");
        assert_eq!(view.block_run(1).len(), BLOCK_SLOTS);
        assert!(view.block_run(1).iter().all(|&s| block_of(s) == 1));
        // Delete block 2's top scorers: bounds go loose but must keep
        // covering every surviving posting's score.
        for key in (n - 8)..n {
            let slot = store.slot_of(TupleKey(key)).unwrap();
            store.delete(TupleKey(key)).unwrap();
            index.delete(slot, &[ValueId(1), ValueId((key % 3) as u32)], &store);
        }
        let view = index.sorted_postings(AttrId(0), ValueId(1));
        assert_eq!(view.block_bound(2), Some(n - 1), "lazy bound left standing");
        for (blk, exact) in exact_blocks(&index, &store, 0, 1) {
            assert!(
                view.block_bound(blk).unwrap() >= exact,
                "block {blk}: bound understates {exact}"
            );
        }
        // An unbudgeted maintenance sweep rebuilds every directory
        // exactly — loose bounds drop out, empty blocks disappear.
        let mut budget = usize::MAX;
        index.maintain(&store, &mut budget);
        for a in 0..2u16 {
            for v in 0..schema.domain_size(AttrId(a)) {
                index.ensure_sorted(AttrId(a), ValueId(v));
                let view = index.sorted_postings(AttrId(a), ValueId(v));
                assert_eq!(
                    view.blocks().to_vec(),
                    exact_blocks(&index, &store, a, v),
                    "A{a}=u{v}: blocks not exact after maintain"
                );
            }
        }
        let view = index.sorted_postings(AttrId(0), ValueId(1));
        assert_eq!(view.block_bound(2), Some(n - 9), "rebuilt exactly");
    }

    #[test]
    fn rebuild_matches_incremental() {
        let (schema, mut store, mut index) = setup();
        for key in 0..60u64 {
            ins(&mut store, &mut index, key, &[(key % 2) as u32, (key % 3) as u32]);
        }
        for key in (0..60u64).step_by(3) {
            let slot = store.slot_of(TupleKey(key)).unwrap();
            let vals = vec![ValueId((key % 2) as u32), ValueId((key % 3) as u32)];
            store.delete(TupleKey(key)).unwrap();
            index.delete(slot, &vals, &store);
        }
        let mut rebuilt = InvertedIndex::new(&schema);
        rebuilt.rebuild(&store);
        for a in 0..2u16 {
            for v in 0..schema.domain_size(AttrId(a)) {
                assert_eq!(
                    collect(&index, &store, a, v),
                    collect(&rebuilt, &store, a, v),
                    "mismatch at A{a}=u{v}"
                );
            }
        }
    }
}
