//! The restrictive search interface: outcome classification and the
//! evaluation engine behind it.
//!
//! Per §2.1, a query returns at most `k` tuples. We classify:
//! * **underflow** — no tuple matches (empty result page);
//! * **valid** — between 1 and `k` tuples match; all are returned;
//! * **overflow** — more than `k` match; only the top-`k` by the hidden
//!   scoring function are returned, with a "more results" indicator.
//!
//! Crucially the interface does **not** disclose the matching count — the
//! whole point of the paper is estimating aggregates without it.
//!
//! ## Evaluation is streaming and allocation-lean
//!
//! Every engine path pushes matching slots one at a time into the
//! streaming [`TopK`] heap, so no intermediate `Vec<Slot>` of candidates
//! is materialised. Result pages are materialised into [`TupleView`]s
//! **once** per cache entry and shared behind an `Arc`, so repeated
//! (memoised) answers to the same query cost one atomic increment
//! instead of `k` fresh allocations. Cache entries can *outlive
//! mutations*: the memo's postings-aware invalidation (see
//! [`crate::memo`]'s module docs) drops exactly the entries whose result
//! set a mutation can have changed, so a shared page is only ever served
//! while every slot it references is untouched.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use crate::query::ConjunctiveQuery;
use crate::store::{Slot, StoreCore};
use crate::tuple::TupleView;
use crate::value::TupleKey;

/// The classification of an answer, without its payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OutcomeClass {
    /// No tuple matched.
    Underflow,
    /// 1..=k tuples matched; the page is complete.
    Valid,
    /// More than `k` matched; the page is truncated.
    Overflow,
}

/// The interface's answer to one search query.
///
/// Result pages are shared (`Arc`) with the database's memo cache:
/// cloning an outcome, and re-asking a memoised query, are O(1).
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutcome {
    /// No tuple matched.
    Underflow,
    /// All matching tuples (1..=k of them), ranked best-first.
    Valid(Arc<[TupleView]>),
    /// More than `k` tuples matched; the top-`k` by hidden score,
    /// best-first.
    Overflow(Arc<[TupleView]>),
}

impl QueryOutcome {
    /// Whether the query overflowed (returned a truncated page).
    pub fn is_overflow(&self) -> bool {
        matches!(self, Self::Overflow(_))
    }

    /// Whether the query underflowed (empty page).
    pub fn is_underflow(&self) -> bool {
        matches!(self, Self::Underflow)
    }

    /// Whether the query is valid (complete, non-empty page).
    pub fn is_valid(&self) -> bool {
        matches!(self, Self::Valid(_))
    }

    /// The outcome's classification, without the payload.
    pub fn class(&self) -> OutcomeClass {
        match self {
            Self::Underflow => OutcomeClass::Underflow,
            Self::Valid(_) => OutcomeClass::Valid,
            Self::Overflow(_) => OutcomeClass::Overflow,
        }
    }

    /// The returned tuples (empty for underflow).
    pub fn tuples(&self) -> &[TupleView] {
        match self {
            Self::Underflow => &[],
            Self::Valid(ts) | Self::Overflow(ts) => ts,
        }
    }

    /// Keys of the returned tuples, best-first — for callers that only
    /// need identity (drill bookkeeping), not values or measures.
    pub fn keys(&self) -> impl Iterator<Item = TupleKey> + '_ {
        self.tuples().iter().map(|t| t.key())
    }

    /// Number of returned tuples (NOT the matching count for overflows).
    pub fn returned_count(&self) -> usize {
        self.tuples().len()
    }
}

/// Raw evaluation result kept in the memo cache: whether the query
/// overflowed, which slots form the page, and (lazily) the materialised
/// page shared with every outcome handed out for this entry.
#[derive(Debug, Clone)]
pub(crate) struct CachedEval {
    pub(crate) overflow: bool,
    /// Result slots, best-first. For overflow: exactly `k`. For valid: all
    /// matches. For underflow: empty. The memo's invalidation also probes
    /// these against a mutation's touched-slot set (belt-and-braces page
    /// check).
    pub(crate) slots: Vec<Slot>,
    /// Matching-tuple count observed at evaluation time (`> k` iff
    /// `overflow`). Internal only — the search interface never discloses
    /// it; the memo's revalidation uses it as the classification margin:
    /// as long as `matched` minus the churn seen since stays above `k`,
    /// the entry provably still overflows.
    pub(crate) matched: usize,
    /// Score of the worst page slot at evaluation time (the page
    /// "floor"); `u64::MAX` for an empty page (`k == 0`), where nothing
    /// can enter. A churned tuple whose score stays *strictly* below the
    /// floor cannot displace any page slot under the total
    /// `(score, key)` order.
    pub(crate) floor: u64,
    /// Materialised page, filled on first demand. Safe to cache because
    /// the memo drops (or demotes and re-checks) this entry before any
    /// mutation that could touch one of `slots` becomes visible: the
    /// mutation's footprint names every touched slot and posting, and
    /// `set_k` or a policy switch clears the whole memo.
    views: Option<Arc<[TupleView]>>,
}

impl CachedEval {
    pub(crate) fn new(overflow: bool, slots: Vec<Slot>) -> Self {
        let matched = slots.len() + usize::from(overflow);
        Self { overflow, slots, matched, floor: 0, views: None }
    }

    /// The outcome, materialising tuple views on first use and sharing
    /// them on every subsequent cache hit.
    pub(crate) fn outcome(&mut self, store: &StoreCore) -> QueryOutcome {
        if self.slots.is_empty() {
            return QueryOutcome::Underflow;
        }
        let views =
            self.views.get_or_insert_with(|| store.views_in_slot_order(&self.slots)).clone();
        if self.overflow {
            QueryOutcome::Overflow(views)
        } else {
            QueryOutcome::Valid(views)
        }
    }
}

/// Streaming top-`k` accumulator: the heart of query evaluation.
///
/// Candidates are [`TopK::offer`]ed one at a time (already verified to
/// match the query and be alive); the accumulator tracks the match count
/// and the best `k` by `(score, key)` — score descending, ties broken by
/// tuple key descending, the order [`crate::ranking::ScoringPolicy`]
/// documents. Keys are unique among alive tuples, so this is a total
/// order that does not depend on which slot holds a tuple. Between
/// batches of candidates the driver may consult [`TopK::can_stop`] with
/// an upper bound on every remaining candidate's score — once the query
/// has provably overflowed *and* the heap floor beats that bound, the
/// rest of the scan cannot change the returned page, so evaluation stops
/// early. The resulting [`CachedEval`] is **bit-identical** to an
/// exhaustive scan: the top-`k` set under a total order does not depend
/// on candidate arrival order, and the overflow classification is
/// already decided when an early exit fires.
pub(crate) struct TopK {
    /// `(score, key, slot)`, min-first: the root is the page floor.
    heap: BinaryHeap<Reverse<(u64, u64, Slot)>>,
    k: usize,
    matched: usize,
}

impl TopK {
    pub(crate) fn new(k: usize) -> Self {
        Self { heap: BinaryHeap::with_capacity(k), k, matched: 0 }
    }

    /// Accounts one matching candidate. `key` yields the candidate's
    /// tuple key; it is called only when the candidate's score is at
    /// least the floor's, so a loser costs one comparison and no key
    /// read. A winner replaces the floor in place (one sift-down).
    #[inline]
    pub(crate) fn offer(&mut self, score: u64, slot: Slot, key: impl FnOnce() -> u64) {
        self.matched += 1;
        if self.heap.len() < self.k {
            self.heap.push(Reverse((score, key(), slot)));
            return;
        }
        // Full (or k == 0, where nothing enters): beat the floor or leave.
        // `PeekMut` sifts down only if written through.
        let Some(mut floor) = self.heap.peek_mut() else { return };
        let Reverse((floor_score, floor_key, _)) = *floor;
        if score < floor_score {
            return;
        }
        let key = key();
        if score > floor_score || key > floor_key {
            *floor = Reverse((score, key, slot));
        }
    }

    /// [`TopK::offer`] for the alive candidate at `slot`, reading its
    /// score (and, past the floor, its key) from the store.
    #[inline]
    pub(crate) fn offer_slot(&mut self, store: &StoreCore, slot: Slot) {
        self.offer(store.score_at(slot), slot, || store.key_at(slot).0);
    }

    /// Whether the query has already provably overflowed — the cheap
    /// pre-condition of [`TopK::can_stop`], split out so drivers can
    /// defer computing their remaining-score bound until it can matter.
    #[inline]
    pub(crate) fn overflowed(&self) -> bool {
        self.matched > self.k
    }

    /// Whether the scan may stop: the query has overflowed (`matched > k`
    /// pins the classification) and no remaining candidate can enter the
    /// page. `remaining_bound` must be `>=` the score of every candidate
    /// not yet offered; the comparison is strict because a remaining
    /// candidate whose score *equals* the floor could still displace it
    /// on the key tie-break.
    #[inline]
    pub(crate) fn can_stop(&self, remaining_bound: u64) -> bool {
        self.overflowed()
            && match self.heap.peek() {
                Some(&Reverse((floor, _, _))) => remaining_bound < floor,
                // k == 0: the page is empty no matter what remains.
                None => true,
            }
    }

    /// Materialises the evaluation: page slots best-first — score
    /// descending, ties by key descending — plus the match count and
    /// page floor (the last entry's score) the memo's revalidation
    /// anchors on. Ranks from the heap's own `(score, key, slot)`
    /// entries, so it reads no store data: on a paged store, a lookup
    /// per comparison would fault segments in page-rank order.
    pub(crate) fn finish(self) -> CachedEval {
        // Ascending `Reverse(..)` is descending `(score, key, slot)`.
        let ranked = self.heap.into_sorted_vec();
        let floor = ranked.last().map_or(u64::MAX, |&Reverse((score, _, _))| score);
        let slots: Vec<Slot> = ranked.into_iter().map(|Reverse((_, _, s))| s).collect();
        let mut eval = CachedEval::new(self.matched > self.k, slots);
        eval.matched = self.matched;
        eval.floor = floor;
        eval
    }
}

/// Whether the (possibly stale) candidate at `slot` is alive and satisfies
/// every predicate — the columnar residual check behind every driver:
/// per predicate, two array loads.
#[inline]
pub(crate) fn slot_matches(query: &ConjunctiveQuery, store: &StoreCore, slot: Slot) -> bool {
    if !store.is_alive(slot) {
        return false;
    }
    query.predicates().iter().all(|p| store.value_at(p.attr.index(), slot) == p.value.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Predicate;
    use crate::store::Store;
    use crate::tuple::Tuple;
    use crate::value::{AttrId, TupleKey, ValueId};

    fn store_with(n: u64) -> Store {
        let mut s = Store::new(1, 0);
        for key in 0..n {
            s.insert(
                Tuple::new(TupleKey(key), vec![ValueId((key % 2) as u32)], vec![]),
                // score = key so ranking is transparent in tests
                key,
            )
            .unwrap();
        }
        s
    }

    /// Ranks the matching `candidates` (dead or non-matching slots are
    /// skipped), as every engine path does.
    fn evaluate(
        q: &ConjunctiveQuery,
        store: &Store,
        k: usize,
        candidates: impl IntoIterator<Item = Slot>,
    ) -> CachedEval {
        let mut topk = TopK::new(k);
        for slot in candidates {
            if slot_matches(q, store, slot) {
                topk.offer_slot(store, slot);
            }
        }
        topk.finish()
    }

    fn eval_all(q: &ConjunctiveQuery, store: &Store, k: usize) -> CachedEval {
        evaluate(q, store, k, store.alive_slots())
    }

    #[test]
    fn underflow_valid_overflow_classification() {
        let store = store_with(5); // A0 values: 0,1,0,1,0
        let root = ConjunctiveQuery::select_all();
        let r = eval_all(&root, &store, 10);
        assert!(!r.overflow);
        assert_eq!(r.slots.len(), 5);

        let r = eval_all(&root, &store, 3);
        assert!(r.overflow);
        assert_eq!(r.slots.len(), 3);

        let none = ConjunctiveQuery::from_predicates([Predicate::new(AttrId(0), ValueId(1))]);
        let empty = Store::new(1, 0);
        let r = evaluate(&none, &empty, 3, std::iter::empty());
        assert!(!r.overflow);
        assert!(r.slots.is_empty());
    }

    #[test]
    fn overflow_returns_top_k_by_score() {
        let store = store_with(10);
        let root = ConjunctiveQuery::select_all();
        let r = eval_all(&root, &store, 4);
        assert!(r.overflow);
        // Scores are the keys; best-first means keys 9,8,7,6.
        let keys: Vec<u64> = r.slots.iter().map(|&s| store.key_at(s).0).collect();
        assert_eq!(keys, vec![9, 8, 7, 6]);
    }

    #[test]
    fn valid_results_are_ranked_best_first_too() {
        let store = store_with(6);
        let q = ConjunctiveQuery::from_predicates([Predicate::new(AttrId(0), ValueId(0))]);
        let r = eval_all(&q, &store, 10);
        assert!(!r.overflow);
        let keys: Vec<u64> = r.slots.iter().map(|&s| store.key_at(s).0).collect();
        assert_eq!(keys, vec![4, 2, 0]);
    }

    #[test]
    fn boundary_exactly_k_matches_is_valid() {
        let store = store_with(4);
        let root = ConjunctiveQuery::select_all();
        let r = eval_all(&root, &store, 4);
        assert!(!r.overflow, "count == k must be valid, not overflow");
        assert_eq!(r.slots.len(), 4);
        let r = eval_all(&root, &store, 3);
        assert!(r.overflow, "count == k+1 must overflow");
    }

    #[test]
    fn dead_slots_are_ignored() {
        let mut store = store_with(4);
        store.delete(TupleKey(3)).unwrap();
        let all: Vec<Slot> = (0..store.slot_bound()).collect();
        let r = evaluate(&ConjunctiveQuery::select_all(), &store, 10, all);
        assert_eq!(r.slots.len(), 3);
    }

    #[test]
    fn can_stop_requires_overflow_and_a_strict_floor() {
        let store = store_with(6); // scores = keys 0..=5
        let mut topk = TopK::new(3);
        for slot in 0..4u32 {
            topk.offer_slot(&store, slot);
        }
        // matched (4) > k (3); floor is score 1 (slots 1,2,3 kept).
        assert!(topk.can_stop(0), "bound below the floor stops");
        assert!(!topk.can_stop(1), "bound equal to the floor must not stop (key tie-break)");
        assert!(!topk.can_stop(5), "bound above the floor must not stop");
        // Not yet overflowed: never stop.
        let mut fresh = TopK::new(3);
        fresh.offer(9, 0, || 0);
        assert!(!fresh.can_stop(0));
        // k == 0: a single match pins the (empty) overflow page.
        let mut zero = TopK::new(0);
        zero.offer(1, 0, || 0);
        assert!(zero.can_stop(u64::MAX));
    }

    /// The ranking `TopK` must produce, by sorting: `(score, key)`
    /// descending, cut to `k`.
    fn sorted_reference(offered: &[(u64, u64, Slot)], k: usize) -> Vec<(u64, u64, Slot)> {
        let mut brute = offered.to_vec();
        brute.sort_unstable_by_key(|&(score, key, _)| Reverse((score, key)));
        brute.truncate(k);
        brute
    }

    fn assert_matches_reference(offered: &[(u64, u64, Slot)], k: usize) {
        let mut topk = TopK::new(k);
        for &(score, key, slot) in offered {
            topk.offer(score, slot, || key);
        }
        let want = sorted_reference(offered, k);
        let eval = topk.finish();
        assert_eq!(eval.slots, want.iter().map(|&(_, _, s)| s).collect::<Vec<_>>(), "k = {k}");
        assert_eq!(eval.floor, want.last().map_or(u64::MAX, |&(score, _, _)| score), "k = {k}");
        assert_eq!(eval.matched, offered.len());
        assert_eq!(eval.overflow, offered.len() > k);
    }

    #[test]
    fn finish_ranks_score_desc_then_key_desc_with_ties() {
        // 40 candidates share 4 scores, offered out of slot order, and
        // their keys run against their slots: heavy ties, so the key
        // tie-break decides most ranks and a slot tie-break would not.
        let offered: Vec<(u64, u64, Slot)> = (0..40u32)
            .map(|i| i * 17 % 40)
            .map(|s| (u64::from(s * 7 % 4), u64::from(1000 - s * 13 % 40), s))
            .collect();
        for k in [0, 1, 5, 13, 40, 50] {
            assert_matches_reference(&offered, k);
        }
    }

    #[test]
    fn losers_never_read_their_key() {
        let mut topk = TopK::new(2);
        topk.offer(10, 0, || 1);
        topk.offer(20, 1, || 2);
        // Below the floor (10): rejected on the score alone.
        topk.offer(5, 2, || panic!("a loser's key was read"));
        // At the floor: the key decides, so it is read; key 0 < 1 loses.
        let mut read = false;
        topk.offer(10, 3, || {
            read = true;
            0
        });
        assert!(read);
        let eval = topk.finish();
        assert_eq!(eval.slots, vec![1, 0]);
        assert_eq!(eval.matched, 4);
    }

    // `finish()` equals a sort-based reference over random streams with
    // heavy score ties, for every `k` including 0.
    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        #[test]
        fn topk_matches_sorted_reference(
            scores in proptest::prelude::prop::collection::vec(0u64..6, 0..120),
            k in 0usize..12,
            salt in 0u64..1000,
        ) {
            // Distinct keys in an order unrelated to slots.
            let offered: Vec<(u64, u64, Slot)> = scores
                .iter()
                .enumerate()
                .map(|(i, &score)| (score, (i as u64 * 7919 + salt) % 100_003, i as Slot))
                .collect();
            assert_matches_reference(&offered, k);
        }
    }

    #[test]
    fn outcome_materialisation() {
        let store = store_with(2);
        let mut r = eval_all(&ConjunctiveQuery::select_all(), &store, 10);
        let out = r.outcome(&store);
        assert!(out.is_valid());
        assert_eq!(out.class(), OutcomeClass::Valid);
        assert_eq!(out.returned_count(), 2);
        assert_eq!(out.tuples()[0].key(), TupleKey(1));
        assert_eq!(out.keys().collect::<Vec<_>>(), vec![TupleKey(1), TupleKey(0)]);

        let mut r = CachedEval::new(false, vec![]);
        let o = r.outcome(&store);
        assert!(o.is_underflow());
        assert_eq!(o.class(), OutcomeClass::Underflow);
    }

    #[test]
    fn repeated_outcomes_share_one_materialisation() {
        let store = store_with(3);
        let mut r = eval_all(&ConjunctiveQuery::select_all(), &store, 10);
        let a = r.outcome(&store);
        let b = r.outcome(&store);
        let (QueryOutcome::Valid(va), QueryOutcome::Valid(vb)) = (&a, &b) else {
            panic!("expected valid outcomes");
        };
        assert!(Arc::ptr_eq(va, vb), "cache hits must share the page");
    }
}
