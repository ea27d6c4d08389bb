//! Interface-side counters, useful for experiments and benches.

/// Counters describing the traffic a database has served.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InterfaceStats {
    /// Total queries answered (including memoised ones).
    pub answered: u64,
    /// Queries that overflowed.
    pub overflows: u64,
    /// Queries answered with a complete (valid) page.
    pub valids: u64,
    /// Queries that underflowed.
    pub underflows: u64,
    /// Answers served from the per-version memo cache.
    pub cache_hits: u64,
}

impl InterfaceStats {
    /// Fraction of answers served from cache, in `[0,1]`.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.answered == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.answered as f64
        }
    }
}

/// Counters describing which paths the evaluation engine took — useful
/// for benches and for tests asserting a strategy actually engaged.
/// Like [`InterfaceStats::cache_hits`] these depend on the memo policy
/// (a memo hit skips evaluation entirely); they are deterministic for a
/// fixed policy and workload.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Root (`SELECT *`) segment scans.
    pub root_scans: u64,
    /// Single-predicate posting-list scans.
    pub single_scans: u64,
    /// Multi-predicate evaluations that galloped the two rarest lists.
    pub gallop_intersections: u64,
    /// Multi-predicate evaluations that used per-segment bitsets.
    pub bitset_intersections: u64,
    /// Multi-predicate evaluations on the k-way block-max engine
    /// ([`crate::IntersectPolicy::BlockMax`], or `Auto` at 3+
    /// predicates).
    pub blockmax_intersections: u64,
    /// Scans stopped early by the overflow + heap-floor proof.
    pub early_exits: u64,
    /// Segments (or posting runs) never visited thanks to early exits.
    pub segments_skipped: u64,
    /// Candidate blocks the block-max engine actually intersected.
    pub blocks_scanned: u64,
    /// Candidate blocks skipped whole because their combined bound could
    /// not beat the top-`k` floor.
    pub blocks_skipped: u64,
    /// Galloping cursor advances on the block-max sparse path (one per
    /// non-pivot list consulted per pivot slot).
    pub pivot_advances: u64,
}

/// Counters describing the query memo's lifecycle: what the invalidation
/// policy dropped, what the admission policy evicted, and what the
/// cross-round revalidation path saved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Entries admitted into the memo.
    pub insertions: u64,
    /// Entries dropped by postings-aware incremental invalidation.
    pub invalidated: u64,
    /// Entries that survived at least one incremental invalidation pass
    /// (summed over passes: an entry surviving `n` mutations counts `n`
    /// times — the "warm rounds saved" currency).
    pub retained: u64,
    /// Entries evicted by the bounded admission (CLOCK) policy.
    pub evicted: u64,
    /// Whole-memo clears: `set_k` and invalidation-policy switches, the
    /// two changes that can affect every cached entry.
    pub wholesale_clears: u64,
    /// Overflow entries demoted to `Stale` (kept for revalidation)
    /// instead of being dropped by an invalidation pass.
    pub demoted: u64,
    /// Stale entries resurrected by the lookup-time score/bound re-check
    /// — each one a full re-scan saved.
    pub resurrected: u64,
    /// Stale entries whose re-check failed at lookup (dropped, then
    /// re-evaluated from cold).
    pub revalidation_failed: u64,
}

/// Counters of the shared concurrent memo serving every session of a
/// [`crate::service::DbService`]. Keyed by `(epoch, query)`, entries are
/// immutable — there is no invalidation to count, only lookups and
/// admission control.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharedMemoStats {
    /// Lookups answered from the shared cache.
    pub hits: u64,
    /// Lookups that fell through to snapshot evaluation.
    pub misses: u64,
    /// Entries admitted.
    pub insertions: u64,
    /// Older-epoch entries retired to make room in a full shard.
    pub retired: u64,
    /// Admissions skipped because a shard stayed full of
    /// same-or-newer-epoch entries (correctness-neutral).
    pub admissions_skipped: u64,
}

impl SharedMemoStats {
    /// Fraction of lookups served from the shared cache, in `[0,1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Counters describing the persistence tier's paging activity
/// ([`crate::database::HiddenDatabase::persist_stats`]). All zeros when
/// no tier is attached. Like the eval counters these are observability,
/// not semantics: paging never changes an answer bit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PersistStats {
    /// Segments written back and evicted from the writer's in-core set.
    pub segments_spilled: u64,
    /// Segments read back from the region file (write-path reclaims and
    /// read-path cache misses; cache hits don't count). Each fault reads
    /// and decodes a whole region. Per-slot reads over a result page
    /// (materialisation, memo revalidation) walk slots in ascending
    /// order, so one such pass faults each segment at most once; page
    /// ranking reads no store data at all.
    pub segments_faulted: u64,
    /// Entries dropped from the pager's read cache by its CLOCK sweep.
    pub evictions: u64,
    /// Bytes occupied by the region file (header + every region ever
    /// written).
    pub bytes_on_disk: u64,
    /// Segments in memory right now (writer in-core + read cache).
    pub resident_segments: u64,
    /// High-water mark of `resident_segments` — what the
    /// `resident_memory_bounded` bench flag compares against the budget.
    pub peak_resident_segments: u64,
}

/// Counters accumulated across [`crate::database::HiddenDatabase::maintain`]
/// calls: what the segment compaction subsystem has done so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintenanceStats {
    /// `maintain`/`compact` invocations.
    pub maintain_calls: u64,
    /// Store segments whose score bound was recomputed exactly.
    pub segments_recomputed: u64,
    /// Recomputes that actually tightened a bound.
    pub bounds_tightened: u64,
    /// Posting lists compacted (tombstones purged, runs rebuilt).
    pub lists_compacted: u64,
    /// Tombstoned/duplicate postings removed from lists.
    pub postings_purged: u64,
    /// Slots/postings scanned by maintenance sweeps (the budget
    /// currency).
    pub slots_scanned: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate() {
        let mut s = InterfaceStats::default();
        assert_eq!(s.cache_hit_rate(), 0.0);
        s.answered = 4;
        s.cache_hits = 1;
        assert!((s.cache_hit_rate() - 0.25).abs() < 1e-12);
    }
}
