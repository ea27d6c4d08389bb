//! Snapshot serialisation: save/load a whole database to a compact,
//! self-describing binary format.
//!
//! Generating the larger synthetic populations (Fig 12 runs up to 10⁷
//! tuples) dominates some harness runtimes; snapshots let experiments
//! cache them — and, since format v2, they are the durability unit of
//! the persistence tier ([`crate::persist`]): the journal's checkpoint
//! records are v2 snapshots.
//!
//! **Format v2** captures the *warm* state verbatim, not just the
//! logical tuple set: segment data in slot layout (so slot identity
//! survives a restart), per-segment/per-block max-score bounds and
//! staleness counters (so load skips the full bound recompute), the
//! free list in order (so future slot reuse replays identically), and
//! every posting list byte-for-byte (tombstones, sort flags, segment
//! runs, block-max directories). A restored database doesn't just
//! answer identically — it *evolves* identically under any further
//! mutation stream.
//!
//! Layout (all integers little-endian):
//! `magic "HDBS" | format u32 | k u64 | policy | schema | store | free
//! list | posting lists` — see [`write_snapshot`] for the field-level
//! walk. Reading accepts format v2 only and rejects bad magic, any
//! other version, truncation, and implausible counts with
//! [`io::ErrorKind::InvalidData`] instead of panicking.

use std::io::{self, Read, Write};

use crate::database::HiddenDatabase;
use crate::index::{InvertedIndex, PostingList};
use crate::ranking::ScoringPolicy;
use crate::schema::{AttributeDef, MeasureDef, Schema};
use crate::store::{SegmentData, SegmentMeta, Store, BLOCKS_PER_SEGMENT, SEGMENT_SLOTS};
use crate::value::MeasureId;

const MAGIC: &[u8; 4] = b"HDBS";
const FORMAT_VERSION: u32 = 2;

/// Posting lists longer than this are rejected as corrupt (a real list
/// is bounded by total inserts; this caps hostile allocation).
const MAX_LIST_LEN: usize = 1 << 28;

fn write_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_f64(w: &mut impl Write, v: f64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_str(w: &mut impl Write, s: &str) -> io::Result<()> {
    write_u32(w, s.len() as u32)?;
    w.write_all(s.as_bytes())
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_f64(r: &mut impl Read) -> io::Result<f64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(f64::from_le_bytes(b))
}

fn read_str(r: &mut impl Read) -> io::Result<String> {
    let len = read_u32(r)? as usize;
    if len > 1 << 20 {
        return Err(bad("string length implausible"));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf).map_err(|_| bad("invalid utf-8 in snapshot"))
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn write_policy(w: &mut impl Write, p: ScoringPolicy) -> io::Result<()> {
    match p {
        ScoringPolicy::HashedRandom { salt } => {
            write_u32(w, 0)?;
            write_u64(w, salt)
        }
        ScoringPolicy::ByMeasureDesc(m) => {
            write_u32(w, 1)?;
            write_u32(w, u32::from(m.0))
        }
        ScoringPolicy::ByMeasureAsc(m) => {
            write_u32(w, 2)?;
            write_u32(w, u32::from(m.0))
        }
        ScoringPolicy::NewestFirst => write_u32(w, 3),
    }
}

fn read_policy(r: &mut impl Read) -> io::Result<ScoringPolicy> {
    Ok(match read_u32(r)? {
        0 => ScoringPolicy::HashedRandom { salt: read_u64(r)? },
        1 => ScoringPolicy::ByMeasureDesc(MeasureId(read_u32(r)? as u16)),
        2 => ScoringPolicy::ByMeasureAsc(MeasureId(read_u32(r)? as u16)),
        3 => ScoringPolicy::NewestFirst,
        _ => return Err(bad("unknown scoring policy tag")),
    })
}

fn write_schema(w: &mut impl Write, schema: &Schema) -> io::Result<()> {
    write_u32(w, schema.attr_count() as u32)?;
    for a in schema.attr_ids() {
        let def = schema.attribute(a);
        write_str(w, def.name())?;
        write_u32(w, def.domain_size())?;
    }
    write_u32(w, schema.measure_count() as u32)?;
    for m in 0..schema.measure_count() {
        write_str(w, schema.measure(MeasureId(m as u16)).name())?;
    }
    Ok(())
}

fn read_schema(r: &mut impl Read) -> io::Result<Schema> {
    let attr_count = read_u32(r)? as usize;
    if attr_count > u16::MAX as usize {
        return Err(bad("attribute count implausible"));
    }
    let mut attrs = Vec::with_capacity(attr_count);
    for _ in 0..attr_count {
        let name = read_str(r)?;
        let domain = read_u32(r)?;
        attrs.push(AttributeDef::new(name, domain));
    }
    let measure_count = read_u32(r)? as usize;
    if measure_count > u16::MAX as usize {
        return Err(bad("measure count implausible"));
    }
    let mut measures = Vec::with_capacity(measure_count);
    for _ in 0..measure_count {
        measures.push(MeasureDef::new(read_str(r)?));
    }
    Schema::new(attrs, measures).map_err(|e| bad(&e.to_string()))
}

/// Serialises a full database snapshot into `w` (format v2).
///
/// After the common `magic | format | k | policy | schema` prefix:
/// `alive u64 | allocated u64 | segment count u32`, then per segment
/// `rows u32 | keys | scores | alive bitmap (u64 words) | columns |
/// measures | meta (alive u32, max_score u64, stale_ops u32, block_max)`,
/// then the free list (`count u32 | slots`), then every non-empty
/// posting list (`attr u32 | value u32 | slots | dead u64 | sorted u8 |
/// runs | blocks`).
///
/// `&HiddenDatabase` on purpose: segment data is read through the paged
/// view (an out-of-core database checkpoints without pulling its pool
/// into RAM) and index lists are serialised verbatim, dirty or not.
pub fn write_snapshot(db: &HiddenDatabase, w: &mut impl Write) -> io::Result<()> {
    w.write_all(MAGIC)?;
    write_u32(w, FORMAT_VERSION)?;
    write_u64(w, db.k() as u64)?;
    write_policy(w, db.scoring_policy())?;
    write_schema(w, db.schema())?;
    // Store: segment data in slot layout, plus the summaries.
    let store = db.store_ref();
    write_u64(w, store.len() as u64)?;
    write_u64(w, u64::from(store.slot_bound()))?;
    let seg_count = store.segment_count();
    write_u32(w, seg_count as u32)?;
    for seg in 0..seg_count {
        let data = store.seg_view(seg);
        let rows = data.keys.len();
        write_u32(w, rows as u32)?;
        for &k in &data.keys {
            write_u64(w, k)?;
        }
        for &s in &data.scores {
            write_u64(w, s)?;
        }
        let mut bits = vec![0u64; rows.div_ceil(64)];
        for (i, &a) in data.alive.iter().enumerate() {
            if a {
                bits[i / 64] |= 1 << (i % 64);
            }
        }
        for word in bits {
            write_u64(w, word)?;
        }
        for col in &data.columns {
            for &v in col {
                write_u32(w, v)?;
            }
        }
        for col in &data.measures {
            for &m in col {
                write_f64(w, m)?;
            }
        }
        let meta = &store.metas()[seg];
        write_u32(w, meta.alive)?;
        write_u64(w, meta.max_score)?;
        write_u32(w, meta.stale_ops)?;
        for &b in &meta.block_max {
            write_u64(w, b)?;
        }
    }
    // Free list, order preserved: slot reuse after restore pops the
    // same slots in the same order.
    let free = store.free_slots();
    write_u32(w, free.len() as u32)?;
    for &s in free {
        write_u32(w, s)?;
    }
    // Posting lists, verbatim.
    let lists: Vec<_> = db.index_ref().lists_for_snapshot().collect();
    write_u32(w, lists.len() as u32)?;
    for (a, v, list) in lists {
        write_u32(w, a as u32)?;
        write_u32(w, v as u32)?;
        write_u32(w, list.slots.len() as u32)?;
        for &s in &list.slots {
            write_u32(w, s)?;
        }
        write_u64(w, list.dead as u64)?;
        w.write_all(&[u8::from(list.sorted)])?;
        write_u32(w, list.runs.len() as u32)?;
        for &(seg, off) in &list.runs {
            write_u32(w, seg)?;
            write_u32(w, off)?;
        }
        write_u32(w, list.blocks.len() as u32)?;
        for &(blk, bound) in &list.blocks {
            write_u32(w, blk)?;
            write_u64(w, bound)?;
        }
    }
    Ok(())
}

/// Deserialises a snapshot produced by [`write_snapshot`].
pub fn read_snapshot(r: &mut impl Read) -> io::Result<HiddenDatabase> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(bad("not a hidden-db snapshot (bad magic)"));
    }
    match read_u32(r)? {
        FORMAT_VERSION => read_snapshot_v2(r),
        _ => Err(bad("unsupported snapshot format version")),
    }
}

/// v2 body: warm state verbatim. Every count is validated against the
/// allocation geometry before use, so corrupt or hostile input errors
/// out instead of panicking or over-allocating.
fn read_snapshot_v2(r: &mut impl Read) -> io::Result<HiddenDatabase> {
    let k = read_u64(r)? as usize;
    let policy = read_policy(r)?;
    let schema = read_schema(r)?;
    let (attr_count, measure_count) = (schema.attr_count(), schema.measure_count());
    let alive_total = read_u64(r)?;
    let allocated = read_u64(r)?;
    if allocated > u64::from(u32::MAX) {
        return Err(bad("allocated slot count implausible"));
    }
    let allocated = allocated as usize;
    if alive_total as usize > allocated {
        return Err(bad("alive count exceeds allocation"));
    }
    let seg_count = read_u32(r)? as usize;
    if seg_count != allocated.div_ceil(SEGMENT_SLOTS) {
        return Err(bad("segment count does not match allocation"));
    }
    let mut segs = Vec::with_capacity(seg_count);
    let mut metas = Vec::with_capacity(seg_count);
    let mut alive_sum = 0u64;
    for seg in 0..seg_count {
        let expected_rows = (allocated - seg * SEGMENT_SLOTS).min(SEGMENT_SLOTS);
        let rows = read_u32(r)? as usize;
        if rows != expected_rows {
            return Err(bad("segment row count does not match allocation"));
        }
        let mut data = SegmentData::empty(attr_count, measure_count);
        data.keys = (0..rows).map(|_| read_u64(r)).collect::<io::Result<_>>()?;
        data.scores = (0..rows).map(|_| read_u64(r)).collect::<io::Result<_>>()?;
        let mut alive = Vec::with_capacity(rows);
        for _ in 0..rows.div_ceil(64) {
            let word = read_u64(r)?;
            for b in 0..64 {
                if alive.len() < rows {
                    alive.push(word & (1 << b) != 0);
                }
            }
        }
        data.alive = alive;
        for col in &mut data.columns {
            *col = (0..rows).map(|_| read_u32(r)).collect::<io::Result<_>>()?;
        }
        for col in &mut data.measures {
            *col = (0..rows).map(|_| read_f64(r)).collect::<io::Result<_>>()?;
        }
        let meta_alive = read_u32(r)?;
        let max_score = read_u64(r)?;
        let stale_ops = read_u32(r)?;
        let mut block_max = [0u64; BLOCKS_PER_SEGMENT];
        for b in &mut block_max {
            *b = read_u64(r)?;
        }
        if meta_alive as usize != data.alive.iter().filter(|&&a| a).count() {
            return Err(bad("segment alive count does not match bitmap"));
        }
        alive_sum += u64::from(meta_alive);
        metas.push(SegmentMeta {
            alive: meta_alive,
            max_score,
            stale_ops,
            block_max,
            ref_bit: false,
        });
        segs.push(data);
    }
    if alive_sum != alive_total {
        return Err(bad("alive total does not match segments"));
    }
    let free_len = read_u32(r)? as usize;
    // Every allocated slot is either alive or on the free list.
    if alive_total as usize + free_len != allocated {
        return Err(bad("free list does not account for dead slots"));
    }
    let mut free = Vec::with_capacity(free_len);
    for _ in 0..free_len {
        let s = read_u32(r)?;
        if s as usize >= allocated {
            return Err(bad("free slot out of range"));
        }
        free.push(s);
    }
    let store = Store::from_restored(
        attr_count,
        measure_count,
        segs,
        metas,
        allocated,
        alive_total as usize,
        free,
    )
    .ok_or_else(|| bad("duplicate alive key in snapshot"))?;
    // Posting lists.
    let domains: Vec<usize> = schema.attr_ids().map(|a| schema.domain_size(a) as usize).collect();
    let list_count = read_u32(r)? as usize;
    if list_count > domains.iter().sum::<usize>() {
        return Err(bad("posting list count implausible"));
    }
    let mut lists = Vec::with_capacity(list_count);
    for _ in 0..list_count {
        let a = read_u32(r)? as usize;
        let v = read_u32(r)? as usize;
        if a >= attr_count || v >= domains[a] {
            return Err(bad("posting list out of schema range"));
        }
        let slot_count = read_u32(r)? as usize;
        if slot_count > MAX_LIST_LEN {
            return Err(bad("posting list length implausible"));
        }
        let mut slots = Vec::with_capacity(slot_count.min(1 << 16));
        for _ in 0..slot_count {
            let s = read_u32(r)?;
            if s as usize >= allocated {
                return Err(bad("posting out of slot range"));
            }
            slots.push(s);
        }
        let dead = read_u64(r)? as usize;
        if dead > slot_count {
            return Err(bad("tombstone count exceeds list length"));
        }
        let mut sorted_byte = [0u8; 1];
        r.read_exact(&mut sorted_byte)?;
        let sorted = match sorted_byte[0] {
            0 => false,
            1 => true,
            _ => return Err(bad("invalid sorted flag")),
        };
        let run_count = read_u32(r)? as usize;
        if run_count > seg_count {
            return Err(bad("run directory larger than the store"));
        }
        let mut runs = Vec::with_capacity(run_count);
        for _ in 0..run_count {
            let seg = read_u32(r)?;
            let off = read_u32(r)?;
            if seg as usize >= seg_count || off as usize > slot_count {
                return Err(bad("run entry out of range"));
            }
            runs.push((seg, off));
        }
        let block_count = read_u32(r)? as usize;
        if block_count > seg_count * BLOCKS_PER_SEGMENT {
            return Err(bad("block directory larger than the store"));
        }
        let mut blocks = Vec::with_capacity(block_count);
        for _ in 0..block_count {
            let blk = read_u32(r)?;
            let bound = read_u64(r)?;
            if blk as usize >= seg_count * BLOCKS_PER_SEGMENT {
                return Err(bad("block entry out of range"));
            }
            blocks.push((blk, bound));
        }
        lists.push((a, v, PostingList { slots, dead, sorted, runs, blocks }));
    }
    let index = InvertedIndex::from_restored(&schema, lists);
    Ok(HiddenDatabase::from_restored(schema, k, policy, store, index))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{ConjunctiveQuery, Predicate};
    use crate::tuple::Tuple;
    use crate::updates::UpdateBatch;
    use crate::value::{AttrId, TupleKey, ValueId};
    use rand::{Rng, SeedableRng};

    fn sample_db(n: u64) -> HiddenDatabase {
        let schema = Schema::with_domain_sizes(&[3, 4], &["price", "qty"]).unwrap();
        let mut db = HiddenDatabase::new(schema, 7, ScoringPolicy::default());
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for t in 0..n {
            db.insert(Tuple::new(
                TupleKey(t * 3), // non-contiguous keys
                vec![ValueId(rng.random_range(0..3)), ValueId(rng.random_range(0..4))],
                vec![rng.random_range(0..500) as f64, rng.random_range(0..9) as f64],
            ))
            .unwrap();
        }
        db
    }

    /// A database with real churn: deletes, slot reuse, measure updates
    /// — so the snapshot has a non-empty free list, tombstoned lists,
    /// and stale bounds to preserve.
    fn churned_db() -> HiddenDatabase {
        let mut db = sample_db(200);
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for t in 0..60u64 {
            db.delete(TupleKey(t * 9)).unwrap();
        }
        for t in 0..30u64 {
            db.insert(Tuple::new(
                TupleKey(10_000 + t),
                vec![ValueId(rng.random_range(0..3)), ValueId(rng.random_range(0..4))],
                vec![rng.random_range(0..500) as f64, 1.0],
            ))
            .unwrap();
        }
        db
    }

    fn queries() -> Vec<ConjunctiveQuery> {
        vec![
            ConjunctiveQuery::select_all(),
            ConjunctiveQuery::from_predicates([Predicate::new(AttrId(0), ValueId(1))]),
            ConjunctiveQuery::from_predicates([
                Predicate::new(AttrId(0), ValueId(2)),
                Predicate::new(AttrId(1), ValueId(3)),
            ]),
        ]
    }

    #[test]
    fn roundtrip_preserves_everything_observable() {
        let mut original = sample_db(200);
        let mut buf = Vec::new();
        write_snapshot(&original, &mut buf).unwrap();
        let mut restored = read_snapshot(&mut buf.as_slice()).unwrap();

        assert_eq!(restored.len(), original.len());
        assert_eq!(restored.k(), original.k());
        assert_eq!(restored.alive_keys_sorted(), original.alive_keys_sorted());
        assert_eq!(restored.schema().attr_count(), original.schema().attr_count());
        // Interface answers (incl. hidden ranking) must be identical.
        for q in queries() {
            assert_eq!(original.answer(&q), restored.answer(&q), "query {q}");
        }
        // Ground truth agrees too.
        let sum_orig = original.exact_sum(None, |t| t.measure(MeasureId(0)));
        let sum_rest = restored.exact_sum(None, |t| t.measure(MeasureId(0)));
        assert_eq!(sum_orig, sum_rest);
    }

    /// The v2 warm-state promise: a restored churned database doesn't
    /// just answer like the original — it *evolves* identically, because
    /// slot layout, the free list (in order), and every posting list
    /// survived verbatim.
    #[test]
    fn roundtrip_preserves_future_evolution() {
        let mut original = churned_db();
        let mut buf = Vec::new();
        write_snapshot(&original, &mut buf).unwrap();
        let mut restored = read_snapshot(&mut buf.as_slice()).unwrap();

        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let mut batch = UpdateBatch::empty();
        for t in 0..40u64 {
            batch = batch.insert(Tuple::new(
                TupleKey(50_000 + t),
                vec![ValueId(rng.random_range(0..3)), ValueId(rng.random_range(0..4))],
                vec![rng.random_range(0..500) as f64, 2.0],
            ));
        }
        for key in original.alive_keys_sorted().into_iter().step_by(7).take(25) {
            batch = batch.delete(key);
        }
        assert_eq!(original.apply(batch.clone()), restored.apply(batch));
        for q in queries() {
            assert_eq!(original.answer(&q), restored.answer(&q), "post-mutation query {q}");
        }
        // Identical slot assignment is the strongest evolution witness.
        for key in original.alive_keys_sorted() {
            assert_eq!(
                original.store_ref().slot_of(key),
                restored.store_ref().slot_of(key),
                "key {key:?} landed on a different slot after restore"
            );
        }
    }

    /// v2 snapshots restore bounds and directories without recomputing:
    /// staleness counters (which only churn can create) survive.
    #[test]
    fn roundtrip_preserves_warm_bounds() {
        let original = churned_db();
        assert!(original.stale_segment_count() > 0, "churn must leave stale bounds");
        let mut buf = Vec::new();
        write_snapshot(&original, &mut buf).unwrap();
        let restored = read_snapshot(&mut buf.as_slice()).unwrap();
        assert_eq!(restored.stale_segment_count(), original.stale_segment_count());
        assert_eq!(restored.max_segment_pressure(), original.max_segment_pressure());
    }

    #[test]
    fn roundtrip_empty_database() {
        let original = sample_db(0);
        let mut buf = Vec::new();
        write_snapshot(&original, &mut buf).unwrap();
        let restored = read_snapshot(&mut buf.as_slice()).unwrap();
        assert_eq!(restored.len(), 0);
        assert_eq!(restored.k(), 7);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buf = Vec::new();
        write_snapshot(&sample_db(3), &mut buf).unwrap();
        buf[0] = b'X';
        assert!(read_snapshot(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn truncated_snapshot_rejected() {
        let mut buf = Vec::new();
        write_snapshot(&sample_db(50), &mut buf).unwrap();
        // No panic at any truncation point — errors all the way down.
        for cut in [5, 9, 17, buf.len() / 4, buf.len() / 2, buf.len() - 1] {
            assert!(read_snapshot(&mut buf[..cut].as_ref()).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn unknown_version_rejected() {
        let mut buf = Vec::new();
        write_snapshot(&sample_db(1), &mut buf).unwrap();
        for version in [99, 1] {
            buf[4] = version;
            let err = read_snapshot(&mut buf.as_slice()).map(|_| ()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "version {version}");
        }
    }

    /// Corrupted counts must produce [`io::ErrorKind::InvalidData`], not
    /// panics or huge allocations.
    #[test]
    fn oversized_counts_rejected() {
        let db = churned_db();
        let mut good = Vec::new();
        write_snapshot(&db, &mut good).unwrap();
        // Find the offsets of the three leading store counts: they sit
        // right after magic(4) + version(4) + k(8) + policy(4+8) +
        // schema. Rather than hand-computing the schema length, corrupt
        // a sweep of single bytes across the whole buffer — every
        // mutation must either still parse or error cleanly.
        let mut rejected = 0usize;
        for i in (0..good.len()).step_by(13) {
            let mut buf = good.clone();
            buf[i] ^= 0xFF;
            match read_snapshot(&mut buf.as_slice()) {
                Ok(_) => {}
                Err(e) => {
                    rejected += 1;
                    assert!(
                        matches!(
                            e.kind(),
                            io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                        ),
                        "byte {i}: unexpected error kind {:?}",
                        e.kind()
                    );
                }
            }
        }
        assert!(rejected > 0, "corruption sweep never hit a validated field");

        // The header prefix (`magic | version | k | policy | schema`)
        // sizes every later allocation, so sweep all of it: each byte
        // under three masks, including the high bytes of domain sizes.
        let mut prefix = Vec::new();
        write_policy(&mut prefix, db.scoring_policy()).unwrap();
        write_schema(&mut prefix, db.schema()).unwrap();
        let prefix_len = 4 + 4 + 8 + prefix.len();
        for i in 0..prefix_len {
            for mask in [0x01u8, 0x80, 0xFF] {
                let mut buf = good.clone();
                buf[i] ^= mask;
                if let Err(e) = read_snapshot(&mut buf.as_slice()) {
                    assert!(
                        matches!(
                            e.kind(),
                            io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                        ),
                        "byte {i} ^ {mask:#04x}: unexpected error kind {:?}",
                        e.kind()
                    );
                }
            }
        }
    }

    #[test]
    fn snapshot_is_deterministic() {
        let db = sample_db(100);
        let mut a = Vec::new();
        let mut b = Vec::new();
        write_snapshot(&db, &mut a).unwrap();
        write_snapshot(&db, &mut b).unwrap();
        assert_eq!(a, b);
    }
}
