//! Layout independence: what the database answers depends on the tuples
//! it holds, never on which slot holds each one. The same tuple set is
//! loaded three ways — inserted in generation order, inserted in a
//! shuffled order, and bulk-loaded in score order
//! ([`HiddenDatabase::from_tuples`]) — and then driven through the same
//! seeded rounds of sampled deletes and inserts. At every round the three
//! must agree on every answer (class and page, as key lists), every
//! `exact_count`, every `exact_sum` bit pattern, and every victim list
//! `sample_alive_keys` draws, under each ranking policy (the
//! measure-based ones with heavy score ties).

use hidden_db::database::HiddenDatabase;
use hidden_db::query::{ConjunctiveQuery, Predicate};
use hidden_db::ranking::ScoringPolicy;
use hidden_db::schema::Schema;
use hidden_db::tuple::Tuple;
use hidden_db::updates::UpdateBatch;
use hidden_db::value::{AttrId, MeasureId, TupleKey, ValueId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const DOMAINS: [u32; 2] = [3, 4];

/// One generated row: two attribute values and a measure code. Measures
/// are tenths (`code / 10`), so ties are common and float sums depend
/// on the order of their terms.
type Row = (u32, u32, i32);

fn row_strategy() -> impl Strategy<Value = Row> {
    (0..DOMAINS[0], 0..DOMAINS[1], -6..6i32)
}

fn tuple(key: u64, &(a, b, m): &Row) -> Tuple {
    Tuple::new(TupleKey(key), vec![ValueId(a), ValueId(b)], vec![f64::from(m) / 10.0])
}

/// Keys are dense (`0, 1, 2, ...`) or spread out, so that both of
/// `sample_alive_keys`'s strategies (rejection over the key range, and
/// the sorted-key shuffle) are exercised.
fn key_of(i: usize, sparse: bool) -> u64 {
    if sparse {
        i as u64 * 1_000 + 7
    } else {
        i as u64
    }
}

fn policy(code: u8) -> ScoringPolicy {
    match code % 4 {
        0 => ScoringPolicy::default(),
        1 => ScoringPolicy::NewestFirst,
        2 => ScoringPolicy::ByMeasureDesc(MeasureId(0)),
        _ => ScoringPolicy::ByMeasureAsc(MeasureId(0)),
    }
}

/// Every query with at most one predicate per attribute.
fn queries() -> Vec<ConjunctiveQuery> {
    let mut out = Vec::new();
    for a in 0..=DOMAINS[0] {
        for b in 0..=DOMAINS[1] {
            let mut preds = Vec::new();
            if a < DOMAINS[0] {
                preds.push(Predicate::new(AttrId(0), ValueId(a)));
            }
            if b < DOMAINS[1] {
                preds.push(Predicate::new(AttrId(1), ValueId(b)));
            }
            out.push(ConjunctiveQuery::from_predicates(preds));
        }
    }
    out
}

/// Everything observable about one database: per query the outcome class
/// and page keys, the exact count and the exact sum's bits; plus the
/// root sum.
fn observe(db: &mut HiddenDatabase) -> Vec<(String, Vec<u64>, u64, u64)> {
    let mut out = Vec::new();
    for q in queries() {
        let answer = db.answer(&q);
        let keys = answer.keys().map(|k| k.0).collect();
        let count = db.exact_count(Some(&q));
        let sum = db.exact_sum(Some(&q), |t| t.measure(MeasureId(0))).to_bits();
        out.push((format!("{q} {:?}", answer.class()), keys, count, sum));
    }
    let root_sum = db.exact_sum(None, |t| t.measure(MeasureId(0))).to_bits();
    out.push(("root sum".to_string(), Vec::new(), 0, root_sum));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn answers_truth_and_victims_ignore_slot_layout(
        rows in prop::collection::vec(row_strategy(), 0..120),
        inserts in prop::collection::vec(row_strategy(), 0..40),
        k in 1..6usize,
        scoring in 0..4u8,
        sparse in any::<bool>(),
        seed in 0..1_000u64,
        shuffle in 1..1_000u64,
    ) {
        let schema = Schema::with_domain_sizes(&DOMAINS, &["m"]).unwrap();
        let scoring = policy(scoring);
        let tuples: Vec<Tuple> =
            rows.iter().enumerate().map(|(i, r)| tuple(key_of(i, sparse), r)).collect();

        let mut in_order = HiddenDatabase::new(schema.clone(), k, scoring);
        for t in &tuples {
            in_order.insert(t.clone()).unwrap();
        }
        // A fixed pseudo-random permutation of the same tuples.
        let mut shuffled_tuples = tuples.clone();
        shuffled_tuples
            .sort_by_key(|t| (t.key().0 + shuffle).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20);
        let mut shuffled = HiddenDatabase::new(schema.clone(), k, scoring);
        for t in shuffled_tuples {
            shuffled.insert(t).unwrap();
        }
        let bulk = HiddenDatabase::from_tuples(schema, k, scoring, tuples).unwrap();

        let mut dbs = [in_order, shuffled, bulk];
        let mut rngs: Vec<StdRng> = (0..dbs.len()).map(|_| StdRng::seed_from_u64(seed)).collect();
        let mut next = rows.len();
        for round in 0..4 {
            let want = observe(&mut dbs[0]);
            for (i, db) in dbs.iter_mut().enumerate().skip(1) {
                prop_assert_eq!(&observe(db), &want, "layout {} diverged in round {}", i, round);
            }
            // One seeded round: sampled deletes plus a slice of inserts,
            // which reuse the freed slots differently in each layout.
            let victims: Vec<Vec<TupleKey>> = dbs
                .iter()
                .zip(rngs.iter_mut())
                .map(|(db, rng)| db.sample_alive_keys(rng, db.len() / 4 + 1))
                .collect();
            for (i, v) in victims.iter().enumerate().skip(1) {
                prop_assert_eq!(v, &victims[0], "layout {} drew other victims in round {}", i, round);
            }
            let fresh: Vec<Tuple> = inserts
                .iter()
                .skip(round * 10)
                .take(10)
                .enumerate()
                .map(|(j, r)| tuple(key_of(next + j, sparse), r))
                .collect();
            next += fresh.len();
            for db in dbs.iter_mut() {
                let mut batch = UpdateBatch::empty();
                batch.deletes = victims[0].clone();
                batch.inserts = fresh.clone();
                db.apply(batch).unwrap();
            }
        }
    }
}
