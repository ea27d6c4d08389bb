//! Simulated eBay listing pool — the Fig 21 "live experiment" scenario.
//!
//! The paper tracked, hourly from 1pm to 9pm via the eBay Finding API
//! (k = 100, 250 queries/hour per algorithm), the average current price of
//! women's wrist watches offering (a) a Buy-It-Now option ("FIX") and (b) a
//! bidding option ("BID"). Two structural facts drive the figure:
//!
//! 1. FIX prices sit well above BID snapshot prices (a bid snapshot
//!    under-represents the final sale price);
//! 2. BID listings churn much faster (auctions end, new ones start, active
//!    bids move prices), so reissue-style estimators gain less there —
//!    "the less the database changes, the better REISSUE and RS perform."
//!
//! The simulation reproduces both: a slow-churn expensive FIX segment and
//! a fast-churn cheap BID segment with upward intra-auction price drift.

use hidden_db::database::HiddenDatabase;
use hidden_db::query::{ConjunctiveQuery, Predicate};
use hidden_db::ranking::ScoringPolicy;
use hidden_db::schema::Schema;
use hidden_db::tuple::Tuple;
use hidden_db::updates::UpdateBatch;
use hidden_db::value::{MeasureId, TupleKey, ValueId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Attribute/value layout of the listing pool.
pub mod attrs {
    use hidden_db::value::{AttrId, ValueId};

    /// Listing type: Buy-It-Now vs auction.
    pub const LISTING_TYPE: AttrId = AttrId(0);
    /// Buy-It-Now ("FixedPrice" in the Finding API).
    pub const FIX: ValueId = ValueId(0);
    /// Auction (bidding option).
    pub const BID: ValueId = ValueId(1);
    /// Brand bucket (8 values).
    pub const BRAND: AttrId = AttrId(1);
    /// Band colour (5 values).
    pub const BAND_COLOR: AttrId = AttrId(2);
    /// Condition: new / used / refurbished.
    pub const CONDITION: AttrId = AttrId(3);
    /// Seller tier (4 values).
    pub const SELLER_TIER: AttrId = AttrId(4);
}

/// Current price snapshot (the tracked measure).
pub const PRICE: MeasureId = MeasureId(0);

/// Hourly churn of the BID segment (auctions ending / relisting).
const BID_CHURN: f64 = 0.22;
/// Hourly churn of the FIX segment.
const FIX_CHURN: f64 = 0.015;
/// Fraction of surviving auctions receiving a new bid each hour.
const BID_ACTIVITY: f64 = 0.35;

/// The simulated listing pool.
#[derive(Debug, Clone)]
pub struct EbaySim {
    schema: Schema,
    next_key: u64,
    rng: StdRng,
}

impl EbaySim {
    /// Listing-pool schema.
    pub fn schema() -> Schema {
        Schema::with_domain_sizes(&[2, 8, 5, 3, 4], &["price"]).expect("ebay schema valid")
    }

    /// Builds the pool with `fix` Buy-It-Now and `bid` auction listings,
    /// k = 100 as in the paper's live run.
    pub fn build(fix: usize, bid: usize, seed: u64) -> (HiddenDatabase, EbaySim) {
        let mut sim =
            EbaySim { schema: Self::schema(), next_key: 0, rng: StdRng::seed_from_u64(seed) };
        let mut db = HiddenDatabase::new(sim.schema.clone(), 100, ScoringPolicy::default());
        for _ in 0..fix {
            let t = sim.mint(attrs::FIX);
            db.insert(t).expect("minted listing fits schema");
        }
        for _ in 0..bid {
            let t = sim.mint(attrs::BID);
            db.insert(t).expect("minted listing fits schema");
        }
        (db, sim)
    }

    fn mint(&mut self, listing_type: ValueId) -> Tuple {
        let key = self.next_key;
        self.next_key += 1;
        let rng = &mut self.rng;
        let values = vec![
            listing_type,
            ValueId(rng.random_range(0..8)),
            ValueId(rng.random_range(0..5)),
            ValueId(rng.random_range(0..3)),
            ValueId(rng.random_range(0..4)),
        ];
        let price = if listing_type == attrs::FIX {
            // Buy-It-Now: the asking price, centred ≈$120.
            (40.0 + 200.0 * rng.random::<f64>() * rng.random::<f64>()).round()
        } else {
            // Auction snapshot: early bids, centred ≈$35.
            (5.0 + 80.0 * rng.random::<f64>() * rng.random::<f64>()).round()
        };
        Tuple::new(TupleKey(key), values, vec![price])
    }

    /// The selection condition for one segment (`-FIX` / `-BID` in Fig 21).
    pub fn segment_condition(listing_type: ValueId) -> ConjunctiveQuery {
        ConjunctiveQuery::from_predicates([Predicate::new(attrs::LISTING_TYPE, listing_type)])
    }

    /// Produces the batch of changes for the next hour: segment-specific
    /// churn plus bid activity on surviving auctions.
    pub fn batch_for_hour(&mut self, db: &HiddenDatabase) -> UpdateBatch {
        let mut batch = UpdateBatch::empty();
        let mut rng = StdRng::seed_from_u64(self.rng.random());
        // Collect segment members once, in key order: the draws below
        // pick by position, and `for_each_alive` visits in slot order.
        let mut fix_keys = Vec::new();
        let mut bid_keys = Vec::new();
        db.for_each_alive(|t| {
            if t.value(attrs::LISTING_TYPE) == attrs::FIX {
                fix_keys.push(t.key());
            } else {
                bid_keys.push((t.key(), t.measure(PRICE)));
            }
        });
        fix_keys.sort_unstable();
        bid_keys.sort_unstable_by_key(|&(key, _)| key);
        // FIX churn.
        let fix_out = ((fix_keys.len() as f64) * FIX_CHURN).round() as usize;
        for _ in 0..fix_out {
            let i = rng.random_range(0..fix_keys.len());
            batch.deletes.push(fix_keys.swap_remove(i));
            batch.inserts.push(self.mint(attrs::FIX));
        }
        // BID churn: ended auctions leave, fresh ones arrive.
        let bid_out = ((bid_keys.len() as f64) * BID_CHURN).round() as usize;
        for _ in 0..bid_out {
            let i = rng.random_range(0..bid_keys.len());
            batch.deletes.push(bid_keys.swap_remove(i).0);
            batch.inserts.push(self.mint(attrs::BID));
        }
        // Bid activity: surviving auctions get bid up.
        for (key, price) in bid_keys {
            if rng.random::<f64>() < BID_ACTIVITY {
                let bump = 1.0 + 0.25 * rng.random::<f64>();
                batch.measure_updates.push((key, vec![(price * bump).round()]));
            }
        }
        batch
    }

    /// Ground truth: average price within one segment.
    pub fn true_avg_price(db: &HiddenDatabase, listing_type: ValueId) -> f64 {
        let cond = Self::segment_condition(listing_type);
        let n = db.exact_count(Some(&cond)) as f64;
        if n == 0.0 {
            return 0.0;
        }
        db.exact_sum(Some(&cond), |t| t.measure(PRICE)) / n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fix_prices_exceed_bid_prices() {
        let (db, _sim) = EbaySim::build(2_000, 3_000, 5);
        let fix = EbaySim::true_avg_price(&db, attrs::FIX);
        let bid = EbaySim::true_avg_price(&db, attrs::BID);
        assert!(fix > 2.0 * bid, "FIX {fix} should dwarf BID {bid}");
    }

    #[test]
    fn bid_segment_churns_faster() {
        let (mut db, mut sim) = EbaySim::build(2_000, 2_000, 6);
        let fix0: std::collections::HashSet<u64> = collect_segment(&db, attrs::FIX);
        let bid0: std::collections::HashSet<u64> = collect_segment(&db, attrs::BID);
        for _ in 0..3 {
            let batch = sim.batch_for_hour(&db);
            db.apply(batch).unwrap();
        }
        let fix1 = collect_segment(&db, attrs::FIX);
        let bid1 = collect_segment(&db, attrs::BID);
        let fix_survival = fix0.intersection(&fix1).count() as f64 / fix0.len() as f64;
        let bid_survival = bid0.intersection(&bid1).count() as f64 / bid0.len() as f64;
        assert!(fix_survival > 0.92, "FIX survival {fix_survival}");
        assert!(bid_survival < 0.55, "BID survival {bid_survival}");
    }

    /// The hourly batches depend on the listings alone, not on which
    /// slot holds each one: a copy of the pool laid out in score order
    /// gets the same batches and the same ground truth, hour after hour.
    #[test]
    fn batches_are_blind_to_slot_layout() {
        let (mut db, mut sim) = EbaySim::build(1_500, 1_500, 8);
        let mut tuples = Vec::new();
        db.for_each_alive(|t| {
            let values = (0..5).map(|a| t.value(hidden_db::value::AttrId(a))).collect();
            tuples.push(Tuple::new(t.key(), values, vec![t.measure(PRICE)]));
        });
        let mut other =
            HiddenDatabase::from_tuples(EbaySim::schema(), 100, ScoringPolicy::default(), tuples)
                .unwrap();
        let mut other_sim = sim.clone();
        for hour in 0..4 {
            let batch = sim.batch_for_hour(&db);
            let other_batch = other_sim.batch_for_hour(&other);
            assert_eq!(format!("{batch:?}"), format!("{other_batch:?}"), "hour {hour}");
            db.apply(batch).unwrap();
            other.apply(other_batch).unwrap();
            for lt in [attrs::FIX, attrs::BID] {
                assert_eq!(
                    EbaySim::true_avg_price(&db, lt).to_bits(),
                    EbaySim::true_avg_price(&other, lt).to_bits(),
                    "hour {hour}"
                );
            }
        }
    }

    fn collect_segment(db: &HiddenDatabase, lt: ValueId) -> std::collections::HashSet<u64> {
        let mut out = std::collections::HashSet::new();
        db.for_each_alive(|t| {
            if t.value(attrs::LISTING_TYPE) == lt {
                out.insert(t.key().0);
            }
        });
        out
    }

    #[test]
    fn segment_sizes_stay_stable() {
        let (mut db, mut sim) = EbaySim::build(1_000, 1_500, 7);
        for _ in 0..5 {
            let batch = sim.batch_for_hour(&db);
            db.apply(batch).unwrap();
        }
        let fix = db.exact_count(Some(&EbaySim::segment_condition(attrs::FIX)));
        let bid = db.exact_count(Some(&EbaySim::segment_condition(attrs::BID)));
        assert_eq!(fix, 1_000, "churn replaces 1:1");
        assert_eq!(bid, 1_500);
    }

    #[test]
    fn bids_push_auction_prices_up() {
        let (mut db, mut sim) = EbaySim::build(100, 3_000, 8);
        let before = EbaySim::true_avg_price(&db, attrs::BID);
        // Apply only measure updates (strip churn) to isolate drift.
        let mut batch = sim.batch_for_hour(&db);
        batch.deletes.clear();
        batch.inserts.clear();
        db.apply(batch).unwrap();
        let after = EbaySim::true_avg_price(&db, attrs::BID);
        assert!(after > before, "bids must raise prices: {before} → {after}");
    }
}
