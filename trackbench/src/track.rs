//! The workloads and the tracking loop.
//!
//! The loop is `aggtrack_bench::runner`'s trial loop, step for step and
//! seed for seed: `load_database` → `RoundDriver` → per round
//! `exact_count`, then `Estimator::run_round` per estimator (through the
//! seeded fault stack when the workload injects faults), then the
//! round's batch through `peek_batch` + `HiddenDatabase::apply` +
//! `mark_round`. It only adds clocks, counter snapshots at round
//! boundaries, optional spans, and (for `paged`) a checkpoint after each
//! apply.

use std::path::{Path, PathBuf};
use std::time::Instant;

use aggtrack_bench::cli::{BaseCfg, FaultsMode, Scale};
use aggtrack_bench::runner::{count_star_tracked, standard_algos};
use aggtrack_core::{Estimator, RoundReport, RsConfig};
use hidden_db::database::HiddenDatabase;
use hidden_db::fault::{FaultSchedule, FaultyBackend, ResilientBackend, RetryPolicy};
use hidden_db::persist::{PersistConfig, JOURNAL_FILE, SEGMENTS_FILE};
use hidden_db::ranking::ScoringPolicy;
use hidden_db::session::SearchBackend;
use rand::rngs::StdRng;
use rand::SeedableRng;
use workloads::{load_database, AutosGenerator, DeleteSpec, PerRoundSchedule, RoundDriver};

use crate::trace::{Layer, TracedSession, Tracer};

/// One benchmark workload: a runner configuration plus how much of it a
/// run measures.
pub struct Workload {
    /// Workload name (`--workload`).
    pub name: &'static str,
    /// Runner configuration; `trials` is set from `--seconds`.
    pub cfg: BaseCfg,
    /// Resident-segment budget of the persistence tier attached at
    /// set-up (`paged` only).
    pub resident: Option<usize>,
    /// Rounds of the first trial replayed through
    /// `runner::track_with_threads` as a cross-check (0 = no replay).
    pub check_rounds: usize,
    /// Trials whose final state goes through checkpoint and reopen,
    /// spread evenly over the run.
    pub restarts: usize,
    /// `open_persistent` calls per restarted trial. `paged` reopens in
    /// ~50 ms, and five of them in a row spread 49 % across seeds.
    pub reopens: usize,
}

impl Workload {
    /// The named workload at `seed`, with as many trials as one worker
    /// tracks in about `seconds` on the reference host (at least one; the
    /// count depends on `seconds` alone, never on the host).
    pub fn named(name: &str, seed: u64, seconds: u64) -> Option<Self> {
        let mut cfg = BaseCfg::for_scale(Scale::Default);
        cfg.seed = seed;
        cfg.attrs = 20;
        cfg.k = 200;
        cfg.g = 300;
        // Seconds the reference host needs per trial.
        let trial_s: f64;
        let (name, resident, check_rounds, restarts, reopens) = match name {
            "large" => {
                // fig12's largest default-scale pool: 74 segments, the
                // change fraction fig12 keeps constant across sizes.
                cfg.initial = 300_000;
                cfg.inserts = (300_000.0 * 0.0018) as usize;
                cfg.delete = DeleteSpec::Fraction(0.001);
                cfg.rounds = 25;
                trial_s = 17.0;
                ("large", None, 4, 2, 5)
            }
            "churn" => {
                // fig06's big-change profile at default scale, under a
                // seeded 20 % fault storm.
                cfg.initial = (30_000.0 * 100.0 / 170.0) as usize;
                cfg.inserts = cfg.initial / 10;
                cfg.delete = DeleteSpec::Fraction(0.05);
                cfg.rounds = 20;
                cfg.faults = FaultsMode::Seeded { rate: 0.2 };
                trial_s = 0.65;
                ("churn", None, 20, 8, 5)
            }
            "paged" => {
                // 5 segments paged under a 4-segment resident budget.
                cfg.initial = 20_000;
                cfg.inserts = (20_000.0 * 0.0018) as usize;
                cfg.delete = DeleteSpec::Fraction(0.001);
                cfg.rounds = 3;
                trial_s = 17.0;
                ("paged", Some(4), 0, 2, 25)
            }
            _ => return None,
        };
        cfg.trials = ((seconds as f64 / trial_s).round() as usize).max(1);
        let restarts = restarts.min(cfg.trials);
        Some(Self { name, cfg, resident, check_rounds, restarts, reopens })
    }

    /// Whether trial `t` ends with the restart phase: every
    /// `trials / restarts`-th trial (rounded up), so that a burst of host
    /// noise cannot hit every reopen of a run.
    pub fn restarts_after(&self, t: usize) -> bool {
        t.is_multiple_of(self.cfg.trials.div_ceil(self.restarts))
    }
}

/// A trial's database, built at set-up and handed to the round loop.
pub struct Pool {
    driver: RoundDriver<PerRoundSchedule<AutosGenerator>>,
    persist: Option<PersistConfig>,
}

/// Builds trial `trial`'s pool exactly as the runner does. `dir` holds
/// the pool's files when the workload is paged.
pub fn build_pool(wl: &Workload, trial: u64, dir: &Path) -> Pool {
    let cfg = &wl.cfg;
    let mut gen = AutosGenerator::with_attrs(cfg.attrs);
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(trial));
    let mut db = load_database(&mut gen, &mut rng, cfg.initial, cfg.k, ScoringPolicy::default());
    db.set_invalidation_policy(cfg.memo_policy);
    let persist = wl.resident.map(|resident| {
        let p = PersistConfig::new(dir.to_path_buf(), resident);
        db.enable_persist(&p).expect("could not open the region file");
        p
    });
    let schedule = PerRoundSchedule::new(gen, cfg.inserts, cfg.delete);
    let driver = RoundDriver::new(db, schedule, cfg.seed ^ (trial.wrapping_mul(7919)));
    Pool { driver, persist }
}

/// Monotone counters of the database's public accessors, as sums of
/// round-boundary deltas.
macro_rules! counters {
    ($($name:ident),* $(,)?) => {
        /// Counter totals (see [`Counters::read`] for their sources).
        #[derive(Debug, Clone, Copy, Default)]
        pub struct Counters {
            $(#[allow(missing_docs)] pub $name: u64,)*
        }

        impl Counters {
            /// Adds `now − before`, field by field.
            pub fn add_delta(&mut self, now: &Self, before: &Self) {
                $(self.$name += now.$name.saturating_sub(before.$name);)*
            }

            /// Adds another total.
            pub fn add(&mut self, other: &Self) {
                $(self.$name += other.$name;)*
            }
        }
    };
}

counters!(
    answered,
    overflows,
    underflows,
    cache_hits,
    gallop,
    bitset,
    blockmax,
    early_exits,
    segments_skipped,
    blocks_scanned,
    blocks_skipped,
    invalidated,
    retained,
    demoted,
    resurrected,
    segments_faulted,
    evictions,
);

impl Counters {
    /// Snapshot of `stats`, `eval_stats`, `memo_stats` and
    /// `persist_stats`.
    pub fn read(db: &HiddenDatabase) -> Self {
        let (i, e, m, p) = (db.stats(), db.eval_stats(), db.memo_stats(), db.persist_stats());
        Self {
            answered: i.answered,
            overflows: i.overflows,
            underflows: i.underflows,
            cache_hits: i.cache_hits,
            gallop: e.gallop_intersections,
            bitset: e.bitset_intersections,
            blockmax: e.blockmax_intersections,
            early_exits: e.early_exits,
            segments_skipped: e.segments_skipped,
            blocks_scanned: e.blocks_scanned,
            blocks_skipped: e.blocks_skipped,
            invalidated: m.invalidated,
            retained: m.retained,
            demoted: m.demoted,
            resurrected: m.resurrected,
            segments_faulted: p.segments_faulted,
            evictions: p.evictions,
        }
    }

    /// Uncached answers: the ones the evaluation engine computed.
    pub fn misses(&self) -> u64 {
        self.answered - self.cache_hits
    }
}

/// Totals of the fault layer (`FaultyBackend::stats` and
/// `ResilientBackend::stats`), zero without faults.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultTotals {
    /// Faults injected.
    pub injected: u64,
    /// Retries issued by the recovery layer.
    pub retries: u64,
    /// Queries the recovery layer gave up on.
    pub gave_up: u64,
    /// Backoff ticks waited.
    pub ticks_waited: u64,
    /// Budget charged for faulted attempts.
    pub queries_burned: u64,
}

impl FaultTotals {
    /// Adds another total.
    pub fn add(&mut self, o: &Self) {
        self.injected += o.injected;
        self.retries += o.retries;
        self.gave_up += o.gave_up;
        self.ticks_waited += o.ticks_waited;
        self.queries_burned += o.queries_burned;
    }
}

/// Everything one trial produced.
pub struct TrialRecord {
    /// Trial index.
    pub trial: u64,
    /// Ground truth per round.
    pub truth: Vec<f64>,
    /// Primary estimate per estimator per round.
    pub estimate: Vec<Vec<f64>>,
    /// Queries spent per estimator per round.
    pub spent: Vec<Vec<u64>>,
    /// Per round: first `run_round` start to last report, ns.
    pub round_ns: Vec<u64>,
    /// Per round: the whole round, ground truth to checkpoint, ns.
    pub round_wall_ns: Vec<u64>,
    /// Per round: interface queries answered.
    pub round_answered: Vec<u64>,
    /// The whole trial's tracking time, ns.
    pub wall_ns: u64,
    /// Drill-downs updated (reused) and initiated, per estimator.
    pub updated: Vec<u64>,
    pub initiated: Vec<u64>,
    /// Reports tagged `Degraded`.
    pub degraded: u64,
    /// Counter deltas over the trial.
    pub counters: Counters,
    /// Highest resident-segment count the pager saw.
    pub peak_resident: u64,
    /// Fault-layer totals.
    pub faults: FaultTotals,
    /// Operations (inserts + deletes) per applied batch.
    pub batch_ops: Vec<u64>,
    /// Journal growth per checkpoint, bytes.
    pub checkpoint_bytes: Vec<u64>,
}

impl TrialRecord {
    /// `run_round` calls made.
    pub fn attempted(&self) -> u64 {
        self.spent.iter().map(|s| s.len() as u64).sum()
    }
}

/// Runs one estimator round on `session`, through the workload's fault
/// stack when it injects faults — the runner's fault seeding verbatim.
fn run_round_on<B: SearchBackend>(
    est: &mut dyn Estimator,
    mut session: B,
    faults: FaultsMode,
    fault_seed: u64,
) -> (RoundReport, FaultTotals) {
    match faults {
        FaultsMode::Off => (est.run_round(&mut session), FaultTotals::default()),
        FaultsMode::Seeded { rate } => {
            let faulty = FaultyBackend::new(session, FaultSchedule::seeded(fault_seed, rate));
            let mut stack =
                ResilientBackend::new(faulty, RetryPolicy::default(), fault_seed ^ 0x171);
            let report = est.run_round(&mut stack);
            let recovery = stack.stats();
            let injected = stack.into_inner().stats();
            let totals = FaultTotals {
                injected: injected.injected,
                retries: recovery.retries,
                gave_up: recovery.gave_up,
                ticks_waited: recovery.ticks_waited,
                queries_burned: recovery.queries_burned,
            };
            (report, totals)
        }
    }
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Runs trial `trial` on its pool and hands the pool back for the
/// restart phase.
pub fn run_trial(
    wl: &Workload,
    trial: u64,
    pool: Pool,
    tracer: &mut Tracer,
) -> (TrialRecord, Pool) {
    let cfg = &wl.cfg;
    let Pool { mut driver, persist } = pool;
    let tracked = count_star_tracked(driver.db().schema());
    let kind = tracked.spec.kind;
    let algos = standard_algos();
    let mut estimators: Vec<Box<dyn Estimator>> = algos
        .iter()
        .enumerate()
        .map(|(i, a)| {
            a.build(
                tracked.spec.clone(),
                tracked.tree.clone(),
                cfg.seed ^ (trial.wrapping_mul(31) + i as u64 + 1),
                RsConfig::default(),
            )
        })
        .collect();
    let n = algos.len();
    let mut rec = TrialRecord {
        trial,
        truth: Vec::with_capacity(cfg.rounds),
        estimate: vec![Vec::with_capacity(cfg.rounds); n],
        spent: vec![Vec::with_capacity(cfg.rounds); n],
        round_ns: Vec::with_capacity(cfg.rounds),
        round_wall_ns: Vec::with_capacity(cfg.rounds),
        round_answered: Vec::with_capacity(cfg.rounds),
        wall_ns: 0,
        updated: vec![0; n],
        initiated: vec![0; n],
        degraded: 0,
        counters: Counters::default(),
        peak_resident: 0,
        faults: FaultTotals::default(),
        batch_ops: Vec::with_capacity(cfg.rounds),
        checkpoint_bytes: Vec::new(),
    };
    let journal = persist.as_ref().map(|p| p.dir.join(JOURNAL_FILE));
    let mut before = Counters::read(driver.db());
    // The trial span nests inside the trial's wall, so the wall minus
    // the span tree is never negative.
    let started = Instant::now();
    let trial_span = tracer.open(Layer::Trial, 0);
    for round in 0..cfg.rounds {
        let round_started = Instant::now();
        let round_span = tracer.open(Layer::Round, trial_span.id());
        let span = tracer.open(Layer::ExactCount, round_span.id());
        let truth = driver.db().exact_count(None) as f64;
        tracer.close(span);
        rec.truth.push(truth);

        let first_report = Instant::now();
        for (i, est) in estimators.iter_mut().enumerate() {
            let fault_seed = cfg.seed
                ^ trial.wrapping_mul(7919)
                ^ ((round as u64) << 20)
                ^ ((i as u64 + 1) << 8);
            let span = tracer.open(Layer::RunRound(i), round_span.id());
            let (report, faults) = if tracer.on() {
                let session = TracedSession::new(driver.db_mut(), cfg.g, tracer, span.id());
                run_round_on(est.as_mut(), session, cfg.faults, fault_seed)
            } else {
                run_round_on(est.as_mut(), driver.session(cfg.g), cfg.faults, fault_seed)
            };
            tracer.close(span);
            rec.estimate[i].push(report.primary(kind));
            rec.spent[i].push(report.queries_spent);
            rec.updated[i] += report.updated as u64;
            rec.initiated[i] += report.initiated as u64;
            rec.degraded += u64::from(report.degraded.is_some());
            rec.faults.add(&faults);
        }
        rec.round_ns.push(first_report.elapsed().as_nanos() as u64);

        let span = tracer.open(Layer::PeekBatch, round_span.id());
        let batch = driver.peek_batch();
        tracer.close(span);
        rec.batch_ops.push((batch.inserts.len() + batch.deletes.len()) as u64);
        let span = tracer.open(Layer::Apply, round_span.id());
        driver.db_mut().apply(batch).expect("schedule produced an invalid batch");
        tracer.close(span);
        driver.mark_round();
        if let Some(journal) = &journal {
            let len = file_len(journal);
            let span = tracer.open(Layer::Checkpoint, round_span.id());
            driver.db().checkpoint().expect("checkpoint failed");
            tracer.close(span);
            rec.checkpoint_bytes.push(file_len(journal) - len);
        }
        let now = Counters::read(driver.db());
        rec.counters.add_delta(&now, &before);
        rec.round_answered.push(now.answered - before.answered);
        before = now;
        rec.peak_resident =
            rec.peak_resident.max(driver.db().persist_stats().peak_resident_segments);
        tracer.close(round_span);
        rec.round_wall_ns.push(round_started.elapsed().as_nanos() as u64);
    }
    tracer.close(trial_span);
    rec.wall_ns = started.elapsed().as_nanos() as u64;
    (rec, Pool { driver, persist })
}

/// What the restart phase measured for one trial.
pub struct RestartRecord {
    /// `open_persistent` walls, ns, one per reopen.
    pub reopen_ns: Vec<u64>,
    /// Journal growth of the restart phase's own checkpoint (0 when the
    /// tracking loop already checkpointed), bytes.
    pub checkpoint_bytes: u64,
    /// Region file plus journal before the first reopen, bytes.
    pub disk_bytes: u64,
    /// Every reopened database had the live one's alive keys and count.
    pub matches: bool,
}

/// Checkpoints the pool's final state (attaching the persistence tier
/// first when the workload runs in RAM; `dir` then holds its files),
/// drops it, and reopens it `reopens` times with `open_persistent`.
pub fn restart(pool: Pool, dir: &Path, reopens: usize, tracer: &mut Tracer) -> RestartRecord {
    let Pool { mut driver, persist } = pool;
    let mut checkpoint_bytes = 0;
    let cfg = match persist {
        Some(cfg) => cfg,
        None => {
            // Every segment stays resident: the tier only adds the journal.
            let cfg = PersistConfig::new(PathBuf::from(dir), 1 << 20);
            driver.db_mut().enable_persist(&cfg).expect("could not open the region file");
            let span = tracer.open(Layer::Checkpoint, 0);
            driver.db().checkpoint().expect("checkpoint failed");
            tracer.close(span);
            checkpoint_bytes = file_len(&cfg.dir.join(JOURNAL_FILE));
            cfg
        }
    };
    let disk_bytes = file_len(&cfg.dir.join(SEGMENTS_FILE)) + file_len(&cfg.dir.join(JOURNAL_FILE));
    let keys = driver.db().alive_keys_sorted();
    let count = driver.db().exact_count(None);
    drop(driver);
    let mut reopen_ns = Vec::with_capacity(reopens);
    let mut matches = true;
    for _ in 0..reopens {
        let span = tracer.open(Layer::OpenPersistent, 0);
        let started = Instant::now();
        let reopened = HiddenDatabase::open_persistent(&cfg).expect("reopen failed");
        reopen_ns.push(started.elapsed().as_nanos() as u64);
        tracer.close(span);
        matches &= reopened.alive_keys_sorted() == keys && reopened.exact_count(None) == count;
    }
    RestartRecord { reopen_ns, checkpoint_bytes, disk_bytes, matches }
}
