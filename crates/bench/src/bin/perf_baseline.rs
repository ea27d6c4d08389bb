//! perf_baseline — the standard, committed performance workload.
//!
//! Runs fixed workloads and writes a machine-readable report (default
//! `BENCH_PR10.json`, see `--out`) so future PRs have a perf trajectory
//! to beat:
//!
//! 1. **Interface microbench** — query throughput of the hidden-database
//!    substrate on a 10 k-tuple Autos population: one cold pass over a
//!    distinct-query pool (every answer evaluates) and repeated warm
//!    passes (every answer is a memo hit), plus insert+delete mutation
//!    throughput.
//! 2. **Track workload** — the Fig 2 configuration at `quick` scale
//!    (8 trials × 10 rounds, three estimators): wall-clock of the
//!    sequential trial loop vs the parallel runner, with a bitwise
//!    identity check of every estimator series between the two, and a
//!    second identity check of the incremental memo against a memo-free
//!    database.
//! 3. **Memo little-change workload** (PR 2) — Fig 5-style rounds where
//!    a small batch mutates the database and a fixed overlapping query
//!    pool is re-asked each round: incremental invalidation vs a memo
//!    cleared after every batch (`set_k`) vs no memo. Hit rate,
//!    wall-clock, invalidation counters, and a cross-run
//!    answer-fingerprint consistency check.
//! 4. **Memo adversarial stream** (PR 2) — a distinct-query flood
//!    against a small memo capacity: the memo must stay bounded and
//!    evict.
//! 5. **Intersection engine** (PR 3) — a deep-query (3–4 predicate)
//!    pool evaluated cold by the galloping/bitset intersection engine:
//!    queries/sec and an answer-fingerprint identity check against the
//!    brute-force `reference_answer` (`intersect_identical`).
//! 6. **Early exit** (PR 3) — overflow-heavy `NewestFirst` scans with
//!    the heap-floor early exit on vs off (`early_exit_consistent`).
//! 7. **Ground-truth parallelism** (PR 3) — `exact_count`/`exact_sum`
//!    fanned out over store segments at 1/2/4/7 threads with a bitwise
//!    identity check against the sequential sweep
//!    (`ground_truth_bit_identical`).
//! 8. **Compaction** (PR 5) — a delete-heavy `ByMeasureDesc` pool whose
//!    churn purges the top scorers everywhere except one segment: stale
//!    bounds keep the early exit dark (`0` segment skips, the pre-PR-5
//!    state), a `compact()` pass re-arms it (`early_exit_rearmed`) with
//!    bit-identical answers (`compaction_identical`).
//! 9. **Revalidation** (PR 5) — a churn-heavy Fig 10-style pool
//!    (inserts + deletes + measure updates every round) re-asking a
//!    fixed query pool: cross-round memo revalidation on vs the PR 2
//!    incremental baseline vs memo-disabled, with a three-way answer
//!    fingerprint check (`revalidation_consistent`) and a strict
//!    hit-rate win (`revalidation_hit_rate_improved`).
//! 10. **Fault recovery** (PR 6) — the fault-injected interface stack:
//!     drill-level bit-identity under recovered seeded storms at three
//!     injection rates (`faults_identical_when_recovered`), the cost of
//!     the wrapper with a quiet schedule
//!     (`fault_off_overhead_near_zero`), and a quality-vs-fault-rate
//!     sweep of the tracked Fig 2 workload (faults burn budget, so
//!     accuracy decays gracefully as the rate climbs). The interface
//!     microbench also gains a `mutation_throughput_ok` floor pinning
//!     the PR 5 mutation-path regression fixed by PR 6.
//! 11. **Shared service** (PR 7) — the concurrent `DbService`: 1/2/4/8
//!     client threads issue deterministic query scripts against a
//!     snapshot pinned at epoch 0 while a writer thread churns the
//!     service through the apply queue (with pressure-triggered
//!     auto-compaction enabled). Every client's answer fingerprint must
//!     equal the one a private database frozen at epoch 0 produces
//!     (`shared_service_bit_identical`), and aggregate read throughput
//!     is recorded per client count.
//! 12. **K-way block-max intersection** (PR 8) — conjunctions of
//!     2/3/4/6 half-density predicates (every posting list ≈ N/2, the
//!     regime where two-rarest + residual re-check pays the most per
//!     candidate) on the canonical block-max score distribution: one
//!     hot 256-slot block per segment with hot scores interleaved
//!     across segments, so segment bounds are all near the maximum
//!     (segment-granular pruning is blind) while block bounds still
//!     discriminate. All four strategies must agree bit-for-bit
//!     (`kway_identical`), and the block-max engine must beat the
//!     better pair engine by ≥1.3× on the 4-predicate pool
//!     (`kway_speedup_on_multipredicate`).
//!
//! 13. **Persistence tier** (PR 9) — the out-of-core pager on a fig12-
//!     style size sweep (10⁵/10⁶/10⁷ tuples): each pool is built three
//!     times — fully in RAM, and out-of-core at resident budgets of 1/4
//!     and 1/16 of the segment count — churned (contiguous deletes,
//!     strided measure updates, free-slot reuse), queried, and
//!     ground-truth aggregated. Every fingerprint and aggregate must be
//!     bit-identical across the three builds (`persistence_identical`)
//!     and every paged build's residency high-water mark must respect
//!     its budget (`resident_memory_bounded`). The largest size also
//!     times a checkpoint + warm restart (`open_persistent`) whose
//!     reopened fingerprint folds into the identity flag.
//!
//! 14. **Bootstrap resampling** (PR 10) — the `agg_stats::resample`
//!     engine: replicate-throughput sweep (100/1 000/10 000 replicates
//!     of a mean statistic over a fixed 4 096-point sample), parallel
//!     replicate fan-out at 1/2/4/8 threads with a bitwise identity
//!     check of every replicate vector across thread counts and all
//!     three variants (`bootstrap_parallel_identical`), and a seeded
//!     coverage experiment — per-trial block-bootstrap 95 % intervals
//!     of the REISSUE estimate/truth ratio on a churning pool must
//!     cover the ground-truth ratio 1.0 at roughly the nominal rate
//!     (`bootstrap_coverage_ok`).
//!
//! The workloads are fixed on purpose — do not "tune" them in later
//! PRs; add new sections instead, so the numbers stay comparable.
//!
//! Flags: `--out PATH` (default `BENCH_PR10.json`), `--threads N`
//! (thread pool for the parallel track run; default auto).

use std::time::Instant;

use agg_stats::resample::{default_block_len, Bootstrap, Variant};
use aggtrack_bench::cli::{BaseCfg, FaultsMode, Scale};
use aggtrack_bench::json::Json;
use aggtrack_bench::runner::{
    count_star_tracked, standard_algos, tail_block_ci, tail_mean, track, track_with_threads,
    trial_cis, AlgoKind, TrackOutcome,
};
use aggtrack_core::{ht_sample, AggregateSpec, RsConfig};
use aggtrack_parallel::Threads;
use hidden_db::fault::{FaultSchedule, FaultyBackend, ResilientBackend, RetryPolicy};
use hidden_db::query::{ConjunctiveQuery, Predicate};
use hidden_db::ranking::ScoringPolicy;
use hidden_db::session::SearchSession;
use hidden_db::tuple::Tuple;
use hidden_db::updates::UpdateBatch;
use hidden_db::value::{MeasureId, TupleKey};
use hidden_db::{
    AutoMaintain, DbService, EvalConfig, IntersectPolicy, InvalidationPolicy, QueryOutcome,
    SearchBackend,
};
use query_tree::{drill_from_root, enumerate_all, QueryTree};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use workloads::{load_database, AutosGenerator, DeleteSpec, TupleFactory};

fn main() {
    let flags = Flags::parse();
    eprintln!(">>> perf_baseline: interface microbench");
    let micro = interface_microbench();
    eprintln!(">>> perf_baseline: multi-trial track workload");
    let track = track_workload(flags.pool());
    eprintln!(">>> perf_baseline: memo little-change workload");
    let memo_little = memo_little_change();
    eprintln!(">>> perf_baseline: memo adversarial distinct-query stream");
    let memo_adv = memo_adversarial();
    eprintln!(">>> perf_baseline: deep-query intersection engine");
    let intersection = intersection_engine();
    eprintln!(">>> perf_baseline: k-way block-max intersection");
    let kway = intersection_kway();
    eprintln!(">>> perf_baseline: early-exit overflow classification");
    let early_exit = early_exit_workload();
    eprintln!(">>> perf_baseline: ground-truth segment fan-out");
    let ground_truth = ground_truth_parallelism();
    eprintln!(">>> perf_baseline: segment compaction / early-exit re-arm");
    let compaction = compaction_workload();
    eprintln!(">>> perf_baseline: cross-round memo revalidation");
    let revalidation = revalidation_workload();
    eprintln!(">>> perf_baseline: fault injection / recovery stack");
    let faults = fault_recovery(flags.pool());
    eprintln!(">>> perf_baseline: shared concurrent service");
    let shared = shared_service();
    eprintln!(">>> perf_baseline: out-of-core persistence tier");
    let persistence = persistence_tier();
    eprintln!(">>> perf_baseline: bootstrap resampling engine");
    let bootstrap = bootstrap_workload();
    let report = Json::obj()
        .field("schema_version", 1u64)
        .field("report", "perf_baseline")
        .field(
            "generated_unix_s",
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
        )
        .field("build", if cfg!(debug_assertions) { "debug" } else { "release" })
        .field(
            "host",
            Json::obj()
                .field("num_cpus", num_cpus())
                .field("cores", num_cpus())
                .field(
                    "aggtrack_threads_env",
                    std::env::var("AGGTRACK_THREADS").map(Json::from).unwrap_or(Json::Null),
                )
                .field("threads_flag", flags.threads.map(Json::from).unwrap_or(Json::Null))
                .field(
                    "section_threads",
                    Json::obj()
                        .field("track_workload", flags.pool().resolve(8))
                        .field("ground_truth_parallelism", "1, 2, 4, 7")
                        .field("shared_service_clients", "1, 2, 4, 8"),
                ),
        )
        .field("interface_microbench", micro)
        .field("track_workload", track)
        .field("memo_little_change", memo_little)
        .field("memo_adversarial", memo_adv)
        .field("intersection", intersection)
        .field("intersection_kway", kway)
        .field("early_exit", early_exit)
        .field("ground_truth_parallelism", ground_truth)
        .field("compaction", compaction)
        .field("revalidation", revalidation)
        .field("fault_recovery", faults)
        .field("shared_service", shared)
        .field("persistence", persistence)
        .field("bootstrap", bootstrap);
    std::fs::write(&flags.out, report.pretty())
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", flags.out));
    eprintln!(">>> perf_baseline: wrote {}", flags.out);
}

struct Flags {
    out: String,
    /// Worker count for the fan-out pool (parallel track run); `None`
    /// resolves to `AGGTRACK_THREADS` / available parallelism.
    threads: Option<usize>,
}

impl Flags {
    fn parse() -> Self {
        let mut flags = Flags { out: "BENCH_PR10.json".to_string(), threads: None };
        let mut it = std::env::args().skip(1);
        while let Some(arg) = it.next() {
            let mut value =
                |name: &str| it.next().unwrap_or_else(|| panic!("flag {name} needs a value"));
            match arg.as_str() {
                "--out" => flags.out = value("--out"),
                "--threads" => {
                    flags.threads =
                        Some(value("--threads").parse().expect("--threads takes a positive count"))
                }
                "--help" | "-h" => {
                    eprintln!(
                        "flags: --out PATH (default BENCH_PR10.json)  --threads N (default auto)"
                    );
                    std::process::exit(0);
                }
                other => panic!("unsupported argument {other:?} (try --help)"),
            }
        }
        flags
    }

    fn pool(&self) -> Threads {
        self.threads.map_or(Threads::Auto, Threads::fixed)
    }
}

/// The microbench's fixed query pool: root, every depth-1 query, and all
/// depth-2 combinations over the first three attribute pairs.
fn query_pool(schema: &hidden_db::schema::Schema) -> Vec<ConjunctiveQuery> {
    let mut pool = vec![ConjunctiveQuery::select_all()];
    for a in schema.attr_ids() {
        for v in 0..schema.domain_size(a) {
            pool.push(ConjunctiveQuery::from_predicates([Predicate::new(
                a,
                hidden_db::value::ValueId(v),
            )]));
        }
    }
    let attrs: Vec<_> = schema.attr_ids().collect();
    for pair in attrs.windows(2).take(3) {
        for v0 in 0..schema.domain_size(pair[0]) {
            for v1 in 0..schema.domain_size(pair[1]) {
                pool.push(ConjunctiveQuery::from_predicates([
                    Predicate::new(pair[0], hidden_db::value::ValueId(v0)),
                    Predicate::new(pair[1], hidden_db::value::ValueId(v1)),
                ]));
            }
        }
    }
    pool
}

fn interface_microbench() -> Json {
    const N: usize = 10_000;
    const K: usize = 100;
    const ATTRS: usize = 12;
    const WARM_PASSES: usize = 20;
    const MUTATION_PAIRS: usize = 20_000;

    let mut gen = AutosGenerator::with_attrs(ATTRS);
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let mut db = load_database(&mut gen, &mut rng, N, K, ScoringPolicy::default());
    let pool = query_pool(&db.schema().clone());

    // Cold: fresh memo (no query asked since the last mutation) — every
    // answer runs the streaming evaluator.
    let t0 = Instant::now();
    for q in &pool {
        std::hint::black_box(db.answer(q));
    }
    let cold = t0.elapsed();

    // Warm: identical pool again — every answer is a memo hit sharing the
    // materialised page.
    let t0 = Instant::now();
    for _ in 0..WARM_PASSES {
        for q in &pool {
            std::hint::black_box(db.answer(q));
        }
    }
    let warm = t0.elapsed();
    let stats = db.stats();
    assert!(stats.cache_hits >= (WARM_PASSES * pool.len()) as u64, "warm passes must hit the memo");

    // Mutations: insert+delete pairs through store + index (+ memo drop).
    let t0 = Instant::now();
    let mut key = 10_000_000u64;
    for _ in 0..MUTATION_PAIRS {
        let t = gen.make(&mut rng);
        key += 1;
        let t = Tuple::new(TupleKey(key), t.values().to_vec(), t.measures().to_vec());
        db.insert(t).expect("unique key");
        db.delete(TupleKey(key)).expect("alive key");
    }
    let mutations = t0.elapsed();

    let per_sec = |count: usize, d: std::time::Duration| count as f64 / d.as_secs_f64();
    // Floor pinning the PR 5 mutation-path regression (the quadratic
    // TouchedSet absorb) fixed in PR 6: deliberately far below healthy
    // release-build rates so only a real algorithmic regression — not a
    // slow CI runner — can trip it. Debug builds are exempt.
    const MUTATION_FLOOR_PAIRS_PER_SEC: f64 = 100_000.0;
    let mutation_rate = per_sec(MUTATION_PAIRS, mutations);
    Json::obj()
        .field("population", N)
        .field("attrs", ATTRS)
        .field("k", K)
        .field("distinct_queries", pool.len())
        .field("cold_queries_per_sec", per_sec(pool.len(), cold))
        .field("warm_queries_per_sec", per_sec(WARM_PASSES * pool.len(), warm))
        .field("mutation_pairs_per_sec", mutation_rate)
        .field("mutation_floor_pairs_per_sec", MUTATION_FLOOR_PAIRS_PER_SEC)
        .field(
            "mutation_throughput_ok",
            cfg!(debug_assertions) || mutation_rate >= MUTATION_FLOOR_PAIRS_PER_SEC,
        )
        .field("cold_wall_s", cold.as_secs_f64())
        .field("warm_wall_s", warm.as_secs_f64())
        .field("mutation_wall_s", mutations.as_secs_f64())
}

/// Fig 2 config at quick scale, 8 trials: sequential vs parallel runner,
/// plus the cross-policy identity check (incremental memo invalidation
/// vs a memo-free database). `pool` is the `--threads` flag's pool (auto
/// when absent).
fn track_workload(pool: Threads) -> Json {
    let mut cfg = BaseCfg::for_scale(Scale::Quick);
    cfg.trials = 8;
    let algos = standard_algos();
    let rs = RsConfig::default();

    let t0 = Instant::now();
    let seq = track_with_threads(&cfg, &algos, rs, &count_star_tracked, Threads::fixed(1));
    let seq_wall = t0.elapsed();

    let threads_used = pool.resolve(cfg.trials);
    let t0 = Instant::now();
    let par = track_with_threads(&cfg, &algos, rs, &count_star_tracked, pool);
    let par_wall = t0.elapsed();

    // Same track without a memo: estimator records must be
    // bit-identical — caching is invisible to figures.
    let mut disabled_cfg = cfg.clone();
    disabled_cfg.memo_policy = InvalidationPolicy::Disabled;
    let t0 = Instant::now();
    let disabled =
        track_with_threads(&disabled_cfg, &algos, rs, &count_star_tracked, Threads::fixed(1));
    let disabled_wall = t0.elapsed();

    Json::obj()
        .field("config", "fig02 quick scale")
        .field("initial", cfg.initial)
        .field("rounds", cfg.rounds)
        .field("trials", cfg.trials)
        .field("budget_g", cfg.g)
        .field("sequential_wall_s", seq_wall.as_secs_f64())
        .field("parallel_wall_s", par_wall.as_secs_f64())
        .field("parallel_threads", threads_used)
        .field("speedup", seq_wall.as_secs_f64() / par_wall.as_secs_f64().max(f64::MIN_POSITIVE))
        .field("bit_identical", outcomes_bit_identical(&seq, &par))
        .field("disabled_sequential_wall_s", disabled_wall.as_secs_f64())
        .field("bit_identical_across_policies", outcomes_bit_identical(&seq, &disabled))
}

/// Order-sensitive FNV-1a-style fold of one answer into a running
/// fingerprint: classification, page keys, and raw measure bits.
fn fold_outcome(mut h: u64, out: &QueryOutcome) -> u64 {
    const P: u64 = 0x0000_0100_0000_01B3;
    let mut eat = |word: u64| {
        h ^= word;
        h = h.wrapping_mul(P);
    };
    eat(match out {
        QueryOutcome::Underflow => 1,
        QueryOutcome::Valid(_) => 2,
        QueryOutcome::Overflow(_) => 3,
    });
    for t in out.tuples() {
        eat(t.key().0);
        for m in t.measures() {
            eat(m.to_bits());
        }
    }
    h
}

/// [`fold_outcome`] over one pass of `pool`, each query answered by
/// `answer`.
fn pool_fingerprint(
    pool: &[ConjunctiveQuery],
    mut answer: impl FnMut(&ConjunctiveQuery) -> QueryOutcome,
) -> u64 {
    pool.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, q| fold_outcome(h, &answer(q)))
}

/// Fig 5-style little-change rounds: a small batch mutates the database,
/// then a fixed overlapping query pool is re-asked — once per run. This
/// is the workload incremental invalidation exists for: the `wholesale`
/// run clears the whole memo after every batch (`set_k` to the same
/// `k`) and pays a full cold pool every round, incremental keeps
/// everything the batch didn't touch warm.
fn memo_little_change() -> Json {
    const N: usize = 4_000;
    const K: usize = 100;
    const ATTRS: usize = 12;
    const ROUNDS: usize = 30;
    const INSERTS_PER_ROUND: usize = 4;

    let run = |policy: InvalidationPolicy, clear_each_round: bool| {
        let mut gen = AutosGenerator::with_attrs(ATTRS);
        let mut rng = StdRng::seed_from_u64(0xF165);
        let mut db = load_database(&mut gen, &mut rng, N, K, ScoringPolicy::default());
        db.set_invalidation_policy(policy);
        let pool = query_pool(&db.schema().clone());
        let mut fingerprint = 0xcbf2_9ce4_8422_2325u64;
        let mut fresh_key = 20_000_000u64;
        let t0 = Instant::now();
        for round in 0..ROUNDS {
            // Little-change batch: 4 inserts, 2 deletes, 2 measure
            // updates (disjoint victims: one sample, split).
            let victims = db.sample_alive_keys(&mut rng, 4);
            let mut batch = UpdateBatch::empty();
            for key in victims.iter().take(2) {
                batch = batch.delete(*key);
            }
            for key in victims.iter().skip(2) {
                batch = batch.update_measures(*key, vec![round as f64]);
            }
            for _ in 0..INSERTS_PER_ROUND {
                let t = gen.make(&mut rng);
                fresh_key += 1;
                batch = batch.insert(Tuple::new(
                    TupleKey(fresh_key),
                    t.values().to_vec(),
                    t.measures().to_vec(),
                ));
            }
            db.apply(batch).expect("little-change batch is valid");
            if clear_each_round {
                db.set_k(K);
            }
            for q in &pool {
                fingerprint = fold_outcome(fingerprint, &db.answer(q));
            }
        }
        let wall = t0.elapsed();
        (db, fingerprint, wall, pool.len())
    };

    let (inc_db, inc_fp, inc_wall, pool_len) = run(InvalidationPolicy::Incremental, false);
    let (who_db, who_fp, who_wall, _) = run(InvalidationPolicy::Incremental, true);
    let (_, dis_fp, dis_wall, _) = run(InvalidationPolicy::Disabled, false);

    let inc_rate = inc_db.stats().cache_hit_rate();
    let who_rate = who_db.stats().cache_hit_rate();
    let policy_json = |db: &hidden_db::HiddenDatabase, wall: std::time::Duration| {
        let s = db.stats();
        let m = db.memo_stats();
        Json::obj()
            .field("wall_s", wall.as_secs_f64())
            .field("answered", s.answered)
            .field("cache_hits", s.cache_hits)
            .field("hit_rate", s.cache_hit_rate())
            .field("memo_len_final", db.memo_len())
            .field("invalidated", m.invalidated)
            .field("retained", m.retained)
            .field("evicted", m.evicted)
            .field("wholesale_clears", m.wholesale_clears)
    };
    Json::obj()
        .field("population", N)
        .field("rounds", ROUNDS)
        .field("pool_distinct_queries", pool_len)
        .field("batch_per_round", "4 inserts, 2 deletes, 2 measure updates")
        .field("incremental", policy_json(&inc_db, inc_wall))
        .field("wholesale", policy_json(&who_db, who_wall))
        .field("disabled_wall_s", dis_wall.as_secs_f64())
        .field("memo_consistent", inc_fp == who_fp && inc_fp == dis_fp)
        .field("memo_hit_rate_improved", inc_rate > who_rate)
        .field("hit_rate_gain", inc_rate - who_rate)
}

/// A distinct-query flood against a deliberately small memo capacity:
/// the CLOCK admission policy must keep the memo bounded (and actually
/// evict) instead of growing without limit as it did pre-PR-2.
fn memo_adversarial() -> Json {
    const N: usize = 2_000;
    const K: usize = 50;
    const ATTRS: usize = 12;
    const CAPACITY: usize = 512;
    const TARGET_QUERIES: usize = 4_096;

    let mut gen = AutosGenerator::with_attrs(ATTRS);
    let mut rng = StdRng::seed_from_u64(0xAD7E);
    let mut db = load_database(&mut gen, &mut rng, N, K, ScoringPolicy::default());
    db.set_memo_capacity(CAPACITY);
    let schema = db.schema().clone();
    let attrs: Vec<_> = schema.attr_ids().collect();

    let mut issued = 0usize;
    let mut max_len = 0usize;
    let t0 = Instant::now();
    'outer: for (i, &a0) in attrs.iter().enumerate() {
        for &a1 in attrs.iter().skip(i + 1) {
            for v0 in 0..schema.domain_size(a0) {
                for v1 in 0..schema.domain_size(a1) {
                    let q = ConjunctiveQuery::from_predicates([
                        Predicate::new(a0, hidden_db::value::ValueId(v0)),
                        Predicate::new(a1, hidden_db::value::ValueId(v1)),
                    ]);
                    db.answer(&q);
                    issued += 1;
                    max_len = max_len.max(db.memo_len());
                    if issued >= TARGET_QUERIES {
                        break 'outer;
                    }
                }
            }
        }
    }
    let wall = t0.elapsed();
    let m = db.memo_stats();
    Json::obj()
        .field("population", N)
        .field("capacity", CAPACITY)
        .field("distinct_queries", issued)
        .field("queries_per_sec", issued as f64 / wall.as_secs_f64())
        .field("max_memo_len", max_len)
        .field("memo_len_final", db.memo_len())
        .field("evicted", m.evicted)
        .field("memo_bounded", max_len <= CAPACITY && m.evicted > 0)
}

/// Deep-query pool: every 3-predicate combination over the first three
/// attributes plus a 4-predicate layer — the workload where a scan of
/// the rarest list alone would re-check every other predicate per
/// candidate.
fn deep_query_pool(schema: &hidden_db::schema::Schema) -> Vec<ConjunctiveQuery> {
    let attrs: Vec<_> = schema.attr_ids().collect();
    let mut pool = Vec::new();
    for v0 in 0..schema.domain_size(attrs[0]) {
        for v1 in 0..schema.domain_size(attrs[1]) {
            for v2 in 0..schema.domain_size(attrs[2]) {
                let q3 = ConjunctiveQuery::from_predicates([
                    Predicate::new(attrs[0], hidden_db::value::ValueId(v0)),
                    Predicate::new(attrs[1], hidden_db::value::ValueId(v1)),
                    Predicate::new(attrs[2], hidden_db::value::ValueId(v2)),
                ]);
                for v3 in 0..schema.domain_size(attrs[3]) {
                    pool.push(q3.with(attrs[3], hidden_db::value::ValueId(v3)));
                }
                pool.push(q3);
            }
        }
    }
    pool
}

/// PR 3: the galloping/bitset intersection engine on cold deep queries
/// (memo disabled so every answer evaluates), checked against the
/// brute-force `reference_answer`. `intersect_identical` must always be
/// true.
fn intersection_engine() -> Json {
    const N: usize = 20_000;
    const K: usize = 50;
    const ATTRS: usize = 12;
    const PASSES: usize = 6;

    let mut gen = AutosGenerator::with_attrs(ATTRS);
    let mut rng = StdRng::seed_from_u64(0x1A7E);
    let mut db = load_database(&mut gen, &mut rng, N, K, ScoringPolicy::default());
    db.set_invalidation_policy(InvalidationPolicy::Disabled);
    let pool = deep_query_pool(&db.schema().clone());
    let t0 = Instant::now();
    let engine_fps: Vec<u64> =
        (0..PASSES).map(|_| pool_fingerprint(&pool, |q| db.answer(q))).collect();
    let engine_wall = t0.elapsed();
    // One reference pass: the brute-force scan costs far more than the engine.
    let reference_fp = pool_fingerprint(&pool, |q| db.reference_answer(q));
    let stats = db.eval_stats();
    let queries = PASSES * pool.len();
    Json::obj()
        .field("population", N)
        .field("k", K)
        .field("deep_queries_per_pass", pool.len())
        .field("min_predicates", 3u64)
        .field("engine_queries_per_sec", queries as f64 / engine_wall.as_secs_f64())
        .field("gallop_intersections", stats.gallop_intersections)
        .field("bitset_intersections", stats.bitset_intersections)
        .field("blockmax_intersections", stats.blockmax_intersections)
        .field("blocks_scanned", stats.blocks_scanned)
        .field("blocks_skipped", stats.blocks_skipped)
        .field("pivot_advances", stats.pivot_advances)
        .field("early_exits", stats.early_exits)
        .field("intersect_identical", engine_fps.iter().all(|&fp| fp == reference_fp))
}

/// PR 8: the k-way block-max engine vs the pair strategies on
/// conjunctions of 2/3/4/6 half-density predicates — six binary
/// attributes populated from independent key bits, so every posting
/// list covers ≈ N/2 tuples and a `p`-predicate conjunction selects
/// ≈ N/2^p. This is the regime where two-rarest + residual re-check
/// pays the most per candidate: the pair engines intersect two ~60 k
/// lists and column-check the rest per survivor, while the block-max
/// engine merges all lists at once.
///
/// The ranking is the canonical block-max motivating distribution: the
/// top scorers live in one *hot* 256-slot block per segment, with the
/// hot scores interleaved across segments so every segment's bound is
/// within a hair of the global maximum. Segment-granular pruning is
/// blind — no segment bound ever drops under the top-`k` floor, so the
/// pair engines scan every segment end to end — while per-block bounds
/// still discriminate perfectly: the block-max engine visits the ~30
/// hot blocks and skips the other ~450 whole.
/// `kway_identical` (every engine and the brute-force `reference_answer`
/// agree on every pool) must always be true;
/// `kway_speedup_on_multipredicate` asserts the ≥1.3× win on the
/// 4-predicate pool against the better pair engine.
fn intersection_kway() -> Json {
    const SEGMENTS: u64 = 30;
    const N: u64 = SEGMENTS * hidden_db::SEGMENT_SLOTS as u64;
    const K: usize = 25;
    const PASSES: usize = 10;
    const ATTRS: usize = 6;

    let block_slots = hidden_db::BLOCK_SLOTS as u64;
    let blocks_per_segment = hidden_db::BLOCKS_PER_SEGMENT as u64;
    // Hot block = the first block of each segment. Hot scores form one
    // global staircase dealt round-robin across segments (rank
    // `i * SEGMENTS + segment` within the hot set), so the true top-k
    // spans many segments and every segment bound stays near the top.
    // Cold tuples cycle far below.
    let measure = move |key: u64| {
        let in_block = key % block_slots;
        if (key / block_slots).is_multiple_of(blocks_per_segment) {
            1_000_000.0 - (in_block * SEGMENTS + key / (block_slots * blocks_per_segment)) as f64
        } else {
            in_block as f64
        }
    };
    let fresh = |config: EvalConfig| {
        let schema = hidden_db::schema::Schema::with_domain_sizes(&[2; ATTRS], &["m"])
            .expect("valid schema");
        let mut db =
            hidden_db::HiddenDatabase::new(schema, K, ScoringPolicy::ByMeasureDesc(MeasureId(0)));
        db.set_invalidation_policy(InvalidationPolicy::Disabled);
        db.set_eval_config(config);
        for key in 0..N {
            let values = (0..ATTRS)
                .map(|bit| hidden_db::value::ValueId(((key >> bit) & 1) as u32))
                .collect();
            db.insert(Tuple::new(TupleKey(key), values, vec![measure(key)])).expect("fresh key");
        }
        db
    };
    // All value combinations over the first `preds` attributes.
    let pool_for = |preds: usize| -> Vec<ConjunctiveQuery> {
        (0..1u32 << preds)
            .map(|mask| {
                ConjunctiveQuery::from_predicates((0..preds).map(|a| {
                    Predicate::new(
                        hidden_db::value::AttrId(a as u16),
                        hidden_db::value::ValueId((mask >> a) & 1),
                    )
                }))
            })
            .collect()
    };

    let policies = [
        ("blockmax", EvalConfig { early_exit: true, intersect: IntersectPolicy::BlockMax }),
        ("gallop", EvalConfig { early_exit: true, intersect: IntersectPolicy::Gallop }),
        ("bitset", EvalConfig { early_exit: true, intersect: IntersectPolicy::Bitset }),
    ];
    let mut dbs: Vec<(&str, hidden_db::HiddenDatabase)> =
        policies.iter().map(|&(name, config)| (name, fresh(config))).collect();

    let mut report = Json::obj()
        .field("population", N)
        .field("k", K)
        .field("passes", PASSES)
        .field("list_density", "each of 6 binary attributes covers ~N/2");
    let mut all_identical = true;
    let mut speedup4 = 0.0f64;
    for preds in [2usize, 3, 4, 6] {
        let pool = pool_for(preds);
        let mut section = Json::obj().field("pool_queries", pool.len());
        let reference_fp = pool_fingerprint(&pool, |q| dbs[0].1.reference_answer(q));
        let mut fingerprints: Vec<u64> = Vec::new();
        let mut qps_by_policy: Vec<f64> = Vec::new();
        for (name, db) in dbs.iter_mut() {
            let t0 = Instant::now();
            let fps: Vec<u64> =
                (0..PASSES).map(|_| pool_fingerprint(&pool, |q| db.answer(q))).collect();
            let wall = t0.elapsed();
            let qps = (PASSES * pool.len()) as f64 / wall.as_secs_f64();
            fingerprints.extend(fps);
            qps_by_policy.push(qps);
            section = section.field(&format!("{name}_queries_per_sec"), qps);
        }
        let identical = fingerprints.iter().all(|&fp| fp == reference_fp);
        all_identical &= identical;
        section = section.field("identical", identical);
        if preds == 4 {
            // policies[0] is blockmax; [1]/[2] are the pair engines.
            speedup4 = qps_by_policy[0] / qps_by_policy[1].max(qps_by_policy[2]);
            section = section.field("blockmax_vs_best_pair_speedup", speedup4);
        }
        report = report.field(&format!("preds_{preds}"), section);
    }
    let stats = dbs[0].1.eval_stats();
    report
        .field("blockmax_intersections", stats.blockmax_intersections)
        .field("blocks_scanned", stats.blocks_scanned)
        .field("blocks_skipped", stats.blocks_skipped)
        .field("pivot_advances", stats.pivot_advances)
        .field("early_exits", stats.early_exits)
        .field("speedup_4pred", speedup4)
        .field("kway_identical", all_identical)
        .field("kway_speedup_on_multipredicate", speedup4 >= 1.3)
}

/// PR 3: overflow-heavy `NewestFirst` scans with the heap-floor early
/// exit on vs off. `early_exit_consistent` must always be true.
fn early_exit_workload() -> Json {
    const N: usize = 30_000;
    const K: usize = 100;
    const ATTRS: usize = 12;
    const PASSES: usize = 40;

    let run = |early_exit: bool| {
        let mut gen = AutosGenerator::with_attrs(ATTRS);
        let mut rng = StdRng::seed_from_u64(0xEE17);
        let mut db = load_database(&mut gen, &mut rng, N, K, ScoringPolicy::NewestFirst);
        db.set_invalidation_policy(InvalidationPolicy::Disabled);
        db.set_eval_config(EvalConfig { early_exit, ..EvalConfig::default() });
        let schema = db.schema().clone();
        // Root + every depth-1 query: the popular ones overflow hard.
        let mut pool = vec![ConjunctiveQuery::select_all()];
        for a in schema.attr_ids() {
            for v in 0..schema.domain_size(a) {
                pool.push(ConjunctiveQuery::from_predicates([Predicate::new(
                    a,
                    hidden_db::value::ValueId(v),
                )]));
            }
        }
        let mut fingerprint = 0xcbf2_9ce4_8422_2325u64;
        let t0 = Instant::now();
        for _ in 0..PASSES {
            for q in &pool {
                fingerprint = fold_outcome(fingerprint, &db.answer(q));
            }
        }
        let wall = t0.elapsed();
        (db, fingerprint, wall, PASSES * pool.len())
    };

    let (exit_db, exit_fp, exit_wall, queries) = run(true);
    let (_, full_fp, full_wall, _) = run(false);
    let stats = exit_db.eval_stats();
    Json::obj()
        .field("population", N)
        .field("k", K)
        .field("scoring", "NewestFirst")
        .field("queries", queries)
        .field("early_exit_queries_per_sec", queries as f64 / exit_wall.as_secs_f64())
        .field("exhaustive_queries_per_sec", queries as f64 / full_wall.as_secs_f64())
        .field("speedup", full_wall.as_secs_f64() / exit_wall.as_secs_f64().max(f64::MIN_POSITIVE))
        .field("early_exits", stats.early_exits)
        .field("segments_skipped", stats.segments_skipped)
        .field("early_exit_consistent", exit_fp == full_fp)
}

/// PR 3: ground truth fanned out over store segments. The segment-
/// ordered replay merge must reproduce the sequential sweep bit-for-bit
/// at every thread count (`ground_truth_bit_identical`).
fn ground_truth_parallelism() -> Json {
    const N: usize = 60_000;
    const K: usize = 100;
    const ATTRS: usize = 12;
    const PASSES: usize = 10;

    let mut gen = AutosGenerator::with_attrs(ATTRS);
    let mut rng = StdRng::seed_from_u64(0x67A7);
    let mut db = load_database(&mut gen, &mut rng, N, K, ScoringPolicy::default());
    // Fragment segments so the fan-out sees uneven alive counts.
    for victim in db.sample_alive_keys(&mut rng, N / 8) {
        db.delete(victim).expect("sampled keys are alive");
    }
    let schema = db.schema().clone();
    let attrs: Vec<_> = schema.attr_ids().collect();
    let cond =
        ConjunctiveQuery::from_predicates([Predicate::new(attrs[0], hidden_db::value::ValueId(0))]);

    let seq_count = db.exact_count(Some(&cond));
    let seq_sum = db.exact_sum(Some(&cond), |t| t.measure(MeasureId(0)));
    let seq_root = db.exact_sum(None, |t| t.measure(MeasureId(0)));

    let mut bit_identical = true;
    let mut per_threads = Json::obj();
    let mut seq_wall_s = 0.0;
    for workers in [1usize, 2, 4, 7] {
        let threads = Threads::fixed(workers);
        let t0 = Instant::now();
        let mut count = 0u64;
        let mut sum = 0.0;
        let mut root = 0.0;
        for _ in 0..PASSES {
            count = db.exact_count_threads(Some(&cond), threads);
            sum = db.exact_sum_threads(Some(&cond), |t| t.measure(MeasureId(0)), threads);
            root = db.exact_sum_threads(None, |t| t.measure(MeasureId(0)), threads);
        }
        let wall = t0.elapsed().as_secs_f64() / PASSES as f64;
        if workers == 1 {
            seq_wall_s = wall;
        }
        bit_identical &= count == seq_count
            && sum.to_bits() == seq_sum.to_bits()
            && root.to_bits() == seq_root.to_bits();
        per_threads = per_threads.field(
            &workers.to_string(),
            Json::obj()
                .field("wall_s_per_pass", wall)
                .field("speedup_vs_1", seq_wall_s / wall.max(f64::MIN_POSITIVE)),
        );
    }
    Json::obj()
        .field("population", N)
        .field("alive", db.len())
        .field("segments", N.div_ceil(hidden_db::SEGMENT_SLOTS))
        .field("passes", PASSES)
        .field("per_threads", per_threads)
        .field("ground_truth_bit_identical", bit_identical)
}

/// PR 5: the delete-heavy `ByMeasureDesc` pool where stale segment
/// bounds disarm the early exit. Every segment starts with the same
/// measure distribution (all bounds near the global maximum); the churn
/// then purges the high scorers everywhere *except* the last segment —
/// a category-style purge that leaves the alive maxima skewed while
/// every stale bound still sits at the old global maximum. Post-churn,
/// overflowing scans cannot skip a single segment (`skips_before`, the
/// state of main); one `compact()` recomputes exact bounds and the same
/// pool skips nearly everything (`early_exit_rearmed`) with
/// bit-identical answers (`compaction_identical`).
fn compaction_workload() -> Json {
    const SEGS: usize = 6;
    const K: usize = 100;
    const PASSES: usize = 40;
    const CUTOFF: u64 = 500_000;

    let n = (SEGS * hidden_db::SEGMENT_SLOTS) as u64;
    let measure = |key: u64| (key.wrapping_mul(2654435761) % 1_000_000) as f64;
    let schema = hidden_db::schema::Schema::with_domain_sizes(&[4, 5], &["m"]).unwrap();
    let mut db = hidden_db::HiddenDatabase::new(
        schema.clone(),
        K,
        ScoringPolicy::ByMeasureDesc(MeasureId(0)),
    );
    db.set_invalidation_policy(InvalidationPolicy::Disabled);
    for key in 0..n {
        db.insert(Tuple::new(
            TupleKey(key),
            vec![
                hidden_db::value::ValueId((key % 4) as u32),
                hidden_db::value::ValueId((key % 5) as u32),
            ],
            vec![measure(key)],
        ))
        .expect("unique keys");
    }
    // The purge: high scorers die everywhere but the last segment.
    let last_seg_start = ((SEGS - 1) * hidden_db::SEGMENT_SLOTS) as u64;
    for key in 0..last_seg_start {
        if measure(key) >= CUTOFF as f64 {
            db.delete(TupleKey(key)).expect("alive key");
        }
    }
    let stale_segments = db.stale_segment_count();

    // Root + every depth-1 query: all overflow hard at k=100.
    let mut pool = vec![ConjunctiveQuery::select_all()];
    for a in schema.attr_ids() {
        for v in 0..schema.domain_size(a) {
            pool.push(ConjunctiveQuery::from_predicates([Predicate::new(
                a,
                hidden_db::value::ValueId(v),
            )]));
        }
    }
    let run = |db: &mut hidden_db::HiddenDatabase| {
        let before = db.eval_stats();
        let mut fingerprint = 0xcbf2_9ce4_8422_2325u64;
        let t0 = Instant::now();
        for _ in 0..PASSES {
            for q in &pool {
                fingerprint = fold_outcome(fingerprint, &db.answer(q));
            }
        }
        let wall = t0.elapsed();
        let after = db.eval_stats();
        let skips = after.segments_skipped - before.segments_skipped;
        let exits = after.early_exits - before.early_exits;
        (fingerprint, wall, skips, exits)
    };

    let mut stale_db = db.clone();
    let (fp_before, wall_before, skips_before, exits_before) = run(&mut stale_db);

    let report = db.compact();
    let (fp_after, wall_after, skips_after, exits_after) = run(&mut db);

    // Third opinion: the exhaustive (early-exit-off) engine on the
    // compacted store.
    let mut exhaustive = db.clone();
    exhaustive.set_eval_config(EvalConfig { early_exit: false, ..EvalConfig::default() });
    let (fp_exhaustive, _, _, _) = run(&mut exhaustive);

    let queries = PASSES * pool.len();
    let qps_before = queries as f64 / wall_before.as_secs_f64();
    let qps_after = queries as f64 / wall_after.as_secs_f64();
    Json::obj()
        .field("population", n)
        .field("alive", db.len())
        .field("segments", SEGS)
        .field("k", K)
        .field("scoring", "ByMeasureDesc")
        .field("stale_segments_after_churn", stale_segments)
        .field("bounds_tightened", report.bounds_tightened)
        .field("postings_purged", report.postings_purged)
        .field("maintenance_slots_scanned", report.slots_scanned)
        .field("queries", queries)
        .field("stale_queries_per_sec", qps_before)
        .field("compacted_queries_per_sec", qps_after)
        .field("speedup", qps_after / qps_before.max(f64::MIN_POSITIVE))
        .field("early_exits_before", exits_before)
        .field("early_exits_after", exits_after)
        .field("segment_skips_before", skips_before)
        .field("segment_skips_after", skips_after)
        .field("early_exit_rearmed", skips_before == 0 && skips_after > 0)
        .field("compaction_identical", fp_before == fp_after && fp_after == fp_exhaustive)
}

/// PR 5: cross-round memo revalidation on a churn-heavy Fig 10-style
/// pool (inserts + deletes + measure updates every round, a fixed
/// overlapping query pool re-asked each round). The PR 2 incremental
/// baseline drops every affected entry and re-evaluates from cold;
/// revalidation demotes spared overflow pages and resurrects them at the
/// next ask. `revalidation_consistent` (three-way answer fingerprints)
/// and `revalidation_hit_rate_improved` (strictly above the PR 2
/// baseline) must always hold.
fn revalidation_workload() -> Json {
    const N: usize = 4_000;
    const K: usize = 100;
    const ATTRS: usize = 12;
    const ROUNDS: usize = 30;
    const INSERTS_PER_ROUND: usize = 6;

    let run = |policy: InvalidationPolicy, revalidation: bool| {
        let mut gen = AutosGenerator::with_attrs(ATTRS);
        let mut rng = StdRng::seed_from_u64(0xF110);
        let mut db = load_database(&mut gen, &mut rng, N, K, ScoringPolicy::default());
        db.set_invalidation_policy(policy);
        db.set_revalidation(revalidation);
        let pool = query_pool(&db.schema().clone());
        let mut fingerprint = 0xcbf2_9ce4_8422_2325u64;
        let mut fresh_key = 30_000_000u64;
        let t0 = Instant::now();
        for round in 0..ROUNDS {
            // Churn-heavy batch: 6 inserts, 6 deletes, 2 measure updates.
            let victims = db.sample_alive_keys(&mut rng, 8);
            let mut batch = UpdateBatch::empty();
            for key in victims.iter().take(6) {
                batch = batch.delete(*key);
            }
            for key in victims.iter().skip(6) {
                batch = batch.update_measures(*key, vec![round as f64]);
            }
            for _ in 0..INSERTS_PER_ROUND {
                let t = gen.make(&mut rng);
                fresh_key += 1;
                batch = batch.insert(Tuple::new(
                    TupleKey(fresh_key),
                    t.values().to_vec(),
                    t.measures().to_vec(),
                ));
            }
            db.apply(batch).expect("churn batch is valid");
            for q in &pool {
                fingerprint = fold_outcome(fingerprint, &db.answer(q));
            }
        }
        let wall = t0.elapsed();
        (db, fingerprint, wall)
    };

    let (reval_db, reval_fp, reval_wall) = run(InvalidationPolicy::Incremental, true);
    let (base_db, base_fp, base_wall) = run(InvalidationPolicy::Incremental, false);
    let (_, oracle_fp, _) = run(InvalidationPolicy::Disabled, false);

    let reval_rate = reval_db.stats().cache_hit_rate();
    let base_rate = base_db.stats().cache_hit_rate();
    let m = reval_db.memo_stats();
    Json::obj()
        .field("population", N)
        .field("rounds", ROUNDS)
        .field("batch_per_round", "6 inserts, 6 deletes, 2 measure updates")
        .field("revalidation_wall_s", reval_wall.as_secs_f64())
        .field("baseline_wall_s", base_wall.as_secs_f64())
        .field("revalidation_hit_rate", reval_rate)
        .field("baseline_hit_rate", base_rate)
        .field("hit_rate_gain", reval_rate - base_rate)
        .field("demoted", m.demoted)
        .field("resurrected", m.resurrected)
        .field("revalidation_failed", m.revalidation_failed)
        .field(
            "resurrection_rate",
            m.resurrected as f64 / (m.resurrected + m.revalidation_failed).max(1) as f64,
        )
        .field("revalidation_consistent", reval_fp == base_fp && reval_fp == oracle_fp)
        .field("revalidation_hit_rate_improved", reval_rate > base_rate)
}

/// PR 6: the fault-injected interface stack over a small exhaustive
/// signature pool (schema `[3, 4, 2]`, so every drill terminates fast
/// and the pool is enumerable).
///
/// Three measurements:
/// 1. **Wrapper overhead when quiet** — the same drill pool bare vs
///    through `FaultyBackend(off) + ResilientBackend`; the wrapper adds
///    a schedule decision and a match per issue, so the fraction must
///    stay small (`fault_off_overhead_near_zero`; generous slack because
///    warm drills are memo-hit cheap and timing-noisy). The experiment
///    runner skips the wrapper entirely at `--faults off`, so its
///    structural overhead is exactly zero — this measures the worst
///    case of leaving the layer permanently interposed.
/// 2. **Recovered-storm identity** — seeded storms at rates 0.1/0.3/0.5
///    recovered by the default policy must reproduce every fault-free
///    drill bit-for-bit with zero give-ups
///    (`faults_identical_when_recovered`).
/// 3. **Quality vs fault rate** — the Fig 2 tracked workload with
///    `--faults seeded:<rate>`: burned retries shrink the effective
///    per-round budget, so accuracy decays gracefully as the rate
///    climbs (reported, not asserted — the decay is the figure).
fn fault_recovery(pool: Threads) -> Json {
    const N: u64 = 2_000;
    const K: usize = 50;
    const PASSES: usize = 60;
    const STORM_RATES: [f64; 3] = [0.1, 0.3, 0.5];

    let schema = hidden_db::schema::Schema::with_domain_sizes(&[3, 4, 2], &["m"]).unwrap();
    let mut db = hidden_db::HiddenDatabase::new(schema.clone(), K, ScoringPolicy::default());
    let mut rng = StdRng::seed_from_u64(0xFA17);
    for t in 0..N {
        db.insert(Tuple::new(
            TupleKey(t),
            vec![
                hidden_db::value::ValueId(rng.random_range(0..3)),
                hidden_db::value::ValueId(rng.random_range(0..4)),
                hidden_db::value::ValueId(rng.random_range(0..2)),
            ],
            vec![rng.random_range(1..100) as f64],
        ))
        .expect("unique keys");
    }
    let tree = QueryTree::full(&schema);
    let sigs = enumerate_all(&tree);
    let spec = AggregateSpec::sum_measure(MeasureId(0), ConjunctiveQuery::select_all());
    let digest = |out: &query_tree::DrillOutcome| {
        let sample = ht_sample(&spec, &tree, out);
        (out.depth, out.cost, sample.count.to_bits(), sample.sum.to_bits())
    };

    // Bare reference (also warms the memo so both timed passes compare
    // steady-state costs).
    let mut reference = Vec::with_capacity(sigs.len());
    for sig in &sigs {
        let mut s = SearchSession::unlimited(&mut db);
        reference.push(digest(&drill_from_root(&tree, sig, &mut s).expect("unlimited budget")));
    }
    let t0 = Instant::now();
    for _ in 0..PASSES {
        for sig in &sigs {
            let mut s = SearchSession::unlimited(&mut db);
            std::hint::black_box(drill_from_root(&tree, sig, &mut s).expect("unlimited budget"));
        }
    }
    let bare_wall = t0.elapsed();

    // The full stack with a quiet schedule: identical answers, near-zero
    // added cost.
    let mut off_identical = true;
    let t0 = Instant::now();
    for _ in 0..PASSES {
        for (i, sig) in sigs.iter().enumerate() {
            let session = SearchSession::unlimited(&mut db);
            let faulty = FaultyBackend::new(session, FaultSchedule::off());
            let mut stack = ResilientBackend::new(faulty, RetryPolicy::default(), 0xD1CE);
            let out = drill_from_root(&tree, sig, &mut stack).expect("quiet schedule");
            off_identical &= digest(&out) == reference[i];
        }
    }
    let off_wall = t0.elapsed();
    let overhead_frac =
        off_wall.as_secs_f64() / bare_wall.as_secs_f64().max(f64::MIN_POSITIVE) - 1.0;
    let off_overhead_near_zero =
        overhead_frac < 0.5 || (off_wall.as_secs_f64() - bare_wall.as_secs_f64()).abs() < 0.1;

    // Recovered storms: every drill must come back bit-identical with
    // zero give-ups (the default burst cap sits below the retry budget).
    let mut storm_identical = true;
    let mut retries = 0u64;
    let mut recovered = 0u64;
    let mut gave_up = 0u64;
    for (r, &rate) in STORM_RATES.iter().enumerate() {
        for (i, sig) in sigs.iter().enumerate() {
            let seed = 0x00FA_0000 ^ ((r as u64) << 32) ^ i as u64;
            let session = SearchSession::unlimited(&mut db);
            let faulty = FaultyBackend::new(session, FaultSchedule::seeded(seed, rate));
            let mut stack = ResilientBackend::new(faulty, RetryPolicy::default(), seed ^ 0x1ABE);
            let out = drill_from_root(&tree, sig, &mut stack).expect("recoverable storm");
            let stats = stack.stats();
            retries += stats.retries;
            recovered += stats.recovered;
            gave_up += stats.gave_up;
            storm_identical &= digest(&out) == reference[i];
        }
    }

    // Quality vs fault rate on the tracked workload: the burn shrinks
    // the effective budget, accuracy decays gracefully.
    let mut sweep = Json::obj();
    for rate in [0.0f64, 0.2, 0.4] {
        let mut cfg = BaseCfg::for_scale(Scale::Quick);
        cfg.initial = 1_500;
        cfg.rounds = 6;
        cfg.trials = 2;
        cfg.faults = if rate == 0.0 { FaultsMode::Off } else { FaultsMode::Seeded { rate } };
        let t0 = Instant::now();
        let out = track_with_threads(
            &cfg,
            &standard_algos(),
            RsConfig::default(),
            &count_star_tracked,
            pool,
        );
        let wall = t0.elapsed();
        let mut per = Json::obj().field("wall_s", wall.as_secs_f64());
        for a in &out.algos {
            per = per.field(
                a.name,
                Json::obj()
                    .field("tail_rel_err", tail_mean(&a.rel_err, 3))
                    .field("cum_queries_final", a.cum_queries.mean(cfg.rounds - 1)),
            );
        }
        sweep = sweep.field(&format!("rate_{rate}"), per);
    }

    Json::obj()
        .field("population", N)
        .field("signatures", sigs.len())
        .field("passes", PASSES)
        .field("bare_wall_s", bare_wall.as_secs_f64())
        .field("wrapped_off_wall_s", off_wall.as_secs_f64())
        .field("off_overhead_frac", overhead_frac)
        .field("fault_off_overhead_near_zero", off_overhead_near_zero && off_identical)
        .field("storm_rates", "0.1, 0.3, 0.5")
        .field("storm_retries", retries)
        .field("storm_recovered", recovered)
        .field("storm_gave_up", gave_up)
        .field("faults_identical_when_recovered", storm_identical && gave_up == 0)
        .field("quality_vs_rate", sweep)
}

fn num_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// PR 7: the shared concurrent service. For each client count `C` in
/// {1, 2, 4, 8}, `C` reader threads run deterministic per-client query
/// scripts against a session pinned to the epoch-0 snapshot while a
/// writer thread churns the service through the apply queue (deletes +
/// inserts every batch, pressure-triggered auto-compaction on). Each
/// client's answer fingerprint must equal the one computed from a
/// private `HiddenDatabase` frozen at epoch 0 — at every client count
/// and whatever interleaving the scheduler produces
/// (`shared_service_bit_identical`).
fn shared_service() -> Json {
    const N: usize = 10_000;
    const K: usize = 100;
    const ATTRS: usize = 12;
    const SCRIPT_PASSES: usize = 4;
    const CHURN_BATCHES: u64 = 50;
    const DELETES_PER_BATCH: u64 = 20;
    const CLIENTS: [usize; 4] = [1, 2, 4, 8];

    let mut gen = AutosGenerator::with_attrs(ATTRS);
    let mut rng = StdRng::seed_from_u64(0x5E4C);
    let reference = load_database(&mut gen, &mut rng, N, K, ScoringPolicy::default());
    let pool = query_pool(&reference.schema().clone());
    let script_len = SCRIPT_PASSES * pool.len();

    // Expected fingerprints per client slot, from a private copy frozen
    // at epoch 0. Client `c` walks the pool starting at offset `c * 17`
    // so concurrent clients never ride each other's issue order.
    let max_clients = *CLIENTS.iter().max().unwrap();
    let expected: Vec<u64> = (0..max_clients)
        .map(|c| {
            let mut frozen = reference.clone();
            let mut fp = 0xcbf2_9ce4_8422_2325u64;
            for i in 0..script_len {
                let q = &pool[(i + c * 17) % pool.len()];
                fp = fold_outcome(fp, &frozen.answer(q));
            }
            fp
        })
        .collect();

    let mut bit_identical = true;
    let mut per_clients = Json::obj();
    let mut single_qps = 0.0;
    let mut last_stats = hidden_db::ServiceStats::default();
    let mut last_memo = hidden_db::SharedMemoStats::default();
    for &clients in &CLIENTS {
        // A fresh service per client count so every run starts with a
        // cold shared memo and identical churn, making the throughput
        // numbers comparable.
        let service = DbService::with_auto_maintain(
            reference.clone(),
            AutoMaintain::Pressure { threshold: 256 },
        );
        let snap0 = service.snapshot();
        let t0 = Instant::now();
        let fingerprints: Vec<u64> = std::thread::scope(|scope| {
            let writer = service.clone();
            scope.spawn(move || {
                let mut gen = AutosGenerator::with_attrs(ATTRS);
                let mut rng = StdRng::seed_from_u64(0xC402);
                let mut fresh_key = 40_000_000u64;
                for round in 0..CHURN_BATCHES {
                    let mut batch = UpdateBatch::empty();
                    let base = round * DELETES_PER_BATCH;
                    for key in base..base + DELETES_PER_BATCH {
                        batch = batch.delete(TupleKey(key));
                    }
                    for _ in 0..DELETES_PER_BATCH {
                        let t = gen.make(&mut rng);
                        fresh_key += 1;
                        batch = batch.insert(Tuple::new(
                            TupleKey(fresh_key),
                            t.values().to_vec(),
                            t.measures().to_vec(),
                        ));
                    }
                    writer.apply(batch).expect("churn batch is valid");
                }
            });
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let mut session = service.session_at(std::sync::Arc::clone(&snap0), u64::MAX);
                    let pool = &pool;
                    scope.spawn(move || {
                        let mut fp = 0xcbf2_9ce4_8422_2325u64;
                        for i in 0..script_len {
                            let q = &pool[(i + c * 17) % pool.len()];
                            fp = fold_outcome(fp, &session.issue(q).expect("unlimited budget"));
                        }
                        fp
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        });
        let wall = t0.elapsed();
        for (c, fp) in fingerprints.iter().enumerate() {
            bit_identical &= *fp == expected[c];
        }
        let qps = (clients * script_len) as f64 / wall.as_secs_f64();
        if clients == 1 {
            single_qps = qps;
        }
        per_clients = per_clients.field(
            &clients.to_string(),
            Json::obj()
                .field("wall_s", wall.as_secs_f64())
                .field("aggregate_queries_per_sec", qps)
                .field("scaling_vs_1", qps / single_qps.max(f64::MIN_POSITIVE)),
        );
        last_stats = service.stats();
        last_memo = service.memo_stats();
    }

    Json::obj()
        .field("population", N)
        .field("k", K)
        .field("distinct_queries", pool.len())
        .field("script_len_per_client", script_len)
        .field("churn_batches", CHURN_BATCHES)
        .field("auto_maintain", "pressure:256")
        .field("per_clients", per_clients)
        .field("batches_applied", last_stats.batches_applied)
        .field("epochs_published", last_stats.epochs_published)
        .field("auto_maintain_runs", last_stats.auto_maintain_runs)
        .field("memo_hits", last_memo.hits)
        .field("memo_misses", last_memo.misses)
        .field("memo_hit_rate", last_memo.hit_rate())
        .field("shared_service_bit_identical", bit_identical)
}

/// PR 9: the out-of-core persistence tier on a fig12-style size sweep.
///
/// Per size `n`: the same deterministic pool (6 attributes and one
/// measure derived from multiplicative key hashes) is built three ways —
/// in RAM, and paged at resident budgets of `segments/4` and
/// `segments/16` (min 2, pager-clamped) with the tier attached from the
/// first insert, so residency is bounded through the *entire* build, not
/// just at query time. Each build then takes the same churn (a
/// contiguous 2 % delete window, strided measure updates, and fresh
/// inserts that reuse freed slots), answers the same query pool, and
/// computes the same ground-truth aggregates.
///
/// `persistence_identical`: every fingerprint and aggregate bit agrees
/// across all three builds at every size — paging is invisible to
/// answers. `resident_memory_bounded`: every paged build's
/// `peak_resident_segments` stays within its budget. At the largest
/// size the 1/4-budget build is also checkpointed and reopened
/// (`open_persistent`); the reopened database must reproduce the query
/// fingerprint, and both walls are recorded.
fn persistence_tier() -> Json {
    const DOMAINS: [u32; 6] = [4, 3, 5, 2, 6, 2];
    const K: usize = 100;
    // Debug builds sweep toy sizes (the flags still must hold); the
    // committed report is release-built at the full fig12-style sweep.
    let sizes: &[usize] =
        if cfg!(debug_assertions) { &[20_000, 60_000] } else { &[100_000, 1_000_000, 10_000_000] };

    let schema = hidden_db::schema::Schema::with_domain_sizes(&DOMAINS, &["m"]).unwrap();
    let value_of = |key: u64, a: usize| {
        (key.wrapping_mul(2654435761).rotate_left(a as u32 * 7) % u64::from(DOMAINS[a])) as u32
    };
    let measure_of = |key: u64| (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as f64;
    let tuple_of = |key: u64| {
        Tuple::new(
            TupleKey(key),
            (0..DOMAINS.len()).map(|a| hidden_db::value::ValueId(value_of(key, a))).collect(),
            vec![measure_of(key)],
        )
    };
    let pool = {
        let mut pool = vec![ConjunctiveQuery::select_all()];
        for a in [0u16, 1] {
            for v in 0..DOMAINS[a as usize] {
                pool.push(ConjunctiveQuery::from_predicates([Predicate::new(
                    hidden_db::value::AttrId(a),
                    hidden_db::value::ValueId(v),
                )]));
            }
        }
        pool.push(ConjunctiveQuery::from_predicates([
            Predicate::new(hidden_db::value::AttrId(2), hidden_db::value::ValueId(1)),
            Predicate::new(hidden_db::value::AttrId(4), hidden_db::value::ValueId(3)),
        ]));
        pool
    };

    struct BuildOut {
        db: hidden_db::HiddenDatabase,
        build_wall_s: f64,
        query_wall_s: f64,
        fingerprint: u64,
        /// `segments_faulted` delta over the query-pool pass alone.
        pool_faults: u64,
        count: u64,
        sum_bits: u64,
    }
    let run = |n: usize, persist: Option<(&std::path::Path, usize)>| -> BuildOut {
        let mut db = hidden_db::HiddenDatabase::new(schema.clone(), K, ScoringPolicy::default());
        // No memo: every answer must travel the paged eval path.
        db.set_invalidation_policy(InvalidationPolicy::Disabled);
        if let Some((dir, budget)) = persist {
            db.enable_persist(&hidden_db::PersistConfig::new(dir, budget))
                .expect("--persist dir must be writable");
        }
        let t0 = Instant::now();
        for key in 0..n as u64 {
            db.insert(tuple_of(key)).expect("unique keys");
        }
        // Churn: a contiguous 2 % delete window (sequential segments, so
        // the paged builds fault a bounded strip), strided measure
        // updates, then fresh inserts that pop the freed slots.
        let lo = (n / 2) as u64;
        let hi = lo + (n / 50) as u64;
        for key in lo..hi {
            db.delete(TupleKey(key)).expect("alive key");
        }
        for key in (0..lo).step_by(2_048) {
            db.update_measures(TupleKey(key), vec![measure_of(key) + 1.0]).expect("alive key");
        }
        for i in 0..(n / 200) as u64 {
            db.insert(tuple_of(10 * n as u64 + i)).expect("fresh key");
        }
        let build_wall_s = t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        let mut fingerprint = 0xcbf2_9ce4_8422_2325u64;
        let faults_before = db.persist_stats().segments_faulted;
        for q in &pool {
            fingerprint = fold_outcome(fingerprint, &db.answer(q));
        }
        let pool_faults = db.persist_stats().segments_faulted - faults_before;
        let count = db.exact_count(None);
        let sum_bits = db.exact_sum(None, |t| t.measure(MeasureId(0))).to_bits();
        let query_wall_s = t0.elapsed().as_secs_f64();
        BuildOut { db, build_wall_s, query_wall_s, fingerprint, pool_faults, count, sum_bits }
    };

    let scratch =
        std::env::temp_dir().join(format!("aggtrack-persist-bench-{}", std::process::id()));
    let mut report = Json::obj()
        .field("attrs", DOMAINS.len())
        .field("k", K)
        .field("pool_queries", pool.len())
        .field("churn", "2% contiguous deletes, 1/2048 measure updates, 0.5% reinserts");
    let mut identical = true;
    let mut bounded = true;
    let largest = *sizes.last().unwrap();
    for &n in sizes {
        let segments = (n + n / 200).div_ceil(hidden_db::SEGMENT_SLOTS);
        let ram = run(n, None);
        let mut section = Json::obj().field("segments", segments).field(
            "in_ram",
            Json::obj()
                .field("build_wall_s", ram.build_wall_s)
                .field("query_wall_s", ram.query_wall_s)
                .field("inserts_per_sec", n as f64 / ram.build_wall_s.max(f64::MIN_POSITIVE)),
        );
        for (label, frac) in [("budget_quarter", 4usize), ("budget_sixteenth", 16)] {
            let budget = (segments / frac).max(2);
            let dir = scratch.join(format!("{n}-{frac}"));
            let out = run(n, Some((&dir, budget)));
            let stats = out.db.persist_stats();
            identical &= out.fingerprint == ram.fingerprint
                && out.count == ram.count
                && out.sum_bits == ram.sum_bits;
            bounded &= stats.peak_resident_segments <= budget as u64;
            let mut sub = Json::obj()
                .field("resident_budget", budget)
                .field("build_wall_s", out.build_wall_s)
                .field("query_wall_s", out.query_wall_s)
                .field("inserts_per_sec", n as f64 / out.build_wall_s.max(f64::MIN_POSITIVE))
                .field("segments_spilled", stats.segments_spilled)
                .field("segments_faulted", stats.segments_faulted)
                .field("faults_per_answer", out.pool_faults as f64 / pool.len() as f64)
                .field("evictions", stats.evictions)
                .field("bytes_on_disk", stats.bytes_on_disk)
                .field("resident_segments", stats.resident_segments)
                .field("peak_resident_segments", stats.peak_resident_segments);
            // Warm restart at the largest size, 1/4 budget: checkpoint
            // the churned pool, reopen from the journal, re-answer.
            if n == largest && frac == 4 {
                let t0 = Instant::now();
                out.db.checkpoint().expect("checkpoint must succeed");
                let checkpoint_wall_s = t0.elapsed().as_secs_f64();
                drop(out);
                let t0 = Instant::now();
                let mut reopened = hidden_db::HiddenDatabase::open_persistent(
                    &hidden_db::PersistConfig::new(&dir, budget),
                )
                .expect("journal has a durable snapshot");
                let reopen_wall_s = t0.elapsed().as_secs_f64();
                reopened.set_invalidation_policy(InvalidationPolicy::Disabled);
                let mut fp = 0xcbf2_9ce4_8422_2325u64;
                for q in &pool {
                    fp = fold_outcome(fp, &reopened.answer(q));
                }
                identical &= fp == ram.fingerprint;
                sub = sub
                    .field("checkpoint_wall_s", checkpoint_wall_s)
                    .field("reopen_wall_s", reopen_wall_s)
                    .field("reopened_identical", fp == ram.fingerprint);
            }
            section = section.field(label, sub);
            let _ = std::fs::remove_dir_all(&dir);
        }
        report = report.field(&format!("size_{n}"), section);
    }
    let _ = std::fs::remove_dir_all(&scratch);
    report.field("persistence_identical", identical).field("resident_memory_bounded", bounded)
}

/// PR 10: the `agg_stats::resample` bootstrap engine.
///
/// Three sub-experiments:
/// 1. **Replicate sweep** — sequential replicate throughput of a mean
///    statistic over a fixed 4 096-point sample at 100/1 000/10 000
///    replicates, with the percentile-CI width per count (the width
///    should stabilise as B grows; the cost is linear in B).
/// 2. **Parallel scaling** — the same statistic at 20 000 replicates
///    fanned out over 1/2/4/8 workers for every variant (n-out-of-n,
///    m-out-of-n, block). Per-replicate RNG streams are derived from
///    the replicate index alone, so every replicate *vector* must be
///    bitwise equal to the sequential one
///    (`bootstrap_parallel_identical`).
/// 3. **Coverage** — 20 independent seeded experiments, each 12
///    REISSUE trials on a churning pool. Two interval families are
///    checked against the ground-truth ratio 1.0 (REISSUE is
///    unbiased): per experiment, the block-bootstrap 95 % interval of
///    the mean tail ratio (blocks are whole per-trial tail windows, so
///    trans-round dependence survives resampling), and per round, the
///    n-out-of-n 95 % interval of the across-trial mean. A trial's
///    *own* round series is useless here — REISSUE freezes its drill
///    pool at round 1, so within-trial resampling brackets that
///    trial's plateau, not the truth; coverage has to come from
///    resampling across trials. Percentile intervals undercover at
///    these block counts (12 per interval), so the floors sit below
///    the nominal 0.95: observed rates are ≈0.80 (block tail) and
///    ≈0.92 (per round), both deterministic under the fixed seeds
///    (`bootstrap_coverage_ok`).
fn bootstrap_workload() -> Json {
    const N: usize = 4_096;
    const SWEEP: [usize; 3] = [100, 1_000, 10_000];
    const SCALE_REPLICATES: usize = 20_000;

    // Fixed seeded sample with some spread (lognormal-ish tail).
    let mut rng = StdRng::seed_from_u64(0xB007_5717);
    let data: Vec<f64> = (0..N).map(|_| rng.random_range(0.0..1.0f64).powi(3) * 100.0).collect();
    let mean_stat = |idx: &[usize]| {
        let sum: f64 = idx.iter().map(|&i| data[i]).sum();
        Some(sum / idx.len() as f64)
    };

    // 1. Sequential replicate-count sweep.
    let mut sweep = Json::obj();
    for b in SWEEP {
        let boot =
            Bootstrap::new(N, &mean_stat).replicates(b).seed(7).threads(Threads::sequential());
        let t0 = Instant::now();
        let reps = boot.run();
        let wall = t0.elapsed();
        let ci = reps.percentile_ci(0.95).expect("mean statistic is always defined");
        sweep = sweep.field(
            &b.to_string(),
            Json::obj()
                .field("wall_s", wall.as_secs_f64())
                .field("replicates_per_sec", b as f64 / wall.as_secs_f64().max(f64::MIN_POSITIVE))
                .field("ci_width", ci.width()),
        );
    }

    // 2. Parallel scaling + bit-identity across thread counts.
    let variants = [
        ("n_out_of_n", Variant::NOutOfN),
        ("m_out_of_n", Variant::MOutOfN { m: N / 2 }),
        ("block", Variant::Block { block_len: default_block_len(N) }),
    ];
    let mut identical = true;
    let mut scaling = Json::obj();
    for (name, variant) in variants {
        let base = |threads| {
            Bootstrap::new(N, &mean_stat)
                .variant(variant)
                .replicates(SCALE_REPLICATES)
                .seed(11)
                .threads(threads)
        };
        let seq = base(Threads::sequential()).run();
        let seq_bits: Vec<u64> = seq.values().iter().map(|v| v.to_bits()).collect();
        let mut per_threads = Json::obj();
        let mut one_wall = 0.0;
        for workers in [1usize, 2, 4, 8] {
            let boot = base(Threads::fixed(workers));
            let t0 = Instant::now();
            let reps = boot.run();
            let wall = t0.elapsed().as_secs_f64();
            if workers == 1 {
                one_wall = wall;
            }
            identical &= reps.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>() == seq_bits;
            per_threads = per_threads.field(
                &workers.to_string(),
                Json::obj()
                    .field("wall_s", wall)
                    .field("speedup_vs_1", one_wall / wall.max(f64::MIN_POSITIVE)),
            );
        }
        scaling = scaling.field(name, per_threads);
    }

    // 3. Seeded coverage experiment on a churning REISSUE pool.
    const EXPERIMENTS: usize = 20;
    const TAIL_W: usize = 5;
    const COVERAGE_REPLICATES: usize = 400;
    const TAIL_FLOOR: f64 = 0.70;
    const PER_ROUND_FLOOR: f64 = 0.85;
    let mut cfg = BaseCfg::for_scale(Scale::Quick);
    cfg.initial = 2_000;
    cfg.rounds = 10;
    cfg.trials = 12;
    cfg.inserts = 40;
    cfg.delete = DeleteSpec::Fraction(0.01);
    let t0 = Instant::now();
    let mut tail_covered = 0usize;
    let mut round_covered = 0usize;
    let mut round_judged = 0usize;
    for e in 0..EXPERIMENTS {
        let mut cfg = cfg.clone();
        cfg.seed = 0xC0FE + (e as u64) * 1_000;
        let out = track(&cfg, &[AlgoKind::Reissue], RsConfig::default(), &count_star_tracked);
        let rows = &out.algos[0].ratio_trials;
        let ci = tail_block_ci(rows, TAIL_W, COVERAGE_REPLICATES, cfg.seed, 0.95)
            .expect("tail window has finite records");
        if ci.contains(1.0) {
            tail_covered += 1;
        }
        let (lo, hi) = trial_cis(rows, cfg.rounds, COVERAGE_REPLICATES, cfg.seed, 0.95);
        for r in 0..cfg.rounds {
            if lo[r].is_finite() && hi[r].is_finite() {
                round_judged += 1;
                if lo[r] <= 1.0 && 1.0 <= hi[r] {
                    round_covered += 1;
                }
            }
        }
    }
    let wall = t0.elapsed();
    let tail_coverage = tail_covered as f64 / EXPERIMENTS as f64;
    let round_coverage = round_covered as f64 / round_judged.max(1) as f64;

    Json::obj()
        .field("sample_len", N)
        .field("replicate_sweep", sweep)
        .field("scale_replicates", SCALE_REPLICATES)
        .field("parallel_scaling", scaling)
        .field("bootstrap_parallel_identical", identical)
        .field(
            "coverage",
            Json::obj()
                .field("experiments", EXPERIMENTS)
                .field("trials_per_experiment", cfg.trials)
                .field("rounds", cfg.rounds)
                .field("initial", cfg.initial)
                .field("inserts_per_round", cfg.inserts)
                .field("tail_window", TAIL_W)
                .field("replicates", COVERAGE_REPLICATES)
                .field("nominal_level", 0.95)
                .field("tail_covered", tail_covered)
                .field("tail_coverage", tail_coverage)
                .field("tail_floor", TAIL_FLOOR)
                .field("per_round_judged", round_judged)
                .field("per_round_covered", round_covered)
                .field("per_round_coverage", round_coverage)
                .field("per_round_floor", PER_ROUND_FLOOR)
                .field("wall_s", wall.as_secs_f64()),
        )
        .field(
            "bootstrap_coverage_ok",
            tail_coverage >= TAIL_FLOOR && round_coverage >= PER_ROUND_FLOOR,
        )
}

fn outcomes_bit_identical(a: &TrackOutcome, b: &TrackOutcome) -> bool {
    let bits = |xs: Vec<f64>| xs.into_iter().map(f64::to_bits).collect::<Vec<_>>();
    if a.algos.len() != b.algos.len() {
        return false;
    }
    bits(a.truth.means()) == bits(b.truth.means())
        && a.algos.iter().zip(&b.algos).all(|(x, y)| {
            bits(x.rel_err.means()) == bits(y.rel_err.means())
                && bits(x.rel_err.stds()) == bits(y.rel_err.stds())
                && bits(x.ratio.means()) == bits(y.ratio.means())
                && bits(x.cum_queries.means()) == bits(y.cum_queries.means())
        })
}
