//! The tracking benchmark: the paper's round loop (RESTART, REISSUE and
//! RS over a changing simulated hidden database), timed end to end and
//! per layer, with its outputs checked.
//!
//! ```text
//! trackbench --workload large|churn|paged --seed N --seconds S --trace 0|1
//! ```
//!
//! A run takes its trials one after another on one thread: build the
//! trial's pool (set-up), track it (the round loop), and for some trials
//! checkpoint the final state and reopen it (restart). `--trace 0`
//! prints the end-to-end metrics of that untraced run. `--trace 1` repeats the run with spans
//! and prints the per-layer metrics, including the traced run's
//! throughput against the untraced one. The last line of stdout is the
//! result object; the log goes to stderr and the spans to
//! `.bench_work/trace-<workload>.csv`.

mod summary;
mod trace;
mod track;

use std::path::{Path, PathBuf};
use std::time::Instant;

use agg_stats::error::{relative_error, SeriesSummary};
use aggtrack_bench::runner::{count_star_tracked, standard_algos, tail_mean, track_with_threads};
use aggtrack_core::RsConfig;
use aggtrack_parallel::Threads;

use summary::{median, ratio, tail, Metrics};
use trace::{Layer, Span, Tracer};
use track::{build_pool, restart, run_trial, Counters, RestartRecord, TrialRecord, Workload};

/// Pool builds timed per run, at least.
const MIN_SETUPS: usize = 5;

/// Round-time metrics are taken per block of consecutive rounds and the
/// median block is reported, so a burst of host noise that slows one or
/// two blocks does not move them.
const BLOCKS: usize = 5;

/// Fewest rounds in a block: enough for the tail rule (ten samples
/// beyond) to resolve at or above the median.
const MIN_BLOCK_ROUNDS: usize = 20;

/// Rounds `rel_err.*` averages over, ending at the last round.
const TAIL_ROUNDS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number =
            || value.parse::<u64>().map_err(|_| format!("{flag}: {value:?} is not a number"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Resets this process's peak resident set (`VmHWM`) to its current size.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// `VmHWM` in KiB.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// One pass over a workload: per trial, set-up, tracking, restart.
struct Run {
    setup_ns: Vec<u64>,
    trials: Vec<TrialRecord>,
    restarts: Vec<RestartRecord>,
    peak_rss_kb: Option<u64>,
    spans: Vec<Span>,
}

impl Run {
    fn counters(&self) -> Counters {
        let mut c = Counters::default();
        for t in &self.trials {
            c.add(&t.counters);
        }
        c
    }

    /// Tracking wall: the trials' round loops, without set-up or restart.
    fn tracking_ns(&self) -> f64 {
        self.trials.iter().map(|t| t.wall_ns).sum::<u64>() as f64
    }

    fn queries_per_s(&self) -> f64 {
        self.counters().answered as f64 / (self.tracking_ns() / 1e9)
    }

    fn attempted(&self) -> u64 {
        self.trials.iter().map(TrialRecord::attempted).sum()
    }

    fn degraded(&self) -> u64 {
        self.trials.iter().map(|t| t.degraded).sum()
    }
}

/// Runs every trial in turn on this thread: build its pool (timed as
/// set-up), track it, and put some trials' final state through
/// checkpoint and reopen ([`Workload::restarts_after`]).
fn run(wl: &Workload, work: &Path, traced: bool) -> Run {
    // Set-up is timed at least five times: throwaway rebuilds of trial
    // 0's pool make up the difference.
    let mut setup_ns = Vec::new();
    for rep in 0..MIN_SETUPS.saturating_sub(wl.cfg.trials) {
        let started = Instant::now();
        drop(build_pool(wl, 0, &work.join(format!("setup-{rep}"))));
        setup_ns.push(started.elapsed().as_nanos() as u64);
    }
    if !reset_peak_rss() {
        eprintln!("warning: cannot reset VmHWM; peak_rss_mb includes the throwaway set-ups");
    }
    let epoch = Instant::now();
    let mut run = Run {
        setup_ns,
        trials: Vec::new(),
        restarts: Vec::new(),
        peak_rss_kb: None,
        spans: Vec::new(),
    };
    for t in 0..wl.cfg.trials {
        let started = Instant::now();
        let pool = build_pool(wl, t as u64, &work.join(format!("pool-{t}")));
        run.setup_ns.push(started.elapsed().as_nanos() as u64);
        let mut tracer = Tracer::new(traced, epoch, t as u32);
        let (rec, pool) = run_trial(wl, t as u64, pool, &mut tracer);
        if wl.restarts_after(t) {
            let dir = work.join(format!("restart-{t}"));
            run.restarts.push(restart(pool, &dir, wl.reopens, &mut tracer));
        }
        run.spans.extend(tracer.into_spans());
        run.trials.push(rec);
    }
    run.peak_rss_kb = peak_rss_kb();
    run
}

/// Order-sensitive FNV-1a digest of every estimate and spend.
fn digest(run: &Run) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    };
    for t in &run.trials {
        for (est, spent) in t.estimate.iter().zip(&t.spent) {
            est.iter().for_each(|e| eat(e.to_bits()));
            spent.iter().for_each(|&s| eat(s));
        }
        t.truth.iter().for_each(|v| eat(v.to_bits()));
    }
    h
}

/// Replays the first trial over `wl.check_rounds` rounds through the
/// figure pipeline's runner and compares every per-round ratio and
/// relative error bit for bit.
fn runner_replay(wl: &Workload, run: &Run) -> Result<(), String> {
    let mut cfg = wl.cfg.clone();
    cfg.trials = 1;
    cfg.rounds = wl.check_rounds;
    let algos = standard_algos();
    let out = track_with_threads(
        &cfg,
        &algos,
        RsConfig::default(),
        &count_star_tracked,
        Threads::sequential(),
    );
    for (a, set) in out.algos.iter().enumerate() {
        for (t, (ratios, errs)) in set.ratio_trials.iter().zip(&set.rel_err_trials).enumerate() {
            let rec = &run.trials[t];
            for r in 0..cfg.rounds {
                let (est, truth) = (rec.estimate[a][r], rec.truth[r]);
                if (est / truth).to_bits() != ratios[r].to_bits()
                    || relative_error(est, truth).to_bits() != errs[r].to_bits()
                {
                    return Err(format!(
                        "{} trial {t} round {r}: runner ratio {} vs {}",
                        set.name,
                        ratios[r],
                        est / truth
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Checks that hold for any run.
fn check_run(wl: &Workload, run: &Run, failures: &mut Vec<String>) {
    for t in &run.trials {
        for (a, spent) in t.spent.iter().enumerate() {
            if let Some(r) = spent.iter().position(|&s| s > wl.cfg.g) {
                failures.push(format!("trial {} algo {a} round {r}: budget exceeded", t.trial));
            }
        }
        if t.faults.gave_up != 0 {
            failures
                .push(format!("trial {}: recovery gave up {} times", t.trial, t.faults.gave_up));
        }
        if t.estimate.iter().flatten().any(|e| !e.is_finite()) {
            failures.push(format!("trial {}: non-finite estimate", t.trial));
        }
    }
    for (i, r) in run.restarts.iter().enumerate() {
        if !r.matches {
            failures.push(format!("restart {i}: reopened database differs from the live one"));
        }
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn ms_all(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&n| ms(n)).collect()
}

/// One round of one trial: the trial's record and the round index.
type Round<'a> = (&'a TrialRecord, usize);

/// The run's rounds in order, cut into at most [`BLOCKS`] contiguous
/// blocks of at least [`MIN_BLOCK_ROUNDS`] rounds (one block when the
/// run is shorter).
fn blocks(run: &Run) -> Vec<Vec<Round<'_>>> {
    let rounds: Vec<Round<'_>> =
        run.trials.iter().flat_map(|t| (0..t.round_ns.len()).map(move |r| (t, r))).collect();
    let n = rounds.len();
    let k = (n / MIN_BLOCK_ROUNDS).clamp(1, BLOCKS);
    (0..k).map(|i| rounds[i * n / k..(i + 1) * n / k].to_vec()).collect()
}

fn end_to_end(run: &Run, m: &mut Metrics, log: &mut Vec<String>) {
    m.put("setup_s", median(&ms_all(&run.setup_ns)) / 1e3, "s");
    let blocks = blocks(run);
    let per_block = |f: &dyn Fn(&[Round<'_>]) -> f64| -> f64 {
        median(&blocks.iter().map(|b| f(b)).collect::<Vec<_>>())
    };
    let round_ms =
        |b: &[Round<'_>]| -> Vec<f64> { b.iter().map(|&(t, r)| ms(t.round_ns[r])).collect() };
    m.put(
        "queries_per_s",
        per_block(&|b| {
            let answered: u64 = b.iter().map(|&(t, r)| t.round_answered[r]).sum();
            let wall_ns: u64 = b.iter().map(|&(t, r)| t.round_wall_ns[r]).sum();
            answered as f64 / (wall_ns as f64 / 1e9)
        }),
        "1/s",
    );
    m.put("round_ms_p50", per_block(&|b| median(&round_ms(b))), "ms");
    m.put("round_ms_tail", per_block(&|b| tail(&round_ms(b)).value), "ms");
    let t = tail(&round_ms(&blocks[0]));
    log.push(format!(
        "round_ms_tail = median over {} blocks of p{} of {} rounds ({} beyond)",
        blocks.len(),
        t.p * 100.0,
        t.samples,
        t.beyond
    ));
    m.put("peak_rss_mb", run.peak_rss_kb.unwrap_or(0) as f64 / 1024.0, "MB");
    let reopen: Vec<f64> = run.restarts.iter().flat_map(|r| ms_all(&r.reopen_ns)).collect();
    m.put("restart_s", median(&reopen) / 1e3, "s");
    let disk: Vec<f64> = run.restarts.iter().map(|r| r.disk_bytes as f64 / 1e6).collect();
    m.put("disk_mb", median(&disk), "MB");
}

/// `rel_err.<ALGO>`: the runner's `tail_mean` of the relative error over
/// the last rounds, across trials.
fn rel_err(wl: &Workload, run: &Run, m: &mut Metrics) {
    for (a, algo) in standard_algos().iter().enumerate() {
        let mut series = SeriesSummary::new(wl.cfg.rounds);
        for t in &run.trials {
            for (r, (&est, &truth)) in t.estimate[a].iter().zip(&t.truth).enumerate() {
                series.record(r, relative_error(est, truth));
            }
        }
        m.put(format!("rel_err.{}", algo.name()), tail_mean(&series, TAIL_ROUNDS), "ratio");
    }
}

fn per_layer(wl: &Workload, run: &Run, untraced_qps: f64, m: &mut Metrics, log: &mut Vec<String>) {
    let pf = trace::profile(&run.spans);
    let c = run.counters();
    let wall_ns = run.tracking_ns();
    let durations = |layers: &[Layer]| -> Vec<f64> {
        layers.iter().flat_map(|l| pf.durations.get(l).map_or(Vec::new(), |d| ms_all(d))).collect()
    };
    let self_ns = |name: &str| pf.self_ns.get(name).copied().unwrap_or(0) as f64;
    let mut tail_us = |name: &str, values_ms: &[f64], m: &mut Metrics| {
        let t = tail(values_ms);
        log.push(format!("{name} = p{} of {} ({} beyond)", t.p * 100.0, t.samples, t.beyond));
        m.put(name, t.value * 1e3, "us");
    };
    let (answered, misses) = (c.answered as f64, c.misses() as f64);

    // hidden_db answer path.
    let issues = durations(&[Layer::IssueHit, Layer::IssueMiss]);
    m.put("interface.answered", answered, "count");
    m.put("interface.issue_us_p50", median(&issues) * 1e3, "us");
    tail_us("interface.issue_us_tail", &issues, m);
    m.put("interface.busy_frac", (self_ns("issue_hit") + self_ns("issue_miss")) / wall_ns, "ratio");
    m.put("interface.overflow_frac", ratio(c.overflows as f64, answered), "ratio");
    m.put("interface.underflow_frac", ratio(c.underflows as f64, answered), "ratio");
    m.put("memo.hit_rate", ratio(c.cache_hits as f64, answered), "ratio");
    m.put("memo.hit_us_p50", median(&durations(&[Layer::IssueHit])) * 1e3, "us");
    let miss = durations(&[Layer::IssueMiss]);
    m.put("eval.misses", misses, "count");
    m.put("eval.miss_us_p50", median(&miss) * 1e3, "us");
    tail_us("eval.miss_us_tail", &miss, m);
    m.put("eval.blockmax_per_miss", ratio(c.blockmax as f64, misses), "ratio");
    m.put("eval.bitset_per_miss", ratio(c.bitset as f64, misses), "ratio");
    m.put("eval.gallop_per_miss", ratio(c.gallop as f64, misses), "ratio");
    m.put("eval.early_exit_frac", ratio(c.early_exits as f64, misses), "ratio");
    let blocks = (c.blocks_scanned + c.blocks_skipped) as f64;
    m.put("eval.blocks", blocks, "count");
    m.put("eval.blocks_skipped_frac", ratio(c.blocks_skipped as f64, blocks), "ratio");
    m.put("eval.segments_skipped_per_miss", ratio(c.segments_skipped as f64, misses), "ratio");

    // hidden_db apply path and the workload generator.
    let apply = durations(&[Layer::Apply]);
    let ops: u64 = run.trials.iter().flat_map(|t| &t.batch_ops).sum();
    m.put("apply.ms_p50", median(&apply), "ms");
    m.put("apply.busy_frac", self_ns("apply") / wall_ns, "ratio");
    m.put("apply.ops", ops as f64, "count");
    m.put("apply.ops_per_s", ratio(ops as f64, apply.iter().sum::<f64>() / 1e3), "1/s");
    let retain_base = (c.retained + c.invalidated) as f64;
    m.put("memo.retain_base", retain_base, "count");
    m.put("memo.retain_frac", ratio(c.retained as f64, retain_base), "ratio");
    m.put("memo.demoted", c.demoted as f64, "count");
    m.put("memo.resurrect_frac", ratio(c.resurrected as f64, c.demoted as f64), "ratio");
    let batches = run.trials.iter().map(|t| t.batch_ops.len()).sum::<usize>() as f64;
    m.put("workloads.batch_ms_p50", median(&durations(&[Layer::PeekBatch])), "ms");
    m.put("workloads.batch_ops", ratio(ops as f64, batches), "count");

    // hidden_db::persist.
    let restart_checkpoints = run.restarts.iter().map(|r| r.checkpoint_bytes).filter(|&b| b > 0);
    let checkpoint_bytes: Vec<f64> = run
        .trials
        .iter()
        .flat_map(|t| t.checkpoint_bytes.iter().copied())
        .chain(restart_checkpoints)
        .map(|b| b as f64)
        .collect();
    m.put("persist.faults_per_miss", ratio(c.segments_faulted as f64, misses), "ratio");
    m.put("persist.evictions", c.evictions as f64, "count");
    let peak_resident = run.trials.iter().map(|t| t.peak_resident).max().unwrap_or(0);
    m.put("persist.peak_resident", peak_resident as f64, "count");
    m.put("persist.checkpoints", checkpoint_bytes.len() as f64, "count");
    m.put("persist.checkpoint_ms_p50", median(&durations(&[Layer::Checkpoint])), "ms");
    let mean_checkpoint = ratio(checkpoint_bytes.iter().sum(), checkpoint_bytes.len() as f64);
    m.put("persist.checkpoint_mb", mean_checkpoint / 1e6, "MB");
    m.put("persist.reopen_ms", median(&durations(&[Layer::OpenPersistent])), "ms");

    // hidden_db::fault.
    let mut faults = track::FaultTotals::default();
    let mut spent = 0u64;
    for t in &run.trials {
        faults.add(&t.faults);
        spent += t.spent.iter().flatten().sum::<u64>();
    }
    m.put("fault.injected", faults.injected as f64, "count");
    m.put("fault.retries", faults.retries as f64, "count");
    m.put("fault.queries_spent", spent as f64, "count");
    m.put("fault.burned_frac", ratio(faults.queries_burned as f64, spent as f64), "ratio");
    m.put("fault.ticks_waited", faults.ticks_waited as f64, "count");
    m.put("fault.gave_up", faults.gave_up as f64, "count");
    m.put("failed_frac", ratio(run.degraded() as f64, run.attempted() as f64), "ratio");
    rel_err(wl, run, m);

    // aggtrack_core estimators over query_tree drill-downs.
    for (a, algo) in standard_algos().iter().enumerate() {
        let name = algo.name();
        let (updated, initiated): (u64, u64) = run
            .trials
            .iter()
            .map(|t| (t.updated[a], t.initiated[a]))
            .fold((0, 0), |x, y| (x.0 + y.0, x.1 + y.1));
        let drills = (updated + initiated) as f64;
        let algo_spent: u64 = run.trials.iter().flat_map(|t| &t.spent[a]).sum();
        let rounds: usize = run.trials.iter().map(|t| t.spent[a].len()).sum();
        let (rr_ns, issue_ns) = pf.run_round.get(&a).copied().unwrap_or((0, 0));
        m.put(format!("core.round_ms_p50.{name}"), median(&durations(&[Layer::RunRound(a)])), "ms");
        m.put(
            format!("core.self_frac.{name}"),
            ratio(rr_ns.saturating_sub(issue_ns) as f64, rr_ns as f64),
            "ratio",
        );
        m.put(format!("core.drills_per_round.{name}"), ratio(drills, rounds as f64), "count");
        m.put(format!("core.queries_per_drill.{name}"), ratio(algo_spent as f64, drills), "ratio");
        m.put(format!("core.reuse_frac.{name}"), ratio(updated as f64, drills), "ratio");
    }

    // Ground truth.
    m.put("truth.ms_p50", median(&durations(&[Layer::ExactCount])), "ms");
    m.put("truth.busy_frac", self_ns("exact_count") / wall_ns, "ratio");

    // Where the traced run's tracking wall went.
    for layer in [
        Layer::Trial,
        Layer::Round,
        Layer::ExactCount,
        Layer::RunRound(0),
        Layer::IssueHit,
        Layer::IssueMiss,
        Layer::PeekBatch,
        Layer::Apply,
        Layer::Checkpoint,
    ] {
        m.put(format!("trace.self_ms.{}", layer.name()), self_ns(layer.name()) / 1e6, "ms");
    }
    m.put("trace.unattributed_ms", (wall_ns - pf.trial_ns as f64) / 1e6, "ms");
    m.put("trace.wall_ms", wall_ns / 1e6, "ms");
    let traced_qps = run.queries_per_s();
    m.put("trace.queries_per_s", traced_qps, "1/s");
    m.put("trace.qps_vs_untraced", traced_qps / untraced_qps, "ratio");
    m.put("trace.spans", run.spans.len() as f64, "count");
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("trackbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(wl) = Workload::named(&args.workload, args.seed, args.seconds) else {
        eprintln!("trackbench: unknown workload {:?} (large, churn, paged)", args.workload);
        std::process::exit(2);
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let root = PathBuf::from(".bench_work");
    let work = root.join(format!("{}-{}", wl.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    let cfg = &wl.cfg;
    eprintln!(
        "trackbench: workload {} seed {} | initial {} attrs {} k {} G {} rounds {} trials {} \
         inserts {} delete {:?} faults {:?} resident {:?} | nproc {nproc} workers 1 \
         profile {}",
        wl.name,
        cfg.seed,
        cfg.initial,
        cfg.attrs,
        cfg.k,
        cfg.g,
        cfg.rounds,
        cfg.trials,
        cfg.inserts,
        cfg.delete,
        cfg.faults,
        wl.resident,
        if cfg!(debug_assertions) { "debug" } else { "release" },
    );

    let mut failures = Vec::new();
    let untraced = run(&wl, &work.join("untraced"), false);
    check_run(&wl, &untraced, &mut failures);
    if wl.check_rounds > 0 {
        if let Err(e) = runner_replay(&wl, &untraced) {
            failures.push(format!("runner replay: {e}"));
        }
    }
    let mut metrics = Metrics::default();
    let mut log = vec![format!("digest {:016x}", digest(&untraced))];
    let (attempted, failed) = (untraced.attempted(), untraced.degraded());
    if args.trace {
        let traced = run(&wl, &work.join("traced"), true);
        check_run(&wl, &traced, &mut failures);
        if digest(&traced) != digest(&untraced) {
            failures.push("traced run's estimates differ from the untraced run's".into());
        }
        let pf = trace::profile(&traced.spans);
        if pf.overlapping != 0 {
            failures.push(format!("{} spans overlap their children", pf.overlapping));
        }
        let self_total: u64 = pf.self_ns.values().sum();
        if self_total != pf.trial_ns {
            failures
                .push(format!("self times sum to {self_total} ns, trial spans to {}", pf.trial_ns));
        }
        per_layer(&wl, &traced, untraced.queries_per_s(), &mut metrics, &mut log);
        let path = root.join(format!("trace-{}.csv", wl.name));
        if let Err(e) = trace::write_csv(&path, &traced.spans) {
            failures.push(format!("writing {}: {e}", path.display()));
        }
    } else {
        end_to_end(&untraced, &mut metrics, &mut log);
    }
    let _ = std::fs::remove_dir_all(&work);
    for name in metrics.non_finite() {
        failures.push(format!("metric {name} is not finite"));
    }

    for line in &log {
        eprintln!("  {line}");
    }
    eprint!("{}", metrics.table());
    for f in &failures {
        eprintln!("CHECK FAILED: {f}");
    }
    println!("{}", metrics.result_json(failures.is_empty(), attempted, failed));
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
