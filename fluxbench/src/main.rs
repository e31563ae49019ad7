//! `fluxbench`: the end-to-end and per-layer benchmark of the Flux
//! federated fine-tuning system.
//!
//! ```text
//! cargo run --release --manifest-path fluxbench/Cargo.toml -- \
//!     --workload <flux-small|fmd-small|fleet-wire> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it runs the workload untraced and reports the
//! end-to-end metrics. With `--trace 1` it records spans around the
//! driver's public calls, replays every round's layers through their
//! public functions, reports the per-layer metrics and writes the spans as
//! Chrome trace-event JSON under `.bench_work/`. Both modes check the
//! program's outputs. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`.

mod calib;
mod replay;
mod stats;
mod trace;
mod workload;

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use flux_tensor::simd;
use threadpool::ThreadPool;

use crate::trace::{layer_of, Tracer};
use crate::workload::{restore_matches, run_rep, Rep, Workload, NAMES};

/// Worker threads of the measured pool, capped so a run fits the small
/// hosts the benchmark is meant for.
const MAX_THREADS: usize = 2;

/// Workload time between two host-speed calibrations.
const CALIBRATION_INTERVAL: Duration = Duration::from_secs(1);

/// Where runs keep checkpoints and the traced run writes its spans.
const WORK_DIR: &str = ".bench_work";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut map: HashMap<String, String> = HashMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        map.insert(key.to_string(), value);
    }
    let take = |key: &str| map.get(key).ok_or_else(|| format!("missing --{key}"));
    let number = |key: &str| -> Result<u64, String> {
        take(key)?
            .parse()
            .map_err(|_| format!("--{key} must be a whole number"))
    };
    let trace = match take("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    let seconds = number("seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: take("workload")?.clone(),
        seed: number("seed")?,
        seconds,
        trace,
    })
}

/// A named metric value with its unit.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// Output checks and failure accounting shared by both modes.
#[derive(Default)]
struct Checks {
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
}

impl Checks {
    /// Counts a repetition's rounds and checkpoints as attempted and its
    /// faulted or non-finite rounds and failed checkpoints as failed.
    fn count(&mut self, rep: &Rep) {
        self.attempted += rep.records.len() + rep.checkpoints.len() + rep.checkpoint_failures;
        self.failed += rep.bad_rounds() + rep.checkpoint_failures;
    }

    fn require(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    /// Every repetition of a seed, and the one-thread reference, must
    /// produce bit-identical results.
    fn consistent(&mut self, reference: &Rep, reps: &[&Rep]) {
        let mut first: HashMap<u64, &Rep> = HashMap::new();
        first.insert(reference.seed, reference);
        for rep in reps {
            let seen = *first.entry(rep.seed).or_insert(rep);
            self.require(seen.same_results(rep), || {
                format!(
                    "seed {:#x}: checksum {:#x} differs from an earlier repetition's {:#x}",
                    rep.seed, rep.checksum, seen.checksum
                )
            });
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("fluxbench: {err}");
            eprintln!(
                "usage: fluxbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(w) = Workload::by_name(&args.workload) else {
        eprintln!(
            "fluxbench: unknown workload `{}` (expected one of {})",
            args.workload,
            NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(MAX_THREADS);
    let dir = Path::new(WORK_DIR).join(format!("{}-{}", w.name, std::process::id()));
    if let Err(err) = std::fs::create_dir_all(&dir) {
        eprintln!("fluxbench: cannot create {}: {err}", dir.display());
        return ExitCode::FAILURE;
    }
    print_fingerprint(&w, &args, threads);

    let (checks, metrics) = if args.trace {
        traced(&w, &args, threads, &dir)
    } else {
        untraced(&w, &args, threads, &dir)
    };
    let _ = std::fs::remove_dir_all(&dir);

    for problem in &checks.problems {
        println!("check FAILED: {problem}");
    }
    println!("{}", result_json(&checks, &metrics));
    ExitCode::SUCCESS
}

fn print_fingerprint(w: &Workload, args: &Args, threads: usize) {
    println!(
        "# fluxbench workload={} seed={} seconds={} trace={}",
        w.name, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "# host cpu=\"{}\" nproc={} simd={} pool_threads={} git={}",
        cpu_model(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        simd::detect_best().label(),
        threads,
        git_commit()
    );
    println!(
        "# panel={} program seeds derived from --seed; reference run on a 1-thread pool",
        w.panel
    );
}

/// The runs every mode starts with: the one-thread reference of the
/// panel's first seed (which also warms the process up) and, for a
/// checkpointing workload, the crash/restore check.
fn reference_runs(w: &Workload, seed: u64, pool: &ThreadPool, dir: &Path) -> (Rep, Checks) {
    let mut checks = Checks::default();
    let reference = run_rep(w, seed, &ThreadPool::new(1), dir, &mut Tracer::new(false));
    checks.count(&reference);
    if w.checkpoint_every_round {
        checks.attempted += 1;
        if !restore_matches(w, &reference, pool, dir) {
            checks.failed += 1;
            checks.problems.push(
                "a run restored from a mid-run checkpoint did not finish bit-identical".into(),
            );
        }
    }
    (reference, checks)
}

/// Untraced run: one whole pass over the panel, then further panel seeds
/// in turn until `--seconds` have passed; then the end-to-end metrics.
fn untraced(w: &Workload, args: &Args, threads: usize, dir: &Path) -> (Checks, Vec<Metric>) {
    let seeds: Vec<u64> = (0..w.panel)
        .map(|i| Workload::panel_seed(args.seed, i))
        .collect();
    let pool = ThreadPool::new(threads);
    let (reference, mut checks) = reference_runs(w, seeds[0], &pool, dir);
    let mut tracer = Tracer::new(false);
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut calibrations = vec![calib::measure(threads)];
    let mut calibrated = Instant::now();
    while reps.len() < w.panel || started.elapsed() < budget {
        let seed = seeds[reps.len() % w.panel];
        reps.push(run_rep(w, seed, &pool, dir, &mut tracer));
        if calibrated.elapsed() >= CALIBRATION_INTERVAL {
            calibrations.push(calib::measure(threads));
            calibrated = Instant::now();
        }
    }
    for rep in &reps {
        checks.count(rep);
    }
    checks.consistent(&reference, &reps.iter().collect::<Vec<_>>());
    let panel = &reps[..w.panel];
    let calibration_ns = calibrations.iter().sum::<f64>() / calibrations.len() as f64;
    println!(
        "e2e host calibration: mean {:.3} ms over {} timings (reference {:.3} ms); \
         times below are scaled by {:.4}",
        calibration_ns / 1e6,
        calibrations.len(),
        calib::REFERENCE_NS / 1e6,
        calib::REFERENCE_NS / calibration_ns
    );
    let scale = calib::REFERENCE_NS / calibration_ns;
    (checks, end_to_end(w, &reps, panel, scale))
}

/// The end-to-end metrics; wall times are multiplied by `scale`, the
/// host-speed factor of [`calib`].
fn end_to_end(w: &Workload, reps: &[Rep], panel: &[Rep], scale: f64) -> Vec<Metric> {
    let round_ms: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.round_ms.iter().copied())
        .collect();
    // The tail percentile is fixed by one pass over the panel, so it means
    // the same in every run of the workload however many passes fit.
    let panel_rounds: usize = panel.iter().map(|r| r.round_ms.len()).sum();
    let tail = stats::tail_percentile(panel_rounds).unwrap_or(50);
    let setup: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let tokens: usize = reps
        .iter()
        .flat_map(|r| &r.records)
        .map(|r| r.tokens_trained)
        .sum();
    let loop_s: f64 = round_ms.iter().sum::<f64>() / 1e3;

    let mean = |f: &dyn Fn(&Rep) -> f64| panel.iter().map(f).sum::<f64>() / panel.len() as f64;
    let final_score = mean(&|r| f64::from(r.records.last().map_or(0.0, |x| x.score)));
    let final_loss = mean(&|r| f64::from(r.records.last().map_or(0.0, |x| x.train_loss)));
    let upload_mb = mean(&|r| {
        let bytes: usize = r.records.iter().map(|x| x.upload_bytes_compressed).sum();
        bytes as f64 / r.records.len().max(1) as f64 / 1e6
    });
    let (tta_h, crossed) = sim_tta_hours(panel, w.relative_loss_target);

    println!(
        "e2e rounds={} from {} repetitions of {} panel seeds; round_ms_tail is p{} (panel pass: {} rounds, >= {} beyond)",
        round_ms.len(),
        reps.len(),
        w.panel,
        tail,
        panel_rounds,
        stats::TAIL_MIN_BEYOND
    );
    let [q1, q2, q3] = stats::quartiles(&round_ms);
    println!("e2e unscaled round_ms quartiles {q1:.3} / {q2:.3} / {q3:.3}");
    println!(
        "e2e unscaled setup_s={} round_ms_p50={} round_ms_tail={} train_tokens_per_s={}",
        stats::median(&setup),
        q2,
        stats::percentile(&round_ms, tail),
        tokens as f64 / loop_s
    );
    println!(
        "e2e sim_tta_h: panel-mean train loss reaches {} of round 0 {}",
        w.relative_loss_target,
        match crossed {
            Some(round) => format!("between rounds {} and {}", round - 1, round),
            None => "never (censored at the last round)".to_string(),
        }
    );
    print_counters(w, panel);

    [
        ("setup_s", stats::median(&setup) * scale, "s"),
        ("round_ms_p50", stats::median(&round_ms) * scale, "ms"),
        (
            "round_ms_tail",
            stats::percentile(&round_ms, tail) * scale,
            "ms",
        ),
        ("train_tokens_per_s", tokens as f64 / loop_s / scale, "1/s"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
        ("sim_tta_h", tta_h, "h"),
        ("final_score", final_score, "score"),
        ("final_loss", final_loss, "loss"),
        ("upload_mb_per_round", upload_mb, "MB"),
    ]
    .map(|(name, value, unit)| Metric { name, value, unit })
    .into()
}

/// Simulated hours until the panel's mean train loss, relative to each
/// run's round-0 loss, first falls to `target`, interpolated linearly in
/// simulated time between the rounds either side. Returns the round that
/// crossed, or `None` with the last round's time when none did.
fn sim_tta_hours(panel: &[Rep], target: f64) -> (f64, Option<usize>) {
    let rounds = panel.iter().map(|r| r.records.len()).min().unwrap_or(0);
    let n = panel.len() as f64;
    let mean = |f: &dyn Fn(&Rep) -> f64| panel.iter().map(f).sum::<f64>() / n;
    let hours: Vec<f64> = (0..rounds)
        .map(|i| mean(&|r| r.records[i].elapsed_hours))
        .collect();
    let loss: Vec<f64> = (0..rounds)
        .map(|i| mean(&|r| f64::from(r.records[i].train_loss) / f64::from(r.records[0].train_loss)))
        .collect();
    for i in 1..rounds {
        if loss[i] <= target {
            let f = (loss[i - 1] - target) / (loss[i - 1] - loss[i]);
            return (hours[i - 1] + f * (hours[i] - hours[i - 1]), Some(i));
        }
    }
    (hours.last().copied().unwrap_or(0.0), None)
}

/// Exact counts summed over `reps`: identical on every run with the same
/// seed, so later changes can be compared as counts.
fn print_counters(w: &Workload, reps: &[Rep]) {
    let sum = |f: &dyn Fn(&Rep) -> u64| reps.iter().map(f).sum::<u64>();
    let records = |f: &dyn Fn(&flux_core::RoundRecord) -> usize| {
        sum(&|r| r.records.iter().map(|x| f(x) as u64).sum())
    };
    println!("counters workload={} repetitions={}", w.name, reps.len());
    println!("  tokens_trained = {}", records(&|x| x.tokens_trained));
    println!(
        "  upload_bytes_dense = {}",
        records(&|x| x.upload_bytes_dense)
    );
    println!(
        "  upload_bytes_encoded = {}",
        records(&|x| x.upload_bytes_compressed)
    );
    println!(
        "  checkpoint_bytes = {}",
        sum(&|r| r.checkpoints.iter().map(|c| c.bytes_written).sum())
    );
    println!(
        "  checkpoint_shards_written = {}",
        sum(&|r| r.checkpoints.iter().map(|c| c.shards_written as u64).sum())
    );
    println!("  quant_cache_hits = {}", sum(&|r| r.quant_cache.0 as u64));
    println!(
        "  quant_cache_misses = {}",
        sum(&|r| r.quant_cache.1 as u64)
    );
}

/// Traced run: for each panel seed in turn, an untraced repetition and a
/// traced one with the layer replay, until `--seconds` have passed.
fn traced(w: &Workload, args: &Args, threads: usize, dir: &Path) -> (Checks, Vec<Metric>) {
    let pool = ThreadPool::new(threads);
    let first = Workload::panel_seed(args.seed, 0);
    let (reference, mut checks) = reference_runs(w, first, &pool, dir);
    let mut plain_tracer = Tracer::new(false);
    let mut tracer = Tracer::new(true);
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    while traced.is_empty() || started.elapsed() < budget {
        let i = traced.len();
        let seed = Workload::panel_seed(args.seed, i % w.panel);
        plain.push(run_rep(w, seed, &pool, dir, &mut plain_tracer));
        tracer.set_run(i as u32);
        traced.push(run_rep(w, seed, &pool, dir, &mut tracer));
    }
    for rep in plain.iter().chain(&traced) {
        checks.count(rep);
    }
    // Tracing must change no result: traced and untraced repetitions of a
    // seed are checked against each other like any other repetition.
    let all: Vec<&Rep> = plain.iter().chain(&traced).collect();
    checks.consistent(&reference, &all);

    let path = PathBuf::from(WORK_DIR).join(format!("trace-{}-seed{}.json", w.name, args.seed));
    match std::fs::write(&path, tracer.chrome_json()) {
        Ok(()) => println!(
            "trace: {} spans written to {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(err) => println!("trace: could not write {}: {err}", path.display()),
    }
    print_span_totals(&tracer);
    let counters = traced.iter().fold(replay::Counters::default(), |sum, r| {
        sum.merge(&r.replay_counters)
    });
    let metrics = per_layer(&tracer, &plain, &traced, &counters, threads);
    print_counters(w, &traced);
    print_replay_counters(&counters);
    (checks, metrics)
}

fn print_span_totals(tracer: &Tracer) {
    println!(
        "spans {:<36} {:>7} {:>12} {:>12}",
        "name", "count", "total_ms", "self_ms"
    );
    for (name, t) in tracer.totals() {
        println!(
            "spans {:<36} {:>7} {:>12.3} {:>12.3}",
            name,
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
}

/// The replay's exact counts over every traced repetition.
fn print_replay_counters(c: &replay::Counters) {
    println!("  replay_tokens_trained = {}", c.tokens_trained);
    println!("  replay_upload_bytes_dense = {}", c.dense_bytes);
    println!("  replay_upload_bytes_encoded = {}", c.encoded_bytes);
    println!("  compact_experts = {}", c.compact_experts);
    println!("  scratch_arena_hits = {}", c.arena_hits);
    println!("  scratch_arena_misses = {}", c.arena_misses);
    println!(
        "  scratch_arena_high_water_bytes = {}",
        c.arena_high_water_bytes
    );
    println!("  gemm_flops_timed = {}", c.gemm_flops);
}

/// Each per-layer metric with its unit and the end-to-end metric (and
/// workload) it should move.
#[rustfmt::skip]
const PER_LAYER: [(&str, &str, &str); 48] = [
    ("core.driver.setup_ms",                 "ms",      "setup_s, all workloads"),
    ("core.driver.start_round_ms",           "ms",      "round_ms_*, flux-small"),
    ("core.driver.finish_round_ms",          "ms",      "round_ms_*, fleet-wire"),
    ("core.driver.finish_ms",                "ms",      "(drains the last evaluation)"),
    ("fl.snapshot.checkpoint_ms",            "ms",      "round_ms_*, fleet-wire; zero elsewhere"),
    ("fl.snapshot.checkpoint_bytes",         "bytes",   "round_ms_*, fleet-wire; zero elsewhere"),
    ("fl.snapshot.shards_written",           "count",   "round_ms_*, fleet-wire; zero elsewhere"),
    ("quant.quantize_ms",                    "ms",      "round_ms_*, train_tokens_per_s, flux-small"),
    ("core.profiling.profile_ms",            "ms",      "round_ms_*, train_tokens_per_s, flux-small"),
    ("core.profiling.quant_cache_hit_ratio", "ratio",   "round_ms_*, flux-small"),
    ("core.assignment.assign_ms",            "ms",      "round_ms_*, train_tokens_per_s, flux-small"),
    ("core.assignment.spsa_ms",              "ms",      "round_ms_*, train_tokens_per_s, flux-small"),
    ("core.merging.plan_build_ms",           "ms",      "round_ms_*, train_tokens_per_s, flux-small"),
    ("core.merging.apply_ms",                "ms",      "round_ms_*, train_tokens_per_s, flux-small"),
    ("core.merging.compact_experts",         "count",   "round_ms_*, flux-small"),
    ("moe.batch_gradients_ms",               "ms",      "round_ms_*, fmd-small most, flux-small partly"),
    ("moe.apply_gradients_ms",               "ms",      "round_ms_*, fmd-small most, flux-small partly"),
    ("moe.train_tokens_per_s",               "1/s",     "train_tokens_per_s, fmd-small most"),
    ("moe.evaluate_ms",                      "ms",      "round_ms_tail (overlapped eval)"),
    ("tensor.gemm_gflops",                   "GFLOP/s", "round_ms_*, fmd-small"),
    ("tensor.scratch.arena_hit_ratio",       "ratio",   "round_ms_*, fmd-small; peak_rss_mb"),
    ("tensor.scratch.high_water_bytes",      "bytes",   "peak_rss_mb"),
    ("fl.compress.encode_ms",                "ms",      "round_ms_*, upload_mb_per_round, fleet-wire"),
    ("fl.compress.decode_ms",                "ms",      "round_ms_*, fleet-wire"),
    ("fl.compress.byte_ratio",               "ratio",   "upload_mb_per_round, fleet-wire"),
    ("fl.aggregate.submit_ms",               "ms",      "round_ms_*, fleet-wire"),
    ("fl.store.apply_round_ms",              "ms",      "round_ms_*, fleet-wire"),
    ("fl.store.snapshot_ms",                 "ms",      "round_ms_*, fleet-wire"),
    ("fl.participant.materialize_ms",        "ms",      "round_ms_*, fleet-wire"),
    ("fl.participant.registry_build_ms",     "ms",      "setup_s"),
    ("data.generate_ms",                     "ms",      "setup_s"),
    ("core.local_round.skew",                "ratio",   "bounds per-client cuts on round_ms_tail"),
    ("threadpool.fanout_efficiency",         "ratio",   "round_ms_*, all workloads"),
    ("core.driver.replay_coverage",          "ratio",   "replayed layer time / traced round wall"),
    ("core.driver.uncovered_thread_ms",      "ms",      "pool thread time no replayed layer explains"),
    ("quant.calls",                          "count",   "zero on fmd-small and fleet-wire"),
    ("core.profiling.calls",                 "count",   "zero on fmd-small and fleet-wire"),
    ("core.assignment.calls",                "count",   "zero on fmd-small and fleet-wire"),
    ("core.merging.calls",                   "count",   "zero on fmd-small and fleet-wire"),
    ("moe.calls",                            "count",   "every workload"),
    ("tensor.calls",                         "count",   "every workload"),
    ("fl.compress.calls",                    "count",   "zero on flux-small and fmd-small"),
    ("fl.snapshot.calls",                    "count",   "zero on flux-small and fmd-small"),
    ("fl.aggregate.calls",                   "count",   "every workload"),
    ("fl.store.calls",                       "count",   "every workload"),
    ("fl.participant.calls",                 "count",   "every workload"),
    ("trace.overhead_round_ms_p50",          "ms",      "traced minus untraced round_ms_p50"),
    ("trace.overhead_setup_ms",              "ms",      "traced minus untraced setup_s, in ms"),
];

fn per_layer(
    tracer: &Tracer,
    plain: &[Rep],
    traced: &[Rep],
    counters: &replay::Counters,
    threads: usize,
) -> Vec<Metric> {
    let spans = tracer.spans();
    let ms = |ns: u64| ns as f64 / 1e6;
    // Durations of every span with a given name, in ms.
    let durations = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| ms(s.duration_ns()))
            .collect()
    };
    // The replay round each span belongs to, if any.
    let mut round_of: Vec<Option<usize>> = vec![None; spans.len()];
    let mut replay_rounds = 0;
    for (id, span) in spans.iter().enumerate() {
        round_of[id] = if span.name == "replay.round" {
            replay_rounds += 1;
            Some(replay_rounds - 1)
        } else {
            span.parent.and_then(|p| round_of[p])
        };
    }
    // Per replayed round: summed span time by name, and all layer time.
    let mut per_round: Vec<BTreeMap<&str, f64>> = vec![BTreeMap::new(); replay_rounds];
    let mut layer_ms = vec![0.0; replay_rounds];
    for (span, round) in spans.iter().zip(&round_of) {
        if let Some(r) = *round {
            *per_round[r].entry(span.name.as_str()).or_default() += ms(span.duration_ns());
            if !span.name.starts_with("replay.") {
                layer_ms[r] += ms(span.duration_ns());
            }
        }
    }
    let round_median = |name: &str| -> f64 {
        let v: Vec<f64> = per_round
            .iter()
            .map(|m| m.get(name).copied().unwrap_or(0.0))
            .collect();
        median_or_zero(&v)
    };
    let mut calls: BTreeMap<&str, usize> = BTreeMap::new();
    for span in spans {
        if !span.name.starts_with("replay.") && !span.name.starts_with("bench.") {
            *calls.entry(layer_of(&span.name)).or_default() += 1;
        }
    }

    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let checkpoints: Vec<&flux_fl::CheckpointStats> =
        traced.iter().flat_map(|r| &r.checkpoints).collect();
    let (cache_hits, cache_misses) = traced.iter().fold((0, 0), |(h, m), r| {
        (h + r.quant_cache.0, m + r.quant_cache.1)
    });
    let train_ms: f64 = ["moe.batch_gradients", "moe.apply_gradients"]
        .iter()
        .map(|n| durations(n).iter().sum::<f64>())
        .sum();

    // Round-level derived figures, pairing each replayed round with the
    // traced round it replays.
    let mut skew = Vec::new();
    let mut efficiency = Vec::new();
    let mut coverage = Vec::new();
    let mut uncovered = Vec::new();
    let mut r = 0;
    for rep in traced {
        for ((replayed, round_ms), start_ms) in rep
            .replays
            .iter()
            .zip(&rep.round_ms)
            .zip(&rep.start_round_ms)
        {
            let client_ms: Vec<f64> = replayed.client_ns.iter().map(|&ns| ms(ns)).collect();
            let total: f64 = client_ms.iter().sum();
            if !client_ms.is_empty() {
                let mean = total / client_ms.len() as f64;
                let max = client_ms.iter().copied().fold(0.0, f64::max);
                skew.push(ratio(max, mean));
            }
            efficiency.push(ratio(total, start_ms * threads as f64));
            coverage.push(ratio(layer_ms[r], *round_ms));
            // The round offered `round_ms × threads` of pool time; what the
            // replayed layers do not explain is driver overhead or idle
            // workers.
            uncovered.push(round_ms * threads as f64 - layer_ms[r]);
            r += 1;
        }
    }
    let pooled = |reps: &[Rep], f: &dyn Fn(&Rep) -> Vec<f64>| -> Vec<f64> {
        reps.iter().flat_map(f).collect()
    };
    let overhead_round = median_or_zero(&pooled(traced, &|r| r.round_ms.clone()))
        - median_or_zero(&pooled(plain, &|r| r.round_ms.clone()));
    let overhead_setup = (median_or_zero(&pooled(traced, &|r| vec![r.setup_s]))
        - median_or_zero(&pooled(plain, &|r| vec![r.setup_s])))
        * 1e3;

    let median_of = |f: &dyn Fn(&flux_fl::CheckpointStats) -> f64| {
        median_or_zero(&checkpoints.iter().map(|c| f(c)).collect::<Vec<_>>())
    };
    let derived = [
        (
            "fl.snapshot.checkpoint_bytes",
            median_of(&|c| c.bytes_written as f64),
        ),
        (
            "fl.snapshot.shards_written",
            median_of(&|c| c.shards_written as f64),
        ),
        (
            "core.profiling.quant_cache_hit_ratio",
            ratio(cache_hits as f64, (cache_hits + cache_misses) as f64),
        ),
        (
            "core.merging.compact_experts",
            ratio(counters.compact_experts as f64, counters.merge_plans as f64),
        ),
        (
            "moe.train_tokens_per_s",
            ratio(counters.tokens_trained as f64, train_ms / 1e3),
        ),
        (
            "tensor.gemm_gflops",
            ratio(counters.gemm_flops as f64, counters.gemm_ns as f64),
        ),
        (
            "tensor.scratch.arena_hit_ratio",
            ratio(
                counters.arena_hits as f64,
                (counters.arena_hits + counters.arena_misses) as f64,
            ),
        ),
        (
            "tensor.scratch.high_water_bytes",
            counters.arena_high_water_bytes as f64,
        ),
        (
            "fl.compress.byte_ratio",
            ratio(counters.encoded_bytes as f64, counters.dense_bytes as f64),
        ),
        ("core.local_round.skew", median_or_zero(&skew)),
        ("threadpool.fanout_efficiency", median_or_zero(&efficiency)),
        ("core.driver.replay_coverage", median_or_zero(&coverage)),
        (
            "core.driver.uncovered_thread_ms",
            median_or_zero(&uncovered),
        ),
        ("trace.overhead_round_ms_p50", overhead_round),
        ("trace.overhead_setup_ms", overhead_setup),
    ];
    // Every other metric is a span time (`<span>_ms`: per-round sums for
    // replayed spans, per-call durations for driver and set-up spans) or a
    // layer's call count (`<layer>.calls`).
    let value_of = |name: &str| -> f64 {
        if let Some(&(_, value)) = derived.iter().find(|(n, _)| *n == name) {
            return value;
        }
        if let Some(layer) = name.strip_suffix(".calls") {
            return calls.get(layer).copied().unwrap_or(0) as f64;
        }
        let span = name
            .strip_suffix("_ms")
            .expect("per-layer metrics are derived, call counts or span times");
        if per_round.iter().any(|m| m.contains_key(span)) {
            round_median(span)
        } else {
            median_or_zero(&durations(span))
        }
    };

    println!("layer {:<38} {:>16} {:<8} moves", "metric", "value", "unit");
    PER_LAYER
        .iter()
        .map(|&(name, unit, moves)| {
            let value = value_of(name);
            println!("layer {name:<38} {value:>16.4} {unit:<8} {moves}");
            Metric { name, value, unit }
        })
        .collect()
}

fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        stats::median(values)
    }
}

fn result_json(checks: &Checks, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checks.correct(),
        checks.attempted.max(1),
        checks.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, value, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// VmHWM of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from `.git` without starting a process;
/// `unknown` outside a git checkout.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(reference)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?.lines().find_map(|l| {
                let (hash, name) = l.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}
