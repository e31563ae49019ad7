//! The benchmark's workloads and one repetition of a run through the
//! driver's public state machine.

use std::path::Path;
use std::time::Instant;

use flux_core::driver::{FederatedRun, Method, RoundRecord, RunConfig};
use flux_data::DatasetKind;
use flux_fl::{CheckpointStats, CompressionConfig, LinkProfile};
use flux_moe::MoeConfig;
use flux_quant::BitWidth;
use threadpool::ThreadPool;

use crate::replay::{Counters, Replay, RoundReplay};
use crate::trace::Tracer;

/// One benchmark workload.
pub struct Workload {
    pub name: &'static str,
    pub method: Method,
    pub config: RunConfig,
    /// Checkpoint after every round, inside the round's timed window.
    pub checkpoint_every_round: bool,
    /// Program seeds one run derives from its `--seed`. Scores and losses
    /// of these small synthetic tasks vary widely from seed to seed, so
    /// every quality figure is a mean over this panel.
    pub panel: usize,
    /// `sim_tta_h` target: the panel's mean train loss relative to round
    /// 0. The parent reaches it only after round 0.
    pub relative_loss_target: f64,
}

pub const NAMES: [&str; 3] = ["flux-small", "fmd-small", "fleet-wire"];

impl Workload {
    pub fn by_name(name: &str) -> Option<Self> {
        let small = || RunConfig::experiment(MoeConfig::small(), DatasetKind::Gsm8k);
        match name {
            // The paper's system at non-tiny shapes: quantized profiling,
            // merging, role assignment and SPSA on the fan-out's critical
            // path. 10 clients, full participation, dense uploads.
            "flux-small" => Some(Self {
                name: "flux-small",
                method: Method::Flux,
                config: small(),
                checkpoint_every_round: false,
                panel: 16,
                relative_loss_target: 0.6,
            }),
            // The full-model baseline of the same task: bypasses profiling,
            // merging, assignment and quant; local training is the round.
            "fmd-small" => Some(Self {
                name: "fmd-small",
                method: Method::Fmd,
                config: small(),
                checkpoint_every_round: false,
                panel: 24,
                relative_loss_target: 0.6,
            }),
            // Light compute, every client uploads every expert: the wire
            // (compressed encode/decode), staging and snapshot-write layers
            // carry the round.
            "fleet-wire" => {
                let mut config = RunConfig::quick_demo(MoeConfig::tiny(), DatasetKind::Gsm8k)
                    .with_participants(10_000)
                    .with_cohort(32)
                    .with_aggregation_edges(4)
                    .with_link(LinkProfile::three_g())
                    .with_compression(CompressionConfig::quantized_sparse(BitWidth::Int4, 0.25));
                config.num_samples = 2000;
                Some(Self {
                    name: "fleet-wire",
                    method: Method::Fmd,
                    config,
                    checkpoint_every_round: true,
                    panel: 160,
                    relative_loss_target: 0.8,
                })
            }
            _ => None,
        }
    }

    /// The `i`-th program seed of the panel for benchmark seed `seed`
    /// (a splitmix64 step, so neighbouring seeds share no panel member).
    pub fn panel_seed(seed: u64, i: usize) -> u64 {
        let mut z = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((i as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Everything one repetition produced.
pub struct Rep {
    pub seed: u64,
    pub checksum: u64,
    pub records: Vec<RoundRecord>,
    pub setup_s: f64,
    /// Wall time of each round: `start_round` + `finish_round` (+ the
    /// checkpoint where the workload takes one).
    pub round_ms: Vec<f64>,
    pub start_round_ms: Vec<f64>,
    pub checkpoints: Vec<CheckpointStats>,
    pub checkpoint_failures: usize,
    pub quant_cache: (usize, usize),
    /// Replay results, one per round (traced repetitions only).
    pub replays: Vec<RoundReplay>,
    pub replay_counters: Counters,
}

impl Rep {
    /// Rounds that recorded a fault or a non-finite loss.
    pub fn bad_rounds(&self) -> usize {
        self.records
            .iter()
            .filter(|r| !r.faults.is_clean() || !r.train_loss.is_finite())
            .count()
    }

    /// Whether two repetitions produced the same results.
    pub fn same_results(&self, other: &Rep) -> bool {
        self.checksum == other.checksum && self.records == other.records
    }
}

/// Runs workload `w` once for program seed `seed` on `pool`, stepping
/// the driver's state machine round by round. With an enabled tracer the
/// driver calls are wrapped in spans and every round is replayed layer by
/// layer after it closes.
pub fn run_rep(w: &Workload, seed: u64, pool: &ThreadPool, dir: &Path, tracer: &mut Tracer) -> Rep {
    let run = FederatedRun::new(w.config.clone(), seed);
    let ckpt_dir = dir.join("ckpt");
    if w.checkpoint_every_round {
        // Every repetition starts from an empty directory, so its first
        // checkpoint is a full write.
        let _ = std::fs::remove_dir_all(&ckpt_dir);
    }
    let rep_span = tracer.begin("bench.rep");

    let started = Instant::now();
    let setup = tracer.begin("core.driver.setup");
    let mut active = run.start(w.method);
    tracer.end(setup);
    let setup_s = started.elapsed().as_secs_f64();

    let mut replay = tracer
        .enabled()
        .then(|| Replay::new(&w.config, w.method, seed, tracer));
    let mut rep = Rep {
        seed,
        checksum: 0,
        records: Vec::new(),
        setup_s,
        round_ms: Vec::new(),
        start_round_ms: Vec::new(),
        checkpoints: Vec::new(),
        checkpoint_failures: 0,
        quant_cache: (0, 0),
        replays: Vec::new(),
        replay_counters: Counters::default(),
    };
    let mut round = 0;
    while !active.is_done() {
        let round_span = tracer.begin("bench.round");
        let started = Instant::now();
        let span = tracer.begin("core.driver.start_round");
        active.start_round(pool);
        tracer.end(span);
        rep.start_round_ms
            .push(started.elapsed().as_secs_f64() * 1e3);
        // The snapshot the fan-out read, still cached in the store.
        let global = replay.as_ref().map(|_| active.store().snapshot());
        let span = tracer.begin("core.driver.finish_round");
        active.finish_round(pool);
        tracer.end(span);
        if w.checkpoint_every_round {
            let span = tracer.begin("fl.snapshot.checkpoint");
            match active.checkpoint(&ckpt_dir) {
                Ok(stats) => rep.checkpoints.push(stats),
                Err(err) => {
                    eprintln!("checkpoint of round {round} failed: {err}");
                    rep.checkpoint_failures += 1;
                }
            }
            tracer.end(span);
        }
        rep.round_ms.push(started.elapsed().as_secs_f64() * 1e3);
        tracer.end(round_span);
        if let (Some(replay), Some(global)) = (replay.as_mut(), global) {
            let cohort = active.cohort_of(round);
            rep.replays
                .push(replay.round(round, &global, &cohort, tracer));
        }
        round += 1;
    }
    rep.quant_cache = active
        .quant_cache_stats()
        .iter()
        .fold((0, 0), |(h, m), &(dh, dm)| (h + dh, m + dm));
    let span = tracer.begin("core.driver.finish");
    let result = active.finish();
    tracer.end(span);
    if let Some(mut replay) = replay {
        replay.gemm(&result.final_model, tracer);
        rep.replay_counters = replay.counters;
    }
    tracer.end(rep_span);
    rep.checksum = result.final_model.param_checksum();
    rep.records = result.rounds;
    rep
}

/// Checkpoints workload `w` after its first round, drops the run as a
/// crash would, restores it with `FederatedRun::restore` and finishes it.
/// Returns whether it ended bit-identical to `reference`.
pub fn restore_matches(w: &Workload, reference: &Rep, pool: &ThreadPool, dir: &Path) -> bool {
    let ckpt_dir = dir.join("restore");
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let run = FederatedRun::new(w.config.clone(), reference.seed);
    let mut active = run.start(w.method);
    active.step_round(pool);
    if let Err(err) = active.checkpoint(&ckpt_dir) {
        eprintln!("mid-run checkpoint failed: {err}");
        return false;
    }
    drop(active);
    let mut restored = match run.restore(w.method, &ckpt_dir) {
        Ok(restored) => restored,
        Err(err) => {
            eprintln!("restore failed: {err}");
            return false;
        }
    };
    while !restored.is_done() {
        restored.step_round(pool);
    }
    let result = restored.finish();
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    result.final_model.param_checksum() == reference.checksum && result.rounds == reference.records
}
