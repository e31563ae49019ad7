//! End-to-end federated fine-tuning driver.
//!
//! [`FederatedRun`] wires the substrate together: it synthesizes the
//! dataset, partitions it non-IID across a heterogeneous device fleet,
//! initializes the global MoE model on the parameter server, and then runs
//! federated rounds with one of the four [`Method`]s (Flux or a baseline).
//! Convergence comes from really training the scaled model; per-round time
//! comes from the `flux-fl` cost model; both feed the
//! [`flux_metrics::TimeToAccuracyTracker`] that the experiment harness uses
//! to regenerate the paper's convergence and time-to-accuracy figures.
//!
//! # Round execution modes
//!
//! Every round stages its uploads into one [`AggregationTree`] *as they
//! arrive* (any thread, any order) and closes with a single
//! collapse-and-install into the tenant store. The fault-delivery layer and
//! the arrival-shuffle knob only change *when* an upload is staged, never
//! the route it takes. The schedule (see [`ExecutionMode`]) decides only
//! where the server-side tail runs:
//!
//! * **Barriered** — the reference schedule: the freshly aggregated model
//!   is evaluated before the next round dispatches.
//! * **Pipelined** (default) — the server-side tail of round *k* —
//!   evaluation of the freshly aggregated model, plus the simulated
//!   aggregation latency — overlaps round *k+1*'s participant dispatch on
//!   the same worker pool.
//!
//! The aggregator reduces in participant-id order (it sorts its shards by
//! participant id before the weighted merges), so both schedules produce
//! **bit-identical losses, scores and weights** for every thread count and
//! every arrival order; only the simulated timeline differs, because the
//! pipeline hides each non-final round's server tail behind the next
//! round's dispatch. `tests/integration_pipeline.rs` pins the equivalence
//! with a golden trace.
//!
//! # Resumable execution
//!
//! [`FederatedRun::run`] is a convenience loop over a resumable state
//! machine: [`FederatedRun::start`] (or [`FederatedRun::start_on`] to join
//! a shared multi-tenant [`ParameterServer`]) yields an [`ActiveRun`] that
//! advances one round at a time through
//! [`ActiveRun::start_round`] → [`ActiveRun::finish_round`] (query with
//! [`ActiveRun::poll`], drain with [`ActiveRun::finish`]). The
//! concurrent-run [`crate::scheduler::Scheduler`] interleaves rounds from
//! many independent runs on one worker pool this way instead of blocking
//! inside a single run's loop.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::path::Path;
use std::sync::Arc;

use serde::{Deserialize, Serialize};
use threadpool::ThreadPool;

use flux_data::{Dataset, DatasetConfig, DatasetGenerator, DatasetKind, Sample};
use flux_fl::{
    decode_staged_aggregator, dense_upload_payload_bytes, encode_staged_aggregator, load_store,
    AggregationTree, CheckpointStats, CompressionConfig, CostModel, EncodedUpload, ExpertUpdate,
    FaultKind, FaultPlan, FaultToleranceConfig, FleetSpec, LinkProfile, ParameterServer,
    Participant, ParticipantBehavior, PhaseTimes, RoundCostBreakdown, ShardedAggregator,
    ShardedStore, SimClock, SnapshotError, DEFAULT_SHARDS,
};
use flux_metrics::{TargetMetric, TimeToAccuracyTracker};
use flux_moe::{ActivationProfile, EvalResult, ExpertKey, MoeConfig, MoeModel};
use flux_tensor::SeededRng;

use crate::assignment::{
    expert_utility, initial_utilities, DynamicEpsilon, ExpertUtility, ForwardGradEstimator,
    RoleAssigner,
};
use crate::baselines::{
    fmd_local_round, fmes_local_round, fmq_local_round, local_train, LocalRoundOutput,
};
use crate::cohort::CohortSampler;
use crate::merging::{CompactModelPlan, MergingConfig};
use crate::profiling::{ProfilingConfig, QuantizedModelCache, StaleProfiler};

/// Simulated server-side aggregation latency per round, in seconds
/// (constant, small). The pipelined schedule hides it behind the next
/// round's dispatch for every round but the last.
const AGGREGATION_S: f64 = 1.0;

/// Federated fine-tuning methods compared in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Method {
    /// The paper's system.
    Flux,
    /// Full-model fine-tuning with expert offloading.
    Fmd,
    /// INT4-quantized fine-tuning.
    Fmq,
    /// Activation-frequency expert selection with discarded non-tuning
    /// experts.
    Fmes,
}

impl Method {
    /// All methods in the order the paper's figures list them.
    pub fn all() -> [Method; 4] {
        [Method::Fmd, Method::Fmq, Method::Fmes, Method::Flux]
    }

    /// Display label matching the paper.
    pub fn label(self) -> &'static str {
        match self {
            Method::Flux => "FLUX",
            Method::Fmd => "FMD",
            Method::Fmq => "FMQ",
            Method::Fmes => "FMES",
        }
    }
}

/// Whether a round's server tail overlaps the next round's dispatch.
///
/// Uploads stage into the round's aggregator as they arrive under either
/// schedule; only evaluation (and the simulated aggregation latency) moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExecutionMode {
    /// Each round is aggregated and evaluated before the next dispatches.
    /// Kept as the golden reference the pipelined schedule is pinned
    /// against.
    Barriered,
    /// Each round's evaluation and aggregation latency overlap the next
    /// round's dispatch. Bit-identical results to
    /// [`ExecutionMode::Barriered`].
    Pipelined,
}

/// Configuration of one federated run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunConfig {
    /// Model topology to fine-tune (scaled preset).
    pub model_config: MoeConfig,
    /// Which benchmark dataset analogue to use.
    pub dataset_kind: DatasetKind,
    /// Total synthetic samples generated (80/20 train/test split).
    pub num_samples: usize,
    /// Number of federated participants.
    pub num_participants: usize,
    /// Number of federated rounds to run.
    pub rounds: usize,
    /// Local mini-batch size (the paper uses 16).
    pub batch_size: usize,
    /// Local learning rate.
    pub learning_rate: f32,
    /// Dirichlet concentration of the non-IID split.
    pub non_iid_alpha: f32,
    /// Target score for time-to-accuracy; `None` uses the paper's per-dataset
    /// target, which the scaled models cannot always reach from random
    /// initialization — experiments typically set a calibrated target.
    pub target_score: Option<f32>,
    /// Exploration/exploitation schedule for the Flux role assigner.
    pub epsilon: DynamicEpsilon,
    /// Merging configuration for Flux.
    pub merging: MergingConfig,
    /// Profiling configuration for Flux.
    pub profiling: ProfilingConfig,
    /// Maximum test samples used for the per-round evaluation.
    pub eval_samples: usize,
    /// Factor translating the scaled dataset's token counts into the
    /// full-scale workload the cost model and `B_tune_i` derivation assume
    /// (the synthetic datasets are ~50× smaller and ~10× shorter than the
    /// real ones).
    pub reference_token_scale: usize,
    /// How participant uploads are encoded on the wire.
    /// [`CompressionConfig::Dense`] (the default) reproduces the legacy
    /// full-precision uploads bit-for-bit; `LosslessDelta` compresses
    /// without changing any result; `LossyDelta` trades accuracy for
    /// bytes.
    pub compression: CompressionConfig,
    /// Overrides every participant's last-mile link (3G/4G/WiFi presets or
    /// custom). `None` keeps each device's default symmetric link at its
    /// `network_mbps`.
    pub link: Option<LinkProfile>,
    /// Seeded random fault injection across the fleet (`None` disables it;
    /// one-shot incidents can still be scripted per participant with
    /// [`ParticipantBehavior`]).
    pub fault_plan: Option<FaultPlan>,
    /// Server-side delivery policy: quorum fraction, retry budget, backoff
    /// and per-round deadline. The default accepts every upload and never
    /// retries, which reproduces the fault-free pipeline bit-for-bit.
    pub fault_tolerance: FaultToleranceConfig,
    /// Clients sampled into each round's cohort. `num_participants`
    /// clients register as lightweight specs, and each round materializes
    /// only the `k` clients a seeded per-round sampler picks, so
    /// participant-state memory stays O(k) however many clients register.
    /// `None` (the default) means full participation: K = N, every client
    /// every round. No run materializes a participant before round 0.
    #[serde(default)]
    pub cohort_size: Option<usize>,
    /// Edge aggregators pre-reducing each round's uploads before the root
    /// reduces into the store (`<= 1` = flat aggregation). Edges do
    /// structural work only — shard bucketing, checksum-validated decode,
    /// duplicate rejection — and the root re-sorts by participant id, so
    /// every tree shape produces a bit-identical global model.
    #[serde(default = "default_aggregation_edges")]
    pub aggregation_edges: usize,
}

/// Serde default for [`RunConfig::aggregation_edges`]. The vendored serde
/// stub expands derives to nothing, so rustc cannot see this referenced.
#[allow(dead_code)]
fn default_aggregation_edges() -> usize {
    1
}

impl RunConfig {
    /// A configuration that finishes in seconds on one CPU core: the tiny
    /// model preset, a few dozen samples, a handful of rounds.
    pub fn quick_demo(model_config: MoeConfig, dataset_kind: DatasetKind) -> Self {
        Self {
            model_config,
            dataset_kind,
            num_samples: 48,
            num_participants: 4,
            rounds: 3,
            batch_size: 4,
            learning_rate: 0.02,
            non_iid_alpha: 0.5,
            target_score: Some(0.2),
            epsilon: DynamicEpsilon::paper_default(),
            merging: MergingConfig::default(),
            profiling: ProfilingConfig::default(),
            eval_samples: 12,
            reference_token_scale: 500,
            compression: CompressionConfig::Dense,
            link: None,
            fault_plan: None,
            fault_tolerance: FaultToleranceConfig::default(),
            cohort_size: None,
            aggregation_edges: 1,
        }
    }

    /// The configuration used by the experiment harness for the convergence
    /// and scalability figures: the `small` model preset with a moderate
    /// sample count, balancing fidelity against single-core runtime.
    pub fn experiment(model_config: MoeConfig, dataset_kind: DatasetKind) -> Self {
        Self {
            num_samples: 160,
            num_participants: 10,
            rounds: 12,
            batch_size: 8,
            learning_rate: 0.03,
            eval_samples: 24,
            target_score: None,
            ..Self::quick_demo(model_config, dataset_kind)
        }
    }

    /// Overrides the number of participants.
    pub fn with_participants(mut self, n: usize) -> Self {
        self.num_participants = n;
        self
    }

    /// Overrides the number of rounds.
    pub fn with_rounds(mut self, rounds: usize) -> Self {
        self.rounds = rounds;
        self
    }

    /// Overrides the time-to-accuracy target score.
    pub fn with_target(mut self, target: f32) -> Self {
        self.target_score = Some(target);
        self
    }

    /// Overrides the ε schedule.
    pub fn with_epsilon(mut self, epsilon: DynamicEpsilon) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Overrides the merging configuration.
    pub fn with_merging(mut self, merging: MergingConfig) -> Self {
        self.merging = merging;
        self
    }

    /// Overrides the profiling configuration.
    pub fn with_profiling(mut self, profiling: ProfilingConfig) -> Self {
        self.profiling = profiling;
        self
    }

    /// Overrides the upload compression mode.
    pub fn with_compression(mut self, compression: CompressionConfig) -> Self {
        self.compression = compression;
        self
    }

    /// Overrides every participant's last-mile link profile.
    pub fn with_link(mut self, link: LinkProfile) -> Self {
        self.link = Some(link);
        self
    }

    /// Enables seeded random fault injection across the fleet.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Overrides the server-side delivery policy (quorum, retries,
    /// deadline).
    pub fn with_fault_tolerance(mut self, tolerance: FaultToleranceConfig) -> Self {
        self.fault_tolerance = tolerance;
        self
    }

    /// Samples `k` of the registered clients into each round's cohort
    /// (clamped to the fleet size at run start).
    pub fn with_cohort(mut self, k: usize) -> Self {
        self.cohort_size = Some(k);
        self
    }

    /// Routes each round's uploads through `n` edge aggregators that
    /// pre-reduce before the root (`<= 1` keeps flat aggregation).
    pub fn with_aggregation_edges(mut self, n: usize) -> Self {
        self.aggregation_edges = n;
        self
    }

    /// The evaluation metric (with target) for this run.
    pub fn metric(&self) -> TargetMetric {
        let target = self
            .target_score
            .unwrap_or_else(|| self.dataset_kind.target_score());
        if self.dataset_kind.uses_rouge() {
            TargetMetric::RougeL { target }
        } else {
            TargetMetric::Accuracy { target }
        }
    }
}

/// What the delivery layer did to this round's uploads (empty in a
/// fault-free round).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundFaults {
    /// Participants whose upload never landed (crash, stall-out, deadline
    /// miss, or cut by the quorum); their weight is excluded this round.
    pub dropped: Vec<usize>,
    /// Participants whose upload landed only after at least one retry.
    pub retried: Vec<usize>,
    /// Participants that shipped at least one payload the server's
    /// checksum-validated decode rejected.
    pub rejected: Vec<usize>,
}

impl RoundFaults {
    /// Whether the round saw no faults at all.
    pub fn is_clean(&self) -> bool {
        self.dropped.is_empty() && self.retried.is_empty() && self.rejected.is_empty()
    }
}

/// Record of one federated round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundRecord {
    /// Round index (0-based).
    pub round: usize,
    /// Simulated time at the end of the round, in hours.
    pub elapsed_hours: f64,
    /// Global-model evaluation score after aggregation.
    pub score: f32,
    /// Mean local training loss across participants.
    pub train_loss: f32,
    /// Simulated duration of this round in seconds.
    pub round_seconds: f64,
    /// Actual training tokens processed across all participants this round
    /// (the numerator of wall-clock tokens/sec throughput measurements).
    pub tokens_trained: usize,
    /// Bytes a dense (uncompressed) upload of this round's payloads would
    /// occupy, summed over participants.
    pub upload_bytes_dense: usize,
    /// Bytes the round's uploads actually occupied after encoding (equals
    /// `upload_bytes_dense` when compression is off).
    pub upload_bytes_compressed: usize,
    /// Critical-path participant's per-phase breakdown.
    pub breakdown: RoundCostBreakdown,
    /// Dropped/retried/rejected participants this round (fault scenarios).
    pub faults: RoundFaults,
}

/// Result of a complete federated run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The method that produced this run.
    pub method: Method,
    /// Convergence tracker (relative accuracy vs simulated time).
    pub tracker: TimeToAccuracyTracker,
    /// Per-round records.
    pub rounds: Vec<RoundRecord>,
    /// Accumulated per-phase times (critical-path participant per round).
    pub phase_times: PhaseTimes,
    /// Final evaluation score.
    pub final_score: f32,
    /// Dense-equivalent upload bytes across the whole run.
    pub upload_bytes_dense: usize,
    /// Encoded upload bytes across the whole run.
    pub upload_bytes_compressed: usize,
    /// The aggregated global model at the end of the run (the artifact the
    /// golden-trace suite checksums).
    pub final_model: MoeModel,
}

impl RunResult {
    /// Simulated hours until `target` was first reached, if ever.
    pub fn time_to_score(&self, target: f32) -> Option<f64> {
        self.rounds
            .iter()
            .find(|r| r.score >= target)
            .map(|r| r.elapsed_hours)
    }

    /// Best score reached during the run.
    pub fn best_score(&self) -> f32 {
        self.rounds.iter().map(|r| r.score).fold(0.0, f32::max)
    }
}

/// Per-participant state the Flux method keeps across rounds.
struct FluxState {
    profiler: StaleProfiler,
}

/// What one participant's local round hands back to the server loop.
///
/// Local rounds run on worker threads against a read-only view of the
/// server state; everything they would have mutated (utility reports) is
/// returned here and applied sequentially in participant-id order, which
/// keeps runs bit-identical for every thread count.
struct ParticipantRound {
    output: LocalRoundOutput,
    /// Round-0 bootstrap utilities (applied before the refreshed ones,
    /// exactly as the sequential protocol did).
    bootstrap_utilities: Option<Vec<ExpertUtility>>,
    /// Utilities measured during this round's local training.
    reported_utilities: Vec<ExpertUtility>,
    /// The wire-form upload, retained when it was not streamed into the
    /// aggregator on completion (the arrival-shuffle knob, or the
    /// fault-delivery layer).
    upload: Option<RoundUpload>,
    /// Bytes a dense upload of this participant's payload occupies.
    upload_bytes_dense: usize,
    /// Bytes the encoded upload actually occupies.
    upload_bytes_encoded: usize,
}

impl ParticipantRound {
    /// A round result that carries no utility reports (the baselines).
    fn plain(output: LocalRoundOutput) -> Self {
        Self {
            output,
            bootstrap_utilities: None,
            reported_utilities: Vec::new(),
            upload: None,
            upload_bytes_dense: 0,
            upload_bytes_encoded: 0,
        }
    }
}

/// One participant's upload in the form it crossed the (simulated) wire.
enum RoundUpload {
    /// Legacy full-precision payload.
    Dense(Vec<ExpertUpdate>, Option<(flux_tensor::Matrix, f32)>),
    /// Delta-encoded payload; decodes against the round-start snapshot at
    /// the aggregator staging layer.
    Encoded(EncodedUpload),
}

/// Stages one upload into the aggregator, decoding encoded payloads
/// against the round-start snapshot `base`.
///
/// # Panics
///
/// Panics when an encoded payload fails its checksum-validated decode:
/// this path only carries uploads the driver produced itself, so a decode
/// failure is a driver bug, not a simulated wire fault (those go through
/// the delivery layer, which rejects without panicking).
fn submit_upload(
    aggregator: &AggregationTree,
    participant_id: usize,
    upload: RoundUpload,
    base: &MoeModel,
) -> bool {
    match upload {
        RoundUpload::Dense(updates, head) => aggregator.submit(participant_id, updates, head),
        RoundUpload::Encoded(encoded) => aggregator
            .submit_encoded(participant_id, &encoded, base)
            .expect("a driver-produced upload decodes against its round-start snapshot"),
    }
}

/// Outcome of the delivery simulation for one fleet slot.
struct SlotDelivery {
    /// Whether the upload landed (within deadline and quorum).
    delivered: bool,
    /// Extra communication seconds the retries cost this participant.
    extra_comm_s: f64,
}

/// The delivery layer's verdict for one round: per-slot outcomes plus the
/// fault ledger for the round record.
struct RoundDelivery {
    /// One entry per fleet slot (`None` for dropout slots).
    slots: Vec<Option<SlotDelivery>>,
    faults: RoundFaults,
}

/// Puts one retained upload into the damaged wire form a corrupting
/// participant ships: encoded payloads are bit-flipped (or truncated —
/// the seed picks), dense payloads first cross the wire as a lossless
/// delta so the damage flows through the same checksum-validated decode.
fn corrupt_for_wire(upload: &RoundUpload, base: &MoeModel, seed: u64) -> EncodedUpload {
    let encoded = match upload {
        RoundUpload::Encoded(encoded) => encoded.clone(),
        RoundUpload::Dense(updates, head) => EncodedUpload::encode(
            updates,
            head.as_ref(),
            base,
            CompressionConfig::LosslessDelta,
        ),
    };
    if seed & 1 == 0 {
        encoded.corrupted(seed)
    } else {
        encoded.truncated(seed)
    }
}

/// Simulates the delivery of every retained upload under the configured
/// fault plan, behaviors and tolerance policy, staging the uploads that
/// land into `aggregator`.
///
/// Per attempt (up to `max_retries` retries): a crash loses the upload for
/// the round; a corrupt attempt reaches the server but its checksum-
/// validated decode rejects it (the attempt counts, the pid stays
/// unstaged); a stall never arrives. Clean attempts arrive at
/// `local cost + attempt × backoff` and land iff within the round
/// deadline. Landed uploads are then sorted by `(arrival, pid)` and cut at
/// the quorum count — the round finalizes once a quorum landed; later
/// arrivals are dropped. Everything is a pure function of the seeds, so
/// the same plan yields the same faults for every thread count, schedule
/// and restore point.
fn simulate_deliveries(
    driver: &FederatedRun,
    round: usize,
    aggregator: &AggregationTree,
    fleet: &[Participant],
    results: &mut [TaskOut],
    base: &MoeModel,
) -> RoundDelivery {
    let ft = driver.config.fault_tolerance;
    let plan = driver.config.fault_plan;
    let mut slots: Vec<Option<SlotDelivery>> = Vec::with_capacity(fleet.len());
    let mut faults = RoundFaults::default();
    // (arrival_s, pid, slot index, successful attempt, upload)
    let mut landed: Vec<(f64, usize, usize, u32, RoundUpload)> = Vec::new();
    let mut cohort = 0usize;
    for (slot, (participant, task_out)) in fleet.iter().zip(results.iter_mut()).enumerate() {
        let TaskOut::Participant(result) = task_out else {
            slots.push(None);
            continue;
        };
        cohort += 1;
        slots.push(Some(SlotDelivery {
            delivered: false,
            extra_comm_s: 0.0,
        }));
        let pid = participant.id;
        let behavior = driver.behaviors.get(&pid).copied().unwrap_or_default();
        let upload = result
            .upload
            .take()
            .expect("faulty rounds retain every upload for the delivery layer");
        let base_arrival = result.output.cost.total_s();
        let mut was_rejected = false;
        let mut delivery: Option<(f64, u32)> = None;
        for attempt in 0..=ft.max_retries {
            // Scripted one-shot behaviors take precedence over the random
            // plan, so a test can pin a specific incident under a plan.
            let fault = match behavior.fault_at(round, attempt) {
                FaultKind::None => plan
                    .map(|p| p.fault_for(round, pid, attempt))
                    .unwrap_or(FaultKind::None),
                scripted => scripted,
            };
            match fault {
                FaultKind::Crash => break,
                FaultKind::Corrupt => {
                    let seed = plan
                        .map(|p| p.corruption_seed(round, pid, attempt))
                        .unwrap_or_else(|| {
                            (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                                ^ (pid as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
                                ^ u64::from(attempt)
                        });
                    let damaged = corrupt_for_wire(&upload, base, seed);
                    // The damaged payload reaches the server; the checksum-
                    // validated decode must reject it without staging
                    // anything and without panicking.
                    let verdict = aggregator.submit_encoded(pid, &damaged, base);
                    debug_assert!(
                        verdict.is_err() || verdict == Ok(false),
                        "a damaged upload must never stage"
                    );
                    was_rejected = true;
                }
                FaultKind::Stall => {}
                FaultKind::None => {
                    let arrival = base_arrival + f64::from(attempt) * ft.retry_backoff_s;
                    if arrival <= ft.round_deadline_s {
                        delivery = Some((arrival, attempt));
                    }
                    break;
                }
            }
        }
        if was_rejected {
            faults.rejected.push(pid);
        }
        match delivery {
            Some((arrival, attempt)) => {
                if attempt > 0 {
                    faults.retried.push(pid);
                }
                landed.push((arrival, pid, slot, attempt, upload));
            }
            None => faults.dropped.push(pid),
        }
    }
    // The round finalizes once a quorum of the cohort landed; later
    // arrivals are dropped from the round. Ties break by pid so the cut is
    // deterministic.
    landed.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.1.cmp(&b.1))
    });
    let quorum = ft.quorum_count(cohort);
    for (index, (_arrival, pid, slot, attempt, upload)) in landed.into_iter().enumerate() {
        if index >= quorum {
            faults.dropped.push(pid);
            continue;
        }
        // A pid already staged by a restored mid-round aggregator rejects
        // the duplicate here; the delivery still counts.
        submit_upload(aggregator, pid, upload, base);
        let delivered = slots[slot]
            .as_mut()
            .expect("landed uploads come from participant slots");
        delivered.delivered = true;
        delivered.extra_comm_s = f64::from(attempt) * ft.retry_backoff_s;
    }
    faults.dropped.sort_unstable();
    faults.retried.sort_unstable();
    faults.rejected.sort_unstable();
    RoundDelivery { slots, faults }
}

/// One task's result in a round's fan-out.
enum TaskOut {
    /// A participant finished its local round.
    Participant(Box<ParticipantRound>),
    /// The participant was absent this round (dropout scenario).
    Dropped,
    /// The overlapped evaluation of the *previous* round's aggregated
    /// model (pipelined mode only).
    Eval(EvalResult),
}

/// Everything a round's ordered reduction produces.
#[derive(Default)]
struct RoundReduction {
    loss_sum: f32,
    active: usize,
    tokens_trained: usize,
    upload_bytes_dense: usize,
    upload_bytes_compressed: usize,
    critical: RoundCostBreakdown,
}

/// A round whose compute has finished but whose evaluation is still in
/// flight on the pipeline.
#[derive(Clone)]
pub(crate) struct PendingRound {
    pub(crate) round: usize,
    pub(crate) elapsed_hours: f64,
    pub(crate) train_loss: f32,
    pub(crate) round_seconds: f64,
    pub(crate) tokens_trained: usize,
    pub(crate) upload_bytes_dense: usize,
    pub(crate) upload_bytes_compressed: usize,
    pub(crate) breakdown: RoundCostBreakdown,
    pub(crate) faults: RoundFaults,
}

impl PendingRound {
    fn finish(self, score: f32) -> RoundRecord {
        RoundRecord {
            round: self.round,
            elapsed_hours: self.elapsed_hours,
            score,
            train_loss: self.train_loss,
            round_seconds: self.round_seconds,
            tokens_trained: self.tokens_trained,
            upload_bytes_dense: self.upload_bytes_dense,
            upload_bytes_compressed: self.upload_bytes_compressed,
            breakdown: self.breakdown,
            faults: self.faults,
        }
    }
}

/// A federated fine-tuning run.
#[derive(Clone)]
pub struct FederatedRun {
    config: RunConfig,
    seed: u64,
    threads: Option<usize>,
    mode: ExecutionMode,
    behaviors: HashMap<usize, ParticipantBehavior>,
    arrival_seed: Option<u64>,
}

impl FederatedRun {
    /// Creates a run with the given configuration and seed.
    ///
    /// Participant-local rounds run concurrently on a pool sized from the
    /// `FLUX_THREADS` environment variable (default: available parallelism;
    /// `1` reproduces fully sequential execution), in the
    /// [`ExecutionMode::Pipelined`] schedule. Results are reduced in
    /// participant-id order, so neither the thread count nor the schedule
    /// ever changes the output.
    pub fn new(config: RunConfig, seed: u64) -> Self {
        Self {
            config,
            seed,
            threads: None,
            mode: ExecutionMode::Pipelined,
            behaviors: HashMap::new(),
            arrival_seed: None,
        }
    }

    /// Overrides the worker-thread count, taking precedence over the
    /// `FLUX_THREADS` environment variable.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Overrides the round schedule (default: [`ExecutionMode::Pipelined`]).
    pub fn with_mode(mut self, mode: ExecutionMode) -> Self {
        self.mode = mode;
        self
    }

    /// Assigns a fault/latency behavior to one participant (straggler and
    /// dropout scenarios).
    pub fn with_behavior(mut self, participant_id: usize, behavior: ParticipantBehavior) -> Self {
        self.behaviors.insert(participant_id, behavior);
        self
    }

    /// Verification knob: defer the incremental upload submissions and
    /// replay them in a seeded-shuffled participant order instead of
    /// completion order, under either schedule. Results must not change —
    /// the golden-trace suite uses this to prove arrival-order invariance
    /// deterministically.
    pub fn with_shuffled_arrivals(mut self, seed: u64) -> Self {
        self.arrival_seed = Some(seed);
        self
    }

    /// The run configuration.
    pub fn config(&self) -> &RunConfig {
        &self.config
    }

    /// Whether any fault source or non-default delivery policy is active —
    /// the switch that routes uploads through the delivery layer instead of
    /// streaming them straight into the aggregator.
    fn faults_active(&self) -> bool {
        self.config.fault_plan.is_some()
            || self.config.fault_tolerance != FaultToleranceConfig::default()
            || self.behaviors.values().any(|b| {
                matches!(
                    b,
                    ParticipantBehavior::CrashAt { .. }
                        | ParticipantBehavior::CorruptAt { .. }
                        | ParticipantBehavior::StallAt { .. }
                )
            })
    }

    /// Executes the full federated fine-tuning process with one method:
    /// the convenience loop over the resumable state machine.
    pub fn run(&self, method: Method) -> RunResult {
        let pool = match self.threads {
            Some(threads) => ThreadPool::new(threads),
            None => ThreadPool::from_env(),
        };
        let mut active = self.start(method);
        while !active.is_done() {
            active.step_round(&pool);
        }
        active.finish()
    }

    /// Starts a standalone run: the global model lives in a private
    /// sharded store (its own single-tenant server, in effect).
    pub fn start(&self, method: Method) -> ActiveRun {
        self.start_with(method, |model| {
            Arc::new(ShardedStore::new(model, DEFAULT_SHARDS))
        })
    }

    /// Starts a run as one tenant of a shared multi-tenant
    /// [`ParameterServer`]: its global model is registered as a new tenant,
    /// so concurrent runs on the same server aggregate under disjoint
    /// per-shard locks.
    pub fn start_on(&self, method: Method, server: &ParameterServer) -> ActiveRun {
        self.start_with(method, |model| server.register_tenant(model))
    }

    /// Restores a standalone run from a durable checkpoint directory
    /// (written by [`ActiveRun::checkpoint`]) and returns it positioned to
    /// re-enter its next round.
    ///
    /// The checkpoint's fingerprint (seed, method, schedule, round and
    /// fleet shape) must match this run; everything the checkpoint does not
    /// persist — dataset, fleet, RNG chain — is rebuilt deterministically
    /// from the seed, so a restored run replays to results bit-identical
    /// to the uninterrupted one.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, corrupt or truncated checkpoint files (each
    /// attributed to the shard that failed its checksum), and fingerprint
    /// mismatches.
    pub fn restore(
        &self,
        method: Method,
        dir: impl AsRef<Path>,
    ) -> Result<ActiveRun, SnapshotError> {
        self.restore_with(method, dir, |store| store)
    }

    /// Like [`FederatedRun::restore`], but the restored store joins a
    /// shared multi-tenant [`ParameterServer`] as a tenant.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`FederatedRun::restore`].
    pub fn restore_on(
        &self,
        method: Method,
        server: &ParameterServer,
        dir: impl AsRef<Path>,
    ) -> Result<ActiveRun, SnapshotError> {
        self.restore_with(method, dir, |store| server.adopt_tenant(store))
    }

    fn restore_with(
        &self,
        method: Method,
        dir: impl AsRef<Path>,
        adopt: impl FnOnce(Arc<ShardedStore>) -> Arc<ShardedStore>,
    ) -> Result<ActiveRun, SnapshotError> {
        let loaded = load_store(dir.as_ref())?;
        let state = crate::recovery::decode_run_state(&loaded.meta)?;
        state.verify_fingerprint(
            self.seed,
            method,
            self.mode,
            self.config.rounds,
            self.config.num_participants,
            self.config.cohort_size,
            self.config.aggregation_edges,
        )?;
        let restored = Arc::new(loaded.store);
        // Deterministic rebuild of everything the checkpoint does not
        // carry (dataset, fleet, eval set, RNG chain); the freshly
        // initialized model is discarded in favor of the restored store.
        let mut active = self.start_with(method, move |_fresh| adopt(restored));
        if state.flux.len() != active.registry.len() || state.fmes.len() != active.registry.len() {
            return Err(SnapshotError::Mismatch(format!(
                "checkpoint profiles cover {} clients, run registers {}",
                state.flux.len(),
                active.registry.len()
            )));
        }
        // Overlay the persisted run state.
        active.clock = SimClock::from_elapsed_s(state.elapsed_s);
        active.phases = state.phases;
        for record in &state.records {
            active
                .tracker
                .record(record.round, record.elapsed_hours, record.score);
        }
        active.records = state.records;
        active.assigner = RoleAssigner::from_utilities(self.config.epsilon, state.utilities);
        active.flux_states = state
            .flux
            .into_iter()
            .map(|(profile, refreshes)| FluxState {
                profiler: StaleProfiler::from_parts(self.config.profiling, profile, refreshes),
            })
            .collect();
        active.fmes_profiles = state.fmes;
        active.pending = state.pending;
        active.next_round = state.next_round as usize;
        active.restored_aggregator = match state.aggregator {
            Some(bytes) => Some(decode_staged_aggregator(&bytes)?),
            None => None,
        };
        Ok(active)
    }

    /// Shared setup: synthesizes the dataset, partitions the fleet,
    /// initializes the global model into the store `register` provides, and
    /// returns the resumable run state positioned before round 0.
    fn start_with(
        &self,
        method: Method,
        register: impl FnOnce(MoeModel) -> Arc<ShardedStore>,
    ) -> ActiveRun {
        let cfg = &self.config;
        let root = SeededRng::new(self.seed);
        let mut data_rng = root.derive(1);
        let mut fleet_rng = root.derive(2);
        let mut model_rng = root.derive(3);
        let round_rng = root.derive(4);

        // Dataset and fleet.
        let model_config = match cfg.dataset_kind.num_classes() {
            Some(classes) => cfg.model_config.clone().with_classes(classes),
            None => cfg.model_config.clone(),
        };
        let data_config = DatasetConfig::for_kind(cfg.dataset_kind, model_config.vocab_size)
            .with_num_samples(cfg.num_samples);
        let dataset = DatasetGenerator::new(data_config).generate(&mut data_rng);
        let (train, test) = dataset.train_test_split(0.8);
        let eval_indices: Vec<usize> = (0..test.len().min(cfg.eval_samples)).collect();
        let eval_set = test.subset(&eval_indices);
        // The fleet registers as lightweight specs (shared corpus + index
        // shards + device profiles); only each round's cohort is ever
        // materialized.
        let mut registry = FleetSpec::build(
            Arc::new(train),
            cfg.num_participants,
            cfg.non_iid_alpha,
            &mut fleet_rng,
        );
        if let Some(link) = cfg.link {
            registry.override_link(link);
        }
        // Full participation is the K = N cohort; every run materializes
        // its cohort per round.
        let sampler = CohortSampler::new(
            cfg.num_participants,
            cfg.cohort_size.unwrap_or(cfg.num_participants),
            self.seed,
        );

        // Server-side state. Per-client profiling state is indexed by the
        // stable client id and spans the whole registry; only sampled
        // clients ever grow a profile.
        let global = MoeModel::new(model_config, &mut model_rng);
        let store = register(global);
        let flux_states: Vec<FluxState> = (0..registry.len())
            .map(|_| FluxState {
                profiler: StaleProfiler::new(cfg.profiling),
            })
            .collect();
        let fmes_profiles: Vec<Option<ActivationProfile>> = vec![None; registry.len()];
        ActiveRun {
            driver: self.clone(),
            method,
            registry,
            sampler,
            fleet: Vec::new(),
            eval_set,
            store,
            cost: CostModel::default(),
            clock: SimClock::new(),
            phases: PhaseTimes::default(),
            tracker: TimeToAccuracyTracker::new(cfg.metric()),
            assigner: RoleAssigner::new(cfg.epsilon),
            flux_states,
            fmes_profiles,
            records: Vec::new(),
            round_rng,
            pending: None,
            next_round: 0,
            computed: None,
            round_start_capture: None,
            restored_aggregator: None,
            cache_stats: Vec::new(),
        }
    }

    /// Dispatches one participant's local round for `method`.
    #[allow(clippy::too_many_arguments)]
    fn method_local_round(
        &self,
        method: Method,
        participant: &Participant,
        global: &MoeModel,
        cost: &CostModel,
        quant_cache: &QuantizedModelCache,
        round: usize,
        assigner: &RoleAssigner,
        state: &mut FluxState,
        fmes_profile: &mut Option<ActivationProfile>,
        round_rng: &SeededRng,
    ) -> ParticipantRound {
        let cfg = &self.config;
        let mut participant_rng = round_rng.derive((round * 1000 + participant.id) as u64);
        let reference_tokens = participant
            .tokens_per_round()
            .saturating_mul(cfg.reference_token_scale)
            .max(1);
        match method {
            Method::Fmd => ParticipantRound::plain(fmd_local_round(
                participant,
                global,
                cost,
                reference_tokens,
                cfg.learning_rate,
                cfg.batch_size,
            )),
            Method::Fmq => ParticipantRound::plain(fmq_local_round(
                participant,
                global,
                cost,
                quant_cache,
                reference_tokens,
                cfg.learning_rate,
                cfg.batch_size,
            )),
            Method::Fmes => {
                let profile =
                    fmes_profile.get_or_insert_with(|| global.profile(&participant.train_data));
                ParticipantRound::plain(fmes_local_round(
                    participant,
                    global,
                    profile,
                    cost,
                    reference_tokens,
                    cfg.learning_rate,
                    cfg.batch_size,
                ))
            }
            Method::Flux => self.flux_local_round(
                participant,
                global,
                cost,
                quant_cache,
                round,
                assigner,
                state,
                &mut participant_rng,
            ),
        }
    }

    /// One Flux participant round: stale profiling, role assignment,
    /// adaptive merging, local fine-tuning of exploitation experts, utility
    /// reporting and cost accounting.
    ///
    /// Runs against a *read-only* assigner so rounds can execute on worker
    /// threads; utility reports are returned for the driver to apply in
    /// participant-id order.
    #[allow(clippy::too_many_arguments)]
    fn flux_local_round(
        &self,
        participant: &Participant,
        global: &MoeModel,
        cost: &CostModel,
        quant_cache: &QuantizedModelCache,
        round: usize,
        assigner: &RoleAssigner,
        state: &mut FluxState,
        rng: &mut SeededRng,
    ) -> ParticipantRound {
        let cfg = &self.config;
        let config = &global.config;
        let device = &participant.device;
        let tokens = participant.tokens_per_round();
        let reference_tokens = tokens.saturating_mul(cfg.reference_token_scale).max(1);
        let width = participant.profile_width;

        // Profiling (§4): stale profiles come for free (they were refreshed
        // during the previous round's aggregation window); a cold start or
        // the non-stale ablation pays quantization + profiling on the
        // critical path.
        let mut profiling_s = 0.0;
        let profile = if cfg.profiling.stale {
            match state.profiler.stale_profile().cloned() {
                Some(stale) => {
                    state
                        .profiler
                        .refresh_cached(global, &participant.train_data, quant_cache);
                    stale
                }
                None => {
                    profiling_s += cost.quantize_time_s(device, config, width)
                        + cost.profile_time_s(device, config, reference_tokens, width);
                    state.profiler.refresh_blocking_cached(
                        global,
                        &participant.train_data,
                        quant_cache,
                    )
                }
            }
        } else {
            profiling_s += cost.quantize_time_s(device, config, width)
                + cost.profile_time_s(device, config, reference_tokens, width);
            state
                .profiler
                .refresh_blocking_cached(global, &participant.train_data, quant_cache)
        };

        // Bootstrap utilities from activation frequencies in the first
        // round. The bootstrap is used locally for this round's assignment
        // and handed back to the driver, which reports it to the shared
        // assigner before the refreshed utilities — the same order the
        // sequential protocol produced.
        let bootstrap_utilities: Option<Vec<ExpertUtility>> =
            if assigner.utilities_of(participant.id).is_none() {
                Some(initial_utilities(&profile))
            } else {
                None
            };

        // Role assignment (§6).
        let capacity = participant.expert_capacity(config);
        let tuning_budget = device
            .tuning_capacity(config, reference_tokens)
            .min(capacity);
        let non_tuning_budget = capacity.saturating_sub(tuning_budget).max(1);
        let all_keys = global.expert_keys();
        let assignment = match &bootstrap_utilities {
            Some(bootstrap) => {
                let table: HashMap<ExpertKey, ExpertUtility> =
                    bootstrap.iter().map(|u| (u.key, *u)).collect();
                assigner.assign_with_table(Some(&table), &all_keys, tuning_budget, round, rng)
            }
            None => assigner.assign(participant.id, &all_keys, tuning_budget, round, rng),
        };
        let tuning_set = assignment.tuning_set();

        // Adaptive merging (§5).
        let plan = CompactModelPlan::build(
            global,
            &profile,
            &tuning_set,
            non_tuning_budget,
            cfg.merging,
            rng,
        );
        let mut compact = plan.apply(global, &profile);
        let key_map = plan.tuning_key_map();

        // Data selection: train on the samples routed through the
        // exploitation experts (falling back to the full shard).
        let mut selected: BTreeSet<usize> = BTreeSet::new();
        for key in &assignment.exploitation {
            for &sample in profile.samples_of(*key) {
                selected.insert(sample);
            }
        }
        let train_samples: Vec<Sample> = if selected.is_empty() {
            participant.train_data.samples.clone()
        } else {
            selected
                .iter()
                .filter_map(|&i| participant.train_data.samples.get(i).cloned())
                .collect()
        };

        // Local fine-tuning of the exploitation experts.
        let exploitation_compact: HashSet<ExpertKey> = assignment
            .exploitation
            .iter()
            .filter_map(|k| key_map.get(k).copied())
            .collect();
        let (loss, last_grads) = local_train(
            &mut compact,
            &train_samples,
            Some(&exploitation_compact),
            cfg.learning_rate,
            cfg.batch_size,
        );

        // Utility refresh: true gradients for exploitation experts,
        // forward-only estimates for (a few) exploration experts.
        let mut utilities: Vec<ExpertUtility> = Vec::new();
        if let Some(grads) = &last_grads {
            for (compact_key, grad) in &grads.expert_grads {
                if let Some(original) = plan.original_of_compact(*compact_key) {
                    utilities.push(expert_utility(
                        original,
                        grad,
                        profile.samples_of(original).len(),
                    ));
                }
            }
        }
        let estimator = ForwardGradEstimator {
            sigma: 0.02,
            num_perturbations: 1,
            samples_per_eval: 1,
        };
        let explored = assignment.exploration.iter().take(4);
        let mut exploration_estimates = 0usize;
        for original in explored {
            if let Some(compact_key) = key_map.get(original) {
                // In-place estimation: the compact model's expert is
                // perturbed and restored exactly, so no per-expert model
                // clone is paid.
                let mut estimate = estimator.estimate_utility_in_place(
                    &mut compact,
                    *compact_key,
                    &train_samples,
                    profile.samples_of(*original).len(),
                    rng,
                );
                estimate.key = *original;
                utilities.push(estimate);
                exploration_estimates += 1;
            }
        }

        // Upload the exploitation experts' updated parameters.
        let weight = train_samples.len().max(1) as f32;
        let expert_updates: Vec<ExpertUpdate> = assignment
            .exploitation
            .iter()
            .filter_map(|original| {
                key_map.get(original).map(|compact_key| ExpertUpdate {
                    key: *original,
                    expert: compact.expert(*compact_key).clone(),
                    weight,
                })
            })
            .collect();
        let head = compact.active_head().clone();

        // Cost accounting.
        let train_tokens: usize = train_samples.iter().map(|s| s.tokens.len()).sum();
        let reference_train_tokens = train_tokens.saturating_mul(cfg.reference_token_scale);
        let non_tuning_total = config.total_experts().saturating_sub(tuning_set.len());
        let fused = matches!(
            cfg.merging.clustering,
            crate::merging::ClusteringMode::Fused
        );
        // Exploration gradient estimation: two forward passes per
        // perturbation over one reference-scale sample.
        let estimation_tokens = exploration_estimates
            * 2
            * estimator.num_perturbations
            * cfg.reference_token_scale
            * participant
                .train_data
                .samples
                .first()
                .map(|s| s.tokens.len())
                .unwrap_or(16);
        let breakdown = RoundCostBreakdown {
            profiling_s,
            merging_s: cost.merge_time_s(non_tuning_total, fused),
            assignment_s: cost.assignment_time_s(config.total_experts())
                + cost.forward_time_s(device, config, estimation_tokens, config.top_k),
            fine_tuning_s: cost.fine_tune_time_s(
                device,
                config,
                reference_train_tokens,
                assignment.exploitation.len().max(1),
                capacity,
            ),
            offloading_s: 0.0,
            communication_s: cost.communication_time_s(device, config, expert_updates.len().max(1)),
        };
        ParticipantRound {
            output: LocalRoundOutput {
                expert_updates,
                head_update: Some((head, weight)),
                train_loss: loss,
                trained_tokens: train_tokens,
                cost: breakdown,
            },
            bootstrap_utilities,
            reported_utilities: utilities,
            upload: None,
            upload_bytes_dense: 0,
            upload_bytes_encoded: 0,
        }
    }
}

/// Where a resumable run currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunPhase {
    /// The next call must be [`ActiveRun::start_round`] for this round.
    ReadyToStart {
        /// The round `start_round` will execute (0-based).
        round: usize,
    },
    /// A round's compute has finished; the next call must be
    /// [`ActiveRun::finish_round`].
    ReadyToFinish {
        /// The computed round awaiting its reduction/aggregation.
        round: usize,
    },
    /// Every round has been executed; [`ActiveRun::finish`] drains the
    /// pipeline and yields the [`RunResult`].
    Done,
}

/// The per-participant profile state as it stood at the top of
/// `start_round` — what a mid-round checkpoint must persist so a restored
/// run can replay the round's fan-out (which refreshes these profiles)
/// identically.
#[derive(Clone)]
struct RoundCapture {
    flux: Vec<(Option<ActivationProfile>, usize)>,
    fmes: Vec<Option<ActivationProfile>>,
}

/// A round whose participant fan-out has completed but whose reduction and
/// aggregation have not run yet (between `start_round` and `finish_round`).
struct ComputedRound {
    round: usize,
    aggregator: AggregationTree,
    results: Vec<TaskOut>,
    eval_of_pending: Option<EvalResult>,
    /// The round-start snapshot: the base encoded uploads decode against.
    snapshot: Arc<MoeModel>,
}

/// The resumable state of one federated run.
///
/// Produced by [`FederatedRun::start`] / [`FederatedRun::start_on`], it
/// owns everything a run accumulates across rounds (fleet, store handle,
/// clock, tracker, assigner state) and advances one round at a time:
///
/// ```text
/// ReadyToStart(r) --start_round--> ReadyToFinish(r) --finish_round--> ReadyToStart(r+1) | Done
/// ```
///
/// `start_round` performs the round's participant fan-out on the given
/// worker pool (plus the overlapped evaluation of the previous round in
/// pipelined mode); `finish_round` applies the participant-id-ordered
/// reduction and the sharded aggregation. Splitting the loop this way lets
/// the [`crate::scheduler::Scheduler`] interleave rounds from many runs on
/// one pool; a run stepped to completion produces results bit-identical to
/// [`FederatedRun::run`] executed alone, whatever is interleaved between
/// its rounds — every source of state is owned by the run or keyed by its
/// tenant store.
pub struct ActiveRun {
    driver: FederatedRun,
    method: Method,
    /// The registered client fleet as lightweight specs (corpus indices +
    /// device profile); participants materialize from here.
    registry: FleetSpec,
    /// The per-round seeded cohort sampler (K = N under full
    /// participation).
    sampler: CohortSampler,
    /// The participants active in the current (or most recent) round,
    /// replaced by each round's freshly materialized cohort, so heavy
    /// participant state stays O(cohort).
    fleet: Vec<Participant>,
    eval_set: Dataset,
    store: Arc<ShardedStore>,
    cost: CostModel,
    clock: SimClock,
    phases: PhaseTimes,
    tracker: TimeToAccuracyTracker,
    assigner: RoleAssigner,
    flux_states: Vec<FluxState>,
    fmes_profiles: Vec<Option<ActivationProfile>>,
    records: Vec<RoundRecord>,
    round_rng: SeededRng,
    pending: Option<PendingRound>,
    next_round: usize,
    computed: Option<ComputedRound>,
    /// Profile state at the top of the in-flight round (mid-round
    /// checkpoints persist this instead of the already-refreshed live
    /// state).
    round_start_capture: Option<RoundCapture>,
    /// A staged aggregator recovered from a mid-round checkpoint; the next
    /// `start_round` resumes it (as the tree's root) instead of opening a
    /// fresh one.
    restored_aggregator: Option<ShardedAggregator>,
    /// Per-round `(hits, misses)` of the round-scoped
    /// [`QuantizedModelCache`]: misses count actual quantizations, so each
    /// entry proves the cache was fresh that round and deduplicated within
    /// it.
    cache_stats: Vec<(usize, usize)>,
}

impl ActiveRun {
    /// The method this run executes.
    pub fn method(&self) -> Method {
        self.method
    }

    /// The tenant store holding this run's global model.
    pub fn store(&self) -> &Arc<ShardedStore> {
        &self.store
    }

    /// Number of registered clients (the sampling universe).
    pub fn registered_clients(&self) -> usize {
        self.registry.len()
    }

    /// Number of participants materialized for the current (or most
    /// recent) round: the cohort size, which is the whole fleet under full
    /// participation (zero before round 0 in every run).
    pub fn active_participants(&self) -> usize {
        self.fleet.len()
    }

    /// The stable client ids round `round` dispatches (every registered
    /// client under full participation).
    pub fn cohort_of(&self, round: usize) -> Vec<usize> {
        self.sampler.cohort(round)
    }

    /// Per-round `(hits, misses)` of the round-scoped quantized-model
    /// cache, one entry per `start_round` executed so far. Misses count
    /// actual quantizations: within a round each bit width quantizes once
    /// (then hits), and a fresh cache per round means refreshed global
    /// weights are never profiled through a stale quantized copy.
    pub fn quant_cache_stats(&self) -> &[(usize, usize)] {
        &self.cache_stats
    }

    /// Writes a durable checkpoint of this run into `dir`: the store's
    /// versioned per-shard snapshot (dirty shards only after the first
    /// write) plus the run state needed to resume — round index, clock,
    /// per-round records, assigner utilities, profiling pipelines, and,
    /// mid-round, the staged aggregator with the set of participants
    /// already reduced into it.
    ///
    /// Valid at any [`RunPhase`]. A checkpoint taken between `start_round`
    /// and `finish_round` persists the *top-of-round* state: on restore
    /// the round's fan-out replays deterministically, the restored
    /// aggregator rejects duplicate re-submissions of already-staged pids,
    /// and the run continues to results bit-identical to an uninterrupted
    /// one.
    ///
    /// # Errors
    ///
    /// Fails only on I/O errors; a partially written file never replaces a
    /// previous good checkpoint (temp-file + atomic rename, manifest
    /// last).
    pub fn checkpoint(&self, dir: impl AsRef<Path>) -> Result<CheckpointStats, SnapshotError> {
        let (flux, fmes, staged) = match (&self.computed, &self.round_start_capture) {
            // Mid-round: persist the top-of-round profile view plus the
            // staged aggregator (edges flattened into one non-draining
            // merged view — collapse is result-transparent, so restore can
            // rebuild a flat root whatever tree shape staged the uploads);
            // restore replays the fan-out.
            (Some(computed), Some(capture)) => (
                capture.flux.clone(),
                capture.fmes.clone(),
                Some(encode_staged_aggregator(
                    &computed.aggregator.merged_snapshot(),
                )),
            ),
            (Some(_), None) => unreachable!("start_round always captures before computing"),
            // Round boundary: live state; an aggregator restored but not
            // yet resumed rides along unchanged.
            (None, _) => (
                self.flux_states
                    .iter()
                    .map(|s| (s.profiler.stale_profile().cloned(), s.profiler.refreshes()))
                    .collect(),
                self.fmes_profiles.clone(),
                self.restored_aggregator
                    .as_ref()
                    .map(encode_staged_aggregator),
            ),
        };
        let meta = crate::recovery::encode_run_state(&crate::recovery::RunState {
            seed: self.driver.seed,
            method: self.method,
            mode: self.driver.mode,
            rounds: self.driver.config.rounds as u32,
            participants: self.driver.config.num_participants as u32,
            cohort_size: self.driver.config.cohort_size.map(|k| k as u32),
            aggregation_edges: self.driver.config.aggregation_edges.max(1) as u32,
            next_round: self.next_round as u32,
            elapsed_s: self.clock.elapsed_s(),
            phases: self.phases,
            records: self.records.clone(),
            pending: self.pending.clone(),
            utilities: self.assigner.export_utilities(),
            flux,
            fmes,
            aggregator: staged,
        });
        self.store.checkpoint(dir.as_ref(), &meta)
    }

    /// Where the run currently stands.
    pub fn poll(&self) -> RunPhase {
        if let Some(computed) = &self.computed {
            RunPhase::ReadyToFinish {
                round: computed.round,
            }
        } else if self.next_round < self.driver.config.rounds {
            RunPhase::ReadyToStart {
                round: self.next_round,
            }
        } else {
            RunPhase::Done
        }
    }

    /// Whether every round has been executed (the pipeline may still hold
    /// one pending evaluation, which [`ActiveRun::finish`] drains).
    pub fn is_done(&self) -> bool {
        self.poll() == RunPhase::Done
    }

    /// Convenience: `start_round` + `finish_round`.
    pub fn step_round(&mut self, pool: &ThreadPool) {
        self.start_round(pool);
        self.finish_round(pool);
    }

    /// Executes the next round's participant fan-out on `pool`.
    ///
    /// Every participant (and, in pipelined mode, the overlapped evaluation
    /// of the previous round) reads the same store snapshot; no store lock
    /// is held while they compute. Uploads stream into the round's
    /// aggregator the moment each participant finishes.
    ///
    /// # Panics
    ///
    /// Panics when the run is not in [`RunPhase::ReadyToStart`].
    pub fn start_round(&mut self, pool: &ThreadPool) {
        assert!(
            self.computed.is_none(),
            "finish_round must close the previous round first"
        );
        let round = self.next_round;
        assert!(
            round < self.driver.config.rounds,
            "run already executed every round"
        );
        // Capture the only state the fan-out mutates (the stale-profiling
        // pipelines), so a checkpoint taken mid-round can persist the
        // top-of-round view and replay the fan-out identically on restore.
        self.round_start_capture = Some(RoundCapture {
            flux: self
                .flux_states
                .iter()
                .map(|s| (s.profiler.stale_profile().cloned(), s.profiler.refreshes()))
                .collect(),
            fmes: self.fmes_profiles.clone(),
        });
        // Materialize only this round's K sampled clients (replacing the
        // previous cohort, so heavy participant state stays O(K)). The
        // sampler is a pure function of (seed, round), so a restored run
        // re-derives the identical cohort.
        self.fleet = self
            .sampler
            .cohort(round)
            .iter()
            .map(|&id| self.registry.materialize(id))
            .collect();
        // Lift the active participants' profiling state out of the
        // registry-indexed arrays for the fan-out (cheap moves; blanks hold
        // the seats), and put it back below.
        let profiling_cfg = self.driver.config.profiling;
        let mut active_flux: Vec<FluxState> = self
            .fleet
            .iter()
            .map(|p| {
                std::mem::replace(
                    &mut self.flux_states[p.id],
                    FluxState {
                        profiler: StaleProfiler::new(profiling_cfg),
                    },
                )
            })
            .collect();
        let mut active_fmes: Vec<Option<ActivationProfile>> = self
            .fleet
            .iter()
            .map(|p| self.fmes_profiles[p.id].take())
            .collect();
        let driver = &self.driver;
        let method = self.method;
        let pipelined = driver.mode == ExecutionMode::Pipelined;
        // A mid-round restore resumes the staged aggregator recovered from
        // the checkpoint as the tree's root; its already-staged pids reject
        // this fan-out's duplicate re-submissions at whatever edge they
        // route through.
        let root = self
            .restored_aggregator
            .take()
            .unwrap_or_else(|| self.store.begin_round());
        let aggregator = AggregationTree::new(root, driver.config.aggregation_edges);
        // Uploads stream into the aggregator the moment each participant
        // finishes — unless the arrival shuffle knob is on, in which case
        // they are replayed in a seeded order during finish_round (either
        // way the aggregator's pid-ordered finalize makes arrival order
        // unobservable), or the delivery layer is active, which decides
        // per upload what arrives at all.
        let submit_on_completion = driver.arrival_seed.is_none() && !driver.faults_active();

        // One materialized snapshot per round: participants and the
        // overlapped evaluation share it through the `Arc`, so aggregation
        // of *other* tenants (and this tenant's later install) proceeds
        // without waiting for any reader.
        let global = self.store.snapshot();
        // One quantized profiling copy per bit width per round, shared by
        // every participant of this round's fan-out.
        let quant_cache = QuantizedModelCache::new();
        let (mut results, eval_of_pending) = {
            let global_ref: &MoeModel = &global;
            let aggregator_ref = &aggregator;
            let quant_cache_ref = &quant_cache;
            let round_rng = &self.round_rng;
            let assigner_ref = &self.assigner;
            let cost_ref = &self.cost;
            let eval_set_ref = &self.eval_set;
            let mut tasks: Vec<Box<dyn FnOnce() -> TaskOut + Send + '_>> = Vec::new();
            for ((participant, state), fmes_profile) in self
                .fleet
                .iter()
                .zip(active_flux.iter_mut())
                .zip(active_fmes.iter_mut())
            {
                let behavior = driver
                    .behaviors
                    .get(&participant.id)
                    .copied()
                    .unwrap_or_default();
                if behavior.is_dropped(round) {
                    tasks.push(Box::new(|| TaskOut::Dropped));
                    continue;
                }
                tasks.push(Box::new(move || {
                    let mut result = driver.method_local_round(
                        method,
                        participant,
                        global_ref,
                        cost_ref,
                        quant_cache_ref,
                        round,
                        assigner_ref,
                        state,
                        fmes_profile,
                        round_rng,
                    );
                    // Put the upload into its wire form on the worker:
                    // encoding is participant-side compute. Byte accounting
                    // always runs; the dense path otherwise stays exactly
                    // the legacy payload.
                    let compression = driver.config.compression;
                    let (updates, head) = result.output.take_upload();
                    result.upload_bytes_dense = dense_upload_payload_bytes(&updates, head.as_ref());
                    let upload = if compression.is_dense() {
                        result.upload_bytes_encoded = result.upload_bytes_dense;
                        RoundUpload::Dense(updates, head)
                    } else {
                        let encoded =
                            EncodedUpload::encode(&updates, head.as_ref(), global_ref, compression);
                        result.upload_bytes_encoded = encoded.encoded_bytes();
                        // Re-price communication from real payload bytes:
                        // the upload ships at the encoded/dense ratio of
                        // the reference-scale dense payload, the download
                        // of refreshed experts stays dense.
                        let dense_ref =
                            CostModel::dense_upload_bytes(&global_ref.config, updates.len().max(1));
                        let ratio = if result.upload_bytes_dense > 0 {
                            result.upload_bytes_encoded as f64 / result.upload_bytes_dense as f64
                        } else {
                            1.0
                        };
                        result.output.cost.communication_s = cost_ref.communication_time_s_bytes(
                            &participant.device,
                            dense_ref * ratio,
                            dense_ref,
                        );
                        RoundUpload::Encoded(encoded)
                    };
                    // A straggler computes the same result, it just
                    // reaches the server late.
                    let delay = behavior.delay_ms();
                    if delay > 0 {
                        std::thread::sleep(std::time::Duration::from_millis(delay));
                    }
                    if submit_on_completion {
                        submit_upload(aggregator_ref, participant.id, upload, global_ref);
                    } else {
                        result.upload = Some(upload);
                    }
                    TaskOut::Participant(Box::new(result))
                }));
            }
            // The pipelined server tail: evaluate the *previous* round's
            // aggregated model (this round's snapshot) while this round's
            // participants compute.
            let evaluating_pending = pipelined && self.pending.is_some();
            if evaluating_pending {
                tasks.push(Box::new(move || {
                    TaskOut::Eval(global_ref.evaluate(eval_set_ref))
                }));
            }
            let mut results = pool.run(tasks);
            let eval = if evaluating_pending {
                match results.pop() {
                    Some(TaskOut::Eval(eval)) => Some(eval),
                    _ => unreachable!("eval task is always submitted last"),
                }
            } else {
                None
            };
            (results, eval)
        };
        // Seat the active participants' (now refreshed) profiling state
        // back into the registry-indexed arrays.
        for ((participant, state), fmes) in self.fleet.iter().zip(active_flux).zip(active_fmes) {
            self.flux_states[participant.id] = state;
            self.fmes_profiles[participant.id] = fmes;
        }
        // The round-scoped quantization cache dies here; record its hit/miss
        // ledger so tests can pin "one quantization per bit width per
        // round, never reused across rounds".
        self.cache_stats.push(quant_cache.stats());
        // Keep slot order aligned with the fleet for the ordered
        // reduction (the eval slot was popped above).
        debug_assert_eq!(results.len(), self.fleet.len());
        results.shrink_to_fit();
        self.computed = Some(ComputedRound {
            round,
            aggregator,
            results,
            eval_of_pending,
            snapshot: global,
        });
    }

    /// Closes the computed round: applies utility reports and the
    /// participant-id-ordered reduction, collapses the round's aggregator
    /// into the tenant store (per-shard locks only), advances the simulated
    /// clock, and records the round (immediately when barriered; one round
    /// later when pipelined, as the evaluation overlaps the next dispatch).
    ///
    /// # Panics
    ///
    /// Panics when the run is not in [`RunPhase::ReadyToFinish`].
    pub fn finish_round(&mut self, pool: &ThreadPool) {
        let ComputedRound {
            round,
            aggregator,
            mut results,
            eval_of_pending,
            snapshot,
        } = self
            .computed
            .take()
            .expect("start_round must compute a round first");
        let cfg = &self.driver.config;
        let pipelined = self.driver.mode == ExecutionMode::Pipelined;
        let faults_active = self.driver.faults_active();

        // The previous round's record completes as soon as its overlapped
        // evaluation lands (order is preserved: one round is in flight at
        // a time).
        if let Some(previous) = self.pending.take() {
            let eval = eval_of_pending.expect("pipelined rounds evaluate their predecessor");
            self.tracker
                .record(previous.round, previous.elapsed_hours, eval.score);
            self.records.push(previous.finish(eval.score));
        }

        // The delivery layer: under faults every upload was retained, and
        // the simulation decides which of them reach the aggregator (and
        // what the retries cost), purely from the seeds.
        let (delivery_slots, round_faults) = if faults_active {
            let delivery = simulate_deliveries(
                &self.driver,
                round,
                &aggregator,
                &self.fleet,
                &mut results,
                &snapshot,
            );
            (Some(delivery.slots), delivery.faults)
        } else {
            (None, RoundFaults::default())
        };

        // Ordered reduction: participant-id order, same as the old
        // sequential loop, regardless of completion order.
        let mut reduction = RoundReduction::default();
        for (slot, (participant, task_out)) in self.fleet.iter().zip(results.iter_mut()).enumerate()
        {
            let result = match task_out {
                TaskOut::Participant(result) => result,
                TaskOut::Dropped => continue,
                TaskOut::Eval(_) => unreachable!("eval result was popped in start_round"),
            };
            // Under faults, an upload that never landed excludes its
            // participant from the round entirely — no utility reports, no
            // loss/token/byte contribution — exactly like a dropout.
            let extra_comm_s = match &delivery_slots {
                Some(slots) => match &slots[slot] {
                    Some(delivered) if delivered.delivered => delivered.extra_comm_s,
                    _ => continue,
                },
                None => 0.0,
            };
            if let Some(bootstrap) = &result.bootstrap_utilities {
                self.assigner.report_utilities(participant.id, bootstrap);
            }
            if !result.reported_utilities.is_empty() {
                self.assigner
                    .report_utilities(participant.id, &result.reported_utilities);
            }
            let out = &result.output;
            reduction.loss_sum += out.train_loss;
            reduction.active += 1;
            reduction.tokens_trained += out.trained_tokens;
            reduction.upload_bytes_dense += result.upload_bytes_dense;
            reduction.upload_bytes_compressed += result.upload_bytes_encoded;
            let mut cost = out.cost;
            cost.communication_s += extra_comm_s;
            if cost.total_s() > reduction.critical.total_s() {
                reduction.critical = cost;
            }
        }

        if let Some(seed) = self.driver.arrival_seed {
            // Replay the retained uploads in a seeded-shuffled participant
            // order: a deterministic stand-in for the scheduler's arbitrary
            // completion order. Under faults the delivery layer has already
            // taken every upload, so nothing is left to replay.
            submit_shuffled(&aggregator, &self.fleet, results, round, seed, &snapshot);
        }
        // Whatever the schedule, tree shape or fault draws, the root's
        // pid-ordered finalize reduces what was staged to the same bits.
        self.store.apply_round(aggregator.collapse(), pool);

        let critical = reduction.critical;
        // Every round but the last hides the aggregation latency behind
        // the next round's dispatch when pipelined: the next round starts
        // immediately, but this round's aggregated model (and hence its
        // evaluation score) only exists AGGREGATION_S into that window.
        // The score timestamp must include that tail even though the
        // dispatch does not wait for it — otherwise the time-to-accuracy
        // tracker would credit scores before the aggregated model could
        // physically be available.
        let overlapped = pipelined && round + 1 < cfg.rounds;
        let round_seconds =
            self.clock
                .advance_round_s(critical.total_s(), AGGREGATION_S, overlapped);
        self.phases.accumulate(&critical);
        let hidden_tail_hours = if overlapped {
            AGGREGATION_S / 3600.0
        } else {
            0.0
        };
        let this_round = PendingRound {
            round,
            elapsed_hours: self.clock.elapsed_hours() + hidden_tail_hours,
            train_loss: reduction.loss_sum / reduction.active.max(1) as f32,
            round_seconds,
            tokens_trained: reduction.tokens_trained,
            upload_bytes_dense: reduction.upload_bytes_dense,
            upload_bytes_compressed: reduction.upload_bytes_compressed,
            breakdown: critical,
            faults: round_faults,
        };
        // The round is closed: the next checkpoint is a round boundary
        // again. The scratch arena trims back to its steady-state
        // high-water mark here so a one-off wide round (e.g. a fault
        // replay decoding every retained upload) does not pin its peak
        // footprint for the rest of the run. The arena is thread-local;
        // worker threads converge on their own high-water via depth-0
        // coalescing, so only the driver thread needs the explicit reset.
        flux_tensor::scratch::reset_round();
        self.round_start_capture = None;
        if pipelined {
            self.pending = Some(this_round);
        } else {
            let eval = self.store.with_global(|m| m.evaluate(&self.eval_set));
            self.tracker
                .record(this_round.round, this_round.elapsed_hours, eval.score);
            self.records.push(this_round.finish(eval.score));
        }
        self.next_round = round + 1;
    }

    /// Drains the pipeline (the final round's evaluation has nothing to
    /// overlap with) and yields the run's result.
    ///
    /// # Panics
    ///
    /// Panics when rounds remain; poll until [`RunPhase::Done`] first.
    pub fn finish(mut self) -> RunResult {
        assert!(self.is_done(), "finish called before every round executed");
        if let Some(last) = self.pending.take() {
            let eval = self.store.with_global(|m| m.evaluate(&self.eval_set));
            self.tracker
                .record(last.round, last.elapsed_hours, eval.score);
            self.records.push(last.finish(eval.score));
        }
        let final_score = self.records.last().map(|r| r.score).unwrap_or(0.0);
        let upload_bytes_dense = self.records.iter().map(|r| r.upload_bytes_dense).sum();
        let upload_bytes_compressed = self.records.iter().map(|r| r.upload_bytes_compressed).sum();
        RunResult {
            method: self.method,
            tracker: self.tracker,
            rounds: self.records,
            phase_times: self.phases,
            final_score,
            upload_bytes_dense,
            upload_bytes_compressed,
            final_model: self.store.global_model(),
        }
    }
}

/// Submits the uploads retained by the arrival-shuffle knob in a
/// seeded-permuted participant order.
fn submit_shuffled(
    aggregator: &AggregationTree,
    fleet: &[Participant],
    results: Vec<TaskOut>,
    round: usize,
    seed: u64,
    base: &MoeModel,
) {
    let mut uploads: Vec<(usize, RoundUpload)> = fleet
        .iter()
        .zip(results)
        .filter_map(|(participant, task_out)| match task_out {
            TaskOut::Participant(mut result) => {
                result.upload.take().map(|upload| (participant.id, upload))
            }
            _ => None,
        })
        .collect();
    // Shuffle with the knob's own RNG family, keyed by round so every
    // round sees a different arrival order.
    let mut shuffle_rng = SeededRng::new(seed).derive(round as u64 + 1);
    shuffle_rng.shuffle(&mut uploads);
    for (pid, upload) in uploads {
        submit_upload(aggregator, pid, upload, base);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> RunConfig {
        RunConfig::quick_demo(MoeConfig::tiny(), DatasetKind::Gsm8k)
    }

    #[test]
    fn flux_run_produces_records_and_advancing_clock() {
        let result = FederatedRun::new(quick_config(), 7).run(Method::Flux);
        assert_eq!(result.rounds.len(), 3);
        assert!(result.rounds[0].elapsed_hours > 0.0);
        assert!(result.rounds[2].elapsed_hours > result.rounds[0].elapsed_hours);
        assert_eq!(result.tracker.points().len(), 3);
        assert!(result.phase_times.total_s() > 0.0);
    }

    #[test]
    fn all_methods_complete_a_quick_run() {
        let run = FederatedRun::new(quick_config(), 11);
        for method in Method::all() {
            let result = run.run(method);
            assert_eq!(result.method, method);
            assert_eq!(result.rounds.len(), 3);
            assert!(result.final_score >= 0.0);
            assert!(result.rounds.iter().all(|r| r.round_seconds > 0.0));
        }
    }

    #[test]
    fn flux_rounds_are_cheaper_than_fmd_rounds() {
        let run = FederatedRun::new(quick_config(), 13);
        let flux = run.run(Method::Flux);
        let fmd = run.run(Method::Fmd);
        let flux_round = flux.rounds.iter().map(|r| r.round_seconds).sum::<f64>();
        let fmd_round = fmd.rounds.iter().map(|r| r.round_seconds).sum::<f64>();
        assert!(
            flux_round < fmd_round,
            "Flux total round time {flux_round} should undercut FMD {fmd_round}"
        );
    }

    #[test]
    fn run_is_deterministic_given_seed() {
        let a = FederatedRun::new(quick_config(), 17).run(Method::Flux);
        let b = FederatedRun::new(quick_config(), 17).run(Method::Flux);
        for (x, y) in a.rounds.iter().zip(b.rounds.iter()) {
            assert_eq!(x.score, y.score);
            assert_eq!(x.round_seconds, y.round_seconds);
        }
    }

    #[test]
    fn run_is_bit_identical_across_thread_counts() {
        // The parallel round fan-out must never change results: worker
        // outputs are reduced in participant-id order (and the sharded
        // aggregator reduces its shards in participant-id order), so one
        // thread and four threads produce bit-identical records for every
        // method under the default pipelined schedule.
        //
        // Local training inside each round runs the *batched*
        // multi-sample path, whose per-expert GEMM fan-out sizes its own
        // pool from FLUX_THREADS — CI re-runs this test under
        // FLUX_THREADS=1, =4 and =8, so the batched path is pinned
        // bit-identical across expert-pool widths too.
        for method in Method::all() {
            let sequential = FederatedRun::new(quick_config(), 17)
                .with_threads(1)
                .run(method);
            let threaded = FederatedRun::new(quick_config(), 17)
                .with_threads(4)
                .run(method);
            assert_eq!(
                sequential.rounds,
                threaded.rounds,
                "{} rounds diverged across thread counts",
                method.label()
            );
            assert_eq!(sequential.final_score, threaded.final_score);
            assert_eq!(
                sequential.tracker.points(),
                threaded.tracker.points(),
                "{} tracker diverged across thread counts",
                method.label()
            );
        }
    }

    #[test]
    fn pipelined_matches_barriered_losses_scores_and_weights() {
        // The async pipeline must be observationally identical to the
        // fork-join reference: same per-round losses and scores, same
        // final weights — only the simulated timeline may differ (the
        // pipeline hides non-final aggregation tails).
        let barriered = FederatedRun::new(quick_config(), 29)
            .with_mode(ExecutionMode::Barriered)
            .run(Method::Flux);
        let pipelined = FederatedRun::new(quick_config(), 29)
            .with_mode(ExecutionMode::Pipelined)
            .run(Method::Flux);
        assert_eq!(barriered.rounds.len(), pipelined.rounds.len());
        for (b, p) in barriered.rounds.iter().zip(pipelined.rounds.iter()) {
            assert_eq!(b.score, p.score, "round {} score diverged", b.round);
            assert_eq!(
                b.train_loss, p.train_loss,
                "round {} loss diverged",
                b.round
            );
            assert_eq!(b.tokens_trained, p.tokens_trained);
            assert_eq!(b.breakdown, p.breakdown);
        }
        assert_eq!(barriered.final_model.lm_head, pipelined.final_model.lm_head);
        for key in barriered.final_model.expert_keys() {
            assert_eq!(
                barriered.final_model.expert(key),
                pipelined.final_model.expert(key),
                "{key:?} diverged between schedules"
            );
        }
        // The pipeline hides 1 s of aggregation behind each of the first
        // rounds-1 dispatches.
        let b_total: f64 = barriered.rounds.iter().map(|r| r.round_seconds).sum();
        let p_total: f64 = pipelined.rounds.iter().map(|r| r.round_seconds).sum();
        assert!(
            (b_total - p_total - 2.0 * AGGREGATION_S).abs() < 1e-9,
            "pipeline should hide exactly {} s, barriered={b_total} pipelined={p_total}",
            2.0 * AGGREGATION_S
        );
    }

    #[test]
    fn shuffled_arrival_orders_do_not_change_results() {
        for mode in [ExecutionMode::Pipelined, ExecutionMode::Barriered] {
            let run = FederatedRun::new(quick_config(), 31).with_mode(mode);
            let reference = run.run(Method::Flux);
            for arrival_seed in [1u64, 2, 3] {
                let shuffled = run
                    .clone()
                    .with_shuffled_arrivals(arrival_seed)
                    .run(Method::Flux);
                assert_eq!(
                    reference.rounds, shuffled.rounds,
                    "{mode:?}: arrival seed {arrival_seed} changed the rounds"
                );
                assert_eq!(reference.final_model.lm_head, shuffled.final_model.lm_head);
            }
        }
    }

    #[test]
    fn method_labels() {
        assert_eq!(Method::Flux.label(), "FLUX");
        assert_eq!(Method::all().len(), 4);
    }

    #[test]
    fn cohort_sampling_dispatches_k_of_n_and_is_deterministic() {
        let config = quick_config().with_participants(12).with_cohort(3);
        let pool = ThreadPool::new(2);
        let mut active = FederatedRun::new(config.clone(), 19).start(Method::Flux);
        assert_eq!(active.registered_clients(), 12);
        assert_eq!(active.active_participants(), 0, "no one materialized yet");
        let mut cohorts = Vec::new();
        while !active.is_done() {
            let RunPhase::ReadyToStart { round } = active.poll() else {
                panic!("expected a startable round");
            };
            cohorts.push(active.cohort_of(round));
            active.step_round(&pool);
            assert_eq!(active.active_participants(), 3);
        }
        let result = active.finish();
        assert_eq!(result.rounds.len(), 3);
        // Cohorts are sorted stable ids and vary across rounds.
        for cohort in &cohorts {
            assert_eq!(cohort.len(), 3);
            assert!(cohort.windows(2).all(|w| w[0] < w[1]));
            assert!(cohort.iter().all(|&id| id < 12));
        }
        assert!(cohorts.windows(2).any(|w| w[0] != w[1]));
        // Same seed, same everything.
        let again = FederatedRun::new(config, 19).run(Method::Flux);
        assert_eq!(result.rounds, again.rounds);
        assert_eq!(result.final_model.lm_head, again.final_model.lm_head);
    }

    #[test]
    fn full_participation_is_the_k_equals_n_cohort() {
        // `None`, an explicit K = N and an oversized K (clamped to N) all
        // dispatch the same everyone-in-id-order cohort, so every method
        // produces the same records and model, with and without faults.
        let n = 6;
        let clean = quick_config().with_participants(n);
        let faulty = clean
            .clone()
            .with_fault_plan(FaultPlan::new(9).with_crashes(0.2));
        for base in [clean, faulty] {
            for method in Method::all() {
                let reference = FederatedRun::new(base.clone(), 41).run(method);
                for k in [n, n + 5] {
                    let sampled = FederatedRun::new(base.clone().with_cohort(k), 41).run(method);
                    assert_eq!(reference.rounds, sampled.rounds, "{method:?}, K = {k}");
                    assert_eq!(
                        reference.final_model.param_checksum(),
                        sampled.final_model.param_checksum(),
                        "{method:?}, K = {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn sampled_runs_are_bit_identical_across_thread_counts_and_schedules() {
        let config = quick_config().with_participants(10).with_cohort(4);
        let reference = FederatedRun::new(config.clone(), 23)
            .with_threads(1)
            .run(Method::Flux);
        let threaded = FederatedRun::new(config.clone(), 23)
            .with_threads(4)
            .run(Method::Flux);
        assert_eq!(reference.rounds, threaded.rounds);
        let barriered = FederatedRun::new(config, 23)
            .with_mode(ExecutionMode::Barriered)
            .run(Method::Flux);
        for (p, b) in reference.rounds.iter().zip(barriered.rounds.iter()) {
            assert_eq!(p.score, b.score, "round {} diverged", p.round);
            assert_eq!(p.train_loss, b.train_loss);
        }
        assert_eq!(reference.final_model.lm_head, barriered.final_model.lm_head);
    }

    #[test]
    fn aggregation_tree_matches_flat_reduction_bit_for_bit() {
        for edges in [2usize, 3, 5] {
            let flat = FederatedRun::new(quick_config(), 37).run(Method::Flux);
            let tree = FederatedRun::new(quick_config().with_aggregation_edges(edges), 37)
                .run(Method::Flux);
            assert_eq!(flat.rounds, tree.rounds, "{edges} edges diverged");
            assert_eq!(flat.final_model.lm_head, tree.final_model.lm_head);
            for key in flat.final_model.expert_keys() {
                assert_eq!(
                    flat.final_model.expert(key),
                    tree.final_model.expert(key),
                    "{key:?} diverged under {edges} edges"
                );
            }
            // Barriered routes through the same tree and must agree too.
            let barriered = FederatedRun::new(quick_config().with_aggregation_edges(edges), 37)
                .with_mode(ExecutionMode::Barriered)
                .run(Method::Flux);
            assert_eq!(flat.final_model.lm_head, barriered.final_model.lm_head);
        }
    }

    #[test]
    fn quantized_cache_is_fresh_per_round_and_deduplicated_within_it() {
        // Every Flux participant profiles through the round's shared cache
        // at the configured width, so each round must quantize exactly once
        // (one distinct width) and serve every other request from memory.
        // A nonzero miss count in *every* round is the regression guard
        // against reusing a cache (and thus a stale quantized model) across
        // rounds.
        let config = quick_config().with_participants(6);
        let pool = ThreadPool::new(2);
        let mut active = FederatedRun::new(config, 41).start(Method::Flux);
        while !active.is_done() {
            active.step_round(&pool);
        }
        let stats = active.quant_cache_stats().to_vec();
        assert_eq!(stats.len(), 3, "one ledger entry per round");
        for (round, &(hits, misses)) in stats.iter().enumerate() {
            assert_eq!(
                misses, 1,
                "round {round} must quantize exactly once per bit width"
            );
            assert_eq!(
                hits + misses,
                6,
                "round {round}: every participant profiles through the cache"
            );
        }
    }

    #[test]
    fn run_config_metric_uses_dataset_target_by_default() {
        let cfg = RunConfig {
            target_score: None,
            ..quick_config()
        };
        assert_eq!(cfg.metric().target(), DatasetKind::Gsm8k.target_score());
        let with_target = quick_config().with_target(0.33);
        assert!((with_target.metric().target() - 0.33).abs() < 1e-6);
    }

    #[test]
    fn time_to_score_and_best_score() {
        let result = FederatedRun::new(quick_config(), 23).run(Method::Flux);
        let best = result.best_score();
        assert!(result.time_to_score(best).is_some());
        assert!(result.time_to_score(best + 1.0).is_none());
    }
}
