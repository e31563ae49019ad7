//! Serial replay of one round's layers through their public functions.
//!
//! The traced run calls this between rounds, on the round-start snapshot
//! the run itself used, with the run's config and the data its seed
//! generates. Each call is wrapped in a span named after the layer it
//! exercises, so the traced run can attribute round time to `tensor`,
//! `quant`, `moe`, `data`, `fl` and `core` without instrumenting the
//! program. The replay never touches the run's own state.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use flux_core::assignment::{initial_utilities, ExpertUtility, ForwardGradEstimator};
use flux_core::driver::{Method, RunConfig};
use flux_core::{CompactModelPlan, QuantizedModelCache, RoleAssigner, StaleProfiler};
use flux_data::{Dataset, DatasetConfig, DatasetGenerator, Sample};
use flux_fl::{
    AggregationTree, EncodedUpload, ExpertUpdate, FleetSpec, Participant, ShardedStore,
    DEFAULT_SHARDS,
};
use flux_moe::{ExpertKey, MoeModel};
use flux_tensor::{scratch, Matrix, SeededRng};
use threadpool::ThreadPool;

use crate::trace::Tracer;

/// GEMM repetitions per hot shape and traced repetition.
const GEMM_ITERS: usize = 50;

/// Exact counts the replay accumulates (no timing noise).
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    pub tokens_trained: usize,
    pub gemm_flops: u64,
    pub gemm_ns: u64,
    pub arena_hits: u64,
    pub arena_misses: u64,
    pub arena_high_water_bytes: usize,
    pub dense_bytes: usize,
    pub encoded_bytes: usize,
    pub compact_experts: usize,
    pub merge_plans: usize,
}

impl Counters {
    /// Sums two sets of counts (the high-water mark takes the larger).
    pub fn merge(mut self, other: &Counters) -> Counters {
        self.tokens_trained += other.tokens_trained;
        self.gemm_flops += other.gemm_flops;
        self.gemm_ns += other.gemm_ns;
        self.arena_hits += other.arena_hits;
        self.arena_misses += other.arena_misses;
        self.arena_high_water_bytes = self
            .arena_high_water_bytes
            .max(other.arena_high_water_bytes);
        self.dense_bytes += other.dense_bytes;
        self.encoded_bytes += other.encoded_bytes;
        self.compact_experts += other.compact_experts;
        self.merge_plans += other.merge_plans;
        self
    }
}

/// What one replayed round measured outside the span tree.
pub struct RoundReplay {
    /// Wall time of each replayed client's local round, in nanoseconds.
    pub client_ns: Vec<u64>,
}

/// Replay state for one repetition of a workload.
pub struct Replay {
    cfg: RunConfig,
    method: Method,
    registry: FleetSpec,
    fleet: Vec<Participant>,
    eval_set: Dataset,
    round_rng: SeededRng,
    serial: ThreadPool,
    pub counters: Counters,
}

impl Replay {
    /// Regenerates the run's data and fleet from its seed with the same
    /// derivations `FederatedRun::start` uses, timing both.
    pub fn new(cfg: &RunConfig, method: Method, seed: u64, tracer: &mut Tracer) -> Self {
        let root = SeededRng::new(seed);
        let mut data_rng = root.derive(1);
        let mut fleet_rng = root.derive(2);
        let vocab = cfg.model_config.vocab_size;
        let data_config =
            DatasetConfig::for_kind(cfg.dataset_kind, vocab).with_num_samples(cfg.num_samples);
        let setup = tracer.begin("replay.setup");
        let dataset = tracer.span("data.generate", || {
            DatasetGenerator::new(data_config).generate(&mut data_rng)
        });
        let (train, test) = dataset.train_test_split(0.8);
        let eval_indices: Vec<usize> = (0..test.len().min(cfg.eval_samples)).collect();
        let eval_set = test.subset(&eval_indices);
        let mut registry = tracer.span("fl.participant.registry_build", || {
            FleetSpec::build(
                Arc::new(train),
                cfg.num_participants,
                cfg.non_iid_alpha,
                &mut fleet_rng,
            )
        });
        if let Some(link) = cfg.link {
            registry.override_link(link);
        }
        // Full participation materializes the fleet once, at set-up, as
        // the driver does; sampled cohorts materialize per round.
        let fleet = if cfg.cohort_size.is_none() {
            tracer.span("fl.participant.materialize_all", || {
                registry.materialize_all()
            })
        } else {
            Vec::new()
        };
        tracer.end(setup);
        Self {
            cfg: cfg.clone(),
            method,
            registry,
            fleet,
            eval_set,
            round_rng: root.derive(4),
            serial: ThreadPool::new(1),
            counters: Counters::default(),
        }
    }

    /// Replays round `round` serially against `global`, the snapshot the
    /// run's fan-out read, for the clients in `cohort`.
    pub fn round(
        &mut self,
        round: usize,
        global: &Arc<MoeModel>,
        cohort: &[usize],
        tracer: &mut Tracer,
    ) -> RoundReplay {
        let span = tracer.begin("replay.round");
        scratch::reset_stats();
        scratch::reset_round();

        let store = ShardedStore::new((**global).clone(), DEFAULT_SHARDS);
        let tree = AggregationTree::new(store.begin_round(), self.cfg.aggregation_edges);
        let quant_cache = QuantizedModelCache::new();
        let mut client_ns = Vec::with_capacity(cohort.len());
        // Lent out for the round so client rounds can update the counters.
        let fleet = std::mem::take(&mut self.fleet);
        for &id in cohort {
            let client_start = Instant::now();
            let client = tracer.begin("replay.client");
            let materialized;
            let participant = if fleet.is_empty() {
                materialized = tracer.span("fl.participant.materialize", || {
                    self.registry.materialize(id)
                });
                &materialized
            } else {
                &fleet[id]
            };
            let (updates, head) = match self.method {
                Method::Flux => self.flux_client(round, participant, global, &quant_cache, tracer),
                _ => self.full_model_client(participant, global, tracer),
            };
            self.upload(participant.id, updates, head, global, &tree, tracer);
            tracer.end(client);
            client_ns.push(client_start.elapsed().as_nanos() as u64);
        }
        self.fleet = fleet;
        tracer.span("fl.store.apply_round", || {
            store.apply_round(tree.collapse(), &self.serial)
        });
        let installed = tracer.span("fl.store.snapshot", || store.snapshot());
        let eval = tracer.span("moe.evaluate", || installed.evaluate(&self.eval_set));
        std::hint::black_box(eval);

        let s = scratch::stats();
        self.counters.arena_hits += s.arena_hits;
        self.counters.arena_misses += s.arena_misses;
        self.counters.arena_high_water_bytes = self
            .counters
            .arena_high_water_bytes
            .max(s.arena_high_water * std::mem::size_of::<f32>());
        tracer.end(span);
        RoundReplay { client_ns }
    }

    /// A Flux client round: quantized profiling, role assignment,
    /// merging, local training of the exploitation experts and SPSA
    /// utility estimates, as the driver's Flux participant round runs them.
    fn flux_client(
        &mut self,
        round: usize,
        participant: &Participant,
        global: &MoeModel,
        quant_cache: &QuantizedModelCache,
        tracer: &mut Tracer,
    ) -> (Vec<ExpertUpdate>, Option<(Matrix, f32)>) {
        let cfg = &self.cfg;
        let config = &global.config;
        let mut rng = self
            .round_rng
            .derive((round * 1000 + participant.id) as u64);
        tracer.span("quant.quantize", || {
            quant_cache.get_or_quantize(global, participant.profile_width)
        });
        let mut profiler = StaleProfiler::new(cfg.profiling);
        let profile = tracer.span("core.profiling.profile", || {
            profiler.refresh_blocking_cached(global, &participant.train_data, quant_cache)
        });

        let reference_tokens = participant
            .tokens_per_round()
            .saturating_mul(cfg.reference_token_scale)
            .max(1);
        let capacity = participant.expert_capacity(config);
        let tuning_budget = participant
            .device
            .tuning_capacity(config, reference_tokens)
            .min(capacity);
        let non_tuning_budget = capacity.saturating_sub(tuning_budget).max(1);
        let all_keys = global.expert_keys();
        let assigner = RoleAssigner::new(cfg.epsilon);
        let assignment = tracer.span("core.assignment.assign", || {
            let table: HashMap<ExpertKey, ExpertUtility> = initial_utilities(&profile)
                .into_iter()
                .map(|u| (u.key, u))
                .collect();
            assigner.assign_with_table(Some(&table), &all_keys, tuning_budget, round, &mut rng)
        });
        let tuning_set = assignment.tuning_set();
        let plan = tracer.span("core.merging.plan_build", || {
            CompactModelPlan::build(
                global,
                &profile,
                &tuning_set,
                non_tuning_budget,
                cfg.merging,
                &mut rng,
            )
        });
        let mut compact = tracer.span("core.merging.apply", || plan.apply(global, &profile));
        self.counters.compact_experts += compact.expert_keys().len();
        self.counters.merge_plans += 1;
        let key_map = plan.tuning_key_map();

        let selected: BTreeSet<usize> = assignment
            .exploitation
            .iter()
            .flat_map(|key| profile.samples_of(*key).iter().copied())
            .collect();
        let samples: Vec<Sample> = if selected.is_empty() {
            participant.train_data.samples.clone()
        } else {
            selected
                .iter()
                .filter_map(|&i| participant.train_data.samples.get(i).cloned())
                .collect()
        };
        let exploitation: HashSet<ExpertKey> = assignment
            .exploitation
            .iter()
            .filter_map(|k| key_map.get(k).copied())
            .collect();
        self.train(&mut compact, &samples, Some(&exploitation), tracer);

        let estimator = ForwardGradEstimator {
            sigma: 0.02,
            num_perturbations: 1,
            samples_per_eval: 1,
        };
        for original in assignment.exploration.iter().take(4) {
            if let Some(compact_key) = key_map.get(original) {
                let routed = profile.samples_of(*original).len();
                tracer.span("core.assignment.spsa", || {
                    estimator.estimate_utility_in_place(
                        &mut compact,
                        *compact_key,
                        &samples,
                        routed,
                        &mut rng,
                    )
                });
            }
        }

        let weight = samples.len().max(1) as f32;
        let updates = assignment
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
        (updates, Some((compact.active_head().clone(), weight)))
    }

    /// A full-model client round (FMD): train every expert of a private
    /// copy of the global model and upload all of them.
    fn full_model_client(
        &mut self,
        participant: &Participant,
        global: &MoeModel,
        tracer: &mut Tracer,
    ) -> (Vec<ExpertUpdate>, Option<(Matrix, f32)>) {
        let mut model = tracer.span("moe.model_clone", || global.clone());
        let samples = &participant.train_data.samples;
        self.train(&mut model, samples, None, tracer);
        let weight = samples.len().max(1) as f32;
        let updates = model
            .expert_keys()
            .into_iter()
            .map(|key| ExpertUpdate {
                key,
                expert: model.expert(key).clone(),
                weight,
            })
            .collect();
        (updates, Some((model.active_head().clone(), weight)))
    }

    /// The local SGD loop of `local_train`, with the gradient and update
    /// passes timed separately.
    fn train(
        &mut self,
        model: &mut MoeModel,
        samples: &[Sample],
        tuning: Option<&HashSet<ExpertKey>>,
        tracer: &mut Tracer,
    ) {
        let lr = self.cfg.learning_rate;
        for chunk in samples.chunks(self.cfg.batch_size.max(1)) {
            let mut grads = tracer.span("moe.batch_gradients", || {
                model.batch_gradients(chunk, tuning)
            });
            let scale = 1.0 / grads.samples.max(1) as f32;
            grads.head_grad.scale_in_place(scale);
            for g in grads.expert_grads.values_mut() {
                g.scale(scale);
            }
            tracer.span("moe.apply_gradients", || model.apply_gradients(&grads, lr));
            self.counters.tokens_trained += chunk.iter().map(|s| s.tokens.len()).sum::<usize>();
        }
    }

    /// Puts the upload on the wire as the run's config encodes it and
    /// stages it into the replay's aggregation tree.
    fn upload(
        &mut self,
        pid: usize,
        updates: Vec<ExpertUpdate>,
        head: Option<(Matrix, f32)>,
        global: &MoeModel,
        tree: &AggregationTree,
        tracer: &mut Tracer,
    ) {
        let compression = self.cfg.compression;
        if compression.is_dense() {
            let bytes = flux_fl::dense_upload_payload_bytes(&updates, head.as_ref());
            self.counters.dense_bytes += bytes;
            self.counters.encoded_bytes += bytes;
            tracer.span("fl.aggregate.submit", || tree.submit(pid, updates, head));
            return;
        }
        let encoded = tracer.span("fl.compress.encode", || {
            EncodedUpload::encode(&updates, head.as_ref(), global, compression)
        });
        self.counters.dense_bytes += encoded.dense_bytes();
        self.counters.encoded_bytes += encoded.encoded_bytes();
        let decoded = tracer.span("fl.compress.decode", || encoded.decode(global));
        assert!(decoded.is_ok(), "a fresh upload decodes against its base");
        let staged = tracer.span("fl.aggregate.submit", || {
            tree.submit_encoded(pid, &encoded, global)
        });
        assert!(staged.is_ok(), "a fresh upload stages");
    }

    /// Times the dispatched GEMM at the workload's hot training shapes:
    /// one packed local batch of `tokens` rows through the fused QKV
    /// projection and an expert's two projections.
    pub fn gemm(&mut self, global: &MoeModel, tracer: &mut Tracer) {
        let d = global.config.d_model;
        let ff = global.config.d_ff;
        let tokens = self.batch_tokens();
        let mut rng = SeededRng::new(0x6e6d);
        for (m, k, n) in [(tokens, d, 3 * d), (tokens, d, ff), (tokens, ff, d)] {
            let a = Matrix::random_normal(m, k, 1.0, &mut rng);
            let b = Matrix::random_normal(k, n, 1.0, &mut rng);
            let span = tracer.begin("tensor.gemm");
            let start = Instant::now();
            for _ in 0..GEMM_ITERS {
                std::hint::black_box(a.matmul(std::hint::black_box(&b))).recycle();
            }
            self.counters.gemm_ns += start.elapsed().as_nanos() as u64;
            tracer.end(span);
            self.counters.gemm_flops += (2 * m * k * n * GEMM_ITERS) as u64;
        }
    }

    /// Tokens in the first local batch of the first client: the row count
    /// of the packed matrices training multiplies.
    fn batch_tokens(&self) -> usize {
        let first = match self.fleet.first() {
            Some(p) => p.clone(),
            None => self.registry.materialize(0),
        };
        first
            .train_data
            .samples
            .iter()
            .take(self.cfg.batch_size.max(1))
            .map(|s| s.tokens.len())
            .sum::<usize>()
            .max(1)
    }
}
