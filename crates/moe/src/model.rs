//! The full MoE transformer model.

use std::collections::{HashMap, HashSet};

use serde::{Deserialize, Serialize};

use flux_data::{Dataset, Sample, Task};
use flux_quant::{BitWidth, QuantizedMatrix};
use flux_tensor::{init, ops, Matrix, SeededRng};

use crate::batch::PackedBatch;
use crate::config::MoeConfig;
use crate::expert::{Expert, ExpertGrad};
use crate::gating::RoutingMap;
use crate::layer::{TransformerLayer, TransformerLayerBatchCache, TransformerLayerCache, LN_EPS};
use crate::tracker::{ActivationProfile, ActivationTracker, ExpertKey};

/// Samples evaluated per packed forward pass during [`MoeModel::evaluate`]
/// (the paper's local mini-batch size).
const EVAL_BATCH: usize = 16;

/// A trainable MoE transformer.
///
/// The model follows the paper's fine-tuning regime: expert parameters (and
/// the small task head) are trainable, while embeddings, attention and
/// gating weights stay frozen. All experiments instantiate this type either
/// as the *global* model held by the parameter server or as a *compact*
/// per-participant model produced by expert merging.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MoeModel {
    /// Model configuration.
    pub config: MoeConfig,
    /// Token embedding table `(vocab, d_model)`; frozen.
    pub embedding: Matrix,
    /// Transformer blocks.
    pub layers: Vec<TransformerLayer>,
    /// Generation head `(d_model, vocab)`; used when `num_classes` is `None`.
    pub lm_head: Matrix,
    /// Classification head `(d_model, num_classes)` when configured.
    pub cls_head: Option<Matrix>,
}

/// Cache produced by a full forward pass, consumed by the backward pass.
#[derive(Debug, Clone)]
pub struct ForwardCache {
    layer_caches: Vec<TransformerLayerCache>,
    /// Hidden states entering the head (after the final layer norm).
    pub final_hidden: Matrix,
    /// Output of the last transformer block (before the final layer norm).
    last_block_output: Matrix,
}

/// Cache produced by a packed multi-sample forward pass
/// ([`MoeModel::forward_batch`]), consumed by the batched backward.
#[derive(Debug, Clone)]
pub struct BatchForwardCache {
    layer_caches: Vec<TransformerLayerBatchCache>,
    /// Packed `(total_tokens, d_model)` hidden states after the final layer
    /// norm.
    pub final_hidden: Matrix,
    /// Packed output of the last transformer block (pre final layer norm).
    last_block_output: Matrix,
    /// Row layout of the packed batch.
    pub batch: PackedBatch,
}

/// Gradients produced by one backward pass (or an accumulation of several).
#[derive(Debug, Clone)]
pub struct GradientSet {
    /// Per-expert gradients keyed by `(layer, compact expert id)`.
    pub expert_grads: HashMap<ExpertKey, ExpertGrad>,
    /// Gradient of the active task head.
    pub head_grad: Matrix,
    /// Mean loss over the contributing samples.
    pub loss: f32,
    /// Number of samples accumulated.
    pub samples: usize,
}

/// Result of evaluating the model on a dataset.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EvalResult {
    /// Task score: mean ROUGE-L for generation datasets, accuracy otherwise.
    pub score: f32,
    /// Mean loss over the evaluated samples.
    pub loss: f32,
    /// Number of samples evaluated.
    pub samples: usize,
}

/// A model prediction for a single sample.
#[derive(Debug, Clone, PartialEq)]
enum Prediction {
    /// Generated continuation token ids (generation datasets).
    Tokens(Vec<u32>),
    /// Predicted class (classification datasets).
    Class(usize),
}

impl MoeModel {
    /// Creates a freshly initialized model.
    pub fn new(config: MoeConfig, rng: &mut SeededRng) -> Self {
        let embedding = init::embedding(config.vocab_size, config.d_model, rng);
        let layers = (0..config.num_layers)
            .map(|l| {
                TransformerLayer::new(
                    config.d_model,
                    config.d_ff,
                    config.experts_in_layer(l),
                    config.top_k,
                    rng,
                )
            })
            .collect();
        let lm_head = init::xavier_uniform(config.d_model, config.vocab_size, rng);
        let cls_head = config
            .num_classes
            .map(|c| init::xavier_uniform(config.d_model, c, rng));
        Self {
            config,
            embedding,
            layers,
            lm_head,
            cls_head,
        }
    }

    /// Total number of parameters actually materialized.
    pub fn num_params(&self) -> usize {
        let mut total = self.embedding.len() + self.lm_head.len();
        if let Some(h) = &self.cls_head {
            total += h.len();
        }
        for layer in &self.layers {
            total += layer.attention.num_params();
            total += layer.moe.gate.weight.len();
            for e in &layer.moe.experts {
                total += e.num_params();
            }
        }
        total
    }

    /// FP32 bytes of the materialized parameters.
    pub fn param_bytes(&self) -> usize {
        self.num_params() * 4
    }

    /// Immutable access to an expert by `(layer, compact id)`.
    pub fn expert(&self, key: ExpertKey) -> &Expert {
        &self.layers[key.layer].moe.experts[key.expert]
    }

    /// Mutable access to an expert by `(layer, compact id)`.
    pub fn expert_mut(&mut self, key: ExpertKey) -> &mut Expert {
        &mut self.layers[key.layer].moe.experts[key.expert]
    }

    /// Replaces an expert's parameters.
    pub fn set_expert(&mut self, key: ExpertKey, expert: Expert) {
        self.layers[key.layer].moe.experts[key.expert] = expert;
    }

    /// All expert keys of the materialized (compact) experts.
    pub fn expert_keys(&self) -> Vec<ExpertKey> {
        let mut keys = Vec::new();
        for (l, layer) in self.layers.iter().enumerate() {
            for e in 0..layer.moe.num_experts() {
                keys.push(ExpertKey::new(l, e));
            }
        }
        keys
    }

    /// Per-layer compact expert counts.
    pub fn experts_per_layer(&self) -> Vec<usize> {
        self.layers.iter().map(|l| l.moe.num_experts()).collect()
    }

    /// The task head a participant trains and uploads: the classification
    /// head when configured, the generation head otherwise.
    pub fn active_head(&self) -> &Matrix {
        match &self.cls_head {
            Some(h) => h,
            None => &self.lm_head,
        }
    }

    /// Mutable access to the active task head.
    pub fn active_head_mut(&mut self) -> &mut Matrix {
        match &mut self.cls_head {
            Some(h) => h,
            None => &mut self.lm_head,
        }
    }

    /// FNV-1a over the exact f32 bit patterns of every aggregation-visible
    /// parameter — the embedding, all expert weights/biases (enumerated via
    /// [`MoeModel::expert_keys`], the same keys the sharded parameter store
    /// partitions on), and both heads. Two models with equal checksums and
    /// equal shapes are bit-identical in everything federated aggregation
    /// can touch; the golden-trace and store-interleaving suites compare
    /// runs through this.
    pub fn param_checksum(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |x: f32| {
            for byte in x.to_bits().to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for x in self.embedding.as_slice() {
            eat(*x);
        }
        for key in self.expert_keys() {
            let expert = self.expert(key);
            for x in expert.w1.as_slice() {
                eat(*x);
            }
            for x in expert.w2.as_slice() {
                eat(*x);
            }
            for x in &expert.b1 {
                eat(*x);
            }
            for x in &expert.b2 {
                eat(*x);
            }
        }
        for x in self.lm_head.as_slice() {
            eat(*x);
        }
        if let Some(head) = &self.cls_head {
            for x in head.as_slice() {
                eat(*x);
            }
        }
        hash
    }

    /// Replaces the experts and routing map of one layer (customized MoE
    /// construction / gate re-routing after merging).
    ///
    /// # Panics
    ///
    /// Panics if the routing map's original-expert count differs from the
    /// gate width, or the map references a compact expert that is missing.
    pub fn set_layer_experts(
        &mut self,
        layer: usize,
        experts: Vec<Expert>,
        routing_map: RoutingMap,
    ) {
        let moe = &mut self.layers[layer].moe;
        assert_eq!(
            routing_map.num_original(),
            moe.gate.num_experts(),
            "routing map must cover every original expert"
        );
        assert_eq!(
            routing_map.num_compact(),
            experts.len(),
            "routing map targets must match the expert list"
        );
        moe.experts = experts;
        moe.routing_map = routing_map;
    }

    /// Produces a profiling copy whose weights carry the round-trip error of
    /// the given quantization width (§4.1). The copy has the same shapes and
    /// API as the original and is used for forward-only activation profiling.
    pub fn quantized_copy(&self, width: BitWidth) -> MoeModel {
        let q = |m: &Matrix| QuantizedMatrix::quantize(m, width).dequantize();
        let mut copy = self.clone();
        copy.embedding = q(&copy.embedding);
        copy.lm_head = q(&copy.lm_head);
        if let Some(h) = &copy.cls_head {
            copy.cls_head = Some(q(h));
        }
        for layer in &mut copy.layers {
            // Rebuild the block rather than mutating projections in place:
            // a fresh Attention starts with an empty fused-QKV cache, so no
            // stale [Wq|Wk|Wv] concatenation can survive the quantization.
            layer.attention = crate::attention::Attention::from_parts(
                q(&layer.attention.wq),
                q(&layer.attention.wk),
                q(&layer.attention.wv),
                q(&layer.attention.wo),
            );
            layer.moe.gate.weight = q(&layer.moe.gate.weight);
            for expert in &mut layer.moe.experts {
                expert.w1 = q(&expert.w1);
                expert.w2 = q(&expert.w2);
            }
        }
        copy
    }

    /// The per-dimension sinusoidal rates. They depend only on the dimension
    /// index, so both embed paths hoist the `powf` out of the token loop (it
    /// dominated the embed cost at small d_model).
    fn positional_rates(&self) -> Vec<f32> {
        let d = self.config.d_model;
        (0..d)
            .map(|i| 1.0 / 10_000f32.powf((2 * (i / 2)) as f32 / d as f32))
            .collect()
    }

    /// Embeds one token sequence into `out` starting at `row_offset`, with
    /// positions counted from the sequence start (not the packed row).
    fn embed_into(&self, tokens: &[u32], rates: &[f32], out: &mut Matrix, row_offset: usize) {
        for (pos, &tok) in tokens.iter().enumerate() {
            let tok = (tok as usize).min(self.config.vocab_size - 1);
            let row = self.embedding.row(tok);
            let out_row = out.row_mut(row_offset + pos);
            out_row.copy_from_slice(row);
            // Sinusoidal positional encoding.
            for (i, (value, &rate)) in out_row.iter_mut().zip(rates).enumerate() {
                let angle = pos as f32 * rate;
                *value += if i % 2 == 0 { angle.sin() } else { angle.cos() } * 0.1;
            }
        }
    }

    /// Embeds a token sequence and adds sinusoidal positional encodings.
    pub fn embed(&self, tokens: &[u32]) -> Matrix {
        let rates = self.positional_rates();
        let mut out = Matrix::zeros(tokens.len(), self.config.d_model);
        self.embed_into(tokens, &rates, &mut out, 0);
        out
    }

    /// Embeds every sample of a mini-batch into one packed
    /// `(total_tokens, d_model)` matrix. Positions restart at every sample
    /// boundary, so each row is bit-identical to the corresponding row of
    /// [`MoeModel::embed`] over that sample alone.
    pub fn embed_batch(&self, samples: &[&Sample]) -> (Matrix, PackedBatch) {
        let batch = PackedBatch::from_lengths(samples.iter().map(|s| s.tokens.len()));
        let rates = self.positional_rates();
        let mut out = Matrix::zeros(batch.total_tokens(), self.config.d_model);
        for (sample, &(start, _)) in samples.iter().zip(batch.bounds()) {
            self.embed_into(&sample.tokens, &rates, &mut out, start);
        }
        (out, batch)
    }

    /// Runs the transformer stack over one token sequence, keeping every
    /// layer's backward state (the per-sample training oracle behind
    /// [`MoeModel::sample_gradients`]).
    pub fn forward(&self, tokens: &[u32]) -> ForwardCache {
        let mut hidden = self.embed(tokens);
        let mut layer_caches = Vec::with_capacity(self.layers.len());
        for layer in &self.layers {
            let (next, cache) = layer.forward(&hidden);
            layer_caches.push(cache);
            hidden = next;
        }
        let final_hidden = ops::layer_norm(&hidden, LN_EPS);
        ForwardCache {
            layer_caches,
            final_hidden,
            last_block_output: hidden,
        }
    }

    /// Runs the transformer stack over a packed mini-batch (see
    /// [`MoeModel::embed_batch`]). Per-token hidden states are bit-identical
    /// to running [`MoeModel::forward`] on each sample alone; the speedup
    /// comes from every row-parallel stage (projections, gating, expert
    /// GEMMs) running once over the whole batch, with tokens grouped by
    /// routed expert across all samples.
    pub fn forward_batch(&self, samples: &[&Sample]) -> BatchForwardCache {
        let (mut hidden, batch) = self.embed_batch(samples);
        let mut layer_caches = Vec::with_capacity(self.layers.len());
        for layer in &self.layers {
            let (next, cache) = layer.forward_batch(hidden, batch.bounds());
            layer_caches.push(cache);
            hidden = next;
        }
        let final_hidden = ops::layer_norm(&hidden, LN_EPS);
        BatchForwardCache {
            layer_caches,
            final_hidden,
            last_block_output: hidden,
            batch,
        }
    }

    /// Packed batched forward keeping no backward state: the one loss-only
    /// forward, used by loss probes, evaluation and final embeddings. Per
    /// token it is bit-identical to [`MoeModel::forward`], with every
    /// per-layer cache clone skipped. Returns the packed final hidden states
    /// (after the last layer norm) and the batch layout.
    pub fn forward_no_cache_batch(&self, samples: &[&Sample]) -> (Matrix, PackedBatch) {
        let (mut hidden, batch) = self.embed_batch(samples);
        for (idx, layer) in self.layers.iter().enumerate() {
            let next = layer.forward_no_cache_batch(&hidden, batch.bounds(), idx, None);
            hidden.recycle();
            hidden = next;
        }
        let final_hidden = ops::layer_norm(&hidden, LN_EPS);
        hidden.recycle();
        (final_hidden, batch)
    }

    /// Computes the loss and the gradient of the head logits for a sample.
    ///
    /// Returns `(loss, grad_final_hidden, head_grad)`.
    fn loss_and_head_grads(&self, sample: &Sample, cache: &ForwardCache) -> (f32, Matrix, Matrix) {
        match &sample.task {
            Task::Generation { reference } => {
                let seq = cache.final_hidden.rows();
                let r = reference.len().min(seq);
                let tail_start = seq - r;
                let rows: Vec<usize> = (tail_start..seq).collect();
                let tail_hidden = cache.final_hidden.select_rows(&rows);
                let logits = tail_hidden.matmul(&self.lm_head);
                let targets: Vec<usize> = reference[reference.len() - r..]
                    .iter()
                    .map(|&t| (t as usize).min(self.config.vocab_size - 1))
                    .collect();
                let (loss, grad_logits) = ops::cross_entropy(&logits, &targets);
                let head_grad = tail_hidden.matmul_transa(&grad_logits).expect("row counts");
                let grad_tail = grad_logits
                    .matmul_transb(&self.lm_head)
                    .expect("col counts");
                let mut grad_hidden =
                    Matrix::zeros(cache.final_hidden.rows(), cache.final_hidden.cols());
                for (slot, &row) in rows.iter().enumerate() {
                    grad_hidden
                        .row_mut(row)
                        .copy_from_slice(grad_tail.row(slot));
                }
                (loss, grad_hidden, head_grad)
            }
            Task::Classification { label, .. } => {
                let head = self
                    .cls_head
                    .as_ref()
                    .expect("classification sample requires a classification head");
                let seq = cache.final_hidden.rows() as f32;
                let pooled_vec: Vec<f32> = cache
                    .final_hidden
                    .sum_rows()
                    .iter()
                    .map(|x| x / seq)
                    .collect();
                let pooled = Matrix::from_vec(1, self.config.d_model, pooled_vec).expect("shape");
                let logits = pooled.matmul(head);
                let (loss, grad_logits) = ops::cross_entropy(&logits, &[*label]);
                let head_grad = pooled.matmul_transa(&grad_logits).expect("row counts");
                let grad_pooled = grad_logits.matmul_transb(head).expect("col counts");
                // Mean-pool backward: every position receives grad/seq.
                let mut grad_hidden =
                    Matrix::zeros(cache.final_hidden.rows(), cache.final_hidden.cols());
                for r in 0..cache.final_hidden.rows() {
                    for (o, &g) in grad_hidden.row_mut(r).iter_mut().zip(grad_pooled.row(0)) {
                        *o = g / seq;
                    }
                }
                (loss, grad_hidden, head_grad)
            }
        }
    }

    /// Forward + backward over one sample.
    ///
    /// `tuning` restricts which `(layer, compact expert)` pairs get parameter
    /// gradients; `None` collects gradients for every activated expert. The
    /// backward pass always propagates input gradients through every layer so
    /// earlier tuning experts receive correct signals.
    pub fn sample_gradients(
        &self,
        sample: &Sample,
        tuning: Option<&HashSet<ExpertKey>>,
    ) -> GradientSet {
        let cache = self.forward(&sample.tokens);
        let (loss, grad_final_hidden, head_grad) = self.loss_and_head_grads(sample, &cache);
        // Final layer norm backward.
        let mut grad =
            ops::layer_norm_backward(&cache.last_block_output, &grad_final_hidden, LN_EPS);
        let mut expert_grads: HashMap<ExpertKey, ExpertGrad> = HashMap::new();
        for (idx, layer) in self.layers.iter().enumerate().rev() {
            let tuning_for_layer: Option<Vec<usize>> = tuning.map(|set| {
                set.iter()
                    .filter(|k| k.layer == idx)
                    .map(|k| k.expert)
                    .collect()
            });
            let (grads, grad_input) =
                layer.backward(&cache.layer_caches[idx], &grad, tuning_for_layer.as_deref());
            for (compact, g) in grads {
                expert_grads.insert(ExpertKey::new(idx, compact), g);
            }
            grad = grad_input;
        }
        GradientSet {
            expert_grads,
            head_grad,
            loss,
            samples: 1,
        }
    }

    /// Batched loss + head gradients over a packed batch.
    ///
    /// Returns `(mean_loss, grad_final_hidden, head_grad)` where the loss is
    /// the mean of per-sample losses, `grad_final_hidden` is packed like
    /// `final_hidden`, and `head_grad` is the *sum* of per-sample head
    /// gradients (matching what merging per-sample [`GradientSet`]s
    /// accumulates; callers average by sample count). Generation samples'
    /// tail logits run as one GEMM against the LM head; classification
    /// samples pool per segment and share one GEMM against the class head.
    /// Head-gradient contributions whose shape differs from the active head
    /// (a generation sample in a classification model) are dropped, exactly
    /// as [`GradientSet::merge`] drops them.
    fn batch_loss_and_head_grads(
        &self,
        samples: &[&Sample],
        final_hidden: &Matrix,
        batch: &PackedBatch,
    ) -> (f32, Matrix, Matrix) {
        let head_shape = match &self.cls_head {
            Some(h) => h.shape(),
            None => self.lm_head.shape(),
        };
        let mut head_grad = Matrix::zeros(head_shape.0, head_shape.1);
        let mut grad_hidden = Matrix::zeros(final_hidden.rows(), final_hidden.cols());
        let mut loss_sum = 0.0f32;

        // Generation samples: gather every reference-tail row across the
        // batch. `row_div[i]` is the tail length of the row's sample, so the
        // per-row gradient carries the same 1/r scaling the per-sample
        // cross-entropy applied.
        let mut tail_rows: Vec<usize> = Vec::new();
        let mut targets: Vec<usize> = Vec::new();
        let mut row_div: Vec<f32> = Vec::new();
        // Classification samples, by batch index.
        let mut cls_samples: Vec<usize> = Vec::new();
        for (i, sample) in samples.iter().enumerate() {
            let (start, end) = batch.bounds()[i];
            match &sample.task {
                Task::Generation { reference } => {
                    let seq = end - start;
                    let r = reference.len().min(seq);
                    for (slot, &t) in reference[reference.len() - r..].iter().enumerate() {
                        tail_rows.push(end - r + slot);
                        targets.push((t as usize).min(self.config.vocab_size - 1));
                        row_div.push(r as f32);
                    }
                }
                Task::Classification { .. } => cls_samples.push(i),
            }
        }

        if !tail_rows.is_empty() {
            let tail_hidden = final_hidden.select_rows(&tail_rows);
            let logits = tail_hidden.matmul(&self.lm_head);
            let mut grad_logits = Matrix::zeros_pooled(logits.rows(), logits.cols());
            let mut row = 0;
            while row < logits.rows() {
                // Rows of one sample share a divisor; its loss is the mean
                // of its rows' raw losses, accumulated per sample so the
                // value matches the per-sample cross-entropy bit for bit.
                let div = row_div[row];
                let mut sample_raw = 0.0f32;
                let sample_end = row + div as usize;
                while row < sample_end {
                    let probs = ops::softmax_row(logits.row(row));
                    sample_raw += -(probs[targets[row]].max(1e-12)).ln();
                    let g = grad_logits.row_mut(row);
                    for (c, &p) in probs.iter().enumerate() {
                        g[c] = (p - if c == targets[row] { 1.0 } else { 0.0 }) / div;
                    }
                    row += 1;
                }
                loss_sum += sample_raw / div;
            }
            let head_contrib = tail_hidden.matmul_transa(&grad_logits).expect("row counts");
            if head_contrib.shape() == head_grad.shape() {
                head_grad
                    .add_scaled(&head_contrib, 1.0)
                    .expect("same shape");
            }
            head_contrib.recycle();
            let grad_tail = grad_logits
                .matmul_transb(&self.lm_head)
                .expect("col counts");
            grad_logits.recycle();
            for (slot, &row) in tail_rows.iter().enumerate() {
                grad_hidden
                    .row_mut(row)
                    .copy_from_slice(grad_tail.row(slot));
            }
            grad_tail.recycle();
            tail_hidden.recycle();
            logits.recycle();
        }

        if !cls_samples.is_empty() {
            let head = self
                .cls_head
                .as_ref()
                .expect("classification sample requires a classification head");
            let mut pooled = Matrix::zeros_pooled(cls_samples.len(), self.config.d_model);
            let mut labels = Vec::with_capacity(cls_samples.len());
            for (slot, &i) in cls_samples.iter().enumerate() {
                let (start, end) = batch.bounds()[i];
                let seq = (end - start) as f32;
                let row = pooled.row_mut(slot);
                for r in start..end {
                    for (o, &v) in row.iter_mut().zip(final_hidden.row(r)) {
                        *o += v;
                    }
                }
                for o in row.iter_mut() {
                    *o /= seq;
                }
                match &samples[i].task {
                    Task::Classification { label, .. } => labels.push(*label),
                    Task::Generation { .. } => unreachable!("partitioned above"),
                }
            }
            let logits = pooled.matmul(head);
            let mut grad_logits = Matrix::zeros_pooled(logits.rows(), logits.cols());
            for (slot, &label) in labels.iter().enumerate() {
                let probs = ops::softmax_row(logits.row(slot));
                loss_sum += -(probs[label].max(1e-12)).ln();
                let g = grad_logits.row_mut(slot);
                for (c, &p) in probs.iter().enumerate() {
                    g[c] = p - if c == label { 1.0 } else { 0.0 };
                }
            }
            logits.recycle();
            let head_contrib = pooled.matmul_transa(&grad_logits).expect("row counts");
            if head_contrib.shape() == head_grad.shape() {
                head_grad
                    .add_scaled(&head_contrib, 1.0)
                    .expect("same shape");
            }
            head_contrib.recycle();
            let grad_pooled = grad_logits.matmul_transb(head).expect("col counts");
            grad_logits.recycle();
            pooled.recycle();
            // Mean-pool backward: every position receives grad/seq.
            for (slot, &i) in cls_samples.iter().enumerate() {
                let (start, end) = batch.bounds()[i];
                let seq = (end - start) as f32;
                for r in start..end {
                    for (o, &g) in grad_hidden.row_mut(r).iter_mut().zip(grad_pooled.row(slot)) {
                        *o = g / seq;
                    }
                }
            }
            grad_pooled.recycle();
        }

        let mean_loss = loss_sum / samples.len().max(1) as f32;
        (mean_loss, grad_hidden, head_grad)
    }

    /// Forward + backward over a batch of samples, accumulating gradients.
    ///
    /// This is the batched training path: all samples' tokens are packed
    /// into one activation matrix per layer, tokens are grouped by routed
    /// expert across the whole batch (one wide GEMM per expert instead of
    /// one skinny matmul per sample), and parameter gradients accumulate
    /// batch-wise inside the kernels. Per-token activations and input
    /// gradients are bit-identical to the per-sample reference
    /// ([`MoeModel::batch_gradients_reference`]); accumulated quantities
    /// (expert/head parameter gradients, the mean loss) differ only by
    /// float-summation order, within ~1e-4 relative tolerance at f32.
    pub fn batch_gradients(
        &self,
        samples: &[Sample],
        tuning: Option<&HashSet<ExpertKey>>,
    ) -> GradientSet {
        let head_shape = match &self.cls_head {
            Some(h) => h.shape(),
            None => self.lm_head.shape(),
        };
        if samples.is_empty() {
            return GradientSet {
                expert_grads: HashMap::new(),
                head_grad: Matrix::zeros(head_shape.0, head_shape.1),
                loss: 0.0,
                samples: 0,
            };
        }
        let refs: Vec<&Sample> = samples.iter().collect();
        let cache = self.forward_batch(&refs);
        let (loss, grad_final_hidden, head_grad) =
            self.batch_loss_and_head_grads(&refs, &cache.final_hidden, &cache.batch);
        let mut grad =
            ops::layer_norm_backward(&cache.last_block_output, &grad_final_hidden, LN_EPS);
        let mut expert_grads: HashMap<ExpertKey, ExpertGrad> = HashMap::new();
        for (idx, layer) in self.layers.iter().enumerate().rev() {
            let tuning_for_layer: Option<Vec<usize>> = tuning.map(|set| {
                set.iter()
                    .filter(|k| k.layer == idx)
                    .map(|k| k.expert)
                    .collect()
            });
            let (grads, grad_input) = layer.backward_batch(
                &cache.layer_caches[idx],
                cache.batch.bounds(),
                &grad,
                tuning_for_layer.as_deref(),
            );
            for (compact, g) in grads {
                expert_grads.insert(ExpertKey::new(idx, compact), g);
            }
            grad = grad_input;
        }
        GradientSet {
            expert_grads,
            head_grad,
            loss,
            samples: samples.len(),
        }
    }

    /// The per-sample reference implementation of
    /// [`MoeModel::batch_gradients`]: one forward/backward per sample,
    /// merged sequentially. Kept as the ground truth the batched path is
    /// equivalence-tested against.
    pub fn batch_gradients_reference(
        &self,
        samples: &[Sample],
        tuning: Option<&HashSet<ExpertKey>>,
    ) -> GradientSet {
        let head_shape = match &self.cls_head {
            Some(h) => h.shape(),
            None => self.lm_head.shape(),
        };
        let mut total = GradientSet {
            expert_grads: HashMap::new(),
            head_grad: Matrix::zeros(head_shape.0, head_shape.1),
            loss: 0.0,
            samples: 0,
        };
        for sample in samples {
            let g = self.sample_gradients(sample, tuning);
            total.merge(g);
        }
        total
    }

    /// One local SGD step on a batch: accumulates gradients, averages them,
    /// and updates the tuning experts plus the task head. Returns the mean
    /// loss.
    pub fn train_step(
        &mut self,
        samples: &[Sample],
        tuning: Option<&HashSet<ExpertKey>>,
        learning_rate: f32,
    ) -> f32 {
        if samples.is_empty() {
            return 0.0;
        }
        let mut grads = self.batch_gradients(samples, tuning);
        let scale = 1.0 / grads.samples.max(1) as f32;
        grads.head_grad.scale_in_place(scale);
        for g in grads.expert_grads.values_mut() {
            g.scale(scale);
        }
        self.apply_gradients(&grads, learning_rate);
        grads.loss
    }

    /// Applies a gradient set with plain SGD.
    pub fn apply_gradients(&mut self, grads: &GradientSet, learning_rate: f32) {
        for (key, grad) in &grads.expert_grads {
            if key.layer < self.layers.len()
                && key.expert < self.layers[key.layer].moe.num_experts()
            {
                self.layers[key.layer].moe.experts[key.expert].apply_sgd(grad, learning_rate);
            }
        }
        let head = match &mut self.cls_head {
            Some(h) => h,
            None => &mut self.lm_head,
        };
        if head.shape() == grads.head_grad.shape() {
            head.add_scaled(&grads.head_grad, -learning_rate)
                .expect("head gradient shape");
        }
    }

    /// Predicts one sample's output from its final hidden states (greedy
    /// decoding for generation, argmax for classification).
    fn predict_from_hidden(&self, sample: &Sample, final_hidden: &Matrix) -> Prediction {
        match &sample.task {
            Task::Generation { reference } => {
                let seq = final_hidden.rows();
                let r = reference.len().min(seq);
                let rows: Vec<usize> = (seq - r..seq).collect();
                let logits = final_hidden.select_rows(&rows).matmul(&self.lm_head);
                let tokens = (0..logits.rows())
                    .map(|i| flux_tensor::stats::argmax(logits.row(i)).unwrap_or(0) as u32)
                    .collect();
                Prediction::Tokens(tokens)
            }
            Task::Classification { .. } => {
                let head = self
                    .cls_head
                    .as_ref()
                    .expect("classification sample requires a classification head");
                let seq = final_hidden.rows() as f32;
                let pooled: Vec<f32> = final_hidden.sum_rows().iter().map(|x| x / seq).collect();
                let pooled = Matrix::from_vec(1, self.config.d_model, pooled).expect("shape");
                let logits = pooled.matmul(head);
                Prediction::Class(flux_tensor::stats::argmax(logits.row(0)).unwrap_or(0))
            }
        }
    }

    /// Mean per-sample loss over a mini-batch, with one packed forward pass
    /// (no parameter or input gradients). Equal to averaging the
    /// [`MoeModel::sample_gradients`] loss over the samples — SPSA loss
    /// probes call this so each perturbation evaluation pays one batched
    /// forward.
    pub fn batch_loss(&self, samples: &[&Sample]) -> f32 {
        if samples.is_empty() {
            return 0.0;
        }
        let (final_hidden, batch) = self.forward_no_cache_batch(samples);
        let mut sum = 0.0;
        for (sample, &(start, end)) in samples.iter().zip(batch.bounds()) {
            let segment = final_hidden.copy_rows(start, end);
            sum += self.head_loss(sample, &segment);
            segment.recycle();
        }
        final_hidden.recycle();
        sum / samples.len() as f32
    }

    /// Head loss from the final hidden states, with no gradient work: the
    /// loss halves of the [`MoeModel::loss_and_head_grads`] branches without
    /// the head/hidden gradient matmuls those also pay.
    fn head_loss(&self, sample: &Sample, final_hidden: &Matrix) -> f32 {
        match &sample.task {
            Task::Generation { reference } => {
                let seq = final_hidden.rows();
                let r = reference.len().min(seq);
                let tail_start = seq - r;
                let rows: Vec<usize> = (tail_start..seq).collect();
                let tail_hidden = final_hidden.select_rows(&rows);
                let logits = tail_hidden.matmul(&self.lm_head);
                let targets: Vec<usize> = reference[reference.len() - r..]
                    .iter()
                    .map(|&t| (t as usize).min(self.config.vocab_size - 1))
                    .collect();
                let loss = ops::cross_entropy_loss(&logits, &targets);
                logits.recycle();
                loss
            }
            Task::Classification { label, .. } => {
                let head = self
                    .cls_head
                    .as_ref()
                    .expect("classification sample requires a classification head");
                let seq = final_hidden.rows() as f32;
                let pooled_vec: Vec<f32> =
                    final_hidden.sum_rows().iter().map(|x| x / seq).collect();
                let pooled = Matrix::from_vec(1, self.config.d_model, pooled_vec).expect("shape");
                let logits = pooled.matmul(head);
                let loss = ops::cross_entropy_loss(&logits, &[*label]);
                logits.recycle();
                loss
            }
        }
    }

    /// Evaluates the model on a dataset: mean ROUGE-L for generation, exact
    /// match accuracy for classification, plus the mean loss.
    pub fn evaluate(&self, dataset: &Dataset) -> EvalResult {
        if dataset.is_empty() {
            return EvalResult {
                score: 0.0,
                loss: 0.0,
                samples: 0,
            };
        }
        let mut score_sum = 0.0;
        let mut loss_sum = 0.0;
        // Packed batched forward per chunk; per-sample scoring reads each
        // sample's row block (bit-identical to the per-sample forward).
        for chunk in dataset.samples.chunks(EVAL_BATCH) {
            let refs: Vec<&Sample> = chunk.iter().collect();
            let (final_hidden, batch) = self.forward_no_cache_batch(&refs);
            for (sample, &(start, end)) in chunk.iter().zip(batch.bounds()) {
                let segment = final_hidden.copy_rows(start, end);
                loss_sum += self.head_loss(sample, &segment);
                match (&sample.task, self.predict_from_hidden(sample, &segment)) {
                    (Task::Generation { reference }, Prediction::Tokens(pred)) => {
                        score_sum += flux_metrics_rouge(&pred, reference);
                    }
                    (Task::Classification { label, .. }, Prediction::Class(pred))
                        if pred == *label =>
                    {
                        score_sum += 1.0;
                    }
                    _ => {}
                }
                segment.recycle();
            }
            final_hidden.recycle();
        }
        let n = dataset.len() as f32;
        EvalResult {
            score: score_sum / n,
            loss: loss_sum / n,
            samples: dataset.len(),
        }
    }

    /// Mean-pooled final hidden state of a sample, used as the "final token
    /// embeddings" in the paper's output-error measurements (Fig. 8).
    pub fn final_embedding(&self, sample: &Sample) -> Vec<f32> {
        let (final_hidden, _) = self.forward_no_cache_batch(&[sample]);
        let seq = final_hidden.rows() as f32;
        final_hidden.sum_rows().iter().map(|x| x / seq).collect()
    }

    /// Runs a forward-only profiling pass over a dataset, recording expert
    /// activation into a fresh tracker and returning the resulting profile.
    ///
    /// The pass runs batched: samples are packed [`EVAL_BATCH`] at a time
    /// and the tracker attributes each packed row to its sample via the
    /// row→sample map, producing the identical profile the per-sample loop
    /// produced (row order within each `(layer, expert)` bucket is
    /// unchanged, so even the f32 attention sums accumulate in the same
    /// order). The final layer norm is skipped — no profiling signal reads
    /// the normalized output.
    pub fn profile(&self, dataset: &Dataset) -> ActivationProfile {
        let mut tracker = ActivationTracker::new(
            (0..self.layers.len())
                .map(|l| self.layers[l].moe.num_original_experts())
                .collect(),
        );
        for (chunk_idx, chunk) in dataset.samples.chunks(EVAL_BATCH).enumerate() {
            let refs: Vec<&Sample> = chunk.iter().collect();
            let (mut hidden, batch) = self.embed_batch(&refs);
            let mut row_samples = Vec::with_capacity(batch.total_tokens());
            for (i, &(start, end)) in batch.bounds().iter().enumerate() {
                row_samples.extend(std::iter::repeat_n(chunk_idx * EVAL_BATCH + i, end - start));
            }
            for (idx, layer) in self.layers.iter().enumerate() {
                let next = layer.forward_no_cache_batch(
                    &hidden,
                    batch.bounds(),
                    idx,
                    Some((&mut tracker, &row_samples)),
                );
                hidden.recycle();
                hidden = next;
            }
            hidden.recycle();
        }
        tracker.finish()
    }
}

impl GradientSet {
    /// Merges another gradient set into this one (sums gradients and losses).
    pub fn merge(&mut self, other: GradientSet) {
        for (key, grad) in other.expert_grads {
            match self.expert_grads.get_mut(&key) {
                Some(existing) => existing.accumulate(&grad),
                None => {
                    self.expert_grads.insert(key, grad);
                }
            }
        }
        if self.head_grad.shape() == other.head_grad.shape() {
            self.head_grad
                .add_scaled(&other.head_grad, 1.0)
                .expect("same shape");
        }
        self.loss = (self.loss * self.samples as f32 + other.loss * other.samples as f32)
            / (self.samples + other.samples).max(1) as f32;
        self.samples += other.samples;
    }
}

/// Local ROUGE-L used by evaluation (duplicated from `flux-metrics` to keep
/// the dependency graph acyclic: `flux-metrics` stays independent of the
/// model crates).
fn flux_metrics_rouge(candidate: &[u32], reference: &[u32]) -> f32 {
    if candidate.is_empty() || reference.is_empty() {
        return 0.0;
    }
    let mut prev = vec![0usize; reference.len() + 1];
    let mut cur = vec![0usize; reference.len() + 1];
    for &ai in candidate {
        for (j, &bj) in reference.iter().enumerate() {
            cur[j + 1] = if ai == bj {
                prev[j] + 1
            } else {
                prev[j + 1].max(cur[j])
            };
        }
        std::mem::swap(&mut prev, &mut cur);
        cur.fill(0);
    }
    let lcs = prev[reference.len()] as f32;
    if lcs == 0.0 {
        return 0.0;
    }
    let p = lcs / candidate.len() as f32;
    let r = lcs / reference.len() as f32;
    2.0 * p * r / (p + r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flux_data::{DatasetGenerator, DatasetKind};

    fn tiny_model(seed: u64) -> MoeModel {
        let mut rng = SeededRng::new(seed);
        MoeModel::new(MoeConfig::tiny(), &mut rng)
    }

    fn tiny_cls_model(seed: u64, classes: usize) -> MoeModel {
        let mut rng = SeededRng::new(seed);
        MoeModel::new(MoeConfig::tiny().with_classes(classes), &mut rng)
    }

    fn gen_sample(seed: u64) -> Sample {
        let mut rng = SeededRng::new(seed);
        DatasetGenerator::for_kind(DatasetKind::Dolly, 64).generate_sample(0, &mut rng)
    }

    fn cls_sample(seed: u64) -> Sample {
        let mut rng = SeededRng::new(seed);
        let cfg = flux_data::DatasetConfig::for_kind(DatasetKind::Piqa, 64).with_mean_seq_len(10);
        DatasetGenerator::new(cfg).generate_sample(1, &mut rng)
    }

    #[test]
    fn model_construction_and_param_count() {
        let model = tiny_model(1);
        assert_eq!(model.num_params(), model.config.total_params());
        assert_eq!(model.expert_keys().len(), 4 * 8);
        assert_eq!(model.experts_per_layer(), vec![8, 8, 8, 8]);
    }

    #[test]
    fn forward_produces_final_hidden() {
        let model = tiny_model(2);
        let cache = model.forward(&[1, 2, 3, 4, 5]);
        assert_eq!(cache.final_hidden.shape(), (5, 16));
        assert!(cache.final_hidden.as_slice().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn out_of_vocab_tokens_are_clamped() {
        let model = tiny_model(3);
        let cache = model.forward(&[9999, 0, 63]);
        assert_eq!(cache.final_hidden.rows(), 3);
    }

    #[test]
    fn generation_gradients_have_expected_shapes() {
        let model = tiny_model(4);
        let sample = gen_sample(5);
        let grads = model.sample_gradients(&sample, None);
        assert!(grads.loss > 0.0);
        assert!(!grads.expert_grads.is_empty());
        assert_eq!(grads.head_grad.shape(), (16, 64));
    }

    #[test]
    fn classification_gradients_have_expected_shapes() {
        let model = tiny_cls_model(6, 2);
        let sample = cls_sample(7);
        let grads = model.sample_gradients(&sample, None);
        assert!(grads.loss > 0.0);
        assert_eq!(grads.head_grad.shape(), (16, 2));
    }

    #[test]
    fn tuning_set_limits_expert_gradients() {
        let model = tiny_model(8);
        let sample = gen_sample(9);
        let all = model.sample_gradients(&sample, None);
        let mut tuning = HashSet::new();
        tuning.insert(ExpertKey::new(0, 0));
        tuning.insert(ExpertKey::new(1, 1));
        let restricted = model.sample_gradients(&sample, Some(&tuning));
        assert!(restricted.expert_grads.len() <= 2);
        assert!(restricted.expert_grads.keys().all(|k| tuning.contains(k)));
        assert!(all.expert_grads.len() >= restricted.expert_grads.len());
    }

    #[test]
    fn training_reduces_loss_on_small_classification_task() {
        let mut model = tiny_cls_model(10, 2);
        let mut rng = SeededRng::new(11);
        let cfg = flux_data::DatasetConfig::for_kind(DatasetKind::Piqa, 64)
            .with_num_samples(16)
            .with_mean_seq_len(8);
        let ds = DatasetGenerator::new(cfg).generate(&mut rng);
        let before = model.evaluate(&ds).loss;
        for _ in 0..15 {
            model.train_step(&ds.samples, None, 0.05);
        }
        let after = model.evaluate(&ds).loss;
        assert!(after < before, "loss should drop: {before} -> {after}");
    }

    #[test]
    fn training_improves_rouge_on_generation_task() {
        let mut model = tiny_model(12);
        let mut rng = SeededRng::new(13);
        let cfg = flux_data::DatasetConfig::for_kind(DatasetKind::Dolly, 64)
            .with_num_samples(12)
            .with_mean_seq_len(10);
        let ds = DatasetGenerator::new(cfg).generate(&mut rng);
        let before = model.evaluate(&ds);
        for _ in 0..20 {
            model.train_step(&ds.samples, None, 0.05);
        }
        let after = model.evaluate(&ds);
        assert!(
            after.loss < before.loss,
            "loss should drop: {} -> {}",
            before.loss,
            after.loss
        );
    }

    #[test]
    fn quantized_copy_perturbs_weights_but_keeps_shapes() {
        let model = tiny_model(14);
        let q2 = model.quantized_copy(BitWidth::Int2);
        let q8 = model.quantized_copy(BitWidth::Int8);
        assert_eq!(q2.num_params(), model.num_params());
        // INT2 perturbs weights more than INT8.
        let dist = |a: &MoeModel, b: &MoeModel| {
            a.layers[0].moe.experts[0]
                .w1
                .sub(&b.layers[0].moe.experts[0].w1)
                .unwrap()
                .frobenius_norm()
        };
        assert!(dist(&q2, &model) > dist(&q8, &model));
    }

    #[test]
    fn param_checksum_tracks_aggregation_visible_state() {
        let model = tiny_model(41);
        let same = model.clone();
        assert_eq!(model.param_checksum(), same.param_checksum());
        // Touching one expert weight changes the checksum.
        let mut touched = model.clone();
        let key = ExpertKey::new(0, 0);
        let v = touched.expert(key).w1.get(0, 0);
        touched.expert_mut(key).w1.set(0, 0, v + 1.0);
        assert_ne!(model.param_checksum(), touched.param_checksum());
        // So does touching the head.
        let mut head_touched = model.clone();
        let v = head_touched.active_head().get(0, 0);
        head_touched.active_head_mut().set(0, 0, v + 1.0);
        assert_ne!(model.param_checksum(), head_touched.param_checksum());
    }

    #[test]
    fn active_head_prefers_classification_head() {
        let mut rng = SeededRng::new(42);
        let with_cls = MoeModel::new(MoeConfig::tiny().with_classes(4), &mut rng);
        assert_eq!(
            with_cls.active_head().shape(),
            with_cls.cls_head.as_ref().unwrap().shape()
        );
        let mut rng = SeededRng::new(42);
        let without = MoeModel::new(MoeConfig::tiny(), &mut rng);
        assert_eq!(without.active_head().shape(), without.lm_head.shape());
    }

    #[test]
    fn profile_reports_topk_mass_per_layer() {
        let model = tiny_model(15);
        let mut rng = SeededRng::new(16);
        let cfg = flux_data::DatasetConfig::for_kind(DatasetKind::Gsm8k, 64)
            .with_num_samples(8)
            .with_mean_seq_len(8);
        let ds = DatasetGenerator::new(cfg).generate(&mut rng);
        let profile = model.profile(&ds);
        assert_eq!(profile.num_layers(), 4);
        for layer in 0..4 {
            let total: f32 = profile.frequencies[layer].iter().sum();
            assert!((total - 2.0).abs() < 1e-3, "layer {layer} total {total}");
        }
    }

    #[test]
    fn final_embedding_is_deterministic_and_sized() {
        let model = tiny_model(17);
        let sample = gen_sample(18);
        let a = model.final_embedding(&sample);
        let b = model.final_embedding(&sample);
        assert_eq!(a.len(), 16);
        assert_eq!(a, b);
    }

    #[test]
    fn set_layer_experts_rewires_routing() {
        let mut model = tiny_model(19);
        let merged = Expert::weighted_merge(
            &[
                &model.layers[0].moe.experts[4],
                &model.layers[0].moe.experts[5],
                &model.layers[0].moe.experts[6],
                &model.layers[0].moe.experts[7],
            ],
            &[1.0; 4],
        );
        let mut experts: Vec<Expert> = model.layers[0].moe.experts[..4].to_vec();
        experts.push(merged);
        let map = RoutingMap::from_table(vec![0, 1, 2, 3, 4, 4, 4, 4]);
        model.set_layer_experts(0, experts, map);
        assert_eq!(model.layers[0].moe.num_experts(), 5);
        // Forward still works.
        let cache = model.forward(&[1, 2, 3]);
        assert_eq!(cache.final_hidden.rows(), 3);
    }

    #[test]
    #[should_panic(expected = "cover every original expert")]
    fn set_layer_experts_validates_map_length() {
        let mut model = tiny_model(20);
        let experts = model.layers[0].moe.experts[..2].to_vec();
        model.set_layer_experts(0, experts, RoutingMap::from_table(vec![0, 1]));
    }

    #[test]
    fn gradient_merge_accumulates() {
        let model = tiny_model(21);
        let s1 = gen_sample(22);
        let s2 = gen_sample(23);
        let batch = model.batch_gradients(&[s1.clone(), s2.clone()], None);
        assert_eq!(batch.samples, 2);
        let single = model.sample_gradients(&s1, None);
        assert!(batch.expert_grads.len() >= single.expert_grads.len());
    }

    #[test]
    fn evaluate_empty_dataset() {
        let model = tiny_model(24);
        let ds = Dataset {
            kind: DatasetKind::Dolly,
            vocab_size: 64,
            samples: vec![],
        };
        let r = model.evaluate(&ds);
        assert_eq!(r.samples, 0);
        assert_eq!(r.score, 0.0);
    }
}
