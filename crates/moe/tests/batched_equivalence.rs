//! Batched-vs-per-sample training equivalence.
//!
//! The batched path (`MoeModel::batch_gradients`) packs all samples of a
//! mini-batch into one activation matrix per layer. Per-token activations
//! are bit-identical to the per-sample reference because every row-parallel
//! kernel's accumulation order is independent of the operand's row count;
//! accumulated parameter gradients differ only by float-summation order.
//! These tests pin both properties across batch sizes 1, the paper's 16,
//! and a ragged batch of mixed sequence lengths.

use std::collections::HashSet;

use flux_data::{DatasetConfig, DatasetGenerator, DatasetKind, Sample};
use flux_moe::attention::Attention;
use flux_moe::{ExpertKey, GradientSet, MoeConfig, MoeModel};
use flux_tensor::simd::{self, SimdLevel};
use flux_tensor::{Matrix, SeededRng};

/// Documented tolerance of the batched path: accumulated f32 gradients may
/// differ from the sequential reference by summation order only.
const REL_TOL: f32 = 1e-4;

fn gen_model(seed: u64) -> MoeModel {
    let mut rng = SeededRng::new(seed);
    MoeModel::new(MoeConfig::tiny(), &mut rng)
}

fn cls_model(seed: u64, classes: usize) -> MoeModel {
    let mut rng = SeededRng::new(seed);
    MoeModel::new(MoeConfig::tiny().with_classes(classes), &mut rng)
}

fn gen_samples(seed: u64, n: usize) -> Vec<Sample> {
    let mut rng = SeededRng::new(seed);
    let cfg = DatasetConfig::for_kind(DatasetKind::Dolly, 64)
        .with_num_samples(n)
        .with_mean_seq_len(9);
    DatasetGenerator::new(cfg).generate(&mut rng).samples
}

fn cls_samples(seed: u64, n: usize) -> Vec<Sample> {
    let mut rng = SeededRng::new(seed);
    let cfg = DatasetConfig::for_kind(DatasetKind::Piqa, 64)
        .with_num_samples(n)
        .with_mean_seq_len(8);
    DatasetGenerator::new(cfg).generate(&mut rng).samples
}

fn assert_matrices_close(a: &Matrix, b: &Matrix, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what} shape");
    let scale = b.frobenius_norm().max(1.0);
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert!(
            (x - y).abs() <= REL_TOL * scale,
            "{what} entry {i}: batched {x} vs reference {y} (scale {scale})"
        );
    }
}

fn assert_gradients_equivalent(batched: &GradientSet, reference: &GradientSet) {
    assert_eq!(batched.samples, reference.samples, "sample counts");
    assert!(
        (batched.loss - reference.loss).abs() <= REL_TOL * reference.loss.abs().max(1.0),
        "loss: batched {} vs reference {}",
        batched.loss,
        reference.loss
    );
    assert_matrices_close(&batched.head_grad, &reference.head_grad, "head_grad");
    let batched_keys: HashSet<_> = batched.expert_grads.keys().copied().collect();
    let reference_keys: HashSet<_> = reference.expert_grads.keys().copied().collect();
    assert_eq!(batched_keys, reference_keys, "activated expert sets");
    for (key, b) in &batched.expert_grads {
        let r = &reference.expert_grads[key];
        assert_eq!(b.token_count, r.token_count, "token_count of {key:?}");
        assert_matrices_close(&b.w1, &r.w1, "w1 grad");
        assert_matrices_close(&b.w2, &r.w2, "w2 grad");
        for ((x, y), name) in
            b.b1.iter()
                .zip(&r.b1)
                .map(|p| (p, "b1"))
                .chain(b.b2.iter().zip(&r.b2).map(|p| (p, "b2")))
        {
            assert!((x - y).abs() <= REL_TOL, "{name} grad: {x} vs {y}");
        }
    }
}

fn check_equivalence(model: &MoeModel, samples: &[Sample], tuning: Option<&HashSet<ExpertKey>>) {
    let batched = model.batch_gradients(samples, tuning);
    let reference = model.batch_gradients_reference(samples, tuning);
    assert_gradients_equivalent(&batched, &reference);
}

#[test]
fn batch_of_one_matches_reference() {
    let model = gen_model(1);
    let samples = gen_samples(2, 1);
    check_equivalence(&model, &samples, None);
}

#[test]
fn paper_batch_of_16_matches_reference() {
    let model = gen_model(3);
    let samples = gen_samples(4, 16);
    assert_eq!(samples.len(), 16);
    check_equivalence(&model, &samples, None);
}

#[test]
fn ragged_batch_matches_reference() {
    // Mixed sequence lengths in one packed batch (the generator draws
    // varying lengths around the mean).
    let model = gen_model(5);
    let samples = gen_samples(6, 10);
    let lengths: HashSet<usize> = samples.iter().map(|s| s.tokens.len()).collect();
    assert!(lengths.len() > 1, "batch should be ragged: {lengths:?}");
    check_equivalence(&model, &samples, None);
}

#[test]
fn classification_batches_match_reference() {
    let model = cls_model(7, 2);
    let samples = cls_samples(8, 16);
    check_equivalence(&model, &samples, None);
    check_equivalence(&model, &samples[..1], None);
    check_equivalence(&model, &samples[..5], None);
}

#[test]
fn tuning_restriction_matches_reference() {
    let model = gen_model(9);
    let samples = gen_samples(10, 8);
    let mut tuning = HashSet::new();
    tuning.insert(ExpertKey::new(0, 0));
    tuning.insert(ExpertKey::new(1, 3));
    tuning.insert(ExpertKey::new(3, 5));
    check_equivalence(&model, &samples, Some(&tuning));
}

#[test]
fn batched_forward_is_bit_identical_to_per_sample() {
    let model = gen_model(11);
    let samples = gen_samples(12, 6);
    let refs: Vec<&Sample> = samples.iter().collect();
    let cache = model.forward_batch(&refs);
    let (no_cache, no_cache_batch) = model.forward_no_cache_batch(&refs);
    assert_eq!(no_cache_batch.bounds(), cache.batch.bounds());
    for (sample, &(start, end)) in samples.iter().zip(cache.batch.bounds()) {
        let single = model.forward(&sample.tokens);
        for (path, packed) in [
            ("forward_batch", &cache.final_hidden),
            ("forward_no_cache_batch", &no_cache),
        ] {
            assert_eq!(
                packed.copy_rows(start, end).as_slice(),
                single.final_hidden.as_slice(),
                "{path}: packed final hidden must match the per-sample forward bitwise"
            );
        }
    }
}

/// The fused block-diagonal attention (one padded GEMM per stage over the
/// packed batch) must be bit-identical to running each sample through the
/// per-sample [`Attention::forward`]/[`Attention::backward`] alone — at every
/// SIMD dispatch level, over ragged bounds including length-1 samples.
#[test]
fn block_diag_attention_matches_per_sample_at_every_level() {
    let levels: Vec<SimdLevel> = [SimdLevel::Scalar, SimdLevel::Avx2]
        .into_iter()
        .filter(|&l| simd::is_supported(l))
        .collect();
    for level in levels {
        simd::with_level(level, || {
            let mut rng = SeededRng::new(17);
            let attn = Attention::new(8, &mut rng);
            // Ragged sample lengths, including the degenerate length-1 block.
            let lens = [4usize, 1, 7, 2];
            let samples: Vec<Matrix> = lens
                .iter()
                .map(|&l| Matrix::random_normal(l, 8, 1.0, &mut rng))
                .collect();
            let sample_refs: Vec<&Matrix> = samples.iter().collect();
            let packed = Matrix::vstack(&sample_refs).unwrap();
            let mut bounds = Vec::new();
            let mut at = 0;
            for &l in &lens {
                bounds.push((at, at + l));
                at += l;
            }
            let grad = Matrix::random_normal(at, 8, 1.0, &mut rng);

            let (out, cache) = attn.forward_batch(&packed, &bounds);
            let grad_in = attn.backward_batch(&cache, &bounds, &grad);
            for (sample, &(start, end)) in samples.iter().zip(&bounds) {
                let (out_s, cache_s) = attn.forward(sample);
                assert_eq!(
                    out.copy_rows(start, end).as_slice(),
                    out_s.as_slice(),
                    "forward diverged at {level:?} bounds {start}..{end}"
                );
                let grad_s = attn.backward(&cache_s, &grad.copy_rows(start, end));
                assert_eq!(
                    grad_in.copy_rows(start, end).as_slice(),
                    grad_s.as_slice(),
                    "backward diverged at {level:?} bounds {start}..{end}"
                );
            }
        });
    }
}

#[test]
fn batch_loss_matches_mean_sample_loss() {
    let model = cls_model(13, 4);
    let samples = cls_samples(14, 7);
    let refs: Vec<&Sample> = samples.iter().collect();
    let batched = model.batch_loss(&refs);
    let mean: f32 = samples
        .iter()
        .map(|s| model.sample_gradients(s, None).loss)
        .sum::<f32>()
        / samples.len() as f32;
    assert_eq!(batched, mean, "batched loss probe diverged");
    assert_eq!(model.batch_loss(&[]), 0.0);
}

#[test]
fn train_step_on_batched_path_reduces_loss() {
    let mut model = cls_model(15, 2);
    let samples = cls_samples(16, 12);
    let ds = flux_data::Dataset {
        kind: DatasetKind::Piqa,
        vocab_size: 64,
        samples: samples.clone(),
    };
    let before = model.evaluate(&ds).loss;
    for _ in 0..10 {
        model.train_step(&samples, None, 0.05);
    }
    let after = model.evaluate(&ds).loss;
    assert!(after < before, "loss should drop: {before} -> {after}");
}
