//! Property-based tests for the MoE substrate: routing, merging,
//! checkpointing, and gradient-shape invariants.

use proptest::prelude::*;

use flux_moe::checkpoint;
use flux_moe::gating::Gate;
use flux_moe::{Expert, ExpertKey, MoeConfig, MoeModel, RoutingMap};
use flux_tensor::SeededRng;

fn tiny_model(seed: u64) -> MoeModel {
    let mut rng = SeededRng::new(seed);
    MoeModel::new(MoeConfig::tiny(), &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Top-k routing weights are a probability distribution and experts are
    /// distinct, for any token vector.
    #[test]
    fn routing_weights_form_distribution(
        seed in 0u64..500,
        token in prop::collection::vec(-3.0f32..3.0, 16),
        top_k in 1usize..5,
    ) {
        let mut rng = SeededRng::new(seed);
        let gate = Gate::new(16, 8, top_k, &mut rng);
        let routing = gate.route(&token);
        prop_assert_eq!(routing.experts.len(), top_k.min(8));
        let sum: f32 = routing.weights.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        let mut distinct = routing.experts.clone();
        distinct.sort_unstable();
        distinct.dedup();
        prop_assert_eq!(distinct.len(), routing.experts.len());
        // Full distribution is also a distribution.
        let full: f32 = routing.full_distribution.iter().sum();
        prop_assert!((full - 1.0).abs() < 1e-4);
    }

    /// A weighted merge of experts is always a convex combination: every
    /// parameter lies within the min/max envelope of the inputs.
    #[test]
    fn weighted_merge_is_convex_combination(
        seed in 0u64..500,
        w1 in 0.01f32..10.0,
        w2 in 0.01f32..10.0,
    ) {
        let mut rng = SeededRng::new(seed);
        let a = Expert::new(4, 8, &mut rng);
        let b = Expert::new(4, 8, &mut rng);
        let merged = Expert::weighted_merge(&[&a, &b], &[w1, w2]);
        for ((m, x), y) in merged
            .w1
            .as_slice()
            .iter()
            .zip(a.w1.as_slice())
            .zip(b.w1.as_slice())
        {
            let lo = x.min(*y) - 1e-5;
            let hi = x.max(*y) + 1e-5;
            prop_assert!((lo..=hi).contains(m), "{m} outside [{lo}, {hi}]");
        }
    }

    /// Checkpoint serialization round-trips the model exactly.
    #[test]
    fn checkpoint_round_trip(seed in 0u64..200) {
        let model = tiny_model(seed);
        let restored = checkpoint::from_bytes(&checkpoint::to_bytes(&model)).unwrap();
        prop_assert_eq!(restored.config, model.config);
        prop_assert_eq!(restored.embedding, model.embedding);
        prop_assert_eq!(restored.layers.len(), model.layers.len());
        for (a, b) in restored.layers.iter().zip(model.layers.iter()) {
            prop_assert_eq!(&a.moe.experts, &b.moe.experts);
        }
    }

    /// The forward pass is deterministic and finite for arbitrary token ids
    /// (out-of-vocabulary ids are clamped).
    #[test]
    fn forward_is_total_and_deterministic(
        seed in 0u64..100,
        tokens in prop::collection::vec(0u32..10_000, 1..12),
    ) {
        let model = tiny_model(seed);
        let a = model.forward(&tokens);
        let b = model.forward(&tokens);
        prop_assert_eq!(a.final_hidden.shape(), (tokens.len(), 16));
        prop_assert!(a.final_hidden.as_slice().iter().all(|x| x.is_finite()));
        prop_assert_eq!(a.final_hidden, b.final_hidden);
    }

    /// A routing map built from any valid merge grouping redirects every
    /// original expert to a valid compact expert.
    #[test]
    fn routing_map_total_coverage(groups in prop::collection::vec(0usize..4, 8)) {
        // Make the table dense: ensure every compact id up to the max is hit.
        let max = *groups.iter().max().unwrap();
        let mut table = groups.clone();
        let len = table.len();
        for compact in 0..=max {
            if !table.contains(&compact) {
                table[compact % len] = compact;
            }
        }
        let max = *table.iter().max().unwrap();
        for compact in 0..=max {
            prop_assume!(table.contains(&compact));
        }
        let map = RoutingMap::from_table(table.clone());
        prop_assert_eq!(map.num_original(), table.len());
        for (original, &compact) in table.iter().enumerate() {
            prop_assert_eq!(map.redirect(original), compact);
            prop_assert!(map.originals_of(compact).contains(&original));
        }
    }

    /// Expert gradients restricted to a tuning set never contain keys outside
    /// that set, for arbitrary tuning subsets.
    #[test]
    fn tuning_restriction_is_respected(seed in 0u64..50, picks in prop::collection::vec(0usize..32, 1..6)) {
        let model = tiny_model(seed);
        let mut rng = SeededRng::new(seed + 1000);
        let sample = flux_data::DatasetGenerator::for_kind(flux_data::DatasetKind::Dolly, 64)
            .generate_sample(0, &mut rng);
        let tuning: std::collections::HashSet<ExpertKey> = picks
            .iter()
            .map(|&p| ExpertKey::new(p / 8, p % 8))
            .collect();
        let grads = model.sample_gradients(&sample, Some(&tuning));
        prop_assert!(grads.expert_grads.keys().all(|k| tuning.contains(k)));
        prop_assert!(grads.loss.is_finite() && grads.loss >= 0.0);
    }
}
