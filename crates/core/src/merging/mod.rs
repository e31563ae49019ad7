//! Adaptive merging of non-tuning experts (§5).
//!
//! Each participant keeps its tuning experts at full fidelity and replaces
//! the remaining (non-tuning) experts with a much smaller set of *merged*
//! experts so that the whole working set fits the memory budget `B_i`. The
//! pipeline has three stages, each in its own sub-module:
//!
//! 1. [`budget`] — split the non-tuning budget `B_non_i` across layers
//!    (Eq. 1): earlier layers and layers with balanced activation get more
//!    merged experts because errors there hurt more.
//! 2. [`cluster`] — group similar non-tuning experts with PCA-reduced
//!    features and a cross-layer *fused* constrained K-Means (one clustering
//!    problem for the whole model instead of one per layer).
//! 3. [`strategy`] — merge each cluster into a single expert with weights
//!    combining activation frequency and token attention (Eq. 2).
//!
//! [`CompactModelPlan`] stitches the stages together and builds the compact
//! per-participant model with a re-routed gate.

pub mod budget;
pub mod cluster;
pub mod plan;
pub mod strategy;

pub use budget::{layer_budgets, BudgetPolicy};
pub use cluster::{cluster_non_tuning_experts, ClusteringMode, ExpertClusters};
pub use plan::{CompactModelPlan, ExpertSlot};
pub use strategy::{merge_cluster, MergeStrategy};

use serde::{Deserialize, Serialize};

/// Configuration of the merging module.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MergingConfig {
    /// How the per-layer budgets are chosen.
    pub budget_policy: BudgetPolicy,
    /// How clusters are computed (fused across layers or per layer).
    pub clustering: ClusteringMode,
    /// How experts inside one cluster are combined.
    pub strategy: MergeStrategy,
    /// Dimensionality the expert features are reduced to before clustering.
    pub pca_dims: usize,
}

impl Default for MergingConfig {
    fn default() -> Self {
        Self {
            budget_policy: BudgetPolicy::Adaptive,
            clustering: ClusteringMode::Fused,
            strategy: MergeStrategy::AttentionFrequency,
            pca_dims: 8,
        }
    }
}

impl MergingConfig {
    /// Overrides the budget policy.
    pub fn with_budget_policy(mut self, policy: BudgetPolicy) -> Self {
        self.budget_policy = policy;
        self
    }

    /// Overrides the merge strategy.
    pub fn with_strategy(mut self, strategy: MergeStrategy) -> Self {
        self.strategy = strategy;
        self
    }
}
