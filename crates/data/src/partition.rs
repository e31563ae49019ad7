//! Non-IID partitioning of a dataset across federated participants.
//!
//! The paper partitions every dataset "into non-IID subsets following the
//! FedNLP benchmark", i.e. Dirichlet label/topic skew: for every topic, the
//! per-participant share is drawn from `Dirichlet(alpha)`, so small `alpha`
//! concentrates a topic on a few participants. An IID splitter is provided
//! for ablations.

use serde::{Deserialize, Serialize};

use flux_tensor::SeededRng;

use crate::dataset::Dataset;

/// Configuration of the non-IID partitioner.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PartitionConfig {
    /// Number of participants to split across.
    pub num_participants: usize,
    /// Dirichlet concentration; smaller is more skewed. FedNLP commonly uses
    /// 0.1–1.0; the reproduction defaults to 0.5.
    pub alpha: f32,
    /// Minimum number of samples every participant must receive.
    pub min_samples_per_participant: usize,
}

impl PartitionConfig {
    /// Creates a config with the default `alpha = 0.5` skew.
    pub fn new(num_participants: usize) -> Self {
        Self {
            num_participants,
            alpha: 0.5,
            min_samples_per_participant: 2,
        }
    }

    /// Overrides the Dirichlet concentration.
    pub fn with_alpha(mut self, alpha: f32) -> Self {
        self.alpha = alpha;
        self
    }
}

/// Computes the IID split (round-robin after shuffling) as index shards:
/// shard `p` lists the dataset rows participant `p` owns.
pub fn partition_indices_iid(
    num_samples: usize,
    num_participants: usize,
    rng: &mut SeededRng,
) -> Vec<Vec<usize>> {
    assert!(num_participants > 0, "need at least one participant");
    let mut indices: Vec<usize> = (0..num_samples).collect();
    rng.shuffle(&mut indices);
    let mut shards: Vec<Vec<usize>> = vec![Vec::new(); num_participants];
    for (i, idx) in indices.into_iter().enumerate() {
        shards[i % num_participants].push(idx);
    }
    shards
}

/// Splits a dataset non-IID by topic with Dirichlet skew, as index shards.
///
/// For every topic, the samples of that topic are distributed to
/// participants according to a fresh `Dirichlet(alpha)` draw. Afterwards a
/// rebalancing pass moves samples from the largest shards to any shard below
/// `min_samples_per_participant`, so no participant starves. Shard `p` lists
/// the dataset rows participant `p` owns; [`Dataset::subset`] materializes
/// it.
pub fn partition_indices_non_iid(
    dataset: &Dataset,
    config: &PartitionConfig,
    rng: &mut SeededRng,
) -> Vec<Vec<usize>> {
    assert!(config.num_participants > 0, "need at least one participant");
    let n = config.num_participants;
    let mut shards: Vec<Vec<usize>> = vec![Vec::new(); n];

    // Group sample indices by topic.
    let max_topic = dataset.samples.iter().map(|s| s.topic).max().unwrap_or(0);
    let mut by_topic: Vec<Vec<usize>> = vec![Vec::new(); max_topic + 1];
    for (i, s) in dataset.samples.iter().enumerate() {
        by_topic[s.topic].push(i);
    }

    for topic_samples in by_topic.iter().filter(|t| !t.is_empty()) {
        let shares = rng.dirichlet(config.alpha, n);
        // Turn shares into integer counts with largest-remainder rounding.
        let total = topic_samples.len();
        let mut counts: Vec<usize> = shares
            .iter()
            .map(|&s| (s * total as f32).floor() as usize)
            .collect();
        let mut assigned: usize = counts.iter().sum();
        // Distribute the remainder to the participants with the largest shares.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            shares[b]
                .partial_cmp(&shares[a])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut cursor = 0;
        while assigned < total {
            counts[order[cursor % n]] += 1;
            assigned += 1;
            cursor += 1;
        }
        // Hand out the samples in shuffled order.
        let mut pool = topic_samples.clone();
        rng.shuffle(&mut pool);
        let mut offset = 0;
        for (p, &count) in counts.iter().enumerate() {
            shards[p].extend_from_slice(&pool[offset..offset + count]);
            offset += count;
        }
    }

    rebalance(&mut shards, config.min_samples_per_participant);
    shards
}

/// Moves samples from the largest shards into shards below the minimum.
fn rebalance(shards: &mut [Vec<usize>], min_per_shard: usize) {
    loop {
        let Some(smallest) = (0..shards.len()).min_by_key(|&i| shards[i].len()) else {
            return;
        };
        if shards[smallest].len() >= min_per_shard {
            return;
        }
        let Some(largest) = (0..shards.len()).max_by_key(|&i| shards[i].len()) else {
            return;
        };
        if largest == smallest || shards[largest].len() <= min_per_shard {
            // Nothing left to take without starving the donor.
            return;
        }
        let moved = shards[largest].pop().expect("largest shard is non-empty");
        shards[smallest].push(moved);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetKind;
    use crate::generator::DatasetGenerator;

    fn dataset(seed: u64) -> Dataset {
        let mut rng = SeededRng::new(seed);
        DatasetGenerator::for_kind(DatasetKind::Mmlu, 256).generate(&mut rng)
    }

    /// Materializes index shards into their per-participant datasets.
    fn materialize(ds: &Dataset, shards: &[Vec<usize>]) -> Vec<Dataset> {
        shards.iter().map(|s| ds.subset(s)).collect()
    }

    #[test]
    fn iid_partition_covers_all_samples() {
        let ds = dataset(1);
        let mut rng = SeededRng::new(2);
        let shards = materialize(&ds, &partition_indices_iid(ds.len(), 10, &mut rng));
        assert_eq!(shards.len(), 10);
        let total: usize = shards.iter().map(Dataset::len).sum();
        assert_eq!(total, ds.len());
        // Shards are balanced within one sample.
        let max = shards.iter().map(Dataset::len).max().unwrap();
        let min = shards.iter().map(Dataset::len).min().unwrap();
        assert!(max - min <= 1);
    }

    #[test]
    fn non_iid_partition_covers_all_samples() {
        let ds = dataset(3);
        let mut rng = SeededRng::new(4);
        let cfg = PartitionConfig::new(10).with_alpha(0.3);
        let shards = materialize(&ds, &partition_indices_non_iid(&ds, &cfg, &mut rng));
        assert_eq!(shards.len(), 10);
        let total: usize = shards.iter().map(Dataset::len).sum();
        assert_eq!(total, ds.len());
    }

    #[test]
    fn non_iid_is_more_skewed_than_iid() {
        let ds = dataset(5);
        let mut rng = SeededRng::new(6);
        let iid = materialize(&ds, &partition_indices_iid(ds.len(), 8, &mut rng));
        let cfg = PartitionConfig::new(8).with_alpha(0.1);
        let non_iid = materialize(&ds, &partition_indices_non_iid(&ds, &cfg, &mut rng));

        // Measure topic skew as the mean (over shards) of the max topic share.
        let skew = |shards: &[Dataset]| {
            let mut total = 0.0f32;
            let mut counted = 0.0f32;
            for s in shards {
                if s.is_empty() {
                    continue;
                }
                let hist = s.topic_histogram();
                let max = *hist.iter().max().unwrap() as f32;
                total += max / s.len() as f32;
                counted += 1.0;
            }
            total / counted.max(1.0)
        };
        assert!(
            skew(&non_iid) > skew(&iid),
            "non-IID split should concentrate topics"
        );
    }

    #[test]
    fn every_participant_gets_minimum_samples() {
        let ds = dataset(7);
        let mut rng = SeededRng::new(8);
        let cfg = PartitionConfig {
            num_participants: 20,
            alpha: 0.05,
            min_samples_per_participant: 3,
        };
        let shards = materialize(&ds, &partition_indices_non_iid(&ds, &cfg, &mut rng));
        assert!(shards.iter().all(|s| s.len() >= 3));
    }

    #[test]
    fn partition_is_deterministic() {
        let ds = dataset(9);
        let cfg = PartitionConfig::new(5);
        let a = materialize(
            &ds,
            &partition_indices_non_iid(&ds, &cfg, &mut SeededRng::new(10)),
        );
        let b = materialize(
            &ds,
            &partition_indices_non_iid(&ds, &cfg, &mut SeededRng::new(10)),
        );
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.samples, y.samples);
        }
    }

    #[test]
    fn single_participant_gets_everything() {
        let ds = dataset(11);
        let mut rng = SeededRng::new(12);
        let shards = partition_indices_non_iid(&ds, &PartitionConfig::new(1), &mut rng);
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0].len(), ds.len());
    }
}
