//! Per-round seeded cohort sampling.
//!
//! Production fleets register far more clients than any round can use: the
//! server samples K of N registered clients per round and only those K are
//! dispatched (and materialized). The sampler here is a **pure function**
//! of `(seed, num_clients, cohort_size, round)` — it holds no mutable
//! state, so checkpoint/restore needs only the three scalars (all already
//! part of the run fingerprint) to replay the identical cohort sequence,
//! and thread count or execution schedule cannot perturb it.

use flux_tensor::SeededRng;

/// Deterministic K-of-N cohort sampler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CohortSampler {
    num_clients: usize,
    cohort_size: usize,
    seed: u64,
}

impl CohortSampler {
    /// A sampler drawing `cohort_size` of `num_clients` clients per round
    /// (clamped to the fleet size; a cohort of 0 is promoted to 1).
    pub fn new(num_clients: usize, cohort_size: usize, seed: u64) -> Self {
        assert!(num_clients > 0, "cannot sample from an empty fleet");
        Self {
            num_clients,
            cohort_size: cohort_size.clamp(1, num_clients),
            seed,
        }
    }

    /// Number of registered clients sampled from.
    pub fn num_clients(&self) -> usize {
        self.num_clients
    }

    /// Clients per round after clamping.
    pub fn cohort_size(&self) -> usize {
        self.cohort_size
    }

    /// The stable client ids of round `round`'s cohort, ascending.
    ///
    /// A partial Fisher–Yates over `0..N` driven by a per-round derived
    /// stream: pure in `(seed, round)`, so any round's cohort can be
    /// recomputed in isolation — mid-round restore re-derives the exact
    /// cohort without persisting any draw state.
    pub fn cohort(&self, round: usize) -> Vec<usize> {
        let k = self.cohort_size;
        if k >= self.num_clients {
            return (0..self.num_clients).collect();
        }
        let mut rng = SeededRng::new(self.seed).derive(round as u64 + 1);
        let mut ids: Vec<usize> = (0..self.num_clients).collect();
        for i in 0..k {
            let j = i + rng.below(self.num_clients - i);
            ids.swap(i, j);
        }
        ids.truncate(k);
        ids.sort_unstable();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cohorts_are_pure_and_replayable() {
        let a = CohortSampler::new(100, 8, 42);
        let b = CohortSampler::new(100, 8, 42);
        for round in 0..10 {
            assert_eq!(a.cohort(round), b.cohort(round));
        }
        // Rounds can be recomputed out of order.
        let late = a.cohort(7);
        let _ = a.cohort(0);
        assert_eq!(a.cohort(7), late);
    }

    #[test]
    fn cohorts_are_sorted_unique_and_in_range() {
        let s = CohortSampler::new(50, 12, 7);
        for round in 0..20 {
            let cohort = s.cohort(round);
            assert_eq!(cohort.len(), 12);
            assert!(cohort.windows(2).all(|w| w[0] < w[1]), "sorted + unique");
            assert!(cohort.iter().all(|&id| id < 50));
        }
    }

    #[test]
    fn cohorts_vary_across_rounds_and_seeds() {
        let s = CohortSampler::new(1000, 32, 1);
        assert_ne!(s.cohort(0), s.cohort(1));
        let t = CohortSampler::new(1000, 32, 2);
        assert_ne!(s.cohort(0), t.cohort(0));
    }

    #[test]
    fn full_participation_and_clamping() {
        // K >= N → everyone, in id order (full participation).
        let s = CohortSampler::new(5, 9, 3);
        assert_eq!(s.cohort(4), vec![0, 1, 2, 3, 4]);
        assert_eq!(s.cohort_size(), 5);
        // K = 0 is promoted to one participant.
        let s = CohortSampler::new(5, 0, 3);
        assert_eq!(s.cohort(0).len(), 1);
    }

    #[test]
    fn every_client_is_eventually_sampled() {
        let s = CohortSampler::new(20, 4, 11);
        let mut seen = [false; 20];
        for round in 0..200 {
            for id in s.cohort(round) {
                seen[id] = true;
            }
        }
        assert!(seen.iter().all(|&v| v), "sampling starves some clients");
    }
}
