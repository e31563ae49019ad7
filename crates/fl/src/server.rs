//! The multi-tenant parameter server.
//!
//! A [`ParameterServer`] hosts any number of *tenants* — independent
//! federated jobs, each with its own global model held in a per-shard
//! locked [`ShardedStore`]. Tenants never share mutable state: two
//! concurrent runs aggregate into disjoint stores, and even within one
//! tenant a round's per-shard reductions install under per-shard locks, so
//! nothing serializes on a model-wide write lock anymore (the scaling wall
//! this type used to have).
//!
//! The server itself is only the tenant registry: rounds, snapshots and
//! reads go through the tenant's [`ShardedStore`] handle that
//! [`ParameterServer::register_tenant`] (or
//! [`ParameterServer::adopt_tenant`]) returns.

use parking_lot::RwLock;
use std::sync::Arc;

use flux_moe::MoeModel;

use crate::store::ShardedStore;

/// Default number of expert shards a server partitions each tenant's
/// storage and aggregation into. Shards bound lock granularity during
/// incremental staging, the fan-out width of the parallel finalize, and the
/// write-lock granularity of the store install; the tiny/small presets have
/// dozens of experts, so eight shards keeps every shard populated without
/// contention.
pub const DEFAULT_SHARDS: usize = 8;

/// Central parameter server of the federated system.
///
/// Holds one [`ShardedStore`] per registered tenant. Each store aggregates
/// expert updates with FedAvg, *sharded and incremental*:
/// [`ShardedStore::begin_round`] opens a [`crate::ShardedAggregator`] that
/// participants (or the driver acting for them) feed as their uploads
/// arrive — from any thread, in any order — and
/// [`ShardedStore::apply_round`] reduces shard *i* and installs it under
/// the store's shard-*i* lock alone, so the global model is bit-identical
/// to the one-shot [`ShardedStore::aggregate`] no matter how updates
/// arrived and no lock covers the whole model. The registry is shared
/// across threads; tenants never touch each other's locks.
#[derive(Debug)]
pub struct ParameterServer {
    num_shards: usize,
    tenants: RwLock<Vec<Arc<ShardedStore>>>,
}

impl ParameterServer {
    /// Creates a server with no tenants yet (`num_shards` is clamped to at
    /// least 1); each run registers one, and the concurrent-run scheduler
    /// registers one per job.
    pub fn empty(num_shards: usize) -> Self {
        Self {
            num_shards: num_shards.max(1),
            tenants: RwLock::new(Vec::new()),
        }
    }

    /// Registers a new tenant around its initial global model and returns
    /// its store. The handle is how the tenant's run reads snapshots and
    /// applies rounds; no other tenant's locks are ever touched through it.
    pub fn register_tenant(&self, global_model: MoeModel) -> Arc<ShardedStore> {
        let store = Arc::new(ShardedStore::new(global_model, self.num_shards));
        self.tenants.write().push(Arc::clone(&store));
        store
    }

    /// Adopts an existing store — one restored from a durable checkpoint —
    /// as a tenant, instead of building a fresh one from a model.
    ///
    /// # Panics
    ///
    /// Panics when the store's shard count differs from the server's: a
    /// checkpoint taken under one sharding cannot be served under another
    /// (shard routing would disagree with the on-disk layout).
    pub fn adopt_tenant(&self, store: Arc<ShardedStore>) -> Arc<ShardedStore> {
        assert_eq!(
            store.num_shards(),
            self.num_shards,
            "restored store sharding must match the server"
        );
        self.tenants.write().push(Arc::clone(&store));
        store
    }

    /// The store of one tenant by registration index.
    ///
    /// # Panics
    ///
    /// Panics when no tenant with that index exists.
    pub fn tenant(&self, index: usize) -> Arc<ShardedStore> {
        Arc::clone(&self.tenants.read()[index])
    }

    /// Removes a tenant from the registry (matched by store identity),
    /// releasing the server's reference to its model. Returns whether the
    /// store was registered. A long-lived server hosting a stream of jobs
    /// must deregister each finished tenant or its models accumulate; the
    /// concurrent-run scheduler does this as each job completes. Callers
    /// holding their own `Arc` keep the store alive regardless.
    pub fn deregister_tenant(&self, store: &Arc<ShardedStore>) -> bool {
        let mut tenants = self.tenants.write();
        match tenants.iter().position(|t| Arc::ptr_eq(t, store)) {
            Some(index) => {
                tenants.remove(index);
                true
            }
            None => false,
        }
    }

    /// Number of registered tenants.
    pub fn num_tenants(&self) -> usize {
        self.tenants.read().len()
    }

    /// Number of expert shards per tenant.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{AggregationTree, ExpertUpdate};
    use flux_moe::{ExpertKey, MoeConfig};
    use flux_tensor::{Matrix, SeededRng};
    use threadpool::ThreadPool;

    fn model() -> MoeModel {
        let mut rng = SeededRng::new(1);
        MoeModel::new(MoeConfig::tiny(), &mut rng)
    }

    /// A tenant registered on a fresh server with `num_shards` shards.
    fn tenant_with_shards(num_shards: usize) -> Arc<ShardedStore> {
        ParameterServer::empty(num_shards).register_tenant(model())
    }

    fn tenant() -> Arc<ShardedStore> {
        tenant_with_shards(DEFAULT_SHARDS)
    }

    #[test]
    fn aggregate_replaces_updated_experts_only() {
        let store = tenant();
        let before = store.global_model();
        let key = ExpertKey::new(0, 0);
        let untouched = ExpertKey::new(3, 7);
        let mut rng = SeededRng::new(2);
        let new_expert = flux_moe::Expert::new(16, 32, &mut rng);
        store.aggregate(
            &[ExpertUpdate {
                key,
                expert: new_expert.clone(),
                weight: 1.0,
            }],
            &[],
        );
        let after = store.global_model();
        assert_eq!(after.expert(key), &new_expert);
        assert_eq!(after.expert(untouched), before.expert(untouched));
        assert_eq!(store.rounds_completed(), 1);
    }

    #[test]
    fn tree_round_installs_a_bit_identical_global_model() {
        let pool = ThreadPool::new(2);
        let mut rng = SeededRng::new(3);
        let uploads: Vec<(usize, ExpertUpdate)> = (0..6)
            .map(|pid| {
                let key = ExpertKey::new(pid % 2, pid % 4);
                let expert = flux_moe::Expert::new(16, 32, &mut rng);
                (
                    pid,
                    ExpertUpdate {
                        key,
                        expert,
                        weight: 1.0 + pid as f32,
                    },
                )
            })
            .collect();

        let flat_store = tenant();
        let flat = flat_store.begin_round();
        for (pid, u) in &uploads {
            assert!(flat.submit(*pid, vec![u.clone()], None));
        }
        flat_store.apply_round(&flat, &pool);

        let tree_store = tenant();
        let tree = AggregationTree::new(tree_store.begin_round(), 3);
        for (pid, u) in uploads.iter().rev() {
            assert!(tree.submit(*pid, vec![u.clone()], None));
        }
        tree_store.apply_round(tree.collapse(), &pool);

        let a = flat_store.global_model();
        let b = tree_store.global_model();
        for key in a.expert_keys() {
            assert_eq!(a.expert(key), b.expert(key), "{key:?} diverged");
        }
        assert_eq!(a.lm_head, b.lm_head);
    }

    #[test]
    fn aggregate_updates_head() {
        let store = tenant();
        let shape = store.global_model().lm_head.shape();
        let new_head = Matrix::filled(shape.0, shape.1, 0.123);
        store.aggregate(&[], &[(new_head.clone(), 2.0)]);
        assert_eq!(store.global_model().lm_head, new_head);
    }

    #[test]
    fn mismatched_head_is_ignored() {
        let store = tenant();
        let before = store.global_model().lm_head.clone();
        store.aggregate(&[], &[(Matrix::filled(2, 2, 9.0), 1.0)]);
        assert_eq!(store.global_model().lm_head, before);
    }

    #[test]
    fn out_of_range_expert_update_is_ignored() {
        let store = tenant();
        let checksum = store.snapshot().param_checksum();
        let mut rng = SeededRng::new(3);
        let rogue = flux_moe::Expert::new(16, 32, &mut rng);
        store.aggregate(
            &[ExpertUpdate {
                key: ExpertKey::new(99, 99),
                expert: rogue,
                weight: 1.0,
            }],
            &[],
        );
        assert_eq!(store.rounds_completed(), 1);
        assert_eq!(store.snapshot().param_checksum(), checksum);
    }

    #[test]
    fn with_global_avoids_clone_and_matches_model() {
        let store = tenant();
        let shape = store.with_global(|m| m.lm_head.shape());
        assert_eq!(shape, store.global_model().lm_head.shape());
    }

    #[test]
    fn incremental_round_matches_one_shot_aggregate() {
        // The same uploads through (a) the one-shot `aggregate` and
        // (b) begin_round/submit-in-reverse-order/apply_round on a
        // differently sharded tenant must produce bit-identical global
        // models.
        let mut rng = SeededRng::new(9);
        let a = tenant();
        let b = tenant_with_shards(3);
        let head_shape = a.global_model().lm_head.shape();
        let uploads: Vec<(usize, ExpertUpdate, Matrix, f32)> = (0..4)
            .map(|pid| {
                let e = flux_moe::Expert::new(16, 32, &mut rng);
                let head = Matrix::filled(head_shape.0, head_shape.1, pid as f32 * 0.1);
                (
                    pid,
                    ExpertUpdate {
                        key: ExpertKey::new(0, pid),
                        expert: e,
                        weight: pid as f32 + 1.0,
                    },
                    head,
                    pid as f32 + 1.0,
                )
            })
            .collect();

        let expert_updates: Vec<ExpertUpdate> =
            uploads.iter().map(|(_, u, _, _)| u.clone()).collect();
        let head_updates: Vec<(Matrix, f32)> =
            uploads.iter().map(|(_, _, h, w)| (h.clone(), *w)).collect();
        a.aggregate(&expert_updates, &head_updates);

        let aggregator = b.begin_round();
        for (pid, update, head, weight) in uploads.iter().rev() {
            assert!(aggregator.submit(*pid, vec![update.clone()], Some((head.clone(), *weight))));
        }
        b.apply_round(&aggregator, &ThreadPool::new(4));

        let ma = a.global_model();
        let mb = b.global_model();
        assert_eq!(ma.lm_head, mb.lm_head);
        for key in ma.expert_keys() {
            assert_eq!(ma.expert(key), mb.expert(key), "{key:?} diverged");
        }
    }

    #[test]
    fn server_is_shareable_across_threads() {
        let server = Arc::new(ParameterServer::empty(DEFAULT_SHARDS));
        let store = server.register_tenant(model());
        let mut handles = Vec::new();
        for t in 0..4 {
            let s = Arc::clone(&server);
            handles.push(std::thread::spawn(move || {
                let mut rng = SeededRng::new(t);
                let e = flux_moe::Expert::new(16, 32, &mut rng);
                s.tenant(0).aggregate(
                    &[ExpertUpdate {
                        key: ExpertKey::new(0, t as usize),
                        expert: e,
                        weight: 1.0,
                    }],
                    &[],
                );
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.rounds_completed(), 4);
    }

    #[test]
    fn tenants_are_isolated() {
        let server = ParameterServer::empty(4);
        assert_eq!(server.num_tenants(), 0);
        let mut rng = SeededRng::new(11);
        let model_a = MoeModel::new(MoeConfig::tiny(), &mut rng);
        let model_b = MoeModel::new(MoeConfig::tiny(), &mut rng);
        let a = server.register_tenant(model_a);
        let b = server.register_tenant(model_b);
        assert_eq!(server.num_tenants(), 2);
        let b_before = b.snapshot().param_checksum();

        // Writing tenant A leaves tenant B bit-identical.
        let e = flux_moe::Expert::new(16, 32, &mut rng);
        a.aggregate(
            &[ExpertUpdate {
                key: ExpertKey::new(0, 0),
                expert: e,
                weight: 1.0,
            }],
            &[],
        );
        assert_eq!(b.snapshot().param_checksum(), b_before);
        assert_eq!(a.rounds_completed(), 1);
        assert_eq!(b.rounds_completed(), 0);
    }

    #[test]
    fn deregister_releases_the_tenant() {
        let server = ParameterServer::empty(4);
        let mut rng = SeededRng::new(13);
        let store = server.register_tenant(MoeModel::new(MoeConfig::tiny(), &mut rng));
        assert_eq!(server.num_tenants(), 1);
        assert!(server.deregister_tenant(&store));
        assert_eq!(server.num_tenants(), 0);
        // The caller's handle still works; a second deregister is a no-op.
        assert_eq!(store.rounds_completed(), 0);
        assert!(!server.deregister_tenant(&store));
    }

    #[test]
    fn adopt_tenant_registers_a_restored_store() {
        let server = ParameterServer::empty(4);
        let mut rng = SeededRng::new(17);
        let store = Arc::new(ShardedStore::new(
            MoeModel::new(MoeConfig::tiny(), &mut rng),
            4,
        ));
        let adopted = server.adopt_tenant(Arc::clone(&store));
        assert!(Arc::ptr_eq(&adopted, &store));
        assert_eq!(server.num_tenants(), 1);
        assert!(Arc::ptr_eq(&server.tenant(0), &store));
        assert!(server.deregister_tenant(&store));
    }

    #[test]
    #[should_panic(expected = "sharding must match")]
    fn adopt_tenant_rejects_mismatched_sharding() {
        let server = ParameterServer::empty(4);
        let mut rng = SeededRng::new(18);
        let store = Arc::new(ShardedStore::new(
            MoeModel::new(MoeConfig::tiny(), &mut rng),
            2,
        ));
        server.adopt_tenant(store);
    }

    #[test]
    fn concurrent_tenant_rounds_do_not_interfere() {
        // Two tenants apply rounds from two threads simultaneously; each
        // must end bit-identical to applying its round alone.
        let mut rng = SeededRng::new(12);
        let model = MoeModel::new(MoeConfig::tiny(), &mut rng);
        let server = std::sync::Arc::new(ParameterServer::empty(4));
        let expected: Vec<u64> = (0..2u64)
            .map(|t| {
                let solo = ShardedStore::new(model.clone(), 4);
                let agg = solo.begin_round();
                let mut rng = SeededRng::new(100 + t);
                agg.submit(
                    0,
                    vec![ExpertUpdate {
                        key: ExpertKey::new(0, t as usize),
                        expert: flux_moe::Expert::new(16, 32, &mut rng),
                        weight: 1.0,
                    }],
                    None,
                );
                solo.apply_round(&agg, &ThreadPool::new(1));
                solo.snapshot().param_checksum()
            })
            .collect();

        let stores: Vec<_> = (0..2)
            .map(|_| server.register_tenant(model.clone()))
            .collect();
        let handles: Vec<_> = stores
            .iter()
            .enumerate()
            .map(|(t, store)| {
                let store = Arc::clone(store);
                std::thread::spawn(move || {
                    let agg = store.begin_round();
                    let mut rng = SeededRng::new(100 + t as u64);
                    agg.submit(
                        0,
                        vec![ExpertUpdate {
                            key: ExpertKey::new(0, t),
                            expert: flux_moe::Expert::new(16, 32, &mut rng),
                            weight: 1.0,
                        }],
                        None,
                    );
                    store.apply_round(&agg, &ThreadPool::new(2));
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for (t, store) in stores.iter().enumerate() {
            assert_eq!(
                store.snapshot().param_checksum(),
                expected[t],
                "tenant {t} diverged under concurrency"
            );
        }
    }
}
