//! End-to-end scalar-vs-SIMD equivalence of the kernel dispatch layer.
//!
//! The scalar kernels are the pinned reference semantics; the AVX2+FMA
//! level (tolerance-equal to scalar) must not change what the system
//! *learns*: the final evaluation score of every method in the paper's
//! comparison must be identical whether the whole federated run executes
//! on scalar or on the best vectorized kernels. CI additionally
//! sweeps `FLUX_SIMD=0/1` over the golden-trace suites, which pins the full
//! per-round traces bit-identically for each fixed level.
//!
//! This file holds exactly one `#[test]`: [`flux_tensor::simd::set_global_level`]
//! is process-global (it must reach the worker pool's threads, which a
//! thread-local override cannot), so concurrently running tests in the same
//! binary would race on it.

use flux_core::driver::{FederatedRun, Method, RunConfig};
use flux_data::DatasetKind;
use flux_moe::MoeConfig;
use flux_tensor::simd::{self, SimdLevel};

#[test]
fn final_scores_are_identical_across_simd_levels() {
    let best = simd::detect_best();
    if best == SimdLevel::Scalar {
        eprintln!("host has no SIMD support; scalar-vs-SIMD equivalence is vacuous");
        return;
    }
    let quick = || RunConfig::quick_demo(MoeConfig::tiny(), DatasetKind::Gsm8k);
    let methods = [Method::Flux, Method::Fmd, Method::Fmq, Method::Fmes];

    simd::set_global_level(SimdLevel::Scalar);
    let scalar_scores: Vec<f32> = methods
        .iter()
        .map(|&m| {
            let result = FederatedRun::new(quick(), 404).run(m);
            result.rounds.last().expect("quick demo has rounds").score
        })
        .collect();

    simd::set_global_level(best);
    for (&method, &expected) in methods.iter().zip(&scalar_scores) {
        let result = FederatedRun::new(quick(), 404).run(method);
        let got = result.rounds.last().expect("quick demo has rounds").score;
        assert_eq!(
            got, expected,
            "{method:?}: final score diverged between scalar and {best:?} kernels"
        );
    }
}
