//! Property-based tests for the tensor substrate.

use flux_tensor::{
    kmeans::KMeans,
    ops,
    simd::{self, SimdLevel},
    stats, Matrix, SeededRng,
};
use proptest::prelude::*;

/// Every SIMD dispatch level this host can execute (scalar always included).
fn supported_levels() -> Vec<SimdLevel> {
    [SimdLevel::Scalar, SimdLevel::Avx2]
        .into_iter()
        .filter(|&l| simd::is_supported(l))
        .collect()
}

/// Strategy producing a small matrix with bounded finite values.
fn matrix_strategy(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        prop::collection::vec(-100.0f32..100.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data).unwrap())
    })
}

/// Strategy producing a compatible matmul pair `(m×k, k×n)`, including the
/// degenerate shapes (0 rows, 0 inner dimension, single columns) the blocked
/// kernel's remainder paths must handle.
fn matmul_pair_strategy() -> impl Strategy<Value = (Matrix, Matrix)> {
    // Entries are kept O(1) so the 1e-4 relative tolerance is meaningful:
    // with large entries, f32 accumulation of a cancelling sum legitimately
    // drifts past any fixed relative-to-output bound.
    (0usize..=21, 0usize..=21, 0usize..=21).prop_flat_map(|(m, k, n)| {
        (
            prop::collection::vec(-2.0f32..2.0, m * k),
            prop::collection::vec(-2.0f32..2.0, k * n),
        )
            .prop_map(move |(a, b)| {
                (
                    Matrix::from_vec(m, k, a).unwrap(),
                    Matrix::from_vec(k, n, b).unwrap(),
                )
            })
    })
}

/// Naive triple-loop reference matmul, accumulated in `f64`.
fn matmul_reference(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut acc = 0.0f64;
            for k in 0..a.cols() {
                acc += a.get(i, k) as f64 * b.get(k, j) as f64;
            }
            out.set(i, j, acc as f32);
        }
    }
    out
}

/// Asserts two matrices agree within a relative tolerance of `tol`.
fn assert_close(actual: &Matrix, expected: &Matrix, tol: f32) {
    assert_eq!(actual.shape(), expected.shape());
    for (x, y) in actual.as_slice().iter().zip(expected.as_slice()) {
        assert!(
            (x - y).abs() <= tol * y.abs().max(1.0),
            "kernel {x} vs reference {y}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn transpose_involution(m in matrix_strategy(8)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn add_commutes(r in 1usize..6, c in 1usize..6, seed in 0u64..1000) {
        let mut rng = SeededRng::new(seed);
        let a = Matrix::random_normal(r, c, 1.0, &mut rng);
        let b = Matrix::random_normal(r, c, 1.0, &mut rng);
        let ab = a.add(&b).unwrap();
        let ba = b.add(&a).unwrap();
        for (x, y) in ab.as_slice().iter().zip(ba.as_slice()) {
            prop_assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn matmul_identity_left_and_right(m in matrix_strategy(6)) {
        let left = Matrix::identity(m.rows()).matmul(&m);
        let right = m.matmul(&Matrix::identity(m.cols()));
        for (x, y) in left.as_slice().iter().zip(m.as_slice()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
        for (x, y) in right.as_slice().iter().zip(m.as_slice()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn matmul_distributes_over_addition(seed in 0u64..500) {
        let mut rng = SeededRng::new(seed);
        let a = Matrix::random_normal(4, 5, 1.0, &mut rng);
        let b = Matrix::random_normal(5, 3, 1.0, &mut rng);
        let c = Matrix::random_normal(5, 3, 1.0, &mut rng);
        let lhs = a.matmul(&b.add(&c).unwrap());
        let rhs = a.matmul(&b).add(&a.matmul(&c)).unwrap();
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn softmax_is_distribution(logits in prop::collection::vec(-50.0f32..50.0, 1..32)) {
        let p = ops::softmax_row(&logits);
        let sum: f32 = p.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        prop_assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn softmax_invariant_to_constant_shift(
        logits in prop::collection::vec(-10.0f32..10.0, 2..16),
        shift in -100.0f32..100.0,
    ) {
        let base = ops::softmax_row(&logits);
        let shifted_logits: Vec<f32> = logits.iter().map(|&x| x + shift).collect();
        let shifted = ops::softmax_row(&shifted_logits);
        for (a, b) in base.iter().zip(shifted.iter()) {
            prop_assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn cosine_similarity_bounded(
        a in prop::collection::vec(-10.0f32..10.0, 4),
        b in prop::collection::vec(-10.0f32..10.0, 4),
    ) {
        let s = stats::cosine_similarity(&a, &b);
        prop_assert!((-1.0..=1.0).contains(&s));
    }

    #[test]
    fn cosine_similarity_scale_invariant(
        a in prop::collection::vec(0.1f32..10.0, 4),
        scale in 0.1f32..50.0,
    ) {
        let scaled: Vec<f32> = a.iter().map(|&x| x * scale).collect();
        let s = stats::cosine_similarity(&a, &scaled);
        prop_assert!((s - 1.0).abs() < 1e-4);
    }

    #[test]
    fn normalize_to_distribution_is_distribution(
        values in prop::collection::vec(0.0f32..100.0, 1..20),
    ) {
        let d = stats::normalize_to_distribution(&values);
        let sum: f32 = d.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
    }

    #[test]
    fn empirical_cdf_is_monotone(
        samples in prop::collection::vec(-10.0f32..10.0, 1..50),
    ) {
        let points: Vec<f32> = (-10..=10).map(|x| x as f32).collect();
        let cdf = stats::empirical_cdf(&samples, &points);
        for pair in cdf.windows(2) {
            prop_assert!(pair[0].1 <= pair[1].1);
        }
    }

    #[test]
    fn layer_norm_rows_have_unit_variance(seed in 0u64..500, rows in 1usize..5) {
        let mut rng = SeededRng::new(seed);
        let x = Matrix::random_normal(rows, 32, 3.0, &mut rng);
        let y = ops::layer_norm(&x, 1e-5);
        for r in 0..y.rows() {
            let row = y.row(r);
            let mean: f32 = row.iter().sum::<f32>() / row.len() as f32;
            let var: f32 = row.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / row.len() as f32;
            prop_assert!(mean.abs() < 1e-3);
            prop_assert!((var - 1.0).abs() < 0.05);
        }
    }

    #[test]
    fn kmeans_assignments_in_range(seed in 0u64..200, k in 1usize..6) {
        let mut rng = SeededRng::new(seed);
        let data = Matrix::random_normal(20, 3, 1.0, &mut rng);
        let result = KMeans::new(k).with_euclidean().fit(&data, &mut rng).unwrap();
        let clusters = result.centroids.rows();
        prop_assert!(clusters <= k.max(1));
        prop_assert!(result.assignments.iter().all(|&a| a < clusters));
        prop_assert_eq!(result.assignments.len(), 20);
    }

    #[test]
    fn blocked_matmul_matches_naive_reference(pair in matmul_pair_strategy()) {
        // The cache-blocked, panel-packed kernel (all of its paths: 4-row
        // register tiles, row remainders, depth remainders, degenerate
        // shapes) agrees with a naive triple loop within 1e-4 relative.
        let (a, b) = pair;
        let reference = matmul_reference(&a, &b);
        assert_close(&a.try_matmul(&b).unwrap(), &reference, 1e-4);
        // The sparse-aware entry point computes the same product.
        assert_close(&a.try_matmul_sparse(&b).unwrap(), &reference, 1e-4);
    }

    #[test]
    fn blocked_matmul_handles_deep_inner_dimension(seed in 0u64..200) {
        // Depth > KC exercises the k-blocking path.
        let mut rng = SeededRng::new(seed);
        let a = Matrix::random_normal(5, 300, 0.3, &mut rng);
        let b = Matrix::random_normal(300, 3, 0.3, &mut rng);
        assert_close(&a.try_matmul(&b).unwrap(), &matmul_reference(&a, &b), 1e-4);
    }

    #[test]
    fn fused_transpose_kernels_match_explicit_transpose(pair in matmul_pair_strategy()) {
        let (a, b) = pair;
        let reference = matmul_reference(&a, &b);
        // (aᵀ)ᵀ·b via matmul_transa == a·b.
        assert_close(&a.transpose().matmul_transa(&b).unwrap(), &reference, 1e-4);
        // a·(bᵀ)ᵀ via matmul_transb == a·b.
        assert_close(&a.matmul_transb(&b.transpose()).unwrap(), &reference, 1e-4);
    }

    #[test]
    fn matmul_bias_matches_matmul_plus_broadcast(pair in matmul_pair_strategy()) {
        let (a, b) = pair;
        let bias: Vec<f32> = (0..b.cols()).map(|j| j as f32 - 1.5).collect();
        let fused = a.try_matmul_bias(&b, &bias).unwrap();
        let separate = a.try_matmul(&b).unwrap().add_row_broadcast(&bias).unwrap();
        assert_close(&fused, &separate, 1e-4);
    }

    #[test]
    fn vector_fast_paths_match_matmul(pair in matmul_pair_strategy()) {
        let (a, b) = pair;
        if a.rows() > 0 {
            // matvec == matmul with a column vector.
            let x: Vec<f32> = (0..a.cols()).map(|i| (i as f32).sin()).collect();
            let col = Matrix::from_vec(a.cols(), 1, x.clone()).unwrap();
            let product = a.matmul(&col);
            for (i, y) in a.matvec(&x).unwrap().iter().enumerate() {
                prop_assert!((y - product.get(i, 0)).abs() <= 1e-4 * product.get(i, 0).abs().max(1.0));
            }
        }
        // vecmat is documented bit-identical to a 1×k matmul.
        let x: Vec<f32> = (0..b.rows()).map(|i| (i as f32).cos()).collect();
        let row = Matrix::from_vec(1, b.rows(), x.clone()).unwrap();
        let product = row.matmul(&b);
        prop_assert_eq!(b.vecmat(&x).unwrap().as_slice(), product.as_slice());
    }

    #[test]
    fn simd_levels_agree_with_scalar_within_tolerance(pair in matmul_pair_strategy()) {
        // The pinned contract of the dispatch layer: the scalar kernel is the
        // reference; AVX2+FMA may contract but stays within 1e-5 relative.
        // The element-wise kernels are bitwise at every level.
        let (a, b) = pair;
        let scalar = simd::with_level(SimdLevel::Scalar, || a.try_matmul(&b).unwrap());
        let scalar_tb =
            simd::with_level(SimdLevel::Scalar, || a.matmul_transb(&b.transpose()).unwrap());
        let scalar_gelu = simd::with_level(SimdLevel::Scalar, || ops::gelu(&scalar));
        for level in supported_levels() {
            let out = simd::with_level(level, || a.try_matmul(&b).unwrap());
            assert_close(&out, &scalar, 1e-5);
            let tb = simd::with_level(level, || a.matmul_transb(&b.transpose()).unwrap());
            assert_close(&tb, &scalar_tb, 1e-5);
            // GELU (and the other element-wise kernels) never use FMA, so
            // they are bit-identical to the scalar reference at every level.
            let g = simd::with_level(level, || ops::gelu(&scalar));
            prop_assert_eq!(g.as_slice(), scalar_gelu.as_slice());
        }
    }

    #[test]
    fn each_simd_level_is_individually_deterministic(pair in matmul_pair_strategy()) {
        // For a fixed level, repeated runs (including across the thread-local
        // override round trip) must be bit-identical — the determinism half
        // of the kernel contract, the unit-level twin of the golden-trace
        // `FLUX_SIMD=0/1` CI legs.
        let (a, b) = pair;
        for level in supported_levels() {
            let first = simd::with_level(level, || {
                let m = a.try_matmul(&b).unwrap();
                let g = ops::gelu(&m);
                (m, g)
            });
            let again = simd::with_level(level, || {
                let m = a.try_matmul(&b).unwrap();
                let g = ops::gelu(&m);
                (m, g)
            });
            prop_assert_eq!(first.0.as_slice(), again.0.as_slice());
            prop_assert_eq!(first.1.as_slice(), again.1.as_slice());
        }
    }

    #[test]
    fn cross_entropy_loss_nonnegative(seed in 0u64..500) {
        let mut rng = SeededRng::new(seed);
        let logits = Matrix::random_normal(4, 6, 2.0, &mut rng);
        let targets: Vec<usize> = (0..4).map(|_| rng.below(6)).collect();
        let (loss, grad) = ops::cross_entropy(&logits, &targets);
        prop_assert!(loss >= 0.0);
        prop_assert_eq!(grad.shape(), logits.shape());
        // Gradient rows sum to ~0 (softmax minus one-hot).
        for r in 0..grad.rows() {
            let s: f32 = grad.row(r).iter().sum();
            prop_assert!(s.abs() < 1e-4);
        }
    }
}

/// Regression pin for the consolidated tail handling: every tiny/odd shape
/// `m, k, n ∈ 1..9` exercises some mix of the 4-row register tile, the row
/// remainder, and sub-width column tails, at every dispatch level. Before
/// the kernels were unified behind the dispatch table, `gemm_row` and
/// `gemm_accumulate` each carried their own copy of the 4-way-unroll tail
/// logic; this sweep would have caught a divergence between them.
#[test]
fn tiny_odd_shapes_match_f64_reference_at_every_level() {
    for level in supported_levels() {
        simd::with_level(level, || {
            for m in 1..9usize {
                for k in 1..9usize {
                    for n in 1..9usize {
                        let a = Matrix::from_vec(
                            m,
                            k,
                            (0..m * k).map(|i| (i as f32 * 0.37).sin()).collect(),
                        )
                        .unwrap();
                        let b = Matrix::from_vec(
                            k,
                            n,
                            (0..k * n).map(|i| (i as f32 * 0.53).cos()).collect(),
                        )
                        .unwrap();
                        let reference = matmul_reference(&a, &b);
                        assert_close(&a.try_matmul(&b).unwrap(), &reference, 1e-5);
                        assert_close(&a.matmul_transb(&b.transpose()).unwrap(), &reference, 1e-5);
                        assert_close(&a.transpose().matmul_transa(&b).unwrap(), &reference, 1e-5);
                        // The vecmat fast path stays bit-identical to a 1×k
                        // matmul at every level (both share the dispatched
                        // row kernel).
                        let x: Vec<f32> = (0..k).map(|i| (i as f32 * 0.71).sin()).collect();
                        let row = Matrix::from_vec(1, k, x.clone()).unwrap();
                        assert_eq!(
                            b.vecmat(&x).unwrap().as_slice(),
                            row.matmul(&b).as_slice(),
                            "vecmat diverged at {level:?} k={k} n={n}"
                        );
                    }
                }
            }
        });
    }
}

/// Determinism pin for the arena-backed scratch: the same matmul computed
/// on a cold thread (fresh arena, fresh pool) and on a warm thread whose
/// arena was fragmented, coalesced and round-reset by unrelated work must
/// be bit-identical — scratch state can never leak into results. This is
/// the unit-level twin of the golden-trace suites, which pin the same
/// property end to end across `FLUX_THREADS` 1/4/8.
#[test]
fn warm_arena_matmul_is_bit_identical_to_cold() {
    fn product() -> Vec<f32> {
        let mut rng = SeededRng::new(99);
        let a = Matrix::random_normal(17, 230, 0.4, &mut rng);
        let b = Matrix::random_normal(230, 13, 0.4, &mut rng);
        a.try_matmul(&b).unwrap().as_slice().to_vec()
    }
    let cold = std::thread::spawn(product).join().unwrap();
    let warm = std::thread::spawn(|| {
        // Dirty and fragment the arena and the owned-buffer pool.
        for i in 1..6 {
            flux_tensor::scratch::with(i * 10_000, |s| s.fill(7.0));
            flux_tensor::scratch::give(vec![3.0; i * 1000]);
        }
        let first = product();
        flux_tensor::scratch::reset_round();
        let again = product();
        assert_eq!(
            first.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            again.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "reset_round changed matmul results"
        );
        first
    })
    .join()
    .unwrap();
    assert_eq!(
        cold.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        warm.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "arena warmth changed matmul results"
    );
}
