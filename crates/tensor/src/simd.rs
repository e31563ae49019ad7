//! Runtime-dispatched SIMD microkernels.
//!
//! The cache-blocked GEMM ([`crate::matrix`]) and the hot element-wise loops
//! (GELU forward/backward, AXPY accumulation, SPSA perturbation) funnel
//! through a small table of function pointers resolved **once per process**
//! from the host CPU and the `FLUX_SIMD` environment variable:
//!
//! | `FLUX_SIMD`      | meaning                                            |
//! |------------------|----------------------------------------------------|
//! | `0` / `scalar`   | pinned scalar reference kernels                    |
//! | `1` / `auto` / _unset_ | best level the CPU supports (AVX2+FMA, else scalar) |
//! | `avx2`           | force AVX2+FMA (panics if unsupported)             |
//!
//! There is no 128-bit level: the scalar loops already auto-vectorize under
//! the x86-64 baseline, and hand-written 128-bit kernels measured no faster.
//!
//! # Determinism contract
//!
//! Every kernel variant is **individually deterministic**: for a fixed
//! `FLUX_SIMD` setting the whole training stack produces bit-identical
//! results across `FLUX_THREADS` 1/4/8, schedules and arrival orders,
//! because the per-element accumulation association of each variant is
//! fixed and independent of blocking, row counts and column counts.
//!
//! Across variants the contract is tiered:
//!
//! - **AVX2+FMA agrees within tolerance.** The AVX2 kernels use one fused
//!   multiply-add per depth step (`acc = fma(aₚ, bₚⱼ, acc)`, sequential over
//!   the depth), which is *more* accurate than the scalar grouping but not
//!   bit-equal to it; scalar-vs-AVX2 agreement is pinned by tolerance
//!   proptests (≤1e-5 relative) and end-to-end score-equality tests.
//!   Its scalar column tails use [`f32::mul_add`] inside an FMA-enabled
//!   function so tail lanes round exactly like the vector lanes.
//! - **Element-wise kernels are bitwise level-independent.** AXPY, the SPSA
//!   perturbation and the GELU family deliberately avoid FMA and replicate
//!   the scalar association, so they are bit-identical at every level.
//!
//! The active level is process-global ([`global_level`], resolved lazily
//! from the environment); tests and benches compare variants in-process via
//! the scoped, thread-local [`with_level`] override. The override applies
//! to the **current thread only** — never wrap pool-parallel code in it, or
//! jobs executed by worker threads would run at a different level than jobs
//! drained inline by the caller.

use std::sync::atomic::{AtomicU8, Ordering};

/// Register-tile height of the scalar GEMM microkernel. Each
/// level publishes its own height via [`Kernels::mr`]; the panel packing in
/// `matrix.rs` interleaves `A` rows with exactly that stride.
const MR4: usize = 4;

/// Register-tile height of the AVX2 GEMM microkernel: six rows × 16 columns
/// uses 12 accumulator registers + 2 `B` vectors + 1 broadcast (15 of the
/// 16 ymm registers) and is FMA-throughput-bound where the four-row tile is
/// load-bound.
const MR6: usize = 6;

/// A SIMD instruction-set level with a complete kernel set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Pinned scalar reference kernels (the pre-dispatch behavior).
    Scalar = 0,
    /// AVX2+FMA 256-bit kernels (tolerance-equivalent to scalar).
    Avx2 = 1,
}

impl SimdLevel {
    /// Short lowercase name (matches the `FLUX_SIMD` spellings).
    pub fn label(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
        }
    }

    fn from_u8(v: u8) -> Self {
        match v {
            0 => SimdLevel::Scalar,
            _ => SimdLevel::Avx2,
        }
    }
}

/// Whether this build/host can run the given level's kernels.
pub fn is_supported(level: SimdLevel) -> bool {
    match level {
        SimdLevel::Scalar => true,
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        }
        #[cfg(not(target_arch = "x86_64"))]
        _ => false,
    }
}

/// Best level the host CPU supports.
pub fn detect_best() -> SimdLevel {
    if is_supported(SimdLevel::Avx2) {
        SimdLevel::Avx2
    } else {
        SimdLevel::Scalar
    }
}

fn resolve_from_env() -> SimdLevel {
    match std::env::var("FLUX_SIMD").as_deref() {
        Ok("0") | Ok("scalar") => SimdLevel::Scalar,
        Ok("avx2") => {
            assert!(
                is_supported(SimdLevel::Avx2),
                "FLUX_SIMD=avx2 unsupported on this host"
            );
            SimdLevel::Avx2
        }
        Ok("1") | Ok("auto") | Ok("") | Err(_) => detect_best(),
        Ok(other) => {
            panic!("FLUX_SIMD: unrecognized value {other:?} (expected 0|1|auto|scalar|avx2)")
        }
    }
}

/// Sentinel meaning "not yet resolved from the environment".
const LEVEL_UNSET: u8 = u8::MAX;

static GLOBAL_LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNSET);

/// The process-wide kernel level, resolved from `FLUX_SIMD` on first use.
pub fn global_level() -> SimdLevel {
    match GLOBAL_LEVEL.load(Ordering::Relaxed) {
        LEVEL_UNSET => {
            let level = resolve_from_env();
            // A racing first resolution computes the same value (the env is
            // fixed), so a plain store is fine.
            GLOBAL_LEVEL.store(level as u8, Ordering::Relaxed);
            level
        }
        v => SimdLevel::from_u8(v),
    }
}

/// Overrides the process-wide level (tests and benches that compare whole
/// training runs across levels, where work fans out to pool threads that a
/// thread-local override cannot reach). Returns the previous level. Must
/// only be called between runs — never while kernels may be executing on
/// other threads.
///
/// # Panics
///
/// Panics if the level is unsupported on this host.
pub fn set_global_level(level: SimdLevel) -> SimdLevel {
    assert!(
        is_supported(level),
        "{} kernels unsupported on this host",
        level.label()
    );
    let prev = global_level();
    GLOBAL_LEVEL.store(level as u8, Ordering::Relaxed);
    prev
}

thread_local! {
    static OVERRIDE: std::cell::Cell<Option<SimdLevel>> = const { std::cell::Cell::new(None) };
}

/// The level kernels dispatch on for the current thread: the innermost
/// [`with_level`] override if one is active, else [`global_level`].
pub fn active_level() -> SimdLevel {
    OVERRIDE.with(|c| c.get()).unwrap_or_else(global_level)
}

/// Runs `f` with kernels pinned to `level` **on the current thread**
/// (panic-safe, restores the previous override). For in-process variant
/// comparison in tests and microbenches; see the module docs for why this
/// must not wrap pool-parallel code.
///
/// # Panics
///
/// Panics if the level is unsupported on this host.
pub fn with_level<R>(level: SimdLevel, f: impl FnOnce() -> R) -> R {
    assert!(
        is_supported(level),
        "{} kernels unsupported on this host",
        level.label()
    );
    struct Restore(Option<SimdLevel>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _guard = Restore(OVERRIDE.with(|c| c.replace(Some(level))));
    f()
}

/// `out_row += a_row · b_panel` where `b_panel` rows are `ldb` apart and
/// `n` columns are written. `a_row.len()` is the depth.
pub type RowKernel = fn(a_row: &[f32], b: &[f32], ldb: usize, n: usize, out_row: &mut [f32]);

/// Register tile of [`Kernels::mr`] rows: `pack` holds the depth-major
/// mr-interleaved A-panel (`pack[p * mr + r]`), `b` rows are `ldb` apart,
/// output row `r` starts at `out[r · ldc]`.
pub type TileKernel =
    fn(pack: &[f32], kc: usize, b: &[f32], ldb: usize, n: usize, out: &mut [f32], ldc: usize);

/// `dst += scale * src`, element-wise.
pub type AxpyKernel = fn(dst: &mut [f32], src: &[f32], scale: f32);

/// `dst = base + scale * dir`, element-wise (the SPSA perturbation shape).
pub type PerturbKernel = fn(dst: &mut [f32], base: &[f32], dir: &[f32], scale: f32);

/// In-place element-wise map (GELU forward).
pub type MapKernel = fn(data: &mut [f32]);

/// `out = f'(x) ⊙ grad` (GELU backward recomputing the tanh).
pub type GradKernel = fn(x: &[f32], grad: &[f32], out: &mut [f32]);

/// `out = f'(x, y) ⊙ grad` reusing the cached forward output `y`.
pub type GradCachedKernel = fn(x: &[f32], y: &[f32], grad: &[f32], out: &mut [f32]);

/// The complete kernel set of one SIMD level.
pub struct Kernels {
    /// Level these kernels implement.
    pub level: SimdLevel,
    /// Register-tile height of [`Kernels::tile`]: how many output rows the
    /// tile kernel accumulates at once, and the A-panel pack interleave.
    /// Row counts only group work — they never change any element's
    /// accumulation order — so differing heights per level cannot break a
    /// level's internal determinism.
    pub mr: usize,
    /// GEMM row-remainder / vecmat kernel.
    pub row: RowKernel,
    /// GEMM mr×NR register-tile kernel.
    pub tile: TileKernel,
    /// `dst += scale * src` (bit-identical across levels).
    pub axpy: AxpyKernel,
    /// `dst = base + scale * dir` (bit-identical across levels).
    pub perturb: PerturbKernel,
    /// In-place GELU forward (bit-identical across levels).
    pub gelu: MapKernel,
    /// GELU backward (bit-identical across levels).
    pub gelu_grad: GradKernel,
    /// Cached-output GELU backward (bit-identical across levels).
    pub gelu_grad_cached: GradCachedKernel,
}

/// The kernel table for the current thread's [`active_level`].
pub fn active() -> &'static Kernels {
    kernels_for(active_level())
}

/// The kernel table of an explicit level (unsupported levels fall back to
/// scalar; dispatch paths only pass supported levels).
pub fn kernels_for(level: SimdLevel) -> &'static Kernels {
    match level {
        SimdLevel::Scalar => &SCALAR_KERNELS,
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => &AVX2_KERNELS,
        #[cfg(not(target_arch = "x86_64"))]
        _ => &SCALAR_KERNELS,
    }
}

static SCALAR_KERNELS: Kernels = Kernels {
    level: SimdLevel::Scalar,
    mr: MR4,
    row: row_scalar,
    tile: tile4_scalar,
    axpy: axpy_scalar,
    perturb: perturb_scalar,
    gelu: gelu_scalar_slice,
    gelu_grad: gelu_grad_scalar_slice,
    gelu_grad_cached: gelu_grad_cached_scalar_slice,
};

#[cfg(target_arch = "x86_64")]
static AVX2_KERNELS: Kernels = Kernels {
    level: SimdLevel::Avx2,
    mr: MR6,
    row: row_avx2_dispatch,
    tile: tile6_avx2_dispatch,
    axpy: axpy_avx2_dispatch,
    perturb: perturb_avx2_dispatch,
    gelu: gelu_avx2_dispatch,
    gelu_grad: gelu_grad_avx2_dispatch,
    gelu_grad_cached: gelu_grad_cached_avx2_dispatch,
};

// ---------------------------------------------------------------------------
// Scalar reference kernels (the pinned pre-dispatch behavior).
// ---------------------------------------------------------------------------

/// One-row kernel: `out_row += a_row · b_panel`, unrolled 4-way over the
/// depth with the grouping `t = a₀b₀ + a₁b₁ + a₂b₂ + a₃b₃; out += t`.
/// Shared by the row remainder of the blocked GEMM and by `Matrix::vecmat`
/// so both produce bit-identical accumulation order.
fn row_scalar(a_row: &[f32], b: &[f32], ldb: usize, n: usize, out_row: &mut [f32]) {
    let kc = a_row.len();
    let mut p = 0;
    while p + 4 <= kc {
        let (a0, a1, a2, a3) = (a_row[p], a_row[p + 1], a_row[p + 2], a_row[p + 3]);
        let b0 = &b[p * ldb..][..n];
        let b1 = &b[(p + 1) * ldb..][..n];
        let b2 = &b[(p + 2) * ldb..][..n];
        let b3 = &b[(p + 3) * ldb..][..n];
        for j in 0..n {
            out_row[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
        }
        p += 4;
    }
    while p < kc {
        let a0 = a_row[p];
        for (o, &v) in out_row.iter_mut().zip(&b[p * ldb..][..n]) {
            *o += a0 * v;
        }
        p += 1;
    }
}

/// Four-row register tile with the same per-element grouping as
/// [`row_scalar`] (so tiled rows are bitwise equal to row-kernel rows).
fn tile4_scalar(
    pack: &[f32],
    kc: usize,
    b: &[f32],
    ldb: usize,
    n: usize,
    out: &mut [f32],
    ldc: usize,
) {
    let (r0, rest) = out.split_at_mut(ldc);
    let (r1, rest) = rest.split_at_mut(ldc);
    let (r2, r3) = rest.split_at_mut(ldc);
    let (o0, o1, o2) = (&mut r0[..n], &mut r1[..n], &mut r2[..n]);
    let o3 = &mut r3[..n];
    let mut p = 0;
    while p + 4 <= kc {
        let ap = &pack[p * MR4..(p + 4) * MR4];
        let b0 = &b[p * ldb..][..n];
        let b1 = &b[(p + 1) * ldb..][..n];
        let b2 = &b[(p + 2) * ldb..][..n];
        let b3 = &b[(p + 3) * ldb..][..n];
        for j in 0..n {
            let (v0, v1, v2, v3) = (b0[j], b1[j], b2[j], b3[j]);
            o0[j] += ap[0] * v0 + ap[4] * v1 + ap[8] * v2 + ap[12] * v3;
            o1[j] += ap[1] * v0 + ap[5] * v1 + ap[9] * v2 + ap[13] * v3;
            o2[j] += ap[2] * v0 + ap[6] * v1 + ap[10] * v2 + ap[14] * v3;
            o3[j] += ap[3] * v0 + ap[7] * v1 + ap[11] * v2 + ap[15] * v3;
        }
        p += 4;
    }
    while p < kc {
        let ap = &pack[p * MR4..p * MR4 + MR4];
        let brow = &b[p * ldb..][..n];
        for j in 0..n {
            let v = brow[j];
            o0[j] += ap[0] * v;
            o1[j] += ap[1] * v;
            o2[j] += ap[2] * v;
            o3[j] += ap[3] * v;
        }
        p += 1;
    }
}

fn axpy_scalar(dst: &mut [f32], src: &[f32], scale: f32) {
    debug_assert_eq!(dst.len(), src.len());
    for (a, &b) in dst.iter_mut().zip(src) {
        *a += scale * b;
    }
}

fn perturb_scalar(dst: &mut [f32], base: &[f32], dir: &[f32], scale: f32) {
    debug_assert_eq!(dst.len(), base.len());
    debug_assert_eq!(dst.len(), dir.len());
    for ((o, &b), &d) in dst.iter_mut().zip(base).zip(dir) {
        *o = b + scale * d;
    }
}

fn gelu_scalar_slice(data: &mut [f32]) {
    for v in data {
        *v = crate::ops::gelu_scalar(*v);
    }
}

fn gelu_grad_scalar_slice(x: &[f32], grad: &[f32], out: &mut [f32]) {
    debug_assert_eq!(x.len(), grad.len());
    debug_assert_eq!(x.len(), out.len());
    for (o, (&xi, &gi)) in out.iter_mut().zip(x.iter().zip(grad)) {
        *o = crate::ops::gelu_grad_scalar(xi) * gi;
    }
}

fn gelu_grad_cached_scalar_slice(x: &[f32], y: &[f32], grad: &[f32], out: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    debug_assert_eq!(x.len(), grad.len());
    debug_assert_eq!(x.len(), out.len());
    for (o, ((&xi, &yi), &gi)) in out.iter_mut().zip(x.iter().zip(y).zip(grad)) {
        let d = if xi.abs() > CACHED_GRAD_CUTOFF {
            let t = (2.0 * yi / xi - 1.0).clamp(-1.0, 1.0);
            let sech2 = 1.0 - t * t;
            0.5 * (1.0 + t) + 0.5 * xi * sech2 * GELU_C * (1.0 + GELU_3A * xi * xi)
        } else {
            crate::ops::gelu_grad_scalar(xi)
        };
        *o = d * gi;
    }
}

/// `sqrt(2/π)`, the tanh-GELU constant (must match `ops::gelu_scalar`).
const GELU_C: f32 = 0.797_884_6;
/// The cubic coefficient of the tanh-GELU argument.
const GELU_A: f32 = 0.044715;
/// `3 · 0.044715` pre-folded at f32 precision, exactly as LLVM folds the
/// `3.0 * 0.044715` constant product in the scalar gradient formula.
const GELU_3A: f32 = 3.0 * 0.044715;
/// Below this |x| the cached-output gradient recovery is ill-conditioned
/// and the exact recompute path is used instead.
const CACHED_GRAD_CUTOFF: f32 = 1e-3;

// ---------------------------------------------------------------------------
// x86-64 kernels.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
fn row_avx2_dispatch(a_row: &[f32], b: &[f32], ldb: usize, n: usize, out_row: &mut [f32]) {
    debug_assert!(out_row.len() >= n);
    debug_assert!(a_row.is_empty() || b.len() >= (a_row.len() - 1) * ldb + n);
    // SAFETY: the AVX2 table is only selected after `is_x86_feature_detected!`
    // confirmed avx2+fma (see `is_supported`).
    unsafe { x86::row_avx2(a_row, b, ldb, n, out_row) }
}

#[cfg(target_arch = "x86_64")]
fn tile6_avx2_dispatch(
    pack: &[f32],
    kc: usize,
    b: &[f32],
    ldb: usize,
    n: usize,
    out: &mut [f32],
    ldc: usize,
) {
    debug_assert!(pack.len() >= kc * MR6);
    debug_assert!(out.len() >= 5 * ldc + n);
    debug_assert!(kc == 0 || b.len() >= (kc - 1) * ldb + n);
    // SAFETY: avx2+fma detected before this table is selected.
    unsafe { x86::tile6_avx2(pack, kc, b, ldb, n, out, ldc) }
}

#[cfg(target_arch = "x86_64")]
fn axpy_avx2_dispatch(dst: &mut [f32], src: &[f32], scale: f32) {
    debug_assert_eq!(dst.len(), src.len());
    // SAFETY: avx2 detected before this table is selected.
    unsafe { x86::axpy_avx2(dst, src, scale) }
}

#[cfg(target_arch = "x86_64")]
fn perturb_avx2_dispatch(dst: &mut [f32], base: &[f32], dir: &[f32], scale: f32) {
    debug_assert_eq!(dst.len(), base.len());
    debug_assert_eq!(dst.len(), dir.len());
    // SAFETY: avx2 detected before this table is selected.
    unsafe { x86::perturb_avx2(dst, base, dir, scale) }
}

#[cfg(target_arch = "x86_64")]
fn gelu_avx2_dispatch(data: &mut [f32]) {
    // SAFETY: avx2 detected before this table is selected.
    unsafe { x86::gelu_avx2(data) }
}

#[cfg(target_arch = "x86_64")]
fn gelu_grad_avx2_dispatch(x: &[f32], grad: &[f32], out: &mut [f32]) {
    debug_assert_eq!(x.len(), grad.len());
    debug_assert_eq!(x.len(), out.len());
    // SAFETY: avx2 detected before this table is selected.
    unsafe { x86::gelu_grad_avx2(x, grad, out) }
}

#[cfg(target_arch = "x86_64")]
fn gelu_grad_cached_avx2_dispatch(x: &[f32], y: &[f32], grad: &[f32], out: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    debug_assert_eq!(x.len(), grad.len());
    debug_assert_eq!(x.len(), out.len());
    // SAFETY: avx2 detected before this table is selected.
    unsafe { x86::gelu_grad_cached_avx2(x, y, grad, out) }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The `std::arch` kernel bodies. Everything here is `unsafe fn` with a
    //! `#[target_feature]` attribute; the safe dispatch wrappers above hold
    //! the detection invariant.
    #![allow(clippy::missing_safety_doc)]

    use super::{CACHED_GRAD_CUTOFF, GELU_3A, GELU_A, GELU_C, MR6};
    use core::arch::x86_64::*;

    // -- AVX2+FMA GEMM: sequential depth-ordered FMA chains -----------------

    /// AVX2 row kernel: per element, `acc = fma(aₚ, bₚⱼ, acc)` sequentially
    /// over the depth. The scalar tail uses [`f32::mul_add`] inside this
    /// FMA-enabled function so tail columns round identically to the vector
    /// lanes (both compile to `vfmadd`).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn row_avx2(a_row: &[f32], b: &[f32], ldb: usize, n: usize, out_row: &mut [f32]) {
        let kc = a_row.len();
        let bp = b.as_ptr();
        let op = out_row.as_mut_ptr();
        let mut j = 0;
        while j + 16 <= n {
            let mut acc0 = _mm256_loadu_ps(op.add(j));
            let mut acc1 = _mm256_loadu_ps(op.add(j + 8));
            for p in 0..kc {
                let a = _mm256_set1_ps(*a_row.get_unchecked(p));
                let base = bp.add(p * ldb + j);
                acc0 = _mm256_fmadd_ps(a, _mm256_loadu_ps(base), acc0);
                acc1 = _mm256_fmadd_ps(a, _mm256_loadu_ps(base.add(8)), acc1);
            }
            _mm256_storeu_ps(op.add(j), acc0);
            _mm256_storeu_ps(op.add(j + 8), acc1);
            j += 16;
        }
        while j + 8 <= n {
            let mut acc = _mm256_loadu_ps(op.add(j));
            for p in 0..kc {
                let a = _mm256_set1_ps(*a_row.get_unchecked(p));
                acc = _mm256_fmadd_ps(a, _mm256_loadu_ps(bp.add(p * ldb + j)), acc);
            }
            _mm256_storeu_ps(op.add(j), acc);
            j += 8;
        }
        while j < n {
            let mut acc = *op.add(j);
            for p in 0..kc {
                acc = a_row.get_unchecked(p).mul_add(*bp.add(p * ldb + j), acc);
            }
            *op.add(j) = acc;
            j += 1;
        }
    }

    /// AVX2 six-row tile, same per-element FMA chain as [`row_avx2`]
    /// (tiled rows bitwise equal row-kernel rows within the AVX2 variant).
    ///
    /// The 16-column main loop keeps 12 accumulators, 2 `B` vectors and 1
    /// broadcast live (15 ymm registers) and issues 12 FMAs per 8 loads, so
    /// it is bound by FMA throughput; a four-row tile at the same width
    /// issues 8 FMAs per 6 loads and stalls on the load ports instead.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn tile6_avx2(
        pack: &[f32],
        kc: usize,
        b: &[f32],
        ldb: usize,
        n: usize,
        out: &mut [f32],
        ldc: usize,
    ) {
        let pk = pack.as_ptr();
        let bp = b.as_ptr();
        let op = out.as_mut_ptr();
        let mut j = 0;
        while j + 16 <= n {
            let mut a0l = _mm256_loadu_ps(op.add(j));
            let mut a0h = _mm256_loadu_ps(op.add(j + 8));
            let mut a1l = _mm256_loadu_ps(op.add(ldc + j));
            let mut a1h = _mm256_loadu_ps(op.add(ldc + j + 8));
            let mut a2l = _mm256_loadu_ps(op.add(2 * ldc + j));
            let mut a2h = _mm256_loadu_ps(op.add(2 * ldc + j + 8));
            let mut a3l = _mm256_loadu_ps(op.add(3 * ldc + j));
            let mut a3h = _mm256_loadu_ps(op.add(3 * ldc + j + 8));
            let mut a4l = _mm256_loadu_ps(op.add(4 * ldc + j));
            let mut a4h = _mm256_loadu_ps(op.add(4 * ldc + j + 8));
            let mut a5l = _mm256_loadu_ps(op.add(5 * ldc + j));
            let mut a5h = _mm256_loadu_ps(op.add(5 * ldc + j + 8));
            for p in 0..kc {
                let base = bp.add(p * ldb + j);
                let bl = _mm256_loadu_ps(base);
                let bh = _mm256_loadu_ps(base.add(8));
                let ap = pk.add(p * MR6);
                let a = _mm256_set1_ps(*ap);
                a0l = _mm256_fmadd_ps(a, bl, a0l);
                a0h = _mm256_fmadd_ps(a, bh, a0h);
                let a = _mm256_set1_ps(*ap.add(1));
                a1l = _mm256_fmadd_ps(a, bl, a1l);
                a1h = _mm256_fmadd_ps(a, bh, a1h);
                let a = _mm256_set1_ps(*ap.add(2));
                a2l = _mm256_fmadd_ps(a, bl, a2l);
                a2h = _mm256_fmadd_ps(a, bh, a2h);
                let a = _mm256_set1_ps(*ap.add(3));
                a3l = _mm256_fmadd_ps(a, bl, a3l);
                a3h = _mm256_fmadd_ps(a, bh, a3h);
                let a = _mm256_set1_ps(*ap.add(4));
                a4l = _mm256_fmadd_ps(a, bl, a4l);
                a4h = _mm256_fmadd_ps(a, bh, a4h);
                let a = _mm256_set1_ps(*ap.add(5));
                a5l = _mm256_fmadd_ps(a, bl, a5l);
                a5h = _mm256_fmadd_ps(a, bh, a5h);
            }
            _mm256_storeu_ps(op.add(j), a0l);
            _mm256_storeu_ps(op.add(j + 8), a0h);
            _mm256_storeu_ps(op.add(ldc + j), a1l);
            _mm256_storeu_ps(op.add(ldc + j + 8), a1h);
            _mm256_storeu_ps(op.add(2 * ldc + j), a2l);
            _mm256_storeu_ps(op.add(2 * ldc + j + 8), a2h);
            _mm256_storeu_ps(op.add(3 * ldc + j), a3l);
            _mm256_storeu_ps(op.add(3 * ldc + j + 8), a3h);
            _mm256_storeu_ps(op.add(4 * ldc + j), a4l);
            _mm256_storeu_ps(op.add(4 * ldc + j + 8), a4h);
            _mm256_storeu_ps(op.add(5 * ldc + j), a5l);
            _mm256_storeu_ps(op.add(5 * ldc + j + 8), a5h);
            j += 16;
        }
        while j + 8 <= n {
            let mut acc0 = _mm256_loadu_ps(op.add(j));
            let mut acc1 = _mm256_loadu_ps(op.add(ldc + j));
            let mut acc2 = _mm256_loadu_ps(op.add(2 * ldc + j));
            let mut acc3 = _mm256_loadu_ps(op.add(3 * ldc + j));
            let mut acc4 = _mm256_loadu_ps(op.add(4 * ldc + j));
            let mut acc5 = _mm256_loadu_ps(op.add(5 * ldc + j));
            for p in 0..kc {
                let bv = _mm256_loadu_ps(bp.add(p * ldb + j));
                let ap = pk.add(p * MR6);
                acc0 = _mm256_fmadd_ps(_mm256_set1_ps(*ap), bv, acc0);
                acc1 = _mm256_fmadd_ps(_mm256_set1_ps(*ap.add(1)), bv, acc1);
                acc2 = _mm256_fmadd_ps(_mm256_set1_ps(*ap.add(2)), bv, acc2);
                acc3 = _mm256_fmadd_ps(_mm256_set1_ps(*ap.add(3)), bv, acc3);
                acc4 = _mm256_fmadd_ps(_mm256_set1_ps(*ap.add(4)), bv, acc4);
                acc5 = _mm256_fmadd_ps(_mm256_set1_ps(*ap.add(5)), bv, acc5);
            }
            _mm256_storeu_ps(op.add(j), acc0);
            _mm256_storeu_ps(op.add(ldc + j), acc1);
            _mm256_storeu_ps(op.add(2 * ldc + j), acc2);
            _mm256_storeu_ps(op.add(3 * ldc + j), acc3);
            _mm256_storeu_ps(op.add(4 * ldc + j), acc4);
            _mm256_storeu_ps(op.add(5 * ldc + j), acc5);
            j += 8;
        }
        while j < n {
            let mut acc = [
                *op.add(j),
                *op.add(ldc + j),
                *op.add(2 * ldc + j),
                *op.add(3 * ldc + j),
                *op.add(4 * ldc + j),
                *op.add(5 * ldc + j),
            ];
            for p in 0..kc {
                let v = *bp.add(p * ldb + j);
                let ap = pk.add(p * MR6);
                for (r, a) in acc.iter_mut().enumerate() {
                    *a = (*ap.add(r)).mul_add(v, *a);
                }
            }
            *op.add(j) = acc[0];
            *op.add(ldc + j) = acc[1];
            *op.add(2 * ldc + j) = acc[2];
            *op.add(3 * ldc + j) = acc[3];
            *op.add(4 * ldc + j) = acc[4];
            *op.add(5 * ldc + j) = acc[5];
            j += 1;
        }
    }

    // -- AVX2 element-wise kernels: bit-identical to scalar -----------------
    //
    // These deliberately use separate multiply/add intrinsics (never FMA) in
    // the scalar formulas' exact association, so every level produces the
    // same bits. Only "avx2" is enabled (not "fma") as a belt-and-braces
    // guard against contraction.

    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy_avx2(dst: &mut [f32], src: &[f32], scale: f32) {
        let n = dst.len();
        let dp = dst.as_mut_ptr();
        let sp = src.as_ptr();
        let sv = _mm256_set1_ps(scale);
        let mut i = 0;
        while i + 8 <= n {
            let d = _mm256_loadu_ps(dp.add(i));
            let s = _mm256_loadu_ps(sp.add(i));
            _mm256_storeu_ps(dp.add(i), _mm256_add_ps(d, _mm256_mul_ps(sv, s)));
            i += 8;
        }
        while i < n {
            *dp.add(i) += scale * *sp.add(i);
            i += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn perturb_avx2(dst: &mut [f32], base: &[f32], dir: &[f32], scale: f32) {
        let n = dst.len();
        let dp = dst.as_mut_ptr();
        let bp = base.as_ptr();
        let rp = dir.as_ptr();
        let sv = _mm256_set1_ps(scale);
        let mut i = 0;
        while i + 8 <= n {
            let b = _mm256_loadu_ps(bp.add(i));
            let d = _mm256_loadu_ps(rp.add(i));
            _mm256_storeu_ps(dp.add(i), _mm256_add_ps(b, _mm256_mul_ps(sv, d)));
            i += 8;
        }
        while i < n {
            *dp.add(i) = *bp.add(i) + scale * *rp.add(i);
            i += 1;
        }
    }

    /// Vector `fast_tanh`: the exact operation sequence of
    /// [`crate::ops::fast_tanh`] (same rational, same Horner association,
    /// same ±1 saturation at |x| ≥ 4.97), eight lanes at a time.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn tanh8(x: __m256) -> __m256 {
        let x2 = _mm256_mul_ps(x, x);
        let p = _mm256_mul_ps(
            x,
            _mm256_add_ps(
                _mm256_set1_ps(135_135.0),
                _mm256_mul_ps(
                    x2,
                    _mm256_add_ps(
                        _mm256_set1_ps(17_325.0),
                        _mm256_mul_ps(x2, _mm256_add_ps(_mm256_set1_ps(378.0), x2)),
                    ),
                ),
            ),
        );
        let q = _mm256_add_ps(
            _mm256_set1_ps(135_135.0),
            _mm256_mul_ps(
                x2,
                _mm256_add_ps(
                    _mm256_set1_ps(62_370.0),
                    _mm256_mul_ps(
                        x2,
                        _mm256_add_ps(
                            _mm256_set1_ps(3_150.0),
                            _mm256_mul_ps(x2, _mm256_set1_ps(28.0)),
                        ),
                    ),
                ),
            ),
        );
        let rational = _mm256_div_ps(p, q);
        // Saturation: |x| ≥ 4.97 → sign(x) · 1.0 (matching the scalar
        // branch `if x > 0.0 { 1.0 } else { -1.0 }` for all such x).
        let sign_mask = _mm256_set1_ps(-0.0);
        let absx = _mm256_andnot_ps(sign_mask, x);
        let saturate = _mm256_cmp_ps::<_CMP_GE_OQ>(absx, _mm256_set1_ps(4.97));
        let signed_one = _mm256_or_ps(_mm256_and_ps(sign_mask, x), _mm256_set1_ps(1.0));
        _mm256_blendv_ps(rational, signed_one, saturate)
    }

    /// Vector GELU forward: `(0.5·x) · (1 + tanh(C · (x + ((A·x)·x)·x)))`,
    /// the exact association of [`crate::ops::gelu_scalar`].
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn gelu8(x: __m256) -> __m256 {
        let ax = _mm256_mul_ps(_mm256_set1_ps(GELU_A), x);
        let x3 = _mm256_mul_ps(_mm256_mul_ps(ax, x), x);
        let u = _mm256_mul_ps(_mm256_set1_ps(GELU_C), _mm256_add_ps(x, x3));
        let t = tanh8(u);
        _mm256_mul_ps(
            _mm256_mul_ps(_mm256_set1_ps(0.5), x),
            _mm256_add_ps(_mm256_set1_ps(1.0), t),
        )
    }

    /// Vector GELU derivative, the exact association of
    /// [`crate::ops::gelu_grad_scalar`].
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn gelu_grad8(x: __m256) -> __m256 {
        // x3 = (x·x)·x; inner = C · (x + A·x3).
        let x3 = _mm256_mul_ps(_mm256_mul_ps(x, x), x);
        let inner = _mm256_mul_ps(
            _mm256_set1_ps(GELU_C),
            _mm256_add_ps(x, _mm256_mul_ps(_mm256_set1_ps(GELU_A), x3)),
        );
        let t = tanh8(inner);
        let sech2 = _mm256_sub_ps(_mm256_set1_ps(1.0), _mm256_mul_ps(t, t));
        grad_from_t(x, t, sech2)
    }

    /// `0.5·(1+t) + ((((0.5·x)·sech²)·C) · (1 + ((3A·x)·x)))` — the shared
    /// tail of both gradient formulas, in the scalar association.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn grad_from_t(x: __m256, t: __m256, sech2: __m256) -> __m256 {
        let one = _mm256_set1_ps(1.0);
        let half = _mm256_set1_ps(0.5);
        let term1 = _mm256_mul_ps(half, _mm256_add_ps(one, t));
        let coeff = _mm256_mul_ps(
            _mm256_mul_ps(_mm256_mul_ps(half, x), sech2),
            _mm256_set1_ps(GELU_C),
        );
        let paren = _mm256_add_ps(
            one,
            _mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(GELU_3A), x), x),
        );
        _mm256_add_ps(term1, _mm256_mul_ps(coeff, paren))
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn gelu_avx2(data: &mut [f32]) {
        let n = data.len();
        let dp = data.as_mut_ptr();
        let mut i = 0;
        while i + 8 <= n {
            _mm256_storeu_ps(dp.add(i), gelu8(_mm256_loadu_ps(dp.add(i))));
            i += 8;
        }
        while i < n {
            *dp.add(i) = crate::ops::gelu_scalar(*dp.add(i));
            i += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn gelu_grad_avx2(x: &[f32], grad: &[f32], out: &mut [f32]) {
        let n = x.len();
        let xp = x.as_ptr();
        let gp = grad.as_ptr();
        let op = out.as_mut_ptr();
        let mut i = 0;
        while i + 8 <= n {
            let d = gelu_grad8(_mm256_loadu_ps(xp.add(i)));
            _mm256_storeu_ps(op.add(i), _mm256_mul_ps(d, _mm256_loadu_ps(gp.add(i))));
            i += 8;
        }
        while i < n {
            *op.add(i) = crate::ops::gelu_grad_scalar(*xp.add(i)) * *gp.add(i);
            i += 1;
        }
    }

    /// Cached-output GELU backward: both the recovered-tanh formula and the
    /// exact recompute are evaluated for all lanes and blended on
    /// `|x| > 1e-3`, matching the scalar branch lane-for-lane. The division
    /// by near-zero `x` in masked-out lanes produces inf/NaN that the blend
    /// discards (IEEE divisions do not trap).
    #[target_feature(enable = "avx2")]
    pub unsafe fn gelu_grad_cached_avx2(x: &[f32], y: &[f32], grad: &[f32], out: &mut [f32]) {
        let n = x.len();
        let xp = x.as_ptr();
        let yp = y.as_ptr();
        let gp = grad.as_ptr();
        let op = out.as_mut_ptr();
        let one = _mm256_set1_ps(1.0);
        let sign_mask = _mm256_set1_ps(-0.0);
        let mut i = 0;
        while i + 8 <= n {
            let xv = _mm256_loadu_ps(xp.add(i));
            let yv = _mm256_loadu_ps(yp.add(i));
            // t = clamp(2y/x − 1, −1, 1).
            let ratio = _mm256_div_ps(_mm256_mul_ps(_mm256_set1_ps(2.0), yv), xv);
            let t_raw = _mm256_sub_ps(ratio, one);
            let t = _mm256_min_ps(_mm256_max_ps(t_raw, _mm256_set1_ps(-1.0)), one);
            let sech2 = _mm256_sub_ps(one, _mm256_mul_ps(t, t));
            let d_cached = grad_from_t(xv, t, sech2);
            let d_exact = gelu_grad8(xv);
            let absx = _mm256_andnot_ps(sign_mask, xv);
            let use_cached = _mm256_cmp_ps::<_CMP_GT_OQ>(absx, _mm256_set1_ps(CACHED_GRAD_CUTOFF));
            let d = _mm256_blendv_ps(d_exact, d_cached, use_cached);
            _mm256_storeu_ps(op.add(i), _mm256_mul_ps(d, _mm256_loadu_ps(gp.add(i))));
            i += 8;
        }
        while i < n {
            let xi = *xp.add(i);
            let d = if xi.abs() > CACHED_GRAD_CUTOFF {
                let t = (2.0 * *yp.add(i) / xi - 1.0).clamp(-1.0, 1.0);
                let sech2 = 1.0 - t * t;
                0.5 * (1.0 + t) + 0.5 * xi * sech2 * GELU_C * (1.0 + GELU_3A * xi * xi)
            } else {
                crate::ops::gelu_grad_scalar(xi)
            };
            *op.add(i) = d * *gp.add(i);
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeededRng;

    fn sample(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = SeededRng::new(seed);
        (0..len).map(|_| rng.normal_with(0.0, 1.5)).collect()
    }

    /// Runs a GEMM through a level's kernels the way `matrix.rs` drives
    /// them: full `kern.mr`-row tiles, remainder rows through the row
    /// kernel.
    fn run_gemm(level: SimdLevel, m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let kern = kernels_for(level);
        let mr = kern.mr;
        let mut out = vec![0.0f32; m * n];
        let mut pack = vec![0.0f32; mr * k];
        let mut i0 = 0;
        while i0 + mr <= m {
            for p in 0..k {
                for r in 0..mr {
                    pack[p * mr + r] = a[(i0 + r) * k + p];
                }
            }
            (kern.tile)(&pack[..k * mr], k, b, n, n, &mut out[i0 * n..], n);
            i0 += mr;
        }
        for i in i0..m {
            (kern.row)(&a[i * k..(i + 1) * k], b, n, n, &mut out[i * n..][..n]);
        }
        out
    }

    #[test]
    fn env_spellings_resolve() {
        // Can't mutate the process env safely under parallel tests; check
        // the pure pieces instead.
        assert!(is_supported(SimdLevel::Scalar));
        assert!(detect_best() >= SimdLevel::Scalar);
        assert_eq!(SimdLevel::Scalar.label(), "scalar");
        assert_eq!(SimdLevel::Avx2.label(), "avx2");
    }

    #[test]
    fn with_level_overrides_and_restores() {
        let base = active_level();
        with_level(SimdLevel::Scalar, || {
            assert_eq!(active_level(), SimdLevel::Scalar);
            assert_eq!(active().level, SimdLevel::Scalar);
        });
        assert_eq!(active_level(), base);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_gemm_matches_scalar_within_tolerance() {
        if !is_supported(SimdLevel::Avx2) {
            return;
        }
        for &(m, k, n) in &[
            (5usize, 7usize, 9usize),
            (4, 16, 16),
            (8, 33, 17),
            (6, 130, 21),
            (13, 20, 26),
        ] {
            let a = sample(m * k, 3000 + (m * 31 + k * 7 + n) as u64);
            let b = sample(k * n, 4000 + (m + k + n) as u64);
            let scalar = run_gemm(SimdLevel::Scalar, m, k, n, &a, &b);
            let avx2 = run_gemm(SimdLevel::Avx2, m, k, n, &a, &b);
            for (i, (&s, &v)) in scalar.iter().zip(&avx2).enumerate() {
                let tol = 1e-5 * s.abs().max(1.0) * k as f32;
                assert!((s - v).abs() <= tol, "({m},{k},{n}) elem {i}: {s} vs {v}");
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_tile_rows_match_avx2_row_kernel() {
        // The per-variant determinism contract: the tile kernel and the row
        // kernel of one level share the per-element accumulation order.
        if !is_supported(SimdLevel::Avx2) {
            return;
        }
        for level in [SimdLevel::Scalar, SimdLevel::Avx2] {
            // m covers ≥2 full tiles of either height (4 or 6) plus a
            // remainder row; n covers the 16-wide, 8-wide and scalar column
            // paths of the AVX2 tile.
            let (m, k, n) = (13usize, 19usize, 26usize);
            let a = sample(m * k, 71);
            let b = sample(k * n, 72);
            let tiled = run_gemm(level, m, k, n, &a, &b);
            let kern = kernels_for(level);
            let mut by_rows = vec![0.0f32; m * n];
            for i in 0..m {
                (kern.row)(&a[i * k..(i + 1) * k], &b, n, n, &mut by_rows[i * n..][..n]);
            }
            assert_eq!(tiled, by_rows, "{level:?}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn elementwise_kernels_are_bit_identical_across_levels() {
        if !is_supported(SimdLevel::Avx2) {
            return;
        }
        let n = 103; // odd length exercises the tails
        let x = sample(n, 11);
        let y = sample(n, 12);
        let g = sample(n, 13);
        let scalar = kernels_for(SimdLevel::Scalar);
        let avx2 = kernels_for(SimdLevel::Avx2);

        let mut a1 = x.clone();
        let mut a2 = x.clone();
        (scalar.axpy)(&mut a1, &y, 0.37);
        (avx2.axpy)(&mut a2, &y, 0.37);
        assert_eq!(a1, a2, "axpy");

        let mut p1 = vec![0.0; n];
        let mut p2 = vec![0.0; n];
        (scalar.perturb)(&mut p1, &x, &y, -1.25);
        (avx2.perturb)(&mut p2, &x, &y, -1.25);
        assert_eq!(p1, p2, "perturb");

        let mut g1 = x.clone();
        let mut g2 = x.clone();
        (scalar.gelu)(&mut g1);
        (avx2.gelu)(&mut g2);
        assert_eq!(g1, g2, "gelu forward");

        let mut d1 = vec![0.0; n];
        let mut d2 = vec![0.0; n];
        (scalar.gelu_grad)(&x, &g, &mut d1);
        (avx2.gelu_grad)(&x, &g, &mut d2);
        assert_eq!(d1, d2, "gelu grad");

        // Cached backward: y must be the true forward output (g1 above),
        // plus a tiny-x element to hit the fallback lane.
        let mut xs = x.clone();
        xs[5] = 1e-4;
        xs[50] = 0.0;
        let mut ys = xs.clone();
        (scalar.gelu)(&mut ys);
        let mut c1 = vec![0.0; n];
        let mut c2 = vec![0.0; n];
        (scalar.gelu_grad_cached)(&xs, &ys, &g, &mut c1);
        (avx2.gelu_grad_cached)(&xs, &ys, &g, &mut c2);
        assert_eq!(c1, c2, "gelu grad cached");
    }

    #[test]
    fn gelu_saturation_region_matches_scalar_sign_branch() {
        // ±big inputs exercise the tanh saturation blend.
        let kern = kernels_for(detect_best());
        let mut v = vec![-100.0f32, -5.0, -4.97, 4.97, 5.0, 100.0, 0.0];
        let expect: Vec<f32> = v.iter().map(|&x| crate::ops::gelu_scalar(x)).collect();
        (kern.gelu)(&mut v);
        assert_eq!(v, expect);
    }
}
