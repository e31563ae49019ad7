//! Host-speed calibration.
//!
//! Shared virtual hosts change speed by a factor of two or more within
//! minutes (neighbours' load on shared cores and caches, hypervisor
//! steal), which swamps any change a commit makes. The benchmark therefore
//! times a fixed computation of its own, on every pool thread at once,
//! before the first repetition and about once a second after, and scales
//! the run's wall times by the reference time over the mean of these
//! timings. The computation lives in the benchmark, so no change
//! to the program can make it faster or slower.

use std::hint::black_box;
use std::time::Instant;

/// Side of the square matrices the calibration multiplies: three 96×96
/// f32 matrices (108 KiB) sit in L2, like the model's hot working set.
const N: usize = 96;

/// Multiplications per timing: about 20 ms, long enough that the timing
/// shares the host's contention and steal with the workload around it
/// instead of slipping between bursts of it.
const ITERS: usize = 100;

/// Calibration time, in nanoseconds, of the reference host: scaled
/// timings read as if measured on a host this fast.
pub const REFERENCE_NS: f64 = 2.2e7;

/// Wall nanoseconds the calibration takes with `threads` threads running
/// it at once, as the slowest thread saw it.
pub fn measure(threads: usize) -> f64 {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.max(1)).map(|_| scope.spawn(kernel)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("calibration threads do not panic"))
            .fold(0.0, f64::max)
    })
}

/// Times `ITERS` naive matrix products on the calling thread.
fn kernel() -> f64 {
    let a: Vec<f32> = (0..N * N).map(|i| (i % 7) as f32 * 0.25).collect();
    let b: Vec<f32> = (0..N * N).map(|i| (i % 5) as f32 * 0.5).collect();
    let mut c = vec![0.0f32; N * N];
    let start = Instant::now();
    for _ in 0..ITERS {
        let a = black_box(&a);
        let b = black_box(&b);
        for i in 0..N {
            let row = &mut c[i * N..(i + 1) * N];
            row.fill(0.0);
            for k in 0..N {
                let aik = a[i * N + k];
                for (cij, bkj) in row.iter_mut().zip(&b[k * N..(k + 1) * N]) {
                    *cij += aik * bkj;
                }
            }
        }
        black_box(&mut c);
    }
    start.elapsed().as_nanos() as f64
}
