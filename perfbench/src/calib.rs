//! Host-speed calibration.
//!
//! The CPU speed of a shared host drifts by up to 2× over minutes as other
//! tenants come and go, which moves every wall time with it. Before each
//! pass the benchmark times a fixed kernel that calls no program code —
//! ordered-map inserts and a scan, pointer-chasing and allocation-heavy like
//! the analyses — and reports times at a reference speed: the wall-time
//! median times [`REFERENCE_S`] over the kernel-time median of the same
//! run. A program change cannot move the kernel, so it moves these times
//! exactly as it moves wall time.
//!
//! Each calibration point is the fastest of [`REPEATS`] kernel runs, so a
//! timer interrupt or a cache left cold by the previous pass does not
//! count as a slower host.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's time on the reference host: the unit that turns the ratio
/// of two measured times back into seconds.
pub const REFERENCE_S: f64 = 0.01;

/// Keys the kernel inserts.
const KEYS: u64 = 60_000;

/// Kernel runs per calibration point.
const REPEATS: usize = 3;

/// One calibration point: the fastest of [`REPEATS`] kernel runs, seconds.
pub fn kernel_s() -> f64 {
    (0..REPEATS).map(|_| kernel_once_s()).fold(f64::INFINITY, f64::min)
}

fn kernel_once_s() -> f64 {
    let t0 = Instant::now();
    let mut map = BTreeMap::new();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for i in 0..KEYS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x, i);
    }
    let sum = map.iter().fold(0u64, |acc, (k, v)| acc.wrapping_add(k ^ v));
    black_box(sum);
    drop(black_box(map));
    t0.elapsed().as_secs_f64()
}
