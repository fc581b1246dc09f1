//! Host-speed calibration.
//!
//! The benchmark runs on a few cores of a shared host whose speed shifts
//! by tens of percent over minutes as neighbours come and go. A fixed
//! kernel, built only from this file and the standard library (so no
//! change to the program moves it), is timed between the operations the
//! benchmark measures. Each operation's host time is then scaled by
//! `REFERENCE_S` over the mean of the two kernel times around it, so host
//! times are reported at the kernel's reference speed: the host's drift
//! cancels, the program's own speed still shows.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's time, about what it takes on a lightly loaded 2-vCPU
/// 2.1 GHz Xeon VM. Host times are reported as if every kernel around the
/// operation had taken this long.
pub const REFERENCE_S: f64 = 0.0015;

/// Runs the kernel once and returns its wall time in seconds. It mixes
/// what the tuner and the daemon spend their time on: hashing into a map,
/// sorting, and small allocations with formatting, over a working set of a
/// few hundred KiB. Allocation and formatting slow most when neighbours
/// load the host, as the daemon's compiles do, so they weigh double; with
/// this mix the kernel slows about as much as a tune does.
pub fn kernel_seconds() -> f64 {
    let started = Instant::now();
    let mut x = 0x5EED_u64;
    let mut next = || {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut map: HashMap<u64, u64> = HashMap::new();
    for i in 0..12_000u64 {
        *map.entry(next() % 8_192).or_insert(0) += i;
    }
    let mut keys: Vec<u64> = (0..24_000).map(|_| next()).collect();
    keys.sort_unstable();
    let words: Vec<String> = keys.iter().step_by(4).map(|k| format!("{k:x}")).collect();
    black_box((map.len(), keys[keys.len() / 2], words.len()));
    started.elapsed().as_secs_f64()
}

/// Kernel times taken along a run. An operation that ran between samples
/// `i` and `i + 1` is scaled by their mean.
#[derive(Default)]
pub struct Calibration(Vec<f64>);

impl Calibration {
    /// Times the kernel `reps` times (odd) and keeps the median. Returns
    /// the sample's index: the `i` of the operation that runs next.
    pub fn sample(&mut self, reps: usize) -> usize {
        let mut times: Vec<f64> = (0..reps).map(|_| kernel_seconds()).collect();
        times.sort_by(f64::total_cmp);
        self.0.push(times[times.len() / 2]);
        self.0.len() - 1
    }

    /// How much slower than the reference the host ran between samples
    /// `i` and `i + 1` (`i + 1` must exist).
    pub fn slowdown(&self, i: usize) -> f64 {
        (self.0[i] + self.0[i + 1]) / (2.0 * REFERENCE_S)
    }

    /// Median kernel time of the run, in ms.
    pub fn median_ms(&self) -> f64 {
        let mut all = self.0.clone();
        all.sort_by(f64::total_cmp);
        all.get(all.len() / 2).map_or(0.0, |s| s * 1e3)
    }
}
