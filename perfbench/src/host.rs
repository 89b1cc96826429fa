//! Host facts and the host-contention control.
//!
//! The benchmark host alternates between a quiet regime and contended
//! ones in which vector- and memory-heavy code runs markedly slower.
//! The control is a reference kernel the benchmark owns and that never
//! changes: a short, warm, L1-resident f32 dot/AXPY loop. It is timed
//! around and inside every fixed-work slice of a workload; a
//! host-adjusted time is the raw time scaled by [`adjust_factor`], so a
//! slice run in a contended regime is brought back to the quiet
//! regime's scale. Raw times stay recoverable from `host.probe_us`.

use std::hint::black_box;
use std::time::Instant;

/// f32 lanes per probe array: two arrays of 4 KiB, resident in L1.
const PROBE_LANES: usize = 1024;

/// Kernel passes per probe sample (one sample takes a few µs).
const PROBE_PASSES: usize = 12;

/// Samples per probe reading; the reading is the mean of all but the
/// slowest (which may hold an interrupt), so it follows how much of
/// the reading's span a bursty neighbour was active.
const PROBE_SAMPLES: usize = 5;

/// The probe reading's fixed nominal time, in µs: the scale every
/// host-adjusted time is expressed in. It is the probe's reading in the
/// quiet regime of the 2-vCPU benchmark host (the fastest decile of
/// 80 runs' readings, see `METRICS.md`), so adjusted times equal raw
/// ones when the host is quiet. A constant of the benchmark, never
/// re-measured, so adjusted figures compare across commits.
pub const PROBE_NOMINAL_US: f64 = 6.73;

/// A probe reading above this multiple of the nominal reading marks
/// the contended regime.
const SLOW_FACTOR: f64 = 1.25;

/// The reference kernel with its own warm buffers.
pub struct Probe {
    a: Vec<f32>,
    b: Vec<f32>,
}

impl Probe {
    /// Allocates and warms the kernel.
    pub fn new() -> Self {
        // No lane of `a` is 0, so every lane of `b` converges to a
        // normal value and never decays into denormals, whose
        // arithmetic is far slower: the reading must not drift with
        // the number of passes a run makes.
        let a: Vec<f32> = (0..PROBE_LANES)
            .map(|i| ((i % 17) + 1) as f32 * 0.125)
            .collect();
        let b: Vec<f32> = (0..PROBE_LANES).map(|i| (i % 13) as f32 * 0.25).collect();
        let mut probe = Self { a, b };
        for _ in 0..64 {
            probe.sample_us();
        }
        probe
    }

    /// One timed pass over the kernel, in µs.
    fn sample_us(&mut self) -> f64 {
        let start = Instant::now();
        let mut acc = [0.0_f32; 8];
        for _ in 0..PROBE_PASSES {
            for (x, y) in self.a.chunks_exact(8).zip(self.b.chunks_exact_mut(8)) {
                for k in 0..8 {
                    acc[k] += x[k] * y[k];
                    y[k] = y[k] * 0.999_9 + x[k] * 1.0e-4;
                }
            }
            black_box(&mut self.b);
        }
        black_box(acc);
        start.elapsed().as_secs_f64() * 1e6
    }

    /// A probe reading in µs (see [`PROBE_SAMPLES`]).
    pub fn measure(&mut self) -> f64 {
        let mut samples = [0.0_f64; PROBE_SAMPLES];
        for s in &mut samples {
            *s = self.sample_us();
        }
        samples.sort_by(f64::total_cmp);
        samples[..PROBE_SAMPLES - 1].iter().sum::<f64>() / (PROBE_SAMPLES - 1) as f64
    }
}

/// The factor that brings a time measured next to `probe_us` to the
/// nominal host scale, for a workload whose slowdown in the contended
/// regime is the probe's slowdown raised to `sensitivity` (1: slows
/// like the probe; 0: unaffected, timings stay raw).
pub fn adjust_factor(probe_us: f64, sensitivity: f64) -> f64 {
    (PROBE_NOMINAL_US / probe_us).powf(sensitivity)
}

/// Share of probe readings (in %) that mark the contended regime.
pub fn slow_share_pct(probes: &[f64]) -> f64 {
    let slow = probes
        .iter()
        .filter(|&&p| p > SLOW_FACTOR * PROBE_NOMINAL_US)
        .count();
    100.0 * slow as f64 / probes.len().max(1) as f64
}

/// The process's peak resident set size in MB (`VmHWM`), if the
/// platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
