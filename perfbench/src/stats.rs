//! Exact per-op statistics over fixed-work slices.
//!
//! A timed phase is split into slices. Each slice keeps its exact
//! per-op samples, from which its mean and exact percentiles are
//! taken; a run's figure is the median of its slices' figures. Slices
//! carry the probe readings taken before, inside and after them, so
//! each can be reported raw or host-adjusted.

use crate::host::{adjust_factor, Probe};

/// Nearest-rank percentile `q` (0 < q ≤ 1) of `sorted`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile, at most p99, that leaves at least ten
/// samples beyond it.
pub fn tail_quantile(n: usize) -> f64 {
    (1.0 - 10.0 / n as f64).clamp(0.5, 0.99)
}

/// Median of `values` (which it sorts).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, 0.5)
}

/// Figures of one fixed-work slice, in raw nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    /// Mean of the probe readings (µs) taken before, inside and after
    /// the slice: the reading attributed to it.
    pub probe_mid: f64,
    /// Ops timed in the slice.
    pub ops: u64,
    /// Mean op time.
    pub mean_ns: f64,
    /// Exact median op time.
    pub p50_ns: f64,
    /// Exact tail op time (see [`tail_quantile`]).
    pub tail_ns: f64,
    /// Ops whose host-adjusted time missed the workload's deadline, or
    /// that were recorded as missed outright.
    pub late: u64,
    /// Whether this slice ran traced (per-layer timing on).
    pub traced: bool,
    /// The workload's host sensitivity (see [`adjust_factor`]).
    pub sensitivity: f64,
}

impl Slice {
    /// The slice's host-adjustment factor.
    pub fn factor(&self) -> f64 {
        adjust_factor(self.probe_mid, self.sensitivity)
    }
}

/// The slices of one run plus the probe that brackets them.
pub struct SliceLog {
    probe: Probe,
    sensitivity: f64,
    deadline_ns: f64,
    /// Readings of the open slice so far, the one before it first.
    readings: Vec<f64>,
    /// Every probe reading of the run, in order.
    pub probes: Vec<f64>,
    /// Every slice of the run, in order.
    pub slices: Vec<Slice>,
    /// The open slice's op times, in ns.
    samples: Vec<f64>,
    /// The open slice's op times of ops that missed outright.
    missed: Vec<f64>,
}

impl SliceLog {
    /// Starts a log for a workload of the given host sensitivity and
    /// per-op deadline, with a warm probe and a first reading.
    pub fn new(sensitivity: f64, deadline_ns: f64) -> Self {
        let mut probe = Probe::new();
        let first = probe.measure();
        Self {
            probe,
            sensitivity,
            deadline_ns,
            readings: vec![first],
            probes: vec![first],
            slices: Vec::new(),
            samples: Vec::new(),
            missed: Vec::new(),
        }
    }

    /// Takes a probe reading inside the open slice. Workloads take a
    /// few per slice, so a slice's reading follows a neighbour that
    /// comes and goes within it.
    pub fn checkpoint(&mut self) {
        let reading = self.probe.measure();
        self.probes.push(reading);
        self.readings.push(reading);
    }

    /// A bare probe reading that opens no slice (set-up brackets).
    pub fn probe_now(&mut self) -> f64 {
        self.probe.measure()
    }

    /// Records one op of the open slice by its raw time in ns.
    pub fn record(&mut self, ns: f64) {
        self.samples.push(ns);
    }

    /// Records one op that took `ns` but missed outright (a gap, a shed
    /// frame): it counts in the latency figures and as late.
    pub fn record_missed(&mut self, ns: f64) {
        self.samples.push(ns);
        self.missed.push(ns);
    }

    /// Closes the open slice: probes after it (the reading also opens
    /// the next slice) and records its exact figures.
    pub fn close(&mut self, traced: bool) {
        let after = self.probe.measure();
        self.probes.push(after);
        self.readings.push(after);
        let readings = std::mem::replace(&mut self.readings, vec![after]);
        if self.samples.is_empty() {
            return;
        }
        let ops = self.samples.len();
        let mean_ns = self.samples.iter().sum::<f64>() / ops as f64;
        self.samples.sort_by(f64::total_cmp);
        let mut slice = Slice {
            probe_mid: readings.iter().sum::<f64>() / readings.len() as f64,
            ops: ops as u64,
            mean_ns,
            p50_ns: percentile(&self.samples, 0.5),
            tail_ns: percentile(&self.samples, tail_quantile(ops)),
            late: 0,
            traced,
            sensitivity: self.sensitivity,
        };
        let limit = self.deadline_ns / slice.factor();
        let over = |v: &Vec<f64>| v.iter().filter(|&&ns| ns > limit).count();
        slice.late = (over(&self.samples) - over(&self.missed) + self.missed.len()) as u64;
        self.samples.clear();
        self.missed.clear();
        self.slices.push(slice);
    }

    /// The untraced slices a run's end-to-end figures come from, with
    /// their indices in [`Self::slices`].
    pub fn untraced(&self) -> impl Iterator<Item = (usize, &Slice)> {
        self.slices.iter().enumerate().filter(|(_, s)| !s.traced)
    }

    /// Median over the untraced slices of `f(slice) × factor`,
    /// where the factor is the slice's host adjustment or 1 for raw
    /// figures.
    pub fn median_of(&self, adjusted: bool, f: impl Fn(&Slice) -> f64) -> f64 {
        let mut values: Vec<f64> = self
            .untraced()
            .map(|(_, s)| f(s) * if adjusted { s.factor() } else { 1.0 })
            .collect();
        median(&mut values)
    }

    /// Share (in %) of the untraced slices' ops that met the
    /// deadline on the host-adjusted scale and did not miss outright.
    pub fn on_time_pct(&self) -> f64 {
        let (ops, late) = self
            .untraced()
            .fold((0, 0), |(ops, late), (_, s)| (ops + s.ops, late + s.late));
        100.0 * (ops - late) as f64 / ops.max(1) as f64
    }

    /// Median probe reading of the run, in µs.
    pub fn probe_median(&self) -> f64 {
        median(&mut self.probes.clone())
    }
}

/// Times `reps` set-ups, each bracketed by probe readings, and returns
/// the median set-up time in seconds (host-adjusted, raw) with the
/// last set-up's product.
pub fn timed_setup<T>(
    log: &mut SliceLog,
    reps: usize,
    mut build: impl FnMut() -> Result<T, String>,
) -> Result<(f64, f64, T), String> {
    let mut adjusted = Vec::with_capacity(reps);
    let mut raw = Vec::with_capacity(reps);
    let mut product = None;
    for _ in 0..reps {
        let before = log.probe_now();
        let start = std::time::Instant::now();
        let built = build()?;
        let secs = start.elapsed().as_secs_f64();
        let after = log.probe_now();
        // Drop the previous product outside the timed region.
        drop(product.replace(built));
        raw.push(secs);
        adjusted.push(secs * adjust_factor(0.5 * (before + after), log.sensitivity));
    }
    let product = product.ok_or("set-up ran zero times")?;
    Ok((median(&mut adjusted), median(&mut raw), product))
}

/// Drives fixed-work slices until `measure` has elapsed. `slice` runs
/// one slice, recording its ops in the log; with
/// `trace` on, slices alternate untraced and traced so both see the
/// same host regimes.
pub fn drive(
    log: &mut SliceLog,
    measure: std::time::Duration,
    trace: bool,
    mut slice: impl FnMut(&mut SliceLog, bool) -> Result<(), String>,
) -> Result<(), String> {
    let start = std::time::Instant::now();
    let mut traced = false;
    while start.elapsed() < measure {
        slice(log, traced)?;
        log.close(traced);
        if trace {
            traced = !traced;
        }
    }
    Ok(())
}

/// Per-stage self-time sums of traced slices.
pub struct StageLedger {
    names: Vec<&'static str>,
    /// (slice index, ns per stage, ops) for each traced slice.
    rows: Vec<(usize, Vec<f64>, u64)>,
}

impl StageLedger {
    /// A ledger over the named stages.
    pub fn new(names: &[&'static str]) -> Self {
        Self {
            names: names.to_vec(),
            rows: Vec::new(),
        }
    }

    /// Records one traced slice (the next slice `log` will close).
    pub fn record(&mut self, log: &SliceLog, ns: Vec<f64>, ops: u64) {
        self.rows.push((log.slices.len(), ns, ops));
    }

    /// Pooled, host-adjusted self time per op of each stage, in µs.
    pub fn per_op_us(&self, log: &SliceLog) -> Vec<(&'static str, f64)> {
        let ops: u64 = self.rows.iter().map(|r| r.2).sum();
        self.names
            .iter()
            .enumerate()
            .map(|(i, &name)| {
                let ns: f64 = self
                    .rows
                    .iter()
                    .map(|(slice, sums, _)| sums[i] * log.slices[*slice].factor())
                    .sum();
                (name, ns / ops.max(1) as f64 / 1e3)
            })
            .collect()
    }
}

/// Pooled, host-adjusted mean op time in µs over the traced or
/// untraced slices.
pub fn pooled_mean_us(log: &SliceLog, traced: bool) -> f64 {
    let (ns, ops) = log
        .slices
        .iter()
        .filter(|s| s.traced == traced)
        .fold((0.0, 0_u64), |(ns, ops), s| {
            (ns + s.mean_ns * s.ops as f64 * s.factor(), ops + s.ops)
        });
    ns / ops.max(1) as f64 / 1e3
}

/// Fills the ledger metrics and note: stage self times per op, their
/// sum, the untraced per-op time, the residual, and the tracing
/// overhead (traced minus untraced per-op time).
pub fn ledger_note(
    report: &mut crate::report::Report,
    workload: &str,
    stages: &[(&'static str, f64)],
    untraced: f64,
    traced: f64,
) {
    let sum: f64 = stages.iter().map(|s| s.1).sum();
    let residual = untraced - sum;
    report.layers.insert("ledger.stage_sum_us", sum);
    report.layers.insert("ledger.untraced_us", untraced);
    report
        .layers
        .insert("ledger.residual_pct", 100.0 * residual / untraced);
    report.layers.insert("trace.overhead_us", traced - untraced);
    let parts: Vec<String> = stages
        .iter()
        .map(|(n, v)| format!("\"{n}\": {v}"))
        .collect();
    report.notes.push(format!(
        "{{\"ledger\": {{\"workload\": \"{workload}\", \"stages_us\": {{{}}}, \
         \"stage_sum_us\": {sum}, \"untraced_us\": {untraced}, \"residual_us\": {residual}, \
         \"traced_us\": {traced}}}}}",
        parts.join(", ")
    ));
}
