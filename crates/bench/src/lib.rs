//! # MINDFUL bench — the one timing and artifact path
//!
//! Every bench in `benches/` is a plain `fn main()` that times its
//! workloads with [`compare`] and reports them through a [`Report`]:
//! `figures` times the regeneration of each paper table and figure,
//! `substrates` the hot path of each substrate crate, `sweep` the
//! design-space engine, and the acceptance benches (`infer`,
//! `pipeline`, `fault`, `obs`, `secure`, `serve`) assert their gates
//! on the median per-pair ratio [`Timing::ratio_p50`].
//!
//! Each bench writes `BENCH_{name}.json` into the directory it passes
//! to [`Report::write`], `env!("CARGO_TARGET_TMPDIR")` (under the cargo
//! target directory), so a run never edits the source tree. Every
//! artifact has one schema: the bench name, a host stamp and one row
//! per line.
//!
//! ```text
//! {
//!   "bench": "secure",
//!   "host": {"available_parallelism": 2, "simd": "avx2", "quick": true},
//!   "rows": [
//!     {"name": "auth_vs_plain", "pairs": 15, "reps": 1, "a_ns": 598000, "b_ns": 647000, "ratio_p10": 1.06, "ratio_p50": 1.08, "ratio_p90": 1.1}
//!   ]
//! }
//! ```

use std::fmt;
use std::hint::black_box;
use std::path::PathBuf;

use mindful_core::obs::clock;

/// What [`compare`] measured: each side's median wall time per call
/// and the spread of the per-pair ratio `b ÷ a`.
///
/// A one-sided timing (no `b`) has `b_ns` and the three ratio
/// quantiles set to NaN, so a gate on them fails.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Samples taken of each side.
    pub pairs: usize,
    /// Calls of each side per sample.
    pub reps: usize,
    /// Median wall time of one call of `a`, in nanoseconds.
    pub a_ns: f64,
    /// Median wall time of one call of `b`, in nanoseconds.
    pub b_ns: f64,
    /// 10th percentile of the per-pair ratio `b ÷ a`.
    pub ratio_p10: f64,
    /// Median of the per-pair ratio `b ÷ a`: the statistic every gate
    /// asserts on.
    pub ratio_p50: f64,
    /// 90th percentile of the per-pair ratio `b ÷ a`.
    pub ratio_p90: f64,
}

impl Timing {
    /// This timing as a report row named `name`. A paired row named
    /// `x_vs_y` reads `b = x`, `a = y`, so its ratio is `x ÷ y`.
    #[must_use]
    pub fn row(&self, name: impl Into<String>) -> Row {
        let row = Row::new(name)
            .with("pairs", self.pairs as f64)
            .with("reps", self.reps as f64)
            .with("a_ns", self.a_ns);
        if self.b_ns.is_nan() {
            return row;
        }
        row.with("b_ns", self.b_ns)
            .with("ratio_p10", self.ratio_p10)
            .with("ratio_p50", self.ratio_p50)
            .with("ratio_p90", self.ratio_p90)
    }
}

/// Mean wall time of one call of `f` over `reps` back-to-back calls,
/// in nanoseconds: one clock read pair per sample, so sub-µs calls are
/// not swamped by the clock.
fn sample(reps: usize, f: &mut impl FnMut()) -> f64 {
    let start = clock::now_ns();
    for _ in 0..reps {
        f();
    }
    clock::since_ns(start) as f64 / reps as f64
}

/// The `q` quantile of `values` (nearest rank; NaN when empty). At
/// `q = 0.5` this is the upper median.
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => f64::NAN,
        n => sorted[((n - 1) as f64 * q).round() as usize],
    }
}

/// Times `a` against `b` in `pairs` pairs of samples, each sample
/// `reps` calls, and alternates which side runs first so host drift
/// and warm-up hit both sides alike. With `b = None` this times `a`
/// alone.
///
/// # Panics
///
/// Panics when `pairs` or `reps` is 0.
pub fn compare<A: FnMut(), B: FnMut()>(
    pairs: usize,
    reps: usize,
    mut a: A,
    mut b: Option<B>,
) -> Timing {
    assert!(pairs > 0 && reps > 0, "a timing needs a pair and a call");
    let mut ta = Vec::with_capacity(pairs);
    let mut tb = Vec::with_capacity(pairs);
    for i in 0..pairs {
        match b.as_mut() {
            None => ta.push(sample(reps, &mut a)),
            Some(b) if i % 2 == 0 => {
                ta.push(sample(reps, &mut a));
                tb.push(sample(reps, b));
            }
            Some(b) => {
                tb.push(sample(reps, b));
                ta.push(sample(reps, &mut a));
            }
        }
    }
    let ratios: Vec<f64> = ta.iter().zip(&tb).map(|(a, b)| b / a).collect();
    Timing {
        pairs,
        reps,
        a_ns: quantile(&ta, 0.5),
        b_ns: quantile(&tb, 0.5),
        ratio_p10: quantile(&ratios, 0.1),
        ratio_p50: quantile(&ratios, 0.5),
        ratio_p90: quantile(&ratios, 0.9),
    }
}

/// One named row of a [`Report`]: numeric fields in insertion order.
#[derive(Debug)]
pub struct Row {
    name: String,
    fields: Vec<(&'static str, f64)>,
}

impl Row {
    /// An empty row named `name`.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            fields: Vec::new(),
        }
    }

    /// This row with one more field.
    #[must_use]
    pub fn with(mut self, key: &'static str, value: f64) -> Self {
        self.fields.push((key, value));
        self
    }

    /// The row as one JSON object; a non-finite value is `null`.
    fn json(&self) -> String {
        let mut json = format!("{{\"name\": \"{}\"", self.name);
        for (key, value) in &self.fields {
            if value.is_finite() {
                json += &format!(", \"{key}\": {value}");
            } else {
                json += &format!(", \"{key}\": null");
            }
        }
        json + "}"
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)?;
        for (key, value) in &self.fields {
            if value.fract() == 0.0 {
                write!(f, "  {key}={value}")?;
            } else {
                write!(f, "  {key}={value:.3}")?;
            }
        }
        Ok(())
    }
}

/// The rows one bench measured, printed as they come and written as
/// one artifact at the end.
#[derive(Debug)]
pub struct Report {
    bench: &'static str,
    rows: Vec<Row>,
}

impl Report {
    /// An empty report for the bench named `bench`.
    #[must_use]
    pub fn new(bench: &'static str) -> Self {
        Self {
            bench,
            rows: Vec::new(),
        }
    }

    /// Prints `row` and keeps it for the artifact.
    pub fn push(&mut self, row: Row) {
        println!("{}/{row}", self.bench);
        self.rows.push(row);
    }

    /// Times `f` alone with [`compare`] (`samples` samples of `reps`
    /// calls) and pushes the row named `name`.
    pub fn time<T>(&mut self, name: &str, samples: usize, reps: usize, mut f: impl FnMut() -> T) {
        let t = compare(
            samples,
            reps,
            || {
                black_box(f());
            },
            None::<fn()>,
        );
        self.push(t.row(name));
    }

    /// The artifact: bench name, host stamp and one row per line.
    fn json(&self) -> String {
        let host = format!(
            "{{\"available_parallelism\": {}, \"simd\": \"{}\", \"quick\": {}}}",
            std::thread::available_parallelism().map_or(1, usize::from),
            mindful_dnn::simd::level(),
            mindful_core::env::bench_quick(),
        );
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| format!("    {}", r.json()))
            .collect();
        format!(
            "{{\n  \"bench\": \"{}\",\n  \"host\": {host},\n  \"rows\": [\n{}\n  ]\n}}\n",
            self.bench,
            rows.join(",\n"),
        )
    }

    /// Writes the artifact to `{dir}/BENCH_{bench}.json` and prints the
    /// path. A bench passes
    /// `env!("CARGO_TARGET_TMPDIR")`, which cargo sets only when it
    /// compiles bench and test targets.
    ///
    /// # Panics
    ///
    /// Panics when the directory or the file cannot be written: a bench
    /// that ran but left no artifact is a silent gate failure.
    pub fn write(&self, dir: &str) {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("{dir} is creatable: {e}"));
        let path = PathBuf::from(dir).join(format!("BENCH_{}.json", self.bench));
        std::fs::write(&path, self.json())
            .unwrap_or_else(|e| panic!("{} is writable: {e}", path.display()));
        println!("wrote {}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn pairs_alternate_which_side_runs_first() {
        let order = RefCell::new(String::new());
        let t = compare(
            4,
            2,
            || order.borrow_mut().push('a'),
            Some(|| order.borrow_mut().push('b')),
        );
        assert_eq!(*order.borrow(), "aabbbbaaaabbbbaa");
        assert_eq!((t.pairs, t.reps), (4, 2));
    }

    #[test]
    fn one_sided_timing_has_no_ratio() {
        let mut calls = 0;
        let t = compare(3, 5, || calls += 1, None::<fn()>);
        assert_eq!(calls, 15);
        let mut report = Report::new("unit");
        report.time("alone", 2, 4, || calls += 1);
        assert_eq!(calls, 23);
        assert!(t.b_ns.is_nan() && t.ratio_p50.is_nan());
        let row = t.row("alone");
        assert_eq!(
            row.fields.iter().map(|f| f.0).collect::<Vec<_>>(),
            ["pairs", "reps", "a_ns"]
        );
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=15).rev().map(f64::from).collect();
        assert_eq!(quantile(&v, 0.1), 2.0);
        assert_eq!(quantile(&v, 0.5), 8.0);
        assert_eq!(quantile(&v, 0.9), 14.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 2.0, "upper median");
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn artifact_has_a_host_stamp_and_one_row_per_line() {
        let mut report = Report::new("unit");
        report.push(
            Row::new("x_vs_y")
                .with("ratio_p50", 1.5)
                .with("gap", f64::NAN),
        );
        report.push(Row::new("counts").with("misses", 0.0));
        let json = report.json();
        let lines: Vec<&str> = json.lines().collect();
        assert_eq!(lines[1], "  \"bench\": \"unit\",");
        assert!(lines[2].starts_with("  \"host\": {\"available_parallelism\": "));
        assert!(lines[2].contains("\"simd\": ") && lines[2].contains("\"quick\": "));
        assert_eq!(
            lines[4],
            "    {\"name\": \"x_vs_y\", \"ratio_p50\": 1.5, \"gap\": null},"
        );
        assert_eq!(lines[5], "    {\"name\": \"counts\", \"misses\": 0}");
    }
}
