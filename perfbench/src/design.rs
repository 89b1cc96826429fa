//! `design-space`: batch regeneration of the paper's design-space
//! results.
//!
//! One op regenerates, in memory, Figs. 5, 6, 7, 10, 11 and 12 and the
//! full-space exploration with their `generate()` functions — the
//! analytical framework (`core::sweep`, `rf::efficiency`,
//! `dnn::integration`, `accel`) that no implant chain exercises.
//! Ablations and the self-timing studies are left out.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use mindful_core::pool::Scheduler;
use mindful_experiments::{explore, fig10, fig11, fig12, fig5, fig6, fig7};

use crate::report::Report;
use crate::stats::{
    drive, ledger_note, median, percentile, pooled_mean_us, tail_quantile, timed_setup,
};
use crate::stats::{SliceLog, StageLedger};
use crate::Args;

/// The regenerated experiments, in op order.
const PARTS: [&str; 7] = ["fig5", "fig6", "fig7", "fig10", "fig11", "fig12", "explore"];
/// Host sensitivity 0: timings stay raw. The scalar analytical sweep
/// slows little in the contended regime (1.05x at a 1.74x probe) and
/// drifts in ways the probe does not see; adjusting by the fitted 0.10
/// did not narrow the spread between runs (see `METRICS.md`).
const SENSITIVITY: f64 = 0.0;
/// Golden-figure tolerances (absolute and relative), as the golden
/// suite applies them.
const ABS_TOL: f64 = 1e-9;
const REL_TOL: f64 = 1e-9;

/// Runs experiment `index` of [`PARTS`], returning a value the caller
/// keeps alive until timing stops.
fn part(index: usize) -> mindful_experiments::Result<Box<dyn std::any::Any>> {
    Ok(match index {
        0 => Box::new(fig5::generate()?),
        1 => Box::new(fig6::generate()?),
        2 => Box::new(fig7::generate()?),
        3 => Box::new(fig10::generate()?),
        4 => Box::new(fig11::generate()?),
        5 => Box::new(fig12::generate()?),
        _ => Box::new(explore::generate()?),
    })
}

fn checkout_path(relative: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(relative)
}

fn close(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= ABS_TOL + REL_TOL * a.abs().max(b.abs())
}

/// Compares a rendered CSV with its golden snapshot field by field:
/// numbers within tolerance, text exactly, same header and row count.
fn compare_csv(name: &str, golden: &str, produced: &str) -> Result<(), String> {
    let g: Vec<&str> = golden.lines().collect();
    let p: Vec<&str> = produced.lines().collect();
    if g.len() != p.len() || g.first() != p.first() {
        return Err(format!(
            "{name}: header or row count differs from the golden snapshot"
        ));
    }
    for (row, (gl, pl)) in g.iter().zip(&p).enumerate().skip(1) {
        let gf: Vec<&str> = gl.split(',').collect();
        let pf: Vec<&str> = pl.split(',').collect();
        if gf.len() != pf.len() {
            return Err(format!("{name} row {row}: field count differs"));
        }
        for (col, (gv, pv)) in gf.iter().zip(&pf).enumerate() {
            let same = match (gv.parse::<f64>(), pv.parse::<f64>()) {
                (Ok(a), Ok(b)) => close(a, b),
                _ => gv == pv,
            };
            if !same {
                return Err(format!(
                    "{name} row {row} col {col}: golden {gv} vs produced {pv}"
                ));
            }
        }
    }
    Ok(())
}

/// Correctness gate: one regeneration, rendered, matches
/// `tests/golden/` within the golden suite's tolerances.
fn gate() -> Result<(), String> {
    let out = checkout_path("out");
    let e = |e: mindful_experiments::ExperimentError| e.to_string();
    for name in PARTS {
        let dir = out.join(name);
        match name {
            "fig5" => fig5::render(&fig5::generate().map_err(e)?, &dir).map(drop),
            "fig6" => fig6::render(&fig6::generate().map_err(e)?, &dir).map(drop),
            "fig7" => fig7::render(&fig7::generate().map_err(e)?, &dir).map(drop),
            "fig10" => fig10::render(&fig10::generate().map_err(e)?, &dir).map(drop),
            "fig11" => fig11::render(&fig11::generate().map_err(e)?, &dir).map(drop),
            "fig12" => fig12::render(&fig12::generate().map_err(e)?, &dir).map(drop),
            _ => explore::render(&explore::generate().map_err(e)?, &dir).map(drop),
        }
        .map_err(e)?;
        let file = format!("{name}.csv");
        let read =
            |p: PathBuf| std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()));
        let golden = read(checkout_path("../tests/golden").join(&file))?;
        let produced = read(dir.join(&file))?;
        compare_csv(&file, &golden, &produced)?;
    }
    std::fs::remove_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut log = SliceLog::new(SENSITIVITY, f64::INFINITY);
    // The workload's own set-up is the warm-up to its first timed op:
    // the first regeneration in the process, which pays every one-time
    // cost (code and data first touched, lazily built state). It
    // happens once per process, so it is timed once.
    let (setup_s, setup_raw, ()) = timed_setup(&mut log, 1, || {
        for index in 0..PARTS.len() {
            black_box(part(index).map_err(|e| e.to_string())?);
        }
        Ok(())
    })?;
    gate()?;

    let mut ledger = StageLedger::new(&PARTS);
    let mut core_ms = (Vec::new(), Vec::new());
    let mut attempted = 0_u64;
    drive(&mut log, args.measure, args.trace, |log, traced| {
        if !traced {
            let t0 = Instant::now();
            for index in 0..PARTS.len() {
                black_box(part(index).map_err(|e| e.to_string())?);
            }
            log.record(t0.elapsed().as_nanos() as f64);
            attempted += 1;
            return Ok(());
        }
        let mut ns = vec![0.0; PARTS.len()];
        let t0 = Instant::now();
        for (index, slot) in ns.iter_mut().enumerate() {
            let t = Instant::now();
            black_box(part(index).map_err(|e| e.to_string())?);
            *slot = t.elapsed().as_nanos() as f64;
        }
        log.record(t0.elapsed().as_nanos() as f64);
        ledger.record(log, ns, 1);
        // The exploration's two layers, timed apart on one worker
        // (outside the ledger's op).
        let serial = Scheduler::new(std::num::NonZeroUsize::MIN);
        let t = Instant::now();
        let result = explore::grid()
            .and_then(|g| Ok(g.evaluate_on(&serial)?))
            .map_err(|e| e.to_string())?;
        core_ms.0.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        black_box(result.feasible_frontier().map_err(|e| e.to_string())?);
        core_ms.1.push(t.elapsed().as_secs_f64() * 1e3);
        Ok(())
    })?;

    let mut report = Report::new(&log);
    report.attempted = attempted;
    report.e2e.insert("setup_s", setup_s);
    report.raw.insert("setup_s", setup_raw);
    // One slice is one regeneration.
    for (adj, map) in [(true, &mut report.e2e), (false, &mut report.raw)] {
        let mut ops: Vec<f64> = log
            .untraced()
            .map(|(_, s)| s.mean_ns * if adj { s.factor() } else { 1.0 })
            .collect();
        let p50 = median(&mut ops);
        map.insert("ops_per_s", 1e9 / p50);
        map.insert("op_p50_us", p50 / 1e3);
        map.insert(
            "op_tail_us",
            percentile(&ops, tail_quantile(ops.len())) / 1e3,
        );
    }
    report.e2e.insert("on_time_pct", log.on_time_pct());
    if args.trace {
        let stages = ledger.per_op_us(&log);
        for (name, value) in &stages {
            let key = match *name {
                "fig5" => "experiments.fig5_ms",
                "fig6" => "experiments.fig6_ms",
                "fig7" => "experiments.fig7_ms",
                "fig10" => "experiments.fig10_ms",
                "fig11" => "experiments.fig11_ms",
                "fig12" => "experiments.fig12_ms",
                _ => "experiments.explore_ms",
            };
            report.layers.insert(key, value / 1e3);
        }
        ledger_note(
            &mut report,
            "design-space",
            &stages,
            pooled_mean_us(&log, false),
            pooled_mean_us(&log, true),
        );
        report
            .layers
            .insert("core.sweep_evaluate_ms", median(&mut core_ms.0));
        report
            .layers
            .insert("core.frontier_ms", median(&mut core_ms.1));
    }
    Ok(report)
}
