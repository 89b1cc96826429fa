//! The metric tables and the result a run prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::host::{peak_rss_mb, slow_share_pct, PROBE_NOMINAL_US};
use crate::stats::SliceLog;
use crate::Args;

/// End-to-end metrics, printed by every `--trace 0` run. Each workload
/// maps its own notion of an op onto them (see `perfbench/METRICS.md`).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_tail_us", "us"),
    ("on_time_pct", "%"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every `--trace 1` run. A layer the
/// workload does not run reads 0.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("host.probe_us", "us"),
    ("host.slow_share", "%"),
    ("trace.overhead_us", "us"),
    ("ledger.stage_sum_us", "us"),
    ("ledger.untraced_us", "us"),
    ("ledger.residual_pct", "%"),
    ("decode.spike_us", "us"),
    ("decode.bin_us", "us"),
    ("decode.kalman_us", "us"),
    ("rf.packetize_us", "us"),
    ("rf.link_us", "us"),
    ("rf.retransmits", "1/kframe"),
    ("rf.auth_rejected", "1/kframe"),
    ("rf.gaps", "1/kframe"),
    ("rf.wire_bytes_per_frame", "B"),
    ("pipeline.firewall_us", "us"),
    ("pipeline.conceal_us", "us"),
    ("pipeline.cascade_us", "us"),
    ("dnn.f32_step_us", "us"),
    ("dnn.int8_step_us", "us"),
    ("dnn.f32_layer_us.0", "us"),
    ("dnn.f32_layer_us.1", "us"),
    ("dnn.f32_layer_us.2", "us"),
    ("dnn.f32_layer_us.3", "us"),
    ("dnn.f32_layer_us.4", "us"),
    ("dnn.f32_layer_us.5", "us"),
    ("dnn.f32_layer_us.6", "us"),
    ("dnn.int8_layer_us.0", "us"),
    ("dnn.int8_layer_us.1", "us"),
    ("dnn.int8_layer_us.2", "us"),
    ("dnn.int8_layer_us.3", "us"),
    ("dnn.int8_layer_us.4", "us"),
    ("dnn.int8_layer_us.5", "us"),
    ("dnn.int8_layer_us.6", "us"),
    ("serve.epoch_us", "us"),
    ("serve.overhead_us", "us"),
    ("serve.steps_per_epoch", "count"),
    ("serve.shed", "1/kframe"),
    ("serve.rejected", "1/kframe"),
    ("experiments.fig5_ms", "ms"),
    ("experiments.fig6_ms", "ms"),
    ("experiments.fig7_ms", "ms"),
    ("experiments.fig10_ms", "ms"),
    ("experiments.fig11_ms", "ms"),
    ("experiments.fig12_ms", "ms"),
    ("experiments.explore_ms", "ms"),
    ("core.sweep_evaluate_ms", "ms"),
    ("core.frontier_ms", "ms"),
];

/// What one workload run produced.
#[derive(Default)]
pub struct Report {
    /// Ops offered to the program.
    pub attempted: u64,
    /// Ops that returned an error.
    pub failed: u64,
    /// End-to-end metric values by name (trace 0).
    pub e2e: BTreeMap<&'static str, f64>,
    /// Raw (not host-adjusted) twins of the timed end-to-end metrics.
    pub raw: BTreeMap<&'static str, f64>,
    /// Per-layer metric values by name (trace 1).
    pub layers: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed ahead of the result (the ledger).
    pub notes: Vec<String>,
    /// Median probe reading of the run, for the host stamp.
    pub probe_median_us: f64,
    /// Share of the run's probe readings in the contended regime.
    pub slow_share_pct: f64,
}

impl Report {
    /// A report stamped with the run's probe history.
    pub fn new(log: &SliceLog) -> Self {
        Self {
            probe_median_us: log.probe_median(),
            slow_share_pct: slow_share_pct(&log.probes),
            ..Self::default()
        }
    }

    /// Records the host facts every traced run reports, plus peak RSS.
    fn finish(&mut self) {
        let probe = self.probe_median_us;
        let slow = self.slow_share_pct;
        self.layers.insert("host.probe_us", probe);
        self.layers.insert("host.slow_share", slow);
        if let Some(rss) = peak_rss_mb() {
            self.e2e.insert("peak_rss_mb", rss);
        }
    }

    /// Prints the host stamp, the notes, and the final JSON line.
    pub fn print(mut self, args: &Args) -> Result<(), String> {
        self.finish();
        let simd = format!("{:?}", mindful_dnn::simd::level());
        let cores = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
        println!(
            "{{\"host\": {{\"cores\": {cores}, \"simd\": \"{simd}\", \"workers\": 1, \
             \"probe_nominal_us\": {PROBE_NOMINAL_US}, \"probe_median_us\": {}, \
             \"slow_share_pct\": {}, \"workload\": \"{}\", \"seed\": {}, \"trace\": {}}}}}",
            self.probe_median_us, self.slow_share_pct, args.workload, args.seed, args.trace as u8
        );
        for note in &self.notes {
            println!("{note}");
        }
        let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
        let values = if args.trace { &self.layers } else { &self.e2e };
        for name in values.keys() {
            if !table.iter().any(|(n, _)| n == name) {
                return Err(format!("internal: metric {name} is not in the table"));
            }
        }
        if !args.trace {
            let mut detail = String::new();
            for (name, value) in &self.raw {
                let _ = write!(
                    detail,
                    "{}\"{name}\": {value}",
                    if detail.is_empty() { "" } else { ", " }
                );
            }
            println!("{{\"raw\": {{{detail}}}}}");
        }
        let mut metrics = String::new();
        for (name, unit) in table {
            let value = match values.get(name) {
                Some(&v) => v,
                None if args.trace => 0.0,
                None => return Err(format!("internal: end-to-end metric {name} missing")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            if !metrics.is_empty() {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        if self.attempted == 0 {
            return Err("no op was attempted".into());
        }
        println!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted, self.failed
        );
        Ok(())
    }
}
