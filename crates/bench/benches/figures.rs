//! One benchmark per table/figure of the paper: times the pure
//! `generate()` computation behind each experiment (rendering and file
//! IO excluded). Set `MINDFUL_BENCH_QUICK=1` to shrink the sample count.

use mindful_bench::Report;
use mindful_experiments::{
    fig10, fig11, fig12, fig4, fig5, fig6, fig7, fig9, realtime, table1, wpt_study,
};

fn main() {
    let samples = if mindful_core::env::bench_quick() {
        5
    } else {
        21
    };
    let mut report = Report::new("figures");
    report.time("table1_generate", samples, 100, table1::generate);
    report.time("fig4_scale_to_1024", samples, 100, fig4::generate);
    report.time("fig5_regime_projections", samples, 10, || {
        fig5::generate().unwrap()
    });
    report.time("fig6_sensing_fractions", samples, 10, || {
        fig6::generate().unwrap()
    });
    report.time("fig7_qam_efficiency_sweep", samples, 1, || {
        fig7::generate().unwrap()
    });
    report.time("fig9_accelerator_designs", samples, 1000, fig9::generate);
    report.time("fig10_dnn_integration_sweep", samples, 1, || {
        fig10::generate().unwrap()
    });
    report.time("fig11_partitioning_gains", samples, 10, || {
        fig11::generate().unwrap()
    });
    report.time("fig12_optimization_stack", samples, 1, || {
        fig12::generate().unwrap()
    });
    report.time("ext_realtime", samples, 1, || realtime::generate().unwrap());
    report.time("ext_wpt", samples, 100, || wpt_study::generate().unwrap());
    report.write(env!("CARGO_TARGET_TMPDIR"));
}
