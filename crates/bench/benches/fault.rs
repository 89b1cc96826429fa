//! Benchmarks for the PR 4 fault layer: the selective-repeat `ArqLink`
//! driven over a packetized 256-channel stream at increasing composite
//! wire-fault rates, against the bare `depacketize` path as the
//! no-resilience baseline.
//!
//! `report_fault_acceptance` is the acceptance gate: at the soak
//! test's 2% composite rate the link must still play out every frame
//! (delivered + lost == sent) with at least 99% of detected gaps
//! recovered, and the clean-channel link overhead is recorded in
//! `results/bench/BENCH_fault.json` so regressions in the reorder
//! buffer show up as a number, not a feeling. Set
//! `MINDFUL_BENCH_QUICK=1` (as CI does) to shrink iteration counts.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};
use mindful_bench::{median_ns, write_artifact};
use mindful_rf::arq::{ArqConfig, ArqLink, ArqStats};
use mindful_rf::fault::{FaultConfig, FaultPlan, WireFaultInjector};
use mindful_rf::packet::{depacketize_into, packetize};

/// Channels per frame (one 16×16 electrode tile).
const CHANNELS: usize = 256;
/// ADC resolution of the packetized samples.
const SAMPLE_BITS: u8 = 10;
/// Reorder-buffer window (frames of playout delay).
const WINDOW: usize = 16;
/// Retransmission round-trip, in frames.
const RTT: u64 = 2;
/// Composite wire-fault rates swept by the bench.
const RATES: [f64; 3] = [0.0, 0.02, 0.10];
/// Seed for every fault plan — the same faults hit every iteration.
const SEED: u64 = 0xFA_17;

fn quick() -> bool {
    mindful_core::env::bench_quick()
}

fn frames() -> usize {
    if quick() {
        128
    } else {
        512
    }
}

/// The transmitted wire images, packetized once up front so the bench
/// times the link, not the packetizer.
fn wires(count: usize) -> Vec<Vec<u8>> {
    (0..count)
        .map(|i| {
            let seq = i as u16;
            let samples: Vec<u16> = (0..CHANNELS as u16)
                .map(|c| c.wrapping_mul(31).wrapping_add(seq) % 1024)
                .collect();
            packetize(seq, &samples, SAMPLE_BITS).expect("packetize succeeds")
        })
        .collect()
}

fn link(rate: f64) -> ArqLink {
    let injector = if rate > 0.0 {
        let plan = FaultPlan::new(FaultConfig::wire_composite(rate), SEED)
            .expect("composite rate is valid");
        Some(WireFaultInjector::new(plan))
    } else {
        None
    };
    ArqLink::new(ArqConfig::selective_repeat(WINDOW), injector, RTT).expect("link builds")
}

/// Drives one full stream through a fresh link and returns the number
/// of frames played out plus the final stats ledger.
fn run_link(rate: f64, wires: &[Vec<u8>]) -> (u64, ArqStats) {
    let mut link = link(rate);
    let mut samples = Vec::with_capacity(CHANNELS);
    let mut played = 0_u64;
    for wire in wires {
        if let Some(p) = link.step_into(wire, &mut samples).expect("step succeeds") {
            black_box(p.delivered);
            played += 1;
        }
    }
    while let Some(p) = link.finish_into(&mut samples) {
        black_box(p.delivered);
        played += 1;
    }
    (played, link.stats())
}

/// The no-resilience baseline: straight `depacketize` of every wire
/// image (what the pre-PR stack did).
fn run_bare(wires: &[Vec<u8>]) -> u64 {
    let mut samples = Vec::with_capacity(CHANNELS);
    let mut decoded = 0_u64;
    for wire in wires {
        if depacketize_into(wire, &mut samples).is_ok() {
            black_box(samples.len());
            decoded += 1;
        }
    }
    decoded
}

fn bench_fault(c: &mut Criterion) {
    let wires = wires(frames());
    let mut group = c.benchmark_group("fault");
    group.sample_size(10);
    group.bench_function("depacketize_256ch", |b| {
        b.iter(|| black_box(run_bare(&wires)))
    });
    for rate in RATES {
        let name = format!("arq_link_256ch_r{:02}", (rate * 100.0) as u32);
        group.bench_function(&name, |b| b.iter(|| black_box(run_link(rate, &wires))));
    }
    group.finish();
}

/// One-shot acceptance measurement: the 2% composite soak rate must
/// still deliver-or-account-for every frame with ≥99% gap recovery,
/// and the per-rate link costs land in `BENCH_fault.json`.
fn report_fault_acceptance(_c: &mut Criterion) {
    let iters = if quick() { 15 } else { 41 };
    let wires = wires(frames());
    let sent = wires.len() as u64;

    // Correctness gate at the soak rate (deterministic: seeded plan).
    let (played, stats) = run_link(0.02, &wires);
    assert_eq!(played, sent, "every sequence plays out exactly once");
    assert_eq!(stats.delivered + stats.lost, sent, "ledger balances");
    assert_eq!(
        stats.recovered + stats.lost,
        stats.gaps_detected,
        "every gap resolves to recovered or lost"
    );
    assert!(
        stats.gaps_detected == 0 || stats.recovered * 100 >= stats.gaps_detected * 99,
        "≥99% of gaps recovered at 2%: {} of {}",
        stats.recovered,
        stats.gaps_detected,
    );

    let bare_ns = median_ns(iters, || {
        black_box(run_bare(&wires));
    });
    let mut rate_lines = Vec::new();
    let mut clean_ns = f64::NAN;
    for rate in RATES {
        let ns = median_ns(iters, || {
            black_box(run_link(rate, &wires));
        });
        if rate == 0.0 {
            clean_ns = ns;
        }
        let per_frame = ns / sent as f64;
        println!(
            "fault/arq_link_256ch r={rate:.2}: {:.2} us/stream ({per_frame:.0} ns/frame)",
            ns / 1e3,
        );
        rate_lines.push(format!(
            "    {{ \"rate\": {rate:.2}, \"ns_per_run\": {ns:.0} }}"
        ));
    }
    let overhead = clean_ns / bare_ns;
    println!(
        "fault/clean-link overhead vs bare depacketize: {overhead:.2}x \
         ({:.2} us vs {:.2} us per {sent}-frame stream)",
        clean_ns / 1e3,
        bare_ns / 1e3,
    );

    let json = format!(
        "{{\n  \"bench\": \"fault\",\n  \"quick\": {},\n  \
         \"channels\": {CHANNELS},\n  \"frames\": {sent},\n  \
         \"window\": {WINDOW},\n  \"rtt\": {RTT},\n  \
         \"bare_ns_per_run\": {bare_ns:.0},\n  \
         \"clean_link_overhead\": {overhead:.3},\n  \"rates\": [\n{}\n  ]\n}}\n",
        quick(),
        rate_lines.join(",\n"),
    );
    write_artifact("fault", &json);
}

criterion_group!(benches, bench_fault, report_fault_acceptance);
criterion_main!(benches);
