//! The fault layer's cost: the selective-repeat `ArqLink` driven over a
//! packetized 256-channel stream at increasing composite wire-fault
//! rates, each paired against the bare `depacketize` path as the
//! no-resilience baseline, so a regression in the reorder buffer shows
//! up as a number. The link's ledger at the soak rate (every frame
//! played, ≥ 99% of gaps recovered) is a count, not a time:
//! `crates/rf/tests/arq_properties.rs` checks it. Set
//! `MINDFUL_BENCH_QUICK=1` (as CI does) to shrink the stream and the
//! pair count.

use std::hint::black_box;

use mindful_bench::{compare, Report};
use mindful_rf::arq::{ArqConfig, ArqLink};
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
/// of frames played out.
fn run_link(rate: f64, wires: &[Vec<u8>]) -> u64 {
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
    played
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

fn main() {
    let pairs = if quick() { 15 } else { 41 };
    let wires = wires(frames());
    let mut report = Report::new("fault");
    for rate in RATES {
        let t = compare(
            pairs,
            1,
            || {
                black_box(run_bare(&wires));
            },
            Some(|| {
                black_box(run_link(rate, &wires));
            }),
        );
        let name = format!("link_r{:02}_vs_bare", (rate * 100.0) as u32);
        report.push(t.row(name).with("frames", wires.len() as f64));
    }
    report.write(env!("CARGO_TARGET_TMPDIR"));
}
