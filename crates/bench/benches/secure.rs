//! The secure link layer's cost: the authenticated ARQ link (seal, MAC
//! verify and replay window) against the plain one on an identical
//! clean 1024-channel stream, and the authenticated link under a
//! composite attack.
//!
//! The gate: the median per-pair ratio `auth ÷ plain` stays at or under
//! [`MAX_CLEAN_OVERHEAD`], the single-digit crypto budget that keeps
//! authentication affordable inside the implant's power envelope. The
//! attacked and clean links' ledgers (zero forged or replayed frames
//! accepted) are counts, not times: `crates/rf/tests/auth_properties.rs`
//! checks them. Set `MINDFUL_BENCH_QUICK=1` (as CI does) to shrink the
//! stream and the pair count.

use std::hint::black_box;

use mindful_bench::{compare, Report};
use mindful_rf::arq::{ArqConfig, ArqLink};
use mindful_rf::auth::{AuthConfig, AuthKey};
use mindful_rf::fault::{Adversary, AttackConfig, FaultConfig, FaultPlan, WireFaultInjector};
use mindful_rf::packet::packetize;

/// Channels per frame (one 32×32 electrode tile — the headline array).
const CHANNELS: usize = 1024;
/// ADC resolution of the packetized samples.
const SAMPLE_BITS: u8 = 10;
/// Reorder-buffer window (frames of playout delay).
const WINDOW: usize = 16;
/// Retransmission round-trip, in frames.
const RTT: u64 = 2;
/// Key seed / id for every authenticated link in this bench.
const KEY_SEED: u64 = 0x5EC0_BE0C;
const KEY_ID: u8 = 9;
/// Composite attack rate for the adversarial micro-gate.
const ATTACK_RATE: f64 = 0.25;
/// The crypto budget: authenticated ÷ plain on the clean link must
/// stay at or under this factor (single-digit percent overhead).
const MAX_CLEAN_OVERHEAD: f64 = 1.09;

fn quick() -> bool {
    mindful_core::env::bench_quick()
}

fn frames() -> usize {
    if quick() {
        96
    } else {
        384
    }
}

/// The transmitted wire images, packetized once up front so the bench
/// times the link path, not the packetizer.
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

fn auth_config() -> AuthConfig {
    AuthConfig::new(AuthKey::from_seed(KEY_SEED, KEY_ID))
}

fn plain_link() -> ArqLink {
    ArqLink::new(ArqConfig::selective_repeat(WINDOW), None, RTT).expect("link builds")
}

fn auth_link(injector: Option<WireFaultInjector>) -> ArqLink {
    ArqLink::with_auth(
        ArqConfig::selective_repeat(WINDOW),
        injector,
        RTT,
        &auth_config(),
    )
    .expect("authenticated link builds")
}

/// Drives one full stream through `link`, returning frames played out.
fn run(mut link: ArqLink, wires: &[Vec<u8>]) -> u64 {
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

/// The adversarial micro-run: clean channel, five-kind adversary.
fn run_attacked(wires: &[Vec<u8>]) -> u64 {
    let plan = FaultPlan::new(FaultConfig::none(), 1).expect("zero-rate plan");
    let adversary =
        Adversary::new(AttackConfig::composite(ATTACK_RATE), 0xA77AC4, KEY_ID).expect("adversary");
    run(
        auth_link(Some(WireFaultInjector::with_adversary(plan, adversary))),
        wires,
    )
}

fn main() {
    let pairs = if quick() { 15 } else { 41 };
    let wires = wires(frames());
    let mut report = Report::new("secure");

    // Identical stream, identical window: the only difference is seal
    // + MAC verify + replay window.
    let clean = compare(
        pairs,
        1,
        || {
            black_box(run(plain_link(), &wires));
        },
        Some(|| {
            black_box(run(auth_link(None), &wires));
        }),
    );
    report.push(
        clean
            .row("auth_vs_plain")
            .with("frames", wires.len() as f64),
    );
    report.time("attacked", pairs, 1, || run_attacked(&wires));
    report.write(env!("CARGO_TARGET_TMPDIR"));

    assert!(
        clean.ratio_p50 <= MAX_CLEAN_OVERHEAD,
        "clean-link crypto overhead {:.3}x (per-pair median) exceeds the \
         {MAX_CLEAN_OVERHEAD}x budget",
        clean.ratio_p50,
    );
}
