//! Benchmarks for the secure link layer: the authenticated
//! (seal + MAC-verify + replay-window) packet path against the plain
//! ARQ link on an identical clean 1024-channel stream, plus the
//! adversarial micro-gate.
//!
//! `report_secure_acceptance` is the acceptance gate of the secure-link
//! PR: the clean-link crypto overhead (authenticated vs plain, same
//! stream, same seeds) must stay in single digits — the budget that
//! keeps authentication affordable inside the implant's power
//! envelope — and a composite-attack run must accept zero forged or
//! replayed frames. Both land in `results/bench/BENCH_secure.json` so
//! a regression shows up as a number, not a feeling. Set
//! `MINDFUL_BENCH_QUICK=1` (as CI does) to shrink iteration counts.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};
use mindful_bench::{median_ns, paired_median_ns, write_artifact};
use mindful_rf::arq::{ArqConfig, ArqLink};
use mindful_rf::auth::{AuthConfig, AuthKey, AuthStats};
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
fn run(mut link: ArqLink, wires: &[Vec<u8>]) -> (u64, ArqLink) {
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
    (played, link)
}

/// The adversarial micro-run: clean channel, five-kind adversary.
fn run_attacked(wires: &[Vec<u8>]) -> (u64, AuthStats) {
    let plan = FaultPlan::new(FaultConfig::none(), 1).expect("zero-rate plan");
    let adversary =
        Adversary::new(AttackConfig::composite(ATTACK_RATE), 0xA77AC4, KEY_ID).expect("adversary");
    let injector = WireFaultInjector::with_adversary(plan, adversary);
    let (played, link) = run(auth_link(Some(injector)), wires);
    (played, link.auth_stats().expect("authenticated link"))
}

fn bench_secure(c: &mut Criterion) {
    let wires = wires(frames());
    let mut group = c.benchmark_group("secure");
    group.sample_size(10);
    group.bench_function("plain_link_1024ch", |b| {
        b.iter(|| black_box(run(plain_link(), &wires).0))
    });
    group.bench_function("auth_link_1024ch", |b| {
        b.iter(|| black_box(run(auth_link(None), &wires).0))
    });
    group.bench_function("auth_link_1024ch_attacked", |b| {
        b.iter(|| black_box(run_attacked(&wires).0))
    });
    group.finish();
}

/// One-shot acceptance measurement: zero forged/replayed acceptance
/// under composite attack, and the clean-link crypto overhead pinned
/// at single digits in `BENCH_secure.json`.
fn report_secure_acceptance(_c: &mut Criterion) {
    let iters = if quick() { 15 } else { 41 };
    let wires = wires(frames());
    let sent = wires.len() as u64;

    // Correctness gates (deterministic: seeded adversary).
    let (played, stats) = run_attacked(&wires);
    assert_eq!(played, sent, "every sequence plays out exactly once");
    assert_eq!(stats.sealed, sent);
    assert_eq!(
        stats.accepted, sent,
        "clean channel: every genuine frame accepted"
    );
    assert!(
        stats.rejected_auth() > 0,
        "the adversary fired and was rejected"
    );
    let (played, link) = run(auth_link(None), &wires);
    assert_eq!(played, sent);
    let clean_stats = link.auth_stats().expect("authenticated link");
    assert_eq!(clean_stats.accepted, sent, "clean link accepts everything");
    assert_eq!(clean_stats.rejected_total(), 0, "and rejects nothing");

    // The overhead measurement: identical stream, identical window,
    // the only difference is seal + MAC verify + replay window. The two
    // sides run in interleaved pairs so host drift hits both alike.
    let (plain_ns, auth_ns) = paired_median_ns(
        iters,
        || {
            black_box(run(plain_link(), &wires).0);
        },
        || {
            black_box(run(auth_link(None), &wires).0);
        },
    );
    let attacked_ns = median_ns(iters, || {
        black_box(run_attacked(&wires).0);
    });
    let overhead = auth_ns / plain_ns;
    println!(
        "secure/clean-link crypto overhead: {overhead:.3}x \
         ({:.2} us auth vs {:.2} us plain per {sent}-frame stream)",
        auth_ns / 1e3,
        plain_ns / 1e3,
    );
    println!(
        "secure/attacked link: {:.2} us per stream at {ATTACK_RATE} composite attacks",
        attacked_ns / 1e3,
    );
    assert!(
        overhead <= MAX_CLEAN_OVERHEAD,
        "clean-link crypto overhead {overhead:.3}x exceeds the \
         {MAX_CLEAN_OVERHEAD}x budget"
    );

    let json = format!(
        "{{\n  \"bench\": \"secure\",\n  \"quick\": {},\n  \
         \"channels\": {CHANNELS},\n  \"frames\": {sent},\n  \
         \"window\": {WINDOW},\n  \"rtt\": {RTT},\n  \
         \"plain_ns_per_run\": {plain_ns:.0},\n  \
         \"auth_ns_per_run\": {auth_ns:.0},\n  \
         \"attacked_ns_per_run\": {attacked_ns:.0},\n  \
         \"clean_crypto_overhead\": {overhead:.3},\n  \
         \"attack_rate\": {ATTACK_RATE},\n  \
         \"forged_accepted\": 0,\n  \"replayed_accepted\": 0\n}}\n",
        quick(),
    );
    write_artifact("secure", &json);
}

criterion_group!(benches, bench_secure, report_secure_acceptance);
criterion_main!(benches);
