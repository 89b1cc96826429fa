//! Property-based tests for the ARQ receiver and the faulted link.
//!
//! The invariants a safety-critical receiver must hold under *any*
//! channel behaviour, not just the scripted fault patterns of the unit
//! tests:
//!
//! * no panic, whatever bytes arrive;
//! * playout sequences are strictly in-order (`+1` with `u16` wrap),
//!   each transmitted sequence played exactly once — never duplicated,
//!   never reordered;
//! * a frame marked `delivered` carries exactly the payload that was
//!   transmitted under that sequence number;
//! * the stats ledger balances: `delivered + lost == frames transmitted`
//!   and `recovered + lost == gaps_detected` after the drain.

use mindful_rf::arq::{ArqConfig, ArqLink, ArqReceiver};
use mindful_rf::fault::{FaultConfig, FaultPlan, WireFaultInjector};
use mindful_rf::packet::packetize;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic per-sequence payload so a delivered frame can be
/// checked against what was transmitted without keeping a log.
fn payload(seq: u16, channels: usize) -> Vec<u16> {
    (0..channels as u16)
        .map(|c| c.wrapping_mul(31).wrapping_add(seq) % 1024)
        .collect()
}

fn wire(seq: u16, channels: usize) -> Vec<u8> {
    packetize(seq, &payload(seq, channels), 10).unwrap()
}

/// Drives a bare receiver (no retransmission path) over a mangled
/// packet stream and checks the ordering/integrity invariants.
fn check_receiver(
    start: u16,
    window: usize,
    channels: usize,
    actions: &[u8],
    seed: u64,
    arq_on: bool,
) -> Result<(), TestCaseError> {
    let config = if arq_on {
        ArqConfig::selective_repeat(window)
    } else {
        ArqConfig::degraded(window)
    };
    let mut rx = ArqReceiver::new(config).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut samples = Vec::new();
    let mut naks = Vec::new();
    let mut played: Vec<(u16, bool)> = Vec::new();
    let sent = actions.len();

    rx.prime(start);
    for (i, &action) in actions.iter().enumerate() {
        let seq = start.wrapping_add(i as u16);
        let clean = wire(seq, channels);
        match action {
            // Dropped on the wire: the receiver sees nothing.
            0 => {}
            // Bit flip anywhere in the packet.
            1 => {
                let mut bad = clean.clone();
                let bit = rng.random::<u64>() as usize % (bad.len() * 8);
                bad[bit / 8] ^= 1 << (bit % 8);
                rx.push_wire(&bad);
            }
            // Truncation (possibly to nothing).
            2 => {
                let keep = rng.random::<u64>() as usize % clean.len();
                rx.push_wire(&clean[..keep]);
            }
            // Duplicate delivery.
            3 => {
                rx.push_wire(&clean);
                rx.push_wire(&clean);
            }
            // Clean delivery.
            _ => rx.push_wire(&clean),
        }
        rx.poll_naks(&mut naks);
        if let Some(p) = rx.poll_into(&mut samples) {
            if p.delivered {
                prop_assert_eq!(&samples, &payload(p.sequence, channels));
            }
            played.push((p.sequence, p.delivered));
        }
    }
    // Drain: every transmitted sequence must come out exactly once.
    rx.close(start.wrapping_add((sent - 1) as u16));
    let mut stalls = 0;
    while rx.buffered() > 0 && stalls < 4 * (window + sent) {
        if let Some(p) = rx.poll_into(&mut samples) {
            if p.delivered {
                prop_assert_eq!(&samples, &payload(p.sequence, channels));
            }
            played.push((p.sequence, p.delivered));
            stalls = 0;
        } else {
            stalls += 1;
        }
    }
    prop_assert_eq!(played.len(), sent, "each sequence played exactly once");
    for (i, &(seq, _)) in played.iter().enumerate() {
        prop_assert_eq!(
            seq,
            start.wrapping_add(i as u16),
            "strictly in-order playout"
        );
    }
    let stats = rx.stats();
    prop_assert_eq!(stats.delivered + stats.lost, sent as u64);
    prop_assert_eq!(stats.recovered + stats.lost, stats.gaps_detected);
    // A frame the wire carried intact (action 3 or 4) is never lost by
    // the receiver itself, so losses are bounded by mangled sends.
    let mangled = actions.iter().filter(|&&a| a < 3).count() as u64;
    prop_assert!(
        stats.lost <= mangled,
        "lost {} > mangled {}",
        stats.lost,
        mangled
    );
    Ok(())
}

proptest! {
    #[test]
    fn receiver_orders_and_accounts_under_arbitrary_mangling(
        start in 0_u16..=u16::MAX,
        window in 1_usize..24,
        channels in 1_usize..24,
        seed in 0_u64..u64::MAX,
        arq_on in prop::sample::select(vec![true, false]),
        actions in prop::collection::vec(0_u8..8, 2..120),
    ) {
        check_receiver(start, window, channels, &actions, seed, arq_on)?;
    }

    #[test]
    fn receiver_never_panics_on_raw_garbage(
        garbage in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 0..40),
        window in 1_usize..16,
    ) {
        let mut rx = ArqReceiver::new(ArqConfig::selective_repeat(window)).unwrap();
        rx.prime(0);
        let mut samples = Vec::new();
        let mut naks = Vec::new();
        for blob in &garbage {
            rx.push_wire(blob);
            rx.poll_naks(&mut naks);
            rx.poll_into(&mut samples);
        }
        // Garbage never produces a *delivered* frame with a bogus
        // payload: anything delivered must have passed the CRC, and no
        // valid packet other than sequence 0's neighbourhood exists.
        prop_assert!(rx.stats().delivered <= garbage.len() as u64);
    }

    #[test]
    fn faulted_link_plays_out_in_order_with_exact_payloads(
        seed in 0_u64..u64::MAX,
        start in 0_u16..=u16::MAX,
        window in 2_usize..24,
        rate in 0.0_f64..0.25,
        frames in 50_usize..200,
    ) {
        let channels = 8;
        let plan = FaultPlan::new(FaultConfig::wire_composite(rate), seed).unwrap();
        let mut link = ArqLink::new(
            ArqConfig::selective_repeat(window),
            Some(WireFaultInjector::new(plan)),
            2,
        )
        .unwrap();
        let mut samples = Vec::new();
        let mut played = Vec::new();
        for i in 0..frames {
            let seq = start.wrapping_add(i as u16);
            if let Some(p) = link.step_into(&wire(seq, channels), &mut samples).unwrap() {
                if p.delivered {
                    prop_assert_eq!(&samples, &payload(p.sequence, channels));
                }
                played.push(p.sequence);
            }
        }
        while let Some(p) = link.finish_into(&mut samples) {
            if p.delivered {
                prop_assert_eq!(&samples, &payload(p.sequence, channels));
            }
            played.push(p.sequence);
        }
        prop_assert_eq!(played.len(), frames);
        for (i, &seq) in played.iter().enumerate() {
            prop_assert_eq!(seq, start.wrapping_add(i as u16));
        }
        let stats = link.stats();
        prop_assert_eq!(stats.delivered + stats.lost, frames as u64);
        prop_assert_eq!(stats.recovered + stats.lost, stats.gaps_detected);
    }
}

/// The fault bench's ledger, as a count: a 256-channel stream of 512
/// frames over a selective-repeat link (window 16, RTT 2) at the
/// soak's 2% composite wire-fault rate plays out every frame, and the
/// link recovers at least 99% of the gaps it detects.
#[test]
fn soak_rate_link_plays_out_every_frame_and_recovers_its_gaps() {
    let channels = 256;
    let sent = 512_u64;
    let plan = FaultPlan::new(FaultConfig::wire_composite(0.02), 0xFA_17).unwrap();
    let mut link = ArqLink::new(
        ArqConfig::selective_repeat(16),
        Some(WireFaultInjector::new(plan)),
        2,
    )
    .unwrap();
    let mut samples = Vec::new();
    let mut played = 0_u64;
    for seq in 0..sent as u16 {
        if link
            .step_into(&wire(seq, channels), &mut samples)
            .unwrap()
            .is_some()
        {
            played += 1;
        }
    }
    while link.finish_into(&mut samples).is_some() {
        played += 1;
    }
    let stats = link.stats();
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
}
