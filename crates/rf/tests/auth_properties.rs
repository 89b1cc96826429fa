//! Adversarial property tests for the authenticated link layer.
//!
//! The contract under test is absolute: for *any* byte mangling of a
//! sealed frame — arbitrary flips, MAC bit-flips, truncation,
//! extension, raw garbage — the receiver either rejects the frame
//! (with its ledger advancing by exactly one rejection) or the frame
//! round-trips byte-identical to what the sender sealed. Never both
//! silently, never a third outcome: a frame that "mostly" decodes is a
//! forgery that got through.
//!
//! Nonce handling gets its own properties: sealing two different
//! payloads under the same sequence number is nonce reuse, and the
//! receiver must accept at most one of them; the replay window must
//! classify every duplicate exactly, including across the `u16`
//! sequence wrap (the fixtures reuse the ARQ property suite's
//! deterministic per-sequence payloads).

use mindful_rf::arq::{ArqConfig, ArqLink};
use mindful_rf::auth::{
    AuthConfig, AuthKey, AuthReceiver, AuthSender, ReplayVerdict, ReplayWindow, AUTH_OVERHEAD_BYTES,
};
use mindful_rf::fault::{Adversary, AttackConfig, FaultConfig, FaultPlan, WireFaultInjector};
use mindful_rf::packet::packetize;
use proptest::prelude::*;

/// Deterministic per-sequence payload (same fixture as
/// `arq_properties.rs`).
fn payload(seq: u16, channels: usize) -> Vec<u16> {
    (0..channels as u16)
        .map(|c| c.wrapping_mul(31).wrapping_add(seq) % 1024)
        .collect()
}

fn inner_wire(seq: u16, channels: usize) -> Vec<u8> {
    packetize(seq, &payload(seq, channels), 10).unwrap()
}

fn link(seed: u64) -> (AuthSender, AuthReceiver) {
    let config = AuthConfig::new(AuthKey::from_seed(seed, (seed % 251) as u8));
    (
        AuthSender::new(&config),
        AuthReceiver::new(&config).unwrap(),
    )
}

proptest! {
    /// Any mangled sealed frame either rejects (ledger +1) or is the
    /// pristine frame and round-trips byte-identical — never both,
    /// never neither.
    #[test]
    fn mangling_rejects_or_round_trips_byte_identical(
        key_seed in 0_u64..u64::MAX,
        seq in 0_u16..=u16::MAX,
        channels in 1_usize..64,
        flips in prop::collection::vec((0_usize..4096, 0_u8..8), 0..6),
    ) {
        let (mut tx, mut rx) = link(key_seed);
        let inner = inner_wire(seq, channels);
        let mut sealed = Vec::new();
        tx.seal_into(&inner, &mut sealed).unwrap();
        let mut mangled = sealed.clone();
        for &(byte, bit) in &flips {
            mangled[byte % sealed.len()] ^= 1 << bit;
        }
        let before = rx.stats();
        match rx.open(&mangled) {
            Ok(opened) => {
                // Accepted ⇒ the mangling cancelled out exactly.
                prop_assert_eq!(&mangled, &sealed, "accepted a non-pristine frame");
                prop_assert_eq!(opened, inner.as_slice());
                prop_assert_eq!(rx.stats().accepted, before.accepted + 1);
            }
            Err(_) => {
                prop_assert!(mangled != sealed, "rejected the pristine frame");
                prop_assert_eq!(rx.stats().accepted, before.accepted);
                prop_assert_eq!(rx.stats().rejected_total(), before.rejected_total() + 1);
            }
        }
    }

    /// Every single-bit flip over the MAC trailer is rejected — the
    /// tag comparison has no blind bits.
    #[test]
    fn every_mac_bit_flip_is_rejected(
        key_seed in 0_u64..u64::MAX,
        seq in 0_u16..=u16::MAX,
        channels in 1_usize..32,
    ) {
        let (mut tx, mut rx) = link(key_seed);
        let mut sealed = Vec::new();
        tx.seal_into(&inner_wire(seq, channels), &mut sealed).unwrap();
        let tag_start = sealed.len() - 8;
        for bit in 0..64 {
            let mut bad = sealed.clone();
            bad[tag_start + bit / 8] ^= 1 << (bit % 8);
            prop_assert!(rx.open(&bad).is_err(), "tag bit {} blind", bit);
        }
        prop_assert_eq!(rx.stats().rejected_mac, 64);
        // The pristine frame still opens: the 64 rejections had no
        // side effect on the replay window.
        prop_assert!(rx.open(&sealed).is_ok());
    }

    /// Truncating or extending a sealed frame by any amount rejects,
    /// and the depacketizing path writes nothing to the output buffer.
    #[test]
    fn resized_frames_reject_without_touching_the_output(
        key_seed in 0_u64..u64::MAX,
        seq in 0_u16..=u16::MAX,
        channels in 1_usize..32,
        cut in 0_usize..4096,
        pad in prop::collection::vec(any::<u8>(), 1..32),
    ) {
        let (mut tx, mut rx) = link(key_seed);
        let mut sealed = Vec::new();
        tx.seal_into(&inner_wire(seq, channels), &mut sealed).unwrap();
        let sentinel = vec![0x7777_u16; 3];
        // Truncation at every possible length (cut modulo len).
        let keep = cut % sealed.len();
        let mut out = sentinel.clone();
        prop_assert!(rx.open_packet_into(&sealed[..keep], &mut out).is_err());
        prop_assert_eq!(&out, &sentinel, "truncation wrote into the buffer");
        // Extension by arbitrary garbage.
        let mut extended = sealed.clone();
        extended.extend_from_slice(&pad);
        let mut out = sentinel.clone();
        prop_assert!(rx.open_packet_into(&extended, &mut out).is_err());
        prop_assert_eq!(&out, &sentinel, "extension wrote into the buffer");
        // The pristine frame still round-trips afterwards.
        let mut out = Vec::new();
        let header = rx.open_packet_into(&sealed, &mut out).unwrap();
        prop_assert_eq!(header.sequence, seq);
        prop_assert_eq!(&out, &payload(seq, channels));
    }

    /// Raw garbage never opens and never panics.
    #[test]
    fn garbage_never_opens(
        key_seed in 0_u64..u64::MAX,
        blobs in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..96), 0..32),
    ) {
        let (_, mut rx) = link(key_seed);
        for blob in &blobs {
            prop_assert!(rx.open(blob).is_err());
        }
        prop_assert_eq!(rx.stats().accepted, 0);
        prop_assert_eq!(rx.stats().rejected_total(), blobs.len() as u64);
    }

    /// Nonce reuse: sealing different payloads under one sequence
    /// number yields frames of which the receiver accepts at most one,
    /// in any delivery order.
    #[test]
    fn nonce_reuse_admits_at_most_one_frame(
        key_seed in 0_u64..u64::MAX,
        seq in 0_u16..=u16::MAX,
        first in 0_usize..2,
    ) {
        let (mut tx, mut rx) = link(key_seed);
        let mut a = Vec::new();
        let mut b = Vec::new();
        tx.seal_into(&inner_wire(seq, 16), &mut a).unwrap();
        tx.seal_into(&packetize(seq, &[7, 7, 7], 10).unwrap(), &mut b).unwrap();
        let order = if first == 0 { [&a, &b] } else { [&b, &a] };
        prop_assert!(rx.open(order[0]).is_ok());
        prop_assert!(rx.open(order[1]).is_err());
        prop_assert_eq!(rx.stats().accepted, 1);
        prop_assert_eq!(rx.stats().replayed, 1);
    }

    /// A shuffled (but duplicate-free) delivery of a sealed burst is
    /// fully accepted as long as it stays inside the replay window —
    /// the window never falsely rejects mere reordering.
    #[test]
    fn reordering_within_the_window_never_rejects(
        key_seed in 0_u64..u64::MAX,
        start in 0_u16..=u16::MAX,
        count in 2_usize..24,
        swaps in prop::collection::vec((0_usize..24, 0_usize..24), 0..24),
    ) {
        let (mut tx, mut rx) = link(key_seed);
        let mut frames = Vec::new();
        let mut sealed = Vec::new();
        for i in 0..count {
            let seq = start.wrapping_add(i as u16);
            tx.seal_into(&inner_wire(seq, 8), &mut sealed).unwrap();
            frames.push(sealed.clone());
        }
        for &(i, j) in &swaps {
            frames.swap(i % count, j % count);
        }
        for frame in &frames {
            prop_assert!(rx.open(frame).is_ok());
        }
        prop_assert_eq!(rx.stats().accepted, count as u64);
        prop_assert_eq!(rx.stats().rejected_total(), 0);
    }

    /// The replay window classifies every probe exactly: fresh once,
    /// replayed on any repeat, stale once out of range — across the
    /// u16 wrap and at every offset.
    #[test]
    fn replay_window_classification_is_exact(
        span_pow in 1_u32..10,
        base in 0_u64..u64::MAX / 2,
        probes in prop::collection::vec(0_u64..4096, 1..128),
    ) {
        let span = 1_usize << span_pow;
        let mut w = ReplayWindow::new(span);
        let mut accepted = std::collections::HashSet::new();
        for &off in &probes {
            let ext = base + off;
            let verdict = w.try_accept(ext);
            let highest = w.highest();
            match verdict {
                ReplayVerdict::Fresh => {
                    prop_assert!(accepted.insert(ext), "double-accepted {}", ext);
                }
                ReplayVerdict::Replayed => {
                    prop_assert!(accepted.contains(&ext), "phantom replay of {}", ext);
                }
                ReplayVerdict::Stale => {
                    prop_assert!(
                        highest - ext >= span as u64,
                        "in-window {} called stale (highest {})", ext, highest
                    );
                }
            }
        }
    }

    /// Sealing is length-transparent: overhead is exactly
    /// `AUTH_OVERHEAD_BYTES` for every channel count and the inner
    /// packet is recovered verbatim.
    #[test]
    fn overhead_is_constant_and_contents_verbatim(
        key_seed in 0_u64..u64::MAX,
        seq in 0_u16..=u16::MAX,
        channels in 1_usize..512,
    ) {
        let (mut tx, mut rx) = link(key_seed);
        let inner = inner_wire(seq, channels);
        let mut sealed = Vec::new();
        tx.seal_into(&inner, &mut sealed).unwrap();
        prop_assert_eq!(sealed.len(), inner.len() + AUTH_OVERHEAD_BYTES);
        prop_assert_eq!(rx.open(&sealed).unwrap(), inner.as_slice());
    }
}

/// Drives `frames` 1024-channel frames through a selective-repeat
/// authenticated link (window 16, RTT 2, the secure bench's key) and
/// returns the frames played out and the link.
fn run_secure_link(injector: Option<WireFaultInjector>, frames: u16) -> (u64, ArqLink) {
    let config = AuthConfig::new(AuthKey::from_seed(0x5EC0_BE0C, 9));
    let mut link =
        ArqLink::with_auth(ArqConfig::selective_repeat(16), injector, 2, &config).unwrap();
    let mut samples = Vec::new();
    let mut played = 0_u64;
    for seq in 0..frames {
        if link
            .step_into(&inner_wire(seq, 1024), &mut samples)
            .unwrap()
            .is_some()
        {
            played += 1;
        }
    }
    while link.finish_into(&mut samples).is_some() {
        played += 1;
    }
    (played, link)
}

/// The secure bench's ledgers, as counts: over a clean channel a 25%
/// composite adversary gets no forged or replayed frame accepted on a
/// 384-frame stream, and the same link without it accepts everything
/// and rejects nothing.
#[test]
fn attacked_and_clean_links_keep_exact_auth_ledgers() {
    let sent = 384_u64;
    let plan = FaultPlan::new(FaultConfig::none(), 1).unwrap();
    let adversary = Adversary::new(AttackConfig::composite(0.25), 0xA77AC4, 9).unwrap();
    let injector = WireFaultInjector::with_adversary(plan, adversary);
    let (played, link) = run_secure_link(Some(injector), sent as u16);
    let stats = link.auth_stats().expect("authenticated link");
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

    let (played, link) = run_secure_link(None, sent as u16);
    assert_eq!(played, sent);
    let clean_stats = link.auth_stats().expect("authenticated link");
    assert_eq!(clean_stats.accepted, sent, "clean link accepts everything");
    assert_eq!(clean_stats.rejected_total(), 0, "and rejects nothing");
}
