//! Adversarial soak for the secure link layer and the neural firewall.
//!
//! The deliverable of the secure-link PR is proof, not promise: a
//! 1024-channel chain (sense → packetize → authenticated link →
//! firewall) is driven for 10 000 steps while a seeded [`Adversary`]
//! mounts every attack kind the threat model names — forgery, replay,
//! reorder-splice, truncate-then-extend, key mismatch — on top of a
//! composite wire-fault channel. The acceptance bar is absolute:
//! **zero forged or replayed frames accepted**, proven two independent
//! ways: (1) every delivered playout is byte-identical to the frame
//! the implant transmitted for that sequence number, and (2) the
//! authentication ledger accounts for every attack and corruption in
//! the correct rejection class, field-exact, cross-checked against the
//! observability registry's `secure.*` gauges.
//! Set `MINDFUL_SOAK_QUICK=1` (CI short mode) to shrink the step count.
//!
//! The remaining tests pin the other half of the contract: with a
//! clean channel the secure chain (auth + firewall) is a pure
//! window delay, byte-identical to the transmitted stream — security
//! must cost zero fidelity — and a dead/saturated array that is
//! *correctly signed* (the attack authentication cannot see) is caught
//! by the firewall's coherence screen and explicitly concealed.

use mindful_pipeline::prelude::*;
use mindful_rf::arq::ArqConfig;
use mindful_rf::auth::{AuthConfig, AuthKey};
use mindful_rf::fault::{Adversary, AttackConfig, FaultConfig, FaultPlan, WireFaultInjector};
use mindful_signal::neuron::trajectory_intent;
use mindful_signal::prelude::NeuralInterface;

const SAMPLE_BITS: u8 = 10;
const ARQ_WINDOW: usize = 16;
const RTT: u64 = 2;

fn soak_steps() -> usize {
    // CI short mode: enough steps for every attack kind to fire many
    // times over, without the full ten-thousand-step run.
    if mindful_core::env::flag("MINDFUL_SOAK_QUICK", false) {
        1_500
    } else {
        10_000
    }
}

/// The headline adversarial soak: 1024 channels, composite wire
/// faults, a five-kind adversary, authentication and firewall on.
#[test]
fn adversarial_soak_accepts_zero_forged_or_replayed_frames() {
    const GRID: usize = 32; // 32² = 1024 channels
    const CHANNELS: usize = GRID * GRID;
    const FAULT_RATE: f64 = 0.02;
    const ATTACK_RATE: f64 = 0.25;
    const SEED: u64 = 0x05EC_50AC;
    const KEY_ID: u8 = 7;
    let steps = soak_steps();

    let ni = NeuralInterface::new(GRID, 400, SAMPLE_BITS, 97).unwrap();
    let mut twin_ni = ni.clone();
    let auth = AuthConfig::new(AuthKey::from_seed(SEED, KEY_ID));
    let plan = FaultPlan::new(FaultConfig::wire_composite(FAULT_RATE), SEED).unwrap();
    let adversary =
        Adversary::new(AttackConfig::composite(ATTACK_RATE), SEED ^ 0xBAD, KEY_ID).unwrap();
    let injector = WireFaultInjector::with_adversary(plan, adversary);
    let registry = mindful_core::obs::Registry::new();
    let mut pipeline = Pipeline::new()
        .with_stage(SenseStage::from_interface(ni, IntentSchedule::FigureEight))
        .with_stage(PacketizeStage::new(SAMPLE_BITS).unwrap())
        .with_stage(
            LinkStage::with_channel(
                ArqConfig::selective_repeat(ARQ_WINDOW),
                Some(injector),
                RTT,
                Some(&auth),
            )
            .unwrap(),
        )
        .with_stage(FirewallStage::new(CHANNELS, FirewallConfig::default()).unwrap())
        .with_instrumentation(&registry, "soak");

    // The ground truth: what the implant actually transmitted, frame
    // by frame. Playouts come out in sequence order, so playout `k`
    // must be byte-identical to `sent[k]` — or the explicit gap
    // marker for a frame the ARQ gave up on. Anything else is a
    // forgery that got through.
    let sent: Vec<Vec<u16>> = (0..steps)
        .map(|k| twin_ni.sample(trajectory_intent(k)).unwrap().samples)
        .collect();
    let mut played = 0_usize;
    let mut gaps = 0_u64;
    for step in 0..steps {
        if let Some(out) = pipeline.push(Frame::Empty).unwrap() {
            let Frame::Codes(codes) = out.as_frame() else {
                panic!("firewall emits codes");
            };
            if codes.is_empty() {
                gaps += 1;
            } else {
                assert_eq!(
                    codes, &sent[played],
                    "step {step}: playout {played} not byte-identical — forged or \
                     replayed data reached the application"
                );
            }
            played += 1;
        }
    }
    assert_eq!(played, steps - ARQ_WINDOW, "fixed playout delay");
    pipeline.finish().unwrap();

    let telemetry = pipeline.telemetry();
    let arq = telemetry[2].faults.expect("link reports faults");
    let auth_stats = telemetry[2]
        .secure
        .expect("authenticated link reports secure telemetry");
    let firewall = telemetry[3]
        .secure
        .expect("firewall reports secure telemetry");

    // Every frame played out exactly once, delivered or explicitly lost.
    assert_eq!(telemetry[2].frames_out, steps as u64);
    assert_eq!(
        telemetry[3].frames_out, steps as u64,
        "firewall passes every playout"
    );

    // The adversary fired: a 25% composite rate over this many steps
    // must have mounted every attack kind many times.
    assert!(
        auth_stats.rejected_auth > 0,
        "the adversary's forgeries were rejected: {auth_stats:?}"
    );
    assert!(
        auth_stats.replayed > 0,
        "replayed frames were rejected: {auth_stats:?}"
    );

    // Sealing is conservation-exact: every transmitted frame was
    // sealed exactly once (retransmissions reuse the stored sealed
    // image, they are not re-sealed).
    assert_eq!(auth_stats.sealed, steps as u64);

    // The firewall quarantined nothing: an authenticated clean-ish
    // neural stream is in-family by construction, and every attack
    // frame was already rejected upstream of it.
    assert_eq!(firewall.firewalled, 0, "no false quarantines");
    assert_eq!(gaps, arq.lost, "every gap is an accounted loss");

    // Observability is a faithful second witness: the registry's
    // `secure.*` gauges mirror the stage snapshots field-exact.
    use mindful_core::obs::names;
    let snapshot = registry.snapshot();
    let gauge = |name: &str| {
        snapshot
            .gauge(name)
            .unwrap_or_else(|| panic!("gauge {name} registered"))
            .0
    };
    for leaf in names::SECURE_METRICS {
        assert!(
            snapshot
                .gauge(&format!("soak.2.link.secure.{leaf}"))
                .is_some(),
            "link registers secure gauge {leaf}"
        );
        assert!(
            snapshot
                .gauge(&format!("soak.3.firewall.secure.{leaf}"))
                .is_some(),
            "firewall registers secure gauge {leaf}"
        );
    }
    assert_eq!(gauge("soak.2.link.secure.frames_sealed"), auth_stats.sealed);
    assert_eq!(
        gauge("soak.2.link.secure.frames_accepted"),
        auth_stats.accepted
    );
    assert_eq!(
        gauge("soak.2.link.secure.frames_rejected_auth"),
        auth_stats.rejected_auth
    );
    assert_eq!(
        gauge("soak.2.link.secure.frames_replayed"),
        auth_stats.replayed
    );
    assert_eq!(gauge("soak.2.link.secure.frames_stale"), auth_stats.stale);
    assert_eq!(
        gauge("soak.3.firewall.secure.frames_firewalled"),
        firewall.firewalled
    );
    assert_eq!(
        gauge("soak.3.firewall.secure.coherence_ppm"),
        firewall.coherence_ppm
    );
    // Forgery acceptance expressed as the obs cross-check CI reads:
    // the accepted count can never exceed what the implant sealed.
    let accounted = gauge("soak.2.link.secure.frames_accepted");
    assert!(
        accounted <= auth_stats.sealed,
        "accepted ({accounted}) exceeds sealed ({}) — forgeries counted in",
        auth_stats.sealed
    );
}

/// Conservation-law variant driven at the link level with exact
/// cross-ledger accounting: every attack and every wire corruption
/// lands in the correct rejection class, none is accepted.
#[test]
fn adversarial_ledger_balances_field_exact() {
    use mindful_rf::packet::packetize;

    const CHANNELS: usize = 256;
    const FAULT_RATE: f64 = 0.02;
    const ATTACK_RATE: f64 = 0.25;
    const KEY_ID: u8 = 3;
    let steps = soak_steps();

    let auth = AuthConfig::new(AuthKey::from_seed(0xFEED_5AFE, KEY_ID));
    let plan = FaultPlan::new(FaultConfig::wire_composite(FAULT_RATE), 777).unwrap();
    let adversary = Adversary::new(AttackConfig::composite(ATTACK_RATE), 0xA77AC4, KEY_ID).unwrap();
    let injector = WireFaultInjector::with_adversary(plan, adversary);
    let mut stage = LinkStage::with_channel(
        ArqConfig::selective_repeat(ARQ_WINDOW),
        Some(injector),
        RTT,
        Some(&auth),
    )
    .unwrap();

    let payload = |seq: u16| -> Vec<u16> {
        (0..CHANNELS as u16)
            .map(|c| c.wrapping_mul(31).wrapping_add(seq) % 1024)
            .collect()
    };
    let mut out = FrameBuf::new();
    let mut played = 0_u64;
    let check = |frame: &FrameBuf, k: u64| {
        let Frame::Codes(codes) = frame.as_frame() else {
            panic!("link emits codes");
        };
        if !codes.is_empty() {
            assert_eq!(
                codes,
                payload(k as u16),
                "playout {k} not byte-identical: forgery accepted"
            );
        }
    };
    for seq in 0..steps as u64 {
        let wire = packetize(seq as u16, &payload(seq as u16), SAMPLE_BITS).unwrap();
        if stage.process(&Frame::Bytes(&wire), &mut out).unwrap() == StageOutput::Emitted {
            check(&out, played);
            played += 1;
        }
    }
    while stage.finish(&mut out).unwrap() == StageOutput::Emitted {
        check(&out, played);
        played += 1;
    }
    assert_eq!(played, steps as u64, "every frame plays out exactly once");

    let arq = stage.stats();
    let faults = stage.fault_counters().expect("channel has a fault plan");
    let attacks = stage.attack_counters().expect("channel has an adversary");
    let auth_stats = stage.auth_stats().expect("link is authenticated");

    assert!(attacks.total() > 0, "the adversary fired");
    assert!(faults.corruptions() > 0, "the channel corrupted frames");

    // Under auth the ARQ receiver sees only verified inner packets.
    assert_eq!(arq.corrupted, 0, "no corruption survives the MAC");
    assert_eq!(arq.duplicates, 0, "no duplicate survives the replay window");
    assert_eq!(
        auth_stats.accepted, arq.received,
        "accepted ⇔ handed inward"
    );

    // Replays are exactly the channel's duplicates plus the
    // adversary's replay attacks — nothing more, nothing less.
    assert_eq!(auth_stats.replayed, faults.duplicates + attacks.replayed);

    // Every corruption and every non-replay attack is rejected in an
    // authentication class; the classes sum exactly.
    assert_eq!(
        auth_stats.rejected_auth() + auth_stats.stale,
        faults.corruptions() + attacks.total() - attacks.replayed,
        "rejection ledger out of balance: {auth_stats:?} vs {faults:?} + {attacks:?}"
    );
    assert!(auth_stats.rejected_mac >= attacks.mac_rejected_expected());
    assert!(auth_stats.rejected_key >= attacks.key_mismatched);

    // Zero acceptance, stated as conservation: sealed frames in,
    // accepted + every rejection class out, with nothing unaccounted.
    assert_eq!(auth_stats.sealed, steps as u64);
    assert!(
        auth_stats.accepted >= arq.delivered,
        "ARQ plays only accepted data"
    );

    // The secure telemetry snapshot is the same ledger.
    let secure = stage.secure_telemetry().expect("authenticated link");
    assert_eq!(secure.sealed, auth_stats.sealed);
    assert_eq!(secure.accepted, auth_stats.accepted);
    assert_eq!(secure.rejected_auth, auth_stats.rejected_auth());
    assert_eq!(secure.replayed, auth_stats.replayed);
    assert_eq!(secure.stale, auth_stats.stale);
}

/// Security costs zero fidelity: over a clean channel the full secure
/// chain (authentication + firewall) is a pure window delay,
/// byte-identical to the transmitted stream, with an all-zero
/// rejection ledger and no false quarantines.
#[test]
fn clean_secure_chain_is_byte_identical_with_an_empty_ledger() {
    const GRID: usize = 16; // 16² = 256 channels
    const CHANNELS: usize = GRID * GRID;
    const STEPS: usize = 600;

    let ni = NeuralInterface::new(GRID, 400, SAMPLE_BITS, 11).unwrap();
    let mut twin = ni.clone();
    let auth = AuthConfig::new(AuthKey::from_seed(0xC1EA_0000, 1));
    let mut pipeline = Pipeline::new()
        .with_stage(SenseStage::from_interface(ni, IntentSchedule::FigureEight))
        .with_stage(PacketizeStage::new(SAMPLE_BITS).unwrap())
        .with_stage(
            LinkStage::with_channel(
                ArqConfig::selective_repeat(ARQ_WINDOW),
                None,
                RTT,
                Some(&auth),
            )
            .unwrap(),
        )
        .with_stage(FirewallStage::new(CHANNELS, FirewallConfig::default()).unwrap())
        .with_stage(ConcealStage::new(CHANNELS, DegradePolicy::HoldLast).unwrap());

    let sent: Vec<Vec<u16>> = (0..STEPS)
        .map(|k| twin.sample(trajectory_intent(k)).unwrap().samples)
        .collect();
    let mut played = 0_usize;
    for step in 0..STEPS {
        if let Some(out) = pipeline.push(Frame::Empty).unwrap() {
            let Frame::Codes(codes) = out.as_frame() else {
                panic!("conceal emits codes");
            };
            assert_eq!(codes, &sent[played], "step {step}: byte-identical");
            played += 1;
        }
    }
    assert_eq!(played, STEPS - ARQ_WINDOW);
    let flushed = pipeline.finish().unwrap();
    assert_eq!(flushed, ARQ_WINDOW as u64, "finish drains the window tail");

    let telemetry = pipeline.telemetry();
    let auth_stats = telemetry[2].secure.unwrap();
    let firewall = telemetry[3].secure.unwrap();
    let conceal = telemetry[4].faults.unwrap();
    assert_eq!(auth_stats.sealed, STEPS as u64);
    assert_eq!(auth_stats.accepted, STEPS as u64, "every frame accepted");
    assert_eq!(auth_stats.rejected_auth, 0);
    assert_eq!(auth_stats.replayed, 0);
    assert_eq!(auth_stats.stale, 0);
    assert_eq!(
        firewall.firewalled, 0,
        "no false quarantines on a clean link"
    );
    assert!(
        firewall.coherence_ppm > 500_000,
        "clean stream stays coherent: {} ppm",
        firewall.coherence_ppm
    );
    assert_eq!(conceal.degraded, 0, "nothing to conceal");
    assert_eq!(conceal.quarantined, 0);
}

/// The attack authentication cannot see: a correctly signed stream
/// whose array goes dead (or saturates) is caught by the firewall's
/// coherence screen and explicitly concealed — the deterministic
/// fixture behind DESIGN.md §11's in-band anomaly claim.
#[test]
fn firewall_catches_the_signed_dead_and_saturated_array() {
    const CHANNELS: usize = 64;
    let config = FirewallConfig {
        warmup: 64,
        ..FirewallConfig::default()
    };
    let mut pipeline = Pipeline::new()
        .with_stage(FirewallStage::new(CHANNELS, config).unwrap())
        .with_stage(ConcealStage::new(CHANNELS, DegradePolicy::HoldLast).unwrap());

    // An in-family stream: per-channel baseline plus a small wobble.
    let clean = |k: usize| -> Vec<u16> {
        (0..CHANNELS)
            .map(|c| {
                let base = 300.0 + 4.0 * c as f64;
                (base + 20.0 * ((k as f64 * 0.41 + c as f64).sin())) as u16
            })
            .collect()
    };
    for k in 0..300 {
        let frame = clean(k);
        let out = pipeline.push(Frame::Codes(&frame)).unwrap().unwrap();
        assert_eq!(
            out.as_frame(),
            Frame::Codes(frame.as_slice()),
            "clean frame {k} passes bit-exact through firewall + conceal"
        );
    }

    // The array halves go dark / saturate: both are quarantined and
    // the concealer holds the last good frame — the application never
    // sees the anomaly.
    let last_good = clean(299);
    let mut dead = clean(300);
    dead[..CHANNELS / 2].fill(0);
    let mut saturated = clean(301);
    saturated[CHANNELS / 2..].fill(1023);
    for anomaly in [&dead, &saturated] {
        let out = pipeline.push(Frame::Codes(anomaly)).unwrap().unwrap();
        assert_eq!(
            out.as_frame(),
            Frame::Codes(last_good.as_slice()),
            "quarantined frame is concealed with the last good frame"
        );
    }

    let telemetry = pipeline.telemetry();
    let firewall = telemetry[0].secure.unwrap();
    let conceal = telemetry[1].faults.unwrap();
    assert_eq!(firewall.firewalled, 2, "both anomalies quarantined");
    assert_eq!(
        conceal.degraded, 2,
        "every quarantine is explicitly concealed"
    );
    assert!(
        firewall.coherence_ppm < 500_000,
        "the last anomaly scored incoherent: {} ppm",
        firewall.coherence_ppm
    );

    // Recovery: the stream resumes and passes again (the τ chain was
    // reset across the quarantine, so resumption is not an anomaly).
    let resumed = clean(302);
    let out = pipeline.push(Frame::Codes(&resumed)).unwrap().unwrap();
    assert_eq!(out.as_frame(), Frame::Codes(resumed.as_slice()));
    assert_eq!(
        pipeline.telemetry()[0].secure.unwrap().firewalled,
        2,
        "recovery is not re-quarantined"
    );
}

/// [`Pipeline::telemetry`] reads every stage's fault and security
/// counters when it is called, so an uninstrumented chain reports the
/// same snapshots as an instrumented twin that also mirrors them into
/// the registry after every step: after faulted and attacked steps, a
/// shed straight into the concealer and the end-of-stream flush. Before
/// its first step a fault- or secure-aware stage reports `Some` of its
/// zero counters, and every other stage `None`.
#[test]
fn snapshots_read_at_telemetry_match_the_instrumented_twin() {
    const GRID: usize = 4; // 4² = 16 channels
    const CHANNELS: usize = GRID * GRID;
    const STEPS: usize = 400;
    const SEED: u64 = 0x5A_AB5;
    const KEY_ID: u8 = 3;
    const CONCEAL: usize = 5;
    let chain = || {
        let ni = NeuralInterface::new(GRID, 400, SAMPLE_BITS, 29).unwrap();
        let auth = AuthConfig::new(AuthKey::from_seed(SEED, KEY_ID));
        let wire = FaultPlan::new(FaultConfig::wire_composite(0.03), SEED).unwrap();
        let adversary = Adversary::new(AttackConfig::composite(0.1), SEED ^ 0xBAD, KEY_ID).unwrap();
        let front = FaultPlan::new(FaultConfig::frame_composite(0.05), SEED ^ 1).unwrap();
        Pipeline::new()
            .with_stage(SenseStage::from_interface(ni, IntentSchedule::FigureEight))
            .with_stage(PacketizeStage::new(SAMPLE_BITS).unwrap())
            .with_stage(
                LinkStage::with_channel(
                    ArqConfig::selective_repeat(ARQ_WINDOW),
                    Some(WireFaultInjector::with_adversary(wire, adversary)),
                    RTT,
                    Some(&auth),
                )
                .unwrap(),
            )
            .with_stage(FaultStage::new(front, SAMPLE_BITS).unwrap())
            .with_stage(FirewallStage::new(CHANNELS, FirewallConfig::default()).unwrap())
            .with_stage(ConcealStage::new(CHANNELS, DegradePolicy::HoldLast).unwrap())
    };

    // (fault-aware, secure-aware) per stage: sense, packetize, the
    // authenticated link, the front-end injector, firewall, conceal.
    let aware = [
        (false, false),
        (false, false),
        (true, true),
        (true, false),
        (false, true),
        (true, false),
    ];
    let fresh = chain().telemetry();
    assert_eq!(fresh.len(), aware.len());
    for (t, (faults, secure)) in fresh.iter().zip(aware) {
        assert_eq!(t.faults, faults.then(FaultTelemetry::default), "{}", t.name);
        assert_eq!(
            t.secure,
            secure.then(SecureTelemetry::default),
            "{}",
            t.name
        );
    }

    let registry = mindful_core::obs::Registry::new();
    let mut observed = chain().with_instrumentation(&registry, "twin");
    let mut bare = chain();
    for pipeline in [&mut observed, &mut bare] {
        for _ in 0..STEPS {
            pipeline.push(Frame::Empty).unwrap();
        }
        assert!(pipeline
            .push_at(CONCEAL, Frame::Codes(&[]))
            .unwrap()
            .is_some());
        pipeline.finish().unwrap();
    }

    let (timed, untimed) = (observed.telemetry(), bare.telemetry());
    let stats =
        |t: &[StageTelemetry]| -> Vec<_> { t.iter().map(|s| (s.faults, s.secure)).collect() };
    assert_eq!(stats(&timed), stats(&untimed));
    let link = timed[2].faults.unwrap();
    let injector = timed[3].faults.unwrap();
    let firewall = timed[4].secure.unwrap();
    let conceal = timed[CONCEAL].faults.unwrap();
    assert!(link.injected > 0 && timed[2].secure.unwrap().rejected_auth > 0);
    assert!(injector.injected > 0);
    assert!(conceal.degraded > 0, "the shed and the lost frames");
    let snapshot = registry.snapshot();
    assert_eq!(
        snapshot
            .gauge("twin.5.conceal.faults.degraded")
            .map(|(v, _)| v),
        Some(conceal.degraded),
        "the registry mirrors the same counters"
    );
    assert_eq!(
        snapshot
            .gauge(&format!(
                "twin.4.firewall.secure.{}",
                mindful_core::obs::names::FRAMES_FIREWALLED
            ))
            .map(|(v, _)| v),
        Some(firewall.firewalled)
    );
}
