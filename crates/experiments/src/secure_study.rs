//! Extension: adversarial study of the authenticated link layer — the
//! ONI L8 trust boundary, measured.
//!
//! The secure-link PR claims one headline number: **zero forged or
//! replayed frames accepted** by the authenticated ARQ path, under a
//! composite radio adversary (forge / replay / reorder-splice /
//! truncate-extend / key-mismatch) stacked on top of ordinary wire
//! faults. This study drives that scenario deterministically — seeded
//! fault plan, seeded adversary, fixed stream — and reconciles three
//! independent books:
//!
//! 1. **payload truth** — every frame the link *plays out* is compared
//!    byte-for-byte against what the sender transmitted for that
//!    sequence number (a forgery that slipped through would show up
//!    here, whatever the counters say);
//! 2. **the receiver's ledger** — [`AuthStats`] must balance against
//!    the injector's own [`FaultCounters`] and [`AttackCounters`]
//!    field-exactly: every corruption and every attack lands in a
//!    predicted rejection class, nothing double-counted, nothing lost;
//! 3. **the clean control** — the identical link with no adversary must
//!    deliver every frame byte-identically with an all-zero rejection
//!    ledger, pinning the crypto path as transparent on a clean radio.
//!
//! The scoreboard lifts its secure-link rows from here, so `cargo test`
//! re-proves the claim on every run.

use std::path::Path;

use mindful_plot::{AsciiTable, Csv};
use mindful_rf::arq::{ArqConfig, ArqLink};
use mindful_rf::auth::{AuthConfig, AuthKey, AuthStats};
use mindful_rf::fault::{
    Adversary, AttackConfig, AttackCounters, FaultConfig, FaultCounters, FaultPlan,
    WireFaultInjector,
};
use mindful_rf::packet::packetize_into;

use crate::error::Result;
use crate::output::Artifacts;

/// Channels per frame (one 16×16 electrode tile — cheap enough for the
/// tier-1 scoreboard test, wide enough to exercise multi-word MACs).
pub(crate) const CHANNELS: usize = 256;
/// Frames in the adversarial drive.
pub(crate) const FRAMES: usize = 2000;
/// ADC resolution of the packetized samples.
pub(crate) const SAMPLE_BITS: u8 = 10;
/// Selective-repeat window of both links.
pub(crate) const WINDOW: usize = 16;
/// Retransmission round-trip, in frames.
pub(crate) const RTT: u64 = 2;
/// Composite wire-fault rate under attack.
pub(crate) const FAULT_RATE: f64 = 0.02;
/// Composite attack rate (split evenly over the five attack kinds).
pub(crate) const ATTACK_RATE: f64 = 0.25;
/// Key seed / key id shared by sender and receiver.
const KEY_SEED: u64 = 0x5EC5_7DD7;
const KEY_ID: u8 = 5;
/// Seeds for the fault plan and the adversary.
const FAULT_SEED: u64 = 0xF4_0175;
const ATTACK_SEED: u64 = 0xA77AC4;

/// The generated study: one adversarial drive plus its clean control.
#[derive(Debug, Clone)]
pub(crate) struct SecureStudy {
    /// Frames the sender transmitted.
    pub(crate) sent: u64,
    /// Frames the attacked link played out as delivered.
    pub(crate) delivered: u64,
    /// Delivered frames whose payload did not match the transmitted
    /// stream — accepted forgeries. The claim is that this is zero.
    pub(crate) forged_accepted: u64,
    /// Sequence numbers played out as delivered more than once —
    /// accepted replays. The claim is that this is zero.
    pub(crate) replayed_accepted: u64,
    /// The receiver's authentication ledger for the attacked drive.
    pub(crate) auth: AuthStats,
    /// Frames the attacked link's ARQ declared lost.
    pub(crate) lost: u64,
    /// What the injector actually did to the wire.
    pub(crate) faults: FaultCounters,
    /// What the adversary actually launched.
    pub(crate) attacks: AttackCounters,
    /// Whether the auth ledger balances against faults + attacks
    /// field-exactly (see [`SecureStudy::ledger_balanced`]).
    pub(crate) ledger_balanced: bool,
    /// Whether the clean control delivered every frame byte-identically
    /// with an all-zero rejection ledger.
    pub(crate) clean_identical: bool,
}

impl SecureStudy {
    /// Total attacks the adversary launched.
    #[must_use]
    pub(crate) fn attacks_launched(&self) -> u64 {
        self.attacks.total()
    }
}

/// The deterministic per-frame payload: distinct across sequence
/// numbers so a spliced or forged payload can never alias a real one.
fn payload(seq: u16) -> Vec<u16> {
    (0..CHANNELS as u16)
        .map(|c| c.wrapping_mul(31).wrapping_add(seq) % 1024)
        .collect()
}

fn auth_config() -> AuthConfig {
    AuthConfig::new(AuthKey::from_seed(KEY_SEED, KEY_ID))
}

/// Drives `frames` sealed frames through `link`, checking every
/// delivered playout byte-for-byte against the transmitted stream.
/// Returns `(delivered, forged_accepted, replayed_accepted)`.
fn drive(link: &mut ArqLink, frames: usize) -> Result<(u64, u64, u64)> {
    let mut wire = Vec::new();
    let mut samples = Vec::new();
    let mut seen = vec![0_u32; frames];
    let mut delivered = 0_u64;
    let mut forged = 0_u64;
    let mut check = |playout: mindful_rf::arq::Playout, samples: &[u16]| {
        if !playout.delivered {
            return;
        }
        delivered += 1;
        seen[playout.sequence as usize] += 1;
        if samples != payload(playout.sequence) {
            forged += 1;
        }
    };
    for seq in 0..frames {
        packetize_into(seq as u16, &payload(seq as u16), SAMPLE_BITS, &mut wire)?;
        if let Some(playout) = link.step_into(&wire, &mut samples)? {
            check(playout, &samples);
        }
    }
    while let Some(playout) = link.finish_into(&mut samples) {
        check(playout, &samples);
    }
    let replayed = seen.iter().map(|&n| u64::from(n.saturating_sub(1))).sum();
    Ok((delivered, forged, replayed))
}

/// Runs the attacked drive and its clean control.
///
/// # Errors
///
/// Propagates link-construction and packetization errors.
pub(crate) fn generate() -> Result<SecureStudy> {
    // Attacked drive: composite wire faults plus the five-kind
    // adversary, all seeded — the same numbers every run.
    let plan = FaultPlan::new(FaultConfig::wire_composite(FAULT_RATE), FAULT_SEED)?;
    let adversary = Adversary::new(AttackConfig::composite(ATTACK_RATE), ATTACK_SEED, KEY_ID)?;
    let injector = WireFaultInjector::with_adversary(plan, adversary);
    let mut link = ArqLink::with_auth(
        ArqConfig::selective_repeat(WINDOW),
        Some(injector),
        RTT,
        &auth_config(),
    )?;
    let (delivered, forged_accepted, replayed_accepted) = drive(&mut link, FRAMES)?;
    let auth = link.auth_stats().expect("authenticated link");
    let arq = link.stats();
    let faults = link.fault_counters().expect("fault injector present");
    let attacks = link.attack_counters().expect("adversary present");

    // The three-way ledger balance: every wire corruption and every
    // attack is accounted for in exactly one rejection class, and only
    // MAC-verified frames ever reached the ARQ.
    let ledger_balanced = arq.corrupted == 0
        && arq.duplicates == 0
        && auth.accepted == arq.received
        && auth.replayed == faults.duplicates + attacks.replayed
        && auth.rejected_auth() + auth.stale
            == faults.corruptions() + attacks.total() - attacks.replayed
        && auth.rejected_mac >= attacks.mac_rejected_expected()
        && auth.rejected_key >= attacks.key_mismatched;

    // Clean control: same link, no injector — byte-transparent crypto.
    let mut clean = ArqLink::with_auth(
        ArqConfig::selective_repeat(WINDOW),
        None,
        RTT,
        &auth_config(),
    )?;
    let (clean_delivered, clean_forged, clean_replayed) = drive(&mut clean, FRAMES)?;
    let clean_auth = clean.auth_stats().expect("authenticated link");
    let clean_identical = clean_delivered == FRAMES as u64
        && clean_forged == 0
        && clean_replayed == 0
        && clean_auth.accepted == FRAMES as u64
        && clean_auth.rejected_total() == 0;

    Ok(SecureStudy {
        sent: FRAMES as u64,
        delivered,
        forged_accepted,
        replayed_accepted,
        auth,
        lost: arq.lost,
        faults,
        attacks,
        ledger_balanced,
        clean_identical,
    })
}

/// Writes the attack/rejection table and summary.
///
/// # Errors
///
/// Propagates filesystem errors.
pub(crate) fn render(study: &SecureStudy, dir: &Path) -> Result<Artifacts> {
    let mut artifacts = Artifacts::new();
    let mut ascii = AsciiTable::new(&["Ledger entry", "Count"]);
    let mut csv = Csv::new(&["entry", "count"]);
    let rows: [(&str, u64); 17] = [
        ("frames sent", study.sent),
        ("frames delivered", study.delivered),
        ("frames lost", study.lost),
        ("forged frames accepted", study.forged_accepted),
        ("replayed frames accepted", study.replayed_accepted),
        ("attacks: forged", study.attacks.forged),
        ("attacks: replayed", study.attacks.replayed),
        ("attacks: spliced", study.attacks.spliced),
        ("attacks: truncate-extend", study.attacks.truncated_extended),
        ("attacks: key mismatch", study.attacks.key_mismatched),
        ("wire faults: corruptions", study.faults.corruptions()),
        ("wire faults: drops", study.faults.drops),
        ("wire faults: duplicates", study.faults.duplicates),
        ("auth: rejected (mac)", study.auth.rejected_mac),
        ("auth: rejected (key)", study.auth.rejected_key),
        ("auth: replay-window rejections", study.auth.replayed),
        ("auth: stale rejections", study.auth.stale),
    ];
    for (entry, count) in rows {
        let cells = [entry.to_owned(), count.to_string()];
        ascii.push(&cells);
        csv.push(&cells);
    }
    artifacts.report(format!(
        "Extension: adversarial soak of the authenticated link \
         ({CHANNELS} channels, {FRAMES} frames, {ATTACK_RATE} composite \
         attacks over {FAULT_RATE} wire faults)\n"
    ));
    artifacts.report(ascii.to_string());
    artifacts.report(format!(
        "forged or replayed frames accepted: {} (claim: 0) | \
         ledger balanced: {} | clean control byte-identical: {}",
        study.forged_accepted + study.replayed_accepted,
        study.ledger_balanced,
        study.clean_identical,
    ));
    artifacts.write_file(dir, "secure_link.csv", csv.as_str())?;
    Ok(artifacts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn study() -> &'static SecureStudy {
        static STUDY: std::sync::OnceLock<SecureStudy> = std::sync::OnceLock::new();
        STUDY.get_or_init(|| generate().unwrap())
    }

    #[test]
    fn no_forged_or_replayed_frame_is_accepted() {
        let study = study();
        assert!(study.attacks_launched() > 0, "the adversary fired");
        assert!(study.attacks.forged > 0, "forgeries launched");
        assert!(study.attacks.replayed > 0, "replays launched");
        assert_eq!(study.forged_accepted, 0);
        assert_eq!(study.replayed_accepted, 0);
    }

    #[test]
    fn ledger_balances_and_clean_control_is_transparent() {
        let study = study();
        assert!(study.ledger_balanced);
        assert!(study.clean_identical);
        assert!(study.auth.rejected_auth() > 0, "rejections were recorded");
    }

    #[test]
    fn every_sequence_is_played_out_exactly_once() {
        // The ARQ recovers what the adversary and the channel destroy;
        // what it cannot recover it declares lost — it never invents or
        // repeats a delivery.
        let study = study();
        assert_eq!(study.delivered + study.lost, study.sent);
        assert!(study.delivered > study.sent * 9 / 10, "most frames survive");
    }

    #[test]
    fn render_writes_the_table() {
        let dir = std::env::temp_dir().join("mindful-secure-study-test");
        let artifacts = render(study(), &dir).unwrap();
        assert_eq!(artifacts.files().len(), 1);
        assert!(artifacts
            .report_text()
            .contains("forged or replayed frames accepted: 0"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
