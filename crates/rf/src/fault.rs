//! Deterministic fault injection for the implant uplink.
//!
//! The link budget of Section 5 sizes the wireless uplink for BER 1e-6
//! at a fixed 20 dB margin — an implant pinned under the 40 mW/cm²
//! safety ceiling cannot overprovision its radio, so real deployments
//! *will* see corrupted, truncated, and dropped frames. This module
//! provides the fault model the rest of the stack is tested against:
//! a seeded, deterministic [`FaultPlan`] that decides per packet (or
//! per frame) which fault to inject, and a [`WireFaultInjector`] that
//! applies wire-level faults — bit flips, truncations, drops,
//! duplicates, adjacent reorders — to a packet stream.
//!
//! Determinism is the point: the same `(config, seed)` pair always
//! produces the same fault sequence, so a soak test can compare the
//! receiver's detection/recovery telemetry against the injected plan
//! *exactly*, and any divergence is a bug, not noise.
//!
//! Channel-level faults (dead channels, saturated channels, NaN bursts
//! from the analog front end) are decided here too
//! ([`FaultPlan::next_frame_fault`]) and applied by the pipeline's
//! `FaultStage`, which wraps a plan as a composable `Stage`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::auth::{AuthConfig, AuthKey, AuthSender, AUTH_MAGIC, AUTH_TAG_BYTES, MIN_SEALED_BYTES};
use crate::error::{Result, RfError};
use crate::packet::packetize;

/// Per-packet / per-frame fault probabilities.
///
/// Each field is the probability that the corresponding fault is
/// injected into one packet (wire faults) or one frame (front-end
/// faults). At most one fault is applied per packet/frame, so the
/// rates must sum to at most 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Flip one random payload bit (detected by the CRC-16).
    pub(crate) bit_flip: f64,
    /// Truncate the packet at a random byte boundary.
    pub(crate) truncate: f64,
    /// Drop the packet (wire) or frame (front end) entirely.
    pub drop: f64,
    /// Deliver the packet twice.
    pub(crate) duplicate: f64,
    /// Swap the packet with its successor (adjacent reorder).
    pub(crate) reorder: f64,
    /// Zero a contiguous run of channels (dead electrodes).
    pub(crate) dead_channels: f64,
    /// Saturate a contiguous run of channels at full scale.
    pub(crate) saturated_channels: f64,
    /// Replace a contiguous run of channels with NaN (front-end burst;
    /// only meaningful for real-valued frames).
    pub nan_burst: f64,
}

impl FaultConfig {
    /// No faults at all — the identity plan used by equivalence tests.
    #[must_use]
    pub fn none() -> Self {
        Self {
            bit_flip: 0.0,
            truncate: 0.0,
            drop: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            dead_channels: 0.0,
            saturated_channels: 0.0,
            nan_burst: 0.0,
        }
    }

    /// A composite wire-fault mix: `rate` split evenly across the five
    /// wire fault kinds (bit flip, truncate, drop, duplicate, reorder).
    #[must_use]
    pub fn wire_composite(rate: f64) -> Self {
        let each = rate / 5.0;
        Self {
            bit_flip: each,
            truncate: each,
            drop: each,
            duplicate: each,
            reorder: each,
            ..Self::none()
        }
    }

    /// A composite front-end mix: `rate` split evenly across frame
    /// drops, dead channels, saturated channels, and NaN bursts.
    #[must_use]
    pub fn frame_composite(rate: f64) -> Self {
        let each = rate / 4.0;
        Self {
            drop: each,
            dead_channels: each,
            saturated_channels: each,
            nan_burst: each,
            ..Self::none()
        }
    }

    /// Sum of all per-event fault rates.
    #[must_use]
    pub(crate) fn total_rate(&self) -> f64 {
        self.bit_flip
            + self.truncate
            + self.drop
            + self.duplicate
            + self.reorder
            + self.dead_channels
            + self.saturated_channels
            + self.nan_burst
    }

    /// Validates every rate lies in `[0, 1]` and the total does not
    /// exceed 1 (at most one fault per event).
    ///
    /// # Errors
    ///
    /// Returns [`RfError::InvalidParameter`] on violation.
    pub(crate) fn validate(&self) -> Result<()> {
        for (name, value) in [
            ("bit flip rate", self.bit_flip),
            ("truncate rate", self.truncate),
            ("drop rate", self.drop),
            ("duplicate rate", self.duplicate),
            ("reorder rate", self.reorder),
            ("dead channel rate", self.dead_channels),
            ("saturated channel rate", self.saturated_channels),
            ("nan burst rate", self.nan_burst),
        ] {
            if !(0.0..=1.0).contains(&value) || value.is_nan() {
                return Err(RfError::InvalidParameter { name, value });
            }
        }
        let total = self.total_rate();
        if total > 1.0 {
            return Err(RfError::InvalidParameter {
                name: "total fault rate",
                value: total,
            });
        }
        Ok(())
    }
}

/// One wire-level fault decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WireFault {
    /// Flip bit `bit` (absolute bit index into the packet).
    BitFlip {
        /// Absolute bit index to flip.
        bit: usize,
    },
    /// Keep only the first `keep` bytes.
    Truncate {
        /// Bytes to keep (strictly less than the packet length).
        keep: usize,
    },
    /// Drop the packet.
    Drop,
    /// Deliver the packet twice.
    Duplicate,
    /// Hold the packet and deliver it after its successor.
    Reorder,
}

/// One frame-level (front-end) fault decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameFault {
    /// Drop the frame.
    Drop,
    /// Zero channels `start..start + len`.
    DeadChannels {
        /// First affected channel.
        start: usize,
        /// Number of affected channels.
        len: usize,
    },
    /// Saturate channels `start..start + len` at full scale.
    SaturatedChannels {
        /// First affected channel.
        start: usize,
        /// Number of affected channels.
        len: usize,
    },
    /// Replace channels `start..start + len` with NaN.
    NanBurst {
        /// First affected channel.
        start: usize,
        /// Number of affected channels.
        len: usize,
    },
}

/// Counts of faults actually injected, by kind.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FaultCounters {
    /// Packets with one bit flipped.
    pub(crate) bit_flips: u64,
    /// Packets truncated.
    pub(crate) truncations: u64,
    /// Packets or frames dropped.
    pub drops: u64,
    /// Packets duplicated.
    pub duplicates: u64,
    /// Packet pairs reordered.
    pub(crate) reorders: u64,
    /// Frames with a dead-channel run.
    pub(crate) dead_channels: u64,
    /// Frames with a saturated-channel run.
    pub(crate) saturated_channels: u64,
    /// Frames with a NaN burst.
    pub nan_bursts: u64,
}

impl FaultCounters {
    /// Total faults injected.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.bit_flips
            + self.truncations
            + self.drops
            + self.duplicates
            + self.reorders
            + self.dead_channels
            + self.saturated_channels
            + self.nan_bursts
    }

    /// Faults that corrupt a packet in a CRC-detectable way (bit flips
    /// and truncations).
    #[must_use]
    pub fn corruptions(&self) -> u64 {
        self.bit_flips + self.truncations
    }
}

/// A deterministic, seeded fault schedule.
///
/// The plan owns an RNG seeded once at construction; every decision
/// consumes a fixed draw pattern, so the full fault sequence is a pure
/// function of `(config, seed)` and the sequence of event sizes.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    config: FaultConfig,
    rng: StdRng,
    counters: FaultCounters,
}

impl FaultPlan {
    /// Creates a plan from a validated config and a seed.
    ///
    /// # Errors
    ///
    /// Propagates `FaultConfig::validate` errors.
    pub fn new(config: FaultConfig, seed: u64) -> Result<Self> {
        config.validate()?;
        Ok(Self {
            config,
            rng: StdRng::seed_from_u64(seed),
            counters: FaultCounters::default(),
        })
    }

    /// Counts of faults injected so far.
    #[must_use]
    pub fn counters(&self) -> FaultCounters {
        self.counters
    }

    /// Decides the fault (if any) for the next wire packet of
    /// `wire_len` bytes. `allow_reorder` lets the injector veto a
    /// reorder while one packet is already held back; a vetoed reorder
    /// counts as no fault.
    pub(crate) fn next_wire_fault(
        &mut self,
        wire_len: usize,
        allow_reorder: bool,
    ) -> Option<WireFault> {
        let u: f64 = self.rng.random();
        let c = self.config;
        let mut edge = c.bit_flip;
        if u < edge {
            // Draw the bit index unconditionally so the decision stream
            // stays aligned regardless of packet sizes.
            let raw: u64 = self.rng.random();
            if wire_len == 0 {
                return None;
            }
            self.counters.bit_flips += 1;
            return Some(WireFault::BitFlip {
                bit: (raw as usize) % (wire_len * 8),
            });
        }
        edge += c.truncate;
        if u < edge {
            let raw: u64 = self.rng.random();
            if wire_len == 0 {
                return None;
            }
            self.counters.truncations += 1;
            return Some(WireFault::Truncate {
                keep: (raw as usize) % wire_len,
            });
        }
        edge += c.drop;
        if u < edge {
            self.counters.drops += 1;
            return Some(WireFault::Drop);
        }
        edge += c.duplicate;
        if u < edge {
            self.counters.duplicates += 1;
            return Some(WireFault::Duplicate);
        }
        edge += c.reorder;
        if u < edge {
            if !allow_reorder {
                return None;
            }
            self.counters.reorders += 1;
            return Some(WireFault::Reorder);
        }
        None
    }

    /// Decides the fault (if any) for the next frame of `channels`
    /// channels. NaN bursts are only drawn when `allow_nan` (the frame
    /// kind can represent NaN); a vetoed burst counts as no fault.
    pub fn next_frame_fault(&mut self, channels: usize, allow_nan: bool) -> Option<FrameFault> {
        let u: f64 = self.rng.random();
        let c = self.config;
        let mut edge = c.drop;
        if u < edge {
            self.counters.drops += 1;
            return Some(FrameFault::Drop);
        }
        edge += c.dead_channels;
        if u < edge {
            let (start, len) = self.burst(channels)?;
            self.counters.dead_channels += 1;
            return Some(FrameFault::DeadChannels { start, len });
        }
        edge += c.saturated_channels;
        if u < edge {
            let (start, len) = self.burst(channels)?;
            self.counters.saturated_channels += 1;
            return Some(FrameFault::SaturatedChannels { start, len });
        }
        edge += c.nan_burst;
        if u < edge {
            let (start, len) = self.burst(channels)?;
            if !allow_nan {
                return None;
            }
            self.counters.nan_bursts += 1;
            return Some(FrameFault::NanBurst { start, len });
        }
        None
    }

    /// A contiguous channel run: start anywhere, length 1 up to 1/8 of
    /// the frame (at least 1). Draws are unconditional to keep the
    /// decision stream size-independent.
    fn burst(&mut self, channels: usize) -> Option<(usize, usize)> {
        let a: u64 = self.rng.random();
        let b: u64 = self.rng.random();
        if channels == 0 {
            return None;
        }
        let max_len = (channels / 8).max(1);
        let len = 1 + (a as usize) % max_len;
        let start = (b as usize) % channels;
        Some((start, len.min(channels - start)))
    }
}

// ---------------------------------------------------------------------
// Active adversary
// ---------------------------------------------------------------------

/// Per-packet attack probabilities for the active adversary.
///
/// Unlike [`FaultConfig`], whose faults model an unreliable channel,
/// these model a *malicious* peer injecting crafted frames alongside
/// the legitimate stream. At most one attack is launched per pushed
/// packet, so the rates must sum to at most 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackConfig {
    /// Inject a frame forged under the attacker's own key (but the
    /// victim's key id).
    pub(crate) forge: f64,
    /// Re-inject a frame the receiver has already accepted.
    pub(crate) replay: f64,
    /// Splice the prefix of an old accepted frame onto the suffix of
    /// the current one (reorder-splice).
    pub(crate) splice: f64,
    /// Truncate the current frame and extend it back to full length
    /// with garbage.
    pub(crate) truncate_extend: f64,
    /// Deliver the current frame re-labelled with a foreign key id.
    pub(crate) key_mismatch: f64,
}

impl AttackConfig {
    /// No attacks — the passive-adversary baseline.
    #[must_use]
    pub fn none() -> Self {
        Self {
            forge: 0.0,
            replay: 0.0,
            splice: 0.0,
            truncate_extend: 0.0,
            key_mismatch: 0.0,
        }
    }

    /// A composite mix: `rate` split evenly across all five attacks.
    #[must_use]
    pub fn composite(rate: f64) -> Self {
        let each = rate / 5.0;
        Self {
            forge: each,
            replay: each,
            splice: each,
            truncate_extend: each,
            key_mismatch: each,
        }
    }

    /// Sum of all per-packet attack rates.
    #[must_use]
    pub(crate) fn total_rate(&self) -> f64 {
        self.forge + self.replay + self.splice + self.truncate_extend + self.key_mismatch
    }

    /// Validates every rate lies in `[0, 1]` and the total does not
    /// exceed 1.
    ///
    /// # Errors
    ///
    /// Returns [`RfError::InvalidParameter`] on violation.
    pub(crate) fn validate(&self) -> Result<()> {
        for (name, value) in [
            ("forge rate", self.forge),
            ("replay rate", self.replay),
            ("splice rate", self.splice),
            ("truncate-extend rate", self.truncate_extend),
            ("key mismatch rate", self.key_mismatch),
        ] {
            if !(0.0..=1.0).contains(&value) || value.is_nan() {
                return Err(RfError::InvalidParameter { name, value });
            }
        }
        let total = self.total_rate();
        if total > 1.0 {
            return Err(RfError::InvalidParameter {
                name: "total attack rate",
                value: total,
            });
        }
        Ok(())
    }
}

/// One attack decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AttackKind {
    /// Forge a frame under the attacker's key.
    Forge,
    /// Replay a previously accepted frame.
    Replay,
    /// Splice two authentic frames together.
    Splice,
    /// Truncate and re-extend the current frame.
    TruncateExtend,
    /// Flip the key-id byte of the current frame.
    KeyMismatch,
}

/// Counts of attack frames actually injected, by kind.
///
/// Counted at *apply* time — a drawn attack that cannot be realised
/// (for example a replay before any frame was delivered intact) is
/// vetoed and never counted, so these numbers equate exactly with the
/// receiver's rejection ledger.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AttackCounters {
    /// Frames forged under the attacker's key (rejected: MAC).
    pub forged: u64,
    /// Accepted frames replayed verbatim (rejected: replay window).
    pub replayed: u64,
    /// Spliced frame pairs (rejected: MAC).
    pub spliced: u64,
    /// Truncate-then-extend mutations (rejected: MAC).
    pub truncated_extended: u64,
    /// Key-id relabelings (rejected: key mismatch).
    pub key_mismatched: u64,
}

impl AttackCounters {
    /// Total attack frames injected.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.forged + self.replayed + self.spliced + self.truncated_extended + self.key_mismatched
    }

    /// Attack frames the receiver must reject on MAC grounds.
    #[must_use]
    pub fn mac_rejected_expected(&self) -> u64 {
        self.forged + self.spliced + self.truncated_extended
    }
}

/// A deterministic, seeded attack schedule.
///
/// Mirrors [`FaultPlan`]: every decision consumes a fixed draw pattern
/// (one uniform + two raw words), so the attack sequence is a pure
/// function of `(config, seed)` regardless of which attacks are vetoed
/// downstream.
#[derive(Debug, Clone)]
pub(crate) struct AttackPlan {
    config: AttackConfig,
    rng: StdRng,
}

impl AttackPlan {
    /// Creates a plan from a validated config and a seed.
    ///
    /// # Errors
    ///
    /// Propagates [`AttackConfig::validate`] errors.
    pub(crate) fn new(config: AttackConfig, seed: u64) -> Result<Self> {
        config.validate()?;
        Ok(Self {
            config,
            rng: StdRng::seed_from_u64(seed),
        })
    }

    /// Decides the attack (if any) to launch alongside the next packet,
    /// together with two raw words of attack-specific entropy.
    pub(crate) fn next_attack(&mut self) -> Option<(AttackKind, u64, u64)> {
        let u: f64 = self.rng.random();
        let r1: u64 = self.rng.random();
        let r2: u64 = self.rng.random();
        let c = self.config;
        let mut edge = c.forge;
        if u < edge {
            return Some((AttackKind::Forge, r1, r2));
        }
        edge += c.replay;
        if u < edge {
            return Some((AttackKind::Replay, r1, r2));
        }
        edge += c.splice;
        if u < edge {
            return Some((AttackKind::Splice, r1, r2));
        }
        edge += c.truncate_extend;
        if u < edge {
            return Some((AttackKind::TruncateExtend, r1, r2));
        }
        edge += c.key_mismatch;
        if u < edge {
            return Some((AttackKind::KeyMismatch, r1, r2));
        }
        None
    }
}

/// How many recently accepted frames the adversary keeps for replay and
/// splice material. Small enough that every remembered frame is well
/// inside any sane replay window when re-injected.
const ADVERSARY_HISTORY: usize = 32;

/// An active adversary over a *sealed* (authenticated) packet stream.
///
/// The adversary watches the channel like a man-in-the-middle: every
/// frame delivered intact is remembered (up to `ADVERSARY_HISTORY`
/// frames), and per pushed packet it may inject one crafted frame. Each
/// attack is built so its rejection class is knowable in advance, which
/// is what lets the soak equate [`AttackCounters`] with the receiver's
/// [`crate::auth::AuthStats`] field-by-field:
///
/// * **forge** → MAC mismatch (attacker key ≠ link key);
/// * **replay** → replay window (the original was delivered intact
///   first, so it was accepted);
/// * **splice** → MAC mismatch (prefix nonce disagrees with suffix
///   tag);
/// * **truncate-extend** → MAC mismatch (tag bytes mangled, header
///   intact);
/// * **key mismatch** → key-id rejection before any MAC work.
#[derive(Debug, Clone)]
pub struct Adversary {
    plan: AttackPlan,
    forger: AuthKey,
    history: Vec<Vec<u8>>,
    counters: AttackCounters,
}

impl Adversary {
    /// An adversary attacking a link whose frames advertise
    /// `victim_key_id`. The attacker's own key material is derived from
    /// `seed` and is distinct from any [`AuthKey::from_seed`] victim key
    /// with overwhelming probability.
    ///
    /// # Errors
    ///
    /// Propagates `AttackConfig::validate` errors.
    pub fn new(config: AttackConfig, seed: u64, victim_key_id: u8) -> Result<Self> {
        Ok(Self {
            plan: AttackPlan::new(config, seed)?,
            forger: AuthKey::from_seed(seed ^ 0xADBE_EF00_0000_0000, victim_key_id),
            history: Vec::new(),
            counters: AttackCounters::default(),
        })
    }

    /// Counts of attacks launched so far.
    #[must_use]
    pub(crate) fn counters(&self) -> AttackCounters {
        self.counters
    }

    /// Records a frame that was delivered intact (and will therefore be
    /// accepted by the receiver) as replay/splice material. Non-sealed
    /// frames are ignored — the adversary only attacks the
    /// authenticated format.
    pub(crate) fn remember(&mut self, wire: &[u8]) {
        if wire.len() < MIN_SEALED_BYTES || wire[0..2] != AUTH_MAGIC.to_be_bytes() {
            return;
        }
        if self.history.len() == ADVERSARY_HISTORY {
            self.history.remove(0);
        }
        self.history.push(wire.to_vec());
    }

    /// Possibly injects one attack frame alongside the (pristine) wire
    /// image `wire`, appending it to `out` after the legitimate
    /// deliveries. Vetoed attacks (no history yet, degenerate sizes)
    /// draw from the plan but count nothing.
    pub(crate) fn raid(&mut self, wire: &[u8], out: &mut Vec<Vec<u8>>) {
        let Some((kind, r1, r2)) = self.plan.next_attack() else {
            return;
        };
        if wire.len() < MIN_SEALED_BYTES || wire[0..2] != AUTH_MAGIC.to_be_bytes() {
            return;
        }
        let crafted = match kind {
            AttackKind::Forge => self.forge(wire, r1),
            AttackKind::Replay => self.replay(r1),
            AttackKind::Splice => self.splice(wire, r1, r2),
            AttackKind::TruncateExtend => Self::truncate_extend(wire, r1),
            AttackKind::KeyMismatch => Self::key_mismatch(wire),
        };
        if let Some(frame) = crafted {
            match kind {
                AttackKind::Forge => self.counters.forged += 1,
                AttackKind::Replay => self.counters.replayed += 1,
                AttackKind::Splice => self.counters.spliced += 1,
                AttackKind::TruncateExtend => self.counters.truncated_extended += 1,
                AttackKind::KeyMismatch => self.counters.key_mismatched += 1,
            }
            out.push(frame);
        }
    }

    /// A frame sealed under the attacker's key, mimicking the current
    /// frame's sequence number (so the receiver reaches the MAC check
    /// rather than tripping a stale-nonce rejection).
    fn forge(&mut self, wire: &[u8], raw: u64) -> Option<Vec<u8>> {
        let seq = u16::from_be_bytes([wire[6], wire[7]]);
        let samples: Vec<u16> = (0..8_u32)
            .map(|i| ((raw >> (i * 8)) as u16) & 0x3FF)
            .collect();
        let inner = packetize(seq, &samples, 10).ok()?;
        let mut tx = AuthSender::new(&AuthConfig::new(self.forger));
        let mut sealed = Vec::new();
        tx.seal_into(&inner, &mut sealed).ok()?;
        Some(sealed)
    }

    /// A verbatim copy of a frame the receiver already accepted.
    fn replay(&mut self, raw: u64) -> Option<Vec<u8>> {
        if self.history.is_empty() {
            return None;
        }
        Some(self.history[(raw as usize) % self.history.len()].clone())
    }

    /// Prefix of an old accepted frame, suffix of the current one. The
    /// cut keeps the old frame's sequence bytes in the prefix and the
    /// current frame's MAC in the suffix, so the tag can never verify
    /// under the spliced nonce.
    fn splice(&mut self, wire: &[u8], r1: u64, r2: u64) -> Option<Vec<u8>> {
        if self.history.is_empty() || wire.len() < 18 {
            return None;
        }
        let old = &self.history[(r1 as usize) % self.history.len()];
        if old.len() != wire.len() || old.as_slice() == wire {
            return None;
        }
        let cut = 9 + (r2 as usize) % (wire.len() - 17);
        let mut spliced = old[..cut].to_vec();
        spliced.extend_from_slice(&wire[cut..]);
        if spliced.as_slice() == wire || spliced == *old {
            return None;
        }
        Some(spliced)
    }

    /// The current frame truncated by 1–8 bytes and re-extended to full
    /// length with inverted garbage (guaranteed different, same size).
    fn truncate_extend(wire: &[u8], raw: u64) -> Option<Vec<u8>> {
        let tail = 1 + (raw as usize) % AUTH_TAG_BYTES;
        let len = wire.len();
        let mut out = wire[..len - tail].to_vec();
        out.extend(wire[len - tail..].iter().map(|b| b ^ 0xA5));
        Some(out)
    }

    /// The current frame re-labelled with a foreign key id.
    fn key_mismatch(wire: &[u8]) -> Option<Vec<u8>> {
        let mut out = wire.to_vec();
        out[3] ^= 0x55;
        Some(out)
    }
}

/// Applies a [`FaultPlan`]'s wire faults to a packet stream.
///
/// Push each outgoing packet; the injector appends what the channel
/// actually delivers (zero, one, or more packets) to the caller's
/// delivery list. A reordered packet is held back and delivered right
/// after its successor; `WireFaultInjector::flush` releases a held
/// packet at end of stream.
///
/// With [`WireFaultInjector::with_adversary`], an active [`Adversary`]
/// rides on the same channel: it observes every intact delivery and may
/// append one crafted attack frame per pushed packet, after the
/// legitimate deliveries.
#[derive(Debug, Clone)]
pub struct WireFaultInjector {
    plan: FaultPlan,
    held: Option<Vec<u8>>,
    adversary: Option<Adversary>,
}

impl WireFaultInjector {
    /// Wraps a plan.
    #[must_use]
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            plan,
            held: None,
            adversary: None,
        }
    }

    /// Wraps a plan and an active adversary.
    #[must_use]
    pub fn with_adversary(plan: FaultPlan, adversary: Adversary) -> Self {
        Self {
            plan,
            held: None,
            adversary: Some(adversary),
        }
    }

    /// Counts of faults injected so far.
    #[must_use]
    pub(crate) fn counters(&self) -> FaultCounters {
        self.plan.counters()
    }

    /// Counts of adversary attacks launched so far, if an adversary is
    /// attached.
    #[must_use]
    pub(crate) fn attack_counters(&self) -> Option<AttackCounters> {
        self.adversary.as_ref().map(Adversary::counters)
    }

    /// Transmits one packet through the faulty channel, appending the
    /// delivered packet images to `out`.
    pub(crate) fn push(&mut self, wire: &[u8], out: &mut Vec<Vec<u8>>) {
        let fault = self.plan.next_wire_fault(wire.len(), self.held.is_none());
        let mut delivered = false;
        let mut intact = false;
        match fault {
            None => {
                out.push(wire.to_vec());
                delivered = true;
                intact = true;
            }
            Some(WireFault::BitFlip { bit }) => {
                let mut bad = wire.to_vec();
                bad[bit / 8] ^= 1 << (bit % 8);
                out.push(bad);
                delivered = true;
            }
            Some(WireFault::Truncate { keep }) => {
                out.push(wire[..keep].to_vec());
                delivered = true;
            }
            Some(WireFault::Drop) => {}
            Some(WireFault::Duplicate) => {
                out.push(wire.to_vec());
                out.push(wire.to_vec());
                delivered = true;
                intact = true;
            }
            Some(WireFault::Reorder) => {
                self.held = Some(wire.to_vec());
            }
        }
        // A held (reordered) packet rides out right after the next
        // delivery, i.e. exactly one packet late.
        if delivered {
            if let Some(held) = self.held.take() {
                if let Some(adv) = &mut self.adversary {
                    adv.remember(&held);
                }
                out.push(held);
            }
        }
        if let Some(adv) = &mut self.adversary {
            if intact {
                adv.remember(wire);
            }
            // The raid runs after the legitimate deliveries, so a
            // replay of this very frame arrives after the original was
            // accepted.
            adv.raid(wire, out);
        }
    }

    /// Delivers a held reordered packet at end of stream.
    pub(crate) fn flush(&mut self, out: &mut Vec<Vec<u8>>) {
        if let Some(held) = self.held.take() {
            out.push(held);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{depacketize, packetize};

    #[test]
    fn config_validation_rejects_bad_rates() {
        assert!(FaultConfig::none().validate().is_ok());
        assert!(FaultConfig::wire_composite(0.02).validate().is_ok());
        assert!(FaultConfig::frame_composite(1.0).validate().is_ok());
        let mut bad = FaultConfig::none();
        bad.drop = -0.1;
        assert!(bad.validate().is_err());
        bad.drop = f64::NAN;
        assert!(bad.validate().is_err());
        let mut over = FaultConfig::none();
        over.drop = 0.7;
        over.duplicate = 0.7;
        assert!(over.validate().is_err());
        assert!(FaultPlan::new(over, 1).is_err());
    }

    #[test]
    fn plans_are_deterministic() {
        let config = FaultConfig::wire_composite(0.5);
        let mut a = FaultPlan::new(config, 42).unwrap();
        let mut b = FaultPlan::new(config, 42).unwrap();
        for _ in 0..500 {
            assert_eq!(a.next_wire_fault(64, true), b.next_wire_fault(64, true));
        }
        assert_eq!(a.counters(), b.counters());
        assert!(a.counters().total() > 0, "50% composite must fire");
    }

    #[test]
    fn zero_rate_plan_never_faults() {
        let mut plan = FaultPlan::new(FaultConfig::none(), 7).unwrap();
        for _ in 0..1000 {
            assert_eq!(plan.next_wire_fault(32, true), None);
            assert_eq!(plan.next_frame_fault(128, true), None);
        }
        assert_eq!(plan.counters().total(), 0);
    }

    #[test]
    fn injected_counts_track_decisions() {
        let mut plan = FaultPlan::new(FaultConfig::wire_composite(0.9), 3).unwrap();
        let mut seen = 0;
        for _ in 0..2000 {
            if plan.next_wire_fault(100, true).is_some() {
                seen += 1;
            }
        }
        assert_eq!(plan.counters().total(), seen);
        // An even split should spread across every wire kind.
        let c = plan.counters();
        for (name, n) in [
            ("bit_flips", c.bit_flips),
            ("truncations", c.truncations),
            ("drops", c.drops),
            ("duplicates", c.duplicates),
            ("reorders", c.reorders),
        ] {
            assert!(n > 0, "{name} never fired in 2000 draws at 18% each");
        }
    }

    #[test]
    fn frame_faults_cover_every_kind_and_stay_in_bounds() {
        let mut plan = FaultPlan::new(FaultConfig::frame_composite(0.9), 11).unwrap();
        let channels = 96;
        for _ in 0..2000 {
            match plan.next_frame_fault(channels, true) {
                Some(
                    FrameFault::DeadChannels { start, len }
                    | FrameFault::SaturatedChannels { start, len }
                    | FrameFault::NanBurst { start, len },
                ) => {
                    assert!(len >= 1);
                    assert!(start + len <= channels);
                }
                Some(FrameFault::Drop) | None => {}
            }
        }
        let c = plan.counters();
        assert!(c.drops > 0 && c.dead_channels > 0);
        assert!(c.saturated_channels > 0 && c.nan_bursts > 0);
    }

    #[test]
    fn nan_bursts_are_vetoed_for_integer_frames() {
        let mut config = FaultConfig::none();
        config.nan_burst = 1.0;
        let mut plan = FaultPlan::new(config, 5).unwrap();
        for _ in 0..50 {
            assert_eq!(plan.next_frame_fault(16, false), None);
        }
        assert_eq!(plan.counters().nan_bursts, 0);
    }

    #[test]
    fn clean_injector_is_the_identity() {
        let mut injector = WireFaultInjector::new(FaultPlan::new(FaultConfig::none(), 9).unwrap());
        let mut out = Vec::new();
        for seq in 0..20_u16 {
            let wire = packetize(seq, &[seq, seq + 1], 12).unwrap();
            out.clear();
            injector.push(&wire, &mut out);
            assert_eq!(out.len(), 1);
            assert_eq!(out[0], wire);
        }
        injector.flush(&mut out);
        assert_eq!(out.len(), 1, "nothing held by a clean channel");
    }

    #[test]
    fn faulted_stream_accounts_for_every_packet() {
        // Conservation law: delivered = sent - drops - corrupt_truncated?
        // Every sent packet is delivered 0 (drop), 1, or 2 (duplicate)
        // times; reorders preserve count.
        let plan = FaultPlan::new(FaultConfig::wire_composite(0.4), 77).unwrap();
        let mut injector = WireFaultInjector::new(plan);
        let mut delivered = Vec::new();
        const SENT: usize = 1000;
        for seq in 0..SENT {
            let wire = packetize(seq as u16, &[1, 2, 3], 8).unwrap();
            injector.push(&wire, &mut delivered);
        }
        injector.flush(&mut delivered);
        let c = injector.counters();
        assert_eq!(
            delivered.len() as u64,
            SENT as u64 - c.drops + c.duplicates,
            "channel conserves packets modulo drops and duplicates"
        );
        // Corrupted deliveries are exactly the flips + truncations.
        let bad = delivered.iter().filter(|w| depacketize(w).is_err()).count() as u64;
        assert_eq!(
            bad,
            c.corruptions(),
            "CRC detects every injected corruption"
        );
    }

    #[test]
    fn attack_config_validation_rejects_bad_rates() {
        assert!(AttackConfig::none().validate().is_ok());
        assert!(AttackConfig::composite(0.5).validate().is_ok());
        let mut bad = AttackConfig::none();
        bad.replay = 1.5;
        assert!(bad.validate().is_err());
        bad.replay = f64::NAN;
        assert!(bad.validate().is_err());
        let mut over = AttackConfig::none();
        over.forge = 0.6;
        over.splice = 0.6;
        assert!(over.validate().is_err());
        assert!(AttackPlan::new(over, 1).is_err());
        assert!(Adversary::new(over, 1, 0).is_err());
    }

    #[test]
    fn attack_plans_are_deterministic() {
        let config = AttackConfig::composite(0.8);
        let mut a = AttackPlan::new(config, 99).unwrap();
        let mut b = AttackPlan::new(config, 99).unwrap();
        let mut fired = 0;
        for _ in 0..500 {
            let x = a.next_attack();
            assert_eq!(x, b.next_attack());
            fired += u32::from(x.is_some());
        }
        assert!(fired > 0, "80% composite must fire");
    }

    #[test]
    fn every_attack_kind_is_rejected_and_ledgered() {
        use crate::auth::{AuthConfig, AuthKey, AuthReceiver, AuthSender};
        // Drive a sealed stream through an adversary-only channel (no
        // channel faults) and check the receiver's ledger equates with
        // the attack counters field-by-field.
        let key = AuthKey::from_seed(0xD00D, 3);
        let auth = AuthConfig::new(key);
        let mut tx = AuthSender::new(&auth);
        let mut rx = AuthReceiver::new(&auth).unwrap();
        let adversary = Adversary::new(AttackConfig::composite(0.9), 0xA77AC4, 3).unwrap();
        let mut injector = WireFaultInjector::with_adversary(
            FaultPlan::new(FaultConfig::none(), 1).unwrap(),
            adversary,
        );
        let mut sealed = Vec::new();
        let mut delivered = Vec::new();
        const SENT: u64 = 2000;
        for seq in 0..SENT {
            let samples: Vec<u16> = (0..16).map(|c| (c + seq as u16) % 1024).collect();
            let inner = packetize(seq as u16, &samples, 10).unwrap();
            tx.seal_into(&inner, &mut sealed).unwrap();
            injector.push(&sealed, &mut delivered);
            for frame in delivered.drain(..) {
                let _ = rx.open(&frame);
            }
        }
        let attacks = injector.attack_counters().unwrap();
        let stats = rx.stats();
        // Every attack kind fired in 2000 rounds at 18% each.
        assert!(attacks.forged > 0, "no forgeries launched");
        assert!(attacks.replayed > 0, "no replays launched");
        assert!(attacks.spliced > 0, "no splices launched");
        assert!(attacks.truncated_extended > 0, "no truncate-extends");
        assert!(attacks.key_mismatched > 0, "no key mismatches");
        // Field-exact ledger: every legitimate frame accepted, every
        // attack rejected in its predicted class.
        assert_eq!(stats.accepted, SENT);
        assert_eq!(stats.rejected_mac, attacks.mac_rejected_expected());
        assert_eq!(stats.rejected_key, attacks.key_mismatched);
        assert_eq!(stats.replayed, attacks.replayed);
        assert_eq!(stats.rejected_malformed, 0);
        assert_eq!(stats.stale, 0);
        assert_eq!(stats.rejected_total(), attacks.total());
    }

    #[test]
    fn adversary_ignores_unsealed_streams() {
        let mut config = AttackConfig::none();
        config.replay = 1.0;
        let adversary = Adversary::new(config, 8, 0).unwrap();
        let mut injector = WireFaultInjector::with_adversary(
            FaultPlan::new(FaultConfig::none(), 1).unwrap(),
            adversary,
        );
        let mut out = Vec::new();
        for seq in 0..20_u16 {
            let wire = packetize(seq, &[1, 2], 8).unwrap();
            injector.push(&wire, &mut out);
        }
        assert_eq!(out.len(), 20, "no attack frames on a plain stream");
        assert_eq!(injector.attack_counters().unwrap().total(), 0);
    }

    #[test]
    fn reorder_swaps_adjacent_packets() {
        let mut config = FaultConfig::none();
        config.reorder = 1.0;
        let mut injector = WireFaultInjector::new(FaultPlan::new(config, 2).unwrap());
        let mut out = Vec::new();
        let a = packetize(0, &[1], 8).unwrap();
        let b = packetize(1, &[2], 8).unwrap();
        injector.push(&a, &mut out);
        assert!(out.is_empty(), "first packet is held");
        // While one packet is held further reorders are vetoed, so the
        // second packet is delivered, then the held one.
        injector.push(&b, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(depacketize(&out[0]).unwrap().sequence, 1);
        assert_eq!(depacketize(&out[1]).unwrap().sequence, 0);
        assert_eq!(injector.counters().reorders, 1);
    }
}
