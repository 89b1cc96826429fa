//! Selective-repeat ARQ over the neural-data packet stream.
//!
//! The packet format (`crates/rf/src/packet.rs`) was deliberately
//! minimal: the implant has no memory for retransmission buffers, so
//! error recovery has to live on the *wearable* side of the link. This
//! module implements that receiver: a bounded reorder buffer with a
//! fixed playout delay, sequence-gap detection over the wrapping `u16`
//! sequence space, and NAK-driven selective-repeat retransmission with
//! timeout and exponential backoff. An ARQ-off degraded mode keeps the
//! same playout discipline but never requests retransmission — every
//! gap becomes an explicit loss marker for the downstream concealment
//! stage.
//!
//! ## Playout discipline
//!
//! The receiver is a jitter buffer with a fixed delay of `window`
//! steps: after the first packet is seen (or the receiver is primed by
//! the transmitter), `window` polls build up the buffer, and from then
//! on every poll plays out exactly one sequence number — either its
//! delivered samples or an explicit *lost* marker when the playout
//! deadline passes with the slot still empty. One packet in, one frame
//! out, bounded memory: the discipline a real-time decoder chain
//! needs.
//!
//! ## Accounting
//!
//! Every counter in [`ArqStats`] is exact by construction, so a soak
//! test can equate them with an injected [`crate::fault::FaultPlan`]:
//! every detected gap is eventually either `recovered` or `lost`,
//! every transmitted sequence number is played out exactly once
//! (`delivered + lost` equals the number of frames sent once the link
//! is drained), and corrupt packets are counted separately from
//! sequence gaps.

use std::collections::VecDeque;

use crate::auth::{AuthConfig, AuthReceiver, AuthSender, AuthStats};
use crate::error::{Result, RfError};
use crate::fault::{AttackCounters, FaultCounters, WireFaultInjector};
use crate::packet::{depacketize_into, HEADER_BYTES};

/// Largest supported reorder window (slots are index-mapped by
/// `seq & (len - 1)`, so the backing ring stays a power of two that
/// divides the `u16` sequence space).
pub(crate) const MAX_ARQ_WINDOW: usize = 4096;

/// Receiver configuration: window size, NAK timing, and whether
/// retransmission is enabled at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArqConfig {
    /// Reorder window / fixed playout delay, in steps (frames).
    pub(crate) window: usize,
    /// Steps a gap must stay open before the first NAK is sent —
    /// lets adjacent reorders self-heal without a retransmission.
    pub(crate) nak_delay: u64,
    /// Steps between a NAK and its first repeat.
    pub(crate) nak_timeout: u64,
    /// Multiplier applied to the timeout after each repeat.
    pub(crate) nak_backoff: u64,
    /// `false` selects the ARQ-off degraded mode: gaps are detected
    /// and counted but never NAK'd, so every one becomes a loss.
    pub(crate) enabled: bool,
}

impl ArqConfig {
    /// Selective-repeat ARQ with default NAK timing.
    #[must_use]
    pub fn selective_repeat(window: usize) -> Self {
        Self {
            window,
            nak_delay: 2,
            nak_timeout: 8,
            nak_backoff: 2,
            enabled: true,
        }
    }

    /// The ARQ-off degraded mode: same playout discipline, no
    /// retransmission.
    #[must_use]
    pub fn degraded(window: usize) -> Self {
        Self {
            enabled: false,
            ..Self::selective_repeat(window)
        }
    }

    /// Validates the window and NAK timing.
    ///
    /// # Errors
    ///
    /// Returns [`RfError::InvalidParameter`] when the window is 0 or
    /// above [`MAX_ARQ_WINDOW`], or any timing parameter is 0.
    pub(crate) fn validate(&self) -> Result<()> {
        if self.window == 0 || self.window > MAX_ARQ_WINDOW {
            return Err(RfError::InvalidParameter {
                name: "arq window",
                value: self.window as f64,
            });
        }
        for (name, value) in [
            ("nak delay", self.nak_delay),
            ("nak timeout", self.nak_timeout),
            ("nak backoff", self.nak_backoff),
        ] {
            if value == 0 {
                return Err(RfError::InvalidParameter { name, value: 0.0 });
            }
        }
        Ok(())
    }
}

/// Exact receiver-side counters (see module docs for the invariants).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ArqStats {
    /// Valid packets accepted by the receiver (including duplicates).
    pub received: u64,
    /// Wire images rejected by `depacketize` (CRC, truncation, magic).
    pub corrupted: u64,
    /// Valid packets for an already-buffered or already-played
    /// sequence number.
    pub duplicates: u64,
    /// Valid packets too far outside the window to classify.
    pub out_of_window: u64,
    /// Missing sequence numbers detected (each missing seq counts 1).
    pub gaps_detected: u64,
    /// Gaps later filled by a retransmission or late arrival.
    pub recovered: u64,
    /// Gaps that reached their playout deadline unfilled.
    pub lost: u64,
    /// Frames played out with data.
    pub delivered: u64,
    /// NAKs sent (0 in degraded mode).
    pub naks_sent: u64,
    /// Longest single burst of missing sequence numbers.
    pub max_gap: u64,
    /// Total steps from gap detection to recovery (divide by
    /// `recovered` for the mean recovery latency).
    pub recovery_steps: u64,
}

/// One playout event: which sequence number, and whether its data
/// arrived in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Playout {
    /// The sequence number played out.
    pub sequence: u16,
    /// `true` when the samples buffer holds the frame's data; `false`
    /// marks an explicit loss for downstream concealment.
    pub delivered: bool,
}

/// An open gap: one missing sequence number awaiting recovery.
#[derive(Debug, Clone, Copy)]
struct GapRecord {
    seq: u16,
    detected_at: u64,
    nak_at: u64,
    retries: u32,
}

#[derive(Debug, Clone, Default)]
struct RxSlot {
    occupied: bool,
    seq: u16,
    samples: Vec<u16>,
}

/// The receiver: reorder buffer, gap tracker, and playout clock.
///
/// Feed wire images with [`ArqReceiver::push_wire`] (any number per
/// step, in any order), collect NAKs with [`ArqReceiver::poll_naks`],
/// and advance the playout clock exactly once per step with
/// [`ArqReceiver::poll_into`]. The receiver never panics on arbitrary
/// input bytes and never plays a sequence number twice or out of
/// order (property-tested in `tests/arq_properties.rs`).
#[derive(Debug, Clone)]
pub struct ArqReceiver {
    config: ArqConfig,
    started: bool,
    closed: bool,
    warmup_left: usize,
    /// Next sequence number to play out.
    base: u16,
    /// Highest in-window sequence number seen (the frontier); kept at
    /// least `base - 1` so replayed numbers are never re-flagged.
    highest: u16,
    step: u64,
    slots: Vec<RxSlot>,
    gaps: Vec<GapRecord>,
    stats: ArqStats,
    scratch: Vec<u16>,
}

impl ArqReceiver {
    /// Creates a receiver; the reorder ring is sized to the next power
    /// of two above `window + 1` so `seq & (len - 1)` indexing stays
    /// consistent across the `u16` wrap.
    ///
    /// # Errors
    ///
    /// Propagates `ArqConfig::validate` errors.
    pub fn new(config: ArqConfig) -> Result<Self> {
        config.validate()?;
        let len = (config.window + 1).next_power_of_two();
        Ok(Self {
            config,
            started: false,
            closed: false,
            warmup_left: 0,
            base: 0,
            highest: 0,
            step: 0,
            slots: vec![RxSlot::default(); len],
            gaps: Vec::new(),
            stats: ArqStats::default(),
            scratch: Vec::new(),
        })
    }

    /// Counter snapshot.
    #[must_use]
    pub fn stats(&self) -> ArqStats {
        self.stats
    }

    /// Sequence numbers currently between the playout point and the
    /// frontier (0 once fully drained).
    #[must_use]
    pub fn buffered(&self) -> usize {
        if !self.started {
            return 0;
        }
        usize::from(self.highest.wrapping_sub(self.base).wrapping_add(1))
    }

    /// Whether `seq` is in the window and still missing — the test an
    /// honest link applies before delivering a retransmission.
    #[must_use]
    pub(crate) fn is_missing(&self, seq: u16) -> bool {
        if !self.started {
            return false;
        }
        if usize::from(seq.wrapping_sub(self.base)) > self.config.window {
            return false;
        }
        let slot = &self.slots[self.slot_index(seq)];
        !(slot.occupied && slot.seq == seq)
    }

    /// Establishes the stream's first sequence number before any
    /// packet arrives — the transmitter side of a link calls this so
    /// that losses at the very head of the stream are detected as
    /// gaps rather than silently skipped. No-op once started.
    pub fn prime(&mut self, seq: u16) {
        if self.started {
            return;
        }
        self.started = true;
        self.base = seq;
        self.highest = seq.wrapping_sub(1);
        self.warmup_left = self.config.window;
    }

    /// Declares end of stream at `last_seq` (the final transmitted
    /// sequence number): any numbers beyond the frontier become
    /// detected gaps so the drain phase plays out — and accounts for —
    /// every transmitted frame. No-op if already closed or never
    /// started.
    pub fn close(&mut self, last_seq: u16) {
        if !self.started || self.closed {
            return;
        }
        self.closed = true;
        let missing = last_seq.wrapping_sub(self.highest);
        if usize::from(missing) <= self.config.window + 1 {
            self.flag_gaps(missing);
            self.highest = last_seq;
        }
    }

    fn slot_index(&self, seq: u16) -> usize {
        usize::from(seq) & (self.slots.len() - 1)
    }

    /// Records `missing` new gaps starting right after the frontier.
    fn flag_gaps(&mut self, missing: u16) {
        let mut seq = self.highest.wrapping_add(1);
        for _ in 0..missing {
            self.gaps.push(GapRecord {
                seq,
                detected_at: self.step,
                nak_at: self.step.saturating_add(self.config.nak_delay),
                retries: 0,
            });
            seq = seq.wrapping_add(1);
        }
        self.stats.gaps_detected += u64::from(missing);
        self.stats.max_gap = self.stats.max_gap.max(u64::from(missing));
    }

    /// Feeds one wire image (fresh, duplicated, reordered, corrupted —
    /// anything the channel produced). Corrupt images only bump the
    /// `corrupted` counter; the missing sequence number they imply is
    /// detected as a gap when a later packet arrives.
    pub fn push_wire(&mut self, wire: &[u8]) {
        let mut scratch = core::mem::take(&mut self.scratch);
        match depacketize_into(wire, &mut scratch) {
            Err(_) => self.stats.corrupted += 1,
            Ok(header) => self.accept(header.sequence, &scratch),
        }
        self.scratch = scratch;
    }

    fn accept(&mut self, seq: u16, samples: &[u16]) {
        self.stats.received += 1;
        if !self.started {
            self.prime(seq);
        }
        if usize::from(seq.wrapping_sub(self.base)) > self.config.window {
            // Not in the window: either a late copy of a number already
            // played out, or garbage from far outside the stream.
            if usize::from(self.base.wrapping_sub(seq)) <= 2 * (self.config.window + 1) {
                self.stats.duplicates += 1;
            } else {
                self.stats.out_of_window += 1;
            }
            return;
        }
        // Frontier bookkeeping: numbers skipped over become open gaps.
        let ahead_of_frontier = seq.wrapping_sub(self.highest.wrapping_add(1));
        if usize::from(ahead_of_frontier) <= self.config.window {
            self.flag_gaps(ahead_of_frontier);
            self.highest = seq;
        }
        let idx = self.slot_index(seq);
        if self.slots[idx].occupied {
            // In-window numbers map to distinct slots, so an occupied
            // slot is always the same sequence number again.
            self.stats.duplicates += 1;
            return;
        }
        let slot = &mut self.slots[idx];
        slot.occupied = true;
        slot.seq = seq;
        slot.samples.clear();
        slot.samples.extend_from_slice(samples);
        if let Some(pos) = self.gaps.iter().position(|g| g.seq == seq) {
            let gap = self.gaps.swap_remove(pos);
            self.stats.recovered += 1;
            self.stats.recovery_steps += self.step - gap.detected_at;
        }
    }

    /// Appends the sequence numbers to NAK this step (cleared first).
    /// Empty in degraded mode. Each open gap is NAK'd after
    /// `nak_delay`, then re-NAK'd every `nak_timeout · backoff^k`.
    pub fn poll_naks(&mut self, out: &mut Vec<u16>) {
        out.clear();
        if !self.config.enabled {
            return;
        }
        for gap in &mut self.gaps {
            if self.step >= gap.nak_at {
                out.push(gap.seq);
                self.stats.naks_sent += 1;
                let backoff = self.config.nak_backoff.saturating_pow(gap.retries.min(8));
                gap.nak_at = self
                    .step
                    .saturating_add(self.config.nak_timeout.saturating_mul(backoff));
                gap.retries += 1;
            }
        }
    }

    /// Advances the playout clock one step. Returns `None` while
    /// warming up (or before any packet), otherwise plays out exactly
    /// one sequence number: on `delivered`, `samples` holds its data;
    /// on a loss the buffer is cleared and the frame is explicitly
    /// marked lost.
    pub fn poll_into(&mut self, samples: &mut Vec<u16>) -> Option<Playout> {
        self.step += 1;
        if !self.started {
            return None;
        }
        if self.warmup_left > 0 {
            self.warmup_left -= 1;
            return None;
        }
        let seq = self.base;
        let idx = self.slot_index(seq);
        let playout = if self.slots[idx].occupied && self.slots[idx].seq == seq {
            let slot = &mut self.slots[idx];
            slot.occupied = false;
            samples.clear();
            samples.extend_from_slice(&slot.samples);
            self.stats.delivered += 1;
            Playout {
                sequence: seq,
                delivered: true,
            }
        } else {
            // Deadline reached with the slot empty: the frame is lost.
            if let Some(pos) = self.gaps.iter().position(|g| g.seq == seq) {
                self.gaps.swap_remove(pos);
            } else {
                // Never flagged — the playout point caught up with the
                // frontier before any later packet arrived. Detected
                // here, at the deadline itself.
                self.stats.gaps_detected += 1;
                self.stats.max_gap = self.stats.max_gap.max(1);
            }
            self.stats.lost += 1;
            samples.clear();
            Playout {
                sequence: seq,
                delivered: false,
            }
        };
        self.base = self.base.wrapping_add(1);
        // Keep the frontier at least base - 1 so a number played out as
        // lost is never re-flagged as a fresh gap by a later arrival.
        let floor = self.base.wrapping_sub(1);
        if usize::from(self.highest.wrapping_sub(floor)) > self.config.window {
            self.highest = floor;
        }
        Some(playout)
    }
}

/// Bounded transmit-side retransmission history.
///
/// A power-of-two ring of recent wire packets keyed by `seq & (len-1)`,
/// sized to hold at least twice the receiver window so any sequence
/// number the receiver can still NAK is guaranteed to be present.
#[derive(Debug, Clone)]
pub(crate) struct TxWindow {
    slots: Vec<TxSlot>,
}

#[derive(Debug, Clone, Default)]
struct TxSlot {
    occupied: bool,
    seq: u16,
    wire: Vec<u8>,
}

impl TxWindow {
    /// History sized for a receiver using `window`.
    #[must_use]
    pub(crate) fn new(window: usize) -> Self {
        let len = (2 * (window + 1)).next_power_of_two();
        Self {
            slots: vec![TxSlot::default(); len],
        }
    }

    /// Records the wire image of `seq`, evicting the slot's previous
    /// occupant.
    pub(crate) fn insert(&mut self, seq: u16, wire: &[u8]) {
        let idx = usize::from(seq) & (self.slots.len() - 1);
        let slot = &mut self.slots[idx];
        slot.occupied = true;
        slot.seq = seq;
        slot.wire.clear();
        slot.wire.extend_from_slice(wire);
    }

    /// The stored wire image of `seq`, if still in the history.
    #[must_use]
    pub(crate) fn get(&self, seq: u16) -> Option<&[u8]> {
        let slot = &self.slots[usize::from(seq) & (self.slots.len() - 1)];
        (slot.occupied && slot.seq == seq).then_some(slot.wire.as_slice())
    }
}

/// Authentication state for one link direction: the sealing sender,
/// the verifying receiver, and a reusable seal buffer.
#[derive(Debug)]
struct LinkAuth {
    tx: AuthSender,
    rx: AuthReceiver,
    sealed: Vec<u8>,
}

/// A full link: transmitter history, optional fault injector, and the
/// ARQ receiver, advanced in lock-step one packet per step.
///
/// Retransmissions travel on a clean return channel — they bypass the
/// fault injector — so the receiver's recovery counters can be equated
/// with the injected plan exactly. (A lossy NAK channel would only
/// change *when* a gap recovers, and the soak test pins totals, not
/// timings.)
///
/// With [`ArqLink::with_auth`], every transmitted packet is sealed
/// (`mindful_rf::auth`) before it enters the channel, and every
/// delivered image must pass MAC + replay verification before it
/// reaches the ARQ receiver. The transmit history stores *sealed*
/// images, so retransmissions carry their original nonce — the replay
/// window admits them precisely because a NAK'd sequence number was
/// never accepted.
#[derive(Debug)]
pub struct ArqLink {
    tx: TxWindow,
    injector: Option<WireFaultInjector>,
    rx: ArqReceiver,
    auth: Option<LinkAuth>,
    /// Steps between a NAK and its retransmission arriving.
    rtt: u64,
    step: u64,
    last_seq: u16,
    sent: u64,
    in_flight: VecDeque<(u64, u16)>,
    deliveries: Vec<Vec<u8>>,
    naks: Vec<u16>,
    flushed: bool,
}

impl ArqLink {
    /// Builds a link. `injector` is the forward channel's fault model
    /// (`None` for a clean channel); `rtt` is the NAK round-trip in
    /// steps.
    ///
    /// # Errors
    ///
    /// Propagates config validation; rejects `rtt == 0`.
    pub fn new(config: ArqConfig, injector: Option<WireFaultInjector>, rtt: u64) -> Result<Self> {
        if rtt == 0 {
            return Err(RfError::InvalidParameter {
                name: "arq rtt",
                value: 0.0,
            });
        }
        Ok(Self {
            tx: TxWindow::new(config.window),
            injector,
            rx: ArqReceiver::new(config)?,
            auth: None,
            rtt,
            step: 0,
            last_seq: 0,
            sent: 0,
            in_flight: VecDeque::new(),
            deliveries: Vec::new(),
            naks: Vec::new(),
            flushed: false,
        })
    }

    /// Builds an *authenticated* link: every packet is sealed under
    /// `auth`'s key before the channel and verified (MAC + replay
    /// window) before the ARQ receiver.
    ///
    /// # Errors
    ///
    /// Propagates config validation from both the ARQ and auth configs;
    /// rejects `rtt == 0`.
    pub fn with_auth(
        config: ArqConfig,
        injector: Option<WireFaultInjector>,
        rtt: u64,
        auth: &AuthConfig,
    ) -> Result<Self> {
        let mut link = Self::new(config, injector, rtt)?;
        link.auth = Some(LinkAuth {
            tx: AuthSender::new(auth),
            rx: AuthReceiver::new(auth)?,
            sealed: Vec::new(),
        });
        Ok(link)
    }

    /// Receiver counters.
    #[must_use]
    pub fn stats(&self) -> ArqStats {
        self.rx.stats()
    }

    /// Forward-channel fault counters (`None` for a clean link).
    #[must_use]
    pub fn fault_counters(&self) -> Option<FaultCounters> {
        self.injector.as_ref().map(WireFaultInjector::counters)
    }

    /// Adversary attack counters (`None` without an adversary).
    #[must_use]
    pub fn attack_counters(&self) -> Option<AttackCounters> {
        self.injector
            .as_ref()
            .and_then(WireFaultInjector::attack_counters)
    }

    /// The authentication ledger (`None` on an unauthenticated link).
    /// The `sealed` field counts the transmit side; all other fields
    /// count the receive side.
    #[must_use]
    pub fn auth_stats(&self) -> Option<AuthStats> {
        self.auth.as_ref().map(|a| {
            let mut stats = a.rx.stats();
            stats.sealed = a.tx.sealed();
            stats
        })
    }

    /// Transmits one wire packet and advances the playout clock one
    /// step. Returns `None` during the receiver's warmup, otherwise
    /// the step's playout (see [`ArqReceiver::poll_into`]).
    ///
    /// # Errors
    ///
    /// Returns [`RfError::CorruptPacket`] when `wire` is too short to
    /// carry a header — the transmit side only accepts well-formed
    /// packets.
    pub fn step_into(&mut self, wire: &[u8], samples: &mut Vec<u16>) -> Result<Option<Playout>> {
        if wire.len() < HEADER_BYTES {
            return Err(RfError::CorruptPacket {
                reason: "truncated",
            });
        }
        let seq = u16::from_be_bytes([wire[2], wire[3]]);
        // Seal first (when authenticated): the channel, the transmit
        // history, and the receiver all see the sealed image.
        if let Some(a) = &mut self.auth {
            a.tx.seal_into(wire, &mut a.sealed)?;
        }
        self.rx.prime(seq);
        {
            let image = match &self.auth {
                None => wire,
                Some(a) => a.sealed.as_slice(),
            };
            self.tx.insert(seq, image);
        }
        self.last_seq = seq;
        self.sent += 1;
        self.pump_retransmissions();
        match (&mut self.injector, &mut self.auth) {
            (None, None) => self.rx.push_wire(wire),
            (None, Some(a)) => {
                if let Ok(inner) = a.rx.open(&a.sealed) {
                    self.rx.push_wire(inner);
                }
            }
            (Some(injector), auth) => {
                let mut deliveries = core::mem::take(&mut self.deliveries);
                deliveries.clear();
                let image = match auth {
                    None => wire,
                    Some(a) => a.sealed.as_slice(),
                };
                injector.push(image, &mut deliveries);
                for image in &deliveries {
                    Self::deliver(&mut self.rx, auth, image);
                }
                self.deliveries = deliveries;
            }
        }
        self.collect_naks();
        let playout = self.rx.poll_into(samples);
        self.step += 1;
        Ok(playout)
    }

    /// Drains the link after the last packet: call repeatedly until it
    /// returns `None`. The first call closes the stream (flushing any
    /// held reordered packet and flagging tail gaps); each subsequent
    /// step services pending NAKs/retransmissions and plays out one
    /// buffered frame.
    pub fn finish_into(&mut self, samples: &mut Vec<u16>) -> Option<Playout> {
        if !self.flushed {
            self.flushed = true;
            if self.sent > 0 {
                self.rx.close(self.last_seq);
            }
            if let Some(injector) = &mut self.injector {
                let mut deliveries = core::mem::take(&mut self.deliveries);
                deliveries.clear();
                injector.flush(&mut deliveries);
                for image in &deliveries {
                    Self::deliver(&mut self.rx, &mut self.auth, image);
                }
                self.deliveries = deliveries;
            }
        }
        if self.rx.buffered() == 0 {
            // Every transmitted frame has been played out. A still
            // scheduled retransmission can only target a sequence
            // already played (as lost), so it is abandoned rather than
            // letting the drain poll past the end of the stream.
            self.in_flight.clear();
            return None;
        }
        self.pump_retransmissions();
        self.collect_naks();
        let playout = self.rx.poll_into(samples);
        self.step += 1;
        playout
    }

    /// Verifies (when authenticated) and feeds one delivered image to
    /// the ARQ receiver. Frames failing MAC or replay checks are
    /// counted in the auth ledger and never reach the receiver.
    fn deliver(rx: &mut ArqReceiver, auth: &mut Option<LinkAuth>, image: &[u8]) {
        match auth {
            None => rx.push_wire(image),
            Some(a) => {
                if let Ok(inner) = a.rx.open(image) {
                    rx.push_wire(inner);
                }
            }
        }
    }

    /// Delivers due retransmissions on the clean return channel. A
    /// sequence number that was recovered some other way in the
    /// meantime is discarded rather than delivered as a duplicate.
    fn pump_retransmissions(&mut self) {
        while let Some(&(due, seq)) = self.in_flight.front() {
            if due > self.step {
                break;
            }
            self.in_flight.pop_front();
            if !self.rx.is_missing(seq) {
                continue;
            }
            if let Some(wire) = self.tx.get(seq) {
                Self::deliver(&mut self.rx, &mut self.auth, wire);
            }
        }
    }

    /// Turns this step's NAKs into scheduled retransmissions.
    fn collect_naks(&mut self) {
        let mut naks = core::mem::take(&mut self.naks);
        self.rx.poll_naks(&mut naks);
        for &seq in &naks {
            if self.tx.get(seq).is_some() {
                self.in_flight.push_back((self.step + self.rtt, seq));
            }
        }
        self.naks = naks;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultConfig, FaultPlan};
    use crate::packet::packetize;

    const BITS: u8 = 10;

    fn frame(seq: u16) -> (Vec<u16>, Vec<u8>) {
        let samples: Vec<u16> = (0..32_u16)
            .map(|c| c.wrapping_mul(13).wrapping_add(seq) % 1024)
            .collect();
        let wire = packetize(seq, &samples, BITS).unwrap();
        (samples, wire)
    }

    #[test]
    fn config_validation() {
        assert!(ArqConfig::selective_repeat(16).validate().is_ok());
        assert!(ArqConfig::degraded(1).validate().is_ok());
        assert!(ArqConfig::selective_repeat(0).validate().is_err());
        assert!(ArqConfig::selective_repeat(MAX_ARQ_WINDOW + 1)
            .validate()
            .is_err());
        let mut bad = ArqConfig::selective_repeat(8);
        bad.nak_timeout = 0;
        assert!(bad.validate().is_err());
        assert!(ArqReceiver::new(bad).is_err());
        assert!(ArqLink::new(ArqConfig::selective_repeat(8), None, 0).is_err());
    }

    #[test]
    fn clean_link_delivers_everything_in_order_after_the_window_delay() {
        let window = 8;
        let mut link = ArqLink::new(ArqConfig::selective_repeat(window), None, 2).unwrap();
        let mut out = Vec::new();
        let mut played = Vec::new();
        for seq in 0..100_u16 {
            let (_, wire) = frame(seq);
            if let Some(p) = link.step_into(&wire, &mut out).unwrap() {
                assert!(p.delivered);
                assert_eq!(out, frame(p.sequence).0, "playout of seq {}", p.sequence);
                played.push(p.sequence);
            }
        }
        assert_eq!(played.len(), 100 - window, "fixed playout delay");
        while let Some(p) = link.finish_into(&mut out) {
            assert!(p.delivered);
            played.push(p.sequence);
        }
        assert_eq!(played, (0..100).collect::<Vec<u16>>());
        let stats = link.stats();
        assert_eq!(stats.delivered, 100);
        assert_eq!(stats.lost + stats.gaps_detected + stats.naks_sent, 0);
    }

    #[test]
    fn receiver_recovers_a_gap_filled_before_the_deadline() {
        let mut rx = ArqReceiver::new(ArqConfig::selective_repeat(8)).unwrap();
        let mut out = Vec::new();
        let (_, missing_wire) = frame(3);
        for seq in 0..12_u16 {
            if seq != 3 {
                rx.push_wire(&frame(seq).1);
            }
            rx.poll_into(&mut out);
            if seq == 6 {
                // "Retransmission" arrives well before seq 3's deadline.
                assert!(rx.is_missing(3));
                rx.push_wire(&missing_wire);
                assert!(!rx.is_missing(3));
            }
        }
        let stats = rx.stats();
        assert_eq!(stats.gaps_detected, 1);
        assert_eq!(stats.recovered, 1);
        assert_eq!(stats.lost, 0);
        assert!(stats.recovery_steps > 0);
    }

    #[test]
    fn degraded_mode_marks_losses_and_sends_no_naks() {
        let window = 4;
        let mut rx = ArqReceiver::new(ArqConfig::degraded(window)).unwrap();
        let mut out = Vec::new();
        let mut naks = Vec::new();
        let mut played = Vec::new();
        for seq in 0..20_u16 {
            if seq % 5 != 3 {
                rx.push_wire(&frame(seq).1);
            }
            rx.poll_naks(&mut naks);
            assert!(naks.is_empty(), "degraded mode never NAKs");
            if let Some(p) = rx.poll_into(&mut out) {
                played.push(p);
                if !p.delivered {
                    assert!(out.is_empty(), "lost playout clears the buffer");
                }
            }
        }
        let losses = played.iter().filter(|p| !p.delivered).count();
        assert_eq!(losses, 3, "seqs 3, 8, 13 reach their deadline unfilled");
        let stats = rx.stats();
        assert_eq!(stats.lost, 3);
        assert_eq!(stats.recovered, 0);
        assert_eq!(stats.naks_sent, 0);
        let seqs: Vec<u16> = played.iter().map(|p| p.sequence).collect();
        assert_eq!(seqs, (0..16).collect::<Vec<u16>>());
    }

    #[test]
    fn faulted_link_accounts_for_every_transmitted_frame() {
        let plan = FaultPlan::new(FaultConfig::wire_composite(0.1), 1234).unwrap();
        let injector = WireFaultInjector::new(plan);
        let mut link = ArqLink::new(ArqConfig::selective_repeat(16), Some(injector), 2).unwrap();
        let mut out = Vec::new();
        let mut prev: Option<u16> = None;
        let mut check = |p: Playout, out: &[u16], n: u16| {
            if let Some(q) = prev {
                assert_eq!(p.sequence, q.wrapping_add(1), "in order, no dups");
            }
            prev = Some(p.sequence);
            if p.delivered {
                assert_eq!(out, frame(p.sequence).0, "payload intact");
            }
            n + 1
        };
        const SENT: u64 = 2000;
        let mut played: u16 = 0;
        for seq in 0..SENT {
            let (_, wire) = frame(seq as u16);
            if let Some(p) = link.step_into(&wire, &mut out).unwrap() {
                played = check(p, &out, played);
            }
        }
        while let Some(p) = link.finish_into(&mut out) {
            played = check(p, &out, played);
        }
        let stats = link.stats();
        let faults = link.fault_counters().unwrap();
        assert_eq!(
            u64::from(played),
            SENT,
            "every frame plays out exactly once"
        );
        assert_eq!(stats.delivered + stats.lost, SENT);
        assert_eq!(stats.corrupted, faults.corruptions());
        assert_eq!(stats.duplicates, faults.duplicates);
        assert_eq!(stats.recovered + stats.lost, stats.gaps_detected);
        assert!(faults.total() > 0, "10% composite must fire in 2000 frames");
        assert!(
            stats.recovered > 0 && stats.lost == 0,
            "ARQ recovers every drop at this rate: {stats:?}"
        );
    }

    #[test]
    fn sequence_wrap_is_transparent() {
        let window = 8;
        let mut link = ArqLink::new(ArqConfig::selective_repeat(window), None, 2).unwrap();
        let mut out = Vec::new();
        let mut expect = u16::MAX - 20;
        let mut n = 0;
        for i in 0..60_u32 {
            let seq = (u16::MAX - 20).wrapping_add(i as u16);
            let (_, wire) = frame(seq);
            if let Some(p) = link.step_into(&wire, &mut out).unwrap() {
                assert!(p.delivered);
                assert_eq!(p.sequence, expect);
                expect = expect.wrapping_add(1);
                n += 1;
            }
        }
        assert_eq!(n, 60 - window);
        assert_eq!(link.stats().lost, 0);
    }

    #[test]
    fn authenticated_clean_link_is_byte_identical_to_plain() {
        use crate::auth::{AuthConfig, AuthKey};
        let window = 8;
        let auth = AuthConfig::new(AuthKey::from_seed(0xC1EA, 1));
        let mut link =
            ArqLink::with_auth(ArqConfig::selective_repeat(window), None, 2, &auth).unwrap();
        let mut out = Vec::new();
        let mut played = 0;
        for seq in 0..100_u16 {
            let (_, wire) = frame(seq);
            if let Some(p) = link.step_into(&wire, &mut out).unwrap() {
                assert!(p.delivered);
                assert_eq!(out, frame(p.sequence).0, "crypto must not perturb payloads");
                played += 1;
            }
        }
        while let Some(p) = link.finish_into(&mut out) {
            assert!(p.delivered);
            played += 1;
        }
        assert_eq!(played, 100);
        let auth_stats = link.auth_stats().unwrap();
        assert_eq!(auth_stats.sealed, 100);
        assert_eq!(auth_stats.accepted, 100);
        assert_eq!(auth_stats.rejected_total(), 0);
        assert_eq!(link.stats().corrupted, 0);
    }

    #[test]
    fn authenticated_link_recovers_faults_and_repels_attacks() {
        use crate::auth::{AuthConfig, AuthKey};
        use crate::fault::{Adversary, AttackConfig};
        let key = AuthKey::from_seed(0x5AFE, 2);
        let auth = AuthConfig::new(key);
        let adversary = Adversary::new(AttackConfig::composite(0.25), 0xBAD5EED, 2).unwrap();
        let plan = FaultPlan::new(FaultConfig::wire_composite(0.1), 4321).unwrap();
        let injector = WireFaultInjector::with_adversary(plan, adversary);
        let mut link =
            ArqLink::with_auth(ArqConfig::selective_repeat(16), Some(injector), 2, &auth).unwrap();
        let mut out = Vec::new();
        const SENT: u64 = 2000;
        let mut played = 0_u64;
        let check = |p: Playout, out: &[u16]| {
            if p.delivered {
                assert_eq!(out, frame(p.sequence).0, "forgery reached the playout");
            }
        };
        for seq in 0..SENT {
            let (_, wire) = frame(seq as u16);
            if let Some(p) = link.step_into(&wire, &mut out).unwrap() {
                check(p, &out);
                played += 1;
            }
        }
        while let Some(p) = link.finish_into(&mut out) {
            check(p, &out);
            played += 1;
        }
        assert_eq!(played, SENT, "every frame plays out exactly once");
        let stats = link.stats();
        let faults = link.fault_counters().unwrap();
        let attacks = link.attack_counters().unwrap();
        let auth_stats = link.auth_stats().unwrap();
        assert!(
            attacks.total() > 0,
            "25% composite must fire in 2000 frames"
        );
        // Under auth the ARQ receiver sees only verified inner packets:
        // nothing corrupt and no duplicates ever reach it.
        assert_eq!(stats.corrupted, 0);
        assert_eq!(stats.duplicates, 0);
        assert_eq!(auth_stats.accepted, stats.received);
        // Replays are exactly the channel duplicates plus the
        // adversary's replay attacks.
        assert_eq!(auth_stats.replayed, faults.duplicates + attacks.replayed);
        // Every attack and corruption is rejected somewhere; none is
        // accepted.
        assert_eq!(
            auth_stats.rejected_auth() + auth_stats.stale,
            faults.corruptions() + attacks.total() - attacks.replayed
        );
        assert!(auth_stats.rejected_mac >= attacks.mac_rejected_expected());
        assert!(auth_stats.rejected_key >= attacks.key_mismatched);
        assert!(
            stats.recovered > 0 && stats.lost == 0,
            "ARQ still recovers every drop through the authenticated path: {stats:?}"
        );
    }

    #[test]
    fn tx_window_keeps_recent_and_evicts_old() {
        let mut tx = TxWindow::new(8);
        for seq in 0..100_u16 {
            tx.insert(seq, &frame(seq).1);
        }
        assert!(tx.get(99).is_some());
        assert!(tx.get(90).is_some());
        assert_eq!(tx.get(99).unwrap(), frame(99).1.as_slice());
        assert!(tx.get(0).is_none(), "old entries are evicted");
    }
}
