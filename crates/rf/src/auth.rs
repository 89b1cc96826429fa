//! Authenticated framing for the implant uplink — the L8 trust
//! boundary.
//!
//! The packet format of `crates/rf/src/packet.rs` protects frames with
//! nothing stronger than a CRC-16: any peer within radio range can
//! forge, replay, or splice packets into the decode path. Following the
//! ONI framing of the silicon↔biology boundary, this module wraps every
//! wire packet in an AEAD-style keyed-MAC envelope sized for an implant
//! that has no cycles to spare:
//!
//! ```text
//! | auth magic:16 | version:8 | key id:8 | inner packet … | mac:64 |
//! ```
//!
//! * **Keyed MAC** — a Carter–Wegman construction under a 128-bit
//!   pre-shared key, carried as a 64-bit trailer: the frame bytes run
//!   through an NH universal hash (`LinkMac`, 64-bit word pairs,
//!   `64×64→128` multiply-accumulate — ~0.2 cycles/byte, an order of
//!   magnitude cheaper than hashing the payload with a full PRF), and
//!   SipHash-2-4 acts as the PRF only over the *fixed-size* input
//!   `nonce ‖ NH ‖ length`. SipHash is hand-rolled here (no external
//!   crates) and pinned against the reference vectors.
//! * **Nonce bound to the ARQ sequence space** — the 64-bit nonce is
//!   the *extended* sequence number: the wrapping `u16` on the wire,
//!   unwrapped monotonically by both ends (`extend_sequence`). The
//!   nonce never travels; an attacker who replays an old frame cannot
//!   re-bind it to a fresh nonce without breaking the MAC.
//! * **Sliding replay window** — the receiver tracks accepted nonces in
//!   a power-of-two bitmap ([`ReplayWindow`]). A nonce seen twice is
//!   rejected (`replayed`); one older than the window is rejected
//!   (`stale`). Legitimate ARQ retransmissions pass, because a
//!   retransmitted sequence number was by construction never accepted.
//! * **Constant-size header extension** — explicit version and key-id
//!   bytes so key rotation and format evolution are first-class, at a
//!   fixed [`AUTH_OVERHEAD_BYTES`] = 12 bytes per frame.
//!
//! ## Verification ordering (no pre-MAC oracle)
//!
//! [`AuthReceiver::open`] rejects on, in order: total length, magic,
//! version, key id, MAC, replay window. Every pre-MAC check depends
//! only on *public constant-size header fields* and the total length —
//! never on payload bytes — and the MAC comparison is constant-time
//! (`ct_eq_tag`), so rejection behaviour leaks nothing about payload
//! content. No inner-packet byte is parsed, and no output byte is
//! written, before the MAC verifies.
//!
//! Every acceptance and rejection is counted exactly in [`AuthStats`],
//! so the adversarial soak (`crates/pipeline/tests/secure_soak.rs`) can
//! equate the ledger with an injected attack plan field-by-field.

use crate::error::{Result, RfError};
use crate::packet::{HEADER_BYTES, PACKET_MAGIC, TRAILER_BYTES};

/// Frame marker that starts every sealed (authenticated) packet.
pub(crate) const AUTH_MAGIC: u16 = 0x5EA1;

/// Wire-format version carried in every sealed frame.
pub(crate) const AUTH_VERSION: u8 = 1;

/// Sealed-frame header size: magic(2) + version(1) + key id(1).
pub(crate) const AUTH_HEADER_BYTES: usize = 4;

/// MAC trailer size (Carter–Wegman NH + SipHash-2-4 PRF, 64-bit tag).
pub(crate) const AUTH_TAG_BYTES: usize = 8;

/// Total sealing overhead per frame.
pub const AUTH_OVERHEAD_BYTES: usize = AUTH_HEADER_BYTES + AUTH_TAG_BYTES;

/// Smallest possible sealed frame: envelope around a minimal inner
/// packet (header + CRC, empty payload is impossible but this is the
/// parse floor).
pub(crate) const MIN_SEALED_BYTES: usize = AUTH_OVERHEAD_BYTES + HEADER_BYTES + TRAILER_BYTES;

/// Largest supported replay window — half the `u16` sequence space, so
/// nonce extension stays unambiguous.
pub(crate) const MAX_REPLAY_WINDOW: usize = 32_768;

/// Unwraps a `u16` wire sequence number into the 64-bit extended
/// sequence space around `anchor` (the last extended number this
/// endpoint committed to). Forward distances up to `0x7FFF` move the
/// anchor forward; anything further is interpreted as a backward
/// reference. Returns `None` when the backward reference would precede
/// extended sequence 0 (a frame from before the stream began).
#[must_use]
pub(crate) fn extend_sequence(anchor: u64, seq: u16) -> Option<u64> {
    let fwd = seq.wrapping_sub(anchor as u16);
    if fwd <= 0x7FFF {
        Some(anchor + u64::from(fwd))
    } else {
        (anchor + u64::from(fwd)).checked_sub(0x1_0000)
    }
}

// ---------------------------------------------------------------------
// SipHash-2-4
// ---------------------------------------------------------------------

/// `L` SipHash-2-4 states stepped in lockstep, lane by lane, so the
/// independent inputs of [`LinkMac`]'s pad expansion overlap in the
/// pipeline. One lane is plain SipHash-2-4.
///
/// Hand-rolled because the workspace takes no crypto crates; pinned
/// against the reference vectors of the SipHash paper in this module's
/// tests. Two compression rounds per 8-byte word, four finalization
/// rounds. The MAC only ever applies it to short, fixed-size inputs —
/// the NH pad expansion and the `nonce ‖ NH ‖ length` finalization of
/// [`LinkMac`] — so its per-byte cost never touches the bulk payload.
#[derive(Debug, Clone, Copy)]
struct SipLanes<const L: usize> {
    v0: [u64; L],
    v1: [u64; L],
    v2: [u64; L],
    v3: [u64; L],
}

impl<const L: usize> SipLanes<L> {
    fn new(key: &[u8; 16]) -> Self {
        let k0 = u64::from_le_bytes(key[0..8].try_into().expect("8 bytes"));
        let k1 = u64::from_le_bytes(key[8..16].try_into().expect("8 bytes"));
        Self {
            v0: [k0 ^ 0x736f_6d65_7073_6575; L],
            v1: [k1 ^ 0x646f_7261_6e64_6f6d; L],
            v2: [k0 ^ 0x6c79_6765_6e65_7261; L],
            v3: [k1 ^ 0x7465_6462_7974_6573; L],
        }
    }

    #[inline]
    fn round(&mut self) {
        for i in 0..L {
            let (v0, v1, v2, v3) = (
                &mut self.v0[i],
                &mut self.v1[i],
                &mut self.v2[i],
                &mut self.v3[i],
            );
            *v0 = v0.wrapping_add(*v1);
            *v1 = v1.rotate_left(13);
            *v1 ^= *v0;
            *v0 = v0.rotate_left(32);
            *v2 = v2.wrapping_add(*v3);
            *v3 = v3.rotate_left(16);
            *v3 ^= *v2;
            *v0 = v0.wrapping_add(*v3);
            *v3 = v3.rotate_left(21);
            *v3 ^= *v0;
            *v2 = v2.wrapping_add(*v1);
            *v1 = v1.rotate_left(17);
            *v1 ^= *v2;
            *v2 = v2.rotate_left(32);
        }
    }

    #[inline]
    fn compress(&mut self, words: [u64; L]) {
        for (v3, w) in self.v3.iter_mut().zip(words) {
            *v3 ^= w;
        }
        self.round();
        self.round();
        for (v0, w) in self.v0.iter_mut().zip(words) {
            *v0 ^= w;
        }
    }

    /// Compresses the final (length-tagged) words and runs the four
    /// finalization rounds.
    #[inline]
    fn finish(mut self, last: [u64; L]) -> [u64; L] {
        self.compress(last);
        for v2 in &mut self.v2 {
            *v2 ^= 0xFF;
        }
        for _ in 0..4 {
            self.round();
        }
        std::array::from_fn(|i| self.v0[i] ^ self.v1[i] ^ self.v2[i] ^ self.v3[i])
    }
}

/// SipHash-2-4 over `N` little-endian words (an `8·N`-byte input), in
/// `L` lanes at once: the words are compressed directly, with no byte
/// buffer, and each lane's tag equals SipHash-2-4 of the same bytes.
#[inline]
fn sip_words<const L: usize, const N: usize>(key: &[u8; 16], words: [[u64; L]; N]) -> [u64; L] {
    let mut state = SipLanes::<L>::new(key);
    for w in words {
        state.compress(w);
    }
    state.finish([((8 * N) as u64 & 0xFF) << 56; L])
}

/// Constant-time tag comparison: every byte is examined regardless of
/// where the first mismatch sits, so verification time never narrows
/// the attacker's search.
#[must_use]
pub(crate) fn ct_eq_tag(a: &[u8; AUTH_TAG_BYTES], b: &[u8; AUTH_TAG_BYTES]) -> bool {
    let mut diff = 0_u8;
    for i in 0..AUTH_TAG_BYTES {
        diff |= a[i] ^ b[i];
    }
    diff == 0
}

// ---------------------------------------------------------------------
// Carter–Wegman frame MAC: NH universal hash + SipHash-2-4 PRF
// ---------------------------------------------------------------------

/// Domain-separation label for the NH pad expansion PRF calls. The pad
/// call hashes `counter(8) ‖ label(16)` = 24 bytes; the tag
/// finalization hashes `nonce ‖ NH ‖ length` = 32 bytes — distinct
/// input lengths *and* an explicit label, so the two PRF uses can never
/// collide.
const NH_PAD_LABEL: &[u8; 16] = b"MINDFUL-NH-PAD-1";

/// Carter–Wegman MAC over sealed frames.
///
/// The bulk of the frame runs through an **NH universal hash** (the
/// UMAC construction, word size 64): the message is split into pairs of
/// little-endian 64-bit words `(m₀, m₁)` and folded as
///
/// ```text
/// NH = Σᵢ (m₂ᵢ ⊞ k₂ᵢ) · (m₂ᵢ₊₁ ⊞ k₂ᵢ₊₁)   (mod 2¹²⁸, ⊞ = mod 2⁶⁴)
/// ```
///
/// against a pad of secret words expanded once from the link key via
/// SipHash-2-4 in counter mode. NH with 64-bit words is provably
/// `2⁻⁶⁴`-almost-universal on equal-length inputs; the final byte
/// length rides in the finalization so zero-padded tails cannot alias.
/// The 64-bit tag is then
///
/// ```text
/// tag = SipHash-2-4(key, nonce ‖ NH ‖ length)
/// ```
///
/// — the hash-then-PRF shape of UMAC/GMAC, whose forgery bound is the
/// universal-hash collision bound (`≈ 2⁻⁶⁴` per attempt, every attempt
/// burning an online trial that the receiver counts and rejects) plus
/// the PRF advantage against SipHash. The payoff is speed: one `u64`
/// multiply-accumulate per 16 bytes instead of two SipRounds per
/// 8 bytes, which is what keeps the clean-link crypto overhead of the
/// authenticated ARQ path in single digits (`crates/bench/benches/
/// secure.rs` pins the budget).
///
/// NH folds runs of four 16-byte blocks into four independent `u128`
/// accumulators (one per block position) that are summed at the end —
/// the same sum, since addition mod 2¹²⁸ is associative — so the
/// multiplies overlap rather than wait on one add chain. The tag's
/// PRF compresses its four words `nonce ‖ NH ‖ length` directly, with
/// no byte buffer, and the pad is expanded four counters at a time in
/// four interleaved SipHash lanes. Tags and pad words equal those of a
/// one-accumulator NH over per-counter byte-wise SipHash calls (a test
/// oracle pins every data length up to 1400 bytes and pad words
/// 0..300).
///
/// The pad grows lazily to the longest frame seen and is retained, so
/// steady-state sealing and opening are allocation-free — the same
/// warm-path contract as the rest of the link layer.
#[derive(Debug, Clone)]
pub(crate) struct LinkMac {
    key: [u8; 16],
    pad: Vec<u64>,
}

impl LinkMac {
    /// A MAC instance under a 128-bit key. Two instances under the same
    /// key (one per link end) expand identical pads and agree on every
    /// tag.
    #[must_use]
    pub(crate) fn new(key: &[u8; 16]) -> Self {
        Self {
            key: *key,
            pad: Vec::new(),
        }
    }

    /// Extends the pad to at least `words` entries, four counters at
    /// a time: entry `i` is SipHash-2-4 of `i ‖ NH_PAD_LABEL`, so lazy
    /// growth is deterministic and never changes existing entries.
    fn ensure_pad(&mut self, words: usize) {
        let label = |half: usize| {
            u64::from_le_bytes(
                NH_PAD_LABEL[8 * half..8 * half + 8]
                    .try_into()
                    .expect("8 bytes"),
            )
        };
        let (l0, l1) = (label(0), label(1));
        while self.pad.len() < words {
            let c = self.pad.len() as u64;
            let counters = [c, c + 1, c + 2, c + 3];
            self.pad
                .extend(sip_words(&self.key, [counters, [l0; 4], [l1; 4]]));
        }
    }

    /// NH universal hash of `data` (zero-padded to a 16-byte block)
    /// against the first `⌈len/8⌉` pad words. Runs of four blocks fold
    /// into four independent accumulators, one per block position, so
    /// the multiplies overlap instead of queueing on one 128-bit add
    /// chain; addition mod 2¹²⁸ is associative, so the sum is that of
    /// a single accumulator.
    #[inline]
    fn nh(pad: &[u64], data: &[u8]) -> u128 {
        let product = |m: &[u8; 16], k: &[u64; 2]| {
            let a = u64::from_le_bytes(m[..8].try_into().expect("8 bytes")).wrapping_add(k[0]);
            let b = u64::from_le_bytes(m[8..].try_into().expect("8 bytes")).wrapping_add(k[1]);
            u128::from(a) * u128::from(b)
        };
        let pairs = pad.as_chunks::<2>().0;
        let (blocks, rem) = data.as_chunks::<16>();
        let (quads, rest) = blocks.as_chunks::<4>();
        let mut lanes = [0_u128; 4];
        for (quad, keys) in quads.iter().zip(pairs.as_chunks::<4>().0) {
            for lane in 0..4 {
                lanes[lane] = lanes[lane].wrapping_add(product(&quad[lane], &keys[lane]));
            }
        }
        let mut nh = lanes
            .iter()
            .fold(0_u128, |sum, &lane| sum.wrapping_add(lane));
        let mut keys = pairs[4 * quads.len()..].iter();
        for (block, k) in rest.iter().zip(&mut keys) {
            nh = nh.wrapping_add(product(block, k));
        }
        if !rem.is_empty() {
            let mut last = [0_u8; 16];
            last[..rem.len()].copy_from_slice(rem);
            let k = keys.next().expect("the pad covers the tail block");
            nh = nh.wrapping_add(product(&last, k));
        }
        nh
    }

    /// The 64-bit tag over `nonce ‖ data`: SipHash-2-4 of the four
    /// words `nonce ‖ NH ‖ length`, compressed directly. Takes
    /// `&mut self` only for lazy pad growth; tags are a pure function
    /// of `(key, nonce, data)`.
    #[must_use]
    pub(crate) fn tag(&mut self, nonce: u64, data: &[u8]) -> u64 {
        self.ensure_pad(data.len().div_ceil(16) * 2);
        let nh = Self::nh(&self.pad, data);
        let words = [nonce, nh as u64, (nh >> 64) as u64, data.len() as u64];
        sip_words(&self.key, words.map(|w| [w]))[0]
    }
}

// ---------------------------------------------------------------------
// Keys and configuration
// ---------------------------------------------------------------------

/// A pre-shared link key plus its public identifier byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuthKey {
    /// 128-bit SipHash key (secret).
    pub(crate) key: [u8; 16],
    /// Public key identifier carried in every sealed frame so the
    /// receiver can reject a peer keyed differently without burning a
    /// MAC computation.
    pub(crate) key_id: u8,
}

impl AuthKey {
    /// Expands a 64-bit seed into a key via splitmix64 — deterministic
    /// key material for tests, benches, and soaks.
    #[must_use]
    pub fn from_seed(seed: u64, key_id: u8) -> Self {
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut key = [0_u8; 16];
        key[0..8].copy_from_slice(&next().to_le_bytes());
        key[8..16].copy_from_slice(&next().to_le_bytes());
        Self { key, key_id }
    }
}

/// Configuration for one authenticated link direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuthConfig {
    /// The pre-shared key.
    pub(crate) key: AuthKey,
    /// Replay-window span in sequence numbers (rounded up to a power
    /// of two). Must cover the deepest legitimate reordering the ARQ
    /// can produce; the default of 1024 dwarfs any sane ARQ window.
    pub(crate) replay_window: usize,
}

impl AuthConfig {
    /// A config with the default 1024-entry replay window.
    #[must_use]
    pub fn new(key: AuthKey) -> Self {
        Self {
            key,
            replay_window: 1024,
        }
    }

    /// Validates the replay window.
    ///
    /// # Errors
    ///
    /// Returns [`RfError::InvalidParameter`] when the window is below 2
    /// or above [`MAX_REPLAY_WINDOW`].
    pub(crate) fn validate(&self) -> Result<()> {
        if self.replay_window < 2 || self.replay_window > MAX_REPLAY_WINDOW {
            return Err(RfError::InvalidParameter {
                name: "replay window",
                value: self.replay_window as f64,
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Replay window
// ---------------------------------------------------------------------

/// Verdict of a replay-window admission test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayVerdict {
    /// Never seen: accepted and recorded.
    Fresh,
    /// Inside the window and already accepted once.
    Replayed,
    /// Older than the window can vouch for.
    Stale,
}

/// Sliding bitmap over the extended sequence space.
///
/// A power-of-two ring of bits indexed by `ext & (window - 1)`; moving
/// the frontier forward clears exactly the bits whose sequence numbers
/// the ring position now represents. Invariants (pinned by the unit
/// tests, including across the `u16` wrap):
///
/// * a nonce is accepted at most once, ever;
/// * any nonce within `window` of the highest accepted one is
///   classified exactly (fresh vs replayed);
/// * anything older is `Stale`, never silently accepted.
#[derive(Debug, Clone)]
pub struct ReplayWindow {
    bits: Vec<u64>,
    window: u64,
    highest: u64,
    primed: bool,
}

impl ReplayWindow {
    /// A window spanning at least `span` sequence numbers (rounded up
    /// to a power of two, minimum 2).
    #[must_use]
    pub fn new(span: usize) -> Self {
        let window = span.next_power_of_two().max(2) as u64;
        let words = usize::try_from(window.div_ceil(64)).expect("window fits usize");
        Self {
            bits: vec![0; words.max(1)],
            window,
            highest: 0,
            primed: false,
        }
    }

    /// Whether any nonce has been accepted yet.
    #[must_use]
    pub(crate) fn primed(&self) -> bool {
        self.primed
    }

    /// The highest accepted extended sequence number (0 before any).
    #[must_use]
    pub fn highest(&self) -> u64 {
        self.highest
    }

    fn index(&self, ext: u64) -> (usize, u64) {
        let slot = ext & (self.window - 1);
        (
            usize::try_from(slot / 64).expect("slot fits usize"),
            1_u64 << (slot % 64),
        )
    }

    fn set(&mut self, ext: u64) {
        let (word, mask) = self.index(ext);
        self.bits[word] |= mask;
    }

    fn clear(&mut self, ext: u64) {
        let (word, mask) = self.index(ext);
        self.bits[word] &= !mask;
    }

    fn seen(&self, ext: u64) -> bool {
        let (word, mask) = self.index(ext);
        self.bits[word] & mask != 0
    }

    /// Admits or rejects extended sequence number `ext`, recording it
    /// on [`ReplayVerdict::Fresh`].
    pub fn try_accept(&mut self, ext: u64) -> ReplayVerdict {
        if !self.primed {
            self.primed = true;
            for word in &mut self.bits {
                *word = 0;
            }
            self.highest = ext;
            self.set(ext);
            return ReplayVerdict::Fresh;
        }
        if ext > self.highest {
            let advance = ext - self.highest;
            if advance >= self.window {
                for word in &mut self.bits {
                    *word = 0;
                }
            } else {
                // Clear only the ring positions the frontier moves over.
                for s in (self.highest + 1)..=ext {
                    self.clear(s);
                }
            }
            self.highest = ext;
            self.set(ext);
            return ReplayVerdict::Fresh;
        }
        if self.highest - ext >= self.window {
            return ReplayVerdict::Stale;
        }
        if self.seen(ext) {
            ReplayVerdict::Replayed
        } else {
            self.set(ext);
            ReplayVerdict::Fresh
        }
    }
}

// ---------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------

/// Exact acceptance/rejection ledger for one authenticated direction.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AuthStats {
    /// Frames sealed by the sender.
    pub sealed: u64,
    /// Frames that passed MAC + replay checks and were handed inward.
    pub accepted: u64,
    /// Frames rejected by the constant-time MAC comparison.
    pub rejected_mac: u64,
    /// Frames rejected before the MAC on public header grounds
    /// (truncated envelope, bad magic, bad version).
    pub(crate) rejected_malformed: u64,
    /// Frames advertising a different key id.
    pub rejected_key: u64,
    /// Authentic frames whose nonce was already accepted once.
    pub replayed: u64,
    /// Frames older than the replay window can vouch for (or from
    /// before the stream began).
    pub stale: u64,
}

impl AuthStats {
    /// All authentication rejections (MAC + malformed + key mismatch) —
    /// everything except replay/stale filtering.
    #[must_use]
    pub fn rejected_auth(&self) -> u64 {
        self.rejected_mac + self.rejected_malformed + self.rejected_key
    }

    /// Every frame the receiver refused, for conservation checks.
    #[must_use]
    pub fn rejected_total(&self) -> u64 {
        self.rejected_auth() + self.replayed + self.stale
    }
}

// ---------------------------------------------------------------------
// Sender / receiver
// ---------------------------------------------------------------------

/// Seals inner wire packets into authenticated envelopes.
///
/// The sender trusts its caller to feed monotonically advancing
/// sequence numbers (the packetizer does); sealing the same sequence
/// number twice reuses its nonce, which the *receiver* rejects as a
/// replay — misuse is contained, not silent.
#[derive(Debug, Clone)]
pub struct AuthSender {
    key: AuthKey,
    mac: LinkMac,
    anchor: u64,
    primed: bool,
    sealed: u64,
}

impl AuthSender {
    /// A sender under `config`'s key.
    #[must_use]
    pub fn new(config: &AuthConfig) -> Self {
        Self {
            key: config.key,
            mac: LinkMac::new(&config.key.key),
            anchor: 0,
            primed: false,
            sealed: 0,
        }
    }

    /// Frames sealed so far.
    #[must_use]
    pub(crate) fn sealed(&self) -> u64 {
        self.sealed
    }

    /// Seals `inner` (a well-formed packet from
    /// [`crate::packet::packetize_into`]) into `out` (cleared first).
    /// Allocation-free once `out` has capacity.
    ///
    /// # Errors
    ///
    /// [`RfError::CorruptPacket`] when `inner` is too short or does not
    /// start with the packet magic; [`RfError::AuthReject`] when the
    /// sequence number cannot be bound to a nonce (a backward reference
    /// from before the stream began).
    pub fn seal_into(&mut self, inner: &[u8], out: &mut Vec<u8>) -> Result<()> {
        out.clear();
        if inner.len() < HEADER_BYTES + TRAILER_BYTES || inner[0..2] != PACKET_MAGIC.to_be_bytes() {
            return Err(RfError::CorruptPacket {
                reason: "unsealable inner packet",
            });
        }
        let seq = u16::from_be_bytes([inner[2], inner[3]]);
        let ext = if self.primed {
            extend_sequence(self.anchor, seq).ok_or(RfError::AuthReject {
                reason: "nonce underflow",
            })?
        } else {
            u64::from(seq)
        };
        self.primed = true;
        self.anchor = ext;
        out.reserve(AUTH_OVERHEAD_BYTES + inner.len());
        out.extend_from_slice(&AUTH_MAGIC.to_be_bytes());
        out.push(AUTH_VERSION);
        out.push(self.key.key_id);
        out.extend_from_slice(inner);
        let tag = self.mac.tag(ext, out);
        out.extend_from_slice(&tag.to_le_bytes());
        self.sealed += 1;
        Ok(())
    }
}

/// Opens authenticated envelopes: MAC-then-everything.
///
/// See the module docs for the verification ordering contract. The
/// returned slice borrows the caller's wire buffer — opening writes no
/// payload bytes anywhere, so a rejected frame leaves every caller
/// buffer untouched.
#[derive(Debug, Clone)]
pub struct AuthReceiver {
    key: AuthKey,
    mac: LinkMac,
    window: ReplayWindow,
    stats: AuthStats,
}

impl AuthReceiver {
    /// A receiver under `config`.
    ///
    /// # Errors
    ///
    /// Propagates `AuthConfig::validate` errors.
    pub fn new(config: &AuthConfig) -> Result<Self> {
        config.validate()?;
        Ok(Self {
            key: config.key,
            mac: LinkMac::new(&config.key.key),
            window: ReplayWindow::new(config.replay_window),
            stats: AuthStats::default(),
        })
    }

    /// The acceptance/rejection ledger (the `sealed` field stays 0 —
    /// it belongs to the sender).
    #[must_use]
    pub fn stats(&self) -> AuthStats {
        self.stats
    }

    /// Verifies one sealed frame and returns the inner packet slice.
    ///
    /// # Errors
    ///
    /// [`RfError::AuthReject`] on any verification failure; the exact
    /// reason is counted in [`AuthStats`]. No inner byte is parsed and
    /// nothing is written before the MAC verifies.
    pub fn open<'a>(&mut self, wire: &'a [u8]) -> Result<&'a [u8]> {
        if wire.len() < MIN_SEALED_BYTES {
            self.stats.rejected_malformed += 1;
            return Err(RfError::AuthReject {
                reason: "truncated envelope",
            });
        }
        if wire[0..2] != AUTH_MAGIC.to_be_bytes() {
            self.stats.rejected_malformed += 1;
            return Err(RfError::AuthReject {
                reason: "bad auth magic",
            });
        }
        if wire[2] != AUTH_VERSION {
            self.stats.rejected_malformed += 1;
            return Err(RfError::AuthReject {
                reason: "bad auth version",
            });
        }
        if wire[3] != self.key.key_id {
            self.stats.rejected_key += 1;
            return Err(RfError::AuthReject {
                reason: "key mismatch",
            });
        }
        // The sequence field sits at a fixed offset inside the inner
        // header; reading it is a public-header access, not a payload
        // parse.
        let seq = u16::from_be_bytes([wire[AUTH_HEADER_BYTES + 2], wire[AUTH_HEADER_BYTES + 3]]);
        let anchor = if self.window.primed() {
            self.window.highest()
        } else {
            // Before any acceptance the nonce is the raw sequence.
            u64::from(seq)
        };
        let Some(ext) = extend_sequence(anchor, seq) else {
            self.stats.stale += 1;
            return Err(RfError::AuthReject {
                reason: "stale nonce",
            });
        };
        let body_len = wire.len() - AUTH_TAG_BYTES;
        let expected = self.mac.tag(ext, &wire[..body_len]).to_le_bytes();
        let carried: [u8; AUTH_TAG_BYTES] = wire[body_len..].try_into().expect("tag is 8 bytes");
        if !ct_eq_tag(&expected, &carried) {
            self.stats.rejected_mac += 1;
            return Err(RfError::AuthReject {
                reason: "mac mismatch",
            });
        }
        match self.window.try_accept(ext) {
            ReplayVerdict::Fresh => {
                self.stats.accepted += 1;
                Ok(&wire[AUTH_HEADER_BYTES..body_len])
            }
            ReplayVerdict::Replayed => {
                self.stats.replayed += 1;
                Err(RfError::AuthReject { reason: "replayed" })
            }
            ReplayVerdict::Stale => {
                self.stats.stale += 1;
                Err(RfError::AuthReject {
                    reason: "stale nonce",
                })
            }
        }
    }

    /// Convenience: verify, then depacketize the inner packet into
    /// `samples`. On any rejection — including a bad inner CRC —
    /// `samples` is untouched (the regression contract of the
    /// pre-write-validation audit; see `packet::depacketize_into`).
    ///
    /// # Errors
    ///
    /// [`RfError::AuthReject`] on verification failure, or the inner
    /// packet's [`RfError::CorruptPacket`].
    pub fn open_packet_into(
        &mut self,
        wire: &[u8],
        samples: &mut Vec<u16>,
    ) -> Result<crate::packet::FrameHeader> {
        let inner = self.open(wire)?;
        crate::packet::depacketize_into(inner, samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::packetize;

    /// Byte-wise incremental SipHash-2-4 over the same rounds as
    /// `sip_words`: the form the MAC used before it compressed whole
    /// words, kept as the oracle for the reference vectors, pad and
    /// tags.
    #[derive(Debug, Clone)]
    struct SipMac {
        state: SipLanes<1>,
        buf: [u8; 8],
        buf_len: usize,
        len: u64,
    }

    impl SipMac {
        /// Starts a MAC under a 128-bit key.
        fn new(key: &[u8; 16]) -> Self {
            Self {
                state: SipLanes::new(key),
                buf: [0; 8],
                buf_len: 0,
                len: 0,
            }
        }

        /// Absorbs `data`.
        fn write(&mut self, data: &[u8]) {
            self.len = self.len.wrapping_add(data.len() as u64);
            let mut rest = data;
            if self.buf_len > 0 {
                let take = rest.len().min(8 - self.buf_len);
                self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
                self.buf_len += take;
                rest = &rest[take..];
                if self.buf_len < 8 {
                    return;
                }
                self.state.compress([u64::from_le_bytes(self.buf)]);
                self.buf_len = 0;
            }
            let mut chunks = rest.chunks_exact(8);
            for chunk in &mut chunks {
                let word = u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
                self.state.compress([word]);
            }
            let tail = chunks.remainder();
            self.buf[..tail.len()].copy_from_slice(tail);
            self.buf_len = tail.len();
        }

        /// Finishes the MAC and returns the 64-bit tag.
        fn finish(self) -> u64 {
            let mut last = [0_u8; 8];
            last[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
            last[7] = (self.len & 0xFF) as u8;
            self.state.finish([u64::from_le_bytes(last)])[0]
        }
    }

    /// One-shot SipHash-2-4 over `nonce ‖ data`.
    fn mac64(key: &[u8; 16], nonce: u64, data: &[u8]) -> u64 {
        let mut mac = SipMac::new(key);
        mac.write(&nonce.to_le_bytes());
        mac.write(data);
        mac.finish()
    }

    fn key() -> AuthKey {
        AuthKey::from_seed(0x5EA1, 7)
    }

    fn pair() -> (AuthSender, AuthReceiver) {
        let config = AuthConfig::new(key());
        (
            AuthSender::new(&config),
            AuthReceiver::new(&config).unwrap(),
        )
    }

    /// ARQ-style sequence fixture (mirrors `arq::tests::frame`).
    fn frame(seq: u16) -> (Vec<u16>, Vec<u8>) {
        let samples: Vec<u16> = (0..32_u16)
            .map(|c| c.wrapping_mul(13).wrapping_add(seq) % 1024)
            .collect();
        let wire = packetize(seq, &samples, 10).unwrap();
        (samples, wire)
    }

    #[test]
    fn siphash_reference_vectors() {
        // Reference vectors from the SipHash paper / reference code:
        // key = 00 01 02 … 0f, input = first n bytes of 00 01 02 ….
        let mut k = [0_u8; 16];
        for (i, byte) in k.iter_mut().enumerate() {
            *byte = i as u8;
        }
        let input: Vec<u8> = (0..16).collect();
        let expect = [
            (0_usize, 0x726f_db47_dd0e_0e31_u64),
            (1, 0x74f8_39c5_93dc_67fd),
            (8, 0x93f5_f579_9a93_2462),
            (15, 0xa129_ca61_49be_45e5),
        ];
        for (len, tag) in expect {
            let mut mac = SipMac::new(&k);
            mac.write(&input[..len]);
            assert_eq!(mac.finish(), tag, "siphash-2-4 of {len} bytes");
        }
        let word = u64::from_le_bytes(input[..8].try_into().unwrap());
        assert_eq!(sip_words(&k, [[word]]), [0x93f5_f579_9a93_2462]);
        assert_eq!(sip_words(&k, [[word; 4]]), [0x93f5_f579_9a93_2462; 4]);
    }

    /// `LinkMac::tag` as it was built before the four-lane NH: one NH
    /// accumulator over the pad `mac64(key, i, NH_PAD_LABEL)`, finished
    /// through the byte-wise `SipMac`.
    fn tag_oracle(key: &[u8; 16], pad: &[u64], nonce: u64, data: &[u8]) -> u64 {
        let mut padded = data.to_vec();
        padded.resize(data.len().div_ceil(16) * 16, 0);
        let mut nh = 0_u128;
        for (i, block) in padded.chunks_exact(16).enumerate() {
            let m0 = u64::from_le_bytes(block[..8].try_into().unwrap());
            let m1 = u64::from_le_bytes(block[8..].try_into().unwrap());
            let a = m0.wrapping_add(pad[2 * i]);
            let b = m1.wrapping_add(pad[2 * i + 1]);
            nh = nh.wrapping_add(u128::from(a) * u128::from(b));
        }
        let mut prf = SipMac::new(key);
        prf.write(&nonce.to_le_bytes());
        prf.write(&(nh as u64).to_le_bytes());
        prf.write(&((nh >> 64) as u64).to_le_bytes());
        prf.write(&(data.len() as u64).to_le_bytes());
        prf.finish()
    }

    #[test]
    fn link_mac_matches_the_one_lane_oracle_bit_for_bit() {
        let k = key().key;
        let pad: Vec<u64> = (0..300).map(|i| mac64(&k, i, NH_PAD_LABEL)).collect();
        let mut warm = LinkMac::new(&k);
        warm.ensure_pad(300);
        assert_eq!(warm.pad[..300], pad[..], "pad words 0..300");
        // A second instance grows its pad lazily, one length at a time.
        let mut lazy = LinkMac::new(&k);
        let data: Vec<u8> = (0..1400_u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for len in 0..=data.len() {
            let nonce = (len as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let want = tag_oracle(&k, &pad, nonce, &data[..len]);
            assert_eq!(warm.tag(nonce, &data[..len]), want, "len {len}");
            assert_eq!(lazy.tag(nonce, &data[..len]), want, "len {len}");
        }
    }

    #[test]
    fn incremental_writes_match_one_shot() {
        let k = key().key;
        let data: Vec<u8> = (0..253_u32).map(|i| (i * 31 % 251) as u8).collect();
        let mut one = SipMac::new(&k);
        one.write(&data);
        let whole = one.finish();
        for split in [0, 1, 7, 8, 9, 64, 252, 253] {
            let mut two = SipMac::new(&k);
            two.write(&data[..split]);
            two.write(&data[split..]);
            assert_eq!(two.finish(), whole, "split at {split}");
        }
        assert_eq!(mac64(&k, 0, &data[8..]), {
            let mut m = SipMac::new(&k);
            m.write(&0_u64.to_le_bytes());
            m.write(&data[8..]);
            m.finish()
        });
    }

    #[test]
    fn link_mac_agrees_across_instances_and_binds_every_input() {
        let k = key().key;
        let data: Vec<u8> = (0..1293_u32).map(|i| (i * 131 % 251) as u8).collect();
        let mut a = LinkMac::new(&k);
        let mut b = LinkMac::new(&k);
        // Warm `b` on a longer message first so its pad is pre-grown —
        // pad growth order must not change tags.
        let longer = vec![0xA5_u8; 4096];
        let _ = b.tag(0, &longer);
        let tag = a.tag(7, &data);
        assert_eq!(tag, b.tag(7, &data), "independent instances agree");
        // Nonce, key, and content sensitivity.
        assert_ne!(tag, a.tag(8, &data));
        assert_ne!(
            tag,
            LinkMac::new(&AuthKey::from_seed(0xBAD, 7).key).tag(7, &data)
        );
        let mut flipped = data.clone();
        flipped[1292] ^= 0x01;
        assert_ne!(tag, a.tag(7, &flipped));
    }

    #[test]
    fn link_mac_length_binding_defeats_zero_pad_aliasing() {
        // `m` and `m ‖ 0…0` NH-hash identically after zero-padding; the
        // byte length in the PRF finalization must split them.
        let k = key().key;
        let mut mac = LinkMac::new(&k);
        let m = [3_u8; 21];
        let mut padded = [0_u8; 32];
        padded[..21].copy_from_slice(&m);
        assert_ne!(mac.tag(1, &m), mac.tag(1, &padded));
        // Empty vs single zero byte, same idea at the floor.
        assert_ne!(mac.tag(1, &[]), mac.tag(1, &[0]));
        // Tail shorter than one 8-byte word still participates.
        assert_ne!(mac.tag(1, &[1]), mac.tag(1, &[2]));
    }

    #[test]
    fn constant_time_compare_is_exact() {
        let a = [1, 2, 3, 4, 5, 6, 7, 8];
        assert!(ct_eq_tag(&a, &a));
        for i in 0..8 {
            let mut b = a;
            b[i] ^= 0x80;
            assert!(!ct_eq_tag(&a, &b));
        }
    }

    #[test]
    fn extend_sequence_unwraps_across_the_u16_boundary() {
        assert_eq!(extend_sequence(65_534, 65_535), Some(65_535));
        assert_eq!(extend_sequence(65_535, 0), Some(65_536));
        assert_eq!(extend_sequence(65_536, 5), Some(65_541));
        // Backward references stay in the same epoch.
        assert_eq!(extend_sequence(65_536, 65_535), Some(65_535));
        assert_eq!(extend_sequence(131_072, 65_535), Some(131_071));
        // A backward reference from before the stream began is refused.
        assert_eq!(extend_sequence(5, 65_535), None);
        // Far-forward stays below the ambiguity threshold.
        assert_eq!(extend_sequence(100, 100 + 0x7FFF), Some(100 + 0x7FFF));
    }

    #[test]
    fn seal_open_round_trip_is_byte_identical() {
        let (mut tx, mut rx) = pair();
        let mut sealed = Vec::new();
        for seq in 0..50_u16 {
            let (_, inner) = frame(seq);
            tx.seal_into(&inner, &mut sealed).unwrap();
            assert_eq!(sealed.len(), inner.len() + AUTH_OVERHEAD_BYTES);
            let opened = rx.open(&sealed).unwrap();
            assert_eq!(opened, inner.as_slice(), "inner packet survives");
        }
        let stats = rx.stats();
        assert_eq!(stats.accepted, 50);
        assert_eq!(stats.rejected_total(), 0);
        assert_eq!(tx.sealed(), 50);
    }

    #[test]
    fn open_packet_into_round_trips_samples() {
        let (mut tx, mut rx) = pair();
        let (samples, inner) = frame(3);
        let mut sealed = Vec::new();
        tx.seal_into(&inner, &mut sealed).unwrap();
        let mut out = vec![0xAAAA_u16; 4];
        let header = rx.open_packet_into(&sealed, &mut out).unwrap();
        assert_eq!(header.sequence, 3);
        assert_eq!(out, samples);
    }

    #[test]
    fn rejected_frames_leave_the_output_buffer_untouched() {
        let (mut tx, mut rx) = pair();
        let (_, inner) = frame(9);
        let mut sealed = Vec::new();
        tx.seal_into(&inner, &mut sealed).unwrap();
        let sentinel = vec![0xBEEF_u16; 3];
        // MAC flip: no byte of the output buffer may change.
        let mut bad = sealed.clone();
        let last = bad.len() - 1;
        bad[last] ^= 1;
        let mut out = sentinel.clone();
        assert!(rx.open_packet_into(&bad, &mut out).is_err());
        assert_eq!(out, sentinel, "rejected before any payload write");
        // Truncated envelope: same contract.
        let mut out = sentinel.clone();
        assert!(rx
            .open_packet_into(&sealed[..MIN_SEALED_BYTES - 1], &mut out)
            .is_err());
        assert_eq!(out, sentinel);
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let (mut tx, mut rx) = pair();
        let (_, inner) = frame(1);
        let mut sealed = Vec::new();
        tx.seal_into(&inner, &mut sealed).unwrap();
        rx.open(&sealed).unwrap();
        for bit in 0..sealed.len() * 8 {
            let mut bad = sealed.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(rx.open(&bad).is_err(), "flip of bit {bit} accepted");
        }
        // The pristine frame again is a replay, not a fresh accept.
        assert!(matches!(
            rx.open(&sealed),
            Err(RfError::AuthReject { reason: "replayed" })
        ));
        assert_eq!(rx.stats().accepted, 1);
    }

    #[test]
    fn wrong_key_and_wrong_key_id_are_rejected_distinctly() {
        let victim = AuthConfig::new(key());
        let mut rx = AuthReceiver::new(&victim).unwrap();
        // Same key id, different key: MAC mismatch.
        let forger = AuthConfig::new(AuthKey {
            key: AuthKey::from_seed(0xBAD, 7).key,
            key_id: 7,
        });
        let mut tx = AuthSender::new(&forger);
        let mut sealed = Vec::new();
        tx.seal_into(&frame(0).1, &mut sealed).unwrap();
        assert!(matches!(
            rx.open(&sealed),
            Err(RfError::AuthReject {
                reason: "mac mismatch"
            })
        ));
        // Different key id: rejected before any MAC work.
        let mut flipped = sealed.clone();
        flipped[3] ^= 0x55;
        assert!(matches!(
            rx.open(&flipped),
            Err(RfError::AuthReject {
                reason: "key mismatch"
            })
        ));
        let stats = rx.stats();
        assert_eq!(stats.rejected_mac, 1);
        assert_eq!(stats.rejected_key, 1);
        assert_eq!(stats.accepted, 0);
    }

    #[test]
    fn nonce_reuse_is_rejected_as_replay() {
        let (mut tx, mut rx) = pair();
        let mut a = Vec::new();
        let mut b = Vec::new();
        tx.seal_into(&frame(5).1, &mut a).unwrap();
        // Different payload, same sequence number → same nonce.
        let other = packetize(5, &[1, 2, 3], 10).unwrap();
        tx.seal_into(&other, &mut b).unwrap();
        assert!(rx.open(&a).is_ok());
        assert!(matches!(
            rx.open(&b),
            Err(RfError::AuthReject { reason: "replayed" })
        ));
        assert_eq!(rx.stats().replayed, 1);
    }

    #[test]
    fn replay_window_duplicate_and_stale_edges() {
        let mut w = ReplayWindow::new(16);
        assert_eq!(w.window, 16);
        assert_eq!(w.try_accept(100), ReplayVerdict::Fresh);
        assert_eq!(w.try_accept(100), ReplayVerdict::Replayed);
        // Out-of-order within the window: fresh once, replayed after.
        assert_eq!(w.try_accept(95), ReplayVerdict::Fresh);
        assert_eq!(w.try_accept(95), ReplayVerdict::Replayed);
        // Beyond the window: stale, and stays stale.
        assert_eq!(w.try_accept(84), ReplayVerdict::Stale);
        // Advance clears exactly the overwritten positions.
        assert_eq!(w.try_accept(108), ReplayVerdict::Fresh);
        assert_eq!(w.try_accept(100), ReplayVerdict::Replayed, "still tracked");
        // Distance 15 is the last in-window slot; 16 falls off.
        assert_eq!(w.try_accept(93), ReplayVerdict::Fresh, "edge of window");
        assert_eq!(w.try_accept(92), ReplayVerdict::Stale, "fell off");
        // A huge jump wipes the bitmap without false replays.
        assert_eq!(w.try_accept(10_000), ReplayVerdict::Fresh);
        assert_eq!(w.try_accept(9_999), ReplayVerdict::Fresh);
        assert_eq!(w.try_accept(9_999), ReplayVerdict::Replayed);
    }

    #[test]
    fn replay_window_tracks_the_u16_wrap_boundary() {
        // Sealed frames crossing 65535 → 0, using the ARQ fixtures.
        let (mut tx, mut rx) = pair();
        let mut sealed = Vec::new();
        let mut copies: Vec<Vec<u8>> = Vec::new();
        for i in 0..40_u32 {
            let seq = 65_515_u16.wrapping_add(i as u16);
            tx.seal_into(&frame(seq).1, &mut sealed).unwrap();
            rx.open(&sealed).unwrap();
            copies.push(sealed.clone());
        }
        assert_eq!(rx.stats().accepted, 40);
        assert_eq!(rx.window.highest(), u64::from(u16::MAX) + 19);
        // Every copy from either side of the wrap is now a replay.
        for copy in &copies {
            assert!(matches!(
                rx.open(copy),
                Err(RfError::AuthReject { reason: "replayed" })
            ));
        }
        assert_eq!(rx.stats().replayed, 40);
        // A frame from far before the window is stale, not replayed.
        let old = AuthConfig::new(key());
        let mut old_tx = AuthSender::new(&old);
        let mut shallow = AuthConfig::new(key());
        shallow.replay_window = 8;
        let mut shallow_rx = AuthReceiver::new(&shallow).unwrap();
        old_tx.seal_into(&frame(100).1, &mut sealed).unwrap();
        shallow_rx.open(&sealed).unwrap();
        let stale_copy = sealed.clone();
        for i in 1..=8_u16 {
            old_tx.seal_into(&frame(100 + i).1, &mut sealed).unwrap();
            shallow_rx.open(&sealed).unwrap();
        }
        assert!(matches!(
            shallow_rx.open(&stale_copy),
            Err(RfError::AuthReject {
                reason: "stale nonce"
            })
        ));
        assert_eq!(shallow_rx.stats().stale, 1);
    }

    #[test]
    fn out_of_order_delivery_within_the_window_is_accepted() {
        // ARQ retransmissions arrive late; their nonce was never
        // accepted, so the window must admit them.
        let (mut tx, mut rx) = pair();
        let mut held = Vec::new();
        let mut sealed = Vec::new();
        tx.seal_into(&frame(0).1, &mut held).unwrap();
        for seq in 1..10_u16 {
            tx.seal_into(&frame(seq).1, &mut sealed).unwrap();
            rx.open(&sealed).unwrap();
        }
        // Sequence 0 arrives after 1..9: late but fresh.
        assert!(rx.open(&held).is_ok());
        assert_eq!(rx.stats().accepted, 10);
        assert_eq!(rx.stats().replayed + rx.stats().stale, 0);
    }

    #[test]
    fn config_validation_bounds_the_window() {
        let mut config = AuthConfig::new(key());
        assert!(config.validate().is_ok());
        config.replay_window = 1;
        assert!(config.validate().is_err());
        config.replay_window = MAX_REPLAY_WINDOW + 1;
        assert!(config.validate().is_err());
        assert!(AuthReceiver::new(&config).is_err());
    }

    #[test]
    fn sender_rejects_malformed_inner_packets() {
        let (mut tx, _) = pair();
        let mut out = Vec::new();
        assert!(tx.seal_into(&[0; 4], &mut out).is_err());
        let mut bad_magic = frame(0).1;
        bad_magic[0] ^= 0xFF;
        assert!(tx.seal_into(&bad_magic, &mut out).is_err());
        assert_eq!(tx.sealed(), 0);
    }

    #[test]
    fn key_expansion_is_deterministic_and_id_sensitive() {
        assert_eq!(AuthKey::from_seed(1, 0), AuthKey::from_seed(1, 0));
        assert_ne!(AuthKey::from_seed(1, 0).key, AuthKey::from_seed(2, 0).key);
        assert_ne!(
            AuthKey::from_seed(1, 0).key_id,
            AuthKey::from_seed(1, 1).key_id
        );
    }
}
