//! Neural-data packetization — the only computation a
//! communication-centric implant performs (Section 3.1).
//!
//! Digitized `d`-bit samples from all channels are bit-packed into frames
//! with a small header (sequence number, channel count, sample width) and
//! a CRC-16 so the wearable can detect corrupted frames. The format is
//! deliberately minimal: implants have no memory to spare for
//! retransmission buffers, so corrupted frames are simply dropped.

use crate::error::{Result, RfError};

/// Frame marker that starts every packet.
pub(crate) const PACKET_MAGIC: u16 = 0xBC1D;

/// Header size in bytes: magic(2) + seq(2) + channels(2) + bits(1).
pub const HEADER_BYTES: usize = 7;

/// Trailer size in bytes: CRC-16.
pub const TRAILER_BYTES: usize = 2;

/// Calls `$group::<BITS>($args…)` with `BITS` the constant equal to
/// `$bits` (validated to lie in `1..=16`), so every shift inside the
/// group codec is by a constant.
macro_rules! with_const_bits {
    ($bits:expr, $group:ident($($arg:expr),*)) => {
        match $bits {
            1 => $group::<1>($($arg),*),
            2 => $group::<2>($($arg),*),
            3 => $group::<3>($($arg),*),
            4 => $group::<4>($($arg),*),
            5 => $group::<5>($($arg),*),
            6 => $group::<6>($($arg),*),
            7 => $group::<7>($($arg),*),
            8 => $group::<8>($($arg),*),
            9 => $group::<9>($($arg),*),
            10 => $group::<10>($($arg),*),
            11 => $group::<11>($($arg),*),
            12 => $group::<12>($($arg),*),
            13 => $group::<13>($($arg),*),
            14 => $group::<14>($($arg),*),
            15 => $group::<15>($($arg),*),
            16 => $group::<16>($($arg),*),
            _ => unreachable!("sample width validated to 1..=16"),
        }
    };
}

/// Packs one frame of per-channel samples into a wire packet.
///
/// `samples[c]` is the digitized value of channel `c`; each must fit in
/// `sample_bits` bits. The layout is:
///
/// ```text
/// | magic:16 | seq:16 | channels:16 | sample_bits:8 | payload … | crc:16 |
/// ```
///
/// # Errors
///
/// * [`RfError::InvalidParameter`] if `sample_bits` is 0 or above 16, if
///   `samples` is empty or longer than `u16::MAX`, or if any sample
///   overflows the bit width.
///
/// # Examples
///
/// ```
/// use mindful_rf::packet::{packetize, depacketize};
///
/// let samples: Vec<u16> = (0..1024).map(|c| (c % 997) as u16).collect();
/// let wire = packetize(42, &samples, 10)?;
/// let frame = depacketize(&wire)?;
/// assert_eq!(frame.sequence, 42);
/// assert_eq!(frame.samples, samples);
/// # Ok::<(), mindful_rf::RfError>(())
/// ```
pub fn packetize(sequence: u16, samples: &[u16], sample_bits: u8) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    packetize_into(sequence, samples, sample_bits, &mut out)?;
    Ok(out)
}

/// Like [`packetize`], but writes the wire packet into `out` (cleared
/// first). Allocation-free once `out` has capacity for the wire size.
///
/// The payload is sized once and packed in place a group at a time:
/// 8 samples of `d` bits fill exactly `d` bytes, so every 8-sample
/// group starts on a byte boundary and is packed by a helper whose
/// width is a compile-time constant (one per `d` in `1..=16`, picked
/// by a single `match`), making every shift a constant one. A tail of
/// fewer than 8 samples is packed as a zero-extended group. The wire
/// bytes are those of the byte-at-a-time packer (pinned by a test
/// oracle for every width and tail length). The range check ORs the
/// whole frame without an early exit and rescans for the first
/// offender only when a sample is out of range.
///
/// # Errors
///
/// Same as [`packetize`]; on error `out` is left cleared.
pub fn packetize_into(
    sequence: u16,
    samples: &[u16],
    sample_bits: u8,
    out: &mut Vec<u8>,
) -> Result<()> {
    out.clear();
    if sample_bits == 0 || sample_bits > 16 {
        return Err(RfError::InvalidParameter {
            name: "sample bits",
            value: f64::from(sample_bits),
        });
    }
    if samples.is_empty() || samples.len() > usize::from(u16::MAX) {
        return Err(RfError::InvalidParameter {
            name: "channel count",
            value: samples.len() as f64,
        });
    }
    let limit = if sample_bits == 16 {
        u16::MAX
    } else {
        (1_u16 << sample_bits) - 1
    };
    // A sample fits iff it sets no bit above `limit`, so one OR over the
    // frame (no early exit, so it vectorises) decides the common case;
    // only a failing frame is scanned again for its first offender.
    if samples.iter().fold(0, |bits, &s| bits | s) > limit {
        let bad = samples.iter().find(|&&s| s > limit).map_or(0, |&s| s);
        return Err(RfError::InvalidParameter {
            name: "sample value",
            value: f64::from(bad),
        });
    }

    let payload_bytes = (samples.len() * usize::from(sample_bits)).div_ceil(8);
    out.reserve(HEADER_BYTES + payload_bytes + TRAILER_BYTES);
    out.extend_from_slice(&PACKET_MAGIC.to_be_bytes());
    out.extend_from_slice(&sequence.to_be_bytes());
    out.extend_from_slice(&(samples.len() as u16).to_be_bytes());
    out.push(sample_bits);
    out.resize(HEADER_BYTES + payload_bytes, 0);
    with_const_bits!(sample_bits, pack_groups(samples, &mut out[HEADER_BYTES..]));

    let crc = crc16(out);
    out.extend_from_slice(&crc.to_be_bytes());
    Ok(())
}

/// Bit-packs `samples` MSB-first into `payload`, which must be exactly
/// `ceil(len · BITS / 8)` bytes: whole groups of 8 samples, each into
/// exactly `BITS` bytes. The tail of fewer than 8 samples is packed as
/// a group zero-extended to 8 samples, of which only the bytes it
/// touches are written, so its final bits are zero-padded.
fn pack_groups<const BITS: usize>(samples: &[u16], payload: &mut [u8]) {
    let (groups, rest) = samples.as_chunks::<8>();
    let (body, tail) = payload.split_at_mut(BITS * groups.len());
    for (group, out) in groups.iter().zip(body.as_chunks_mut::<BITS>().0) {
        out.copy_from_slice(&pack_group::<BITS>(group)[16 - BITS..]);
    }
    if !rest.is_empty() {
        let mut group = [0; 8];
        group[..rest.len()].copy_from_slice(rest);
        tail.copy_from_slice(&pack_group::<BITS>(&group)[16 - BITS..][..tail.len()]);
    }
}

/// One group shifted into a `u128`, sample 0 highest, and stored
/// big-endian: the group's `BITS` wire bytes are the last `BITS`.
#[inline]
fn pack_group<const BITS: usize>(group: &[u16; 8]) -> [u8; 16] {
    group
        .iter()
        .fold(0_u128, |acc, &s| (acc << BITS) | u128::from(s))
        .to_be_bytes()
}

/// Unpacks `samples.len()` MSB-first `BITS`-bit samples from `payload`
/// (exactly `ceil(len · BITS / 8)` bytes), a whole 8-sample group —
/// `BITS` bytes — at a time; the tail group is read zero-extended.
fn unpack_groups<const BITS: usize>(payload: &[u8], samples: &mut [u16]) {
    let (groups, rest) = samples.as_chunks_mut::<8>();
    let (body, tail) = payload.split_at(BITS * groups.len());
    for (group, bytes) in groups.iter_mut().zip(body.as_chunks::<BITS>().0) {
        let mut be = [0; 16];
        be[16 - BITS..].copy_from_slice(bytes);
        *group = unpack_group::<BITS>(be);
    }
    if !rest.is_empty() {
        let mut be = [0; 16];
        be[16 - BITS..][..tail.len()].copy_from_slice(tail);
        rest.copy_from_slice(&unpack_group::<BITS>(be)[..rest.len()]);
    }
}

/// The inverse of [`pack_group`].
#[inline]
fn unpack_group<const BITS: usize>(be: [u8; 16]) -> [u16; 8] {
    let acc = u128::from_be_bytes(be);
    std::array::from_fn(|i| ((acc >> (BITS * (7 - i))) & ((1 << BITS) - 1)) as u16)
}

/// A decoded neural-data frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Frame sequence number (wraps at `u16::MAX`).
    pub sequence: u16,
    /// Sample bit width used on the wire.
    pub sample_bits: u8,
    /// Per-channel digitized samples.
    pub samples: Vec<u16>,
}

/// The fixed-size metadata of a decoded frame, as returned by the
/// buffer-reusing [`depacketize_into`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Frame sequence number (wraps at `u16::MAX`).
    pub sequence: u16,
    /// Sample bit width used on the wire.
    pub sample_bits: u8,
}

/// Parses and validates a wire packet produced by [`packetize`].
///
/// # Errors
///
/// Returns [`RfError::CorruptPacket`] when the packet is truncated, has
/// a bad magic, an invalid header, or a CRC mismatch.
pub fn depacketize(wire: &[u8]) -> Result<Frame> {
    let mut samples = Vec::new();
    let header = depacketize_into(wire, &mut samples)?;
    Ok(Frame {
        sequence: header.sequence,
        sample_bits: header.sample_bits,
        samples,
    })
}

/// Like [`depacketize`], but writes the samples into `samples` (cleared
/// after full validation) and returns only the fixed-size header.
/// Allocation-free once `samples` has capacity for the channel count.
///
/// Samples are read back a whole 8-sample, `d`-byte group at a time
/// with constant shifts, the same layout [`packetize_into`] writes; a
/// tail of fewer than 8 samples is read as a zero-extended group. A
/// test oracle pins the samples to the byte-at-a-time reader for every
/// width and length up to 1100.
///
/// Validation runs to completion — truncation, magic, header, length,
/// CRC — before a single byte of `samples` is touched, so a rejected
/// frame leaves the caller's buffer exactly as it was. This matters
/// above us: the authenticated path (`mindful_rf::auth`) promises that
/// nothing an attacker sends can perturb decoder state, and a
/// clear-before-validate here would quietly break that by letting a
/// truncated forgery wipe the previous frame.
///
/// # Errors
///
/// Same as [`depacketize`]; on error `samples` is left untouched.
pub fn depacketize_into(wire: &[u8], samples: &mut Vec<u16>) -> Result<FrameHeader> {
    if wire.len() < HEADER_BYTES + TRAILER_BYTES {
        return Err(RfError::CorruptPacket {
            reason: "truncated",
        });
    }
    let magic = u16::from_be_bytes([wire[0], wire[1]]);
    if magic != PACKET_MAGIC {
        return Err(RfError::CorruptPacket {
            reason: "bad magic",
        });
    }
    let sequence = u16::from_be_bytes([wire[2], wire[3]]);
    let channels = usize::from(u16::from_be_bytes([wire[4], wire[5]]));
    let sample_bits = wire[6];
    if sample_bits == 0 || sample_bits > 16 || channels == 0 {
        return Err(RfError::CorruptPacket {
            reason: "bad header",
        });
    }
    let payload_bytes = (channels * usize::from(sample_bits)).div_ceil(8);
    let expected = HEADER_BYTES + payload_bytes + TRAILER_BYTES;
    if wire.len() != expected {
        return Err(RfError::CorruptPacket {
            reason: "length mismatch",
        });
    }
    let (body, trailer) = wire.split_at(wire.len() - TRAILER_BYTES);
    let crc = u16::from_be_bytes([trailer[0], trailer[1]]);
    if crc != crc16(body) {
        return Err(RfError::CorruptPacket {
            reason: "crc mismatch",
        });
    }

    samples.clear();
    samples.resize(channels, 0);
    with_const_bits!(sample_bits, unpack_groups(&body[HEADER_BYTES..], samples));
    Ok(FrameHeader {
        sequence,
        sample_bits,
    })
}

/// CRC-16/CCITT-FALSE over a byte slice.
#[must_use]
pub fn crc16(data: &[u8]) -> u16 {
    let mut crc: u16 = 0xFFFF;
    for &byte in data {
        crc ^= u16::from(byte) << 8;
        for _ in 0..8 {
            crc = if crc & 0x8000 != 0 {
                (crc << 1) ^ 0x1021
            } else {
                crc << 1
            };
        }
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc16_known_vector() {
        // CRC-16/CCITT-FALSE("123456789") = 0x29B1.
        assert_eq!(crc16(b"123456789"), 0x29B1);
        assert_eq!(crc16(b""), 0xFFFF);
    }

    /// The byte-at-a-time MSB-first packer the group packer replaced,
    /// kept as the oracle for its wire bytes.
    fn packetize_bytewise(sequence: u16, samples: &[u16], sample_bits: u8) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&PACKET_MAGIC.to_be_bytes());
        out.extend_from_slice(&sequence.to_be_bytes());
        out.extend_from_slice(&(samples.len() as u16).to_be_bytes());
        out.push(sample_bits);
        let mut acc: u32 = 0;
        let mut acc_bits: u32 = 0;
        for &s in samples {
            acc = (acc << sample_bits) | u32::from(s);
            acc_bits += u32::from(sample_bits);
            while acc_bits >= 8 {
                acc_bits -= 8;
                out.push(((acc >> acc_bits) & 0xFF) as u8);
            }
        }
        if acc_bits > 0 {
            out.push(((acc << (8 - acc_bits)) & 0xFF) as u8);
        }
        let crc = crc16(&out);
        out.extend_from_slice(&crc.to_be_bytes());
        out
    }

    #[test]
    fn word_packer_matches_the_bytewise_oracle_for_every_width_and_tail() {
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut wire = Vec::new();
        for bits in 1..=16_u8 {
            let mask = if bits == 16 {
                u16::MAX
            } else {
                (1 << bits) - 1
            };
            let samples: Vec<u16> = (0..1100)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (state >> 32) as u16 & mask
                })
                .collect();
            for len in 1..=samples.len() {
                let frame = &samples[..len];
                packetize_into(len as u16, frame, bits, &mut wire).unwrap();
                assert_eq!(
                    wire,
                    packetize_bytewise(len as u16, frame, bits),
                    "bits {bits}, len {len}"
                );
            }
        }
    }

    /// The byte-at-a-time MSB-first unpacker the group reader replaced,
    /// kept as the oracle for its samples.
    fn unpack_bytewise(payload: &[u8], channels: usize, sample_bits: u8) -> Vec<u16> {
        let mask = (1_u32 << sample_bits) - 1;
        let mut samples = Vec::with_capacity(channels);
        let mut acc: u32 = 0;
        let mut acc_bits: u32 = 0;
        let mut byte_idx = 0;
        for _ in 0..channels {
            while acc_bits < u32::from(sample_bits) {
                acc = (acc << 8) | u32::from(payload[byte_idx]);
                byte_idx += 1;
                acc_bits += 8;
            }
            acc_bits -= u32::from(sample_bits);
            samples.push(((acc >> acc_bits) & mask) as u16);
        }
        samples
    }

    #[test]
    fn group_unpacker_matches_the_bytewise_oracle_for_every_width_and_tail() {
        // Random payload bytes, pad bits included, framed with a valid
        // header and CRC: the reader must agree with the oracle on every
        // byte a well-formed frame of that width and length can carry.
        let mut state = 0x2545_F491_4F6C_DD1D_u64;
        let mut payload = [0_u8; 2200];
        for byte in &mut payload {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *byte = (state >> 56) as u8;
        }
        let mut wire = Vec::new();
        let mut samples = Vec::new();
        for bits in 1..=16_u8 {
            for len in 1..=1100_usize {
                let bytes = &payload[..(len * usize::from(bits)).div_ceil(8)];
                wire.clear();
                wire.extend_from_slice(&PACKET_MAGIC.to_be_bytes());
                wire.extend_from_slice(&(len as u16).to_be_bytes());
                wire.extend_from_slice(&(len as u16).to_be_bytes());
                wire.push(bits);
                wire.extend_from_slice(bytes);
                let crc = crc16(&wire);
                wire.extend_from_slice(&crc.to_be_bytes());
                depacketize_into(&wire, &mut samples).unwrap();
                assert_eq!(
                    samples,
                    unpack_bytewise(bytes, len, bits),
                    "bits {bits}, len {len}"
                );
            }
        }
    }

    #[test]
    fn round_trip_ten_bit_samples() {
        let samples: Vec<u16> = (0..1024).map(|c| (c * 7 % 1024) as u16).collect();
        let wire = packetize(7, &samples, 10).unwrap();
        let frame = depacketize(&wire).unwrap();
        assert_eq!(frame.sequence, 7);
        assert_eq!(frame.sample_bits, 10);
        assert_eq!(frame.samples, samples);
    }

    #[test]
    fn round_trip_every_bit_width() {
        for bits in 1..=16_u8 {
            let limit = if bits == 16 {
                u16::MAX
            } else {
                (1 << bits) - 1
            };
            let samples: Vec<u16> = (0..97_u32).map(|c| (c as u16 * 31) & limit).collect();
            let wire = packetize(1, &samples, bits).unwrap();
            let frame = depacketize(&wire).unwrap();
            assert_eq!(frame.samples, samples, "bits = {bits}");
        }
    }

    #[test]
    fn wire_size_is_minimal() {
        // 1024 × 10 bits = 1280 payload bytes + 9 bytes framing.
        let samples = vec![0_u16; 1024];
        let wire = packetize(0, &samples, 10).unwrap();
        assert_eq!(wire.len(), 1280 + 9);
    }

    #[test]
    fn corrupted_bytes_are_detected() {
        let samples: Vec<u16> = (0..64).collect();
        let wire = packetize(3, &samples, 12).unwrap();
        for idx in 0..wire.len() {
            let mut bad = wire.clone();
            bad[idx] ^= 0x40;
            assert!(
                depacketize(&bad).is_err(),
                "flip at byte {idx} went undetected"
            );
        }
    }

    #[test]
    fn truncation_is_detected() {
        let samples: Vec<u16> = (0..16).collect();
        let wire = packetize(0, &samples, 8).unwrap();
        for cut in 0..wire.len() {
            assert!(depacketize(&wire[..cut]).is_err());
        }
    }

    #[test]
    fn truncated_frames_never_touch_the_output_buffer() {
        // Regression for the pre-write-validation audit: every possible
        // truncation must be rejected before any payload byte lands in
        // the caller's buffer, or the auth layer's "rejected frames are
        // side-effect free" promise breaks.
        let samples: Vec<u16> = (0..64).collect();
        let wire = packetize(11, &samples, 12).unwrap();
        let sentinel: Vec<u16> = vec![0xDEAD; 5];
        for cut in 0..wire.len() {
            let mut out = sentinel.clone();
            assert!(depacketize_into(&wire[..cut], &mut out).is_err());
            assert_eq!(out, sentinel, "cut at {cut} perturbed the buffer");
        }
    }

    #[test]
    fn corrupted_frames_never_touch_the_output_buffer() {
        let samples: Vec<u16> = (0..64).collect();
        let wire = packetize(11, &samples, 12).unwrap();
        let sentinel: Vec<u16> = vec![0xDEAD; 5];
        for idx in 0..wire.len() {
            let mut bad = wire.clone();
            bad[idx] ^= 0x40;
            let mut out = sentinel.clone();
            assert!(depacketize_into(&bad, &mut out).is_err());
            assert_eq!(out, sentinel, "flip at byte {idx} perturbed the buffer");
        }
    }

    #[test]
    fn oversized_samples_are_rejected() {
        let err = packetize(0, &[1024], 10).unwrap_err();
        assert!(matches!(
            err,
            RfError::InvalidParameter {
                name: "sample value",
                ..
            }
        ));
        assert!(packetize(0, &[1023], 10).is_ok());
    }

    #[test]
    fn the_first_out_of_range_sample_is_reported() {
        let mut samples = vec![1023_u16; 1024];
        samples[700] = 4095;
        samples[300] = 1024;
        samples[900] = u16::MAX;
        let err = packetize(0, &samples, 10).unwrap_err();
        assert!(
            matches!(err, RfError::InvalidParameter { name: "sample value", value } if value == 1024.0),
            "{err:?}"
        );
        assert!(packetize(0, &[0, 2], 1).is_err());
        assert!(packetize(0, &[u16::MAX; 9], 16).is_ok());
    }

    #[test]
    fn invalid_headers_are_rejected() {
        assert!(packetize(0, &[], 10).is_err());
        assert!(packetize(0, &[1], 0).is_err());
        assert!(packetize(0, &[1], 17).is_err());
    }

    #[test]
    fn sixteen_bit_samples_allow_full_range() {
        let samples = vec![u16::MAX, 0, 0x8000];
        let wire = packetize(9, &samples, 16).unwrap();
        assert_eq!(depacketize(&wire).unwrap().samples, samples);
    }
}
