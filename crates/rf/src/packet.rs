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
/// The payload is sized once and packed in place, 32 bits per store,
/// rather than pushed a byte at a time; the wire bytes are those of
/// the byte-at-a-time packer (pinned by a test oracle for every width
/// and tail length).
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
    if let Some(&bad) = samples.iter().find(|&&s| s > limit) {
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
    pack_msb_first(samples, sample_bits, &mut out[HEADER_BYTES..]);

    let crc = crc16(out);
    out.extend_from_slice(&crc.to_be_bytes());
    Ok(())
}

/// Bit-packs `samples` MSB-first into `payload`, which must be exactly
/// `ceil(len · bits / 8)` bytes. Samples shift into a u64 accumulator
/// that is written out 32 bits at a time; the bytes the last partial
/// word touches follow, its final bits zero-padded.
fn pack_msb_first(samples: &[u16], sample_bits: u8, payload: &mut [u8]) {
    let bits = u32::from(sample_bits);
    let full_words = samples.len() * usize::from(sample_bits) / 32;
    let (body, tail) = payload.split_at_mut(4 * full_words);
    let mut words = body.chunks_exact_mut(4);
    let mut acc: u64 = 0;
    let mut acc_bits: u32 = 0;
    for &s in samples {
        // At most 31 + 16 bits are pending, so nothing is lost.
        acc = (acc << bits) | u64::from(s);
        acc_bits += bits;
        if acc_bits >= 32 {
            acc_bits -= 32;
            // `body` holds one word per 32 bits shifted in, so this
            // is always `Some`.
            if let Some(word) = words.next() {
                word.copy_from_slice(&((acc >> acc_bits) as u32).to_be_bytes());
            }
        }
    }
    // Fewer than 32 bits remain: left-align them in a word and write
    // the bytes they touch.
    let last = ((acc << (32 - acc_bits)) as u32).to_be_bytes();
    tail.copy_from_slice(&last[..tail.len()]);
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

    let payload = &body[HEADER_BYTES..];
    samples.clear();
    samples.reserve(channels);
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
        let mask = if sample_bits == 16 {
            0xFFFF
        } else {
            (1_u32 << sample_bits) - 1
        };
        samples.push(((acc >> acc_bits) & mask) as u16);
    }
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

    /// The byte-at-a-time MSB-first packer the word writer replaced,
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
