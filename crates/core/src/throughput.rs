//! Real-time throughput requirements (Section 4.3, Eqs. 6–8).
//!
//! Neural data is sampled from all `n` channels at frequency `f` with a
//! digitized bit width `d`, producing a sensing throughput
//! `T_sensing = d · n · f` (Eq. 6). The non-sensing stages must keep up:
//! in a communication-centric design the transceiver carries the full raw
//! rate (Eq. 7); in a computation-centric design the computation reduces
//! the volume to `n_out` output values (Eq. 8).

use crate::units::{DataRate, Frequency};

/// Sensing throughput `T_sensing(n) = d · n · f` (Eq. 6).
///
/// # Examples
///
/// ```
/// use mindful_core::throughput::sensing_throughput;
/// use mindful_core::units::Frequency;
///
/// // 1024 channels × 10 bits × 8 kHz ≈ 82 Mbps (the paper's example).
/// let t = sensing_throughput(1024, 10, Frequency::from_kilohertz(8.0));
/// assert!((t.megabits_per_second() - 81.92).abs() < 1e-9);
/// ```
#[must_use]
pub fn sensing_throughput(channels: u64, sample_bits: u8, sampling: Frequency) -> DataRate {
    DataRate::from_bits_per_second(f64::from(sample_bits) * channels as f64 * sampling.hertz())
}

/// Communication throughput for a communication-centric design (Eq. 7):
/// with packetization only, `n_out ≈ n`, so the transceiver must carry the
/// full sensing rate.
#[must_use]
pub(crate) fn communication_centric_rate(
    channels: u64,
    sample_bits: u8,
    sampling: Frequency,
) -> DataRate {
    sensing_throughput(channels, sample_bits, sampling)
}

/// Communication throughput for a computation-centric design (Eq. 8):
/// the computation emits `n_out` digitized values per output period.
///
/// `output_rate` is the rate at which the computation produces result
/// vectors; for a per-sample pipeline it equals the NI sampling rate, for
/// windowed DNNs it is the inference rate (`f / window`).
#[must_use]
pub fn computation_centric_rate(outputs: u64, sample_bits: u8, output_rate: Frequency) -> DataRate {
    DataRate::from_bits_per_second(f64::from(sample_bits) * outputs as f64 * output_rate.hertz())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sensing_matches_paper_example() {
        let t = sensing_throughput(1024, 10, Frequency::from_kilohertz(8.0));
        assert!((t.megabits_per_second() - 81.92).abs() < 1e-9);
    }

    #[test]
    fn sensing_scales_linearly_in_each_factor() {
        let f = Frequency::from_kilohertz(8.0);
        let base = sensing_throughput(1024, 10, f);
        assert!((sensing_throughput(2048, 10, f) / base - 2.0).abs() < 1e-12);
        assert!((sensing_throughput(1024, 20, f) / base - 2.0).abs() < 1e-12);
        let t2 = sensing_throughput(1024, 10, Frequency::from_kilohertz(16.0));
        assert!((t2 / base - 2.0).abs() < 1e-12);
    }

    #[test]
    fn comm_centric_equals_sensing() {
        let f = Frequency::from_kilohertz(30.0);
        assert_eq!(
            communication_centric_rate(96, 16, f),
            sensing_throughput(96, 16, f)
        );
    }

    #[test]
    fn computation_centric_shrinks_traffic() {
        // 40 labels at a 2 kHz output rate vs. 128 channels raw.
        let raw = sensing_throughput(128, 10, Frequency::from_kilohertz(2.0));
        let out = computation_centric_rate(40, 10, Frequency::from_kilohertz(2.0));
        assert!(out < raw);
        assert!((raw / out - 128.0 / 40.0).abs() < 1e-12);
    }

    #[test]
    fn zero_channels_produce_zero_rate() {
        let t = sensing_throughput(0, 10, Frequency::from_kilohertz(8.0));
        assert_eq!(t, DataRate::ZERO);
    }
}
