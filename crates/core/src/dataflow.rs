//! Implant dataflow strategies (Section 3.1, Fig. 3).
//!
//! Every implanted SoC pipes data from the neural interface to the
//! wireless transceiver. The paper distinguishes two strategies by where
//! the data volume is reduced:
//!
//! * **Communication-centric** — on-implant computation is limited to
//!   packetization (`n_out ≈ n`); the transceiver carries the full raw
//!   rate.
//! * **Computation-centric** — application-level processing runs on the
//!   implant, transmitting only its (much smaller) output.

use core::fmt;

use crate::throughput::{communication_centric_rate, computation_centric_rate};
use crate::units::{DataRate, Frequency};

/// Where the implant reduces its data volume (Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum Dataflow {
    /// Digitize, packetize, transmit everything.
    CommunicationCentric,
    /// Run application computation on the implant and transmit only
    /// `outputs` values per inference at `output_rate`.
    ComputationCentric {
        /// Number of output values produced per inference (`n_out`).
        outputs: u64,
        /// Rate at which inference results are produced.
        output_rate: Frequency,
    },
}

impl Dataflow {
    /// The wireless data rate this dataflow requires for an implant with
    /// `channels` channels sampled at `sampling` with `sample_bits`-bit
    /// samples (Eqs. 7–8).
    ///
    /// # Examples
    ///
    /// ```
    /// use mindful_core::dataflow::Dataflow;
    /// use mindful_core::units::Frequency;
    ///
    /// let f = Frequency::from_kilohertz(8.0);
    /// let raw = Dataflow::CommunicationCentric.required_rate(1024, 10, f);
    /// let reduced = Dataflow::ComputationCentric {
    ///     outputs: 40,
    ///     output_rate: Frequency::from_hertz(100.0),
    /// }
    /// .required_rate(1024, 10, f);
    /// assert!(reduced.bits_per_second() < raw.bits_per_second() / 100.0);
    /// ```
    #[must_use]
    pub fn required_rate(&self, channels: u64, sample_bits: u8, sampling: Frequency) -> DataRate {
        match *self {
            Self::CommunicationCentric => {
                communication_centric_rate(channels, sample_bits, sampling)
            }
            Self::ComputationCentric {
                outputs,
                output_rate,
            } => computation_centric_rate(outputs, sample_bits, output_rate),
        }
    }
}

impl fmt::Display for Dataflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::CommunicationCentric => f.write_str("communication-centric"),
            Self::ComputationCentric { outputs, .. } => {
                write!(f, "computation-centric ({outputs} outputs)")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn communication_centric_carries_raw_rate() {
        let rate =
            Dataflow::CommunicationCentric.required_rate(1024, 10, Frequency::from_kilohertz(8.0));
        assert!((rate.megabits_per_second() - 81.92).abs() < 1e-9);
    }

    #[test]
    fn computation_centric_is_independent_of_channels() {
        let flow = Dataflow::ComputationCentric {
            outputs: 40,
            output_rate: Frequency::from_hertz(50.0),
        };
        let f = Frequency::from_kilohertz(8.0);
        let a = flow.required_rate(1024, 10, f);
        let b = flow.required_rate(8192, 10, f);
        assert_eq!(a, b);
        assert!((a.bits_per_second() - 20_000.0).abs() < 1e-6);
    }

    #[test]
    fn display_names() {
        assert_eq!(
            Dataflow::CommunicationCentric.to_string(),
            "communication-centric"
        );
        let flow = Dataflow::ComputationCentric {
            outputs: 40,
            output_rate: Frequency::from_hertz(50.0),
        };
        assert_eq!(flow.to_string(), "computation-centric (40 outputs)");
    }
}
