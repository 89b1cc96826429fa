//! # MINDFUL decode — classical BCI decoding baselines
//!
//! The linear decoders the paper positions DNNs against (Section 2.3):
//! a Kalman filter with a fitted cosine-tuning observation model, a
//! Wiener (ridge-regression) decoder, and the hardware-friendly spike
//! detection + channel-dropout pipeline behind the `ChDr` optimization
//! of Section 6.2.
//!
//! ## Quick start
//!
//! ```
//! use mindful_decode::prelude::*;
//!
//! // Calibrate a Kalman decoder on a toy linear session.
//! let intents: Vec<(f64, f64)> =
//!     (0..200).map(|k| ((k as f64 * 0.05).sin(), (k as f64 * 0.08).cos())).collect();
//! let obs: Vec<Vec<f64>> = intents
//!     .iter()
//!     .map(|&(x, y)| vec![1.0 + x, 1.0 - x + y, 0.5 * y])
//!     .collect();
//! let mut decoder = KalmanDecoder::calibrate(&obs, &intents)?;
//! let decoded = decoder.decode(&obs)?;
//! assert_eq!(decoded.len(), 200);
//! # Ok::<(), mindful_decode::DecodeError>(())
//! ```

pub mod binning;
mod error;
pub mod kalman;
pub mod linalg;
pub mod spike;
pub mod wiener;

pub use error::{DecodeError, Result};

/// Convenient glob-import of the most used items.
pub mod prelude {
    pub use crate::binning::BinAccumulator;
    pub use crate::kalman::{correlation, KalmanDecoder};
    pub use crate::linalg::{Mat2, Vec2};
    pub use crate::spike::{select_active_channels, SpikeDetector};
    pub use crate::wiener::WienerDecoder;
    pub use crate::{DecodeError, Result};
}
