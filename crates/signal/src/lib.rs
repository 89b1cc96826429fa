//! # MINDFUL signal — synthetic neural-interface substrate
//!
//! In-vivo recordings are not available, so this crate generates them:
//! a population of cosine-tuned leaky integrate-and-fire neurons driven
//! by a latent behavioural intent, sensed by a micro-electrode grid with
//! distance-decay mixing, LFP, and AFE noise, then digitized by a
//! saturating `d`-bit ADC — the exact sensing pipeline of Fig. 3. The
//! latent intent gives downstream decoders (Kalman filter, DNNs) a
//! ground truth to recover.
//!
//! ## Quick start
//!
//! ```
//! use mindful_signal::prelude::*;
//!
//! let mut ni = NeuralInterface::new(8, 200, 10, 42)?; // 64 channels
//! let frame = ni.sample(Intent::new(0.5, -0.2))?;
//! assert_eq!(frame.samples.len(), 64);
//! # Ok::<(), mindful_signal::SignalError>(())
//! ```

pub mod adc;
pub(crate) mod electrode;
mod error;
pub mod interface;
pub mod neuron;
pub mod stats;

pub use error::{Result, SignalError};

/// Convenient glob-import of the most used items.
pub mod prelude {
    pub use crate::adc::Adc;
    pub use crate::interface::{NeuralFrame, NeuralInterface};
    pub use crate::neuron::{trajectory_intent, Intent, Neuron, Population};
    pub use crate::stats::train_stats;
    pub use crate::{Result, SignalError};
}
