//! # MINDFUL dnn — BCI decoding workloads and their on-implant cost
//!
//! The computation-centric side of the paper (Sections 5.3 and 6): the
//! MLP and DenseNet-CNN speech decoders with their α = n/128 scaling
//! rule, the `f_MAC` layer decomposition (Eq. 10), the Fig. 10
//! integration analysis (can this SoC run this model within its power
//! budget?), the Fig. 11 DNN-partitioning study, and a real `f32`
//! inference engine for end-to-end examples.
//!
//! ## Quick start
//!
//! ```
//! use mindful_core::prelude::*;
//! use mindful_dnn::prelude::*;
//!
//! // Can BISC run the full MLP decoder at 2048 channels?
//! let anchor = SplitDesign::from_scaled(scale_to_standard(&soc_by_id(1)?)?);
//! let config = IntegrationConfig::paper_45nm();
//! let point = evaluate_full(&anchor, ModelFamily::Mlp, 2048, &config)?;
//! println!("{point}");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod arch;
mod error;
pub mod infer;
pub mod integration;
pub mod kernels;
pub mod models;
pub mod partition;
pub mod quant;
pub mod simd;
pub mod snn;

pub use error::{DnnError, Result};

/// Convenient glob-import of the most used items.
pub mod prelude {
    pub use crate::arch::{Architecture, LayerSpec};
    pub use crate::infer::{Network, Workspace};
    pub use crate::integration::{
        evaluate, evaluate_full, max_active_channels, max_channels, IntegrationConfig,
    };
    pub use crate::models::{
        ModelFamily, APPLICATION_RATE, BASE_CHANNELS, CNN_WINDOW, OUTPUT_LABELS,
    };
    pub use crate::partition::{
        channel_gain, earliest_split, evaluate_partitioned, evaluate_partitioned_active,
        max_active_channels_partitioned, max_channels_partitioned, partition_gain,
    };
    pub use crate::quant::{Precision, QuantizedDense, QuantizedNetwork};
    pub use crate::simd::SimdLevel;
    pub use crate::snn::{SnnConfig, SnnNetwork};
    pub use crate::{DnnError, Result};
}
