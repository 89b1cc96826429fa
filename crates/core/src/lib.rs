//! # MINDFUL core — analytical framework for implantable BCI SoCs
//!
//! A Rust implementation of the analytical framework from *MINDFUL: Safe,
//! Implantable, Large-Scale Brain-Computer Interfaces from a System-Level
//! Design Perspective* (MICRO 2025). The framework captures how the three
//! subsystems of an implanted BCI SoC — the neural interface (sensing),
//! on-chip computation, and wireless communication — trade off against
//! each other under the hard safety limit of 40 mW/cm² power density over
//! the brain-contact area.
//!
//! ## Layout
//!
//! * [`units`] — strongly-typed power/area/density/energy/rate quantities.
//! * [`budget`] — the safety power budget (Eq. 3).
//! * [`soc`] — the published SoC database (Table 1).
//! * [`scaling`] — scaling designs to the 1024-channel standard (Eq. 1,
//!   Section 4.1 special cases, Fig. 4).
//! * [`regimes`] — beyond-1024 projections under the naive / high-margin
//!   hypotheses (Sections 4.2 & 5.1, Figs. 5–6).
//! * [`throughput`] — real-time data-rate requirements (Eqs. 6–8).
//! * [`dataflow`] — communication- vs. computation-centric pipelines.
//! * [`geometry`] — channel pitch and neuron-coverage metrics.
//! * [`explore`] — design-space candidates and Pareto frontiers.
//! * [`pool`] — deterministic scoped-thread fan-out primitives shared
//!   by the sweep engine, batched DNN inference, and Monte-Carlo BER.
//! * [`sweep`] — the parallel batched sweep engine driving Figs. 5–7
//!   and 10 and the `explore` experiment.
//! * [`obs`] — zero-overhead observability: sharded metrics registry,
//!   per-thread span tracing, and snapshot exporters.
//! * [`mod@env`] — shared parsing for boolean `MINDFUL_*` environment
//!   knobs (see EXPERIMENTS.md for the knob table).
//!
//! ## Quick start
//!
//! ```
//! use mindful_core::prelude::*;
//!
//! // Scale Neuralink (SoC 3) to 1024 channels and check safety.
//! let spec = soc_by_id(3)?;
//! let scaled = scale_to_standard(&spec)?;
//! assert!(scaled.is_safe());
//!
//! // Project it to 4096 channels under the high-margin hypothesis.
//! let split = SplitDesign::from_scaled(scaled);
//! let projected = split.project(ScalingRegime::HighMargin, 4096)?;
//! // High data rates without new communication area blow the budget:
//! assert!(projected.budget_utilization() > 1.0);
//! # Ok::<(), mindful_core::CoreError>(())
//! ```

pub mod budget;
pub mod dataflow;
pub mod env;
mod error;
pub mod explore;
pub mod geometry;
pub mod obs;
pub mod pool;
pub mod regimes;
pub mod scaling;
pub mod soc;
pub mod sweep;
pub mod throughput;
pub mod units;

pub use error::{CoreError, Result};

/// Convenient glob-import of the most used items.
pub mod prelude {
    pub use crate::budget::{check_safety, power_budget, SAFE_POWER_DENSITY};
    pub use crate::dataflow::Dataflow;
    pub use crate::obs::{Registry, Snapshot};
    pub use crate::pool::{default_threads, Scheduler, TaskSlot};
    pub use crate::regimes::{ScalingRegime, SplitDesign};
    pub use crate::scaling::{scale_to_channels, scale_to_standard, ScaledSoc};
    pub use crate::soc::{published_socs, soc_by_id, wireless_socs, NiTechnology, SocSpec};
    pub use crate::sweep::{SweepGrid, SweepResult};
    pub use crate::throughput::sensing_throughput;
    pub use crate::units::{Area, DataRate, Energy, Frequency, Power, PowerDensity, TimeSpan};
    pub use crate::{CoreError, Result};
}
