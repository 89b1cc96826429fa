//! # MINDFUL pipeline — the unified streaming implant dataflow
//!
//! The paper's Fig. 3 describes the implant as one dataflow — sensing →
//! digitization → (packetize | decode | infer) → wireless — but each of
//! those kernels lives in its own crate. This crate composes them: a
//! [`Stage`] is one step of the dataflow with caller-provided buffers,
//! a [`Pipeline`] chains stages so a frame flows through the whole
//! implant with **zero heap allocations after warm-up** (the property
//! an actual implant's fixed-memory firmware must have, proven here by
//! a counting-allocator test), and the [`serve`] module's [`Fleet`]
//! serves many such pipelines on the host: sessions are admitted and
//! evicted at runtime, scheduled fairly over a shared
//! [`mindful_core::pool::Scheduler`], held to a per-session
//! backpressure bound, and load-shed into their concealment stages
//! when oversubscribed. A fleet with the default config and one class
//! is the plain multi-stream driver: admit one session per stream,
//! request each stream's steps, and drive one epoch.
//!
//! Buffer ownership follows one rule: every stage *owns its output
//! buffer* (inside the pipeline's per-stage slot) and *borrows its
//! input* from the previous stage. Stages never hold references across
//! `process` calls, so the pipeline can hand each stage a view of the
//! previous slot's buffer without copies.
//!
//! ## Quick start
//!
//! ```
//! use mindful_pipeline::prelude::*;
//!
//! // Fig. 3 (top): sense 64 channels, packetize every frame.
//! let mut pipeline = Pipeline::new()
//!     .with_stage(SenseStage::new(8, 200, 10, 42, IntentSchedule::FigureEight)?)
//!     .with_stage(PacketizeStage::new(10)?);
//! let wire = pipeline.step()?.expect("packetizer emits every frame");
//! assert_eq!(wire.kind(), FrameKind::Bytes);
//! # Ok::<(), mindful_pipeline::PipelineError>(())
//! ```

mod error;
mod fault;
mod frame;
pub mod obs;
mod secure;
pub mod serve;
mod stage;
mod stages;

pub use error::{PipelineError, Result};
pub use fault::{ConcealStage, DegradePolicy, FaultStage, FaultTelemetry, LinkStage};
pub use frame::{Frame, FrameBuf, FrameKind, StageOutput};
pub use mindful_dnn::quant::Precision;
pub use secure::{FirewallConfig, FirewallStage, SecureTelemetry};
pub use serve::{
    ClassReport, Fleet, FleetConfig, PriorityClass, SessionId, SessionReport, SessionSpec,
};
pub use stage::{Pipeline, Stage, StageTelemetry};
pub use stages::{
    BinStage, DnnStage, IntentSchedule, KalmanStage, PacketizeStage, ReplaySource, SenseStage,
    SpikeStage,
};

/// Convenient glob-import of the most used items.
pub mod prelude {
    pub use crate::fault::{ConcealStage, DegradePolicy, FaultStage, FaultTelemetry, LinkStage};
    pub use crate::secure::{FirewallConfig, FirewallStage, SecureTelemetry};
    pub use crate::serve::{Fleet, FleetConfig, PriorityClass, SessionId, SessionSpec};
    pub use crate::stages::{
        BinStage, DnnStage, IntentSchedule, KalmanStage, PacketizeStage, ReplaySource, SenseStage,
        SpikeStage,
    };
    pub use crate::{
        Frame, FrameBuf, FrameKind, Pipeline, PipelineError, Precision, Result, Stage, StageOutput,
        StageTelemetry,
    };
}
