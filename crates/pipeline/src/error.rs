//! Error type for the streaming pipeline.

use core::fmt;

use crate::frame::FrameKind;

/// Errors produced while composing or driving a pipeline.
#[derive(Debug)]
#[non_exhaustive]
pub enum PipelineError {
    /// A signal-substrate error from a sensing stage.
    Signal(mindful_signal::SignalError),
    /// A decoder error from a spike/bin/Kalman stage.
    Decode(mindful_decode::DecodeError),
    /// A DNN error from an inference stage.
    Dnn(mindful_dnn::DnnError),
    /// An RF error from a packetizing stage.
    Rf(mindful_rf::RfError),
    /// A stage received a frame variant it cannot consume.
    UnexpectedFrame {
        /// The stage that rejected the frame.
        stage: &'static str,
        /// The frame variant it received.
        actual: FrameKind,
    },
    /// The pipeline has no stages.
    Empty,
    /// The fleet is at capacity and cannot admit another session.
    FleetSaturated {
        /// The fleet's configured session capacity.
        capacity: usize,
    },
    /// No live session has this id (never admitted, or already
    /// evicted).
    UnknownSession {
        /// The id that failed to resolve.
        id: u64,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Signal(e) => write!(f, "{e}"),
            Self::Decode(e) => write!(f, "{e}"),
            Self::Dnn(e) => write!(f, "{e}"),
            Self::Rf(e) => write!(f, "{e}"),
            Self::UnexpectedFrame { stage, actual } => {
                write!(f, "stage {stage} cannot consume a {actual} frame")
            }
            Self::Empty => write!(f, "pipeline has no stages"),
            Self::FleetSaturated { capacity } => {
                write!(f, "fleet is saturated at {capacity} sessions")
            }
            Self::UnknownSession { id } => write!(f, "no live session with id {id}"),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Signal(e) => Some(e),
            Self::Decode(e) => Some(e),
            Self::Dnn(e) => Some(e),
            Self::Rf(e) => Some(e),
            Self::UnexpectedFrame { .. }
            | Self::Empty
            | Self::FleetSaturated { .. }
            | Self::UnknownSession { .. } => None,
        }
    }
}

macro_rules! from_error {
    ($variant:ident, $ty:ty) => {
        impl From<$ty> for PipelineError {
            fn from(e: $ty) -> Self {
                Self::$variant(e)
            }
        }
    };
}

from_error!(Signal, mindful_signal::SignalError);
from_error!(Decode, mindful_decode::DecodeError);
from_error!(Dnn, mindful_dnn::DnnError);
from_error!(Rf, mindful_rf::RfError);

/// Convenience alias for results in this crate.
pub type Result<T, E = PipelineError> = core::result::Result<T, E>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_display_and_sources() {
        let e: PipelineError = mindful_signal::SignalError::Empty { what: "steps" }.into();
        assert!(std::error::Error::source(&e).is_some());
        assert!(!e.to_string().is_empty());
        let e = PipelineError::UnexpectedFrame {
            stage: "kalman",
            actual: FrameKind::Bytes,
        };
        assert!(e.to_string().contains("kalman"));
        assert!(std::error::Error::source(&e).is_none());
        assert!(PipelineError::Empty.to_string().contains("no stages"));
    }

    #[test]
    fn error_is_send_sync() {
        fn check<T: std::error::Error + Send + Sync + 'static>() {}
        check::<PipelineError>();
    }
}
