//! Error types for the DNN workload substrate.

use core::fmt;

/// Errors produced by DNN architecture construction and analysis.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DnnError {
    /// A layer or network dimension was zero.
    EmptyDimension {
        /// Name of the dimension.
        name: &'static str,
    },
    /// Consecutive layers disagree about the activation width.
    LayerMismatch {
        /// Output width of the earlier layer.
        produced: u64,
        /// Input width expected by the later layer.
        expected: u64,
    },
    /// The channel count is below the model's base (α < 1 is not part of
    /// the paper's scaling study).
    BelowBaseChannels {
        /// The requested channel count.
        requested: u64,
        /// The model's base channel count.
        base: u64,
    },
    /// More channels feed the decoder than the interface records
    /// (channel dropout can only drop channels).
    ActiveAboveChannels {
        /// The requested active channel count.
        active: u64,
        /// The interface's total channel count.
        channels: u64,
    },
    /// The model cannot fit the SoC at the requested operating point.
    Infeasible {
        /// Human-readable description.
        reason: String,
    },
    /// An input vector had the wrong width during inference.
    ShapeMismatch {
        /// Expected width.
        expected: usize,
        /// Provided width.
        actual: usize,
    },
    /// An error from the accelerator substrate.
    Accel(mindful_accel::AccelError),
    /// An error from the core framework.
    Core(mindful_core::CoreError),
}

impl fmt::Display for DnnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptyDimension { name } => write!(f, "dimension `{name}` must be nonzero"),
            Self::LayerMismatch { produced, expected } => write!(
                f,
                "layer mismatch: previous layer produces {produced} values, next expects {expected}"
            ),
            Self::BelowBaseChannels { requested, base } => write!(
                f,
                "channel count {requested} is below the model's base of {base}"
            ),
            Self::ActiveAboveChannels { active, channels } => write!(
                f,
                "active channel count {active} exceeds the interface's {channels} channels"
            ),
            Self::Infeasible { reason } => write!(f, "infeasible: {reason}"),
            Self::ShapeMismatch { expected, actual } => {
                write!(f, "shape mismatch: expected {expected}, got {actual}")
            }
            Self::Accel(e) => write!(f, "{e}"),
            Self::Core(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DnnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Accel(e) => Some(e),
            Self::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<mindful_accel::AccelError> for DnnError {
    fn from(e: mindful_accel::AccelError) -> Self {
        Self::Accel(e)
    }
}

impl From<mindful_core::CoreError> for DnnError {
    fn from(e: mindful_core::CoreError) -> Self {
        Self::Core(e)
    }
}

/// Convenience alias for results in this crate.
pub type Result<T, E = DnnError> = core::result::Result<T, E>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        assert!(DnnError::EmptyDimension { name: "width" }
            .to_string()
            .contains("width"));
        assert!(DnnError::BelowBaseChannels {
            requested: 64,
            base: 128
        }
        .to_string()
        .contains("128"));
        assert_eq!(
            DnnError::ActiveAboveChannels {
                active: 4096,
                channels: 2048
            }
            .to_string(),
            "active channel count 4096 exceeds the interface's 2048 channels"
        );
    }

    #[test]
    fn sources_chain() {
        let e = DnnError::from(mindful_accel::AccelError::EmptyWorkload);
        assert!(std::error::Error::source(&e).is_some());
        let e = DnnError::from(mindful_core::CoreError::ZeroChannels);
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn check<T: std::error::Error + Send + Sync + 'static>() {}
        check::<DnnError>();
    }
}
