//! The paper's BCI workload models (Section 5.3).
//!
//! Two speech-synthesis decoders in the style of Berezutskaya et al.,
//! originally designed for 128 ECoG channels sampled at 2 kHz with 40
//! output labels (speech frequencies):
//!
//! * **MLP** — a multi-layer perceptron with a wide first layer, a
//!   bottleneck, and a stack of equal-width hidden blocks.
//! * **DN-CNN** — a DenseNet-style 1-D CNN over a short time window,
//!   with three dense blocks separated by transition convolutions and
//!   pooling.
//!
//! As the neural interface scales to `n` channels, both models scale by
//! `α = n / 128`: every layer width (and the DenseNet growth rate)
//! multiplies by `α`, and the depth grows by `⌊α/4⌋` extra hidden blocks
//! — the super-linear growth ("curse of dimensionality") at the heart of
//! the paper's computation-centric analysis. The exact layer tables of
//! the original networks are not published; these parameterizations are
//! the documented substitution of `DESIGN.md` §3.5, calibrated so the
//! Fig. 10 crossovers land where the paper reports them.

use core::fmt;

use mindful_core::units::{Frequency, TimeSpan};

use crate::arch::{Architecture, LayerSpec};
use crate::error::{DnnError, Result};

/// The channel count both models were originally designed for.
pub const BASE_CHANNELS: u64 = 128;

/// The application sampling rate of the original models (2 kHz ECoG).
pub const APPLICATION_RATE: Frequency = Frequency::from_kilohertz(2.0);

/// Output labels (speech frequencies) of both models.
pub const OUTPUT_LABELS: u64 = 40;

/// Time-window positions the DN-CNN convolves over.
pub const CNN_WINDOW: u64 = 8;

/// The two evaluated model families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelFamily {
    /// Multi-layer perceptron.
    Mlp,
    /// DenseNet-style convolutional network.
    DnCnn,
}

impl ModelFamily {
    /// Both families, in the order the paper plots them.
    pub const ALL: [Self; 2] = [Self::Mlp, Self::DnCnn];

    /// The width/depth scaling factor `α = n / base` (Section 5.3).
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::BelowBaseChannels`] for `channels <
    /// BASE_CHANNELS` — the paper only scales upward.
    pub(crate) fn alpha(channels: u64) -> Result<f64> {
        if channels < BASE_CHANNELS {
            return Err(DnnError::BelowBaseChannels {
                requested: channels,
                base: BASE_CHANNELS,
            });
        }
        Ok(channels as f64 / BASE_CHANNELS as f64)
    }

    /// The real-time deadline for one inference: the application's
    /// sampling period (the models emit one output vector per 2 kHz
    /// sample).
    #[must_use]
    pub fn deadline(&self) -> TimeSpan {
        APPLICATION_RATE.period()
    }

    /// Builds the α-scaled architecture for an NI with `channels`
    /// channels.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::BelowBaseChannels`] for `channels` below the
    /// 128-channel base.
    pub fn architecture(&self, channels: u64) -> Result<Architecture> {
        let mut layers = Vec::new();
        self.layers_into(channels, &mut layers)?;
        Architecture::new(format!("{self}@{channels}"), layers)
    }

    /// Writes the α-scaled layer table for `channels` into `layers`
    /// (cleared first), so a search over channel counts can reuse one
    /// buffer. The table is the one [`Self::architecture`] validates.
    pub(crate) fn layers_into(&self, channels: u64, layers: &mut Vec<LayerSpec>) -> Result<()> {
        let alpha = Self::alpha(channels)?;
        layers.clear();
        match self {
            Self::Mlp => build_mlp(channels, alpha, layers),
            Self::DnCnn => build_dn_cnn(channels, alpha, layers),
        }
        Ok(())
    }

    /// Extra hidden blocks added by depth scaling at a given α.
    #[must_use]
    pub(crate) fn extra_depth(alpha: f64) -> u64 {
        (alpha / 4.0).floor() as u64
    }
}

impl fmt::Display for ModelFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Mlp => f.write_str("MLP"),
            Self::DnCnn => f.write_str("DN-CNN"),
        }
    }
}

/// Scales a base width by α, rounding to at least 1.
fn scaled(base: u64, alpha: f64) -> u64 {
    ((base as f64 * alpha).round() as u64).max(1)
}

/// MLP: `n → 1024α → 256α → (4 + ⌊α/4⌋) × [256α → 256α] → 40`.
fn build_mlp(channels: u64, alpha: f64, layers: &mut Vec<LayerSpec>) {
    let wide = scaled(1024, alpha);
    let hidden = scaled(256, alpha);
    let blocks = 4 + ModelFamily::extra_depth(alpha);
    layers.extend([
        LayerSpec::Dense {
            inputs: channels,
            outputs: wide,
        },
        LayerSpec::Dense {
            inputs: wide,
            outputs: hidden,
        },
    ]);
    for _ in 0..blocks {
        layers.push(LayerSpec::Dense {
            inputs: hidden,
            outputs: hidden,
        });
    }
    layers.push(LayerSpec::Dense {
        inputs: hidden,
        outputs: OUTPUT_LABELS,
    });
}

/// DN-CNN: stem conv + three dense blocks (growth 32α) with transition
/// conv + pool between them, then a global pool and a dense classifier.
fn build_dn_cnn(channels: u64, alpha: f64, layers: &mut Vec<LayerSpec>) {
    let c0 = scaled(128, alpha);
    let growth = scaled(32, alpha);
    let half = scaled(128, alpha);
    layers.push(LayerSpec::Conv1d {
        in_channels: channels,
        out_channels: c0,
        kernel: 3,
        positions: CNN_WINDOW,
    });

    // Block 1 at the full window.
    let mut c = c0;
    for _ in 0..4 {
        layers.push(LayerSpec::DenseConv1d {
            in_channels: c,
            growth,
            kernel: 3,
            positions: CNN_WINDOW,
        });
        c += growth;
    }
    // Transition 1: 1x1 conv halving channels, pool halving positions.
    layers.push(LayerSpec::Conv1d {
        in_channels: c,
        out_channels: half,
        kernel: 1,
        positions: CNN_WINDOW,
    });
    layers.push(LayerSpec::Pool1d {
        channels: half,
        in_positions: CNN_WINDOW,
        out_positions: CNN_WINDOW / 2,
    });

    // Block 2 at half the window.
    c = half;
    for _ in 0..4 {
        layers.push(LayerSpec::DenseConv1d {
            in_channels: c,
            growth,
            kernel: 3,
            positions: CNN_WINDOW / 2,
        });
        c += growth;
    }
    layers.push(LayerSpec::Conv1d {
        in_channels: c,
        out_channels: half,
        kernel: 1,
        positions: CNN_WINDOW / 2,
    });
    layers.push(LayerSpec::Pool1d {
        channels: half,
        in_positions: CNN_WINDOW / 2,
        out_positions: CNN_WINDOW / 4,
    });

    // Block 3 at a quarter window, with depth scaling.
    c = half;
    for _ in 0..(4 + ModelFamily::extra_depth(alpha)) {
        layers.push(LayerSpec::DenseConv1d {
            in_channels: c,
            growth,
            kernel: 3,
            positions: CNN_WINDOW / 4,
        });
        c += growth;
    }

    // Head: global average pool + classifier.
    layers.push(LayerSpec::Pool1d {
        channels: c,
        in_positions: CNN_WINDOW / 4,
        out_positions: 1,
    });
    layers.push(LayerSpec::Dense {
        inputs: c,
        outputs: OUTPUT_LABELS,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_models_have_expected_shapes() {
        for family in ModelFamily::ALL {
            let arch = family.architecture(BASE_CHANNELS).unwrap();
            assert_eq!(arch.output_values(), OUTPUT_LABELS, "{family}");
            match family {
                ModelFamily::Mlp => assert_eq!(arch.input_values(), 128),
                ModelFamily::DnCnn => assert_eq!(arch.input_values(), 128 * CNN_WINDOW),
            }
        }
    }

    #[test]
    fn alpha_computation() {
        assert!((ModelFamily::alpha(128).unwrap() - 1.0).abs() < 1e-12);
        assert!((ModelFamily::alpha(1024).unwrap() - 8.0).abs() < 1e-12);
        assert!((ModelFamily::alpha(192).unwrap() - 1.5).abs() < 1e-12);
        assert!(matches!(
            ModelFamily::alpha(64),
            Err(DnnError::BelowBaseChannels {
                requested: 64,
                base: 128
            })
        ));
    }

    #[test]
    fn deadline_is_application_period() {
        for family in ModelFamily::ALL {
            assert!((family.deadline().microseconds() - 500.0).abs() < 1e-9);
        }
    }

    #[test]
    fn mlp_macs_grow_superlinearly() {
        // MACs ∝ α² (plus depth growth): quadrupling channels must more
        // than quadruple MACs.
        let m1 = ModelFamily::Mlp.architecture(1024).unwrap().macs() as f64;
        let m4 = ModelFamily::Mlp.architecture(4096).unwrap().macs() as f64;
        assert!(m4 / m1 > 4.0, "ratio {}", m4 / m1);
        assert!(m4 / m1 > 14.0, "close to quadratic: {}", m4 / m1);
    }

    #[test]
    fn dn_cnn_is_heavier_than_mlp() {
        // Fig. 10: the DN-CNN crosses the budget earlier than the MLP.
        for n in [1024_u64, 2048, 4096] {
            let mlp = ModelFamily::Mlp.architecture(n).unwrap().macs();
            let cnn = ModelFamily::DnCnn.architecture(n).unwrap().macs();
            assert!(cnn > mlp, "at {n}: cnn {cnn} vs mlp {mlp}");
        }
    }

    #[test]
    fn mlp_macs_match_closed_form_at_1024() {
        // α = 8, blocks = 4 + 2 = 6:
        // 1024·8192 + 8192·2048 + 6·2048² + 2048·40.
        let arch = ModelFamily::Mlp.architecture(1024).unwrap();
        let expected = 1024 * 8192 + 8192 * 2048 + 6 * 2048 * 2048 + 2048 * 40;
        assert_eq!(arch.macs(), expected);
    }

    #[test]
    fn depth_scaling_adds_blocks() {
        assert_eq!(ModelFamily::extra_depth(1.0), 0);
        assert_eq!(ModelFamily::extra_depth(4.0), 1);
        assert_eq!(ModelFamily::extra_depth(8.0), 2);
        assert_eq!(ModelFamily::extra_depth(16.0), 4);
        let shallow = ModelFamily::Mlp.architecture(128).unwrap();
        let deep = ModelFamily::Mlp.architecture(2048).unwrap();
        assert_eq!(deep.len() - shallow.len(), 4); // α = 16 → +4 blocks
    }

    #[test]
    fn architectures_chain_correctly_at_odd_channel_counts() {
        // Width rounding must never break layer chaining.
        for n in [128_u64, 129, 200, 1000, 1024, 3000, 8192] {
            for family in ModelFamily::ALL {
                let arch = family.architecture(n).unwrap();
                assert_eq!(arch.output_values(), OUTPUT_LABELS, "{family}@{n}");
                assert!(arch.workload().is_ok(), "{family}@{n}");
            }
        }
    }

    #[test]
    fn dn_cnn_intermediate_outputs_are_large() {
        // Section 6.1: intermediate DN-CNN activations are larger than the
        // final output, which is why partitioning does not help it.
        let arch = ModelFamily::DnCnn.architecture(2048).unwrap();
        let worst = arch
            .layers()
            .iter()
            .map(LayerSpec::output_values)
            .max()
            .unwrap();
        assert!(worst > 100 * OUTPUT_LABELS);
    }

    #[test]
    fn display_names() {
        assert_eq!(ModelFamily::Mlp.to_string(), "MLP");
        assert_eq!(ModelFamily::DnCnn.to_string(), "DN-CNN");
        let arch = ModelFamily::Mlp.architecture(256).unwrap();
        assert!(arch.name().contains("MLP@256"));
    }
}
