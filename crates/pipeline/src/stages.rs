//! Concrete stages wrapping each substrate crate's streaming kernel.
//!
//! Every stage follows the same buffer discipline: borrow the input
//! frame, write through one of [`FrameBuf`]'s `begin_*` methods, and
//! keep any scratch space (type conversions, DNN workspaces) inside the
//! stage so a warm chain never allocates.

use std::sync::Arc;

use mindful_decode::binning::BinAccumulator;
use mindful_decode::kalman::KalmanDecoder;
use mindful_decode::spike::SpikeDetector;
use mindful_dnn::infer::{Network, Workspace};
use mindful_dnn::quant::{Precision, QuantizedNetwork};
use mindful_rf::packet::packetize_into;
use mindful_signal::adc::Adc;
use mindful_signal::interface::NeuralInterface;
use mindful_signal::neuron::{trajectory_intent, Intent};

use crate::error::{PipelineError, Result};
use crate::frame::{Frame, FrameBuf, StageOutput};
use crate::stage::Stage;

/// What drives the synthetic cortex each step of a [`SenseStage`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IntentSchedule {
    /// A fixed intent every step.
    Constant(Intent),
    /// The canonical figure-eight cursor trajectory
    /// ([`mindful_signal::neuron::trajectory_intent`]).
    FigureEight,
}

impl IntentSchedule {
    /// The intent at step `k`.
    #[must_use]
    pub(crate) fn at(&self, k: usize) -> Intent {
        match self {
            Self::Constant(intent) => *intent,
            Self::FigureEight => trajectory_intent(k),
        }
    }
}

/// Source stage: the synthetic neural interface (population → electrode
/// array → ADC), emitting one digitized codes frame per step.
pub struct SenseStage {
    interface: NeuralInterface,
    schedule: IntentSchedule,
    step: usize,
    /// Ground-truth spike scratch (the pipeline transports codes only).
    spikes: Vec<bool>,
}

impl SenseStage {
    /// Builds the interface (see [`NeuralInterface::new`]) and wraps it.
    ///
    /// # Errors
    ///
    /// Propagates interface construction errors.
    pub fn new(
        grid: usize,
        neurons: usize,
        sample_bits: u8,
        seed: u64,
        schedule: IntentSchedule,
    ) -> Result<Self> {
        Ok(Self::from_interface(
            NeuralInterface::new(grid, neurons, sample_bits, seed)?,
            schedule,
        ))
    }

    /// Wraps an existing interface (e.g. one already used to record a
    /// calibration trajectory, so its RNG state carries over).
    #[must_use]
    pub fn from_interface(interface: NeuralInterface, schedule: IntentSchedule) -> Self {
        Self {
            interface,
            schedule,
            step: 0,
            spikes: Vec::new(),
        }
    }
}

impl Stage for SenseStage {
    fn name(&self) -> &'static str {
        "sense"
    }

    fn process(&mut self, _input: &Frame<'_>, out: &mut FrameBuf) -> Result<StageOutput> {
        let intent = self.schedule.at(self.step);
        self.step += 1;
        self.interface
            .sample_into(intent, out.begin_codes(), &mut self.spikes)?;
        Ok(StageOutput::Emitted)
    }
}

/// Replay source: cycles through pre-recorded activation frames — the
/// host-side serving shape where digitized data arrives from the radio.
pub struct ReplaySource {
    frames: Vec<Vec<f32>>,
    cursor: usize,
}

impl ReplaySource {
    /// Wraps a non-empty set of frames to replay cyclically.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Empty`] for an empty frame set.
    pub fn new(frames: Vec<Vec<f32>>) -> Result<Self> {
        if frames.is_empty() {
            return Err(PipelineError::Empty);
        }
        Ok(Self { frames, cursor: 0 })
    }
}

impl Stage for ReplaySource {
    fn name(&self) -> &'static str {
        "replay"
    }

    fn process(&mut self, _input: &Frame<'_>, out: &mut FrameBuf) -> Result<StageOutput> {
        out.begin_activations()
            .extend_from_slice(&self.frames[self.cursor]);
        self.cursor = (self.cursor + 1) % self.frames.len();
        Ok(StageOutput::Emitted)
    }
}

/// Threshold spike detection over digitized codes (or analog values).
pub struct SpikeStage {
    detector: SpikeDetector,
}

impl SpikeStage {
    /// Wraps a calibrated detector.
    #[must_use]
    pub fn new(detector: SpikeDetector) -> Self {
        Self { detector }
    }
}

impl Stage for SpikeStage {
    fn name(&self) -> &'static str {
        "spike"
    }

    fn process(&mut self, input: &Frame<'_>, out: &mut FrameBuf) -> Result<StageOutput> {
        match input {
            Frame::Codes(codes) => self.detector.step_codes_into(codes, out.begin_events())?,
            Frame::Values(values) => self.detector.step_into(values, out.begin_events())?,
            other => {
                return Err(PipelineError::UnexpectedFrame {
                    stage: "spike",
                    actual: other.kind(),
                })
            }
        }
        Ok(StageOutput::Emitted)
    }
}

/// Windowed event binning; emits one counts frame per full window.
pub struct BinStage {
    accumulator: BinAccumulator,
}

impl BinStage {
    /// Creates the accumulator (see [`BinAccumulator::new`]).
    ///
    /// # Errors
    ///
    /// Propagates accumulator construction errors.
    pub fn new(channels: usize, window: usize) -> Result<Self> {
        Ok(Self {
            accumulator: BinAccumulator::new(channels, window)?,
        })
    }
}

impl Stage for BinStage {
    fn name(&self) -> &'static str {
        "bin"
    }

    fn process(&mut self, input: &Frame<'_>, out: &mut FrameBuf) -> Result<StageOutput> {
        let Frame::Events(events) = input else {
            return Err(PipelineError::UnexpectedFrame {
                stage: "bin",
                actual: input.kind(),
            });
        };
        if self.accumulator.push_into(events, out.begin_counts())? {
            Ok(StageOutput::Emitted)
        } else {
            Ok(StageOutput::Pending)
        }
    }

    /// Flushes a partially filled trailing window, so end-of-stream
    /// does not silently drop up to `window - 1` samples.
    fn finish(&mut self, out: &mut FrameBuf) -> Result<StageOutput> {
        if self.accumulator.flush_into(out.begin_counts()) > 0 {
            Ok(StageOutput::Emitted)
        } else {
            Ok(StageOutput::Pending)
        }
    }
}

/// Streaming Kalman decoding of binned counts into a 2-D intent.
pub struct KalmanStage {
    decoder: KalmanDecoder,
}

impl KalmanStage {
    /// Wraps a calibrated decoder.
    #[must_use]
    pub fn new(decoder: KalmanDecoder) -> Self {
        Self { decoder }
    }
}

impl Stage for KalmanStage {
    fn name(&self) -> &'static str {
        "kalman"
    }

    fn process(&mut self, input: &Frame<'_>, out: &mut FrameBuf) -> Result<StageOutput> {
        let state = match input {
            Frame::Counts(counts) => self.decoder.step_counts(counts)?,
            Frame::Values(values) => self.decoder.step(values)?,
            other => {
                return Err(PipelineError::UnexpectedFrame {
                    stage: "kalman",
                    actual: other.kind(),
                })
            }
        };
        let buf = out.begin_values();
        buf.push(state.x);
        buf.push(state.y);
        Ok(StageOutput::Emitted)
    }
}

/// On-implant DNN inference over the zero-allocation engine
/// ([`Network::forward_into`]); emits one activations frame per input.
///
/// The weights live behind an [`Arc`], so many concurrent streams can
/// share one read-only model ([`DnnStage::shared`]) while each stage
/// keeps its own mutable [`Workspace`].
pub struct DnnStage {
    network: Arc<Network>,
    /// Present when the stage runs at [`Precision::Int8`]; the f32
    /// network stays attached as the calibration source of truth.
    quantized: Option<Arc<QuantizedNetwork>>,
    workspace: Workspace,
    /// Codes-to-normalized-f32 conversion scratch.
    scratch: Vec<f32>,
    /// Half of the code range (`2^(bits-1)`), so a code maps to
    /// `code / half − 1 ∈ [−1, 1)` — the same normalization the batched
    /// glue sites use.
    half_scale: f32,
}

impl DnnStage {
    /// Wraps a network whose codes inputs are `sample_bits` wide.
    ///
    /// # Errors
    ///
    /// Returns an invalid-parameter error for a zero or over-16 bit
    /// width.
    pub fn new(network: Network, sample_bits: u8) -> Result<Self> {
        Self::shared(Arc::new(network), sample_bits)
    }

    /// Like [`DnnStage::new`], but shares an already-wrapped network —
    /// the serving shape, where every stream's stage reads the same
    /// weights without cloning them.
    ///
    /// # Errors
    ///
    /// Same as [`DnnStage::new`].
    pub fn shared(network: Arc<Network>, sample_bits: u8) -> Result<Self> {
        Self::with_precision(network, sample_bits, Precision::F32)
    }

    /// Like [`DnnStage::shared`], with an explicit numeric precision.
    /// [`Precision::Int8`] quantizes the network once at construction
    /// (default ±1 full-scale calibration — exactly the code domain the
    /// stage normalizes into) and runs every frame through the integer
    /// datapath.
    ///
    /// # Errors
    ///
    /// Same as [`DnnStage::new`], plus quantization errors (e.g. a
    /// non-dense architecture) at `Int8`.
    pub fn with_precision(
        network: Arc<Network>,
        sample_bits: u8,
        precision: Precision,
    ) -> Result<Self> {
        let quantized = match precision {
            Precision::F32 => None,
            Precision::Int8 => Some(Arc::new(QuantizedNetwork::from_network_default(&network)?)),
        };
        Self::build(network, quantized, sample_bits)
    }

    /// Shares one already-quantized model across streams — the int8
    /// twin of [`DnnStage::shared`], skipping per-stream recalibration.
    ///
    /// # Errors
    ///
    /// Same as [`DnnStage::new`].
    pub fn shared_quantized(
        network: Arc<Network>,
        quantized: Arc<QuantizedNetwork>,
        sample_bits: u8,
    ) -> Result<Self> {
        Self::build(network, Some(quantized), sample_bits)
    }

    fn build(
        network: Arc<Network>,
        quantized: Option<Arc<QuantizedNetwork>>,
        sample_bits: u8,
    ) -> Result<Self> {
        if sample_bits == 0 || sample_bits > 16 {
            return Err(mindful_rf::RfError::InvalidParameter {
                name: "sample bits",
                value: f64::from(sample_bits),
            }
            .into());
        }
        let workspace = match &quantized {
            Some(q) => q.workspace(),
            None => network.workspace(),
        };
        Ok(Self {
            network,
            quantized,
            workspace,
            scratch: Vec::new(),
            half_scale: f32::from(1u16 << (sample_bits - 1)),
        })
    }

    /// The numeric precision this stage runs at.
    #[must_use]
    pub fn precision(&self) -> Precision {
        if self.quantized.is_some() {
            Precision::Int8
        } else {
            Precision::F32
        }
    }
}

impl Stage for DnnStage {
    fn name(&self) -> &'static str {
        "dnn"
    }

    fn process(&mut self, input: &Frame<'_>, out: &mut FrameBuf) -> Result<StageOutput> {
        let frame: &[f32] = match input {
            Frame::Codes(codes) => {
                self.scratch.clear();
                self.scratch
                    .extend(codes.iter().map(|&c| f32::from(c) / self.half_scale - 1.0));
                &self.scratch
            }
            Frame::Activations(values) => values,
            other => {
                return Err(PipelineError::UnexpectedFrame {
                    stage: "dnn",
                    actual: other.kind(),
                })
            }
        };
        let labels = match &self.quantized {
            Some(q) => q.forward_into(frame, &mut self.workspace)?,
            None => self.network.forward_into(frame, &mut self.workspace)?,
        };
        out.begin_activations().extend_from_slice(labels);
        Ok(StageOutput::Emitted)
    }
}

/// Sink stage: bit-packs each frame into the Section 3.1 wire format
/// with a running sequence number — the only computation a
/// communication-centric implant performs.
pub struct PacketizeStage {
    sequence: u16,
    sample_bits: u8,
    /// Conversion scratch for counts/values frames.
    codes: Vec<u16>,
    /// Quantizer for values frames (decoded intents), over
    /// [`PacketizeStage::VALUE_FULL_SCALE`].
    adc: Adc,
}

impl PacketizeStage {
    /// Full scale used to quantize values frames: decoded intents live
    /// in roughly `[-1, 1]`, so ±2 leaves headroom without wasting
    /// codes.
    pub const VALUE_FULL_SCALE: f64 = 2.0;

    /// Creates a packetizer emitting `sample_bits`-wide samples.
    ///
    /// # Errors
    ///
    /// Returns an invalid-parameter error for a zero or over-16 width.
    pub fn new(sample_bits: u8) -> Result<Self> {
        if sample_bits == 0 || sample_bits > 16 {
            return Err(mindful_rf::RfError::InvalidParameter {
                name: "sample bits",
                value: f64::from(sample_bits),
            }
            .into());
        }
        Ok(Self {
            sequence: 0,
            sample_bits,
            codes: Vec::new(),
            adc: Adc::new(sample_bits, Self::VALUE_FULL_SCALE)?,
        })
    }
}

impl Stage for PacketizeStage {
    fn name(&self) -> &'static str {
        "packetize"
    }

    fn process(&mut self, input: &Frame<'_>, out: &mut FrameBuf) -> Result<StageOutput> {
        let limit = if self.sample_bits == 16 {
            u16::MAX
        } else {
            (1_u16 << self.sample_bits) - 1
        };
        let codes: &[u16] = match input {
            Frame::Codes(codes) => codes,
            Frame::Values(values) => {
                self.adc.quantize_frame_into(values, &mut self.codes);
                &self.codes
            }
            Frame::Counts(counts) => {
                // Bin counts are bounded by the window length in
                // practice; saturate at the wire width to stay lossless
                // for any realistic window.
                self.codes.clear();
                self.codes.extend(
                    counts
                        .iter()
                        .map(|&c| u16::try_from(c).unwrap_or(u16::MAX).min(limit)),
                );
                &self.codes
            }
            other => {
                return Err(PipelineError::UnexpectedFrame {
                    stage: "packetize",
                    actual: other.kind(),
                })
            }
        };
        packetize_into(self.sequence, codes, self.sample_bits, out.begin_bytes())?;
        self.sequence = self.sequence.wrapping_add(1);
        Ok(StageOutput::Emitted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::Pipeline;
    use mindful_rf::packet::depacketize;

    #[test]
    fn intent_schedule_constant_and_figure_eight() {
        let c = IntentSchedule::Constant(Intent::new(0.3, -0.1));
        assert_eq!(c.at(0), Intent::new(0.3, -0.1));
        assert_eq!(c.at(99), Intent::new(0.3, -0.1));
        let f = IntentSchedule::FigureEight;
        assert_eq!(f.at(17), trajectory_intent(17));
    }

    #[test]
    fn sense_emits_channel_width_codes() {
        let mut p = Pipeline::new()
            .with_stage(SenseStage::new(4, 64, 10, 5, IntentSchedule::FigureEight).unwrap());
        let out = p.step().unwrap().unwrap();
        let Frame::Codes(codes) = out.as_frame() else {
            panic!("sense must emit codes");
        };
        assert_eq!(codes.len(), 16);
        assert!(codes.iter().all(|&c| c < 1024));
    }

    #[test]
    fn replay_cycles_through_frames() {
        let frames = vec![vec![1.0_f32, 2.0], vec![3.0, 4.0]];
        let mut p = Pipeline::new().with_stage(ReplaySource::new(frames).unwrap());
        assert_eq!(
            p.step().unwrap().unwrap().as_frame(),
            Frame::Activations(&[1.0, 2.0])
        );
        assert_eq!(
            p.step().unwrap().unwrap().as_frame(),
            Frame::Activations(&[3.0, 4.0])
        );
        assert_eq!(
            p.step().unwrap().unwrap().as_frame(),
            Frame::Activations(&[1.0, 2.0])
        );
        assert!(ReplaySource::new(Vec::new()).is_err());
    }

    #[test]
    fn packetizer_round_trips_codes_and_advances_sequence() {
        let mut stage = PacketizeStage::new(10).unwrap();
        let mut out = FrameBuf::new();
        let codes = [1_u16, 1023, 512, 7];
        assert_eq!(
            stage.process(&Frame::Codes(&codes), &mut out).unwrap(),
            StageOutput::Emitted
        );
        let Frame::Bytes(wire) = out.as_frame() else {
            panic!("packetize must emit bytes");
        };
        let parsed = depacketize(wire).unwrap();
        assert_eq!(parsed.sequence, 0);
        assert_eq!(parsed.samples, codes);
        assert_eq!(stage.sequence, 1);
    }

    #[test]
    fn packetizer_quantizes_values_like_its_adc() {
        let mut stage = PacketizeStage::new(10).unwrap();
        let adc = Adc::new(10, PacketizeStage::VALUE_FULL_SCALE).unwrap();
        let mut out = FrameBuf::new();
        let values = [0.0, -0.8, 0.8, 3.0];
        stage.process(&Frame::Values(&values), &mut out).unwrap();
        let Frame::Bytes(wire) = out.as_frame() else {
            panic!("packetize must emit bytes");
        };
        assert_eq!(
            depacketize(wire).unwrap().samples,
            adc.quantize_frame(&values)
        );
    }

    #[test]
    fn packetizer_saturates_counts_at_the_wire_width() {
        let mut stage = PacketizeStage::new(4).unwrap();
        let mut out = FrameBuf::new();
        stage
            .process(&Frame::Counts(&[3, 70_000, 9]), &mut out)
            .unwrap();
        let Frame::Bytes(wire) = out.as_frame() else {
            panic!("packetize must emit bytes");
        };
        assert_eq!(depacketize(wire).unwrap().samples, vec![3, 15, 9]);
    }

    #[test]
    fn stages_reject_wrong_frame_kinds() {
        let mut out = FrameBuf::new();
        assert!(PacketizeStage::new(0).is_err());
        assert!(PacketizeStage::new(17).is_err());
        let mut p = PacketizeStage::new(10).unwrap();
        assert!(p.process(&Frame::Events(&[true]), &mut out).is_err());
        let mut b = BinStage::new(2, 4).unwrap();
        assert_eq!(b.accumulator.window(), 4);
        assert!(b.process(&Frame::Codes(&[1, 2]), &mut out).is_err());
    }

    #[test]
    fn dnn_stage_validates_bit_width() {
        let arch = mindful_dnn::models::ModelFamily::Mlp
            .architecture(128)
            .unwrap();
        let net = Network::with_seeded_weights(arch, 7);
        assert!(DnnStage::new(net, 0).is_err());
    }

    #[test]
    fn int8_dnn_stage_tracks_the_f32_stage() {
        let arch = mindful_dnn::models::ModelFamily::Mlp
            .architecture(128)
            .unwrap();
        let net = Arc::new(Network::with_seeded_weights(arch, 7));
        let mut f32_stage = DnnStage::shared(Arc::clone(&net), 10).unwrap();
        let mut int8_stage =
            DnnStage::with_precision(Arc::clone(&net), 10, Precision::Int8).unwrap();
        assert_eq!(f32_stage.precision(), Precision::F32);
        assert_eq!(int8_stage.precision(), Precision::Int8);

        let codes: Vec<u16> = (0..128).map(|i| 512 + ((i * 37) % 512) as u16).collect();
        let (mut out_f32, mut out_int8) = (FrameBuf::default(), FrameBuf::default());
        f32_stage
            .process(&Frame::Codes(&codes), &mut out_f32)
            .unwrap();
        int8_stage
            .process(&Frame::Codes(&codes), &mut out_int8)
            .unwrap();
        let (Frame::Activations(a), Frame::Activations(b)) =
            (out_f32.as_frame(), out_int8.as_frame())
        else {
            panic!("dnn stages emit activations");
        };
        assert_eq!(a.len(), b.len());
        let mag = a.iter().fold(0.0_f32, |m, v| m.max(v.abs()));
        for (x, y) in a.iter().zip(b) {
            assert!(
                (x - y).abs() <= 0.05 * mag.max(0.1),
                "int8 stage diverges: {x} vs {y}"
            );
        }
    }
}
