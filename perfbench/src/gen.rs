//! Seeded input generation, outside the system under test.
//!
//! Everything a workload feeds the program is made here from the
//! run's `--seed`: the same seed gives the same inputs. Sensing runs
//! here, off the clock — a sensed 1024-channel frame costs far more
//! than the rest of the chain and would hide every other layer.

use std::f64::consts::TAU;

use mindful_signal::prelude::{Intent, NeuralFrame, NeuralInterface};

/// Electrode grid side: 32² = 1024 channels.
const GRID: usize = 32;
/// Channels of the motor array.
pub const CHANNELS: usize = GRID * GRID;
/// Neurons driving the array.
const NEURONS: usize = 600;
/// ADC width, bits per sample.
pub const SAMPLE_BITS: u8 = 10;
/// Recorded frames used to calibrate the decoders.
const CALIBRATION_FRAMES: usize = 160;
/// Seed of the implanted device: the neuron population and the
/// electrode array. The device is fixed so that runs measure the same
/// implant; a device's per-frame detection cost follows its spike
/// rate, which differs by up to 30% between devices.
const DEVICE_SEED: u64 = 0x1024_C0DE;
/// The run's seed picks up to this many frames of sensing before the
/// trace starts, so every seed records its own noise realization.
const MAX_LEAD_IN: u64 = 256;

/// SplitMix64: a small, fully specified generator, so inputs depend
/// on nothing but the seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a per-use `stream` label.
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1_u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// A pre-recorded 1024-channel code trace and its calibration record.
pub struct CodeTrace {
    /// Calibration frames (codes plus ground-truth intent).
    pub calibration: Vec<NeuralFrame>,
    /// The trace the chains replay cyclically. Its intent follows a
    /// figure-eight whose period is the trace length, so the replay
    /// loops without a jump in the decoded state.
    pub frames: Vec<Vec<u16>>,
}

/// Senses the calibration record and a `len`-frame trace from the
/// device. The seed sets the recording: a lead-in of sensed frames
/// (its noise realization) and the trajectory's phase.
pub fn code_trace(seed: u64, len: usize) -> CodeTrace {
    let mut ni = NeuralInterface::new(GRID, NEURONS, SAMPLE_BITS, DEVICE_SEED)
        .expect("the 32x32 interface builds");
    assert_eq!(ni.channels(), CHANNELS);
    let calibration = ni
        .record_trajectory(CALIBRATION_FRAMES)
        .expect("calibration records");
    let mut rng = Rng::new(seed, 1);
    let phase = rng.unit();
    for _ in 0..rng.below(MAX_LEAD_IN) {
        ni.sample(Intent::new(0.0, 0.0)).expect("sensing succeeds");
    }
    let frames = (0..len)
        .map(|k| {
            let t = TAU * (k as f64 / len as f64 + phase);
            let intent = Intent::new(t.sin(), 0.8 * (2.0 * t).sin());
            ni.sample(intent).expect("sensing succeeds").samples
        })
        .collect();
    CodeTrace {
        calibration,
        frames,
    }
}

/// `count` seeded activation frames of `width` values in `[-1, 1)`.
pub fn activation_frames(seed: u64, stream: u64, count: usize, width: usize) -> Vec<Vec<f32>> {
    let mut rng = Rng::new(seed, stream);
    (0..count)
        .map(|_| {
            (0..width)
                .map(|_| (2.0 * rng.unit() - 1.0) as f32)
                .collect()
        })
        .collect()
}
