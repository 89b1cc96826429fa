//! The complete synthetic neural interface: population → electrode array
//! → ADC, producing digitized frames like the sensing stage of Fig. 3.

use crate::adc::Adc;
use crate::electrode::ElectrodeArray;
use crate::error::{Result, SignalError};
use crate::neuron::{Intent, Population};

/// One digitized frame: all channels at one sample instant, plus the
/// ground-truth state that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct NeuralFrame {
    /// Digitized per-channel codes.
    pub samples: Vec<u16>,
    /// Ground-truth spike indicators per neuron (for decoder scoring).
    pub spikes: Vec<bool>,
    /// The latent intent that drove the population this step.
    pub intent: Intent,
}

/// A synthetic neural interface with `grid²` channels.
#[derive(Debug, Clone)]
pub struct NeuralInterface {
    population: Population,
    array: ElectrodeArray,
    adc: Adc,
    /// Reused per-frame analog scratch, so [`NeuralInterface::sample_into`]
    /// is allocation-free after the first frame.
    analog: Vec<f64>,
}

impl NeuralInterface {
    /// Builds an interface with `grid²` channels over `neurons` tuned
    /// neurons, digitized at `sample_bits` bits.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from the population, array, and
    /// ADC constructors.
    pub fn new(grid: usize, neurons: usize, sample_bits: u8, seed: u64) -> Result<Self> {
        let population = Population::new(neurons, seed)?;
        let array = ElectrodeArray::grid(grid, &population, 0.02, seed)?;
        let adc = Adc::new(sample_bits, 4.0)?;
        let channels = array.channels();
        Ok(Self {
            population,
            array,
            adc,
            analog: Vec::with_capacity(channels),
        })
    }

    /// Number of channels.
    #[must_use]
    pub fn channels(&self) -> usize {
        self.array.channels()
    }

    /// Number of underlying neurons.
    #[must_use]
    pub(crate) fn neurons(&self) -> usize {
        self.population.len()
    }

    /// Advances one sample period under `intent` and returns the
    /// digitized frame.
    ///
    /// # Errors
    ///
    /// Never fails after construction; kept fallible because the sensing
    /// path validates internal shapes.
    pub fn sample(&mut self, intent: Intent) -> Result<NeuralFrame> {
        let mut samples = Vec::with_capacity(self.channels());
        let mut spikes = Vec::with_capacity(self.neurons());
        self.sample_into(intent, &mut samples, &mut spikes)?;
        Ok(NeuralFrame {
            samples,
            spikes,
            intent,
        })
    }

    /// Advances one sample period under `intent`, writing the digitized
    /// codes into `samples` and the ground-truth spike indicators into
    /// `spikes` (both cleared first). Allocation-free once the buffers
    /// have settled at channel/neuron capacity; produces bit-identical
    /// frames to [`NeuralInterface::sample`] for the same state.
    ///
    /// # Errors
    ///
    /// Never fails after construction; kept fallible because the sensing
    /// path validates internal shapes.
    pub fn sample_into(
        &mut self,
        intent: Intent,
        samples: &mut Vec<u16>,
        spikes: &mut Vec<bool>,
    ) -> Result<()> {
        self.population.step_into(intent, spikes);
        self.array.sense_into(spikes, &mut self.analog)?;
        self.adc.quantize_frame_into(&self.analog, samples);
        Ok(())
    }

    /// Records `steps` frames while the intent follows a smooth
    /// figure-eight trajectory — a stand-in for a cursor-control task.
    /// The intent at step `k` is [`crate::neuron::trajectory_intent`].
    ///
    /// # Errors
    ///
    /// Returns [`SignalError::Empty`] for zero steps.
    pub fn record_trajectory(&mut self, steps: usize) -> Result<Vec<NeuralFrame>> {
        if steps == 0 {
            return Err(SignalError::Empty { what: "steps" });
        }
        let mut frames = Vec::with_capacity(steps);
        for k in 0..steps {
            frames.push(self.sample(crate::neuron::trajectory_intent(k))?);
        }
        Ok(frames)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEED_FRAMES: u64 = 42;
    const SEED_CODES: u64 = 1;
    const SEED_DETERMINISM: u64 = 5;
    const SEED_MODULATION: u64 = 9;

    #[test]
    fn frames_have_channel_width() {
        let mut ni = NeuralInterface::new(8, 200, 10, SEED_FRAMES).unwrap();
        let frame = ni.sample(Intent::new(0.2, -0.4)).unwrap();
        assert_eq!(frame.samples.len(), 64);
        assert_eq!(frame.spikes.len(), 200);
        assert_eq!(ni.channels(), 64);
        assert_eq!(ni.neurons(), 200);
    }

    #[test]
    fn codes_fit_the_bit_width() {
        let mut ni = NeuralInterface::new(4, 64, 10, SEED_CODES).unwrap();
        for _ in 0..100 {
            let frame = ni.sample(Intent::default()).unwrap();
            assert!(frame.samples.iter().all(|&c| c < 1024));
        }
    }

    #[test]
    fn recording_is_deterministic_per_seed() {
        let mut a = NeuralInterface::new(4, 64, 10, SEED_DETERMINISM).unwrap();
        let mut b = NeuralInterface::new(4, 64, 10, SEED_DETERMINISM).unwrap();
        assert_eq!(
            a.record_trajectory(50).unwrap(),
            b.record_trajectory(50).unwrap()
        );
    }

    #[test]
    fn trajectory_covers_intent_space() {
        let mut ni = NeuralInterface::new(4, 64, 10, SEED_DETERMINISM).unwrap();
        let frames = ni.record_trajectory(700).unwrap();
        let max_x = frames.iter().map(|f| f.intent.x).fold(f64::MIN, f64::max);
        let min_x = frames.iter().map(|f| f.intent.x).fold(f64::MAX, f64::min);
        assert!(max_x > 0.9 && min_x < -0.9);
    }

    #[test]
    fn signal_carries_information_about_intent() {
        // Frames recorded under opposite intents must differ in their
        // mean channel activity over time.
        let mut ni = NeuralInterface::new(4, 128, 10, SEED_MODULATION).unwrap();
        let mut sum_a = 0.0_f64;
        let mut sum_b = 0.0_f64;
        for _ in 0..400 {
            let f = ni.sample(Intent::new(1.0, 0.0)).unwrap();
            sum_a += f.samples.iter().map(|&c| f64::from(c)).sum::<f64>();
        }
        for _ in 0..400 {
            let f = ni.sample(Intent::new(-1.0, 0.0)).unwrap();
            sum_b += f.samples.iter().map(|&c| f64::from(c)).sum::<f64>();
        }
        assert!(
            (sum_a - sum_b).abs() / sum_a.max(sum_b) > 0.0005,
            "opposite intents should modulate total activity: {sum_a} vs {sum_b}"
        );
    }

    #[test]
    fn sample_into_matches_sample_bit_for_bit() {
        let mut a = NeuralInterface::new(4, 64, 10, SEED_DETERMINISM).unwrap();
        let mut b = NeuralInterface::new(4, 64, 10, SEED_DETERMINISM).unwrap();
        let mut samples = Vec::new();
        let mut spikes = Vec::new();
        for k in 0..60 {
            let intent = crate::neuron::trajectory_intent(k);
            let frame = a.sample(intent).unwrap();
            b.sample_into(intent, &mut samples, &mut spikes).unwrap();
            assert_eq!(frame.samples, samples);
            assert_eq!(frame.spikes, spikes);
        }
    }

    #[test]
    fn zero_steps_rejected() {
        let mut ni = NeuralInterface::new(2, 16, 10, 1).unwrap();
        assert!(ni.record_trajectory(0).is_err());
    }
}
