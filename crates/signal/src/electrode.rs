//! Electrode-array sensing of a cortical population.
//!
//! A square grid of `n` channels on the normalized cortical patch; each
//! channel senses nearby neurons with exponential distance decay (the
//! micro-ECoG mixing the paper's target systems record), plus a shared
//! low-frequency LFP component and per-channel AFE noise.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::error::{Result, SignalError};
use crate::neuron::{standard_normal, Population};

/// Spatial decay length of a channel's sensitivity (normalized units).
const SENSING_DECAY: f64 = 0.08;

/// A square microelectrode array sampling a population.
#[derive(Debug, Clone)]
pub(crate) struct ElectrodeArray {
    /// `channels × neurons` sensitivity weights (row-major).
    weights: Vec<f64>,
    channels: usize,
    neurons: usize,
    /// Per-channel spike-decay state (synaptic/electrode filtering).
    trace: Vec<f64>,
    /// AFE input-referred noise standard deviation.
    noise_sd: f64,
    /// Phase of the shared low-frequency LFP oscillation.
    lfp_phase: f64,
    /// LFP phase increment per sample.
    lfp_step: f64,
    rng: StdRng,
}

impl ElectrodeArray {
    /// Builds a `grid × grid` array (so `grid²` channels) over the
    /// population's patch.
    ///
    /// # Errors
    ///
    /// Returns [`SignalError::Empty`] for a zero grid and
    /// [`SignalError::InvalidParameter`] for a negative noise level.
    pub(crate) fn grid(
        grid: usize,
        population: &Population,
        noise_sd: f64,
        seed: u64,
    ) -> Result<Self> {
        if grid == 0 {
            return Err(SignalError::Empty { what: "grid" });
        }
        if !(noise_sd >= 0.0 && noise_sd.is_finite()) {
            return Err(SignalError::InvalidParameter {
                name: "noise sd",
                value: noise_sd,
            });
        }
        let channels = grid * grid;
        let neurons = population.len();
        let mut weights = Vec::with_capacity(channels * neurons);
        for c in 0..channels {
            let cx = ((c % grid) as f64 + 0.5) / grid as f64;
            let cy = ((c / grid) as f64 + 0.5) / grid as f64;
            for &(nx, ny) in population.positions() {
                let d = (cx - nx).hypot(cy - ny);
                weights.push((-d / SENSING_DECAY).exp());
            }
        }
        Ok(Self {
            weights,
            channels,
            neurons,
            trace: vec![0.0; channels],
            noise_sd,
            lfp_phase: 0.0,
            lfp_step: 0.05,
            rng: StdRng::seed_from_u64(seed ^ 0xE1EC_7480),
        })
    }

    /// Number of channels.
    #[must_use]
    pub(crate) fn channels(&self) -> usize {
        self.channels
    }

    /// Converts one population spike vector into per-channel analog
    /// voltages (arbitrary units, roughly `[-1, 1]` plus spikes), written
    /// into `out` (cleared first). Allocation-free once `out` has
    /// capacity for the channel count.
    ///
    /// # Errors
    ///
    /// Returns [`SignalError::InvalidParameter`] if `spikes` does not
    /// match the neuron count.
    pub(crate) fn sense_into(&mut self, spikes: &[bool], out: &mut Vec<f64>) -> Result<()> {
        if spikes.len() != self.neurons {
            return Err(SignalError::InvalidParameter {
                name: "spike vector length",
                value: spikes.len() as f64,
            });
        }
        out.clear();
        self.lfp_phase = (self.lfp_phase + self.lfp_step) % core::f64::consts::TAU;
        let lfp = 0.1 * self.lfp_phase.sin();
        for c in 0..self.channels {
            let row = &self.weights[c * self.neurons..(c + 1) * self.neurons];
            let mut drive = 0.0;
            for (w, &s) in row.iter().zip(spikes) {
                if s {
                    drive += w;
                }
            }
            // Electrode trace: fast rise on spikes, exponential decay.
            self.trace[c] = self.trace[c] * 0.6 + drive;
            let noise = self.noise_sd * standard_normal(&mut self.rng);
            out.push(self.trace[c] + lfp + noise);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::neuron::Intent;

    const SEED_SHAPE: u64 = 1;
    const SEED_LOCALITY: u64 = 2;
    const SEED_DECAY: u64 = 3;
    const SEED_NOISE: u64 = 4;
    const SEED_PIPELINE: u64 = 8;

    impl ElectrodeArray {
        /// Allocating form of [`ElectrodeArray::sense_into`].
        fn sense(&mut self, spikes: &[bool]) -> Result<Vec<f64>> {
            let mut out = Vec::with_capacity(self.channels);
            self.sense_into(spikes, &mut out)?;
            Ok(out)
        }
    }

    #[test]
    fn grid_produces_square_channel_count() {
        let p = Population::new(100, SEED_SHAPE).unwrap();
        let a = ElectrodeArray::grid(8, &p, 0.01, SEED_SHAPE).unwrap();
        assert_eq!(a.channels(), 64);
    }

    #[test]
    fn nearby_neurons_dominate_a_channel() {
        // A single neuron spiking must be seen most strongly by the
        // closest channel.
        let p = Population::new(32, 5).unwrap();
        let mut a = ElectrodeArray::grid(4, &p, 0.0, SEED_LOCALITY).unwrap();
        let target = 7; // arbitrary neuron
        let (nx, ny) = p.positions()[target];
        let mut spikes = vec![false; 32];
        spikes[target] = true;
        let v = a.sense(&spikes).unwrap();
        let best = v
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        let bx = ((best % 4) as f64 + 0.5) / 4.0;
        let by = ((best / 4) as f64 + 0.5) / 4.0;
        // The winning channel is within one cell of the neuron.
        assert!((bx - nx).abs() < 0.3 && (by - ny).abs() < 0.3);
    }

    #[test]
    fn silence_decays_toward_lfp_floor() {
        let p = Population::new(16, 3).unwrap();
        let mut a = ElectrodeArray::grid(2, &p, 0.0, SEED_DECAY).unwrap();
        let all = vec![true; 16];
        let none = vec![false; 16];
        let active = a.sense(&all).unwrap();
        for _ in 0..30 {
            a.sense(&none).unwrap();
        }
        let quiet = a.sense(&none).unwrap();
        for (on, off) in active.iter().zip(&quiet) {
            assert!(on > off, "activity must raise the trace: {on} vs {off}");
        }
        assert!(quiet.iter().all(|v| v.abs() < 0.2), "{quiet:?}");
    }

    #[test]
    fn noise_level_controls_variance() {
        let p = Population::new(16, 3).unwrap();
        let mut quiet_arr = ElectrodeArray::grid(2, &p, 0.001, SEED_NOISE).unwrap();
        let mut noisy_arr = ElectrodeArray::grid(2, &p, 0.5, SEED_NOISE).unwrap();
        let none = vec![false; 16];
        let collect = |arr: &mut ElectrodeArray| -> f64 {
            let mut values = Vec::new();
            for _ in 0..200 {
                values.extend(arr.sense(&none).unwrap());
            }
            let mean = values.iter().sum::<f64>() / values.len() as f64;
            values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / values.len() as f64
        };
        assert!(collect(&mut noisy_arr) > 10.0 * collect(&mut quiet_arr));
    }

    #[test]
    fn sense_into_matches_sense() {
        let mut p = Population::new(48, SEED_PIPELINE).unwrap();
        let mut a = ElectrodeArray::grid(4, &p, 0.02, SEED_PIPELINE).unwrap();
        let mut b = a.clone();
        let mut buf = Vec::new();
        for _ in 0..40 {
            let spikes = p.step(Intent::new(0.4, -0.3));
            b.sense_into(&spikes, &mut buf).unwrap();
            assert_eq!(a.sense(&spikes).unwrap(), buf);
        }
    }

    #[test]
    fn shape_and_parameter_validation() {
        let p = Population::new(16, 3).unwrap();
        assert!(ElectrodeArray::grid(0, &p, 0.1, 1).is_err());
        assert!(ElectrodeArray::grid(2, &p, -0.1, 1).is_err());
        let mut a = ElectrodeArray::grid(2, &p, 0.1, 1).unwrap();
        assert!(a.sense(&[false; 15]).is_err());
    }

    #[test]
    fn end_to_end_with_population_step() {
        let mut p = Population::new(64, SEED_PIPELINE).unwrap();
        let mut a = ElectrodeArray::grid(4, &p, 0.02, SEED_PIPELINE).unwrap();
        for _ in 0..50 {
            let spikes = p.step(Intent::new(0.5, 0.5));
            let v = a.sense(&spikes).unwrap();
            assert_eq!(v.len(), 16);
            assert!(v.iter().all(|x| x.is_finite()));
        }
    }
}
