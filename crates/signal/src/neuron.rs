//! Spiking cortical neurons with cosine tuning.
//!
//! The substitution for in-vivo recordings (`DESIGN.md` §3, row 5):
//! leaky integrate-and-fire neurons whose input current is modulated by a
//! latent behavioural *intent* (e.g., 2-D cursor velocity) through a
//! classic cosine tuning curve (Georgopoulos-style), the generative model
//! that Kalman-filter decoders assume. This gives the downstream decoding
//! examples a ground truth to recover.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::{Result, SignalError};

/// A 2-D latent intent driving the population (e.g., cursor velocity).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Intent {
    /// Horizontal component, roughly in `[-1, 1]`.
    pub x: f64,
    /// Vertical component, roughly in `[-1, 1]`.
    pub y: f64,
}

impl Intent {
    /// Creates an intent vector.
    #[must_use]
    pub fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }
}

/// A leaky integrate-and-fire neuron with cosine directional tuning.
#[derive(Debug, Clone)]
pub struct Neuron {
    /// Preferred direction (radians).
    preferred: f64,
    /// Baseline firing drive.
    baseline: f64,
    /// Modulation depth of the tuning curve.
    depth: f64,
    /// Membrane potential (normalized; threshold at 1.0).
    potential: f64,
    /// Membrane leak per step.
    leak: f64,
}

impl Neuron {
    /// Creates a neuron with the given tuning parameters.
    ///
    /// # Errors
    ///
    /// Returns [`SignalError::InvalidParameter`] for negative baseline or
    /// depth, or a leak outside `(0, 1]`.
    pub fn new(preferred: f64, baseline: f64, depth: f64, leak: f64) -> Result<Self> {
        if baseline < 0.0 || !baseline.is_finite() {
            return Err(SignalError::InvalidParameter {
                name: "baseline",
                value: baseline,
            });
        }
        if depth < 0.0 || !depth.is_finite() {
            return Err(SignalError::InvalidParameter {
                name: "depth",
                value: depth,
            });
        }
        if !(leak > 0.0 && leak <= 1.0) {
            return Err(SignalError::InvalidParameter {
                name: "leak",
                value: leak,
            });
        }
        Ok(Self {
            preferred,
            baseline,
            depth,
            potential: 0.0,
            leak,
        })
    }

    /// Instantaneous drive for an intent: `baseline + depth · (v⃗ · p⃗)`.
    #[must_use]
    pub fn drive(&self, intent: Intent) -> f64 {
        let projection = intent.x * self.preferred.cos() + intent.y * self.preferred.sin();
        (self.baseline + self.depth * projection).max(0.0)
    }

    /// Advances one time step; returns `true` if the neuron spikes.
    ///
    /// `noise` is a standard-normal sample scaled internally.
    pub(crate) fn step(&mut self, intent: Intent, noise: f64) -> bool {
        // AR(1) membrane: steady state sits at drive/leak just below
        // threshold; noise (sd 0.15 per step) carries it across.
        self.potential = self.potential * (1.0 - self.leak) + self.drive(intent) + 0.15 * noise;
        if self.potential >= 1.0 {
            self.potential = 0.0;
            true
        } else {
            if self.potential < -1.0 {
                self.potential = -1.0;
            }
            false
        }
    }
}

/// A population of tuned neurons laid out on a 2-D cortical patch.
#[derive(Debug, Clone)]
pub struct Population {
    neurons: Vec<Neuron>,
    /// Neuron positions in normalized `[0, 1]²` cortical coordinates.
    positions: Vec<(f64, f64)>,
    rng: StdRng,
}

impl Population {
    /// Creates `count` neurons with uniformly random preferred
    /// directions, positions, and firing statistics.
    ///
    /// # Errors
    ///
    /// Returns [`SignalError::Empty`] for a zero count.
    pub fn new(count: usize, seed: u64) -> Result<Self> {
        if count == 0 {
            return Err(SignalError::Empty { what: "neurons" });
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut neurons = Vec::with_capacity(count);
        let mut positions = Vec::with_capacity(count);
        for _ in 0..count {
            let preferred = rng.random::<f64>() * core::f64::consts::TAU;
            let baseline = 0.10 + 0.06 * rng.random::<f64>();
            let depth = 0.04 + 0.08 * rng.random::<f64>();
            neurons.push(Neuron::new(preferred, baseline, depth, 0.2).expect("valid params"));
            positions.push((rng.random::<f64>(), rng.random::<f64>()));
        }
        Ok(Self {
            neurons,
            positions,
            rng,
        })
    }

    /// Number of neurons.
    #[must_use]
    pub(crate) fn len(&self) -> usize {
        self.neurons.len()
    }

    /// Neuron positions in normalized cortical coordinates.
    #[must_use]
    pub(crate) fn positions(&self) -> &[(f64, f64)] {
        &self.positions
    }

    /// Advances the population one time step under `intent`; returns the
    /// spike indicator per neuron.
    pub fn step(&mut self, intent: Intent) -> Vec<bool> {
        let mut spikes = Vec::with_capacity(self.neurons.len());
        self.step_into(intent, &mut spikes);
        spikes
    }

    /// Advances one time step, writing the spike indicators into
    /// `spikes` (cleared first). Allocation-free once `spikes` has
    /// capacity for the population; draws exactly the same RNG sequence
    /// as [`Population::step`].
    pub(crate) fn step_into(&mut self, intent: Intent, spikes: &mut Vec<bool>) {
        spikes.clear();
        for neuron in &mut self.neurons {
            let z = standard_normal(&mut self.rng);
            spikes.push(neuron.step(intent, z));
        }
    }
}

/// The intent at step `k` of the canonical figure-eight cursor-control
/// trajectory used by [`crate::interface::NeuralInterface::record_trajectory`]
/// and the streaming pipeline's sensing source.
#[must_use]
pub fn trajectory_intent(step: usize) -> Intent {
    let t = step as f64 * 0.01;
    Intent::new(t.sin(), (2.0 * t).sin() * 0.8)
}

/// One standard-normal sample via Box–Muller.
pub(crate) fn standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = loop {
        let u: f64 = rng.random();
        if u > f64::MIN_POSITIVE {
            break u;
        }
    };
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEED_TUNING: u64 = 1;
    const SEED_DETERMINISM: u64 = 7;
    const SEED_BASELINE_RATE: u64 = 3;
    const SEED_POSITIONS: u64 = 9;
    const SEED_NORMALITY: u64 = 11;

    #[test]
    fn drive_is_maximal_along_preferred_direction() {
        let n = Neuron::new(0.0, 0.1, 0.2, 0.2).unwrap();
        let along = n.drive(Intent::new(1.0, 0.0));
        let against = n.drive(Intent::new(-1.0, 0.0));
        let orthogonal = n.drive(Intent::new(0.0, 1.0));
        assert!(along > orthogonal);
        assert!(orthogonal > against);
        assert!((orthogonal - 0.1).abs() < 1e-12, "baseline at orthogonal");
    }

    #[test]
    fn drive_never_goes_negative() {
        let n = Neuron::new(0.0, 0.01, 0.5, 0.2).unwrap();
        assert_eq!(n.drive(Intent::new(-1.0, 0.0)), 0.0);
    }

    #[test]
    fn tuned_neurons_fire_more_along_their_preferred_direction() {
        let mut rng = StdRng::seed_from_u64(SEED_TUNING);
        let mut count_along = 0_u32;
        let mut count_against = 0_u32;
        for _ in 0..2 {
            let mut n = Neuron::new(0.0, 0.12, 0.08, 0.2).unwrap();
            for _ in 0..4000 {
                if n.step(Intent::new(1.0, 0.0), standard_normal(&mut rng)) {
                    count_along += 1;
                }
            }
            let mut n = Neuron::new(0.0, 0.12, 0.08, 0.2).unwrap();
            for _ in 0..4000 {
                if n.step(Intent::new(-1.0, 0.0), standard_normal(&mut rng)) {
                    count_against += 1;
                }
            }
        }
        assert!(
            count_along > count_against * 2,
            "along {count_along} vs against {count_against}"
        );
    }

    #[test]
    fn population_is_deterministic_per_seed() {
        let mut a = Population::new(50, SEED_DETERMINISM).unwrap();
        let mut b = Population::new(50, SEED_DETERMINISM).unwrap();
        for _ in 0..100 {
            assert_eq!(
                a.step(Intent::new(0.3, -0.2)),
                b.step(Intent::new(0.3, -0.2))
            );
        }
    }

    #[test]
    fn population_spikes_at_plausible_rates() {
        let mut p = Population::new(100, SEED_BASELINE_RATE).unwrap();
        let steps = 5000;
        let mut spikes = 0_u64;
        for _ in 0..steps {
            spikes += p.step(Intent::default()).iter().filter(|&&s| s).count() as u64;
        }
        let rate = spikes as f64 / (steps as f64 * 100.0);
        // Baseline firing in a healthy range: 1–25 % of steps.
        assert!(
            (0.01..0.25).contains(&rate),
            "baseline spike probability {rate}"
        );
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(Neuron::new(0.0, -0.1, 0.2, 0.2).is_err());
        assert!(Neuron::new(0.0, 0.1, -0.2, 0.2).is_err());
        assert!(Neuron::new(0.0, 0.1, 0.2, 0.0).is_err());
        assert!(Neuron::new(0.0, 0.1, 0.2, 1.5).is_err());
        assert!(Population::new(0, 1).is_err());
    }

    #[test]
    fn step_into_matches_step_and_reuses_the_buffer() {
        let mut a = Population::new(40, SEED_DETERMINISM).unwrap();
        let mut b = Population::new(40, SEED_DETERMINISM).unwrap();
        let mut buf = Vec::new();
        for k in 0..200 {
            let intent = trajectory_intent(k);
            b.step_into(intent, &mut buf);
            assert_eq!(a.step(intent), buf);
        }
        assert!(buf.capacity() >= 40, "buffer retains its capacity");
    }

    #[test]
    fn trajectory_intent_is_the_figure_eight() {
        assert_eq!(trajectory_intent(0), Intent::new(0.0, 0.0));
        let i = trajectory_intent(157); // t ≈ π/2: x at peak, y near zero
        assert!(i.x > 0.99 && i.y.abs() < 0.01);
    }

    #[test]
    fn positions_are_normalized() {
        let p = Population::new(200, SEED_POSITIONS).unwrap();
        assert_eq!(p.positions().len(), 200);
        assert!(p.len() > 0);
        assert!(p
            .positions()
            .iter()
            .all(|&(x, y)| (0.0..=1.0).contains(&x) && (0.0..=1.0).contains(&y)));
    }

    #[test]
    fn standard_normal_has_unit_variance() {
        let mut rng = StdRng::seed_from_u64(SEED_NORMALITY);
        let samples: Vec<f64> = (0..50_000).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var =
            samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / samples.len() as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
