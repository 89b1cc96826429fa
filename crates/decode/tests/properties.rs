//! Property-based tests for the decoding substrate.

use mindful_decode::kalman::{correlation, KalmanDecoder};
use mindful_decode::linalg::{Mat2, Vec2};
use mindful_decode::spike::{select_active_channels, SpikeDetector};
use mindful_decode::wiener::WienerDecoder;
use proptest::prelude::*;

fn session(
    channels: usize,
    steps: usize,
    noise: f64,
    seed: u64,
) -> (Vec<Vec<f64>>, Vec<(f64, f64)>) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let gains: Vec<(f64, f64)> = (0..channels)
        .map(|_| {
            (
                rng.random::<f64>() * 2.0 - 1.0,
                rng.random::<f64>() * 2.0 - 1.0,
            )
        })
        .collect();
    let mut rows = Vec::with_capacity(steps);
    let mut intents = Vec::with_capacity(steps);
    for k in 0..steps {
        let t = k as f64 * 0.05;
        let (vx, vy) = (t.sin(), (1.3 * t).cos());
        intents.push((vx, vy));
        rows.push(
            gains
                .iter()
                .map(|&(gx, gy)| gx * vx + gy * vy + noise * (rng.random::<f64>() - 0.5))
                .collect(),
        );
    }
    (rows, intents)
}

proptest! {
    #[test]
    fn mat2_inverse_round_trips(a in -10.0_f64..10.0, b in -10.0_f64..10.0,
                                c in -10.0_f64..10.0, d in -10.0_f64..10.0) {
        let m = Mat2::new(a, b, c, d);
        prop_assume!(m.det().abs() > 1e-6);
        let inv = m.inverse().unwrap();
        let id = m.mul_mat(inv);
        prop_assert!((id.a - 1.0).abs() < 1e-6);
        prop_assert!((id.d - 1.0).abs() < 1e-6);
        prop_assert!(id.b.abs() < 1e-6 && id.c.abs() < 1e-6);
    }

    #[test]
    fn vec2_norm_triangle_inequality(
        ax in -100.0_f64..100.0, ay in -100.0_f64..100.0,
        bx in -100.0_f64..100.0, by in -100.0_f64..100.0,
    ) {
        let a = Vec2::new(ax, ay);
        let b = Vec2::new(bx, by);
        prop_assert!((a + b).norm() <= a.norm() + b.norm() + 1e-9);
    }

    #[test]
    fn correlation_is_bounded_and_scale_invariant(
        xs in prop::collection::vec(-100.0_f64..100.0, 4..64),
        scale in 0.1_f64..10.0,
        offset in -50.0_f64..50.0,
    ) {
        let ys: Vec<f64> = xs.iter().map(|x| x * scale + offset).collect();
        let r = correlation(&xs, &ys);
        prop_assert!(r.abs() <= 1.0 + 1e-9);
        // Perfectly linear with positive scale → r ≈ 1 (unless degenerate).
        let spread = xs.iter().cloned().fold(f64::MIN, f64::max)
            - xs.iter().cloned().fold(f64::MAX, f64::min);
        if spread > 1e-6 {
            prop_assert!((r - 1.0).abs() < 1e-6, "r = {r}");
        }
    }

    #[test]
    fn active_channel_selection_is_sorted_and_top(
        counts in prop::collection::vec(0_u64..1000, 1..64),
        keep_frac in 0.01_f64..1.0,
    ) {
        let keep = ((counts.len() as f64 * keep_frac).ceil() as usize).clamp(1, counts.len());
        let chosen = select_active_channels(&counts, keep).unwrap();
        prop_assert_eq!(chosen.len(), keep);
        prop_assert!(chosen.windows(2).all(|w| w[0] < w[1]), "sorted unique");
        // No unchosen channel strictly beats a chosen one.
        let min_chosen = chosen.iter().map(|&i| counts[i]).min().unwrap();
        for (i, &c) in counts.iter().enumerate() {
            if !chosen.contains(&i) {
                prop_assert!(c <= min_chosen);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn kalman_beats_chance_on_linear_sessions(seed in 0_u64..500, noise in 0.0_f64..0.5) {
        let (rows, intents) = session(12, 300, noise, seed);
        let mut decoder = KalmanDecoder::calibrate(&rows, &intents).unwrap();
        let decoded = decoder.decode(&rows).unwrap();
        let r = correlation(
            &decoded.iter().map(|v| v.x).collect::<Vec<_>>(),
            &intents.iter().map(|i| i.0).collect::<Vec<_>>(),
        );
        prop_assert!(r > 0.5, "correlation {r} at noise {noise}");
    }

    #[test]
    fn wiener_outputs_are_finite(seed in 0_u64..500, lambda in 0.0_f64..10.0) {
        let (rows, intents) = session(8, 200, 0.2, seed);
        let decoder = WienerDecoder::calibrate(&rows, &intents, lambda).unwrap();
        for v in decoder.decode(&rows).unwrap() {
            prop_assert!(v.x.is_finite() && v.y.is_finite());
        }
    }

    #[test]
    fn spike_detector_never_fires_during_its_own_calibration_floor(
        seed in 0_u64..200,
        k in 5.0_f64..8.0,
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let quiet: Vec<Vec<f64>> = (0..128)
            .map(|_| (0..4).map(|_| rng.random::<f64>() * 0.1).collect())
            .collect();
        let mut det = SpikeDetector::calibrate(&quiet, k, 2).unwrap();
        let counts = det.event_counts(&quiet).unwrap();
        // At >= 5 sigma on bounded uniform noise, detections are rare.
        prop_assert!(counts.iter().sum::<u64>() <= 2);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The integer-code path is the f64 path: one detector stepped
    /// with a random mix of code and value frames tracks a twin that
    /// only ever sees the codes widened to f64, event for event, and
    /// ends in the same refractory state. Thresholds span below zero,
    /// the code range and beyond it, and codes land on each channel's
    /// cutoff and its neighbours.
    #[test]
    fn spike_codes_and_values_interleave_exactly(
        seed in 0_u64..10_000,
        k in 0.5_f64..6.0,
        refractory in 1_usize..6,
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let channels = 1 + (rng.random::<u64>() % 24) as usize;
        // Per-channel calibration level: below zero, mid-range, or at
        // the top of the u16 code range.
        let levels: Vec<f64> = (0..channels)
            .map(|_| match rng.random::<u64>() % 3 {
                0 => -40.0,
                1 => 2048.0,
                _ => 65_530.0,
            })
            .collect();
        let quiet: Vec<Vec<f64>> = (0..48)
            .map(|_| levels.iter().map(|&l| l + (rng.random::<f64>() - 0.5) * 20.0).collect())
            .collect();
        let mut mixed = SpikeDetector::calibrate(&quiet, k, refractory).unwrap();
        let mut twin = mixed.clone();
        let thresholds = twin.thresholds().to_vec();
        let (mut codes, mut values, mut a, mut b) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for step in 0..64 {
            codes.clear();
            codes.extend(thresholds.iter().map(|&t| {
                let near = t.clamp(0.0, 65_535.0).floor() as u16;
                match rng.random::<u64>() % 4 {
                    0 => near.saturating_sub(1),
                    1 => near,
                    2 => near.saturating_add(1),
                    _ => rng.random::<u16>(),
                }
            }));
            values.clear();
            values.extend(codes.iter().map(|&c| f64::from(c)));
            if rng.random::<bool>() {
                mixed.step_codes_into(&codes, &mut a).unwrap();
            } else {
                mixed.step_into(&values, &mut a).unwrap();
            }
            twin.step_into(&values, &mut b).unwrap();
            prop_assert_eq!(&a, &b, "events diverge at step {}", step);
        }
        // Debug covers every field, the refractory countdowns included.
        prop_assert_eq!(format!("{mixed:?}"), format!("{twin:?}"));
    }
}
