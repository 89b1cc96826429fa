//! Property tests pinning the blocked inference kernels to their naive
//! oracles, across randomized shapes and thread counts.

use std::num::NonZeroUsize;

use mindful_core::pool::Scheduler;
use mindful_dnn::infer::{Network, Workspace};
use mindful_dnn::kernels::{conv1d_into, conv1d_naive, dense_into, dense_naive, transpose_dense};
use mindful_dnn::models::{ModelFamily, BASE_CHANNELS};
use proptest::prelude::*;

/// Deterministic pseudo-random tensor from a seed (LCG; values in
/// roughly ±1 so products stay well-conditioned).
fn tensor(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(2_862_933_555_777_941_757).wrapping_add(3);
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((state >> 33) as f32 / (1_u64 << 31) as f32) - 0.5
        })
        .collect()
}

/// Relative agreement within 1e-4 (absolute floor 1e-4 near zero).
fn assert_close(fast: &[f32], naive: &[f32], context: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(fast.len(), naive.len(), "{}: lengths differ", context);
    for (i, (a, b)) in fast.iter().zip(naive).enumerate() {
        let tol = 1e-4 * a.abs().max(b.abs()).max(1.0);
        prop_assert!(
            (a - b).abs() <= tol,
            "{}: output {} diverges ({} vs {})",
            context,
            i,
            a,
            b
        );
    }
    Ok(())
}

proptest! {
    #[test]
    fn blocked_dense_matches_naive_for_any_shape(
        inputs in 1_usize..96,
        outputs in 1_usize..96,
        seed in 0_u64..1_000,
    ) {
        let weights = tensor(inputs * outputs, seed);
        let bias = tensor(outputs, seed ^ 1);
        let x = tensor(inputs, seed ^ 2);
        let naive = dense_naive(&x, &weights, &bias, outputs);
        let packed = transpose_dense(&weights, inputs, outputs);
        let mut fast = vec![0.0_f32; outputs];
        dense_into(&x, &packed, &bias, &mut fast);
        assert_close(&fast, &naive, &format!("dense {inputs}x{outputs}"))?;
    }

    #[test]
    fn blocked_conv_matches_naive_for_any_shape(
        in_channels in 1_usize..6,
        out_channels in 1_usize..6,
        kernel in 1_usize..8,
        positions in 1_usize..24,
        seed in 0_u64..1_000,
    ) {
        let weights = tensor(out_channels * in_channels * kernel, seed);
        let bias = tensor(out_channels, seed ^ 1);
        let x = tensor(in_channels * positions, seed ^ 2);
        let naive = conv1d_naive(
            &x, &weights, &bias, in_channels, out_channels, kernel, positions,
        );
        let mut fast = vec![0.0_f32; out_channels * positions];
        conv1d_into(
            &x, &weights, &bias, in_channels, out_channels, kernel, positions, &mut fast,
        );
        assert_close(
            &fast,
            &naive,
            &format!("conv {in_channels}->{out_channels} k{kernel} p{positions}"),
        )?;
    }
}

proptest! {
    // Full-network cases materialize weights; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn blocked_forward_matches_naive_for_both_families(
        seed in 0_u64..500,
        family in prop::sample::select(vec![ModelFamily::Mlp, ModelFamily::DnCnn]),
    ) {
        let arch = family.architecture(BASE_CHANNELS).unwrap();
        let net = Network::with_seeded_weights(arch, seed);
        let width = net.architecture().input_values() as usize;
        let x = tensor(width, seed ^ 3);
        let fast = net.forward(&x).unwrap();
        let naive = net.forward_naive(&x).unwrap();
        assert_close(&fast, &naive, &format!("{family} seed {seed}"))?;
    }

    #[test]
    fn forward_batch_equals_mapped_forward_for_any_thread_count(
        seed in 0_u64..500,
        samples in 1_usize..12,
        workers in 1_usize..24,
    ) {
        let arch = ModelFamily::Mlp.architecture(BASE_CHANNELS).unwrap();
        let net = Network::with_seeded_weights(arch, seed);
        let batch: Vec<Vec<f32>> = (0..samples)
            .map(|s| tensor(BASE_CHANNELS as usize, seed ^ (s as u64) << 8))
            .collect();
        let expect: Vec<Vec<f32>> =
            batch.iter().map(|x| net.forward(x).unwrap()).collect();
        let got = net
            .forward_batch(&batch, &Scheduler::new(NonZeroUsize::new(workers).unwrap()))
            .unwrap();
        // Bit-exact: the batched path runs the identical kernels.
        prop_assert_eq!(got, expect, "{} samples on {} workers", samples, workers);
    }

    #[test]
    fn workspace_reuse_across_networks_is_sound(
        seed in 0_u64..200,
    ) {
        // One workspace serving two different architectures must give
        // the same results as fresh per-network workspaces.
        let mlp = Network::with_seeded_weights(
            ModelFamily::Mlp.architecture(BASE_CHANNELS).unwrap(), seed);
        let cnn = Network::with_seeded_weights(
            ModelFamily::DnCnn.architecture(BASE_CHANNELS).unwrap(), seed);
        let x_mlp = tensor(mlp.architecture().input_values() as usize, seed);
        let x_cnn = tensor(cnn.architecture().input_values() as usize, seed ^ 7);
        let mut shared = Workspace::empty();
        let a = mlp.forward_into(&x_mlp, &mut shared).unwrap().to_vec();
        let b = cnn.forward_into(&x_cnn, &mut shared).unwrap().to_vec();
        let c = mlp.forward_into(&x_mlp, &mut shared).unwrap().to_vec();
        prop_assert_eq!(&a, &mlp.forward(&x_mlp).unwrap());
        prop_assert_eq!(&b, &cnn.forward(&x_cnn).unwrap());
        prop_assert_eq!(a, c);
    }
}
