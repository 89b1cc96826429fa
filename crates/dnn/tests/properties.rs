//! Property-based tests for the DNN workload substrate.

use mindful_accel::alloc::{best_allocation, DeadlineSteps};
use mindful_accel::tech::TechnologyNode;
use mindful_dnn::arch::{Architecture, LayerSpec};
use mindful_dnn::infer::Network;
use mindful_dnn::models::{ModelFamily, BASE_CHANNELS, OUTPUT_LABELS};
use proptest::prelude::*;

proptest! {
    #[test]
    fn architectures_are_well_formed_at_any_scale(
        n in BASE_CHANNELS..16_384_u64,
        family in prop::sample::select(vec![ModelFamily::Mlp, ModelFamily::DnCnn]),
    ) {
        let arch = family.architecture(n).unwrap();
        prop_assert_eq!(arch.output_values(), OUTPUT_LABELS);
        prop_assert!(arch.macs() > 0);
        prop_assert!(arch.weights() > 0);
        // The workload decomposition must cover at least the weight MACs
        // (pooling adds a few weight-free accumulations).
        let workload = arch.workload().unwrap();
        prop_assert!(workload.total_macs() >= arch.weights());
        prop_assert_eq!(workload.final_outputs(), OUTPUT_LABELS);
    }

    #[test]
    fn macs_are_monotone_in_channels(
        n in BASE_CHANNELS..8192_u64,
        extra in 1_u64..4096,
        family in prop::sample::select(vec![ModelFamily::Mlp, ModelFamily::DnCnn]),
    ) {
        let small = family.architecture(n).unwrap().macs();
        let big = family.architecture(n + extra).unwrap().macs();
        prop_assert!(big >= small, "{family}: {big} < {small}");
    }

    #[test]
    fn macs_grow_superlinearly(
        n in BASE_CHANNELS..4096_u64,
        family in prop::sample::select(vec![ModelFamily::Mlp, ModelFamily::DnCnn]),
    ) {
        // Doubling channels must more than double MACs (the curse of
        // dimensionality, Section 2.3).
        let m1 = family.architecture(n).unwrap().macs() as f64;
        let m2 = family.architecture(2 * n).unwrap().macs() as f64;
        prop_assert!(m2 / m1 > 2.0, "{family}@{n}: ratio {}", m2 / m1);
    }

    #[test]
    fn prefix_weights_never_exceed_total(
        n in BASE_CHANNELS..4096_u64,
        keep_frac in 0.1_f64..1.0,
        family in prop::sample::select(vec![ModelFamily::Mlp, ModelFamily::DnCnn]),
    ) {
        let arch = family.architecture(n).unwrap();
        let keep = ((arch.len() as f64 * keep_frac).ceil() as usize).clamp(1, arch.len());
        let prefix = arch.prefix(keep).unwrap();
        prop_assert!(prefix.weights() <= arch.weights());
        prop_assert!(prefix.macs() <= arch.macs());
        prop_assert_eq!(prefix.input_values(), arch.input_values());
    }

    #[test]
    fn dense_chain_construction_validates(
        widths in prop::collection::vec(1_u64..64, 2..6),
    ) {
        let layers: Vec<LayerSpec> = widths
            .windows(2)
            .map(|w| LayerSpec::Dense {
                inputs: w[0],
                outputs: w[1],
            })
            .collect();
        let arch = Architecture::new("chain", layers).unwrap();
        prop_assert_eq!(arch.input_values(), widths[0]);
        prop_assert_eq!(arch.output_values(), *widths.last().unwrap());
    }

}

proptest! {
    // Weight materialization dominates these cases; keep the count low.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn inference_outputs_are_finite(
        seed in 0_u64..1000,
        scale in 0.0_f64..2.0,
    ) {
        let arch = ModelFamily::Mlp.architecture(BASE_CHANNELS).unwrap();
        let net = Network::with_seeded_weights(arch, seed);
        let input: Vec<f32> = (0..BASE_CHANNELS as usize)
            .map(|i| (i as f32).sin() * scale as f32)
            .collect();
        let out = net.forward(&input).unwrap();
        prop_assert_eq!(out.len() as u64, OUTPUT_LABELS);
        prop_assert!(out.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn relu_prefix_is_nonnegative(seed in 0_u64..200, keep in 1_usize..4) {
        let arch = ModelFamily::Mlp.architecture(BASE_CHANNELS).unwrap();
        let net = Network::with_seeded_weights(arch, seed);
        let input: Vec<f32> = (0..128).map(|i| (i as f32 * 0.01) - 0.5).collect();
        let mid = net.forward_prefix(&input, keep).unwrap();
        prop_assert!(mid.iter().all(|&v| v >= 0.0 && v.is_finite()));
    }
}

/// Layer 1's MAC floor ([`DeadlineSteps::min_mac_hw`]) of `family` at
/// `active` channels on `node`.
fn first_layer_floor(family: ModelFamily, active: u64, node: TechnologyNode) -> u64 {
    let arch = family.architecture(active).unwrap();
    let deadline = DeadlineSteps::new(node, family.deadline()).unwrap();
    deadline
        .min_mac_hw(&arch.layers()[0].workload().unwrap())
        .unwrap()
}

const NODES: [TechnologyNode; 2] = [TechnologyNode::NANGATE_45NM, TechnologyNode::ADVANCED_12NM];

#[test]
fn first_layer_mac_floor_never_falls_as_channels_grow() {
    // The dropout searches stop at this floor only because it never
    // falls; check every active count they can visit.
    for family in ModelFamily::ALL {
        for node in NODES {
            let mut prev = 0;
            for active in BASE_CHANNELS..=8192 {
                let floor = first_layer_floor(family, active, node);
                assert!(floor >= prev, "{family} {}: {active}", node.name());
                prev = floor;
            }
        }
    }
}

proptest! {
    // Every prefix runs a full allocation; keep the count moderate.
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn first_layer_mac_floor_bounds_every_prefix_allocation(
        active in BASE_CHANNELS..=8192_u64,
        family in prop::sample::select(ModelFamily::ALL.to_vec()),
    ) {
        let workload = family.architecture(active).unwrap().workload().unwrap();
        for node in NODES {
            let floor = first_layer_floor(family, active, node);
            for keep in 1..=workload.len() {
                let prefix = workload.prefix(keep).unwrap();
                if let Ok(best) = best_allocation(&prefix, node, family.deadline()) {
                    prop_assert!(
                        floor <= best.total_mac_hw(),
                        "{family}@{active} {} keep {keep}: {floor} > {}",
                        node.name(),
                        best.total_mac_hw()
                    );
                }
            }
        }
    }

    #[test]
    fn first_layer_macs_grow_at_least_linearly_per_channel(
        n in BASE_CHANNELS..8192_u64,
        extra in 1_u64..8192,
        family in prop::sample::select(ModelFamily::ALL.to_vec()),
    ) {
        // The growing-`n` stop of `max_channels_partitioned` relies on
        // `macs₁(n) / n` never falling.
        let macs = |n: u64| {
            family.architecture(n).unwrap().layers()[0].workload().unwrap().total_macs()
        };
        prop_assert!(macs(n) * (n + extra) <= macs(n + extra) * n);
    }
}
