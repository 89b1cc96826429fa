//! The Fig. 10–12 channel searches against oracles.
//!
//! The oracles are the plain scans the bounded searches replaced: every
//! step rebuilds the architecture, clones the kept prefix and reruns
//! `best_allocation`, the partitioned scans run to the end of the range,
//! and the plain ones stop at the first miss. The bounded searches must
//! return exactly the same `Result<Option<u64>>` on every configuration.

use mindful_accel::alloc::{best_allocation, DeadlineSteps};
use mindful_accel::tech::TechnologyNode;
use mindful_core::budget::power_budget;
use mindful_core::regimes::{standard_split_designs, SplitDesign};
use mindful_core::throughput::{computation_centric_rate, sensing_throughput};
use mindful_core::units::{Area, Energy, Power, TimeSpan};
use mindful_core::CoreError;
use mindful_dnn::integration::{max_active_channels, max_channels, IntegrationConfig};
use mindful_dnn::models::{ModelFamily, APPLICATION_RATE, BASE_CHANNELS, OUTPUT_LABELS};
use mindful_dnn::partition::{
    activation_rate, earliest_split, evaluate_partitioned_active, max_active_channels_partitioned,
    max_channels_partitioned,
};
use mindful_dnn::{DnnError, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const FEASIBLE: f64 = 1.0 + 1e-12;
const LIMIT: u64 = 1 << 14;

fn platform(
    design: &SplitDesign,
    channels: u64,
    config: &IntegrationConfig,
) -> Result<(Power, Area)> {
    let reference = design.reference_channels();
    if channels < reference {
        return Err(CoreError::BelowReferenceChannels {
            requested: channels,
            reference,
        }
        .into());
    }
    let ratio = channels as f64 / reference as f64;
    let sensing_power = design.sensing_power() * ratio;
    let area =
        design.sensing_area() * (ratio * config.sensing_area_scale) + design.non_sensing_area();
    Ok((sensing_power, area))
}

/// Whether the full model at `active` channels fits at `channels`.
fn oracle_fits(
    design: &SplitDesign,
    family: ModelFamily,
    channels: u64,
    active: u64,
    config: &IntegrationConfig,
) -> Result<bool> {
    let (sensing, area) = platform(design, channels, config)?;
    let arch = family.architecture(active)?;
    let workload = arch.workload()?;
    let allocation = best_allocation(&workload, config.node, family.deadline())?;
    let out_rate = computation_centric_rate(OUTPUT_LABELS, config.sample_bits, APPLICATION_RATE);
    let total = sensing + allocation.power() + out_rate * config.energy_per_bit;
    Ok(total / power_budget(area) <= FEASIBLE)
}

/// Whether the partitioned model at `active` channels fits at `channels`.
fn oracle_fits_partitioned(
    design: &SplitDesign,
    family: ModelFamily,
    channels: u64,
    active: u64,
    config: &IntegrationConfig,
) -> Result<bool> {
    let (sensing, area) = platform(design, channels, config)?;
    let spec = design.scaled().spec();
    let rate_cap = sensing_throughput(
        design.reference_channels(),
        spec.sample_bits(),
        spec.sampling(),
    );
    let arch = family.architecture(active)?;
    let keep = earliest_split(&arch, rate_cap, config.sample_bits).ok_or_else(|| {
        DnnError::Infeasible {
            reason: format!(
                "even the final output of {} exceeds the {:.1} Mbps link cap",
                arch.name(),
                rate_cap.megabits_per_second()
            ),
        }
    })?;
    let prefix = arch.prefix(keep)?;
    let workload = prefix.workload()?;
    let allocation = best_allocation(&workload, config.node, family.deadline())?;
    let link_rate = activation_rate(prefix.output_values(), config.sample_bits);
    let total = sensing + allocation.power() + link_rate * config.energy_per_bit;
    Ok(total / power_budget(area) <= FEASIBLE)
}

fn oracle_max_channels(
    design: &SplitDesign,
    family: ModelFamily,
    config: &IntegrationConfig,
    step: u64,
    limit: u64,
) -> Result<Option<u64>> {
    if step == 0 {
        return Err(DnnError::EmptyDimension { name: "step" });
    }
    let mut best = None;
    let mut n = design.reference_channels();
    while n <= limit {
        match oracle_fits(design, family, n, n, config) {
            Ok(true) => best = Some(n),
            Ok(false) | Err(DnnError::Accel(_)) => break,
            Err(e) => return Err(e),
        }
        n += step;
    }
    Ok(best)
}

fn oracle_max_active_channels(
    design: &SplitDesign,
    family: ModelFamily,
    channels: u64,
    config: &IntegrationConfig,
    step: u64,
) -> Result<Option<u64>> {
    if step == 0 {
        return Err(DnnError::EmptyDimension { name: "step" });
    }
    platform(design, channels, config)?;
    let mut best = None;
    let mut active = BASE_CHANNELS;
    while active <= channels {
        match oracle_fits(design, family, channels, active, config) {
            Ok(true) => best = Some(active),
            Ok(false) | Err(DnnError::Accel(_)) => break,
            Err(e) => return Err(e),
        }
        active += step;
    }
    Ok(best)
}

fn oracle_max_active_channels_partitioned(
    design: &SplitDesign,
    family: ModelFamily,
    channels: u64,
    config: &IntegrationConfig,
    step: u64,
) -> Result<Option<u64>> {
    if step == 0 {
        return Err(DnnError::EmptyDimension { name: "step" });
    }
    platform(design, channels, config)?;
    let mut best = None;
    let mut active = BASE_CHANNELS;
    while active <= channels {
        match oracle_fits_partitioned(design, family, channels, active, config) {
            Ok(true) => best = Some(active),
            Ok(false) | Err(DnnError::Accel(_)) => {}
            Err(e) => return Err(e),
        }
        active += step;
    }
    Ok(best)
}

fn oracle_max_channels_partitioned(
    design: &SplitDesign,
    family: ModelFamily,
    config: &IntegrationConfig,
    step: u64,
    limit: u64,
) -> Result<Option<u64>> {
    if step == 0 {
        return Err(DnnError::EmptyDimension { name: "step" });
    }
    let mut best = None;
    let mut n = design.reference_channels();
    while n <= limit {
        match oracle_fits_partitioned(design, family, n, n, config) {
            Ok(true) => best = Some(n),
            Ok(false) | Err(DnnError::Accel(_)) => {}
            Err(e) => return Err(e),
        }
        n += step;
    }
    Ok(best)
}

/// Checks all four searches against their oracles on one configuration;
/// returns how many answers were `Some`.
fn check_all(
    design: &SplitDesign,
    family: ModelFamily,
    config: &IntegrationConfig,
    step: u64,
    channels: &[u64],
) -> usize {
    let id = design.scaled().spec().id();
    let what = format!("SoC {id} {family} step {step} {config:?}");
    let mut found = 0;
    let mut check = |name: &str, got: Result<Option<u64>>, want: Result<Option<u64>>| {
        assert_eq!(got, want, "{name}: {what}");
        found += usize::from(matches!(got, Ok(Some(_))));
    };
    check(
        "max_channels",
        max_channels(design, family, config, step, LIMIT),
        oracle_max_channels(design, family, config, step, LIMIT),
    );
    check(
        "max_channels_partitioned",
        max_channels_partitioned(design, family, config, step, LIMIT),
        oracle_max_channels_partitioned(design, family, config, step, LIMIT),
    );
    for &n in channels {
        check(
            &format!("max_active_channels at {n}"),
            max_active_channels(design, family, n, config, step),
            oracle_max_active_channels(design, family, n, config, step),
        );
        check(
            &format!("max_active_channels_partitioned at {n}"),
            max_active_channels_partitioned(design, family, n, config, step),
            oracle_max_active_channels_partitioned(design, family, n, config, step),
        );
    }
    found
}

/// The configurations of the four Fig. 12 stacks (`ChDr` and `La+ChDr`
/// share the 45 nm one).
fn fig12_configs() -> [IntegrationConfig; 3] {
    [
        IntegrationConfig::paper_45nm(),
        IntegrationConfig::paper_12nm(),
        IntegrationConfig::paper_12nm().with_dense_channels(),
    ]
}

#[test]
fn searches_match_oracles_on_the_paper_grid() {
    let mut found = 0;
    for design in standard_split_designs() {
        for family in ModelFamily::ALL {
            for config in fig12_configs() {
                for step in [32, 64, 128] {
                    found += check_all(&design, family, &config, step, &[1024, 2048, 4096, 8192]);
                }
            }
        }
    }
    // The grid must exercise feasible answers, not only `None`.
    assert!(found > 100, "only {found} feasible answers");
}

#[test]
fn searches_match_oracles_on_random_configs() {
    let designs = standard_split_designs();
    let mut rng = StdRng::seed_from_u64(0x5EA2C4);
    let mut found = 0;
    for _ in 0..200 {
        let design = &designs[rng.random::<usize>() % designs.len()];
        let family = ModelFamily::ALL[rng.random::<usize>() % 2];
        let node = match rng.random::<u64>() % 4 {
            0 => TechnologyNode::TSMC_130NM,
            1 => TechnologyNode::NANGATE_45NM,
            2 => TechnologyNode::ADVANCED_12NM,
            _ => TechnologyNode::custom(
                "custom",
                20.0,
                TimeSpan::from_nanoseconds(0.5 + 4.5 * rng.random::<f64>()),
                Power::from_milliwatts(0.005 + 0.1 * rng.random::<f64>()),
            )
            .unwrap(),
        };
        // A quarter of the configs have a free link, where the MAC
        // bound is the whole non-sensing power of a layer-1 split.
        let energy_per_bit = if rng.random::<u64>() % 4 == 0 {
            0.0
        } else {
            200.0 * rng.random::<f64>()
        };
        let config = IntegrationConfig {
            node,
            energy_per_bit: Energy::from_picojoules(energy_per_bit),
            sample_bits: 10,
            sensing_area_scale: 0.1 + 3.9 * rng.random::<f64>(),
        };
        let step = 16 + rng.random::<u64>() % 241;
        let channels = 1024 + rng.random::<u64>() % (8192 - 1024 + 1);
        found += check_all(design, family, &config, step, &[channels]);
    }
    assert!(found > 100, "only {found} feasible answers");
}

#[test]
fn zero_step_is_rejected_like_the_oracles() {
    let design = &standard_split_designs()[0];
    let config = IntegrationConfig::paper_45nm();
    check_all(design, ModelFamily::Mlp, &config, 0, &[2048]);
}

#[test]
fn slow_macs_end_the_searches_like_the_oracles() {
    // A 250 ns MAC leaves 2 000 steps in the deadline, so layer 1's
    // sequence alone overruns it from 2 001 MLP or 667 DN-CNN channels
    // on; a 1 ms MAC cannot take one step.
    for latency_ns in [250.0, 1e6] {
        let config = IntegrationConfig {
            node: TechnologyNode::custom(
                "slow",
                45.0,
                TimeSpan::from_nanoseconds(latency_ns),
                Power::from_microwatts(1.0),
            )
            .unwrap(),
            ..IntegrationConfig::paper_45nm()
        };
        for design in standard_split_designs() {
            for family in ModelFamily::ALL {
                check_all(&design, family, &config, 64, &[1024, 4096]);
            }
        }
    }
}

/// Yang et al. (SoC 6) with a free link: at 1250 active channels the
/// MLP splits after layer 1 (200 Mbps under the 204.8 Mbps cap), and a
/// 2 ns MAC fits 250 000 steps in the 500 us deadline, so layer 1
/// (10 000 sequences of 1250 steps) needs exactly
/// `8 · 1250² / 250 000 = 50` MACs. Both search bounds then equal the
/// point's utilization in f64. This returns the config whose MAC power
/// puts that utilization at `channels` total channels just above 1,
/// inside the feasibility slack.
fn edge_config(design: &SplitDesign, channels: u64) -> IntegrationConfig {
    let config = |milliwatts: f64| IntegrationConfig {
        node: TechnologyNode::custom(
            "edge",
            45.0,
            TimeSpan::from_nanoseconds(2.0),
            Power::from_milliwatts(milliwatts),
        )
        .unwrap(),
        energy_per_bit: Energy::from_picojoules(0.0),
        ..IntegrationConfig::paper_45nm()
    };
    let utilization = |milliwatts: f64| {
        evaluate_partitioned_active(
            design,
            ModelFamily::Mlp,
            channels,
            1250,
            &config(milliwatts),
        )
        .unwrap()
        .budget_utilization()
    };
    let (mut under, mut over) = (1e-9, 1e3);
    assert!(utilization(under) < 1.0 && utilization(over) > 1.0);
    for _ in 0..200 {
        let mid = 0.5 * (under + over);
        if utilization(mid) > 1.0 {
            over = mid;
        } else {
            under = mid;
        }
    }
    let config = config(over);
    let point =
        evaluate_partitioned_active(design, ModelFamily::Mlp, channels, 1250, &config).unwrap();
    assert_eq!(point.keep_layers(), 1);
    assert_eq!(point.computation_power(), config.node.mac_power() * 50.0);
    assert!(
        point.budget_utilization() > 1.0 && point.is_feasible(),
        "{point}"
    );
    let first = ModelFamily::Mlp.architecture(1250).unwrap().layers()[0]
        .workload()
        .unwrap();
    let deadline = DeadlineSteps::new(config.node, ModelFamily::Mlp.deadline()).unwrap();
    assert_eq!(deadline.steps(), 250_000);
    assert_eq!(deadline.min_mac_hw(&first).unwrap(), 50);
    assert_eq!(first.total_macs(), 50 * 250_000);
    config
}

fn yang() -> SplitDesign {
    standard_split_designs()
        .into_iter()
        .find(|d| d.scaled().spec().id() == 6)
        .unwrap()
}

#[test]
fn dropout_search_keeps_a_point_whose_mac_bound_is_exact() {
    // Actives 128, 1250, 2372: the bound at 1250 is the point's own
    // utilization, so a bound even one MAC higher would stop the
    // search before its answer.
    let design = yang();
    let config = edge_config(&design, 4096);
    let want =
        oracle_max_active_channels_partitioned(&design, ModelFamily::Mlp, 4096, &config, 1122);
    assert_eq!(want, Ok(Some(1250)));
    assert_eq!(
        max_active_channels_partitioned(&design, ModelFamily::Mlp, 4096, &config, 1122),
        want
    );
}

#[test]
fn growing_search_keeps_a_point_whose_relaxed_bound_is_exact() {
    // Channels 1024, 1250, 1476, ...: the relaxed bound at 1250 is the
    // point's own utilization, just above 1, so the growing-n stop needs
    // its margin to keep the point.
    let design = yang();
    let config = edge_config(&design, 1250);
    let want = oracle_max_channels_partitioned(&design, ModelFamily::Mlp, &config, 226, LIMIT);
    assert_eq!(want, Ok(Some(1250)));
    assert_eq!(
        max_channels_partitioned(&design, ModelFamily::Mlp, &config, 226, LIMIT),
        want
    );
}

/// A config whose `latency_ns` MAC and free link put the partitioned MLP
/// of `active` channels at `channels` total just above utilization 1,
/// inside the feasibility slack (the MAC power is bisected as in
/// [`edge_config`]).
fn config_at_the_edge(
    design: &SplitDesign,
    channels: u64,
    active: u64,
    latency_ns: f64,
) -> IntegrationConfig {
    let config = |milliwatts: f64| IntegrationConfig {
        node: TechnologyNode::custom(
            "edge",
            45.0,
            TimeSpan::from_nanoseconds(latency_ns),
            Power::from_milliwatts(milliwatts),
        )
        .unwrap(),
        energy_per_bit: Energy::from_picojoules(0.0),
        ..IntegrationConfig::paper_45nm()
    };
    let utilization = |milliwatts: f64| {
        evaluate_partitioned_active(
            design,
            ModelFamily::Mlp,
            channels,
            active,
            &config(milliwatts),
        )
        .unwrap()
        .budget_utilization()
    };
    let (mut under, mut over) = (1e-9, 1e3);
    assert!(utilization(under) < 1.0 && utilization(over) > 1.0);
    for _ in 0..200 {
        let mid = 0.5 * (under + over);
        if utilization(mid) > 1.0 {
            over = mid;
        } else {
            under = mid;
        }
    }
    let config = config(over);
    let point =
        evaluate_partitioned_active(design, ModelFamily::Mlp, channels, active, &config).unwrap();
    assert!(
        point.budget_utilization() > 1.0 && point.is_feasible(),
        "{point}"
    );
    config
}

fn bisc() -> SplitDesign {
    standard_split_designs()
        .into_iter()
        .find(|d| d.scaled().spec().id() == 1)
        .unwrap()
}

#[test]
fn dropout_search_keeps_a_point_whose_mac_floor_is_exact() {
    // BISC's 81.92 Mbps cap splits the MLP at 1024 active channels after
    // layer 2 (2048 values, 41 Mbps; layer 1's 8192 would need 164). A
    // MAC of 500 / 393 216.5 ns leaves B = 393 216 deadline steps, and 64
    // shared MACs run both layers (8192 sequences of 1024 steps, then 2048
    // of 8192) in 1024·128 + 8192·32 = B steps. So the allocation is the
    // floor ⌈25 165 824 / B⌉ = 64 exactly, while layer 1's stop bound
    // asks for 22. Actives 128, 1024, 1920, ...: the answer's utilization
    // is its floor, so a floor one MAC higher would skip it.
    let design = bisc();
    let config = config_at_the_edge(&design, 4096, 1024, 500_000.0 / 393_216.5);
    let point =
        evaluate_partitioned_active(&design, ModelFamily::Mlp, 4096, 1024, &config).unwrap();
    assert_eq!(point.keep_layers(), 2);
    assert_eq!(point.computation_power(), config.node.mac_power() * 64.0);
    let deadline = DeadlineSteps::new(config.node, ModelFamily::Mlp.deadline()).unwrap();
    assert_eq!(deadline.steps(), 393_216);
    let kept = ModelFamily::Mlp
        .architecture(1024)
        .unwrap()
        .prefix(2)
        .unwrap()
        .workload()
        .unwrap();
    assert_eq!(kept.total_macs(), 64 * 393_216);
    assert_eq!(deadline.min_mac_hw(&kept.layers()[0]).unwrap(), 22);
    let want =
        oracle_max_active_channels_partitioned(&design, ModelFamily::Mlp, 4096, &config, 896);
    assert_eq!(want, Ok(Some(1024)));
    assert_eq!(
        max_active_channels_partitioned(&design, ModelFamily::Mlp, 4096, &config, 896),
        want
    );
}

#[test]
fn single_step_ranges_match_the_oracles() {
    // A step past `channels − 128` (or `limit − n_ref`) leaves one step.
    let mut found = 0;
    for design in standard_split_designs() {
        let reference = design.reference_channels();
        for family in ModelFamily::ALL {
            for config in fig12_configs() {
                let what = format!("SoC {} {family} {config:?}", design.scaled().spec().id());
                let got = max_active_channels_partitioned(&design, family, 1024, &config, 897);
                let want =
                    oracle_max_active_channels_partitioned(&design, family, 1024, &config, 897);
                assert_eq!(got, want, "dropout: {what}");
                found += usize::from(matches!(got, Ok(Some(_))));
                let limit = reference + 511;
                let got = max_channels_partitioned(&design, family, &config, 512, limit);
                let want = oracle_max_channels_partitioned(&design, family, &config, 512, limit);
                assert_eq!(got, want, "growing: {what}");
                found += usize::from(matches!(got, Ok(Some(_))));
            }
        }
    }
    assert!(found > 10, "only {found} feasible answers");
}

#[test]
fn dropout_search_finds_an_answer_at_the_base_channels() {
    // A 50 ns MAC leaves B = 10 000 steps. BISC keeps only layer 1 up to
    // 512 active channels, which takes ⌈8n' / ⌊B / n'⌋⌉ MACs: 14 at 128,
    // 21 at 160, and more from there (and the later splits keep more).
    // Tuned to fit at 128, nothing above it fits.
    let design = bisc();
    let config = config_at_the_edge(&design, 4096, BASE_CHANNELS, 50.0);
    let want = oracle_max_active_channels_partitioned(&design, ModelFamily::Mlp, 4096, &config, 32);
    assert_eq!(want, Ok(Some(BASE_CHANNELS)));
    assert_eq!(
        max_active_channels_partitioned(&design, ModelFamily::Mlp, 4096, &config, 32),
        want
    );
}

#[test]
fn answers_one_step_below_the_stop_match_the_oracles() {
    // Yang's edge point at 1250 channels on steps of 2: layer 1 at 1252
    // needs ⌈10 016 / ⌊250 000 / 1252⌋⌉ = 51 MACs, one more than the
    // answer's whole allocation, so the dropout stop is the very next
    // step. The growing search from 1024 on steps of 2 meets the same
    // answer, its relaxed bound exact there.
    let design = yang();
    let first = ModelFamily::Mlp.architecture(1252).unwrap().layers()[0]
        .workload()
        .unwrap();
    let config = edge_config(&design, 4096);
    let deadline = DeadlineSteps::new(config.node, ModelFamily::Mlp.deadline()).unwrap();
    assert_eq!(deadline.min_mac_hw(&first).unwrap(), 51);
    let want = oracle_max_active_channels_partitioned(&design, ModelFamily::Mlp, 4096, &config, 2);
    assert_eq!(want, Ok(Some(1250)));
    assert_eq!(
        max_active_channels_partitioned(&design, ModelFamily::Mlp, 4096, &config, 2),
        want
    );
    let config = edge_config(&design, 1250);
    let want = oracle_max_channels_partitioned(&design, ModelFamily::Mlp, &config, 2, LIMIT);
    assert_eq!(want, Ok(Some(1250)));
    assert_eq!(
        max_channels_partitioned(&design, ModelFamily::Mlp, &config, 2, LIMIT),
        want
    );
}

#[test]
fn a_stop_at_the_first_step_leaves_no_answer() {
    // A 1 W MAC: layer 1's bound overruns every budget at the first step.
    let config = IntegrationConfig {
        node: TechnologyNode::custom(
            "hot",
            45.0,
            TimeSpan::from_nanoseconds(2.0),
            Power::from_milliwatts(1e3),
        )
        .unwrap(),
        ..IntegrationConfig::paper_45nm()
    };
    for design in standard_split_designs() {
        for family in ModelFamily::ALL {
            let what = format!("SoC {} {family}", design.scaled().spec().id());
            let want = oracle_max_active_channels_partitioned(&design, family, 4096, &config, 32);
            assert_eq!(want, Ok(None), "{what}");
            assert_eq!(
                max_active_channels_partitioned(&design, family, 4096, &config, 32),
                want,
                "{what}"
            );
            let want = oracle_max_channels_partitioned(&design, family, &config, 64, LIMIT);
            assert_eq!(want, Ok(None), "{what}");
            assert_eq!(
                max_channels_partitioned(&design, family, &config, 64, LIMIT),
                want,
                "{what}"
            );
        }
    }
}
