//! Property-based tests for the core analytical framework.

use std::num::NonZeroUsize;

use mindful_core::budget::{budget_utilization, minimum_safe_area, power_budget};
use mindful_core::explore::{pareto_frontier, pareto_frontier_naive, CandidatePoint};
use mindful_core::pool::Scheduler;
use mindful_core::regimes::{ScalingRegime, SplitDesign};
use mindful_core::scaling::{scale_baseline, scale_to_channels};
use mindful_core::soc::{soc_by_id, wireless_socs, SensingFractions, SocSpec};
use mindful_core::sweep::SweepGrid;
use mindful_core::throughput::sensing_throughput;
use mindful_core::units::{Area, DataRate, Energy, Frequency, Power, PowerDensity};
use proptest::prelude::*;

fn arbitrary_soc() -> impl Strategy<Value = SocSpec> {
    (
        1_u64..100_000,
        1e-1_f64..10_000.0, // mm²
        1e-2_f64..1500.0,   // mW/cm²
        1e2_f64..1e5,       // Hz
        0.0_f64..=1.0,
        0.0_f64..=1.0,
    )
        .prop_map(|(channels, mm2, pd, hz, sp, sa)| {
            SocSpec::builder("prop")
                .channels(channels)
                .area(Area::from_square_millimeters(mm2))
                .power_density(PowerDensity::from_milliwatts_per_square_centimeter(pd))
                .sampling(Frequency::from_hertz(hz))
                .wireless(true)
                .sensing_fractions(SensingFractions::new(sp, sa).unwrap())
                .build()
                .unwrap()
        })
}

proptest! {
    #[test]
    fn unit_arithmetic_is_consistent(
        mw in 1e-6_f64..1e3,
        mm2 in 1e-3_f64..1e5,
    ) {
        let p = Power::from_milliwatts(mw);
        let a = Area::from_square_millimeters(mm2);
        // Density round-trips through its definition.
        let d = p / a;
        let back = d * a;
        prop_assert!((back - p).abs().watts() <= 1e-12 * p.watts().max(1.0));
        // Addition is commutative; subtraction inverts addition.
        let q = Power::from_milliwatts(mw / 2.0);
        prop_assert_eq!(p + q, q + p);
        prop_assert!(((p + q) - q - p).abs().watts() < 1e-15 + 1e-12 * p.watts());
    }

    #[test]
    fn energy_rate_power_triangle(pj in 1e-3_f64..1e6, mbps in 1e-6_f64..1e4) {
        let eb = Energy::from_picojoules(pj);
        let rate = DataRate::from_megabits_per_second(mbps);
        let p = rate * eb;
        let eb_back = p / rate;
        prop_assert!((eb_back.picojoules() - pj).abs() < 1e-9 * pj.max(1.0));
    }

    #[test]
    fn budget_scales_linearly_with_area(mm2 in 1e-3_f64..1e6, k in 1.0_f64..100.0) {
        let a = Area::from_square_millimeters(mm2);
        let b1 = power_budget(a);
        let b2 = power_budget(a * k);
        prop_assert!((b2 / b1 - k).abs() < 1e-9 * k);
    }

    #[test]
    fn minimum_safe_area_is_budget_inverse(mw in 1e-6_f64..1e4) {
        let p = Power::from_milliwatts(mw);
        let a = minimum_safe_area(p);
        let u = budget_utilization(p, a).unwrap();
        prop_assert!((u - 1.0).abs() < 1e-9);
    }

    #[test]
    fn baseline_scaling_is_monotone(soc in arbitrary_soc(), k in 2_u64..64) {
        let n1 = soc.channels();
        let n2 = n1.saturating_mul(k).max(n1 + 1);
        let s1 = scale_baseline(&soc, n1).unwrap();
        let s2 = scale_baseline(&soc, n2).unwrap();
        prop_assert!(s2.power() >= s1.power());
        prop_assert!(s2.area() >= s1.area());
        // Power grows linearly, area sub-linearly: density must not drop.
        prop_assert!(
            s2.power_density().watts_per_square_meter()
                >= s1.power_density().watts_per_square_meter() * (1.0 - 1e-9)
        );
    }

    #[test]
    fn baseline_scaling_composes(soc in arbitrary_soc()) {
        // Scaling to 4n directly equals scaling to 2n twice (power), and
        // area likewise through the sqrt law.
        let n = soc.channels();
        let direct = scale_baseline(&soc, 4 * n).unwrap();
        let half = scale_baseline(&soc, 2 * n).unwrap();
        prop_assert!((direct.power() / half.power() - 2.0).abs() < 1e-9);
        prop_assert!((direct.area() / half.area() - 2.0_f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn split_projection_conserves_parts(
        soc in arbitrary_soc(),
        mult in 1_u64..32,
    ) {
        let scaled = scale_to_channels(&soc, soc.channels()).unwrap();
        let split = SplitDesign::from_scaled(scaled);
        let n = soc.channels() * mult;
        for regime in [ScalingRegime::Naive, ScalingRegime::HighMargin] {
            let p = split.project(regime, n).unwrap();
            let total = p.sensing_power() + p.non_sensing_power();
            prop_assert!((total - p.total_power()).abs().watts() < 1e-12);
            let area = p.sensing_area() + p.non_sensing_area();
            prop_assert!((area - p.total_area()).abs().square_meters() < 1e-15);
            // Fractions stay physical.
            let f = p.sensing_area_fraction();
            prop_assert!((0.0..=1.0 + 1e-12).contains(&f));
        }
    }

    #[test]
    fn naive_never_changes_utilization(soc in arbitrary_soc(), mult in 1_u64..64) {
        let scaled = scale_to_channels(&soc, soc.channels()).unwrap();
        let split = SplitDesign::from_scaled(scaled);
        let u0 = split
            .project(ScalingRegime::Naive, soc.channels())
            .unwrap()
            .budget_utilization();
        let u = split
            .project(ScalingRegime::Naive, soc.channels() * mult)
            .unwrap()
            .budget_utilization();
        prop_assert!((u - u0).abs() < 1e-9 * u0.max(1.0));
    }

    #[test]
    fn high_margin_utilization_is_nondecreasing(
        soc in arbitrary_soc(),
        mult in 1_u64..64,
    ) {
        let scaled = scale_to_channels(&soc, soc.channels()).unwrap();
        let split = SplitDesign::from_scaled(scaled);
        let u0 = split
            .project(ScalingRegime::HighMargin, soc.channels())
            .unwrap()
            .budget_utilization();
        let u = split
            .project(ScalingRegime::HighMargin, soc.channels() * mult)
            .unwrap()
            .budget_utilization();
        prop_assert!(u >= u0 * (1.0 - 1e-9));
    }

    #[test]
    fn sensing_throughput_is_multiplicative(
        n in 1_u64..1_000_000,
        d in 1_u8..32,
        khz in 0.1_f64..100.0,
    ) {
        let t = sensing_throughput(n, d, Frequency::from_kilohertz(khz));
        let expected = n as f64 * f64::from(d) * khz * 1e3;
        prop_assert!((t.bits_per_second() - expected).abs() < 1e-6 * expected);
    }

    #[test]
    fn published_socs_survive_any_valid_scale(id in 1_u8..=11, n in 1_u64..1_000_000) {
        let soc = soc_by_id(id).unwrap();
        let s = scale_to_channels(&soc, n).unwrap();
        prop_assert!(s.power().watts() > 0.0);
        prop_assert!(s.area().square_meters() > 0.0);
        prop_assert!(s.power().is_finite());
        prop_assert!(s.area().is_finite());
    }
}

/// Candidate sets drawn from tiny value grids, so exact-equal powers,
/// areas, and full duplicates occur constantly — the regime where a
/// skyline's tie handling can diverge from the all-pairs oracle.
fn tie_heavy_candidates() -> impl Strategy<Value = Vec<CandidatePoint>> {
    prop::collection::vec(
        (
            prop::sample::select(vec![1024_u64, 2048, 4096]),
            1_u32..6,
            1_u32..6,
        ),
        1..40,
    )
    .prop_map(|cells| {
        cells
            .into_iter()
            .enumerate()
            .map(|(i, (channels, pw, ar))| {
                CandidatePoint::new(
                    format!("p{i}"),
                    channels,
                    Power::from_milliwatts(f64::from(pw) * 5.0),
                    Area::from_square_millimeters(f64::from(ar) * 10.0),
                )
                .unwrap()
            })
            .collect()
    })
}

/// Candidate sets with continuous objectives (ties are measure-zero).
fn continuous_candidates() -> impl Strategy<Value = Vec<CandidatePoint>> {
    prop::collection::vec((1_u64..10_000, 1e-3_f64..100.0, 1e-3_f64..500.0), 1..60).prop_map(
        |cells| {
            cells
                .into_iter()
                .enumerate()
                .map(|(i, (channels, mw, mm2))| {
                    CandidatePoint::new(
                        format!("p{i}"),
                        channels,
                        Power::from_milliwatts(mw),
                        Area::from_square_millimeters(mm2),
                    )
                    .unwrap()
                })
                .collect()
        },
    )
}

fn assert_no_dominated_point(frontier: &[CandidatePoint]) -> Result<(), TestCaseError> {
    for p in frontier {
        for q in frontier {
            prop_assert!(!q.dominates(p), "{} dominates {}", q.label, p.label);
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn skyline_frontier_equals_naive_oracle_on_ties(set in tie_heavy_candidates()) {
        prop_assert_eq!(pareto_frontier(&set), pareto_frontier_naive(&set));
    }

    #[test]
    fn skyline_frontier_equals_naive_oracle_continuous(set in continuous_candidates()) {
        prop_assert_eq!(pareto_frontier(&set), pareto_frontier_naive(&set));
    }

    #[test]
    fn frontier_is_idempotent_and_never_dominated(set in tie_heavy_candidates()) {
        let once = pareto_frontier(&set);
        let twice = pareto_frontier(&once);
        prop_assert_eq!(&once, &twice);
        assert_no_dominated_point(&once)?;
    }

    #[test]
    fn parallel_sweep_is_identical_to_serial(
        channels in prop::collection::vec(
            prop::sample::select(vec![1024_u64, 1536, 2048, 3072, 4096, 8192]),
            1..5,
        ),
        efficiencies in prop::collection::vec(0.05_f64..1.0, 1..4),
        workers in 2_usize..9,
    ) {
        let grid = SweepGrid::builder()
            .socs(wireless_socs())
            .channels(channels)
            .efficiencies(efficiencies)
            .build()
            .unwrap();
        let serial = grid
            .evaluate_on(&Scheduler::new(NonZeroUsize::MIN))
            .unwrap();
        let parallel = grid
            .evaluate_on(&Scheduler::new(NonZeroUsize::new(workers).unwrap()))
            .unwrap();
        prop_assert_eq!(serial.points(), parallel.points());
        prop_assert_eq!(serial.to_csv(), parallel.to_csv());
        // The frontier derived from the sweep is stable too.
        prop_assert_eq!(
            serial.feasible_frontier().unwrap(),
            parallel.feasible_frontier().unwrap()
        );
    }
}
