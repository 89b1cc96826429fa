//! Benchmarks for the fleet serving layer: a warm [`Fleet`] of
//! inference sessions multiplexed over a multi-worker scheduler
//! against the sum of the same sessions served sequentially (the same
//! fleet code pinned to one worker).
//!
//! The gates, each on a median per-pair ratio. On the same workload
//! (SESSIONS × STEPS frames through one shared 128-channel MLP), the
//! multi-worker fleet epoch must be at least as fast as the
//! sum-of-sequential baseline whenever the host actually has a second
//! core to fan onto; on a single-core host the gate degrades to a
//! bounded-overhead check (the fleet's scheduling machinery may cost at
//! most 15% over the serial drive). An unobserved, budget-less fleet
//! epoch (where neither the fleet nor its uninstrumented pipelines read
//! a clock per step) may cost at most 1.15x the observed one. The
//! `fleet`, `realtime` and `best_effort` rows carry sessions/sec, the
//! p99 per-step latency scraped from the fleet's own registry
//! histograms and the deadline misses. Set `MINDFUL_BENCH_QUICK=1` (as
//! CI does) to shrink the pair count.

use std::hint::black_box;
use std::num::{NonZeroU32, NonZeroUsize};
use std::sync::Arc;

use mindful_bench::{compare, Report, Row};
use mindful_core::obs::Registry;
use mindful_core::pool::{default_threads, Scheduler};
use mindful_dnn::infer::Network;
use mindful_dnn::models::{ModelFamily, BASE_CHANNELS};
use mindful_pipeline::prelude::*;

/// Concurrent implant sessions (one pipeline each).
const SESSIONS: usize = 8;
/// Frames each session decodes per epoch.
const STEPS: u32 = 32;
/// Distinct synthetic frames replayed cyclically per session.
const REPLAY: usize = 8;

fn quick() -> bool {
    mindful_core::env::bench_quick()
}

/// Scheduler workers for the fleet under test: the machine's
/// parallelism, but at least two — the acceptance regime is a fleet
/// that actually fans sessions over workers.
fn fleet_workers() -> NonZeroUsize {
    NonZeroUsize::new(default_threads().get().max(2)).expect("non-zero")
}

fn network() -> Network {
    let arch = ModelFamily::Mlp
        .architecture(BASE_CHANNELS)
        .expect("MLP builds at the base channel count");
    Network::with_seeded_weights(arch, 7)
}

fn frames(width: usize) -> Vec<Vec<f32>> {
    (0..REPLAY)
        .map(|s| {
            (0..width)
                .map(|i| (((i + 31 * s) % 23) as f32 - 11.0) / 11.0)
                .collect()
        })
        .collect()
}

/// Realtime sessions in the classed fleet (the rest are best-effort).
const REALTIME_SESSIONS: usize = SESSIONS / 2;
/// The paper's ~500 µs per-sample motor-decode deadline, used as the
/// realtime sessions' per-step budget.
const RT_DEADLINE_NS: u64 = 500_000;

fn config() -> FleetConfig {
    FleetConfig {
        capacity: NonZeroUsize::new(SESSIONS).expect("non-zero"),
        // One epoch serves every session's whole demand: the bench
        // measures throughput, the soak owns the fairness contracts.
        quantum: NonZeroU32::new(STEPS).expect("non-zero"),
        max_backlog: STEPS,
        ..FleetConfig::default()
    }
}

/// One replay→DNN session chain off the shared weight set.
fn session_spec(net: &Arc<Network>, replay: &[Vec<f32>]) -> SessionSpec {
    SessionSpec::new(
        Pipeline::new()
            .with_stage(ReplaySource::new(replay.to_vec()).expect("frames"))
            .with_stage(DnnStage::shared(Arc::clone(net), 10).expect("dnn stage")),
    )
}

/// Builds the benchmarked fleet: SESSIONS replay→DNN sessions sharing
/// one weight set, observed so the per-step latency histogram fills.
/// The first half are realtime-class with the paper's per-step
/// deadline budget; the rest ride along best-effort, so the per-class
/// serving rows both fill.
fn build_fleet<'a>(
    scheduler: &'a Scheduler,
    registry: &'a Registry,
    net: &Arc<Network>,
    replay: &[Vec<f32>],
    prefix: &str,
) -> (Fleet<'a>, Vec<SessionId>) {
    let mut fleet = Fleet::observed(scheduler, config(), registry, prefix);
    let ids = (0..SESSIONS)
        .map(|s| {
            let spec = if s < REALTIME_SESSIONS {
                session_spec(net, replay)
                    .with_class(PriorityClass::Realtime)
                    .with_deadline_ns(RT_DEADLINE_NS)
            } else {
                session_spec(net, replay)
            };
            fleet.admit(spec).expect("admission under capacity")
        })
        .collect();
    (fleet, ids)
}

/// Builds the obs-off twin: same sessions, no registry, no deadline
/// budgets — the configuration where neither the fleet nor its
/// uninstrumented pipelines read a clock on the epoch hot path.
fn build_unobserved_fleet<'a>(
    scheduler: &'a Scheduler,
    net: &Arc<Network>,
    replay: &[Vec<f32>],
) -> (Fleet<'a>, Vec<SessionId>) {
    let mut fleet = Fleet::new(scheduler, config());
    let ids = (0..SESSIONS)
        .map(|_| {
            fleet
                .admit(session_spec(net, replay))
                .expect("admission under capacity")
        })
        .collect();
    (fleet, ids)
}

/// One serving round: queue STEPS of demand per session, drive one
/// epoch. Returns the frames that cleared the chains.
fn run_epoch(fleet: &mut Fleet<'_>, ids: &[SessionId]) -> u64 {
    for &id in ids {
        assert_eq!(fleet.request(id, STEPS).expect("live session"), STEPS);
    }
    let report = fleet.drive_epoch().expect("epoch succeeds");
    assert_eq!(report.starved, 0);
    report.emitted
}

fn main() {
    let pairs = if quick() { 15 } else { 41 };
    let net = Arc::new(network());
    let replay = frames(net.architecture().input_values() as usize);
    let workers = fleet_workers();
    let fleet_sched = Scheduler::new(workers);
    let serial_sched = Scheduler::new(NonZeroUsize::MIN);
    let registry = Registry::new();
    let (mut fleet, ids) = build_fleet(&fleet_sched, &registry, &net, &replay, "serve");
    let (mut serial, serial_ids) = build_fleet(&serial_sched, &registry, &net, &replay, "serial");
    let per_epoch = SESSIONS as u64 * u64::from(STEPS);

    // Warm both paths (session buffers, DNN workspaces, pool threads).
    assert_eq!(run_epoch(&mut fleet, &ids), per_epoch);
    assert_eq!(run_epoch(&mut serial, &serial_ids), per_epoch);

    let scaling = compare(
        pairs,
        1,
        || {
            black_box(run_epoch(&mut fleet, &ids));
        },
        Some(|| {
            black_box(run_epoch(&mut serial, &serial_ids));
        }),
    );

    // Pin for the clock-syscall fix: in an unobserved, budget-less
    // fleet epoch the fleet times nothing per step, so it must never
    // run slower than the observed epoch beyond measurement noise.
    let (mut unobserved, unobserved_ids) = build_unobserved_fleet(&fleet_sched, &net, &replay);
    assert_eq!(run_epoch(&mut unobserved, &unobserved_ids), per_epoch);
    let obs_off = compare(
        pairs,
        1,
        || {
            black_box(run_epoch(&mut fleet, &ids));
        },
        Some(|| {
            black_box(run_epoch(&mut unobserved, &unobserved_ids));
        }),
    );

    // The latency rows are registry scrapes, not a separate stopwatch:
    // the fleet's own `serve.step_ns` histograms over every measured
    // (and warm-up) step. Both classes ran every epoch, so both class
    // histograms are non-empty and the per-class throughput is the
    // class's session count over the same epoch wall time.
    let snapshot = registry.snapshot();
    let step_ns = |name: &str, q: f64| {
        snapshot
            .histogram(name)
            .expect("the observed fleet fills its step histograms")
            .quantile_upper_bound(q)
            .expect("non-empty histogram") as f64
    };
    let misses = |name: &str| {
        snapshot
            .counter(name)
            .expect("registered per-class counter") as f64
    };
    let epoch_s = scaling.a_ns / 1e9;
    let best_effort = SESSIONS - REALTIME_SESSIONS;

    let mut report = Report::new("serve");
    report.push(
        scaling
            .row("sequential_vs_fleet")
            .with("workers", workers.get() as f64),
    );
    report.push(obs_off.row("unobserved_vs_observed"));
    report.push(
        Row::new("fleet")
            .with("sessions", SESSIONS as f64)
            .with("steps_per_session", f64::from(STEPS))
            .with("sessions_per_sec", SESSIONS as f64 / epoch_s)
            .with("steps_per_sec", per_epoch as f64 / epoch_s)
            .with("p50_step_ns", step_ns("serve.step_ns", 0.5))
            .with("p99_step_ns", step_ns("serve.step_ns", 0.99)),
    );
    report.push(
        Row::new("realtime")
            .with("sessions", REALTIME_SESSIONS as f64)
            .with("sessions_per_sec", REALTIME_SESSIONS as f64 / epoch_s)
            .with("p99_step_ns", step_ns("serve.realtime.step_ns", 0.99))
            .with("deadline_ns", RT_DEADLINE_NS as f64)
            .with("deadline_misses", misses("serve.realtime.deadline_misses")),
    );
    report.push(
        Row::new("best_effort")
            .with("sessions", best_effort as f64)
            .with("sessions_per_sec", best_effort as f64 / epoch_s)
            .with("p99_step_ns", step_ns("serve.best_effort.step_ns", 0.99))
            .with(
                "deadline_misses",
                misses("serve.best_effort.deadline_misses"),
            ),
    );
    report.write(env!("CARGO_TARGET_TMPDIR"));

    assert!(
        obs_off.ratio_p50 <= 1.15,
        "the obs-off epoch must not pay for timing it never records: \
         unobserved ÷ observed {:.3}x (per-pair median)",
        obs_off.ratio_p50,
    );
    let speedup = scaling.ratio_p50;
    if std::thread::available_parallelism().map_or(1, NonZeroUsize::get) >= 2 {
        assert!(
            speedup >= 1.0,
            "a fleet on {workers} workers must serve at least the sum-of-sequential \
             throughput, got {speedup:.2}x (per-pair median)"
        );
    } else {
        // One core: parallel speedup is physically unavailable, so the
        // gate is the scheduling overhead bound instead.
        assert!(
            speedup >= 0.85,
            "on a single-core host the fleet's scheduling overhead must stay \
             within 15% of the serial drive, got {speedup:.2}x (per-pair median)"
        );
    }
}
