//! Benchmarks for the fleet serving layer: a warm [`Fleet`] of
//! inference sessions multiplexed over a multi-worker scheduler
//! against the sum of the same sessions served sequentially (the same
//! fleet code pinned to one worker).
//!
//! `report_serve_acceptance` is the acceptance gate for the serving
//! tentpole: on the same workload (SESSIONS × STEPS frames through one
//! shared 128-channel MLP), the multi-worker fleet epoch must be at
//! least as fast as the sum-of-sequential baseline whenever the host
//! actually has a second core to fan onto; on a single-core host the
//! gate degrades to a bounded-overhead check (the fleet's scheduling
//! machinery may cost at most 15% over the serial drive). The two
//! paths are timed in interleaved pairs so frequency drift cancels out
//! of the medians. The headline rows — `sessions_per_sec` and the p99
//! per-step latency scraped from the fleet's own `serve.step_ns`
//! registry histogram, plus per-class (`realtime` / `best_effort`)
//! sessions/sec, p99, and deadline-miss rows — land in
//! `results/bench/BENCH_serve.json`. A second paired measurement pins
//! the clock-syscall fix: an unobserved, budget-less fleet epoch
//! (where neither the fleet nor its uninstrumented pipelines read a
//! clock per step) may never run slower
//! than the observed epoch beyond noise. Set `MINDFUL_BENCH_QUICK=1`
//! (as CI does) to shrink iteration counts.

use std::hint::black_box;
use std::num::{NonZeroU32, NonZeroUsize};
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use mindful_bench::{paired_median_ns, write_artifact};
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

fn bench_serve(c: &mut Criterion) {
    let net = Arc::new(network());
    let replay = frames(net.architecture().input_values() as usize);
    let fleet_sched = Scheduler::new(fleet_workers());
    let serial_sched = Scheduler::new(NonZeroUsize::MIN);
    let registry = Registry::new();
    let (mut fleet, ids) = build_fleet(&fleet_sched, &registry, &net, &replay, "serve_bench");
    let (mut serial, serial_ids) =
        build_fleet(&serial_sched, &registry, &net, &replay, "serial_bench");
    black_box(run_epoch(&mut fleet, &ids));
    black_box(run_epoch(&mut serial, &serial_ids));

    let mut group = c.benchmark_group("serve");
    group.sample_size(10);
    group.bench_function("fleet_mlp128x8x32", |b| {
        b.iter(|| black_box(run_epoch(&mut fleet, &ids)))
    });
    group.bench_function("sequential_mlp128x8x32", |b| {
        b.iter(|| black_box(run_epoch(&mut serial, &serial_ids)))
    });
    group.finish();
}

/// One-shot acceptance measurement: the multi-worker fleet epoch must
/// be at least as fast as serving the same sessions sequentially, and
/// the headline serving rows come from the fleet's own registry.
fn report_serve_acceptance(_c: &mut Criterion) {
    let iters = if quick() { 15 } else { 41 };
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

    let (fleet_ns, sequential_ns) = paired_median_ns(
        iters,
        || {
            black_box(run_epoch(&mut fleet, &ids));
        },
        || {
            black_box(run_epoch(&mut serial, &serial_ids));
        },
    );
    let speedup = sequential_ns / fleet_ns;
    let sessions_per_sec = SESSIONS as f64 / (fleet_ns / 1e9);
    let steps_per_sec = f64::from(STEPS) * SESSIONS as f64 / (fleet_ns / 1e9);

    // Pin for the clock-syscall fix: in an unobserved, budget-less
    // fleet epoch the fleet times nothing per step (only the
    // pipelines' own stage stopwatches run), so it must never run
    // slower than the observed epoch beyond measurement noise.
    let (mut unobserved, unobserved_ids) = build_unobserved_fleet(&fleet_sched, &net, &replay);
    assert_eq!(run_epoch(&mut unobserved, &unobserved_ids), per_epoch);
    let (unobserved_ns, observed_ns) = paired_median_ns(
        iters,
        || {
            black_box(run_epoch(&mut unobserved, &unobserved_ids));
        },
        || {
            black_box(run_epoch(&mut fleet, &ids));
        },
    );
    let obs_overhead = observed_ns / unobserved_ns;
    assert!(
        unobserved_ns <= observed_ns * 1.15,
        "the obs-off epoch must not pay for timing it never records: \
         unobserved {unobserved_ns:.0} ns vs observed {observed_ns:.0} ns"
    );

    // The latency row is a registry scrape, not a separate stopwatch:
    // the fleet's own `serve.step_ns` histogram over every measured
    // (and warm-up) step.
    let snapshot = registry.snapshot();
    let step_ns = snapshot
        .histogram("serve.step_ns")
        .expect("the observed fleet fills its step histogram");
    let p50_step_ns = step_ns
        .quantile_upper_bound(0.5)
        .expect("non-empty histogram");
    let p99_step_ns = step_ns
        .quantile_upper_bound(0.99)
        .expect("non-empty histogram");
    // Per-class serving rows: both classes ran every epoch, so both
    // class histograms are non-empty and the per-class throughput is
    // the class's session count over the same epoch wall time.
    let rt_p99_step_ns = snapshot
        .histogram("serve.realtime.step_ns")
        .expect("registered per-class histogram")
        .quantile_upper_bound(0.99)
        .expect("realtime sessions stepped");
    let be_p99_step_ns = snapshot
        .histogram("serve.best_effort.step_ns")
        .expect("registered per-class histogram")
        .quantile_upper_bound(0.99)
        .expect("best-effort sessions stepped");
    let rt_sessions_per_sec = REALTIME_SESSIONS as f64 / (fleet_ns / 1e9);
    let be_sessions_per_sec = (SESSIONS - REALTIME_SESSIONS) as f64 / (fleet_ns / 1e9);
    let rt_deadline_misses = snapshot
        .counter("serve.realtime.deadline_misses")
        .expect("registered per-class counter");
    let be_deadline_misses = snapshot
        .counter("serve.best_effort.deadline_misses")
        .expect("registered per-class counter");

    let host = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    println!(
        "serve/mlp128x{SESSIONS}x{STEPS} fleet {:.2} ms vs sequential {:.2} ms \
         ({speedup:.2}x on {workers} workers / {host} cores, \
         {sessions_per_sec:.0} sessions/s, p99 step {p99_step_ns} ns)",
        fleet_ns / 1e6,
        sequential_ns / 1e6,
    );
    if host >= 2 {
        assert!(
            speedup >= 1.0,
            "a fleet on {workers} workers must serve at least the sum-of-sequential \
             throughput, got {speedup:.2}x ({fleet_ns:.0} ns vs {sequential_ns:.0} ns)"
        );
    } else {
        // One core: parallel speedup is physically unavailable, so the
        // gate is the scheduling overhead bound instead.
        assert!(
            speedup >= 0.85,
            "on a single-core host the fleet's scheduling overhead must stay \
             within 15% of the serial drive, got {speedup:.2}x \
             ({fleet_ns:.0} ns vs {sequential_ns:.0} ns)"
        );
    }

    let json = format!(
        "{{\n  \"bench\": \"serve\",\n  \"quick\": {},\n  \
         \"model\": \"mlp\",\n  \"channels\": {BASE_CHANNELS},\n  \
         \"sessions\": {SESSIONS},\n  \"steps_per_session\": {STEPS},\n  \
         \"workers\": {},\n  \
         \"host_parallelism\": {host},\n  \
         \"fleet_ns_per_epoch\": {fleet_ns:.0},\n  \
         \"sequential_ns_per_epoch\": {sequential_ns:.0},\n  \
         \"unobserved_ns_per_epoch\": {unobserved_ns:.0},\n  \
         \"obs_overhead\": {obs_overhead:.3},\n  \
         \"speedup\": {speedup:.3},\n  \
         \"sessions_per_sec\": {sessions_per_sec:.1},\n  \
         \"steps_per_sec\": {steps_per_sec:.1},\n  \
         \"p50_step_ns\": {p50_step_ns},\n  \
         \"p99_step_ns\": {p99_step_ns},\n  \
         \"realtime_sessions\": {REALTIME_SESSIONS},\n  \
         \"realtime_sessions_per_sec\": {rt_sessions_per_sec:.1},\n  \
         \"realtime_p99_step_ns\": {rt_p99_step_ns},\n  \
         \"realtime_deadline_ns\": {RT_DEADLINE_NS},\n  \
         \"realtime_deadline_misses\": {rt_deadline_misses},\n  \
         \"best_effort_sessions\": {},\n  \
         \"best_effort_sessions_per_sec\": {be_sessions_per_sec:.1},\n  \
         \"best_effort_p99_step_ns\": {be_p99_step_ns},\n  \
         \"best_effort_deadline_misses\": {be_deadline_misses}\n}}\n",
        quick(),
        workers.get(),
        SESSIONS - REALTIME_SESSIONS,
    );
    write_artifact("serve", &json);
}

criterion_group!(benches, bench_serve, report_serve_acceptance);
criterion_main!(benches);
