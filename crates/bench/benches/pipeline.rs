//! Benchmarks for the unified streaming pipeline: warm streams served
//! as the sessions of a default-config `Fleet` (pipelines built once,
//! per-stage buffers and DNN workspaces reused across every frame, one
//! epoch per run) against the repeated batched path (one
//! `forward_batch` call per step — a fresh workspace and fresh output
//! vectors every call).
//!
//! `report_pipeline_acceptance` is the acceptance gate for the
//! streaming rewire: on the same workload (STREAMS × STEPS frames
//! through the same seeded MLP), steady-state streaming throughput must
//! be at least the batched path's. The two paths are timed in
//! interleaved pairs so frequency drift cancels out of the medians,
//! which land in `results/bench/BENCH_pipeline.json`. Set
//! `MINDFUL_BENCH_QUICK=1` (as CI does) to shrink iteration counts.

use std::hint::black_box;
use std::num::NonZeroUsize;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use mindful_bench::{paired_median_ns, write_artifact};
use mindful_core::pool::{default_threads, Scheduler};
use mindful_dnn::infer::Network;
use mindful_dnn::models::{ModelFamily, BASE_CHANNELS};
use mindful_pipeline::prelude::*;

/// Concurrent implant streams (one pipeline each).
const STREAMS: usize = 4;
/// Frames each stream decodes per run (within the default fleet
/// quantum, so one epoch serves a whole run).
const STEPS: u32 = 32;
/// Distinct synthetic frames replayed cyclically per stream.
const REPLAY: usize = 8;

fn quick() -> bool {
    mindful_core::env::bench_quick()
}

/// The scheduler for the serving comparison: the machine's
/// parallelism, but at least two workers, so both engines actually fan
/// over workers — the regime the comparison is about (streaming fans
/// once per epoch, the batched path re-fans every step).
fn serving() -> Scheduler {
    Scheduler::new(NonZeroUsize::new(default_threads().get().max(2)).expect("non-zero"))
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

/// Admits the streams to `fleet`, each pipeline replaying frames into
/// the shared model.
fn build_streams(fleet: &mut Fleet<'_>, net: &Arc<Network>, replay: &[Vec<f32>]) -> Vec<SessionId> {
    (0..STREAMS)
        .map(|_| {
            let pipeline = Pipeline::new()
                .with_stage(ReplaySource::new(replay.to_vec()).expect("replay builds"))
                .with_stage(DnnStage::shared(Arc::clone(net), 10).expect("dnn stage builds"));
            fleet
                .admit(SessionSpec::new(pipeline))
                .expect("stream admits")
        })
        .collect()
}

/// The streaming path: one epoch of the warm fleet, every frame
/// through reused buffers and workspaces.
fn run_streaming(fleet: &mut Fleet<'_>, ids: &[SessionId]) -> u64 {
    for &id in ids {
        fleet.request(id, STEPS).expect("stream is live");
    }
    fleet.drive_epoch().expect("streaming run succeeds").emitted
}

/// The batched path (PR 2): one `forward_batch` fan-out per step over
/// the pre-assembled batch every stream would consume that step.
fn run_batched(net: &Network, batches: &[Vec<Vec<f32>>]) -> u64 {
    let scheduler = serving();
    let mut decoded = 0_u64;
    for step in 0..STEPS as usize {
        decoded += net
            .forward_batch(&batches[step % batches.len()], &scheduler)
            .expect("batched forward succeeds")
            .len() as u64;
    }
    decoded
}

/// The per-step input batches, assembled once — the batched path pays
/// only its intrinsic per-call costs (workspace + output vectors).
fn batches(replay: &[Vec<f32>]) -> Vec<Vec<Vec<f32>>> {
    (0..REPLAY)
        .map(|step| (0..STREAMS).map(|_| replay[step].clone()).collect())
        .collect()
}

fn bench_pipeline(c: &mut Criterion) {
    let net = Arc::new(network());
    let replay = frames(net.architecture().input_values() as usize);
    let step_batches = batches(&replay);
    let scheduler = serving();
    let mut fleet = Fleet::new(&scheduler, FleetConfig::default());
    let ids = build_streams(&mut fleet, &net, &replay);
    black_box(run_streaming(&mut fleet, &ids));
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    group.bench_function("streaming_mlp128x4x32", |b| {
        b.iter(|| black_box(run_streaming(&mut fleet, &ids)))
    });
    group.bench_function("batched_mlp128x4x32", |b| {
        b.iter(|| black_box(run_batched(&net, &step_batches)))
    });
    group.finish();
}

/// One-shot acceptance measurement: steady-state streaming throughput
/// on the rewired realtime workload must be at least the batched
/// path's.
fn report_pipeline_acceptance(_c: &mut Criterion) {
    let iters = if quick() { 15 } else { 41 };
    let net = Arc::new(network());
    let replay = frames(net.architecture().input_values() as usize);
    let step_batches = batches(&replay);
    let total_frames = STREAMS as u64 * u64::from(STEPS);

    // Warm both paths (stream buffers, pool threads, allocator arenas).
    let scheduler = serving();
    let mut fleet = Fleet::new(&scheduler, FleetConfig::default());
    let ids = build_streams(&mut fleet, &net, &replay);
    assert_eq!(run_streaming(&mut fleet, &ids), total_frames);
    assert_eq!(run_batched(&net, &step_batches), total_frames);

    let (streaming_ns, batched_ns) = paired_median_ns(
        iters,
        || {
            black_box(run_streaming(&mut fleet, &ids));
        },
        || {
            black_box(run_batched(&net, &step_batches));
        },
    );
    let speedup = batched_ns / streaming_ns;
    let threads = scheduler.workers();
    println!(
        "pipeline/mlp128x{STREAMS}x{STEPS} streaming {:.2} ms vs batched {:.2} ms \
         ({speedup:.2}x on {threads} threads)",
        streaming_ns / 1e6,
        batched_ns / 1e6,
    );
    assert!(
        speedup >= 1.0,
        "steady-state streaming must be at least the batched path on the same workload, \
         got {speedup:.2}x ({streaming_ns:.0} ns vs {batched_ns:.0} ns)"
    );

    let json = format!(
        "{{\n  \"bench\": \"pipeline\",\n  \"quick\": {},\n  \
         \"model\": \"mlp\",\n  \"channels\": {BASE_CHANNELS},\n  \
         \"streams\": {STREAMS},\n  \"steps\": {STEPS},\n  \"threads\": {},\n  \
         \"streaming_ns_per_run\": {streaming_ns:.0},\n  \
         \"batched_ns_per_run\": {batched_ns:.0},\n  \
         \"speedup\": {speedup:.3}\n}}\n",
        quick(),
        threads.get(),
    );
    write_artifact("pipeline", &json);
}

criterion_group!(benches, bench_pipeline, report_pipeline_acceptance);
criterion_main!(benches);
