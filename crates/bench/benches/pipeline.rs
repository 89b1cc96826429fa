//! Benchmarks for the unified streaming pipeline: a warm `StreamSet`
//! (pipelines built once, per-stage buffers and DNN workspaces reused
//! across every frame) against the repeated batched path (one
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
/// Frames each stream decodes per run.
const STEPS: usize = 32;
/// Distinct synthetic frames replayed cyclically per stream.
const REPLAY: usize = 8;

fn quick() -> bool {
    mindful_core::env::bench_quick()
}

/// The scheduler for the serving comparison: the machine's
/// parallelism, but at least two workers, so both engines actually fan
/// over workers — the regime the comparison is about (streaming fans
/// once per drive, the batched path re-fans every step).
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

/// One stream's pipeline: replayed frames into the shared model.
fn build_streams(net: &Arc<Network>, replay: &[Vec<f32>]) -> StreamSet {
    StreamSet::build(STREAMS, |_| {
        Ok(Pipeline::new()
            .with_stage(ReplaySource::new(replay.to_vec())?)
            .with_stage(DnnStage::shared(Arc::clone(net), 10)?))
    })
    .expect("streams build")
}

/// The streaming path: drive the warm set, every frame through reused
/// buffers and workspaces.
fn run_streaming(set: &mut StreamSet) -> u64 {
    set.drive(STEPS, &serving())
        .expect("streaming run succeeds")
        .iter()
        .map(|r| r.emitted)
        .sum()
}

/// The batched path (PR 2): one `forward_batch` fan-out per step over
/// the pre-assembled batch every stream would consume that step.
fn run_batched(net: &Network, batches: &[Vec<Vec<f32>>]) -> u64 {
    let scheduler = serving();
    let mut decoded = 0_u64;
    for step in 0..STEPS {
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
    let mut set = build_streams(&net, &replay);
    black_box(run_streaming(&mut set));
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    group.bench_function("streaming_mlp128x4x32", |b| {
        b.iter(|| black_box(run_streaming(&mut set)))
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
    let total_frames = (STREAMS * STEPS) as u64;

    // Warm both paths (stream buffers, pool threads, allocator arenas).
    let mut set = build_streams(&net, &replay);
    assert_eq!(run_streaming(&mut set), total_frames);
    assert_eq!(run_batched(&net, &step_batches), total_frames);

    let (streaming_ns, batched_ns) = paired_median_ns(
        iters,
        || {
            black_box(run_streaming(&mut set));
        },
        || {
            black_box(run_batched(&net, &step_batches));
        },
    );
    let speedup = batched_ns / streaming_ns;
    let threads = serving().workers();
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
