//! `speech-fleet`: MLP-128 speech decoders served by one fleet.
//!
//! Decoder sessions share one fleet on one worker: realtime sessions
//! with the paper's 500 µs per-sample deadline and best-effort
//! sessions with a shed point, at f32 and int8 precision. The loop is
//! closed: each round every session asks for the frame of its next
//! 500 µs sample period (the 2 kHz application rate) and best-effort
//! sessions add seeded bursts above their quantum, so the shed path
//! runs; the generator then drives one epoch. One op is one offered
//! frame; its response time runs from its request to the return of
//! the `drive_epoch` that served it. The dnn, serve and pool layers do
//! the work; decode and rf are absent.

use std::num::{NonZeroU32, NonZeroUsize};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mindful_core::obs::{clear_spans, drain_spans, Registry, SpanRecord};
use mindful_core::pool::Scheduler;
use mindful_dnn::infer::Network;
use mindful_dnn::models::{ModelFamily, BASE_CHANNELS};
use mindful_dnn::quant::QuantizedNetwork;
use mindful_pipeline::prelude::*;

use crate::gen::{activation_frames, Rng};
use crate::report::Report;
use crate::stats::{drive, ledger_note, median, timed_setup, SliceLog};
use crate::Args;

/// Realtime response deadline, in ns.
const DEADLINE_NS: u64 = 500_000;
/// Rounds (epochs) per fixed-work slice.
const SLICE_ROUNDS: usize = 64;
/// Rounds between probe readings inside a slice.
const CHECKPOINT_ROUNDS: usize = 16;
/// Distinct replayed frames per session.
const REPLAY_FRAMES: usize = 64;
/// Quantum of every session (steps per epoch).
const QUANTUM: u32 = 4;
/// Quantum of best-effort sessions, below their bursts.
const BE_QUANTUM: u32 = 1;
/// Per-session backlog bound: below the largest best-effort burst, so
/// part of it is refused and the backpressure path runs.
const MAX_BACKLOG: u32 = 4;
/// Per-epoch shed bound.
const SHED_QUANTUM: u32 = 256;
/// Chance that a best-effort round carries a burst.
const BURST_CHANCE: f64 = 1.0 / 16.0;
/// Extra frames in a burst: 2..=4.
const BURST_EXTRA: (u64, u64) = (2, 3);
/// Sink samples every this many outputs for the correctness check.
const SAMPLE_EVERY: u64 = 97;
/// Sampled outputs kept per session.
const SAMPLE_CAP: usize = 64;
/// Set-ups timed per run.
const SETUP_REPS: usize = 5;
/// Seed of the deployed decoder's weights: the model is part of the
/// program, fixed across runs; the run's seed varies its inputs.
const MODEL_SEED: u64 = 0x5EED_0128;
/// Host sensitivity: in the contended regime a round slows by the
/// probe's slowdown to this power (within-run fit over 26046 slices of
/// 20 runs: 1.33x mean round time at a 1.76x probe; see `METRICS.md`).
const SENSITIVITY: f64 = 0.57;

/// One session of the mix.
#[derive(Clone, Copy)]
struct Kind {
    class: PriorityClass,
    precision: Precision,
}

/// The session mix: two realtime decoders (f32 and int8) and one
/// best-effort int8 decoder.
const MIX: [Kind; 3] = [
    Kind {
        class: PriorityClass::Realtime,
        precision: Precision::F32,
    },
    Kind {
        class: PriorityClass::Realtime,
        precision: Precision::Int8,
    },
    Kind {
        class: PriorityClass::BestEffort,
        precision: Precision::Int8,
    },
];

type Samples = Arc<Mutex<Vec<(u64, Vec<f32>)>>>;

/// The application end of a session: passes the decoder's output on
/// and keeps every `SAMPLE_EVERY`-th one for the correctness check.
struct Sink {
    seen: u64,
    samples: Samples,
}

impl Stage for Sink {
    fn name(&self) -> &'static str {
        "sink"
    }

    fn process(
        &mut self,
        input: &Frame<'_>,
        out: &mut FrameBuf,
    ) -> mindful_pipeline::Result<StageOutput> {
        let Frame::Activations(values) = input else {
            return Err(PipelineError::UnexpectedFrame {
                stage: "sink",
                actual: input.kind(),
            });
        };
        out.begin_activations().extend_from_slice(values);
        if self.seen.is_multiple_of(SAMPLE_EVERY) {
            let mut samples = self
                .samples
                .lock()
                .expect("sink samples are never poisoned");
            if samples.len() < SAMPLE_CAP {
                samples.push((self.seen, values.to_vec()));
            }
        }
        self.seen += 1;
        Ok(StageOutput::Emitted)
    }
}

/// The models every session shares.
struct Models {
    f32: Arc<Network>,
    int8: Arc<QuantizedNetwork>,
}

/// Generator-side state of one session in one fleet.
struct Session {
    id: SessionId,
    kind: Kind,
    /// Accepted, unserved frames.
    queue: u32,
    /// Frames refused by backpressure in the current round.
    refused: u32,
    accepted: u64,
    samples: Samples,
    /// Busy ns and frames of the dnn stage at the last traced slice.
    dnn_mark: (f64, u64),
    /// Busy ns of every stage at the last traced slice.
    busy_mark: f64,
}

/// One fleet with its sessions.
struct FleetRun<'a> {
    fleet: Fleet<'a>,
    sessions: Vec<Session>,
}

/// Set-up: the models (the int8 twin calibrated from the f32
/// weights), the fleet, its sessions, and one warm epoch.
fn build<'a>(
    scheduler: &'a Scheduler,
    registry: Option<&'a Registry>,
    replay: &[Vec<Vec<f32>>],
    models: Option<&Models>,
) -> Result<(FleetRun<'a>, Models), String> {
    let e = |e: PipelineError| e.to_string();
    let built;
    let models = match models {
        Some(m) => m,
        None => {
            let arch = ModelFamily::Mlp
                .architecture(BASE_CHANNELS)
                .map_err(|e| e.to_string())?;
            let net = Network::with_seeded_weights(arch, MODEL_SEED);
            let int8 = QuantizedNetwork::from_network_default(&net).map_err(|e| e.to_string())?;
            built = Models {
                f32: Arc::new(net),
                int8: Arc::new(int8),
            };
            &built
        }
    };
    let config = FleetConfig {
        capacity: NonZeroUsize::new(MIX.len()).expect("non-empty mix"),
        quantum: NonZeroU32::new(QUANTUM).expect("non-zero"),
        max_backlog: MAX_BACKLOG,
        shed_quantum: NonZeroU32::new(SHED_QUANTUM).expect("non-zero"),
        epoch_capacity: None,
    };
    let mut fleet = match registry {
        Some(registry) => Fleet::observed(scheduler, config, registry, "serve"),
        None => Fleet::new(scheduler, config),
    };
    let width = models.f32.architecture().input_values() as usize;
    let mut sessions = Vec::with_capacity(MIX.len());
    for (kind, frames) in MIX.iter().zip(replay) {
        let dnn = match kind.precision {
            Precision::F32 => DnnStage::shared(Arc::clone(&models.f32), 10),
            Precision::Int8 => {
                DnnStage::shared_quantized(Arc::clone(&models.f32), Arc::clone(&models.int8), 10)
            }
        }
        .map_err(e)?;
        let samples: Samples = Arc::new(Mutex::new(Vec::with_capacity(SAMPLE_CAP)));
        let pipeline = Pipeline::new()
            .with_stage(ReplaySource::new(frames.clone()).map_err(e)?)
            .with_stage(ConcealStage::new(width, DegradePolicy::Interpolate).map_err(e)?)
            .with_stage(dnn)
            .with_stage(Sink {
                seen: 0,
                samples: Arc::clone(&samples),
            });
        let mut spec = SessionSpec::new(pipeline).with_class(kind.class);
        spec = match kind.class {
            PriorityClass::Realtime => spec.with_deadline_ns(DEADLINE_NS),
            _ => spec
                .with_quantum(NonZeroU32::new(BE_QUANTUM).expect("non-zero"))
                .with_shed(1, FrameKind::Activations),
        };
        let id = fleet.admit(spec).map_err(e)?;
        sessions.push(Session {
            id,
            kind: *kind,
            queue: 0,
            refused: 0,
            accepted: 0,
            samples,
            dnn_mark: (0.0, 0),
            busy_mark: 0.0,
        });
    }
    let mut run = FleetRun { fleet, sessions };
    // Warm-up: one frame through every session.
    for s in &mut run.sessions {
        s.accepted += u64::from(run.fleet.request(s.id, 1).map_err(e)?);
    }
    run.fleet.drive_epoch().map_err(e)?;
    let models = Models {
        f32: Arc::clone(&models.f32),
        int8: Arc::clone(&models.int8),
    };
    Ok((run, models))
}

/// Per-run accounting of the offered frames.
#[derive(Default)]
struct Tally {
    offered: u64,
    rejected: u64,
    shed: u64,
}

/// Per-slice figures beyond the response samples; the run keeps one
/// per slice of its log, in the same order.
#[derive(Default)]
struct SliceWork {
    /// Frames stepped, epochs driven, and epoch ns spent.
    steps: u64,
    epochs: u64,
    epoch_ns: f64,
    /// Traced slices: dnn busy ns and frames per precision (f32,
    /// int8), busy ns of every stage, and dnn layer span ns.
    dnn_ns: [f64; 2],
    dnn_frames: [u64; 2],
    busy_ns: f64,
    layer_ns: [[f64; 7]; 2],
}

/// One round: every session asks for its next frame (best-effort
/// sessions sometimes for a burst), then one epoch serves them. The
/// generator mirrors the fleet's grant law and checks the epoch's
/// per-class steps and shed against it. Realtime frames are recorded
/// in `log` (a refused one as missed): their response time and
/// deadline are the workload's latency figures.
fn round(
    run: &mut FleetRun<'_>,
    bursts: &mut Rng,
    t: &mut Tally,
    log: &mut SliceLog,
    work: &mut SliceWork,
) -> Result<(), String> {
    let start = Instant::now();
    for s in &mut run.sessions {
        let n = if s.kind.class != PriorityClass::Realtime && bursts.unit() < BURST_CHANCE {
            1 + (BURST_EXTRA.0 + bursts.below(BURST_EXTRA.1)) as u32
        } else {
            1
        };
        let accepted = run.fleet.request(s.id, n).map_err(|e| e.to_string())?;
        s.accepted += u64::from(accepted);
        s.queue += accepted;
        t.offered += u64::from(n);
        t.rejected += u64::from(n - accepted);
        s.refused = n - accepted;
    }
    let report = run.fleet.drive_epoch().map_err(|e| e.to_string())?;
    let response = start.elapsed().as_nanos() as f64;
    let (mut steps, mut shed) = ([0_u64; 3], [0_u64; 3]);
    for s in &mut run.sessions {
        let quantum = match s.kind.class {
            PriorityClass::Realtime => QUANTUM,
            _ => BE_QUANTUM,
        };
        let served = s.queue.min(quantum);
        s.queue -= served;
        if s.kind.class == PriorityClass::Realtime {
            for _ in 0..served {
                log.record(response);
            }
            for _ in 0..s.refused {
                log.record_missed(response);
            }
        }
        steps[s.kind.class.index()] += u64::from(served);
        if s.kind.class != PriorityClass::Realtime {
            let n = s.queue.min(SHED_QUANTUM);
            s.queue -= n;
            shed[s.kind.class.index()] += u64::from(n);
            t.shed += u64::from(n);
        }
    }
    for (c, class) in report.by_class.iter().enumerate() {
        if class.steps != steps[c] || class.shed != shed[c] {
            return Err(format!(
                "speech-fleet gate: epoch served {:?} but the grant law gives steps {steps:?} \
                 shed {shed:?}",
                report.by_class
            ));
        }
    }
    work.steps += report.steps;
    work.epochs += 1;
    work.epoch_ns += response;
    Ok(())
}

/// Adds the traced slice's dnn and stage busy time (deltas of each
/// session's telemetry) to `work`.
fn telemetry_delta(run: &mut FleetRun<'_>, work: &mut SliceWork) -> Result<(), String> {
    for s in &mut run.sessions {
        let report = run.fleet.peek(s.id).map_err(|e| e.to_string())?;
        let dnn = &report.telemetry[2];
        let p = usize::from(s.kind.precision == Precision::Int8);
        let ns = dnn.busy.as_nanos() as f64;
        work.dnn_ns[p] += ns - s.dnn_mark.0;
        work.dnn_frames[p] += dnn.frames_in - s.dnn_mark.1;
        s.dnn_mark = (ns, dnn.frames_in);
        let all: f64 = report
            .telemetry
            .iter()
            .map(|t| t.busy.as_nanos() as f64)
            .sum();
        work.busy_ns += all - s.busy_mark;
        s.busy_mark = all;
    }
    Ok(())
}

/// Adds the layer spans the dnn stages recorded in this thread's span
/// ring (one span per layer per forward, in layer order) to `work`.
fn drain_layers(spans: &mut Vec<SpanRecord>, work: &mut SliceWork) -> Result<(), String> {
    spans.clear();
    if drain_spans(spans) > 0 {
        return Err("speech-fleet: the span ring overflowed within one epoch".into());
    }
    for (p, name) in ["dnn.dense", "dnn.dense_i8"].iter().enumerate() {
        for (k, span) in spans.iter().filter(|r| r.name == *name).enumerate() {
            work.layer_ns[p][k % 7] += span.elapsed_ns() as f64;
        }
    }
    Ok(())
}

/// Correctness gates: the ledger balances per session (accepted =
/// stepped + shed + backlog), and sampled realtime outputs equal a
/// direct `forward_into` of their frame.
fn gate(run: &mut FleetRun<'_>, replay: &[Vec<Vec<f32>>], models: &Models) -> Result<(), String> {
    for (s, frames) in run.sessions.iter().zip(replay) {
        let report = run.fleet.peek(s.id).map_err(|e| e.to_string())?;
        if s.accepted != report.steps + report.shed + u64::from(report.backlog) {
            return Err(format!(
                "speech-fleet gate: session {:?} accepted {} != stepped {} + shed {} + backlog {}",
                s.id, s.accepted, report.steps, report.shed, report.backlog
            ));
        }
        if s.kind.class != PriorityClass::Realtime {
            continue;
        }
        let samples = s.samples.lock().expect("sink samples are never poisoned");
        if samples.is_empty() {
            return Err("speech-fleet gate: no output was sampled".into());
        }
        for (k, output) in samples.iter() {
            let frame = &frames[(*k as usize) % frames.len()];
            let expected: Vec<f32> = match s.kind.precision {
                Precision::F32 => {
                    let mut ws = models.f32.workspace();
                    models
                        .f32
                        .forward_into(frame, &mut ws)
                        .map_err(|e| e.to_string())?
                        .to_vec()
                }
                Precision::Int8 => {
                    let mut ws = models.int8.workspace();
                    models
                        .int8
                        .forward_into(frame, &mut ws)
                        .map_err(|e| e.to_string())?
                        .to_vec()
                }
            };
            if expected != *output {
                return Err(format!(
                    "speech-fleet gate: {:?} output {k} differs from forward_into",
                    s.kind.precision
                ));
            }
        }
    }
    Ok(())
}

/// Per-step names of the f32 and int8 dnn stages.
const STEP_NAMES: [&str; 2] = ["dnn.f32_step_us", "dnn.int8_step_us"];

/// Per-layer names of the f32 and int8 dnn layers.
const LAYER_NAMES: [[&str; 7]; 2] = [
    [
        "dnn.f32_layer_us.0",
        "dnn.f32_layer_us.1",
        "dnn.f32_layer_us.2",
        "dnn.f32_layer_us.3",
        "dnn.f32_layer_us.4",
        "dnn.f32_layer_us.5",
        "dnn.f32_layer_us.6",
    ],
    [
        "dnn.int8_layer_us.0",
        "dnn.int8_layer_us.1",
        "dnn.int8_layer_us.2",
        "dnn.int8_layer_us.3",
        "dnn.int8_layer_us.4",
        "dnn.int8_layer_us.5",
        "dnn.int8_layer_us.6",
    ],
];

/// Runs the workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let width = BASE_CHANNELS as usize;
    let replay: Vec<Vec<Vec<f32>>> = (0..MIX.len())
        .map(|s| activation_frames(args.seed, 10 + s as u64, REPLAY_FRAMES, width))
        .collect();
    let mut bursts = Rng::new(args.seed, 20);

    let scheduler = Scheduler::new(NonZeroUsize::MIN);
    let registry = Registry::new();
    let mut log = SliceLog::new(SENSITIVITY, DEADLINE_NS as f64);
    let (setup_s, setup_raw, (mut plain, models)) = timed_setup(&mut log, SETUP_REPS, || {
        build(&scheduler, None, &replay, None)
    })?;
    if models.f32.architecture().layers().len() != 7 {
        return Err("speech-fleet: MLP-128 is expected to have 7 layers".into());
    }
    let mut traced_run = if args.trace {
        Some(build(&scheduler, Some(&registry), &replay, Some(&models))?.0)
    } else {
        None
    };

    let (mut tally, mut traced_tally) = (Tally::default(), Tally::default());
    let mut work: Vec<SliceWork> = Vec::new();
    let mut spans: Vec<SpanRecord> = Vec::with_capacity(1024);
    drive(&mut log, args.measure, args.trace, |log, traced| {
        let mut w = SliceWork::default();
        if traced {
            let run = traced_run
                .as_mut()
                .expect("trace runs build a traced fleet");
            for i in 0..SLICE_ROUNDS {
                if i > 0 && i % CHECKPOINT_ROUNDS == 0 {
                    log.checkpoint();
                }
                clear_spans();
                round(run, &mut bursts, &mut traced_tally, log, &mut w)?;
                drain_layers(&mut spans, &mut w)?;
            }
            telemetry_delta(run, &mut w)?;
        } else {
            for i in 0..SLICE_ROUNDS {
                if i > 0 && i % CHECKPOINT_ROUNDS == 0 {
                    log.checkpoint();
                }
                round(&mut plain, &mut bursts, &mut tally, log, &mut w)?;
            }
        }
        work.push(w);
        Ok(())
    })?;
    gate(&mut plain, &replay, &models)?;
    if let Some(run) = traced_run.as_mut() {
        gate(run, &replay, &models)?;
    }

    let mut report = Report::new(&log);
    report.attempted = tally.offered;
    report.e2e.insert("setup_s", setup_s);
    report.raw.insert("setup_s", setup_raw);
    // Every round records realtime frames, so every slice is closed
    // into the log and `work[i]` belongs to `log.slices[i]`.
    if work.len() != log.slices.len() {
        return Err("speech-fleet: a slice closed without recording a frame".into());
    }
    for (adj, map) in [(true, &mut report.e2e), (false, &mut report.raw)] {
        let mut capacity: Vec<f64> = log
            .untraced()
            .map(|(i, _)| {
                let f = if adj { log.slices[i].factor() } else { 1.0 };
                work[i].steps as f64 / (work[i].epoch_ns * f) * 1e9
            })
            .collect();
        map.insert("ops_per_s", median(&mut capacity));
        map.insert("op_p50_us", log.median_of(adj, |s| s.p50_ns) / 1e3);
        map.insert("op_tail_us", log.median_of(adj, |s| s.tail_ns) / 1e3);
    }
    report.e2e.insert("on_time_pct", log.on_time_pct());
    report.notes.push(format!(
        "{{\"speech\": {{\"offered\": {}, \"shed\": {}, \"rejected\": {}}}}}",
        tally.offered, tally.shed, tally.rejected
    ));
    if args.trace {
        // Host-adjusted sums over the traced slices; the untraced
        // service time per step for the ledger.
        let mut traced_sum = SliceWork::default();
        let (mut plain_ns, mut plain_steps) = (0.0, 0_u64);
        for (w, slice) in work.iter().zip(&log.slices) {
            let f = slice.factor();
            if !slice.traced {
                plain_ns += w.epoch_ns * f;
                plain_steps += w.steps;
                continue;
            }
            for p in 0..2 {
                traced_sum.dnn_ns[p] += w.dnn_ns[p] * f;
                traced_sum.dnn_frames[p] += w.dnn_frames[p];
                for k in 0..7 {
                    traced_sum.layer_ns[p][k] += w.layer_ns[p][k] * f;
                }
            }
            traced_sum.busy_ns += w.busy_ns * f;
            traced_sum.epoch_ns += w.epoch_ns * f;
            traced_sum.epochs += w.epochs;
            traced_sum.steps += w.steps;
        }
        let w = &traced_sum;
        for (p, (step, layers)) in STEP_NAMES.iter().zip(&LAYER_NAMES).enumerate() {
            let frames = w.dnn_frames[p].max(1) as f64;
            report.layers.insert(step, w.dnn_ns[p] / frames / 1e3);
            for (k, name) in layers.iter().enumerate() {
                report.layers.insert(name, w.layer_ns[p][k] / frames / 1e3);
            }
        }
        let per_step = |ns: f64| ns / w.steps.max(1) as f64 / 1e3;
        let dnn_total = w.dnn_ns[0] + w.dnn_ns[1];
        ledger_note(
            &mut report,
            "speech-fleet",
            &[
                ("dnn", per_step(dnn_total)),
                ("replay_conceal_sink", per_step(w.busy_ns - dnn_total)),
            ],
            plain_ns / plain_steps.max(1) as f64 / 1e3,
            per_step(w.epoch_ns),
        );
        let epochs = w.epochs.max(1) as f64;
        let snapshot = registry.snapshot();
        let counter = |name: &str| snapshot.counter(name).unwrap_or(0) as f64;
        let per_k = |count: f64| 1000.0 * count / traced_tally.offered.max(1) as f64;
        report
            .layers
            .insert("serve.epoch_us", w.epoch_ns / epochs / 1e3);
        report
            .layers
            .insert("serve.overhead_us", (w.epoch_ns - w.busy_ns) / epochs / 1e3);
        report.layers.insert(
            "serve.steps_per_epoch",
            counter("serve.steps") / counter("serve.epochs").max(1.0),
        );
        report
            .layers
            .insert("serve.shed", per_k(counter("serve.shed")));
        report
            .layers
            .insert("serve.rejected", per_k(counter("serve.rejected")));
    }
    Ok(report)
}
