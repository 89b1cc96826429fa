//! Extension: application-level real-time analysis (Section 8).
//!
//! The paper notes that "real-time performance must be evaluated at the
//! application level rather than only by data rate or sampling
//! frequency". This study computes the end-to-end latency of one
//! decoded output on each SoC — input window + on-implant inference +
//! wireless transmission — and compares it against the ~0.18 s brain
//! reaction time used as the real-time bar by MasterMind-style systems.
//!
//! Alongside the analytic breakdown, the study *runs* each decoder two
//! ways: the `f32` inference engine executes a batch of synthetic
//! frames through `Network::forward_batch` on a default-sized
//! [`Scheduler`] (the batched path), and the same network streams
//! frame-by-frame through the unified [`mindful_pipeline`] `Stage`
//! chain with several concurrent streams fanned over the same kind of
//! scheduler — the zero-allocation
//! serving path a host-side decoder daemon would run.
//!
//! The streaming study runs each chain in two modes. `clean` is the
//! bare replay → DNN path; `faulted` inserts the seeded front-end
//! fault injector and the concealment guard in front of the DNN, so
//! the CSV surfaces both the throughput cost of the fault layer and
//! the per-chain fault telemetry (injected / degraded / quarantined
//! counts) that the PR 4 graceful-degradation work threads through
//! the per-stage telemetry.
//!
//! Finally the fleet study serves each family through the dynamic
//! serving layer: independent sessions admitted to a [`Fleet`] on the
//! shared scheduler and deliberately oversubscribed every epoch, so
//! the load-shedding path (excess demand degraded through the
//! concealment stage) is measured alongside the real decode steps and
//! its accounting is checked field-exactly against the sessions' own
//! conceal telemetry.

use std::num::{NonZeroU32, NonZeroUsize};
use std::path::Path;
use std::sync::Arc;

use mindful_accel::alloc::best_allocation;
use mindful_core::obs::{clear_spans, clock, drain_spans, Registry, Snapshot};
use mindful_core::pool::Scheduler;
use mindful_core::regimes::standard_split_designs;
use mindful_core::throughput::sensing_throughput;
use mindful_core::units::TimeSpan;
use mindful_dnn::infer::Network;
use mindful_dnn::integration::IntegrationConfig;
use mindful_dnn::models::{
    ModelFamily, APPLICATION_RATE, BASE_CHANNELS, CNN_WINDOW, OUTPUT_LABELS,
};
use mindful_dnn::quant::{Precision, QuantizedNetwork};
use mindful_pipeline::prelude::*;
use mindful_pipeline::ClassReport;
use mindful_plot::{AsciiTable, Csv};
use mindful_rf::fault::{FaultConfig, FaultPlan};

use crate::error::Result;
use crate::output::Artifacts;

/// The brain's reaction time — the end-to-end real-time bar (~180 ms).
pub(crate) const BRAIN_REACTION_TIME: TimeSpan = TimeSpan::from_milliseconds(180.0);

/// End-to-end latency breakdown for one SoC × model deployment.
#[derive(Debug, Clone)]
pub(crate) struct LatencyBreakdown {
    /// Table 1 id.
    pub(crate) id: u8,
    /// SoC display name.
    pub(crate) name: String,
    /// Model family.
    pub(crate) family: ModelFamily,
    /// Time to accumulate the model's input window.
    pub(crate) window: TimeSpan,
    /// On-implant inference latency (best MAC allocation).
    pub(crate) inference: TimeSpan,
    /// Wireless transmission time of the output packet at the SoC's raw
    /// link rate.
    pub(crate) transmission: TimeSpan,
}

impl LatencyBreakdown {
    /// Total end-to-end latency.
    #[must_use]
    pub(crate) fn total(&self) -> TimeSpan {
        self.window + self.inference + self.transmission
    }

    /// Whether the deployment meets the brain-reaction-time bar.
    #[must_use]
    pub(crate) fn meets_reaction_time(&self) -> bool {
        self.total() <= BRAIN_REACTION_TIME
    }
}

/// Measured batched-inference throughput for one model family, from
/// actually executing the network on a default-sized scheduler.
#[derive(Debug, Clone)]
pub(crate) struct MeasuredThroughput {
    /// Model family.
    pub(crate) family: ModelFamily,
    /// Numeric precision of the measured engine (`f32` runs the SIMD
    /// dense kernels; `int8` the quantized datapath).
    pub(crate) precision: Precision,
    /// Samples in the measured batch.
    pub(crate) batch: usize,
    /// Worker threads used by `forward_batch`.
    pub(crate) threads: usize,
    /// Measured wall time per sample.
    pub(crate) per_sample: TimeSpan,
    /// Whether the batched outputs matched per-sample `forward` calls
    /// exactly (they must — same kernels, same workspaces).
    pub(crate) consistent: bool,
    /// Per-layer spans recorded by one single-threaded batch inside a
    /// capture window (`clear_spans` … `drain_spans`): `layers × batch`.
    pub(crate) layer_spans: u64,
}

impl MeasuredThroughput {
    /// Achieved decoding rate in samples per second.
    #[must_use]
    pub(crate) fn samples_per_second(&self) -> f64 {
        1.0 / self.per_sample.seconds()
    }
}

/// Which chain a streaming measurement drove.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StreamingMode {
    /// Bare replay → DNN chain (the pre-fault-layer path).
    Clean,
    /// Replay → fault injector → concealment guard → DNN chain.
    Faulted,
}

impl core::fmt::Display for StreamingMode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            Self::Clean => "clean",
            Self::Faulted => "faulted",
        })
    }
}

/// Measured streaming throughput for one model family: the same network
/// driven frame-by-frame through the unified `Stage` pipeline, with
/// several concurrent streams fanned over one scheduler.
#[derive(Debug, Clone)]
pub(crate) struct MeasuredStreaming {
    /// Model family.
    pub(crate) family: ModelFamily,
    /// Which chain was driven.
    pub(crate) mode: StreamingMode,
    /// Concurrent streams driven.
    pub(crate) streams: usize,
    /// Frames each stream processed.
    pub(crate) steps: usize,
    /// Worker threads of the scheduler the streams' fleet epochs run on.
    pub(crate) threads: usize,
    /// Measured wall time per frame across all streams.
    pub(crate) per_frame: TimeSpan,
    /// Mean in-stage latency of the DNN stage (from pipeline telemetry).
    pub(crate) dnn_latency: TimeSpan,
    /// Peak output-buffer bytes across all stages of one stream — the
    /// fixed memory footprint an implant port of the chain would need.
    pub(crate) peak_buffer_bytes: usize,
    /// Fault telemetry merged over every stage of every stream (all
    /// zero in clean mode).
    pub(crate) faults: FaultTelemetry,
    /// Registry scrape of this run's per-stream, per-stage metrics
    /// (`s{stream}.{index}.{stage}.*`, covering warm-up and the timed
    /// drive).
    pub(crate) snapshot: Snapshot,
}

impl MeasuredStreaming {
    /// Achieved decoding rate in frames per second (all streams).
    #[must_use]
    pub(crate) fn frames_per_second(&self) -> f64 {
        1.0 / self.per_frame.seconds()
    }
}

/// Measured dynamic-fleet serving for one model family and one
/// priority class: the serving layer's [`Fleet`] admitting a mixed
/// realtime / interactive / best-effort population over the shared
/// scheduler, with the best-effort majority deliberately
/// oversubscribed each epoch so the load-shedding path (gap markers
/// into the concealment stage) is part of the measurement, not a
/// footnote. The realtime sessions carry the family's per-sample
/// deadline as their step budget, so the row also reports how often
/// the measured host missed it.
#[derive(Debug, Clone)]
pub(crate) struct MeasuredFleet {
    /// Model family.
    pub(crate) family: ModelFamily,
    /// The priority class this row accounts.
    pub(crate) class: PriorityClass,
    /// Concurrent sessions of this class admitted.
    pub(crate) sessions: usize,
    /// Scheduler workers the fleet fanned over.
    pub(crate) workers: usize,
    /// Scheduling epochs timed.
    pub(crate) epochs: u64,
    /// Real pipeline steps run for this class across all timed epochs.
    pub(crate) steps: u64,
    /// Oversubscribed steps shed into concealment for this class.
    pub(crate) shed: u64,
    /// Real steps that ran past the class's per-session deadline
    /// budget (only realtime sessions carry one).
    pub(crate) deadline_misses: u64,
    /// Frames the class's conceal stages report as degraded — must
    /// equal `shed` exactly (the field-exact accounting contract).
    pub(crate) degraded: u64,
    /// Wall time across the timed epochs (shared by every class row of
    /// one family: the classes are served inside the same epochs).
    pub(crate) elapsed: TimeSpan,
}

impl MeasuredFleet {
    /// Measured wall time per real step.
    #[must_use]
    pub(crate) fn per_step(&self) -> TimeSpan {
        TimeSpan::from_seconds(self.elapsed.seconds() / self.steps.max(1) as f64)
    }

    /// Session-epochs served per second (each session advances once per
    /// epoch).
    #[must_use]
    pub(crate) fn sessions_per_sec(&self) -> f64 {
        (self.sessions as f64 * self.epochs as f64) / self.elapsed.seconds()
    }
}

/// The generated study.
#[derive(Debug, Clone)]
pub struct Realtime {
    /// One row per SoC × model that admits a real-time MAC allocation.
    pub(crate) rows: Vec<LatencyBreakdown>,
    /// Measured host-side batched-inference throughput per family.
    pub(crate) measured: Vec<MeasuredThroughput>,
    /// Measured streaming-pipeline throughput per family.
    pub(crate) streaming: Vec<MeasuredStreaming>,
    /// Measured dynamic-fleet serving per family.
    pub(crate) fleet: Vec<MeasuredFleet>,
}

/// Computes latency breakdowns for SoCs 1–8 at 1024 channels.
///
/// # Errors
///
/// Propagates evaluation errors other than per-deployment real-time
/// infeasibility (those SoCs are skipped, mirroring Fig. 10).
pub fn generate() -> Result<Realtime> {
    let config = IntegrationConfig::paper_45nm();
    let mut rows = Vec::new();
    for design in standard_split_designs() {
        let spec = design.scaled().spec();
        for family in ModelFamily::ALL {
            let arch = family.architecture(1024)?;
            let Ok(allocation) = best_allocation(&arch.workload()?, config.node, family.deadline())
            else {
                continue;
            };
            // Input window: the samples one inference consumes.
            let window_samples = match family {
                ModelFamily::Mlp => 1,
                ModelFamily::DnCnn => CNN_WINDOW,
            };
            let window = APPLICATION_RATE.period() * window_samples as f64;
            // Output packet: 40 labels at the SoC's raw OOK link rate.
            let rate = sensing_throughput(1024, spec.sample_bits(), spec.sampling());
            let packet_bits = OUTPUT_LABELS as f64 * f64::from(spec.sample_bits());
            let transmission = TimeSpan::from_seconds(packet_bits / rate.bits_per_second());
            rows.push(LatencyBreakdown {
                id: spec.id(),
                name: design.scaled().name().to_owned(),
                family,
                window,
                inference: allocation.latency(),
                transmission,
            });
        }
    }
    Ok(Realtime {
        rows,
        measured: measure_throughput()?,
        streaming: measure_streaming()?,
        fleet: measure_fleet()?,
    })
}

/// Runs each decoder family at the 128-channel base scale on a batch of
/// synthetic frames through `forward_batch` and times it.
fn measure_throughput() -> Result<Vec<MeasuredThroughput>> {
    const BATCH: usize = 16;
    let scheduler = Scheduler::with_default_threads();
    let serial = Scheduler::new(NonZeroUsize::MIN);
    let mut measured = Vec::new();
    for family in ModelFamily::ALL {
        let arch = family.architecture(BASE_CHANNELS)?;
        let net = Network::with_seeded_weights(arch, 7);
        let width = net.architecture().input_values() as usize;
        let frames: Vec<Vec<f32>> = (0..BATCH)
            .map(|s| {
                (0..width)
                    .map(|i| ((i + 31 * s) as f32 * 0.013).sin())
                    .collect()
            })
            .collect();
        // Warm the pool path once, then time one full batch.
        let outputs = net.forward_batch(&frames, &scheduler)?;
        let start = clock::now_ns();
        let timed = net.forward_batch(&frames, &scheduler)?;
        let elapsed_ns = clock::since_ns(start) as f64;
        // One more batch, single-threaded, so the per-layer spans land
        // on this thread's ring and can be counted — and the serial
        // path provably computes the same outputs.
        clear_spans();
        let serial_outputs = net.forward_batch(&frames, &serial)?;
        let mut spans = Vec::new();
        let overwritten = drain_spans(&mut spans);
        let layer_spans = spans.len() as u64 + overwritten;
        let consistent = timed == outputs
            && serial_outputs == outputs
            && frames
                .iter()
                .zip(&timed)
                .all(|(x, y)| net.forward(x).map(|z| z == *y).unwrap_or(false));
        measured.push(MeasuredThroughput {
            family,
            precision: Precision::F32,
            batch: BATCH,
            threads: scheduler.workers().get(),
            per_sample: TimeSpan::from_nanoseconds(elapsed_ns / BATCH as f64),
            consistent,
            layer_spans,
        });

        // The int8 twin, for the families the quantizer supports
        // (all-dense). Integer arithmetic is deterministic, so batched
        // must equal per-sample exactly.
        let Ok(quantized) = QuantizedNetwork::from_network_default(&net) else {
            continue;
        };
        let q_outputs = quantized.forward_batch(&frames, &scheduler)?;
        let start = clock::now_ns();
        let q_timed = quantized.forward_batch(&frames, &scheduler)?;
        let elapsed_ns = clock::since_ns(start) as f64;
        clear_spans();
        let mut ws = quantized.workspace();
        let q_single: Vec<Vec<f32>> = frames
            .iter()
            .map(|x| quantized.forward_into(x, &mut ws).map(<[f32]>::to_vec))
            .collect::<mindful_dnn::Result<_>>()?;
        let mut spans = Vec::new();
        let overwritten = drain_spans(&mut spans);
        measured.push(MeasuredThroughput {
            family,
            precision: Precision::Int8,
            batch: BATCH,
            threads: scheduler.workers().get(),
            per_sample: TimeSpan::from_nanoseconds(elapsed_ns / BATCH as f64),
            consistent: q_timed == q_outputs && q_single == q_outputs,
            layer_spans: spans.len() as u64 + overwritten,
        });
    }
    Ok(measured)
}

/// Synthetic pre-normalized frames shared by every stream of a family.
fn synthetic_frames(width: usize, count: usize) -> Vec<Vec<f32>> {
    (0..count)
        .map(|s| {
            (0..width)
                .map(|i| ((i + 31 * s) as f32 * 0.013).sin())
                .collect()
        })
        .collect()
}

/// Composite front-end fault rate driven through the faulted mode —
/// deliberately harsher than the soak test's 2% so even the short
/// measurement window sees every fault family.
const STREAM_FAULT_RATE: f64 = 0.05;

/// Seed for the per-stream fault plans (xor-ed with the stream index
/// so concurrent streams draw independent fault sequences).
const STREAM_FAULT_SEED: u64 = 0xFA_17;

/// Drives each decoder family through the unified `Stage` pipeline:
/// several replayed streams at the 128-channel base scale, admitted as
/// sessions of one default-config [`Fleet`] whose epoch fans them over
/// one scheduler, timed end to end. Each family is measured twice —
/// clean and with the fault layer inserted.
fn measure_streaming() -> Result<Vec<MeasuredStreaming>> {
    const STREAMS: usize = 4;
    const STEPS: u32 = 16;
    let scheduler = Scheduler::with_default_threads();
    let mut streaming = Vec::new();
    for mode in [StreamingMode::Clean, StreamingMode::Faulted] {
        for family in ModelFamily::ALL {
            let arch = family.architecture(BASE_CHANNELS)?;
            let net = Arc::new(Network::with_seeded_weights(arch, 7));
            let width = net.architecture().input_values() as usize;
            let frames = synthetic_frames(width, 8);
            let registry = Registry::new();
            let mut fleet = Fleet::new(&scheduler, FleetConfig::default());
            let mut ids = Vec::with_capacity(STREAMS);
            for stream in 0..STREAMS {
                let pipeline = Pipeline::new().with_stage(ReplaySource::new(frames.clone())?);
                let pipeline = if mode == StreamingMode::Faulted {
                    let plan = FaultPlan::new(
                        FaultConfig::frame_composite(STREAM_FAULT_RATE),
                        STREAM_FAULT_SEED ^ stream as u64,
                    )?;
                    pipeline
                        .with_stage(FaultStage::new(plan, 10)?)
                        .with_stage(ConcealStage::new(width, DegradePolicy::HoldLast)?)
                } else {
                    pipeline
                };
                let pipeline = pipeline
                    .with_stage(DnnStage::shared(Arc::clone(&net), 10)?)
                    .with_instrumentation(&registry, &format!("s{stream}"));
                ids.push(fleet.admit(SessionSpec::new(pipeline))?);
            }
            // Every stream's whole demand fits one epoch (the default
            // quantum and backlog bound cover STEPS).
            let mut drive = || -> Result<()> {
                for &id in &ids {
                    fleet.request(id, STEPS)?;
                }
                let epoch = fleet.drive_epoch()?;
                assert_eq!(epoch.steps, (STREAMS as u64) * u64::from(STEPS));
                Ok(())
            };
            // Warm the fleet once (buffers sized, workspaces grown),
            // then time one steady-state epoch — the serving shape the
            // `pipeline` bench measures.
            drive()?;
            let start = clock::now_ns();
            drive()?;
            let elapsed_ns = clock::since_ns(start) as f64;
            let reports = ids
                .iter()
                .map(|&id| fleet.peek(id))
                .collect::<mindful_pipeline::Result<Vec<_>>>()?;
            let first = reports.first().expect("at least one stream");
            let dnn = first
                .telemetry
                .iter()
                .find(|t| t.name == "dnn")
                .expect("chain ends in the dnn stage");
            let faults = reports
                .iter()
                .flat_map(|r| &r.telemetry)
                .filter_map(|t| t.faults)
                .fold(FaultTelemetry::default(), FaultTelemetry::merged);
            streaming.push(MeasuredStreaming {
                family,
                mode,
                streams: STREAMS,
                steps: STEPS as usize,
                threads: scheduler.workers().get(),
                per_frame: TimeSpan::from_nanoseconds(
                    elapsed_ns / (STREAMS * STEPS as usize) as f64,
                ),
                dnn_latency: TimeSpan::from_seconds(dnn.mean_latency().as_secs_f64()),
                peak_buffer_bytes: first.telemetry.iter().map(|t| t.peak_buffer_bytes).sum(),
                faults,
                snapshot: registry.snapshot(),
            });
        }
    }
    Ok(streaming)
}

/// Realtime motor-decode sessions per family (the family's per-sample
/// deadline as their step budget).
const FLEET_RT_SESSIONS: usize = 2;

/// Interactive monitor sessions per family.
const FLEET_IA_SESSIONS: usize = 2;

/// Best-effort bulk sessions per family — the oversubscribed,
/// sheddable majority.
const FLEET_BE_SESSIONS: usize = 4;

/// Concurrent sessions the fleet study admits per family.
const FLEET_SESSIONS: usize = FLEET_RT_SESSIONS + FLEET_IA_SESSIONS + FLEET_BE_SESSIONS;

/// Sessions per class, indexed by [`PriorityClass::index`].
const FLEET_CLASS_SESSIONS: [usize; 3] = [FLEET_RT_SESSIONS, FLEET_IA_SESSIONS, FLEET_BE_SESSIONS];

/// Timed oversubscribed epochs per family.
const FLEET_EPOCHS: u64 = 4;

/// Per-session scheduling quantum: real steps served each epoch.
const FLEET_QUANTUM: u32 = 8;

/// Best-effort demand queued each timed epoch. The excess over the
/// quantum is shed into concealment, so every timed epoch exercises
/// both the decode path and the degraded path. Realtime and
/// interactive sessions request exactly their quantum and never shed.
const FLEET_DEMAND: u32 = 12;

/// Admits each decoder family's mixed-class population to a dynamic
/// [`Fleet`] and times oversubscribed serving epochs: realtime and
/// interactive sessions queue exactly one [`FLEET_QUANTUM`] each, the
/// best-effort majority queues [`FLEET_DEMAND`] and has its excess
/// shed as gap markers that the concealment stage degrades while the
/// quantum's worth decodes for real. The warm-up epoch requests
/// exactly one quantum everywhere (nothing sheds), so the conceal
/// stages' degraded counts afterwards mirror the timed sheds
/// field-exactly. One row lands per family × class.
fn measure_fleet() -> Result<Vec<MeasuredFleet>> {
    let scheduler = Scheduler::with_default_threads();
    let mut rows = Vec::new();
    for family in ModelFamily::ALL {
        let arch = family.architecture(BASE_CHANNELS)?;
        let net = Arc::new(Network::with_seeded_weights(arch, 7));
        let width = net.architecture().input_values() as usize;
        let frames = synthetic_frames(width, 8);
        let deadline_ns = family.deadline().nanoseconds() as u64;
        let config = FleetConfig {
            capacity: NonZeroUsize::new(FLEET_SESSIONS).expect("non-zero"),
            quantum: NonZeroU32::new(FLEET_QUANTUM).expect("non-zero"),
            max_backlog: FLEET_DEMAND + FLEET_QUANTUM,
            ..FleetConfig::default()
        };
        let mut fleet = Fleet::new(&scheduler, config);
        let chain = || -> Result<SessionSpec> {
            Ok(SessionSpec::new(
                Pipeline::new()
                    .with_stage(ReplaySource::new(frames.clone())?)
                    .with_stage(ConcealStage::new(width, DegradePolicy::HoldLast)?)
                    .with_stage(DnnStage::shared(Arc::clone(&net), 10)?),
            ))
        };
        // (id, class, per-epoch demand): realtime first, then the
        // monitors, then the sheddable bulk majority.
        let mut ids: Vec<(SessionId, PriorityClass, u32)> = Vec::with_capacity(FLEET_SESSIONS);
        for _ in 0..FLEET_RT_SESSIONS {
            let spec = chain()?
                .with_class(PriorityClass::Realtime)
                .with_deadline_ns(deadline_ns);
            ids.push((fleet.admit(spec)?, PriorityClass::Realtime, FLEET_QUANTUM));
        }
        for _ in 0..FLEET_IA_SESSIONS {
            let spec = chain()?.with_class(PriorityClass::Interactive);
            ids.push((
                fleet.admit(spec)?,
                PriorityClass::Interactive,
                FLEET_QUANTUM,
            ));
        }
        for _ in 0..FLEET_BE_SESSIONS {
            let spec = chain()?.with_shed(1, FrameKind::Activations);
            ids.push((fleet.admit(spec)?, PriorityClass::BestEffort, FLEET_DEMAND));
        }
        // Warm epoch at exactly one quantum: buffers size, workspaces
        // grow, nothing sheds.
        for &(id, _, _) in &ids {
            assert_eq!(fleet.request(id, FLEET_QUANTUM)?, FLEET_QUANTUM);
        }
        fleet.drive_epoch()?;
        let mut by_class = [ClassReport::default(); PriorityClass::COUNT];
        let start = clock::now_ns();
        for _ in 0..FLEET_EPOCHS {
            for &(id, _, demand) in &ids {
                assert_eq!(fleet.request(id, demand)?, demand);
            }
            let report = fleet.drive_epoch()?;
            for (acc, class) in by_class.iter_mut().zip(report.by_class) {
                acc.steps += class.steps;
                acc.shed += class.shed;
                acc.deadline_misses += class.deadline_misses;
            }
        }
        let elapsed_ns = clock::since_ns(start) as f64;
        let mut degraded = [0_u64; PriorityClass::COUNT];
        for (id, class, _) in ids {
            let report = fleet.evict(id)?;
            degraded[class.index()] += report
                .telemetry
                .iter()
                .filter_map(|t| t.faults)
                .map(|f| f.degraded)
                .sum::<u64>();
        }
        for (ci, class) in PriorityClass::ALL.into_iter().enumerate() {
            rows.push(MeasuredFleet {
                family,
                class,
                sessions: FLEET_CLASS_SESSIONS[ci],
                workers: scheduler.workers().get(),
                epochs: FLEET_EPOCHS,
                steps: by_class[ci].steps,
                shed: by_class[ci].shed,
                deadline_misses: by_class[ci].deadline_misses,
                degraded: degraded[ci],
                elapsed: TimeSpan::from_nanoseconds(elapsed_ns),
            });
        }
    }
    Ok(rows)
}

/// Writes the latency table and summary.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn render(study: &Realtime, dir: &Path) -> Result<Artifacts> {
    let mut artifacts = Artifacts::new();
    let mut ascii = AsciiTable::new(&[
        "SoC",
        "Model",
        "Window (us)",
        "Inference (us)",
        "TX (us)",
        "Total (us)",
        "Real-time",
    ]);
    let mut csv = Csv::new(&[
        "soc",
        "model",
        "window_us",
        "inference_us",
        "tx_us",
        "total_us",
        "meets_reaction_time",
    ]);
    for row in &study.rows {
        let cells = [
            format!("{} ({})", row.id, row.name),
            row.family.to_string(),
            format!("{:.1}", row.window.microseconds()),
            format!("{:.1}", row.inference.microseconds()),
            format!("{:.2}", row.transmission.microseconds()),
            format!("{:.1}", row.total().microseconds()),
            row.meets_reaction_time().to_string(),
        ];
        ascii.push(&cells);
        csv.push(&cells);
    }
    artifacts
        .report("Extension: end-to-end latency at 1024 channels vs the 180 ms reaction time\n");
    artifacts.report(ascii.to_string());
    let all_ok = study.rows.iter().all(LatencyBreakdown::meets_reaction_time);
    artifacts.report(format!(
        "all deployments within the brain reaction time: {all_ok}\n\
         (the binding constraint for implants is power, not application latency)"
    ));
    artifacts.write_file(dir, "realtime.csv", csv.as_str())?;

    let mut measured_csv = Csv::new(&[
        "model",
        "precision",
        "batch",
        "threads",
        "us_per_sample",
        "ksamples_per_sec",
        "consistent",
        "layer_spans",
    ]);
    artifacts.report(format!(
        "\nmeasured batched inference ({} frames at {BASE_CHANNELS} channels, shared pool):",
        study.measured.first().map_or(0, |m| m.batch)
    ));
    for m in &study.measured {
        measured_csv.push(&[
            m.family.to_string(),
            m.precision.to_string(),
            m.batch.to_string(),
            m.threads.to_string(),
            format!("{:.1}", m.per_sample.microseconds()),
            format!("{:.2}", m.samples_per_second() / 1e3),
            m.consistent.to_string(),
            m.layer_spans.to_string(),
        ]);
        artifacts.report(format!(
            "  {} ({}): {:.1} us/sample on {} thread(s) ({:.1}x the {:.1} kHz application rate)",
            m.family,
            m.precision,
            m.per_sample.microseconds(),
            m.threads,
            m.samples_per_second() / APPLICATION_RATE.hertz(),
            APPLICATION_RATE.hertz() / 1e3,
        ));
    }
    artifacts.write_file(dir, "realtime_measured.csv", measured_csv.as_str())?;

    let mut streaming_csv = Csv::new(&[
        "model",
        "mode",
        "streams",
        "steps",
        "threads",
        "us_per_frame",
        "kframes_per_sec",
        "dnn_us_per_frame",
        "peak_buffer_bytes",
        "faults_injected",
        "frames_degraded",
        "frames_quarantined",
    ]);
    artifacts.report(format!(
        "\nmeasured streaming pipeline ({} streams x {} frames at {BASE_CHANNELS} channels, \
         unified Stage chain over the shared pool):",
        study.streaming.first().map_or(0, |m| m.streams),
        study.streaming.first().map_or(0, |m| m.steps),
    ));
    for m in &study.streaming {
        streaming_csv.push(&[
            m.family.to_string(),
            m.mode.to_string(),
            m.streams.to_string(),
            m.steps.to_string(),
            m.threads.to_string(),
            format!("{:.1}", m.per_frame.microseconds()),
            format!("{:.2}", m.frames_per_second() / 1e3),
            format!("{:.1}", m.dnn_latency.microseconds()),
            m.peak_buffer_bytes.to_string(),
            m.faults.injected.to_string(),
            m.faults.degraded.to_string(),
            m.faults.quarantined.to_string(),
        ]);
        artifacts.report(format!(
            "  {} ({}): {:.1} us/frame wall ({:.1} us in the DNN stage), \
             {} peak buffer bytes per stream, \
             {} faults injected / {} degraded / {} quarantined",
            m.family,
            m.mode,
            m.per_frame.microseconds(),
            m.dnn_latency.microseconds(),
            m.peak_buffer_bytes,
            m.faults.injected,
            m.faults.degraded,
            m.faults.quarantined,
        ));
    }
    artifacts.write_file(dir, "realtime_streaming.csv", streaming_csv.as_str())?;

    // The deterministic slice of each streaming run's registry scrape:
    // frame/byte counters and seeded fault gauges, one row per metric.
    // Wall-clock histograms and buffer-capacity gauges are machine-
    // dependent and deliberately excluded, so this file is golden-
    // pinnable.
    let mut observed_csv = Csv::new(&["model", "mode", "metric", "value"]);
    for m in &study.streaming {
        for c in &m.snapshot.counters {
            observed_csv.push(&[
                m.family.to_string(),
                m.mode.to_string(),
                c.name.clone(),
                c.value.to_string(),
            ]);
        }
        for g in m
            .snapshot
            .gauges
            .iter()
            .filter(|g| g.name.contains(".faults."))
        {
            observed_csv.push(&[
                m.family.to_string(),
                m.mode.to_string(),
                g.name.clone(),
                g.value.to_string(),
            ]);
        }
    }
    artifacts.write_file(dir, "realtime_observed.csv", observed_csv.as_str())?;
    artifacts.report(format!(
        "\nobservability: {} registry metrics per streaming run; deterministic slice in \
         realtime_observed.csv, per-layer spans in realtime_measured.csv",
        study.streaming.first().map_or(0, |m| m.snapshot.len()),
    ));

    let mut fleet_csv = Csv::new(&[
        "model",
        "class",
        "sessions",
        "workers",
        "epochs",
        "steps",
        "shed",
        "deadline_misses",
        "degraded",
        "us_per_step",
        "sessions_per_sec",
    ]);
    artifacts.report(format!(
        "\nmeasured fleet serving ({FLEET_SESSIONS} mixed-class sessions x {} epochs at \
         {BASE_CHANNELS} channels, priority-scheduled Fleet over the shared scheduler, \
         realtime rows budgeted at the per-sample deadline):",
        study.fleet.first().map_or(0, |m| m.epochs),
    ));
    for m in &study.fleet {
        fleet_csv.push(&[
            m.family.to_string(),
            m.class.to_string(),
            m.sessions.to_string(),
            m.workers.to_string(),
            m.epochs.to_string(),
            m.steps.to_string(),
            m.shed.to_string(),
            m.deadline_misses.to_string(),
            m.degraded.to_string(),
            format!("{:.1}", m.per_step().microseconds()),
            format!("{:.1}", m.sessions_per_sec()),
        ]);
        artifacts.report(format!(
            "  {} {}: {:.1} us/step across {} sessions on {} worker(s), \
             {} steps decoded / {} shed into concealment ({} degraded, \
             {} deadline misses)",
            m.family,
            m.class,
            m.per_step().microseconds(),
            m.sessions,
            m.workers,
            m.steps,
            m.shed,
            m.degraded,
            m.deadline_misses,
        ));
    }
    artifacts.write_file(dir, "realtime_fleet.csv", fleet_csv.as_str())?;
    Ok(artifacts)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The study is deterministic apart from wall-clock timings, and
    /// regenerating it runs real inference — share one copy across the
    /// whole test module.
    fn study() -> &'static Realtime {
        static STUDY: std::sync::OnceLock<Realtime> = std::sync::OnceLock::new();
        STUDY.get_or_init(|| generate().unwrap())
    }

    #[test]
    fn every_deployment_is_far_under_the_reaction_time() {
        // The per-sample deadline (500 us) is ~360x tighter than the
        // reaction-time bar, so anything that decodes in real time also
        // reacts in time — the paper's point that power, not latency,
        // binds.
        let study = study();
        assert!(!study.rows.is_empty());
        for row in &study.rows {
            assert!(row.meets_reaction_time(), "{} {}", row.name, row.family);
            assert!(row.total() < BRAIN_REACTION_TIME * 0.05);
        }
    }

    #[test]
    fn inference_meets_the_per_sample_deadline() {
        let study = study();
        for row in &study.rows {
            assert!(row.inference <= row.family.deadline());
        }
    }

    #[test]
    fn transmission_is_the_smallest_component() {
        let study = study();
        for row in &study.rows {
            assert!(row.transmission < row.window);
            assert!(row.transmission < row.inference);
        }
    }

    #[test]
    fn render_writes_the_table() {
        let dir = std::env::temp_dir().join("mindful-realtime-test");
        let artifacts = render(study(), &dir).unwrap();
        assert_eq!(artifacts.files().len(), 5);
        assert!(artifacts.report_text().contains("reaction time"));
        assert!(artifacts
            .report_text()
            .contains("measured batched inference"));
        assert!(artifacts
            .report_text()
            .contains("measured streaming pipeline"));
        assert!(artifacts.report_text().contains("measured fleet serving"));
        assert!(artifacts.report_text().contains("observability"));
        let observed = std::fs::read_to_string(dir.join("realtime_observed.csv")).unwrap();
        assert!(observed.starts_with("model,mode,metric,value\n"));
        assert!(
            !observed.contains("latency_ns") && !observed.contains("buffer_bytes"),
            "only the deterministic metric slice is exported"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn measured_throughput_runs_both_families_consistently() {
        let study = study();
        // One f32 row per family, plus an int8 row for each all-dense
        // family the quantizer supports (the MLP).
        assert_eq!(study.measured.len(), ModelFamily::ALL.len() + 1);
        for m in &study.measured {
            assert!(m.per_sample.seconds() > 0.0, "{}", m.family);
            assert!(m.threads >= 1);
            assert!(
                m.consistent,
                "{} ({}): batched outputs must equal per-sample forward",
                m.family, m.precision
            );
        }
        assert!(
            study
                .measured
                .iter()
                .any(|m| m.family == ModelFamily::Mlp && m.precision == Precision::Int8),
            "the MLP must carry an int8 row"
        );
    }

    #[test]
    fn streaming_pipeline_measures_every_family_in_both_modes() {
        let study = study();
        assert_eq!(study.streaming.len(), 2 * ModelFamily::ALL.len());
        for mode in [StreamingMode::Clean, StreamingMode::Faulted] {
            for family in ModelFamily::ALL {
                assert!(
                    study
                        .streaming
                        .iter()
                        .any(|m| m.family == family && m.mode == mode),
                    "{family} {mode} row missing"
                );
            }
        }
        for m in &study.streaming {
            assert!(m.per_frame.seconds() > 0.0, "{}", m.family);
            assert!(m.dnn_latency.seconds() > 0.0, "{}", m.family);
            assert!(
                m.peak_buffer_bytes > 0,
                "{}: telemetry must size the stream's buffers",
                m.family
            );
            assert!(m.frames_per_second() > 0.0);
        }
    }

    #[test]
    fn fleet_serves_every_family_with_field_exact_shed_accounting() {
        let study = study();
        // One row per family × priority class.
        assert_eq!(
            study.fleet.len(),
            ModelFamily::ALL.len() * PriorityClass::COUNT
        );
        for m in &study.fleet {
            // The oversubscription schedule is deterministic: every
            // timed epoch serves one quantum per session; only the
            // best-effort majority queues excess demand, and only it
            // sheds.
            assert_eq!(
                m.steps,
                m.epochs * m.sessions as u64 * u64::from(FLEET_QUANTUM),
                "{} {}",
                m.family,
                m.class
            );
            let expected_shed = match m.class {
                PriorityClass::BestEffort => {
                    m.epochs * m.sessions as u64 * u64::from(FLEET_DEMAND - FLEET_QUANTUM)
                }
                _ => 0,
            };
            assert_eq!(m.shed, expected_shed, "{} {}", m.family, m.class);
            // Every shed step must surface as exactly one concealed
            // frame in the sessions' own telemetry — the field-exact
            // accounting contract of the serving layer.
            assert_eq!(m.degraded, m.shed, "{} {}", m.family, m.class);
            // Only realtime sessions carry a deadline budget, so only
            // they can miss. (How often they do depends on the host;
            // the count is reported, not gated, here — the priority
            // soak owns the zero-miss guarantee on its cheap chains.)
            if m.class != PriorityClass::Realtime {
                assert_eq!(m.deadline_misses, 0, "{} {}", m.family, m.class);
            }
            assert!(m.per_step().seconds() > 0.0, "{} {}", m.family, m.class);
            assert!(m.sessions_per_sec() > 0.0, "{} {}", m.family, m.class);
        }
        // Every class row is present for every family.
        for family in ModelFamily::ALL {
            for class in PriorityClass::ALL {
                assert!(
                    study
                        .fleet
                        .iter()
                        .any(|m| m.family == family && m.class == class),
                    "{family} {class} row missing"
                );
            }
        }
    }

    #[test]
    fn registry_scrape_agrees_with_pipeline_telemetry() {
        let study = study();
        for m in &study.streaming {
            // Every stream drove the source for 2×STEPS steps (warm-up
            // plus the timed drive), and the registry counted each one.
            let steps = 2 * m.steps as u64;
            for stream in 0..m.streams {
                assert_eq!(
                    m.snapshot.counter(&format!("s{stream}.0.replay.frames_in")),
                    Some(steps),
                    "{} {} stream {stream}",
                    m.family,
                    m.mode
                );
            }
            // The fault gauges, summed over streams and stages, mirror
            // the merged FaultTelemetry field-exactly.
            let gauge_sum = |field: &str| -> u64 {
                m.snapshot
                    .gauges
                    .iter()
                    .filter(|g| g.name.ends_with(&format!(".faults.{field}")))
                    .map(|g| g.value)
                    .sum()
            };
            assert_eq!(gauge_sum("injected"), m.faults.injected, "{}", m.family);
            assert_eq!(gauge_sum("degraded"), m.faults.degraded, "{}", m.family);
            assert_eq!(
                gauge_sum("quarantined"),
                m.faults.quarantined,
                "{}",
                m.family
            );
            if m.mode == StreamingMode::Clean {
                assert!(
                    m.snapshot
                        .gauges
                        .iter()
                        .all(|g| !g.name.contains(".faults.")),
                    "clean chains register no fault gauges"
                );
            }
        }
    }

    #[test]
    fn layer_spans_count_layers_times_batch_when_tracing_is_active() {
        let study = study();
        for m in &study.measured {
            let layers = m.family.architecture(BASE_CHANNELS).unwrap().len() as u64;
            assert_eq!(
                m.layer_spans,
                layers * m.batch as u64,
                "{}: one span per layer per sample",
                m.family
            );
        }
    }

    #[test]
    fn clean_mode_reports_zero_faults_and_faulted_mode_injects() {
        let study = study();
        for m in &study.streaming {
            match m.mode {
                StreamingMode::Clean => {
                    assert_eq!(
                        m.faults,
                        FaultTelemetry::default(),
                        "{}: clean chain carries no fault telemetry",
                        m.family
                    );
                }
                StreamingMode::Faulted => {
                    // 4 streams x 32 frames (warm + timed) at a 5%
                    // composite rate: the plan fires with overwhelming
                    // probability, and every dropped frame must be
                    // accounted for by the concealment stage.
                    assert!(m.faults.injected > 0, "{}: no faults injected", m.family);
                    assert!(
                        m.faults.degraded + m.faults.quarantined > 0,
                        "{}: fault layer concealed nothing",
                        m.family
                    );
                }
            }
        }
    }
}
