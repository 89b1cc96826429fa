//! `motor-1024`: closed-loop motor decode on the 1024-channel array.
//!
//! Recorded codes pass through spike → bin(4) → Kalman → packetize via
//! `Pipeline::push`; one op is one input frame (one sample period of
//! the array). The decode layer and the pipeline cascade do almost all
//! the work. The frame deadline is the paper's sample period at 8 kHz
//! (Eq. 6: 125 µs per 1024-channel frame).

use std::time::Instant;

use mindful_decode::binning::BinAccumulator;
use mindful_decode::kalman::KalmanDecoder;
use mindful_decode::spike::SpikeDetector;
use mindful_pipeline::prelude::*;
use mindful_rf::packet::packetize_into;
use mindful_signal::prelude::{Adc, NeuralFrame};

use crate::gen::{code_trace, CHANNELS, SAMPLE_BITS};
use crate::report::Report;
use crate::stats::{drive, ledger_note, pooled_mean_us, timed_setup, SliceLog, StageLedger};
use crate::Args;

/// Samples per bin window.
const WINDOW: usize = 4;
/// Frames in the replayed trace (a whole number of bin windows).
const TRACE_FRAMES: usize = 1024;
/// Frames per fixed-work slice (a whole number of bin windows).
const SLICE_FRAMES: usize = 2048;
/// Frames between probe readings inside a slice.
const CHECKPOINT_FRAMES: usize = 512;
/// Frames pushed during set-up before the first timed op.
const WARM_FRAMES: usize = 64;
/// Frames of the prefix checked byte for byte against the
/// hand-composed path.
const GATE_FRAMES: usize = 2048;
/// Set-ups timed per run (their median is `setup_s`).
const SETUP_REPS: usize = 15;
/// Frame deadline: one 8 kHz sample period, in ns.
pub const FRAME_DEADLINE_NS: f64 = 125_000.0;
/// Host sensitivity: in the contended regime this chain slows by the
/// probe's slowdown to this power (within-run fit over 48693 slices of
/// 20 runs: 1.51x mean frame time at a 1.73x probe; see `METRICS.md`).
const SENSITIVITY: f64 = 0.76;

/// Calibration inputs, converted once by the generator.
pub struct CalibrationData {
    rows: Vec<Vec<f64>>,
    intents: Vec<(f64, f64)>,
}

impl CalibrationData {
    /// Converts the recorded calibration frames.
    pub fn new(frames: &[NeuralFrame]) -> Self {
        Self {
            rows: frames
                .iter()
                .map(|f| f.samples.iter().map(|&c| f64::from(c)).collect())
                .collect(),
            intents: frames.iter().map(|f| (f.intent.x, f.intent.y)).collect(),
        }
    }
}

/// Calibrates the detector and the Kalman decoder, as the glue sites
/// do: thresholds from the first 64 frames, a decoder fit on the
/// binned events of the whole record.
pub fn calibrate(cal: &CalibrationData) -> Result<(SpikeDetector, KalmanDecoder), String> {
    let mut detector =
        SpikeDetector::calibrate(&cal.rows[..64], 2.5, 3).map_err(|e| e.to_string())?;
    let events = cal
        .rows
        .iter()
        .map(|r| detector.step(r))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let bins = BinAccumulator::new(CHANNELS, WINDOW)
        .and_then(|mut b| b.bin_all(&events))
        .map_err(|e| e.to_string())?;
    let bin_rows: Vec<Vec<f64>> = bins
        .iter()
        .map(|b| b.iter().map(|&c| f64::from(c)).collect())
        .collect();
    let bin_intents: Vec<(f64, f64)> = (0..bins.len())
        .map(|k| cal.intents[(k + 1) * WINDOW - 1])
        .collect();
    let kalman = KalmanDecoder::calibrate(&bin_rows, &bin_intents).map_err(|e| e.to_string())?;
    Ok((detector, kalman))
}

/// The four stages, in chain order.
fn stages(
    cal: &CalibrationData,
) -> Result<(SpikeStage, BinStage, KalmanStage, PacketizeStage), String> {
    let (detector, kalman) = calibrate(cal)?;
    Ok((
        SpikeStage::new(detector),
        BinStage::new(CHANNELS, WINDOW).map_err(|e| e.to_string())?,
        KalmanStage::new(kalman),
        PacketizeStage::new(SAMPLE_BITS).map_err(|e| e.to_string())?,
    ))
}

/// The same four stages driven one `Stage::process` call at a time,
/// following the cascade's rules, so each call can be timed.
struct TracedChain {
    spike: SpikeStage,
    bin: BinStage,
    kalman: KalmanStage,
    pack: PacketizeStage,
    bufs: [FrameBuf; 4],
}

impl TracedChain {
    /// Builds the stages and warms them to their first timed frame.
    fn new(cal: &CalibrationData, trace: &[Vec<u16>]) -> Result<Self, String> {
        let (spike, bin, kalman, pack) = stages(cal)?;
        let mut chain = Self {
            spike,
            bin,
            kalman,
            pack,
            bufs: std::array::from_fn(|_| FrameBuf::new()),
        };
        let mut ns = [0.0; 4];
        for codes in &trace[..WARM_FRAMES] {
            chain
                .traced_frame(codes, &mut ns)
                .map_err(|e| e.to_string())?;
        }
        Ok(chain)
    }

    /// Pushes one frame, adding each stage's self time to `ns`;
    /// returns the whole frame's time in ns.
    fn traced_frame(&mut self, codes: &[u16], ns: &mut [f64]) -> mindful_pipeline::Result<f64> {
        let [b0, b1, b2, b3] = &mut self.bufs;
        let t0 = Instant::now();
        self.spike.process(&Frame::Codes(codes), b0)?;
        let t1 = Instant::now();
        let binned = self.bin.process(&b0.as_frame(), b1)?;
        let t2 = Instant::now();
        ns[0] += (t1 - t0).as_nanos() as f64;
        ns[1] += (t2 - t1).as_nanos() as f64;
        if binned == StageOutput::Pending {
            return Ok((t2 - t0).as_nanos() as f64);
        }
        self.kalman.process(&b1.as_frame(), b2)?;
        let t3 = Instant::now();
        self.pack.process(&b2.as_frame(), b3)?;
        let t4 = Instant::now();
        ns[2] += (t3 - t2).as_nanos() as f64;
        ns[3] += (t4 - t3).as_nanos() as f64;
        Ok((t4 - t0).as_nanos() as f64)
    }
}

/// Set-up: calibrate, compose, and warm the chain to its first timed op.
fn build_chain(cal: &CalibrationData, trace: &[Vec<u16>]) -> Result<Pipeline, String> {
    let (spike, bin, kalman, pack) = stages(cal)?;
    let mut pipeline = Pipeline::new()
        .with_stage(spike)
        .with_stage(bin)
        .with_stage(kalman)
        .with_stage(pack);
    for codes in &trace[..WARM_FRAMES] {
        pipeline
            .push(Frame::Codes(codes))
            .map_err(|e| e.to_string())?;
    }
    Ok(pipeline)
}

/// Correctness gate: the chain's packets over a prefix equal, byte for
/// byte, those of the hand-composed detector → binner → decoder →
/// quantizer → packetizer path.
fn gate(cal: &CalibrationData, trace: &[Vec<u16>]) -> Result<u64, String> {
    let (spike, bin, kalman, pack) = stages(cal)?;
    let mut pipeline = Pipeline::new()
        .with_stage(spike)
        .with_stage(bin)
        .with_stage(kalman)
        .with_stage(pack);
    let (mut detector, mut decoder) = calibrate(cal)?;
    let mut binner = BinAccumulator::new(CHANNELS, WINDOW).map_err(|e| e.to_string())?;
    let adc = Adc::new(SAMPLE_BITS, PacketizeStage::VALUE_FULL_SCALE).map_err(|e| e.to_string())?;
    let (mut row, mut events, mut counts, mut codes, mut wire) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut sequence = 0_u16;
    let mut packets = 0;
    for k in 0..GATE_FRAMES {
        let frame = &trace[k % trace.len()];
        let out = pipeline
            .push(Frame::Codes(frame))
            .map_err(|e| e.to_string())?;
        row.clear();
        row.extend(frame.iter().map(|&c| f64::from(c)));
        detector
            .step_into(&row, &mut events)
            .map_err(|e| e.to_string())?;
        let binned = binner
            .push_into(&events, &mut counts)
            .map_err(|e| e.to_string())?;
        let expected = if binned {
            let obs: Vec<f64> = counts.iter().map(|&c| f64::from(c)).collect();
            let state = decoder.step(&obs).map_err(|e| e.to_string())?;
            adc.quantize_frame_into(&[state.x, state.y], &mut codes);
            packetize_into(sequence, &codes, SAMPLE_BITS, &mut wire).map_err(|e| e.to_string())?;
            sequence = sequence.wrapping_add(1);
            Some(wire.as_slice())
        } else {
            None
        };
        let produced = out.map(|buf| match buf.as_frame() {
            Frame::Bytes(bytes) => bytes.to_vec(),
            _ => Vec::new(),
        });
        if produced.as_deref() != expected {
            return Err(format!(
                "motor-1024 gate: frame {k}: chain emitted {produced:?}, hand-composed path {expected:?}"
            ));
        }
        packets += u64::from(binned);
    }
    if packets != (GATE_FRAMES / WINDOW) as u64 {
        return Err(format!(
            "motor-1024 gate: {packets} packets over {GATE_FRAMES} frames"
        ));
    }
    Ok(packets)
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let generated = code_trace(args.seed, TRACE_FRAMES);
    let trace = generated.frames;
    let cal = CalibrationData::new(&generated.calibration);
    gate(&cal, &trace)?;

    let mut log = SliceLog::new(SENSITIVITY, FRAME_DEADLINE_NS);
    let (setup_s, setup_raw, mut pipeline) =
        timed_setup(&mut log, SETUP_REPS, || build_chain(&cal, &trace))?;
    let mut chain = TracedChain::new(&cal, &trace)?;
    let mut ledger = StageLedger::new(&["spike", "bin", "kalman", "packetize"]);

    let mut cursor = WARM_FRAMES;
    let mut traced_cursor = WARM_FRAMES;
    let mut attempted = 0_u64;
    drive(&mut log, args.measure, args.trace, |log, traced| {
        if traced {
            let mut ns = vec![0.0; 4];
            for i in 0..SLICE_FRAMES {
                if i > 0 && i % CHECKPOINT_FRAMES == 0 {
                    log.checkpoint();
                }
                let codes = &trace[traced_cursor];
                traced_cursor = (traced_cursor + 1) % trace.len();
                let total = chain
                    .traced_frame(codes, &mut ns)
                    .map_err(|e| e.to_string())?;
                log.record(total);
            }
            ledger.record(log, ns, SLICE_FRAMES as u64);
        } else {
            for i in 0..SLICE_FRAMES {
                if i > 0 && i % CHECKPOINT_FRAMES == 0 {
                    log.checkpoint();
                }
                let codes = &trace[cursor];
                cursor = (cursor + 1) % trace.len();
                let t0 = Instant::now();
                pipeline
                    .push(Frame::Codes(codes))
                    .map_err(|e| e.to_string())?;
                log.record(t0.elapsed().as_nanos() as f64);
            }
            attempted += SLICE_FRAMES as u64;
        }
        Ok(())
    })?;

    let telemetry = pipeline.telemetry();
    let frames_in = telemetry[0].frames_in;
    let packets = telemetry[3].frames_out;
    if packets != frames_in / WINDOW as u64 {
        return Err(format!(
            "motor-1024: {packets} packets for {frames_in} frames"
        ));
    }

    let mut report = Report::new(&log);
    report.attempted = attempted;
    report.e2e.insert("setup_s", setup_s);
    report.raw.insert("setup_s", setup_raw);
    closed_loop_e2e(&mut report, &log);
    report.e2e.insert("on_time_pct", log.on_time_pct());
    if args.trace {
        let stages = ledger.per_op_us(&log);
        for (name, value) in &stages {
            let key = match *name {
                "spike" => "decode.spike_us",
                "bin" => "decode.bin_us",
                "kalman" => "decode.kalman_us",
                _ => "rf.packetize_us",
            };
            report.layers.insert(key, *value);
        }
        ledger_note(
            &mut report,
            "motor-1024",
            &stages,
            pooled_mean_us(&log, false),
            pooled_mean_us(&log, true),
        );
        let residual = report.layers["ledger.untraced_us"] - report.layers["ledger.stage_sum_us"];
        report.layers.insert("pipeline.cascade_us", residual);
        report.layers.insert(
            "rf.wire_bytes_per_frame",
            telemetry[3].bytes_out as f64 / frames_in as f64,
        );
    }
    Ok(report)
}

/// The closed-loop timing metrics, host-adjusted and raw: throughput
/// from the median slice mean, exact per-slice p50 and tail, each the
/// median over the untraced slices.
pub fn closed_loop_e2e(report: &mut Report, log: &SliceLog) {
    for (adj, map) in [(true, &mut report.e2e), (false, &mut report.raw)] {
        map.insert("ops_per_s", 1e9 / log.median_of(adj, |s| s.mean_ns));
        map.insert("op_p50_us", log.median_of(adj, |s| s.p50_ns) / 1e3);
        map.insert("op_tail_us", log.median_of(adj, |s| s.tail_ns) / 1e3);
    }
}
