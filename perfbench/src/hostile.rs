//! `hostile-link`: closed-loop transport over a faulty, attacked link.
//!
//! The motor workload's recorded codes pass through packetize →
//! authenticated selective-repeat ARQ → firewall → conceal (hold-last)
//! via `Pipeline::push`. The channel injects 2% composite wire faults
//! and a 25% five-kind adversary. One op is one input frame; a frame
//! played out as a gap counts as not served. The rf and secure/fault
//! stages do the work here, and packetize runs on whole 1024-sample
//! frames instead of decoded intents.

use std::time::Instant;

use mindful_pipeline::prelude::*;
use mindful_rf::arq::ArqConfig;
use mindful_rf::auth::{AuthConfig, AuthKey};
use mindful_rf::fault::{Adversary, AttackConfig, FaultConfig, FaultPlan, WireFaultInjector};

use crate::gen::{code_trace, CHANNELS, SAMPLE_BITS};
use crate::motor::{closed_loop_e2e, FRAME_DEADLINE_NS};
use crate::report::Report;
use crate::stats::{drive, ledger_note, pooled_mean_us, timed_setup, SliceLog, StageLedger};
use crate::Args;

/// Frames in the replayed trace.
const TRACE_FRAMES: usize = 1024;
/// Selective-repeat window (and fixed playout delay), in frames.
const ARQ_WINDOW: usize = 16;
/// NAK round trip, in steps.
const RTT: u64 = 2;
/// Composite wire-fault rate.
const FAULT_RATE: f64 = 0.02;
/// Adversary attack rate.
const ATTACK_RATE: f64 = 0.25;
/// Key id of the implant's link key.
const KEY_ID: u8 = 7;
/// Frames per fixed-work slice (a whole number of ARQ windows).
const SLICE_FRAMES: usize = 512;
/// Frames between probe readings inside a slice.
const CHECKPOINT_FRAMES: usize = 128;
/// Frames pushed during set-up before the first timed op.
const WARM_FRAMES: usize = 64;
/// Set-ups timed per run.
const SETUP_REPS: usize = 15;
/// Host sensitivity: in the contended regime this chain slows by the
/// probe's slowdown to this power (within-run fit over 26585 slices of
/// 20 runs: 1.34x mean frame time at a 1.74x probe; see `METRICS.md`).
const SENSITIVITY: f64 = 0.55;

/// The four stages, built from the run's seed.
fn stages(seed: u64) -> Result<(PacketizeStage, LinkStage, FirewallStage, ConcealStage), String> {
    let e = |e: mindful_pipeline::PipelineError| e.to_string();
    let auth = AuthConfig::new(AuthKey::from_seed(seed, KEY_ID));
    let plan =
        FaultPlan::new(FaultConfig::wire_composite(FAULT_RATE), seed).map_err(|e| e.to_string())?;
    let adversary = Adversary::new(AttackConfig::composite(ATTACK_RATE), seed ^ 0x0BAD, KEY_ID)
        .map_err(|e| e.to_string())?;
    let injector = WireFaultInjector::with_adversary(plan, adversary);
    Ok((
        PacketizeStage::new(SAMPLE_BITS).map_err(e)?,
        LinkStage::with_channel(
            ArqConfig::selective_repeat(ARQ_WINDOW),
            Some(injector),
            RTT,
            Some(&auth),
        )
        .map_err(e)?,
        FirewallStage::new(CHANNELS, FirewallConfig::default()).map_err(e)?,
        ConcealStage::new(CHANNELS, DegradePolicy::HoldLast).map_err(e)?,
    ))
}

/// Set-up: key, channel, and stages, warmed to the first timed op.
fn build_chain(seed: u64, trace: &[Vec<u16>]) -> Result<Pipeline, String> {
    let (pack, link, firewall, conceal) = stages(seed)?;
    let mut pipeline = Pipeline::new()
        .with_stage(pack)
        .with_stage(link)
        .with_stage(firewall)
        .with_stage(conceal);
    for codes in &trace[..WARM_FRAMES] {
        pipeline
            .push(Frame::Codes(codes))
            .map_err(|e| e.to_string())?;
    }
    Ok(pipeline)
}

/// The same stages driven one `Stage::process` call at a time.
struct TracedChain {
    pack: PacketizeStage,
    link: LinkStage,
    firewall: FirewallStage,
    conceal: ConcealStage,
    bufs: [FrameBuf; 4],
    frames: u64,
}

impl TracedChain {
    /// Builds the stages and warms them to their first timed frame.
    fn new(seed: u64, trace: &[Vec<u16>]) -> Result<Self, String> {
        let (pack, link, firewall, conceal) = stages(seed)?;
        let mut chain = Self {
            pack,
            link,
            firewall,
            conceal,
            bufs: std::array::from_fn(|_| FrameBuf::new()),
            frames: 0,
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
        self.frames += 1;
        let [b0, b1, b2, b3] = &mut self.bufs;
        let t0 = Instant::now();
        self.pack.process(&Frame::Codes(codes), b0)?;
        let t1 = Instant::now();
        let played = self.link.process(&b0.as_frame(), b1)?;
        let t2 = Instant::now();
        ns[0] += (t1 - t0).as_nanos() as f64;
        ns[1] += (t2 - t1).as_nanos() as f64;
        if played == StageOutput::Pending {
            return Ok((t2 - t0).as_nanos() as f64);
        }
        self.firewall.process(&b1.as_frame(), b2)?;
        let t3 = Instant::now();
        self.conceal.process(&b2.as_frame(), b3)?;
        let t4 = Instant::now();
        ns[2] += (t3 - t2).as_nanos() as f64;
        ns[3] += (t4 - t3).as_nanos() as f64;
        Ok((t4 - t0).as_nanos() as f64)
    }
}

/// Checks every playout: it is the frame sent under its sequence
/// number, or an explicit gap concealed by holding the last output.
struct PlayoutCheck {
    played: usize,
    gaps: u64,
    last: Vec<u16>,
}

impl PlayoutCheck {
    fn check(&mut self, out: &[u16], trace: &[Vec<u16>]) -> Result<bool, String> {
        let sent = &trace[self.played % trace.len()];
        let gap = out != sent.as_slice();
        if gap && out != self.last.as_slice() {
            return Err(format!(
                "hostile-link gate: playout {} is neither the sent frame nor a concealed gap \
                 (forged or replayed data reached the application)",
                self.played
            ));
        }
        self.played += 1;
        self.gaps += u64::from(gap);
        self.last.clear();
        self.last.extend_from_slice(out);
        Ok(gap)
    }
}

/// (frames degraded by the concealer, frames lost by the link plus
/// frames quarantined by the firewall) so far.
fn gap_ledger(pipeline: &Pipeline) -> Result<(u64, u64), String> {
    let telemetry = pipeline.telemetry();
    let link = telemetry[1].faults.ok_or("link reports faults")?;
    let firewall = telemetry[2]
        .secure
        .ok_or("firewall reports secure telemetry")?;
    let conceal = telemetry[3].faults.ok_or("conceal reports faults")?;
    Ok((conceal.degraded, link.lost + firewall.firewalled))
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let trace = code_trace(args.seed, TRACE_FRAMES).frames;
    let mut log = SliceLog::new(SENSITIVITY, FRAME_DEADLINE_NS);
    let (setup_s, setup_raw, mut pipeline) =
        timed_setup(&mut log, SETUP_REPS, || build_chain(args.seed, &trace))?;
    let mut chain = TracedChain::new(args.seed, &trace)?;
    let mut ledger = StageLedger::new(&["packetize", "link", "firewall", "conceal"]);

    // The check picks up where set-up's warm-up left the stream; the
    // ledger gates below compare counts accumulated since then.
    let Some(Frame::Codes(last)) = pipeline.last_output().map(FrameBuf::as_frame) else {
        return Err("hostile-link: the warm chain has not played out".into());
    };
    let mut check = PlayoutCheck {
        played: WARM_FRAMES - ARQ_WINDOW,
        gaps: 0,
        last: last.to_vec(),
    };
    let base = gap_ledger(&pipeline)?;
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
            return Ok(());
        }
        for i in 0..SLICE_FRAMES {
            if i > 0 && i % CHECKPOINT_FRAMES == 0 {
                log.checkpoint();
            }
            let codes = &trace[cursor];
            cursor = (cursor + 1) % trace.len();
            let t0 = Instant::now();
            let out = pipeline
                .push(Frame::Codes(codes))
                .map_err(|e| e.to_string())?;
            let ns = t0.elapsed().as_nanos() as f64;
            let Some(out) = out else {
                return Err("hostile-link: a warm link stopped playing out".into());
            };
            let Frame::Codes(out) = out.as_frame() else {
                return Err("hostile-link gate: conceal emitted a non-codes frame".into());
            };
            if check.check(out, &trace)? {
                log.record_missed(ns);
            } else {
                log.record(ns);
            }
        }
        attempted += SLICE_FRAMES as u64;
        Ok(())
    })?;

    // Ledger gates: every gap the application saw is a loss the link
    // or the firewall accounted for, and the concealer degraded exactly
    // those frames; nothing was accepted that the implant did not seal.
    let telemetry = pipeline.telemetry();
    let (degraded, lost) = gap_ledger(&pipeline)?;
    if degraded - base.0 != check.gaps || lost - base.1 != check.gaps {
        return Err(format!(
            "hostile-link gate: {} gaps observed, {} degraded and {} lost or firewalled",
            check.gaps,
            degraded - base.0,
            lost - base.1
        ));
    }
    let auth = telemetry[1].secure.ok_or("link reports secure telemetry")?;
    if auth.accepted > auth.sealed || auth.rejected_auth == 0 {
        return Err(format!("hostile-link gate: auth ledger {auth:?}"));
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
                "packetize" => "rf.packetize_us",
                "link" => "rf.link_us",
                "firewall" => "pipeline.firewall_us",
                _ => "pipeline.conceal_us",
            };
            report.layers.insert(key, *value);
        }
        ledger_note(
            &mut report,
            "hostile-link",
            &stages,
            pooled_mean_us(&log, false),
            pooled_mean_us(&log, true),
        );
        let residual = report.layers["ledger.untraced_us"] - report.layers["ledger.stage_sum_us"];
        report.layers.insert("pipeline.cascade_us", residual);
        let per_k = |count: u64, frames: u64| 1000.0 * count as f64 / frames.max(1) as f64;
        let stats = chain.link.stats();
        let auth = chain
            .link
            .auth_stats()
            .ok_or("traced link is authenticated")?;
        report
            .layers
            .insert("rf.retransmits", per_k(stats.naks_sent, chain.frames));
        report.layers.insert(
            "rf.auth_rejected",
            per_k(auth.rejected_auth(), chain.frames),
        );
        report
            .layers
            .insert("rf.gaps", per_k(check.gaps, attempted));
        report.layers.insert(
            "rf.wire_bytes_per_frame",
            telemetry[0].bytes_out as f64 / telemetry[0].frames_in as f64,
        );
    }
    Ok(report)
}
