//! The [`Stage`] trait and the [`Pipeline`] driver.

use std::time::Duration;

use mindful_core::obs::{clock, Registry};

use crate::error::{PipelineError, Result};
use crate::fault::FaultTelemetry;
use crate::frame::{Frame, FrameBuf, StageOutput};
use crate::obs::SlotObs;
use crate::secure::SecureTelemetry;

/// One step of the implant dataflow.
///
/// A stage reads a borrowed input [`Frame`] and writes its result into
/// the caller-provided [`FrameBuf`] via one of the `begin_*` methods.
/// Stages own whatever scratch state they need (detector thresholds,
/// DNN workspaces, RNG state) but never the frames themselves, so a
/// warm stage processes a frame without touching the heap.
pub trait Stage: Send {
    /// Short static name for telemetry and error messages.
    fn name(&self) -> &'static str;

    /// Processes one input frame.
    ///
    /// Returns [`StageOutput::Emitted`] after writing `out`, or
    /// [`StageOutput::Pending`] when the input was absorbed into
    /// internal state (downstream stages are skipped this step).
    ///
    /// # Errors
    ///
    /// Stage-specific; composed substrate errors are converted into
    /// [`PipelineError`].
    fn process(&mut self, input: &Frame<'_>, out: &mut FrameBuf) -> Result<StageOutput>;

    /// Flushes internal state at end-of-stream.
    ///
    /// Called repeatedly by [`Pipeline::finish`] until it returns
    /// [`StageOutput::Pending`]; each [`StageOutput::Emitted`] frame is
    /// cascaded through the downstream stages like a normal step.
    /// Stages that buffer frames (a partially filled bin window, an ARQ
    /// playout queue) override this; the default has nothing to flush.
    ///
    /// # Errors
    ///
    /// Stage-specific, as for [`Stage::process`].
    fn finish(&mut self, out: &mut FrameBuf) -> Result<StageOutput> {
        let _ = out;
        Ok(StageOutput::Pending)
    }

    /// A snapshot of the stage's fault counters, if it has any.
    ///
    /// Fault-aware stages (injectors, links, concealers) override this
    /// and return `Some` from construction on (all zeros before their
    /// first step). [`Pipeline::telemetry`] reads it into
    /// [`StageTelemetry::faults`] when called; an instrumented
    /// pipeline also mirrors it into the registry after every step.
    fn fault_telemetry(&self) -> Option<FaultTelemetry> {
        None
    }

    /// A snapshot of the stage's security counters, if it has any.
    ///
    /// Security-aware stages (authenticated links, the neural
    /// firewall) override this. [`Pipeline::telemetry`] reads it into
    /// [`StageTelemetry::secure`] when called; an instrumented
    /// pipeline also mirrors it into the registry after every step.
    fn secure_telemetry(&self) -> Option<SecureTelemetry> {
        None
    }
}

/// Per-stage counters accumulated by the pipeline driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageTelemetry {
    /// The stage's [`Stage::name`].
    pub name: &'static str,
    /// Frames handed to the stage.
    pub frames_in: u64,
    /// Frames the stage emitted (≤ `frames_in` for windowing stages).
    pub frames_out: u64,
    /// Cumulative wall time inside [`Stage::process`] and flushing
    /// [`Stage::finish`] calls. Only an instrumented pipeline
    /// (`Pipeline::instrument`) runs the stage stopwatch; otherwise
    /// this stays [`Duration::ZERO`].
    pub busy: Duration,
    /// Cumulative wire bytes emitted (non-zero only for byte sinks).
    pub bytes_out: u64,
    /// Peak backing storage of the stage's output buffer.
    pub peak_buffer_bytes: usize,
    /// The stage's fault counters when [`Pipeline::telemetry`] was
    /// called ([`None`] for fault-unaware stages).
    pub faults: Option<FaultTelemetry>,
    /// The stage's security counters when [`Pipeline::telemetry`] was
    /// called ([`None`] for stages outside the trust boundary).
    pub secure: Option<SecureTelemetry>,
}

impl StageTelemetry {
    fn new(name: &'static str) -> Self {
        Self {
            name,
            frames_in: 0,
            frames_out: 0,
            busy: Duration::ZERO,
            bytes_out: 0,
            peak_buffer_bytes: 0,
            faults: None,
            secure: None,
        }
    }

    fn record(&mut self, step: &StepRecord) {
        self.frames_in += u64::from(step.input);
        self.frames_out += u64::from(step.emitted);
        self.busy += Duration::from_nanos(step.elapsed_ns);
        self.bytes_out += step.wire_bytes;
        self.peak_buffer_bytes = self.peak_buffer_bytes.max(step.buffer_bytes);
    }

    /// Mean time per input frame ([`Duration::ZERO`] before any frame,
    /// and on an uninstrumented pipeline, whose `busy` stays zero).
    #[must_use]
    pub fn mean_latency(&self) -> Duration {
        if self.frames_in == 0 {
            Duration::ZERO
        } else {
            let nanos = self.busy.as_nanos() / u128::from(self.frames_in);
            Duration::from_nanos(u64::try_from(nanos).unwrap_or(u64::MAX))
        }
    }
}

/// One counted stage step: a [`Stage::process`] call, or a frame
/// flushed by [`Stage::finish`]. The driver classifies each step once
/// and records the same classification into [`StageTelemetry`] and,
/// when instrumented, the registry.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StepRecord {
    /// The step consumed an input frame (a flush consumes none).
    pub(crate) input: bool,
    /// The step left a frame in the output buffer.
    pub(crate) emitted: bool,
    /// Wire bytes emitted (non-zero only for an emitted byte frame).
    pub(crate) wire_bytes: u64,
    /// Backing storage of the output buffer after the step, whether or
    /// not it emitted.
    pub(crate) buffer_bytes: usize,
    /// Wall time inside the stage, in nanoseconds (zero when the
    /// pipeline is not instrumented).
    pub(crate) elapsed_ns: u64,
}

struct Slot {
    stage: Box<dyn Stage>,
    out: FrameBuf,
    telemetry: StageTelemetry,
    /// Registry handles, present once [`Pipeline::instrument`] ran.
    obs: Option<SlotObs>,
}

impl Slot {
    /// Accounts one call into the stage that took `elapsed_ns` and
    /// returned `outcome`: a `process` call when `input`, otherwise a
    /// `finish` call.
    ///
    /// An instrumented slot mirrors the stage's fault and security
    /// snapshots into the registry after every call. A `finish` call
    /// that flushed nothing is not a step and counts nothing else.
    fn account(&mut self, elapsed_ns: u64, input: bool, outcome: StageOutput) {
        if let Some(obs) = &self.obs {
            obs.record_snapshots(&*self.stage);
        }
        let emitted = outcome == StageOutput::Emitted;
        if !input && !emitted {
            return;
        }
        let step = StepRecord {
            input,
            emitted,
            wire_bytes: match self.out.as_frame() {
                Frame::Bytes(wire) if emitted => wire.len() as u64,
                _ => 0,
            },
            buffer_bytes: self.out.capacity_bytes(),
            elapsed_ns,
        };
        self.telemetry.record(&step);
        if let Some(obs) = &self.obs {
            obs.record(&step);
        }
    }
}

/// A composed chain of stages with per-stage output buffers.
///
/// The pipeline owns one [`FrameBuf`] per stage; stage `i + 1` reads a
/// borrowed view of stage `i`'s buffer. Driving a warm pipeline
/// performs no heap allocations (proven by this crate's
/// counting-allocator test).
#[derive(Default)]
pub struct Pipeline {
    slots: Vec<Slot>,
    steps: u64,
}

impl Pipeline {
    /// Creates an empty pipeline.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a stage (builder style).
    #[must_use]
    pub fn with_stage(mut self, stage: impl Stage + 'static) -> Self {
        self.add_stage(stage);
        self
    }

    /// Appends a stage.
    pub(crate) fn add_stage(&mut self, stage: impl Stage + 'static) {
        let telemetry = StageTelemetry::new(stage.name());
        self.slots.push(Slot {
            stage: Box::new(stage),
            out: FrameBuf::new(),
            telemetry,
            obs: None,
        });
    }

    /// Registers per-stage metrics in `registry` under
    /// `{prefix}.{index}.{stage}` and records into them from every
    /// subsequent step (see [`crate::obs`] for the metric table). It
    /// also turns on the stage stopwatch behind
    /// [`StageTelemetry::busy`]: two clock reads per stage call.
    ///
    /// Registration allocates (names, registry entries); the recording
    /// it enables does not, so the warm pipeline stays allocation-free
    /// with instrumentation on. Calling it again re-registers against
    /// the (possibly different) registry; existing counts in the old
    /// registry are left behind. Each step is counted once, by the same
    /// rule as [`StageTelemetry`], so the scrape of a pipeline
    /// instrumented before its first step matches [`Pipeline::telemetry`]
    /// field for field.
    pub(crate) fn instrument(&mut self, registry: &Registry, prefix: &str) {
        for (index, slot) in self.slots.iter_mut().enumerate() {
            let fault_aware = slot.stage.fault_telemetry().is_some();
            let secure_aware = slot.stage.secure_telemetry().is_some();
            slot.obs = Some(SlotObs::register(
                registry,
                prefix,
                index,
                slot.telemetry.name,
                fault_aware,
                secure_aware,
            ));
        }
    }

    /// Builder-style `Pipeline::instrument`.
    #[must_use]
    pub fn with_instrumentation(mut self, registry: &Registry, prefix: &str) -> Self {
        self.instrument(registry, prefix);
        self
    }

    /// Number of stages.
    #[must_use]
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the pipeline has no stages.
    #[must_use]
    pub(crate) fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Steps taken so far (frames pushed, whether or not one emerged).
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Drives one step with an empty input — the normal way to run a
    /// pipeline whose first stage is a source (sensing, replay).
    ///
    /// # Errors
    ///
    /// Same as [`Pipeline::push`].
    pub fn step(&mut self) -> Result<Option<&FrameBuf>> {
        self.push(Frame::Empty)
    }

    /// Feeds `input` to the first stage and cascades through the chain.
    ///
    /// Returns the last stage's buffer when the frame made it all the
    /// way through, or `None` when some stage absorbed it
    /// ([`StageOutput::Pending`]).
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Empty`] for a stage-less pipeline and
    /// propagates the first stage error.
    pub fn push(&mut self, input: Frame<'_>) -> Result<Option<&FrameBuf>> {
        self.push_at(0, input)
    }

    /// Feeds `input` directly to stage `start`, skipping stages
    /// `..start`, and cascades through the rest of the chain.
    ///
    /// The skipped stages run nothing and record nothing — their
    /// telemetry, buffers, and windows are untouched. This is the
    /// load-shedding entry point: the fleet serving layer pushes an
    /// *empty* typed frame (the in-band gap marker) straight at an
    /// oversubscribed session's `ConcealStage`, which conceals it
    /// through its degraded mode exactly as it would a lost link
    /// frame, at none of the upstream stages' cost. `push_at(0, f)` is
    /// [`Pipeline::push`].
    ///
    /// # Panics
    ///
    /// Panics when `start` is out of bounds for a non-empty pipeline —
    /// shedding into a stage that does not exist is a caller bug, not
    /// a runtime condition.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Empty`] for a stage-less pipeline and
    /// propagates the first stage error.
    pub fn push_at(&mut self, start: usize, input: Frame<'_>) -> Result<Option<&FrameBuf>> {
        if self.slots.is_empty() {
            return Err(PipelineError::Empty);
        }
        assert!(
            start < self.slots.len(),
            "push_at target {start} out of bounds for {} stages",
            self.slots.len()
        );
        self.steps += 1;
        if self.run_from(start, Some(input))? {
            Ok(self.slots.last().map(|s| &s.out))
        } else {
            Ok(None)
        }
    }

    /// The one per-stage step loop: runs stages `start..`, stage
    /// `start` reading `input` when given and otherwise the frame
    /// already sitting in slot `start - 1`'s buffer (a flushed frame),
    /// every later stage reading its predecessor's buffer. Returns
    /// whether the frame reached the end of the chain.
    fn run_from(&mut self, start: usize, input: Option<Frame<'_>>) -> Result<bool> {
        for i in start..self.slots.len() {
            let (before, rest) = self.slots.split_at_mut(i);
            let slot = &mut rest[0];
            let frame = match input {
                Some(frame) if i == start => frame,
                _ => before
                    .last()
                    .expect("stages after the entry point follow an emitting slot")
                    .out
                    .as_frame(),
            };
            let t = slot.obs.is_some().then(clock::now_ns);
            let outcome = slot.stage.process(&frame, &mut slot.out)?;
            slot.account(t.map_or(0, clock::since_ns), true, outcome);
            if outcome == StageOutput::Pending {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Flushes every stage at end-of-stream, front to back.
    ///
    /// Each stage's [`Stage::finish`] is called until it reports
    /// [`StageOutput::Pending`]; every frame it flushes is cascaded
    /// through the downstream stages exactly like a pushed frame (and
    /// may in turn top up *their* windows before they are flushed).
    /// Returns how many flushed frames emerged from the final stage.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Empty`] for a stage-less pipeline and
    /// propagates the first stage error.
    pub fn finish(&mut self) -> Result<u64> {
        if self.slots.is_empty() {
            return Err(PipelineError::Empty);
        }
        let mut completed = 0;
        for i in 0..self.slots.len() {
            loop {
                let slot = &mut self.slots[i];
                let t = slot.obs.is_some().then(clock::now_ns);
                let outcome = slot.stage.finish(&mut slot.out)?;
                slot.account(t.map_or(0, clock::since_ns), false, outcome);
                if outcome == StageOutput::Pending {
                    break;
                }
                if self.run_from(i + 1, None)? {
                    completed += 1;
                }
            }
        }
        Ok(completed)
    }

    /// A snapshot of every stage's counters, in chain order, with each
    /// stage's fault and security counters read now.
    #[must_use]
    pub fn telemetry(&self) -> Vec<StageTelemetry> {
        self.slots
            .iter()
            .map(|s| StageTelemetry {
                faults: s.stage.fault_telemetry(),
                secure: s.stage.secure_telemetry(),
                ..s.telemetry
            })
            .collect()
    }

    /// A borrowed view of the final stage's output buffer (what the
    /// last emitted or flushed frame left there).
    #[must_use]
    pub fn last_output(&self) -> Option<&FrameBuf> {
        self.slots.last().map(|s| &s.out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameKind;

    /// Emits an incrementing single-code frame.
    struct CounterSource(u16);

    impl Stage for CounterSource {
        fn name(&self) -> &'static str {
            "counter"
        }

        fn process(&mut self, _input: &Frame<'_>, out: &mut FrameBuf) -> Result<StageOutput> {
            out.begin_codes().push(self.0);
            self.0 = self.0.wrapping_add(1);
            Ok(StageOutput::Emitted)
        }
    }

    /// Doubles each code; rejects non-code frames.
    struct Doubler;

    impl Stage for Doubler {
        fn name(&self) -> &'static str {
            "doubler"
        }

        fn process(&mut self, input: &Frame<'_>, out: &mut FrameBuf) -> Result<StageOutput> {
            let Frame::Codes(codes) = input else {
                return Err(PipelineError::UnexpectedFrame {
                    stage: self.name(),
                    actual: input.kind(),
                });
            };
            let buf = out.begin_codes();
            buf.extend(codes.iter().map(|&c| c * 2));
            Ok(StageOutput::Emitted)
        }
    }

    /// Emits every `window`-th frame, absorbing the rest.
    struct EveryNth {
        window: u64,
        seen: u64,
    }

    impl Stage for EveryNth {
        fn name(&self) -> &'static str {
            "every-nth"
        }

        fn process(&mut self, input: &Frame<'_>, out: &mut FrameBuf) -> Result<StageOutput> {
            self.seen += 1;
            if !self.seen.is_multiple_of(self.window) {
                return Ok(StageOutput::Pending);
            }
            let Frame::Codes(codes) = input else {
                return Err(PipelineError::UnexpectedFrame {
                    stage: self.name(),
                    actual: input.kind(),
                });
            };
            out.begin_codes().extend_from_slice(codes);
            Ok(StageOutput::Emitted)
        }
    }

    #[test]
    fn chain_cascades_and_counts() {
        let mut p = Pipeline::new()
            .with_stage(CounterSource(10))
            .with_stage(Doubler);
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
        let out = p.step().unwrap().unwrap();
        assert_eq!(out.as_frame(), Frame::Codes(&[20]));
        let out = p.step().unwrap().unwrap();
        assert_eq!(out.as_frame(), Frame::Codes(&[22]));
        assert_eq!(p.steps(), 2);
        let t = p.telemetry();
        assert_eq!(t[0].name, "counter");
        assert_eq!(t[0].frames_in, 2);
        assert_eq!(t[1].frames_out, 2);
        assert!(t[1].peak_buffer_bytes >= 2);
    }

    #[test]
    fn pending_skips_downstream() {
        let mut p = Pipeline::new()
            .with_stage(CounterSource(0))
            .with_stage(EveryNth { window: 3, seen: 0 })
            .with_stage(Doubler);
        let mut emitted = 0;
        for _ in 0..9 {
            if p.step().unwrap().is_some() {
                emitted += 1;
            }
        }
        assert_eq!(emitted, 3);
        let t = p.telemetry();
        assert_eq!(t[0].frames_in, 9);
        assert_eq!(t[1].frames_in, 9);
        assert_eq!(t[1].frames_out, 3);
        assert_eq!(t[2].frames_in, 3, "doubler only sees emitted frames");
    }

    #[test]
    fn external_input_feeds_the_first_stage() {
        let mut p = Pipeline::new().with_stage(Doubler);
        let out = p.push(Frame::Codes(&[3, 5])).unwrap().unwrap();
        assert_eq!(out.as_frame(), Frame::Codes(&[6, 10]));
    }

    #[test]
    fn push_at_skips_upstream_stages_without_touching_them() {
        let mut p = Pipeline::new()
            .with_stage(CounterSource(10))
            .with_stage(Doubler);
        // Shed straight into the doubler: the counter neither runs nor
        // records, so its next emitted code is still the first one.
        let out = p.push_at(1, Frame::Codes(&[4])).unwrap().unwrap();
        assert_eq!(out.as_frame(), Frame::Codes(&[8]));
        let t = p.telemetry();
        assert_eq!(t[0].frames_in, 0, "skipped stage records nothing");
        assert_eq!(t[1].frames_in, 1);
        assert_eq!(p.steps(), 1, "a shed step still counts as a step");
        let out = p.step().unwrap().unwrap();
        assert_eq!(out.as_frame(), Frame::Codes(&[20]), "counter untouched");
    }

    #[test]
    fn push_at_zero_is_push_and_bad_targets_fail() {
        let mut p = Pipeline::new().with_stage(Doubler);
        let out = p.push_at(0, Frame::Codes(&[3])).unwrap().unwrap();
        assert_eq!(out.as_frame(), Frame::Codes(&[6]));
        let mut empty = Pipeline::new();
        assert!(matches!(
            empty.push_at(0, Frame::Empty),
            Err(PipelineError::Empty)
        ));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = p.push_at(5, Frame::Empty);
        }));
        assert!(result.is_err(), "out-of-bounds target is a caller bug");
    }

    #[test]
    fn empty_pipeline_and_kind_mismatch_error() {
        let mut p = Pipeline::new();
        assert!(matches!(p.step(), Err(PipelineError::Empty)));
        let mut p = Pipeline::new().with_stage(Doubler);
        let err = p.push(Frame::Values(&[1.0])).unwrap_err();
        match err {
            PipelineError::UnexpectedFrame { stage, actual } => {
                assert_eq!(stage, "doubler");
                assert_eq!(actual, FrameKind::Values);
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn mean_latency_is_zero_before_any_frame() {
        let mut t = StageTelemetry::new("idle");
        assert_eq!(t.mean_latency(), Duration::ZERO);
        // Past 2^32 frames the divisor is the full count, not u32::MAX.
        t.frames_in = 1 << 33;
        t.busy = Duration::from_nanos(1 << 33);
        assert_eq!(t.mean_latency(), Duration::from_nanos(1));
    }

    /// Absorbs every frame and only releases them at end-of-stream.
    struct Absorber {
        held: Vec<u16>,
    }

    impl Stage for Absorber {
        fn name(&self) -> &'static str {
            "absorber"
        }

        fn process(&mut self, input: &Frame<'_>, _out: &mut FrameBuf) -> Result<StageOutput> {
            let Frame::Codes(codes) = input else {
                return Err(PipelineError::UnexpectedFrame {
                    stage: self.name(),
                    actual: input.kind(),
                });
            };
            self.held.extend_from_slice(codes);
            Ok(StageOutput::Pending)
        }

        fn finish(&mut self, out: &mut FrameBuf) -> Result<StageOutput> {
            if self.held.is_empty() {
                return Ok(StageOutput::Pending);
            }
            out.begin_codes().push(self.held.remove(0));
            Ok(StageOutput::Emitted)
        }
    }

    #[test]
    fn finish_flushes_buffered_frames_through_downstream_stages() {
        let mut p = Pipeline::new()
            .with_stage(Absorber { held: Vec::new() })
            .with_stage(Doubler);
        for k in 1..=3_u16 {
            assert!(p.push(Frame::Codes(&[k])).unwrap().is_none());
        }
        let flushed = p.finish().unwrap();
        assert_eq!(flushed, 3, "every held frame reaches the end");
        let out = p.last_output().unwrap();
        assert_eq!(out.as_frame(), Frame::Codes(&[6]), "last flush, doubled");
        let t = p.telemetry();
        assert_eq!(t[0].frames_in, 3);
        assert_eq!(t[0].frames_out, 3, "flushes count as emissions");
        assert_eq!(t[1].frames_in, 3, "cascade drove the downstream stage");
        assert_eq!(t[1].frames_out, 3);
        // A second finish is a no-op; stages without buffered state
        // flush nothing.
        assert_eq!(p.finish().unwrap(), 0);
        assert!(matches!(
            Pipeline::new().finish(),
            Err(PipelineError::Empty)
        ));
    }

    #[test]
    fn default_stage_has_no_fault_telemetry() {
        let mut p = Pipeline::new().with_stage(Doubler);
        p.push(Frame::Codes(&[1])).unwrap();
        assert_eq!(p.telemetry()[0].faults, None);
    }

    /// Writes a frame of `64 × seen` copies of its input's first code
    /// on every call but emits only the first: its output buffer keeps
    /// growing on steps that return `Pending`.
    struct GrowOnPending {
        seen: usize,
    }

    impl Stage for GrowOnPending {
        fn name(&self) -> &'static str {
            "grow-on-pending"
        }

        fn process(&mut self, input: &Frame<'_>, out: &mut FrameBuf) -> Result<StageOutput> {
            let Frame::Codes(&[code, ..]) = input else {
                return Err(PipelineError::UnexpectedFrame {
                    stage: self.name(),
                    actual: input.kind(),
                });
            };
            self.seen += 1;
            out.begin_codes().resize(64 * self.seen, code);
            Ok(if self.seen == 1 {
                StageOutput::Emitted
            } else {
                StageOutput::Pending
            })
        }
    }

    /// Serialises codes as little-endian wire bytes.
    struct ToBytes;

    impl Stage for ToBytes {
        fn name(&self) -> &'static str {
            "to-bytes"
        }

        fn process(&mut self, input: &Frame<'_>, out: &mut FrameBuf) -> Result<StageOutput> {
            let Frame::Codes(codes) = input else {
                return Err(PipelineError::UnexpectedFrame {
                    stage: self.name(),
                    actual: input.kind(),
                });
            };
            out.begin_bytes()
                .extend(codes.iter().flat_map(|c| c.to_le_bytes()));
            Ok(StageOutput::Emitted)
        }
    }

    #[test]
    fn instrumented_run_mirrors_stage_telemetry_in_the_registry() {
        let registry = Registry::new();
        let mut p = Pipeline::new()
            .with_stage(CounterSource(0))
            .with_stage(EveryNth { window: 3, seen: 0 })
            .with_stage(Doubler)
            .with_stage(Absorber { held: Vec::new() })
            .with_stage(GrowOnPending { seen: 0 })
            .with_stage(ToBytes)
            .with_instrumentation(&registry, "test");
        for _ in 0..9 {
            p.step().unwrap();
        }
        assert_eq!(p.finish().unwrap(), 1, "only the first flush gets through");
        let t = p.telemetry();
        assert_eq!(t[3].frames_out, 3, "the absorber flushed every frame");
        let emitted_bytes = 64 * std::mem::size_of::<u16>();
        assert!(
            t[4].peak_buffer_bytes > emitted_bytes,
            "the buffer grew on pending steps after the last emission"
        );
        assert!(t[5].bytes_out > 0, "the byte sink emitted wire bytes");
        let s = registry.snapshot();
        for (i, stage) in t.iter().enumerate() {
            let base = format!("test.{i}.{}", stage.name);
            assert_eq!(
                s.counter(&format!("{base}.frames_in")),
                Some(stage.frames_in),
                "{base}"
            );
            assert_eq!(
                s.counter(&format!("{base}.frames_out")),
                Some(stage.frames_out),
                "{base}"
            );
            assert_eq!(
                s.counter(&format!("{base}.bytes_out")),
                Some(stage.bytes_out),
                "{base}"
            );
            let (_, high_water) = s.gauge(&format!("{base}.buffer_bytes")).unwrap();
            assert_eq!(high_water, stage.peak_buffer_bytes as u64, "{base}");
            let flushes = if stage.name == "absorber" {
                stage.frames_out
            } else {
                0
            };
            let lat = s.histogram(&format!("{base}.latency_ns")).unwrap();
            assert_eq!(
                lat.count,
                stage.frames_in + flushes,
                "one latency sample per input and per flush"
            );
        }
        assert!(
            s.counter("test.1.every-nth.faults.injected").is_none(),
            "fault-unaware stages register no fault gauges"
        );
    }

    #[test]
    fn instrumented_flush_counts_emissions() {
        let registry = Registry::new();
        let mut p = Pipeline::new()
            .with_stage(Absorber { held: Vec::new() })
            .with_stage(Doubler)
            .with_instrumentation(&registry, "flush");
        for k in 1..=3_u16 {
            assert!(p.push(Frame::Codes(&[k])).unwrap().is_none());
        }
        p.finish().unwrap();
        let s = registry.snapshot();
        assert_eq!(s.counter("flush.0.absorber.frames_out"), Some(3));
        assert_eq!(s.counter("flush.1.doubler.frames_in"), Some(3));
        assert_eq!(s.counter("flush.1.doubler.frames_out"), Some(3));
    }
}
