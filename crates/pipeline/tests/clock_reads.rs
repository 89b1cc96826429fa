//! Clock-read counts and deterministic deadline misses, pinned through
//! [`mindful_core::obs::clock`].
//!
//! Every timing site reads `clock::now_ns`, which counts its calls per
//! thread ([`clock::reads`]) and adds a per-thread offset that
//! [`clock::advance_ns`] raises. Each fleet here runs on a one-worker
//! [`Scheduler`], so dispatch is inline on the test thread and every
//! read lands on this thread's counter. The counts fix today's
//! behaviour:
//!
//! * an uninstrumented pipeline reads no clock, stepping or flushing;
//! * an instrumented one reads it twice per stage call (each step a
//!   stage is reached on, and each `finish` call);
//! * an unobserved fleet with no deadline budget adds no reads;
//! * a budget adds 2 reads per step; an observed fleet, whose sessions
//!   are instrumented, adds 2 per step plus 2 per epoch;
//! * a `DnnStage` step reads no clock for spans outside a capture
//!   window and 2 per layer inside one.

use std::num::{NonZeroU32, NonZeroUsize};
use std::sync::Arc;

use mindful_core::obs::{clear_spans, clock, drain_spans, Registry};
use mindful_core::pool::Scheduler;
use mindful_dnn::infer::Network;
use mindful_dnn::models::ModelFamily;
use mindful_pipeline::prelude::*;

/// Emits a one-code frame every step.
struct Source;

impl Stage for Source {
    fn name(&self) -> &'static str {
        "source"
    }

    fn process(&mut self, _input: &Frame<'_>, out: &mut FrameBuf) -> Result<StageOutput> {
        out.begin_codes().push(1);
        Ok(StageOutput::Emitted)
    }
}

/// Copies its input codes. Every `every`-th step it first moves this
/// thread's clock `advance_ns` forward, as if that step took that much
/// longer.
struct Relay {
    every: u64,
    advance_ns: u64,
    seen: u64,
}

impl Relay {
    fn plain() -> Self {
        Self::slow(u64::MAX, 0)
    }

    fn slow(every: u64, advance_ns: u64) -> Self {
        Self {
            every,
            advance_ns,
            seen: 0,
        }
    }
}

impl Stage for Relay {
    fn name(&self) -> &'static str {
        "relay"
    }

    fn process(&mut self, input: &Frame<'_>, out: &mut FrameBuf) -> Result<StageOutput> {
        let Frame::Codes(codes) = input else {
            return Err(PipelineError::UnexpectedFrame {
                stage: self.name(),
                actual: input.kind(),
            });
        };
        self.seen += 1;
        if self.seen.is_multiple_of(self.every) {
            clock::advance_ns(self.advance_ns);
        }
        out.begin_codes().extend_from_slice(codes);
        Ok(StageOutput::Emitted)
    }
}

/// Emits every `window`-th frame and absorbs the rest; `finish`
/// flushes a partly filled window as one frame.
struct Window {
    window: u64,
    seen: u64,
}

impl Window {
    fn new(window: u64) -> Self {
        Self { window, seen: 0 }
    }
}

impl Stage for Window {
    fn name(&self) -> &'static str {
        "window"
    }

    fn process(&mut self, _input: &Frame<'_>, out: &mut FrameBuf) -> Result<StageOutput> {
        self.seen += 1;
        if self.seen.is_multiple_of(self.window) {
            out.begin_codes().push(0);
            Ok(StageOutput::Emitted)
        } else {
            Ok(StageOutput::Pending)
        }
    }

    fn finish(&mut self, out: &mut FrameBuf) -> Result<StageOutput> {
        if self.seen.is_multiple_of(self.window) {
            return Ok(StageOutput::Pending);
        }
        self.seen = 0;
        out.begin_codes().push(0);
        Ok(StageOutput::Emitted)
    }
}

/// Clock reads `f` makes on this thread.
fn reads_during(f: impl FnOnce()) -> u64 {
    let before = clock::reads();
    f();
    clock::reads() - before
}

fn three_stage_chain() -> Pipeline {
    Pipeline::new()
        .with_stage(Source)
        .with_stage(Relay::plain())
        .with_stage(Relay::plain())
}

fn inline_scheduler() -> Scheduler {
    Scheduler::new(NonZeroUsize::MIN)
}

fn config(quantum: u32) -> FleetConfig {
    FleetConfig {
        quantum: NonZeroU32::new(quantum).unwrap(),
        ..FleetConfig::default()
    }
}

const SESSIONS: u64 = 3;
const STEPS: u32 = 10;
const EPOCHS: u64 = 2;

/// Clock reads of `EPOCHS` epochs of `STEPS` steps for each of
/// `SESSIONS` three-stage sessions, after one warm epoch.
fn fleet_epoch_reads(fleet: &mut Fleet<'_>, budget_ns: Option<u64>) -> u64 {
    let ids: Vec<SessionId> = (0..SESSIONS)
        .map(|_| {
            let spec = SessionSpec::new(three_stage_chain());
            let spec = match budget_ns {
                Some(ns) => spec.with_deadline_ns(ns),
                None => spec,
            };
            fleet.admit(spec).unwrap()
        })
        .collect();
    let epoch = |fleet: &mut Fleet<'_>| {
        for &id in &ids {
            assert_eq!(fleet.request(id, STEPS).unwrap(), STEPS);
        }
        let report = fleet.drive_epoch().unwrap();
        assert_eq!(report.steps, SESSIONS * u64::from(STEPS));
        assert_eq!(report.deadline_misses, 0);
    };
    epoch(fleet);
    reads_during(|| (0..EPOCHS).for_each(|_| epoch(fleet)))
}

/// The instrumented pipelines' own reads over [`fleet_epoch_reads`]:
/// two per stage per step. Only an observed fleet instruments its
/// sessions.
const PIPELINE_READS: u64 = 2 * 3 * SESSIONS * STEPS as u64 * EPOCHS;
const FLEET_STEPS: u64 = SESSIONS * STEPS as u64 * EPOCHS;

/// source → window(4) → relay: three of every four steps stop at the
/// window, so the relay is reached once per four steps.
fn windowed_chain() -> Pipeline {
    Pipeline::new()
        .with_stage(Source)
        .with_stage(Window::new(4))
        .with_stage(Relay::plain())
}

#[test]
fn a_warm_uninstrumented_chain_reads_no_clock() {
    let mut chain = three_stage_chain();
    chain.step().unwrap();
    let reads = reads_during(|| {
        for _ in 0..50 {
            assert!(chain.step().unwrap().is_some());
        }
    });
    assert_eq!(reads, 0);

    let mut chain = windowed_chain();
    let reads = reads_during(|| {
        for _ in 0..42 {
            chain.step().unwrap();
        }
        assert_eq!(chain.finish().unwrap(), 1, "the partial window flushes");
    });
    assert_eq!(reads, 0);
    let t = chain.telemetry();
    assert_eq!(t[2].frames_in, 42 / 4 + 1);
    assert!(t.iter().all(|s| s.busy.is_zero()), "no stopwatch ran");
}

#[test]
fn an_instrumented_chain_reads_the_clock_twice_per_stage_it_reaches() {
    let registry = Registry::new();
    let mut chain = three_stage_chain().with_instrumentation(&registry, "warm");
    chain.step().unwrap();
    let reads = reads_during(|| {
        for _ in 0..50 {
            assert!(chain.step().unwrap().is_some());
        }
    });
    assert_eq!(reads, 2 * 3 * 50);

    let mut chain = windowed_chain().with_instrumentation(&registry, "windowed");
    let reads = reads_during(|| {
        for _ in 0..42 {
            chain.step().unwrap();
        }
    });
    assert_eq!(reads, 2 * (2 * 42 + 42 / 4));
    // One finish call per stage that flushes nothing (source, window
    // once drained, relay) plus the window's flushing call and the
    // relay step it cascades into.
    let reads = reads_during(|| {
        assert_eq!(chain.finish().unwrap(), 1);
    });
    assert_eq!(reads, 2 * (3 + 2));
    assert_eq!(chain.telemetry()[2].frames_in, 42 / 4 + 1);
}

#[test]
fn an_unobserved_budgetless_fleet_adds_no_clock_reads() {
    let scheduler = inline_scheduler();
    let mut fleet = Fleet::new(&scheduler, config(STEPS));
    assert_eq!(fleet_epoch_reads(&mut fleet, None), 0);
}

#[test]
fn a_deadline_budget_adds_two_reads_per_step() {
    let scheduler = inline_scheduler();
    let mut fleet = Fleet::new(&scheduler, config(STEPS));
    let reads = fleet_epoch_reads(&mut fleet, Some(60_000_000_000));
    assert_eq!(reads, 2 * FLEET_STEPS, "the fleet's own stopwatch only");
}

#[test]
fn an_observed_fleet_adds_two_reads_per_step_and_two_per_epoch() {
    let scheduler = inline_scheduler();
    let registry = Registry::new();
    let mut fleet = Fleet::observed(&scheduler, config(STEPS), &registry, "serve");
    let reads = fleet_epoch_reads(&mut fleet, None);
    assert_eq!(reads, PIPELINE_READS + 2 * FLEET_STEPS + 2 * EPOCHS);
    // A budget on an observed fleet reuses the same stopwatch.
    let mut fleet = Fleet::observed(&scheduler, config(STEPS), &registry, "budgeted");
    let reads = fleet_epoch_reads(&mut fleet, Some(60_000_000_000));
    assert_eq!(reads, PIPELINE_READS + 2 * FLEET_STEPS + 2 * EPOCHS);
}

#[test]
fn dnn_spans_read_the_clock_only_inside_a_capture_window() {
    let network = Network::with_seeded_weights(ModelFamily::Mlp.architecture(128).unwrap(), 3);
    let layers = network.architecture().len() as u64;
    let width = network.architecture().input_values() as usize;
    let network = Arc::new(network);
    for precision in [Precision::F32, Precision::Int8] {
        let mut chain = Pipeline::new()
            .with_stage(Widen(width))
            .with_stage(DnnStage::with_precision(Arc::clone(&network), 10, precision).unwrap());
        chain.step().unwrap();
        let mut spans = Vec::new();
        drain_spans(&mut spans);
        let outside = reads_during(|| {
            chain.step().unwrap();
        });
        assert_eq!(outside, 0, "{precision:?}: an uninstrumented chain");
        clear_spans();
        let inside = reads_during(|| {
            chain.step().unwrap();
        });
        spans.clear();
        drain_spans(&mut spans);
        assert_eq!(inside, 2 * layers, "{precision:?}: 2 per layer");
        assert_eq!(spans.len() as u64, layers, "{precision:?}");
    }
}

/// Emits a fixed `width`-code frame (the DNN's input) every step.
struct Widen(usize);

impl Stage for Widen {
    fn name(&self) -> &'static str {
        "widen"
    }

    fn process(&mut self, _input: &Frame<'_>, out: &mut FrameBuf) -> Result<StageOutput> {
        let codes = out.begin_codes();
        codes.extend((0..self.0).map(|i| (i * 37 % 1024) as u16));
        Ok(StageOutput::Emitted)
    }
}

/// A session whose relay stage takes 2 s on every `k`-th step misses
/// its 1 s budget on exactly those steps — in the session report, the
/// class report and the registry — while a session of another class
/// with the same budget, served on the same thread, never misses.
#[test]
fn injected_slow_steps_are_exactly_the_deadline_misses() {
    const BUDGET_NS: u64 = 1_000_000_000;
    const SLOW_NS: u64 = 2_000_000_000;
    const K: u64 = 7;
    const QUANTUM: u32 = 25;
    const EPOCHS: u64 = 4;
    let steps = u64::from(QUANTUM) * EPOCHS;
    let misses = steps / K;

    let scheduler = inline_scheduler();
    let registry = Registry::new();
    let mut fleet = Fleet::observed(&scheduler, config(QUANTUM), &registry, "serve");
    let slow = fleet
        .admit(
            SessionSpec::new(
                Pipeline::new()
                    .with_stage(Source)
                    .with_stage(Relay::slow(K, SLOW_NS)),
            )
            .with_class(PriorityClass::Realtime)
            .with_deadline_ns(BUDGET_NS),
        )
        .unwrap();
    let steady = fleet
        .admit(
            SessionSpec::new(three_stage_chain())
                .with_class(PriorityClass::BestEffort)
                .with_deadline_ns(BUDGET_NS),
        )
        .unwrap();

    let mut class_misses = [0_u64; PriorityClass::COUNT];
    for _ in 0..EPOCHS {
        for id in [slow, steady] {
            assert_eq!(fleet.request(id, QUANTUM).unwrap(), QUANTUM);
        }
        let report = fleet.drive_epoch().unwrap();
        for (acc, class) in class_misses.iter_mut().zip(report.by_class) {
            *acc += class.deadline_misses;
        }
    }

    let realtime = PriorityClass::Realtime.index();
    let best_effort = PriorityClass::BestEffort.index();
    assert_eq!(class_misses[realtime], misses);
    assert_eq!(class_misses[best_effort], 0);
    let slow_report = fleet.evict(slow).unwrap();
    assert_eq!(slow_report.steps, steps);
    assert_eq!(slow_report.deadline_misses, misses);
    assert_eq!(fleet.evict(steady).unwrap().deadline_misses, 0);

    let snapshot = registry.snapshot();
    assert_eq!(snapshot.counter("serve.deadline_misses"), Some(misses));
    assert_eq!(
        snapshot.counter("serve.realtime.deadline_misses"),
        Some(misses)
    );
    assert_eq!(
        snapshot.counter("serve.best_effort.deadline_misses"),
        Some(0)
    );

    let relay = slow_report
        .telemetry
        .iter()
        .find(|t| t.name == "relay")
        .unwrap();
    assert!(relay.busy.as_nanos() >= u128::from(misses * SLOW_NS));
}
