//! Fleet soak: 1k+ heterogeneous implant sessions multiplexed over the
//! shared scheduler.
//!
//! The serving tentpole's acceptance run: a [`Fleet`] admits over a
//! thousand sessions drawn from five chain classes (sense→packetize,
//! sense→conceal with a shed point, replay→conceal shedding
//! activations, an event source feeding a bin window, and a small pool
//! of replay→conceal→DNN sessions sharing one 128-channel weight set),
//! drives them through epochs of uneven demand with mid-soak
//! admission/eviction churn, and must hold every contract at once:
//!
//! * **Starvation-freedom** — every epoch reports zero starved
//!   sessions, no matter how oversubscribed the round's demand is.
//! * **Backpressure** — demand beyond the backlog bound is rejected at
//!   the edge, and the global ledger balances: every accepted step is
//!   eventually run, shed, or still queued at eviction.
//! * **Field-exact shedding** — each sheddable session's conceal stage
//!   reports exactly its shed count as degraded frames (and nothing as
//!   quarantined or lost), and the fleet-level counters agree.
//! * **Worker-count invariance** — the same scenario on one worker and
//!   on several produces identical per-session accounting.
//!
//! Set `MINDFUL_SOAK_QUICK=1` (CI short mode) to shrink the round
//! count; the session count stays above one thousand in both modes.

use std::num::{NonZeroU32, NonZeroU64, NonZeroUsize};
use std::sync::Arc;

use mindful_core::obs::Registry;
use mindful_core::pool::Scheduler;
use mindful_dnn::infer::Network;
use mindful_dnn::models::ModelFamily;
use mindful_pipeline::prelude::*;
use mindful_pipeline::SessionReport;

const SAMPLE_BITS: u8 = 10;
const REPLAY_CHANNELS: usize = 16;
const DNN_CHANNELS: usize = 128;
const BIN_CHANNELS: usize = 12;
const BIN_WINDOW: usize = 4;
/// The four bulk classes cycled by session index.
const CLASSES: usize = 4;
/// The DNN class rides on top of the bulk fleet in a small pool (its
/// 128-channel MLP is the expensive decoder calibrated — seeded —
/// once and shared by Arc).
const DNN_CLASS: usize = 4;
const DNN_SESSIONS: usize = 8;

fn rounds() -> usize {
    // CI short mode trims the demand rounds, never the fleet size: the
    // 1k+ admission path is the thing under test.
    if mindful_core::env::soak_quick() {
        3
    } else {
        12
    }
}

/// Source stage emitting a fixed-width events frame every step (what a
/// [`BinStage`] consumes).
struct EventSource(usize);

impl Stage for EventSource {
    fn name(&self) -> &'static str {
        "events"
    }

    fn process(&mut self, _input: &Frame<'_>, out: &mut FrameBuf) -> Result<StageOutput> {
        let events = out.begin_events();
        events.extend((0..self.0).map(|c| c.is_multiple_of(2)));
        Ok(StageOutput::Emitted)
    }
}

/// Shared per-soak resources: one DNN weight set and the replay tapes,
/// cloned cheaply into every session of their class.
struct ClassKit {
    network: Arc<Network>,
    replay: Vec<Vec<f32>>,
    dnn_replay: Vec<Vec<f32>>,
}

impl ClassKit {
    fn new() -> Self {
        let tape = |width: usize| -> Vec<Vec<f32>> {
            (0..32)
                .map(|k| {
                    (0..width)
                        .map(|c| ((k * 31 + c) % 97) as f32 / 97.0 - 0.5)
                        .collect()
                })
                .collect()
        };
        Self {
            network: Arc::new(Network::with_seeded_weights(
                ModelFamily::Mlp.architecture(DNN_CHANNELS as u64).unwrap(),
                42,
            )),
            replay: tape(REPLAY_CHANNELS),
            dnn_replay: tape(DNN_CHANNELS),
        }
    }

    /// Builds a session of `class`; the seed keeps every sensed stream
    /// distinct.
    fn spec(&self, class: usize, seed: u64) -> SessionSpec {
        match class {
            // Plain telemetry chain: no shed point, oversubscription
            // stays backlogged.
            0 => SessionSpec::new(
                Pipeline::new()
                    .with_stage(
                        SenseStage::new(2, 16, SAMPLE_BITS, seed, IntentSchedule::FigureEight)
                            .unwrap(),
                    )
                    .with_stage(PacketizeStage::new(SAMPLE_BITS).unwrap()),
            ),
            // Sheddable sensing chain: 3×3 grid (9 channels) into its
            // concealment stage.
            1 => SessionSpec::new(
                Pipeline::new()
                    .with_stage(
                        SenseStage::new(3, 16, SAMPLE_BITS, seed, IntentSchedule::FigureEight)
                            .unwrap(),
                    )
                    .with_stage(ConcealStage::new(9, DegradePolicy::HoldLast).unwrap()),
            )
            .with_shed(1, FrameKind::Codes),
            // Radio-side chain: digitized activations off the replay
            // tape, shed as activation gaps.
            2 => SessionSpec::new(
                Pipeline::new()
                    .with_stage(ReplaySource::new(self.replay.clone()).unwrap())
                    .with_stage(
                        ConcealStage::new(REPLAY_CHANNELS, DegradePolicy::Interpolate).unwrap(),
                    ),
            )
            .with_shed(1, FrameKind::Activations),
            // Windowed decode front: emits once per full bin window and
            // holds a partial window across epochs (the eviction-drain
            // case).
            3 => SessionSpec::new(
                Pipeline::new()
                    .with_stage(EventSource(BIN_CHANNELS))
                    .with_stage(BinStage::new(BIN_CHANNELS, BIN_WINDOW).unwrap()),
            ),
            // Inference chain: every session shares the same weights
            // through the Arc, with its own conceal + workspace state.
            // No shed point — the expensive decoder advances strictly
            // at the fair quantum and backpressures the rest.
            _ => SessionSpec::new(
                Pipeline::new()
                    .with_stage(ReplaySource::new(self.dnn_replay.clone()).unwrap())
                    .with_stage(
                        ConcealStage::new(DNN_CHANNELS, DegradePolicy::Interpolate).unwrap(),
                    )
                    .with_stage(
                        DnnStage::with_precision(
                            Arc::clone(&self.network),
                            SAMPLE_BITS,
                            Precision::F32,
                        )
                        .unwrap(),
                    ),
            ),
        }
    }
}

/// The demand a session asks for in a round: deterministic, uneven,
/// and often above the backlog bound so rejection paths stay hot.
fn demand(s: usize, round: usize) -> u32 {
    ((s * 7 + round * 5) % 17) as u32
}

/// Checks the per-class accounting invariants of one final report.
fn check_class_invariants(class: usize, report: &SessionReport) {
    let id = report.id;
    match class {
        0 => {
            assert_eq!(report.shed, 0, "{id}: no shed point");
            assert_eq!(
                report.emitted, report.steps,
                "{id}: packetizer emits every step"
            );
            assert_eq!(report.telemetry[0].frames_in, report.steps);
            assert_eq!(report.flushed, 0, "{id}: nothing windowed to drain");
        }
        1 | 2 => {
            // Every real step and every shed marker clears the chain.
            assert_eq!(report.emitted, report.steps + report.shed, "{id}");
            // The upstream stages never ran the shed steps — that is
            // the point of shedding at the conceal stage.
            assert_eq!(report.telemetry[0].frames_in, report.steps, "{id}");
            let conceal = &report.telemetry[1];
            assert_eq!(conceal.frames_in, report.steps + report.shed, "{id}");
            let faults = conceal.faults.expect("conceal is fault-aware");
            assert_eq!(
                faults.degraded, report.shed,
                "{id}: field-exact shed accounting"
            );
            assert_eq!(
                faults.quarantined, 0,
                "{id}: gaps degrade, never quarantine"
            );
            assert_eq!(faults.lost, 0, "{id}");
        }
        3 => {
            assert_eq!(report.shed, 0, "{id}: no shed point");
            assert_eq!(report.telemetry[1].frames_in, report.steps, "{id}");
            assert_eq!(
                report.emitted,
                report.steps / BIN_WINDOW as u64,
                "{id}: one emission per full window"
            );
            assert_eq!(
                report.flushed,
                u64::from(!report.steps.is_multiple_of(BIN_WINDOW as u64)),
                "{id}: eviction drains exactly the partial window"
            );
        }
        _ => {
            assert_eq!(report.shed, 0, "{id}: the DNN class never degrades");
            assert_eq!(
                report.emitted, report.steps,
                "{id}: the DNN emits every step"
            );
            let faults = report.telemetry[1].faults.expect("conceal is fault-aware");
            assert_eq!(faults.degraded, 0, "{id}");
            assert_eq!(
                report.telemetry[2].frames_in, report.steps,
                "{id}: every step reached inference"
            );
        }
    }
}

/// The headline soak: 1064 heterogeneous sessions, uneven demand,
/// mid-soak churn, and a fully balanced ledger at the end.
#[test]
fn soak_multiplexes_a_thousand_heterogeneous_sessions() {
    const BULK: usize = 1056;
    const SESSIONS: usize = BULK + DNN_SESSIONS;
    let kit = ClassKit::new();
    let sched = Scheduler::new(NonZeroUsize::new(4).unwrap());
    let registry = Registry::new();
    let config = FleetConfig {
        capacity: NonZeroUsize::new(2048).unwrap(),
        quantum: NonZeroU32::new(4).unwrap(),
        max_backlog: 12,
        ..FleetConfig::default()
    };
    let mut fleet = Fleet::observed(&sched, config, &registry, "serve");

    let mut live: Vec<(SessionId, usize)> = (0..BULK)
        .map(|s| {
            let class = s % CLASSES;
            (
                fleet.admit(kit.spec(class, 1000 + s as u64)).unwrap(),
                class,
            )
        })
        .collect();
    for s in 0..DNN_SESSIONS {
        let id = fleet.admit(kit.spec(DNN_CLASS, 9000 + s as u64)).unwrap();
        live.push((id, DNN_CLASS));
    }
    assert_eq!(fleet.len(), SESSIONS);

    let rounds = rounds();
    let mut accepted_total = 0_u64;
    let mut rejected_total = 0_u64;
    let mut churned = 0_usize;
    let mut epochs = 0_u64;
    let mut finished: Vec<(usize, SessionReport)> = Vec::new();

    for round in 0..rounds {
        for (s, &(id, _)) in live.iter().enumerate() {
            let want = demand(s, round);
            let got = fleet.request(id, want).unwrap();
            accepted_total += u64::from(got);
            rejected_total += u64::from(want - got);
        }
        let report = fleet.drive_epoch().unwrap();
        epochs += 1;
        assert_eq!(report.starved, 0, "round {round}: no session starves");
        assert!(
            report.steps <= report.sessions as u64 * u64::from(config.quantum.get()),
            "round {round}: nobody exceeds the fair quantum"
        );

        // Mid-soak churn: sessions leave and new patients connect; the
        // fleet reuses slots but never reuses ids.
        if round == rounds / 2 {
            for s in (0..BULK).step_by(13) {
                let (id, class) = live[s];
                let report = fleet.evict(id).unwrap();
                finished.push((class, report));
                let fresh_class = (s + churned) % CLASSES;
                let new_id = fleet
                    .admit(kit.spec(fresh_class, 5000 + churned as u64))
                    .unwrap();
                assert!(new_id > id, "ids stay monotonic across churn");
                live[s] = (new_id, fresh_class);
                churned += 1;
            }
            assert_eq!(fleet.len(), SESSIONS, "churn is one-for-one");
        }
    }

    // Drain: plain sessions still hold backlog (their backpressure kept
    // it queued); a few more epochs of fair quanta clear it.
    loop {
        let report = fleet.drive_epoch().unwrap();
        epochs += 1;
        if report.sessions == 0 {
            break;
        }
        assert_eq!(report.starved, 0, "drain epochs never starve either");
    }

    for &(id, class) in &live {
        let report = fleet.evict(id).unwrap();
        finished.push((class, report));
    }
    assert!(fleet.is_empty());
    assert_eq!(finished.len(), SESSIONS + churned);
    assert_eq!(fleet.epochs(), epochs);

    // The global ledger balances exactly: every accepted step was run,
    // shed, or (for churn-evicted sessions) dropped with its backlog
    // explicitly on the final report.
    let steps: u64 = finished.iter().map(|(_, r)| r.steps).sum();
    let shed: u64 = finished.iter().map(|(_, r)| r.shed).sum();
    let rejected: u64 = finished.iter().map(|(_, r)| r.rejected).sum();
    let leftover: u64 = finished.iter().map(|(_, r)| u64::from(r.backlog)).sum();
    assert_eq!(
        steps + shed + leftover,
        accepted_total,
        "accepted demand is conserved"
    );
    assert_eq!(rejected, rejected_total, "rejections are conserved");
    assert!(
        shed > 0,
        "the demand pattern oversubscribed the sheddable classes"
    );
    assert!(
        rejected > 0,
        "the demand pattern overflowed the backlog bound"
    );

    // Field-exact degradation accounting, per session and per class.
    for (class, report) in &finished {
        check_class_invariants(*class, report);
    }

    // One registry scrape agrees with the summed per-session ledgers.
    let snap = registry.snapshot();
    assert_eq!(
        snap.counter("serve.admitted"),
        Some((SESSIONS + churned) as u64)
    );
    assert_eq!(
        snap.counter("serve.evicted"),
        Some((SESSIONS + churned) as u64)
    );
    assert_eq!(snap.counter("serve.epochs"), Some(epochs));
    assert_eq!(snap.counter("serve.steps"), Some(steps));
    assert_eq!(snap.counter("serve.shed"), Some(shed));
    assert_eq!(snap.counter("serve.rejected"), Some(rejected_total));
    // `emitted` counts live epoch emissions only — eviction-drain
    // flushes are on the per-session reports, not the epoch path.
    let emitted: u64 = finished.iter().map(|(_, r)| r.emitted).sum();
    assert_eq!(snap.counter("serve.emitted"), Some(emitted));
    let (sessions_now, sessions_peak) = snap.gauge("serve.sessions").unwrap();
    assert_eq!(sessions_now, 0);
    assert_eq!(sessions_peak, SESSIONS as u64);
    let step_ns = snap.histogram("serve.step_ns").unwrap();
    assert_eq!(step_ns.count, steps, "one latency sample per real step");
    assert_eq!(
        snap.histogram("serve.epoch_ns").unwrap().count,
        epochs,
        "one epoch sample per drive"
    );

    // The scheduler really carried the load: one dispatch per epoch,
    // one task per ready session.
    let stats = sched.stats();
    assert_eq!(stats.epochs, epochs);
    assert!(stats.tasks >= steps / u64::from(config.quantum.get()));
}

/// The same mixed-fleet scenario on one worker and on five must
/// produce identical per-session accounting — work stealing reorders
/// execution, never outcomes.
#[test]
fn fleet_accounting_is_worker_count_invariant() {
    const SESSIONS: usize = 96;
    const ROUNDS: usize = 3;
    let run = |workers: usize| -> Vec<(u64, u64, u64, u64, u64)> {
        let kit = ClassKit::new();
        let sched = Scheduler::new(NonZeroUsize::new(workers).unwrap());
        let config = FleetConfig {
            capacity: NonZeroUsize::new(SESSIONS).unwrap(),
            quantum: NonZeroU32::new(4).unwrap(),
            max_backlog: 12,
            ..FleetConfig::default()
        };
        let mut fleet = Fleet::new(&sched, config);
        let ids: Vec<SessionId> = (0..SESSIONS)
            .map(|s| fleet.admit(kit.spec(s % CLASSES, 1000 + s as u64)).unwrap())
            .collect();
        for round in 0..ROUNDS {
            for (s, &id) in ids.iter().enumerate() {
                fleet.request(id, demand(s, round)).unwrap();
            }
            let report = fleet.drive_epoch().unwrap();
            assert_eq!(report.starved, 0);
        }
        ids.iter()
            .map(|&id| {
                let report = fleet.evict(id).unwrap();
                let degraded = report
                    .telemetry
                    .iter()
                    .filter_map(|t| t.faults)
                    .map(|f| f.degraded)
                    .sum();
                (
                    report.steps,
                    report.emitted,
                    report.shed,
                    report.rejected,
                    degraded,
                )
            })
            .collect()
    };
    assert_eq!(run(1), run(5), "scheduling never changes the outputs");
}

/// The priority soak: a saturating best-effort majority must never
/// push the realtime minority past its deadline budget.
///
/// 8 realtime motor-decode-shaped sessions (a host-noise-tolerant
/// multiple of the paper's ~500 µs per-sample deadline as their
/// budget — see `RT_DEADLINE_NS` below) share the fleet with 16
/// interactive monitors and 96 best-effort bulk-telemetry sessions
/// whose demand alone exceeds the epoch capacity. Every epoch must:
///
/// * serve realtime first and in full — zero deadline misses, gated
///   through the per-class `serve.realtime.step_ns` registry
///   histogram (the same measurement that feeds the miss counters);
/// * shed **only** from the lowest class — realtime and interactive
///   shed nothing, best-effort absorbs the entire overload;
/// * balance the conservation ledger per class: accepted = stepped +
///   shed + leftover backlog, class by class.
#[test]
fn priority_soak_protects_realtime_deadlines_under_best_effort_saturation() {
    const RT: usize = 8;
    const IA: usize = 16;
    const BE: usize = 96;
    const RT_QUANTUM: u32 = 8;
    const IA_QUANTUM: u32 = 4;
    const BE_QUANTUM: u32 = 4;
    const BE_DEMAND: u32 = 12;
    /// The realtime budget. The paper's motor-decode deadline is
    /// ~500 µs, but a wall-clock gate at that scale flakes on shared
    /// CI hosts: with more worker threads than cores the OS can park
    /// a thread mid-step for a few timeslices, which is host noise,
    /// not a scheduling failure. 100 ms only trips when a realtime
    /// step is genuinely stuck behind lower-class work — the
    /// pathology this soak exists to rule out. The 500 µs figure is
    /// measured (not gated) by the realtime study and serve bench.
    const RT_DEADLINE_NS: u64 = 100_000_000;
    // Capacity covers realtime and interactive in full, then a quarter
    // of the best-effort quanta — best-effort demand saturates it
    // every epoch.
    const CAPACITY: u64 =
        (RT as u64 * RT_QUANTUM as u64) + (IA as u64 * IA_QUANTUM as u64) + BE as u64;

    let kit = ClassKit::new();
    let sched = Scheduler::new(NonZeroUsize::new(4).unwrap());
    let registry = Registry::new();
    let config = FleetConfig {
        capacity: NonZeroUsize::new(256).unwrap(),
        quantum: NonZeroU32::new(BE_QUANTUM).unwrap(),
        max_backlog: 16,
        epoch_capacity: NonZeroU64::new(CAPACITY),
        ..FleetConfig::default()
    };
    let mut fleet = Fleet::observed(&sched, config, &registry, "serve");

    // Realtime: cheap sense→packetize chains with the paper deadline.
    let rt_ids: Vec<SessionId> = (0..RT)
        .map(|s| {
            fleet
                .admit(
                    kit.spec(0, 100 + s as u64)
                        .with_class(PriorityClass::Realtime)
                        .with_quantum(NonZeroU32::new(RT_QUANTUM).unwrap())
                        .with_deadline_ns(RT_DEADLINE_NS),
                )
                .unwrap()
        })
        .collect();
    // Interactive monitors: served after realtime, before bulk.
    let ia_ids: Vec<SessionId> = (0..IA)
        .map(|s| {
            fleet
                .admit(
                    kit.spec(0, 200 + s as u64)
                        .with_class(PriorityClass::Interactive)
                        .with_quantum(NonZeroU32::new(IA_QUANTUM).unwrap()),
                )
                .unwrap()
        })
        .collect();
    // Best-effort bulk telemetry: sheddable, default class, and an
    // intentionally unmeetable zero deadline budget so the per-class
    // miss accounting has a hot lowest class to bite on.
    let be_ids: Vec<SessionId> = (0..BE)
        .map(|s| {
            fleet
                .admit(kit.spec(1, 300 + s as u64).with_deadline_ns(0))
                .unwrap()
        })
        .collect();

    let rounds = rounds();
    let mut accepted = [0_u64; 3];
    for round in 0..rounds {
        for &id in &rt_ids {
            accepted[0] += u64::from(fleet.request(id, RT_QUANTUM).unwrap());
        }
        for &id in &ia_ids {
            accepted[1] += u64::from(fleet.request(id, IA_QUANTUM).unwrap());
        }
        for &id in &be_ids {
            accepted[2] += u64::from(fleet.request(id, BE_DEMAND).unwrap());
        }
        let report = fleet.drive_epoch().unwrap();

        let rt = report.by_class[PriorityClass::Realtime.index()];
        assert_eq!(rt.sessions, RT, "round {round}");
        assert_eq!(
            rt.steps,
            RT as u64 * u64::from(RT_QUANTUM),
            "round {round}: realtime served in full"
        );
        assert_eq!(
            rt.deadline_misses, 0,
            "round {round}: saturation never costs realtime its deadline"
        );
        assert_eq!(rt.shed, 0, "round {round}");
        assert_eq!(rt.starved, 0, "round {round}");

        let ia = report.by_class[PriorityClass::Interactive.index()];
        assert_eq!(ia.steps, IA as u64 * u64::from(IA_QUANTUM), "round {round}");
        assert_eq!(ia.shed, 0, "round {round}: shedding starts at the bottom");

        let be = report.by_class[PriorityClass::BestEffort.index()];
        assert_eq!(be.steps, BE as u64, "round {round}: the leftover capacity");
        assert_eq!(
            report.shed, be.shed,
            "round {round}: every shed step is best-effort"
        );
        assert!(be.shed > 0, "round {round}: saturation really shed");
        assert_eq!(
            be.starved, 0,
            "round {round}: shed sessions are served, degraded"
        );
        assert_eq!(
            report.steps, CAPACITY,
            "round {round}: capacity-bound epoch"
        );
    }

    // Per-class conservation: accepted = stepped + shed + leftover.
    let mut served = [0_u64; 3];
    for (class, ids) in [(0, &rt_ids), (1, &ia_ids), (2, &be_ids)] {
        for &id in ids {
            let report = fleet.evict(id).unwrap();
            served[class] += report.steps + report.shed + u64::from(report.backlog);
            if class < 2 {
                assert_eq!(report.deadline_misses, 0, "{id}");
                assert_eq!(report.shed, 0, "{id}");
            }
        }
    }
    assert_eq!(served, accepted, "per-class ledgers balance exactly");

    let snap = registry.snapshot();
    let rt_steps = rounds as u64 * RT as u64 * u64::from(RT_QUANTUM);
    // The deadline gate runs through the registry histograms: every
    // realtime step's latency sample landed, and none missed.
    let rt_hist = snap.histogram("serve.realtime.step_ns").unwrap();
    assert_eq!(rt_hist.count, rt_steps, "one sample per realtime step");
    assert!(
        rt_hist.quantile_upper_bound(1.0).unwrap() <= RT_DEADLINE_NS
            || snap.counter("serve.realtime.deadline_misses") == Some(0),
        "the histogram tail and the miss counter agree"
    );
    assert_eq!(snap.counter("serve.realtime.deadline_misses"), Some(0));
    assert_eq!(snap.counter("serve.realtime.steps"), Some(rt_steps));
    assert_eq!(snap.counter("serve.realtime.shed"), Some(0));
    assert_eq!(
        snap.counter("serve.interactive.steps"),
        Some(rounds as u64 * IA as u64 * u64::from(IA_QUANTUM))
    );
    assert_eq!(snap.counter("serve.interactive.shed"), Some(0));
    assert_eq!(
        snap.counter("serve.best_effort.steps"),
        Some(rounds as u64 * BE as u64)
    );
    // The zero-budget bulk class misses on every real step — the
    // per-class attribution never leaks across classes.
    assert_eq!(
        snap.counter("serve.best_effort.deadline_misses"),
        Some(rounds as u64 * BE as u64)
    );
    let shed = snap.counter("serve.best_effort.shed").unwrap();
    assert_eq!(snap.counter("serve.shed"), Some(shed));
    assert!(shed > 0);
    assert_eq!(
        snap.counter("serve.deadline_misses"),
        snap.counter("serve.best_effort.deadline_misses")
    );
}
