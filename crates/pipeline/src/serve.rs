//! Fleet serving: multiplexing many implant sessions over the shared
//! scheduler.
//!
//! A deployed host serves a *fleet*: sessions (one per patient-device
//! link) come and go, differ in channel count, decoder, fault plan,
//! and security state, and demand arrives unevenly — so the serving
//! layer needs admission, eviction, fair scheduling, per-session
//! backpressure, and a disciplined answer to oversubscription. This
//! module provides it, and it is the crate's only multi-session
//! driver: a fixed set of homogeneous streams is a [`Fleet`] with the
//! default [`FleetConfig`] and one class, where each stream requests
//! its steps and one [`Fleet::drive_epoch`] runs them all.
//!
//! * A [`Fleet`] admits independent [`SessionSpec`]s — each an owned
//!   [`Pipeline`] with its own ARQ/auth state, fault plan, precision,
//!   and (when a registry is attached) its own per-session metric
//!   prefix — and evicts them with a full end-of-stream drain
//!   ([`Pipeline::finish`]).
//! * Demand is queued per session through [`Fleet::request`], capped
//!   by the per-session backlog bound ([`FleetConfig::max_backlog`]) —
//!   the backpressure contract: excess demand is *rejected at the
//!   edge*, visibly, rather than ballooning memory.
//! * Every session carries a [`PriorityClass`] — the paper's
//!   application-level urgency ladder: a motor-decode stream at the
//!   ~500 µs per-sample deadline is [`PriorityClass::Realtime`], a
//!   telemetry-only stream is [`PriorityClass::BestEffort`] — plus an
//!   optional per-session quantum (the *weight* inside its class) and
//!   an optional per-step deadline budget in nanoseconds.
//! * [`Fleet::drive_epoch`] runs one scheduling epoch as a client of a
//!   shared [`Scheduler`] ([`Scheduler::dispatch_phased`] — one phase
//!   per priority class, served strictly high-to-low with
//!   work-stealing inside each class): every ready session is granted
//!   up to its quantum ([`SessionSpec::with_quantum`], defaulting to
//!   [`FleetConfig::quantum`]) out of the epoch's step capacity
//!   ([`FleetConfig::epoch_capacity`]). Grants are computed serially
//!   before any worker runs — classes high to low, slot order within a
//!   class — so when capacity runs out it is always the *lowest*
//!   classes that go unserved, and the outcome is identical for every
//!   worker count.
//! * Demand beyond a session's grant is **load-shed into degraded
//!   mode** rather than stalled: a session admitted with a
//!   `ShedPoint` has the excess pushed as in-band gap markers (an
//!   empty typed frame) directly at its [`crate::ConcealStage`] via
//!   [`Pipeline::push_at`] — skipping the whole upstream chain (the
//!   actual cost saving) and landing in the concealer's existing
//!   degradation policies, where every shed step is accounted
//!   field-exactly as [`crate::FaultTelemetry::degraded`]. Shed work
//!   is itself bounded per epoch ([`FleetConfig::shed_quantum`]) so a
//!   pathological backlog cannot monopolize a worker; the remainder —
//!   and everything queued by sessions without a shed point — stays
//!   backlogged, keeping the conservation ledger (accepted = stepped +
//!   shed + backlog) exact.
//! * A session with a deadline budget ([`SessionSpec::with_deadline_ns`])
//!   has every real step's wall time checked against it — the same
//!   measurement that feeds the `step_ns` histograms — and misses are
//!   accounted per class in [`EpochReport::by_class`], per session in
//!   [`SessionReport::deadline_misses`], and in the registry.
//!
//! The warm per-step path — ready-list scan, dispatch on one worker,
//! [`Pipeline::step`]/[`Pipeline::push_at`] on warm buffers, metric
//! recording — performs no heap allocation (proven by the crate's
//! counting-allocator test). With a multi-worker scheduler, epochs fan
//! out over scoped threads exactly like every other scheduler client.
//!
//! ## Observability
//!
//! [`Fleet::observed`] registers a fleet-level metric family under a
//! prefix (default contract used by the soak and bench: `serve`):
//!
//! | metric | kind | meaning |
//! |---|---|---|
//! | `sessions` | gauge | live sessions (high water = peak) |
//! | `admitted` / `evicted` | counter | session lifecycle totals |
//! | `epochs` | counter | scheduling epochs driven |
//! | `steps` | counter | real pipeline steps run |
//! | `emitted` | counter | frames that cleared a whole chain |
//! | `shed` | counter | oversubscribed steps shed into concealment |
//! | `rejected` | counter | demand rejected by backpressure |
//! | `deadline_misses` | counter | steps that ran past their session's budget |
//! | `step_ns` | histogram | per-step wall time (p99 = the bench's latency row) |
//! | `epoch_ns` | histogram | per-epoch wall time |
//!
//! plus a per-class family under `{prefix}.{class}.{metric}` (classes
//! are `realtime` / `interactive` / `best_effort`): `steps`, `shed`,
//! `deadline_misses` counters and a `step_ns` histogram each, so one
//! scrape answers "did the realtime class ever miss its budget" and
//! "which class absorbed the shedding" directly.
//!
//! Each admitted session is additionally instrumented as
//! `{prefix}.s{id}.{stage-index}.{stage}.{metric}` via
//! `Pipeline::instrument`, so one registry scrape sees the whole
//! fleet at both granularities. Every stopwatch reads
//! [`mindful_core::obs::clock`]. An unobserved fleet holds no handles,
//! records nothing and leaves its sessions uninstrumented, so their
//! per-stage stopwatches stay off too; when it also gives a session no
//! deadline budget, that session's per-step hot path reads **no
//! clock** at all. A budget adds two reads per step (the fleet's own
//! step stopwatch); an observed fleet adds two per step and two per
//! epoch, plus two per stage reached inside each instrumented
//! [`Pipeline::step`]. The crate's `clock_reads` test pins these
//! counts.

use std::collections::HashMap;
use std::num::{NonZeroU32, NonZeroU64, NonZeroUsize};

use mindful_core::obs::{clock, Counter, Gauge, Histogram, Registry};
use mindful_core::pool::{Scheduler, TaskSlot};

use crate::error::{PipelineError, Result};
use crate::frame::{Frame, FrameKind};
use crate::stage::{Pipeline, StageTelemetry};

/// Identifier of an admitted session, unique over the fleet's lifetime
/// (monotonic — ids are never reused, so a stale id fails loudly as
/// [`PipelineError::UnknownSession`] instead of touching a successor).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(u64);

impl SessionId {
    /// The raw id (what per-session metric prefixes embed as `s{id}`).
    #[must_use]
    pub(crate) fn raw(self) -> u64 {
        self.0
    }
}

impl core::fmt::Display for SessionId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A session's scheduling urgency: the application-level workload
/// classes of the paper's serving story, ordered most-urgent first.
///
/// [`Fleet::drive_epoch`] serves classes *strictly* high-to-low (one
/// dispatch phase per class), grants epoch capacity high-to-low, and
/// therefore sheds oversubscribed demand from the lowest class first.
/// The discriminant order is the serving order: `Realtime` before
/// `Interactive` before `BestEffort`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PriorityClass {
    /// Hard-deadline decode (e.g. motor decode at the ~500 µs
    /// per-sample application deadline): served first, never behind
    /// lower-class work.
    Realtime,
    /// Latency-sensitive but not deadline-bound (e.g. live monitoring
    /// dashboards).
    Interactive,
    /// Throughput-only traffic (e.g. bulk telemetry upload): first to
    /// be shed under oversubscription. The default for sessions that
    /// do not declare a class.
    #[default]
    BestEffort,
}

impl PriorityClass {
    /// Number of classes (sizes the per-class accounting arrays).
    pub const COUNT: usize = 3;

    /// Every class, in serving order (most urgent first).
    pub const ALL: [Self; Self::COUNT] = [Self::Realtime, Self::Interactive, Self::BestEffort];

    /// The class's index into per-class arrays ([`EpochReport::by_class`]),
    /// 0 = most urgent.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// The snake-case label used in per-class metric names
    /// (`{prefix}.{label}.{metric}`).
    #[must_use]
    pub(crate) fn label(self) -> &'static str {
        match self {
            Self::Realtime => "realtime",
            Self::Interactive => "interactive",
            Self::BestEffort => "best_effort",
        }
    }
}

impl core::fmt::Display for PriorityClass {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// Where an oversubscribed session sheds load: the chain index of its
/// concealment stage and the frame kind that stage consumes.
///
/// The fleet pushes an *empty* frame of `kind` — the pipeline's
/// in-band gap marker — directly at stage `stage` via
/// [`Pipeline::push_at`], so the upstream stages are skipped entirely
/// and the concealer degrades the step under its configured policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ShedPoint {
    /// Chain index of the concealment stage.
    pub(crate) stage: usize,
    /// The data kind that stage consumes (`Codes`, `Counts`, `Values`,
    /// or `Activations`).
    pub(crate) kind: FrameKind,
}

impl ShedPoint {
    /// The gap marker this shed point injects.
    fn marker(self) -> Frame<'static> {
        match self.kind {
            FrameKind::Codes => Frame::Codes(&[]),
            FrameKind::Counts => Frame::Counts(&[]),
            FrameKind::Values => Frame::Values(&[]),
            FrameKind::Activations => Frame::Activations(&[]),
            // Rejected at admission.
            _ => Frame::Empty,
        }
    }

    fn is_data_kind(self) -> bool {
        matches!(
            self.kind,
            FrameKind::Codes | FrameKind::Counts | FrameKind::Values | FrameKind::Activations
        )
    }
}

/// A session offered to [`Fleet::admit`]: an owned pipeline plus the
/// session's scheduling and degradation contract.
pub struct SessionSpec {
    pipeline: Pipeline,
    shed: Option<ShedPoint>,
    class: PriorityClass,
    quantum: Option<NonZeroU32>,
    deadline_ns: Option<u64>,
}

impl SessionSpec {
    /// A session around `pipeline` with no shed point (oversubscribed
    /// demand stays backlogged instead of degrading), best-effort
    /// class, the fleet's default quantum, and no deadline budget.
    #[must_use]
    pub fn new(pipeline: Pipeline) -> Self {
        Self {
            pipeline,
            shed: None,
            class: PriorityClass::default(),
            quantum: None,
            deadline_ns: None,
        }
    }

    /// Declares the session's shed point (builder style): demand beyond
    /// the per-epoch quantum is pushed as gap markers at chain index
    /// `stage`, which must be the session's [`crate::ConcealStage`]
    /// consuming `kind` frames.
    #[must_use]
    pub fn with_shed(mut self, stage: usize, kind: FrameKind) -> Self {
        self.shed = Some(ShedPoint { stage, kind });
        self
    }

    /// Declares the session's [`PriorityClass`] (builder style).
    #[must_use]
    pub fn with_class(mut self, class: PriorityClass) -> Self {
        self.class = class;
        self
    }

    /// Declares a per-session quantum — the session's scheduling
    /// *weight* within its class, overriding [`FleetConfig::quantum`]:
    /// each epoch grants the session up to this many real steps.
    #[must_use]
    pub fn with_quantum(mut self, quantum: NonZeroU32) -> Self {
        self.quantum = Some(quantum);
        self
    }

    /// Declares a per-step deadline budget in nanoseconds: every real
    /// step whose wall time exceeds it is accounted as a deadline miss
    /// (per class, per session, and in the registry). The measurement
    /// is the same one that feeds the `step_ns` histograms; declaring a
    /// budget forces step timing on even for unobserved fleets.
    #[must_use]
    pub fn with_deadline_ns(mut self, budget: u64) -> Self {
        self.deadline_ns = Some(budget);
        self
    }
}

/// Fleet sizing and fairness knobs.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Maximum concurrent live sessions; [`Fleet::admit`] beyond it
    /// fails with [`PipelineError::FleetSaturated`].
    pub capacity: NonZeroUsize,
    /// Default per-session step budget per epoch, used by sessions
    /// that declare no quantum of their own
    /// ([`SessionSpec::with_quantum`]). With unlimited
    /// [`FleetConfig::epoch_capacity`] this is also the starvation
    /// bound — a backlogged session always advances at least
    /// `min(backlog, quantum)` steps per epoch.
    pub quantum: NonZeroU32,
    /// Per-session backlog bound: [`Fleet::request`] accepts demand
    /// only up to this many queued steps and rejects (counts and
    /// returns) the rest — the backpressure contract.
    pub max_backlog: u32,
    /// Per-session bound on shed work per epoch: at most this many
    /// backlogged steps are converted to gap markers each
    /// [`Fleet::drive_epoch`], so one pathological backlog cannot
    /// monopolize a worker inside the shed loop. The remainder stays
    /// backlogged (the conservation ledger is unaffected).
    pub shed_quantum: NonZeroU32,
    /// Total real-step budget per epoch — the host's compute capacity
    /// per scheduling tick. Grants are taken from it classes
    /// high-to-low (slot order within a class), so when demand exceeds
    /// capacity it is the lowest classes that go unserved and shed.
    /// `None` (the default) grants every ready session its full
    /// quantum.
    pub epoch_capacity: Option<NonZeroU64>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            capacity: NonZeroUsize::new(4096).expect("nonzero"),
            quantum: NonZeroU32::new(32).expect("nonzero"),
            max_backlog: 256,
            shed_quantum: NonZeroU32::new(256).expect("nonzero"),
            epoch_capacity: None,
        }
    }
}

/// One priority class's slice of an [`EpochReport`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassReport {
    /// Sessions of this class that had demand this epoch.
    pub sessions: usize,
    /// Real pipeline steps run for this class.
    pub steps: u64,
    /// Oversubscribed steps shed into concealment for this class.
    pub shed: u64,
    /// Real steps that ran past their session's deadline budget.
    pub deadline_misses: u64,
    /// Sessions of this class that had demand but neither stepped nor
    /// shed (frozen-by-error sessions are *not* counted — an error is
    /// not starvation).
    pub starved: usize,
}

/// What one [`Fleet::drive_epoch`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochReport {
    /// Sessions that had demand this epoch.
    pub sessions: usize,
    /// Real pipeline steps run.
    pub steps: u64,
    /// Frames that cleared a whole chain.
    pub emitted: u64,
    /// Oversubscribed steps shed into concealment.
    pub shed: u64,
    /// Real steps that ran past their session's deadline budget.
    pub deadline_misses: u64,
    /// Sessions that had demand but advanced zero steps and shed
    /// nothing. Sessions frozen by a stage error this epoch are
    /// excluded — frozen-by-error is not starvation — so with
    /// unlimited capacity this is always zero; with a bounded
    /// [`FleetConfig::epoch_capacity`] it counts the (lowest-class,
    /// shed-point-less) sessions priority left unserved.
    pub starved: usize,
    /// The per-class breakdown, indexed by [`PriorityClass::index`].
    pub by_class: [ClassReport; PriorityClass::COUNT],
}

/// A per-session accounting snapshot ([`Fleet::peek`]) or final report
/// ([`Fleet::evict`]).
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// The session.
    pub id: SessionId,
    /// Real steps the fleet ran for this session.
    pub steps: u64,
    /// Frames that cleared the session's whole chain.
    pub emitted: u64,
    /// Steps shed into the session's concealment stage.
    pub shed: u64,
    /// Demand rejected by the session's backlog bound.
    pub rejected: u64,
    /// Real steps that ran past the session's deadline budget (always
    /// zero for sessions without one).
    pub deadline_misses: u64,
    /// Demand still queued.
    pub backlog: u32,
    /// Frames flushed out of the chain by the eviction drain (always 0
    /// in a [`Fleet::peek`] snapshot).
    pub flushed: u64,
    /// Per-stage counters, in chain order.
    pub telemetry: Vec<StageTelemetry>,
}

/// One live session's state inside its [`TaskSlot`].
struct SessionState {
    id: u64,
    pipeline: Pipeline,
    shed: Option<ShedPoint>,
    class: PriorityClass,
    /// Per-session quantum override (the weight inside the class).
    quantum: Option<NonZeroU32>,
    /// Per-step deadline budget in nanoseconds.
    deadline_ns: Option<u64>,
    backlog: u32,
    steps: u64,
    emitted: u64,
    shed_steps: u64,
    rejected: u64,
    deadline_misses: u64,
    /// This-epoch counters, reset by the ready scan. `epoch_grant` and
    /// `epoch_shed_grant` are the serially-precomputed allocations the
    /// worker closure executes — workers never make scheduling
    /// decisions, which is what keeps accounting worker-count
    /// invariant.
    epoch_grant: u32,
    epoch_shed_grant: u32,
    epoch_steps: u32,
    epoch_emitted: u32,
    epoch_shed: u32,
    epoch_misses: u32,
    /// A stage error freezes the session until it is evicted. The
    /// error itself is handed back through [`Fleet::drive_epoch`];
    /// `failed` keeps the freeze in force afterwards.
    error: Option<PipelineError>,
    failed: bool,
}

impl SessionState {
    fn report(&self, flushed: u64) -> SessionReport {
        SessionReport {
            id: SessionId(self.id),
            steps: self.steps,
            emitted: self.emitted,
            shed: self.shed_steps,
            rejected: self.rejected,
            deadline_misses: self.deadline_misses,
            backlog: self.backlog,
            flushed,
            telemetry: self.pipeline.telemetry(),
        }
    }
}

/// An observed fleet's registry wiring: the registry and prefix each
/// admitted session is instrumented under, plus the fleet-level
/// handles (the `{prefix}.{metric}` family).
#[derive(Debug)]
struct FleetObs<'a> {
    registry: &'a Registry,
    prefix: String,
    sessions: Gauge,
    admitted: Counter,
    evicted: Counter,
    epochs: Counter,
    steps: Counter,
    emitted: Counter,
    shed: Counter,
    rejected: Counter,
    deadline_misses: Counter,
    step_ns: Histogram,
    epoch_ns: Histogram,
    /// Per-class families, indexed by [`PriorityClass::index`].
    class_steps: [Counter; PriorityClass::COUNT],
    class_shed: [Counter; PriorityClass::COUNT],
    class_deadline_misses: [Counter; PriorityClass::COUNT],
    class_step_ns: [Histogram; PriorityClass::COUNT],
}

impl<'a> FleetObs<'a> {
    fn register(registry: &'a Registry, prefix: &str) -> Self {
        Self {
            registry,
            prefix: prefix.to_string(),
            sessions: registry.gauge(&format!("{prefix}.sessions")),
            admitted: registry.counter(&format!("{prefix}.admitted")),
            evicted: registry.counter(&format!("{prefix}.evicted")),
            epochs: registry.counter(&format!("{prefix}.epochs")),
            steps: registry.counter(&format!("{prefix}.steps")),
            emitted: registry.counter(&format!("{prefix}.emitted")),
            shed: registry.counter(&format!("{prefix}.shed")),
            rejected: registry.counter(&format!("{prefix}.rejected")),
            deadline_misses: registry.counter(&format!("{prefix}.deadline_misses")),
            step_ns: registry.histogram(&format!("{prefix}.step_ns")),
            epoch_ns: registry.histogram(&format!("{prefix}.epoch_ns")),
            class_steps: PriorityClass::ALL
                .map(|c| registry.counter(&format!("{prefix}.{c}.steps"))),
            class_shed: PriorityClass::ALL.map(|c| registry.counter(&format!("{prefix}.{c}.shed"))),
            class_deadline_misses: PriorityClass::ALL
                .map(|c| registry.counter(&format!("{prefix}.{c}.deadline_misses"))),
            class_step_ns: PriorityClass::ALL
                .map(|c| registry.histogram(&format!("{prefix}.{c}.step_ns"))),
        }
    }

    #[inline]
    fn record_step(&self, class: PriorityClass, nanos: u64) {
        self.step_ns.record(nanos);
        self.class_step_ns[class.index()].record(nanos);
    }
}

/// A dynamic multi-session serving fleet: a client of a shared
/// [`Scheduler`], owner of nothing but sessions.
///
/// See the module docs for the scheduling, backpressure, and
/// load-shedding contracts.
pub struct Fleet<'a> {
    scheduler: &'a Scheduler,
    config: FleetConfig,
    slots: Vec<TaskSlot<Option<SessionState>>>,
    /// Vacant slot indices (eviction leaves holes; admission refills).
    free: Vec<usize>,
    /// Slot index per live session id.
    index: HashMap<u64, usize>,
    /// Reused per-class ready lists (slot order within each class) —
    /// the warm path never reallocates them. Indexed by
    /// [`PriorityClass::index`]; each list is one dispatch phase.
    ready: [Vec<usize>; PriorityClass::COUNT],
    next_id: u64,
    epochs: u64,
    obs: Option<FleetObs<'a>>,
}

impl<'a> Fleet<'a> {
    /// An unobserved fleet scheduling onto `scheduler`.
    #[must_use]
    pub fn new(scheduler: &'a Scheduler, config: FleetConfig) -> Self {
        Self {
            scheduler,
            config,
            slots: Vec::new(),
            free: Vec::new(),
            index: HashMap::new(),
            ready: std::array::from_fn(|_| Vec::new()),
            next_id: 0,
            epochs: 0,
            obs: None,
        }
    }

    /// A fleet recording into `registry` under `prefix` (fleet metrics
    /// as `{prefix}.{metric}`, each admitted session instrumented under
    /// `{prefix}.s{id}`).
    #[must_use]
    pub fn observed(
        scheduler: &'a Scheduler,
        config: FleetConfig,
        registry: &'a Registry,
        prefix: &str,
    ) -> Self {
        let mut fleet = Self::new(scheduler, config);
        fleet.obs = Some(FleetObs::register(registry, prefix));
        fleet
    }

    /// Live session count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether no sessions are live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Scheduling epochs driven so far.
    #[must_use]
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Admits a session and returns its id.
    ///
    /// When the fleet is observed, the session's pipeline is
    /// instrumented under `{prefix}.s{id}` before its first step.
    ///
    /// # Panics
    ///
    /// Panics when the spec's shed point names a stage index outside
    /// the pipeline — like [`Pipeline::push_at`], shedding into a
    /// stage that does not exist is a caller bug.
    ///
    /// # Errors
    ///
    /// * [`PipelineError::FleetSaturated`] at
    ///   [`FleetConfig::capacity`] live sessions.
    /// * [`PipelineError::Empty`] for a stage-less pipeline.
    /// * [`PipelineError::UnexpectedFrame`] when the shed point's kind
    ///   is not a concealable data kind.
    pub fn admit(&mut self, spec: SessionSpec) -> Result<SessionId> {
        if self.index.len() >= self.config.capacity.get() {
            return Err(PipelineError::FleetSaturated {
                capacity: self.config.capacity.get(),
            });
        }
        if spec.pipeline.is_empty() {
            return Err(PipelineError::Empty);
        }
        if let Some(shed) = spec.shed {
            if !shed.is_data_kind() {
                return Err(PipelineError::UnexpectedFrame {
                    stage: "fleet-shed",
                    actual: shed.kind,
                });
            }
            assert!(
                shed.stage < spec.pipeline.len(),
                "shed point {} out of bounds for {} stages",
                shed.stage,
                spec.pipeline.len()
            );
        }
        let id = self.next_id;
        self.next_id += 1;
        let mut pipeline = spec.pipeline;
        if let Some(obs) = &self.obs {
            pipeline.instrument(obs.registry, &format!("{}.s{id}", obs.prefix));
        }
        let state = SessionState {
            id,
            pipeline,
            shed: spec.shed,
            class: spec.class,
            quantum: spec.quantum,
            deadline_ns: spec.deadline_ns,
            backlog: 0,
            steps: 0,
            emitted: 0,
            shed_steps: 0,
            rejected: 0,
            deadline_misses: 0,
            epoch_grant: 0,
            epoch_shed_grant: 0,
            epoch_steps: 0,
            epoch_emitted: 0,
            epoch_shed: 0,
            epoch_misses: 0,
            error: None,
            failed: false,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                *self.slots[slot].get_mut() = Some(state);
                slot
            }
            None => {
                self.slots.push(TaskSlot::new(Some(state)));
                self.slots.len() - 1
            }
        };
        self.index.insert(id, slot);
        if let Some(obs) = &self.obs {
            obs.admitted.increment();
            obs.sessions.set(self.index.len() as u64);
        }
        Ok(SessionId(id))
    }

    /// Queues `steps` of demand for a session, returning how many were
    /// accepted.
    ///
    /// Acceptance is capped so the session's backlog never exceeds
    /// [`FleetConfig::max_backlog`]; the remainder is rejected,
    /// counted (per session and in the `rejected` fleet counter), and
    /// reported back — the caller's backpressure signal.
    ///
    /// # Errors
    ///
    /// [`PipelineError::UnknownSession`] for an unknown or evicted id.
    pub fn request(&mut self, id: SessionId, steps: u32) -> Result<u32> {
        let slot = self.slot_of(id)?;
        let state = self.slots[slot]
            .get_mut()
            .as_mut()
            .expect("indexed slots hold a session");
        let room = self.config.max_backlog.saturating_sub(state.backlog);
        let accepted = steps.min(room);
        state.backlog += accepted;
        let rejected = u64::from(steps - accepted);
        state.rejected += rejected;
        if let Some(obs) = &self.obs {
            if rejected > 0 {
                obs.rejected.add(rejected);
            }
        }
        Ok(accepted)
    }

    /// Runs one scheduling epoch over every session with demand.
    ///
    /// The epoch has three strictly ordered parts:
    ///
    /// 1. **Grant** (serial): ready sessions are granted real steps —
    ///    classes high-to-low, slot order within a class — up to each
    ///    session's quantum ([`SessionSpec::with_quantum`], default
    ///    [`FleetConfig::quantum`]) and the remaining
    ///    [`FleetConfig::epoch_capacity`]. Backlog beyond the grant is
    ///    allotted shed work (bounded by [`FleetConfig::shed_quantum`])
    ///    for sessions with a `ShedPoint`.
    /// 2. **Serve** (parallel): one dispatch phase per class, highest
    ///    first ([`Scheduler::dispatch_phased`]) — lower-class work
    ///    never runs while a higher class has granted work pending,
    ///    and workers steal freely inside a class. Each step of a
    ///    session with a deadline budget is timed against it; the same
    ///    measurement feeds the `step_ns` histograms, and when neither
    ///    is needed (unobserved fleet, no budget) the fleet adds no
    ///    clock reads of its own around the step.
    /// 3. **Account** (serial): per-session, per-class, and fleet
    ///    totals — including deadline misses — land in the
    ///    [`EpochReport`] and the registry.
    ///
    /// Because grants are fixed before any worker runs, the epoch's
    /// accounting is identical for every worker count.
    ///
    /// # Errors
    ///
    /// Returns the first stage error in class-then-slot order. The
    /// erroring session is frozen (it runs no further steps and keeps
    /// its backlog) until [`Fleet::evict`] removes it; other sessions
    /// are unaffected, and the epoch's accounting still covers the
    /// steps that ran.
    pub fn drive_epoch(&mut self) -> Result<EpochReport> {
        // Ready scan: reset epoch counters, bucket ready sessions by
        // class (push order = slot order inside each class).
        for class_ready in &mut self.ready {
            class_ready.clear();
        }
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if let Some(state) = slot.get_mut() {
                state.epoch_grant = 0;
                state.epoch_shed_grant = 0;
                state.epoch_steps = 0;
                state.epoch_emitted = 0;
                state.epoch_shed = 0;
                state.epoch_misses = 0;
                if state.backlog > 0 && !state.failed {
                    self.ready[state.class.index()].push(i);
                }
            }
        }

        // Grant pass: classes high-to-low, slot order within a class.
        // Serial and deterministic — workers only ever execute the
        // grants computed here.
        let default_quantum = self.config.quantum;
        let shed_quantum = self.config.shed_quantum.get();
        let mut capacity = self.config.epoch_capacity.map(NonZeroU64::get);
        {
            let (slots, ready) = (&mut self.slots, &self.ready);
            for class_ready in ready {
                for &i in class_ready {
                    let state = slots[i]
                        .get_mut()
                        .as_mut()
                        .expect("ready slots hold a session");
                    let quantum = state.quantum.unwrap_or(default_quantum).get();
                    let want = state.backlog.min(quantum);
                    let grant = match capacity.as_mut() {
                        Some(cap) => {
                            let grant = want.min(u32::try_from(*cap).unwrap_or(u32::MAX));
                            *cap -= u64::from(grant);
                            grant
                        }
                        None => want,
                    };
                    state.epoch_grant = grant;
                    state.epoch_shed_grant = if state.shed.is_some() {
                        (state.backlog - grant).min(shed_quantum)
                    } else {
                        0
                    };
                }
            }
        }

        // Clock discipline (pinned by the `clock_reads` test): the epoch
        // stopwatch runs only for observed fleets; per-step stopwatches
        // also run for sessions with a deadline budget. On the
        // unobserved, budget-less hot path neither the fleet nor the
        // (uninstrumented) session pipeline reads a clock.
        let obs_on = self.obs.is_some();
        let obs = &self.obs;
        let epoch_start = obs_on.then(clock::now_ns);
        let phases: [&[usize]; PriorityClass::COUNT] =
            std::array::from_fn(|c| self.ready[c].as_slice());
        self.scheduler
            .dispatch_phased(&self.slots, &phases, |_, entry| {
                let Some(state) = entry.as_mut() else {
                    return;
                };
                let timed = obs_on || state.deadline_ns.is_some();
                let budget = state.deadline_ns.unwrap_or(u64::MAX);
                for _ in 0..state.epoch_grant {
                    let t = timed.then(clock::now_ns);
                    match state.pipeline.step() {
                        Ok(out) => {
                            if out.is_some() {
                                state.epoch_emitted += 1;
                            }
                        }
                        Err(e) => {
                            state.error = Some(e);
                            state.failed = true;
                            break;
                        }
                    }
                    if let Some(t) = t {
                        let nanos = clock::since_ns(t);
                        if let Some(obs) = obs {
                            obs.record_step(state.class, nanos);
                        }
                        if nanos > budget {
                            state.epoch_misses += 1;
                        }
                    }
                    state.epoch_steps += 1;
                    state.backlog -= 1;
                }
                if !state.failed && state.epoch_shed_grant > 0 {
                    let shed = state.shed.expect("shed grants require a shed point");
                    for _ in 0..state.epoch_shed_grant {
                        match state.pipeline.push_at(shed.stage, shed.marker()) {
                            Ok(out) => {
                                if out.is_some() {
                                    state.epoch_emitted += 1;
                                }
                            }
                            Err(e) => {
                                state.error = Some(e);
                                state.failed = true;
                                break;
                            }
                        }
                        state.epoch_shed += 1;
                        state.backlog -= 1;
                    }
                }
            });
        let epoch_nanos = epoch_start.map(clock::since_ns);
        self.epochs += 1;

        let mut report = EpochReport::default();
        let mut error = None;
        // Split the borrow: the ready lists are read-only here.
        let (slots, ready) = (&mut self.slots, &self.ready);
        for (ci, class_ready) in ready.iter().enumerate() {
            let class = &mut report.by_class[ci];
            class.sessions = class_ready.len();
            report.sessions += class_ready.len();
            for &i in class_ready {
                let state = slots[i]
                    .get_mut()
                    .as_mut()
                    .expect("ready slots hold a session");
                state.steps += u64::from(state.epoch_steps);
                state.emitted += u64::from(state.epoch_emitted);
                state.shed_steps += u64::from(state.epoch_shed);
                state.deadline_misses += u64::from(state.epoch_misses);
                class.steps += u64::from(state.epoch_steps);
                class.shed += u64::from(state.epoch_shed);
                class.deadline_misses += u64::from(state.epoch_misses);
                report.steps += u64::from(state.epoch_steps);
                report.emitted += u64::from(state.epoch_emitted);
                report.shed += u64::from(state.epoch_shed);
                report.deadline_misses += u64::from(state.epoch_misses);
                if state.epoch_steps == 0 && state.epoch_shed == 0 {
                    class.starved += 1;
                    report.starved += 1;
                }
                if error.is_none() && state.error.is_some() {
                    error = state.error.take();
                }
            }
        }
        if let Some(obs) = &self.obs {
            obs.epochs.increment();
            obs.steps.add(report.steps);
            obs.emitted.add(report.emitted);
            obs.shed.add(report.shed);
            obs.deadline_misses.add(report.deadline_misses);
            for (ci, class) in report.by_class.iter().enumerate() {
                obs.class_steps[ci].add(class.steps);
                obs.class_shed[ci].add(class.shed);
                obs.class_deadline_misses[ci].add(class.deadline_misses);
            }
            if let Some(nanos) = epoch_nanos {
                obs.epoch_ns.record(nanos);
            }
        }
        match error {
            Some(e) => Err(e),
            None => Ok(report),
        }
    }

    /// A point-in-time accounting snapshot of a live session
    /// (`flushed` is always 0 — nothing is drained).
    ///
    /// # Errors
    ///
    /// [`PipelineError::UnknownSession`] for an unknown or evicted id.
    pub fn peek(&mut self, id: SessionId) -> Result<SessionReport> {
        let slot = self.slot_of(id)?;
        let state = self.slots[slot]
            .get_mut()
            .as_ref()
            .expect("indexed slots hold a session");
        Ok(state.report(0))
    }

    /// Evicts a session: removes it from scheduling, drains its
    /// pipeline end-of-stream ([`Pipeline::finish`] — windows mid-fill
    /// flush their partial contents), and returns the final report
    /// with the drain's flushed-frame count.
    ///
    /// The session is removed even when the drain fails; a queued
    /// backlog is simply dropped (it was never run, and the `backlog`
    /// field of the report records how much).
    ///
    /// # Errors
    ///
    /// * [`PipelineError::UnknownSession`] for an unknown or evicted
    ///   id.
    /// * The first stage error raised by the drain (the session is
    ///   still removed).
    pub fn evict(&mut self, id: SessionId) -> Result<SessionReport> {
        let slot = self.slot_of(id)?;
        let mut state = self.slots[slot]
            .get_mut()
            .take()
            .expect("indexed slots hold a session");
        self.index.remove(&id.raw());
        self.free.push(slot);
        if let Some(obs) = &self.obs {
            obs.evicted.increment();
            obs.sessions.set(self.index.len() as u64);
        }
        let flushed = state.pipeline.finish()?;
        Ok(state.report(flushed))
    }

    fn slot_of(&self, id: SessionId) -> Result<usize> {
        self.index
            .get(&id.raw())
            .copied()
            .ok_or(PipelineError::UnknownSession { id: id.raw() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{ConcealStage, DegradePolicy};
    use crate::stages::{BinStage, IntentSchedule, PacketizeStage, SenseStage};

    fn scheduler(workers: usize) -> Scheduler {
        Scheduler::new(NonZeroUsize::new(workers).unwrap())
    }

    fn sense_chain(seed: u64) -> Pipeline {
        Pipeline::new()
            .with_stage(SenseStage::new(2, 16, 10, seed, IntentSchedule::FigureEight).unwrap())
            .with_stage(PacketizeStage::new(10).unwrap())
    }

    /// sense → conceal chain whose conceal stage (index 1) is the shed
    /// point. A 2×2 grid senses 4 channels.
    fn sheddable_chain(seed: u64) -> SessionSpec {
        let pipeline = Pipeline::new()
            .with_stage(SenseStage::new(2, 16, 10, seed, IntentSchedule::FigureEight).unwrap())
            .with_stage(ConcealStage::new(4, DegradePolicy::HoldLast).unwrap());
        SessionSpec::new(pipeline).with_shed(1, FrameKind::Codes)
    }

    /// Source stage emitting a fixed-width events frame every step
    /// (what a [`BinStage`] consumes).
    struct EventSource(usize);

    impl crate::Stage for EventSource {
        fn name(&self) -> &'static str {
            "events"
        }

        fn process(
            &mut self,
            _input: &Frame<'_>,
            out: &mut crate::FrameBuf,
        ) -> Result<crate::StageOutput> {
            let events = out.begin_events();
            events.extend((0..self.0).map(|c| c.is_multiple_of(2)));
            Ok(crate::StageOutput::Emitted)
        }
    }

    fn config(quantum: u32, backlog: u32) -> FleetConfig {
        FleetConfig {
            quantum: NonZeroU32::new(quantum).unwrap(),
            max_backlog: backlog,
            ..FleetConfig::default()
        }
    }

    #[test]
    fn single_session_fleet_matches_a_serial_step_loop() {
        let mut baseline = sense_chain(7);
        let mut emitted = 0;
        for _ in 0..24 {
            if baseline.step().unwrap().is_some() {
                emitted += 1;
            }
        }
        let baseline = baseline.telemetry();

        for workers in [1, 64] {
            let sched = scheduler(workers);
            let mut fleet = Fleet::new(&sched, config(8, 64));
            let id = fleet.admit(SessionSpec::new(sense_chain(7))).unwrap();
            assert_eq!(fleet.request(id, 24).unwrap(), 24);
            while fleet.peek(id).unwrap().backlog > 0 {
                fleet.drive_epoch().unwrap();
            }
            let report = fleet.evict(id).unwrap();

            assert_eq!(report.steps, 24, "{workers} workers");
            assert_eq!(report.emitted, emitted);
            assert_eq!(report.telemetry.len(), baseline.len());
            for (a, b) in report.telemetry.iter().zip(&baseline) {
                assert_eq!(a.name, b.name);
                assert_eq!(a.frames_in, b.frames_in);
                assert_eq!(a.frames_out, b.frames_out);
                assert_eq!(a.bytes_out, b.bytes_out, "byte-identical wire output");
            }
        }
    }

    #[test]
    fn admission_is_bounded_and_ids_are_never_reused() {
        let sched = scheduler(1);
        let mut fleet = Fleet::new(
            &sched,
            FleetConfig {
                capacity: NonZeroUsize::new(2).unwrap(),
                ..FleetConfig::default()
            },
        );
        let a = fleet.admit(SessionSpec::new(sense_chain(1))).unwrap();
        let b = fleet.admit(SessionSpec::new(sense_chain(2))).unwrap();
        assert_ne!(a, b);
        assert!(matches!(
            fleet.admit(SessionSpec::new(sense_chain(3))),
            Err(PipelineError::FleetSaturated { capacity: 2 })
        ));
        fleet.evict(a).unwrap();
        let c = fleet.admit(SessionSpec::new(sense_chain(3))).unwrap();
        assert_ne!(c, a, "slot is reused, id is not");
        assert!(matches!(
            fleet.peek(a),
            Err(PipelineError::UnknownSession { .. })
        ));
        assert_eq!(fleet.len(), 2);
    }

    #[test]
    fn admission_validates_the_spec() {
        let sched = scheduler(1);
        let mut fleet = Fleet::new(&sched, FleetConfig::default());
        assert!(matches!(
            fleet.admit(SessionSpec::new(Pipeline::new())),
            Err(PipelineError::Empty)
        ));
        assert!(matches!(
            fleet.admit(SessionSpec::new(sense_chain(1)).with_shed(1, FrameKind::Bytes)),
            Err(PipelineError::UnexpectedFrame {
                stage: "fleet-shed",
                ..
            })
        ));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = fleet.admit(SessionSpec::new(sense_chain(1)).with_shed(9, FrameKind::Codes));
        }));
        assert!(result.is_err(), "out-of-bounds shed point is a caller bug");
    }

    #[test]
    fn backpressure_caps_the_backlog_and_counts_rejections() {
        let sched = scheduler(1);
        let mut fleet = Fleet::new(&sched, config(4, 10));
        let id = fleet.admit(SessionSpec::new(sense_chain(5))).unwrap();
        assert_eq!(fleet.request(id, 6).unwrap(), 6);
        assert_eq!(fleet.request(id, 6).unwrap(), 4, "only room for 4 more");
        assert_eq!(fleet.request(id, 6).unwrap(), 0, "backlog full");
        let report = fleet.peek(id).unwrap();
        assert_eq!(report.backlog, 10);
        assert_eq!(report.rejected, 8);
        // Draining restores room.
        fleet.drive_epoch().unwrap();
        assert_eq!(fleet.peek(id).unwrap().backlog, 6);
        assert_eq!(fleet.request(id, 100).unwrap(), 4);
    }

    #[test]
    fn every_backlogged_session_advances_each_epoch() {
        // 32 workers is more workers than sessions; an empty fleet
        // drives to an all-zero report.
        for (workers, sessions) in [(1, 17), (4, 17), (32, 17), (8, 0)] {
            let sched = scheduler(workers);
            let mut fleet = Fleet::new(&sched, config(2, 64));
            let ids: Vec<SessionId> = (0..sessions)
                .map(|s| fleet.admit(SessionSpec::new(sense_chain(s))).unwrap())
                .collect();
            for &id in &ids {
                fleet.request(id, 10).unwrap();
            }
            let before: Vec<u64> = ids
                .iter()
                .map(|&id| fleet.peek(id).unwrap().steps)
                .collect();
            let report = fleet.drive_epoch().unwrap();
            if sessions == 0 {
                assert_eq!(report, EpochReport::default());
            }
            assert_eq!(report.sessions, ids.len());
            assert_eq!(report.starved, 0, "{workers} workers");
            assert_eq!(report.steps, sessions * 2, "quantum steps each");
            for (&id, &b) in ids.iter().zip(&before) {
                let after = fleet.peek(id).unwrap().steps;
                assert_eq!(after, b + 2, "fair quantum for {id}");
            }
        }
    }

    #[test]
    fn oversubscription_sheds_into_concealment_with_exact_accounting() {
        let sched = scheduler(2);
        // Quantum 3 but backlog up to 10: the remainder must shed.
        let mut fleet = Fleet::new(&sched, config(3, 10));
        let id = fleet.admit(sheddable_chain(11)).unwrap();
        let plain = fleet.admit(SessionSpec::new(sense_chain(12))).unwrap();
        fleet.request(id, 10).unwrap();
        fleet.request(plain, 10).unwrap();
        let report = fleet.drive_epoch().unwrap();
        assert_eq!(report.steps, 6, "3 real steps each");
        assert_eq!(report.shed, 7, "sheddable session degrades its rest");

        let shed_report = fleet.peek(id).unwrap();
        assert_eq!(shed_report.steps, 3);
        assert_eq!(shed_report.shed, 7);
        assert_eq!(shed_report.backlog, 0, "shedding clears the backlog");
        // Field-exact: every shed step is a concealed (degraded) frame
        // in the conceal stage's own telemetry — no other fault field
        // moves.
        let conceal = shed_report.telemetry.last().unwrap();
        let faults = conceal.faults.expect("conceal stage is fault-aware");
        assert_eq!(faults.degraded, 7);
        assert_eq!(faults.quarantined, 0);
        assert_eq!(faults.lost, 0);
        // The sense stage never ran the shed steps: real steps only.
        assert_eq!(shed_report.telemetry[0].frames_in, 3);
        assert_eq!(conceal.frames_in, 10, "3 real + 7 shed");

        // The plain session keeps its remainder backlogged instead.
        let plain_report = fleet.peek(plain).unwrap();
        assert_eq!(plain_report.steps, 3);
        assert_eq!(plain_report.shed, 0);
        assert_eq!(plain_report.backlog, 7);
    }

    #[test]
    fn eviction_mid_drain_flushes_partial_windows() {
        let sched = scheduler(1);
        let mut fleet = Fleet::new(&sched, config(8, 64));
        // events → bin(4): 6 steps leave 2 frames mid-window.
        let pipeline = Pipeline::new()
            .with_stage(EventSource(16))
            .with_stage(BinStage::new(16, 4).unwrap());
        let id = fleet.admit(SessionSpec::new(pipeline)).unwrap();
        fleet.request(id, 6).unwrap();
        fleet.drive_epoch().unwrap();
        let report = fleet.evict(id).unwrap();
        assert_eq!(report.steps, 6);
        assert_eq!(report.emitted, 1, "one full window emitted live");
        assert_eq!(report.flushed, 1, "the mid-fill window drains on evict");
        let bin = report.telemetry.last().unwrap();
        assert_eq!(bin.frames_out, 2, "live window + flushed partial");
    }

    #[test]
    fn a_failing_session_freezes_without_stalling_the_fleet() {
        let sched = scheduler(1);
        let mut fleet = Fleet::new(&sched, config(4, 64));
        // Conceal alone consumes its own gap predictions... but a
        // width-mismatched conceal fails on the first sensed frame.
        let bad = Pipeline::new()
            .with_stage(SenseStage::new(2, 16, 10, 1, IntentSchedule::FigureEight).unwrap())
            .with_stage(ConcealStage::new(8, DegradePolicy::ZeroFill).unwrap());
        let bad_id = fleet.admit(SessionSpec::new(bad)).unwrap();
        let good_id = fleet.admit(SessionSpec::new(sense_chain(2))).unwrap();
        fleet.request(bad_id, 4).unwrap();
        fleet.request(good_id, 4).unwrap();
        assert!(
            fleet.drive_epoch().is_err(),
            "first epoch surfaces the error"
        );
        assert_eq!(
            fleet.peek(good_id).unwrap().steps,
            4,
            "healthy session still ran its quantum"
        );
        // The frozen session no longer schedules; the fleet stays live.
        fleet.request(good_id, 4).unwrap();
        let report = fleet.drive_epoch().unwrap();
        assert_eq!(report.sessions, 1);
        assert_eq!(fleet.peek(bad_id).unwrap().steps, 0);
        // Eviction drains what it can and removes the session either way.
        let _ = fleet.evict(bad_id);
        assert_eq!(fleet.len(), 1);
    }

    #[test]
    fn fleet_metrics_land_under_the_prefix() {
        let sched = scheduler(1);
        let registry = Registry::new();
        let mut fleet = Fleet::observed(&sched, config(2, 8), &registry, "serve");
        let id = fleet.admit(sheddable_chain(9)).unwrap();
        fleet.request(id, 8).unwrap();
        fleet.request(id, 8).unwrap(); // 8 rejected
        fleet.drive_epoch().unwrap();
        fleet.evict(id).unwrap();

        let snap = registry.snapshot();
        assert_eq!(snap.counter("serve.admitted"), Some(1));
        assert_eq!(snap.counter("serve.evicted"), Some(1));
        assert_eq!(snap.counter("serve.epochs"), Some(1));
        assert_eq!(snap.counter("serve.steps"), Some(2));
        assert_eq!(snap.counter("serve.shed"), Some(6));
        assert_eq!(snap.counter("serve.rejected"), Some(8));
        let (live, peak) = snap.gauge("serve.sessions").unwrap();
        assert_eq!(live, 0);
        assert_eq!(peak, 1);
        let steps = snap.histogram("serve.step_ns").unwrap();
        assert_eq!(steps.count, 2, "one sample per real step");
        assert_eq!(snap.counter("serve.deadline_misses"), Some(0));
        // Per-class rows: the session declared no class, so all of
        // its work lands under the best-effort default and the
        // other classes stay at zero.
        assert_eq!(snap.counter("serve.best_effort.steps"), Some(2));
        assert_eq!(snap.counter("serve.best_effort.shed"), Some(6));
        assert_eq!(snap.counter("serve.best_effort.deadline_misses"), Some(0));
        let be_steps = snap.histogram("serve.best_effort.step_ns").unwrap();
        assert_eq!(be_steps.count, 2);
        assert_eq!(snap.counter("serve.realtime.steps"), Some(0));
        assert_eq!(snap.counter("serve.realtime.shed"), Some(0));
        assert_eq!(snap.histogram("serve.realtime.step_ns").unwrap().count, 0);
        assert_eq!(snap.counter("serve.interactive.steps"), Some(0));
        // Per-session prefix: the sense stage of session 0.
        assert_eq!(snap.counter("serve.s0.0.sense.frames_in"), Some(2));
        // Shed steps surface field-exactly on the session's conceal
        // gauges.
        let (degraded, _) = snap.gauge("serve.s0.1.conceal.faults.degraded").unwrap();
        assert_eq!(degraded, 6);
    }

    #[test]
    fn multi_worker_epochs_match_serial_accounting() {
        let run = |workers: usize| {
            let sched = scheduler(workers);
            let mut fleet = Fleet::new(&sched, config(4, 64));
            let ids: Vec<SessionId> = (0..13)
                .map(|s| fleet.admit(sheddable_chain(100 + s)).unwrap())
                .collect();
            for &id in &ids {
                fleet.request(id, 7).unwrap();
            }
            fleet.drive_epoch().unwrap();
            fleet.drive_epoch().unwrap();
            ids.iter()
                .map(|&id| {
                    let r = fleet.peek(id).unwrap();
                    (
                        r.steps,
                        r.emitted,
                        r.shed,
                        r.telemetry.last().unwrap().faults.unwrap().degraded,
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(4), "scheduling never changes the outputs");
    }

    #[test]
    fn higher_classes_are_served_strictly_first_under_epoch_capacity() {
        let sched = scheduler(2);
        let mut fleet = Fleet::new(
            &sched,
            FleetConfig {
                quantum: NonZeroU32::new(4).unwrap(),
                max_backlog: 64,
                epoch_capacity: NonZeroU64::new(4),
                ..FleetConfig::default()
            },
        );
        let rt = fleet
            .admit(SessionSpec::new(sense_chain(1)).with_class(PriorityClass::Realtime))
            .unwrap();
        let be_shed = fleet.admit(sheddable_chain(2)).unwrap();
        let be_plain = fleet.admit(SessionSpec::new(sense_chain(3))).unwrap();
        fleet.request(rt, 8).unwrap();
        fleet.request(be_shed, 8).unwrap();
        fleet.request(be_plain, 8).unwrap();

        // Epoch 1: the whole capacity goes to realtime; best-effort
        // runs zero real steps — the sheddable one degrades, the plain
        // one starves.
        let report = fleet.drive_epoch().unwrap();
        assert_eq!(report.sessions, 3);
        assert_eq!(report.by_class[PriorityClass::Realtime.index()].steps, 4);
        let be = report.by_class[PriorityClass::BestEffort.index()];
        assert_eq!(be.sessions, 2);
        assert_eq!(
            be.steps, 0,
            "no lower-class step while realtime is backlogged"
        );
        assert_eq!(be.shed, 8, "shed falls entirely on the lowest class");
        assert_eq!(be.starved, 1, "the unsheddable best-effort session starves");
        assert_eq!(report.steps, 4);
        assert_eq!(report.shed, 8);

        // Epoch 2: realtime still holds the capacity.
        let report = fleet.drive_epoch().unwrap();
        assert_eq!(report.by_class[PriorityClass::Realtime.index()].steps, 4);
        assert_eq!(report.by_class[PriorityClass::BestEffort.index()].steps, 0);
        assert_eq!(fleet.peek(rt).unwrap().backlog, 0);

        // Epoch 3: realtime is drained, so capacity flows down.
        let report = fleet.drive_epoch().unwrap();
        assert_eq!(report.by_class[PriorityClass::Realtime.index()].sessions, 0);
        assert_eq!(report.by_class[PriorityClass::BestEffort.index()].steps, 4);
        assert_eq!(fleet.peek(be_plain).unwrap().backlog, 4);
    }

    #[test]
    fn per_session_quanta_weight_service_within_a_class() {
        let sched = scheduler(2);
        let mut fleet = Fleet::new(&sched, config(3, 64));
        let light = fleet
            .admit(
                SessionSpec::new(sense_chain(1))
                    .with_class(PriorityClass::Interactive)
                    .with_quantum(NonZeroU32::new(1).unwrap()),
            )
            .unwrap();
        let heavy = fleet
            .admit(
                SessionSpec::new(sense_chain(2))
                    .with_class(PriorityClass::Interactive)
                    .with_quantum(NonZeroU32::new(5).unwrap()),
            )
            .unwrap();
        let default = fleet
            .admit(SessionSpec::new(sense_chain(3)).with_class(PriorityClass::Interactive))
            .unwrap();
        for id in [light, heavy, default] {
            fleet.request(id, 10).unwrap();
        }
        let report = fleet.drive_epoch().unwrap();
        assert_eq!(fleet.peek(light).unwrap().steps, 1, "declared weight 1");
        assert_eq!(fleet.peek(heavy).unwrap().steps, 5, "declared weight 5");
        assert_eq!(fleet.peek(default).unwrap().steps, 3, "fleet default");
        assert_eq!(report.by_class[PriorityClass::Interactive.index()].steps, 9);
        assert_eq!(report.starved, 0);
    }

    #[test]
    fn deadline_budgets_count_misses_per_class_without_obs() {
        // An unobserved fleet: only deadline budgets force step timing.
        let sched = scheduler(1);
        let mut fleet = Fleet::new(&sched, config(8, 64));
        let strict = fleet
            .admit(
                SessionSpec::new(sense_chain(1))
                    .with_class(PriorityClass::Realtime)
                    .with_deadline_ns(0),
            )
            .unwrap();
        let lax = fleet
            .admit(
                SessionSpec::new(sense_chain(2))
                    .with_class(PriorityClass::Interactive)
                    .with_deadline_ns(u64::MAX),
            )
            .unwrap();
        let unbudgeted = fleet.admit(SessionSpec::new(sense_chain(3))).unwrap();
        for id in [strict, lax, unbudgeted] {
            fleet.request(id, 5).unwrap();
        }
        let report = fleet.drive_epoch().unwrap();
        assert_eq!(report.steps, 15);
        assert_eq!(report.deadline_misses, 5, "a zero budget misses every step");
        assert_eq!(
            report.by_class[PriorityClass::Realtime.index()].deadline_misses,
            5
        );
        assert_eq!(
            report.by_class[PriorityClass::Interactive.index()].deadline_misses,
            0
        );
        assert_eq!(
            report.by_class[PriorityClass::BestEffort.index()].deadline_misses,
            0
        );
        assert_eq!(fleet.peek(strict).unwrap().deadline_misses, 5);
        assert_eq!(fleet.peek(lax).unwrap().deadline_misses, 0);
        let evicted = fleet.evict(strict).unwrap();
        assert_eq!(evicted.deadline_misses, 5);
    }

    #[test]
    fn shed_work_is_bounded_per_epoch_with_an_exact_ledger() {
        let sched = scheduler(1);
        let mut fleet = Fleet::new(
            &sched,
            FleetConfig {
                quantum: NonZeroU32::new(2).unwrap(),
                max_backlog: 64,
                shed_quantum: NonZeroU32::new(3).unwrap(),
                ..FleetConfig::default()
            },
        );
        let id = fleet.admit(sheddable_chain(7)).unwrap();
        let accepted = fleet.request(id, 20).unwrap();
        assert_eq!(accepted, 20);
        let mut total_steps = 0;
        let mut total_shed = 0;
        let mut epochs = 0;
        while fleet.peek(id).unwrap().backlog > 0 {
            let report = fleet.drive_epoch().unwrap();
            assert!(report.shed <= 3, "shed quantum bounds each epoch");
            total_steps += report.steps;
            total_shed += report.shed;
            epochs += 1;
            // Conservation holds at every epoch boundary.
            let peek = fleet.peek(id).unwrap();
            assert_eq!(
                total_steps + total_shed + u64::from(peek.backlog),
                u64::from(accepted)
            );
            assert!(epochs <= 20, "the backlog must drain");
        }
        assert_eq!(epochs, 4, "draining 5 per epoch (2 real + 3 shed)");
        assert_eq!(total_steps, 8);
        assert_eq!(total_shed, 12);
        let report = fleet.evict(id).unwrap();
        assert_eq!(report.steps, 8);
        assert_eq!(report.shed, 12);
        let faults = report.telemetry.last().unwrap().faults.unwrap();
        assert_eq!(faults.degraded, 12, "every shed step concealed, none lost");
    }
}
