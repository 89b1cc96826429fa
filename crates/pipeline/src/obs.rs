//! Registry instrumentation for pipeline stages.
//!
//! [`crate::Pipeline::with_instrumentation`] registers one metric
//! family per stage in a [`mindful_core::obs::Registry`] and stores the
//! returned handles in the stage's slot; the pipeline then times every stage
//! call and records into them. Registration is the only allocating
//! part — recording is relaxed atomics, so the pipeline's
//! zero-allocation guarantee holds for instrumented runs (proven by
//! the crate's counting-allocator test).
//!
//! The metric name table lives on that method's documentation.
//!
//! The counters, gauge and histogram record the same classified step
//! as [`crate::StageTelemetry`] (the driver classifies it once), so a
//! scrape of a pipeline instrumented before its first step equals its
//! telemetry field for field. An uninstrumented pipeline holds no
//! handles, records nothing here, reads no clock and asks no stage for
//! a snapshot while it steps.

use mindful_core::obs::{Counter, Gauge, Histogram, Registry};

use crate::fault::FaultTelemetry;
use crate::secure::SecureTelemetry;
use crate::stage::{Stage, StepRecord};

/// Per-field gauges mirroring a stage's [`FaultTelemetry`] snapshot.
#[derive(Debug, Clone)]
struct FaultGauges {
    injected: Gauge,
    detected: Gauge,
    recovered: Gauge,
    lost: Gauge,
    degraded: Gauge,
    quarantined: Gauge,
    naks: Gauge,
    max_gap: Gauge,
    recovery_steps: Gauge,
}

impl FaultGauges {
    fn register(registry: &Registry, base: &str) -> Self {
        Self {
            injected: registry.gauge(&format!("{base}.injected")),
            detected: registry.gauge(&format!("{base}.detected")),
            recovered: registry.gauge(&format!("{base}.recovered")),
            lost: registry.gauge(&format!("{base}.lost")),
            degraded: registry.gauge(&format!("{base}.degraded")),
            quarantined: registry.gauge(&format!("{base}.quarantined")),
            naks: registry.gauge(&format!("{base}.naks")),
            max_gap: registry.gauge(&format!("{base}.max_gap")),
            recovery_steps: registry.gauge(&format!("{base}.recovery_steps")),
        }
    }

    fn set(&self, t: &FaultTelemetry) {
        self.injected.set(t.injected);
        self.detected.set(t.detected);
        self.recovered.set(t.recovered);
        self.lost.set(t.lost);
        self.degraded.set(t.degraded);
        self.quarantined.set(t.quarantined);
        self.naks.set(t.naks);
        self.max_gap.set(t.max_gap);
        self.recovery_steps.set(t.recovery_steps);
    }
}

/// Per-field gauges mirroring a stage's [`SecureTelemetry`] snapshot,
/// named by the canonical leaves in [`mindful_core::obs::names`].
#[derive(Debug, Clone)]
struct SecureGauges {
    sealed: Gauge,
    accepted: Gauge,
    rejected_auth: Gauge,
    replayed: Gauge,
    stale: Gauge,
    firewalled: Gauge,
    coherence_ppm: Gauge,
}

impl SecureGauges {
    fn register(registry: &Registry, base: &str) -> Self {
        use mindful_core::obs::names;
        let gauge = |leaf: &str| registry.gauge(&format!("{base}.{leaf}"));
        Self {
            sealed: gauge(names::FRAMES_SEALED),
            accepted: gauge(names::FRAMES_ACCEPTED),
            rejected_auth: gauge(names::FRAMES_REJECTED_AUTH),
            replayed: gauge(names::FRAMES_REPLAYED),
            stale: gauge(names::FRAMES_STALE),
            firewalled: gauge(names::FRAMES_FIREWALLED),
            coherence_ppm: gauge(names::COHERENCE_PPM),
        }
    }

    fn set(&self, t: &SecureTelemetry) {
        self.sealed.set(t.sealed);
        self.accepted.set(t.accepted);
        self.rejected_auth.set(t.rejected_auth);
        self.replayed.set(t.replayed);
        self.stale.set(t.stale);
        self.firewalled.set(t.firewalled);
        self.coherence_ppm.set(t.coherence_ppm);
    }
}

/// Registry handles for one instrumented stage slot.
///
/// Registered once by [`crate::Pipeline::instrument`]; every recording
/// method is lock-free and allocation-free.
#[derive(Debug, Clone)]
pub(crate) struct SlotObs {
    frames_in: Counter,
    frames_out: Counter,
    bytes_out: Counter,
    buffer_bytes: Gauge,
    latency_ns: Histogram,
    faults: Option<FaultGauges>,
    secure: Option<SecureGauges>,
}

impl SlotObs {
    /// Registers the stage's metric family under
    /// `{prefix}.{index}.{name}`. `fault_aware` stages additionally get
    /// the `faults.*` gauge set, `secure_aware` stages the `secure.*`
    /// set.
    pub(crate) fn register(
        registry: &Registry,
        prefix: &str,
        index: usize,
        name: &str,
        fault_aware: bool,
        secure_aware: bool,
    ) -> Self {
        let base = format!("{prefix}.{index}.{name}");
        Self {
            frames_in: registry.counter(&format!("{base}.frames_in")),
            frames_out: registry.counter(&format!("{base}.frames_out")),
            bytes_out: registry.counter(&format!("{base}.bytes_out")),
            buffer_bytes: registry.gauge(&format!("{base}.buffer_bytes")),
            latency_ns: registry.histogram(&format!("{base}.latency_ns")),
            faults: fault_aware.then(|| FaultGauges::register(registry, &format!("{base}.faults"))),
            secure: secure_aware
                .then(|| SecureGauges::register(registry, &format!("{base}.secure"))),
        }
    }

    /// Records one counted step, classified by the driver.
    #[inline]
    pub(crate) fn record(&self, step: &StepRecord) {
        if step.input {
            self.frames_in.increment();
        }
        if step.emitted {
            self.frames_out.increment();
        }
        if step.wire_bytes > 0 {
            self.bytes_out.add(step.wire_bytes);
        }
        self.buffer_bytes.set(step.buffer_bytes as u64);
        self.latency_ns.record(step.elapsed_ns);
    }

    /// Mirrors `stage`'s current fault and security snapshots into the
    /// `faults.*` and `secure.*` gauges. A stage without a gauge set is
    /// not asked for that snapshot.
    #[inline]
    pub(crate) fn record_snapshots(&self, stage: &dyn Stage) {
        if let Some(gauges) = &self.faults {
            if let Some(t) = stage.fault_telemetry() {
                gauges.set(&t);
            }
        }
        if let Some(gauges) = &self.secure {
            if let Some(t) = stage.secure_telemetry() {
                gauges.set(&t);
            }
        }
    }
}
