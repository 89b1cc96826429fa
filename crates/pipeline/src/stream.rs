//! Fanning independent streams over a caller's scheduler.
//!
//! Host-side serving runs many implant streams at once (one per
//! patient-device link). Each stream gets its own [`Pipeline`] built by
//! a caller-supplied factory, and [`StreamSet::drive`] runs the set as
//! a *client* of the [`Scheduler`] it is handed — it owns pipelines,
//! never workers. Dispatch is the deterministic, order-preserving
//! chunked [`Scheduler::map_init`], and each stream comes back with its
//! per-stage telemetry. For dynamic admission, eviction, backpressure,
//! and load shedding over the same scheduler, see the fleet layer
//! ([`crate::serve`]), which generalizes this set to heterogeneous
//! sessions.

use std::sync::Mutex;

use mindful_core::pool::Scheduler;

use crate::error::Result;
use crate::stage::{Pipeline, StageTelemetry};

/// The outcome of driving one stream for one [`StreamSet::drive`].
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// Stream index (`0..streams`).
    pub stream: usize,
    /// Steps driven.
    pub steps: u64,
    /// Frames that made it through the whole chain.
    pub emitted: u64,
    /// Per-stage counters, in chain order.
    pub telemetry: Vec<StageTelemetry>,
}

/// Drives one pipeline for `steps` steps and snapshots its counters.
fn drive_one(stream: usize, pipeline: &mut Pipeline, steps: usize) -> Result<StreamReport> {
    let mut emitted = 0_u64;
    for _ in 0..steps {
        if pipeline.step()?.is_some() {
            emitted += 1;
        }
    }
    Ok(StreamReport {
        stream,
        steps: steps as u64,
        emitted,
        telemetry: pipeline.telemetry(),
    })
}

/// A persistent set of streams: build the pipelines once, then
/// [`StreamSet::drive`] them repeatedly.
///
/// This is the steady-state serving shape — after the first drive every
/// pipeline is warm (buffers sized, workspaces grown), so subsequent
/// drives stream frames without re-paying construction. Telemetry
/// accumulates across drives; [`StreamReport::emitted`] counts only the
/// drive that produced it.
pub struct StreamSet {
    /// One lock per stream so the chunked map can hand each worker
    /// exclusive access to the pipelines of its chunk; every lock is
    /// taken by exactly one worker per drive, so none is contended.
    pipelines: Vec<Mutex<Pipeline>>,
}

impl StreamSet {
    /// Builds one pipeline per stream with `build`.
    ///
    /// # Errors
    ///
    /// Returns the first builder error.
    pub fn build<B>(streams: usize, build: B) -> Result<Self>
    where
        B: Fn(usize) -> Result<Pipeline>,
    {
        Ok(Self {
            pipelines: (0..streams)
                .map(|k| build(k).map(Mutex::new))
                .collect::<Result<_>>()?,
        })
    }

    /// Number of streams.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pipelines.len()
    }

    /// Whether the set holds no streams.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pipelines.is_empty()
    }

    /// Drives every stream for `steps` steps on `scheduler`
    /// (contiguous chunks, so scheduling never reorders the reports
    /// and every counter except wall time is worker-count independent).
    ///
    /// # Errors
    ///
    /// Returns the first stage error in stream order.
    pub fn drive(&mut self, steps: usize, scheduler: &Scheduler) -> Result<Vec<StreamReport>> {
        scheduler
            .map_init(
                &self.pipelines,
                || (),
                |(), stream, pipeline| {
                    let mut pipeline = pipeline
                        .lock()
                        .expect("a stream panicked during an earlier drive");
                    drive_one(stream, &mut pipeline, steps)
                },
            )
            .into_iter()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::num::NonZeroUsize;

    use crate::stages::{IntentSchedule, PacketizeStage, SenseStage};

    fn build(stream: usize) -> Result<Pipeline> {
        Ok(Pipeline::new()
            .with_stage(SenseStage::new(
                2,
                16,
                10,
                100 + stream as u64,
                IntentSchedule::FigureEight,
            )?)
            .with_stage(PacketizeStage::new(10)?))
    }

    fn sched(workers: usize) -> Scheduler {
        Scheduler::new(NonZeroUsize::new(workers).unwrap())
    }

    /// Builds `streams` fresh pipelines and drives them once.
    fn run(streams: usize, steps: usize, workers: usize) -> Vec<StreamReport> {
        let mut set = StreamSet::build(streams, build).unwrap();
        set.drive(steps, &sched(workers)).unwrap()
    }

    #[test]
    fn reports_come_back_in_stream_order() {
        let reports = run(5, 8, 3);
        assert_eq!(reports.len(), 5);
        for (k, report) in reports.iter().enumerate() {
            assert_eq!(report.stream, k);
            assert_eq!(report.steps, 8);
            assert_eq!(report.emitted, 8, "packetizer emits every frame");
            assert_eq!(report.telemetry.len(), 2);
        }
    }

    #[test]
    fn counters_are_thread_count_independent() {
        let serial = run(4, 10, 1);
        let pooled = run(4, 10, 4);
        for (a, b) in serial.iter().zip(&pooled) {
            assert_eq!(a.stream, b.stream);
            assert_eq!(a.emitted, b.emitted);
            for (ta, tb) in a.telemetry.iter().zip(&b.telemetry) {
                assert_eq!(ta.name, tb.name);
                assert_eq!(ta.frames_in, tb.frames_in);
                assert_eq!(ta.frames_out, tb.frames_out);
                assert_eq!(ta.bytes_out, tb.bytes_out);
                assert_eq!(ta.peak_buffer_bytes, tb.peak_buffer_bytes);
            }
        }
    }

    #[test]
    fn stream_set_drives_repeatedly_and_accumulates_telemetry() {
        let mut set = StreamSet::build(3, build).unwrap();
        assert_eq!(set.len(), 3);
        assert!(!set.is_empty());
        let scheduler = sched(2);
        let first = set.drive(5, &scheduler).unwrap();
        let second = set.drive(5, &scheduler).unwrap();
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.stream, b.stream);
            assert_eq!(a.emitted, 5, "emitted counts one drive");
            assert_eq!(b.emitted, 5);
            // Telemetry keeps accumulating across drives.
            assert_eq!(a.telemetry[0].frames_in, 5);
            assert_eq!(b.telemetry[0].frames_in, 10);
        }
    }

    #[test]
    fn drive_handles_zero_streams() {
        let mut set = StreamSet::build(0, build).unwrap();
        assert_eq!(set.len(), 0);
        assert!(set.is_empty());
        let reports = set.drive(10, &sched(8)).unwrap();
        assert!(reports.is_empty(), "zero streams drive to zero reports");
    }

    #[test]
    fn drive_handles_a_single_stream_on_many_workers() {
        let many = run(1, 7, 64);
        let one = run(1, 7, 1);
        assert_eq!(many.len(), 1);
        assert_eq!(many[0].stream, 0);
        assert_eq!(many[0].emitted, one[0].emitted);
        assert_eq!(
            many[0].telemetry[0].frames_in,
            one[0].telemetry[0].frames_in
        );
    }

    #[test]
    fn drive_with_more_workers_than_streams_matches_serial() {
        let wide_reports = run(3, 9, 32);
        let narrow_reports = run(3, 9, 1);
        for (a, b) in wide_reports.iter().zip(&narrow_reports) {
            assert_eq!(a.stream, b.stream);
            assert_eq!(a.emitted, b.emitted);
            for (ta, tb) in a.telemetry.iter().zip(&b.telemetry) {
                assert_eq!(ta.frames_in, tb.frames_in);
                assert_eq!(ta.frames_out, tb.frames_out);
                assert_eq!(ta.bytes_out, tb.bytes_out);
            }
        }
    }

    #[test]
    fn drive_dispatches_on_the_given_scheduler() {
        for workers in [1, 2] {
            let mut set = StreamSet::build(4, build).unwrap();
            let scheduler = sched(workers);
            set.drive(6, &scheduler).unwrap();
            let stats = scheduler.stats();
            assert_eq!((stats.epochs, stats.tasks), (1, 4));
        }
    }

    #[test]
    fn stream_set_propagates_stage_errors() {
        let mut set = StreamSet::build(2, |_| Ok(Pipeline::new())).unwrap();
        let err = set.drive(1, &sched(1)).unwrap_err();
        assert!(err.to_string().contains("no stages"));
    }

    #[test]
    fn build_errors_propagate() {
        let built = StreamSet::build(3, |k| {
            if k == 1 {
                Err(crate::PipelineError::Empty)
            } else {
                build(k)
            }
        });
        assert!(matches!(built, Err(crate::PipelineError::Empty)));
    }
}
