//! Exporter regression suite: the JSON-lines snapshot format must
//! round-trip byte-for-byte through its own parser, and its exact
//! serialized form is pinned by a committed golden file so a format
//! change can never slip through silently.
//!
//! To regenerate the snapshot after an intentional format change:
//!
//! ```text
//! MINDFUL_BLESS=1 cargo test -p mindful-integration-tests --test obs_export
//! ```

use std::fs;
use std::path::{Path, PathBuf};

use mindful_core::obs::{Registry, Snapshot};

fn golden_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(name)
}

/// Builds a fully deterministic snapshot exercising every metric kind
/// and the format's edge values: zero, bucket boundaries, `u64::MAX`,
/// and a name that needs JSON escaping.
fn reference_snapshot() -> Snapshot {
    let registry = Registry::new();

    let frames = registry.counter("pipe.0.sense.frames_in");
    frames.add_to_shard(0, 40);
    frames.add_to_shard(3, 2);
    registry
        .counter("pipe.0.sense.bytes_out")
        .add_to_shard(1, 81920);
    let _ = registry.counter("edge.zero");
    registry.counter("edge.max").add_to_shard(0, u64::MAX);
    registry.counter("needs \"escaping\"\\n").add_to_shard(0, 7);

    let depth = registry.gauge("dnn.queue_depth");
    depth.set(96);
    depth.set(12);
    registry.gauge("soak.2.link.faults.lost").set(3);

    let latency = registry.histogram("pipe.0.sense.latency_ns");
    for v in [0, 1, 1023, 1024, 2048, u64::MAX] {
        latency.record_to_shard(0, v);
    }
    let _ = registry.histogram("edge.empty_histogram");

    registry.snapshot()
}

#[test]
fn jsonl_round_trip_is_byte_identical() {
    let snapshot = reference_snapshot();
    let jsonl = snapshot.to_jsonl();
    let parsed = Snapshot::from_jsonl(&jsonl).unwrap();
    assert_eq!(parsed, snapshot, "parsing inverts serialization exactly");
    assert_eq!(
        parsed.to_jsonl(),
        jsonl,
        "re-serializing the parsed snapshot reproduces every byte"
    );
}

#[test]
fn jsonl_export_matches_the_golden_snapshot() {
    let produced = reference_snapshot().to_jsonl();
    let path = golden_path("obs_snapshot.jsonl");
    if std::env::var_os("MINDFUL_BLESS").is_some() {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, &produced).unwrap();
        return;
    }
    let golden = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); regenerate with \
             MINDFUL_BLESS=1 cargo test -p mindful-integration-tests --test obs_export",
            path.display()
        )
    });
    // The format is a wire contract: byte-for-byte, no tolerances.
    assert_eq!(
        produced, golden,
        "the JSON-lines export format drifted from the committed snapshot"
    );
    // And the committed bytes still parse back to the same snapshot.
    assert_eq!(Snapshot::from_jsonl(&golden).unwrap(), reference_snapshot());
}

#[test]
fn display_rendering_is_deterministic() {
    assert_eq!(
        reference_snapshot().to_string(),
        reference_snapshot().to_string()
    );
}
