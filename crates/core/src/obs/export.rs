//! Snapshot exporters: JSON-lines (with a round-trip parser) and a
//! human-readable `Display` summary.
//!
//! The JSON-lines form is the machine interchange format: one object
//! per metric, every histogram bucket included, and
//! [`Snapshot::from_jsonl`] reconstructs the snapshot exactly —
//! re-exporting the parsed snapshot reproduces the input byte for
//! byte. The emitter is hand-rolled (no serde dependency) and the
//! parser accepts exactly the emitted shape plus insignificant
//! whitespace.

use core::fmt::{self, Write as _};

use super::metrics::{HistogramState, BUCKETS};
use super::registry::{CounterSample, GaugeSample, HistogramSample, Snapshot};

/// A JSON-lines snapshot parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExportParseError {
    /// 1-based line number of the offending record.
    pub(crate) line: usize,
    /// What went wrong.
    pub(crate) reason: String,
}

impl fmt::Display for ExportParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "snapshot line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for ExportParseError {}

impl Snapshot {
    /// Serializes the snapshot as JSON lines: one object per metric,
    /// counters then gauges then histograms, each kind sorted by name
    /// (the order [`super::Registry::snapshot`] produces).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for c in &self.counters {
            let _ = writeln!(
                out,
                "{{\"kind\":\"counter\",\"name\":{},\"value\":{}}}",
                json_string(&c.name),
                c.value
            );
        }
        for g in &self.gauges {
            let _ = writeln!(
                out,
                "{{\"kind\":\"gauge\",\"name\":{},\"value\":{},\"high_water\":{}}}",
                json_string(&g.name),
                g.value,
                g.high_water
            );
        }
        for h in &self.histograms {
            let buckets: Vec<String> = h.state.buckets.iter().map(u64::to_string).collect();
            let _ = writeln!(
                out,
                "{{\"kind\":\"histogram\",\"name\":{},\"count\":{},\"sum\":{},\
                 \"min\":{},\"max\":{},\"buckets\":[{}]}}",
                json_string(&h.name),
                h.state.count,
                h.state.sum,
                h.state.min,
                h.state.max,
                buckets.join(",")
            );
        }
        out
    }

    /// Parses a [`Snapshot::to_jsonl`] document back into a snapshot.
    ///
    /// Round-trip exact: `Snapshot::from_jsonl(s.to_jsonl())` equals
    /// `s` field for field and bucket for bucket, and re-exporting it
    /// reproduces the input bytes.
    ///
    /// # Errors
    ///
    /// Returns an [`ExportParseError`] naming the first malformed line:
    /// unknown kinds, missing or out-of-order fields, non-numeric
    /// values, or a bucket array of the wrong length.
    pub fn from_jsonl(text: &str) -> Result<Self, ExportParseError> {
        let mut snapshot = Snapshot::default();
        for (index, raw) in text.lines().enumerate() {
            let line = index + 1;
            if raw.trim().is_empty() {
                continue;
            }
            let mut p = Parser::new(raw, line);
            p.expect('{')?;
            let kind = p.key_string("kind")?;
            p.expect(',')?;
            let name = p.key_string("name")?;
            p.expect(',')?;
            match kind.as_str() {
                "counter" => {
                    let value = p.key_u64("value")?;
                    p.expect('}')?;
                    p.end()?;
                    snapshot.counters.push(CounterSample { name, value });
                }
                "gauge" => {
                    let value = p.key_u64("value")?;
                    p.expect(',')?;
                    let high_water = p.key_u64("high_water")?;
                    p.expect('}')?;
                    p.end()?;
                    snapshot.gauges.push(GaugeSample {
                        name,
                        value,
                        high_water,
                    });
                }
                "histogram" => {
                    let count = p.key_u64("count")?;
                    p.expect(',')?;
                    let sum = p.key_u64("sum")?;
                    p.expect(',')?;
                    let min = p.key_u64("min")?;
                    p.expect(',')?;
                    let max = p.key_u64("max")?;
                    p.expect(',')?;
                    let buckets = p.key_bucket_array("buckets")?;
                    p.expect('}')?;
                    p.end()?;
                    snapshot.histograms.push(HistogramSample {
                        name,
                        state: HistogramState {
                            count,
                            sum,
                            min,
                            max,
                            buckets,
                        },
                    });
                }
                other => {
                    return Err(ExportParseError {
                        line,
                        reason: format!("unknown metric kind `{other}`"),
                    })
                }
            }
        }
        Ok(snapshot)
    }
}

/// Human-readable summary: one line per metric; histograms report
/// count, mean, and log-bucket p50/p99 upper bounds.
impl fmt::Display for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return writeln!(f, "(no metrics registered)");
        }
        for c in &self.counters {
            writeln!(f, "{:<48} {}", c.name, c.value)?;
        }
        for g in &self.gauges {
            writeln!(
                f,
                "{:<48} {} (high water {})",
                g.name, g.value, g.high_water
            )?;
        }
        for h in &self.histograms {
            match h.state.mean() {
                None => writeln!(f, "{:<48} empty", h.name)?,
                Some(mean) => writeln!(
                    f,
                    "{:<48} n={} mean={:.0} p50<={} p99<={} max={}",
                    h.name,
                    h.state.count,
                    mean,
                    h.state
                        .quantile_upper_bound(0.5)
                        .expect("non-empty histogram"),
                    h.state
                        .quantile_upper_bound(0.99)
                        .expect("non-empty histogram"),
                    h.state.max,
                )?,
            }
        }
        Ok(())
    }
}

/// Escapes a metric name as a JSON string literal. Names are plain
/// identifiers in practice; the escapes keep the emitter total anyway.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A minimal cursor over one JSON-lines record.
struct Parser<'a> {
    rest: &'a str,
    line: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str, line: usize) -> Self {
        Self { rest: text, line }
    }

    fn error(&self, reason: impl Into<String>) -> ExportParseError {
        ExportParseError {
            line: self.line,
            reason: reason.into(),
        }
    }

    fn skip_ws(&mut self) {
        self.rest = self.rest.trim_start();
    }

    fn expect(&mut self, ch: char) -> Result<(), ExportParseError> {
        self.skip_ws();
        match self.rest.strip_prefix(ch) {
            Some(rest) => {
                self.rest = rest;
                Ok(())
            }
            None => Err(self.error(format!(
                "expected `{ch}` at `{}`",
                self.rest.chars().take(12).collect::<String>()
            ))),
        }
    }

    /// Consumes `"key":` for the exact expected key.
    fn key(&mut self, key: &str) -> Result<(), ExportParseError> {
        let found = self.string()?;
        if found != key {
            return Err(self.error(format!("expected key `{key}`, found `{found}`")));
        }
        self.expect(':')
    }

    fn string(&mut self) -> Result<String, ExportParseError> {
        self.expect('"')?;
        let mut out = String::new();
        let mut chars = self.rest.char_indices();
        loop {
            let Some((i, ch)) = chars.next() else {
                return Err(self.error("unterminated string"));
            };
            match ch {
                '"' => {
                    self.rest = &self.rest[i + 1..];
                    return Ok(out);
                }
                '\\' => match chars.next() {
                    Some((_, '"')) => out.push('"'),
                    Some((_, '\\')) => out.push('\\'),
                    Some((_, 'u')) => {
                        let start = i + 2;
                        let hex = self
                            .rest
                            .get(start..start + 4)
                            .ok_or_else(|| self.error("truncated \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| self.error("bad \\u escape"))?;
                        out.push(char::from_u32(code).ok_or_else(|| self.error("bad \\u escape"))?);
                        // Skip the 4 hex digits.
                        for _ in 0..4 {
                            chars.next();
                        }
                    }
                    _ => return Err(self.error("unsupported escape")),
                },
                c => out.push(c),
            }
        }
    }

    fn u64(&mut self) -> Result<u64, ExportParseError> {
        self.skip_ws();
        let digits: usize = self.rest.bytes().take_while(u8::is_ascii_digit).count();
        if digits == 0 {
            return Err(self.error(format!(
                "expected an integer at `{}`",
                self.rest.chars().take(12).collect::<String>()
            )));
        }
        let (num, rest) = self.rest.split_at(digits);
        self.rest = rest;
        num.parse()
            .map_err(|_| self.error(format!("integer `{num}` overflows u64")))
    }

    fn key_string(&mut self, key: &str) -> Result<String, ExportParseError> {
        self.key(key)?;
        self.string()
    }

    fn key_u64(&mut self, key: &str) -> Result<u64, ExportParseError> {
        self.key(key)?;
        self.u64()
    }

    fn key_bucket_array(&mut self, key: &str) -> Result<[u64; BUCKETS], ExportParseError> {
        self.key(key)?;
        self.expect('[')?;
        let mut values = Vec::new();
        loop {
            values.push(self.u64()?);
            self.skip_ws();
            if let Some(rest) = self.rest.strip_prefix(',') {
                self.rest = rest;
            } else {
                self.expect(']')?;
                break;
            }
        }
        <[u64; BUCKETS]>::try_from(values).map_err(|v: Vec<u64>| {
            self.error(format!(
                "bucket array must have exactly {BUCKETS} entries, found {}",
                v.len()
            ))
        })
    }

    fn end(&mut self) -> Result<(), ExportParseError> {
        self.skip_ws();
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(self.error(format!("trailing content `{}`", self.rest)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::registry::Registry;
    use super::*;

    fn sample_registry() -> Registry {
        let r = Registry::new();
        r.counter("pipeline.0.sense.frames_in").add(40);
        r.counter("pipeline.4.packetize.bytes_out").add(51_200);
        r.gauge("pipeline.2.bin.buffer_bytes").set(4_096);
        let h = r.histogram("pipeline.1.spike.latency_ns");
        for v in [900_u64, 1_100, 1_024, 2_048, 1_000_000] {
            h.record(v);
        }
        r
    }

    #[test]
    fn jsonl_round_trips_field_exactly() {
        let snapshot = sample_registry().snapshot();
        let text = snapshot.to_jsonl();
        let parsed = Snapshot::from_jsonl(&text).unwrap();
        assert_eq!(parsed, snapshot, "every field and bucket reconstructed");
        assert_eq!(parsed.to_jsonl(), text, "re-export is byte-identical");
    }

    #[test]
    fn jsonl_round_trips_extreme_values_and_escaped_names() {
        let r = Registry::new();
        r.counter("weird \"name\" with \\ and \t tab").add(u64::MAX);
        let h = r.histogram("extremes");
        h.record(0);
        h.record(u64::MAX);
        let snapshot = r.snapshot();
        let text = snapshot.to_jsonl();
        let parsed = Snapshot::from_jsonl(&text).unwrap();
        assert_eq!(parsed, snapshot);
        assert_eq!(parsed.to_jsonl(), text);
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let s = Snapshot::default();
        assert_eq!(s.to_jsonl(), "");
        assert_eq!(Snapshot::from_jsonl("").unwrap(), s);
        assert_eq!(Snapshot::from_jsonl("\n  \n").unwrap(), s);
    }

    #[test]
    fn parser_rejects_malformed_lines_with_line_numbers() {
        for (text, needle) in [
            (
                "{\"kind\":\"sparkline\",\"name\":\"x\",\"value\":1}",
                "unknown metric kind",
            ),
            (
                "{\"kind\":\"counter\",\"name\":\"x\",\"value\":-3}",
                "expected an integer",
            ),
            (
                "{\"kind\":\"counter\",\"name\":\"x\",\"count\":1}",
                "expected key `value`",
            ),
            (
                "{\"kind\":\"counter\",\"name\":\"x\",\"value\":1} trailing",
                "trailing content",
            ),
            ("not json at all", "expected `{`"),
            (
                "{\"kind\":\"counter\",\"name\":\"x\",\"value\":99999999999999999999}",
                "overflows u64",
            ),
            (
                "{\"kind\":\"histogram\",\"name\":\"x\",\"count\":1,\"sum\":1,\
                 \"min\":1,\"max\":1,\"buckets\":[1,2]}",
                "bucket array",
            ),
        ] {
            let err = Snapshot::from_jsonl(&format!("\n{text}")).unwrap_err();
            assert!(
                err.reason.contains(needle),
                "{text:?}: got {:?}, wanted {needle:?}",
                err.reason
            );
            assert_eq!(err.line, 2, "line numbers are 1-based and exact");
            assert!(err.to_string().contains("line 2"));
        }
    }

    #[test]
    fn display_summarizes_each_metric_kind() {
        let text = sample_registry().snapshot().to_string();
        assert!(text.contains("pipeline.0.sense.frames_in"));
        assert!(text.contains("high water"));
        assert!(text.contains("n=5"));
        assert!(text.contains("p99<="));
        let empty = Snapshot::default().to_string();
        assert!(empty.contains("no metrics registered"));
        let r = Registry::new();
        let _ = r.histogram("empty.hist");
        assert!(r.snapshot().to_string().contains("empty"));
    }
}
