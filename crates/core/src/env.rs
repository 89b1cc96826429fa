//! Shared environment-knob parsing.
//!
//! Every boolean `MINDFUL_*` knob (`MINDFUL_SOAK_QUICK`,
//! `MINDFUL_BENCH_QUICK`, `MINDFUL_SIMD`, …) goes through one parser so
//! they all accept the same spellings and — crucially — all *reject*
//! garbage the same way: an unparsable value defers to the knob's
//! built-in default instead of being silently (mis)interpreted. The
//! numeric knobs (`MINDFUL_SWEEP_THREADS`) share `parse_count` the same
//! way. Each parser is split from the environment read, so the garbage
//! paths are testable without racing on the process environment. The
//! full knob table lives in EXPERIMENTS.md.

/// Parses a boolean knob value.
///
/// Accepted (case-insensitive, surrounding whitespace ignored):
/// `1` / `true` / `on` / `yes` → `Some(true)`;
/// `0` / `false` / `off` / `no` → `Some(false)`.
/// Everything else — empty strings included — returns `None`.
#[must_use]
pub(crate) fn parse_flag(raw: &str) -> Option<bool> {
    let trimmed = raw.trim();
    if trimmed.eq_ignore_ascii_case("1")
        || trimmed.eq_ignore_ascii_case("true")
        || trimmed.eq_ignore_ascii_case("on")
        || trimmed.eq_ignore_ascii_case("yes")
    {
        Some(true)
    } else if trimmed.eq_ignore_ascii_case("0")
        || trimmed.eq_ignore_ascii_case("false")
        || trimmed.eq_ignore_ascii_case("off")
        || trimmed.eq_ignore_ascii_case("no")
    {
        Some(false)
    } else {
        None
    }
}

/// Reads the boolean knob `name` from the environment, falling back to
/// `default` when the variable is unset or fails `parse_flag`.
#[must_use]
pub fn flag(name: &str, default: bool) -> bool {
    std::env::var(name)
        .ok()
        .as_deref()
        .and_then(parse_flag)
        .unwrap_or(default)
}

/// The quick-mode knob every benchmark reads (`MINDFUL_BENCH_QUICK`).
pub(crate) const BENCH_QUICK_ENV: &str = "MINDFUL_BENCH_QUICK";

/// The quick-mode knob every soak test reads (`MINDFUL_SOAK_QUICK`).
pub(crate) const SOAK_QUICK_ENV: &str = "MINDFUL_SOAK_QUICK";

/// Whether benchmarks should run in quick (CI) mode.
///
/// The one shared reader of `BENCH_QUICK_ENV`: every `mindful-bench`
/// bench (`figures`, `substrates`, `sweep`, `infer`, `pipeline`,
/// `fault`, `obs`, `secure`, `serve`) and the artifact's host stamp
/// call this instead of parsing the variable itself, so they all accept and
/// reject exactly the `parse_flag` spellings. Defaults to `false`
/// (full-length runs) when unset or unparsable.
#[must_use]
pub fn bench_quick() -> bool {
    flag(BENCH_QUICK_ENV, false)
}

/// Whether soak tests should run in quick (CI) mode.
///
/// The one shared reader of `SOAK_QUICK_ENV`, the soak-test twin of
/// [`bench_quick`]. Defaults to `false` (full-length soaks).
#[must_use]
pub fn soak_quick() -> bool {
    flag(SOAK_QUICK_ENV, false)
}

/// Parses a count knob value (e.g. a worker count) into
/// `[1, cap]`.
///
/// The precedence contract shared by every numeric `MINDFUL_*` knob
/// (today that is `MINDFUL_SWEEP_THREADS`; see
/// [`crate::pool::default_threads`]): an explicit integer always wins,
/// clamped into `[1, cap]` — `"0"` means "as serial as possible" (one)
/// and a digit string too large for `usize` means "as large as
/// possible" (`cap`). Only values carrying no number at all — empty,
/// whitespace, non-numeric — return `None` and defer to the knob's
/// fallback (for the thread knob, the machine's parallelism). This is
/// the pure core split from the environment read, so the garbage
/// paths are testable without racing on the process environment.
#[must_use]
pub(crate) fn parse_count(raw: &str, cap: usize) -> Option<std::num::NonZeroUsize> {
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return None;
    }
    match trimmed.parse::<usize>() {
        Ok(n) => std::num::NonZeroUsize::new(n.clamp(1, cap)),
        // A string of digits that overflows usize is still an explicit
        // "huge" request — clamp it instead of silently ignoring it.
        Err(_) if trimmed.bytes().all(|b| b.is_ascii_digit()) => std::num::NonZeroUsize::new(cap),
        Err(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_flag_accepts_the_documented_spellings() {
        for on in ["1", "true", "TRUE", "on", "On", "yes", " 1 ", "\ttrue\n"] {
            assert_eq!(parse_flag(on), Some(true), "{on:?}");
        }
        for off in ["0", "false", "FALSE", "off", "Off", "no", " 0 "] {
            assert_eq!(parse_flag(off), Some(false), "{off:?}");
        }
    }

    /// The audit contract: garbage never flips a knob — it defers to
    /// the default.
    #[test]
    fn parse_flag_rejects_garbage() {
        for garbage in [
            "", "   ", "\t", "2", "-1", "10", "yep", "enable", "quick", "0.0", "true!", "on off",
        ] {
            assert_eq!(parse_flag(garbage), None, "{garbage:?}");
        }
    }

    #[test]
    fn flag_falls_back_to_the_default_when_unset() {
        // A name no test environment sets; both defaults pass through.
        assert!(flag("MINDFUL_TEST_KNOB_THAT_IS_NEVER_SET", true));
        assert!(!flag("MINDFUL_TEST_KNOB_THAT_IS_NEVER_SET", false));
    }

    /// The shared quick-mode readers default off; CI flips them by
    /// setting the documented variables, which would make these
    /// assertions environment-dependent — so they only pin the
    /// unset-or-explicit cases.
    #[test]
    fn quick_mode_readers_honor_their_variables() {
        match std::env::var(BENCH_QUICK_ENV).ok().as_deref() {
            None => assert!(!bench_quick(), "defaults to full-length runs"),
            Some(v) => assert_eq!(bench_quick(), parse_flag(v).unwrap_or(false)),
        }
        match std::env::var(SOAK_QUICK_ENV).ok().as_deref() {
            None => assert!(!soak_quick(), "defaults to full-length soaks"),
            Some(v) => assert_eq!(soak_quick(), parse_flag(v).unwrap_or(false)),
        }
    }

    /// The numeric-knob contract: explicit integers clamp into
    /// `[1, cap]`, garbage defers to the fallback.
    #[test]
    fn parse_count_clamps_explicit_values() {
        use std::num::NonZeroUsize;
        assert_eq!(parse_count("0", 256), NonZeroUsize::new(1));
        assert_eq!(parse_count(" 0 ", 256), NonZeroUsize::new(1));
        assert_eq!(parse_count("1", 256), NonZeroUsize::new(1));
        assert_eq!(parse_count(" 8 ", 256), NonZeroUsize::new(8));
        assert_eq!(parse_count("256", 256), NonZeroUsize::new(256));
        assert_eq!(parse_count("9999", 256), NonZeroUsize::new(256));
        assert_eq!(parse_count("9999", 64), NonZeroUsize::new(64));
        // 39 digits: overflows usize but is still an explicit number.
        assert_eq!(
            parse_count("340282366920938463463374607431768211456", 256),
            NonZeroUsize::new(256),
            "overlong values clamp instead of being ignored"
        );
    }

    #[test]
    fn parse_count_defers_on_non_numeric_values() {
        for garbage in ["", "   ", "\t\n", "abc", "8 workers", "-4", "3.5"] {
            assert_eq!(parse_count(garbage, 256), None, "{garbage:?}");
        }
    }
}
