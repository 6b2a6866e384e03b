//! Shared resolution of `MBU_*` environment knobs.
//!
//! The workspace reads seven environment variables (`MBU_BACKEND`,
//! `MBU_FUSION`, `MBU_RECLAIM`, `MBU_AMP_THREADS`, `MBU_SHOT_THREADS`,
//! `MBU_BRANCH_EPS`, `MBU_VERIFY`); every other setting is made in code.
//! Each knob used to parse itself: the thread knobs warned once on garbage
//! and fell back, while `MBU_FUSION` and `MBU_RECLAIM` silently swallowed
//! unparsable values — `MBU_RECLAIM=flase` quietly behaved like "on". This
//! module is the single resolver all of them route through: one
//! tokenisation policy, one warn-once channel, and pure functions over
//! *injected* raw values so every policy is testable without mutating
//! process-global environment state.
//!
//! The resolvers never read the environment themselves; call sites do the
//! `std::env::var` (usually once, behind a `OnceLock`, because knob
//! resolution sits in per-shot hot paths) and hand the raw value in.

use std::collections::BTreeSet;
use std::sync::Mutex;

/// Emits `message` to stderr exactly once per process for each distinct
/// `key`; later calls with the same key stay silent. The channel behind
/// [`warn_invalid`], also usable directly for advisory diagnostics that
/// are not parse failures — e.g. a knob combination that is legal but
/// defeats its own purpose (`MBU_BACKEND=auto` on a circuit too small for
/// planning to pay). Key the call by the *condition*, not the message, so
/// a hot loop hitting the condition every shot warns once.
pub fn warn_once(key: &str, message: &str) {
    static WARNED: Mutex<BTreeSet<String>> = Mutex::new(BTreeSet::new());
    let mut warned = WARNED.lock().expect("knob warning registry");
    if warned.insert(key.to_string()) {
        eprintln!("warning: {message}");
    }
}

/// Warns exactly once per knob name that `raw` was not understood and which
/// fallback the knob resolved to. Later invalid values of the *same* knob
/// stay silent (the process-wide setting has already been reported);
/// different knobs each get their own warning.
pub fn warn_invalid(name: &str, raw: &str, fallback: &str) {
    warn_once(
        name,
        &format!("{name}={raw:?} is not a valid value; falling back to {fallback}"),
    );
}

/// The canonical boolean tokens: `1`/`on`/`true`/`yes` and
/// `0`/`off`/`false`/`no`, case-insensitive, surrounding whitespace
/// ignored. `None` for anything else.
fn parse_switch_token(raw: &str) -> Option<bool> {
    match raw.trim().to_ascii_lowercase().as_str() {
        "1" | "on" | "true" | "yes" => Some(true),
        "0" | "off" | "false" | "no" => Some(false),
        _ => None,
    }
}

/// Resolves an on/off knob (`MBU_RECLAIM`, `MBU_VERIFY`): unset keeps
/// `default`, recognised tokens pin, anything else warns once and keeps
/// `default` — garbage can no longer masquerade as either setting.
#[must_use]
pub fn switch(name: &str, raw: Option<&str>, default: bool) -> bool {
    match raw {
        None => default,
        Some(raw) => parse_switch_token(raw).unwrap_or_else(|| {
            warn_invalid(name, raw, if default { "on" } else { "off" });
            default
        }),
    }
}

/// Resolves a size-window knob (`MBU_FUSION`): unset keeps `default`, a
/// non-negative integer pins (clamped to `max`), the off tokens disable
/// (`0`), the on tokens keep the default window enabled, and anything
/// else warns once and keeps `default`. Numbers win over tokens, so `1`
/// means a window of 1, not "enabled".
#[must_use]
pub fn window(name: &str, raw: Option<&str>, default: usize, max: usize) -> usize {
    match raw {
        None => default.min(max),
        Some(raw) => {
            if let Ok(k) = raw.trim().parse::<usize>() {
                return k.min(max);
            }
            match parse_switch_token(raw) {
                Some(true) => default.min(max),
                Some(false) => 0,
                None => {
                    warn_invalid(name, raw, "the default window");
                    default.min(max)
                }
            }
        }
    }
}

/// Resolves a probability-like knob (`MBU_BRANCH_EPS`): unset keeps
/// `default`, a finite value in `[0, 1]` pins, anything else warns once
/// and keeps `default`.
#[must_use]
pub fn fraction(name: &str, raw: Option<&str>, default: f64) -> f64 {
    match raw {
        None => default,
        Some(raw) => match raw.trim().parse::<f64>() {
            Ok(v) if v.is_finite() && (0.0..=1.0).contains(&v) => v,
            _ => {
                warn_invalid(name, raw, "the default floor");
                default
            }
        },
    }
}

/// Resolves a thread/lane-count knob (`MBU_SHOT_THREADS`,
/// `MBU_AMP_THREADS`): unset is `None` (the caller picks its own default),
/// a positive integer pins, and `0` or garbage warns once and resolves to
/// the caller-supplied `fallback` (described by `fallback_desc` in the
/// warning) — `0` has no meaning for either knob and would deadlock a
/// worker pool if honoured.
#[must_use]
pub fn positive_count(
    name: &str,
    raw: Option<&str>,
    fallback: usize,
    fallback_desc: &str,
) -> Option<usize> {
    match raw {
        None => None,
        Some(raw) => match raw.trim().parse::<usize>() {
            Ok(threads) if threads >= 1 => Some(threads),
            _ => {
                warn_invalid(name, raw, fallback_desc);
                Some(fallback)
            }
        },
    }
}

/// Resolves a named-choice knob (`MBU_BACKEND`): unset keeps `default`, a
/// recognised option (case-insensitive, surrounding whitespace ignored)
/// pins that option, and anything else warns once and keeps `default` — a
/// typo like `MBU_BACKEND=spares` can never silently select a backend.
///
/// `options` lists every accepted token in canonical (lowercase) form; the
/// returned value is always one of `options` (or `default`), so callers
/// can match on it exhaustively.
#[must_use]
pub fn choice<'a>(name: &str, raw: Option<&str>, options: &[&'a str], default: &'a str) -> &'a str {
    match raw {
        None => default,
        Some(raw) => {
            let token = raw.trim().to_ascii_lowercase();
            match options.iter().find(|opt| **opt == token) {
                Some(opt) => opt,
                None => {
                    warn_invalid(name, raw, default);
                    default
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn switch_accepts_canonical_tokens() {
        for (raw, expect) in [
            ("1", true),
            ("on", true),
            ("TRUE", true),
            (" yes ", true),
            ("0", false),
            ("off", false),
            ("False", false),
            ("no", false),
        ] {
            assert_eq!(
                switch("MBU_TEST_SWITCH", Some(raw), !expect),
                expect,
                "{raw}"
            );
        }
    }

    #[test]
    fn switch_garbage_keeps_the_default() {
        assert!(switch("MBU_TEST_SWITCH_G1", Some("flase"), true));
        assert!(!switch("MBU_TEST_SWITCH_G2", Some("2"), false));
        assert!(switch("MBU_TEST_SWITCH_G3", None, true));
    }

    #[test]
    fn window_pins_clamps_and_disables() {
        assert_eq!(window("MBU_TEST_WIN", None, 3, 4), 3);
        assert_eq!(window("MBU_TEST_WIN", Some("2"), 3, 4), 2);
        assert_eq!(window("MBU_TEST_WIN", Some("9"), 3, 4), 4, "clamped");
        assert_eq!(window("MBU_TEST_WIN", Some("0"), 3, 4), 0);
        assert_eq!(window("MBU_TEST_WIN", Some("off"), 3, 4), 0);
        assert_eq!(window("MBU_TEST_WIN", Some("no"), 3, 4), 0);
        // The on tokens share the switch tokenisation: enabled at the
        // default window, without a bogus "not a valid value" warning.
        assert_eq!(window("MBU_TEST_WIN", Some("on"), 3, 4), 3);
        assert_eq!(window("MBU_TEST_WIN", Some("TRUE"), 3, 4), 3);
        assert_eq!(window("MBU_TEST_WIN", Some("yes"), 3, 4), 3);
        // Numbers beat tokens: "1" is a window of 1, not "enabled".
        assert_eq!(window("MBU_TEST_WIN", Some("1"), 3, 4), 1);
        assert_eq!(window("MBU_TEST_WIN", Some("lots"), 3, 4), 3, "garbage");
    }

    #[test]
    fn fraction_requires_a_unit_interval_value() {
        assert_eq!(fraction("MBU_TEST_EPS", None, 1e-12), 1e-12);
        assert_eq!(fraction("MBU_TEST_EPS", Some("0"), 1e-12), 0.0);
        assert_eq!(fraction("MBU_TEST_EPS", Some("1e-6"), 1e-12), 1e-6);
        assert_eq!(fraction("MBU_TEST_EPS", Some("2.5"), 1e-12), 1e-12);
        assert_eq!(fraction("MBU_TEST_EPS", Some("-0.1"), 1e-12), 1e-12);
        assert_eq!(fraction("MBU_TEST_EPS", Some("NaN"), 1e-12), 1e-12);
        assert_eq!(fraction("MBU_TEST_EPS", Some("much"), 1e-12), 1e-12);
    }

    #[test]
    fn positive_count_policy_matches_the_thread_knobs() {
        assert_eq!(positive_count("MBU_TEST_N", None, 7, "d"), None);
        assert_eq!(positive_count("MBU_TEST_N", Some("3"), 7, "d"), Some(3));
        assert_eq!(positive_count("MBU_TEST_N", Some(" 8 "), 7, "d"), Some(8));
        assert_eq!(positive_count("MBU_TEST_N", Some("0"), 7, "d"), Some(7));
        assert_eq!(positive_count("MBU_TEST_N", Some("-2"), 7, "d"), Some(7));
        assert_eq!(positive_count("MBU_TEST_N", Some("zero"), 7, "d"), Some(7));
    }

    #[test]
    fn choice_matches_case_insensitively_and_falls_back() {
        const OPTIONS: &[&str] = &["dense", "sparse", "tracker"];
        assert_eq!(choice("MBU_TEST_CHOICE", None, OPTIONS, "dense"), "dense");
        assert_eq!(
            choice("MBU_TEST_CHOICE", Some("sparse"), OPTIONS, "dense"),
            "sparse"
        );
        assert_eq!(
            choice("MBU_TEST_CHOICE", Some(" TRACKER "), OPTIONS, "dense"),
            "tracker"
        );
        assert_eq!(
            choice("MBU_TEST_CHOICE", Some("Dense"), OPTIONS, "sparse"),
            "dense"
        );
        assert_eq!(
            choice("MBU_TEST_CHOICE", Some("spares"), OPTIONS, "dense"),
            "dense",
            "garbage keeps the default"
        );
        assert_eq!(
            choice("MBU_TEST_CHOICE", Some(""), OPTIONS, "sparse"),
            "sparse"
        );
    }

    #[test]
    fn warnings_fire_once_per_knob() {
        // Purely exercises the registry path; output is on stderr and not
        // captured here — the contract is "no panic, idempotent".
        warn_invalid("MBU_TEST_WARN", "garbage", "the default");
        warn_invalid("MBU_TEST_WARN", "garbage2", "the default");
    }
}
