//! The one environment knob and the warn-once diagnostic channel.
//!
//! The workspace reads a single environment variable, `MBU_VERIFY` (the
//! admission gate in `exec.rs`); every other setting is made in code,
//! through the simulators' and ensembles' `with_*` setters,
//! [`PassConfig`](mbu_circuit::PassConfig) and
//! [`BackendKind`](crate::BackendKind). The switch parser takes the raw
//! value as a parameter, so its policy is testable without mutating
//! process-global environment state.

use std::collections::BTreeSet;
use std::sync::Mutex;

/// Emits `message` to stderr exactly once per process for each distinct
/// `key`; later calls with the same key stay silent. Key the call by the
/// *condition*, not the message, so a hot loop hitting the condition every
/// shot warns once.
fn warn_once(key: &str, message: &str) {
    static WARNED: Mutex<BTreeSet<String>> = Mutex::new(BTreeSet::new());
    let mut warned = WARNED.lock().expect("knob warning registry");
    if warned.insert(key.to_string()) {
        eprintln!("warning: {message}");
    }
}

/// Warns exactly once per knob name that `raw` was not understood and which
/// fallback the knob resolved to.
fn warn_invalid(name: &str, raw: &str, fallback: &str) {
    warn_once(
        name,
        &format!("{name}={raw:?} is not a valid value; falling back to {fallback}"),
    );
}

/// Resolves an on/off knob: unset keeps `default`; `1`/`on`/`true`/`yes`
/// and `0`/`off`/`false`/`no` (case-insensitive, surrounding whitespace
/// ignored) pin; anything else warns once and keeps `default` — garbage
/// can never masquerade as either setting.
#[must_use]
pub(crate) fn switch(name: &str, raw: Option<&str>, default: bool) -> bool {
    let Some(raw) = raw else {
        return default;
    };
    match raw.trim().to_ascii_lowercase().as_str() {
        "1" | "on" | "true" | "yes" => true,
        "0" | "off" | "false" | "no" => false,
        _ => {
            warn_invalid(name, raw, if default { "on" } else { "off" });
            default
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
    fn warnings_fire_once_per_knob() {
        // Purely exercises the registry path; output is on stderr and not
        // captured here — the contract is "no panic, idempotent".
        warn_invalid("MBU_TEST_WARN", "garbage", "the default");
        warn_invalid("MBU_TEST_WARN", "garbage2", "the default");
    }
}
