//! Source-level guard for the shift-literal overflow class.
//!
//! Exhaustive adder tests iterate with `1u128 << n` but historically
//! reduced with a bare `(1 << n)` — which is fine while type inference
//! lands on a wide type, and a silent `i32` overflow the moment a
//! reduction is moved into a context that defaults. This test scans every
//! `mbu-arith` source file and fails if a bare, suffix-less integer
//! literal — decimal, hex or binary — appears as the left operand of a
//! shift, so the class cannot regress: write `1u128 << n` (or the
//! context's explicit type), never `1 << n`. It runs in the workspace's
//! bare `cargo test` (CI's Test step), so CI and a local run share one
//! source of truth.

use std::fs;
use std::path::{Path, PathBuf};

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("readable dir entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The token ending at byte `end` (exclusive), read backwards over
/// identifier characters.
fn token_before(line: &str, end: usize) -> &str {
    let bytes = line.as_bytes();
    let mut start = end;
    while start > 0 {
        let c = bytes[start - 1] as char;
        if c.is_ascii_alphanumeric() || c == '_' {
            start -= 1;
        } else {
            break;
        }
    }
    &line[start..end]
}

/// Whether `token` is an integer literal with no explicit type suffix —
/// in any radix (`1`, `0x1`, `0b1`, `0o7`), so the guard cannot be dodged
/// with a hex or binary spelling.
fn is_bare_int_literal(token: &str) -> bool {
    if !token.bytes().next().is_some_and(|b| b.is_ascii_digit()) {
        return false;
    }
    const SUFFIXES: [&str; 12] = [
        "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
    ];
    !SUFFIXES.iter().any(|s| token.ends_with(s))
}

#[test]
fn shift_literals_are_explicitly_typed() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut files = Vec::new();
    rust_sources(&root, &mut files);
    assert!(!files.is_empty(), "no sources found under {root:?}");

    let mut offenders = Vec::new();
    for file in &files {
        let text = fs::read_to_string(file).expect("readable source file");
        for (i, line) in text.lines().enumerate() {
            let mut from = 0;
            while let Some(pos) = line[from..].find(" << ") {
                let at = from + pos;
                let token = token_before(line, at);
                if is_bare_int_literal(token) {
                    offenders.push(format!(
                        "{}:{}: `{token} << …` needs an explicit type suffix",
                        file.display(),
                        i + 1
                    ));
                }
                from = at + 4;
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "bare shift literals found (use e.g. `1u128 << n`):\n{}",
        offenders.join("\n")
    );
}
