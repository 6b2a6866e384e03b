//! Source-level guard: settings live in code, not in the environment.
//!
//! Every simulator and compiler setting is a value the caller passes —
//! the `with_*` setters, `PassConfig`, `BackendKind` — so a run is fully
//! described by its code. The one exception is `MBU_VERIFY`, the
//! admission gate that re-verifies compiled programs before execution
//! (`crates/sim/src/exec.rs`). This scan over the library and facade
//! sources (`crates/*/src`, `src/`) fails the build on any other
//! environment read (`env::var`, `env::var_os`, `env::vars`, …), in code
//! and in `#[cfg(test)]` modules alike.

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

/// The string literal `env::var…(` is called with, or `<computed>` when
/// the name is not a literal.
fn variable_named_after(rest: &str) -> String {
    let args = rest
        .split_once('(')
        .map_or("", |(_, args)| args.trim_start());
    args.strip_prefix('"')
        .and_then(|lit| lit.split_once('"'))
        .map_or_else(|| "<computed>".to_string(), |(name, _)| name.to_string())
}

#[test]
fn only_mbu_verify_is_read_from_the_environment() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut dirs = vec![root.join("src")];
    for entry in fs::read_dir(root.join("crates")).expect("readable crates dir") {
        let src = entry.expect("readable dir entry").path().join("src");
        if src.is_dir() {
            dirs.push(src);
        }
    }
    let mut files = Vec::new();
    for dir in &dirs {
        rust_sources(dir, &mut files);
    }
    assert!(
        files.iter().any(|f| f.ends_with("crates/sim/src/exec.rs")),
        "the scan must cover the simulator crate"
    );

    let mut reads = Vec::new();
    for file in &files {
        let text = fs::read_to_string(file).expect("readable source file");
        let rel = file.strip_prefix(root).expect("file under the root");
        for (i, line) in text.lines().enumerate() {
            if line.trim_start().starts_with("//") {
                continue;
            }
            let mut from = 0;
            while let Some(pos) = line[from..].find("env::var") {
                let at = from + pos;
                reads.push((
                    rel.display().to_string(),
                    i + 1,
                    variable_named_after(&line[at..]),
                ));
                from = at + "env::var".len();
            }
        }
    }
    let found: Vec<(&str, &str)> = reads
        .iter()
        .map(|(f, _, v)| (f.as_str(), v.as_str()))
        .collect();
    let listing: Vec<String> = reads
        .iter()
        .map(|(f, l, v)| format!("{f}:{l}: {v}"))
        .collect();
    assert_eq!(
        found,
        [("crates/sim/src/exec.rs", "MBU_VERIFY")],
        "settings belong in the with_* setters, PassConfig or BackendKind; reads found:\n{}",
        listing.join("\n")
    );
}
