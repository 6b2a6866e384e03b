//! End-to-end runs of the `tables` and `figures` binaries: each prints
//! what it promises and exits with the right status.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("binary runs")
}

/// The `== … ==` section headers `tables` printed.
fn headers(out: &Output) -> Vec<String> {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| l.starts_with("== "))
        .map(str::to_string)
        .collect()
}

#[test]
fn tables_without_arguments_prints_every_artifact() {
    let out = run(env!("CARGO_BIN_EXE_tables"), &[]);
    assert!(out.status.success(), "{out:?}");
    let headers = headers(&out);
    assert_eq!(headers.len(), 8, "{headers:#?}");
    for (header, prefix) in headers.iter().zip([
        "== Table 1:",
        "== Table 2:",
        "== Table 3:",
        "== Table 4:",
        "== Table 5:",
        "== Table 6:",
        "== Headline",
        "== MBU statistics",
    ]) {
        assert!(header.starts_with(prefix), "{header} is not {prefix}");
    }
}

#[test]
fn tables_prints_only_the_requested_artifact() {
    let out = run(env!("CARGO_BIN_EXE_tables"), &["table1"]);
    assert!(out.status.success(), "{out:?}");
    let headers = headers(&out);
    assert_eq!(headers.len(), 1, "{headers:#?}");
    assert!(headers[0].starts_with("== Table 1:"), "{}", headers[0]);
}

#[test]
fn tables_rejects_an_unknown_subcommand() {
    let out = run(env!("CARGO_BIN_EXE_tables"), &["tabel1"]);
    assert!(!out.status.success(), "{out:?}");
    assert!(out.stdout.is_empty(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage: tables"), "{stderr}");
}

#[test]
fn figures_prints_the_diagrams() {
    let out = run(env!("CARGO_BIN_EXE_figures"), &[]);
    assert!(out.status.success(), "{out:?}");
    assert!(!out.stdout.is_empty());
}
