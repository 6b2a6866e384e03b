//! Regenerates every table of the paper's evaluation, printing the paper's
//! printed formula next to the value measured from our constructed
//! circuits.
//!
//! ```text
//! cargo run -p mbu-bench --bin tables            # everything
//! cargo run -p mbu-bench --bin tables -- table1  # one artifact
//! ```
//!
//! Subcommands: `table1 table2 table3 table4 table5 table6 headline
//! mbu-stats all`; any other name prints a usage line and exits with
//! status 2.

use mbu_arith::modular::{self, beauregard};
use mbu_arith::resources::{self, Table1Row};
use mbu_arith::{adders, compare, two_sided, AdderKind, Uncompute};
use mbu_bench::{
    benchmark_modulus, build_row_circuit, fmt_count, monte_carlo_ensemble, MeanCounts,
};
use mbu_bitstring::hamming_weight;

/// Every artifact, by subcommand name, in print order.
const ARTIFACTS: [(&str, fn()); 8] = [
    ("table1", table1),
    ("table2", table2),
    ("table3", table3),
    ("table4", table4),
    ("table5", table5),
    ("table6", table6),
    ("headline", headline),
    ("mbu-stats", mbu_stats),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let known = |a: &str| a == "all" || ARTIFACTS.iter().any(|(name, _)| *name == a);
    if let Some(bad) = args.iter().find(|a| !known(a)) {
        let names: Vec<&str> = ARTIFACTS.iter().map(|(name, _)| *name).collect();
        eprintln!(
            "tables: unknown subcommand `{bad}`; usage: tables [all | {}]...",
            names.join(" | ")
        );
        std::process::exit(2);
    }
    let all = args.is_empty() || args.iter().any(|a| a == "all");
    for (name, run) in ARTIFACTS {
        if all || args.iter().any(|a| a == name) {
            run();
        }
    }
}

/// Table 1: modular addition, all architectures, w/ and w/o MBU.
fn table1() {
    let n = 32usize;
    let p = benchmark_modulus(n);
    let w = f64::from(hamming_weight(p));
    println!("== Table 1: modular addition (n = {n}, p = {p}, |p| = {w}) ==");
    println!(
        "{:<16} {:>4} {:>7} {:>9} {:>9} {:>11} {:>11} {:>9} {:>9}",
        "architecture",
        "MBU",
        "qubits",
        "paper:Tof",
        "meas:Tof",
        "paper:CX+CZ",
        "meas:CX+CZ",
        "paper:X",
        "meas:X"
    );
    for row in [
        Table1Row::Vbe5,
        Table1Row::Vbe4,
        Table1Row::Cdkpm,
        Table1Row::Gidney,
        Table1Row::CdkpmGidney,
    ] {
        for mbu in [false, true] {
            let unc = if mbu {
                Uncompute::Mbu
            } else {
                Uncompute::Unitary
            };
            let layout = build_row_circuit(row, unc, n, p).expect("ripple row");
            let e = layout.circuit.expected_counts();
            let paper = resources::table1(row, n as f64, w, mbu);
            println!(
                "{:<16} {:>4} {:>7} {:>9} {:>9} {:>11} {:>11} {:>9} {:>9}",
                row.label(),
                if mbu { "yes" } else { "no" },
                layout.circuit.num_qubits(),
                fmt_count(paper.toffoli),
                fmt_count(e.toffoli),
                fmt_count(paper.cnot_cz),
                fmt_count(e.cnot_cz()),
                fmt_count(paper.x),
                fmt_count(e.x),
            );
        }
    }
    // Draper rows: measured in H/CR expectation; paper counts QFT units.
    let nq = 10usize;
    let pq = benchmark_modulus(nq) % (1 << nq);
    for (label, unc, row) in [
        ("Draper", Uncompute::Unitary, Table1Row::Draper),
        ("Draper", Uncompute::Mbu, Table1Row::Draper),
    ] {
        let layout = beauregard::modadd_circuit(unc, nq, pq).expect("draper row");
        let e = layout.circuit.expected_counts();
        let paper = resources::table1(row, nq as f64, 0.0, unc == Uncompute::Mbu);
        println!(
            "{:<16} {:>4} {:>7}   paper QFT units: {:>4}   measured E[H]: {:>7}  E[CR]: {:>9}",
            label,
            if unc == Uncompute::Mbu { "yes" } else { "no" },
            layout.circuit.num_qubits(),
            fmt_count(paper.qft),
            fmt_count(e.h),
            fmt_count(e.cphase),
        );
    }
    println!();
}

/// Table 2: plain adders.
fn table2() {
    let n = 32usize;
    println!("== Table 2: plain adders (n = {n}) ==");
    println!(
        "{:<10} {:>9} {:>9} {:>10} {:>10} {:>10} {:>10}",
        "adder", "paper:Tof", "meas:Tof", "paper:anc", "meas:anc", "paper:CX", "meas:CX"
    );
    for kind in [AdderKind::Vbe, AdderKind::Cdkpm, AdderKind::Gidney] {
        let adder = adders::plain_adder(kind, n).expect("adder");
        let c = adder.circuit.counts();
        let paper = resources::table2_plain_adder(kind, n as f64);
        let ancillas = adder.circuit.num_qubits() - (2 * n + 1);
        println!(
            "{:<10} {:>9} {:>9} {:>10} {:>10} {:>10} {:>10}",
            kind.to_string(),
            fmt_count(paper.toffoli),
            c.toffoli,
            fmt_count(paper.ancillas),
            ancillas,
            fmt_count(paper.cnot),
            c.cx,
        );
    }
    let adder = adders::plain_adder(AdderKind::Draper, n).expect("draper");
    let c = adder.circuit.counts();
    println!(
        "{:<10} paper: 3 QFT units, 0 ancillas   measured: H={} CR={} Tof={}",
        "Draper", c.h, c.cphase, c.toffoli
    );
    println!();
}

/// Table 3: controlled adders.
fn table3() {
    let n = 32usize;
    println!("== Table 3: controlled addition (n = {n}) ==");
    println!(
        "{:<10} {:>9} {:>9} {:>10} {:>10}",
        "adder", "paper:Tof", "meas:Tof", "paper:anc", "meas:anc"
    );
    for kind in [AdderKind::Cdkpm, AdderKind::Gidney, AdderKind::Draper] {
        let ca = adders::controlled_adder(kind, n).expect("controlled adder");
        let c = ca.circuit.counts();
        let paper = resources::table3_controlled_adder(kind, n as f64);
        let ancillas = ca.circuit.num_qubits() - (2 * n + 2);
        println!(
            "{:<10} {:>9} {:>9} {:>10} {:>10}",
            kind.to_string(),
            fmt_count(paper.toffoli),
            c.toffoli,
            fmt_count(paper.ancillas),
            ancillas,
        );
    }
    println!();
}

/// Table 4: addition by a constant.
fn table4() {
    let n = 32usize;
    let a = 0xDEAD_BEEFu128 & ((1 << n) - 1);
    println!("== Table 4: addition by a constant (n = {n}, a = {a:#x}) ==");
    println!(
        "{:<10} {:>9} {:>9} {:>10} {:>10} {:>10} {:>10}",
        "adder", "paper:Tof", "meas:Tof", "paper:anc", "meas:anc", "paper:CX", "meas:CX"
    );
    for kind in [AdderKind::Cdkpm, AdderKind::Gidney] {
        let ca = adders::const_adder(kind, n, a).expect("const adder");
        let c = ca.circuit.counts();
        let paper = resources::table4_const_adder(kind, n as f64);
        let ancillas = ca.circuit.num_qubits() - (n + 1);
        println!(
            "{:<10} {:>9} {:>9} {:>10} {:>10} {:>10} {:>10}",
            kind.to_string(),
            fmt_count(paper.toffoli),
            c.toffoli,
            fmt_count(paper.ancillas),
            ancillas,
            fmt_count(paper.cnot),
            c.cx,
        );
    }
    let ca = adders::const_adder(AdderKind::Draper, n, a).expect("draper");
    let c = ca.circuit.counts();
    println!(
        "{:<10} paper: 2 QFT + 1 ΦADD(a), 0 ancillas   measured: H={} R={} CR={}",
        "Draper", c.h, c.phase, c.cphase
    );
    println!();
}

/// Table 5: controlled addition by a constant.
fn table5() {
    let n = 32usize;
    let a = 0xDEAD_BEEFu128 & ((1 << n) - 1);
    let wa = f64::from(hamming_weight(a));
    println!("== Table 5: controlled addition by a constant (n = {n}, |a| = {wa}) ==");
    println!(
        "{:<10} {:>9} {:>9} {:>10} {:>10}",
        "adder", "paper:Tof", "meas:Tof", "paper:CX", "meas:CX"
    );
    for kind in [AdderKind::Cdkpm, AdderKind::Gidney] {
        let ca = adders::controlled_const_adder(kind, n, a).expect("ctrl const adder");
        let c = ca.circuit.counts();
        let paper = resources::table5_controlled_const_adder(kind, n as f64, wa);
        println!(
            "{:<10} {:>9} {:>9} {:>10} {:>10}",
            kind.to_string(),
            fmt_count(paper.toffoli),
            c.toffoli,
            fmt_count(paper.cnot),
            c.cx,
        );
    }
    let ca = adders::controlled_const_adder(AdderKind::Draper, n, a).expect("draper");
    let c = ca.circuit.counts();
    println!(
        "{:<10} paper: 2 QFT + 1 C-ΦADD(a), 0 ancillas   measured: H={} CR={}",
        "Draper", c.h, c.cphase
    );
    println!();
}

/// Table 6: comparators.
fn table6() {
    let n = 32usize;
    println!("== Table 6: comparators (n = {n}) ==");
    println!(
        "{:<10} {:>9} {:>9} {:>10} {:>10} {:>10} {:>10}",
        "adder", "paper:Tof", "meas:Tof", "paper:anc", "meas:anc", "paper:CX", "meas:CX"
    );
    for kind in [AdderKind::Cdkpm, AdderKind::Gidney] {
        let cmp = compare::comparator(kind, n).expect("comparator");
        let c = cmp.circuit.counts();
        let paper = resources::table6_comparator(kind, n as f64);
        let ancillas = cmp.circuit.num_qubits() - (2 * n + 1);
        println!(
            "{:<10} {:>9} {:>9} {:>10} {:>10} {:>10} {:>10}",
            kind.to_string(),
            fmt_count(paper.toffoli),
            c.toffoli,
            fmt_count(paper.ancillas),
            ancillas,
            fmt_count(paper.cnot),
            c.cx,
        );
    }
    let cmp = compare::comparator(AdderKind::Draper, n).expect("draper");
    let c = cmp.circuit.counts();
    println!(
        "{:<10} paper: 6 QFT units, 1 ancilla   measured: H={} CR={} CX={}",
        "Draper", c.h, c.cphase, c.cx
    );
    println!();
}

/// The §1.1 headline: MBU's relative Toffoli savings per architecture,
/// paper formula vs measured, plus the two-sided comparator.
fn headline() {
    let n = 64usize;
    let p = benchmark_modulus(61); // fits n = 64
    let w = f64::from(hamming_weight(p));
    println!("== Headline (§1.1): MBU Toffoli savings (n = {n}) ==");
    println!(
        "{:<16} {:>13} {:>13}",
        "architecture", "paper saving", "measured"
    );
    for row in [
        Table1Row::Vbe5,
        Table1Row::Vbe4,
        Table1Row::Cdkpm,
        Table1Row::Gidney,
        Table1Row::CdkpmGidney,
    ] {
        let paper = resources::headline_toffoli_saving(row, n as f64, w);
        let plain = build_row_circuit(row, Uncompute::Unitary, n, p)
            .expect("row")
            .circuit
            .expected_counts()
            .toffoli;
        let with_mbu = build_row_circuit(row, Uncompute::Mbu, n, p)
            .expect("row")
            .circuit
            .expected_counts()
            .toffoli;
        let measured = 1.0 - with_mbu / plain;
        println!(
            "{:<16} {:>12.1}% {:>12.1}%",
            row.label(),
            100.0 * paper,
            100.0 * measured
        );
    }
    // Two-sided comparator: "nearly 25%" on the comparator pair.
    let plain = two_sided::in_range_circuit(AdderKind::Gidney, Uncompute::Unitary, n)
        .expect("range")
        .circuit
        .expected_counts()
        .toffoli;
    let with_mbu = two_sided::in_range_circuit(AdderKind::Gidney, Uncompute::Mbu, n)
        .expect("range")
        .circuit
        .expected_counts()
        .toffoli;
    println!(
        "{:<16} {:>12}% {:>12.1}%   (Thm 4.13: 2r+r' → 1.5r+r')",
        "two-sided cmp",
        "~25/16",
        100.0 * (1.0 - with_mbu / plain)
    );
    println!();
}

/// Lemma 4.1 statistics: outcome frequency and Monte-Carlo vs analytic
/// expectation.
fn mbu_stats() {
    let n = 12usize;
    let p = benchmark_modulus(n);
    println!("== MBU statistics (Lemma 4.1; n = {n}, p = {p}, 1000 runs) ==");
    let spec = modular::ModAddSpec::cdkpm(Uncompute::Mbu);
    let layout = modular::modadd_circuit(&spec, n, p).expect("modadd");
    let analytic = layout.circuit.expected_counts();
    let ensemble = monte_carlo_ensemble(
        &layout.circuit,
        &[(layout.x.qubits(), p - 3), (layout.y.qubits(), p / 2)],
        1000,
    );
    let mean = MeanCounts::from_stats(&ensemble.mean());
    let var = ensemble.variance();
    println!("                 {:>10} {:>12}", "analytic", "monte-carlo");
    println!(
        "expected Tof     {:>10} {:>12.2}",
        fmt_count(analytic.toffoli),
        mean.toffoli
    );
    println!(
        "expected CNOT    {:>10} {:>12.2}",
        fmt_count(analytic.cx),
        mean.cx
    );
    println!(
        "expected X       {:>10} {:>12.2}",
        fmt_count(analytic.x),
        mean.x
    );
    println!(
        "expected H       {:>10} {:>12.2}",
        fmt_count(analytic.h),
        mean.h
    );
    println!("Tof variance     {:>10} {:>12.2}", "", var.toffoli);
    if let Some(flag) = ensemble.last_clbit() {
        let freq = ensemble.outcome_frequency(flag).unwrap_or(0.0);
        println!(
            "MBU flag freq    {:>10} {:>12.3}   (Lemma 4.1: fair coin)",
            "0.5", freq
        );
    }
    println!();
}
