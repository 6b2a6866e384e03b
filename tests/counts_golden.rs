//! Golden resource counts for the paper's Tables 1–6.
//!
//! Unlike `counts_vs_paper.rs` — which compares measured counts against the
//! paper's *printed formulas* with the slack policy of EXPERIMENTS.md —
//! this suite pins the **exact** counts our constructed circuits produce at
//! fixed sizes. The formulas tolerate small constant drift; these goldens
//! do not: any change to the construction code (`adders`, `compare`,
//! `modular`, `counts.rs`, `resources.rs`) that shifts a single gate fails
//! loudly here and must be acknowledged by re-pinning the value.
//!
//! Every expected-count golden (`etof`, `ecx`) is a finite sum of
//! `k / 2^level` terms, exactly representable in an `f64`, so `assert_eq!`
//! on floats is sound.

use mbu_arith::{
    adders, compare,
    modular::{self, ModAddSpec},
    AdderKind, Uncompute,
};
use mbu_circuit::Circuit;

/// One pinned row: the exact fingerprint of a constructed circuit.
struct Golden {
    tag: &'static str,
    q: usize,
    tof: u64,
    cx: u64,
    cz: u64,
    x: u64,
    h: u64,
    cphase: u64,
    mz: u64,
    mx: u64,
    reset: u64,
    etof: f64,
    ecx: f64,
}

fn check(circuit: &Circuit, g: &Golden) {
    let c = circuit.counts();
    let e = circuit.expected_counts();
    assert_eq!(circuit.num_qubits(), g.q, "{}: logical qubits", g.tag);
    assert_eq!(c.toffoli, g.tof, "{}: Toffoli", g.tag);
    assert_eq!(c.cx, g.cx, "{}: CNOT", g.tag);
    assert_eq!(c.cz, g.cz, "{}: CZ", g.tag);
    assert_eq!(c.x, g.x, "{}: X", g.tag);
    assert_eq!(c.h, g.h, "{}: H", g.tag);
    assert_eq!(c.cphase, g.cphase, "{}: C-R", g.tag);
    assert_eq!(c.measure_z, g.mz, "{}: Z measurements", g.tag);
    assert_eq!(c.measure_x, g.mx, "{}: X measurements", g.tag);
    assert_eq!(c.reset, g.reset, "{}: resets", g.tag);
    assert_eq!(e.toffoli, g.etof, "{}: E[Toffoli]", g.tag);
    assert_eq!(e.cx, g.ecx, "{}: E[CNOT]", g.tag);
}

/// Shorthand: most rows have no rotations.
#[allow(clippy::too_many_arguments)]
fn row(
    tag: &'static str,
    q: usize,
    tof: u64,
    cx: u64,
    cz: u64,
    x: u64,
    h: u64,
    mz: u64,
    reset: u64,
    etof: f64,
    ecx: f64,
) -> Golden {
    Golden {
        tag,
        q,
        tof,
        cx,
        cz,
        x,
        h,
        cphase: 0,
        mz,
        mx: 0,
        reset,
        etof,
        ecx,
    }
}

#[test]
fn table2_plain_adders_golden() {
    // (kind, n, golden). Ancillas (Table 2's column) are derivable:
    // q − (2n+1) registers for |x⟩ and |y⟩ (the target is n+1 wide).
    let cases = [
        (
            AdderKind::Vbe,
            8,
            row("vbe8", 25, 30, 32, 0, 0, 0, 0, 0, 30.0, 32.0),
        ),
        (
            AdderKind::Cdkpm,
            8,
            row("cdkpm8", 18, 16, 33, 0, 0, 0, 0, 0, 16.0, 33.0),
        ),
        (
            AdderKind::Gidney,
            8,
            row("gidney8", 24, 8, 42, 7, 0, 7, 7, 7, 8.0, 42.0),
        ),
        (
            AdderKind::Vbe,
            16,
            row("vbe16", 49, 62, 64, 0, 0, 0, 0, 0, 62.0, 64.0),
        ),
        (
            AdderKind::Cdkpm,
            16,
            row("cdkpm16", 34, 32, 65, 0, 0, 0, 0, 0, 32.0, 65.0),
        ),
        (
            AdderKind::Gidney,
            16,
            row("gidney16", 48, 16, 90, 15, 0, 15, 15, 15, 16.0, 90.0),
        ),
        (
            AdderKind::Vbe,
            32,
            row("vbe32", 97, 126, 128, 0, 0, 0, 0, 0, 126.0, 128.0),
        ),
        (
            AdderKind::Cdkpm,
            32,
            row("cdkpm32", 66, 64, 129, 0, 0, 0, 0, 0, 64.0, 129.0),
        ),
        (
            AdderKind::Gidney,
            32,
            row("gidney32", 96, 32, 186, 31, 0, 31, 31, 31, 32.0, 186.0),
        ),
    ];
    for (kind, n, golden) in &cases {
        let adder = adders::plain_adder(*kind, *n).unwrap();
        check(&adder.circuit, golden);
        // Table 2 ancilla column: VBE uses n, CDKPM 1, Gidney n−1.
        let ancillas = adder.circuit.num_qubits() - (2 * n + 1);
        let expect = match kind {
            AdderKind::Vbe => *n,
            AdderKind::Cdkpm => 1,
            AdderKind::Gidney => n - 1,
            AdderKind::Draper => 0,
        };
        assert_eq!(ancillas, expect, "{}: ancillas", golden.tag);
    }
}

#[test]
fn table3_controlled_adders_golden() {
    let cases = [
        (
            AdderKind::Cdkpm,
            8,
            row("ctrl-cdkpm8", 19, 25, 32, 0, 0, 0, 0, 0, 25.0, 32.0),
        ),
        (
            AdderKind::Gidney,
            8,
            row("ctrl-gidney8", 26, 17, 42, 8, 0, 8, 8, 8, 17.0, 42.0),
        ),
        (
            AdderKind::Cdkpm,
            24,
            row("ctrl-cdkpm24", 51, 73, 96, 0, 0, 0, 0, 0, 73.0, 96.0),
        ),
        (
            AdderKind::Gidney,
            24,
            row("ctrl-gidney24", 74, 49, 138, 24, 0, 24, 24, 24, 49.0, 138.0),
        ),
    ];
    for (kind, n, golden) in &cases {
        check(
            &adders::controlled_adder(*kind, *n).unwrap().circuit,
            golden,
        );
    }
    // Draper's controlled adder trades everything for controlled rotations.
    for (n, golden) in [
        (
            8,
            Golden {
                tag: "ctrl-draper8",
                q: 19,
                tof: 8,
                cx: 0,
                cz: 8,
                x: 0,
                h: 26,
                cphase: 116,
                mz: 8,
                mx: 0,
                reset: 8,
                etof: 8.0,
                ecx: 0.0,
            },
        ),
        (
            24,
            Golden {
                tag: "ctrl-draper24",
                q: 51,
                tof: 24,
                cx: 0,
                cz: 24,
                x: 0,
                h: 74,
                cphase: 924,
                mz: 24,
                mx: 0,
                reset: 24,
                etof: 24.0,
                ecx: 0.0,
            },
        ),
    ] {
        check(
            &adders::controlled_adder(AdderKind::Draper, n)
                .unwrap()
                .circuit,
            &golden,
        );
    }
}

#[test]
fn table4_and_5_const_adders_golden() {
    let n = 16usize;
    let a = 0xBEEFu128 & ((1 << n) - 1); // |a| = 13 set bits
    let cases = [
        (
            AdderKind::Cdkpm,
            false,
            row("const-cdkpm", 34, 32, 65, 0, 26, 0, 0, 0, 32.0, 65.0),
        ),
        (
            AdderKind::Cdkpm,
            true,
            row("cconst-cdkpm", 35, 32, 91, 0, 0, 0, 0, 0, 32.0, 91.0),
        ),
        (
            AdderKind::Gidney,
            false,
            row("const-gidney", 48, 16, 90, 15, 26, 15, 15, 15, 16.0, 90.0),
        ),
        (
            AdderKind::Gidney,
            true,
            row("cconst-gidney", 49, 16, 116, 15, 0, 15, 15, 15, 16.0, 116.0),
        ),
    ];
    for (kind, controlled, golden) in &cases {
        let circuit = if *controlled {
            adders::controlled_const_adder(*kind, n, a).unwrap().circuit
        } else {
            adders::const_adder(*kind, n, a).unwrap().circuit
        };
        check(&circuit, golden);
    }
    // Table 5's "+2|a| CNOT" rule, exactly: 26 X loads become 26 CNOTs.
    let plain = adders::const_adder(AdderKind::Cdkpm, n, a)
        .unwrap()
        .circuit
        .counts();
    let ctrl = adders::controlled_const_adder(AdderKind::Cdkpm, n, a)
        .unwrap()
        .circuit
        .counts();
    assert_eq!(ctrl.cx - plain.cx, 26);
    assert_eq!(plain.x, 26);
    assert_eq!(ctrl.x, 0);
}

#[test]
fn table6_comparators_golden() {
    let cases = [
        (
            AdderKind::Cdkpm,
            8,
            row("cmp-cdkpm8", 18, 16, 33, 0, 16, 0, 0, 0, 16.0, 33.0),
        ),
        (
            AdderKind::Gidney,
            8,
            row("cmp-gidney8", 25, 8, 43, 8, 16, 8, 8, 8, 8.0, 43.0),
        ),
        (
            AdderKind::Cdkpm,
            32,
            row("cmp-cdkpm32", 66, 64, 129, 0, 64, 0, 0, 0, 64.0, 129.0),
        ),
        (
            AdderKind::Gidney,
            32,
            row("cmp-gidney32", 97, 32, 187, 32, 64, 32, 32, 32, 32.0, 187.0),
        ),
    ];
    for (kind, n, golden) in &cases {
        check(&compare::comparator(*kind, *n).unwrap().circuit, golden);
    }
}

#[test]
fn table1_modular_adders_golden() {
    // The headline table at n = 16, p = 65521 (|p| = 13): every VBE-family
    // architecture, with and without MBU. The expected Toffoli golden is
    // the quantity the paper's "in expectation" column reports; pinning it
    // exactly protects both the constructions and the ½-per-conditional
    // weighting in `ExpectedCounts`.
    let n = 16usize;
    let p = 65521u128;
    type SpecFn = fn(Uncompute) -> ModAddSpec;
    let cases: [(&str, SpecFn, [Golden; 2]); 5] = [
        (
            "vbe5",
            ModAddSpec::vbe5,
            [
                row("vbe5", 68, 316, 319, 0, 61, 0, 0, 0, 316.0, 319.0),
                row("vbe5-mbu", 68, 316, 319, 0, 62, 3, 1, 0, 254.0, 254.5),
            ],
        ),
        (
            "vbe4",
            ModAddSpec::vbe4,
            [
                row("vbe4", 68, 254, 222, 0, 93, 0, 0, 0, 254.0, 222.0),
                row("vbe4-mbu", 68, 254, 222, 0, 94, 3, 1, 0, 223.0, 206.0),
            ],
        ),
        (
            "cdkpm",
            ModAddSpec::cdkpm,
            [
                row("cdkpm", 52, 132, 293, 0, 93, 0, 0, 0, 132.0, 293.0),
                row("cdkpm-mbu", 52, 132, 293, 0, 94, 3, 1, 0, 116.0, 260.5),
            ],
        ),
        (
            "gidney",
            ModAddSpec::gidney,
            [
                row("gidney", 68, 65, 397, 64, 93, 64, 64, 64, 65.0, 397.0),
                row("gidney-mbu", 68, 65, 397, 64, 94, 67, 65, 64, 57.0, 351.5),
            ],
        ),
        (
            "hybrid",
            ModAddSpec::gidney_cdkpm,
            [
                row("hybrid", 52, 100, 344, 31, 93, 31, 31, 31, 100.0, 344.0),
                row("hybrid-mbu", 52, 100, 344, 31, 94, 34, 32, 31, 92.0, 298.5),
            ],
        ),
    ];
    for (_, spec, goldens) in &cases {
        for (unc, golden) in [Uncompute::Unitary, Uncompute::Mbu].iter().zip(goldens) {
            let layout = modular::modadd_circuit(&spec(*unc), n, p).unwrap();
            check(&layout.circuit, golden);
        }
    }
}

/// The MBU rows above encode an H count of `unitary + 3` and exactly one
/// extra Z-measurement: Lemma 4.1's flag measurement. Assert the deltas
/// directly so the structural claim survives re-pinning of absolute values.
#[test]
fn table1_mbu_structural_deltas() {
    let n = 16usize;
    let p = 65521u128;
    type SpecFn = fn(Uncompute) -> ModAddSpec;
    let specs: [(&str, SpecFn); 5] = [
        ("vbe5", ModAddSpec::vbe5),
        ("vbe4", ModAddSpec::vbe4),
        ("cdkpm", ModAddSpec::cdkpm),
        ("gidney", ModAddSpec::gidney),
        ("hybrid", ModAddSpec::gidney_cdkpm),
    ];
    for (name, spec) in specs {
        let plain = modular::modadd_circuit(&spec(Uncompute::Unitary), n, p)
            .unwrap()
            .circuit;
        let mbu = modular::modadd_circuit(&spec(Uncompute::Mbu), n, p)
            .unwrap()
            .circuit;
        let (pc, mc) = (plain.counts(), mbu.counts());
        assert_eq!(mc.h, pc.h + 3, "{name}: MBU adds 3 H (basis changes)");
        assert_eq!(
            mc.measurements(),
            pc.measurements() + 1,
            "{name}: MBU adds the flag measurement"
        );
        assert_eq!(mc.x, pc.x + 1, "{name}: MBU adds the flag-reset X");
        // Worst-case Toffolis match; the saving is in expectation.
        assert_eq!(mc.toffoli, pc.toffoli, "{name}: worst case unchanged");
        assert!(
            mbu.expected_counts().toffoli < plain.expected_counts().toffoli,
            "{name}: expected Toffolis must drop under MBU"
        );
    }
}

/// The branch-tree engine's exact mode must *reproduce* the pinned
/// "in expectation" goldens by direct simulation: walking every
/// measurement history once (no RNG is consumed — the API takes none) and
/// weighting executed counts by branch probability gives exactly the
/// analytic `expected_counts` that `table1_modular_adders_golden` pins
/// (E[Toffoli] = 254, 223, 116 for the VBE-family architectures).
///
/// Gidney-style rows fork once per AND measurement — their trees are
/// legitimately exponential and covered by the Monte-Carlo fallback — so
/// this golden runs the single-flag architectures, on the basis tracker
/// at the table's full n = 16 width.
#[test]
fn table1_expected_counts_reproduced_by_branch_tree_exact_mode() {
    use mbu_sim::{BasisTracker, BranchEnsemble, Simulator};

    let n = 16usize;
    let p = 65521u128;
    type SpecFn = fn(Uncompute) -> ModAddSpec;
    let specs: [(&str, SpecFn, f64, f64); 3] = [
        ("vbe5", ModAddSpec::vbe5, 254.0, 254.5),
        ("vbe4", ModAddSpec::vbe4, 223.0, 206.0),
        ("cdkpm", ModAddSpec::cdkpm, 116.0, 260.5),
    ];
    for (name, spec, etof, ecx) in specs {
        let layout = modular::modadd_circuit(&spec(Uncompute::Mbu), n, p).unwrap();
        let nq = layout.circuit.num_qubits();
        let x = layout.x.qubits().to_vec();
        let y = layout.y.qubits().to_vec();
        let dist = BranchEnsemble::new(0)
            .distribution(&layout.circuit, move || {
                let mut sim = BasisTracker::zeros(nq);
                sim.set_value(&x, 7).unwrap();
                sim.set_value(&y, 9).unwrap();
                Box::new(sim) as Box<dyn Simulator + Send>
            })
            .unwrap();
        // One MBU flag measurement: a two-leaf tree, no pruning, weights
        // exactly ½ — the weighted mean is a dyadic sum and matches the
        // pinned golden with `==`, like every other expectation here.
        assert_eq!(dist.fork_nodes(), 1, "{name}: the flag is the only fork");
        assert_eq!(dist.num_leaves(), 2, "{name}");
        assert_eq!(dist.pruned_mass(), 0.0, "{name}");
        let exact = dist.mean_counts();
        assert_eq!(exact.toffoli, etof, "{name}: exact-mode E[Toffoli]");
        assert_eq!(exact.cx, ecx, "{name}: exact-mode E[CNOT]");
        assert_eq!(
            exact.toffoli,
            layout.circuit.expected_counts().toffoli,
            "{name}: simulation agrees with the analytic weighting"
        );
    }
}

/// The same exact-mode reproduction on the sparse basis map at n = 4:
/// every measurement history runs on the amplitude representation, and
/// the probability-weighted counts must still be the analytic
/// expectation to the last bit.
#[test]
fn table1_expected_counts_reproduced_on_the_sparse_map() {
    use mbu_sim::{BranchEnsemble, Simulator, SparseVector};

    let (n, p) = (4usize, 13u128);
    type SpecFn = fn(Uncompute) -> ModAddSpec;
    let specs: [(&str, SpecFn, f64, f64); 3] = [
        ("vbe5", ModAddSpec::vbe5, 62.0, 66.5),
        ("vbe4", ModAddSpec::vbe4, 55.0, 54.0),
        ("cdkpm", ModAddSpec::cdkpm, 32.0, 72.5),
    ];
    for (name, spec, etof, ecx) in specs {
        let layout = modular::modadd_circuit(&spec(Uncompute::Mbu), n, p).unwrap();
        let nq = layout.circuit.num_qubits();
        let (x, y) = (layout.x.qubits().to_vec(), layout.y.qubits().to_vec());
        let dist = BranchEnsemble::new(0)
            .distribution(&layout.circuit, move || {
                let mut sim = SparseVector::zeros(nq).unwrap();
                sim.set_value(&x, 7).unwrap();
                sim.set_value(&y, 9).unwrap();
                Box::new(sim) as Box<dyn Simulator + Send>
            })
            .unwrap();
        let exact = dist.mean_counts();
        let analytic = layout.circuit.expected_counts();
        assert_eq!(exact.toffoli, etof, "{name}: exact-mode E[Toffoli]");
        assert_eq!(exact.cx, ecx, "{name}: exact-mode E[CNOT]");
        assert_eq!(exact.toffoli, analytic.toffoli, "{name}: E[Toffoli]");
        assert_eq!(exact.cx, analytic.cx, "{name}: E[CNOT]");
    }
}

#[test]
fn beauregard_draper_golden() {
    // Prop 3.7 structure at n ∈ {4, 8}: pure QFT arithmetic — no Toffolis,
    // 2 CNOTs, 6(n+1) H from 3 QFT + 3 IQFT, and the C-R rotation budget.
    for (n, unitary, mbu) in [
        (
            4usize,
            Golden {
                tag: "beauregard4",
                q: 10,
                tof: 0,
                cx: 2,
                cz: 0,
                x: 2,
                h: 30,
                cphase: 107,
                mz: 0,
                mx: 0,
                reset: 0,
                etof: 0.0,
                ecx: 2.0,
            },
            Golden {
                tag: "beauregard4-mbu",
                q: 10,
                tof: 0,
                cx: 2,
                cz: 0,
                x: 3,
                h: 43,
                cphase: 127,
                mz: 1,
                mx: 0,
                reset: 0,
                etof: 0.0,
                ecx: 1.5,
            },
        ),
        (
            8,
            Golden {
                tag: "beauregard8",
                q: 18,
                tof: 0,
                cx: 2,
                cz: 0,
                x: 2,
                h: 54,
                cphase: 357,
                mz: 0,
                mx: 0,
                reset: 0,
                etof: 0.0,
                ecx: 2.0,
            },
            Golden {
                tag: "beauregard8-mbu",
                q: 18,
                tof: 0,
                cx: 2,
                cz: 0,
                x: 3,
                h: 75,
                cphase: 429,
                mz: 1,
                mx: 0,
                reset: 0,
                etof: 0.0,
                ecx: 1.5,
            },
        ),
    ] {
        let p = (1u128 << n) - 1;
        let u = modular::beauregard::modadd_circuit(Uncompute::Unitary, n, p).unwrap();
        check(&u.circuit, &unitary);
        assert_eq!(u.circuit.num_qubits(), 2 * n + 2, "Table 1: 2n+2 qubits");
        let m = modular::beauregard::modadd_circuit(Uncompute::Mbu, n, p).unwrap();
        check(&m.circuit, &mbu);
    }
}

/// Table 1 at benchmark scale: exact fingerprints of every MBU
/// architecture at n = 64, 256 and 1024. These are the widths the sparse
/// backend simulates functionally (below); pinning the constructions at
/// the same sizes ties the resource table and the simulation together.
#[test]
fn table1_mbu_counts_at_scale_golden() {
    type SpecFn = fn(Uncompute) -> ModAddSpec;
    type Case = (SpecFn, usize, Golden);
    #[rustfmt::skip]
    let cases: [Case; 15] = [
        (ModAddSpec::vbe5, 64,
         row("vbe5-64", 260, 1276, 1277, 0, 252, 3, 1, 0, 1022.0, 1020.5)),
        (ModAddSpec::vbe4, 64,
         row("vbe4-64", 260, 1022, 892, 0, 380, 3, 1, 0, 895.0, 828.0)),
        (ModAddSpec::cdkpm, 64,
         row("cdkpm-64", 196, 516, 1155, 0, 380, 3, 1, 0, 452.0, 1026.5)),
        (ModAddSpec::gidney, 64,
         Golden { tag: "gidney-64", q: 260, tof: 257, cx: 1643, cz: 256,
                  x: 380, h: 259, cphase: 0, mz: 257, mx: 0, reset: 256,
                  etof: 225.0, ecx: 1453.5 }),
        (ModAddSpec::gidney_cdkpm, 64,
         Golden { tag: "hybrid-64", q: 196, tof: 388, cx: 1398, cz: 127,
                  x: 380, h: 130, cphase: 0, mz: 128, mx: 0, reset: 127,
                  etof: 356.0, ecx: 1208.5 }),
        (ModAddSpec::vbe5, 256,
         row("vbe5-256", 1028, 5116, 4867, 0, 770, 3, 1, 0, 4094.0, 3842.5)),
        (ModAddSpec::vbe4, 256,
         row("vbe4-256", 1028, 4094, 3330, 0, 1282, 3, 1, 0, 3583.0, 3074.0)),
        (ModAddSpec::cdkpm, 256,
         row("cdkpm-256", 772, 2052, 4361, 0, 1282, 3, 1, 0, 1796.0, 3848.5)),
        (ModAddSpec::gidney, 256,
         Golden { tag: "gidney-256", q: 1028, tof: 1025, cx: 6385, cz: 1024,
                  x: 1282, h: 1027, cphase: 0, mz: 1025, mx: 0, reset: 1024,
                  etof: 897.0, ecx: 5619.5 }),
        (ModAddSpec::gidney_cdkpm, 256,
         Golden { tag: "hybrid-256", q: 772, tof: 1540, cx: 5372, cz: 511,
                  x: 1282, h: 514, cphase: 0, mz: 512, mx: 0, reset: 511,
                  etof: 1412.0, ecx: 4606.5 }),
        (ModAddSpec::vbe5, 1024,
         row("vbe5-1024", 4100, 20476, 18691, 0, 2306, 3, 1, 0, 16382.0, 14594.5)),
        (ModAddSpec::vbe4, 1024,
         row("vbe4-1024", 4100, 16382, 12546, 0, 4354, 3, 1, 0, 14335.0, 11522.0)),
        (ModAddSpec::cdkpm, 1024,
         row("cdkpm-1024", 3076, 8196, 16649, 0, 4354, 3, 1, 0, 7172.0, 14600.5)),
        (ModAddSpec::gidney, 1024,
         Golden { tag: "gidney-1024", q: 4100, tof: 4097, cx: 24817, cz: 4096,
                  x: 4354, h: 4099, cphase: 0, mz: 4097, mx: 0, reset: 4096,
                  etof: 3585.0, ecx: 21747.5 }),
        (ModAddSpec::gidney_cdkpm, 1024,
         Golden { tag: "hybrid-1024", q: 3076, tof: 6148, cx: 20732, cz: 2047,
                  x: 4354, h: 2050, cphase: 0, mz: 2048, mx: 0, reset: 2047,
                  etof: 5636.0, ecx: 17662.5 }),
    ];
    for (spec, n, golden) in &cases {
        let p = mbu_bench::benchmark_modulus(*n);
        let layout = modular::modadd_circuit(&spec(Uncompute::Mbu), *n, p).unwrap();
        check(&layout.circuit, golden);
    }
}

/// The QFT-arithmetic rows of Table 1 at benchmark scale: exact
/// fingerprints of the Beauregard modular adder at n = 256 and 1024 —
/// the widths the phase backend simulates end-to-end below. The rotation
/// budget is the story: millions of controlled phase rotations and not a
/// single Toffoli, which is why these rows are unreachable for the dense
/// engine and exponential for the sparse map, but O(occupied) bookkeeping
/// for the phase accumulator.
#[test]
fn beauregard_counts_at_scale_golden() {
    for (n, unitary, mbu) in [
        (
            256usize,
            Golden {
                tag: "beauregard256",
                q: 514,
                tof: 0,
                cx: 2,
                cz: 0,
                x: 2,
                h: 1542,
                cphase: 313_343,
                mz: 0,
                mx: 0,
                reset: 0,
                etof: 0.0,
                ecx: 2.0,
            },
            Golden {
                tag: "beauregard256-mbu",
                q: 514,
                tof: 0,
                cx: 2,
                cz: 0,
                x: 3,
                h: 2059,
                cphase: 379_135,
                mz: 1,
                mx: 0,
                reset: 0,
                etof: 0.0,
                ecx: 1.5,
            },
        ),
        (
            1024,
            Golden {
                tag: "beauregard1024",
                q: 2050,
                tof: 0,
                cx: 2,
                cz: 0,
                x: 2,
                h: 6150,
                cphase: 4_840_319,
                mz: 0,
                mx: 0,
                reset: 0,
                etof: 0.0,
                ecx: 2.0,
            },
            Golden {
                tag: "beauregard1024-mbu",
                q: 2050,
                tof: 0,
                cx: 2,
                cz: 0,
                x: 3,
                h: 8203,
                cphase: 5_889_919,
                mz: 1,
                mx: 0,
                reset: 0,
                etof: 0.0,
                ecx: 1.5,
            },
        ),
    ] {
        let p = mbu_bench::benchmark_modulus(n);
        let u = modular::beauregard::modadd_circuit(Uncompute::Unitary, n, p).unwrap();
        check(&u.circuit, &unitary);
        assert_eq!(u.circuit.num_qubits(), 2 * n + 2, "Table 1: 2n+2 qubits");
        let m = modular::beauregard::modadd_circuit(Uncompute::Mbu, n, p).unwrap();
        check(&m.circuit, &mbu);
    }
}

/// And the phase backend *runs* those circuits. The Draper wrapping adder
/// at n = 1024 (2048 qubits, ~1.6M controlled rotations) and the
/// Beauregard MBU modular adder at n = 256 and 1024 execute end-to-end on
/// [`PhaseAccumulator`] and reproduce the exact sums bit for bit, with the
/// occupied-branch peak pinned at 1–2: the QFT interior is pure dyadic
/// phase bookkeeping, so occupancy never grows at all. (The circuits run
/// interpreted — at these instruction counts the compile passes, not the
/// simulation, would dominate a debug-profile test run.)
#[test]
fn draper_beauregard_functional_at_scale_on_phase() {
    use mbu_arith::adders::draper;
    use mbu_circuit::CircuitBuilder;
    use mbu_sim::{PhaseAccumulator, Simulator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    // Draper wrapping add, n = 1024: |x⟩|y⟩ → |x⟩|(x + y) mod 2^1024⟩.
    let n = 1024usize;
    let mut b = CircuitBuilder::new();
    let x = b.qreg("x", n);
    let y = b.qreg("y", n);
    draper::wrapping_add(&mut b, x.qubits(), y.qubits()).unwrap();
    let circuit = b.finish();
    let c = circuit.counts();
    assert_eq!(circuit.num_qubits(), 2048, "draper-wrap-1024: qubits");
    assert_eq!(c.h, 2048, "draper-wrap-1024: H (QFT + IQFT)");
    assert_eq!(c.cphase, 1_572_352, "draper-wrap-1024: C-R rotations");
    assert_eq!(c.toffoli, 0, "draper-wrap-1024: no Toffolis at all");
    let xv = (1u128 << 127) - 5;
    let yv = (1u128 << 126) + 3;
    let mut sim = PhaseAccumulator::zeros(circuit.num_qubits()).unwrap();
    sim.set_value(x.qubits(), xv).unwrap();
    sim.set_value(y.qubits(), yv).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    Simulator::run(&mut sim, &circuit, &mut rng).unwrap();
    let want = xv + yv; // both < 2^127: no wrap in a 1024-bit register
    for (i, q) in y.qubits().iter().enumerate() {
        let w = i < 128 && (want >> i) & 1 == 1;
        assert_eq!(sim.bit(*q).unwrap(), w, "draper-wrap-1024: sum bit {i}");
    }
    assert_eq!(sim.occupied(), 1, "draper-wrap-1024: basis in, basis out");
    assert_eq!(
        sim.occupancy_peak(),
        Some(1),
        "draper-wrap-1024: no fan-out"
    );

    // Beauregard MBU modular adder at n = 256 and 1024.
    for n in [256usize, 1024] {
        let p = mbu_bench::benchmark_modulus(n);
        let xv = p - 1;
        let yv = p / 2 + 1;
        let layout = modular::beauregard::modadd_circuit(Uncompute::Mbu, n, p).unwrap();
        let mut sim = PhaseAccumulator::zeros(layout.circuit.num_qubits()).unwrap();
        sim.set_value(layout.x.qubits(), xv).unwrap();
        sim.set_value(layout.y.qubits(), yv).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        Simulator::run(&mut sim, &layout.circuit, &mut rng).unwrap();
        let sum = (xv + yv) % p;
        for (i, q) in layout.x.qubits().iter().enumerate() {
            let w = i < 128 && (xv >> i) & 1 == 1;
            assert_eq!(sim.bit(*q).unwrap(), w, "beauregard-{n}: x bit {i}");
        }
        for (i, q) in layout.y.qubits().iter().enumerate() {
            let w = i < 128 && (sum >> i) & 1 == 1;
            assert_eq!(sim.bit(*q).unwrap(), w, "beauregard-{n}: sum bit {i}");
        }
        assert_eq!(
            sim.occupied(),
            1,
            "beauregard-{n}: MBU leaves a basis state"
        );
        assert_eq!(
            sim.occupancy_peak(),
            Some(2),
            "beauregard-{n}: the MBU flag is the only fan-out"
        );
    }
}

/// The counts above are not just structural claims: the sparse backend
/// *runs* the Table-1 circuits at n = 64, 256 and 1024 and reproduces the
/// paper's modular sum bit for bit. A dense statevector at these widths
/// would need 2^196 … 2^3076 amplitudes; the sparse map's occupancy
/// high-water mark stays in single digits, because a modular adder only
/// ever fans out at the handful of MBU/AND measurements in flight.
#[test]
fn table1_functional_at_scale_on_sparse() {
    use mbu_circuit::CompiledCircuit;
    use mbu_sim::{Simulator, SparseVector};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    type SpecFn = fn(Uncompute) -> ModAddSpec;
    // (architecture, n, pinned occupancy peak for seed 7).
    let runs: [(&'static str, SpecFn, usize, u64); 8] = [
        ("vbe5", ModAddSpec::vbe5, 64, 2),
        ("vbe4", ModAddSpec::vbe4, 64, 2),
        ("cdkpm", ModAddSpec::cdkpm, 64, 2),
        ("gidney", ModAddSpec::gidney, 64, 4),
        ("hybrid", ModAddSpec::gidney_cdkpm, 64, 2),
        ("cdkpm", ModAddSpec::cdkpm, 256, 2),
        ("gidney", ModAddSpec::gidney, 256, 4),
        ("cdkpm", ModAddSpec::cdkpm, 1024, 2),
    ];
    for (name, spec, n, peak) in runs {
        let p = mbu_bench::benchmark_modulus(n);
        let x = p - 1;
        let y = p / 2 + 1;
        let layout = modular::modadd_circuit(&spec(Uncompute::Mbu), n, p).unwrap();
        let nq = layout.circuit.num_qubits();
        let compiled = CompiledCircuit::compile(&layout.circuit).unwrap();

        let mut sp = SparseVector::zeros(nq).unwrap();
        sp.set_value(layout.x.qubits(), x).unwrap();
        sp.set_value(layout.y.qubits(), y).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        sp.run_compiled(&compiled, &mut rng).unwrap();

        // |x⟩|y⟩ → |x⟩|(x + y) mod p⟩, read bit by bit — the registers
        // are wider than any native integer.
        let sum = (x + y) % p;
        for (i, q) in layout.x.qubits().iter().enumerate() {
            let want = i < 128 && (x >> i) & 1 == 1;
            assert_eq!(sp.bit(*q).unwrap(), want, "{name} n={n}: x bit {i}");
        }
        for (i, q) in layout.y.qubits().iter().enumerate() {
            let want = i < 128 && (sum >> i) & 1 == 1;
            assert_eq!(sp.bit(*q).unwrap(), want, "{name} n={n}: sum bit {i}");
        }
        // MBU leaves no superposition behind, and the in-flight peak is
        // the paper's headline: hundreds of qubits, single-digit states.
        assert_eq!(sp.occupied(), 1, "{name} n={n}");
        assert_eq!(sp.peak_amplitudes(), Some(peak), "{name} n={n}");
    }
}

/// A `PassStats` golden: one value per [`pass_counters`] entry.
type Counters = [u64; 10];

/// The named `PassStats` counters a golden pins, in table order.
fn pass_counters(s: &mbu_circuit::PassStats) -> [(&'static str, u64); 10] {
    [
        ("lowered_instrs", s.lowered_instrs as u64),
        ("dead_qubits_reclaimed", s.dead_qubits_reclaimed),
        ("fused_blocks", s.fused_blocks),
        ("fused_gates", s.fused_gates),
        ("emitted_instrs", s.emitted_instrs as u64),
        ("segments", s.segments as u64),
        ("fork_points", s.fork_points as u64),
        ("planned_dense", s.planned_dense as u64),
        ("planned_sparse", s.planned_sparse as u64),
        ("planned_phase", s.planned_phase as u64),
    ]
}

/// A segment-profile digest of a compiled program: Σ `support_width`,
/// Σ `h_count`, Σ `diag_count` and max `occ_ceiling_log2` over its
/// [`segment_profiles`](mbu_circuit::CompiledCircuit::segment_profiles).
type ProfileDigest = [u64; 4];

fn profile_digest(compiled: &mbu_circuit::CompiledCircuit) -> ProfileDigest {
    let profiles = compiled.segment_profiles();
    [
        profiles.iter().map(|p| p.support_width as u64).sum(),
        profiles.iter().map(|p| u64::from(p.h_count)).sum(),
        profiles.iter().map(|p| u64::from(p.diag_count)).sum(),
        profiles
            .iter()
            .map(|p| u64::from(p.occ_ceiling_log2))
            .max()
            .unwrap_or(0),
    ]
}

/// Compiles `circuit` with the default passes and checks every counter
/// and the profile digest; returns the stats for further checks. No pass
/// removes a gate, so the four removal counters must read 0.
fn check_pass_stats(
    tag: &str,
    circuit: &Circuit,
    want: Counters,
    digest: ProfileDigest,
) -> mbu_circuit::PassStats {
    let compiled = mbu_circuit::CompiledCircuit::compile(circuit).unwrap();
    for ((name, got), want) in pass_counters(compiled.stats()).into_iter().zip(want) {
        assert_eq!(got, want, "{tag}: PassStats::{name}");
    }
    let s = compiled.stats();
    assert_eq!(
        [
            s.cancelled,
            s.merged,
            s.identities_removed,
            s.phase_dead_removed
        ],
        [0; 4],
        "{tag}: removal counters"
    );
    assert_eq!(profile_digest(&compiled), digest, "{tag}: profile digest");
    *compiled.stats()
}

#[test]
fn table1_wide_pass_stats_golden() {
    // The modadd_wide benchmark rows: the five ripple Table-1 rows ×
    // {MBU, unitary} × n ∈ {256, 1024}, p = 2^127 − 1. Columns follow
    // `pass_counters`: lowered, reclaimed, fused blocks, fused gates,
    // emitted, segments, fork points, planned dense / sparse / phase.
    // (row, spec, n, MBU counters, unitary counters).
    type Row = (
        &'static str,
        fn(Uncompute) -> ModAddSpec,
        usize,
        Counters,
        Counters,
    );
    let p = (1u128 << 127) - 1;
    let rows: [Row; 10] = [
        (
            "vbe5",
            ModAddSpec::vbe5,
            256,
            [10758, 1, 529, 9980, 1308, 2, 1, 0, 2, 0],
            [10752, 0, 528, 9977, 1303, 1, 0, 0, 1, 0],
        ),
        (
            "vbe4",
            ModAddSpec::vbe4,
            256,
            [8711, 1, 426, 7420, 1718, 2, 1, 0, 2, 0],
            [8705, 0, 426, 7421, 1710, 1, 0, 0, 1, 0],
        ),
        (
            "cdkpm",
            ModAddSpec::cdkpm,
            256,
            [7700, 1, 310, 6457, 1554, 2, 1, 0, 2, 0],
            [7694, 0, 310, 6458, 1546, 1, 0, 0, 1, 0],
        ),
        (
            "gidney",
            ModAddSpec::gidney,
            256,
            [13817, 514, 1245, 6398, 9178, 2050, 2049, 0, 2050, 0],
            [13811, 514, 1245, 6416, 9154, 2050, 2048, 0, 2050, 0],
        ),
        (
            "hybrid",
            ModAddSpec::gidney_cdkpm,
            256,
            [10754, 257, 776, 6423, 5364, 1024, 1023, 0, 1024, 0],
            [10748, 257, 776, 6425, 5356, 1023, 1022, 0, 1023, 0],
        ),
        (
            "vbe5",
            ModAddSpec::vbe5,
            1024,
            [41478, 1, 2063, 39169, 4373, 2, 1, 0, 2, 0],
            [41472, 0, 2063, 39169, 4366, 1, 0, 0, 1, 0],
        ),
        (
            "vbe4",
            ModAddSpec::vbe4,
            1024,
            [33287, 1, 1654, 28937, 6005, 2, 1, 0, 2, 0],
            [33281, 0, 1654, 28939, 5996, 1, 0, 0, 1, 0],
        ),
        (
            "cdkpm",
            ModAddSpec::cdkpm,
            1024,
            [29204, 1, 1187, 24855, 5537, 2, 1, 0, 2, 0],
            [29198, 0, 1187, 24856, 5529, 1, 0, 0, 1, 0],
        ),
        (
            "gidney",
            ModAddSpec::gidney,
            1024,
            [53753, 2050, 4931, 24830, 35904, 8194, 8193, 0, 8194, 0],
            [53747, 2050, 4932, 24846, 35883, 8194, 8192, 0, 8194, 0],
        ),
        (
            "hybrid",
            ModAddSpec::gidney_cdkpm,
            1024,
            [41474, 1025, 3058, 24857, 20700, 4096, 4095, 0, 4096, 0],
            [41468, 1025, 3058, 24859, 20692, 4096, 4094, 0, 4096, 0],
        ),
    ];
    // Each row's profile digests (see `profile_digest`): [MBU, unitary].
    let digests: [[ProfileDigest; 2]; 10] = [
        [[1798, 3, 0, 2], [1028, 0, 0, 0]],
        [[1797, 3, 0, 2], [1028, 0, 0, 0]],
        [[1286, 3, 0, 2], [772, 0, 0, 0]],
        [[9590, 1027, 1024, 2], [9463, 1024, 1024, 1]],
        [[5367, 514, 511, 2], [4852, 511, 511, 1]],
        [[7174, 3, 0, 2], [4100, 0, 0, 0]],
        [[7173, 3, 0, 2], [4100, 0, 0, 0]],
        [[5126, 3, 0, 2], [3076, 0, 0, 0]],
        [[38006, 4099, 4096, 2], [37879, 4096, 4096, 1]],
        [[21495, 2050, 2047, 2], [19445, 2047, 2047, 1]],
    ];
    for ((name, spec, n, mbu, unitary), [mbu_digest, unitary_digest]) in
        rows.into_iter().zip(digests)
    {
        for (unc, want, digest) in [
            (Uncompute::Mbu, mbu, mbu_digest),
            (Uncompute::Unitary, unitary, unitary_digest),
        ] {
            let layout = modular::modadd_circuit(&spec(unc), n, p).unwrap();
            check_pass_stats(&format!("{name}{n}-{unc:?}"), &layout.circuit, want, digest);
        }
    }
}

#[test]
fn beauregard_pass_stats_golden() {
    // The qft_phase benchmark program: 92,500 lowered instructions. The
    // last row is its profile digest (see `profile_digest`). The packing
    // step folds 90,162 of its 90,298 `CPhase` instructions into 1,388
    // gradients, which leaves 2,594 of the 91,368 instructions fusion and
    // reclamation emit.
    let p = (1u128 << 127) - 1;
    let layout = modular::beauregard::modadd_circuit(Uncompute::Mbu, 128, p).unwrap();
    let stats = check_pass_stats(
        "beauregard128-Mbu",
        &layout.circuit,
        [92500, 1, 556, 1689, 2594, 2, 1, 0, 0, 2],
        [516, 1035, 91458, 258],
    );
    assert_eq!((stats.gradients, stats.gradient_gates), (1388, 90162));
}
