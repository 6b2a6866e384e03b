//! Acceptance suite for the static verifier on the paper's workloads.
//!
//! The compiler's Layer-2 equivalence checker must *prove* — without
//! simulating a single amplitude — that both fusion passes and the
//! dead-qubit reclamation pass preserve every Table 1–6 circuit at the
//! paper's benchmark width n = 64. The proof obligation is
//! discharged symbolically: the checker walks the lowered and the
//! optimised instruction streams in lockstep and keeps their difference
//! operator in the exact ring `Z[e^{2πiθ}, 1/√2]`, so `Equal` here is a
//! theorem about the unitaries, not a float comparison at one input.
//!
//! The suite also pins the *localisation* contract: a single mutated
//! instruction in an otherwise-identical stream must be flagged at its
//! exact program counter, on randomly chosen instructions across gate
//! families (angle bumps, basis swaps, operand swaps).

use mbu_arith::{adders, compare, modular::beauregard, resources::Table1Row, AdderKind, Uncompute};
use mbu_bench::{benchmark_modulus, build_row_circuit};
use mbu_circuit::{
    check_equivalence, check_equivalence_with, Angle, Circuit, CompiledCircuit, EquivOptions,
    Equivalence, Gate, Instr, PassConfig, PhaseGradient, ProgramView, QubitId,
};
use proptest::prelude::*;

/// The paper's headline benchmark width (Table 1 reports n = 64 rows).
const N: usize = 64;

const ALL_KINDS: [AdderKind; 4] = [
    AdderKind::Vbe,
    AdderKind::Cdkpm,
    AdderKind::Gidney,
    AdderKind::Draper,
];

/// Proves each optimising configuration equivalent to the plain lowering
/// of `circuit`, symbolically.
fn prove_passes(circuit: &Circuit, label: &str) {
    let lowered = CompiledCircuit::lower(circuit).unwrap();
    let configs = [
        // Both fusion passes alone (dense blocks and permutation runs),
        // reclamation off.
        (
            "fusion",
            PassConfig {
                fuse_max_qubits: 3,
                ..PassConfig::none()
            },
        ),
        // The default pipeline: fusion + reclamation.
        ("default", PassConfig::default()),
    ];
    for (name, config) in configs {
        let compiled = CompiledCircuit::with_config(circuit, &config).unwrap();
        let verdict = check_equivalence(&lowered, &compiled);
        assert!(
            verdict.is_equal(),
            "{label} [{name}] failed the symbolic proof: {verdict}"
        );
    }
}

/// Tables 2–6: every standalone primitive at n = 64, every architecture.
#[test]
fn table_2_to_6_primitives_prove_equal_at_n64() {
    let a = benchmark_modulus(N); // a dense-bit 64-bit constant
    for kind in ALL_KINDS {
        let label = |what: &str| format!("{kind:?} {what} (n = {N})");
        prove_passes(
            &adders::plain_adder(kind, N).unwrap().circuit,
            &label("plain adder"),
        );
        prove_passes(
            &adders::subtractor(kind, N).unwrap().circuit,
            &label("subtractor"),
        );
        prove_passes(
            &adders::controlled_adder(kind, N).unwrap().circuit,
            &label("controlled adder"),
        );
        prove_passes(
            &adders::const_adder(kind, N, a).unwrap().circuit,
            &label("const adder"),
        );
        prove_passes(
            &adders::controlled_const_adder(kind, N, a).unwrap().circuit,
            &label("controlled const adder"),
        );
        prove_passes(
            &compare::comparator(kind, N).unwrap().circuit,
            &label("comparator"),
        );
    }
}

/// Table 1: every MBU modular-adder architecture row at n = 64, against
/// the benchmark modulus (the largest prime below 2^64).
#[test]
fn table1_modadd_rows_prove_equal_at_n64() {
    let p = benchmark_modulus(N);
    let rows = [
        Table1Row::Vbe5,
        Table1Row::Vbe4,
        Table1Row::Cdkpm,
        Table1Row::Gidney,
        Table1Row::CdkpmGidney,
        Table1Row::Draper,
    ];
    for row in rows {
        let layout = build_row_circuit(row, Uncompute::Mbu, N, p).unwrap();
        prove_passes(&layout.circuit, &format!("{row:?} modadd (n = {N})"));
    }
}

/// `compiled`'s stream before packing: every gradient replayed as its
/// `CPhase` gates, and the branch skips stretched to match.
fn unpacked(compiled: &CompiledCircuit) -> Vec<Instr> {
    let table = compiled.gradients();
    let instrs = compiled.instrs();
    let width = |i: &Instr| match i {
        Instr::Gradient(idx) => table[*idx as usize].terms().len(),
        _ => 1,
    };
    let mut starts = vec![0usize; instrs.len() + 1];
    for (pc, i) in instrs.iter().enumerate() {
        starts[pc + 1] = starts[pc] + width(i);
    }
    let mut out = Vec::with_capacity(starts[instrs.len()]);
    for (pc, i) in instrs.iter().enumerate() {
        match i {
            Instr::Gradient(idx) => out.extend(table[*idx as usize].gates().map(Instr::Gate)),
            Instr::BranchUnless { clbit, skip } => {
                let join = pc + 1 + *skip as usize;
                out.push(Instr::BranchUnless {
                    clbit: *clbit,
                    skip: u32::try_from(starts[join] - starts[pc + 1]).unwrap(),
                });
            }
            other => out.push(*other),
        }
    }
    out
}

/// Proves `circuit`'s packed programs, lowered and default-compiled,
/// equal to their unpacked streams; returns the gradients packed.
fn prove_packing(circuit: &Circuit, label: &str) -> u64 {
    let mut packed = 0;
    for compiled in [
        CompiledCircuit::lower(circuit).unwrap(),
        CompiledCircuit::compile(circuit).unwrap(),
    ] {
        let flat = unpacked(&compiled);
        let pre = ProgramView::new(
            compiled.num_qubits(),
            compiled.num_clbits(),
            &flat,
            compiled.fused_unitaries(),
        );
        let verdict = check_equivalence_with(&pre, &compiled.view(), &Default::default());
        assert!(
            verdict.is_equal(),
            "{label}: packing failed the symbolic proof: {verdict}"
        );
        packed += compiled.stats().gradients;
    }
    packed
}

/// The packing step on every QFT-architecture circuit at n ≤ 64, where
/// the angles (down to `2π/2^66`) stay inside the checker's `2^128`
/// domain: the Draper primitives and modular adder and the Beauregard
/// adders, in both uncompute modes and with 0–2 controls on the constant
/// adder.
#[test]
fn packing_proves_equal_on_draper_and_beauregard_at_n64() {
    let n = N;
    let p = benchmark_modulus(n);
    let a = p / 3;
    let kind = AdderKind::Draper;
    let mut circuits = vec![
        ("plain adder", adders::plain_adder(kind, n).unwrap().circuit),
        ("subtractor", adders::subtractor(kind, n).unwrap().circuit),
        (
            "controlled adder",
            adders::controlled_adder(kind, n).unwrap().circuit,
        ),
        (
            "const adder",
            adders::const_adder(kind, n, a).unwrap().circuit,
        ),
        (
            "controlled const adder",
            adders::controlled_const_adder(kind, n, a).unwrap().circuit,
        ),
        ("comparator", compare::comparator(kind, n).unwrap().circuit),
    ];
    for unc in [Uncompute::Mbu, Uncompute::Unitary] {
        circuits.push((
            "Draper modadd",
            build_row_circuit(Table1Row::Draper, unc, n, p)
                .unwrap()
                .circuit,
        ));
        circuits.push((
            "Beauregard modadd",
            beauregard::modadd_circuit(unc, n, p).unwrap().circuit,
        ));
        for controls in 0..3 {
            circuits.push((
                "Beauregard const modadd",
                beauregard::modadd_const_circuit(unc, controls, n, a, p)
                    .unwrap()
                    .circuit,
            ));
        }
    }
    for (label, circuit) in &circuits {
        let packed = prove_packing(circuit, label);
        assert!(packed > 0, "{label}: nothing packed");
    }
}

/// Builds with debug assertions on (the default test profile and the
/// careful one) verify every compile end to end and stamp the stats line;
/// release builds skip the inline verifier and stamp that instead.
#[test]
fn compiled_programs_arrive_verified_under_the_careful_profile() {
    let adder = adders::plain_adder(AdderKind::Cdkpm, 8).unwrap();
    let compiled = CompiledCircuit::compile(&adder.circuit).unwrap();
    compiled
        .verify()
        .expect("a fresh compile re-verifies clean");
    let stats = compiled.stats();
    if cfg!(debug_assertions) {
        assert!(stats.verified, "careful profile verifies inline");
        assert!(!stats.verify_skipped);
        assert!(
            stats.to_string().contains("verified"),
            "the stats line surfaces the verification outcome"
        );
    } else {
        assert!(!stats.verified, "release builds skip the inline verifier");
        assert!(stats.verify_skipped);
        assert!(
            stats.to_string().contains("verify skipped"),
            "the stats line surfaces the skip"
        );
    }
}

/// Layer 1 pinpoints an injected malformed operand at its exact pc.
#[test]
fn validator_pinpoints_an_injected_out_of_range_operand() {
    let adder = adders::plain_adder(AdderKind::Gidney, 8).unwrap();
    let compiled = CompiledCircuit::lower(&adder.circuit).unwrap();
    let mut instrs = compiled.instrs().to_vec();
    let target = instrs.len() / 2;
    instrs[target] = Instr::Gate(Gate::X(QubitId(u32::MAX)));
    let view = ProgramView::new(
        compiled.num_qubits(),
        compiled.num_clbits(),
        &instrs,
        compiled.fused_unitaries(),
    );
    let findings = mbu_circuit::validate(&view);
    assert!(!findings.is_empty(), "the bad operand must be flagged");
    assert_eq!(findings[0].pc(), Some(target), "flagged at the exact pc");
}

/// The gate-family pools a random mutation picks its target from.
fn phase_pcs(instrs: &[Instr]) -> Vec<usize> {
    instrs
        .iter()
        .enumerate()
        .filter(|(_, i)| {
            matches!(
                i,
                Instr::Gate(Gate::Phase(..) | Gate::CPhase(..) | Gate::CcPhase(..))
            )
        })
        .map(|(pc, _)| pc)
        .collect()
}

fn x_pcs(instrs: &[Instr]) -> Vec<usize> {
    instrs
        .iter()
        .enumerate()
        .filter(|(_, i)| matches!(i, Instr::Gate(Gate::X(_))))
        .map(|(pc, _)| pc)
        .collect()
}

fn cx_pcs(instrs: &[Instr]) -> Vec<usize> {
    instrs
        .iter()
        .enumerate()
        .filter(|(_, i)| matches!(i, Instr::Gate(Gate::Cx(..))))
        .map(|(pc, _)| pc)
        .collect()
}

/// Bumps a phase-family angle by a quarter turn — always a different
/// unitary, never out of the dyadic domain for adder angles.
fn bump_angle(instr: &Instr) -> Instr {
    let quarter = Angle::turn_over_power_of_two(2);
    let bump = |theta: &Angle| {
        theta
            .checked_add(quarter)
            .expect("adder angles are shallow")
    };
    match instr {
        Instr::Gate(Gate::Phase(q, theta)) => Instr::Gate(Gate::Phase(*q, bump(theta))),
        Instr::Gate(Gate::CPhase(a, b, theta)) => Instr::Gate(Gate::CPhase(*a, *b, bump(theta))),
        Instr::Gate(Gate::CcPhase(a, b, c, theta)) => {
            Instr::Gate(Gate::CcPhase(*a, *b, *c, bump(theta)))
        }
        other => unreachable!("not a phase-family instruction: {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A single mutated instruction is flagged at its exact pc: the
    /// difference operator leaves the identity right there and the
    /// checker's first-divergence bookkeeping reports that pair.
    #[test]
    fn random_single_instruction_mutations_are_localised_exactly(
        idx in 0usize..10_000,
        family in 0u8..3,
    ) {
        // Draper is phase-rich; Gidney is X/CX-rich with MBU measurement
        // barriers and conditional fixups in the stream.
        let kind = if family == 0 { AdderKind::Draper } else { AdderKind::Gidney };
        let adder = adders::plain_adder(kind, 8).unwrap();
        let compiled = CompiledCircuit::lower(&adder.circuit).unwrap();
        let instrs = compiled.instrs().to_vec();
        let pool = match family {
            0 => phase_pcs(&instrs),
            1 => x_pcs(&instrs),
            _ => cx_pcs(&instrs),
        };
        prop_assume!(!pool.is_empty());
        let pc = pool[idx % pool.len()];
        let mut mutated = instrs.clone();
        mutated[pc] = match family {
            0 => bump_angle(&instrs[pc]),
            1 => {
                let Instr::Gate(Gate::X(q)) = instrs[pc] else { unreachable!() };
                Instr::Gate(Gate::Z(q))
            }
            _ => {
                let Instr::Gate(Gate::Cx(c, t)) = instrs[pc] else { unreachable!() };
                Instr::Gate(Gate::Cx(t, c))
            }
        };
        let nq = compiled.num_qubits();
        let nc = compiled.num_clbits();
        let fused = compiled.fused_unitaries();
        let gradients = compiled.gradients();
        let pre = ProgramView::new(nq, nc, &instrs, fused).with_gradients(gradients);
        let post = ProgramView::new(nq, nc, &mutated, fused).with_gradients(gradients);
        let verdict = check_equivalence_with(&pre, &post, &Default::default());
        let Equivalence::Diverged { pre_pc, post_pc, .. } = verdict else {
            panic!("a mutated stream must diverge, got {verdict}");
        };
        prop_assert_eq!(pre_pc, pc, "pre-stream pc");
        prop_assert_eq!(post_pc, pc, "post-stream pc");
    }
}

/// One gradient of `program` rebuilt by `edit`, with every other
/// instruction and table entry kept.
fn with_gradient(
    program: &CompiledCircuit,
    idx: usize,
    edit: impl FnOnce(&PhaseGradient) -> PhaseGradient,
) -> Vec<PhaseGradient> {
    let mut table = program.gradients().to_vec();
    table[idx] = edit(&table[idx]);
    table
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A gradient with one exponent moved, one control moved to a fresh
    /// qubit (one the gradient does not touch) or its sign flipped
    /// diverges at the gradient's own pc. A flipped sign changes every
    /// term, so the difference spans all of the gradient's controls: it
    /// is drawn from gradients narrow enough (at most 4 terms) for a
    /// support cap of 5, which keeps the symbolic matrices small.
    #[test]
    fn mutated_gradients_diverge_at_their_pc(
        idx in 0usize..10_000,
        term in 0usize..10_000,
        kind in 0u8..3,
    ) {
        let adder = adders::plain_adder(AdderKind::Draper, 8).unwrap();
        let compiled = CompiledCircuit::lower(&adder.circuit).unwrap();
        let instrs = compiled.instrs();
        let pool: Vec<usize> = compiled
            .gradients()
            .iter()
            .enumerate()
            .filter(|(_, g)| kind != 2 || g.terms().len() <= 4)
            .map(|(i, _)| i)
            .collect();
        let g = pool[idx % pool.len()];
        let nq = compiled.num_qubits();
        let table = with_gradient(&compiled, g, |pg| {
            let mut terms = pg.terms().to_vec();
            let t = term % terms.len();
            let negative = pg.is_negative();
            match kind {
                0 => terms[t].1 = terms.iter().map(|&(_, k)| k).max().unwrap() + 1,
                1 => {
                    let fresh: Vec<QubitId> = (0..nq as u32)
                        .map(QubitId)
                        .filter(|&q| q != pg.target() && terms.iter().all(|&(c, _)| c != q))
                        .collect();
                    terms[t].0 = fresh[term % fresh.len()];
                }
                _ => return PhaseGradient::new(pg.target(), !negative, terms),
            }
            PhaseGradient::new(pg.target(), negative, terms)
        });
        let pc = instrs
            .iter()
            .position(|i| *i == Instr::Gradient(g as u32))
            .unwrap();
        let fused = compiled.fused_unitaries();
        let post = ProgramView::new(nq, compiled.num_clbits(), instrs, fused).with_gradients(&table);
        let opts = EquivOptions { max_support: 5 };
        let verdict = check_equivalence_with(&compiled.view(), &post, &opts);
        let Equivalence::Diverged { pre_pc, post_pc, .. } = verdict else {
            panic!("a mutated gradient must diverge, got {verdict}");
        };
        prop_assert_eq!((pre_pc, post_pc), (pc, pc));
    }
}
