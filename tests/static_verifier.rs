//! Acceptance suite for the static verifier on the paper's workloads.
//!
//! The compiler's Layer-2 equivalence checker must *prove* — without
//! simulating a single amplitude — that the peephole window, both fusion
//! passes and the dead-qubit reclamation pass preserve every Table 1–6
//! circuit at the paper's benchmark width n = 64. The proof obligation is
//! discharged symbolically: the checker walks the lowered and the
//! optimised instruction streams in lockstep and keeps their difference
//! operator in the exact ring `Z[e^{2πiθ}, 1/√2]`, so `Equal` here is a
//! theorem about the unitaries, not a float comparison at one input.
//!
//! The suite also pins the *localisation* contract: a single mutated
//! instruction in an otherwise-identical stream must be flagged at its
//! exact program counter, on randomly chosen instructions across gate
//! families (angle bumps, basis swaps, operand swaps).

use mbu_arith::{adders, compare, resources::Table1Row, AdderKind, Uncompute};
use mbu_bench::{benchmark_modulus, build_row_circuit};
use mbu_circuit::{
    check_equivalence, check_equivalence_with, Angle, Circuit, CompiledCircuit, Equivalence, Gate,
    Instr, PassConfig, ProgramView, QubitId,
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
        // The peephole window alone (cancellation, rotation merging,
        // identity removal), fusion and reclamation off.
        (
            "peephole",
            PassConfig {
                fuse_max_qubits: 0,
                reclaim_dead_qubits: false,
                ..PassConfig::default()
            },
        ),
        // Both fusion passes alone (dense blocks and permutation runs),
        // with the peephole window off.
        (
            "fusion",
            PassConfig {
                fuse_max_qubits: 3,
                ..PassConfig::none()
            },
        ),
        // The default pipeline: peephole + fusion + reclamation.
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
        let pre = ProgramView::new(nq, nc, &instrs, fused);
        let post = ProgramView::new(nq, nc, &mutated, fused);
        let verdict = check_equivalence_with(&pre, &post, &Default::default());
        let Equivalence::Diverged { pre_pc, post_pc, .. } = verdict else {
            panic!("a mutated stream must diverge, got {verdict}");
        };
        prop_assert_eq!(pre_pc, pc, "pre-stream pc");
        prop_assert_eq!(post_pc, pc, "post-stream pc");
    }
}
