//! Equivalence proptests for the compiled execution engine.
//!
//! Three layers of guarantee, from strongest to weakest:
//!
//! * **lowering is exact**: for random adaptive circuits, executing the
//!   lowered instruction stream produces bit-identical amplitudes,
//!   classical records and executed counts to the interpreted tree walk,
//!   given the same RNG stream;
//! * **default passes are exact up to float re-association**: cancelling a
//!   gate pair skips two floating-point rounding steps, so amplitudes are
//!   compared within 1e-9 — but measurement outcomes and classical records
//!   must match exactly;
//! * **aggressive passes are exact up to global phase**: phase-dead
//!   elimination may rotate the collapsed state by a global phase, and
//!   nothing else.
//!
//! Plus the paper's workload: random MBU modular adders must compute
//! `(x + y) mod p` identically under interpreted and compiled execution.

use mbu_arith::{
    modular::{self, ModAddSpec},
    Uncompute,
};
use mbu_circuit::{Angle, Basis, Circuit, ClbitId, CompiledCircuit, Gate, Op, PassConfig, QubitId};
use mbu_sim::{Executed, Simulator, StateVector};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One raw entry of a generated program; [`build_circuit`] maps it onto
/// in-range, distinct qubits.
type Spec = (u8, u32, u32, u32, u32);

/// Builds a random adaptive circuit over `nq` qubits from raw specs:
/// unitary gates of every family, mid-circuit measurements in both bases,
/// resets, and conditional blocks over previously written classical bits.
fn build_circuit(nq: usize, specs: &[Spec]) -> Circuit {
    let nqu = u32::try_from(nq).unwrap();
    let mut ops = Vec::new();
    let mut written: Vec<ClbitId> = Vec::new();
    let mut next_clbit = 0u32;
    for &(kind, a, b, c, k) in specs {
        let qa = QubitId(a % nqu);
        let qb = QubitId((qa.0 + 1 + b % (nqu - 1)) % nqu);
        let rest: Vec<u32> = (0..nqu).filter(|x| *x != qa.0 && *x != qb.0).collect();
        let theta = Angle::from_fraction(u128::from(c % 16), 1 + k % 4);
        let gate = match kind % 11 {
            0 => Gate::X(qa),
            1 => Gate::Z(qa),
            2 => Gate::H(qa),
            3 => Gate::Phase(qa, theta),
            4 => Gate::Cx(qa, qb),
            5 => Gate::Cz(qa, qb),
            6 => Gate::Swap(qa, qb),
            7 => Gate::CPhase(qa, qb, theta),
            n3 @ 8..=10 => {
                if rest.is_empty() {
                    Gate::Cx(qa, qb) // 2-qubit fallback on narrow circuits
                } else {
                    let qc = QubitId(rest[c as usize % rest.len()]);
                    match n3 {
                        8 => Gate::Ccx(qa, qb, qc),
                        9 => Gate::Ccz(qa, qb, qc),
                        _ => Gate::CcPhase(qa, qb, qc, theta),
                    }
                }
            }
            _ => unreachable!(),
        };
        match kind {
            0..=10 => ops.push(Op::Gate(gate)),
            11 | 12 => {
                let clbit = ClbitId(next_clbit);
                next_clbit += 1;
                written.push(clbit);
                ops.push(Op::Measure {
                    qubit: qa,
                    basis: if kind == 11 { Basis::Z } else { Basis::X },
                    clbit,
                });
            }
            13 => ops.push(Op::Reset(qa)),
            _ => {
                // Conditional over a previously written bit, guarding the
                // generated gate; degrades to a bare gate when nothing has
                // been measured yet.
                if let Some(clbit) = written.get(b as usize % written.len().max(1)) {
                    ops.push(Op::Conditional {
                        clbit: *clbit,
                        ops: vec![Op::Gate(gate)],
                    });
                } else {
                    ops.push(Op::Gate(gate));
                }
            }
        }
    }
    Circuit::from_ops(nq, next_clbit as usize, ops)
}

/// Runs `circuit` interpreted on a fresh state vector.
fn run_interpreted(circuit: &Circuit, nq: usize, seed: u64) -> (StateVector, Executed) {
    let mut sv = StateVector::zeros(nq).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let ex = sv.run(circuit, &mut rng).unwrap();
    (sv, ex)
}

/// Runs a compiled program on a fresh state vector.
fn run_compiled(compiled: &CompiledCircuit, nq: usize, seed: u64) -> (StateVector, Executed) {
    let mut sv = StateVector::zeros(nq).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let ex = sv.run_compiled(compiled, &mut rng).unwrap();
    (sv, ex)
}

fn max_amp_diff(a: &StateVector, b: &StateVector) -> f64 {
    a.amplitudes()
        .iter()
        .zip(b.amplitudes())
        .map(|(x, y)| (*x - y).norm())
        .fold(0.0, f64::max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lowering_is_bit_exact(
        nq in 2usize..=5,
        specs in collection::vec((0u8..16, 0u32..64, 0u32..64, 0u32..64, 0u32..8), 0..40usize),
        seed in 0u64..u64::MAX,
    ) {
        let circuit = build_circuit(nq, &specs);
        let compiled = CompiledCircuit::lower(&circuit).unwrap();
        let (sv_i, ex_i) = run_interpreted(&circuit, nq, seed);
        let (sv_c, ex_c) = run_compiled(&compiled, nq, seed);
        // Same draws, same ops: everything identical, bit for bit.
        prop_assert_eq!(&ex_i, &ex_c);
        for (i, (x, y)) in sv_i.amplitudes().iter().zip(sv_c.amplitudes()).enumerate() {
            prop_assert_eq!(x.re.to_bits(), y.re.to_bits(), "re of amp {}", i);
            prop_assert_eq!(x.im.to_bits(), y.im.to_bits(), "im of amp {}", i);
        }
    }

    #[test]
    fn default_passes_preserve_state_and_record(
        nq in 2usize..=5,
        specs in collection::vec((0u8..16, 0u32..64, 0u32..64, 0u32..64, 0u32..8), 0..40usize),
        seed in 0u64..u64::MAX,
    ) {
        let circuit = build_circuit(nq, &specs);
        let compiled = CompiledCircuit::compile(&circuit).unwrap();
        let (sv_i, ex_i) = run_interpreted(&circuit, nq, seed);
        let (sv_c, ex_c) = run_compiled(&compiled, nq, seed);
        // Passes remove gates, so executed counts may shrink — but the
        // measurement record (and therefore the control flow) must match
        // exactly, and amplitudes up to float re-association.
        prop_assert_eq!(&ex_i.classical, &ex_c.classical);
        let diff = max_amp_diff(&sv_i, &sv_c);
        prop_assert!(diff < 1e-9, "max amplitude diff {}", diff);
        let removed = compiled.stats().removed();
        let total = compiled.stats().lowered_instrs as u64;
        prop_assert!(removed <= total);
    }

    #[test]
    fn aggressive_passes_preserve_up_to_global_phase(
        nq in 2usize..=5,
        specs in collection::vec((0u8..16, 0u32..64, 0u32..64, 0u32..64, 0u32..8), 0..40usize),
        seed in 0u64..u64::MAX,
    ) {
        let circuit = build_circuit(nq, &specs);
        let compiled = CompiledCircuit::with_config(&circuit, &PassConfig::aggressive()).unwrap();
        let (sv_i, ex_i) = run_interpreted(&circuit, nq, seed);
        let (sv_c, ex_c) = run_compiled(&compiled, nq, seed);
        // Measurement probabilities are untouched by phase-dead removal, so
        // with equal RNG streams every outcome matches exactly.
        prop_assert_eq!(&ex_i.classical, &ex_c.classical);
        // The states may differ by exactly one global phase factor.
        let pivot = sv_i
            .amplitudes()
            .iter()
            .enumerate()
            .find(|(_, a)| a.norm() > 1e-6)
            .map(|(i, _)| i);
        if let Some(i) = pivot {
            let a = sv_i.amplitude(i as u64);
            let b = sv_c.amplitude(i as u64);
            let phase = b * a.conj().scale(1.0 / a.norm_sqr());
            prop_assert!((phase.norm() - 1.0).abs() < 1e-6, "|phase| = {}", phase.norm());
            for (j, (x, y)) in sv_i.amplitudes().iter().zip(sv_c.amplitudes()).enumerate() {
                let rotated = phase * *x;
                prop_assert!(
                    (rotated - y).norm() < 1e-9,
                    "amp {}: {} vs {} (phase {})", j, rotated, y, phase
                );
            }
        }
    }

}

proptest! {
    // Fewer cases: each one simulates up to an 18-qubit Gidney modadd.
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn mbu_modadd_compiled_matches_interpreted(
        n in 2usize..=4,
        pk in 0u128..1_000_000,
        xk in 0u128..1_000_000,
        yk in 0u128..1_000_000,
        arch in 0u8..3,
        seed in 0u64..u64::MAX,
    ) {
        let pmax = (1u128 << n) - 1;
        let p = 2 + pk % (pmax - 1); // 2 ..= 2^n - 1
        let x = xk % p;
        let y = yk % p;
        let spec = match arch {
            0 => ModAddSpec::cdkpm(Uncompute::Mbu),
            1 => ModAddSpec::gidney(Uncompute::Mbu),
            _ => ModAddSpec::gidney_cdkpm(Uncompute::Mbu),
        };
        let layout = modular::modadd_circuit(&spec, n, p).unwrap();
        let nq = layout.circuit.num_qubits();
        let input = StateVector::index_with(&[
            (layout.x.qubits(), u64::try_from(x).unwrap()),
            (layout.y.qubits(), u64::try_from(y).unwrap()),
        ]);

        let compiled = CompiledCircuit::lower(&layout.circuit).unwrap();
        let mut sv_i = StateVector::basis(nq, input).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let ex_i = sv_i.run(&layout.circuit, &mut rng).unwrap();
        let mut sv_c = StateVector::basis(nq, input).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let ex_c = sv_c.run_compiled(&compiled, &mut rng).unwrap();

        prop_assert_eq!(&ex_i, &ex_c);
        let diff = max_amp_diff(&sv_i, &sv_c);
        prop_assert_eq!(diff, 0.0, "lowered execution must be bit-exact");
        // And both must compute the paper's modular sum.
        prop_assert_eq!(sv_c.value(layout.x.qubits()).unwrap(), x);
        prop_assert_eq!(sv_c.value(layout.y.qubits()).unwrap(), (x + y) % p);

        // The optimised program agrees too (same RNG stream, exact passes).
        let optimised = CompiledCircuit::compile(&layout.circuit).unwrap();
        let mut sv_o = StateVector::basis(nq, input).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let ex_o = sv_o.run_compiled(&optimised, &mut rng).unwrap();
        prop_assert_eq!(&ex_i.classical, &ex_o.classical);
        prop_assert!(max_amp_diff(&sv_i, &sv_o) < 1e-9);
        prop_assert_eq!(sv_o.value(layout.y.qubits()).unwrap(), (x + y) % p);
    }
}

#[test]
fn shotrunner_with_passes_matches_interpreted_distribution() {
    // The runner's opt-in passes must not shift outcome frequencies: the
    // per-shot RNG streams are identical and every Born probability is
    // preserved, so the classical aggregates match the pass-free runner's
    // exactly.
    use mbu_sim::{BasisTracker, ShotRunner};
    let spec = ModAddSpec::cdkpm(Uncompute::Mbu);
    let layout = modular::modadd_circuit(&spec, 4, 13).unwrap();
    let factory = || {
        let mut sim = BasisTracker::zeros(layout.circuit.num_qubits());
        sim.set_value(layout.x.qubits(), 7).unwrap();
        sim.set_value(layout.y.qubits(), 9).unwrap();
        Box::new(sim) as Box<dyn Simulator>
    };
    let plain = ShotRunner::new(400).run(&layout.circuit, factory).unwrap();
    let optimised = ShotRunner::new(400)
        .with_passes(PassConfig::default())
        .run(&layout.circuit, factory)
        .unwrap();
    assert_eq!(plain.shots(), optimised.shots());
    for clbit in 0..plain.num_clbits() {
        assert_eq!(
            plain.outcome_ones(clbit),
            optimised.outcome_ones(clbit),
            "clbit {clbit}"
        );
        assert_eq!(plain.outcome_writes(clbit), optimised.outcome_writes(clbit));
    }
}

/// `BackendKind::compile` chooses the passes, not the semantics: on each
/// backend its program and the default compile give the same classical
/// record and the same register readout, on the five ripple Table-1 rows
/// (n = 3) and on the Beauregard adder at n = 8. The tracker refuses the
/// Beauregard adder's Fourier basis; it must refuse both programs alike.
#[test]
fn backend_compiles_agree_with_the_default_compile() {
    use mbu_arith::resources::Table1Row;
    use mbu_bench::{benchmark_modulus, build_row_circuit};
    use mbu_sim::BackendKind;

    let rows = [
        (Table1Row::Vbe5, 3),
        (Table1Row::Vbe4, 3),
        (Table1Row::Cdkpm, 3),
        (Table1Row::Gidney, 3),
        (Table1Row::CdkpmGidney, 3),
        (Table1Row::Draper, 8),
    ];
    let kinds = [
        BackendKind::Dense,
        BackendKind::Sparse,
        BackendKind::Phase,
        BackendKind::Tracker,
    ];
    for (row, n) in rows {
        let p = benchmark_modulus(n);
        let layout = build_row_circuit(row, Uncompute::Mbu, n, p).unwrap();
        let default = CompiledCircuit::compile(&layout.circuit).unwrap();
        for kind in kinds {
            let own = kind.compile(&layout.circuit).unwrap();
            assert_eq!(own.stats().lowered_instrs, default.stats().lowered_instrs);
            for (seed, (x, y)) in [(1u64, (1, p - 1)), (2, (p / 2, p / 3))] {
                let run = |program: &CompiledCircuit| -> Result<_, mbu_sim::SimError> {
                    let mut sim = kind.build(layout.circuit.num_qubits())?;
                    sim.set_value(layout.x.qubits(), x)?;
                    sim.set_value(layout.y.qubits(), y)?;
                    let mut rng = StdRng::seed_from_u64(seed);
                    let executed = sim.run_compiled(program, &mut rng)?;
                    let readout = (sim.value(layout.x.qubits())?, sim.value(layout.y.qubits())?);
                    Ok((executed.classical, readout))
                };
                let got = run(&own);
                assert_eq!(got, run(&default), "{row:?} on {kind}");
                match got {
                    Ok((_, readout)) => assert_eq!(readout, (x, (x + y) % p), "{row:?} on {kind}"),
                    Err(_) => assert!(kind == BackendKind::Tracker && row == Table1Row::Draper),
                }
            }
        }
    }
}
