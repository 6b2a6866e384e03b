//! Phase gradients inside MBU correction blocks, on every backend.
//!
//! The packing step folds each `CPhase` cascade into one
//! `Instr::Gradient`, also inside the guarded block of a
//! `BranchUnless`. Every backend but the phase accumulator replays the
//! gradient gate by gate, and the accumulator adds it in closed form on a
//! Fourier-mode target. Either way a compiled run must match the
//! interpreted run of the same circuit, which executes the unpacked gates
//! one by one: same executed counts, same classical record, same state.

use mbu_arith::adders::draper::{self, Sign};
use mbu_circuit::{Angle, Basis, Circuit, CircuitBuilder, CompiledCircuit, Instr, QubitId};
use mbu_sim::{
    phase_to_sparse, sparse_to_dense, BasisTracker, Executed, PhaseAccumulator, SimError,
    Simulator, SparseVector, StateVector,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The qubits of [`guarded_gradient`]: controls `x`, targets `y`, flag.
struct Layout {
    circuit: Circuit,
    x: Vec<QubitId>,
    y: Vec<QubitId>,
    flag: QubitId,
}

/// An MBU-shaped correction: the flag is measured, and a phase cascade
/// from `x` onto `y` runs only on outcome 1. With `fourier` set, `y`
/// is in the Fourier basis around the block (a QFT before, an IQFT
/// after), so the block is a conditional ΦADD and the result a basis
/// state again; otherwise the block's target is a definite bit and the
/// cascade only turns the global phase.
fn guarded_gradient(fourier: bool) -> Layout {
    let mut b = CircuitBuilder::new();
    let x = b.qreg("x", 4);
    let y = b.qreg("y", 4);
    let flag = b.qubit();
    if fourier {
        draper::qft(&mut b, y.qubits()).unwrap();
    }
    let outcome = b.measure(flag, Basis::Z);
    let (_, fix) = b.record(|b| {
        if fourier {
            draper::phi_add(b, x.qubits(), y.qubits(), Sign::Plus).unwrap();
        } else {
            for (j, &c) in x.qubits().iter().enumerate() {
                b.cphase(c, y[0], -Angle::turn_over_power_of_two(j as u32 + 2));
            }
        }
    });
    b.emit_conditional(outcome, &fix);
    if fourier {
        draper::iqft(&mut b, y.qubits()).unwrap();
    }
    Layout {
        circuit: b.finish(),
        x: x.qubits().to_vec(),
        y: y.qubits().to_vec(),
        flag,
    }
}

/// Whether `compiled` holds a gradient inside a guarded block.
fn has_guarded_gradient(compiled: &CompiledCircuit) -> bool {
    let instrs = compiled.instrs();
    instrs.iter().enumerate().any(|(pc, i)| match i {
        Instr::BranchUnless { skip, .. } => instrs[pc + 1..=pc + *skip as usize]
            .iter()
            .any(|i| matches!(i, Instr::Gradient(_))),
        _ => false,
    })
}

/// Prepares `sim` with `x = xv`, `y = yv` and the flag, then runs the
/// packed program (`packed`) or the interpreted circuit.
fn run<S: Simulator>(
    mut sim: S,
    layout: &Layout,
    (xv, yv, flag): (u128, u128, bool),
    packed: Option<&CompiledCircuit>,
) -> Result<(S, Executed), SimError> {
    sim.set_value(&layout.x, xv)?;
    sim.set_value(&layout.y, yv)?;
    sim.set_bit(layout.flag, flag)?;
    let mut rng = StdRng::seed_from_u64(7);
    let executed = match packed {
        Some(compiled) => sim.run_compiled(compiled, &mut rng)?,
        None => sim.run(&layout.circuit, &mut rng)?,
    };
    Ok((sim, executed))
}

/// Every amplitude of a dense state, as bits.
fn amplitude_bits(sv: &StateVector) -> Vec<(u64, u64)> {
    (0..1u64 << sv.num_qubits())
        .map(|i| {
            let a = sv.amplitude(i);
            (a.re.to_bits(), a.im.to_bits())
        })
        .collect()
}

const INPUTS: [(u128, u128); 3] = [(0b1011, 0b101), (0b0110, 0b011), (0b1111, 0b111)];

#[test]
fn guarded_gradients_match_the_unpacked_run_on_every_backend() {
    for fourier in [false, true] {
        let layout = guarded_gradient(fourier);
        let packed = CompiledCircuit::lower(&layout.circuit).unwrap();
        assert!(has_guarded_gradient(&packed), "{packed}");
        let n = layout.circuit.num_qubits();
        for (xv, yv) in INPUTS {
            for flag in [false, true] {
                let input = (xv, yv, flag);
                let dense = |packed| run(StateVector::zeros(n).unwrap(), &layout, input, packed);
                let sparse = |packed| run(SparseVector::zeros(n).unwrap(), &layout, input, packed);
                let phase =
                    |packed| run(PhaseAccumulator::zeros(n).unwrap(), &layout, input, packed);
                let tracker = |packed| run(BasisTracker::zeros(n), &layout, input, packed);

                let ((a, ea), (b, eb)) = (dense(Some(&packed)).unwrap(), dense(None).unwrap());
                assert_eq!(ea, eb);
                assert_eq!(ea.outcome(0).unwrap(), flag, "the branch is taken iff flag");
                assert_eq!(amplitude_bits(&a), amplitude_bits(&b));
                let reference = amplitude_bits(&a);

                let ((a, ea), (b, eb)) = (sparse(Some(&packed)).unwrap(), sparse(None).unwrap());
                assert_eq!(ea, eb);
                let (a, b) = (sparse_to_dense(&a).unwrap(), sparse_to_dense(&b).unwrap());
                assert_eq!(amplitude_bits(&a), amplitude_bits(&b));

                // The accumulator's exact phases go through one `cis` each
                // on the way out, so its readout is compared bitwise with
                // its own interpreted run, and by value with the dense one.
                let ((a, ea), (b, eb)) = (phase(Some(&packed)).unwrap(), phase(None).unwrap());
                assert_eq!(ea, eb);
                assert_eq!(a.global_phase(), b.global_phase());
                let (a, b) = (phase_to_sparse(&a).unwrap(), phase_to_sparse(&b).unwrap());
                let (a, b) = (sparse_to_dense(&a).unwrap(), sparse_to_dense(&b).unwrap());
                assert_eq!(amplitude_bits(&a), amplitude_bits(&b));
                for (i, want) in reference.iter().enumerate() {
                    let got = a.amplitude(i as u64);
                    let want =
                        mbu_sim::Complex::new(f64::from_bits(want.0), f64::from_bits(want.1));
                    assert!((got - want).norm() < 1e-12, "amp[{i}]: {got} vs {want}");
                }

                if fourier {
                    // y + flag·x mod 2^4, a basis state on every backend.
                    let want = (yv + if flag { xv } else { 0 }) % 16;
                    let (sim, _) = phase(Some(&packed)).unwrap();
                    assert_eq!(sim.value(&layout.y).unwrap(), want);
                    // The tracker cannot hold the Fourier basis: both runs
                    // refuse the QFT's first rotation alike.
                    assert_eq!(tracker(Some(&packed)).err(), tracker(None).err());
                    assert!(tracker(None).is_err());
                } else {
                    let ((a, ea), (b, eb)) =
                        (tracker(Some(&packed)).unwrap(), tracker(None).unwrap());
                    assert_eq!(ea, eb);
                    assert_eq!(a.global_phase(), b.global_phase());
                    assert_eq!(a.value(&layout.x).unwrap(), xv);
                    assert_eq!(a.value(&layout.y).unwrap(), yv);
                    // The turn is −Σ 2π·x_j/2^{j+2} when y0 and the flag
                    // are set, and nothing otherwise.
                    let turned = flag && yv & 1 == 1 && xv != 0;
                    assert_eq!(!a.global_phase().is_zero(), turned);
                }
            }
        }
    }
}
