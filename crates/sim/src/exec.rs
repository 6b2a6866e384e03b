//! The shared circuit executors: the interpreted walker over the [`Op`]
//! tree, and the compiled program-counter loop over a flat
//! [`CompiledCircuit`](mbu_circuit::CompiledCircuit) instruction stream.
//! Both resolve conditionals against the classical record and tally the
//! gates that actually ran, producing identical [`Executed`] records for a
//! lowered (pass-free) program.

use std::sync::OnceLock;

use mbu_circuit::{
    Basis, CompiledCircuit, FusedUnitary, Gate, GateCounts, Instr, Op, PhaseGradient, QubitId,
};
use rand::{Rng, RngCore};

use crate::error::SimError;
use crate::knobs;
use crate::simulator::{Fork, Simulator};

/// Whether the `MBU_VERIFY` admission gate is on: executors then run the
/// static verifier (`mbu_circuit::verify`) on every compiled program
/// before the first instruction and refuse malformed streams with
/// [`SimError::VerificationRejected`]. Off by default — programs from
/// this workspace's compiler were already verified under the careful
/// profile; the knob is for streams of unknown provenance (or for
/// belt-and-braces release runs, where compile-time verification is
/// compiled out). Resolved once per process.
fn verify_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| {
        knobs::switch(
            "MBU_VERIFY",
            std::env::var("MBU_VERIFY").ok().as_deref(),
            false,
        )
    })
}

/// Runs the admission gate on `compiled` when `MBU_VERIFY` is on.
pub(crate) fn admit_compiled(compiled: &CompiledCircuit) -> Result<(), SimError> {
    if verify_enabled() {
        compiled
            .verify()
            .map_err(|e| SimError::VerificationRejected { why: e.to_string() })?;
    }
    Ok(())
}

/// What a simulation run actually did.
///
/// `counts` tallies only operations that executed: a conditional block whose
/// classical bit read 0 contributes nothing. Averaging `counts` over seeded
/// runs reproduces the paper's "in expectation" columns empirically — the
/// [`ShotRunner`](crate::ShotRunner) does exactly that, in parallel.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Executed {
    /// Gates and measurements that actually ran.
    pub counts: GateCounts,
    /// The classical record: `Some(outcome)` per written bit.
    pub classical: Vec<Option<bool>>,
}

impl Executed {
    /// The outcome of classical bit `i`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnwrittenClassicalBit`] if no measurement wrote
    /// bit `i` during the run.
    pub fn outcome(&self, i: usize) -> Result<bool, SimError> {
        self.classical
            .get(i)
            .copied()
            .flatten()
            .ok_or(SimError::UnwrittenClassicalBit { clbit: i as u32 })
    }
}

/// The shared width guard: every `run_compiled` entry point rejects a
/// program wider than the state with the same [`SimError::OutOfRange`]
/// message, so backends cannot drift apart in what they report.
pub(crate) fn check_width(program_qubits: usize, state_qubits: usize) -> Result<(), SimError> {
    if program_qubits > state_qubits {
        return Err(SimError::OutOfRange {
            what: format!("{program_qubits}-qubit compiled program on {state_qubits}-qubit state"),
        });
    }
    Ok(())
}

/// Rejects a gate whose operands are out of range or duplicated — the
/// one operand check every backend runs before a gate-at-a-time
/// [`apply_gate`](Simulator::apply_gate).
///
/// Kernels and mode tables assume valid operands: an out-of-range mask
/// makes some dense gates silent no-ops (`Z`, `CZ`, phases: the
/// `i & m != 0` filter never fires) and others panic (`X`: `amps.swap`
/// past the end), an out-of-range index panics the tracker's mode table,
/// and a duplicated operand makes the pinned-bit expansion enumerate
/// garbage. Validation up front turns all of that into a typed error.
/// Every backend's compiled run skips it per gate: lowering already
/// validated the operands, and [`check_width`] bounds them by the state.
#[inline]
pub(crate) fn validate_gate(gate: &Gate, num_qubits: usize) -> Result<(), SimError> {
    let mut oob: Option<QubitId> = None;
    gate.for_each_qubit(&mut |q| {
        if q.index() >= num_qubits {
            oob.get_or_insert(q);
        }
    });
    if let Some(q) = oob {
        return Err(SimError::OutOfRange {
            what: format!("gate `{gate}` on qubit q{}", q.0),
        });
    }
    if let Some(q) = gate.repeated_operand() {
        return Err(SimError::DuplicateOperand {
            gate: gate.to_string(),
            qubit: q.0,
        });
    }
    Ok(())
}

/// The one [`measure`](Simulator::measure) front end of the amplitude
/// backends: rejects an out-of-range qubit, then runs the backend's
/// Z-basis measurement `measure_z`. An X-basis measurement rotates to Z
/// with `H`, measures, and rotates back, so the post-measurement state is
/// `|+⟩` or `|−⟩`.
pub(crate) fn measure_in_basis<S: Simulator>(
    sim: &mut S,
    qubit: QubitId,
    basis: Basis,
    draw: &mut dyn FnMut(f64) -> bool,
    measure_z: impl FnOnce(&mut S, QubitId, &mut dyn FnMut(f64) -> bool) -> Result<bool, SimError>,
) -> Result<bool, SimError> {
    if qubit.index() >= sim.num_qubits() {
        return Err(SimError::OutOfRange {
            what: format!("measured qubit q{}", qubit.0),
        });
    }
    match basis {
        Basis::Z => measure_z(sim, qubit, draw),
        Basis::X => {
            let h = Gate::H(qubit);
            sim.apply_gate(&h)?;
            let outcome = measure_z(sim, qubit, draw)?;
            sim.apply_gate(&h)?;
            Ok(outcome)
        }
    }
}

/// The one [`reset`](Simulator::reset) front end of the amplitude
/// backends: rejects an out-of-range qubit, measures it in Z with the
/// backend's `measure_z`, and flips it back to `|0⟩` with an `X` on
/// outcome 1.
pub(crate) fn reset_in_z<S: Simulator>(
    sim: &mut S,
    qubit: QubitId,
    draw: &mut dyn FnMut(f64) -> bool,
    measure_z: impl FnOnce(&mut S, QubitId, &mut dyn FnMut(f64) -> bool) -> Result<bool, SimError>,
) -> Result<(), SimError> {
    if qubit.index() >= sim.num_qubits() {
        return Err(SimError::OutOfRange {
            what: format!("reset qubit q{}", qubit.0),
        });
    }
    if measure_z(sim, qubit, draw)? {
        sim.apply_gate(&Gate::X(qubit))?;
    }
    Ok(())
}

/// The one [`measure_fork`](Simulator::measure_fork) front end of the
/// amplitude backends: rejects an out-of-range qubit, then runs the
/// backend's Z-basis fork `fork_z`. An X-basis fork is the sampling
/// path's `H` conjugation applied to each branch: `H` on the receiver
/// around the Z fork, then `H` on the outcome-1 child. Every such backend
/// implements [`apply_gate`](Simulator::apply_gate) as its own gate
/// `apply`, so conjugating the boxed child through the trait gives the
/// same bits.
pub(crate) fn fork_in_basis<S: Simulator>(
    sim: &mut S,
    qubit: QubitId,
    basis: Basis,
    fork_z: impl FnOnce(&mut S, QubitId) -> Result<Fork, SimError>,
) -> Result<Option<Fork>, SimError> {
    if qubit.index() >= sim.num_qubits() {
        return Err(SimError::OutOfRange {
            what: format!("measured qubit q{}", qubit.0),
        });
    }
    let fork = match basis {
        Basis::Z => fork_z(sim, qubit)?,
        Basis::X => {
            let h = Gate::H(qubit);
            sim.apply_gate(&h)?;
            let mut fork = fork_z(sim, qubit)?;
            sim.apply_gate(&h)?;
            if let Fork::Split { one: Some(one), .. } = &mut fork {
                one.apply_gate(&h)?;
            }
            fork
        }
    };
    Ok(Some(fork))
}

/// Executes `ops` on `sim`, recording outcomes and executed counts.
///
/// Works through the object-safe [`Simulator`] surface so one executor
/// serves every backend, boxed or not.
pub(crate) fn execute_dyn<S: Simulator + ?Sized>(
    sim: &mut S,
    ops: &[Op],
    rng: &mut dyn RngCore,
    executed: &mut Executed,
) -> Result<(), SimError> {
    for op in ops {
        match op {
            Op::Gate(g) => {
                sim.apply_gate(g)?;
                executed.counts.record_gate(g);
            }
            Op::Measure {
                qubit,
                basis,
                clbit,
            } => {
                let mut draw = |p1: f64| rng.gen_bool(p1.clamp(0.0, 1.0));
                let outcome = sim.measure(*qubit, *basis, &mut draw)?;
                executed.counts.record_measurement(*basis);
                let idx = clbit.index();
                if executed.classical.len() <= idx {
                    executed.classical.resize(idx + 1, None);
                }
                executed.classical[idx] = Some(outcome);
            }
            Op::Conditional { clbit, ops } => {
                let bit = executed
                    .classical
                    .get(clbit.index())
                    .copied()
                    .flatten()
                    .ok_or(SimError::UnwrittenClassicalBit { clbit: clbit.0 })?;
                if bit {
                    execute_dyn(sim, ops, rng, executed)?;
                }
            }
            Op::Reset(qubit) => {
                let mut draw = |p1: f64| rng.gen_bool(p1.clamp(0.0, 1.0));
                sim.reset(*qubit, &mut draw)?;
                executed.counts.reset += 1;
            }
        }
    }
    Ok(())
}

/// Executes a compiled program on `sim`: a single program-counter loop, no
/// recursion, no tree walk. `BranchUnless` reads the classical record like
/// the interpreted executor's conditionals (reading an unwritten bit is an
/// error even when the branch would be taken, matching `execute_dyn`).
/// Gates go through [`apply_gate`](Simulator::apply_gate), fused blocks
/// through [`apply_fused`](Simulator::apply_fused) (a single-sweep kernel
/// on the state vector, a replay of the constituents elsewhere),
/// gradients replay their constituents through `apply_gate` and
/// [`Instr::Drop`] is a no-op.
pub(crate) fn execute_compiled<S: Simulator + ?Sized>(
    sim: &mut S,
    compiled: &CompiledCircuit,
    rng: &mut dyn RngCore,
    executed: &mut Executed,
) -> Result<(), SimError> {
    execute_compiled_core(
        sim,
        compiled,
        rng,
        executed,
        |s, g| s.apply_gate(g),
        |s, fu| s.apply_fused(fu),
        |s, pg| pg.gates().try_for_each(|g| s.apply_gate(&g)),
        S::measure,
        S::reset,
        |_, _| {},
    )
}

/// The compiled program-counter loop, parametrised over gate application
/// (`apply`), fused-block application (`apply_fused`), phase-gradient
/// application (`apply_gradient`), measurement (`measure`), reset
/// (`reset`) and a handler for [`Instr::Drop`] (`on_drop`). Every
/// backend's compiled run routes through this with its unchecked gate
/// `apply` (the reclaiming state-vector executor's also translates
/// operands into its compacted array), so the draws, branch and
/// classical-record semantics live in exactly one place.
///
/// `apply_fused` executes one [`Instr::Fused`] block and `apply_gradient`
/// one [`Instr::Gradient`]; every backend but the phase accumulator
/// replays the gradient's constituents through its `apply`. The executed
/// tally always records the constituent gates here, so fusion and
/// packing are invisible in [`Executed`] statistics whatever the backend
/// does.
/// `measure` and `reset` take the qubit as the program names it and the
/// draw to sample with: plain backends pass their
/// [`measure`](Simulator::measure) and [`reset`](Simulator::reset),
/// while the reclaiming state-vector executor measures at the qubit's bit
/// position in its compacted array (materialising the qubit first if it
/// had been factored out). `on_drop` is the reclamation hook; for
/// backends without a compaction story a drop is a semantic no-op and the
/// default handler does nothing.
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute_compiled_core<S: Simulator + ?Sized>(
    sim: &mut S,
    compiled: &CompiledCircuit,
    rng: &mut dyn RngCore,
    executed: &mut Executed,
    mut apply: impl FnMut(&mut S, &Gate) -> Result<(), SimError>,
    mut apply_fused: impl FnMut(&mut S, &FusedUnitary) -> Result<(), SimError>,
    mut apply_gradient: impl FnMut(&mut S, &PhaseGradient) -> Result<(), SimError>,
    mut measure: impl FnMut(
        &mut S,
        QubitId,
        Basis,
        &mut dyn FnMut(f64) -> bool,
    ) -> Result<bool, SimError>,
    mut reset: impl FnMut(&mut S, QubitId, &mut dyn FnMut(f64) -> bool) -> Result<(), SimError>,
    mut on_drop: impl FnMut(&mut S, QubitId),
) -> Result<(), SimError> {
    admit_compiled(compiled)?;
    let instrs = compiled.instrs();
    let mut pc = 0usize;
    while let Some(instr) = instrs.get(pc) {
        match instr {
            Instr::Gate(g) => {
                apply(sim, g)?;
                executed.counts.record_gate(g);
            }
            Instr::Fused(idx) => {
                let fu = &compiled.fused_unitaries()[*idx as usize];
                apply_fused(sim, fu)?;
                // Tally the constituents (family-only, so local operand
                // renaming is irrelevant): executed counts match the
                // unfused stream exactly.
                for g in fu.gates() {
                    executed.counts.record_gate(g);
                }
            }
            Instr::Gradient(idx) => {
                let pg = &compiled.gradients()[*idx as usize];
                apply_gradient(sim, pg)?;
                // Every constituent is a `CPhase`.
                executed.counts.cphase += pg.terms().len() as u64;
            }
            Instr::Measure {
                qubit,
                basis,
                clbit,
            } => {
                let mut draw = |p1: f64| rng.gen_bool(p1.clamp(0.0, 1.0));
                let outcome = measure(sim, *qubit, *basis, &mut draw)?;
                executed.counts.record_measurement(*basis);
                let idx = clbit.index();
                if executed.classical.len() <= idx {
                    executed.classical.resize(idx + 1, None);
                }
                executed.classical[idx] = Some(outcome);
            }
            Instr::Reset(qubit) => {
                let mut draw = |p1: f64| rng.gen_bool(p1.clamp(0.0, 1.0));
                reset(sim, *qubit, &mut draw)?;
                executed.counts.reset += 1;
            }
            Instr::Drop(qubit) => on_drop(sim, *qubit),
            Instr::BranchUnless { clbit, skip } => {
                let bit = executed
                    .classical
                    .get(clbit.index())
                    .copied()
                    .flatten()
                    .ok_or(SimError::UnwrittenClassicalBit { clbit: clbit.0 })?;
                if !bit {
                    pc += *skip as usize;
                }
            }
        }
        pc += 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbu_circuit::{Angle, Basis, Circuit, ClbitId, Gate, QubitId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A backend that records nothing and answers measurements with a
    /// scripted sequence.
    struct Scripted {
        outcomes: Vec<bool>,
        next: usize,
        gates_seen: usize,
    }

    impl Simulator for Scripted {
        fn num_qubits(&self) -> usize {
            u32::MAX as usize
        }

        fn apply_gate(&mut self, _gate: &Gate) -> Result<(), SimError> {
            self.gates_seen += 1;
            Ok(())
        }

        fn measure(
            &mut self,
            _qubit: QubitId,
            _basis: Basis,
            _draw: &mut dyn FnMut(f64) -> bool,
        ) -> Result<bool, SimError> {
            let r = self.outcomes[self.next];
            self.next += 1;
            Ok(r)
        }

        fn reset(
            &mut self,
            _qubit: QubitId,
            _draw: &mut dyn FnMut(f64) -> bool,
        ) -> Result<(), SimError> {
            Ok(())
        }

        fn set_bit(&mut self, _q: QubitId, _value: bool) -> Result<(), SimError> {
            Ok(())
        }

        fn bit(&self, _q: QubitId) -> Result<bool, SimError> {
            Ok(false)
        }

        fn global_phase(&self) -> Option<Angle> {
            None
        }
    }

    fn q(i: u32) -> QubitId {
        QubitId(i)
    }

    #[test]
    fn conditionals_skip_when_bit_is_zero() {
        let ops = vec![
            Op::Measure {
                qubit: q(0),
                basis: Basis::Z,
                clbit: ClbitId(0),
            },
            Op::Conditional {
                clbit: ClbitId(0),
                ops: vec![Op::Gate(Gate::X(q(0)))],
            },
        ];
        let mut rng = StdRng::seed_from_u64(0);

        let mut backend = Scripted {
            outcomes: vec![false],
            next: 0,
            gates_seen: 0,
        };
        let mut ex = Executed::default();
        execute_dyn(&mut backend, &ops, &mut rng, &mut ex).unwrap();
        assert_eq!(backend.gates_seen, 0);
        assert_eq!(ex.counts.x, 0);
        assert!(!ex.outcome(0).unwrap());

        let mut backend = Scripted {
            outcomes: vec![true],
            next: 0,
            gates_seen: 0,
        };
        let mut ex = Executed::default();
        execute_dyn(&mut backend, &ops, &mut rng, &mut ex).unwrap();
        assert_eq!(backend.gates_seen, 1);
        assert_eq!(ex.counts.x, 1);
    }

    #[test]
    fn unwritten_classical_bit_is_an_error() {
        let ops = vec![Op::Conditional {
            clbit: ClbitId(5),
            ops: vec![],
        }];
        let mut backend = Scripted {
            outcomes: vec![],
            next: 0,
            gates_seen: 0,
        };
        let mut rng = StdRng::seed_from_u64(0);
        let mut ex = Executed::default();
        let err = execute_dyn(&mut backend, &ops, &mut rng, &mut ex).unwrap_err();
        assert_eq!(err, SimError::UnwrittenClassicalBit { clbit: 5 });
    }

    #[test]
    fn compiled_branches_mirror_interpreted_conditionals() {
        let ops = vec![
            Op::Measure {
                qubit: q(0),
                basis: Basis::Z,
                clbit: ClbitId(0),
            },
            Op::Conditional {
                clbit: ClbitId(0),
                ops: vec![Op::Gate(Gate::X(q(0)))],
            },
            Op::Gate(Gate::H(q(1))),
        ];
        let circuit = Circuit::from_ops(2, 1, ops);
        let compiled = CompiledCircuit::lower(&circuit).unwrap();
        let mut rng = StdRng::seed_from_u64(0);

        for (outcome, expect_gates) in [(false, 1), (true, 2)] {
            let mut backend = Scripted {
                outcomes: vec![outcome],
                next: 0,
                gates_seen: 0,
            };
            let mut ex = Executed::default();
            execute_compiled(&mut backend, &compiled, &mut rng, &mut ex).unwrap();
            assert_eq!(backend.gates_seen, expect_gates, "outcome {outcome}");
            assert_eq!(ex.outcome(0).unwrap(), outcome);
            assert_eq!(ex.counts.h, 1);
        }
    }

    #[test]
    fn compiled_branch_on_unwritten_bit_is_an_error() {
        // Hand-built program: a branch guarding nothing, bit never written.
        let circuit = Circuit::from_ops(
            1,
            1,
            vec![Op::Conditional {
                clbit: ClbitId(0),
                ops: vec![],
            }],
        );
        let compiled = CompiledCircuit::lower(&circuit).unwrap();
        let mut backend = Scripted {
            outcomes: vec![],
            next: 0,
            gates_seen: 0,
        };
        let mut rng = StdRng::seed_from_u64(0);
        let mut ex = Executed::default();
        let err = execute_compiled(&mut backend, &compiled, &mut rng, &mut ex).unwrap_err();
        assert_eq!(err, SimError::UnwrittenClassicalBit { clbit: 0 });
    }

    #[test]
    fn drops_are_noops_for_generic_backends() {
        // A measured-then-dead qubit gets an `Instr::Drop` from the default
        // passes; backends without a compaction story (like this scripted
        // one, or the basis tracker) must execute straight through it with
        // identical records and counts.
        let ops = vec![
            Op::Measure {
                qubit: q(0),
                basis: Basis::Z,
                clbit: ClbitId(0),
            },
            Op::Gate(Gate::H(q(1))),
        ];
        let circuit = Circuit::from_ops(2, 1, ops);
        let compiled = CompiledCircuit::compile(&circuit).unwrap();
        assert!(compiled.reclaims_qubits(), "{compiled}");
        let mut backend = Scripted {
            outcomes: vec![true],
            next: 0,
            gates_seen: 0,
        };
        let mut rng = StdRng::seed_from_u64(0);
        let mut ex = Executed::default();
        execute_compiled(&mut backend, &compiled, &mut rng, &mut ex).unwrap();
        assert_eq!(backend.gates_seen, 1);
        assert!(ex.outcome(0).unwrap());
        assert_eq!(ex.counts.h, 1);
    }

    #[test]
    fn every_backend_rejects_a_compiled_program_wider_than_its_state() {
        use crate::{BasisTracker, PhaseAccumulator, SparseVector, StateVector};
        use mbu_circuit::CircuitBuilder;
        // Every instruction touches the qubit past a 2-qubit state, so a
        // run that dispatched it unchecked would index out of range.
        let mut b = CircuitBuilder::new();
        let r = b.qreg("r", 3);
        b.x(r[2]);
        b.cx(r[2], r[0]);
        b.cphase(r[0], r[2], Angle::turn_over_power_of_two(3));
        b.swap(r[1], r[2]);
        b.measure(r[2], Basis::Z);
        b.x(r[0]);
        let circuit = b.finish();
        let lowered = CompiledCircuit::lower(&circuit).unwrap();
        let compiled = CompiledCircuit::compile(&circuit).unwrap();
        // The dense engine runs the two on its two paths.
        assert!(!lowered.reclaims_qubits() && compiled.reclaims_qubits());

        let backends: [Box<dyn Simulator>; 4] = [
            Box::new(StateVector::zeros(2).unwrap()),
            Box::new(SparseVector::zeros(2).unwrap()),
            Box::new(PhaseAccumulator::zeros(2).unwrap()),
            Box::new(BasisTracker::zeros(2)),
        ];
        let readouts = |sim: &dyn Simulator| {
            (
                [sim.bit(QubitId(0)), sim.bit(QubitId(1))],
                sim.peak_amplitudes(),
                sim.occupancy_peak(),
                sim.global_phase(),
            )
        };
        for mut sim in backends {
            sim.set_bit(QubitId(1), true).unwrap();
            let before = readouts(sim.as_ref());
            for program in [&lowered, &compiled] {
                let mut rng = StdRng::seed_from_u64(0);
                assert_eq!(
                    sim.run_compiled(program, &mut rng).unwrap_err(),
                    SimError::OutOfRange {
                        what: "3-qubit compiled program on 2-qubit state".into()
                    }
                );
                assert_eq!(readouts(sim.as_ref()), before);
            }
        }
    }

    #[test]
    fn the_admission_gate_rejects_malformed_gradients_before_any_instruction() {
        use crate::{BasisTracker, PhaseAccumulator, SparseVector, StateVector};
        use mbu_circuit::{CircuitBuilder, Finding, PhaseGradient};
        let mut b = CircuitBuilder::new();
        let r = b.qreg("r", 4);
        b.x(r[0]);
        for j in 0..3 {
            b.cphase(r[j], r[3], Angle::turn_over_power_of_two(j as u32 + 2));
        }
        let clean = CompiledCircuit::lower(&b.finish()).unwrap();
        assert_eq!(clean.stats().gradients, 1, "{clean}");
        // Each case: one gradient malformation and the finding it gives.
        let retabled = |edit: fn(&mut [(QubitId, u32)])| {
            let mut program = clean.clone();
            let mut terms = clean.gradients()[0].terms().to_vec();
            edit(&mut terms);
            program.raw_parts_mut().1[0] = PhaseGradient::new(QubitId(3), false, terms);
            program
        };
        let mut past_table = clean.clone();
        past_table.raw_parts_mut().0[1] = Instr::Gradient(1);
        let cases = [
            (
                past_table,
                Finding::GradientIndexOutOfRange { pc: 1, index: 1 },
            ),
            (
                retabled(|terms| terms[1].0 = QubitId(7)),
                Finding::GradientOperandOutOfRange {
                    gradient: 0,
                    qubit: 7,
                },
            ),
            (
                retabled(|terms| terms[2].0 = QubitId(3)),
                Finding::GradientTargetIsControl {
                    gradient: 0,
                    term: 2,
                },
            ),
            (
                retabled(|terms| terms[2].1 = terms[0].1),
                Finding::GradientRepeatedExponent {
                    gradient: 0,
                    term: 2,
                    k: 2,
                },
            ),
        ];
        let readouts = |sim: &dyn Simulator| {
            (
                [0, 1, 2, 3].map(|i| sim.bit(q(i)).ok()),
                sim.global_phase(),
                sim.peak_amplitudes(),
            )
        };
        for (program, finding) in cases {
            let err = program.verify().unwrap_err();
            assert_eq!(err.findings()[0], finding);
            if !verify_enabled() {
                continue;
            }
            // Armed, every backend refuses the program before it runs
            // any of it: the X on r0 never happens.
            let backends: [Box<dyn Simulator>; 4] = [
                Box::new(StateVector::zeros(4).unwrap()),
                Box::new(SparseVector::zeros(4).unwrap()),
                Box::new(PhaseAccumulator::zeros(4).unwrap()),
                Box::new(BasisTracker::zeros(4)),
            ];
            for mut sim in backends {
                sim.set_bit(q(1), true).unwrap();
                let before = readouts(sim.as_ref());
                let mut rng = StdRng::seed_from_u64(0);
                assert_eq!(
                    sim.run_compiled(&program, &mut rng).unwrap_err(),
                    SimError::VerificationRejected {
                        why: err.to_string()
                    }
                );
                assert_eq!(readouts(sim.as_ref()), before);
            }
        }
    }

    #[test]
    fn executor_works_through_a_boxed_dyn_simulator() {
        let ops = vec![Op::Gate(Gate::X(q(0)))];
        let mut boxed: Box<dyn Simulator> = Box::new(Scripted {
            outcomes: vec![],
            next: 0,
            gates_seen: 0,
        });
        let mut rng = StdRng::seed_from_u64(0);
        let mut ex = Executed::default();
        execute_dyn(boxed.as_mut(), &ops, &mut rng, &mut ex).unwrap();
        assert_eq!(ex.counts.x, 1);
    }
}
