//! The public backend abstraction: every simulator behind one trait.
//!
//! [`Simulator`] is the object-safe seam between circuit execution and the
//! concrete state representations. It unifies what used to be a private
//! `Backend` trait (gate application, measurement, reset) with the state
//! access every harness needs (`set_value` / `value` / `bit` /
//! `global_phase`), so benchmarks, ensemble runs and cross-backend tests
//! can be written once against `dyn Simulator` and executed on either the
//! [`BasisTracker`](crate::BasisTracker) or the
//! [`StateVector`](crate::StateVector) — or any future backend (stabilizer,
//! sharded state vector) that implements the trait.

use std::any::Any;

use mbu_circuit::{Angle, Basis, Circuit, CompiledCircuit, Gate, QubitId};
use rand::RngCore;

use crate::error::SimError;
use crate::exec::{self, Executed};

/// The outcome of a forked measurement (see [`Simulator::measure_fork`]).
///
/// Forking is the primitive behind branch-tree execution
/// ([`BranchEnsemble`](crate::BranchEnsemble)): instead of sampling one
/// outcome, the backend produces *both* post-measurement branches so each
/// unique measurement history is simulated exactly once.
pub enum Fork {
    /// The measurement is deterministic: the state is unchanged and the
    /// backend would consume **no** randomness for it (e.g. the basis
    /// tracker measuring a definite bit in its own basis). No branch point
    /// exists.
    Definite(bool),
    /// The measurement consumes a draw: the receiver has collapsed to
    /// the outcome-`false` branch, `one` holds the outcome-`true` branch,
    /// and `p_one` is the Born probability of outcome 1 — exactly the
    /// value the backend would have handed to the sampling callback, so a
    /// per-shot run can be replayed bit-identically by drawing
    /// `gen_bool(p_one)` at every `Split` along its path.
    Split {
        /// Born probability of outcome 1, as the sampling path computes it.
        p_one: f64,
        /// The outcome-`true` branch (renormalised post-measurement
        /// state). `None` exactly when `p_one == 0.0`: the branch is
        /// impossible, schedulers prune it without looking, and the
        /// backend needn't pay an amplitude-array allocation to
        /// materialise a state nobody can reach.
        one: Option<Box<dyn Simulator + Send>>,
    },
}

/// A quantum-circuit simulation backend.
///
/// Object-safe: harnesses hold `Box<dyn Simulator>` and stay agnostic of
/// the state representation. (`Any` is a supertrait so that
/// [`same_state`](Simulator::same_state) can recognise its own type behind
/// `&dyn Simulator`; `Send` and `Sync` so that ensemble workers can move
/// states between threads and read shared ones, such as the leaf states
/// of an outcome DAG, side by side.) The required methods split in two
/// groups:
///
/// * **execution primitives** ([`apply_gate`](Simulator::apply_gate),
///   [`measure`](Simulator::measure), [`reset`](Simulator::reset)) consumed
///   by the shared executor behind [`run`](Simulator::run);
/// * **state access** ([`set_bit`](Simulator::set_bit) /
///   [`set_value`](Simulator::set_value) to prepare inputs,
///   [`bit`](Simulator::bit) / [`value`](Simulator::value) /
///   [`global_phase`](Simulator::global_phase) to read results).
///
/// # Examples
///
/// Running the same circuit on both backends through the trait:
///
/// ```
/// use mbu_circuit::CircuitBuilder;
/// use mbu_sim::{BasisTracker, Simulator, StateVector};
/// use rand::SeedableRng;
///
/// let mut b = CircuitBuilder::new();
/// let q = b.qreg("q", 2);
/// b.cx(q[0], q[1]);
/// let circuit = b.finish();
///
/// let mut backends: Vec<Box<dyn Simulator>> = vec![
///     Box::new(BasisTracker::zeros(2)),
///     Box::new(StateVector::zeros(2).unwrap()),
/// ];
/// for sim in &mut backends {
///     sim.set_value(q.qubits(), 0b01).unwrap();
///     let mut rng = rand::rngs::StdRng::seed_from_u64(0);
///     sim.run(&circuit, &mut rng).unwrap();
///     assert_eq!(sim.value(q.qubits()).unwrap(), 0b11);
/// }
/// ```
pub trait Simulator: Any + Send + Sync {
    /// The number of qubits in the state.
    fn num_qubits(&self) -> usize;

    /// Applies one gate.
    ///
    /// # Errors
    ///
    /// Every backend returns [`SimError::OutOfRange`] if an operand lies
    /// outside the state and [`SimError::DuplicateOperand`] if a
    /// multi-qubit gate names one qubit twice, before touching the state.
    /// The rest is backend-specific: the basis tracker reports
    /// [`SimError::UnsupportedEntanglement`] for gates leaving its
    /// fragment.
    fn apply_gate(&mut self, gate: &Gate) -> Result<(), SimError>;

    /// Applies one compiled fusion block
    /// ([`mbu_circuit::FusedUnitary`]).
    ///
    /// The default replays the block's constituent gates through
    /// [`apply_gate`](Simulator::apply_gate) — bitwise the unfused
    /// stream, since fusion never reorders gates. Amplitude backends
    /// override it with a single-sweep kernel that produces bit-identical
    /// amplitudes; either way the caller tallies the constituents, so the
    /// choice is invisible in executed-gate statistics.
    ///
    /// # Errors
    ///
    /// As [`apply_gate`](Simulator::apply_gate), plus backend-specific
    /// block validation (e.g. [`SimError::InvalidFusedBlock`]).
    fn apply_fused(&mut self, block: &mbu_circuit::FusedUnitary) -> Result<(), SimError> {
        for g in block.global_gates() {
            self.apply_gate(&g)?;
        }
        Ok(())
    }

    /// Measures `qubit` in `basis`; `draw(p1)` must return `true` with
    /// probability `p1` (the backend computes the Born probability of
    /// outcome 1).
    ///
    /// # Errors
    ///
    /// Backend-specific measurement failures.
    fn measure(
        &mut self,
        qubit: QubitId,
        basis: Basis,
        draw: &mut dyn FnMut(f64) -> bool,
    ) -> Result<bool, SimError>;

    /// Resets `qubit` to `|0⟩` (measure-and-flip semantics).
    ///
    /// # Errors
    ///
    /// Backend-specific reset failures.
    fn reset(&mut self, qubit: QubitId, draw: &mut dyn FnMut(f64) -> bool) -> Result<(), SimError>;

    /// Forks the state at a measurement instead of sampling it: on
    /// `Ok(Some(Fork::Split { p_one, one }))` the receiver has become the
    /// outcome-0 branch, `one` is the outcome-1 branch and `p_one` its
    /// probability; `Ok(Some(Fork::Definite(b)))` reports a measurement
    /// that is deterministic for this backend (state untouched, no
    /// randomness would be consumed). Every branch with nonzero
    /// probability must be **bit-identical** to what
    /// [`measure`](Simulator::measure) would leave for the corresponding
    /// forced outcome, so branch-tree execution can replay per-shot runs
    /// exactly; a branch with probability exactly 0 is only guaranteed to
    /// carry (numerically) no mass — schedulers prune it without looking.
    ///
    /// The default returns `Ok(None)`: the backend does not support
    /// branch-sharing execution, and schedulers fall back to per-shot
    /// Monte Carlo.
    ///
    /// # Errors
    ///
    /// As [`measure`](Simulator::measure), for backends that do fork.
    fn measure_fork(&mut self, qubit: QubitId, basis: Basis) -> Result<Option<Fork>, SimError> {
        let _ = (qubit, basis);
        Ok(None)
    }

    /// Whether `other` holds bitwise the same state as `self`: the same
    /// backend with equal contents, whatever bookkeeping (such as
    /// occupancy high-water marks) either remembers.
    ///
    /// Branch-sharing ensembles ([`BranchEnsemble`](crate::BranchEnsemble)
    /// and the [`ShotRunner`](crate::ShotRunner)'s shared path) merge two
    /// trajectories only on `true`, so a `true` must mean that every
    /// future operation acts on both alike. The default answers `false`,
    /// which is always safe: a backend that cannot recognise its own
    /// state never rejoins, and the [`ShotRunner`](crate::ShotRunner)
    /// runs it per shot.
    fn same_state(&self, other: &dyn Simulator) -> bool {
        let _ = other;
        false
    }

    /// Sets qubit `q` to the computational-basis bit `value`.
    ///
    /// # Errors
    ///
    /// [`SimError::OutOfRange`] if `q` is outside the state;
    /// [`SimError::ReadOfSuperposedQubit`] if the qubit holds no definite
    /// bit the backend could overwrite (state-vector backend only).
    fn set_bit(&mut self, q: QubitId, value: bool) -> Result<(), SimError>;

    /// Writes the little-endian bits of `value` into `qubits`.
    ///
    /// # Errors
    ///
    /// As [`set_bit`](Simulator::set_bit), for any of the qubits.
    fn set_value(&mut self, qubits: &[QubitId], value: u128) -> Result<(), SimError> {
        for (i, q) in qubits.iter().enumerate() {
            self.set_bit(*q, i < 128 && (value >> i) & 1 == 1)?;
        }
        Ok(())
    }

    /// Reads qubit `q`'s computational bit.
    ///
    /// # Errors
    ///
    /// [`SimError::OutOfRange`] if `q` is outside the state;
    /// [`SimError::ReadOfSuperposedQubit`] if the qubit holds no definite
    /// bit.
    fn bit(&self, q: QubitId) -> Result<bool, SimError>;

    /// Reads the little-endian integer held by `qubits`.
    ///
    /// # Errors
    ///
    /// As [`bit`](Simulator::bit), plus [`SimError::OutOfRange`] for
    /// registers wider than 128 bits.
    fn value(&self, qubits: &[QubitId]) -> Result<u128, SimError> {
        if qubits.len() > 128 {
            return Err(SimError::OutOfRange {
                what: format!("register of width {}", qubits.len()),
            });
        }
        let mut v = 0u128;
        for (i, q) in qubits.iter().enumerate() {
            if self.bit(*q)? {
                v |= 1u128 << i;
            }
        }
        Ok(v)
    }

    /// The peak number of amplitudes (or analogous state entries) the most
    /// recent compiled run that succeeded operated on, when the backend
    /// tracks it.
    ///
    /// The state vector reports its live working set: the full `2^n` for a
    /// program without drops, the largest compacted array for one that
    /// reclaims qubits. The other backends report occupied entries: the
    /// sparse map's and the phase accumulator's high-water marks, and the
    /// basis tracker's `2^(X-mode qubits)` branch bound. Every backend
    /// returns `None` before its first compiled run, and a run that is
    /// refused or fails leaves the value where it was. The
    /// [`ShotRunner`](crate::ShotRunner) folds this into per-ensemble
    /// peak-memory statistics.
    fn peak_amplitudes(&self) -> Option<u64> {
        None
    }

    /// The peak number of *occupied* state entries the most recent
    /// compiled run reached, when the backend tracks one.
    ///
    /// Where [`peak_amplitudes`](Simulator::peak_amplitudes) reports the
    /// allocated working set, this
    /// reports logical occupancy: the sparse backend's high-water entry
    /// count, the basis tracker's `2^(X-mode qubits)` branch bound.
    /// Branch-tree execution aggregates it per leaf so shared-trajectory
    /// runs report peak statistics too.
    fn occupancy_peak(&self) -> Option<u64> {
        None
    }

    /// The exact dyadic global phase of the state, when the backend can
    /// produce one.
    ///
    /// The basis tracker always can; the state vector reports the phase of
    /// the dominant amplitude when the state is (numerically) a single
    /// basis state with a dyadic phase, and `None` otherwise.
    fn global_phase(&self) -> Option<Angle>;

    /// Runs an adaptive circuit, sampling measurement outcomes from `rng`,
    /// and reports what actually executed.
    ///
    /// # Errors
    ///
    /// [`SimError::OutOfRange`] if the circuit is wider than the state, or
    /// any backend error from the executed operations.
    fn run(&mut self, circuit: &Circuit, rng: &mut dyn RngCore) -> Result<Executed, SimError> {
        if circuit.num_qubits() > self.num_qubits() {
            return Err(SimError::OutOfRange {
                what: format!(
                    "{}-qubit circuit on {}-qubit state",
                    circuit.num_qubits(),
                    self.num_qubits()
                ),
            });
        }
        let mut executed = Executed::default();
        exec::execute_dyn(self, circuit.ops(), rng, &mut executed)?;
        Ok(executed)
    }

    /// Runs a pre-compiled program: a flat program-counter loop with no
    /// per-shot tree walk. Compile once with
    /// [`CompiledCircuit::lower`] (exact operation sequence) or
    /// [`CompiledCircuit::compile`] (the same sequence, fused and with
    /// drops), then execute it any number of times — the program is
    /// immutable and freely shareable across threads.
    ///
    /// Given the same `rng` stream, any compile of a circuit produces the
    /// same classical record and executed counts as [`run`](Simulator::run),
    /// and the same amplitude bits. The one exception is a drop on the
    /// dense engine: it reads the rounding residue a measured qubit's dead
    /// branch may hold (below `1e-10` in amplitude) as an exact zero.
    ///
    /// # Errors
    ///
    /// [`SimError::OutOfRange`] if the program is wider than the state, or
    /// any backend error from the executed instructions.
    fn run_compiled(
        &mut self,
        compiled: &CompiledCircuit,
        rng: &mut dyn RngCore,
    ) -> Result<Executed, SimError> {
        exec::check_width(compiled.num_qubits(), self.num_qubits())?;
        let mut executed = Executed::default();
        exec::execute_compiled(self, compiled, rng, &mut executed)?;
        Ok(executed)
    }
}
