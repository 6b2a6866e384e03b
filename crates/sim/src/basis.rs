//! The phase-tracking computational-basis backend.
//!
//! Each qubit is in one of two modes:
//!
//! * **Z-mode** — a definite computational-basis bit `|0⟩` or `|1⟩`;
//! * **X-mode** — `|+⟩` or `|−⟩` (a sign bit), the state a garbage qubit
//!   passes through during measurement-based uncomputation.
//!
//! The full state is a tensor product of per-qubit modes times an exact
//! dyadic global phase. This fragment is closed under everything the paper's
//! Toffoli-family circuits do:
//!
//! * permutation gates (X, CX, CCX) between Z-mode qubits;
//! * diagonal gates (Z, CZ, CCZ, R, C-R, CC-R) on Z-mode qubits — they only
//!   contribute a trackable global phase;
//! * `H` toggling a qubit between modes (entering/leaving the MBU protocol);
//! * *phase kickback*: an X/CX/CCX targeting an X-mode qubit flips the
//!   global phase when the (Z-mode) controls are satisfied and the target is
//!   `|−⟩` — exactly the mechanism of Lemma 4.1's correction;
//! * Z-type gates with exactly one X-mode operand toggling `|+⟩ ↔ |−⟩`;
//! * measurements in either basis.
//!
//! Anything that would entangle (e.g. CNOT with an X-mode control and
//! Z-mode target) returns [`SimError::UnsupportedEntanglement`], and so
//! does a global phase the exact dyadic [`Angle`] cannot hold. That the
//! paper's circuits never trigger this error is itself checked by the test
//! suite.

use mbu_circuit::{Angle, Basis, Circuit, CompiledCircuit, Gate, QubitId};
use rand::RngCore;

use crate::error::SimError;
use crate::exec::{self, Executed};
use crate::simulator::{Fork, Simulator};

/// Per-qubit state of the tracker.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Mode {
    /// `|0⟩` (false) or `|1⟩` (true).
    Z(bool),
    /// `|+⟩` (false) or `|−⟩` (true).
    X(bool),
}

/// A phase-tracking computational-basis simulator.
///
/// Executes Toffoli-family circuits — including MBU protocols — in `O(1)`
/// per gate with an *exact* global phase, at any width. See the module
/// documentation for the supported fragment.
///
/// # Examples
///
/// ```
/// use mbu_circuit::CircuitBuilder;
/// use mbu_sim::BasisTracker;
/// use rand::SeedableRng;
///
/// let mut b = CircuitBuilder::new();
/// let q = b.qreg("q", 2);
/// b.cx(q[0], q[1]);
/// let circuit = b.finish();
///
/// let mut sim = BasisTracker::zeros(2);
/// sim.set_bit(q[0], true).unwrap();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// sim.run(&circuit, &mut rng).unwrap();
/// assert_eq!(sim.bit(q[1]).unwrap(), true);
/// ```
#[derive(Clone, Debug)]
pub struct BasisTracker {
    qubits: Vec<Mode>,
    /// Global phase as a fraction of a turn: the state carries
    /// `e^{2πi·phase}`.
    phase: Angle,
    /// How many qubits are currently in X-mode: the tracked product state
    /// occupies `2^x_count` computational-basis states, the figure the
    /// amplitude backends call "occupied entries". Maintained
    /// incrementally by [`set_mode`](Self::set_mode) so occupancy stats
    /// stay `O(1)` per gate like everything else here.
    x_count: usize,
    /// Occupied-state high-water mark since the last compiled-run start
    /// (saturating at `u64::MAX` — the tracker happily holds more X-mode
    /// qubits than any counter of states could).
    peak: u64,
    /// The high-water mark of the most recent compiled run, once one ran.
    last_run_peak: Option<u64>,
}

/// Occupancy statistics are bookkeeping, not state: two trackers are equal
/// when they hold the same per-qubit modes and global phase, whatever
/// their high-water marks remember.
impl PartialEq for BasisTracker {
    fn eq(&self, other: &Self) -> bool {
        self.qubits == other.qubits && self.phase == other.phase
    }
}

impl Eq for BasisTracker {}

impl BasisTracker {
    /// Creates `|0…0⟩` over `num_qubits` qubits.
    #[must_use]
    pub fn zeros(num_qubits: usize) -> Self {
        Self {
            qubits: vec![Mode::Z(false); num_qubits],
            phase: Angle::ZERO,
            x_count: 0,
            peak: 1,
            last_run_peak: None,
        }
    }

    /// The number of computational-basis states the tracked product state
    /// occupies: `2^(X-mode qubits)`, saturating at `u64::MAX`. The same
    /// quantity the amplitude backends report as occupied entries, so all
    /// three backends answer [`Simulator::peak_amplitudes`] in one unit.
    #[must_use]
    pub fn occupied(&self) -> u64 {
        u32::try_from(self.x_count)
            .ok()
            .and_then(|k| 1u64.checked_shl(k))
            .unwrap_or(u64::MAX)
    }

    /// The single mode-write funnel: adjusts the incremental X-mode count
    /// and the occupancy high-water mark. Every mode transition routes
    /// through here (a plain `qubits.swap` is exempt — it moves modes
    /// without changing the census).
    fn set_mode(&mut self, i: usize, mode: Mode) {
        match (self.qubits[i], mode) {
            (Mode::Z(_), Mode::X(_)) => {
                self.x_count += 1;
                let occupied = self.occupied();
                if occupied > self.peak {
                    self.peak = occupied;
                }
            }
            (Mode::X(_), Mode::Z(_)) => self.x_count -= 1,
            _ => {}
        }
        self.qubits[i] = mode;
    }

    /// The number of qubits.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.qubits.len()
    }

    /// Sets qubit `q` to the computational-basis bit `value`.
    ///
    /// Inherent front for [`Simulator::set_bit`]. This used to panic on an
    /// out-of-range qubit — a reachable crash for any caller preparing
    /// inputs from external data — and now reports it instead.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfRange`] if `q` is outside the state.
    pub fn set_bit(&mut self, q: QubitId, value: bool) -> Result<(), SimError> {
        Simulator::set_bit(self, q, value)
    }

    /// Writes the little-endian bits of `value` into `qubits`.
    ///
    /// Inherent front for [`Simulator::set_value`]. This used to panic on
    /// an out-of-range qubit — a reachable crash for any caller preparing
    /// inputs from external data — and now reports it instead.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfRange`] if any qubit is outside the state.
    pub fn set_value(&mut self, qubits: &[QubitId], value: u128) -> Result<(), SimError> {
        Simulator::set_value(self, qubits, value)
    }

    /// Reads qubit `q`'s computational bit.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ReadOfSuperposedQubit`] if the qubit is in
    /// X-mode, or [`SimError::OutOfRange`] if `q` is outside the state.
    pub fn bit(&self, q: QubitId) -> Result<bool, SimError> {
        Simulator::bit(self, q)
    }

    /// Reads the little-endian integer held by `qubits`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ReadOfSuperposedQubit`] if any qubit is in
    /// X-mode, or [`SimError::OutOfRange`] for registers wider than 128.
    pub fn value(&self, qubits: &[QubitId]) -> Result<u128, SimError> {
        Simulator::value(self, qubits)
    }

    /// Reads the register as little-endian bits (any width).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ReadOfSuperposedQubit`] if any qubit is in
    /// X-mode.
    pub fn bits(&self, qubits: &[QubitId]) -> Result<Vec<bool>, SimError> {
        qubits.iter().map(|q| self.bit(*q)).collect()
    }

    /// The tracked global phase, as an exact fraction of a turn.
    ///
    /// A correct uncomputation leaves this at [`Angle::ZERO`]; a sign error
    /// in an MBU correction shows up here as `2π/2` — this is how the test
    /// suite checks *phase* correctness at widths where no state vector
    /// fits.
    #[must_use]
    pub fn global_phase(&self) -> Angle {
        self.phase
    }

    /// Runs an adaptive circuit, sampling measurements from `rng`.
    ///
    /// Convenience wrapper over the [`Simulator`] trait method for callers
    /// holding a concrete tracker and a concrete generator.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnsupportedEntanglement`] if the circuit leaves
    /// the tracked fragment, or propagates executor errors.
    pub fn run<R: RngCore>(
        &mut self,
        circuit: &Circuit,
        rng: &mut R,
    ) -> Result<Executed, SimError> {
        Simulator::run(self, circuit, rng)
    }

    /// `q`'s index into the mode table, or [`SimError::OutOfRange`]
    /// naming it as the `role` operand.
    fn index_of(&self, q: QubitId, role: &str) -> Result<usize, SimError> {
        if q.index() < self.qubits.len() {
            Ok(q.index())
        } else {
            Err(SimError::OutOfRange {
                what: format!("{role} q{}", q.0),
            })
        }
    }

    /// Adds `theta` to the exact global phase; `op` renders the operation
    /// that contributed it. A sum [`Angle::checked_add`] cannot hold
    /// exactly is a state the tracker cannot represent, reported as
    /// [`SimError::UnsupportedEntanglement`].
    fn add_phase(&mut self, theta: Angle, op: impl FnOnce() -> String) -> Result<(), SimError> {
        let Some(sum) = self.phase.checked_add(theta) else {
            return Err(SimError::UnsupportedEntanglement {
                gate: op(),
                reason: "global phase leaves the exact dyadic range",
            });
        };
        self.phase = sum;
        Ok(())
    }

    /// Adds a half turn to the global phase (see [`add_phase`](Self::add_phase)).
    fn flip_phase(&mut self, op: impl FnOnce() -> String) -> Result<(), SimError> {
        self.add_phase(Angle::HALF_TURN, op)
    }

    /// Applies an X to `q` as part of `gate`: flips a Z-mode bit; on
    /// X-mode, `X|−⟩ = −|−⟩`.
    fn apply_x(&mut self, q: QubitId, gate: &Gate) -> Result<(), SimError> {
        match self.qubits[q.index()] {
            Mode::Z(b) => self.set_mode(q.index(), Mode::Z(!b)),
            Mode::X(sign) => {
                if sign {
                    self.flip_phase(|| gate.to_string())?;
                }
            }
        }
        Ok(())
    }

    /// Applies a Z-type phase of `theta` controlled on all `operands`.
    ///
    /// Z-mode operands with bit 0 make the gate the identity; Z-mode
    /// operands with bit 1 are satisfied controls. What remains must be
    /// either nothing (global phase) or — for `theta = π` only — a single
    /// X-mode qubit, whose sign toggles (`Z|±⟩ = |∓⟩`).
    fn apply_phase_on(
        &mut self,
        operands: &[QubitId],
        theta: Angle,
        gate: &Gate,
    ) -> Result<(), SimError> {
        let mut x_mode: Option<QubitId> = None;
        for q in operands {
            match self.qubits[q.index()] {
                Mode::Z(false) => return Ok(()), // unsatisfied control
                Mode::Z(true) => {}
                Mode::X(_) => {
                    if x_mode.replace(*q).is_some() {
                        return Err(SimError::UnsupportedEntanglement {
                            gate: gate.to_string(),
                            reason: "two operands of a diagonal gate are in superposition",
                        });
                    }
                }
            }
        }
        match x_mode {
            None => self.add_phase(theta, || gate.to_string()),
            Some(q) => {
                if theta == Angle::HALF_TURN {
                    // Z on |±⟩ toggles the sign.
                    let Mode::X(sign) = self.qubits[q.index()] else {
                        unreachable!("x_mode only holds X-mode qubits");
                    };
                    self.set_mode(q.index(), Mode::X(!sign));
                    Ok(())
                } else {
                    Err(SimError::UnsupportedEntanglement {
                        gate: gate.to_string(),
                        reason: "non-π rotation of a superposed qubit",
                    })
                }
            }
        }
    }

    /// Applies an X to `target` under Z-mode controls. If any control is
    /// unsatisfied the gate is the identity; a superposed control is
    /// unsupported (it would entangle) unless the target is also superposed,
    /// in which case CNOT acts in the X basis: the *control's* sign absorbs
    /// the target's sign.
    fn apply_controlled_x(
        &mut self,
        controls: &[QubitId],
        target: QubitId,
        gate: &Gate,
    ) -> Result<(), SimError> {
        // In the X basis a CNOT inverts: |s_c⟩|s_t⟩ ↦ |s_c ⊕ s_t⟩|s_t⟩.
        // Support the all-X-mode two-qubit case used when composing MBU
        // fragments; otherwise controls must be Z-mode.
        if controls.len() == 1 {
            if let (Mode::X(sc), Mode::X(st)) = (
                self.qubits[controls[0].index()],
                self.qubits[target.index()],
            ) {
                self.set_mode(controls[0].index(), Mode::X(sc ^ st));
                return Ok(());
            }
        }
        for c in controls {
            match self.qubits[c.index()] {
                Mode::Z(false) => return Ok(()),
                Mode::Z(true) => {}
                Mode::X(_) => {
                    return Err(SimError::UnsupportedEntanglement {
                        gate: gate.to_string(),
                        reason: "control qubit is in superposition",
                    })
                }
            }
        }
        self.apply_x(target, gate)
    }

    fn apply(&mut self, gate: &Gate) -> Result<(), SimError> {
        match *gate {
            Gate::X(q) => self.apply_x(q, gate),
            Gate::Z(q) => self.apply_phase_on(&[q], Angle::HALF_TURN, gate),
            Gate::H(q) => {
                // H|0⟩=|+⟩, H|1⟩=|−⟩, H|+⟩=|0⟩, H|−⟩=|1⟩.
                let mode = match self.qubits[q.index()] {
                    Mode::Z(b) => Mode::X(b),
                    Mode::X(s) => Mode::Z(s),
                };
                self.set_mode(q.index(), mode);
                Ok(())
            }
            Gate::Phase(q, theta) => self.apply_phase_on(&[q], theta, gate),
            Gate::Cx(c, t) => self.apply_controlled_x(&[c], t, gate),
            Gate::Cz(a, b) => self.apply_phase_on(&[a, b], Angle::HALF_TURN, gate),
            Gate::Ccx(c1, c2, t) => self.apply_controlled_x(&[c1, c2], t, gate),
            Gate::Ccz(a, b, c) => self.apply_phase_on(&[a, b, c], Angle::HALF_TURN, gate),
            Gate::CPhase(c, t, theta) => self.apply_phase_on(&[c, t], theta, gate),
            Gate::CcPhase(c1, c2, t, theta) => self.apply_phase_on(&[c1, c2, t], theta, gate),
            Gate::Swap(a, b) => {
                self.qubits.swap(a.index(), b.index());
                Ok(())
            }
        }
    }
}

impl Simulator for BasisTracker {
    fn num_qubits(&self) -> usize {
        self.qubits.len()
    }

    fn apply_gate(&mut self, gate: &Gate) -> Result<(), SimError> {
        exec::validate_gate(gate, self.qubits.len())?;
        self.apply(gate)
    }

    fn set_bit(&mut self, q: QubitId, value: bool) -> Result<(), SimError> {
        let i = self.index_of(q, "qubit")?;
        self.set_mode(i, Mode::Z(value));
        Ok(())
    }

    fn bit(&self, q: QubitId) -> Result<bool, SimError> {
        match self.qubits.get(q.index()) {
            None => Err(SimError::OutOfRange {
                what: format!("qubit q{}", q.0),
            }),
            Some(Mode::Z(b)) => Ok(*b),
            Some(Mode::X(_)) => Err(SimError::ReadOfSuperposedQubit { qubit: q.0 }),
        }
    }

    fn global_phase(&self) -> Option<Angle> {
        Some(self.phase)
    }

    fn measure(
        &mut self,
        qubit: QubitId,
        basis: Basis,
        draw: &mut dyn FnMut(f64) -> bool,
    ) -> Result<bool, SimError> {
        let i = self.index_of(qubit, "measured qubit")?;
        match (basis, self.qubits[i]) {
            // Measuring a definite bit is deterministic.
            (Basis::Z, Mode::Z(b)) => Ok(b),
            (Basis::X, Mode::X(s)) => Ok(s),
            // Measuring across bases is a fair coin; the surviving
            // amplitude's sign becomes a global phase.
            (Basis::Z, Mode::X(s)) => {
                let outcome = draw(0.5);
                // (|0⟩ + (−1)^s|1⟩)/√2: outcome 1 picks up the sign.
                if s && outcome {
                    self.flip_phase(|| format!("M{basis} {qubit}"))?;
                }
                self.set_mode(i, Mode::Z(outcome));
                Ok(outcome)
            }
            (Basis::X, Mode::Z(b)) => {
                let outcome = draw(0.5);
                // |b⟩ = (|+⟩ + (−1)^b|−⟩)/√2: outcome |−⟩ picks up (−1)^b.
                if b && outcome {
                    self.flip_phase(|| format!("M{basis} {qubit}"))?;
                }
                self.set_mode(i, Mode::X(outcome));
                Ok(outcome)
            }
        }
    }

    fn reset(&mut self, qubit: QubitId, draw: &mut dyn FnMut(f64) -> bool) -> Result<(), SimError> {
        let i = self.index_of(qubit, "reset qubit")?;
        match self.qubits[i] {
            Mode::Z(_) => {}
            Mode::X(s) => {
                // Collapse first (a fair coin); |−⟩ collapsing to |1⟩
                // contributes a π phase, exactly as a measurement would.
                let outcome = draw(0.5);
                if s && outcome {
                    self.flip_phase(|| format!("reset {qubit}"))?;
                }
            }
        }
        self.set_mode(i, Mode::Z(false));
        Ok(())
    }

    /// Both-branch measurement for the branch-tree engine. Same-basis
    /// measurements are deterministic for the tracker — it consumes no
    /// randomness for them (see [`measure`](Simulator::measure)) — so they
    /// report [`Fork::Definite`]; cross-basis measurements are fair coins
    /// whose two collapsed children (including the |−⟩-collapse phase
    /// flip) are produced by cloning the per-qubit mode table.
    fn measure_fork(&mut self, qubit: QubitId, basis: Basis) -> Result<Option<Fork>, SimError> {
        let i = self.index_of(qubit, "measured qubit")?;
        let split = |zero: &mut Self, one_mode: Mode, flip: bool| -> Result<Fork, SimError> {
            let mut one = zero.clone();
            one.last_run_peak = None;
            one.set_mode(i, one_mode);
            if flip {
                one.flip_phase(|| format!("M{basis} {qubit}"))?;
            }
            Ok(Fork::Split {
                p_one: 0.5,
                one: Some(Box::new(one)),
            })
        };
        match (basis, self.qubits[i]) {
            (Basis::Z, Mode::Z(b)) => Ok(Some(Fork::Definite(b))),
            (Basis::X, Mode::X(s)) => Ok(Some(Fork::Definite(s))),
            (Basis::Z, Mode::X(s)) => {
                // (|0⟩ + (−1)^s|1⟩)/√2: outcome 1 picks up the sign.
                let fork = split(self, Mode::Z(true), s)?;
                self.set_mode(i, Mode::Z(false));
                Ok(Some(fork))
            }
            (Basis::X, Mode::Z(b)) => {
                // |b⟩ = (|+⟩ + (−1)^b|−⟩)/√2: outcome |−⟩ picks up (−1)^b.
                let fork = split(self, Mode::X(true), b)?;
                self.set_mode(i, Mode::X(false));
                Ok(Some(fork))
            }
        }
    }

    fn peak_amplitudes(&self) -> Option<u64> {
        self.last_run_peak
    }

    /// The occupied-state high-water mark since construction (or since the
    /// most recent compiled-run start, which resets it) — live occupancy
    /// in the same unit the amplitude backends use, available even for
    /// gate-at-a-time callers like the branch-tree engine.
    fn occupancy_peak(&self) -> Option<u64> {
        Some(self.peak)
    }

    /// Compiled execution with occupancy bookkeeping: the shared
    /// program-counter loop, bracketed by a high-water-mark reset and
    /// capture so the tracker reports
    /// [`peak_amplitudes`](Simulator::peak_amplitudes) in the same
    /// occupied-states unit as the amplitude backends. Gates and fused
    /// blocks go straight to the unchecked `apply`: lowering validated
    /// every operand, and `check_width` bounds them by the mode table.
    fn run_compiled(
        &mut self,
        compiled: &CompiledCircuit,
        rng: &mut dyn RngCore,
    ) -> Result<Executed, SimError> {
        exec::check_width(compiled.num_qubits(), self.num_qubits())?;
        self.peak = self.occupied();
        let mut executed = Executed::default();
        exec::execute_compiled_core(
            self,
            compiled,
            rng,
            &mut executed,
            |s, g| s.apply(g),
            |s, fu| fu.global_gates().try_for_each(|g| s.apply(&g)),
            |_, q| Ok(q),
            |_, _| {},
        )?;
        self.last_run_peak = Some(self.peak);
        Ok(executed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbu_circuit::CircuitBuilder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn q(i: u32) -> QubitId {
        QubitId(i)
    }

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn permutation_gates_track_bits() {
        let mut t = BasisTracker::zeros(3);
        t.set_value(&[q(0), q(1), q(2)], 0b011).unwrap();
        t.apply(&Gate::Ccx(q(0), q(1), q(2))).unwrap();
        assert_eq!(t.value(&[q(0), q(1), q(2)]).unwrap(), 0b111);
        t.apply(&Gate::Cx(q(2), q(0))).unwrap();
        assert!(!t.bit(q(0)).unwrap());
        assert!(t.global_phase().is_zero());
    }

    #[test]
    fn diagonal_gates_accumulate_phase() {
        let mut t = BasisTracker::zeros(2);
        t.set_value(&[q(0), q(1)], 0b11).unwrap();
        t.apply(&Gate::Cz(q(0), q(1))).unwrap();
        assert_eq!(t.global_phase(), Angle::HALF_TURN);
        t.apply(&Gate::Cz(q(0), q(1))).unwrap();
        assert!(t.global_phase().is_zero());
    }

    #[test]
    fn unsatisfied_control_is_identity() {
        let mut t = BasisTracker::zeros(2);
        t.set_bit(q(0), false).unwrap();
        t.set_bit(q(1), true).unwrap();
        t.apply(&Gate::Cz(q(0), q(1))).unwrap();
        assert!(t.global_phase().is_zero());
        t.apply(&Gate::Cx(q(0), q(1))).unwrap();
        assert!(t.bit(q(1)).unwrap());
    }

    #[test]
    fn hadamard_toggles_modes() {
        let mut t = BasisTracker::zeros(1);
        t.set_bit(q(0), true).unwrap();
        t.apply(&Gate::H(q(0))).unwrap(); // |−⟩
        assert!(t.bit(q(0)).is_err());
        t.apply(&Gate::H(q(0))).unwrap(); // back to |1⟩
        assert!(t.bit(q(0)).unwrap());
        assert!(t.global_phase().is_zero());
    }

    #[test]
    fn z_toggles_plus_minus() {
        let mut t = BasisTracker::zeros(1);
        t.apply(&Gate::H(q(0))).unwrap(); // |+⟩
        t.apply(&Gate::Z(q(0))).unwrap(); // |−⟩
        t.apply(&Gate::H(q(0))).unwrap(); // |1⟩
        assert!(t.bit(q(0)).unwrap());
    }

    #[test]
    fn cnot_kickback_on_minus_target() {
        // CX with control |1⟩ and target |−⟩ flips the global phase.
        let mut t = BasisTracker::zeros(2);
        t.set_bit(q(0), true).unwrap();
        t.set_bit(q(1), true).unwrap();
        t.apply(&Gate::H(q(1))).unwrap(); // |−⟩
        t.apply(&Gate::Cx(q(0), q(1))).unwrap();
        assert_eq!(t.global_phase(), Angle::HALF_TURN);
        // Control |0⟩: no kickback.
        t.set_bit(q(0), false).unwrap();
        t.apply(&Gate::Cx(q(0), q(1))).unwrap();
        assert_eq!(t.global_phase(), Angle::HALF_TURN);
    }

    #[test]
    fn toffoli_kickback_needs_both_controls() {
        let mut t = BasisTracker::zeros(3);
        t.set_value(&[q(0), q(1)], 0b01).unwrap();
        t.set_bit(q(2), true).unwrap();
        t.apply(&Gate::H(q(2))).unwrap(); // |−⟩
        t.apply(&Gate::Ccx(q(0), q(1), q(2))).unwrap();
        assert!(t.global_phase().is_zero(), "one control unsatisfied");
        t.set_value(&[q(0), q(1)], 0b11).unwrap();
        t.apply(&Gate::Ccx(q(0), q(1), q(2))).unwrap();
        assert_eq!(t.global_phase(), Angle::HALF_TURN);
    }

    #[test]
    fn entangling_gates_error_out() {
        let mut t = BasisTracker::zeros(2);
        t.apply(&Gate::H(q(0))).unwrap();
        let err = t.apply(&Gate::Cx(q(0), q(1))).unwrap_err();
        assert!(matches!(err, SimError::UnsupportedEntanglement { .. }));

        let mut t = BasisTracker::zeros(2);
        t.apply(&Gate::H(q(0))).unwrap();
        t.apply(&Gate::H(q(1))).unwrap();
        let err = t.apply(&Gate::Cz(q(0), q(1))).unwrap_err();
        assert!(matches!(err, SimError::UnsupportedEntanglement { .. }));
    }

    #[test]
    fn measure_z_of_definite_bit_is_deterministic() {
        let mut b = CircuitBuilder::new();
        let r = b.qreg("q", 1);
        b.x(r[0]);
        let _ = b.measure(r[0], Basis::Z);
        let circuit = b.finish();
        for seed in 0..8 {
            let mut t = BasisTracker::zeros(1);
            let ex = t.run(&circuit, &mut rng(seed)).unwrap();
            assert!(ex.outcome(0).unwrap());
        }
    }

    #[test]
    fn measure_z_of_minus_state_tracks_sign() {
        // |−⟩ measured in Z: outcome 1 carries amplitude −1/√2 → phase π.
        for seed in 0..16 {
            let mut t = BasisTracker::zeros(1);
            t.set_bit(q(0), true).unwrap();
            t.apply(&Gate::H(q(0))).unwrap(); // |−⟩
            let mut r = rng(seed);
            let mut draw = move |p: f64| r.gen_bool(p);
            let outcome = t.measure(q(0), Basis::Z, &mut draw).unwrap();
            assert_eq!(t.bit(q(0)).unwrap(), outcome);
            let expected = if outcome {
                Angle::HALF_TURN
            } else {
                Angle::ZERO
            };
            assert_eq!(t.global_phase(), expected);
        }
    }

    #[test]
    fn mbu_protocol_restores_zero_phase_both_branches() {
        // Lemma 4.1 end to end on a basis state, with Ug a CNOT computing
        // g(x) = x into the garbage qubit.
        let mut b = CircuitBuilder::new();
        let r = b.qreg("q", 2); // q0 = x, q1 = garbage holding g(x) = x
        b.cx(r[0], r[1]); // compute garbage
                          // MBU: H, measure; if 1 then H, Ug, H, X.
        b.h(r[1]);
        let m = b.measure(r[1], Basis::Z);
        let (_, fix) = b.record(|b| {
            b.h(r[1]);
            b.cx(r[0], r[1]); // Ug
            b.h(r[1]);
            b.x(r[1]);
        });
        b.emit_conditional(m, &fix);
        let circuit = b.finish();

        let mut seen = [false, false];
        for seed in 0..32 {
            let mut t = BasisTracker::zeros(2);
            t.set_bit(q(0), true).unwrap(); // g(x) = 1, the interesting branch
            let ex = t.run(&circuit, &mut rng(seed)).unwrap();
            let outcome = ex.outcome(0).unwrap();
            seen[usize::from(outcome)] = true;
            assert!(!t.bit(q(1)).unwrap(), "garbage uncomputed");
            assert!(t.bit(q(0)).unwrap(), "data preserved");
            assert!(t.global_phase().is_zero(), "phase cancels exactly");
        }
        assert!(seen[0] && seen[1], "both outcomes exercised");
    }

    #[test]
    fn compiled_drops_are_noops_on_the_tracker() {
        // The compiled reclamation pass emits `Drop` for the measured MBU
        // garbage; the tracker has per-qubit state (nothing to compact), so
        // it must execute straight through the drop with the protocol's
        // invariants intact — which is what keeps cross-validation against
        // the reclaiming state vector meaningful.
        use mbu_circuit::CompiledCircuit;
        let mut b = CircuitBuilder::new();
        let r = b.qreg("q", 3);
        b.ccx(r[0], r[1], r[2]);
        b.h(r[2]);
        let m = b.measure(r[2], Basis::Z);
        let (_, fix) = b.record(|b| {
            b.cz(r[0], r[1]);
            b.x(r[2]);
        });
        b.emit_conditional(m, &fix);
        let compiled = CompiledCircuit::compile(&b.finish()).unwrap();
        assert!(compiled.reclaims_qubits(), "{compiled}");
        for seed in 0..16 {
            let mut t = BasisTracker::zeros(3);
            t.set_bit(q(0), true).unwrap();
            t.set_bit(q(1), true).unwrap();
            let mut r = rng(seed);
            let ex = Simulator::run_compiled(&mut t, &compiled, &mut r).unwrap();
            assert!(ex.outcome(0).is_ok());
            assert!(!t.bit(q(2)).unwrap(), "AND ancilla uncomputed");
            assert!(t.bit(q(0)).unwrap() && t.bit(q(1)).unwrap());
            assert!(t.global_phase().is_zero(), "seed {seed}");
            assert_eq!(
                Simulator::peak_amplitudes(&t),
                Some(2),
                "the AND ancilla's |±⟩ excursion is the occupancy peak"
            );
        }
    }

    #[test]
    fn occupancy_stats_count_x_mode_qubits() {
        let mut t = BasisTracker::zeros(300);
        assert_eq!(t.occupied(), 1);
        assert_eq!(Simulator::peak_amplitudes(&t), None, "no compiled run yet");
        for i in 0..70u32 {
            t.apply(&Gate::H(q(i))).unwrap();
        }
        assert_eq!(t.occupied(), u64::MAX, "2^70 saturates the counter");
        for i in 0..70u32 {
            t.apply(&Gate::H(q(i))).unwrap();
        }
        assert_eq!(t.occupied(), 1, "H is self-inverse in the census too");
        // Every other transition keeps the census exact: measurement
        // collapse, reset, set_bit over an X-mode qubit, swap.
        t.apply(&Gate::H(q(0))).unwrap();
        t.apply(&Gate::H(q(1))).unwrap();
        t.apply(&Gate::Swap(q(1), q(2))).unwrap();
        assert_eq!(t.occupied(), 4);
        let mut draw = |p: f64| p >= 0.5;
        t.measure(q(0), Basis::Z, &mut draw).unwrap();
        assert_eq!(t.occupied(), 2);
        t.reset(q(2), &mut draw).unwrap();
        assert_eq!(t.occupied(), 1);
        t.apply(&Gate::H(q(5))).unwrap();
        t.set_bit(q(5), false).unwrap();
        assert_eq!(t.occupied(), 1);
    }

    #[test]
    fn fork_children_inherit_an_exact_census() {
        let mut t = BasisTracker::zeros(2);
        t.apply(&Gate::H(q(0))).unwrap();
        t.apply(&Gate::H(q(1))).unwrap();
        let Some(Fork::Split { one, .. }) = t.measure_fork(q(0), Basis::Z).unwrap() else {
            panic!("cross-basis measurement must split");
        };
        assert_eq!(t.occupied(), 2, "zero branch collapsed one qubit");
        let one = one.unwrap();
        assert_eq!(
            one.peak_amplitudes(),
            None,
            "children report no stale compiled-run peak"
        );
    }

    #[test]
    fn executed_counts_reflect_taken_branch() {
        let mut b = CircuitBuilder::new();
        let r = b.qreg("q", 1);
        b.h(r[0]);
        let m = b.measure(r[0], Basis::Z);
        let (_, fix) = b.record(|b| b.x(r[0]));
        b.emit_conditional(m, &fix);
        let circuit = b.finish();

        let mut took = 0;
        let trials = 200;
        for seed in 0..trials {
            let mut t = BasisTracker::zeros(1);
            let ex = t.run(&circuit, &mut rng(seed)).unwrap();
            took += u64::from(ex.counts.x == 1);
            // Whatever branch: the X resets the qubit to |0⟩.
            assert!(!t.bit(q(0)).unwrap());
        }
        // Should be a fair coin, loosely.
        assert!(took > 50 && took < 150, "took {took}/{trials}");
    }

    #[test]
    fn wide_registers_work() {
        let n = 300;
        let t = BasisTracker::zeros(n);
        let qubits: Vec<QubitId> = (0..n as u32).map(QubitId).collect();
        let bits = t.bits(&qubits).unwrap();
        assert_eq!(bits.len(), n);
        assert!(t.value(&qubits[..128]).is_ok());
        assert!(t.value(&qubits).is_err(), "value() limited to 128 bits");
    }

    #[test]
    fn set_bit_out_of_range_errors_instead_of_panicking() {
        // Regression: this used to `.expect("qubit out of range")` and
        // abort the process on bad input; it now reports a typed error
        // and leaves the tracker untouched.
        let mut t = BasisTracker::zeros(3);
        assert!(matches!(
            t.set_bit(q(3), true),
            Err(SimError::OutOfRange { .. })
        ));
        assert_eq!(t.value(&[q(0), q(1), q(2)]).unwrap(), 0);
    }

    #[test]
    fn bad_operands_error_like_the_other_backends() {
        // Regression: gates, measurements and resets on a qubit past the
        // width used to index the mode table and panic, and `Cx(q0, q0)`
        // ran as if it were a gate. Every backend now rejects both with
        // the same typed errors.
        let mut t = BasisTracker::zeros(2);
        for gate in [
            Gate::X(q(5)),
            Gate::Ccx(q(0), q(1), q(2)),
            Gate::Cz(q(9), q(0)),
        ] {
            assert!(
                matches!(t.apply_gate(&gate), Err(SimError::OutOfRange { .. })),
                "{gate}"
            );
        }
        for gate in [Gate::Cx(q(0), q(0)), Gate::Ccz(q(1), q(0), q(1))] {
            assert!(
                matches!(t.apply_gate(&gate), Err(SimError::DuplicateOperand { .. })),
                "{gate}"
            );
        }
        let mut never = |_: f64| -> bool { unreachable!("no draw on a rejected qubit") };
        for basis in [Basis::Z, Basis::X] {
            assert!(matches!(
                t.measure(q(2), basis, &mut never),
                Err(SimError::OutOfRange { .. })
            ));
        }
        assert!(matches!(
            t.reset(q(2), &mut never),
            Err(SimError::OutOfRange { .. })
        ));
        assert_eq!(t.value(&[q(0), q(1)]).unwrap(), 0, "left untouched");
        assert!(t.global_phase().is_zero());
    }

    #[test]
    fn phase_sums_past_the_dyadic_range_error_instead_of_panicking() {
        // Regression: the global phase used `Angle`'s panicking `+`, so a
        // sum whose exact numerator outgrows 128 bits (π + 2π/2^200)
        // aborted the process where the amplitude backends return `Ok`.
        // Both phase paths — a diagonal gate on set bits and an X
        // kickback off |−⟩ — now report the typed "cannot represent".
        let deep = Angle::turn_over_power_of_two(200);
        let programs = [
            vec![Gate::X(q(0)), Gate::Z(q(0)), Gate::Phase(q(0), deep)],
            vec![
                Gate::X(q(0)),
                Gate::Phase(q(0), deep),
                Gate::X(q(1)),
                Gate::H(q(1)),
                Gate::X(q(1)),
            ],
        ];
        for (i, gates) in programs.into_iter().enumerate() {
            let ops = gates.into_iter().map(mbu_circuit::Op::Gate).collect();
            let circuit = Circuit::from_ops(2, 0, ops);
            let program = CompiledCircuit::compile(&circuit).unwrap();
            let interpreted = BasisTracker::zeros(2).run(&circuit, &mut rng(0));
            let compiled = BasisTracker::zeros(2).run_compiled(&program, &mut rng(0));
            for result in [interpreted.map(|_| ()), compiled.map(|_| ())] {
                assert!(
                    matches!(
                        result,
                        Err(SimError::UnsupportedEntanglement {
                            reason: "global phase leaves the exact dyadic range",
                            ..
                        })
                    ),
                    "program {i}: {result:?}"
                );
            }
        }
    }

    #[test]
    fn set_value_out_of_range_errors_instead_of_panicking() {
        // Regression twin for the register-wide front: any qubit past the
        // tracker's width fails the whole write with a typed error.
        let mut t = BasisTracker::zeros(3);
        assert!(matches!(
            t.set_value(&[q(1), q(7)], 3),
            Err(SimError::OutOfRange { .. })
        ));
    }
}
