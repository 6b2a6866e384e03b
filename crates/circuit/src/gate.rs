//! The unitary gate set.

use std::fmt;

use crate::angle::Angle;
use crate::op::QubitId;

/// Measurement basis for [`Op::Measure`](crate::Op::Measure).
///
/// MBU (Lemma 4.1) measures the garbage qubit in the `X` basis; the
/// comparison ancillas of the modular adders are read out in `Z`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Basis {
    /// Computational basis `{|0⟩, |1⟩}`.
    Z,
    /// Hadamard basis `{|+⟩, |−⟩}`; outcome 1 corresponds to `|−⟩`.
    X,
}

impl fmt::Display for Basis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Basis::Z => write!(f, "Z"),
            Basis::X => write!(f, "X"),
        }
    }
}

/// A unitary gate from the paper's gate set (§1.3).
///
/// Diagonal rotations use exact dyadic [`Angle`]s. `S` and `T` gates are
/// expressed as `Phase` with angles `2π/4` and `2π/8`; `Z`, `CZ` and `CCZ`
/// are kept as distinct variants because the paper's Table 1 counts CZ
/// together with CNOT, separately from rotations.
///
/// # Examples
///
/// ```
/// use mbu_circuit::{Angle, Gate, QubitId};
///
/// let t_gate = Gate::Phase(QubitId(0), Angle::turn_over_power_of_two(3));
/// assert_eq!(t_gate.adjoint().adjoint(), t_gate);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Gate {
    /// Pauli X (NOT).
    X(QubitId),
    /// Pauli Z.
    Z(QubitId),
    /// Hadamard.
    H(QubitId),
    /// Diagonal phase rotation `|1⟩ ↦ e^{iθ}|1⟩` (the paper's `R(θ)`).
    Phase(QubitId, Angle),
    /// Controlled NOT: `(control, target)`.
    Cx(QubitId, QubitId),
    /// Controlled Z (symmetric in its operands).
    Cz(QubitId, QubitId),
    /// Toffoli / CCNOT: `(control, control, target)`.
    Ccx(QubitId, QubitId, QubitId),
    /// Doubly-controlled Z (symmetric in its operands).
    Ccz(QubitId, QubitId, QubitId),
    /// Controlled rotation `C-R(θ)` (Figure 3): `(control, target, θ)`.
    CPhase(QubitId, QubitId, Angle),
    /// Doubly-controlled rotation `CC-R(θ)` (Theorem 2.14):
    /// `(control, control, target, θ)`.
    CcPhase(QubitId, QubitId, QubitId, Angle),
    /// Swap two qubits.
    Swap(QubitId, QubitId),
}

impl Gate {
    /// The adjoint (inverse) gate.
    ///
    /// All gates in the set are self-adjoint except the rotations, which
    /// negate their angle.
    #[must_use]
    pub fn adjoint(&self) -> Gate {
        match *self {
            Gate::Phase(q, theta) => Gate::Phase(q, -theta),
            Gate::CPhase(c, t, theta) => Gate::CPhase(c, t, -theta),
            Gate::CcPhase(c1, c2, t, theta) => Gate::CcPhase(c1, c2, t, -theta),
            other => other,
        }
    }

    /// Calls `visit` on every operand qubit.
    pub fn for_each_qubit(&self, visit: &mut impl FnMut(QubitId)) {
        match *self {
            Gate::X(q) | Gate::Z(q) | Gate::H(q) | Gate::Phase(q, _) => visit(q),
            Gate::Cx(a, b) | Gate::Cz(a, b) | Gate::CPhase(a, b, _) | Gate::Swap(a, b) => {
                visit(a);
                visit(b);
            }
            Gate::Ccx(a, b, c) | Gate::Ccz(a, b, c) | Gate::CcPhase(a, b, c, _) => {
                visit(a);
                visit(b);
                visit(c);
            }
        }
    }

    /// Returns the same gate with every operand qubit replaced by
    /// `f(qubit)`, preserving the gate family, operand order and angle.
    ///
    /// Executors that address storage through a remap table (the state
    /// vector's qubit-reclamation engine) use this to translate logical
    /// operands to physical bit positions without special-casing each gate
    /// family.
    #[must_use]
    pub fn map_qubits(&self, mut f: impl FnMut(QubitId) -> QubitId) -> Gate {
        match *self {
            Gate::X(q) => Gate::X(f(q)),
            Gate::Z(q) => Gate::Z(f(q)),
            Gate::H(q) => Gate::H(f(q)),
            Gate::Phase(q, a) => Gate::Phase(f(q), a),
            Gate::Cx(c, t) => Gate::Cx(f(c), f(t)),
            Gate::Cz(a, b) => Gate::Cz(f(a), f(b)),
            Gate::Ccx(c1, c2, t) => Gate::Ccx(f(c1), f(c2), f(t)),
            Gate::Ccz(a, b, c) => Gate::Ccz(f(a), f(b), f(c)),
            Gate::CPhase(c, t, a) => Gate::CPhase(f(c), f(t), a),
            Gate::CcPhase(c1, c2, t, a) => Gate::CcPhase(f(c1), f(c2), f(t), a),
            Gate::Swap(a, b) => Gate::Swap(f(a), f(b)),
        }
    }

    /// Whether the gate is a classical permutation of basis states: it
    /// maps every computational-basis state to another basis state with
    /// coefficient exactly `1`.
    ///
    /// Permutation gates (`X`, `CX`, `CCX`, `SWAP`) move amplitudes
    /// without any floating-point arithmetic, so any contiguous run of
    /// them composes into a single reversible index map that executors can
    /// apply in one sweep with *exactly* the bits of gate-by-gate
    /// execution — the property the permutation-fusion pass builds on.
    #[must_use]
    pub fn is_permutation(&self) -> bool {
        matches!(
            self,
            Gate::X(_) | Gate::Cx(..) | Gate::Ccx(..) | Gate::Swap(..)
        )
    }

    /// Whether the gate is diagonal in the computational basis.
    ///
    /// Diagonal gates commute with each other — the property Theorem 2.14
    /// exploits to reorder the rotations of `ΦADD` by common control.
    #[must_use]
    pub fn is_diagonal(&self) -> bool {
        matches!(
            self,
            Gate::Z(_)
                | Gate::Phase(..)
                | Gate::Cz(..)
                | Gate::Ccz(..)
                | Gate::CPhase(..)
                | Gate::CcPhase(..)
        )
    }

    /// The number of operand qubits (1, 2 or 3).
    #[must_use]
    pub fn arity(&self) -> usize {
        let mut n = 0;
        self.for_each_qubit(&mut |_| n += 1);
        n
    }

    /// The first operand, in [`for_each_qubit`](Self::for_each_qubit)
    /// order, that repeats an earlier one: `None` when the operands are
    /// distinct, as every executable gate's must be.
    #[must_use]
    pub fn repeated_operand(&self) -> Option<QubitId> {
        match *self {
            Gate::X(_) | Gate::Z(_) | Gate::H(_) | Gate::Phase(..) => None,
            Gate::Cx(a, b) | Gate::Cz(a, b) | Gate::CPhase(a, b, _) | Gate::Swap(a, b) => {
                (a == b).then_some(b)
            }
            Gate::Ccx(a, b, c) | Gate::Ccz(a, b, c) | Gate::CcPhase(a, b, c, _) => {
                if a == b {
                    Some(b)
                } else if a == c || b == c {
                    Some(c)
                } else {
                    None
                }
            }
        }
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Gate::X(q) => write!(f, "X {q}"),
            Gate::Z(q) => write!(f, "Z {q}"),
            Gate::H(q) => write!(f, "H {q}"),
            Gate::Phase(q, a) => write!(f, "R({a}) {q}"),
            Gate::Cx(c, t) => write!(f, "CX {c} {t}"),
            Gate::Cz(a, b) => write!(f, "CZ {a} {b}"),
            Gate::Ccx(c1, c2, t) => write!(f, "CCX {c1} {c2} {t}"),
            Gate::Ccz(a, b, c) => write!(f, "CCZ {a} {b} {c}"),
            Gate::CPhase(c, t, a) => write!(f, "CR({a}) {c} {t}"),
            Gate::CcPhase(c1, c2, t, a) => write!(f, "CCR({a}) {c1} {c2} {t}"),
            Gate::Swap(a, b) => write!(f, "SWAP {a} {b}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(i: u32) -> QubitId {
        QubitId(i)
    }

    #[test]
    fn self_adjoint_gates() {
        for g in [
            Gate::X(q(0)),
            Gate::Z(q(0)),
            Gate::H(q(0)),
            Gate::Cx(q(0), q(1)),
            Gate::Cz(q(0), q(1)),
            Gate::Ccx(q(0), q(1), q(2)),
            Gate::Ccz(q(0), q(1), q(2)),
            Gate::Swap(q(0), q(1)),
        ] {
            assert_eq!(g.adjoint(), g, "{g}");
        }
    }

    #[test]
    fn rotation_adjoint_negates_angle() {
        let theta = Angle::turn_over_power_of_two(4);
        let g = Gate::CPhase(q(0), q(1), theta);
        assert_eq!(g.adjoint(), Gate::CPhase(q(0), q(1), -theta));
        assert_eq!(g.adjoint().adjoint(), g);
    }

    #[test]
    fn arity_counts_operands() {
        assert_eq!(Gate::H(q(0)).arity(), 1);
        assert_eq!(Gate::Cx(q(0), q(1)).arity(), 2);
        assert_eq!(Gate::Ccx(q(0), q(1), q(2)).arity(), 3);
    }

    #[test]
    fn repeated_operand_finds_every_duplicate_position() {
        let theta = Angle::turn_over_power_of_two(4);
        let (a, b, c) = (q(0), q(1), q(2));
        for g in [
            Gate::H(a),
            Gate::Phase(a, theta),
            Gate::Cx(a, b),
            Gate::Swap(b, a),
            Gate::Ccx(a, b, c),
            Gate::CcPhase(c, b, a, theta),
        ] {
            assert_eq!(g.repeated_operand(), None, "{g}");
        }
        let twos: [fn(QubitId, QubitId) -> Gate; 4] = [
            Gate::Cx,
            Gate::Cz,
            |x, y| Gate::CPhase(x, y, Angle::HALF_TURN),
            Gate::Swap,
        ];
        for two in twos {
            assert_eq!(two(b, b).repeated_operand(), Some(b), "{}", two(b, b));
        }
        let threes: [fn(QubitId, QubitId, QubitId) -> Gate; 3] =
            [Gate::Ccx, Gate::Ccz, |x, y, z| {
                Gate::CcPhase(x, y, z, Angle::HALF_TURN)
            }];
        for three in threes {
            // Positions (0,1), (0,2), (1,2), then all three equal.
            for (g, want) in [
                (three(b, b, c), b),
                (three(b, a, b), b),
                (three(a, c, c), c),
                (three(c, c, c), c),
            ] {
                assert_eq!(g.repeated_operand(), Some(want), "{g}");
            }
        }
    }

    #[test]
    fn diagonal_classification() {
        assert!(Gate::Cz(q(0), q(1)).is_diagonal());
        assert!(Gate::CcPhase(q(0), q(1), q(2), Angle::HALF_TURN).is_diagonal());
        assert!(!Gate::H(q(0)).is_diagonal());
        assert!(!Gate::Ccx(q(0), q(1), q(2)).is_diagonal());
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(Gate::Ccx(q(0), q(1), q(2)).to_string(), "CCX q0 q1 q2");
    }

    #[test]
    fn map_qubits_translates_every_operand() {
        let theta = Angle::turn_over_power_of_two(4);
        let shift = |q: QubitId| QubitId(q.0 + 10);
        let gates = [
            Gate::X(q(0)),
            Gate::H(q(1)),
            Gate::Phase(q(2), theta),
            Gate::Cx(q(0), q(1)),
            Gate::Ccz(q(0), q(1), q(2)),
            Gate::CcPhase(q(2), q(1), q(0), theta),
            Gate::Swap(q(1), q(2)),
        ];
        for g in &gates {
            let mapped = g.map_qubits(shift);
            let mut orig = Vec::new();
            g.for_each_qubit(&mut |qq| orig.push(qq.0 + 10));
            let mut got = Vec::new();
            mapped.for_each_qubit(&mut |qq| got.push(qq.0));
            assert_eq!(orig, got, "{g}");
            assert_eq!(mapped.map_qubits(|qq| QubitId(qq.0 - 10)), *g);
        }
    }
}
