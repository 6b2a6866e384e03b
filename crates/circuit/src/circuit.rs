//! The [`Circuit`] container.

use std::fmt;

use crate::counts::{ExpectedCounts, GateCounts};
use crate::depth::{self, DepthWeights};
use crate::error::CircuitError;
use crate::op::Op;

/// An adaptive quantum circuit: a sequence of [`Op`]s over a fixed set of
/// qubits and classical bits.
///
/// Circuits are normally produced by a
/// [`CircuitBuilder`](crate::CircuitBuilder); the raw constructor is exposed
/// for tools that synthesise op lists directly.
///
/// # Examples
///
/// ```
/// use mbu_circuit::{Circuit, Gate, Op, QubitId};
///
/// let circuit = Circuit::from_ops(
///     2,
///     0,
///     vec![Op::Gate(Gate::H(QubitId(0))), Op::Gate(Gate::Cx(QubitId(0), QubitId(1)))],
/// );
/// assert_eq!(circuit.depth(), 2);
/// assert_eq!(circuit.counts().cx, 1);
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct Circuit {
    num_qubits: usize,
    num_clbits: usize,
    ops: Vec<Op>,
}

impl Circuit {
    /// Creates an empty circuit over the given number of qubits and
    /// classical bits.
    #[must_use]
    pub fn new(num_qubits: usize, num_clbits: usize) -> Self {
        Self {
            num_qubits,
            num_clbits,
            ops: Vec::new(),
        }
    }

    /// Creates a circuit from a ready-made op list.
    #[must_use]
    pub fn from_ops(num_qubits: usize, num_clbits: usize, ops: Vec<Op>) -> Self {
        Self {
            num_qubits,
            num_clbits,
            ops,
        }
    }

    /// The number of qubits (the paper's "logical qubits" column counts
    /// these, inputs and ancillas together).
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The number of classical bits (measurement record slots).
    #[must_use]
    pub fn num_clbits(&self) -> usize {
        self.num_clbits
    }

    /// The operations, in program order.
    #[must_use]
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Appends an operation.
    pub fn push(&mut self, op: Op) {
        self.ops.push(op);
    }

    /// Exact gate counts (conditional blocks at full weight).
    #[must_use]
    pub fn counts(&self) -> GateCounts {
        GateCounts::from_ops(&self.ops)
    }

    /// Expected gate counts (conditional blocks weighted ½ per level) —
    /// the paper's "in expectation" accounting for MBU circuits.
    #[must_use]
    pub fn expected_counts(&self) -> ExpectedCounts {
        ExpectedCounts::from_ops(&self.ops)
    }

    /// Full circuit depth: every gate and measurement occupies one layer.
    #[must_use]
    pub fn depth(&self) -> u64 {
        self.weighted_depth(depth::FULL)
    }

    /// Toffoli depth: only CCX/CCZ/CC-R gates occupy layers.
    ///
    /// This is the depth metric of the paper's headline claim ("reduce the
    /// Toffoli count and depth by 10% to 15%").
    #[must_use]
    pub fn toffoli_depth(&self) -> u64 {
        self.weighted_depth(depth::TOFFOLI)
    }

    pub(crate) fn weighted_depth(&self, weights: DepthWeights) -> u64 {
        depth::depth(&self.ops, self.num_qubits, self.num_clbits, weights)
    }

    /// Whether the circuit contains any measurement (and is therefore not
    /// unitary).
    #[must_use]
    pub fn contains_measurement(&self) -> bool {
        self.ops.iter().any(Op::contains_measurement)
    }

    /// The adjoint circuit: ops reversed, each inverted.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::AdjointOfMeasurement`] if the circuit
    /// measures (Remark 2.23: measurement-based circuits are inverted by
    /// swapping compute/uncompute roles, not by `†`).
    pub fn adjoint(&self) -> Result<Self, CircuitError> {
        let mut ops = Vec::with_capacity(self.ops.len());
        for op in self.ops.iter().rev() {
            ops.push(op.adjoint()?);
        }
        Ok(Self {
            num_qubits: self.num_qubits,
            num_clbits: self.num_clbits,
            ops,
        })
    }

    /// Lowers the circuit to a flat instruction stream and runs the exact
    /// default passes (gate fusion, dead-qubit reclamation) — shorthand for
    /// [`CompiledCircuit::compile`](crate::CompiledCircuit::compile).
    ///
    /// # Errors
    ///
    /// Returns the first [`CircuitError`] found by [`validate`](Self::validate).
    pub fn compile(&self) -> Result<crate::CompiledCircuit, CircuitError> {
        crate::CompiledCircuit::compile(self)
    }

    /// Validates that every referenced qubit and classical bit is in range
    /// and that no gate reuses a qubit for two operands.
    ///
    /// # Errors
    ///
    /// Returns the first [`CircuitError`] found.
    pub fn validate(&self) -> Result<(), CircuitError> {
        fn check(ops: &[Op], num_qubits: usize, num_clbits: usize) -> Result<(), CircuitError> {
            for op in ops {
                let mut oob: Option<u32> = None;
                op.for_each_qubit(&mut |q| {
                    if q.index() >= num_qubits {
                        oob.get_or_insert(q.0);
                    }
                });
                if let Some(qubit) = oob {
                    return Err(CircuitError::QubitOutOfRange { qubit, num_qubits });
                }
                match op {
                    Op::Gate(g) => {
                        if let Some(qubit) = g.repeated_operand() {
                            return Err(CircuitError::DuplicateOperand { qubit: qubit.0 });
                        }
                    }
                    Op::Measure { clbit, .. } => {
                        if clbit.index() >= num_clbits {
                            return Err(CircuitError::ClbitOutOfRange {
                                clbit: clbit.0,
                                num_clbits,
                            });
                        }
                    }
                    Op::Conditional { clbit, ops } => {
                        if clbit.index() >= num_clbits {
                            return Err(CircuitError::ClbitOutOfRange {
                                clbit: clbit.0,
                                num_clbits,
                            });
                        }
                        check(ops, num_qubits, num_clbits)?;
                    }
                    Op::Reset(_) => {}
                }
            }
            Ok(())
        }
        check(&self.ops, self.num_qubits, self.num_clbits)
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "circuit: {} qubits, {} clbits, {} ops",
            self.num_qubits,
            self.num_clbits,
            self.ops.len()
        )?;
        fn write_ops(f: &mut fmt::Formatter<'_>, ops: &[Op], indent: usize) -> fmt::Result {
            for op in ops {
                match op {
                    Op::Gate(g) => writeln!(f, "{:indent$}{g}", "")?,
                    Op::Measure {
                        qubit,
                        basis,
                        clbit,
                    } => {
                        writeln!(f, "{:indent$}M{basis} {qubit} -> {clbit}", "")?;
                    }
                    Op::Conditional { clbit, ops } => {
                        writeln!(f, "{:indent$}if {clbit} {{", "")?;
                        write_ops(f, ops, indent + 2)?;
                        writeln!(f, "{:indent$}}}", "")?;
                    }
                    Op::Reset(qubit) => writeln!(f, "{:indent$}reset {qubit}", "")?,
                }
            }
            Ok(())
        }
        write_ops(f, &self.ops, 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::angle::Angle;
    use crate::gate::{Basis, Gate};
    use crate::op::{ClbitId, QubitId};

    fn q(i: u32) -> QubitId {
        QubitId(i)
    }

    #[test]
    fn adjoint_reverses_and_inverts() {
        let c = Circuit::from_ops(
            2,
            0,
            vec![Op::Gate(Gate::H(q(0))), Op::Gate(Gate::Cx(q(0), q(1)))],
        );
        let adj = c.adjoint().unwrap();
        assert_eq!(adj.ops()[0], Op::Gate(Gate::Cx(q(0), q(1))));
        assert_eq!(adj.ops()[1], Op::Gate(Gate::H(q(0))));
    }

    #[test]
    fn validate_catches_out_of_range_qubit() {
        let c = Circuit::from_ops(1, 0, vec![Op::Gate(Gate::Cx(q(0), q(5)))]);
        assert_eq!(
            c.validate(),
            Err(CircuitError::QubitOutOfRange {
                qubit: 5,
                num_qubits: 1
            })
        );
    }

    #[test]
    fn validate_catches_duplicate_operands() {
        let c = Circuit::from_ops(3, 0, vec![Op::Gate(Gate::Ccx(q(1), q(1), q(2)))]);
        assert_eq!(
            c.validate(),
            Err(CircuitError::DuplicateOperand { qubit: 1 })
        );
    }

    #[test]
    fn validate_catches_duplicates_inside_conditional_bodies() {
        let c = Circuit::from_ops(
            3,
            1,
            vec![Op::Conditional {
                clbit: ClbitId(0),
                ops: vec![
                    Op::Gate(Gate::Cx(q(0), q(1))),
                    Op::Gate(Gate::CcPhase(q(0), q(2), q(2), Angle::HALF_TURN)),
                ],
            }],
        );
        assert_eq!(
            c.validate(),
            Err(CircuitError::DuplicateOperand { qubit: 2 })
        );
    }

    #[test]
    fn out_of_range_wins_over_duplicate_operands() {
        // q1 repeats before q7 is seen, yet the range error is reported.
        let c = Circuit::from_ops(3, 0, vec![Op::Gate(Gate::Ccx(q(1), q(1), q(7)))]);
        assert_eq!(
            c.validate(),
            Err(CircuitError::QubitOutOfRange {
                qubit: 7,
                num_qubits: 3
            })
        );
    }

    #[test]
    fn validate_catches_out_of_range_clbit_in_conditional() {
        let c = Circuit::from_ops(
            1,
            1,
            vec![Op::Conditional {
                clbit: ClbitId(4),
                ops: vec![],
            }],
        );
        assert_eq!(
            c.validate(),
            Err(CircuitError::ClbitOutOfRange {
                clbit: 4,
                num_clbits: 1
            })
        );
    }

    #[test]
    fn validate_accepts_well_formed_adaptive_circuit() {
        let good = Circuit::from_ops(
            3,
            1,
            vec![
                Op::Gate(Gate::Ccx(q(0), q(1), q(2))),
                Op::Measure {
                    qubit: q(2),
                    basis: Basis::X,
                    clbit: ClbitId(0),
                },
                Op::Conditional {
                    clbit: ClbitId(0),
                    ops: vec![Op::Gate(Gate::Cz(q(0), q(1)))],
                },
            ],
        );
        assert!(good.validate().is_ok());
    }

    #[test]
    fn display_includes_structure() {
        let c = Circuit::from_ops(
            1,
            1,
            vec![
                Op::Measure {
                    qubit: q(0),
                    basis: Basis::X,
                    clbit: ClbitId(0),
                },
                Op::Conditional {
                    clbit: ClbitId(0),
                    ops: vec![Op::Gate(Gate::Z(q(0)))],
                },
            ],
        );
        let text = c.to_string();
        assert!(text.contains("MX q0 -> c0"));
        assert!(text.contains("if c0 {"));
    }
}
