//! Simulation errors.

use std::error::Error;
use std::fmt;

/// Errors produced while simulating a circuit.
///
/// # Examples
///
/// ```
/// use mbu_circuit::CircuitBuilder;
/// use mbu_sim::{BasisTracker, SimError};
/// use rand::SeedableRng;
///
/// // A CNOT controlled by a |+⟩ qubit entangles — the basis tracker
/// // reports it instead of silently giving wrong answers.
/// let mut b = CircuitBuilder::new();
/// let q = b.qreg("q", 2);
/// b.h(q[0]);
/// b.cx(q[0], q[1]);
/// let circuit = b.finish();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let err = BasisTracker::zeros(2).run(&circuit, &mut rng).unwrap_err();
/// assert!(matches!(err, SimError::UnsupportedEntanglement { .. }));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The state-vector backend refuses widths whose amplitude array would
    /// not fit in memory.
    TooManyQubits {
        /// Requested qubit count.
        requested: usize,
        /// Maximum supported by this backend.
        max: usize,
    },
    /// The basis tracker cannot represent the state this operation would
    /// create: entanglement (e.g. a CNOT controlled by an `X`-mode qubit
    /// with a `Z`-mode target) or a global phase outside the exact dyadic
    /// range of [`Angle`](mbu_circuit::Angle).
    UnsupportedEntanglement {
        /// Rendering of the offending gate, measurement or reset.
        gate: String,
        /// Why the gate left the tracked fragment.
        reason: &'static str,
    },
    /// Tried to read the computational value of a qubit that is in a
    /// superposition (`X`-mode) state.
    ReadOfSuperposedQubit {
        /// The offending qubit index.
        qubit: u32,
    },
    /// An operation referenced a qubit or classical bit outside the state.
    OutOfRange {
        /// Description of the offending reference.
        what: String,
    },
    /// A multi-qubit gate named the same qubit for two operands (e.g.
    /// `CX q3 q3`); no unitary of the gate set is defined there.
    DuplicateOperand {
        /// Rendering of the offending gate.
        gate: String,
        /// The duplicated qubit index.
        qubit: u32,
    },
    /// A circuit failed structural validation when compiled for execution
    /// (out-of-range references or duplicate operands found by
    /// `mbu_circuit::Circuit::validate`).
    InvalidCircuit {
        /// The underlying `CircuitError`, rendered.
        why: String,
    },
    /// A conditional read a classical bit that no measurement had written.
    UnwrittenClassicalBit {
        /// The offending classical bit index.
        clbit: u32,
    },
    /// An ensemble run was requested with zero shots: there is no
    /// aggregate to report, and every per-shot statistic (means,
    /// frequencies) would be a division by zero. Raised by the ensemble
    /// engines instead of returning an `Ensemble` whose accessors could
    /// only answer `NaN` or a fabricated zero.
    EmptyEnsemble,
    /// Branch-sharing execution grew past its node budget before the
    /// program ended: the outcome DAG while it was built, or the outcome
    /// tree the exact mode enumerates (and the phase accumulator's
    /// materialised branches, past its own ceiling). The
    /// exact-distribution mode surfaces this; the sampled mode runs per
    /// shot instead.
    BranchBudgetExceeded {
        /// The configured node budget that was exceeded.
        budget: usize,
    },
    /// The simulator backend does not implement forked (branch-sharing)
    /// execution — its `measure_fork` declined. The exact-distribution
    /// mode surfaces this; the sampled mode falls back to per-shot Monte
    /// Carlo instead.
    BranchUnsupported,
    /// A fused dense-gate block failed the kernel's structural validation
    /// (span outside 1–4 qubits, non-ascending or out-of-state positions,
    /// or a gate operand outside the block). Checked in release builds
    /// too, so a malformed compiled block reports instead of indexing out
    /// of bounds.
    InvalidFusedBlock {
        /// What was malformed about the block descriptor.
        why: String,
    },
    /// The `MBU_VERIFY=1` admission gate rejected a compiled program: the
    /// static verifier (`mbu_circuit::verify`) found it malformed, so the
    /// executor refused to start rather than risk undefined behaviour on
    /// a miscompiled stream.
    VerificationRejected {
        /// The verifier's report, rendered.
        why: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::TooManyQubits { requested, max } => {
                write!(
                    f,
                    "state vector over {requested} qubits exceeds the {max}-qubit limit"
                )
            }
            SimError::UnsupportedEntanglement { gate, reason } => {
                write!(f, "basis tracker cannot apply {gate}: {reason}")
            }
            SimError::ReadOfSuperposedQubit { qubit } => {
                write!(
                    f,
                    "qubit q{qubit} is in superposition; its bit value is undefined"
                )
            }
            SimError::OutOfRange { what } => write!(f, "{what} out of range"),
            SimError::DuplicateOperand { gate, qubit } => {
                write!(f, "gate {gate} uses qubit q{qubit} for two operands")
            }
            SimError::InvalidCircuit { why } => {
                write!(f, "circuit failed validation: {why}")
            }
            SimError::UnwrittenClassicalBit { clbit } => {
                write!(
                    f,
                    "classical bit c{clbit} read before any measurement wrote it"
                )
            }
            SimError::EmptyEnsemble => {
                write!(f, "ensemble run requested with zero shots")
            }
            SimError::VerificationRejected { why } => {
                write!(
                    f,
                    "program rejected by the MBU_VERIFY admission gate: {why}"
                )
            }
            SimError::BranchBudgetExceeded { budget } => {
                write!(
                    f,
                    "branches exceeded the {budget}-node budget before the program ended"
                )
            }
            SimError::BranchUnsupported => {
                write!(f, "backend does not support branch-sharing execution")
            }
            SimError::InvalidFusedBlock { why } => {
                write!(f, "malformed fused block: {why}")
            }
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = SimError::UnsupportedEntanglement {
            gate: "CX q0 q1".into(),
            reason: "control is in superposition",
        };
        assert!(e.to_string().contains("CX q0 q1"));
        assert!(SimError::UnwrittenClassicalBit { clbit: 3 }
            .to_string()
            .contains("c3"));
    }
}
