//! Quantum circuit intermediate representation for arithmetic circuits with
//! measurement-based uncomputation.
//!
//! This crate provides the circuit substrate assumed (but never named) by
//! *"Measurement-based uncomputation of quantum circuits for modular
//! arithmetic"* (Luongo, Miti, Narasimhachar, Sireesh, DAC 2025):
//!
//! * a gate set covering the paper's notation (§1.3): `X`, `Z`, `H`,
//!   dyadic phase rotations `R(2π/2^k)` and their singly/doubly controlled
//!   versions, `CNOT`, `CZ`, Toffoli and `CCZ`;
//! * **adaptive circuits**: mid-circuit measurement in the `Z` or `X` basis
//!   writing to classical bits, and classically-controlled sub-circuits —
//!   the primitives behind the MBU lemma (Lemma 4.1) and Gidney's
//!   temporary-logical-AND uncomputation;
//! * resource accounting: exact [`GateCounts`], [`ExpectedCounts`] where
//!   conditional blocks are weighted by their ½ execution probability (the
//!   paper's "in expectation" columns), full depth and Toffoli depth;
//! * a [`CircuitBuilder`] with register allocation, ancilla pooling, scoped
//!   op recording and adjoint emission — the mechanism by which the paper's
//!   propositions compose (`Q†_ADD` as a subtractor, half-subtractor
//!   comparators, …);
//! * an ASCII [`diagram`] renderer regenerating the paper's
//!   circuit figures;
//! * a compilation layer ([`CompiledCircuit`]): lowering to a flat
//!   branch-encoded instruction stream plus two exact passes (gate fusion
//!   and dead-qubit reclamation) with per-pass [`PassStats`], and a
//!   packing step that folds each QFT/ΦADD cascade of controlled
//!   rotations into one [`PhaseGradient`] instruction — the program
//!   representation the simulators' hot paths execute. No stage adds,
//!   removes or reorders a gate, so every compile executes exactly the
//!   gates of the lowered program;
//! * a static verification layer ([`verify`]): a linear IR
//!   [validator](verify::validate) run after every pass under the careful
//!   profile, and a [symbolic equivalence checker](verify::check_equivalence)
//!   proving pass pipelines semantics-preserving without simulation.
//!
//! # Examples
//!
//! Build and inspect a Toffoli sandwich:
//!
//! ```
//! use mbu_circuit::CircuitBuilder;
//!
//! let mut b = CircuitBuilder::new();
//! let q = b.qreg("q", 3);
//! b.ccx(q[0], q[1], q[2]);
//! b.cx(q[0], q[1]);
//! b.ccx(q[0], q[1], q[2]);
//! let circuit = b.finish();
//! assert_eq!(circuit.counts().toffoli, 2);
//! assert_eq!(circuit.toffoli_depth(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod angle;
mod builder;
mod circuit;
mod compile;
mod counts;
mod depth;
pub mod diagram;
mod error;
mod gate;
mod op;
mod plan;
pub mod verify;

pub use angle::Angle;
pub use builder::{CircuitBuilder, OpBlock, Register};
pub use circuit::Circuit;
pub use compile::{
    CompiledCircuit, FusedUnitary, Instr, PassConfig, PassStats, PhaseGradient, Segment,
    MAX_FUSED_QUBITS, MAX_PERM_FUSED_QUBITS,
};
pub use counts::{ExpectedCounts, GateCounts};
pub use error::CircuitError;
pub use gate::{Basis, Gate};
pub use op::{ClbitId, Op, QubitId};
pub use plan::{
    plan_segment, PlanConfig, PlannedRepr, SegmentProfile, DEFAULT_AUTO_DENSE_QUBITS,
    DEFAULT_AUTO_PHASE_DIAG, DEFAULT_AUTO_SPARSITY,
};
pub use verify::{
    check_equivalence, check_equivalence_with, validate, validate_compiled, EquivOptions,
    Equivalence, Finding, ProgramView, VerifyError,
};
