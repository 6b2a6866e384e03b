//! Facade over the `mbu` workspace: a single dependency pulling in every
//! layer of the reproduction of *"Measurement-based uncomputation of
//! quantum circuits for modular arithmetic"* (Luongo, Miti, Narasimhachar,
//! Sireesh, DAC 2025 / arXiv:2407.20167).
//!
//! The workspace is layered bottom-up:
//!
//! | Re-export | Crate | Role |
//! |---|---|---|
//! | [`bitstring`] | `mbu-bitstring` | classical reference arithmetic (§1.3, Appendix A) |
//! | [`circuit`] | `mbu-circuit` | adaptive-circuit IR, builder, resource accounting, and the [`circuit::CompiledCircuit`] lower → passes → execute pipeline |
//! | [`arith`] | `mbu-arith` | every adder/comparator/modular construction of the paper |
//! | [`sim`] | `mbu-sim` | basis tracker + stride-kernel state vector behind the [`sim::Simulator`] trait (interpreted [`sim::Simulator::run`] and compiled [`sim::Simulator::run_compiled`] execution), the [`sim::ShotRunner`] ensemble engine, and the [`sim::BranchEnsemble`] branch-tree engine (exact distributions / bit-compatible sampling) |
//! | [`bench`](mod@bench) | `mbu-bench` | table/figure regeneration harness |
//!
//! This crate also owns the cross-crate integration tests (`tests/`) and
//! the runnable examples (`examples/`).
//!
//! # Examples
//!
//! ```
//! use mbu::arith::{modular, AdderKind, Uncompute};
//! use mbu::sim::{BasisTracker, ShotRunner, Simulator};
//!
//! let spec = modular::ModAddSpec::uniform(AdderKind::Cdkpm, Uncompute::Mbu);
//! let layout = modular::modadd_circuit(&spec, 4, 13).unwrap();
//! let ensemble = ShotRunner::new(64)
//!     .run(&layout.circuit, || {
//!         let mut sim = BasisTracker::zeros(layout.circuit.num_qubits());
//!         sim.set_value(layout.x.qubits(), 7);
//!         sim.set_value(layout.y.qubits(), 9);
//!         Box::new(sim)
//!     })
//!     .unwrap();
//! assert_eq!(ensemble.shots(), 64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mbu_arith as arith;
pub use mbu_bench as bench;
pub use mbu_bitstring as bitstring;
pub use mbu_circuit as circuit;
pub use mbu_sim as sim;
