//! Simulators for adaptive quantum circuits.
//!
//! Four exact backends execute the [`mbu-circuit`](mbu_circuit) IR,
//! including mid-circuit measurement and classically-controlled blocks:
//!
//! * [`StateVector`] — exact complex-amplitude simulation of every gate in
//!   the set, built on stride-based kernels: 1-qubit gates touch `2^(n-1)`
//!   amplitude pairs, controlled gates iterate only the control-satisfied
//!   subspace (`2^(n-3)` indices per Toffoli), diagonal gates are pure
//!   phase sweeps. Used to verify the QFT-based (Draper/Beauregard)
//!   circuits and the *phase* correctness of measurement-based
//!   uncomputation on superposition inputs.
//! * [`SparseVector`] — exact complex-amplitude simulation over a sorted
//!   map from occupied basis bitstrings to amplitudes, instead of a dense
//!   `2^n` array. Permutation gates (X/CX/CCX/SWAP) are `O(occupied)` key
//!   rewrites, diagonal gates are `O(occupied)` phase multiplies, and only
//!   `H` fans entries out — so the paper's modular-arithmetic circuits,
//!   whose occupied set stays tiny on basis inputs, simulate *functionally*
//!   (amplitudes bitwise identical to the dense engine's) at the
//!   cryptographic register sizes of Table 1 (n = 64, 256, 1024) where a
//!   dense amplitude array cannot exist.
//! * [`PhaseAccumulator`] — a Fourier-basis phase-accumulator backend
//!   ([`BackendKind::Phase`]). Its branches are entries of the sparse
//!   backend's map, each carrying, besides its basis key and amplitude,
//!   exact arbitrary-precision dyadic phase accumulators for the
//!   Fourier-mode qubits, so the entire interior of a QFT adder —
//!   `H` promotion, `Rz`/`Phase`/`CPhase`/`CCPhase` rotations, `H`
//!   collapse — executes as O(occupied) exact angle additions with no
//!   amplitude sweeps. Draper/Beauregard additions run end-to-end at
//!   n = 256 or 1024 where the dense array cannot allocate and the sparse
//!   map would fan out to `2^n` Fourier-basis entries; gates outside the
//!   diagonal fragment fall back through lossless materialisation.
//! * [`BasisTracker`] — a phase-tracking computational-basis simulator.
//!   Each qubit is either in a definite computational state (`Z`-mode) or in
//!   `|+⟩`/`|−⟩` (`X`-mode), with an exact dyadic global phase. All
//!   Toffoli-family arithmetic in the paper — including Gidney's logical-AND
//!   measurement uncomputation and the full MBU protocol (Lemma 4.1) — stays
//!   inside this fragment, so circuits verify in `O(1)` per gate at widths
//!   like `n = 256` where a state vector is impossible. Operations that
//!   would create unrepresentable entanglement return a typed error.
//!
//! All backends implement the object-safe [`Simulator`] trait — one API
//! for gate execution, input preparation (`set_value`) and state readout
//! (`value` / `bit` / `global_phase`) — and report which gates actually
//! executed ([`Executed`]). Circuits can run interpreted
//! ([`Simulator::run`], walking the op tree) or compiled
//! ([`Simulator::run_compiled`], a program-counter loop over a flat
//! [`CompiledCircuit`](mbu_circuit::CompiledCircuit) instruction stream —
//! see the `mbu_circuit::compile` pipeline: lower → passes → execute).
//! Compiled programs may carry `Drop` instructions from the compiler's
//! dead-qubit liveness pass; the state vector executes them by projecting
//! the measured-and-dead qubit out of a *compacted* amplitude array
//! (halving the live state per drop and re-materialising factored-out
//! qubits on first touch), which turns the paper's early-ancilla-release
//! qubit savings into measured memory savings — see
//! [`StateVector`]'s `run_compiled` and [`Simulator::peak_amplitudes`].
//! Between runs the state rests factored, definite qubits out of the
//! array (see [`StateVector`]'s layout). A
//! program compiled without that pass
//! ([`PassConfig::reclaim_dead_qubits`](mbu_circuit::PassConfig::reclaim_dead_qubits)
//! off) carries no drops and runs on the full array. Compiled programs
//! may also carry dense
//! `Fused` unitary blocks from the compiler's gate-fusion pass; the state
//! vector applies each block in a single sweep over the amplitude array
//! (bit-identical to unfused execution). Amplitudes live in
//! structure-of-arrays re/im buffers, and the serial, bounds-checked
//! kernels walk them as grouped strided spans whose inner loops
//! autovectorize (explicit 8-wide lane chunks, stable Rust, no `unsafe`).
//! The [`ShotRunner`] builds on those seams: a seeded, deterministic
//! ensemble engine that compiles the circuit once and averages executed
//! counts (and peak-memory stats) over many shots — how the `tables`
//! binary measures the paper's "in expectation" MBU costs as Monte-Carlo
//! means. It shares branches wherever it can: the program's outcome DAG
//! ([`BranchEnsemble`]) forks the state at each measurement
//! ([`Simulator::measure_fork`]) and, on a backend that recognises equal
//! states ([`Simulator::same_state`], today the basis tracker), rejoins
//! the branches that Lemma 4.1's correction makes equal again, so a shot
//! is a replay of its seeded draws over a few hundred nodes instead of a
//! whole run. Elsewhere each shot runs on its own state. Either path
//! splits the shots over up to one worker per thread of the budget, and
//! both give bit-identical aggregates. [`BranchEnsemble`] exposes the DAG directly: its sampled
//! mode replays shots over it on any backend that forks, and its exact
//! mode returns the **exact** outcome distribution with no RNG at all. The backend behind
//! any of those harnesses is one [`BackendKind`] value the caller passes
//! to its factory. The readouts [`sparse_to_dense`], [`phase_to_sparse`]
//! and [`phase_to_dense`] convert a finished state for comparison across
//! representations.
//!
//! # Examples
//!
//! Simulate Gidney's logical-AND compute/uncompute on a basis state:
//!
//! ```
//! use mbu_circuit::{Basis, CircuitBuilder};
//! use mbu_sim::BasisTracker;
//! use rand::SeedableRng;
//!
//! let mut b = CircuitBuilder::new();
//! let q = b.qreg("q", 3); // x, y, and-ancilla
//! b.ccx(q[0], q[1], q[2]);
//! // Measurement-based uncompute of the AND (Figure 11 of the paper):
//! // on outcome 1, a CZ fixes the phase and an X resets the ancilla.
//! b.h(q[2]);
//! let m = b.measure(q[2], Basis::Z);
//! let (_, fix) = b.record(|b| {
//!     b.cz(q[0], q[1]);
//!     b.x(q[2]);
//! });
//! b.emit_conditional(m, &fix);
//! let circuit = b.finish();
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let mut sim = BasisTracker::zeros(3);
//! sim.set_bit(q[0], true).unwrap();
//! sim.set_bit(q[1], true).unwrap();
//! // The AND ancilla must end in |0⟩ with no residual phase,
//! // whatever the measurement outcome.
//! sim.run(&circuit, &mut rng).unwrap();
//! assert_eq!(sim.bit(q[2]).unwrap(), false);
//! assert!(sim.global_phase().is_zero());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod basis;
mod branch;
mod complex;
mod convert;
mod error;
mod exec;
mod kernels;
mod knobs;
mod phase;
mod shots;
mod simulator;
mod soa;
mod sparse;
mod statevector;

pub use backend::BackendKind;
pub use basis::BasisTracker;
pub use branch::{BranchDistribution, BranchEnsemble, DEFAULT_NODE_BUDGET};
pub use complex::Complex;
pub use convert::{phase_to_dense, phase_to_sparse, sparse_to_dense, MAX_PHASE_ENUM_FOURIER};
pub use error::SimError;
pub use exec::Executed;
pub use phase::{PhaseAccumulator, MAX_PHASE_BRANCHES};
pub use shots::{CountStats, Ensemble, ShotRunner};
pub use simulator::{Fork, Simulator};
pub use sparse::{SparseVector, MAX_SPARSEVECTOR_QUBITS};
pub use statevector::{StateVector, MAX_STATEVECTOR_QUBITS};
