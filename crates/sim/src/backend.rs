//! Backend selection by value.
//!
//! Every harness that builds simulators through a factory — the shot
//! engine, the branch-tree engine, benches, examples — can route
//! construction through [`BackendKind`], so the backend is one value the
//! caller passes in:
//!
//! * [`Dense`](BackendKind::Dense) — the exact dense-amplitude
//!   [`StateVector`];
//! * [`Sparse`](BackendKind::Sparse) — the basis-map [`SparseVector`],
//!   identical amplitudes at a memory cost of the occupied states only;
//! * [`Phase`](BackendKind::Phase) — the Fourier-basis
//!   [`PhaseAccumulator`](crate::PhaseAccumulator), exact dyadic phase
//!   arithmetic on occupied branches: QFT-adder interiors run with no
//!   amplitude sweeps at any width the sparse map accepts;
//! * [`Tracker`](BackendKind::Tracker) — the `O(1)`-per-gate
//!   [`BasisTracker`], which rejects circuits that leave its fragment.
//!
//! A kind also knows how to compile for itself
//! ([`BackendKind::compile`]): only the dense engine gains from the
//! default passes.

use mbu_circuit::{Circuit, CircuitError, CompiledCircuit, PassConfig};

use crate::basis::BasisTracker;
use crate::error::SimError;
use crate::phase::PhaseAccumulator;
use crate::simulator::Simulator;
use crate::sparse::SparseVector;
use crate::statevector::StateVector;

/// The simulator backends a factory can construct.
///
/// # Examples
///
/// ```
/// use mbu_sim::BackendKind;
///
/// assert_eq!(BackendKind::Sparse.to_string(), "sparse");
/// let sim = BackendKind::Sparse.build(300).unwrap();
/// assert_eq!(sim.num_qubits(), 300);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BackendKind {
    /// The dense-amplitude [`StateVector`].
    Dense,
    /// The sparse basis-map [`SparseVector`].
    Sparse,
    /// The Fourier-basis [`PhaseAccumulator`].
    Phase,
    /// The phase-tracking [`BasisTracker`].
    Tracker,
}

impl BackendKind {
    /// The backend's lowercase name, as [`Display`](std::fmt::Display)
    /// prints it.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Dense => "dense",
            Self::Sparse => "sparse",
            Self::Phase => "phase",
            Self::Tracker => "tracker",
        }
    }

    /// The compile passes that pay on this backend: the default passes
    /// for the dense engine, whose kernels sweep the whole array per
    /// instruction (fusion and reclamation exist for them), and none for
    /// the other three, which replay fused blocks gate by gate and treat
    /// drops as no-ops. Phase gradients are packed under every config,
    /// so the phase accumulator loses nothing.
    #[must_use]
    pub fn passes(self) -> PassConfig {
        match self {
            Self::Dense => PassConfig::default(),
            Self::Sparse | Self::Phase | Self::Tracker => PassConfig::none(),
        }
    }

    /// Compiles `circuit` for this backend, with [`passes`](Self::passes).
    /// The result runs on any backend; it is only cheapest to compile and
    /// run on this one.
    ///
    /// # Errors
    ///
    /// The first [`CircuitError`] found by [`Circuit::validate`].
    pub fn compile(self, circuit: &Circuit) -> Result<CompiledCircuit, CircuitError> {
        CompiledCircuit::with_config(circuit, &self.passes())
    }

    /// Builds a fresh `|0…0⟩` simulator of this kind.
    ///
    /// # Errors
    ///
    /// [`SimError::TooManyQubits`] when the width exceeds the backend's
    /// construction cap (the dense engine at
    /// [`MAX_STATEVECTOR_QUBITS`](crate::MAX_STATEVECTOR_QUBITS), 26
    /// qubits; the sparse map and the phase accumulator at
    /// [`MAX_SPARSEVECTOR_QUBITS`](crate::MAX_SPARSEVECTOR_QUBITS);
    /// the tracker has no cap).
    pub fn build(self, num_qubits: usize) -> Result<Box<dyn Simulator + Send>, SimError> {
        Ok(match self {
            Self::Dense => Box::new(StateVector::zeros(num_qubits)?),
            Self::Sparse => Box::new(SparseVector::zeros(num_qubits)?),
            Self::Phase => Box::new(PhaseAccumulator::zeros(num_qubits)?),
            Self::Tracker => Box::new(BasisTracker::zeros(num_qubits)),
        })
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_respects_per_backend_width_caps() {
        // The dense engine refuses what the sparse map takes in stride.
        assert!(BackendKind::Dense.build(300).is_err());
        assert_eq!(BackendKind::Sparse.build(300).unwrap().num_qubits(), 300);
        assert_eq!(BackendKind::Phase.build(300).unwrap().num_qubits(), 300);
        assert_eq!(
            BackendKind::Tracker.build(100_000).unwrap().num_qubits(),
            100_000
        );
        assert!(matches!(
            BackendKind::Sparse.build(crate::MAX_SPARSEVECTOR_QUBITS + 1),
            Err(SimError::TooManyQubits { .. })
        ));
    }

    #[test]
    fn display_matches_the_knob_tokens() {
        assert_eq!(BackendKind::Dense.to_string(), "dense");
        assert_eq!(BackendKind::Sparse.to_string(), "sparse");
        assert_eq!(BackendKind::Phase.to_string(), "phase");
        assert_eq!(BackendKind::Tracker.to_string(), "tracker");
    }
}
