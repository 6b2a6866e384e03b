//! Lossless state readouts across simulator representations, for
//! comparing a finished run with another backend's.
//!
//! * [`sparse_to_dense`] scatters the occupied entries into a freshly
//!   zeroed `2^n` array (fails above the dense width cap). It is
//!   **bit-exact**: entries are moved, never recomputed, so a sparse run
//!   converted to dense compares bitwise equal to the dense engine's run
//!   of the same program. The one canonicalisation is the sign of exact
//!   zeros: dense diagonal sweeps may leave `-0.0` on unoccupied indices,
//!   while the scattered array holds `+0.0` there;
//! * [`phase_to_sparse`] enumerates a phase-accumulator state
//!   ([`PhaseAccumulator`]) into the map (`2^(Fourier qubits)` entries per
//!   branch), with each entry's phase evaluated from the *exact* dyadic
//!   accumulators in a single `cis` — the readout the phase backend's
//!   tests compare against the amplitude engines through;
//! * [`phase_to_dense`] composes it with [`sparse_to_dense`].

use crate::complex::Complex;
use crate::error::SimError;
use crate::phase::PhaseAccumulator;
use crate::simulator::Simulator;
use crate::sparse::SparseVector;
use crate::statevector::{StateVector, MAX_STATEVECTOR_QUBITS};

/// Converts a sparse basis map into the dense amplitude array holding the
/// same state: every occupied entry lands at its basis index, every other
/// index is an exact zero. Amplitudes are moved bitwise — no arithmetic.
///
/// The dense state is built through [`StateVector::from_amplitudes`], so
/// it behaves exactly like a natively constructed one.
///
/// # Errors
///
/// Returns [`SimError::TooManyQubits`] when the sparse state is wider
/// than [`MAX_STATEVECTOR_QUBITS`] (the `2^n` array cannot exist).
pub fn sparse_to_dense(sparse: &SparseVector) -> Result<StateVector, SimError> {
    let n = Simulator::num_qubits(sparse);
    if n > MAX_STATEVECTOR_QUBITS {
        return Err(SimError::TooManyQubits {
            requested: n,
            max: MAX_STATEVECTOR_QUBITS,
        });
    }
    // ≤ 26 qubits fits one key word; wider keys were rejected above.
    let mut amps = vec![Complex::ZERO; 1usize << n];
    for (key, a, ()) in sparse.entries() {
        let index = key[0];
        amps[usize::try_from(index).map_err(|_| SimError::OutOfRange {
            what: format!("sparse key {index} in a {n}-qubit state"),
        })?] = a;
    }
    StateVector::from_amplitudes(amps)
}

/// Widest Fourier-mode register [`phase_to_sparse`] will enumerate: each
/// occupied branch expands into `2^f` map entries over `f` Fourier
/// qubits, and past `2^20` the enumeration defeats the point of having
/// left the amplitude representation.
pub const MAX_PHASE_ENUM_FOURIER: usize = 20;

/// Enumerates a phase-accumulator state into the sparse basis map.
///
/// Each branch expands into `2^f` entries over the `f` Fourier-mode
/// qubits. An entry's phase is the **exact** dyadic sum of the branch
/// phase and the selected qubits' accumulators, evaluated in a single
/// `cis` — no per-gate rounding survives from the diagonal segment, which
/// is precisely what the phase representation buys. The magnitude is the
/// `H`-cascade's chained `1/√2` products. A branch with no Fourier qubits
/// converts with its amplitude moved bitwise.
///
/// Exact zeros are culled on the way out (the map's occupancy rule), and
/// any `-0.0` produced by the phase arithmetic is canonicalised to `+0.0`
/// so keys-plus-amplitudes compare bitwise across conversion paths.
///
/// # Errors
///
/// Returns [`SimError::TooManyQubits`] when more than
/// [`MAX_PHASE_ENUM_FOURIER`] qubits are in Fourier mode.
pub fn phase_to_sparse(phase: &PhaseAccumulator) -> Result<SparseVector, SimError> {
    let n = Simulator::num_qubits(phase);
    let fourier = phase.fourier_list();
    let f = fourier.len();
    if f > MAX_PHASE_ENUM_FOURIER {
        return Err(SimError::TooManyQubits {
            requested: f,
            max: MAX_PHASE_ENUM_FOURIER,
        });
    }
    let words = n.div_ceil(64).max(1);
    let branches = phase.branches();
    let mut entries: Vec<(Vec<u64>, Complex)> = Vec::with_capacity(branches.occupied() << f);
    for (branch_key, amp, phases) in branches.entries() {
        let mut magnitude = amp;
        for _ in 0..f {
            magnitude = magnitude.scale(std::f64::consts::FRAC_1_SQRT_2);
        }
        for assignment in 0..(1usize << f) {
            let mut key = branch_key.to_vec();
            let mut turns = phases.phase.clone();
            for (j, &q) in fourier.iter().enumerate() {
                if assignment >> j & 1 == 1 {
                    key[q as usize / 64] |= 1u64 << (q as usize % 64);
                    turns.add_assign(&phases.phis[j]);
                }
            }
            let mut amp = if turns.is_zero() {
                magnitude
            } else {
                magnitude * turns.cis()
            };
            if amp.re == 0.0 && amp.im == 0.0 {
                continue;
            }
            // Canonicalise exact-zero components: diagonal arithmetic may
            // leave `-0.0`, which breaks bitwise comparisons downstream.
            if amp.re == 0.0 {
                amp.re = 0.0;
            }
            if amp.im == 0.0 {
                amp.im = 0.0;
            }
            entries.push((key, amp));
        }
    }
    // Branch keys are ascending and Fourier bit patterns expand each
    // branch into a contiguous block, but blocks from different branches
    // can interleave once Fourier bits are set — sort globally.
    entries.sort_by(|a, b| a.0.iter().rev().cmp(b.0.iter().rev()));
    let mut keys = Vec::with_capacity(entries.len() * words);
    let mut amps = Vec::with_capacity(entries.len());
    for (key, amp) in entries {
        keys.extend_from_slice(&key);
        amps.push(amp);
    }
    Ok(SparseVector::from_sorted_entries(n, keys, amps))
}

/// Converts a phase-accumulator state into the dense amplitude array
/// (through the sparse map).
///
/// # Errors
///
/// As [`phase_to_sparse`] and [`sparse_to_dense`].
pub fn phase_to_dense(phase: &PhaseAccumulator) -> Result<StateVector, SimError> {
    sparse_to_dense(&phase_to_sparse(phase)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbu_circuit::{Basis, CircuitBuilder, Gate, QubitId};
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn q(i: u32) -> QubitId {
        QubitId(i)
    }

    /// An entangled, phase-rich 5-qubit state driven on both
    /// representations in lockstep.
    fn lockstep_pair() -> (StateVector, SparseVector) {
        let mut dense = StateVector::zeros(5).unwrap();
        let mut sparse = SparseVector::zeros(5).unwrap();
        let theta = mbu_circuit::Angle::turn_over_power_of_two(3);
        let program = [
            Gate::H(q(0)),
            Gate::Cx(q(0), q(1)),
            Gate::H(q(3)),
            Gate::CcPhase(q(0), q(3), q(1), theta),
            Gate::Ccx(q(0), q(1), q(4)),
            Gate::Phase(q(3), theta),
            Gate::Swap(q(2), q(4)),
        ];
        for g in &program {
            Simulator::apply_gate(&mut dense, g).unwrap();
            Simulator::apply_gate(&mut sparse, g).unwrap();
        }
        (dense, sparse)
    }

    /// The occupied entries of a dense state, in ascending index order, as
    /// a sparse map: the inverse the round-trip tests check
    /// [`sparse_to_dense`] against.
    fn gather(dense: &StateVector) -> SparseVector {
        let mut keys = Vec::new();
        let mut amps = Vec::new();
        for (i, a) in dense.amplitudes().into_iter().enumerate() {
            if a.re != 0.0 || a.im != 0.0 {
                keys.push(i as u64);
                amps.push(a);
            }
        }
        SparseVector::from_sorted_entries(Simulator::num_qubits(dense), keys, amps)
    }

    #[test]
    fn dense_round_trip_is_bitwise_identity() {
        let (dense, _) = lockstep_pair();
        let back = sparse_to_dense(&gather(&dense)).unwrap();
        let a = dense.amplitudes();
        let b = back.amplitudes();
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            assert_eq!(x.re.to_bits(), y.re.to_bits(), "re of amp {i}");
            assert_eq!(x.im.to_bits(), y.im.to_bits(), "im of amp {i}");
        }
    }

    #[test]
    fn sparse_round_trip_preserves_entries_and_order() {
        let (_, sparse) = lockstep_pair();
        let back = gather(&sparse_to_dense(&sparse).unwrap());
        assert_eq!(back.occupied(), sparse.occupied());
        for (i, ((kx, x, ()), (ky, y, ()))) in sparse.entries().zip(back.entries()).enumerate() {
            assert_eq!(kx, ky, "key of entry {i}");
            assert_eq!(x.re.to_bits(), y.re.to_bits(), "re of entry {i}");
            assert_eq!(x.im.to_bits(), y.im.to_bits(), "im of entry {i}");
        }
    }

    #[test]
    fn conversion_crosses_representations_losslessly() {
        // Dense and sparse runs of the same program are bit-identical
        // (the sparse backend's contract); scattering the sparse map
        // lands exactly on the dense state.
        let (dense, sparse) = lockstep_pair();
        let converted = sparse_to_dense(&sparse).unwrap();
        for (i, (x, y)) in dense
            .amplitudes()
            .iter()
            .zip(&converted.amplitudes())
            .enumerate()
        {
            assert_eq!(x.re.to_bits(), y.re.to_bits(), "re of amp {i}");
            assert_eq!(x.im.to_bits(), y.im.to_bits(), "im of amp {i}");
        }
    }

    #[test]
    fn converted_states_keep_running_identically() {
        // Convert mid-computation, run the suffix on the dense engine and
        // on the converted state with cloned RNGs: outcomes and final
        // amplitudes must agree bitwise.
        let (mut dense, sparse) = lockstep_pair();
        let mut hopped = sparse_to_dense(&sparse).unwrap();
        let mut b = CircuitBuilder::new();
        let r = b.qreg("q", 5);
        b.h(r[2]);
        b.ccx(r[0], r[2], r[3]);
        let _ = b.measure(r[3], Basis::Z);
        b.cx(r[3], r[4]);
        let circuit = b.finish();
        let mut rng_a = StdRng::seed_from_u64(11);
        let mut rng_b = StdRng::seed_from_u64(11);
        let ex_a = dense.run(&circuit, &mut rng_a).unwrap();
        let ex_b = hopped.run(&circuit, &mut rng_b).unwrap();
        assert_eq!(ex_a, ex_b);
        assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "RNG positions agree");
        for (i, (x, y)) in dense
            .amplitudes()
            .iter()
            .zip(&hopped.amplitudes())
            .enumerate()
        {
            assert_eq!(x.re.to_bits(), y.re.to_bits(), "re of amp {i}");
            assert_eq!(x.im.to_bits(), y.im.to_bits(), "im of amp {i}");
        }
    }

    #[test]
    fn oversized_sparse_states_are_rejected() {
        let wide = SparseVector::zeros(300).unwrap();
        assert!(matches!(
            sparse_to_dense(&wide),
            Err(SimError::TooManyQubits { .. })
        ));
    }

    #[test]
    fn phase_enumeration_matches_a_real_sparse_run() {
        // Drive the same diagonal-heavy program on the sparse engine and
        // the phase engine; enumerating the phase state must agree with
        // the sparse amplitudes to float accuracy (the phase side did its
        // rotations exactly, the sparse side in f64 — both within 1e-12
        // of the true value on this short program).
        let theta = mbu_circuit::Angle::turn_over_power_of_two(3);
        let program = [
            Gate::H(q(0)),
            Gate::H(q(2)),
            Gate::CPhase(q(0), q(2), theta),
            Gate::Phase(q(0), theta),
            Gate::X(q(1)),
            Gate::Cz(q(1), q(2)),
        ];
        let mut sparse = SparseVector::zeros(3).unwrap();
        let mut phase = PhaseAccumulator::zeros(3).unwrap();
        for g in &program {
            Simulator::apply_gate(&mut sparse, g).unwrap();
            Simulator::apply_gate(&mut phase, g).unwrap();
        }
        // The CPhase saw both operands in Fourier mode and materialised
        // one (a two-Fourier-operand diagonal does not factorise); the
        // other stays an exact accumulator.
        assert_eq!(phase.fourier_width(), 1);
        let converted = phase_to_sparse(&phase).unwrap();
        assert_eq!(converted.occupied(), sparse.occupied());
        for (i, ((kx, x, ()), (ky, y, ()))) in converted.entries().zip(sparse.entries()).enumerate()
        {
            assert_eq!(kx, ky, "key of entry {i}");
            assert!((x - y).norm() < 1e-12, "entry {i}: {x} vs {y}");
        }
    }

    #[test]
    fn phase_enumeration_width_cap() {
        let mut phase = PhaseAccumulator::zeros(64).unwrap();
        for i in 0..(MAX_PHASE_ENUM_FOURIER as u32 + 1) {
            Simulator::apply_gate(&mut phase, &Gate::H(q(i))).unwrap();
        }
        assert!(matches!(
            phase_to_sparse(&phase),
            Err(SimError::TooManyQubits { .. })
        ));
    }
}
