//! Differential tests for the stride-based state-vector kernels.
//!
//! Every kernel is checked against a dense matrix–vector reference built
//! from first principles (the gate's column action on each basis state,
//! written out from its definition — no simulator code reused), on 1–4
//! qubit states, for **every** valid operand tuple. Exhausting the operand
//! tuples covers the cases where stride iteration goes wrong first:
//! control on the highest bit, target below the control, non-adjacent
//! operands, and every permutation of a Toffoli's qubits.

use mbu_circuit::{Angle, Gate, QubitId};
use mbu_sim::{Complex, Simulator, StateVector};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

fn q(i: usize) -> QubitId {
    QubitId(u32::try_from(i).unwrap())
}

/// A uniform f64 in [-1, 1), from the shim RNG's raw bits.
fn unit(rng: &mut StdRng) -> f64 {
    ((rng.next_u64() >> 11) as f64) * (2.0 / (1u64 << 53) as f64) - 1.0
}

/// A deterministic dense state over `n` qubits (not normalised; linearity
/// of the kernels makes normalisation irrelevant to the comparison).
fn random_state(n: usize, seed: u64) -> Vec<Complex> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..1usize << n)
        .map(|_| Complex::new(unit(&mut rng), unit(&mut rng)))
        .collect()
}

/// The column action of `gate` on basis state `|j⟩`, from the gate's
/// definition: a list of `(i, w)` meaning the column holds `w` at row `i`.
fn column(gate: &Gate, j: usize) -> Vec<(usize, Complex)> {
    let bit = |index: usize, qb: QubitId| index >> qb.index() & 1 == 1;
    let m = |qb: QubitId| 1usize << qb.index();
    let cis = |a: &Angle| Complex::cis(a.radians());
    const SQRT_HALF: f64 = std::f64::consts::FRAC_1_SQRT_2;
    match gate {
        Gate::X(t) => vec![(j ^ m(*t), Complex::ONE)],
        Gate::Z(t) => vec![(
            j,
            if bit(j, *t) {
                -Complex::ONE
            } else {
                Complex::ONE
            },
        )],
        Gate::H(t) => {
            let sign = if bit(j, *t) { -SQRT_HALF } else { SQRT_HALF };
            vec![
                (j & !m(*t), Complex::new(SQRT_HALF, 0.0)),
                (j | m(*t), Complex::new(sign, 0.0)),
            ]
        }
        Gate::Phase(t, a) => vec![(j, if bit(j, *t) { cis(a) } else { Complex::ONE })],
        Gate::Cx(c, t) => vec![(if bit(j, *c) { j ^ m(*t) } else { j }, Complex::ONE)],
        Gate::Cz(a, b) => vec![(
            j,
            if bit(j, *a) && bit(j, *b) {
                -Complex::ONE
            } else {
                Complex::ONE
            },
        )],
        Gate::Ccx(c1, c2, t) => vec![(
            if bit(j, *c1) && bit(j, *c2) {
                j ^ m(*t)
            } else {
                j
            },
            Complex::ONE,
        )],
        Gate::Ccz(a, b, c) => vec![(
            j,
            if bit(j, *a) && bit(j, *b) && bit(j, *c) {
                -Complex::ONE
            } else {
                Complex::ONE
            },
        )],
        Gate::CPhase(c, t, a) => vec![(
            j,
            if bit(j, *c) && bit(j, *t) {
                cis(a)
            } else {
                Complex::ONE
            },
        )],
        Gate::CcPhase(c1, c2, t, a) => vec![(
            j,
            if bit(j, *c1) && bit(j, *c2) && bit(j, *t) {
                cis(a)
            } else {
                Complex::ONE
            },
        )],
        Gate::Swap(a, b) => {
            let swapped = if bit(j, *a) != bit(j, *b) {
                j ^ m(*a) ^ m(*b)
            } else {
                j
            };
            vec![(swapped, Complex::ONE)]
        }
    }
}

/// Dense matrix–vector multiply of the gate's full `2^n × 2^n` unitary.
fn dense_apply(gate: &Gate, amps: &[Complex]) -> Vec<Complex> {
    let mut out = vec![Complex::ZERO; amps.len()];
    for (j, a) in amps.iter().enumerate() {
        for (i, w) in column(gate, j) {
            out[i] += w * *a;
        }
    }
    out
}

/// Applies `gate` through the `StateVector`'s stride kernels.
fn sv_apply(gate: &Gate, amps: &[Complex]) -> Vec<Complex> {
    let mut sv = StateVector::from_amplitudes(amps.to_vec()).unwrap();
    sv.apply_gate(gate).unwrap();
    sv.amplitudes().to_vec()
}

fn assert_matches_reference(gate: &Gate, n: usize) {
    let amps = random_state(n, 0xD1FF ^ (n as u64));
    let expect = dense_apply(gate, &amps);
    let got = sv_apply(gate, &amps);
    for (i, (g, e)) in got.iter().zip(&expect).enumerate() {
        assert!(
            (*g - *e).norm() < 1e-12,
            "{gate} on {n} qubits: amp {i} = {g}, want {e}"
        );
    }
}

/// Every ordered pair of distinct qubit indices below `n`.
fn pairs(n: usize) -> Vec<(usize, usize)> {
    let mut v = Vec::new();
    for a in 0..n {
        for b in 0..n {
            if a != b {
                v.push((a, b));
            }
        }
    }
    v
}

/// Every ordered triple of distinct qubit indices below `n`.
fn triples(n: usize) -> Vec<(usize, usize, usize)> {
    let mut v = Vec::new();
    for a in 0..n {
        for b in 0..n {
            for c in 0..n {
                if a != b && a != c && b != c {
                    v.push((a, b, c));
                }
            }
        }
    }
    v
}

#[test]
fn single_qubit_kernels_match_dense_reference() {
    let theta = Angle::turn_over_power_of_two(3); // T
    for n in 1..=4usize {
        for t in 0..n {
            for gate in [
                Gate::X(q(t)),
                Gate::Z(q(t)),
                Gate::H(q(t)),
                Gate::Phase(q(t), theta),
                Gate::Phase(q(t), -theta),
            ] {
                assert_matches_reference(&gate, n);
            }
        }
    }
}

#[test]
fn two_qubit_kernels_match_dense_reference() {
    // Every ordered pair: includes control-on-high-bit (c = n−1, t = 0)
    // and target-below-control layouts.
    let theta = Angle::turn_over_power_of_two(2); // S
    for n in 2..=4usize {
        for (a, b) in pairs(n) {
            for gate in [
                Gate::Cx(q(a), q(b)),
                Gate::Cz(q(a), q(b)),
                Gate::CPhase(q(a), q(b), theta),
                Gate::Swap(q(a), q(b)),
            ] {
                assert_matches_reference(&gate, n);
            }
        }
    }
}

#[test]
fn three_qubit_kernels_match_dense_reference() {
    // Every ordered triple: includes non-adjacent targets (e.g. controls
    // on bits 0 and 3 of a 4-qubit state, target on bit 1).
    let theta = Angle::turn_over_power_of_two(4);
    for n in 3..=4usize {
        for (a, b, c) in triples(n) {
            for gate in [
                Gate::Ccx(q(a), q(b), q(c)),
                Gate::Ccz(q(a), q(b), q(c)),
                Gate::CcPhase(q(a), q(b), q(c), theta),
            ] {
                assert_matches_reference(&gate, n);
            }
        }
    }
}

#[test]
fn kernels_preserve_norm_on_long_random_products() {
    // 200 random gates on 4 qubits: the stride path must stay unitary and
    // keep agreeing with the dense reference applied step by step.
    let mut rng = StdRng::seed_from_u64(7);
    let n = 4usize;
    let mut amps = random_state(n, 42);
    // Normalise so the norm check below is meaningful.
    let norm: f64 = amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
    for a in &mut amps {
        *a = a.scale(1.0 / norm);
    }
    let mut sv = StateVector::from_amplitudes(amps.clone()).unwrap();
    for step in 0..200 {
        let t = triples(n);
        let (a, b, c) = t[(rng.next_u64() as usize) % t.len()];
        let theta = Angle::turn_over_power_of_two(1 + (step % 5) as u32);
        let gate = match rng.next_u64() % 8 {
            0 => Gate::X(q(a)),
            1 => Gate::H(q(a)),
            2 => Gate::Phase(q(a), theta),
            3 => Gate::Cx(q(a), q(b)),
            4 => Gate::Cz(q(a), q(b)),
            5 => Gate::Ccx(q(a), q(b), q(c)),
            6 => Gate::CcPhase(q(a), q(b), q(c), theta),
            _ => Gate::Swap(q(b), q(c)),
        };
        amps = dense_apply(&gate, &amps);
        sv.apply_gate(&gate).unwrap();
        for (i, (g, e)) in sv.amplitudes().iter().zip(&amps).enumerate() {
            assert!(
                (*g - *e).norm() < 1e-9,
                "step {step} {gate}: amp {i} diverged"
            );
        }
    }
    assert!((sv.norm() - 1.0).abs() < 1e-9);
}
