//! Property-based tests for the simulation backends: unitarity of the
//! state vector, gate/adjoint round trips on both backends, and tracker
//! phase algebra.

use mbu_circuit::{Angle, Circuit, Gate, Op, QubitId};
use mbu_sim::{BasisTracker, Complex, Simulator, StateVector};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_gate(n: u32) -> impl Strategy<Value = Gate> {
    let qubits: Vec<u32> = (0..n).collect();
    (0usize..9, Just(qubits).prop_shuffle(), 0u128..64, 1u32..8).prop_map(
        move |(kind, order, num, denom)| {
            let (a, b, c) = (QubitId(order[0]), QubitId(order[1]), QubitId(order[2]));
            let theta = Angle::from_fraction(num, denom);
            match kind {
                0 => Gate::X(a),
                1 => Gate::Z(a),
                2 => Gate::H(a),
                3 => Gate::Phase(a, theta),
                4 => Gate::Cx(a, b),
                5 => Gate::Cz(a, b),
                6 => Gate::Ccx(a, b, c),
                7 => Gate::Swap(a, b),
                _ => Gate::CPhase(a, b, theta),
            }
        },
    )
}

fn arb_unitary_circuit(n: u32) -> impl Strategy<Value = Circuit> {
    proptest::collection::vec(arb_gate(n), 1..30).prop_map(move |gates| {
        Circuit::from_ops(n as usize, 0, gates.into_iter().map(Op::Gate).collect())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn statevector_preserves_norm(c in arb_unitary_circuit(5), input in 0u64..32) {
        let mut sv = StateVector::basis(5, input).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        sv.run(&c, &mut rng).unwrap();
        prop_assert!((sv.norm() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn statevector_adjoint_round_trip(c in arb_unitary_circuit(5), input in 0u64..32) {
        // U† U |x⟩ = |x⟩ with amplitude exactly 1.
        let mut sv = StateVector::basis(5, input).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        sv.run(&c, &mut rng).unwrap();
        sv.run(&c.adjoint().unwrap(), &mut rng).unwrap();
        let (idx, amp) = sv.as_basis(1e-9).expect("back to a basis state");
        prop_assert_eq!(idx, input);
        prop_assert!((amp - Complex::ONE).norm() < 1e-7);
    }

    #[test]
    fn statevector_inner_products_are_invariant(
        c in arb_unitary_circuit(4),
        i in 0u64..16,
        j in 0u64..16,
    ) {
        // ⟨Ui|Uj⟩ = ⟨i|j⟩ — unitaries preserve orthogonality.
        let mut a = StateVector::basis(4, i).unwrap();
        let mut b = StateVector::basis(4, j).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        a.run(&c, &mut rng).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        b.run(&c, &mut rng).unwrap();
        let overlap = a.inner_product(&b).norm();
        let expected = f64::from(u8::from(i == j));
        prop_assert!((overlap - expected).abs() < 1e-9);
    }

    #[test]
    fn tracker_permutation_matches_statevector(
        gates in proptest::collection::vec(
            (0usize..4, Just((0u32..6).collect::<Vec<u32>>()).prop_shuffle()),
            1..40,
        ),
        input in 0u64..64,
    ) {
        // Pure permutation circuits (X/CX/CCX/SWAP): both backends must
        // produce identical basis outputs.
        let ops: Vec<Op> = gates
            .into_iter()
            .map(|(kind, order)| {
                let (a, b, c) = (QubitId(order[0]), QubitId(order[1]), QubitId(order[2]));
                Op::Gate(match kind {
                    0 => Gate::X(a),
                    1 => Gate::Cx(a, b),
                    2 => Gate::Ccx(a, b, c),
                    _ => Gate::Swap(a, b),
                })
            })
            .collect();
        let circuit = Circuit::from_ops(6, 0, ops);

        let mut sv = StateVector::basis(6, input).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        sv.run(&circuit, &mut rng).unwrap();
        let (sv_out, amp) = sv.as_basis(1e-12).unwrap();
        prop_assert!((amp - Complex::ONE).norm() < 1e-9);

        let mut tracker = BasisTracker::zeros(6);
        let all: Vec<QubitId> = (0..6).map(QubitId).collect();
        tracker.set_value(&all, u128::from(input)).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        tracker.run(&circuit, &mut rng).unwrap();
        prop_assert_eq!(tracker.value(&all).unwrap(), u128::from(sv_out));
        prop_assert!(tracker.global_phase().is_zero());
    }

    #[test]
    fn tracker_diagonal_phase_matches_statevector(
        zs in proptest::collection::vec((0u32..4, 0u32..4, 0u128..16, 1u32..5), 1..20),
        input in 0u64..16,
    ) {
        // Diagonal circuits on basis states: the tracker's global phase
        // must equal the state vector's amplitude argument exactly.
        let mut ops = Vec::new();
        for (a, b, num, denom) in zs {
            // Offset 1..=3 keeps the operands distinct (the simulators
            // reject duplicate-operand gates, matching `Circuit::validate`).
            let (qa, qb) = (QubitId(a), QubitId((a + 1 + b % 3) % 4));
            ops.push(Op::Gate(Gate::Phase(qa, Angle::from_fraction(num, denom))));
            ops.push(Op::Gate(Gate::CPhase(qa, qb, Angle::from_fraction(num, denom))));
            ops.push(Op::Gate(Gate::Cz(qa, qb)));
        }
        let circuit = Circuit::from_ops(4, 0, ops);

        let mut sv = StateVector::basis(4, input).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        sv.run(&circuit, &mut rng).unwrap();
        let (idx, amp) = sv.as_basis(1e-12).unwrap();
        prop_assert_eq!(idx, input, "diagonal circuits preserve the value");

        let mut tracker = BasisTracker::zeros(4);
        let all: Vec<QubitId> = (0..4).map(QubitId).collect();
        tracker.set_value(&all, u128::from(input)).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        tracker.run(&circuit, &mut rng).unwrap();
        let expected = Complex::cis(tracker.global_phase().radians());
        prop_assert!(
            (amp - expected).norm() < 1e-7,
            "sv amp {} vs tracker phase {}",
            amp,
            tracker.global_phase()
        );
    }

    #[test]
    fn measurement_statistics_match_amplitudes(
        target_prob_num in 0u32..=8,
    ) {
        // Rotate |0⟩ by composing H·R(θ)·H and verify sampled frequencies
        // against the computed probability.
        let theta = Angle::from_fraction(u128::from(target_prob_num), 4);
        let circuit = Circuit::from_ops(
            1,
            1,
            vec![
                Op::Gate(Gate::H(QubitId(0))),
                Op::Gate(Gate::Phase(QubitId(0), theta)),
                Op::Gate(Gate::H(QubitId(0))),
                Op::Measure {
                    qubit: QubitId(0),
                    basis: mbu_circuit::Basis::Z,
                    clbit: mbu_circuit::ClbitId(0),
                },
            ],
        );
        // Exact probability of outcome 1.
        let mut probe = StateVector::zeros(1).unwrap();
        for op in circuit.ops().iter().take(3) {
            if let Op::Gate(g) = op {
                probe.apply_gate(g).unwrap();
            }
        }
        let p1 = probe.probability_of(1);
        let trials = 600u64;
        let mut ones = 0u64;
        for seed in 0..trials {
            let mut sv = StateVector::zeros(1).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let ex = sv.run(&circuit, &mut rng).unwrap();
            ones += u64::from(ex.outcome(0).unwrap());
        }
        let freq = ones as f64 / trials as f64;
        prop_assert!((freq - p1).abs() < 0.09, "freq {freq} vs p1 {p1}");
    }
}
