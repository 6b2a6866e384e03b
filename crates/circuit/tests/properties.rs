//! Property-based tests for the circuit IR: angle algebra, adjoint
//! involution, count additivity, and depth laws on randomly generated
//! circuits.

use mbu_circuit::{Angle, Circuit, CircuitBuilder, Gate, Op, QubitId};
use proptest::prelude::*;

fn arb_angle() -> impl Strategy<Value = Angle> {
    (0u128..1024, 0u32..20).prop_map(|(num, denom)| Angle::from_fraction(num, denom))
}

/// A random unitary gate over `n` qubits (n ≥ 3): operands are drawn as a
/// shuffled qubit list, guaranteeing distinctness.
fn arb_gate(n: u32) -> impl Strategy<Value = Gate> {
    let qubits: Vec<u32> = (0..n).collect();
    (0usize..8, Just(qubits).prop_shuffle(), arb_angle()).prop_map(move |(kind, order, theta)| {
        let (qa, qb, qc) = (QubitId(order[0]), QubitId(order[1]), QubitId(order[2]));
        match kind {
            0 => Gate::X(qa),
            1 => Gate::Z(qa),
            2 => Gate::H(qa),
            3 => Gate::Phase(qa, theta),
            4 => Gate::Cx(qa, qb),
            5 => Gate::Cz(qa, qb),
            6 => Gate::Ccx(qa, qb, qc),
            _ => Gate::CPhase(qa, qb, theta),
        }
    })
}

fn arb_circuit(n: u32) -> impl Strategy<Value = Circuit> {
    proptest::collection::vec(arb_gate(n), 0..40).prop_map(move |gates| {
        Circuit::from_ops(n as usize, 0, gates.into_iter().map(Op::Gate).collect())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn angle_addition_is_commutative(a in arb_angle(), b in arb_angle()) {
        prop_assert_eq!(a.checked_add(b).unwrap(), b.checked_add(a).unwrap());
    }

    #[test]
    fn angle_addition_is_associative(
        a in arb_angle(),
        b in arb_angle(),
        c in arb_angle(),
    ) {
        prop_assert_eq!(
            a.checked_add(b).unwrap().checked_add(c).unwrap(),
            a.checked_add(b.checked_add(c).unwrap()).unwrap()
        );
    }

    #[test]
    fn angle_negation_inverts(a in arb_angle()) {
        prop_assert_eq!(a.checked_add(-a).unwrap(), Angle::ZERO);
        prop_assert_eq!(-(-a), a);
    }

    #[test]
    fn angle_radians_in_range(a in arb_angle()) {
        let r = a.radians();
        prop_assert!((0.0..2.0 * std::f64::consts::PI).contains(&r));
    }

    #[test]
    fn adjoint_is_an_involution(c in arb_circuit(6)) {
        let adj = c.adjoint().unwrap();
        prop_assert_eq!(adj.adjoint().unwrap(), c);
    }

    #[test]
    fn adjoint_preserves_gate_counts(c in arb_circuit(6)) {
        let counts = c.counts();
        let adj_counts = c.adjoint().unwrap().counts();
        prop_assert_eq!(counts.toffoli, adj_counts.toffoli);
        prop_assert_eq!(counts.cx, adj_counts.cx);
        prop_assert_eq!(counts.h, adj_counts.h);
        prop_assert_eq!(counts.phase, adj_counts.phase);
        prop_assert_eq!(counts.total_gates(), adj_counts.total_gates());
    }

    #[test]
    fn adjoint_preserves_depth(c in arb_circuit(6)) {
        prop_assert_eq!(c.depth(), c.adjoint().unwrap().depth());
    }

    #[test]
    fn counts_are_additive_under_concatenation(
        a in arb_circuit(6),
        b in arb_circuit(6),
    ) {
        let mut combined = Circuit::new(6, 0);
        for op in a.ops().iter().chain(b.ops()) {
            combined.push(op.clone());
        }
        let sum = a.counts() + b.counts();
        prop_assert_eq!(combined.counts(), sum);
    }

    #[test]
    fn depth_is_subadditive(a in arb_circuit(6), b in arb_circuit(6)) {
        let mut combined = Circuit::new(6, 0);
        for op in a.ops().iter().chain(b.ops()) {
            combined.push(op.clone());
        }
        prop_assert!(combined.depth() <= a.depth() + b.depth());
        prop_assert!(combined.depth() >= a.depth().max(b.depth()));
    }

    #[test]
    fn toffoli_depth_bounded_by_toffoli_count(c in arb_circuit(6)) {
        prop_assert!(c.toffoli_depth() <= c.counts().toffoli + c.counts().ccz);
        prop_assert!(c.toffoli_depth() <= c.depth());
    }

    #[test]
    fn expected_counts_bounded_by_worst_case(c in arb_circuit(6)) {
        // Without conditionals they are equal; adding a conditional can
        // only lower the expectation.
        let exact = c.counts();
        let expected = c.expected_counts();
        prop_assert!(expected.total_gates() <= exact.total_gates() as f64 + 1e-9);
    }

    #[test]
    fn random_circuits_validate(c in arb_circuit(6)) {
        prop_assert!(c.validate().is_ok());
    }

    #[test]
    fn diagram_renders_every_row(c in arb_circuit(6)) {
        let art = mbu_circuit::diagram::render(&c, &[] as &[&str]);
        prop_assert_eq!(art.lines().count(), 6);
    }
}

#[test]
fn builder_ancilla_discipline_roundtrip() {
    // Allocate/release cycles never grow the pool beyond the peak.
    let mut b = CircuitBuilder::new();
    let _data = b.qreg("d", 4);
    for _ in 0..10 {
        let a1 = b.ancilla();
        let a2 = b.ancilla();
        b.release_ancilla(a1);
        b.release_ancilla(a2);
    }
    assert_eq!(b.ancillas_created(), 2);
    assert_eq!(b.ancilla_peak(), 2);
    assert_eq!(b.num_qubits(), 6);
}
