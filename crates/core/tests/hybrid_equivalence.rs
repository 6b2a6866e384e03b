//! Cross-backend equivalence on the paper's modular adders: the lossless
//! dense↔sparse conversions round-trip bit-for-bit under every kernel
//! configuration, and the `BackendKind::Auto` hybrid planner matches the
//! forced sparse backend bit-for-bit — amplitudes, executed records,
//! classical bits and RNG stream position — on random MBU modadd
//! instances, switching representations mid-run while it does so.
//!
//! The one identity deliberately *not* asserted on the adders is forced
//! dense versus anything else at stream level: the MBU constructions
//! reset measured ancillas, and a reset of a definite qubit consumes an
//! RNG draw on the dense engine but none on the sparse map (or the
//! hybrid, whose draw policy is pinned to the sparse one). Dense joins
//! the bitwise pack on reset-free circuits — see
//! [`auto_matches_both_forced_backends_on_a_reset_free_circuit`].

use mbu_arith::{modular, Uncompute};
use mbu_circuit::{Basis, CircuitBuilder, CompiledCircuit, PassConfig};
use mbu_sim::{
    dense_to_sparse, sparse_to_dense, Complex, HybridState, Simulator, SparseVector, StateVector,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// The compact adder specs (every circuit stays well under the dense
/// width cap at n = 3), always with measurement-based uncomputation so
/// the circuits actually measure mid-run.
fn arb_mbu_spec() -> impl Strategy<Value = modular::ModAddSpec> {
    (0usize..3).prop_map(|i| match i {
        0 => modular::ModAddSpec::cdkpm(Uncompute::Mbu),
        1 => modular::ModAddSpec::gidney(Uncompute::Mbu),
        _ => modular::ModAddSpec::gidney_cdkpm(Uncompute::Mbu),
    })
}

/// A random small modadd instance: `(spec, p, x, y)` with `x, y < p`.
fn arb_instance() -> impl Strategy<Value = (modular::ModAddSpec, u128, u128, u128)> {
    (arb_mbu_spec(), 0usize..3, 0u128..49).prop_map(|(spec, pi, xy)| {
        let p = [3u128, 5, 7][pi];
        (spec, p, (xy % 7) % p, (xy / 7) % p)
    })
}

/// Compiles with the given fusion window and everything else at the
/// (deterministic) defaults — reclamation analysis on, phase folding off.
fn compile(circuit: &mbu_circuit::Circuit, fuse: bool) -> CompiledCircuit {
    let config = PassConfig {
        fuse_max_qubits: if fuse { 3 } else { 0 },
        ..PassConfig::default()
    };
    CompiledCircuit::with_config(circuit, &config).unwrap()
}

/// Bitwise equality on the nonzero support; exact zeros compare as values
/// (`±0.0` are the same state — the sparse map cannot carry a zero entry
/// at all, let alone its sign, while dense diagonal sweeps are free to
/// leave `-0.0` behind on unoccupied indices).
fn assert_amps_bitwise(a: &[Complex], b: &[Complex], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        if x.re == 0.0 && x.im == 0.0 && y.re == 0.0 && y.im == 0.0 {
            continue;
        }
        assert_eq!(x.re.to_bits(), y.re.to_bits(), "{what}: re of amp {i}");
        assert_eq!(x.im.to_bits(), y.im.to_bits(), "{what}: im of amp {i}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Dense↔sparse round trips are bitwise lossless across
    /// fusion × reclamation, and both exact backends land on
    /// the correct modular sum whatever their trajectories drew.
    #[test]
    fn dense_sparse_round_trip_is_bitwise_across_configs(
        (spec, p, x, y) in arb_instance(),
        seed in 0u64..u64::MAX,
        fuse in 0usize..2,
        reclaim in 0usize..2,
    ) {
        let (fuse, reclaim) = (fuse == 1, reclaim == 1);
        let layout = modular::modadd_circuit(&spec, 3, p).unwrap();
        let q = layout.circuit.num_qubits();
        prop_assume!(q <= 16);
        let compiled = compile(&layout.circuit, fuse);

        let mut dense = StateVector::zeros(q).unwrap()
            .with_reclamation(reclaim);
        let mut sparse = SparseVector::zeros(q).unwrap();
        for sim in [&mut dense as &mut dyn Simulator, &mut sparse] {
            sim.set_value(layout.x.qubits(), x).unwrap();
            sim.set_value(layout.y.qubits(), y).unwrap();
        }
        let mut rng_d = StdRng::seed_from_u64(seed);
        let mut rng_s = StdRng::seed_from_u64(seed);
        dense.run_compiled(&compiled, &mut rng_d).unwrap();
        Simulator::run_compiled(&mut sparse, &compiled, &mut rng_s).unwrap();

        // Whatever each trajectory measured, the arithmetic is exact.
        prop_assert_eq!(dense.value(layout.y.qubits()).unwrap(), (x + y) % p);
        prop_assert_eq!(Simulator::value(&sparse, layout.y.qubits()).unwrap(), (x + y) % p);

        // Round trips are bitwise lossless in both directions, whatever
        // configuration produced the states.
        let d_amps = dense.amplitudes();
        let rt_dense = sparse_to_dense(&dense_to_sparse(&dense)).unwrap();
        assert_amps_bitwise(&rt_dense.amplitudes(), &d_amps, "dense round trip");
        let s_dense = sparse_to_dense(&sparse).unwrap();
        let rt_sparse = dense_to_sparse(&s_dense);
        prop_assert_eq!(rt_sparse.occupied(), sparse.occupied());
        assert_amps_bitwise(
            &sparse_to_dense(&rt_sparse).unwrap().amplitudes(),
            &s_dense.amplitudes(),
            "sparse round trip",
        );
    }

    /// The auto backend, with thresholds tightened so it actually switches
    /// representations mid-run, matches the forced sparse backend
    /// bit-for-bit on random MBU modadds: record, classical bits, RNG
    /// position and every amplitude — with its dense phases serial or
    /// split over two amplitude lanes.
    #[test]
    fn auto_backend_matches_forced_sparse_bit_for_bit(
        (spec, p, x, y) in arb_instance(),
        seed in 0u64..u64::MAX,
        fuse in 0usize..2,
        lanes in 1usize..=2,
    ) {
        let layout = modular::modadd_circuit(&spec, 3, p).unwrap();
        let q = layout.circuit.num_qubits();
        prop_assume!(q <= 16);
        let compiled = compile(&layout.circuit, fuse == 1);

        let mut auto = HybridState::zeros(q).unwrap().with_thresholds(24, 1);
        Simulator::set_amp_threads(&mut auto, lanes);
        let mut sparse = SparseVector::zeros(q).unwrap();
        for sim in [&mut auto as &mut dyn Simulator, &mut sparse] {
            sim.set_value(layout.x.qubits(), x).unwrap();
            sim.set_value(layout.y.qubits(), y).unwrap();
        }
        let mut rng_a = StdRng::seed_from_u64(seed);
        let mut rng_s = StdRng::seed_from_u64(seed);
        let ex_a = Simulator::run_compiled(&mut auto, &compiled, &mut rng_a).unwrap();
        let ex_s = Simulator::run_compiled(&mut sparse, &compiled, &mut rng_s).unwrap();

        prop_assert_eq!(&ex_a, &ex_s);
        prop_assert_eq!(rng_a.next_u64(), rng_s.next_u64());
        assert_amps_bitwise(
            &auto.amplitudes().unwrap(),
            &sparse_to_dense(&sparse).unwrap().amplitudes(),
            "auto vs sparse",
        );
        prop_assert_eq!(
            Simulator::value(&auto, layout.y.qubits()).unwrap(),
            (x + y) % p
        );
        // With the threshold this tight the planner genuinely switched at
        // least once — the identities above cover real mid-run hops, not
        // a planner that stayed sparse throughout.
        prop_assert!(auto.last_run_switches().unwrap() >= 1);
    }
}

/// On a reset-free MBU circuit whose every measurement is genuinely
/// random (H-preceded, `p₁ = ½`), all three exact engines — forced
/// dense, forced sparse, and the switching auto backend — agree bit for
/// bit on records, RNG position and amplitudes.
#[test]
fn auto_matches_both_forced_backends_on_a_reset_free_circuit() {
    // Gidney's logical AND on superposed inputs with measurement-based
    // uncomputation: H both inputs, compute the AND, MBU-uncompute it.
    let mut b = CircuitBuilder::new();
    let q = b.qreg("q", 3);
    b.h(q[0]);
    b.h(q[1]);
    b.ccx(q[0], q[1], q[2]);
    b.h(q[2]);
    let m = b.measure(q[2], Basis::Z);
    let (_, fix) = b.record(|bb| {
        bb.cz(q[0], q[1]);
        bb.x(q[2]);
    });
    b.emit_conditional(m, &fix);
    let circuit = b.finish();
    let compiled = CompiledCircuit::with_config(&circuit, &PassConfig::default()).unwrap();

    for seed in 0..32u64 {
        let mut auto = HybridState::zeros(3).unwrap().with_thresholds(24, 1);
        let mut dense = StateVector::zeros(3).unwrap().with_reclamation(false);
        let mut sparse = SparseVector::zeros(3).unwrap();
        let mut rng_a = StdRng::seed_from_u64(seed);
        let mut rng_d = StdRng::seed_from_u64(seed);
        let mut rng_s = StdRng::seed_from_u64(seed);
        let ex_a = Simulator::run_compiled(&mut auto, &compiled, &mut rng_a).unwrap();
        let ex_d = dense.run_compiled(&compiled, &mut rng_d).unwrap();
        let ex_s = Simulator::run_compiled(&mut sparse, &compiled, &mut rng_s).unwrap();
        assert_eq!(ex_a, ex_d, "seed {seed}");
        assert_eq!(ex_a, ex_s, "seed {seed}");
        let pos = rng_a.next_u64();
        assert_eq!(pos, rng_d.next_u64(), "seed {seed}: dense RNG position");
        assert_eq!(pos, rng_s.next_u64(), "seed {seed}: sparse RNG position");
        let a_amps = auto.amplitudes().unwrap();
        assert_amps_bitwise(&a_amps, &dense.amplitudes(), "auto vs dense");
        assert_amps_bitwise(
            &a_amps,
            &sparse_to_dense(&sparse).unwrap().amplitudes(),
            "auto vs sparse",
        );
        assert!(
            auto.last_run_switches().unwrap() >= 1,
            "seed {seed}: the H fan-out must have promoted"
        );
    }
}

/// The mixed workload of the acceptance criteria in one deterministic
/// test: a sparse-only wide MBU adder (no dense representation can
/// exist) and a narrow adder under tight thresholds where the planner
/// hops, both agreeing with the forced sparse run bit for bit.
#[test]
fn auto_covers_the_mixed_workload_shapes() {
    // Wide register: only the sparse representation can exist; the auto
    // backend must refuse to promote and still compute the right sum.
    let spec = modular::ModAddSpec::gidney_cdkpm(Uncompute::Mbu);
    let wide = modular::modadd_circuit(&spec, 64, (1u128 << 64) - 59).unwrap();
    let qw = wide.circuit.num_qubits();
    let compiled = CompiledCircuit::with_config(&wide.circuit, &PassConfig::default()).unwrap();
    let mut auto = HybridState::zeros(qw).unwrap();
    let x = (1u128 << 63) + 12345;
    let y = (1u128 << 62) + 999;
    Simulator::set_value(&mut auto, wide.x.qubits(), x).unwrap();
    Simulator::set_value(&mut auto, wide.y.qubits(), y).unwrap();
    let mut rng = StdRng::seed_from_u64(41);
    Simulator::run_compiled(&mut auto, &compiled, &mut rng).unwrap();
    assert_eq!(
        Simulator::value(&auto, wide.y.qubits()).unwrap(),
        (x + y) % ((1u128 << 64) - 59)
    );
    assert_eq!(auto.last_run_switches(), Some(0), "no dense phase exists");

    // Narrow register with tight thresholds: the planner hops and the
    // result still matches the forced sparse run bit for bit.
    let narrow = modular::modadd_circuit(&spec, 4, 13).unwrap();
    let qn = narrow.circuit.num_qubits();
    let compiled = CompiledCircuit::with_config(&narrow.circuit, &PassConfig::default()).unwrap();
    let mut auto = HybridState::zeros(qn).unwrap().with_thresholds(24, 1);
    let mut sparse = SparseVector::zeros(qn).unwrap();
    for sim in [&mut auto as &mut dyn Simulator, &mut sparse] {
        sim.set_value(narrow.x.qubits(), 9).unwrap();
        sim.set_value(narrow.y.qubits(), 11).unwrap();
    }
    let mut rng_a = StdRng::seed_from_u64(5);
    let mut rng_s = StdRng::seed_from_u64(5);
    let ex_a = Simulator::run_compiled(&mut auto, &compiled, &mut rng_a).unwrap();
    let ex_s = Simulator::run_compiled(&mut sparse, &compiled, &mut rng_s).unwrap();
    assert_eq!(ex_a, ex_s);
    assert!(auto.last_run_switches().unwrap() >= 1, "planner hopped");
    assert_eq!(
        Simulator::value(&auto, narrow.y.qubits()).unwrap(),
        (9 + 11) % 13
    );
}
