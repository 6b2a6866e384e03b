//! Cross-validation of the sparse basis-map backend against the dense
//! statevector, bit for bit.
//!
//! `SparseVector` stores only the occupied basis states, so its costs
//! scale with the entanglement a circuit actually creates rather than
//! with `2^n` — but it is allowed no observable deviation from the dense
//! engine on circuits both can run. These tests pin that contract on
//! random MBU modular adders across every architecture, against every
//! dense engine variant (fusion × reclamation): identical
//! classical records and executed counts, identical RNG consumption,
//! bitwise-identical amplitudes on the shared support, and identical
//! branch-tree distributions. The one *intended* divergence — a definite
//! measurement consumes no randomness on the sparse backend, mirroring
//! `Fork::Definite` — is pinned by a word-counting RNG regression test.

use std::collections::BTreeMap;

use mbu_arith::{
    adders::draper,
    modular::{self, ModAddSpec},
    Uncompute,
};
use mbu_circuit::{Basis, CircuitBuilder, CompiledCircuit, PassConfig};
use mbu_sim::{
    phase_to_dense, BackendKind, BasisTracker, BranchDistribution, BranchEnsemble, Ensemble,
    PhaseAccumulator, ShotRunner, Simulator, SparseVector, StateVector,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

fn arch_spec(arch: u8) -> ModAddSpec {
    match arch % 5 {
        0 => ModAddSpec::vbe5(Uncompute::Mbu),
        1 => ModAddSpec::vbe4(Uncompute::Mbu),
        2 => ModAddSpec::cdkpm(Uncompute::Mbu),
        3 => ModAddSpec::gidney(Uncompute::Mbu),
        _ => ModAddSpec::gidney_cdkpm(Uncompute::Mbu),
    }
}

fn unfused_passes() -> PassConfig {
    PassConfig {
        fuse_max_qubits: 0,
        ..PassConfig::default()
    }
}

proptest! {
    // Each case runs one sparse simulation and four dense variants
    // (reclamation on/off × fused/unfused) of the same seeded modadd. Restricted to the reset-free architectures
    // (VBE5/VBE4/CDKPM): every measurement there lands on an H-fanned
    // qubit at p = 1/2, so the sparse definite-measurement shortcut
    // never fires and the RNG streams stay in lockstep with the dense
    // engine. The Gidney architectures reset just-measured (definite)
    // qubits — the dense engine draws for those resets and the sparse
    // backend intentionally does not — and are covered by the
    // functional and distribution tests below instead.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn sparse_matches_every_dense_engine_variant_bit_for_bit(
        n in 2usize..=3,
        pk in 0u128..1_000_000,
        xk in 0u128..1_000_000,
        yk in 0u128..1_000_000,
        arch in 0u8..3,
        seed in 0u64..u64::MAX,
    ) {
        let pmax = (1u128 << n) - 1;
        let p = 2 + pk % (pmax - 1);
        let x = xk % p;
        let y = yk % p;
        let spec = arch_spec(arch);
        let layout = modular::modadd_circuit(&spec, n, p).unwrap();
        let nq = layout.circuit.num_qubits();
        let unfused = CompiledCircuit::with_config(&layout.circuit, &unfused_passes()).unwrap();
        let fused = CompiledCircuit::compile(&layout.circuit).unwrap();

        // One sparse run; every dense variant must agree with it.
        let mut sp = SparseVector::zeros(nq).unwrap();
        sp.set_value(layout.x.qubits(), x).unwrap();
        sp.set_value(layout.y.qubits(), y).unwrap();
        let mut rng_sp = StdRng::seed_from_u64(seed);
        let ex_sp = sp.run_compiled(&unfused, &mut rng_sp).unwrap();
        let tail_sp = rng_sp.next_u64();
        prop_assert_eq!(sp.value(layout.x.qubits()).unwrap(), x);
        prop_assert_eq!(sp.value(layout.y.qubits()).unwrap(), (x + y) % p);
        // MBU collapses every garbage qubit: the final state is one
        // basis state, whatever `2^nq` is.
        prop_assert_eq!(sp.occupied(), 1, "arch {}", arch);

        let input = StateVector::index_with(&[
            (layout.x.qubits(), u64::try_from(x).unwrap()),
            (layout.y.qubits(), u64::try_from(y).unwrap()),
        ]);
        // Reclamation off: the same passes without drops.
        let no_drops = |passes: PassConfig| {
            let passes = PassConfig {
                reclaim_dead_qubits: false,
                ..passes
            };
            CompiledCircuit::with_config(&layout.circuit, &passes).unwrap()
        };
        let unfused_kept = no_drops(unfused_passes());
        let fused_kept = no_drops(PassConfig::default());
        let variants = [
            (true, [&unfused, &fused]),
            (false, [&unfused_kept, &fused_kept]),
        ];
        for (reclaim, programs) in variants {
            for compiled in programs {
                let mut sv = StateVector::basis(nq, input).unwrap();
                let mut rng_sv = StdRng::seed_from_u64(seed);
                let ex_sv = sv.run_compiled(compiled, &mut rng_sv).unwrap();

                // Identical records, counts and RNG consumption: a
                // modadd only ever measures H-fanned qubits, so the
                // sparse definite-measurement shortcut never fires
                // and the streams stay in lockstep.
                prop_assert_eq!(&ex_sp, &ex_sv, "reclaim={}", reclaim);
                prop_assert_eq!(
                    tail_sp,
                    rng_sv.next_u64(),
                    "reclaim={}: RNG streams diverged",
                    reclaim
                );
                prop_assert_eq!(sv.value(layout.x.qubits()).unwrap(), x);
                prop_assert_eq!(sv.value(layout.y.qubits()).unwrap(), (x + y) % p);

                // Bitwise-identical amplitudes on the full index
                // range (reclamation compacts the dense array, so
                // only the uncompacted variants expose all of it).
                if !reclaim {
                    let amps = sv.amplitudes();
                    let mut dense_occupied = 0usize;
                    for (i, a) in amps.iter().enumerate() {
                        let s = sp.amplitude(i as u128);
                        if a.re == 0.0 && a.im == 0.0 {
                            // Dense zeros may be negatively signed;
                            // the sparse map culls them entirely.
                            prop_assert!(
                                s.re == 0.0 && s.im == 0.0,
                                "spurious sparse amp {}",
                                i
                            );
                        } else {
                            dense_occupied += 1;
                            prop_assert_eq!(
                                a.re.to_bits(),
                                s.re.to_bits(),
                                "re of amp {}",
                                i
                            );
                            prop_assert_eq!(
                                a.im.to_bits(),
                                s.im.to_bits(),
                                "im of amp {}",
                                i
                            );
                        }
                    }
                    prop_assert_eq!(sp.occupied(), dense_occupied);
                }
            }
        }
    }
}

proptest! {
    // The Gidney architectures reset definite qubits, which consumes
    // dense RNG words but (by design) no sparse ones — so the streams
    // part ways and per-outcome comparison is meaningless. What must
    // still hold on every trajectory: both backends compute the paper's
    // modular sum, and MBU leaves the sparse state fully collapsed.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn gidney_architectures_agree_functionally(
        n in 2usize..=3,
        pk in 0u128..1_000_000,
        xk in 0u128..1_000_000,
        yk in 0u128..1_000_000,
        arch in 3u8..5,
        seed in 0u64..u64::MAX,
    ) {
        let pmax = (1u128 << n) - 1;
        let p = 2 + pk % (pmax - 1);
        let x = xk % p;
        let y = yk % p;
        let spec = arch_spec(arch);
        let layout = modular::modadd_circuit(&spec, n, p).unwrap();
        let nq = layout.circuit.num_qubits();
        let compiled = CompiledCircuit::compile(&layout.circuit).unwrap();

        let mut sp = SparseVector::zeros(nq).unwrap();
        sp.set_value(layout.x.qubits(), x).unwrap();
        sp.set_value(layout.y.qubits(), y).unwrap();
        let mut rng_sp = StdRng::seed_from_u64(seed);
        sp.run_compiled(&compiled, &mut rng_sp).unwrap();
        prop_assert_eq!(sp.value(layout.x.qubits()).unwrap(), x);
        prop_assert_eq!(sp.value(layout.y.qubits()).unwrap(), (x + y) % p);
        prop_assert_eq!(sp.occupied(), 1, "arch {}", arch);

        let mut sv = StateVector::zeros(nq).unwrap();
        sv.set_value(layout.x.qubits(), x).unwrap();
        sv.set_value(layout.y.qubits(), y).unwrap();
        let mut rng_sv = StdRng::seed_from_u64(seed);
        sv.run_compiled(&compiled, &mut rng_sv).unwrap();
        prop_assert_eq!(sv.value(layout.x.qubits()).unwrap(), x);
        prop_assert_eq!(sv.value(layout.y.qubits()).unwrap(), (x + y) % p);
    }
}

proptest! {
    // The phase backend's native workload: random Draper wrapping
    // adders, where the QFT interior is pure dyadic bookkeeping. On
    // basis inputs every backend must land on the exact wrapped sum with
    // a single occupied branch; on a superposed control, the phase
    // backend's enumerated amplitudes must agree with the dense engine's
    // to floating-point accuracy (the dyadic accumulators evaluate each
    // total phase in one `cis`, where the sweeping engines multiply
    // rotation by rotation — same state, different rounding paths).
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn draper_adders_agree_across_phase_sparse_and_dense(
        n in 2usize..=4,
        xk in 0u128..16,
        yk in 0u128..16,
        superpose in proptest::bool::ANY,
    ) {
        let (x, y) = (xk % (1 << n), yk % (1 << n));
        let mut b = CircuitBuilder::new();
        let xr = b.qreg("x", n);
        let yr = b.qreg("y", n);
        if superpose {
            b.h(xr[0]);
        }
        draper::wrapping_add(&mut b, xr.qubits(), yr.qubits()).unwrap();
        let circuit = b.finish();
        let nq = circuit.num_qubits();
        let compiled = CompiledCircuit::compile(&circuit).unwrap();

        let mut ph = PhaseAccumulator::zeros(nq).unwrap();
        let mut sp = SparseVector::zeros(nq).unwrap();
        let mut sv = StateVector::zeros(nq).unwrap();
        for sim in [&mut ph as &mut dyn Simulator, &mut sp, &mut sv] {
            sim.set_value(xr.qubits(), x).unwrap();
            sim.set_value(yr.qubits(), y).unwrap();
        }
        for (name, sim) in [
            ("phase", &mut ph as &mut dyn Simulator),
            ("sparse", &mut sp),
            ("dense", &mut sv),
        ] {
            let mut rng = StdRng::seed_from_u64(1);
            sim.run_compiled(&compiled, &mut rng).unwrap();
            if !superpose {
                prop_assert_eq!(
                    sim.value(yr.qubits()).unwrap(),
                    (x + y) % (1 << n),
                    "{}", name
                );
                prop_assert_eq!(sim.value(xr.qubits()).unwrap(), x, "{}", name);
            }
        }
        if !superpose {
            prop_assert_eq!(ph.occupied(), 1);
        }
        // Amplitude-level agreement, superposed or not.
        let ph_amps = phase_to_dense(&ph).unwrap().amplitudes();
        let sv_amps = sv.amplitudes();
        for (i, (a, d)) in ph_amps.iter().zip(&sv_amps).enumerate() {
            prop_assert!(
                (a.re - d.re).abs() < 1e-12 && (a.im - d.im).abs() < 1e-12,
                "amp {}: phase {:?} vs dense {:?}", i, a, d
            );
        }
    }
}

proptest! {
    // The Beauregard MBU modular adder measures mid-circuit (the MBU
    // flag), so trajectories may differ draw by draw — but the paper's
    // functional claim is trajectory-independent: |x⟩|y⟩ → |x⟩|(x+y) mod
    // p⟩ with everything else collapsed, on the phase backend exactly as
    // on the sparse map.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn beauregard_mbu_agrees_functionally_on_phase(
        n in 2usize..=3,
        pk in 0u128..1_000_000,
        xk in 0u128..1_000_000,
        yk in 0u128..1_000_000,
        seed in 0u64..u64::MAX,
    ) {
        let pmax = (1u128 << n) - 1;
        let p = 2 + pk % (pmax - 1);
        let x = xk % p;
        let y = yk % p;
        let layout = modular::beauregard::modadd_circuit(Uncompute::Mbu, n, p).unwrap();
        let nq = layout.circuit.num_qubits();
        let compiled = CompiledCircuit::compile(&layout.circuit).unwrap();

        let mut ph = PhaseAccumulator::zeros(nq).unwrap();
        ph.set_value(layout.x.qubits(), x).unwrap();
        ph.set_value(layout.y.qubits(), y).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        ph.run_compiled(&compiled, &mut rng).unwrap();
        prop_assert_eq!(ph.value(layout.x.qubits()).unwrap(), x);
        prop_assert_eq!(ph.value(layout.y.qubits()).unwrap(), (x + y) % p);
        prop_assert_eq!(ph.occupied(), 1, "MBU leaves a basis state");
    }
}

/// The classical face of an ensemble — peak-memory statistics excluded,
/// because the backends legitimately report different occupancy numbers
/// (dense peak amplitudes vs sparse occupied states).
fn classical_view(e: &Ensemble) -> impl PartialEq + std::fmt::Debug {
    let records: Vec<(Vec<Option<bool>>, u64)> = e
        .record_frequencies()
        .map(|(r, n)| (r.to_vec(), n))
        .collect();
    (e.shots(), e.mean(), e.variance(), records)
}

#[test]
fn shot_ensembles_agree_across_backends_with_shared_seeds() {
    // A 2-stage MBU modadd chain: the sparse and dense shot engines see
    // the same per-shot RNG streams, so their classical aggregates must
    // be bit-identical — outcome frequencies included.
    let spec = ModAddSpec::cdkpm(Uncompute::Mbu);
    let chain = modular::modadd_chain_circuit(&spec, 2, 3, 2).unwrap();
    let nq = chain.circuit.num_qubits();
    let dense_factory = || {
        let mut sv = StateVector::zeros(nq).unwrap();
        sv.set_value(chain.x.qubits(), 2).unwrap();
        sv.set_value(chain.y.qubits(), 1).unwrap();
        Box::new(sv) as Box<dyn Simulator>
    };
    let sparse_factory = || {
        let mut sp = SparseVector::zeros(nq).unwrap();
        sp.set_value(chain.x.qubits(), 2).unwrap();
        sp.set_value(chain.y.qubits(), 1).unwrap();
        Box::new(sp) as Box<dyn Simulator>
    };

    let dense = ShotRunner::new(64)
        .with_master_seed(11)
        .run(&chain.circuit, dense_factory)
        .unwrap();
    let sparse = ShotRunner::new(64)
        .with_master_seed(11)
        .run(&chain.circuit, sparse_factory)
        .unwrap();
    assert_eq!(classical_view(&dense), classical_view(&sparse));
    for clbit in 0..dense.num_clbits() {
        assert_eq!(
            dense.outcome_frequency(clbit),
            sparse.outcome_frequency(clbit),
            "clbit {clbit}"
        );
    }
    // Both report a peak, and the sparse peak is the entangled-support
    // high-water mark — far below the dense array's 2^nq amplitudes.
    assert_eq!(dense.peak_amplitudes(), Some(1u64 << nq));
    let sparse_peak = sparse.peak_amplitudes().expect("sparse reports a peak");
    assert!(
        sparse_peak < 1u64 << nq,
        "sparse peak {sparse_peak} should undercut 2^{nq}"
    );
}

/// The branch tree's exact distribution is RNG-free, so it must coincide
/// across backends down to the last weight bit.
fn freq_map(d: &BranchDistribution) -> BTreeMap<Vec<Option<bool>>, u64> {
    d.record_frequencies()
        .map(|(r, w)| (r.to_vec(), w.to_bits()))
        .collect()
}

#[test]
fn branch_distributions_coincide_across_backends() {
    for arch in 0..5u8 {
        let spec = arch_spec(arch);
        let layout = modular::modadd_circuit(&spec, 2, 3).unwrap();
        let nq = layout.circuit.num_qubits();
        let dense_factory = || {
            let mut sv = StateVector::zeros(nq).unwrap();
            sv.set_value(layout.x.qubits(), 2).unwrap();
            sv.set_value(layout.y.qubits(), 1).unwrap();
            Box::new(sv) as Box<dyn Simulator + Send>
        };
        let sparse_factory = || {
            let mut sp = SparseVector::zeros(nq).unwrap();
            sp.set_value(layout.x.qubits(), 2).unwrap();
            sp.set_value(layout.y.qubits(), 1).unwrap();
            Box::new(sp) as Box<dyn Simulator + Send>
        };

        let runner = BranchEnsemble::new(1);
        let dense = runner.distribution(&layout.circuit, dense_factory).unwrap();
        let sparse = runner
            .distribution(&layout.circuit, sparse_factory)
            .unwrap();
        assert_eq!(freq_map(&dense), freq_map(&sparse), "arch {arch}");
        assert_eq!(dense.num_leaves(), sparse.num_leaves(), "arch {arch}");
        assert_eq!(
            dense.total_weight().to_bits(),
            sparse.total_weight().to_bits(),
            "arch {arch}"
        );
        assert_eq!(dense.mean_counts(), sparse.mean_counts(), "arch {arch}");
        for clbit in 0..dense.num_clbits() {
            assert_eq!(
                dense.outcome_frequency(clbit).map(f64::to_bits),
                sparse.outcome_frequency(clbit).map(f64::to_bits),
                "arch {arch} clbit {clbit}"
            );
        }
    }
}

#[test]
fn definite_measurements_prune_fork_nodes_but_not_outcomes() {
    // X(q0); measure q0 — a definite outcome. Dense forks with a
    // certain split whose dead side is pruned; sparse answers
    // `Fork::Definite` and never forks. Same leaves, fewer nodes.
    let mut b = CircuitBuilder::new();
    let q = b.qreg("q", 2);
    b.x(q[0]);
    b.measure(q[0], Basis::Z);
    b.h(q[1]);
    b.measure(q[1], Basis::Z);
    let circuit = b.finish();

    let runner = BranchEnsemble::new(1);
    let dense = runner
        .distribution(&circuit, || {
            Box::new(StateVector::zeros(2).unwrap()) as Box<dyn Simulator + Send>
        })
        .unwrap();
    let sparse = runner
        .distribution(&circuit, || {
            Box::new(SparseVector::zeros(2).unwrap()) as Box<dyn Simulator + Send>
        })
        .unwrap();
    assert_eq!(freq_map(&dense), freq_map(&sparse));
    assert_eq!(dense.num_leaves(), 2);
    assert_eq!(sparse.num_leaves(), 2);
    assert!(
        sparse.fork_nodes() < dense.fork_nodes(),
        "sparse should skip the certain fork: {} vs {}",
        sparse.fork_nodes(),
        dense.fork_nodes()
    );
}

#[test]
fn branch_sampled_mode_matches_the_shot_runner_on_sparse() {
    // BranchEnsemble's sampled mode promises bit-identical classical
    // aggregates to per-shot execution with the same seed; that contract
    // must hold on the sparse backend too, forks and all. The reference
    // is the per-shot engine (a node budget of 1); the ShotRunner, which
    // runs per shot on a backend that cannot rejoin, must agree as well.
    let spec = ModAddSpec::gidney(Uncompute::Mbu);
    let layout = modular::modadd_circuit(&spec, 2, 3).unwrap();
    let nq = layout.circuit.num_qubits();
    let factory = || {
        let mut sp = SparseVector::zeros(nq).unwrap();
        sp.set_value(layout.x.qubits(), 1).unwrap();
        sp.set_value(layout.y.qubits(), 2).unwrap();
        Box::new(sp) as Box<dyn Simulator + Send>
    };

    let branch = BranchEnsemble::new(96)
        .with_master_seed(5)
        .run(&layout.circuit, factory)
        .unwrap();
    let per_shot = BranchEnsemble::new(96)
        .with_master_seed(5)
        .with_node_budget(1)
        .run(&layout.circuit, factory)
        .unwrap();
    let runner = ShotRunner::new(96)
        .with_master_seed(5)
        .run(&layout.circuit, || factory() as Box<dyn Simulator>)
        .unwrap();
    assert_eq!(runner, per_shot);
    assert_eq!(classical_view(&branch), classical_view(&per_shot));
    for clbit in 0..branch.num_clbits() {
        assert_eq!(
            branch.outcome_frequency(clbit),
            per_shot.outcome_frequency(clbit),
            "clbit {clbit}"
        );
    }
    // Shared-trajectory execution reports peaks too, via each leaf's
    // occupancy high-water mark — the same census the per-shot engine
    // takes on the sparse map.
    assert!(branch.peak_amplitudes().is_some());
    assert!(per_shot.peak_amplitudes().is_some());
}

/// An `StdRng` wrapper that counts how many words the simulator draws.
struct CountingRng {
    inner: StdRng,
    words: u64,
}

impl CountingRng {
    fn seeded(seed: u64) -> Self {
        Self {
            inner: StdRng::seed_from_u64(seed),
            words: 0,
        }
    }
}

impl RngCore for CountingRng {
    fn next_u32(&mut self) -> u32 {
        self.words += 1;
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.words += 1;
        self.inner.next_u64()
    }
}

#[test]
fn definite_measurements_consume_no_rng_on_sparse_or_tracker() {
    // Regression for the definite-measurement RNG leak: measuring a
    // qubit whose outcome is certain must not advance the stream on the
    // sparse backend (mirroring `Fork::Definite`), exactly as the basis
    // tracker behaves — while the dense engine draws for every measure.
    // One circuit, one definite measure, one genuine coin flip.
    let mut b = CircuitBuilder::new();
    let q = b.qreg("q", 2);
    b.x(q[0]);
    b.measure(q[0], Basis::Z); // definite: |1⟩
    b.h(q[1]);
    b.measure(q[1], Basis::Z); // p = 1/2
    let circuit = b.finish();
    let compiled = CompiledCircuit::compile(&circuit).unwrap();

    let mut sp = SparseVector::zeros(2).unwrap();
    let mut rng_sp = CountingRng::seeded(3);
    let ex_sp = sp.run_compiled(&compiled, &mut rng_sp).unwrap();

    let mut tracker = BasisTracker::zeros(2);
    let mut rng_tr = CountingRng::seeded(3);
    let ex_tr = tracker.run_compiled(&compiled, &mut rng_tr).unwrap();

    let mut sv = StateVector::zeros(2).unwrap();
    let mut rng_sv = CountingRng::seeded(3);
    let ex_sv = sv.run_compiled(&compiled, &mut rng_sv).unwrap();

    assert_eq!(rng_sp.words, 1, "sparse: only the coin flip draws");
    assert_eq!(rng_tr.words, 1, "tracker: only the coin flip draws");
    assert_eq!(rng_sv.words, 2, "dense: every measure draws");
    // Same words drawn at the same stream position: identical records
    // and identical post-run positions for the two frugal backends.
    assert_eq!(ex_sp, ex_tr);
    assert_eq!(rng_sp.inner.next_u64(), rng_tr.inner.next_u64());
    // And the definite outcome itself never wavers.
    assert!(ex_sp.outcome(0).unwrap());
    assert!(ex_sv.outcome(0).unwrap());
}

/// Dense and sparse agree bit for bit — records, RNG position and every
/// amplitude — through a mid-circuit MBU measurement on superposed
/// inputs, where the outcome-dependent correction acts on a multi-branch
/// state (the modadds above run on basis inputs). The circuit is
/// reset-free and its measurement genuinely random (H-preceded,
/// `p₁ = ½`), so the two engines' RNG streams stay in lockstep.
#[test]
fn superposed_mbu_and_matches_dense_bit_for_bit() {
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
    // Without drops, so the dense engine keeps the full index range.
    let passes = PassConfig {
        reclaim_dead_qubits: false,
        ..PassConfig::default()
    };
    let compiled = CompiledCircuit::with_config(&b.finish(), &passes).unwrap();

    for seed in 0..32u64 {
        let mut dense = StateVector::zeros(3).unwrap();
        let mut sparse = SparseVector::zeros(3).unwrap();
        let mut rng_d = StdRng::seed_from_u64(seed);
        let mut rng_s = StdRng::seed_from_u64(seed);
        let ex_d = dense.run_compiled(&compiled, &mut rng_d).unwrap();
        let ex_s = sparse.run_compiled(&compiled, &mut rng_s).unwrap();
        assert_eq!(ex_d, ex_s, "seed {seed}");
        assert_eq!(
            rng_d.next_u64(),
            rng_s.next_u64(),
            "seed {seed}: RNG position"
        );
        for (i, a) in dense.amplitudes().iter().enumerate() {
            let s = sparse.amplitude(i as u128);
            if a.re == 0.0 && a.im == 0.0 {
                // Dense zeros may be negatively signed; the sparse map
                // culls them entirely.
                assert!(s.re == 0.0 && s.im == 0.0, "seed {seed}: amp {i}");
            } else {
                assert_eq!(a.re.to_bits(), s.re.to_bits(), "seed {seed}: re {i}");
                assert_eq!(a.im.to_bits(), s.im.to_bits(), "seed {seed}: im {i}");
            }
        }
    }
}

#[test]
fn every_backend_kind_computes_the_modular_sum() {
    // Whichever backend a factory builds — dense, sparse, phase or
    // tracker — it runs the same MBU modadd to the same answer.
    let spec = ModAddSpec::cdkpm(Uncompute::Mbu);
    let (n, p, x, y) = (3usize, 5u128, 4u128, 3u128);
    let layout = modular::modadd_circuit(&spec, n, p).unwrap();
    let compiled = CompiledCircuit::compile(&layout.circuit).unwrap();

    for kind in [
        BackendKind::Dense,
        BackendKind::Sparse,
        BackendKind::Phase,
        BackendKind::Tracker,
    ] {
        let mut sim = kind.build(layout.circuit.num_qubits()).unwrap();
        sim.set_value(layout.x.qubits(), x).unwrap();
        sim.set_value(layout.y.qubits(), y).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        sim.run_compiled(&compiled, &mut rng).unwrap();
        assert_eq!(sim.value(layout.x.qubits()).unwrap(), x, "{kind}");
        assert_eq!(sim.value(layout.y.qubits()).unwrap(), (x + y) % p, "{kind}");
    }
}
