//! Branch-tree execution vs per-shot Monte Carlo.
//!
//! Two contracts hold the branch engine to the shot engine:
//!
//! * **statistical** — the exact distribution's frequencies are what the
//!   Monte-Carlo frequencies converge to: on random MBU modular adders,
//!   every outcome/record frequency of [`BranchEnsemble::distribution`]
//!   agrees with a seeded [`ShotRunner`] ensemble within a Chernoff-style
//!   tolerance;
//! * **bit-level** — the sampled mode is not merely statistically right:
//!   with the same master seed it reproduces per-shot execution's
//!   classical aggregates **bit for bit** (records, outcome counts,
//!   executed-count means and variances), across reclamation on/off,
//!   fusion on/off and the default vs the zero
//!   pruning floor — the replayed per-shot RNG streams draw against the
//!   very probabilities the sampling path computes.
//!
//! The [`ShotRunner`] itself replays shots over the DAG wherever the
//! backend rejoins, so the per-shot reference here is a
//! [`BranchEnsemble`] with a node budget of 1: every circuit below forks,
//! so that budget sends every shot through the per-shot engine.

use mbu_arith::{
    modular::{self, ModAddSpec},
    Uncompute,
};
use mbu_circuit::PassConfig;
use mbu_sim::{
    BasisTracker, BranchEnsemble, Ensemble, ShotRunner, Simulator, SparseVector, StateVector,
};
use proptest::prelude::*;

fn arch_spec(arch: u8, unc: Uncompute) -> ModAddSpec {
    match arch % 3 {
        0 => ModAddSpec::cdkpm(unc),
        1 => ModAddSpec::gidney(unc),
        _ => ModAddSpec::gidney_cdkpm(unc),
    }
}

/// Architectures whose MBU variants fork only a handful of times (the
/// flag measurement plus the comparator flags): the regime where the
/// exact mode's outcome tree stays tiny. Gidney-style adders measure one
/// ancilla per AND, so their trees outgrow the node budget even where
/// their DAGs rejoin; the sampled bit-identity test covers them instead.
fn few_fork_spec(arch: u8, unc: Uncompute) -> ModAddSpec {
    match arch % 3 {
        0 => ModAddSpec::cdkpm(unc),
        1 => ModAddSpec::vbe5(unc),
        _ => ModAddSpec::vbe4(unc),
    }
}

/// A backend's state factory, as the branch engine takes it.
type Factory<'a> = dyn Fn() -> Box<dyn Simulator + Send> + Sync + 'a;

fn unfused_passes() -> PassConfig {
    PassConfig {
        fuse_max_qubits: 0,
        ..PassConfig::default()
    }
}

/// The classical face of an ensemble, peak-memory stats excluded: a
/// trajectory never compacts, so on a program with drops "per-shot peak
/// amplitudes" is the one statistic the DAG does not reproduce.
fn classical_view(e: &Ensemble) -> impl PartialEq + std::fmt::Debug {
    let records: Vec<(Vec<Option<bool>>, u64)> = e
        .record_frequencies()
        .map(|(r, n)| (r.to_vec(), n))
        .collect();
    (e.shots(), e.mean(), e.variance(), records)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Chernoff-style agreement: the exact branch-tree distribution is the
    /// limit the Monte-Carlo frequencies fluctuate around. With N shots a
    /// frequency deviates from its true value by more than
    /// 5·√(1/4N) with probability < 2·e^{-12.5} per bit — negligible over
    /// these case counts, so the bound is a hard assertion.
    #[test]
    fn exact_distribution_matches_monte_carlo_frequencies(
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
        let spec = few_fork_spec(arch, Uncompute::Mbu);
        let layout = modular::modadd_circuit(&spec, n, p).unwrap();
        let nq = layout.circuit.num_qubits();
        let input = StateVector::index_with(&[
            (layout.x.qubits(), u64::try_from(x).unwrap()),
            (layout.y.qubits(), u64::try_from(y).unwrap()),
        ]);

        let factory_send = || {
            Box::new(StateVector::basis(nq, input).unwrap()) as Box<dyn Simulator + Send>
        };
        let dist = BranchEnsemble::new(0)
            .with_passes(PassConfig::default())
            .distribution(&layout.circuit, factory_send)
            .unwrap();
        prop_assert!(dist.pruned_mass() < 1e-9, "only rounding residues prune");
        prop_assert!((dist.total_weight() - 1.0).abs() < 1e-9);

        // The sampled side runs on the sparse map: this test holds the
        // exact tree to per-shot sampling, not one backend to another, and
        // a shot on the map costs a fraction of a dense one in a debug
        // build.
        const SHOTS: u64 = 400;
        let mc = ShotRunner::new(SHOTS)
            .with_master_seed(seed)
            .with_passes(PassConfig::default())
            .run(&layout.circuit, || {
                let mut sim = SparseVector::zeros(nq).unwrap();
                sim.set_value(layout.x.qubits(), x).unwrap();
                sim.set_value(layout.y.qubits(), y).unwrap();
                Box::new(sim)
            })
            .unwrap();
        let tol = 5.0 * (0.25 / SHOTS as f64).sqrt();
        for clbit in 0..mc.num_clbits() {
            match (dist.outcome_frequency(clbit), mc.outcome_frequency(clbit)) {
                (None, None) => {}
                (Some(exact), Some(sampled)) => prop_assert!(
                    (exact - sampled).abs() <= tol,
                    "clbit {clbit}: exact {exact} vs sampled {sampled} (tol {tol})"
                ),
                (e, s) => prop_assert!(false, "clbit {clbit} written in one engine only: {e:?} vs {s:?}"),
            }
        }
        // Expected executed Toffolis agree too (the paper's headline stat).
        let exact_tof = dist.mean_counts().toffoli;
        let mc_tof = mc.mean().toffoli;
        let worst_case = layout.circuit.counts().toffoli as f64;
        prop_assert!(
            (exact_tof - mc_tof).abs() <= tol * worst_case.max(1.0),
            "E[Toffoli]: exact {exact_tof} vs sampled {mc_tof}"
        );
    }

    /// Bit-compatibility: DAG sampling replays per-shot execution's
    /// aggregates exactly, for every engine configuration — reclamation ×
    /// fusion — several master seeds, DAGs pruned at the default floor or
    /// fully expanded (`eps = 0`: every possible branch materialised), on
    /// the state vector (whose DAG is the outcome tree) and on the basis
    /// tracker (whose DAG rejoins).
    #[test]
    fn sampled_branch_trees_are_bit_identical_to_per_shot_runs(
        n in 2usize..=3,
        pk in 0u128..1_000_000,
        xk in 0u128..1_000_000,
        yk in 0u128..1_000_000,
        arch in 0u8..3,
        seed in 0u64..u64::MAX,
        full_expansion in proptest::bool::ANY,
    ) {
        let pmax = (1u128 << n) - 1;
        let p = 2 + pk % (pmax - 1);
        let x = xk % p;
        let y = yk % p;
        let spec = arch_spec(arch, Uncompute::Mbu);
        let layout = modular::modadd_circuit(&spec, n, p).unwrap();
        let nq = layout.circuit.num_qubits();
        let input = StateVector::index_with(&[
            (layout.x.qubits(), u64::try_from(x).unwrap()),
            (layout.y.qubits(), u64::try_from(y).unwrap()),
        ]);

        let eps = if full_expansion { 0.0 } else { BranchEnsemble::new(0).eps() };
        let dense = || {
            Box::new(StateVector::basis(nq, input).unwrap()) as Box<dyn Simulator + Send>
        };
        let tracker = || {
            let mut sim = BasisTracker::zeros(nq);
            sim.set_value(layout.x.qubits(), x).unwrap();
            sim.set_value(layout.y.qubits(), y).unwrap();
            Box::new(sim) as Box<dyn Simulator + Send>
        };
        let backends: [(&str, &Factory<'_>); 2] = [("dense", &dense), ("tracker", &tracker)];
        for (backend, factory) in backends {
            for reclaim in [true, false] {
                for passes in [unfused_passes(), PassConfig::default()] {
                    // Reclamation off: the same passes without drops. A
                    // node budget of 256 holds the Gidney-style tracker
                    // DAGs (one diamond per AND) but not the dense trees,
                    // which run per shot like the reference.
                    let passes = PassConfig {
                        reclaim_dead_qubits: reclaim,
                        ..passes
                    };
                    let runner = BranchEnsemble::new(64)
                        .with_master_seed(seed)
                        .with_passes(passes)
                        .with_eps(eps);
                    let branch = runner
                        .with_node_budget(256)
                        .run(&layout.circuit, factory)
                        .unwrap();
                    let per_shot = runner
                        .with_node_budget(1)
                        .run(&layout.circuit, factory)
                        .unwrap();
                    prop_assert_eq!(
                        classical_view(&branch),
                        classical_view(&per_shot),
                        "{} reclaim={} fuse={} eps={}",
                        backend,
                        reclaim,
                        passes.fuse_max_qubits,
                        eps
                    );
                }
            }
        }
    }
}

#[test]
fn full_expansion_matches_the_default_floor_on_mbu_adders() {
    // A zero pruning floor only keeps additional measure-zero branches: on
    // MBU modadds the surviving frequencies are identical to the default
    // floor's, and the fully expanded tree carries no pruned mass.
    let spec = ModAddSpec::cdkpm(Uncompute::Mbu);
    let layout = modular::modadd_circuit(&spec, 2, 3).unwrap();
    let nq = layout.circuit.num_qubits();
    let factory = || Box::new(StateVector::basis(nq, 0).unwrap()) as Box<dyn Simulator + Send>;
    let default_floor = BranchEnsemble::new(0)
        .distribution(&layout.circuit, factory)
        .unwrap();
    let full = BranchEnsemble::new(0)
        .with_eps(0.0)
        .distribution(&layout.circuit, factory)
        .unwrap();
    assert_eq!(full.pruned_mass(), 0.0, "nothing possible is pruned");
    assert!(full.num_leaves() >= default_floor.num_leaves());
    for clbit in 0..default_floor.num_clbits() {
        let d = default_floor.outcome_frequency(clbit);
        let f = full.outcome_frequency(clbit);
        match (d, f) {
            (None, None) => {}
            (Some(d), Some(f)) => assert!((d - f).abs() < 1e-9, "clbit {clbit}: {d} vs {f}"),
            other => panic!("clbit {clbit} diverged: {other:?}"),
        }
    }
}

#[test]
fn tracker_chains_run_exact_tables_at_full_width() {
    // The basis tracker forks in O(1) per qubit, so exact Table-1
    // distributions work at n = 16 (52+ qubits) where a state vector
    // cannot even allocate — and the exact expected Toffoli count equals
    // the analytic `expected_counts` the golden tests pin.
    let spec = ModAddSpec::cdkpm(Uncompute::Mbu);
    let layout = modular::modadd_circuit(&spec, 16, 65521).unwrap();
    let nq = layout.circuit.num_qubits();
    let x = layout.x.qubits().to_vec();
    let y = layout.y.qubits().to_vec();
    let dist = BranchEnsemble::new(0)
        .distribution(&layout.circuit, move || {
            let mut sim = BasisTracker::zeros(nq);
            sim.set_value(&x, 7).unwrap();
            sim.set_value(&y, 9).unwrap();
            Box::new(sim) as Box<dyn Simulator + Send>
        })
        .unwrap();
    assert!(dist.num_leaves() >= 2, "the MBU flag forks");
    assert_eq!(dist.pruned_mass(), 0.0);
    let expected = layout.circuit.expected_counts();
    let exact = dist.mean_counts();
    assert!(
        (exact.toffoli - expected.toffoli).abs() < 1e-9,
        "exact E[Toffoli] {} vs analytic {}",
        exact.toffoli,
        expected.toffoli
    );
    assert!(
        (exact.cx - expected.cx).abs() < 1e-9,
        "exact E[CNOT] {} vs analytic {}",
        exact.cx,
        expected.cx
    );
}

#[test]
fn sampled_tracker_chains_match_shot_runner_bitwise() {
    // Two-stage chain on the tracker: the sampled DAG, the ShotRunner
    // (which shares the same DAG) and per-shot execution must agree
    // classically, bit for bit.
    let spec = ModAddSpec::cdkpm(Uncompute::Mbu);
    let chain = modular::modadd_chain_circuit(&spec, 4, 13, 2).unwrap();
    let nq = chain.circuit.num_qubits();
    let x = chain.x.qubits().to_vec();
    let y = chain.y.qubits().to_vec();
    let factory = {
        let (x, y) = (x.clone(), y.clone());
        move || {
            let mut sim = BasisTracker::zeros(nq);
            sim.set_value(&x, 7).unwrap();
            sim.set_value(&y, 11).unwrap();
            Box::new(sim) as Box<dyn Simulator + Send>
        }
    };
    for seed in [1u64, 42, 0xDEAD] {
        let branch = BranchEnsemble::new(300)
            .with_master_seed(seed)
            .run(&chain.circuit, &factory)
            .unwrap();
        let per_shot = BranchEnsemble::new(300)
            .with_master_seed(seed)
            .with_node_budget(1)
            .run(&chain.circuit, &factory)
            .unwrap();
        let runner = ShotRunner::new(300)
            .with_master_seed(seed)
            .run(&chain.circuit, || {
                let mut sim = BasisTracker::zeros(nq);
                sim.set_value(&x, 7).unwrap();
                sim.set_value(&y, 11).unwrap();
                Box::new(sim)
            })
            .unwrap();
        assert_eq!(
            classical_view(&branch),
            classical_view(&per_shot),
            "seed {seed}"
        );
        assert_eq!(runner, per_shot, "seed {seed}: peaks included");
        // Peak occupancy survives trajectory sharing: each leaf carries
        // its own occupancy high-water (an MBU garbage qubit is in |±⟩
        // at the mark), so the DAG reports the same census the per-shot
        // engine takes.
        assert_eq!(branch.peak_amplitudes(), Some(2), "seed {seed}");
        assert_eq!(per_shot.peak_amplitudes(), Some(2), "seed {seed}");
    }
}
