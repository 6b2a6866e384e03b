//! Integration tests for the [`ShotRunner`] ensemble engine on the paper's
//! real circuits: determinism, parallel-equals-serial, backend
//! polymorphism through the [`Simulator`] trait, and agreement of ensemble
//! means with the analytic "in expectation" accounting.

use mbu_arith::modular::{self, ModAddSpec};
use mbu_arith::Uncompute;
use mbu_circuit::CompiledCircuit;
use mbu_sim::{BasisTracker, Executed, ShotRunner, Simulator, SparseVector, StateVector};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn mbu_modadd() -> (modular::ModAdd, u128, u128, u128) {
    let n = 6usize;
    let p = 61u128;
    let layout = modular::modadd_circuit(&ModAddSpec::cdkpm(Uncompute::Mbu), n, p).unwrap();
    (layout, p, 37, 52)
}

fn tracker_factory(
    layout: &modular::ModAdd,
    x: u128,
    y: u128,
) -> impl Fn() -> Box<dyn Simulator> + Sync + '_ {
    move || {
        let mut sim = BasisTracker::zeros(layout.circuit.num_qubits());
        sim.set_value(layout.x.qubits(), x).unwrap();
        sim.set_value(layout.y.qubits(), y).unwrap();
        Box::new(sim)
    }
}

#[test]
fn same_master_seed_reproduces_the_exact_aggregate() {
    let (layout, _p, x, y) = mbu_modadd();
    let run = |seed: u64| {
        ShotRunner::new(400)
            .with_master_seed(seed)
            .run(&layout.circuit, tracker_factory(&layout, x, y))
            .unwrap()
    };
    let a = run(2025);
    let b = run(2025);
    assert_eq!(a, b, "identical master seeds must agree bit-for-bit");

    let c = run(2026);
    let flag = a.last_clbit().unwrap();
    assert_ne!(
        (a.outcome_ones(flag), a.mean().toffoli),
        (c.outcome_ones(flag), c.mean().toffoli),
        "different master seeds should draw different outcome sequences"
    );
}

#[test]
fn parallel_and_serial_ensembles_are_bit_identical() {
    // The sparse map cannot rejoin branches, so its ensemble runs every
    // shot on its own state; the tracker's is a replay over the outcome
    // DAG. Both split their shots over the workers, probes included.
    let (layout, _p, x, y) = mbu_modadd();
    let sparse = || -> Box<dyn Simulator> {
        let mut sim = SparseVector::zeros(layout.circuit.num_qubits()).unwrap();
        sim.set_value(layout.x.qubits(), x).unwrap();
        sim.set_value(layout.y.qubits(), y).unwrap();
        Box::new(sim)
    };
    let tracker = tracker_factory(&layout, x, y);
    let probe =
        |sim: &dyn Simulator, ex: &Executed| (sim.value(layout.y.qubits()).unwrap(), ex.clone());
    for (name, factory) in [
        (
            "sparse",
            &sparse as &(dyn Fn() -> Box<dyn Simulator> + Sync),
        ),
        ("tracker", &tracker),
    ] {
        let (serial, serial_probes) = ShotRunner::new(1000)
            .with_threads(1)
            .run_probed(&layout.circuit, factory, probe)
            .unwrap();
        for threads in [2, 4, 8] {
            let (parallel, parallel_probes) = ShotRunner::new(1000)
                .with_threads(threads)
                .run_probed(&layout.circuit, factory, probe)
                .unwrap();
            assert_eq!(serial, parallel, "{name}, threads = {threads}");
            assert_eq!(
                serial_probes, parallel_probes,
                "{name}, threads = {threads}"
            );
        }
    }
}

#[test]
fn ensemble_mean_matches_analytic_expectation() {
    let (layout, _p, x, y) = mbu_modadd();
    let analytic = layout.circuit.expected_counts();
    let ensemble = ShotRunner::new(800)
        .run(&layout.circuit, tracker_factory(&layout, x, y))
        .unwrap();
    let mean = ensemble.mean();
    for (measured, expected, what) in [
        (mean.toffoli, analytic.toffoli, "toffoli"),
        (mean.cx, analytic.cx, "cx"),
        (mean.x, analytic.x, "x"),
    ] {
        assert!(
            (measured - expected).abs() < expected * 0.1 + 1.0,
            "{what}: measured {measured} vs analytic {expected}"
        );
    }
    // The conditional correction makes the executed Toffoli count
    // genuinely random: nonzero variance is the MBU signature.
    assert!(ensemble.variance().toffoli > 0.0);
}

#[test]
fn per_shot_probes_check_every_result_value() {
    let (layout, p, x, y) = mbu_modadd();
    let (ensemble, sums) = ShotRunner::new(200)
        .run_probed(&layout.circuit, tracker_factory(&layout, x, y), |sim, _| {
            sim.value(layout.y.qubits()).unwrap()
        })
        .unwrap();
    assert_eq!(sums.len(), 200);
    assert!(
        sums.iter().all(|&s| s == (x + y) % p),
        "every shot must compute (x + y) mod p"
    );
    assert_eq!(ensemble.shots(), 200);
}

#[test]
fn shared_probes_match_a_per_shot_loop_in_shot_order() {
    // A Gidney row on the tracker takes the shared path: its probes come
    // from leaf states of the outcome DAG, one per distinct path. They
    // must equal what a hand-rolled loop of whole per-shot runs observes,
    // shot by shot.
    let (n, p) = (16usize, 65_521u128);
    let layout = modular::modadd_circuit(&ModAddSpec::gidney(Uncompute::Mbu), n, p).unwrap();
    let (x, y) = (12_345u128, 54_321u128);
    let compiled = CompiledCircuit::lower(&layout.circuit).unwrap();
    let shots = 512u64;
    let factory = tracker_factory(&layout, x, y);
    let probe = |sim: &dyn Simulator, ex: &Executed| {
        (
            sim.value(layout.y.qubits()).unwrap(),
            sim.global_phase(),
            ex.clone(),
        )
    };
    let runner = ShotRunner::new(shots).with_master_seed(99);
    let (ensemble, observed) = runner.run_probed(&layout.circuit, &factory, probe).unwrap();
    let expected: Vec<_> = (0..shots)
        .map(|shot| {
            let mut sim = factory();
            let mut rng = StdRng::seed_from_u64(runner.seed_for_shot(shot));
            let executed = sim.run_compiled(&compiled, &mut rng).unwrap();
            probe(sim.as_ref(), &executed)
        })
        .collect();
    assert_eq!(observed, expected);
    assert!(observed.iter().all(|(sum, _, _)| *sum == (x + y) % p));
    assert!(ensemble.distinct_records() > 1, "the ANDs draw");
}

#[test]
fn state_vector_backend_runs_the_same_ensemble_through_the_trait() {
    // A small instance, so the exact backend fits: the whole point of the
    // Simulator seam is that only the factory changes.
    let n = 3usize;
    let p = 5u128;
    let layout = modular::modadd_circuit(&ModAddSpec::cdkpm(Uncompute::Mbu), n, p).unwrap();
    let (x, y) = (3u128, 4u128);

    let on_tracker = ShotRunner::new(300)
        .run(&layout.circuit, tracker_factory(&layout, x, y))
        .unwrap();
    let on_statevector = ShotRunner::new(300)
        .run(&layout.circuit, || {
            let mut sim = StateVector::zeros(layout.circuit.num_qubits()).unwrap();
            sim.set_value(layout.x.qubits(), x).unwrap();
            sim.set_value(layout.y.qubits(), y).unwrap();
            Box::new(sim)
        })
        .unwrap();

    // Deterministic counts agree exactly; outcome-dependent ones agree
    // statistically (the backends draw from independent probability
    // computations, exact vs symbolic).
    assert_eq!(on_tracker.shots(), on_statevector.shots());
    let flag = on_tracker.last_clbit().unwrap();
    assert_eq!(flag, on_statevector.last_clbit().unwrap());
    let f_tracker = on_tracker.outcome_frequency(flag).unwrap();
    let f_sv = on_statevector.outcome_frequency(flag).unwrap();
    assert!(
        (f_tracker - 0.5).abs() < 0.15 && (f_sv - 0.5).abs() < 0.15,
        "Lemma 4.1 fair coin on both backends: {f_tracker} vs {f_sv}"
    );
    assert!(
        (on_tracker.mean().toffoli - on_statevector.mean().toffoli).abs()
            < on_tracker.mean().toffoli * 0.1 + 1.0,
        "mean executed Toffolis agree across backends"
    );
}
