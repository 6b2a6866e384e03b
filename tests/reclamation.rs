//! Observational invisibility of measurement-driven qubit reclamation.
//!
//! The compiled engine executes `Drop` instructions by compacting the
//! state-vector amplitude array — but nothing outside the run is allowed
//! to notice: for random MBU modular adders, the default compile (with
//! drops) and the same circuit compiled without them
//! (`reclaim_dead_qubits: false`) must produce identical classical
//! records, executed counts, final register values and (up to the
//! discarded `≤1e-20`-mass rounding residues) identical amplitudes, and
//! the static `counts_golden`-style resource pins of the compiled program
//! must not move at all.
//!
//! The chained-modadd test is the acceptance benchmark's twin: two
//! sequential MBU modular additions on fresh per-stage ancillas must run
//! at **at most half** the peak amplitudes with drops, while the
//! shot-ensemble classical aggregates stay bit-identical between the two
//! compiles.

use mbu_arith::{
    modular::{self, ModAddSpec},
    Uncompute,
};
use mbu_circuit::{CompiledCircuit, PassConfig};
use mbu_sim::{Ensemble, ShotRunner, Simulator, StateVector};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arch_spec(arch: u8, unc: Uncompute) -> ModAddSpec {
    match arch % 3 {
        0 => ModAddSpec::cdkpm(unc),
        1 => ModAddSpec::gidney(unc),
        _ => ModAddSpec::gidney_cdkpm(unc),
    }
}

/// The classical face of an ensemble, for equality checks that must not
/// depend on the peak-memory stat (which reclamation is *supposed* to
/// change).
fn classical_view(e: &Ensemble) -> impl PartialEq + std::fmt::Debug {
    let records: Vec<(Vec<Option<bool>>, u64)> = e
        .record_frequencies()
        .map(|(r, n)| (r.to_vec(), n))
        .collect();
    (e.shots(), e.mean(), e.variance(), records)
}

/// The default passes without the reclamation pass: no `Drop`s, so the
/// state vector runs on the full `2^n` array.
fn no_reclaim() -> PassConfig {
    PassConfig {
        reclaim_dead_qubits: false,
        ..PassConfig::default()
    }
}

proptest! {
    // Each case simulates an up-to-18-qubit modadd twice.
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn reclamation_is_invisible_for_random_mbu_modadds(
        n in 2usize..=4,
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
        let spec = arch_spec(arch, Uncompute::Mbu);
        let layout = modular::modadd_circuit(&spec, n, p).unwrap();
        let nq = layout.circuit.num_qubits();
        let input = StateVector::index_with(&[
            (layout.x.qubits(), u64::try_from(x).unwrap()),
            (layout.y.qubits(), u64::try_from(y).unwrap()),
        ]);

        let compiled = CompiledCircuit::compile(&layout.circuit).unwrap();
        prop_assert!(compiled.reclaims_qubits(), "MBU modadds always measure garbage");
        let without = CompiledCircuit::with_config(&layout.circuit, &no_reclaim()).unwrap();

        let mut sv_on = StateVector::basis(nq, input).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let ex_on = sv_on.run_compiled(&compiled, &mut rng).unwrap();

        let mut sv_off = StateVector::basis(nq, input).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let ex_off = sv_off.run_compiled(&without, &mut rng).unwrap();

        // Identical measurement records, outcomes and executed counts.
        prop_assert_eq!(&ex_on, &ex_off);
        // Identical state, up to the exactly-zero / residue mass a drop
        // discards.
        let amps_on = sv_on.amplitudes();
        let amps_off = sv_off.amplitudes();
        for (i, (a, b)) in amps_on.iter().zip(&amps_off).enumerate() {
            prop_assert!((*a - *b).norm() < 1e-9, "amp {}: {} vs {}", i, a, b);
        }
        // Both compute the paper's modular sum.
        prop_assert_eq!(sv_on.value(layout.x.qubits()).unwrap(), x);
        prop_assert_eq!(sv_on.value(layout.y.qubits()).unwrap(), (x + y) % p);
        // Reclamation never *raises* the working set.
        prop_assert!(
            sv_on.peak_amplitudes().unwrap() <= sv_off.peak_amplitudes().unwrap()
        );

        // The static resource pins are untouched by the reclamation pass:
        // drops are not gates, and no gate moves.
        prop_assert_eq!(compiled.counts(), without.counts());
        prop_assert_eq!(
            compiled.instrs().len(),
            without.instrs().len() + compiled.stats().dead_qubits_reclaimed as usize
        );
    }
}

#[test]
fn chained_mbu_modadd_halves_peak_with_bit_identical_aggregates() {
    // Two sequential MBU modular additions, fresh garbage per stage: the
    // acceptance shape. Stage 1's measured ancillas drop before stage 2's
    // materialise, so the reclaiming engine never holds the full width.
    let spec = ModAddSpec::cdkpm(Uncompute::Mbu);
    let chain = modular::modadd_chain_circuit(&spec, 2, 3, 2).unwrap();
    let nq = chain.circuit.num_qubits();
    let runner = ShotRunner::new(64).with_passes(PassConfig::default());
    let factory = || {
        let mut sv = StateVector::zeros(nq).unwrap();
        sv.set_value(chain.x.qubits(), 2).unwrap();
        sv.set_value(chain.y.qubits(), 1).unwrap();
        Box::new(sv) as Box<dyn Simulator>
    };

    let on = runner.run(&chain.circuit, factory).unwrap();
    let off = runner
        .with_passes(no_reclaim())
        .run(&chain.circuit, factory)
        .unwrap();

    let peak_on = on.peak_amplitudes().expect("state vector reports peaks");
    let peak_off = off.peak_amplitudes().expect("state vector reports peaks");
    assert_eq!(
        peak_off,
        1 << nq,
        "without reclamation the full array is live"
    );
    assert!(
        peak_on * 2 <= peak_off,
        "reclamation must at least halve the peak: {peak_on} vs {peak_off}"
    );

    // Bit-identical classical aggregates between the two configurations.
    assert_eq!(classical_view(&on), classical_view(&off));

    // And the chain still computes (2x + y) mod p on every shot: verify on
    // one replayed seed.
    let compiled = CompiledCircuit::compile(&chain.circuit).unwrap();
    let mut sv = StateVector::zeros(nq).unwrap();
    sv.set_value(chain.x.qubits(), 2).unwrap();
    sv.set_value(chain.y.qubits(), 1).unwrap();
    let mut rng = StdRng::seed_from_u64(runner.seed_for_shot(0));
    sv.run_compiled(&compiled, &mut rng).unwrap();
    assert_eq!(sv.value(chain.y.qubits()).unwrap(), (2 + 2 + 1) % 3);
}

#[test]
fn unitary_uncompute_reclaims_nothing() {
    // The §3/§4 asymmetry: the unitary chain has no measurement, so the
    // compiler emits no drops and the peak stays at full width even under
    // the default passes.
    let spec = ModAddSpec::cdkpm(Uncompute::Unitary);
    let chain = modular::modadd_chain_circuit(&spec, 3, 5, 2).unwrap();
    let compiled = CompiledCircuit::compile(&chain.circuit).unwrap();
    assert!(!compiled.reclaims_qubits());

    let nq = chain.circuit.num_qubits();
    let mut sv = StateVector::zeros(nq).unwrap();
    sv.set_value(chain.x.qubits(), 3).unwrap();
    sv.set_value(chain.y.qubits(), 4).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    sv.run_compiled(&compiled, &mut rng).unwrap();
    assert_eq!(sv.peak_amplitudes(), Some(1 << nq));
    assert_eq!(sv.value(chain.y.qubits()).unwrap(), (3 + 3 + 4) % 5);
}
