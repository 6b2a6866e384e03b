//! Observational invisibility of gate fusion and of the shot engine's
//! thread budget.
//!
//! The gate-fusion pass rewrites the compiled program (runs of adjacent
//! gates become dense `Instr::Fused` blocks) and the shot engine's thread
//! budget rewrites the execution schedule — but neither is allowed to
//! change a single bit of observable behaviour. For random MBU modular
//! adders, the fused engine must reproduce the unfused one **exactly**:
//! bitwise-identical amplitudes, identical classical records and executed
//! counts, identical RNG consumption, and identical ensemble outcome
//! frequencies at any thread budget — with qubit reclamation on and off.

use mbu_arith::{
    modular::{self, ModAddSpec},
    Uncompute,
};
use mbu_circuit::{CompiledCircuit, PassConfig};
use mbu_sim::{Ensemble, ShotRunner, Simulator, StateVector};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

fn arch_spec(arch: u8, unc: Uncompute) -> ModAddSpec {
    match arch % 3 {
        0 => ModAddSpec::cdkpm(unc),
        1 => ModAddSpec::gidney(unc),
        _ => ModAddSpec::gidney_cdkpm(unc),
    }
}

/// Passes with fusion off, everything else at the defaults: the unfused
/// baseline.
fn unfused_passes() -> PassConfig {
    PassConfig {
        fuse_max_qubits: 0,
        ..PassConfig::default()
    }
}

proptest! {
    // Each case simulates an up-to-18-qubit modadd 4 times (reclamation
    // on/off × fused/unfused).
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn fusion_and_amp_parallelism_are_bit_invisible(
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

        let unfused = CompiledCircuit::with_config(&layout.circuit, &unfused_passes()).unwrap();
        let fused = CompiledCircuit::compile(&layout.circuit).unwrap();
        prop_assert!(
            fused.stats().fused_blocks > 0,
            "modadds always contain fusable gate runs: {}",
            fused.stats()
        );
        // Fusion moves gates into blocks but loses none of them.
        prop_assert_eq!(fused.counts(), unfused.counts());

        for reclaim in [true, false] {
            // Reclamation off: the same passes without drops.
            let compile = |passes: PassConfig| {
                let passes = PassConfig {
                    reclaim_dead_qubits: reclaim,
                    ..passes
                };
                CompiledCircuit::with_config(&layout.circuit, &passes).unwrap()
            };
            let unfused = compile(unfused_passes());
            let fused = compile(PassConfig::default());

            // Baseline: unfused program.
            let mut sv_base = StateVector::basis(nq, input).unwrap();
            let mut rng_base = StdRng::seed_from_u64(seed);
            let ex_base = sv_base.run_compiled(&unfused, &mut rng_base).unwrap();

            // Fused program.
            let mut sv_fast = StateVector::basis(nq, input).unwrap();
            let mut rng_fast = StdRng::seed_from_u64(seed);
            let ex_fast = sv_fast.run_compiled(&fused, &mut rng_fast).unwrap();

            // Identical executed counts and classical records.
            prop_assert_eq!(&ex_base, &ex_fast, "reclaim={}", reclaim);
            // Identical RNG consumption: the generators are at the
            // same stream position after the run.
            prop_assert_eq!(
                rng_base.next_u64(),
                rng_fast.next_u64(),
                "reclaim={}: RNG streams diverged",
                reclaim
            );
            // Bitwise-identical amplitudes.
            for (i, (a, b)) in sv_base
                .amplitudes()
                .iter()
                .zip(sv_fast.amplitudes())
                .enumerate()
            {
                prop_assert_eq!(
                    a.re.to_bits(),
                    b.re.to_bits(),
                    "reclaim={}: re of amp {}",
                    reclaim,
                    i
                );
                prop_assert_eq!(
                    a.im.to_bits(),
                    b.im.to_bits(),
                    "reclaim={}: im of amp {}",
                    reclaim,
                    i
                );
            }
            // And both compute the paper's modular sum.
            prop_assert_eq!(sv_fast.value(layout.x.qubits()).unwrap(), x);
            prop_assert_eq!(sv_fast.value(layout.y.qubits()).unwrap(), (x + y) % p);
        }
    }
}

/// The classical face of an ensemble (peak-memory stats excluded so the
/// comparison is meaningful with reclamation in play).
fn classical_view(e: &Ensemble) -> impl PartialEq + std::fmt::Debug {
    let records: Vec<(Vec<Option<bool>>, u64)> = e
        .record_frequencies()
        .map(|(r, n)| (r.to_vec(), n))
        .collect();
    (e.shots(), e.mean(), e.variance(), records)
}

#[test]
fn ensemble_outcome_frequencies_survive_fusion_and_thread_splits() {
    // A 2-stage MBU modadd chain under the shot engine: unfused serial
    // aggregates vs fused runs at several thread budgets must be
    // bit-identical, outcome frequencies included.
    let spec = ModAddSpec::cdkpm(Uncompute::Mbu);
    let chain = modular::modadd_chain_circuit(&spec, 2, 3, 2).unwrap();
    let nq = chain.circuit.num_qubits();
    let factory = || {
        let mut sv = StateVector::zeros(nq).unwrap();
        sv.set_value(chain.x.qubits(), 2).unwrap();
        sv.set_value(chain.y.qubits(), 1).unwrap();
        Box::new(sv) as Box<dyn Simulator>
    };

    let baseline = ShotRunner::new(48)
        .with_passes(unfused_passes())
        .with_threads(1)
        .run(&chain.circuit, factory)
        .unwrap();
    for threads in [1, 8, 2] {
        let fused = ShotRunner::new(48)
            .with_passes(PassConfig::default())
            .with_threads(threads)
            .run(&chain.circuit, factory)
            .unwrap();
        assert_eq!(
            classical_view(&baseline),
            classical_view(&fused),
            "budget {threads}"
        );
        for clbit in 0..baseline.num_clbits() {
            assert_eq!(
                baseline.outcome_frequency(clbit),
                fused.outcome_frequency(clbit),
                "clbit {clbit} at budget {threads}"
            );
        }
    }
}

#[test]
fn fusion_report_shows_up_in_stats_and_dump() {
    // The compile-stage face of the feature: a modadd's program reports
    // its fusion work and renders blocks in the dump.
    let spec = ModAddSpec::cdkpm(Uncompute::Mbu);
    let layout = modular::modadd_circuit(&spec, 2, 3).unwrap();
    let compiled = CompiledCircuit::compile(&layout.circuit).unwrap();
    let stats = compiled.stats();
    assert!(stats.fused_blocks > 0);
    assert!(stats.fused_gates >= 2 * stats.fused_blocks);
    let dump = compiled.to_string();
    assert!(dump.contains("fused["), "{dump}");
    assert!(dump.contains("fused"), "{}", stats);
}
