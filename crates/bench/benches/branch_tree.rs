//! The `branch_tree` group: branch-sharing ensembles vs per-shot Monte
//! Carlo on a two-stage MBU modular-adder chain (the acceptance shape,
//! ≥ 20 qubits).
//!
//! The paper's Table-1 workloads are long deterministic arithmetic blocks
//! with a handful of mid-circuit measurements: an N-shot Monte-Carlo
//! ensemble re-executes the identical deterministic prefix N times, while
//! the branch tree executes each unique measurement history exactly once
//! and replays only cheap RNG draws per shot. On a CDKPM MBU chain (one
//! flag fork per stage → ≤ 4 histories) the tree costs a few shot-
//! equivalents however many shots are requested, so the headline speedup
//! over a 1000-shot ensemble is roughly `1000 / leaves`.
//!
//! Before timing, the harness *asserts* the equivalence contract:
//!
//! * the sampled branch ensemble is bit-identical to the `ShotRunner`'s
//!   classical aggregates on the same master seed;
//! * the exact distribution's expected Toffoli count equals the analytic
//!   `expected_counts` golden.
//!
//! The timed rows then measure one tree build + exact distribution, one
//! tree build + 1000-shot replay (gate-at-a-time and with the fusion
//! pass on — unitary segments as single-sweep dense/permutation blocks
//! through `Simulator::apply_fused`), and a small per-shot ensemble whose
//! per-shot cost extrapolates (exactly linearly — shots are independent)
//! to the 1000-shot Monte-Carlo baseline the headline reports.

use criterion::{criterion_group, criterion_main, Criterion};
use mbu_arith::modular::{self, ModAdd, ModAddSpec};
use mbu_arith::Uncompute;
use mbu_bench::benchmark_modulus;
use mbu_circuit::PassConfig;
use mbu_sim::{
    BranchEnsemble, Ensemble, ShotRunner, Simulator, StateVector, MAX_STATEVECTOR_QUBITS,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

const STAGES: usize = 2;
const MIN_QUBITS: usize = 20;
const SHOTS: u64 = 1000;
/// Shots actually executed for the Monte-Carlo baseline row; the headline
/// extrapolates linearly (shots are independent and identically costed).
const MC_SAMPLE_SHOTS: u64 = 8;

/// Gate fusion alone — every other peephole pass off, so the compiled
/// program is bit-identical to the lowered one in amplitudes *and*
/// executed-gate counts (fusion tallies constituents; cancellation
/// would not). The fused leg times the branch engine's single-sweep
/// `apply_fused` path, permutation blocks included.
fn fusion_only_passes() -> PassConfig {
    PassConfig {
        cancel_self_inverse: false,
        merge_rotations: false,
        remove_identities: false,
        phase_dead_before_measure: false,
        reclaim_dead_qubits: false,
        fuse_max_qubits: 3,
    }
}

/// The smallest Table-1 CDKPM MBU chain with at least [`MIN_QUBITS`]
/// qubits (`None` if it would not fit the state-vector limit).
fn acceptance_chain() -> Option<(ModAdd, u128)> {
    let spec = ModAddSpec::cdkpm(Uncompute::Mbu);
    for n in [3usize, 4, 6, 8, 10, 12] {
        let p = benchmark_modulus(n);
        let chain = modular::modadd_chain_circuit(&spec, n, p, STAGES).expect("valid chain");
        let nq = chain.circuit.num_qubits();
        if nq > MAX_STATEVECTOR_QUBITS {
            return None;
        }
        if nq >= MIN_QUBITS {
            return Some((chain, p));
        }
    }
    None
}

fn factory(chain: &ModAdd, p: u128) -> impl Fn() -> Box<dyn Simulator + Send> + Sync + '_ {
    let nq = chain.circuit.num_qubits();
    move || {
        let mut sv = StateVector::zeros(nq).unwrap();
        sv.set_value(chain.x.qubits(), (p - 1) % p).unwrap();
        sv.set_value(chain.y.qubits(), (p / 2) % p).unwrap();
        Box::new(sv) as Box<dyn Simulator + Send>
    }
}

/// The classical face of an ensemble (peak-memory stats excluded — the
/// branch engine deliberately reports none).
fn classical_view(e: &Ensemble) -> impl PartialEq + std::fmt::Debug {
    let records: Vec<(Vec<Option<bool>>, u64)> = e
        .record_frequencies()
        .map(|(r, n)| (r.to_vec(), n))
        .collect();
    (e.shots(), e.mean(), e.variance(), records)
}

fn branch_tree_vs_monte_carlo(c: &mut Criterion) {
    let Some((chain, p)) = acceptance_chain() else {
        eprintln!("  branch_tree: no ≥{MIN_QUBITS}-qubit chain fits the state vector; skipped");
        return;
    };
    let nq = chain.circuit.num_qubits();
    let make = factory(&chain, p);

    // Equivalence contract before any timing.
    let small_branch = BranchEnsemble::new(MC_SAMPLE_SHOTS)
        .run(&chain.circuit, &make)
        .unwrap();
    let small_mc = ShotRunner::new(MC_SAMPLE_SHOTS)
        .run(&chain.circuit, || -> Box<dyn Simulator> { make() })
        .unwrap();
    assert_eq!(
        classical_view(&small_branch),
        classical_view(&small_mc),
        "sampled branch trees must be bit-identical to per-shot execution"
    );
    let small_fused = BranchEnsemble::new(MC_SAMPLE_SHOTS)
        .with_passes(fusion_only_passes())
        .run(&chain.circuit, &make)
        .unwrap();
    assert_eq!(
        classical_view(&small_branch),
        classical_view(&small_fused),
        "fused branch trees must be bit-identical to gate-at-a-time trees"
    );
    let dist = BranchEnsemble::new(0)
        .distribution(&chain.circuit, &make)
        .unwrap();
    let analytic = chain.circuit.expected_counts().toffoli;
    assert!(
        (dist.mean_counts().toffoli - analytic).abs() < 1e-6,
        "exact mode reproduces the analytic expectation"
    );
    eprintln!(
        "  {STAGES}-stage CDKPM MBU chain, {nq} qubits: {} fork(s), {} leaves",
        dist.fork_nodes(),
        dist.num_leaves()
    );

    // Headline: measured tree time vs (extrapolated) 1000-shot MC time.
    // Each leg takes the best of a few runs: single measurements on a
    // shared box can be several times the true cost, and the minimum is
    // the robust statistic for wall-clock timing noise that is purely
    // additive (preemption, cold pages).
    let best_of = |runs: usize, run: &mut dyn FnMut()| -> Duration {
        (0..runs)
            .map(|_| {
                let start = Instant::now();
                run();
                start.elapsed()
            })
            .min()
            .expect("at least one run")
    };
    let branch_time = best_of(2, &mut || {
        black_box(
            BranchEnsemble::new(SHOTS)
                .run(&chain.circuit, &make)
                .unwrap(),
        );
    });
    // The same tree with the fusion pass on: unitary segments execute as
    // single-sweep dense/permutation blocks through `apply_fused` instead
    // of one sweep per gate — the branch-engine headline.
    let branch_fused_time = best_of(2, &mut || {
        black_box(
            BranchEnsemble::new(SHOTS)
                .with_passes(fusion_only_passes())
                .run(&chain.circuit, &make)
                .unwrap(),
        );
    });
    let start = Instant::now();
    black_box(
        ShotRunner::new(MC_SAMPLE_SHOTS)
            .with_threads(1)
            .run(&chain.circuit, || -> Box<dyn Simulator> { make() })
            .unwrap(),
    );
    let mc_per_shot = start.elapsed() / u32::try_from(MC_SAMPLE_SHOTS).unwrap();
    let mc_time = mc_per_shot * u32::try_from(SHOTS).unwrap();
    // Plain ÷ fused on the same kernels: the fusion pass's gain alone.
    let fusion_speedup = branch_time.as_secs_f64() / branch_fused_time.as_secs_f64().max(1e-9);
    eprintln!(
        "  {SHOTS}-shot ensemble: branch tree {branch_time:.0?} (fused \
         {branch_fused_time:.0?}, {fusion_speedup:.2}x) vs serial Monte Carlo \
         ~{mc_time:.0?} ({MC_SAMPLE_SHOTS}-shot sample × {SHOTS}/{MC_SAMPLE_SHOTS}): {:.1}x",
        mc_time.as_secs_f64() / branch_time.as_secs_f64().max(1e-9)
    );

    // Machine-readable trajectory row, so PR-over-PR regressions in
    // either wall time or peak memory are visible without re-reading
    // bench logs. Peak memory is the per-shot dense footprint — the
    // branch engine shares one trajectory, so its peak is the same
    // state's, paid once instead of per shot.
    let peak_amps = small_mc
        .peak_amplitudes()
        .expect("per-shot dense ensembles report a peak");
    let json = format!(
        "{{\n  \"bench\": \"branch_tree\",\n  \
         \"workload\": \"{STAGES}-stage cdkpm-mbu modadd chain\",\n  \
         \"units\": {{ \"wall\": \"ms\", \"memory\": \"bytes\" }},\n  \"rows\": [\n    \
         {{ \"qubits\": {nq}, \"shots\": {SHOTS}, \"leaves\": {leaves}, \
         \"fork_nodes\": {forks}, \"branch_wall_ms\": {branch:.3}, \
         \"branch_wall_fused_ms\": {branch_fused:.3}, \
         \"fusion_speedup\": {fusion_speedup:.2}, \
         \"monte_carlo_wall_ms_extrapolated\": {mc:.3}, \"speedup\": {speedup:.2}, \
         \"peak_amplitudes_per_shot\": {peak_amps}, \
         \"peak_bytes_per_shot\": {peak_bytes} }}\n  ]\n}}",
        leaves = dist.num_leaves(),
        forks = dist.fork_nodes(),
        branch = branch_time.as_secs_f64() * 1e3,
        branch_fused = branch_fused_time.as_secs_f64() * 1e3,
        mc = mc_time.as_secs_f64() * 1e3,
        speedup = mc_time.as_secs_f64() / branch_time.as_secs_f64().max(1e-9),
        peak_bytes = peak_amps * 16,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_branch_tree.json");
    mbu_bench::trajectory::append_run(std::path::Path::new(path), &json)
        .expect("writable BENCH_branch_tree.json");
    eprintln!("  appended run to {path}");

    let mut group = c.benchmark_group("branch_tree/modadd_chain");
    group.bench_function("exact_distribution", |b| {
        b.iter(|| {
            black_box(
                BranchEnsemble::new(0)
                    .distribution(&chain.circuit, &make)
                    .unwrap(),
            )
        })
    });
    group.bench_function("branch_sampled_1000", |b| {
        b.iter(|| {
            black_box(
                BranchEnsemble::new(SHOTS)
                    .run(&chain.circuit, &make)
                    .unwrap(),
            )
        })
    });
    group.bench_function("branch_fused_1000", |b| {
        b.iter(|| {
            black_box(
                BranchEnsemble::new(SHOTS)
                    .with_passes(fusion_only_passes())
                    .run(&chain.circuit, &make)
                    .unwrap(),
            )
        })
    });
    group.bench_function("monte_carlo_per_shot", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed = seed.wrapping_add(1);
            black_box(
                ShotRunner::new(1)
                    .with_master_seed(seed)
                    .run(&chain.circuit, || -> Box<dyn Simulator> { make() })
                    .unwrap(),
            )
        })
    });
    group.finish();
}

fn short_config() -> Criterion {
    Criterion::default()
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(3))
        .sample_size(10)
}

criterion_group! {
    name = benches;
    config = short_config();
    targets = branch_tree_vs_monte_carlo
}
criterion_main!(benches);
