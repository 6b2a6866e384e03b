//! The `fusion_parallel` group: gate fusion + chunk-parallel amplitude
//! kernels on a deep single shot — the large-single-shot workload the
//! serial engine could not scale.
//!
//! The workload is a ≥20-qubit MBU modular-adder chain (the acceptance
//! shape): one seeded `run_compiled` per iteration, comparing
//!
//! * `serial_unfused` — the pre-fusion engine: one kernel sweep per gate,
//!   one thread;
//! * `fused_serial_simd` — the fusion pass alone: dense blocks, one sweep
//!   per block through the SoA lane kernels;
//! * `fused_parallel_8` — fused blocks with 8 amplitude lanes splitting
//!   every sweep across the persistent worker pool.
//!
//! The three mean wall times are appended as a trajectory row to
//! `BENCH_fusion_parallel.json` at the repo root.
//!
//! Before timing, the harness *asserts* the equivalence contract: the
//! fused-parallel run produces bit-identical amplitudes, classical records
//! and executed counts to the serial unfused run on the same seed. The
//! timing rows then quantify the win; a headline line prints the measured
//! serial ÷ fused-parallel speedup.
//!
//! Reclamation is disabled for the timed rows so the amplitude array stays
//! at full `2^n` width — the deep-shot regime amplitude parallelism
//! targets; `mbu_reclamation.rs` owns the compacted-array story.

use criterion::{criterion_group, criterion_main, Criterion};
use mbu_arith::modular::{self, ModAdd, ModAddSpec};
use mbu_arith::Uncompute;
use mbu_bench::benchmark_modulus;
use mbu_circuit::{CompiledCircuit, PassConfig};
use mbu_sim::{Simulator, StateVector, MAX_STATEVECTOR_QUBITS};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::{Duration, Instant};

const STAGES: usize = 2;
const MIN_QUBITS: usize = 20;
const AMP_LANES: usize = 8;

/// The smallest Table-1 CDKPM MBU chain with at least [`MIN_QUBITS`]
/// qubits (`None` if it would not fit the state-vector limit).
fn acceptance_chain() -> Option<(ModAdd, u128)> {
    let spec = ModAddSpec::cdkpm(Uncompute::Mbu);
    // Widths with a tabulated benchmark modulus, smallest first.
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

fn unfused_passes() -> PassConfig {
    PassConfig {
        fuse_max_qubits: 0,
        reclaim_dead_qubits: false,
        ..PassConfig::default()
    }
}

fn fused_passes() -> PassConfig {
    PassConfig {
        fuse_max_qubits: 3,
        reclaim_dead_qubits: false,
        ..PassConfig::default()
    }
}

fn prepared(chain: &ModAdd, p: u128, amp_threads: usize) -> StateVector {
    let mut sv = StateVector::zeros(chain.circuit.num_qubits())
        .unwrap()
        .with_reclamation(false)
        .with_amp_threads(amp_threads);
    sv.set_value(chain.x.qubits(), (p - 1) % p).unwrap();
    sv.set_value(chain.y.qubits(), (p / 2) % p).unwrap();
    sv
}

/// One full seeded shot; returns wall-clock time.
fn one_shot(
    chain: &ModAdd,
    compiled: &CompiledCircuit,
    p: u128,
    lanes: usize,
    seed: u64,
) -> Duration {
    let mut sv = prepared(chain, p, lanes);
    let mut rng = StdRng::seed_from_u64(seed);
    let start = Instant::now();
    black_box(sv.run_compiled(compiled, &mut rng).unwrap());
    start.elapsed()
}

fn single_shot_fusion_parallel(c: &mut Criterion) {
    let Some((chain, p)) = acceptance_chain() else {
        eprintln!("  fusion_parallel: no ≥{MIN_QUBITS}-qubit chain fits the state vector; skipped");
        return;
    };
    let nq = chain.circuit.num_qubits();
    let unfused = CompiledCircuit::with_config(&chain.circuit, &unfused_passes()).unwrap();
    let fused = CompiledCircuit::with_config(&chain.circuit, &fused_passes()).unwrap();
    eprintln!(
        "  {STAGES}-stage MBU modadd chain, {nq} qubits (2^{nq} amplitudes): {}",
        fused.stats()
    );
    assert!(fused.stats().fused_blocks > 0, "chain must fuse");

    // Equivalence contract before any timing: bit-identical everything
    // across the fusion pass and the amplitude lanes.
    let mut base = prepared(&chain, p, 1);
    let mut rng = StdRng::seed_from_u64(7);
    let ex_base = base.run_compiled(&unfused, &mut rng).unwrap();
    let mut fast = prepared(&chain, p, AMP_LANES);
    let mut rng = StdRng::seed_from_u64(7);
    let ex_fast = fast.run_compiled(&fused, &mut rng).unwrap();
    assert_eq!(ex_base, ex_fast, "records and counts must be identical");
    for (i, (a, b)) in base.amplitudes().iter().zip(fast.amplitudes()).enumerate() {
        assert_eq!(a.re.to_bits(), b.re.to_bits(), "re of amp {i}");
        assert_eq!(a.im.to_bits(), b.im.to_bits(), "im of amp {i}");
    }
    drop((base, fast));

    // Headline: measured speedup over a few seeded shots.
    let mut serial_total = Duration::ZERO;
    let mut fused_total = Duration::ZERO;
    let mut parallel_total = Duration::ZERO;
    for seed in 0..3u64 {
        serial_total += one_shot(&chain, &unfused, p, 1, seed);
        fused_total += one_shot(&chain, &fused, p, 1, seed);
        parallel_total += one_shot(&chain, &fused, p, AMP_LANES, seed);
    }
    let speedup_vs_serial = serial_total.as_secs_f64() / parallel_total.as_secs_f64().max(1e-9);
    eprintln!(
        "  single-shot serial {:.0?} vs fused serial {:.0?} vs fused+{AMP_LANES}-lane {:.0?}: \
         {speedup_vs_serial:.2}x end to end",
        serial_total / 3,
        fused_total / 3,
        parallel_total / 3,
    );

    // Machine-readable trajectory row, so the fusion and lane wins (or a
    // regression of them) are visible run over run.
    let json = format!(
        "{{\n  \"bench\": \"fusion_parallel\",\n  \
         \"workload\": \"{STAGES}-stage cdkpm-mbu modadd chain, single shot, mean of 3 seeds\",\n  \
         \"units\": {{ \"wall\": \"ms\" }},\n  \"rows\": [\n    \
         {{ \"qubits\": {nq}, \"amp_lanes\": {AMP_LANES}, \
         \"serial_unfused_wall_ms\": {serial:.3}, \
         \"fused_simd_serial_wall_ms\": {fused:.3}, \
         \"fused_simd_parallel_wall_ms\": {parallel:.3}, \
         \"speedup_vs_serial\": {speedup_vs_serial:.2} }}\n  ]\n}}",
        serial = serial_total.as_secs_f64() / 3.0 * 1e3,
        fused = fused_total.as_secs_f64() / 3.0 * 1e3,
        parallel = parallel_total.as_secs_f64() / 3.0 * 1e3,
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_fusion_parallel.json"
    );
    mbu_bench::trajectory::append_run(std::path::Path::new(path), &json)
        .expect("writable BENCH_fusion_parallel.json");
    eprintln!("  appended run to {path}");

    let mut group = c.benchmark_group("fusion_parallel/single_shot");
    let rows: [(&str, &CompiledCircuit, usize); 3] = [
        ("serial_unfused", &unfused, 1),
        ("fused_serial_simd", &fused, 1),
        ("fused_parallel_8", &fused, AMP_LANES),
    ];
    for (label, compiled, lanes) in rows {
        let mut seed = 100u64;
        group.bench_function(label, |b| {
            b.iter(|| {
                seed = seed.wrapping_add(1);
                let mut sv = prepared(&chain, p, lanes);
                let mut rng = StdRng::seed_from_u64(seed);
                black_box(sv.run_compiled(compiled, &mut rng).unwrap())
            })
        });
    }
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
    targets = single_shot_fusion_parallel
}
criterion_main!(benches);
