//! The `hybrid_planner` group: the `auto` backend (`HybridState`) on a mixed
//! workload that defeats every fixed representation.
//!
//! The workload is one circuit with three phases on ~22 qubits: a CDKPM
//! MBU modular adder on basis inputs (occupancy stays a handful of
//! states — dense sweeps `2^22` amplitudes per gate for nothing), then an
//! all-qubit Hadamard fan-out with entangling and phase layers at full
//! occupancy (the sparse map holds millions of entries and rewrites them
//! per gate — exactly what the dense kernels are for), a measure-all
//! collapse, and a second MBU adder on the now-definite registers. The
//! forced dense and forced sparse engines each lose a phase; the hybrid
//! planner promotes at the fan-out segment and demotes during the
//! collapse, so its wall time tracks the best representation per phase.
//! Walls, occupancy peaks and the hybrid's recorded dense↔sparse switch
//! count go to `BENCH_hybrid.json` at the repo root.

use criterion::{criterion_group, criterion_main, Criterion};
use mbu_arith::modular::{self, ModAddSpec};
use mbu_arith::Uncompute;
use mbu_bench::benchmark_modulus;
use mbu_bitstring::BitString;
use mbu_circuit::{Angle, Basis, CircuitBuilder, CompiledCircuit, QubitId};
use mbu_sim::{HybridState, Simulator, SparseVector, StateVector};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

const N: usize = 6;
const SEED: u64 = 7;
/// Walls are the best of this many runs per backend.
const RUNS: u32 = 2;

struct MixedWorkload {
    compiled: CompiledCircuit,
    num_qubits: usize,
    x: Vec<QubitId>,
    y: Vec<QubitId>,
}

/// Builds the three-phase circuit: MBU modadd → full-width fan-out core →
/// measure-all collapse → MBU modadd.
fn mixed_workload() -> MixedWorkload {
    let p = benchmark_modulus(N);
    let p_bits = BitString::from_u128(p, N);
    let spec = ModAddSpec::cdkpm(Uncompute::Mbu);
    let mut b = CircuitBuilder::new();
    let x = b.qreg("x", N);
    let y = b.qreg("y", N + 1);

    // Phase 1 (sparse-friendly): permutation-only on basis inputs.
    modular::modadd(&mut b, &spec, x.qubits(), y.qubits(), &p_bits).expect("valid modadd");

    // Phase 2 (dense-friendly): every qubit allocated so far — data and
    // released adder ancillas alike — fans out, then entangling and phase
    // layers run at full `2^q` occupancy.
    let all: Vec<QubitId> = (0..b.num_qubits() as u32).map(QubitId).collect();
    for &q in &all {
        b.h(q);
    }
    let theta = Angle::turn_over_power_of_two(3);
    for w in all.windows(2) {
        b.cx(w[0], w[1]);
    }
    for &q in &all {
        b.phase(q, theta);
    }
    for w in all.windows(3).step_by(3) {
        b.ccx(w[0], w[1], w[2]);
    }
    for &q in &all {
        let _ = b.measure(q, Basis::Z);
    }

    // Phase 3 (sparse-friendly again): the registers are definite after
    // the collapse, so the adder is back to a handful of occupied states.
    modular::modadd(&mut b, &spec, x.qubits(), y.qubits(), &p_bits).expect("valid modadd");

    let num_qubits = b.num_qubits();
    let circuit = b.finish();
    MixedWorkload {
        compiled: CompiledCircuit::compile(&circuit).expect("compiles"),
        num_qubits,
        x: x.qubits().to_vec(),
        y: y.qubits().to_vec(),
    }
}

struct Row {
    backend: &'static str,
    wall_ms: f64,
    peak_amplitudes: Option<u64>,
    switches: Option<u64>,
}

/// Runs the workload once on `sim`, returning (wall, executed-digest) —
/// the y-register value cross-checks the backends against each other.
fn run_once(sim: &mut dyn Simulator, w: &MixedWorkload) -> (Duration, mbu_sim::Executed, u128) {
    let p = benchmark_modulus(N);
    sim.set_value(&w.x, p - 1).unwrap();
    sim.set_value(&w.y, p / 2 + 1).unwrap();
    let mut rng = StdRng::seed_from_u64(SEED);
    let start = Instant::now();
    let executed = black_box(sim.run_compiled(&w.compiled, &mut rng).unwrap());
    let wall = start.elapsed();
    let value = sim.value(&w.y).unwrap();
    (wall, executed, value)
}

fn write_trajectory(rows: &[Row]) {
    let mut json = String::from(
        "{\n  \"bench\": \"hybrid_planner\",\n  \"workload\": \
         \"cdkpm-mbu modadd n=6 + all-qubit fanout core + collapse + modadd, seed 7\",\n  \
         \"units\": { \"wall\": \"ms\" },\n  \"rows\": [\n",
    );
    for (i, r) in rows.iter().enumerate() {
        let peak = match r.peak_amplitudes {
            Some(p) => p.to_string(),
            None => "null".to_string(),
        };
        let switches = match r.switches {
            Some(s) => s.to_string(),
            None => "null".to_string(),
        };
        let _ = writeln!(
            json,
            "    {{ \"backend\": \"{}\", \"wall_ms\": {:.3}, \
             \"peak_amplitudes\": {}, \"backend_switches\": {} }}{}",
            r.backend,
            r.wall_ms,
            peak,
            switches,
            if i + 1 == rows.len() { "" } else { "," },
        );
    }
    json.push_str("  ]\n}");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hybrid.json");
    mbu_bench::trajectory::append_run(std::path::Path::new(path), &json)
        .expect("writable BENCH_hybrid.json");
    eprintln!("  appended run to {path}");
}

fn hybrid_planner(c: &mut Criterion) {
    let w = mixed_workload();
    eprintln!(
        "  mixed workload: {} qubits, {} compiled instrs",
        w.num_qubits,
        w.compiled.instrs().len()
    );

    let mut rows = Vec::new();

    // Forced dense: pays the full 2^q sweep through both adder phases.
    let mut best = Duration::MAX;
    let mut peak = None;
    for _ in 0..RUNS {
        let mut sv = StateVector::zeros(w.num_qubits).unwrap();
        let (wall, _, _) = run_once(&mut sv, &w);
        best = best.min(wall);
        peak = sv.peak_amplitudes();
    }
    eprintln!("  dense : {best:.1?}");
    rows.push(Row {
        backend: "dense",
        wall_ms: best.as_secs_f64() * 1e3,
        peak_amplitudes: peak,
        switches: None,
    });

    // Forced sparse: pays millions of map rewrites through the fan-out
    // core. Also the bit-identity reference for the hybrid run.
    let mut best = Duration::MAX;
    let mut peak = None;
    let mut sparse_digest = None;
    for _ in 0..RUNS {
        let mut sp = SparseVector::zeros(w.num_qubits).unwrap();
        let (wall, executed, value) = run_once(&mut sp, &w);
        best = best.min(wall);
        peak = sp.peak_amplitudes();
        sparse_digest = Some((executed, value));
    }
    eprintln!("  sparse: {best:.1?}");
    rows.push(Row {
        backend: "sparse",
        wall_ms: best.as_secs_f64() * 1e3,
        peak_amplitudes: peak,
        switches: None,
    });

    // The planning hybrid: starts sparse, promotes at the fan-out
    // segment, demotes during the collapse — and stays bit-identical to
    // the forced sparse run (same RNG stream, same record, same value).
    let mut best = Duration::MAX;
    let mut peak = None;
    let mut switches = None;
    for _ in 0..RUNS {
        let mut auto = HybridState::zeros(w.num_qubits).unwrap();
        let (wall, executed, value) = run_once(&mut auto, &w);
        best = best.min(wall);
        peak = auto.peak_amplitudes();
        switches = auto.last_run_switches();
        let (ref ex_s, val_s) = *sparse_digest.as_ref().unwrap();
        assert_eq!(&executed, ex_s, "auto diverged from forced sparse");
        assert_eq!(value, val_s, "auto diverged from forced sparse");
    }
    let n_switches = switches.expect("hybrid records switches");
    assert!(n_switches >= 1, "the planner never switched representation");
    eprintln!("  auto  : {best:.1?} ({n_switches} representation switches)");
    let fixed_best = rows.iter().map(|r| r.wall_ms).fold(f64::INFINITY, f64::min);
    let auto_ms = best.as_secs_f64() * 1e3;
    eprintln!(
        "  auto vs best fixed backend: {auto_ms:.1} ms vs {fixed_best:.1} ms ({})",
        if auto_ms < fixed_best {
            "auto wins"
        } else {
            "fixed wins"
        }
    );
    rows.push(Row {
        backend: "auto",
        wall_ms: auto_ms,
        peak_amplitudes: peak,
        switches: Some(n_switches),
    });

    write_trajectory(&rows);

    // Criterion row for the planner's overhead floor: a narrow MBU adder
    // where the hybrid never leaves the sparse map, timed against the
    // forced sparse engine it should match.
    let mut group = c.benchmark_group("hybrid_planner");
    let p = benchmark_modulus(4);
    let spec = ModAddSpec::cdkpm(Uncompute::Mbu);
    let layout = modular::modadd_circuit(&spec, 4, p).unwrap();
    let nq = layout.circuit.num_qubits();
    let compiled = CompiledCircuit::compile(&layout.circuit).unwrap();
    group.bench_function("modadd_n4_auto", |b| {
        b.iter(|| {
            let mut auto = HybridState::zeros(nq).unwrap();
            Simulator::set_value(&mut auto, layout.x.qubits(), p - 1).unwrap();
            Simulator::set_value(&mut auto, layout.y.qubits(), p / 2 + 1).unwrap();
            let mut rng = StdRng::seed_from_u64(SEED);
            black_box(Simulator::run_compiled(&mut auto, &compiled, &mut rng).unwrap())
        })
    });
    group.bench_function("modadd_n4_sparse", |b| {
        b.iter(|| {
            let mut sp = SparseVector::zeros(nq).unwrap();
            sp.set_value(layout.x.qubits(), p - 1).unwrap();
            sp.set_value(layout.y.qubits(), p / 2 + 1).unwrap();
            let mut rng = StdRng::seed_from_u64(SEED);
            black_box(sp.run_compiled(&compiled, &mut rng).unwrap())
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
    targets = hybrid_planner
}
criterion_main!(benches);
