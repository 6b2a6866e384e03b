//! The four workloads: what set-up prepares, what one job does, and the
//! extra calls a traced run makes to split each layer.
//!
//! Every job draws its inputs from `(seed, job index)` alone; the job mix
//! is a fixed cycle over the job index.

use mbu_arith::modular::{self, beauregard, ModAdd, ModAddSpec};
use mbu_arith::{ArithError, Uncompute};
use mbu_circuit::{
    Circuit, CompiledCircuit, GateCounts, Instr, PassConfig, PassStats, PlanConfig, PlannedRepr,
};
use mbu_sim::{BackendKind, BasisTracker, CountStats, Executed, ShotRunner, SimError, Simulator};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::check::{self, layer, JobError};
use crate::trace::Trace;

/// The Mersenne prime 2^127 − 1: the modulus of every register of 128
/// bits or more, so the classical reference sum stays in `u128`.
pub const P_WIDE: u128 = (1 << 127) - 1;
/// The largest prime below 2^64, for the 64-bit `mc_expect` rows.
const P_64: u128 = 18_446_744_073_709_551_557;
/// The 4-bit modulus of the 23-qubit dense chain.
const P_CHAIN: u128 = 13;

/// Shots per `mc_expect` ensemble.
const EXPECT_SHOTS: u64 = 4096;
/// Shots of the traced shot-layer probe on the other workloads.
const PROBE_SHOTS: u64 = 8;
/// Rounds of the traced pass-timing probe.
const PASS_ROUNDS: usize = 3;

/// The five ripple-carry Table-1 rows: VBE5, VBE4, CDKPM, Gidney and
/// CDKPM+Gidney.
const ROWS: [fn(Uncompute) -> ModAddSpec; 5] = [
    ModAddSpec::vbe5,
    ModAddSpec::vbe4,
    ModAddSpec::cdkpm,
    ModAddSpec::gidney,
    ModAddSpec::gidney_cdkpm,
];
const UNCOMPUTE: [Uncompute; 2] = [Uncompute::Mbu, Uncompute::Unitary];
const WIDE_N: [usize; 2] = [256, 1024];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    ModaddWide,
    QftPhase,
    McExpect,
    DenseChain,
}

pub const ALL: [Workload; 4] = [
    Workload::ModaddWide,
    Workload::QftPhase,
    Workload::McExpect,
    Workload::DenseChain,
];

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::ModaddWide => "modadd_wide",
            Self::QftPhase => "qft_phase",
            Self::McExpect => "mc_expect",
            Self::DenseChain => "dense_chain",
        }
    }

    /// Jobs in one turn of the fixed job mix. Timed loops end on a cycle
    /// boundary so every run weighs each kind of job alike.
    pub fn cycle(self) -> u64 {
        match self {
            Self::ModaddWide => (ROWS.len() * UNCOMPUTE.len() * WIDE_N.len()) as u64,
            Self::McExpect => ROWS.len() as u64,
            Self::QftPhase | Self::DenseChain => 1,
        }
    }

    /// Whether one job spreads over every core. The fastest run of such a
    /// job needs every core quiet at once, which a shared host seldom
    /// gives, so its fastest latency is no steadier than its mean.
    pub fn uses_every_core(self) -> bool {
        matches!(self, Self::McExpect)
    }
}

/// A built circuit and its compiled program.
pub struct Program {
    layout: ModAdd,
    compiled: CompiledCircuit,
}

/// One `mc_expect` row: its program and the analytic Toffoli counts the
/// ensemble mean is held to.
pub struct ExpectRow {
    program: Program,
    expected: f64,
    worst: f64,
}

/// What set-up leaves ready for the jobs.
pub enum Ready {
    Wide,
    Phase(Program),
    Expect(Vec<ExpectRow>),
    Dense(Program),
}

/// The exact counts of one job, which must repeat bit for bit on a
/// repeated seed.
#[derive(Default)]
pub struct JobCounts(pub Vec<u64>);

impl JobCounts {
    fn pass_stats(&mut self, s: &PassStats) {
        self.0.extend([
            s.lowered_instrs as u64,
            s.cancelled,
            s.merged,
            s.identities_removed,
            s.phase_dead_removed,
            s.dead_qubits_reclaimed,
            s.fused_blocks,
            s.fused_gates,
            s.emitted_instrs as u64,
            s.segments as u64,
            s.fork_points as u64,
            s.planned_dense as u64,
            s.planned_sparse as u64,
            s.planned_phase as u64,
        ]);
    }

    fn gates(&mut self, c: &GateCounts) {
        self.0.extend([
            c.x,
            c.z,
            c.h,
            c.phase,
            c.cx,
            c.cz,
            c.toffoli,
            c.ccz,
            c.cphase,
            c.ccphase,
            c.swap,
            c.measure_z,
            c.measure_x,
            c.reset,
        ]);
    }
}

/// SplitMix64: decorrelates the per-job streams of nearby seeds and jobs.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn job_rng(seed: u64, job: u64) -> StdRng {
    StdRng::seed_from_u64(mix(mix(seed) ^ job))
}

/// A uniform-enough draw from `0..p` (the modulo bias is below 2^-64).
fn below(rng: &mut StdRng, p: u128) -> u128 {
    ((u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64())) % p
}

fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Builds a circuit, compiles and verifies it: the `arith` and `circuit`
/// layers of one job or one set-up.
fn build_and_compile(
    tr: &mut Trace,
    build: impl FnOnce() -> Result<ModAdd, ArithError>,
) -> Result<Program, JobError> {
    let layout = tr
        .span("arith.build", "arith.build_ms", build)
        .map_err(layer)?;
    if tr.enabled() {
        let circuit = &layout.circuit;
        tr.sample("arith.gates", circuit.counts().total_gates() as f64);
        tr.sample("arith.toffoli_expected", circuit.expected_counts().toffoli);
        pass_probes(tr, circuit)?;
    }
    let compiled = tr
        .span("circuit.compile", "circuit.compile_ms", || {
            CompiledCircuit::compile(&layout.circuit)
        })
        .map_err(layer)?;
    let verdict = tr.span("circuit.verify", "circuit.verify_ms", || compiled.verify());
    let findings = verdict.as_ref().err().map_or(&[][..], |e| e.findings());
    tr.sample("circuit.verify_findings", findings.len() as f64);
    tr.sample(
        "circuit.emitted_instrs",
        compiled.stats().emitted_instrs as f64,
    );
    check::check_findings(findings)?;
    if tr.enabled() {
        plan_probe(tr, &compiled);
    }
    Ok(Program { layout, compiled })
}

/// Times `lower` and `with_config` over nested pass sets (none ⊂
/// peephole ⊂ +fusion ⊂ +reclamation); each pass's time is the
/// difference between neighbours, and its counters come from `PassStats`.
fn pass_probes(tr: &mut Trace, circuit: &Circuit) -> Result<(), JobError> {
    let peephole = PassConfig {
        fuse_max_qubits: 0,
        reclaim_dead_qubits: false,
        ..PassConfig::default()
    };
    let fusion = PassConfig {
        reclaim_dead_qubits: false,
        ..PassConfig::default()
    };
    let configs = [
        ("circuit.lower", PassConfig::none()),
        ("circuit.with_peephole", peephole),
        ("circuit.with_fusion", fusion),
        ("circuit.with_reclaim", PassConfig::default()),
    ];
    // The fastest of a few interleaved rounds: single calls differ by
    // more than the cheaper passes cost.
    let mut ms = [f64::INFINITY; 4];
    let mut stats = [PassStats::default(); 4];
    for _ in 0..PASS_ROUNDS {
        for (i, (name, config)) in configs.iter().enumerate() {
            let id = tr.begin(name);
            let compiled = if i == 0 {
                CompiledCircuit::lower(circuit)
            } else {
                CompiledCircuit::with_config(circuit, config)
            };
            ms[i] = ms[i].min(tr.end(id));
            stats[i] = *compiled.map_err(layer)?.stats();
        }
    }
    tr.sample("circuit.lower_ms", ms[0]);
    tr.sample("circuit.peephole_ms", ms[1] - ms[0]);
    tr.sample("circuit.fusion_ms", ms[2] - ms[1]);
    tr.sample("circuit.reclaim_ms", ms[3] - ms[2]);
    tr.sample("circuit.lowered_instrs", stats[0].lowered_instrs as f64);
    tr.sample("circuit.peephole_removed", stats[1].removed() as f64);
    tr.sample("circuit.fused_blocks", stats[2].fused_blocks as f64);
    tr.sample("circuit.fused_gates", stats[2].fused_gates as f64);
    tr.sample(
        "circuit.reclaimed_qubits",
        stats[3].dead_qubits_reclaimed as f64,
    );
    Ok(())
}

/// Times the segment profiles and the representation plan.
fn plan_probe(tr: &mut Trace, compiled: &CompiledCircuit) {
    let (profiles, plan) = tr.span("circuit.plan", "circuit.plan_ms", || {
        (
            compiled.segment_profiles(),
            compiled.representation_plan(&PlanConfig::default()),
        )
    });
    let planned = |repr| plan.iter().filter(|&&r| r == repr).count() as f64;
    tr.sample("circuit.segments", profiles.len() as f64);
    tr.sample("circuit.planned_dense", planned(PlannedRepr::Dense));
    tr.sample("circuit.planned_sparse", planned(PlannedRepr::Sparse));
    tr.sample("circuit.planned_phase", planned(PlannedRepr::Phase));
}

/// Basis inputs of one modular addition and the `y` it must end with.
#[derive(Clone, Copy)]
struct Inputs {
    x: u128,
    y: u128,
    want: u128,
}

fn prepared(
    kind: BackendKind,
    layout: &ModAdd,
    inputs: Inputs,
) -> Result<Box<dyn Simulator + Send>, SimError> {
    let mut sim = kind.build(layout.circuit.num_qubits())?;
    sim.set_value(layout.x.qubits(), inputs.x)?;
    sim.set_value(layout.y.qubits(), inputs.y)?;
    Ok(sim)
}

/// Checks the sum register and that `x` came back unchanged.
fn check_sum(sim: &dyn Simulator, layout: &ModAdd, inputs: Inputs) -> Result<(), JobError> {
    check::check_register(sim, layout.y.qubits(), inputs.want)?;
    check::check_register(sim, layout.x.qubits(), inputs.x)
}

/// The `sim` layer of one job: allocate a `kind` state with basis
/// inputs, run the compiled program once, read the result back bit by
/// bit. Returns the state and what executed.
fn run_basis(
    tr: &mut Trace,
    kind: BackendKind,
    program: &Program,
    inputs: Inputs,
    rng_seed: u64,
) -> Result<(Box<dyn Simulator + Send>, Executed), JobError> {
    let layout = &program.layout;
    let mut sim = tr
        .span("sim.alloc", "sim.alloc_ms", || {
            prepared(kind, layout, inputs)
        })
        .map_err(layer)?;
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let executed = tr
        .span("sim.exec", "sim.exec_ms", || {
            sim.run_compiled(&program.compiled, &mut rng)
        })
        .map_err(layer)?;
    tr.span("sim.readback", "sim.readback_ms", || {
        check_sum(sim.as_ref(), layout, inputs)
    })?;
    tr.sample("sim.exec_gates", executed.counts.total_gates() as f64);
    tr.sample("sim.peak_occupancy", peak(sim.as_ref()) as f64);
    Ok((sim, executed))
}

/// The peak working set of the last compiled run: amplitudes for the
/// dense engine, occupied entries elsewhere.
fn peak(sim: &dyn Simulator) -> u64 {
    sim.peak_amplitudes()
        .or_else(|| sim.occupancy_peak())
        .unwrap_or(0)
}

/// Traced only: the interpreted `Simulator::run` on the same inputs, as
/// a reference for the compiled exec core.
fn interp_probe(
    tr: &mut Trace,
    kind: BackendKind,
    layout: &ModAdd,
    inputs: Inputs,
    rng_seed: u64,
) -> Result<(), JobError> {
    let mut sim = prepared(kind, layout, inputs).map_err(layer)?;
    let mut rng = StdRng::seed_from_u64(rng_seed);
    tr.span("sim.interp", "sim.interp_ms", || {
        sim.run(&layout.circuit, &mut rng)
    })
    .map_err(layer)?;
    check_sum(sim.as_ref(), layout, inputs)
}

/// One shot-runner ensemble of `layout` on `kind`, checking every shot's
/// sum; records the `shots` layer. Returns the mean executed counts and
/// the number of distinct measurement records.
fn ensemble(
    tr: &mut Trace,
    kind: BackendKind,
    layout: &ModAdd,
    inputs: Inputs,
    shots: u64,
    master_seed: u64,
) -> Result<(CountStats, usize), JobError> {
    let runner = ShotRunner::new(shots)
        .with_threads(threads())
        .with_master_seed(master_seed);
    let factory = || -> Box<dyn Simulator> {
        // The job built this width already; should a build fail here, the
        // empty stand-in fails the run below instead of panicking.
        match prepared(kind, layout, inputs) {
            Ok(sim) => sim,
            Err(_) => Box::new(BasisTracker::zeros(0)),
        }
    };
    let probe = |sim: &dyn Simulator, _: &Executed| check_sum(sim, layout, inputs).is_ok();
    let id = tr.begin("shots.run");
    let run = runner.run_probed(&layout.circuit, factory, probe);
    let ms = tr.end(id);
    let (ens, ok) = run.map_err(layer)?;
    let wrong = ok.iter().filter(|&&good| !good).count();
    if wrong > 0 {
        return Err(JobError::WrongShots {
            wrong,
            shots: ok.len(),
        });
    }
    let mean = ens.mean();
    if tr.enabled() {
        tr.span("shots.compile", "shots.compile_ms", || {
            CompiledCircuit::lower(&layout.circuit)
        })
        .map_err(layer)?;
        tr.sample("shots.ms", ms);
        tr.sample("shots.count", shots as f64);
        tr.sample("shots.per_s", shots as f64 / (ms / 1e3));
        let expected = layout.circuit.expected_counts().toffoli;
        tr.sample("shots.toffoli_mean_err", (mean.toffoli - expected).abs());
    }
    Ok((mean, ens.distinct_records()))
}

/// Builds and compiles whatever the workload's jobs share.
pub fn setup(w: Workload, tr: &mut Trace) -> Result<Ready, JobError> {
    tr.set_job(None);
    Ok(match w {
        Workload::ModaddWide => Ready::Wide,
        Workload::QftPhase => Ready::Phase(build_and_compile(tr, || {
            beauregard::modadd_circuit(Uncompute::Mbu, 128, P_WIDE)
        })?),
        Workload::McExpect => {
            let mut rows = Vec::new();
            for spec in ROWS {
                let program = build_and_compile(tr, || {
                    modular::modadd_circuit(&spec(Uncompute::Mbu), 64, P_64)
                })?;
                let circuit = &program.layout.circuit;
                rows.push(ExpectRow {
                    expected: circuit.expected_counts().toffoli,
                    worst: circuit.counts().toffoli as f64,
                    program,
                });
            }
            Ready::Expect(rows)
        }
        Workload::DenseChain => Ready::Dense(build_and_compile(tr, || {
            modular::modadd_chain_circuit(&ModAddSpec::cdkpm(Uncompute::Mbu), 4, P_CHAIN, 2)
        })?),
    })
}

/// Runs job number `job` and checks its result.
pub fn run_job(ready: &Ready, tr: &mut Trace, seed: u64, job: u64) -> Result<JobCounts, JobError> {
    tr.set_job(Some(job));
    let span = tr.begin("job");
    let out = match ready {
        Ready::Wide => wide_job(tr, seed, job),
        Ready::Phase(program) => phase_job(tr, program, seed, job),
        Ready::Expect(rows) => expect_job(tr, rows, seed, job),
        Ready::Dense(program) => dense_job(tr, program, seed, job),
    };
    tr.end(span);
    out
}

/// `modadd_wide`: build → compile → verify → sparse run → bit check,
/// cycling rows × {MBU, unitary} × n.
fn wide_job(tr: &mut Trace, seed: u64, job: u64) -> Result<JobCounts, JobError> {
    let k = (job % Workload::ModaddWide.cycle()) as usize;
    let unc = UNCOMPUTE[k % 2];
    let spec = ROWS[(k / 2) % ROWS.len()];
    let n = WIDE_N[k / (2 * ROWS.len())];
    let mut rng = job_rng(seed, job);
    let (x, y) = (below(&mut rng, P_WIDE), below(&mut rng, P_WIDE));
    let inputs = Inputs {
        x,
        y,
        want: (x + y) % P_WIDE,
    };
    let run_seed = rng.next_u64();

    let program = build_and_compile(tr, || modular::modadd_circuit(&spec(unc), n, P_WIDE))?;
    let (sim, executed) = run_basis(tr, BackendKind::Sparse, &program, inputs, run_seed)?;
    if tr.enabled() {
        interp_probe(tr, BackendKind::Sparse, &program.layout, inputs, run_seed)?;
        tr.sample("sim.bytes_swept", 0.0);
        if job == 0 {
            ensemble(
                tr,
                BackendKind::Sparse,
                &program.layout,
                inputs,
                PROBE_SHOTS,
                run_seed,
            )?;
        }
    }
    let mut counts = JobCounts::default();
    counts.pass_stats(program.compiled.stats());
    counts.gates(&executed.counts);
    counts.0.push(peak(sim.as_ref()));
    Ok(counts)
}

/// `qft_phase`: the set-up's Beauregard program on a fresh phase
/// accumulator with random inputs.
fn phase_job(
    tr: &mut Trace,
    program: &Program,
    seed: u64,
    job: u64,
) -> Result<JobCounts, JobError> {
    let mut rng = job_rng(seed, job);
    let (x, y) = (below(&mut rng, P_WIDE), below(&mut rng, P_WIDE));
    let inputs = Inputs {
        x,
        y,
        want: (x + y) % P_WIDE,
    };
    let run_seed = rng.next_u64();
    let (sim, executed) = run_basis(tr, BackendKind::Phase, program, inputs, run_seed)?;
    if tr.enabled() {
        interp_probe(tr, BackendKind::Phase, &program.layout, inputs, run_seed)?;
        tr.sample("sim.bytes_swept", 0.0);
        if job == 0 {
            ensemble(
                tr,
                BackendKind::Phase,
                &program.layout,
                inputs,
                PROBE_SHOTS,
                run_seed,
            )?;
        }
    }
    let mut counts = JobCounts::default();
    counts.pass_stats(program.compiled.stats());
    counts.gates(&executed.counts);
    counts.0.push(peak(sim.as_ref()));
    Ok(counts)
}

/// `mc_expect`: one 4096-shot tracker ensemble of a 64-bit MBU row with
/// fresh inputs and master seed; the mean Toffoli count must match the
/// analytic expectation.
fn expect_job(
    tr: &mut Trace,
    rows: &[ExpectRow],
    seed: u64,
    job: u64,
) -> Result<JobCounts, JobError> {
    let row = &rows[(job % rows.len() as u64) as usize];
    let mut rng = job_rng(seed, job);
    let (x, y) = (below(&mut rng, P_64), below(&mut rng, P_64));
    let inputs = Inputs {
        x,
        y,
        want: (x + y) % P_64,
    };
    let master_seed = rng.next_u64();
    let layout = &row.program.layout;
    let (mean, records) = ensemble(
        tr,
        BackendKind::Tracker,
        layout,
        inputs,
        EXPECT_SHOTS,
        master_seed,
    )?;
    check::check_toffoli_mean(mean.toffoli, row.expected, row.worst, EXPECT_SHOTS)?;
    let mut counts = JobCounts::default();
    counts.pass_stats(row.program.compiled.stats());
    counts.0.extend(
        [
            mean.toffoli,
            mean.cx,
            mean.cz,
            mean.x,
            mean.h,
            mean.measure_z,
            mean.measure_x,
        ]
        .map(f64::to_bits),
    );
    counts.0.push(records as u64);
    if tr.enabled() {
        // One shot outside the runner splits the tracker's own cost.
        let (sim, executed) =
            run_basis(tr, BackendKind::Tracker, &row.program, inputs, master_seed)?;
        interp_probe(tr, BackendKind::Tracker, layout, inputs, master_seed)?;
        tr.sample("sim.bytes_swept", 0.0);
        counts.gates(&executed.counts);
        counts.0.push(peak(sim.as_ref()));
    }
    Ok(counts)
}

/// `dense_chain`: a fresh 2^23-amplitude state, random basis inputs, one
/// seeded shot of the two-stage chain: y ← (y + 2x) mod 13.
fn dense_job(
    tr: &mut Trace,
    program: &Program,
    seed: u64,
    job: u64,
) -> Result<JobCounts, JobError> {
    let mut rng = job_rng(seed, job);
    let (x, y) = (below(&mut rng, P_CHAIN), below(&mut rng, P_CHAIN));
    let inputs = Inputs {
        x,
        y,
        want: (y + 2 * x) % P_CHAIN,
    };
    let run_seed = rng.next_u64();
    let (sim, executed) = run_basis(tr, BackendKind::Dense, program, inputs, run_seed)?;
    let amps = peak(sim.as_ref());
    if tr.enabled() {
        // Computed, not measured: every unitary instruction is one sweep
        // over the peak working set of 16-byte amplitudes.
        let sweeps = program
            .compiled
            .instrs()
            .iter()
            .filter(|i| matches!(i, Instr::Gate(_) | Instr::Fused(_)))
            .count() as f64;
        tr.sample("sim.bytes_swept", amps as f64 * 16.0 * sweeps);
        if job == 0 {
            interp_probe(tr, BackendKind::Dense, &program.layout, inputs, run_seed)?;
            ensemble(tr, BackendKind::Dense, &program.layout, inputs, 2, run_seed)?;
        }
    }
    let mut counts = JobCounts::default();
    counts.pass_stats(program.compiled.stats());
    counts.gates(&executed.counts);
    counts.0.push(amps);
    Ok(counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbu_circuit::Gate;

    fn small_program(layout: ModAdd) -> Program {
        let compiled = CompiledCircuit::compile(&layout.circuit).unwrap();
        Program { layout, compiled }
    }

    #[test]
    fn the_wide_cycle_visits_every_row_uncompute_and_width_once() {
        let mut seen = std::collections::BTreeSet::new();
        for k in 0..Workload::ModaddWide.cycle() as usize {
            seen.insert((k % 2, (k / 2) % ROWS.len(), k / (2 * ROWS.len())));
        }
        assert_eq!(seen.len(), 20);
    }

    #[test]
    fn job_inputs_depend_only_on_seed_and_job() {
        let draw = |seed, job| below(&mut job_rng(seed, job), P_WIDE);
        assert_eq!(draw(1, 5), draw(1, 5));
        assert_ne!(draw(1, 5), draw(2, 5));
        assert_ne!(draw(1, 5), draw(1, 6));
    }

    /// Each backend's sum check rejects a result with one flipped bit.
    #[test]
    fn every_backend_check_rejects_a_corrupted_sum() {
        let cases = [
            (
                BackendKind::Phase,
                beauregard::modadd_circuit(Uncompute::Mbu, 8, 251).unwrap(),
                251,
            ),
            (
                BackendKind::Dense,
                modular::modadd_chain_circuit(&ModAddSpec::cdkpm(Uncompute::Mbu), 3, 7, 1).unwrap(),
                7,
            ),
            (
                BackendKind::Tracker,
                modular::modadd_circuit(&ModAddSpec::gidney(Uncompute::Mbu), 8, 251).unwrap(),
                251,
            ),
        ];
        for (kind, layout, p) in cases {
            let program = small_program(layout);
            let inputs = Inputs {
                x: p - 2,
                y: 3,
                want: (3 + p - 2) % p,
            };
            let mut tr = Trace::new(false);
            let (mut sim, _) = run_basis(&mut tr, kind, &program, inputs, 9).unwrap();
            let y0 = program.layout.y.qubits()[0];
            sim.apply_gate(&Gate::X(y0)).unwrap();
            assert!(
                matches!(
                    check_sum(sim.as_ref(), &program.layout, inputs),
                    Err(JobError::WrongBit { bit: 0, .. })
                ),
                "{kind} accepted a flipped sum bit"
            );
        }
    }

    #[test]
    fn a_small_ensemble_meets_its_toffoli_tolerance() {
        let layout = modular::modadd_circuit(&ModAddSpec::cdkpm(Uncompute::Mbu), 8, 251).unwrap();
        let inputs = Inputs {
            x: 200,
            y: 100,
            want: 49,
        };
        let mut tr = Trace::new(false);
        let (mean, _) = ensemble(&mut tr, BackendKind::Tracker, &layout, inputs, 256, 3).unwrap();
        let mean = mean.toffoli;
        let c = &layout.circuit;
        let (expected, worst) = (c.expected_counts().toffoli, c.counts().toffoli as f64);
        assert!(worst > expected, "the MBU comparator is conditional");
        check::check_toffoli_mean(mean, expected, worst, 256).unwrap();
    }
}
