//! The shot-ensemble engine.
//!
//! The paper's "in expectation" MBU costs (Table 1) are *averages over
//! measurement outcomes*; this repository verifies them empirically by
//! Monte-Carlo averaging seeded simulator runs. [`ShotRunner`] is that
//! engine: a seeded, deterministic batch executor that folds every shot's
//! [`Executed`] record into an [`Ensemble`] of aggregate statistics. It
//! asks the factory's first state whether its backend can rejoin branches
//! ([`Simulator::same_state`]) and takes one of two paths to the same
//! ensemble:
//!
//! * **shared** — if it can, the runner builds the program's outcome DAG
//!   once from that state (see [`BranchEnsemble`](crate::BranchEnsemble))
//!   and replays each shot's seeded draws over it;
//! * **per shot** — otherwise every shot runs the whole program on a
//!   freshly prepared state (the state that was asked is dropped first).
//!   This is also the fallback when the DAG outgrows its node budget.
//!
//! Either path splits the shots into `min(shots, budget)` contiguous
//! ranges, one per worker thread. On the
//! `mc_expect` rows (n = 64 MBU modular adders on the basis tracker) a
//! DAG costs what 2 to 25 whole runs cost to build, and a replayed shot
//! a quarter of a run or less, so the shared path is the faster one once
//! each worker has a few dozen shots; below that it loses at most the one
//! build.
//!
//! Determinism is absolute, not statistical:
//!
//! * each shot's RNG is seeded purely from the master seed and the shot
//!   index ([`ShotRunner::seed_for_shot`]), so outcome streams never depend
//!   on scheduling, and a replayed shot draws against exactly the
//!   probabilities its per-shot run would have drawn against;
//! * aggregation is exact integer arithmetic (sums and sums of squares of
//!   `u64` gate counts in `u128`), so the fold is associative and
//!   commutative and the final [`Ensemble`] is **bit-identical** for either
//!   path and any thread count.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::OnceLock;
use std::thread;

use mbu_circuit::{Circuit, CompiledCircuit, GateCounts, PassConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::branch::{Dag, DEFAULT_BRANCH_EPS, DEFAULT_NODE_BUDGET};
use crate::error::SimError;
use crate::exec::Executed;
use crate::simulator::Simulator;

/// Number of tallied operation families (the fields of [`GateCounts`]).
pub(crate) const NFIELDS: usize = 14;

/// A shot's fresh state, as both engines build it.
pub(crate) type Factory<'a> = &'a (dyn Fn() -> Box<dyn Simulator> + Sync);

/// What a probed ensemble observes of each shot's final state and record.
pub(crate) type Probe<'a, O> = &'a (dyn Fn(&dyn Simulator, &Executed) -> O + Sync);

/// The default master seed shared by every ensemble engine, so the
/// branch-sharing sampler reproduces the [`ShotRunner`]'s aggregates out
/// of the box ("MBUSHOTS").
pub(crate) const DEFAULT_MASTER_SEED: u64 = 0x4d42_5553_484f_5453;

/// The default thread budget of both ensemble engines: one thread per
/// available CPU.
pub(crate) fn cpu_threads() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// The deterministic per-shot seed: SplitMix64 over `(master_seed, shot)`,
/// so nearby shots get decorrelated streams. Shared by every ensemble
/// path — equal master seeds must replay equal per-shot RNG streams.
pub(crate) fn shot_seed(master_seed: u64, shot: u64) -> u64 {
    let mut z = master_seed.wrapping_add(shot.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The worker count for `shots` shots under a thread budget (see
/// [`ShotRunner::schedule`]): one worker per shot up to the budget, and at
/// least one.
pub(crate) fn worker_count(budget: usize, shots: u64) -> usize {
    let shot_cap = usize::try_from(shots).unwrap_or(usize::MAX);
    budget.min(shot_cap).max(1)
}

/// `GateCounts` flattened into a fixed field order.
pub(crate) fn count_fields(c: &GateCounts) -> [u64; NFIELDS] {
    [
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
    ]
}

/// The inverse of [`count_fields`].
pub(crate) fn gate_counts(f: [u64; NFIELDS]) -> GateCounts {
    let [x, z, h, phase, cx, cz, toffoli, ccz, cphase, ccphase, swap, measure_z, measure_x, reset] =
        f;
    GateCounts {
        x,
        z,
        h,
        phase,
        cx,
        cz,
        toffoli,
        ccz,
        cphase,
        ccphase,
        swap,
        measure_z,
        measure_x,
        reset,
    }
}

/// Lowers `circuit`, or compiles it with `passes` — the one program both
/// ensemble engines run.
pub(crate) fn compile_for(
    circuit: &Circuit,
    passes: Option<PassConfig>,
) -> Result<CompiledCircuit, SimError> {
    match passes {
        None => CompiledCircuit::lower(circuit),
        Some(config) => CompiledCircuit::with_config(circuit, &config),
    }
    .map_err(|e| SimError::InvalidCircuit { why: e.to_string() })
}

/// Splits `0..shots` into `workers` contiguous ranges (each holds at
/// least one shot: `workers ≤ shots`), runs `chunk` on each on its own
/// scoped thread, and folds the chunks in shot order. Returns the fold
/// with the observations in shot order, or the error of the
/// lowest-indexed failing shot: a chunk stops at its first failing shot,
/// so the first failing chunk holds it.
pub(crate) fn in_chunks<O: Send>(
    shots: u64,
    workers: usize,
    chunk: impl Fn(Range<u64>) -> Result<(Accumulator, Vec<O>), SimError> + Sync,
) -> Result<(Accumulator, Vec<O>), SimError> {
    let workers = workers as u64;
    let (per, extra) = (shots / workers, shots % workers);
    let start = |w: u64| w * per + w.min(extra);
    let chunk = &chunk;
    let chunks: Vec<_> = thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| scope.spawn(move || chunk(start(w)..start(w + 1))))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                // Re-raise worker panics with their original payload
                // instead of masking them.
                h.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    });
    let mut acc = Accumulator::default();
    let mut observations = Vec::new();
    for chunk in chunks {
        let (chunk_acc, chunk_observations) = chunk?;
        acc.merge(chunk_acc);
        observations.extend(chunk_observations);
    }
    Ok((acc, observations))
}

/// Runs one shot from its own seed — a fresh state from `factory`, the
/// whole program, the probe — and folds it into `acc`.
pub(crate) fn one_shot<O>(
    compiled: &CompiledCircuit,
    factory: Factory<'_>,
    seed: u64,
    probe: Option<Probe<'_, O>>,
    acc: &mut Accumulator,
) -> Result<Option<O>, SimError> {
    let mut sim = factory();
    let mut rng = StdRng::seed_from_u64(seed);
    let executed = sim.run_compiled(compiled, &mut rng)?;
    let observation = probe.map(|probe| probe(sim.as_ref(), &executed));
    acc.add_shot(
        &count_fields(&executed.counts),
        &executed.classical,
        sim.peak_amplitudes(),
    );
    Ok(observation)
}

/// The per-shot engine: every shot runs the whole program on a fresh
/// state, `workers` threads over contiguous shot ranges ([`in_chunks`]).
/// Returns the fold and, when probing, the observations in shot order, or
/// the error of the lowest-indexed failing shot.
pub(crate) fn per_shot<O: Send>(
    compiled: &CompiledCircuit,
    shots: u64,
    master_seed: u64,
    workers: usize,
    factory: Factory<'_>,
    probe: Option<Probe<'_, O>>,
) -> Result<(Accumulator, Vec<O>), SimError> {
    in_chunks(shots, workers, |range| {
        let mut acc = Accumulator::default();
        let mut observations = Vec::new();
        for shot in range {
            let seed = shot_seed(master_seed, shot);
            observations.extend(one_shot(compiled, factory, seed, probe, &mut acc)?);
        }
        Ok((acc, observations))
    })
}

/// A seeded, deterministic ensemble executor.
///
/// # Examples
///
/// Measure the fair-coin statistics of an X-basis measurement (the MBU
/// flag of Lemma 4.1) over a thousand shots:
///
/// ```
/// use mbu_circuit::{Basis, CircuitBuilder};
/// use mbu_sim::{BasisTracker, ShotRunner, Simulator};
///
/// let mut b = CircuitBuilder::new();
/// let q = b.qreg("q", 1);
/// let _flag = b.measure(q[0], Basis::X);
/// let circuit = b.finish();
///
/// let ensemble = ShotRunner::new(1000)
///     .run(&circuit, || Box::new(BasisTracker::zeros(1)))
///     .unwrap();
/// let freq = ensemble.outcome_frequency(0).unwrap();
/// assert!((freq - 0.5).abs() < 0.05, "fair coin, got {freq}");
/// ```
#[derive(Clone, Copy, Debug)]
pub struct ShotRunner {
    shots: u64,
    master_seed: u64,
    /// The total thread budget (see [`ShotRunner::schedule`]).
    threads: usize,
    passes: Option<PassConfig>,
}

impl ShotRunner {
    /// An ensemble of `shots` runs, with the default master seed and a
    /// thread budget of one thread per available CPU
    /// ([`with_threads`](Self::with_threads) changes it).
    #[must_use]
    pub fn new(shots: u64) -> Self {
        Self {
            shots,
            master_seed: DEFAULT_MASTER_SEED,
            threads: cpu_threads(),
            passes: None,
        }
    }

    /// Enables peephole passes on the shared compiled program.
    ///
    /// By default the runner only *lowers* the circuit (compiling once and
    /// sharing the immutable program across all workers), which keeps
    /// executed gate counts identical to the interpreted tree walk. Passes
    /// change the program, so the per-shot [`Executed`] tallies reflect the
    /// optimised stream; enable them when measuring physics rather than
    /// raw gate counts.
    #[must_use]
    pub fn with_passes(mut self, config: PassConfig) -> Self {
        self.passes = Some(config);
        self
    }

    /// Replaces the master seed. Ensembles with equal master seeds, shot
    /// counts and circuits produce identical aggregates.
    #[must_use]
    pub fn with_master_seed(mut self, seed: u64) -> Self {
        self.master_seed = seed;
        self
    }

    /// Sets the total thread budget (clamped to at least 1). The result
    /// does not depend on this — only wall-clock time does: with `S`
    /// shots and budget `B`, either path (see the module docs) splits the
    /// shots over `min(S, B)` workers.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The number of shot workers for an ensemble of `shots`: one per
    /// shot up to the thread budget.
    fn schedule(&self, shots: u64) -> usize {
        worker_count(self.threads, shots)
    }

    /// The number of shots this runner executes.
    #[must_use]
    pub fn shots(&self) -> u64 {
        self.shots
    }

    /// The RNG seed used for shot `shot` — exposed so a single interesting
    /// shot can be replayed in isolation.
    ///
    /// SplitMix64 over `(master_seed, shot)`, so nearby shots get
    /// decorrelated streams.
    #[must_use]
    pub fn seed_for_shot(&self, shot: u64) -> u64 {
        shot_seed(self.master_seed, shot)
    }

    /// Runs the ensemble: `factory` prepares a simulator state, and the
    /// executed statistics are folded into an [`Ensemble`].
    ///
    /// `factory` must return the same state on every call: the shared
    /// path (see the module docs) calls it once per ensemble, per-shot
    /// runs once per shot, after the one call that asked whether the
    /// backend can share.
    ///
    /// # Errors
    ///
    /// The error of the lowest-indexed failing shot, if any shot fails —
    /// deterministically, regardless of thread count — or
    /// [`SimError::EmptyEnsemble`] for a zero-shot run.
    pub fn run<F>(&self, circuit: &Circuit, factory: F) -> Result<Ensemble, SimError>
    where
        F: Fn() -> Box<dyn Simulator> + Sync,
    {
        self.ensemble::<()>(circuit, &factory, None)
            .map(|(ensemble, _)| ensemble)
    }

    /// Like [`run`](Self::run), but additionally applies `probe` to the
    /// final simulator state and [`Executed`] record of every shot,
    /// returning the observations in shot order.
    ///
    /// This is how per-shot assertions (final register values, global
    /// phase) are made over an ensemble; `probe` runs on the worker
    /// threads. On the shared path shots that took the same path through
    /// the outcome DAG share one final state and one record, so each
    /// worker calls `probe` once per distinct path in each batch of up to
    /// 64 paths of its shots, and the batch's other shots of that path
    /// receive clones of its observation. The final state there was
    /// reached without a compiled run of its own, so its
    /// [`peak_amplitudes`](Simulator::peak_amplitudes) reads `None`.
    ///
    /// # Errors
    ///
    /// The error of the lowest-indexed failing shot, if any shot fails,
    /// or [`SimError::EmptyEnsemble`] for a zero-shot run — an ensemble
    /// with no shots has no aggregate, and handing one back would leave
    /// every frequency accessor dividing by zero.
    pub fn run_probed<F, P, O>(
        &self,
        circuit: &Circuit,
        factory: F,
        probe: P,
    ) -> Result<(Ensemble, Vec<O>), SimError>
    where
        F: Fn() -> Box<dyn Simulator> + Sync,
        P: Fn(&dyn Simulator, &Executed) -> O + Sync,
        O: Clone + Send,
    {
        self.ensemble(circuit, &factory, Some(&probe))
    }

    /// The one body of [`run`](Self::run) and
    /// [`run_probed`](Self::run_probed): compile once, then share the
    /// outcome DAG where it serves (see the module docs) and run per shot
    /// elsewhere.
    fn ensemble<O: Clone + Send>(
        &self,
        circuit: &Circuit,
        factory: Factory<'_>,
        probe: Option<Probe<'_, O>>,
    ) -> Result<(Ensemble, Vec<O>), SimError> {
        let shots = self.shots;
        if shots == 0 {
            return Err(SimError::EmptyEnsemble);
        }
        let compiled = compile_for(circuit, self.passes)?;
        let workers = self.schedule(shots);
        let root = factory();
        if root.same_state(root.as_ref()) {
            match Dag::build(&compiled, root, DEFAULT_BRANCH_EPS, DEFAULT_NODE_BUDGET) {
                Ok(dag) => {
                    let (acc, observations) =
                        dag.replay(&compiled, shots, self.master_seed, workers, factory, probe)?;
                    return Ok((Ensemble::from_acc(acc), observations));
                }
                Err(SimError::BranchUnsupported | SimError::BranchBudgetExceeded { .. }) => {}
                Err(e) => return Err(e),
            }
        }
        let (acc, observations) =
            per_shot(&compiled, shots, self.master_seed, workers, factory, probe)?;
        Ok((Ensemble::from_acc(acc), observations))
    }
}

/// The exact integer fold of many [`Executed`] records. Crate-visible so
/// the DAG replay folds its shots through the same arithmetic
/// (bit-compatibility with per-shot execution is defined as equality of
/// this fold).
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) struct Accumulator {
    shots: u64,
    sum: [u128; NFIELDS],
    sumsq: [u128; NFIELDS],
    /// Shots per distinct classical record; the per-clbit tallies are
    /// derived from it (see [`Ensemble`]).
    records: BTreeMap<Vec<Option<bool>>, u64>,
    /// Worst per-shot peak amplitude count, when the backend reports one
    /// (the state vector's live working set — reclamation's memory story).
    peak_amps: Option<u64>,
}

impl Default for Accumulator {
    fn default() -> Self {
        Self {
            shots: 0,
            sum: [0; NFIELDS],
            sumsq: [0; NFIELDS],
            records: BTreeMap::new(),
            peak_amps: None,
        }
    }
}

impl Accumulator {
    /// Folds in one shot: its executed counts as [`count_fields`], its
    /// classical record and its peak. The record is cloned only when it
    /// is new to the fold.
    pub(crate) fn add_shot(
        &mut self,
        fields: &[u64; NFIELDS],
        record: &[Option<bool>],
        peak_amps: Option<u64>,
    ) {
        self.shots += 1;
        if let Some(peak) = peak_amps {
            self.peak_amps = Some(self.peak_amps.map_or(peak, |m| m.max(peak)));
        }
        for (i, &f) in fields.iter().enumerate() {
            let f = u128::from(f);
            self.sum[i] += f;
            self.sumsq[i] += f * f;
        }
        match self.records.get_mut(record) {
            Some(n) => *n += 1,
            None => {
                self.records.insert(record.to_vec(), 1);
            }
        }
    }

    pub(crate) fn merge(&mut self, other: Accumulator) {
        self.shots += other.shots;
        if let Some(peak) = other.peak_amps {
            self.peak_amps = Some(self.peak_amps.map_or(peak, |m| m.max(peak)));
        }
        for i in 0..NFIELDS {
            self.sum[i] += other.sum[i];
            self.sumsq[i] += other.sumsq[i];
        }
        // Keep the larger record map and insert the smaller one's records,
        // so that folding many chunks costs records × log(records).
        let mut records = other.records;
        if records.len() > self.records.len() {
            std::mem::swap(&mut self.records, &mut records);
        }
        for (record, n) in records {
            *self.records.entry(record).or_insert(0) += n;
        }
    }
}

/// Aggregate statistics of a shot ensemble.
///
/// Comparable with `==`: two ensembles are equal iff every underlying
/// integer tally matches, which is what the parallel-equals-serial
/// guarantee is stated in terms of.
#[derive(Clone, Debug)]
pub struct Ensemble {
    acc: Accumulator,
    /// The per-clbit tallies, derived from the distinct records on their
    /// first read, so that no shot pays for them, nor an ensemble whose
    /// tallies are never read.
    clbits: OnceLock<ClbitTallies>,
}

/// Equality is the fold's: the per-clbit tallies are a function of it.
impl PartialEq for Ensemble {
    fn eq(&self, other: &Self) -> bool {
        self.acc == other.acc
    }
}

impl Eq for Ensemble {}

/// How many shots wrote each classical bit, and how many wrote 1 to it.
#[derive(Clone, Debug)]
struct ClbitTallies {
    writes: Vec<u64>,
    ones: Vec<u64>,
}

impl Ensemble {
    /// Wraps a finished fold.
    pub(crate) fn from_acc(acc: Accumulator) -> Self {
        Self {
            acc,
            clbits: OnceLock::new(),
        }
    }

    /// The per-clbit tallies: one pass over the distinct records, the
    /// first time they are read.
    fn clbits(&self) -> &ClbitTallies {
        self.clbits.get_or_init(|| {
            let width = self.acc.records.keys().map(Vec::len).max().unwrap_or(0);
            let mut tallies = ClbitTallies {
                writes: vec![0; width],
                ones: vec![0; width],
            };
            for (record, &n) in &self.acc.records {
                for (i, bit) in record.iter().enumerate() {
                    if let Some(b) = bit {
                        tallies.writes[i] += n;
                        tallies.ones[i] += n * u64::from(*b);
                    }
                }
            }
            tallies
        })
    }

    /// How many shots were folded in.
    #[must_use]
    pub fn shots(&self) -> u64 {
        self.acc.shots
    }

    /// Mean executed count per operation family.
    #[must_use]
    pub fn mean(&self) -> CountStats {
        let n = self.acc.shots.max(1) as f64;
        CountStats::from_fields(std::array::from_fn(|i| self.acc.sum[i] as f64 / n))
    }

    /// Population variance of the executed count per operation family.
    ///
    /// Computed from exact integer sums (`Var = (n·Σx² − (Σx)²) / n²`), so
    /// it carries no accumulation-order noise.
    #[must_use]
    pub fn variance(&self) -> CountStats {
        let n = self.acc.shots;
        if n == 0 {
            return CountStats::from_fields([0.0; NFIELDS]);
        }
        CountStats::from_fields(std::array::from_fn(|i| {
            let numer = u128::from(n) * self.acc.sumsq[i] - self.acc.sum[i] * self.acc.sum[i];
            numer as f64 / (n as f64 * n as f64)
        }))
    }

    /// The worst per-shot peak amplitude count across the ensemble, when
    /// the backend reports one (see `Simulator::peak_amplitudes`): the
    /// largest working set any shot's compiled execution operated on. When
    /// the program reclaims qubits the state vector's peak drops below
    /// `2^n`; for a program compiled without drops
    /// (`PassConfig { reclaim_dead_qubits: false, .. }`) it is the full
    /// width. A shot's state rests factored before and after its run, so
    /// the peak is what the engine sweeps. The other
    /// backends report occupied entries (the basis tracker its
    /// `2^(X-mode qubits)` bound). `None` for backends that track no peak
    /// and for empty ensembles.
    #[must_use]
    pub fn peak_amplitudes(&self) -> Option<u64> {
        self.acc.peak_amps
    }

    /// How many shots wrote classical bit `clbit`.
    #[must_use]
    pub fn outcome_writes(&self, clbit: usize) -> u64 {
        self.clbits().writes.get(clbit).copied().unwrap_or(0)
    }

    /// How many shots wrote outcome 1 to classical bit `clbit`.
    #[must_use]
    pub fn outcome_ones(&self, clbit: usize) -> u64 {
        self.clbits().ones.get(clbit).copied().unwrap_or(0)
    }

    /// The empirical frequency of outcome 1 on classical bit `clbit`,
    /// among the shots that wrote it; `None` if no shot did.
    #[must_use]
    pub fn outcome_frequency(&self, clbit: usize) -> Option<f64> {
        let writes = self.outcome_writes(clbit);
        (writes > 0).then(|| self.outcome_ones(clbit) as f64 / writes as f64)
    }

    /// The number of classical bits any shot wrote.
    #[must_use]
    pub fn num_clbits(&self) -> usize {
        self.clbits().writes.len()
    }

    /// The highest classical bit index any shot wrote — for protocols (like
    /// MBU modular adders) where "the last measurement" is the flag of
    /// interest.
    #[must_use]
    pub fn last_clbit(&self) -> Option<usize> {
        self.clbits().writes.iter().rposition(|&writes| writes > 0)
    }

    /// Frequencies of complete classical records, most-populated first is
    /// NOT guaranteed — iteration is in record order.
    pub fn record_frequencies(&self) -> impl Iterator<Item = (&[Option<bool>], u64)> {
        self.acc.records.iter().map(|(k, v)| (k.as_slice(), *v))
    }

    /// The number of distinct complete classical records observed.
    #[must_use]
    pub fn distinct_records(&self) -> usize {
        self.acc.records.len()
    }
}

/// Per-operation-family floating statistics of an [`Ensemble`].
///
/// Field-for-field mirror of [`GateCounts`], as `f64` means or variances.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct CountStats {
    /// Pauli X gates.
    pub x: f64,
    /// Pauli Z gates.
    pub z: f64,
    /// Hadamard gates.
    pub h: f64,
    /// Single-qubit phase rotations.
    pub phase: f64,
    /// CNOT gates.
    pub cx: f64,
    /// CZ gates.
    pub cz: f64,
    /// Toffoli gates.
    pub toffoli: f64,
    /// CCZ gates.
    pub ccz: f64,
    /// Controlled rotations.
    pub cphase: f64,
    /// Doubly-controlled rotations.
    pub ccphase: f64,
    /// Swap gates.
    pub swap: f64,
    /// Z-basis measurements.
    pub measure_z: f64,
    /// X-basis measurements.
    pub measure_x: f64,
    /// Resets.
    pub reset: f64,
}

impl CountStats {
    pub(crate) fn from_fields(f: [f64; NFIELDS]) -> Self {
        Self {
            x: f[0],
            z: f[1],
            h: f[2],
            phase: f[3],
            cx: f[4],
            cz: f[5],
            toffoli: f[6],
            ccz: f[7],
            cphase: f[8],
            ccphase: f[9],
            swap: f[10],
            measure_z: f[11],
            measure_x: f[12],
            reset: f[13],
        }
    }

    /// Total measurements, either basis.
    #[must_use]
    pub fn measurements(&self) -> f64 {
        self.measure_z + self.measure_x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BasisTracker;
    use mbu_circuit::{Basis, CircuitBuilder};

    /// H-free fair-coin circuit: X-measure |0⟩, then a conditional X's
    /// worth of correction so the two branches execute different counts.
    fn coin_circuit() -> Circuit {
        let mut b = CircuitBuilder::new();
        let q = b.qreg("q", 1);
        let m = b.measure(q[0], Basis::X);
        let (_, fix) = b.record(|bb| {
            bb.h(q[0]);
            bb.x(q[0]);
        });
        b.emit_conditional(m, &fix);
        b.finish()
    }

    #[test]
    fn same_master_seed_gives_identical_aggregates() {
        let circuit = coin_circuit();
        let factory = || Box::new(BasisTracker::zeros(1)) as Box<dyn Simulator>;
        let a = ShotRunner::new(500)
            .with_master_seed(7)
            .run(&circuit, factory)
            .unwrap();
        let b = ShotRunner::new(500)
            .with_master_seed(7)
            .run(&circuit, factory)
            .unwrap();
        assert_eq!(a, b);
        let c = ShotRunner::new(500)
            .with_master_seed(8)
            .run(&circuit, factory)
            .unwrap();
        assert_ne!(a.outcome_ones(0), c.outcome_ones(0));
    }

    #[test]
    fn parallel_equals_serial_bit_for_bit() {
        let circuit = coin_circuit();
        let factory = || Box::new(BasisTracker::zeros(1)) as Box<dyn Simulator>;
        let serial = ShotRunner::new(1000)
            .with_threads(1)
            .run(&circuit, factory)
            .unwrap();
        for threads in [2, 3, 7, 16] {
            let parallel = ShotRunner::new(1000)
                .with_threads(threads)
                .run(&circuit, factory)
                .unwrap();
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn mean_and_variance_match_bernoulli_expectations() {
        // The conditional branch (1 H + 1 X) runs with probability ½, so
        // the executed X count is Bernoulli(½): mean ½, variance ¼.
        let circuit = coin_circuit();
        let ensemble = ShotRunner::new(4000)
            .run(&circuit, || Box::new(BasisTracker::zeros(1)))
            .unwrap();
        let mean = ensemble.mean();
        let var = ensemble.variance();
        assert!((mean.x - 0.5).abs() < 0.05, "mean {}", mean.x);
        assert!((var.x - 0.25).abs() < 0.05, "variance {}", var.x);
        assert!((mean.measure_x - 1.0).abs() < 1e-12);
        assert!(var.measure_x.abs() < 1e-12, "deterministic count");
    }

    #[test]
    fn outcome_frequencies_and_records() {
        let circuit = coin_circuit();
        let ensemble = ShotRunner::new(2000)
            .run(&circuit, || Box::new(BasisTracker::zeros(1)))
            .unwrap();
        assert_eq!(ensemble.shots(), 2000);
        assert_eq!(ensemble.num_clbits(), 1);
        assert_eq!(ensemble.last_clbit(), Some(0));
        assert_eq!(ensemble.outcome_writes(0), 2000);
        let freq = ensemble.outcome_frequency(0).unwrap();
        assert!((freq - 0.5).abs() < 0.05, "fair coin, got {freq}");
        assert_eq!(ensemble.distinct_records(), 2);
        let total: u64 = ensemble.record_frequencies().map(|(_, n)| n).sum();
        assert_eq!(total, 2000);
        assert!(ensemble.outcome_frequency(3).is_none());
    }

    #[test]
    fn probes_arrive_in_shot_order_for_any_thread_count() {
        let circuit = coin_circuit();
        let runner = ShotRunner::new(257).with_threads(1);
        // On outcome 0 no correction runs and the qubit stays in |+⟩, so
        // `bit` legitimately has no definite answer there.
        let probe = |sim: &dyn Simulator, ex: &Executed| {
            (
                ex.outcome(0).unwrap(),
                sim.bit(mbu_circuit::QubitId(0)).ok(),
            )
        };
        // The sparse map cannot rejoin, so its shots run per shot; the
        // tracker's replay over the outcome DAG is split the same way.
        let sparse = || Box::new(crate::SparseVector::zeros(1).unwrap()) as Box<dyn Simulator>;
        let tracker = || Box::new(BasisTracker::zeros(1)) as Box<dyn Simulator>;
        for factory in [&sparse as Factory<'_>, &tracker] {
            let (_, serial) = runner.run_probed(&circuit, factory, probe).unwrap();
            let (_, parallel) = runner
                .with_threads(5)
                .run_probed(&circuit, factory, probe)
                .unwrap();
            assert_eq!(serial, parallel);
            assert_eq!(serial.len(), 257);
        }
    }

    #[test]
    fn errors_are_deterministic_and_lowest_shot_wins() {
        // A 2-qubit circuit on a 1-qubit simulator fails on every shot;
        // the reported error must be the same for any thread count.
        let mut b = CircuitBuilder::new();
        let q = b.qreg("q", 2);
        b.cx(q[0], q[1]);
        let circuit = b.finish();
        let factory = || Box::new(BasisTracker::zeros(1)) as Box<dyn Simulator>;
        let e1 = ShotRunner::new(64)
            .with_threads(1)
            .run(&circuit, factory)
            .unwrap_err();
        let e8 = ShotRunner::new(64)
            .with_threads(8)
            .run(&circuit, factory)
            .unwrap_err();
        assert_eq!(e1, e8);
    }

    #[test]
    fn schedule_prefers_shot_workers_then_amplitude_lanes() {
        let auto = ShotRunner::new(0).with_threads(8);
        // Many shots: the whole budget goes to shot workers.
        assert_eq!(auto.schedule(100), 8);
        assert_eq!(auto.schedule(8), 8);
        // Few shots: one worker per shot, never an idle one.
        assert_eq!(auto.schedule(4), 4);
        assert_eq!(auto.schedule(3), 3);
        assert_eq!(auto.schedule(1), 1);
        assert_eq!(auto.schedule(0), 1);
        // A serial budget stays serial however many shots there are.
        assert_eq!(auto.with_threads(1).schedule(u64::MAX), 1);
    }

    #[test]
    fn single_shot_with_many_workers_runs_and_matches_serial() {
        // Regression: shots < budget must not spawn workers for empty
        // shot ranges, and the lone probe arrives exactly once.
        let circuit = coin_circuit();
        let factory = || Box::new(BasisTracker::zeros(1)) as Box<dyn Simulator>;
        let probe = |_: &dyn Simulator, ex: &Executed| ex.outcome(0).unwrap();
        let (serial, obs_serial) = ShotRunner::new(1)
            .with_threads(1)
            .run_probed(&circuit, factory, probe)
            .unwrap();
        let (wide, obs_wide) = ShotRunner::new(1)
            .with_threads(8)
            .run_probed(&circuit, factory, probe)
            .unwrap();
        assert_eq!(serial, wide);
        assert_eq!(obs_serial, obs_wide);
        assert_eq!(obs_wide.len(), 1);
    }

    #[test]
    fn aggregates_are_identical_across_budget_splits() {
        // The same ensemble at several thread budgets, including budgets
        // that leave the shots unevenly split across workers, on the
        // state-vector backend: bit-identical.
        use crate::StateVector;
        let mut b = CircuitBuilder::new();
        let q = b.qreg("q", 3);
        b.h(q[0]);
        b.cx(q[0], q[1]);
        let _ = b.measure(q[1], Basis::Z);
        b.ccx(q[0], q[1], q[2]);
        let _ = b.measure(q[2], Basis::X);
        let circuit = b.finish();
        let factory = || Box::new(StateVector::zeros(3).unwrap()) as Box<dyn Simulator>;
        let base = ShotRunner::new(40)
            .with_threads(1)
            .run(&circuit, factory)
            .unwrap();
        for threads in [8, 2, 3] {
            let split = ShotRunner::new(40)
                .with_threads(threads)
                .run(&circuit, factory)
                .unwrap();
            assert_eq!(base, split, "budget {threads}");
        }
    }

    #[test]
    fn runner_honours_the_resolved_default() {
        // ShotRunner::new budgets one thread per CPU; the setter
        // overrides it, clamped to at least one thread.
        let runner = ShotRunner::new(10);
        assert_eq!(runner.threads, cpu_threads());
        assert_eq!(runner.with_threads(5).threads, 5);
        assert_eq!(runner.with_threads(0).threads, 1);
    }

    #[test]
    fn ensembles_fold_peak_amplitudes_across_shots() {
        // q0 is measured, dropped, and only then is q1 touched — so the
        // reclaiming state vector never holds both qubits at once and the
        // ensemble's peak-memory stat halves, with identical outcomes.
        use crate::StateVector;
        let mut b = CircuitBuilder::new();
        let q = b.qreg("q", 2);
        let _ = b.measure(q[0], Basis::Z);
        b.h(q[1]);
        let _ = b.measure(q[1], Basis::Z);
        let circuit = b.finish();
        let passes = mbu_circuit::PassConfig::default();
        let on = ShotRunner::new(50)
            .with_passes(passes)
            .run(&circuit, || Box::new(StateVector::zeros(2).unwrap()))
            .unwrap();
        let off = ShotRunner::new(50)
            .with_passes(mbu_circuit::PassConfig {
                reclaim_dead_qubits: false,
                ..passes
            })
            .run(&circuit, || Box::new(StateVector::zeros(2).unwrap()))
            .unwrap();
        assert_eq!(off.peak_amplitudes(), Some(4), "full 2^n without drops");
        assert_eq!(
            on.peak_amplitudes(),
            Some(2),
            "live set never exceeds one qubit"
        );
        assert_eq!(on.outcome_ones(0), off.outcome_ones(0));
        assert_eq!(on.outcome_ones(1), off.outcome_ones(1));
        assert_eq!(on.mean(), off.mean());

        // The other two backends report the same statistic in occupied
        // states: q1's |±⟩ excursion is the whole working set.
        let tracker = ShotRunner::new(10)
            .run(&circuit, || Box::new(BasisTracker::zeros(2)))
            .unwrap();
        assert_eq!(
            tracker.peak_amplitudes(),
            Some(2),
            "tracker censuses X-mode qubits"
        );
        let sparse = ShotRunner::new(10)
            .run(&circuit, || {
                Box::new(crate::SparseVector::zeros(2).unwrap())
            })
            .unwrap();
        assert_eq!(
            sparse.peak_amplitudes(),
            Some(2),
            "sparse map never materialises the dead half"
        );
    }

    #[test]
    fn opt_in_passes_shrink_executed_counts() {
        // X·X cancels under the default passes, so the optimised ensemble
        // executes no X at all while the lowered one executes two per shot.
        let mut b = CircuitBuilder::new();
        let q = b.qreg("q", 1);
        b.x(q[0]);
        b.x(q[0]);
        let _ = b.measure(q[0], Basis::Z);
        let circuit = b.finish();
        let factory = || Box::new(BasisTracker::zeros(1)) as Box<dyn Simulator>;

        let lowered = ShotRunner::new(50).run(&circuit, factory).unwrap();
        assert_eq!(lowered.mean().x, 2.0, "lowering preserves counts");

        let optimised = ShotRunner::new(50)
            .with_passes(mbu_circuit::PassConfig::default())
            .run(&circuit, factory)
            .unwrap();
        assert_eq!(optimised.mean().x, 0.0, "passes cancel the X pair");
        // Outcomes are untouched either way: the qubit measures 0.
        assert_eq!(optimised.outcome_ones(0), 0);
        assert_eq!(lowered.outcome_ones(0), 0);
    }

    #[test]
    fn invalid_circuits_fail_at_compile_time_not_per_shot() {
        use mbu_circuit::{Gate, Op, QubitId};
        let circuit = Circuit::from_ops(1, 0, vec![Op::Gate(Gate::Cx(QubitId(0), QubitId(5)))]);
        let err = ShotRunner::new(4)
            .run(&circuit, || Box::new(BasisTracker::zeros(1)))
            .unwrap_err();
        assert!(
            matches!(err, SimError::InvalidCircuit { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn the_shared_path_calls_the_factory_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let circuit = coin_circuit();
        let calls = AtomicUsize::new(0);
        let count = |shots: u64, tracker: bool| {
            calls.store(0, Ordering::Relaxed);
            ShotRunner::new(shots)
                .run(&circuit, || -> Box<dyn Simulator> {
                    calls.fetch_add(1, Ordering::Relaxed);
                    if tracker {
                        Box::new(BasisTracker::zeros(1))
                    } else {
                        Box::new(crate::StateVector::zeros(1).unwrap())
                    }
                })
                .unwrap();
            calls.load(Ordering::Relaxed)
        };
        // The tracker rejoins: one state for the whole ensemble, however
        // few shots it has.
        assert_eq!(count(500, true), 1);
        assert_eq!(count(3, true), 1);
        // A state vector cannot rejoin, so every shot prepares its own,
        // after the one state that was asked whether it can.
        assert_eq!(count(500, false), 501);
    }

    #[test]
    fn programs_with_drops_share_on_the_tracker() {
        // The reclaiming compile drops q0 once it is measured; the tracker
        // treats a `Drop` as a no-op, so the shared path serves the
        // program and matches per-shot runs bit for bit, peak included.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let mut b = CircuitBuilder::new();
        let q = b.qreg("q", 2);
        let _ = b.measure(q[0], Basis::Z);
        b.h(q[1]);
        let _ = b.measure(q[1], Basis::Z);
        let circuit = b.finish();
        let passes = PassConfig::default();
        let compiled = compile_for(&circuit, Some(passes)).unwrap();
        assert!(compiled.reclaims_qubits());
        let calls = AtomicUsize::new(0);
        let factory = || -> Box<dyn Simulator> {
            calls.fetch_add(1, Ordering::Relaxed);
            Box::new(BasisTracker::zeros(2))
        };
        let shared = ShotRunner::new(200)
            .with_passes(passes)
            .run(&circuit, factory)
            .unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 1, "the shared path");
        let (acc, _) =
            per_shot::<()>(&compiled, 200, DEFAULT_MASTER_SEED, 1, &factory, None).unwrap();
        assert_eq!(shared, Ensemble::from_acc(acc));
        assert_eq!(shared.peak_amplitudes(), Some(2));
    }

    #[test]
    fn zero_shot_runs_are_a_typed_error() {
        // Regression: a zero-shot "ensemble" used to come back as a bag of
        // silent zeros — `mean()` fabricated 0.0 and any frequency accessor
        // was a division by zero waiting to happen. It is now a typed
        // error, raised before any compile or thread-spawn work.
        let circuit = coin_circuit();
        let err = ShotRunner::new(0)
            .run(&circuit, || Box::new(BasisTracker::zeros(1)))
            .unwrap_err();
        assert_eq!(err, SimError::EmptyEnsemble);
        let err = ShotRunner::new(0)
            .run_probed(
                &circuit,
                || Box::new(BasisTracker::zeros(1)),
                |_, ex: &Executed| ex.counts.x,
            )
            .unwrap_err();
        assert_eq!(err, SimError::EmptyEnsemble);
    }
}
