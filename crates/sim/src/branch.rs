//! Branch-sharing shot ensembles: the branch-tree execution engine.
//!
//! The paper's MBU circuits are long deterministic arithmetic blocks
//! punctuated by a handful of mid-circuit ancilla measurements. The
//! [`ShotRunner`](crate::ShotRunner) re-executes the entire deterministic
//! prefix from scratch for every shot; this module shares it instead. The
//! compiled program's segmentation ([`CompiledCircuit::segments`]) yields
//! deterministic unitary runs between non-unitary barriers, and the
//! backends' [`measure_fork`](Simulator::measure_fork) produces *both*
//! post-measurement branches at each barrier — so [`BranchEnsemble`] walks
//! the resulting **outcome tree**, executing each unique measurement
//! history exactly once:
//!
//! * **exact mode** ([`BranchEnsemble::distribution`]) — consumes no
//!   randomness at all and returns the full outcome/record distribution
//!   with weights from the branch probabilities: Monte-Carlo answers with
//!   zero sampling noise;
//! * **sampled mode** ([`BranchEnsemble::run`]) — draws shot counts per
//!   leaf by replaying every shot's seeded RNG stream against the tree's
//!   branch probabilities (an exact multinomial sample over the leaves),
//!   producing an [`Ensemble`] whose classical aggregates are
//!   **bit-identical** to per-shot [`ShotRunner`](crate::ShotRunner)
//!   execution with the same master seed: the fork probabilities are the
//!   very values the sampling path would have handed to `gen_bool`, in the
//!   same order along every path.
//!
//! Branches whose conditional probability falls below the floor
//! ([`BranchEnsemble::with_eps`], default `1e-12`, `0` = full expansion
//! down to exactly-impossible branches) are pruned; their mass is tracked in
//! [`BranchDistribution::pruned_mass`], and a replayed shot that lands in
//! pruned territory quietly falls back to per-shot execution of exactly
//! that shot. When the tree would exceed the node budget, the sampled mode
//! falls back to per-shot Monte Carlo wholesale (the exact mode reports
//! [`SimError::BranchBudgetExceeded`]).
//!
//! The engine reuses the single thread budget of the shot engine: active
//! tree leaves are scheduled like shots, `min(leaves, B)` workers each
//! advancing whole trajectories.

use std::collections::BTreeMap;
use std::thread;

use mbu_circuit::{Basis, Circuit, CompiledCircuit, Gate, Instr, PassConfig, QubitId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::SimError;
use crate::exec::{self, Executed};
use crate::shots::{
    count_fields, cpu_threads, shot_seed, worker_count, Accumulator, CountStats, Ensemble,
    ShotRunner, DEFAULT_MASTER_SEED, NFIELDS,
};
use crate::simulator::{Fork, Simulator};

/// Default ceiling on materialised tree nodes (forks + leaves + pending
/// branches) before the engine declares the circuit too branchy for
/// tree execution: 4096 nodes cover 12 fully-random fork points, far past
/// any Table-1 workload (MBU modular adders fork a handful of times).
pub const DEFAULT_NODE_BUDGET: usize = 4096;

/// Default pruning floor for a branch's conditional probability, and the
/// ceiling [`BranchEnsemble::with_eps`] clamps to (pruning both children
/// of a fork must stay impossible).
const DEFAULT_BRANCH_EPS: f64 = 1e-12;
const MAX_BRANCH_EPS: f64 = 0.25;

/// A reference into the outcome tree.
#[derive(Clone, Copy, Debug)]
enum Link {
    /// A fork node (index into `Tree::forks`).
    Fork(usize),
    /// A finished trajectory (index into `Tree::leaves`).
    Leaf(usize),
    /// A branch dropped below the pruning floor.
    Pruned,
}

/// One randomness-consuming branch point: the probability its draw uses
/// and the two subtrees.
#[derive(Debug)]
struct ForkNode {
    /// The Born probability of outcome 1 — exactly the value the sampling
    /// path hands to `gen_bool` at this measurement.
    p_one: f64,
    /// Absolute probability mass pruned at this fork (path weight times
    /// the pruned children's conditional probability).
    pruned: f64,
    zero: Link,
    one: Link,
}

/// One complete measurement history.
#[derive(Debug)]
struct LeafNode {
    /// Path probability (product of branch probabilities).
    weight: f64,
    /// What the trajectory executed, or the error it died on (the same
    /// error a per-shot run of this history reports).
    result: Result<Executed, SimError>,
    /// The trajectory's occupancy high-water mark
    /// ([`Simulator::occupancy_peak`]), when the backend reports one — so
    /// sampled-mode ensembles can fold the same worst-case peak statistic
    /// per-shot execution reports, instead of losing it to sharing.
    peak: Option<u64>,
}

/// The fully built outcome tree.
#[derive(Debug)]
struct Tree {
    forks: Vec<ForkNode>,
    leaves: Vec<LeafNode>,
    root: Link,
}

impl Tree {
    fn set(&mut self, slot: Slot, link: Link) {
        match slot {
            Slot::Root => self.root = link,
            Slot::Zero(f) => self.forks[f].zero = link,
            Slot::One(f) => self.forks[f].one = link,
        }
    }

    fn node_count(&self) -> usize {
        self.forks.len() + self.leaves.len()
    }

    /// Leaf and fork indices in **canonical** traversal order: depth
    /// first, the outcome-0 subtree before the outcome-1 subtree at every
    /// fork. The build schedules work by thread availability, so the
    /// `forks`/`leaves` *storage* order depends on the thread budget —
    /// every aggregate that folds non-associative `f64`s must iterate in
    /// this canonical order instead, keeping exact-mode results
    /// bit-identical at any thread count.
    fn canonical_order(&self) -> (Vec<usize>, Vec<usize>) {
        let mut leaves = Vec::with_capacity(self.leaves.len());
        let mut forks = Vec::with_capacity(self.forks.len());
        let mut stack = vec![self.root];
        while let Some(link) = stack.pop() {
            match link {
                Link::Pruned => {}
                Link::Leaf(i) => leaves.push(i),
                Link::Fork(f) => {
                    forks.push(f);
                    // `zero` is pushed last so it pops (and emits) first.
                    stack.push(self.forks[f].one);
                    stack.push(self.forks[f].zero);
                }
            }
        }
        (leaves, forks)
    }
}

/// Where a work item's result will be linked into the tree.
#[derive(Clone, Copy, Debug)]
enum Slot {
    Root,
    Zero(usize),
    One(usize),
}

/// One active trajectory awaiting execution of its next segment run.
struct Work {
    slot: Slot,
    pc: usize,
    sim: Box<dyn Simulator + Send>,
    executed: Executed,
    weight: f64,
}

/// A forked child that has not run yet: its state, record so far, and the
/// conditional probability of its branch.
struct ChildSeed {
    sim: Box<dyn Simulator + Send>,
    executed: Executed,
    p: f64,
}

/// What advancing one trajectory to its next branch point produced.
/// (Boxed fork payload: the variant carries two whole child states and
/// would otherwise dwarf `Leaf`/`Unsupported`.)
enum Advanced {
    /// The trajectory finished (or died on an error), with its state's
    /// occupancy high-water mark ([`Simulator::occupancy_peak`]).
    Leaf(Result<Executed, SimError>, Option<u64>),
    /// The trajectory hit a randomness-consuming instruction and split.
    Fork(Box<ForkStep>),
    /// The backend declined `measure_fork`: no branch-sharing execution.
    Unsupported,
}

/// The payload of [`Advanced::Fork`].
struct ForkStep {
    p_one: f64,
    /// The surviving children (`None` = pruned), resuming at `pc`.
    zero: Option<ChildSeed>,
    one: Option<ChildSeed>,
    /// Conditional probability mass pruned at this fork.
    pruned: f64,
    pc: usize,
}

/// Writes a measurement outcome into a classical record, mirroring the
/// compiled executor's resize-and-store.
fn write_clbit(executed: &mut Executed, idx: usize, outcome: bool) {
    if executed.classical.len() <= idx {
        executed.classical.resize(idx + 1, None);
    }
    executed.classical[idx] = Some(outcome);
}

/// What a forking instruction leaves on each branch besides the projected
/// state.
#[derive(Clone, Copy)]
enum Settle {
    /// A measurement: each branch records its outcome in this clbit.
    Record(usize),
    /// A reset: the outcome-1 branch gets the corrective `X` on this
    /// qubit, and no record is written.
    Flip(QubitId),
}

impl Settle {
    /// Finishes the instruction on the branch that read `outcome`.
    fn apply(
        self,
        sim: &mut (dyn Simulator + Send),
        executed: &mut Executed,
        outcome: bool,
    ) -> Result<(), SimError> {
        match self {
            Settle::Record(idx) => write_clbit(executed, idx, outcome),
            Settle::Flip(q) if outcome => sim.apply_gate(&Gate::X(q))?,
            Settle::Flip(_) => {}
        }
        Ok(())
    }
}

/// Whether a branch with conditional probability `p` is dropped.
fn pruned(p: f64, eps: f64) -> bool {
    p <= eps || p <= 0.0
}

/// A finished (or failed) trajectory, with its state's peak.
fn leaf(sim: &(dyn Simulator + Send), result: Result<Executed, SimError>) -> Advanced {
    Advanced::Leaf(result, sim.occupancy_peak())
}

/// The fork step of a [`Fork::Split`] at `pc`: `sim` has become the
/// outcome-0 branch and `one` holds the outcome-1 branch. Each child below
/// the pruning floor is dropped with its mass; each survivor is settled
/// and resumes at `pc + 1`.
fn split(
    mut sim: Box<dyn Simulator + Send>,
    one: Option<Box<dyn Simulator + Send>>,
    mut executed: Executed,
    p_one: f64,
    settle: Settle,
    eps: f64,
    pc: usize,
) -> Advanced {
    let mut step = ForkStep {
        p_one,
        zero: None,
        one: None,
        pruned: 0.0,
        pc: pc + 1,
    };
    match one {
        // `one` is `None` exactly when the branch is impossible
        // (p_one == 0), which `pruned` always drops anyway.
        Some(mut one) if !pruned(p_one, eps) => {
            let mut executed = executed.clone();
            if let Err(e) = settle.apply(&mut *one, &mut executed, true) {
                return leaf(&*sim, Err(e));
            }
            step.one = Some(ChildSeed {
                sim: one,
                executed,
                p: p_one,
            });
        }
        _ => step.pruned += p_one.max(0.0),
    }
    // The receiver *is* the zero branch: its state and record move into
    // the outcome-0 seed.
    let p0 = 1.0 - p_one;
    if pruned(p0, eps) {
        step.pruned += p0.max(0.0);
    } else {
        if let Err(e) = settle.apply(&mut *sim, &mut executed, false) {
            return leaf(&*sim, Err(e));
        }
        step.zero = Some(ChildSeed {
            sim,
            executed,
            p: p0,
        });
    }
    Advanced::Fork(Box::new(step))
}

/// Runs one trajectory from `pc` until it finishes, errors, or forks,
/// consuming its state: a leaf reports the state's occupancy peak, a fork
/// moves it into the outcome-0 child. Unitary segments are applied
/// run-at-a-time via the compiled program's segmentation (`run_end[pc]`
/// is the end of the segment starting at `pc`); counts are tallied
/// exactly as the per-shot executor tallies them, so leaf records are
/// interchangeable with per-shot [`Executed`]s.
fn advance(
    compiled: &CompiledCircuit,
    run_end: &[usize],
    mut pc: usize,
    mut sim: Box<dyn Simulator + Send>,
    mut executed: Executed,
    eps: f64,
) -> Advanced {
    let instrs = compiled.instrs();
    while let Some(instr) = instrs.get(pc) {
        let (qubit, basis, settle) = match instr {
            Instr::Gate(_) | Instr::Fused(_) => {
                // A whole deterministic segment in one go.
                let end = run_end[pc];
                while pc < end {
                    match &instrs[pc] {
                        Instr::Gate(g) => {
                            if let Err(e) = sim.apply_gate(g) {
                                return leaf(&*sim, Err(e));
                            }
                            executed.counts.record_gate(g);
                        }
                        Instr::Fused(idx) => {
                            let fu = &compiled.fused_unitaries()[*idx as usize];
                            // One sweep per block on backends with a fused
                            // kernel (bit-identical to replaying the
                            // constituents); others replay via the trait
                            // default.
                            if let Err(e) = sim.apply_fused(fu) {
                                return leaf(&*sim, Err(e));
                            }
                            for g in fu.gates() {
                                executed.counts.record_gate(g);
                            }
                        }
                        _ => unreachable!("segments hold only unitary instructions"),
                    }
                    pc += 1;
                }
                continue;
            }
            Instr::Drop(_) => {
                pc += 1;
                continue;
            }
            Instr::BranchUnless { clbit, skip } => {
                let Some(bit) = executed.classical.get(clbit.index()).copied().flatten() else {
                    let e = SimError::UnwrittenClassicalBit { clbit: clbit.0 };
                    return leaf(&*sim, Err(e));
                };
                if !bit {
                    pc += *skip as usize;
                }
                pc += 1;
                continue;
            }
            Instr::Measure {
                qubit,
                basis,
                clbit,
            } => {
                executed.counts.record_measurement(*basis);
                (*qubit, *basis, Settle::Record(clbit.index()))
            }
            Instr::Reset(qubit) => {
                // Measure-and-flip semantics without a record.
                executed.counts.reset += 1;
                (*qubit, Basis::Z, Settle::Flip(*qubit))
            }
        };
        match sim.measure_fork(qubit, basis) {
            Err(e) => return leaf(&*sim, Err(e)),
            Ok(None) => return Advanced::Unsupported,
            Ok(Some(Fork::Definite(outcome))) => {
                // The backend consumed no randomness, so neither do we.
                if let Err(e) = settle.apply(&mut *sim, &mut executed, outcome) {
                    return leaf(&*sim, Err(e));
                }
                pc += 1;
            }
            Ok(Some(Fork::Split { p_one, one })) => {
                return split(sim, one, executed, p_one, settle, eps, pc);
            }
        }
    }
    leaf(&*sim, Ok(executed))
}

/// A seeded branch-tree ensemble scheduler: the branch-sharing counterpart
/// of [`ShotRunner`](crate::ShotRunner).
///
/// # Examples
///
/// The fair-coin statistics of an X-basis measurement, with zero sampling
/// noise — no RNG is consumed at all:
///
/// ```
/// use mbu_circuit::{Basis, CircuitBuilder};
/// use mbu_sim::{BasisTracker, BranchEnsemble};
///
/// let mut b = CircuitBuilder::new();
/// let q = b.qreg("q", 1);
/// let _flag = b.measure(q[0], Basis::X);
/// let circuit = b.finish();
///
/// let dist = BranchEnsemble::new(0)
///     .distribution(&circuit, || Box::new(BasisTracker::zeros(1)))
///     .unwrap();
/// assert_eq!(dist.outcome_frequency(0), Some(0.5)); // exactly
/// assert_eq!(dist.num_leaves(), 2);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct BranchEnsemble {
    shots: u64,
    master_seed: u64,
    /// Total thread budget for leaf workers.
    threads: usize,
    passes: Option<PassConfig>,
    eps: f64,
    node_budget: usize,
}

impl BranchEnsemble {
    /// A branch-tree scheduler whose sampled mode replays `shots` shots
    /// (the exact mode ignores the count — `new(0)` is fine for
    /// distribution-only use). Defaults mirror [`ShotRunner::new`]: the
    /// same master seed and one-thread-per-CPU budget, plus a `1e-12`
    /// pruning floor
    /// ([`with_eps`](Self::with_eps)) and the [`DEFAULT_NODE_BUDGET`] node
    /// budget.
    #[must_use]
    pub fn new(shots: u64) -> Self {
        Self {
            shots,
            master_seed: DEFAULT_MASTER_SEED,
            threads: cpu_threads(),
            passes: None,
            eps: DEFAULT_BRANCH_EPS,
            node_budget: DEFAULT_NODE_BUDGET,
        }
    }

    /// Replaces the master seed (sampled mode only — the exact mode is
    /// seedless). Equal master seeds reproduce a [`ShotRunner`] with the
    /// same seed bit-for-bit.
    #[must_use]
    pub fn with_master_seed(mut self, seed: u64) -> Self {
        self.master_seed = seed;
        self
    }

    /// Sets the total thread budget (clamped to at least 1); results never
    /// depend on it.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Enables peephole passes on the compiled program (mirrors
    /// [`ShotRunner::with_passes`]).
    #[must_use]
    pub fn with_passes(mut self, config: PassConfig) -> Self {
        self.passes = Some(config);
        self
    }

    /// Sets the pruning floor: a branch whose conditional probability is
    /// `≤ eps` is dropped from the tree (clamped into `[0, 0.25]` so both
    /// children of a fork can never prune at once). `0` keeps everything
    /// except exactly-impossible branches — full expansion.
    #[must_use]
    pub fn with_eps(mut self, eps: f64) -> Self {
        self.eps = eps.clamp(0.0, MAX_BRANCH_EPS);
        self
    }

    /// Sets the node budget: the maximum number of materialised tree
    /// nodes (forks, leaves and pending branches) before tree execution is
    /// abandoned (clamped to at least 1).
    #[must_use]
    pub fn with_node_budget(mut self, budget: usize) -> Self {
        self.node_budget = budget.max(1);
        self
    }

    /// The number of shots the sampled mode replays.
    #[must_use]
    pub fn shots(&self) -> u64 {
        self.shots
    }

    /// The active pruning floor.
    #[must_use]
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// The active node budget.
    #[must_use]
    pub fn node_budget(&self) -> usize {
        self.node_budget
    }

    /// The RNG seed the sampled mode uses for shot `shot` — identical to
    /// [`ShotRunner::seed_for_shot`] with the same master seed.
    #[must_use]
    pub fn seed_for_shot(&self, shot: u64) -> u64 {
        shot_seed(self.master_seed, shot)
    }

    fn compile(&self, circuit: &Circuit) -> Result<CompiledCircuit, SimError> {
        match self.passes {
            None => CompiledCircuit::lower(circuit),
            Some(config) => CompiledCircuit::with_config(circuit, &config),
        }
        .map_err(|e| SimError::InvalidCircuit { why: e.to_string() })
    }

    /// Builds the outcome tree: frontier rounds of active trajectories,
    /// each round scheduled under the shared thread budget (leaves like
    /// shots), results linked back in deterministic item order so the
    /// tree never depends on scheduling.
    fn build_tree<F>(&self, compiled: &CompiledCircuit, factory: &F) -> Result<Tree, SimError>
    where
        F: Fn() -> Box<dyn Simulator + Send> + Sync,
    {
        let root_sim = factory();
        // The tree walks programs through its own `advance` loop, not the
        // shared executor, so it runs the executor's entry checks itself.
        exec::check_width(compiled.num_qubits(), root_sim.num_qubits())?;
        exec::admit_compiled(compiled)?;
        // Segment lookup: run_end[pc] = end of the unitary run starting at
        // (or containing) pc. The walker only enters runs at segment
        // starts — barriers and branch targets are all segment boundaries.
        let mut run_end: Vec<usize> = (0..compiled.instrs().len()).collect();
        for seg in compiled.segments() {
            run_end[seg.start..seg.end].fill(seg.end);
        }
        let run_end = &run_end[..];

        let mut tree = Tree {
            forks: Vec::new(),
            leaves: Vec::new(),
            root: Link::Pruned,
        };
        let mut frontier = vec![Work {
            slot: Slot::Root,
            pc: 0,
            sim: root_sim,
            executed: Executed::default(),
            weight: 1.0,
        }];
        while !frontier.is_empty() {
            // Depth-first rounds: take the most recently forked branches
            // (at most one round's worth of workers), leaving the rest on
            // the stack. Subtrees finish before their siblings expand, so
            // the number of *live* states stays O(tree depth + threads)
            // instead of O(frontier width) — a breadth-first frontier on a
            // measurement-heavy circuit would hold thousands of amplitude
            // arrays at once before the node budget even tripped.
            let take = frontier.len().min(self.threads.max(1));
            let items: Vec<Work> = frontier.split_off(frontier.len() - take);
            let workers = worker_count(self.threads, items.len() as u64);
            let results = run_round(items, workers, compiled, run_end, self.eps);
            for (slot, weight, advanced) in results {
                match advanced {
                    Advanced::Unsupported => return Err(SimError::BranchUnsupported),
                    Advanced::Leaf(result, peak) => {
                        let i = tree.leaves.len();
                        tree.leaves.push(LeafNode {
                            weight,
                            result,
                            peak,
                        });
                        tree.set(slot, Link::Leaf(i));
                    }
                    Advanced::Fork(step) => {
                        let ForkStep {
                            p_one,
                            zero,
                            one,
                            pruned,
                            pc,
                        } = *step;
                        let f = tree.forks.len();
                        tree.forks.push(ForkNode {
                            p_one,
                            pruned: weight * pruned,
                            zero: Link::Pruned,
                            one: Link::Pruned,
                        });
                        tree.set(slot, Link::Fork(f));
                        for (seed, slot) in [(zero, Slot::Zero(f)), (one, Slot::One(f))] {
                            if let Some(seed) = seed {
                                frontier.push(Work {
                                    slot,
                                    pc,
                                    sim: seed.sim,
                                    executed: seed.executed,
                                    weight: weight * seed.p,
                                });
                            }
                        }
                    }
                }
            }
            // Budget check after every round, the last included. The
            // guarded quantity — materialised nodes plus pending branches
            // (each pending branch becomes at least one node) — is a
            // non-decreasing lower bound on the final tree size, so the
            // abort decision is a property of the tree: a program either
            // fits the budget under every schedule or trips it under
            // every schedule, never depending on the thread count.
            if tree.node_count() + frontier.len() > self.node_budget {
                return Err(SimError::BranchBudgetExceeded {
                    budget: self.node_budget,
                });
            }
        }
        Ok(tree)
    }

    /// **Exact mode**: walks every surviving measurement history once and
    /// returns the complete outcome/record distribution. Consumes no
    /// randomness — the method does not even take an RNG.
    ///
    /// # Errors
    ///
    /// [`SimError::BranchUnsupported`] if the backend declines
    /// [`measure_fork`](Simulator::measure_fork),
    /// [`SimError::BranchBudgetExceeded`] if the tree outgrows the node
    /// budget, or the first trajectory error in deterministic tree order
    /// (the same error per-shot execution of that history reports).
    pub fn distribution<F>(
        &self,
        circuit: &Circuit,
        factory: F,
    ) -> Result<BranchDistribution, SimError>
    where
        F: Fn() -> Box<dyn Simulator + Send> + Sync,
    {
        let compiled = self.compile(circuit)?;
        let tree = self.build_tree(&compiled, &factory)?;
        let (leaf_order, _) = tree.canonical_order();
        for &i in &leaf_order {
            if let Err(e) = &tree.leaves[i].result {
                return Err(e.clone());
            }
        }
        Ok(BranchDistribution::from_tree(tree))
    }

    /// **Sampled mode**: builds the tree once, then replays each of the
    /// `shots` seeded RNG streams against the fork probabilities — an
    /// exact multinomial draw of shot counts over the leaves whose
    /// classical aggregates (records, outcome counts, executed-count
    /// means/variances) are **bit-identical** to a
    /// [`ShotRunner`](crate::ShotRunner) with the same master seed,
    /// circuit and passes. Peak-memory statistics survive the sharing:
    /// each leaf records its trajectory's occupancy high-water mark
    /// ([`Simulator::occupancy_peak`]), so [`Ensemble::peak_amplitudes`]
    /// is the worst peak over the leaves the replayed shots actually
    /// landed in — `Some` wherever the backend reports occupancy, like
    /// per-shot execution. (A reclaiming dense backend is the one place
    /// the *value* can differ: tree mode never drops qubits mid-segment,
    /// so it reports the full array where a reclaiming per-shot run
    /// reports the compacted live set.)
    ///
    /// Falls back to per-shot Monte Carlo — delegating to an equivalently
    /// configured `ShotRunner`, still bit-identical — when the backend
    /// cannot fork or the tree exceeds the node budget. A single replayed
    /// shot that walks into pruned mass falls back for that shot alone.
    ///
    /// # Errors
    ///
    /// [`SimError::EmptyEnsemble`] for a zero-shot run, compile errors,
    /// or the error of the lowest-indexed failing shot.
    pub fn run<F>(&self, circuit: &Circuit, factory: F) -> Result<Ensemble, SimError>
    where
        F: Fn() -> Box<dyn Simulator + Send> + Sync,
    {
        if self.shots == 0 {
            return Err(SimError::EmptyEnsemble);
        }
        let compiled = self.compile(circuit)?;
        let tree = match self.build_tree(&compiled, &factory) {
            Ok(tree) => tree,
            Err(SimError::BranchUnsupported | SimError::BranchBudgetExceeded { .. }) => {
                return self.monte_carlo(circuit, &factory);
            }
            Err(e) => return Err(e),
        };
        let mut acc = Accumulator::default();
        let mut first_error: Option<SimError> = None;
        for shot in 0..self.shots {
            let seed = self.seed_for_shot(shot);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut link = tree.root;
            loop {
                match link {
                    Link::Fork(f) => {
                        let node = &tree.forks[f];
                        link = if rng.gen_bool(node.p_one.clamp(0.0, 1.0)) {
                            node.one
                        } else {
                            node.zero
                        };
                    }
                    Link::Leaf(i) => {
                        match &tree.leaves[i].result {
                            Ok(executed) => acc.add_shot(executed, tree.leaves[i].peak),
                            Err(e) => {
                                if first_error.is_none() {
                                    first_error = Some(e.clone());
                                }
                            }
                        }
                        break;
                    }
                    Link::Pruned => {
                        // The shot drew into mass the tree dropped: run
                        // exactly this shot per-shot, from its own seed —
                        // identical to what the ShotRunner would have done
                        // with the same shot index.
                        let mut sim = factory();
                        let mut rng = StdRng::seed_from_u64(seed);
                        match sim.run_compiled(&compiled, &mut rng) {
                            Ok(executed) => acc.add_shot(&executed, sim.peak_amplitudes()),
                            Err(e) => {
                                if first_error.is_none() {
                                    first_error = Some(e);
                                }
                            }
                        }
                        break;
                    }
                }
            }
        }
        if let Some(e) = first_error {
            return Err(e);
        }
        Ok(Ensemble::from_acc(acc))
    }

    /// The wholesale per-shot fallback: a [`ShotRunner`] configured
    /// identically, so the result is what tree execution would have
    /// replayed.
    fn monte_carlo<F>(&self, circuit: &Circuit, factory: &F) -> Result<Ensemble, SimError>
    where
        F: Fn() -> Box<dyn Simulator + Send> + Sync,
    {
        let mut runner = ShotRunner::new(self.shots)
            .with_master_seed(self.master_seed)
            .with_threads(self.threads);
        if let Some(passes) = self.passes {
            runner = runner.with_passes(passes);
        }
        runner.run(circuit, || -> Box<dyn Simulator> { factory() })
    }
}

/// Executes one frontier round: `workers` scoped threads over contiguous
/// item chunks. Results come back in item order regardless of
/// scheduling.
fn run_round(
    items: Vec<Work>,
    workers: usize,
    compiled: &CompiledCircuit,
    run_end: &[usize],
    eps: f64,
) -> Vec<(Slot, f64, Advanced)> {
    let advance_item = |work: Work| -> (Slot, f64, Advanced) {
        let advanced = advance(compiled, run_end, work.pc, work.sim, work.executed, eps);
        (work.slot, work.weight, advanced)
    };
    if workers <= 1 || items.len() <= 1 {
        return items.into_iter().map(advance_item).collect();
    }
    let workers = workers.min(items.len());
    let per = items.len() / workers;
    let extra = items.len() % workers;
    let mut chunks: Vec<Vec<Work>> = Vec::with_capacity(workers);
    let mut items = items.into_iter();
    for w in 0..workers {
        let len = per + usize::from(w < extra);
        chunks.push(items.by_ref().take(len).collect());
    }
    thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| scope.spawn(|| chunk.into_iter().map(advance_item).collect::<Vec<_>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| {
                h.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    })
}

/// The exact outcome distribution of a circuit: one entry per surviving
/// measurement history, weighted by its path probability. Produced by
/// [`BranchEnsemble::distribution`] with **zero** sampling noise and zero
/// RNG consumption.
#[derive(Debug)]
pub struct BranchDistribution {
    /// `(weight, executed)` per leaf, in canonical tree order (depth
    /// first, outcome 0 before outcome 1) — independent of how the build
    /// was scheduled.
    leaves: Vec<(f64, Executed)>,
    /// Classical records aggregated over leaves (distinct histories can
    /// share a record when a reset forks without writing a bit).
    records: BTreeMap<Vec<Option<bool>>, f64>,
    total_weight: f64,
    pruned_mass: f64,
    fork_nodes: usize,
}

impl BranchDistribution {
    fn from_tree(tree: Tree) -> Self {
        // Canonical traversal order for every `f64` fold: the tree's
        // storage order depends on build scheduling, and summing weights
        // in a schedule-dependent order would make exact-mode aggregates
        // drift by ulps across thread budgets.
        let (leaf_order, fork_order) = tree.canonical_order();
        let fork_nodes = tree.forks.len();
        let pruned_mass: f64 = fork_order.iter().map(|&f| tree.forks[f].pruned).sum();
        let mut slots: Vec<Option<LeafNode>> = tree.leaves.into_iter().map(Some).collect();
        let leaves: Vec<(f64, Executed)> = leaf_order
            .iter()
            .map(|&i| {
                // Panic triage: both expects guard tree-construction
                // invariants (`canonical_order` visits each leaf once, and
                // the walk returns `Err` before building an ensemble when
                // any leaf failed) — no simulator input reaches them.
                let leaf = slots[i].take().expect("each leaf linked exactly once");
                let executed = leaf
                    .result
                    .expect("error leaves surfaced before construction");
                (leaf.weight, executed)
            })
            .collect();
        let mut records = BTreeMap::new();
        let mut total_weight = 0.0;
        for (weight, executed) in &leaves {
            *records.entry(executed.classical.clone()).or_insert(0.0) += weight;
            total_weight += weight;
        }
        Self {
            leaves,
            records,
            total_weight,
            pruned_mass,
            fork_nodes,
        }
    }

    /// The number of surviving measurement histories.
    #[must_use]
    pub fn num_leaves(&self) -> usize {
        self.leaves.len()
    }

    /// The number of randomness-consuming branch points explored.
    #[must_use]
    pub fn fork_nodes(&self) -> usize {
        self.fork_nodes
    }

    /// Total probability mass of the surviving leaves (1 minus the pruned
    /// mass, up to floating-point addition).
    #[must_use]
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }

    /// Probability mass dropped by pruning below the
    /// [`with_eps`](BranchEnsemble::with_eps) floor.
    #[must_use]
    pub fn pruned_mass(&self) -> f64 {
        self.pruned_mass
    }

    /// The leaves: `(weight, executed record)` per measurement history, in
    /// canonical tree order (depth first, outcome 0 before outcome 1).
    pub fn leaves(&self) -> impl Iterator<Item = (f64, &Executed)> {
        self.leaves.iter().map(|(w, e)| (*w, e))
    }

    /// The exact expected executed count per operation family — what a
    /// Monte-Carlo [`Ensemble::mean`](crate::Ensemble::mean) estimates
    /// with sampling noise, computed here as a weighted average over
    /// measurement histories.
    #[must_use]
    pub fn mean_counts(&self) -> CountStats {
        let mut sums = [0.0f64; NFIELDS];
        for (weight, executed) in &self.leaves {
            for (sum, field) in sums.iter_mut().zip(count_fields(&executed.counts)) {
                *sum += weight * field as f64;
            }
        }
        let total = self.total_weight.max(f64::MIN_POSITIVE);
        CountStats::from_fields(std::array::from_fn(|i| sums[i] / total))
    }

    /// The exact probability that classical bit `clbit` reads 1, among the
    /// histories that wrote it; `None` if no surviving history did.
    #[must_use]
    pub fn outcome_frequency(&self, clbit: usize) -> Option<f64> {
        let mut wrote = 0.0f64;
        let mut ones = 0.0f64;
        for (weight, executed) in &self.leaves {
            if let Some(Some(bit)) = executed.classical.get(clbit) {
                wrote += weight;
                if *bit {
                    ones += weight;
                }
            }
        }
        (wrote > 0.0).then(|| ones / wrote)
    }

    /// Exact frequencies of complete classical records (normalised over
    /// the surviving mass), in record order.
    pub fn record_frequencies(&self) -> impl Iterator<Item = (&[Option<bool>], f64)> {
        let total = self.total_weight.max(f64::MIN_POSITIVE);
        self.records
            .iter()
            .map(move |(k, w)| (k.as_slice(), w / total))
    }

    /// The number of distinct complete classical records.
    #[must_use]
    pub fn distinct_records(&self) -> usize {
        self.records.len()
    }

    /// The number of classical bits any history wrote.
    #[must_use]
    pub fn num_clbits(&self) -> usize {
        self.leaves
            .iter()
            .map(|(_, e)| e.classical.len())
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BasisTracker, StateVector};
    use mbu_circuit::CircuitBuilder;

    /// The fair-coin circuit of the shot-engine tests: X-measure |0⟩, with
    /// a conditional correction so the branches execute different counts.
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

    fn tracker_factory(n: usize) -> impl Fn() -> Box<dyn Simulator + Send> + Sync {
        move || Box::new(BasisTracker::zeros(n))
    }

    /// The classical face of an ensemble: the aggregates the bit-identity
    /// contract covers (shots, count moments, records). Peak-memory stats
    /// are asserted separately — they match on these workloads too, but
    /// through leaf occupancy peaks rather than shot-by-shot identity.
    fn classical_face(e: &crate::Ensemble) -> impl PartialEq + std::fmt::Debug {
        let records: Vec<(Vec<Option<bool>>, u64)> = e
            .record_frequencies()
            .map(|(r, n)| (r.to_vec(), n))
            .collect();
        (e.shots(), e.mean(), e.variance(), records)
    }

    #[test]
    fn exact_coin_distribution_is_noise_free() {
        let dist = BranchEnsemble::new(0)
            .distribution(&coin_circuit(), tracker_factory(1))
            .unwrap();
        assert_eq!(dist.num_leaves(), 2);
        assert_eq!(dist.fork_nodes(), 1);
        assert_eq!(dist.outcome_frequency(0), Some(0.5));
        assert_eq!(dist.pruned_mass(), 0.0);
        assert!((dist.total_weight() - 1.0).abs() < 1e-15);
        // The conditional branch (1 H + 1 X) runs with probability exactly
        // ½ — the Bernoulli mean with no sampling error at all.
        assert_eq!(dist.mean_counts().x, 0.5);
        assert_eq!(dist.mean_counts().h, 0.5);
        assert_eq!(dist.mean_counts().measure_x, 1.0);
        let records: Vec<_> = dist.record_frequencies().collect();
        assert_eq!(records.len(), 2);
        assert!(records.iter().all(|(_, f)| (f - 0.5).abs() < 1e-15));
    }

    #[test]
    fn sampled_mode_is_bit_identical_to_per_shot_execution() {
        let circuit = coin_circuit();
        for seed in [0u64, 7, 99] {
            let branch = BranchEnsemble::new(500)
                .with_master_seed(seed)
                .run(&circuit, tracker_factory(1))
                .unwrap();
            let per_shot = ShotRunner::new(500)
                .with_master_seed(seed)
                .run(&circuit, || Box::new(BasisTracker::zeros(1)))
                .unwrap();
            assert_eq!(
                classical_face(&branch),
                classical_face(&per_shot),
                "seed {seed}"
            );
            // Peak stats survive the sharing: leaves record occupancy
            // peaks, so the tree reports the same worst case the per-shot
            // census does.
            assert_eq!(branch.peak_amplitudes(), Some(2), "seed {seed}");
            assert_eq!(per_shot.peak_amplitudes(), Some(2), "seed {seed}");
        }
    }

    #[test]
    fn definite_measurements_do_not_fork_the_tracker() {
        // Z-measuring definite bits is deterministic for the tracker: one
        // leaf, no fork nodes, no RNG replay divergence.
        let mut b = CircuitBuilder::new();
        let q = b.qreg("q", 2);
        b.x(q[1]);
        let _ = b.measure(q[0], Basis::Z);
        let _ = b.measure(q[1], Basis::Z);
        let circuit = b.finish();
        let dist = BranchEnsemble::new(0)
            .distribution(&circuit, tracker_factory(2))
            .unwrap();
        assert_eq!(dist.num_leaves(), 1);
        assert_eq!(dist.fork_nodes(), 0);
        assert_eq!(dist.outcome_frequency(0), Some(0.0));
        assert_eq!(dist.outcome_frequency(1), Some(1.0));
        // And replay matches the shot engine bit for bit.
        let branch = BranchEnsemble::new(64)
            .run(&circuit, tracker_factory(2))
            .unwrap();
        let per_shot = ShotRunner::new(64)
            .run(&circuit, || Box::new(BasisTracker::zeros(2)))
            .unwrap();
        assert_eq!(classical_face(&branch), classical_face(&per_shot));
        assert_eq!(per_shot.peak_amplitudes(), Some(1), "all-definite run");
        assert_eq!(branch.peak_amplitudes(), Some(1), "all-definite tree");
    }

    #[test]
    fn shared_trajectory_ensembles_report_peak_occupancy() {
        // Regression: tree-mode ensembles used to report `None` for the
        // peak stat on every backend. Each backend that tracks occupancy
        // must now surface the same `Some` the shot engine reports.
        let circuit = coin_circuit();
        let tracker = BranchEnsemble::new(50)
            .run(&circuit, tracker_factory(1))
            .unwrap();
        assert_eq!(tracker.peak_amplitudes(), Some(2), "|±⟩ excursion");
        let dense = BranchEnsemble::new(50)
            .run(&circuit, || {
                Box::new(StateVector::zeros(1).unwrap()) as Box<dyn Simulator + Send>
            })
            .unwrap();
        assert_eq!(dense.peak_amplitudes(), Some(2), "full 1-qubit array");
        let sparse = BranchEnsemble::new(50)
            .run(&circuit, || {
                Box::new(crate::SparseVector::zeros(1).unwrap()) as Box<dyn Simulator + Send>
            })
            .unwrap();
        assert_eq!(sparse.peak_amplitudes(), Some(2), "both entries occupied");
        let phase = BranchEnsemble::new(50)
            .run(&circuit, || {
                Box::new(crate::PhaseAccumulator::zeros(1).unwrap()) as Box<dyn Simulator + Send>
            })
            .unwrap();
        assert_eq!(phase.peak_amplitudes(), Some(2), "both branches occupied");
    }

    #[test]
    fn phase_leaves_census_occupied_branches_not_the_hilbert_space() {
        // Regression for the phase-representation census: a branch tree
        // over [`crate::PhaseAccumulator`] leaves must aggregate the
        // *occupied-branch* peak (2 here — one coin), not the dense
        // dimension 2^100 (which doesn't even fit the `u64` the stat rides
        // in). The width is far past every dense cap, so a wrong
        // aggregation path would either overflow or refuse outright.
        let mut b = CircuitBuilder::new();
        let q = b.qreg("q", 100);
        b.h(q[0]);
        // A diagonal tail in Fourier mode: phases fold into the branch
        // accumulators without any occupancy growth.
        for i in 1..40 {
            b.cx(q[0], q[i]);
        }
        let _ = b.measure(q[0], Basis::Z);
        let circuit = b.finish();
        let tree = BranchEnsemble::new(32)
            .run(&circuit, || {
                Box::new(crate::PhaseAccumulator::zeros(100).unwrap()) as Box<dyn Simulator + Send>
            })
            .unwrap();
        assert_eq!(tree.peak_amplitudes(), Some(2), "occupied census, not 2^n");
        let dist = BranchEnsemble::new(0)
            .distribution(&circuit, || {
                Box::new(crate::PhaseAccumulator::zeros(100).unwrap()) as Box<dyn Simulator + Send>
            })
            .unwrap();
        assert_eq!(dist.num_leaves(), 2);
        assert_eq!(dist.fork_nodes(), 1);
        // `(√½)²` in floats, not exactly ½ — the phase backend's branch
        // weights are amplitude norms like every amplitude backend's.
        let p0 = dist.outcome_frequency(0).unwrap();
        assert!((p0 - 0.5).abs() < 1e-12, "got {p0}");
    }

    #[test]
    fn state_vector_trees_match_tracker_trees() {
        let circuit = coin_circuit();
        let sv_dist = BranchEnsemble::new(0)
            .distribution(&circuit, || {
                Box::new(StateVector::zeros(1).unwrap()) as Box<dyn Simulator + Send>
            })
            .unwrap();
        assert_eq!(sv_dist.num_leaves(), 2);
        let f = sv_dist.outcome_frequency(0).unwrap();
        assert!((f - 0.5).abs() < 1e-12, "got {f}");
    }

    #[test]
    fn resets_fork_and_rejoin_with_identical_records() {
        // H then reset: the reset forks (the qubit is superposed) but
        // writes no classical bit, so both histories share the record.
        let mut b = CircuitBuilder::new();
        let q = b.qreg("q", 1);
        b.h(q[0]);
        b.reset(q[0]);
        let m = b.measure(q[0], Basis::Z);
        let _ = m;
        let circuit = b.finish();
        let factory = || Box::new(StateVector::zeros(1).unwrap()) as Box<dyn Simulator + Send>;
        let dist = BranchEnsemble::new(0)
            .distribution(&circuit, factory)
            .unwrap();
        // Reset forks once; the post-reset Z measure is p=0/1 per branch
        // (the state vector always splits, but one side is impossible and
        // pruned), leaving two surviving histories with one record.
        assert_eq!(dist.distinct_records(), 1);
        assert_eq!(dist.outcome_frequency(0), Some(0.0));
        // Sampled mode still replays per-shot RNG identically (the reset
        // consumes one draw per shot on the sampling path).
        let branch = BranchEnsemble::new(200).run(&circuit, factory).unwrap();
        let per_shot = ShotRunner::new(200)
            .run(&circuit, || Box::new(StateVector::zeros(1).unwrap()))
            .unwrap();
        assert_eq!(
            branch.record_frequencies().collect::<Vec<_>>(),
            per_shot.record_frequencies().collect::<Vec<_>>()
        );
        assert_eq!(branch.mean(), per_shot.mean());
        assert_eq!(branch.variance(), per_shot.variance());
    }

    #[test]
    fn node_budget_is_a_typed_error_exactly_and_a_fallback_when_sampling() {
        let circuit = coin_circuit();
        let tight = BranchEnsemble::new(100).with_node_budget(1);
        let err = tight
            .distribution(&circuit, tracker_factory(1))
            .unwrap_err();
        assert_eq!(err, SimError::BranchBudgetExceeded { budget: 1 });
        // Sampled mode falls back to per-shot Monte Carlo — bit-identical
        // to the ShotRunner, peak stats included (it *is* the ShotRunner).
        let fell_back = tight.run(&circuit, tracker_factory(1)).unwrap();
        let per_shot = ShotRunner::new(100)
            .run(&circuit, || Box::new(BasisTracker::zeros(1)))
            .unwrap();
        assert_eq!(fell_back, per_shot);
    }

    #[test]
    fn backends_without_fork_support_fall_back() {
        /// A backend that answers everything but declines to fork.
        struct NoFork;
        impl Simulator for NoFork {
            fn num_qubits(&self) -> usize {
                8
            }
            fn apply_gate(&mut self, _g: &Gate) -> Result<(), SimError> {
                Ok(())
            }
            fn measure(
                &mut self,
                _q: mbu_circuit::QubitId,
                _b: Basis,
                draw: &mut dyn FnMut(f64) -> bool,
            ) -> Result<bool, SimError> {
                Ok(draw(0.5))
            }
            fn reset(
                &mut self,
                _q: mbu_circuit::QubitId,
                _d: &mut dyn FnMut(f64) -> bool,
            ) -> Result<(), SimError> {
                Ok(())
            }
            fn set_bit(&mut self, _q: mbu_circuit::QubitId, _v: bool) -> Result<(), SimError> {
                Ok(())
            }
            fn bit(&self, _q: mbu_circuit::QubitId) -> Result<bool, SimError> {
                Ok(false)
            }
            fn global_phase(&self) -> Option<mbu_circuit::Angle> {
                None
            }
        }
        let circuit = coin_circuit();
        let runner = BranchEnsemble::new(50);
        let err = runner
            .distribution(&circuit, || Box::new(NoFork))
            .unwrap_err();
        assert_eq!(err, SimError::BranchUnsupported);
        let fell_back = runner.run(&circuit, || Box::new(NoFork)).unwrap();
        let per_shot = ShotRunner::new(50)
            .run(&circuit, || Box::new(NoFork))
            .unwrap();
        assert_eq!(fell_back, per_shot);
    }

    #[test]
    fn zero_shot_sampled_runs_are_a_typed_error() {
        let err = BranchEnsemble::new(0)
            .run(&coin_circuit(), tracker_factory(1))
            .unwrap_err();
        assert_eq!(err, SimError::EmptyEnsemble);
    }

    #[test]
    fn full_expansion_keeps_only_possible_branches() {
        // A definite Z-measurement on the state vector always Splits, but
        // the impossible side has p = 0 exactly: pruned even at eps = 0,
        // keeping full expansion finite on deterministic circuits.
        let mut b = CircuitBuilder::new();
        let q = b.qreg("q", 1);
        b.x(q[0]);
        let _ = b.measure(q[0], Basis::Z);
        let circuit = b.finish();
        let dist = BranchEnsemble::new(0)
            .with_eps(0.0)
            .distribution(&circuit, || {
                Box::new(StateVector::zeros(1).unwrap()) as Box<dyn Simulator + Send>
            })
            .unwrap();
        assert_eq!(dist.num_leaves(), 1);
        assert_eq!(dist.fork_nodes(), 1, "the draw still happens on replay");
        assert_eq!(dist.outcome_frequency(0), Some(1.0));
        assert_eq!(dist.pruned_mass(), 0.0);
    }

    #[test]
    fn parallel_tree_builds_match_serial_ones() {
        // Three forks → up to 8 leaves: enough frontier width to schedule
        // real worker rounds. The distribution must be identical at any
        // thread budget.
        let mut b = CircuitBuilder::new();
        let q = b.qreg("q", 3);
        for i in 0..3 {
            let _ = b.measure(q[i], Basis::X);
        }
        let circuit = b.finish();
        let serial = BranchEnsemble::new(0)
            .with_threads(1)
            .distribution(&circuit, tracker_factory(3))
            .unwrap();
        for threads in [2, 4, 8] {
            let parallel = BranchEnsemble::new(0)
                .with_threads(threads)
                .distribution(&circuit, tracker_factory(3))
                .unwrap();
            assert_eq!(parallel.num_leaves(), serial.num_leaves());
            let s: Vec<_> = serial
                .record_frequencies()
                .map(|(r, f)| (r.to_vec(), f))
                .collect();
            let p: Vec<_> = parallel
                .record_frequencies()
                .map(|(r, f)| (r.to_vec(), f))
                .collect();
            assert_eq!(s, p, "threads {threads}");
        }
    }

    #[test]
    fn exact_aggregates_are_bit_identical_across_thread_budgets() {
        // Non-dyadic fork probabilities (cos²(π/8) from an H·R·H
        // sandwich): summing leaf weights in build-schedule order would
        // drift by ulps between thread budgets. The canonical-order folds
        // must make every exact aggregate bit-identical instead.
        use mbu_circuit::Angle;
        let mut b = CircuitBuilder::new();
        let q = b.qreg("q", 2);
        for i in 0..2 {
            b.h(q[i]);
            b.phase(q[i], Angle::turn_over_power_of_two(3));
            b.h(q[i]);
        }
        let _ = b.measure(q[0], Basis::Z);
        let _ = b.measure(q[1], Basis::X);
        let circuit = b.finish();
        let factory = || Box::new(StateVector::zeros(2).unwrap()) as Box<dyn Simulator + Send>;
        let base = BranchEnsemble::new(0)
            .with_threads(1)
            .distribution(&circuit, factory)
            .unwrap();
        assert_eq!(base.num_leaves(), 4, "two genuine forks");
        for threads in [2, 3, 8] {
            let d = BranchEnsemble::new(0)
                .with_threads(threads)
                .distribution(&circuit, factory)
                .unwrap();
            assert_eq!(d.mean_counts(), base.mean_counts(), "threads {threads}");
            assert_eq!(d.total_weight().to_bits(), base.total_weight().to_bits());
            assert_eq!(d.pruned_mass().to_bits(), base.pruned_mass().to_bits());
            let rb: Vec<_> = base
                .record_frequencies()
                .map(|(r, f)| (r.to_vec(), f.to_bits()))
                .collect();
            let rd: Vec<_> = d
                .record_frequencies()
                .map(|(r, f)| (r.to_vec(), f.to_bits()))
                .collect();
            assert_eq!(rb, rd, "threads {threads}");
            let lb: Vec<_> = base
                .leaves()
                .map(|(w, e)| (w.to_bits(), e.clone()))
                .collect();
            let ld: Vec<_> = d.leaves().map(|(w, e)| (w.to_bits(), e.clone())).collect();
            assert_eq!(lb, ld, "threads {threads}: canonical leaf order");
        }
    }

    #[test]
    fn eps_is_clamped_below_a_double_prune() {
        assert_eq!(BranchEnsemble::new(1).eps(), 1e-12, "the default floor");
        let runner = BranchEnsemble::new(1).with_eps(0.9);
        assert!(runner.eps() <= 0.25);
        let runner = runner.with_eps(-1.0);
        assert_eq!(runner.eps(), 0.0);
    }
}
