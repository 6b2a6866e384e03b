//! Branch-sharing shot ensembles: the outcome DAG.
//!
//! The paper's MBU circuits are long deterministic arithmetic blocks
//! punctuated by mid-circuit measurements and resets. A per-shot run
//! re-executes all of it for every shot; this module shares it instead.
//! Wherever a shot would draw, the backend's
//! [`measure_fork`](Simulator::measure_fork) produces *both*
//! post-measurement branches, and each branch runs on to its own next
//! draw. The result is an **outcome DAG**: a fork node carries the
//! probability the shot's draw uses, an edge carries what every shot
//! crossing it executes (gate counts and classical writes), and a leaf
//! holds the end of a trajectory, or the error it died on.
//!
//! Trajectories rejoin. Lemma 4.1 of the source paper leaves both
//! measurement branches in the same state once the outcome-dependent
//! correction has run, and Gidney's logical-AND uncomputation has the same
//! shape. Where the backend can tell ([`Simulator::same_state`]), the DAG
//! is built in program-counter order, and a trajectory that reaches a fork
//! (or the end) merges into a node already there when both children are
//! bitwise equal states with equal occupancy peaks that agree on every
//! classical bit a later branch still reads: from there on both futures
//! are identical. A chain of such diamonds costs O(measurements) nodes
//! where the outcome tree has 2^measurements leaves. Backends that cannot
//! rejoin build the plain tree, depth first, so only O(depth) states are
//! alive at once. Either way the DAG is built on the calling thread, from
//! a root whose occupancy high-water mark starts where a compiled run
//! starts it.
//!
//! The DAG is flat: a fork is its draw probability and two
//! `(next, payload)` edges, each distinct edge gate count is stored once
//! (the payload indexes it), and every edge's classical writes sit in one
//! array. A replayed shot tallies the payloads it crosses and multiplies
//! its counts out once, at the end, so it costs little more than its
//! draws. Where both edges of a fork lead to one node, the walk's next
//! step does not wait on the draw.
//!
//! * **exact mode** ([`BranchEnsemble::distribution`]) consumes no
//!   randomness at all: it enumerates the DAG's paths (the outcome tree)
//!   and returns the full outcome/record distribution weighted by the
//!   branch probabilities — Monte-Carlo answers with zero sampling noise;
//! * **sampled mode** ([`BranchEnsemble::run`], and the
//!   [`ShotRunner`](crate::ShotRunner) wherever it shares) replays every
//!   shot's seeded RNG stream over the DAG. Each fork draws `gen_bool`
//!   with the very probability the sampling path computes, in the same
//!   order, and the edges a shot crosses sum to exactly the [`Executed`]
//!   record its per-shot run produces, so the aggregates are
//!   **bit-identical** to per-shot execution with the same master seed.
//!   The shots split into contiguous ranges over the thread budget, as
//!   per-shot runs do, and each replay worker probes its own shots.
//!
//! Branches whose conditional probability falls below the floor
//! ([`BranchEnsemble::with_eps`], default `1e-12`, `0` = full expansion
//! down to exactly-impossible branches) are pruned; their mass is tracked in
//! [`BranchDistribution::pruned_mass`], and a replayed shot that lands in
//! pruned mass runs per shot, alone. The node budget bounds the DAG (with
//! the trajectories still running) while it is built: past it, or past
//! what its `u32` indices hold, the sampled mode runs every shot per shot
//! instead, and the exact mode, whose output is the whole tree, reports
//! [`SimError::BranchBudgetExceeded`] once either the DAG or the tree
//! outgrows the budget.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};

use mbu_circuit::{Basis, Circuit, CompiledCircuit, Gate, GateCounts, Instr, PassConfig, QubitId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::SimError;
use crate::exec::{self, Executed};
use crate::shots::{
    compile_for, count_fields, cpu_threads, gate_counts, in_chunks, one_shot, per_shot, shot_seed,
    worker_count, Accumulator, CountStats, Ensemble, Factory, Probe, DEFAULT_MASTER_SEED, NFIELDS,
};
use crate::simulator::{Fork, Simulator};
use crate::{BasisTracker, PhaseAccumulator, SparseVector};

/// Default ceiling on DAG nodes (forks and leaves, plus the trajectories
/// still running) before the engine declares the circuit too branchy to
/// share. A DAG that rejoins fits the Table-1 rows at n = 64 with room to
/// spare: the Gidney row has 513 fork points, and its tracker DAG has 257
/// forks and 2 leaves. The exact mode's outcome *tree* fits only 12
/// fully-random fork points.
pub const DEFAULT_NODE_BUDGET: usize = 4096;

/// Default pruning floor for a branch's conditional probability, and the
/// ceiling [`BranchEnsemble::with_eps`] clamps to (pruning both children
/// of a fork must stay impossible).
pub(crate) const DEFAULT_BRANCH_EPS: f64 = 1e-12;
const MAX_BRANCH_EPS: f64 = 0.25;

/// The tag of an edge's `next` that ends in a leaf: the bits below it
/// hold the leaf's index.
const LEAF: u32 = 1u32 << 31;

/// The `next` of a pruned edge, and of an edge not laid yet.
const PRUNED: u32 = u32::MAX;

/// Distinct paths per probe batch of a replay worker: a worker probes the
/// first shot of each path in a batch and clones that observation for the
/// batch's later shots of the path, so this bounds the paths (and the
/// records) it keeps.
const PROBE_BATCH: usize = 64;

/// One edge: the node it ends in and what a shot crossing it executes.
#[derive(Clone, Copy, Debug)]
struct Edge {
    /// A fork's index, `LEAF |` a leaf's index, or [`PRUNED`].
    next: u32,
    /// Its executed counts: an index into `Dag::counts`.
    payload: u32,
}

const UNLAID: Edge = Edge {
    next: PRUNED,
    payload: 0,
};

/// One randomness-consuming branch point.
#[derive(Clone, Copy, Debug)]
struct ForkNode {
    /// The Born probability of outcome 1 — exactly the value the sampling
    /// path hands to `gen_bool` at this measurement.
    p_one: f64,
    /// The edges out of the fork, by outcome; a pruned branch's edge ends
    /// in [`PRUNED`].
    edges: [Edge; 2],
}

impl ForkNode {
    /// The node both outcomes lead to, if they do.
    fn rejoin(&self) -> Option<u32> {
        let [zero, one] = self.edges;
        (zero.next == one.next && zero.next != PRUNED).then_some(zero.next)
    }
}

/// The end of a trajectory.
struct LeafNode {
    /// `Ok` where the trajectory ran to the end of the program, or the
    /// error it died on (the same error a per-shot run of the history
    /// reports).
    end: Result<(), SimError>,
    /// The trajectory's occupancy high-water mark
    /// ([`Simulator::occupancy_peak`]) since the root started it, so
    /// sampled ensembles fold the same worst-case peak that per-shot
    /// execution reports.
    peak: Option<u64>,
}

/// A built outcome DAG. Edge `0` is the root's, and edge `1 + 2f + o`
/// is outcome `o` of fork `f`.
pub(crate) struct Dag {
    root: Edge,
    forks: Vec<ForkNode>,
    /// Conditional probability mass pruned at each fork.
    pruned: Vec<f64>,
    leaves: Vec<LeafNode>,
    /// The distinct executed counts of the edges, by payload.
    counts: Vec<GateCounts>,
    /// Every edge's classical writes in program order, edge after edge:
    /// edge `e`'s are `writes[writes_at[e]..writes_at[e + 1]]`.
    writes: Vec<(u32, bool)>,
    writes_at: Vec<u32>,
    /// One past the highest clbit any edge writes.
    clbits: usize,
    /// The final state of each leaf, by leaf index, kept only where
    /// trajectories rejoin (later arrivals are compared with it, and
    /// probes read it): `None` for an error leaf and for every leaf of a
    /// DAG that does not rejoin.
    states: Vec<Option<Box<dyn Simulator>>>,
}

/// `i` as a `u32` below `limit`. A DAG whose indices outgrow their `u32`
/// fields fails as one past the node budget does, so the sampled mode
/// runs it per shot.
fn narrow(i: usize, limit: u32, budget: usize) -> Result<u32, SimError> {
    u32::try_from(i)
        .ok()
        .filter(|&i| i < limit)
        .ok_or(SimError::BranchBudgetExceeded { budget })
}

/// Writes a measurement outcome into a classical record, mirroring the
/// compiled executor's resize-and-store.
fn write_clbit(record: &mut Vec<Option<bool>>, idx: usize, outcome: bool) {
    if record.len() <= idx {
        record.resize(idx + 1, None);
    }
    record[idx] = Some(outcome);
}

/// What a forking instruction leaves on each branch besides the projected
/// state.
#[derive(Clone, Copy)]
enum Settle {
    /// A measurement: each branch records its outcome in this clbit.
    Record(u32),
    /// A reset: the outcome-1 branch gets the corrective `X` on this
    /// qubit, and no record is written.
    Flip(QubitId),
}

/// Whether a branch with conditional probability `p` is dropped.
fn pruned(p: f64, eps: f64) -> bool {
    p <= eps || p <= 0.0
}

/// Where a trajectory's edge attaches once it stops: the root, or a
/// fork's edge for one outcome.
#[derive(Clone, Copy)]
enum Slot {
    Root,
    Fork(usize, usize),
}

impl Slot {
    /// The edge's index (see [`Dag`]).
    fn edge(self) -> usize {
        match self {
            Slot::Root => 0,
            Slot::Fork(f, outcome) => 1 + 2 * f + outcome,
        }
    }
}

/// Where a trajectory stopped.
enum Step {
    /// The program ended.
    End,
    /// A measurement or reset split the state: the walker's state is the
    /// outcome-0 branch, `one` the outcome-1 branch, neither settled yet,
    /// and the walker's pc is past the forking instruction.
    Split {
        p_one: f64,
        one: Option<Box<dyn Simulator + Send>>,
        settle: Settle,
    },
    /// The backend declined `measure_fork`: no branch-sharing execution.
    Unsupported,
}

/// One running trajectory.
struct Walker {
    pc: usize,
    sim: Box<dyn Simulator>,
    /// The classical record so far, which its `BranchUnless`es read.
    record: Vec<Option<bool>>,
    /// The edge it lays from its last node.
    from: Slot,
    counts: GateCounts,
    writes: Vec<(u32, bool)>,
}

impl Walker {
    /// A trajectory resuming at `pc` with an empty edge.
    fn new(pc: usize, sim: Box<dyn Simulator>, record: Vec<Option<bool>>) -> Self {
        Self {
            pc,
            sim,
            record,
            from: Slot::Root,
            counts: GateCounts::default(),
            writes: Vec::new(),
        }
    }

    /// Finishes a measurement or reset on the branch that read `outcome`.
    fn settle(&mut self, settle: Settle, outcome: bool) -> Result<(), SimError> {
        match settle {
            Settle::Record(clbit) => {
                write_clbit(&mut self.record, clbit as usize, outcome);
                self.writes.push((clbit, outcome));
            }
            Settle::Flip(q) if outcome => self.sim.apply_gate(&Gate::X(q))?,
            Settle::Flip(_) => {}
        }
        Ok(())
    }

    /// Runs from the walker's pc to its next stop, tallying what runs
    /// exactly as the per-shot executor does. `Instr::Drop` is a no-op
    /// here: a trajectory never compacts.
    fn advance(&mut self, compiled: &CompiledCircuit) -> Result<Step, SimError> {
        let instrs = compiled.instrs();
        while let Some(instr) = instrs.get(self.pc) {
            self.pc += 1;
            let (qubit, basis, settle) = match instr {
                Instr::Gate(g) => {
                    self.sim.apply_gate(g)?;
                    self.counts.record_gate(g);
                    continue;
                }
                Instr::Fused(idx) => {
                    let fu = &compiled.fused_unitaries()[*idx as usize];
                    self.sim.apply_fused(fu)?;
                    for g in fu.gates() {
                        self.counts.record_gate(g);
                    }
                    continue;
                }
                Instr::Gradient(idx) => {
                    for g in compiled.gradients()[*idx as usize].gates() {
                        self.sim.apply_gate(&g)?;
                        self.counts.record_gate(&g);
                    }
                    continue;
                }
                Instr::Drop(_) => continue,
                Instr::BranchUnless { clbit, skip } => {
                    let bit = self.record.get(clbit.index()).copied().flatten();
                    if !bit.ok_or(SimError::UnwrittenClassicalBit { clbit: clbit.0 })? {
                        self.pc += *skip as usize;
                    }
                    continue;
                }
                Instr::Measure {
                    qubit,
                    basis,
                    clbit,
                } => {
                    self.counts.record_measurement(*basis);
                    (*qubit, *basis, Settle::Record(clbit.0))
                }
                Instr::Reset(qubit) => {
                    // Measure-and-flip semantics without a record.
                    self.counts.reset += 1;
                    (*qubit, Basis::Z, Settle::Flip(*qubit))
                }
            };
            match self.sim.measure_fork(qubit, basis)? {
                None => return Ok(Step::Unsupported),
                // The backend consumed no randomness, so neither do we.
                Some(Fork::Definite(outcome)) => self.settle(settle, outcome)?,
                Some(Fork::Split { p_one, one }) => {
                    return Ok(Step::Split { p_one, one, settle });
                }
            }
        }
        Ok(Step::End)
    }
}

/// A fork whose children have not moved yet (rejoin mode): the only
/// nodes a later trajectory can still merge into.
struct Open {
    /// Where its children resume: one past the forking instruction.
    pc: usize,
    fork: usize,
    /// The parking slots of its children, by outcome (`None` = pruned).
    kids: [Option<usize>; 2],
}

/// The DAG under construction.
struct Builder {
    eps: f64,
    budget: usize,
    rejoins: bool,
    /// `(clbit, pc)` of the last `BranchUnless` on each clbit any branch
    /// reads: two trajectories may merge at pc `p` only if they agree on
    /// every clbit whose last read is at or after `p`.
    last_reads: Vec<(usize, usize)>,
    root: Edge,
    forks: Vec<ForkNode>,
    pruned: Vec<f64>,
    leaves: Vec<LeafNode>,
    states: Vec<Option<Box<dyn Simulator>>>,
    /// The distinct edge counts by payload, and the payload of each.
    counts: Vec<GateCounts>,
    payloads: HashMap<[u64; NFIELDS], u32>,
    /// Each edge's classical writes, by edge index.
    writes: Vec<Vec<(u32, bool)>>,
    /// Parked trajectories, by slot, and the slots free for reuse: the
    /// slots never outnumber the trajectories parked at once.
    parked: Vec<Option<Walker>>,
    free: Vec<usize>,
    /// One `(order, sequence number, slot)` per parked trajectory: the
    /// heap pops the lowest order key first, the newest of equal keys
    /// first.
    queue: BinaryHeap<(Reverse<usize>, u64, usize)>,
    parks: u64,
    open: Vec<Open>,
}

impl Builder {
    /// A build of the outcome DAG of `compiled` from the state `root`,
    /// with the root's trajectory parked (see [`Dag::build`]).
    fn start(
        compiled: &CompiledCircuit,
        mut root: Box<dyn Simulator>,
        eps: f64,
        budget: usize,
    ) -> Result<Self, SimError> {
        exec::check_width(compiled.num_qubits(), root.num_qubits())?;
        exec::admit_compiled(compiled)?;
        start_peak(root.as_mut());
        let mut last_read = BTreeMap::new();
        for (pc, instr) in compiled.instrs().iter().enumerate() {
            if let Instr::BranchUnless { clbit, .. } = instr {
                last_read.insert(clbit.index(), pc);
            }
        }
        let mut b = Self {
            eps,
            budget,
            // A state that cannot recognise itself can never rejoin.
            rejoins: root.same_state(root.as_ref()),
            last_reads: last_read.into_iter().collect(),
            root: UNLAID,
            forks: Vec::new(),
            pruned: Vec::new(),
            leaves: Vec::new(),
            states: Vec::new(),
            counts: Vec::new(),
            payloads: HashMap::new(),
            writes: vec![Vec::new()],
            parked: Vec::new(),
            free: Vec::new(),
            queue: BinaryHeap::new(),
            parks: 0,
            open: Vec::new(),
        };
        b.park(Walker::new(0, root, Vec::new()));
        Ok(b)
    }

    /// Parks `w` to run later. When trajectories rejoin, the lowest pc runs
    /// first, so every trajectory that can reach a fork has reached it
    /// before any child of that fork moves on; otherwise the newest runs
    /// first (depth first).
    fn park(&mut self, w: Walker) -> usize {
        let key = if self.rejoins { w.pc } else { 0 };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.parked[slot] = Some(w);
                slot
            }
            None => {
                self.parked.push(Some(w));
                self.parked.len() - 1
            }
        };
        self.queue.push((Reverse(key), self.parks, slot));
        self.parks += 1;
        slot
    }

    /// Runs the next parked trajectory to its next stop, and lays what it
    /// ran into the DAG. Returns `false` once no trajectory is left.
    fn step(&mut self, compiled: &CompiledCircuit) -> Result<bool, SimError> {
        let Some((_, _, slot)) = self.queue.pop() else {
            return Ok(false);
        };
        let Some(mut w) = self.parked[slot].take() else {
            // Panic triage: each queue entry holds the one slot its
            // trajectory was parked in, emptied only here.
            unreachable!("a queued slot holds its trajectory");
        };
        self.free.push(slot);
        // No trajectory still parked can reach a fork before this pc; the
        // forks this drops include the one that parked `w`, so no open
        // fork names a free slot.
        self.open.retain(|o| o.pc > w.pc);
        match w.advance(compiled) {
            Err(e) => self.leaf(w, Err(e))?,
            Ok(Step::End) => self.leaf(w, Ok(()))?,
            Ok(Step::Split { p_one, one, settle }) => self.split(w, p_one, one, settle)?,
            Ok(Step::Unsupported) => return Err(SimError::BranchUnsupported),
        }
        if self.forks.len() + self.leaves.len() + self.queue.len() > self.budget {
            return Err(SimError::BranchBudgetExceeded {
                budget: self.budget,
            });
        }
        Ok(true)
    }

    /// Lays the edge a trajectory ran from the slot it left, ending in
    /// `next`.
    fn attach(
        &mut self,
        from: Slot,
        counts: GateCounts,
        writes: Vec<(u32, bool)>,
        next: u32,
    ) -> Result<(), SimError> {
        let key = count_fields(&counts);
        let payload = match self.payloads.get(&key) {
            Some(&payload) => payload,
            None => {
                let payload = narrow(self.counts.len(), u32::MAX, self.budget)?;
                self.counts.push(counts);
                self.payloads.insert(key, payload);
                payload
            }
        };
        let edge = Edge { next, payload };
        match from {
            Slot::Root => self.root = edge,
            Slot::Fork(f, outcome) => self.forks[f].edges[outcome] = edge,
        }
        self.writes[from.edge()] = writes;
        Ok(())
    }

    /// Whether two trajectories resuming at `pc` agree on every classical
    /// bit a branch at or after `pc` reads.
    fn agree(&self, a: &[Option<bool>], b: &[Option<bool>], pc: usize) -> bool {
        let bit = |r: &[Option<bool>], c: usize| r.get(c).copied().flatten();
        self.last_reads
            .iter()
            .all(|&(c, last)| last < pc || bit(a, c) == bit(b, c))
    }

    /// Whether the walker parked in `slot` and `w` have one future: bitwise
    /// equal states with equal peaks, agreeing on every bit still read.
    fn twins(&self, slot: usize, w: &Walker) -> bool {
        let Some(parked) = &self.parked[slot] else {
            return false;
        };
        parked.sim.occupancy_peak() == w.sim.occupancy_peak()
            && self.agree(&parked.record, &w.record, w.pc)
            && parked.sim.same_state(w.sim.as_ref())
    }

    /// Ends the trajectory `w` in a leaf: a merge into an equal leaf when
    /// trajectories rejoin, a new one otherwise.
    fn leaf(&mut self, w: Walker, end: Result<(), SimError>) -> Result<(), SimError> {
        let Walker {
            sim,
            from,
            counts,
            writes,
            ..
        } = w;
        let peak = sim.occupancy_peak();
        let next = match end {
            Ok(()) if self.rejoins => {
                let twin = self.leaves.iter().zip(&self.states).position(|(l, s)| {
                    l.peak == peak && s.as_ref().is_some_and(|s| s.same_state(sim.as_ref()))
                });
                match twin {
                    Some(i) => LEAF | narrow(i, LEAF - 1, self.budget)?,
                    None => self.new_leaf(Ok(()), peak, Some(sim))?,
                }
            }
            end => self.new_leaf(end, peak, None)?,
        };
        self.attach(from, counts, writes, next)
    }

    fn new_leaf(
        &mut self,
        end: Result<(), SimError>,
        peak: Option<u64>,
        state: Option<Box<dyn Simulator>>,
    ) -> Result<u32, SimError> {
        // Below `LEAF - 1`, so that no leaf reads as `PRUNED`.
        let next = LEAF | narrow(self.leaves.len(), LEAF - 1, self.budget)?;
        self.leaves.push(LeafNode { end, peak });
        self.states.push(state);
        Ok(next)
    }

    /// The fork step of a [`Step::Split`]: the fork merges into an open
    /// fork at the same pc whose children are twins of these, or becomes
    /// a new node whose children are parked. Settling a child can fail
    /// (the corrective `X` of a reset); the trajectory then dies here.
    fn split(
        &mut self,
        w: Walker,
        p_one: f64,
        one: Option<Box<dyn Simulator + Send>>,
        settle: Settle,
    ) -> Result<(), SimError> {
        let Walker {
            pc,
            sim,
            record,
            from,
            counts,
            writes,
        } = w;
        let peak = sim.occupancy_peak();
        let next = match self.children(pc, sim, record, p_one, one, settle) {
            Ok((kids, pruned_mass)) => self.fork(pc, p_one, pruned_mass, kids)?,
            Err(e) => self.new_leaf(Err(e), peak, None)?,
        };
        self.attach(from, counts, writes, next)
    }

    /// The settled children of a split, resuming at `pc` (`None` where the
    /// branch falls below the pruning floor), with the pruned mass.
    fn children(
        &self,
        pc: usize,
        zero: Box<dyn Simulator>,
        record: Vec<Option<bool>>,
        p_one: f64,
        one: Option<Box<dyn Simulator + Send>>,
        settle: Settle,
    ) -> Result<([Option<Walker>; 2], f64), SimError> {
        let mut pruned_mass = 0.0;
        let mut kids: [Option<Walker>; 2] = [None, None];
        match one {
            // `one` is `None` exactly when the branch is impossible
            // (p_one == 0), which `pruned` always drops anyway.
            Some(one) if !pruned(p_one, self.eps) => {
                let mut child = Walker::new(pc, one, record.clone());
                child.settle(settle, true)?;
                kids[1] = Some(child);
            }
            _ => pruned_mass += p_one.max(0.0),
        }
        // The walker's own state is the outcome-0 branch.
        let p0 = 1.0 - p_one;
        if pruned(p0, self.eps) {
            pruned_mass += p0.max(0.0);
        } else {
            let mut child = Walker::new(pc, zero, record);
            child.settle(settle, false)?;
            kids[0] = Some(child);
        }
        Ok((kids, pruned_mass))
    }

    /// The fork a split whose children resume at `pc` links to: an open
    /// fork with the same draw whose children are twins of `kids` (a
    /// join), or a new fork that parks `kids`.
    fn fork(
        &mut self,
        pc: usize,
        p_one: f64,
        pruned: f64,
        kids: [Option<Walker>; 2],
    ) -> Result<u32, SimError> {
        let twin = self.open.iter().find(|o| {
            o.pc == pc
                && self.forks[o.fork].p_one.to_bits() == p_one.to_bits()
                && o.kids
                    .iter()
                    .zip(&kids)
                    .all(|(slot, kid)| match (slot, kid) {
                        (None, None) => true,
                        (Some(slot), Some(kid)) => self.twins(*slot, kid),
                        _ => false,
                    })
        });
        if let Some(o) = twin {
            return narrow(o.fork, LEAF, self.budget);
        }
        let f = self.forks.len();
        let next = narrow(f, LEAF, self.budget)?;
        self.forks.push(ForkNode {
            p_one,
            edges: [UNLAID; 2],
        });
        self.pruned.push(pruned);
        self.writes.extend([Vec::new(), Vec::new()]);
        let [zero, one] = kids;
        let kids = [(zero, 0), (one, 1)].map(|(kid, outcome)| {
            kid.map(|mut kid| {
                kid.from = Slot::Fork(f, outcome);
                self.park(kid)
            })
        });
        if self.rejoins {
            self.open.push(Open { pc, fork: f, kids });
        }
        Ok(next)
    }

    /// The built DAG: the edges' writes laid end to end.
    fn finish(self) -> Result<Dag, SimError> {
        let mut writes = Vec::new();
        let mut writes_at = vec![0];
        for edge in self.writes {
            writes.extend(edge);
            writes_at.push(narrow(writes.len(), u32::MAX, self.budget)?);
        }
        let clbits = writes.iter().map(|&(c, _)| c as usize + 1).max();
        Ok(Dag {
            root: self.root,
            forks: self.forks,
            pruned: self.pruned,
            leaves: self.leaves,
            counts: self.counts,
            writes,
            writes_at,
            clbits: clbits.unwrap_or(0),
            states: self.states,
        })
    }
}

/// Restarts the occupancy high-water mark of `sim` at what it occupies
/// now, as a compiled run does when it starts, so that an excursion made
/// while preparing the state does not count. (The state vector keeps no
/// high-water mark: its occupancy is its current length.)
fn start_peak(sim: &mut dyn Simulator) {
    let sim: &mut dyn Any = sim;
    if let Some(t) = sim.downcast_mut::<BasisTracker>() {
        t.start_peak();
    } else if let Some(s) = sim.downcast_mut::<SparseVector>() {
        s.start_peak();
    } else if let Some(p) = sim.downcast_mut::<PhaseAccumulator>() {
        p.start_peak();
    }
}

/// The draw a per-shot run makes at a measurement whose outcome 1 has
/// probability `p_one`.
fn draw(rng: &mut StdRng, p_one: f64) -> bool {
    rng.gen_bool(p_one.clamp(0.0, 1.0))
}

/// One replay worker's buffers for the shot it walks.
struct Shot {
    /// How many edges of each payload it crossed.
    tally: Vec<u32>,
    /// Its classical record: the first `len` entries of a buffer
    /// `Dag::clbits` long.
    record: Vec<Option<bool>>,
    len: usize,
    /// Its draws, bit `i` of the path the `i`-th, when probing.
    path: Vec<u64>,
    drawn: usize,
}

impl Shot {
    fn new(dag: &Dag) -> Self {
        Self {
            tally: vec![0; dag.counts.len()],
            record: vec![None; dag.clbits],
            len: 0,
            path: Vec::new(),
            drawn: 0,
        }
    }

    /// Empties the buffers for the next shot.
    fn clear(&mut self) {
        self.tally.fill(0);
        self.record[..self.len].fill(None);
        self.len = 0;
        self.path.clear();
        self.drawn = 0;
    }

    /// Applies one edge's classical writes.
    fn write(&mut self, writes: &[(u32, bool)]) {
        for &(clbit, bit) in writes {
            let clbit = clbit as usize;
            self.record[clbit] = Some(bit);
            self.len = self.len.max(clbit + 1);
        }
    }

    /// Appends one draw to the path, which grows a word at a time.
    fn push_draw(&mut self, one: bool) {
        let bit = self.drawn % 64;
        match self.path.last_mut() {
            Some(word) if bit > 0 => *word |= u64::from(one) << bit,
            _ => self.path.push(u64::from(one)),
        }
        self.drawn += 1;
    }

    /// The record as the per-shot executor leaves it: one past the
    /// highest clbit written, `None` where nothing was.
    fn record(&self) -> &[Option<bool>] {
        &self.record[..self.len]
    }

    /// The executed counts, as [`count_fields`]: every payload times the
    /// edges crossed that carry it.
    fn fields(&self, counts: &[GateCounts]) -> [u64; NFIELDS] {
        let mut fields = [0u64; NFIELDS];
        for (&n, counts) in self.tally.iter().zip(counts) {
            if n > 0 {
                for (sum, field) in fields.iter_mut().zip(count_fields(counts)) {
                    *sum += u64::from(n) * field;
                }
            }
        }
        fields
    }
}

impl Dag {
    /// Builds the outcome DAG of `compiled` from the state `root`, pruning
    /// branches at or below `eps`.
    ///
    /// # Errors
    ///
    /// The executor's entry checks (width, `MBU_VERIFY` admission),
    /// [`SimError::BranchUnsupported`] if the backend declines to fork and
    /// [`SimError::BranchBudgetExceeded`] once DAG nodes plus running
    /// trajectories exceed `budget`, or an index outgrows its `u32`.
    pub(crate) fn build(
        compiled: &CompiledCircuit,
        root: Box<dyn Simulator>,
        eps: f64,
        budget: usize,
    ) -> Result<Self, SimError> {
        let mut b = Builder::start(compiled, root, eps, budget)?;
        while b.step(compiled)? {}
        b.finish()
    }

    /// Edge `e`'s classical writes.
    fn edge_writes(&self, e: usize) -> &[(u32, bool)] {
        &self.writes[self.writes_at[e] as usize..self.writes_at[e + 1] as usize]
    }

    /// Walks one shot from the root, drawing from `rng` at every fork as
    /// its per-shot run would, and leaves what it crossed in `shot` (the
    /// path only when `probing`). Returns the leaf it ends in, or `None`
    /// where it draws into pruned mass.
    fn walk(&self, rng: &mut StdRng, shot: &mut Shot, probing: bool) -> Option<usize> {
        shot.clear();
        shot.tally[self.root.payload as usize] += 1;
        shot.write(self.edge_writes(0));
        let mut next = self.root.next;
        while next < LEAF {
            let f = next as usize;
            let fork = &self.forks[f];
            let one = draw(rng, fork.p_one);
            if probing {
                shot.push_draw(one);
            }
            let one = usize::from(one);
            let edge = fork.edges[one];
            // Where both outcomes lead to one node, the next address does
            // not wait on the draw.
            next = match fork.rejoin() {
                Some(next) => next,
                None if edge.next == PRUNED => return None,
                None => edge.next,
            };
            shot.tally[edge.payload as usize] += 1;
            shot.write(self.edge_writes(1 + 2 * f + one));
        }
        Some((next & !LEAF) as usize)
    }

    /// **Sampled mode**: replays each of `shots` seeded shots over the DAG
    /// and folds them exactly as per-shot execution would, `workers`
    /// threads over contiguous shot ranges. A shot that draws into pruned
    /// mass runs per shot, alone.
    ///
    /// With a probe, each worker probes its own shots, reading the leaf
    /// states in place: the first shot of each distinct path in a batch
    /// of up to [`PROBE_BATCH`] paths is probed, and the batch's later
    /// shots of that path receive clones of its observation. Leaves keep
    /// their states only where trajectories rejoin, so `probe` must be
    /// `None` for a DAG that does not.
    ///
    /// # Errors
    ///
    /// The error of the lowest-indexed failing shot.
    pub(crate) fn replay<O: Clone + Send>(
        &self,
        compiled: &CompiledCircuit,
        shots: u64,
        master_seed: u64,
        workers: usize,
        factory: Factory<'_>,
        probe: Option<Probe<'_, O>>,
    ) -> Result<(Accumulator, Vec<O>), SimError> {
        in_chunks(shots, workers, |range| {
            let mut acc = Accumulator::default();
            let mut observed = Vec::new();
            let mut shot = Shot::new(self);
            // The paths of the current batch, each with where its first
            // shot's observation sits in `observed`.
            let mut first: HashMap<Vec<u64>, usize> = HashMap::new();
            // What a probe reads besides the state, refilled per call.
            let mut executed = Executed::default();
            for i in range {
                let seed = shot_seed(master_seed, i);
                let mut rng = StdRng::seed_from_u64(seed);
                let Some(l) = self.walk(&mut rng, &mut shot, probe.is_some()) else {
                    observed.extend(one_shot(compiled, factory, seed, probe, &mut acc)?);
                    continue;
                };
                let leaf = &self.leaves[l];
                leaf.end.clone()?;
                let fields = shot.fields(&self.counts);
                acc.add_shot(&fields, shot.record(), leaf.peak);
                let Some(probe) = probe else {
                    continue;
                };
                let observation = match first.get(&shot.path) {
                    Some(&at) => observed[at].clone(),
                    None => {
                        if first.len() == PROBE_BATCH {
                            first.clear();
                        }
                        first.insert(shot.path.clone(), observed.len());
                        let Some(state) = self.states[l].as_deref() else {
                            // Panic triage: only DAGs that rejoin are
                            // probed, and their leaves that end without
                            // error keep their states.
                            unreachable!("a probed leaf keeps its state");
                        };
                        executed.counts = gate_counts(fields);
                        executed.classical.clear();
                        executed.classical.extend_from_slice(shot.record());
                        probe(state, &executed)
                    }
                };
                observed.push(observation);
            }
            Ok((acc, observed))
        })
    }
}

/// A seeded ensemble scheduler over the outcome DAG: the branch-sharing
/// counterpart of [`ShotRunner`](crate::ShotRunner), with an exact mode
/// besides the sampled one.
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
    /// Total thread budget of the replay and of the per-shot fallback.
    threads: usize,
    passes: Option<PassConfig>,
    eps: f64,
    node_budget: usize,
}

impl BranchEnsemble {
    /// A DAG scheduler whose sampled mode replays `shots` shots
    /// (the exact mode ignores the count — `new(0)` is fine for
    /// distribution-only use). Defaults mirror
    /// [`ShotRunner::new`](crate::ShotRunner::new): the
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
    /// seedless). Equal master seeds reproduce a
    /// [`ShotRunner`](crate::ShotRunner) with the
    /// same seed bit-for-bit.
    #[must_use]
    pub fn with_master_seed(mut self, seed: u64) -> Self {
        self.master_seed = seed;
        self
    }

    /// Sets the total thread budget of the sampled mode's replay and of its
    /// per-shot fallback (clamped to at least 1); results never depend on
    /// it. The DAG is built on the calling thread.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Enables peephole passes on the compiled program (mirrors
    /// [`ShotRunner::with_passes`](crate::ShotRunner::with_passes)).
    #[must_use]
    pub fn with_passes(mut self, config: PassConfig) -> Self {
        self.passes = Some(config);
        self
    }

    /// Sets the pruning floor: a branch whose conditional probability is
    /// `≤ eps` is dropped from the DAG (clamped into `[0, 0.25]` so both
    /// children of a fork can never prune at once). `0` keeps everything
    /// except exactly-impossible branches — full expansion.
    #[must_use]
    pub fn with_eps(mut self, eps: f64) -> Self {
        self.eps = eps.clamp(0.0, MAX_BRANCH_EPS);
        self
    }

    /// Sets the node budget: the most DAG nodes (forks and leaves, plus
    /// the trajectories still running) the build may reach, and the most
    /// outcome-tree nodes the exact mode enumerates (clamped to at least
    /// 1). Past it the sampled mode runs per shot; at `1` it does so for
    /// every circuit that forks.
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
    /// [`ShotRunner::seed_for_shot`](crate::ShotRunner::seed_for_shot)
    /// with the same master seed.
    #[must_use]
    pub fn seed_for_shot(&self, shot: u64) -> u64 {
        shot_seed(self.master_seed, shot)
    }

    /// **Exact mode**: walks every surviving measurement history once and
    /// returns the complete outcome/record distribution. Consumes no
    /// randomness — the method does not even take an RNG.
    ///
    /// # Errors
    ///
    /// [`SimError::BranchUnsupported`] if the backend declines
    /// [`measure_fork`](Simulator::measure_fork),
    /// [`SimError::BranchBudgetExceeded`] if the DAG or the outcome tree
    /// outgrows the node budget, or the first trajectory error in
    /// canonical tree order (the same error per-shot execution of that
    /// history reports).
    pub fn distribution<F>(
        &self,
        circuit: &Circuit,
        factory: F,
    ) -> Result<BranchDistribution, SimError>
    where
        F: Fn() -> Box<dyn Simulator + Send> + Sync,
    {
        let compiled = compile_for(circuit, self.passes)?;
        let dag = Dag::build(&compiled, factory(), self.eps, self.node_budget)?;
        BranchDistribution::from_dag(&dag, self.node_budget)
    }

    /// **Sampled mode**: builds the DAG once, then replays each of the
    /// `shots` seeded RNG streams over it — an exact multinomial draw of
    /// shots over the DAG's paths whose classical aggregates (records,
    /// outcome counts, executed-count means/variances) are
    /// **bit-identical** to per-shot execution with the same master seed,
    /// circuit and passes. Peak-memory statistics survive the sharing:
    /// each leaf records its trajectory's occupancy high-water mark
    /// ([`Simulator::occupancy_peak`]), so [`Ensemble::peak_amplitudes`]
    /// is the worst peak over the leaves the replayed shots actually
    /// landed in. (A reclaiming dense backend is the one place the
    /// *value* can differ: a trajectory never drops qubits, so it reports
    /// the full array where a reclaiming per-shot run reports the
    /// compacted live set.)
    ///
    /// Runs every shot per shot — bit-identical still — when the backend
    /// cannot fork or the DAG exceeds the node budget. A single replayed
    /// shot that walks into pruned mass runs per shot alone.
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
        let compiled = compile_for(circuit, self.passes)?;
        let factory = || -> Box<dyn Simulator> { factory() };
        let (shots, seed) = (self.shots, self.master_seed);
        let workers = worker_count(self.threads, shots);
        let (acc, _) = match Dag::build(&compiled, factory(), self.eps, self.node_budget) {
            Ok(dag) => dag.replay::<()>(&compiled, shots, seed, workers, &factory, None)?,
            Err(SimError::BranchUnsupported | SimError::BranchBudgetExceeded { .. }) => {
                per_shot::<()>(&compiled, shots, seed, workers, &factory, None)?
            }
            Err(e) => return Err(e),
        };
        Ok(Ensemble::from_acc(acc))
    }
}

/// The exact outcome distribution of a circuit: one entry per surviving
/// measurement history, weighted by its path probability. Produced by
/// [`BranchEnsemble::distribution`] with **zero** sampling noise and zero
/// RNG consumption.
#[derive(Debug)]
pub struct BranchDistribution {
    /// `(weight, executed)` per leaf of the outcome tree, in canonical
    /// order (depth first, outcome 0 before outcome 1).
    leaves: Vec<(f64, Executed)>,
    /// Classical records aggregated over leaves (distinct histories can
    /// share a record when a reset forks without writing a bit).
    records: BTreeMap<Vec<Option<bool>>, f64>,
    total_weight: f64,
    pruned_mass: f64,
    fork_nodes: usize,
}

impl BranchDistribution {
    /// Enumerates the DAG's paths — the outcome tree — depth first,
    /// outcome 0 before outcome 1, folding every `f64` in that canonical
    /// order.
    ///
    /// # Errors
    ///
    /// [`SimError::BranchBudgetExceeded`] once the tree has more than
    /// `budget` nodes, else the first error leaf in canonical order.
    fn from_dag(dag: &Dag, budget: usize) -> Result<Self, SimError> {
        let mut leaves: Vec<(f64, Executed)> = Vec::new();
        let mut pruned = Vec::new();
        let mut nodes = 0usize;
        let mut first_error = None;
        let mut stack = vec![(0usize, dag.root, 1.0f64, Executed::default())];
        while let Some((e, edge, weight, mut executed)) = stack.pop() {
            nodes += 1;
            if nodes > budget {
                return Err(SimError::BranchBudgetExceeded { budget });
            }
            executed.counts = executed.counts + dag.counts[edge.payload as usize];
            for &(clbit, bit) in dag.edge_writes(e) {
                write_clbit(&mut executed.classical, clbit as usize, bit);
            }
            if edge.next >= LEAF {
                // A leaf: pruned edges are never pushed.
                match &dag.leaves[(edge.next & !LEAF) as usize].end {
                    Ok(_) => leaves.push((weight, executed)),
                    Err(e) => {
                        first_error.get_or_insert_with(|| e.clone());
                    }
                }
                continue;
            }
            let f = edge.next as usize;
            let node = &dag.forks[f];
            pruned.push(weight * dag.pruned[f]);
            // `zero` is pushed last so it pops (and emits) first.
            let [zero, one] = node.edges;
            if one.next != PRUNED {
                stack.push((2 + 2 * f, one, weight * node.p_one, executed.clone()));
            }
            if zero.next != PRUNED {
                stack.push((1 + 2 * f, zero, weight * (1.0 - node.p_one), executed));
            }
        }
        if let Some(e) = first_error {
            return Err(e);
        }
        let mut records = BTreeMap::new();
        let mut total_weight = 0.0;
        for (weight, executed) in &leaves {
            *records.entry(executed.classical.clone()).or_insert(0.0) += weight;
            total_weight += weight;
        }
        Ok(Self {
            leaves,
            records,
            total_weight,
            pruned_mass: pruned.iter().sum(),
            fork_nodes: pruned.len(),
        })
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
    use crate::{BasisTracker, ShotRunner, StateVector};
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

    /// The per-shot engine itself, on the lowered program: the reference
    /// every sampled DAG must reproduce.
    fn per_shot_reference(
        circuit: &Circuit,
        shots: u64,
        master_seed: u64,
        factory: impl Fn() -> Box<dyn Simulator + Send> + Sync,
    ) -> Ensemble {
        let compiled = compile_for(circuit, None).unwrap();
        let factory = || -> Box<dyn Simulator> { factory() };
        let (acc, _) = per_shot::<()>(&compiled, shots, master_seed, 1, &factory, None).unwrap();
        Ensemble::from_acc(acc)
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
            let per_shot = per_shot_reference(&circuit, 500, seed, tracker_factory(1));
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
        let per_shot = per_shot_reference(&circuit, 64, DEFAULT_MASTER_SEED, tracker_factory(2));
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
        let per_shot = per_shot_reference(&circuit, 200, DEFAULT_MASTER_SEED, factory);
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
        // Sampled mode falls back to the per-shot engine, peak stats
        // included — and the ShotRunner, which shares this tracker's DAG,
        // lands on the same ensemble.
        let fell_back = tight.run(&circuit, tracker_factory(1)).unwrap();
        let per_shot = per_shot_reference(&circuit, 100, DEFAULT_MASTER_SEED, tracker_factory(1));
        assert_eq!(fell_back, per_shot);
        let shared = ShotRunner::new(100)
            .run(&circuit, || Box::new(BasisTracker::zeros(1)))
            .unwrap();
        assert_eq!(shared, per_shot);
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
        // Three forks → 8 leaves. The DAG is built on the calling thread,
        // and the distribution must stay identical at any thread budget.
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
        // sandwich): summing leaf weights in any order but the canonical
        // one would drift by ulps. Every exact aggregate must be
        // bit-identical at any thread budget.
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
    fn a_clbit_still_to_be_read_keeps_its_branches_apart() {
        // Clbit c is read twice. After the first read the two branches of
        // its measurement hold equal states, so at the next fork only c
        // tells them apart — and the second read still needs it.
        let mut b = CircuitBuilder::new();
        let q = b.qreg("q", 3);
        let c = b.measure(q[0], Basis::X);
        let (_, undo) = b.record(|bb| bb.z(q[0]));
        b.emit_conditional(c, &undo);
        let _ = b.measure(q[1], Basis::X);
        let (_, flip) = b.record(|bb| bb.x(q[2]));
        b.emit_conditional(c, &flip);
        let circuit = b.finish();
        let compiled = compile_for(&circuit, None).unwrap();
        let dag = Dag::build(
            &compiled,
            Box::new(BasisTracker::zeros(3)),
            DEFAULT_BRANCH_EPS,
            DEFAULT_NODE_BUDGET,
        )
        .unwrap();
        assert_eq!(
            (dag.forks.len(), dag.leaves.len()),
            (3, 4),
            "no join before c's last read"
        );
        // Every shot's second conditional saw its own branch's bit.
        let (shared, agree) = ShotRunner::new(64)
            .run_probed(
                &circuit,
                || Box::new(BasisTracker::zeros(3)),
                |sim, ex| sim.bit(q[2]).ok() == ex.outcome(c.index()).ok(),
            )
            .unwrap();
        assert!(agree.iter().all(|&ok| ok));
        let per_shot = per_shot_reference(&circuit, 64, DEFAULT_MASTER_SEED, tracker_factory(3));
        assert_eq!(shared, per_shot);
    }

    #[test]
    fn unequal_peaks_keep_equal_states_apart() {
        // Outcome 1 of c undoes q0's sign but first takes q1 and q3
        // through |+⟩ beside it (8 occupied states), outcome 0 never
        // exceeds 4: at q2's fork the states are equal, the peaks are not,
        // and every shot must keep its own branch's peak.
        let mut b = CircuitBuilder::new();
        let q = b.qreg("q", 4);
        let c = b.measure(q[0], Basis::X);
        let (_, excursion) = b.record(|bb| {
            bb.z(q[0]);
            bb.h(q[1]);
            bb.h(q[3]);
            bb.h(q[1]);
            bb.h(q[3]);
        });
        b.emit_conditional(c, &excursion);
        let _ = b.measure(q[2], Basis::X);
        let circuit = b.finish();
        let compiled = compile_for(&circuit, None).unwrap();
        let dag = Dag::build(
            &compiled,
            Box::new(BasisTracker::zeros(4)),
            DEFAULT_BRANCH_EPS,
            DEFAULT_NODE_BUDGET,
        )
        .unwrap();
        assert_eq!((dag.forks.len(), dag.leaves.len()), (3, 4));
        let (_, peaks) = ShotRunner::new(64)
            .run_probed(
                &circuit,
                || Box::new(BasisTracker::zeros(4)),
                |sim, ex| (ex.outcome(c.index()).unwrap(), sim.occupancy_peak()),
            )
            .unwrap();
        for (one, peak) in peaks {
            assert_eq!(peak, Some(if one { 8 } else { 4 }));
        }
    }

    #[test]
    fn gidney_rows_rejoin_into_a_chain_of_diamonds() {
        // The `mc_expect` Gidney row: an MBU modular adder at n = 64 with
        // 513 fork points, whose outcome tree has far more leaves than
        // any budget. On the tracker only the 256 logical-AND
        // uncomputations and the MBU flag split (each reset finds its
        // ancilla definite), and once an AND's correction has run both of
        // its branches hold the same state: every split but the flag's
        // joins the next one, leaving a chain of 257 diamonds.
        use mbu_arith::modular::{self, ModAddSpec};
        use mbu_arith::Uncompute;
        let p = 18_446_744_073_709_551_557;
        let layout = modular::modadd_circuit(&ModAddSpec::gidney(Uncompute::Mbu), 64, p).unwrap();
        let compiled = compile_for(&layout.circuit, None).unwrap();
        assert_eq!(compiled.fork_points(), 513);
        let mut root = BasisTracker::zeros(layout.circuit.num_qubits());
        root.set_value(layout.x.qubits(), 0x0123_4567_89ab_cdef)
            .unwrap();
        root.set_value(layout.y.qubits(), 0xfedc_ba98_7654_3210)
            .unwrap();
        let dag = Dag::build(
            &compiled,
            Box::new(root),
            DEFAULT_BRANCH_EPS,
            DEFAULT_NODE_BUDGET,
        )
        .unwrap();
        // Every trajectory lays one edge, and either builds the node it
        // ends in or joins one already built.
        let edges = 1 + dag
            .forks
            .iter()
            .map(|f| f.edges.iter().filter(|e| e.next != PRUNED).count())
            .sum::<usize>();
        let (forks, leaves) = (dag.forks.len(), dag.leaves.len());
        assert_eq!((forks, edges - forks - leaves, leaves), (257, 256, 2));
    }

    #[test]
    fn parked_slots_never_outnumber_the_trajectories_parked_at_once() {
        // The Gidney n = 8 tracker row parks both children of every
        // fork, and each runs in turn: a slot freed by one that ran is
        // reused, so the slots stay as few as the most parked at once.
        use mbu_arith::modular::{self, ModAddSpec};
        use mbu_arith::Uncompute;
        let layout = modular::modadd_circuit(&ModAddSpec::gidney(Uncompute::Mbu), 8, 251).unwrap();
        let compiled = compile_for(&layout.circuit, None).unwrap();
        let mut root = BasisTracker::zeros(layout.circuit.num_qubits());
        root.set_value(layout.x.qubits(), 200).unwrap();
        root.set_value(layout.y.qubits(), 100).unwrap();
        let mut b = Builder::start(
            &compiled,
            Box::new(root),
            DEFAULT_BRANCH_EPS,
            DEFAULT_NODE_BUDGET,
        )
        .unwrap();
        let mut most = b.queue.len();
        while b.step(&compiled).unwrap() {
            most = most.max(b.queue.len());
            assert!(b.parked.len() <= most, "{} slots", b.parked.len());
        }
        // 67 trajectories parked in all, at most 3 at once.
        assert_eq!((b.parked.len(), b.parks), (3, 67));
        let dag = b.finish().unwrap();
        assert_eq!((dag.forks.len(), dag.leaves.len()), (33, 2));
    }

    #[test]
    fn preparation_excursions_do_not_count_towards_the_peak() {
        // The factory takes q1 and q2 through |+⟩ and back before handing
        // the state over (4 occupied states, then 1). A compiled run
        // starts its high-water mark at the state it is handed, so only
        // the coin's |±⟩ counts: 2, on the DAG as on a per-shot run.
        fn prepared(mut sim: Box<dyn Simulator + Send>) -> Box<dyn Simulator + Send> {
            for q in [1, 2, 1, 2] {
                sim.apply_gate(&Gate::H(QubitId(q))).unwrap();
            }
            sim
        }
        let circuit = coin_circuit();
        let tracker = || prepared(Box::new(BasisTracker::zeros(3)));
        let sparse = || prepared(Box::new(crate::SparseVector::zeros(3).unwrap()));
        for factory in [
            &tracker as &(dyn Fn() -> Box<dyn Simulator + Send> + Sync),
            &sparse,
        ] {
            assert_eq!(factory().occupancy_peak(), Some(4), "the excursion");
            let per_shot = per_shot_reference(&circuit, 64, DEFAULT_MASTER_SEED, factory);
            assert_eq!(per_shot.peak_amplitudes(), Some(2));
            let branch = BranchEnsemble::new(64).run(&circuit, factory).unwrap();
            assert_eq!(branch, per_shot);
        }
        // The shot runner shares the tracker's DAG.
        let shared = ShotRunner::new(64)
            .run(&circuit, || -> Box<dyn Simulator> { tracker() })
            .unwrap();
        assert_eq!(shared.peak_amplitudes(), Some(2));
    }

    #[test]
    fn probed_replays_match_per_shot_probes_across_batches() {
        // Seven fair coins: 128 paths, so a worker's batch fills with
        // `PROBE_BATCH` distinct paths and starts over while later shots
        // keep repeating earlier ones. One coin: 2 paths, so each worker
        // probes at most twice.
        use std::sync::atomic::{AtomicUsize, Ordering};
        for coins in [7, 1] {
            let mut b = CircuitBuilder::new();
            let q = b.qreg("q", coins);
            for i in 0..coins {
                let _ = b.measure(q[i], Basis::X);
            }
            let circuit = b.finish();
            let compiled = compile_for(&circuit, None).unwrap();
            let factory = || Box::new(BasisTracker::zeros(coins)) as Box<dyn Simulator>;
            let calls = AtomicUsize::new(0);
            let probe = |sim: &dyn Simulator, ex: &Executed| {
                calls.fetch_add(1, Ordering::Relaxed);
                (sim.global_phase(), ex.clone())
            };
            let (_, reference) = per_shot(&compiled, 2000, 7, 1, &factory, Some(&probe)).unwrap();
            for workers in [1, 3] {
                let dag = Dag::build(
                    &compiled,
                    factory(),
                    DEFAULT_BRANCH_EPS,
                    DEFAULT_NODE_BUDGET,
                )
                .unwrap();
                calls.store(0, Ordering::Relaxed);
                let (_, observed) = dag
                    .replay(&compiled, 2000, 7, workers, &factory, Some(&probe))
                    .unwrap();
                assert_eq!(observed, reference, "{coins} coins, workers = {workers}");
                let calls = calls.load(Ordering::Relaxed);
                assert!(calls < 2000, "repeats share a probe: {calls} calls");
                if coins == 1 {
                    assert!(calls <= 2 * workers, "{calls} calls, workers = {workers}");
                }
            }
        }
    }

    #[test]
    fn shots_drawn_into_pruned_mass_run_alone_in_shot_order() {
        // q0 reads 1 with p_one = sin²(π/32) ≈ 0.0096, below the 0.05
        // floor: that branch is pruned, and the shots that draw it run
        // per shot amid the replayed ones. q1 is a fair coin after it.
        // (An X-basis measurement after H·P·H would draw at ½; the Z
        // basis reads the sandwich's sin².)
        use mbu_circuit::Angle;
        use std::f64::consts::PI;
        let mut b = CircuitBuilder::new();
        let q = b.qreg("q", 2);
        b.h(q[0]);
        b.phase(q[0], Angle::turn_over_power_of_two(5));
        b.h(q[0]);
        let c = b.measure(q[0], Basis::Z);
        let _ = b.measure(q[1], Basis::X);
        let circuit = b.finish();
        let dense = || Box::new(StateVector::zeros(2).unwrap()) as Box<dyn Simulator + Send>;
        let dist = BranchEnsemble::new(0)
            .with_eps(0.05)
            .distribution(&circuit, dense)
            .unwrap();
        let p_one = (PI / 32.0).sin().powi(2);
        assert!((dist.pruned_mass() - p_one).abs() < 1e-12, "{dist:?}");
        for seed in [3u64, 11, 2026] {
            let branch = BranchEnsemble::new(1000)
                .with_eps(0.05)
                .with_master_seed(seed)
                .run(&circuit, dense)
                .unwrap();
            assert!(branch.outcome_ones(c.index()) > 0, "seed {seed}");
            let per_shot = per_shot_reference(&circuit, 1000, seed, dense);
            assert_eq!(branch, per_shot, "seed {seed}");
        }
        // Probed, on a state vector whose DAG keeps its leaf states: the
        // observations of the shots that ran alone land in shot order.
        let compiled = compile_for(&circuit, None).unwrap();
        let factory = || Box::new(Comparable(StateVector::zeros(2).unwrap())) as Box<dyn Simulator>;
        let probe = |sim: &dyn Simulator, ex: &Executed| (sim.bit(q[0]).ok(), ex.clone());
        let dag = Dag::build(&compiled, factory(), 0.05, DEFAULT_NODE_BUDGET).unwrap();
        assert!(dag.states.iter().all(Option::is_some));
        for seed in [3u64, 11, 2026] {
            let (acc, reference) =
                per_shot(&compiled, 1000, seed, 1, &factory, Some(&probe)).unwrap();
            assert!(reference.iter().any(|(bit, _)| *bit == Some(true)));
            for workers in [1, 3] {
                let replayed = dag
                    .replay(&compiled, 1000, seed, workers, &factory, Some(&probe))
                    .unwrap();
                assert_eq!(replayed, (acc.clone(), reference.clone()), "seed {seed}");
            }
        }
    }

    /// A state vector that recognises its own state, so that its outcome
    /// DAGs rejoin and keep their leaf states. Its peaks read `None` (the
    /// trait's defaults) on the DAG and per shot alike.
    struct Comparable(StateVector);

    impl Simulator for Comparable {
        fn num_qubits(&self) -> usize {
            self.0.num_qubits()
        }
        fn apply_gate(&mut self, gate: &Gate) -> Result<(), SimError> {
            self.0.apply_gate(gate)
        }
        fn measure(
            &mut self,
            q: QubitId,
            basis: Basis,
            draw: &mut dyn FnMut(f64) -> bool,
        ) -> Result<bool, SimError> {
            self.0.measure(q, basis, draw)
        }
        fn reset(&mut self, q: QubitId, draw: &mut dyn FnMut(f64) -> bool) -> Result<(), SimError> {
            self.0.reset(q, draw)
        }
        fn measure_fork(&mut self, q: QubitId, basis: Basis) -> Result<Option<Fork>, SimError> {
            let wrap = |one: Box<dyn Simulator + Send>| {
                let one: Box<dyn Any> = one;
                let one = one.downcast::<StateVector>().expect("a dense branch");
                Box::new(Comparable(*one)) as Box<dyn Simulator + Send>
            };
            Ok(self.0.measure_fork(q, basis)?.map(|fork| match fork {
                Fork::Split { p_one, one } => Fork::Split {
                    p_one,
                    one: one.map(wrap),
                },
                definite => definite,
            }))
        }
        fn same_state(&self, other: &dyn Simulator) -> bool {
            let other: &dyn Any = other;
            other
                .downcast_ref::<Self>()
                .is_some_and(|o| o.0.amplitudes() == self.0.amplitudes())
        }
        fn set_bit(&mut self, q: QubitId, value: bool) -> Result<(), SimError> {
            self.0.set_bit(q, value)
        }
        fn bit(&self, q: QubitId) -> Result<bool, SimError> {
            self.0.bit(q)
        }
        fn global_phase(&self) -> Option<mbu_circuit::Angle> {
            self.0.global_phase()
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
