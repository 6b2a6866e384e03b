//! Pins the exact bits of the two map backends, `SparseVector` and
//! `PhaseAccumulator`, on a few thousand seeded random programs.
//!
//! The cross-validation suites compare the phase accumulator with the
//! amplitude engines only to within `1e-12`, so a last-bit drift in its
//! Born sums, renormalisation or materialisation would pass them. This
//! test hashes everything a run exposes into one FNV-64 digest per
//! backend: the classical record, the executed counts, the occupancy,
//! both peak getters, `global_phase`, the bits of every amplitude (the
//! accumulator's read through `phase_to_sparse`) and one `measure_fork`
//! after each run.
//!
//! Programs use 3–6 qubits and the gates whose arithmetic is exact in
//! every math library: X, H, CX, CCX, SWAP, Z, CZ and CCZ, plus Z- and
//! X-basis measurements, resets and classically controlled blocks. Other
//! rotation angles are left out, because the last bits of `sin` and
//! `cos` may differ between platforms. Each program runs lowered and
//! default-compiled.

use mbu_circuit::{Basis, Circuit, CircuitBuilder, CompiledCircuit, QubitId};
use mbu_sim::{phase_to_sparse, Complex, Fork, PhaseAccumulator, Simulator, SparseVector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const PROGRAMS: u64 = 3000;
const SPARSE_DIGEST: u64 = 6_320_083_811_681_124_119;
const PHASE_DIGEST: u64 = 9_804_089_441_713_613_725;

/// FNV-1a, 64-bit, over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn amplitudes(&mut self, amps: &[Complex]) {
        for a in amps {
            self.word(a.re.to_bits());
            self.word(a.im.to_bits());
        }
    }

    /// A readout that may fail: the error hashes as a sentinel.
    fn read(&mut self, r: Result<bool, mbu_sim::SimError>) {
        self.word(r.map_or(2, u64::from));
    }

    fn option(&mut self, v: Option<u64>) {
        self.word(v.map_or(u64::MAX, |v| v));
    }

    fn phase(&mut self, sim: &dyn Simulator) {
        match sim.global_phase() {
            Some(a) => {
                self.word(a.numerator() as u64);
                self.word((a.numerator() >> 64) as u64);
                self.word(u64::from(a.log2_denom()));
                self.word(u64::from(a.is_negated()));
            }
            None => self.word(u64::MAX),
        }
    }
}

/// The two backends under test, seen through what the digest reads.
trait MapBackend: Simulator + Sized {
    fn zeros(n: usize) -> Self;
    fn occupied(&self) -> usize;
    /// Every amplitude of the `2^n` basis, in index order.
    fn amplitudes(&self) -> Vec<Complex>;
}

impl MapBackend for SparseVector {
    fn zeros(n: usize) -> Self {
        SparseVector::zeros(n).unwrap()
    }
    fn occupied(&self) -> usize {
        SparseVector::occupied(self)
    }
    fn amplitudes(&self) -> Vec<Complex> {
        (0..1u128 << self.num_qubits())
            .map(|i| self.amplitude(i))
            .collect()
    }
}

impl MapBackend for PhaseAccumulator {
    fn zeros(n: usize) -> Self {
        PhaseAccumulator::zeros(n).unwrap()
    }
    fn occupied(&self) -> usize {
        PhaseAccumulator::occupied(self)
    }
    fn amplitudes(&self) -> Vec<Complex> {
        MapBackend::amplitudes(&phase_to_sparse(self).unwrap())
    }
}

/// `k` distinct qubits out of `n`.
fn distinct(rng: &mut StdRng, n: usize, k: usize) -> Vec<QubitId> {
    let mut pool: Vec<u32> = (0..n as u32).collect();
    (0..k)
        .map(|_| QubitId(pool.swap_remove(rng.gen_range(0..pool.len()))))
        .collect()
}

fn random_gate(b: &mut CircuitBuilder, n: usize, rng: &mut StdRng) {
    match rng.gen_range(0..10u32) {
        0..=2 => b.h(distinct(rng, n, 1)[0]),
        3 => b.x(distinct(rng, n, 1)[0]),
        4 => b.z(distinct(rng, n, 1)[0]),
        5 => {
            let q = distinct(rng, n, 2);
            b.cx(q[0], q[1]);
        }
        6 => {
            let q = distinct(rng, n, 3);
            b.ccx(q[0], q[1], q[2]);
        }
        7 => {
            let q = distinct(rng, n, 2);
            b.swap(q[0], q[1]);
        }
        8 => {
            let q = distinct(rng, n, 2);
            b.cz(q[0], q[1]);
        }
        _ => {
            let q = distinct(rng, n, 3);
            b.ccz(q[0], q[1], q[2]);
        }
    }
}

/// A random program and a random basis input for it.
fn random_program(rng: &mut StdRng) -> (Circuit, u128) {
    let n = rng.gen_range(3..7usize);
    let mut b = CircuitBuilder::new();
    b.qreg("q", n);
    let mut clbits = Vec::new();
    for _ in 0..rng.gen_range(8..32usize) {
        match rng.gen_range(0..14u32) {
            0..=9 => random_gate(&mut b, n, rng),
            10 | 11 => {
                let basis = if rng.gen_bool(0.5) {
                    Basis::X
                } else {
                    Basis::Z
                };
                let q = distinct(rng, n, 1)[0];
                clbits.push(b.measure(q, basis));
            }
            12 => b.reset(distinct(rng, n, 1)[0]),
            _ if !clbits.is_empty() => {
                let clbit = clbits[rng.gen_range(0..clbits.len())];
                let len = rng.gen_range(1..4usize);
                let (_, block) = b.record(|bb| {
                    for _ in 0..len {
                        random_gate(bb, n, rng);
                    }
                });
                b.emit_conditional(clbit, &block);
            }
            _ => random_gate(&mut b, n, rng),
        }
    }
    let input = rng.gen_range(0..1u128 << n);
    (b.finish(), input)
}

/// Runs every program on backend `S` and hashes what each run exposes.
fn digest<S: MapBackend + 'static>() -> u64 {
    let mut h = Fnv::new();
    for program in 0..PROGRAMS {
        let mut rng = StdRng::seed_from_u64(program);
        let (circuit, input) = random_program(&mut rng);
        let n = circuit.num_qubits();
        let qubits: Vec<QubitId> = (0..n as u32).map(QubitId).collect();
        let lowered = CompiledCircuit::lower(&circuit).unwrap();
        let compiled = CompiledCircuit::compile(&circuit).unwrap();
        for (k, program) in [lowered, compiled].iter().enumerate() {
            let mut sim = S::zeros(n);
            sim.set_value(&qubits, input).unwrap();
            let mut run_rng = StdRng::seed_from_u64(rng.gen_range(0..u64::MAX));
            let executed = sim.run_compiled(program, &mut run_rng).unwrap();
            h.word(k as u64);
            for bit in &executed.classical {
                h.word(bit.map_or(2, u64::from));
            }
            let c = &executed.counts;
            for count in [
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
            ] {
                h.word(count);
            }
            h.word(sim.occupied() as u64);
            h.option(sim.peak_amplitudes());
            h.option(sim.occupancy_peak());
            h.phase(&sim);
            h.amplitudes(&sim.amplitudes());

            let q = distinct(&mut rng, n, 1)[0];
            let basis = if rng.gen_bool(0.5) {
                Basis::X
            } else {
                Basis::Z
            };
            match sim.measure_fork(q, basis).unwrap() {
                Some(Fork::Definite(outcome)) => h.word(u64::from(outcome)),
                Some(Fork::Split { p_one, one }) => {
                    h.word(p_one.to_bits());
                    let one = one.expect("map backends hand back the outcome-1 branch");
                    for &q in &qubits {
                        h.read(one.bit(q));
                    }
                    h.option(one.peak_amplitudes());
                    h.option(one.occupancy_peak());
                    h.phase(one.as_ref());
                }
                None => panic!("map backends fork"),
            }
            h.word(sim.occupied() as u64);
            h.amplitudes(&sim.amplitudes());
        }
    }
    h.0
}

#[test]
fn sparse_vector_bits_are_pinned() {
    assert_eq!(
        digest::<SparseVector>(),
        SPARSE_DIGEST,
        "SparseVector digest moved"
    );
}

#[test]
fn phase_accumulator_bits_are_pinned() {
    assert_eq!(
        digest::<PhaseAccumulator>(),
        PHASE_DIGEST,
        "PhaseAccumulator digest moved"
    );
}
