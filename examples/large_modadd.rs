//! Functional simulation far past the dense limit: a multi-stage MBU
//! modular-adder chain on 256-bit registers, run on the sparse
//! basis-map backend.
//!
//! A dense statevector caps out at 26 qubits (2^26 amplitudes). The
//! paper's adders, though, are permutation circuits: started from a
//! computational basis state they occupy a *handful* of basis states at
//! any instant — only the MBU/AND measurement ancillas ever fan out,
//! and each collapses immediately. `SparseVector` stores exactly those
//! occupied states, so the same Table-1 circuits run functionally at
//! hundreds or thousands of qubits in milliseconds.
//!
//! ```text
//! cargo run --release --example large_modadd
//! ```

use mbu_arith::modular::{self, ModAddSpec};
use mbu_arith::Uncompute;
use mbu_bench::benchmark_modulus;
use mbu_circuit::CompiledCircuit;
use mbu_sim::{Simulator, SparseVector};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Register width in bits. The modulus is the Mersenne prime 2^127 − 1
/// (classical reference arithmetic stays in `u128`); the registers
/// carrying it are 256 bits wide.
const N: usize = 256;
const STAGES: usize = 3;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let p = benchmark_modulus(N);
    let spec = ModAddSpec::cdkpm(Uncompute::Mbu);
    let chain = modular::modadd_chain_circuit(&spec, N, p, STAGES)?;
    let nq = chain.circuit.num_qubits();
    let counts = chain.circuit.counts();
    println!("{STAGES}-stage CDKPM MBU modular-adder chain, n = {N} bits:");
    println!(
        "  {nq} qubits, {} Toffoli, {} CNOT, {} measurements",
        counts.toffoli,
        counts.cx,
        counts.measurements()
    );
    println!(
        "  dense statevector would need 2^{nq} amplitudes (2^{} bytes)",
        nq + 4
    );

    let x = p - 1;
    let y = p / 2 + 1;
    let compiled = CompiledCircuit::compile(&chain.circuit)?;
    let mut sim = SparseVector::zeros(nq)?;
    sim.set_value(chain.x.qubits(), x)?;
    sim.set_value(chain.y.qubits(), y)?;
    let mut rng = StdRng::seed_from_u64(7);

    let start = Instant::now();
    sim.run_compiled(&compiled, &mut rng)?;
    let wall = start.elapsed();

    // Each stage adds x once: |x⟩|y⟩ → |x⟩|(y + STAGES·x) mod p⟩. The
    // registers are wider than any native integer, so read bit by bit
    // (and accumulate stage by stage — 3·x alone overflows u128).
    let mut expect = y;
    for _ in 0..STAGES {
        expect = (expect + x) % p;
    }
    let mut got = 0u128;
    for (i, q) in chain.y.qubits().iter().enumerate() {
        let bit = sim.bit(*q)?;
        assert_eq!(
            bit,
            i < 128 && (expect >> i) & 1 == 1,
            "sum bit {i} disagrees with the classical reference"
        );
        if bit && i < 128 {
            got |= 1u128 << i;
        }
    }
    println!("  x = {x:#x}");
    println!("  y = {y:#x}");
    println!("  (y + {STAGES}·x) mod p = {got:#x}  ✓ matches u128 reference");

    let peak = sim
        .peak_amplitudes()
        .expect("sparse backend reports a peak");
    let entry_bytes = nq.div_ceil(64) * 8 + 16;
    println!(
        "  wall {wall:.1?}, peak {peak} occupied states ({} bytes of state)",
        peak as usize * entry_bytes
    );
    Ok(())
}
