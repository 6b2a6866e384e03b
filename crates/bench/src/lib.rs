//! Shared harness code for regenerating the paper's tables and figures.
//!
//! The binaries (`tables`, `figures`) build circuits through
//! [`mbu_arith`] and measure them three ways:
//!
//! * **static** — exact [`GateCounts`](mbu_circuit::GateCounts) of the
//!   constructed circuit (conditional blocks at full weight);
//! * **analytic expectation** — [`ExpectedCounts`](mbu_circuit::ExpectedCounts) with conditional blocks
//!   at weight ½, the paper's "in expectation" accounting;
//! * **Monte-Carlo** — mean executed counts over a seeded
//!   [`ShotRunner`] ensemble, which validates the analytic expectation
//!   empirically (and in parallel).
//!
//! Timing lives in the separate `perfbench` workspace; the integration
//! tests and examples import [`benchmark_modulus`] and
//! [`build_row_circuit`] from here.

use mbu_arith::modular::ModAddSpec;
use mbu_arith::{modular, resources, Uncompute};
use mbu_circuit::{Circuit, QubitId};
use mbu_sim::{BasisTracker, CountStats, Ensemble, ShotRunner};

/// The full executed-count ensemble over `trials` seeded shots of
/// `circuit` on the [`BasisTracker`], run across all available CPUs.
///
/// # Panics
///
/// Panics if the circuit leaves the basis tracker's supported fragment.
#[must_use]
pub fn monte_carlo_ensemble(
    circuit: &Circuit,
    inputs: &[(&[QubitId], u128)],
    trials: u64,
) -> Ensemble {
    ShotRunner::new(trials)
        .run(circuit, || {
            let mut sim = BasisTracker::zeros(circuit.num_qubits());
            for (reg, v) in inputs {
                sim.set_value(reg, *v)
                    .expect("benchmark registers lie inside the circuit width");
            }
            Box::new(sim)
        })
        .expect("circuit must be tracker-supported")
}

/// Averaged executed counts from Monte-Carlo runs: the paper-relevant
/// projection of a [`CountStats`].
#[derive(Clone, Copy, Default, Debug)]
pub struct MeanCounts {
    /// Mean Toffolis executed.
    pub toffoli: f64,
    /// Mean CNOTs executed.
    pub cx: f64,
    /// Mean CZs executed.
    pub cz: f64,
    /// Mean X gates executed.
    pub x: f64,
    /// Mean H gates executed.
    pub h: f64,
    /// Mean measurements executed.
    pub measurements: f64,
}

impl MeanCounts {
    /// Projects ensemble statistics down to the paper's columns.
    #[must_use]
    pub fn from_stats(stats: &CountStats) -> Self {
        Self {
            toffoli: stats.toffoli,
            cx: stats.cx,
            cz: stats.cz,
            x: stats.x,
            h: stats.h,
            measurements: stats.measurements(),
        }
    }
}

/// The Table-1 architecture rows that map onto [`ModAddSpec`] presets
/// (everything except the Draper rows, which are handled separately).
#[must_use]
pub fn spec_for_row(row: resources::Table1Row, unc: Uncompute) -> Option<ModAddSpec> {
    match row {
        resources::Table1Row::Vbe5 => Some(ModAddSpec::vbe5(unc)),
        resources::Table1Row::Vbe4 => Some(ModAddSpec::vbe4(unc)),
        resources::Table1Row::Cdkpm => Some(ModAddSpec::cdkpm(unc)),
        resources::Table1Row::Gidney => Some(ModAddSpec::gidney(unc)),
        resources::Table1Row::CdkpmGidney => Some(ModAddSpec::gidney_cdkpm(unc)),
        resources::Table1Row::Draper | resources::Table1Row::DraperExpect => None,
    }
}

/// A prime modulus close to `2^n − 1` for each benchmark width.
///
/// Widths of 127 and beyond all share the Mersenne prime `2^127 − 1`,
/// the widest prime that still leaves `x + y` representable in `u128`.
///
/// # Panics
///
/// Panics for unsupported widths (the harness uses 4–64 and ≥ 127).
#[must_use]
pub fn benchmark_modulus(n: usize) -> u128 {
    match n {
        3 => 7,
        4 => 13,
        6 => 61,
        8 => 251,
        10 => 1021,
        12 => 4093,
        16 => 65_521,
        24 => 16_777_213,
        32 => 4_294_967_291,
        48 => 281_474_976_710_597,
        61 => (1u128 << 61) - 1,
        64 => 18_446_744_073_709_551_557,
        // The largest prime a `u128` modulus can carry cleanly: the
        // Mersenne prime 2^127 − 1. Serves every register width past
        // 128 — the sparse backend runs registers of hundreds of
        // qubits, but classical reference arithmetic stays in `u128`.
        127.. => (1u128 << 127) - 1,
        _ => panic!("no benchmark modulus tabulated for n = {n}"),
    }
}

/// Builds a modular adder for a Table-1 architecture row.
///
/// The ripple rows go through their [`ModAddSpec`] presets; the Draper
/// rows build the Beauregard QFT modular adder — all-diagonal interior,
/// the phase-accumulator backend's native workload.
///
/// # Panics
///
/// Panics if circuit construction fails (invalid `n`/`p` combinations).
#[must_use]
pub fn build_row_circuit(
    row: resources::Table1Row,
    unc: Uncompute,
    n: usize,
    p: u128,
) -> Option<modular::ModAdd> {
    let layout = match spec_for_row(row, unc) {
        Some(spec) => modular::modadd_circuit(&spec, n, p),
        None => modular::beauregard::modadd_circuit(unc, n, p),
    };
    Some(layout.expect("valid parameters"))
}

/// Formats `value` with one decimal when fractional, none otherwise.
#[must_use]
pub fn fmt_count(value: f64) -> String {
    if (value - value.round()).abs() < 1e-9 {
        format!("{}", value.round() as i64)
    } else {
        format!("{value:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbu_arith::resources::Table1Row;

    #[test]
    fn moduli_fit_their_widths() {
        for n in [4usize, 8, 16, 32, 48, 61, 64] {
            let p = benchmark_modulus(n);
            assert!(p > 1);
            assert!(n >= 128 || p < (1u128 << n), "n={n}");
        }
    }

    #[test]
    fn monte_carlo_agrees_with_analytic_on_a_small_circuit() {
        let layout = build_row_circuit(Table1Row::Cdkpm, Uncompute::Mbu, 6, 61).unwrap();
        let analytic = layout.circuit.expected_counts().toffoli;
        let mean = monte_carlo_ensemble(
            &layout.circuit,
            &[(layout.x.qubits(), 30), (layout.y.qubits(), 45)],
            400,
        )
        .mean();
        assert!(
            (mean.toffoli - analytic).abs() < analytic * 0.1 + 1.0,
            "{} vs {analytic}",
            mean.toffoli
        );
    }

    #[test]
    fn fmt_count_renders_integers_plainly() {
        assert_eq!(fmt_count(12.0), "12");
        assert_eq!(fmt_count(3.5), "3.50");
    }

    #[test]
    fn draper_row_builds_beauregard_and_runs_on_the_phase_backend() {
        use mbu_sim::{PhaseAccumulator, Simulator};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let (n, p) = (4usize, benchmark_modulus(4));
        let layout = build_row_circuit(Table1Row::Draper, Uncompute::Mbu, n, p).unwrap();
        // QFT arithmetic throughout: no Toffolis anywhere in the row.
        assert_eq!(layout.circuit.counts().toffoli, 0);

        let (x, y) = (p - 1, p / 2 + 1);
        let mut sim = PhaseAccumulator::zeros(layout.circuit.num_qubits()).unwrap();
        sim.set_value(layout.x.qubits(), x).unwrap();
        sim.set_value(layout.y.qubits(), y).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        sim.run(&layout.circuit, &mut rng).unwrap();
        assert_eq!(sim.value(layout.x.qubits()).unwrap(), x);
        assert_eq!(sim.value(layout.y.qubits()).unwrap(), (x + y) % p);
        assert_eq!(sim.occupied(), 1);
    }
}
