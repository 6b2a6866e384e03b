//! Result checkers and the failure tally behind `failed_frac`.
//!
//! A job fails on a typed error from any layer, on any `verify()`
//! finding, or on a wrong result. Every failure is a value, never a
//! panic, so one bad job costs one count and the run goes on.

use std::collections::BTreeMap;
use std::fmt;

use mbu_circuit::{Finding, QubitId};
use mbu_sim::Simulator;

/// Why a job failed.
#[derive(Debug, PartialEq)]
pub enum JobError {
    /// A typed error from a builder, the compiler or a simulator.
    Layer(String),
    /// `verify()` reported findings on the compiled program.
    Verify { findings: usize, first: String },
    /// A register read back a wrong bit.
    WrongBit { bit: usize, got: bool },
    /// The ensemble's mean Toffoli count left its tolerance.
    ToffoliMean {
        mean: f64,
        expected: f64,
        tolerance: f64,
    },
    /// Some shots of an ensemble read back a wrong sum.
    WrongShots { wrong: usize, shots: usize },
}

impl JobError {
    /// The failure class, for the per-class tally.
    pub fn kind(&self) -> &'static str {
        match self {
            Self::Layer(_) => "layer_error",
            Self::Verify { .. } => "verify_finding",
            Self::WrongBit { .. } => "wrong_bit",
            Self::ToffoliMean { .. } => "toffoli_mean",
            Self::WrongShots { .. } => "wrong_shots",
        }
    }
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Layer(why) => write!(f, "layer error: {why}"),
            Self::Verify { findings, first } => {
                write!(f, "{findings} verify finding(s), first: {first}")
            }
            Self::WrongBit { bit, got } => write!(f, "bit {bit} read {got}"),
            Self::ToffoliMean {
                mean,
                expected,
                tolerance,
            } => {
                write!(
                    f,
                    "mean Toffoli {mean} vs expected {expected} ± {tolerance}"
                )
            }
            Self::WrongShots { wrong, shots } => {
                write!(f, "{wrong} of {shots} shots read a wrong sum")
            }
        }
    }
}

/// Turns any layer's typed error into a job failure.
pub fn layer<E: fmt::Display>(e: E) -> JobError {
    JobError::Layer(e.to_string())
}

/// Fails on any finding of `verify()`.
pub fn check_findings(findings: &[Finding]) -> Result<(), JobError> {
    match findings.first() {
        None => Ok(()),
        Some(first) => Err(JobError::Verify {
            findings: findings.len(),
            first: first.to_string(),
        }),
    }
}

/// Reads `reg` bit by bit and compares every bit with the little-endian
/// `expected` (bits at 128 and above must read 0).
pub fn check_register(
    sim: &dyn Simulator,
    reg: &[QubitId],
    expected: u128,
) -> Result<(), JobError> {
    for (bit, q) in reg.iter().enumerate() {
        let got = sim.bit(*q).map_err(layer)?;
        if got != (bit < 128 && (expected >> bit) & 1 == 1) {
            return Err(JobError::WrongBit { bit, got });
        }
    }
    Ok(())
}

/// How far an ensemble's mean Toffoli count may sit from the analytic
/// expectation: six standard errors of the widest per-shot distribution
/// the circuit allows.
///
/// Each conditional block runs with probability ½, so a shot executes
/// between `2·expected − worst` and `worst` Toffolis (`worst` counts every
/// block) and its standard deviation is at most `worst − expected`.
pub fn toffoli_tolerance(expected: f64, worst: f64, shots: u64) -> f64 {
    6.0 * (worst - expected).max(0.0) / (shots.max(1) as f64).sqrt()
}

/// Fails when `mean` is further from `expected` than the tolerance.
pub fn check_toffoli_mean(
    mean: f64,
    expected: f64,
    worst: f64,
    shots: u64,
) -> Result<(), JobError> {
    let tolerance = toffoli_tolerance(expected, worst, shots);
    // NaN fails: the comparison is written so only a finite, close mean passes.
    if (mean - expected).abs() <= tolerance + 1e-9 {
        Ok(())
    } else {
        Err(JobError::ToffoliMean {
            mean,
            expected,
            tolerance,
        })
    }
}

/// Attempted and failed jobs, failures split by class.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub by_kind: BTreeMap<&'static str, u64>,
    pub first: Option<String>,
}

impl Tally {
    /// Counts one job's outcome.
    pub fn record<T>(&mut self, outcome: &Result<T, JobError>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            *self.by_kind.entry(e.kind()).or_insert(0) += 1;
            self.first.get_or_insert_with(|| e.to_string());
        }
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    //! Self-test of the checkers: each known-bad result must land in the
    //! tally as a failure, and none may panic.

    use super::*;
    use crate::workloads::P_WIDE;
    use mbu_arith::modular::{self, ModAddSpec};
    use mbu_arith::Uncompute;
    use mbu_circuit::{CompiledCircuit, Gate};
    use mbu_sim::BackendKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A real sparse run of a 128-bit CDKPM MBU modadd, so the sum has
    /// bits past 64 to corrupt.
    fn sparse_sum() -> (Box<dyn Simulator + Send>, Vec<QubitId>, u128) {
        let n = 128;
        let layout =
            modular::modadd_circuit(&ModAddSpec::cdkpm(Uncompute::Mbu), n, P_WIDE).unwrap();
        let compiled = CompiledCircuit::compile(&layout.circuit).unwrap();
        let (x, y) = (P_WIDE - 3, (1u128 << 100) + 12_345);
        let mut sim = BackendKind::Sparse
            .build(layout.circuit.num_qubits())
            .unwrap();
        sim.set_value(layout.x.qubits(), x).unwrap();
        sim.set_value(layout.y.qubits(), y).unwrap();
        sim.run_compiled(&compiled, &mut StdRng::seed_from_u64(5))
            .unwrap();
        (sim, layout.y.qubits().to_vec(), (x + y) % P_WIDE)
    }

    #[test]
    fn a_correct_sum_passes() {
        let (sim, y, sum) = sparse_sum();
        let mut tally = Tally::default();
        tally.record(&check_register(sim.as_ref(), &y, sum));
        assert_eq!((tally.attempted, tally.failed), (1, 0));
    }

    #[test]
    fn a_flipped_sum_bit_past_64_is_a_failure() {
        let (mut sim, y, sum) = sparse_sum();
        sim.apply_gate(&Gate::X(y[100])).unwrap();
        let mut tally = Tally::default();
        tally.record(&check_register(sim.as_ref(), &y, sum));
        assert_eq!(tally.failed_frac(), 1.0);
        assert_eq!(tally.by_kind.get("wrong_bit"), Some(&1));
    }

    #[test]
    fn a_set_bit_above_the_u128_range_is_a_failure() {
        let (mut sim, y, sum) = sparse_sum();
        sim.apply_gate(&Gate::X(y[128])).unwrap();
        assert_eq!(
            check_register(sim.as_ref(), &y, sum),
            Err(JobError::WrongBit {
                bit: 128,
                got: true
            })
        );
    }

    #[test]
    fn a_toffoli_mean_outside_tolerance_is_a_failure() {
        let (expected, worst, shots) = (640.0, 768.0, 4096);
        let tol = toffoli_tolerance(expected, worst, shots);
        assert!(tol > 0.0);
        let mut tally = Tally::default();
        tally.record(&check_toffoli_mean(
            expected + 0.5 * tol,
            expected,
            worst,
            shots,
        ));
        tally.record(&check_toffoli_mean(
            expected + 3.0 * tol,
            expected,
            worst,
            shots,
        ));
        tally.record(&check_toffoli_mean(f64::NAN, expected, worst, shots));
        assert_eq!((tally.attempted, tally.failed), (3, 2));
        assert_eq!(tally.by_kind.get("toffoli_mean"), Some(&2));
    }

    #[test]
    fn a_deterministic_circuit_gets_zero_tolerance() {
        assert_eq!(toffoli_tolerance(10.0, 10.0, 4096), 0.0);
        assert!(check_toffoli_mean(10.0, 10.0, 10.0, 4096).is_ok());
        assert!(check_toffoli_mean(10.5, 10.0, 10.0, 4096).is_err());
    }

    #[test]
    fn a_verify_finding_is_a_failure() {
        let findings = vec![Finding::QubitOutOfRange { pc: 3, qubit: 999 }];
        let mut tally = Tally::default();
        tally.record(&check_findings(&findings));
        tally.record(&check_findings(&[]));
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert_eq!(tally.by_kind.get("verify_finding"), Some(&1));
    }
}
