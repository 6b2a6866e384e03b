//! Pins the exact aggregates of the five `mc_expect` ensembles.
//!
//! Each row is a Table-1 MBU modular adder (VBE5, VBE4, CDKPM, Gidney and
//! CDKPM+Gidney) at n = 64 and p = 2^64 − 59, run as a 4096-shot
//! [`ShotRunner`] ensemble on the basis tracker with fixed inputs and a
//! fixed master seed. The test pins what an ensemble exposes: the bits of
//! `mean()` and `variance()` for all 14 count fields, the per-clbit write
//! and one tallies (as one FNV-64 digest with the clbit count), the number
//! of distinct records with an FNV-64 digest over `record_frequencies()`,
//! and `peak_amplitudes()`.
//!
//! The values were printed by the per-shot engine, which runs the whole
//! program once per shot. Whatever path the runner takes to the same
//! ensemble must reproduce them bit for bit.

use mbu_arith::modular::{self, ModAddSpec};
use mbu_arith::Uncompute;
use mbu_sim::{BasisTracker, CountStats, Ensemble, ShotRunner, Simulator};

const N: usize = 64;
/// The largest prime below 2^64.
const P: u128 = 18_446_744_073_709_551_557;
const X: u128 = 0x0123_4567_89ab_cdef;
const Y: u128 = 0xfedc_ba98_7654_3210 % P;
const SHOTS: u64 = 4096;
const MASTER_SEED: u64 = 20_261_019;

/// What one row's ensemble must reproduce.
struct Golden {
    name: &'static str,
    spec: fn(Uncompute) -> ModAddSpec,
    mean: [u64; 14],
    variance: [u64; 14],
    clbits: usize,
    clbit_digest: u64,
    distinct_records: usize,
    record_digest: u64,
    peak: Option<u64>,
}

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
}

fn field_bits(s: &CountStats) -> [u64; 14] {
    [
        s.x,
        s.z,
        s.h,
        s.phase,
        s.cx,
        s.cz,
        s.toffoli,
        s.ccz,
        s.cphase,
        s.ccphase,
        s.swap,
        s.measure_z,
        s.measure_x,
        s.reset,
    ]
    .map(f64::to_bits)
}

fn clbit_digest(e: &Ensemble) -> u64 {
    let mut h = Fnv::new();
    for clbit in 0..e.num_clbits() {
        h.word(e.outcome_writes(clbit));
        h.word(e.outcome_ones(clbit));
    }
    h.0
}

fn record_digest(e: &Ensemble) -> u64 {
    let mut h = Fnv::new();
    for (record, shots) in e.record_frequencies() {
        h.word(record.len() as u64);
        for bit in record {
            h.word(bit.map_or(2, u64::from));
        }
        h.word(shots);
    }
    h.0
}

fn ensemble(spec: fn(Uncompute) -> ModAddSpec) -> Ensemble {
    let layout = modular::modadd_circuit(&spec(Uncompute::Mbu), N, P).unwrap();
    let nq = layout.circuit.num_qubits();
    ShotRunner::new(SHOTS)
        .with_master_seed(MASTER_SEED)
        .run(&layout.circuit, || {
            let mut sim = BasisTracker::zeros(nq);
            sim.set_value(layout.x.qubits(), X).unwrap();
            sim.set_value(layout.y.qubits(), Y).unwrap();
            Box::new(sim) as Box<dyn Simulator>
        })
        .unwrap()
}

#[rustfmt::skip]
const ROWS: [Golden; 5] = [
    Golden {
        name: "VBE5",
        spec: ModAddSpec::vbe5,
        mean: [
            4643053298461442048, 0, 4611738794985521152, 0,
            4652229461729607680, 0, 4652235801101336576, 0,
            0, 0, 0, 4607182418800017408,
            0, 0,
        ],
        variance: [
            4598170271742951424, 0, 4607177470997692416, 0,
            4679255138629582848, 0, 4679094954310500352, 0,
            0, 0, 0, 0,
            0, 0,
        ],
        clbits: 1,
        clbit_digest: 3379125943974865901,
        distinct_records: 2,
        record_digest: 3044195235654690001,
        peak: Some(2),
    },
    Golden {
        name: "VBE4",
        spec: ModAddSpec::vbe4,
        mean: [
            4644284545326120960, 0, 4611738794985521152, 0,
            4650507574980902912, 0, 4651109901194493952, 0,
            0, 0, 0, 4607182418800017408,
            0, 0,
        ],
        variance: [
            4661293745243684864, 0, 4607177470997692416, 0,
            4661220666526138368, 0, 4670087755055759360, 0,
            0, 0, 0, 0,
            0, 0,
        ],
        clbits: 1,
        clbit_digest: 3379125943974865901,
        distinct_records: 2,
        record_digest: 3044195235654690001,
        peak: Some(2),
    },
    Golden {
        name: "CDKPM",
        spec: ModAddSpec::cdkpm,
        mean: [
            4644284545326120960, 0, 4611738794985521152, 0,
            4652242655869140992, 0, 4646685672562753536, 0,
            0, 0, 0, 4607182418800017408,
            0, 0,
        ],
        variance: [
            4661293745243684864, 0, 4607177470997692416, 0,
            4670265573408505856, 0, 4661220666526138368, 0,
            0, 0, 0, 0,
            0, 0,
        ],
        clbits: 1,
        clbit_digest: 3379125943974865901,
        distinct_records: 2,
        record_digest: 3044195235654690001,
        peak: Some(2),
    },
    Golden {
        name: "Gidney",
        spec: ModAddSpec::gidney,
        mean: [
            4644293964189401088, 0, 4642192535475716096, 0,
            4654133827680075776, 4637615388828368896, 4642156234412130304, 0,
            0, 0, 0, 4642156234412130304,
            0, 4642121050040041472,
        ],
        variance: [
            4661291650230714368, 0, 4652499463572553728, 0,
            4675163309174743040, 4644204848382738432, 4652209341955309568, 0,
            0, 0, 0, 4652209341955309568,
            0, 4652209341955309568,
        ],
        clbits: 257,
        clbit_digest: 18196152710216760091,
        distinct_records: 4096,
        record_digest: 4150285247538971528,
        peak: Some(4),
    },
    Golden {
        name: "CDKPM+Gidney",
        spec: ModAddSpec::gidney_cdkpm,
        mean: [
            4644294518240182272, 0, 4636601020632268800, 0,
            4653056713233006592, 4631953625499828224, 4644988576365281280, 0,
            0, 0, 0, 4636528384145358848,
            0, 4636458015401181184,
        ],
        variance: [
            4661291507364134912, 0, 4652499313983750144, 0,
            4675163155026116608, 4643544490633592832, 4652209060634951680, 0,
            0, 0, 0, 4652209060634951680,
            0, 4652209060634951680,
        ],
        clbits: 128,
        clbit_digest: 2415774135644042085,
        distinct_records: 4096,
        record_digest: 8279946738267187204,
        peak: Some(4),
    },
];

#[test]
fn mc_expect_ensembles_keep_their_bits() {
    for row in &ROWS {
        let e = ensemble(row.spec);
        assert_eq!(e.shots(), SHOTS, "{}", row.name);
        assert_eq!(field_bits(&e.mean()), row.mean, "{}: mean", row.name);
        assert_eq!(
            field_bits(&e.variance()),
            row.variance,
            "{}: variance",
            row.name
        );
        assert_eq!(e.num_clbits(), row.clbits, "{}: clbits", row.name);
        assert_eq!(
            clbit_digest(&e),
            row.clbit_digest,
            "{}: outcome_writes and outcome_ones",
            row.name
        );
        assert_eq!(
            e.distinct_records(),
            row.distinct_records,
            "{}: distinct records",
            row.name
        );
        assert_eq!(
            record_digest(&e),
            row.record_digest,
            "{}: record frequencies",
            row.name
        );
        assert_eq!(e.peak_amplitudes(), row.peak, "{}: peak", row.name);
    }
}
