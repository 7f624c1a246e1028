//! Every data set's stream and every workload builder's queries, pinned
//! by an FNV-1a digest (the benchmark's `stream_digest` for events: time,
//! type id and each attribute's tag and bits; the `Debug` text for
//! queries). A generator refactor that changes one RNG draw, one mix
//! weight or one query text fails here. Re-pin only when a stream or a
//! workload is meant to change.

use hamlet_query::Query;
use hamlet_stream::{nyc_taxi, ridesharing, smart_home, stock, Dataset, GenConfig};
use hamlet_types::{AttrValue, Event};

struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn stream_digest(events: &[Event]) -> u64 {
    let mut h = Fnv::default();
    for e in events {
        h.u64(e.time.ticks());
        h.u64(u64::from(e.ty.0));
        for a in &e.attrs {
            match a {
                AttrValue::Int(i) => {
                    h.bytes(&[0]);
                    h.u64(*i as u64);
                }
                AttrValue::Float(f) => {
                    h.bytes(&[1]);
                    h.u64(f.to_bits());
                }
                AttrValue::Str(s) => {
                    h.bytes(&[2]);
                    h.u64(s.len() as u64);
                    h.bytes(s.as_bytes());
                }
            }
        }
    }
    h.0
}

fn query_digest(queries: &[Query]) -> u64 {
    let mut h = Fnv::default();
    for q in queries {
        h.bytes(format!("{q:?}").as_bytes());
    }
    h.0
}

/// The default config; Zipf-skewed keys delivered out of order; bursts
/// of mean 1, where every type's stay probability is 0.
fn configs() -> [GenConfig; 3] {
    [
        GenConfig::default(),
        GenConfig {
            num_groups: 50,
            group_skew: 0.8,
            max_lateness: 5,
            seed: 21,
            ..GenConfig::default()
        },
        GenConfig {
            mean_burst: 1.0,
            seed: 3,
            ..GenConfig::default()
        },
    ]
}

/// Per data set, one digest per row of [`configs`].
const STREAMS: [(Dataset, [u64; 3]); 4] = [
    (
        Dataset::Ridesharing,
        [
            0xfb1a_65cd_b221_26e4,
            0x87e4_b67d_6ffa_cde2,
            0xad64_e659_2c45_26d9,
        ],
    ),
    (
        Dataset::NycTaxi,
        [
            0x9df4_67d9_3abe_2222,
            0x1a53_e421_95a6_1aa8,
            0x7ee0_951d_7fd8_dfe8,
        ],
    ),
    (
        Dataset::SmartHome,
        [
            0x49af_0729_b312_e25b,
            0xf18e_4ca4_a3f3_74d3,
            0xa2f2_bd47_dc8a_ccf6,
        ],
    ),
    (
        Dataset::Stock,
        [
            0x1a66_37cd_4a62_082b,
            0xc818_f8eb_1b75_1ad5,
            0x1e8e_a91d_25e6_3492,
        ],
    ),
];

#[test]
fn every_data_set_generates_its_pinned_stream() {
    let mut got = Vec::new();
    for (dataset, _) in STREAMS {
        let reg = dataset.registry();
        let digests = configs().map(|cfg| stream_digest(&dataset.generate(&reg, &cfg)));
        got.push((dataset, digests));
    }
    assert_eq!(got, STREAMS, "streams moved: {got:#x?}");
}

#[test]
fn every_workload_builder_returns_its_pinned_queries() {
    let rides = ridesharing::registry();
    let nyc = nyc_taxi::registry();
    let home = smart_home::registry();
    let ticks = stock::registry();
    // 25 queries wrap past every data set's list of non-Kleene types.
    let got = [
        query_digest(&ridesharing::workload_shared_kleene(&rides, 25, 300)),
        query_digest(&nyc_taxi::workload(&nyc, 25, 600)),
        query_digest(&smart_home::workload(&home, 25, 120)),
        query_digest(&stock::workload_uniform(&ticks, 25, 900)),
        query_digest(&stock::workload_diverse(&ticks, 50, 9)),
    ];
    let pinned = [
        0xc167_207d_155f_299b,
        0xb640_b6e5_4972_f042,
        0x2078_600b_5d56_a757,
        0x376f_c3b9_3b34_33eb,
        0xb7df_f63c_b911_c7c2,
    ];
    assert_eq!(got, pinned, "workloads moved: {got:#x?}");
}
