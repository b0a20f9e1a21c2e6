//! Byte-level goldens for the synthetic generator.
//!
//! Each case records a trace with [`EncodedTrace::record`], writes it as a
//! PGCT file through [`EncodedTrace::write_to`], and pins the FNV-1a hash
//! of those bytes together with the generator's [`GenStats`]. The values
//! were recorded before the generator's attachment flags and reusable
//! scratch buffers replaced the parent-chain walk and per-round
//! allocations, so any change to the RNG draw order or to the emitted
//! event stream shows up here as a byte mismatch rather than only as a
//! shifted simulation total.

use pgc_types::Bytes;
use pgc_workload::generator::GenStats;
use pgc_workload::{EncodedTrace, WorkloadParams};

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The paper configuration's allocation target, quartered: one tenant of
/// the server fleet workload.
fn quarter_paper(seed: u64) -> WorkloadParams {
    let paper = WorkloadParams::default().target_allocated.get();
    WorkloadParams::default()
        .with_seed(seed)
        .with_target_allocated(Bytes(paper / 4))
}

fn cases() -> Vec<(&'static str, WorkloadParams)> {
    vec![
        ("small/0", WorkloadParams::small().with_seed(0)),
        ("small/1", WorkloadParams::small().with_seed(1)),
        ("small/2", WorkloadParams::small().with_seed(2)),
        ("paper/1000", WorkloadParams::default().with_seed(1000)),
        ("quarter/1001", quarter_paper(1001)),
        (
            "dense-0.75/4",
            WorkloadParams::small()
                .with_seed(4)
                .with_dense_edge_fraction(0.75),
        ),
    ]
}

/// `(case, FNV-1a of the PGCT file bytes, events, GenStats)`.
type Golden = (&'static str, u64, u64, GenStats);

/// `GenStats` from its fields in declaration order.
const fn stats(v: [u64; 8]) -> GenStats {
    GenStats {
        trees_built: v[0],
        nodes_created: v[1],
        large_objects: v[2],
        bytes_allocated: Bytes(v[3]),
        dense_edges: v[4],
        deletions: v[5],
        visits: v[6],
        data_writes: v[7],
    }
}

const GOLDENS: &[Golden] = &[
    (
        "small/0",
        0xd4af351f48b6cbd3,
        11630,
        stats([60, 4853, 6, 530356, 392, 600, 5330, 63]),
    ),
    (
        "small/1",
        0xaf0c5d1450e7a337,
        9423,
        stats([58, 4377, 11, 528404, 349, 579, 3734, 35]),
    ),
    (
        "small/2",
        0x4d1f49c951a0e881,
        10074,
        stats([61, 4584, 10, 536045, 366, 609, 4110, 39]),
    ),
    (
        "paper/1000",
        0x324c7303122531a0,
        485717,
        stats([169, 94762, 32, 11568800, 7584, 7591, 364575, 3621]),
    ),
    (
        "quarter/1001",
        0xb06fc52dd868b896,
        130979,
        stats([49, 27618, 3, 2955725, 2207, 2183, 95833, 931]),
    ),
    (
        "dense-0.75/4",
        0xa05173b131581f25,
        18361,
        stats([58, 4805, 6, 526210, 3609, 580, 5699, 59]),
    ),
];

fn observe(params: WorkloadParams) -> (u64, u64, GenStats) {
    let trace = EncodedTrace::record(params).expect("record");
    let mut file = Vec::new();
    let events = trace.write_to(&mut file).expect("write_to");
    (fnv1a(&file), events, trace.stats())
}

#[test]
fn generator_output_is_byte_identical_to_the_goldens() {
    let cases = cases();
    assert_eq!(cases.len(), GOLDENS.len(), "one golden per case");
    for ((name, params), golden) in cases.into_iter().zip(GOLDENS) {
        let (hash, events, stats) = observe(params);
        assert_eq!((name, hash, events, stats), *golden, "{name}");
    }
}
