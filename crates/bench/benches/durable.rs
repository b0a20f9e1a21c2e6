//! Micro-benchmarks for the durable path's read side.

use pgc_bench::microbench::Runner;
use pgc_core::PolicyKind;
use pgc_durable::{DurabilityConfig, ScratchDir};
use pgc_sim::{outcome_digest, recover, RunConfig, Simulation};
use std::hint::black_box;

fn main() {
    let r = Runner::new();

    // One fixed persisted run (small config, default cadences), recovered
    // over and over: manifest, snapshot scan, streaming log decode and
    // block replay with snapshot verification.
    let dir = ScratchDir::new("bench-recover");
    let cfg = RunConfig::small().with_policy(PolicyKind::UpdatedPointer);
    let original = Simulation::builder(&cfg)
        .durability(DurabilityConfig::snapshot_and_log(dir.path()))
        .run()
        .expect("persisted run");
    let digest = outcome_digest(&original);
    r.bench("durable/recover_small", || {
        let recovered = recover(dir.path()).expect("recover");
        assert_eq!(outcome_digest(&recovered.outcome), digest);
        black_box(recovered.events_replayed)
    });
}
