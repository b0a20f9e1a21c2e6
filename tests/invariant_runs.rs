//! Database invariants checked on real runs, not only in unit tests.
//!
//! Every policy replays a small recorded workload through
//! `Shard::step_block`, and `Database::check_invariants` runs after every
//! decoded block: object table, remembered sets against the actual
//! cross-partition edges, both buffer tiers' LRU list against their page
//! index, and that no page of the designated empty partition is buffered
//! (collected partitions are invalidated). Collections happen between
//! checks, so the checks see the state each collection leaves behind.

use pgc::core::PolicyKind;
use pgc::prelude::{EncodedTrace, RunConfig, Shard};
use pgc::workload::EventBlock;

/// Replays `cfg`'s workload block by block, checking the database after
/// each block. Returns the number of collections the run performed.
fn replay_checked(cfg: &RunConfig) -> u64 {
    let trace = EncodedTrace::record(cfg.workload.clone()).expect("record");
    let mut shard = Shard::new(cfg).expect("shard");
    let mut cursor = trace.cursor();
    let mut block = EventBlock::new();
    while cursor.next_block(&mut block).expect("decode") > 0 {
        shard.step_block(&block).expect("step");
        shard.db().check_invariants();
    }
    assert_eq!(shard.events_applied(), trace.events());
    shard.db().stats().collections
}

#[test]
fn every_policy_keeps_invariants_under_the_single_buffer() {
    for policy in PolicyKind::ALL {
        for seed in 0..2 {
            let cfg = RunConfig::small().with_policy(policy).with_seed(seed);
            replay_checked(&cfg);
        }
    }
}

#[test]
fn every_policy_keeps_invariants_under_the_client_cache() {
    for policy in PolicyKind::ALL {
        for seed in 0..2 {
            let cfg = RunConfig::small()
                .with_policy(policy)
                .with_seed(seed)
                .with_client_cache_pages(4);
            replay_checked(&cfg);
        }
    }
}

#[test]
fn batched_collection_keeps_invariants() {
    let cfg = RunConfig::small()
        .with_policy(PolicyKind::UpdatedPointer)
        .with_collect_batch(2);
    assert!(replay_checked(&cfg) > 0, "the run must collect");
}
