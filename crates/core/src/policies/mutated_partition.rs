//! `MutatedPartition`: most pointer writes into it since its last
//! collection (Sec. 3.1).
//!
//! The paper's *enhancement* of the Yong/Naughton/Yu policy: only pointer
//! mutations count ("pure data mutations, which do not affect object
//! connectivity and, hence, cannot create garbage, are not considered").
//! The event stream this policy sees already excludes data writes — the
//! write barrier only fires for pointer stores — so its counter is bumped
//! on every event, *including* creation-time initialization. That inclusion
//! is deliberate: the paper identifies it as the policy's key weakness
//! ("it is influenced by the creation of new objects, which is not
//! correlated to the creation of garbage").

use crate::policy::{PolicyKind, SelectionPolicy};
use crate::scoreboard::{InputKind, Rule, Scoreboard};
use pgc_odb::{BarrierEvent, BarrierObserver, Database};
use pgc_types::PartitionId;

/// The policy's one input table.
const INPUT: InputKind = InputKind::PointerWrites;

/// The mutation-count policy.
#[derive(Debug, Clone)]
pub struct MutatedPartition {
    board: Scoreboard,
}

impl Default for MutatedPartition {
    fn default() -> Self {
        Self::new()
    }
}

impl MutatedPartition {
    /// Creates the policy: an [`InputKind::PointerWrites`] table —
    /// "increment the counter associated with the partition being written
    /// into" — and the arg-max over it.
    pub fn new() -> Self {
        Self {
            board: Scoreboard::new(Rule::Max(INPUT)),
        }
    }

    /// Current score of a partition (for tests and diagnostics).
    pub fn score(&self, p: PartitionId) -> u64 {
        self.board.value(INPUT, p)
    }
}

impl BarrierObserver for MutatedPartition {
    fn on_event(&mut self, event: &BarrierEvent) {
        self.board.apply(event);
    }
}

impl SelectionPolicy for MutatedPartition {
    fn kind(&self) -> PolicyKind {
        PolicyKind::MutatedPartition
    }

    fn select(&mut self, db: &Database) -> Option<PartitionId> {
        self.board.argmax(db, &[])
    }

    fn select_excluding(&mut self, db: &Database, exclude: &[PartitionId]) -> Option<PartitionId> {
        self.board.argmax(db, exclude)
    }

    fn victim_score(&self, partition: PartitionId) -> Option<f64> {
        Some(self.score(partition) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgc_odb::{CollectionOutcome, PointerTarget, PointerWriteInfo};
    use pgc_types::{Bytes, DbConfig, Oid, SlotId};

    fn info(owner_partition: u32, old: Option<u32>, during_creation: bool) -> BarrierEvent {
        BarrierEvent::PointerWrite(PointerWriteInfo {
            owner: Oid(1),
            owner_partition: PartitionId(owner_partition),
            slot: SlotId(0),
            old: old.map(|p| PointerTarget {
                oid: Oid(2),
                partition: PartitionId(p),
                weight: 3,
            }),
            new: None,
            during_creation,
        })
    }

    fn db() -> Database {
        let cfg = DbConfig::default()
            .with_page_size(1024)
            .with_partition_pages(4);
        let mut db = Database::new(cfg).unwrap();
        let r = db.create_root(Bytes(100), 2).unwrap();
        db.create_object(Bytes(4000), 2, r, SlotId(0)).unwrap();
        db
    }

    #[test]
    fn counts_writes_by_owner_partition() {
        let mut p = MutatedPartition::new();
        p.on_event(&info(1, None, false));
        p.on_event(&info(1, Some(2), false));
        p.on_event(&info(2, None, false));
        assert_eq!(p.score(PartitionId(1)), 2);
        assert_eq!(p.score(PartitionId(2)), 1);
    }

    #[test]
    fn creation_time_stores_count_too() {
        // The documented weakness: creation inflates the counter.
        let mut p = MutatedPartition::new();
        p.on_event(&info(1, None, true));
        assert_eq!(p.score(PartitionId(1)), 1);
    }

    #[test]
    fn allocations_alone_do_not_score() {
        let mut p = MutatedPartition::new();
        p.on_event(&BarrierEvent::Allocation {
            oid: Oid(1),
            partition: PartitionId(1),
            size: Bytes(100),
            grew: false,
        });
        assert_eq!(p.score(PartitionId(1)), 0);
    }

    #[test]
    fn selects_most_mutated_and_resets_after_collection() {
        let d = db();
        let mut p = MutatedPartition::new();
        for _ in 0..5 {
            p.on_event(&info(1, None, false));
        }
        for _ in 0..3 {
            p.on_event(&info(2, None, false));
        }
        assert_eq!(p.select(&d), Some(PartitionId(1)));
        p.on_event(&BarrierEvent::CollectionCompleted(CollectionOutcome {
            victim: PartitionId(1),
            target: PartitionId(0),
            live_objects: 0,
            live_bytes: Bytes::ZERO,
            garbage_objects: 0,
            garbage_bytes: Bytes::ZERO,
            forwarded_pointers: 0,
            gc_reads: 0,
            gc_writes: 0,
        }));
        assert_eq!(p.score(PartitionId(1)), 0);
        assert_eq!(p.select(&d), Some(PartitionId(2)));
    }
}
