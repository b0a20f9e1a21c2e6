//! `UpdatedPointer`: most overwritten pointers pointed into it (Sec. 3.1).
//!
//! The paper's winning policy, "based on the observation that when a
//! pointer is overwritten, the object it pointed to is more likely to
//! become garbage". For each overwrite, the partition of the *old* target
//! is credited; the partition with the most credits is collected. Cost is
//! essentially that of `MutatedPartition`: the overwritten value is on the
//! very page being written, so reading it is free.

use crate::policy::{PolicyKind, SelectionPolicy};
use crate::scoreboard::{InputKind, Rule, Scoreboard};
use pgc_odb::{BarrierEvent, BarrierObserver, Database};
use pgc_types::PartitionId;

/// The policy's one input table.
const INPUT: InputKind = InputKind::Overwrites;

/// The overwritten-pointer policy (the paper's best implementable policy).
#[derive(Debug, Clone)]
pub struct UpdatedPointer {
    board: Scoreboard,
}

impl Default for UpdatedPointer {
    fn default() -> Self {
        Self::new()
    }
}

impl UpdatedPointer {
    /// Creates the policy: an [`InputKind::Overwrites`] table and the
    /// arg-max over it.
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

impl BarrierObserver for UpdatedPointer {
    fn on_event(&mut self, event: &BarrierEvent) {
        self.board.apply(event);
    }
}

impl SelectionPolicy for UpdatedPointer {
    fn kind(&self) -> PolicyKind {
        PolicyKind::UpdatedPointer
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

    fn overwrite(owner_partition: u32, old_partition: u32) -> BarrierEvent {
        BarrierEvent::PointerWrite(PointerWriteInfo {
            owner: Oid(1),
            owner_partition: PartitionId(owner_partition),
            slot: SlotId(0),
            old: Some(PointerTarget {
                oid: Oid(2),
                partition: PartitionId(old_partition),
                weight: 3,
            }),
            new: None,
            during_creation: false,
        })
    }

    fn fresh_store(owner_partition: u32) -> BarrierEvent {
        BarrierEvent::PointerWrite(PointerWriteInfo {
            owner: Oid(1),
            owner_partition: PartitionId(owner_partition),
            slot: SlotId(0),
            old: None,
            new: None,
            during_creation: true,
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
    fn credits_old_targets_partition_not_owners() {
        let mut p = UpdatedPointer::new();
        p.on_event(&overwrite(1, 2));
        assert_eq!(p.score(PartitionId(1)), 0);
        assert_eq!(p.score(PartitionId(2)), 1);
    }

    #[test]
    fn creation_stores_do_not_count() {
        // The very property that makes this policy beat MutatedPartition.
        let mut p = UpdatedPointer::new();
        p.on_event(&fresh_store(1));
        p.on_event(&fresh_store(1));
        assert_eq!(p.score(PartitionId(1)), 0);
    }

    #[test]
    fn selects_most_overwritten_into() {
        let d = db();
        let mut p = UpdatedPointer::new();
        p.on_event(&overwrite(1, 2));
        p.on_event(&overwrite(1, 2));
        p.on_event(&overwrite(2, 1));
        assert_eq!(p.select(&d), Some(PartitionId(2)));
        p.on_event(&BarrierEvent::CollectionCompleted(CollectionOutcome {
            victim: PartitionId(2),
            target: PartitionId(0),
            live_objects: 0,
            live_bytes: Bytes::ZERO,
            garbage_objects: 0,
            garbage_bytes: Bytes::ZERO,
            forwarded_pointers: 0,
            gc_reads: 0,
            gc_writes: 0,
        }));
        assert_eq!(p.select(&d), Some(PartitionId(1)));
    }
}
