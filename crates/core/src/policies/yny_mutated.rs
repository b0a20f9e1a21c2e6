//! `YNY-Mutated`: the original Yong/Naughton/Yu selection policy.
//!
//! The policy the paper's `MutatedPartition` *enhances*: it "selects the
//! partition that had been mutated the most, without regard to whether the
//! mutations were to the partition's pointers or to its data". Including
//! it lets the ablation benches quantify exactly what the paper's
//! enhancement (ignoring pure data mutations, which "cannot create
//! garbage") buys.

use crate::policy::{PolicyKind, SelectionPolicy};
use crate::scoreboard::{InputKind, Rule, Scoreboard};
use pgc_odb::{BarrierEvent, BarrierObserver, Database};
use pgc_types::PartitionId;

/// The policy's one input table.
const INPUT: InputKind = InputKind::Mutations;

/// The all-mutations-count policy.
#[derive(Debug, Clone)]
pub struct YnyMutated {
    board: Scoreboard,
}

impl Default for YnyMutated {
    fn default() -> Self {
        Self::new()
    }
}

impl YnyMutated {
    /// Creates the policy: an [`InputKind::Mutations`] table — the
    /// distinguishing feature is that data mutations count too — and the
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

impl BarrierObserver for YnyMutated {
    fn on_event(&mut self, event: &BarrierEvent) {
        self.board.apply(event);
    }
}

impl SelectionPolicy for YnyMutated {
    fn kind(&self) -> PolicyKind {
        PolicyKind::YnyMutated
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
    use pgc_odb::PointerWriteInfo;
    use pgc_types::{Bytes, DbConfig, Oid, SlotId};

    fn pointer_write(owner_partition: u32) -> BarrierEvent {
        BarrierEvent::PointerWrite(PointerWriteInfo {
            owner: Oid(1),
            owner_partition: PartitionId(owner_partition),
            slot: SlotId(0),
            old: None,
            new: None,
            during_creation: false,
        })
    }

    fn data_write(partition: u32) -> BarrierEvent {
        BarrierEvent::DataWrite {
            oid: Oid(1),
            partition: PartitionId(partition),
        }
    }

    #[test]
    fn data_writes_count_unlike_the_enhanced_policy() {
        let mut yny = YnyMutated::new();
        let mut enhanced = crate::policies::MutatedPartition::new();
        yny.on_event(&data_write(1));
        enhanced.on_event(&data_write(1)); // ignored: the enhancement
        assert_eq!(yny.score(PartitionId(1)), 1);
        assert_eq!(enhanced.score(PartitionId(1)), 0);
    }

    #[test]
    fn pointer_writes_count_for_both() {
        let mut yny = YnyMutated::new();
        yny.on_event(&pointer_write(2));
        assert_eq!(yny.score(PartitionId(2)), 1);
    }

    #[test]
    fn data_heavy_partition_wins_selection() {
        let cfg = DbConfig::default()
            .with_page_size(1024)
            .with_partition_pages(4);
        let mut db = Database::new(cfg).unwrap();
        let r = db.create_root(Bytes(100), 2).unwrap();
        db.create_object(Bytes(4000), 2, r, SlotId(0)).unwrap();
        let mut p = YnyMutated::new();
        p.on_event(&pointer_write(2));
        for _ in 0..5 {
            p.on_event(&data_write(1));
        }
        // Data-mutation-heavy P1 outranks pointer-mutated P2 — exactly the
        // mistake the paper's enhancement avoids.
        assert_eq!(p.select(&db), Some(PartitionId(1)));
    }
}
