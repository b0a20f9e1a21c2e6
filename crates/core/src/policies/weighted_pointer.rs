//! `WeightedPointer`: overwrites weighted by root distance (Sec. 3.1).
//!
//! A refinement of `UpdatedPointer` "based on the observation that not all
//! pointers are equal": losing a pointer near the roots of a tree-like
//! database tends to kill a whole subtree, while losing a leaf pointer
//! kills little. Each overwrite credits the old target's partition with
//! `2^(max_weight − w)` where `w` is the old target's weight (its
//! approximate distance from the roots, 4 bits, cap 16). The paper's
//! example: overwriting a pointer to a weight-2 object scores
//! `2^(16−2) = 16384`.
//!
//! The paper finds the heuristic fragile: it "assumes a tree-like database"
//! and degrades quickly as dense edges are added (Table 5), so its extra
//! cost is usually not warranted.

use crate::policy::{PolicyKind, SelectionPolicy};
use crate::scoreboard::{InputKind, Rule, Scoreboard};
use pgc_odb::{BarrierEvent, BarrierObserver, Database};
use pgc_types::PartitionId;

/// The weight-scored overwrite policy.
#[derive(Debug, Clone)]
pub struct WeightedPointer {
    board: Scoreboard,
    max_weight: u8,
}

impl WeightedPointer {
    /// Creates the policy; `max_weight` must match the database
    /// configuration (16 in the paper). Its table is an
    /// [`InputKind::WeightedOverwrites`] input with the arg-max over it.
    pub fn new(max_weight: u8) -> Self {
        Self {
            board: Scoreboard::new(Rule::Max(InputKind::WeightedOverwrites { max_weight })),
            max_weight,
        }
    }

    /// The exponential score of overwriting a pointer to an object of
    /// weight `w`.
    pub fn score_for_weight(&self, w: u8) -> u64 {
        let exp = self.max_weight.saturating_sub(w.min(self.max_weight)) as u32;
        1u64 << exp
    }

    /// Current score of a partition (for tests and diagnostics).
    pub fn score(&self, p: PartitionId) -> u64 {
        let input = InputKind::WeightedOverwrites {
            max_weight: self.max_weight,
        };
        self.board.value(input, p)
    }
}

impl BarrierObserver for WeightedPointer {
    fn on_event(&mut self, event: &BarrierEvent) {
        self.board.apply(event);
    }
}

impl SelectionPolicy for WeightedPointer {
    fn kind(&self) -> PolicyKind {
        PolicyKind::WeightedPointer
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
    use pgc_odb::{PointerTarget, PointerWriteInfo};
    use pgc_types::{Bytes, DbConfig, Oid, SlotId};

    fn overwrite(old_partition: u32, weight: u8) -> BarrierEvent {
        BarrierEvent::PointerWrite(PointerWriteInfo {
            owner: Oid(1),
            owner_partition: PartitionId(0),
            slot: SlotId(0),
            old: Some(PointerTarget {
                oid: Oid(2),
                partition: PartitionId(old_partition),
                weight,
            }),
            new: None,
            during_creation: false,
        })
    }

    #[test]
    fn paper_example_scores_16384() {
        let p = WeightedPointer::new(16);
        assert_eq!(p.score_for_weight(2), 16384);
        assert_eq!(p.score_for_weight(1), 32768);
        assert_eq!(p.score_for_weight(16), 1);
        // Out-of-range weights clamp instead of overflowing.
        assert_eq!(p.score_for_weight(200), 1);
    }

    #[test]
    fn near_root_overwrites_dominate() {
        let mut p = WeightedPointer::new(16);
        // 1000 leaf overwrites into partition 1...
        for _ in 0..1000 {
            p.on_event(&overwrite(1, 16));
        }
        // ...lose to a single depth-2 overwrite into partition 2.
        p.on_event(&overwrite(2, 2));
        assert!(p.score(PartitionId(2)) > p.score(PartitionId(1)));
    }

    #[test]
    fn selection_uses_weighted_sum() {
        let cfg = DbConfig::default()
            .with_page_size(1024)
            .with_partition_pages(4);
        let mut db = Database::new(cfg).unwrap();
        let r = db.create_root(Bytes(100), 2).unwrap();
        db.create_object(Bytes(4000), 2, r, SlotId(0)).unwrap();
        let mut p = WeightedPointer::new(16);
        p.on_event(&overwrite(1, 10));
        p.on_event(&overwrite(2, 3));
        assert_eq!(p.select(&db), Some(PartitionId(2)));
    }

    #[test]
    fn non_overwrites_score_nothing() {
        let mut p = WeightedPointer::new(16);
        p.on_event(&BarrierEvent::PointerWrite(PointerWriteInfo {
            owner: Oid(1),
            owner_partition: PartitionId(1),
            slot: SlotId(0),
            old: None,
            new: Some(PointerTarget {
                oid: Oid(2),
                partition: PartitionId(2),
                weight: 1,
            }),
            during_creation: true,
        }));
        assert_eq!(p.score(PartitionId(1)), 0);
        assert_eq!(p.score(PartitionId(2)), 0);
    }
}
