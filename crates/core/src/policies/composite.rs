//! `Composite` (extension): a weighted blend of overwrite evidence,
//! occupancy, and allocation recency.
//!
//! The paper evaluates its policies one signal at a time; a scoreboard
//! makes combining them cheap: three dense input tables, one arg-max
//! scan, no extra passes at selection time. The blend is
//! `w₁·overwrites + w₂·occupancy_kib + w₃·recency` with defaults that make
//! the signals hierarchical — overwrite hints (the paper's best signal)
//! dominate, resident bytes break ties among similarly-hinted partitions
//! (more bytes = more potential garbage), and allocation recency breaks
//! the rest. Like every counter policy it zeroes the victim's counters on
//! collection and falls back to the fullest partition when all scores are
//! zero.

use crate::policy::{PolicyKind, SelectionPolicy};
use crate::scoreboard::{CompositeWeights, InputKind, Rule, Scoreboard};
use pgc_odb::{BarrierEvent, BarrierObserver, Database};
use pgc_types::PartitionId;

/// The blended-score policy.
#[derive(Debug, Clone)]
pub struct Composite {
    board: Scoreboard,
}

impl Default for Composite {
    fn default() -> Self {
        Self::new()
    }
}

impl Composite {
    /// Creates the policy with [`CompositeWeights::default`].
    pub fn new() -> Self {
        Self::with_weights(CompositeWeights::default())
    }

    /// Creates the policy with explicit blend weights.
    pub fn with_weights(weights: CompositeWeights) -> Self {
        Self {
            board: Scoreboard::new(Rule::Composite(weights)),
        }
    }

    /// The blended score of a partition (for tests and diagnostics).
    pub fn score(&self, p: PartitionId) -> u128 {
        self.board.score(p)
    }

    /// The raw overwrite count feeding the blend (for tests).
    pub fn overwrites(&self, p: PartitionId) -> u64 {
        self.board.value(InputKind::Overwrites, p)
    }
}

impl BarrierObserver for Composite {
    fn on_event(&mut self, event: &BarrierEvent) {
        self.board.apply(event);
    }
}

impl SelectionPolicy for Composite {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Composite
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

    fn overwrite(old_partition: u32) -> BarrierEvent {
        BarrierEvent::PointerWrite(PointerWriteInfo {
            owner: Oid(1),
            owner_partition: PartitionId(0),
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

    fn alloc(partition: u32, size: u64) -> BarrierEvent {
        BarrierEvent::Allocation {
            oid: Oid(7),
            partition: PartitionId(partition),
            size: Bytes(size),
            grew: false,
        }
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
    fn overwrite_evidence_dominates_occupancy() {
        let d = db();
        let mut p = Composite::new();
        // 200 KiB resident in P2 vs. a single overwrite hint on P1: the
        // default weights put the hint on top (4096 > 200·16).
        p.on_event(&alloc(2, 200 * 1024));
        p.on_event(&overwrite(1));
        assert_eq!(p.overwrites(PartitionId(1)), 1);
        assert!(p.score(PartitionId(1)) > p.score(PartitionId(2)));
        assert_eq!(p.select(&d), Some(PartitionId(1)));
    }

    #[test]
    fn occupancy_breaks_overwrite_ties() {
        let d = db();
        let mut p = Composite::new();
        p.on_event(&overwrite(1));
        p.on_event(&overwrite(2));
        p.on_event(&alloc(2, 64 * 1024));
        assert_eq!(p.select(&d), Some(PartitionId(2)));
    }

    #[test]
    fn no_signal_falls_back_to_fullest() {
        let d = db();
        let mut p = Composite::new();
        // P2 holds the 4000-byte spill.
        assert_eq!(p.select(&d), Some(PartitionId(2)));
    }

    #[test]
    fn custom_weights_flip_the_blend() {
        let d = db();
        let mut p = Composite::with_weights(CompositeWeights {
            overwrites: 1,
            occupancy_kib: 1_000_000,
            recency: 0,
        });
        p.on_event(&alloc(2, 64 * 1024));
        for _ in 0..100 {
            p.on_event(&overwrite(1));
        }
        assert_eq!(
            p.select(&d),
            Some(PartitionId(2)),
            "occupancy-first weights"
        );
    }
}
