//! `UpdatedDecay` (extension): `UpdatedPointer` with score decay.
//!
//! The paper's counter policies zero only the *collected* partition's
//! score, so hints accumulated long ago keep steering selection even after
//! the garbage they pointed at has been reclaimed elsewhere or the
//! objects have moved (evacuation relocates survivors without touching
//! the counters — a staleness the paper acknowledges by omission). This
//! variant halves **every** partition's score at each collection, so old
//! hints fade geometrically while fresh overwrites dominate.
//!
//! Cost is unchanged (one small array); the ablation benches measure
//! whether recency-weighting the hints buys anything on the paper's
//! workload.

use crate::policy::{PolicyKind, SelectionPolicy};
use crate::scoreboard::{InputKind, Rule, Scoreboard};
use pgc_odb::{BarrierEvent, BarrierObserver, Database};
use pgc_types::PartitionId;

/// The policy's one input table.
const INPUT: InputKind = InputKind::DecayedOverwrites;

/// The recency-weighted overwritten-pointer policy.
#[derive(Debug, Clone)]
pub struct UpdatedDecay {
    board: Scoreboard,
}

impl Default for UpdatedDecay {
    fn default() -> Self {
        Self::new()
    }
}

impl UpdatedDecay {
    /// Creates the policy: an [`InputKind::DecayedOverwrites`] table —
    /// bumps are doubled relative to `UpdatedPointer` so one round of
    /// decay still leaves integer resolution — and the arg-max over it.
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

impl BarrierObserver for UpdatedDecay {
    fn on_event(&mut self, event: &BarrierEvent) {
        self.board.apply(event);
    }
}

impl SelectionPolicy for UpdatedDecay {
    fn kind(&self) -> PolicyKind {
        PolicyKind::UpdatedDecay
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
    use pgc_types::{Bytes, Oid, SlotId};

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

    fn collected(victim: u32) -> BarrierEvent {
        BarrierEvent::CollectionCompleted(CollectionOutcome {
            victim: PartitionId(victim),
            target: PartitionId(0),
            live_objects: 0,
            live_bytes: Bytes::ZERO,
            garbage_objects: 0,
            garbage_bytes: Bytes::ZERO,
            forwarded_pointers: 0,
            gc_reads: 0,
            gc_writes: 0,
        })
    }

    #[test]
    fn scores_decay_across_collections() {
        let mut p = UpdatedDecay::new();
        for _ in 0..8 {
            p.on_event(&overwrite(1));
        }
        assert_eq!(p.score(PartitionId(1)), 16);
        p.on_event(&collected(9));
        assert_eq!(p.score(PartitionId(1)), 8, "halved");
        p.on_event(&collected(9));
        assert_eq!(p.score(PartitionId(1)), 4);
    }

    #[test]
    fn victim_is_zeroed_not_just_decayed() {
        let mut p = UpdatedDecay::new();
        p.on_event(&overwrite(1));
        p.on_event(&overwrite(2));
        p.on_event(&collected(1));
        assert_eq!(p.score(PartitionId(1)), 0);
        assert_eq!(p.score(PartitionId(2)), 1);
    }

    #[test]
    fn fresh_hints_dominate_stale_ones() {
        let mut p = UpdatedDecay::new();
        // Old burst into partition 1.
        for _ in 0..10 {
            p.on_event(&overwrite(1));
        }
        // Several collections of other partitions pass...
        for _ in 0..4 {
            p.on_event(&collected(9));
        }
        // ...then a modest fresh burst into partition 2 wins.
        for _ in 0..3 {
            p.on_event(&overwrite(2));
        }
        assert!(p.score(PartitionId(2)) > p.score(PartitionId(1)));
    }
}
