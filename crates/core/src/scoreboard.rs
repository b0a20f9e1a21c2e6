//! Dense per-partition scoreboards over the barrier bus.
//!
//! Every counter policy in this crate has the same shape: fold barrier
//! events into per-partition `u64` counters, then collect the partition
//! with the highest score when the trigger fires. A [`Scoreboard`] is that
//! shape once: the dense input tables its scoring [`Rule`] reads, updated
//! eagerly from each [`BarrierEvent`], and one arg-max scan over the
//! collectable partitions at selection time.
//!
//! Ranking semantics: partitions scoring zero never win, ties break toward
//! the lowest partition id, and an all-zero board falls back to
//! [`crate::policy::fallback_victim_excluding`] (the fullest partition).

use crate::policy::fallback_victim_excluding;
use pgc_odb::{BarrierEvent, Database};
use pgc_types::PartitionId;

/// The base input tables a scoreboard knows how to maintain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputKind {
    /// +1 to the *old target's* partition per pointer overwrite
    /// (`UpdatedPointer`'s table). Victim zeroed on collection.
    Overwrites,
    /// +1 to the owner's partition per pointer write, creation stores
    /// included (`MutatedPartition`'s table). Victim zeroed on collection.
    PointerWrites,
    /// +1 per pointer write *and* per data write (`YNY-Mutated`'s table).
    /// Victim zeroed on collection.
    Mutations,
    /// `2^(max_weight - w)` to the old target's partition per overwrite of
    /// a pointer to a weight-`w` object (`WeightedPointer`'s table).
    /// Victim zeroed on collection.
    WeightedOverwrites {
        /// The database's weight cap (16 in the paper).
        max_weight: u8,
    },
    /// +2 to the old target's partition per overwrite, every value halved
    /// at each collection (`UpdatedDecay`'s table). Victim zeroed first.
    DecayedOverwrites,
    /// Bytes resident per partition, maintained from
    /// allocation/copy/reclaim events. *Not* reset on collection — the
    /// copy/reclaim events already account for evacuation exactly.
    OccupancyBytes,
    /// The scoreboard's allocation count at the partition's most recent
    /// allocation (higher = allocated into more recently). Victim zeroed
    /// on collection.
    LastAllocation,
}

/// Weights for the [`Rule::Composite`] score. The defaults make the three
/// signals hierarchical on the paper's workload scale: overwrite evidence
/// dominates, occupancy breaks ties among similarly-overwritten
/// partitions, allocation recency breaks the rest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompositeWeights {
    /// Weight on the [`InputKind::Overwrites`] count.
    pub overwrites: u64,
    /// Weight on resident KiB ([`InputKind::OccupancyBytes`] / 1024).
    pub occupancy_kib: u64,
    /// Weight on the [`InputKind::LastAllocation`] value.
    pub recency: u64,
}

impl Default for CompositeWeights {
    fn default() -> Self {
        Self {
            overwrites: 4096,
            occupancy_kib: 16,
            recency: 1,
        }
    }
}

/// How a scoreboard scores a partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// The value of a single input (all the paper's counter policies).
    Max(InputKind),
    /// `w·overwrites + w·occupancy_kib + w·recency` over the
    /// [`InputKind::Overwrites`], [`InputKind::OccupancyBytes`] and
    /// [`InputKind::LastAllocation`] inputs.
    Composite(CompositeWeights),
}

/// One dense input table, indexed by partition id.
#[derive(Debug, Clone)]
struct Table {
    kind: InputKind,
    values: Vec<u64>,
}

impl Table {
    fn new(kind: InputKind) -> Self {
        Self {
            kind,
            values: Vec::new(),
        }
    }

    fn value(&self, p: PartitionId) -> u64 {
        self.values.get(p.as_usize()).copied().unwrap_or(0)
    }

    fn slot(&mut self, p: PartitionId) -> &mut u64 {
        let idx = p.as_usize();
        if self.values.len() <= idx {
            self.values.resize(idx + 1, 0);
        }
        &mut self.values[idx]
    }

    fn add(&mut self, p: PartitionId, amount: u64) {
        *self.slot(p) += amount;
    }

    fn sub(&mut self, p: PartitionId, amount: u64) {
        let v = self.slot(p);
        *v = v.saturating_sub(amount);
    }

    fn reset(&mut self, p: PartitionId) {
        if let Some(v) = self.values.get_mut(p.as_usize()) {
            *v = 0;
        }
    }

    fn update(&mut self, event: &BarrierEvent, allocations: u64) {
        match (self.kind, event) {
            (InputKind::Overwrites, BarrierEvent::PointerWrite(info)) => {
                if let Some(old) = info.old {
                    self.add(old.partition, 1);
                }
            }
            (InputKind::PointerWrites | InputKind::Mutations, BarrierEvent::PointerWrite(info)) => {
                self.add(info.owner_partition, 1);
            }
            (InputKind::Mutations, BarrierEvent::DataWrite { partition, .. }) => {
                self.add(*partition, 1);
            }
            (InputKind::WeightedOverwrites { max_weight }, BarrierEvent::PointerWrite(info)) => {
                if let Some(old) = info.old {
                    let exp = max_weight.saturating_sub(old.weight.min(max_weight)) as u32;
                    self.add(old.partition, 1u64 << exp);
                }
            }
            (InputKind::DecayedOverwrites, BarrierEvent::PointerWrite(info)) => {
                if let Some(old) = info.old {
                    self.add(old.partition, 2);
                }
            }
            (InputKind::DecayedOverwrites, BarrierEvent::CollectionCompleted(outcome)) => {
                self.reset(outcome.victim);
                for v in &mut self.values {
                    *v /= 2;
                }
            }
            (
                InputKind::OccupancyBytes,
                BarrierEvent::Allocation {
                    partition, size, ..
                },
            ) => {
                self.add(*partition, size.get());
            }
            (InputKind::OccupancyBytes, BarrierEvent::ObjectCopied { from, to, size, .. }) => {
                self.sub(*from, size.get());
                self.add(*to, size.get());
            }
            (
                InputKind::OccupancyBytes,
                BarrierEvent::ObjectReclaimed {
                    partition, size, ..
                },
            ) => {
                self.sub(*partition, size.get());
            }
            (InputKind::LastAllocation, BarrierEvent::Allocation { partition, .. }) => {
                *self.slot(*partition) = allocations;
            }
            (
                InputKind::Overwrites
                | InputKind::PointerWrites
                | InputKind::Mutations
                | InputKind::WeightedOverwrites { .. }
                | InputKind::LastAllocation,
                BarrierEvent::CollectionCompleted(outcome),
            ) => {
                self.reset(outcome.victim);
            }
            _ => {}
        }
    }
}

/// A policy's per-partition state: the input tables its [`Rule`] reads
/// and the arg-max over the resulting scores.
#[derive(Debug, Clone)]
pub struct Scoreboard {
    rule: Rule,
    /// Allocations applied so far (the [`InputKind::LastAllocation`] clock).
    allocations: u64,
    tables: Vec<Table>,
}

impl Scoreboard {
    /// Creates an empty scoreboard with the tables `rule` reads, in the
    /// order [`Scoreboard::score`] indexes them.
    pub fn new(rule: Rule) -> Self {
        let kinds = match rule {
            Rule::Max(kind) => vec![kind],
            Rule::Composite(_) => vec![
                InputKind::Overwrites,
                InputKind::OccupancyBytes,
                InputKind::LastAllocation,
            ],
        };
        Self {
            rule,
            allocations: 0,
            tables: kinds.into_iter().map(Table::new).collect(),
        }
    }

    /// Folds one bus event into every table.
    pub fn apply(&mut self, event: &BarrierEvent) {
        if matches!(event, BarrierEvent::Allocation { .. }) {
            self.allocations += 1;
        }
        for table in &mut self.tables {
            table.update(event, self.allocations);
        }
    }

    /// Current value of the `kind` input for `partition`.
    ///
    /// # Panics
    ///
    /// If the board's rule does not read `kind`.
    pub fn value(&self, kind: InputKind, partition: PartitionId) -> u64 {
        self.tables
            .iter()
            .find(|t| t.kind == kind)
            .expect("scoreboard does not keep this input")
            .value(partition)
    }

    /// Current score of `partition` under the board's rule.
    pub fn score(&self, partition: PartitionId) -> u128 {
        match self.rule {
            Rule::Max(_) => self.tables[0].value(partition) as u128,
            Rule::Composite(w) => {
                let o = self.tables[0].value(partition) as u128;
                let kib = (self.tables[1].value(partition) / 1024) as u128;
                let r = self.tables[2].value(partition) as u128;
                o * w.overwrites as u128 + kib * w.occupancy_kib as u128 + r * w.recency as u128
            }
        }
    }

    /// The highest-scoring collectable partition not in `exclude`: zero
    /// scores never win and ties break toward the lowest id. Falls back to
    /// [`fallback_victim_excluding`] when every eligible score is zero.
    /// A policy's `select` is `argmax(db, &[])`; zone batches pass the
    /// partitions already condemned this activation.
    pub fn argmax(&self, db: &Database, exclude: &[PartitionId]) -> Option<PartitionId> {
        let mut best: Option<(PartitionId, u128)> = None;
        for p in db.collectable_partitions() {
            if exclude.contains(&p) {
                continue;
            }
            let s = self.score(p);
            if s > best.map_or(0, |(_, b)| b) {
                best = Some((p, s));
            }
        }
        best.map(|(p, _)| p)
            .or_else(|| fallback_victim_excluding(db, exclude))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgc_odb::{CollectionOutcome, PointerTarget, PointerWriteInfo};
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

    fn db_with_two_partitions() -> Database {
        let cfg = DbConfig::default()
            .with_page_size(1024)
            .with_partition_pages(4);
        let mut db = Database::new(cfg).unwrap();
        let r = db.create_root(Bytes(100), 2).unwrap();
        db.create_object(Bytes(4000), 2, r, SlotId(0)).unwrap();
        db
    }

    fn overwrite_board() -> Scoreboard {
        Scoreboard::new(Rule::Max(InputKind::Overwrites))
    }

    fn overwrites(b: &Scoreboard, p: u32) -> u64 {
        b.value(InputKind::Overwrites, PartitionId(p))
    }

    #[test]
    fn inputs_accumulate() {
        let mut b = overwrite_board();
        assert_eq!(overwrites(&b, 2), 0);
        b.apply(&overwrite(2, 3));
        b.apply(&overwrite(2, 3));
        assert_eq!(overwrites(&b, 2), 2);
        assert_eq!(overwrites(&b, 1), 0, "untouched partition stays zero");
    }

    #[test]
    fn select_picks_highest_and_skips_empty_partition() {
        let db = db_with_two_partitions();
        let mut b = overwrite_board();
        let empty = db.empty_partition();
        b.apply(&overwrite(empty.0, 3)); // must be ignored (not collectable)
        b.apply(&overwrite(1, 3));
        b.apply(&overwrite(2, 3));
        b.apply(&overwrite(2, 3));
        assert_eq!(b.argmax(&db, &[]), Some(PartitionId(2)));
    }

    #[test]
    fn select_ties_break_low() {
        let db = db_with_two_partitions();
        let mut b = overwrite_board();
        b.apply(&overwrite(2, 3));
        b.apply(&overwrite(1, 3));
        assert_eq!(b.argmax(&db, &[]), Some(PartitionId(1)));
    }

    #[test]
    fn select_falls_back_when_all_zero() {
        let db = db_with_two_partitions();
        let b = overwrite_board();
        // Fallback picks the fullest used partition (P2 holds the spill).
        assert_eq!(b.argmax(&db, &[]), Some(PartitionId(2)));
    }

    #[test]
    fn excluded_partitions_never_win_and_the_fallback_respects_them() {
        let db = db_with_two_partitions();
        let mut b = overwrite_board();
        b.apply(&overwrite(1, 3));
        b.apply(&overwrite(2, 3));
        b.apply(&overwrite(2, 3));
        assert_eq!(b.argmax(&db, &[PartitionId(2)]), Some(PartitionId(1)));
        // Every scored partition excluded: the fallback skips them too.
        let fresh = overwrite_board();
        assert_eq!(fresh.argmax(&db, &[PartitionId(2)]), Some(PartitionId(1)));
    }

    #[test]
    fn unchanged_reselection_repeats_the_pick() {
        let db = db_with_two_partitions();
        let mut b = overwrite_board();
        b.apply(&overwrite(1, 3));
        for _ in 0..3 {
            assert_eq!(b.argmax(&db, &[]), Some(PartitionId(1)));
        }
    }

    #[test]
    fn off_winner_changes_can_overtake() {
        let db = db_with_two_partitions();
        let mut b = overwrite_board();
        for _ in 0..5 {
            b.apply(&overwrite(1, 3));
        }
        assert_eq!(b.argmax(&db, &[]), Some(PartitionId(1)));
        // P2 moves but stays below the winner.
        b.apply(&overwrite(2, 3));
        assert_eq!(b.argmax(&db, &[]), Some(PartitionId(1)));
        // P2 overtakes.
        for _ in 0..10 {
            b.apply(&overwrite(2, 3));
        }
        assert_eq!(b.argmax(&db, &[]), Some(PartitionId(2)));
    }

    #[test]
    fn collecting_the_winner_hands_selection_to_the_runner_up() {
        let db = db_with_two_partitions();
        let mut b = overwrite_board();
        b.apply(&overwrite(1, 3));
        b.apply(&overwrite(2, 3));
        b.apply(&overwrite(2, 3));
        assert_eq!(b.argmax(&db, &[]), Some(PartitionId(2)));
        b.apply(&collected(2));
        assert_eq!(overwrites(&b, 2), 0, "victim zeroed");
        assert_eq!(b.argmax(&db, &[]), Some(PartitionId(1)));
    }

    #[test]
    fn collecting_a_non_winner_keeps_the_winner() {
        let db = db_with_two_partitions();
        let mut b = overwrite_board();
        b.apply(&overwrite(1, 3));
        b.apply(&overwrite(1, 3));
        b.apply(&overwrite(2, 3));
        assert_eq!(b.argmax(&db, &[]), Some(PartitionId(1)));
        b.apply(&collected(2));
        assert_eq!(overwrites(&b, 2), 0, "victim zeroed");
        assert_eq!(b.argmax(&db, &[]), Some(PartitionId(1)));
    }

    #[test]
    fn partition_growth_keeps_the_winner() {
        let db = db_with_two_partitions();
        let mut b = overwrite_board();
        b.apply(&overwrite(1, 3));
        assert_eq!(b.argmax(&db, &[]), Some(PartitionId(1)));
        b.apply(&BarrierEvent::PartitionGrowth { partitions: 5 });
        assert_eq!(b.argmax(&db, &[]), Some(PartitionId(1)));
    }

    #[test]
    fn weighted_and_decayed_inputs_match_their_policies() {
        let weighted = InputKind::WeightedOverwrites { max_weight: 16 };
        let mut w = Scoreboard::new(Rule::Max(weighted));
        let mut d = Scoreboard::new(Rule::Max(InputKind::DecayedOverwrites));
        let p1 = PartitionId(1);
        let decayed = |d: &Scoreboard| d.value(InputKind::DecayedOverwrites, p1);
        w.apply(&overwrite(1, 2));
        d.apply(&overwrite(1, 2));
        assert_eq!(w.value(weighted, p1), 16384, "paper's 2^(16-2) example");
        assert_eq!(decayed(&d), 2);
        w.apply(&overwrite(1, 200));
        d.apply(&overwrite(1, 200));
        assert_eq!(w.value(weighted, p1), 16385, "out-of-range weight clamps");
        w.apply(&collected(9));
        d.apply(&collected(9));
        assert_eq!(decayed(&d), 2, "decay halves the doubled bumps");
        assert_eq!(
            w.value(weighted, p1),
            16385,
            "weighted input does not decay"
        );
    }

    #[test]
    fn occupancy_input_tracks_alloc_copy_reclaim() {
        let mut b = Scoreboard::new(Rule::Max(InputKind::OccupancyBytes));
        let occ = |b: &Scoreboard, p| b.value(InputKind::OccupancyBytes, PartitionId(p));
        b.apply(&BarrierEvent::Allocation {
            oid: Oid(1),
            partition: PartitionId(1),
            size: Bytes(3000),
            grew: false,
        });
        assert_eq!(occ(&b, 1), 3000);
        b.apply(&BarrierEvent::ObjectCopied {
            oid: Oid(1),
            from: PartitionId(1),
            to: PartitionId(2),
            size: Bytes(1000),
        });
        assert_eq!(occ(&b, 1), 2000);
        assert_eq!(occ(&b, 2), 1000);
        b.apply(&BarrierEvent::ObjectReclaimed {
            oid: Oid(1),
            partition: PartitionId(1),
            size: Bytes(2000),
        });
        assert_eq!(occ(&b, 1), 0);
    }

    #[test]
    fn composite_blends_in_one_pass() {
        let db = db_with_two_partitions();
        let mut b = Scoreboard::new(Rule::Composite(CompositeWeights::default()));
        // Lots of bytes in P2, but overwrite evidence on P1 dominates.
        b.apply(&BarrierEvent::Allocation {
            oid: Oid(1),
            partition: PartitionId(2),
            size: Bytes(100 * 1024),
            grew: false,
        });
        b.apply(&overwrite(1, 3));
        assert_eq!(b.value(InputKind::LastAllocation, PartitionId(2)), 1);
        assert!(b.score(PartitionId(1)) > b.score(PartitionId(2)));
        assert_eq!(b.argmax(&db, &[]), Some(PartitionId(1)));
    }
}
