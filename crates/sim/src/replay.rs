//! Applying workload events to a database under a collector.
//!
//! The replayer is the junction of the whole system: every workload event
//! charges its page I/O through the database, which logs typed
//! [`pgc_odb::BarrierEvent`]s; after each operation the replayer pumps the
//! log through [`Collector::sync`], which broadcasts the events to the
//! selection policy (and any shadow observers) and reports whether the
//! trigger fired. Collections run the moment it does — matching the
//! paper's setup, in which collector invocation is "independent of the
//! partition choice" so every policy sees the same trigger points.
//!
//! Workload events name objects by dense [`NodeId`]s; the replayer owns the
//! `NodeId → Oid` map, so the same trace (recorded or generated) can drive
//! any number of databases and policies.

use pgc_core::Collector;
use pgc_odb::{CollectionOutcome, Database};
use pgc_types::{Oid, Result, SlotId};
use pgc_workload::{Event, NodeId};

/// Drives one database + collector pair from an event stream.
pub struct Replayer {
    db: Database,
    collector: Collector,
    node_map: Vec<Oid>,
    events_applied: u64,
    collections: Vec<CollectionOutcome>,
}

impl Replayer {
    /// Creates a replayer over a fresh database and the given collector.
    pub fn new(db: Database, collector: Collector) -> Self {
        Self {
            db,
            collector,
            node_map: Vec::new(),
            events_applied: 0,
            collections: Vec::new(),
        }
    }

    /// The database being driven.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The collector driving collections.
    pub fn collector(&self) -> &Collector {
        &self.collector
    }

    /// Mutable access to the collector, e.g. to register shadow observers
    /// before the first event is applied.
    pub fn collector_mut(&mut self) -> &mut Collector {
        &mut self.collector
    }

    /// Number of events applied so far.
    pub fn events_applied(&self) -> u64 {
        self.events_applied
    }

    /// Outcomes of every collection performed so far.
    pub fn collections(&self) -> &[CollectionOutcome] {
        &self.collections
    }

    /// Resolves a workload node id to its database oid.
    pub fn oid_of(&self, node: NodeId) -> Option<Oid> {
        self.node_map.get(node.as_usize()).copied()
    }

    fn oid(&self, node: NodeId) -> Result<Oid> {
        self.oid_of(node)
            .ok_or(pgc_types::PgcError::UnknownNode(node.index()))
    }

    /// Applies one event (charging I/O, pumping the barrier bus, collecting
    /// when due).
    ///
    /// The pump is uniform: whatever the operation logged — allocations,
    /// growth, pointer or data writes — is drained through the collector
    /// after the operation completes, and the due-check covers the whole
    /// batch. Operations that log nothing (`AddSlot`, `Visit`) drain an
    /// empty log, and the sticky trigger can never be due there because any
    /// due state is consumed at the operation that caused it.
    pub fn apply(&mut self, event: &Event) -> Result<()> {
        match *event {
            Event::CreateRoot { node, size, slots } => {
                debug_assert_eq!(node.as_usize(), self.node_map.len(), "ids must be dense");
                let oid = self.db.create_root(size, slots as usize)?;
                self.node_map.push(oid);
            }
            Event::CreateChild {
                node,
                parent,
                parent_slot,
                size,
                slots,
            } => {
                debug_assert_eq!(node.as_usize(), self.node_map.len(), "ids must be dense");
                let parent_oid = self.oid(parent)?;
                let (oid, _info) =
                    self.db
                        .create_object(size, slots as usize, parent_oid, SlotId(parent_slot))?;
                self.node_map.push(oid);
            }
            Event::WritePointer { owner, slot, new } => {
                let owner_oid = self.oid(owner)?;
                let new_oid = new.map(|n| self.oid(n)).transpose()?;
                self.db.write_slot(owner_oid, SlotId(slot), new_oid)?;
            }
            Event::AddSlot { owner } => {
                let owner_oid = self.oid(owner)?;
                self.db.add_slot(owner_oid)?;
            }
            Event::Visit { node } => {
                self.db.visit(self.oid(node)?)?;
            }
            Event::DataWrite { node } => {
                let oid = self.oid(node)?;
                self.db.data_write(oid)?;
            }
        }
        if self.collector.sync(&mut self.db) {
            self.run_collection()?;
        }
        self.events_applied += 1;
        Ok(())
    }

    fn run_collection(&mut self) -> Result<()> {
        if let Some(outcome) = self.collector.maybe_collect(&mut self.db)? {
            self.collections.push(outcome);
        }
        Ok(())
    }

    /// Applies a whole event stream.
    pub fn apply_all<'a>(&mut self, events: impl IntoIterator<Item = &'a Event>) -> Result<()> {
        for e in events {
            self.apply(e)?;
        }
        Ok(())
    }

    /// Applies events `start..end` of a decoded block.
    ///
    /// The batched counterpart of [`Replayer::apply`] behind
    /// [`crate::Shard::step_block`]: per-event semantics are exactly
    /// [`Replayer::apply`]'s, so block replay is bit-identical to per-event
    /// replay by construction. The sub-range lets a sampling loop stop
    /// mid-block at a measurement boundary.
    pub(crate) fn apply_block(
        &mut self,
        block: &pgc_workload::EventBlock,
        start: usize,
        end: usize,
    ) -> Result<()> {
        debug_assert!(start <= end && end <= block.len());
        for i in start..end {
            self.apply(&block.get(i))?;
        }
        Ok(())
    }

    /// Consumes the replayer, returning the database, collector, and
    /// collection log.
    pub fn into_parts(self) -> (Database, Collector, Vec<CollectionOutcome>) {
        (self.db, self.collector, self.collections)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgc_core::PolicyKind;
    use pgc_types::{Bytes, DbConfig};
    use pgc_workload::{SyntheticWorkload, WorkloadParams};

    fn small_db() -> Database {
        Database::new(
            DbConfig::default()
                .with_page_size(1024)
                .with_partition_pages(16)
                .with_gc_overwrite_threshold(50),
        )
        .unwrap()
    }

    fn replay_small(policy: PolicyKind, seed: u64) -> Replayer {
        let db = small_db();
        let collector = Collector::with_kind(policy, 50, seed, 16);
        let mut r = Replayer::new(db, collector);
        let events: Vec<Event> = SyntheticWorkload::new(WorkloadParams::small().with_seed(seed))
            .unwrap()
            .collect();
        r.apply_all(&events).unwrap();
        assert_eq!(r.events_applied(), events.len() as u64);
        r
    }

    #[test]
    fn full_small_run_updated_pointer() {
        let r = replay_small(PolicyKind::UpdatedPointer, 1);
        assert!(r.db().stats().objects_created > 1000);
        assert!(
            !r.collections().is_empty(),
            "the trigger must have fired at least once"
        );
        assert!(r.db().stats().reclaimed_bytes > Bytes::ZERO);
        r.db().check_invariants();
    }

    #[test]
    fn full_small_run_every_policy_keeps_invariants() {
        for policy in PolicyKind::ALL {
            let r = replay_small(policy, 2);
            r.db().check_invariants();
            if policy == PolicyKind::NoCollection {
                assert_eq!(r.db().stats().collections, 0);
            }
        }
    }

    #[test]
    fn collection_counts_match_collector_log() {
        let r = replay_small(PolicyKind::Random, 3);
        assert_eq!(r.db().stats().collections, r.collections().len() as u64);
    }

    #[test]
    fn trace_replay_gives_identical_results_to_live_generation() {
        let params = WorkloadParams::small().with_seed(4);
        let events: Vec<Event> = SyntheticWorkload::new(params).unwrap().collect();

        let run = |events: &[Event]| {
            let mut r = Replayer::new(
                small_db(),
                Collector::with_kind(PolicyKind::UpdatedPointer, 50, 4, 16),
            );
            r.apply_all(events).unwrap();
            (r.db().io_stats(), r.db().stats(), r.collections().len())
        };
        // Round-trip through the binary codec.
        let mut buf = Vec::new();
        pgc_workload::write_trace(&mut buf, &events).unwrap();
        let replayed: Vec<Event> = pgc_workload::read_trace(buf.as_slice()).unwrap();

        assert_eq!(run(&events), run(&replayed));
    }

    #[test]
    fn reachable_objects_survive_the_whole_run() {
        // Every node the mirror still considers attached must exist in the
        // database at the end of a collected run.
        let params = WorkloadParams::small().with_seed(5);
        let mut gen = SyntheticWorkload::new(params).unwrap();
        let mut events = Vec::new();
        for e in gen.by_ref() {
            events.push(e);
        }
        let mut r = Replayer::new(
            small_db(),
            Collector::with_kind(PolicyKind::MostGarbage, 50, 5, 16),
        );
        r.apply_all(&events).unwrap();
        let mirror = gen.mirror();
        for t in 0..mirror.tree_count() as u32 {
            for &n in mirror.members_of(t) {
                if mirror.is_attached(n) {
                    let oid = r.oid_of(n).unwrap();
                    assert!(
                        r.db().objects().contains(oid),
                        "attached node {n} was reclaimed"
                    );
                }
            }
        }
    }

    #[test]
    fn block_replay_is_bit_identical_to_per_event_replay() {
        let params = WorkloadParams::small().with_seed(6);
        let trace = pgc_workload::EncodedTrace::record(params).unwrap();

        let fresh = || {
            Replayer::new(
                small_db(),
                Collector::with_kind(PolicyKind::MostGarbage, 50, 6, 16),
            )
        };
        let mut per_event = fresh();
        for e in trace.cursor() {
            per_event.apply(&e).unwrap();
        }

        let mut batched = fresh();
        let mut cursor = trace.cursor();
        let mut block = pgc_workload::EventBlock::new();
        while cursor.next_block(&mut block).unwrap() > 0 {
            // Split each block at an arbitrary interior point to exercise
            // the sub-range path.
            let mid = block.len() / 3;
            batched.apply_block(&block, 0, mid).unwrap();
            batched.apply_block(&block, mid, block.len()).unwrap();
        }

        assert_eq!(batched.events_applied(), per_event.events_applied());
        assert_eq!(batched.collections(), per_event.collections());
        assert_eq!(batched.db().stats(), per_event.db().stats());
        assert_eq!(batched.db().io_stats(), per_event.db().io_stats());
        batched.db().check_invariants();
    }

    #[test]
    fn unknown_node_reference_errors() {
        let mut r = Replayer::new(
            small_db(),
            Collector::with_kind(PolicyKind::Random, 50, 1, 16),
        );
        let bad = Event::Visit { node: NodeId(99) };
        let err = r.apply(&bad).unwrap_err();
        // The error names the workload node, not a fabricated object id —
        // the two id spaces are unrelated.
        assert!(
            matches!(err, pgc_types::PgcError::UnknownNode(99)),
            "got {err:?}"
        );
    }
}
