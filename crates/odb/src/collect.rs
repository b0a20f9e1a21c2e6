//! Breadth-first copying collection of one partition (Sec. 4.1).
//!
//! The mechanism, identical for every selection policy:
//!
//! 1. The *victim* partition's roots are gathered: database roots resident
//!    in the victim, then every target of a remembered inter-partition
//!    pointer into the victim. Remembered targets are treated as live even
//!    if their rememberers are garbage elsewhere — that conservatism is the
//!    *nepotism* the paper measures in Sec. 6.5.
//! 2. Iterating over the roots one at a time, live objects are copied
//!    breadth-first into the designated empty partition. Intra-partition
//!    edges are traversed; pointers leaving the victim are not. Copying
//!    compacts: internal fragmentation in the victim is eliminated.
//! 3. Remembered pointers to each evacuated object are *forwarded*: the
//!    remembered-set entries are re-keyed to the target partition and the
//!    pages holding the source pointers are dirtied (collector I/O).
//! 4. Whatever remains in the victim is garbage. For each dead object in
//!    the victim's out-of-partition set, the locations of its pointers are
//!    removed from the remembered sets they point into — the cleanup rule
//!    that stops dead pointers from unnecessarily preserving objects in
//!    later collections of other partitions.
//! 5. The victim's buffered pages are dropped without write-back (their
//!    contents are dead), the victim is reset, and it becomes the next
//!    designated empty partition.
//!
//! All page traffic in here is charged to [`IoContext::Collector`].

use crate::db::Database;
use crate::events::BarrierEvent;
use pgc_buffer::{Access, IoContext};
use pgc_storage::ObjAddr;
use pgc_types::{Bytes, DenseBitSet, Oid, PartitionId, PgcError, PointerLoc, Result, SlotId};
use std::collections::VecDeque;

/// What one partition collection accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectionOutcome {
    /// The partition that was collected (now the designated empty one).
    pub victim: PartitionId,
    /// The partition the survivors were copied into.
    pub target: PartitionId,
    /// Objects copied (survivors).
    pub live_objects: u64,
    /// Bytes copied.
    pub live_bytes: Bytes,
    /// Objects reclaimed.
    pub garbage_objects: u64,
    /// Bytes reclaimed.
    pub garbage_bytes: Bytes,
    /// Remembered inter-partition pointers forwarded to moved objects.
    pub forwarded_pointers: u64,
    /// Collector disk reads performed by this collection.
    pub gc_reads: u64,
    /// Collector disk writes performed by this collection.
    pub gc_writes: u64,
}

/// A precomputed single-partition collection: the exact evacuation order
/// and death list [`Database::collect_partition`] would produce, derived
/// without mutating anything.
///
/// Plans exist for zone-parallel collection: because they are computed
/// through `&Database`, several worker threads can plan disjoint victims
/// concurrently (`std::thread::scope`), after which the coordinating
/// thread replays each plan with [`Database::apply_plan`] in canonical
/// partition-id order. A plan deliberately stores **no addresses** — only
/// oids — so applying an earlier plan (which relocates objects and re-keys
/// remembered sets) cannot invalidate a later one, provided the victims'
/// remembered sets are disjoint (see `DESIGN.md` §12).
#[derive(Debug, Clone)]
pub struct CollectionPlan {
    victim: PartitionId,
    /// Survivors, in the exact breadth-first copy order of
    /// [`Database::collect_partition`] (deduplicated).
    evac: Vec<Oid>,
    /// Dead victim residents, ascending.
    dead: Vec<Oid>,
}

impl CollectionPlan {
    /// The partition this plan condemns.
    pub fn victim(&self) -> PartitionId {
        self.victim
    }

    /// How many objects the plan will copy out.
    pub fn survivor_count(&self) -> usize {
        self.evac.len()
    }

    /// How many objects the plan will reclaim.
    pub fn dead_count(&self) -> usize {
        self.dead.len()
    }
}

/// Reusable per-survivor scratch for evacuation, owned by the database so
/// copying an object allocates nothing: the survivor's children (read
/// before its record is relocated) and the remembered pointers forwarded to
/// it. Both are cleared before each object; nothing carries over.
#[derive(Debug, Clone, Default)]
pub(crate) struct EvacScratch {
    pub(crate) children: Vec<Oid>,
    pub(crate) forwarded: Vec<PointerLoc>,
}

impl Database {
    /// Computes the collection plan for `victim` without touching the
    /// database: the breadth-first evacuation order and the sorted death
    /// list, exactly as [`Database::collect_partition`] would discover
    /// them. Performs no simulated I/O (planning reads simulator state the
    /// way the oracle does; the copies are charged at apply time).
    pub fn plan_collection(&self, victim: PartitionId) -> Result<CollectionPlan> {
        let target = self.partitions.empty_partition();
        if victim == target {
            return Err(PgcError::CollectEmptyPartition(victim));
        }
        let _ = self.partitions.partition(victim)?;

        // Roots, in collect_partition's order: database roots resident in
        // the victim (BTreeSet order), then sorted remembered targets.
        let mut partition_roots: Vec<Oid> = Vec::new();
        for oid in self.roots.iter().copied() {
            if self.objects.get(oid)?.addr.partition == victim {
                partition_roots.push(oid);
            }
        }
        let mut remembered: Vec<Oid> = self.remsets.remembered_targets(victim).collect();
        remembered.sort_unstable();
        partition_roots.extend(remembered);

        // The same BFS as collect_partition, with "already planned"
        // standing in for "already evacuated" — the two predicates flip in
        // the same order, so the queue contents (and thus the evacuation
        // order) are identical.
        let mut planned = DenseBitSet::with_capacity(self.objects.oid_bound() as usize);
        let mut evac: Vec<Oid> = Vec::new();
        let mut queue: VecDeque<Oid> = VecDeque::new();
        for root in partition_roots {
            queue.push_back(root);
            while let Some(oid) = queue.pop_front() {
                if planned.contains(oid.index()) {
                    continue;
                }
                planned.insert(oid.index());
                evac.push(oid);
                let rec = self.objects.get(oid)?;
                for child in rec.slots.iter().flatten() {
                    if !planned.contains(child.index())
                        && self.objects.get(*child)?.addr.partition == victim
                    {
                        queue.push_back(*child);
                    }
                }
            }
        }

        let mut dead: Vec<Oid> = self
            .objects
            .members(victim)
            .filter(|o| !planned.contains(o.index()))
            .collect();
        dead.sort_unstable();

        Ok(CollectionPlan { victim, evac, dead })
    }

    /// Executes a plan produced by [`Database::plan_collection`],
    /// producing exactly the state, I/O charges, and barrier events of
    /// [`Database::collect_partition`] on the plan's victim.
    ///
    /// The plan must still describe the database — nothing may have
    /// mutated the victim (or relocated its objects) since planning.
    /// Collections of *remset-disjoint* partitions keep each other's plans
    /// valid; that is the zone-collection safety condition.
    pub fn apply_plan(&mut self, plan: &CollectionPlan) -> Result<CollectionOutcome> {
        let victim = plan.victim;
        let target = self.partitions.empty_partition();
        if victim == target {
            return Err(PgcError::CollectEmptyPartition(victim));
        }
        let _ = self.partitions.partition(victim)?;

        let io_before = self.buffer.stats();
        self.buffer.set_context(IoContext::Collector);

        let mut live_objects = 0u64;
        let mut live_bytes = Bytes::ZERO;
        let mut forwarded_pointers = 0u64;
        for &oid in &plan.evac {
            let rec = self.objects.get(oid)?;
            debug_assert_eq!(rec.addr.partition, victim, "stale collection plan");
            let size = rec.size;
            let old_addr = rec.addr;

            let old_span = self.span_of(old_addr, size);
            self.buffer.access_span(old_span, Access::Read);

            let offset = self
                .partitions
                .allocate_in(target, size)?
                .expect("survivors of one partition always fit the empty partition");
            let new_addr = ObjAddr::new(target, offset);
            self.charge_copy_write(new_addr, size);

            self.partitions.partition_mut(victim)?.note_departure(size);
            self.objects.relocate(oid, new_addr)?;

            self.evac.forwarded.clear();
            self.remsets
                .relocate_object(oid, victim, target, &mut self.evac.forwarded);
            for loc in &self.evac.forwarded {
                let src = self.objects.get(loc.owner)?;
                let span = self.span_of(src.addr, src.size);
                self.buffer.access_span(span, Access::Write);
            }
            forwarded_pointers += self.evac.forwarded.len() as u64;

            live_objects += 1;
            live_bytes += size;
            self.events.push(BarrierEvent::ObjectCopied {
                oid,
                from: victim,
                to: target,
                size,
            });
        }

        debug_assert_eq!(
            self.remsets.remembered_target_count(victim),
            0,
            "all remembered targets must have been evacuated"
        );

        let mut garbage_objects = 0u64;
        let mut garbage_bytes = Bytes::ZERO;
        for &oid in &plan.dead {
            if self.remsets.in_out_set(victim, oid) {
                let rec = self.objects.get(oid)?;
                for (i, t) in rec.slots.iter().enumerate() {
                    let Some(t) = *t else { continue };
                    let slot = SlotId(i as u16);
                    let Ok(target_rec) = self.objects.get(t) else {
                        continue;
                    };
                    let tp = target_rec.addr.partition;
                    if tp != victim {
                        self.remsets
                            .remove_edge(PointerLoc::new(oid, slot), victim, t, tp);
                    }
                }
                self.remsets.purge_source(victim, oid);
            }
            let rec = self.objects.remove(oid)?;
            self.partitions
                .partition_mut(victim)?
                .note_departure(rec.size);
            garbage_objects += 1;
            garbage_bytes += rec.size;
            self.events.push(BarrierEvent::ObjectReclaimed {
                oid,
                partition: victim,
                size: rec.size,
            });
        }

        self.buffer
            .invalidate(self.partitions.partition_pages_span(victim));
        self.partitions.rotate_empty(victim)?;

        self.buffer.set_context(IoContext::Application);

        self.stats.collections += 1;
        self.stats.reclaimed_bytes += garbage_bytes;
        self.stats.reclaimed_objects += garbage_objects;

        let io_after = self.buffer.stats();
        let outcome = CollectionOutcome {
            victim,
            target,
            live_objects,
            live_bytes,
            garbage_objects,
            garbage_bytes,
            forwarded_pointers,
            gc_reads: io_after.disk.gc_disk_reads - io_before.disk.gc_disk_reads,
            gc_writes: io_after.disk.gc_disk_writes - io_before.disk.gc_disk_writes,
        };
        self.events.push(BarrierEvent::CollectionCompleted(outcome));
        Ok(outcome)
    }

    /// Collects `victim`, copying its live objects into the designated
    /// empty partition. See the module docs for the full algorithm.
    pub fn collect_partition(&mut self, victim: PartitionId) -> Result<CollectionOutcome> {
        let target = self.partitions.empty_partition();
        if victim == target {
            return Err(PgcError::CollectEmptyPartition(victim));
        }
        // Fail early on unknown partitions.
        let _ = self.partitions.partition(victim)?;

        let io_before = self.buffer.stats();
        self.buffer.set_context(IoContext::Collector);

        // --- 1. Gather the victim's roots, deterministically ordered. ---
        // Database roots first (BTreeSet iteration is sorted), then
        // remembered targets (sorted explicitly: the remset is hash-based).
        let mut partition_roots: Vec<Oid> = Vec::new();
        for oid in self.roots.iter().copied() {
            if self.objects.get(oid)?.addr.partition == victim {
                partition_roots.push(oid);
            }
        }
        let mut remembered: Vec<Oid> = self.remsets.remembered_targets(victim).collect();
        remembered.sort_unstable();
        partition_roots.extend(remembered);

        // --- 2. Breadth-first evacuation, one root at a time. ---
        let mut live_objects = 0u64;
        let mut live_bytes = Bytes::ZERO;
        let mut forwarded_pointers = 0u64;
        let mut queue: VecDeque<Oid> = VecDeque::new();
        for root in partition_roots {
            queue.push_back(root);
            while let Some(oid) = queue.pop_front() {
                let rec = self.objects.get(oid)?;
                if rec.addr.partition != victim {
                    // Already evacuated via another path (or a root that a
                    // previous root's trace reached first).
                    continue;
                }
                let size = rec.size;
                let old_addr = rec.addr;
                self.evac.children.clear();
                self.evac
                    .children
                    .extend(rec.slots.iter().flatten().copied());

                // Read the object from the victim...
                let old_span = self.span_of(old_addr, size);
                self.buffer.access_span(old_span, Access::Read);

                // ...copy it into the target...
                let offset = self
                    .partitions
                    .allocate_in(target, size)?
                    .expect("survivors of one partition always fit the empty partition");
                let new_addr = ObjAddr::new(target, offset);
                self.charge_copy_write(new_addr, size);

                self.partitions.partition_mut(victim)?.note_departure(size);
                self.objects.relocate(oid, new_addr)?;

                // ...and forward every remembered pointer at it.
                self.evac.forwarded.clear();
                self.remsets
                    .relocate_object(oid, victim, target, &mut self.evac.forwarded);
                for loc in &self.evac.forwarded {
                    // The source object's page holds the pointer; updating
                    // it is a read-modify-write of that page.
                    let src = self.objects.get(loc.owner)?;
                    let span = self.span_of(src.addr, src.size);
                    self.buffer.access_span(span, Access::Write);
                }
                forwarded_pointers += self.evac.forwarded.len() as u64;

                live_objects += 1;
                live_bytes += size;
                self.events.push(BarrierEvent::ObjectCopied {
                    oid,
                    from: victim,
                    to: target,
                    size,
                });

                for &child in &self.evac.children {
                    if self.objects.get(child)?.addr.partition == victim {
                        queue.push_back(child);
                    }
                }
            }
        }

        debug_assert_eq!(
            self.remsets.remembered_target_count(victim),
            0,
            "all remembered targets must have been evacuated"
        );

        // --- 3. Reclaim the stragglers: everything left is garbage. ---
        let mut dead: Vec<Oid> = self.objects.members(victim).collect();
        dead.sort_unstable();
        let mut garbage_objects = 0u64;
        let mut garbage_bytes = Bytes::ZERO;
        for oid in dead {
            // Out-of-partition set cleanup: drop this dead object's
            // pointers from the remembered sets they point into. The
            // auxiliary structures live in primary memory, so this costs no
            // page I/O (Sec. 4.1 keeps them "explicitly in auxiliary data
            // structures").
            if self.remsets.in_out_set(victim, oid) {
                let rec = self.objects.get(oid)?;
                for (i, t) in rec.slots.iter().enumerate() {
                    let Some(t) = *t else { continue };
                    let slot = SlotId(i as u16);
                    // A dangling target here can only be a fellow victim
                    // resident reclaimed earlier in this sweep: cross-
                    // partition targets of any recorded pointer are
                    // remset-protected (they get evacuated, never dropped),
                    // so only intra-partition edges can dangle.
                    let Ok(target_rec) = self.objects.get(t) else {
                        continue;
                    };
                    let tp = target_rec.addr.partition;
                    if tp != victim {
                        self.remsets
                            .remove_edge(PointerLoc::new(oid, slot), victim, t, tp);
                    }
                }
                self.remsets.purge_source(victim, oid);
            }
            let rec = self.objects.remove(oid)?;
            self.partitions
                .partition_mut(victim)?
                .note_departure(rec.size);
            garbage_objects += 1;
            garbage_bytes += rec.size;
            self.events.push(BarrierEvent::ObjectReclaimed {
                oid,
                partition: victim,
                size: rec.size,
            });
        }

        // --- 4. Retire the victim: its pages hold only dead data. ---
        self.buffer
            .invalidate(self.partitions.partition_pages_span(victim));
        self.partitions.rotate_empty(victim)?;

        self.buffer.set_context(IoContext::Application);

        self.stats.collections += 1;
        self.stats.reclaimed_bytes += garbage_bytes;
        self.stats.reclaimed_objects += garbage_objects;

        let io_after = self.buffer.stats();
        let outcome = CollectionOutcome {
            victim,
            target,
            live_objects,
            live_bytes,
            garbage_objects,
            garbage_bytes,
            forwarded_pointers,
            gc_reads: io_after.disk.gc_disk_reads - io_before.disk.gc_disk_reads,
            gc_writes: io_after.disk.gc_disk_writes - io_before.disk.gc_disk_writes,
        };
        self.events.push(BarrierEvent::CollectionCompleted(outcome));
        Ok(outcome)
    }

    /// Charges collector writes for copying an object to `addr`: the first
    /// page is a plain write when the copy lands mid-page, pages beginning
    /// inside the extent are brand new.
    fn charge_copy_write(&mut self, addr: ObjAddr, size: Bytes) {
        let mut first = !addr.offset.is_multiple_of(self.cfg.page_size as u64);
        let span = self.span_of(addr, size);
        for page in span {
            let kind = if first {
                Access::Write
            } else {
                Access::WriteNew
            };
            self.buffer.access(page, kind);
            first = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use pgc_types::DbConfig;

    fn db() -> Database {
        Database::new(
            DbConfig::default()
                .with_page_size(1024)
                .with_partition_pages(8),
        )
        .unwrap()
    }

    /// Builds a root with a chain of `n` children in the root's partition
    /// (sizes small enough to stay put).
    fn chain(d: &mut Database, n: usize) -> (Oid, Vec<Oid>) {
        let root = d.create_root(Bytes(100), 2).unwrap();
        let mut prev = root;
        let mut all = Vec::new();
        for _ in 0..n {
            let (c, _) = d.create_object(Bytes(100), 2, prev, SlotId(0)).unwrap();
            all.push(c);
            prev = c;
        }
        (root, all)
    }

    #[test]
    fn collecting_live_partition_preserves_everything() {
        let mut d = db();
        let (root, chain) = chain(&mut d, 5);
        let victim = d.objects().get(root).unwrap().addr.partition;
        let out = d.collect_partition(victim).unwrap();
        assert_eq!(out.live_objects, 6);
        assert_eq!(out.garbage_objects, 0);
        assert_eq!(out.live_bytes, Bytes(600));
        // Everything moved to the old empty partition, fully reachable.
        for oid in std::iter::once(root).chain(chain) {
            assert_eq!(d.objects().get(oid).unwrap().addr.partition, out.target);
        }
        assert_eq!(d.empty_partition(), victim);
        let rep = oracle::analyze(&d);
        assert_eq!(rep.live_objects, 6);
        d.check_invariants();
    }

    #[test]
    fn collecting_reclaims_unreachable_subtree() {
        let mut d = db();
        let (root, nodes) = chain(&mut d, 4);
        let victim = d.objects().get(root).unwrap().addr.partition;
        // Cut root -> first child: 4 objects die.
        d.write_slot(root, SlotId(0), None).unwrap();
        let out = d.collect_partition(victim).unwrap();
        assert_eq!(out.garbage_objects, 4);
        assert_eq!(out.garbage_bytes, Bytes(400));
        assert_eq!(out.live_objects, 1);
        for oid in nodes {
            assert!(!d.objects().contains(oid));
        }
        assert_eq!(d.stats().reclaimed_objects, 4);
        d.check_invariants();
    }

    #[test]
    fn remembered_targets_survive_even_from_dead_sources() {
        // Nepotism: a garbage object in another partition points into the
        // victim; the pointee survives the victim's collection.
        let mut d = db();
        let root = d.create_root(Bytes(100), 3).unwrap();
        let home = d.objects().get(root).unwrap().addr.partition;
        // Spill a big object into a second partition.
        let (spill, _) = d.create_object(Bytes(8100), 2, root, SlotId(0)).unwrap();
        let foreign = d.objects().get(spill).unwrap().addr.partition;
        assert_ne!(home, foreign);
        // A small object in the home partition, pointed at by `spill`.
        let (victim_obj, _) = d.create_object(Bytes(100), 2, root, SlotId(1)).unwrap();
        assert_eq!(d.objects().get(victim_obj).unwrap().addr.partition, home);
        d.write_slot(spill, SlotId(0), Some(victim_obj)).unwrap();
        // Kill both paths from the root; spill becomes garbage but its
        // pointer into `home` remains remembered.
        d.write_slot(root, SlotId(0), None).unwrap();
        d.write_slot(root, SlotId(1), None).unwrap();
        let out = d.collect_partition(home).unwrap();
        // victim_obj survives via nepotism.
        assert!(d.objects().contains(victim_obj));
        assert!(out.live_objects >= 1);
        let rep = oracle::analyze(&d);
        assert!(rep.garbage_objects >= 2, "spill and victim_obj are garbage");
        assert!(rep.nepotism_bytes >= Bytes(100));
        d.check_invariants();
        // Collecting the foreign partition reclaims `spill` and cleans its
        // remembered pointer, so a second collection of the survivor's
        // partition reclaims victim_obj.
        d.collect_partition(foreign).unwrap();
        assert!(!d.objects().contains(spill));
        let survivor_partition = d.objects().get(victim_obj).unwrap().addr.partition;
        d.collect_partition(survivor_partition).unwrap();
        assert!(!d.objects().contains(victim_obj));
        d.check_invariants();
    }

    #[test]
    fn forwarding_rewrites_remembered_entries() {
        let mut d = db();
        let root = d.create_root(Bytes(100), 3).unwrap();
        let home = d.objects().get(root).unwrap().addr.partition;
        let (spill, _) = d.create_object(Bytes(8100), 2, root, SlotId(0)).unwrap();
        let foreign = d.objects().get(spill).unwrap().addr.partition;
        let (small, _) = d.create_object(Bytes(100), 2, root, SlotId(1)).unwrap();
        d.write_slot(spill, SlotId(0), Some(small)).unwrap();
        // Collect home: `small` moves; spill's pointer must follow it.
        let out = d.collect_partition(home).unwrap();
        assert!(out.forwarded_pointers >= 1);
        let new_home = d.objects().get(small).unwrap().addr.partition;
        assert_ne!(new_home, home);
        assert!(d.remsets().remembered_targets(new_home).any(|t| t == small));
        assert_eq!(d.remsets().remembered_target_count(home), 0);
        assert!(d.remsets().in_out_set(foreign, spill));
        d.check_invariants();
    }

    #[test]
    fn dead_out_pointers_are_cleaned_from_remote_remsets() {
        let mut d = db();
        let root = d.create_root(Bytes(100), 3).unwrap();
        let home = d.objects().get(root).unwrap().addr.partition;
        let (spill, _) = d.create_object(Bytes(8100), 2, root, SlotId(0)).unwrap();
        let foreign = d.objects().get(spill).unwrap().addr.partition;
        // An object in home that points into foreign, then dies.
        let (pointer_holder, _) = d.create_object(Bytes(100), 2, root, SlotId(1)).unwrap();
        d.write_slot(pointer_holder, SlotId(0), Some(spill))
            .unwrap();
        assert!(d.remsets().remembered_targets(foreign).any(|t| t == spill));
        d.write_slot(root, SlotId(1), None).unwrap(); // pointer_holder dies
        d.collect_partition(home).unwrap();
        assert!(!d.objects().contains(pointer_holder));
        // The dead holder's pointer into foreign must be gone from
        // foreign's remset; the root's own (live) cross-partition pointer
        // to spill must remain.
        let locs: Vec<_> = d.remsets().locations_of(foreign, spill).collect();
        assert!(
            locs.iter().all(|l| l.owner != pointer_holder),
            "dead holder's entry lingers"
        );
        assert!(locs.iter().any(|l| l.owner == root));
        d.check_invariants();
    }

    #[test]
    fn collection_compacts_fragmentation() {
        let mut d = db();
        let (root, _) = chain(&mut d, 10);
        let victim = d.objects().get(root).unwrap().addr.partition;
        d.write_slot(root, SlotId(0), None).unwrap();
        let used_before = d.partitions().partition(victim).unwrap().used_bytes();
        let out = d.collect_partition(victim).unwrap();
        let target_used = d.partitions().partition(out.target).unwrap().used_bytes();
        assert_eq!(target_used, Bytes(100), "only the root survives, compacted");
        assert!(used_before > target_used);
        assert!(d.partitions().partition(victim).unwrap().is_fresh());
    }

    #[test]
    fn collecting_empty_designated_partition_is_an_error() {
        let mut d = db();
        let empty = d.empty_partition();
        assert!(matches!(
            d.collect_partition(empty),
            Err(PgcError::CollectEmptyPartition(_))
        ));
    }

    #[test]
    fn collecting_unknown_partition_is_an_error() {
        let mut d = db();
        assert!(matches!(
            d.collect_partition(PartitionId(42)),
            Err(PgcError::UnknownPartition(_))
        ));
    }

    #[test]
    fn collection_charges_collector_io() {
        let mut d = db();
        let (root, _) = chain(&mut d, 10);
        let victim = d.objects().get(root).unwrap().addr.partition;
        // Evict everything from the buffer by touching another partition.
        let (big, _) = d.create_object(Bytes(7000), 0, root, SlotId(1)).unwrap();
        for _ in 0..4 {
            d.visit(big).unwrap();
        }
        let out = d.collect_partition(victim).unwrap();
        assert!(out.gc_reads > 0, "cold victim pages require disk reads");
        let io = d.io_stats();
        assert_eq!(io.gc_disk_reads, out.gc_reads);
        assert_eq!(io.gc_disk_writes, out.gc_writes);
    }

    #[test]
    fn two_roots_in_one_partition_both_survive() {
        let mut d = db();
        let r1 = d.create_root(Bytes(100), 2).unwrap();
        let r2 = d.create_root(Bytes(100), 2).unwrap();
        let p1 = d.objects().get(r1).unwrap().addr.partition;
        assert_eq!(p1, d.objects().get(r2).unwrap().addr.partition);
        let out = d.collect_partition(p1).unwrap();
        assert_eq!(out.live_objects, 2);
        assert!(d.objects().contains(r1));
        assert!(d.objects().contains(r2));
    }

    #[test]
    fn collection_emits_copy_reclaim_and_completion_events() {
        let mut d = db();
        let (root, _) = chain(&mut d, 4);
        let victim = d.objects().get(root).unwrap().addr.partition;
        d.write_slot(root, SlotId(0), None).unwrap();
        d.clear_events();
        let out = d.collect_partition(victim).unwrap();
        let events = d.events().events();
        let copied = events
            .iter()
            .filter(|e| {
                matches!(e, BarrierEvent::ObjectCopied { from, to, .. }
                if *from == victim && *to == out.target)
            })
            .count() as u64;
        let reclaimed = events
            .iter()
            .filter(|e| {
                matches!(e, BarrierEvent::ObjectReclaimed { partition, .. }
                if *partition == victim)
            })
            .count() as u64;
        assert_eq!(copied, out.live_objects);
        assert_eq!(reclaimed, out.garbage_objects);
        assert_eq!(
            events.last(),
            Some(&BarrierEvent::CollectionCompleted(out)),
            "completion event is logged last"
        );
    }

    /// Deterministically builds a randomized database (allocations,
    /// rewires, cuts) so two builds from one seed are identical.
    fn random_db(seed: u64) -> Database {
        use pgc_types::SimRng;
        let mut rng = SimRng::new(seed);
        let mut d = db();
        let mut oids = Vec::new();
        for _ in 0..rng.range_inclusive(1, 4) {
            oids.push(
                d.create_root(Bytes(rng.range_inclusive(40, 300)), 3)
                    .unwrap(),
            );
        }
        for _ in 0..rng.range_inclusive(30, 150) {
            let parent = *rng.pick(&oids);
            let slot = SlotId(rng.below(3) as u16);
            match rng.below(10) {
                0..=6 => {
                    if let Ok((o, _)) =
                        d.create_object(Bytes(rng.range_inclusive(40, 2000)), 3, parent, slot)
                    {
                        oids.push(o);
                    }
                }
                7..=8 => {
                    let target = *rng.pick(&oids);
                    let _ = d.write_slot(parent, slot, Some(target));
                }
                _ => {
                    let _ = d.write_slot(parent, slot, None);
                }
            }
        }
        d
    }

    #[test]
    fn plan_apply_is_bit_identical_to_collect_partition() {
        // Two databases built from the same seed; one collects directly,
        // the other through plan + apply. Outcomes, barrier events, stats,
        // I/O counters, and the post-state oracle report must all match.
        for seed in 0..15u64 {
            let mut direct = random_db(seed);
            let mut planned = random_db(seed);
            for round in 0..3 {
                let Some(victim) = direct.collectable_partitions().into_iter().find(|&p| {
                    direct.partitions().partition(p).unwrap().used_bytes() > Bytes::ZERO
                }) else {
                    break;
                };
                let plan = planned.plan_collection(victim).unwrap();
                let out_direct = direct.collect_partition(victim).unwrap();
                assert_eq!(
                    plan.survivor_count() as u64,
                    out_direct.live_objects,
                    "seed {seed} round {round}: planned survivors"
                );
                assert_eq!(
                    plan.dead_count() as u64,
                    out_direct.garbage_objects,
                    "seed {seed} round {round}: planned deaths"
                );
                let out_planned = planned.apply_plan(&plan).unwrap();
                assert_eq!(
                    out_direct, out_planned,
                    "seed {seed} round {round}: outcome diverged"
                );
                assert_eq!(
                    direct.events().events(),
                    planned.events().events(),
                    "seed {seed} round {round}: event stream diverged"
                );
                direct.check_invariants();
                planned.check_invariants();
            }
            assert_eq!(
                oracle::analyze(&direct),
                oracle::analyze(&planned),
                "seed {seed}: post-state diverged"
            );
            assert_eq!(direct.stats(), planned.stats(), "seed {seed}: stats");
        }
    }

    #[test]
    fn stale_plan_is_rejected_by_empty_partition_check() {
        let mut d = db();
        let (root, _) = chain(&mut d, 3);
        let victim = d.objects().get(root).unwrap().addr.partition;
        let plan = d.plan_collection(victim).unwrap();
        // Applying once is fine; the victim then becomes the designated
        // empty partition, so replaying the same plan must be refused.
        d.apply_plan(&plan).unwrap();
        assert!(matches!(
            d.apply_plan(&plan),
            Err(PgcError::CollectEmptyPartition(_))
        ));
    }

    #[test]
    fn planning_the_empty_partition_is_an_error() {
        let d = db();
        let empty = d.empty_partition();
        assert!(matches!(
            d.plan_collection(empty),
            Err(PgcError::CollectEmptyPartition(_))
        ));
    }

    #[test]
    fn plan_is_read_only() {
        let mut d = db();
        let (root, _) = chain(&mut d, 5);
        d.write_slot(root, SlotId(0), None).unwrap();
        let victim = d.objects().get(root).unwrap().addr.partition;
        let stats_before = d.stats();
        let io_before = d.io_stats();
        d.clear_events();
        let plan = d.plan_collection(victim).unwrap();
        assert!(plan.survivor_count() >= 1);
        assert!(plan.dead_count() >= 1);
        assert_eq!(plan.victim(), victim);
        assert_eq!(d.stats(), stats_before, "planning mutated stats");
        assert_eq!(d.io_stats(), io_before, "planning performed I/O");
        assert!(d.events().is_empty(), "planning emitted events");
    }

    #[test]
    fn shared_child_is_copied_once() {
        let mut d = db();
        let root = d.create_root(Bytes(100), 2).unwrap();
        let (a, _) = d.create_object(Bytes(100), 2, root, SlotId(0)).unwrap();
        let (b, _) = d.create_object(Bytes(100), 2, root, SlotId(1)).unwrap();
        let (shared, _) = d.create_object(Bytes(100), 2, a, SlotId(0)).unwrap();
        d.write_slot(b, SlotId(0), Some(shared)).unwrap();
        let victim = d.objects().get(root).unwrap().addr.partition;
        let out = d.collect_partition(victim).unwrap();
        assert_eq!(out.live_objects, 4, "shared child copied exactly once");
        d.check_invariants();
    }
}
