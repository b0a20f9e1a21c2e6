//! The [`Database`] facade: construction, read-only views, event-log
//! access, and invariant checks.
//!
//! The database is layered:
//!
//! * **This module** owns the state (`partitions`, `objects`, `buffer`,
//!   `remsets`, `roots`, `stats`, and the barrier [`EventLog`]) and the
//!   read-only surface.
//! * [`crate::engine`] is the **mutation engine**: object creation, the
//!   write barrier ([`Database::write_slot`]), visits and data writes —
//!   every state change, with full I/O charging and
//!   [`crate::events::BarrierEvent`] emission.
//! * [`crate::collect`] is the **collector mechanism**: breadth-first
//!   copying collection of one partition, emitting per-object copy/reclaim
//!   events and a completion event on the same bus.
//!
//! Events accumulate in the internal log until a pump (the `pgc_core`
//! collector wrapper or the `pgc_sim` replayer) drains them with
//! [`Database::drain_events_into`]; standalone users can inspect them via
//! [`Database::events`] or discard them with [`Database::clear_events`].

use crate::collect::EvacScratch;
use crate::events::{BarrierEvent, EventLog};
use crate::remset::RemsetTable;
use crate::stats::DbStats;
use pgc_buffer::{IoStats, NetStats, PageStore};
use pgc_storage::{page_span, ObjAddr, ObjectTable, PageSpan, PartitionSet};
use pgc_types::{Bytes, DbConfig, Oid, PartitionId, Result, SlotId};
use std::collections::BTreeSet;

/// Occupancy snapshot of one partition (see
/// [`Database::partition_profile`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionProfile {
    /// Which partition.
    pub partition: PartitionId,
    /// True for the designated empty (copy-target) partition.
    pub is_empty_designated: bool,
    /// Byte capacity.
    pub capacity: Bytes,
    /// Bytes handed out by the bump allocator (live + dead + holes).
    pub used: Bytes,
    /// Bytes of resident (not yet reclaimed) objects.
    pub resident: Bytes,
    /// Resident object count.
    pub objects: u64,
    /// Remembered inter-partition pointers into this partition.
    pub remembered_pointers: u64,
    /// Resident objects holding pointers out of this partition.
    pub out_of_partition_objects: u64,
}

/// The simulated object database.
///
/// ```
/// use pgc_odb::Database;
/// use pgc_types::{Bytes, DbConfig, SlotId};
///
/// let mut db = Database::new(DbConfig::default()).unwrap();
/// let root = db.create_root(Bytes(100), 2).unwrap();
/// let (child, info) = db.create_object(Bytes(100), 2, root, SlotId(0)).unwrap();
/// assert!(info.during_creation);
///
/// // Overwriting the pointer orphans the child...
/// let info = db.write_slot(root, SlotId(0), None).unwrap();
/// assert!(info.is_overwrite());
///
/// // ...and collecting the partition reclaims it.
/// let home = db.objects().get(child).unwrap().addr.partition;
/// let outcome = db.collect_partition(home).unwrap();
/// assert_eq!(outcome.garbage_objects, 1);
/// assert!(!db.objects().contains(child));
///
/// // Every mutation above also landed on the barrier event bus.
/// assert!(!db.events().is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct Database {
    pub(crate) cfg: DbConfig,
    pub(crate) partitions: PartitionSet,
    pub(crate) objects: ObjectTable,
    pub(crate) buffer: PageStore,
    pub(crate) remsets: RemsetTable,
    pub(crate) roots: BTreeSet<Oid>,
    pub(crate) stats: DbStats,
    pub(crate) events: EventLog,
    pub(crate) evac: EvacScratch,
}

impl Database {
    /// Creates an empty database under `cfg` (validated).
    pub fn new(cfg: DbConfig) -> Result<Self> {
        cfg.validate()?;
        Ok(Self {
            partitions: PartitionSet::new(cfg.page_size, cfg.partition_pages)
                .with_placement(cfg.placement),
            objects: ObjectTable::new(),
            buffer: match cfg.client_cache_pages {
                Some(client) => PageStore::tiered(client as usize, cfg.buffer_pages as usize),
                None => PageStore::single(cfg.buffer_pages as usize),
            },
            remsets: RemsetTable::new(),
            roots: BTreeSet::new(),
            stats: DbStats::default(),
            events: EventLog::new(),
            evac: EvacScratch::default(),
            cfg,
        })
    }

    // ---------------------------------------------------------------
    // The barrier event bus
    // ---------------------------------------------------------------

    /// Shared view of the buffered (undrained) barrier events.
    #[inline]
    pub fn events(&self) -> &EventLog {
        &self.events
    }

    /// Moves all buffered barrier events to the end of `sink`, leaving the
    /// log empty. The pump calls this after every operation and broadcasts
    /// the drained events to its observer registry.
    #[inline]
    pub fn drain_events_into(&mut self, sink: &mut Vec<BarrierEvent>) {
        self.events.drain_into(sink);
    }

    /// Discards all buffered barrier events (for standalone users that do
    /// not pump the bus).
    #[inline]
    pub fn clear_events(&mut self) {
        self.events.clear();
    }

    // ---------------------------------------------------------------
    // Views
    // ---------------------------------------------------------------

    /// The configuration this database was created with.
    #[inline]
    pub fn config(&self) -> &DbConfig {
        &self.cfg
    }

    /// Semantic event counters.
    #[inline]
    pub fn stats(&self) -> DbStats {
        self.stats
    }

    /// Physical disk I/O counters from the page store.
    #[inline]
    pub fn io_stats(&self) -> IoStats {
        self.buffer.stats().disk
    }

    /// Network message counters (all zero unless the database was
    /// configured with a client cache; see
    /// [`pgc_types::DbConfig::with_client_cache_pages`]).
    #[inline]
    pub fn net_stats(&self) -> NetStats {
        self.buffer.stats().net
    }

    /// The root set.
    pub fn roots(&self) -> impl Iterator<Item = Oid> + '_ {
        self.roots.iter().copied()
    }

    /// True if `oid` is a database root.
    #[inline]
    pub fn is_root(&self, oid: Oid) -> bool {
        self.roots.contains(&oid)
    }

    /// Shared view of the object table.
    #[inline]
    pub fn objects(&self) -> &ObjectTable {
        &self.objects
    }

    /// True while `oid` is resident (registered and not yet reclaimed).
    #[inline]
    pub fn contains_object(&self, oid: Oid) -> bool {
        self.objects.contains(oid)
    }

    /// The partition currently holding `oid` (`None` once reclaimed).
    /// Tracks relocations: after a collection copies the object, this is
    /// the copy target, not the collected victim. External bookkeeping —
    /// a sharded runtime's inter-shard remset, for one — keys on this.
    #[inline]
    pub fn partition_of(&self, oid: Oid) -> Option<PartitionId> {
        self.objects.get(oid).ok().map(|rec| rec.addr.partition)
    }

    /// Shared view of the partition set.
    #[inline]
    pub fn partitions(&self) -> &PartitionSet {
        &self.partitions
    }

    /// Shared view of the remembered sets.
    #[inline]
    pub fn remsets(&self) -> &RemsetTable {
        &self.remsets
    }

    /// Number of partitions in existence (including the empty one).
    #[inline]
    pub fn partition_count(&self) -> usize {
        self.partitions.partition_count()
    }

    /// The designated empty partition (the copy target).
    #[inline]
    pub fn empty_partition(&self) -> PartitionId {
        self.partitions.empty_partition()
    }

    /// Partitions eligible for collection (everything but the empty one).
    pub fn collectable_partitions(&self) -> Vec<PartitionId> {
        self.partitions.collectable_ids().collect()
    }

    /// Total storage footprint (all partitions at full width) — the
    /// paper's "storage required".
    #[inline]
    pub fn total_footprint(&self) -> Bytes {
        self.partitions.total_footprint()
    }

    /// Bytes of resident (not yet reclaimed) objects — live data plus
    /// unreclaimed garbage, the paper's "database size" (Figure 5).
    #[inline]
    pub fn resident_bytes(&self) -> Bytes {
        self.objects.total_bytes()
    }

    /// Per-partition occupancy snapshot (diagnostics; no simulated I/O).
    pub fn partition_profile(&self) -> Vec<PartitionProfile> {
        let empty = self.empty_partition();
        self.partitions
            .iter()
            .map(|p| PartitionProfile {
                partition: p.id(),
                is_empty_designated: p.id() == empty,
                capacity: p.capacity(),
                used: p.used_bytes(),
                resident: p.resident_bytes(),
                objects: self.objects.member_count(p.id()) as u64,
                remembered_pointers: self.remsets.remembered_pointer_count(p.id()) as u64,
                out_of_partition_objects: self.remsets.out_set(p.id()).count() as u64,
            })
            .collect()
    }

    /// Page span of an extent under this database's geometry.
    #[inline]
    pub(crate) fn span_of(&self, addr: ObjAddr, size: Bytes) -> PageSpan {
        page_span(addr, size, self.cfg.page_size, self.cfg.partition_pages)
    }

    /// Page span of a registered object.
    pub fn object_pages(&self, oid: Oid) -> Result<PageSpan> {
        let rec = self.objects.get(oid)?;
        Ok(self.span_of(rec.addr, rec.size))
    }

    /// Debug invariant check across all subsystems (object table,
    /// remembered sets, buffer). Used by tests; O(database size).
    pub fn check_invariants(&self) {
        self.objects.check_invariants();
        self.remsets.check_invariants();
        self.buffer.check_invariants();
        // The designated empty partition holds no data: its pages were
        // invalidated when it was last collected, and only a collection
        // copies into it.
        let empty = self.partitions.empty_partition();
        for page in self.partitions.partition_pages_span(empty) {
            assert!(
                !self.buffer.is_resident(page),
                "{page} of the empty partition {empty} is buffered"
            );
        }
        // Remsets must mirror the actual cross-partition edges.
        let mut expected = 0usize;
        for (oid, rec) in self.objects.iter() {
            for (i, slot) in rec.slots.iter().enumerate() {
                if let Some(target) = slot {
                    let trec = self.objects.get(*target).expect("dangling pointer");
                    if trec.addr.partition != rec.addr.partition {
                        expected += 1;
                        let loc = pgc_types::PointerLoc::new(oid, SlotId(i as u16));
                        assert!(
                            self.remsets
                                .locations_of(trec.addr.partition, *target)
                                .any(|l| l == loc),
                            "missing remset entry for {loc}"
                        );
                    }
                }
            }
        }
        let recorded: usize = (0..self.partitions.partition_count())
            .map(|p| self.remsets.remembered_pointer_count(PartitionId(p as u32)))
            .sum();
        assert_eq!(expected, recorded, "remset has stale or missing entries");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> DbConfig {
        // 4 pages of 1 KB per partition => 4 KB partitions.
        DbConfig::default()
            .with_page_size(1024)
            .with_partition_pages(4)
    }

    fn db() -> Database {
        Database::new(tiny_cfg()).unwrap()
    }

    #[test]
    fn create_root_registers_and_charges_io() {
        let mut d = db();
        let r = d.create_root(Bytes(100), 2).unwrap();
        assert!(d.is_root(r));
        assert_eq!(d.stats().objects_created, 1);
        assert_eq!(d.stats().bytes_allocated, Bytes(100));
        // The first object materializes a fresh page: no disk read.
        assert_eq!(d.io_stats().app_disk_reads, 0);
        assert_eq!(d.objects().get(r).unwrap().weight, 1);
        d.check_invariants();
    }

    #[test]
    fn create_object_links_parent_and_sets_weight() {
        let mut d = db();
        let r = d.create_root(Bytes(100), 2).unwrap();
        let (c, info) = d.create_object(Bytes(100), 2, r, SlotId(0)).unwrap();
        assert_eq!(d.objects().get(r).unwrap().slots[0], Some(c));
        assert_eq!(d.objects().get(c).unwrap().weight, 2);
        assert!(info.during_creation);
        assert!(!info.is_overwrite());
        assert_eq!(info.owner, r);
        assert_eq!(d.stats().pointer_writes, 1);
        assert_eq!(d.stats().pointer_overwrites, 0);
        d.check_invariants();
    }

    #[test]
    fn children_are_placed_near_parents() {
        let mut d = db();
        let r = d.create_root(Bytes(100), 2).unwrap();
        let (c, _) = d.create_object(Bytes(100), 2, r, SlotId(0)).unwrap();
        let rp = d.objects().get(r).unwrap().addr.partition;
        let cp = d.objects().get(c).unwrap().addr.partition;
        assert_eq!(rp, cp);
    }

    #[test]
    fn overwrite_is_counted_and_reported() {
        let mut d = db();
        let r = d.create_root(Bytes(100), 2).unwrap();
        let (a, _) = d.create_object(Bytes(100), 2, r, SlotId(0)).unwrap();
        let (_b, _) = d.create_object(Bytes(100), 2, r, SlotId(1)).unwrap();
        let info = d.write_slot(r, SlotId(0), None).unwrap();
        assert!(info.is_overwrite());
        assert_eq!(info.old.unwrap().oid, a);
        assert_eq!(info.new, None);
        assert_eq!(d.stats().pointer_overwrites, 1);
        assert_eq!(d.objects().get(r).unwrap().slots[0], None);
        d.check_invariants();
    }

    #[test]
    fn cross_partition_pointer_maintains_remset() {
        let mut d = db();
        let r = d.create_root(Bytes(100), 2).unwrap();
        // Fill partition 1 so the next object spills elsewhere.
        let mut filler;
        loop {
            let (nxt, _) = d.create_object(Bytes(1000), 2, r, SlotId(1)).unwrap();
            filler = nxt;
            let p = d.objects().get(nxt).unwrap().addr.partition;
            if p != d.objects().get(r).unwrap().addr.partition {
                break;
            }
        }
        let rp = d.objects().get(r).unwrap().addr.partition;
        let fp = d.objects().get(filler).unwrap().addr.partition;
        assert_ne!(rp, fp);
        // r.slot1 -> filler crosses partitions: remset must know.
        assert!(d.remsets().remembered_targets(fp).any(|t| t == filler));
        assert!(d.remsets().in_out_set(rp, r));
        d.check_invariants();
        // Clearing the slot removes the entry.
        d.write_slot(r, SlotId(1), None).unwrap();
        assert!(!d.remsets().remembered_targets(fp).any(|t| t == filler));
        d.check_invariants();
    }

    #[test]
    fn database_grows_when_full() {
        let mut d = db();
        let r = d.create_root(Bytes(2048), 2).unwrap();
        let before = d.partition_count();
        // Another 2 KB object fills P1; the next must grow the database.
        d.create_object(Bytes(2048), 2, r, SlotId(0)).unwrap();
        d.create_object(Bytes(2048), 2, r, SlotId(1)).unwrap();
        assert!(d.partition_count() > before);
        // The empty partition is never allocated into.
        for (_, rec) in d.objects().iter() {
            assert_ne!(rec.addr.partition, d.empty_partition());
        }
    }

    #[test]
    fn visit_and_data_write_charge_page_traffic() {
        let mut d = db();
        let r = d.create_root(Bytes(100), 2).unwrap();
        let io0 = d.io_stats();
        d.visit(r).unwrap();
        // Page already buffered from creation: a hit, no disk I/O.
        assert_eq!(d.io_stats().total_ios(), io0.total_ios());
        assert_eq!(d.stats().reads, 1);
        d.data_write(r).unwrap();
        assert_eq!(d.stats().data_writes, 1);
        assert_eq!(
            d.stats().pointer_writes,
            0,
            "data write is not a barrier event"
        );
    }

    #[test]
    fn read_slot_returns_value() {
        let mut d = db();
        let r = d.create_root(Bytes(100), 2).unwrap();
        let (c, _) = d.create_object(Bytes(100), 2, r, SlotId(0)).unwrap();
        assert_eq!(d.read_slot(r, SlotId(0)).unwrap(), Some(c));
        assert_eq!(d.read_slot(r, SlotId(1)).unwrap(), None);
        assert!(d.read_slot(r, SlotId(9)).is_err());
    }

    #[test]
    fn add_slot_extends_object() {
        let mut d = db();
        let r = d.create_root(Bytes(100), 2).unwrap();
        let s = d.add_slot(r).unwrap();
        assert_eq!(s, SlotId(2));
        let (c, _) = d.create_object(Bytes(100), 2, r, SlotId(0)).unwrap();
        d.write_slot(r, s, Some(c)).unwrap();
        assert_eq!(d.read_slot(r, s).unwrap(), Some(c));
        d.check_invariants();
    }

    #[test]
    fn weight_updates_flow_through_barrier() {
        let mut d = db();
        let r = d.create_root(Bytes(100), 2).unwrap();
        let (a, _) = d.create_object(Bytes(100), 2, r, SlotId(0)).unwrap();
        let (b, _) = d.create_object(Bytes(100), 2, a, SlotId(0)).unwrap();
        assert_eq!(d.objects().get(b).unwrap().weight, 3);
        // Root points directly at b: weight drops to 2.
        d.write_slot(r, SlotId(1), Some(b)).unwrap();
        assert_eq!(d.objects().get(b).unwrap().weight, 2);
    }

    #[test]
    fn unknown_object_operations_error() {
        let mut d = db();
        assert!(d.visit(Oid(99)).is_err());
        assert!(d.write_slot(Oid(99), SlotId(0), None).is_err());
        assert!(d.data_write(Oid(99)).is_err());
        assert!(d.object_pages(Oid(99)).is_err());
    }

    #[test]
    fn resident_bytes_tracks_allocation() {
        let mut d = db();
        let r = d.create_root(Bytes(100), 2).unwrap();
        d.create_object(Bytes(200), 2, r, SlotId(0)).unwrap();
        assert_eq!(d.resident_bytes(), Bytes(300));
        assert_eq!(d.total_footprint(), Bytes(2 * 4096));
    }

    #[test]
    fn failed_operations_log_no_events() {
        let mut d = db();
        let r = d.create_root(Bytes(100), 2).unwrap();
        d.clear_events();
        assert!(d.write_slot(r, SlotId(9), None).is_err());
        assert!(d.data_write(Oid(99)).is_err());
        assert!(d.events().is_empty());
    }
}

#[cfg(test)]
mod profile_tests {
    use super::*;

    #[test]
    fn partition_profile_reflects_state() {
        let mut d = Database::new(
            DbConfig::default()
                .with_page_size(1024)
                .with_partition_pages(8),
        )
        .unwrap();
        let r = d.create_root(Bytes(100), 2).unwrap();
        let (spill, _) = d.create_object(Bytes(8100), 2, r, SlotId(0)).unwrap();
        let _ = spill;
        let profile = d.partition_profile();
        assert_eq!(profile.len(), d.partition_count());
        let empty_rows: Vec<_> = profile.iter().filter(|p| p.is_empty_designated).collect();
        assert_eq!(empty_rows.len(), 1);
        assert_eq!(empty_rows[0].objects, 0);
        let total_objects: u64 = profile.iter().map(|p| p.objects).sum();
        assert_eq!(total_objects, d.objects().len() as u64);
        let total_resident: u64 = profile.iter().map(|p| p.resident.get()).sum();
        assert_eq!(total_resident, d.resident_bytes().get());
        // The root's partition has an out-of-partition pointer (to spill)
        // and spill's partition has one remembered pointer.
        let home = d.objects().get(r).unwrap().addr.partition;
        let home_row = profile.iter().find(|p| p.partition == home).unwrap();
        assert_eq!(home_row.out_of_partition_objects, 1);
        let foreign: Vec<_> = profile
            .iter()
            .filter(|p| p.remembered_pointers > 0)
            .collect();
        assert_eq!(foreign.len(), 1);
        assert_eq!(foreign[0].remembered_pointers, 1);
    }
}
