//! The policy + scheduler bundle that pumps the barrier event bus.
//!
//! [`Collector`] is what a simulation (or an embedding application) holds:
//! it drains the [`Database`]'s event log and broadcasts every
//! [`BarrierEvent`] to the selection policy, to any registered shadow
//! observers, and to the trigger scheduler. When the trigger fires it asks
//! the policy for a victim, runs the copying collection, and pumps the
//! resulting collection events back through the same bus so every listener
//! sees one consistent stream.

use crate::policies::build_policy;
use crate::policy::{PolicyKind, SelectionPolicy};
use crate::scheduler::{GcScheduler, Trigger};
use pgc_odb::{
    BarrierEvent, BarrierObserver, CollectionOutcome, CollectionPlan, Database, ObserverRegistry,
};
use pgc_types::{Parallelism, PartitionId, Result};

/// A complete partitioned garbage collector: selection policy + trigger.
///
/// ```
/// use pgc_core::{Collector, PolicyKind};
/// use pgc_odb::Database;
/// use pgc_types::{Bytes, DbConfig, SlotId};
///
/// let mut db = Database::new(DbConfig::default()).unwrap();
/// let mut gc = Collector::with_kind(PolicyKind::UpdatedPointer, 1, 0, 16);
///
/// let root = db.create_root(Bytes(100), 1).unwrap();
/// db.create_object(Bytes(100), 1, root, SlotId(0)).unwrap();
/// assert!(!gc.sync(&mut db), "creation stores are no overwrites");
///
/// db.write_slot(root, SlotId(0), None).unwrap(); // the overwrite
/// assert!(gc.sync(&mut db), "threshold 1: due immediately");
/// let outcome = gc.maybe_collect(&mut db).unwrap().unwrap();
/// assert_eq!(outcome.garbage_objects, 1);
/// ```
pub struct Collector {
    policy: Box<dyn SelectionPolicy>,
    scheduler: GcScheduler,
    /// Bystanders on the bus: shadow scoreboards, tracers, metrics taps.
    /// They see the same stream as the policy but never pick the victim.
    observers: ObserverRegistry,
    /// Partitions collected per activation. The paper collects exactly one
    /// ("a full implementation might allow more than one partition to be
    /// collected at a time, if doing so was determined to be of
    /// importance") — values above 1 exist for that ablation.
    batch: u32,
    /// How much intra-run parallelism collection may use. Affects only
    /// *how* work is computed (zone plans fan out across threads), never
    /// *what* is computed: `Deterministic(n)` is bit-identical to
    /// `Serial`.
    parallelism: Parallelism,
    /// Reused drain buffer so the per-operation pump allocates nothing in
    /// steady state.
    scratch: Vec<BarrierEvent>,
}

impl Collector {
    /// Creates a collector with the given policy instance and the paper's
    /// overwrite-count trigger.
    pub fn new(policy: Box<dyn SelectionPolicy>, overwrite_threshold: u64) -> Self {
        Self {
            policy,
            scheduler: GcScheduler::new(overwrite_threshold),
            observers: ObserverRegistry::new(),
            batch: 1,
            parallelism: Parallelism::Serial,
            scratch: Vec::new(),
        }
    }

    /// Creates a collector with an explicit trigger.
    pub fn with_trigger(policy: Box<dyn SelectionPolicy>, trigger: Trigger) -> Self {
        Self {
            policy,
            scheduler: GcScheduler::with_trigger(trigger),
            observers: ObserverRegistry::new(),
            batch: 1,
            parallelism: Parallelism::Serial,
            scratch: Vec::new(),
        }
    }

    /// Sets how many partitions each activation collects (min 1).
    #[must_use]
    pub fn with_batch(mut self, batch: u32) -> Self {
        self.batch = batch.max(1);
        self
    }

    /// Sets how much intra-run parallelism collection work may use.
    ///
    /// Under [`Parallelism::Deterministic`], batched activations compute
    /// their zone plans on worker threads; results are bit-identical to
    /// [`Parallelism::Serial`] because plans are read-only and are applied
    /// on the coordinating thread in canonical partition-id order.
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// The collector's parallelism mode.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// Convenience constructor from a [`PolicyKind`]; `seed` feeds the
    /// `Random` policy, `max_weight` parameterizes `WeightedPointer`.
    pub fn with_kind(
        kind: PolicyKind,
        overwrite_threshold: u64,
        seed: u64,
        max_weight: u8,
    ) -> Self {
        Self::new(build_policy(kind, seed, max_weight), overwrite_threshold)
    }

    /// Registers a bystander observer on the bus. It receives every event
    /// the driving policy receives — including the driver's own
    /// `CollectionCompleted` records — plus the [`BarrierObserver::on_trigger`]
    /// callback at each activation, but it never influences victim
    /// selection or trigger timing.
    pub fn add_observer(&mut self, observer: Box<dyn BarrierObserver>) {
        self.observers.register(observer);
    }

    /// Number of registered bystander observers.
    pub fn observer_count(&self) -> usize {
        self.observers.len()
    }

    /// Which policy this collector runs.
    pub fn policy_kind(&self) -> PolicyKind {
        self.policy.kind()
    }

    /// The trigger state.
    pub fn scheduler(&self) -> &GcScheduler {
        &self.scheduler
    }

    /// Delivers one event to the policy, the observers, and the trigger.
    /// Returns `true` if a collection is now due.
    ///
    /// Normally events arrive via [`Collector::sync`]; this entry point
    /// exists for tests and for embedders that fabricate their own stream.
    pub fn observe_event(&mut self, event: &BarrierEvent) -> bool {
        self.policy.on_event(event);
        self.observers.broadcast(event);
        match event {
            BarrierEvent::PointerWrite(info) if info.is_overwrite() => {
                self.scheduler.note_overwrite()
            }
            BarrierEvent::Allocation { size, grew, .. } => {
                // `PartitionGrowth` carries no trigger weight of its own:
                // the allocation that caused it already reports `grew`.
                self.scheduler.note_allocation(*size, *grew)
            }
            _ => self.scheduler.is_due(),
        }
    }

    /// Drains the database's pending barrier events through the bus.
    /// Returns `true` if a collection is now due.
    pub fn sync(&mut self, db: &mut Database) -> bool {
        // Fast path: reads (`visit`) and slot growth log nothing, and in a
        // traversal-heavy trace they dominate — skip the drain entirely.
        if db.events().is_empty() {
            return self.scheduler.is_due();
        }
        self.scratch.clear();
        db.drain_events_into(&mut self.scratch);
        // Events are `Copy`; an index loop lets `observe_event` borrow
        // `self` mutably without juggling the scratch buffer's ownership.
        for i in 0..self.scratch.len() {
            let event = self.scratch[i];
            self.observe_event(&event);
        }
        self.scratch.clear();
        self.scheduler.is_due()
    }

    /// If the trigger is due (after draining any pending events), selects a
    /// victim and collects it. Returns the outcome, or `None` when no
    /// collection happened (trigger not due, the policy declined, or there
    /// is nothing to collect).
    pub fn maybe_collect(&mut self, db: &mut Database) -> Result<Option<CollectionOutcome>> {
        if !self.sync(db) {
            return Ok(None);
        }
        self.force_collect(db)
    }

    /// Selects a victim and collects it immediately (resets the trigger
    /// window whether or not the policy declined, so `NoCollection` pays no
    /// compounding bookkeeping). With a batch size above 1, selection and
    /// collection repeat up to `batch` times per activation.
    ///
    /// Activation order on the bus: any pending events are drained first;
    /// then a [`BarrierEvent::TriggerTick`] marks the activation; then
    /// every observer's `on_trigger` sees the *pre-collection* database —
    /// this is where shadow scoreboards record the victim they would have
    /// picked — and only then does the driving policy select and collect.
    pub fn force_collect(&mut self, db: &mut Database) -> Result<Option<CollectionOutcome>> {
        self.sync(db);
        self.scheduler.collection_done();
        let tick = BarrierEvent::TriggerTick {
            activation: self.scheduler.triggers(),
        };
        self.policy.on_event(&tick);
        self.observers.broadcast(&tick);
        self.observers.notify_trigger(db);
        if self.batch > 1 {
            return self.zone_collect(db);
        }
        let mut last = None;
        for _ in 0..self.batch {
            let Some(victim) = self.policy.select(db) else {
                break;
            };
            // Announce the pick (with the policy's score for it) before
            // collecting, so bus taps can attribute the collection that
            // follows. Selection is already made; observers cannot
            // influence it.
            let selected = BarrierEvent::VictimSelected {
                victim,
                score_bits: self.policy.victim_score(victim).map(f64::to_bits),
            };
            self.policy.on_event(&selected);
            self.observers.broadcast(&selected);
            let outcome = db.collect_partition(victim)?;
            // Pump the collection's own events (copies, reclaims, the
            // completion record) so scoreboards reset before the next
            // batched selection.
            self.sync(db);
            // A meta-policy decides switches while digesting the
            // collection outcome; announce them on the bus immediately so
            // taps attribute each switch to the activation that caused it
            // (the new policy drives from the next activation on).
            self.broadcast_switches();
            last = Some(outcome);
        }
        Ok(last)
    }

    /// The batched ("zone") activation protocol: condemn up to `batch`
    /// remset-disjoint victims against the *pre-collection* database, plan
    /// each one's collection read-only (on worker threads under
    /// [`Parallelism::Deterministic`]), then apply the plans on this
    /// thread in canonical partition-id order — the safepoint between the
    /// planning fan-out and the apply sequence is the `thread::scope`
    /// join.
    ///
    /// Remset-disjointness (no remembered pointer between any two
    /// condemned partitions, in either direction) is what keeps every plan
    /// valid while earlier plans are applied: applying zone A only
    /// relocates A residents, re-keys remembered entries pointing into A,
    /// and removes edges from A's dead objects — none of which can touch
    /// zone B's roots, members, or remembered targets when no A↔B edges
    /// exist. Condemnation stops early at the first non-disjoint pick, so
    /// an activation may collect fewer than `batch` partitions.
    ///
    /// Bit-identity across parallelism modes holds by construction: the
    /// condemned set, the plans (pure functions of the shared
    /// pre-collection state), and the apply order are the same whether
    /// plans were computed serially or concurrently.
    fn zone_collect(&mut self, db: &mut Database) -> Result<Option<CollectionOutcome>> {
        // --- Condemn: every selection sees the pre-collection database. ---
        let mut victims: Vec<PartitionId> = Vec::new();
        let mut condemned: Vec<(PartitionId, Option<u64>)> = Vec::new();
        while condemned.len() < self.batch as usize {
            let pick = if victims.is_empty() {
                self.policy.select(db)
            } else {
                self.policy.select_excluding(db, &victims)
            };
            let Some(victim) = pick else { break };
            if victims.iter().any(|&v| zones_overlap(db, victim, v)) {
                break;
            }
            let score_bits = self.policy.victim_score(victim).map(f64::to_bits);
            victims.push(victim);
            condemned.push((victim, score_bits));
        }
        if condemned.is_empty() {
            return Ok(None);
        }
        // --- Canonical order: ascending partition id, for the whole
        // activation (plans, applies, and every bus event). ---
        condemned.sort_unstable_by_key(|&(p, _)| p);

        // --- Plan: read-only over `&Database`, fanned out when allowed. ---
        let plans: Vec<CollectionPlan> = if self.parallelism.is_parallel() && condemned.len() > 1 {
            let db_view: &Database = db;
            let mut slots: Vec<Option<Result<CollectionPlan>>> =
                condemned.iter().map(|_| None).collect();
            std::thread::scope(|s| {
                for (slot, &(victim, _)) in slots.iter_mut().zip(&condemned) {
                    s.spawn(move || *slot = Some(db_view.plan_collection(victim)));
                }
            });
            // The scope join above is the safepoint: all planning ends
            // before any state mutation begins.
            slots
                .into_iter()
                .map(|s| s.expect("planner thread completed"))
                .collect::<Result<_>>()?
        } else {
            condemned
                .iter()
                .map(|&(victim, _)| db.plan_collection(victim))
                .collect::<Result<_>>()?
        };

        // --- Apply: serially, in canonical order, pumping each
        // collection's events before the next so listeners observe the
        // same stream in every parallelism mode. ---
        let mut last = None;
        for (&(victim, score_bits), plan) in condemned.iter().zip(&plans) {
            let selected = BarrierEvent::VictimSelected { victim, score_bits };
            self.policy.on_event(&selected);
            self.observers.broadcast(&selected);
            let outcome = db.apply_plan(plan)?;
            self.sync(db);
            self.broadcast_switches();
            last = Some(outcome);
        }
        Ok(last)
    }

    fn broadcast_switches(&mut self) {
        for s in self.policy.take_switches() {
            let event = BarrierEvent::PolicySwitched {
                activation: s.activation,
                from: s.from.name(),
                to: s.to.name(),
            };
            self.policy.on_event(&event);
            self.observers.broadcast(&event);
        }
    }
}

/// True when a remembered inter-partition pointer connects `a` and `b` in
/// either direction — the zone-collection conflict test.
fn zones_overlap(db: &Database, a: PartitionId, b: PartitionId) -> bool {
    points_into(db, a, b) || points_into(db, b, a)
}

/// True when some object resident in `src` holds a remembered pointer to
/// an object in `dst`.
fn points_into(db: &Database, src: PartitionId, dst: PartitionId) -> bool {
    db.remsets().remembered_targets(dst).any(|target| {
        db.remsets().locations_of(dst, target).any(|loc| {
            db.objects()
                .get(loc.owner)
                .map(|rec| rec.addr.partition == src)
                .unwrap_or(false)
        })
    })
}

impl std::fmt::Debug for Collector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collector")
            .field("policy", &self.policy.name())
            .field("scheduler", &self.scheduler)
            .field("observers", &self.observers.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgc_types::{Bytes, DbConfig, Oid, PartitionId, SlotId};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn db() -> Database {
        Database::new(
            DbConfig::default()
                .with_page_size(1024)
                .with_partition_pages(8),
        )
        .unwrap()
    }

    #[test]
    fn collects_when_due_and_resets() {
        let mut d = db();
        let r = d.create_root(Bytes(100), 2).unwrap();
        d.create_object(Bytes(100), 2, r, SlotId(0)).unwrap();
        let mut c = Collector::with_kind(PolicyKind::UpdatedPointer, 1, 0, 16);
        assert!(!c.sync(&mut d), "creation stores are no overwrites");
        d.write_slot(r, SlotId(0), None).unwrap();
        assert!(c.sync(&mut d), "one overwrite hits threshold 1");
        let out = c.maybe_collect(&mut d).unwrap();
        let out = out.expect("collection happened");
        assert_eq!(out.garbage_objects, 1);
        assert_eq!(c.scheduler().triggers(), 1);
        // Not due any more.
        assert!(c.maybe_collect(&mut d).unwrap().is_none());
    }

    #[test]
    fn no_collection_policy_never_collects_but_resets_trigger() {
        let mut d = db();
        let r = d.create_root(Bytes(100), 2).unwrap();
        d.create_object(Bytes(100), 2, r, SlotId(0)).unwrap();
        let mut c = Collector::with_kind(PolicyKind::NoCollection, 1, 0, 16);
        d.write_slot(r, SlotId(0), None).unwrap();
        assert!(c.sync(&mut d));
        assert!(c.maybe_collect(&mut d).unwrap().is_none());
        assert_eq!(d.stats().collections, 0);
        assert!(!c.scheduler().is_due(), "window reset even when declining");
    }

    #[test]
    fn updated_pointer_collector_reclaims_targeted_garbage() {
        let mut d = db();
        let r = d.create_root(Bytes(100), 2).unwrap();
        // A subtree that will die.
        let (a, _) = d.create_object(Bytes(100), 2, r, SlotId(0)).unwrap();
        d.create_object(Bytes(100), 2, a, SlotId(0)).unwrap();
        let mut c = Collector::with_kind(PolicyKind::UpdatedPointer, 1, 0, 16);
        d.write_slot(r, SlotId(0), None).unwrap();
        c.sync(&mut d);
        let out = c.maybe_collect(&mut d).unwrap().unwrap();
        assert_eq!(out.garbage_objects, 2, "a and b reclaimed");
        assert!(d.objects().contains(r));
    }

    #[test]
    fn batch_collects_multiple_partitions() {
        let mut d = db();
        let r = d.create_root(Bytes(100), 2).unwrap();
        // Fill several partitions with garbage-to-be.
        let (a, _) = d.create_object(Bytes(8100), 2, r, SlotId(0)).unwrap();
        d.write_slot(r, SlotId(0), None).unwrap();
        let (b, _) = d.create_object(Bytes(8100), 2, r, SlotId(1)).unwrap();
        d.write_slot(r, SlotId(1), None).unwrap();
        let mut c = Collector::with_kind(PolicyKind::MostGarbage, 1, 0, 16).with_batch(2);
        c.sync(&mut d);
        c.maybe_collect(&mut d).unwrap();
        assert_eq!(d.stats().collections, 2, "batch of two");
        assert!(!d.objects().contains(a));
        assert!(!d.objects().contains(b));
    }

    /// Garbage spread over several mutually unconnected partitions.
    fn db_with_disjoint_garbage() -> Database {
        let mut d = db();
        let r = d.create_root(Bytes(100), 3).unwrap();
        for slot in 0..3u16 {
            // Each spill lands in its own partition and immediately dies;
            // no pointers run between the spill partitions.
            d.create_object(Bytes(6000), 2, r, SlotId(slot)).unwrap();
            d.write_slot(r, SlotId(slot), None).unwrap();
        }
        d
    }

    #[test]
    fn zone_batch_is_parallelism_invariant() {
        // The same batched activation under Serial and Deterministic(4)
        // must produce identical victims, outcomes, and end states.
        let run = |par: Parallelism| {
            let mut d = db_with_disjoint_garbage();
            let mut c = Collector::with_kind(PolicyKind::MostGarbage, 1, 0, 16)
                .with_batch(3)
                .with_parallelism(par);
            c.sync(&mut d);
            let last = c.force_collect(&mut d).unwrap();
            d.check_invariants();
            (last, d.stats(), pgc_odb::oracle::analyze(&d))
        };
        let serial = run(Parallelism::Serial);
        assert_eq!(serial, run(Parallelism::deterministic(1)));
        assert_eq!(serial, run(Parallelism::deterministic(4)));
        let (_, stats, _) = &serial;
        assert_eq!(stats.collections, 3, "all three zones condemned");
    }

    #[test]
    fn zone_condemnation_stops_at_remset_overlap() {
        // Two garbage-bearing partitions connected by a remembered
        // pointer are not disjoint: a batch of 2 must collect only one.
        let mut d = db();
        let r = d.create_root(Bytes(100), 3).unwrap();
        let (spill, _) = d.create_object(Bytes(8100), 2, r, SlotId(0)).unwrap();
        let (small, _) = d.create_object(Bytes(100), 2, r, SlotId(1)).unwrap();
        let home = d.objects().get(small).unwrap().addr.partition;
        let foreign = d.objects().get(spill).unwrap().addr.partition;
        assert_ne!(home, foreign);
        // Cross-partition pointer foreign -> home, then kill both subtrees
        // so each partition holds garbage.
        d.write_slot(spill, SlotId(0), Some(small)).unwrap();
        d.write_slot(r, SlotId(0), None).unwrap();
        d.write_slot(r, SlotId(1), None).unwrap();
        assert!(points_into(&d, foreign, home));
        let mut c = Collector::with_kind(PolicyKind::MostGarbage, 1, 0, 16)
            .with_batch(2)
            .with_parallelism(Parallelism::deterministic(4));
        c.sync(&mut d);
        c.force_collect(&mut d).unwrap();
        assert_eq!(
            d.stats().collections,
            1,
            "overlapping zone must not be condemned in the same activation"
        );
        d.check_invariants();
    }

    #[test]
    fn zone_overlap_test_sees_both_directions() {
        let mut d = db();
        let r = d.create_root(Bytes(100), 3).unwrap();
        let (spill, _) = d.create_object(Bytes(8100), 2, r, SlotId(0)).unwrap();
        let (small, _) = d.create_object(Bytes(100), 2, r, SlotId(1)).unwrap();
        let home = d.objects().get(small).unwrap().addr.partition;
        let foreign = d.objects().get(spill).unwrap().addr.partition;
        d.write_slot(spill, SlotId(0), Some(small)).unwrap();
        // Drop the root's own pointer into `foreign` so the only
        // cross-partition edge left is spill -> small.
        d.write_slot(r, SlotId(0), None).unwrap();
        assert!(zones_overlap(&d, home, foreign));
        assert!(zones_overlap(&d, foreign, home), "symmetric");
        assert!(points_into(&d, foreign, home));
        assert!(!points_into(&d, home, foreign));
    }

    #[test]
    fn allocation_trigger_fires_without_overwrites() {
        let mut d = db();
        let r = d.create_root(Bytes(100), 2).unwrap();
        d.clear_events();
        let mut c = Collector::with_trigger(
            build_policy(PolicyKind::Occupancy, 0, 16),
            Trigger::AllocationBytes(Bytes(1000)),
        );
        let alloc = |size| BarrierEvent::Allocation {
            oid: Oid(9),
            partition: PartitionId(1),
            size,
            grew: false,
        };
        assert!(!c.observe_event(&alloc(Bytes(500))));
        assert!(c.observe_event(&alloc(Bytes(600))));
        let out = c.maybe_collect(&mut d).unwrap();
        assert!(out.is_some());
        assert!(d.objects().contains(r), "live root survives");
    }

    #[test]
    fn growth_trigger_fires_on_partition_growth() {
        let mut d = db();
        d.create_root(Bytes(100), 2).unwrap();
        d.clear_events();
        let mut c = Collector::with_trigger(
            build_policy(PolicyKind::Occupancy, 0, 16),
            Trigger::PartitionGrowth,
        );
        let alloc = |size, grew| BarrierEvent::Allocation {
            oid: Oid(9),
            partition: PartitionId(1),
            size,
            grew,
        };
        assert!(!c.observe_event(&alloc(Bytes(100), false)));
        assert!(c.observe_event(&alloc(Bytes(8100), true)));
        assert!(c.maybe_collect(&mut d).unwrap().is_some());
    }

    #[test]
    fn data_writes_reach_only_the_yny_policy() {
        let mut d = db();
        d.create_root(Bytes(100), 2).unwrap();
        d.clear_events();
        let mut yny = Collector::with_kind(PolicyKind::YnyMutated, 100, 0, 16);
        let mut enhanced = Collector::with_kind(PolicyKind::MutatedPartition, 100, 0, 16);
        let dw = BarrierEvent::DataWrite {
            oid: Oid(1),
            partition: PartitionId(1),
        };
        for _ in 0..3 {
            yny.observe_event(&dw);
            enhanced.observe_event(&dw);
        }
        // Force a selection: YNY has a score for P1, enhanced does not
        // (falls back to fullest). Both should pick P1 here since it is
        // also the only used partition — so check the scores via policy
        // kind instead.
        assert_eq!(yny.policy_kind(), PolicyKind::YnyMutated);
        assert_eq!(enhanced.policy_kind(), PolicyKind::MutatedPartition);
        assert!(yny.force_collect(&mut d).unwrap().is_some());
    }

    /// A bystander that tallies what it sees on the bus.
    #[derive(Default)]
    struct Tap {
        state: Rc<RefCell<TapState>>,
    }

    #[derive(Default)]
    struct TapState {
        events: usize,
        ticks: u64,
        completions: usize,
        trigger_views: usize,
    }

    impl BarrierObserver for Tap {
        fn on_event(&mut self, event: &BarrierEvent) {
            let mut s = self.state.borrow_mut();
            s.events += 1;
            match event {
                BarrierEvent::TriggerTick { .. } => s.ticks += 1,
                BarrierEvent::CollectionCompleted(_) => s.completions += 1,
                _ => {}
            }
        }

        fn on_trigger(&mut self, db: &Database) {
            assert!(db.partition_count() > 0);
            self.state.borrow_mut().trigger_views += 1;
        }
    }

    #[test]
    fn observers_see_the_full_driver_stream() {
        let mut d = db();
        let tap = Tap::default();
        let state = Rc::clone(&tap.state);
        let mut c = Collector::with_kind(PolicyKind::UpdatedPointer, 1, 0, 16);
        c.add_observer(Box::new(tap));
        assert_eq!(c.observer_count(), 1);

        let r = d.create_root(Bytes(100), 2).unwrap();
        d.create_object(Bytes(100), 2, r, SlotId(0)).unwrap();
        d.write_slot(r, SlotId(0), None).unwrap();
        let out = c.maybe_collect(&mut d).unwrap();
        assert!(out.is_some());

        let s = state.borrow();
        assert_eq!(s.ticks, 1, "one activation, one tick");
        assert_eq!(s.trigger_views, 1, "on_trigger ran at the activation");
        assert_eq!(
            s.completions, 1,
            "the driver's collection record reached the bystander"
        );
        assert!(s.events > 3, "mutation events were broadcast too");
    }

    #[test]
    fn debug_format_names_policy() {
        let c = Collector::with_kind(PolicyKind::Random, 10, 1, 16);
        let s = format!("{c:?}");
        assert!(s.contains("Random"));
    }
}
