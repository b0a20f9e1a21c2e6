//! The recorder: a [`BarrierObserver`] bystander that turns the barrier
//! event stream into counters, histograms, and per-activation records.
//!
//! Construction hands back an observer/handle pair sharing one state cell:
//! the observer is registered on the collector's bus (which consumes it),
//! and the handle survives the run to extract the finished
//! [`TelemetrySnapshot`]. The observer only *reads* the stream every
//! registered policy already sees — it never mutates the database, selects
//! a victim, or charges I/O, which is what makes it non-perturbing (the
//! simulator's test suite pins totals and victim sequences bit-identical
//! with telemetry off and on).

use crate::cells::{Counter, Gauge, Histogram};
use crate::record::{ActivationRecord, PolicySwitchNote, TriggerReason};
use crate::snapshot::{CounterSnapshot, TelemetrySnapshot};
use crate::TelemetryLevel;
use pgc_odb::{BarrierEvent, BarrierObserver, Database};
use std::cell::RefCell;
use std::rc::Rc;

#[derive(Default)]
struct BusCounters {
    events: Counter,
    pointer_writes: Counter,
    overwrites: Counter,
    data_writes: Counter,
    allocations: Counter,
    allocated_bytes: Counter,
    partition_growths: Counter,
    objects_copied: Counter,
    copied_bytes: Counter,
    objects_reclaimed: Counter,
    reclaimed_bytes: Counter,
    collections: Counter,
    activations: Counter,
    policy_switches: Counter,
    max_partitions: Gauge,
}

impl BusCounters {
    fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            events: self.events.get(),
            pointer_writes: self.pointer_writes.get(),
            overwrites: self.overwrites.get(),
            data_writes: self.data_writes.get(),
            allocations: self.allocations.get(),
            allocated_bytes: self.allocated_bytes.get(),
            partition_growths: self.partition_growths.get(),
            objects_copied: self.objects_copied.get(),
            copied_bytes: self.copied_bytes.get(),
            objects_reclaimed: self.objects_reclaimed.get(),
            reclaimed_bytes: self.reclaimed_bytes.get(),
            collections: self.collections.get(),
            activations: self.activations.get(),
            policy_switches: self.policy_switches.get(),
            max_partitions: self.max_partitions.get(),
        }
    }
}

struct TelemetryState {
    level: TelemetryLevel,
    trigger: TriggerReason,
    counters: BusCounters,
    reclaimed_hist: Histogram,
    gc_io_hist: Histogram,
    gap_hist: Histogram,
    records: Vec<ActivationRecord>,
    /// Whole-run policy-switch trace (recorded at every level).
    switches: Vec<PolicySwitchNote>,
    /// The record being built for the current activation (opened at
    /// `TriggerTick`, closed at the next tick or at end of run).
    open: Option<ActivationRecord>,
    /// Deterministic logical clock: bus events observed so far.
    clock: u64,
    last_tick_clock: u64,
    last_app_ios: u64,
}

impl TelemetryState {
    fn close_open(&mut self) {
        let Some(rec) = self.open.take() else {
            return;
        };
        self.reclaimed_hist.record(rec.garbage_bytes.get());
        self.gc_io_hist.record(rec.gc_ios());
        self.gap_hist.record(rec.gap_events);
        if self.level == TelemetryLevel::Full {
            self.records.push(rec);
        }
    }

    fn into_snapshot(mut self) -> TelemetrySnapshot {
        self.close_open();
        TelemetrySnapshot {
            level: self.level,
            trigger: self.trigger,
            runs: 1,
            counters: self.counters.snapshot(),
            reclaimed_per_activation: self.reclaimed_hist.snapshot(),
            gc_io_per_activation: self.gc_io_hist.snapshot(),
            activation_gap_events: self.gap_hist.snapshot(),
            records: self.records,
            switches: self.switches,
            storage: None,
        }
    }
}

/// The bus-riding recorder half of a telemetry pair.
pub struct TelemetryObserver {
    state: Rc<RefCell<TelemetryState>>,
}

/// The surviving half: extracts the snapshot after the run.
pub struct TelemetryHandle {
    state: Rc<RefCell<TelemetryState>>,
}

impl TelemetryObserver {
    /// Creates an observer/handle pair recording at `level` under the
    /// given trigger configuration. Register the observer on the
    /// collector's bus; call [`TelemetryHandle::finish`] when the run
    /// ends.
    pub fn new(level: TelemetryLevel, trigger: TriggerReason) -> (Self, TelemetryHandle) {
        let state = Rc::new(RefCell::new(TelemetryState {
            level,
            trigger,
            counters: BusCounters::default(),
            reclaimed_hist: Histogram::new(),
            gc_io_hist: Histogram::new(),
            gap_hist: Histogram::new(),
            records: Vec::new(),
            switches: Vec::new(),
            open: None,
            clock: 0,
            last_tick_clock: 0,
            last_app_ios: 0,
        }));
        (
            Self {
                state: Rc::clone(&state),
            },
            TelemetryHandle { state },
        )
    }
}

impl BarrierObserver for TelemetryObserver {
    fn on_event(&mut self, event: &BarrierEvent) {
        let mut s = self.state.borrow_mut();
        s.clock += 1;
        s.counters.events.inc();
        match *event {
            BarrierEvent::PointerWrite(info) => {
                s.counters.pointer_writes.inc();
                if info.is_overwrite() {
                    s.counters.overwrites.inc();
                }
            }
            BarrierEvent::DataWrite { .. } => s.counters.data_writes.inc(),
            BarrierEvent::Allocation { size, .. } => {
                s.counters.allocations.inc();
                s.counters.allocated_bytes.add(size.get());
            }
            BarrierEvent::PartitionGrowth { partitions } => {
                s.counters.partition_growths.inc();
                s.counters.max_partitions.record_max(partitions as u64);
            }
            BarrierEvent::ObjectCopied { size, .. } => {
                s.counters.objects_copied.inc();
                s.counters.copied_bytes.add(size.get());
            }
            BarrierEvent::ObjectReclaimed { size, .. } => {
                s.counters.objects_reclaimed.inc();
                s.counters.reclaimed_bytes.add(size.get());
            }
            BarrierEvent::VictimSelected { victim, score_bits } => {
                if let Some(open) = s.open.as_mut() {
                    // First selection of the activation is the driver's
                    // headline pick; batch extras only add to the totals.
                    if open.victim.is_none() {
                        open.victim = Some(victim);
                        open.victim_score = score_bits.map(f64::from_bits);
                    }
                }
            }
            BarrierEvent::CollectionCompleted(outcome) => {
                s.counters.collections.inc();
                if let Some(open) = s.open.as_mut() {
                    open.collections += 1;
                    open.live_objects += outcome.live_objects;
                    open.live_bytes += outcome.live_bytes;
                    open.garbage_objects += outcome.garbage_objects;
                    open.garbage_bytes += outcome.garbage_bytes;
                    open.forwarded_pointers += outcome.forwarded_pointers;
                    open.gc_reads += outcome.gc_reads;
                    open.gc_writes += outcome.gc_writes;
                }
            }
            BarrierEvent::TriggerTick { activation } => {
                s.close_open();
                s.counters.activations.inc();
                let gap = s.clock - s.last_tick_clock;
                let clock = s.clock;
                s.open = Some(ActivationRecord::open(activation, clock, gap));
                s.last_tick_clock = clock;
            }
            BarrierEvent::PolicySwitched {
                activation,
                from,
                to,
            } => {
                s.counters.policy_switches.inc();
                let note = PolicySwitchNote {
                    activation,
                    from: from.to_string(),
                    to: to.to_string(),
                };
                if let Some(open) = s.open.as_mut() {
                    open.policy_switches.push(note.clone());
                }
                s.switches.push(note);
            }
        }
    }

    fn on_trigger(&mut self, db: &Database) {
        let mut s = self.state.borrow_mut();
        let app = db.io_stats().app_ios();
        let delta = app - s.last_app_ios;
        s.last_app_ios = app;
        s.counters
            .max_partitions
            .record_max(db.partition_count() as u64);
        if let Some(open) = s.open.as_mut() {
            open.app_ios_before = app;
            open.app_ios_delta = delta;
        }
    }
}

impl TelemetryHandle {
    /// Closes any in-flight activation record and returns the finished
    /// snapshot. Call after the run, once the observer has been dropped
    /// with the collector. If the observer is somehow still alive (a
    /// mid-run peek), the snapshot is taken as-is with the in-flight
    /// activation still open and excluded.
    pub fn finish(self) -> TelemetrySnapshot {
        match Rc::try_unwrap(self.state) {
            Ok(cell) => cell.into_inner().into_snapshot(),
            Err(rc) => {
                let s = rc.borrow();
                TelemetrySnapshot {
                    level: s.level,
                    trigger: s.trigger,
                    runs: 1,
                    counters: s.counters.snapshot(),
                    reclaimed_per_activation: s.reclaimed_hist.snapshot(),
                    gc_io_per_activation: s.gc_io_hist.snapshot(),
                    activation_gap_events: s.gap_hist.snapshot(),
                    records: s.records.clone(),
                    switches: s.switches.clone(),
                    storage: None,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgc_odb::CollectionOutcome;
    use pgc_types::{Bytes, Oid, PartitionId};

    fn tick(n: u64) -> BarrierEvent {
        BarrierEvent::TriggerTick { activation: n }
    }

    fn completed(garbage: u64) -> BarrierEvent {
        BarrierEvent::CollectionCompleted(CollectionOutcome {
            victim: PartitionId(1),
            target: PartitionId(0),
            live_objects: 2,
            live_bytes: Bytes(200),
            garbage_objects: 3,
            garbage_bytes: Bytes(garbage),
            forwarded_pointers: 1,
            gc_reads: 4,
            gc_writes: 5,
        })
    }

    #[test]
    fn records_one_activation_per_tick() {
        let (mut obs, handle) =
            TelemetryObserver::new(TelemetryLevel::Full, TriggerReason::OverwriteCount(50));
        obs.on_event(&BarrierEvent::Allocation {
            oid: Oid(1),
            partition: PartitionId(1),
            size: Bytes(100),
            grew: false,
        });
        obs.on_event(&tick(1));
        obs.on_event(&BarrierEvent::VictimSelected {
            victim: PartitionId(1),
            score_bits: Some(7.0f64.to_bits()),
        });
        obs.on_event(&completed(500));
        obs.on_event(&tick(2));
        obs.on_event(&BarrierEvent::VictimSelected {
            victim: PartitionId(2),
            score_bits: None,
        });
        obs.on_event(&completed(900));
        drop(obs);
        let snap = handle.finish();
        assert_eq!(snap.counters.activations, 2);
        assert_eq!(snap.counters.collections, 2);
        assert_eq!(snap.counters.allocations, 1);
        assert_eq!(snap.records.len(), 2, "finish closes the open record");
        let first = &snap.records[0];
        assert_eq!(first.activation, 1);
        assert_eq!(first.victim, Some(PartitionId(1)));
        assert_eq!(first.victim_score, Some(7.0));
        assert_eq!(first.garbage_bytes, Bytes(500));
        assert_eq!(first.gc_ios(), 9);
        let second = &snap.records[1];
        assert_eq!(second.victim, Some(PartitionId(2)));
        assert_eq!(second.victim_score, None);
        assert_eq!(snap.reclaimed_per_activation.count, 2);
        assert_eq!(snap.reclaimed_per_activation.sum, 1400);
    }

    #[test]
    fn metrics_level_keeps_histograms_but_no_records() {
        let (mut obs, handle) =
            TelemetryObserver::new(TelemetryLevel::Metrics, TriggerReason::PartitionGrowth);
        obs.on_event(&tick(1));
        obs.on_event(&completed(100));
        drop(obs);
        let snap = handle.finish();
        assert_eq!(snap.counters.activations, 1);
        assert!(snap.records.is_empty());
        assert_eq!(snap.reclaimed_per_activation.count, 1);
    }

    #[test]
    fn policy_switches_land_on_the_open_record_and_the_run_trace() {
        let (mut obs, handle) =
            TelemetryObserver::new(TelemetryLevel::Full, TriggerReason::OverwriteCount(50));
        obs.on_event(&tick(1));
        obs.on_event(&completed(100));
        obs.on_event(&BarrierEvent::PolicySwitched {
            activation: 1,
            from: "UpdatedPointer",
            to: "Occupancy",
        });
        obs.on_event(&tick(2));
        obs.on_event(&completed(200));
        drop(obs);
        let snap = handle.finish();
        assert_eq!(snap.counters.policy_switches, 1);
        assert_eq!(snap.switches.len(), 1);
        assert_eq!(snap.switches[0].activation, 1);
        assert_eq!(snap.switches[0].from, "UpdatedPointer");
        assert_eq!(snap.switches[0].to, "Occupancy");
        assert_eq!(snap.records[0].policy_switches.len(), 1);
        assert!(snap.records[1].policy_switches.is_empty());
    }

    #[test]
    fn batch_collections_accumulate_into_one_record() {
        let (mut obs, handle) =
            TelemetryObserver::new(TelemetryLevel::Full, TriggerReason::OverwriteCount(1));
        obs.on_event(&tick(1));
        obs.on_event(&BarrierEvent::VictimSelected {
            victim: PartitionId(3),
            score_bits: None,
        });
        obs.on_event(&completed(100));
        obs.on_event(&BarrierEvent::VictimSelected {
            victim: PartitionId(4),
            score_bits: None,
        });
        obs.on_event(&completed(200));
        drop(obs);
        let snap = handle.finish();
        assert_eq!(snap.records.len(), 1);
        let rec = &snap.records[0];
        assert_eq!(rec.collections, 2);
        assert_eq!(rec.victim, Some(PartitionId(3)), "first pick wins");
        assert_eq!(rec.garbage_bytes, Bytes(300));
    }
}
