//! The in-memory sink: everything one run's telemetry tap observed,
//! condensed to plain data that can ride on a `RunOutcome`, merge across
//! seeds, or serialize to JSONL.

use crate::cells::HistogramSnapshot;
use crate::record::{ActivationRecord, PolicySwitchNote, TriggerReason};
use crate::TelemetryLevel;

/// Plain-data totals of every bus-event counter the tap maintains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CounterSnapshot {
    /// Bus events observed (the telemetry event clock at end of run).
    pub events: u64,
    /// Pointer stores through the write barrier.
    pub pointer_writes: u64,
    /// Pointer stores that overwrote an existing pointer (the paper's
    /// trigger signal).
    pub overwrites: u64,
    /// Non-pointer mutations.
    pub data_writes: u64,
    /// Object allocations.
    pub allocations: u64,
    /// Bytes allocated.
    pub allocated_bytes: u64,
    /// Times the partition set grew.
    pub partition_growths: u64,
    /// Live objects evacuated by collections.
    pub objects_copied: u64,
    /// Bytes evacuated.
    pub copied_bytes: u64,
    /// Dead objects reclaimed.
    pub objects_reclaimed: u64,
    /// Bytes reclaimed.
    pub reclaimed_bytes: u64,
    /// Partition collections completed.
    pub collections: u64,
    /// Trigger activations.
    pub activations: u64,
    /// Driving-policy switches announced by a meta-policy.
    pub policy_switches: u64,
    /// Largest partition count observed at any activation.
    pub max_partitions: u64,
}

impl CounterSnapshot {
    /// Adds another run's counters into this one.
    pub fn merge(&mut self, other: &CounterSnapshot) {
        self.events += other.events;
        self.pointer_writes += other.pointer_writes;
        self.overwrites += other.overwrites;
        self.data_writes += other.data_writes;
        self.allocations += other.allocations;
        self.allocated_bytes += other.allocated_bytes;
        self.partition_growths += other.partition_growths;
        self.objects_copied += other.objects_copied;
        self.copied_bytes += other.copied_bytes;
        self.objects_reclaimed += other.objects_reclaimed;
        self.reclaimed_bytes += other.reclaimed_bytes;
        self.collections += other.collections;
        self.activations += other.activations;
        self.policy_switches += other.policy_switches;
        self.max_partitions = self.max_partitions.max(other.max_partitions);
    }
}

/// Durable-storage counters mirrored from the run's `DurableStore` as
/// plain integers so telemetry stays dependency-free. Attached by the
/// simulator after a run; absent when the run did not persist (including
/// recovery replays, which run with durability off).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StorageSummary {
    /// Bytes appended to the change log.
    pub log_bytes: u64,
    /// Frames appended to the change log.
    pub log_frames: u64,
    /// Log segment files written.
    pub log_segments: u64,
    /// `fsync` calls issued.
    pub fsyncs: u64,
    /// Snapshot files written.
    pub snapshots: u64,
    /// Bytes written into snapshot files.
    pub snapshot_bytes: u64,
    /// Collection safepoints persisted.
    pub safepoints: u64,
}

impl StorageSummary {
    /// Adds another run's storage counters into this one.
    pub fn merge(&mut self, other: &StorageSummary) {
        self.log_bytes += other.log_bytes;
        self.log_frames += other.log_frames;
        self.log_segments += other.log_segments;
        self.fsyncs += other.fsyncs;
        self.snapshots += other.snapshots;
        self.snapshot_bytes += other.snapshot_bytes;
        self.safepoints += other.safepoints;
    }
}

/// Everything telemetry captured for one run (or, after [`merge`], for a
/// set of same-configuration runs).
///
/// [`merge`]: TelemetrySnapshot::merge
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    /// The level the run recorded at.
    pub level: TelemetryLevel,
    /// The trigger configuration the run collected under.
    pub trigger: TriggerReason,
    /// Number of runs folded into this snapshot (1 until merged).
    pub runs: u32,
    /// Whole-run bus-event counters.
    pub counters: CounterSnapshot,
    /// Bytes reclaimed per activation.
    pub reclaimed_per_activation: HistogramSnapshot,
    /// Collector page I/O per activation.
    pub gc_io_per_activation: HistogramSnapshot,
    /// Bus events between consecutive activations.
    pub activation_gap_events: HistogramSnapshot,
    /// One record per activation, in order ([`TelemetryLevel::Full`] only;
    /// empty at `Metrics` level and after a merge).
    pub records: Vec<ActivationRecord>,
    /// Every driving-policy switch observed, in order (recorded at all
    /// levels; dropped on merge like `records`).
    pub switches: Vec<PolicySwitchNote>,
    /// Durable-storage counters, when the run persisted (attached by the
    /// simulator; summed on merge).
    pub storage: Option<StorageSummary>,
}

impl TelemetrySnapshot {
    /// An empty snapshot (useful as a merge accumulator).
    pub fn empty(level: TelemetryLevel, trigger: TriggerReason) -> Self {
        Self {
            level,
            trigger,
            runs: 0,
            counters: CounterSnapshot::default(),
            reclaimed_per_activation: HistogramSnapshot::default(),
            gc_io_per_activation: HistogramSnapshot::default(),
            activation_gap_events: HistogramSnapshot::default(),
            records: Vec::new(),
            switches: Vec::new(),
            storage: None,
        }
    }

    /// Folds another run's snapshot into this aggregate: counters add,
    /// histograms merge bucket-wise, `runs` accumulates. Per-activation
    /// records do not concatenate meaningfully across runs, so the merged
    /// snapshot drops them.
    pub fn merge(&mut self, other: &TelemetrySnapshot) {
        self.runs += other.runs;
        self.counters.merge(&other.counters);
        self.reclaimed_per_activation
            .merge(&other.reclaimed_per_activation);
        self.gc_io_per_activation.merge(&other.gc_io_per_activation);
        self.activation_gap_events
            .merge(&other.activation_gap_events);
        self.records.clear();
        self.switches.clear();
        if let Some(theirs) = &other.storage {
            self.storage
                .get_or_insert_with(StorageSummary::default)
                .merge(theirs);
        }
    }

    /// Mean activations per merged run.
    pub fn activations_per_run(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.counters.activations as f64 / self.runs as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(activations: u64) -> TelemetrySnapshot {
        let mut s =
            TelemetrySnapshot::empty(TelemetryLevel::Metrics, TriggerReason::OverwriteCount(200));
        s.runs = 1;
        s.counters.activations = activations;
        s.counters.events = 100 * activations;
        for i in 0..activations {
            s.reclaimed_per_activation.merge(&{
                let h = crate::cells::Histogram::new();
                h.record(1024 * (i + 1));
                h.snapshot()
            });
        }
        s
    }

    #[test]
    fn merge_accumulates_counters_and_drops_records() {
        let mut a = sample(3);
        a.records
            .push(crate::record::ActivationRecord::open(1, 10, 10));
        a.switches.push(PolicySwitchNote {
            activation: 2,
            from: "UpdatedPointer".to_string(),
            to: "Occupancy".to_string(),
        });
        let b = sample(5);
        a.merge(&b);
        assert_eq!(a.runs, 2);
        assert_eq!(a.counters.activations, 8);
        assert_eq!(a.counters.events, 800);
        assert_eq!(a.reclaimed_per_activation.count, 8);
        assert!(a.records.is_empty(), "records drop on merge");
        assert!(a.switches.is_empty(), "switch traces drop on merge");
        assert!((a.activations_per_run() - 4.0).abs() < 1e-12);
    }
}
