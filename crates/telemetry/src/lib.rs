//! # pgc-telemetry
//!
//! Sampling-gated observability for the barrier event bus: the layer that
//! turns a run's event stream into per-activation evidence (which
//! partition was picked, what it reclaimed, what it cost in page I/O)
//! without perturbing the run.
//!
//! * [`cells`] — lock-free [`cells::Counter`] / [`cells::Gauge`] cells and
//!   a fixed-bucket log2 [`cells::Histogram`]; no dependencies, no unsafe.
//! * [`record`] — [`record::ActivationRecord`]: one structured record per
//!   collector activation, plus the trigger-reason vocabulary.
//! * [`observer`] — [`observer::TelemetryObserver`]: the
//!   [`pgc_odb::BarrierObserver`] bystander that does the recording, and
//!   the [`observer::TelemetryHandle`] that survives the run to extract
//!   the snapshot.
//! * [`snapshot`] — [`snapshot::TelemetrySnapshot`]: the in-memory sink
//!   (counters, run-level histograms, records), mergeable across seeds.
//! * [`fleet`] — [`fleet::FleetSnapshot`]: per-shard snapshots from a
//!   sharded runtime plus the deterministic fleet-wide merge.
//! * [`jsonl`] — the schema-versioned JSONL sink and its parser.
//!
//! The recorder is a pure bystander on the bus built in PR 3: it reads
//! the same stream every selection policy sees and touches nothing else,
//! so totals and victim sequences are bit-identical with telemetry off or
//! on — the simulator's test suite pins this, and `perf_report` gates the
//! disabled path at <2% overhead.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cells;
pub mod fleet;
pub mod jsonl;
pub mod observer;
pub mod record;
pub mod snapshot;

pub use cells::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use fleet::{FleetSnapshot, ShardTelemetry};
pub use jsonl::{parse_line, record_line, write_snapshot, ParsedLine, SCHEMA};
pub use observer::{TelemetryHandle, TelemetryObserver};
pub use record::{ActivationRecord, PolicySwitchNote, ShadowPickNote, TriggerReason};
pub use snapshot::{CounterSnapshot, StorageSummary, TelemetrySnapshot};

/// How much the telemetry layer records.
///
/// `Off` registers nothing on the bus — the disabled path is the exact
/// code path of a run without telemetry. `Metrics` maintains counters and
/// run-level histograms. `Full` additionally keeps one
/// [`ActivationRecord`] per collector activation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TelemetryLevel {
    /// Record nothing; no observer rides the bus.
    #[default]
    Off,
    /// Counters and run-level histograms only.
    Metrics,
    /// Counters, histograms, and per-activation records.
    Full,
}

impl TelemetryLevel {
    /// True unless the level is [`TelemetryLevel::Off`].
    pub fn is_enabled(self) -> bool {
        self != TelemetryLevel::Off
    }
}
