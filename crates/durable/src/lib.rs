//! # pgc-durable
//!
//! The durable storage backend: what turns a purely in-memory shard into a
//! database that survives its process. Everything is hand-rolled and
//! dependency-free, following the checksummed/versioned per-partition file
//! layout of the pippin format.
//!
//! * [`config`] — [`config::DurabilityConfig`] /
//!   [`config::DurabilityMode`]: `Off` / `LogOnly` / `SnapshotAndLog`,
//!   plus fsync batching, snapshot cadence, and log-segment sizing knobs.
//! * [`log`] — the append-only change log: segmented `log-*.pgcl` files of
//!   CRC-framed records. Event frames carry the workload's input events in
//!   a compact tagged encoding (`u32` ids with a wide fallback — the log
//!   is write-amplification-sensitive, so it packs tighter than the PGCT
//!   trace codec), making the log a replayable trace; safepoint frames
//!   mark collection boundaries and snapshot generations.
//!   [`log::LogReader`], the one frame parser, streams checksum-verified
//!   events frames into caller-owned `EventBlock`s up to a caller-given
//!   limit ([`log::read_log`] collects it into a `Vec`). It tolerates a
//!   torn tail: a truncated or corrupted final frame is detected by
//!   length/checksum and dropped, never a crash.
//! * [`snapshot`] — per-partition `snap-*.pgcs` files written at
//!   collection safepoints: versioned header, length-prefixed object
//!   records (oid, size, weight, birth, pointer slots), CRC-32 footer,
//!   written to a temp file and renamed into place.
//! * [`manifest`] — a checksummed key=value `MANIFEST.pgc` recording how
//!   the run was configured, so recovery can rebuild the exact
//!   configuration without out-of-band knowledge.
//! * [`store`] — [`store::DurableStore`], the run-side handle: buffers
//!   events into block-sized frames (write-ahead, before they are
//!   applied), writes snapshots + safepoint frames at collection
//!   boundaries, rotates and fsyncs segments, and reports
//!   [`store::StorageStats`].
//! * [`observer`] — [`observer::LogObserver`], the barrier-bus bystander
//!   that watches `CollectionCompleted` events and raises the shared
//!   [`observer::SafepointSignal`] the owning shard polls to schedule
//!   safepoints (and to meter on-disk churn per collection).
//! * [`tempdir`] — [`tempdir::ScratchDir`], a self-cleaning temp
//!   directory for tests and benches (no external tempfile dependency).
//!
//! Recovery itself lives in `pgc-sim` (it needs `RunConfig` and the
//! `Shard` block pump); this crate supplies the file formats and readers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod codec;
pub mod config;
pub(crate) mod crc;
pub mod log;
pub mod manifest;
pub mod observer;
pub mod snapshot;
pub mod store;
pub mod tempdir;

pub use config::{DurabilityConfig, DurabilityMode};
pub use log::{read_log, LogContents, LogReader, SafepointNote, TornTail};
pub use manifest::Manifest;
pub use observer::{LogObserver, SafepointSignal};
pub use snapshot::{read_snapshot, scan_snapshots, PartitionSnapshot, SnapshotRecord};
pub use store::{DurableStore, StorageStats};
pub use tempdir::ScratchDir;
