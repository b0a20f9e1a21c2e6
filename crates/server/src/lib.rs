//! # pgc-server
//!
//! The sharded multi-tenant runtime: many client streams, each with its
//! own partitioned database and selection policy, hosted behind a
//! deterministic router on a fixed fleet of shard worker threads.
//!
//! * [`router`] — [`router::StreamId`] and the stateless [`router::Router`]
//!   hashing streams onto shards.
//! * [`ring`] — the [`ring::RingInbox`]: fixed-capacity shard inboxes with
//!   park/unpark backpressure, FIFO drain, and an occupancy high-water
//!   mark; a slow shard throttles its producers instead of buffering the
//!   world.
//! * [`session`] — the session layer: each shard worker owns a table of
//!   sessions (one [`pgc_sim::Shard`] per stream), drains its ring in
//!   arrival order, coalesces consecutive segments for a stream, and steps
//!   them block-at-a-time through one reusable decode scratch.
//! * [`remset`] — the [`remset::InterShardRemset`]: cross-shard references
//!   as remset traffic over the existing barrier event bus, striped by
//!   target stream so shards touching different tenants never contend,
//!   and weak by design so they cannot perturb any session's collection
//!   decisions.
//! * [`server`] — [`server::Server`]: start, open streams, submit
//!   zero-copy [`TraceSegment`]s, link across streams, and fold the fleet
//!   into a [`server::FleetOutcome`] at shutdown.
//!
//! # Determinism
//!
//! Per-stream results are **bit-identical at any shard count** and to a
//! dedicated single-`Simulation` run: a session is a self-contained
//! [`pgc_sim::Shard`] (the same unit `Simulation` drives), one server
//! handle feeds each stream its events in submission order, and nothing a
//! session observes depends on placement. The router only decides *where*
//! a session executes; cross-shard links are weak accounting entries that
//! never feed back into collection. `tests/shard_equivalence.rs` at the
//! workspace root pins all of this.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod remset;
pub mod ring;
pub mod router;
pub mod server;
pub mod session;

pub use remset::{InterShardRemset, LinkRecord, RemsetBridge, RemsetStats, REMSET_STRIPES};
pub use ring::{RingInbox, DEFAULT_INBOX_CAPACITY};
pub use router::{Router, StreamId};
pub use server::{FleetOutcome, Server, ServerConfig, StreamHandle, StreamRef};
pub use session::ShardReport;
// The pieces a server driver needs ride along so callers don't take a
// direct dependency on every lower crate for the common cases.
pub use pgc_durable::{DurabilityConfig, DurabilityMode};
pub use pgc_sim::{RunConfig, RunOutcome};
pub use pgc_telemetry::{FleetSnapshot, ShardTelemetry, TelemetryLevel};
pub use pgc_workload::TraceSegment;
