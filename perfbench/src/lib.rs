//! The pgc benchmark: three workloads driven from outside the program
//! through the public API of `pgc-sim`, `pgc-workload`, `pgc-durable` and
//! `pgc-server`, each checked for correct output before it reports.
//!
//! * [`sweep`] — `paper_sweep`, the six paper policies over several seeds.
//! * [`durable`] — `durable`, persisted replays and their recovery.
//! * [`fleet`] — `fleet`, many small tenants on the sharded server.
//!
//! An untraced run reports the end-to-end metrics; a traced run times each
//! public call into a layer from the benchmark's own code ([`trace`]) and
//! reports the per-layer metrics. See `README.md` for the metric map.

pub mod durable;
pub mod fleet;
pub mod json;
pub mod machine;
pub mod report;
pub mod stats;
pub mod sweep;
pub mod trace;
