//! # pgc-sim
//!
//! The trace-driven simulator (Sec. 4.2) and the experiment harness that
//! regenerates every table and figure of the paper's evaluation (Sec. 6).
//!
//! * [`replay`] — [`replay::Replayer`]: applies workload events to a
//!   [`pgc_odb::Database`] under a [`pgc_core::Collector`], mapping
//!   workload-level node ids to database oids and running collections when
//!   the overwrite trigger fires.
//! * [`metrics`] — [`metrics::RunTotals`] (the aggregate numbers behind
//!   Tables 2–5) and [`metrics::TimeSeries`] (the sampled curves behind
//!   Figures 4–5).
//! * [`run`] — [`run::RunConfig`] + [`run::Simulation::builder`]: one
//!   complete simulation from a parameter set or a shared encoded trace,
//!   with optional bus observers, telemetry and durability.
//! * [`shard`] — [`shard::Shard`]: the self-contained unit a run drives —
//!   one database + policy + scheduler + barrier bus + telemetry handle,
//!   stepped by decoded event blocks. `Simulation` is its 1-shard special case;
//!   the multi-tenant `pgc-server` runtime hosts one per client stream.
//! * [`durable`] — recovery-by-replay over a `pgc-durable` data
//!   directory: [`durable::recover`] rebuilds the exact run from the
//!   manifest, change log, and checksummed snapshots, bit-identical to an
//!   uninterrupted run over the surviving event prefix.
//! * [`shadow`] — shadow-scoreboard policy races: one driver policy makes
//!   the collection decisions while every other honest policy's scoreboard
//!   rides the same barrier event bus and records the victim it *would*
//!   have picked, yielding a per-collection agreement matrix and a
//!   cumulative-regret accounting (would-be picks scored against realized
//!   garbage) from a single replay.
//! * [`summary`] — mean / standard deviation over the ten-seed repetitions
//!   the paper reports.
//! * [`experiment`] — multi-policy, multi-seed comparisons
//!   ([`experiment::Comparison`]) and parameter sweeps, scheduled on the
//!   shared-trace engine: each seed's workload is recorded once into a
//!   [`pgc_workload::TraceCache`] and the encoded buffer is fanned out to
//!   every policy worker, which replays it through
//!   [`run::Simulation::builder`].
//! * [`paper`] — the exact configurations of the paper's experiments
//!   (Tables 2–4 headline setup, Figure 6 size scaling, Table 5
//!   connectivity sweep).
//! * [`report`] — plain-text rendering of each table/figure in the paper's
//!   row order, plus CSV output for the time-series figures.
//! * [`chart`] — ASCII line charts of the Figure 4/5 curves for terminal
//!   inspection.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chart;
pub mod durable;
pub mod experiment;
pub mod metrics;
pub mod paper;
pub mod replay;
pub mod report;
pub mod run;
pub mod shadow;
pub mod shard;
pub mod summary;

pub use chart::{render_chart, ChartMetric};
pub use durable::{outcome_digest, recover, RecoveredRun};
pub use experiment::{default_threads, Comparison, Experiment, PolicyRow, RunTelemetry};
pub use metrics::{RunTotals, SamplePoint, TimeSeries};
pub use replay::Replayer;
pub use run::{RunConfig, RunOutcome, Simulation, SimulationBuilder};
pub use shadow::{
    agreement_table, regret_table, run_race, run_race_with_telemetry, RaceOutcome, RaceRecord,
    ShadowPick,
};
pub use shard::Shard;
pub use summary::Summary;
// The telemetry vocabulary rides along so simulator users don't need a
// direct `pgc_telemetry` dependency for the common cases.
pub use pgc_telemetry::{TelemetryLevel, TelemetrySnapshot};
