//! A self-contained simulation shard: one database plus everything that
//! drives it.
//!
//! [`Shard`] bundles what [`crate::run::Simulation`] used to wire inline —
//! a [`pgc_odb::Database`], the driving policy and trigger scheduler
//! inside a [`pgc_core::Collector`], the barrier event bus with its
//! bystander observers, an optional telemetry tap, and time-series
//! sampling state — behind a stepping API: feed it events one at a time
//! ([`Shard::step`]), as recorded batches ([`Shard::step_batch`]), or as
//! decoded SoA blocks ([`Shard::step_block`]), then [`Shard::finish`] it
//! into a [`RunOutcome`].
//!
//! `Simulation::builder(cfg).run()` is now exactly a 1-shard special case:
//! it builds one `Shard`, streams the configured event source into it, and
//! finishes it. A sharded runtime (the `pgc-server` crate) instead hosts
//! one `Shard` per client session across N worker threads — each shard
//! owns its partitions, policy, scheduler, and telemetry, so sessions
//! never share mutable state and per-stream results are bit-identical to
//! a dedicated single-`Simulation` run at any shard count. Server workers
//! lean on [`Shard::step_block`]'s invisibility guarantee: batches
//! arriving over the ring inboxes are coalesced into full SoA blocks
//! (decoded straight from shared encoded traces) without changing any
//! result, because block boundaries — including sample boundaries split
//! mid-block — replay exactly like per-event stepping.

use crate::metrics::{RunTotals, SamplePoint, TimeSeries};
use crate::replay::Replayer;
use crate::run::{RunConfig, RunOutcome};
use pgc_durable::{DurableStore, LogObserver, SafepointSignal};
use pgc_odb::oracle::{self, OracleScratch};
use pgc_odb::BarrierObserver;
use pgc_telemetry::{StorageSummary, TelemetryHandle, TelemetryLevel, TelemetryObserver};
use pgc_types::{Oid, Result};
use pgc_workload::generator::GenStats;
use pgc_workload::{Event, EventBlock, NodeId};
use std::sync::Arc;

/// The persistence half of a shard: the write side of a data directory
/// plus the bus signal that tells the shard when a collection completed
/// (the store itself stays off the bus — it needs `&Database` and file
/// handles, which bystander observers must not hold).
struct DurableState {
    store: DurableStore,
    signal: Arc<SafepointSignal>,
    /// Collections already covered by a safepoint frame.
    safepointed: u64,
    manifest_written: bool,
}

/// One database + policy + scheduler + barrier bus + telemetry handle,
/// stepped by event batches.
pub struct Shard {
    cfg: RunConfig,
    replayer: Replayer,
    telemetry: Option<TelemetryHandle>,
    telemetry_level: TelemetryLevel,
    durable: Option<DurableState>,
    series: TimeSeries,
    scratch: OracleScratch,
    sample_every: u64,
    next_sample: u64,
}

impl Shard {
    /// Builds a shard for `cfg`: fresh database, the configured policy and
    /// trigger wired into a collector, no telemetry. Register bus
    /// observers with [`Shard::add_observer`] and a telemetry tap with
    /// [`Shard::enable_telemetry`] *before* stepping the first event.
    pub fn new(cfg: &RunConfig) -> Result<Self> {
        let mut replayer = cfg.build_replayer()?;
        let sample_every = cfg.sample_every.unwrap_or(u64::MAX);
        let durable = if cfg.durability.is_enabled() {
            let store = DurableStore::create(&cfg.durability)?;
            let (observer, signal) = LogObserver::new();
            replayer.collector_mut().add_observer(Box::new(observer));
            Some(DurableState {
                store,
                signal,
                safepointed: 0,
                manifest_written: false,
            })
        } else {
            None
        };
        Ok(Self {
            cfg: cfg.clone(),
            replayer,
            telemetry: None,
            telemetry_level: TelemetryLevel::Off,
            durable,
            series: TimeSeries::new(),
            scratch: OracleScratch::new(),
            sample_every,
            next_sample: sample_every,
        })
    }

    /// Registers a bystander observer on the shard's barrier bus.
    pub fn add_observer(&mut self, observer: Box<dyn BarrierObserver>) {
        self.replayer.collector_mut().add_observer(observer);
    }

    /// Registers a telemetry tap at `level` (a no-op at
    /// [`TelemetryLevel::Off`] or when a tap is already riding the bus).
    /// The captured snapshot surfaces on [`RunOutcome::telemetry`] after
    /// [`Shard::finish`].
    pub fn enable_telemetry(&mut self, level: TelemetryLevel) {
        if level.is_enabled() && self.telemetry.is_none() {
            let (obs, handle) = TelemetryObserver::new(level, self.cfg.trigger_reason());
            self.replayer.collector_mut().add_observer(Box::new(obs));
            self.telemetry = Some(handle);
            self.telemetry_level = level;
        }
    }

    /// The configuration the shard was built from.
    pub fn config(&self) -> &RunConfig {
        &self.cfg
    }

    /// The shard's database.
    pub fn db(&self) -> &pgc_odb::Database {
        self.replayer.db()
    }

    /// The shard's collector (policy + scheduler + bus).
    pub fn collector(&self) -> &pgc_core::Collector {
        self.replayer.collector()
    }

    /// Events stepped so far.
    pub fn events_applied(&self) -> u64 {
        self.replayer.events_applied()
    }

    /// Resolves a workload node id to the shard-local database oid (the
    /// hook a sharded runtime uses to key cross-shard references).
    pub fn oid_of(&self, node: NodeId) -> Option<Oid> {
        self.replayer.oid_of(node)
    }

    /// Steps one event: write-ahead logs it (when durability is on),
    /// charges its I/O, pumps the barrier bus, collects when the trigger
    /// fires, takes a time-series sample at each configured boundary, and
    /// drives a durability safepoint when a collection completed.
    pub fn step(&mut self, event: &Event) -> Result<()> {
        self.log_event(event)?;
        self.replayer.apply(event)?;
        self.maybe_sample();
        self.maybe_safepoint()
    }

    /// Steps a batch of events (a session inbox message, a recorded
    /// slice). Semantics are exactly [`Shard::step`] in order.
    pub fn step_batch(&mut self, events: &[Event]) -> Result<()> {
        for event in events {
            self.step(event)?;
        }
        Ok(())
    }

    /// Steps one decoded SoA block, stopping at each sample boundary
    /// inside it. Bit-identical to stepping the block's events one by one.
    /// Durability safepoints land at block granularity here (the whole
    /// block is logged ahead, then one safepoint check follows it) — the
    /// log stays a faithful write-ahead record either way.
    pub fn step_block(&mut self, block: &EventBlock) -> Result<()> {
        if self.durable.is_some() {
            for event in block.iter() {
                self.log_event(&event)?;
            }
        }
        if self.sample_every == u64::MAX {
            self.replayer.apply_block(block, 0, block.len())?;
            return self.maybe_safepoint();
        }
        let mut at = 0usize;
        while at < block.len() {
            let room = self
                .next_sample
                .saturating_sub(self.replayer.events_applied())
                .min((block.len() - at) as u64) as usize;
            self.replayer.apply_block(block, at, at + room)?;
            at += room;
            self.maybe_sample();
        }
        self.maybe_safepoint()
    }

    /// Write-ahead: the event reaches the change log before it is applied,
    /// and the manifest reaches disk before the first event (written
    /// lazily so [`Shard::enable_telemetry`] can still run after
    /// [`Shard::new`]).
    fn log_event(&mut self, event: &Event) -> Result<()> {
        let Some(durable) = self.durable.as_mut() else {
            return Ok(());
        };
        if !durable.manifest_written {
            let manifest = crate::durable::manifest_for(&self.cfg, self.telemetry_level);
            durable.store.write_manifest(&manifest)?;
            durable.manifest_written = true;
        }
        durable.store.append_event(event)
    }

    /// Persists a safepoint when the bus signal says collections completed
    /// since the last one.
    fn maybe_safepoint(&mut self) -> Result<()> {
        let Some(durable) = self.durable.as_mut() else {
            return Ok(());
        };
        let completed = durable.signal.collections();
        if completed > durable.safepointed {
            durable.store.safepoint(
                self.replayer.db(),
                self.replayer.events_applied(),
                completed,
                false,
            )?;
            durable.safepointed = completed;
        }
        Ok(())
    }

    fn maybe_sample(&mut self) {
        if self.replayer.events_applied() >= self.next_sample {
            take_sample(&mut self.series, &self.replayer, &mut self.scratch);
            self.next_sample += self.sample_every;
        }
    }

    /// Condenses the shard into a [`RunOutcome`]: one final time-series
    /// sample (when sampling is on), a last oracle pass for the
    /// live/garbage split, the aggregate totals, the collection log, and
    /// the telemetry snapshot with the storage counters mirrored onto it.
    /// When durability is on, the store is closed first — a forced final
    /// snapshot generation, the closing safepoint frame, and a last fsync
    /// — which is the only way this can fail.
    ///
    /// `gen_stats` labels the outcome with the workload generator's
    /// counters (zeroed for replays of unlabelled event slices).
    pub fn finish(mut self, gen_stats: GenStats) -> Result<RunOutcome> {
        if self.cfg.sample_every.is_some() {
            take_sample(&mut self.series, &self.replayer, &mut self.scratch);
        }
        let events = self.replayer.events_applied();
        let mut storage = None;
        if let Some(durable) = self.durable.as_mut() {
            let collections = durable.signal.collections();
            durable
                .store
                .finish(self.replayer.db(), events, collections)?;
            storage = Some(durable.store.stats());
        }
        let db = self.replayer.db();
        let final_report = oracle::analyze_with(db, &mut self.scratch);
        let io = db.io_stats();
        let db_stats = db.stats();
        let totals = RunTotals {
            app_ios: io.app_ios(),
            gc_ios: io.gc_ios(),
            max_footprint: db.total_footprint(),
            partitions: db.partition_count(),
            collections: db_stats.collections,
            reclaimed_bytes: db_stats.reclaimed_bytes,
            reclaimed_objects: db_stats.reclaimed_objects,
            final_live_bytes: final_report.live_bytes,
            final_garbage_bytes: final_report.garbage_bytes,
            final_nepotism_bytes: final_report.nepotism_bytes,
            events,
            app_net_ops: db.net_stats().app_reads + db.net_stats().app_writebacks,
            gc_net_ops: db.net_stats().gc_reads + db.net_stats().gc_writebacks,
        };
        let (_db, collector, collections) = self.replayer.into_parts();
        // The telemetry observer closes its in-flight activation record
        // when the collector drops it; finish the handle only after.
        drop(collector);
        let mut telemetry = self.telemetry.map(TelemetryHandle::finish);
        if let (Some(snap), Some(stats)) = (telemetry.as_mut(), storage) {
            snap.storage = Some(StorageSummary {
                log_bytes: stats.log_bytes,
                log_frames: stats.log_frames,
                log_segments: stats.log_segments,
                fsyncs: stats.fsyncs,
                snapshots: stats.snapshots,
                snapshot_bytes: stats.snapshot_bytes,
                safepoints: stats.safepoints,
            });
        }
        Ok(RunOutcome {
            policy: self.cfg.policy,
            seed: self.cfg.workload.seed,
            totals,
            series: self.series,
            db_stats,
            gen_stats,
            collections,
            telemetry,
            storage,
        })
    }
}

fn take_sample(series: &mut TimeSeries, replayer: &Replayer, scratch: &mut OracleScratch) {
    let db = replayer.db();
    let report = oracle::analyze_with(db, scratch);
    series.push(SamplePoint {
        events: replayer.events_applied(),
        resident_bytes: db.resident_bytes(),
        garbage_bytes: report.garbage_bytes,
        footprint: db.total_footprint(),
        collections: db.stats().collections,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::Simulation;
    use pgc_workload::SyntheticWorkload;

    #[test]
    fn stepping_a_shard_matches_a_simulation_run() {
        let cfg = RunConfig::small().with_seed(31).with_sampling(5_000);
        let via_sim = Simulation::builder(&cfg).run().unwrap();

        let mut generator = SyntheticWorkload::new(cfg.workload.clone()).unwrap();
        let mut shard = Shard::new(&cfg).unwrap();
        for event in generator.by_ref() {
            shard.step(&event).unwrap();
        }
        let via_shard = shard.finish(generator.stats()).unwrap();

        assert_eq!(via_sim.totals, via_shard.totals);
        assert_eq!(via_sim.collections, via_shard.collections);
        assert_eq!(via_sim.db_stats, via_shard.db_stats);
        assert_eq!(via_sim.gen_stats, via_shard.gen_stats);
        assert_eq!(via_sim.series.points(), via_shard.series.points());
    }

    #[test]
    fn batch_boundaries_do_not_perturb_a_shard() {
        let cfg = RunConfig::small().with_seed(32);
        let events: Vec<Event> = SyntheticWorkload::new(cfg.workload.clone())
            .unwrap()
            .collect();

        let mut whole = Shard::new(&cfg).unwrap();
        whole.step_batch(&events).unwrap();
        let whole = whole.finish(GenStats::default()).unwrap();

        let mut chunked = Shard::new(&cfg).unwrap();
        // Ragged batch sizes: the session layer never sees tidy chunks.
        for chunk in events.chunks(97) {
            chunked.step_batch(chunk).unwrap();
        }
        let chunked = chunked.finish(GenStats::default()).unwrap();

        assert_eq!(whole.totals, chunked.totals);
        assert_eq!(whole.collections, chunked.collections);
    }

    #[test]
    fn telemetry_taps_the_shard_bus() {
        let cfg = RunConfig::small().with_seed(33);
        let events: Vec<Event> = SyntheticWorkload::new(cfg.workload.clone())
            .unwrap()
            .collect();
        let mut shard = Shard::new(&cfg).unwrap();
        shard.enable_telemetry(pgc_telemetry::TelemetryLevel::Full);
        shard.step_batch(&events).unwrap();
        let out = shard.finish(GenStats::default()).unwrap();
        let snap = out.telemetry.expect("telemetry requested");
        assert_eq!(snap.counters.activations, out.totals.collections);
        assert_eq!(snap.records.len() as u64, out.totals.collections);
    }
}
