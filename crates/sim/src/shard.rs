//! A self-contained simulation shard: one database plus everything that
//! drives it.
//!
//! [`Shard`] bundles what [`crate::run::Simulation`] used to wire inline —
//! a [`pgc_odb::Database`], the driving policy and trigger scheduler
//! inside a [`pgc_core::Collector`], the barrier event bus with its
//! bystander observers, an optional telemetry tap, and time-series
//! sampling state — behind one stepping entry point: feed it decoded SoA
//! blocks ([`Shard::step_block`]), then [`Shard::finish`] it into a
//! [`RunOutcome`].
//!
//! `Simulation::builder(cfg).run()` is exactly a 1-shard special case: it
//! builds one `Shard`, streams the configured event source into it block
//! by block, and finishes it. A sharded runtime (the `pgc-server` crate)
//! instead hosts one `Shard` per client session across N worker threads —
//! each shard owns its partitions, policy, scheduler, and telemetry, so
//! sessions never share mutable state and per-stream results are
//! bit-identical to a dedicated single-`Simulation` run at any shard
//! count. Server workers lean on the fact that block boundaries are
//! invisible to the outcome: segments arriving over the ring inboxes are
//! decoded into blocks wherever the segments happen to end, without
//! changing any result, because block boundaries — including sample
//! boundaries split mid-block — replay exactly like one event at a time.
//! Block boundaries are visible only to durability, which checks for a
//! safepoint once per block. The synthetic source and a recorded trace
//! cut the same stream at the same [`pgc_workload::BLOCK_EVENTS`]
//! boundaries, so a live run and a replay of its recording write
//! byte-identical data directories.

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
/// stepped by decoded event blocks.
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

    /// Steps one decoded SoA block: write-ahead logs its events (when
    /// durability is on), applies them — charging I/O, pumping the barrier
    /// bus, collecting when the trigger fires — stopping at each sample
    /// boundary inside the block, then drives a durability safepoint when
    /// a collection completed. The outcome does not depend on where the
    /// block boundaries fall; the safepoint cadence does, one check per
    /// block.
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
    use pgc_workload::{EncodedTrace, SyntheticWorkload};

    /// Steps `events` into `shard` in blocks of `size` events.
    fn step_in_blocks(shard: &mut Shard, events: &[Event], size: usize) {
        let mut block = EventBlock::with_capacity(size);
        for chunk in events.chunks(size) {
            block.clear();
            for event in chunk {
                block.push(event);
            }
            shard.step_block(&block).unwrap();
        }
    }

    #[test]
    fn stepping_a_shard_matches_a_simulation_run() {
        let cfg = RunConfig::small().with_seed(31).with_sampling(5_000);
        let via_sim = Simulation::builder(&cfg).run().unwrap();

        let trace = EncodedTrace::record(cfg.workload.clone()).unwrap();
        let mut shard = Shard::new(&cfg).unwrap();
        let mut cursor = trace.cursor();
        let mut block = EventBlock::new();
        while cursor.next_block(&mut block).unwrap() > 0 {
            shard.step_block(&block).unwrap();
        }
        let via_shard = shard.finish(trace.stats()).unwrap();

        assert_eq!(via_sim.totals, via_shard.totals);
        assert_eq!(via_sim.collections, via_shard.collections);
        assert_eq!(via_sim.db_stats, via_shard.db_stats);
        assert_eq!(via_sim.gen_stats, via_shard.gen_stats);
        assert_eq!(via_sim.series.points(), via_shard.series.points());
    }

    #[test]
    fn batch_boundaries_do_not_perturb_a_shard() {
        let cfg = RunConfig::small().with_seed(32).with_sampling(1_000);
        let events: Vec<Event> = SyntheticWorkload::new(cfg.workload.clone())
            .unwrap()
            .collect();

        let mut whole = Shard::new(&cfg).unwrap();
        step_in_blocks(&mut whole, &events, pgc_workload::BLOCK_EVENTS);
        let whole = whole.finish(GenStats::default()).unwrap();

        let mut chunked = Shard::new(&cfg).unwrap();
        // Ragged block sizes: the session layer never sees tidy chunks.
        step_in_blocks(&mut chunked, &events, 97);
        let chunked = chunked.finish(GenStats::default()).unwrap();

        assert_eq!(whole.totals, chunked.totals);
        assert_eq!(whole.collections, chunked.collections);
        assert_eq!(whole.series.points(), chunked.series.points());
    }

    #[test]
    fn telemetry_taps_the_shard_bus() {
        let cfg = RunConfig::small().with_seed(33);
        let events: Vec<Event> = SyntheticWorkload::new(cfg.workload.clone())
            .unwrap()
            .collect();
        let mut shard = Shard::new(&cfg).unwrap();
        shard.enable_telemetry(pgc_telemetry::TelemetryLevel::Full);
        step_in_blocks(&mut shard, &events, pgc_workload::BLOCK_EVENTS);
        let out = shard.finish(GenStats::default()).unwrap();
        let snap = out.telemetry.expect("telemetry requested");
        assert_eq!(snap.counters.activations, out.totals.collections);
        assert_eq!(snap.records.len() as u64, out.totals.collections);
    }
}
