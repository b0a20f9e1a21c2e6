//! One complete simulation run.
//!
//! [`Simulation::builder`] is the single entry point: it wires a
//! [`RunConfig`] to an event source — the synthetic workload by default,
//! or a shared [`EncodedTrace`] via [`SimulationBuilder::trace`] — and
//! drives one [`Shard`] (database + collector + barrier bus + telemetry +
//! sampling) through it, one [`EventBlock`] at a time. A caller holding a
//! `Vec<Event>` encodes it once with [`EncodedTrace::from_events`] and
//! replays that. A `Simulation` run is exactly the 1-shard special case of
//! the sharded runtime: the multi-tenant server hosts one [`Shard`] per
//! client stream and steps each through the same API, which is why
//! per-stream server results are bit-identical to dedicated runs.
//!
//! With [`RunConfig::with_durability`] (or [`SimulationBuilder::durability`])
//! the shard persists as it runs — write-ahead change log plus optional
//! per-partition snapshots — and [`crate::durable::recover`] rebuilds a
//! bit-identical outcome from the data directory alone.

use crate::metrics::{RunTotals, TimeSeries};
use crate::replay::Replayer;
use crate::shard::Shard;
use pgc_core::{build_policy_with, Collector, PolicyKind, Trigger};
use pgc_durable::{DurabilityConfig, StorageStats};
use pgc_odb::{BarrierObserver, CollectionOutcome, Database, DbStats};
use pgc_telemetry::{TelemetryLevel, TelemetrySnapshot, TriggerReason};
use pgc_types::{Bytes, DbConfig, Parallelism, PlacementPolicy, Result};
use pgc_workload::generator::GenStats;
use pgc_workload::{EncodedTrace, EventBlock, SyntheticWorkload, WorkloadParams, BLOCK_EVENTS};

/// Everything needed to run one simulation.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The partition selection policy under test.
    pub policy: PolicyKind,
    /// Database geometry and trigger configuration.
    pub db: DbConfig,
    /// Workload parameters (the seed lives here).
    pub workload: WorkloadParams,
    /// Take a time-series sample every this many events (`None` = no
    /// series; sampling runs the oracle, so it has a simulation-time cost).
    pub sample_every: Option<u64>,
    /// Override the GC trigger (`None` = the paper's overwrite-count
    /// trigger at `db.gc_overwrite_threshold`).
    pub trigger: Option<Trigger>,
    /// Partitions collected per activation (the paper uses 1).
    pub collect_batch: u32,
    /// Intra-run execution mode: `Serial` (default) or `Deterministic(n)`,
    /// which fans the oracle's reachability pass, collection planning, and
    /// trace decode over `n` threads while staying bit-identical to
    /// `Serial` — same victims, same totals, same telemetry.
    pub parallelism: Parallelism,
    /// Durable storage backend: `Off` (default, the historical in-memory
    /// behavior), `LogOnly`, or `SnapshotAndLog` with a data directory.
    /// Persistence is a pure bystander — it never changes any result.
    pub durability: DurabilityConfig,
}

impl RunConfig {
    /// The paper's headline configuration (Tables 2–4): 48-page (384 KB)
    /// partitions with an equal-size buffer, collection every 200 pointer
    /// overwrites, ~11 MB allocated of which ~5 MB stays live.
    pub fn paper(policy: PolicyKind, seed: u64) -> Self {
        Self {
            policy,
            db: DbConfig::default(),
            workload: WorkloadParams::default().with_seed(seed),
            sample_every: None,
            trigger: None,
            collect_batch: 1,
            parallelism: Parallelism::Serial,
            durability: DurabilityConfig::off(),
        }
    }

    /// A milliseconds-scale configuration for tests, examples, and
    /// doctests: 16 KB partitions of 1 KB pages, trigger every 50
    /// overwrites, ~0.5 MB allocated.
    pub fn small() -> Self {
        Self {
            policy: PolicyKind::UpdatedPointer,
            db: DbConfig::default()
                .with_page_size(1024)
                .with_partition_pages(16)
                .with_gc_overwrite_threshold(50),
            workload: WorkloadParams::small(),
            sample_every: None,
            trigger: None,
            collect_batch: 1,
            parallelism: Parallelism::Serial,
            durability: DurabilityConfig::off(),
        }
    }

    /// Replaces the policy.
    #[must_use]
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Replaces the workload seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.workload.seed = seed;
        self
    }

    /// Enables time-series sampling at the given event interval.
    #[must_use]
    pub fn with_sampling(mut self, every_events: u64) -> Self {
        self.sample_every = Some(every_events.max(1));
        self
    }

    /// Overrides the GC trigger.
    #[must_use]
    pub fn with_trigger(mut self, trigger: Trigger) -> Self {
        self.trigger = Some(trigger);
        self
    }

    /// Sets the partitions collected per activation.
    #[must_use]
    pub fn with_collect_batch(mut self, batch: u32) -> Self {
        self.collect_batch = batch.max(1);
        self
    }

    /// Sets the intra-run execution mode.
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Sets the durable storage backend (mode + data directory). The
    /// persisted run recovers bit-identically via
    /// [`crate::durable::recover`].
    #[must_use]
    pub fn with_durability(mut self, durability: DurabilityConfig) -> Self {
        self.durability = durability;
        self
    }

    /// Replaces the whole database configuration.
    #[must_use]
    pub fn with_db(mut self, db: DbConfig) -> Self {
        self.db = db;
        self
    }

    /// Replaces the whole workload parameter set (the seed lives there).
    #[must_use]
    pub fn with_workload(mut self, workload: WorkloadParams) -> Self {
        self.workload = workload;
        self
    }

    /// Sets the page size in bytes.
    #[must_use]
    pub fn with_page_size(mut self, page_size: usize) -> Self {
        self.db = self.db.with_page_size(page_size);
        self
    }

    /// Sets pages per partition (also sizes the buffer pool to one
    /// partition, the paper's 1:1 ratio — override with
    /// [`RunConfig::with_buffer_pages`] afterwards).
    #[must_use]
    pub fn with_partition_pages(mut self, pages: u64) -> Self {
        self.db = self.db.with_partition_pages(pages);
        self
    }

    /// Sets the buffer-pool size in pages.
    #[must_use]
    pub fn with_buffer_pages(mut self, pages: u64) -> Self {
        self.db = self.db.with_buffer_pages(pages);
        self
    }

    /// Sets the overwrite count that arms the paper's default GC trigger.
    #[must_use]
    pub fn with_gc_overwrite_threshold(mut self, overwrites: u64) -> Self {
        self.db = self.db.with_gc_overwrite_threshold(overwrites);
        self
    }

    /// Sets the maximum root-distance weight (parameterizes
    /// `WeightedPointer`).
    #[must_use]
    pub fn with_max_weight(mut self, max_weight: u8) -> Self {
        self.db = self.db.with_max_weight(max_weight);
        self
    }

    /// Sets the object placement policy.
    #[must_use]
    pub fn with_placement(mut self, placement: PlacementPolicy) -> Self {
        self.db = self.db.with_placement(placement);
        self
    }

    /// Sets the client cache size in pages.
    #[must_use]
    pub fn with_client_cache_pages(mut self, pages: u64) -> Self {
        self.db = self.db.with_client_cache_pages(pages);
        self
    }

    /// Sets how much the workload allocates in total (the heap-growth
    /// knob behind the paper's Figure 6 size scaling).
    #[must_use]
    pub fn with_heap_growth(mut self, target_allocated: Bytes) -> Self {
        self.workload = self.workload.with_target_allocated(target_allocated);
        self
    }

    /// Sets the fraction of extra dense (non-tree) edges (the Table 5
    /// connectivity knob).
    #[must_use]
    pub fn with_dense_edge_fraction(mut self, fraction: f64) -> Self {
        self.workload = self.workload.with_dense_edge_fraction(fraction);
        self
    }

    /// Sets subtree deletions per workload round.
    #[must_use]
    pub fn with_deletions_per_round(mut self, n: u32) -> Self {
        self.workload = self.workload.with_deletions_per_round(n);
        self
    }

    /// Sets traversals per workload round.
    #[must_use]
    pub fn with_traversals_per_round(mut self, n: u32) -> Self {
        self.workload = self.workload.with_traversals_per_round(n);
        self
    }

    /// The seed every policy instance for this run derives from. The
    /// Random policy's stream is decorrelated from the workload's by
    /// hashing, but still derived from the run seed for reproducibility.
    /// Shadow scoreboards use the same derivation so a shadow `Random`
    /// replays the exact choices its independent run would make.
    pub fn policy_seed(&self) -> u64 {
        self.workload.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xA5A5
    }

    /// The effective trigger (explicit override or the paper's
    /// overwrite-count default).
    pub fn effective_trigger(&self) -> Trigger {
        self.trigger
            .unwrap_or(Trigger::OverwriteCount(self.db.gc_overwrite_threshold))
    }

    /// The telemetry-side description of [`RunConfig::effective_trigger`].
    pub fn trigger_reason(&self) -> TriggerReason {
        match self.effective_trigger() {
            Trigger::OverwriteCount(n) => TriggerReason::OverwriteCount(n),
            Trigger::AllocationBytes(b) => TriggerReason::AllocationBytes(b.get()),
            Trigger::PartitionGrowth => TriggerReason::PartitionGrowth,
        }
    }

    pub(crate) fn build_replayer(&self) -> Result<Replayer> {
        let db = Database::new(self.db.clone())?;
        let collector = Collector::with_trigger(
            build_policy_with(
                self.policy,
                self.policy_seed(),
                self.db.max_weight,
                self.parallelism,
            ),
            self.effective_trigger(),
        )
        .with_batch(self.collect_batch)
        .with_parallelism(self.parallelism);
        Ok(Replayer::new(db, collector))
    }
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Policy that ran.
    pub policy: PolicyKind,
    /// Workload seed.
    pub seed: u64,
    /// Aggregate metrics (the table numbers).
    pub totals: RunTotals,
    /// Sampled curves (empty unless sampling was enabled).
    pub series: TimeSeries,
    /// Semantic database counters.
    pub db_stats: DbStats,
    /// Workload generator counters (zeroed for trace replays).
    pub gen_stats: GenStats,
    /// Every collection the run performed, in order. Comparable across
    /// runs: two runs agree on a prefix exactly when their policies picked
    /// the same victims at the same trigger points.
    pub collections: Vec<CollectionOutcome>,
    /// Telemetry captured by the run (`None` unless the run was built
    /// with [`SimulationBuilder::telemetry`] above `Off`).
    pub telemetry: Option<TelemetrySnapshot>,
    /// Durable-storage counters (`None` unless the run persisted). Also
    /// mirrored onto [`TelemetrySnapshot::storage`] when telemetry is on.
    pub storage: Option<StorageStats>,
}

/// Entry points for running simulations.
pub struct Simulation;

impl Simulation {
    /// Starts building a run of `cfg`. The default source is the synthetic
    /// workload described by `cfg.workload`.
    ///
    /// ```
    /// use pgc_sim::{RunConfig, Simulation};
    ///
    /// let cfg = RunConfig::small().with_seed(7);
    /// let out = Simulation::builder(&cfg).run().unwrap();
    /// assert!(out.totals.collections > 0);
    /// ```
    pub fn builder(cfg: &RunConfig) -> SimulationBuilder<'_> {
        SimulationBuilder {
            cfg,
            source: Source::Synthetic,
            observers: Vec::new(),
            telemetry: TelemetryLevel::Off,
            durability: None,
        }
    }
}

enum Source<'a> {
    Synthetic,
    Encoded(&'a EncodedTrace),
}

/// A configured-but-not-yet-run simulation: pick an event source, attach
/// bus observers, telemetry, and durability, then [`SimulationBuilder::run`].
pub struct SimulationBuilder<'a> {
    cfg: &'a RunConfig,
    source: Source<'a>,
    observers: Vec<Box<dyn BarrierObserver>>,
    telemetry: TelemetryLevel,
    durability: Option<DurabilityConfig>,
}

impl<'a> SimulationBuilder<'a> {
    /// Replays the shared encoded trace instead of generating the
    /// workload. Events decode on the fly from the trace's contiguous
    /// buffer (no intermediate `Vec<Event>`), and the recorded generator
    /// counters stand in for a live generator's, so the outcome — totals,
    /// victim sequence, statistics — is bit-identical to the synthetic
    /// source on the parameters the trace was recorded from (pinned by
    /// `tests/encoded_equivalence.rs`).
    #[must_use]
    pub fn trace(mut self, trace: &'a EncodedTrace) -> Self {
        self.source = Source::Encoded(trace);
        self
    }

    /// Registers a bystander observer on the collector's barrier bus. It
    /// sees every event the driving policy sees plus the per-activation
    /// `on_trigger` callback, and cannot perturb the run.
    #[must_use]
    pub fn observer(mut self, observer: Box<dyn BarrierObserver>) -> Self {
        self.observers.push(observer);
        self
    }

    /// Sets the telemetry level. Anything above
    /// [`TelemetryLevel::Off`] registers a recording tap on the bus and
    /// returns the captured [`TelemetrySnapshot`] on
    /// [`RunOutcome::telemetry`]; `Off` (the default) registers nothing —
    /// the disabled path is the exact code path of an untapped run.
    #[must_use]
    pub fn telemetry(mut self, level: TelemetryLevel) -> Self {
        self.telemetry = level;
        self
    }

    /// Overrides the configuration's durable storage backend for this run
    /// (mode + data directory). Persistence is a bystander: the outcome is
    /// bit-identical to an in-memory run, and recoverable from the data
    /// directory via [`crate::durable::recover`].
    #[must_use]
    pub fn durability(mut self, durability: DurabilityConfig) -> Self {
        self.durability = Some(durability);
        self
    }

    /// Runs the simulation to completion: builds one [`Shard`], streams
    /// the configured source into it, and finishes it.
    pub fn run(self) -> Result<RunOutcome> {
        let cfg_override;
        let cfg = match self.durability {
            Some(durability) => {
                cfg_override = self.cfg.clone().with_durability(durability);
                &cfg_override
            }
            None => self.cfg,
        };
        let mut shard = Shard::new(cfg)?;
        // User observers register before the telemetry tap, so the bus
        // order (and thus every observer's view) matches the pre-shard
        // builder exactly.
        for obs in self.observers {
            shard.add_observer(obs);
        }
        shard.enable_telemetry(self.telemetry);
        let gen_stats = match self.source {
            Source::Synthetic => {
                // Packed into the same full blocks `TraceCursor::next_block`
                // cuts, so a live run and a replay of its recording step
                // (and persist) identically.
                let mut generator = SyntheticWorkload::new(cfg.workload.clone())?;
                let mut block = EventBlock::with_capacity(BLOCK_EVENTS);
                for event in generator.by_ref() {
                    block.push(&event);
                    if block.is_full() {
                        shard.step_block(&block)?;
                        block.clear();
                    }
                }
                if !block.is_empty() {
                    shard.step_block(&block)?;
                }
                generator.stats()
            }
            Source::Encoded(trace) => {
                pipeline_blocks(trace, cfg.parallelism, |block| shard.step_block(block))?;
                trace.stats()
            }
        };
        shard.finish(gen_stats)
    }
}

/// Streams an encoded trace's decoded blocks into `apply`, in stream
/// order, with batched block decode.
///
/// Under [`Parallelism::Serial`] (or one worker) decode and apply
/// alternate on the calling thread; under [`Parallelism::Deterministic`] a
/// scoped decode-ahead thread fills a small ring of recycled
/// [`EventBlock`]s while the calling thread applies them, hiding decode
/// latency behind apply work. Blocks arrive in stream order either way and
/// `apply` always runs on the calling thread — the two modes are
/// bit-identical.
///
/// The synthetic source is *not* pipelined: the generator mutates its
/// mirror as it emits, so its event stream cannot be produced ahead of the
/// apply loop without recording it first (which is exactly what
/// [`EncodedTrace::record`] is for).
fn pipeline_blocks(
    trace: &EncodedTrace,
    parallelism: Parallelism,
    mut apply: impl FnMut(&EventBlock) -> Result<()>,
) -> Result<()> {
    if !parallelism.is_parallel() {
        let mut cursor = trace.cursor();
        let mut block = EventBlock::with_capacity(BLOCK_EVENTS);
        while cursor.next_block(&mut block)? > 0 {
            apply(&block)?;
        }
        return Ok(());
    }
    // Decode-ahead pipeline: `ring` blocks in flight plus one in each hand.
    const PIPELINE_DEPTH: usize = 4;
    use std::sync::mpsc;
    std::thread::scope(|scope| -> Result<()> {
        let (full_tx, full_rx) = mpsc::sync_channel::<EventBlock>(PIPELINE_DEPTH);
        let (free_tx, free_rx) = mpsc::channel::<EventBlock>();
        for _ in 0..PIPELINE_DEPTH + 2 {
            free_tx
                .send(EventBlock::with_capacity(BLOCK_EVENTS))
                .expect("receiver alive");
        }
        let decoder = scope.spawn(move || -> Result<()> {
            let mut cursor = trace.cursor();
            // Both exits on channel closure mean the applier bailed (on an
            // apply error); just stop — the applier owns the error.
            while let Ok(mut block) = free_rx.recv() {
                if cursor.next_block(&mut block)? == 0 {
                    break;
                }
                if full_tx.send(block).is_err() {
                    break;
                }
            }
            Ok(())
        });
        let mut applied = Ok(());
        for block in full_rx.iter() {
            if let Err(e) = apply(&block) {
                applied = Err(e);
                break;
            }
            let _ = free_tx.send(block);
        }
        drop(free_tx);
        let decoded = decoder.join().expect("decode thread panicked");
        applied.and(decoded)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgc_types::Bytes;

    fn run(cfg: &RunConfig) -> RunOutcome {
        Simulation::builder(cfg).run().unwrap()
    }

    #[test]
    fn small_run_produces_sane_totals() {
        let cfg = RunConfig::small().with_seed(1);
        let out = run(&cfg);
        assert!(out.totals.events > 5_000);
        assert!(out.totals.app_ios > 0);
        assert!(out.totals.collections > 0);
        assert!(out.totals.reclaimed_bytes > Bytes::ZERO);
        assert!(out.totals.final_live_bytes > Bytes::ZERO);
        assert!(out.totals.max_footprint >= out.totals.final_live_bytes);
        assert_eq!(out.seed, 1);
        assert_eq!(out.policy, PolicyKind::UpdatedPointer);
        assert!(out.telemetry.is_none(), "telemetry defaults to off");
    }

    #[test]
    fn no_collection_never_collects_and_uses_most_space() {
        let nc = run(&RunConfig::small().with_policy(PolicyKind::NoCollection));
        let up = run(&RunConfig::small().with_policy(PolicyKind::UpdatedPointer));
        assert_eq!(nc.totals.collections, 0);
        assert_eq!(nc.totals.gc_ios, 0);
        assert_eq!(nc.totals.reclaimed_bytes, Bytes::ZERO);
        assert!(
            nc.totals.max_footprint >= up.totals.max_footprint,
            "collection must not increase the footprint: {} vs {}",
            nc.totals.max_footprint,
            up.totals.max_footprint
        );
    }

    #[test]
    fn sampling_produces_a_chronological_series() {
        let cfg = RunConfig::small().with_seed(2).with_sampling(5_000);
        let out = run(&cfg);
        assert!(out.series.points().len() >= 2);
        let mut prev = 0;
        for p in out.series.points() {
            assert!(p.events >= prev);
            prev = p.events;
            assert!(p.footprint >= p.resident_bytes);
        }
    }

    #[test]
    fn collection_log_matches_totals() {
        let out = run(&RunConfig::small().with_seed(7));
        assert_eq!(out.collections.len() as u64, out.totals.collections);
    }

    #[test]
    fn identical_configs_are_deterministic() {
        let cfg = RunConfig::small().with_seed(3);
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.totals, b.totals);
    }

    #[test]
    fn different_seeds_differ() {
        let a = run(&RunConfig::small().with_seed(4));
        let b = run(&RunConfig::small().with_seed(5));
        assert_ne!(a.totals, b.totals);
    }

    #[test]
    fn encoded_replay_matches_live_run_including_series() {
        let cfg = RunConfig::small().with_seed(6).with_sampling(5_000);
        let live = run(&cfg);
        let trace = EncodedTrace::record(cfg.workload.clone()).unwrap();
        let replayed = Simulation::builder(&cfg).trace(&trace).run().unwrap();
        assert_eq!(live.totals, replayed.totals);
        assert_eq!(live.gen_stats, replayed.gen_stats, "header stats stand in");
        assert_eq!(live.collections, replayed.collections, "victim sequences");
        assert_eq!(live.db_stats, replayed.db_stats);
        assert_eq!(live.series.points(), replayed.series.points());
    }

    #[test]
    fn trace_replay_matches_live_run() {
        let cfg = RunConfig::small().with_seed(6);
        let live = run(&cfg);
        let events: Vec<pgc_workload::Event> = SyntheticWorkload::new(cfg.workload.clone())
            .unwrap()
            .collect();
        let trace = EncodedTrace::from_events(cfg.workload.clone(), &events);
        let replayed = Simulation::builder(&cfg).trace(&trace).run().unwrap();
        assert_eq!(live.totals, replayed.totals);
        assert_eq!(live.collections, replayed.collections);
        assert_eq!(replayed.gen_stats, GenStats::default(), "unlabelled events");
    }

    #[test]
    fn telemetry_snapshot_rides_the_outcome() {
        let cfg = RunConfig::small().with_seed(8);
        let out = Simulation::builder(&cfg)
            .telemetry(TelemetryLevel::Full)
            .run()
            .unwrap();
        let snap = out.telemetry.expect("telemetry requested");
        assert_eq!(snap.counters.activations, out.totals.collections);
        assert_eq!(snap.records.len() as u64, out.totals.collections);
        assert_eq!(
            snap.trigger,
            TriggerReason::OverwriteCount(50),
            "small() triggers every 50 overwrites"
        );
        for (rec, outcome) in snap.records.iter().zip(&out.collections) {
            assert_eq!(rec.victim, Some(outcome.victim), "records mirror victims");
            assert_eq!(rec.gc_reads, outcome.gc_reads);
            assert_eq!(rec.gc_writes, outcome.gc_writes);
            assert!(rec.victim_score.is_some(), "scoreboard policy has a score");
        }
        let total_app: u64 = snap.records.iter().map(|r| r.app_ios_delta).sum();
        assert!(total_app <= out.totals.app_ios);
    }

    #[test]
    fn exhaustive_config_builders_cover_every_knob() {
        let cfg = RunConfig::small()
            .with_page_size(2048)
            .with_partition_pages(8)
            .with_buffer_pages(32)
            .with_gc_overwrite_threshold(75)
            .with_max_weight(8)
            .with_placement(PlacementPolicy::Spread)
            .with_client_cache_pages(4)
            .with_heap_growth(Bytes::from_kib(256))
            .with_dense_edge_fraction(0.01)
            .with_deletions_per_round(3)
            .with_traversals_per_round(2);
        assert_eq!(cfg.db.page_size, 2048);
        assert_eq!(cfg.db.partition_pages, 8);
        assert_eq!(cfg.db.buffer_pages, 32);
        assert_eq!(cfg.db.gc_overwrite_threshold, 75);
        assert_eq!(cfg.db.max_weight, 8);
        assert_eq!(cfg.db.placement, PlacementPolicy::Spread);
        assert_eq!(cfg.db.client_cache_pages, Some(4));
        assert_eq!(cfg.workload.target_allocated, Bytes::from_kib(256));
        assert_eq!(cfg.workload.dense_edge_fraction, 0.01);
        assert_eq!(cfg.workload.deletions_per_round, 3);
        assert_eq!(cfg.workload.traversals_per_round, 2);
        let out = run(&cfg.with_seed(9));
        assert!(out.totals.events > 0, "built config actually runs");
    }
}

#[cfg(test)]
mod trigger_tests {
    use super::*;
    use pgc_core::Trigger;
    use pgc_types::Bytes;

    fn run(cfg: &RunConfig) -> RunOutcome {
        Simulation::builder(cfg).run().unwrap()
    }

    #[test]
    fn batch_collection_reduces_activations_not_work() {
        let single = run(&RunConfig::small().with_seed(21));
        let batched = run(&RunConfig::small().with_seed(21).with_collect_batch(3));
        // Same trigger points, three collections per activation.
        assert!(batched.totals.collections > single.totals.collections);
        assert!(batched.totals.reclaimed_bytes >= single.totals.reclaimed_bytes);
    }

    #[test]
    fn allocation_trigger_collects_even_with_no_overwrite_pressure() {
        let mut cfg = RunConfig::small().with_seed(22);
        cfg.workload.deletions_per_round = 0; // no overwrites at all
        let overwrite_based = run(&cfg.clone());
        assert_eq!(overwrite_based.totals.collections, 0);
        let alloc_based = run(&cfg.with_trigger(Trigger::AllocationBytes(Bytes::from_kib(4))));
        assert!(alloc_based.totals.collections > 0);
    }

    #[test]
    fn growth_trigger_collects_on_space_pressure() {
        let cfg = RunConfig::small()
            .with_seed(23)
            .with_trigger(Trigger::PartitionGrowth);
        let out = run(&cfg);
        assert!(out.totals.collections > 0);
        // Growth-triggered collection bounds the footprint by construction.
        assert!(out.totals.max_footprint >= out.totals.final_live_bytes);
    }
}
