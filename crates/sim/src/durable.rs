//! Recovery-by-replay and the run-manifest codec.
//!
//! A durable run's data directory is self-describing: `MANIFEST.pgc`
//! records the full [`RunConfig`] (floats by bit pattern) plus the
//! telemetry level, the `log-*.pgcl` segments hold every input event
//! write-ahead, and `snap-*.pgcs` files hold per-partition state at
//! collection safepoints. [`recover`] rebuilds the run from the directory
//! alone:
//!
//! 1. read and checksum-verify the manifest, rebuild the exact
//!    [`RunConfig`] (durability forced off — recovery does not re-persist);
//! 2. stream the change log through a [`LogReader`]: each CRC-checked
//!    events frame decodes straight into one reused `EventBlock`, and a
//!    torn tail (a truncated or corrupted final frame) ends the stream at
//!    the checksum boundary;
//! 3. step every block through the ordinary [`crate::Shard`] pump
//!    ([`crate::Shard::step_block`], the path every run uses), cutting
//!    blocks at each snapshot's `events_applied` so the **newest valid**
//!    snapshot of every partition is cross-checked against the replayed
//!    database exactly when the replay reaches it (corrupt snapshot files
//!    are skipped in favor of an older valid generation; snapshots past a
//!    torn tail are never reached);
//! 4. finish the shard into a [`RunOutcome`].
//!
//! Because the simulator is deterministic and the log records inputs
//! ahead of application, the recovered outcome is *bit-identical* to an
//! uninterrupted run over the same event prefix: totals, victim sequence,
//! and telemetry (`tests/recovery.rs` pins this across policies and
//! seeds). Snapshots are not merely trusted — they are verified against
//! the replayed state, so a diverging snapshot file is detected rather
//! than silently believed.

use crate::run::{RunConfig, RunOutcome};
use crate::shard::Shard;
use pgc_core::{PolicyKind, Trigger};
use pgc_durable::{read_snapshot, scan_snapshots, LogReader, Manifest, TornTail};
use pgc_telemetry::TelemetryLevel;
use pgc_types::{fast_hash_u64, Bytes, Parallelism, PgcError, PlacementPolicy, Result};
use pgc_workload::generator::GenStats;
use pgc_workload::{EventBlock, BLOCK_EVENTS};
use std::collections::BTreeMap;
use std::path::Path;

/// Builds the manifest describing `cfg` + `telemetry` (everything
/// [`recover`] needs to rebuild the run).
pub fn manifest_for(cfg: &RunConfig, telemetry: TelemetryLevel) -> Manifest {
    let mut m = Manifest::new();
    m.set("policy", cfg.policy.name());
    m.set("db.page_size", cfg.db.page_size);
    m.set("db.partition_pages", cfg.db.partition_pages);
    m.set("db.buffer_pages", cfg.db.buffer_pages);
    m.set("db.gc_overwrite_threshold", cfg.db.gc_overwrite_threshold);
    m.set("db.max_weight", cfg.db.max_weight);
    m.set(
        "db.placement",
        match cfg.db.placement {
            PlacementPolicy::NearParent => "near-parent",
            PlacementPolicy::FirstFit => "first-fit",
            PlacementPolicy::Spread => "spread",
        },
    );
    match cfg.db.client_cache_pages {
        Some(pages) => m.set("db.client_cache_pages", pages),
        None => m.set("db.client_cache_pages", "none"),
    }
    let wl = &cfg.workload;
    m.set("wl.seed", wl.seed);
    m.set("wl.target_allocated", wl.target_allocated.get());
    m.set("wl.tree_nodes_min", wl.tree_nodes_min);
    m.set("wl.tree_nodes_max", wl.tree_nodes_max);
    m.set("wl.object_size_min", wl.object_size_min);
    m.set("wl.object_size_max", wl.object_size_max);
    m.set("wl.large_object_size", wl.large_object_size);
    m.set_f64(
        "wl.large_object_byte_fraction",
        wl.large_object_byte_fraction,
    );
    m.set_f64("wl.dense_edge_fraction", wl.dense_edge_fraction);
    m.set_f64("wl.p_no_traversal", wl.p_no_traversal);
    m.set_f64("wl.p_depth_first", wl.p_depth_first);
    m.set_f64("wl.p_skip_edge", wl.p_skip_edge);
    m.set_f64("wl.p_modify_on_visit", wl.p_modify_on_visit);
    m.set("wl.traversals_per_round", wl.traversals_per_round);
    m.set("wl.deletions_per_round", wl.deletions_per_round);
    match cfg.sample_every {
        Some(every) => m.set("sample_every", every),
        None => m.set("sample_every", "none"),
    }
    match cfg.trigger {
        None => m.set("trigger", "default"),
        Some(Trigger::OverwriteCount(n)) => m.set("trigger", format!("overwrites:{n}")),
        Some(Trigger::AllocationBytes(b)) => m.set("trigger", format!("alloc-bytes:{}", b.get())),
        Some(Trigger::PartitionGrowth) => m.set("trigger", "partition-growth"),
    }
    m.set("collect_batch", cfg.collect_batch);
    m.set(
        "parallelism",
        match cfg.parallelism {
            Parallelism::Serial => 1,
            Parallelism::Deterministic(n) => n.max(1) as usize,
        },
    );
    m.set(
        "telemetry",
        match telemetry {
            TelemetryLevel::Off => "off",
            TelemetryLevel::Metrics => "metrics",
            TelemetryLevel::Full => "full",
        },
    );
    m
}

fn bad(msg: String) -> PgcError {
    PgcError::TraceFormat(msg)
}

/// Rebuilds the [`RunConfig`] + telemetry level a manifest describes.
/// Durability comes back `Off`: recovery replays, it does not re-persist.
pub fn config_from_manifest(m: &Manifest) -> Result<(RunConfig, TelemetryLevel)> {
    let policy: PolicyKind = m
        .require("policy")?
        .parse()
        .map_err(|e: String| bad(format!("manifest: {e}")))?;
    let mut cfg = RunConfig::paper(policy, m.require_u64("wl.seed")?);
    cfg.db.page_size = m.require_u64("db.page_size")? as usize;
    cfg.db.partition_pages = m.require_u64("db.partition_pages")?;
    cfg.db.buffer_pages = m.require_u64("db.buffer_pages")?;
    cfg.db.gc_overwrite_threshold = m.require_u64("db.gc_overwrite_threshold")?;
    cfg.db.max_weight = m.require_u64("db.max_weight")? as u8;
    cfg.db.placement = match m.require("db.placement")? {
        "near-parent" => PlacementPolicy::NearParent,
        "first-fit" => PlacementPolicy::FirstFit,
        "spread" => PlacementPolicy::Spread,
        other => return Err(bad(format!("manifest: unknown placement `{other}`"))),
    };
    cfg.db.client_cache_pages = match m.require("db.client_cache_pages")? {
        "none" => None,
        _ => Some(m.require_u64("db.client_cache_pages")?),
    };
    let wl = &mut cfg.workload;
    wl.target_allocated = Bytes(m.require_u64("wl.target_allocated")?);
    wl.tree_nodes_min = m.require_u64("wl.tree_nodes_min")?;
    wl.tree_nodes_max = m.require_u64("wl.tree_nodes_max")?;
    wl.object_size_min = m.require_u64("wl.object_size_min")?;
    wl.object_size_max = m.require_u64("wl.object_size_max")?;
    wl.large_object_size = m.require_u64("wl.large_object_size")?;
    wl.large_object_byte_fraction = m.require_f64("wl.large_object_byte_fraction")?;
    wl.dense_edge_fraction = m.require_f64("wl.dense_edge_fraction")?;
    wl.p_no_traversal = m.require_f64("wl.p_no_traversal")?;
    wl.p_depth_first = m.require_f64("wl.p_depth_first")?;
    wl.p_skip_edge = m.require_f64("wl.p_skip_edge")?;
    wl.p_modify_on_visit = m.require_f64("wl.p_modify_on_visit")?;
    wl.traversals_per_round = m.require_u64("wl.traversals_per_round")? as u32;
    wl.deletions_per_round = m.require_u64("wl.deletions_per_round")? as u32;
    cfg.sample_every = match m.require("sample_every")? {
        "none" => None,
        _ => Some(m.require_u64("sample_every")?),
    };
    cfg.trigger = match m.require("trigger")? {
        "default" => None,
        "partition-growth" => Some(Trigger::PartitionGrowth),
        spec => {
            let (kind, value) = spec
                .split_once(':')
                .ok_or_else(|| bad(format!("manifest: unknown trigger `{spec}`")))?;
            let value: u64 = value
                .parse()
                .map_err(|_| bad(format!("manifest: bad trigger value `{spec}`")))?;
            match kind {
                "overwrites" => Some(Trigger::OverwriteCount(value)),
                "alloc-bytes" => Some(Trigger::AllocationBytes(Bytes(value))),
                other => return Err(bad(format!("manifest: unknown trigger `{other}`"))),
            }
        }
    };
    cfg.collect_batch = m.require_u64("collect_batch")? as u32;
    cfg.parallelism = match m.require_u64("parallelism")? {
        0 | 1 => Parallelism::Serial,
        n => Parallelism::deterministic(n as u32),
    };
    let telemetry = match m.require("telemetry")? {
        "off" => TelemetryLevel::Off,
        "metrics" => TelemetryLevel::Metrics,
        "full" => TelemetryLevel::Full,
        other => return Err(bad(format!("manifest: unknown telemetry level `{other}`"))),
    };
    Ok((cfg, telemetry))
}

/// What [`recover`] brings back from a data directory.
#[derive(Debug)]
pub struct RecoveredRun {
    /// The replayed run, bit-identical to an uninterrupted run over the
    /// log's surviving event prefix.
    pub outcome: RunOutcome,
    /// The configuration rebuilt from the manifest.
    pub cfg: RunConfig,
    /// The telemetry level the original run recorded at (and the replay
    /// re-recorded at).
    pub telemetry_level: TelemetryLevel,
    /// Events replayed from the log.
    pub events_replayed: u64,
    /// The torn tail that was detected and dropped, if any.
    pub torn_tail: Option<TornTail>,
    /// Safepoint markers found in the log.
    pub safepoints: usize,
    /// Partition snapshots verified against the replayed state.
    pub snapshots_verified: usize,
    /// Snapshot files skipped as corrupt (an older valid generation, when
    /// present, stood in).
    pub snapshot_files_skipped: usize,
}

/// Recovers a durable run from its data directory: manifest → config,
/// newest valid snapshot per partition → verification checkpoints, change
/// log → replay through the ordinary shard pump. See the module docs for
/// the full protocol.
pub fn recover(dir: &Path) -> Result<RecoveredRun> {
    let manifest = Manifest::read_from(dir)?;
    let (cfg, telemetry_level) = config_from_manifest(&manifest)?;
    let mut log = LogReader::open(dir)?;

    // Newest valid snapshot per partition: scan ascending by generation,
    // keep the last file that parses + checksums cleanly.
    let mut newest: BTreeMap<u32, pgc_durable::PartitionSnapshot> = BTreeMap::new();
    let mut snapshot_files_skipped = 0usize;
    for file in scan_snapshots(dir)? {
        match read_snapshot(&file.path) {
            Ok(snap) => {
                newest.insert(file.partition, snap);
            }
            Err(_) => snapshot_files_skipped += 1,
        }
    }
    // Group into checkpoints by the event position they were taken at.
    let mut checkpoints: BTreeMap<u64, Vec<pgc_durable::PartitionSnapshot>> = BTreeMap::new();
    for (_, snap) in newest {
        checkpoints
            .entry(snap.events_applied)
            .or_default()
            .push(snap);
    }
    let mut checkpoints = checkpoints.into_iter().peekable();

    let mut shard = Shard::new(&cfg)?;
    shard.enable_telemetry(telemetry_level);
    let mut block = EventBlock::with_capacity(BLOCK_EVENTS);
    let mut snapshots_verified = 0usize;
    loop {
        let applied = shard.events_applied();
        if let Some((_, snaps)) = checkpoints.next_if(|&(at, _)| at == applied) {
            for snap in snaps {
                snap.verify_against(shard.db()).map_err(|mismatch| {
                    bad(format!(
                        "recovery: snapshot generation {} diverges from replay: {mismatch}",
                        snap.generation
                    ))
                })?;
                snapshots_verified += 1;
            }
        }
        // Cut the block at the next checkpoint; one past a torn tail is
        // never reached.
        let limit = checkpoints.peek().map_or(BLOCK_EVENTS, |&(at, _)| {
            (at - applied).min(BLOCK_EVENTS as u64) as usize
        });
        if log.next_block(&mut block, limit)? == 0 {
            break;
        }
        shard.step_block(&block)?;
    }
    let events_replayed = shard.events_applied();
    let outcome = shard.finish(GenStats::default())?;
    Ok(RecoveredRun {
        outcome,
        cfg,
        telemetry_level,
        events_replayed,
        torn_tail: log.torn_tail().cloned(),
        safepoints: log.safepoints().len(),
        snapshots_verified,
        snapshot_files_skipped,
    })
}

/// A stable digest of a run's observable results — totals, victim
/// sequence, and telemetry counters — for crash-recovery smoke checks
/// (`recover_tool --expect`).
pub fn outcome_digest(out: &RunOutcome) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        h ^= fast_hash_u64(v.wrapping_add(0x9E37_79B9_7F4A_7C15));
        h = h.rotate_left(17).wrapping_mul(0x100_0000_01B3);
    };
    let t = &out.totals;
    for v in [
        t.app_ios,
        t.gc_ios,
        t.max_footprint.get(),
        t.partitions as u64,
        t.collections,
        t.reclaimed_bytes.get(),
        t.reclaimed_objects,
        t.final_live_bytes.get(),
        t.final_garbage_bytes.get(),
        t.final_nepotism_bytes.get(),
        t.events,
        t.app_net_ops,
        t.gc_net_ops,
    ] {
        mix(v);
    }
    for c in &out.collections {
        mix(c.victim.index() as u64);
        mix(c.target.index() as u64);
        mix(c.live_bytes.get());
        mix(c.garbage_bytes.get());
    }
    if let Some(snap) = &out.telemetry {
        mix(snap.counters.events);
        mix(snap.counters.overwrites);
        mix(snap.counters.collections);
        mix(snap.counters.reclaimed_bytes);
        mix(snap.records.len() as u64);
    }
    h
}
