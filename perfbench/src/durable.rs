//! `durable`: writes beside reads. UpdatedPointer replays of paper traces,
//! each persisted to a fresh data directory under
//! `DurabilityConfig::snapshot_and_log` with the default cadences, then
//! recovered with `pgc_sim::recover`.
//!
//! Flush policy, the same on both sides of any comparison: a snapshot
//! generation every 16 collection safepoints, the log flushed to the OS at
//! every safepoint and fsynced only at snapshot generations, segment
//! rotation (4 MiB) and shutdown. This is the only workload that runs the
//! log codec, CRC, snapshot and fsync write path and the recovery read
//! path; it does no oracle marking and uses no rings.

use crate::report::{
    repeat_passes, repeat_setup, CpuClock, Named, Options, PassCost, Report, MIN_PASSES,
};
use crate::trace::{replay_traced, Ledger};
use pgc_core::PolicyKind;
use pgc_durable::{read_log, read_snapshot, scan_snapshots, DurabilityConfig, StorageStats};
use pgc_sim::{outcome_digest, recover, RunConfig, Simulation};
use pgc_types::{PgcError, Result};
use pgc_workload::EncodedTrace;
use std::fs;
use std::path::Path;
use std::time::Instant;

/// Seeds (one persisted run and one recovery each) per pass.
pub const SEEDS: usize = 8;

fn io(e: std::io::Error) -> PgcError {
    PgcError::TraceIo(e.to_string())
}

fn stored_bytes(s: &StorageStats) -> u64 {
    s.log_bytes + s.snapshot_bytes
}

/// Removes a run's data directory, then syncs its parent so that the
/// filesystem commits the removal (and discards the freed blocks) now,
/// outside the timed region, rather than inside the next run's first fsync.
fn remove(root: &Path, dir: &Path) -> Result<()> {
    fs::remove_dir_all(dir).map_err(io)?;
    fs::File::open(root).and_then(|d| d.sync_all()).map_err(io)
}

/// One untraced pass: its cost, and the seconds spent persisting and
/// recovering within it.
struct Pass {
    cost: PassCost,
    write_s: f64,
    recover_s: f64,
}

/// Runs the workload, writing data directories under `opts.data_root`.
pub fn run(opts: &Options) -> Result<Report> {
    let cfgs: Vec<RunConfig> = opts
        .seeds(SEEDS)
        .into_iter()
        .map(|s| RunConfig::paper(PolicyKind::UpdatedPointer, s))
        .collect();
    let mut report = Report {
        threads: 1,
        ..Report::default()
    };

    // Set-up: record the paper traces the runs replay.
    let ((traces, record_ledger), setup_s) = repeat_setup(|| {
        let mut ledger = Ledger::default();
        let traces = cfgs
            .iter()
            .map(|cfg| {
                let trace = ledger.time("workload.record", || {
                    EncodedTrace::record(cfg.workload.clone())
                })?;
                ledger.count("workload.recorded_events", trace.events() as f64);
                ledger.count("workload.recorded_bytes", trace.byte_len() as f64);
                Ok(trace)
            })
            .collect::<Result<Vec<_>>>()?;
        Ok::<_, PgcError>((traces, ledger))
    })?;
    report.setup_s = setup_s;

    let root = &opts.data_root;
    fs::create_dir_all(root).map_err(io)?;
    // The first pass's run digests; every later run of the same seed, and
    // every recovery, must reproduce them.
    let mut expected: Vec<Option<u64>> = vec![None; cfgs.len()];
    let mut stored = 0u64;
    let (untraced_s, traced_s) = opts.budgets();
    let passes = repeat_passes(untraced_s, MIN_PASSES, |pass| {
        let mut p = Pass {
            cost: PassCost {
                wall_s: 0.0,
                cpu_s: 0.0,
                events: 0,
            },
            write_s: 0.0,
            recover_s: 0.0,
        };
        stored = 0;
        for (i, (cfg, trace)) in cfgs.iter().zip(&traces).enumerate() {
            let dir = root.join(format!("pass{pass}-{i}"));
            let cpu = CpuClock::start();
            let t = Instant::now();
            let out = Simulation::builder(cfg)
                .trace(trace)
                .durability(DurabilityConfig::snapshot_and_log(&dir))
                .run()?;
            p.write_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let recovered = recover(&dir)?;
            p.recover_s += t.elapsed().as_secs_f64();
            p.cost.cpu_s += cpu.elapsed();
            remove(root, &dir)?;

            let digest = outcome_digest(&out);
            let want = *expected[i].get_or_insert(digest);
            let seed = cfg.workload.seed;
            report.checks.check(digest == want, || {
                format!("seed {seed} pass {pass}: run digest {digest:016x}, first run {want:016x}")
            });
            let got = outcome_digest(&recovered.outcome);
            report.checks.check(got == digest, || {
                format!("seed {seed} pass {pass}: recovered {got:016x}, run {digest:016x}")
            });
            p.cost.events += out.totals.events;
            stored += out.storage.as_ref().map_or(0, stored_bytes);
        }
        p.cost.wall_s = p.write_s + p.recover_s;
        Ok::<_, PgcError>(p)
    })?;
    let events = passes[0].cost.events as f64;
    report.stored_bytes_per_event = stored as f64 / events;
    let per_second = |secs: fn(&Pass) -> f64| -> Vec<f64> {
        passes
            .iter()
            .map(|p| p.cost.events as f64 / secs(p))
            .collect()
    };
    let write_eps = per_second(|p| p.write_s);
    let recover_eps = per_second(|p| p.recover_s);
    report.set_passes(passes.iter().map(|p| p.cost).collect());
    // Gate the recovery: persisting waits on the device's flushes, whose
    // latency on a shared virtual disk drifts by up to 2x within minutes,
    // far beyond any bound; its CPU cost is gated in `cpu_ns_per_event`.
    report.wall_s = passes.iter().map(|p| p.recover_s).collect();
    report.events_per_s = recover_eps.clone();
    report.named.extend([
        Named::over_passes("durable_events_per_s", "1/s", &write_eps),
        Named::over_passes("recover_events_per_s", "1/s", &recover_eps),
        Named::exact(
            "storage_bytes_per_event",
            "bytes",
            report.stored_bytes_per_event,
            "log plus snapshot bytes per event, exact",
        ),
    ]);

    if opts.traced {
        let mut ledger = Ledger::default();
        let traced_wall = repeat_passes(traced_s, 2, |pass| {
            let mut wall = 0.0;
            for (i, (cfg, trace)) in cfgs.iter().zip(&traces).enumerate() {
                let dir = root.join(format!("traced{pass}-{i}"));
                let t = Instant::now();
                let want = expected[i].expect("every seed ran untraced first");
                traced_seed(cfg, trace, &dir, want, &mut ledger, &mut report)?;
                wall += t.elapsed().as_secs_f64();
                remove(root, &dir)?;
            }
            Ok::<_, PgcError>(wall)
        })?;
        // Coverage counts the traced passes' spans only; the set-up's
        // record spans join afterwards for the record metrics.
        let span_ns = ledger.total_span_ns();
        ledger.merge(record_ledger);
        report.replay_layers(&ledger, traced_wall.len());
        report.durable_layers(&ledger, traced_wall.len());
        report.process_layers(&traced_wall, span_ns, 1);
    }
    Ok(report)
}

/// One traced seed: the benchmark drives the `DurableStore` itself, then
/// recovers the directory and reads its log and snapshots back on their
/// own, checking both digests against the untraced run's.
fn traced_seed(
    cfg: &RunConfig,
    trace: &EncodedTrace,
    dir: &Path,
    want: u64,
    ledger: &mut Ledger,
    report: &mut Report,
) -> Result<()> {
    let seed = cfg.workload.seed;
    let dcfg = DurabilityConfig::snapshot_and_log(dir);
    let run = replay_traced(cfg, trace, Some(&dcfg), ledger)?;
    let digest = outcome_digest(&run.outcome);
    report.checks.check(digest == want, || {
        format!("traced seed {seed}: run digest {digest:016x}, untraced {want:016x}")
    });
    if let Some(s) = run.storage {
        ledger.count("durable.log_bytes", s.log_bytes as f64);
        ledger.count("durable.snapshot_bytes", s.snapshot_bytes as f64);
        // `fsyncs` counts the log's; every snapshot file is synced on write
        // as well.
        ledger.count("durable.fsyncs", (s.fsyncs + s.snapshots) as f64);
    }

    let t = Instant::now();
    let recovered = recover(dir)?;
    ledger.add("sim.recover", t.elapsed().as_nanos() as u64);
    let got = outcome_digest(&recovered.outcome);
    report.checks.check(got == want, || {
        format!("traced seed {seed}: recovered {got:016x}, untraced {want:016x}")
    });

    let t = Instant::now();
    read_log(dir)?;
    let ns = t.elapsed().as_nanos() as u64;
    ledger.add("durable.read_log", ns);
    ledger.sample("durable.read_log_ms", ns as f64 / 1e6);

    let t = Instant::now();
    for file in scan_snapshots(dir)? {
        read_snapshot(&file.path)?;
    }
    let ns = t.elapsed().as_nanos() as u64;
    ledger.add("durable.scan_snapshots", ns);
    ledger.sample("durable.scan_snapshots_ms", ns as f64 / 1e6);
    Ok(())
}
