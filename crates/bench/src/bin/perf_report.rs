//! Performance-regression harness for the dense-id hot paths.
//!
//! Replays fixed-seed workloads through the simulator and reports, in
//! `BENCH_hotpath.json`:
//!
//! * **events/sec** of the full replay loop per policy, on the paper
//!   configuration and the small configuration;
//! * the same replay with the pre-dense **baseline** (`MostGarbage`
//!   backed by the retained hash-set oracle, `oracle::reference`), so the
//!   speedup and the baseline it is measured against live in one file;
//! * **oracle passes/sec** for the dense and reference analyses over an
//!   identical database state;
//! * a **peak-RSS proxy** (`VmHWM` from `/proc/self/status`);
//! * a **bit-identical check**: for seeds 0–9 on the small configuration,
//!   the dense-oracle `MostGarbage` run and the reference-oracle run must
//!   produce equal `RunTotals` — the dense structures change no simulated
//!   outcome, only wall-clock time.
//!
//! It also measures the **shared-trace experiment engine** and writes
//! `BENCH_experiment.json`: the full 11-policy paper-config sweep, timed
//! once on the pre-change per-job scheduler (every job regenerates its
//! workload inline) and once on the engine (record each seed's trace once,
//! replay everywhere). The two sweeps must agree on every job's totals and
//! victim sequence, and — at full scale — the speedup must stay above 90%
//! of the recorded value, or the process exits nonzero.
//!
//! It also gates the **policy scoreboards** and writes
//! `BENCH_policy.json`: the `UpdatedPointer` paper replay (the paper's
//! best implementable policy, backed by a dense per-partition
//! scoreboard) is timed in paired passes against the reproduced
//! pre-derive hand-rolled scoreboard and must hold at least 95% of its
//! throughput (gate binding at full scale; victims must match at any
//! scale), alongside context timings for the two signal-combining
//! policies (`Composite`, `AdaptiveMeta`).
//!
//! It also measures the **telemetry tap** and writes
//! `BENCH_telemetry.json`: the paper `MostGarbage` replay timed bare, with
//! telemetry off, and at full telemetry. The off path must stay within 2%
//! of the bare loop and the full path within 10% (gates binding at full
//! scale), and neither level may change totals or the victim sequence.
//!
//! Finally it gates the **intra-run parallel hot path** and writes
//! `BENCH_parallel.json`: one encoded paper trace replayed three ways —
//! the pre-dense execution model (per-event decode, hash-set oracle), the
//! batched serial block loop, and the full parallel pipeline (decode-ahead
//! thread, work-stealing parallel oracle) at `--intra-threads` workers.
//! All three legs must pick identical victims (the `Deterministic(n)`
//! contract). At full scale the serial block loop must beat the pre-dense
//! leg by 1.5x on any machine, and — on machines with at least
//! `--intra-threads` cores — the parallel leg must beat it by 2.5x, all
//! measured in the same process.
//!
//! Finally it gates the **sharded server runtime** and writes
//! `BENCH_server.json`: the same set of client streams run on 1, 2, and 4
//! shards through `pgc-server`. Every stream's outcome must be
//! bit-identical at every shard count and to a dedicated
//! single-`Simulation` run (binding at any scale). At full scale — on
//! machines with at least as many cores as the widest fleet — aggregate
//! events/sec at 4 shards must beat 1 shard by 2x. Wall-clock gates that
//! cannot bind (reduced scale, too few cores) record an explicit
//! `skipped` status in their artifact instead of a silent pass.
//!
//! Finally it gates the **durable storage backend** and writes
//! `BENCH_storage.json`: the paper `MostGarbage` replay timed bare, with
//! the append-only change log (`LogOnly`), and with snapshots + log. The
//! log path must hold ≥ 90% of bare throughput (binding at full scale,
//! explicit skipped status otherwise), victims must match across legs at
//! any scale, and a persisted run is recovered from its data directory —
//! timed as recovery replay speed — with the recovered digest pinned to
//! the original.
//!
//! Usage: `cargo run --release --bin perf_report` (or `just bench-report`).
//! `--scale PCT` shrinks the paper workload for quick runs.

use pgc_bench::CommonArgs;
use pgc_core::policy::{fallback_victim, PolicyKind, SelectionPolicy};
use pgc_core::{build_policy, Collector};
use pgc_durable::{DurabilityConfig, ScratchDir};
use pgc_odb::oracle::{self, OracleScratch};
use pgc_odb::{BarrierEvent, BarrierObserver, Database};
use pgc_server::{Server, ServerConfig, StreamId};
use pgc_sim::{
    experiment, outcome_digest, recover, Experiment, Replayer, RunConfig, RunOutcome, Shard,
    Simulation, TelemetryLevel,
};
use pgc_telemetry::TelemetryObserver;
use pgc_types::{Parallelism, PartitionId};
use pgc_workload::{
    EncodedTrace, Event, EventBlock, SyntheticWorkload, TraceCache, TraceSegment, BLOCK_EVENTS,
};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Shared-trace sweep speedup recorded when the engine landed: the full
/// 11-policy × 3-seed paper-config sweep on the engine (record each seed
/// once, replay everywhere) versus the pre-change per-job scheduler (every
/// job regenerates its workload). The generator is the only work the engine
/// removes, so the ratio is a machine-portable property of the sweep —
/// full-scale paired passes measured 1.5–1.8x; this records the
/// conservative end, and the gate fails when a full-scale run measures
/// less than 90% of it.
const RECORDED_SWEEP_SPEEDUP: f64 = 1.5;

/// Required single-run speedup of the intra-run parallel pipeline
/// (decode-ahead thread + work-stealing parallel oracle) over the
/// pre-dense execution model (per-event decode, hash-set oracle) on the
/// paper `MostGarbage` replay. Both legs are measured in the same process
/// over the same encoded trace. Binds at full scale, and only on machines
/// with at least `--intra-threads` available cores — on fewer cores the
/// worker threads time-slice one CPU and wall-clock parallel speedup is
/// physically unmeasurable (bit-identity still binds everywhere).
const PARALLEL_SPEEDUP_GATE: f64 = 2.5;

/// Required speedup of the *serial* batched block loop (SoA decode, dense
/// oracle, no threads) over the same pre-dense leg. Unlike the parallel
/// gate this involves no concurrency, so it binds at full scale on any
/// machine, including single-core CI runners.
const BATCHED_SPEEDUP_GATE: f64 = 1.5;

/// Required aggregate-throughput speedup of the sharded server runtime at
/// its widest shard count versus one shard, over the same client streams.
/// Binds at full scale, and only on machines with at least as many
/// available cores as shards — on fewer cores the shard workers
/// time-slice one CPU, so the artifact records an explicit skipped
/// status instead of a silent pass (per-stream bit-identity still binds
/// everywhere).
const SERVER_SPEEDUP_GATE: f64 = 2.0;

/// Shard counts the `server_scalability` section sweeps, ascending; the
/// gate compares the last against the first.
const SERVER_SHARD_COUNTS: [usize; 3] = [1, 2, 4];

/// Client streams multiplexed onto the fleet in the server sweep.
const SERVER_STREAMS: usize = 8;

/// Paired passes per shard count in the server sweep (best-of, with the
/// visit order rotated across passes like the other paired gates).
const SERVER_PASSES: usize = 2;

/// The pre-derive `UpdatedPointer`: the hand-rolled private scoreboard the
/// derive layer replaced — a bare counter vector bumped on overwrites and
/// zeroed on collection, with the same skip-zero/ties-low argmax. Timed in
/// paired passes against the derive-backed policy, the within-pass ratio
/// is the `policy_engine` gate.
#[derive(Default)]
struct HandRolledUpdatedPointer {
    counts: Vec<u64>,
}

impl BarrierObserver for HandRolledUpdatedPointer {
    fn on_event(&mut self, event: &BarrierEvent) {
        match event {
            BarrierEvent::PointerWrite(info) => {
                if let Some(old) = &info.old {
                    let idx = old.partition.as_usize();
                    if self.counts.len() <= idx {
                        self.counts.resize(idx + 1, 0);
                    }
                    self.counts[idx] += 1;
                }
            }
            BarrierEvent::CollectionCompleted(outcome) => {
                if let Some(c) = self.counts.get_mut(outcome.victim.as_usize()) {
                    *c = 0;
                }
            }
            _ => {}
        }
    }
}

impl SelectionPolicy for HandRolledUpdatedPointer {
    fn kind(&self) -> PolicyKind {
        PolicyKind::UpdatedPointer
    }

    fn select(&mut self, db: &Database) -> Option<PartitionId> {
        let mut best: Option<(PartitionId, u64)> = None;
        for p in db.collectable_partitions() {
            let s = self.counts.get(p.as_usize()).copied().unwrap_or(0);
            if s == 0 {
                continue;
            }
            match best {
                Some((_, b)) if b >= s => {}
                _ => best = Some((p, s)),
            }
        }
        best.map(|(p, _)| p).or_else(|| fallback_victim(db))
    }

    fn name(&self) -> &'static str {
        "UpdatedPointer(handrolled)"
    }
}

/// The pre-dense `MostGarbage`: identical selection rule, hash-set oracle.
struct ReferenceMostGarbage;

impl BarrierObserver for ReferenceMostGarbage {
    fn on_event(&mut self, _event: &BarrierEvent) {}
}

impl SelectionPolicy for ReferenceMostGarbage {
    fn kind(&self) -> PolicyKind {
        PolicyKind::MostGarbage
    }

    fn select(&mut self, db: &Database) -> Option<PartitionId> {
        let report = oracle::reference::analyze(db);
        report
            .most_garbage_partition(db.empty_partition())
            .or_else(|| fallback_victim(db))
    }

    fn name(&self) -> &'static str {
        "MostGarbage(reference)"
    }
}

/// Builds a fresh policy instance for each timed pass.
type PolicyFactory<'a> = &'a dyn Fn() -> Box<dyn SelectionPolicy>;

/// One measured replay.
struct ReplayRow {
    config: &'static str,
    policy: String,
    implementation: &'static str,
    events: u64,
    secs: f64,
}

impl ReplayRow {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.secs.max(1e-9)
    }
}

fn events_for(cfg: &RunConfig) -> Vec<Event> {
    SyntheticWorkload::new(cfg.workload.clone())
        .expect("workload params")
        .collect()
}

/// Builds the policy exactly as `Simulation` does (same decorrelated
/// policy seed, same weight cap), so replays here match `Experiment::compare`.
fn dense_policy(cfg: &RunConfig) -> Box<dyn SelectionPolicy> {
    build_policy(cfg.policy, cfg.policy_seed(), cfg.db.max_weight)
}

fn replayer_for(cfg: &RunConfig, policy: Box<dyn SelectionPolicy>) -> Replayer {
    let db = Database::new(cfg.db.clone()).expect("db config");
    let collector =
        Collector::with_trigger(policy, cfg.effective_trigger()).with_batch(cfg.collect_batch);
    Replayer::new(db, collector)
}

/// Replays `events` under `policy`, returning the timed row and totals
/// (events applied + collections, used for cross-checking runs).
///
/// Best-of-3: each pass rebuilds the replayer from scratch and the fastest
/// wall time wins — the max-throughput estimator sheds scheduler noise that
/// a single ~100 ms sample cannot. Repeats double as a determinism check:
/// every pass must apply the same events and perform the same collections.
fn timed_replay(
    config: &'static str,
    cfg: &RunConfig,
    events: &[Event],
    policy: PolicyFactory<'_>,
    implementation: &'static str,
) -> (ReplayRow, u64) {
    const PASSES: usize = 3;
    let mut label = String::new();
    let mut best: Option<(f64, u64, u64)> = None;
    for _ in 0..PASSES {
        let policy = policy();
        label = policy.name().to_string();
        let mut replayer = replayer_for(cfg, policy);
        let t0 = Instant::now();
        for event in events {
            replayer.apply(event).expect("replay");
        }
        let secs = t0.elapsed().as_secs_f64();
        let applied = replayer.events_applied();
        let collections = replayer.collections().len() as u64;
        match best {
            Some((best_secs, best_applied, best_collections)) => {
                assert_eq!(
                    (applied, collections),
                    (best_applied, best_collections),
                    "replay passes must be deterministic"
                );
                if secs < best_secs {
                    best = Some((secs, applied, collections));
                }
            }
            None => best = Some((secs, applied, collections)),
        }
    }
    let (secs, applied, collections) = best.expect("at least one pass");
    (
        ReplayRow {
            config,
            policy: label,
            implementation,
            events: applied,
            secs,
        },
        collections,
    )
}

/// Peak resident set size in KiB (`VmHWM`), or 0 where unavailable.
fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")
                    .and_then(|v| v.split_whitespace().next().and_then(|n| n.parse().ok()))
            })
        })
        .unwrap_or(0)
}

/// For seeds 0–9 on the small config, dense and reference `MostGarbage`
/// must be observationally identical: equal totals, equal final oracle
/// reports.
fn check_bit_identical() -> bool {
    for seed in 0..10u64 {
        let cfg = RunConfig::small()
            .with_policy(PolicyKind::MostGarbage)
            .with_seed(seed);
        let events = events_for(&cfg);

        let mut dense = replayer_for(&cfg, dense_policy(&cfg));
        let mut reference = replayer_for(&cfg, Box::new(ReferenceMostGarbage));
        for event in &events {
            dense.apply(event).expect("dense replay");
            reference.apply(event).expect("reference replay");
        }
        let dense_report = oracle::analyze(dense.db());
        let reference_report = oracle::reference::analyze(reference.db());
        if dense_report != reference_report
            || dense.db().stats() != reference.db().stats()
            || dense.db().io_stats() != reference.db().io_stats()
            || dense.collections().len() != reference.collections().len()
        {
            eprintln!("MISMATCH: seed {seed} diverged between dense and reference");
            return false;
        }
    }
    true
}

/// The pre-change sweep scheduler, reproduced as the baseline: every job
/// runs a live-generator simulation — regenerating its workload inline —
/// fanned over `threads` workers claiming jobs from a shared counter.
fn per_job_sweep(jobs: &[RunConfig], threads: usize) -> Vec<RunOutcome> {
    let next = AtomicUsize::new(0);
    let slots: Vec<OnceLock<RunOutcome>> = (0..jobs.len()).map(|_| OnceLock::new()).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(cfg) = jobs.get(i) else { break };
                let outcome = Simulation::builder(cfg).run().expect("per-job sweep run");
                assert!(slots[i].set(outcome).is_ok(), "slot claimed once");
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("every sweep slot filled"))
        .collect()
}

/// Measures repeated full-database oracle passes over one built state.
fn oracle_passes(db: &Database, dense: bool, budget_secs: f64) -> (u64, f64) {
    let mut scratch = OracleScratch::new();
    let mut passes = 0u64;
    let t0 = Instant::now();
    loop {
        if dense {
            std::hint::black_box(oracle::analyze_with(db, &mut scratch));
        } else {
            std::hint::black_box(oracle::reference::analyze(db));
        }
        passes += 1;
        if t0.elapsed().as_secs_f64() >= budget_secs && passes >= 3 {
            break;
        }
    }
    (passes, t0.elapsed().as_secs_f64())
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() {
    let args = CommonArgs::parse();
    let mut rows: Vec<ReplayRow> = Vec::new();

    // --- Small configuration: every paper policy, dense structures. ---
    println!("replaying small configuration (seed 1) per policy...");
    let small = RunConfig::small().with_seed(1);
    let small_events = events_for(&small);
    for kind in PolicyKind::PAPER {
        let cfg = small.clone().with_policy(kind);
        let (row, _) = timed_replay(
            "small",
            &cfg,
            &small_events,
            &|| dense_policy(&cfg),
            "dense",
        );
        println!(
            "  {:<24} {:>12.0} events/sec",
            row.policy,
            row.events_per_sec()
        );
        rows.push(row);
    }
    let (row, _) = timed_replay(
        "small",
        &small.clone().with_policy(PolicyKind::MostGarbage),
        &small_events,
        &|| Box::new(ReferenceMostGarbage),
        "reference-baseline",
    );
    println!(
        "  {:<24} {:>12.0} events/sec",
        row.policy,
        row.events_per_sec()
    );
    rows.push(row);

    // --- Paper configuration: the MostGarbage hot path, dense vs the
    // in-process reference baseline, plus one implementable policy for
    // context. `--scale` shrinks the allocation target for quick runs. ---
    println!("replaying paper configuration (seed 1)...");
    let mut paper = RunConfig::paper(PolicyKind::MostGarbage, 1);
    paper.workload.target_allocated = args.scale_bytes(paper.workload.target_allocated);
    let paper_events = events_for(&paper);
    let mut paper_pairs: Vec<(&'static str, f64)> = Vec::new();
    let factories: [(&'static str, PolicyFactory<'_>); 2] = [
        ("dense", &|| dense_policy(&paper)),
        ("reference-baseline", &|| Box::new(ReferenceMostGarbage)),
    ];
    for (implementation, policy) in factories {
        let (row, collections) =
            timed_replay("paper", &paper, &paper_events, policy, implementation);
        println!(
            "  {:<24} {:>12.0} events/sec  ({} collections)",
            format!("{} [{}]", row.policy, row.implementation),
            row.events_per_sec(),
            collections
        );
        paper_pairs.push((implementation, row.events_per_sec()));
        rows.push(row);
    }
    let up_cfg = paper.clone().with_policy(PolicyKind::UpdatedPointer);
    let (row, _) = timed_replay(
        "paper",
        &up_cfg,
        &paper_events,
        &|| dense_policy(&up_cfg),
        "dense",
    );
    println!(
        "  {:<24} {:>12.0} events/sec",
        row.policy,
        row.events_per_sec()
    );
    rows.push(row);

    let dense_paper_eps = paper_pairs
        .iter()
        .find(|(i, _)| *i == "dense")
        .map(|(_, v)| *v)
        .unwrap_or(0.0);
    let reference_paper_eps = paper_pairs
        .iter()
        .find(|(i, _)| *i == "reference-baseline")
        .map(|(_, v)| *v)
        .unwrap_or(f64::INFINITY);

    // The speedup headline compares against the in-process reference-oracle
    // replay (which understates the dense win — it still enjoys the slab
    // object table on every event).
    let replay_speedup = dense_paper_eps / reference_paper_eps.max(1e-9);
    println!("  MostGarbage paper speedup: {replay_speedup:.2}x vs reference-oracle replay");

    // --- Policy engine: derived-state selection vs the hand-rolled
    // scoreboard it replaced. `UpdatedPointer` on the paper config is the
    // yardstick workload (the paper's best implementable policy, pure
    // barrier-counter state). Paired best-of-N passes — each pass times
    // the derive-backed policy and the reproduced pre-derive scoreboard
    // back-to-back, order alternating — and the best within-pass ratio is
    // gated at ≥ 95%, binding at full scale. Both legs must pick identical
    // victims at any scale. ---
    println!("measuring the derive-layer policy engine (UpdatedPointer paper replay)...");
    const POLICY_PASSES: usize = 5;
    let mut derive_secs = f64::INFINITY;
    let mut hand_secs = f64::INFINITY;
    let mut best_policy_ratio = 0.0f64;
    let mut derive_victims: Option<Vec<PartitionId>> = None;
    let mut hand_victims: Option<Vec<PartitionId>> = None;
    for pass in 0..POLICY_PASSES {
        let (mut d, mut h) = (0.0f64, 0.0f64);
        for leg in [pass % 2, (pass + 1) % 2] {
            let policy: Box<dyn SelectionPolicy> = if leg == 0 {
                dense_policy(&up_cfg)
            } else {
                Box::<HandRolledUpdatedPointer>::default()
            };
            let mut replayer = replayer_for(&up_cfg, policy);
            let t0 = Instant::now();
            for event in &paper_events {
                replayer.apply(event).expect("policy-engine replay");
            }
            let secs = t0.elapsed().as_secs_f64();
            let victims: Vec<PartitionId> =
                replayer.collections().iter().map(|c| c.victim).collect();
            let seen = if leg == 0 {
                d = secs;
                &mut derive_victims
            } else {
                h = secs;
                &mut hand_victims
            };
            match seen {
                Some(v) => assert_eq!(*v, victims, "policy-engine replay determinism"),
                None => *seen = Some(victims),
            }
        }
        best_policy_ratio = best_policy_ratio.max(h / d.max(1e-9));
        derive_secs = derive_secs.min(d);
        hand_secs = hand_secs.min(h);
    }
    // Same two noise-shedding estimators as the telemetry gate: the paired
    // per-pass ratio and the min-time ratio, best of either.
    best_policy_ratio = best_policy_ratio.max(hand_secs / derive_secs.max(1e-9));
    let policy_identical = derive_victims == hand_victims;
    let policy_engine_eps = paper_events.len() as f64 / derive_secs.max(1e-9);
    let hand_rolled_eps = paper_events.len() as f64 / hand_secs.max(1e-9);
    let policy_gate_applies = args.scale_pct == 100;
    let policy_gate_ok = (!policy_gate_applies || best_policy_ratio >= 0.95) && policy_identical;
    println!(
        "  derived-state:  {policy_engine_eps:>12.0} events/sec ({:.1}% of hand-rolled, gate 95%{})",
        best_policy_ratio * 100.0,
        if policy_gate_applies {
            ""
        } else {
            ", not binding at this --scale"
        }
    );
    println!("  hand-rolled:    {hand_rolled_eps:>12.0} events/sec");
    println!("  victims bit-identical: {policy_identical}");
    let mut new_policy_rows: Vec<(&'static str, f64)> = Vec::new();
    for kind in [PolicyKind::Composite, PolicyKind::AdaptiveMeta] {
        let cfg = paper.clone().with_policy(kind);
        let (row, _) = timed_replay(
            "paper",
            &cfg,
            &paper_events,
            &|| dense_policy(&cfg),
            "dense",
        );
        println!(
            "  {:<24} {:>12.0} events/sec",
            row.policy,
            row.events_per_sec()
        );
        new_policy_rows.push((kind.name(), row.events_per_sec()));
        rows.push(row);
    }
    if !policy_identical {
        eprintln!(
            "MISMATCH: derive-backed UpdatedPointer diverged from the hand-rolled scoreboard"
        );
    } else if !policy_gate_ok {
        eprintln!(
            "REGRESSION: derived-state UpdatedPointer throughput {:.1}% fell below the 95% gate",
            best_policy_ratio * 100.0
        );
    }

    // --- Shared-trace experiment engine: the full 11-policy sweep, on the
    // paper configuration. The engine records each seed's trace once and
    // replays it for every policy; the baseline regenerates per job. ---
    println!(
        "timing the 11-policy paper-config sweep (shared-trace engine vs per-job generation)..."
    );
    let sweep_seeds: Vec<u64> = (1..=args.seeds.min(3)).collect();
    let threads = experiment::default_threads();
    // The recorded speedup constant was calibrated on the 11-policy slate
    // that existed when the engine landed; the two derive-native extensions
    // (whose replay cost the `policy_engine` section gates separately) are
    // excluded so the ratio stays comparable across runs.
    let sweep_policies: Vec<PolicyKind> = PolicyKind::ALL
        .into_iter()
        .filter(|k| !matches!(k, PolicyKind::Composite | PolicyKind::AdaptiveMeta))
        .collect();
    let mut sweep_jobs: Vec<RunConfig> = Vec::new();
    for &seed in &sweep_seeds {
        for &policy in &sweep_policies {
            let mut cfg = RunConfig::paper(policy, seed);
            cfg.workload.target_allocated = args.scale_bytes(cfg.workload.target_allocated);
            sweep_jobs.push(cfg);
        }
    }
    // Best-of-3 *paired* passes: each pass times both schedulers
    // back-to-back (order alternating, so warm-up effects don't always
    // favor one side) and yields one speedup ratio; the pass with the best
    // ratio wins. Pairing matters on shared machines — background load
    // tends to slow a whole pass, which the within-pass ratio cancels,
    // where independent min-times across passes would not.
    const SWEEP_PASSES: usize = 3;
    let mut per_job: Option<Vec<RunOutcome>> = None;
    let mut engine: Option<Vec<(usize, RunOutcome)>> = None;
    let mut per_job_secs = f64::INFINITY;
    let mut record_secs = f64::INFINITY;
    let mut replay_secs = f64::INFINITY;
    let mut engine_secs = f64::INFINITY;
    let mut best_ratio = 0.0f64;
    for pass in 0..SWEEP_PASSES {
        let mut pj = 0.0;
        let mut rec = 0.0;
        let mut rep = 0.0;
        let mut time_per_job = || {
            let t0 = Instant::now();
            let outcomes = per_job_sweep(&sweep_jobs, threads);
            pj = t0.elapsed().as_secs_f64();
            per_job.get_or_insert(outcomes);
        };
        let mut time_engine = || {
            // A fresh cache per pass, so the record phase is always measured.
            let cache = TraceCache::new();
            let t0 = Instant::now();
            for jobs_for_seed in sweep_jobs.chunks(sweep_policies.len()) {
                cache
                    .get_or_record(&jobs_for_seed[0].workload)
                    .expect("record sweep trace");
            }
            rec = t0.elapsed().as_secs_f64();
            let labeled: Vec<(usize, RunConfig)> = sweep_jobs.iter().cloned().enumerate().collect();
            let t0 = Instant::now();
            let outcomes = Experiment::new()
                .with_threads(threads)
                .with_cache(&cache)
                .run_jobs(labeled)
                .expect("engine sweep");
            rep = t0.elapsed().as_secs_f64();
            engine.get_or_insert(outcomes);
        };
        if pass % 2 == 0 {
            time_per_job();
            time_engine();
        } else {
            time_engine();
            time_per_job();
        }
        let ratio = pj / (rec + rep).max(1e-9);
        if ratio > best_ratio {
            best_ratio = ratio;
            per_job_secs = pj;
            record_secs = rec;
            replay_secs = rep;
            engine_secs = rec + rep;
        }
    }
    let per_job = per_job.expect("at least one per-job pass");
    let engine = engine.expect("at least one engine pass");

    let sweep_identical = per_job.len() == engine.len()
        && per_job
            .iter()
            .zip(&engine)
            .all(|(a, (_, b))| a.totals == b.totals && a.collections == b.collections);
    let sweep_events: u64 = engine.iter().map(|(_, o)| o.totals.events).sum();
    let sweep_speedup = per_job_secs / engine_secs.max(1e-9);
    // The generator's share of the per-job sweep: one record pass per job
    // (the engine pays one per seed), over the per-job wall clock.
    let generator_share =
        (record_secs / sweep_seeds.len() as f64) * sweep_jobs.len() as f64 / per_job_secs.max(1e-9);
    // Workload size changes the generator/replay balance, so the recorded
    // ratio only binds at full scale.
    let sweep_gate = 0.9 * RECORDED_SWEEP_SPEEDUP;
    let sweep_gate_applies = args.scale_pct == 100;
    let sweep_gate_ok = !sweep_gate_applies || sweep_speedup >= sweep_gate;
    println!(
        "  per-job generation: {per_job_secs:>8.2}s  ({:.0} events/sec)",
        sweep_events as f64 / per_job_secs.max(1e-9)
    );
    println!(
        "  shared-trace:       {engine_secs:>8.2}s  ({:.0} events/sec; record {record_secs:.2}s + replay {replay_secs:.2}s)",
        sweep_events as f64 / engine_secs.max(1e-9)
    );
    println!(
        "  sweep speedup: {sweep_speedup:.2}x (recorded {RECORDED_SWEEP_SPEEDUP:.2}x, gate {sweep_gate:.2}x{}); generator share {:.0}%",
        if sweep_gate_applies {
            ""
        } else {
            ", not binding at this --scale"
        },
        generator_share * 100.0
    );
    println!("  sweep bit-identical: {sweep_identical}");
    if !sweep_gate_ok {
        eprintln!(
            "REGRESSION: sweep speedup {sweep_speedup:.2}x fell below the {sweep_gate:.2}x gate"
        );
    }

    // --- Oracle passes/sec over the small end state. ---
    println!("measuring oracle passes/sec over the small end state...");
    let oracle_cfg = small.clone().with_policy(PolicyKind::UpdatedPointer);
    let mut replayer = replayer_for(&oracle_cfg, dense_policy(&oracle_cfg));
    for event in &small_events {
        replayer.apply(event).expect("replay");
    }
    let db = replayer.db();
    let (dense_passes, dense_secs) = oracle_passes(db, true, 1.0);
    let (ref_passes, ref_secs) = oracle_passes(db, false, 1.0);
    let dense_pps = dense_passes as f64 / dense_secs.max(1e-9);
    let ref_pps = ref_passes as f64 / ref_secs.max(1e-9);
    println!("  dense:     {dense_pps:>12.1} passes/sec");
    println!("  reference: {ref_pps:>12.1} passes/sec");

    // --- Equivalence across seeds 0-9. ---
    println!("verifying dense == reference across small-config seeds 0-9...");
    let identical = check_bit_identical();
    println!("  bit-identical: {identical}");

    // --- Telemetry overhead: the observer tap must be free when off and
    // cheap when on. Three legs over the identical paper `MostGarbage`
    // replay loop: bare (no bus bystanders — what `.telemetry(Off)`
    // builds, since `Off` registers nothing), a second bare leg standing
    // in for the disabled path (pinning that "off" really is the same
    // code), and the loop with a `Full` `TelemetryObserver` on the bus.
    // Paired best-of-N passes, order rotating per pass; the within-pass
    // ratios cancel background load and the best ratio per gate wins.
    // Gates bind at full scale only: off >= 98% of bare, full >= 90%. ---
    println!("measuring telemetry overhead (off / full vs bare replay)...");
    const TELEMETRY_PASSES: usize = 5;
    let mut plain_secs = f64::INFINITY;
    let mut off_secs = f64::INFINITY;
    let mut full_secs = f64::INFINITY;
    let mut best_off_ratio = 0.0f64;
    let mut best_full_ratio = 0.0f64;
    let mut plain_victims: Option<Vec<PartitionId>> = None;
    let mut full_victims: Option<Vec<PartitionId>> = None;
    let mut telemetry_records = 0u64;
    let mut telemetry_activations = 0u64;
    for pass in 0..TELEMETRY_PASSES {
        let (mut p, mut o, mut f) = (0.0f64, 0.0f64, 0.0f64);
        let order = [[0usize, 1, 2], [1, 2, 0], [2, 0, 1]][pass % 3];
        for leg in order {
            let mut replayer = replayer_for(&paper, dense_policy(&paper));
            let handle = if leg == 2 {
                let (obs, handle) =
                    TelemetryObserver::new(TelemetryLevel::Full, paper.trigger_reason());
                replayer.collector_mut().add_observer(Box::new(obs));
                Some(handle)
            } else {
                None
            };
            let t0 = Instant::now();
            for event in &paper_events {
                replayer.apply(event).expect("telemetry-leg replay");
            }
            let secs = t0.elapsed().as_secs_f64();
            let victims: Vec<PartitionId> =
                replayer.collections().iter().map(|c| c.victim).collect();
            drop(replayer);
            match leg {
                0 => {
                    p = secs;
                    match &plain_victims {
                        Some(v) => assert_eq!(*v, victims, "bare replay determinism"),
                        None => plain_victims = Some(victims),
                    }
                }
                1 => o = secs,
                _ => {
                    f = secs;
                    match &full_victims {
                        Some(v) => assert_eq!(*v, victims, "tapped replay determinism"),
                        None => full_victims = Some(victims),
                    }
                    let snap = handle.expect("tapped leg keeps a handle").finish();
                    telemetry_records = snap.records.len() as u64;
                    telemetry_activations = snap.counters.activations;
                }
            }
        }
        // events/sec ratios reduce to wall-clock ratios over one event set.
        best_off_ratio = best_off_ratio.max(p / o.max(1e-9));
        best_full_ratio = best_full_ratio.max(p / f.max(1e-9));
        plain_secs = plain_secs.min(p);
        off_secs = off_secs.min(o);
        full_secs = full_secs.min(f);
    }
    // Two noise-shedding estimators, best of either: the paired per-pass
    // ratio (cancels load that slows a whole pass) and the min-time ratio
    // (sheds one-off stalls that hit a single leg). A 2% gate on a
    // ~100 ms sample needs both.
    best_off_ratio = best_off_ratio.max(plain_secs / off_secs.max(1e-9));
    best_full_ratio = best_full_ratio.max(plain_secs / full_secs.max(1e-9));
    // Non-perturbation at harness level: the victim sequence must not
    // depend on the tap, and the tap must have seen every activation.
    let telemetry_identical = plain_victims == full_victims
        && telemetry_activations == plain_victims.as_ref().map(Vec::len).unwrap_or(0) as u64
        && telemetry_records == telemetry_activations;
    let telemetry_gate_applies = args.scale_pct == 100;
    let off_gate_ok = !telemetry_gate_applies || best_off_ratio >= 0.98;
    let full_gate_ok = !telemetry_gate_applies || best_full_ratio >= 0.90;
    let telemetry_gate_ok = off_gate_ok && full_gate_ok;
    let paper_event_count = paper_events.len() as f64;
    println!(
        "  bare loop:      {plain_secs:>8.3}s  ({:.0} events/sec)",
        paper_event_count / plain_secs.max(1e-9)
    );
    println!(
        "  telemetry off:  {off_secs:>8.3}s  ({:.1}% of bare, gate 98%{})",
        best_off_ratio * 100.0,
        if telemetry_gate_applies {
            ""
        } else {
            ", not binding at this --scale"
        }
    );
    println!(
        "  telemetry full: {full_secs:>8.3}s  ({:.1}% of bare, gate 90%; {} activation records)",
        best_full_ratio * 100.0,
        telemetry_records
    );
    println!("  telemetry bit-identical: {telemetry_identical}");
    if !telemetry_gate_ok {
        eprintln!(
            "REGRESSION: telemetry overhead gate failed (off {:.1}%, full {:.1}%)",
            best_off_ratio * 100.0,
            best_full_ratio * 100.0
        );
    }
    if !telemetry_identical {
        eprintln!("MISMATCH: telemetry level changed simulated outcomes");
    }

    // --- Intra-run parallel hot path: one encoded paper trace replayed
    // three ways. Leg 0 is the pre-dense execution model — decode one
    // event at a time, apply it, answer every trigger with the hash-set
    // reference oracle. Leg 1 is a `Simulation` replay of the trace in
    // `Serial` mode: the batched block loop (SoA decode into a reused
    // `EventBlock`, dense oracle). Leg 2 is the same replay in
    // `Deterministic(--intra-threads)` mode: a decode-ahead thread keeps
    // blocks in flight while the applier drains them, and every trigger
    // runs the work-stealing parallel oracle. Legs 1 and 2 time the whole
    // run, shard setup and `finish` included. Paired best-of-N
    // passes, order rotating; the within-pass ratios cancel background
    // load and the best ratio per gate wins. Victim sequences must match
    // across legs and passes at any scale (the `Deterministic(n)`
    // bit-identity contract); the speedup gate binds at full scale. ---
    let intra = args.parallelism();
    println!(
        "measuring the intra-run parallel hot path ({} workers)...",
        intra.worker_count()
    );
    let paper_trace = EncodedTrace::record(paper.workload.clone()).expect("record paper trace");
    const PARALLEL_PASSES: usize = 3;
    let mut prepar_secs = f64::INFINITY;
    let mut serial_block_secs = f64::INFINITY;
    let mut parallel_secs = f64::INFINITY;
    let mut best_parallel_speedup = 0.0f64;
    let mut best_vs_serial_block = 0.0f64;
    let mut leg_victims: [Option<Vec<PartitionId>>; 3] = [None, None, None];
    for pass in 0..PARALLEL_PASSES {
        let (mut r, mut s, mut p) = (0.0f64, 0.0f64, 0.0f64);
        let order = [[0usize, 1, 2], [1, 2, 0], [2, 0, 1]][pass % 3];
        for leg in order {
            let (secs, applied, victims) = if leg == 0 {
                let mut replayer = replayer_for(&paper, Box::new(ReferenceMostGarbage));
                let t0 = Instant::now();
                let mut cursor = paper_trace.cursor();
                while let Some(event) = cursor.next_event().expect("decode paper trace") {
                    replayer.apply(&event).expect("pre-dense replay");
                }
                let secs = t0.elapsed().as_secs_f64();
                let victims: Vec<PartitionId> =
                    replayer.collections().iter().map(|c| c.victim).collect();
                (secs, replayer.events_applied(), victims)
            } else {
                let mode = if leg == 1 { Parallelism::Serial } else { intra };
                let cfg = paper.clone().with_parallelism(mode);
                let t0 = Instant::now();
                let out = Simulation::builder(&cfg)
                    .trace(&paper_trace)
                    .run()
                    .expect("block replay");
                let secs = t0.elapsed().as_secs_f64();
                let victims: Vec<PartitionId> = out.collections.iter().map(|c| c.victim).collect();
                (secs, out.totals.events, victims)
            };
            assert_eq!(
                applied,
                paper_trace.events(),
                "every leg must apply the whole trace"
            );
            match &leg_victims[leg] {
                Some(v) => assert_eq!(*v, victims, "parallel-leg replay determinism"),
                None => leg_victims[leg] = Some(victims),
            }
            match leg {
                0 => r = secs,
                1 => s = secs,
                _ => p = secs,
            }
        }
        best_parallel_speedup = best_parallel_speedup.max(r / p.max(1e-9));
        best_vs_serial_block = best_vs_serial_block.max(s / p.max(1e-9));
        prepar_secs = prepar_secs.min(r);
        serial_block_secs = serial_block_secs.min(s);
        parallel_secs = parallel_secs.min(p);
    }
    // Same two noise-shedding estimators as the other paired gates.
    best_parallel_speedup = best_parallel_speedup.max(prepar_secs / parallel_secs.max(1e-9));
    best_vs_serial_block = best_vs_serial_block.max(serial_block_secs / parallel_secs.max(1e-9));
    let best_batched_speedup = prepar_secs / serial_block_secs.max(1e-9);
    let parallel_identical = leg_victims[0].is_some()
        && leg_victims[0] == leg_victims[1]
        && leg_victims[1] == leg_victims[2];
    let trace_events = paper_trace.events() as f64;
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let batched_gate_applies = args.scale_pct == 100;
    // Wall-clock parallel speedup needs real cores to run the workers on;
    // on a machine with fewer cores than workers the threads time-slice
    // one CPU and only the (always-binding) bit-identity is meaningful.
    let parallel_gate_applies = batched_gate_applies && cores >= intra.worker_count();
    let batched_gate_ok = !batched_gate_applies || best_batched_speedup >= BATCHED_SPEEDUP_GATE;
    let parallel_gate_ok = (!parallel_gate_applies
        || best_parallel_speedup >= PARALLEL_SPEEDUP_GATE)
        && batched_gate_ok
        && parallel_identical;
    // A wall-clock gate that cannot bind records *why* in the artifact —
    // a skipped gate must be distinguishable from a passed one.
    let parallel_gate_status = if !parallel_identical {
        "failed (victim mismatch)"
    } else if !batched_gate_ok {
        "failed (batched leg below gate)"
    } else if !batched_gate_applies {
        "skipped (reduced scale)"
    } else if cores < intra.worker_count() {
        "skipped (insufficient cores)"
    } else if best_parallel_speedup >= PARALLEL_SPEEDUP_GATE {
        "passed"
    } else {
        "failed"
    };
    println!(
        "  pre-dense (per-event):   {prepar_secs:>8.3}s  ({:.0} events/sec)",
        trace_events / prepar_secs.max(1e-9)
    );
    println!(
        "  serial block loop:       {serial_block_secs:>8.3}s  ({:.0} events/sec)",
        trace_events / serial_block_secs.max(1e-9)
    );
    println!(
        "  parallel pipeline:       {parallel_secs:>8.3}s  ({:.0} events/sec)",
        trace_events / parallel_secs.max(1e-9)
    );
    println!(
        "  batched speedup:  {best_batched_speedup:.2}x vs pre-dense (gate {BATCHED_SPEEDUP_GATE:.1}x{})",
        if batched_gate_applies {
            ""
        } else {
            ", not binding at this --scale"
        }
    );
    println!(
        "  parallel speedup: {best_parallel_speedup:.2}x vs pre-dense (gate {PARALLEL_SPEEDUP_GATE:.1}x{}), {best_vs_serial_block:.2}x vs serial blocks",
        if parallel_gate_applies {
            ""
        } else if !batched_gate_applies {
            ", not binding at this --scale"
        } else {
            ", not binding: too few cores"
        }
    );
    println!(
        "  available cores: {cores} (workers: {})",
        intra.worker_count()
    );
    println!("  parallel gate status: {parallel_gate_status}");
    println!("  victims bit-identical across legs: {parallel_identical}");
    if !parallel_identical {
        eprintln!("MISMATCH: parallel execution changed the victim sequence");
    } else if !batched_gate_ok {
        eprintln!(
            "REGRESSION: batched speedup {best_batched_speedup:.2}x fell below the {BATCHED_SPEEDUP_GATE:.1}x gate"
        );
    } else if !parallel_gate_ok {
        eprintln!(
            "REGRESSION: parallel speedup {best_parallel_speedup:.2}x fell below the {PARALLEL_SPEEDUP_GATE:.1}x gate"
        );
    }

    // --- Server scalability: the same client streams on 1, 2, and 4
    // shards through pgc-server. Aggregate throughput should scale with
    // the fleet (wall-clock gate); every stream's outcome must be
    // bit-identical at every shard count and to a dedicated
    // single-`Simulation` run (always binding). ---
    println!("server scalability: {SERVER_STREAMS} streams on {SERVER_SHARD_COUNTS:?} shards...");
    let server_cfgs: Vec<(StreamId, RunConfig)> = (0..SERVER_STREAMS as u64)
        .map(|i| {
            let policy = PolicyKind::PAPER[i as usize % PolicyKind::PAPER.len()];
            let mut cfg = RunConfig::paper(policy, i + 1);
            cfg.workload.target_allocated = args.scale_bytes(cfg.workload.target_allocated);
            (StreamId(i), cfg)
        })
        .collect();
    let server_traces: Vec<Arc<EncodedTrace>> = server_cfgs
        .iter()
        .map(|(_, cfg)| {
            Arc::new(EncodedTrace::record(cfg.workload.clone()).expect("record stream trace"))
        })
        .collect();
    let total_server_events: u64 = server_traces.iter().map(|t| t.events()).sum();
    // Dedicated single-Simulation runs are the fidelity baseline; the
    // fleet must reproduce them bit for bit at every shard count.
    let dedicated: Vec<RunOutcome> = server_cfgs
        .iter()
        .zip(&server_traces)
        .map(|((_, cfg), trace)| {
            Simulation::builder(cfg)
                .trace(trace)
                .run()
                .expect("dedicated baseline run")
        })
        .collect();
    // Each stream's trace tiled into 4096-event segments: every submitted
    // batch is a refcount bump, not a clone.
    let server_segments: Vec<Vec<TraceSegment>> = server_traces
        .iter()
        .map(|trace| EncodedTrace::segments(trace, 4096).expect("segment tiling"))
        .collect();
    let run_fleet = |shards: usize| {
        let t0 = Instant::now();
        let mut server = Server::start(ServerConfig::new(shards));
        for (stream, cfg) in &server_cfgs {
            server
                .open_stream(*stream, cfg.clone())
                .expect("open stream");
        }
        // Round-robin batches: the interleaving a real fleet would see.
        let mut cursors = [0usize; SERVER_STREAMS];
        loop {
            let mut any = false;
            for (i, (stream, _)) in server_cfgs.iter().enumerate() {
                let at = cursors[i];
                if at >= server_segments[i].len() {
                    continue;
                }
                server
                    .submit_segment(*stream, server_segments[i][at].clone())
                    .expect("submit");
                cursors[i] = at + 1;
                any = true;
            }
            if !any {
                break;
            }
        }
        let fleet = server.shutdown().expect("fleet shutdown");
        (t0.elapsed().as_secs_f64(), fleet.outcomes)
    };
    let mut server_secs = vec![f64::INFINITY; SERVER_SHARD_COUNTS.len()];
    let mut server_identical = true;
    for pass in 0..SERVER_PASSES {
        for step in 0..SERVER_SHARD_COUNTS.len() {
            let slot = (step + pass) % SERVER_SHARD_COUNTS.len();
            let shards = SERVER_SHARD_COUNTS[slot];
            let (secs, outcomes) = run_fleet(shards);
            server_secs[slot] = server_secs[slot].min(secs);
            // Outcomes come back sorted by stream id, and streams are
            // numbered 0..N, so they align with the baseline by index.
            for ((stream, outcome), baseline) in outcomes.iter().zip(&dedicated) {
                if outcome.totals != baseline.totals || outcome.collections != baseline.collections
                {
                    server_identical = false;
                    eprintln!(
                        "MISMATCH: stream {stream} diverged from its dedicated run on {shards} shard(s)"
                    );
                }
            }
        }
    }
    let server_eps: Vec<f64> = server_secs
        .iter()
        .map(|s| total_server_events as f64 / s.max(1e-9))
        .collect();
    let max_shards = *SERVER_SHARD_COUNTS.last().expect("non-empty sweep");
    let server_speedup = server_secs[0] / server_secs[SERVER_SHARD_COUNTS.len() - 1].max(1e-9);
    let server_gate_applies = args.scale_pct == 100 && cores >= max_shards;
    let server_gate_ok =
        (!server_gate_applies || server_speedup >= SERVER_SPEEDUP_GATE) && server_identical;
    let server_gate_status = if !server_identical {
        "failed (stream outcome mismatch)"
    } else if args.scale_pct != 100 {
        "skipped (reduced scale)"
    } else if cores < max_shards {
        "skipped (insufficient cores)"
    } else if server_speedup >= SERVER_SPEEDUP_GATE {
        "passed"
    } else {
        "failed"
    };
    for (i, shards) in SERVER_SHARD_COUNTS.iter().enumerate() {
        println!(
            "  {shards} shard(s): {:>8.3}s  ({:.0} events/sec aggregate)",
            server_secs[i], server_eps[i]
        );
    }
    println!(
        "  speedup at {max_shards} shards: {server_speedup:.2}x vs 1 shard (gate {SERVER_SPEEDUP_GATE:.1}x, status: {server_gate_status})"
    );
    println!("  per-stream outcomes bit-identical to dedicated runs: {server_identical}");
    if !server_gate_ok {
        eprintln!("REGRESSION: server scalability gate failed ({server_gate_status})");
    }

    // --- Storage backend: the durable write path must stay off the hot
    // path. Three legs over the identical paper `MostGarbage` replay
    // through the shard pump: bare (durability off), the append-only
    // change log (`LogOnly` — every input event written ahead of
    // application, fsync batched to safepoints), and full snapshots +
    // log. Paired best-of-N passes with the leg order rotating; the
    // within-pass ratios cancel background load and the best ratio wins.
    // The gate holds `LogOnly` to >= 90% of bare throughput, binding at
    // full scale only (a shrunk workload changes the event/safepoint
    // balance); victim sequences must match across legs at any scale.
    // Each leg steps the paper trace, decoded into blocks outside the
    // timed window, so the window holds apply + log + finish, with
    // safepoints checked once per block as every run takes them.
    // Afterwards one more persisted run times `recover()` — the replay
    // side of the durability story — and pins the recovered digest. ---
    println!("measuring the storage backend (bare / log-only / snapshot+log)...");
    const STORAGE_PASSES: usize = 5;
    let paper_blocks: Vec<EventBlock> = {
        let mut cursor = paper_trace.cursor();
        let mut blocks = Vec::new();
        let mut block = EventBlock::with_capacity(BLOCK_EVENTS);
        while cursor.next_block(&mut block).expect("decode paper trace") > 0 {
            blocks.push(std::mem::replace(
                &mut block,
                EventBlock::with_capacity(BLOCK_EVENTS),
            ));
        }
        blocks
    };
    let storage_leg = |durability: DurabilityConfig| {
        let cfg = paper.clone().with_durability(durability);
        let mut shard = Shard::new(&cfg).expect("storage-leg shard");
        let t0 = Instant::now();
        for block in &paper_blocks {
            shard.step_block(block).expect("storage-leg replay");
        }
        let out = shard
            .finish(paper_trace.stats())
            .expect("storage-leg finish");
        let secs = t0.elapsed().as_secs_f64();
        let victims: Vec<PartitionId> = out.collections.iter().map(|c| c.victim).collect();
        (secs, victims, out)
    };
    let mut storage_bare_secs = f64::INFINITY;
    let mut storage_log_secs = f64::INFINITY;
    let mut storage_snap_secs = f64::INFINITY;
    let mut best_log_ratio = 0.0f64;
    let mut best_snap_ratio = 0.0f64;
    let mut storage_victims: [Option<Vec<PartitionId>>; 3] = [None, None, None];
    for pass in 0..STORAGE_PASSES {
        let (mut b, mut l, mut s) = (0.0f64, 0.0f64, 0.0f64);
        let order = [[0usize, 1, 2], [1, 2, 0], [2, 0, 1]][pass % 3];
        for leg in order {
            // Fresh scratch dir per durable leg: a data dir is single-use.
            let scratch = ScratchDir::new("bench-storage");
            let (secs, victims, _) = match leg {
                0 => storage_leg(DurabilityConfig::off()),
                1 => storage_leg(DurabilityConfig::log_only(scratch.path())),
                _ => storage_leg(DurabilityConfig::snapshot_and_log(scratch.path())),
            };
            match leg {
                0 => b = secs,
                1 => l = secs,
                _ => s = secs,
            }
            match &storage_victims[leg] {
                Some(v) => assert_eq!(*v, victims, "storage-leg replay determinism"),
                None => storage_victims[leg] = Some(victims),
            }
        }
        best_log_ratio = best_log_ratio.max(b / l.max(1e-9));
        best_snap_ratio = best_snap_ratio.max(b / s.max(1e-9));
        storage_bare_secs = storage_bare_secs.min(b);
        storage_log_secs = storage_log_secs.min(l);
        storage_snap_secs = storage_snap_secs.min(s);
    }
    // Same two noise-shedding estimators as the telemetry gate.
    best_log_ratio = best_log_ratio.max(storage_bare_secs / storage_log_secs.max(1e-9));
    best_snap_ratio = best_snap_ratio.max(storage_bare_secs / storage_snap_secs.max(1e-9));
    let storage_identical = storage_victims[0].is_some()
        && storage_victims[0] == storage_victims[1]
        && storage_victims[1] == storage_victims[2];
    let storage_gate_applies = args.scale_pct == 100;
    let storage_gate_ok = (!storage_gate_applies || best_log_ratio >= 0.90) && storage_identical;
    // Recovery replay speed: persist once more, then rebuild the run from
    // the directory alone and pin the digest.
    let recovery_scratch = ScratchDir::new("bench-recover");
    let (_, _, persisted) =
        storage_leg(DurabilityConfig::snapshot_and_log(recovery_scratch.path()));
    let t0 = Instant::now();
    let recovered = recover(recovery_scratch.path()).expect("recover persisted bench run");
    let recovery_secs = t0.elapsed().as_secs_f64();
    let recovery_eps = recovered.events_replayed as f64 / recovery_secs.max(1e-9);
    let recovery_digest_match = outcome_digest(&recovered.outcome) == outcome_digest(&persisted);
    drop(recovery_scratch);
    let storage_gate_ok = storage_gate_ok && recovery_digest_match;
    let storage_gate_status = if !storage_identical {
        "failed (victim mismatch)"
    } else if !recovery_digest_match {
        "failed (recovery digest mismatch)"
    } else if !storage_gate_applies {
        "skipped (reduced scale)"
    } else if best_log_ratio >= 0.90 {
        "passed"
    } else {
        "failed"
    };
    println!(
        "  bare:          {storage_bare_secs:>8.3}s  ({:.0} events/sec)",
        paper_event_count / storage_bare_secs.max(1e-9)
    );
    println!(
        "  log-only:      {storage_log_secs:>8.3}s  ({:.1}% of bare, gate 90%{})",
        best_log_ratio * 100.0,
        if storage_gate_applies {
            ""
        } else {
            ", not binding at this --scale"
        }
    );
    println!(
        "  snapshot+log:  {storage_snap_secs:>8.3}s  ({:.1}% of bare)",
        best_snap_ratio * 100.0
    );
    println!(
        "  recovery:      {recovery_secs:>8.3}s  ({recovery_eps:.0} events/sec replayed, {} snapshots verified, digest match: {recovery_digest_match})",
        recovered.snapshots_verified
    );
    println!("  storage gate status: {storage_gate_status}");
    println!("  victims bit-identical across legs: {storage_identical}");
    if !storage_gate_ok {
        eprintln!("REGRESSION: storage backend gate failed ({storage_gate_status})");
    }

    let rss = peak_rss_kib();

    // --- Emit JSON (hand-rolled; the workspace has no serde). ---
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"harness\": \"perf_report\",");
    let _ = writeln!(json, "  \"scale_pct\": {},", args.scale_pct);
    let _ = writeln!(json, "  \"peak_rss_kib\": {rss},");
    let _ = writeln!(json, "  \"bit_identical_seeds_0_9\": {identical},");
    let _ = writeln!(
        json,
        "  \"mostgarbage_paper_speedup_vs_baseline\": {replay_speedup:.3},"
    );
    let _ = writeln!(json, "  \"oracle\": {{");
    let _ = writeln!(json, "    \"dense_passes_per_sec\": {dense_pps:.1},");
    let _ = writeln!(json, "    \"reference_passes_per_sec\": {ref_pps:.1},");
    let _ = writeln!(
        json,
        "    \"speedup\": {:.3}",
        dense_pps / ref_pps.max(1e-9)
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"replay\": [");
    for (i, row) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"config\": \"{}\", \"policy\": \"{}\", \"impl\": \"{}\", \"events\": {}, \"secs\": {:.4}, \"events_per_sec\": {:.1}}}{}",
            row.config,
            json_escape(&row.policy),
            row.implementation,
            row.events,
            row.secs,
            row.events_per_sec(),
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");

    let out = args
        .out
        .clone()
        .unwrap_or_else(|| std::path::PathBuf::from("BENCH_hotpath.json"));
    std::fs::write(&out, &json).expect("write report");
    println!("wrote {}", out.display());

    // --- BENCH_experiment.json: the shared-trace engine sweep. ---
    let mut ejson = String::from("{\n");
    let _ = writeln!(ejson, "  \"harness\": \"perf_report/experiment_sweep\",");
    let _ = writeln!(ejson, "  \"scale_pct\": {},", args.scale_pct);
    let _ = writeln!(ejson, "  \"threads\": {threads},");
    let _ = writeln!(ejson, "  \"policies\": {},", sweep_policies.len());
    let _ = writeln!(ejson, "  \"seeds\": {},", sweep_seeds.len());
    let _ = writeln!(ejson, "  \"jobs\": {},", per_job.len());
    let _ = writeln!(ejson, "  \"events_replayed\": {sweep_events},");
    let _ = writeln!(ejson, "  \"per_job_sweep_secs\": {per_job_secs:.4},");
    let _ = writeln!(ejson, "  \"engine_record_secs\": {record_secs:.4},");
    let _ = writeln!(ejson, "  \"engine_replay_secs\": {replay_secs:.4},");
    let _ = writeln!(ejson, "  \"engine_sweep_secs\": {engine_secs:.4},");
    let _ = writeln!(
        ejson,
        "  \"per_job_events_per_sec\": {:.1},",
        sweep_events as f64 / per_job_secs.max(1e-9)
    );
    let _ = writeln!(
        ejson,
        "  \"engine_events_per_sec\": {:.1},",
        sweep_events as f64 / engine_secs.max(1e-9)
    );
    let _ = writeln!(ejson, "  \"sweep_speedup\": {sweep_speedup:.3},");
    let _ = writeln!(
        ejson,
        "  \"recorded_sweep_speedup\": {RECORDED_SWEEP_SPEEDUP:.3},"
    );
    let _ = writeln!(ejson, "  \"gate_speedup\": {sweep_gate:.3},");
    let _ = writeln!(ejson, "  \"gate_applies\": {sweep_gate_applies},");
    let _ = writeln!(ejson, "  \"gate_ok\": {sweep_gate_ok},");
    let _ = writeln!(
        ejson,
        "  \"generator_share_of_per_job_sweep\": {generator_share:.3},"
    );
    let _ = writeln!(ejson, "  \"bit_identical\": {sweep_identical}");
    ejson.push_str("}\n");
    std::fs::write("BENCH_experiment.json", &ejson).expect("write experiment report");
    println!("wrote BENCH_experiment.json");

    // --- BENCH_policy.json: the derive-layer policy-engine gate. ---
    let mut pjson = String::from("{\n");
    let _ = writeln!(pjson, "  \"harness\": \"perf_report/policy_engine\",");
    let _ = writeln!(pjson, "  \"scale_pct\": {},", args.scale_pct);
    let _ = writeln!(pjson, "  \"config\": \"paper\",");
    let _ = writeln!(pjson, "  \"policy\": \"UpdatedPointer\",");
    let _ = writeln!(pjson, "  \"events\": {},", paper_events.len());
    let _ = writeln!(
        pjson,
        "  \"hand_rolled_events_per_sec\": {hand_rolled_eps:.1},"
    );
    let _ = writeln!(
        pjson,
        "  \"derived_events_per_sec\": {policy_engine_eps:.1},"
    );
    let _ = writeln!(pjson, "  \"throughput_ratio\": {best_policy_ratio:.4},");
    let _ = writeln!(pjson, "  \"gate_ratio\": 0.95,");
    let _ = writeln!(pjson, "  \"gate_applies\": {policy_gate_applies},");
    let _ = writeln!(pjson, "  \"gate_ok\": {policy_gate_ok},");
    let _ = writeln!(pjson, "  \"bit_identical\": {policy_identical},");
    let _ = writeln!(pjson, "  \"new_policies\": [");
    for (i, (name, eps)) in new_policy_rows.iter().enumerate() {
        let _ = writeln!(
            pjson,
            "    {{\"policy\": \"{name}\", \"events_per_sec\": {eps:.1}}}{}",
            if i + 1 == new_policy_rows.len() {
                ""
            } else {
                ","
            }
        );
    }
    let _ = writeln!(pjson, "  ]");
    pjson.push_str("}\n");
    std::fs::write("BENCH_policy.json", &pjson).expect("write policy report");
    println!("wrote BENCH_policy.json");

    // --- BENCH_telemetry.json: the observer-tap overhead gate. ---
    let mut tjson = String::from("{\n");
    let _ = writeln!(tjson, "  \"harness\": \"perf_report/telemetry_overhead\",");
    let _ = writeln!(tjson, "  \"scale_pct\": {},", args.scale_pct);
    let _ = writeln!(tjson, "  \"events\": {},", paper_events.len());
    let _ = writeln!(tjson, "  \"bare_replay_secs\": {plain_secs:.4},");
    let _ = writeln!(tjson, "  \"telemetry_off_secs\": {off_secs:.4},");
    let _ = writeln!(tjson, "  \"telemetry_full_secs\": {full_secs:.4},");
    let _ = writeln!(
        tjson,
        "  \"bare_events_per_sec\": {:.1},",
        paper_event_count / plain_secs.max(1e-9)
    );
    let _ = writeln!(tjson, "  \"off_throughput_ratio\": {best_off_ratio:.4},");
    let _ = writeln!(tjson, "  \"full_throughput_ratio\": {best_full_ratio:.4},");
    let _ = writeln!(tjson, "  \"off_gate_ratio\": 0.98,");
    let _ = writeln!(tjson, "  \"full_gate_ratio\": 0.90,");
    let _ = writeln!(tjson, "  \"gate_applies\": {telemetry_gate_applies},");
    let _ = writeln!(tjson, "  \"off_gate_ok\": {off_gate_ok},");
    let _ = writeln!(tjson, "  \"full_gate_ok\": {full_gate_ok},");
    let _ = writeln!(tjson, "  \"activation_records\": {telemetry_records},");
    let _ = writeln!(tjson, "  \"bit_identical\": {telemetry_identical}");
    tjson.push_str("}\n");
    std::fs::write("BENCH_telemetry.json", &tjson).expect("write telemetry report");
    println!("wrote BENCH_telemetry.json");

    // --- BENCH_parallel.json: the intra-run parallel hot-path gate. ---
    let mut pljson = String::from("{\n");
    let _ = writeln!(pljson, "  \"harness\": \"perf_report/parallel_hotpath\",");
    let _ = writeln!(pljson, "  \"scale_pct\": {},", args.scale_pct);
    let _ = writeln!(pljson, "  \"config\": \"paper\",");
    let _ = writeln!(pljson, "  \"policy\": \"MostGarbage\",");
    let _ = writeln!(pljson, "  \"intra_threads\": {},", intra.worker_count());
    let _ = writeln!(pljson, "  \"available_cores\": {cores},");
    let _ = writeln!(pljson, "  \"events\": {},", paper_trace.events());
    let _ = writeln!(pljson, "  \"trace_bytes\": {},", paper_trace.byte_len());
    let _ = writeln!(pljson, "  \"pre_dense_secs\": {prepar_secs:.4},");
    let _ = writeln!(pljson, "  \"serial_block_secs\": {serial_block_secs:.4},");
    let _ = writeln!(pljson, "  \"parallel_secs\": {parallel_secs:.4},");
    let _ = writeln!(
        pljson,
        "  \"pre_dense_events_per_sec\": {:.1},",
        trace_events / prepar_secs.max(1e-9)
    );
    let _ = writeln!(
        pljson,
        "  \"serial_block_events_per_sec\": {:.1},",
        trace_events / serial_block_secs.max(1e-9)
    );
    let _ = writeln!(
        pljson,
        "  \"parallel_events_per_sec\": {:.1},",
        trace_events / parallel_secs.max(1e-9)
    );
    let _ = writeln!(
        pljson,
        "  \"batched_speedup_vs_pre_dense\": {best_batched_speedup:.3},"
    );
    let _ = writeln!(
        pljson,
        "  \"speedup_vs_pre_dense\": {best_parallel_speedup:.3},"
    );
    let _ = writeln!(
        pljson,
        "  \"speedup_vs_serial_block\": {best_vs_serial_block:.3},"
    );
    let _ = writeln!(
        pljson,
        "  \"batched_gate_speedup\": {BATCHED_SPEEDUP_GATE:.3},"
    );
    let _ = writeln!(
        pljson,
        "  \"batched_gate_applies\": {batched_gate_applies},"
    );
    let _ = writeln!(pljson, "  \"batched_gate_ok\": {batched_gate_ok},");
    let _ = writeln!(pljson, "  \"gate_speedup\": {PARALLEL_SPEEDUP_GATE:.3},");
    let _ = writeln!(pljson, "  \"gate_applies\": {parallel_gate_applies},");
    let _ = writeln!(pljson, "  \"gate_status\": \"{parallel_gate_status}\",");
    let _ = writeln!(pljson, "  \"gate_ok\": {parallel_gate_ok},");
    let _ = writeln!(pljson, "  \"bit_identical\": {parallel_identical}");
    pljson.push_str("}\n");
    std::fs::write("BENCH_parallel.json", &pljson).expect("write parallel report");
    println!("wrote BENCH_parallel.json");

    // --- BENCH_server.json: the sharded-runtime scalability gate. ---
    let join = |vals: &[String]| vals.join(", ");
    let mut sjson = String::from("{\n");
    let _ = writeln!(sjson, "  \"harness\": \"perf_report/server_scalability\",");
    let _ = writeln!(sjson, "  \"scale_pct\": {},", args.scale_pct);
    let _ = writeln!(sjson, "  \"streams\": {SERVER_STREAMS},");
    let _ = writeln!(sjson, "  \"events\": {total_server_events},");
    let _ = writeln!(sjson, "  \"available_cores\": {cores},");
    let _ = writeln!(
        sjson,
        "  \"shard_counts\": [{}],",
        join(&SERVER_SHARD_COUNTS.map(|s| s.to_string()))
    );
    let _ = writeln!(
        sjson,
        "  \"secs\": [{}],",
        join(
            &server_secs
                .iter()
                .map(|s| format!("{s:.4}"))
                .collect::<Vec<_>>()
        )
    );
    let _ = writeln!(
        sjson,
        "  \"events_per_sec\": [{}],",
        join(
            &server_eps
                .iter()
                .map(|e| format!("{e:.1}"))
                .collect::<Vec<_>>()
        )
    );
    let _ = writeln!(sjson, "  \"speedup_at_max_shards\": {server_speedup:.3},");
    let _ = writeln!(sjson, "  \"gate_speedup\": {SERVER_SPEEDUP_GATE:.3},");
    let _ = writeln!(sjson, "  \"gate_applies\": {server_gate_applies},");
    let _ = writeln!(sjson, "  \"gate_status\": \"{server_gate_status}\",");
    let _ = writeln!(sjson, "  \"gate_ok\": {server_gate_ok},");
    let _ = writeln!(sjson, "  \"bit_identical\": {server_identical}");
    sjson.push_str("}\n");
    std::fs::write("BENCH_server.json", &sjson).expect("write server report");
    println!("wrote BENCH_server.json");

    // --- BENCH_storage.json: the durable-backend overhead gate. ---
    let mut stjson = String::from("{\n");
    let _ = writeln!(stjson, "  \"harness\": \"perf_report/storage_backend\",");
    let _ = writeln!(stjson, "  \"scale_pct\": {},", args.scale_pct);
    let _ = writeln!(stjson, "  \"config\": \"paper\",");
    let _ = writeln!(stjson, "  \"policy\": \"MostGarbage\",");
    let _ = writeln!(stjson, "  \"events\": {},", paper_events.len());
    let _ = writeln!(stjson, "  \"bare_secs\": {storage_bare_secs:.4},");
    let _ = writeln!(stjson, "  \"log_only_secs\": {storage_log_secs:.4},");
    let _ = writeln!(
        stjson,
        "  \"snapshot_and_log_secs\": {storage_snap_secs:.4},"
    );
    let _ = writeln!(
        stjson,
        "  \"bare_events_per_sec\": {:.1},",
        paper_event_count / storage_bare_secs.max(1e-9)
    );
    let _ = writeln!(
        stjson,
        "  \"log_only_events_per_sec\": {:.1},",
        paper_event_count / storage_log_secs.max(1e-9)
    );
    let _ = writeln!(
        stjson,
        "  \"snapshot_and_log_events_per_sec\": {:.1},",
        paper_event_count / storage_snap_secs.max(1e-9)
    );
    let _ = writeln!(
        stjson,
        "  \"log_only_throughput_ratio\": {best_log_ratio:.4},"
    );
    let _ = writeln!(
        stjson,
        "  \"snapshot_and_log_throughput_ratio\": {best_snap_ratio:.4},"
    );
    let _ = writeln!(stjson, "  \"gate_ratio\": 0.90,");
    let _ = writeln!(stjson, "  \"gate_applies\": {storage_gate_applies},");
    let _ = writeln!(stjson, "  \"gate_status\": \"{storage_gate_status}\",");
    let _ = writeln!(stjson, "  \"gate_ok\": {storage_gate_ok},");
    let _ = writeln!(stjson, "  \"bit_identical\": {storage_identical},");
    let _ = writeln!(stjson, "  \"recovery\": {{");
    let _ = writeln!(
        stjson,
        "    \"events_replayed\": {},",
        recovered.events_replayed
    );
    let _ = writeln!(stjson, "    \"secs\": {recovery_secs:.4},");
    let _ = writeln!(stjson, "    \"events_per_sec\": {recovery_eps:.1},");
    let _ = writeln!(stjson, "    \"safepoints\": {},", recovered.safepoints);
    let _ = writeln!(
        stjson,
        "    \"snapshots_verified\": {},",
        recovered.snapshots_verified
    );
    let _ = writeln!(stjson, "    \"digest_match\": {recovery_digest_match}");
    let _ = writeln!(stjson, "  }}");
    stjson.push_str("}\n");
    std::fs::write("BENCH_storage.json", &stjson).expect("write storage report");
    println!("wrote BENCH_storage.json");

    if !identical
        || !sweep_identical
        || !sweep_gate_ok
        || !policy_gate_ok
        || !telemetry_gate_ok
        || !telemetry_identical
        || !parallel_gate_ok
        || !server_gate_ok
        || !storage_gate_ok
    {
        std::process::exit(1);
    }
}
