//! `paper_sweep`: the job the paper's users run. Every table and figure
//! binary is a sweep of the six paper policies over several seeds of the
//! paper's headline configuration.
//!
//! A pass is one sweep on a fresh `TraceCache` with two job threads, each
//! run serial inside: `Experiment::run_jobs` over the seed-major
//! (seed × policy) grid that `Experiment::compare` builds. `compare` is
//! `run_jobs` plus a fold of each policy's runs into summary rows; calling
//! `run_jobs` keeps each run's outcome, which the digest check needs.
//! Trace recording is inside the timed region, because every sweep
//! process pays for it.

use crate::report::{
    check_digest, repeat_passes, repeat_setup, CpuClock, Named, Options, PassCost, Report,
    MIN_PASSES,
};
use crate::trace::{fan_out, replay_traced, Ledger};
use pgc_core::PolicyKind;
use pgc_sim::{outcome_digest, Experiment, RunConfig, Simulation};
use pgc_types::Result;
use pgc_workload::{EncodedTrace, TraceCache};
use std::sync::Arc;
use std::time::Instant;

/// Seeds per sweep.
pub const SEEDS: usize = 4;
/// Job threads.
pub const THREADS: usize = 2;

fn record(seed: u64, ledger: &mut Ledger) -> Result<Arc<EncodedTrace>> {
    let params = RunConfig::paper(PolicyKind::NoCollection, seed).workload;
    let trace = ledger.time("workload.record", || EncodedTrace::record(params))?;
    ledger.count("workload.recorded_events", trace.events() as f64);
    ledger.count("workload.recorded_bytes", trace.byte_len() as f64);
    Ok(Arc::new(trace))
}

/// Runs the workload.
pub fn run(opts: &Options) -> Result<Report> {
    let seeds = opts.seeds(SEEDS);
    // (seed index, configuration) in `Experiment::compare`'s job order.
    let jobs: Vec<(usize, RunConfig)> = seeds
        .iter()
        .enumerate()
        .flat_map(|(si, &seed)| {
            PolicyKind::PAPER
                .iter()
                .map(move |&p| (si, RunConfig::paper(p, seed)))
        })
        .collect();
    let mut report = Report {
        threads: THREADS,
        ..Report::default()
    };

    // Set-up: record each seed's trace for the reference runs.
    let (traces, setup_s) = repeat_setup(|| {
        let mut scratch = Ledger::default();
        seeds
            .iter()
            .map(|&s| record(s, &mut scratch))
            .collect::<Result<Vec<_>>>()
    })?;
    report.setup_s = setup_s;
    let events: u64 = traces.iter().map(|t| t.events()).sum();
    let bytes: usize = traces.iter().map(|t| t.byte_len()).sum();
    report.stored_bytes_per_event = bytes as f64 / events as f64;

    // Reference digests: a dedicated run of each job, outside the timed
    // region.
    let (expected, _) = fan_out(THREADS, &jobs, |(si, cfg), _| {
        Simulation::builder(cfg)
            .trace(&traces[*si])
            .run()
            .map(|o| outcome_digest(&o))
    });
    let expected: Vec<u64> = expected.into_iter().collect::<Result<_>>()?;
    drop(traces);
    let label = |i: usize| {
        let (_, cfg) = &jobs[i];
        format!("{} seed {}", cfg.policy, cfg.workload.seed)
    };

    let (untraced_s, traced_s) = opts.budgets();
    let passes = repeat_passes(untraced_s, MIN_PASSES, |_| {
        let cache = TraceCache::new();
        let labelled: Vec<(usize, RunConfig)> = jobs
            .iter()
            .enumerate()
            .map(|(i, (_, cfg))| (i, cfg.clone()))
            .collect();
        let cpu = CpuClock::start();
        let t = Instant::now();
        let out = Experiment::new()
            .with_threads(THREADS)
            .with_cache(&cache)
            .run_jobs(labelled)?;
        let wall_s = t.elapsed().as_secs_f64();
        let cpu_s = cpu.elapsed();
        for (i, o) in &out {
            check_digest(&mut report.checks, &label(*i), o, expected[*i]);
        }
        Ok::<_, pgc_types::PgcError>(PassCost {
            wall_s,
            cpu_s,
            events: out.iter().map(|(_, o)| o.totals.events).sum(),
        })
    })?;
    report.set_passes(passes);
    report
        .named
        .push(Named::over_passes("sweep_s", "s", &report.wall_s));

    if opts.traced {
        let mut ledger = Ledger::default();
        let traced_wall = repeat_passes(traced_s, 2, |_| {
            let t = Instant::now();
            let (recorded, rec_ledger) = fan_out(THREADS, &seeds, |&s, l| record(s, l));
            let recorded: Vec<Arc<EncodedTrace>> = recorded.into_iter().collect::<Result<_>>()?;
            let (runs, run_ledger) = fan_out(THREADS, &jobs, |(si, cfg), l| {
                replay_traced(cfg, &recorded[*si], None, l)
            });
            let wall = t.elapsed().as_secs_f64();
            ledger.merge(rec_ledger);
            ledger.merge(run_ledger);
            for (i, run) in runs.into_iter().enumerate() {
                let label = format!("traced {}", label(i));
                check_digest(&mut report.checks, &label, &run?.outcome, expected[i]);
            }
            Ok::<_, pgc_types::PgcError>(wall)
        })?;
        report.replay_layers(&ledger, traced_wall.len());
        report.process_layers(&traced_wall, ledger.total_span_ns(), THREADS);
    }
    Ok(report)
}
