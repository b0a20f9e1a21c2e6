//! Crash-recovery smoke tooling for the durable storage backend.
//!
//! ```text
//! recover_tool run <dir> [policy] [seed]            # full durable run, prints digest
//! recover_tool crash <dir> <events> [policy] [seed] # persist, abandon mid-run
//! recover_tool recover <dir> [--expect DIGEST]      # replay; nonzero on mismatch
//! ```
//!
//! `run` persists a small workload (snapshots + change log) into `dir` and
//! prints the [`outcome_digest`] of the finished run. `crash` does the
//! same but *abandons* the shard after `<events>` events — no final
//! snapshot, no clean log close, buffered frames dropped on the floor —
//! simulating a process kill. `recover` rebuilds the run from the
//! directory alone and prints what it found; with `--expect` it exits
//! nonzero unless the recovered digest matches, which is how CI pins that
//! a recovered run is bit-identical to the uninterrupted one.

use pgc_core::PolicyKind;
use pgc_durable::DurabilityConfig;
use pgc_sim::{outcome_digest, recover, RunConfig, RunOutcome, Shard, Simulation};
use pgc_telemetry::TelemetryLevel;
use pgc_workload::{EventBlock, SyntheticWorkload, BLOCK_EVENTS};
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage:\n  recover_tool run <dir> [policy] [seed]\n  recover_tool crash <dir> <events> [policy] [seed]\n  recover_tool recover <dir> [--expect DIGEST]"
    );
    exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("crash") => crash(&args[1..]),
        Some("recover") => do_recover(&args[1..]),
        _ => usage(),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        exit(1);
    }
}

fn parse_policy_seed(args: &[String]) -> Result<(PolicyKind, u64), String> {
    let policy = match args.first() {
        Some(p) => p.parse()?,
        None => PolicyKind::UpdatedPointer,
    };
    let seed = match args.get(1) {
        Some(s) => s.parse().map_err(|_| "seed must be an integer")?,
        None => 1,
    };
    Ok((policy, seed))
}

fn config(policy: PolicyKind, seed: u64, dir: &str) -> RunConfig {
    RunConfig::small()
        .with_policy(policy)
        .with_seed(seed)
        .with_durability(DurabilityConfig::snapshot_and_log(dir).with_snapshot_every(2))
}

fn print_digest(label: &str, out: &RunOutcome) {
    println!(
        "{label}: policy {} seed {} events {} collections {} digest {:016x}",
        out.policy.name(),
        out.seed,
        out.totals.events,
        out.totals.collections,
        outcome_digest(out)
    );
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(dir) = args.first() else { usage() };
    let (policy, seed) = parse_policy_seed(&args[1..])?;
    let cfg = config(policy, seed, dir);
    let out = Simulation::builder(&cfg)
        .telemetry(TelemetryLevel::Metrics)
        .run()
        .map_err(|e| e.to_string())?;
    print_digest("run", &out);
    Ok(())
}

fn crash(args: &[String]) -> Result<(), String> {
    let [dir, events, rest @ ..] = args else {
        usage()
    };
    let budget: usize = events.parse().map_err(|_| "events must be an integer")?;
    let (policy, seed) = parse_policy_seed(rest)?;
    let cfg = config(policy, seed, dir);
    let events: Vec<_> = SyntheticWorkload::new(cfg.workload.clone())
        .map_err(|e| e.to_string())?
        .collect();
    let budget = budget.min(events.len());
    let mut shard = Shard::new(&cfg).map_err(|e| e.to_string())?;
    shard.enable_telemetry(TelemetryLevel::Metrics);
    let mut block = EventBlock::with_capacity(BLOCK_EVENTS);
    for chunk in events[..budget].chunks(BLOCK_EVENTS) {
        block.clear();
        for event in chunk {
            block.push(event);
        }
        shard.step_block(&block).map_err(|e| e.to_string())?;
    }
    println!(
        "crash: policy {} seed {} abandoned after {budget} of {} events",
        policy.name(),
        seed,
        events.len()
    );
    // Simulate the kill: leak the shard so neither the final snapshot nor
    // the buffered log tail is written — process exit drops the file
    // descriptors with whatever the OS already has.
    std::mem::forget(shard);
    Ok(())
}

fn do_recover(args: &[String]) -> Result<(), String> {
    let Some(dir) = args.first() else { usage() };
    let expect = match &args[1..] {
        [] => None,
        [flag, digest] if flag == "--expect" => Some(
            u64::from_str_radix(digest.trim_start_matches("0x"), 16)
                .map_err(|_| "DIGEST must be hex")?,
        ),
        _ => usage(),
    };
    let rec = recover(dir.as_ref()).map_err(|e| e.to_string())?;
    println!(
        "recovered: {} events, {} safepoints, {} snapshots verified ({} skipped), torn tail: {}",
        rec.events_replayed,
        rec.safepoints,
        rec.snapshots_verified,
        rec.snapshot_files_skipped,
        match &rec.torn_tail {
            Some(t) => format!("yes (segment {} @{}: {})", t.segment, t.offset, t.reason),
            None => "no".to_string(),
        }
    );
    print_digest("recover", &rec.outcome);
    if let Some(want) = expect {
        let got = outcome_digest(&rec.outcome);
        if got != want {
            return Err(format!(
                "digest mismatch: expected {want:016x}, got {got:016x}"
            ));
        }
        println!("digest matches");
    }
    Ok(())
}
