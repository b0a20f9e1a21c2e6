//! Command-line entry point: runs one workload (or all three, each in its
//! own process) and prints its metrics, then the result as one JSON line.
//!
//! ```text
//! perfbench --workload paper_sweep|durable|fleet|all [--seed N] [--seconds S] [--trace 0|1]
//! ```

use perfbench::json::{Json, Metric, RunResult};
use perfbench::machine::{peak_rss_mib, Fingerprint};
use perfbench::report::{Named, Options, Report, END_TO_END, PER_LAYER};
use perfbench::stats::median;
use perfbench::{durable, fleet, sweep};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

const USAGE: &str =
    "usage: perfbench --workload paper_sweep|durable|fleet|all [--seed N] [--seconds S] [--trace 0|1]";
const WORKLOADS: [&str; 3] = ["paper_sweep", "durable", "fleet"];
/// Base seed when none is given.
const DEFAULT_SEED: u64 = 1;
/// Measured seconds when none are given.
const DEFAULT_SECONDS: f64 = 30.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => out.workload = value,
            "--seed" => out.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                out.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number of seconds"))?
            }
            "--trace" => {
                out.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if out.workload != "all" && !WORKLOADS.contains(&out.workload.as_str()) {
        return Err(format!("unknown workload `{}`", out.workload));
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    // Data directories live inside the working directory (the checkout)
    // and are removed before exit.
    let data_root =
        PathBuf::from(".perfbench-data").join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&data_root) {
        eprintln!("cannot create {}: {e}", data_root.display());
        return ExitCode::FAILURE;
    }
    let opts = Options {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        data_root: data_root.clone(),
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.traced as u8
    );
    let outcome = match args.workload.as_str() {
        "paper_sweep" => sweep::run(&opts),
        "durable" => durable::run(&opts),
        _ => fleet::run(&opts),
    };
    let threads = outcome.as_ref().map_or(0, |r| r.threads);
    let fingerprint = Fingerprint::read(threads, &data_root);
    let _ = std::fs::remove_dir_all(&data_root);
    let _ = std::fs::remove_dir(".perfbench-data");
    println!("machine {}", fingerprint.to_json().render());

    let result = match outcome {
        Ok(report) => print_report(&report, args.traced),
        Err(e) => {
            println!("error: {e}");
            RunResult {
                correct: false,
                attempted: 1,
                failed: 1,
                metrics: Vec::new(),
            }
        }
    };
    println!("{}", result.to_json().render());
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Prints the human-readable report and returns the result line.
fn print_report(report: &Report, traced: bool) -> RunResult {
    let checks = &report.checks;
    let failed_frac = checks.failed as f64 / checks.attempted.max(1) as f64;
    let setup_s = median(&report.setup_s);
    let peak = peak_rss_mib().unwrap_or(0.0);
    println!(
        "  setup_s = {setup_s} s (median of {} set-ups)",
        report.setup_s.len()
    );
    let cpu = Named::over_passes("cpu_ns_per_event", "ns", &report.cpu_ns_per_event());
    for n in report.named.iter().chain([&cpu]) {
        println!("  {} = {} {} ({})", n.name, n.value, n.unit, n.note);
    }
    println!("  peak_rss_mb = {peak} MiB (VmHWM of the whole run)");
    println!(
        "  failed_frac = {failed_frac} ({} of {} checked outputs failed)",
        checks.failed, checks.attempted
    );
    for f in &checks.failures {
        println!("  FAILED: {f}");
    }
    let metrics = if traced {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = report.layers.get(name).copied().unwrap_or(0.0);
                let note = report
                    .layer_notes
                    .get(name)
                    .map_or(String::new(), |n| format!(" ({n})"));
                println!("  layer {name} = {value} {unit}{note}");
                metric(name, value, unit)
            })
            .collect()
    } else {
        let values = [
            setup_s,
            median(&report.wall_s),
            median(&report.events_per_s),
            median(&report.cpu_ns_per_event()),
            report.stored_bytes_per_event,
            peak,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| metric(name, value, unit))
            .collect()
    };
    RunResult {
        correct: checks.failed == 0 && checks.attempted > 0,
        attempted: checks.attempted,
        failed: checks.failed,
        metrics,
    }
}

fn metric(name: &str, value: f64, unit: &str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit: unit.into(),
    }
}

/// Runs every workload, each in a child process of its own so that its
/// peak memory is its own, and fails if any of them fails.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this program: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for workload in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }])
            .status();
        ok &= status.is_ok_and(|s| s.success());
    }
    let summary = Json::Obj(vec![("all_correct".into(), Json::Bool(ok))]);
    println!("{}", summary.render());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
