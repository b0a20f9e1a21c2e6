//! Trace tooling: record, inspect, and replay workload traces.
//!
//! ```text
//! trace_tool record <tree|assembly> <seed> <out.trace>   # generate + save
//! trace_tool stats <file.trace>                          # event histogram
//! trace_tool head <file.trace> [n]                       # first n events
//! trace_tool replay <file.trace> <policy>                # simulate + totals
//! ```
//!
//! The paper's methodology is trace-driven simulation; this binary is the
//! operational face of that: capture a workload once, inspect what it
//! contains, and drive any policy from the identical byte stream.

use pgc_core::PolicyKind;
use pgc_sim::{RunConfig, Simulation};
use pgc_workload::{
    read_trace, AssemblyParams, AssemblyWorkload, EncodedTrace, Event, TraceWriter, WorkloadParams,
};
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage:\n  trace_tool record <tree|assembly> <seed> <out.trace>\n  trace_tool stats <file.trace>\n  trace_tool head <file.trace> [n]\n  trace_tool replay <file.trace> <policy>"
    );
    exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("record") => record(&args[1..]),
        Some("stats") => stats(&args[1..]),
        Some("head") => head(&args[1..]),
        Some("replay") => replay(&args[1..]),
        Some("profile") => profile(&args[1..]),
        _ => usage(),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        exit(1);
    }
}

fn record(args: &[String]) -> Result<(), String> {
    let [kind, seed, path] = args else { usage() };
    let seed: u64 = seed.parse().map_err(|_| "seed must be an integer")?;
    let file = File::create(path).map_err(|e| e.to_string())?;
    let n = match kind.as_str() {
        // The tree workload records straight into the shared-trace engine's
        // encoded buffer; the file bytes are identical to the streaming
        // writer's.
        "tree" => {
            let trace = EncodedTrace::record(WorkloadParams::default().with_seed(seed))
                .map_err(|e| e.to_string())?;
            trace
                .write_to(BufWriter::new(file))
                .map_err(|e| e.to_string())?;
            trace.events()
        }
        "assembly" => {
            let mut writer = TraceWriter::new(BufWriter::new(file)).map_err(|e| e.to_string())?;
            let events: Box<dyn Iterator<Item = Event>> = Box::new(
                AssemblyWorkload::new(AssemblyParams::default().with_seed(seed))
                    .map_err(|e| e.to_string())?,
            );
            for e in events {
                writer.write_event(&e).map_err(|e| e.to_string())?;
            }
            let n = writer.events_written();
            writer.finish().map_err(|e| e.to_string())?;
            n
        }
        other => return Err(format!("unknown workload '{other}' (tree|assembly)")),
    };
    println!("recorded {n} events to {path}");
    Ok(())
}

fn load(path: &str) -> Result<Vec<Event>, String> {
    let file = File::open(path).map_err(|e| e.to_string())?;
    read_trace(BufReader::new(file)).map_err(|e| e.to_string())
}

fn stats(args: &[String]) -> Result<(), String> {
    let [path] = args else { usage() };
    let events = load(path)?;
    let mut creations = 0u64;
    let mut created_bytes = 0u64;
    let mut pointer_writes = 0u64;
    let mut deletions = 0u64;
    let mut visits = 0u64;
    let mut data_writes = 0u64;
    let mut add_slots = 0u64;
    for e in &events {
        match e {
            Event::CreateRoot { size, .. } | Event::CreateChild { size, .. } => {
                creations += 1;
                created_bytes += size.get();
            }
            Event::WritePointer { new, .. } => {
                pointer_writes += 1;
                if new.is_none() {
                    deletions += 1;
                }
            }
            Event::Visit { .. } => visits += 1,
            Event::DataWrite { .. } => data_writes += 1,
            Event::AddSlot { .. } => add_slots += 1,
        }
    }
    println!("events         {:>12}", events.len());
    println!(
        "creations      {:>12}  ({:.1} MB allocated)",
        creations,
        created_bytes as f64 / (1024.0 * 1024.0)
    );
    println!("pointer writes {pointer_writes:>12}  ({deletions} deletions)");
    println!("slot additions {add_slots:>12}");
    println!("visits         {visits:>12}");
    println!("data writes    {data_writes:>12}");
    Ok(())
}

fn head(args: &[String]) -> Result<(), String> {
    let (path, n) = match args {
        [path] => (path, 20usize),
        [path, n] => (path, n.parse().map_err(|_| "n must be an integer")?),
        _ => usage(),
    };
    for e in load(path)?.into_iter().take(n) {
        println!("{e:?}");
    }
    Ok(())
}

fn profile(args: &[String]) -> Result<(), String> {
    let [path, policy] = args else { usage() };
    let policy: PolicyKind = policy.parse()?;
    let events = load(path)?;
    let cfg = RunConfig::paper(policy, 0);
    let db = pgc_odb::Database::new(cfg.db.clone()).map_err(|e| e.to_string())?;
    let collector =
        pgc_core::Collector::with_kind(policy, cfg.db.gc_overwrite_threshold, 0, cfg.db.max_weight);
    let mut replayer = pgc_sim::Replayer::new(db, collector);
    for e in &events {
        replayer.apply(e).map_err(|e| e.to_string())?;
    }
    let report = pgc_odb::oracle::analyze(replayer.db());
    print!(
        "{}",
        pgc_sim::report::format_partition_profile(
            &replayer.db().partition_profile(),
            Some(&report),
        )
    );
    Ok(())
}

fn replay(args: &[String]) -> Result<(), String> {
    let [path, policy] = args else { usage() };
    let policy: PolicyKind = policy.parse()?;
    let events = load(path)?;
    let cfg = RunConfig::paper(policy, 0);
    let trace = EncodedTrace::from_events(cfg.workload.clone(), &events);
    let out = Simulation::builder(&cfg)
        .trace(&trace)
        .run()
        .map_err(|e| e.to_string())?;
    let t = &out.totals;
    println!("policy       {}", policy.name());
    println!("events       {}", t.events);
    println!(
        "page I/Os    {} app + {} gc = {}",
        t.app_ios,
        t.gc_ios,
        t.total_ios()
    );
    println!("collections  {}", t.collections);
    println!(
        "reclaimed    {:.0} KB of {:.0} KB generated ({:.1}%)",
        t.reclaimed_bytes.as_kib_f64(),
        t.actual_garbage_bytes().as_kib_f64(),
        t.fraction_reclaimed_pct()
    );
    println!(
        "storage      {:.0} KB across {} partitions",
        t.max_footprint.as_kib_f64(),
        t.partitions
    );
    Ok(())
}
