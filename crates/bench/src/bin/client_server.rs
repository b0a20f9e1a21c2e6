//! Multi-tenant client/server run on the sharded runtime.
//!
//! The paper evaluates one client against a local disk and notes its
//! simulator could "model network costs for a distributed or
//! client/server database". Earlier revisions of this binary priced a
//! single run under a page-server cost model; this one runs the *server*:
//! many client streams, each a tenant with its own partitioned database,
//! selection policy, and client cache, multiplexed onto a fixed fleet of
//! shard worker threads behind the deterministic router, with a few
//! cross-tenant references flowing through the inter-shard remset.
//!
//! The question it answers: **does multi-tenancy cost anything in
//! fidelity?** It does not — the binary spot-checks that a stream's
//! totals and victim sequence on the fleet are bit-identical to a
//! dedicated single-`Simulation` run of the same recorded trace, and reports
//! aggregate throughput per shard alongside the fleet-wide telemetry
//! merge.
//!
//! ```text
//! cargo run --release -p pgc-bench --bin client_server \
//!     [--shards N] [--streams M] [--scale PCT]
//! ```

use pgc_bench::{emit, CommonArgs};
use pgc_core::PolicyKind;
use pgc_server::{Server, ServerConfig, StreamId, TelemetryLevel};
use pgc_sim::{paper, RunConfig, Simulation};
use pgc_workload::{EncodedTrace, NodeId, TraceSegment};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Events per submitted segment: small enough that thousands of streams
/// interleave on the inboxes, large enough to amortize the ring hop.
const BATCH: u64 = 2048;

fn main() {
    // Server-specific flags peel off before the common ones parse.
    let mut shards = 4usize;
    let mut streams = 8usize;
    let mut rest = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--shards" => {
                shards = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--shards needs a positive integer");
            }
            "--streams" => {
                streams = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--streams needs a positive integer");
            }
            other => rest.push(other.to_string()),
        }
    }
    let args = CommonArgs::parse_from(rest);
    assert!(shards >= 1, "--shards must be at least 1");
    assert!(streams >= 1, "--streams must be at least 1");
    const CLIENT_PAGES: u64 = 16;

    // One tenant per stream: the paper's policy slate round-robined over
    // the streams, each on its own seed, each with a client cache in
    // front of the server buffer (the page-server cost model).
    println!("generating {streams} tenant workloads...");
    let configs: Vec<(StreamId, RunConfig)> = (0..streams as u64)
        .map(|i| {
            let policy = PolicyKind::PAPER[i as usize % PolicyKind::PAPER.len()];
            let mut cfg = paper::headline(policy, i + 1);
            cfg.workload.target_allocated = args.scale_bytes(cfg.workload.target_allocated);
            cfg.db = cfg.db.with_client_cache_pages(CLIENT_PAGES);
            (StreamId(i), cfg)
        })
        .collect();
    // Record each tenant's workload once and carve it into segments at
    // generation time: every submit on the timed path is then an `Arc`
    // bump plus a byte range — no per-batch copy, no per-event allocation.
    let traces: Vec<Arc<EncodedTrace>> = configs
        .iter()
        .map(|(_, cfg)| Arc::new(EncodedTrace::record(cfg.workload.clone()).expect("record")))
        .collect();
    let mut batches: Vec<VecDeque<TraceSegment>> = traces
        .iter()
        .map(|trace| {
            EncodedTrace::segments(trace, BATCH)
                .expect("segment tiling")
                .into()
        })
        .collect();

    // Open every stream, then feed the fleet round-robin in segments —
    // the interleaving a real server would see.
    println!("running {streams} streams on {shards} shards...");
    let t0 = Instant::now();
    let mut server =
        Server::start(ServerConfig::new(shards).with_telemetry(TelemetryLevel::Metrics));
    for (stream, cfg) in &configs {
        server.open_stream(*stream, cfg.clone()).expect("open");
    }
    loop {
        let mut any = false;
        for (i, (stream, _)) in configs.iter().enumerate() {
            if let Some(segment) = batches[i].pop_front() {
                server.submit_segment(*stream, segment).expect("submit");
                any = true;
            }
        }
        if !any {
            break;
        }
    }
    // Cross-tenant references: each tenant points at its neighbor's first
    // few objects — inter-shard remset traffic over the barrier bus.
    for i in 0..streams as u64 {
        let target = StreamId((i + 1) % streams as u64);
        for node in 0..4 {
            server
                .link(StreamId(i), target, NodeId(node))
                .expect("link");
        }
    }
    let fleet = server.shutdown().expect("fleet shutdown");
    let secs = t0.elapsed().as_secs_f64();

    // Fidelity spot-check: stream 0 on the fleet vs a dedicated run.
    let (stream0, cfg0) = &configs[0];
    let dedicated = Simulation::builder(cfg0)
        .trace(&traces[0])
        .run()
        .expect("dedicated run");
    let fleet0 = fleet.outcome(*stream0).expect("stream 0 outcome");
    let identical =
        fleet0.totals == dedicated.totals && fleet0.collections == dedicated.collections;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{streams} streams on {shards} shards; client cache {CLIENT_PAGES} pages per tenant"
    );
    let _ = writeln!(
        out,
        "\n{:<7} {:>8} {:>14} {:>13} {:>14} {:>9}",
        "Shard", "streams", "bus events", "activations", "reclaimed KB", "ring hwm"
    );
    for shard in fleet.fleet.shards() {
        let _ = writeln!(
            out,
            "{:<7} {:>8} {:>14} {:>13} {:>14.0} {:>9}",
            shard.shard,
            shard.streams,
            shard.snapshot.counters.events,
            shard.snapshot.counters.activations,
            shard.snapshot.counters.reclaimed_bytes as f64 / 1024.0,
            shard.ring_high_water,
        );
    }
    let merged = fleet.fleet.merged();
    let _ = writeln!(
        out,
        "\nfleet: {} events in {secs:.2}s ({:.0} events/sec aggregate), {} collections",
        fleet.total_events(),
        fleet.total_events() as f64 / secs.max(1e-9),
        fleet.total_collections(),
    );
    if let Some(snap) = &merged {
        let _ = writeln!(
            out,
            "telemetry merge: {} sessions, {} activations recorded",
            snap.runs, snap.counters.activations
        );
    }
    let r = fleet.remset;
    let _ = writeln!(
        out,
        "inter-shard remset: {} registered, {} cleaned, {} relocated, {} dangling",
        r.registered, r.cleaned, r.relocated, r.dangling
    );
    let _ = writeln!(
        out,
        "stream 0 vs dedicated run: {}",
        if identical {
            "bit-identical"
        } else {
            "MISMATCH"
        }
    );

    emit(
        &args,
        "Client/Server runtime: multi-tenant streams on the sharded fleet",
        &out,
    );
    assert!(identical, "fleet run diverged from the dedicated run");
}
