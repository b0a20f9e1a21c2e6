//! `fleet`: the sharded server. Tenants are quarter-paper-size databases,
//! each with a 16-page client cache, under the implementable policies other
//! than NoCollection, assigned round-robin. One client, the calling
//! thread, opens every stream on `Server::start(ServerConfig::new(2))`,
//! submits each tenant's trace as small `TraceSegment`s round-robin across
//! tenants, adds a cross-stream `link` per tenant after every round, and
//! calls `shutdown`.
//!
//! This is the only workload that uses the ring inboxes and their
//! backpressure, session coalescing, the striped inter-shard remset and
//! the tiered client-cache buffer; it does no oracle marking.

use crate::report::{
    check_digest, repeat_passes, repeat_setup, CpuClock, Named, Options, PassCost, Report,
    MIN_PASSES,
};
use crate::stats::median;
use crate::trace::{replay_traced, Ledger};
use pgc_core::PolicyKind;
use pgc_server::{FleetOutcome, Server, ServerConfig, StreamHandle, StreamId};
use pgc_sim::{outcome_digest, RunConfig, Simulation};
use pgc_types::{Bytes, PgcError, Result};
use pgc_workload::{EncodedTrace, Event, NodeId, TraceSegment};
use std::sync::Arc;
use std::time::Instant;

/// Tenant streams per fleet.
pub const TENANTS: usize = 32;
/// Shard worker threads.
pub const SHARDS: usize = 2;
/// Events per submitted segment (one decode block, so segment bounds come
/// straight from the trace's marks).
pub const SEGMENT_EVENTS: u64 = 4096;
/// Client cache pages per tenant.
pub const CLIENT_CACHE_PAGES: u64 = 16;

struct Tenant {
    cfg: RunConfig,
    trace: Arc<EncodedTrace>,
    segments: Vec<TraceSegment>,
}

/// A cross-stream reference added after a round: `source` references
/// `node` of `target`.
#[derive(Clone, Copy)]
struct Link {
    source: usize,
    target: usize,
    node: NodeId,
}

struct Setup {
    tenants: Vec<Tenant>,
    /// Links to add after each round of segments.
    links: Vec<Vec<Link>>,
}

/// The first object a segment creates, if any.
fn first_created(segment: &TraceSegment) -> Result<Option<NodeId>> {
    let mut cursor = segment.cursor();
    while let Some(event) = cursor.next_event()? {
        if let Event::CreateRoot { node, .. } | Event::CreateChild { node, .. } = event {
            return Ok(Some(node));
        }
    }
    Ok(None)
}

fn setup(opts: &Options, ledger: &mut Ledger) -> Result<Setup> {
    let policies: Vec<PolicyKind> = PolicyKind::ALL
        .into_iter()
        .filter(|p| p.is_implementable() && *p != PolicyKind::NoCollection)
        .collect();
    let paper_bytes = RunConfig::paper(PolicyKind::NoCollection, 0)
        .workload
        .target_allocated
        .get();
    let tenants = opts
        .seeds(TENANTS)
        .into_iter()
        .enumerate()
        .map(|(i, seed)| {
            let cfg = RunConfig::paper(policies[i % policies.len()], seed)
                .with_heap_growth(Bytes(paper_bytes / 4))
                .with_client_cache_pages(CLIENT_CACHE_PAGES);
            let trace = ledger.time("workload.record", || {
                EncodedTrace::record(cfg.workload.clone())
            })?;
            ledger.count("workload.recorded_events", trace.events() as f64);
            ledger.count("workload.recorded_bytes", trace.byte_len() as f64);
            let trace = Arc::new(trace);
            let segments = EncodedTrace::segments(&trace, SEGMENT_EVENTS)?;
            Ok(Tenant {
                cfg,
                trace,
                segments,
            })
        })
        .collect::<Result<Vec<_>>>()?;
    let rounds = tenants.iter().map(|t| t.segments.len()).max().unwrap_or(0);
    let mut links = vec![Vec::new(); rounds];
    for (round, round_links) in links.iter_mut().enumerate() {
        for source in 0..tenants.len() {
            let target = (source + 1) % tenants.len();
            if let Some(seg) = tenants[target].segments.get(round) {
                if let Some(node) = first_created(seg)? {
                    round_links.push(Link {
                        source,
                        target,
                        node,
                    });
                }
            }
        }
    }
    Ok(Setup { tenants, links })
}

/// One fleet from the first `open_stream` until `shutdown` returns. With
/// `ledger`, each client call is a span and each submit's blocking time a
/// sample.
fn serve(s: &Setup, mut ledger: Option<&mut Ledger>) -> Result<(f64, FleetOutcome, Vec<usize>)> {
    let mut server = Server::start(ServerConfig::new(SHARDS));
    let mut span = |name: &str, ns: u64| {
        if let Some(l) = ledger.as_deref_mut() {
            l.add(name, ns);
            if name == "server.submit" {
                l.sample("server.submit_wait_us", ns as f64 / 1e3);
            }
        }
    };
    let started = Instant::now();
    let mut handles: Vec<StreamHandle> = Vec::with_capacity(s.tenants.len());
    for (i, tenant) in s.tenants.iter().enumerate() {
        let t = Instant::now();
        handles.push(server.open_stream(StreamId(i as u64), tenant.cfg.clone())?);
        span("server.open", t.elapsed().as_nanos() as u64);
    }
    for (round, links) in s.links.iter().enumerate() {
        for (tenant, handle) in s.tenants.iter().zip(&handles) {
            if let Some(seg) = tenant.segments.get(round) {
                let seg = seg.clone();
                let t = Instant::now();
                server.submit_segment(handle, seg)?;
                span("server.submit", t.elapsed().as_nanos() as u64);
            }
        }
        for link in links {
            let t = Instant::now();
            server.link(handles[link.source], handles[link.target], link.node)?;
            span("server.link", t.elapsed().as_nanos() as u64);
        }
    }
    let t = Instant::now();
    let fleet = server.shutdown()?;
    let shutdown_ns = t.elapsed().as_nanos() as u64;
    let wall = started.elapsed().as_secs_f64();
    span("server.shutdown", shutdown_ns);
    if let Some(l) = ledger {
        l.sample("server.shutdown_ms", shutdown_ns as f64 / 1e6);
    }
    Ok((
        wall,
        fleet,
        handles.iter().map(StreamHandle::shard).collect(),
    ))
}

fn check_fleet(report: &mut Report, fleet: &FleetOutcome, expected: &[u64], pass: &str) {
    report
        .checks
        .check(fleet.outcomes.len() == expected.len(), || {
            format!(
                "{pass}: {} stream outcomes for {} streams",
                fleet.outcomes.len(),
                expected.len()
            )
        });
    for (i, &want) in expected.iter().enumerate() {
        match fleet.outcome(StreamId(i as u64)) {
            Some(out) => check_digest(&mut report.checks, &format!("{pass} stream {i}"), out, want),
            None => report
                .checks
                .check(false, || format!("{pass}: stream {i} missing")),
        }
    }
}

/// Runs the workload.
pub fn run(opts: &Options) -> Result<Report> {
    let mut report = Report {
        threads: SHARDS,
        ..Report::default()
    };
    let ((s, record_ledger), setup_s) = repeat_setup(|| {
        let mut ledger = Ledger::default();
        setup(opts, &mut ledger).map(|s| (s, ledger))
    })?;
    report.setup_s = setup_s;
    let events: u64 = s.tenants.iter().map(|t| t.trace.events()).sum();
    let bytes: usize = s.tenants.iter().map(|t| t.trace.byte_len()).sum();
    report.stored_bytes_per_event = bytes as f64 / events as f64;

    // Reference digests: a dedicated replay of each tenant's trace, outside
    // the timed region. The traced run drives these replays block by block
    // for the simulator-layer metrics.
    let mut replay_ledger = record_ledger;
    let expected = s
        .tenants
        .iter()
        .map(|t| {
            let out = if opts.traced {
                replay_traced(&t.cfg, &t.trace, None, &mut replay_ledger)?.outcome
            } else {
                Simulation::builder(&t.cfg).trace(&t.trace).run()?
            };
            Ok(outcome_digest(&out))
        })
        .collect::<Result<Vec<u64>>>()?;

    let (untraced_s, traced_s) = opts.budgets();
    let passes = repeat_passes(untraced_s, MIN_PASSES, |pass| {
        let cpu = CpuClock::start();
        let (wall_s, fleet, _) = serve(&s, None)?;
        let cpu_s = cpu.elapsed();
        check_fleet(&mut report, &fleet, &expected, &format!("pass {pass}"));
        Ok::<_, PgcError>(PassCost {
            wall_s,
            cpu_s,
            events: fleet.total_events(),
        })
    })?;
    report.set_passes(passes);
    report.named.push(Named::over_passes(
        "fleet_events_per_s",
        "1/s",
        &report.events_per_s,
    ));

    if opts.traced {
        let mut ledger = Ledger::default();
        let mut high_water = Vec::new();
        let mut last = None;
        let traced_wall = repeat_passes(traced_s, 2, |pass| {
            let (wall, fleet, shards) = serve(&s, Some(&mut ledger))?;
            check_fleet(
                &mut report,
                &fleet,
                &expected,
                &format!("traced pass {pass}"),
            );
            high_water.push(fleet.ring_high_water.iter().copied().max().unwrap_or(0) as f64);
            last = Some((fleet, shards));
            Ok::<_, PgcError>(wall)
        })?;
        report.replay_layers(&replay_ledger, 1);
        report.layer_tail(
            "server.submit_wait_us",
            "p99",
            0.99,
            ledger.samples("server.submit_wait_us"),
        );
        report.layer(
            "server.shutdown_ms",
            median(ledger.samples("server.shutdown_ms")),
        );
        report.layer("server.ring_high_water", median(&high_water));
        if let Some((fleet, shards)) = last {
            let mut per_shard = [0u64; SHARDS];
            for (i, &shard) in shards.iter().enumerate() {
                if let Some(out) = fleet.outcome(StreamId(i as u64)) {
                    per_shard[shard] += out.totals.events;
                }
            }
            let mean = per_shard.iter().sum::<u64>() as f64 / SHARDS as f64;
            let most = per_shard.iter().copied().max().unwrap_or(0) as f64;
            report.layer("server.shard_imbalance", most / mean);
            report.layer("server.remset_registered", fleet.remset.registered as f64);
            report.layer("server.remset_cleaned", fleet.remset.cleaned as f64);
            report.layer("server.remset_relocated", fleet.remset.relocated as f64);
        }
        report.process_layers(&traced_wall, ledger.total_span_ns(), 1);
    }
    Ok(report)
}
