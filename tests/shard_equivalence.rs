//! Shard-count invariance for the multi-tenant server runtime.
//!
//! The whole point of `pgc-server`'s design — sessions as self-contained
//! `Shard`s, a pure-hash router, weak cross-shard links — is that shard
//! placement decides only *where* a session executes, never *what* it
//! computes. These tests pin that: the same client streams run on 1, 2,
//! and 4 shards must produce bit-identical per-stream totals, victim
//! sequences, and telemetry score bits, all equal to dedicated
//! single-`Simulation` runs; and the inter-shard remset must register
//! each cross-stream pointer exactly once, clean it when the target is
//! reclaimed, and report identical counters at every shard count.

use pgc::core::PolicyKind;
use pgc::prelude::{RunConfig, RunOutcome, Server, ServerConfig, Simulation, StreamId};
use pgc::telemetry::TelemetryLevel;
use pgc::workload::{EncodedTrace, Event, NodeId, SyntheticWorkload, TraceSegment};
use std::sync::Arc;

const STREAMS: usize = 5;
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];
const BATCH: usize = 512;

fn stream_configs() -> Vec<(StreamId, RunConfig)> {
    (0..STREAMS as u64)
        .map(|i| {
            let policy = PolicyKind::PAPER[i as usize % PolicyKind::PAPER.len()];
            let cfg = RunConfig::small().with_policy(policy).with_seed(i + 1);
            (StreamId(i), cfg)
        })
        .collect()
}

fn stream_events(configs: &[(StreamId, RunConfig)]) -> Vec<Vec<Event>> {
    configs
        .iter()
        .map(|(_, cfg)| {
            SyntheticWorkload::new(cfg.workload.clone())
                .expect("workload params")
                .collect()
        })
        .collect()
}

/// Nodes to cross-link per link-ring edge.
const LINKS_PER_EDGE: usize = 16;

/// A deterministic sample of nodes the target stream allocated in its
/// first half — spread across the allocation order so the sample mixes
/// long-lived tree spine with doomed subtree nodes (some targets must be
/// reclaimed later for the clean path to be exercised).
fn link_nodes(events: &[Event]) -> Vec<NodeId> {
    let allocated: Vec<NodeId> = events[..events.len() / 2]
        .iter()
        .filter_map(|e| match *e {
            Event::CreateRoot { node, .. } | Event::CreateChild { node, .. } => Some(node),
            _ => None,
        })
        .collect();
    let step = (allocated.len() / LINKS_PER_EDGE).max(1);
    allocated
        .iter()
        .step_by(step)
        .take(LINKS_PER_EDGE)
        .copied()
        .collect()
}

/// Each stream's events encoded once into a shared trace.
fn stream_traces(
    configs: &[(StreamId, RunConfig)],
    events: &[Vec<Event>],
) -> Vec<Arc<EncodedTrace>> {
    configs
        .iter()
        .zip(events)
        .map(|((_, cfg), events)| Arc::new(EncodedTrace::from_events(cfg.workload.clone(), events)))
        .collect()
}

/// Runs every stream on a fleet of `shards` shards, interleaving
/// `BATCH`-event segments of each stream's shared trace round-robin and
/// registering a ring of cross-stream links midway.
fn run_fleet(
    shards: usize,
    configs: &[(StreamId, RunConfig)],
    events: &[Vec<Event>],
) -> pgc::server::FleetOutcome {
    let mut server = Server::start(ServerConfig::new(shards).with_telemetry(TelemetryLevel::Full));
    for (stream, cfg) in configs {
        server.open_stream(*stream, cfg.clone()).expect("open");
    }
    let mut segments: Vec<Vec<TraceSegment>> = stream_traces(configs, events)
        .iter()
        .map(|trace| {
            let mut segs = EncodedTrace::segments(trace, BATCH as u64).expect("segments");
            segs.reverse(); // pop() from the back yields submission order
            segs
        })
        .collect();
    let mut cursors = vec![0usize; configs.len()];
    let mut linked = false;
    loop {
        let mut any = false;
        for (i, (stream, _)) in configs.iter().enumerate() {
            let at = cursors[i];
            if at >= events[i].len() {
                continue;
            }
            let end = (at + BATCH).min(events[i].len());
            let seg = segments[i].pop().expect("segment per batch");
            assert_eq!(seg.events(), (end - at) as u64, "segment tiling");
            server.submit_segment(*stream, seg).expect("submit_segment");
            cursors[i] = end;
            any = true;
        }
        // Halfway through the first stream, wire the link ring — early
        // enough that later collections reclaim or relocate some targets.
        if !linked && cursors[0] >= events[0].len() / 2 {
            linked = true;
            for i in 0..configs.len() {
                let target = StreamId((i + 1) as u64 % configs.len() as u64);
                for node in link_nodes(&events[(i + 1) % configs.len()]) {
                    // Twice on purpose: registration must be idempotent.
                    server.link(configs[i].0, target, node).expect("link");
                    server.link(configs[i].0, target, node).expect("link");
                }
            }
        }
        if !any {
            break;
        }
    }
    server.shutdown().expect("shutdown")
}

fn dedicated_runs(configs: &[(StreamId, RunConfig)], events: &[Vec<Event>]) -> Vec<RunOutcome> {
    configs
        .iter()
        .zip(stream_traces(configs, events))
        .map(|((_, cfg), trace)| {
            Simulation::builder(cfg)
                .trace(&trace)
                .telemetry(TelemetryLevel::Full)
                .run()
                .expect("dedicated run")
        })
        .collect()
}

#[test]
fn per_stream_results_are_shard_count_invariant() {
    let configs = stream_configs();
    let events = stream_events(&configs);
    let baseline = dedicated_runs(&configs, &events);

    for shards in SHARD_COUNTS {
        let fleet = run_fleet(shards, &configs, &events);
        assert_eq!(fleet.shards, shards);
        assert_eq!(fleet.outcomes.len(), STREAMS);
        for ((stream, cfg), dedicated) in configs.iter().zip(&baseline) {
            let outcome = fleet.outcome(*stream).expect("stream outcome");
            assert_eq!(
                outcome.totals, dedicated.totals,
                "{} totals diverged on {shards} shard(s) ({:?})",
                stream, cfg.policy
            );
            let fleet_victims: Vec<_> = outcome.collections.iter().map(|c| c.victim).collect();
            let solo_victims: Vec<_> = dedicated.collections.iter().map(|c| c.victim).collect();
            assert_eq!(
                fleet_victims, solo_victims,
                "{stream} victim sequence diverged on {shards} shard(s)"
            );
            assert_eq!(
                outcome.collections, dedicated.collections,
                "{stream} collection outcomes diverged on {shards} shard(s)"
            );
            // Full-level telemetry includes the score histograms and
            // per-activation records — every bit must survive hosting.
            assert_eq!(
                outcome.telemetry, dedicated.telemetry,
                "{stream} telemetry diverged on {shards} shard(s)"
            );
        }
    }
}

#[test]
fn fleet_aggregates_are_shard_count_invariant() {
    let configs = stream_configs();
    let events = stream_events(&configs);

    let fleets: Vec<_> = SHARD_COUNTS
        .iter()
        .map(|&shards| run_fleet(shards, &configs, &events))
        .collect();
    let first = &fleets[0];
    for fleet in &fleets[1..] {
        assert_eq!(
            fleet.total_events(),
            first.total_events(),
            "aggregate event count depends on shard count"
        );
        assert_eq!(fleet.total_collections(), first.total_collections());
        assert_eq!(
            fleet.remset, first.remset,
            "inter-shard remset counters depend on shard count"
        );
        // The fleet-wide telemetry merge folds counters and histograms,
        // which are order-independent — the aggregate must not notice how
        // sessions were grouped into shards.
        let a = fleet.fleet.merged().expect("telemetry enabled");
        let b = first.fleet.merged().expect("telemetry enabled");
        assert_eq!(a.runs, b.runs, "merged session count");
        assert_eq!(a.counters, b.counters, "merged counters");
        assert_eq!(fleet.fleet.streams(), first.fleet.streams());
    }
}

#[test]
fn cross_shard_links_register_once_and_clean_on_reclaim() {
    let configs = stream_configs();
    let events = stream_events(&configs);
    let fleet = run_fleet(2, &configs, &events);

    let stats = fleet.remset;
    // Each ring edge links LINKS_PER_EDGE nodes, each twice: idempotency
    // caps distinct registrations at streams × links-per-edge; duplicate
    // attempts must not double-count (resolved duplicates are absorbed,
    // unresolved ones count dangling).
    let attempted = (STREAMS * LINKS_PER_EDGE) as u64;
    assert!(
        stats.registered <= attempted,
        "duplicate link registrations were counted: {stats:?}"
    );
    assert!(
        stats.registered > 0,
        "no cross-stream link resolved — the ring never registered: {stats:?}"
    );
    // Every registration is eventually either live or cleaned; cleaning
    // only happens for registered links.
    assert!(
        stats.cleaned <= stats.registered,
        "cleaned more links than were registered: {stats:?}"
    );
    assert!(
        stats.cleaned > 0,
        "no linked target was reclaimed — the workload never exercised \
         the clean path: {stats:?}"
    );
}

/// Coalescing must be semantically invisible: a stream fed as many tiny
/// segments — alternating two unaligned sizes, over a near-empty ring that
/// forces heavy head-of-queue coalescing — must be bit-identical to one
/// whole-trace segment and to a dedicated run.
#[test]
fn coalesced_tiny_batches_match_one_big_batch() {
    let configs = stream_configs();
    let events = stream_events(&configs);
    let (stream, cfg) = configs[0].clone();
    let dedicated = &dedicated_runs(&configs[..1], &events[..1])[0];
    let trace = Arc::new(EncodedTrace::from_events(cfg.workload.clone(), &events[0]));

    // 97 and 31 events per segment, alternating: never block-aligned, so
    // the worker's scratch block refills at awkward offsets.
    const CHUNKS: [usize; 2] = [97, 31];
    let tiny = ServerConfig::new(1)
        .with_telemetry(TelemetryLevel::Full)
        .with_inbox_capacity(2);

    let mut interleaved = Server::start(tiny.clone());
    interleaved.open_stream(stream, cfg.clone()).expect("open");
    let mut at = 0;
    for chunk in CHUNKS.iter().cycle() {
        if at >= events[0].len() {
            break;
        }
        let end = (at + chunk).min(events[0].len());
        interleaved
            .submit_segment(stream, TraceSegment::encode(&events[0][at..end]))
            .expect("submit_segment");
        at = end;
    }
    let interleaved = interleaved.shutdown().expect("shutdown");

    let mut whole = Server::start(tiny);
    whole.open_stream(stream, cfg).expect("open");
    whole
        .submit_segment(stream, TraceSegment::whole(trace))
        .expect("submit_segment");
    let whole = whole.shutdown().expect("shutdown");

    let a = interleaved.outcome(stream).expect("outcome");
    let b = whole.outcome(stream).expect("outcome");
    assert_eq!(a.totals, b.totals, "coalescing changed the totals");
    assert_eq!(a.collections, b.collections);
    assert_eq!(
        a.telemetry, b.telemetry,
        "coalescing changed telemetry bits"
    );
    assert_eq!(a.totals, dedicated.totals);
    assert_eq!(a.collections, dedicated.collections);
    assert_eq!(a.telemetry, dedicated.telemetry);
}

/// A one-slot ring must throttle the producer, not drop or reorder: the
/// full workload still lands, and the high-water mark never exceeds the
/// configured capacity.
#[test]
fn one_slot_inbox_backpressures_without_losing_events() {
    let configs = stream_configs();
    let events = stream_events(&configs);
    let (stream, cfg) = configs[0].clone();

    let trace = Arc::new(EncodedTrace::from_events(cfg.workload.clone(), &events[0]));
    let mut server = Server::start(ServerConfig::new(1).with_inbox_capacity(1));
    server.open_stream(stream, cfg).expect("open");
    for segment in EncodedTrace::segments(&trace, 64).expect("segments") {
        server.submit_segment(stream, segment).expect("submit");
    }
    let fleet = server.shutdown().expect("shutdown");
    assert_eq!(fleet.total_events(), events[0].len() as u64);
    assert_eq!(fleet.ring_high_water, vec![1], "one slot bounds occupancy");
}

/// A worker that panics mid-run must surface as a session error at
/// shutdown — carrying the panic message — instead of aborting the whole
/// process or deadlocking parked producers. (The dense-id debug assertion
/// in the replayer only fires in debug builds.)
#[test]
#[cfg(debug_assertions)]
fn worker_panic_surfaces_as_session_error_at_shutdown() {
    use pgc::types::Bytes;

    let (stream, cfg) = stream_configs()[0].clone();
    let mut server = Server::start(ServerConfig::new(1));
    server.open_stream(stream, cfg).expect("open");
    // A wildly non-dense node id trips the replayer's dense-id invariant
    // on the worker thread.
    let poison = Event::CreateRoot {
        node: NodeId(1_000_000),
        size: Bytes(64),
        slots: 2,
    };
    server
        .submit_segment(stream, TraceSegment::encode(&[poison]))
        .expect("enqueue");
    let err = server.shutdown().expect_err("worker panicked");
    let msg = err.to_string();
    assert!(
        msg.contains("shard worker panicked"),
        "panic not surfaced: {msg}"
    );
    assert!(msg.contains("dense"), "panic payload lost: {msg}");
}
