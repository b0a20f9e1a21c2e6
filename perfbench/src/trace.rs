//! Spans and counters recorded from the benchmark's own code, around each
//! public call into a layer of the program, plus the replay loop that
//! steps a [`Shard`] block by block so that each of those calls can be
//! timed on its own.
//!
//! Nothing here reaches inside the program. The one window into a call is
//! [`ActivationClock`], a bystander [`BarrierObserver`] on the shard's bus:
//! it timestamps `on_trigger`, `VictimSelected` and `CollectionCompleted`,
//! which split an activation into victim selection and collection.

use pgc_durable::{DurabilityConfig, DurableStore, LogObserver, SafepointSignal, StorageStats};
use pgc_odb::oracle::{self, OracleScratch};
use pgc_odb::{BarrierEvent, BarrierObserver, Database};
use pgc_sim::durable::manifest_for;
use pgc_sim::{RunConfig, RunOutcome, Shard, TelemetryLevel};
use pgc_types::Result;
use pgc_workload::{EncodedTrace, Event, EventBlock, BLOCK_EVENTS};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Per-thread record of span self times, samples and counters.
///
/// Every span is recorded as self time: where a span encloses another
/// (a block step encloses the activations it triggered), the caller
/// subtracts the inner span before adding the outer one, so the spans of
/// one thread never overlap and their sum is the time they account for.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    spans: BTreeMap<String, u64>,
    samples: BTreeMap<String, Vec<f64>>,
    counts: BTreeMap<String, f64>,
}

impl Ledger {
    /// Runs `f` as a span named `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.add(name, ns_since(t));
        out
    }

    /// Adds `ns` of self time to span `name`.
    pub fn add(&mut self, name: &str, ns: u64) {
        *self.spans.entry(name.to_string()).or_default() += ns;
    }

    /// Records one sample of distribution `name`.
    pub fn sample(&mut self, name: &str, value: f64) {
        self.samples
            .entry(name.to_string())
            .or_default()
            .push(value);
    }

    /// Adds `by` to counter `name`.
    pub fn count(&mut self, name: &str, by: f64) {
        *self.counts.entry(name.to_string()).or_default() += by;
    }

    /// Self time of span `name`, in nanoseconds.
    pub fn span_ns(&self, name: &str) -> u64 {
        self.spans.get(name).copied().unwrap_or(0)
    }

    /// Every sample of distribution `name`.
    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Counter `name`.
    pub fn counter(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Self time of every span together, in nanoseconds.
    pub fn total_span_ns(&self) -> u64 {
        self.spans.values().sum()
    }

    /// Folds another thread's ledger into this one.
    pub fn merge(&mut self, other: Ledger) {
        for (k, v) in other.spans {
            *self.spans.entry(k).or_default() += v;
        }
        for (k, v) in other.samples {
            self.samples.entry(k).or_default().extend(v);
        }
        for (k, v) in other.counts {
            *self.counts.entry(k).or_default() += v;
        }
    }
}

/// Runs `f` over `items` on `threads` threads, each claiming the next
/// item in order and recording into its own [`Ledger`]. Returns the
/// results in item order and the merged ledger.
pub fn fan_out<T: Sync, R: Send>(
    threads: usize,
    items: &[T],
    f: impl Fn(&T, &mut Ledger) -> R + Sync,
) -> (Vec<R>, Ledger) {
    let next = AtomicUsize::new(0);
    let per_thread: Vec<(Vec<(usize, R)>, Ledger)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut ledger = Ledger::default();
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        done.push((i, f(item, &mut ledger)));
                    }
                    (done, ledger)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("benchmark worker panicked"))
            .collect()
    });
    let mut ledger = Ledger::default();
    let mut results: Vec<(usize, R)> = Vec::with_capacity(items.len());
    for (done, l) in per_thread {
        results.extend(done);
        ledger.merge(l);
    }
    results.sort_by_key(|(i, _)| *i);
    (results.into_iter().map(|(_, r)| r).collect(), ledger)
}

/// Activation timings gathered by an [`ActivationClock`].
#[derive(Debug, Default)]
struct Activations {
    triggered: Option<Instant>,
    selected: Option<Instant>,
    count: u64,
    /// Select plus collect time so far, in nanoseconds.
    active_ns: u64,
    select_ns: Vec<u64>,
    collect_ns: Vec<u64>,
    pause_ns: Vec<u64>,
}

/// A bystander on the shard's bus that times each activation: selection
/// from `on_trigger` to `VictimSelected`, collection from there to
/// `CollectionCompleted`. An activation whose policy declines to pick a
/// victim is counted but not timed.
struct ActivationClock(Rc<RefCell<Activations>>);

impl BarrierObserver for ActivationClock {
    fn on_event(&mut self, event: &BarrierEvent) {
        let mut a = self.0.borrow_mut();
        match event {
            BarrierEvent::VictimSelected { .. } => {
                if let Some(t) = a.triggered {
                    let now = Instant::now();
                    let ns = now.duration_since(t).as_nanos() as u64;
                    a.select_ns.push(ns);
                    a.active_ns += ns;
                    a.selected = Some(now);
                }
            }
            BarrierEvent::CollectionCompleted(_) => {
                if let (Some(t), Some(s)) = (a.triggered, a.selected.take()) {
                    let now = Instant::now();
                    let ns = now.duration_since(s).as_nanos() as u64;
                    a.collect_ns.push(ns);
                    a.pause_ns.push(now.duration_since(t).as_nanos() as u64);
                    a.active_ns += ns;
                }
            }
            _ => {}
        }
    }

    fn on_trigger(&mut self, _db: &Database) {
        let mut a = self.0.borrow_mut();
        a.count += 1;
        a.triggered = Some(Instant::now());
        a.selected = None;
    }
}

/// The durable side of a traced replay: the store the benchmark drives
/// itself, in the order [`Shard`] drives its own.
struct DurableSide {
    store: DurableStore,
    signal: Arc<SafepointSignal>,
    safepointed: u64,
}

/// One replay driven block by block with every layer call timed.
pub struct TracedRun {
    /// The run's outcome, as `Shard::finish` returned it.
    pub outcome: RunOutcome,
    /// Storage counters when the replay persisted.
    pub storage: Option<StorageStats>,
}

/// Replays `trace` under `cfg` through a [`Shard`], one decoded block at
/// a time, recording a span around each call: `workload.decode`
/// (`TraceCursor::next_block`), `sim.step` (`Shard::step_block` minus the
/// activations inside it), `core.select` and `odb.collect` (from the
/// [`ActivationClock`]), `odb.mark` (`oracle::analyze_with` on the
/// end-of-run database) and `sim.finish` (`Shard::finish`).
///
/// With `durable`, the benchmark persists the run itself, making the
/// `DurableStore` calls in `Shard`'s own order: the manifest from
/// `manifest_for` before the first event, `append_events` ahead of each
/// block, `safepoint` whenever the `LogObserver` signal counts a new
/// collection, and `finish` at the end. The data directory it writes
/// recovers like one written by a durable `Shard`.
pub fn replay_traced(
    cfg: &RunConfig,
    trace: &EncodedTrace,
    durable: Option<&DurabilityConfig>,
    ledger: &mut Ledger,
) -> Result<TracedRun> {
    let started = Instant::now();
    let mut shard = ledger.time("sim.new", || Shard::new(cfg))?;
    let acts = Rc::new(RefCell::new(Activations::default()));
    shard.add_observer(Box::new(ActivationClock(Rc::clone(&acts))));
    let mut side = match durable {
        Some(dcfg) => {
            let (observer, signal) = LogObserver::new();
            shard.add_observer(Box::new(observer));
            let store = ledger.time("durable.create", || DurableStore::create(dcfg))?;
            let manifest = manifest_for(cfg, TelemetryLevel::Off);
            ledger.time("durable.manifest", || store.write_manifest(&manifest))?;
            Some(DurableSide {
                store,
                signal,
                safepointed: 0,
            })
        }
        None => None,
    };

    let mut cursor = trace.cursor();
    let mut block = EventBlock::with_capacity(BLOCK_EVENTS);
    let mut events: Vec<Event> = Vec::with_capacity(BLOCK_EVENTS);
    loop {
        let n = ledger.time("workload.decode", || cursor.next_block(&mut block))?;
        if n == 0 {
            break;
        }
        ledger.count("workload.decoded_events", n as f64);
        if let Some(side) = side.as_mut() {
            events.clear();
            events.extend(block.iter());
            ledger.time("durable.append", || side.store.append_events(&events))?;
            ledger.count("durable.appended_events", n as f64);
        }
        let active_before = acts.borrow().active_ns;
        let t = Instant::now();
        shard.step_block(&block)?;
        let step_ns = ns_since(t);
        let active = acts.borrow().active_ns - active_before;
        ledger.add("sim.step", step_ns.saturating_sub(active));
        ledger.count("sim.stepped_events", n as f64);
        if let Some(side) = side.as_mut() {
            let completed = side.signal.collections();
            if completed > side.safepointed {
                let t = Instant::now();
                side.store
                    .safepoint(shard.db(), shard.events_applied(), completed, false)?;
                let ns = ns_since(t);
                ledger.add("durable.safepoint", ns);
                ledger.sample("durable.safepoint_us", ns as f64 / 1e3);
                side.safepointed = completed;
            }
        }
    }

    let storage = match side {
        Some(mut side) => {
            let t = Instant::now();
            side.store.finish(
                shard.db(),
                shard.events_applied(),
                side.signal.collections(),
            )?;
            let ns = ns_since(t);
            ledger.add("durable.finish", ns);
            ledger.sample("durable.finish_ms", ns as f64 / 1e6);
            Some(side.store.stats())
        }
        None => None,
    };

    let t = Instant::now();
    let report = oracle::analyze_with(shard.db(), &mut OracleScratch::new());
    let mark_ns = ns_since(t);
    ledger.add("odb.mark", mark_ns);
    ledger.sample("odb.mark_ms", mark_ns as f64 / 1e6);
    ledger.count(
        "odb.marked_objects",
        (report.live_objects + report.garbage_objects) as f64,
    );

    let t = Instant::now();
    let outcome = shard.finish(trace.stats())?;
    let finish_ns = ns_since(t);
    ledger.add("sim.finish", finish_ns);
    ledger.sample("sim.finish_ms", finish_ns as f64 / 1e6);

    // The replay as the program runs it: everything but the extra mark.
    let replay_s = (ns_since(started) - mark_ns) as f64 / 1e9;
    ledger.sample(&format!("sim.replay_s.{}", cfg.policy.name()), replay_s);

    let a = acts.borrow();
    ledger.add("core.select", a.select_ns.iter().sum());
    ledger.add("odb.collect", a.collect_ns.iter().sum());
    ledger.count("core.activations", a.count as f64);
    for (name, xs) in [
        ("core.select_us", &a.select_ns),
        ("odb.collect_us", &a.collect_ns),
        ("odb.pause_us", &a.pause_ns),
    ] {
        for &ns in xs {
            ledger.sample(name, ns as f64 / 1e3);
        }
    }
    ledger.count(
        "odb.copied_bytes",
        outcome
            .collections
            .iter()
            .map(|c| c.live_bytes.get() as f64)
            .sum(),
    );
    Ok(TracedRun { outcome, storage })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgc_core::PolicyKind;
    use pgc_sim::{outcome_digest, Simulation};

    #[test]
    fn fan_out_keeps_item_order_and_merges_ledgers() {
        let items: Vec<u64> = (0..50).collect();
        let (out, ledger) = fan_out(3, &items, |&x, l| {
            l.count("seen", 1.0);
            l.sample("x", x as f64);
            x * 2
        });
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        assert_eq!(ledger.counter("seen"), 50.0);
        assert_eq!(ledger.samples("x").len(), 50);
    }

    #[test]
    fn traced_replay_matches_a_simulation_run() {
        let cfg = RunConfig::small()
            .with_policy(PolicyKind::UpdatedPointer)
            .with_seed(5);
        let trace = EncodedTrace::record(cfg.workload.clone()).unwrap();
        let plain = Simulation::builder(&cfg).trace(&trace).run().unwrap();
        let mut ledger = Ledger::default();
        let traced = replay_traced(&cfg, &trace, None, &mut ledger).unwrap();
        assert_eq!(outcome_digest(&traced.outcome), outcome_digest(&plain));
        assert_eq!(ledger.counter("sim.stepped_events"), trace.events() as f64);
        assert!(ledger.counter("core.activations") >= plain.totals.collections as f64);
        assert_eq!(
            ledger.samples("odb.collect_us").len() as u64,
            plain.totals.collections
        );
        assert!(ledger.span_ns("sim.step") > 0);
    }

    #[test]
    fn traced_durable_replay_recovers_to_the_same_digest() {
        let scratch = pgc_durable::ScratchDir::new("perfbench");
        let cfg = RunConfig::small().with_seed(6);
        let trace = EncodedTrace::record(cfg.workload.clone()).unwrap();
        let dcfg = DurabilityConfig::snapshot_and_log(scratch.join("traced"));
        let mut ledger = Ledger::default();
        let traced = replay_traced(&cfg, &trace, Some(&dcfg), &mut ledger).unwrap();
        let recovered = pgc_sim::recover(dcfg.dir()).unwrap();
        let digest = outcome_digest(&traced.outcome);
        assert_eq!(outcome_digest(&recovered.outcome), digest);
        let plain = Simulation::builder(&cfg)
            .trace(&trace)
            .durability(DurabilityConfig::snapshot_and_log(scratch.join("plain")))
            .run()
            .unwrap();
        assert_eq!(outcome_digest(&plain), digest);
        assert_eq!(traced.storage, plain.storage, "the same bytes reach disk");
        assert!(!ledger.samples("durable.safepoint_us").is_empty());
    }
}
