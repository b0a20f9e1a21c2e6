//! What every workload reports, and the pieces the workloads share: the
//! metric lists of `BENCHMARK.json`, the pass loop, output checks, and the
//! per-layer numbers derived from a traced run's [`Ledger`].

use crate::stats::{median, quartiles, relative_iqr, tail};
use crate::trace::Ledger;
use pgc_core::PolicyKind;
use pgc_sim::RunOutcome;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// End-to-end metrics (untraced run), with units. Every workload reports
/// all of them; see `README.md` for what each means per workload.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("events_per_s", "1/s"),
    ("cpu_ns_per_event", "ns"),
    ("stored_bytes_per_event", "bytes"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (traced run), with units. Every workload reports all
/// of them; a layer the workload does not call reads 0.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("workload.record_ns_per_event", "ns"),
    ("workload.trace_bytes_per_event", "bytes"),
    ("workload.decode_ns_per_event", "ns"),
    ("sim.step_ns_per_event", "ns"),
    ("sim.finish_ms", "ms"),
    ("sim.replay_s.NoCollection", "s"),
    ("sim.replay_s.MutatedPartition", "s"),
    ("sim.replay_s.Random", "s"),
    ("sim.replay_s.WeightedPointer", "s"),
    ("sim.replay_s.UpdatedPointer", "s"),
    ("sim.replay_s.MostGarbage", "s"),
    ("core.activations", "count"),
    ("core.select_us.p50", "us"),
    ("core.select_us.p90", "us"),
    ("odb.collect_us.p50", "us"),
    ("odb.collect_us.p90", "us"),
    ("odb.pause_us.p50", "us"),
    ("odb.pause_us.p90", "us"),
    ("odb.copied_bytes_per_activation", "bytes"),
    ("odb.mark_ms", "ms"),
    ("odb.mark_ns_per_object", "ns"),
    ("durable.append_ns_per_event", "ns"),
    ("durable.safepoint_us.p50", "us"),
    ("durable.safepoint_us.p90", "us"),
    ("durable.finish_ms", "ms"),
    ("durable.log_bytes_per_event", "bytes"),
    ("durable.snapshot_bytes_per_event", "bytes"),
    ("durable.fsyncs", "count"),
    ("durable.read_log_ms", "ms"),
    ("durable.scan_snapshots_ms", "ms"),
    ("server.submit_wait_us.p50", "us"),
    ("server.submit_wait_us.p99", "us"),
    ("server.shutdown_ms", "ms"),
    ("server.ring_high_water", "count"),
    ("server.shard_imbalance", "ratio"),
    ("server.remset_registered", "count"),
    ("server.remset_cleaned", "count"),
    ("server.remset_relocated", "count"),
    ("proc.cpu_s", "s"),
    ("proc.cpu_util", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.coverage", "ratio"),
];

/// How one run was asked to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Base seed every workload input is generated from.
    pub seed: u64,
    /// Seconds of measured passes.
    pub seconds: f64,
    /// True for the traced run (per-layer metrics).
    pub traced: bool,
    /// Directory the run may write data directories under.
    pub data_root: PathBuf,
}

impl Options {
    /// `n` workload seeds derived from the base seed. Seeds of different
    /// base seeds never overlap for `n` up to 1000.
    pub fn seeds(&self, n: usize) -> Vec<u64> {
        (0..n as u64)
            .map(|i| self.seed.wrapping_mul(1000).wrapping_add(i))
            .collect()
    }

    /// The measured seconds of the untraced and the traced passes: a
    /// traced run spends half its time on untraced passes, which give the
    /// baseline for `trace.overhead` and the digests the traced passes
    /// must reproduce.
    pub fn budgets(&self) -> (f64, f64) {
        if self.traced {
            (self.seconds / 2.0, self.seconds / 2.0)
        } else {
            (self.seconds, 0.0)
        }
    }
}

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// Fewest passes a measurement takes, however short its budget.
pub const MIN_PASSES: usize = 3;

/// Runs `setup` [`SETUP_REPEATS`] times, returning the last result and
/// every repetition's wall-clock seconds.
pub fn repeat_setup<T, E>(mut setup: impl FnMut() -> Result<T, E>) -> Result<(T, Vec<f64>), E> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        last = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one repetition"), times))
}

/// Runs `pass` until `seconds` have elapsed and at least `min` passes
/// ran; returns every pass's result.
pub fn repeat_passes<T, E>(
    seconds: f64,
    min: usize,
    mut pass: impl FnMut(usize) -> Result<T, E>,
) -> Result<Vec<T>, E> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || start.elapsed().as_secs_f64() < seconds {
        out.push(pass(out.len())?);
    }
    Ok(out)
}

/// Output checks: every checked item counts as attempted; a mismatch
/// counts as failed and keeps its description for the report.
#[derive(Debug, Default)]
pub struct Checks {
    /// Items checked.
    pub attempted: u64,
    /// Items that failed their check.
    pub failed: u64,
    /// Descriptions of the first few failures.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }
}

/// A workload metric under its workload-specific name (`sweep_s`,
/// `recover_events_per_s`, ...), for the human-readable report.
#[derive(Debug, Clone)]
pub struct Named {
    /// Metric name.
    pub name: String,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// How it was measured.
    pub note: String,
}

impl Named {
    /// A median over passes, noting the pass count and quartiles.
    pub fn over_passes(name: &str, unit: &'static str, values: &[f64]) -> Self {
        let [q1, _, q3] = quartiles(values);
        let spread = relative_iqr(values);
        Self {
            name: name.into(),
            value: median(values),
            unit,
            note: format!(
                "median of {} passes, quartiles {q1:.6} .. {q3:.6}, spread {spread:.4}",
                values.len()
            ),
        }
    }

    /// A single exact value.
    pub fn exact(name: &str, unit: &'static str, value: f64, note: &str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
            note: note.into(),
        }
    }
}

/// What one untraced pass cost.
#[derive(Debug, Clone, Copy)]
pub struct PassCost {
    /// Wall-clock seconds of the whole pass.
    pub wall_s: f64,
    /// CPU seconds the process used in it, all threads.
    pub cpu_s: f64,
    /// Events the pass processed.
    pub events: u64,
}

/// Everything one workload run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Threads the measured work ran on.
    pub threads: usize,
    /// Wall-clock seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Cost of each untraced pass.
    pub passes: Vec<PassCost>,
    /// The gated wall-clock seconds of each untraced pass (the whole pass,
    /// except on `durable`: its recovery).
    pub wall_s: Vec<f64>,
    /// Events per gated wall-clock second of each untraced pass.
    pub events_per_s: Vec<f64>,
    /// Bytes the workload stores per input event (exact).
    pub stored_bytes_per_event: f64,
    /// The workload's metrics under their own names, for people.
    pub named: Vec<Named>,
    /// Per-layer metrics (traced run only).
    pub layers: BTreeMap<String, f64>,
    /// How each tail percentile in `layers` was taken, for people.
    pub layer_notes: BTreeMap<String, String>,
    /// Output checks.
    pub checks: Checks,
}

/// CPU time over a stretch of passes, from `/proc/self/stat`.
pub struct CpuClock {
    cpu: Option<f64>,
}

impl CpuClock {
    /// Starts counting.
    pub fn start() -> Self {
        Self {
            cpu: crate::machine::cpu_seconds(),
        }
    }

    /// CPU seconds since [`CpuClock::start`] (0 where unreadable).
    pub fn elapsed(&self) -> f64 {
        match (self.cpu, crate::machine::cpu_seconds()) {
            (Some(a), Some(b)) => b - a,
            _ => 0.0,
        }
    }
}

fn per(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl Report {
    /// Records the untraced passes, gating their whole wall-clock time.
    pub fn set_passes(&mut self, passes: Vec<PassCost>) {
        self.wall_s = passes.iter().map(|p| p.wall_s).collect();
        self.events_per_s = passes.iter().map(|p| p.events as f64 / p.wall_s).collect();
        self.passes = passes;
    }

    /// CPU nanoseconds per event of each untraced pass.
    pub fn cpu_ns_per_event(&self) -> Vec<f64> {
        self.passes
            .iter()
            .map(|p| p.cpu_s * 1e9 / p.events as f64)
            .collect()
    }

    /// Sets a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown layer metric {name}"
        );
        self.layers.insert(name.to_string(), value);
    }

    /// Sets `<name>.p50` and `<name>.<tail>` from `samples` under the
    /// ten-beyond rule (0 when there are none).
    pub fn layer_tail(&mut self, name: &str, tail_label: &str, wanted: f64, samples: &[f64]) {
        let key = format!("{name}.{tail_label}");
        match tail(samples, wanted) {
            Some(t) => {
                self.layer(&format!("{name}.p50"), t.median);
                self.layer(&key, t.value);
                self.layer_notes
                    .insert(key, format!("p{:.1} of {} samples", t.pct * 100.0, t.n));
            }
            None => {
                self.layer(&format!("{name}.p50"), 0.0);
                self.layer(&key, 0.0);
            }
        }
    }

    /// The per-layer metrics every traced replay yields, from the spans and
    /// counters [`crate::trace::replay_traced`] and the record span left in
    /// `ledger`. Counts are per pass, over `passes` traced passes.
    pub fn replay_layers(&mut self, ledger: &Ledger, passes: usize) {
        let span = |n: &str| ledger.span_ns(n) as f64;
        let recorded = ledger.counter("workload.recorded_events");
        self.layer(
            "workload.record_ns_per_event",
            per(span("workload.record"), recorded),
        );
        self.layer(
            "workload.trace_bytes_per_event",
            per(ledger.counter("workload.recorded_bytes"), recorded),
        );
        self.layer(
            "workload.decode_ns_per_event",
            per(
                span("workload.decode"),
                ledger.counter("workload.decoded_events"),
            ),
        );
        self.layer(
            "sim.step_ns_per_event",
            per(span("sim.step"), ledger.counter("sim.stepped_events")),
        );
        let med = |n: &str| {
            let xs = ledger.samples(n);
            if xs.is_empty() {
                0.0
            } else {
                median(xs)
            }
        };
        self.layer("sim.finish_ms", med("sim.finish_ms"));
        for policy in PolicyKind::PAPER {
            let name = format!("sim.replay_s.{}", policy.name());
            self.layer(&name, med(&name));
        }
        let activations = ledger.counter("core.activations");
        self.layer("core.activations", per(activations, passes as f64));
        self.layer_tail(
            "core.select_us",
            "p90",
            0.9,
            ledger.samples("core.select_us"),
        );
        self.layer_tail(
            "odb.collect_us",
            "p90",
            0.9,
            ledger.samples("odb.collect_us"),
        );
        self.layer_tail("odb.pause_us", "p90", 0.9, ledger.samples("odb.pause_us"));
        self.layer(
            "odb.copied_bytes_per_activation",
            per(ledger.counter("odb.copied_bytes"), activations),
        );
        self.layer("odb.mark_ms", med("odb.mark_ms"));
        self.layer(
            "odb.mark_ns_per_object",
            per(span("odb.mark"), ledger.counter("odb.marked_objects")),
        );
    }

    /// The durable-layer metrics from a traced durable pass's ledger.
    pub fn durable_layers(&mut self, ledger: &Ledger, passes: usize) {
        let appended = ledger.counter("durable.appended_events");
        self.layer(
            "durable.append_ns_per_event",
            per(ledger.span_ns("durable.append") as f64, appended),
        );
        self.layer_tail(
            "durable.safepoint_us",
            "p90",
            0.9,
            ledger.samples("durable.safepoint_us"),
        );
        let med = |n: &str| median(ledger.samples(n));
        self.layer("durable.finish_ms", med("durable.finish_ms"));
        self.layer(
            "durable.log_bytes_per_event",
            per(ledger.counter("durable.log_bytes"), appended),
        );
        self.layer(
            "durable.snapshot_bytes_per_event",
            per(ledger.counter("durable.snapshot_bytes"), appended),
        );
        self.layer(
            "durable.fsyncs",
            per(ledger.counter("durable.fsyncs"), passes as f64),
        );
        self.layer("durable.read_log_ms", med("durable.read_log_ms"));
        self.layer(
            "durable.scan_snapshots_ms",
            med("durable.scan_snapshots_ms"),
        );
    }

    /// `proc.*` and `trace.*`: CPU use of the untraced passes, and how the
    /// traced passes compare with them. Coverage is the spans' self time
    /// over the traced wall-clock of every thread that ran spans.
    pub fn process_layers(&mut self, traced_wall: &[f64], span_ns: u64, threads: usize) {
        let cpu: f64 = self.passes.iter().map(|p| p.cpu_s).sum();
        let wall: Vec<f64> = self.passes.iter().map(|p| p.wall_s).collect();
        self.layer("proc.cpu_s", per(cpu, wall.len() as f64));
        self.layer("proc.cpu_util", per(cpu, wall.iter().sum()));
        self.layer("trace.overhead", per(median(traced_wall), median(&wall)));
        let traced: f64 = traced_wall.iter().sum();
        self.layer(
            "trace.coverage",
            per(span_ns as f64 / 1e9, traced * threads as f64),
        );
    }
}

/// Checks one run's digest against the expected one.
pub fn check_digest(checks: &mut Checks, what: &str, out: &RunOutcome, expected: u64) {
    let got = pgc_sim::outcome_digest(out);
    checks.check(got == expected, || {
        format!("{what}: digest {got:016x}, expected {expected:016x}")
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        let Some(Json::Arr(items)) = doc.get(key) else {
            panic!("BENCHMARK.json has no `{key}` list");
        };
        items
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), owned(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn seeds_derive_from_the_base_seed() {
        let opts = Options {
            seed: 3,
            seconds: 1.0,
            traced: false,
            data_root: PathBuf::new(),
        };
        assert_eq!(opts.seeds(3), vec![3000, 3001, 3002]);
        assert_eq!(opts.budgets(), (1.0, 0.0));
    }

    #[test]
    fn checks_count_attempts_and_failures() {
        let mut checks = Checks::default();
        checks.check(true, || unreachable!("passing checks keep no message"));
        checks.check(false, || "bad digest".into());
        assert_eq!((checks.attempted, checks.failed), (2, 1));
        assert_eq!(checks.failures, vec!["bad digest".to_string()]);
    }
}
