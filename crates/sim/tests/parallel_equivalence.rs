//! The intra-run parallelism contract, pinned end to end:
//! `Parallelism::Deterministic(n)` is **bit-identical** to
//! `Parallelism::Serial` for every `n` — same `RunTotals`, same victim
//! sequence, same database statistics, same telemetry score bits, same
//! shadow-race tables — on both the live-generator and the encoded-trace
//! sources. The parallel kernels (work-stealing reachability marking, the
//! decode-ahead block pipeline, zone-parallel collection planning) may
//! only change wall-clock time, never a simulated outcome.

use pgc_core::PolicyKind;
use pgc_sim::{shadow, RunConfig, RunOutcome, Simulation};
use pgc_types::Parallelism;
use pgc_workload::EncodedTrace;

/// The non-serial modes every invariance test sweeps: one worker (the
/// inline degenerate case) and four (real fan-out).
const MODES: [Parallelism; 2] = [Parallelism::Deterministic(1), Parallelism::Deterministic(4)];

fn run(cfg: &RunConfig, mode: Parallelism) -> RunOutcome {
    Simulation::builder(&cfg.clone().with_parallelism(mode))
        .run()
        .expect("run")
}

/// Asserts a serial run and every parallel mode agree on all observables.
fn assert_mode_invariant(cfg: &RunConfig, label: &str) {
    let base = run(cfg, Parallelism::Serial);
    for mode in MODES {
        let got = run(cfg, mode);
        assert_eq!(base.totals, got.totals, "totals diverged: {label} {mode}");
        assert_eq!(
            base.collections, got.collections,
            "victim sequence diverged: {label} {mode}"
        );
        assert_eq!(
            base.db_stats, got.db_stats,
            "db stats diverged: {label} {mode}"
        );
        assert_eq!(base.series.points(), got.series.points(), "{label} {mode}");
    }
}

#[test]
fn headline_policies_are_mode_invariant_across_seeds_0_to_9() {
    // The three policies the issue pins by name: the oracle (parallel
    // marking), the paper's best implementable policy (derive engine), and
    // the adaptive meta-policy (nested candidate scoreboards).
    for seed in 0..10u64 {
        for policy in [
            PolicyKind::MostGarbage,
            PolicyKind::UpdatedPointer,
            PolicyKind::AdaptiveMeta,
        ] {
            let cfg = RunConfig::small().with_policy(policy).with_seed(seed);
            assert_mode_invariant(&cfg, &format!("{policy:?} small seed {seed}"));
        }
    }
}

#[test]
fn every_policy_is_mode_invariant_on_the_small_config() {
    for seed in 0..3u64 {
        for &policy in PolicyKind::ALL.iter() {
            let cfg = RunConfig::small().with_policy(policy).with_seed(seed);
            assert_mode_invariant(&cfg, &format!("{policy:?} small seed {seed}"));
        }
    }
}

#[test]
fn encoded_replay_is_mode_invariant() {
    // The decode-ahead pipeline only exists on the encoded source; blocks
    // must arrive in stream order and every event must pass through the
    // same apply path, so the replay matches the serial cursor loop (and
    // the live generator) exactly.
    for seed in [0u64, 5] {
        for policy in [PolicyKind::MostGarbage, PolicyKind::UpdatedPointer] {
            let cfg = RunConfig::small().with_policy(policy).with_seed(seed);
            let trace = EncodedTrace::record(cfg.workload.clone()).expect("record");
            let base = Simulation::builder(&cfg)
                .trace(&trace)
                .run()
                .expect("serial encoded run");
            let live = run(&cfg, Parallelism::Serial);
            assert_eq!(base.totals, live.totals, "encoded vs live baseline");
            for mode in MODES {
                let got = Simulation::builder(&cfg.clone().with_parallelism(mode))
                    .trace(&trace)
                    .run()
                    .expect("parallel encoded run");
                assert_eq!(base.totals, got.totals, "{policy:?} seed {seed} {mode}");
                assert_eq!(
                    base.collections, got.collections,
                    "{policy:?} seed {seed} {mode}"
                );
                assert_eq!(base.db_stats, got.db_stats, "{policy:?} seed {seed} {mode}");
            }
        }
    }
}

#[test]
fn sampled_series_is_mode_invariant_on_the_encoded_source() {
    // Sampling boundaries interleave oracle passes with block application;
    // the pipeline must split blocks at exactly the same event indices the
    // serial loop samples at.
    let cfg = RunConfig::small()
        .with_policy(PolicyKind::MostGarbage)
        .with_seed(4)
        .with_sampling(2000);
    let trace = EncodedTrace::record(cfg.workload.clone()).expect("record");
    let base = Simulation::builder(&cfg)
        .trace(&trace)
        .run()
        .expect("serial sampled run");
    for mode in MODES {
        let got = Simulation::builder(&cfg.clone().with_parallelism(mode))
            .trace(&trace)
            .run()
            .expect("parallel sampled run");
        assert_eq!(base.series.points(), got.series.points(), "{mode}");
        assert_eq!(base.totals, got.totals, "{mode}");
    }
}

#[test]
fn zone_batches_are_mode_invariant() {
    // Batched activations route through zone condemnation (remset-disjoint
    // victims, plans computed per zone — in parallel under
    // `Deterministic(n)` — and applied in canonical partition-id order).
    for policy in [PolicyKind::MostGarbage, PolicyKind::UpdatedPointer] {
        for batch in [2u32, 3] {
            let cfg = RunConfig::small()
                .with_policy(policy)
                .with_seed(7)
                .with_collect_batch(batch);
            assert_mode_invariant(&cfg, &format!("{policy:?} batch {batch}"));
        }
    }
}

#[test]
fn telemetry_score_bits_are_mode_invariant() {
    // The determinism spine includes the telemetry tap: per-activation
    // victim scores must match to the bit, not just approximately.
    let cfg = RunConfig::small()
        .with_policy(PolicyKind::UpdatedPointer)
        .with_seed(3);
    let base = Simulation::builder(&cfg)
        .telemetry(pgc_sim::TelemetryLevel::Full)
        .run()
        .expect("serial tapped run");
    let base_snap = base.telemetry.as_ref().expect("snapshot");
    assert!(!base_snap.records.is_empty());
    for mode in MODES {
        let got = Simulation::builder(&cfg.clone().with_parallelism(mode))
            .telemetry(pgc_sim::TelemetryLevel::Full)
            .run()
            .expect("parallel tapped run");
        let snap = got.telemetry.as_ref().expect("snapshot");
        assert_eq!(base_snap, snap, "telemetry snapshot diverged: {mode}");
        for (a, b) in base_snap.records.iter().zip(&snap.records) {
            assert_eq!(
                a.victim_score.map(f64::to_bits),
                b.victim_score.map(f64::to_bits),
                "score bits diverged at activation {}: {mode}",
                a.activation
            );
        }
    }
}

#[test]
fn shadow_races_and_agreement_tables_are_mode_invariant() {
    // Shadow scoreboards ride the same barrier bus as the driver; a race
    // run under any parallel mode must record identical picks, and the
    // derived agreement/regret tables must match entry for entry.
    let shadows = [
        PolicyKind::MutatedPartition,
        PolicyKind::UpdatedPointer,
        PolicyKind::Random,
    ];
    for seed in [1u64, 6] {
        let cfg = RunConfig::small()
            .with_policy(PolicyKind::MostGarbage)
            .with_seed(seed);
        let base = shadow::run_race(&cfg, &shadows).expect("serial race");
        let base_races = [base];
        for mode in MODES {
            let par_cfg = cfg.clone().with_parallelism(mode);
            let got = shadow::run_race(&par_cfg, &shadows).expect("parallel race");
            assert_eq!(
                base_races[0].records, got.records,
                "race records diverged: seed {seed} {mode}"
            );
            assert_eq!(base_races[0].outcome.totals, got.outcome.totals);
            assert_eq!(base_races[0].outcome.collections, got.outcome.collections);
            let got_races = [got];
            assert_eq!(
                shadow::agreement_table(&base_races),
                shadow::agreement_table(&got_races),
                "agreement table diverged: seed {seed} {mode}"
            );
            assert_eq!(
                shadow::regret_table(&base_races),
                shadow::regret_table(&got_races),
                "regret table diverged: seed {seed} {mode}"
            );
        }
    }
}
