//! Crash-recovery bit-identity for the durable storage backend.
//!
//! The contract under test: a run persisted with
//! [`DurabilityConfig::snapshot_and_log`] can be rebuilt from its data
//! directory alone — manifest → config, change log → replay, snapshots →
//! verification checkpoints — and the recovered [`RunOutcome`] is
//! *bit-identical* to the uninterrupted run: same totals, same victim
//! sequence, same telemetry counters and records. A torn log tail
//! (truncated or corrupted final frame) is detected by checksum and
//! dropped, and recovery then matches a fresh run over the surviving
//! event prefix. The same holds per stream for a persisted server fleet.

use pgc::durable::{read_log, ScratchDir};
use pgc::prelude::*;
use pgc::workload::generator::GenStats;
use pgc::workload::{Event, EventBlock, SyntheticWorkload};
use std::fs;

/// Policies covering the paper's winner, the oracle, and the baseline —
/// distinct victim sequences, so digest collisions can't hide a mix-up.
const POLICIES: [PolicyKind; 3] = [
    PolicyKind::UpdatedPointer,
    PolicyKind::MostGarbage,
    PolicyKind::Random,
];

fn durable_cfg(dir: &ScratchDir) -> DurabilityConfig {
    // Tight snapshot cadence and small segments so even a small run
    // exercises multiple generations and log rotation.
    DurabilityConfig::snapshot_and_log(dir.path())
        .with_snapshot_every(2)
        .with_segment_bytes(64 << 10)
}

fn run_durable(policy: PolicyKind, seed: u64, dir: &ScratchDir) -> RunOutcome {
    let cfg = RunConfig::small().with_policy(policy).with_seed(seed);
    Simulation::builder(&cfg)
        .telemetry(TelemetryLevel::Full)
        .durability(durable_cfg(dir))
        .run()
        .expect("durable run")
}

#[test]
fn recovery_is_bit_identical_across_policies_and_seeds() {
    for policy in POLICIES {
        for seed in 0..5 {
            let dir = ScratchDir::new("recover");
            let original = run_durable(policy, seed, &dir);
            let recovered = recover(dir.path()).expect("recover");

            assert_eq!(
                outcome_digest(&recovered.outcome),
                outcome_digest(&original),
                "{policy} seed {seed}: recovered digest diverges"
            );
            // The digest covers these, but spell the headline fields out
            // so a failure names what broke.
            assert_eq!(
                recovered.outcome.totals, original.totals,
                "{policy} seed {seed}"
            );
            let victims =
                |out: &RunOutcome| out.collections.iter().map(|c| c.victim).collect::<Vec<_>>();
            assert_eq!(
                victims(&recovered.outcome),
                victims(&original),
                "{policy} seed {seed}: victim sequence"
            );
            assert_eq!(
                recovered.torn_tail, None,
                "{policy} seed {seed}: clean shutdown"
            );
            assert_eq!(recovered.events_replayed, original.totals.events);
            assert!(
                recovered.snapshots_verified > 0,
                "{policy} seed {seed}: the final generation must be verified"
            );
            assert_eq!(recovered.snapshot_files_skipped, 0);
            assert_eq!(recovered.cfg.policy, policy);
            assert_eq!(recovered.telemetry_level, TelemetryLevel::Full);

            let (orig_tel, rec_tel) = (
                original.telemetry.as_ref().expect("telemetry on"),
                recovered
                    .outcome
                    .telemetry
                    .as_ref()
                    .expect("telemetry replayed"),
            );
            assert_eq!(rec_tel.counters.events, orig_tel.counters.events);
            assert_eq!(rec_tel.counters.collections, orig_tel.counters.collections);
            assert_eq!(
                rec_tel.counters.reclaimed_bytes,
                orig_tel.counters.reclaimed_bytes
            );
            assert_eq!(rec_tel.records.len(), orig_tel.records.len());
        }
    }
}

/// The log segments in `dir`, by sequence number.
fn log_segments(dir: &ScratchDir) -> Vec<std::path::PathBuf> {
    let mut segments: Vec<_> = fs::read_dir(dir.path())
        .expect("read data dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("log-") && n.ends_with(".pgcl"))
        })
        .collect();
    segments.sort();
    segments
}

/// The newest log segment in `dir`, by sequence number.
fn newest_log_segment(dir: &ScratchDir) -> std::path::PathBuf {
    log_segments(dir).pop().expect("at least one log segment")
}

/// A fresh, unpersisted run of exactly `events` under `cfg`.
fn replay_events(cfg: &RunConfig, level: TelemetryLevel, events: &[Event]) -> RunOutcome {
    let trace = EncodedTrace::from_events(cfg.workload.clone(), events);
    Simulation::builder(cfg)
        .telemetry(level)
        .trace(&trace)
        .run()
        .expect("replay prefix")
}

/// Replays `dir`'s surviving log prefix in a fresh run — the ground truth
/// a torn-tail recovery must match.
fn replay_prefix_baseline(dir: &ScratchDir, recovered: &RecoveredRun) -> RunOutcome {
    let log = read_log(dir.path()).expect("read log");
    replay_events(&recovered.cfg, recovered.telemetry_level, &log.events)
}

#[test]
fn torn_tail_is_dropped_and_recovery_matches_the_surviving_prefix() {
    let dir = ScratchDir::new("torn");
    run_durable(PolicyKind::UpdatedPointer, 7, &dir);

    // Tear the tail: chop bytes off the newest segment so its final frame
    // is truncated mid-payload.
    let tail = newest_log_segment(&dir);
    let len = fs::metadata(&tail).expect("stat").len();
    let file = fs::OpenOptions::new()
        .write(true)
        .open(&tail)
        .expect("open tail");
    file.set_len(len - 9).expect("truncate");
    drop(file);

    let recovered = recover(dir.path()).expect("recovery survives a torn tail");
    assert!(
        recovered.torn_tail.is_some(),
        "the torn frame must be detected"
    );
    let baseline = replay_prefix_baseline(&dir, &recovered);
    assert_eq!(
        outcome_digest(&recovered.outcome),
        outcome_digest(&baseline),
        "torn-tail recovery must equal a fresh run over the surviving prefix"
    );
    assert_eq!(recovered.outcome.totals, baseline.totals);
}

#[test]
fn corrupted_tail_frame_fails_its_checksum_and_is_dropped() {
    let dir = ScratchDir::new("corrupt");
    run_durable(PolicyKind::MostGarbage, 3, &dir);

    // Flip one byte inside the final frame: the length prefix still reads,
    // the CRC no longer matches.
    let tail = newest_log_segment(&dir);
    let mut bytes = fs::read(&tail).expect("read tail");
    let at = bytes.len() - 6;
    bytes[at] ^= 0xA5;
    fs::write(&tail, &bytes).expect("write corrupted tail");

    let recovered = recover(dir.path()).expect("recovery survives a corrupt frame");
    assert!(
        recovered.torn_tail.is_some(),
        "the corrupt frame must be detected"
    );
    let baseline = replay_prefix_baseline(&dir, &recovered);
    assert_eq!(
        outcome_digest(&recovered.outcome),
        outcome_digest(&baseline)
    );
}

#[test]
fn server_streams_persist_and_recover_independently() {
    let root = ScratchDir::new("fleet");
    let configs: Vec<(StreamId, RunConfig)> = (0..3u64)
        .map(|i| {
            let cfg = RunConfig::small()
                .with_policy(POLICIES[i as usize % POLICIES.len()])
                .with_seed(i + 1);
            (StreamId(i), cfg)
        })
        .collect();

    let mut server = Server::start(
        ServerConfig::new(2)
            .with_telemetry(TelemetryLevel::Full)
            .with_data_dir(root.path()),
    );
    let mut handles = Vec::new();
    for (stream, cfg) in &configs {
        handles.push(server.open_stream(*stream, cfg.clone()).expect("open"));
    }
    for ((_, cfg), handle) in configs.iter().zip(&handles) {
        let trace = EncodedTrace::record(cfg.workload.clone()).expect("record");
        server
            .submit_segment(handle, TraceSegment::whole(std::sync::Arc::new(trace)))
            .expect("submit");
    }
    let fleet = server.shutdown().expect("shutdown");

    assert_eq!(fleet.outcomes.len(), configs.len());
    for (stream, outcome) in &fleet.outcomes {
        let dir = root.join(format!("stream-{:06}", stream.0));
        let recovered =
            recover(&dir).unwrap_or_else(|e| panic!("recover stream {}: {e}", stream.0));
        assert_eq!(
            outcome_digest(&recovered.outcome),
            outcome_digest(outcome),
            "stream {} recovery diverges from the fleet outcome",
            stream.0
        );
        assert_eq!(
            recovered.outcome.totals, outcome.totals,
            "stream {}",
            stream.0
        );
    }
}

/// Every file in `dir`, by name, with its bytes.
fn data_files(dir: &ScratchDir) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<_> = fs::read_dir(dir.path())
        .expect("read data dir")
        .map(|e| {
            let path = e.expect("dir entry").path();
            let name = path
                .file_name()
                .expect("file name")
                .to_string_lossy()
                .into_owned();
            (name, fs::read(&path).expect("read data file"))
        })
        .collect();
    files.sort();
    files
}

/// One run persists one way, whichever source feeds it: the synthetic
/// generator and a replay of its recording step the same blocks, so they
/// take the same safepoints and write byte-identical data directories —
/// manifest, every log segment and every snapshot file.
#[test]
fn synthetic_and_recorded_sources_write_the_same_data_dir() {
    // The default cadence, then the tight one that rotates log segments.
    for (seed, tight) in [(3, false), (4, true)] {
        let durability = |dir: &ScratchDir| {
            if tight {
                durable_cfg(dir)
            } else {
                DurabilityConfig::snapshot_and_log(dir.path())
            }
        };
        let cfg = RunConfig::small().with_seed(seed);
        let live_dir = ScratchDir::new("layout-live");
        let live = Simulation::builder(&cfg)
            .durability(durability(&live_dir))
            .run()
            .expect("synthetic run");
        let trace = EncodedTrace::record(cfg.workload.clone()).expect("record");
        let replay_dir = ScratchDir::new("layout-replay");
        let replayed = Simulation::builder(&cfg)
            .trace(&trace)
            .durability(durability(&replay_dir))
            .run()
            .expect("trace run");

        assert_eq!(
            outcome_digest(&live),
            outcome_digest(&replayed),
            "seed {seed}"
        );
        assert_eq!(
            live.storage, replayed.storage,
            "seed {seed}: storage counters"
        );
        let (live_files, replay_files) = (data_files(&live_dir), data_files(&replay_dir));
        let names =
            |files: &[(String, Vec<u8>)]| files.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
        assert_eq!(
            names(&live_files),
            names(&replay_files),
            "seed {seed}: file set"
        );
        assert!(
            live_files.iter().any(|(n, _)| n.starts_with("snap-")),
            "seed {seed}: the run must snapshot"
        );
        for ((name, a), (_, b)) in live_files.iter().zip(&replay_files) {
            assert!(
                a == b,
                "seed {seed}: {name} differs ({} vs {} bytes)",
                a.len(),
                b.len()
            );
        }
    }
}

// ---------------------------------------------------------------------
// Fault injection over the streaming log reader
// ---------------------------------------------------------------------

/// Bytes of a log segment header: magic, version, seq, start_event.
const SEGMENT_HEADER: usize = 24;

/// One frame of a log segment, located by its length prefix alone (an
/// oracle independent of the crate's reader).
struct FrameSpan {
    start: usize,
    end: usize,
    /// Events the frame carries (0 for a safepoint frame).
    events: u64,
    safepoint: bool,
}

fn frames_of(bytes: &[u8]) -> Vec<FrameSpan> {
    let word = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
    let mut frames = Vec::new();
    let mut pos = SEGMENT_HEADER;
    while pos < bytes.len() {
        let kind = bytes[pos + 4];
        let end = pos + 4 + 1 + word(pos) as usize + 4;
        frames.push(FrameSpan {
            start: pos,
            end,
            events: if kind == 1 {
                u64::from(word(pos + 5))
            } else {
                0
            },
            safepoint: kind == 2,
        });
        pos = end;
    }
    assert_eq!(pos, bytes.len(), "pristine segment ends on a frame");
    frames
}

/// A persisted small run whose log spans several 64 KiB segments, plus
/// its full input stream and the event position of every valid newest
/// snapshot (the checkpoints recovery verifies). The shutdown snapshot
/// generation is deleted, so the checkpoints sit mid-log where the
/// damage sweeps cross them.
struct FaultFixture {
    dir: ScratchDir,
    cfg: RunConfig,
    events: Vec<Event>,
    checkpoints: Vec<u64>,
    segments: Vec<std::path::PathBuf>,
}

/// Events per block the fault fixture is stepped in.
const FIXTURE_BLOCK: usize = 1000;

fn fault_fixture(label: &str) -> FaultFixture {
    let dir = ScratchDir::new(label);
    let cfg = RunConfig::small()
        .with_policy(PolicyKind::UpdatedPointer)
        .with_seed(4)
        .with_heap_growth(Bytes::from_mib(1));
    let events: Vec<_> = SyntheticWorkload::new(cfg.workload.clone())
        .expect("workload")
        .collect();
    // Stepped in blocks much shorter than a recorded trace's 4096, so
    // safepoints — and the snapshot checkpoints the sweeps must cross —
    // land several times inside every 64 KiB log segment (the asserts
    // below check that geometry).
    let mut shard =
        Shard::new(&cfg.clone().with_durability(durable_cfg(&dir))).expect("durable shard");
    shard.enable_telemetry(TelemetryLevel::Full);
    let mut block = EventBlock::new();
    for chunk in events.chunks(FIXTURE_BLOCK) {
        block.clear();
        for event in chunk {
            block.push(event);
        }
        shard.step_block(&block).expect("durable step");
    }
    shard.finish(GenStats::default()).expect("durable run");
    let files = pgc::durable::scan_snapshots(dir.path()).expect("scan");
    let last_generation = files.iter().map(|f| f.generation).max().expect("snapshots");
    for file in files.iter().filter(|f| f.generation == last_generation) {
        fs::remove_file(&file.path).expect("drop shutdown snapshot");
    }
    let mut newest = std::collections::BTreeMap::new();
    for file in pgc::durable::scan_snapshots(dir.path()).expect("scan") {
        let snap = pgc::durable::read_snapshot(&file.path).expect("snapshot");
        newest.insert(file.partition, snap.events_applied);
    }
    let segments = log_segments(&dir);
    assert!(segments.len() >= 3, "want a middle segment");
    let total = events.len() as u64;
    assert!(
        newest.values().all(|&at| 0 < at && at < total),
        "checkpoints must sit mid-log"
    );
    FaultFixture {
        dir,
        cfg,
        events,
        checkpoints: newest.into_values().collect(),
        segments,
    }
}

/// What a recovery over the first `events` logged events must report.
struct Expected {
    digest: u64,
    events: u64,
    safepoints: usize,
    snapshots_verified: usize,
}

impl FaultFixture {
    fn expected(&self, events: u64, safepoints: usize) -> Expected {
        let outcome = replay_events(
            &self.cfg,
            TelemetryLevel::Full,
            &self.events[..events as usize],
        );
        Expected {
            digest: outcome_digest(&outcome),
            events,
            safepoints,
            snapshots_verified: self.checkpoints.iter().filter(|&&at| at <= events).count(),
        }
    }

    /// Events and safepoints logged in the segments before `index`.
    fn before_segment(&self, index: usize) -> (u64, usize) {
        self.segments[..index].iter().fold((0, 0), |(e, s), path| {
            let frames = frames_of(&fs::read(path).expect("read segment"));
            (
                e + frames.iter().map(|f| f.events).sum::<u64>(),
                s + frames.iter().filter(|f| f.safepoint).count(),
            )
        })
    }
}

fn check_recovery(fx: &FaultFixture, want: &Expected, torn_at: Option<u64>, what: &str) {
    let got = recover(fx.dir.path()).unwrap_or_else(|e| panic!("{what}: recover failed: {e}"));
    assert_eq!(outcome_digest(&got.outcome), want.digest, "{what}: digest");
    assert_eq!(got.events_replayed, want.events, "{what}: events_replayed");
    assert_eq!(got.safepoints, want.safepoints, "{what}: safepoints");
    assert_eq!(
        got.snapshots_verified, want.snapshots_verified,
        "{what}: snapshots_verified"
    );
    let newest = fx.segments.len() as u64 - 1;
    assert_eq!(
        got.torn_tail.as_ref().map(|t| (t.segment, t.offset)),
        torn_at.map(|offset| (newest, offset)),
        "{what}: torn_tail"
    );
}

#[test]
fn damage_in_the_newest_segment_recovers_the_surviving_prefix() {
    let fx = fault_fixture("fault-newest");
    let newest = fx.segments.last().expect("segments").clone();
    let pristine = fs::read(&newest).expect("read newest");
    let frames = frames_of(&pristine);
    let (mut events, mut safepoints) = fx.before_segment(fx.segments.len() - 1);
    let mut verified = std::collections::BTreeSet::new();
    for (k, frame) in frames.iter().enumerate() {
        let want = fx.expected(events, safepoints);
        verified.insert(want.snapshots_verified);
        let start = frame.start as u64;

        fs::write(&newest, &pristine[..frame.start]).expect("cut at boundary");
        check_recovery(&fx, &want, None, &format!("cut before frame {k}"));

        let mid = (frame.start + frame.end) / 2;
        fs::write(&newest, &pristine[..mid]).expect("cut mid-frame");
        check_recovery(&fx, &want, Some(start), &format!("cut inside frame {k}"));

        let mut flipped = pristine.clone();
        flipped[mid] ^= 1 << (k % 8);
        fs::write(&newest, &flipped).expect("flip a bit");
        check_recovery(&fx, &want, Some(start), &format!("bit flip in frame {k}"));

        events += frame.events;
        safepoints += usize::from(frame.safepoint);
    }
    assert!(verified.len() > 1, "the sweep must cross a checkpoint");
}

#[test]
fn damage_in_an_older_segment_is_a_format_error() {
    let fx = fault_fixture("fault-older");
    let middle = fx.segments[fx.segments.len() / 2].clone();
    let pristine = fs::read(&middle).expect("read middle segment");
    let frames = frames_of(&pristine);
    let expect_format_error = |what: &str| match recover(fx.dir.path()) {
        Err(pgc::types::PgcError::TraceFormat(_)) => {}
        Err(other) => panic!("{what}: wrong error kind: {other}"),
        Ok(_) => panic!("{what}: recovered past a damaged older segment"),
    };
    for (k, frame) in frames.iter().enumerate() {
        let mid = (frame.start + frame.end) / 2;
        fs::write(&middle, &pristine[..mid]).expect("cut mid-frame");
        expect_format_error(&format!("cut inside frame {k}"));

        let mut flipped = pristine.clone();
        flipped[mid] ^= 1 << (k % 8);
        fs::write(&middle, &flipped).expect("flip a bit");
        expect_format_error(&format!("bit flip in frame {k}"));

        // A clean cut that drops events breaks the next segment's
        // `start_event`; one that drops only safepoint frames is
        // undetectable by design and recovers.
        fs::write(&middle, &pristine[..frame.start]).expect("cut at boundary");
        if frames[k..].iter().any(|f| f.events > 0) {
            expect_format_error(&format!("cut before frame {k}"));
        } else {
            recover(fx.dir.path()).expect("only safepoint frames dropped");
        }
    }
}
