//! Property-style tests over the core data structures and the collector's
//! safety invariants.
//!
//! The workspace builds offline with no property-testing crate, so each
//! property runs as a seeded loop: `SimRng` generates many random cases per
//! property, and a failure message always names the seed that produced it,
//! which makes any failure replayable with a one-line unit test.

use pgc::buffer::{Access, BufferPool};
use pgc::core::{build_policy, Collector, PolicyKind, SelectionPolicy};
use pgc::odb::{oracle, BarrierEvent, Database};
use pgc::types::{Bytes, DbConfig, Oid, PageId, SimRng, SlotId};
use pgc::workload::mirror::Mirror;
use pgc::workload::{read_trace, write_trace, Event, NodeId};

// ---------------------------------------------------------------------
// LRU buffer pool vs a naive reference model
// ---------------------------------------------------------------------

/// Reference LRU: a Vec ordered MRU-first, linear-time everything.
#[derive(Default)]
struct NaiveLru {
    entries: Vec<(u64, bool)>, // (page, dirty), MRU first
    capacity: usize,
    disk_reads: u64,
    disk_writes: u64,
}

impl NaiveLru {
    fn access(&mut self, page: u64, kind: Access) {
        let dirty = !matches!(kind, Access::Read);
        if let Some(pos) = self.entries.iter().position(|&(p, _)| p == page) {
            let (p, d) = self.entries.remove(pos);
            self.entries.insert(0, (p, d || dirty));
            return;
        }
        if !matches!(kind, Access::WriteNew) {
            self.disk_reads += 1;
        }
        if self.entries.len() == self.capacity {
            let (_, was_dirty) = self.entries.pop().unwrap();
            if was_dirty {
                self.disk_writes += 1;
            }
        }
        self.entries.insert(0, (page, dirty));
    }

    /// Drops every page in `pages` without write-back.
    fn invalidate(&mut self, pages: std::ops::Range<u64>) {
        self.entries.retain(|(p, _)| !pages.contains(p));
    }
}

fn access_kind(rng: &mut SimRng) -> Access {
    match rng.below(3) {
        0 => Access::Read,
        1 => Access::Write,
        _ => Access::WriteNew,
    }
}

#[test]
fn lru_matches_reference_model() {
    for seed in 0..40u64 {
        let mut rng = SimRng::new(seed);
        let capacity = rng.range_inclusive(1, 11) as usize;
        let mut pool = BufferPool::new(capacity);
        let mut model = NaiveLru {
            capacity,
            ..NaiveLru::default()
        };
        for _ in 0..rng.range_inclusive(1, 400) {
            let page = rng.below(24);
            let kind = access_kind(&mut rng);
            pool.access(PageId(page), kind);
            model.access(page, kind);
            pool.check_invariants();
        }
        let stats = pool.stats();
        assert_eq!(stats.app_disk_reads, model.disk_reads, "seed {seed}");
        assert_eq!(stats.app_disk_writes, model.disk_writes, "seed {seed}");
        assert_eq!(pool.resident_pages(), model.entries.len(), "seed {seed}");
        for (page, _) in &model.entries {
            assert!(pool.is_resident(PageId(*page)), "seed {seed}");
        }
    }
}

/// A page id that mostly lands in a small hot set but often far out in a
/// wide range, so the dense page index keeps growing mid-run.
fn wide_page(rng: &mut SimRng) -> u64 {
    if rng.chance(0.5) {
        rng.below(16)
    } else {
        rng.below(4096)
    }
}

/// A contiguous page range, like a collected partition's pages.
fn page_range(rng: &mut SimRng) -> std::ops::Range<u64> {
    let start = wide_page(rng);
    start..start + rng.range_inclusive(1, 48)
}

#[test]
fn lru_matches_reference_model_over_a_growing_page_index() {
    for seed in 0..40u64 {
        let mut rng = SimRng::new(seed);
        let capacity = rng.range_inclusive(1, 64) as usize;
        let mut pool = BufferPool::new(capacity);
        let mut model = NaiveLru {
            capacity,
            ..NaiveLru::default()
        };
        for _ in 0..rng.range_inclusive(1, 600) {
            if rng.chance(0.05) {
                let range = page_range(&mut rng);
                pool.invalidate(range.clone().map(PageId));
                model.invalidate(range);
            } else {
                let page = wide_page(&mut rng);
                let kind = access_kind(&mut rng);
                pool.access(PageId(page), kind);
                model.access(page, kind);
            }
            pool.check_invariants();
        }
        let stats = pool.stats();
        assert_eq!(stats.app_disk_reads, model.disk_reads, "seed {seed}");
        assert_eq!(stats.app_disk_writes, model.disk_writes, "seed {seed}");
        assert_eq!(pool.resident_pages(), model.entries.len(), "seed {seed}");
        for (page, _) in &model.entries {
            assert!(pool.is_resident(PageId(*page)), "seed {seed}");
        }
    }
}

// ---------------------------------------------------------------------
// Trace codec round-trips arbitrary event sequences
// ---------------------------------------------------------------------

fn random_event(rng: &mut SimRng) -> Event {
    match rng.below(6) {
        0 => Event::CreateRoot {
            node: NodeId(rng.next_u64()),
            size: Bytes(rng.range_inclusive(1, 100_000)),
            slots: rng.below(8) as u16,
        },
        1 => Event::CreateChild {
            node: NodeId(rng.next_u64()),
            parent: NodeId(rng.next_u64()),
            parent_slot: rng.below(8) as u16,
            size: Bytes(rng.range_inclusive(1, 100_000)),
            slots: rng.below(8) as u16,
        },
        2 => Event::WritePointer {
            owner: NodeId(rng.next_u64()),
            slot: rng.below(8) as u16,
            new: rng.chance(0.5).then(|| NodeId(rng.next_u64())),
        },
        3 => Event::AddSlot {
            owner: NodeId(rng.next_u64()),
        },
        4 => Event::Visit {
            node: NodeId(rng.next_u64()),
        },
        _ => Event::DataWrite {
            node: NodeId(rng.next_u64()),
        },
    }
}

#[test]
fn trace_codec_round_trips() {
    for seed in 0..50u64 {
        let mut rng = SimRng::new(seed);
        let events: Vec<Event> = (0..rng.below(200))
            .map(|_| random_event(&mut rng))
            .collect();
        let mut buf = Vec::new();
        write_trace(&mut buf, &events).expect("encode");
        let back = read_trace(buf.as_slice()).expect("decode");
        assert_eq!(back, events, "seed {seed}");
    }
}

// ---------------------------------------------------------------------
// Generator mirror: attachment flags vs the parent-chain walk
// ---------------------------------------------------------------------

/// Reference attachment: walk the parent chain to the root, checking that
/// each tree edge on the way still stands.
fn attached_by_walk(m: &Mirror, id: NodeId) -> bool {
    let mut cur = id;
    while let Some((parent, slot)) = m.node(cur).parent {
        if m.node(parent).tree_children[slot as usize] != Some(cur) {
            return false;
        }
        cur = parent;
    }
    true
}

#[test]
fn mirror_attachment_flags_match_the_parent_chain_walk() {
    for seed in 0..64u64 {
        let mut rng = SimRng::new(seed);
        let mut m = Mirror::new();
        m.add_root(false);
        for step in 0..400 {
            let n = m.node_count();
            let node = NodeId(rng.below(n as u64));
            match rng.below(10) {
                0 => {
                    m.add_root(rng.chance(0.1));
                }
                1..=4 => {
                    let slot = rng.below(2) as u16;
                    if m.node(node).tree_children[slot as usize].is_none() {
                        m.add_child(node, slot, false);
                    }
                }
                5 | 6 => {
                    let slot = m.add_extra_slot(node);
                    let target = NodeId(rng.below(n as u64));
                    m.set_slot(node, slot, Some(target));
                }
                _ => m.set_slot(node, rng.below(2) as u16, None),
            }
            for id in (0..m.node_count() as u64).map(NodeId) {
                assert_eq!(
                    m.is_attached(id),
                    attached_by_walk(&m, id),
                    "seed {seed} step {step}: node {id:?}"
                );
            }
        }
    }
}

#[test]
#[should_panic(expected = "only ever cleared")]
fn mirror_rejects_re_setting_a_tree_slot() {
    let mut m = Mirror::new();
    let root = m.add_root(false);
    let child = m.add_child(root, 1, false);
    m.set_slot(root, 1, None);
    m.set_slot(root, 1, Some(child));
}

#[test]
fn truncated_traces_never_panic() {
    for seed in 0..50u64 {
        let mut rng = SimRng::new(seed);
        let events: Vec<Event> = (0..rng.range_inclusive(1, 50))
            .map(|_| random_event(&mut rng))
            .collect();
        let mut buf = Vec::new();
        write_trace(&mut buf, &events).expect("encode");
        let cut_at = 8 + rng.below(buf.len().saturating_sub(8).max(1) as u64) as usize;
        buf.truncate(cut_at);
        // Must yield Ok (clean prefix) or a TraceFormat error — no panic.
        let _ = read_trace(buf.as_slice());
    }
}

// ---------------------------------------------------------------------
// Collector safety under random application programs
// ---------------------------------------------------------------------

/// A random-but-valid application program, interpreted against the
/// database: ops reference existing objects modulo the current object
/// count, so every generated program is applicable.
#[derive(Debug, Clone)]
enum Op {
    NewRoot,
    NewChild {
        parent: usize,
        slot: u8,
    },
    Unlink {
        owner: usize,
        slot: u8,
    },
    Relink {
        owner: usize,
        slot: u8,
        target: usize,
    },
    Collect,
}

fn random_op(rng: &mut SimRng) -> Op {
    // Weights mirror the old generator: 2/8/4/2/1.
    match rng.below(17) {
        0..=1 => Op::NewRoot,
        2..=9 => Op::NewChild {
            parent: rng.next_u64() as usize >> 1,
            slot: rng.below(2) as u8,
        },
        10..=13 => Op::Unlink {
            owner: rng.next_u64() as usize >> 1,
            slot: rng.below(2) as u8,
        },
        14..=15 => Op::Relink {
            owner: rng.next_u64() as usize >> 1,
            slot: rng.below(2) as u8,
            target: rng.next_u64() as usize >> 1,
        },
        _ => Op::Collect,
    }
}

#[test]
fn collector_never_reclaims_reachable_objects() {
    for seed in 0..64u64 {
        let mut rng = SimRng::new(seed);
        let policy = PolicyKind::ALL[rng.pick_index(PolicyKind::ALL.len())];
        let ops: Vec<Op> = (0..rng.range_inclusive(1, 120))
            .map(|_| random_op(&mut rng))
            .collect();
        let cfg = DbConfig::default()
            .with_page_size(512)
            .with_partition_pages(8)
            .with_gc_overwrite_threshold(10);
        let mut db = Database::new(cfg).expect("db");
        let mut collector = Collector::with_kind(policy, 10, 1, 16);
        let mut objects: Vec<Oid> = Vec::new();

        for op in ops {
            match op {
                Op::NewRoot => {
                    objects.push(db.create_root(Bytes(64), 2).expect("root"));
                }
                Op::NewChild { parent, slot } => {
                    if objects.is_empty() {
                        continue;
                    }
                    let p = objects[parent % objects.len()];
                    if !db.objects().contains(p) {
                        continue;
                    }
                    let (c, _info) = db
                        .create_object(Bytes(64), 2, p, SlotId(slot as u16))
                        .expect("child");
                    objects.push(c);
                }
                Op::Unlink { owner, slot } => {
                    if objects.is_empty() {
                        continue;
                    }
                    let o = objects[owner % objects.len()];
                    if !db.objects().contains(o) {
                        continue;
                    }
                    // Only mutate reachable objects, like a real app.
                    if !oracle::reachable_set(&db).contains(&o) {
                        continue;
                    }
                    db.write_slot(o, SlotId(slot as u16), None).expect("write");
                }
                Op::Relink {
                    owner,
                    slot,
                    target,
                } => {
                    if objects.is_empty() {
                        continue;
                    }
                    let o = objects[owner % objects.len()];
                    let t = objects[target % objects.len()];
                    if !db.objects().contains(o) || !db.objects().contains(t) {
                        continue;
                    }
                    let reachable = oracle::reachable_set(&db);
                    if !reachable.contains(&o) || !reachable.contains(&t) {
                        continue;
                    }
                    db.write_slot(o, SlotId(slot as u16), Some(t))
                        .expect("write");
                }
                Op::Collect => {
                    // `force_collect` pumps the accumulated barrier events
                    // through the bus before selecting, so the policy's
                    // scoreboard is current at selection time.
                    let reachable_before = oracle::reachable_set(&db);
                    collector.force_collect(&mut db).expect("collect");
                    for oid in &reachable_before {
                        assert!(
                            db.objects().contains(*oid),
                            "seed {seed}, {policy}: reclaimed reachable object {oid}"
                        );
                    }
                }
            }
            db.check_invariants();
        }

        // Final safety sweep: everything reachable is present with a valid
        // weight, and remsets mirror the heap exactly (check_invariants).
        let reachable = oracle::reachable_set(&db);
        for oid in reachable {
            let rec = db.objects().get(oid).expect("reachable object exists");
            assert!(rec.weight >= 1 && rec.weight <= 16, "seed {seed}");
        }
    }
}

// ---------------------------------------------------------------------
// Scoreboard policies: select() is the argmax of victim_score()
// ---------------------------------------------------------------------

/// Drain the database's pending barrier events into `buf` and replay them
/// onto the policy, mirroring what `Collector::sync` does on the bus.
fn pump(db: &mut Database, policy: &mut dyn SelectionPolicy, buf: &mut Vec<BarrierEvent>) {
    db.drain_events_into(buf);
    for event in buf.iter() {
        policy.on_event(event);
    }
    buf.clear();
}

/// Every scoreboard policy exposes its per-partition `victim_score`, and
/// `select` must return the argmax of that score over the collectable
/// partitions, ties toward the lowest partition id. The only exception is
/// the all-zero fallback (nothing has scored yet), where the fullest
/// partition is collected instead; the ranking check still holds there
/// because no partition scores above zero, and the ties-low check is
/// skipped. Random programs drive the database, the barrier events are
/// pumped by hand, and the ranking is checked at every selection.
#[test]
fn scoreboard_selections_maximize_victim_score() {
    const SCORED: &[PolicyKind] = &[
        PolicyKind::MutatedPartition,
        PolicyKind::UpdatedPointer,
        PolicyKind::WeightedPointer,
        PolicyKind::YnyMutated,
        PolicyKind::UpdatedDecay,
        PolicyKind::Composite,
        PolicyKind::AdaptiveMeta,
    ];

    for seed in 0..48u64 {
        let mut rng = SimRng::new(seed);
        let kind = SCORED[rng.pick_index(SCORED.len())];
        let mut policy = build_policy(kind, seed, 16);
        let ops: Vec<Op> = (0..rng.range_inclusive(40, 160))
            .map(|_| random_op(&mut rng))
            .collect();
        let cfg = DbConfig::default()
            .with_page_size(512)
            .with_partition_pages(8)
            .with_gc_overwrite_threshold(10);
        let mut db = Database::new(cfg).expect("db");
        let mut objects: Vec<Oid> = Vec::new();
        let mut buf: Vec<BarrierEvent> = Vec::new();
        let mut activation = 0u64;

        for op in ops {
            match op {
                Op::NewRoot => {
                    objects.push(db.create_root(Bytes(64), 2).expect("root"));
                }
                Op::NewChild { parent, slot } => {
                    if objects.is_empty() {
                        continue;
                    }
                    let p = objects[parent % objects.len()];
                    if !db.objects().contains(p) {
                        continue;
                    }
                    let (c, _info) = db
                        .create_object(Bytes(64), 2, p, SlotId(slot as u16))
                        .expect("child");
                    objects.push(c);
                }
                Op::Unlink { owner, slot } => {
                    if objects.is_empty() {
                        continue;
                    }
                    let o = objects[owner % objects.len()];
                    if !db.objects().contains(o) || !oracle::reachable_set(&db).contains(&o) {
                        continue;
                    }
                    db.write_slot(o, SlotId(slot as u16), None).expect("write");
                }
                Op::Relink {
                    owner,
                    slot,
                    target,
                } => {
                    if objects.is_empty() {
                        continue;
                    }
                    let o = objects[owner % objects.len()];
                    let t = objects[target % objects.len()];
                    if !db.objects().contains(o) || !db.objects().contains(t) {
                        continue;
                    }
                    let reachable = oracle::reachable_set(&db);
                    if !reachable.contains(&o) || !reachable.contains(&t) {
                        continue;
                    }
                    db.write_slot(o, SlotId(slot as u16), Some(t))
                        .expect("write");
                }
                Op::Collect => {
                    // Mirror one Collector activation: pump pending events,
                    // tick, select, check the ranking, collect, pump the
                    // collection's own events.
                    pump(&mut db, policy.as_mut(), &mut buf);
                    activation += 1;
                    policy.on_event(&BarrierEvent::TriggerTick { activation });
                    let Some(victim) = policy.select(&db) else {
                        continue;
                    };
                    let sv = policy
                        .victim_score(victim)
                        .expect("scoreboard policies always score their pick");
                    for p in db.collectable_partitions() {
                        let sp = policy.victim_score(p).unwrap_or(0.0);
                        assert!(
                            sp <= sv,
                            "seed {seed}, {kind}: selected {victim:?} (score {sv}) \
                             but {p:?} scores higher ({sp})"
                        );
                        if sv > 0.0 && sp == sv {
                            assert!(
                                victim.as_usize() <= p.as_usize(),
                                "seed {seed}, {kind}: tie at score {sv} broken \
                                 toward {victim:?} over lower {p:?}"
                            );
                        }
                    }
                    policy.on_event(&BarrierEvent::VictimSelected {
                        victim,
                        score_bits: Some(sv.to_bits()),
                    });
                    db.collect_partition(victim).expect("collect");
                    pump(&mut db, policy.as_mut(), &mut buf);
                    for s in policy.take_switches() {
                        policy.on_event(&BarrierEvent::PolicySwitched {
                            activation: s.activation,
                            from: s.from.name(),
                            to: s.to.name(),
                        });
                    }
                }
            }
            db.check_invariants();
        }
    }
}

// ---------------------------------------------------------------------
// Workload generator: every generated trace is applicable
// ---------------------------------------------------------------------

#[test]
fn any_seeded_workload_replays_cleanly() {
    for seed in 0..16u64 {
        let mut params = pgc::workload::WorkloadParams::small().with_seed(seed * 61 + 7);
        params.target_allocated = Bytes::from_kib(64);
        params.tree_nodes_min = 8;
        params.tree_nodes_max = 40;
        let events: Vec<Event> = pgc::workload::SyntheticWorkload::new(params)
            .expect("params")
            .collect();
        let cfg = pgc::sim::RunConfig::small();
        let trace = pgc::workload::EncodedTrace::from_events(cfg.workload.clone(), &events);
        let out = pgc::sim::Simulation::builder(&cfg)
            .trace(&trace)
            .run()
            .expect("replay");
        assert_eq!(out.totals.events, events.len() as u64, "seed {seed}");
    }
}

// ---------------------------------------------------------------------
// Page-span arithmetic
// ---------------------------------------------------------------------

#[test]
fn page_spans_cover_exactly_the_extent() {
    use pgc::storage::{page_span, ObjAddr};
    const PAGE: u64 = 8192;
    const PARTITION_PAGES: u64 = 48;
    for seed in 0..200u64 {
        let mut rng = SimRng::new(seed);
        let partition = rng.below(32) as u32;
        // Clamp the extent inside the partition, as the allocator does.
        let offset = rng.below(PARTITION_PAGES * PAGE);
        let size = rng
            .range_inclusive(1, 64 * 1024)
            .min(PARTITION_PAGES * PAGE - offset);
        let addr = ObjAddr::new(pgc::types::PartitionId(partition), offset);
        let pages: Vec<u64> = page_span(addr, Bytes(size), PAGE as usize, PARTITION_PAGES)
            .map(|p| p.index())
            .collect();
        // Non-empty, consecutive, within the partition's global page range.
        assert!(!pages.is_empty(), "seed {seed}");
        for w in pages.windows(2) {
            assert_eq!(w[1], w[0] + 1, "seed {seed}");
        }
        let base = partition as u64 * PARTITION_PAGES;
        assert!(pages[0] >= base, "seed {seed}");
        assert!(
            *pages.last().unwrap() < base + PARTITION_PAGES,
            "seed {seed}"
        );
        // First and last pages contain the extent's first and last bytes.
        assert_eq!(pages[0], base + offset / PAGE, "seed {seed}");
        assert_eq!(
            *pages.last().unwrap(),
            base + (offset + size - 1) / PAGE,
            "seed {seed}"
        );
    }
}

// ---------------------------------------------------------------------
// Partition allocator vs a byte-accurate reference model
// ---------------------------------------------------------------------

#[test]
fn partition_set_matches_reference_accounting() {
    use pgc::storage::PartitionSet;
    const CAPACITY: u64 = 4096;
    for seed in 0..40u64 {
        let mut rng = SimRng::new(seed);
        let mut set = PartitionSet::new(1024, 4);
        // Reference: per-partition bump cursors.
        let mut cursors: Vec<u64> = vec![0, 0]; // P0 (empty), P1
        for _ in 0..rng.range_inclusive(1, 120) {
            let size = rng.range_inclusive(1, 2999);
            let placement = set.allocate(Bytes(size), None).expect("fits a partition");
            let idx = placement.partition.as_usize();
            if placement.grew {
                assert_eq!(idx, cursors.len(), "seed {seed}: growth appends partitions");
                cursors.push(0);
            }
            // Never the designated empty partition.
            assert_ne!(placement.partition, set.empty_partition(), "seed {seed}");
            // Offsets are exactly the reference bump cursor.
            assert_eq!(placement.offset, cursors[idx], "seed {seed}");
            cursors[idx] += size;
            assert!(
                cursors[idx] <= CAPACITY,
                "seed {seed}: no partition overflows"
            );
        }
        // Footprint matches the number of partitions.
        assert_eq!(
            set.total_footprint().get(),
            CAPACITY * cursors.len() as u64,
            "seed {seed}"
        );
    }
}

// ---------------------------------------------------------------------
// Client/server pool: conservation properties
// ---------------------------------------------------------------------

#[test]
fn tiered_pool_disk_traffic_never_exceeds_network_traffic() {
    use pgc::buffer::TieredPool;
    for seed in 0..40u64 {
        let mut rng = SimRng::new(seed);
        let client = rng.range_inclusive(1, 5) as usize;
        let server = rng.range_inclusive(1, 9) as usize;
        let mut pool = TieredPool::new(client, server);
        for _ in 0..rng.range_inclusive(1, 300) {
            let page = rng.below(30);
            let kind = access_kind(&mut rng);
            pool.access(PageId(page), kind);
            pool.check_invariants();
        }
        let s = pool.stats();
        // Every disk read was triggered by a network fetch that missed the
        // server buffer; every disk write by a dirty page that first
        // travelled client -> server.
        assert!(
            s.disk_reads_app + s.disk_reads_gc <= s.net_reads_app + s.net_reads_gc,
            "seed {seed}"
        );
        assert!(
            s.disk_writes_app + s.disk_writes_gc <= s.net_writebacks_app + s.net_writebacks_gc,
            "seed {seed}"
        );
    }
}

#[test]
fn tiered_pool_invalidation_over_a_growing_page_index() {
    use pgc::buffer::TieredPool;
    for seed in 0..40u64 {
        let mut rng = SimRng::new(seed);
        let client = rng.range_inclusive(1, 16) as usize;
        let server = rng.range_inclusive(1, 64) as usize;
        let mut pool = TieredPool::new(client, server);
        for _ in 0..rng.range_inclusive(1, 600) {
            if rng.chance(0.05) {
                let range = page_range(&mut rng);
                pool.invalidate(range.clone().map(PageId));
                for page in range.map(PageId) {
                    assert!(!pool.client_resident(page), "seed {seed}: {page}");
                    assert!(!pool.server_resident(page), "seed {seed}: {page}");
                }
            } else {
                let page = PageId(wide_page(&mut rng));
                pool.access(page, access_kind(&mut rng));
                assert!(pool.client_resident(page), "seed {seed}: {page}");
            }
            pool.check_invariants();
        }
        let s = pool.stats();
        assert!(
            s.disk_reads_app + s.disk_reads_gc <= s.net_reads_app + s.net_reads_gc,
            "seed {seed}"
        );
        assert!(
            s.disk_writes_app + s.disk_writes_gc <= s.net_writebacks_app + s.net_writebacks_gc,
            "seed {seed}"
        );
    }
}

// ---------------------------------------------------------------------
// Summary statistics vs a naive implementation
// ---------------------------------------------------------------------

#[test]
fn summary_matches_naive_statistics() {
    for seed in 0..40u64 {
        let mut rng = SimRng::new(seed);
        let samples: Vec<f64> = (0..rng.range_inclusive(2, 49))
            .map(|_| (rng.unit() - 0.5) * 2.0e6)
            .collect();
        let s = pgc::sim::Summary::of(&samples);
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        assert!(
            (s.mean - mean).abs() <= 1e-6 * (1.0 + mean.abs()),
            "seed {seed}"
        );
        assert!(
            (s.std_dev - var.sqrt()).abs() <= 1e-6 * (1.0 + var.sqrt()),
            "seed {seed}"
        );
        assert_eq!(s.n, samples.len(), "seed {seed}");
    }
}

// ---------------------------------------------------------------------
// Dense oracle vs the retained hash-set reference (tentpole guarantee)
// ---------------------------------------------------------------------

#[test]
fn dense_oracle_matches_reference_after_real_workloads() {
    use pgc::odb::oracle::OracleScratch;
    // Drive real small workloads (not just synthetic graphs) to states with
    // garbage, nepotism, and relocation history, then require report
    // equality — including `nepotism_bytes` — between implementations.
    let mut scratch = OracleScratch::new();
    for seed in 0..6u64 {
        let cfg = pgc::sim::RunConfig::small().with_seed(seed);
        let mut params = cfg.workload.clone();
        params.target_allocated = Bytes::from_kib(128);
        let events: Vec<Event> = pgc::workload::SyntheticWorkload::new(params)
            .expect("params")
            .collect();
        let db = Database::new(cfg.db.clone()).expect("db");
        let collector = Collector::with_kind(PolicyKind::UpdatedPointer, 25, 1, 16);
        let mut replayer = pgc::sim::Replayer::new(db, collector);
        for (i, event) in events.iter().enumerate() {
            replayer.apply(event).expect("apply");
            if i % 500 == 0 {
                let expected = oracle::reference::analyze(replayer.db());
                let got = oracle::analyze_with(replayer.db(), &mut scratch);
                assert_eq!(got, expected, "seed {seed}, event {i}");
            }
        }
        let expected = oracle::reference::analyze(replayer.db());
        assert_eq!(
            oracle::analyze_with(replayer.db(), &mut scratch),
            expected,
            "seed {seed}, final state"
        );
    }
}
