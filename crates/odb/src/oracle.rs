//! Exact reachability analysis — the simulation's omniscient oracle.
//!
//! The paper's `MostGarbage` policy "always correctly selects the partition
//! that contains the most garbage" using "an oracle (provided by our
//! simulation system)". This module is that oracle: a full transitive
//! traversal from the root set, attributing every unreachable resident
//! object to its partition. It is also how the evaluation computes the
//! "Actual Garbage" row of Table 4 and the unreclaimed-garbage time series
//! of Figure 4.
//!
//! The oracle performs **no** simulated I/O: it inspects simulator state
//! directly, modeling information an implementable system cannot have.
//!
//! # Dense representation
//!
//! `MostGarbage` runs this analysis at **every** collection trigger, which
//! makes it the simulator's single hottest code path. Because oids are
//! dense and never reused, the live/garbage/seen sets are
//! [`DenseBitSet`]s indexed by `Oid::index()` rather than hash sets, and
//! all of them live in an [`OracleScratch`] that callers can reuse across
//! passes: after the first pass on a given database size, an oracle pass
//! performs no heap allocation. The original hash-set implementation is
//! retained verbatim in [`mod@reference`] as the correctness baseline for
//! equivalence tests and for the perf-regression harness
//! (`perf_report`).

use crate::db::Database;
use pgc_types::{Bytes, DenseBitSet, Oid, PartitionId};
use std::collections::HashSet;

#[path = "oracle_par.rs"]
pub mod parallel;

/// The oracle's view of the database at one instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleReport {
    /// Bytes of objects reachable from the root set.
    pub live_bytes: Bytes,
    /// Count of reachable objects.
    pub live_objects: u64,
    /// Bytes of unreachable (garbage) resident objects.
    pub garbage_bytes: Bytes,
    /// Count of unreachable resident objects.
    pub garbage_objects: u64,
    /// Per-partition garbage bytes, indexed by partition id.
    pub garbage_bytes_by_partition: Vec<Bytes>,
    /// Per-partition garbage object counts, indexed by partition id.
    pub garbage_objects_by_partition: Vec<u64>,
    /// Bytes of garbage that a *single-partition* collection could not
    /// reclaim anyway because the garbage is retained by remembered
    /// pointers from garbage in other partitions (nepotism / distributed
    /// garbage, Sec. 6.5).
    pub nepotism_bytes: Bytes,
}

impl OracleReport {
    /// Garbage bytes in one partition (0 for unknown partitions).
    pub fn garbage_in(&self, p: PartitionId) -> Bytes {
        self.garbage_bytes_by_partition
            .get(p.as_usize())
            .copied()
            .unwrap_or(Bytes::ZERO)
    }

    /// The partition with the most garbage bytes, excluding `exclude` (the
    /// designated empty partition). Ties break toward the lowest id so the
    /// policy is deterministic. Returns `None` if every eligible partition
    /// has zero garbage.
    pub fn most_garbage_partition(&self, exclude: PartitionId) -> Option<PartitionId> {
        let mut best: Option<(PartitionId, Bytes)> = None;
        for (idx, &bytes) in self.garbage_bytes_by_partition.iter().enumerate() {
            let p = PartitionId(idx as u32);
            if p == exclude || bytes.is_zero() {
                continue;
            }
            match best {
                Some((_, b)) if b >= bytes => {}
                _ => best = Some((p, bytes)),
            }
        }
        best.map(|(p, _)| p)
    }

    /// Like [`OracleReport::most_garbage_partition`], additionally
    /// skipping every partition in `exclude` — used by zone-parallel
    /// condemnation, where one oracle pass picks several disjoint victims
    /// in descending garbage order.
    pub fn most_garbage_partition_excluding(
        &self,
        empty: PartitionId,
        exclude: &[PartitionId],
    ) -> Option<PartitionId> {
        let mut best: Option<(PartitionId, Bytes)> = None;
        for (idx, &bytes) in self.garbage_bytes_by_partition.iter().enumerate() {
            let p = PartitionId(idx as u32);
            if p == empty || bytes.is_zero() || exclude.contains(&p) {
                continue;
            }
            match best {
                Some((_, b)) if b >= bytes => {}
                _ => best = Some((p, bytes)),
            }
        }
        best.map(|(p, _)| p)
    }
}

/// Reusable working memory for oracle passes.
///
/// All sets are cleared (allocation kept) at the start of each pass, so one
/// scratch amortizes every traversal a policy or sampler performs over the
/// life of a run.
#[derive(Debug, Default, Clone)]
pub struct OracleScratch {
    /// Objects reachable from the roots, by `Oid::index()`.
    live: DenseBitSet,
    /// Unreachable resident objects, by `Oid::index()`.
    garbage: DenseBitSet,
    /// Visited markers for the nepotism traversal.
    seen: DenseBitSet,
    /// Shared DFS stack.
    stack: Vec<Oid>,
}

impl OracleScratch {
    /// Creates empty scratch; it grows on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Computes the oracle report for the current database state.
///
/// Convenience wrapper that allocates fresh scratch; callers on a hot path
/// (policies, the sampler) should hold an [`OracleScratch`] and call
/// [`analyze_with`] instead.
pub fn analyze(db: &Database) -> OracleReport {
    analyze_with(db, &mut OracleScratch::new())
}

/// Computes the oracle report using caller-owned scratch memory.
///
/// Equivalent to [`analyze`] (and bit-identical to
/// [`reference::analyze`]) but performs no allocation once `scratch` has
/// grown to the database's oid bound.
pub fn analyze_with(db: &Database, scratch: &mut OracleScratch) -> OracleReport {
    let objects = db.objects();
    let bound = objects.oid_bound() as usize;
    scratch.live.clear();
    scratch.live.reserve(bound);
    scratch.garbage.clear();
    scratch.garbage.reserve(bound);
    scratch.seen.clear();
    scratch.seen.reserve(bound);
    scratch.stack.clear();

    // Phase 1: mark everything reachable from the roots.
    scratch.stack.extend(db.roots());
    while let Some(oid) = scratch.stack.pop() {
        if !scratch.live.insert(oid.index()) {
            continue;
        }
        let rec = objects
            .get(oid)
            .expect("reachable object missing from table");
        // Children already marked would be popped and skipped; not pushing
        // them keeps the stack short without changing the marked set.
        for t in rec.slots.iter().flatten() {
            if !scratch.live.contains(t.index()) {
                scratch.stack.push(*t);
            }
        }
    }

    // Phase 2: everything resident but unmarked is garbage; attribute it.
    let partition_count = db.partition_count();
    let mut garbage_bytes_by_partition = vec![Bytes::ZERO; partition_count];
    let mut garbage_objects_by_partition = vec![0u64; partition_count];
    let mut live_bytes = Bytes::ZERO;
    let mut garbage_bytes = Bytes::ZERO;
    let mut garbage_objects = 0u64;

    for (oid, rec) in objects.iter() {
        if scratch.live.contains(oid.index()) {
            live_bytes += rec.size;
        } else {
            let p = rec.addr.partition.as_usize();
            garbage_bytes_by_partition[p] += rec.size;
            garbage_objects_by_partition[p] += 1;
            garbage_bytes += rec.size;
            garbage_objects += 1;
            scratch.garbage.insert(oid.index());
        }
    }

    // Phase 3 — nepotism: garbage reachable from a remembered pointer whose
    // source is itself garbage in another partition. A per-partition
    // collection seeds its trace with remembered targets, so such garbage
    // survives any sequence of single-partition collections until the
    // garbage source is reclaimed first.
    for p in 0..partition_count as u32 {
        let pid = PartitionId(p);
        for target in db.remsets().remembered_targets(pid) {
            if scratch.garbage.contains(target.index()) {
                scratch.stack.push(target);
            }
        }
    }
    let mut nepotism_bytes = Bytes::ZERO;
    while let Some(oid) = scratch.stack.pop() {
        if !scratch.seen.insert(oid.index()) {
            continue;
        }
        let Ok(rec) = objects.get(oid) else { continue };
        if !scratch.garbage.contains(oid.index()) {
            continue;
        }
        nepotism_bytes += rec.size;
        for t in rec.slots.iter().flatten() {
            scratch.stack.push(*t);
        }
    }

    OracleReport {
        live_bytes,
        live_objects: scratch.live.len() as u64,
        garbage_bytes,
        garbage_objects,
        garbage_bytes_by_partition,
        garbage_objects_by_partition,
        nepotism_bytes,
    }
}

/// The set of objects reachable from the database roots.
///
/// Retained for callers that want the set itself rather than the report;
/// built via the dense traversal and materialized into a `HashSet` at the
/// end, so it is not on the zero-allocation path.
pub fn reachable_set(db: &Database) -> HashSet<Oid> {
    let objects = db.objects();
    let mut live = DenseBitSet::with_capacity(objects.oid_bound() as usize);
    let mut stack: Vec<Oid> = db.roots().collect();
    while let Some(oid) = stack.pop() {
        if !live.insert(oid.index()) {
            continue;
        }
        let rec = objects
            .get(oid)
            .expect("reachable object missing from table");
        for t in rec.slots.iter().flatten() {
            stack.push(*t);
        }
    }
    live.iter().map(Oid).collect()
}

/// The original hash-set oracle, kept as a correctness and performance
/// baseline.
///
/// This is the pre-dense implementation, byte for byte: three `HashSet`s
/// allocated per pass. The equivalence test below and the seeded-loop
/// property test in `tests/` hold [`analyze`] to producing
/// identical [`OracleReport`]s, and `perf_report` measures the speedup
/// against it.
pub mod reference {
    use super::{Database, OracleReport};
    use pgc_types::{Bytes, Oid, PartitionId};
    use std::collections::HashSet;

    /// Computes the oracle report with hash-set working memory.
    pub fn analyze(db: &Database) -> OracleReport {
        let objects = db.objects();
        let live = reachable_set(db);

        let partition_count = db.partition_count();
        let mut garbage_bytes_by_partition = vec![Bytes::ZERO; partition_count];
        let mut garbage_objects_by_partition = vec![0u64; partition_count];
        let mut live_bytes = Bytes::ZERO;
        let mut garbage_bytes = Bytes::ZERO;
        let mut garbage_objects = 0u64;
        let mut garbage_set: HashSet<Oid> = HashSet::new();

        for (oid, rec) in objects.iter() {
            if live.contains(&oid) {
                live_bytes += rec.size;
            } else {
                let p = rec.addr.partition.as_usize();
                garbage_bytes_by_partition[p] += rec.size;
                garbage_objects_by_partition[p] += 1;
                garbage_bytes += rec.size;
                garbage_objects += 1;
                garbage_set.insert(oid);
            }
        }

        let mut retained_roots: Vec<Oid> = Vec::new();
        for p in 0..partition_count as u32 {
            let pid = PartitionId(p);
            for target in db.remsets().remembered_targets(pid) {
                if garbage_set.contains(&target) {
                    retained_roots.push(target);
                }
            }
        }
        let mut nepotism_bytes = Bytes::ZERO;
        let mut seen: HashSet<Oid> = HashSet::new();
        let mut stack = retained_roots;
        while let Some(oid) = stack.pop() {
            if !seen.insert(oid) {
                continue;
            }
            let Ok(rec) = objects.get(oid) else { continue };
            if !garbage_set.contains(&oid) {
                continue;
            }
            nepotism_bytes += rec.size;
            for t in rec.slots.iter().flatten() {
                stack.push(*t);
            }
        }

        OracleReport {
            live_bytes,
            live_objects: live.len() as u64,
            garbage_bytes,
            garbage_objects,
            garbage_bytes_by_partition,
            garbage_objects_by_partition,
            nepotism_bytes,
        }
    }

    /// Hash-set reachability, as originally implemented.
    pub fn reachable_set(db: &Database) -> HashSet<Oid> {
        let objects = db.objects();
        let mut live: HashSet<Oid> = HashSet::new();
        let mut stack: Vec<Oid> = db.roots().collect();
        while let Some(oid) = stack.pop() {
            if !live.insert(oid) {
                continue;
            }
            let rec = objects
                .get(oid)
                .expect("reachable object missing from table");
            for t in rec.slots.iter().flatten() {
                stack.push(*t);
            }
        }
        live
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgc_types::{Bytes, DbConfig, SimRng, SlotId};

    fn db() -> Database {
        Database::new(
            DbConfig::default()
                .with_page_size(1024)
                .with_partition_pages(8),
        )
        .unwrap()
    }

    #[test]
    fn empty_database_has_no_garbage() {
        let d = db();
        let r = analyze(&d);
        assert_eq!(r.live_objects, 0);
        assert_eq!(r.garbage_objects, 0);
        assert_eq!(r.most_garbage_partition(d.empty_partition()), None);
    }

    #[test]
    fn fully_live_database() {
        let mut d = db();
        let root = d.create_root(Bytes(100), 2).unwrap();
        let (a, _) = d.create_object(Bytes(100), 2, root, SlotId(0)).unwrap();
        d.create_object(Bytes(100), 2, a, SlotId(0)).unwrap();
        let r = analyze(&d);
        assert_eq!(r.live_objects, 3);
        assert_eq!(r.live_bytes, Bytes(300));
        assert_eq!(r.garbage_objects, 0);
    }

    #[test]
    fn cut_edge_creates_garbage_subtree() {
        let mut d = db();
        let root = d.create_root(Bytes(100), 2).unwrap();
        let (a, _) = d.create_object(Bytes(100), 2, root, SlotId(0)).unwrap();
        let (b, _) = d.create_object(Bytes(100), 2, a, SlotId(0)).unwrap();
        d.create_object(Bytes(100), 2, b, SlotId(0)).unwrap();
        // Cut root -> a: a, b, c all die.
        d.write_slot(root, SlotId(0), None).unwrap();
        let r = analyze(&d);
        assert_eq!(r.live_objects, 1);
        assert_eq!(r.garbage_objects, 3);
        assert_eq!(r.garbage_bytes, Bytes(300));
        let p = d.objects().get(a).unwrap().addr.partition;
        assert_eq!(r.garbage_in(p), Bytes(300));
        assert_eq!(r.most_garbage_partition(d.empty_partition()), Some(p));
    }

    #[test]
    fn dense_edge_keeps_subtree_alive() {
        let mut d = db();
        let root = d.create_root(Bytes(100), 3).unwrap();
        let (a, _) = d.create_object(Bytes(100), 2, root, SlotId(0)).unwrap();
        let (b, _) = d.create_object(Bytes(100), 2, a, SlotId(0)).unwrap();
        // Dense edge root -> b.
        d.write_slot(root, SlotId(2), Some(b)).unwrap();
        // Cut root -> a: only a dies; b survives via the dense edge.
        d.write_slot(root, SlotId(0), None).unwrap();
        let r = analyze(&d);
        assert_eq!(r.live_objects, 2);
        assert_eq!(r.garbage_objects, 1);
    }

    #[test]
    fn cycles_do_not_hang_and_die_together() {
        let mut d = db();
        let root = d.create_root(Bytes(100), 2).unwrap();
        let (a, _) = d.create_object(Bytes(100), 2, root, SlotId(0)).unwrap();
        let (b, _) = d.create_object(Bytes(100), 2, a, SlotId(0)).unwrap();
        // b -> a closes a cycle.
        d.write_slot(b, SlotId(0), Some(a)).unwrap();
        d.write_slot(root, SlotId(0), None).unwrap();
        let r = analyze(&d);
        assert_eq!(r.garbage_objects, 2, "cyclic garbage is still garbage");
        assert_eq!(r.live_objects, 1);
    }

    #[test]
    fn most_garbage_excludes_empty_partition_and_breaks_ties_low() {
        let report = OracleReport {
            live_bytes: Bytes::ZERO,
            live_objects: 0,
            garbage_bytes: Bytes(300),
            garbage_objects: 3,
            garbage_bytes_by_partition: vec![Bytes(100), Bytes(100), Bytes(100)],
            garbage_objects_by_partition: vec![1, 1, 1],
            nepotism_bytes: Bytes::ZERO,
        };
        assert_eq!(
            report.most_garbage_partition(PartitionId(0)),
            Some(PartitionId(1))
        );
        assert_eq!(
            report.most_garbage_partition(PartitionId(1)),
            Some(PartitionId(0))
        );
    }

    #[test]
    fn garbage_in_unknown_partition_is_zero() {
        let d = db();
        let r = analyze(&d);
        assert_eq!(r.garbage_in(PartitionId(99)), Bytes::ZERO);
    }

    #[test]
    fn scratch_is_reusable_across_passes() {
        let mut d = db();
        let mut scratch = OracleScratch::new();
        let root = d.create_root(Bytes(100), 2).unwrap();
        let first = analyze_with(&d, &mut scratch);
        assert_eq!(first.live_objects, 1);
        let (a, _) = d.create_object(Bytes(100), 2, root, SlotId(0)).unwrap();
        d.create_object(Bytes(100), 2, a, SlotId(0)).unwrap();
        d.write_slot(root, SlotId(0), None).unwrap();
        let second = analyze_with(&d, &mut scratch);
        assert_eq!(second.live_objects, 1);
        assert_eq!(second.garbage_objects, 2);
        assert_eq!(second, analyze(&d), "stale scratch state leaked");
    }

    #[test]
    fn dense_matches_reference_on_randomized_databases() {
        // Seeded-loop equivalence: build small random object graphs
        // (including unlink-created garbage and cross-partition pointers
        // that exercise the nepotism pass) and require the dense analysis
        // to reproduce the reference report exactly.
        let mut scratch = OracleScratch::new();
        for seed in 0..20u64 {
            let mut rng = SimRng::new(seed);
            let mut d = db();
            let mut oids = Vec::new();
            for _ in 0..rng.range_inclusive(1, 4) {
                oids.push(
                    d.create_root(Bytes(rng.range_inclusive(40, 200)), 3)
                        .unwrap(),
                );
            }
            for _ in 0..rng.range_inclusive(20, 120) {
                let parent = *rng.pick(&oids);
                let slot = SlotId(rng.below(3) as u16);
                match rng.below(10) {
                    // Mostly allocate.
                    0..=6 => {
                        if let Ok((o, _)) =
                            d.create_object(Bytes(rng.range_inclusive(40, 200)), 3, parent, slot)
                        {
                            oids.push(o);
                        }
                    }
                    // Rewire an existing edge (may orphan a subtree).
                    7..=8 => {
                        let target = *rng.pick(&oids);
                        let _ = d.write_slot(parent, slot, Some(target));
                    }
                    // Cut an edge.
                    _ => {
                        let _ = d.write_slot(parent, slot, None);
                    }
                }
            }
            let expected = reference::analyze(&d);
            let got = analyze_with(&d, &mut scratch);
            assert_eq!(got, expected, "seed {seed} diverged");
            assert_eq!(analyze(&d), expected, "convenience wrapper diverged");
        }
    }
}
