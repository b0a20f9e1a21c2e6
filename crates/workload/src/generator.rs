//! The synthetic application (Sec. 5): an `Iterator<Item = Event>`.
//!
//! Each *round* interleaves the three application behaviours the paper
//! models, so the database grows, is traversed, and sheds garbage
//! continuously over the whole run (the time-varying figures depend on
//! this):
//!
//! 1. **Build** one augmented binary tree (if the allocation target is not
//!    yet met): a random binary tree emitted in breadth-first creation
//!    order (matching the paper's placement discipline), with uniform
//!    50–150-byte objects, occasional 64 KB large leaves, and
//!    `dense_edge_fraction · n` dense edges between random nodes of the
//!    same tree.
//! 2. **Traverse**: `traversals_per_round` partial tree traversals — per
//!    tree 30% none / 20% depth-first / 50% breadth-first, 5% chance per
//!    edge of skipping the subtree, 1% chance per visit of a data write.
//! 3. **Mutate**: `deletions_per_round` random tree-edge deletions — the
//!    workload's only pointer overwrites, hence the GC trigger events.
//!
//! The generator is deterministic in its seed and never inspects the
//! simulated database, so recording its output and replaying the trace
//! drives every policy with identical input.
//!
//! Cost per event is flat. A deletion attempt asks the [`Mirror`] whether
//! its candidate is still attached, which is a stored flag (O(1)), and a
//! round's working buffers (tree shape, emission queue, traversal work
//! list) are generator-owned scratch reused from round to round: the
//! shape is a `[Option<usize>; 2]` child table indexed by slot, already in
//! left-before-right emission order. What still allocates is the model
//! itself growing: the mirror's node table, one member list per tree, and
//! a slot list per node that receives a dense edge.

use crate::event::{Event, NodeId};
use crate::mirror::{Mirror, TREE_SLOTS};
use crate::params::WorkloadParams;
use pgc_types::{Bytes, SimRng};
use std::collections::VecDeque;

/// Diagnostic counters for a generated workload.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GenStats {
    /// Trees built.
    pub trees_built: u64,
    /// Objects created (roots + children).
    pub nodes_created: u64,
    /// Of those, large (64 KB-class) leaves.
    pub large_objects: u64,
    /// Bytes allocated.
    pub bytes_allocated: Bytes,
    /// Dense edges threaded.
    pub dense_edges: u64,
    /// Tree edges deleted (pointer overwrites).
    pub deletions: u64,
    /// Objects visited.
    pub visits: u64,
    /// Data writes performed.
    pub data_writes: u64,
}

/// The synthetic workload generator.
///
/// ```
/// use pgc_workload::{SyntheticWorkload, WorkloadParams};
///
/// let params = WorkloadParams::small().with_seed(7);
/// let mut gen = SyntheticWorkload::new(params).unwrap();
/// let events: Vec<_> = gen.by_ref().collect();
/// assert!(!events.is_empty());
/// let stats = gen.stats();
/// assert!(stats.bytes_allocated >= gen.params().target_allocated);
/// assert!(stats.deletions > 0, "garbage was generated");
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticWorkload {
    params: WorkloadParams,
    rng: SimRng,
    mirror: Mirror,
    pending: VecDeque<Event>,
    stats: GenStats,
    done: bool,
    scratch: Scratch,
}

/// Buffers each round reuses instead of allocating: once they have grown
/// to the largest tree so far, building, traversing and mutating need no
/// scratch allocation.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// Free tree slots `(node, slot)` while drawing a tree's shape.
    open_slots: Vec<(usize, u16)>,
    /// Shape of the tree being built: `children[i][slot]`, so iterating a
    /// row yields children left before right.
    children: Vec<[Option<usize>; 2]>,
    /// Mirror id of each shape node, assigned in breadth-first order.
    ids: Vec<Option<NodeId>>,
    /// Breadth-first emission queue (shape indices).
    queue: VecDeque<usize>,
    /// Traversal work list: stack for depth-first, queue for breadth-first.
    work: VecDeque<NodeId>,
}

impl SyntheticWorkload {
    /// Creates a generator for the given parameters (validated).
    pub fn new(params: WorkloadParams) -> pgc_types::Result<Self> {
        params.validate()?;
        let rng = SimRng::new(params.seed);
        Ok(Self {
            params,
            rng,
            mirror: Mirror::new(),
            pending: VecDeque::new(),
            stats: GenStats::default(),
            done: false,
            scratch: Scratch::default(),
        })
    }

    /// The generator's private forest model (read-only; used by tests).
    pub fn mirror(&self) -> &Mirror {
        &self.mirror
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> GenStats {
        self.stats
    }

    /// The parameters this generator runs under.
    pub fn params(&self) -> &WorkloadParams {
        &self.params
    }

    // -----------------------------------------------------------------
    // Round structure
    // -----------------------------------------------------------------

    fn round(&mut self) {
        if self.stats.bytes_allocated >= self.params.target_allocated {
            self.done = true;
            return;
        }
        self.build_tree();
        for _ in 0..self.params.traversals_per_round {
            self.traverse_one();
        }
        for _ in 0..self.params.deletions_per_round {
            self.delete_one_edge();
        }
    }

    // -----------------------------------------------------------------
    // Tree construction
    // -----------------------------------------------------------------

    fn build_tree(&mut self) {
        let n = self
            .rng
            .range_inclusive(self.params.tree_nodes_min, self.params.tree_nodes_max)
            as usize;
        let mut scratch = std::mem::take(&mut self.scratch);
        let Scratch {
            open_slots,
            children,
            ids,
            queue,
            ..
        } = &mut scratch;

        // 1. Random binary tree shape: attach node i to a uniformly random
        //    free child slot of the existing nodes. Leaves are the nodes no
        //    one attaches to.
        children.clear();
        children.resize(n, [None, None]);
        open_slots.clear();
        open_slots.extend([(0, 0), (0, 1)]);
        for i in 1..n {
            let k = self.rng.pick_index(open_slots.len());
            let (p, s) = open_slots.swap_remove(k);
            children[p][s as usize] = Some(i);
            open_slots.push((i, 0));
            open_slots.push((i, 1));
        }

        // 2. Emit creations in breadth-first order (the paper's placement
        //    order), left child before right.
        let p_large = self.params.large_leaf_probability();
        let root_size = self.small_size();
        let root_id = self.mirror.add_root(false);
        self.emit_creation(Event::CreateRoot {
            node: root_id,
            size: root_size,
            slots: TREE_SLOTS,
        });

        ids.clear();
        ids.resize(n, None);
        ids[0] = Some(root_id);
        queue.clear();
        queue.push_back(0);
        while let Some(i) = queue.pop_front() {
            let parent_id = ids[i].expect("BFS emits parents before children");
            for (slot, c) in (0..TREE_SLOTS).zip(children[i]) {
                let Some(c) = c else { continue };
                let is_leaf = children[c] == [None, None];
                let is_large = is_leaf && self.rng.chance(p_large);
                let size = if is_large {
                    Bytes(self.params.large_object_size)
                } else {
                    self.small_size()
                };
                let child_id = self.mirror.add_child(parent_id, slot, is_large);
                if is_large {
                    self.stats.large_objects += 1;
                }
                ids[c] = Some(child_id);
                self.emit_creation(Event::CreateChild {
                    node: child_id,
                    parent: parent_id,
                    parent_slot: slot,
                    size,
                    slots: TREE_SLOTS,
                });
                queue.push_back(c);
            }
        }
        self.scratch = scratch;

        // 3. Dense edges between random nodes of this tree.
        let dense = (self.params.dense_edge_fraction * n as f64).round() as usize;
        let tree = self.mirror.node(root_id).tree;
        for _ in 0..dense {
            let members = self.mirror.members_of(tree);
            let a = members[self.rng.pick_index(members.len())];
            let b = members[self.rng.pick_index(members.len())];
            let slot = self.mirror.add_extra_slot(a);
            self.pending.push_back(Event::AddSlot { owner: a });
            self.mirror.set_slot(a, slot, Some(b));
            self.pending.push_back(Event::WritePointer {
                owner: a,
                slot,
                new: Some(b),
            });
            self.stats.dense_edges += 1;
        }
        self.stats.trees_built += 1;
    }

    fn small_size(&mut self) -> Bytes {
        Bytes(
            self.rng
                .range_inclusive(self.params.object_size_min, self.params.object_size_max),
        )
    }

    fn emit_creation(&mut self, event: Event) {
        let size = match event {
            Event::CreateRoot { size, .. } | Event::CreateChild { size, .. } => size,
            _ => unreachable!("emit_creation takes creation events"),
        };
        self.stats.nodes_created += 1;
        self.stats.bytes_allocated += size;
        self.pending.push_back(event);
    }

    // -----------------------------------------------------------------
    // Traversal
    // -----------------------------------------------------------------

    fn traverse_one(&mut self) {
        if self.mirror.tree_count() == 0 {
            return;
        }
        let tree = self.rng.pick_index(self.mirror.tree_count()) as u32;
        let roll = self.rng.unit();
        if roll < self.params.p_no_traversal {
            return;
        }
        let depth_first = roll < self.params.p_no_traversal + self.params.p_depth_first;
        let root = self.mirror.root_of(tree);

        let work = &mut self.scratch.work;
        work.clear();
        work.push_back(root);
        while let Some(node) = if depth_first {
            work.pop_back()
        } else {
            work.pop_front()
        } {
            self.pending.push_back(Event::Visit { node });
            self.stats.visits += 1;
            if self.rng.chance(self.params.p_modify_on_visit) {
                self.pending.push_back(Event::DataWrite { node });
                self.stats.data_writes += 1;
            }
            for slot in 0..TREE_SLOTS {
                if let Some(child) = self.mirror.node(node).tree_children[slot as usize] {
                    if !self.rng.chance(self.params.p_skip_edge) {
                        work.push_back(child);
                    }
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // Mutation (garbage generation)
    // -----------------------------------------------------------------

    fn delete_one_edge(&mut self) {
        const ATTEMPTS: usize = 24;
        if self.mirror.tree_count() == 0 {
            return;
        }
        for _ in 0..ATTEMPTS {
            let tree = self.rng.pick_index(self.mirror.tree_count()) as u32;
            let members = self.mirror.members_of(tree);
            let candidate = members[self.rng.pick_index(members.len())];
            if !self.mirror.is_attached(candidate) {
                continue;
            }
            let node = self.mirror.node(candidate);
            let mut filled = [0u16; TREE_SLOTS as usize];
            let mut len = 0;
            for s in 0..TREE_SLOTS {
                if node.tree_children[s as usize].is_some() {
                    filled[len] = s;
                    len += 1;
                }
            }
            if len == 0 {
                continue;
            }
            let slot = *self.rng.pick(&filled[..len]);
            self.mirror.set_slot(candidate, slot, None);
            self.pending.push_back(Event::WritePointer {
                owner: candidate,
                slot,
                new: None,
            });
            self.stats.deletions += 1;
            return;
        }
        // All attempts hit detached or childless nodes; skip this deletion.
    }
}

impl Iterator for SyntheticWorkload {
    type Item = Event;

    fn next(&mut self) -> Option<Event> {
        loop {
            if let Some(e) = self.pending.pop_front() {
                return Some(e);
            }
            if self.done {
                return None;
            }
            self.round();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> WorkloadParams {
        WorkloadParams::small().with_seed(11)
    }

    #[test]
    fn generator_terminates_and_meets_allocation_target() {
        let mut g = SyntheticWorkload::new(small()).unwrap();
        let events: Vec<Event> = g.by_ref().collect();
        assert!(!events.is_empty());
        let s = g.stats();
        assert!(s.bytes_allocated >= g.params().target_allocated);
        assert!(s.trees_built >= 1);
        assert!(s.deletions > 0, "garbage must be generated");
        assert!(s.visits > 0, "database must be traversed");
    }

    #[test]
    fn creation_ids_are_dense_and_in_order() {
        let g = SyntheticWorkload::new(small()).unwrap();
        let mut expected = 0u64;
        for e in g {
            match e {
                Event::CreateRoot { node, .. } | Event::CreateChild { node, .. } => {
                    assert_eq!(node.index(), expected, "creation order must be dense");
                    expected += 1;
                }
                _ => {}
            }
        }
        assert!(expected > 0);
    }

    #[test]
    fn parents_are_created_before_children_and_events_reference_created_nodes() {
        let g = SyntheticWorkload::new(small()).unwrap();
        let mut created = 0u64;
        for e in g {
            match e {
                Event::CreateRoot { node, .. } => {
                    assert_eq!(node.index(), created);
                    created += 1;
                }
                Event::CreateChild { node, parent, .. } => {
                    assert!(parent.index() < created, "parent must exist");
                    assert_eq!(node.index(), created);
                    created += 1;
                }
                Event::WritePointer { owner, new, .. } => {
                    assert!(owner.index() < created);
                    if let Some(t) = new {
                        assert!(t.index() < created);
                    }
                }
                Event::AddSlot { owner } => assert!(owner.index() < created),
                Event::Visit { node } | Event::DataWrite { node } => {
                    assert!(node.index() < created)
                }
            }
        }
    }

    #[test]
    fn same_seed_reproduces_identical_traces() {
        let a: Vec<Event> = SyntheticWorkload::new(small()).unwrap().collect();
        let b: Vec<Event> = SyntheticWorkload::new(small()).unwrap().collect();
        assert_eq!(a, b);
        let c: Vec<Event> = SyntheticWorkload::new(small().with_seed(12))
            .unwrap()
            .collect();
        assert_ne!(a, c);
    }

    #[test]
    fn read_write_ratio_lands_near_paper_band() {
        // Paper: edge read/write ratio ~15–20, "not explicitly specified
        // but rather results from the probabilities of operations". We
        // measure edge reads (visits follow tree edges) against the
        // application's edge *updates* (dense-edge stores and deletions;
        // creation-time initialization is part of building the database,
        // not of mutating it).
        let mut g = SyntheticWorkload::new(
            WorkloadParams::default()
                .with_seed(3)
                .with_target_allocated(Bytes::from_mib(2)),
        )
        .unwrap();
        for _ in g.by_ref() {}
        let s = g.stats();
        let edge_updates = s.dense_edges + s.deletions;
        let ratio = s.visits as f64 / edge_updates as f64;
        assert!((10.0..32.0).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn large_objects_contribute_roughly_a_fifth_of_bytes() {
        let mut g = SyntheticWorkload::new(
            WorkloadParams::default()
                .with_seed(5)
                .with_target_allocated(Bytes::from_mib(4)),
        )
        .unwrap();
        for _ in g.by_ref() {}
        let s = g.stats();
        let large_bytes = s.large_objects * g.params().large_object_size;
        let frac = large_bytes as f64 / s.bytes_allocated.get() as f64;
        assert!(
            (0.08..0.35).contains(&frac),
            "large-object byte fraction = {frac}"
        );
    }

    #[test]
    fn dense_edges_track_fraction() {
        let mut g = SyntheticWorkload::new(
            WorkloadParams::small()
                .with_seed(7)
                .with_dense_edge_fraction(0.1),
        )
        .unwrap();
        for _ in g.by_ref() {}
        let s = g.stats();
        let per_node = s.dense_edges as f64 / s.nodes_created as f64;
        assert!((0.05..0.15).contains(&per_node), "dense/node = {per_node}");
    }

    #[test]
    fn zero_dense_fraction_builds_pure_trees() {
        let mut g = SyntheticWorkload::new(
            WorkloadParams::small()
                .with_seed(9)
                .with_dense_edge_fraction(0.0),
        )
        .unwrap();
        for _ in g.by_ref() {}
        assert_eq!(g.stats().dense_edges, 0);
    }

    #[test]
    fn deletions_only_cut_tree_slots_of_attached_nodes() {
        let g = SyntheticWorkload::new(small()).unwrap();
        // Re-run the event stream checking every deletion against a replica
        // mirror built from the events themselves.
        let mut replica = Mirror::new();
        for e in g {
            match e {
                Event::CreateRoot { .. } => {
                    replica.add_root(false);
                }
                Event::CreateChild {
                    parent,
                    parent_slot,
                    ..
                } => {
                    replica.add_child(parent, parent_slot, false);
                }
                Event::AddSlot { owner } => {
                    replica.add_extra_slot(owner);
                }
                Event::WritePointer { owner, slot, new } => {
                    if new.is_none() && slot < TREE_SLOTS {
                        assert!(
                            replica.node(owner).tree_children[slot as usize].is_some(),
                            "deletion of an already-empty slot"
                        );
                        assert!(replica.is_attached(owner), "deletion from detached node");
                    }
                    replica.set_slot(owner, slot, new);
                }
                Event::Visit { node } | Event::DataWrite { node } => {
                    assert!(replica.is_attached(node), "visited a detached node");
                }
            }
        }
    }
}
