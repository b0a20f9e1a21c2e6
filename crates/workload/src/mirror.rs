//! The generator's private model of the forest it has built.
//!
//! The workload generator must choose live nodes to traverse and live tree
//! edges to delete **without consulting the simulated database** (otherwise
//! a recorded trace would not replay identically). The mirror records tree
//! shape — parent links, the two tree-child slots, dense-edge slots — and
//! answers the one liveness question the generator needs:
//! [`Mirror::is_attached`], "does the chain of tree edges from this node up
//! to its root still exist?"
//!
//! That answer is a stored flag, not a walk. A new node inherits its
//! parent's flag, and clearing a tree slot of an attached owner clears the
//! flag over the cut child's subtree, following the tree edges that still
//! stand. A node is cleared at most once, so all deletions together cost
//! O(nodes) and each query is O(1). This rests on one rule the mirror
//! enforces: once created, a tree slot is only ever *cleared*
//! ([`Mirror::set_slot`] panics on a non-null store into slots 0 and 1),
//! so a detached subtree can never be re-attached.
//!
//! Note the mirror deliberately ignores dense edges for attachment: the
//! paper's traversals "are only done on the edges that constitute the
//! binary trees", and its mutations target tree edges. An object kept alive
//! only through a dense edge is invisible to the application — but very
//! much visible to the collector, which is the whole point.

use crate::event::NodeId;

/// The two tree-child slots every binary-tree node owns.
pub const TREE_SLOTS: u16 = 2;

/// Mirror bookkeeping for one node.
#[derive(Debug, Clone)]
pub struct MirrorNode {
    /// Tree this node belongs to (index into the mirror's root list).
    pub tree: u32,
    /// The tree edge this node was created under: `(parent, parent's
    /// slot)`. `None` for roots. The link is *not* cleared when the edge is
    /// deleted (the parent's slot is); attachment is the separate flag
    /// behind [`Mirror::is_attached`].
    pub parent: Option<(NodeId, u16)>,
    /// Tree children (slots 0 and 1).
    pub tree_children: [Option<NodeId>; 2],
    /// Dense-edge slots (database slots `2..`).
    pub extra_slots: Vec<Option<NodeId>>,
    /// Whether this node was created as a large leaf object.
    pub is_large: bool,
    /// Whether the chain of tree edges up to the root still stands.
    attached: bool,
}

impl MirrorNode {
    /// Reads a slot by database slot index (0/1 = tree, 2+ = dense).
    pub fn slot(&self, slot: u16) -> Option<NodeId> {
        if slot < TREE_SLOTS {
            self.tree_children[slot as usize]
        } else {
            self.extra_slots
                .get((slot - TREE_SLOTS) as usize)
                .copied()
                .flatten()
        }
    }

    /// Total number of slots (tree + dense).
    pub fn slot_count(&self) -> u16 {
        TREE_SLOTS + self.extra_slots.len() as u16
    }
}

/// The forest model.
#[derive(Debug, Clone, Default)]
pub struct Mirror {
    nodes: Vec<MirrorNode>,
    roots: Vec<NodeId>,
    tree_members: Vec<Vec<NodeId>>,
    /// Reusable work stack for detaching a cut subtree.
    detach: Vec<NodeId>,
}

impl Mirror {
    /// Creates an empty mirror.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes ever created.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of trees.
    pub fn tree_count(&self) -> usize {
        self.roots.len()
    }

    /// The root of tree `t`.
    pub fn root_of(&self, t: u32) -> NodeId {
        self.roots[t as usize]
    }

    /// All members ever created in tree `t` (attached or not).
    pub fn members_of(&self, t: u32) -> &[NodeId] {
        &self.tree_members[t as usize]
    }

    /// Immutable node access.
    pub fn node(&self, id: NodeId) -> &MirrorNode {
        &self.nodes[id.as_usize()]
    }

    /// Registers a new root; returns its id (dense, creation order).
    pub fn add_root(&mut self, is_large: bool) -> NodeId {
        let id = NodeId(self.nodes.len() as u64);
        let tree = self.roots.len() as u32;
        self.nodes.push(MirrorNode {
            tree,
            parent: None,
            tree_children: [None, None],
            extra_slots: Vec::new(),
            is_large,
            attached: true,
        });
        self.roots.push(id);
        self.tree_members.push(vec![id]);
        id
    }

    /// Registers a child attached at `parent`'s tree slot `slot`; returns
    /// its id.
    ///
    /// # Panics
    ///
    /// Panics if the slot is not a free tree slot.
    pub fn add_child(&mut self, parent: NodeId, slot: u16, is_large: bool) -> NodeId {
        assert!(slot < TREE_SLOTS, "children attach to tree slots");
        assert!(
            self.nodes[parent.as_usize()].tree_children[slot as usize].is_none(),
            "tree slot already occupied"
        );
        let id = NodeId(self.nodes.len() as u64);
        let MirrorNode { tree, attached, .. } = self.nodes[parent.as_usize()];
        self.nodes.push(MirrorNode {
            tree,
            parent: Some((parent, slot)),
            tree_children: [None, None],
            extra_slots: Vec::new(),
            is_large,
            attached,
        });
        self.nodes[parent.as_usize()].tree_children[slot as usize] = Some(id);
        self.tree_members[tree as usize].push(id);
        id
    }

    /// Appends a dense-edge slot to `owner`; returns the database slot
    /// index it will occupy.
    pub fn add_extra_slot(&mut self, owner: NodeId) -> u16 {
        let n = &mut self.nodes[owner.as_usize()];
        n.extra_slots.push(None);
        TREE_SLOTS + (n.extra_slots.len() - 1) as u16
    }

    /// Records a pointer store `owner.slot := value`: a dense-edge store,
    /// or the deletion of a tree edge. Deleting a tree edge below an
    /// attached owner detaches the cut child's whole standing subtree.
    ///
    /// # Panics
    ///
    /// Panics on a non-null store into a tree slot: tree slots are set
    /// only at creation ([`Mirror::add_child`]), which is what keeps
    /// attachment a one-way flag.
    pub fn set_slot(&mut self, owner: NodeId, slot: u16, value: Option<NodeId>) {
        let n = &mut self.nodes[owner.as_usize()];
        if slot >= TREE_SLOTS {
            n.extra_slots[(slot - TREE_SLOTS) as usize] = value;
            return;
        }
        assert!(value.is_none(), "tree slots are only ever cleared");
        let cut = n.tree_children[slot as usize].take();
        if let (Some(child), true) = (cut, n.attached) {
            self.detach_subtree(child);
        }
    }

    /// Clears the attached flag over `top`'s subtree along the tree edges
    /// that still stand. Everything below an attached node through
    /// standing edges is attached, so each node is visited once per
    /// mirror lifetime.
    fn detach_subtree(&mut self, top: NodeId) {
        self.detach.push(top);
        while let Some(id) = self.detach.pop() {
            let node = &mut self.nodes[id.as_usize()];
            debug_assert!(node.attached, "standing edge below a detached node");
            node.attached = false;
            self.detach.extend(node.tree_children.iter().flatten());
        }
    }

    /// True if the chain of tree edges from `id` to its tree root is
    /// intact. O(1): a stored flag kept current by [`Mirror::set_slot`].
    pub fn is_attached(&self, id: NodeId) -> bool {
        self.nodes[id.as_usize()].attached
    }

    /// Count of attached members of tree `t` (O(members) — used by tests
    /// and diagnostics, not the hot path).
    pub fn attached_count(&self, t: u32) -> usize {
        self.tree_members[t as usize]
            .iter()
            .filter(|&&n| self.is_attached(n))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roots_and_children_get_dense_ids() {
        let mut m = Mirror::new();
        let r = m.add_root(false);
        let a = m.add_child(r, 0, false);
        let b = m.add_child(r, 1, true);
        let c = m.add_child(a, 0, false);
        assert_eq!((r, a, b, c), (NodeId(0), NodeId(1), NodeId(2), NodeId(3)));
        assert_eq!(m.node_count(), 4);
        assert_eq!(m.tree_count(), 1);
        assert_eq!(m.root_of(0), r);
        assert_eq!(m.members_of(0), &[r, a, b, c]);
        assert!(m.node(b).is_large);
    }

    #[test]
    fn two_trees_are_separate() {
        let mut m = Mirror::new();
        let r1 = m.add_root(false);
        let r2 = m.add_root(false);
        let a = m.add_child(r2, 0, false);
        assert_eq!(m.tree_count(), 2);
        assert_eq!(m.node(a).tree, 1);
        assert_eq!(m.members_of(0), &[r1]);
        assert_eq!(m.members_of(1), &[r2, a]);
    }

    #[test]
    fn attachment_follows_tree_edges() {
        let mut m = Mirror::new();
        let r = m.add_root(false);
        let a = m.add_child(r, 0, false);
        let b = m.add_child(a, 1, false);
        assert!(m.is_attached(r));
        assert!(m.is_attached(b));
        // Cut r -> a.
        m.set_slot(r, 0, None);
        assert!(m.is_attached(r));
        assert!(!m.is_attached(a));
        assert!(!m.is_attached(b));
        assert_eq!(m.attached_count(0), 1);
    }

    #[test]
    fn dense_edges_do_not_affect_attachment() {
        let mut m = Mirror::new();
        let r = m.add_root(false);
        let a = m.add_child(r, 0, false);
        let b = m.add_child(a, 0, false);
        // Dense edge r -> b.
        let s = m.add_extra_slot(r);
        assert_eq!(s, 2);
        m.set_slot(r, s, Some(b));
        assert_eq!(m.node(r).slot(s), Some(b));
        m.set_slot(r, 0, None); // cut r -> a
        assert!(
            !m.is_attached(b),
            "dense edges keep objects DB-live, not application-attached"
        );
    }

    #[test]
    fn slot_accessors_cover_tree_and_dense() {
        let mut m = Mirror::new();
        let r = m.add_root(false);
        let a = m.add_child(r, 1, false);
        assert_eq!(m.node(r).slot(0), None);
        assert_eq!(m.node(r).slot(1), Some(a));
        assert_eq!(m.node(r).slot(2), None, "nonexistent dense slot reads None");
        assert_eq!(m.node(r).slot_count(), 2);
        m.add_extra_slot(r);
        assert_eq!(m.node(r).slot_count(), 3);
    }

    /// The reference answer: walk the parent chain to the root, checking
    /// each edge still stands.
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
    fn cutting_below_a_detached_node_keeps_flags_exact() {
        let mut m = Mirror::new();
        let r = m.add_root(false);
        let a = m.add_child(r, 0, false);
        let b = m.add_child(a, 0, false);
        let c = m.add_child(b, 1, false);
        let d = m.add_child(r, 1, false);
        m.set_slot(r, 0, None); // detaches a, b, c
        m.set_slot(b, 1, None); // cut inside the detached subtree
        let e = m.add_child(a, 1, false); // born under a detached parent
        m.set_slot(r, 0, None); // clearing an empty slot is a no-op
        for id in [r, a, b, c, d, e] {
            assert_eq!(m.is_attached(id), attached_by_walk(&m, id), "{id:?}");
        }
        assert_eq!(m.attached_count(0), 2);
    }

    #[test]
    #[should_panic(expected = "occupied")]
    fn double_attach_panics() {
        let mut m = Mirror::new();
        let r = m.add_root(false);
        m.add_child(r, 0, false);
        m.add_child(r, 0, false);
    }
}
