//! The refinement forest: one tree per initial-mesh element.
//!
//! Parent elements are retained when subdivided ("so they do not have to be
//! reconstructed"); only leaves correspond to live elements in the
//! computational mesh. The two dual-graph weights come straight from this
//! structure: `wcomp` is the number of leaves of a tree (the elements that
//! compute), `wremap` is the total node count (everything that must move
//! with the root).
//!
//! # Layout
//!
//! The forest is the one structure that grows with every subdivision and
//! keeps what coarsening has not undone, so a node is four `u32` words and
//! two bytes (20 bytes) and owns no heap allocation: the forest's heap is a
//! fixed set of vectors.
//! - **Slot**: a leaf's `slot` is its live mesh element, and the element
//!   holds its four vertices ([`crate::AdaptiveMesh::node_verts`] reads
//!   them there). Subdividing a node takes its element out of the mesh, so
//!   its `slot` then names a family record: the node's four vertices and
//!   its first child. Coarsening reads the vertices back to reinstate the
//!   parent and frees the record. A node is a leaf iff its `pattern` is 0.
//! - **Families** are linked lists in creation order: the record names the
//!   first child and each child its `next_sibling`. That is the order
//!   [`Forest::subtree_of_root`] serializes a tree in for migration.
//! - **Sentinels**: a root has parent [`NONE`], a last child next sibling
//!   `NONE`, a dead slot root `NONE`.
//! - **Counters**: the per-root leaf and node counts are kept up to date as
//!   families are added and removed, so [`Forest::weights`] copies one entry
//!   per root, [`Forest::wremap`] lends the node counts, and
//!   [`Forest::n_nodes`] reads one counter.
//!
//! # Why node ids stay LIFO
//!
//! Nodes are allocated one at a time from a last-in-first-out free list, a
//! family's children in creation order, and a coarsened family returns its
//! ids to the list in that order. Coarsening visits candidate families in
//! node-id order ([`Forest::iter`]); that order decides which element slots
//! the reinstated parents reuse, and from there the edge ids, the solver's
//! summation order and every floating-point bit downstream. Allocating a
//! family as one contiguous block would renumber nodes after a coarsening
//! and move those bits.

use plum_mesh::{ElemId, VertId};

/// Index of a node in the forest.
pub type NodeId = u32;

/// The "no node" sentinel of every `u32` link.
const NONE: u32 = u32::MAX;

/// One node of the refinement forest.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// Parent node, [`NONE`] for roots (initial-mesh elements).
    parent: NodeId,
    /// The next child of the same parent, [`NONE`] for the last one (and
    /// for roots).
    next_sibling: NodeId,
    /// The root (initial-mesh element / dual-graph vertex) this node
    /// descends from; [`NONE`] for a dead slot.
    root: u32,
    /// A leaf's live mesh element, an interior node's family record.
    slot: u32,
    /// Refinement level (roots are level 0).
    level: u8,
    /// The pattern by which this node was subdivided (0 for leaves).
    pattern: u8,
}

/// What an interior node keeps: the vertices its element had, and where
/// its children's sibling chain starts.
#[derive(Debug, Clone, Copy)]
struct Family {
    verts: [VertId; 4],
    first_child: NodeId,
}

/// The forest of refinement trees.
#[derive(Debug, Clone, Default)]
pub struct Forest {
    nodes: Vec<Node>,
    free: Vec<NodeId>,
    /// One record per interior node, indexed by its `slot`.
    families: Vec<Family>,
    free_families: Vec<u32>,
    /// Root node ids in dual-vertex order.
    roots: Vec<NodeId>,
    /// Per root: leaves (`wcomp`) and live nodes (`wremap`).
    wcomp: Vec<u64>,
    wremap: Vec<u64>,
    live: usize,
    /// Every structural change, for the reference forest to replay.
    #[cfg(test)]
    log: Vec<tests::Op>,
}

impl Forest {
    /// An empty forest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a root node for initial element `elem` with dual index `root`.
    pub(crate) fn add_root(&mut self, elem: ElemId, root: u32) -> NodeId {
        debug_assert_eq!(self.roots.len(), root as usize);
        let id = self.alloc(Node {
            parent: NONE,
            next_sibling: NONE,
            root,
            slot: elem.0,
            level: 0,
            pattern: 0,
        });
        self.roots.push(id);
        self.wcomp.push(1);
        self.wremap.push(1);
        #[cfg(test)]
        self.log.push(tests::Op::Root { elem, root, id });
        id
    }

    /// Subdivide the leaf `parent`, whose element (with vertices `verts`)
    /// has left the mesh, by `pattern` into one child per element of
    /// `elems`, in that order. Returns the children's ids in its first
    /// `elems.len()` entries.
    pub(crate) fn add_family(
        &mut self,
        parent: NodeId,
        pattern: u8,
        verts: [VertId; 4],
        elems: &[ElemId],
    ) -> [NodeId; 8] {
        assert!(self.is_leaf(parent), "node {parent} is already subdivided");
        assert!(pattern != 0 && (1..=8).contains(&elems.len()));
        let Node { root, level, .. } = self.nodes[parent as usize];
        let mut ids = [NONE; 8];
        for (k, &elem) in elems.iter().enumerate() {
            ids[k] = self.alloc(Node {
                parent,
                next_sibling: NONE,
                root,
                slot: elem.0,
                level: level + 1,
                pattern: 0,
            });
            if k > 0 {
                self.nodes[ids[k - 1] as usize].next_sibling = ids[k];
            }
        }
        let family = Family {
            verts,
            first_child: ids[0],
        };
        let record = match self.free_families.pop() {
            Some(r) => {
                self.families[r as usize] = family;
                r
            }
            None => {
                self.families.push(family);
                (self.families.len() - 1) as u32
            }
        };
        let p = &mut self.nodes[parent as usize];
        p.slot = record;
        p.pattern = pattern;
        let n = elems.len() as u64;
        self.wcomp[root as usize] += n - 1;
        self.wremap[root as usize] += n;
        #[cfg(test)]
        self.log.push(tests::Op::Family {
            parent,
            pattern,
            elems: elems.to_vec(),
            ids: ids[..elems.len()].to_vec(),
        });
        ids
    }

    /// Delete the children of `parent`, which must all be leaves whose
    /// elements have left the mesh, returning their ids to the free list
    /// in creation order. `parent` becomes a leaf again: `reinstate` gets
    /// its four vertices and returns its new mesh element.
    pub(crate) fn remove_family(
        &mut self,
        parent: NodeId,
        reinstate: impl FnOnce([VertId; 4]) -> ElemId,
    ) -> ElemId {
        assert!(!self.is_leaf(parent), "node {parent} has no family");
        let Node {
            root, slot: record, ..
        } = self.nodes[parent as usize];
        let Family { verts, first_child } = self.families[record as usize];
        let mut c = first_child;
        let mut n = 0;
        while c != NONE {
            let child = &mut self.nodes[c as usize];
            assert_eq!(child.pattern, 0, "cannot delete an interior node");
            let next = child.next_sibling;
            child.root = NONE;
            self.free.push(c);
            n += 1;
            c = next;
        }
        self.live -= n as usize;
        self.wcomp[root as usize] -= n - 1;
        self.wremap[root as usize] -= n;
        self.free_families.push(record);
        let elem = reinstate(verts);
        let p = &mut self.nodes[parent as usize];
        p.slot = elem.0;
        p.pattern = 0;
        #[cfg(test)]
        self.log.push(tests::Op::Coarsen { parent, elem });
        elem
    }

    fn alloc(&mut self, node: Node) -> NodeId {
        self.live += 1;
        if let Some(id) = self.free.pop() {
            self.nodes[id as usize] = node;
            id
        } else {
            self.nodes.push(node);
            (self.nodes.len() - 1) as NodeId
        }
    }

    #[inline]
    fn node(&self, id: NodeId) -> &Node {
        let n = &self.nodes[id as usize];
        debug_assert!(n.root != NONE, "dead node {id}");
        n
    }

    /// The family record of an interior node.
    fn family(&self, id: NodeId) -> Option<&Family> {
        let n = self.node(id);
        (n.pattern != 0).then(|| &self.families[n.slot as usize])
    }

    /// The children of a node in creation order (none for a leaf).
    pub(crate) fn children(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let mut c = self.family(id).map_or(NONE, |f| f.first_child);
        std::iter::from_fn(move || {
            (c != NONE).then(|| {
                let id = c;
                c = self.nodes[id as usize].next_sibling;
                id
            })
        })
    }

    /// The root (dual-graph vertex) a node descends from.
    #[inline]
    pub fn root(&self, id: NodeId) -> u32 {
        self.node(id).root
    }

    /// Refinement level of a node (roots are level 0).
    #[inline]
    pub fn level(&self, id: NodeId) -> u8 {
        self.node(id).level
    }

    /// The pattern a node was subdivided by (0 for leaves).
    #[inline]
    pub fn pattern(&self, id: NodeId) -> u8 {
        self.node(id).pattern
    }

    /// The live mesh element of a leaf, `None` for an interior node.
    #[inline]
    pub(crate) fn elem(&self, id: NodeId) -> Option<ElemId> {
        let n = self.node(id);
        (n.pattern == 0).then_some(ElemId(n.slot))
    }

    /// The four vertices of an interior node, kept from when its element
    /// left the mesh. A leaf's are its element's.
    pub(crate) fn interior_verts(&self, id: NodeId) -> [VertId; 4] {
        self.family(id)
            .unwrap_or_else(|| panic!("leaf {id} keeps no vertices"))
            .verts
    }

    /// Is this node a live leaf?
    pub fn is_leaf(&self, id: NodeId) -> bool {
        let n = &self.nodes[id as usize];
        n.root != NONE && n.pattern == 0
    }

    /// Number of refinement trees.
    pub(crate) fn n_roots(&self) -> usize {
        self.roots.len()
    }

    /// Number of live nodes.
    pub fn n_nodes(&self) -> usize {
        self.live
    }

    /// Iterate live node ids, ascending.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.root != NONE)
            .map(|(i, _)| i as NodeId)
    }

    /// Per-root `(wcomp, wremap)`: leaf count and total node count of each
    /// tree.
    pub fn weights(&self) -> (Vec<u64>, Vec<u64>) {
        (self.wcomp.clone(), self.wremap.clone())
    }

    /// Per-root total node count (`wremap`) of each tree, by reference:
    /// [`Forest::subtree_of_root`]`(root).len()` without walking the tree.
    pub fn wremap(&self) -> &[u64] {
        &self.wremap
    }

    /// All live nodes of the tree rooted at dual vertex `root`, in preorder
    /// (parents before children, a family's last child first) — the
    /// serialization order for migration.
    pub fn subtree_of_root(&self, root: u32) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.wremap[root as usize] as usize);
        let mut stack = vec![self.roots[root as usize]];
        while let Some(id) = stack.pop() {
            out.push(id);
            stack.extend(self.children(id));
        }
        out
    }

    /// Maximum refinement level over live nodes.
    pub fn max_level(&self) -> u8 {
        self.iter().map(|id| self.level(id)).max().unwrap_or(0)
    }

    /// Heap bytes the forest holds: the capacity of each of its vectors.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        size_of::<Node>() * self.nodes.capacity()
            + size_of::<Family>() * self.families.capacity()
            + size_of::<u32>()
                * (self.free.capacity() + self.free_families.capacity() + self.roots.capacity())
            + size_of::<u64>() * (self.wcomp.capacity() + self.wremap.capacity())
    }

    /// Consistency checks: every sibling chain lists exactly the nodes that
    /// name its owner as parent, levels increase by one down a tree, a leaf
    /// has an element, an interior node a family record of its own (with
    /// its vertices), and the per-root counters equal a recount.
    pub fn validate(&self) {
        let nroots = self.roots.len();
        let (mut wcomp, mut wremap) = (vec![0u64; nroots], vec![0u64; nroots]);
        let mut in_chain = vec![false; self.nodes.len()];
        let mut record_owned = vec![false; self.families.len()];
        for id in self.iter() {
            let n = self.node(id);
            wremap[n.root as usize] += 1;
            if n.parent == NONE {
                assert_eq!(n.level, 0);
                assert_eq!(self.roots[n.root as usize], id);
                assert_eq!(n.next_sibling, NONE, "root {id} has a sibling");
            } else {
                let pn = &self.nodes[n.parent as usize];
                assert!(pn.root != NONE, "node {id} has dead parent {}", n.parent);
                assert_eq!(n.level, pn.level + 1, "level mismatch at {id}");
                assert_eq!(n.root, pn.root, "root mismatch at {id}");
            }
            if n.pattern == 0 {
                wcomp[n.root as usize] += 1;
                assert_ne!(n.slot, NONE, "leaf {id} has no mesh element");
                continue;
            }
            let owned = record_owned.get_mut(n.slot as usize);
            assert!(
                owned.as_deref() == Some(&false),
                "interior {id} has no family record of its own"
            );
            *owned.unwrap() = true;
            let mut c = self.families[n.slot as usize].first_child;
            assert_ne!(c, NONE, "interior {id} has no children");
            let mut k = 0;
            while c != NONE {
                k += 1;
                assert!(k <= 8, "sibling chain of {id} has more than eight nodes");
                let cn = &self.nodes[c as usize];
                assert!(cn.root != NONE, "dead child {c} of {id}");
                assert_eq!(
                    cn.parent, id,
                    "child {c} in the chain of {id} names another parent"
                );
                in_chain[c as usize] = true;
                c = cn.next_sibling;
            }
        }
        for id in self.iter() {
            assert!(
                self.node(id).parent == NONE || in_chain[id as usize],
                "node {id} is missing from its parent's sibling chain"
            );
        }
        for &r in &self.free_families {
            assert!(!record_owned[r as usize], "free family record {r} in use");
        }
        let owned = record_owned.iter().filter(|&&o| o).count();
        assert_eq!(owned + self.free_families.len(), self.families.len());
        assert_eq!(self.live + self.free.len(), self.nodes.len());
        assert_eq!(self.iter().count(), self.live, "live node count");
        assert_eq!(
            wcomp, self.wcomp,
            "per-root leaf counts differ from a recount"
        );
        assert_eq!(
            wremap, self.wremap,
            "per-root node counts differ from a recount"
        );
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{AdaptiveMesh, EdgeMarks};
    use plum_mesh::generate::unit_box_mesh;

    const VS: [VertId; 4] = [VertId(0), VertId(1), VertId(2), VertId(3)];

    /// A structural change of the forest, as its reference replays it.
    #[derive(Debug, Clone)]
    pub(crate) enum Op {
        Root {
            elem: ElemId,
            root: u32,
            id: NodeId,
        },
        Family {
            parent: NodeId,
            pattern: u8,
            elems: Vec<ElemId>,
            ids: Vec<NodeId>,
        },
        Coarsen {
            parent: NodeId,
            elem: ElemId,
        },
    }

    #[test]
    fn a_node_is_twenty_bytes() {
        assert_eq!(std::mem::size_of::<Node>(), 20);
        assert_eq!(std::mem::size_of::<Family>(), 20);
    }

    #[test]
    fn weights_of_flat_forest() {
        let mut f = Forest::new();
        for i in 0..3 {
            f.add_root(ElemId(i), i);
        }
        let (wc, wr) = f.weights();
        assert_eq!(wc, vec![1, 1, 1]);
        assert_eq!(wr, vec![1, 1, 1]);
        f.validate();
    }

    #[test]
    fn weights_after_subdivision() {
        let mut f = Forest::new();
        let r = f.add_root(ElemId(0), 0);
        // "Subdivide" the root into two children.
        let ids = f.add_family(r, 1, VS, &[ElemId(1), ElemId(2)]);
        let (wc, wr) = f.weights();
        assert_eq!(wc, vec![2], "two leaves compute");
        assert_eq!(wr, vec![3], "three nodes move");
        f.validate();

        // Subdivide one child again.
        let elems: Vec<ElemId> = (10..18).map(ElemId).collect();
        f.add_family(ids[0], 0b111111, VS, &elems);
        let (wc, wr) = f.weights();
        assert_eq!(wc, vec![9]);
        assert_eq!(wr, vec![11]);
        assert_eq!(f.n_nodes(), 11);
        assert_eq!(f.max_level(), 2);
        f.validate();
    }

    #[test]
    fn delete_family_restores_leaf() {
        let mut f = Forest::new();
        let r = f.add_root(ElemId(0), 0);
        let verts = [VertId(4), VertId(5), VertId(6), VertId(7)];
        f.add_family(r, 1, verts, &[ElemId(1), ElemId(2)]);
        assert_eq!(f.interior_verts(r), verts);
        let mut got = None;
        f.remove_family(r, |vs| {
            got = Some(vs);
            ElemId(9)
        });
        assert_eq!(got, Some(verts), "the parent is reinstated on its vertices");
        assert!(f.is_leaf(r));
        assert_eq!(f.elem(r), Some(ElemId(9)));
        assert_eq!(f.n_nodes(), 1);
        f.validate();
    }

    /// A forest with one root split in two, its first child split in four.
    fn two_level_forest() -> Forest {
        let mut f = Forest::new();
        let r = f.add_root(ElemId(0), 0);
        let ids = f.add_family(r, 1, VS, &[ElemId(1), ElemId(2)]);
        let elems: Vec<ElemId> = (3..7).map(ElemId).collect();
        f.add_family(ids[0], 0b111000, VS, &elems);
        f.validate();
        f
    }

    #[test]
    #[should_panic(expected = "per-root node counts differ from a recount")]
    fn validate_catches_a_stale_counter() {
        let mut f = two_level_forest();
        f.wremap[0] += 1;
        f.validate();
    }

    #[test]
    #[should_panic(expected = "is missing from its parent's sibling chain")]
    fn validate_catches_a_broken_sibling_link() {
        let mut f = two_level_forest();
        let first = f.children(f.roots[0]).next().unwrap();
        f.nodes[first as usize].next_sibling = NONE;
        f.validate();
    }

    #[test]
    #[should_panic(expected = "has no family record of its own")]
    fn validate_catches_a_shared_family_record() {
        let mut f = two_level_forest();
        let first = f.children(f.roots[0]).next().unwrap();
        f.nodes[first as usize].slot = f.nodes[f.roots[0] as usize].slot;
        f.validate();
    }

    /// The forest as it was before families became sibling chains: a
    /// 64-byte node with a `Vec` of children, allocated from the same LIFO
    /// free list. Vertices are left out; the migration pin in `plum-core`
    /// holds those.
    #[derive(Default)]
    struct Reference {
        nodes: Vec<RefNode>,
        free: Vec<NodeId>,
        roots: Vec<NodeId>,
    }

    #[derive(Clone)]
    struct RefNode {
        parent: Option<NodeId>,
        children: Vec<NodeId>,
        root: u32,
        level: u8,
        pattern: u8,
        mesh_elem: Option<ElemId>,
        alive: bool,
    }

    impl Reference {
        fn alloc(&mut self, node: RefNode) -> NodeId {
            if let Some(id) = self.free.pop() {
                self.nodes[id as usize] = node;
                id
            } else {
                self.nodes.push(node);
                (self.nodes.len() - 1) as NodeId
            }
        }

        fn add_child(&mut self, parent: NodeId, elem: ElemId) -> NodeId {
            let (root, level) = {
                let p = &self.nodes[parent as usize];
                (p.root, p.level + 1)
            };
            let id = self.alloc(RefNode {
                parent: Some(parent),
                children: Vec::new(),
                root,
                level,
                pattern: 0,
                mesh_elem: Some(elem),
                alive: true,
            });
            self.nodes[parent as usize].children.push(id);
            id
        }

        fn delete(&mut self, id: NodeId) {
            let n = &mut self.nodes[id as usize];
            assert!(n.alive && n.children.is_empty());
            n.alive = false;
            let parent = n.parent.unwrap();
            let siblings = &mut self.nodes[parent as usize].children;
            let pos = siblings.iter().position(|&c| c == id).unwrap();
            siblings.swap_remove(pos);
            self.free.push(id);
        }

        /// Replay one logged change, asserting every id it allocates is
        /// the one the forest allocated.
        fn replay(&mut self, op: &Op) {
            match op {
                &Op::Root { elem, root, id } => {
                    let got = self.alloc(RefNode {
                        parent: None,
                        children: Vec::new(),
                        root,
                        level: 0,
                        pattern: 0,
                        mesh_elem: Some(elem),
                        alive: true,
                    });
                    assert_eq!(got, id, "root {root}");
                    self.roots.push(got);
                }
                Op::Family {
                    parent,
                    pattern,
                    elems,
                    ids,
                } => {
                    let p = &mut self.nodes[*parent as usize];
                    p.mesh_elem = None;
                    p.pattern = *pattern;
                    for (&elem, &id) in elems.iter().zip(ids) {
                        assert_eq!(self.add_child(*parent, elem), id, "child of {parent}");
                    }
                }
                &Op::Coarsen { parent, elem } => {
                    for c in self.nodes[parent as usize].children.clone() {
                        self.nodes[c as usize].mesh_elem = None;
                        self.delete(c);
                    }
                    let p = &mut self.nodes[parent as usize];
                    p.mesh_elem = Some(elem);
                    p.pattern = 0;
                }
            }
        }

        fn subtree_of_root(&self, root: u32) -> Vec<NodeId> {
            let mut out = Vec::new();
            let mut stack = vec![self.roots[root as usize]];
            while let Some(id) = stack.pop() {
                out.push(id);
                stack.extend(&self.nodes[id as usize].children);
            }
            out
        }

        fn weights(&self) -> (Vec<u64>, Vec<u64>) {
            let mut wcomp = vec![0u64; self.roots.len()];
            let mut wremap = vec![0u64; self.roots.len()];
            for n in self.nodes.iter().filter(|n| n.alive) {
                wremap[n.root as usize] += 1;
                wcomp[n.root as usize] += n.children.is_empty() as u64;
            }
            (wcomp, wremap)
        }

        /// Node for node, the forest reads as this reference does.
        fn assert_same(&self, f: &Forest) {
            let live: Vec<NodeId> = (0..self.nodes.len() as NodeId)
                .filter(|&id| self.nodes[id as usize].alive)
                .collect();
            assert_eq!(f.iter().collect::<Vec<_>>(), live, "live ids");
            for &id in &live {
                let n = &self.nodes[id as usize];
                assert_eq!(
                    f.children(id).collect::<Vec<_>>(),
                    n.children,
                    "children of {id}"
                );
                let parent = f.nodes[id as usize].parent;
                assert_eq!(
                    (parent != NONE).then_some(parent),
                    n.parent,
                    "parent of {id}"
                );
                assert_eq!(f.root(id), n.root, "root of {id}");
                assert_eq!(f.level(id), n.level, "level of {id}");
                assert_eq!(f.pattern(id), n.pattern, "pattern of {id}");
                assert_eq!(f.elem(id), n.mesh_elem, "element of {id}");
            }
            for r in 0..self.roots.len() as u32 {
                assert_eq!(f.subtree_of_root(r), self.subtree_of_root(r), "tree {r}");
            }
            assert_eq!(f.weights(), self.weights(), "weights");
            assert_eq!(f.wremap(), self.weights().1, "lent node counts");
            assert_eq!(f.n_nodes(), live.len());
        }
    }

    /// Every edge whose seeded hash falls under `percent`.
    fn seeded_marks(am: &AdaptiveMesh, seed: u64, percent: u64) -> EdgeMarks {
        let mut marks = EdgeMarks::new(&am.mesh);
        for e in am.mesh.edges().collect::<Vec<_>>() {
            let mut h = (e.0 as u64 ^ seed).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            h ^= h >> 29;
            if (h.wrapping_mul(0xbf58_476d_1ce4_e5b9) >> 32) % 100 < percent {
                marks.mark(e);
            }
        }
        marks
    }

    /// Through a seeded refine → coarsen → refine → coarsen run on a 3×3×3
    /// box, the forest allocates every node id the reference does and reads
    /// as it does after each step: same children in the same order, same
    /// serialization order, same weights.
    #[test]
    fn the_forest_matches_the_vec_children_reference() {
        let mut am = AdaptiveMesh::new(unit_box_mesh(3));
        let mut reference = Reference::default();
        let (mut replayed, mut coarsened, mut reused) = (0, 0, false);
        for (step, seed) in [1u64, 2, 3, 4, 5, 6].into_iter().enumerate() {
            let slots = am.forest.nodes.len() as NodeId;
            if step % 2 == 0 {
                let mut marks = seeded_marks(&am, seed, 25);
                am.upgrade_to_fixpoint(&mut marks);
                am.refine(&marks, &mut []);
            } else {
                let marks = seeded_marks(&am, seed, 60);
                coarsened += am.coarsen(&marks, &mut []).families_removed;
            }
            am.validate();
            for op in &am.forest.log[replayed..] {
                reference.replay(op);
                if let Op::Family { ids, .. } = op {
                    reused |= ids.iter().any(|&id| id < slots);
                }
            }
            replayed = am.forest.log.len();
            reference.assert_same(&am.forest);
        }
        assert!(coarsened > 0, "the run coarsens");
        assert!(reused, "a refinement after a coarsening reuses freed ids");
    }
}
