//! The refinement forest: one tree per initial-mesh element.
//!
//! Parent elements are retained when subdivided ("so they do not have to be
//! reconstructed"); only leaves correspond to live elements in the
//! computational mesh. The two dual-graph weights come straight from this
//! structure: `wcomp` is the number of leaves of a tree (the elements that
//! compute), `wremap` is the total node count (everything that must move
//! with the root).

use plum_mesh::{ElemId, VertId};

/// Index of a node in the forest.
pub type NodeId = u32;

const DEAD: u32 = u32::MAX;

/// One node of the refinement forest.
#[derive(Debug, Clone)]
pub struct Node {
    /// The four vertices of this (possibly archived) element.
    pub verts: [VertId; 4],
    /// Parent node, `None` for roots (initial-mesh elements).
    pub parent: Option<NodeId>,
    /// Child nodes (empty for leaves).
    pub children: Vec<NodeId>,
    /// The root (initial-mesh element / dual-graph vertex) this node
    /// descends from.
    pub root: u32,
    /// Refinement level (roots are level 0).
    pub level: u8,
    /// The pattern by which this node was subdivided (0 for leaves).
    pub pattern: u8,
    /// The live mesh element, present iff this node is a leaf.
    pub mesh_elem: Option<ElemId>,
    alive: bool,
}

/// The forest of refinement trees.
#[derive(Debug, Clone, Default)]
pub struct Forest {
    nodes: Vec<Node>,
    free: Vec<NodeId>,
    /// Root node ids in dual-vertex order.
    pub roots: Vec<NodeId>,
}

impl Forest {
    /// An empty forest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a root node for initial element `elem` with dual index `root`.
    pub fn add_root(&mut self, verts: [VertId; 4], elem: ElemId, root: u32) -> NodeId {
        let id = self.alloc(Node {
            verts,
            parent: None,
            children: Vec::new(),
            root,
            level: 0,
            pattern: 0,
            mesh_elem: Some(elem),
            alive: true,
        });
        debug_assert_eq!(self.roots.len(), root as usize);
        self.roots.push(id);
        id
    }

    /// Add a child of `parent` whose live element is `elem`.
    pub fn add_child(&mut self, parent: NodeId, verts: [VertId; 4], elem: ElemId) -> NodeId {
        let (root, level) = {
            let p = &self.nodes[parent as usize];
            (p.root, p.level + 1)
        };
        let id = self.alloc(Node {
            verts,
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

    fn alloc(&mut self, node: Node) -> NodeId {
        if let Some(id) = self.free.pop() {
            self.nodes[id as usize] = node;
            id
        } else {
            self.nodes.push(node);
            (self.nodes.len() - 1) as NodeId
        }
    }

    /// Delete a (childless, non-root) node, unlinking it from its parent.
    pub fn delete(&mut self, id: NodeId) {
        let parent = {
            let n = &mut self.nodes[id as usize];
            assert!(n.alive, "double delete of node {id}");
            assert!(n.children.is_empty(), "cannot delete an interior node");
            n.alive = false;
            n.parent.expect("roots are never deleted")
        };
        let siblings = &mut self.nodes[parent as usize].children;
        let pos = siblings
            .iter()
            .position(|&c| c == id)
            .expect("parent link broken");
        siblings.swap_remove(pos);
        self.free.push(id);
    }

    /// Access a node.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        let n = &self.nodes[id as usize];
        debug_assert!(n.alive);
        n
    }

    /// Mutable access to a node.
    #[inline]
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        let n = &mut self.nodes[id as usize];
        debug_assert!(n.alive);
        n
    }

    /// Is this node a live leaf?
    pub fn is_leaf(&self, id: NodeId) -> bool {
        let n = &self.nodes[id as usize];
        n.alive && n.children.is_empty()
    }

    /// Number of live nodes.
    pub fn n_nodes(&self) -> usize {
        self.nodes.iter().filter(|n| n.alive).count()
    }

    /// Iterate live node ids.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.alive)
            .map(|(i, _)| i as NodeId)
    }

    /// Per-root `(wcomp, wremap)`: leaf count and total node count of each
    /// tree.
    pub fn weights(&self) -> (Vec<u64>, Vec<u64>) {
        let nroots = self.roots.len();
        let mut wcomp = vec![0u64; nroots];
        let mut wremap = vec![0u64; nroots];
        for id in self.iter() {
            let n = self.node(id);
            wremap[n.root as usize] += 1;
            if n.children.is_empty() {
                wcomp[n.root as usize] += 1;
            }
        }
        (wcomp, wremap)
    }

    /// All live nodes of the tree rooted at dual vertex `root`, in preorder
    /// (parents before children) — the serialization order for migration.
    pub fn subtree_of_root(&self, root: u32) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack = vec![self.roots[root as usize]];
        while let Some(id) = stack.pop() {
            out.push(id);
            for &c in &self.node(id).children {
                stack.push(c);
            }
        }
        out
    }

    /// Maximum refinement level over live nodes.
    pub fn max_level(&self) -> u8 {
        self.iter().map(|id| self.node(id).level).max().unwrap_or(0)
    }

    /// Consistency checks: parent/child symmetry, leaf ⇔ mesh element,
    /// levels increase by one.
    pub fn validate(&self) {
        for id in self.iter() {
            let n = self.node(id);
            if let Some(p) = n.parent {
                let pn = self.node(p);
                assert!(pn.children.contains(&id), "parent {p} misses child {id}");
                assert_eq!(n.level, pn.level + 1, "level mismatch at {id}");
                assert_eq!(n.root, pn.root, "root mismatch at {id}");
            } else {
                assert_eq!(n.level, 0);
                assert_eq!(self.roots[n.root as usize], id);
            }
            if n.children.is_empty() {
                assert!(n.mesh_elem.is_some(), "leaf {id} has no mesh element");
                assert_eq!(n.pattern, 0, "leaf {id} has a subdivision pattern");
            } else {
                assert!(n.mesh_elem.is_none(), "interior {id} still in the mesh");
                assert_ne!(n.pattern, 0, "interior {id} without pattern");
                for &c in &n.children {
                    assert!(self.nodes[c as usize].alive, "dead child {c} of {id}");
                }
            }
        }
        let _ = DEAD;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_of_flat_forest() {
        let mut f = Forest::new();
        for i in 0..3 {
            f.add_root([VertId(0), VertId(1), VertId(2), VertId(3)], ElemId(i), i);
        }
        let (wc, wr) = f.weights();
        assert_eq!(wc, vec![1, 1, 1]);
        assert_eq!(wr, vec![1, 1, 1]);
        f.validate();
    }

    #[test]
    fn weights_after_subdivision() {
        let mut f = Forest::new();
        let vs = [VertId(0), VertId(1), VertId(2), VertId(3)];
        let r = f.add_root(vs, ElemId(0), 0);
        // "Subdivide" the root into two children.
        f.node_mut(r).mesh_elem = None;
        f.node_mut(r).pattern = 1;
        let c0 = f.add_child(r, vs, ElemId(1));
        let _c1 = f.add_child(r, vs, ElemId(2));
        let (wc, wr) = f.weights();
        assert_eq!(wc, vec![2], "two leaves compute");
        assert_eq!(wr, vec![3], "three nodes move");
        f.validate();

        // Subdivide one child again.
        f.node_mut(c0).mesh_elem = None;
        f.node_mut(c0).pattern = 0b111111;
        for k in 0..8 {
            f.add_child(c0, vs, ElemId(10 + k));
        }
        let (wc, wr) = f.weights();
        assert_eq!(wc, vec![9]);
        assert_eq!(wr, vec![11]);
        assert_eq!(f.max_level(), 2);
    }

    #[test]
    fn delete_family_restores_leaf() {
        let mut f = Forest::new();
        let vs = [VertId(0), VertId(1), VertId(2), VertId(3)];
        let r = f.add_root(vs, ElemId(0), 0);
        f.node_mut(r).mesh_elem = None;
        f.node_mut(r).pattern = 1;
        let c0 = f.add_child(r, vs, ElemId(1));
        let c1 = f.add_child(r, vs, ElemId(2));
        f.delete(c0);
        f.delete(c1);
        f.node_mut(r).mesh_elem = Some(ElemId(0));
        f.node_mut(r).pattern = 0;
        assert!(f.is_leaf(r));
        assert_eq!(f.n_nodes(), 1);
        f.validate();
    }
}
