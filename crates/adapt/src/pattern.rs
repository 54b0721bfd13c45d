//! Edge-marking patterns and the three legal subdivision types.
//!
//! Each tetrahedron's edge markings form a 6-bit pattern over its canonical
//! local edges. Only three subdivision types are allowed (§3): 1-to-2 (one
//! edge), 1-to-4 (the three edges of one face), and 1-to-8 (all six edges).
//! Any other combination is *upgraded* to the smallest legal superset, which
//! marks additional edges and propagates to neighbouring elements.

use plum_mesh::{LOCAL_EDGE_VERTS, LOCAL_FACE_EDGES};

/// Bitmask of the three local edges of each local face.
pub const FACE_MASKS: [u8; 4] = [face_mask(0), face_mask(1), face_mask(2), face_mask(3)];

const fn face_mask(f: usize) -> u8 {
    let e = LOCAL_FACE_EDGES[f];
    (1 << e[0]) | (1 << e[1]) | (1 << e[2])
}

/// Full 1-to-8 pattern: all six edges marked.
pub const FULL_MASK: u8 = 0b11_1111;

/// One of the three legal subdivision types (or no subdivision).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubdivKind {
    /// No edges marked; the element is untouched.
    None,
    /// Bisect local edge `k`: two children.
    OneToTwo { edge: usize },
    /// Subdivide local face `f` (its three edges marked): four children.
    OneToFour { face: usize },
    /// Isotropic subdivision: eight children.
    OneToEight,
}

impl SubdivKind {
    /// Number of child elements this subdivision creates (1 = unchanged).
    pub fn n_children(self) -> usize {
        match self {
            SubdivKind::None => 1,
            SubdivKind::OneToTwo { .. } => 2,
            SubdivKind::OneToFour { .. } => 4,
            SubdivKind::OneToEight => 8,
        }
    }
}

/// Classify a pattern as one of the legal subdivision types, or `None` if
/// the pattern is invalid (needs upgrading first).
pub fn classify(pattern: u8) -> Option<SubdivKind> {
    let p = pattern & FULL_MASK;
    if p == 0 {
        return Some(SubdivKind::None);
    }
    if p == FULL_MASK {
        return Some(SubdivKind::OneToEight);
    }
    if p.count_ones() == 1 {
        return Some(SubdivKind::OneToTwo {
            edge: p.trailing_zeros() as usize,
        });
    }
    for (f, &m) in FACE_MASKS.iter().enumerate() {
        if p == m {
            return Some(SubdivKind::OneToFour { face: f });
        }
    }
    None
}

/// Upgrade an arbitrary pattern to the smallest legal pattern containing it:
///
/// * 0 or 1 edges, a full face, or all six — already legal;
/// * 2 edges sharing a face — that face's three edges;
/// * anything else — all six edges.
pub fn upgrade(pattern: u8) -> u8 {
    let p = pattern & FULL_MASK;
    if classify(p).is_some() {
        return p;
    }
    if p.count_ones() == 2 {
        for &m in &FACE_MASKS {
            if p & m == p {
                return m;
            }
        }
    }
    FULL_MASK
}

/// The local edge connecting local vertices `i` and `j`.
pub fn local_edge_between(i: usize, j: usize) -> usize {
    let want = (i.min(j), i.max(j));
    LOCAL_EDGE_VERTS
        .iter()
        .position(|&e| e == want)
        .expect("no such local edge")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn face_masks_have_three_bits() {
        for &m in &FACE_MASKS {
            assert_eq!(m.count_ones(), 3);
        }
        // The four faces cover all six edges, each edge on exactly two faces.
        let mut cover = [0u8; 6];
        for &m in &FACE_MASKS {
            for (k, c) in cover.iter_mut().enumerate() {
                if m & (1 << k) != 0 {
                    *c += 1;
                }
            }
        }
        assert_eq!(cover, [2; 6]);
    }

    #[test]
    fn classify_legal_patterns() {
        assert_eq!(classify(0), Some(SubdivKind::None));
        assert_eq!(classify(FULL_MASK), Some(SubdivKind::OneToEight));
        for k in 0..6 {
            assert_eq!(classify(1 << k), Some(SubdivKind::OneToTwo { edge: k }));
        }
        for (f, &m) in FACE_MASKS.iter().enumerate() {
            assert_eq!(classify(m), Some(SubdivKind::OneToFour { face: f }));
        }
    }

    #[test]
    fn classify_rejects_illegal() {
        // Two opposite edges: (0,1) and (2,3) are local edges 0 and 5.
        assert_eq!(classify(0b100001), None);
        // Four edges.
        assert_eq!(classify(0b011110), None);
    }

    #[test]
    fn upgrade_is_idempotent_and_monotone() {
        for p in 0..=FULL_MASK {
            let up = upgrade(p);
            assert!(
                classify(up).is_some(),
                "upgrade({p:#08b}) = {up:#08b} not legal"
            );
            assert_eq!(up & p, p, "upgrade must contain the original marks");
            assert_eq!(upgrade(up), up, "upgrade must be idempotent");
        }
    }

    #[test]
    fn two_edges_one_face_upgrades_to_that_face() {
        // Local edges 0=(0,1) and 1=(0,2) share face (0,1,2) = face 3.
        let up = upgrade((1 << 0) | (1 << 1));
        assert_eq!(up, FACE_MASKS[3]);
    }

    #[test]
    fn two_opposite_edges_upgrade_to_full() {
        // Edge 0=(0,1) and edge 5=(2,3) share no face.
        assert!(!FACE_MASKS
            .iter()
            .any(|&m| m & (1 << 0) != 0 && m & (1 << 5) != 0));
        assert_eq!(upgrade((1 << 0) | (1 << 5)), FULL_MASK);
    }

    #[test]
    fn three_edges_not_a_face_upgrade_to_full() {
        // Edges 0=(0,1), 1=(0,2), 2=(0,3): the "star" at vertex 0, not a face.
        let p = 0b000111;
        assert_eq!(classify(p), None);
        assert_eq!(upgrade(p), FULL_MASK);
    }

    #[test]
    fn upgrade_minimality_exhaustive() {
        // For every invalid pattern, no legal pattern strictly between it and
        // the upgrade result exists (the upgrade is the *smallest* legal
        // superset by popcount).
        for p in 1..FULL_MASK {
            if classify(p).is_some() {
                continue;
            }
            let up = upgrade(p);
            for q in 0..=FULL_MASK {
                if classify(q).is_some() && q & p == p && q.count_ones() < up.count_ones() {
                    panic!("pattern {p:#08b}: {q:#08b} is a smaller legal superset than {up:#08b}");
                }
            }
        }
    }

    #[test]
    fn local_edge_lookup() {
        for (k, &(i, j)) in LOCAL_EDGE_VERTS.iter().enumerate() {
            assert_eq!(local_edge_between(i, j), k);
            assert_eq!(local_edge_between(j, i), k);
        }
    }

    #[test]
    fn n_children_matches_paper() {
        assert_eq!(SubdivKind::None.n_children(), 1);
        assert_eq!(SubdivKind::OneToTwo { edge: 0 }.n_children(), 2);
        assert_eq!(SubdivKind::OneToFour { face: 0 }.n_children(), 4);
        assert_eq!(SubdivKind::OneToEight.n_children(), 8);
    }
}
