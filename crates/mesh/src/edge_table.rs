//! The mesh's vertex-pair → edge lookup, bucketed by the pair's higher
//! vertex.
//!
//! Refinement looks up every child edge by its vertex pair, and most of a
//! child's edges end at a fresh midpoint, the highest vertex id around. A
//! table hashed over all pairs scatters those lookups across its whole span
//! (≈ 25 MB at the paper's shape), one cache miss each. Here every vertex
//! slot owns a fixed bucket of the edges whose higher endpoint it is, so the
//! lookups around one vertex read one 128-byte bucket. A bucket holds
//! [`BUCKET`] entries packed at its front; an insert into a full bucket
//! spills to an overflow [`PairMap`], and a per-bucket spill count says when
//! a lookup that misses the bucket must look there too.
//!
//! The table only answers "which edge joins these two vertices": edge ids
//! come from the mesh, so swapping one table for another moves no id.

use crate::pairmap::PairMap;

/// Entries per bucket. The paper-scale refinement's busiest vertex is the
/// higher endpoint of 14 live edges, so at 16 it spills nothing; a bucket is
/// two cache lines.
const BUCKET: usize = 16;

/// An unused entry's lower vertex. A live entry's lower vertex is below its
/// bucket's vertex, so it never reads `u32::MAX`.
const NONE: u32 = u32::MAX;

/// `(lower vertex, edge)` entries of one vertex slot, packed at the front.
#[derive(Debug, Clone, Copy)]
#[repr(align(64))]
struct Bucket([[u32; 2]; BUCKET]);

const EMPTY_BUCKET: Bucket = Bucket([[NONE, 0]; BUCKET]);

/// Normalized vertex pair → edge id, bucketed by the higher vertex.
#[derive(Debug, Clone)]
pub(crate) struct EdgeTable {
    /// Vertex slot → the edges whose higher endpoint it is.
    buckets: Vec<Bucket>,
    /// Vertex slot → how many of its edges live in `overflow`.
    spilled: Vec<u32>,
    /// The entries that found their bucket full, keyed by
    /// [`PairMap::pair_key`].
    overflow: PairMap,
    len: usize,
}

#[inline]
fn ordered(a: u32, b: u32) -> (u32, u32) {
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

impl EdgeTable {
    /// An empty table with buckets reserved for `verts` vertex slots.
    pub(crate) fn with_capacity(verts: usize) -> Self {
        EdgeTable {
            buckets: Vec::with_capacity(verts),
            spilled: Vec::with_capacity(verts),
            overflow: PairMap::with_capacity(0),
            len: 0,
        }
    }

    /// Number of stored pairs.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The edge between `a` and `b`, if stored.
    #[inline]
    pub(crate) fn get(&self, a: u32, b: u32) -> Option<u32> {
        let (lo, hi) = ordered(a, b);
        let bucket = self.buckets.get(hi as usize)?;
        for &[l, edge] in &bucket.0 {
            if l == lo {
                return Some(edge);
            }
            if l == NONE {
                break;
            }
        }
        // A removal can open a hole in a bucket whose earlier inserts
        // spilled, so a short bucket does not mean an empty overflow.
        if self.spilled[hi as usize] == 0 {
            return None;
        }
        self.overflow.get(PairMap::pair_key(lo, hi))
    }

    /// Store `a–b → edge`. The pair must not be stored yet.
    pub(crate) fn insert(&mut self, a: u32, b: u32, edge: u32) {
        debug_assert!(self.get(a, b).is_none(), "pair ({a}, {b}) stored twice");
        let (lo, hi) = ordered(a, b);
        debug_assert_ne!(lo, hi, "degenerate pair");
        let h = hi as usize;
        if h >= self.buckets.len() {
            self.buckets.resize(h + 1, EMPTY_BUCKET);
            self.spilled.resize(h + 1, 0);
        }
        self.len += 1;
        if let Some(slot) = self.buckets[h].0.iter_mut().find(|s| s[0] == NONE) {
            *slot = [lo, edge];
        } else {
            self.overflow.insert(PairMap::pair_key(lo, hi), edge);
            self.spilled[h] += 1;
        }
    }

    /// Remove the pair `a–b`, returning its edge if it was stored.
    pub(crate) fn remove(&mut self, a: u32, b: u32) -> Option<u32> {
        let (lo, hi) = ordered(a, b);
        let h = hi as usize;
        let bucket = &mut self.buckets.get_mut(h)?.0;
        let used = bucket.iter().position(|s| s[0] == NONE).unwrap_or(BUCKET);
        let removed = if let Some(i) = bucket[..used].iter().position(|s| s[0] == lo) {
            // Keep the bucket packed: its last entry fills the hole.
            let edge = bucket[i][1];
            bucket[i] = bucket[used - 1];
            bucket[used - 1] = [NONE, 0];
            Some(edge)
        } else if self.spilled[h] > 0 {
            let edge = self.overflow.remove(PairMap::pair_key(lo, hi));
            self.spilled[h] -= u32::from(edge.is_some());
            edge
        } else {
            None
        };
        self.len -= usize::from(removed.is_some());
        removed
    }

    /// Check the table's own invariants: every bucket is packed at its
    /// front and holds lower vertices only, a slot that `live` calls dead
    /// has an empty bucket and no spills, the spill counts add up to the
    /// overflow per bucket, and `len` counts every entry. Whether each live
    /// edge is found is the mesh's check.
    pub(crate) fn validate(&self, live: impl Fn(usize) -> bool) {
        let mut stored = self.overflow.len();
        for (v, bucket) in self.buckets.iter().enumerate() {
            let used = bucket.0.iter().position(|s| s[0] == NONE).unwrap_or(BUCKET);
            assert!(
                bucket.0[used..].iter().all(|s| s[0] == NONE),
                "vertex slot {v}'s bucket is not packed at its front"
            );
            for &[lo, _] in &bucket.0[..used] {
                assert!(lo < v as u32, "vertex slot {v}'s bucket holds ({lo}, {v})");
            }
            if !live(v) {
                assert!(
                    used == 0 && self.spilled[v] == 0,
                    "dead vertex slot {v} keeps {used} bucket entries and {} spills",
                    self.spilled[v]
                );
            }
            stored += used;
        }
        let mut spilled = vec![0u32; self.spilled.len()];
        for (key, _) in self.overflow.iter() {
            let hi = (key >> 32) as usize;
            assert!(hi < spilled.len(), "overflow entry {key:#x} has no bucket");
            spilled[hi] += 1;
        }
        assert_eq!(spilled, self.spilled, "spill counts do not add up");
        assert_eq!(
            stored, self.len,
            "table counts {} pairs but stores {stored}",
            self.len
        );
    }

    /// How many entries live in the overflow map.
    #[cfg(test)]
    pub(crate) fn spills(&self) -> usize {
        self.overflow.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn a_full_bucket_spills_and_a_spilled_key_survives_a_removal() {
        let mut t = EdgeTable::with_capacity(0);
        let hi = 100u32;
        // Twenty lower neighbours: sixteen fill the bucket, four spill.
        for lo in 0..20 {
            t.insert(hi, lo, 1000 + lo);
        }
        assert_eq!(t.len(), 20);
        assert_eq!(t.spills(), 4);
        assert_eq!(t.spilled[hi as usize], 4);
        t.validate(|_| true);
        // Removing from the full bucket opens a hole in front of the
        // spilled keys; they are still found, and so is every other key.
        assert_eq!(t.remove(3, hi), Some(1003));
        assert_eq!(t.get(hi, 3), None);
        for lo in (0..20).filter(|&lo| lo != 3) {
            assert_eq!(t.get(lo, hi), Some(1000 + lo), "lost ({lo}, {hi})");
        }
        t.validate(|_| true);
        // A new key takes the hole; a spilled key leaves the overflow.
        t.insert(50, hi, 7);
        assert_eq!(t.spills(), 4);
        assert_eq!(t.remove(19, hi), Some(1019));
        assert_eq!(t.spills(), 3);
        assert_eq!(t.spilled[hi as usize], 3);
        assert_eq!(t.get(hi, 50), Some(7));
        assert_eq!(t.remove(19, hi), None);
        t.validate(|_| true);
        // Emptying the vertex leaves a dead slot's bucket empty.
        for lo in (0..19).filter(|&lo| lo != 3).chain([50]) {
            assert!(t.remove(lo, hi).is_some());
        }
        assert_eq!(t.len(), 0);
        t.validate(|v| v != hi as usize);
    }

    #[test]
    #[should_panic(expected = "dead vertex slot 5 keeps 1 bucket entries")]
    fn validate_catches_a_dead_slot_with_entries() {
        let mut t = EdgeTable::with_capacity(0);
        t.insert(2, 5, 0);
        t.validate(|v| v != 5);
    }

    #[test]
    #[should_panic(expected = "spill counts do not add up")]
    fn validate_catches_a_wrong_spill_count() {
        let mut t = EdgeTable::with_capacity(0);
        for lo in 0..17 {
            t.insert(lo, 40, lo);
        }
        t.spilled[40] = 0;
        t.validate(|_| true);
    }

    #[test]
    fn a_seeded_sequence_matches_a_btree_model() {
        // Few vertices, so buckets fill and spill; removals hit both the
        // buckets and the overflow.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut t = EdgeTable::with_capacity(4);
        let mut model: BTreeMap<(u32, u32), u32> = BTreeMap::new();
        for step in 0..40_000u32 {
            let r = next();
            let a = (r % 48) as u32;
            let b = ((r >> 8) % 48) as u32;
            if a == b {
                continue;
            }
            let key = (a.min(b), a.max(b));
            match (r >> 16) % 3 {
                0 | 1 if !model.contains_key(&key) => {
                    t.insert(a, b, step);
                    model.insert(key, step);
                }
                _ => assert_eq!(t.remove(b, a), model.remove(&key), "step {step}"),
            }
            if step % 997 == 0 {
                t.validate(|_| true);
            }
        }
        assert!(t.spills() > 0, "the sequence never spilled");
        assert_eq!(t.len(), model.len());
        for a in 0..50u32 {
            for b in 0..50u32 {
                let want = (a != b)
                    .then(|| model.get(&(a.min(b), a.max(b))).copied())
                    .flatten();
                assert_eq!(t.get(a, b), want, "({a}, {b})");
            }
        }
        t.validate(|_| true);
    }
}
