//! A small open-addressing hash map from `u64` keys to `u32` values.
//!
//! It keys a normalized vertex pair, and serves two maps. The adaptor's
//! `bisect_mid` (a bisected pair → its midpoint vertex) is one: it holds
//! only the live bisections, a small fraction of the pairs, so a
//! per-vertex bucketed table like the mesh's edge lookup would pay a bucket
//! per vertex slot for it (a trial read +1.7 % / +5.8 % peak RSS on
//! `paper_p64` / `cascade_p64` for −8.7 % / +0.6 % cycle time). The other is
//! that edge table's overflow, the pairs whose bucket is full. (Faces are
//! looked up in a `std` `HashMap` of vertex triples.) The standard library
//! map with SipHash is measurably slower for these dense integer keys, and
//! pulling in an external hasher crate is avoided; this is ~100 lines and
//! fully tested instead.

const EMPTY: u64 = u64::MAX;

/// Open-addressing `u64 → u32` hash map with linear probing.
///
/// Keys must never equal `u64::MAX` (reserved as the empty marker); the mesh
/// encodes vertex pairs as `hi << 32 | lo` with 32-bit ids, which cannot
/// collide with the marker.
#[derive(Debug, Clone)]
pub struct PairMap {
    keys: Vec<u64>,
    vals: Vec<u32>,
    len: usize,
    mask: usize,
}

#[inline]
fn hash64(mut x: u64) -> u64 {
    // splitmix64 finalizer — excellent avalanche for sequential integer keys.
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58476d1ce4e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

impl PairMap {
    /// Create a map sized for roughly `capacity` entries.
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = (capacity * 2).next_power_of_two().max(16);
        PairMap {
            keys: vec![EMPTY; cap],
            vals: vec![0; cap],
            len: 0,
            mask: cap - 1,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Encode a normalized pair of 32-bit ids as one key.
    #[inline]
    pub fn pair_key(a: u32, b: u32) -> u64 {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        ((hi as u64) << 32) | lo as u64
    }

    fn grow(&mut self) {
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY; (self.mask + 1) * 2]);
        let old_vals = std::mem::take(&mut self.vals);
        self.vals = vec![0; self.keys.len()];
        self.mask = self.keys.len() - 1;
        self.len = 0;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k != EMPTY {
                self.insert(k, v);
            }
        }
    }

    /// Insert `key → val`, replacing any previous value. Returns the previous
    /// value if the key was present.
    pub fn insert(&mut self, key: u64, val: u32) -> Option<u32> {
        debug_assert_ne!(key, EMPTY);
        if (self.len + 1) * 2 > self.keys.len() {
            self.grow();
        }
        let mut i = hash64(key) as usize & self.mask;
        loop {
            if self.keys[i] == EMPTY {
                self.keys[i] = key;
                self.vals[i] = val;
                self.len += 1;
                return None;
            }
            if self.keys[i] == key {
                let old = self.vals[i];
                self.vals[i] = val;
                return Some(old);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Look up `key`.
    pub fn get(&self, key: u64) -> Option<u32> {
        let mut i = hash64(key) as usize & self.mask;
        loop {
            if self.keys[i] == EMPTY {
                return None;
            }
            if self.keys[i] == key {
                return Some(self.vals[i]);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Remove `key`, returning its value if present. Uses backward-shift
    /// deletion to keep probe chains intact.
    pub fn remove(&mut self, key: u64) -> Option<u32> {
        let mut i = hash64(key) as usize & self.mask;
        loop {
            if self.keys[i] == EMPTY {
                return None;
            }
            if self.keys[i] == key {
                break;
            }
            i = (i + 1) & self.mask;
        }
        let removed = self.vals[i];
        self.len -= 1;
        // Backward-shift deletion.
        let mut hole = i;
        let mut j = (i + 1) & self.mask;
        while self.keys[j] != EMPTY {
            let home = hash64(self.keys[j]) as usize & self.mask;
            // Can slot j legally move into the hole? It can if its home
            // position is "at or before" the hole in probe order.
            let dist_home_to_hole = hole.wrapping_sub(home) & self.mask;
            let dist_home_to_j = j.wrapping_sub(home) & self.mask;
            if dist_home_to_hole <= dist_home_to_j {
                self.keys[hole] = self.keys[j];
                self.vals[hole] = self.vals[j];
                hole = j;
            }
            j = (j + 1) & self.mask;
        }
        self.keys[hole] = EMPTY;
        Some(removed)
    }

    /// Iterate over `(key, value)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.keys
            .iter()
            .zip(&self.vals)
            .filter(|(k, _)| **k != EMPTY)
            .map(|(k, v)| (*k, *v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let mut m = PairMap::with_capacity(4);
        for i in 0..1000u32 {
            assert_eq!(m.insert(PairMap::pair_key(i, i + 1), i), None);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u32 {
            assert_eq!(
                m.get(PairMap::pair_key(i + 1, i)),
                Some(i),
                "pair order normalized"
            );
        }
        assert_eq!(m.get(PairMap::pair_key(5000, 5001)), None);
    }

    #[test]
    fn insert_replaces() {
        let mut m = PairMap::with_capacity(4);
        m.insert(42, 1);
        assert_eq!(m.insert(42, 2), Some(1));
        assert_eq!(m.get(42), Some(2));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn remove_keeps_probe_chains() {
        let mut m = PairMap::with_capacity(8);
        for i in 0..500u64 {
            m.insert(i, i as u32);
        }
        for i in (0..500u64).step_by(2) {
            assert_eq!(m.remove(i), Some(i as u32));
        }
        assert_eq!(m.len(), 250);
        for i in 0..500u64 {
            if i % 2 == 0 {
                assert_eq!(m.get(i), None, "key {i} should be gone");
            } else {
                assert_eq!(m.get(i), Some(i as u32), "key {i} should survive");
            }
        }
    }

    #[test]
    fn survives_growth_with_removals_interleaved() {
        let mut m = PairMap::with_capacity(2);
        for round in 0..5 {
            for i in 0..200u64 {
                m.insert(i * 7 + round, (i + round) as u32);
            }
            for i in 0..100u64 {
                m.remove(i * 7 + round);
            }
        }
        // Spot-check survivors.
        for i in 100..200u64 {
            assert_eq!(m.get(i * 7 + 4), Some((i + 4) as u32));
        }
    }
}
