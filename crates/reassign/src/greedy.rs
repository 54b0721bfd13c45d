//! The heuristic greedy MWBG mapper (§4.4).
//!
//! The non-zero entries of the similarity matrix are radix-sorted in
//! descending order; starting from the largest, each partition is assigned
//! to a processor that still needs partitions. Runs in `O(nnz + P·F)` — the
//! paper's `O(E)` with `E` the `nnz ≤ min(N, P²F)` entries that are actually
//! there — versus `O(VE)` for the optimal algorithm. Theorem 1
//! guarantees the objective is at least half the optimum (and the corollary
//! bounds the data movement at twice the optimum) — both are enforced by
//! tests in this crate.

use crate::simmatrix::{Assignment, SimilarityMatrix};

/// One similarity entry as the sort carries it: `(weight, proc, part)`.
type Entry = (u64, u32, u32);

/// Radix sort (least-significant-byte first) of entries into **descending**
/// weight order. `O(8·n)` and stable.
fn radix_sort_desc(entries: &mut Vec<Entry>) {
    let n = entries.len();
    let mut aux: Vec<Entry> = vec![(0, 0, 0); n];
    for pass in 0..8 {
        let shift = pass * 8;
        let mut count = [0usize; 256];
        for e in entries.iter() {
            count[((e.0 >> shift) & 0xff) as usize] += 1;
        }
        // Descending: bucket 255 first.
        let mut pos = [0usize; 256];
        let mut acc = 0;
        for b in (0..256).rev() {
            pos[b] = acc;
            acc += count[b];
        }
        for &e in entries.iter() {
            let b = ((e.0 >> shift) & 0xff) as usize;
            aux[pos[b]] = e;
            pos[b] += 1;
        }
        std::mem::swap(entries, &mut aux);
    }
    // LSB-first radix relies on stability: the final (most significant)
    // pass orders entries by their top byte, and ties within that byte keep
    // the descending order the earlier, less-significant passes established.
}

/// The greedy heuristic mapper. Exactly the paper's pseudocode: flag all
/// partitions unassigned, give each processor a counter of `F` slots, walk
/// the sorted entry list, and assign greedily. Zero entries are implicitly
/// handled by a final sweep.
pub fn greedy_mwbg(sm: &SimilarityMatrix) -> Assignment {
    let (p, n, f) = (sm.nproc, sm.nparts, sm.f);
    let mut part_assigned = vec![false; n];
    let mut proc_slots = vec![f; p];

    // Row-major over the non-zeros: the order the stable sort breaks ties in.
    let mut entries: Vec<Entry> = Vec::with_capacity(sm.nnz());
    for i in 0..p {
        let proc = u32::try_from(i).expect("processor ids are u32");
        entries.extend(sm.row(i).map(|(j, w)| (w, proc, j as u32)));
    }
    radix_sort_desc(&mut entries);

    let mut proc_of_part = vec![u32::MAX; n];
    let mut assigned = 0usize;
    for &(_, i, j) in &entries {
        if assigned == n {
            break;
        }
        let (i, j) = (i as usize, j as usize);
        if proc_slots[i] > 0 && !part_assigned[j] {
            proc_slots[i] -= 1;
            part_assigned[j] = true;
            proc_of_part[j] = i as u32;
            assigned += 1;
        }
    }
    // "If necessary, the zero entries in S are also used."
    if assigned < n {
        let mut free_proc = (0..p).filter(|&i| proc_slots[i] > 0).collect::<Vec<_>>();
        let mut cursor = 0;
        for j in 0..n {
            if !part_assigned[j] {
                while proc_slots[free_proc[cursor]] == 0 {
                    cursor += 1;
                    if cursor >= free_proc.len() {
                        free_proc = (0..p).filter(|&i| proc_slots[i] > 0).collect();
                        cursor = 0;
                    }
                }
                let i = free_proc[cursor];
                proc_slots[i] -= 1;
                proc_of_part[j] = i as u32;
                part_assigned[j] = true;
            }
        }
    }

    let a = Assignment { proc_of_part };
    a.validate(p, f);
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn radix_sort_sorts_descending() {
        let mut e: Vec<Entry> = [5, 100, 0, 7, 100, 64000]
            .into_iter()
            .zip(0..)
            .map(|(w, i)| (w, i, 0))
            .collect();
        radix_sort_desc(&mut e);
        let ws: Vec<u64> = e.iter().map(|x| x.0).collect();
        assert_eq!(ws, vec![64000, 100, 100, 7, 5, 0]);
        // Stable: the two 100s keep their input order.
        assert_eq!((e[1].1, e[2].1), (1, 4));
    }

    #[test]
    fn radix_sort_large_values() {
        let mut e: Vec<Entry> = (0..1000u32)
            .map(|i| ((i as u64).wrapping_mul(0x9e3779b97f4a7c15), i, 0))
            .collect();
        radix_sort_desc(&mut e);
        for w in e.windows(2) {
            assert!(w[0].0 >= w[1].0);
        }
    }

    #[test]
    fn greedy_picks_the_diagonal_when_dominant() {
        let sm =
            SimilarityMatrix::from_rows(vec![vec![100, 1, 2], vec![3, 100, 4], vec![5, 6, 100]]);
        let a = greedy_mwbg(&sm);
        assert_eq!(a.proc_of_part, vec![0, 1, 2]);
        assert_eq!(sm.objective(&a.proc_of_part), 300);
    }

    #[test]
    fn greedy_handles_conflicts() {
        // Both processors prefer partition 0; the larger entry wins it.
        let sm = SimilarityMatrix::from_rows(vec![vec![50, 10], vec![60, 0]]);
        let a = greedy_mwbg(&sm);
        assert_eq!(a.proc_of_part, vec![1, 0]);
        assert_eq!(sm.objective(&a.proc_of_part), 70);
    }

    #[test]
    fn greedy_uses_zero_entries_when_forced() {
        // Processor 1 has zero similarity everywhere.
        let sm = SimilarityMatrix::from_rows(vec![vec![10, 20], vec![0, 0]]);
        let a = greedy_mwbg(&sm);
        a.validate(2, 1);
        // Partition 1 (larger) goes to proc 0, partition 0 to proc 1.
        assert_eq!(a.proc_of_part, vec![1, 0]);
    }

    #[test]
    fn greedy_maps_a_huge_diagonal_to_the_identity() {
        // P·nparts = 4.9·10⁹ cells: more than a `u32` entry code could
        // name and more than a dense table could hold; 70 000 non-zeros.
        let n = 70_000usize;
        let ids: Vec<u32> = (0..n as u32).collect();
        let wremap: Vec<u64> = (0..n).map(|v| (v % 7 + 1) as u64).collect();
        let sm = SimilarityMatrix::from_assignments(&wremap, &ids, &ids, n, n);
        assert_eq!(sm.nnz(), n);
        assert_eq!(greedy_mwbg(&sm), Assignment::identity(n, 1));
    }

    #[test]
    fn greedy_with_f2() {
        let sm = SimilarityMatrix::from_rows(vec![vec![9, 8, 1, 1], vec![1, 1, 9, 8]]);
        let a = greedy_mwbg(&sm);
        a.validate(2, 2);
        assert_eq!(a.proc_of_part, vec![0, 0, 1, 1]);
        assert_eq!(sm.objective(&a.proc_of_part), 34);
    }
}
