//! The similarity matrix (§4.3).
//!
//! Entry `S[i][j]` is the total remapping weight of the dual-graph vertices
//! in *new* partition `j` that already reside on processor `i`. The matrix
//! describes how well each possible partition→processor mapping avoids data
//! movement.

/// A `P × (P·F)` similarity matrix in compressed-sparse-row form, plus the
/// marginals needed for cost computation.
///
/// A processor that owns `n/P` dual vertices has at most `n/P` non-zero
/// entries in its row, so only those are stored: memory is
/// `O(P + nparts + nnz)` with `nnz ≤ min(N, P·nparts)`, however large `P`
/// grows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimilarityMatrix {
    /// Number of processors `P`.
    pub nproc: usize,
    /// Number of new partitions `P·F`.
    pub nparts: usize,
    /// Partitions per processor `F`.
    pub f: usize,
    /// Row `i`'s non-zeros are `cols/vals[row_ptr[i]..row_ptr[i + 1]]`,
    /// columns ascending.
    row_ptr: Vec<usize>,
    cols: Vec<u32>,
    vals: Vec<u64>,
    /// Total remapping weight of each new partition (column sums).
    pub part_totals: Vec<u64>,
    /// Total remapping weight currently on each processor (row sums).
    pub proc_totals: Vec<u64>,
}

impl SimilarityMatrix {
    /// Build from per-dual-vertex data: `wremap[v]`, the current processor
    /// `old_proc[v]`, and the new partition `new_part[v]`. One counting sort
    /// groups the vertices by processor; each processor's weights are then
    /// summed per partition in a scratch row that only its touched columns
    /// clear: `O(N + P + nparts + nnz log nnz)`.
    pub fn from_assignments(
        wremap: &[u64],
        old_proc: &[u32],
        new_part: &[u32],
        nproc: usize,
        nparts: usize,
    ) -> Self {
        assert_eq!(wremap.len(), old_proc.len());
        assert_eq!(wremap.len(), new_part.len());
        assert!(
            u32::try_from(wremap.len()).is_ok(),
            "dual vertex ids are u32"
        );
        assert!(
            old_proc.iter().all(|&i| (i as usize) < nproc)
                && new_part.iter().all(|&j| (j as usize) < nparts),
            "processor or partition id out of range"
        );
        let mut m = Self::empty(nproc, nparts);

        // `by_proc[start[i]..start[i + 1]]` are processor `i`'s vertices.
        let mut start = vec![0usize; nproc + 1];
        for &i in old_proc {
            start[i as usize + 1] += 1;
        }
        for i in 0..nproc {
            start[i + 1] += start[i];
        }
        let mut by_proc = vec![0u32; wremap.len()];
        let mut next = start.clone();
        for (v, &i) in old_proc.iter().enumerate() {
            by_proc[next[i as usize]] = v as u32;
            next[i as usize] += 1;
        }

        let mut row = vec![0u64; nparts];
        let mut touched: Vec<u32> = Vec::new();
        for i in 0..nproc {
            for &v in &by_proc[start[i]..start[i + 1]] {
                let (j, w) = (new_part[v as usize], wremap[v as usize]);
                if row[j as usize] == 0 && w > 0 {
                    touched.push(j);
                }
                row[j as usize] += w;
            }
            touched.sort_unstable();
            for j in touched.drain(..) {
                m.push(i, j, std::mem::take(&mut row[j as usize]));
            }
        }
        m.finish()
    }

    /// Build from explicit dense rows (tests and examples).
    pub fn from_rows(rows: Vec<Vec<u64>>) -> Self {
        assert!(
            !rows.is_empty(),
            "a similarity matrix needs at least one processor row"
        );
        let mut m = Self::empty(rows.len(), rows[0].len());
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), m.nparts);
            for (j, &w) in row.iter().enumerate() {
                m.push(i, j as u32, w);
            }
        }
        m.finish()
    }

    /// Build from one `(part, weight)` list per processor, parts strictly
    /// ascending — what each rank computes locally and ships to the host in
    /// the distributed construction.
    pub fn from_sparse_rows(rows: &[Vec<(u32, u64)>], nparts: usize) -> Self {
        let mut m = Self::empty(rows.len(), nparts);
        for (i, row) in rows.iter().enumerate() {
            for &(j, w) in row {
                m.push(i, j, w);
            }
        }
        m.finish()
    }

    /// A matrix with no entries yet, row 0 open: [`Self::push`] the cells in
    /// row-major order, then [`Self::finish`].
    fn empty(nproc: usize, nparts: usize) -> Self {
        assert!(
            nproc >= 1 && nparts >= nproc && nparts.is_multiple_of(nproc),
            "nparts must be a positive multiple of nproc"
        );
        SimilarityMatrix {
            nproc,
            nparts,
            f: nparts / nproc,
            row_ptr: vec![0],
            cols: Vec::new(),
            vals: Vec::new(),
            part_totals: vec![0; nparts],
            proc_totals: vec![0; nproc],
        }
    }

    /// Append `S[i][j] = w` behind every cell pushed so far (zeros are not
    /// stored).
    fn push(&mut self, i: usize, j: u32, w: u64) {
        assert!(i < self.nproc && (j as usize) < self.nparts);
        if w == 0 {
            return;
        }
        assert!(i + 1 >= self.row_ptr.len(), "rows must arrive in order");
        self.row_ptr.resize(i + 1, self.cols.len());
        assert!(
            self.cols.len() == self.row_ptr[i] || self.cols[self.cols.len() - 1] < j,
            "a row's partitions must arrive strictly ascending"
        );
        self.cols.push(j);
        self.vals.push(w);
        self.part_totals[j as usize] += w;
        self.proc_totals[i] += w;
    }

    /// Close the last row and every empty one behind it.
    fn finish(mut self) -> Self {
        self.row_ptr.resize(self.nproc + 1, self.cols.len());
        self
    }

    /// Entry `S[i][j]` (a binary search of row `i`'s non-zeros).
    pub fn get(&self, i: usize, j: usize) -> u64 {
        let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
        assert!(j < self.nparts);
        match self.cols[lo..hi].binary_search(&(j as u32)) {
            Ok(k) => self.vals[lo + k],
            Err(_) => 0,
        }
    }

    /// The non-zero entries `(j, S[i][j])` of row `i`, `j` ascending.
    pub fn row(&self, i: usize) -> impl Iterator<Item = (usize, u64)> + '_ {
        let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
        self.cols[lo..hi]
            .iter()
            .zip(&self.vals[lo..hi])
            .map(|(&j, &w)| (j as usize, w))
    }

    /// Number of stored (non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.cols.len()
    }

    /// Total remapping weight in the system.
    pub fn grand_total(&self) -> u64 {
        self.proc_totals.iter().sum()
    }

    /// The objective 𝓕 of an assignment: the sum of retained weight
    /// `Σ S[proc_of_part[j]][j]` (§4.4 — maximizing 𝓕 minimizes TotalV).
    pub fn objective(&self, proc_of_part: &[u32]) -> u64 {
        proc_of_part
            .iter()
            .enumerate()
            .map(|(j, &i)| self.get(i as usize, j))
            .sum()
    }
}

/// A partition→processor mapping: `proc_of_part[j]` is the processor that
/// will own new partition `j`. Each processor receives exactly `F`
/// partitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    pub proc_of_part: Vec<u32>,
}

impl Assignment {
    /// Validate that each processor is assigned exactly `f` partitions.
    pub fn validate(&self, nproc: usize, f: usize) {
        assert_eq!(self.proc_of_part.len(), nproc * f);
        let mut count = vec![0usize; nproc];
        for &p in &self.proc_of_part {
            count[p as usize] += 1;
        }
        assert!(
            count.iter().all(|&c| c == f),
            "assignment is not balanced: {count:?}"
        );
    }

    /// The identity assignment (partition `j` stays on processor `j / F`).
    pub fn identity(nproc: usize, f: usize) -> Self {
        Assignment {
            proc_of_part: (0..nproc * f).map(|j| (j / f) as u32).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_assignments_accumulates() {
        // 4 dual vertices, 2 procs, 2 partitions.
        let wremap = vec![5, 3, 2, 7];
        let old_proc = vec![0, 0, 1, 1];
        let new_part = vec![0, 1, 1, 0];
        let m = SimilarityMatrix::from_assignments(&wremap, &old_proc, &new_part, 2, 2);
        assert_eq!(m.get(0, 0), 5);
        assert_eq!(m.get(0, 1), 3);
        assert_eq!(m.get(1, 1), 2);
        assert_eq!(m.get(1, 0), 7);
        assert_eq!(m.part_totals, vec![12, 5]);
        assert_eq!(m.proc_totals, vec![8, 9]);
        assert_eq!(m.grand_total(), 17);
    }

    #[test]
    fn objective_of_identity() {
        let m = SimilarityMatrix::from_rows(vec![vec![10, 1], vec![2, 20]]);
        let id = Assignment::identity(2, 1);
        assert_eq!(m.objective(&id.proc_of_part), 30);
        assert_eq!(m.objective(&[1, 0]), 3);
    }

    #[test]
    #[should_panic(expected = "at least one processor row")]
    fn from_rows_rejects_an_empty_matrix() {
        SimilarityMatrix::from_rows(Vec::new());
    }

    #[test]
    #[should_panic(expected = "not balanced")]
    fn validate_rejects_overloaded_processor() {
        let a = Assignment {
            proc_of_part: vec![0, 0],
        };
        a.validate(2, 1);
    }

    #[test]
    fn f_greater_than_one() {
        let m = SimilarityMatrix::from_rows(vec![vec![0; 6]; 2]);
        assert_eq!((m.f, m.nnz()), (3, 0));
        let id = Assignment::identity(2, 3);
        id.validate(2, 3);
        assert_eq!(id.proc_of_part, vec![0, 0, 0, 1, 1, 1]);
    }
}
