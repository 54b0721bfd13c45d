//! The similarity matrix (§4.3).
//!
//! Entry `S[i][j]` is the total remapping weight of the dual-graph vertices
//! in *new* partition `j` that already reside on processor `i`. The matrix
//! describes how well each possible partition→processor mapping avoids data
//! movement.

/// A dense `P × (P·F)` similarity matrix plus the marginals needed for cost
/// computation.
#[derive(Debug, Clone)]
pub struct SimilarityMatrix {
    /// Number of processors `P`.
    pub nproc: usize,
    /// Number of new partitions `P·F`.
    pub nparts: usize,
    /// Partitions per processor `F`.
    pub f: usize,
    /// Row-major entries.
    s: Vec<u64>,
    /// Total remapping weight of each new partition (column sums).
    pub part_totals: Vec<u64>,
    /// Total remapping weight currently on each processor (row sums).
    pub proc_totals: Vec<u64>,
}

impl SimilarityMatrix {
    /// Build from per-dual-vertex data: `wremap[v]`, the current processor
    /// `old_proc[v]`, and the new partition `new_part[v]`.
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
            nparts.is_multiple_of(nproc),
            "nparts must be a multiple of nproc"
        );
        let mut m = Self::zeros(nproc, nparts);
        for v in 0..wremap.len() {
            let i = old_proc[v] as usize;
            let j = new_part[v] as usize;
            assert!(i < nproc && j < nparts);
            m.s[i * nparts + j] += wremap[v];
        }
        m.recompute_totals();
        m
    }

    /// An all-zero matrix (fill with [`SimilarityMatrix::set`], then call
    /// [`SimilarityMatrix::recompute_totals`]).
    pub fn zeros(nproc: usize, nparts: usize) -> Self {
        assert!(nproc >= 1 && nparts >= nproc && nparts.is_multiple_of(nproc));
        SimilarityMatrix {
            nproc,
            nparts,
            f: nparts / nproc,
            s: vec![0; nproc * nparts],
            part_totals: vec![0; nparts],
            proc_totals: vec![0; nproc],
        }
    }

    /// Build from explicit rows (used in tests and by the gather step).
    pub fn from_rows(rows: Vec<Vec<u64>>) -> Self {
        assert!(
            !rows.is_empty(),
            "a similarity matrix needs at least one processor row"
        );
        let nproc = rows.len();
        let nparts = rows[0].len();
        let mut m = Self::zeros(nproc, nparts);
        for (i, row) in rows.into_iter().enumerate() {
            assert_eq!(row.len(), nparts);
            for (j, v) in row.into_iter().enumerate() {
                m.s[i * nparts + j] = v;
            }
        }
        m.recompute_totals();
        m
    }

    /// Entry `S[i][j]`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> u64 {
        self.s[i * self.nparts + j]
    }

    /// Set entry `S[i][j]` (call [`SimilarityMatrix::recompute_totals`]
    /// afterwards).
    pub fn set(&mut self, i: usize, j: usize, v: u64) {
        self.s[i * self.nparts + j] = v;
    }

    /// Row `i` as a slice (what rank `i` computes locally and sends to the
    /// host in the distributed construction).
    pub fn row(&self, i: usize) -> &[u64] {
        &self.s[i * self.nparts..(i + 1) * self.nparts]
    }

    /// Recompute row/column marginals after direct `set` calls.
    pub fn recompute_totals(&mut self) {
        self.part_totals = vec![0; self.nparts];
        self.proc_totals = vec![0; self.nproc];
        for i in 0..self.nproc {
            for j in 0..self.nparts {
                let v = self.get(i, j);
                self.part_totals[j] += v;
                self.proc_totals[i] += v;
            }
        }
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
        let m = SimilarityMatrix::zeros(2, 6);
        assert_eq!(m.f, 3);
        let id = Assignment::identity(2, 3);
        id.validate(2, 3);
        assert_eq!(id.proc_of_part, vec![0, 0, 0, 1, 1, 1]);
    }
}
