//! One or two per-vertex weight constraints behind one type.

use std::borrow::Cow;

use crate::metrics::{
    combine_dual, combined, dual_norm, dual_uniform, imbalance_dual, imbalance_weighted, weights_of,
};

/// The per-vertex weights a balancer holds down: one constraint, or two
/// (e.g. fluid work and particle work) under the max-of-imbalances
/// objective. A uniform second vector constrains nothing, so
/// [`Weights::new`] drops it: every kernel sees either one constraint or two
/// genuinely different ones, and `Some(uniform)` ≡ `None` bit-exactly — the
/// same contract as uniform capacities taking the unweighted integer path.
#[derive(Debug, Clone, Copy)]
pub struct Weights<'a> {
    w1: &'a [u64],
    w2: Option<&'a [u64]>,
    /// Both constraints' totals as normalizers (1.0 for an all-zero
    /// vector); only read under two constraints.
    norm: (f64, f64),
}

impl<'a> Weights<'a> {
    pub fn new(w1: &'a [u64], w2: Option<&'a [u64]>) -> Self {
        let w2 = w2.filter(|w2| !dual_uniform(w2));
        let mut norm = (1.0, 1.0);
        if let Some(w2) = w2 {
            assert_eq!(w1.len(), w2.len(), "one second weight per vertex");
            norm = (dual_norm(w1), dual_norm(w2));
        }
        Weights { w1, w2, norm }
    }

    /// The first (or only) constraint.
    pub fn w1(&self) -> &'a [u64] {
        self.w1
    }

    /// The second constraint, when it is one (non-uniform).
    pub fn w2(&self) -> Option<&'a [u64]> {
        self.w2
    }

    /// Second weight of vertex `v`; 0 under one constraint, so sweeps can
    /// carry a second accumulator unconditionally.
    pub(crate) fn second(&self, v: usize) -> u64 {
        self.w2.map_or(0, |w2| w2[v])
    }

    /// The load a sweep judges a part holding `(x1, x2)` by: the weight
    /// itself under one constraint, the *binding* totals-normalized share
    /// under two. Callers divide by the part's capacity.
    pub(crate) fn load(&self, x1: u64, x2: u64) -> f64 {
        match self.w2 {
            None => x1 as f64,
            Some(_) => (x1 as f64 / self.norm.0).max(x2 as f64 / self.norm.1),
        }
    }

    /// Combined totals-normalized size of vertex `v` (two constraints).
    pub(crate) fn size(&self, v: usize) -> f64 {
        self.w1[v] as f64 / self.norm.0 + self.second(v) as f64 / self.norm.1
    }

    /// The one scalar field the single-field machinery (curve split, flow
    /// solve, Voronoi cells, multilevel seed) runs on: `w1` itself, or the
    /// combined totals-normalized weight — balancing it balances the *sum*
    /// of the normalized constraints; the judged passes then chase the max.
    pub(crate) fn drive(&self) -> Cow<'a, [u64]> {
        match self.w2 {
            None => Cow::Borrowed(self.w1),
            Some(w2) => Cow::Owned(combine_dual(self.w1, w2)),
        }
    }

    /// The [`Weights::drive`] weight of one vertex holding `(x1, x2)`, from
    /// its own weights alone — what a rank computes for the vertices it
    /// holds without the whole field.
    pub(crate) fn drive_of(&self, x1: u64, x2: u64) -> u64 {
        match self.w2 {
            None => x1,
            Some(_) => combined(x1, x2, self.norm),
        }
    }

    /// Capacity-weighted imbalance of a partition under these weights (the
    /// worse of the two under two constraints) — the quantity the
    /// diffusive kernels are contracted never to increase.
    pub fn imbalance(&self, part: &[u32], nparts: usize, caps: &[f64]) -> f64 {
        let w1 = weights_of(self.w1, part, nparts);
        match self.w2 {
            None => imbalance_weighted(&w1, caps),
            Some(w2) => imbalance_dual(&w1, &weights_of(w2, part, nparts), caps),
        }
    }
}
