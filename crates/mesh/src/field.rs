//! Per-vertex solution fields.
//!
//! The flow solver stores its unknowns at mesh vertices; when the adaptor
//! bisects an edge, "the solution vector is linearly interpolated at the
//! mid-point from the two points that constitute the original edge".

use crate::ids::VertId;

/// A dense multi-component field over vertex slots. Grows automatically as
/// vertices are added; slots of removed vertices simply keep stale values.
#[derive(Debug, Clone)]
pub struct VertexField {
    ncomp: usize,
    data: Vec<f64>,
}

impl VertexField {
    /// A field with `ncomp` components per vertex and room for `verts`
    /// vertices.
    pub fn new(ncomp: usize, verts: usize) -> Self {
        assert!(ncomp >= 1);
        VertexField {
            ncomp,
            data: vec![0.0; ncomp * verts],
        }
    }

    /// Number of components per vertex.
    pub fn ncomp(&self) -> usize {
        self.ncomp
    }

    /// Number of vertex slots currently backed.
    pub fn len(&self) -> usize {
        self.data.len() / self.ncomp
    }

    /// True if no vertex slots are backed.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    fn ensure(&mut self, v: VertId) {
        let need = (v.idx() + 1) * self.ncomp;
        if self.data.len() < need {
            self.data.resize(need, 0.0);
        }
    }

    /// The component vector at vertex `v` (zeros if never written).
    pub fn get(&self, v: VertId) -> &[f64] {
        let lo = v.idx() * self.ncomp;
        static ZEROS: [f64; 16] = [0.0; 16];
        if lo + self.ncomp <= self.data.len() {
            &self.data[lo..lo + self.ncomp]
        } else {
            &ZEROS[..self.ncomp.min(16)]
        }
    }

    /// Overwrite the component vector at vertex `v`.
    pub fn set(&mut self, v: VertId, vals: &[f64]) {
        assert_eq!(vals.len(), self.ncomp);
        self.ensure(v);
        let lo = v.idx() * self.ncomp;
        self.data[lo..lo + self.ncomp].copy_from_slice(vals);
    }

    /// One component at vertex `v`.
    pub fn comp(&self, v: VertId, comp: usize) -> f64 {
        assert!(comp < self.ncomp);
        self.get(v)[comp]
    }

    /// The components of vertex slots `0..verts` and any slots after them
    /// already backed, as one slice: slot `v`'s are
    /// `[v * ncomp, (v + 1) * ncomp)`. Slots not yet backed are backed with
    /// zeros, the value [`VertexField::get`] reads for them.
    pub fn slots_mut(&mut self, verts: usize) -> &mut [f64] {
        if verts > 0 {
            self.ensure(VertId::from_idx(verts - 1));
        }
        &mut self.data
    }

    /// Linear interpolation: write the average of the values at `a` and `b`
    /// into `mid` (the bisection rule from the paper).
    pub fn interpolate_midpoint(&mut self, mid: VertId, a: VertId, b: VertId) {
        self.ensure(mid);
        self.ensure(a);
        self.ensure(b);
        for c in 0..self.ncomp {
            let va = self.data[a.idx() * self.ncomp + c];
            let vb = self.data[b.idx() * self.ncomp + c];
            self.data[mid.idx() * self.ncomp + c] = 0.5 * (va + vb);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut f = VertexField::new(3, 2);
        f.set(VertId(1), &[1.0, 2.0, 3.0]);
        assert_eq!(f.get(VertId(1)), &[1.0, 2.0, 3.0]);
        assert_eq!(f.get(VertId(0)), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn grows_on_demand() {
        let mut f = VertexField::new(2, 0);
        f.set(VertId(10), &[5.0, 6.0]);
        assert_eq!(f.len(), 11);
        assert_eq!(f.get(VertId(10)), &[5.0, 6.0]);
        // Reading past the end is zeros, not a panic.
        assert_eq!(f.get(VertId(100)), &[0.0, 0.0]);
    }

    #[test]
    fn midpoint_interpolation_is_average() {
        let mut f = VertexField::new(2, 3);
        f.set(VertId(0), &[1.0, -4.0]);
        f.set(VertId(1), &[3.0, 10.0]);
        f.interpolate_midpoint(VertId(2), VertId(0), VertId(1));
        assert_eq!(f.get(VertId(2)), &[2.0, 3.0]);
    }
}
