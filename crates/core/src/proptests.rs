//! Property-based tests of the per-cycle ownership build and of the engine's
//! invariance under schedule perturbation.

#![cfg(test)]

use std::collections::BTreeSet;

use proptest::prelude::*;

use plum_adapt::{AdaptiveMesh, EdgeMarks};
use plum_mesh::generate::unit_box_mesh;
use plum_mesh::{extract_submeshes, EdgeId, ElemId};
use plum_solver::WaveField;

use crate::framework::Plum;
use crate::marking::Ownership;
use crate::PlumConfig;

/// Assert that [`Ownership::build`] and `extract_submeshes`' edge SPLs both
/// equal a naive oracle: one rank set per edge slot, filled by the
/// element × edge walk into a set per edge (it never reads the edge
/// degrees the builder sizes its rows by).
fn assert_matches_oracle(am: &AdaptiveMesh, proc: &[u32], nproc: usize) {
    let mesh = &am.mesh;
    let mut ranks: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); mesh.edge_slots()];
    let mut elems: Vec<Vec<ElemId>> = vec![Vec::new(); nproc];
    let mut rank_of_elem = vec![0u32; mesh.elem_slots()];
    for e in mesh.elems() {
        let r = proc[am.root_of_elem(e) as usize];
        rank_of_elem[e.idx()] = r;
        elems[r as usize].push(e);
        for ed in mesh.elem_edges(e) {
            ranks[ed.idx()].insert(r);
        }
    }
    for list in &mut elems {
        list.sort_unstable_by_key(|e| e.idx());
    }
    let mut shared = vec![0u64; nproc];
    for set in ranks.iter().filter(|set| set.len() > 1) {
        for &r in set {
            shared[r as usize] += 1;
        }
    }

    let own = Ownership::build(am, proc, nproc);
    for (slot, set) in ranks.iter().enumerate() {
        let got: Vec<u32> = own.ranks_of(EdgeId(slot as u32)).collect();
        let want: Vec<u32> = set.iter().copied().collect();
        assert_eq!(got, want, "rank list of edge slot {slot}");
    }
    for r in 0..nproc {
        assert_eq!(
            own.shared_edges_of_rank(r as u32),
            shared[r],
            "shared-edge count of rank {r}"
        );
        assert_eq!(
            own.elems_of_rank[r], elems[r],
            "element list of rank {r}, ascending by slot"
        );
    }

    for (p, sub) in extract_submeshes(mesh, &rank_of_elem, nproc)
        .iter()
        .enumerate()
    {
        for le in sub.mesh.edges() {
            let [a, b] = sub.mesh.edge_verts(le);
            let global = mesh
                .edge_between(sub.global_vert[a.idx()], sub.global_vert[b.idx()])
                .expect("local edge must exist globally");
            let want: Vec<u32> = ranks[global.idx()]
                .iter()
                .copied()
                .filter(|&q| q as usize != p)
                .collect();
            assert_eq!(sub.edge_spl[le.idx()], want, "SPL of {global} on part {p}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// After any sequence of random refinements, migrations and
    /// coarsenings — slot reuse, dead slots and multi-level trees included —
    /// the one ownership builder agrees with the oracle.
    #[test]
    fn ownership_build_matches_naive_oracle(
        nproc in 1usize..5,
        assign in proptest::collection::vec(0u32..64, 64),
        steps in proptest::collection::vec(
            (0u8..3, proptest::collection::vec(0u32..64, 16)),
            1..6,
        ),
    ) {
        let mut am = AdaptiveMesh::new(unit_box_mesh(2));
        let mut proc: Vec<u32> = (0..am.n_roots())
            .map(|r| assign[r % assign.len()] % nproc as u32)
            .collect();
        assert_matches_oracle(&am, &proc, nproc);

        for (kind, data) in &steps {
            match kind {
                0 => {
                    // Pseudo-random edge marking, legalized, then refined.
                    let mut marks = EdgeMarks::new(&am.mesh);
                    for (i, e) in am.mesh.edges().enumerate() {
                        if (data[i % data.len()] + i as u32).is_multiple_of(5) {
                            marks.mark(e);
                        }
                    }
                    am.upgrade_to_fixpoint(&mut marks);
                    am.refine(&marks, &mut []);
                }
                1 => {
                    // Migrate a pseudo-random subset of roots to new ranks.
                    for r in 0..proc.len() {
                        if data[r % data.len()] % 3 == 0 {
                            proc[r] = data[(r + 1) % data.len()] % nproc as u32;
                        }
                    }
                }
                _ => {
                    // Coarse-mark a slab of the box, so the families inside
                    // it de-refine and the ones outside or astride stay.
                    let cut = 0.25 * (1 + data[0] % 4) as f64;
                    let mut cmarks = EdgeMarks::new(&am.mesh);
                    for e in am.mesh.edges() {
                        if am.mesh.edge_midpoint(e)[0] <= cut {
                            cmarks.mark(e);
                        }
                    }
                    am.coarsen(&cmarks, &mut []);
                }
            }
            assert_matches_oracle(&am, &proc, nproc);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Schedule perturbation changes only virtual times, never outcomes:
    /// under any link-jitter seed, two engine cycles produce bit-identical
    /// discrete results (mesh counts, marking sweeps, balance decisions,
    /// adopted assignments, migration volumes) to the unperturbed engine.
    #[test]
    fn engine_results_invariant_under_jitter_seeds(
        seed in proptest::prelude::any::<u64>(),
        jitter in 0.01f64..0.4,
    ) {
        let run = |chaos: Option<(u64, f64)>| {
            let mut p = Plum::new(
                unit_box_mesh(3),
                WaveField::unit_box(),
                PlumConfig::new(4),
            );
            if let Some((seed, jitter)) = chaos {
                p.chaos.seed = seed;
                p.chaos.link_jitter = jitter;
            }
            let mut out = Vec::new();
            for _ in 0..2 {
                let r = p.adaption_cycle(0.25, 0.3);
                out.push((
                    r.counts,
                    r.marking_sweeps,
                    r.decision.repartitioned,
                    r.decision.accepted,
                    r.decision.new_proc.clone(),
                    r.decision.wmax_old,
                    r.decision.wmax_new,
                    r.capacity.clone(),
                    r.migration.map(|m| (m.elems_moved, m.words_moved, m.msgs)),
                ));
            }
            (out, p.proc_of_root.clone())
        };
        let clean = run(None);
        let jittered = run(Some((seed, jitter)));
        prop_assert_eq!(clean, jittered);
    }
}
