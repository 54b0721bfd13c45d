//! # plum-bench — experiment reproduction harness
//!
//! One entry point per table/figure of the paper's evaluation (§5). The
//! `reproduce` binary is their only front-end (`reproduce -- all --quick`
//! regenerates every table and figure at reduced scale); the Criterion
//! benches in `benches/kernels.rs` measure the underlying algorithm
//! kernels.

pub mod ablation;
pub mod chaos;
pub mod multicycle;
pub mod rematch;
pub mod report;
pub mod scenarios;

use std::time::Instant;

use plum_adapt::AdaptiveMesh;
use plum_core::{Plum, PlumConfig, RemapPolicy};
use plum_mesh::generate::{box_dims_for_elements, box_mesh};
use plum_mesh::{DualGraph, TetMesh, VertexField};
use plum_parsim::PhaseAgg;
use plum_partition::{partition_kway, repartition_kway, Graph, PartitionConfig};
use plum_reassign::{greedy_mwbg, optimal_bmcm, optimal_mwbg, remap_stats, SimilarityMatrix};
use plum_remap::max_balancing_improvement;
use plum_solver::{
    edge_error_indicator, initialize_solution, solve, SolverConfig, WaveField, NCOMP,
};

/// Problem scale: the paper's initial mesh has 60,968 elements; quick mode
/// runs the same pipelines at ~6k elements for CI/benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// ≈ 61k elements (the paper's Table 1 initial grid size).
    Paper,
    /// ≈ 6k elements.
    Quick,
}

impl Scale {
    /// Target initial element count.
    pub fn elements(self) -> usize {
        match self {
            Scale::Paper => 60_968,
            Scale::Quick => 6_000,
        }
    }

    /// Processor counts to sweep (the paper's x-axes go to 64).
    pub fn procs(self) -> &'static [usize] {
        match self {
            Scale::Paper => &[1, 2, 4, 8, 16, 32, 64],
            Scale::Quick => &[1, 2, 4, 8, 16],
        }
    }
}

/// The three refinement strategies of §5: fraction of edges targeted.
pub const CASES: [(&str, f64); 3] = [("Real_1", 0.05), ("Real_2", 0.33), ("Real_3", 0.60)];

/// The granularity bound `(avg + w_max) / avg` of `weights` spread over
/// `nparts` parts: the imbalance of a part holding its average share plus
/// the heaviest vertex. An imbalance divided by it (`imbalance_norm`) reads
/// about 1 where no balancer can do better — 16 elements per rank — and
/// well above 1 where a balancer stopped short.
pub fn granularity_bound(weights: &[u64], nparts: usize) -> f64 {
    let avg = weights.iter().sum::<u64>() as f64 / nparts as f64;
    let w_max = weights.iter().copied().max().unwrap_or(0) as f64;
    (avg + w_max) / avg
}

/// Build the synthetic stand-in for the paper's initial rotor mesh.
pub fn initial_mesh(scale: Scale) -> TetMesh {
    let (nx, ny, nz) = box_dims_for_elements(scale.elements());
    box_mesh(nx, ny, nz, [0.0; 3], [1.0; 3])
}

/// Run one full adaption cycle for a case.
pub fn run_case(
    scale: Scale,
    frac: f64,
    nproc: usize,
    policy: RemapPolicy,
) -> plum_core::CycleReport {
    let mesh = initial_mesh(scale);
    let mut cfg = PlumConfig::new(nproc);
    cfg.policy = policy;
    let mut plum = Plum::new(mesh, WaveField::unit_box(), cfg);
    plum.adaption_cycle(frac, 0.1)
}

/// A prepared marking experiment: solved flow, error indicator, and legal
/// marks for a given refinement fraction (shared by the Table 1/2 paths).
pub struct MarkedProblem {
    pub am: AdaptiveMesh,
    pub field: VertexField,
    pub marks: plum_adapt::EdgeMarks,
    pub dual: DualGraph,
}

/// Solve the flow and mark `frac` of the edges (with upgrade propagation).
pub fn marked_problem(scale: Scale, frac: f64) -> MarkedProblem {
    let mesh = initial_mesh(scale);
    let dual = DualGraph::build(&mesh);
    let am = AdaptiveMesh::new(mesh);
    let wave = WaveField::unit_box();
    let mut field = VertexField::new(NCOMP, am.mesh.vert_slots());
    initialize_solution(&am.mesh, &mut field, &wave, 0.3);
    solve(&am.mesh, &mut field, &wave, 0.3, &SolverConfig::default());
    let error = edge_error_indicator(&am.mesh, &field);
    let threshold = am.threshold_for_final_fraction(&error, frac);
    let mut marks = am.mark_above(&error, threshold);
    am.upgrade_to_fixpoint(&mut marks);
    MarkedProblem {
        am,
        field,
        marks,
        dual,
    }
}

// ---------------------------------------------------------------------------
// Table 1 — grid sizes for the three refinement strategies
// ---------------------------------------------------------------------------

/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    pub name: &'static str,
    pub vertices: usize,
    pub elements: usize,
    pub edges: usize,
    pub bdy_faces: usize,
    pub growth: f64,
}

/// Regenerate Table 1: refine the initial mesh by each strategy and report
/// the resulting grid sizes.
pub fn table1(scale: Scale) -> Vec<Table1Row> {
    let mut rows = Vec::new();
    let base = initial_mesh(scale);
    let c = base.counts();
    rows.push(Table1Row {
        name: "Initial",
        vertices: c.vertices,
        elements: c.elements,
        edges: c.edges,
        bdy_faces: base.boundary_faces().len(),
        growth: 1.0,
    });
    for (name, frac) in CASES {
        let mut p = marked_problem(scale, frac);
        let n0 = p.am.mesh.n_elems();
        p.am.refine(&p.marks, std::slice::from_mut(&mut p.field));
        p.am.validate();
        let c = p.am.mesh.counts();
        rows.push(Table1Row {
            name,
            vertices: c.vertices,
            elements: c.elements,
            edges: c.edges,
            bdy_faces: p.am.mesh.boundary_faces().len(),
            growth: c.elements as f64 / n0 as f64,
        });
    }
    rows
}

/// Pretty-print Table 1 with the paper's values for comparison.
pub fn print_table1(rows: &[Table1Row]) {
    println!("Table 1: grid sizes after one refinement (paper values in parentheses)");
    println!(
        "{:>8} {:>20} {:>20} {:>20} {:>18} {:>7}",
        "case", "vertices", "elements", "edges", "bdy faces", "G"
    );
    let paper = [
        ("Initial", 13_967usize, 60_968usize, 78_343usize, 6_818usize),
        ("Real_1", 17_880, 82_489, 104_209, 7_682),
        ("Real_2", 39_332, 201_780, 247_115, 12_008),
        ("Real_3", 61_161, 321_841, 391_233, 16_464),
    ];
    for r in rows {
        match paper.iter().find(|p| p.0 == r.name) {
            Some(&(_, v, e, ed, b)) => println!(
                "{:>8} {:>9} ({:>8}) {:>9} ({:>8}) {:>9} ({:>8}) {:>8} ({:>6}) {:>7.3}",
                r.name, r.vertices, v, r.elements, e, r.edges, ed, r.bdy_faces, b, r.growth
            ),
            None => println!(
                "{:>8} {:>20} {:>20} {:>20} {:>18} {:>7.3}",
                r.name, r.vertices, r.elements, r.edges, r.bdy_faces, r.growth
            ),
        }
    }
}

// ---------------------------------------------------------------------------
// Table 2 — mapper comparison on Real_2
// ---------------------------------------------------------------------------

/// One row of Table 2.
#[derive(Debug, Clone)]
pub struct Table2Row {
    pub nproc: usize,
    pub max_sent_recd: u64,
    pub opt_total: u64,
    pub opt_seconds: f64,
    pub heu_total: u64,
    pub heu_seconds: f64,
    pub bmcm_total: u64,
    pub bmcm_seconds: f64,
}

/// Regenerate Table 2: optimal MWBG vs heuristic MWBG vs optimal BMCM, on
/// the Real_2 strategy's similarity matrices, for a sweep of processor
/// counts.
pub fn table2(scale: Scale) -> Vec<Table2Row> {
    let p2 = marked_problem(scale, CASES[1].1);
    let pred = p2.am.predict(&p2.marks);
    let (_, wremap_now) = p2.am.weights();
    let procs: Vec<usize> = scale.procs().iter().copied().filter(|&p| p > 1).collect();

    let mut rows = Vec::new();
    for &nproc in &procs {
        // Old partition: balanced for the pre-refinement weights.
        let unit = Graph::from_csr(
            p2.dual.xadj.clone(),
            p2.dual.adjncy.clone(),
            vec![1; p2.dual.n()],
        );
        let old = partition_kway(&unit, &PartitionConfig::new(nproc));
        // New partition: balanced for the predicted weights, seeded from old.
        let g = Graph::from_csr(
            p2.dual.xadj.clone(),
            p2.dual.adjncy.clone(),
            pred.wcomp.clone(),
        );
        let new = repartition_kway(&g, &PartitionConfig::new(nproc), &old);
        // Remap-before-refinement: the data that moves is the current grid.
        let sm = SimilarityMatrix::from_assignments(&wremap_now, &old, &new, nproc, nproc);

        let t0 = Instant::now();
        let opt = optimal_mwbg(&sm);
        let t_opt = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let heu = greedy_mwbg(&sm);
        let t_heu = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let bmcm = optimal_bmcm(&sm, 1.0, 1.0);
        let t_bmcm = t0.elapsed().as_secs_f64();

        let so = remap_stats(&sm, &opt);
        let sh = remap_stats(&sm, &heu);
        let sb = remap_stats(&sm, &bmcm);
        rows.push(Table2Row {
            nproc,
            max_sent_recd: so
                .sent
                .iter()
                .chain(so.received.iter())
                .copied()
                .max()
                .unwrap_or(0),
            opt_total: so.total_elems,
            opt_seconds: t_opt,
            heu_total: sh.total_elems,
            heu_seconds: t_heu,
            bmcm_total: sb.total_elems,
            bmcm_seconds: t_bmcm,
        });
    }
    rows
}

/// Pretty-print Table 2. The mapper times are host wall-clock.
pub fn print_table2(rows: &[Table2Row]) {
    println!("Table 2: mapper comparison, Real_2 strategy (remap before refinement)");
    println!(
        "{:>4} | {:>14} | {:>11} {:>12} | {:>11} {:>12} | {:>11} {:>12}",
        "P",
        "max(sent,recd)",
        "opt elems",
        "opt host µs",
        "heu elems",
        "heu host µs",
        "bmcm elems",
        "bmcm host µs"
    );
    for r in rows {
        println!(
            "{:>4} | {:>14} | {:>11} {:>12.1} | {:>11} {:>12.1} | {:>11} {:>12.1}",
            r.nproc,
            r.max_sent_recd,
            r.opt_total,
            r.opt_seconds * 1e6,
            r.heu_total,
            r.heu_seconds * 1e6,
            r.bmcm_total,
            r.bmcm_seconds * 1e6,
        );
    }
}

// ---------------------------------------------------------------------------
// Figures 4, 5, 6, 8 — one shared sweep of full adaption cycles
// ---------------------------------------------------------------------------

/// The measured quantities of one `(case, policy, P)` cycle.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    pub case: &'static str,
    pub policy: RemapPolicy,
    pub nproc: usize,
    pub adaption_time: f64,
    pub remap_time: f64,
    pub partition_time: f64,
    /// Wait/compute/wire split of the marking phase (from its trace).
    pub marking_comm: PhaseAgg,
    pub growth: f64,
    /// Fig. 8's max per-processor load without and with the rebalance.
    pub wmax_old: u64,
    pub wmax_balanced: u64,
    pub elems_moved: u64,
}

/// Run the full sweep behind Figs. 4/5/6/8.
pub fn sweep(scale: Scale) -> Vec<SweepPoint> {
    sweep_over(scale, scale.procs())
}

/// The sweep at the processor counts `procs`.
fn sweep_over(scale: Scale, procs: &[usize]) -> Vec<SweepPoint> {
    let mut out = Vec::new();
    for (case, frac) in CASES {
        for policy in [RemapPolicy::AfterRefinement, RemapPolicy::BeforeRefinement] {
            for &p in procs {
                let r = run_case(scale, frac, p, policy);
                out.push(SweepPoint {
                    case,
                    policy,
                    nproc: p,
                    adaption_time: r.times.adaption(),
                    remap_time: r.times.remap,
                    partition_time: r.times.partition,
                    marking_comm: r.traces.phase("marking").cloned().unwrap_or_default(),
                    growth: r.growth,
                    wmax_old: r.decision.wmax_old,
                    wmax_balanced: r.wmax_balanced,
                    elems_moved: r.migration.as_ref().map_or(0, |m| m.elems_moved),
                });
            }
        }
    }
    out
}

fn points<'a>(
    sw: &'a [SweepPoint],
    case: &'a str,
    policy: RemapPolicy,
) -> impl Iterator<Item = &'a SweepPoint> + 'a {
    sw.iter()
        .filter(move |p| p.case == case && p.policy == policy)
}

/// Fig. 4: speedup of the parallel mesh adaptor, remap after vs before
/// refinement.
pub fn print_fig4(sw: &[SweepPoint]) {
    println!("Figure 4: mesh adaptor speedup T(1)/T(P), remap after vs before refinement");
    println!("{:>8} {:>7} | {:>9} {:>9}", "case", "P", "after", "before");
    for (case, _) in CASES {
        let t1_after = points(sw, case, RemapPolicy::AfterRefinement)
            .find(|p| p.nproc == 1)
            .map(|p| p.adaption_time)
            .unwrap();
        let t1_before = points(sw, case, RemapPolicy::BeforeRefinement)
            .find(|p| p.nproc == 1)
            .map(|p| p.adaption_time)
            .unwrap();
        for after in points(sw, case, RemapPolicy::AfterRefinement) {
            let before = points(sw, case, RemapPolicy::BeforeRefinement)
                .find(|p| p.nproc == after.nproc)
                .unwrap();
            println!(
                "{:>8} {:>7} | {:>9.2} {:>9.2}",
                case,
                after.nproc,
                t1_after / after.adaption_time,
                t1_before / before.adaption_time,
            );
        }
    }
}

/// Fig. 5: remapping time, after vs before refinement.
pub fn print_fig5(sw: &[SweepPoint]) {
    println!("Figure 5: remapping time (virtual seconds), after vs before refinement");
    println!(
        "{:>8} {:>7} | {:>12} {:>12} {:>8}",
        "case", "P", "after", "before", "ratio"
    );
    for (case, _) in CASES {
        for after in points(sw, case, RemapPolicy::AfterRefinement) {
            if after.nproc == 1 {
                continue;
            }
            let before = points(sw, case, RemapPolicy::BeforeRefinement)
                .find(|p| p.nproc == after.nproc)
                .unwrap();
            let ratio = if before.remap_time > 0.0 {
                after.remap_time / before.remap_time
            } else {
                f64::NAN
            };
            println!(
                "{:>8} {:>7} | {:>11.4}s {:>11.4}s {:>8.2}",
                case, after.nproc, after.remap_time, before.remap_time, ratio
            );
        }
    }
}

/// Fig. 6: anatomy of execution time (adaption, partitioning, remapping),
/// remap-before policy.
pub fn print_fig6(sw: &[SweepPoint]) {
    println!("Figure 6: execution-time anatomy (virtual seconds, remap before refinement)");
    println!(
        "{:>8} {:>7} | {:>11} {:>12} {:>11} | {:>33}",
        "case", "P", "adaption", "partitioning", "remapping", "marking split (compute/wire/wait)"
    );
    for (case, _) in CASES {
        for p in points(sw, case, RemapPolicy::BeforeRefinement) {
            let c = &p.marking_comm;
            println!(
                "{:>8} {:>7} | {:>10.4}s {:>11.4}s {:>10.4}s | {:>9.4}s {:>9.4}s {:>9.4}s",
                case,
                p.nproc,
                p.adaption_time,
                p.partition_time,
                p.remap_time,
                c.compute,
                c.wire,
                c.wait
            );
        }
    }
}

// ---------------------------------------------------------------------------
// fig6 --trace — merged per-rank trace of one adaption cycle
// ---------------------------------------------------------------------------

/// One remap-before adaption cycle (the Real_2 strategy) exported as a
/// per-rank trace. The cycle engine already runs every phase on one
/// long-lived SPMD session, so [`plum_core::CycleTraces::session`] *is* the
/// continuous timeline — modeled spans (solver, subdivide) and executed
/// protocols (marking, partitioning, reassignment, remap) follow one
/// another on the same virtual clocks, no host-side stitching required.
/// Returns `(chrome_json, text_timeline)`.
///
/// The session holds only virtual quantities, so two runs at the same
/// scale produce byte-identical output.
pub fn fig6_trace(scale: Scale, nproc: usize) -> (String, String) {
    let r = run_case(scale, CASES[1].1, nproc, RemapPolicy::BeforeRefinement);
    let log = &r.traces.session;
    let violations = plum_parsim::check_protocol(log);
    assert!(
        violations.is_empty(),
        "cycle trace violates SPMD discipline: {violations:?}"
    );
    (log.chrome_json(), log.text_timeline())
}

/// Fig. 7: maximum impact of load balancing (analytic).
pub fn print_fig7(growths: &[(String, f64)]) {
    println!("Figure 7: maximum impact of load balancing, min(8, P(G−1)+1)/G");
    print!("{:>7}", "P");
    for (name, g) in growths {
        print!(" | {name} G={g:.3}");
    }
    println!();
    for p in [1usize, 2, 4, 8, 16, 20, 32, 48, 64] {
        print!("{p:>7}");
        for (_, g) in growths {
            print!(
                " | {:>16.3}",
                max_balancing_improvement(p, (*g).clamp(1.0, 8.0))
            );
        }
        println!();
    }
}

/// Fig. 8: actual impact of load balancing on solver workloads.
pub fn print_fig8(sw: &[SweepPoint]) {
    println!("Figure 8: actual impact of load balancing (max-load ratio, unbalanced/balanced)");
    println!("{:>8} {:>7} | {:>9}", "case", "P", "impact");
    for (case, _) in CASES {
        for p in points(sw, case, RemapPolicy::BeforeRefinement) {
            println!(
                "{:>8} {:>7} | {:>9.3}",
                case,
                p.nproc,
                p.wmax_old as f64 / p.wmax_balanced.max(1) as f64
            );
        }
    }
}

/// Measured growth factors per case (for Fig. 7's measured variant).
pub fn measured_growths(sw: &[SweepPoint]) -> Vec<(String, f64)> {
    CASES
        .iter()
        .map(|(case, _)| {
            let g = points(sw, case, RemapPolicy::BeforeRefinement)
                .next()
                .map(|p| p.growth)
                .unwrap_or(1.0);
            (case.to_string(), g)
        })
        .collect()
}

/// The paper's growth factors (Fig. 7's G values).
pub fn paper_growths() -> Vec<(String, f64)> {
    vec![
        ("Real_1".into(), 1.353),
        ("Real_2".into(), 3.310),
        ("Real_3".into(), 5.279),
    ]
}
