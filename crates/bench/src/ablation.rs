//! Ablation studies for the framework's design choices.
//!
//! * **F granularity** (§4.3): more partitions per processor trade lower
//!   movement volume for longer partitioning/reassignment.
//! * **Seeded repartitioning** (§4.2): parallel-MeTiS-style seeding from the
//!   previous partition vs. partitioning from scratch.
//! * **Reassignment metric** (§4.4): TotalV vs MaxV and what each buys.

use std::time::Instant;

use plum_partition::{migration, partition_kway, repartition_kway, Graph, PartitionConfig};
use plum_reassign::{
    bottleneck_value, greedy_mwbg, optimal_bmcm, optimal_mwbg, remap_stats, SimilarityMatrix,
};

use crate::{marked_problem, Scale, CASES};

fn real2_setup(scale: Scale, nproc: usize) -> (Graph<'static>, Vec<u32>, Vec<u64>, Vec<u64>) {
    let p = marked_problem(scale, CASES[1].1);
    let pred = p.am.predict(&p.marks);
    let (_, wremap) = p.am.weights();
    let unit = Graph::from_csr(
        p.dual.xadj.clone(),
        p.dual.adjncy.clone(),
        vec![1; p.dual.n()],
    );
    let old = partition_kway(&unit, &PartitionConfig::new(nproc));
    let g = Graph::from_csr(
        p.dual.xadj.clone(),
        p.dual.adjncy.clone(),
        pred.wcomp.clone(),
    );
    (g, old, pred.wcomp, wremap)
}

/// One row of the F-granularity ablation.
#[derive(Debug, Clone)]
pub struct FRow {
    pub f: usize,
    pub total_elems: u64,
    pub total_msgs: u64,
    pub partition_seconds: f64,
    pub reassign_seconds: f64,
}

/// Sweep partitions-per-processor F on Real_2 at a fixed processor count.
pub fn ablate_f(scale: Scale, nproc: usize, fs: &[usize]) -> Vec<FRow> {
    let (g, old, _, wremap) = real2_setup(scale, nproc);
    let mut rows = Vec::new();
    for &f in fs {
        let nparts = nproc * f;
        let t0 = Instant::now();
        let new_part = partition_kway(&g, &PartitionConfig::new(nparts));
        let partition_seconds = t0.elapsed().as_secs_f64();
        let sm = SimilarityMatrix::from_assignments(&wremap, &old, &new_part, nproc, nparts);
        let t0 = Instant::now();
        let assign = optimal_mwbg(&sm);
        let reassign_seconds = t0.elapsed().as_secs_f64();
        let stats = remap_stats(&sm, &assign);
        rows.push(FRow {
            f,
            total_elems: stats.total_elems,
            total_msgs: stats.total_msgs,
            partition_seconds,
            reassign_seconds,
        });
    }
    rows
}

/// Print the F ablation. Its times are host wall-clock.
pub fn print_ablate_f(rows: &[FRow]) {
    println!("Ablation: partitions per processor F (Real_2, optimal MWBG)");
    println!(
        "{:>3} | {:>11} {:>10} | {:>17} {:>16}",
        "F", "elems moved", "messages", "partition host ms", "reassign host µs"
    );
    for r in rows {
        println!(
            "{:>3} | {:>11} {:>10} | {:>17.1} {:>16.1}",
            r.f,
            r.total_elems,
            r.total_msgs,
            r.partition_seconds * 1e3,
            r.reassign_seconds * 1e6
        );
    }
}

/// Result of the seeded-vs-fresh repartitioning ablation.
#[derive(Debug, Clone)]
pub struct SeedRow {
    pub nproc: usize,
    pub seeded_moved: usize,
    pub fresh_moved: usize,
    pub seeded_cut: u64,
    pub fresh_cut: u64,
}

/// Compare repartitioning seeded from the previous partition against
/// partitioning from scratch: migration volume vs cut quality.
pub fn ablate_seeding(scale: Scale, procs: &[usize]) -> Vec<SeedRow> {
    let mut rows = Vec::new();
    for &nproc in procs {
        let (g, old, _, _) = real2_setup(scale, nproc);
        let cfg = PartitionConfig::new(nproc);
        let seeded = repartition_kway(&g, &cfg, &old);
        let fresh = partition_kway(&g, &cfg);
        let (seeded_moved, _) = migration(&g, &old, &seeded);
        let (fresh_moved, _) = migration(&g, &old, &fresh);
        rows.push(SeedRow {
            nproc,
            seeded_moved,
            fresh_moved,
            seeded_cut: plum_partition::edge_cut(&g, &seeded),
            fresh_cut: plum_partition::edge_cut(&g, &fresh),
        });
    }
    rows
}

/// Print the seeding ablation.
pub fn print_ablate_seeding(rows: &[SeedRow]) {
    println!("Ablation: repartitioning seeded by the previous partition vs fresh");
    println!(
        "{:>4} | {:>13} {:>13} | {:>11} {:>11}",
        "P", "seeded moved", "fresh moved", "seeded cut", "fresh cut"
    );
    for r in rows {
        println!(
            "{:>4} | {:>13} {:>13} | {:>11} {:>11}",
            r.nproc, r.seeded_moved, r.fresh_moved, r.seeded_cut, r.fresh_cut
        );
    }
}

/// Result of the metric ablation: what each mapper optimizes and what it
/// costs on the other metric.
#[derive(Debug, Clone)]
pub struct MetricRow {
    pub nproc: usize,
    pub mwbg_total: u64,
    pub mwbg_bottleneck: f64,
    pub bmcm_total: u64,
    pub bmcm_bottleneck: f64,
    pub greedy_total: u64,
    pub greedy_bottleneck: f64,
}

/// TotalV vs MaxV: each optimal mapper wins its own metric; the greedy
/// heuristic "does an excellent job of minimizing both" (§5).
pub fn ablate_metric(scale: Scale, procs: &[usize]) -> Vec<MetricRow> {
    let mut rows = Vec::new();
    for &nproc in procs {
        let (g, old, wcomp, wremap) = real2_setup(scale, nproc);
        let _ = wcomp;
        let new = repartition_kway(&g, &PartitionConfig::new(nproc), &old);
        let sm = SimilarityMatrix::from_assignments(&wremap, &old, &new, nproc, nproc);
        let mwbg = optimal_mwbg(&sm);
        let bmcm = optimal_bmcm(&sm, 1.0, 1.0);
        let greedy = greedy_mwbg(&sm);
        rows.push(MetricRow {
            nproc,
            mwbg_total: remap_stats(&sm, &mwbg).total_elems,
            mwbg_bottleneck: bottleneck_value(&sm, &mwbg, 1.0, 1.0),
            bmcm_total: remap_stats(&sm, &bmcm).total_elems,
            bmcm_bottleneck: bottleneck_value(&sm, &bmcm, 1.0, 1.0),
            greedy_total: remap_stats(&sm, &greedy).total_elems,
            greedy_bottleneck: bottleneck_value(&sm, &greedy, 1.0, 1.0),
        });
    }
    rows
}

/// Print the metric ablation.
pub fn print_ablate_metric(rows: &[MetricRow]) {
    println!("Ablation: TotalV vs MaxV (totals | bottleneck flows)");
    println!(
        "{:>4} | {:>9} {:>9} {:>9} | {:>10} {:>10} {:>10}",
        "P", "mwbg tot", "bmcm tot", "heu tot", "mwbg max", "bmcm max", "heu max"
    );
    for r in rows {
        println!(
            "{:>4} | {:>9} {:>9} {:>9} | {:>10.0} {:>10.0} {:>10.0}",
            r.nproc,
            r.mwbg_total,
            r.bmcm_total,
            r.greedy_total,
            r.mwbg_bottleneck,
            r.bmcm_bottleneck,
            r.greedy_bottleneck
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mappers_win_their_own_metric() {
        for row in ablate_metric(Scale::Quick, &[4, 8]) {
            assert!(
                row.mwbg_total <= row.bmcm_total,
                "P={}: MWBG must minimize totals",
                row.nproc
            );
            assert!(
                row.bmcm_bottleneck <= row.mwbg_bottleneck + 1e-9,
                "P={}: BMCM must minimize the bottleneck",
                row.nproc
            );
            // Greedy within 2x of optimal totals (corollary).
            assert!(row.greedy_total <= 2 * row.mwbg_total + 1);
        }
    }

    #[test]
    fn seeding_reduces_migration() {
        for row in ablate_seeding(Scale::Quick, &[4, 8]) {
            assert!(
                row.seeded_moved <= row.fresh_moved,
                "P={}: seeding should not move more than fresh ({} vs {})",
                row.nproc,
                row.seeded_moved,
                row.fresh_moved
            );
        }
    }

    #[test]
    fn f_rows_are_complete() {
        let rows = ablate_f(Scale::Quick, 4, &[1, 2, 4]);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.total_msgs > 0);
        }
    }
}
