//! Global-vs-local rematch at scale: `reproduce -- rematch`.
//!
//! Every contender executes its real SPMD body inside the event-driven
//! simulator, across full adaption cycles, at P = 64 / 256 / 1024 — with
//! and without an injected 2× rank slowdown. Contenders:
//!
//! * **multilevel** — PLUM's global repartitioner (the paper's position),
//! * **sfc_diffusion** — first-order SFC boundary diffusion (PR 6),
//! * **diffusion2** — second-order (Chebyshev) diffusion over the
//!   rank-adjacency graph,
//! * **voronoi** — Voronoi / centroid-shift balancing in SFC key space.
//!
//! Each `(method, P, chaos)` cell runs a per-rank-sized mesh
//! (~[`REMATCH_ELEMS_PER_RANK`] initial elements per rank, like the
//! weak-scaling sweep) for [`REMATCH_CYCLES`] adaption cycles with the
//! method pinned via `force_method` and an aggressive 1.01 trigger, and
//! reports summed virtual makespan, summed partition seconds, elements
//! moved, and the final capacity-weighted effective imbalance. Every cycle
//! must be protocol-clean with the 1e-9 phase-accounting invariant.
//!
//! Cells are scored end-to-end in virtual seconds: the summed makespan of
//! the measured cycles *plus* the residual-imbalance penalty the gain/cost
//! model itself prices — `T_iter · N_adapt · (Ŵ_max − Ŵ_avg)` over the
//! final effective per-rank loads, i.e. the solver time the leftover
//! imbalance costs across the next adaption epoch. This keeps a method
//! honest in both directions: a cheap balancer that leaves the mesh
//! lopsided pays for it in the penalty term, and an expensive global
//! repartition pays its own partition-phase makespan. The per-column
//! minimum decides the verdict — global, local, or hybrid — which lands in
//! the BENCH metadata and in EXPERIMENTS.md, whichever way it falls. (At
//! these per-rank granularities an *absolute* imbalance bar is infeasible
//! for every method — one refined element is several percent of a rank's
//! load — so the absolute ≤ [`REMATCH_IMBALANCE_TARGET`] criterion applies
//! only to the chaos-recovery variant below, whose mesh grows.)
//!
//! `reproduce -- rematch --chaos <seed>` runs the recovery variant for the
//! nightly matrix instead: P = 64, *no* forced method (the policy picks),
//! one rank slowed 2×; the selected method must bring the effective
//! imbalance to ≤ 1.1 within three cycles or the run fails and CI uploads
//! the last session trace.

use plum_core::{BalanceMethod, ChaosConfig, Plum, PlumConfig, RemapPolicy};
use plum_mesh::generate::{box_dims_for_elements, box_mesh};
use plum_obs::BenchReport;
use plum_partition::weights_of;
use plum_solver::WaveField;

use crate::report::{git_sha, MultilevelShape};

/// Processor counts of the rematch grid.
pub const REMATCH_PROCS: [usize; 3] = [64, 256, 1024];

/// Initial elements per rank (the weak-scaling convention).
pub const REMATCH_ELEMS_PER_RANK: usize = 16;

/// The methods under comparison: the global kernel and the three locals.
pub const REMATCH_METHODS: [BalanceMethod; 4] = [
    BalanceMethod::Multilevel,
    BalanceMethod::SfcDiffusion,
    BalanceMethod::Diffusion2,
    BalanceMethod::Voronoi,
];

/// Adaption cycles per grid cell (the refine fraction is the Real_1 case,
/// [`crate::CASES`]`[0]`). Three cycles let the gain/cost model show its
/// swing: marginal proposals get rejected mid-run and re-accepted once the
/// grown mesh raises the stakes.
pub const REMATCH_CYCLES: usize = 3;

/// Recovery bar for the chaos variant: the policy-selected balancer must
/// bring the effective imbalance at or below this within three cycles.
pub const REMATCH_IMBALANCE_TARGET: f64 = 1.1;

/// Ceiling on multilevel's summed partition seconds at P = 1024 over P =
/// 256 (unperturbed arm). Every collective on its path costs `O(words ·
/// log P)` and a refinement stage ships what it changes, so 4× the ranks
/// cost a small multiple (3.8): a dense `nparts`-word row per stage reads
/// 9.1 and a `P · nparts`-word collective on the critical path ≈ 1 000×;
/// either fails the run.
pub const REMATCH_CLIFF_FACTOR: f64 = 6.0;

/// Fixed seed of the chaos arm (slow rank = seed mod P, plus the link
/// jitter stream) — pinned so the BENCH report is deterministic.
pub const REMATCH_CHAOS_SEED: u64 = 5;

/// One `(method, P, chaos)` cell of the rematch grid.
#[derive(Debug, Clone)]
pub struct RematchCell {
    pub method: BalanceMethod,
    pub nproc: usize,
    pub chaos: bool,
    pub cycles: usize,
    /// Summed virtual makespan of the cycles: Σ over cycles of
    /// max-over-ranks accounted session time.
    pub virtual_seconds: f64,
    /// Summed partition-phase virtual seconds.
    pub partition_seconds: f64,
    /// Total elements migrated across the cycles.
    pub moved_elems: u64,
    /// Capacity-weighted effective imbalance after the last cycle
    /// (equals the raw imbalance when no rank is slowed).
    pub imbalance_after: f64,
    /// Residual-imbalance penalty in virtual seconds: what the leftover
    /// imbalance costs in solver time over the next adaption epoch,
    /// `T_iter · N_adapt · (Ŵ_max − Ŵ_avg)` on effective loads.
    pub residual_seconds: f64,
    /// End-to-end score deciding the column: `virtual_seconds +
    /// residual_seconds`, lower is better.
    pub score: f64,
    /// Levels, stages and reductions of the cycles' partition phases
    /// (multilevel cells only; zero elsewhere).
    pub shape: MultilevelShape,
}

fn rematch_plum(method: Option<BalanceMethod>, nproc: usize, chaos: bool) -> Plum {
    let (nx, ny, nz) = box_dims_for_elements(nproc * REMATCH_ELEMS_PER_RANK);
    let mut cfg = PlumConfig::new(nproc);
    cfg.policy = RemapPolicy::BeforeRefinement;
    if method.is_some() {
        // Pin the contender and make every cycle repartition, so each
        // column measures the method itself rather than the trigger.
        cfg.imbalance_trigger = 1.01;
        cfg.force_method = method;
    }
    let mut plum = Plum::new(
        box_mesh(nx, ny, nz, [0.0; 3], [1.0; 3]),
        WaveField::unit_box(),
        cfg,
    );
    if chaos {
        let slow_rank = (REMATCH_CHAOS_SEED % nproc as u64) as usize;
        plum.chaos = ChaosConfig::slowdown(nproc, slow_rank, 2.0);
        plum.chaos.seed = REMATCH_CHAOS_SEED;
        plum.chaos.link_jitter = 0.1;
    }
    plum
}

/// Capacity-weighted effective imbalance of the adopted assignment.
fn effective_imbalance(plum: &Plum, r: &plum_core::CycleReport) -> f64 {
    let (wcomp, _) = plum.am.weights();
    let load = weights_of(&wcomp, &plum.proc_of_root, plum.cfg.nproc);
    r.effective_imbalance(&load)
}

/// The cycle's virtual makespan, asserting its session timeline passes the
/// trace audit (protocol-clean, phase accounting closed to 1e-9) — every
/// rematch cycle runs under the same discipline as the weak-scaling sweep.
fn assert_clean(r: &plum_core::CycleReport, what: &str) -> f64 {
    let audit = r.traces.session.audit();
    audit.unwrap_or_else(|e| panic!("{what}: {e}"))
}

/// Run one cell: [`REMATCH_CYCLES`] full adaption cycles with the method
/// pinned, scored by summed makespan plus the residual-imbalance penalty.
pub fn rematch_cell(method: BalanceMethod, nproc: usize, chaos: bool) -> RematchCell {
    let cycles = REMATCH_CYCLES;
    let mut plum = rematch_plum(Some(method), nproc, chaos);
    let mut virtual_seconds = 0.0;
    let mut partition_seconds = 0.0;
    let mut moved_elems = 0u64;
    let mut imbalance_after = f64::NAN;
    let mut capacity: Vec<f64> = vec![1.0; nproc];
    let mut shape = MultilevelShape::default();
    for cycle in 0..cycles {
        let r = plum.adaption_cycle(crate::CASES[0].1, 0.1);
        virtual_seconds += assert_clean(
            &r,
            &format!(
                "rematch {} P={nproc} chaos={chaos} cycle {cycle}",
                method.name()
            ),
        );
        partition_seconds += r.times.partition;
        if method == BalanceMethod::Multilevel {
            shape.add(&r.traces.session);
        }
        moved_elems += r.migration.as_ref().map_or(0, |m| m.elems_moved);
        imbalance_after = effective_imbalance(&plum, &r);
        capacity = r.capacity;
    }
    // Price the leftover imbalance with the gain/cost model's own solver
    // term: the effective-load gap Ŵ_max − Ŵ_avg is exactly what a perfect
    // balancer would recover per iteration, over the next N_adapt
    // iterations. Uses the final observed capacities, so a slowed rank's
    // leftover load is priced at its real speed.
    let (wcomp, _) = plum.am.weights();
    let load = weights_of(&wcomp, &plum.proc_of_root, plum.cfg.nproc);
    let eff_max = load
        .iter()
        .zip(&capacity)
        .map(|(&w, &c)| w as f64 / c)
        .fold(0.0f64, f64::max);
    let eff_avg = load.iter().map(|&w| w as f64).sum::<f64>() / capacity.iter().sum::<f64>();
    let cost = &plum.cfg.cost;
    let residual_seconds = cost.t_iter * cost.n_adapt as f64 * (eff_max - eff_avg).max(0.0);
    RematchCell {
        method,
        nproc,
        chaos,
        cycles,
        virtual_seconds,
        partition_seconds,
        moved_elems,
        imbalance_after,
        residual_seconds,
        score: virtual_seconds + residual_seconds,
        shape,
    }
}

/// Pick the column winner: minimum end-to-end score (summed makespan plus
/// residual-imbalance penalty).
fn column_winner(cells: &[&RematchCell]) -> BalanceMethod {
    cells
        .iter()
        .min_by(|a, b| a.score.total_cmp(&b.score))
        .map(|c| c.method)
        .expect("every column has cells")
}

/// The rematch BENCH run. Always runs the full P grid — the committed
/// baseline and the CI regeneration must have identical shape.
pub fn rematch_bench() -> (BenchReport, String) {
    let mut cells: Vec<RematchCell> = Vec::new();
    for &nproc in &REMATCH_PROCS {
        for chaos in [false, true] {
            for method in REMATCH_METHODS {
                cells.push(rematch_cell(method, nproc, chaos));
            }
        }
    }

    let multilevel_partition = |nproc: usize| {
        let cell = cells
            .iter()
            .find(|c| c.method == BalanceMethod::Multilevel && c.nproc == nproc && !c.chaos);
        cell.expect("the grid has a multilevel cell per P")
            .partition_seconds
    };
    let (at_256, at_1024) = (multilevel_partition(256), multilevel_partition(1024));
    assert!(
        at_1024 <= REMATCH_CLIFF_FACTOR * at_256,
        "multilevel partition seconds fall off a cliff: {at_1024:.3} s at P=1024 vs \
         {at_256:.3} s at P=256 (> {REMATCH_CLIFF_FACTOR}x)"
    );

    let mut b = BenchReport::new("rematch");
    b.meta_str("git_sha", &git_sha())
        .meta_num("elems_per_rank", REMATCH_ELEMS_PER_RANK as f64)
        .meta_num("chaos_seed", REMATCH_CHAOS_SEED as f64)
        .meta_num("imbalance_target", REMATCH_IMBALANCE_TARGET);
    for c in &cells {
        let arm = if c.chaos { ".chaos" } else { "" };
        let k = |m: &str| format!("rematch.{}.p{}{arm}.{m}", c.method.name(), c.nproc);
        b.set(&k("virtual_seconds"), c.virtual_seconds)
            .set(&k("partition_seconds"), c.partition_seconds)
            .set(&k("moved_elems"), c.moved_elems as f64)
            .set(&k("imbalance_after"), c.imbalance_after)
            .set(&k("score_seconds"), c.score);
        c.shape.emit(&mut b, &format!(".p{}{arm}", c.nproc));
    }

    // Column verdicts: one winner per (P, arm).
    let mut winners: Vec<(usize, bool, BalanceMethod)> = Vec::new();
    for &nproc in &REMATCH_PROCS {
        for chaos in [false, true] {
            let col: Vec<&RematchCell> = cells
                .iter()
                .filter(|c| c.nproc == nproc && c.chaos == chaos)
                .collect();
            winners.push((nproc, chaos, column_winner(&col)));
        }
    }
    let verdict = if winners
        .iter()
        .all(|&(_, _, m)| m == BalanceMethod::Multilevel)
    {
        "global: PLUM's multilevel repartitioner wins every column".to_string()
    } else if winners
        .iter()
        .all(|&(_, _, m)| m != BalanceMethod::Multilevel)
    {
        "local: a local balancer wins every column".to_string()
    } else {
        let mut s = String::from("hybrid:");
        for &(p, chaos, m) in &winners {
            s.push_str(&format!(
                " p{p}{}={}",
                if chaos { "+chaos" } else { "" },
                m.name()
            ));
        }
        s
    };
    b.meta_str("verdict", &verdict);
    for &(p, chaos, m) in &winners {
        let arm = if chaos { ".chaos" } else { "" };
        b.set(
            &format!("info.rematch.winner_code.p{p}{arm}"),
            m.code() as f64,
        );
    }

    let mut analysis = format!(
        "rematch: global vs local balancers, {} cycles/cell, trigger 1.01, \
         ~{} elems/rank\n\
         {:>6} {:>5} {:>13} | {:>12} {:>12} {:>9} {:>9} {:>10} {:>10}\n",
        REMATCH_CYCLES,
        REMATCH_ELEMS_PER_RANK,
        "P",
        "chaos",
        "method",
        "virtual_s",
        "partition_s",
        "moved",
        "eff_imb",
        "residual_s",
        "score_s"
    );
    for &nproc in &REMATCH_PROCS {
        for chaos in [false, true] {
            let winner = winners
                .iter()
                .find(|&&(p, c, _)| p == nproc && c == chaos)
                .map(|&(_, _, m)| m)
                .unwrap();
            for c in cells
                .iter()
                .filter(|c| c.nproc == nproc && c.chaos == chaos)
            {
                let mark = if c.method == winner { " <= winner" } else { "" };
                analysis.push_str(&format!(
                    "{:>6} {:>5} {:>13} | {:>12.4} {:>12.4} {:>9} {:>9.3} {:>10.4} {:>10.4}{mark}\n",
                    c.nproc,
                    c.chaos,
                    c.method.name(),
                    c.virtual_seconds,
                    c.partition_seconds,
                    c.moved_elems,
                    c.imbalance_after,
                    c.residual_seconds,
                    c.score,
                ));
            }
        }
    }
    analysis.push_str(&format!(
        "=> verdict: {verdict} (score = summed cycle makespan + residual \
         imbalance priced at T_iter*N_adapt; lower wins the column)\n"
    ));
    (b, analysis)
}

/// One adaption cycle of a rematch chaos-recovery run.
#[derive(Debug, Clone)]
pub struct RematchChaosRow {
    pub cycle: usize,
    /// Virtual makespan of the cycle.
    pub makespan: f64,
    /// Capacity-weighted effective imbalance after the cycle.
    pub eff_imbalance: f64,
    /// Which method the policy selected (`None`: no repartition ran).
    pub method: Option<BalanceMethod>,
    /// Whether the balancer adopted a new mapping this cycle.
    pub accepted: bool,
}

/// Full record of one seeded rematch recovery run.
#[derive(Debug, Clone)]
pub struct RematchChaosRun {
    pub seed: u64,
    pub nproc: usize,
    pub slow_rank: usize,
    pub rows: Vec<RematchChaosRow>,
    /// True when some cycle reached effective imbalance ≤
    /// [`REMATCH_IMBALANCE_TARGET`].
    pub recovered: bool,
    /// Chrome-trace JSON of the last cycle's session timeline (the failure
    /// artifact CI uploads).
    pub trace_json: String,
}

/// The nightly-matrix recovery variant: P = 64 with one rank slowed 2×
/// (rank = seed mod P), method chosen by the policy per cycle; the
/// balancer must reach effective imbalance ≤ [`REMATCH_IMBALANCE_TARGET`]
/// within three cycles. Unlike the fig6 chaos criterion (a relative
/// gap-closure fraction), this is an absolute bound — the level where
/// every rank finishes its solver share within 10% of ideal.
pub fn rematch_chaos_recovery(seed: u64) -> RematchChaosRun {
    let nproc = REMATCH_PROCS[0];
    let slow_rank = (seed % nproc as u64) as usize;
    let mut plum = rematch_plum(None, nproc, false);
    plum.chaos = ChaosConfig::slowdown(nproc, slow_rank, 2.0);
    plum.chaos.seed = seed;
    plum.chaos.link_jitter = 0.1;

    let mut rows = Vec::new();
    let mut recovered = false;
    let mut trace_json = String::new();
    for cycle in 0..3 {
        // The Real_2 refine fraction: the mesh must grow so the per-rank
        // granularity becomes fine enough to hit the absolute 1.1 target
        // (at a frozen ~16 elems/rank one element is >6% of a rank's load).
        let r = plum.adaption_cycle(crate::CASES[1].1, 0.1);
        let makespan = assert_clean(&r, &format!("rematch chaos seed {seed} cycle {cycle}"));
        let eff = effective_imbalance(&plum, &r);
        rows.push(RematchChaosRow {
            cycle,
            makespan,
            eff_imbalance: eff,
            method: r.decision.method,
            accepted: r.decision.accepted,
        });
        trace_json = r.traces.session.chrome_json();
        if eff <= REMATCH_IMBALANCE_TARGET {
            recovered = true;
            break;
        }
    }

    RematchChaosRun {
        seed,
        nproc,
        slow_rank,
        rows,
        recovered,
        trace_json,
    }
}

/// Print a rematch recovery run as a per-cycle table.
pub fn print_rematch_chaos(run: &RematchChaosRun) {
    println!(
        "Rematch recovery: seed {}, P={}, rank {} slowed 2×, policy-selected method",
        run.seed, run.nproc, run.slow_rank
    );
    println!(
        "{:>6} {:>12} {:>9} {:>13} {:>9}",
        "cycle", "makespan", "eff_imb", "method", "accepted"
    );
    for row in &run.rows {
        println!(
            "{:>6} {:>12.6} {:>9.3} {:>13} {:>9}",
            row.cycle,
            row.makespan,
            row.eff_imbalance,
            row.method.map_or("-", |m| m.name()),
            row.accepted
        );
    }
    let last = run.rows.last().expect("at least one cycle");
    println!(
        "=> {} (effective imbalance {:.3}, target ≤ {REMATCH_IMBALANCE_TARGET})",
        if run.recovered {
            "RECOVERED"
        } else {
            "NOT RECOVERED"
        },
        last.eff_imbalance,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One quick cell per local method at the smallest P: pinned method
    /// actually runs, cycles are protocol-clean, and the cell's metrics
    /// are populated.
    #[test]
    fn quick_rematch_cells_run_forced_locals() {
        for method in [BalanceMethod::Diffusion2, BalanceMethod::Voronoi] {
            let c = rematch_cell(method, 8, false);
            assert_eq!(c.method, method);
            assert_eq!(c.cycles, REMATCH_CYCLES);
            assert!(c.virtual_seconds > 0.0, "{c:?}");
            assert!(c.partition_seconds > 0.0, "{c:?}");
            assert!(c.imbalance_after >= 1.0, "{c:?}");
            assert!(c.residual_seconds >= 0.0, "{c:?}");
            assert!(c.score >= c.virtual_seconds, "{c:?}");
        }
    }

    /// The recovery variant at a small scale: deterministic slow rank and a
    /// non-empty trace. (The committed P = 64 criterion runs in the nightly
    /// matrix; here we only pin the mechanics.)
    #[test]
    fn rematch_chaos_run_reports_rows_and_trace() {
        let run = rematch_chaos_recovery(3);
        assert_eq!(run.nproc, REMATCH_PROCS[0]);
        assert_eq!(run.slow_rank, 3);
        assert!(!run.rows.is_empty());
        assert!(!run.trace_json.is_empty());
        assert!(run.recovered, "{:?}", run.rows);
    }
}
