//! Regenerate every table and figure of the paper's evaluation section.
//!
//! ```text
//! cargo run --release -p plum-bench --bin reproduce -- all
//! cargo run --release -p plum-bench --bin reproduce -- table1
//! cargo run --release -p plum-bench --bin reproduce -- fig4 --quick
//! ```
//!
//! Subcommands: `table1`, `table2`, `fig4`, `fig5`, `fig6`, `fig6_slow`,
//! `fig6_mild`, `weakscale`, `rematch`, `hotspot`, `dual`, `cascade`,
//! `fig7`, `fig8`, `all`. `--quick` runs at ~6k elements instead of the
//! paper's ~61k.
//!
//! `fig6_slow` emits `BENCH_fig6_slow.json`: the fig6 cycle with one rank
//! computing 2× slower — a known, injected regression. Diff it against a
//! clean fig6 report with `plum-bench explain` to see the attribution
//! engine name the slowed rank (the EXPERIMENTS.md walkthrough).
//!
//! `weakscale` runs one full adaption cycle each at P = 256, 1024, and 4096
//! (`--quick` skips 4096) on meshes sized to ~16 initial elements per rank,
//! and emits `BENCH_weakscale.json`: deterministic virtual cycle makespans,
//! per-P 1-word collective costs, and the `collective.*.logp_ratio` gates
//! that pin tree-collective O(log P) scaling. Quick reports compare only
//! against quick baselines (the committed CI baseline is quick-shaped).
//! `fig6 --trace <path>` additionally writes a Chrome-trace JSON (load it in
//! Perfetto or `chrome://tracing`) of one adaption cycle, plus a plain-text
//! timeline next to it (`foo.json` → `foo.txt`).
//!
//! `fig5` and `fig6` also emit a versioned BENCH report
//! (`BENCH_fig5.json` / `BENCH_fig6.json`; override with `--bench <path>`)
//! of deterministic virtual-time metrics — per-phase seconds, comm
//! counters, cross-rank critical-path lengths — that `plum-bench compare`
//! diffs against a committed baseline in CI. The fig6 report instruments
//! one remap-before Real_2 cycle at P = 64 and prints its critical-path
//! analysis.
//!
//! `fig6_mild` emits `BENCH_fig6_mild.json`: the portfolio's mild-imbalance
//! regime, where the policy must select SFC boundary diffusion and its
//! partition phase must stay a small fraction of the multilevel kernel's —
//! the companion regression gate to the heavy fig6 cycle.
//!
//! `fig6 --chaos <seed>` runs the chaos recovery experiment instead: one
//! rank is slowed 2× (which rank depends on the seed, as does the link
//! jitter), and the capacity-weighted balancer must recover ≥ 80% of the
//! effective-imbalance gap within three adaption cycles. On failure the
//! last cycle's session trace is written to
//! `chaos-failure-seed-<seed>.json` and the process exits nonzero — this is
//! the nightly CI seed matrix.
//!
//! `rematch` is the global-vs-local balancer comparison at P = 64 / 256 /
//! 1024 (see `plum_bench::rematch`): multilevel vs SFC diffusion vs
//! second-order diffusion vs Voronoi, each pinned via `force_method` and
//! executed as its SPMD body inside the simulator, with and without a 2×
//! rank slowdown. It writes `BENCH_rematch.json` for the CI
//! `rematch-conformance` gate and records the column winners in the
//! report's `verdict` metadata. It always runs the full P grid (no
//! `--quick` shape change). `rematch --chaos <seed>` runs the recovery
//! variant of the nightly matrix instead: P = 64, policy-selected method,
//! effective imbalance must reach ≤ 1.1 within three cycles, with a
//! `chaos-failure-rematch-seed-<seed>.json` artifact on failure.
//!
//! `hotspot`, `dual`, and `cascade` are the workload-scenario conformance
//! experiments (see `plum_bench::scenarios`): measured inhomogeneous cost
//! vs the unit-cost assumption, dual-constraint (fluid + particle)
//! balancing vs single-constraint, and the shock-recedes coarsening
//! cascade at P = 64. Each writes `BENCH_<scenario>.json` for the CI
//! `scenario-conformance` gate and asserts its acceptance criteria
//! in-process. `hotspot --chaos <seed>` layers the 40× moving hotspot on
//! top of the seeded 2× rank slowdown — the hotspot row of the nightly
//! chaos matrix, with the same failure-trace artifact contract.

use plum_bench::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut trace_path: Option<String> = None;
    let mut bench_path: Option<String> = None;
    let mut chaos_seed: Option<u64> = None;
    let mut what: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--trace" => {
                i += 1;
                match args.get(i) {
                    Some(p) => trace_path = Some(p.clone()),
                    None => {
                        eprintln!("--trace needs a path argument");
                        std::process::exit(2);
                    }
                }
            }
            "--bench" => {
                i += 1;
                match args.get(i) {
                    Some(p) => bench_path = Some(p.clone()),
                    None => {
                        eprintln!("--bench needs a path argument");
                        std::process::exit(2);
                    }
                }
            }
            "--chaos" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(s) => chaos_seed = Some(s),
                    None => {
                        eprintln!("--chaos needs an integer seed argument");
                        std::process::exit(2);
                    }
                }
            }
            a if !a.starts_with("--") && what.is_none() => what = Some(a.to_string()),
            a => {
                eprintln!("unknown flag '{a}'");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let scale = if quick { Scale::Quick } else { Scale::Paper };
    let what = what.unwrap_or_else(|| "all".to_string());

    eprintln!(
        "# scale: {scale:?} (~{} initial elements), procs {:?}",
        scale.elements(),
        scale.procs()
    );

    let needs_sweep = matches!(what.as_str(), "fig4" | "fig5" | "fig6" | "fig8" | "all")
        && !(what == "fig6" && chaos_seed.is_some());
    let sw = if needs_sweep {
        eprintln!("# running the adaption-cycle sweep (3 cases × 2 policies × P)…");
        Some(sweep(scale))
    } else {
        None
    };

    let write_bench = |default_name: &str, report: &plum_obs::BenchReport| {
        let path = bench_path
            .clone()
            .unwrap_or_else(|| default_name.to_string());
        report
            .validate()
            .expect("BENCH report must be schema-valid");
        std::fs::write(&path, report.to_json()).expect("write BENCH report");
        eprintln!("# wrote {path}");
    };

    match what.as_str() {
        "table1" => print_table1(&table1(scale)),
        "table2" => print_table2(&table2(scale)),
        "fig4" => print_fig4(sw.as_ref().unwrap()),
        "fig5" => {
            let sw = sw.as_ref().unwrap();
            print_fig5(sw);
            write_bench("BENCH_fig5.json", &report::fig5_bench(sw, scale));
        }
        "fig6" => {
            if let Some(seed) = chaos_seed {
                eprintln!("# running the chaos recovery experiment (seed {seed})…");
                let run = chaos::chaos_recovery(scale, seed);
                chaos::print_chaos(&run);
                if !run.recovered {
                    let artifact = format!("chaos-failure-seed-{seed}.json");
                    std::fs::write(&artifact, &run.trace_json).expect("write failure trace");
                    eprintln!("# recovery FAILED; wrote session trace to {artifact}");
                    std::process::exit(1);
                }
                return;
            }
            print_fig6(sw.as_ref().unwrap());
            if let Some(path) = &trace_path {
                let nproc = scale.procs().last().copied().unwrap().min(8);
                eprintln!("# building the per-rank cycle trace at P={nproc}…");
                let (json, text) = fig6_trace(scale, nproc);
                std::fs::write(path, json).expect("write chrome trace");
                let text_path = match path.strip_suffix(".json") {
                    Some(stem) => format!("{stem}.txt"),
                    None => format!("{path}.txt"),
                };
                std::fs::write(&text_path, text).expect("write text timeline");
                eprintln!("# wrote {path} (Perfetto/chrome://tracing) and {text_path}");
            }
            eprintln!(
                "# instrumenting one remap-before Real_2 cycle at P={}…",
                report::FIG6_BENCH_NPROC
            );
            let (bench, analysis) = report::fig6_bench(scale);
            println!();
            print!("{analysis}");
            write_bench("BENCH_fig6.json", &bench);
        }
        "fig6_slow" => {
            eprintln!(
                "# running the fig6 cycle with rank {} slowed {}× at P={}…",
                report::FIG6_SLOW_RANK,
                report::FIG6_SLOW_FACTOR,
                report::FIG6_BENCH_NPROC
            );
            let (bench, analysis) = report::fig6_slow_bench(scale);
            print!("{analysis}");
            write_bench("BENCH_fig6_slow.json", &bench);
        }
        "fig6_mild" => {
            eprintln!(
                "# running the mild-imbalance portfolio cycle at P={}…",
                report::FIG6_BENCH_NPROC
            );
            let (bench, analysis) = report::fig6_mild_bench(scale);
            print!("{analysis}");
            write_bench("BENCH_fig6_mild.json", &bench);
        }
        "weakscale" => {
            let procs: &[usize] = if quick {
                &[256, 1024]
            } else {
                &[256, 1024, 4096]
            };
            eprintln!(
                "# running the weak-scaling sweep (one adaption cycle each at P in {procs:?})…"
            );
            let (bench, analysis) = report::weakscale_bench(quick);
            print!("{analysis}");
            write_bench("BENCH_weakscale.json", &bench);
        }
        "rematch" => {
            if let Some(seed) = chaos_seed {
                eprintln!("# running the rematch recovery experiment (seed {seed})…");
                let run = rematch::rematch_chaos_recovery(seed);
                rematch::print_rematch_chaos(&run);
                if !run.recovered {
                    let artifact = format!("chaos-failure-rematch-seed-{seed}.json");
                    std::fs::write(&artifact, &run.trace_json).expect("write failure trace");
                    eprintln!("# recovery FAILED; wrote session trace to {artifact}");
                    std::process::exit(1);
                }
                return;
            }
            eprintln!(
                "# running the global-vs-local rematch at P in {:?}…",
                rematch::REMATCH_PROCS
            );
            let (bench, analysis) = rematch::rematch_bench();
            print!("{analysis}");
            write_bench("BENCH_rematch.json", &bench);
        }
        "hotspot" => {
            if let Some(seed) = chaos_seed {
                eprintln!("# running the hotspot chaos recovery experiment (seed {seed})…");
                let run = chaos::hotspot_chaos_recovery(scale, seed);
                chaos::print_chaos(&run);
                if !run.recovered {
                    let artifact = format!("chaos-failure-hotspot-seed-{seed}.json");
                    std::fs::write(&artifact, &run.trace_json).expect("write failure trace");
                    eprintln!("# recovery FAILED; wrote session trace to {artifact}");
                    std::process::exit(1);
                }
                return;
            }
            eprintln!(
                "# running the measured-cost hotspot scenario at P={}…",
                scenarios::SCENARIO_NPROC
            );
            let (bench, analysis) = scenarios::hotspot_bench(scale);
            print!("{analysis}");
            write_bench("BENCH_hotspot.json", &bench);
        }
        "dual" => {
            eprintln!(
                "# running the dual-constraint scenario at P={}…",
                scenarios::SCENARIO_NPROC
            );
            let (bench, analysis) = scenarios::dual_bench(scale);
            print!("{analysis}");
            write_bench("BENCH_dual.json", &bench);
        }
        "cascade" => {
            eprintln!(
                "# running the coarsening cascade at P={}…",
                scenarios::CASCADE_NPROC
            );
            let (bench, analysis) = scenarios::cascade_bench(scale);
            print!("{analysis}");
            write_bench("BENCH_cascade.json", &bench);
        }
        "fig7" => {
            print_fig7(&paper_growths());
        }
        "fig8" => print_fig8(sw.as_ref().unwrap()),
        "multicycle" => {
            use plum_bench::multicycle::*;
            let nproc = if quick { 8 } else { 32 };
            print_multicycle(&multicycle(scale, nproc, if quick { 3 } else { 5 }));
        }
        "ablation" => {
            use plum_bench::ablation::*;
            let p16 = if quick { 8 } else { 16 };
            print_ablate_f(&ablate_f(scale, p16, &[1, 2, 4]));
            println!();
            let procs: Vec<usize> = scale.procs().iter().copied().filter(|&p| p > 1).collect();
            print_ablate_seeding(&ablate_seeding(scale, &procs));
            println!();
            print_ablate_metric(&ablate_metric(scale, &procs));
        }
        "all" => {
            let sw = sw.as_ref().unwrap();
            print_table1(&table1(scale));
            println!();
            print_table2(&table2(scale));
            println!();
            print_fig4(sw);
            println!();
            print_fig5(sw);
            println!();
            print_fig6(sw);
            println!();
            println!("(paper G values)");
            print_fig7(&paper_growths());
            println!("(measured G values)");
            print_fig7(&measured_growths(sw));
            println!();
            print_fig8(sw);
            println!();
            let procs: Vec<usize> = scale.procs().iter().copied().filter(|&p| p > 1).collect();
            plum_bench::ablation::print_ablate_f(&plum_bench::ablation::ablate_f(
                scale,
                if quick { 8 } else { 16 },
                &[1, 2, 4],
            ));
            println!();
            plum_bench::ablation::print_ablate_seeding(&plum_bench::ablation::ablate_seeding(
                scale, &procs,
            ));
            println!();
            plum_bench::ablation::print_ablate_metric(&plum_bench::ablation::ablate_metric(
                scale, &procs,
            ));
            println!();
            plum_bench::multicycle::print_multicycle(&plum_bench::multicycle::multicycle(
                scale,
                if quick { 8 } else { 32 },
                if quick { 3 } else { 5 },
            ));
        }
        other => {
            eprintln!(
                "unknown experiment '{other}'; use table1|table2|fig4|fig5|fig6|fig6_slow|fig6_mild|weakscale|rematch|hotspot|dual|cascade|fig7|fig8|ablation|multicycle|all"
            );
            std::process::exit(2);
        }
    }
}
