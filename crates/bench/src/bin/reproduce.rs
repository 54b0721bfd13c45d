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
//! regime, where the policy must select SFC diffusion and its
//! partition phase must stay a small fraction of the multilevel kernel's —
//! the companion regression gate to the heavy fig6 cycle.
//!
//! `fig6 --chaos <seed>` runs the chaos recovery experiment instead: one
//! rank is slowed 2× (which rank depends on the seed, as does the link
//! jitter), and the capacity-weighted balancer must recover ≥ 80% of the
//! effective-imbalance gap within three adaption cycles. On failure the
//! last cycle's session trace is written to
//! `chaos-failure-seed-<seed>.json` and the process exits nonzero — this is
//! the nightly CI seed matrix. The fig6, hotspot and rematch recovery runs
//! share one driver (`plum_bench::chaos`) and print the same per-cycle
//! table.
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
//!
//! A flag the experiment would not use — `--chaos` outside fig6, hotspot
//! and rematch, `--trace` outside fig6 or beside `--chaos` — exits 2 with a
//! message, like an unknown flag or experiment. So does a report or trace
//! path that cannot be written: every output is checked before the
//! experiment starts, and an existing file is left as it is until the run
//! has its contents.

use plum_bench::*;

/// Experiments that write a BENCH report, `BENCH_<experiment>.json` unless
/// `--bench` names another path (none under `--chaos`).
const BENCH_EXPERIMENTS: &str =
    "fig5 fig6 fig6_slow fig6_mild weakscale rematch hotspot dual cascade";

/// The parsed command line.
#[derive(Default)]
struct Args {
    what: String,
    quick: bool,
    trace_path: Option<String>,
    /// The BENCH report this run writes, if any.
    bench_path: Option<String>,
    chaos_seed: Option<u64>,
}

impl Args {
    /// Every file the run writes (a chaos failure's artifact aside).
    fn outputs(&self) -> Vec<String> {
        let trace = self
            .trace_path
            .iter()
            .flat_map(|p| [p.clone(), text_path(p)]);
        self.bench_path.iter().cloned().chain(trace).collect()
    }
}

/// The plain-text timeline written next to a Chrome trace: `foo.json` →
/// `foo.txt`, any other name gains `.txt`.
fn text_path(trace_path: &str) -> String {
    match trace_path.strip_suffix(".json") {
        Some(stem) => format!("{stem}.txt"),
        None => format!("{trace_path}.txt"),
    }
}

/// `args`, once every file the run writes is known to be writable. Each
/// is opened for appending, so an existing file keeps its contents, and one
/// the check created is removed again.
fn check_outputs(args: Args) -> Result<Args, String> {
    for path in args.outputs() {
        let fail = |e| format!("cannot write {path}: {e}");
        let existed = std::path::Path::new(&path).exists();
        let mut open = std::fs::OpenOptions::new();
        open.append(true).create(true).open(&path).map_err(fail)?;
        if !existed {
            std::fs::remove_file(&path).map_err(fail)?;
        }
    }
    Ok(args)
}

/// Parse the arguments after the program name. A flag that does not apply
/// to the experiment is an error, not a silent no-op: `--chaos` runs only
/// under fig6, hotspot and rematch, `--trace` only under a plain fig6, and
/// `--bench` only under an experiment that writes a BENCH report, without
/// `--chaos`.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args::default();
    let mut what = None;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => parsed.quick = true,
            "--trace" => {
                let path = args.next().ok_or("--trace needs a path argument")?;
                parsed.trace_path = Some(path.clone());
            }
            "--bench" => {
                let path = args.next().ok_or("--bench needs a path argument")?;
                parsed.bench_path = Some(path.clone());
            }
            "--chaos" => {
                let seed = args.next().and_then(|s| s.parse().ok());
                parsed.chaos_seed = Some(seed.ok_or("--chaos needs an integer seed argument")?);
            }
            a if !a.starts_with("--") && what.is_none() => what = Some(a.to_string()),
            a => return Err(format!("unknown flag '{a}'")),
        }
    }
    parsed.what = what.unwrap_or_else(|| "all".to_string());
    let what = parsed.what.as_str();
    if parsed.chaos_seed.is_some() && !matches!(what, "fig6" | "hotspot" | "rematch") {
        return Err(format!(
            "--chaos applies only to fig6, hotspot and rematch, not '{what}'"
        ));
    }
    if parsed.trace_path.is_some() && (what != "fig6" || parsed.chaos_seed.is_some()) {
        return Err("--trace applies only to fig6 without --chaos".to_string());
    }
    let writes_bench =
        BENCH_EXPERIMENTS.split(' ').any(|e| e == what) && parsed.chaos_seed.is_none();
    if parsed.bench_path.is_some() && !writes_bench {
        return Err(format!(
            "--bench applies only to a run writing a BENCH report ({BENCH_EXPERIMENTS}), \
             without --chaos"
        ));
    }
    let bench_path = parsed.bench_path.take();
    parsed.bench_path =
        writes_bench.then(|| bench_path.unwrap_or_else(|| format!("BENCH_{what}.json")));
    Ok(parsed)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Args {
        what,
        quick,
        trace_path,
        bench_path,
        chaos_seed,
    } = parse_args(&args)
        .and_then(check_outputs)
        .unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        });
    let scale = if quick { Scale::Quick } else { Scale::Paper };

    eprintln!(
        "# scale: {scale:?} (~{} initial elements), procs {:?}",
        scale.elements(),
        scale.procs()
    );

    // The chaos recovery runs replace their experiment's normal run. A
    // failed recovery writes the last cycle's session trace to the
    // artifact the nightly job uploads and exits 1.
    if let Some(seed) = chaos_seed {
        eprintln!("# running the {what} chaos recovery experiment (seed {seed})…");
        let (run, tag) = match what.as_str() {
            "rematch" => (rematch::rematch_chaos_recovery(seed), "rematch-"),
            "hotspot" => (chaos::hotspot_chaos_recovery(scale, seed), "hotspot-"),
            _ => (chaos::chaos_recovery(scale, seed), ""),
        };
        chaos::print_chaos(&what, &run);
        if !run.recovered {
            let artifact = format!("chaos-failure-{tag}seed-{seed}.json");
            std::fs::write(&artifact, run.trace_json).expect("write failure trace");
            eprintln!("# recovery FAILED; wrote session trace to {artifact}");
            std::process::exit(1);
        }
        return;
    }

    let needs_sweep = matches!(what.as_str(), "fig4" | "fig5" | "fig6" | "fig8" | "all");
    let sw = if needs_sweep {
        eprintln!("# running the adaption-cycle sweep (3 cases × 2 policies × P)…");
        Some(sweep(scale))
    } else {
        None
    };

    let write_bench = |report: &plum_obs::BenchReport| {
        let path = bench_path
            .as_deref()
            .expect("the experiment writes a BENCH report");
        report
            .validate()
            .expect("BENCH report must be schema-valid");
        std::fs::write(path, report.to_json()).expect("write BENCH report");
        eprintln!("# wrote {path}");
    };

    // Run on their own and as the tail of `all`.
    let run_ablation = || {
        use plum_bench::ablation::*;
        print_ablate_f(&ablate_f(scale, if quick { 8 } else { 16 }, &[1, 2, 4]));
        println!();
        let procs: Vec<usize> = scale.procs().iter().copied().filter(|&p| p > 1).collect();
        print_ablate_seeding(&ablate_seeding(scale, &procs));
        println!();
        print_ablate_metric(&ablate_metric(scale, &procs));
    };
    let run_multicycle = || {
        let (nproc, cycles) = if quick { (8, 3) } else { (32, 5) };
        multicycle::print_multicycle(&multicycle::multicycle(scale, nproc, cycles));
    };

    match what.as_str() {
        "table1" => print_table1(&table1(scale)),
        "table2" => print_table2(&table2(scale)),
        "fig4" => print_fig4(sw.as_ref().unwrap()),
        "fig5" => {
            let sw = sw.as_ref().unwrap();
            print_fig5(sw);
            write_bench(&report::fig5_bench(sw, scale));
        }
        "fig6" => {
            print_fig6(sw.as_ref().unwrap());
            if let Some(path) = &trace_path {
                let nproc = scale.procs().last().copied().unwrap().min(8);
                eprintln!("# building the per-rank cycle trace at P={nproc}…");
                let (json, text) = fig6_trace(scale, nproc);
                std::fs::write(path, json).expect("write chrome trace");
                let text_path = text_path(path);
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
            write_bench(&bench);
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
            write_bench(&bench);
        }
        "fig6_mild" => {
            eprintln!(
                "# running the mild-imbalance portfolio cycle at P={}…",
                report::FIG6_BENCH_NPROC
            );
            let (bench, analysis) = report::fig6_mild_bench(scale);
            print!("{analysis}");
            write_bench(&bench);
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
            write_bench(&bench);
        }
        "rematch" => {
            eprintln!(
                "# running the global-vs-local rematch at P in {:?}…",
                rematch::REMATCH_PROCS
            );
            let (bench, analysis) = rematch::rematch_bench();
            print!("{analysis}");
            write_bench(&bench);
        }
        "hotspot" => {
            eprintln!(
                "# running the measured-cost hotspot scenario at P={}…",
                scenarios::SCENARIO_NPROC
            );
            let (bench, analysis) = scenarios::hotspot_bench(scale);
            print!("{analysis}");
            write_bench(&bench);
        }
        "dual" => {
            eprintln!(
                "# running the dual-constraint scenario at P={}…",
                scenarios::SCENARIO_NPROC
            );
            let (bench, analysis) = scenarios::dual_bench(scale);
            print!("{analysis}");
            write_bench(&bench);
        }
        "cascade" => {
            eprintln!(
                "# running the coarsening cascade at P={}…",
                scenarios::CASCADE_NPROC
            );
            let (bench, analysis) = scenarios::cascade_bench(scale);
            print!("{analysis}");
            write_bench(&bench);
        }
        "fig7" => {
            print_fig7(&paper_growths());
        }
        "fig8" => print_fig8(sw.as_ref().unwrap()),
        "multicycle" => run_multicycle(),
        "ablation" => run_ablation(),
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
            run_ablation();
            println!();
            run_multicycle();
        }
        other => {
            eprintln!(
                "unknown experiment '{other}'; use table1|table2|fig4|fig5|fig6|fig6_slow|fig6_mild|weakscale|rematch|hotspot|dual|cascade|fig7|fig8|ablation|multicycle|all"
            );
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&args)
    }

    /// The flags parse where they apply and are rejected where they would
    /// be ignored, as are unknown and incomplete flags.
    #[test]
    fn flags_apply_only_where_they_are_used() {
        let fig6 = parse("fig6 --chaos 3 --quick").unwrap();
        assert_eq!(
            (fig6.what.as_str(), fig6.chaos_seed, fig6.quick),
            ("fig6", Some(3), true)
        );
        for ok in [
            "hotspot --chaos 0",
            "rematch --chaos 1",
            "fig6 --trace t.json",
            "--quick",
            "cascade --bench b.json",
        ] {
            assert!(parse(ok).is_ok(), "{ok}");
        }
        assert_eq!(parse("").unwrap().what, "all");
        for bad in [
            "cascade --chaos 3",
            "all --chaos 3",
            "table2 --trace t.json",
            "fig6 --chaos 3 --trace t.json",
            "table1 --bench b.json",
            "all --bench b.json",
            "fig6 --chaos 3 --bench b.json",
            "fig6 --chaos x",
            "fig6 --trace",
            "fig6 --frobnicate",
            "fig6 fig8",
        ] {
            assert!(parse(bad).is_err(), "{bad} must be rejected");
        }
    }

    /// Every path the run writes is known after parsing, and one that
    /// cannot be written is refused before the experiment starts, with no
    /// file created or truncated.
    #[test]
    fn outputs_are_checked_before_the_run() {
        let outputs = |line: &str| parse(line).unwrap().outputs();
        assert_eq!(
            outputs("fig6 --quick --bench b.json --trace t.json"),
            ["b.json", "t.json", "t.txt"]
        );
        assert_eq!(outputs("cascade"), ["BENCH_cascade.json"]);
        assert_eq!(outputs("fig6 --trace t"), ["BENCH_fig6.json", "t", "t.txt"]);
        for none in ["all", "table1", "fig6 --chaos 3", "rematch --chaos 0"] {
            assert!(outputs(none).is_empty(), "{none}");
        }

        let dir = std::env::temp_dir().join(format!("reproduce-outputs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
        let check = |line: String| check_outputs(parse(&line).unwrap()).map(|_| ());
        let missing = path("no-such-dir/b.json");
        let err = check(format!("fig6 --quick --bench {missing}")).unwrap_err();
        assert!(
            err.starts_with(&format!("cannot write {missing}: ")),
            "{err}"
        );
        let err = check(format!("fig6 --trace {}", path("no-such-dir/t.json"))).unwrap_err();
        assert!(err.contains("no-such-dir/t.json"), "{err}");
        let err = check(format!("dual --bench {}", path(""))).unwrap_err();
        assert!(err.starts_with("cannot write"), "a directory: {err}");

        let fresh = path("fresh.json");
        check(format!("dual --bench {fresh}")).unwrap();
        assert!(
            !std::path::Path::new(&fresh).exists(),
            "the check leaves no file"
        );
        let kept = path("kept.json");
        std::fs::write(&kept, "committed").unwrap();
        check(format!("dual --bench {kept}")).unwrap();
        assert_eq!(std::fs::read_to_string(&kept).unwrap(), "committed");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
