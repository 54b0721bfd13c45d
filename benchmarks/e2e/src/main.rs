//! `plum-e2e`: the two-clock benchmark of the plum simulator.
//!
//! * `run`   — every end-to-end metric of every workload, outputs checked;
//!   `--check` runs two sets back to back and compares them.
//! * `trace` — the traced run: per-layer metrics and a span file.
//! * `bench` — one workload for a fixed time, one JSON line (the driver
//!   contract of `BENCHMARK.json`).
//! * `glossary` — the workload table, metric definitions and predictions.
//! * `manifest` — print the canonical `BENCHMARK.json`.
//! * `child` — internal: one run in this process.
//!
//! Linux only (reads `/proc`). See README.md.

mod child;
mod harness;
mod layers;
mod metrics;
mod report;
mod span;
mod sys;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use harness::{disagreements, quartiles, spawn, ChildOut, Mode, WorkloadRuns};
use metrics::{END_TO_END, PER_LAYER};
use workload::{method_sweep_spec, scale_probe_spec, Spec, METHODS, WORKLOADS};

const USAGE: &str = "\
usage: plum-e2e run   [--seed S] [--runs N] [--workload W] [--check] [--smoke] [--out DIR]
       plum-e2e trace [--seed S] [--runs N] [--workload W] [--smoke] [--out DIR]
       plum-e2e bench --workload W --seed S --seconds T --trace 0|1 [--smoke] [--out DIR]
       plum-e2e glossary | manifest";

struct Opts {
    seed: u64,
    runs: Option<usize>,
    workload: Option<String>,
    check: bool,
    smoke: bool,
    out: PathBuf,
    seconds: f64,
    trace: bool,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        seed: 0,
        runs: None,
        workload: None,
        check: false,
        smoke: false,
        out: PathBuf::from("benchmarks/e2e/out"),
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let (key, inline) = match arg.split_once('=') {
            Some((k, v)) => (k, Some(v.to_string())),
            None => (arg.as_str(), None),
        };
        let mut value = || {
            inline
                .clone()
                .or_else(|| it.next().cloned())
                .ok_or(format!("{key} wants a value"))
        };
        match key {
            "--check" => o.check = true,
            "--smoke" => o.smoke = true,
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--runs" => o.runs = Some(value()?.parse().map_err(|e| format!("--runs: {e}"))?),
            "--seconds" => o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--out" => o.out = PathBuf::from(value()?),
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got {other}")),
                }
            }
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.iter().any(|k| k.name == w) {
                    return Err(format!("unknown workload {w}"));
                }
                o.workload = Some(w);
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    if o.runs == Some(0) || !(o.seconds > 0.0 && o.seconds <= 3600.0) {
        return Err("--runs and --seconds must be positive".into());
    }
    Ok(o)
}

/// The selected workloads with their generated inputs.
fn selected(o: &Opts) -> Vec<(&'static str, Spec)> {
    WORKLOADS
        .iter()
        .filter(|w| o.workload.as_deref().is_none_or(|only| only == w.name))
        .map(|w| {
            (
                w.name,
                workload::spec(w.name, o.seed, o.smoke).expect("table workload"),
            )
        })
        .collect()
}

fn write_out(o: &Opts, file: &str, text: &str) -> Result<(), String> {
    let path = o.out.join(file);
    std::fs::create_dir_all(&o.out)
        .and_then(|()| std::fs::write(&path, text))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("# wrote {}", path.display());
    Ok(())
}

const WARMUP: usize = 1;

/// One set: per workload, a verify pass, a warm-up run, then the measured
/// timed runs, all back to back. Workloads are not interleaved: a run's
/// page-fault cost depends on how recently the machine freed that much
/// memory, and `weak_p2048` (1 GB) measured 1.1 s per cycle back to back but
/// 1.45-1.6 s, with three times the spread, when the other workloads ran in
/// between. `bench` measures the same way.
fn run_set(o: &Opts, runs: usize) -> Vec<WorkloadRuns> {
    selected(o)
        .into_iter()
        .map(|(name, spec)| {
            eprintln!("# {name}: verify pass, {WARMUP} warm-up, {runs} measured runs");
            let verify = spawn(&spec, Mode::Verify);
            let timed: Vec<ChildOut> = (0..WARMUP + runs)
                .map(|_| spawn(&spec, Mode::Timed))
                .skip(WARMUP)
                .collect();
            WorkloadRuns {
                name,
                spec,
                verify,
                layers: None,
                timed,
            }
        })
        .collect()
}

fn cmd_run(o: &Opts) -> Result<bool, String> {
    let runs = o.runs.unwrap_or(7);
    let mut sets = Vec::new();
    for set in 0..if o.check { 2 } else { 1 } {
        if o.check {
            println!("== set {} of 2 ==", set + 1);
        }
        let s = run_set(o, runs);
        s.iter().for_each(report::print_workload);
        sets.push(s);
    }
    report::print_noise_discipline(WARMUP, runs);

    let failed: usize = sets.iter().flatten().map(|w| w.ops().1).sum();
    let mut ok = failed == 0 && sets.iter().flatten().all(|w| w.medians().is_some());
    let mut check_json = String::new();
    if o.check {
        let diffs = disagreements(&sets[0], &sets[1]);
        if diffs.is_empty() {
            println!("check: PASS — both sets agree within every metric's bound; virtual metrics bit-identical");
        } else {
            println!("check: FAIL");
            diffs.iter().for_each(|d| println!("  {d}"));
            ok = false;
        }
        let list: Vec<String> = diffs.iter().map(|d| report::json_str(d)).collect();
        check_json = format!(",\n  \"check_disagreements\": [{}]", list.join(", "));
    }
    let sets_json: Vec<String> = sets.iter().map(|s| report::set_json(s)).collect();
    let json = format!(
        "{{\n  \"schema\": \"plum-e2e/run/v1\",\n  \"environment\": {},\n  \"smoke\": {},\n  \
         \"runs_per_workload\": {runs},\n  \"warmup_runs\": {WARMUP},\n  \"sets\": [\n  {}\n  ]{check_json}\n}}\n",
        report::env_json(&sys::environment(o.seed)),
        o.smoke,
        sets_json.join(",\n  ")
    );
    write_out(o, &format!("run-seed{}.json", o.seed), &json)?;
    println!("{}: {failed} failed ops", if ok { "OK" } else { "FAILED" });
    Ok(ok)
}

/// Per-layer metrics of one traced run: what the verify and layers passes
/// measured, the process counters of the untraced runs (medians, per cycle
/// where the name says `cycle`), and the traced cycle time against theirs.
fn layer_metrics(w: &WorkloadRuns) -> BTreeMap<String, f64> {
    let mut m = w.verify.layers.clone();
    m.extend(w.layers.iter().flat_map(|l| l.layers.clone()));
    let healthy: Vec<&ChildOut> = w.timed.iter().filter(|c| c.ok).collect();
    if healthy.is_empty() {
        return m;
    }
    let median = |f: &dyn Fn(&ChildOut) -> f64| {
        quartiles(&healthy.iter().map(|c| f(c)).collect::<Vec<_>>()).median
    };
    let cycles = w.ncycles() as f64;
    for key in ["cpu_user_s", "cpu_sys_s", "minflt"] {
        m.insert(
            format!("core.cycle.{key}"),
            median(&|c| c.scalar(key)) / cycles,
        );
    }
    m.insert(
        "core.cycle.rss_growth_mb".into(),
        median(&|c| c.scalar("rss_growth_mb")),
    );
    m.insert(
        "core.drop.rss_retained_mb".into(),
        median(&|c| c.scalar("rss_retained_mb")),
    );
    if let Some(traced) = m.get("core.cycle.wall_s").copied() {
        let untraced = median(&ChildOut::cycle_wall_mean);
        m.insert(
            "core.tracing_overhead_share".into(),
            traced / untraced - 1.0,
        );
    }
    m
}

fn span_file(w: &WorkloadRuns) -> String {
    let layers = w.layers.as_ref().map_or(&[][..], |l| &l.spans);
    span::chrome_json(w.name, &[("verify", &w.verify.spans), ("layers", layers)])
}

fn cmd_trace(o: &Opts) -> Result<bool, String> {
    let runs = o.runs.unwrap_or(3);
    let mut ok = true;
    let mut all = Vec::new();
    for (name, spec) in selected(o) {
        eprintln!("# {name}: verify pass, layers pass, {runs} untraced runs");
        let verify = spawn(&spec, Mode::Verify);
        let layers = Some(spawn(&spec, Mode::Layers));
        let timed: Vec<ChildOut> = (0..runs).map(|_| spawn(&spec, Mode::Timed)).collect();
        let w = WorkloadRuns {
            name,
            spec,
            verify,
            layers,
            timed,
        };
        let mut m = layer_metrics(&w);

        if name == "multilevel_p256" {
            for method in METHODS {
                eprintln!("# {name}: method sweep, {}", method.name());
                let c = spawn(&method_sweep_spec(method, o.seed, o.smoke), Mode::Timed);
                ok &= c.ok;
                if let Some(row) = c.cycles.first() {
                    let key = |what: &str| format!("core.method.{}.{what}", method.name());
                    m.insert(key("wall_s"), row.wall_s);
                    m.insert(key("virtual_partition_s"), row.partition_s);
                    m.insert(key("imbalance_after"), row.imbalance);
                }
            }
        }
        if name == "weak_p2048" {
            // One sample of a cycle whose fresh-process time varies by more
            // than a tenth: a probe, not an end-to-end workload.
            eprintln!("# {name}: scale probe (single sample, +-15%)");
            let c = spawn(&scale_probe_spec(o.seed, o.smoke), Mode::Timed);
            ok &= c.ok;
            if let Some(row) = c.cycles.first() {
                m.insert("core.scale.p4096.cycle_wall_s".into(), row.wall_s);
                m.insert("core.scale.p4096.minflt".into(), c.scalar("minflt"));
                m.insert("core.scale.p4096.rss_mb".into(), c.scalar("peak_rss_mb"));
            }
        }

        let (attempted, failed) = w.ops();
        ok &= failed == 0;
        let missing: Vec<&str> = PER_LAYER
            .iter()
            .map(|l| l.name)
            .filter(|n| !m.contains_key(*n))
            .collect();
        report::print_layers(name, &m);
        println!("  ops: {failed} failed / {attempted} attempted cycles; never ran here (read as 0): {missing:?}");
        write_out(
            o,
            &format!("{name}-seed{}.trace.json", o.seed),
            &span_file(&w),
        )?;
        all.push((name, m));
    }
    let json = format!(
        "{{\n  \"schema\": \"plum-e2e/trace/v1\",\n  \"environment\": {},\n  \"smoke\": {},\n  \"per_layer\": {}\n}}\n",
        report::env_json(&sys::environment(o.seed)),
        o.smoke,
        report::layers_json(&all)
    );
    write_out(o, &format!("trace-seed{}.json", o.seed), &json)?;
    println!("{}", if ok { "OK" } else { "FAILED" });
    Ok(ok)
}

/// The driver contract: measure one workload for `--seconds`, print one
/// JSON object as the last line of standard output. Host metrics are the
/// fastest of the window's runs (see [`WorkloadRuns::fastest`]).
fn cmd_bench(o: &Opts) -> Result<bool, String> {
    let started = Instant::now();
    if o.workload.is_none() {
        return Err("bench wants --workload".into());
    }
    let (name, spec) = selected(o).remove(0);

    // The verify pass doubles as the warm-up run.
    let verify = spawn(&spec, Mode::Verify);
    let layers = o.trace.then(|| spawn(&spec, Mode::Layers));
    // A traced run spends its time on the two passes above; an untraced one
    // measures for the whole window.
    let (window, least) = if o.trace {
        (started, 1)
    } else {
        (Instant::now(), 3)
    };
    let mut timed = Vec::new();
    while timed.len() < least || window.elapsed().as_secs_f64() < o.seconds {
        timed.push(spawn(&spec, Mode::Timed));
    }

    let w = WorkloadRuns {
        name,
        spec,
        verify,
        layers,
        timed,
    };
    let (attempted, failed) = w.ops();
    let metrics: Vec<(String, f64, &str)> = if o.trace {
        let measured = layer_metrics(&w);
        write_out(
            o,
            &format!("{name}-seed{}.trace.json", o.seed),
            &span_file(&w),
        )?;
        // A kernel that never ran on this workload reads 0.
        PER_LAYER
            .iter()
            .map(|l| {
                (
                    l.name.to_string(),
                    measured.get(l.name).copied().unwrap_or(0.0),
                    l.unit,
                )
            })
            .collect()
    } else {
        let fastest = w.fastest().ok_or("no healthy run to report")?;
        END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), fastest[m.name], m.unit))
            .collect()
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        report::metrics_json(&metrics)
    );
    Ok(true)
}

fn cmd_child(args: &[String]) -> Result<bool, String> {
    let (mode, rest) = args.split_first().ok_or("child wants a mode")?;
    let spec = Spec::from_args(rest)?;
    match mode.as_str() {
        "timed" => child::run_timed(&spec),
        "verify" => child::run_verify(&spec),
        "layers" => layers::run_layers(&spec),
        other => return Err(format!("unknown child mode {other}")),
    }
    Ok(true)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match command.as_str() {
        "child" => cmd_child(rest),
        "glossary" => {
            report::print_glossary();
            Ok(true)
        }
        "manifest" => {
            print!("{}", metrics::manifest());
            Ok(true)
        }
        "run" | "trace" | "bench" => parse_opts(rest).and_then(|o| match command.as_str() {
            "run" => cmd_run(&o),
            "trace" => cmd_trace(&o),
            _ => cmd_bench(&o),
        }),
        _ => Err(format!("unknown command {command}")),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("plum-e2e: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
