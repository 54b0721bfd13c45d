//! Human-readable tables and the JSON files / lines the commands emit.

use std::collections::BTreeMap;

use crate::harness::{quartiles, WorkloadRuns};
use crate::metrics::{unit_of, Clock, END_TO_END, OP_FAIL_SHARE, PER_LAYER};
use crate::workload::WORKLOADS;

pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"name": {"value": v, "unit": "u"}, ...}` with every digit of `v`.
pub fn metrics_json(metrics: &[(String, f64, &str)]) -> String {
    let rows: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", rows.join(", "))
}

pub fn env_json(env: &[(&str, String)]) -> String {
    let rows: Vec<String> = env
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    format!("{{{}}}", rows.join(", "))
}

/// The table `plum-e2e run` prints for one workload: every end-to-end
/// metric by name with its clock and unit, timings as median [q1, q3] n.
pub fn print_workload(w: &WorkloadRuns) {
    let (attempted, failed) = w.ops();
    println!("workload {}  ({} cycles per run)", w.name, w.ncycles());
    for m in &END_TO_END {
        let s = w.samples(m.name);
        if s.is_empty() {
            println!("  {:<20} {:<8} no healthy run", m.name, m.clock.name());
            continue;
        }
        let q = quartiles(&s);
        let detail = match m.clock {
            Clock::Host => format!("[{:.4}, {:.4}] n={}", q.q1, q.q3, q.n),
            Clock::Virtual => format!("bit-identical across {} runs", w.timed.len() + 1),
        };
        println!(
            "  {:<20} {:<8} {:>12.6} {:<6} {detail}",
            m.name,
            m.clock.name(),
            q.median,
            m.unit
        );
    }
    println!(
        "  {:<20} {:<8} {:>12.6} {:<6} {failed} failed / {attempted} attempted cycles",
        OP_FAIL_SHARE,
        "-",
        failed as f64 / attempted as f64,
        unit_of(OP_FAIL_SHARE),
    );
    for (cycle, what) in &w.verify.violations {
        println!("  ! verify pass, cycle {cycle}: {what}");
    }
}

pub fn print_noise_discipline(warmup: usize, runs: usize) {
    println!(
        "# every run is a fresh single-threaded process, one at a time; per workload: verify pass, \
         {warmup} warm-up, {runs} measured runs back to back"
    );
    println!(
        "# timings are median [q1, q3] n; n={runs} is too few samples for a tail percentile, so none is reported"
    );
}

/// One set of runs as JSON: per workload, the samples and quartiles of
/// every end-to-end metric plus the op counts.
pub fn set_json(set: &[WorkloadRuns]) -> String {
    let workloads: Vec<String> = set
        .iter()
        .map(|w| {
            let (attempted, failed) = w.ops();
            let metrics: Vec<String> = END_TO_END
                .iter()
                .filter_map(|m| {
                    let s = w.samples(m.name);
                    if s.is_empty() {
                        return None;
                    }
                    let q = quartiles(&s);
                    let samples: Vec<String> = s.iter().map(f64::to_string).collect();
                    Some(format!(
                        "{}: {{\"clock\": \"{}\", \"unit\": \"{}\", \"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}, \"samples\": [{}]}}",
                        json_str(m.name),
                        m.clock.name(),
                        m.unit,
                        q.median,
                        q.q1,
                        q.q3,
                        q.n,
                        samples.join(", ")
                    ))
                })
                .collect();
            format!(
                "    {}: {{\"attempted\": {attempted}, \"failed\": {failed}, \"{OP_FAIL_SHARE}\": {}, \"metrics\": {{\n      {}\n    }}}}",
                json_str(w.name),
                failed as f64 / attempted as f64,
                metrics.join(",\n      ")
            )
        })
        .collect();
    format!("{{\n{}\n  }}", workloads.join(",\n"))
}

/// Per-layer metrics grouped by layer (the crate name before the first dot).
pub fn print_layers(workload: &str, metrics: &BTreeMap<String, f64>) {
    println!("workload {workload}  (traced run; per-layer, never gated)");
    let mut layer = "";
    for (name, value) in metrics {
        let this = name.split('.').next().unwrap_or("");
        if this != layer {
            layer = this;
            println!("  [{layer}]");
        }
        println!("    {name:<42} {value:>16.6} {}", unit_of(name));
    }
}

pub fn layers_json(per_workload: &[(&str, BTreeMap<String, f64>)]) -> String {
    let rows: Vec<String> = per_workload
        .iter()
        .map(|(w, metrics)| {
            let list: Vec<(String, f64, &str)> = metrics
                .iter()
                .map(|(n, v)| (n.clone(), *v, unit_of(n)))
                .collect();
            format!("    {}: {}", json_str(w), metrics_json(&list))
        })
        .collect();
    format!("{{\n{}\n  }}", rows.join(",\n"))
}

/// The workload table, the metric glossary and the written-down predictions
/// (README.md carries the same tables).
pub fn print_glossary() {
    println!("workloads (closed loop, one client, one fresh single-threaded process per run):");
    for w in &WORKLOADS {
        println!("  {:<16} {}", w.name, w.why);
    }
    println!("\nend-to-end metrics (all lower-is-better):");
    for m in &END_TO_END {
        let exact = match m.clock {
            Clock::Host => "",
            Clock::Virtual => " (bit-identical on one seed)",
        };
        println!(
            "  {:<20} {:<8} {:<6} bound {:>2.0}%{exact}  {}",
            m.name,
            m.clock.name(),
            m.unit,
            m.bound * 100.0,
            m.what
        );
    }
    println!(
        "  {OP_FAIL_SHARE:<20} {:<8} {:<6} any increase  failed cycles / attempted cycles",
        "-", "ratio"
    );
    println!(
        "\nper-layer metrics (traced run, never gated) -> the end-to-end metric each should move:"
    );
    for l in &PER_LAYER {
        println!(
            "  {:<42} {:<6} {:<7} -> {}",
            l.name, l.unit, l.better, l.moves
        );
    }
}
