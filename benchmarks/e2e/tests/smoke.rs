//! End-to-end smoke tests of the `plum-e2e` binary on the `--smoke` shapes
//! (P <= 16, N <= 2k): all commands run clean and emit exactly the names
//! `BENCHMARK.json` declares.

use std::path::PathBuf;
use std::process::{Command, Output};

fn plum_e2e(test: &str, args: &[&str]) -> (Output, PathBuf) {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test);
    let output = Command::new(env!("CARGO_BIN_EXE_plum-e2e"))
        .args(args)
        .arg("--smoke")
        .arg("--out")
        .arg(&out_dir)
        .output()
        .expect("plum-e2e starts");
    (output, out_dir)
}

fn stdout(output: &Output) -> String {
    assert!(
        output.status.success(),
        "exit {:?}\nstdout: {}\nstderr: {}",
        output.status,
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout.clone()).expect("utf-8 output")
}

/// The quoted strings that follow `"name": ` in `text`.
fn names_in(text: &str) -> Vec<String> {
    text.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest.split('"').next().unwrap().to_string())
        .collect()
}

/// `(workloads, end_to_end, per_layer)` names declared by the manifest.
fn declared() -> (Vec<String>, Vec<String>, Vec<String>) {
    let manifest = Command::new(env!("CARGO_BIN_EXE_plum-e2e"))
        .arg("manifest")
        .output()
        .unwrap();
    let text = stdout(&manifest);
    let (head, per_layer) = text.split_once("\"per_layer\"").unwrap();
    let (head, end_to_end) = head.split_once("\"end_to_end\"").unwrap();
    let (_, workloads) = head.split_once("\"workloads\"").unwrap();
    (
        names_in(workloads),
        names_in(end_to_end),
        names_in(per_layer),
    )
}

/// The metric names of a driver-contract result line, in order.
fn result_metrics(line: &str) -> Vec<String> {
    let (_, metrics) = line.split_once("\"metrics\": {").expect("a metrics object");
    metrics
        .split(": {\"value\": ")
        .filter_map(|before| before.rsplit('"').nth(1).map(str::to_string))
        .take(metrics.matches(": {\"value\": ").count())
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn run_prints_every_end_to_end_metric_of_every_workload() {
    let (workloads, end_to_end, _) = declared();
    let (output, out_dir) = plum_e2e("run", &["run", "--runs", "2"]);
    let text = stdout(&output);
    assert_eq!(workloads.len(), 4);
    for w in &workloads {
        assert!(
            text.contains(&format!("workload {w} ")),
            "{w} missing:\n{text}"
        );
    }
    for m in end_to_end
        .iter()
        .map(String::as_str)
        .chain(["op_fail_share"])
    {
        assert_eq!(
            text.matches(&format!("  {m} ")).count(),
            4,
            "{m} once per workload:\n{text}"
        );
    }
    assert_eq!(text.matches(" 0 failed / ").count(), 4, "{text}");
    assert!(text.trim_end().ends_with("OK: 0 failed ops"));
    let json = std::fs::read_to_string(out_dir.join("run-seed0.json")).unwrap();
    for key in [
        "\"nproc\"",
        "\"cpu_model\"",
        "\"kernel\"",
        "\"rustc\"",
        "\"git_sha\"",
        "\"seed\"",
    ] {
        assert!(json.contains(key), "environment block lacks {key}");
    }
}

#[test]
fn bench_emits_exactly_the_declared_metrics() {
    let (workloads, end_to_end, per_layer) = declared();
    assert!(workloads.len() <= 8 && end_to_end.len() <= 16 && per_layer.len() <= 128);
    assert!(workloads
        .iter()
        .chain(&end_to_end)
        .chain(&per_layer)
        .all(|n| valid_name(n)));
    let mut ran_somewhere = vec![false; per_layer.len()];
    for w in &workloads {
        for (trace, want) in [("0", &end_to_end), ("1", &per_layer)] {
            let args = [
                "bench",
                "--workload",
                w,
                "--seed",
                "3",
                "--seconds",
                "0.2",
                "--trace",
                trace,
            ];
            let (output, out_dir) = plum_e2e("bench", &args);
            let text = stdout(&output);
            let line = text.lines().last().unwrap();
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
            assert!(line.contains("\"failed\": 0, "), "{line}");
            assert_eq!(&result_metrics(line), want, "{w} --trace {trace}");
            if trace == "1" {
                for (i, name) in per_layer.iter().enumerate() {
                    ran_somewhere[i] |= !line.contains(&format!("\"{name}\": {{\"value\": 0, "));
                }
                let spans =
                    std::fs::read_to_string(out_dir.join(format!("{w}-seed3.trace.json"))).unwrap();
                assert!(
                    spans.contains("\"name\":\"core.cycle\"")
                        && spans.contains(&format!("\"workload\":\"{w}\""))
                );
            }
        }
    }
    // A declared metric that reads 0 everywhere is a name nothing emits.
    let silent: Vec<&String> = per_layer
        .iter()
        .zip(&ran_somewhere)
        .filter(|(_, &r)| !r)
        .map(|(n, _)| n)
        .collect();
    assert!(
        silent.is_empty(),
        "never measured on any workload: {silent:?}"
    );
}

#[test]
fn trace_emits_the_workload_specific_layers_too() {
    let (output, out_dir) = plum_e2e("trace", &["trace", "--runs", "1"]);
    let text = stdout(&output);
    for name in [
        "core.method.multilevel.wall_s",
        "core.method.voronoi.imbalance_after",
        "core.scale.p4096.cycle_wall_s",
        "reassign.optimal_bmcm.us",
        "adapt.coarsen.s",
    ] {
        assert!(text.contains(name), "{name} missing:\n{text}");
    }
    assert!(text.trim_end().ends_with("OK"));
    assert!(out_dir.join("trace-seed0.json").exists());
}

#[test]
fn the_seed_reaches_the_inputs_and_virtual_metrics_repeat() {
    let virtuals = |seed: &str| {
        let args = [
            "bench",
            "--workload",
            "cascade_p64",
            "--seed",
            seed,
            "--seconds",
            "0.1",
            "--trace",
            "0",
        ];
        let text = stdout(&plum_e2e("seed", &args).0);
        let line = text.lines().last().unwrap().to_string();
        let (_, tail) = line.split_once("\"virtual_makespan_s\"").unwrap();
        tail.to_string()
    };
    let baseline = virtuals("0");
    assert_eq!(
        baseline,
        virtuals("0"),
        "virtual metrics are bit-identical run to run"
    );
    assert_eq!(baseline, virtuals("16"), "seeds map to sixteen inputs");
    assert_ne!(
        baseline,
        virtuals("5"),
        "the held-out seed changes the inputs"
    );
}

#[test]
fn bad_usage_exits_non_zero_without_a_result() {
    for args in [
        &["bench", "--workload", "nope"][..],
        &["frobnicate"],
        &["child", "timed", "--dims=1"],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_plum-e2e"))
            .args(args)
            .output()
            .unwrap();
        assert!(
            !output.status.success() && output.stdout.is_empty(),
            "{args:?}"
        );
    }
}
