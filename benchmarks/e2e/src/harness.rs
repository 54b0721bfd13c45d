//! The parent side: spawns one fresh child process per run, reads its
//! records, checks every run against the verify pass, and aggregates.
//! Closed loop, one client: the next child starts when the previous ended.

use std::collections::BTreeMap;
use std::process::Command;

use crate::metrics::{Clock, END_TO_END};
use crate::span::Span;
use crate::workload::Spec;

/// The scalars a child prints per cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct CycleRow {
    pub wall_s: f64,
    pub makespan_s: f64,
    pub imbalance: f64,
    pub partition_s: f64,
    pub elements: u64,
    pub hash: String,
}

impl CycleRow {
    /// The bit-reproducible part: equal across runs of the same inputs.
    fn virtual_key(&self) -> (u64, u64, u64, u64, &str) {
        (
            self.makespan_s.to_bits(),
            self.imbalance.to_bits(),
            self.partition_s.to_bits(),
            self.elements,
            &self.hash,
        )
    }
}

/// Everything one child printed.
#[derive(Debug, Clone, Default)]
pub struct ChildOut {
    /// Exit code 0, well-formed records, and every scalar its mode owes.
    pub ok: bool,
    /// The `run` record: `setup_s`, and for a timed run the peak RSS and
    /// the process counters summed over its cycles.
    pub run: BTreeMap<String, f64>,
    pub cycles: Vec<CycleRow>,
    pub layers: BTreeMap<String, f64>,
    /// `(cycle, message)` from the verify pass.
    pub violations: Vec<(usize, String)>,
    pub spans: Vec<Span>,
}

impl ChildOut {
    pub fn cycle_wall_mean(&self) -> f64 {
        self.cycles.iter().map(|c| c.wall_s).sum::<f64>() / self.cycles.len() as f64
    }

    pub fn cycle_wall_max(&self) -> f64 {
        self.cycles.iter().map(|c| c.wall_s).fold(0.0, f64::max)
    }

    pub fn makespan(&self) -> f64 {
        self.cycles.iter().map(|c| c.makespan_s).sum()
    }

    pub fn imbalance(&self) -> f64 {
        self.cycles.iter().map(|c| c.imbalance).sum::<f64>() / self.cycles.len() as f64
    }

    /// A scalar of the `run` record (0 when the mode does not print it).
    pub fn scalar(&self, key: &str) -> f64 {
        self.run.get(key).copied().unwrap_or(0.0)
    }
}

/// Parse a child's standard output. Malformed or missing records make the
/// run not-ok (every cycle of it then counts as failed); they never panic
/// the harness.
pub fn parse_child(stdout: &str, exit_ok: bool, mode: Mode) -> ChildOut {
    let mut out = ChildOut::default();
    let mut well_formed = true;
    for line in stdout.lines() {
        let mut words = line.split_whitespace();
        let Some(tag) = words.next() else { continue };
        let fields: BTreeMap<&str, &str> =
            words.clone().filter_map(|w| w.split_once('=')).collect();
        let num = |key: &str| {
            fields
                .get(key)
                .and_then(|v| v.parse::<f64>().ok())
                .filter(|v| v.is_finite())
        };
        match tag {
            "cycle" => {
                let row = (|| {
                    Some(CycleRow {
                        wall_s: num("wall_s")?,
                        makespan_s: num("makespan_s")?,
                        imbalance: num("imbalance")?,
                        partition_s: num("partition_s")?,
                        elements: fields.get("elements")?.parse().ok()?,
                        hash: fields.get("hash")?.to_string(),
                    })
                })();
                match row {
                    Some(row) => out.cycles.push(row),
                    None => well_formed = false,
                }
            }
            "run" => {
                for &key in fields.keys() {
                    match num(key) {
                        Some(v) => drop(out.run.insert(key.to_string(), v)),
                        None => well_formed = false,
                    }
                }
            }
            "layer" => {
                let name = words.next();
                let value = words.next().and_then(|v| v.parse::<f64>().ok());
                match (name, value) {
                    (Some(n), Some(v)) if v.is_finite() => {
                        out.layers.insert(n.to_string(), v);
                    }
                    _ => well_formed = false,
                }
            }
            "violation" => {
                let cycle = words.next().and_then(|c| c.parse().ok()).unwrap_or(0);
                out.violations
                    .push((cycle, words.collect::<Vec<_>>().join(" ")));
            }
            "span" => {
                let parsed = (|| {
                    let id = words.next()?.parse().ok()?;
                    let parent = match words.next()? {
                        "-" => None,
                        p => Some(p.parse().ok()?),
                    };
                    let start_us = words.next()?.parse().ok()?;
                    let end_us = words.next()?.parse().ok()?;
                    let name = words.next()?.to_string();
                    Some(Span {
                        id,
                        parent,
                        name,
                        start_us,
                        end_us,
                    })
                })();
                match parsed {
                    Some(span) => out.spans.push(span),
                    None => well_formed = false,
                }
            }
            _ => {}
        }
    }
    let complete = mode.run_scalars().iter().all(|k| out.run.contains_key(*k));
    out.ok = exit_ok && well_formed && complete && !out.cycles.is_empty();
    out
}

/// Which child to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Timed,
    Verify,
    Layers,
}

impl Mode {
    pub fn name(self) -> &'static str {
        match self {
            Mode::Timed => "timed",
            Mode::Verify => "verify",
            Mode::Layers => "layers",
        }
    }

    /// The scalars this mode's `run` record must carry.
    fn run_scalars(self) -> &'static [&'static str] {
        match self {
            Mode::Timed => &[
                "setup_s",
                "peak_rss_mb",
                "cpu_user_s",
                "cpu_sys_s",
                "minflt",
                "rss_growth_mb",
                "rss_retained_mb",
            ],
            Mode::Verify | Mode::Layers => &["setup_s"],
        }
    }
}

/// Run one child to completion in a fresh process of this same binary.
pub fn spawn(spec: &Spec, mode: Mode) -> ChildOut {
    let exe = std::env::current_exe().expect("path of the running plum-e2e binary");
    match Command::new(exe)
        .arg("child")
        .arg(mode.name())
        .args(spec.to_args())
        .output()
    {
        Ok(o) => {
            if !o.status.success() {
                let err = String::from_utf8_lossy(&o.stderr);
                let tail: Vec<&str> = err.lines().rev().take(5).collect();
                eprintln!(
                    "# {} child failed ({}): {}",
                    mode.name(),
                    o.status,
                    tail.join(" | ")
                );
            }
            parse_child(
                &String::from_utf8_lossy(&o.stdout),
                o.status.success(),
                mode,
            )
        }
        Err(e) => {
            eprintln!("# could not start the {} child: {e}", mode.name());
            ChildOut::default()
        }
    }
}

/// Failed cycles of the verify pass itself, per cycle index: a crash fails
/// them all, a violation fails its cycle.
fn verify_failures(verify: &ChildOut, ncycles: usize) -> Vec<bool> {
    if !verify.ok || verify.cycles.len() != ncycles {
        return vec![true; ncycles];
    }
    (0..ncycles)
        .map(|i| verify.violations.iter().any(|(c, _)| *c == i))
        .collect()
}

/// Failed cycles of one timed run: all of them if the child crashed or
/// printed garbage; otherwise those whose virtual scalars or assignment
/// hash differ from the verify pass, or that the verify pass itself failed.
pub fn failed_cycles(verify: &ChildOut, child: &ChildOut, ncycles: usize) -> usize {
    let bad = verify_failures(verify, ncycles);
    if !child.ok || child.cycles.len() != ncycles {
        return ncycles;
    }
    (0..ncycles)
        .filter(|&i| bad[i] || child.cycles[i].virtual_key() != verify.cycles[i].virtual_key())
        .count()
}

/// First quartile, median, third quartile (Python's
/// `statistics.quantiles(values, n=4)`, the exclusive method) and count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

pub fn quartiles(values: &[f64]) -> Quartiles {
    let mut x = values.to_vec();
    x.sort_unstable_by(f64::total_cmp);
    let n = x.len();
    assert!(n >= 1, "quartiles of no samples");
    let cut = |i: usize| {
        if n == 1 {
            return x[0];
        }
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
    };
    Quartiles {
        q1: cut(1),
        median: cut(2),
        q3: cut(3),
        n,
    }
}

/// One workload's results: the verify pass, the layers pass of a traced
/// run, and the measured timed runs.
pub struct WorkloadRuns {
    pub name: &'static str,
    pub spec: Spec,
    pub verify: ChildOut,
    pub layers: Option<ChildOut>,
    pub timed: Vec<ChildOut>,
}

impl WorkloadRuns {
    pub fn ncycles(&self) -> usize {
        self.spec.ops.len()
    }

    /// `(attempted, failed)` cycles over the verify pass and every other run.
    pub fn ops(&self) -> (usize, usize) {
        let n = self.ncycles();
        let own = verify_failures(&self.verify, n)
            .iter()
            .filter(|&&b| b)
            .count();
        let others = self.layers.iter().chain(&self.timed);
        let failed: usize = others
            .clone()
            .map(|c| failed_cycles(&self.verify, c, n))
            .sum();
        (n * (1 + others.count()), own + failed)
    }

    /// Samples of an end-to-end metric: one per healthy timed run for a
    /// host metric, the verify pass's single value for a virtual one.
    pub fn samples(&self, metric: &str) -> Vec<f64> {
        let healthy = self.timed.iter().filter(|c| c.ok);
        match metric {
            "setup_s" | "peak_rss_mb" => healthy.map(|c| c.scalar(metric)).collect(),
            "cycle_wall_s" => healthy.map(ChildOut::cycle_wall_mean).collect(),
            "cycle_wall_max_s" => healthy.map(ChildOut::cycle_wall_max).collect(),
            "virtual_makespan_s" if self.verify.ok => vec![self.verify.makespan()],
            "imbalance_after" if self.verify.ok => vec![self.verify.imbalance()],
            _ => Vec::new(),
        }
    }

    /// Median of every end-to-end metric, or `None` if any has no sample.
    pub fn medians(&self) -> Option<BTreeMap<&'static str, f64>> {
        self.summarize(|s| quartiles(s).median)
    }

    /// Smallest sample of every end-to-end metric: what `bench` reports.
    /// Interference only ever adds host time, and `weak_p2048` has a slow
    /// page-fault mode that hits single runs (its second cycle takes 1.3 s
    /// or 2.3 s): over 40 back-to-back runs the fastest of four was twice as
    /// steady as their median (`cycle_wall_max_s` spread 6 % against 13 %),
    /// and one ten-seed pass of medians reached the 25 % cap.
    pub fn fastest(&self) -> Option<BTreeMap<&'static str, f64>> {
        self.summarize(|s| s.iter().copied().fold(f64::INFINITY, f64::min))
    }

    fn summarize(&self, pick: impl Fn(&[f64]) -> f64) -> Option<BTreeMap<&'static str, f64>> {
        END_TO_END
            .iter()
            .map(|m| {
                let s = self.samples(m.name);
                (!s.is_empty()).then(|| (m.name, pick(&s)))
            })
            .collect()
    }
}

/// Differences between two sets of runs of the same code on the same seed
/// that exceed the benchmark's own bounds: host medians further apart than
/// the metric's bound, virtual metrics not bit-identical.
pub fn disagreements(a: &[WorkloadRuns], b: &[WorkloadRuns]) -> Vec<String> {
    let mut out = Vec::new();
    for (wa, wb) in a.iter().zip(b) {
        let (Some(ma), Some(mb)) = (wa.medians(), wb.medians()) else {
            out.push(format!("{}: a set has no healthy run", wa.name));
            continue;
        };
        for m in &END_TO_END {
            let (x, y) = (ma[m.name], mb[m.name]);
            let agree = match m.clock {
                Clock::Virtual => x.to_bits() == y.to_bits(),
                Clock::Host => (x - y).abs() <= m.bound * x.min(y),
            };
            if !agree {
                out.push(format!("{}: {} {x} vs {y} {}", wa.name, m.name, m.unit));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = "\
cycle i=0 wall_s=0.5 makespan_s=1.25 imbalance=1.03 partition_s=0.1 elements=100 hash=00000000000000aa
cycle i=1 wall_s=0.7 makespan_s=2.5 imbalance=1.04 partition_s=0.2 elements=200 hash=00000000000000bb
run setup_s=0.08 peak_rss_mb=120.5 cpu_user_s=1.1 cpu_sys_s=0.1 minflt=1000 rss_growth_mb=50 rss_retained_mb=20
layer core.cycle.wall_s 0.6
span 0 - 0 10.5 core.plum_new
span 1 0 1 2 inner
";

    #[test]
    fn parses_a_child() {
        let c = parse_child(GOOD, true, Mode::Timed);
        assert!(c.ok);
        assert_eq!(c.cycles.len(), 2);
        assert_eq!(c.cycles[1].hash, "00000000000000bb");
        assert_eq!(
            (c.scalar("setup_s"), c.scalar("peak_rss_mb")),
            (0.08, 120.5)
        );
        assert_eq!(c.layers["core.cycle.wall_s"], 0.6);
        assert_eq!(c.spans[1].parent, Some(0));
        assert!((c.cycle_wall_mean() - 0.6).abs() < 1e-12 && c.cycle_wall_max() == 0.7);
        assert_eq!(c.makespan(), 3.75);
    }

    #[test]
    fn a_corrupted_child_result_is_a_failed_op() {
        let timed = |text: &str, exit_ok| parse_child(text, exit_ok, Mode::Timed);
        let verify = parse_child(GOOD, true, Mode::Verify);
        assert_eq!(failed_cycles(&verify, &timed(GOOD, true), 2), 0);

        // One cycle's assignment hash differs: that op failed.
        let flipped = timed(&GOOD.replace("00bb", "00bc"), true);
        assert_eq!(failed_cycles(&verify, &flipped, 2), 1);
        // A virtual scalar differs in the last bit.
        let drifted = timed(
            &GOOD.replace("makespan_s=1.25", "makespan_s=1.2500000000000002"),
            true,
        );
        assert_eq!(failed_cycles(&verify, &drifted, 2), 1);
        // Garbage, a missing cycle or scalar, or a crash fail the whole run.
        for broken in [
            timed(&GOOD.replace("wall_s=0.5", "wall_s=NaN"), true),
            timed(&GOOD.replace("cycle i=1", "cycl i=1"), true),
            timed(&GOOD.replace("peak_rss_mb=", "peak="), true),
            timed(GOOD, false),
            timed("", true),
        ] {
            assert_eq!(failed_cycles(&verify, &broken, 2), 2);
        }
        // A verify-pass violation fails that cycle in every run.
        let violated = parse_child(
            &format!("{GOOD}violation 1 accounting: off\n"),
            true,
            Mode::Verify,
        );
        assert_eq!(failed_cycles(&violated, &timed(GOOD, true), 2), 1);

        let spec = crate::workload::spec("paper_p64", 0, true).unwrap();
        let runs = WorkloadRuns {
            name: "paper_p64",
            spec,
            verify,
            layers: None,
            timed: vec![flipped, timed(GOOD, true)],
        };
        assert_eq!(runs.ops(), (6, 1));
        assert_eq!(runs.samples("peak_rss_mb"), [120.5, 120.5]);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7], n=4) == [2.0, 4.0, 6.0]
        let q = quartiles(&[7.0, 1.0, 3.0, 2.0, 6.0, 5.0, 4.0]);
        assert_eq!((q.q1, q.median, q.q3, q.n), (2.0, 4.0, 6.0, 7));
        // statistics.quantiles([1,2,4,8], n=4) == [1.25, 3.0, 7.0]
        let q = quartiles(&[1.0, 2.0, 4.0, 8.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.25, 3.0, 7.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let q = quartiles(&[10.0, 20.0]);
        assert_eq!((q.q1, q.median, q.q3), (7.5, 15.0, 22.5));
        assert_eq!(quartiles(&[3.0]).median, 3.0);
    }
}
