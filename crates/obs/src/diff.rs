//! Digest diffing: attribute a makespan delta to (phase, rank, cause)
//! buckets, detect critical-path re-routes, and render the full
//! `plum-bench explain` report.
//!
//! The attribution invariant: for any two digests, the sum of bucket
//! deltas equals the measured makespan delta to 1e-9 — each digest's path
//! buckets sum to its makespan (see [`TraceDigest`]), so the union-keyed
//! difference telescopes. No time can hide: if the partition phase got
//! slower but the solver got faster, both show up and they net out to the
//! measured change.

use std::collections::BTreeMap;

use crate::bench::BenchReport;
use crate::digest::TraceDigest;
use crate::json::fmt_f64;

/// One (phase, rank, cause) unit of makespan attribution.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributionBucket {
    pub phase: String,
    pub rank: usize,
    /// `"compute" | "wire" | "wait" | "slack"`.
    pub kind: String,
    /// Critical-path seconds in the baseline digest (0 when absent).
    pub baseline: f64,
    /// Critical-path seconds in the current digest (0 when absent).
    pub current: f64,
}

impl AttributionBucket {
    /// Signed contribution of this bucket to the makespan delta.
    pub fn delta(&self) -> f64 {
        self.current - self.baseline
    }
}

/// A critical-path re-route: the dominant (rank, cause) of a phase's path
/// time changed between the two runs.
#[derive(Debug, Clone, PartialEq)]
pub struct PathReroute {
    pub phase: String,
    /// Dominant (rank, kind) in the baseline.
    pub from: (usize, String),
    /// Dominant (rank, kind) in the current run.
    pub to: (usize, String),
}

/// The diff of two digests. Buckets are ranked by |delta|, largest first.
#[derive(Debug, Clone, PartialEq)]
pub struct DigestDiff {
    pub baseline_makespan: f64,
    pub current_makespan: f64,
    pub buckets: Vec<AttributionBucket>,
    pub reroutes: Vec<PathReroute>,
}

impl DigestDiff {
    /// The measured makespan delta (current − baseline).
    pub fn delta(&self) -> f64 {
        self.current_makespan - self.baseline_makespan
    }

    /// Sum of bucket deltas (== [`DigestDiff::delta`] to 1e-9).
    pub fn bucket_delta_sum(&self) -> f64 {
        self.buckets.iter().map(|b| b.delta()).sum()
    }

    /// |Σ bucket deltas − measured delta| — the reconciliation invariant.
    pub fn reconciliation_error(&self) -> f64 {
        (self.bucket_delta_sum() - self.delta()).abs()
    }

    /// Render the attribution: ranked buckets with their share of the
    /// delta, re-routes, and the reconciliation check.
    pub fn render(&self) -> String {
        let delta = self.delta();
        let mut out = format!(
            "makespan: {} -> {} ({:+.6}s, {:+.2}%)\n",
            fmt_f64(self.baseline_makespan),
            fmt_f64(self.current_makespan),
            delta,
            if self.baseline_makespan != 0.0 {
                delta / self.baseline_makespan * 100.0
            } else {
                f64::NAN
            }
        );
        out.push_str("ranked (phase, rank, cause) attribution:\n");
        let shown = self.buckets.iter().take(12);
        let mut listed = 0usize;
        for b in shown {
            let share = if delta.abs() > 1e-15 {
                format!(" ({:+.1}% of delta)", b.delta() / delta * 100.0)
            } else {
                String::new()
            };
            out.push_str(&format!(
                "  {:+12.6}s  {} / rank {} / {}{share}\n",
                b.delta(),
                b.phase,
                b.rank,
                b.kind
            ));
            listed += 1;
        }
        if self.buckets.len() > listed {
            out.push_str(&format!(
                "  ... {} smaller buckets omitted\n",
                self.buckets.len() - listed
            ));
        }
        for r in &self.reroutes {
            out.push_str(&format!(
                "  REROUTE {}: dominant path time moved from rank {} {} to rank {} {}\n",
                r.phase, r.from.0, r.from.1, r.to.0, r.to.1
            ));
        }
        out.push_str(&format!(
            "reconciliation: bucket deltas sum to {:+.9}s vs measured {:+.9}s (error {:.2e})\n",
            self.bucket_delta_sum(),
            delta,
            self.reconciliation_error()
        ));
        out
    }
}

/// Fold one digest's path into a (phase, rank, kind) → seconds map.
fn bucket_map(d: &TraceDigest) -> BTreeMap<(String, usize, String), f64> {
    let mut m = BTreeMap::new();
    for b in &d.path {
        *m.entry((b.phase.clone(), b.rank, b.kind.clone()))
            .or_insert(0.0) += b.seconds;
    }
    m
}

/// Dominant (rank, kind) per phase of one digest's path buckets.
fn dominant_by_phase(d: &TraceDigest) -> BTreeMap<String, (usize, String)> {
    let mut best: BTreeMap<String, (f64, usize, String)> = BTreeMap::new();
    for b in &d.path {
        let e = best
            .entry(b.phase.clone())
            .or_insert((f64::NEG_INFINITY, 0, String::new()));
        if b.seconds > e.0 {
            *e = (b.seconds, b.rank, b.kind.clone());
        }
    }
    best.into_iter()
        .map(|(phase, (_, rank, kind))| (phase, (rank, kind)))
        .collect()
}

/// Diff two digests: union the (phase, rank, cause) buckets, rank them by
/// |delta| (ties broken by key for determinism), and report per-phase
/// critical-path re-routes.
pub fn diff_digests(baseline: &TraceDigest, current: &TraceDigest) -> DigestDiff {
    let base = bucket_map(baseline);
    let cur = bucket_map(current);
    let mut keys: Vec<&(String, usize, String)> = base.keys().collect();
    for k in cur.keys() {
        if !base.contains_key(k) {
            keys.push(k);
        }
    }
    keys.sort();
    let mut buckets: Vec<AttributionBucket> = keys
        .into_iter()
        .map(|k| AttributionBucket {
            phase: k.0.clone(),
            rank: k.1,
            kind: k.2.clone(),
            baseline: base.get(k).copied().unwrap_or(0.0),
            current: cur.get(k).copied().unwrap_or(0.0),
        })
        .collect();
    buckets.sort_by(|a, b| {
        b.delta()
            .abs()
            .total_cmp(&a.delta().abs())
            .then_with(|| (&a.phase, a.rank, &a.kind).cmp(&(&b.phase, b.rank, &b.kind)))
    });

    let base_dom = dominant_by_phase(baseline);
    let cur_dom = dominant_by_phase(current);
    let mut reroutes = Vec::new();
    for (phase, from) in &base_dom {
        if let Some(to) = cur_dom.get(phase) {
            if to != from {
                reroutes.push(PathReroute {
                    phase: phase.clone(),
                    from: from.clone(),
                    to: to.clone(),
                });
            }
        }
    }

    DigestDiff {
        baseline_makespan: baseline.makespan,
        current_makespan: current.makespan,
        buckets,
        reroutes,
    }
}

/// Largest tracked-metric movements between two reports, by |relative
/// change| (infinite for a zero baseline growing), capped at `limit`.
fn metric_movements(baseline: &BenchReport, current: &BenchReport, limit: usize) -> String {
    let mut moves: Vec<(f64, String, f64, f64)> = Vec::new();
    for (name, &base) in &baseline.metrics {
        if name.starts_with(crate::bench::INFO_PREFIX) {
            continue;
        }
        let Some(&cur) = current.metrics.get(name) else {
            continue;
        };
        if cur == base {
            continue;
        }
        let rel = if base != 0.0 {
            ((cur - base) / base).abs()
        } else {
            f64::INFINITY
        };
        moves.push((rel, name.clone(), base, cur));
    }
    moves.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    let mut out = String::new();
    for (rel, name, base, cur) in moves.iter().take(limit) {
        let pct = if rel.is_finite() {
            format!("{:+.2}%", (cur - base) / base * 100.0)
        } else {
            "new from zero".to_string()
        };
        out.push_str(&format!(
            "  {name}: {} -> {} ({pct})\n",
            fmt_f64(*base),
            fmt_f64(*cur)
        ));
    }
    if moves.len() > limit {
        out.push_str(&format!("  ... {} more moved\n", moves.len() - limit));
    }
    if moves.is_empty() {
        out.push_str("  (no tracked metric changed)\n");
    }
    out
}

/// Balance-method flips between two reports: every metric named
/// `balance.method` (or suffixed `.balance.method`) whose code changed.
fn method_flips(baseline: &BenchReport, current: &BenchReport) -> String {
    let mut out = String::new();
    for (name, &base) in &baseline.metrics {
        let is_method = name == "balance.method" || name.ends_with(".balance.method");
        if !is_method {
            continue;
        }
        if let Some(&cur) = current.metrics.get(name) {
            if cur != base {
                out.push_str(&format!(
                    "  {name}: balance method flipped from code {} to code {}\n",
                    base as i64, cur as i64
                ));
            }
        }
    }
    out
}

/// Render the full attribution report for two BENCH reports: tracked
/// metric movements, balance-method flips, digest attribution (when both
/// sides carry one), and per-cycle timelines. This is the body of
/// `plum-bench explain <baseline> <current>`, also auto-rendered when
/// `compare` fails.
pub fn explain(baseline: &BenchReport, current: &BenchReport) -> String {
    let mut out = format!(
        "== explain: {} (baseline) vs {} (current) ==\n",
        baseline.experiment, current.experiment
    );
    if baseline.experiment != current.experiment {
        out.push_str("WARNING: comparing different experiments\n");
    }

    out.push_str("\n-- tracked metric movements (by |relative change|) --\n");
    out.push_str(&metric_movements(baseline, current, 10));

    let flips = method_flips(baseline, current);
    if !flips.is_empty() {
        out.push_str("\n-- balance method flips --\n");
        out.push_str(&flips);
    }

    out.push_str("\n-- makespan attribution (trace digest) --\n");
    match (&baseline.digest, &current.digest) {
        (Some(b), Some(c)) => out.push_str(&diff_digests(b, c).render()),
        (b, c) => {
            let missing = match (b, c) {
                (None, None) => "both reports",
                (None, _) => "the baseline report",
                _ => "the current report",
            };
            out.push_str(&format!(
                "  no digest in {missing} (an experiment too large to digest); \
                 no attribution\n"
            ));
        }
    }

    match (&baseline.timeline, &current.timeline) {
        (Some(b), Some(c)) => {
            out.push_str("\n-- per-cycle timeline (baseline) --\n");
            out.push_str(&b.render());
            out.push_str("\n-- per-cycle timeline (current) --\n");
            out.push_str(&c.render());
        }
        (None, Some(c)) => {
            out.push_str("\n-- per-cycle timeline (current only) --\n");
            out.push_str(&c.render());
        }
        (Some(b), None) => {
            out.push_str("\n-- per-cycle timeline (baseline only) --\n");
            out.push_str(&b.render());
        }
        (None, None) => {}
    }
    if let Some(c) = &current.timeline {
        for name in c.names() {
            if name.ends_with("balance.method") {
                let flaps = c.flaps(name);
                if flaps > 0 {
                    out.push_str(&format!(
                        "WARNING: {name} flaps {flaps}× across cycles in the current run\n"
                    ));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::PathBucket;

    fn digest_with(path: Vec<PathBucket>, makespan: f64) -> TraceDigest {
        TraceDigest {
            nranks: 4,
            makespan,
            phases: Vec::new(),
            path,
        }
    }

    fn bucket(phase: &str, rank: usize, kind: &str, seconds: f64) -> PathBucket {
        PathBucket {
            phase: phase.to_string(),
            rank,
            kind: kind.to_string(),
            seconds,
        }
    }

    #[test]
    fn attribution_reconciles_and_ranks() {
        let base = digest_with(
            vec![
                bucket("solver", 0, "compute", 1.0),
                bucket("partition", 3, "wait", 0.5),
            ],
            1.5,
        );
        let cur = digest_with(
            vec![
                bucket("solver", 0, "compute", 2.0),
                bucket("partition", 3, "wait", 0.4),
                bucket("remap", 1, "wire", 0.1),
            ],
            2.5,
        );
        let d = diff_digests(&base, &cur);
        assert!((d.delta() - 1.0).abs() < 1e-12);
        assert!(d.reconciliation_error() <= 1e-9, "{}", d.render());
        // Largest mover first.
        assert_eq!(d.buckets[0].phase, "solver");
        assert_eq!(d.buckets[0].rank, 0);
        assert_eq!(d.buckets[0].kind, "compute");
        assert!((d.buckets[0].delta() - 1.0).abs() < 1e-12);
        // Buckets present on only one side still appear.
        assert!(d
            .buckets
            .iter()
            .any(|b| b.phase == "remap" && b.baseline == 0.0));
        let text = d.render();
        assert!(text.contains("solver / rank 0 / compute"), "{text}");
        assert!(text.contains("+100.0% of delta"), "{text}");
    }

    #[test]
    fn reroutes_report_dominant_changes() {
        let base = digest_with(
            vec![
                bucket("partition", 3, "wait", 0.5),
                bucket("partition", 1, "wire", 0.1),
            ],
            0.6,
        );
        let cur = digest_with(
            vec![
                bucket("partition", 3, "wait", 0.1),
                bucket("partition", 7, "compute", 0.6),
            ],
            0.7,
        );
        let d = diff_digests(&base, &cur);
        assert_eq!(d.reroutes.len(), 1);
        let r = &d.reroutes[0];
        assert_eq!(r.phase, "partition");
        assert_eq!(r.from, (3, "wait".to_string()));
        assert_eq!(r.to, (7, "compute".to_string()));
        assert!(d.render().contains("REROUTE partition"), "{}", d.render());
    }

    #[test]
    fn explain_reports_flips_digests_and_absences() {
        let mut base = BenchReport::new("fig6");
        base.set("balance.method", 2.0).set("cycle.seconds", 1.0);
        let mut cur = BenchReport::new("fig6");
        cur.set("balance.method", 1.0).set("cycle.seconds", 1.4);

        let text = explain(&base, &cur);
        assert!(
            text.contains("balance method flipped from code 2 to code 1"),
            "{text}"
        );
        assert!(text.contains("cycle.seconds: 1 -> 1.4"), "{text}");
        assert!(text.contains("no digest in both reports"), "{text}");

        // With digests on both sides the attribution section renders.
        base.digest = Some(digest_with(vec![bucket("solver", 0, "compute", 1.0)], 1.0));
        cur.digest = Some(digest_with(vec![bucket("solver", 0, "compute", 1.4)], 1.4));
        let text = explain(&base, &cur);
        assert!(
            text.contains("ranked (phase, rank, cause) attribution"),
            "{text}"
        );
        assert!(text.contains("reconciliation"), "{text}");

        // Timeline flap warning on the current side.
        let mut t = crate::Timeline::new();
        for code in [2.0, 1.0, 2.0] {
            t.record_cycle([("balance.method", code)]);
        }
        cur.timeline = Some(t);
        let text = explain(&base, &cur);
        assert!(text.contains("balance.method flaps 1×"), "{text}");
    }

    mod reconciliation {
        use super::super::*;
        use plum_parsim::{MachineModel, Session, TraceLog};
        use proptest::prelude::*;

        /// A phased 4-rank run whose per-rank compute is scaled by
        /// `factors`; exercises compute, collectives, and point-to-point
        /// traffic so the critical path crosses ranks.
        fn perturbed_log(factors: [f64; 4]) -> TraceLog {
            let mut sess = Session::new(4, MachineModel::sp2());
            let mut r = sess.run(factors.to_vec(), |comm, f| {
                comm.phase("solver", |c| {
                    c.compute(100.0 * (c.rank() + 1) as f64 * f);
                    c.allreduce_sum_f64(c.rank() as f64);
                });
                comm.phase("partition", |c| {
                    let p = c.nranks();
                    let items: Vec<(u64, usize)> = (0..p).map(|d| (3, d)).collect();
                    c.alltoallv(items);
                    c.compute(20.0 * f);
                });
            });
            TraceLog::from_results(&mut r)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// The core invariant of the attribution layer: for ANY pair
            /// of perturbed runs, the bucket deltas reconcile against the
            /// measured makespan delta to 1e-9 — even when the critical
            /// path re-routes between ranks and phases.
            #[test]
            fn bucket_deltas_reconcile_to_1e9(
                a in proptest::collection::vec(0.5f64..4.0, 4),
                b in proptest::collection::vec(0.5f64..4.0, 4),
            ) {
                let fa: [f64; 4] = a.clone().try_into().unwrap();
                let fb: [f64; 4] = b.clone().try_into().unwrap();
                let base = TraceDigest::from_log(&perturbed_log(fa));
                let cur = TraceDigest::from_log(&perturbed_log(fb));
                let d = diff_digests(&base, &cur);
                prop_assert!(
                    d.reconciliation_error() <= 1e-9,
                    "error {} for factors {:?} vs {:?}\n{}",
                    d.reconciliation_error(), a, b, d.render()
                );
                // And each digest individually covers its makespan.
                prop_assert!((base.bucket_sum() - base.makespan).abs() <= 1e-9);
                prop_assert!((cur.bucket_sum() - cur.makespan).abs() <= 1e-9);
            }
        }
    }
}
