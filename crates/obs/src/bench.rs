//! Versioned `BENCH_<experiment>.json` reports and the regression gate.
//!
//! A [`BenchReport`] records one experiment run: schema version,
//! experiment name, run metadata (P, mesh size, git sha — never compared),
//! and a flat map of finite `f64` metrics (per-phase virtual times,
//! critical-path length, comm counters). Virtual times are deterministic,
//! so a committed report is an exact baseline.
//!
//! Metrics are cost-like by convention: **lower is better**, and
//! [`compare`] flags `current > baseline · (1 + tol%)`. Two prefixes
//! change that reading: [`RATE_PREFIX`] metrics are throughput-like
//! (**higher is better** — the gate flags
//! `current < baseline · (1 − tol%)`), and [`INFO_PREFIX`] values are
//! informational (growth, gain, anything merely descriptive) — carried in
//! the file but never compared.

use std::collections::BTreeMap;
use std::fmt;

use crate::digest::TraceDigest;
use crate::json::{self, Value};
use crate::timeline::Timeline;

/// Schema identifier embedded in every emitted BENCH file, the only one
/// [`BenchReport::from_json`] accepts. v2 carries two optional attribution
/// payloads: a [`TraceDigest`] and a [`Timeline`].
pub const BENCH_SCHEMA: &str = "plum-bench/v2";

/// Metrics with this prefix are informational: emitted, shown, never
/// compared.
pub const INFO_PREFIX: &str = "info.";

/// Metrics with this prefix are throughput-like — **higher is better** —
/// and gate in the inverted direction: a regression is
/// `current < baseline · (1 − tol%)`. Example: `rate.sim.cycles_per_sec`.
pub const RATE_PREFIX: &str = "rate.";

/// One metadata value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetaValue {
    Str(String),
    Num(f64),
}

/// A BENCH report: one experiment's metrics plus run metadata.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchReport {
    pub experiment: String,
    pub meta: BTreeMap<String, MetaValue>,
    pub metrics: BTreeMap<String, f64>,
    /// Per-(phase, rank) trace digest of the instrumented run (absent in
    /// experiments too large to digest).
    pub digest: Option<TraceDigest>,
    /// Per-cycle metric trajectories of multi-cycle runs (v2, optional).
    pub timeline: Option<Timeline>,
}

/// Failure reading or validating a BENCH file.
#[derive(Debug, Clone, PartialEq)]
pub enum BenchError {
    Parse(json::ParseError),
    Schema(String),
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Parse(e) => write!(f, "{e}"),
            BenchError::Schema(msg) => write!(f, "BENCH schema error: {msg}"),
        }
    }
}

impl BenchReport {
    pub fn new(experiment: &str) -> Self {
        BenchReport {
            experiment: experiment.to_string(),
            ..BenchReport::default()
        }
    }

    /// Attach a string metadata field (e.g. `git_sha`, `scale`).
    pub fn meta_str(&mut self, key: &str, value: &str) -> &mut Self {
        self.meta
            .insert(key.to_string(), MetaValue::Str(value.to_string()));
        self
    }

    /// Attach a numeric metadata field (e.g. `nproc`, `elements`).
    pub fn meta_num(&mut self, key: &str, value: f64) -> &mut Self {
        assert!(value.is_finite(), "meta {key} must be finite, got {value}");
        self.meta.insert(key.to_string(), MetaValue::Num(value));
        self
    }

    /// Set one metric. Non-finite values are a bug in the emitter.
    pub fn set(&mut self, name: &str, value: f64) -> &mut Self {
        assert!(!name.is_empty(), "metric names must be non-empty");
        assert!(
            value.is_finite(),
            "metric {name} must be finite, got {value}"
        );
        self.metrics.insert(name.to_string(), value);
        self
    }

    /// Check the report is emittable: named experiment, at least one
    /// metric, everything finite (finiteness is enforced on insert; this
    /// re-checks reports built by [`BenchReport::from_json`]).
    pub fn validate(&self) -> Result<(), BenchError> {
        if self.experiment.is_empty() {
            return Err(BenchError::Schema("empty experiment name".into()));
        }
        if self.metrics.is_empty() {
            return Err(BenchError::Schema("no metrics".into()));
        }
        for (name, value) in &self.metrics {
            if name.is_empty() {
                return Err(BenchError::Schema("empty metric name".into()));
            }
            if !value.is_finite() {
                return Err(BenchError::Schema(format!(
                    "metric {name} is not finite: {value}"
                )));
            }
        }
        for (key, value) in &self.meta {
            if let MetaValue::Num(x) = value {
                if !x.is_finite() {
                    return Err(BenchError::Schema(format!("meta {key} is not finite: {x}")));
                }
            }
        }
        Ok(())
    }

    /// Serialize deterministically (sorted keys, shortest-round-trip
    /// numbers, 2-space indent).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"schema\": \"{}\",\n",
            json::escape(BENCH_SCHEMA)
        ));
        out.push_str(&format!(
            "  \"experiment\": \"{}\",\n",
            json::escape(&self.experiment)
        ));
        out.push_str("  \"meta\": {");
        let mut first = true;
        for (k, v) in &self.meta {
            out.push_str(if first { "\n" } else { ",\n" });
            first = false;
            match v {
                MetaValue::Str(s) => out.push_str(&format!(
                    "    \"{}\": \"{}\"",
                    json::escape(k),
                    json::escape(s)
                )),
                MetaValue::Num(x) => out.push_str(&format!(
                    "    \"{}\": {}",
                    json::escape(k),
                    json::fmt_f64(*x)
                )),
            }
        }
        out.push_str(if first { "},\n" } else { "\n  },\n" });
        out.push_str("  \"metrics\": {");
        let mut first = true;
        for (k, v) in &self.metrics {
            out.push_str(if first { "\n" } else { ",\n" });
            first = false;
            out.push_str(&format!(
                "    \"{}\": {}",
                json::escape(k),
                json::fmt_f64(*v)
            ));
        }
        out.push_str(if first { "}" } else { "\n  }" });
        if let Some(d) = &self.digest {
            out.push_str(",\n  \"digest\": ");
            d.write_json(&mut out);
        }
        if let Some(t) = &self.timeline {
            out.push_str(",\n  \"timeline\": ");
            t.write_json(&mut out);
        }
        out.push_str("\n}\n");
        out
    }

    /// Parse and schema-check a BENCH document.
    pub fn from_json(text: &str) -> Result<Self, BenchError> {
        let doc = json::parse(text).map_err(BenchError::Parse)?;
        let obj = doc
            .as_obj()
            .ok_or_else(|| BenchError::Schema("document is not an object".into()))?;
        let schema = obj
            .get("schema")
            .and_then(Value::as_str)
            .ok_or_else(|| BenchError::Schema("missing \"schema\" field".into()))?;
        if schema != BENCH_SCHEMA {
            return Err(BenchError::Schema(format!(
                "unsupported schema {schema:?} (want {BENCH_SCHEMA:?})"
            )));
        }
        let experiment = obj
            .get("experiment")
            .and_then(Value::as_str)
            .ok_or_else(|| BenchError::Schema("missing \"experiment\" field".into()))?
            .to_string();
        let mut report = BenchReport::new(&experiment);
        if let Some(meta) = obj.get("meta") {
            let meta = meta
                .as_obj()
                .ok_or_else(|| BenchError::Schema("\"meta\" is not an object".into()))?;
            for (k, v) in meta {
                let mv = match v {
                    Value::Str(s) => MetaValue::Str(s.clone()),
                    Value::Num(x) => MetaValue::Num(*x),
                    other => {
                        return Err(BenchError::Schema(format!(
                            "meta {k} has unsupported type: {other:?}"
                        )))
                    }
                };
                report.meta.insert(k.clone(), mv);
            }
        }
        let metrics = obj
            .get("metrics")
            .and_then(Value::as_obj)
            .ok_or_else(|| BenchError::Schema("missing \"metrics\" object".into()))?;
        for (k, v) in metrics {
            let x = v
                .as_num()
                .ok_or_else(|| BenchError::Schema(format!("metric {k} is not a number: {v:?}")))?;
            report.metrics.insert(k.clone(), x);
        }
        if let Some(dv) = obj.get("digest") {
            report.digest = Some(TraceDigest::from_value(dv).map_err(BenchError::Schema)?);
        }
        if let Some(tv) = obj.get("timeline") {
            report.timeline = Some(Timeline::from_value(tv).map_err(BenchError::Schema)?);
        }
        report.validate()?;
        Ok(report)
    }
}

/// One metric that moved between two reports.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    pub name: String,
    pub baseline: f64,
    pub current: f64,
    /// `current / baseline` (`inf` when the baseline is zero).
    pub ratio: f64,
}

/// Result of diffing two BENCH reports.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareReport {
    pub tolerance_pct: f64,
    /// Tracked metrics that grew beyond tolerance — the gate failures.
    pub regressions: Vec<MetricDelta>,
    /// Tracked metrics that shrank beyond tolerance (reported, never fail).
    pub improvements: Vec<MetricDelta>,
    /// Tracked metrics within tolerance.
    pub unchanged: usize,
    /// Tracked baseline metrics absent from the current report (a silently
    /// dropped metric must fail the gate, or regressions could hide).
    pub missing_in_current: Vec<String>,
    /// [`INFO_PREFIX`] baseline metrics absent from the current report.
    /// Warned about, never gating: info metrics do not gate on value, so
    /// they must not gate on presence either.
    pub missing_info: Vec<String>,
    /// Tracked current metrics with no baseline. Warned about always;
    /// gating only when [`CompareReport::strict_new`] is set — otherwise a
    /// new tracked metric never gets a baseline and never gates.
    pub new_in_current: Vec<String>,
    /// When set (`--strict-new`), unbaselined tracked metrics fail the gate.
    pub strict_new: bool,
}

impl CompareReport {
    /// The gate verdict: no regressions, no dropped metrics, and — under
    /// [`strict_new`](CompareReport::strict_new) — no unbaselined metrics.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
            && self.missing_in_current.is_empty()
            && (!self.strict_new || self.new_in_current.is_empty())
    }

    /// Human-readable verdict for CI logs.
    pub fn render(&self) -> String {
        let mut out = format!(
            "bench compare (tolerance {}%): {} regressed, {} improved, {} unchanged\n",
            self.tolerance_pct,
            self.regressions.len(),
            self.improvements.len(),
            self.unchanged
        );
        for d in &self.regressions {
            out.push_str(&format!(
                "  REGRESSION  {}: {} -> {} ({:+.2}%)\n",
                d.name,
                d.baseline,
                d.current,
                (d.ratio - 1.0) * 100.0
            ));
        }
        for name in &self.missing_in_current {
            out.push_str(&format!(
                "  MISSING     {name}: dropped from current report\n"
            ));
        }
        for name in &self.missing_info {
            out.push_str(&format!(
                "  WARNING     {name}: informational metric dropped from current report \
                 (never gates)\n"
            ));
        }
        for d in &self.improvements {
            out.push_str(&format!(
                "  improvement {}: {} -> {} ({:+.2}%)\n",
                d.name,
                d.baseline,
                d.current,
                (d.ratio - 1.0) * 100.0
            ));
        }
        for name in &self.new_in_current {
            if self.strict_new {
                out.push_str(&format!(
                    "  NEW         {name}: tracked metric has no baseline (strict-new)\n"
                ));
            } else {
                out.push_str(&format!(
                    "  WARNING new {name}: tracked metric has no baseline \
                     (regenerate the baseline, or gate with --strict-new)\n"
                ));
            }
        }
        out.push_str(if self.passed() { "PASS\n" } else { "FAIL\n" });
        out
    }
}

/// Diff two reports. Only tracked metrics (no [`INFO_PREFIX`]) gate.
/// Cost-like metrics (the default) regress when
/// `current > baseline · (1 + tolerance_pct/100) + 1e-12`; throughput-like
/// [`RATE_PREFIX`] metrics regress in the inverted direction, when
/// `current < baseline · (1 − tolerance_pct/100) − 1e-12`.
pub fn compare(baseline: &BenchReport, current: &BenchReport, tolerance_pct: f64) -> CompareReport {
    let tol = tolerance_pct / 100.0;
    let mut report = CompareReport {
        tolerance_pct,
        regressions: Vec::new(),
        improvements: Vec::new(),
        unchanged: 0,
        missing_in_current: Vec::new(),
        missing_info: Vec::new(),
        new_in_current: Vec::new(),
        strict_new: false,
    };
    for (name, &base) in &baseline.metrics {
        if name.starts_with(INFO_PREFIX) {
            // Info metrics never gate — not on value, not on presence.
            // A dropped one is still worth a warning line in CI logs.
            if !current.metrics.contains_key(name) {
                report.missing_info.push(name.clone());
            }
            continue;
        }
        let Some(&cur) = current.metrics.get(name) else {
            report.missing_in_current.push(name.clone());
            continue;
        };
        let ratio = if base == 0.0 {
            if cur.abs() <= 1e-12 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            cur / base
        };
        let delta = MetricDelta {
            name: name.clone(),
            baseline: base,
            current: cur,
            ratio,
        };
        // rate. metrics are higher-is-better: shrinking is the regression.
        let (worse, better) = if name.starts_with(RATE_PREFIX) {
            (
                cur < base * (1.0 - tol) - 1e-12,
                cur > base * (1.0 + tol) + 1e-12,
            )
        } else {
            (
                cur > base * (1.0 + tol) + 1e-12,
                cur < base * (1.0 - tol) - 1e-12,
            )
        };
        if worse {
            report.regressions.push(delta);
        } else if better {
            report.improvements.push(delta);
        } else {
            report.unchanged += 1;
        }
    }
    for name in current.metrics.keys() {
        if !name.starts_with(INFO_PREFIX) && !baseline.metrics.contains_key(name) {
            report.new_in_current.push(name.clone());
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        let mut r = BenchReport::new("fig6");
        r.meta_str("git_sha", "abc1234")
            .meta_num("nproc", 64.0)
            .set("phase.solver.seconds", 1.5)
            .set("phase.remap.seconds", 0.25)
            .set("comm.msgs", 1200.0)
            .set("info.cycle.growth", 1.33);
        r
    }

    #[test]
    fn roundtrips_through_json() {
        let r = sample();
        let text = r.to_json();
        let back = BenchReport::from_json(&text).unwrap();
        assert_eq!(back, r);
        // Deterministic bytes.
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn schema_violations_are_rejected() {
        assert!(matches!(
            BenchReport::from_json("{}"),
            Err(BenchError::Schema(_))
        ));
        assert!(matches!(
            BenchReport::from_json("not json"),
            Err(BenchError::Parse(_))
        ));
        let wrong_schema = sample().to_json().replace("plum-bench/v2", "plum-bench/v0");
        assert!(matches!(
            BenchReport::from_json(&wrong_schema),
            Err(BenchError::Schema(_))
        ));
        let bad_metric = sample().to_json().replace("1200", "\"1200\"");
        assert!(BenchReport::from_json(&bad_metric).is_err());
        assert!(BenchReport::new("x").validate().is_err(), "no metrics");
    }

    #[test]
    fn identical_reports_pass() {
        let r = sample();
        let cmp = compare(&r, &r, 5.0);
        assert!(cmp.passed());
        assert!(cmp.regressions.is_empty());
        assert_eq!(cmp.unchanged, 3, "info. metric is not tracked");
    }

    #[test]
    fn ten_percent_slowdown_fails_the_five_percent_gate() {
        let base = sample();
        let mut cur = sample();
        let slowed = cur.metrics["phase.remap.seconds"] * 1.10;
        cur.set("phase.remap.seconds", slowed);
        let cmp = compare(&base, &cur, 5.0);
        assert!(!cmp.passed());
        assert_eq!(cmp.regressions.len(), 1);
        assert_eq!(cmp.regressions[0].name, "phase.remap.seconds");
        assert!((cmp.regressions[0].ratio - 1.10).abs() < 1e-9);
        assert!(cmp.render().contains("FAIL"));
        // The same slowdown passes a looser gate.
        assert!(compare(&base, &cur, 15.0).passed());
    }

    /// v2 payloads (digest + timeline) round-trip bit-identically.
    #[test]
    fn v2_payloads_roundtrip_bit_identically() {
        use plum_parsim::{spmd, MachineModel, TraceLog};
        let mut runs = spmd(3, MachineModel::sp2(), |comm| {
            comm.phase("work", |c| {
                c.compute(10.0 * (c.rank() + 1) as f64);
                c.barrier();
            });
        });
        let mut r = sample();
        r.digest = Some(TraceDigest::from_log(&TraceLog::from_results(&mut runs)));
        let mut t = Timeline::new();
        t.record_cycle([("balance.method", 2.0), ("cycle.virtual_seconds", 1.5)]);
        t.record_cycle([("balance.method", 1.0), ("cycle.virtual_seconds", 1.2)]);
        r.timeline = Some(t);

        let text = r.to_json();
        assert!(text.contains("\"schema\": \"plum-bench/v2\""));
        let back = BenchReport::from_json(&text).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.to_json(), text, "re-emission must be bit-identical");
    }

    #[test]
    fn info_metrics_never_gate() {
        let base = sample();
        let mut cur = sample();
        cur.set("info.cycle.growth", 99.0);
        assert!(compare(&base, &cur, 5.0).passed());
    }

    /// Dropping an `info.` metric warns but does not gate — and the
    /// reverse direction (new info metric in current) stays silent even
    /// under strict-new. Dropping a *tracked* metric still fails.
    #[test]
    fn dropped_info_metric_warns_without_gating() {
        let base = sample();
        let mut cur = sample();
        cur.metrics.remove("info.cycle.growth");
        let mut cmp = compare(&base, &cur, 5.0);
        cmp.strict_new = true;
        assert!(cmp.passed(), "{}", cmp.render());
        assert_eq!(cmp.missing_info, vec!["info.cycle.growth".to_string()]);
        assert!(cmp.missing_in_current.is_empty());
        let text = cmp.render();
        assert!(text.contains("WARNING     info.cycle.growth"), "{text}");
        assert!(text.contains("PASS"), "{text}");

        // Reverse direction: an info metric only in current is not even a
        // strict-new violation.
        let mut cur2 = sample();
        cur2.set("info.brand.new", 1.0);
        let mut cmp2 = compare(&base, &cur2, 5.0);
        cmp2.strict_new = true;
        assert!(cmp2.passed());
        assert!(cmp2.new_in_current.is_empty());
        assert!(cmp2.missing_info.is_empty());
    }

    #[test]
    fn dropped_tracked_metric_fails() {
        let base = sample();
        let mut cur = sample();
        cur.metrics.remove("comm.msgs");
        let cmp = compare(&base, &cur, 5.0);
        assert!(!cmp.passed());
        assert_eq!(cmp.missing_in_current, vec!["comm.msgs".to_string()]);
        assert!(cmp.render().contains("MISSING"));
    }

    #[test]
    fn improvements_and_new_metrics_pass() {
        let base = sample();
        let mut cur = sample();
        cur.set("phase.remap.seconds", 0.1); // 2.5× faster
        cur.set("phase.subdivide.seconds", 0.01); // new metric
        let cmp = compare(&base, &cur, 5.0);
        assert!(cmp.passed());
        assert_eq!(cmp.improvements.len(), 1);
        assert_eq!(
            cmp.new_in_current,
            vec!["phase.subdivide.seconds".to_string()]
        );
        let text = cmp.render();
        assert!(text.contains("improvement"));
        assert!(text.contains("PASS"));
        // Unbaselined tracked metrics are never silent: a listed warning.
        assert!(
            text.contains("WARNING new phase.subdivide.seconds"),
            "{text}"
        );
    }

    #[test]
    fn strict_new_gates_unbaselined_metrics() {
        let base = sample();
        let mut cur = sample();
        cur.set("balance.method", 2.0); // new tracked metric
        let mut cmp = compare(&base, &cur, 5.0);
        assert!(cmp.passed(), "lenient mode warns but passes");
        cmp.strict_new = true;
        assert!(!cmp.passed(), "strict mode fails on unbaselined metrics");
        let text = cmp.render();
        assert!(text.contains("NEW         balance.method"), "{text}");
        assert!(text.contains("FAIL"), "{text}");
        // info. metrics stay exempt even under strict-new.
        let mut cur2 = sample();
        cur2.set("info.balance.method_predicted_seconds", 0.1);
        let mut cmp2 = compare(&base, &cur2, 5.0);
        cmp2.strict_new = true;
        assert!(cmp2.passed(), "info. metrics never gate");
    }

    #[test]
    fn rate_metrics_gate_in_the_higher_is_better_direction() {
        let mut base = BenchReport::new("weakscale");
        base.set("rate.sim.cycles_per_sec", 100.0)
            .set("sim.wall_seconds_per_cycle", 0.01);
        // Throughput drop beyond tolerance fails the gate...
        let mut cur = base.clone();
        cur.set("rate.sim.cycles_per_sec", 80.0);
        let cmp = compare(&base, &cur, 5.0);
        assert!(!cmp.passed());
        assert_eq!(cmp.regressions.len(), 1);
        assert_eq!(cmp.regressions[0].name, "rate.sim.cycles_per_sec");
        assert!((cmp.regressions[0].ratio - 0.8).abs() < 1e-9);
        // ...a throughput drop within tolerance passes...
        let mut cur = base.clone();
        cur.set("rate.sim.cycles_per_sec", 96.0);
        let cmp = compare(&base, &cur, 5.0);
        assert!(cmp.passed());
        assert_eq!(cmp.unchanged, 2);
        // ...and a throughput gain is an improvement, not a regression.
        let mut cur = base.clone();
        cur.set("rate.sim.cycles_per_sec", 150.0);
        let cmp = compare(&base, &cur, 5.0);
        assert!(cmp.passed());
        assert_eq!(cmp.improvements.len(), 1);
        // Dropping a rate metric still fails (it is tracked).
        let mut cur = base.clone();
        cur.metrics.remove("rate.sim.cycles_per_sec");
        assert!(!compare(&base, &cur, 5.0).passed());
    }

    #[test]
    fn zero_baseline_growth_is_a_regression() {
        let mut base = BenchReport::new("x");
        base.set("comm.msgs", 0.0);
        let mut cur = BenchReport::new("x");
        cur.set("comm.msgs", 5.0);
        let cmp = compare(&base, &cur, 5.0);
        assert!(!cmp.passed());
        assert!(cmp.regressions[0].ratio.is_infinite());
        // Zero stays zero: fine.
        assert!(compare(&base, &base, 5.0).passed());
    }
}
