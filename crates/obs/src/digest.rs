//! Trace digests: a compact, schema-versioned per-(phase, rank) compression
//! of a [`TraceLog`], small enough to embed in a BENCH report yet rich
//! enough to *attribute* a makespan change without re-running anything.
//!
//! A digest keeps three things:
//!
//! 1. **Per-(phase, rank) breakdowns** — compute/wire/wait seconds
//!    and message counters for every rank of every phase, plus the phase's
//!    top-level collective counters (from
//!    [`TraceLog::phase_rank_breakdowns`]).
//! 2. **Critical-path buckets** — the critical path's segments folded into
//!    (phase, rank, kind) buckets whose seconds sum to the run's makespan
//!    (a final `slack` bucket absorbs the max-rank idle time the path walk
//!    does not traverse, so the invariant holds to float precision). These
//!    are the units the [`crate::diff`] engine attributes deltas over.
//! 3. **The makespan** itself: max over ranks of accounted session time,
//!    the same quantity the chaos/rematch drivers report.
//!
//! Serialization is deterministic (sorted buckets, shortest-round-trip
//! floats), so `parse(emit(d)) == d` and re-emission is bit-identical —
//! the property the `plum-bench/v2` schema round-trip gate pins.

use std::collections::BTreeMap;

use plum_parsim::TraceLog;
pub use plum_parsim::OUTSIDE_PHASE;

use crate::critpath::critical_path;
use crate::json::{escape, fmt_f64, Value};

/// Schema tag embedded in every serialized digest.
pub const DIGEST_SCHEMA: &str = "plum-digest/v1";

/// The cause label of the slack bucket: makespan minus critical-path
/// length, i.e. idle time on the makespan-defining rank that the backward
/// path walk does not traverse. Usually ~0 on gap-free logs.
pub const SLACK_KIND: &str = "slack";

/// One phase's top-level collective counters (nonzero kinds only).
#[derive(Debug, Clone, PartialEq)]
pub struct CollectiveDigest {
    pub name: String,
    pub calls: u64,
    pub msgs: u64,
    pub words: u64,
    pub seconds: f64,
}

/// Per-rank breakdown of one phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseDigest {
    pub name: String,
    /// Earliest `PhaseBegin` / latest `PhaseEnd` across ranks.
    pub start: f64,
    pub end: f64,
    /// Per-rank accounted seconds (each `Vec` has `nranks` entries).
    pub compute: Vec<f64>,
    pub wire: Vec<f64>,
    pub wait: Vec<f64>,
    /// Per-rank messages/words sent inside the phase.
    pub msgs: Vec<u64>,
    pub words: Vec<u64>,
    /// Top-level collectives entered during the phase (nonzero only).
    pub collectives: Vec<CollectiveDigest>,
}

/// One (phase, rank, kind) unit of critical-path time.
#[derive(Debug, Clone, PartialEq)]
pub struct PathBucket {
    pub phase: String,
    pub rank: usize,
    /// `"compute" | "wire" | "wait" | "slack"`.
    pub kind: String,
    pub seconds: f64,
}

/// The digest of one `TraceLog`. See the module docs for the invariants.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceDigest {
    pub nranks: usize,
    /// Max over ranks of accounted session seconds.
    pub makespan: f64,
    /// Per-(phase, rank) breakdowns, in order of first phase appearance.
    pub phases: Vec<PhaseDigest>,
    /// Critical-path buckets, sorted by (phase, rank, kind); their seconds
    /// sum to `makespan` (to float precision — the reconciliation
    /// invariant the diff engine relies on).
    pub path: Vec<PathBucket>,
}

impl TraceDigest {
    /// Digest a trace log: per-(phase, rank) breakdowns plus the critical
    /// path folded into (phase, rank, kind) buckets summing to the
    /// makespan.
    pub fn from_log(log: &TraceLog) -> TraceDigest {
        let nranks = log.nranks();
        let summary = log.summary();
        let makespan = summary.makespan();
        let max_rank = summary
            .ranks
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total().total_cmp(&b.1.total()))
            .map_or(0, |(r, _)| r);

        let phases: Vec<PhaseDigest> = log
            .phase_rank_breakdowns()
            .into_iter()
            .map(|agg| {
                let collectives = plum_parsim::COLLECTIVE_KINDS
                    .iter()
                    .filter_map(|&kind| {
                        let c = agg.collective(kind);
                        (c.calls > 0).then(|| CollectiveDigest {
                            name: kind.name().to_string(),
                            calls: c.calls,
                            msgs: c.msgs,
                            words: c.words,
                            seconds: c.seconds,
                        })
                    })
                    .collect();
                PhaseDigest {
                    name: agg.name.clone(),
                    start: agg.start,
                    end: agg.end,
                    compute: agg.ranks.iter().map(|r| r.compute).collect(),
                    wire: agg.ranks.iter().map(|r| r.wire).collect(),
                    wait: agg.ranks.iter().map(|r| r.wait).collect(),
                    msgs: agg.ranks.iter().map(|r| r.msgs).collect(),
                    words: agg.ranks.iter().map(|r| r.words).collect(),
                    collectives,
                }
            })
            .collect();

        // Fold the critical path into (phase, rank, kind) buckets. Segment
        // midpoints decide the phase: spans never straddle phase markers
        // (markers are instants between accountable events), so any point
        // strictly inside the span works.
        let timeline = log.phase_timeline();
        let cp = critical_path(log);
        let mut buckets: BTreeMap<(String, usize, String), f64> = BTreeMap::new();
        for seg in &cp.segments {
            let mid = 0.5 * (seg.start + seg.end);
            let phase = timeline.at(seg.rank, mid).to_string();
            *buckets
                .entry((phase, seg.rank, seg.kind.name().to_string()))
                .or_insert(0.0) += seg.duration();
        }
        let mut path: Vec<PathBucket> = buckets
            .into_iter()
            .map(|((phase, rank, kind), seconds)| PathBucket {
                phase,
                rank,
                kind,
                seconds,
            })
            .collect();
        // Slack: whatever the path walk did not account for on the
        // makespan-defining rank. Appending it makes the bucket sum equal
        // the makespan (to float precision), the diff reconciliation
        // invariant.
        let covered: f64 = path.iter().map(|b| b.seconds).sum();
        let slack = makespan - covered;
        if slack != 0.0 {
            path.push(PathBucket {
                phase: OUTSIDE_PHASE.to_string(),
                rank: max_rank,
                kind: SLACK_KIND.to_string(),
                seconds: slack,
            });
        }

        TraceDigest {
            nranks,
            makespan,
            phases,
            path,
        }
    }

    /// Sum of all path-bucket seconds (== `makespan` to float precision).
    pub fn bucket_sum(&self) -> f64 {
        self.path.iter().map(|b| b.seconds).sum()
    }

    /// Append the digest as a JSON object to `out`, indented two levels
    /// deep (the BENCH report embeds it under a top-level key).
    /// Deterministic: equal digests serialize to identical bytes.
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\n");
        out.push_str(&format!("    \"schema\": \"{}\",\n", escape(DIGEST_SCHEMA)));
        out.push_str(&format!("    \"nranks\": {},\n", self.nranks));
        out.push_str(&format!("    \"makespan\": {},\n", fmt_f64(self.makespan)));
        out.push_str("    \"phases\": [");
        for (i, p) in self.phases.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!(
                "      {{\"name\": \"{}\", \"start\": {}, \"end\": {}",
                escape(&p.name),
                fmt_f64(p.start),
                fmt_f64(p.end)
            ));
            let floats = |out: &mut String, key: &str, vs: &[f64]| {
                out.push_str(&format!(", \"{key}\": ["));
                for (j, v) in vs.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&fmt_f64(*v));
                }
                out.push(']');
            };
            let ints = |out: &mut String, key: &str, vs: &[u64]| {
                out.push_str(&format!(", \"{key}\": ["));
                for (j, v) in vs.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&v.to_string());
                }
                out.push(']');
            };
            floats(out, "compute", &p.compute);
            floats(out, "wire", &p.wire);
            floats(out, "wait", &p.wait);
            ints(out, "msgs", &p.msgs);
            ints(out, "words", &p.words);
            out.push_str(", \"collectives\": [");
            for (j, c) in p.collectives.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!(
                    "{{\"name\": \"{}\", \"calls\": {}, \"msgs\": {}, \"words\": {}, \
                     \"seconds\": {}}}",
                    escape(&c.name),
                    c.calls,
                    c.msgs,
                    c.words,
                    fmt_f64(c.seconds)
                ));
            }
            out.push_str("]}");
        }
        out.push_str("\n    ],\n");
        out.push_str("    \"path\": [");
        for (i, b) in self.path.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!(
                "      {{\"phase\": \"{}\", \"rank\": {}, \"kind\": \"{}\", \"seconds\": {}}}",
                escape(&b.phase),
                b.rank,
                escape(&b.kind),
                fmt_f64(b.seconds)
            ));
        }
        out.push_str("\n    ]\n  }");
    }

    /// Decode a digest from a parsed JSON value.
    pub fn from_value(v: &Value) -> Result<TraceDigest, String> {
        let obj = v.as_obj().ok_or("digest must be an object")?;
        let schema = obj
            .get("schema")
            .and_then(Value::as_str)
            .ok_or("digest missing 'schema'")?;
        if schema != DIGEST_SCHEMA {
            return Err(format!("unsupported digest schema '{schema}'"));
        }
        let num = |key: &str| -> Result<f64, String> {
            obj.get(key)
                .and_then(Value::as_num)
                .ok_or_else(|| format!("digest missing number '{key}'"))
        };
        let nranks = num("nranks")? as usize;
        let makespan = num("makespan")?;
        fn arr<'a>(v: Option<&'a Value>, what: &str) -> Result<&'a [Value], String> {
            match v {
                Some(Value::Arr(items)) => Ok(items),
                _ => Err(format!("digest: '{what}' must be an array")),
            }
        }

        let mut phases = Vec::new();
        for pv in arr(obj.get("phases"), "phases")? {
            let p = pv.as_obj().ok_or("digest phase must be an object")?;
            let s = |key: &str| -> Result<String, String> {
                p.get(key)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("digest phase missing string '{key}'"))
            };
            let n = |key: &str| -> Result<f64, String> {
                p.get(key)
                    .and_then(Value::as_num)
                    .ok_or_else(|| format!("digest phase missing number '{key}'"))
            };
            let floats = |key: &str| -> Result<Vec<f64>, String> {
                arr(p.get(key), key)?
                    .iter()
                    .map(|x| x.as_num().ok_or_else(|| format!("non-number in '{key}'")))
                    .collect()
            };
            let ints = |key: &str| -> Result<Vec<u64>, String> {
                Ok(floats(key)?.into_iter().map(|x| x as u64).collect())
            };
            let mut collectives = Vec::new();
            for cv in arr(p.get("collectives"), "collectives")? {
                let c = cv.as_obj().ok_or("digest collective must be an object")?;
                let cn = |key: &str| -> Result<f64, String> {
                    c.get(key)
                        .and_then(Value::as_num)
                        .ok_or_else(|| format!("digest collective missing '{key}'"))
                };
                collectives.push(CollectiveDigest {
                    name: c
                        .get("name")
                        .and_then(Value::as_str)
                        .ok_or("digest collective missing 'name'")?
                        .to_string(),
                    calls: cn("calls")? as u64,
                    msgs: cn("msgs")? as u64,
                    words: cn("words")? as u64,
                    seconds: cn("seconds")?,
                });
            }
            phases.push(PhaseDigest {
                name: s("name")?,
                start: n("start")?,
                end: n("end")?,
                compute: floats("compute")?,
                wire: floats("wire")?,
                wait: floats("wait")?,
                msgs: ints("msgs")?,
                words: ints("words")?,
                collectives,
            });
        }

        let mut path = Vec::new();
        for bv in arr(obj.get("path"), "path")? {
            let b = bv.as_obj().ok_or("digest path bucket must be an object")?;
            let bs = |key: &str| -> Result<String, String> {
                b.get(key)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("digest bucket missing string '{key}'"))
            };
            let bn = |key: &str| -> Result<f64, String> {
                b.get(key)
                    .and_then(Value::as_num)
                    .ok_or_else(|| format!("digest bucket missing number '{key}'"))
            };
            path.push(PathBucket {
                phase: bs("phase")?,
                rank: bn("rank")? as usize,
                kind: bs("kind")?,
                seconds: bn("seconds")?,
            });
        }

        Ok(TraceDigest {
            nranks,
            makespan,
            phases,
            path,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use plum_parsim::{spmd, MachineModel, Session, TraceLog};

    fn phased_log() -> TraceLog {
        let mut sess = Session::new(4, MachineModel::sp2());
        let mut r = sess.run(vec![(); 4], |comm, ()| {
            comm.phase("solver", |c| {
                c.compute(100.0 * (c.rank() + 1) as f64);
                c.allreduce_sum_f64(c.rank() as f64);
            });
            comm.phase("partition", |c| {
                let p = c.nranks();
                let items: Vec<(u64, usize)> = (0..p).map(|d| (3, d)).collect();
                c.alltoallv(items);
            });
        });
        TraceLog::from_results(&mut r)
    }

    #[test]
    fn buckets_sum_to_makespan() {
        let log = phased_log();
        let d = TraceDigest::from_log(&log);
        assert_eq!(d.nranks, 4);
        assert!(d.makespan > 0.0);
        assert!(
            (d.bucket_sum() - d.makespan).abs() <= 1e-9 * d.makespan.max(1.0),
            "bucket sum {} vs makespan {}",
            d.bucket_sum(),
            d.makespan
        );
        // Every bucket names a known phase (or the outside sentinel) and a
        // known cause; buckets are sorted by (phase, rank, kind).
        let names: Vec<&str> = d.phases.iter().map(|p| p.name.as_str()).collect();
        for b in &d.path {
            assert!(
                b.phase == OUTSIDE_PHASE || names.contains(&b.phase.as_str()),
                "{b:?}"
            );
            assert!(
                ["compute", "wire", "wait", SLACK_KIND].contains(&b.kind.as_str()),
                "{b:?}"
            );
            assert!(b.rank < 4, "{b:?}");
        }
        let keys: Vec<_> = d
            .path
            .iter()
            .filter(|b| b.kind != SLACK_KIND)
            .map(|b| (b.phase.clone(), b.rank, b.kind.clone()))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn phases_carry_per_rank_splits_and_collectives() {
        let log = phased_log();
        let d = TraceDigest::from_log(&log);
        assert_eq!(
            d.phases.iter().map(|p| p.name.as_str()).collect::<Vec<_>>(),
            vec!["solver", "partition"]
        );
        let solver = &d.phases[0];
        // Compute grows linearly in rank (100·(r+1) work units).
        assert!(solver.compute[3] > 3.0 * solver.compute[0]);
        assert!(solver
            .collectives
            .iter()
            .any(|c| c.name == "allreduce" && c.calls == 4));
        let partition = &d.phases[1];
        assert!(partition.collectives.iter().any(|c| c.name == "alltoallv"));
        assert!(partition.msgs.iter().sum::<u64>() > 0);
    }

    #[test]
    fn digest_roundtrips_bit_identically() {
        let d = TraceDigest::from_log(&phased_log());
        let mut json = String::new();
        d.write_json(&mut json);
        let parsed = parse(&json).unwrap_or_else(|e| panic!("{e}\n{json}"));
        let back = TraceDigest::from_value(&parsed).unwrap();
        assert_eq!(back, d);
        let mut again = String::new();
        back.write_json(&mut again);
        assert_eq!(json, again, "re-emission must be bit-identical");
    }

    #[test]
    fn activity_outside_phases_lands_in_the_sentinel() {
        let mut r = spmd(2, MachineModel::sp2(), |comm| {
            comm.compute(50.0); // before any phase
            comm.phase("p", |c| c.compute(10.0));
        });
        let d = TraceDigest::from_log(&TraceLog::from_results(&mut r));
        assert!(
            d.path
                .iter()
                .any(|b| b.phase == OUTSIDE_PHASE && b.kind == "compute"),
            "{:?}",
            d.path
        );
        assert!((d.bucket_sum() - d.makespan).abs() <= 1e-9);
        // The per-(phase, rank) breakdowns agree with the path: the same
        // seconds sit in the sentinel's row, not nowhere.
        let outside = d
            .phases
            .iter()
            .find(|p| p.name == OUTSIDE_PHASE)
            .expect("pre-phase activity must have a phases row");
        let on_path: f64 = d
            .path
            .iter()
            .filter(|b| b.phase == OUTSIDE_PHASE)
            .map(|b| b.seconds)
            .sum();
        assert!((outside.compute[0] - on_path).abs() <= 1e-12);
        let accounted: f64 = d
            .phases
            .iter()
            .map(|p| p.compute[0] + p.wire[0] + p.wait[0])
            .sum();
        assert!((accounted - d.makespan).abs() <= 1e-9);
    }
}
