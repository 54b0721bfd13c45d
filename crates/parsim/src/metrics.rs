//! Metric emission hooks.
//!
//! [`MetricsSink`] is the narrow interface the simulator pushes its counters
//! and virtual-time gauges through. The sink lives downstream (the
//! `plum-obs` registry implements it); the simulator only depends on the
//! trait. Everything it emits comes from a trace summary
//! ([`TraceSummary::emit_metrics`]), so nothing is counted while ranks run.
//!
//! Naming convention: dot-separated lowercase paths
//! (`session.msgs`, `session.wait_seconds`, `session.collective.barrier.calls`).
//! Counters are monotonically increasing integers, gauges are
//! last-write-wins `f64`s, observations feed a histogram.

use crate::trace::{TraceSummary, COLLECTIVE_KINDS};

/// Receiver for metric updates. All methods take `&mut self`; emission is
/// single-threaded (hooks run on the host between steps, not inside rank
/// bodies).
pub trait MetricsSink {
    /// Add `delta` to the named counter (creating it at zero).
    fn inc_by(&mut self, name: &str, delta: u64);
    /// Set the named gauge.
    fn set_gauge(&mut self, name: &str, value: f64);
    /// Record one observation into the named histogram.
    fn observe(&mut self, name: &str, value: f64);
}

impl TraceSummary {
    /// Emit the summary's aggregate counters and time splits under
    /// `prefix.` — totals as counters/gauges plus per-rank wait/elapsed
    /// observations and per-collective counters (kinds never called are
    /// skipped).
    pub fn emit_metrics(&self, prefix: &str, sink: &mut dyn MetricsSink) {
        sink.inc_by(&format!("{prefix}.msgs"), self.total_msgs());
        sink.inc_by(&format!("{prefix}.words"), self.total_words());
        sink.set_gauge(&format!("{prefix}.compute_seconds"), self.total_compute());
        sink.set_gauge(&format!("{prefix}.wire_seconds"), self.total_wire());
        sink.set_gauge(&format!("{prefix}.wait_seconds"), self.total_wait());
        for r in &self.ranks {
            sink.observe(&format!("{prefix}.rank_wait_seconds"), r.wait);
            sink.observe(&format!("{prefix}.rank_elapsed_seconds"), r.total());
        }
        for kind in COLLECTIVE_KINDS {
            let c: crate::trace::CollectiveStats = self
                .ranks
                .iter()
                .map(|r| *r.collective(kind))
                .fold(Default::default(), |acc, s| crate::trace::CollectiveStats {
                    calls: acc.calls + s.calls,
                    msgs: acc.msgs + s.msgs,
                    words: acc.words + s.words,
                    seconds: acc.seconds + s.seconds,
                });
            if c.calls > 0 {
                let name = kind.name();
                sink.inc_by(&format!("{prefix}.collective.{name}.calls"), c.calls);
                sink.inc_by(&format!("{prefix}.collective.{name}.msgs"), c.msgs);
                sink.inc_by(&format!("{prefix}.collective.{name}.words"), c.words);
                sink.set_gauge(&format!("{prefix}.collective.{name}.seconds"), c.seconds);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{spmd, MachineModel, TraceLog};
    use std::collections::BTreeMap;

    #[derive(Default)]
    struct TestSink {
        counters: BTreeMap<String, u64>,
        gauges: BTreeMap<String, f64>,
        observations: BTreeMap<String, Vec<f64>>,
    }

    impl MetricsSink for TestSink {
        fn inc_by(&mut self, name: &str, delta: u64) {
            *self.counters.entry(name.to_string()).or_default() += delta;
        }
        fn set_gauge(&mut self, name: &str, value: f64) {
            self.gauges.insert(name.to_string(), value);
        }
        fn observe(&mut self, name: &str, value: f64) {
            self.observations
                .entry(name.to_string())
                .or_default()
                .push(value);
        }
    }

    #[test]
    fn summary_emits_totals_and_collectives() {
        let mut results = spmd(4, MachineModel::sp2(), |comm| {
            comm.compute(100.0);
            comm.barrier();
            comm.allreduce_sum_u64(comm.rank() as u64);
        });
        let summary = TraceLog::from_results(&mut results).summary();
        let mut sink = TestSink::default();
        summary.emit_metrics("s", &mut sink);
        assert_eq!(sink.counters["s.msgs"], summary.total_msgs());
        assert_eq!(sink.counters["s.words"], summary.total_words());
        assert!((sink.gauges["s.compute_seconds"] - summary.total_compute()).abs() < 1e-12);
        assert_eq!(sink.counters["s.collective.barrier.calls"], 4);
        assert_eq!(sink.observations["s.rank_elapsed_seconds"].len(), 4);
        // Kinds never invoked emit nothing.
        assert!(!sink.counters.contains_key("s.collective.gather.calls"));
    }
}
