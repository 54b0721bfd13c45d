//! Typed metrics registry.
//!
//! [`Registry`] implements [`MetricsSink`], the hook interface
//! `plum-parsim` and `plum-core` emit into. Three metric types:
//!
//! * **counters** — monotonically increasing `u64` (messages, words,
//!   cycles, accepted rebalances);
//! * **gauges** — last-write-wins `f64` (per-phase virtual seconds,
//!   imbalance factors);
//! * **histograms** — log-bucketed virtual-time distributions
//!   (per-rank waits, per-rank elapsed).
//!
//! Everything is `BTreeMap`-backed, so rendering and
//! [`Registry::flat_metrics`] are deterministic.

use std::collections::BTreeMap;

use plum_parsim::MetricsSink;

/// Log-scaled histogram for virtual-time observations. Buckets are powers
/// of two starting at 1 µs (`1e-6 · 2^i`); values below the first bound go
/// into bucket 0, values beyond the last into the overflow bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// `buckets[i]` counts observations `<=` the i-th upper bound.
    pub buckets: Vec<u64>,
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
}

/// Number of finite buckets (1 µs · 2^0 .. 2^39 ≈ 152 h) + 1 overflow.
const HIST_BUCKETS: usize = 40;

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: vec![0; HIST_BUCKETS + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl Histogram {
    /// Upper bound of finite bucket `i`, in seconds.
    pub fn bound(i: usize) -> f64 {
        1e-6 * (1u64 << i) as f64
    }

    /// Record one observation.
    pub fn observe(&mut self, value: f64) {
        let idx = (0..HIST_BUCKETS)
            .find(|&i| value <= Self::bound(i))
            .unwrap_or(HIST_BUCKETS);
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Estimate the `q`-quantile (`0.0 ..= 1.0`) from the bucket counts.
    ///
    /// The estimate is the upper bound of the bucket holding the
    /// `ceil(q·count)`-th observation, clamped to the observed `[min, max]`
    /// range — so it is exact for the extremes and within one power of two
    /// elsewhere. Observations in the overflow bucket estimate as `max`.
    /// Returns `None` when the histogram is empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        if q <= 0.0 {
            return Some(self.min);
        }
        if q >= 1.0 {
            return Some(self.max);
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= target {
                let est = if i < HIST_BUCKETS {
                    Self::bound(i)
                } else {
                    self.max
                };
                return Some(est.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }
}

/// The metrics registry: a [`MetricsSink`] that stores everything it is
/// handed, keyed by metric name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    /// Current value of a counter (0 if never incremented).
    #[cfg(test)]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of a gauge, if set.
    #[cfg(test)]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The named histogram, if any observation was recorded.
    #[cfg(test)]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Flatten every metric to `name → f64`: counters as-is, gauges as-is,
    /// histograms as `name.count` / `name.sum` / `name.max`. This is the
    /// set a [`crate::BenchReport`] absorbs.
    pub fn flat_metrics(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for (k, &v) in &self.counters {
            out.insert(k.clone(), v as f64);
        }
        for (k, &v) in &self.gauges {
            out.insert(k.clone(), v);
        }
        for (k, h) in &self.histograms {
            out.insert(format!("{k}.count"), h.count as f64);
            out.insert(format!("{k}.sum"), h.sum);
            if h.count > 0 {
                out.insert(format!("{k}.max"), h.max);
                // Bucket-bound quantile estimates are informational: they
                // are accurate to a power of two only, so they carry the
                // `info.` prefix and never gate a bench comparison.
                let info = crate::bench::INFO_PREFIX;
                for (label, q) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99)] {
                    if let Some(v) = h.quantile(q) {
                        out.insert(format!("{info}{k}.{label}"), v);
                    }
                }
            }
        }
        out
    }
}

impl MetricsSink for Registry {
    fn inc_by(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_default() += delta;
    }

    fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    fn observe(&mut self, name: &str, value: f64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .observe(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let mut r = Registry::new();
        r.inc_by("c.msgs", 3);
        r.inc_by("c.msgs", 4);
        r.set_gauge("g.time", 1.0);
        r.set_gauge("g.time", 2.5);
        assert_eq!(r.counter("c.msgs"), 7);
        assert_eq!(r.counter("c.other"), 0);
        assert_eq!(r.gauge("g.time"), Some(2.5));
        assert_eq!(r.gauge("g.missing"), None);
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let mut r = Registry::new();
        for v in [1e-7, 1e-6, 5e-3, 2.0, 1e9] {
            r.observe("h.wait", v);
        }
        let h = r.histogram("h.wait").unwrap();
        assert_eq!(h.count, 5);
        assert_eq!(h.min, 1e-7);
        assert_eq!(h.max, 1e9);
        assert!((h.sum - (1e-7 + 1e-6 + 5e-3 + 2.0 + 1e9)).abs() < 1e-3);
        // Sub-microsecond lands in bucket 0; the huge value overflows.
        assert_eq!(h.buckets[0], 2, "1e-7 and the exact 1e-6 bound");
        assert_eq!(*h.buckets.last().unwrap(), 1);
        assert_eq!(h.buckets.iter().sum::<u64>(), 5);
    }

    #[test]
    fn flat_metrics_cover_all_types_deterministically() {
        let mut r = Registry::new();
        r.inc_by("a.count", 2);
        r.set_gauge("b.seconds", 0.5);
        r.observe("c.wait", 1.0);
        r.observe("c.wait", 3.0);
        let flat = r.flat_metrics();
        assert_eq!(flat["a.count"], 2.0);
        assert_eq!(flat["b.seconds"], 0.5);
        assert_eq!(flat["c.wait.count"], 2.0);
        assert_eq!(flat["c.wait.sum"], 4.0);
        assert_eq!(flat["c.wait.max"], 3.0);
    }

    #[test]
    fn quantiles_estimate_from_hand_computed_bucket_fills() {
        // 10 observations: 5 in bucket 3 (bound 8 µs), 4 in bucket 10
        // (bound 1024 µs), 1 in the overflow bucket.
        let mut h = Histogram::default();
        for _ in 0..5 {
            h.observe(6e-6);
        }
        for _ in 0..4 {
            h.observe(1e-3);
        }
        h.observe(1e9);
        // p50: the 5th observation closes bucket 3 → its bound, 8 µs.
        assert_eq!(h.quantile(0.5), Some(Histogram::bound(3)));
        assert_eq!(h.quantile(0.5), Some(8e-6));
        // p90: the 9th observation closes bucket 10 → 1024 µs.
        assert_eq!(h.quantile(0.9), Some(Histogram::bound(10)));
        // p99: the 10th observation sits in overflow → max.
        assert_eq!(h.quantile(0.99), Some(1e9));
        // Extremes are exact.
        assert_eq!(h.quantile(0.0), Some(6e-6));
        assert_eq!(h.quantile(1.0), Some(1e9));
        assert_eq!(Histogram::default().quantile(0.5), None);

        // A bucket bound above the observed max clamps down to max.
        let mut one = Histogram::default();
        one.observe(5e-7);
        assert_eq!(one.quantile(0.5), Some(5e-7));
    }

    #[test]
    fn flat_metrics_expose_quantiles_as_info() {
        let mut r = Registry::new();
        for _ in 0..9 {
            r.observe("c.wait", 6e-6);
        }
        r.observe("c.wait", 1e-3);
        let flat = r.flat_metrics();
        // 9 of 10 observations are 6 µs (bucket bound 8 µs): the 9th
        // observation covers p50 and p90; only p99 reaches the 1 ms tail.
        assert_eq!(flat["info.c.wait.p50"], 8e-6);
        assert_eq!(flat["info.c.wait.p90"], 8e-6);
        assert_eq!(flat["info.c.wait.p99"], 1e-3);
        // Quantile keys all carry the info. prefix (warn-only in compare).
        assert!(flat
            .keys()
            .filter(|k| k.contains(".p5") || k.contains(".p9"))
            .all(|k| k.starts_with(crate::bench::INFO_PREFIX)));
        // An empty registry emits none.
        assert!(!Registry::new()
            .flat_metrics()
            .keys()
            .any(|k| k.contains(".p50")));
    }
}
