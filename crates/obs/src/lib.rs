//! # plum-obs — observability for PLUM simulations
//!
//! Turns the `plum-parsim` trace stream into actionable numbers. It keeps
//! no metric store: a cycle's metrics are one name → value map
//! (`plum_core::CycleReport::metrics`), which a [`BenchReport`] stores and
//! a [`Timeline`] records cycle by cycle.
//!
//! * [`critical_path`] / [`phase_critical_path`] — a cross-rank
//!   critical-path analyzer that walks the happens-before graph induced by
//!   matched send/recv pairs in a [`TraceLog`](plum_parsim::TraceLog) and
//!   reports the longest dependency chain (which rank, which kind of time —
//!   compute vs wire vs wait), plus [`heaviest_edges`] for the top-k most
//!   expensive message waits;
//! * [`BenchReport`] — a versioned, schema-validated `BENCH_<experiment>.json`
//!   format (per-phase virtual times, critical-path length, comm counters,
//!   run metadata) with a [`compare`] function that diffs two reports and
//!   flags regressions beyond a tolerance — the regression gate CI runs.

pub mod bench;
pub mod critpath;
pub mod diff;
pub mod digest;
pub mod json;
pub mod timeline;

pub use bench::{
    compare, BenchError, BenchReport, CompareReport, MetaValue, MetricDelta, BENCH_SCHEMA,
    INFO_PREFIX, RATE_PREFIX,
};
pub use critpath::{
    critical_path, heaviest_edges, phase_critical_path, render_heaviest_edges, CriticalPath,
    PathSegment, SegmentKind,
};
pub use diff::{diff_digests, explain, AttributionBucket, DigestDiff, PathReroute};
pub use digest::{
    CollectiveDigest, PathBucket, PhaseDigest, TraceDigest, DIGEST_SCHEMA, OUTSIDE_PHASE,
    SLACK_KIND,
};
pub use timeline::Timeline;
