//! The metric definitions: names are normative (later PRs are judged by
//! them). `BENCHMARK.json` at the repo root is generated from these tables
//! by `plum-e2e manifest`, and a test keeps the two identical.

use crate::workload::{METHODS, WORKLOADS};

/// Which of the simulator's two clocks a metric reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Simulator wall / CPU / memory on the host: noisy.
    Host,
    /// Modeled SP2 seconds or counts: bit-reproducible.
    Virtual,
}

impl Clock {
    pub fn name(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Virtual => "virtual",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub clock: Clock,
    pub unit: &'static str,
    /// Share of the reference median by which the metric may get worse:
    /// in the driver's comparison, which runs ten different seeds, and
    /// between the two sets of `run --check` (where virtual metrics must
    /// also be bit-identical). Each is about three times the widest
    /// inter-quartile spread measured across seeds (README.md), capped at
    /// the contract's 0.25.
    pub bound: f64,
    pub what: &'static str,
}

/// Every end-to-end metric is better when lower.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        clock: Clock::Host,
        unit: "s",
        bound: 0.25,
        what: "box_mesh + Plum::new (dual graph, initial k-way, SFC keys, engine)",
    },
    EndToEnd {
        name: "cycle_wall_s",
        clock: Clock::Host,
        unit: "s",
        bound: 0.25,
        what: "sum of cycle wall time / cycles in the run",
    },
    EndToEnd {
        name: "cycle_wall_max_s",
        clock: Clock::Host,
        unit: "s",
        bound: 0.25,
        what: "slowest single cycle of the run (grown mesh / coarsen rebuild)",
    },
    EndToEnd {
        name: "peak_rss_mb",
        clock: Clock::Host,
        unit: "MB",
        bound: 0.15,
        what: "child's VmHWM after the last cycle, before any verification",
    },
    EndToEnd {
        name: "virtual_makespan_s",
        clock: Clock::Virtual,
        unit: "s",
        bound: 0.2,
        what: "sum over cycles of the max-over-ranks session clock",
    },
    EndToEnd {
        name: "imbalance_after",
        clock: Clock::Virtual,
        unit: "ratio",
        bound: 0.08,
        what: "mean over cycles of wmax_balanced * P / elements",
    },
];

/// The seventh end-to-end metric: failed cycles / attempted cycles. Any
/// increase is a regression. It is 0 on a healthy tree, so the driver
/// contract carries it as `failed` / `attempted` instead of a metric.
pub const OP_FAIL_SHARE: &str = "op_fail_share";

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// The prediction, written before measuring: which end-to-end metric it
    /// should move, on which workload.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
    }
}

const COLLECTIVE: &str = "cycle_wall_s@weak_p2048 (large); none @paper_p64, cascade_p64";
const P2P: &str = "cycle_wall_s@multilevel_p256; little @weak_p2048";
const SETUP: &str = "setup_s on all four";
const ADAPT: &str =
    "cycle_wall_s, cycle_wall_max_s@paper_p64, cascade_p64; <1% @weak_p2048, multilevel_p256";
const MAPPER: &str =
    "none today (microseconds); host cost the 'charge the mapper' item turns virtual";
const REMAP: &str = "virtual_makespan_s via the remap phase; cycle_wall_s@paper_p64, cascade_p64";
const WEAK: &str = "cycle_wall_s, peak_rss_mb@weak_p2048";
const VIRTUAL: &str = "virtual_makespan_s";

/// Per-layer metrics every workload's traced run emits (a kernel that never
/// ran on a workload reads 0). Layers are the crate names.
pub const PER_LAYER: [Layer; 60] = [
    layer("parsim.step.us_per_rank", "us", "lower", COLLECTIVE),
    layer("parsim.p2p.ns_per_msg", "ns", "lower", P2P),
    layer("parsim.allreduce.us_per_call", "us", "lower", COLLECTIVE),
    layer("parsim.bcast.us_per_call", "us", "lower", COLLECTIVE),
    layer("parsim.barrier.us_per_call", "us", "lower", COLLECTIVE),
    layer("parsim.allgather.us_per_call", "us", "lower", COLLECTIVE),
    layer("parsim.alltoallv.us_per_call", "us", "lower", COLLECTIVE),
    layer("parsim.trace.events_per_cycle", "count", "lower", P2P),
    layer("parsim.trace.msgs_per_cycle", "count", "lower", P2P),
    layer("parsim.trace.words_per_cycle", "count", "lower", VIRTUAL),
    layer("parsim.events_per_host_s", "1/s", "higher", P2P),
    layer("parsim.phase_breakdowns.ns_per_event", "ns", "lower", P2P),
    layer(
        "parsim.check_protocol.ns_per_event",
        "ns",
        "lower",
        "none of the six; what verification costs",
    ),
    layer(
        "parsim.virtual_wait_share",
        "ratio",
        "lower",
        "virtual_makespan_s everywhere",
    ),
    layer("mesh.box_mesh.s", "s", "lower", SETUP),
    layer("mesh.dual_build.s", "s", "lower", SETUP),
    layer("mesh.sfc_keys.s", "s", "lower", SETUP),
    layer(
        "partition.kway_initial.s",
        "s",
        "lower",
        "setup_s (its largest part on every workload)",
    ),
    layer(
        "partition.repartition_kway.s",
        "s",
        "lower",
        "nothing directly: the serial roofline of the balance path",
    ),
    layer(
        "partition.repartition_kway.edge_cut",
        "count",
        "lower",
        "nothing directly: quality of the serial roofline",
    ),
    layer(
        "partition.repartition_kway.imbalance",
        "ratio",
        "lower",
        "nothing directly: quality of the serial roofline",
    ),
    layer("adapt.new.s", "s", "lower", SETUP),
    layer("adapt.threshold.s", "s", "lower", ADAPT),
    layer("adapt.mark_upgrade.s", "s", "lower", ADAPT),
    layer("adapt.predict.s", "s", "lower", ADAPT),
    layer("adapt.refine.s", "s", "lower", ADAPT),
    layer("adapt.refine.elems_per_s", "1/s", "higher", ADAPT),
    layer(
        "adapt.coarsen.s",
        "s",
        "lower",
        "cycle_wall_s, cycle_wall_max_s@cascade_p64 only",
    ),
    layer(
        "solver.solve.s",
        "s",
        "lower",
        "cycle_wall_s@paper_p64 (~4%); negligible elsewhere",
    ),
    layer(
        "solver.error_indicator.s",
        "s",
        "lower",
        "cycle_wall_s@paper_p64; negligible elsewhere",
    ),
    layer("reassign.simmatrix.us", "us", "lower", MAPPER),
    layer("reassign.greedy_mwbg.us", "us", "lower", MAPPER),
    layer("remap.codec.ns_per_word", "ns", "lower", REMAP),
    layer("remap.words_moved", "count", "lower", REMAP),
    layer("remap.elems_moved", "count", "lower", REMAP),
    layer("core.plum_new.self_s", "s", "lower", SETUP),
    layer(
        "core.engine_new.s",
        "s",
        "lower",
        "cycle_wall_max_s@cascade_p64; setup_s",
    ),
    layer(
        "core.ownership_build.s",
        "s",
        "lower",
        "cycle_wall_max_s@cascade_p64",
    ),
    layer("core.parallel_mark.wall_s", "s", "lower", WEAK),
    layer("core.parallel_mark.sweeps", "count", "lower", WEAK),
    layer("core.parallel_reassign.wall_s", "s", "lower", WEAK),
    layer(
        "core.parallel_migrate.wall_s",
        "s",
        "lower",
        "cycle_wall_s@paper_p64, cascade_p64",
    ),
    layer(
        "core.cycle.wall_s",
        "s",
        "lower",
        "cycle_wall_s (the same cycles, under spans)",
    ),
    layer(
        "core.cycle.self_s",
        "s",
        "lower",
        "cycle_wall_s@weak_p2048, multilevel_p256",
    ),
    layer(
        "core.balance_path.wall_s",
        "s",
        "lower",
        "cycle_wall_s@multilevel_p256 (dominant), weak_p2048, paper_p64",
    ),
    layer(
        "core.balance_path.events",
        "count",
        "lower",
        "cycle_wall_s@multilevel_p256",
    ),
    layer("core.cycle.cpu_user_s", "s", "lower", "cycle_wall_s"),
    layer("core.cycle.cpu_sys_s", "s", "lower", WEAK),
    layer("core.cycle.minflt", "count", "lower", WEAK),
    layer("core.cycle.rss_growth_mb", "MB", "lower", WEAK),
    layer(
        "core.drop.rss_retained_mb",
        "MB",
        "lower",
        "peak_rss_mb of a longer run @weak_p2048",
    ),
    layer(
        "core.tracing_overhead_share",
        "ratio",
        "lower",
        "none: the cost of the spans themselves",
    ),
    layer("core.virtual.solver_s", "s", "lower", VIRTUAL),
    layer("core.virtual.marking_s", "s", "lower", VIRTUAL),
    layer("core.virtual.partition_s", "s", "lower", VIRTUAL),
    layer("core.virtual.remap_s", "s", "lower", VIRTUAL),
    layer("core.virtual.subdivide_s", "s", "lower", VIRTUAL),
    layer(
        "core.virtual.coarsen_s",
        "s",
        "lower",
        "virtual_makespan_s@cascade_p64",
    ),
    layer(
        "core.balance.accept_share",
        "ratio",
        "higher",
        "imbalance_after, virtual_makespan_s",
    ),
    layer(
        "obs.digest.ns_per_event",
        "ns",
        "lower",
        "none of the six; what reproduce/explain users pay",
    ),
];

/// Per-layer metrics only some workloads' `plum-e2e trace` emits, with
/// their units: the optimal mappers (P <= 256), the method sweep
/// (`multilevel_p256`) and the scale probe (`weak_p2048`). They are not part
/// of the driver contract, which wants every metric on every workload.
pub fn extra_layers() -> Vec<(String, &'static str)> {
    let mut out = vec![
        ("reassign.optimal_mwbg.us".to_string(), "us"),
        ("reassign.optimal_bmcm.us".to_string(), "us"),
        ("core.scale.p4096.cycle_wall_s".to_string(), "s"),
        ("core.scale.p4096.minflt".to_string(), "count"),
        ("core.scale.p4096.rss_mb".to_string(), "MB"),
    ];
    for m in METHODS {
        out.push((format!("core.method.{}.wall_s", m.name()), "s"));
        out.push((format!("core.method.{}.virtual_partition_s", m.name()), "s"));
        out.push((format!("core.method.{}.imbalance_after", m.name()), "ratio"));
    }
    out
}

/// The unit of any metric this package emits.
pub fn unit_of(name: &str) -> &'static str {
    if name == OP_FAIL_SHARE {
        return "ratio";
    }
    let declared = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|l| (l.name, l.unit)))
        .find_map(|(n, u)| (n == name).then_some(u));
    declared
        .or_else(|| {
            extra_layers()
                .into_iter()
                .find_map(|(n, u)| (n == name).then_some(u))
        })
        .unwrap_or("")
}

/// How long one driver run measures, in seconds.
pub const RUN_SECONDS: u32 = 15;

/// The canonical text of the repo-root `BENCHMARK.json`.
pub fn manifest() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"benchmarks/e2e/Cargo.toml\", \"--\", \"bench\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmarks/e2e\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"lower\", \"bound\": {}}}",
                m.name, m.unit, m.bound
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|l| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                l.name, l.unit, l.better
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_counts_meet_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(
                valid_name(w.name) && w.why.len() <= 200 && !w.why.contains('\n'),
                "{}",
                w.name
            );
            assert!(seen.insert(w.name.to_string()), "duplicate {}", w.name);
        }
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|l| (l.name, l.unit)))
        {
            assert!(valid_name(name) && valid_unit(unit), "{name} [{unit}]");
            assert!(seen.insert(name.to_string()), "duplicate {name}");
        }
        for (name, unit) in extra_layers() {
            assert!(valid_name(&name) && valid_unit(unit), "{name}");
            assert!(seen.insert(name.clone()), "duplicate {name}");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER
            .iter()
            .all(|l| l.better == "lower" || l.better == "higher"));
        let setup = &END_TO_END[0];
        assert_eq!((setup.name, setup.unit), ("setup_s", "s"));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }

    /// The repo-root `BENCHMARK.json` is exactly what these tables generate
    /// (regenerate with `plum-e2e manifest > BENCHMARK.json`).
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(on_disk, manifest());
        assert!(on_disk.len() <= 64 * 1024);
    }

    /// The API rule: the harness names no `plum_*` path outside this list,
    /// so later PRs cannot break a directory they may not edit.
    #[test]
    fn harness_imports_only_the_allowed_api() {
        const ALLOWED: [&str; 38] = [
            "plum_core::Plum",
            "plum_core::PlumConfig",
            "plum_core::BalanceMethod",
            "plum_core::RemapPolicy",
            "plum_core::Mapper",
            "plum_core::CycleReport",
            "plum_core::CycleEngine",
            "plum_core::Ownership",
            "plum_core::parallel_mark",
            "plum_core::parallel_migrate",
            "plum_core::parallel_reassign",
            "plum_mesh::generate::box_mesh",
            "plum_mesh::generate::box_dims_for_elements",
            "plum_mesh::DualGraph",
            "plum_mesh::sfc::element_keys",
            "plum_adapt::AdaptiveMesh",
            "plum_solver::solve",
            "plum_solver::edge_error_indicator",
            "plum_solver::SolverConfig",
            "plum_solver::WaveField",
            "plum_partition::partition_kway",
            "plum_partition::repartition_kway",
            "plum_partition::Graph",
            "plum_partition::PartitionConfig",
            "plum_partition::edge_cut",
            "plum_partition::imbalance",
            "plum_reassign::SimilarityMatrix",
            "plum_reassign::greedy_mwbg",
            "plum_reassign::optimal_mwbg",
            "plum_reassign::optimal_bmcm",
            "plum_remap::Packer",
            "plum_remap::Unpacker",
            "plum_parsim::Session",
            "plum_parsim::Comm",
            "plum_parsim::MachineModel",
            "plum_parsim::TraceLog",
            "plum_parsim::check_protocol",
            "plum_obs::TraceDigest",
        ];
        let src = concat!(env!("CARGO_MANIFEST_DIR"), "/src");
        let mut used = Vec::new();
        for entry in std::fs::read_dir(src).unwrap() {
            let text = std::fs::read_to_string(entry.unwrap().path()).unwrap();
            // Code only: no comments, and nothing of the unit tests (this
            // list itself would otherwise count as use).
            let code: Vec<&str> = text
                .split("#[cfg(test)]")
                .next()
                .unwrap()
                .lines()
                .filter(|l| !l.trim_start().starts_with("//"))
                .collect();
            for statement in code.join(" ").split(';') {
                let Some(at) = statement.find("use plum_") else {
                    // `plum_<crate>::` anywhere else is an inline path.
                    let inline = statement.match_indices("plum_").any(|(i, _)| {
                        statement[i..]
                            .trim_start_matches(|c: char| c.is_ascii_alphanumeric() || c == '_')
                            .starts_with("::")
                    });
                    assert!(!inline, "a plum_ path outside a use: {statement}");
                    continue;
                };
                let path: String = statement[at + 4..].split_whitespace().collect();
                match path.split_once("::{") {
                    Some((prefix, leaves)) => used.extend(
                        leaves
                            .trim_end_matches('}')
                            .split(',')
                            .filter(|leaf| !leaf.is_empty())
                            .map(|leaf| format!("{prefix}::{leaf}")),
                    ),
                    None => used.push(path),
                }
            }
        }
        assert!(used.len() > 30, "the scan found the imports: {used:?}");
        for path in used {
            assert!(
                ALLOWED.contains(&path.as_str()),
                "{path} is outside the API rule's list"
            );
        }
    }
}
