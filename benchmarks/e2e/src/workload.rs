//! The four workloads, the seed → inputs mapping, and the child's input
//! record. The harness generates inputs from `(workload, seed)`; the child
//! process receives only the generated inputs as command-line arguments.

use plum_core::BalanceMethod;
use plum_mesh::generate::box_dims_for_elements;

/// One step of a workload: a refinement or a coarsening cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// `Plum::adaption_cycle(frac, dt)`.
    Refine { frac: f64, dt: f64 },
    /// `Plum::coarsen_cycle(frac, dt)`.
    Coarsen { frac: f64, dt: f64 },
}

/// Every `BalanceMethod`, in the order the method sweep reports them.
pub const METHODS: [BalanceMethod; 6] = [
    BalanceMethod::Multilevel,
    BalanceMethod::SfcDiffusion,
    BalanceMethod::Sfc,
    BalanceMethod::Knapsack,
    BalanceMethod::Diffusion2,
    BalanceMethod::Voronoi,
];

/// The generated inputs of one child run.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// `box_mesh` cell counts (6 elements per cell).
    pub dims: (usize, usize, usize),
    /// Number of virtual processors P.
    pub nproc: usize,
    /// `PlumConfig::force_method`; `None` lets the policy choose.
    pub method: Option<BalanceMethod>,
    /// `PlumConfig::imbalance_trigger`; `None` keeps the default.
    pub trigger: Option<f64>,
    /// The cycles, in order.
    pub ops: Vec<Op>,
    /// `plum.time` before the first cycle: where the wave starts.
    pub t0: f64,
}

/// A named workload and the reason it exists.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "paper_p64",
        why: "The paper's shape: 61k elements, P=64, policy-chosen multilevel; host time sits in adapt, solver, mesh",
    },
    Workload {
        name: "weak_p2048",
        why: "16 elements per rank at P=2048, SFC diffusion: collectives, marking sweeps and memory dominate, kernels are ~1%",
    },
    Workload {
        name: "multilevel_p256",
        why: "32 elements per rank at P=256, forced multilevel: point-to-point match negotiation and trace volume dominate",
    },
    Workload {
        name: "cascade_p64",
        why: "20k elements, P=64, two waves of refine x2 then coarsen x2: coarsening, engine rebuilds and re-refinement",
    },
];

/// The seed nudges the wave's start time: enough to change which edges sit
/// at the marking threshold (other marks, partitions and assignments), too
/// little to change a workload's character — 0.37 per seed was measured to
/// move `cycle_wall_s` by 36% and `imbalance_after` by 3x between seeds, and
/// even past 0.0021 the heaviest root element of `multilevel_p256` changes
/// and with it `imbalance_after` by 11% (3.26 -> 2.90; README.md has the
/// sweep), which no regression bound survives. Sixteen distinct inputs in
/// [0, 0.0015]; seed 0 is the baseline. The stride of 3 makes any run of
/// consecutive seeds cover the whole range, and puts the held-out seed 5 at
/// its far end, where every workload's virtual metrics differ from seed 0.
pub fn t0_for_seed(seed: u64) -> f64 {
    0.0001 * (3 * (seed % 16) % 16) as f64
}

/// Inputs of `workload` under `seed`. `smoke` shrinks every shape to
/// P <= 16 and N <= 2k for the package's own tests.
pub fn spec(workload: &str, seed: u64, smoke: bool) -> Option<Spec> {
    let refine = |frac, dt, n| vec![Op::Refine { frac, dt }; n];
    let (elements, nproc, method, trigger, ops) = match workload {
        "paper_p64" => {
            let (n, p) = if smoke { (1_500, 8) } else { (60_968, 64) };
            (n, p, None, None, refine(0.33, 0.1, 2))
        }
        "weak_p2048" => {
            let p = if smoke { 16 } else { 2048 };
            let m = Some(BalanceMethod::SfcDiffusion);
            (16 * p, p, m, Some(1.01), refine(0.05, 0.1, 3))
        }
        "multilevel_p256" => {
            let p = if smoke { 16 } else { 256 };
            let m = Some(BalanceMethod::Multilevel);
            (32 * p, p, m, Some(1.01), refine(0.05, 0.1, 3))
        }
        "cascade_p64" => {
            let (n, p) = if smoke { (1_000, 8) } else { (20_000, 64) };
            let wave = [
                Op::Refine {
                    frac: 0.3,
                    dt: 0.15,
                },
                Op::Refine {
                    frac: 0.3,
                    dt: 0.15,
                },
                Op::Coarsen { frac: 0.6, dt: 0.3 },
                Op::Coarsen { frac: 0.6, dt: 0.3 },
            ];
            (n, p, None, None, [wave, wave].concat())
        }
        _ => return None,
    };
    Some(Spec {
        dims: box_dims_for_elements(elements),
        nproc,
        method,
        trigger,
        ops,
        t0: t0_for_seed(seed),
    })
}

/// One cycle at the `multilevel_p256` shape with the balancer pinned to
/// `method` (the traced run's method sweep).
pub fn method_sweep_spec(method: BalanceMethod, seed: u64, smoke: bool) -> Spec {
    let mut s = spec("multilevel_p256", seed, smoke).expect("known workload");
    s.method = Some(method);
    s.ops.truncate(1);
    s
}

/// One cycle of the `weak_p2048` recipe at twice the ranks (P=4096; the
/// traced run's single-sample scale probe).
pub fn scale_probe_spec(seed: u64, smoke: bool) -> Spec {
    let mut s = spec("weak_p2048", seed, smoke).expect("known workload");
    s.nproc *= 2;
    s.dims = box_dims_for_elements(16 * s.nproc);
    s.ops.truncate(1);
    s
}

fn method_by_name(name: &str) -> Option<BalanceMethod> {
    METHODS.into_iter().find(|m| m.name() == name)
}

impl Spec {
    /// The child's command-line arguments.
    pub fn to_args(&self) -> Vec<String> {
        let ops: Vec<String> = self
            .ops
            .iter()
            .map(|op| match op {
                Op::Refine { frac, dt } => format!("r:{frac}:{dt}"),
                Op::Coarsen { frac, dt } => format!("c:{frac}:{dt}"),
            })
            .collect();
        let (nx, ny, nz) = self.dims;
        vec![
            format!("--dims={nx},{ny},{nz}"),
            format!("--nproc={}", self.nproc),
            format!("--method={}", self.method.map_or("auto", |m| m.name())),
            format!(
                "--trigger={}",
                self.trigger.map_or("default".into(), |t| t.to_string())
            ),
            format!("--ops={}", ops.join(",")),
            format!("--t0={}", self.t0),
        ]
    }

    /// Parse what [`Spec::to_args`] wrote. Input arrives from the command
    /// line, so every field is checked.
    pub fn from_args(args: &[String]) -> Result<Spec, String> {
        let get = |key: &str| -> Result<&str, String> {
            args.iter()
                .find_map(|a| a.strip_prefix(key)?.strip_prefix('='))
                .ok_or_else(|| format!("missing {key}"))
        };
        let num = |s: &str| {
            s.parse::<f64>()
                .map_err(|e| format!("bad number {s:?}: {e}"))
        };
        let int = |s: &str| {
            s.parse::<usize>()
                .map_err(|e| format!("bad count {s:?}: {e}"))
        };

        let dims: Vec<usize> = get("--dims")?
            .split(',')
            .map(int)
            .collect::<Result<_, _>>()?;
        let &[nx, ny, nz] = dims.as_slice() else {
            return Err("--dims wants nx,ny,nz".into());
        };
        let nproc = int(get("--nproc")?)?;
        if nx * ny * nz == 0 || nproc == 0 {
            return Err("dims and nproc must be positive".into());
        }
        let method = match get("--method")? {
            "auto" => None,
            name => Some(method_by_name(name).ok_or_else(|| format!("unknown method {name}"))?),
        };
        let trigger = match get("--trigger")? {
            "default" => None,
            t => Some(num(t)?),
        };
        let mut ops = Vec::new();
        for op in get("--ops")?.split(',') {
            let parts: Vec<&str> = op.split(':').collect();
            let &[kind, frac, dt] = parts.as_slice() else {
                return Err(format!("bad op {op:?}"));
            };
            let (frac, dt) = (num(frac)?, num(dt)?);
            if !(0.0..=1.0).contains(&frac) {
                return Err(format!("fraction out of range in {op:?}"));
            }
            ops.push(match kind {
                "r" => Op::Refine { frac, dt },
                "c" => Op::Coarsen { frac, dt },
                _ => return Err(format!("bad op kind in {op:?}")),
            });
        }
        Ok(Spec {
            dims: (nx, ny, nz),
            nproc,
            method,
            trigger,
            ops,
            t0: num(get("--t0")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_through_args() {
        for w in &WORKLOADS {
            for smoke in [false, true] {
                let s = spec(w.name, 5, smoke).unwrap();
                assert_eq!(Spec::from_args(&s.to_args()).unwrap(), s);
            }
        }
        let s = scale_probe_spec(0, false);
        assert_eq!(s.nproc, 4096);
        assert_eq!(Spec::from_args(&s.to_args()).unwrap(), s);
    }

    #[test]
    fn smoke_shapes_are_small() {
        for w in &WORKLOADS {
            let s = spec(w.name, 0, true).unwrap();
            let (nx, ny, nz) = s.dims;
            assert!(
                s.nproc <= 16 && 6 * nx * ny * nz <= 2_000,
                "{}: {s:?}",
                w.name
            );
        }
    }

    #[test]
    fn seed_reaches_the_inputs() {
        assert_eq!(t0_for_seed(0), 0.0);
        assert_eq!(t0_for_seed(5), 0.0001 * 15.0);
        let mut all: Vec<f64> = (0..16).map(t0_for_seed).collect();
        all.sort_unstable_by(f64::total_cmp);
        all.dedup();
        assert_eq!(all.len(), 16, "sixteen distinct inputs");
        assert_ne!(spec("paper_p64", 0, false), spec("paper_p64", 5, false));
        assert_eq!(spec("paper_p64", 3, false), spec("paper_p64", 19, false));
    }

    #[test]
    fn bad_args_are_rejected() {
        let mut args = spec("cascade_p64", 0, true).unwrap().to_args();
        args[4] = "--ops=r:2.0:0.1".into();
        assert!(Spec::from_args(&args).is_err());
        assert!(Spec::from_args(&args[..3]).is_err());
    }
}
