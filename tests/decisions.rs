//! Decisions are pinned, not pasted: per cycle, what the balancer decided
//! and what the cycle left behind, for the four `plum-e2e` workload shapes
//! under four seeds.
//!
//! Each shape is rebuilt here from the public API (`benchmarks/e2e/` is a
//! frozen harness, and this pin must not depend on it): the workload's
//! method (forced, or `None` for the policy), imbalance trigger and cycle
//! list, the greedy mapper remapping before refinement, and the wave's start
//! time `t0 = 0.0001·(3·S mod 16)` for seed `S`. Every cycle pins
//!
//! * the FNV-1a of `proc_of_root` after the cycle;
//! * the element count;
//! * the bits of `imbalance_after` (`wmax_balanced · P / elements`);
//! * the `balance.method` code (0: nothing repartitioned);
//! * the elements migrated.
//!
//! A change that keeps every balance decision passes this file unedited; a
//! change that moves one fails it and names the first diverging
//! (workload, seed, cycle) with both sides' method and moved elements, then
//! prints the whole table as it now reads, ready to re-record.
//!
//! The tier-1 table runs the `--smoke` shapes plus one P = 256 multi-cycle
//! multilevel row and one row at the policy's mild/severe boundary. The full shapes (P = 2048 / 256 / 64) run in release:
//! `cargo test --release --test decisions -- --ignored`.

use plum_core::{BalanceMethod, CycleReport, Plum, PlumConfig, RemapPolicy};
use plum_mesh::generate::{box_dims_for_elements, box_mesh};
use plum_solver::WaveField;

#[derive(Clone, Copy)]
enum Op {
    Refine(f64, f64),
    Coarsen(f64, f64),
}

/// One workload shape: elements asked for, P, forced method (`None`: the
/// policy picks), imbalance trigger (`None`: the default), cycles.
struct Shape {
    name: &'static str,
    elements: usize,
    nproc: usize,
    method: Option<BalanceMethod>,
    trigger: Option<f64>,
    ops: &'static [Op],
}

const R33: Op = Op::Refine(0.33, 0.1);
const R05: Op = Op::Refine(0.05, 0.1);
const R30: Op = Op::Refine(0.3, 0.15);
const R005: Op = Op::Refine(0.005, 0.1);
const C60: Op = Op::Coarsen(0.6, 0.3);
const PAPER: &[Op] = &[R33, R33];
const WEAK: &[Op] = &[R05, R05, R05];
const CASCADE: &[Op] = &[R30, R30, C60, C60, R30, R30, C60, C60];
const MILD: &[Op] = &[R005, R005, R005];

const fn shape(
    name: &'static str,
    elements: usize,
    nproc: usize,
    method: Option<BalanceMethod>,
    trigger: Option<f64>,
    ops: &'static [Op],
) -> Shape {
    Shape {
        name,
        elements,
        nproc,
        method,
        trigger,
        ops,
    }
}

const SFC_DIFFUSION: Option<BalanceMethod> = Some(BalanceMethod::SfcDiffusion);
const MULTILEVEL: Option<BalanceMethod> = Some(BalanceMethod::Multilevel);
const EAGER: Option<f64> = Some(1.01);

/// The `--smoke` shapes.
const SMOKE: [Shape; 4] = [
    shape("paper_p64", 1_500, 8, None, None, PAPER),
    shape("weak_p2048", 16 * 16, 16, SFC_DIFFUSION, EAGER, WEAK),
    shape("multilevel_p256", 32 * 16, 16, MULTILEVEL, EAGER, WEAK),
    shape("cascade_p64", 1_000, 8, None, None, CASCADE),
];

/// The full shapes.
const FULL: [Shape; 4] = [
    shape("paper_p64", 60_968, 64, None, None, PAPER),
    shape("weak_p2048", 16 * 2048, 2048, SFC_DIFFUSION, EAGER, WEAK),
    shape("multilevel_p256", 32 * 256, 256, MULTILEVEL, EAGER, WEAK),
    shape("cascade_p64", 20_000, 64, None, None, CASCADE),
];

/// The policy's own tier boundary. No e2e shape's policy cycle comes
/// within 0.1 of `sfc_threshold` (their triggered imbalances are 1.21 to
/// 3.39), so none of them can tell 1.1 from 1.2. At the `paper_p64` smoke
/// mesh with an eager trigger and 0.5 % refinement, the policy sees 1.244,
/// 1.150 and 1.184 and picks multilevel each time: this row pins the
/// severe side of the boundary. The mild side, an SFC diffusion decision
/// between 1.02 and 1.1, is pinned end to end by the fig6_mild report's
/// bit-for-bit check in `plum-bench`.
const MILD_P8: Shape = shape("mild_p8", 1_500, 8, None, EAGER, MILD);

const SEEDS: [u64; 4] = [0, 3, 5, 7];

/// Per cycle: (FNV of `proc_of_root`, elements, `imbalance_after` bits,
/// method code, moved elements).
type Cycle = (u64, usize, u64, u32, u64);

/// 64-bit FNV-1a over the assignment (the hash `plum-e2e` prints).
fn fnv(xs: &[u32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in xs.iter().flat_map(|x| x.to_le_bytes()) {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn t0_for_seed(seed: u64) -> f64 {
    0.0001 * (3 * (seed % 16) % 16) as f64
}

/// Run `shape` under `seed` and read off each cycle's decision record.
fn run(shape: &Shape, seed: u64) -> Vec<Cycle> {
    let mut cfg = PlumConfig::new(shape.nproc);
    cfg.policy = RemapPolicy::BeforeRefinement;
    cfg.force_method = shape.method;
    if let Some(t) = shape.trigger {
        cfg.imbalance_trigger = t;
    }
    let (nx, ny, nz) = box_dims_for_elements(shape.elements);
    let mesh = box_mesh(nx, ny, nz, [0.0; 3], [1.0; 3]);
    let mut plum = Plum::new(mesh, WaveField::unit_box(), cfg);
    plum.time = t0_for_seed(seed);
    let record = |plum: &Plum, r: &CycleReport| {
        let elements = r.counts.elements;
        let imbalance = r.wmax_balanced as f64 * shape.nproc as f64 / elements as f64;
        (
            fnv(&plum.proc_of_root),
            elements,
            imbalance.to_bits(),
            r.decision.method.map_or(0, BalanceMethod::code),
            r.migration.as_ref().map_or(0, |m| m.elems_moved),
        )
    };
    shape
        .ops
        .iter()
        .map(|&op| {
            let report = match op {
                Op::Refine(frac, dt) => plum.adaption_cycle(frac, dt),
                Op::Coarsen(frac, dt) => plum.coarsen_cycle(frac, dt),
            };
            record(&plum, &report)
        })
        .collect()
}

/// Run every `(shape, seed)` row and compare it with `pinned`, a table in
/// the same row order. Panics at the first diverging cycle, naming it and
/// both sides' method and moved elements, and prints the table as it now
/// reads.
fn check(rows: &[(&Shape, u64)], pinned: &[(&str, u64, &[Cycle])]) {
    let got: Vec<Vec<Cycle>> = rows.iter().map(|&(s, seed)| run(s, seed)).collect();
    let mut table = String::new();
    for (&(s, seed), cycles) in rows.iter().zip(&got) {
        table += &format!("    (\"{}\", {seed}, &[\n", s.name);
        for (h, e, bits, m, moved) in cycles {
            table += &format!("        ({h:#018x}, {e}, {bits:#018x}, {m}, {moved}),\n");
        }
        table += "    ]),\n";
    }
    assert_eq!(
        rows.len(),
        pinned.len(),
        "one pinned row per (shape, seed); the table now reads:\n{table}"
    );
    for ((&(s, seed), cycles), &(name, pseed, want)) in rows.iter().zip(&got).zip(pinned) {
        assert_eq!((s.name, seed), (name, pseed), "pinned rows out of order");
        let first = (0..cycles.len().max(want.len())).find(|&i| cycles.get(i) != want.get(i));
        if let Some(i) = first {
            let side = |c: Option<&Cycle>| {
                c.map_or("no such cycle".to_string(), |c| {
                    format!(
                        "method {} moved {} (elements {}, imbalance {}, hash {:016x})",
                        c.3,
                        c.4,
                        c.1,
                        f64::from_bits(c.2),
                        c.0
                    )
                })
            };
            panic!(
                "decision diverged at ({name}, seed {seed}, cycle {i}):\n  \
                 pinned: {}\n  got:    {}\nthe table now reads:\n{table}",
                side(want.get(i)),
                side(cycles.get(i)),
            );
        }
    }
}

fn rows(shapes: &[Shape]) -> Vec<(&Shape, u64)> {
    shapes
        .iter()
        .flat_map(|s| SEEDS.iter().map(move |&seed| (s, seed)))
        .collect()
}

/// The smoke shapes × seeds {0, 3, 5, 7}.
#[rustfmt::skip]
const PINNED_SMOKE: &[(&str, u64, &[Cycle])] = &[
    ("paper_p64", 0, &[
        (0xb26467a6f44fed17, 5505, 0x3ff0cf9716bd7436, 1, 537),
        (0x00331a666a0887e3, 18711, 0x3ff0c45c6f269fab, 1, 1975),
    ]),
    ("paper_p64", 3, &[
        (0xb26467a6f44fed17, 5505, 0x3ff0cf9716bd7436, 1, 537),
        (0x00331a666a0887e3, 18711, 0x3ff0c45c6f269fab, 1, 1975),
    ]),
    ("paper_p64", 5, &[
        (0xb26467a6f44fed17, 5505, 0x3ff0cf9716bd7436, 1, 537),
        (0x2690f7fa21fb3830, 18719, 0x3ff098839e06897f, 1, 2216),
    ]),
    ("paper_p64", 7, &[
        (0xb26467a6f44fed17, 5505, 0x3ff0cf9716bd7436, 1, 537),
        (0x00331a666a0887e3, 18711, 0x3ff0c45c6f269fab, 1, 1975),
    ]),
    ("weak_p2048", 0, &[
        (0x5656bdf158b8f439, 366, 0x3ff17c80b30f6353, 2, 61),
        (0x5c6163e4f6c39e79, 530, 0x3ff3521cfb2b78c1, 2, 145),
        (0x41f231bff85fe954, 736, 0x3ff642c8590b2164, 2, 192),
    ]),
    ("weak_p2048", 3, &[
        (0x5656bdf158b8f439, 366, 0x3ff17c80b30f6353, 2, 61),
        (0x5c6163e4f6c39e79, 530, 0x3ff3521cfb2b78c1, 2, 145),
        (0x41f231bff85fe954, 736, 0x3ff642c8590b2164, 2, 192),
    ]),
    ("weak_p2048", 5, &[
        (0x5656bdf158b8f439, 366, 0x3ff17c80b30f6353, 2, 61),
        (0x5c6163e4f6c39e79, 530, 0x3ff3521cfb2b78c1, 2, 145),
        (0x41f231bff85fe954, 736, 0x3ff642c8590b2164, 2, 192),
    ]),
    ("weak_p2048", 7, &[
        (0x5656bdf158b8f439, 366, 0x3ff17c80b30f6353, 2, 61),
        (0x5c6163e4f6c39e79, 530, 0x3ff3521cfb2b78c1, 2, 145),
        (0x41f231bff85fe954, 736, 0x3ff642c8590b2164, 2, 192),
    ]),
    ("multilevel_p256", 0, &[
        (0xbfdab76a22c8de86, 661, 0x3ff10a74f65154d1, 1, 108),
        (0x983c12ce8681bb73, 909, 0x3ff0e5ceff27b5a6, 1, 271),
        (0x92460fbd7965b74f, 1248, 0x3ff0d20d20d20d21, 1, 324),
    ]),
    ("multilevel_p256", 3, &[
        (0xbfdab76a22c8de86, 661, 0x3ff10a74f65154d1, 1, 108),
        (0x983c12ce8681bb73, 909, 0x3ff0e5ceff27b5a6, 1, 271),
        (0x92460fbd7965b74f, 1248, 0x3ff0d20d20d20d21, 1, 324),
    ]),
    ("multilevel_p256", 5, &[
        (0xbfdab76a22c8de86, 661, 0x3ff10a74f65154d1, 1, 108),
        (0x983c12ce8681bb73, 909, 0x3ff0e5ceff27b5a6, 1, 271),
        (0x92460fbd7965b74f, 1248, 0x3ff0d20d20d20d21, 1, 324),
    ]),
    ("multilevel_p256", 7, &[
        (0xbfdab76a22c8de86, 661, 0x3ff10a74f65154d1, 1, 108),
        (0x983c12ce8681bb73, 909, 0x3ff0e5ceff27b5a6, 1, 271),
        (0x92460fbd7965b74f, 1248, 0x3ff0d20d20d20d21, 1, 324),
    ]),
    ("cascade_p64", 0, &[
        (0xaa10b01f69b92060, 3735, 0x3ff0b08fa95d48b9, 1, 409),
        (0xc92d04e50316a8f6, 11948, 0x3ff0ae26e8f207b7, 1, 1784),
        (0xeb3e926d93a01905, 2294, 0x3ff0d9d597fe36e8, 1, 1145),
        (0x06d4729bc23816a5, 1146, 0x3ff0dd993e19e9a9, 1, 398),
        (0xc0d8a488922fd953, 3798, 0x3ff0c898102d4ba1, 1, 427),
        (0x2ed30f407d25b630, 11842, 0x3ff08f328af5d6ed, 1, 1615),
        (0x734b820ea6756151, 2235, 0x3ff0d66be5e272c5, 1, 1159),
        (0x60c65b586ce76137, 1102, 0x3ff0d79435e50d79, 1, 266),
    ]),
    ("cascade_p64", 3, &[
        (0xaa10b01f69b92060, 3735, 0x3ff0b08fa95d48b9, 1, 409),
        (0x7d69b76f010676e7, 11973, 0x3ff0bb21605dbc7a, 1, 1784),
        (0xf0fede2af1b21632, 2294, 0x3ff0bd4412bf7f71, 1, 1294),
        (0x188213dbb02a65e7, 1146, 0x3ff0dd993e19e9a9, 1, 497),
        (0xba99b3f5dc0ef975, 3798, 0x3ff0c898102d4ba1, 1, 394),
        (0x36ecf08ff8b58162, 11765, 0x3ff0c139560f0397, 1, 2152),
        (0x580bc01ad775f550, 2375, 0x3ff0d0ae3012f890, 1, 1622),
        (0x476007207236a3e1, 1102, 0x3ff0d79435e50d79, 1, 527),
    ]),
    ("cascade_p64", 5, &[
        (0xaa10b01f69b92060, 3735, 0x3ff0b08fa95d48b9, 1, 409),
        (0x7d69b76f010676e7, 11973, 0x3ff0bb21605dbc7a, 1, 1784),
        (0xf0fede2af1b21632, 2294, 0x3ff0bd4412bf7f71, 1, 1294),
        (0x188213dbb02a65e7, 1146, 0x3ff0dd993e19e9a9, 1, 497),
        (0xfb6164d1b62dbf31, 3790, 0x3ff0c05f1ae22504, 1, 446),
        (0xcb5185a66a268ef7, 11804, 0x3ff0c67c0d887549, 1, 1345),
        (0xcd0ba9d0295a9da1, 2424, 0x3ff0d84a598ec915, 1, 995),
        (0xb795a816e2a9b775, 1102, 0x3ff0d79435e50d79, 1, 381),
    ]),
    ("cascade_p64", 7, &[
        (0xaa10b01f69b92060, 3735, 0x3ff0b08fa95d48b9, 1, 409),
        (0xc92d04e50316a8f6, 11948, 0x3ff0ae26e8f207b7, 1, 1784),
        (0xeb3e926d93a01905, 2294, 0x3ff0d9d597fe36e8, 1, 1145),
        (0x06d4729bc23816a5, 1146, 0x3ff0dd993e19e9a9, 1, 398),
        (0xc0d8a488922fd953, 3798, 0x3ff0c898102d4ba1, 1, 427),
        (0xa6599adf8e17d862, 11765, 0x3ff0cc5d643eeda8, 1, 1596),
        (0x08f39359abb99717, 2305, 0x3ff0d376b9eb57a1, 1, 1387),
        (0x83f5d417a69a3522, 1102, 0x3ff0d79435e50d79, 1, 439),
    ]),
];

/// The full `multilevel_p256` shape, three cycles, seed 0.
#[rustfmt::skip]
const PINNED_P256: &[(&str, u64, &[Cycle])] = &[
    ("multilevel_p256", 0, &[
        (0xf6345d17ac7b1972, 10958, 0x3ff0d21209107e57, 1, 2727),
        (0xf6345d17ac7b1972, 14969, 0x40143fb01972a281, 1, 0),
        (0xbecb9e632e766a48, 20393, 0x400d39619a246e04, 1, 7487),
    ]),
];

/// The policy's tier boundary, seed 0.
#[rustfmt::skip]
const PINNED_MILD: &[(&str, u64, &[Cycle])] = &[
    ("mild_p8", 0, &[
        (0x8df19f264a9f4e93, 1576, 0x3ff0cfeb354778da, 1, 262),
        (0xe5808951280be981, 1635, 0x3ff0d4f120190d4f, 1, 456),
        (0x17e65f98c0ff6bf4, 1689, 0x3ff0d2fbe85af0ff, 1, 561),
    ]),
];

/// The full shapes × seeds {0, 3, 5, 7}.
#[rustfmt::skip]
const PINNED_FULL: &[(&str, u64, &[Cycle])] = &[
    ("paper_p64", 0, &[
        (0x10f686f40328d2a2, 207715, 0x3ff0cd0597772355, 1, 18884),
        (0xe2507e35b9f774d5, 693597, 0x3ff0cd0e08af4853, 1, 75500),
    ]),
    ("paper_p64", 3, &[
        (0x6d1796c29222c320, 207707, 0x3ff0cd2ffffaf3a0, 1, 19417),
        (0x9d255ee1dc6e02d7, 693560, 0x3ff0cce8038513d6, 1, 85083),
    ]),
    ("paper_p64", 5, &[
        (0xb45de4537e253885, 207691, 0x3ff0cd84d384e715, 1, 18799),
        (0x09c02f7c613da1bb, 693512, 0x3ff0ccd373e4d1df, 1, 77122),
    ]),
    ("paper_p64", 7, &[
        (0x6d1796c29222c320, 207707, 0x3ff0cd2ffffaf3a0, 1, 19417),
        (0xe49e41fd7071d27b, 693547, 0x3ff0ccfca6d866f9, 1, 85984),
    ]),
    ("weak_p2048", 0, &[
        (0x713551bf2d69e589, 45085, 0x4018b61c2ccfe390, 2, 0),
        (0x713551bf2d69e589, 61118, 0x4040dae165e02656, 2, 0),
        (0x713551bf2d69e589, 82642, 0x403e15b89783bec0, 2, 0),
    ]),
    ("weak_p2048", 3, &[
        (0x713551bf2d69e589, 45085, 0x4018b61c2ccfe390, 2, 0),
        (0x713551bf2d69e589, 61102, 0x4040dc02a5dcca25, 2, 0),
        (0x713551bf2d69e589, 82635, 0x403dfcfeb6df64db, 2, 0),
    ]),
    ("weak_p2048", 5, &[
        (0x713551bf2d69e589, 45085, 0x4018b61c2ccfe390, 2, 0),
        (0x713551bf2d69e589, 61198, 0x4040d53d6aba8d2c, 2, 0),
        (0x713551bf2d69e589, 82791, 0x403ce48eb2004d93, 2, 0),
    ]),
    ("weak_p2048", 7, &[
        (0x713551bf2d69e589, 45085, 0x4018b61c2ccfe390, 2, 0),
        (0x713551bf2d69e589, 61102, 0x4040dc02a5dcca25, 2, 0),
        (0x713551bf2d69e589, 82637, 0x403dfccf26417bad, 2, 0),
    ]),
    ("multilevel_p256", 0, &[
        (0xf6345d17ac7b1972, 10958, 0x3ff0d21209107e57, 1, 2727),
        (0xf6345d17ac7b1972, 14969, 0x40143fb01972a281, 1, 0),
        (0xbecb9e632e766a48, 20393, 0x400d39619a246e04, 1, 7487),
    ]),
    ("multilevel_p256", 3, &[
        (0xf6345d17ac7b1972, 10958, 0x3ff0d21209107e57, 1, 2727),
        (0xf6345d17ac7b1972, 14969, 0x40143fb01972a281, 1, 0),
        (0xbecb9e632e766a48, 20393, 0x400d39619a246e04, 1, 7487),
    ]),
    ("multilevel_p256", 5, &[
        (0xf6345d17ac7b1972, 10958, 0x3ff0d21209107e57, 1, 2727),
        (0xf6345d17ac7b1972, 14962, 0x4014421cf33c65fa, 1, 0),
        (0x52be2e859a00eff9, 20376, 0x400d3f9f829021c6, 1, 7487),
    ]),
    ("multilevel_p256", 7, &[
        (0xf6345d17ac7b1972, 10958, 0x3ff0d21209107e57, 1, 2727),
        (0xf6345d17ac7b1972, 14969, 0x40143fb01972a281, 1, 0),
        (0xbecb9e632e766a48, 20393, 0x400d39619a246e04, 1, 7487),
    ]),
    ("cascade_p64", 0, &[
        (0x8b61193e9ec65aa8, 65395, 0x3ff0cd410cd410cd, 1, 7348),
        (0xe2208ed6f387bfd7, 205499, 0x3ff0cd7a8b020fcc, 1, 29273),
        (0x4dc765f7d0d10e8a, 42349, 0x3ff0ce1c4d7f3ab1, 1, 17661),
        (0xbdd575ca302ab1cc, 21779, 0x3ff0d515a3d25883, 1, 8829),
        (0x8160d87eb1be02cc, 70008, 0x3ff0ce6a30f88a50, 1, 8884),
        (0x9f058820c835ebee, 216291, 0x3ff0cd606bd4706b, 1, 30908),
        (0xcd614edf5cba349d, 49125, 0x3ff0cd077fb8a0a1, 1, 21151),
        (0x2c13c65f4decc79e, 20838, 0x3ff0ce646521d565, 1, 7155),
    ]),
    ("cascade_p64", 3, &[
        (0x8b61193e9ec65aa8, 65395, 0x3ff0cd410cd410cd, 1, 7348),
        (0x1b540642724c1350, 205480, 0x3ff0cde05d7320b4, 1, 29096),
        (0x59c67c0ffdb9178e, 42445, 0x3ff0d0bb808bbbe5, 1, 19335),
        (0x7627aceb50caa560, 21870, 0x3ff0cf241f8ee0b3, 1, 8981),
        (0xdb27fecbf2364951, 70355, 0x3ff0cf8d047517d1, 1, 9159),
        (0xb2c98e9b94b8a1d5, 217346, 0x3ff0cd006bf27a74, 1, 27276),
        (0x457576b1b49f7c07, 49525, 0x3ff0cf57dbfb4e74, 1, 20480),
        (0xda6f10eeac41909f, 20833, 0x3ff0cf6cbcfe121d, 1, 8138),
    ]),
    ("cascade_p64", 5, &[
        (0x8b61193e9ec65aa8, 65395, 0x3ff0cd410cd410cd, 1, 7348),
        (0xd18324154da2e2c6, 205490, 0x3ff0cdaac5ab453d, 1, 30108),
        (0x988c360cd2f3cf7d, 42445, 0x3ff0d0bb808bbbe5, 1, 17463),
        (0x088360000444a883, 21828, 0x3ff0d76bc1e36230, 1, 9166),
        (0x5d296608cb2f9dd9, 70159, 0x3ff0d05d3c4c1d78, 1, 8886),
        (0x3d9af8fc7fc7ebe7, 216654, 0x3ff0cd6df7ad3fea, 1, 28213),
        (0xad34bbaffa6ad283, 49397, 0x3ff0cfe1670b2dbc, 1, 19462),
        (0x8e7d51c23fb2dbc0, 20782, 0x3ff0cd5f1f503146, 1, 7155),
    ]),
    ("cascade_p64", 7, &[
        (0x8b61193e9ec65aa8, 65395, 0x3ff0cd410cd410cd, 1, 7348),
        (0x9fc62b28fc22db09, 205496, 0x3ff0cd8a9e71092e, 1, 29067),
        (0x02dafa117db835b8, 42439, 0x3ff0d1574dc8f971, 1, 18066),
        (0x5efe6705700131b5, 21870, 0x3ff0cf241f8ee0b3, 1, 9519),
        (0x5ceee7dc79f35912, 70355, 0x3ff0cf8d047517d1, 1, 8220),
        (0xbab3d1de34ed867a, 217322, 0x3ff0cc4537c4892a, 1, 29629),
        (0x5b92195c6502bdf2, 49548, 0x3ff0cd5879855cf0, 1, 20772),
        (0xde9737b8a4952976, 20839, 0x3ff0ce2f8aa82d4e, 1, 7400),
    ]),
];

#[test]
fn smoke_shapes_decide_as_pinned() {
    check(&rows(&SMOKE), PINNED_SMOKE);
}

#[test]
fn multilevel_p256_decides_as_pinned_over_three_cycles() {
    check(&[(&FULL[2], 0)], PINNED_P256);
}

#[test]
fn policy_tier_boundary_decides_as_pinned() {
    check(&[(&MILD_P8, 0)], PINNED_MILD);
}

/// The hand-run "16/16 identical" of `plum-e2e child verify` (4 workloads
/// × seeds 0, 3, 5, 7) as a test; release only.
#[test]
#[ignore = "full e2e shapes: run in release with --ignored"]
fn full_e2e_shapes_decide_as_pinned() {
    check(&rows(&FULL), PINNED_FULL);
}
