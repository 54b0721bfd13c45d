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
//! multilevel row and two rows at the policy's mild/severe boundary. The full shapes (P = 2048 / 256 / 64) run in release:
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
const R002: Op = Op::Refine(0.002, 0.1);
const C60: Op = Op::Coarsen(0.6, 0.3);
const PAPER: &[Op] = &[R33, R33];
const WEAK: &[Op] = &[R05, R05, R05];
const CASCADE: &[Op] = &[R30, R30, C60, C60, R30, R30, C60, C60];
const MILDER: &[Op] = &[R002, R002, R002];

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
/// mesh with an eager trigger and 0.2 % refinement, the policy sees 1.130,
/// 1.082 and 1.049: multilevel, then SFC diffusion twice, so this row
/// crosses the boundary from the severe side — where it lands in its
/// second cycle depends on how well multilevel balanced the first. (At
/// 0.5 % refinement the third cycle sat within 0.03 of the threshold and
/// fell on either side as multilevel's cut changed.)
const MILD_P8: Shape = shape("mild_p8", 1_500, 8, None, EAGER, MILDER);

/// The mild side on its own: the same mesh over P = 4 with 0.2 %
/// refinement, where the policy sees 1.034, 1.015 and 1.024 and picks SFC
/// diffusion every cycle.
const MILD_P4: Shape = shape("mild_p4", 1_500, 4, None, EAGER, MILDER);

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
        (0x83c08c1057d53b60, 5505, 0x3ff0b7c7d2fc23e7, 1, 306),
        (0xc11f01dc72691f61, 18711, 0x3ff0c45c6f269fab, 1, 1295),
    ]),
    ("paper_p64", 3, &[
        (0x83c08c1057d53b60, 5505, 0x3ff0b7c7d2fc23e7, 1, 306),
        (0xc11f01dc72691f61, 18711, 0x3ff0c45c6f269fab, 1, 1295),
    ]),
    ("paper_p64", 5, &[
        (0x83c08c1057d53b60, 5505, 0x3ff0b7c7d2fc23e7, 1, 306),
        (0x87bfbba8cd0318a6, 18719, 0x3ff0b485c03023ab, 1, 1217),
    ]),
    ("paper_p64", 7, &[
        (0x83c08c1057d53b60, 5505, 0x3ff0b7c7d2fc23e7, 1, 306),
        (0xc11f01dc72691f61, 18711, 0x3ff0c45c6f269fab, 1, 1295),
    ]),
    ("weak_p2048", 0, &[
        (0xe45057aa2574faae, 366, 0x3ff17c80b30f6353, 2, 22),
        (0xcb85d64e3125c94b, 530, 0x3ff72f55fa342a81, 2, 38),
        (0xa181a25befaf75b8, 736, 0x3ffcde9bd37a6f4e, 2, 62),
    ]),
    ("weak_p2048", 3, &[
        (0xe45057aa2574faae, 366, 0x3ff17c80b30f6353, 2, 22),
        (0xcb85d64e3125c94b, 530, 0x3ff72f55fa342a81, 2, 38),
        (0xa181a25befaf75b8, 736, 0x3ffcde9bd37a6f4e, 2, 62),
    ]),
    ("weak_p2048", 5, &[
        (0xe45057aa2574faae, 366, 0x3ff17c80b30f6353, 2, 22),
        (0xcb85d64e3125c94b, 530, 0x3ff72f55fa342a81, 2, 38),
        (0xa181a25befaf75b8, 736, 0x3ffcde9bd37a6f4e, 2, 62),
    ]),
    ("weak_p2048", 7, &[
        (0xe45057aa2574faae, 366, 0x3ff17c80b30f6353, 2, 22),
        (0xcb85d64e3125c94b, 530, 0x3ff72f55fa342a81, 2, 38),
        (0xa181a25befaf75b8, 736, 0x3ffcde9bd37a6f4e, 2, 62),
    ]),
    ("multilevel_p256", 0, &[
        (0xc4a9324ae736e9e6, 661, 0x3ff10a74f65154d1, 1, 107),
        (0xe9dd4c855af890fb, 909, 0x3ff0e5ceff27b5a6, 1, 276),
        (0x8d6ac992184328a6, 1248, 0x3ff0d20d20d20d21, 1, 404),
    ]),
    ("multilevel_p256", 3, &[
        (0xc4a9324ae736e9e6, 661, 0x3ff10a74f65154d1, 1, 107),
        (0xe9dd4c855af890fb, 909, 0x3ff0e5ceff27b5a6, 1, 276),
        (0x8d6ac992184328a6, 1248, 0x3ff0d20d20d20d21, 1, 404),
    ]),
    ("multilevel_p256", 5, &[
        (0xc4a9324ae736e9e6, 661, 0x3ff10a74f65154d1, 1, 107),
        (0xe9dd4c855af890fb, 909, 0x3ff0e5ceff27b5a6, 1, 276),
        (0x8d6ac992184328a6, 1248, 0x3ff0d20d20d20d21, 1, 404),
    ]),
    ("multilevel_p256", 7, &[
        (0xc4a9324ae736e9e6, 661, 0x3ff10a74f65154d1, 1, 107),
        (0xe9dd4c855af890fb, 909, 0x3ff0e5ceff27b5a6, 1, 276),
        (0x8d6ac992184328a6, 1248, 0x3ff0d20d20d20d21, 1, 404),
    ]),
    ("cascade_p64", 0, &[
        (0xbe8d9678573b4e73, 3735, 0x3ff0d3a771fbc01f, 1, 288),
        (0x1a21be5d3dd92346, 11948, 0x3ff0c1598fba10a0, 1, 1189),
        (0x8f8b28cd658114f2, 2294, 0x3ff0d9d597fe36e8, 1, 529),
        (0xea19f9c734a2f736, 1146, 0x3ff0dd993e19e9a9, 1, 256),
        (0x0fd5dac45f10cad6, 3798, 0x3ff0d138c10b756b, 1, 232),
        (0x974a2d26eb324a74, 11842, 0x3ff0ced73a7f8bc8, 1, 827),
        (0x764d48498cdbc902, 2235, 0x3ff0d66be5e272c5, 1, 536),
        (0xd9b9193a10d9b412, 1102, 0x3ff0d79435e50d79, 1, 193),
    ]),
    ("cascade_p64", 3, &[
        (0xbe8d9678573b4e73, 3735, 0x3ff0d3a771fbc01f, 1, 288),
        (0xb03ac86d13341db0, 11973, 0x3ff0c35741f63512, 1, 1121),
        (0x738c3bef70e3db96, 2294, 0x3ff0d9d597fe36e8, 1, 599),
        (0x5393a837a5e438f3, 1146, 0x3ff0dd993e19e9a9, 1, 267),
        (0x19d45cd3cfacc180, 3798, 0x3ff0c898102d4ba1, 1, 215),
        (0xbedd06aa28ecfc43, 11765, 0x3ff0cf2667cae82c, 1, 705),
        (0x11b2c38dbb395576, 2375, 0x3ff0d0ae3012f890, 1, 442),
        (0x9a33abae64733391, 1102, 0x3ff0d79435e50d79, 1, 236),
    ]),
    ("cascade_p64", 5, &[
        (0xbe8d9678573b4e73, 3735, 0x3ff0d3a771fbc01f, 1, 288),
        (0xb03ac86d13341db0, 11973, 0x3ff0c35741f63512, 1, 1121),
        (0x738c3bef70e3db96, 2294, 0x3ff0d9d597fe36e8, 1, 599),
        (0x5393a837a5e438f3, 1146, 0x3ff0dd993e19e9a9, 1, 267),
        (0x7184e635e35bd4f7, 3790, 0x3ff0c05f1ae22504, 1, 219),
        (0x71069bce2268b0a3, 11804, 0x3ff0cc095e789536, 1, 884),
        (0xce55c13b9e4e4561, 2424, 0x3ff0d84a598ec915, 1, 394),
        (0xbf06b2015f4a8766, 1102, 0x3ff0d79435e50d79, 1, 239),
    ]),
    ("cascade_p64", 7, &[
        (0xbe8d9678573b4e73, 3735, 0x3ff0d3a771fbc01f, 1, 288),
        (0x1a21be5d3dd92346, 11948, 0x3ff0c1598fba10a0, 1, 1189),
        (0x8f8b28cd658114f2, 2294, 0x3ff0d9d597fe36e8, 1, 529),
        (0xea19f9c734a2f736, 1146, 0x3ff0dd993e19e9a9, 1, 256),
        (0x0fd5dac45f10cad6, 3798, 0x3ff0d138c10b756b, 1, 232),
        (0xc3203d37d07d7e82, 11765, 0x3ff0c6cb5d26f8a0, 1, 683),
        (0x1d776e879aaa39e7, 2305, 0x3ff0d376b9eb57a1, 1, 566),
        (0x60f1a477f9801fd1, 1102, 0x3ff0d79435e50d79, 1, 211),
    ]),
];

/// The full `multilevel_p256` shape, three cycles, seed 0.
#[rustfmt::skip]
const PINNED_P256: &[(&str, u64, &[Cycle])] = &[
    ("multilevel_p256", 0, &[
        (0x4632f52400b0c99c, 10958, 0x3ff0d21209107e57, 1, 2731),
        (0x5fc5e7eae4914424, 14969, 0x3fffbdc7f08a2f2b, 1, 4009),
        (0x0d9d0c68ffe29030, 20393, 0x4001acd257f2d818, 1, 5555),
    ]),
];

/// The policy's tier boundary from both sides, seed 0.
#[rustfmt::skip]
const PINNED_MILD: &[(&str, u64, &[Cycle])] = &[
    ("mild_p8", 0, &[
        (0xae30e8743e6d8bd7, 1536, 0x3ff0d55555555555, 1, 181),
        (0x8edb7820a0b3f582, 1560, 0x3ff0000000000000, 2, 53),
        (0x995e5dd1b6586270, 1578, 0x3ff00f92fb221185, 2, 15),
    ]),
    ("mild_p4", 0, &[
        (0x8d876fad742a85b5, 1536, 0x3ff0000000000000, 2, 19),
        (0x2d42a78e379eb865, 1560, 0x3ff0000000000000, 2, 10),
        (0x51541d161e4f52c5, 1578, 0x3ff00530fe60b082, 2, 9),
    ]),
];

/// The full shapes × seeds {0, 3, 5, 7}.
#[rustfmt::skip]
const PINNED_FULL: &[(&str, u64, &[Cycle])] = &[
    ("paper_p64", 0, &[
        (0xf209bdc362168103, 207715, 0x3ff0ca7f6dc2efc8, 1, 11725),
        (0x7bc0f53b0dcdcb41, 693597, 0x3ff0ca68c004bf7c, 1, 53984),
    ]),
    ("paper_p64", 3, &[
        (0x599698182e14f6f1, 207707, 0x3ff0c966b7de1c6d, 1, 11750),
        (0xf8072d950fc54324, 693560, 0x3ff0c9e1ef0b6830, 1, 54197),
    ]),
    ("paper_p64", 5, &[
        (0xe60031f5cf925b63, 207691, 0x3ff0cd84d384e715, 1, 11862),
        (0x5c9ef002296b5fc9, 693512, 0x3ff0ccd373e4d1df, 1, 53417),
    ]),
    ("paper_p64", 7, &[
        (0x599698182e14f6f1, 207707, 0x3ff0c966b7de1c6d, 1, 11750),
        (0x5829b109f54e647d, 693547, 0x3ff0cbda5dc6308c, 1, 55330),
    ]),
    ("weak_p2048", 0, &[
        (0x1681862a2f445712, 45085, 0x3ff5cddca002b9bc, 2, 1931),
        (0x82b2759b7ab92800, 61118, 0x4007dbbe49f893e9, 2, 5209),
        (0x3c8359346647c9d3, 82642, 0x4016ff4ff39bf4ec, 2, 6012),
    ]),
    ("weak_p2048", 3, &[
        (0x1681862a2f445712, 45085, 0x3ff5cddca002b9bc, 2, 1931),
        (0x150462de4a0f2042, 61102, 0x4007dd57b969635b, 2, 5214),
        (0x9ba6a24211fe6621, 82635, 0x4016ffcf9f4b4701, 2, 6088),
    ]),
    ("weak_p2048", 5, &[
        (0x7be575f152ed2221, 45085, 0x3ff5cddca002b9bc, 2, 1926),
        (0x6efa5eb4016bd012, 61198, 0x4008184bb2ba9e4f, 2, 5267),
        (0x47027bf75330eae0, 82791, 0x401954a72f57efd9, 2, 6110),
    ]),
    ("weak_p2048", 7, &[
        (0x1681862a2f445712, 45085, 0x3ff5cddca002b9bc, 2, 1931),
        (0x150462de4a0f2042, 61102, 0x4007dd57b969635b, 2, 5214),
        (0x0cc98249601bafcb, 82637, 0x4016ffab24888adc, 2, 6088),
    ]),
    ("multilevel_p256", 0, &[
        (0x4632f52400b0c99c, 10958, 0x3ff0d21209107e57, 1, 2731),
        (0x5fc5e7eae4914424, 14969, 0x3fffbdc7f08a2f2b, 1, 4009),
        (0x0d9d0c68ffe29030, 20393, 0x4001acd257f2d818, 1, 5555),
    ]),
    ("multilevel_p256", 3, &[
        (0x4632f52400b0c99c, 10958, 0x3ff0d21209107e57, 1, 2731),
        (0x5fc5e7eae4914424, 14969, 0x3fffbdc7f08a2f2b, 1, 4009),
        (0x0d9d0c68ffe29030, 20393, 0x4001acd257f2d818, 1, 5555),
    ]),
    ("multilevel_p256", 5, &[
        (0x4632f52400b0c99c, 10958, 0x3ff0d21209107e57, 1, 2731),
        (0xf8a28eaa72ad1961, 14962, 0x3fffc1952a4300b8, 1, 3971),
        (0x92150503484e52a1, 20376, 0x4001b098c69bca87, 1, 5655),
    ]),
    ("multilevel_p256", 7, &[
        (0x4632f52400b0c99c, 10958, 0x3ff0d21209107e57, 1, 2731),
        (0x5fc5e7eae4914424, 14969, 0x3fffbdc7f08a2f2b, 1, 4009),
        (0x0d9d0c68ffe29030, 20393, 0x4001acd257f2d818, 1, 5555),
    ]),
    ("cascade_p64", 0, &[
        (0xb92e45ac60fd07d1, 65395, 0x3ff0cd410cd410cd, 1, 4236),
        (0x02298547c9c02477, 205499, 0x3ff0c719b74a68e8, 1, 17010),
        (0xc64ff0dc90329f40, 42349, 0x3ff0ce1c4d7f3ab1, 1, 10539),
        (0x0da8df1bdd0906b3, 21779, 0x3ff0d515a3d25883, 1, 4493),
        (0x3391adcb1d4b2414, 70008, 0x3ff0ce6a30f88a50, 1, 5092),
        (0xc345558f647e46dc, 216291, 0x3ff0cc2a266852f5, 1, 17070),
        (0xa8086e25cd27aba2, 49125, 0x3ff0cd077fb8a0a1, 1, 10548),
        (0x20496e411213a88d, 20838, 0x3ff0ce646521d565, 1, 4099),
    ]),
    ("cascade_p64", 3, &[
        (0xb92e45ac60fd07d1, 65395, 0x3ff0cd410cd410cd, 1, 4236),
        (0xdff093d1a26bd1ef, 205480, 0x3ff0cc99c4f9d9b5, 1, 17610),
        (0x7385fe6ab31fff8c, 42445, 0x3ff0d0bb808bbbe5, 1, 10372),
        (0x9943f390917b67c7, 21870, 0x3ff0cf241f8ee0b3, 1, 4579),
        (0xec3b1225e1987299, 70355, 0x3ff0cf8d047517d1, 1, 4776),
        (0x86b81e7d3a054c94, 217346, 0x3ff0c82d5c7695e2, 1, 16709),
        (0xa7bb7de67356a6b3, 49525, 0x3ff0cf57dbfb4e74, 1, 10024),
        (0x1e650ce0cb586ca5, 20833, 0x3ff0cf6cbcfe121d, 1, 4186),
    ]),
    ("cascade_p64", 5, &[
        (0xb92e45ac60fd07d1, 65395, 0x3ff0cd410cd410cd, 1, 4236),
        (0x734cfd319b231593, 205490, 0x3ff0cc64314396fc, 1, 17822),
        (0xc12c5b253a191e58, 42445, 0x3ff0d0bb808bbbe5, 1, 9873),
        (0xebc5a51c0a4e44b9, 21828, 0x3ff0d76bc1e36230, 1, 4461),
        (0xc52b4152ed19c9d2, 70159, 0x3ff0d05d3c4c1d78, 1, 4903),
        (0x6cbefd2697ceb969, 216654, 0x3ff0c896f6516268, 1, 15925),
        (0x2790e803ebbe5f1c, 49397, 0x3ff0cfe1670b2dbc, 1, 11232),
        (0xfdaf3d2e4c9ea28a, 20782, 0x3ff0cd5f1f503146, 1, 3903),
    ]),
    ("cascade_p64", 7, &[
        (0xb92e45ac60fd07d1, 65395, 0x3ff0cd410cd410cd, 1, 4236),
        (0x18dd4144347cf512, 205496, 0x3ff0cd8a9e71092e, 1, 17487),
        (0xd83f2557939f9e31, 42439, 0x3ff0d1574dc8f971, 1, 10181),
        (0x73d70808af6b803c, 21870, 0x3ff0cf241f8ee0b3, 1, 4403),
        (0x555a8595eb3d7b18, 70355, 0x3ff0cf8d047517d1, 1, 4692),
        (0x18929fbd2a80749b, 217322, 0x3ff0cb106b2ae173, 1, 16041),
        (0x8c0b0a792d93af9d, 49548, 0x3ff0cd5879855cf0, 1, 10021),
        (0xd1c534d66630b2e8, 20839, 0x3ff0ce2f8aa82d4e, 1, 3716),
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
    check(&[(&MILD_P8, 0), (&MILD_P4, 0)], PINNED_MILD);
}

/// The hand-run "16/16 identical" of `plum-e2e child verify` (4 workloads
/// × seeds 0, 3, 5, 7) as a test; release only.
#[test]
#[ignore = "full e2e shapes: run in release with --ignored"]
fn full_e2e_shapes_decide_as_pinned() {
    check(&rows(&FULL), PINNED_FULL);
}
