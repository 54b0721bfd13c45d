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
const R005: Op = Op::Refine(0.005, 0.1);
const R002: Op = Op::Refine(0.002, 0.1);
const C60: Op = Op::Coarsen(0.6, 0.3);
const PAPER: &[Op] = &[R33, R33];
const WEAK: &[Op] = &[R05, R05, R05];
const CASCADE: &[Op] = &[R30, R30, C60, C60, R30, R30, C60, C60];
const MILD: &[Op] = &[R005, R005, R005];
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
/// mesh with an eager trigger and 0.5 % refinement, the policy sees 1.244,
/// 1.169 and 1.085: multilevel twice, then SFC diffusion, so this row
/// crosses the boundary from the severe side — where it lands in its last
/// cycle depends on how well multilevel balanced the first two.
const MILD_P8: Shape = shape("mild_p8", 1_500, 8, None, EAGER, MILD);

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
        (0xb2e8b0a3f5baaf16, 5505, 0x3ff09410ed5a2b6f, 1, 520),
        (0xc02162517055d191, 18711, 0x3ff0cd1e0f13cc2c, 1, 2735),
    ]),
    ("paper_p64", 3, &[
        (0xb2e8b0a3f5baaf16, 5505, 0x3ff09410ed5a2b6f, 1, 520),
        (0xc02162517055d191, 18711, 0x3ff0cd1e0f13cc2c, 1, 2735),
    ]),
    ("paper_p64", 5, &[
        (0xb2e8b0a3f5baaf16, 5505, 0x3ff09410ed5a2b6f, 1, 520),
        (0x4c657802d8e9d174, 18719, 0x3ff0cd079e148a91, 1, 2751),
    ]),
    ("paper_p64", 7, &[
        (0xb2e8b0a3f5baaf16, 5505, 0x3ff09410ed5a2b6f, 1, 520),
        (0xc02162517055d191, 18711, 0x3ff0cd1e0f13cc2c, 1, 2735),
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
        (0x1e0f6f5751980990, 3735, 0x3ff0cae17fd42245, 1, 418),
        (0x3dd709a46aca3411, 11948, 0x3ff0c993d7345d97, 1, 1687),
        (0xc7535ba5562cef32, 2294, 0x3ff09269cae16c3f, 1, 924),
        (0xa2118b5620bdca15, 1146, 0x3ff0dd993e19e9a9, 1, 464),
        (0x17c870f862380843, 3798, 0x3ff0c898102d4ba1, 1, 451),
        (0x096bb04daab13d31, 11842, 0x3ff0bb7895c4f091, 1, 1491),
        (0xd3e2e80140ca5cd7, 2235, 0x3ff0c7c29b16cb32, 1, 1113),
        (0x3b5efe3fb3469086, 1102, 0x3ff0d79435e50d79, 1, 542),
    ]),
    ("cascade_p64", 3, &[
        (0x1e0f6f5751980990, 3735, 0x3ff0cae17fd42245, 1, 418),
        (0x359b6d82cae0eb87, 11973, 0x3ff0bb21605dbc7a, 1, 1912),
        (0xad3977e61ba40d75, 2294, 0x3ff0a0b28d80c7fb, 1, 1428),
        (0x2bf2f1dc603daa86, 1146, 0x3ff0dd993e19e9a9, 1, 394),
        (0x783fddb80ed9dc70, 3798, 0x3ff0aeb5fd92ce42, 1, 438),
        (0x76932dde59a8ee56, 11765, 0x3ff094a91d4f5b53, 1, 2321),
        (0x55084a95332008d0, 2375, 0x3ff0d0ae3012f890, 1, 1074),
        (0x15f2be6d31331de2, 1102, 0x3ff0d79435e50d79, 1, 321),
    ]),
    ("cascade_p64", 5, &[
        (0x1e0f6f5751980990, 3735, 0x3ff0cae17fd42245, 1, 418),
        (0x359b6d82cae0eb87, 11973, 0x3ff0bb21605dbc7a, 1, 1912),
        (0xad3977e61ba40d75, 2294, 0x3ff0a0b28d80c7fb, 1, 1428),
        (0x2bf2f1dc603daa86, 1146, 0x3ff0dd993e19e9a9, 1, 394),
        (0x38b9f7e20b752fd7, 3790, 0x3ff0c904754299bc, 1, 425),
        (0x10964db3dcac63e2, 11804, 0x3ff0ad80214fe5a1, 1, 1970),
        (0x887292d160057973, 2424, 0x3ff0d84a598ec915, 1, 1384),
        (0x75ab5cd436569b85, 1102, 0x3ff0b9d80b269007, 1, 442),
    ]),
    ("cascade_p64", 7, &[
        (0x1e0f6f5751980990, 3735, 0x3ff0cae17fd42245, 1, 418),
        (0x3dd709a46aca3411, 11948, 0x3ff0c993d7345d97, 1, 1687),
        (0xc7535ba5562cef32, 2294, 0x3ff09269cae16c3f, 1, 924),
        (0xa2118b5620bdca15, 1146, 0x3ff0dd993e19e9a9, 1, 464),
        (0x17c870f862380843, 3798, 0x3ff0c898102d4ba1, 1, 451),
        (0x8ee31e8aae5304c7, 11765, 0x3ff0c99460b2f324, 1, 1507),
        (0xcf674d09d54cf940, 2305, 0x3ff0b7081b8b296d, 1, 977),
        (0x21f21dbc3e54b591, 1102, 0x3ff0d79435e50d79, 1, 503),
    ]),
];

/// The full `multilevel_p256` shape, three cycles, seed 0.
#[rustfmt::skip]
const PINNED_P256: &[(&str, u64, &[Cycle])] = &[
    ("multilevel_p256", 0, &[
        (0x4632f52400b0c99c, 10958, 0x3ff0d21209107e57, 1, 2731),
        (0x4632f52400b0c99c, 14969, 0x40143fb01972a281, 1, 0),
        (0x6f7c53929edee31b, 20393, 0x400d39619a246e04, 1, 7536),
    ]),
];

/// The policy's tier boundary from both sides, seed 0.
#[rustfmt::skip]
const PINNED_MILD: &[(&str, u64, &[Cycle])] = &[
    ("mild_p8", 0, &[
        (0xfda21988de544b13, 1576, 0x3ff0cfeb354778da, 1, 264),
        (0x007cdc515b1a1cf4, 1635, 0x3ff0d4f120190d4f, 1, 471),
        (0x6ee53eaded7af694, 1689, 0x3ff010f9c921ccc5, 2, 103),
    ]),
    ("mild_p4", 0, &[
        (0xc015214f8a57a275, 1536, 0x3ff0000000000000, 2, 35),
        (0xf31cf00cef805805, 1560, 0x3ff0000000000000, 2, 15),
        (0x41cdb8a9bb1e3047, 1578, 0x3ff00530fe60b082, 2, 17),
    ]),
];

/// The full shapes × seeds {0, 3, 5, 7}.
#[rustfmt::skip]
const PINNED_FULL: &[(&str, u64, &[Cycle])] = &[
    ("paper_p64", 0, &[
        (0xe5fa54ee91a817d6, 207715, 0x3ff0cd0597772355, 1, 18901),
        (0x4faba71b7ad772a9, 693597, 0x3ff0cb8b03bb8c6a, 1, 75529),
    ]),
    ("paper_p64", 3, &[
        (0xf6b53d12070b222a, 207707, 0x3ff0cbece7f1568f, 1, 19166),
        (0x6d57f64c9e2697ef, 693560, 0x3ff0c67b18028715, 1, 75877),
    ]),
    ("paper_p64", 5, &[
        (0x9690eaa3b4e6d846, 207691, 0x3ff0c36be03e47e5, 1, 18673),
        (0x09064c888195868e, 693512, 0x3ff0c84a409b8b7f, 1, 77885),
    ]),
    ("paper_p64", 7, &[
        (0xf6b53d12070b222a, 207707, 0x3ff0cbece7f1568f, 1, 19166),
        (0xb219a2811f01b7f7, 693547, 0x3ff0c751397d56d7, 1, 75892),
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
        (0x4632f52400b0c99c, 10958, 0x3ff0d21209107e57, 1, 2731),
        (0x4632f52400b0c99c, 14969, 0x40143fb01972a281, 1, 0),
        (0x6f7c53929edee31b, 20393, 0x400d39619a246e04, 1, 7536),
    ]),
    ("multilevel_p256", 3, &[
        (0x4632f52400b0c99c, 10958, 0x3ff0d21209107e57, 1, 2731),
        (0x4632f52400b0c99c, 14969, 0x40143fb01972a281, 1, 0),
        (0x6f7c53929edee31b, 20393, 0x400d39619a246e04, 1, 7536),
    ]),
    ("multilevel_p256", 5, &[
        (0x4632f52400b0c99c, 10958, 0x3ff0d21209107e57, 1, 2731),
        (0x4632f52400b0c99c, 14962, 0x4014421cf33c65fa, 1, 0),
        (0x936045bddeb23605, 20376, 0x400d3f9f829021c6, 1, 7517),
    ]),
    ("multilevel_p256", 7, &[
        (0x4632f52400b0c99c, 10958, 0x3ff0d21209107e57, 1, 2731),
        (0x4632f52400b0c99c, 14969, 0x40143fb01972a281, 1, 0),
        (0x6f7c53929edee31b, 20393, 0x400d39619a246e04, 1, 7536),
    ]),
    ("cascade_p64", 0, &[
        (0xfc23dd1ce789d110, 65395, 0x3ff0c93ed79cc156, 1, 7488),
        (0xcefcee4dc99d0c49, 205499, 0x3ff0caed698566a4, 1, 32662),
        (0xfc9beabbe4acc47d, 42349, 0x3ff0ce1c4d7f3ab1, 1, 19447),
        (0x36cf017909308b2e, 21779, 0x3ff0d515a3d25883, 1, 9416),
        (0xf1c9fda2d12b4a1c, 70008, 0x3ff0caab9a5054b8, 1, 8330),
        (0xcccae8fafa1e6061, 216291, 0x3ff0cd606bd4706b, 1, 26918),
        (0x539552df95bdeeef, 49125, 0x3ff0cd077fb8a0a1, 1, 20300),
        (0x857025dd5a1dd349, 20838, 0x3ff0ce646521d565, 1, 7928),
    ]),
    ("cascade_p64", 3, &[
        (0xfc23dd1ce789d110, 65395, 0x3ff0c93ed79cc156, 1, 7488),
        (0xe377fea3fe4ae964, 205480, 0x3ff0c8c5fb8e04b9, 1, 32763),
        (0x32ebe0c16ad2b84a, 42445, 0x3ff0d0bb808bbbe5, 1, 18762),
        (0x145661e47951934a, 21870, 0x3ff0cf241f8ee0b3, 1, 9914),
        (0x8e29df4478ebe9c6, 70355, 0x3ff0c8194bd1c271, 1, 8958),
        (0x6d88f82eacd61af5, 217346, 0x3ff0ca96e434882b, 1, 28104),
        (0xa6795a621c9f399a, 49525, 0x3ff0cf57dbfb4e74, 1, 20424),
        (0x59f56680fc66eee1, 20833, 0x3ff0cf6cbcfe121d, 1, 7809),
    ]),
    ("cascade_p64", 5, &[
        (0xfc23dd1ce789d110, 65395, 0x3ff0c93ed79cc156, 1, 7488),
        (0x9f3e1105568e1098, 205490, 0x3ff0c9d708743a79, 1, 32499),
        (0xf6cc63425aa70610, 42445, 0x3ff0d0bb808bbbe5, 1, 21388),
        (0x3833953aefa49500, 21828, 0x3ff0d76bc1e36230, 1, 8927),
        (0x931411f131fc5156, 70159, 0x3ff0d05d3c4c1d78, 1, 9252),
        (0x8a6ef93fc6c46f55, 216654, 0x3ff0cd6df7ad3fea, 1, 29857),
        (0xd496b9878f965013, 49397, 0x3ff0cfe1670b2dbc, 1, 21159),
        (0xd36673d784b41b6d, 20782, 0x3ff0cd5f1f503146, 1, 8142),
    ]),
    ("cascade_p64", 7, &[
        (0xfc23dd1ce789d110, 65395, 0x3ff0c93ed79cc156, 1, 7488),
        (0x6ea0f144b75aabaa, 205496, 0x3ff0cafd7a837e3e, 1, 32993),
        (0xa1b7f12173678177, 42439, 0x3ff0cb2a008afb4a, 1, 19294),
        (0x6ecbd0ffea8d57ee, 21870, 0x3ff0cf241f8ee0b3, 1, 9302),
        (0x453f1bd7edc0d872, 70355, 0x3ff0cbd328236d21, 1, 9308),
        (0xc97e26dc2c0b3c65, 217322, 0x3ff0cd7a045e30e0, 1, 26475),
        (0xe3b3d4413b97f396, 49548, 0x3ff0cd5879855cf0, 1, 19435),
        (0xc0d2652f5f6e6313, 20839, 0x3ff0ce2f8aa82d4e, 1, 7278),
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
