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
/// mesh with an eager trigger and 0.5 % refinement, the policy picks SFC
/// diffusion at 1.086 and multilevel at 1.142.
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
        (0x8244b514957ca582, 5505, 0x3ff0abe0311b7bbf, 1, 416),
        (0xa4afa43a4e6d8a81, 18711, 0x3ff0c0dbc8c7c110, 1, 2340),
    ]),
    ("paper_p64", 3, &[
        (0x8244b514957ca582, 5505, 0x3ff0abe0311b7bbf, 1, 416),
        (0xa4afa43a4e6d8a81, 18711, 0x3ff0c0dbc8c7c110, 1, 2340),
    ]),
    ("paper_p64", 5, &[
        (0x8244b514957ca582, 5505, 0x3ff0abe0311b7bbf, 1, 416),
        (0xfb9166cd7cb495d2, 18719, 0x3ff0cb477bf1f0ee, 1, 2339),
    ]),
    ("paper_p64", 7, &[
        (0x8244b514957ca582, 5505, 0x3ff0abe0311b7bbf, 1, 416),
        (0xa4afa43a4e6d8a81, 18711, 0x3ff0c0dbc8c7c110, 1, 2340),
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
        (0xb65f8222ec1a2996, 11948, 0x3ff0cf1006db3b91, 1, 2299),
        (0x92ee5ed9f0392d95, 2294, 0x3ff0d9d597fe36e8, 1, 1369),
        (0x6d525a5e22e70ae6, 1146, 0x3ff0dd993e19e9a9, 1, 400),
        (0x913c0e13332f1ef1, 3798, 0x3ff0d138c10b756b, 1, 639),
        (0xc048df4ddc2b4713, 11842, 0x3ff0c94e7925a894, 1, 2034),
        (0xe3ba342a873710b7, 2235, 0x3ff0aa70057f7c0c, 1, 983),
        (0xb21958a28927e964, 1102, 0x3ff0d79435e50d79, 1, 501),
    ]),
    ("cascade_p64", 3, &[
        (0xaa10b01f69b92060, 3735, 0x3ff0b08fa95d48b9, 1, 409),
        (0x8e1a85ffaea6c5e4, 11973, 0x3ff0cb8d238eada9, 1, 2164),
        (0xf7d6a1bf74125675, 2294, 0x3ff0d9d597fe36e8, 1, 1270),
        (0x9582ffb103ee8600, 1146, 0x3ff0dd993e19e9a9, 1, 534),
        (0xaf2abb91b33b9cb0, 3798, 0x3ff0d138c10b756b, 1, 470),
        (0x0051fec5db590975, 11765, 0x3ff0b8de4b6b140a, 1, 1471),
        (0x0214e946ccd6c136, 2375, 0x3ff0d0ae3012f890, 1, 948),
        (0xb9b91d938c1599e2, 1102, 0x3ff0d79435e50d79, 1, 514),
    ]),
    ("cascade_p64", 5, &[
        (0xaa10b01f69b92060, 3735, 0x3ff0b08fa95d48b9, 1, 409),
        (0x8e1a85ffaea6c5e4, 11973, 0x3ff0cb8d238eada9, 1, 2164),
        (0xf7d6a1bf74125675, 2294, 0x3ff0d9d597fe36e8, 1, 1270),
        (0x9582ffb103ee8600, 1146, 0x3ff0dd993e19e9a9, 1, 534),
        (0xbd5d2aab04cc1660, 3790, 0x3ff0d1a9cfa30e74, 1, 502),
        (0xa57b3633f4ec6cc4, 11804, 0x3ff0be2814204566, 1, 1371),
        (0x8324c533fdf9f0e4, 2424, 0x3ff0bd410e5ceff2, 1, 949),
        (0x4194dfdde53ea162, 1102, 0x3ff0d79435e50d79, 1, 509),
    ]),
    ("cascade_p64", 7, &[
        (0xaa10b01f69b92060, 3735, 0x3ff0b08fa95d48b9, 1, 409),
        (0xb65f8222ec1a2996, 11948, 0x3ff0cf1006db3b91, 1, 2299),
        (0x92ee5ed9f0392d95, 2294, 0x3ff0d9d597fe36e8, 1, 1369),
        (0x6d525a5e22e70ae6, 1146, 0x3ff0dd993e19e9a9, 1, 400),
        (0x913c0e13332f1ef1, 3798, 0x3ff0d138c10b756b, 1, 639),
        (0xae141fadce690a06, 11765, 0x3ff0c6cb5d26f8a0, 1, 1942),
        (0x252a1d514d666f70, 2305, 0x3ff0d376b9eb57a1, 1, 1159),
        (0xb0f4b4ccf05c2377, 1102, 0x3ff07e5fb5a99524, 1, 597),
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
        (0xb110c5a39dadf050, 1576, 0x3ff0cfeb354778da, 1, 489),
        (0x1f3921c76fbfac43, 1635, 0x3ff00c86a78900c8, 2, 118),
        (0xcbac370f1bb22726, 1689, 0x3ff0d2fbe85af0ff, 1, 595),
    ]),
];

/// The full shapes × seeds {0, 3, 5, 7}.
#[rustfmt::skip]
const PINNED_FULL: &[(&str, u64, &[Cycle])] = &[
    ("paper_p64", 0, &[
        (0x83f70f6be177b78d, 207715, 0x3ff0cd0597772355, 1, 29640),
        (0x44c346884e55c19d, 693597, 0x3ff0cd0e08af4853, 1, 123018),
    ]),
    ("paper_p64", 3, &[
        (0x886fc62d7197c0c2, 207707, 0x3ff0cd2ffffaf3a0, 1, 29519),
        (0xbc2af8bf5df441b7, 693560, 0x3ff0cce8038513d6, 1, 121635),
    ]),
    ("paper_p64", 5, &[
        (0xffd4b699497c9ec2, 207691, 0x3ff0cd84d384e715, 1, 30306),
        (0x60e74ed0dd68806a, 693512, 0x3ff0ccd373e4d1df, 1, 116400),
    ]),
    ("paper_p64", 7, &[
        (0x886fc62d7197c0c2, 207707, 0x3ff0cd2ffffaf3a0, 1, 29519),
        (0x5c1c714f73f6d10a, 693547, 0x3ff0ccfca6d866f9, 1, 118595),
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
        (0x3b47b98c5a4a7d86, 65395, 0x3ff0cd410cd410cd, 1, 10521),
        (0x5b8a764e58566951, 205499, 0x3ff0cc33fa43bb38, 1, 39679),
        (0x97110944a3eeb1e7, 42349, 0x3ff0ce1c4d7f3ab1, 1, 26199),
        (0xbcef5a910ae34a2a, 21779, 0x3ff0d515a3d25883, 1, 11616),
        (0x1087784150764a0c, 70008, 0x3ff0ce6a30f88a50, 1, 11658),
        (0xbec28d2406e580d6, 216291, 0x3ff0cd606bd4706b, 1, 35851),
        (0x6dae6f71ded90c75, 49125, 0x3ff0cd077fb8a0a1, 1, 28825),
        (0xa5d7786990147f96, 20838, 0x3ff0ce646521d565, 1, 10605),
    ]),
    ("cascade_p64", 3, &[
        (0x3b47b98c5a4a7d86, 65395, 0x3ff0cd410cd410cd, 1, 10521),
        (0xa3b05f0757cf3739, 205480, 0x3ff0cc99c4f9d9b5, 1, 39576),
        (0x2716d30f01746d02, 42445, 0x3ff0d0bb808bbbe5, 1, 25992),
        (0xbca10d9ec1232160, 21870, 0x3ff0cf241f8ee0b3, 1, 12844),
        (0x0ee154765c0b9a27, 70355, 0x3ff0cf8d047517d1, 1, 12197),
        (0x96f8bcb9a04d4f60, 217346, 0x3ff0c96220558f07, 1, 37169),
        (0xa58bf75485c1f26c, 49525, 0x3ff0cf57dbfb4e74, 1, 26438),
        (0x9cee6b91a073c4ce, 20833, 0x3ff0cf6cbcfe121d, 1, 10579),
    ]),
    ("cascade_p64", 5, &[
        (0x3b47b98c5a4a7d86, 65395, 0x3ff0cd410cd410cd, 1, 10521),
        (0xa4774fff28c638d0, 205490, 0x3ff0cc64314396fc, 1, 42206),
        (0x292d3c71a6f4cfba, 42445, 0x3ff0d0bb808bbbe5, 1, 26248),
        (0x81d5eba2bce93f1a, 21828, 0x3ff0d76bc1e36230, 1, 12053),
        (0x8dfbc3a18def9548, 70159, 0x3ff0d05d3c4c1d78, 1, 11808),
        (0x33efe7e1372b9fd7, 216654, 0x3ff0cd6df7ad3fea, 1, 35989),
        (0x98eab8956562af1f, 49397, 0x3ff0cfe1670b2dbc, 1, 26318),
        (0x1e8f6f9d36fa2398, 20782, 0x3ff0cd5f1f503146, 1, 10665),
    ]),
    ("cascade_p64", 7, &[
        (0x3b47b98c5a4a7d86, 65395, 0x3ff0cd410cd410cd, 1, 10521),
        (0x353554846e06e90d, 205496, 0x3ff0cd8a9e71092e, 1, 39210),
        (0x450834a6a5d1e710, 42439, 0x3ff0d1574dc8f971, 1, 26240),
        (0x992fa65456f54328, 21870, 0x3ff0cf241f8ee0b3, 1, 12391),
        (0xc6dcb2f14eca287a, 70355, 0x3ff0cf8d047517d1, 1, 11853),
        (0xf65a439a2d9904ac, 217322, 0x3ff0cc4537c4892a, 1, 36301),
        (0xdb61afaa743f8bca, 49548, 0x3ff0cd5879855cf0, 1, 30232),
        (0x96cb58e0b961e08d, 20839, 0x3ff0ce2f8aa82d4e, 1, 10707),
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
