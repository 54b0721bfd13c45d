//! Table 1 at quick scale, pinned row by row: the grid sizes one refinement
//! of each strategy produces. Edge deduplication, midpoint reuse and the
//! mesh's incidence bookkeeping must not move one count.

use plum_bench::{table1, Scale};

#[test]
fn table1_quick_rows_are_pinned() {
    // (case, vertices, elements, edges, boundary faces, growth to 1e-3)
    let want = [
        ("Initial", 1331, 6000, 7930, 1200, 1.000),
        ("Real_1", 1728, 8263, 10591, 1202, 1.377),
        ("Real_2", 3949, 21171, 25814, 1390, 3.529),
        ("Real_3", 6087, 32902, 40041, 2106, 5.484),
    ];
    let rows = table1(Scale::Quick);
    assert_eq!(rows.len(), want.len());
    for (r, &(name, vertices, elements, edges, bdy_faces, growth)) in rows.iter().zip(&want) {
        assert_eq!(
            (r.name, r.vertices, r.elements, r.edges, r.bdy_faces),
            (name, vertices, elements, edges, bdy_faces),
            "row {name}"
        );
        assert!(
            (r.growth - growth).abs() < 5e-4,
            "row {name}: growth {} against {growth}",
            r.growth
        );
    }
}
