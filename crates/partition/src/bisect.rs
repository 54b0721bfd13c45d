//! Bisection: greedy graph growing plus boundary Kernighan–Lin style
//! refinement — used for the initial partitioning of the coarsest graph
//! ("applies a greedy graph growing algorithm for partitioning the coarsest
//! graph").

use crate::graph::Graph;
use crate::rng::Rng;

/// Grow side 0 from a random seed vertex by BFS until its weight reaches
/// `target0`; everything else is side 1.
pub fn grow_bisection(g: &Graph, target0: u64, rng: &mut Rng) -> Vec<u8> {
    let n = g.n();
    let mut side = vec![1u8; n];
    if n == 0 {
        return side;
    }
    let mut w0 = 0u64;
    let mut queue = std::collections::VecDeque::new();
    let mut seen = vec![false; n];
    let seed = rng.below(n);
    queue.push_back(seed as u32);
    seen[seed] = true;
    while w0 < target0 {
        let v = match queue.pop_front() {
            Some(v) => v as usize,
            None => {
                // Disconnected graph: restart from an untouched vertex.
                match (0..n).find(|&v| !seen[v]) {
                    Some(v) => {
                        seen[v] = true;
                        queue.push_back(v as u32);
                        continue;
                    }
                    None => break,
                }
            }
        };
        side[v] = 0;
        w0 += g.vwgt[v];
        for (u, _) in g.edges(v) {
            if !seen[u as usize] {
                seen[u as usize] = true;
                queue.push_back(u);
            }
        }
    }
    side
}

/// Greedy boundary refinement of a bisection: repeatedly move boundary
/// vertices with positive gain (cut reduction) while respecting the balance
/// tolerance; then force balance if violated.
pub fn refine_bisection(
    g: &Graph,
    side: &mut [u8],
    target0: u64,
    tol: f64,
    passes: usize,
    rng: &mut Rng,
) {
    let total = g.total_vwgt();
    let target = [target0, total - target0];
    let max_w = [
        (target[0] as f64 * tol) as u64,
        (target[1] as f64 * tol) as u64,
    ];
    let mut w = [0u64; 2];
    for v in 0..g.n() {
        w[side[v] as usize] += g.vwgt[v];
    }

    let gain = |g: &Graph, side: &[u8], v: usize| -> i64 {
        let mut ext = 0i64;
        let mut int = 0i64;
        for (u, wt) in g.edges(v) {
            if side[u as usize] == side[v] {
                int += wt as i64;
            } else {
                ext += wt as i64;
            }
        }
        ext - int
    };

    let mut order: Vec<u32> = (0..g.n() as u32).collect();
    for _ in 0..passes {
        let mut moved = false;
        rng.shuffle(&mut order);
        for &v in &order {
            let v = v as usize;
            let s = side[v] as usize;
            let t = 1 - s;
            // Only boundary vertices can have positive gain.
            let gn = gain(g, side, v);
            let fits = w[t] + g.vwgt[v] <= max_w[t];
            let unbalanced_here = w[s] > max_w[s];
            if (gn > 0 && fits) || (gn >= 0 && unbalanced_here) {
                side[v] = t as u8;
                w[s] -= g.vwgt[v];
                w[t] += g.vwgt[v];
                moved = true;
            }
        }
        if !moved {
            break;
        }
    }

    // Forced balancing: move least-damaging vertices out of an overweight side.
    let mut guard = g.n() * 4;
    while (w[0] > max_w[0] || w[1] > max_w[1]) && guard > 0 {
        guard -= 1;
        let s = if w[0] > max_w[0] { 0 } else { 1 };
        let t = 1 - s;
        let mut best: Option<(i64, usize)> = None;
        for v in 0..g.n() {
            if side[v] as usize == s {
                let gn = gain(g, side, v);
                if best.is_none_or(|(bg, _)| gn > bg) {
                    best = Some((gn, v));
                }
            }
        }
        match best {
            Some((_, v)) => {
                side[v] = t as u8;
                w[s] -= g.vwgt[v];
                w[t] += g.vwgt[v];
            }
            None => break,
        }
    }
}

/// Full bisection with multiple random starts, keeping the best cut.
pub fn bisect(g: &Graph, target0: u64, tol: f64, tries: usize, rng: &mut Rng) -> Vec<u8> {
    let mut best: Option<(u64, Vec<u8>)> = None;
    for _ in 0..tries.max(1) {
        let mut side = grow_bisection(g, target0, rng);
        refine_bisection(g, &mut side, target0, tol, 6, rng);
        let part: Vec<u32> = side.iter().map(|&s| s as u32).collect();
        let cut = crate::metrics::edge_cut(g, &part);
        if best.as_ref().is_none_or(|(bc, _)| cut < *bc) {
            best = Some((cut, side));
        }
    }
    best.unwrap().1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{edge_cut, weights_of};

    fn grid_graph(w: usize, h: usize) -> Graph<'static> {
        let n = w * h;
        let mut xadj = vec![0u32];
        let mut adjncy = Vec::new();
        for y in 0..h {
            for x in 0..w {
                if x > 0 {
                    adjncy.push((y * w + x - 1) as u32);
                }
                if x + 1 < w {
                    adjncy.push((y * w + x + 1) as u32);
                }
                if y > 0 {
                    adjncy.push(((y - 1) * w + x) as u32);
                }
                if y + 1 < h {
                    adjncy.push(((y + 1) * w + x) as u32);
                }
                xadj.push(adjncy.len() as u32);
            }
        }
        Graph::from_csr(xadj, adjncy, vec![1; n])
    }

    #[test]
    fn bisection_of_grid_is_balanced_and_cheap() {
        let g = grid_graph(12, 12);
        let total = g.total_vwgt();
        let mut rng = Rng::new(5);
        let side = bisect(&g, total / 2, 1.05, 4, &mut rng);
        let part: Vec<u32> = side.iter().map(|&s| s as u32).collect();
        let w = weights_of(&g.vwgt, &part, 2);
        assert!(
            w[0] as f64 <= total as f64 / 2.0 * 1.06,
            "side 0 overweight: {w:?}"
        );
        assert!(
            w[1] as f64 <= total as f64 / 2.0 * 1.06,
            "side 1 overweight: {w:?}"
        );
        // A 12x12 grid's optimal bisection cut is 12; allow some slack.
        let cut = edge_cut(&g, &part);
        assert!(cut <= 24, "cut {cut} far from optimal 12");
    }

    #[test]
    fn uneven_target_respected() {
        let g = grid_graph(10, 10);
        let total = g.total_vwgt();
        let target0 = total / 4;
        let mut rng = Rng::new(9);
        let side = bisect(&g, target0, 1.1, 4, &mut rng);
        let part: Vec<u32> = side.iter().map(|&s| s as u32).collect();
        let w = weights_of(&g.vwgt, &part, 2);
        assert!(
            (w[0] as f64) < target0 as f64 * 1.15 && (w[0] as f64) > target0 as f64 * 0.8,
            "side 0 weight {} far from target {target0}",
            w[0]
        );
    }

    #[test]
    fn weighted_vertices_balance_by_weight() {
        // Two heavy vertices and many light ones in a path.
        let n = 20;
        let mut xadj = vec![0u32];
        let mut adjncy = Vec::new();
        for v in 0..n {
            if v > 0 {
                adjncy.push((v - 1) as u32);
            }
            if v + 1 < n {
                adjncy.push((v + 1) as u32);
            }
            xadj.push(adjncy.len() as u32);
        }
        let mut vwgt = vec![1u64; n];
        vwgt[0] = 50;
        vwgt[n - 1] = 50;
        let g = Graph::from_csr(xadj, adjncy, vwgt);
        let total = g.total_vwgt();
        let mut rng = Rng::new(11);
        let side = bisect(&g, total / 2, 1.1, 4, &mut rng);
        let part: Vec<u32> = side.iter().map(|&s| s as u32).collect();
        let w = weights_of(&g.vwgt, &part, 2);
        // The two heavy vertices must be separated for any feasible balance.
        assert!(
            w[0] >= 50 && w[1] >= 50,
            "heavy vertices not separated: {w:?}"
        );
    }
}
