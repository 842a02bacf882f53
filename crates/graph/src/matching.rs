//! Maximum bipartite matchings across cuts.
//!
//! Section V of the paper connects vertex expansion to concurrent
//! information flow: for a cut `(S, V\S)`, the bipartite graph `B(S)`
//! contains exactly the edges crossing the cut, and its maximum matching
//! size `ν(B(S))` is the maximum number of concurrent connections the mobile
//! telephone model supports across the cut (each node joins ≤ 1 connection
//! per round). Lemma V.1 states `γ = min_{|S| ≤ n/2} ν(B(S))/|S| ≥ α/4`.
//!
//! We implement Hopcroft–Karp (`O(E·√V)`) for cut matchings, a brute-force
//! reference for tests, and the exhaustive `γ` computation used to validate
//! Lemma V.1 empirically (experiment T5).

use crate::nid;
use crate::static_graph::Graph;

/// Maximum matching size on an explicit bipartite graph given as adjacency
/// lists from left vertices (`0..adj.len()`) to right vertices
/// (`0..right_count`). Hopcroft–Karp.
pub fn hopcroft_karp(adj: &[Vec<u32>], right_count: usize) -> usize {
    const NIL: u32 = u32::MAX;
    let nl = adj.len();
    let mut match_l = vec![NIL; nl];
    let mut match_r = vec![NIL; right_count];
    let mut dist = vec![0u32; nl];
    let mut queue = std::collections::VecDeque::with_capacity(nl);
    let mut result = 0usize;

    loop {
        // BFS layering from free left vertices.
        queue.clear();
        let mut found_augmenting_layer = false;
        for u in 0..nl {
            if match_l[u] == NIL {
                dist[u] = 0;
                queue.push_back(nid(u));
            } else {
                dist[u] = u32::MAX;
            }
        }
        while let Some(u) = queue.pop_front() {
            for &v in &adj[u as usize] {
                let w = match_r[v as usize];
                if w == NIL {
                    found_augmenting_layer = true;
                } else if dist[w as usize] == u32::MAX {
                    dist[w as usize] = dist[u as usize] + 1;
                    queue.push_back(w);
                }
            }
        }
        if !found_augmenting_layer {
            break;
        }
        // DFS augmentation along layered paths.
        for u in 0..nid(nl) {
            if match_l[u as usize] == NIL && dfs(u, adj, &mut match_l, &mut match_r, &mut dist) {
                result += 1;
            }
        }
    }
    result
}

fn dfs(
    u: u32,
    adj: &[Vec<u32>],
    match_l: &mut [u32],
    match_r: &mut [u32],
    dist: &mut [u32],
) -> bool {
    const NIL: u32 = u32::MAX;
    for i in 0..adj[u as usize].len() {
        let v = adj[u as usize][i];
        let w = match_r[v as usize];
        if w == NIL
            || (dist[w as usize] == dist[u as usize] + 1 && dfs(w, adj, match_l, match_r, dist))
        {
            match_l[u as usize] = v;
            match_r[v as usize] = u;
            return true;
        }
    }
    dist[u as usize] = u32::MAX;
    false
}

/// `ν(B(S))`: maximum matching size across the cut `(S, V\S)` of `g`.
///
/// `in_s[u]` marks membership of node `u` in `S`.
pub fn cut_matching(g: &Graph, in_s: &[bool]) -> usize {
    let n = g.node_count();
    debug_assert_eq!(in_s.len(), n);
    // Compact ids for each side.
    let mut right_id = vec![u32::MAX; n];
    let mut right_count = 0u32;
    for u in 0..n {
        if !in_s[u] {
            right_id[u] = right_count;
            right_count += 1;
        }
    }
    let mut adj: Vec<Vec<u32>> = Vec::new();
    for u in 0..nid(n) {
        if !in_s[u as usize] {
            continue;
        }
        let nbrs: Vec<u32> = g
            .neighbors(u)
            .iter()
            .filter(|&&v| !in_s[v as usize])
            .map(|&v| right_id[v as usize])
            .collect();
        adj.push(nbrs);
    }
    hopcroft_karp(&adj, right_count as usize)
}

/// Brute-force maximum matching over an explicit bipartite adjacency, by
/// recursion over left vertices. Exponential; reference for tests only.
pub fn brute_force_matching(adj: &[Vec<u32>], right_count: usize) -> usize {
    fn rec(i: usize, adj: &[Vec<u32>], used: &mut [bool]) -> usize {
        if i == adj.len() {
            return 0;
        }
        // Skip left vertex i.
        let mut best = rec(i + 1, adj, used);
        for &v in &adj[i] {
            if !used[v as usize] {
                used[v as usize] = true;
                best = best.max(1 + rec(i + 1, adj, used));
                used[v as usize] = false;
            }
        }
        best
    }
    let mut used = vec![false; right_count];
    rec(0, adj, &mut used)
}

/// Exhaustive `γ = min_{S ⊂ V, 0 < |S| ≤ n/2} ν(B(S))/|S|`.
///
/// Exponential in `n`; restricted to `n ≤ 18` (262k subsets, each with an
/// `O(E√V)` matching). Used to validate Lemma V.1 (`γ ≥ α/4`).
pub fn gamma_exact(g: &Graph) -> f64 {
    let n = g.node_count();
    assert!(n >= 2, "γ undefined for n < 2");
    assert!(n <= 18, "gamma_exact is exponential; n ≤ 18 required");
    let half = n / 2;
    let mut best = f64::INFINITY;
    let mut in_s = vec![false; n];
    let full: u32 = if n == 32 { !0 } else { (1u32 << n) - 1 };
    for s in 1u32..=full {
        let size = s.count_ones() as usize;
        if size > half {
            continue;
        }
        for (u, flag) in in_s.iter_mut().enumerate() {
            *flag = s & (1 << u) != 0;
        }
        let m = cut_matching(g, &in_s);
        let ratio = m as f64 / size as f64;
        if ratio < best {
            best = ratio;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expansion::alpha_exact;
    use crate::gen;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn hk_simple_cases() {
        // Perfect matching on K_{3,3}.
        let adj = vec![vec![0, 1, 2], vec![0, 1, 2], vec![0, 1, 2]];
        assert_eq!(hopcroft_karp(&adj, 3), 3);
        // A path L0-R0-L1: matching of size 1... actually L0-R0, L1-R0 → 1.
        let adj = vec![vec![0], vec![0]];
        assert_eq!(hopcroft_karp(&adj, 1), 1);
        // No edges.
        let adj: Vec<Vec<u32>> = vec![vec![], vec![]];
        assert_eq!(hopcroft_karp(&adj, 2), 0);
    }

    #[test]
    fn hk_matches_brute_force_random() {
        // case stream from a fixed test seed.
        #[allow(clippy::disallowed_methods)]
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..200 {
            let nl = rng.gen_range(0..7);
            let nr = rng.gen_range(0..7usize);
            let adj: Vec<Vec<u32>> =
                (0..nl).map(|_| (0..nid(nr)).filter(|_| rng.gen_bool(0.4)).collect()).collect();
            assert_eq!(
                hopcroft_karp(&adj, nr),
                brute_force_matching(&adj, nr),
                "mismatch on adj = {adj:?}"
            );
        }
    }

    #[test]
    fn cut_matching_star() {
        // Star hub 0: S = {0} → cut matching 1 (hub can match one leaf).
        let g = gen::star(6);
        let mut in_s = vec![false; 6];
        in_s[0] = true;
        assert_eq!(cut_matching(&g, &in_s), 1);
        // S = 2 leaves → both can only match the hub → 1.
        let in_s = [false, true, true, false, false, false];
        assert_eq!(cut_matching(&g, &in_s), 1);
    }

    #[test]
    fn cut_matching_clique_balanced() {
        let g = gen::clique(8);
        let in_s: Vec<bool> = (0..8).map(|u| u < 4).collect();
        assert_eq!(cut_matching(&g, &in_s), 4);
    }

    #[test]
    fn cut_matching_path_is_one() {
        // Prefix cut of a path crosses exactly one edge.
        let g = gen::path(9);
        let in_s: Vec<bool> = (0..9).map(|u| u < 4).collect();
        assert_eq!(cut_matching(&g, &in_s), 1);
    }

    #[test]
    fn lemma_v1_gamma_at_least_alpha_over_4_small_families() {
        for (name, g) in [
            ("clique", gen::clique(8)),
            ("path", gen::path(10)),
            ("cycle", gen::cycle(10)),
            ("star", gen::star(9)),
            ("hypercube", gen::hypercube(3)),
            ("bipartite", gen::complete_bipartite(4, 5)),
            ("tree", gen::dary_tree(11, 2)),
        ] {
            let gamma = gamma_exact(&g);
            let alpha = alpha_exact(&g);
            assert!(gamma >= alpha / 4.0 - 1e-9, "{name}: γ = {gamma} < α/4 = {}", alpha / 4.0);
        }
    }

    #[test]
    fn lemma_v1_on_random_graphs() {
        for seed in 0..10 {
            let g = gen::erdos_renyi_connected(12, 0.3, seed);
            let gamma = gamma_exact(&g);
            let alpha = alpha_exact(&g);
            assert!(
                gamma >= alpha / 4.0 - 1e-9,
                "seed {seed}: γ = {gamma} < α/4 = {}",
                alpha / 4.0
            );
        }
    }

    #[test]
    fn gamma_le_alpha_relationship() {
        // ν(B(S)) ≤ |∂S| always, hence γ ≤ α... not in general (min over
        // different S). But for each fixed S, matching ≤ boundary. Check that.
        let g = gen::erdos_renyi_connected(10, 0.4, 3);
        let mut in_s = vec![false; 10];
        for s in 1u32..(1 << 10) {
            if s.count_ones() as usize > 5 {
                continue;
            }
            for (u, flag) in in_s.iter_mut().enumerate() {
                *flag = s & (1 << u) != 0;
            }
            let m = cut_matching(&g, &in_s);
            let b = crate::expansion::boundary_size(&g, &in_s);
            assert!(m <= b, "matching {m} exceeds boundary {b}");
        }
    }
}
