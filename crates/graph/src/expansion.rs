//! Vertex expansion `α`.
//!
//! The paper (Section II) defines, for `S ⊆ V` with `0 < |S| ≤ n/2`,
//! `α(S) = |∂S| / |S|` where `∂S = { v ∉ S : N(v) ∩ S ≠ ∅ }`, and the vertex
//! expansion of the graph as `α = min_S α(S)`. Note `α(S)` can exceed 1 for
//! a specific `S` but the minimum always satisfies `α ≤ 1`.
//!
//! Computing `α` exactly is exponential (it is a min over all subsets).
//! Three tools are provided:
//!
//! * [`alpha_of_set`] — `α(S)` for a specific cut, exact, linear time;
//! * [`alpha_exact`] — the exact minimum via bitmask subset enumeration,
//!   for graphs with `n ≤ 24` (tests and Lemma V.1 validation);
//! * [`alpha_upper_bound_sampled`] — a heuristic search over structured cuts
//!   (BFS balls, degree prefixes, random sets + greedy descent) returning
//!   `min α(S)` over everything it tried — always an *upper bound* on `α`.
//!
//! Experiments on large graphs use the closed forms attached to each
//! [`crate::family::GraphFamily`], validated against [`alpha_exact`] at
//! small sizes in tests.

use crate::nid;
use crate::static_graph::{Graph, NodeId};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Exact `α(S) = |∂S|/|S|` for a specific node set.
///
/// `S` is given as a boolean membership mask of length `n`. Panics if `S` is
/// empty.
pub fn alpha_of_set(g: &Graph, in_s: &[bool]) -> f64 {
    let size: usize = in_s.iter().filter(|&&b| b).count();
    assert!(size > 0, "α(S) undefined for empty S");
    boundary_size(g, in_s) as f64 / size as f64
}

/// `|∂S|`: the number of nodes outside `S` adjacent to `S`.
pub fn boundary_size(g: &Graph, in_s: &[bool]) -> usize {
    let n = g.node_count();
    debug_assert_eq!(in_s.len(), n);
    let mut count = 0usize;
    for v in 0..nid(n) {
        if in_s[v as usize] {
            continue;
        }
        if g.neighbors(v).iter().any(|&u| in_s[u as usize]) {
            count += 1;
        }
    }
    count
}

/// Exact vertex expansion by exhaustive subset enumeration using 64-bit
/// neighborhood masks. Only feasible for small graphs; panics for `n > 24`
/// (2^24 subsets ≈ 16M is the practical ceiling for tests).
pub fn alpha_exact(g: &Graph) -> f64 {
    let n = g.node_count();
    assert!(n >= 2, "α undefined for n < 2");
    assert!(n <= 24, "alpha_exact is exponential; use the sampled bound for n > 24");
    let masks: Vec<u64> =
        (0..nid(n)).map(|u| g.neighbors(u).iter().fold(0u64, |m, &v| m | (1u64 << v))).collect();
    let full: u64 = if n == 64 { !0 } else { (1u64 << n) - 1 };
    let half = n / 2;
    let mut best = f64::INFINITY;
    for s in 1u64..=full {
        let size = s.count_ones() as usize;
        if size > half {
            continue;
        }
        // ∂S = (∪_{u∈S} N(u)) \ S
        let mut nbhd = 0u64;
        let mut bits = s;
        while bits != 0 {
            let u = bits.trailing_zeros() as usize;
            nbhd |= masks[u];
            bits &= bits - 1;
        }
        let boundary = (nbhd & !s).count_ones() as usize;
        let a = boundary as f64 / size as f64;
        if a < best {
            best = a;
        }
    }
    best
}

/// Heuristic upper bound on `α` for large graphs: the minimum `α(S)` over
/// a catalogue of candidate cuts. Deterministic for a fixed seed.
///
/// Candidates tried:
/// * BFS balls of every radius around `samples` random centers,
/// * prefixes of the degree-descending node order,
/// * `samples` uniformly random sets of random sizes, each improved by
///   greedy descent (move single nodes across the cut while `α(S)` drops).
///
/// Every candidate is priced on a `Cut` that keeps `|∂S|` up to date, so
/// the ball and prefix sweeps are linear in `n + m` and each descent step
/// costs `O(n + m)` for all `n` single-node moves together.
pub fn alpha_upper_bound_sampled(g: &Graph, samples: usize, seed: u64) -> f64 {
    let n = g.node_count();
    assert!(n >= 2);
    let half = n / 2;
    // sampling stream from an explicit seed parameter.
    #[allow(clippy::disallowed_methods)]
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut best = f64::INFINITY;
    let mut cut = Cut::new(g);

    // BFS balls: grow from random centers, evaluating after each new node
    // joins in BFS order, which sweeps all ball radii in one pass.
    for _ in 0..samples.max(1) {
        let center = nid(rng.gen_range(0..n));
        cut.clear();
        let order = bfs_order(g, center);
        for (taken, &u) in order.iter().enumerate() {
            if taken + 1 > half {
                break;
            }
            cut.flip(u);
            let a = cut.alpha();
            if a < best {
                best = a;
            }
        }
    }

    // Degree-descending prefixes (captures hub-heavy minima like stars).
    let mut by_deg: Vec<NodeId> = (0..nid(n)).collect();
    by_deg.sort_by_key(|&u| std::cmp::Reverse(g.degree(u)));
    cut.clear();
    for (taken, &u) in by_deg.iter().enumerate() {
        if taken + 1 > half {
            break;
        }
        cut.flip(u);
        let a = cut.alpha();
        if a < best {
            best = a;
        }
    }

    // Random sets + greedy descent.
    let mut ids: Vec<NodeId> = (0..nid(n)).collect();
    for _ in 0..samples {
        let size = rng.gen_range(1..=half.max(1));
        ids.shuffle(&mut rng);
        cut.clear();
        for &u in &ids[..size] {
            cut.flip(u);
        }
        let a = greedy_descend(&mut cut, half);
        if a < best {
            best = a;
        }
    }
    best
}

/// A cut `S` that keeps its boundary current: for each node the number of
/// its neighbours in `S`, plus `|S|` and `|∂S|`. Moving node `u` across the
/// cut, or pricing that move, costs `O(deg u)`, where a fresh
/// [`alpha_of_set`] costs `O(n + m)`. `α` is still `|∂S| / |S|` over the
/// same integers, so it equals [`alpha_of_set`] bit for bit.
struct Cut<'g> {
    g: &'g Graph,
    in_s: Vec<bool>,
    /// Per node, how many of its neighbours lie in `S`.
    s_neighbors: Vec<u32>,
    size: usize,
    boundary: usize,
}

impl<'g> Cut<'g> {
    /// The empty cut of `g`.
    fn new(g: &'g Graph) -> Self {
        let n = g.node_count();
        Cut { g, in_s: vec![false; n], s_neighbors: vec![0; n], size: 0, boundary: 0 }
    }

    /// Empty `S` again.
    fn clear(&mut self) {
        self.in_s.fill(false);
        self.s_neighbors.fill(0);
        self.size = 0;
        self.boundary = 0;
    }

    /// `α(S)`; `S` must be nonempty.
    fn alpha(&self) -> f64 {
        self.boundary as f64 / self.size as f64
    }

    /// `|∂S|` once `u` has moved across the cut.
    fn boundary_after_flip(&self, u: NodeId) -> usize {
        // How many neighbours of `u` lie outside S with exactly `k`
        // neighbours in S.
        let outside_with = |k: u32| {
            let nbrs = self.g.neighbors(u).iter();
            nbrs.filter(|&&w| !self.in_s[w as usize] && self.s_neighbors[w as usize] == k).count()
        };
        let touches_s = usize::from(self.s_neighbors[u as usize] > 0);
        if self.in_s[u as usize] {
            // `u` joins ∂S if a neighbour stays in S; every outside
            // neighbour whose only S-neighbour was `u` leaves ∂S.
            self.boundary + touches_s - outside_with(1)
        } else {
            // `u` leaves ∂S; every outside neighbour with no S-neighbour
            // yet joins it.
            self.boundary - touches_s + outside_with(0)
        }
    }

    /// `α` of the cut with `u` moved across it.
    fn alpha_after_flip(&self, u: NodeId) -> f64 {
        let size = if self.in_s[u as usize] { self.size - 1 } else { self.size + 1 };
        self.boundary_after_flip(u) as f64 / size as f64
    }

    /// Move `u` across the cut.
    fn flip(&mut self, u: NodeId) {
        self.boundary = self.boundary_after_flip(u);
        let joining = !self.in_s[u as usize];
        self.in_s[u as usize] = joining;
        if joining {
            self.size += 1;
        } else {
            self.size -= 1;
        }
        for &w in self.g.neighbors(u) {
            let count = &mut self.s_neighbors[w as usize];
            if joining {
                *count += 1;
            } else {
                *count -= 1;
            }
        }
    }
}

/// Greedy local search: repeatedly apply the single-node add/remove move
/// that most decreases `α(S)`, stopping at a local minimum. Returns the
/// final `α(S)`. `cut` is modified in place.
fn greedy_descend(cut: &mut Cut<'_>, half: usize) -> f64 {
    let n = cut.g.node_count();
    let mut current = cut.alpha();
    loop {
        let size = cut.size;
        let mut best_move: Option<(NodeId, f64)> = None;
        for u in 0..nid(n) {
            let adding = !cut.in_s[u as usize];
            if adding && size + 1 > half {
                continue;
            }
            if !adding && size == 1 {
                continue;
            }
            let a = cut.alpha_after_flip(u);
            if a < best_move.map_or(current, |(_, b)| b) {
                best_move = Some((u, a));
            }
        }
        match best_move {
            Some((u, a)) if a < current => {
                cut.flip(u);
                current = a;
            }
            _ => return current,
        }
    }
}

/// Nodes in BFS order from `start` (only the reachable component).
fn bfs_order(g: &Graph, start: NodeId) -> Vec<NodeId> {
    let n = g.node_count();
    let mut seen = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut queue = std::collections::VecDeque::new();
    seen[start as usize] = true;
    queue.push_back(start);
    while let Some(u) = queue.pop_front() {
        order.push(u);
        for &v in g.neighbors(u) {
            if !seen[v as usize] {
                seen[v as usize] = true;
                queue.push_back(v);
            }
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn clique_alpha_exact() {
        // K_n: every S with |S| ≤ n/2 has ∂S = V \ S, so α(S) = (n-|S|)/|S|,
        // minimized at |S| = n/2 → α = 1 for even n.
        let g = gen::clique(8);
        let a = alpha_exact(&g);
        assert!((a - 1.0).abs() < 1e-9, "K_8 α = {a}");
        let g = gen::clique(7); // |S| = 3 → α = 4/3
        let a = alpha_exact(&g);
        assert!((a - 4.0 / 3.0).abs() < 1e-9, "K_7 α = {a}");
    }

    #[test]
    fn path_alpha_exact() {
        // P_n: take a prefix half-line S, |∂S| = 1 → α = 1/⌊n/2⌋.
        let g = gen::path(10);
        let a = alpha_exact(&g);
        assert!((a - 1.0 / 5.0).abs() < 1e-9, "P_10 α = {a}");
    }

    #[test]
    fn cycle_alpha_exact() {
        // C_n: a contiguous arc S has |∂S| = 2 → α = 2/⌊n/2⌋.
        let g = gen::cycle(12);
        let a = alpha_exact(&g);
        assert!((a - 2.0 / 6.0).abs() < 1e-9, "C_12 α = {a}");
    }

    #[test]
    fn star_alpha_exact() {
        // Star S_{n-1}: S = half the leaves has ∂S = {hub} → α = 1/⌊n/2⌋.
        let g = gen::star(9);
        let a = alpha_exact(&g);
        assert!((a - 1.0 / 4.0).abs() < 1e-9, "star α = {a}");
    }

    #[test]
    fn alpha_always_at_most_one() {
        for (name, g) in [
            ("clique", gen::clique(6)),
            ("path", gen::path(9)),
            ("star", gen::star(8)),
            ("hypercube", gen::hypercube(3)),
            ("tree", gen::dary_tree(10, 2)),
        ] {
            let a = alpha_exact(&g);
            assert!(a <= 1.0 + 1e-12, "{name}: α = {a} > 1");
            assert!(a > 0.0, "{name}: α = {a} ≤ 0 on a connected graph");
        }
    }

    #[test]
    fn alpha_of_set_matches_manual() {
        // Path 0-1-2-3; S = {0,1}: ∂S = {2} → 1/2.
        let g = gen::path(4);
        let a = alpha_of_set(&g, &[true, true, false, false]);
        assert!((a - 0.5).abs() < 1e-12);
        // S = {1}: ∂S = {0, 2} → 2.
        let a = alpha_of_set(&g, &[false, true, false, false]);
        assert!((a - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn alpha_of_empty_set_panics() {
        let g = gen::path(3);
        alpha_of_set(&g, &[false, false, false]);
    }

    #[test]
    fn sampled_bound_dominates_exact() {
        // The sampled search returns min over candidate cuts ≥ true α.
        for seed in 0..3 {
            let g = gen::erdos_renyi_connected(14, 0.3, seed);
            let exact = alpha_exact(&g);
            let bound = alpha_upper_bound_sampled(&g, 30, seed);
            assert!(bound >= exact - 1e-9, "sampled {bound} below exact {exact} (seed {seed})");
            // On graphs this small the heuristic should be nearly tight.
            assert!(
                bound <= exact * 2.0 + 1e-9,
                "sampled {bound} far above exact {exact} (seed {seed})"
            );
        }
    }

    #[test]
    fn sampled_bound_finds_path_cut() {
        let g = gen::path(64);
        let bound = alpha_upper_bound_sampled(&g, 20, 1);
        // True α = 1/32; BFS-ball candidates from an endpoint find it.
        assert!(bound <= 1.0 / 16.0, "path bound too loose: {bound}");
    }

    #[test]
    fn incremental_cut_matches_recount_after_random_flips() {
        for (seed, g) in [
            gen::erdos_renyi_connected(30, 0.15, 1),
            gen::random_regular(40, 3, 2),
            gen::star(17),
            gen::path(25),
        ]
        .into_iter()
        .enumerate()
        {
            let n = g.node_count();
            let mut rng = crate::rng::stream_rng(seed as u64, 0);
            let mut cut = Cut::new(&g);
            for step in 0..400 {
                if step % 150 == 149 {
                    cut.clear();
                }
                let u = nid(rng.gen_range(0..n));
                // Price the move against a recount of the flipped mask.
                cut.in_s[u as usize] ^= true;
                let want = boundary_size(&g, &cut.in_s);
                let nonempty = cut.in_s.contains(&true);
                let want_alpha = nonempty.then(|| alpha_of_set(&g, &cut.in_s));
                cut.in_s[u as usize] ^= true;
                assert_eq!(cut.boundary_after_flip(u), want, "graph {seed} step {step}");
                if let Some(want_alpha) = want_alpha {
                    assert_eq!(cut.alpha_after_flip(u).to_bits(), want_alpha.to_bits());
                }
                cut.flip(u);
                assert_eq!(cut.boundary, want, "graph {seed} step {step}");
                assert_eq!(cut.size, cut.in_s.iter().filter(|&&b| b).count());
                if nonempty {
                    assert_eq!(cut.alpha().to_bits(), alpha_of_set(&g, &cut.in_s).to_bits());
                }
                for v in 0..nid(n) {
                    let inside = g.neighbors(v).iter().filter(|&&w| cut.in_s[w as usize]).count();
                    assert_eq!(cut.s_neighbors[v as usize] as usize, inside);
                }
            }
        }
    }

    #[test]
    fn boundary_size_examples() {
        let g = gen::star(5); // hub 0, leaves 1..4
        assert_eq!(boundary_size(&g, &[false, true, true, false, false]), 1);
        assert_eq!(boundary_size(&g, &[true, false, false, false, false]), 4);
    }
}
