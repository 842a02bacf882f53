//! Topology generators.
//!
//! Every family used in the paper's analysis or our experiments is generated
//! here. Deterministic families take only sizes; randomized families take an
//! explicit seed. All generators return *connected* graphs (randomized ones
//! retry or patch until connected), matching the model's assumption that the
//! topology in each round is connected.

use crate::nid;
use crate::static_graph::{Graph, GraphBuilder, NodeId};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Complete graph `K_n`. Vertex expansion `α ≈ 1` (well connected); `Δ = n-1`.
pub fn clique(n: usize) -> Graph {
    let mut b = GraphBuilder::with_capacity(n, n * (n.saturating_sub(1)) / 2);
    for u in 0..nid(n) {
        for v in (u + 1)..nid(n) {
            b.add_edge(u, v);
        }
    }
    b.build()
}

/// Path `P_n` (a line). The paper's canonical "inherently slow" topology:
/// `α = Θ(1/n)`.
pub fn path(n: usize) -> Graph {
    let mut b = GraphBuilder::with_capacity(n, n.saturating_sub(1));
    for u in 1..nid(n) {
        b.add_edge(u - 1, u);
    }
    b.build()
}

/// Cycle `C_n`. `α = Θ(1/n)`, `Δ = 2`.
pub fn cycle(n: usize) -> Graph {
    assert!(n != 2, "C_2 would be a multi-edge");
    let mut b = GraphBuilder::with_capacity(n, n);
    for u in 1..nid(n) {
        b.add_edge(u - 1, u);
    }
    if n > 2 {
        b.add_edge(nid(n) - 1, 0);
    }
    b.build()
}

/// Star `S_{n-1}`: node 0 is the hub. `Δ = n-1`, `α = Θ(1/n)` (take `S` to be
/// half the leaves: only the hub borders it... the hub plus nothing else, so
/// `α(S) = 1/|S|`).
pub fn star(n: usize) -> Graph {
    assert!(n >= 1);
    let mut b = GraphBuilder::with_capacity(n, n.saturating_sub(1));
    for u in 1..nid(n) {
        b.add_edge(0, u);
    }
    b.build()
}

/// The §VI lower-bound construction: a line of `spine` stars, each with
/// `points` leaf nodes. Spine nodes are ids `0..spine`; leaves of spine node
/// `i` are `spine + i*points .. spine + (i+1)*points`.
///
/// With `spine = points = √n` this is the network in which blind gossip
/// needs `Ω(Δ²·√n) = Ω(Δ²/√α)` rounds.
pub fn line_of_stars(spine: usize, points: usize) -> Graph {
    assert!(spine >= 1);
    let n = spine + spine * points;
    let mut b = GraphBuilder::with_capacity(n, spine - 1 + spine * points);
    for i in 1..nid(spine) {
        b.add_edge(i - 1, i);
    }
    for i in 0..spine {
        for j in 0..points {
            b.add_edge(nid(i), nid(spine + i * points + j));
        }
    }
    b.build()
}

/// Convenience: the symmetric `√n` line-of-stars closest to a target size.
/// Returns the graph and the chosen `(spine, points)`.
pub fn line_of_stars_sqrt(n_target: usize) -> (Graph, usize, usize) {
    // intended float->int rounding: s is at most √n_target.
    #[allow(clippy::cast_possible_truncation)]
    let s = (n_target as f64).sqrt().floor().max(1.0) as usize;
    (line_of_stars(s, s), s, s)
}

/// Complete bipartite graph `K_{a,b}`: sides `0..a` and `a..a+b`.
pub fn complete_bipartite(a: usize, b_size: usize) -> Graph {
    let mut b = GraphBuilder::with_capacity(a + b_size, a * b_size);
    for u in 0..nid(a) {
        for v in 0..nid(b_size) {
            b.add_edge(u, nid(a) + v);
        }
    }
    b.build()
}

/// Complete `d`-ary tree with `n` nodes (node 0 the root, node `i`'s parent
/// is `(i-1)/d`).
pub fn dary_tree(n: usize, d: usize) -> Graph {
    assert!(d >= 1);
    let mut b = GraphBuilder::with_capacity(n, n.saturating_sub(1));
    for u in 1..n {
        b.add_edge(nid((u - 1) / d), nid(u));
    }
    b.build()
}

/// Hypercube `Q_d` on `2^d` nodes: `u ~ v` iff they differ in one bit.
/// A classic expander-ish graph with `Δ = d = log n`.
pub fn hypercube(d: u32) -> Graph {
    let n = 1usize << d;
    let mut b = GraphBuilder::with_capacity(n, n * d as usize / 2);
    for u in 0..n {
        for bit in 0..d {
            let v = u ^ (1 << bit);
            if u < v {
                b.add_edge(nid(u), nid(v));
            }
        }
    }
    b.build()
}

/// 2-D torus grid `rows × cols` with wraparound. `Δ = 4`, `α = Θ(1/√n)`.
pub fn torus(rows: usize, cols: usize) -> Graph {
    assert!(rows >= 3 && cols >= 3, "torus needs both dims ≥ 3 to avoid multi-edges");
    let n = rows * cols;
    let id = |r: usize, c: usize| nid(r * cols + c);
    let mut b = GraphBuilder::with_capacity(n, 2 * n);
    for r in 0..rows {
        for c in 0..cols {
            b.add_edge(id(r, c), id(r, (c + 1) % cols));
            b.add_edge(id(r, c), id((r + 1) % rows, c));
        }
    }
    b.build()
}

/// Barbell: two cliques of size `k` joined by a path of `bridge` nodes.
/// The classic low-expansion, high-degree graph: `α = Θ(1/k)`.
pub fn barbell(k: usize, bridge: usize) -> Graph {
    assert!(k >= 2);
    let n = 2 * k + bridge;
    let mut b = GraphBuilder::new(n);
    for u in 0..nid(k) {
        for v in (u + 1)..nid(k) {
            b.add_edge(u, v);
        }
    }
    let right = nid(k + bridge);
    for u in 0..nid(k) {
        for v in (u + 1)..nid(k) {
            b.add_edge(right + u, right + v);
        }
    }
    // Chain: clique-A node k-1 — bridge nodes — clique-B node `right`.
    let mut prev = nid(k - 1);
    for i in 0..bridge {
        let x = nid(k + i);
        b.add_edge(prev, x);
        prev = x;
    }
    b.add_edge(prev, right);
    b.build()
}

/// Random `d`-regular graph via the pairing model with retries: sample a
/// random perfect matching on `n·d` half-edges, reject self loops/multi-edges,
/// repeat until simple and connected. Requires `n·d` even and `d < n`.
///
/// For constant `d ≥ 3` these are expanders w.h.p. (`α = Θ(1)`).
///
/// *RNG-order contract.* Each attempt draws one `stubs.shuffle`, then one
/// `gen_range` per repair iteration, and gives up after `pairs.len() · 50`
/// iterations; an attempt whose pairing is not simple, connected and
/// `d`-regular is retried, up to 1,000 times. Any change to that order moves
/// every expander's bytes and with them every committed table.
///
/// Pair multiplicities live in a flat table of `d` `(partner, count)` slots
/// per node (`PairCounts`), and the scan for the first bad pair resumes
/// where the previous one stopped (DESIGN.md §4, "Generator cost model"), so
/// one attempt scans each pair a constant number of times. The simple
/// pairing is then scattered straight into `d`-regular CSR rows. Measured
/// peak at `d = 8`: 24 bytes per edge, during the repair loop (the 8-byte
/// pair list plus the 16-byte table; the CSR is built after the table is
/// freed).
pub fn random_regular(n: usize, d: usize, seed: u64) -> Graph {
    assert!((n * d).is_multiple_of(2), "n·d must be even");
    assert!(d < n, "degree must be < n");
    if d == 0 {
        assert!(n <= 1, "0-regular graph on >1 nodes is disconnected");
        return GraphBuilder::new(n).build();
    }
    // generator stream from an explicit seed parameter.
    #[allow(clippy::disallowed_methods)]
    let mut rng = SmallRng::seed_from_u64(seed);
    for _ in 0..1_000 {
        // Pairing (configuration) model with local swap repair: full
        // rejection has acceptance probability ≈ e^{-(d²-1)/4}, hopeless for
        // d ≥ 6, so invalid pairs are fixed by swapping endpoints with
        // random other pairs instead.
        let mut stubs: Vec<NodeId> = Vec::with_capacity(n * d);
        for u in 0..nid(n) {
            for _ in 0..d {
                stubs.push(u);
            }
        }
        stubs.shuffle(&mut rng);
        let mut pairs: Vec<(NodeId, NodeId)> =
            stubs.chunks_exact(2).map(|p| (p[0], p[1])).collect();
        drop(stubs);
        let mut seen = PairCounts::new(n, d);
        for &(u, v) in &pairs {
            if u != v {
                seen.add(u, v);
            }
        }
        let is_bad = |p: (NodeId, NodeId), seen: &PairCounts| p.0 == p.1 || seen.get(p.0, p.1) > 1;
        // No pair before the first bad one can turn bad (DESIGN.md §4), so
        // each scan resumes at the previous one's index.
        let mut i = 0;
        for _ in 0..pairs.len() * 50 {
            let Some(skip) = pairs[i..].iter().position(|&p| is_bad(p, &seen)) else {
                break;
            };
            i += skip;
            let j = rng.gen_range(0..pairs.len());
            if i == j {
                continue;
            }
            let (a, b) = pairs[i];
            let (c, e) = pairs[j];
            // Propose (a, e), (c, b).
            if a == e || c == b {
                continue;
            }
            if seen.get(a, e) > 0 || seen.get(c, b) > 0 {
                continue;
            }
            if a != b {
                seen.remove(a, b);
            }
            if c != e {
                seen.remove(c, e);
            }
            seen.add(a, e);
            seen.add(c, b);
            pairs[i] = (a, e);
            pairs[j] = (c, b);
        }
        if pairs.iter().any(|&p| is_bad(p, &seen)) {
            continue;
        }
        drop(seen);
        let g = regular_csr(n, d, &pairs);
        if g.is_connected() {
            return g;
        }
    }
    panic!("random_regular({n}, {d}) failed to produce a simple connected graph");
}

/// The CSR graph of a simple pairing in which every node has `d` stubs:
/// row `u` is `adjacency[u·d .. (u+1)·d]`, filled in pair order and then
/// sorted. A simple pairing has no self loop and no repeated pair, so each
/// row holds exactly `d` distinct neighbours and the graph is `d`-regular
/// by construction.
fn regular_csr(n: usize, d: usize, pairs: &[(NodeId, NodeId)]) -> Graph {
    let row_start = |u: usize| u32::try_from(u * d).expect("n·d half-edges fit u32 CSR offsets");
    let offsets: Vec<u32> = (0..=n).map(row_start).collect();
    let mut next = offsets[..n].to_vec();
    let mut adjacency: Vec<NodeId> = vec![0; n * d];
    for &(u, v) in pairs {
        for (a, b) in [(u, v), (v, u)] {
            let slot = &mut next[a as usize];
            adjacency[*slot as usize] = b;
            *slot += 1;
        }
    }
    for row in adjacency.chunks_exact_mut(d) {
        row.sort_unstable();
        debug_assert!(row.windows(2).all(|w| w[0] < w[1]), "a simple pairing repeats no pair");
    }
    Graph::from_csr_parts_unchecked(offsets, adjacency)
}

/// How many times each pair `{u, v}`, `u ≠ v`, occurs in a pairing: `d`
/// `(partner, count)` slots per node, keyed on the smaller endpoint. A count
/// of 0 marks a free slot.
struct PairCounts {
    d: usize,
    slots: Vec<(NodeId, u32)>,
}

impl PairCounts {
    fn new(n: usize, d: usize) -> Self {
        PairCounts { d, slots: vec![(0, 0); n * d] }
    }

    /// The slot row of `{u, v}`'s smaller endpoint, and the larger endpoint.
    fn row(&self, u: NodeId, v: NodeId) -> (std::ops::Range<usize>, NodeId) {
        let (lo, hi) = if u < v { (u, v) } else { (v, u) };
        let start = lo as usize * self.d;
        (start..start + self.d, hi)
    }

    fn live_slot(&self, u: NodeId, v: NodeId) -> Option<usize> {
        let (row, hi) = self.row(u, v);
        let start = row.start;
        self.slots[row].iter().position(|&(p, c)| c > 0 && p == hi).map(|k| start + k)
    }

    fn get(&self, u: NodeId, v: NodeId) -> u32 {
        self.live_slot(u, v).map_or(0, |k| self.slots[k].1)
    }

    fn add(&mut self, u: NodeId, v: NodeId) {
        let k = self.live_slot(u, v).unwrap_or_else(|| {
            let (row, hi) = self.row(u, v);
            let start = row.start;
            let k = start
                + self.slots[row].iter().position(|&(_, c)| c == 0).expect(
                    "a node is the smaller endpoint of at most d pairs, so one of its d slots is free",
                );
            self.slots[k].0 = hi;
            k
        });
        self.slots[k].1 += 1;
    }

    fn remove(&mut self, u: NodeId, v: NodeId) {
        let k = self.live_slot(u, v).expect("every pair in the pairing has a live slot");
        self.slots[k].1 -= 1;
    }
}

/// Random `d`-regular simple *connected* graph assembled **directly in CSR
/// form** as the union of `d/2` independent random Hamiltonian cycles (the
/// permutation model), with local 2-opt repairs for the rare duplicate
/// edges between cycles. Requires `d` even, `d ≥ 2`, and `n > 2·d`.
///
/// This is the memory-lean counterpart of [`random_regular`]: the pairing
/// model materializes an `n·d/2` pair list plus a `d`-slot-per-node
/// multiplicity table and peaks at 24 bytes per edge (measured at `d = 8`).
/// Here the only allocations are the final CSR arrays (`(n+1) + n·d` u32
/// words) and one `n`-entry permutation buffer, so a `2^27`-node 8-regular
/// expander costs ≈ 5 GB instead of ≈ 12.9 GB. Connectivity holds *by
/// construction* — every cycle alone spans all nodes, and a 2-opt move
/// keeps a Hamiltonian cycle Hamiltonian — so there is no retry loop and
/// construction time is `O(n·d)` expected.
///
/// For constant even `d ≥ 4` the union of `d/2` random Hamiltonian cycles
/// is an expander w.h.p., just like the pairing model (`α = Θ(1)`).
pub fn random_regular_cycles(n: usize, d: usize, seed: u64) -> Graph {
    assert!(d >= 2 && d.is_multiple_of(2), "cycle-union model needs even d ≥ 2, got {d}");
    assert!(n > 2 * d, "cycle-union model needs n > 2d for 2-opt repair room ({n} ≤ {})", 2 * d);
    let half = d / 2;
    // Row-major adjacency: node u's slots are `u*d .. (u+1)*d`, cycle c
    // filling positions 2c and 2c+1 (each node touches exactly two edges
    // per Hamiltonian cycle), so no per-node fill counters are needed.
    let mut adjacency: Vec<NodeId> = vec![0; n * d];
    // Does {a, b} already appear among the `filled` first slots of a's row?
    let edge_exists = |adj: &[NodeId], a: NodeId, b: NodeId, filled: usize| {
        let base = a as usize * d;
        adj[base..base + filled].contains(&b)
    };
    let mut perm: Vec<NodeId> = (0..n).map(nid).collect();
    for c in 0..half {
        let mut rng = crate::rng::stream_rng(seed, c as u64);
        perm.shuffle(&mut rng);
        let filled = 2 * c;
        if c > 0 {
            // Repair pass: the expected number of edges a fresh random
            // Hamiltonian cycle shares with the previous ones is ≈ 2·c·d/n
            // per cycle pair sum — O(d²) total, independent of n — so a
            // handful of 2-opt moves (each O(segment) for the reversal)
            // fixes them all. A 2-opt replaces tour edges (i, i+1) and
            // (j, j+1) with (i, j) and (i+1, j+1), reversing the segment
            // in between; the tour stays a single Hamiltonian cycle.
            let mut i = 0usize;
            while i < n {
                let a = perm[i];
                let b = perm[(i + 1) % n];
                if !edge_exists(&adjacency, a, b, filled) {
                    i += 1;
                    continue;
                }
                let mut attempts = 0u32;
                loop {
                    attempts += 1;
                    assert!(
                        attempts < 10_000,
                        "random_regular_cycles({n}, {d}): 2-opt repair did not converge"
                    );
                    if i == n - 1 {
                        // Conflict on the wraparound edge {perm[n-1], perm[0]}:
                        // pair it with (j, j+1) and reverse the prefix.
                        let j = rng.gen_range(1..n - 2);
                        let e1 = (perm[n - 1], perm[j]);
                        let e2 = (perm[0], perm[j + 1]);
                        if edge_exists(&adjacency, e1.0, e1.1, filled)
                            || edge_exists(&adjacency, e2.0, e2.1, filled)
                        {
                            continue;
                        }
                        perm[0..=j].reverse();
                        break;
                    }
                    let j = rng.gen_range(0..n);
                    // Order the two tour edges (lo, lo+1), (hi, hi+1); they
                    // must not share an endpoint (hi ≥ lo+2, and not the
                    // wrap-adjacent pair). Either one may be the conflicted
                    // edge — the move removes both.
                    let (lo, hi) = if j < i { (j, i) } else { (i, j) };
                    if hi < lo + 2 || (lo == 0 && hi == n - 1) {
                        continue;
                    }
                    let e1 = (perm[lo], perm[hi]);
                    let e2 = (perm[lo + 1], perm[(hi + 1) % n]);
                    if edge_exists(&adjacency, e1.0, e1.1, filled)
                        || edge_exists(&adjacency, e2.0, e2.1, filled)
                    {
                        continue;
                    }
                    perm[lo + 1..=hi].reverse();
                    break;
                }
                // Re-check position i: the repaired edge was validated, but
                // staying put keeps the loop logic uniform.
            }
        }
        for i in 0..n {
            let u = perm[i] as usize;
            adjacency[u * d + filled] = perm[(i + n - 1) % n];
            adjacency[u * d + filled + 1] = perm[(i + 1) % n];
        }
    }
    // CSR finalization: uniform-degree offsets, per-row sort, and a linear
    // simplicity sweep (sorted rows make duplicates adjacent).
    assert!(n * d <= u32::MAX as usize, "edge-slot count n·d must fit the u32 CSR offsets");
    // asserted just above: i * d <= n * d <= u32::MAX.
    #[allow(clippy::cast_possible_truncation)]
    let offsets: Vec<u32> = (0..=n).map(|i| (i * d) as u32).collect();
    for u in 0..n {
        let row = &mut adjacency[u * d..(u + 1) * d];
        row.sort_unstable();
        assert!(
            row.windows(2).all(|w| w[0] != w[1]) && !row.contains(&nid(u)),
            "random_regular_cycles({n}, {d}): repair missed a conflict at node {u}"
        );
    }
    Graph::from_csr_parts_unchecked(offsets, adjacency)
}

/// Connected Erdős–Rényi `G(n, p)`: sample, then if disconnected, add one
/// uniformly random edge from each non-giant component to the giant one
/// (documented patch — keeps the degree distribution essentially intact for
/// the regimes we use, `p ≥ 2·ln n / n`).
pub fn erdos_renyi_connected(n: usize, p: f64, seed: u64) -> Graph {
    assert!((0.0..=1.0).contains(&p));
    // generator stream from an explicit seed parameter.
    #[allow(clippy::disallowed_methods)]
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    for u in 0..nid(n) {
        for v in (u + 1)..nid(n) {
            if rng.gen_bool(p) {
                b.add_edge(u, v);
            }
        }
    }
    let g = b.build();
    if g.is_connected() || n <= 1 {
        return g;
    }
    // Patch connectivity: link every component to component 0.
    let labels = g.components();
    let ncomp = *labels.iter().max().expect("n > 1 past the early return, so labels is nonempty")
        as usize
        + 1;
    let mut reps: Vec<Vec<NodeId>> = vec![Vec::new(); ncomp];
    for (u, &l) in labels.iter().enumerate() {
        reps[l as usize].push(nid(u));
    }
    let mut extra = Vec::new();
    for comp in reps.iter().skip(1) {
        let a = *comp.choose(&mut rng).expect("every component label has at least one node");
        let b0 = *reps[0].choose(&mut rng).expect("component 0 always exists");
        extra.push((a, b0));
    }
    g.with_edges(&extra)
}

/// "Dumbbell expander": two random `d`-regular expanders joined by a single
/// edge. Low global expansion (`α = Θ(1/n)`) despite high local expansion —
/// a stress case distinct from the barbell's huge `Δ`.
pub fn dumbbell_expander(half: usize, d: usize, seed: u64) -> Graph {
    let a = random_regular(half, d, seed);
    let b = random_regular(half, d, seed ^ 0x9E37_79B9);
    a.disjoint_union(&b).with_edges(&[(0, nid(half))])
}

/// Barabási–Albert preferential attachment: start from a clique on `m0 =
/// m+1` nodes; each subsequent node attaches `m` edges to existing nodes
/// chosen proportionally to degree (sampled by picking a uniform endpoint
/// of a uniform existing edge). Produces the heavy-tailed degree
/// distributions typical of real contact networks: a few high-degree hubs,
/// many low-degree leaves — connected by construction.
pub fn preferential_attachment(n: usize, m: usize, seed: u64) -> Graph {
    assert!(m >= 1, "each new node needs ≥ 1 edge");
    assert!(n > m, "need n > m");
    // generator stream from an explicit seed parameter.
    #[allow(clippy::disallowed_methods)]
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    // Flat endpoint list: each edge contributes both endpoints, so a
    // uniform draw from it is a degree-proportional node draw.
    let mut endpoints: Vec<NodeId> = Vec::with_capacity(2 * n * m);
    let m0 = m + 1;
    for u in 0..nid(m0) {
        for v in (u + 1)..nid(m0) {
            b.add_edge(u, v);
            endpoints.push(u);
            endpoints.push(v);
        }
    }
    let mut chosen: Vec<NodeId> = Vec::with_capacity(m);
    for u in nid(m0)..nid(n) {
        chosen.clear();
        let mut guard = 0;
        while chosen.len() < m {
            let t = endpoints[rng.gen_range(0..endpoints.len())];
            if !chosen.contains(&t) {
                chosen.push(t);
            }
            guard += 1;
            assert!(guard < 10_000, "preferential attachment sampling stuck");
        }
        for &t in &chosen {
            b.add_edge(u, t);
            endpoints.push(u);
            endpoints.push(t);
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clique_shape() {
        let g = clique(6);
        assert_eq!(g.node_count(), 6);
        assert_eq!(g.edge_count(), 15);
        assert_eq!(g.max_degree(), 5);
        assert_eq!(g.min_degree(), 5);
        assert!(g.is_connected());
        assert_eq!(g.diameter(), Some(1));
    }

    #[test]
    fn path_shape() {
        let g = path(5);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.min_degree(), 1);
        assert_eq!(g.diameter(), Some(4));
    }

    #[test]
    fn cycle_shape() {
        let g = cycle(6);
        assert_eq!(g.edge_count(), 6);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.min_degree(), 2);
        assert_eq!(g.diameter(), Some(3));
    }

    #[test]
    fn cycle_degenerate_sizes() {
        assert_eq!(cycle(1).edge_count(), 0);
        assert_eq!(cycle(3).edge_count(), 3);
    }

    #[test]
    fn star_shape() {
        let g = star(7);
        assert_eq!(g.degree(0), 6);
        for u in 1..7 {
            assert_eq!(g.degree(u), 1);
        }
        assert_eq!(g.diameter(), Some(2));
    }

    #[test]
    fn line_of_stars_shape() {
        // 4 stars of 3 points: 4 spine + 12 leaves.
        let g = line_of_stars(4, 3);
        assert_eq!(g.node_count(), 16);
        assert!(g.is_connected());
        // Interior spine nodes: 2 spine neighbors + 3 leaves.
        assert_eq!(g.degree(1), 5);
        assert_eq!(g.degree(2), 5);
        // End spine nodes: 1 spine neighbor + 3 leaves.
        assert_eq!(g.degree(0), 4);
        assert_eq!(g.degree(3), 4);
        // Leaves have degree 1.
        assert_eq!(g.degree(4), 1);
        assert_eq!(g.max_degree(), 5);
    }

    #[test]
    fn line_of_stars_sqrt_sizing() {
        let (g, s, p) = line_of_stars_sqrt(100);
        assert_eq!(s, 10);
        assert_eq!(p, 10);
        assert_eq!(g.node_count(), 110);
    }

    #[test]
    fn complete_bipartite_shape() {
        let g = complete_bipartite(3, 4);
        assert_eq!(g.node_count(), 7);
        assert_eq!(g.edge_count(), 12);
        assert_eq!(g.degree(0), 4);
        assert_eq!(g.degree(3), 3);
        assert!(!g.has_edge(0, 1));
        assert!(g.has_edge(0, 3));
    }

    #[test]
    fn dary_tree_shape() {
        let g = dary_tree(7, 2); // perfect binary tree of depth 2
        assert_eq!(g.edge_count(), 6);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(1), 3);
        assert_eq!(g.degree(6), 1);
        assert!(g.is_connected());
    }

    #[test]
    fn hypercube_shape() {
        let g = hypercube(4);
        assert_eq!(g.node_count(), 16);
        assert_eq!(g.edge_count(), 32);
        assert_eq!(g.max_degree(), 4);
        assert_eq!(g.min_degree(), 4);
        assert_eq!(g.diameter(), Some(4));
    }

    #[test]
    fn torus_shape() {
        let g = torus(4, 5);
        assert_eq!(g.node_count(), 20);
        assert_eq!(g.edge_count(), 40);
        assert_eq!(g.max_degree(), 4);
        assert_eq!(g.min_degree(), 4);
        assert!(g.is_connected());
    }

    #[test]
    fn barbell_shape() {
        let g = barbell(4, 2);
        assert_eq!(g.node_count(), 10);
        assert!(g.is_connected());
        assert_eq!(g.edge_count(), 2 * 6 + 3);
        assert_eq!(g.max_degree(), 4); // clique node adjacent to bridge
    }

    #[test]
    fn random_regular_is_regular_connected() {
        for seed in 0..5 {
            let g = random_regular(24, 3, seed);
            assert!(g.is_connected());
            for u in 0..24u32 {
                assert_eq!(g.degree(u), 3, "node {u} not 3-regular (seed {seed})");
            }
        }
    }

    #[test]
    fn random_regular_deterministic_per_seed() {
        let a = random_regular(20, 4, 9);
        let b = random_regular(20, 4, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn random_regular_cycles_is_regular_simple_connected() {
        for &(n, d) in &[(64usize, 8usize), (100, 4), (33, 2), (500, 6)] {
            for seed in 0..3 {
                let g = random_regular_cycles(n, d, seed);
                assert_eq!(g.node_count(), n);
                assert!(g.is_connected(), "n={n} d={d} seed={seed} disconnected");
                for u in 0..nid(n) {
                    assert_eq!(g.degree(u), d, "node {u} not {d}-regular (n={n}, seed={seed})");
                }
                g.validate().unwrap_or_else(|e| panic!("n={n} d={d} seed={seed}: {e}"));
            }
        }
    }

    #[test]
    fn random_regular_cycles_deterministic_per_seed() {
        let a = random_regular_cycles(200, 8, 77);
        let b = random_regular_cycles(200, 8, 77);
        assert_eq!(a, b);
        let c = random_regular_cycles(200, 8, 78);
        assert_ne!(a, c);
    }

    #[test]
    fn random_regular_cycles_repairs_dense_conflicts() {
        // n just above 2d: cross-cycle duplicate edges are near-certain,
        // forcing the 2-opt repair path to run.
        for seed in 0..20 {
            let g = random_regular_cycles(17, 8, seed);
            g.validate().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(g.is_connected());
            assert_eq!(g.min_degree(), 8);
            assert_eq!(g.max_degree(), 8);
        }
    }

    #[test]
    #[should_panic(expected = "even d")]
    fn random_regular_cycles_rejects_odd_degree() {
        random_regular_cycles(100, 3, 0);
    }

    #[test]
    #[should_panic(expected = "n > 2d")]
    fn random_regular_cycles_rejects_tiny_n() {
        random_regular_cycles(16, 8, 0);
    }

    #[test]
    fn erdos_renyi_connected_is_connected() {
        for seed in 0..5 {
            let g = erdos_renyi_connected(40, 0.05, seed);
            assert!(g.is_connected(), "seed {seed} disconnected");
            assert_eq!(g.node_count(), 40);
        }
    }

    #[test]
    fn erdos_renyi_extremes() {
        let empty_p = erdos_renyi_connected(10, 0.0, 1);
        assert!(empty_p.is_connected()); // fully patched into a tree-ish graph
        assert_eq!(empty_p.edge_count(), 9);
        let full = erdos_renyi_connected(10, 1.0, 1);
        assert_eq!(full.edge_count(), 45);
    }

    #[test]
    fn dumbbell_shape() {
        let g = dumbbell_expander(16, 3, 5);
        assert_eq!(g.node_count(), 32);
        assert!(g.is_connected());
        assert_eq!(g.max_degree(), 4); // bridge endpoints gain one
    }

    #[test]
    fn preferential_attachment_shape() {
        let g = preferential_attachment(100, 3, 7);
        assert_eq!(g.node_count(), 100);
        assert!(g.is_connected());
        // Every node beyond the seed clique attaches exactly m = 3 edges
        // (possibly deduplicated against none since targets are distinct):
        // |E| = C(4,2) + 96·3 = 6 + 288.
        assert_eq!(g.edge_count(), 6 + 96 * 3);
        assert!(g.min_degree() >= 3);
        // Heavy tail: the max degree should far exceed the minimum.
        assert!(g.max_degree() >= 3 * g.min_degree(), "Δ = {}", g.max_degree());
    }

    #[test]
    fn preferential_attachment_deterministic() {
        assert_eq!(preferential_attachment(50, 2, 3), preferential_attachment(50, 2, 3));
        assert_ne!(preferential_attachment(50, 2, 3), preferential_attachment(50, 2, 4));
    }
}
