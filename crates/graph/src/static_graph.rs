//! Compact undirected graphs in CSR (compressed sparse row) form.
//!
//! Every simulation in this workspace indexes nodes with dense `u32` ids, so
//! neighborhood scans — the hot loop of the round executor — are contiguous
//! slice reads. Graphs are immutable once built; dynamic topologies are
//! sequences of immutable graphs (see [`crate::dynamic`]).

/// Dense node identifier. Node ids always form the range `0..n`.
pub type NodeId = u32;

/// Checked `usize` → [`NodeId`] conversion. Every graph this workspace
/// builds is far below `u32::MAX` nodes, so failure is an internal bug —
/// but an `as` cast would wrap silently instead of panicking.
#[inline]
pub fn nid(u: usize) -> NodeId {
    NodeId::try_from(u).expect("node index fits NodeId")
}

/// An immutable undirected graph in CSR form.
///
/// Invariants (checked by [`GraphBuilder::build`], relied on everywhere):
/// * neighbor lists are sorted and duplicate-free,
/// * no self loops,
/// * symmetry: `v ∈ N(u)` iff `u ∈ N(v)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    /// `offsets[u]..offsets[u+1]` indexes `u`'s neighbor slice in `adjacency`.
    offsets: Vec<u32>,
    /// Concatenated sorted neighbor lists.
    adjacency: Vec<NodeId>,
}

impl Graph {
    /// Number of nodes `n = |V|`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `|E|`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.adjacency.len() / 2
    }

    /// The sorted neighbor slice `N(u)`.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        let lo = self.offsets[u as usize] as usize;
        let hi = self.offsets[u as usize + 1] as usize;
        &self.adjacency[lo..hi]
    }

    /// Degree `d(u) = |N(u)|`.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        self.neighbors(u).len()
    }

    /// Iterator over the neighbor slices `N(first), N(first + 1), …` in
    /// node order — the bounds-check-free way to walk one contiguous node
    /// range of the CSR in lockstep with other per-node arrays (the round
    /// pipeline's scan phase). Panics if `first > n`.
    #[inline]
    pub fn neighbor_rows_from(&self, first: usize) -> impl Iterator<Item = &[NodeId]> + '_ {
        self.offsets[first..].windows(2).map(|w| &self.adjacency[w[0] as usize..w[1] as usize])
    }

    /// Maximum degree `Δ` over all nodes (0 for an empty or edgeless graph).
    pub fn max_degree(&self) -> usize {
        (0..nid(self.node_count())).map(|u| self.degree(u)).max().unwrap_or(0)
    }

    /// Minimum degree over all nodes.
    pub fn min_degree(&self) -> usize {
        (0..nid(self.node_count())).map(|u| self.degree(u)).min().unwrap_or(0)
    }

    /// True iff `{u, v} ∈ E`. Binary search on the sorted neighbor slice.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterator over all undirected edges as ordered pairs `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..nid(self.node_count())).flat_map(move |u| {
            self.neighbors(u).iter().copied().filter(move |&v| u < v).map(move |v| (u, v))
        })
    }

    /// True iff the graph is connected (or has ≤ 1 node).
    pub fn is_connected(&self) -> bool {
        let n = self.node_count();
        if n <= 1 {
            return true;
        }
        self.bfs_reach(0) == n
    }

    /// Number of nodes reachable from `start` (including `start`).
    fn bfs_reach(&self, start: NodeId) -> usize {
        let n = self.node_count();
        let mut seen = vec![false; n];
        let mut queue = std::collections::VecDeque::with_capacity(n.min(1024));
        seen[start as usize] = true;
        queue.push_back(start);
        let mut count = 1usize;
        while let Some(u) = queue.pop_front() {
            for &v in self.neighbors(u) {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    count += 1;
                    queue.push_back(v);
                }
            }
        }
        count
    }

    /// Hop distances from `start` to every node (`u32::MAX` if unreachable).
    pub fn bfs_distances(&self, start: NodeId) -> Vec<u32> {
        let n = self.node_count();
        let mut dist = vec![u32::MAX; n];
        let mut queue = std::collections::VecDeque::with_capacity(n.min(1024));
        dist[start as usize] = 0;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            let du = dist[u as usize];
            for &v in self.neighbors(u) {
                if dist[v as usize] == u32::MAX {
                    dist[v as usize] = du + 1;
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// Exact diameter by running BFS from every node. `O(n·m)` — intended for
    /// test-sized graphs and experiment setup, not inner loops.
    pub fn diameter(&self) -> Option<u32> {
        let n = self.node_count();
        if n == 0 {
            return None;
        }
        let mut best = 0u32;
        for u in 0..nid(n) {
            let d = self.bfs_distances(u);
            for &x in &d {
                if x == u32::MAX {
                    return None; // disconnected
                }
                best = best.max(x);
            }
        }
        Some(best)
    }

    /// Connected components as a label vector (`labels[u]` is the component
    /// index of `u`, indices dense from 0).
    pub fn components(&self) -> Vec<u32> {
        let n = self.node_count();
        let mut label = vec![u32::MAX; n];
        let mut next = 0u32;
        let mut queue = std::collections::VecDeque::new();
        for s in 0..nid(n) {
            if label[s as usize] != u32::MAX {
                continue;
            }
            label[s as usize] = next;
            queue.push_back(s);
            while let Some(u) = queue.pop_front() {
                for &v in self.neighbors(u) {
                    if label[v as usize] == u32::MAX {
                        label[v as usize] = next;
                        queue.push_back(v);
                    }
                }
            }
            next += 1;
        }
        label
    }

    /// Disjoint union of two graphs: nodes of `other` are shifted by
    /// `self.node_count()`. Used by component-join schedules.
    pub fn disjoint_union(&self, other: &Graph) -> Graph {
        let shift = nid(self.node_count());
        let mut b = GraphBuilder::new(self.node_count() + other.node_count());
        for (u, v) in self.edges() {
            b.add_edge(u, v);
        }
        for (u, v) in other.edges() {
            b.add_edge(u + shift, v + shift);
        }
        b.build()
    }

    /// A copy of this graph with the given extra edges added (duplicates and
    /// existing edges are ignored). Used to bridge components.
    pub fn with_edges(&self, extra: &[(NodeId, NodeId)]) -> Graph {
        let mut b = GraphBuilder::new(self.node_count());
        for (u, v) in self.edges() {
            b.add_edge(u, v);
        }
        for &(u, v) in extra {
            b.add_edge(u, v);
        }
        b.build()
    }

    /// Overwrite `out` with the subgraph of `self` that keeps edge `{u, v}`
    /// iff `keep[u] && keep[v]`, doing per-arc work only around `seeds`.
    /// The rows of `seeds` and of their neighbours in `self` are filtered
    /// from `self`; every other row is copied from `prev`, in maximal spans
    /// whose offsets shift by one constant each.
    ///
    /// `prev` must already hold the filtered row of every node outside
    /// `seeds ∪ N(seeds)`. Two callers meet that: `prev` is the previous
    /// output over the same `self` and `seeds` holds every node whose
    /// `keep` changed since; or `prev` is `self` and `seeds` holds every
    /// node with `keep` false. `seeds` may repeat nodes. `out`'s buffers
    /// are reused and are sized to `self` on first use, so later calls
    /// allocate nothing.
    pub(crate) fn patch_into(
        &self,
        keep: &[bool],
        seeds: &[NodeId],
        prev: &Graph,
        out: &mut Graph,
    ) {
        let n = self.node_count();
        assert_eq!(keep.len(), n, "keep mask must cover every node");
        assert_eq!(prev.node_count(), n, "prev must be over the same nodes");
        let mut dirty = vec![0u64; n.div_ceil(64)];
        for &u in seeds {
            for &v in std::iter::once(&u).chain(self.neighbors(u)) {
                dirty[v as usize / 64] |= 1 << (v % 64);
            }
        }
        out.offsets.clear();
        out.offsets.reserve_exact(self.offsets.len());
        out.offsets.push(0);
        out.adjacency.clear();
        out.adjacency.reserve_exact(self.adjacency.len());
        let mut copied = 0; // rows `0..copied` are in `out`
        for (w, &word) in dirty.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let u = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                out.extend_rows(prev, copied..u);
                if keep[u] {
                    let row = self.neighbors(nid(u)).iter().filter(|&&v| keep[v as usize]);
                    out.adjacency.extend(row);
                }
                out.offsets.push(u32::try_from(out.adjacency.len()).expect("at most self's arcs"));
                copied = u + 1;
            }
        }
        out.extend_rows(prev, copied..n);
    }

    /// Append rows `rows` of `src` to this CSR under construction, which
    /// must hold exactly rows `0..rows.start`.
    fn extend_rows(&mut self, src: &Graph, rows: std::ops::Range<usize>) {
        let (lo, hi) = (src.offsets[rows.start], src.offsets[rows.end]);
        let shift =
            u32::try_from(self.adjacency.len()).expect("arc count fits u32").wrapping_sub(lo);
        self.adjacency.extend_from_slice(&src.adjacency[lo as usize..hi as usize]);
        let ends = &src.offsets[rows.start + 1..=rows.end];
        self.offsets.extend(ends.iter().map(|&o| o.wrapping_add(shift)));
    }

    /// Sum of degrees (twice the edge count); handy for tests.
    pub fn degree_sum(&self) -> usize {
        self.adjacency.len()
    }

    /// Check the CSR invariants (sorted duplicate-free neighbor slices, no
    /// self loops, symmetry, in-range offsets). Used when deserializing
    /// graphs from untrusted input.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.node_count();
        if self.offsets.first() != Some(&0)
            || *self.offsets.last().unwrap_or(&0) as usize != self.adjacency.len()
            || self.offsets.windows(2).any(|w| w[0] > w[1])
        {
            return Err("malformed offset array".to_string());
        }
        for u in 0..nid(n) {
            let nbrs = self.neighbors(u);
            if nbrs.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("neighbors of {u} not strictly sorted"));
            }
            for &v in nbrs {
                if v as usize >= n {
                    return Err(format!("edge ({u}, {v}) out of range"));
                }
                if v == u {
                    return Err(format!("self loop at {u}"));
                }
                if !self.has_edge(v, u) {
                    return Err(format!("asymmetric edge ({u}, {v})"));
                }
            }
        }
        Ok(())
    }

    /// The raw CSR arrays `(offsets, adjacency)`. Used by [`crate::io`] to
    /// serialize graphs without an external serialization framework.
    pub fn csr_parts(&self) -> (&[u32], &[NodeId]) {
        (&self.offsets, &self.adjacency)
    }

    /// Reassemble a graph from raw CSR arrays without checking invariants.
    ///
    /// `offsets` must be non-empty (a graph on `n` nodes has `n + 1`
    /// offsets). Callers holding untrusted input must run [`Graph::validate`]
    /// on the result before using it.
    pub fn from_csr_parts_unchecked(offsets: Vec<u32>, adjacency: Vec<NodeId>) -> Graph {
        assert!(!offsets.is_empty(), "CSR offset array must have n + 1 entries");
        Graph { offsets, adjacency }
    }

    /// The degree sequence, sorted descending. Used by rewiring adversaries
    /// to check degree preservation.
    pub fn degree_sequence(&self) -> Vec<usize> {
        let mut d: Vec<usize> = (0..nid(self.node_count())).map(|u| self.degree(u)).collect();
        d.sort_unstable_by(|a, b| b.cmp(a));
        d
    }
}

/// Incremental builder collecting an edge list, deduplicating and
/// symmetrizing on [`GraphBuilder::build`].
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// Builder for a graph on `n` nodes (ids `0..n`).
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "node count exceeds u32 id space");
        GraphBuilder { n, edges: Vec::new() }
    }

    /// Builder with a capacity hint for the edge list.
    pub fn with_capacity(n: usize, edges: usize) -> Self {
        let mut b = Self::new(n);
        b.edges.reserve(edges);
        b
    }

    /// Add the undirected edge `{u, v}`. Self loops are rejected; duplicate
    /// insertions are deduplicated at build time.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "edge ({u}, {v}) out of range for n = {}",
            self.n
        );
        assert_ne!(u, v, "self loop ({u}, {u}) rejected");
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        self.edges.push((a, b));
    }

    /// Finalize into a CSR [`Graph`].
    pub fn build(mut self) -> Graph {
        self.edges.sort_unstable();
        self.edges.dedup();
        let mut deg = vec![0u32; self.n];
        for &(u, v) in &self.edges {
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(self.n + 1);
        offsets.push(0u32);
        let mut acc = 0u32;
        for &d in &deg {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor: Vec<u32> = offsets[..self.n].to_vec();
        let mut adjacency: Vec<NodeId> = vec![0; acc as usize];
        for &(u, v) in &self.edges {
            adjacency[cursor[u as usize] as usize] = v;
            cursor[u as usize] += 1;
            adjacency[cursor[v as usize] as usize] = u;
            cursor[v as usize] += 1;
        }
        // Each neighbor slice must be sorted for binary-search `has_edge`.
        for u in 0..self.n {
            let lo = offsets[u] as usize;
            let hi = offsets[u + 1] as usize;
            adjacency[lo..hi].sort_unstable();
        }
        Graph { offsets, adjacency }
    }
}

/// Build a graph directly from an edge list on `n` nodes.
pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Graph {
    let mut b = GraphBuilder::with_capacity(n, edges.len());
    for &(u, v) in edges {
        b.add_edge(u, v);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert!(g.is_connected());
        assert_eq!(g.diameter(), None);
    }

    #[test]
    fn single_node() {
        let g = GraphBuilder::new(1).build();
        assert_eq!(g.node_count(), 1);
        assert!(g.is_connected());
        assert_eq!(g.diameter(), Some(0));
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn triangle_basics() {
        let g = from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.min_degree(), 2);
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(2, 0));
        assert!(!g.has_edge(0, 0));
        assert_eq!(g.diameter(), Some(1));
    }

    #[test]
    fn duplicate_edges_are_deduplicated() {
        let g = from_edges(2, &[(0, 1), (1, 0), (0, 1)]);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 1);
    }

    #[test]
    #[should_panic(expected = "self loop")]
    fn self_loop_rejected() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(1, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rejected() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 2);
    }

    #[test]
    fn neighbors_sorted_and_symmetric() {
        let g = from_edges(5, &[(3, 1), (0, 3), (4, 3), (2, 3)]);
        assert_eq!(g.neighbors(3), &[0, 1, 2, 4]);
        for u in 0..5u32 {
            for &v in g.neighbors(u) {
                assert!(g.has_edge(v, u), "asymmetric edge ({u},{v})");
            }
        }
    }

    #[test]
    fn path_distances_and_diameter() {
        // 0 - 1 - 2 - 3
        let g = from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(g.bfs_distances(0), vec![0, 1, 2, 3]);
        assert_eq!(g.diameter(), Some(3));
    }

    #[test]
    fn disconnected_detection() {
        let g = from_edges(4, &[(0, 1), (2, 3)]);
        assert!(!g.is_connected());
        assert_eq!(g.diameter(), None);
        let labels = g.components();
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[2], labels[3]);
        assert_ne!(labels[0], labels[2]);
    }

    #[test]
    fn disjoint_union_shifts_ids() {
        let a = from_edges(2, &[(0, 1)]);
        let b = from_edges(3, &[(0, 1), (1, 2)]);
        let u = a.disjoint_union(&b);
        assert_eq!(u.node_count(), 5);
        assert_eq!(u.edge_count(), 3);
        assert!(u.has_edge(0, 1));
        assert!(u.has_edge(2, 3));
        assert!(u.has_edge(3, 4));
        assert!(!u.has_edge(1, 2));
        assert!(!u.is_connected());
    }

    #[test]
    fn with_edges_bridges_components() {
        let a = from_edges(2, &[(0, 1)]);
        let b = from_edges(2, &[(0, 1)]);
        let u = a.disjoint_union(&b).with_edges(&[(1, 2)]);
        assert!(u.is_connected());
        assert_eq!(u.edge_count(), 3);
    }

    #[test]
    fn edges_iterator_matches_count() {
        let g = from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), g.edge_count());
        for (u, v) in edges {
            assert!(u < v);
            assert!(g.has_edge(u, v));
        }
    }

    #[test]
    fn patch_into_matches_builder_from_self_and_from_prev() {
        let g = crate::gen::random_regular(200, 4, 5);
        let filtered = |keep: &[bool]| {
            let kept: Vec<_> =
                g.edges().filter(|&(u, v)| keep[u as usize] && keep[v as usize]).collect();
            from_edges(200, &kept)
        };
        let first: Vec<bool> = (0..200).map(|u| u % 7 != 3).collect();
        let down: Vec<NodeId> = (0..200).filter(|&u| !first[u as usize]).collect();
        let mut out = from_edges(0, &[]);
        g.patch_into(&first, &down, &g, &mut out);
        assert_eq!(out, filtered(&first));
        // Flip a few nodes, one of them twice in the seed list.
        let mut second = first.clone();
        let changed = [0, 3, 150, 199, 3];
        for &u in &changed[..4] {
            second[u as usize] = !second[u as usize];
        }
        let mut next = from_edges(0, &[]);
        g.patch_into(&second, &changed, &out, &mut next);
        assert_eq!(next, filtered(&second));
        // Sized to `g` on first use: patching back reuses the buffers.
        let buffers = (out.offsets.as_ptr(), out.adjacency.as_ptr());
        g.patch_into(&first, &changed, &next, &mut out);
        assert_eq!(out, filtered(&first));
        assert_eq!((out.offsets.as_ptr(), out.adjacency.as_ptr()), buffers);
    }

    #[test]
    fn degree_sequence_sorted_descending() {
        let g = from_edges(4, &[(0, 1), (0, 2), (0, 3)]); // star
        assert_eq!(g.degree_sequence(), vec![3, 1, 1, 1]);
    }
}
