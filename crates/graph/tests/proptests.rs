//! Property-based tests for the graph substrate.
//!
//! The headline property is the paper's Lemma V.1: for every graph,
//! `γ = min_S ν(B(S))/|S| ≥ α/4`. We check it on arbitrary random connected
//! graphs, along with structural invariants of the CSR representation,
//! generators, and dynamic adversaries.
//!
//! Cases are generated deterministically by `mtm-testkit` (the offline
//! replacement for proptest): each test runs a fixed number of seeded
//! cases and reports the failing case seed on panic.

use mtm_graph::dynamic::{DynamicTopology, EdgeSwapAdversary, RelabelingAdversary};
use mtm_graph::expansion::{alpha_exact, alpha_of_set, boundary_size};
use mtm_graph::matching::{brute_force_matching, cut_matching, gamma_exact, hopcroft_karp};
use mtm_graph::rng::stream_rng;
use mtm_graph::static_graph::from_edges;
use mtm_graph::{
    gen, FaultConfig, FaultyTopology, Graph, GraphBuilder, NodeId, ScheduledCrashes, StaticTopology,
};
use mtm_testkit::{run_cases, Rng, SmallRng};

/// An arbitrary connected graph on 2..=n_max nodes, built by a random
/// spanning tree plus random extra edges.
fn connected_graph(rng: &mut SmallRng, n_max: usize) -> Graph {
    let n = rng.gen_range(2..=n_max);
    let mut b = GraphBuilder::new(n);
    for child in 1..n as u32 {
        b.add_edge(child, rng.gen_range(0..child));
    }
    for _ in 0..rng.gen_range(0..n * 2) {
        let u = rng.gen_range(0..n as u32);
        let v = rng.gen_range(0..n as u32);
        if u != v {
            b.add_edge(u, v);
        }
    }
    b.build()
}

#[test]
fn csr_symmetry_and_sorted() {
    run_cases(0x6701, 64, |_case, rng| {
        let g = connected_graph(rng, 40);
        for u in 0..g.node_count() as u32 {
            let nbrs = g.neighbors(u);
            assert!(nbrs.windows(2).all(|w| w[0] < w[1]), "unsorted or duplicate neighbors");
            for &v in nbrs {
                assert!(v != u, "self loop");
                assert!(g.has_edge(v, u), "asymmetric edge");
            }
        }
        assert_eq!(g.degree_sum(), 2 * g.edge_count());
    });
}

#[test]
fn connected_strategy_is_connected() {
    run_cases(0x6702, 64, |_case, rng| {
        let g = connected_graph(rng, 40);
        assert!(g.is_connected());
    });
}

#[test]
fn lemma_v1_gamma_ge_alpha_over_4() {
    run_cases(0x6703, 64, |_case, rng| {
        let g = connected_graph(rng, 12);
        let gamma = gamma_exact(&g);
        let alpha = alpha_exact(&g);
        assert!(gamma >= alpha / 4.0 - 1e-9, "γ = {gamma} < α/4 = {}", alpha / 4.0);
    });
}

#[test]
fn alpha_exact_bounded_and_positive() {
    run_cases(0x6704, 64, |_case, rng| {
        // Note: the paper's "α ≤ 1" claim presumes a balanced cut
        // |S| = n/2 exists; for odd n the best balanced cut has
        // |S| = ⌊n/2⌋, so the tight upper bound is ⌈n/2⌉/⌊n/2⌋
        // (e.g. α(K_3) = 2).
        let g = connected_graph(rng, 14);
        let n = g.node_count();
        let cap = (n - n / 2) as f64 / (n / 2) as f64;
        let a = alpha_exact(&g);
        assert!(a > 0.0 && a <= cap + 1e-12, "α = {a} > cap {cap}");
    });
}

#[test]
fn matching_le_boundary_any_cut() {
    run_cases(0x6705, 64, |_case, rng| {
        let g = connected_graph(rng, 14);
        let mask_bits = rng.gen::<u64>();
        let n = g.node_count();
        let mut in_s: Vec<bool> = (0..n).map(|u| mask_bits & (1 << u) != 0).collect();
        if in_s.iter().all(|&b| !b) {
            in_s[0] = true;
        }
        if in_s.iter().all(|&b| b) {
            in_s[n - 1] = false;
        }
        let m = cut_matching(&g, &in_s);
        let b = boundary_size(&g, &in_s);
        assert!(m <= b, "ν(B(S)) = {m} > |∂S| = {b}");
        // A connected graph with a proper nonempty cut always crosses it.
        assert!(m >= 1, "connected graph must have ≥1 crossing edge");
        let a = alpha_of_set(&g, &in_s);
        assert!(a > 0.0);
    });
}

#[test]
fn hopcroft_karp_matches_brute_force() {
    run_cases(0x6706, 64, |_case, rng| {
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); 6];
        for _ in 0..rng.gen_range(0..18) {
            let l = rng.gen_range(0..6u32);
            let r = rng.gen_range(0..6u32);
            if !adj[l as usize].contains(&r) {
                adj[l as usize].push(r);
            }
        }
        assert_eq!(hopcroft_karp(&adj, 6), brute_force_matching(&adj, 6));
    });
}

#[test]
fn relabeling_adversary_iso_invariants() {
    run_cases(0x6707, 32, |_case, rng| {
        let seed = rng.gen::<u64>();
        let tau = rng.gen_range(1..5u64);
        let base = gen::line_of_stars(3, 3);
        let expect_deg = base.degree_sequence();
        let expect_edges = base.edge_count();
        let mut adv = RelabelingAdversary::new(base, tau, seed);
        let mut last: Option<Graph> = None;
        for round in 1..=3 * tau {
            let g = adv.graph_at(round).clone();
            assert_eq!(g.degree_sequence(), expect_deg);
            assert_eq!(g.edge_count(), expect_edges);
            assert!(g.is_connected());
            // Stability: within an epoch the graph must not change.
            if (round - 1) % tau != 0 {
                assert_eq!(
                    last.as_ref().expect("previous round recorded"),
                    &g,
                    "changed inside τ window"
                );
            }
            last = Some(g);
        }
    });
}

#[test]
fn edge_swap_adversary_preserves_degrees() {
    run_cases(0x6708, 32, |_case, rng| {
        let seed = rng.gen::<u64>();
        let base = gen::random_regular(16, 4, seed % 100);
        let expect = base.degree_sequence();
        let mut adv = EdgeSwapAdversary::new(base, 1, 6, seed);
        for round in 1..=6 {
            let g = adv.graph_at(round);
            assert_eq!(g.degree_sequence(), expect);
            assert!(g.is_connected());
        }
    });
}

#[test]
fn bfs_distances_are_metric_like() {
    run_cases(0x6709, 64, |_case, rng| {
        let g = connected_graph(rng, 24);
        let d0 = g.bfs_distances(0);
        for u in 0..g.node_count() as u32 {
            assert!(d0[u as usize] != u32::MAX, "unreachable in connected graph");
            for &v in g.neighbors(u) {
                let du = d0[u as usize] as i64;
                let dv = d0[v as usize] as i64;
                assert!((du - dv).abs() <= 1, "BFS distance jump across an edge");
            }
        }
    });
}

#[test]
fn from_edges_respects_input() {
    run_cases(0x670A, 64, |_case, rng| {
        let n = 12u32;
        let count = rng.gen_range(1..30);
        let edges: Vec<(u32, u32)> = (0..count)
            .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
            .filter(|(a, b)| a != b)
            .collect();
        if edges.is_empty() {
            return;
        }
        let g = from_edges(n as usize, &edges);
        for &(u, v) in &edges {
            assert!(g.has_edge(u, v));
        }
    });
}

/// Reference for [`FaultyTopology`]: the documented crash chain (even
/// streams) and link coins (odd streams, one per base edge in `edges()`
/// order), with each round's graph pushed through [`GraphBuilder`].
struct ReferenceFaults {
    base: Graph,
    cfg: FaultConfig,
    seed: u64,
    up: Vec<bool>,
    chain_round: u64,
}

impl ReferenceFaults {
    fn new(base: Graph, cfg: FaultConfig, seed: u64) -> Self {
        let up = vec![true; base.node_count()];
        ReferenceFaults { base, cfg, seed, up, chain_round: 0 }
    }

    fn graph_at(&mut self, round: u64) -> Graph {
        while self.chain_round < round {
            self.chain_round += 1;
            let mut rng = stream_rng(self.seed, 2 * self.chain_round);
            for up in &mut self.up {
                let flip = if *up { self.cfg.crash } else { self.cfg.recover };
                if flip > 0.0 && rng.gen_bool(flip) {
                    *up = !*up;
                }
            }
        }
        let mut link_rng = stream_rng(self.seed, 2 * round + 1);
        let mut b = GraphBuilder::new(self.base.node_count());
        for (u, v) in self.base.edges() {
            let link_down = self.cfg.link_loss > 0.0 && link_rng.gen_bool(self.cfg.link_loss);
            if self.up[u as usize] && self.up[v as usize] && !link_down {
                b.add_edge(u, v);
            }
        }
        b.build()
    }
}

/// True iff an outage window `[from, to)` covers `u` at `round`.
fn scheduled_down(outages: &[(NodeId, u64, u64)], u: NodeId, round: u64) -> bool {
    outages.iter().any(|&(v, from, to)| v == u && from <= round && round < to)
}

/// Reference for [`ScheduledCrashes`]: `g` minus every edge with an
/// endpoint scheduled down at `round`, rebuilt through [`GraphBuilder`].
fn reference_schedule(g: &Graph, outages: &[(NodeId, u64, u64)], round: u64) -> Graph {
    let mut b = GraphBuilder::new(g.node_count());
    for (u, v) in g.edges() {
        if !scheduled_down(outages, u, round) && !scheduled_down(outages, v, round) {
            b.add_edge(u, v);
        }
    }
    b.build()
}

/// A random-regular, Erdős–Rényi or star base on 6..=40 nodes.
fn fault_base(rng: &mut SmallRng) -> Graph {
    let n = rng.gen_range(6..=40usize);
    let seed = rng.gen::<u64>();
    match rng.gen_range(0..3) {
        0 => gen::random_regular(n, if n % 2 == 0 { 3 } else { 4 }, seed),
        1 => gen::erdos_renyi_connected(n, rng.gen_range(0.1..0.6), seed),
        _ => gen::star(n),
    }
}

/// Each rate is zero in about a third of the cases, so crash-only,
/// loss-only and fault-free stacks all occur; `link_loss` otherwise lies
/// in (0, 0.5].
fn fault_config(rng: &mut SmallRng) -> FaultConfig {
    let mut rate =
        |max: f64| if rng.gen_range(0..3) == 0 { 0.0 } else { max * (1.0 - rng.gen::<f64>()) };
    FaultConfig { crash: rate(0.3), recover: rate(0.5), link_loss: rate(0.5) }
}

#[test]
fn fault_stack_matches_graph_builder_reference() {
    const HORIZON: u64 = 30;
    run_cases(0x670B, 64, |_case, rng| {
        let base = fault_base(rng);
        let n = base.node_count();
        let cfg = fault_config(rng);
        let seed = rng.gen::<u64>();
        let outages: Vec<(NodeId, u64, u64)> = (0..rng.gen_range(0..=6))
            .map(|_| {
                let u = rng.gen_range(0..n as NodeId);
                let from = rng.gen_range(1..=HORIZON);
                let to = if rng.gen_bool(0.2) {
                    u64::MAX
                } else {
                    rng.gen_range(from + 1..=HORIZON + 3)
                };
                (u, from, to)
            })
            .collect();
        // Dense (every round) or skip-ahead (gaps and repeated rounds).
        let rounds: Vec<u64> = if rng.gen_bool(0.5) {
            (1..=HORIZON).collect()
        } else {
            let mut r = 0;
            std::iter::from_fn(|| {
                r += rng.gen_range(0..=4u64);
                (r <= HORIZON).then_some(r.max(1))
            })
            .collect()
        };

        let faulty = || FaultyTopology::new(StaticTopology::new(base.clone()), cfg, seed);
        let mut alone = faulty();
        let mut scheduled =
            ScheduledCrashes::new(StaticTopology::new(base.clone()), outages.clone());
        let mut stacked = ScheduledCrashes::new(faulty(), outages.clone());
        let mut reference = ReferenceFaults::new(base.clone(), cfg, seed);
        for &round in &rounds {
            let want_faulty = reference.graph_at(round);
            let want = [
                ("FaultyTopology", want_faulty.clone()),
                ("ScheduledCrashes", reference_schedule(&base, &outages, round)),
                (
                    "ScheduledCrashes<FaultyTopology>",
                    reference_schedule(&want_faulty, &outages, round),
                ),
            ];
            let got = [alone.graph_at(round), scheduled.graph_at(round), stacked.graph_at(round)];
            for ((name, want), got) in want.iter().zip(got) {
                assert_eq!(got, want, "{name} diverged from the reference at round {round}");
                assert_eq!(got.validate(), Ok(()), "{name} broke a CSR invariant at round {round}");
            }
            for u in 0..n as NodeId {
                let down = scheduled_down(&outages, u, round);
                assert_eq!(stacked.is_node_up(u, round), reference.up[u as usize] && !down);
                // Any round, built or not, agrees with the schedule.
                let other = rng.gen_range(1..=HORIZON + 3);
                assert_eq!(scheduled.is_node_up(u, other), !scheduled_down(&outages, u, other));
            }
        }
    });
}
