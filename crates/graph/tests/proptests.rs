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

use mtm_graph::dynamic::{DynamicTopology, RelabelingAdversary};
use mtm_graph::expansion::{alpha_exact, alpha_of_set, boundary_size};
use mtm_graph::matching::{brute_force_matching, cut_matching, gamma_exact, hopcroft_karp};
use mtm_graph::rng::stream_rng;
use mtm_graph::static_graph::from_edges;
use mtm_graph::{
    gen, nid, FaultConfig, FaultyTopology, Graph, GraphBuilder, NodeId, ScheduledCrashes,
    StaticTopology,
};
use mtm_testkit::{run_cases, Rng, SeedableRng, SliceRandom, SmallRng};

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

/// Reference for [`FaultyTopology`]: the documented crash chain (round `r`
/// draws from stream `2r`), with each round's graph pushed through
/// [`GraphBuilder`].
struct ReferenceFaults {
    cfg: FaultConfig,
    seed: u64,
    up: Vec<bool>,
    chain_round: u64,
}

impl ReferenceFaults {
    fn new(n: usize, cfg: FaultConfig, seed: u64) -> Self {
        ReferenceFaults { cfg, seed, up: vec![true; n], chain_round: 0 }
    }

    /// The faulted graph at `round`, given the base's graph at `round`.
    fn graph_at(&mut self, base: &Graph, round: u64) -> Graph {
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
        let mut b = GraphBuilder::new(base.node_count());
        for (u, v) in base.edges() {
            if self.up[u as usize] && self.up[v as usize] {
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
/// recover-only and fault-free stacks all occur.
fn fault_config(rng: &mut SmallRng) -> FaultConfig {
    let mut rate =
        |max: f64| if rng.gen_range(0..3) == 0 { 0.0 } else { max * (1.0 - rng.gen::<f64>()) };
    FaultConfig::crashes(rate(0.3), rate(0.5))
}

/// Up to `max` random outage windows within `1..=horizon + 3`, a fifth of
/// them permanent.
fn random_outages(
    rng: &mut SmallRng,
    n: usize,
    max: usize,
    horizon: u64,
) -> Vec<(NodeId, u64, u64)> {
    (0..rng.gen_range(0..=max))
        .map(|_| {
            let u = rng.gen_range(0..nid(n));
            let from = rng.gen_range(1..=horizon);
            let to =
                if rng.gen_bool(0.2) { u64::MAX } else { rng.gen_range(from + 1..=horizon + 3) };
            (u, from, to)
        })
        .collect()
}

/// Every round `1..=horizon` or, with probability one half, a skip-ahead
/// sequence with gaps and repeated rounds.
fn round_sequence(rng: &mut SmallRng, horizon: u64) -> Vec<u64> {
    if rng.gen_bool(0.5) {
        (1..=horizon).collect()
    } else {
        let mut r = 0;
        std::iter::from_fn(|| {
            r += rng.gen_range(0..=4u64);
            (r <= horizon).then_some(r.max(1))
        })
        .collect()
    }
}

/// Drive `FaultyTopology`, `ScheduledCrashes` and the two stacked, each
/// over a fresh `make_base()`, through `rounds`, and check every graph and
/// every node's `is_node_up` against the references fed that round's base
/// graph.
fn check_fault_stack<B: DynamicTopology>(
    make_base: impl Fn() -> B,
    cfg: FaultConfig,
    seed: u64,
    outages: &[(NodeId, u64, u64)],
    rounds: &[u64],
    rng: &mut SmallRng,
) {
    let mut base = make_base();
    let n = base.node_count();
    let horizon = rounds.last().copied().unwrap_or(1);
    let mut alone = FaultyTopology::new(make_base(), cfg, seed);
    let mut scheduled = ScheduledCrashes::new(make_base(), outages.to_vec());
    let mut stacked =
        ScheduledCrashes::new(FaultyTopology::new(make_base(), cfg, seed), outages.to_vec());
    let mut reference = ReferenceFaults::new(n, cfg, seed);
    for &round in rounds {
        let base_graph = base.graph_at(round).clone();
        let want_faulty = reference.graph_at(&base_graph, round);
        let want = [
            ("FaultyTopology", want_faulty.clone()),
            ("ScheduledCrashes", reference_schedule(&base_graph, outages, round)),
            ("ScheduledCrashes<FaultyTopology>", reference_schedule(&want_faulty, outages, round)),
        ];
        let got = [alone.graph_at(round), scheduled.graph_at(round), stacked.graph_at(round)];
        for ((name, want), got) in want.iter().zip(got) {
            assert_eq!(got, want, "{name} diverged from the reference at round {round}");
            assert_eq!(got.validate(), Ok(()), "{name} broke a CSR invariant at round {round}");
        }
        for u in 0..nid(n) {
            let down = scheduled_down(outages, u, round);
            assert_eq!(alone.is_node_up(u, round), reference.up[u as usize]);
            assert_eq!(stacked.is_node_up(u, round), reference.up[u as usize] && !down);
            // Any round, built or not, agrees with the schedule.
            let other = rng.gen_range(1..=horizon + 3);
            assert_eq!(scheduled.is_node_up(u, other), !scheduled_down(outages, u, other));
        }
    }
}

#[test]
fn fault_stack_matches_graph_builder_reference() {
    const HORIZON: u64 = 30;
    run_cases(0x670B, 64, |_case, rng| {
        let base = fault_base(rng);
        let cfg = fault_config(rng);
        let seed = rng.gen::<u64>();
        let outages = random_outages(rng, base.node_count(), 6, HORIZON);
        let rounds = round_sequence(rng, HORIZON);
        check_fault_stack(|| StaticTopology::new(base.clone()), cfg, seed, &outages, &rounds, rng);
    });
}

/// The service workload's regime: a few flips per round among hundreds of
/// nodes, so nearly every round patches a handful of rows and copies the
/// rest in long spans.
#[test]
fn fault_stack_patches_match_reference_at_service_rates() {
    run_cases(0x5E7E, 4, |_case, rng| {
        let n = rng.gen_range(256..=1024usize);
        let base = gen::random_regular(n, 8, rng.gen::<u64>());
        let cfg = FaultConfig::crashes(0.01 * (1.0 - rng.gen::<f64>()), rng.gen_range(0.03..0.07));
        let seed = rng.gen::<u64>();
        let horizon = rng.gen_range(200..=260u64);
        let mut outages = random_outages(rng, n, 3, horizon);
        outages.push((rng.gen_range(0..nid(n)), rng.gen_range(1..=horizon), u64::MAX));
        let rounds = round_sequence(rng, horizon);
        check_fault_stack(|| StaticTopology::new(base.clone()), cfg, seed, &outages, &rounds, rng);
    });
}

/// Rates of exactly 0 and 1: at 1 every node flips each round without a
/// draw.
#[test]
fn fault_stack_matches_reference_at_rates_zero_and_one() {
    const HORIZON: u64 = 24;
    run_cases(0x01D1, 48, |_case, rng| {
        let base = fault_base(rng);
        let mut rate = || match rng.gen_range(0..3) {
            0 => 0.0,
            1 => 1.0,
            _ => rng.gen::<f64>(),
        };
        let cfg = FaultConfig::crashes(rate(), rate());
        let seed = rng.gen::<u64>();
        let outages = random_outages(rng, base.node_count(), 4, HORIZON);
        let rounds = round_sequence(rng, HORIZON);
        check_fault_stack(|| StaticTopology::new(base.clone()), cfg, seed, &outages, &rounds, rng);
    });
}

/// A base that rewires every τ rounds: a patch is only valid between its
/// changes, so each change must re-filter from the new base graph.
#[test]
fn fault_stack_matches_reference_over_a_changing_base() {
    const HORIZON: u64 = 40;
    run_cases(0x7A03, 32, |_case, rng| {
        let base = fault_base(rng);
        let tau = if rng.gen_bool(0.5) { 3 } else { rng.gen_range(1..=6) };
        let topo_seed = rng.gen::<u64>();
        let cfg = if rng.gen_bool(0.75) {
            FaultConfig::crashes(rng.gen_range(0.02..0.3), rng.gen_range(0.05..0.5))
        } else {
            fault_config(rng)
        };
        let seed = rng.gen::<u64>();
        let outages = random_outages(rng, base.node_count(), 4, HORIZON);
        let rounds = round_sequence(rng, HORIZON);
        check_fault_stack(
            || RelabelingAdversary::new(base.clone(), tau, topo_seed),
            cfg,
            seed,
            &outages,
            &rounds,
            rng,
        );
    });
}

/// One random line of edge-list soup: edges and headers mixed with self
/// loops, ids near `u32::MAX`, extra or missing tokens, non-numbers and
/// comments. Header values are small or beyond `u32::MAX`, never in
/// between, so no accepted graph is large.
fn soup_line(rng: &mut SmallRng) -> String {
    let id = |rng: &mut SmallRng| match rng.gen_range(0..8u32) {
        0 => (u64::from(u32::MAX) - rng.gen_range(0..3u64)).to_string(),
        1 => (u64::from(u32::MAX) + rng.gen_range(1..3u64)).to_string(),
        2 => "x7".to_string(),
        3 => "-1".to_string(),
        _ => rng.gen_range(0..12u32).to_string(),
    };
    match rng.gen_range(0..10u32) {
        0 => format!("n {}", rng.gen_range(0..16u32)),
        1 => format!("n {}", u64::from(u32::MAX) + rng.gen_range(1..100u64)),
        2 => "n".to_string(),
        3 => {
            let u = id(rng);
            format!("{u} {u}")
        }
        4 => format!("{} {} {}", id(rng), id(rng), id(rng)),
        5 => id(rng),
        6 => "# comment".to_string(),
        7 => String::new(),
        _ => format!("{} {}", id(rng), id(rng)),
    }
}

#[test]
fn edge_list_parser_never_panics() {
    run_cases(0x670C, 512, |_case, rng| {
        let mut lines: Vec<String> =
            (0..rng.gen_range(0..12usize)).map(|_| soup_line(rng)).collect();
        // A small header somewhere bounds every accepted graph, so an id
        // near u32::MAX must be rejected rather than allocate 2^32 nodes.
        let at = rng.gen_range(0..=lines.len());
        lines.insert(at, format!("n {}", rng.gen_range(0..16u32)));
        let text = lines.join("\n");
        if let Ok(g) = mtm_graph::io::from_edge_list(&text) {
            if let Err(e) = g.validate() {
                panic!("parsed graph fails validation ({e}):\n{text}");
            }
        }
    });
}

/// Reference for [`gen::random_regular`]: the pairing-model generator as it
/// was before its pair multiplicities moved from a `BTreeMap` to a flat
/// table and its bad-pair scan began resuming, copied verbatim. Any change
/// to the generator's RNG order or repair rule shows up as a diff here.
fn reference_random_regular(n: usize, d: usize, seed: u64) -> Graph {
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
        let key = |u: NodeId, v: NodeId| if u < v { (u, v) } else { (v, u) };
        let mut seen: std::collections::BTreeMap<(NodeId, NodeId), usize> =
            std::collections::BTreeMap::new();
        for &(u, v) in &pairs {
            if u != v {
                *seen.entry(key(u, v)).or_insert(0) += 1;
            }
        }
        let is_bad =
            |p: (NodeId, NodeId), seen: &std::collections::BTreeMap<(NodeId, NodeId), usize>| {
                p.0 == p.1 || seen.get(&key(p.0, p.1)).copied().unwrap_or(0) > 1
            };
        let mut repaired = true;
        for _ in 0..pairs.len() * 50 {
            let Some(i) = pairs.iter().position(|&p| is_bad(p, &seen)) else {
                break;
            };
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
            let k1 = key(a, e);
            let k2 = key(c, b);
            if seen.get(&k1).copied().unwrap_or(0) > 0 || seen.get(&k2).copied().unwrap_or(0) > 0 {
                continue;
            }
            if a != b {
                if let Some(c0) = seen.get_mut(&key(a, b)) {
                    *c0 -= 1;
                }
            }
            if c != e {
                if let Some(c0) = seen.get_mut(&key(c, e)) {
                    *c0 -= 1;
                }
            }
            *seen.entry(k1).or_insert(0) += 1;
            *seen.entry(k2).or_insert(0) += 1;
            pairs[i] = (a, e);
            pairs[j] = (c, b);
        }
        if pairs.iter().any(|&p| is_bad(p, &seen)) {
            repaired = false;
        }
        if !repaired {
            continue;
        }
        let mut b = GraphBuilder::with_capacity(n, pairs.len());
        for &(u, v) in &pairs {
            b.add_edge(u, v);
        }
        let g = b.build();
        if g.is_connected() && g.degree_sum() == n * d {
            return g;
        }
    }
    panic!("random_regular({n}, {d}) failed to produce a simple connected graph");
}

#[test]
fn random_regular_matches_pairing_model_reference() {
    // Dense instances first: at n = 10, d = 8 (the `expander8` minimum)
    // self-loops and multi-edges are common, so every repair branch runs.
    // d ≤ 2 is left out: a 2-regular pairing is rarely one cycle, so the
    // retry loop gives up and panics.
    for seed in 0..20 {
        assert_eq!(gen::random_regular(10, 8, seed), reference_random_regular(10, 8, seed));
    }
    run_cases(0x670D, 300, |_case, rng| {
        let d = rng.gen_range(3..=8usize);
        let n_max = if rng.gen_bool(0.3) { d + 8 } else { 400 };
        let mut n = rng.gen_range(d + 1..=n_max);
        if (n * d) % 2 == 1 {
            n += 1;
        }
        let seed = rng.gen::<u64>();
        let got = gen::random_regular(n, d, seed);
        assert_eq!(got, reference_random_regular(n, d, seed), "n={n} d={d} seed={seed}");
    });
}

/// FNV-1a over every CSR row in node order: the row's length, then its
/// neighbours, each as a little-endian `u32`.
fn csr_row_hash(g: &Graph) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |w: u32| {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for u in 0..g.node_count() as NodeId {
        let row = g.neighbors(u);
        feed(row.len() as u32);
        for &v in row {
            feed(v);
        }
    }
    h
}

#[test]
fn random_regular_golden_csr_hashes() {
    // Recorded from the reference above, which is too slow at these sizes
    // to run as an oracle in a unit test. They pin the generator where
    // the reference's bookkeeping grew super-linearly: 2^16 nodes (the
    // size of the `elect-blind-2e16` benchmark workload) and 2^18.
    for (n, d, seed, want) in [
        (65_536, 8, 1, 0x92fa_811d_5da5_d7c1_u64),
        (65_536, 8, 2, 0x3dbf_4783_cb6d_ed81),
        (65_536, 8, 3, 0xc296_9dc5_2432_2269),
        (262_144, 3, 1, 0x856b_1532_9b92_5aa9),
    ] {
        let got = csr_row_hash(&gen::random_regular(n, d, seed));
        assert_eq!(got, want, "random_regular({n}, {d}, {seed}) hash {got:#018x}");
    }
}
