//! Engine and substrate microbenchmarks: per-round simulation throughput
//! across topology shapes, matching computation, and expansion search.
//! Timing uses the in-tree [`mtm_bench::harness`].

use mtm_bench::harness::Bench;
use mtm_core::{BlindGossip, Ppush, UidPool};
use mtm_engine::{ActivationSchedule, Engine, ModelParams};
use mtm_graph::{gen, GraphFamily, StaticTopology};

/// Rounds of blind gossip per topology (the hot path of most experiments).
fn round_throughput(bench: &mut Bench) {
    for (name, graph) in [
        ("clique-256", gen::clique(256)),
        ("expander8-1024", gen::random_regular(1024, 8, 1)),
        ("line-of-stars-16", gen::line_of_stars(16, 16)),
        ("cycle-1024", gen::cycle(1024)),
    ] {
        let n = graph.node_count();
        const ROUNDS: u64 = 100;
        bench.run(&format!("engine_rounds/blind_gossip/{name}"), || {
            let uids = UidPool::random(n, 7);
            let mut e = Engine::new(
                StaticTopology::new(graph.clone()),
                ModelParams::mobile(0),
                ActivationSchedule::synchronized(n),
                BlindGossip::spawn(&uids),
                3,
            );
            e.run_rounds(ROUNDS);
            e.metrics().connections
        });
    }
}

/// PPUSH rounds (tag handling adds per-neighbor work).
fn ppush_throughput(bench: &mut Bench) {
    let graph = gen::random_regular(1024, 8, 2);
    let n = graph.node_count();
    bench.run("engine_rounds/ppush/expander8-1024", || {
        let mut e = Engine::new(
            StaticTopology::new(graph.clone()),
            ModelParams::mobile(1),
            ActivationSchedule::synchronized(n),
            Ppush::spawn(n, 1),
            5,
        );
        e.run_rounds(100);
        e.informed_count()
    });
}

/// Hopcroft–Karp cut matchings (T5's inner loop).
fn matching(bench: &mut Bench) {
    let g = GraphFamily::Expander8.build(512, 3);
    let in_s: Vec<bool> = (0..g.node_count()).map(|u| u % 2 == 0).collect();
    bench.run("matching/hopcroft_karp/expander8-512", || {
        mtm_graph::matching::cut_matching(&g, &in_s)
    });
}

/// Exact vertex expansion by subset enumeration (test-scale graphs).
fn expansion(bench: &mut Bench) {
    let g = gen::erdos_renyi_connected(16, 0.3, 9);
    bench.run("expansion/alpha_exact/n16", || mtm_graph::expansion::alpha_exact(&g));
    let big = GraphFamily::Torus.build(400, 0);
    bench.run("expansion/sampled/torus-400", || {
        mtm_graph::expansion::alpha_upper_bound_sampled(&big, 5, 1)
    });
}

/// Dynamic topology regeneration cost.
fn adversaries(bench: &mut Bench) {
    use mtm_graph::DynamicTopology;
    let base = gen::random_regular(1024, 8, 4);
    let mut adv = mtm_graph::dynamic::RelabelingAdversary::new(base, 1, 8);
    let mut round = 0u64;
    bench.run("dynamic/relabel/expander8-1024", || {
        round += 1;
        adv.graph_at(round).edge_count()
    });
}

fn main() {
    let mut bench = Bench::from_args();
    round_throughput(&mut bench);
    ppush_throughput(&mut bench);
    matching(&mut bench);
    expansion(&mut bench);
    adversaries(&mut bench);
    bench.finish();
}
