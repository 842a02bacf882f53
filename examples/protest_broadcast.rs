//! Protest broadcast: censorship-resistant rumor spreading, `b = 0` vs
//! `b = 1`.
//!
//! The paper's introduction cites peer-to-peer chat during the Hong Kong
//! protests: a message must reach everyone without touching monitored
//! infrastructure. Hub-heavy contact topologies (a few well-connected
//! organizers, many loosely attached participants) are exactly where the
//! mobile telephone model's one-connection-per-round limit bites. This
//! example spreads one message through a line-of-stars crowd with plain
//! PUSH-PULL (no advertising) and with PPUSH (one advertised bit saying
//! "I still need the message") and compares.
//!
//! Run with: `cargo run --release --example protest_broadcast`

use mobile_telephone::prelude::*;

fn main() {
    let seed = 99;
    // 12 organizers in a chain, each with 12 followers.
    let graph = gen::line_of_stars(12, 12);
    let n = graph.node_count();
    println!(
        "contact graph: line of 12 stars (n = {n}, Δ = {}), message starts at one node\n",
        graph.max_degree()
    );

    let trials = 9;
    let push_pull = median(trials, |t| {
        let mut e = Engine::new(
            StaticTopology::new(graph.clone()),
            ModelParams::mobile(0),
            ActivationSchedule::synchronized(n),
            Rumor::spawn(Strategy::PushPull, n, 1),
            seed + t,
        );
        e.run_to_full_information(50_000_000).stabilized_round.expect("PUSH-PULL must finish")
    });
    println!("PUSH-PULL (b = 0): median {push_pull} rounds to inform all {n} phones");

    let ppush = median(trials, |t| {
        let mut e = Engine::new(
            StaticTopology::new(graph.clone()),
            ModelParams::mobile(1),
            ActivationSchedule::synchronized(n),
            Rumor::spawn(Strategy::Ppush, n, 1),
            seed + t,
        );
        e.run_to_full_information(50_000_000).stabilized_round.expect("PPUSH must finish")
    });
    println!("PPUSH     (b = 1): median {ppush} rounds to inform all {n} phones");

    println!(
        "\none advertised bit makes every proposal productive: {:.1}× faster",
        push_pull as f64 / ppush as f64
    );
    assert!(ppush < push_pull, "PPUSH should win on a hub-heavy topology");

    // The same spread under churn: organizers reshuffle their followers
    // every round (τ = 1) — PPUSH needs no stability to keep its edge.
    let ppush_churn = median(trials, |t| {
        let topo = LineOfStarsShuffle::new(12, 12, 1, seed + t);
        let mut e = Engine::new(
            topo,
            ModelParams::mobile(1),
            ActivationSchedule::synchronized(n),
            Rumor::spawn(Strategy::Ppush, n, 1),
            seed + t,
        );
        e.run_to_full_information(50_000_000)
            .stabilized_round
            .expect("PPUSH under churn must finish")
    });
    println!("PPUSH under τ = 1 churn: median {ppush_churn} rounds");
}

fn median(trials: u64, mut run: impl FnMut(u64) -> u64) -> u64 {
    let mut xs: Vec<u64> = (0..trials).map(&mut run).collect();
    xs.sort_unstable();
    xs[xs.len() / 2]
}
