//! Quickstart: elect a leader three ways on the same network.
//!
//! Builds one 64-node expander topology and runs all three of the paper's
//! leader election algorithms on it — blind gossip (`b = 0`), bit
//! convergence (`b = 1`), and non-synchronized bit convergence
//! (`b = log log n + O(1)`) — printing rounds-to-stabilization for each.
//!
//! Run with: `cargo run --release --example quickstart`

use mobile_telephone::prelude::*;

fn main() {
    let seed = 2017;
    let graph = GraphFamily::Expander8.build(64, seed);
    let n = graph.node_count();
    let delta = graph.max_degree();
    println!("network: random 8-regular expander, n = {n}, Δ = {delta}, static (τ = ∞)\n");

    // Every trial is a pure function of its seed: same seed, same result.
    let uids = UidPool::random(n, seed);
    println!("smallest UID in the network: {:#018x}\n", uids.min_uid());

    // --- Blind gossip: no advertising bits at all. -----------------------
    let mut engine = Engine::new(
        StaticTopology::new(graph.clone()),
        ModelParams::mobile(0),
        ActivationSchedule::synchronized(n),
        BlindGossip::spawn(&uids),
        seed,
    );
    let blind = engine.run_to_stabilization(10_000_000);
    report("blind gossip      (b = 0)", &blind);
    assert_eq!(blind.winner, Some(uids.min_uid()));

    // --- Bit convergence: one advertising bit per round. -----------------
    let config = TagConfig::for_network(n, delta);
    let mut engine = Engine::new(
        StaticTopology::new(graph.clone()),
        ModelParams::mobile(1),
        ActivationSchedule::synchronized(n),
        BitConvergence::spawn(&uids, config, seed),
        seed,
    );
    let bitconv = engine.run_to_stabilization(10_000_000);
    report("bit convergence   (b = 1)", &bitconv);

    // --- Non-synchronized bit convergence: survives staggered starts. ----
    let mut engine = Engine::new(
        StaticTopology::new(graph),
        ModelParams::mobile(config.nonsync_tag_bits()),
        ActivationSchedule::staggered_uniform(n, 100, seed),
        NonSyncBitConvergence::spawn(&uids, config, seed),
        seed,
    );
    let nonsync = engine.run_to_stabilization(10_000_000);
    report(&format!("nonsync bitconv   (b = {})", config.nonsync_tag_bits()), &nonsync);
    println!(
        "\nnonsync stabilized {} rounds after the last of its staggered activations",
        nonsync.rounds_after_activation.expect("the nonsync run stabilized")
    );
}

fn report(name: &str, outcome: &RunOutcome) {
    match outcome.stabilized_round {
        Some(r) => println!(
            "{name}: stabilized in {r:>6} rounds   (leader {:#018x}, {} connections)",
            outcome.winner.expect("a stabilized run has a winner"),
            outcome.metrics.connections
        ),
        None => println!("{name}: did not stabilize"),
    }
}
