//! Festival mesh: leader election over a moving crowd with late joiners.
//!
//! The paper's motivating scenario: a crowd of smartphones at a festival
//! where cellular coverage is overwhelmed. Phones form proximity
//! connections (Multipeer-style), people wander (random waypoint mobility),
//! and phones join the mesh at different times — exactly the
//! asynchronous-activation setting of §VIII. The mesh needs one
//! coordinator (e.g. to sequence a shared photo stream); we elect it with
//! non-synchronized bit convergence and watch agreement form.
//!
//! Run with: `cargo run --release --example festival_mesh`

use mobile_telephone::prelude::*;

fn main() {
    let seed = 7;
    let n = 120;

    // Phones on a unit-square festival ground, radio range 0.18, strolling
    // between waypoints; topology re-forms every 20 rounds (τ = 20).
    let mobility = WaypointMobility::new(n, 0.18, 0.02, 20, seed);

    // Phones arrive over the first 300 rounds.
    let schedule = ActivationSchedule::staggered_uniform(n, 300, seed);
    let last_arrival = schedule.last_activation();

    let uids = UidPool::random(n, seed);
    // Every phone knows only a generous bound on crowd size.
    let config = TagConfig::new(1 << 10, 3.0, 64);
    let nodes = NonSyncBitConvergence::spawn(&uids, config, seed);

    let mut engine = Engine::new(
        mobility,
        ModelParams::mobile(config.nonsync_tag_bits()),
        schedule,
        nodes,
        seed,
    );

    println!("festival mesh: {n} phones, waypoint mobility (τ = 20), arrivals over {last_arrival} rounds");
    println!("advertising budget b = {} bits\n", config.nonsync_tag_bits());
    println!("{:>7}  {:>7}  {:>11}", "round", "active", "agreement");

    let mut stabilized_at = None;
    for checkpoint in 1..=60 {
        engine.run_rounds(100);
        let round = checkpoint * 100;
        let active = (0..n).filter(|&u| engine.is_active(u)).count();
        // Fraction of phones that already point at the eventual leader.
        let mode = agreement_fraction(engine.nodes());
        println!("{round:>7}  {active:>7}  {:>10.1}%", mode * 100.0);
        if engine.leaders_agree().is_some() {
            stabilized_at = Some(round);
            break;
        }
    }

    match stabilized_at {
        Some(r) => {
            let leader = engine.leaders_agree().expect("agreement was seen at this round");
            println!(
                "\ncoordinator elected: {leader:#018x} (checkpointed at round {r}, \
                 ≤ {} rounds after the last arrival)",
                r - last_arrival
            );
            assert_eq!(leader, expected_winner(engine.nodes()));
        }
        None => println!("\nno agreement within the simulated window — rerun with more rounds"),
    }
}

/// Fraction of nodes whose current leader equals the most common choice.
fn agreement_fraction(nodes: &[NonSyncBitConvergence]) -> f64 {
    let mut counts = std::collections::BTreeMap::new();
    for node in nodes {
        *counts.entry(node.leader()).or_insert(0usize) += 1;
    }
    let max = counts.values().copied().max().unwrap_or(0);
    max as f64 / nodes.len() as f64
}

/// The UID of the globally smallest (tag, uid) pair — who must win.
fn expected_winner(nodes: &[NonSyncBitConvergence]) -> u64 {
    nodes.iter().map(|p| p.best_pair()).min().expect("the mesh has phones").uid
}
