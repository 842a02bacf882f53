//! Disaster relief: two isolated response teams merge and re-elect one
//! coordinator (self-stabilization, §VIII).
//!
//! Infrastructure is down after a disaster; two rescue teams each form
//! their own smartphone mesh and elect a coordinator. When the teams meet,
//! a single radio link bridges the meshes — and the combined network must
//! converge to one coordinator without any reset signal. This is exactly
//! the self-stabilization property of the non-synchronized bit convergence
//! algorithm: its whole state is "the smallest ID pair seen," so the merged
//! network behaves like a fresh execution.
//!
//! Run with: `cargo run --release --example disaster_relief`

use mobile_telephone::prelude::*;

fn main() {
    let seed = 31;
    let team = 24; // phones per team

    let north = gen::random_regular(team, 4, seed);
    let south = gen::random_regular(team, 4, seed + 1);
    let join_round = 40_000;
    // One bridge link between phone 0 (north) and phone `team` (south).
    let topo = JoinSchedule::new(&north, &south, &[(0, team as u32)], join_round);

    let n = 2 * team;
    let uids = UidPool::random(n, seed);
    let config = TagConfig::for_network(n, 5);
    let nodes = NonSyncBitConvergence::spawn(&uids, config, seed);

    let mut engine = Engine::new(
        topo,
        ModelParams::mobile(config.nonsync_tag_bits()),
        ActivationSchedule::synchronized(n),
        nodes,
        seed,
    );

    // Phase 1: the teams operate in isolation.
    engine.run_rounds(join_round - 1);
    let north_leader = engine.node(0).leader();
    let south_leader = engine.node(team).leader();
    let north_agrees = engine.nodes()[..team].iter().all(|p| p.leader() == north_leader);
    let south_agrees = engine.nodes()[team..].iter().all(|p| p.leader() == south_leader);
    println!("before the teams meet (round {}):", join_round - 1);
    println!("  north team: coordinator {north_leader:#018x} (unanimous: {north_agrees})");
    println!("  south team: coordinator {south_leader:#018x} (unanimous: {south_agrees})");
    assert!(north_agrees && south_agrees, "each team should converge in isolation");
    assert_ne!(north_leader, south_leader, "isolated teams elect different coordinators");

    // Phase 2: the bridge link appears; no node is told anything.
    let outcome = engine.run_to_stabilization(500_000_000);
    let stabilized = outcome.stabilized_round.expect("merged mesh must converge");
    println!("\nbridge link established at round {join_round}");
    println!(
        "merged mesh converged at round {stabilized} ({} rounds after the merge)",
        stabilized - join_round + 1
    );
    println!(
        "  unified coordinator: {:#018x}",
        outcome.winner.expect("a converged mesh has a winner")
    );
    assert!(
        outcome.winner == Some(north_leader) || outcome.winner == Some(south_leader),
        "the unified coordinator is whichever team leader holds the smaller ID pair"
    );
}
