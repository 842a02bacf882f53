//! Robustness tests: the stuck-run detector must prove the A1 tag-collision
//! deadlock quickly and deterministically, and fault injection must not
//! break the determinism contract.

use mobile_telephone::engine::audit::determinism_self_check;
use mobile_telephone::graph::rng::derive_seed;
use mobile_telephone::prelude::*;

/// The A1 experiment's trial construction at β = 1, n = 32: an 8-regular
/// expander running synchronized bit convergence with 5-bit tags.
fn a1_engine(trial_seed: u64) -> (Engine<BitConvergence, StaticTopology>, TagConfig) {
    let g = GraphFamily::Expander8.build(32, derive_seed(trial_seed, 0));
    let n = g.node_count();
    let config = TagConfig::new(n, 1.0, g.max_degree());
    let uids = UidPool::random(n, derive_seed(trial_seed, 10));
    let nodes = BitConvergence::spawn(&uids, config, derive_seed(trial_seed, 12));
    let e = Engine::new(
        StaticTopology::new(g),
        ModelParams::mobile(1),
        ActivationSchedule::synchronized(n),
        nodes,
        derive_seed(trial_seed, 11),
    );
    (e, config)
}

/// First trial seed (in A1's own `derive_seed(0xC0FFEE, t)` sequence) whose
/// *globally minimal* tag is held by two nodes with different UIDs — the
/// deadlock precondition: identical advertised bits mean the tie is never
/// broken and two leaders coexist forever.
fn deadlocking_trial_seed() -> u64 {
    for t in 0..1000 {
        let seed = derive_seed(0xC0FFEE, t);
        let (e, _) = a1_engine(seed);
        let pairs: Vec<IdPair> = e.nodes().iter().map(|p| p.active_pair()).collect();
        let min_tag = pairs.iter().map(|p| p.tag).min().expect("nonempty");
        let holders: Vec<u64> = pairs.iter().filter(|p| p.tag == min_tag).map(|p| p.uid).collect();
        if holders.len() >= 2 && holders.windows(2).any(|w| w[0] != w[1]) {
            return seed;
        }
    }
    panic!("no deadlocking trial seed in the first 1000 A1 trials");
}

#[test]
fn a1_beta1_deadlock_is_detected_as_stuck() {
    let seed = deadlocking_trial_seed();
    let run = || {
        let (mut e, config) = a1_engine(seed);
        let window = 4 * config.phase_len().max(1);
        e.enable_stuck_detection(window);
        let out = e.run_to_stabilization(100 * window);
        (out.status, window)
    };
    let (status, window) = run();
    let RunStatus::Stuck(report) = status else {
        panic!("deadlocked A1 trial must be detected as stuck, got {status:?}");
    };
    assert_eq!(report.window, window);
    assert!(
        report.detected_round <= 10 * window,
        "deadlock should be proven within 10 windows ({} rounds), took {}",
        10 * window,
        report.detected_round
    );
    assert_eq!(
        report.idle_connections, 0,
        "the tag-collision deadlock is a zero-connection fixed point"
    );
    // Detection is part of the deterministic execution: same seed, same
    // report, bit for bit.
    let (status2, _) = run();
    assert_eq!(status2, RunStatus::Stuck(report));
}

#[test]
fn timeout_without_detection_stays_timed_out() {
    // The same deadlocked run without the detector burns its whole budget —
    // the behaviour the detector exists to replace.
    let (mut e, _) = a1_engine(deadlocking_trial_seed());
    let out = e.run_to_stabilization(5_000);
    assert_eq!(out.status, RunStatus::TimedOut);
    assert_eq!(out.stabilized_round, None);
}

/// Engine under the full fault stack: crash churn and proposal loss, both
/// switched on at once.
fn faulty_engine(seed: u64) -> Engine<NonSyncBitConvergence, FaultyTopology<StaticTopology>> {
    let g = GraphFamily::Expander8.build(24, derive_seed(seed, 0));
    let n = g.node_count();
    let config = TagConfig::for_network(n, g.max_degree());
    let uids = UidPool::random(n, derive_seed(seed, 10));
    let nodes = NonSyncBitConvergence::spawn(&uids, config, derive_seed(seed, 12));
    let cfg = FaultConfig::crashes(0.05, 0.2);
    let topo = FaultyTopology::new(StaticTopology::new(g), cfg, derive_seed(seed, 13));
    let mut e = Engine::new(
        topo,
        ModelParams::mobile(config.nonsync_tag_bits()),
        ActivationSchedule::synchronized(n),
        nodes,
        derive_seed(seed, 11),
    );
    e.set_proposal_loss(0.2);
    e
}

#[test]
fn fault_injection_preserves_determinism() {
    // Same (seed, config) twice with crash faults and message loss enabled:
    // identical metrics after every round, identical final state.
    let m = determinism_self_check(|| faulty_engine(0xFA017), 2_000)
        .expect("faulted runs must replay identically");
    assert!(m.dropped_proposals > 0, "loss at p = 0.2 should have dropped something");
    assert!(m.connections > 0, "faults at these rates must not kill all progress");
}

#[test]
fn different_fault_seeds_diverge() {
    // Sanity check that the determinism test has teeth: a different seed
    // must actually change the execution.
    let run = |seed| {
        let mut e = faulty_engine(seed);
        e.run_rounds(500);
        (e.metrics(), e.network_fingerprint())
    };
    assert_ne!(run(0xFA017), run(0xFA018));
}

/// PUSH-PULL on a 24-node expander under the given fault mix.
fn rumor_engine(seed: u64, crash: f64, loss: f64) -> Engine<Rumor, FaultyTopology<StaticTopology>> {
    let g = GraphFamily::Expander8.build(24, derive_seed(seed, 0));
    let n = g.node_count();
    let cfg = if crash > 0.0 { FaultConfig::crashes(crash, 0.2) } else { FaultConfig::NONE };
    let topo = FaultyTopology::new(StaticTopology::new(g), cfg, derive_seed(seed, 13));
    let mut e = Engine::new(
        topo,
        ModelParams::mobile(0),
        ActivationSchedule::synchronized(n),
        Rumor::spawn(Strategy::PushPull, n, 1),
        derive_seed(seed, 11),
    );
    if loss > 0.0 {
        e.set_proposal_loss(loss);
    }
    e
}

#[test]
fn push_pull_completes_under_proposal_loss() {
    // Dropping 30% of proposals slows the rumor but must not strand it:
    // the coin-flip retry structure has no state to corrupt.
    let lossless = rumor_engine(0x5EED, 0.0, 0.0)
        .run_to_full_information(1_000_000)
        .stabilized_round
        .expect("fault-free PUSH-PULL informs the expander");
    let lossy = rumor_engine(0x5EED, 0.0, 0.3)
        .run_to_full_information(1_000_000)
        .stabilized_round
        .expect("PUSH-PULL must still complete at 30% proposal loss");
    assert!(
        lossy >= lossless,
        "loss cannot speed up a monotone rumor on the same engine stream \
         (lossless {lossless}, lossy {lossy})"
    );
}

#[test]
fn push_pull_completes_under_crash_churn() {
    // Crashed nodes cannot be informed while down, so completion rides on
    // recovery; with recover ≫ crash the rumor must still land everywhere.
    let out = rumor_engine(0x5EED, 0.02, 0.0).run_to_full_information(1_000_000);
    assert!(out.stabilized_round.is_some(), "PUSH-PULL must survive 2% crash churn");
}

#[test]
fn push_pull_fault_runs_replay_identically() {
    let m = determinism_self_check(|| rumor_engine(0xB0B, 0.02, 0.3), 2_000)
        .expect("faulted PUSH-PULL runs must replay identically");
    assert!(m.dropped_proposals > 0, "loss at p = 0.3 should drop something in 2000 rounds");
}

#[test]
fn ppush_completes_under_loss_and_crashes() {
    // PPUSH carries protocol state in the advertised bit; faults must not
    // wedge the informed/uninformed frontier.
    let g = GraphFamily::Expander8.build(24, derive_seed(7, 0));
    let n = g.node_count();
    let topo = FaultyTopology::new(
        StaticTopology::new(g),
        FaultConfig::crashes(0.02, 0.2),
        derive_seed(7, 13),
    );
    let mut e = Engine::new(
        topo,
        ModelParams::mobile(1),
        ActivationSchedule::synchronized(n),
        Rumor::spawn(Strategy::Ppush, n, 1),
        derive_seed(7, 11),
    );
    e.set_proposal_loss(0.3);
    let out = e.run_to_full_information(1_000_000);
    assert!(out.stabilized_round.is_some(), "PPUSH must survive crash churn + 30% loss");
}
