//! Integration tests for service mode: the multi-epoch maintenance loop
//! (`Engine::run_service` driving `MaintainedGossip`).
//!
//! Covers the PR-6 acceptance gates:
//! * same-seed determinism of the full multi-epoch trace,
//! * a pinned golden epoch history for one fixed scenario,
//! * re-election completing after a scheduled leader crash on the
//!   expander8-1024 workhorse topology,
//! * no false-positive re-elections on a healthy long run with a
//!   calibrated timeout,
//! * phased `run_service` calls composing into one execution,
//! * wedge diagnosis (not a timeout) on a partitioned network.
//!
//! Timeout choices follow the calibration in DESIGN.md: steady-state
//! heartbeat staleness is governed by single-source rumor spread (measured
//! max-age tails ≈ 27 on clique-8, ≈ 51 on expander8-256, ≈ 60 on
//! expander8-1024), and every timeout here carries a 3–5× margin.

use mobile_telephone::graph::rng::derive_seed;
use mobile_telephone::prelude::*;

/// Node indices sorted by UID: `by_uid[0]` holds the minimum UID,
/// `by_uid[1]` the expected successor after the leader dies.
fn nodes_by_uid(uids: &UidPool) -> Vec<usize> {
    let mut by_uid: Vec<usize> = (0..uids.len()).collect();
    by_uid.sort_unstable_by_key(|&u| uids.uid(u));
    by_uid
}

/// Maintained-gossip engine over an arbitrary topology on the standard
/// seed streams (10 = UID pool is derived by the caller, 11 = engine).
fn service_engine<T: DynamicTopology>(
    topo: T,
    uids: &UidPool,
    timeout: u64,
    seed: u64,
) -> Engine<MaintainedGossip, T> {
    let n = uids.len();
    Engine::new(
        topo,
        ModelParams::mobile(0),
        ActivationSchedule::synchronized(n),
        MaintainedGossip::spawn(uids, MaintenanceConfig::new(timeout)),
        derive_seed(seed, 11),
    )
}

/// One full churn scenario used by the determinism test: expander8-256
/// under memoryless crash/recover faults, leader additionally scheduled to
/// die permanently mid-run.
fn churn_outcome(seed: u64) -> (UidPool, ServiceOutcome) {
    let n = 256;
    let g = GraphFamily::Expander8.build(n, derive_seed(seed, 0));
    let uids = UidPool::random(g.node_count(), derive_seed(seed, 10));
    let leader_node = uids.min_uid_node() as NodeId;
    let faulty = FaultyTopology::new(
        StaticTopology::new(g),
        FaultConfig::crashes(0.001, 0.01),
        derive_seed(seed, 13),
    );
    let topo = ScheduledCrashes::new(faulty, vec![(leader_node, 300, u64::MAX)]);
    let mut e = service_engine(topo, &uids, 256, seed);
    let out = e.run_service(&ServiceConfig::rounds(1200).with_wedge_window(600));
    (uids, out)
}

#[test]
fn same_seed_service_runs_are_identical() {
    let (_, a) = churn_outcome(42);
    let (_, b) = churn_outcome(42);
    // Full structural equality: status, counters, engine metrics and the
    // entire epoch history — the multi-epoch trace is a pure function of
    // (seed, config).
    assert_eq!(a, b);
    // And the scenario is non-trivial: the scheduled crash forced at least
    // one re-election, so the equality above pins a multi-epoch trace.
    assert!(a.service.re_elections >= 1, "scenario must re-elect: {a:?}");
    assert!(a.epochs.len() >= 2, "multi-epoch trace expected: {:?}", a.epochs);
}

#[test]
fn multi_epoch_trace_is_pinned() {
    // Golden trace: clique-16, leader crashes permanently at round 150,
    // timeout 64, one 800-round service call. Any change to the round
    // executor, the maintenance protocol or the RNG streams shows up here.
    let seed = 7;
    let g = gen::clique(16);
    let uids = UidPool::random(16, derive_seed(seed, 10));
    let by_uid = nodes_by_uid(&uids);
    let topo =
        ScheduledCrashes::new(StaticTopology::new(g), vec![(by_uid[0] as NodeId, 150, u64::MAX)]);
    let mut e = service_engine(topo, &uids, 64, seed);
    let out = e.run_service(&ServiceConfig::rounds(800));
    assert_eq!(out.status, ServiceStatus::Completed);
    assert_eq!(out.rounds, 800);
    assert_eq!(out.final_epoch, 1);
    assert_eq!(out.final_leader, Some(uids.uid(by_uid[1])));
    assert_eq!(out.service.leaderless_rounds, 58);
    assert_eq!(out.service.dual_leader_rounds, 22);
    assert_eq!(out.service.stable_rounds, 714);
    assert_eq!(out.service.re_elections, 1);
    assert_eq!(out.service.max_concurrent_claimants, 15);
    assert_eq!(
        out.epochs,
        vec![
            EpochRecord {
                epoch: 0,
                started_round: 0,
                agreed_round: Some(17),
                leader: Some(uids.min_uid()),
            },
            EpochRecord {
                epoch: 1,
                started_round: 208,
                agreed_round: Some(220),
                leader: Some(uids.uid(by_uid[1])),
            },
        ]
    );
}

#[test]
fn re_election_completes_after_leader_crash_on_expander_1024() {
    // The ISSUE.md acceptance gate: schedule the epoch-0 leader to crash on
    // expander8-1024 and prove the service detects the death, opens term 1
    // and converges on the successor (second-smallest UID).
    let seed = 1;
    let n = 1024;
    let timeout = 256; // measured steady tail ≈ 60 → 4× margin
    let crash_at = 300;
    let g = GraphFamily::Expander8.build(n, derive_seed(seed, 0));
    let uids = UidPool::random(g.node_count(), derive_seed(seed, 10));
    let by_uid = nodes_by_uid(&uids);
    let successor = uids.uid(by_uid[1]);
    let topo = ScheduledCrashes::new(
        StaticTopology::new(g),
        vec![(by_uid[0] as NodeId, crash_at, u64::MAX)],
    );
    let mut e = service_engine(topo, &uids, timeout, seed);
    // Phase 1: elect and stabilize. Phase 2: crash, detect, re-elect —
    // fresh counters isolate the post-crash service quality.
    let pre = e.run_service(&ServiceConfig::rounds(crash_at - 1));
    assert_eq!(pre.final_leader, Some(uids.min_uid()), "epoch 0 must stabilize first");
    assert_eq!(pre.service.re_elections, 0, "no churn before the crash");

    let post = e.run_service(&ServiceConfig::rounds(1200));
    assert_eq!(post.status, ServiceStatus::Completed);
    assert_eq!(post.service.re_elections, 1, "exactly one term change: {post:?}");
    assert_eq!(post.final_epoch, 1);
    assert_eq!(post.final_leader, Some(successor), "term 1 must elect the successor");
    let term1 = post.epochs.last().expect("history is never empty");
    assert_eq!(term1.epoch, 1);
    assert!(
        term1.agreed_round.is_some(),
        "re-election must complete within the horizon: {term1:?}"
    );
    // Detection costs ≈ the staleness the survivors had already accrued at
    // the crash, so downtime lands near (but under) the full timeout.
    assert!(
        (1..=timeout + 100).contains(&post.service.leaderless_rounds),
        "leaderless ≈ timeout expected, got {}",
        post.service.leaderless_rounds
    );
}

#[test]
fn healthy_run_has_no_false_re_elections() {
    // A calibrated timeout must never fire on a fault-free run: heartbeat
    // staleness on expander8-256 tails out near 51 rounds, far under 256.
    let seed = 3;
    let g = GraphFamily::Expander8.build(256, derive_seed(seed, 0));
    let uids = UidPool::random(g.node_count(), derive_seed(seed, 10));
    let mut e = service_engine(StaticTopology::new(g), &uids, 256, seed);
    let out = e.run_service(&ServiceConfig::rounds(1500).with_wedge_window(512));
    assert_eq!(out.status, ServiceStatus::Completed);
    assert_eq!(out.service.re_elections, 0, "false-positive detection: {out:?}");
    assert_eq!(out.final_epoch, 0);
    assert_eq!(out.epochs.len(), 1);
    assert_eq!(out.final_leader, Some(uids.min_uid()));
    // Blind gossip starts every node as a claimant, so the network is never
    // leaderless on a healthy run — only briefly multi-claimant.
    assert_eq!(out.service.leaderless_rounds, 0);
    assert!(
        out.service.stable_rounds >= 1500 - 100,
        "steady state should dominate: {:?}",
        out.service
    );
}

#[test]
fn phased_service_calls_compose_into_one_execution() {
    // Two run_service calls on one engine are the same deterministic
    // execution as a single call covering the union of the horizons; only
    // the counter bucketing differs.
    let seed = 9;
    let build = || {
        let g = GraphFamily::Expander8.build(64, derive_seed(seed, 0));
        let uids = UidPool::random(g.node_count(), derive_seed(seed, 10));
        service_engine(StaticTopology::new(g), &uids, 128, seed)
    };
    let mut single = build();
    let whole = single.run_service(&ServiceConfig::rounds(500));

    let mut phased = build();
    let p1 = phased.run_service(&ServiceConfig::rounds(200));
    let p2 = phased.run_service(&ServiceConfig::rounds(300));

    assert_eq!(whole.final_leader, p2.final_leader);
    assert_eq!(whole.final_epoch, p2.final_epoch);
    assert_eq!(whole.rounds, p1.rounds + p2.rounds);
    let sum = |f: fn(&ServiceMetrics) -> u64| f(&p1.service) + f(&p2.service);
    assert_eq!(whole.service.leaderless_rounds, sum(|s| s.leaderless_rounds));
    assert_eq!(whole.service.dual_leader_rounds, sum(|s| s.dual_leader_rounds));
    assert_eq!(whole.service.stable_rounds, sum(|s| s.stable_rounds));
    assert_eq!(whole.service.re_elections, sum(|s| s.re_elections));
    // Engine-level metrics are cumulative over the whole execution, so the
    // second phase's snapshot must equal the single-call snapshot.
    assert_eq!(whole.metrics, p2.metrics);
}

#[test]
fn partitioned_network_is_diagnosed_wedged_not_timed_out() {
    // Two 8-cliques with no bridge: each side elects its own leader, both
    // sides' heartbeats stay fresh (no timeout ever fires), and the global
    // state freezes in disagreement. The wedge detector must diagnose this
    // as a dead end instead of letting the horizon burn.
    let seed = 5;
    let n = 16;
    let mut b = GraphBuilder::new(n);
    for side in 0..2u32 {
        for i in 0..8u32 {
            for j in (i + 1)..8 {
                b.add_edge(side * 8 + i, side * 8 + j);
            }
        }
    }
    let g = b.build();
    let uids = UidPool::random(n, derive_seed(seed, 10));
    let mut e = service_engine(StaticTopology::new(g), &uids, 64, seed);
    let out = e.run_service(&ServiceConfig::rounds(4000).with_wedge_window(128));
    let ServiceStatus::Wedged(report) = out.status else {
        panic!("partitioned run must wedge, got {:?}", out.status);
    };
    // The exact report pins the freeze rule's window bookkeeping: the last
    // change, the firing round `fixed_since + window`, and the connections
    // counted over the window. Both components keep connecting (the
    // cliques are alive) without any durable-state change — the signature
    // of a wedge, not a stall.
    assert_eq!(
        report,
        StuckReport { fixed_since: 14, detected_round: 142, window: 128, idle_connections: 422 }
    );
    assert_eq!(out.rounds, 142, "wedge must cut the run short");
    // No global agreement is ever reached across the cut.
    assert_eq!(out.final_leader, None);
    assert_eq!(out.service.re_elections, 0, "fresh heartbeats must not time out");
}
