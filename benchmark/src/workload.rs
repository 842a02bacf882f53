//! The four workloads, one instance at a time.
//!
//! Every instance builds its inputs exactly as `mtm elect`, `mtm elect
//! --backend event` or `mtm serve` do for the same seed (UIDs from
//! `seed ^ 0x11D`, tags from `seed ^ 0x7A6`, the engine seed, the auto
//! service timeout and the fault stack), so each workload has one
//! equivalent `mtm` command ([`Workload::command`]) whose printed outcome
//! matches the instance's.

use std::hint::black_box;

use mtm_core::{
    BitConvergence, BlindGossip, MaintainedGossip, MaintenanceConfig, TagConfig, UidPool,
};
use mtm_engine::{
    ActivationSchedule, Engine, EventEngine, LatencyModel, LeaderView, Metrics, ModelParams,
    Protocol, RunStatus, ServiceConfig, ServiceMetrics, ServiceStatus,
};
use mtm_graph::dynamic::BoxedTopology;
use mtm_graph::{
    DynamicTopology, FaultConfig, FaultyTopology, Graph, GraphFamily, NodeId, ScheduledCrashes,
    StaticTopology,
};

use crate::trace::Tracer;

/// The CLI's default round / tick budget.
const MAX_ROUNDS: u64 = 500_000_000;
/// `mtm elect --backend event`'s default `--latency-spread`.
const LATENCY_SPREAD: u64 = 8;
/// The service scenario: horizon, churn, loss and the first leader's crash.
const SERVE_ROUNDS: u64 = 1000;
const SERVE_CHURN: (f64, f64) = (0.001, 0.05);
const SERVE_LOSS: f64 = 0.1;
const SERVE_CRASH_ROUND: u64 = 200;
/// Granularity of the traced service run: `run_service` composes, so the
/// traced run calls it in chunks of this many rounds.
const SERVE_CHUNK: u64 = 10;
/// Granularity of the traced event run, in ticks.
const EVENT_WINDOW_TICKS: u64 = 64;
/// Size of every workload under `--quick`.
const QUICK_LOG_N: u32 = 10;

/// What an instance runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// `BlindGossip` on the lockstep engine, run to stabilization.
    Blind,
    /// `BitConvergence` (b = 1) on the lockstep engine, run to stabilization.
    BitConv,
    /// `MaintainedGossip` under `run_service` with churn, loss and a crash
    /// of the first leader.
    Serve,
    /// `BlindGossip` on the discrete-event engine, run to stabilization.
    Event,
}

/// One named workload.
pub(crate) struct Workload {
    pub(crate) name: &'static str,
    kind: Kind,
    log_n: u32,
    /// Outcome digest of instance 0 at seed 1, at full and `--quick` size.
    pinned: [u64; 2],
}

pub(crate) const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "elect-blind-2e16",
        kind: Kind::Blind,
        log_n: 16,
        pinned: [0xf4a5_42c3_bef9_c30b, 0xb0d3_3bce_1eab_18c6],
    },
    Workload {
        name: "elect-bitconv-2e13",
        kind: Kind::BitConv,
        log_n: 13,
        pinned: [0x5f82_b961_0c80_027a, 0x9c3d_5047_c23d_92f3],
    },
    Workload {
        name: "serve-churn-2e12",
        kind: Kind::Serve,
        log_n: 12,
        pinned: [0x447e_fb15_13fe_3c0d, 0xafd3_baa2_7e4e_6295],
    },
    Workload {
        name: "elect-event-2e13",
        kind: Kind::Event,
        log_n: 13,
        pinned: [0xbe69_ba20_af1f_6457, 0xfa58_edcf_b40b_80a6],
    },
];

/// What an instance produced: the counters the equivalent `mtm` command
/// prints, plus everything the digest folds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub(crate) struct Outcome {
    /// Stabilized (elections) or ran its whole horizon (service).
    pub(crate) completed: bool,
    /// Stabilization round, completion tick (event) or rounds executed
    /// (service).
    pub(crate) rounds: u64,
    /// The agreed leader: the winner of an election, the final leader of a
    /// service run.
    pub(crate) winner: Option<u64>,
    pub(crate) metrics: Metrics,
    /// Events processed (event backend only).
    pub(crate) events: u64,
    /// Mean local round at the end (event backend only).
    pub(crate) mean_local_rounds: f64,
    /// Service counters (service runs only).
    pub(crate) service: ServiceMetrics,
    pub(crate) final_epoch: u64,
}

impl Outcome {
    /// Proposals not yet resolved when the run stopped. Always 0 on the
    /// lockstep engine, where every round resolves its proposals.
    pub(crate) fn inflight(&self) -> i128 {
        let m = &self.metrics;
        i128::from(m.proposals)
            - i128::from(m.connections)
            - i128::from(m.rejected_proposals)
            - i128::from(m.dropped_proposals)
    }

    /// Fold of every field: equal digests mean equal outcomes.
    pub(crate) fn digest(&self) -> u64 {
        let m = &self.metrics;
        let s = &self.service;
        mtm_engine::fingerprint::of_words(&[
            u64::from(self.completed),
            self.rounds,
            u64::from(self.winner.is_some()),
            self.winner.unwrap_or(0),
            m.rounds,
            m.proposals,
            m.connections,
            m.rejected_proposals,
            m.dropped_proposals,
            self.events,
            self.mean_local_rounds.to_bits(),
            s.leaderless_rounds,
            s.dual_leader_rounds,
            s.stable_rounds,
            s.re_elections,
            s.max_concurrent_claimants,
            self.final_epoch,
        ])
    }
}

/// Who must win.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Winner {
    /// An election's winner, known from the inputs.
    Exactly(u64),
    /// A service run's final leader: anyone but the crashed first leader,
    /// after at least one re-election.
    ReElected { crashed: u64 },
}

/// What a correct outcome looks like.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Expect {
    pub(crate) n: usize,
    pub(crate) winner: Winner,
    /// Lockstep runs conserve proposals exactly; event runs may stop with
    /// up to one proposal per node in flight.
    pub(crate) lockstep: bool,
    /// The digest the outcome must have, where one is pinned.
    pub(crate) digest: Option<u64>,
}

/// Check an outcome from outside the engine.
pub(crate) fn verify(o: &Outcome, e: &Expect) -> Result<(), String> {
    if !o.completed {
        return Err(format!("did not complete (stopped at {})", o.rounds));
    }
    match e.winner {
        Winner::Exactly(w) if o.winner != Some(w) => {
            return Err(format!("leader {:x?}, expected {w:#x}", o.winner));
        }
        Winner::ReElected { crashed } => {
            if o.service.re_elections == 0 {
                return Err("the crashed leader was never replaced".to_string());
            }
            match o.winner {
                None => return Err("no final leader".to_string()),
                Some(w) if w == crashed => {
                    return Err(format!("final leader {w:#x} is the crashed one"));
                }
                Some(_) => {}
            }
        }
        Winner::Exactly(_) => {}
    }
    let gap = o.inflight();
    if e.lockstep && gap != 0 {
        return Err(format!("proposals not conserved: {gap} unaccounted"));
    }
    if !e.lockstep && !(0..=e.n as i128).contains(&gap) {
        return Err(format!("in-flight proposals {gap} outside [0, {}]", e.n));
    }
    if let Some(d) = e.digest {
        if o.digest() != d {
            return Err(format!("digest {:#018x}, pinned {d:#018x}", o.digest()));
        }
    }
    Ok(())
}

/// One finished instance.
pub(crate) struct Instance {
    pub(crate) outcome: Outcome,
    pub(crate) verdict: Result<(), String>,
    pub(crate) n: usize,
    /// Simulated node-rounds: `n × rounds`, with the mean local round on
    /// the event backend.
    pub(crate) node_rounds: f64,
    /// Time in `leaders_agree` (fine tracing only; 0 otherwise).
    pub(crate) check_ns: u64,
}

impl Workload {
    pub(crate) fn find(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    pub(crate) fn n(&self, quick: bool) -> usize {
        1 << if quick { QUICK_LOG_N } else { self.log_n }
    }

    pub(crate) fn pinned(&self, quick: bool) -> u64 {
        self.pinned[usize::from(quick)]
    }

    /// The `mtm` command that runs the same instance.
    pub(crate) fn command(&self, n: usize, seed: u64) -> String {
        match self.kind {
            Kind::Blind => format!("mtm elect blind expander8 {n} --seed {seed}"),
            Kind::BitConv => format!("mtm elect bitconv expander8 {n} --seed {seed}"),
            Kind::Serve => format!(
                "mtm serve expander8 {n} --seed {seed} --rounds {SERVE_ROUNDS} --churn {},{} \
                 --loss {SERVE_LOSS} --crash-leader {SERVE_CRASH_ROUND}",
                SERVE_CHURN.0, SERVE_CHURN.1
            ),
            Kind::Event => format!("mtm elect blind expander8 {n} --seed {seed} --backend event"),
        }
    }

    /// Run one instance of `n` nodes from `seed` inside a `run` span, and
    /// verify it; `digest` is the pinned digest to check, if any.
    pub(crate) fn run(&self, n: usize, seed: u64, digest: Option<u64>, t: &mut Tracer) -> Instance {
        let run = t.open("run");
        let setup = t.open("setup");
        let g = t.time("graph.build", || GraphFamily::Expander8.build(n, seed));
        let connected = t.time("graph.connected", || g.is_connected());
        assert!(connected, "topology must be connected");
        let n = g.node_count();
        let spawn = t.open("core.spawn");
        let uids = UidPool::random(n, seed ^ 0x11D);
        let (outcome, check_ns, winner) = match self.kind {
            Kind::Blind => {
                let nodes = BlindGossip::spawn(&uids);
                t.close(spawn);
                let e = lockstep(g, ModelParams::mobile(0), nodes, seed, t);
                t.close(setup);
                let (o, c) = elect(e, t);
                (o, c, Winner::Exactly(uids.min_uid()))
            }
            Kind::BitConv => {
                let config = TagConfig::for_network(n, g.max_degree());
                let nodes = BitConvergence::spawn(&uids, config, seed ^ 0x7A6);
                t.close(spawn);
                let min_pair = nodes.iter().map(BitConvergence::active_pair).min();
                let winner = min_pair.expect("at least one node").uid;
                let e = lockstep(g, ModelParams::mobile(1), nodes, seed, t);
                t.close(setup);
                let (o, c) = elect(e, t);
                (o, c, Winner::Exactly(winner))
            }
            Kind::Serve => {
                let nodes =
                    MaintainedGossip::spawn(&uids, MaintenanceConfig::new(serve_timeout(n)));
                t.close(spawn);
                let e = t.time("engine.new", || {
                    let mut e = Engine::new(
                        serve_topology(g, &uids, seed),
                        ModelParams::mobile(0),
                        ActivationSchedule::synchronized(n),
                        nodes,
                        seed,
                    );
                    e.set_proposal_loss(SERVE_LOSS);
                    e
                });
                t.close(setup);
                let (o, c) = serve(e, t);
                (o, c, Winner::ReElected { crashed: uids.min_uid() })
            }
            Kind::Event => {
                let nodes = BlindGossip::spawn(&uids);
                t.close(spawn);
                let e = t.time("engine.new", || {
                    let latency = LatencyModel::multipeer(LATENCY_SPREAD);
                    EventEngine::new(g, ModelParams::mobile(0), nodes, seed, latency)
                });
                t.close(setup);
                let (o, c) = elect_event(e, t);
                (o, c, Winner::Exactly(uids.min_uid()))
            }
        };
        let expect = Expect { n, winner, lockstep: self.kind != Kind::Event, digest };
        let verdict = verify(&outcome, &expect);
        t.close(run);
        let rounds = if self.kind == Kind::Event {
            outcome.mean_local_rounds
        } else {
            outcome.rounds as f64
        };
        Instance { outcome, verdict, n, node_rounds: n as f64 * rounds, check_ns }
    }

    /// Replay the service workload's fault stack on its own: `rounds`
    /// rounds of `graph_at`, each of which rebuilds the CSR, inside a
    /// `graph.replay` span. Returns the seconds spent, or `None` on the
    /// other workloads, whose topology is one fixed graph.
    pub(crate) fn replay_faults(
        &self,
        n: usize,
        seed: u64,
        rounds: u64,
        t: &mut Tracer,
    ) -> Option<f64> {
        if self.kind != Kind::Serve {
            return None;
        }
        let g = GraphFamily::Expander8.build(n, seed);
        let uids = UidPool::random(g.node_count(), seed ^ 0x11D);
        let mut topo = serve_topology(g, &uids, seed);
        let span = t.open("graph.replay");
        for r in 1..=rounds {
            black_box(topo.graph_at(r).edge_count());
        }
        t.close(span);
        Some(t.spans()[span].duration_ns() as f64 * 1e-9)
    }
}

/// `mtm elect`'s lockstep engine over the static graph, built inside an
/// `engine.new` span.
fn lockstep<P: Protocol>(
    g: Graph,
    params: ModelParams,
    nodes: Vec<P>,
    seed: u64,
    t: &mut Tracer,
) -> Engine<P, BoxedTopology> {
    t.time("engine.new", || {
        let n = g.node_count();
        let topo: BoxedTopology = Box::new(StaticTopology::new(g));
        Engine::new(topo, params, ActivationSchedule::synchronized(n), nodes, seed)
    })
}

/// `mtm serve`'s auto timeout: 32·⌈log₂ n⌉.
fn serve_timeout(n: usize) -> u64 {
    32 * u64::from(usize::BITS - n.max(2).next_power_of_two().leading_zeros() - 1)
}

/// `mtm serve`'s fault stack: crash/recover churn around the static graph,
/// then the first leader (the minimum-UID holder) crashed for good.
fn serve_topology(g: Graph, uids: &UidPool, seed: u64) -> BoxedTopology {
    let leader = NodeId::try_from(uids.min_uid_node()).expect("node ids fit NodeId");
    let churn = FaultyTopology::new(
        StaticTopology::new(g),
        FaultConfig::crashes(SERVE_CHURN.0, SERVE_CHURN.1),
        seed ^ 0xFA,
    );
    Box::new(ScheduledCrashes::new(churn, vec![(leader, SERVE_CRASH_ROUND, u64::MAX)]))
}

/// Run a lockstep election to stabilization inside a `sim` span. Traced,
/// it drives `step` and `leaders_agree` itself in `run_until`'s order (stuck
/// detection off), so the outcome is the same either way.
fn elect<P: Protocol + LeaderView>(
    mut e: Engine<P, BoxedTopology>,
    t: &mut Tracer,
) -> (Outcome, u64) {
    let sim = t.open("sim");
    let (stabilized, winner, check_ns) = if t.fine() {
        let mut check_ns = 0;
        let mut check = |e: &Engine<P, BoxedTopology>, t: &mut Tracer| {
            let id = t.open("engine.check");
            let agreed = e.leaders_agree();
            t.close(id);
            check_ns += t.spans()[id].duration_ns();
            agreed
        };
        let mut agreed = check(&e, t);
        while agreed.is_none() && e.round() < MAX_ROUNDS {
            t.time("engine.step", || e.step());
            agreed = check(&e, t);
        }
        (agreed.map(|_| e.round()), agreed, check_ns)
    } else {
        let out = e.run_to_stabilization(MAX_ROUNDS);
        let stabilized = out.stabilized_round.filter(|_| out.status == RunStatus::Stabilized);
        (stabilized, out.winner, 0)
    };
    t.close(sim);
    let outcome = Outcome {
        completed: stabilized.is_some(),
        rounds: stabilized.unwrap_or(e.round()),
        winner,
        metrics: e.metrics(),
        ..Outcome::default()
    };
    (outcome, check_ns)
}

/// Run an event-backend election to stabilization inside a `sim` span.
/// Traced, the `run_until` predicate also closes an `engine.event_window`
/// span each time simulation time crosses a multiple of
/// [`EVENT_WINDOW_TICKS`] and times its `leaders_agree` call.
fn elect_event<P: Protocol + LeaderView>(mut e: EventEngine<P>, t: &mut Tracer) -> (Outcome, u64) {
    let sim = t.open("sim");
    let (done, winner, check_ns) = if t.fine() {
        let mut check_ns = 0;
        let mut window = 0;
        let mut window_start = t.now_ns();
        let done = e.run_until(MAX_ROUNDS, |e| {
            if e.now() / EVENT_WINDOW_TICKS > window {
                let now = t.now_ns();
                t.record("engine.event_window", window_start, now);
                window = e.now() / EVENT_WINDOW_TICKS;
                window_start = now;
            }
            let c0 = t.now_ns();
            let agreed = e.leaders_agree().is_some();
            check_ns += t.now_ns() - c0;
            agreed
        });
        let winner = done.and_then(|_| e.leaders_agree());
        t.record("engine.event_window", window_start, t.now_ns());
        (done, winner, check_ns)
    } else {
        let out = e.run_to_stabilization(MAX_ROUNDS);
        (out.completed_at, out.winner, 0)
    };
    t.close(sim);
    let outcome = Outcome {
        completed: done.is_some(),
        rounds: done.unwrap_or(e.now()),
        winner,
        metrics: e.metrics(),
        events: e.events_processed(),
        mean_local_rounds: e.mean_local_rounds(),
        ..Outcome::default()
    };
    (outcome, check_ns)
}

/// Run the service horizon inside a `sim` span. Traced, `run_service` is
/// called in [`SERVE_CHUNK`]-round chunks (the call composes: counters
/// restart per call and are summed here) with a `leaders_agree` probe after
/// each chunk.
fn serve<P>(mut e: Engine<P, BoxedTopology>, t: &mut Tracer) -> (Outcome, u64)
where
    P: Protocol + LeaderView + mtm_engine::EpochView,
{
    let sim = t.open("sim");
    let mut outcome = Outcome { completed: true, ..Outcome::default() };
    let mut check_ns = 0;
    let chunk = if t.fine() { SERVE_CHUNK } else { SERVE_ROUNDS };
    let cfg = ServiceConfig::rounds(chunk);
    for _ in 0..SERVE_ROUNDS / chunk {
        let out = if t.fine() {
            t.time("engine.service_chunk", || e.run_service(&cfg))
        } else {
            e.run_service(&cfg)
        };
        let s = &mut outcome.service;
        s.leaderless_rounds += out.service.leaderless_rounds;
        s.dual_leader_rounds += out.service.dual_leader_rounds;
        s.stable_rounds += out.service.stable_rounds;
        s.re_elections += out.service.re_elections;
        s.max_concurrent_claimants =
            s.max_concurrent_claimants.max(out.service.max_concurrent_claimants);
        outcome.completed &= out.status == ServiceStatus::Completed;
        outcome.rounds += out.rounds;
        outcome.winner = out.final_leader;
        outcome.final_epoch = out.final_epoch;
        outcome.metrics = out.metrics;
        if t.fine() {
            let id = t.open("engine.check");
            black_box(e.leaders_agree());
            t.close(id);
            check_ns += t.spans()[id].duration_ns();
        }
    }
    t.close(sim);
    (outcome, check_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn good() -> (Outcome, Expect) {
        let outcome = Outcome {
            completed: true,
            rounds: 63,
            winner: Some(0xABC),
            metrics: Metrics {
                rounds: 63,
                proposals: 100,
                connections: 40,
                rejected_proposals: 55,
                dropped_proposals: 5,
            },
            ..Outcome::default()
        };
        let expect = Expect { n: 16, winner: Winner::Exactly(0xABC), lockstep: true, digest: None };
        (outcome, expect)
    }

    #[test]
    fn a_correct_outcome_passes() {
        let (o, e) = good();
        assert_eq!(verify(&o, &e), Ok(()));
        let pinned = Expect { digest: Some(o.digest()), ..e };
        assert_eq!(verify(&o, &pinned), Ok(()));
    }

    #[test]
    fn tampered_outcomes_are_counted_as_failed() {
        let (o, e) = good();
        let tampered = [
            Outcome { winner: Some(0xABD), ..o },
            Outcome { completed: false, ..o },
            Outcome { metrics: Metrics { connections: 41, ..o.metrics }, ..o },
        ];
        let verdicts: Vec<_> = tampered.iter().map(|t| verify(t, &e)).collect();
        assert!(verdicts.iter().all(Result::is_err), "{verdicts:?}");
        // A tampered counter also breaks a pinned digest on its own.
        let pinned = Expect { digest: Some(o.digest()), lockstep: false, ..e };
        let off_by_one = Outcome { metrics: Metrics { proposals: 101, ..o.metrics }, ..o };
        assert!(verify(&off_by_one, &pinned).is_err());
    }

    #[test]
    fn event_runs_may_stop_with_proposals_in_flight() {
        let (o, e) = good();
        let event = Expect { lockstep: false, ..e };
        let inflight = Outcome { metrics: Metrics { proposals: 110, ..o.metrics }, ..o };
        assert_eq!(verify(&inflight, &event), Ok(()));
        let too_many = Outcome { metrics: Metrics { proposals: 117, ..o.metrics }, ..o };
        assert!(verify(&too_many, &event).is_err(), "more in flight than nodes");
        let negative = Outcome { metrics: Metrics { proposals: 99, ..o.metrics }, ..o };
        assert!(verify(&negative, &event).is_err());
    }

    #[test]
    fn service_needs_a_new_leader() {
        let (o, _) = good();
        let e = Expect {
            n: 16,
            winner: Winner::ReElected { crashed: 0xABC },
            lockstep: true,
            digest: None,
        };
        let replaced = ServiceMetrics { re_elections: 1, ..ServiceMetrics::default() };
        assert!(verify(&Outcome { winner: Some(0xDEF), service: replaced, ..o }, &e).is_ok());
        assert!(verify(&Outcome { service: replaced, ..o }, &e).is_err(), "crashed leader");
        assert!(verify(&Outcome { winner: Some(0xDEF), ..o }, &e).is_err(), "no re-election");
        assert!(verify(&Outcome { winner: None, service: replaced, ..o }, &e).is_err());
    }

    #[test]
    fn quick_instances_pass_their_checks() {
        let mut t = Tracer::new(true);
        for (i, w) in WORKLOADS.iter().enumerate() {
            t.begin_run(i as u32);
            let inst = w.run(w.n(true), 1, None, &mut t);
            assert_eq!(inst.verdict, Ok(()), "{}", w.name);
            assert!(inst.node_rounds > 0.0 && inst.check_ns > 0, "{}", w.name);
        }
    }

    #[test]
    fn serve_timeout_matches_the_cli() {
        assert_eq!(serve_timeout(8192), 32 * 13);
        assert_eq!(serve_timeout(5000), 32 * 13);
    }
}
