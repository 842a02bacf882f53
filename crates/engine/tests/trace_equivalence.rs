//! Trace equivalence: the optimized round executor against a straight-line
//! reference implementation of the model's round structure.
//!
//! [`Engine::step`] earns its speed from an active-set bitmap, a zero-copy
//! scan fast path, a flat proposal arena, and a sharded worker-pool path —
//! none of which may change a single observable bit, because the RNG
//! consumption order is part of the public contract (every recorded
//! `results/*.csv` depends on it; engine semantics v2, see
//! [`mtm_engine::ENGINE_SEMANTICS_VERSION`]). The reference executor here
//! is deliberately naive: it re-queries the activation schedule in every
//! phase, filters visible neighbors into fresh `Vec`s, and keeps incoming
//! proposals as one `Vec` per receiver. The property: across random
//! (topology, schedule, tag_bits, loss, policy, seed)
//! configurations — and at every thread count in {1, 2, 4, 8} — engine and
//! reference produce identical counters after every round and identical
//! final node states, each of which includes the node's connection
//! history.

// The reference executor is written in deliberately plain indexed style —
// it should read like the model's pseudocode, not like optimized Rust.
#![allow(clippy::needless_range_loop, clippy::manual_is_multiple_of)]

use mtm_engine::{
    Action, ActivationSchedule, ConnectionPolicy, Engine, ModelParams, PayloadCost, Protocol, Scan,
    Tag,
};
use mtm_graph::dynamic::RelabelingAdversary;
use mtm_graph::{gen, DynamicTopology, Graph, NodeId, StaticTopology};
use mtm_testkit::{run_cases, Rng, SmallRng};

/// A protocol that draws randomness in every hook and folds everything it
/// observes (tags, payloads, local rounds) into its state, so any deviation
/// in call order or RNG stream shows up in the final state comparison.
///
/// Each node also logs `(local round, peer id)` for every connection, in
/// the order its `on_connect` calls happen. A connection `(u, v)` formed in
/// round `r` therefore appears in both endpoints' logs, at local rounds
/// that are functions of `r`, and a receiver's log keeps the accept-all
/// delivery order.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Chatty {
    id: u64,
    tag_bits: u32,
    state: u64,
    local_round: u64,
    log: Vec<(u64, u64)>,
}

impl Chatty {
    fn new(id: u64, tag_bits: u32, state: u64) -> Self {
        Chatty { id, tag_bits, state, local_round: 0, log: Vec::new() }
    }
}

#[derive(Clone)]
struct Word {
    id: u64,
    state: u64,
}
impl PayloadCost for Word {
    fn uid_count(&self) -> u32 {
        1
    }
    fn extra_bits(&self) -> u32 {
        64
    }
}

impl Protocol for Chatty {
    type Payload = Word;

    fn advertise(&mut self, local_round: u64, rng: &mut SmallRng) -> Tag {
        // Draws even when b = 0: advertising is allowed to consume
        // randomness regardless of the tag width.
        let r = rng.gen::<u32>();
        self.state = self.state.wrapping_add(u64::from(r)).rotate_left(7) ^ local_round;
        self.local_round = local_round;
        if self.tag_bits == 0 {
            Tag(0)
        } else {
            Tag(r & ((1 << self.tag_bits) - 1))
        }
    }

    fn act(&mut self, scan: &Scan<'_>, rng: &mut SmallRng) -> Action {
        // Protocols know their own b and must not read tags when b = 0
        // (the engine hands over an empty tag slice in that case).
        if self.tag_bits > 0 {
            for (i, &t) in scan.tags.iter().enumerate() {
                self.state ^= (u64::from(t.0) << (i % 32)).wrapping_mul(0x9E37_79B9);
            }
        }
        if scan.neighbors.is_empty() || !rng.gen_bool(0.6) {
            return Action::Listen;
        }
        Action::Propose(scan.neighbors[rng.gen_range(0..scan.neighbors.len())])
    }

    fn payload(&self) -> Word {
        Word { id: self.id, state: self.state }
    }

    fn on_connect(&mut self, peer: &Word, rng: &mut SmallRng) {
        self.state = self.state.rotate_left(13) ^ peer.state ^ rng.gen::<u64>();
        self.log.push((self.local_round, peer.id));
    }

    fn end_round(&mut self, local_round: u64, rng: &mut SmallRng) {
        if local_round % 3 == 0 {
            self.state ^= rng.gen::<u64>();
        }
    }

    fn state_fingerprint(&self) -> Option<u64> {
        Some(self.state)
    }
}

/// Everything observable about one execution: after every round, the
/// active node count and the running `[proposals, connections, rejected,
/// dropped]` counters; at the end, every node's whole state.
#[derive(Debug, PartialEq)]
struct Observed {
    rounds: Vec<[u64; 5]>,
    nodes: Vec<Chatty>,
}

/// Straight-line reference executor: the round structure of Section III
/// transcribed phase by phase, with no caching and no shared buffers.
struct Reference<T: DynamicTopology> {
    topology: T,
    params: ModelParams,
    schedule: ActivationSchedule,
    nodes: Vec<Chatty>,
    rngs: Vec<SmallRng>,
    loss_prob: f64,
    loss_seed: u64,
    round: u64,
    rounds: Vec<[u64; 5]>,
    proposals: u64,
    connections: u64,
    rejected: u64,
    dropped: u64,
}

impl<T: DynamicTopology> Reference<T> {
    fn new(
        topology: T,
        params: ModelParams,
        schedule: ActivationSchedule,
        nodes: Vec<Chatty>,
        seed: u64,
        loss_prob: f64,
    ) -> Self {
        let n = nodes.len();
        Reference {
            topology,
            params,
            schedule,
            nodes,
            rngs: (0..n as u64).map(|u| mtm_graph::rng::stream_rng(seed, u)).collect(),
            loss_prob,
            loss_seed: mtm_graph::rng::derive_seed(seed, u64::MAX),
            round: 0,
            rounds: Vec::new(),
            proposals: 0,
            connections: 0,
            rejected: 0,
            dropped: 0,
        }
    }

    fn step(&mut self) {
        self.round += 1;
        let round = self.round;
        let n = self.nodes.len();
        let graph: Graph = self.topology.graph_at(round).clone();
        let schedule = self.schedule.clone();
        let active = |u: usize| schedule.is_active(u, round);
        let active_count = (0..n).filter(|&u| active(u)).count() as u64;

        // Phase 1: every active node advertises a tag.
        let mut tags = vec![Tag(0); n];
        for u in 0..n {
            if active(u) {
                let lr = self.schedule.local_round(u, round);
                tags[u] = self.nodes[u].advertise(lr, &mut self.rngs[u]);
                assert!(tags[u].fits(self.params.tag_bits));
            }
        }

        // Phases 2-3: every active node scans its active neighbors and
        // decides to listen or propose. None = inactive, Some(None) =
        // listen, Some(Some(v)) = propose to v.
        let mut decisions: Vec<Option<Option<NodeId>>> = vec![None; n];
        for u in 0..n {
            if !active(u) {
                continue;
            }
            let visible: Vec<NodeId> = graph
                .neighbors(u as NodeId)
                .iter()
                .copied()
                .filter(|&v| active(v as usize))
                .collect();
            let visible_tags: Vec<Tag> = if self.params.tag_bits > 0 {
                visible.iter().map(|&v| tags[v as usize]).collect()
            } else {
                Vec::new()
            };
            let scan = Scan {
                neighbors: &visible,
                tags: &visible_tags,
                round,
                local_round: self.schedule.local_round(u, round),
            };
            decisions[u] = Some(match self.nodes[u].act(&scan, &mut self.rngs[u]) {
                Action::Listen => None,
                Action::Propose(v) => {
                    assert!(visible.contains(&v));
                    Some(v)
                }
            });
        }

        // Phase 4: proposals land (each proposal's loss coin is the pure
        // counter draw of engine semantics v2, evaluated only when loss is
        // enabled); receivers collect them in one Vec each.
        let mut incoming: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for u in 0..n {
            if let Some(Some(v)) = decisions[u] {
                self.proposals += 1;
                if self.loss_prob > 0.0
                    && mtm_graph::rng::counter_coin(self.loss_seed, round, u as u64)
                        < self.loss_prob
                {
                    self.dropped += 1;
                    continue;
                }
                let vi = v as usize;
                if decisions[vi] == Some(None) {
                    incoming[vi].push(u as NodeId);
                } else {
                    self.rejected += 1;
                }
            }
        }

        // Phase 4a: each receiver resolves its proposals, in ascending
        // node id (the canonical v2 delivery order).
        let mut accepted: Vec<(NodeId, NodeId)> = Vec::new();
        for vi in 0..n {
            if incoming[vi].is_empty() {
                continue;
            }
            let v = vi as NodeId;
            let inc = &incoming[vi];
            match self.params.policy {
                ConnectionPolicy::SingleUniform => {
                    let pick =
                        if inc.len() == 1 { 0 } else { self.rngs[vi].gen_range(0..inc.len()) };
                    self.rejected += inc.len() as u64 - 1;
                    accepted.push((inc[pick], v));
                }
                ConnectionPolicy::AcceptAll => {
                    for &u in inc {
                        accepted.push((u, v));
                    }
                }
            }
        }

        // Phase 4b: payload exchanges, proposer's hook before receiver's.
        for (u, v) in accepted {
            let pu = self.nodes[u as usize].payload();
            let pv = self.nodes[v as usize].payload();
            self.nodes[u as usize].on_connect(&pv, &mut self.rngs[u as usize]);
            self.nodes[v as usize].on_connect(&pu, &mut self.rngs[v as usize]);
            self.connections += 1;
        }

        // Phase 5: end of round.
        for u in 0..n {
            if active(u) {
                let lr = self.schedule.local_round(u, round);
                self.nodes[u].end_round(lr, &mut self.rngs[u]);
            }
        }

        self.rounds.push([
            active_count,
            self.proposals,
            self.connections,
            self.rejected,
            self.dropped,
        ]);
    }

    fn run(mut self, rounds: u64) -> Observed {
        for _ in 0..rounds {
            self.step();
        }
        Observed { rounds: self.rounds, nodes: self.nodes }
    }
}

#[allow(clippy::too_many_arguments)]
fn run_engine<T: DynamicTopology>(
    topology: T,
    params: ModelParams,
    schedule: ActivationSchedule,
    nodes: Vec<Chatty>,
    seed: u64,
    loss_prob: f64,
    rounds: u64,
    threads: usize,
) -> Observed {
    let n = nodes.len();
    let mut e = Engine::new(topology, params, schedule, nodes, seed);
    e.set_threads(threads);
    if loss_prob > 0.0 {
        e.set_proposal_loss(loss_prob);
    }
    let rounds = (0..rounds)
        .map(|_| {
            e.step();
            let m = e.metrics();
            let active = (0..n).filter(|&u| e.is_active(u)).count() as u64;
            [active, m.proposals, m.connections, m.rejected_proposals, m.dropped_proposals]
        })
        .collect();
    Observed { rounds, nodes: e.nodes().to_vec() }
}

/// One random configuration drawn from the case RNG.
struct Config {
    graph: Graph,
    dynamic_tau: Option<u64>,
    params: ModelParams,
    schedule: ActivationSchedule,
    tag_bits: u32,
    loss_prob: f64,
    seed: u64,
    rounds: u64,
}

fn sample_config(rng: &mut SmallRng) -> Config {
    let n = rng.gen_range(4..20usize);
    let graph = match rng.gen_range(0..5u32) {
        0 => gen::clique(n),
        1 => gen::cycle(n),
        2 => gen::path(n),
        3 => gen::star(n),
        _ => gen::random_regular(n + n % 2, 3, rng.gen::<u64>()),
    };
    let n = graph.node_count();
    let tag_bits = rng.gen_range(0..4u32);
    // Cases 0 and 1 are both the mobile model: the three-way draw keeps
    // every later draw of a case, and so the sampled configurations, fixed.
    let params = match rng.gen_range(0..3u32) {
        0 | 1 => ModelParams::mobile(tag_bits),
        _ => ModelParams { tag_bits, ..ModelParams::classical() },
    };
    let schedule = match rng.gen_range(0..3u32) {
        0 => ActivationSchedule::synchronized(n),
        1 => ActivationSchedule::explicit((0..n).map(|_| rng.gen_range(1..25u64)).collect()),
        _ => ActivationSchedule::staggered_uniform(n, rng.gen_range(1..30u64), rng.gen::<u64>()),
    };
    Config {
        graph,
        dynamic_tau: if rng.gen_bool(0.3) { Some(rng.gen_range(1..6u64)) } else { None },
        params,
        schedule,
        tag_bits,
        loss_prob: if rng.gen_bool(0.4) { 0.3 } else { 0.0 },
        seed: rng.gen::<u64>(),
        rounds: rng.gen_range(20..60u64),
    }
}

#[test]
fn optimized_step_matches_reference_executor() {
    run_cases(0xE901, 48, |case, rng| {
        let cfg = sample_config(rng);
        let n = cfg.graph.node_count();
        let nodes: Vec<Chatty> = (0..n as u64)
            .map(|u| Chatty::new(u, cfg.tag_bits, u.wrapping_mul(0xA5A5_A5A5) ^ 1))
            .collect();

        // One reference run, checked against the engine at every thread
        // count — including 2/4/8 on a sharded path whose shard boundaries
        // differ each time.
        if let Some(tau) = cfg.dynamic_tau {
            let topo = || RelabelingAdversary::new(cfg.graph.clone(), tau, cfg.seed ^ 0xD15C);
            let want = Reference::new(
                topo(),
                cfg.params,
                cfg.schedule.clone(),
                nodes.clone(),
                cfg.seed,
                cfg.loss_prob,
            )
            .run(cfg.rounds);
            for threads in [1usize, 2, 4, 8] {
                let got = run_engine(
                    topo(),
                    cfg.params,
                    cfg.schedule.clone(),
                    nodes.clone(),
                    cfg.seed,
                    cfg.loss_prob,
                    cfg.rounds,
                    threads,
                );
                assert_eq!(
                    got, want,
                    "case {case}: executor at {threads} threads diverged from the \
                     reference (n = {n}, b = {}, loss = {}, rounds = {})",
                    cfg.tag_bits, cfg.loss_prob, cfg.rounds
                );
            }
        } else {
            let topo = || StaticTopology::new(cfg.graph.clone());
            let want = Reference::new(
                topo(),
                cfg.params,
                cfg.schedule.clone(),
                nodes.clone(),
                cfg.seed,
                cfg.loss_prob,
            )
            .run(cfg.rounds);
            for threads in [1usize, 2, 4, 8] {
                let got = run_engine(
                    topo(),
                    cfg.params,
                    cfg.schedule.clone(),
                    nodes.clone(),
                    cfg.seed,
                    cfg.loss_prob,
                    cfg.rounds,
                    threads,
                );
                assert_eq!(
                    got, want,
                    "case {case}: executor at {threads} threads diverged from the \
                     reference (n = {n}, b = {}, loss = {}, rounds = {})",
                    cfg.tag_bits, cfg.loss_prob, cfg.rounds
                );
            }
        }
    });
}

/// The same property through the blind-gossip stack used by the recorded
/// experiments: final leader agreement and metrics must match a reference
/// run exactly (guards the exact workload the CSVs depend on).
#[test]
fn reference_equivalence_holds_for_recorded_workload_shape() {
    run_cases(0xE902, 12, |_case, rng| {
        let seed = rng.gen::<u64>();
        let n = 16;
        let graph = gen::random_regular(n, 4, seed ^ 0xF00D);
        let nodes: Vec<Chatty> = (0..n as u64).map(|u| Chatty::new(u, 0, u + 100)).collect();
        let want = Reference::new(
            StaticTopology::new(graph.clone()),
            ModelParams::mobile(0),
            ActivationSchedule::synchronized(n),
            nodes.clone(),
            seed,
            0.0,
        )
        .run(80);
        for threads in [1usize, 2, 4, 8] {
            let got = run_engine(
                StaticTopology::new(graph.clone()),
                ModelParams::mobile(0),
                ActivationSchedule::synchronized(n),
                nodes.clone(),
                seed,
                0.0,
                80,
                threads,
            );
            assert_eq!(got, want, "{threads} threads diverged");
        }
    });
}
