//! Property tests for protocol-level invariants.
//!
//! Cases are generated deterministically by `mtm-testkit` (the offline
//! replacement for proptest).

use mtm_core::config::{ceil_log2, TagConfig};
use mtm_core::{BitConvergence, BlindGossip, IdPair, NonSyncBitConvergence, UidPool};
use mtm_engine::{
    ActivationSchedule, Engine, LeaderView, ModelParams, Protocol, RunOutcome, RunStatus, Tag,
};
use mtm_graph::{gen, StaticTopology};
use mtm_testkit::{run_cases, Rng};

#[test]
fn id_pair_ordering_is_total_and_lexicographic() {
    run_cases(0xC701, 128, |_case, rng| {
        let a = IdPair { tag: rng.gen(), uid: rng.gen() };
        let b = IdPair { tag: rng.gen(), uid: rng.gen() };
        // Lexicographic law.
        if a.tag != b.tag {
            assert_eq!(a < b, a.tag < b.tag);
        } else {
            assert_eq!(a < b, a.uid < b.uid);
        }
        // min is commutative and idempotent.
        assert_eq!(a.min(b), b.min(a));
        assert_eq!(a.min(a), a);
    });
}

#[test]
fn tag_bit_reconstructs_tag() {
    run_cases(0xC702, 128, |_case, rng| {
        let tag = rng.gen_range(0..1u64 << 16);
        let k = rng.gen_range(16..20u32);
        let p = IdPair { tag, uid: 0 };
        let mut rebuilt = 0u64;
        for i in 0..k {
            rebuilt = (rebuilt << 1) | p.tag_bit(i, k) as u64;
        }
        assert_eq!(rebuilt, tag, "MSB-first bits must reconstruct the tag");
    });
}

#[test]
fn ceil_log2_is_inverse_of_pow2() {
    run_cases(0xC703, 128, |_case, rng| {
        let x = rng.gen_range(1..100_000usize);
        let k = ceil_log2(x);
        assert!(1usize << k >= x);
        if k > 0 {
            assert!(1usize << (k - 1) < x);
        }
    });
}

#[test]
fn tag_config_round_partition_is_consistent() {
    run_cases(0xC704, 128, |_case, rng| {
        let c = TagConfig { k: rng.gen_range(1..40u32), group_len: rng.gen_range(2..20u64) };
        let round = rng.gen_range(1..10_000u64);
        let group = c.group_of_round(round);
        assert!(group < c.k, "group index out of range");
        // Phase starts are also group starts.
        if c.is_phase_start(round) {
            assert!(c.is_group_start(round));
            assert_eq!(c.group_of_round(round), 0);
        }
        // Within a group the index is constant.
        if !c.is_group_start(round + 1) {
            assert_eq!(c.group_of_round(round + 1), group);
        }
    });
}

/// `TagConfig::locate` (phase start and group by reciprocal
/// multiplication) equals `is_phase_start` and `group_of_round` for every
/// `k` the constructor makes and group lengths on both sides of its
/// reciprocal table (up to 127), at phase and group boundaries, at random
/// rounds, and around `round − 1 = 2^32`, where it falls back to division.
#[test]
fn tag_config_locate_matches_the_dividing_methods() {
    run_cases(0xC709, 512, |_case, rng| {
        let c = TagConfig { k: rng.gen_range(1..=63), group_len: rng.gen_range(2..=130) };
        let (phase, g) = (c.phase_len(), c.group_len);
        let top = (1u64 << 32) / phase;
        let mut phases = vec![0, 1, top - 1, top, top + 1];
        phases.extend((0..4).map(|_| rng.gen_range(0..=top + 1)));
        let mut rounds = vec![1, 2, u64::MAX];
        for m in phases {
            // The last round of phase m - 1, the first three of phase m,
            // and both sides of its first group boundary.
            for offset in [0, 1, 2, 3, g, g + 1, g + 2] {
                rounds.push(m * phase + offset);
            }
        }
        rounds.extend((1 << 32) - 2..=(1 << 32) + 3);
        rounds.extend((0..8).map(|_| rng.gen_range(1..=1u64 << 32)));
        rounds.extend((0..8).map(|_| rng.gen_range(1..=u64::MAX)));
        for round in rounds.into_iter().filter(|&r| r >= 1) {
            let expect = (c.is_phase_start(round), c.group_of_round(round));
            assert_eq!(c.locate(round), expect, "{c:?} round {round}");
        }
    });
}

#[test]
fn uid_pool_always_distinct() {
    run_cases(0xC705, 64, |_case, rng| {
        let n = rng.gen_range(1..200usize);
        let pool = UidPool::random(n, rng.gen());
        let mut v = pool.as_slice().to_vec();
        v.sort_unstable();
        v.dedup();
        assert_eq!(v.len(), n);
        assert_eq!(pool.uid(pool.min_uid_node()), pool.min_uid());
    });
}

#[test]
fn bit_convergence_advertises_bits_of_active_tag() {
    run_cases(0xC706, 64, |_case, rng| {
        let tag = rng.gen_range(0..1u64 << 12);
        let config = TagConfig { k: 12, group_len: 3 };
        let mut node = BitConvergence::new(1, tag, config);
        let mut stream = mtm_graph::rng::stream_rng(rng.gen(), 0);
        // Over one full phase, the advertised bit sequence must spell the
        // tag MSB-first, each bit repeated group_len times.
        let mut bits = Vec::new();
        for r in 1..=config.phase_len() {
            let t = node.advertise(r, &mut stream);
            assert!(t == Tag(0) || t == Tag(1));
            bits.push(t.0 as u64);
        }
        for (i, chunk) in bits.chunks(config.group_len as usize).enumerate() {
            let expect = (tag >> (config.k - 1 - i as u32)) & 1;
            assert!(
                chunk.iter().all(|&b| b == expect),
                "group {i} advertised {chunk:?}, tag bit is {expect}"
            );
        }
    });
}

#[test]
fn nonsync_tag_always_fits_budget() {
    run_cases(0xC707, 64, |_case, rng| {
        let tag = rng.gen_range(0..1u64 << 10);
        let rounds = rng.gen_range(1..100u64);
        let config = TagConfig { k: 10, group_len: 4 };
        let b = config.nonsync_tag_bits();
        let mut node = NonSyncBitConvergence::new(1, tag, config);
        let mut stream = mtm_graph::rng::stream_rng(rng.gen(), 1);
        for r in 1..=rounds {
            let t = node.advertise(r, &mut stream);
            assert!(t.fits(b), "tag {t:?} exceeds b = {b}");
            let (pos, bit) = NonSyncBitConvergence::decode(t);
            assert!(pos < config.k);
            assert!(bit <= 1);
        }
    });
}

#[test]
fn pending_pair_is_min_of_received() {
    run_cases(0xC708, 64, |_case, rng| {
        let tags: Vec<u64> =
            (0..rng.gen_range(1..20usize)).map(|_| rng.gen_range(0..1u64 << 10)).collect();
        let config = TagConfig { k: 10, group_len: 2 };
        let mut node = BitConvergence::new(999, (1 << 10) - 1, config);
        let mut stream = mtm_graph::rng::stream_rng(rng.gen(), 2);
        let mut expect = node.pending_pair();
        for (i, &t) in tags.iter().enumerate() {
            let pair = IdPair { tag: t, uid: i as u64 };
            node.on_connect(&pair, &mut stream);
            expect = expect.min(pair);
        }
        assert_eq!(node.pending_pair(), expect);
    });
}

/// Run `nodes` on `graph` under `schedule` one round at a time, returning
/// the run-to-stabilization outcome after every round (its metrics
/// included) and the final node states, printed.
fn outcome_per_round<P: Protocol + LeaderView + std::fmt::Debug>(
    graph: &mtm_graph::Graph,
    params: ModelParams,
    schedule: ActivationSchedule,
    nodes: Vec<P>,
    (seed, threads, stuck_window): (u64, usize, Option<u64>),
) -> (Vec<RunOutcome>, String) {
    let mut e = Engine::new(StaticTopology::new(graph.clone()), params, schedule, nodes, seed);
    e.set_threads(threads);
    if let Some(window) = stuck_window {
        e.enable_stuck_detection(window);
    }
    let mut outcomes = Vec::new();
    loop {
        let out = e.run_to_stabilization(e.round() + 1);
        let done = out.status != RunStatus::TimedOut || e.round() >= 3_000;
        outcomes.push(out);
        if done {
            return (outcomes, format!("{:?}", e.nodes()));
        }
    }
}

/// A synchronized schedule stores no activation vector, and the engine
/// then keeps no active set; `explicit(vec![1; n])` stores the vector.
/// Both name the same schedule, and blind gossip and bit convergence run
/// identically under them: the same outcome after every round, the same
/// per-round metrics and the same final node states, with stuck detection
/// on and off, at one and two threads.
#[test]
fn synchronized_schedule_runs_like_its_explicit_form() {
    run_cases(0xC70A, 24, |case, rng| {
        let n = rng.gen_range(5..=120usize);
        let graph = gen::random_regular(n, 4, rng.gen());
        let uids = UidPool::random(n, rng.gen());
        let config = TagConfig::for_network(n, graph.max_degree());
        let tag_seed = rng.gen();
        let run = (
            rng.gen(),
            1 + usize::from(case % 2 == 1),
            (case % 4 >= 2).then(|| rng.gen_range(1..=40u64)),
        );
        let forms =
            || [ActivationSchedule::synchronized(n), ActivationSchedule::explicit(vec![1; n])];
        assert_eq!(forms()[0], forms()[1]);
        let blind = forms().map(|schedule| {
            let nodes = BlindGossip::spawn(&uids);
            outcome_per_round(&graph, ModelParams::mobile(0), schedule, nodes, run)
        });
        assert_eq!(blind[0], blind[1], "blind gossip, case {case}: n = {n}, {run:?}");
        let bitconv = forms().map(|schedule| {
            let nodes = BitConvergence::spawn(&uids, config, tag_seed);
            outcome_per_round(&graph, ModelParams::mobile(1), schedule, nodes, run)
        });
        assert_eq!(bitconv[0], bitconv[1], "bit convergence, case {case}: n = {n}, {run:?}");
        assert!(bitconv[0].0.len() > 1, "case {case}: the run must take rounds");
    });
}
