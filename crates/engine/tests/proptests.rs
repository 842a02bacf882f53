//! Property tests for the round executor and its supporting types.
//!
//! Cases are generated deterministically by `mtm-testkit` (the offline
//! replacement for proptest).

use mtm_engine::audit::Auditor;
use mtm_engine::runner::run_trials;
use mtm_engine::{
    ActRule, Action, ActivationSchedule, Engine, Metrics, ModelParams, PayloadCost, Protocol, Scan,
    Tag,
};
use mtm_graph::{gen, DynamicTopology, StaticTopology};
use mtm_testkit::{run_cases, Rng, SeedableRng, SliceRandom, SmallRng};

/// A minimal min-spreading protocol used to exercise engine mechanics.
#[derive(Clone)]
struct Spread {
    best: u64,
    advertised: bool,
}

impl Spread {
    fn new(best: u64) -> Self {
        Spread { best, advertised: false }
    }
}

/// Step `e` for `rounds` rounds and return its counters after each one.
fn metrics_per_round<P: Protocol, T: DynamicTopology>(
    e: &mut Engine<P, T>,
    rounds: u64,
) -> Vec<Metrics> {
    (0..rounds)
        .map(|_| {
            e.step();
            e.metrics()
        })
        .collect()
}

#[derive(Clone)]
struct Val(u64);
impl PayloadCost for Val {
    fn uid_count(&self) -> u32 {
        1
    }
    fn extra_bits(&self) -> u32 {
        0
    }
}

impl Protocol for Spread {
    type Payload = Val;
    fn advertise(&mut self, _l: u64, _r: &mut SmallRng) -> Tag {
        self.advertised = true;
        Tag::EMPTY
    }
    fn act(&mut self, scan: &Scan<'_>, rng: &mut SmallRng) -> Action {
        if scan.is_empty() || !rng.gen_bool(0.5) {
            return Action::Listen;
        }
        Action::Propose(scan.neighbors[rng.gen_range(0..scan.len())])
    }
    fn payload(&self) -> Val {
        Val(self.best)
    }
    fn on_connect(&mut self, peer: &Val, _r: &mut SmallRng) {
        // Inactive nodes never advertise, so no node may connect before
        // its activation round.
        assert!(self.advertised, "connection before activation");
        self.best = self.best.min(peer.0);
    }
}

#[test]
fn engine_deterministic_for_any_seed() {
    run_cases(0xE701, 24, |_case, rng| {
        let seed = rng.gen::<u64>();
        let run = |seed: u64| {
            let n = 12;
            let nodes: Vec<Spread> = (0..n as u64).map(|u| Spread::new(u + 7)).collect();
            let mut e = Engine::new(
                StaticTopology::new(gen::random_regular(n, 3, 5)),
                ModelParams::mobile(0),
                ActivationSchedule::synchronized(n),
                nodes,
                seed,
            );
            e.run_rounds(150);
            (e.metrics(), e.nodes().iter().map(|p| p.best).collect::<Vec<_>>())
        };
        assert_eq!(run(seed), run(seed));
    });
}

/// The sharded executor is the sequential executor: for any random
/// (topology, activation, loss, seed) configuration, every thread count
/// yields the same counters after every round and the same final protocol
/// state.
#[test]
fn sharded_executor_matches_sequential_for_any_config() {
    run_cases(0x5AAD, 16, |_case, rng| {
        let seed = rng.gen::<u64>();
        let n = 2 * rng.gen_range(5..20usize);
        let degree = rng.gen_range(2..5usize);
        let graph = gen::random_regular(n, degree, rng.gen::<u64>());
        let loss = if rng.gen_bool(0.5) { rng.gen_range(0.05..0.4) } else { 0.0 };
        let sched = if rng.gen_bool(0.5) {
            ActivationSchedule::synchronized(n)
        } else {
            ActivationSchedule::explicit((0..n).map(|_| rng.gen_range(1..20u64)).collect())
        };
        let run = |threads: usize| {
            let nodes: Vec<Spread> = (0..n as u64).map(|u| Spread::new(u + 3)).collect();
            let mut e = Engine::new(
                StaticTopology::new(graph.clone()),
                ModelParams::mobile(0),
                sched.clone(),
                nodes,
                seed,
            );
            e.set_threads(threads);
            if loss > 0.0 {
                e.set_proposal_loss(loss);
            }
            let per_round = metrics_per_round(&mut e, 60);
            (per_round, e.nodes().iter().map(|p| p.best).collect::<Vec<_>>())
        };
        let sequential = run(1);
        for threads in [2usize, 4, 8] {
            assert_eq!(run(threads), sequential, "threads={threads} diverged from sequential");
        }
    });
}

#[test]
fn conservation_under_arbitrary_activation() {
    run_cases(0xE702, 24, |_case, rng| {
        let seed = rng.gen::<u64>();
        let activations: Vec<u64> = (0..10).map(|_| rng.gen_range(1..60u64)).collect();
        let n = activations.len();
        let nodes: Vec<Spread> = (0..n as u64).map(Spread::new).collect();
        // `Spread::on_connect` fails any connection before activation.
        let mut e = Engine::new(
            StaticTopology::new(gen::clique(n)),
            ModelParams::mobile(0),
            ActivationSchedule::explicit(activations),
            nodes,
            seed,
        );
        let mut actives = Vec::new();
        for _ in 0..80 {
            e.step();
            actives.push((0..n).filter(|&u| e.is_active(u)).count());
        }
        let m = e.metrics();
        assert_eq!(m.proposals, m.connections + m.rejected_proposals);
        // Active counts are non-decreasing (activations only).
        assert!(actives.windows(2).all(|w| w[0] <= w[1]));
    });
}

#[test]
fn min_never_lost_nor_invented() {
    run_cases(0xE703, 24, |_case, rng| {
        let seed = rng.gen::<u64>();
        let n = 10;
        let nodes: Vec<Spread> = (0..n as u64).map(|u| Spread::new(u * 13 + 3)).collect();
        let initial_min = 3u64;
        let mut e = Engine::new(
            StaticTopology::new(gen::cycle(n)),
            ModelParams::mobile(0),
            ActivationSchedule::synchronized(n),
            nodes,
            seed,
        );
        for _ in 0..200 {
            e.step();
            let values: Vec<u64> = e.nodes().iter().map(|p| p.best).collect();
            assert_eq!(
                *values.iter().min().expect("n > 0"),
                initial_min,
                "global min must be preserved"
            );
            for &v in &values {
                assert_eq!((v - 3) % 13, 0, "invented value {v}");
            }
        }
    });
}

#[test]
fn trial_runner_order_and_determinism() {
    run_cases(0xE704, 24, |_case, rng| {
        let trials = rng.gen_range(0..24usize);
        let threads = rng.gen_range(1..5usize);
        let base_seed = rng.gen::<u64>();
        let f = |t: usize, seed: u64| (t, seed.wrapping_mul(3));
        let a = run_trials(trials, base_seed, threads, f);
        let b = run_trials(trials, base_seed, 1, f);
        assert_eq!(a.len(), trials);
        assert_eq!(a, b, "results must not depend on thread count");
    });
}

#[test]
fn activation_schedule_local_rounds_consistent() {
    run_cases(0xE705, 24, |_case, rng| {
        let rounds: Vec<u64> =
            (0..rng.gen_range(1..20usize)).map(|_| rng.gen_range(1..50u64)).collect();
        let probe = rng.gen_range(50..100u64);
        let sched = ActivationSchedule::explicit(rounds.clone());
        for (u, &act) in rounds.iter().enumerate() {
            assert!(sched.is_active(u, probe));
            assert_eq!(sched.local_round(u, probe), probe - act + 1);
            assert!(!sched.is_active(u, act - 1) || act == 1);
        }
        assert_eq!(sched.last_activation(), *rounds.iter().max().expect("nonempty"));
    });
}

/// Same-seed executions must produce identical counters after every round
/// across topologies — the determinism contract the audit subsystem checks
/// (see `mtm_engine::audit`); here it is exercised for the raw engine
/// across several graph families and both connection policies.
#[test]
fn same_seed_traces_identical_across_topologies() {
    let topologies: &[fn(usize) -> mtm_graph::Graph] =
        &[gen::clique, gen::cycle, gen::path, gen::star];
    run_cases(0xE706, 16, |case, rng| {
        let seed = rng.gen::<u64>();
        let build = |params: ModelParams, seed: u64| {
            let n = 9;
            let g = topologies[case as usize % topologies.len()](n);
            let nodes: Vec<Spread> = (0..n as u64).map(|u| Spread::new(u + 1)).collect();
            let mut e = Engine::new(
                StaticTopology::new(g),
                params,
                ActivationSchedule::synchronized(n),
                nodes,
                seed,
            );
            metrics_per_round(&mut e, 120)
        };
        for params in [ModelParams::mobile(0), ModelParams::classical()] {
            assert_eq!(
                build(params, seed),
                build(params, seed),
                "per-round metrics must be a pure function of (seed, config)"
            );
        }
    });
}

/// Longhand reference for `ActRule::draw`: the coin flip and the
/// productive push with the stream use every recorded output depends on.
fn reference_draw(rule: ActRule, scan: &Scan<'_>, rng: &mut SmallRng) -> Action {
    match rule {
        ActRule::Listen => Action::Listen,
        ActRule::CoinFlip => {
            if scan.is_empty() || !rng.gen_bool(0.5) {
                return Action::Listen;
            }
            let i = rng.gen_range(0..scan.len());
            Action::Propose(scan.neighbors[i])
        }
        ActRule::PushTo(tag) => {
            let eligible = (0..scan.len()).filter(|&i| scan.tag_of(i) == tag).count();
            if eligible == 0 {
                return Action::Listen;
            }
            let pick = rng.gen_range(0..u32::try_from(eligible).expect("small scan"));
            let mut seen = 0u32;
            for i in 0..scan.len() {
                if scan.tag_of(i) == tag {
                    if seen == pick {
                        return Action::Propose(scan.neighbors[i]);
                    }
                    seen += 1;
                }
            }
            unreachable!("pick is below the eligible count")
        }
    }
}

/// On random scans (0–12 visible neighbors in half the cases, 13–130 in
/// the rest, so on both sides of a 64-bit word; tags of b = 0, 1 or 2
/// bits), every action `ActRule::draw` returns is one `ActRule::actions`
/// enumerates, the enumeration has its documented shape, and the draw
/// matches `reference_draw` in value and in stream use.
#[test]
fn act_rule_draws_lie_in_its_enumeration() {
    run_cases(0xE708, 512, |_case, rng| {
        let len =
            if rng.gen_bool(0.5) { rng.gen_range(0..=12usize) } else { rng.gen_range(13..=130) };
        let b = rng.gen_range(0..=2u32);
        let mut neighbors: Vec<u32> = (0..256).collect();
        neighbors.shuffle(rng);
        neighbors.truncate(len);
        neighbors.sort_unstable();
        let tags: Vec<Tag> = if b == 0 {
            Vec::new()
        } else {
            (0..len).map(|_| Tag(rng.gen_range(0..1 << b))).collect()
        };
        let scan = Scan { neighbors: &neighbors, tags: &tags, round: 1, local_round: 1 };
        let target = Tag(rng.gen_range(0..1 << b));
        for rule in [ActRule::Listen, ActRule::CoinFlip, ActRule::PushTo(target)] {
            let actions = rule.actions(&scan);
            match rule {
                ActRule::Listen => assert_eq!(actions, [Action::Listen]),
                ActRule::CoinFlip => {
                    let proposals: Vec<Action> =
                        neighbors.iter().map(|&v| Action::Propose(v)).collect();
                    assert_eq!(actions[0], Action::Listen);
                    assert_eq!(actions[1..], proposals[..]);
                }
                ActRule::PushTo(tag) => {
                    let eligible: Vec<Action> = (0..len)
                        .filter(|&i| scan.tag_of(i) == tag)
                        .map(|i| Action::Propose(neighbors[i]))
                        .collect();
                    if eligible.is_empty() {
                        assert_eq!(actions, [Action::Listen]);
                    } else {
                        assert_eq!(actions, eligible);
                    }
                }
            }
            for _ in 0..16 {
                let seed = rng.gen::<u64>();
                let mut drawn = SmallRng::seed_from_u64(seed);
                let mut reference = SmallRng::seed_from_u64(seed);
                let action = rule.draw(&scan, &mut drawn);
                assert!(actions.contains(&action), "{rule:?} drew {action:?}, not in {actions:?}");
                assert_eq!(action, reference_draw(rule, &scan, &mut reference), "{rule:?}");
                assert_eq!(drawn.gen::<u64>(), reference.gen::<u64>(), "{rule:?} stream use");
            }
        }
    });
}

/// Sort-based reference for the matching audit: the pairs form a matching
/// iff no node is an endpoint twice (a self pair `(u, u)` counts twice).
fn reference_is_matching(pairs: &[(u32, u32)]) -> bool {
    let mut ends: Vec<u32> = pairs.iter().flat_map(|&(u, v)| [u, v]).collect();
    ends.sort_unstable();
    ends.windows(2).all(|w| w[0] != w[1])
}

/// Run `Auditor::check_matching` on `pairs`: `None` if it passes, else the
/// text of its panic.
fn audit_matching(auditor: &mut Auditor, round: u64, pairs: &[(u32, u32)]) -> Option<String> {
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        auditor.check_matching(round, pairs);
    }));
    outcome.err().map(|payload| match payload.downcast::<String>() {
        Ok(text) => *text,
        Err(_) => String::from("non-string panic"),
    })
}

/// The linear matching audit against a sorting reference, on random
/// matchings of up to 2^12 nodes with one injected fault each: a proposer
/// used twice, a receiver used twice, a node that proposes in one pair and
/// receives in another, and a self pair. Each valid matching is audited
/// twice in a row, and once more after the fault, so marks left behind by
/// a passing or a failing audit fail the next one.
#[test]
fn matching_audit_agrees_with_a_sorting_reference() {
    run_cases(0xA0D1, 256, |case, rng| {
        let n = rng.gen_range(4..=1u32 << 12);
        let mut ids: Vec<u32> = (0..n).collect();
        ids.shuffle(rng);
        // Keep two nodes out of the matching for the injected pair.
        let pairs_max = (n as usize - 2) / 2;
        let count = rng.gen_range(1..=pairs_max);
        let matching: Vec<(u32, u32)> =
            ids.chunks_exact(2).take(count).map(|w| (w[0], w[1])).collect();
        let spare = ids[2 * count];
        let mut auditor = Auditor::default();
        assert!(reference_is_matching(&matching));
        assert_eq!(audit_matching(&mut auditor, 1, &matching), None, "a matching must pass");
        assert_eq!(audit_matching(&mut auditor, 2, &matching), None, "marks must be cleared");

        let (u, v) = matching[rng.gen_range(0..count)];
        let (extra, reused) = match case % 4 {
            0 => ((u, spare), u),
            1 => ((spare, v), v),
            2 if rng.gen_bool(0.5) => ((spare, u), u),
            2 => ((v, spare), v),
            _ => {
                let w = if rng.gen_bool(0.5) { spare } else { u };
                ((w, w), w)
            }
        };
        let mut faulty = matching.clone();
        faulty.insert(rng.gen_range(0..=count), extra);
        assert!(!reference_is_matching(&faulty));
        let text = audit_matching(&mut auditor, 3, &faulty)
            .unwrap_or_else(|| panic!("fault {extra:?} (case kind {}) passed", case % 4));
        assert!(
            text.contains(&format!("node {reused} participates in two accepted connections")),
            "{text}"
        );
        assert_eq!(audit_matching(&mut auditor, 4, &matching), None, "marks cleared on failure");

        // Unstructured pair lists over few nodes: about half repeat a node.
        let small = rng.gen_range(1..=64u32);
        let len = rng.gen_range(0..=(small as usize / 3).max(1));
        let pairs: Vec<(u32, u32)> =
            (0..len).map(|_| (rng.gen_range(0..small), rng.gen_range(0..small))).collect();
        let passed = audit_matching(&mut auditor, 5, &pairs).is_none();
        assert_eq!(passed, reference_is_matching(&pairs), "{pairs:?}");
        assert_eq!(audit_matching(&mut auditor, 6, &matching), None);
    });
}
