//! Event-backend determinism and correctness with the *real* protocol
//! stack (the unit tests in `crates/engine/src/event.rs` use a local toy
//! protocol; these pin the paper's algorithms).
//!
//! The determinism contract (DESIGN.md): every latency draw is a pure
//! counter-based function of the seed, ties resolve by `(time, node id,
//! scheduling order)`, so the full event trace — not just the outcome — is
//! a function of `(graph, params, protocols, seed, latency model)`.

use mobile_telephone::engine::EventKind;
use mobile_telephone::graph::rng::derive_seed;
use mobile_telephone::prelude::*;

fn election_engine(n: usize, seed: u64, spread: u64) -> EventEngine<BlindGossip> {
    let g = GraphFamily::Expander8.build(n, derive_seed(seed, 0));
    let uids = UidPool::random(g.node_count(), derive_seed(seed, 1));
    EventEngine::new(
        g,
        ModelParams::mobile(0),
        BlindGossip::spawn(&uids),
        derive_seed(seed, 11),
        LatencyModel::multipeer(spread),
    )
}

#[test]
fn blind_gossip_elects_min_uid_without_a_round_clock() {
    let g = GraphFamily::Expander8.build(64, derive_seed(3, 0));
    let uids = UidPool::random(g.node_count(), derive_seed(3, 1));
    let mut e = EventEngine::new(
        g,
        ModelParams::mobile(0),
        BlindGossip::spawn(&uids),
        derive_seed(3, 11),
        LatencyModel::multipeer(8),
    );
    let out = e.run_to_stabilization(10_000_000);
    assert_eq!(out.winner, Some(uids.min_uid()), "asynchrony must not change the winner");
    assert!(out.completed_at.is_some());
}

#[test]
fn same_seed_same_trace_across_protocols() {
    // Elections.
    let (mut a, mut b) = (election_engine(64, 5, 16), election_engine(64, 5, 16));
    a.enable_event_trace();
    b.enable_event_trace();
    let (ra, rb) = (a.run_to_stabilization(10_000_000), b.run_to_stabilization(10_000_000));
    assert_eq!(ra.completed_at, rb.completed_at);
    assert_eq!(ra.winner, rb.winner);
    assert_eq!(a.event_trace(), b.event_trace(), "election event traces must replay");
    assert!(!a.event_trace().is_empty());

    // Rumor spreading.
    let mk = || {
        let g = GraphFamily::Expander8.build(64, derive_seed(5, 0));
        let n = g.node_count();
        EventEngine::new(
            g,
            ModelParams::mobile(0),
            PushPull::spawn(n, 1),
            derive_seed(5, 11),
            LatencyModel::multipeer(16),
        )
    };
    let (mut c, mut d) = (mk(), mk());
    c.enable_event_trace();
    d.enable_event_trace();
    let (rc, rd) = (c.run_to_full_information(10_000_000), d.run_to_full_information(10_000_000));
    assert_eq!(rc.completed_at, rd.completed_at);
    assert_eq!(c.event_trace(), d.event_trace(), "rumor event traces must replay");
}

#[test]
fn latency_spread_changes_timing_but_not_the_winner() {
    let tight = election_engine(64, 9, 0).run_to_stabilization(10_000_000);
    let loose = election_engine(64, 9, 64).run_to_stabilization(10_000_000);
    assert!(tight.completed_at.is_some() && loose.completed_at.is_some());
    assert_eq!(tight.winner, loose.winner, "latency is a schedule, not an adversary on safety");
    assert_ne!(
        tight.completed_at, loose.completed_at,
        "spread 0 vs 64 should not land on the same tick"
    );
}

/// Bit convergence (b = 1) on `expander8` at spread 8, with its UID pool.
fn bitconv_engine(n: usize, seed: u64) -> (EventEngine<BitConvergence>, UidPool) {
    let g = GraphFamily::Expander8.build(n, derive_seed(seed, 0));
    let n = g.node_count();
    let uids = UidPool::random(n, derive_seed(seed, 1));
    let config = TagConfig::for_network(n, g.max_degree());
    let e = EventEngine::new(
        g,
        ModelParams::mobile(1),
        BitConvergence::spawn(&uids, config, derive_seed(seed, 7)),
        derive_seed(seed, 11),
        LatencyModel::multipeer(8),
    );
    (e, uids)
}

#[test]
fn bit_convergence_stabilizes_under_the_event_backend() {
    // b = 1 exercises tag advertisement through the async scan path. Note
    // what is *not* asserted: the synchronized variant's min-UID guarantee
    // rests on the global round clock aligning everyone's bit groups — the
    // very assumption the event backend removes (and the motivation for
    // the paper's non-synchronized variant). Under drifting local rounds
    // the network still converges to *a* single leader; which one depends
    // on how the groups happened to interleave.
    let (mut e, uids) = bitconv_engine(32, 2);
    let out = e.run_to_stabilization(50_000_000);
    assert!(out.completed_at.is_some(), "bit convergence must still reach agreement");
    assert!(out.winner.is_some(), "stabilization means a single agreed leader");
    assert!(uids.as_slice().contains(&out.winner.expect("checked above")));
}

/// FNV-1a over the recorded trace, each `EventRecord` as its time, node
/// and kind, then the final `Metrics` and `events_processed()`, every
/// field little-endian.
fn trace_hash<P: Protocol>(e: &EventEngine<P>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in e.event_trace() {
        let kind: u8 = match r.kind {
            EventKind::RoundStart => 0,
            EventKind::Act => 1,
            EventKind::Proposal => 2,
            EventKind::ListenEnd => 3,
            EventKind::Response => 4,
        };
        feed(&r.time.to_le_bytes());
        feed(&r.node.to_le_bytes());
        feed(&[kind]);
    }
    let m = e.metrics();
    for x in [
        m.rounds,
        m.proposals,
        m.connections,
        m.rejected_proposals,
        m.dropped_proposals,
        e.events_processed(),
    ] {
        feed(&x.to_le_bytes());
    }
    h
}

/// The budget that cuts a blind-gossip run short: every run stabilizes
/// later than this tick.
const CUT_AT: u64 = 300;

/// Blind gossip on `expander8` with `n` nodes at seed 1, traced, run to
/// stabilization within `max_time` ticks.
fn blind_hash(n: usize, spread: u64, loss: f64, max_time: u64) -> u64 {
    let mut e = election_engine(n, 1, spread);
    e.set_proposal_loss(loss);
    e.enable_event_trace();
    let done = e.run_to_stabilization(max_time).completed_at;
    assert_eq!(done.is_some(), max_time > CUT_AT, "n {n}, spread {spread}, loss {loss}: {done:?}");
    trace_hash(&e)
}

fn bitconv_hash() -> u64 {
    let (mut e, _) = bitconv_engine(256, 1);
    e.enable_event_trace();
    assert!(e.run_to_stabilization(50_000_000).completed_at.is_some());
    trace_hash(&e)
}

/// A rumor protocol with `tag_bits` of advertisement, one source, run to
/// full information.
fn rumor_hash<P: Protocol + RumorView>(tag_bits: u32, spawn: fn(usize, usize) -> Vec<P>) -> u64 {
    let g = GraphFamily::Expander8.build(256, derive_seed(1, 0));
    let n = g.node_count();
    let mut e = EventEngine::new(
        g,
        ModelParams::mobile(tag_bits),
        spawn(n, 1),
        derive_seed(1, 11),
        LatencyModel::multipeer(8),
    );
    e.enable_event_trace();
    assert!(e.run_to_full_information(10_000_000).completed_at.is_some());
    trace_hash(&e)
}

/// A pinned run: its name, the run (returning its trace hash) and the hash
/// recorded for it.
type Pin = (&'static str, fn() -> u64, u64);

#[test]
fn event_traces_match_recorded_hashes() {
    // The first eight were recorded from a binary-heap event queue, the
    // last three from a tick calendar that kept every tick in one ordered
    // map, so a change to the pop order `(time, node id, scheduling
    // order)` fails here even when two runs of one build still agree.
    // Spread 0 makes many same-tick ties; loss covers the drop path; the
    // cut case ends on the time budget, not the predicate. At n = 256 only
    // a few spread-0 ticks reach the radix sort's 128 events; at n = 2048
    // over 99 % of ticks do. At spread 1000 about 90 % of delays reach
    // past the calendar's 64-tick ring.
    let cases: [Pin; 11] = [
        ("blind spread 0", || blind_hash(256, 0, 0.0, 10_000_000), 0x7eb0_dbc4_36b0_acb2),
        ("blind spread 8", || blind_hash(256, 8, 0.0, 10_000_000), 0xcf1e_e6c7_31a0_e062),
        ("blind spread 64", || blind_hash(256, 64, 0.0, 10_000_000), 0x9371_642a_1765_6650),
        ("blind spread 8 loss 0.3", || blind_hash(256, 8, 0.3, 10_000_000), 0x06d4_f27e_351c_a630),
        ("bit convergence b = 1", bitconv_hash, 0x6f47_812f_1937_2391),
        ("push-pull", || rumor_hash(0, PushPull::spawn), 0x1c23_f39b_9e3f_0e4b),
        ("ppush", || rumor_hash(1, Ppush::spawn), 0x010f_b493_934c_7c3c),
        (
            "blind spread 8 cut at tick 300",
            || blind_hash(256, 8, 0.0, CUT_AT),
            0x0f5e_168d_803e_f9e2,
        ),
        ("blind n 2048 spread 0", || blind_hash(2048, 0, 0.0, 10_000_000), 0x4573_e61e_de9a_a006),
        ("blind n 2048 spread 8", || blind_hash(2048, 8, 0.0, 10_000_000), 0x71d1_c6fd_9c67_e12c),
        ("blind spread 1000", || blind_hash(256, 1000, 0.0, 10_000_000), 0x3e12_d013_556a_9534),
    ];
    let moved: Vec<String> = cases
        .iter()
        .filter_map(|&(name, run, want)| {
            let got = run();
            (got != want).then(|| format!("{name}: {got:#018x}"))
        })
        .collect();
    assert!(moved.is_empty(), "event traces moved: {moved:#?}");
}
