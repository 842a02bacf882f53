//! Failure-injection tests: the engine must reject protocol and topology
//! misbehaviour loudly rather than silently corrupting an execution.

use mobile_telephone::engine::protocol::PayloadCost;
use mobile_telephone::engine::Action;
use mobile_telephone::prelude::*;
use rand::rngs::SmallRng;

#[derive(Clone)]
struct Nothing;
impl PayloadCost for Nothing {
    fn uid_count(&self) -> u32 {
        0
    }
    fn extra_bits(&self) -> u32 {
        0
    }
}

/// A protocol whose behaviour is scripted per test.
struct Scripted {
    tag: Tag,
    action: fn(&Scan<'_>) -> Action,
}

impl Protocol for Scripted {
    type Payload = Nothing;
    fn advertise(&mut self, _l: u64, _r: &mut SmallRng) -> Tag {
        self.tag
    }
    fn act(&mut self, scan: &Scan<'_>, _r: &mut SmallRng) -> Action {
        (self.action)(scan)
    }
    fn payload(&self) -> Nothing {
        Nothing
    }
    fn on_connect(&mut self, _p: &Nothing, _r: &mut SmallRng) {}
}

fn scripted_engine(
    n: usize,
    tag_bits: u32,
    tag: Tag,
    action: fn(&Scan<'_>) -> Action,
) -> Engine<Scripted, StaticTopology> {
    let nodes = (0..n).map(|_| Scripted { tag, action }).collect();
    Engine::new(
        StaticTopology::new(gen::clique(n)),
        ModelParams::mobile(tag_bits),
        ActivationSchedule::synchronized(n),
        nodes,
        1,
    )
}

#[test]
#[should_panic(expected = "exceeding b")]
fn oversized_tag_rejected() {
    let mut e = scripted_engine(2, 1, Tag(2), |_| Action::Listen);
    e.step();
}

#[test]
#[should_panic(expected = "not a visible neighbor")]
fn proposal_to_non_neighbor_rejected() {
    // Node proposes to itself-adjacent id 99 which is not in the scan.
    let mut e = scripted_engine(3, 0, Tag::EMPTY, |_| Action::Propose(99));
    e.step();
}

#[test]
#[should_panic(expected = "not a visible neighbor")]
fn proposal_to_inactive_node_rejected() {
    // Node 1 is not yet active; proposing to it must panic even though it
    // is a topological neighbor.
    struct ProposeTo1;
    impl Protocol for ProposeTo1 {
        type Payload = Nothing;
        fn advertise(&mut self, _l: u64, _r: &mut SmallRng) -> Tag {
            Tag::EMPTY
        }
        fn act(&mut self, _s: &Scan<'_>, _r: &mut SmallRng) -> Action {
            Action::Propose(1)
        }
        fn payload(&self) -> Nothing {
            Nothing
        }
        fn on_connect(&mut self, _p: &Nothing, _r: &mut SmallRng) {}
    }
    let mut e = Engine::new(
        StaticTopology::new(gen::clique(3)),
        ModelParams::mobile(0),
        ActivationSchedule::explicit(vec![1, 100, 1]),
        vec![ProposeTo1, ProposeTo1, ProposeTo1],
        1,
    );
    e.step();
}

#[test]
#[should_panic(expected = "one protocol instance per topology node")]
fn node_count_mismatch_rejected() {
    let nodes: Vec<Scripted> =
        (0..2).map(|_| Scripted { tag: Tag::EMPTY, action: |_| Action::Listen }).collect();
    let _ = Engine::new(
        StaticTopology::new(gen::clique(3)),
        ModelParams::mobile(0),
        ActivationSchedule::synchronized(3),
        nodes,
        1,
    );
}

#[test]
#[should_panic(expected = "activation schedule must cover all nodes")]
fn schedule_length_mismatch_rejected() {
    let nodes: Vec<Scripted> =
        (0..3).map(|_| Scripted { tag: Tag::EMPTY, action: |_| Action::Listen }).collect();
    let _ = Engine::new(
        StaticTopology::new(gen::clique(3)),
        ModelParams::mobile(0),
        ActivationSchedule::synchronized(2),
        nodes,
        1,
    );
}

#[test]
#[should_panic(expected = "topology changed node count")]
fn topology_node_count_change_rejected() {
    struct Shrinking {
        big: Graph,
        small: Graph,
    }
    impl DynamicTopology for Shrinking {
        fn node_count(&self) -> usize {
            self.big.node_count()
        }
        fn graph_at(&mut self, round: u64) -> &Graph {
            if round == 1 {
                &self.big
            } else {
                &self.small
            }
        }
        fn may_change_at(&self, _round: u64) -> bool {
            true
        }
    }
    let topo = Shrinking { big: gen::clique(4), small: gen::clique(3) };
    let nodes: Vec<Scripted> =
        (0..4).map(|_| Scripted { tag: Tag::EMPTY, action: |_| Action::Listen }).collect();
    let mut e =
        Engine::new(topo, ModelParams::mobile(0), ActivationSchedule::synchronized(4), nodes, 1);
    e.step();
    e.step();
}

#[test]
fn corrupt_graph_json_rejected() {
    // Hand-crafted CSR with an asymmetric edge must fail validation.
    let bad = r#"{"offsets":[0,1,1],"adjacency":[1]}"#;
    let err = mobile_telephone::graph::io::from_json(bad).unwrap_err();
    assert!(err.contains("asymmetric"), "unexpected error: {err}");
    // Self loop.
    let bad = r#"{"offsets":[0,1],"adjacency":[0]}"#;
    let err = mobile_telephone::graph::io::from_json(bad).unwrap_err();
    assert!(err.contains("self loop"), "unexpected error: {err}");
    // Offset overflow.
    let bad = r#"{"offsets":[0,9],"adjacency":[0]}"#;
    assert!(mobile_telephone::graph::io::from_json(bad).is_err());
}

#[test]
fn listen_only_network_makes_no_progress_but_does_not_hang() {
    // All nodes listen forever: zero proposals, zero connections, and the
    // run-until budget is respected.
    let mut e = scripted_engine(4, 0, Tag::EMPTY, |_| Action::Listen);
    let done = e.run_until(500, |_| false);
    assert_eq!(done, None);
    assert_eq!(e.metrics().proposals, 0);
    assert_eq!(e.metrics().connections, 0);
    assert_eq!(e.round(), 500);
}

#[test]
fn everyone_proposes_means_no_connections() {
    // If every node proposes (nobody listens) all proposals are lost — the
    // model's "a node that sends cannot receive" rule.
    let mut e = scripted_engine(6, 0, Tag::EMPTY, |scan| Action::Propose(scan.neighbors[0]));
    e.run_rounds(50);
    let m = e.metrics();
    assert_eq!(m.proposals, 300);
    assert_eq!(m.connections, 0);
    assert_eq!(m.rejected_proposals, 300);
}
