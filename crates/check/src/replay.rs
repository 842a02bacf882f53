//! Cross-validation of checker schedules against one continuous engine run.
//!
//! Each explored transition is already a production round: an engine
//! restored to the parent state at the parent's round offset modulo the
//! spec's period, with every crashed node down from round 1. Any state the
//! explorer reaches carries a shortest adversary schedule (crashes + fully
//! resolved [`mtm_engine::RoundScript`]s). Replaying it as one run from
//! round 0, with each crash window opening at its own round, must land on
//! exactly the state the chain of restored transitions reached, word for
//! word and fingerprint for fingerprint. A mismatch means the explorer's
//! abstraction is unsound: a protocol that reads more of the round counter
//! than its period, or a crash that matters before its own round.

use mtm_engine::{ActivationSchedule, Engine};
use mtm_graph::faults::ScheduledCrashes;
use mtm_graph::{Graph, NodeId, StaticTopology};

use crate::explore::{raw_words, Exploration, RoundSchedule};
use crate::spec::CheckSpec;

/// End state of a scripted Engine replay.
pub struct ReplayOutcome {
    /// `Engine::network_fingerprint()` after the last scripted round (`None`
    /// for protocols without a state fingerprint).
    pub fingerprint: Option<u64>,
    /// Concatenated per-node raw state words after the last scripted round.
    pub words: Vec<u64>,
    /// Rounds executed.
    pub rounds: u64,
}

/// Replay `schedule` through one [`Engine`] on `graph`, from round 0.
///
/// Crashes in the schedule become permanent [`ScheduledCrashes`] outages
/// starting at their round; every round is then driven by
/// [`Engine::step_scripted`].
pub fn replay<S: CheckSpec>(spec: &S, graph: &Graph, schedule: &[RoundSchedule]) -> ReplayOutcome {
    let n = graph.node_count();
    let mut outages: Vec<(NodeId, u64, u64)> = Vec::new();
    for (i, rs) in schedule.iter().enumerate() {
        let from = u64::try_from(i).expect("round fits u64") + 1;
        for &u in &rs.crashes {
            outages.push((u, from, u64::MAX));
        }
    }
    let topology = ScheduledCrashes::new(StaticTopology::new(graph.clone()), outages);
    let mut engine = Engine::new(
        topology,
        spec.params(),
        ActivationSchedule::synchronized(n),
        spec.initial(),
        0,
    );
    for rs in schedule {
        engine.step_scripted(&rs.script);
    }
    ReplayOutcome {
        fingerprint: engine.network_fingerprint(),
        words: raw_words(engine.nodes()),
        rounds: engine.round(),
    }
}

/// Replay the shortest schedule to state `target` and compare the Engine's
/// end state against the checker's stored representative.
///
/// Returns the matching outcome, or a description of the first divergence.
pub fn replay_state<S: CheckSpec>(
    spec: &S,
    graph: &Graph,
    ex: &Exploration<S::P>,
    target: u32,
) -> Result<ReplayOutcome, String> {
    let schedule = ex.witness(target);
    let outcome = replay(spec, graph, &schedule);
    let expected = raw_words(ex.nodes_of(target));
    if outcome.words != expected {
        return Err(format!(
            "replay diverged from checker at state {target}: engine words {:?}, checker words {expected:?}",
            outcome.words
        ));
    }
    let expected_fp = mtm_engine::fingerprint::of_nodes(ex.nodes_of(target));
    if outcome.fingerprint != expected_fp {
        return Err(format!(
            "replay fingerprint mismatch at state {target}: engine {:?}, checker {expected_fp:?}",
            outcome.fingerprint
        ));
    }
    Ok(outcome)
}
