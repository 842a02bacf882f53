//! Shared measurement machinery: topology specifications, per-algorithm
//! trial runners, and summary helpers.

use mtm_analysis::stats::Summary;
use mtm_core::{
    BitConvergence, BlindGossip, NonSyncBitConvergence, Rumor, Strategy, TagConfig, UidPool,
};
use mtm_engine::runner::run_trials;
use mtm_engine::{ActivationSchedule, Engine, ModelParams};
use mtm_graph::dynamic::{BoxedTopology, LineOfStarsShuffle, RelabelingAdversary, StaticTopology};
use mtm_graph::rng::derive_seed;
use mtm_graph::{Graph, GraphFamily};

/// How a trial's topology is generated.
#[derive(Clone, Debug)]
pub enum TopoSpec {
    /// A static instance of a family (`τ = ∞`).
    Static { family: GraphFamily, n: usize },
    /// A family instance scrambled by the relabeling adversary every `τ`
    /// rounds (structure-preserving worst-case churn).
    Relabeled { family: GraphFamily, n: usize, tau: u64 },
    /// The §VI line-of-stars with leaves re-dealt every `τ` rounds.
    StarShuffle { spine: usize, points: usize, tau: u64 },
}

impl TopoSpec {
    /// Build the trial topology for a given seed.
    pub fn build(&self, seed: u64) -> BoxedTopology {
        match *self {
            TopoSpec::Static { family, n } => {
                Box::new(StaticTopology::new(family.build(n, derive_seed(seed, 0))))
            }
            TopoSpec::Relabeled { family, n, tau } => Box::new(RelabelingAdversary::new(
                family.build(n, derive_seed(seed, 0)),
                tau,
                derive_seed(seed, 1),
            )),
            TopoSpec::StarShuffle { spine, points, tau } => {
                Box::new(LineOfStarsShuffle::new(spine, points, tau, derive_seed(seed, 1)))
            }
        }
    }

    /// A representative static graph (for `n`, `Δ` and analytic `α`).
    pub fn sample_graph(&self, seed: u64) -> Graph {
        match *self {
            TopoSpec::Static { family, n } | TopoSpec::Relabeled { family, n, .. } => {
                family.build(n, derive_seed(seed, 0))
            }
            TopoSpec::StarShuffle { spine, points, .. } => {
                mtm_graph::gen::line_of_stars(spine, points)
            }
        }
    }

    /// Analytic `α` where the family provides one.
    pub fn known_alpha(&self, n_actual: usize) -> Option<f64> {
        match *self {
            TopoSpec::Static { family, .. } | TopoSpec::Relabeled { family, .. } => {
                family.known_alpha(n_actual)
            }
            TopoSpec::StarShuffle { .. } => GraphFamily::LineOfStars.known_alpha(n_actual),
        }
    }

    /// Stability factor of the spec (`None` = static).
    pub fn tau(&self) -> Option<u64> {
        match *self {
            TopoSpec::Static { .. } => None,
            TopoSpec::Relabeled { tau, .. } | TopoSpec::StarShuffle { tau, .. } => Some(tau),
        }
    }

    /// Human-readable label for table rows.
    pub fn label(&self) -> String {
        match *self {
            TopoSpec::Static { family, .. } => family.name().to_string(),
            TopoSpec::Relabeled { family, tau, .. } => format!("{}/τ={tau}", family.name()),
            TopoSpec::StarShuffle { tau, .. } => format!("line-of-stars/τ={tau}"),
        }
    }
}

/// Activation schedule specification.
#[derive(Clone, Copy, Debug)]
pub enum SchedSpec {
    /// All nodes activate in round 1.
    Synchronized,
    /// Uniform staggering over a window of rounds.
    Staggered { window: u64 },
}

impl SchedSpec {
    fn build(&self, n: usize, seed: u64) -> ActivationSchedule {
        match *self {
            SchedSpec::Synchronized => ActivationSchedule::synchronized(n),
            SchedSpec::Staggered { window } => {
                ActivationSchedule::staggered_uniform(n, window, derive_seed(seed, 2))
            }
        }
    }
}

/// Stabilization rounds of blind gossip (`b = 0`), one entry per trial
/// (`None` = did not stabilize within `max_rounds`).
pub fn blind_gossip_rounds(
    spec: &TopoSpec,
    trials: usize,
    base_seed: u64,
    threads: usize,
    max_rounds: u64,
) -> Vec<Option<u64>> {
    blind_gossip_rounds_threaded(spec, trials, base_seed, threads, 1, max_rounds)
}

/// [`blind_gossip_rounds`] with the engine's sharded executor at
/// `engine_threads` workers inside every trial. Results are identical for
/// any `engine_threads` (the executor is bit-for-bit deterministic — see
/// `Engine::set_threads`); the knob matters for single-trial giant cells,
/// where trial-level fan-out has nothing to parallelize.
pub fn blind_gossip_rounds_threaded(
    spec: &TopoSpec,
    trials: usize,
    base_seed: u64,
    trial_threads: usize,
    engine_threads: usize,
    max_rounds: u64,
) -> Vec<Option<u64>> {
    let spec = spec.clone();
    run_trials(trials, base_seed, trial_threads, move |_t, seed| {
        let topo = spec.build(seed);
        let n = topo.node_count();
        let uids = UidPool::random(n, derive_seed(seed, 10));
        let mut e = Engine::new(
            topo,
            ModelParams::mobile(0),
            ActivationSchedule::synchronized(n),
            BlindGossip::spawn(&uids),
            derive_seed(seed, 11),
        );
        e.set_threads(engine_threads);
        let out = e.run_to_stabilization(max_rounds);
        if let Some(w) = out.winner {
            assert_eq!(w, uids.min_uid(), "blind gossip must elect the min UID");
        }
        out.stabilized_round
    })
}

/// Stabilization rounds of synchronized bit convergence (`b = 1`).
pub fn bit_convergence_rounds(
    spec: &TopoSpec,
    trials: usize,
    base_seed: u64,
    threads: usize,
    max_rounds: u64,
) -> Vec<Option<u64>> {
    bit_convergence_rounds_threaded(spec, trials, base_seed, threads, 1, max_rounds)
}

/// [`bit_convergence_rounds`] with the engine's sharded executor at
/// `engine_threads` workers inside every trial (see
/// [`blind_gossip_rounds_threaded`]).
pub fn bit_convergence_rounds_threaded(
    spec: &TopoSpec,
    trials: usize,
    base_seed: u64,
    trial_threads: usize,
    engine_threads: usize,
    max_rounds: u64,
) -> Vec<Option<u64>> {
    let spec = spec.clone();
    run_trials(trials, base_seed, trial_threads, move |_t, seed| {
        let mut topo = spec.build(seed);
        let n = topo.node_count();
        // Δ from the topology already built for this trial (round-1 graphs
        // are isomorphic to the family instance, so Δ is the sample Δ);
        // rebuilding the instance via `sample_graph` would double the
        // construction cost without changing any derived seed stream.
        let delta = topo.graph_at(1).max_degree();
        let config = TagConfig::for_network(n, delta);
        let uids = UidPool::random(n, derive_seed(seed, 10));
        let nodes = BitConvergence::spawn(&uids, config, derive_seed(seed, 12));
        let expect = nodes
            .iter()
            .map(BitConvergence::active_pair)
            .min()
            .expect("network has at least one node");
        let mut e = Engine::new(
            topo,
            ModelParams::mobile(1),
            ActivationSchedule::synchronized(n),
            nodes,
            derive_seed(seed, 11),
        );
        e.set_threads(engine_threads);
        let out = e.run_to_stabilization(max_rounds);
        if let Some(w) = out.winner {
            assert_eq!(w, expect.uid, "bit convergence must elect the min (tag, uid) pair");
        }
        out.stabilized_round
    })
}

/// Stuck-detection window, in rounds, for non-synchronized bit convergence
/// trials. Two UIDs that draw the same minimum tag can wedge a trial with
/// two leaders forever; the detector ends such a trial like a timeout
/// (`None`) instead of running it to the round budget. W must exceed the
/// longest gap between `best` changes in a trial that still stabilizes, or
/// the detector would cut that trial short.
const NONSYNC_STUCK_WINDOW: u64 = 100_000;

/// Stabilization rounds (after the last activation) of non-synchronized bit
/// convergence (`b = log log n + O(1)`); `None` for a trial that ran out of
/// rounds or stayed stuck for `NONSYNC_STUCK_WINDOW` (100,000) rounds.
pub fn nonsync_rounds(
    spec: &TopoSpec,
    sched: SchedSpec,
    trials: usize,
    base_seed: u64,
    threads: usize,
    max_rounds: u64,
) -> Vec<Option<u64>> {
    let spec = spec.clone();
    run_trials(trials, base_seed, threads, move |_t, seed| {
        let mut topo = spec.build(seed);
        let n = topo.node_count();
        // Δ from the already-built topology; see `bit_convergence_rounds`.
        let delta = topo.graph_at(1).max_degree();
        let config = TagConfig::for_network(n, delta);
        let uids = UidPool::random(n, derive_seed(seed, 10));
        let nodes = NonSyncBitConvergence::spawn(&uids, config, derive_seed(seed, 12));
        let expect = nodes
            .iter()
            .map(NonSyncBitConvergence::best_pair)
            .min()
            .expect("network has at least one node");
        let mut e = Engine::new(
            topo,
            ModelParams::mobile(config.nonsync_tag_bits()),
            sched.build(n, seed),
            nodes,
            derive_seed(seed, 11),
        );
        e.enable_stuck_detection(NONSYNC_STUCK_WINDOW);
        let out = e.run_to_stabilization(max_rounds);
        if let Some(w) = out.winner {
            assert_eq!(
                w, expect.uid,
                "non-synchronized bit convergence must elect the min (tag, uid) pair"
            );
        }
        out.rounds_after_activation
    })
}

/// Rounds for PUSH-PULL (`b = 0`) rumor spreading to inform all nodes,
/// under either connection policy.
pub fn push_pull_rounds(
    spec: &TopoSpec,
    params: ModelParams,
    trials: usize,
    base_seed: u64,
    threads: usize,
    max_rounds: u64,
) -> Vec<Option<u64>> {
    let spec = spec.clone();
    run_trials(trials, base_seed, threads, move |_t, seed| {
        let topo = spec.build(seed);
        let n = topo.node_count();
        let mut e = Engine::new(
            topo,
            params,
            ActivationSchedule::synchronized(n),
            Rumor::spawn(Strategy::PushPull, n, 1),
            derive_seed(seed, 11),
        );
        e.run_to_full_information(max_rounds).stabilized_round
    })
}

/// Summarize trial results, counting timeouts separately.
pub struct TrialSummary {
    /// Summary over the trials that finished.
    pub summary: Option<Summary>,
    /// Number of trials that hit the round budget.
    pub timeouts: usize,
}

/// Collapse per-trial `Option<u64>` results.
pub fn summarize(results: &[Option<u64>]) -> TrialSummary {
    let finished: Vec<u64> = results.iter().flatten().copied().collect();
    TrialSummary {
        summary: if finished.is_empty() { None } else { Some(Summary::of_u64(&finished)) },
        timeouts: results.len() - finished.len(),
    }
}

/// `(1/α)·Δ²·log₂²n` — the Theorem VI.1 / Corollary VI.6 bound shape
/// (constant-free).
pub fn blind_gossip_bound(n: usize, delta: usize, alpha: f64) -> f64 {
    let log_n = (n as f64).log2();
    (1.0 / alpha) * (delta as f64).powi(2) * log_n * log_n
}

/// `f(r) = Δ^(1/r)·r·log₂ n` — Theorem V.2's approximation factor with
/// `c = 1`.
pub fn f_of_r(delta: usize, r: u64, n: usize) -> f64 {
    (delta as f64).powf(1.0 / r as f64) * r as f64 * (n as f64).log2()
}

/// `(1/α)·Δ^(1/τ̂)·τ̂·log₂⁵n` — the Theorem VII.2 bound shape, with
/// `τ̂ = min{τ, log₂ Δ}` (`τ = None` ⇒ `τ̂ = log₂ Δ`).
pub fn bit_convergence_bound(n: usize, delta: usize, alpha: f64, tau: Option<u64>) -> f64 {
    let log_delta = (delta.max(2) as f64).log2().max(1.0);
    let tau_hat = match tau {
        Some(t) => (t as f64).min(log_delta),
        None => log_delta,
    };
    let log_n = (n as f64).log2();
    (1.0 / alpha) * (delta as f64).powf(1.0 / tau_hat) * tau_hat * log_n.powi(5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarize_handles_mixed_results() {
        let r = vec![Some(10), None, Some(20), Some(30)];
        let s = summarize(&r);
        assert_eq!(s.timeouts, 1);
        let sum = s.summary.expect("a non-empty trial set has a summary");
        assert_eq!(sum.count, 3);
        assert!((sum.mean - 20.0).abs() < 1e-12);
    }

    #[test]
    fn summarize_all_timeouts() {
        let s = summarize(&[None, None]);
        assert_eq!(s.timeouts, 2);
        assert!(s.summary.is_none());
    }

    #[test]
    fn bound_shapes_monotone() {
        assert!(blind_gossip_bound(100, 10, 0.5) < blind_gossip_bound(100, 20, 0.5));
        assert!(blind_gossip_bound(100, 10, 0.5) < blind_gossip_bound(100, 10, 0.25));
        // More stability never increases the bit-convergence bound.
        let b1 = bit_convergence_bound(1024, 32, 1.0, Some(1));
        let b5 = bit_convergence_bound(1024, 32, 1.0, Some(5));
        let binf = bit_convergence_bound(1024, 32, 1.0, None);
        assert!(b1 > b5 && b5 >= binf);
    }

    #[test]
    fn f_of_r_decreases_up_to_log_delta() {
        let n = 1024;
        let delta = 64;
        // f(r) = Δ^(1/r)·r·log n falls steeply from r = 1 and flattens near
        // r = ln Δ (it is not strictly monotone at the tail: f(3) = f(6)
        // for Δ = 64).
        let f1 = f_of_r(delta, 1, n);
        let f3 = f_of_r(delta, 3, n);
        let f6 = f_of_r(delta, 6, n);
        assert!(f1 > f3 && f1 > f6, "f(1)={f1} f(3)={f3} f(6)={f6}");
        assert!(f3 <= f6 + 1e-9);
    }

    #[test]
    fn blind_gossip_measurement_smoke() {
        let spec = TopoSpec::Static { family: GraphFamily::Clique, n: 12 };
        let results = blind_gossip_rounds(&spec, 4, 1, 2, 200_000);
        assert_eq!(results.len(), 4);
        assert!(results.iter().all(|r| r.is_some()));
    }

    #[test]
    fn measurement_deterministic_across_thread_counts() {
        let spec = TopoSpec::Static { family: GraphFamily::Cycle, n: 10 };
        let a = blind_gossip_rounds(&spec, 4, 9, 1, 500_000);
        let b = blind_gossip_rounds(&spec, 4, 9, 4, 500_000);
        assert_eq!(a, b);
    }

    #[test]
    fn bit_convergence_measurement_smoke() {
        let spec = TopoSpec::Static { family: GraphFamily::Clique, n: 12 };
        let results = bit_convergence_rounds(&spec, 2, 3, 2, 500_000);
        assert!(results.iter().all(|r| r.is_some()));
    }

    #[test]
    fn nonsync_measurement_smoke() {
        let spec = TopoSpec::Static { family: GraphFamily::Clique, n: 10 };
        let results =
            nonsync_rounds(&spec, SchedSpec::Staggered { window: 50 }, 2, 4, 2, 1_000_000);
        assert!(results.iter().all(|r| r.is_some()));
    }

    #[test]
    fn rumor_measurement_smoke() {
        let spec = TopoSpec::Static { family: GraphFamily::Clique, n: 16 };
        let pp = push_pull_rounds(&spec, ModelParams::mobile(0), 2, 5, 2, 200_000);
        assert!(pp.iter().all(|r| r.is_some()));
    }

    #[test]
    fn topo_spec_labels() {
        assert_eq!(TopoSpec::Static { family: GraphFamily::Clique, n: 8 }.label(), "clique");
        assert_eq!(
            TopoSpec::Relabeled { family: GraphFamily::Star, n: 8, tau: 3 }.label(),
            "star/τ=3"
        );
        assert_eq!(
            TopoSpec::StarShuffle { spine: 4, points: 4, tau: 1 }.label(),
            "line-of-stars/τ=1"
        );
    }
}
