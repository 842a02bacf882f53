//! Graph substrate for the mobile telephone model.
//!
//! This crate provides everything the simulator and the experiment harness
//! need to know about network topologies:
//!
//! * [`Graph`] — a compact CSR (compressed sparse row) undirected graph with
//!   dense `u32` node ids, the only graph representation used anywhere in
//!   the workspace.
//! * [`gen`] — generators for every topology family used by the paper's
//!   analysis and by our experiments (cliques, paths, stars, the §VI
//!   *line-of-stars* lower-bound construction, random regular graphs, …).
//! * [`expansion`] — vertex expansion `α`: exact exhaustive computation for
//!   small graphs, closed forms for generator families, and a sampling
//!   estimator for large graphs.
//! * [`matching`] — maximum bipartite matchings across cuts (Hopcroft–Karp),
//!   used to validate Lemma V.1 (`ν(B(S))/|S| ≥ α/4`) and Theorem V.2.
//! * [`dynamic`] — dynamic graphs with a stability factor `τ`: adversarial
//!   degree-preserving rewiring, leaf-shuffle adversaries, proximity
//!   mobility, and component-join schedules for the self-stabilization
//!   experiment.
//! * [`family`] — a serializable catalogue of named topology families, the
//!   vocabulary used by the CLI and the experiment harness.
//!
//! The paper models the network in round `r` as a connected undirected graph
//! `G_r = (V, E_r)`; a dynamic graph is a sequence of such graphs in which at
//! least `τ` rounds pass between changes (Section III of the paper). The
//! types here mirror those definitions exactly.

pub mod dynamic;
pub mod expansion;
pub mod family;
pub mod faults;
pub mod gen;
pub mod io;
pub mod matching;
pub mod rng;
pub mod static_graph;

pub use dynamic::{DynamicTopology, StaticTopology};
pub use family::GraphFamily;
pub use faults::{FaultConfig, FaultyTopology, ScheduledCrashes};
pub use static_graph::{nid, Graph, GraphBuilder, NodeId};
