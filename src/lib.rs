//! # mobile-telephone
//!
//! A complete implementation and empirical reproduction of
//! **"Leader Election in a Smartphone Peer-to-Peer Network"**
//! (Calvin Newport, IPDPS 2017).
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`graph`] — topology substrate: CSR graphs, generators (including the
//!   §VI line-of-stars lower-bound construction), vertex expansion,
//!   maximum matchings over cuts, dynamic `τ`-stable topologies.
//! * [`engine`] — the mobile telephone model round executor (plus the
//!   classical-model baseline policy), activation schedules, deterministic
//!   parallel trial fan-out.
//! * [`core`] — the paper's algorithms: blind gossip (`b = 0`), bit
//!   convergence (`b = 1`), non-synchronized bit convergence
//!   (`b = log log n + O(1)`), and the PUSH-PULL / PPUSH rumor-spreading
//!   strategies.
//! * [`analysis`] — summary statistics, log–log fitting, table rendering.
//! * [`experiments`] — the harness that regenerates every quantitative
//!   claim of the paper (see DESIGN.md §3 and EXPERIMENTS.md).
//!
//! ## Quickstart
//!
//! ```
//! use mobile_telephone::prelude::*;
//!
//! // A 64-node random 8-regular expander.
//! let graph = GraphFamily::Expander8.build(64, 7);
//! let n = graph.node_count();
//!
//! // Blind gossip leader election (b = 0) on the static topology.
//! let uids = UidPool::random(n, 1);
//! let mut engine = Engine::new(
//!     StaticTopology::new(graph),
//!     ModelParams::mobile(0),
//!     ActivationSchedule::synchronized(n),
//!     BlindGossip::spawn(&uids),
//!     42, // trial seed: the run is fully deterministic
//! );
//! let outcome = engine.run_to_stabilization(1_000_000);
//! assert_eq!(outcome.winner, Some(uids.min_uid()));
//! ```

pub use mtm_analysis as analysis;
pub use mtm_core as core;
pub use mtm_engine as engine;
pub use mtm_experiments as experiments;
pub use mtm_graph as graph;

/// The types most programs need, in one import.
pub mod prelude {
    pub use mtm_core::{
        BitConvergence, BlindGossip, Heartbeat, IdPair, MaintainedGossip, MaintenanceConfig,
        NonSyncBitConvergence, Rumor, Strategy, TagConfig, UidPool,
    };
    pub use mtm_engine::{
        rounds_after_activation, ActivationSchedule, ConnectionPolicy, Engine, EpochRecord,
        EpochView, EventEngine, EventOutcome, EventRecord, LatencyModel, LeaderView, ModelParams,
        Protocol, RumorView, RunOutcome, RunStatus, Scan, ServiceConfig, ServiceMetrics,
        ServiceOutcome, ServiceStatus, StuckReport, Tag,
    };
    pub use mtm_graph::dynamic::{
        JoinSchedule, LineOfStarsShuffle, RelabelingAdversary, StaticTopology, WaypointMobility,
    };
    pub use mtm_graph::faults::{FaultConfig, FaultyTopology, ScheduledCrashes};
    pub use mtm_graph::{gen, DynamicTopology, Graph, GraphBuilder, GraphFamily, NodeId};
}
