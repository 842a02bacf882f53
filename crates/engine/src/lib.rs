//! Round-based simulator for the **mobile telephone model** (Newport,
//! IPDPS 2017, Section III) and the classical telephone model baseline.
//!
//! The model: time proceeds in synchronized rounds over a (possibly
//! dynamic) connected topology graph. In each round every node
//!
//! 1. chooses a `b`-bit advertising tag,
//! 2. scans its neighborhood, learning neighbor ids and tags,
//! 3. either sends **one** connection proposal to a neighbor or listens,
//! 4. a listening node with incoming proposals accepts one chosen
//!    **uniformly at random**; the connected pair exchanges a bounded
//!    payload (at most O(1) UIDs plus `O(polylog N)` extra bits),
//! 5. performs local end-of-round bookkeeping.
//!
//! A node that proposes cannot also accept. Each node participates in at
//! most one connection per round. The *classical* telephone model baseline
//! ([`ConnectionPolicy::AcceptAll`]) differs in exactly one way: a listener
//! accepts **every** incoming proposal — the difference Daum et al. and the
//! paper identify as the reason classical results don't transfer to
//! smartphone peer-to-peer networks.
//!
//! Algorithms implement the [`Protocol`] trait and run unchanged under
//! either policy, any [`mtm_graph::DynamicTopology`], and any
//! [`ActivationSchedule`] (Section VIII's asynchronous activations).
//!
//! Everything is deterministic given a trial seed: per-node RNG streams are
//! derived with SplitMix64, so a trial is a pure function of
//! `(topology, protocol construction, seed)`.
//!
//! Every executed round is additionally validated against the model
//! contract (tag width, payload budget, proposal visibility,
//! matching-shaped acceptance, proposal conservation), in every build
//! profile — see [`audit`].

pub mod activation;
pub mod audit;
pub mod engine;
pub mod event;
pub mod fingerprint;
pub mod metrics;
pub mod model;
pub mod protocol;
pub mod runner;
pub mod service;

pub use activation::ActivationSchedule;
pub use audit::determinism_self_check;
pub use engine::{
    rounds_after_activation, Engine, RoundScript, RunOutcome, RunStatus, StuckReport,
    ENGINE_SEMANTICS_VERSION,
};
pub use event::{EventEngine, EventKind, EventOutcome, EventRecord, LatencyModel};
pub use metrics::{Metrics, ServiceMetrics};
pub use model::{uniform_accept_index, ConnectionPolicy, ModelParams, Tag};
pub use protocol::{
    ActRule, Action, EpochView, LeaderView, PayloadCost, Protocol, RumorView, Scan,
};
pub use service::{EpochRecord, ServiceConfig, ServiceOutcome, ServiceStatus};
