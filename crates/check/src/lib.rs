//! `mtm-check`: explicit-state exhaustive model checking for mobile
//! telephone model protocols at small scale (n ≤ 6, bounded rounds).
//!
//! Randomized protocol analysis (the rest of this repo) answers "what
//! usually happens"; this crate answers "what can *ever* happen". It
//! replaces every random choice — propose/listen coins, uniform neighbor
//! targets, uniform acceptance among proposals, the non-synchronized
//! protocol's bit positions, and optionally proposal loss and crashes — with
//! an adversary, and enumerates the complete product automaton of protocol ×
//! topology under that adversary:
//!
//! * **Safety** — no reachable state is *doomed* (agreement unreachable
//!   under every continuation schedule) and no protocol invariant (e.g.
//!   maintained gossip's epoch monotonicity) is violated on any transition.
//! * **Liveness-within-bound** — from every non-doomed state a cooperative
//!   scheduler reaches agreement within a computed bound.
//! * **Deadlock** — an absorbing non-agreed state (no schedule can ever
//!   change any node's durable state again), reported with the *minimal*
//!   adversary schedule reaching it.
//!
//! Every explored transition is one round of the production
//! [`mtm_engine::Engine`], restored to the parent state and stepped through
//! [`mtm_engine::Engine::step_scripted`], model audits included: the checker
//! certifies the round pipeline the simulations run. Counterexample
//! schedules are also replayed as one continuous engine run from round 0
//! ([`replay`]), which must reproduce the checker's end state exactly; this
//! checks that merging states modulo the protocol's period, and crash masks
//! in place of crash rounds, lose nothing.
//!
//! The flagship use is re-deriving experiment A1's β = 1 finding
//! exhaustively: with a minimum-tag collision, bit convergence wedges into
//! an absorbing two-leader state ([`matrix::a1_beta1_instance`]), and the
//! shortest schedule into it is printed and engine-verified. The
//! [`matrix::certification_matrix`] then certifies the main protocols on all
//! 38 connected 4-node topologies under the full adversary.

pub mod cli;
pub mod explore;
pub mod matrix;
pub mod replay;
pub mod spec;

pub use explore::{
    analyze, explore, Analysis, CheckConfig, Exploration, RoundSchedule, Truncation, Violation,
};
pub use matrix::{a1_beta1_instance, certification_matrix, connected_graphs_4, MatrixRow};
pub use replay::{replay, replay_state, ReplayOutcome};
pub use spec::{
    BitConvergenceSpec, BlindGossipSpec, CheckSpec, MaintainedGossipSpec, NonSyncSpec, RumorSpec,
};
