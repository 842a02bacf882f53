//! The paper's algorithms: leader election and rumor spreading in the
//! mobile telephone model.
//!
//! Three leader election algorithms (Newport, IPDPS 2017):
//!
//! * [`BlindGossip`] (§VI) — `b = 0`, any `τ ≥ 1`, synchronization-free.
//!   Flip a coin to send or receive; trade smallest UIDs over every
//!   connection. Stabilizes in `O((1/α)·Δ²·log²n)` rounds (Theorem VI.1);
//!   `Ω(Δ²/√α)` on the line-of-stars network.
//! * [`BitConvergence`] (§VII) — `b = 1`, synchronized starts. Rounds are
//!   partitioned into groups of `2·log Δ`, groups into phases of `k`
//!   (one group per ID-tag bit); each group runs PPUSH keyed on one bit of
//!   the node's current candidate tag. Stabilizes in
//!   `O((1/α)·Δ^(1/τ̂)·τ̂·log⁵n)` rounds where `τ̂ = min{τ, log Δ}`
//!   (Theorem VII.2).
//! * [`NonSyncBitConvergence`] (§VIII) — `b = ⌈log k⌉ + 1 = log log n +
//!   O(1)`, asynchronous activations, self-stabilizing. Each node picks a
//!   uniformly random tag bit position per local group and advertises
//!   `(position, bit)`. Stabilizes in `O((1/α)·Δ^(1/τ̂)·τ̂·log⁸n)` rounds
//!   after the last activation (Theorem VIII.2).
//!
//! One rumor-spreading protocol (§V, used as a subroutine and baseline),
//! [`Rumor`], whose [`Strategy`] is data:
//!
//! * [`Strategy::PushPull`] — `b = 0`; identical round structure to blind
//!   gossip. In the mobile model it achieves `O((1/α)·Δ²·log²n)`
//!   (Corollary VI.6); in the classical model
//!   ([`mtm_engine::ConnectionPolicy::AcceptAll`]) it is the textbook
//!   PUSH-PULL baseline.
//! * [`Strategy::Ppush`] — `b = 1`; informed nodes advertise 0 and propose
//!   to neighbors advertising 1 (productive push).
//! * [`Strategy::PushOnly`] and [`Strategy::PullOnly`] — `b = 0`; only
//!   informed, respectively uninformed, nodes propose (the A3 ablations).
//!
//! All protocols treat UIDs as opaque comparable values ([`u64`]s here),
//! exchange at most one UID + `O(polylog N)` bits per connection, and need
//! no knowledge of the stability factor `τ`.

// An `as` that can truncate states its bound in an `#[allow]` (DESIGN.md §8.1).
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

pub mod bit_convergence;
pub mod blind_gossip;
pub mod config;
pub mod id;
pub mod maintenance;
pub mod nonsync;
pub mod rumor;

pub use bit_convergence::BitConvergence;
pub use blind_gossip::BlindGossip;
pub use config::TagConfig;
pub use id::{IdPair, UidPool};
pub use maintenance::{Heartbeat, MaintainedGossip, MaintenanceConfig};
pub use nonsync::NonSyncBitConvergence;
pub use rumor::{Rumor, Strategy};
