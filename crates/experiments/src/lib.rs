//! Experiment harness: one module per reproduced claim.
//!
//! The paper is a theory paper — its "tables and figures" are theorems. Each
//! module here regenerates the empirical counterpart of one claim (see
//! DESIGN.md §3 for the full index):
//!
//! | id | claim | module |
//! |----|-------|--------|
//! | T1 | Thm VI.1 — blind gossip `O((1/α)Δ²log²n)` | [`exp_t1`] |
//! | F1 | §VI — `Ω(Δ²/√α)` on the line of stars | [`exp_f1`] |
//! | T2 | Cor VI.6 — PUSH-PULL `O((1/α)Δ²log²n)`, b=0 | [`exp_t2`] |
//! | F2 | Thm VII.2 — `τ` sweep, gap vs blind gossip | [`exp_f2`] |
//! | T3 | Thm VII.2 — polylog rounds for `τ ≥ log Δ`, `α = O(1)` | [`exp_t3`] |
//! | F3 | §VI vs §VII — `b = 0` vs `b = 1` separation | [`exp_f3`] |
//! | T4 | Thm VIII.2 — non-synchronized within polylog of synchronized | [`exp_t4`] |
//! | F4 | §VIII — self-stabilization on component joins | [`exp_f4`] |
//! | T5 | Lemma V.1 — `γ ≥ α/4` | [`exp_t5`] |
//! | F5 | Thm V.2 — PPUSH matching approximation `m/f(r)` | [`exp_f5`] |
//! | T6 | §IX — tag length ablation `b ∈ {0, 1, log log n}` | [`exp_t6`] |
//! | F6 | related work — mobile vs classical model gap | [`exp_f6`] |
//! | F7 | convergence trajectories per algorithm | [`exp_f7`] |
//! | F8 | fault injection — crash churn × message loss | [`exp_f8`] |
//! | F9 | scaling — slopes at 10⁵–10⁶ nodes on expanders | [`exp_f9`] |
//! | C1 | service mode — flash-crowd join | [`exp_c1`] |
//! | C2 | service mode — mass departure of the leader + successors | [`exp_c2`] |
//! | C3 | service mode — partition and heal (split brain) | [`exp_c3`] |
//! | C4 | service mode — rolling churn at 10⁶ nodes | [`exp_c4`] |
//! | AS1 | async election — event backend vs lockstep bound | [`exp_as1`] |
//! | AS2 | async PUSH-PULL — event backend vs lockstep bound | [`exp_as2`] |
//!
//! Every experiment is a pure function of [`opts::ExpOpts`] (trials, seed,
//! scale), prints an aligned table, and can emit CSV for EXPERIMENTS.md.

pub mod churn;
pub mod digest;
pub mod harness;
pub mod manifest;
pub mod opts;
pub mod perf;
pub mod registry;

pub mod exp_a1;
pub mod exp_a2;
pub mod exp_a3;
pub mod exp_as1;
pub mod exp_as2;
pub mod exp_c1;
pub mod exp_c2;
pub mod exp_c3;
pub mod exp_c4;
pub mod exp_f1;
pub mod exp_f2;
pub mod exp_f3;
pub mod exp_f4;
pub mod exp_f5;
pub mod exp_f6;
pub mod exp_f7;
pub mod exp_f8;
pub mod exp_f9;
pub mod exp_t1;
pub mod exp_t2;
pub mod exp_t3;
pub mod exp_t4;
pub mod exp_t5;
pub mod exp_t6;
pub mod exp_v1;

pub use harness::{SchedSpec, TopoSpec};
pub use opts::ExpOpts;

/// Experiment ids in presentation order (paper claims T*/F*, ablations A*,
/// service-mode churn scenarios C*).
/// Kept in lockstep with [`registry::REGISTRY`] by its unit tests.
pub const ALL_IDS: [&str; 25] = [
    "t1", "f1", "t2", "f2", "t3", "f3", "t4", "f4", "t5", "f5", "t6", "f6", "f7", "f8", "f9", "a1",
    "a2", "a3", "c1", "c2", "c3", "c4", "v1", "as1", "as2",
];
