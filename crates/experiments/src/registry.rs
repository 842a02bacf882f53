//! The experiment registry: one entry per reproduced table/figure.
//!
//! Every consumer of "which experiments exist" — the CLI's
//! `mtm experiment <id|all>` command and the `regen` provenance binary —
//! resolves ids through this table, so adding an experiment is one entry
//! here (a missing entry fails the registry completeness test against
//! `results/`).

use mtm_analysis::table::Table;

use crate::opts::ExpOpts;

/// A registered experiment: id, human title, and its runner.
pub struct Experiment {
    /// Lowercase id (`"t1"`, `"f3"`, `"a2"`); also the `results/` file stem.
    pub id: &'static str,
    /// Title line printed above the table (matches the committed
    /// `results/<id>.txt` headers).
    pub title: &'static str,
    /// Run the sweep, returning the result table.
    pub run: fn(&ExpOpts) -> Table,
}

impl Experiment {
    /// `"t1"` → `"T1"`, the display form used in table headers.
    pub fn display_id(&self) -> String {
        self.id.to_uppercase()
    }
}

/// Every experiment, in presentation order (paper claims T*/F*, then the
/// beyond-the-paper F8/F9, ablations A*, and service-mode churn C*).
pub static REGISTRY: [Experiment; 25] = [
    Experiment {
        id: "t1",
        title: "Theorem VI.1 — blind gossip O((1/a)*D^2*log^2 n)",
        run: crate::exp_t1::run,
    },
    Experiment {
        id: "f1",
        title: "Sec VI — Omega(D^2/sqrt(a)) lower bound on the line of stars",
        run: crate::exp_f1::run,
    },
    Experiment {
        id: "t2",
        title: "Corollary VI.6 — PUSH-PULL rumor spreading, b=0",
        run: crate::exp_t2::run,
    },
    Experiment {
        id: "f2",
        title: "Theorem VII.2 — tau sweep, bit convergence vs blind gossip",
        run: crate::exp_f2::run,
    },
    Experiment {
        id: "t3",
        title: "Theorem VII.2 — polylog rounds for tau >= log D, a = O(1)",
        run: crate::exp_t3::run,
    },
    Experiment {
        id: "f3",
        title: "Sec VI vs VII — b=0 vs b=1 separation",
        run: crate::exp_f3::run,
    },
    Experiment {
        id: "t4",
        title: "Theorem VIII.2 — non-synchronized vs synchronized bit convergence",
        run: crate::exp_t4::run,
    },
    Experiment {
        id: "f4",
        title: "Sec VIII — self-stabilization on component joins",
        run: crate::exp_f4::run,
    },
    Experiment { id: "t5", title: "Lemma V.1 — gamma >= alpha/4", run: crate::exp_t5::run },
    Experiment {
        id: "f5",
        title: "Theorem V.2 — PPUSH matching approximation m/f(r)",
        run: crate::exp_f5::run,
    },
    Experiment {
        id: "t6",
        title: "Sec IX — tag length ablation b in {0, 1, loglog n}",
        run: crate::exp_t6::run,
    },
    Experiment {
        id: "f6",
        title: "Related work — mobile vs classical telephone model gap",
        run: crate::exp_f6::run,
    },
    Experiment {
        id: "f7",
        title: "Convergence trajectories (fraction agreeing on the winner)",
        run: crate::exp_f7::run,
    },
    Experiment {
        id: "f8",
        title: "Fault injection: crash churn x message loss vs stabilization",
        run: crate::exp_f8::run,
    },
    Experiment {
        id: "f9",
        title: "Scaling: slopes at 10^5-10^8 nodes on 8-regular expanders",
        run: crate::exp_f9::run,
    },
    Experiment {
        id: "a1",
        title: "Ablation — ID tag length multiplier beta",
        run: crate::exp_a1::run,
    },
    Experiment { id: "a2", title: "Ablation — group length multiplier", run: crate::exp_a2::run },
    Experiment {
        id: "a3",
        title: "Ablation — PUSH-PULL vs PUSH-only vs PULL-only",
        run: crate::exp_a3::run,
    },
    Experiment {
        id: "c1",
        title: "Service mode — flash-crowd join: settle time and takeover",
        run: crate::exp_c1::run,
    },
    Experiment {
        id: "c2",
        title: "Service mode — mass departure: detection + re-election latency",
        run: crate::exp_c2::run,
    },
    Experiment {
        id: "c3",
        title: "Service mode — partition and heal: split-brain exposure",
        run: crate::exp_c3::run,
    },
    Experiment {
        id: "c4",
        title: "Service mode — rolling churn: steady-state service quality",
        run: crate::exp_c4::run,
    },
    Experiment {
        id: "v1",
        title: "Model checking — n=4 certification matrix + beta=1 deadlock control",
        run: crate::exp_v1::run,
    },
    Experiment {
        id: "as1",
        title: "Async election — event backend ticks vs the lockstep bound",
        run: crate::exp_as1::run,
    },
    Experiment {
        id: "as2",
        title: "Async PUSH-PULL — event backend ticks vs the lockstep bound",
        run: crate::exp_as2::run,
    },
];

/// Look up an experiment by id (case-insensitive).
pub fn find(id: &str) -> Option<&'static Experiment> {
    REGISTRY.iter().find(|e| e.id.eq_ignore_ascii_case(id))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_unique_and_in_presentation_order() {
        let ids: Vec<&str> = REGISTRY.iter().map(|e| e.id).collect();
        assert_eq!(ids, crate::ALL_IDS);
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), REGISTRY.len(), "duplicate experiment id");
    }

    #[test]
    fn find_is_case_insensitive() {
        assert_eq!(find("t1").map(|e| e.id), Some("t1"));
        assert_eq!(find("T1").map(|e| e.id), Some("t1"));
        assert!(find("t99").is_none());
    }

    #[test]
    fn titles_are_header_safe() {
        for e in &REGISTRY {
            assert!(!e.title.is_empty(), "{} has no title", e.id);
            assert!(!e.title.contains('\n'), "{} title breaks the header line", e.id);
            assert_eq!(e.display_id(), e.id.to_uppercase());
        }
    }
}
