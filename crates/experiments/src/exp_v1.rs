//! **V1 — model-checker certification matrix** (verification layer 4,
//! DESIGN.md "Verification layers").
//!
//! Unlike every other experiment in the registry, V1 measures nothing
//! statistical: it is the *exhaustive* product-automaton exploration of
//! `mtm-check` run over all 38 connected 4-node topologies, certifying
//! that BlindGossip, BitConvergence and `Rumor` under PUSH-PULL reach
//! agreement under every adversarial matching schedule, and that
//! MaintainedGossip never regresses its epoch within the bounded horizon.
//! The final row is the negative control: the A1 `β = 1` tag-collision
//! instance, where the checker must *find* the two-leader deadlock and
//! produce a minimal engine-replayable witness. A certified row going
//! uncertified — or the control row's deadlock disappearing — is a
//! semantic change to the protocol stack, caught here as table drift by
//! `regen --check`.
//!
//! The table is fully deterministic (no trials, no seeds): quick and full
//! scales are identical, and the registry digest pins every cell.

use mtm_analysis::table::Table;
use mtm_check::{analyze, explore, CheckConfig};

use crate::opts::ExpOpts;

/// Run the experiment, returning the result table.
pub fn run(_opts: &ExpOpts) -> Table {
    let mut table = Table::new(vec![
        "protocol",
        "graphs",
        "closed",
        "states",
        "transitions",
        "doomed",
        "deadlock",
        "viol",
        "max_dist",
        "witness",
        "certified",
    ]);

    for row in mtm_check::certification_matrix() {
        table.push_row(vec![
            row.protocol.to_string(),
            row.graphs.to_string(),
            row.closed.to_string(),
            row.total_states.to_string(),
            row.transitions.to_string(),
            row.doomed.to_string(),
            row.deadlocks.to_string(),
            row.violations.to_string(),
            if row.closed > 0 { row.max_agreement_distance.to_string() } else { "-".into() },
            "-".to_string(),
            if row.certified { "yes" } else { "NO" }.to_string(),
        ]);
    }

    // Negative control: the A1 β=1 tag collision must deadlock, with a
    // minimal witness schedule the engine reproduces bit for bit.
    let (graph, spec) = mtm_check::a1_beta1_instance();
    let cfg = CheckConfig::default();
    let ex = explore(&spec, &graph, &cfg);
    let an = analyze(&spec, &ex);
    let witness_len = an
        .first_deadlock
        .map(|s| {
            mtm_check::replay_state(&spec, &graph, &ex, s)
                .expect("deadlock witness must replay through the engine");
            ex.witness(s).len().to_string()
        })
        .unwrap_or_else(|| "NONE".to_string());
    table.push_row(vec![
        "bit-conv β=1 (control)".to_string(),
        "1".to_string(),
        usize::from(ex.closed).to_string(),
        ex.state_count().to_string(),
        ex.transitions.to_string(),
        an.doomed.to_string(),
        an.deadlocks.to_string(),
        ex.violations.len().to_string(),
        "-".to_string(),
        witness_len,
        "deadlock (expected)".to_string(),
    ]);

    table
}
