//! End-to-end CLI contract tests, driving the real `mtm` binary.
//!
//! Pinned here:
//! * `mtm spread` exit codes — 0 every node informed, 1 incomplete within
//!   the round budget, 2 usage error (previously asserted only in CI shell
//!   one-liners, which cannot distinguish 1 from 2);
//! * `--threads` actually reaches the engine on `spread` (byte-identical
//!   stdout at 1 vs 2 workers — the regression was parsing the flag and
//!   dropping it);
//! * `--backend event` determinism: same seed ⇒ byte-identical stdout,
//!   different seed ⇒ different timing; flag validation for the
//!   lockstep-only options;
//! * malformed input — `n < 2`, bad graph files — is a usage error (exit
//!   2) on `elect`, `spread` and `serve`, never a panic (exit 101); so is
//!   `--tau 0` on `elect`, `spread` and `trace`, and no family size makes
//!   `mtm graph` panic;
//! * `mtm experiment` exit codes — 0 on success, 1 when the CSV write
//!   fails, 2 on a usage error.

use std::process::{Command, Output};

fn mtm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mtm")).args(args).output().expect("mtm binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("mtm prints UTF-8")
}

#[test]
fn spread_exit_0_when_informed() {
    let out = mtm(&["spread", "push-pull", "clique", "8", "--seed", "1"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout(&out).contains("all 8 nodes informed"));
}

#[test]
fn spread_exit_1_when_incomplete() {
    // One round cannot inform a 64-cycle.
    let out = mtm(&["spread", "push-pull", "cycle", "64", "--seed", "1", "--max-rounds", "1"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stdout(&out).contains("rumor incomplete"));
}

#[test]
fn spread_exit_2_on_usage_errors() {
    // Unknown algorithm.
    assert_eq!(mtm(&["spread", "flood", "clique", "8"]).status.code(), Some(2));
    // Missing algorithm entirely.
    assert_eq!(mtm(&["spread"]).status.code(), Some(2));
    // Unknown family.
    assert_eq!(mtm(&["spread", "push-pull", "nonagon", "8"]).status.code(), Some(2));
    // Unknown flag.
    assert_eq!(mtm(&["spread", "push-pull", "clique", "8", "--frobnicate"]).status.code(), Some(2));
    // The classical baseline needs accept-all, which the event backend
    // does not model.
    assert_eq!(
        mtm(&["spread", "classical", "clique", "8", "--backend", "event"]).status.code(),
        Some(2)
    );
    // Unknown backend name.
    assert_eq!(
        mtm(&["spread", "push-pull", "clique", "8", "--backend", "quantum"]).status.code(),
        Some(2)
    );
}

#[test]
fn spread_honors_threads() {
    // The bug: `--threads` parsed but never plumbed into the engine. The
    // sharded executor is bit-identical by construction, so the whole
    // stdout must match across thread counts.
    let base = &["spread", "ppush", "expander8", "128", "--seed", "7"];
    let t1 = mtm(&[base, &["--threads", "1"][..]].concat());
    let t2 = mtm(&[base, &["--threads", "2"][..]].concat());
    assert_eq!(t1.status.code(), Some(0));
    assert_eq!(stdout(&t1), stdout(&t2), "spread output must not depend on --threads");
}

#[test]
fn event_backend_same_seed_same_output() {
    let args = &["spread", "push-pull", "expander8", "64", "--backend", "event", "--seed", "9"];
    let a = mtm(args);
    let b = mtm(args);
    assert_eq!(a.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&a.stderr));
    assert_eq!(stdout(&a), stdout(&b), "event backend must be deterministic per seed");

    let c = mtm(&["spread", "push-pull", "expander8", "64", "--backend", "event", "--seed", "10"]);
    assert_ne!(stdout(&a), stdout(&c), "different seeds should give different timings");
}

#[test]
fn elect_event_backend_completes_and_validates_flags() {
    let out = mtm(&["elect", "blind", "expander8", "64", "--backend", "event", "--seed", "3"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout(&out).contains("stabilized at tick"));

    // Lockstep-only flags are rejected, not silently ignored.
    for extra in [&["--tau", "4"][..], &["--detect-stuck"][..], &["--threads", "2"][..]] {
        let mut args = vec!["elect", "blind", "cycle", "16", "--backend", "event"];
        args.extend_from_slice(extra);
        assert_eq!(mtm(&args).status.code(), Some(2), "{extra:?} must be rejected under event");
    }
}

#[test]
fn out_of_range_numbers_are_usage_errors() {
    for args in [
        &["elect", "blind", "expander8", "1"][..],
        &["elect", "bitconv", "clique", "0"][..],
        &["spread", "push-pull", "expander8", "1"][..],
        &["serve", "expander8", "1"][..],
        // τ must be at least 1.
        &["elect", "blind", "cycle", "16", "--tau", "0"][..],
        &["spread", "push-pull", "cycle", "16", "--tau", "0"][..],
        &["trace", "blind", "cycle", "16", "--tau", "0"][..],
    ] {
        let out = mtm(args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn malformed_graph_file_is_a_usage_error() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    for (name, text) in [
        ("edge_before_header.txt", "0 1\n5 6\nn 3\n"),
        ("huge_header.txt", "n 5000000000\n"),
        ("max_id.txt", "0 4294967295\n"),
        ("garbage.txt", "0 one\n"),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, text).expect("temp graph file is writable");
        let path = path.to_str().expect("temp path is UTF-8");
        for cmd in [&["elect", "blind"][..], &["spread", "push-pull"][..], &["serve"][..]] {
            let args = [cmd, &["--graph-file", path][..]].concat();
            let out = mtm(&args);
            assert_eq!(
                out.status.code(),
                Some(2),
                "{args:?}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
        }
    }
}

#[test]
fn tiny_family_sizes_never_panic() {
    for fam in mtm_graph::GraphFamily::ALL {
        for n in ["0", "1", "2", "3", "4"] {
            let out = mtm(&["graph", fam.name(), n]);
            assert!(
                matches!(out.status.code(), Some(0 | 2)),
                "graph {fam} {n}: exit {:?}: {}",
                out.status.code(),
                String::from_utf8_lossy(&out.stderr)
            );
        }
    }
}

#[test]
fn experiment_exit_codes() {
    let out = mtm(&["experiment", "t5", "--quick", "--trials", "1"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout(&out).starts_with("== T5: "), "stdout: {}", stdout(&out));

    // Missing id, unknown id, unknown flag.
    for args in
        [&["experiment"][..], &["experiment", "t99"][..], &["experiment", "t5", "--frobnicate"][..]]
    {
        assert_eq!(mtm(args).status.code(), Some(2), "{args:?}");
    }

    // The table prints, but the CSV cannot be written.
    let csv = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("missing-dir").join("t5.csv");
    let csv = csv.to_str().expect("temp path is UTF-8");
    let out = mtm(&["experiment", "t5", "--quick", "--trials", "1", "--csv", csv]);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", String::from_utf8_lossy(&out.stderr));
}
