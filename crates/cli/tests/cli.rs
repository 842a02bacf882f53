//! End-to-end CLI contract tests, driving the real `mtm` binary. The bytes
//! of pinned runs, thread-count identity included, are checked by `pins.rs`
//! against the ledger `pins.txt`.
//!
//! Pinned here:
//! * `mtm spread` exit codes — 0 every node informed, 1 incomplete within
//!   the round budget, 2 usage error (previously asserted only in CI shell
//!   one-liners, which cannot distinguish 1 from 2);
//! * `mtm trace` prints one CSV row per executed round, and its
//!   connections column sums to the count it reports on stderr;
//! * `--backend event` determinism: same seed ⇒ byte-identical stdout,
//!   different seed ⇒ different timing; flag validation for the
//!   lockstep-only options;
//! * malformed input — `n < 2`, bad or sub-2-node graph files — is a usage
//!   error (exit 2) on every run command, never a panic (exit 101); so are
//!   `--tau 0`, `serve --timeout 1` and a `--latency-spread` past its bound,
//!   and no family size makes `mtm graph` panic;
//! * a flag the command does not use is a usage error, not silently
//!   ignored;
//! * fuzzed argv over every run command exits 0, 1, 2 or 3 — never a panic;
//! * malformed `mtm check` input (a self-loop or unparsable topology,
//!   `--sources` outside `1..=n`, `--beta` below 1 or NaN) is a usage
//!   error, and fuzzed `check` argv never panics either;
//! * `mtm experiment` exit codes — 0 on success, 1 when the CSV write
//!   fails, 2 on a usage error.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use mtm_testkit::{run_cases, Rng, SliceRandom};

fn mtm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mtm")).args(args).output().expect("mtm binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("mtm prints UTF-8")
}

/// Asserts that `mtm args` is a usage error (exit 2), showing its stderr
/// otherwise.
fn assert_usage_error(args: &[&str]) {
    let out = mtm(args);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
}

const U64_MAX: &str = "18446744073709551615";

/// Writes graph files no command can run on — parse errors and graphs
/// under 2 nodes — into a fresh directory `name` and returns their paths.
fn malformed_graph_files(name: &str) -> Vec<String> {
    let dir = tmp_dir(name);
    [
        ("edge_before_header.txt", "0 1\n5 6\nn 3\n"),
        ("huge_header.txt", "n 5000000000\n"),
        ("max_id.txt", "0 4294967295\n"),
        ("garbage.txt", "0 one\n"),
        ("zero_nodes.txt", "n 0\n"),
        ("one_node.txt", "n 1\n"),
        ("zero_nodes.json", r#"{"offsets":[0],"adjacency":[]}"#),
    ]
    .into_iter()
    .map(|(file, text)| {
        let path = dir.join(file);
        std::fs::write(&path, text).expect("temp graph file is writable");
        path.to_str().expect("temp path is UTF-8").to_string()
    })
    .collect()
}

/// A fresh, empty directory under the test target's temp dir.
fn tmp_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir is creatable");
    dir
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
fn trace_prints_one_row_per_executed_round() {
    let out = mtm(&["trace", "blind", "cycle", "16", "--seed", "3"]);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    let text = stdout(&out);
    let mut lines = text.lines();
    assert_eq!(lines.next(), Some("round,active,proposals,connections"));
    let rows: Vec<Vec<u64>> = lines
        .map(|line| line.split(',').map(|f| f.parse().expect("numeric CSV field")).collect())
        .collect();
    for (i, row) in rows.iter().enumerate() {
        // round, active, proposals, connections
        assert_eq!(row.len(), 4, "row {i}: {row:?}");
        assert_eq!(row[0], i as u64 + 1, "rows must number the executed rounds in order");
        assert_eq!(row[1], 16, "every node is active in a synchronized run");
        assert!(row[3] <= row[2] && row[3] <= 8, "row {i}: {row:?}");
    }
    let logged: u64 = rows.iter().map(|row| row[3]).sum();
    assert_eq!(
        stderr,
        format!("stabilized in {} rounds ({logged} connections logged)\n", rows.len())
    );
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
        // A staleness timeout of 1 would depose the leader on every missed
        // heartbeat (0 means auto).
        &["serve", "expander8", "16", "--timeout", "1"][..],
        // The leader's outage window [R, u64::MAX) would be empty.
        &["serve", "expander8", "16", "--crash-leader", U64_MAX][..],
        // Past the bound, the event backend's tick arithmetic overflows.
        &["elect", "blind", "clique", "8", "--backend", "event", "--latency-spread", U64_MAX][..],
    ] {
        assert_usage_error(args);
    }
}

#[test]
fn malformed_graph_file_is_a_usage_error() {
    for path in malformed_graph_files("malformed") {
        for cmd in [
            &["elect", "bitconv"][..],
            &["spread", "push-pull"][..],
            &["serve"][..],
            &["trace", "nonsync"][..],
            &["graph"][..],
        ] {
            let args = [cmd, &["--graph-file", &path][..]].concat();
            assert_usage_error(&args);
        }
    }
}

#[test]
fn inapplicable_flags_are_usage_errors() {
    for args in [
        &["trace", "blind", "clique", "8", "--backend", "event"][..],
        &["trace", "blind", "clique", "8", "--threads", "2"][..],
        &["spread", "push-pull", "clique", "8", "--detect-stuck"][..],
        &["spread", "push-pull", "clique", "8", "--export", "x"][..],
        &["elect", "blind", "clique", "8", "--export", "x"][..],
        &["graph", "clique", "8", "--tau", "3"][..],
        &["graph", "clique", "8", "--threads", "2"][..],
        &["elect", "blind", "clique", "8", "--latency-spread", "4"][..],
    ] {
        assert_usage_error(args);
    }
}

/// Random argv over every run command — valid and invalid algorithms,
/// tiny families, malformed graph files, and flags with edge-case values,
/// mostly ones the command accepts but also ones it rejects. Whatever the
/// input, `mtm` must exit with one of its documented codes, never a panic
/// (101).
#[test]
fn fuzzed_argv_never_panics() {
    // (command, valid algorithms, accepted flags other than the budget)
    let commands: [(&str, &[&str], &[&str]); 5] = [
        (
            "elect",
            &["blind", "bitconv", "nonsync"],
            &["--seed", "--tau", "--threads", "--detect-stuck", "--backend", "--latency-spread"],
        ),
        (
            "spread",
            &["push-pull", "ppush", "classical"],
            &["--seed", "--tau", "--threads", "--backend", "--latency-spread"],
        ),
        (
            "serve",
            &[],
            &[
                "--seed",
                "--timeout",
                "--churn",
                "--loss",
                "--crash-leader",
                "--wedge-window",
                "--threads",
            ],
        ),
        ("trace", &["blind", "bitconv", "nonsync"], &["--seed", "--tau", "--export"]),
        ("graph", &[], &["--seed", "--export"]),
    ];
    let mut all_flags: Vec<&str> =
        commands.iter().flat_map(|(_, _, flags)| flags.iter().copied()).collect();
    all_flags.sort_unstable();
    all_flags.dedup();
    let files = malformed_graph_files("fuzz-graphs");
    // Exports, including ones to relative paths like `0`, land here.
    let cwd = tmp_dir("fuzz-cwd");
    let export = cwd.join("export.csv").to_str().expect("temp path is UTF-8").to_string();
    run_cases(0xC11F, 1024, |_case, rng| {
        let &(cmd, algos, accepted) = commands.choose(rng).expect("nonempty");
        let mut argv = vec![cmd.to_string()];
        if rng.gen_bool(0.15) {
            argv.push("flood".into());
        } else if let Some(algo) = algos.choose(rng) {
            argv.push(algo.to_string());
        }
        if rng.gen_bool(0.25) {
            argv.push("--graph-file".into());
            argv.push(files.choose(rng).expect("nonempty").clone());
        } else {
            argv.push(mtm_graph::GraphFamily::ALL.choose(rng).expect("nonempty").name().into());
            argv.push(["0", "1", "2", "3", "4", "8"].choose(rng).expect("nonempty").to_string());
        }
        // The round budget is never fuzzed, so every run stays short.
        let budget = match cmd {
            "serve" => Some("--rounds"),
            "graph" => None,
            _ => Some("--max-rounds"),
        };
        if let Some(flag) = budget {
            argv.push(flag.into());
            argv.push(rng.gen_range(0..=500u64).to_string());
        }
        for _ in 0..rng.gen_range(0..=4) {
            let pool = if rng.gen_bool(0.75) { accepted } else { &all_flags[..] };
            let flag = *pool.choose(rng).expect("nonempty");
            argv.push(flag.into());
            let valid = match flag {
                "--export" => Some(export.as_str()),
                "--detect-stuck" => None,
                "--backend" => Some("event"),
                "--churn" => Some("0.01,0.1"),
                "--loss" => Some("0.1"),
                "--timeout" => Some("40"),
                "--wedge-window" => Some("300"),
                _ => Some("3"),
            };
            // Half the draws are valid, so runs get past the parser.
            let value = match rng.gen_range(0..14) {
                0 => Some("0"),
                1 => Some("1"),
                2 => Some("-1"),
                3 => Some("1.5"),
                4 => Some(U64_MAX),
                5 => Some(""),
                6 => None,
                _ => valid,
            };
            argv.extend(value.map(String::from));
        }
        let out = Command::new(env!("CARGO_BIN_EXE_mtm"))
            .args(&argv)
            .current_dir(&cwd)
            .output()
            .expect("mtm binary runs");
        assert!(
            matches!(out.status.code(), Some(0..=3)),
            "{argv:?}: exit {:?}: {}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        );
    });
}

#[test]
fn malformed_check_input_is_a_usage_error() {
    for args in [
        &["check", "--protocol", "blind", "--topology", "0-0"][..],
        &["check", "--protocol", "blind", "--topology", "0-1,,1-2"][..],
        &["check", "--protocol", "blind", "--topology", "clique:x"][..],
        &["check", "--protocol", "push-pull", "--sources", "0"][..],
        // The default topology is clique:4.
        &["check", "--protocol", "push-pull", "--sources", "9"][..],
        &["check", "--protocol", "ppush", "--sources", U64_MAX][..],
        &["check", "--protocol", "bit-convergence", "--beta", "0.5"][..],
        &["check", "--protocol", "bit-convergence", "--beta", "-1"][..],
        &["check", "--protocol", "bit-convergence", "--beta", "nan"][..],
    ] {
        let out = mtm(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
    }
}

/// Random `mtm check` argv: every protocol (and an unknown one), valid and
/// invalid topologies, and every option with edge-case values. Whatever the
/// input, the checker must exit with one of its documented codes, never a
/// panic (101). The horizon is at most 8 rounds and the state cap at most
/// 2000, so each case stays short: the explorer stops at the first state
/// the cap discards, even where a huge `--beta` widens the
/// non-synchronized protocol's tag to 63 bits.
#[test]
fn fuzzed_check_argv_never_panics() {
    let protocols = [
        "blind-gossip",
        "bit-convergence",
        "nonsync",
        "push-pull",
        "ppush",
        "push-only",
        "pull-only",
        "maintained-gossip",
        "flood",
    ];
    // (topology, node count); the node count sizes valid `--uids`/`--tags`.
    let topologies = [
        ("clique:2", 2),
        ("clique:4", 4),
        ("path:3", 3),
        ("cycle:5", 5),
        ("star:6", 6),
        ("0-1,1-2", 3),
    ];
    let bad_topologies =
        ["clique:1", "ring:7", "0-0", "0-1,1-1", "0-5", "0-1,,1-2", "0-6", "x", ""];
    let options = [
        "--uids",
        "--tags",
        "--tag-seed",
        "--beta",
        "--k",
        "--timeout",
        "--sources",
        "--loss",
        "--max-crashes",
    ];
    run_cases(0xC4EC, 256, |_case, rng| {
        let mut argv = vec!["check".to_string()];
        if rng.gen_bool(0.9) {
            argv.push("--protocol".into());
            argv.push(protocols.choose(rng).expect("nonempty").to_string());
        }
        // clique:4 is the default topology.
        let mut n = 4;
        if rng.gen_bool(0.8) {
            argv.push("--topology".into());
            if rng.gen_bool(0.85) {
                let &(topology, size) = topologies.choose(rng).expect("nonempty");
                argv.push(topology.into());
                n = size;
            } else {
                argv.push(bad_topologies.choose(rng).expect("nonempty").to_string());
            }
        }
        argv.push("--rounds".into());
        argv.push(rng.gen_range(0..=8u64).to_string());
        argv.push("--max-states".into());
        argv.push(rng.gen_range(0..=2000u64).to_string());
        for _ in 0..rng.gen_range(0..=3) {
            let option = *options.choose(rng).expect("nonempty");
            argv.push(option.into());
            if option == "--loss" {
                continue;
            }
            let edge = ["0", "1", "-1", "0.5", U64_MAX, "", "nan"];
            let list = |rng: &mut mtm_testkit::SmallRng, hi: u64| {
                (0..n).map(|_| rng.gen_range(0..hi).to_string()).collect::<Vec<_>>().join(",")
            };
            let value = if rng.gen_bool(0.1) {
                None
            } else if rng.gen_bool(0.3) {
                edge.choose(rng).map(|v| v.to_string())
            } else {
                Some(match option {
                    "--uids" => list(rng, 10),
                    "--tags" => list(rng, 4),
                    _ => rng.gen_range(1..=3u32).to_string(),
                })
            };
            argv.extend(value);
        }
        let out = mtm(&argv.iter().map(String::as_str).collect::<Vec<_>>());
        assert!(
            matches!(out.status.code(), Some(0..=3)),
            "{argv:?}: exit {:?}: {}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        );
    });
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
