//! Runs every command pinned in `pins.txt` (format in its header) against
//! the built `mtm` binary and checks its exit code and the sha256 of its
//! stdout and of the one file it writes. All mismatches are reported in one
//! panic at the end; the test never rewrites the ledger.

use std::fs::{self, File};
use std::path::Path;
use std::process::Command;
use std::thread::sleep;
use std::time::Duration;

use mtm_experiments::digest::sha256_hex;

/// A run still going after this many 10 ms polls (at least 20 s) fails.
/// Every pin takes well under a second; the bound catches a return to the
/// cubic α search in `mtm graph`, 52 s at n = 1024.
const MAX_POLLS: u32 = 2_000;

fn is_sha256(s: &str) -> bool {
    s.len() == 64 && s.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'))
}

/// Splits a ledger line into its expected `exit stdout file` outcome and
/// the argv of each run: one per thread count, or the bare args for `-`.
fn parse(line: &str) -> Option<(String, Vec<Vec<&str>>)> {
    let fields: Vec<&str> = line.split_whitespace().collect();
    let [code, stdout, file, threads, args @ ..] = fields.as_slice() else {
        return None;
    };
    let valid = !args.is_empty()
        && code.parse::<i32>().is_ok()
        && is_sha256(stdout)
        && (*file == "-" || is_sha256(file));
    let runs = match *threads {
        "-" => vec![args.to_vec()],
        set if set.split(',').all(|k| k.parse::<usize>().is_ok_and(|k| k > 0)) => {
            set.split(',').map(|k| [args, &["--threads", k][..]].concat()).collect()
        }
        _ => return None,
    };
    valid.then(|| (format!("{code} {stdout} {file}"), runs))
}

/// Runs `mtm argv` in the fresh empty directory `dir/cwd`, capturing stdout
/// and stderr beside it, and returns its `exit stdout file` outcome, with
/// `-` for no written file.
fn run(dir: &Path, argv: &[&str]) -> String {
    let cwd = dir.join("cwd");
    let _ = fs::remove_dir_all(dir);
    fs::create_dir_all(&cwd).expect("run directory is creatable");
    let capture = |name: &str| File::create(dir.join(name)).expect("capture file is creatable");
    let mut child = Command::new(env!("CARGO_BIN_EXE_mtm"))
        .args(argv)
        .current_dir(&cwd)
        .stdout(capture("stdout"))
        .stderr(capture("stderr"))
        .spawn()
        .expect("mtm binary starts");
    let exited = (0..MAX_POLLS).find_map(|_| {
        let status = child.try_wait().expect("mtm run can be polled");
        if status.is_none() {
            sleep(Duration::from_millis(10));
        }
        status
    });
    let Some(status) = exited else {
        let _ = child.kill();
        let _ = child.wait();
        return "still running after 20 s".to_string();
    };
    let code = status.code().map_or("signal".to_string(), |c| c.to_string());
    let stdout = sha256_hex(&fs::read(dir.join("stdout")).expect("stdout is readable"));
    let written: Vec<_> = fs::read_dir(&cwd)
        .expect("run directory is readable")
        .map(|entry| entry.expect("directory entry is readable").path())
        .collect();
    let file = match written.as_slice() {
        [] => "-".to_string(),
        [path] => sha256_hex(&fs::read(path).expect("written file is readable")),
        more => format!("{}-files", more.len()),
    };
    format!("{code} {stdout} {file}")
}

/// The first lines of the stream `name` captured in `dir`, each labelled.
fn head(dir: &Path, name: &str) -> String {
    let bytes = fs::read(dir.join(name)).expect("captured stream is readable");
    String::from_utf8_lossy(&bytes).lines().take(8).map(|l| format!("    {name} | {l}\n")).collect()
}

#[test]
fn every_pinned_run_matches_its_recorded_output() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("pins");
    let (mut runs, mut failures) = (0, Vec::new());
    for (i, line) in include_str!("pins.txt").lines().enumerate() {
        let (n, line) = (i + 1, line.trim());
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (expected, argvs) = parse(line).unwrap_or_else(|| {
            panic!("pins.txt:{n}: expected `<exit> <sha256> <sha256 or -> <threads or -> <args>`")
        });
        for (j, argv) in argvs.iter().enumerate() {
            runs += 1;
            let dir = root.join(format!("{n}-{j}"));
            let got = run(&dir, argv);
            if got != expected {
                failures.push(format!(
                    "pins.txt:{n}: mtm {}\n  expected {expected}\n       got {got}\n{}{}",
                    argv.join(" "),
                    head(&dir, "stdout"),
                    head(&dir, "stderr"),
                ));
            }
        }
    }
    assert!(runs > 0, "pins.txt pins no run");
    assert!(
        failures.is_empty(),
        "{} of {runs} pinned runs differ from pins.txt:\n\n{}",
        failures.len(),
        failures.join("\n")
    );
}
