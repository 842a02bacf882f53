//! Determinism and model-discipline source auditor for this workspace.
//!
//! The simulator's correctness argument (DESIGN.md's substitution rule)
//! requires every execution to be a pure function of `(seed, config)`.
//! This crate walks the workspace's non-test Rust sources with a
//! lightweight line scanner — no `syn`, no dependencies — and flags
//! patterns that silently break that contract:
//!
//! | rule | pattern | scope |
//! |------|---------|-------|
//! | `nondeterministic-rng` | `thread_rng`, `rand::random`, `from_entropy` | all crates |
//! | `wall-clock` | `Instant::now`, `SystemTime` | `core`, `engine` |
//! | `unordered-iteration` | `HashMap`, `HashSet` | `core`, `engine` |
//! | `library-unwrap` | `.unwrap()` | all but `vendor` — including `#[cfg(test)]` blocks |
//! | `truncating-cast` | `as u8/u16/u32/i8/i16/i32/NodeId` | `core`, `engine`, `analysis`, `graph`, `check` |
//! | `smallrng-outside-engine` | `SmallRng::seed_from_u64/from_seed/from_rng` | all but `engine`, `vendor` |
//! | `parallelism-outside-engine` | `thread::spawn/scope/Builder`, `rayon`, `par_iter`, `crossbeam`, `Mutex`, `AtomicU` | all but `engine`, `vendor` |
//!
//! `truncating-cast` exists because a silent `as` truncation on a node id
//! or counter corrupts simulations without failing; the sanctioned forms
//! are `try_from(...)` with an invariant message, or an explicit
//! annotation where truncation is the *point* (hashing, bit extraction).
//! `smallrng-outside-engine` pins all RNG stream construction to
//! `mtm_graph::rng::stream_rng` (or annotated spawn-time seeding), so
//! per-node stream discipline cannot be bypassed casually.
//! `parallelism-outside-engine` keeps concurrency where its determinism is
//! proven: the engine's sharded executor (pinned bit-for-bit by the
//! trace-equivalence suite) and the annotated trial fan-out. Ad-hoc
//! threads, unordered parallel reductions, and shared-state primitives
//! anywhere else can reorder RNG draws or float accumulation and silently
//! desynchronize recorded tables.
//!
//! Sources under `tests/`, `benches/`, `examples/`, and `#[cfg(test)]`
//! blocks are exempt — nondeterminism there cannot corrupt a simulation.
//! Individual lines are allowlisted with a `// mtm-lint: allow(<rule>)`
//! annotation, either trailing the offending line or on the line directly
//! above it; the annotation must name the rule it silences.
//!
//! Run with `cargo mtm-lint` (alias in `.cargo/config.toml`) or
//! `cargo run -p mtm-lint`. Pass `--json` for a machine-readable summary.
//! Exit status is nonzero iff unannotated violations exist.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Crates whose sources implement the simulation itself: wall-clock reads
/// and unordered iteration there corrupt traces.
const SIM_CRATES: &[&str] = &["core", "engine"];

/// Crates held to the truncating-cast discipline (the sanctioned
/// replacement is `try_from(...)` with an invariant message).
const LIBRARY_CRATES: &[&str] = &["core", "engine", "analysis", "graph", "check"];

/// Path components that mark test-only sources, exempt from every rule.
const EXEMPT_DIRS: &[&str] = &["tests", "benches", "examples"];

/// Directories never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git", ".github"];

/// The audited rules.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rule {
    NondeterministicRng,
    WallClock,
    UnorderedIteration,
    LibraryUnwrap,
    TruncatingCast,
    SmallRngOutsideEngine,
    ParallelismOutsideEngine,
}

impl Rule {
    pub const ALL: [Rule; 7] = [
        Rule::NondeterministicRng,
        Rule::WallClock,
        Rule::UnorderedIteration,
        Rule::LibraryUnwrap,
        Rule::TruncatingCast,
        Rule::SmallRngOutsideEngine,
        Rule::ParallelismOutsideEngine,
    ];

    /// The rule's name, as used in `allow(...)` annotations.
    pub fn name(self) -> &'static str {
        match self {
            Rule::NondeterministicRng => "nondeterministic-rng",
            Rule::WallClock => "wall-clock",
            Rule::UnorderedIteration => "unordered-iteration",
            Rule::LibraryUnwrap => "library-unwrap",
            Rule::TruncatingCast => "truncating-cast",
            Rule::SmallRngOutsideEngine => "smallrng-outside-engine",
            Rule::ParallelismOutsideEngine => "parallelism-outside-engine",
        }
    }

    /// Whether the rule also audits `#[cfg(test)]` blocks. Nondeterminism
    /// in unit tests cannot corrupt a simulation, so most rules skip them —
    /// but the unwrap ban is a readability/diagnosability standard that
    /// holds everywhere (integration tests under `tests/` stay exempt via
    /// [`EXEMPT_DIRS`]).
    fn audits_test_code(self) -> bool {
        matches!(self, Rule::LibraryUnwrap)
    }

    /// Substrings whose presence on a (sanitized) source line violates the
    /// rule.
    fn patterns(self) -> &'static [&'static str] {
        match self {
            Rule::NondeterministicRng => &["thread_rng", "rand::random", "from_entropy"],
            Rule::WallClock => &["Instant::now", "SystemTime"],
            Rule::UnorderedIteration => &["HashMap", "HashSet"],
            Rule::LibraryUnwrap => &[".unwrap()"],
            Rule::TruncatingCast => {
                &[" as u8", " as u16", " as u32", " as i8", " as i16", " as i32", " as NodeId"]
            }
            Rule::SmallRngOutsideEngine => {
                &["SmallRng::seed_from_u64", "SmallRng::from_seed", "SmallRng::from_rng"]
            }
            Rule::ParallelismOutsideEngine => &[
                "thread::spawn",
                "thread::scope",
                "thread::Builder",
                "rayon",
                "par_iter",
                "crossbeam",
                "Mutex<",
                "RwLock<",
                "AtomicU",
                "AtomicBool",
            ],
        }
    }

    /// Whether the rule audits the given crate (by directory name; the
    /// workspace root package scans as "root", vendored deps as "vendor").
    fn applies_to(self, crate_name: &str) -> bool {
        match self {
            Rule::NondeterministicRng => true,
            Rule::WallClock | Rule::UnorderedIteration => SIM_CRATES.contains(&crate_name),
            // The PR 2 unwrap→expect sweep is finished: zero raw unwraps
            // remain anywhere in the workspace, so the rule now guards every
            // crate (the sanctioned form is `expect("<invariant>")`).
            Rule::LibraryUnwrap => crate_name != "vendor",
            Rule::TruncatingCast => LIBRARY_CRATES.contains(&crate_name),
            // The engine owns per-node stream derivation; the vendored rand
            // crate defines SmallRng itself. Everyone else must go through
            // `mtm_graph::rng::stream_rng` or carry an annotation.
            Rule::SmallRngOutsideEngine => crate_name != "engine" && crate_name != "vendor",
            // The engine's sharded executor is the one place concurrency is
            // proven deterministic (trace-equivalence at every thread
            // count). Everywhere else needs an annotation arguing why the
            // primitive cannot affect recorded output.
            Rule::ParallelismOutsideEngine => crate_name != "engine" && crate_name != "vendor",
        }
    }
}

/// One unannotated rule violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    pub rule: Rule,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending source line, trimmed.
    pub text: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule.name(), self.text)
    }
}

/// Scan outcome for a whole workspace.
#[derive(Debug, Default)]
pub struct Report {
    pub violations: Vec<Violation>,
    pub files_scanned: usize,
}

impl Report {
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Machine-readable JSON summary (hand-rolled; the workspace builds
    /// offline without serde).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"violations\":[");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"text\":\"{}\"}}",
                v.rule.name(),
                json_escape(&v.file),
                v.line,
                json_escape(&v.text)
            ));
        }
        s.push_str(&format!(
            "],\"files_scanned\":{},\"total\":{}}}",
            self.files_scanned,
            self.violations.len()
        ));
        s
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Walk `root` (a workspace checkout) and scan every non-exempt `.rs` file.
pub fn scan_workspace(root: &Path) -> io::Result<Report> {
    let mut files = Vec::new();
    collect_rust_files(root, root, &mut files)?;
    files.sort(); // deterministic report order, like everything else here
    let mut report = Report::default();
    for rel in files {
        let content = fs::read_to_string(root.join(&rel))?;
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        if is_exempt_path(&rel_str) {
            continue;
        }
        report.files_scanned += 1;
        scan_file(&rel_str, &content, &mut report.violations);
    }
    Ok(report)
}

fn collect_rust_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) {
                collect_rust_files(root, &path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path.strip_prefix(root).expect("walk stays under root").to_path_buf());
        }
    }
    Ok(())
}

/// True for sources exempt from all rules (integration tests, benches,
/// examples).
fn is_exempt_path(rel: &str) -> bool {
    rel.split('/').any(|c| EXEMPT_DIRS.contains(&c))
}

/// The crate a workspace-relative path belongs to, by directory name.
fn crate_of(rel: &str) -> &str {
    let mut parts = rel.split('/');
    match parts.next() {
        Some("crates") => parts.next().unwrap_or(""),
        Some("vendor") => "vendor",
        _ => "root",
    }
}

/// Scan one file's content, pushing unannotated violations.
pub fn scan_file(rel: &str, content: &str, out: &mut Vec<Violation>) {
    let crate_name = crate_of(rel);
    let rules: Vec<Rule> = Rule::ALL.into_iter().filter(|r| r.applies_to(crate_name)).collect();
    if rules.is_empty() {
        return;
    }
    let sanitized = sanitize(content);
    let raw_lines: Vec<&str> = content.lines().collect();
    let san_lines: Vec<&str> = sanitized.lines().collect();

    // `allow` annotations: trailing → same line; standalone comment → next
    // line.
    let mut allowed: Vec<Vec<&str>> = vec![Vec::new(); raw_lines.len() + 1];
    for (i, raw) in raw_lines.iter().enumerate() {
        for rule_name in parse_allows(raw) {
            let target = if raw.trim_start().starts_with("//") { i + 1 } else { i };
            if target < allowed.len() {
                allowed[target].push(rule_name);
            }
        }
    }

    let mut depth: i64 = 0;
    let mut pending_cfg_test = false;
    let mut skip_above: Option<i64> = None;

    for (i, san) in san_lines.iter().enumerate() {
        let depth_before = depth;
        depth += san.matches('{').count() as i64;
        depth -= san.matches('}').count() as i64;

        if skip_above.is_none() {
            if san.contains("cfg(test)") {
                pending_cfg_test = true;
            } else if pending_cfg_test && depth > depth_before {
                // The attribute's item opened a block: skip until it closes.
                skip_above = Some(depth_before);
                pending_cfg_test = false;
            } else if pending_cfg_test && san.trim_end().ends_with(';') {
                // `#[cfg(test)] use …;` — a braceless item; nothing to skip.
                pending_cfg_test = false;
            }
        }

        let in_test_block = skip_above.is_some();
        if let Some(limit) = skip_above {
            if depth <= limit {
                skip_above = None;
            }
        }
        for &rule in &rules {
            if in_test_block && !rule.audits_test_code() {
                continue;
            }
            if rule.patterns().iter().any(|p| san.contains(p)) && !allowed[i].contains(&rule.name())
            {
                out.push(Violation {
                    rule,
                    file: rel.to_string(),
                    line: i + 1,
                    text: raw_lines[i].trim().to_string(),
                });
            }
        }
    }
}

/// Extract rule names from `mtm-lint: allow(a, b)` annotations on a raw
/// source line.
fn parse_allows(raw: &str) -> Vec<&str> {
    let mut names = Vec::new();
    let mut rest = raw;
    while let Some(pos) = rest.find("mtm-lint: allow(") {
        rest = &rest[pos + "mtm-lint: allow(".len()..];
        if let Some(end) = rest.find(')') {
            names.extend(rest[..end].split(',').map(str::trim).filter(|s| !s.is_empty()));
            rest = &rest[end + 1..];
        } else {
            break;
        }
    }
    names
}

/// Blank out comments and string/char literals so pattern matching and
/// brace counting only see code. Newlines are preserved, so line numbers
/// map 1:1 to the input.
pub fn sanitize(content: &str) -> String {
    #[derive(PartialEq)]
    enum State {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(u32),
    }
    let mut state = State::Code;
    let bytes: Vec<char> = content.chars().collect();
    let mut out = String::with_capacity(content.len());
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        let next = bytes.get(i + 1).copied();
        match state {
            State::Code => match c {
                '/' if next == Some('/') => {
                    state = State::LineComment;
                    out.push_str("  ");
                    i += 2;
                }
                '/' if next == Some('*') => {
                    state = State::BlockComment(1);
                    out.push_str("  ");
                    i += 2;
                }
                '"' => {
                    state = State::Str;
                    out.push(' ');
                    i += 1;
                }
                'r' if matches!(next, Some('"' | '#'))
                    && raw_string_hashes(&bytes[i + 1..]).is_some() =>
                {
                    let hashes = raw_string_hashes(&bytes[i + 1..]).expect("checked above");
                    state = State::RawStr(hashes);
                    for _ in 0..(2 + hashes) {
                        out.push(' ');
                    }
                    i += 2 + hashes as usize;
                }
                '\'' => {
                    // Char literal vs lifetime: a literal closes within a
                    // few chars; a lifetime never has a closing quote.
                    if let Some(len) = char_literal_len(&bytes[i..]) {
                        for j in 0..len {
                            out.push(if bytes[i + j] == '\n' { '\n' } else { ' ' });
                        }
                        i += len;
                    } else {
                        out.push(c);
                        i += 1;
                    }
                }
                c => {
                    out.push(c);
                    i += 1;
                }
            },
            State::LineComment => {
                if c == '\n' {
                    state = State::Code;
                    out.push('\n');
                } else {
                    out.push(' ');
                }
                i += 1;
            }
            State::BlockComment(depth) => {
                if c == '/' && next == Some('*') {
                    state = State::BlockComment(depth + 1);
                    out.push_str("  ");
                    i += 2;
                } else if c == '*' && next == Some('/') {
                    state = if depth == 1 { State::Code } else { State::BlockComment(depth - 1) };
                    out.push_str("  ");
                    i += 2;
                } else {
                    out.push(if c == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
            State::Str => match c {
                '\\' => {
                    // Blank the escape, but keep the newline of a
                    // `\`-continued literal so later lines keep their numbers.
                    out.push(' ');
                    out.push(if next == Some('\n') { '\n' } else { ' ' });
                    i += 2;
                }
                '"' => {
                    state = State::Code;
                    out.push(' ');
                    i += 1;
                }
                c => {
                    out.push(if c == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            },
            State::RawStr(hashes) => {
                if c == '"' && closes_raw_string(&bytes[i + 1..], hashes) {
                    state = State::Code;
                    for _ in 0..=(hashes as usize) {
                        out.push(' ');
                    }
                    i += 1 + hashes as usize;
                } else {
                    out.push(if c == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
        }
    }
    out
}

/// After an `r`, the number of `#`s of a raw string opener (`"`, `#"`,
/// `##"`, …), or None if this is not a raw string start.
fn raw_string_hashes(after_r: &[char]) -> Option<u32> {
    let mut hashes = 0u32;
    for &c in after_r {
        match c {
            '#' => hashes += 1,
            '"' => return Some(hashes),
            _ => return None,
        }
    }
    None
}

fn closes_raw_string(after_quote: &[char], hashes: u32) -> bool {
    (0..hashes as usize).all(|j| after_quote.get(j) == Some(&'#'))
}

/// Length of a char literal starting at `'`, or None for a lifetime.
fn char_literal_len(from_quote: &[char]) -> Option<usize> {
    match from_quote.get(1)? {
        '\\' => {
            // Escaped: '\n', '\'', '\u{…}', '\x7f'. Find the closing quote
            // within a short window.
            for j in 3..=10 {
                if from_quote.get(j) == Some(&'\'') {
                    return Some(j + 1);
                }
            }
            None
        }
        _ => (from_quote.get(2) == Some(&'\'')).then_some(3),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(rel: &str, src: &str) -> Vec<Violation> {
        let mut out = Vec::new();
        scan_file(rel, src, &mut out);
        out
    }

    #[test]
    fn flags_thread_rng_everywhere() {
        let v = scan("crates/cli/src/main.rs", "let mut rng = rand::thread_rng();\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::NondeterministicRng);
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn wall_clock_scoped_to_sim_crates() {
        let src = "let t = Instant::now();\n";
        assert_eq!(scan("crates/engine/src/x.rs", src).len(), 1);
        assert_eq!(scan("crates/bench/src/x.rs", src).len(), 0);
    }

    #[test]
    fn unordered_iteration_scoped_to_sim_crates() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(scan("crates/core/src/x.rs", src)[0].rule, Rule::UnorderedIteration);
        assert_eq!(scan("crates/analysis/src/x.rs", src).len(), 0);
    }

    #[test]
    fn unwrap_banned_in_every_crate() {
        let src = "let x = maybe.unwrap();\n";
        assert_eq!(scan("crates/graph/src/x.rs", src)[0].rule, Rule::LibraryUnwrap);
        assert_eq!(scan("crates/cli/src/main.rs", src).len(), 1);
        assert_eq!(scan("crates/experiments/src/x.rs", src).len(), 1);
        assert_eq!(scan("vendor/rand/src/x.rs", src).len(), 0);
        // expect() with an invariant message is the sanctioned form.
        assert_eq!(scan("crates/graph/src/x.rs", "maybe.expect(\"x\");\n").len(), 0);
    }

    #[test]
    fn truncating_casts_scoped_to_library_crates() {
        let src = "let id = idx as u32;\n";
        assert_eq!(scan("crates/graph/src/x.rs", src)[0].rule, Rule::TruncatingCast);
        assert_eq!(scan("crates/check/src/x.rs", src).len(), 1);
        assert_eq!(scan("crates/cli/src/main.rs", src).len(), 0);
        // Widening casts are fine.
        assert_eq!(scan("crates/graph/src/x.rs", "let w = small as u64;\n").len(), 0);
        // NodeId casts count even though NodeId is an alias.
        assert_eq!(scan("crates/engine/src/x.rs", "let v = u as NodeId;\n").len(), 1);
        // try_from is the sanctioned form.
        let ok = "let id = u32::try_from(idx).expect(\"fits\");\n";
        assert_eq!(scan("crates/graph/src/x.rs", ok).len(), 0);
    }

    #[test]
    fn smallrng_construction_scoped_outside_engine() {
        let src = "let rng = SmallRng::seed_from_u64(7);\n";
        assert_eq!(scan("crates/core/src/x.rs", src)[0].rule, Rule::SmallRngOutsideEngine);
        assert_eq!(scan("crates/cli/src/main.rs", src).len(), 1);
        assert_eq!(scan("crates/engine/src/x.rs", src).len(), 0);
        assert_eq!(scan("vendor/rand/src/x.rs", src).len(), 0);
        // The sanctioned stream constructor does not match.
        assert_eq!(scan("crates/core/src/x.rs", "let rng = stream_rng(seed, u);\n").len(), 0);
    }

    #[test]
    fn parallelism_scoped_outside_engine() {
        let src = "std::thread::scope(|s| { s.spawn(|| {}); });\n";
        assert_eq!(scan("crates/core/src/x.rs", src)[0].rule, Rule::ParallelismOutsideEngine);
        assert_eq!(scan("crates/experiments/src/x.rs", src).len(), 1);
        assert_eq!(scan("crates/engine/src/parallel.rs", src).len(), 0);
        let atomics = "use std::sync::atomic::AtomicUsize;\n";
        assert_eq!(scan("crates/cli/src/x.rs", atomics).len(), 1);
        // Annotated trial fan-out is the sanctioned escape hatch.
        let allowed =
            "// measurement only. mtm-lint: allow(parallelism-outside-engine)\nthread::spawn(f);\n";
        assert_eq!(scan("crates/experiments/src/x.rs", allowed).len(), 0);
    }

    #[test]
    fn trailing_allow_silences_same_line() {
        let src = "let x = m.unwrap(); // mtm-lint: allow(library-unwrap)\n";
        assert_eq!(scan("crates/core/src/x.rs", src).len(), 0);
    }

    #[test]
    fn standalone_allow_silences_next_line() {
        let src =
            "// deliberate: checked above. mtm-lint: allow(library-unwrap)\nlet x = m.unwrap();\n";
        assert_eq!(scan("crates/core/src/x.rs", src).len(), 0);
    }

    #[test]
    fn allow_must_name_the_right_rule() {
        let src = "let x = m.unwrap(); // mtm-lint: allow(wall-clock)\n";
        assert_eq!(scan("crates/core/src/x.rs", src).len(), 1);
    }

    #[test]
    fn cfg_test_blocks_exempt_from_determinism_rules_but_not_unwrap() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    use std::collections::HashSet;\n    fn t() { x.unwrap(); }\n}\nfn after() { y.unwrap(); }\n";
        let v = scan("crates/core/src/x.rs", src);
        // The HashSet inside the test module is exempt (unordered iteration
        // there cannot corrupt a simulation); both unwraps are flagged.
        assert_eq!(v.len(), 2, "both unwraps, not the HashSet: {v:?}");
        assert!(v.iter().all(|x| x.rule == Rule::LibraryUnwrap));
        assert_eq!(v[0].line, 5);
        assert_eq!(v[1].line, 7);
    }

    #[test]
    fn comments_and_strings_do_not_trigger() {
        let src =
            "// HashMap iteration would be bad\nlet s = \"thread_rng\";\n/* Instant::now */\n";
        assert_eq!(scan("crates/engine/src/x.rs", src).len(), 0);
    }

    #[test]
    fn exempt_paths() {
        assert!(is_exempt_path("crates/engine/tests/proptests.rs"));
        assert!(is_exempt_path("crates/graph/benches/build.rs"));
        assert!(!is_exempt_path("crates/engine/src/engine.rs"));
    }

    #[test]
    fn crate_classification() {
        assert_eq!(crate_of("crates/engine/src/engine.rs"), "engine");
        assert_eq!(crate_of("src/lib.rs"), "root");
        assert_eq!(crate_of("vendor/rand/src/lib.rs"), "vendor");
    }

    #[test]
    fn sanitize_preserves_line_structure() {
        let src = "let a = \"{ not a brace }\";\nlet b = '{';\n// }\n";
        let san = sanitize(src);
        assert_eq!(san.lines().count(), src.lines().count());
        assert!(!san.contains('{') && !san.contains('}'));
    }

    #[test]
    fn sanitize_keeps_continued_string_newlines() {
        // A `\`-continued literal spans two lines; dropping its newline
        // would check every later line one line early, so the annotated
        // cast below would be reported on the annotation's line.
        let src = "let s = \"x \\\n    y\";\n// checked. mtm-lint: allow(truncating-cast)\nlet c = u as u32;\n";
        assert_eq!(sanitize(src).lines().count(), src.lines().count());
        assert_eq!(scan("crates/engine/src/x.rs", src), []);
    }

    #[test]
    fn sanitize_handles_raw_strings_and_lifetimes() {
        let src = "fn f<'a>(x: &'a str) { let r = r#\"HashMap { }\"#; }\n";
        let san = sanitize(src);
        assert!(!san.contains("HashMap"));
        assert!(san.contains("fn f<'a>"));
        // The fn's braces survive; the raw string's are blanked.
        assert_eq!(san.matches('{').count(), 1);
        assert_eq!(san.matches('}').count(), 1);
    }

    #[test]
    fn json_summary_shape() {
        let report = Report {
            violations: vec![Violation {
                rule: Rule::WallClock,
                file: "crates/engine/src/x.rs".into(),
                line: 3,
                text: "Instant::now()".into(),
            }],
            files_scanned: 10,
        };
        let json = report.to_json();
        assert!(json.contains("\"rule\":\"wall-clock\""));
        assert!(json.contains("\"files_scanned\":10"));
        assert!(json.contains("\"total\":1"));
    }
}
