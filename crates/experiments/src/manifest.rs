//! Results provenance manifest: `results/MANIFEST.json`.
//!
//! Every table under `results/` is recorded here with the options that
//! produced it (base seed, scale, trials), the wall-clock cost of the run,
//! engine/build identifiers, and SHA-256 digests of the emitted `.txt` and
//! `.csv`. The `regen` binary writes the manifest when it regenerates
//! tables and verifies it in `--check` mode:
//!
//! * digest mode — recompute the digests of the committed files and compare
//!   against the manifest (fast: catches hand-edited or stale files);
//! * `--quick` mode — additionally re-run every experiment at quick scale
//!   and compare against the recorded quick digest (slower: catches
//!   executor-behavior drift that leaves the committed bytes untouched,
//!   the failure mode that left 13 tables stale after the PR 3 run-loop
//!   fixes).
//!
//! JSON round-trips through [`mtm_analysis::json`] (the offline build has
//! no serde); digests through [`crate::digest`].

use std::path::Path;

use mtm_analysis::json::{parse, Value};
use mtm_analysis::table::Table;

use crate::digest::sha256_hex;
use crate::opts::{ExpOpts, Scale};
use crate::registry::Experiment;

/// Manifest schema identifier (bump on incompatible layout changes).
pub const SCHEMA: &str = "mtm-results-manifest/v1";

/// Manifest file name inside the results directory.
pub const FILE_NAME: &str = "MANIFEST.json";

/// A digest of one emitted file, with its path relative to `results/`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FileDigest {
    pub path: String,
    pub sha256: String,
}

/// Provenance record for one table.
#[derive(Clone, Debug, PartialEq)]
pub struct TableEntry {
    /// Lowercase experiment id (also the file stem).
    pub id: String,
    /// Experiment title at recording time.
    pub title: String,
    /// Base seed of the run.
    pub seed: u64,
    /// `"full"` or `"quick"`.
    pub scale: String,
    /// Trials option (0 = the experiment's per-configuration default).
    pub trials: usize,
    /// Wall-clock seconds the regeneration took (metadata only — not part
    /// of any digest, and expected to vary between machines).
    pub wall_s: f64,
    /// Digests of the emitted files.
    pub files: Vec<FileDigest>,
    /// Digest of a quick-scale run (`render() + to_csv()`, default trials,
    /// same base seed); `None` for tables whose rendered output is not
    /// bit-deterministic (wall-clock / RSS columns, e.g. F9).
    pub quick_sha256: Option<String>,
}

/// The parsed manifest.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Manifest {
    /// Engine/build identifiers, in insertion order.
    pub engine: Vec<(String, String)>,
    /// One entry per table, in presentation order.
    pub tables: Vec<TableEntry>,
}

/// Engine/build identifiers for manifests written by this build.
fn engine_info() -> Vec<(String, String)> {
    vec![
        ("workspace_version".to_string(), env!("CARGO_PKG_VERSION").to_string()),
        (
            "build_profile".to_string(),
            if cfg!(debug_assertions) { "debug" } else { "release" }.to_string(),
        ),
        // The executor whose RNG stream produced these tables is pinned by
        // the trace-equivalence suite; name it so a future stream change
        // is traceable to the test that must have been updated with it.
        ("rng_contract".to_string(), "crates/engine/tests/trace_equivalence.rs".to_string()),
        // Semantics version of the round executor (bumped when the meaning
        // of a (seed, config) pair changes — e.g. v2's counter-based loss
        // coins). A manifest recorded under a different version than the
        // running build means every table must be regenerated.
        ("engine_semantics".to_string(), mtm_engine::ENGINE_SEMANTICS_VERSION.to_string()),
    ]
}

/// The `.txt` and `.csv` bodies emitted for a table, exactly as
/// `mtm experiment <id> --csv results/<id>.csv > results/<id>.txt` prints
/// them, so regenerated files are byte-identical to hand-run ones.
struct Emitted {
    txt: String,
    csv: String,
}

/// Render the canonical file contents for `table` produced by `exp`.
/// `csv_rel` is the path string echoed in the txt trailer (the committed
/// files use `results/<id>.csv`).
fn render_outputs(exp: &Experiment, table: &Table, csv_rel: &str) -> Emitted {
    let txt = format!(
        "== {}: {} ==\n{}\n(csv written to {csv_rel})\n",
        exp.display_id(),
        exp.title,
        table.render()
    );
    Emitted { txt, csv: table.to_csv() }
}

/// Digest of a quick-scale run of `exp`: SHA-256 over the rendered table
/// plus its CSV. Pure function of (seed, executor); trials/threads come
/// from quick defaults so `--check --quick` recomputes the same bytes.
fn quick_digest(exp: &Experiment, seed: u64, threads: usize) -> String {
    let opts = ExpOpts { scale: Scale::Quick, seed, threads, ..ExpOpts::default() };
    let table = (exp.run)(&opts);
    let mut bytes = table.render();
    bytes.push_str(&table.to_csv());
    sha256_hex(bytes.as_bytes())
}

impl Manifest {
    /// Entry for `id`, if recorded.
    pub fn entry(&self, id: &str) -> Option<&TableEntry> {
        self.tables.iter().find(|t| t.id == id)
    }

    /// Insert or replace the entry with `entry.id`, keeping `order` (a
    /// list of ids) as the table order for ids that appear in it.
    fn upsert(&mut self, entry: TableEntry, order: &[&str]) {
        match self.tables.iter_mut().find(|t| t.id == entry.id) {
            Some(slot) => *slot = entry,
            None => self.tables.push(entry),
        }
        let rank = |id: &str| order.iter().position(|o| *o == id).unwrap_or(usize::MAX);
        self.tables.sort_by_key(|t| rank(&t.id));
    }

    /// Render as the canonical JSON document.
    pub fn render(&self) -> String {
        let engine = self.engine.iter().map(|(k, v)| (k.clone(), Value::Str(v.clone()))).collect();
        let tables = self
            .tables
            .iter()
            .map(|t| {
                let files = t
                    .files
                    .iter()
                    .map(|f| {
                        Value::Obj(vec![
                            ("path".to_string(), Value::Str(f.path.clone())),
                            ("sha256".to_string(), Value::Str(f.sha256.clone())),
                        ])
                    })
                    .collect();
                Value::Obj(vec![
                    ("id".to_string(), Value::Str(t.id.clone())),
                    ("title".to_string(), Value::Str(t.title.clone())),
                    ("seed".to_string(), Value::Num(t.seed as f64)),
                    ("scale".to_string(), Value::Str(t.scale.clone())),
                    ("trials".to_string(), Value::Num(t.trials as f64)),
                    ("wall_s".to_string(), Value::Num((t.wall_s * 100.0).round() / 100.0)),
                    ("files".to_string(), Value::Arr(files)),
                    (
                        "quick_sha256".to_string(),
                        match &t.quick_sha256 {
                            Some(d) => Value::Str(d.clone()),
                            None => Value::Null,
                        },
                    ),
                ])
            })
            .collect();
        Value::Obj(vec![
            ("schema".to_string(), Value::Str(SCHEMA.to_string())),
            ("engine".to_string(), Value::Obj(engine)),
            ("tables".to_string(), Value::Arr(tables)),
        ])
        .render()
    }

    /// Parse a manifest document (strict about schema and field types).
    pub fn parse(text: &str) -> Result<Manifest, String> {
        let doc = parse(text)?;
        let schema = doc.get("schema").and_then(Value::as_str).ok_or("missing schema")?;
        if schema != SCHEMA {
            return Err(format!("unsupported schema {schema:?} (expected {SCHEMA:?})"));
        }
        let engine = doc
            .get("engine")
            .and_then(Value::members)
            .ok_or("missing engine object")?
            .iter()
            .map(|(k, v)| Ok((k.clone(), v.as_str().ok_or("non-string engine field")?.to_string())))
            .collect::<Result<Vec<_>, &str>>()?;
        let str_field = |v: &Value, key: &str| -> Result<String, String> {
            Ok(v.get(key)
                .and_then(Value::as_str)
                .ok_or_else(|| format!("table missing {key}"))?
                .to_string())
        };
        let num_field = |v: &Value, key: &str| -> Result<f64, String> {
            v.get(key).and_then(Value::as_f64).ok_or_else(|| format!("table missing {key}"))
        };
        let mut tables = Vec::new();
        for t in doc.get("tables").and_then(Value::as_arr).ok_or("missing tables array")? {
            let mut files = Vec::new();
            for f in t.get("files").and_then(Value::as_arr).ok_or("table missing files")? {
                files.push(FileDigest {
                    path: str_field(f, "path")?,
                    sha256: str_field(f, "sha256")?,
                });
            }
            let quick_sha256 = match t.get("quick_sha256") {
                Some(Value::Str(d)) => Some(d.clone()),
                Some(Value::Null) | None => None,
                Some(_) => return Err("quick_sha256 must be a string or null".to_string()),
            };
            tables.push(TableEntry {
                id: str_field(t, "id")?,
                title: str_field(t, "title")?,
                seed: num_field(t, "seed")? as u64,
                scale: str_field(t, "scale")?,
                trials: num_field(t, "trials")? as usize,
                wall_s: num_field(t, "wall_s")?,
                files,
                quick_sha256,
            });
        }
        Ok(Manifest { engine, tables })
    }

    /// Load from `<results_dir>/MANIFEST.json`.
    pub fn load(results_dir: &Path) -> Result<Manifest, String> {
        let path = results_dir.join(FILE_NAME);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Manifest::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Write to `<results_dir>/MANIFEST.json`.
    pub fn store(&self, results_dir: &Path) -> Result<(), String> {
        let path = results_dir.join(FILE_NAME);
        std::fs::write(&path, self.render()).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Tables whose rendered output contains wall-clock / RSS columns and is
/// therefore not bit-deterministic; they get no quick digest (digest-mode
/// checks of the committed bytes still apply).
pub const WALL_CLOCK_TABLES: &[&str] = &["f9"];

/// Check that the manifest was recorded under this build's engine
/// semantics version. Digest checks compare bytes; this catches the
/// deeper staleness where the bytes match a manifest that a *different
/// executor* produced (e.g. tables recorded before the v2 counter-based
/// loss coins). Returns a problem string on mismatch or a missing field.
pub fn check_engine_semantics(manifest: &Manifest) -> Option<String> {
    let current = mtm_engine::ENGINE_SEMANTICS_VERSION;
    match manifest.engine.iter().find(|(k, _)| k == "engine_semantics") {
        Some((_, v)) if v == current => None,
        Some((_, v)) => Some(format!(
            "manifest records engine_semantics {v:?} but this build is {current:?} — \
             run `regen --all` and commit the result"
        )),
        None => Some(format!(
            "manifest records no engine_semantics but this build is {current:?} — \
             run `regen --all` and commit the result"
        )),
    }
}

/// Regenerate `ids` (lowercase, in any order; they are processed in
/// presentation order) into `results_dir`: run each experiment with
/// `base` options, write `<id>.txt` / `<id>.csv` in the canonical byte
/// format, record provenance (including a quick-scale digest for
/// deterministic tables), and write the updated `MANIFEST.json`. Existing
/// entries for other ids are preserved, so `--only` regenerations merge
/// instead of truncating the manifest.
pub fn regenerate(ids: &[String], results_dir: &Path, base: &ExpOpts) -> Result<Manifest, String> {
    let mut manifest = match std::fs::metadata(results_dir.join(FILE_NAME)) {
        Ok(_) => Manifest::load(results_dir)?,
        Err(_) => Manifest::default(),
    };
    manifest.engine = engine_info();
    std::fs::create_dir_all(results_dir).map_err(|e| format!("{}: {e}", results_dir.display()))?;

    for exp in crate::registry::REGISTRY.iter() {
        if !ids.iter().any(|id| id.eq_ignore_ascii_case(exp.id)) {
            continue;
        }
        eprintln!("regen: running {} ({})", exp.display_id(), exp.title);
        let watch = crate::perf::Stopwatch::start();
        let table = (exp.run)(base);
        let wall_s = watch.elapsed_secs();

        let csv_rel = format!("{}/{}.csv", results_dir.display(), exp.id);
        let emitted = render_outputs(exp, &table, &csv_rel);
        let txt_name = format!("{}.txt", exp.id);
        let csv_name = format!("{}.csv", exp.id);
        std::fs::write(results_dir.join(&txt_name), &emitted.txt)
            .map_err(|e| format!("{txt_name}: {e}"))?;
        std::fs::write(results_dir.join(&csv_name), &emitted.csv)
            .map_err(|e| format!("{csv_name}: {e}"))?;

        let quick_sha256 = if WALL_CLOCK_TABLES.contains(&exp.id) {
            None
        } else {
            Some(quick_digest(exp, base.seed, base.threads))
        };
        manifest.upsert(
            TableEntry {
                id: exp.id.to_string(),
                title: exp.title.to_string(),
                seed: base.seed,
                scale: match base.scale {
                    Scale::Quick => "quick".to_string(),
                    Scale::Full => "full".to_string(),
                },
                trials: base.trials,
                wall_s,
                files: vec![
                    FileDigest { path: txt_name, sha256: sha256_hex(emitted.txt.as_bytes()) },
                    FileDigest { path: csv_name, sha256: sha256_hex(emitted.csv.as_bytes()) },
                ],
                quick_sha256,
            },
            &crate::ALL_IDS,
        );
        eprintln!("regen: {} done in {wall_s:.1}s", exp.display_id());
    }
    manifest.store(results_dir)?;
    Ok(manifest)
}

/// Digest-mode check: recompute the SHA-256 of every file recorded in the
/// manifest against the bytes on disk, and flag result files on disk that
/// the manifest does not cover. Returns one human-readable problem per
/// drifted table (empty = clean).
pub fn check_digests(manifest: &Manifest, results_dir: &Path) -> Vec<String> {
    let mut problems = Vec::new();
    for t in &manifest.tables {
        for f in &t.files {
            let path = results_dir.join(&f.path);
            match std::fs::read(&path) {
                Ok(bytes) => {
                    let got = sha256_hex(&bytes);
                    if got != f.sha256 {
                        problems.push(format!(
                            "{}: {} drifted (manifest {}…, on disk {}…)",
                            t.id,
                            f.path,
                            &f.sha256[..12.min(f.sha256.len())],
                            &got[..12]
                        ));
                    }
                }
                Err(e) => problems.push(format!("{}: {} unreadable: {e}", t.id, f.path)),
            }
        }
    }
    // Orphans: result files with no manifest entry.
    if let Ok(dir) = std::fs::read_dir(results_dir) {
        let mut orphans: Vec<String> = dir
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|name| {
                (name.ends_with(".txt") || name.ends_with(".csv"))
                    && !manifest.tables.iter().any(|t| t.files.iter().any(|f| f.path == *name))
            })
            .collect();
        orphans.sort();
        for name in orphans {
            problems.push(format!("{name}: present in results/ but not in the manifest"));
        }
    }
    problems
}

/// Quick-mode check: re-run every table's experiment at quick scale and
/// compare against the recorded quick digest. Catches executor drift that
/// digest mode cannot (committed bytes unchanged, behavior changed).
/// Tables recorded with `quick_sha256: null` are skipped.
pub fn check_quick(manifest: &Manifest, threads: usize) -> Vec<String> {
    let mut problems = Vec::new();
    for t in &manifest.tables {
        let Some(expect) = &t.quick_sha256 else {
            continue;
        };
        let Some(exp) = crate::registry::find(&t.id) else {
            problems.push(format!("{}: recorded in the manifest but not in the registry", t.id));
            continue;
        };
        let got = quick_digest(exp, t.seed, threads);
        if got != *expect {
            problems.push(format!(
                "{}: quick-scale output drifted (recorded {}…, executor now produces {}…) — \
                 the executor changed behavior; regenerate the table",
                t.id,
                &expect[..12.min(expect.len())],
                &got[..12]
            ));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            engine: engine_info(),
            tables: vec![
                TableEntry {
                    id: "t1".to_string(),
                    title: "Theorem VI.1 — blind gossip".to_string(),
                    seed: 0xC0FFEE,
                    scale: "full".to_string(),
                    trials: 0,
                    wall_s: 12.34,
                    files: vec![
                        FileDigest { path: "t1.txt".to_string(), sha256: "ab".repeat(32) },
                        FileDigest { path: "t1.csv".to_string(), sha256: "cd".repeat(32) },
                    ],
                    quick_sha256: Some("ef".repeat(32)),
                },
                TableEntry {
                    id: "f9".to_string(),
                    title: "Scaling".to_string(),
                    seed: 0xC0FFEE,
                    scale: "full".to_string(),
                    trials: 3,
                    wall_s: 600.0,
                    files: vec![FileDigest { path: "f9.txt".to_string(), sha256: "01".repeat(32) }],
                    quick_sha256: None, // wall-clock columns
                },
            ],
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let m = sample();
        let text = m.render();
        let back = Manifest::parse(&text).expect("parse rendered manifest");
        assert_eq!(back, m);
    }

    #[test]
    fn parse_rejects_wrong_schema() {
        let text = sample().render().replace(SCHEMA, "something-else/v9");
        assert!(Manifest::parse(&text)
            .expect_err("a foreign schema is rejected")
            .contains("unsupported schema"));
    }

    #[test]
    fn upsert_replaces_and_orders() {
        let mut m = sample();
        let mut replacement = m.tables[0].clone();
        replacement.wall_s = 99.0;
        m.upsert(replacement, &["t1", "f9"]);
        assert_eq!(m.tables.len(), 2);
        assert!(
            (m.entry("t1").expect("the t1 entry was just recorded").wall_s - 99.0).abs() < 1e-9
        );
        // New entry lands in presentation order, not at the end.
        let mut extra = m.tables[0].clone();
        extra.id = "f1".to_string();
        m.upsert(extra, &["t1", "f1", "f9"]);
        let ids: Vec<&str> = m.tables.iter().map(|t| t.id.as_str()).collect();
        assert_eq!(ids, ["t1", "f1", "f9"]);
    }

    #[test]
    fn digest_check_flags_drift_and_orphans() {
        let dir = std::env::temp_dir().join("mtm-manifest-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp results dir");
        std::fs::write(dir.join("t1.txt"), "table body\n").expect("write txt");
        std::fs::write(dir.join("t1.csv"), "a,b\n1,2\n").expect("write csv");
        std::fs::write(dir.join("zz.txt"), "orphan\n").expect("write orphan");

        let mut m = Manifest { engine: engine_info(), tables: vec![] };
        m.tables.push(TableEntry {
            id: "t1".to_string(),
            title: "t".to_string(),
            seed: 1,
            scale: "full".to_string(),
            trials: 0,
            wall_s: 0.0,
            files: vec![
                FileDigest {
                    path: "t1.txt".to_string(),
                    sha256: crate::digest::sha256_hex(b"table body\n"),
                },
                FileDigest {
                    path: "t1.csv".to_string(),
                    sha256: crate::digest::sha256_hex(b"a,b\n1,2\n"),
                },
            ],
            quick_sha256: None,
        });

        let problems = check_digests(&m, &dir);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("zz.txt"), "{problems:?}");

        // Tamper with the csv: drift is reported with the table id.
        std::fs::write(dir.join("t1.csv"), "a,b\n1,3\n").expect("tamper");
        let problems = check_digests(&m, &dir);
        assert_eq!(problems.len(), 2, "{problems:?}");
        assert!(problems.iter().any(|p| p.starts_with("t1:") && p.contains("drifted")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn engine_semantics_mismatch_is_detected() {
        let mut m = sample();
        assert_eq!(check_engine_semantics(&m), None, "fresh manifest matches this build");
        for (k, v) in &mut m.engine {
            if k == "engine_semantics" {
                *v = "v0-from-the-past".to_string();
            }
        }
        let problem = check_engine_semantics(&m).expect("mismatch flagged");
        assert!(problem.contains("regen --all"), "{problem}");
        m.engine.retain(|(k, _)| k != "engine_semantics");
        assert!(check_engine_semantics(&m).is_some(), "missing field flagged");
    }

    #[test]
    fn quick_digest_is_stable_for_a_cheap_experiment() {
        let exp = crate::registry::find("t5").expect("t5 registered");
        let a = quick_digest(exp, 7, 2);
        let b = quick_digest(exp, 7, 1);
        assert_eq!(a, b, "quick digest must not depend on thread count");
        let c = quick_digest(exp, 8, 2);
        assert_ne!(a, c, "quick digest must depend on the seed");
    }
}
