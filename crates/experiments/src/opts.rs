//! Options shared by every experiment run (`mtm experiment <id>`, `regen`).

/// Scale of an experiment run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// CI scale: small sizes, few trials, seconds per experiment.
    Quick,
    /// Paper scale: the sweeps recorded in EXPERIMENTS.md.
    Full,
}

/// Options shared by every experiment.
#[derive(Clone, Debug)]
pub struct ExpOpts {
    /// Trials per configuration (0 = use the experiment's default).
    pub trials: usize,
    /// Base seed; every trial derives its own.
    pub seed: u64,
    /// Worker threads (0 = available parallelism).
    pub threads: usize,
    /// Quick or full sweeps.
    pub scale: Scale,
    /// Optional path to also write the table as CSV.
    pub csv: Option<String>,
}

impl Default for ExpOpts {
    fn default() -> Self {
        ExpOpts { trials: 0, seed: 0xC0FFEE, threads: 0, scale: Scale::Full, csv: None }
    }
}

impl ExpOpts {
    /// Quick-scale options for tests.
    pub fn quick() -> Self {
        ExpOpts { scale: Scale::Quick, ..Default::default() }
    }

    /// Trials to run, with a per-experiment default.
    pub fn trials_or(&self, default: usize) -> usize {
        if self.trials == 0 {
            default
        } else {
            self.trials
        }
    }

    /// Parse from command-line arguments (everything after the binary
    /// name). Recognized: `--quick`, `--trials N`, `--seed N`,
    /// `--threads N`, `--csv PATH`. Returns an error message for unknown
    /// flags.
    pub fn parse(args: &[String]) -> Result<ExpOpts, String> {
        let mut opts = ExpOpts::default();
        let mut i = 0;
        let take_value = |args: &[String], i: &mut usize, flag: &str| -> Result<String, String> {
            *i += 1;
            args.get(*i).cloned().ok_or_else(|| format!("{flag} needs a value"))
        };
        while i < args.len() {
            match args[i].as_str() {
                "--quick" => opts.scale = Scale::Quick,
                "--full" => opts.scale = Scale::Full,
                "--trials" => {
                    opts.trials = take_value(args, &mut i, "--trials")?
                        .parse()
                        .map_err(|e| format!("--trials: {e}"))?;
                }
                "--seed" => {
                    opts.seed = take_value(args, &mut i, "--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?;
                }
                "--threads" => {
                    opts.threads = take_value(args, &mut i, "--threads")?
                        .parse()
                        .map_err(|e| format!("--threads: {e}"))?;
                }
                "--csv" => opts.csv = Some(take_value(args, &mut i, "--csv")?),
                other => return Err(format!("unknown flag: {other}")),
            }
            i += 1;
        }
        Ok(opts)
    }

    /// Print the table; write CSV if requested. The `(csv written to …)`
    /// line is only printed when the write actually succeeded; a failed
    /// write is returned as an error so callers can exit nonzero instead
    /// of misreporting success.
    pub fn emit(
        &self,
        id: &str,
        title: &str,
        table: &mtm_analysis::table::Table,
    ) -> Result<(), String> {
        println!("== {id}: {title} ==");
        println!("{}", table.render());
        if let Some(path) = &self.csv {
            std::fs::write(path, table.to_csv())
                .map_err(|e| format!("failed to write {path}: {e}"))?;
            println!("(csv written to {path})");
        }
        Ok(())
    }

    /// A copy of these options whose CSV path is made unique to `id` by
    /// inserting `-<id>` before the extension (`out.csv` → `out-t1.csv`).
    /// Multi-table emitters (the CLI's `experiment all` mode) must use
    /// this so each table gets its own file instead of every table
    /// clobbering the same path.
    pub fn with_csv_for(&self, id: &str) -> ExpOpts {
        let mut opts = self.clone();
        opts.csv = self.csv.as_ref().map(|path| {
            let id = id.to_lowercase();
            match path.rsplit_once('.') {
                // Only treat the suffix as an extension if it looks like
                // one (no path separator after the dot).
                Some((stem, ext)) if !ext.contains('/') => format!("{stem}-{id}.{ext}"),
                _ => format!("{path}-{id}"),
            }
        });
        opts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parse_defaults() {
        let o = ExpOpts::parse(&[]).expect("empty flag list parses to defaults");
        assert_eq!(o.scale, Scale::Full);
        assert_eq!(o.trials, 0);
    }

    #[test]
    fn parse_flags() {
        let o = ExpOpts::parse(&s(&["--quick", "--trials", "7", "--seed", "99", "--threads", "2"]))
            .expect("all flags in this list are valid");
        assert_eq!(o.scale, Scale::Quick);
        assert_eq!(o.trials, 7);
        assert_eq!(o.seed, 99);
        assert_eq!(o.threads, 2);
    }

    #[test]
    fn parse_csv_path() {
        let o = ExpOpts::parse(&s(&["--csv", "/tmp/x.csv"])).expect("--csv with a path is valid");
        assert_eq!(o.csv.as_deref(), Some("/tmp/x.csv"));
    }

    #[test]
    fn parse_rejects_unknown() {
        assert!(ExpOpts::parse(&s(&["--bogus"])).is_err());
        assert!(ExpOpts::parse(&s(&["--trials"])).is_err());
        assert!(ExpOpts::parse(&s(&["--trials", "abc"])).is_err());
    }

    #[test]
    fn emit_reports_csv_write_failure() {
        let mut t = mtm_analysis::table::Table::new(vec!["x"]);
        t.push_row(vec!["1"]);
        let mut o = ExpOpts {
            csv: Some("/nonexistent-dir/deep/table.csv".to_string()),
            ..ExpOpts::default()
        };
        let err = o.emit("T0", "emit failure propagates", &t).expect_err("write must fail");
        assert!(err.contains("/nonexistent-dir/deep/table.csv"), "error names the path: {err}");
        o.csv = None;
        o.emit("T0", "no csv requested", &t).expect("plain emit succeeds");
    }

    #[test]
    fn with_csv_for_derives_per_table_paths() {
        let mut o = ExpOpts { csv: Some("results/all.csv".to_string()), ..ExpOpts::default() };
        assert_eq!(o.with_csv_for("t1").csv.as_deref(), Some("results/all-t1.csv"));
        assert_eq!(o.with_csv_for("F3").csv.as_deref(), Some("results/all-f3.csv"));
        // Distinct tables never share a path.
        assert_ne!(o.with_csv_for("t1").csv, o.with_csv_for("t2").csv);
        // No extension: the id is appended.
        o.csv = Some("out/tables".to_string());
        assert_eq!(o.with_csv_for("a1").csv.as_deref(), Some("out/tables-a1"));
        // A dot in a directory name is not an extension.
        o.csv = Some("out.d/tables".to_string());
        assert_eq!(o.with_csv_for("a1").csv.as_deref(), Some("out.d/tables-a1"));
        // No CSV requested: still none.
        o.csv = None;
        assert_eq!(o.with_csv_for("t1").csv, None);
    }

    #[test]
    fn trials_or_default() {
        let mut o = ExpOpts::default();
        assert_eq!(o.trials_or(5), 5);
        o.trials = 2;
        assert_eq!(o.trials_or(5), 2);
    }
}
