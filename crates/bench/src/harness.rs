//! Minimal wall-clock benchmark harness.
//!
//! Each target is a closure run in a timing loop: one untimed warm-up
//! iteration, then repeated timed iterations until either
//! [`Bench::MEASUREMENT_BUDGET`] elapses or [`Bench::MAX_ITERS`] samples
//! are collected. Reported statistics are min / mean / max nanoseconds per
//! iteration. Wall-clock use is confined to this module by design — the
//! workspace's determinism lint forbids `Instant::now` in simulation code,
//! and benchmark timing is exactly the intended exception.

use std::time::{Duration, Instant};

/// A named-target benchmark runner with an optional substring filter.
pub struct Bench {
    filter: Option<String>,
    ran: usize,
}

impl Bench {
    /// Soft cap on the per-target measurement time.
    pub const MEASUREMENT_BUDGET: Duration = Duration::from_millis(1500);
    /// Hard cap on timed iterations per target.
    pub const MAX_ITERS: u32 = 25;

    /// Build from `std::env::args`: the first argument that is not a flag
    /// (Cargo passes `--bench`) is used as a substring filter on target
    /// names, mirroring `cargo bench <filter>`.
    pub fn from_args() -> Self {
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        Bench { filter, ran: 0 }
    }

    /// Run one named target unless filtered out. The closure's return value
    /// is consumed through [`std::hint::black_box`] so the optimizer cannot
    /// delete the measured work.
    // Benchmark timing is the workspace's one sanctioned wall-clock use.
    #[allow(clippy::disallowed_methods)]
    pub fn run<T>(&mut self, name: &str, mut f: impl FnMut() -> T) {
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return;
            }
        }
        std::hint::black_box(f()); // warm-up, untimed
        let budget_start = Instant::now();
        let mut samples: Vec<Duration> = Vec::new();
        while samples.len() < Self::MAX_ITERS as usize
            && (samples.is_empty() || budget_start.elapsed() < Self::MEASUREMENT_BUDGET)
        {
            let t0 = Instant::now();
            std::hint::black_box(f());
            samples.push(t0.elapsed());
        }
        let min = samples.iter().min().expect("at least one sample").as_nanos();
        let max = samples.iter().max().expect("at least one sample").as_nanos();
        let mean = samples.iter().map(|d| d.as_nanos()).sum::<u128>() / samples.len() as u128;
        println!(
            "{name:<44} {:>12} ns/iter (min {:>12}, max {:>12}, {} iters)",
            fmt_thousands(mean),
            fmt_thousands(min),
            fmt_thousands(max),
            samples.len()
        );
        self.ran += 1;
    }

    /// Print a trailing summary (number of targets executed).
    pub fn finish(self) {
        println!("\n{} benchmark target(s) executed", self.ran);
    }
}

fn fmt_thousands(mut v: u128) -> String {
    let mut groups = Vec::new();
    loop {
        let group = v % 1000;
        v /= 1000;
        if v == 0 {
            groups.push(group.to_string());
            break;
        }
        groups.push(format!("{group:03}"));
    }
    groups.reverse();
    groups.join(",")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thousands_formatting() {
        assert_eq!(fmt_thousands(0), "0");
        assert_eq!(fmt_thousands(999), "999");
        assert_eq!(fmt_thousands(1_000), "1,000");
        assert_eq!(fmt_thousands(1_234_567), "1,234,567");
    }

    #[test]
    fn filter_skips_targets() {
        let mut b = Bench { filter: Some("match-me".to_string()), ran: 0 };
        b.run("other", || 1);
        assert_eq!(b.ran, 0);
        b.run("yes-match-me-yes", || 1);
        assert_eq!(b.ran, 1);
    }
}
