//! Wall-clock and memory measurement helpers for throughput reporting.
//!
//! The simulation crates (`core`, `engine`, `apps`) are forbidden from
//! touching wall clocks by the determinism lint; measurement lives here, in
//! the experiment layer, where timing is the point (F9's scaling table and
//! the `mtm-bench` throughput harness both report wall seconds and peak
//! RSS per cell). None of this feeds back into simulation state.

use std::time::Instant;

/// A started wall-clock timer.
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Start timing now.
    // Wall-clock use is sanctioned in the experiment layer (measurement
    // only, never simulation input).
    #[allow(clippy::disallowed_methods)]
    pub fn start() -> Stopwatch {
        Stopwatch(Instant::now())
    }

    /// Seconds elapsed since [`Stopwatch::start`].
    pub fn elapsed_secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`). `None` off Linux or if the field is missing.
///
/// The value is a process-wide high-water mark: it is monotone over the
/// process lifetime, so per-cell readings in a multi-cell run report the
/// peak *up to and including* that cell.
pub fn peak_rss_bytes() -> Option<u64> {
    read_proc_status_kb("VmHWM:")
}

/// Current resident set size of this process in bytes (`VmRSS` from
/// `/proc/self/status`). Unlike [`peak_rss_bytes`] this is an instantaneous
/// reading: it falls when memory is freed, which is what makes per-cell
/// attribution possible (see [`RssSampler`]).
fn current_rss_bytes() -> Option<u64> {
    read_proc_status_kb("VmRSS:")
}

fn read_proc_status_kb(field: &str) -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        for line in status.lines() {
            if let Some(rest) = line.strip_prefix(field) {
                let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
                return Some(kb * 1024);
            }
        }
        None
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = field;
        None
    }
}

/// What an [`RssSampler`] saw over its region, in bytes of `VmRSS`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RssReading {
    /// The process's resident set when sampling started.
    pub start: u64,
    /// The largest resident set sampled over the region.
    pub peak: u64,
}

impl RssReading {
    /// What the region added on top of what the process already held:
    /// `peak − start`.
    pub fn growth(&self) -> u64 {
        self.peak.saturating_sub(self.start)
    }
}

/// Samples `VmRSS` on a background thread and reports the starting value
/// and the maximum seen over a measured region.
///
/// `VmHWM` (what [`peak_rss_bytes`] reads) is a process-*lifetime*
/// high-water mark: in a multi-cell run, every cell after the hungriest
/// one re-reports that earlier peak. Sampling `VmRSS` between `start` and
/// `stop` bounds the reading to the region, and [`RssReading::growth`]
/// also subtracts what the process held when the region began: heap an
/// earlier cell freed but the allocator kept resident is not charged to
/// the next cell. The thread only reads `/proc` and two atomics — it
/// cannot touch simulation state, so determinism is unaffected.
pub struct RssSampler {
    start: u64,
    // measurement-only thread, no simulation state.
    #[allow(clippy::disallowed_types)]
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    // measurement-only accumulator.
    #[allow(clippy::disallowed_types)]
    peak: std::sync::Arc<std::sync::atomic::AtomicU64>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl RssSampler {
    /// Start sampling at roughly `interval_ms` millisecond resolution. An
    /// immediate first sample, which is also the reading's `start`, is
    /// taken before returning, so even regions shorter than one interval
    /// get a reading.
    pub fn start(interval_ms: u64) -> RssSampler {
        use std::sync::atomic::Ordering;
        // measurement-only thread state.
        #[allow(clippy::disallowed_types)]
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let start = current_rss_bytes().unwrap_or(0);
        // measurement-only accumulator.
        #[allow(clippy::disallowed_types)]
        let peak = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(start));
        let (stop2, peak2) = (stop.clone(), peak.clone());
        // measurement only, joined in stop().
        #[allow(clippy::disallowed_methods)]
        let handle = std::thread::spawn(move || {
            while !stop2.load(Ordering::Relaxed) {
                if let Some(rss) = current_rss_bytes() {
                    peak2.fetch_max(rss, Ordering::Relaxed);
                }
                std::thread::sleep(std::time::Duration::from_millis(interval_ms));
            }
        });
        RssSampler { start, stop, peak, handle: Some(handle) }
    }

    /// Stop sampling and return the region's starting and peak `VmRSS`
    /// (the peak includes one final sample). `None` when `/proc` sampling
    /// is unavailable (non-Linux).
    pub fn stop(mut self) -> Option<RssReading> {
        use std::sync::atomic::Ordering;
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        if let Some(rss) = current_rss_bytes() {
            self.peak.fetch_max(rss, Ordering::Relaxed);
        }
        let peak = self.peak.load(Ordering::Relaxed);
        (self.start > 0).then_some(RssReading { start: self.start, peak })
    }
}

impl Drop for RssSampler {
    fn drop(&mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_moves_forward() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_secs();
        let b = sw.elapsed_secs();
        assert!(a >= 0.0 && b >= a);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn peak_rss_is_positive_on_linux() {
        let rss = peak_rss_bytes().expect("VmHWM available on Linux");
        assert!(rss > 0);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn rss_sampler_sees_a_transient_allocation() {
        let sampler = RssSampler::start(1);
        // Touch ~32 MB so VmRSS actually rises while the sampler runs.
        let block: Vec<u8> = (0..32 << 20).map(|i| (i % 251) as u8).collect();
        std::thread::sleep(std::time::Duration::from_millis(10));
        let peak = sampler.stop().expect("VmRSS available on Linux").peak;
        // Keep the optimiser from deleting the block nothing else reads.
        drop(std::hint::black_box(block));
        let now = current_rss_bytes().expect("VmRSS available on Linux");
        assert!(peak > 0 && now > 0);
        // The sampled peak must be at least the block's size above zero —
        // i.e. it genuinely observed the allocation-era RSS.
        assert!(peak >= (32 << 20), "sampled peak {peak} missed the 32 MB block");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn current_rss_tracks_process_not_lifetime_peak() {
        let current = current_rss_bytes().expect("VmRSS available on Linux");
        let peak = peak_rss_bytes().expect("VmHWM available on Linux");
        assert!(current <= peak, "instantaneous RSS {current} above lifetime peak {peak}");
    }
}
