//! CI smoke for the F9 scaling path: one giant blind-gossip cell at
//! `n = 2^22` run through the sharded executor.
//!
//! This is the cheapest configuration that still exercises everything the
//! full F9 sweep depends on past the direct-CSR threshold: the cycle-union
//! expander builder, the struct-of-arrays engine state at multi-million
//! node counts, and the deterministic parallel step path (`--threads`,
//! default 4). It asserts the run stabilizes and prints the wall clock so
//! CI logs show throughput drift; any panic or timeout fails the job. It
//! also gates memory: a sampled peak `VmRSS` above
//! [`BUDGET_BYTES_PER_NODE`] bytes per node exits 1.

use mtm_experiments::harness::{blind_gossip_rounds_threaded, TopoSpec};
use mtm_experiments::opts::ExpOpts;
use mtm_experiments::perf::{RssSampler, Stopwatch};
use mtm_graph::GraphFamily;

const SMOKE_N: usize = 1 << 22;
const MAX_ROUNDS: u64 = 1_000_000;
/// Peak resident memory allowed per node, 480 MiB at `n = 2^22`. The
/// process holds the graph, UIDs, node states, RNG streams and engine
/// arrays. This cell peaked at 612.5 MiB (153 B/node) while the engine
/// stored activation rounds, local rounds, 8-byte slots and unread `b = 0`
/// tags, and at 445.8 MiB (111 B/node) once it stopped (2-core Xeon host,
/// four worker threads).
const BUDGET_BYTES_PER_NODE: u64 = 120;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = ExpOpts::parse(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        eprintln!("usage: f9_smoke [--seed N] [--threads N]");
        std::process::exit(2);
    });
    if opts.threads == 0 {
        opts.threads = 4;
    }
    let spec = TopoSpec::Static { family: GraphFamily::Expander8, n: SMOKE_N };
    let sampler = RssSampler::start(50);
    let sw = Stopwatch::start();
    // Single trial, all threads inside the engine: the giant-cell routing
    // the full sweep uses past DIRECT_CSR_THRESHOLD.
    let results = blind_gossip_rounds_threaded(&spec, 1, opts.seed, 1, opts.threads, MAX_ROUNDS);
    let wall = sw.elapsed_secs();
    let rss = sampler.stop();
    let rounds = results[0].unwrap_or_else(|| {
        eprintln!("f9_smoke: blind gossip failed to stabilize within {MAX_ROUNDS} rounds");
        std::process::exit(1);
    });
    let mib = |b: u64| b as f64 / (1024.0 * 1024.0);
    let budget = BUDGET_BYTES_PER_NODE * SMOKE_N as u64;
    let peak = rss.map(|r| r.peak);
    if let Some(peak) = peak.filter(|&p| p > budget) {
        eprintln!(
            "f9_smoke: peak VmRSS {:.1} MiB ({:.1} B/node) exceeds the {BUDGET_BYTES_PER_NODE} B/node budget",
            mib(peak),
            peak as f64 / SMOKE_N as f64
        );
        std::process::exit(1);
    }
    println!(
        "f9_smoke ok: n={SMOKE_N} threads={} rounds={rounds} wall_s={wall:.2} peak_rss_mb={:.1} \
         budget_mb={:.1}",
        opts.threads,
        peak.map_or(-1.0, mib),
        mib(budget)
    );
}
