//! `mtm` — command line driver for the mobile telephone model workspace.
//!
//! Subcommands:
//!
//! * `mtm experiment <id|all> [opts]` — run one (or every) reproduced
//!   experiment (`mtm --help` lists the ids).
//! * `mtm elect <algo> <family> <n> [opts]` — one leader election run
//!   (`algo`: blind | bitconv | nonsync; `--detect-stuck` diagnoses
//!   frozen runs and exits 3).
//! * `mtm serve <family> <n> [opts]` — continuous leadership maintenance
//!   (epochs, heartbeats, re-election) under optional churn: `--rounds N`,
//!   `--timeout N` (0 = auto), `--churn CRASH,RECOVER`, `--loss P`,
//!   `--crash-leader R`, `--wedge-window W`. Exits 0 on a completed
//!   horizon, 3 when wedge diagnosis fires.
//!
//! `elect`, `serve` and `spread` accept `--threads N` to run the round
//! executor on N worker shards (0 = all cores). Output is bit-identical at
//! every thread count — the sharded executor is deterministic by
//! construction.
//!
//! `elect` and `spread` accept `--backend event` to drive the same
//! protocols with the discrete-event simulator instead of lockstep rounds:
//! per-link latencies and per-node clock drift from a seeded
//! [`LatencyModel`] (`--latency-spread S` scales the distributions;
//! `--max-rounds` bounds simulation ticks). Deterministic per seed.
//! * `mtm spread <algo> <family> <n> [opts]` — one rumor-spreading run
//!   (`algo`: push-pull | ppush | classical).
//! * `mtm graph <family> <n>` — print a family instance's statistics
//!   (`--export PATH` writes edge-list or JSON).
//! * `mtm trace <algo> <family> <n>` — one traced run, per-round CSV.
//!
//! `--graph-file PATH` substitutes a user topology for any `<family> <n>`.
//!
//! Common opts: `--seed N`, `--tau N` (relabeling churn every N ≥ 1
//! rounds; default static),
//! `--quick/--full`, `--trials N`, `--threads N`, `--csv PATH`.

use mtm_core::{
    BitConvergence, BlindGossip, MaintainedGossip, MaintenanceConfig, NonSyncBitConvergence, Ppush,
    PushPull, TagConfig, UidPool,
};
use mtm_engine::{
    ActivationSchedule, Engine, EventEngine, LatencyModel, ModelParams, RunStatus, ServiceConfig,
    ServiceStatus,
};
use mtm_experiments::ExpOpts;
use mtm_graph::dynamic::{BoxedTopology, RelabelingAdversary, StaticTopology};
use mtm_graph::{FaultConfig, FaultyTopology, GraphFamily, ScheduledCrashes};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("experiment") => cmd_experiment(&args[1..]),
        Some("elect") => cmd_elect(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("spread") => cmd_spread(&args[1..]),
        Some("graph") => cmd_graph(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("check") => mtm_check::cli::run(&args[1..]),
        Some("--help") | Some("-h") | None => {
            usage();
            0
        }
        Some(other) => {
            eprintln!("unknown subcommand: {other}");
            usage();
            2
        }
    };
    std::process::exit(code);
}

fn usage() {
    eprintln!("usage:");
    eprintln!("  mtm experiment <id|all> [--quick|--full] [--trials N] [--seed N] [--threads N] [--csv PATH]");
    eprintln!(
        "  mtm elect <blind|bitconv|nonsync> <family> <n> [--seed N] [--tau N] [--threads N] [--detect-stuck]"
    );
    eprintln!("            [--backend lockstep|event] [--latency-spread S]");
    eprintln!("  mtm serve <family> <n> [--seed N] [--rounds N] [--timeout N] [--churn C,R]");
    eprintln!("            [--loss P] [--crash-leader ROUND] [--wedge-window W] [--threads N]");
    eprintln!("  mtm spread <push-pull|ppush|classical> <family> <n> [--seed N] [--threads N]");
    eprintln!("            [--backend lockstep|event] [--latency-spread S]");
    eprintln!("  mtm graph <family> <n> [--seed N] [--export PATH]");
    eprintln!(
        "  mtm trace <blind|bitconv|nonsync> <family> <n> [--seed N] [--tau N] [--export CSV]"
    );
    eprintln!("  mtm check [--certify] [--protocol NAME] [options]   (see `mtm check --help`)");
    eprintln!("  (anywhere a <family> <n> pair appears, `--graph-file PATH` loads an");
    eprintln!("   edge-list or .json topology instead)");
    eprintln!();
    eprintln!("experiment ids: {}", mtm_experiments::ALL_IDS.join(" "));
    eprintln!(
        "families: {}",
        GraphFamily::ALL.iter().map(|f| f.name()).collect::<Vec<_>>().join(" ")
    );
}

fn cmd_experiment(args: &[String]) -> i32 {
    let Some(id) = args.first() else {
        eprintln!("experiment: missing id");
        return 2;
    };
    let opts = match ExpOpts::parse(&args[1..]) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    if id == "all" {
        for exp in mtm_experiments::registry::REGISTRY.iter() {
            // Each table needs its own CSV path, or every emission would
            // overwrite the previous one.
            let per_table = opts.with_csv_for(exp.id);
            let table = (exp.run)(&per_table);
            if let Err(e) = per_table.emit(&exp.display_id(), exp.title, &table) {
                eprintln!("error: {e}");
                return 1;
            }
        }
        return 0;
    }
    match mtm_experiments::registry::find(id) {
        Some(exp) => {
            let table = (exp.run)(&opts);
            match opts.emit(&exp.display_id(), exp.title, &table) {
                Ok(()) => 0,
                Err(e) => {
                    eprintln!("error: {e}");
                    1
                }
            }
        }
        None => {
            eprintln!(
                "unknown experiment id: {id} (expected one of {:?})",
                mtm_experiments::ALL_IDS
            );
            2
        }
    }
}

/// Where the topology comes from: a named family or a file.
enum GraphSource {
    Family(GraphFamily, usize),
    File(String),
}

impl GraphSource {
    fn build(&self, seed: u64) -> Result<mtm_graph::Graph, String> {
        match self {
            GraphSource::Family(_, n) if *n < 2 => Err(format!("n must be at least 2, got {n}")),
            GraphSource::Family(f, n) => Ok(f.build(*n, seed)),
            GraphSource::File(path) => {
                let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                if path.ends_with(".json") {
                    mtm_graph::io::from_json(&text)
                } else {
                    mtm_graph::io::from_edge_list(&text).map_err(|e| e.to_string())
                }
            }
        }
    }

    fn describe(&self) -> String {
        match self {
            GraphSource::Family(f, _) => f.name().to_string(),
            GraphSource::File(p) => p.clone(),
        }
    }
}

/// Which simulator drives the run.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Backend {
    /// Global synchronized rounds (the default; sequential or sharded).
    Lockstep,
    /// Discrete-event simulation with per-link latencies and no global
    /// round clock ([`EventEngine`]).
    Event,
}

/// Parsed `<family> <n>` (or `--graph-file PATH`) plus
/// `--seed/--tau/--max-rounds` flags.
struct RunArgs {
    source: GraphSource,
    seed: u64,
    tau: Option<u64>,
    max_rounds: u64,
    export: Option<String>,
    detect_stuck: bool,
    threads: usize,
    backend: Backend,
    /// Latency-distribution spread for the event backend
    /// ([`LatencyModel::multipeer`]).
    latency_spread: u64,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let (source, mut i) = if args.first().map(String::as_str) == Some("--graph-file") {
        let path = args.get(1).ok_or("--graph-file needs a path")?.clone();
        (GraphSource::File(path), 2)
    } else {
        let family = args.first().and_then(|s| GraphFamily::parse(s)).ok_or_else(|| {
            format!("expected a graph family or --graph-file, got {:?}", args.first())
        })?;
        let n: usize = args.get(1).ok_or("missing n")?.parse().map_err(|e| format!("n: {e}"))?;
        (GraphSource::Family(family, n), 2)
    };
    let mut seed = 42u64;
    let mut tau = None;
    let mut max_rounds = 500_000_000;
    let mut export = None;
    let mut detect_stuck = false;
    let mut threads = 1usize;
    let mut backend = Backend::Lockstep;
    let mut latency_spread = 8u64;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--tau" => {
                i += 1;
                let t: u64 = args
                    .get(i)
                    .ok_or("--tau needs a value")?
                    .parse()
                    .map_err(|e| format!("--tau: {e}"))?;
                if t == 0 {
                    return Err("--tau must be at least 1".into());
                }
                tau = Some(t);
            }
            "--max-rounds" => {
                i += 1;
                max_rounds = args
                    .get(i)
                    .ok_or("--max-rounds needs a value")?
                    .parse()
                    .map_err(|e| format!("--max-rounds: {e}"))?;
            }
            "--export" => {
                i += 1;
                export = Some(args.get(i).ok_or("--export needs a path")?.clone());
            }
            "--detect-stuck" => detect_stuck = true,
            "--threads" => {
                i += 1;
                threads = args
                    .get(i)
                    .ok_or("--threads needs a value")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?;
            }
            "--backend" => {
                i += 1;
                backend = match args.get(i).map(String::as_str) {
                    Some("lockstep") => Backend::Lockstep,
                    Some("event") => Backend::Event,
                    other => return Err(format!("--backend wants lockstep|event, got {other:?}")),
                };
            }
            "--latency-spread" => {
                i += 1;
                latency_spread = args
                    .get(i)
                    .ok_or("--latency-spread needs a value")?
                    .parse()
                    .map_err(|e| format!("--latency-spread: {e}"))?;
            }
            other => return Err(format!("unknown flag: {other}")),
        }
        i += 1;
    }
    if backend == Backend::Event {
        // The event backend runs on a static graph with its own timing
        // model; these lockstep-only flags would be silently meaningless.
        if tau.is_some() {
            return Err("--tau is lockstep-only (the event backend runs a static graph)".into());
        }
        if detect_stuck {
            return Err("--detect-stuck is lockstep-only".into());
        }
        if threads != 1 {
            return Err("--threads is lockstep-only (the event queue is inherently serial)".into());
        }
    }
    Ok(RunArgs {
        source,
        seed,
        tau,
        max_rounds,
        export,
        detect_stuck,
        threads,
        backend,
        latency_spread,
    })
}

fn build_topology(a: &RunArgs) -> Result<(BoxedTopology, usize, usize), String> {
    let g = a.source.build(a.seed)?;
    if !g.is_connected() {
        return Err("topology must be connected".to_string());
    }
    let n = g.node_count();
    let delta = g.max_degree();
    let topo: BoxedTopology = match a.tau {
        None => Box::new(StaticTopology::new(g)),
        Some(t) => Box::new(RelabelingAdversary::new(g, t, a.seed ^ 0xAD)),
    };
    Ok((topo, n, delta))
}

fn cmd_elect(args: &[String]) -> i32 {
    let Some(algo) = args.first().cloned() else {
        eprintln!("elect: missing algorithm");
        return 2;
    };
    let a = match parse_run_args(&args[1..]) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    if a.backend == Backend::Event {
        return cmd_elect_event(&algo, &a);
    }
    let (topo, n, delta) = match build_topology(&a) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let uids = UidPool::random(n, a.seed ^ 0x11D);
    let sched = ActivationSchedule::synchronized(n);
    println!(
        "electing a leader: algo={algo} graph={} n={n} Δ={delta} τ={} seed={}",
        a.source.describe(),
        a.tau.map_or("∞".to_string(), |t| t.to_string()),
        a.seed
    );
    // With `--detect-stuck`, a frozen run is diagnosed after `window`
    // unchanged rounds instead of burning the whole --max-rounds budget.
    // Bit-convergence state changes at most once per phase; blind gossip
    // has no phase structure, so it gets a flat generous window.
    macro_rules! run_elect {
        ($params:expr, $nodes:expr, $window:expr) => {{
            let mut e = Engine::new(topo, $params, sched, $nodes, a.seed);
            e.set_threads(a.threads);
            if a.detect_stuck {
                e.enable_stuck_detection($window);
            }
            let out = e.run_to_stabilization(a.max_rounds);
            (out, e.last_progress_round())
        }};
    }
    let (outcome, last_progress) = match algo.as_str() {
        "blind" => {
            run_elect!(ModelParams::mobile(0), BlindGossip::spawn(&uids), 4096)
        }
        "bitconv" => {
            let config = TagConfig::for_network(n, delta);
            let nodes = BitConvergence::spawn(&uids, config, a.seed ^ 0x7A6);
            run_elect!(ModelParams::mobile(1), nodes, 8 * config.phase_len().max(1))
        }
        "nonsync" => {
            let config = TagConfig::for_network(n, delta);
            let nodes = NonSyncBitConvergence::spawn(&uids, config, a.seed ^ 0x7A6);
            run_elect!(
                ModelParams::mobile(config.nonsync_tag_bits()),
                nodes,
                8 * config.phase_len().max(1)
            )
        }
        other => {
            eprintln!("unknown algorithm: {other} (expected blind|bitconv|nonsync)");
            return 2;
        }
    };
    match outcome.status {
        RunStatus::Stabilized => match (outcome.stabilized_round, outcome.winner) {
            (Some(round), Some(winner)) => {
                println!(
                    "stabilized in {round} rounds; leader UID {winner:#x}; {} proposals, {} connections ({:.1}% success)",
                    outcome.metrics.proposals,
                    outcome.metrics.connections,
                    100.0 * outcome.metrics.proposal_success_rate()
                );
                0
            }
            (round, winner) => {
                // Stabilized without a round or winner breaks the
                // RunOutcome contract — report it instead of panicking.
                println!(
                    "stabilized, but the outcome is incomplete (round {round:?}, winner \
                     {winner:?}) — harness invariant violated, treating as failure"
                );
                1
            }
        },
        RunStatus::Stuck(report) => {
            println!(
                "stuck: no state change since round {} (detected at round {}, window {})",
                report.fixed_since, report.detected_round, report.window
            );
            if report.idle_connections == 0 {
                println!(
                    "diagnosis: zero connections over the whole window — a fixed point; \
                     the run would never stabilize (e.g. a tag-collision deadlock)"
                );
            } else {
                println!(
                    "diagnosis: {} connections during the window changed no node state — \
                     likely a fixed point under a monotone protocol",
                    report.idle_connections
                );
            }
            3
        }
        RunStatus::TimedOut => {
            println!("did not stabilize within {} rounds", a.max_rounds);
            if let Some(r) = last_progress {
                println!("diagnosis: last state change at round {r} — slow but not provably stuck");
            }
            1
        }
    }
}

/// `mtm elect --backend event`: the same election protocols driven by the
/// discrete-event simulator — per-link latencies, per-node clock drift, no
/// global round. `--max-rounds` bounds simulation *ticks* here.
fn cmd_elect_event(algo: &str, a: &RunArgs) -> i32 {
    let g = match a.source.build(a.seed) {
        Ok(g) if g.is_connected() => g,
        Ok(_) => {
            eprintln!("error: topology must be connected");
            return 2;
        }
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let n = g.node_count();
    let delta = g.max_degree();
    let uids = UidPool::random(n, a.seed ^ 0x11D);
    let latency = LatencyModel::multipeer(a.latency_spread);
    println!(
        "electing a leader: algo={algo} backend=event graph={} n={n} Δ={delta} spread={} seed={}",
        a.source.describe(),
        a.latency_spread,
        a.seed
    );
    macro_rules! run_event {
        ($params:expr, $nodes:expr) => {{
            let mut e = EventEngine::new(g, $params, $nodes, a.seed, latency);
            e.run_to_stabilization(a.max_rounds)
        }};
    }
    let out = match algo {
        "blind" => run_event!(ModelParams::mobile(0), BlindGossip::spawn(&uids)),
        "bitconv" => {
            let config = TagConfig::for_network(n, delta);
            run_event!(ModelParams::mobile(1), BitConvergence::spawn(&uids, config, a.seed ^ 0x7A6))
        }
        "nonsync" => {
            let config = TagConfig::for_network(n, delta);
            run_event!(
                ModelParams::mobile(config.nonsync_tag_bits()),
                NonSyncBitConvergence::spawn(&uids, config, a.seed ^ 0x7A6)
            )
        }
        other => {
            eprintln!("unknown algorithm: {other} (expected blind|bitconv|nonsync)");
            return 2;
        }
    };
    match (out.completed_at, out.winner) {
        (Some(t), Some(winner)) => {
            println!(
                "stabilized at tick {t} (mean local round {:.1}); leader UID {winner:#x}; \
                 {} proposals, {} connections, {} events",
                out.mean_local_rounds, out.metrics.proposals, out.metrics.connections, out.events
            );
            0
        }
        _ => {
            println!("did not stabilize within {} ticks", a.max_rounds);
            1
        }
    }
}

/// Parsed arguments for `mtm serve`.
struct ServeArgs {
    source: GraphSource,
    seed: u64,
    rounds: u64,
    /// Heartbeat-staleness timeout; 0 = auto (`32·⌈log₂ n⌉`, comfortably
    /// above the measured steady-state gossip staleness tail).
    timeout: u64,
    churn: Option<(f64, f64)>,
    loss: f64,
    crash_leader: Option<u64>,
    wedge_window: u64,
    threads: usize,
}

fn parse_serve_args(args: &[String]) -> Result<ServeArgs, String> {
    let (source, mut i) = if args.first().map(String::as_str) == Some("--graph-file") {
        let path = args.get(1).ok_or("--graph-file needs a path")?.clone();
        (GraphSource::File(path), 2)
    } else {
        let family = args.first().and_then(|s| GraphFamily::parse(s)).ok_or_else(|| {
            format!("expected a graph family or --graph-file, got {:?}", args.first())
        })?;
        let n: usize = args.get(1).ok_or("missing n")?.parse().map_err(|e| format!("n: {e}"))?;
        (GraphSource::Family(family, n), 2)
    };
    let mut a = ServeArgs {
        source,
        seed: 42,
        rounds: 2000,
        timeout: 0,
        churn: None,
        loss: 0.0,
        crash_leader: None,
        wedge_window: 0,
        threads: 1,
    };
    let take = |args: &[String], i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i).cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                a.seed =
                    take(args, &mut i, "--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--rounds" => {
                a.rounds = take(args, &mut i, "--rounds")?
                    .parse()
                    .map_err(|e| format!("--rounds: {e}"))?;
            }
            "--timeout" => {
                a.timeout = take(args, &mut i, "--timeout")?
                    .parse()
                    .map_err(|e| format!("--timeout: {e}"))?;
            }
            "--churn" => {
                let v = take(args, &mut i, "--churn")?;
                let (c, r) = v
                    .split_once(',')
                    .ok_or_else(|| format!("--churn wants CRASH,RECOVER, got {v:?}"))?;
                let crash: f64 = c.parse().map_err(|e| format!("--churn crash: {e}"))?;
                let recover: f64 = r.parse().map_err(|e| format!("--churn recover: {e}"))?;
                if !(0.0..=1.0).contains(&crash) || !(0.0..=1.0).contains(&recover) {
                    return Err("--churn probabilities must be in [0, 1]".to_string());
                }
                a.churn = Some((crash, recover));
            }
            "--loss" => {
                a.loss =
                    take(args, &mut i, "--loss")?.parse().map_err(|e| format!("--loss: {e}"))?;
                if !(0.0..=1.0).contains(&a.loss) {
                    return Err("--loss must be in [0, 1]".to_string());
                }
            }
            "--crash-leader" => {
                a.crash_leader = Some(
                    take(args, &mut i, "--crash-leader")?
                        .parse()
                        .map_err(|e| format!("--crash-leader: {e}"))?,
                );
            }
            "--wedge-window" => {
                a.wedge_window = take(args, &mut i, "--wedge-window")?
                    .parse()
                    .map_err(|e| format!("--wedge-window: {e}"))?;
            }
            "--threads" => {
                a.threads = take(args, &mut i, "--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?;
            }
            other => return Err(format!("unknown flag: {other}")),
        }
        i += 1;
    }
    Ok(a)
}

/// `mtm serve`: run the maintenance protocol as a long-lived service —
/// elect, heartbeat, detect failures, re-elect — under optional fault
/// injection, and report the service-quality counters. Exit codes: 0 the
/// horizon completed, 2 usage error, 3 the wedge detector cut the run
/// short (frozen disagreeing state that no future round can change).
fn cmd_serve(args: &[String]) -> i32 {
    let a = match parse_serve_args(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let g = match a.source.build(a.seed) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    if !g.is_connected() {
        eprintln!("error: topology must be connected");
        return 2;
    }
    let n = g.node_count();
    let uids = UidPool::random(n, a.seed ^ 0x11D);
    // Auto timeout: the detector must out-wait the steady-state heartbeat
    // staleness tail, which grows with the gossip spread time (measured
    // ≈ 42 rounds at n = 64 up to ≈ 83 at n = 2¹⁷ on 8-regular
    // expanders). 32·⌈log₂ n⌉ keeps a 3-4× margin across that range.
    let timeout = if a.timeout == 0 {
        32 * (usize::BITS - n.max(2).next_power_of_two().leading_zeros() - 1) as u64
    } else {
        a.timeout
    };
    if a.wedge_window > 0 && a.wedge_window <= timeout {
        eprintln!(
            "error: --wedge-window must exceed the timeout ({timeout}): a pending \
             failure detector is a ticking state change the fingerprint cannot see"
        );
        return 2;
    }
    // Compose the fault layers around the static graph; the leader crash
    // schedule targets the initial min-UID holder (the node that wins the
    // first election).
    let leader_node = uids.min_uid_node() as mtm_graph::NodeId;
    let base: BoxedTopology = match a.churn {
        Some((crash, recover)) => Box::new(FaultyTopology::new(
            StaticTopology::new(g),
            FaultConfig::crashes(crash, recover),
            a.seed ^ 0xFA,
        )),
        None => Box::new(StaticTopology::new(g)),
    };
    let topo: BoxedTopology = match a.crash_leader {
        Some(round) if round >= 1 => {
            Box::new(ScheduledCrashes::new(base, vec![(leader_node, round, u64::MAX)]))
        }
        Some(_) => {
            eprintln!("error: --crash-leader round must be ≥ 1");
            return 2;
        }
        None => base,
    };
    println!(
        "serving: graph={} n={n} seed={} rounds={} timeout={timeout} churn={} loss={} crash-leader={} wedge-window={}",
        a.source.describe(),
        a.seed,
        a.rounds,
        a.churn.map_or("off".to_string(), |(c, r)| format!("{c},{r}")),
        a.loss,
        a.crash_leader.map_or("off".to_string(), |r| format!("@{r}")),
        if a.wedge_window == 0 { "off".to_string() } else { a.wedge_window.to_string() },
    );
    let mut e = Engine::new(
        topo,
        ModelParams::mobile(0),
        ActivationSchedule::synchronized(n),
        MaintainedGossip::spawn(&uids, MaintenanceConfig::new(timeout)),
        a.seed,
    );
    e.set_threads(a.threads);
    if a.loss > 0.0 {
        e.set_proposal_loss(a.loss);
    }
    let cfg = ServiceConfig::rounds(a.rounds).with_wedge_window(a.wedge_window);
    let out = e.run_service(&cfg);
    println!(
        "service over {} rounds: {} re-elections, {} leaderless, {} dual-leader, {} stable (max {} concurrent claimants)",
        out.rounds,
        out.service.re_elections,
        out.service.leaderless_rounds,
        out.service.dual_leader_rounds,
        out.service.stable_rounds,
        out.service.max_concurrent_claimants,
    );
    for ep in &out.epochs {
        match (ep.agreed_round, ep.leader) {
            (Some(r), Some(l)) => println!(
                "  epoch {}: started round {}, agreed round {r}, leader UID {l:#x}",
                ep.epoch, ep.started_round
            ),
            _ => println!(
                "  epoch {}: started round {}, never fully agreed",
                ep.epoch, ep.started_round
            ),
        }
    }
    match out.final_leader {
        Some(l) => println!("final: epoch {}, leader UID {l:#x}", out.final_epoch),
        None => println!("final: epoch {}, no network-wide agreement", out.final_epoch),
    }
    match out.status {
        ServiceStatus::Completed => 0,
        ServiceStatus::Wedged(report) => {
            println!(
                "wedged: no durable state change since round {} (detected at round {}, window {}) with the up participants disagreeing",
                report.fixed_since, report.detected_round, report.window
            );
            if report.idle_connections == 0 {
                println!("diagnosis: zero connections over the window — the topology is partitioned or dead");
            } else {
                println!(
                    "diagnosis: {} connections during the window changed nothing — a disagreeing fixed point",
                    report.idle_connections
                );
            }
            3
        }
    }
}

fn cmd_spread(args: &[String]) -> i32 {
    let Some(algo) = args.first().cloned() else {
        eprintln!("spread: missing algorithm");
        return 2;
    };
    let a = match parse_run_args(&args[1..]) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    if a.backend == Backend::Event {
        return cmd_spread_event(&algo, &a);
    }
    let (topo, n, delta) = match build_topology(&a) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let sched = ActivationSchedule::synchronized(n);
    println!(
        "spreading a rumor: algo={algo} graph={} n={n} Δ={delta} seed={}",
        a.source.describe(),
        a.seed
    );
    // Every arm goes through set_threads — `--threads` used to be parsed
    // and then silently dropped here, unlike elect/serve.
    macro_rules! run_spread {
        ($params:expr, $nodes:expr) => {{
            let mut e = Engine::new(topo, $params, sched, $nodes, a.seed);
            e.set_threads(a.threads);
            e.run_to_full_information(a.max_rounds)
        }};
    }
    let outcome = match algo.as_str() {
        "push-pull" => run_spread!(ModelParams::mobile(0), PushPull::spawn(n, 1)),
        "classical" => run_spread!(ModelParams::classical(), PushPull::spawn(n, 1)),
        "ppush" => run_spread!(ModelParams::mobile(1), Ppush::spawn(n, 1)),
        other => {
            eprintln!("unknown algorithm: {other} (expected push-pull|ppush|classical)");
            return 2;
        }
    };
    match outcome.stabilized_round {
        Some(r) => {
            println!(
                "all {n} nodes informed after {r} rounds; {} connections",
                outcome.metrics.connections
            );
            0
        }
        None => {
            println!("rumor incomplete after {} rounds", a.max_rounds);
            1
        }
    }
}

/// `mtm spread --backend event`: PUSH-PULL / Ppush under the discrete-event
/// simulator. The classical baseline needs accept-all connections, which
/// the event backend does not model.
fn cmd_spread_event(algo: &str, a: &RunArgs) -> i32 {
    let g = match a.source.build(a.seed) {
        Ok(g) if g.is_connected() => g,
        Ok(_) => {
            eprintln!("error: topology must be connected");
            return 2;
        }
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let n = g.node_count();
    let delta = g.max_degree();
    let latency = LatencyModel::multipeer(a.latency_spread);
    println!(
        "spreading a rumor: algo={algo} backend=event graph={} n={n} Δ={delta} spread={} seed={}",
        a.source.describe(),
        a.latency_spread,
        a.seed
    );
    let out = match algo {
        "push-pull" => {
            let mut e =
                EventEngine::new(g, ModelParams::mobile(0), PushPull::spawn(n, 1), a.seed, latency);
            e.run_to_full_information(a.max_rounds)
        }
        "ppush" => {
            let mut e =
                EventEngine::new(g, ModelParams::mobile(1), Ppush::spawn(n, 1), a.seed, latency);
            e.run_to_full_information(a.max_rounds)
        }
        "classical" => {
            eprintln!(
                "error: the classical baseline (accept-all) has no event-backend model; \
                 use --backend lockstep"
            );
            return 2;
        }
        other => {
            eprintln!("unknown algorithm: {other} (expected push-pull|ppush|classical)");
            return 2;
        }
    };
    match out.completed_at {
        Some(t) => {
            println!(
                "all {n} nodes informed at tick {t} (mean local round {:.1}); {} connections, {} events",
                out.mean_local_rounds, out.metrics.connections, out.events
            );
            0
        }
        None => {
            println!("rumor incomplete after {} ticks", a.max_rounds);
            1
        }
    }
}

fn cmd_graph(args: &[String]) -> i32 {
    let a = match parse_run_args(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let g = match a.source.build(a.seed) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let n = g.node_count();
    if let Some(path) = &a.export {
        let text = if path.ends_with(".json") {
            mtm_graph::io::to_json(&g)
        } else {
            mtm_graph::io::to_edge_list(&g)
        };
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("error: failed to write {path}: {e}");
            return 1;
        }
        println!("exported to {path}");
    }
    println!("graph:       {}", a.source.describe());
    println!("nodes:       {n}");
    println!("edges:       {}", g.edge_count());
    println!("max degree:  {}", g.max_degree());
    println!("min degree:  {}", g.min_degree());
    println!("connected:   {}", g.is_connected());
    if let GraphSource::Family(family, _) = &a.source {
        if let Some(alpha) = family.known_alpha(n) {
            println!("α (analytic): {alpha:.6}");
        }
    }
    if n <= 20 {
        println!("α (exact):    {:.6}", mtm_graph::expansion::alpha_exact(&g));
    } else {
        println!(
            "α (sampled ≤): {:.6}",
            mtm_graph::expansion::alpha_upper_bound_sampled(&g, 30, a.seed)
        );
    }
    if let Some(d) = g.diameter() {
        println!("diameter:    {d}");
    }
    0
}

/// `mtm trace`: run one leader election with per-round tracing and dump a
/// CSV of (round, active, proposals, connections) plus the connection log
/// summary.
fn cmd_trace(args: &[String]) -> i32 {
    let Some(algo) = args.first().cloned() else {
        eprintln!("trace: missing algorithm");
        return 2;
    };
    let a = match parse_run_args(&args[1..]) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let (topo, n, delta) = match build_topology(&a) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let uids = UidPool::random(n, a.seed ^ 0x11D);
    let sched = ActivationSchedule::synchronized(n);
    macro_rules! run_traced {
        ($params:expr, $nodes:expr) => {{
            let mut e = Engine::new(topo, $params, sched, $nodes, a.seed);
            e.enable_tracing();
            e.enable_connection_log();
            let out = e.run_to_stabilization(a.max_rounds);
            let mut csv = String::from("round,active,proposals,connections\n");
            for t in e.traces() {
                csv.push_str(&format!(
                    "{},{},{},{}\n",
                    t.round, t.active, t.proposals, t.connections
                ));
            }
            (out, csv, e.connection_log().len())
        }};
    }
    let (outcome, csv, logged) = match algo.as_str() {
        "blind" => run_traced!(ModelParams::mobile(0), BlindGossip::spawn(&uids)),
        "bitconv" => {
            let config = TagConfig::for_network(n, delta);
            run_traced!(
                ModelParams::mobile(1),
                BitConvergence::spawn(&uids, config, a.seed ^ 0x7A6)
            )
        }
        "nonsync" => {
            let config = TagConfig::for_network(n, delta);
            run_traced!(
                ModelParams::mobile(config.nonsync_tag_bits()),
                NonSyncBitConvergence::spawn(&uids, config, a.seed ^ 0x7A6)
            )
        }
        other => {
            eprintln!("unknown algorithm: {other} (expected blind|bitconv|nonsync)");
            return 2;
        }
    };
    match &a.export {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &csv) {
                eprintln!("error: failed to write {path}: {e}");
                return 1;
            }
            println!("trace written to {path} ({} rows)", csv.lines().count() - 1);
        }
        None => print!("{csv}"),
    }
    match outcome.stabilized_round {
        Some(r) => {
            eprintln!("stabilized in {r} rounds ({logged} connections logged)");
            0
        }
        None => {
            eprintln!("did not stabilize within {} rounds", a.max_rounds);
            1
        }
    }
}
