//! `mtm` — command line driver for the mobile telephone model workspace.
//!
//! Subcommands and the flags each accepts; any other flag is a usage error
//! (exit 2):
//!
//! * `mtm experiment <id|all>` — run one (or every) reproduced experiment
//!   (`mtm --help` lists the ids): `--quick|--full`, `--trials N`,
//!   `--seed N`, `--threads N`, `--csv PATH`.
//! * `mtm elect <blind|bitconv|nonsync> <family> <n>` — one leader election
//!   run: `--seed N`, `--tau N`, `--max-rounds N`, `--threads N`,
//!   `--detect-stuck` (diagnoses a frozen run and exits 3), `--backend
//!   lockstep|event`, `--latency-spread S`.
//! * `mtm spread <push-pull|ppush|classical> <family> <n>` — one
//!   rumor-spreading run: the `elect` flags except `--detect-stuck`.
//! * `mtm serve <family> <n>` — continuous leadership maintenance (epochs,
//!   heartbeats, re-election) under optional churn: `--seed N`,
//!   `--rounds N`, `--timeout N` (0 = auto, else ≥ 2), `--churn
//!   CRASH,RECOVER`, `--loss P`, `--crash-leader R`, `--wedge-window W`,
//!   `--threads N`. Exits 0 on a completed horizon, 3 when wedge diagnosis
//!   fires.
//! * `mtm trace <blind|bitconv|nonsync> <family> <n>` — one traced lockstep
//!   election, per-round CSV: `--seed N`, `--tau N`, `--max-rounds N`,
//!   `--export CSV`.
//! * `mtm graph <family> <n>` — a topology's statistics: `--seed N`,
//!   `--export PATH` (edge-list, or JSON for a `.json` path).
//! * `mtm check` — the exhaustive model checker (`mtm check --help`).
//!
//! `--graph-file PATH` substitutes a user topology (edge-list or `.json`)
//! for any `<family> <n>`. Either way the graph needs at least 2 nodes, and
//! every command but `graph` needs it connected.
//!
//! `--tau N` relabels the topology every N ≥ 1 rounds (default static).
//! `--threads N` runs the round executor on N worker shards (0 = all
//! cores); output is bit-identical at every thread count.
//!
//! `--backend event` drives `elect` and `spread` with the discrete-event
//! simulator instead of lockstep rounds: per-link latencies and per-node
//! clock drift from a seeded [`LatencyModel`] whose distributions
//! `--latency-spread S` scales (default 8, at most [`MAX_LATENCY_SPREAD`];
//! rejected without `--backend event`). `--max-rounds` then bounds
//! simulation ticks. The lockstep-only `--tau`, `--detect-stuck` and
//! `--threads` (other than 1) are rejected under it. Deterministic per seed.

use mtm_core::{
    BitConvergence, BlindGossip, MaintainedGossip, MaintenanceConfig, NonSyncBitConvergence, Rumor,
    Strategy, TagConfig, UidPool,
};
use mtm_engine::{
    ActivationSchedule, Engine, EventEngine, LatencyModel, ModelParams, RunStatus, ServiceConfig,
    ServiceStatus,
};
use mtm_experiments::ExpOpts;
use mtm_graph::dynamic::{BoxedTopology, RelabelingAdversary, StaticTopology};
use mtm_graph::{FaultConfig, FaultyTopology, Graph, GraphFamily, ScheduledCrashes};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    let result = match args.first().map(String::as_str) {
        Some("experiment") => cmd_experiment(rest),
        Some("elect") => cmd_elect(rest),
        Some("serve") => cmd_serve(rest),
        Some("spread") => cmd_spread(rest),
        Some("graph") => cmd_graph(rest),
        Some("trace") => cmd_trace(rest),
        Some("check") => Ok(mtm_check::cli::run(rest)),
        Some("--help") | Some("-h") | None => {
            usage();
            Ok(0)
        }
        Some(other) => {
            usage();
            Err(format!("unknown subcommand: {other}"))
        }
    };
    std::process::exit(result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        2
    }));
}

fn usage() {
    eprintln!(
        "usage:
  mtm experiment <id|all> [--quick|--full] [--trials N] [--seed N] [--threads N] [--csv PATH]
  mtm elect <blind|bitconv|nonsync> <family> <n> [--seed N] [--tau N] [--max-rounds N]
            [--threads N] [--detect-stuck] [--backend lockstep|event] [--latency-spread S]
  mtm spread <push-pull|ppush|classical> <family> <n> [--seed N] [--tau N] [--max-rounds N]
            [--threads N] [--backend lockstep|event] [--latency-spread S]
  mtm serve <family> <n> [--seed N] [--rounds N] [--timeout N] [--churn C,R]
            [--loss P] [--crash-leader ROUND] [--wedge-window W] [--threads N]
  mtm trace <blind|bitconv|nonsync> <family> <n> [--seed N] [--tau N] [--max-rounds N]
            [--export CSV]
  mtm graph <family> <n> [--seed N] [--export PATH]
  mtm check [--certify] [--protocol NAME] [options]   (see `mtm check --help`)
  (anywhere a <family> <n> pair appears, `--graph-file PATH` loads an
   edge-list or .json topology instead; a flag not listed for a command
   is an error, and --latency-spread requires --backend event)

experiment ids: {}
families: {}",
        mtm_experiments::ALL_IDS.join(" "),
        GraphFamily::ALL.iter().map(|f| f.name()).collect::<Vec<_>>().join(" ")
    );
}

fn cmd_experiment(args: &[String]) -> Result<i32, String> {
    let (id, rest) = args.split_first().ok_or("experiment: missing id")?;
    let opts = ExpOpts::parse(rest)?;
    let exps: Vec<_> = if id == "all" {
        mtm_experiments::registry::REGISTRY.iter().collect()
    } else {
        let exp = mtm_experiments::registry::find(id).ok_or_else(|| {
            format!("unknown experiment id: {id} (expected one of {:?})", mtm_experiments::ALL_IDS)
        })?;
        vec![exp]
    };
    for exp in exps {
        // Each table of `all` needs its own CSV path, or every emission
        // would overwrite the previous one.
        let opts = if id == "all" { opts.with_csv_for(exp.id) } else { opts.clone() };
        let table = (exp.run)(&opts);
        if let Err(e) = opts.emit(&exp.display_id(), exp.title, &table) {
            eprintln!("error: {e}");
            return Ok(1);
        }
    }
    Ok(0)
}

/// Where the topology comes from: a named family or a file.
enum GraphSource {
    Family(GraphFamily, usize),
    File(String),
}

impl GraphSource {
    fn build(&self, seed: u64) -> Result<Graph, String> {
        let g = match self {
            // `GraphFamily::build` asserts n ≥ 2, so this cannot wait for
            // the node-count check below.
            GraphSource::Family(_, n) if *n < 2 => {
                return Err(format!("n must be at least 2, got {n}"));
            }
            GraphSource::Family(f, n) => f.build(*n, seed),
            GraphSource::File(path) => {
                let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                if path.ends_with(".json") {
                    mtm_graph::io::from_json(&text)?
                } else {
                    mtm_graph::io::from_edge_list(&text).map_err(|e| e.to_string())?
                }
            }
        };
        // Every protocol and graph statistic needs two nodes, which a file
        // need not have.
        match g.node_count() {
            n @ 0..=1 => Err(format!("the graph must have at least 2 nodes, got {n}")),
            _ => Ok(g),
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
    /// round clock ([`EventEngine`]); `latency_spread` scales
    /// [`LatencyModel::multipeer`].
    Event { latency_spread: u64 },
}

/// Upper bound on `--latency-spread`. [`LatencyModel::multipeer`] draws
/// start jitter up to `4·S` ticks and event times add such draws, so a
/// spread near `u64::MAX` would overflow the simulation clock.
const MAX_LATENCY_SPREAD: u64 = u32::MAX as u64;

/// Parsed `<family> <n>` (or `--graph-file PATH`) plus every run flag, at
/// its default unless given. Each command reads the fields of the flags it
/// accepts.
struct RunArgs {
    source: GraphSource,
    seed: u64,
    /// Relabeling period; `None` keeps the topology static.
    tau: Option<u64>,
    /// Round budget (simulation ticks under the event backend).
    max_rounds: u64,
    export: Option<String>,
    detect_stuck: bool,
    threads: usize,
    backend: Backend,
    /// `serve` horizon in rounds.
    rounds: u64,
    /// `serve` heartbeat-staleness timeout; 0 = auto (`32·⌈log₂ n⌉`,
    /// comfortably above the measured steady-state gossip staleness tail).
    timeout: u64,
    churn: Option<(f64, f64)>,
    loss: f64,
    crash_leader: Option<u64>,
    wedge_window: u64,
}

/// The value following `flag`, parsed.
fn flag_value<T>(args: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<T, String>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
    value.parse().map_err(|e| format!("{flag}: {e}"))
}

/// Parse `<family> <n> | --graph-file PATH` followed by run flags. A flag
/// not in the whitespace-separated `accepts` list is an error, so no command
/// silently ignores one.
fn parse_run_args(args: &[String], accepts: &str) -> Result<RunArgs, String> {
    let mut args = args.iter();
    let source = match args.next().map(String::as_str) {
        Some("--graph-file") => {
            GraphSource::File(args.next().ok_or("--graph-file needs a path")?.clone())
        }
        first => {
            let family = first
                .and_then(GraphFamily::parse)
                .ok_or_else(|| format!("expected a graph family or --graph-file, got {first:?}"))?;
            GraphSource::Family(family, flag_value(&mut args, "n")?)
        }
    };
    let mut a = RunArgs {
        source,
        seed: 42,
        tau: None,
        max_rounds: 500_000_000,
        export: None,
        detect_stuck: false,
        threads: 1,
        backend: Backend::Lockstep,
        rounds: 2000,
        timeout: 0,
        churn: None,
        loss: 0.0,
        crash_leader: None,
        wedge_window: 0,
    };
    let (mut event, mut latency_spread) = (false, None);
    while let Some(flag) = args.next() {
        let args = &mut args;
        match flag.as_str() {
            f if !accepts.split_whitespace().any(|accepted| accepted == f) => {
                return Err(format!("unknown flag: {f}"));
            }
            "--seed" => a.seed = flag_value(args, flag)?,
            "--tau" => match flag_value(args, flag)? {
                0 => return Err("--tau must be at least 1".into()),
                t => a.tau = Some(t),
            },
            "--max-rounds" => a.max_rounds = flag_value(args, flag)?,
            "--export" => a.export = Some(flag_value(args, flag)?),
            "--detect-stuck" => a.detect_stuck = true,
            "--threads" => a.threads = flag_value(args, flag)?,
            "--backend" => {
                event = match flag_value::<String>(args, flag)?.as_str() {
                    "lockstep" => false,
                    "event" => true,
                    other => return Err(format!("--backend wants lockstep|event, got {other:?}")),
                }
            }
            "--latency-spread" => match flag_value(args, flag)? {
                s if s > MAX_LATENCY_SPREAD => {
                    return Err(format!("--latency-spread must be at most {MAX_LATENCY_SPREAD}"));
                }
                s => latency_spread = Some(s),
            },
            "--rounds" => a.rounds = flag_value(args, flag)?,
            "--timeout" => match flag_value(args, flag)? {
                1 => return Err("--timeout must be 0 (auto) or at least 2".into()),
                t => a.timeout = t,
            },
            "--churn" => {
                let v: String = flag_value(args, flag)?;
                let (c, r) = v
                    .split_once(',')
                    .ok_or_else(|| format!("--churn wants CRASH,RECOVER, got {v:?}"))?;
                let crash: f64 = c.parse().map_err(|e| format!("--churn crash: {e}"))?;
                let recover: f64 = r.parse().map_err(|e| format!("--churn recover: {e}"))?;
                if !(0.0..=1.0).contains(&crash) || !(0.0..=1.0).contains(&recover) {
                    return Err("--churn probabilities must be in [0, 1]".into());
                }
                a.churn = Some((crash, recover));
            }
            "--loss" => {
                a.loss = flag_value(args, flag)?;
                if !(0.0..=1.0).contains(&a.loss) {
                    return Err("--loss must be in [0, 1]".into());
                }
            }
            // The crash window `[R, u64::MAX)` must be nonempty.
            "--crash-leader" => match flag_value(args, flag)? {
                0 | u64::MAX => return Err("--crash-leader round must be in [1, u64::MAX)".into()),
                r => a.crash_leader = Some(r),
            },
            "--wedge-window" => a.wedge_window = flag_value(args, flag)?,
            f => unreachable!("accepted flag {f} has no parser"),
        }
    }
    if event {
        // The event backend runs on a static graph with its own timing
        // model; these lockstep-only flags would be silently meaningless.
        if a.tau.is_some() {
            return Err("--tau is lockstep-only (the event backend runs a static graph)".into());
        }
        if a.detect_stuck {
            return Err("--detect-stuck is lockstep-only".into());
        }
        if a.threads != 1 {
            return Err("--threads is lockstep-only (the event queue is inherently serial)".into());
        }
        a.backend = Backend::Event { latency_spread: latency_spread.unwrap_or(8) };
    } else if latency_spread.is_some() {
        return Err("--latency-spread requires --backend event".into());
    }
    Ok(a)
}

impl RunArgs {
    /// The run's topology; every protocol command needs it connected.
    fn connected_graph(&self) -> Result<Graph, String> {
        let g = self.source.build(self.seed)?;
        if !g.is_connected() {
            return Err("topology must be connected".into());
        }
        Ok(g)
    }

    /// `g` for a lockstep run: static, or relabeled every `--tau` rounds.
    fn topology(&self, g: Graph) -> BoxedTopology {
        match self.tau {
            None => Box::new(StaticTopology::new(g)),
            Some(t) => Box::new(RelabelingAdversary::new(g, t, self.seed ^ 0xAD)),
        }
    }
}

/// Spawn election algorithm `$algo` (`blind|bitconv|nonsync`) on an
/// `$n`-node network of maximum degree `$delta` and evaluate `$run` with
/// its model parameters, node protocols and stuck-detection window bound to
/// the three given patterns. An unknown name returns a usage error from the
/// enclosing function.
///
/// Bit-convergence state changes at most once per phase, so its window is
/// 8 phases; blind gossip has no phase structure and gets a flat generous
/// window. The UID pool is freed once the nodes hold their UIDs, before
/// `$run` builds the engine.
macro_rules! with_election {
    ($algo:expr, $n:expr, $delta:expr, $seed:expr,
     |$params:pat_param, $nodes:pat_param, $window:pat_param| $run:expr) => {{
        let uids = UidPool::random($n, $seed ^ 0x11D);
        let config = TagConfig::for_network($n, $delta);
        let phases = 8 * config.phase_len().max(1);
        match $algo {
            "blind" => {
                let nodes = BlindGossip::spawn(&uids);
                drop(uids);
                let ($params, $nodes, $window) = (ModelParams::mobile(0), nodes, 4096);
                $run
            }
            "bitconv" => {
                let nodes = BitConvergence::spawn(&uids, config, $seed ^ 0x7A6);
                drop(uids);
                let ($params, $nodes, $window) = (ModelParams::mobile(1), nodes, phases);
                $run
            }
            "nonsync" => {
                let nodes = NonSyncBitConvergence::spawn(&uids, config, $seed ^ 0x7A6);
                drop(uids);
                let params = ModelParams::mobile(config.nonsync_tag_bits());
                let ($params, $nodes, $window) = (params, nodes, phases);
                $run
            }
            other => {
                return Err(format!("unknown algorithm: {other} (expected blind|bitconv|nonsync)"))
            }
        }
    }};
}

fn cmd_elect(args: &[String]) -> Result<i32, String> {
    let (algo, rest) = args.split_first().ok_or("elect: missing algorithm")?;
    let a = parse_run_args(
        rest,
        "--seed --tau --max-rounds --threads --detect-stuck --backend --latency-spread",
    )?;
    let g = a.connected_graph()?;
    let (n, delta, graph) = (g.node_count(), g.max_degree(), a.source.describe());
    if let Backend::Event { latency_spread } = a.backend {
        let latency = LatencyModel::multipeer(latency_spread);
        let out = with_election!(algo.as_str(), n, delta, a.seed, |params, nodes, _| {
            println!(
                "electing a leader: algo={algo} backend=event graph={graph} n={n} Δ={delta} spread={latency_spread} seed={}",
                a.seed
            );
            EventEngine::new(g, params, nodes, a.seed, latency).run_to_stabilization(a.max_rounds)
        });
        return Ok(match (out.completed_at, out.winner) {
            (Some(t), Some(winner)) => {
                println!(
                    "stabilized at tick {t} (mean local round {:.1}); leader UID {winner:#x}; \
                     {} proposals, {} connections, {} events",
                    out.mean_local_rounds,
                    out.metrics.proposals,
                    out.metrics.connections,
                    out.events
                );
                0
            }
            _ => {
                println!("did not stabilize within {} ticks", a.max_rounds);
                1
            }
        });
    }
    let topo = a.topology(g);
    let (outcome, last_progress) =
        with_election!(algo.as_str(), n, delta, a.seed, |params, nodes, window| {
            println!(
                "electing a leader: algo={algo} graph={graph} n={n} Δ={delta} τ={} seed={}",
                a.tau.map_or("∞".to_string(), |t| t.to_string()),
                a.seed
            );
            let mut e =
                Engine::new(topo, params, ActivationSchedule::synchronized(n), nodes, a.seed);
            e.set_threads(a.threads);
            // A frozen run is diagnosed after `window` unchanged rounds instead
            // of burning the whole --max-rounds budget.
            if a.detect_stuck {
                e.enable_stuck_detection(window);
            }
            (e.run_to_stabilization(a.max_rounds), e.last_progress_round())
        });
    Ok(match outcome.status {
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
    })
}

/// `mtm serve`: run the maintenance protocol as a long-lived service —
/// elect, heartbeat, detect failures, re-elect — under optional fault
/// injection, and report the service-quality counters. Exit codes: 0 the
/// horizon completed, 2 usage error, 3 the wedge detector cut the run
/// short (durable state frozen for a full window with the up participants
/// disagreeing).
fn cmd_serve(args: &[String]) -> Result<i32, String> {
    let a = parse_run_args(
        args,
        "--seed --rounds --timeout --churn --loss --crash-leader --wedge-window --threads",
    )?;
    let g = a.connected_graph()?;
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
        return Err(format!(
            "--wedge-window must exceed the timeout ({timeout}): a pending \
             failure detector is a ticking state change the fingerprint cannot see"
        ));
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
        Some(round) => Box::new(ScheduledCrashes::new(base, vec![(leader_node, round, u64::MAX)])),
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
    Ok(match out.status {
        ServiceStatus::Completed => 0,
        ServiceStatus::Wedged(report) => {
            println!(
                "wedged: no durable state change since round {} (detected at round {}, window {}) with the up participants disagreeing",
                report.fixed_since, report.detected_round, report.window
            );
            if report.idle_connections == 0 {
                println!(
                    "diagnosis: no connection formed during the window — a partitioned or dead \
                     topology, or a window too short to rule out chance"
                );
            } else {
                println!(
                    "diagnosis: {} connections during the window changed nothing — a disagreeing fixed point",
                    report.idle_connections
                );
            }
            3
        }
    })
}

fn cmd_spread(args: &[String]) -> Result<i32, String> {
    let (algo, rest) = args.split_first().ok_or("spread: missing algorithm")?;
    let a = parse_run_args(rest, "--seed --tau --max-rounds --threads --backend --latency-spread")?;
    let g = a.connected_graph()?;
    let (strategy, classical) = match algo.as_str() {
        "push-pull" => (Strategy::PushPull, false),
        "ppush" => (Strategy::Ppush, false),
        "classical" if a.backend != Backend::Lockstep => {
            return Err("the classical baseline (accept-all) has no event-backend model; \
                        use --backend lockstep"
                .into())
        }
        "classical" => (Strategy::PushPull, true),
        other => {
            return Err(format!("unknown algorithm: {other} (expected push-pull|ppush|classical)"))
        }
    };
    let params =
        if classical { ModelParams::classical() } else { ModelParams::mobile(strategy.tag_bits()) };
    let nodes = Rumor::spawn(strategy, g.node_count(), 1);
    run_spread(algo, g, params, nodes, &a)
}

/// One rumor-spreading run of `nodes` on `a`'s backend. Under the event
/// backend `--max-rounds` bounds simulation ticks.
fn run_spread(
    algo: &str,
    g: Graph,
    params: ModelParams,
    nodes: Vec<Rumor>,
    a: &RunArgs,
) -> Result<i32, String> {
    let (n, delta, graph) = (g.node_count(), g.max_degree(), a.source.describe());
    if let Backend::Event { latency_spread } = a.backend {
        println!(
            "spreading a rumor: algo={algo} backend=event graph={graph} n={n} Δ={delta} spread={latency_spread} seed={}",
            a.seed
        );
        let latency = LatencyModel::multipeer(latency_spread);
        let out = EventEngine::new(g, params, nodes, a.seed, latency)
            .run_to_full_information(a.max_rounds);
        return Ok(match out.completed_at {
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
        });
    }
    println!("spreading a rumor: algo={algo} graph={graph} n={n} Δ={delta} seed={}", a.seed);
    let mut e =
        Engine::new(a.topology(g), params, ActivationSchedule::synchronized(n), nodes, a.seed);
    e.set_threads(a.threads);
    let outcome = e.run_to_full_information(a.max_rounds);
    Ok(match outcome.stabilized_round {
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
    })
}

fn cmd_graph(args: &[String]) -> Result<i32, String> {
    let a = parse_run_args(args, "--seed --export")?;
    let g = a.source.build(a.seed)?;
    let n = g.node_count();
    if let Some(path) = &a.export {
        let text = if path.ends_with(".json") {
            mtm_graph::io::to_json(&g)
        } else {
            mtm_graph::io::to_edge_list(&g)
        };
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("error: failed to write {path}: {e}");
            return Ok(1);
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
    Ok(0)
}

/// `mtm trace`: run one lockstep leader election and dump a CSV of
/// (round, active, proposals, connections), read off the engine's counters
/// after each round, plus the number of connections formed.
fn cmd_trace(args: &[String]) -> Result<i32, String> {
    let (algo, rest) = args.split_first().ok_or("trace: missing algorithm")?;
    let a = parse_run_args(rest, "--seed --tau --max-rounds --export")?;
    let g = a.connected_graph()?;
    let (n, delta) = (g.node_count(), g.max_degree());
    let topo = a.topology(g);
    let mut csv = String::from("round,active,proposals,connections\n");
    let (stabilized, rows, logged) =
        with_election!(algo.as_str(), n, delta, a.seed, |params, nodes, _| {
            let mut e =
                Engine::new(topo, params, ActivationSchedule::synchronized(n), nodes, a.seed);
            let mut prev = e.metrics();
            let stabilized = e.run_until(a.max_rounds, |e| {
                if e.round() >= 1 {
                    let (m, active) = (e.metrics(), (0..n).filter(|&u| e.is_active(u)).count());
                    let (p, c) = (m.proposals - prev.proposals, m.connections - prev.connections);
                    csv.push_str(&format!("{},{active},{p},{c}\n", e.round()));
                    prev = m;
                }
                e.leaders_agree().is_some()
            });
            (stabilized, e.round(), e.metrics().connections)
        });
    match &a.export {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &csv) {
                eprintln!("error: failed to write {path}: {e}");
                return Ok(1);
            }
            println!("trace written to {path} ({rows} rows)");
        }
        None => print!("{csv}"),
    }
    match stabilized {
        Some(r) => {
            eprintln!("stabilized in {r} rounds ({logged} connections logged)");
            Ok(0)
        }
        None => {
            eprintln!("did not stabilize within {} rounds", a.max_rounds);
            Ok(1)
        }
    }
}
