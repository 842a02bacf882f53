//! Command-line driver behind the `mtm check` subcommand.

use mtm_core::TagConfig;
use mtm_engine::Action;
use mtm_graph::static_graph::from_edges;
use mtm_graph::{gen, Graph, NodeId};

use crate::explore::{analyze, explore, CheckConfig, RoundSchedule, Truncation};
use crate::matrix::certification_matrix;
use crate::replay::replay_state;
use crate::spec::{
    BitConvergenceSpec, BlindGossipSpec, CheckSpec, MaintainedGossipSpec, NonSyncSpec, RumorSpec,
};

const USAGE: &str = "\
mtm check: exhaustive adversarial-schedule model checker (n <= 6)

USAGE:
    mtm check --certify
    mtm check --protocol <name> [options]

PROTOCOLS:
    blind-gossip | bit-convergence | nonsync | push-pull | ppush |
    push-only | pull-only | maintained-gossip
    (blind-gossip with --beta set is redirected to bit-convergence, the
    paper's \"blind gossip + beta-bit hashed tags\" construction.)

OPTIONS:
    --topology <spec>     clique:N | path:N | cycle:N | star:N | edge list
                          \"0-1,1-2,...\"            [default: clique:4]
    --uids a,b,...        per-node UIDs             [default: 1..=N]
    --tags a,b,...        per-node ID tags (bit-convergence / nonsync)
    --tag-seed <s>        sample tags uniformly instead (honest-hash regime)
    --beta <f>            tag bits k = ceil(beta * log2 N)
    --k <bits>            override tag bit count directly
    --timeout <t>         maintained-gossip failure timeout  [default: 4]
    --sources <s>         rumor protocols: informed seed count [default: 1]
    --rounds <h>          exploration horizon (rounds)       [default: 64]
    --max-states <m>      state cap                     [default: 200000]
    --loss                adversary may drop any accepted proposal
    --max-crashes <k>     adversary may permanently crash up to k nodes
    --certify             run the full n=4 certification matrix

EXIT CODES:
    0 clean  1 safety/certification violation  2 usage  3 deadlock found";

fn usage() -> i32 {
    eprintln!("{USAGE}");
    2
}

struct Opts {
    protocol: String,
    topology: String,
    uids: Option<Vec<u64>>,
    tags: Option<Vec<u64>>,
    tag_seed: Option<u64>,
    beta: Option<f64>,
    k: Option<u32>,
    timeout: u64,
    sources: usize,
    cfg: CheckConfig,
    certify: bool,
}

fn parse_list(s: &str) -> Option<Vec<u64>> {
    s.split(',').map(|t| t.trim().parse().ok()).collect()
}

fn parse_topology(spec: &str) -> Option<Graph> {
    if let Some((family, count)) = spec.split_once(':') {
        let Ok(n) = count.parse::<usize>() else {
            eprintln!("error: malformed node count in topology '{spec}'");
            return None;
        };
        if !(2..=6).contains(&n) {
            eprintln!("error: exhaustive checking needs 2 <= n <= 6 (got {n})");
            return None;
        }
        return match family {
            "clique" | "complete" => Some(gen::clique(n)),
            "path" | "line" => Some(gen::path(n)),
            "cycle" | "ring" => Some(gen::cycle(n)),
            "star" => Some(gen::star(n)),
            _ => {
                eprintln!("error: unknown topology family '{family}'");
                None
            }
        };
    }
    // Explicit edge list "0-1,1-2".
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    let mut max = 0;
    for part in spec.split(',') {
        let edge = part.trim().split_once('-').map(|(a, b)| (a.parse(), b.parse()));
        let Some((Ok(a), Ok(b))) = edge else {
            eprintln!("error: malformed edge '{part}' in topology '{spec}'");
            return None;
        };
        if a == b {
            eprintln!("error: self loop {a}-{b} in the topology");
            return None;
        }
        max = max.max(a).max(b);
        edges.push((a, b));
    }
    let n = usize::try_from(max).ok()? + 1;
    if n > 6 {
        eprintln!("error: exhaustive checking needs n <= 6 (got {n})");
        return None;
    }
    let g = from_edges(n, &edges);
    if !g.is_connected() {
        eprintln!("error: topology must be connected");
        return None;
    }
    Some(g)
}

fn parse_opts(args: &[String]) -> Option<Opts> {
    let mut opts = Opts {
        protocol: String::new(),
        topology: "clique:4".to_string(),
        uids: None,
        tags: None,
        tag_seed: None,
        beta: None,
        k: None,
        timeout: 4,
        sources: 1,
        cfg: CheckConfig::default(),
        certify: false,
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut take = || {
            i += 1;
            args.get(i).cloned()
        };
        match flag {
            "--certify" => opts.certify = true,
            "--loss" => opts.cfg.loss = true,
            "--protocol" => opts.protocol = take()?,
            "--topology" => opts.topology = take()?,
            "--uids" => opts.uids = Some(parse_list(&take()?)?),
            "--tags" => opts.tags = Some(parse_list(&take()?)?),
            "--tag-seed" => opts.tag_seed = Some(take()?.parse().ok()?),
            "--beta" => opts.beta = Some(take()?.parse().ok()?),
            "--k" => opts.k = Some(take()?.parse().ok()?),
            "--timeout" => opts.timeout = take()?.parse().ok()?,
            "--sources" => opts.sources = take()?.parse().ok()?,
            "--rounds" => opts.cfg.horizon = take()?.parse().ok()?,
            "--max-states" => opts.cfg.max_states = take()?.parse().ok()?,
            "--max-crashes" => opts.cfg.max_crashes = take()?.parse().ok()?,
            "--help" | "-h" => return None,
            other => {
                eprintln!("error: unknown flag '{other}'");
                return None;
            }
        }
        i += 1;
    }
    Some(opts)
}

fn fmt_action(a: Action) -> String {
    match a {
        Action::Listen => "L".to_string(),
        Action::Propose(v) => format!("P->{v}"),
    }
}

/// Render one schedule round in a replayable form.
fn fmt_round(i: usize, rs: &RoundSchedule) -> String {
    let actions: Vec<String> = rs.script.actions.iter().map(|&a| fmt_action(a)).collect();
    format!(
        "  round {:>2}: crashes={:?} advertise={:?} actions=[{}] accept={:?}",
        i + 1,
        rs.crashes,
        rs.script.advertise,
        actions.join(", "),
        rs.script.accept
    )
}

/// Explore, analyze, report, and cross-validate one spec on one graph.
/// Returns the process exit code.
fn run_spec<S: CheckSpec>(spec: &S, graph: &Graph, cfg: &CheckConfig) -> i32 {
    println!(
        "checking {} on {} nodes / {} edges (horizon {}, max {} states{}{})",
        spec.name(),
        graph.node_count(),
        graph.edge_count(),
        cfg.horizon,
        cfg.max_states,
        if cfg.loss { ", proposal loss" } else { "" },
        if cfg.max_crashes > 0 { ", crashes" } else { "" },
    );
    let ex = explore(spec, graph, cfg);
    let an = analyze(spec, &ex);
    match ex.truncation {
        None => println!(
            "state space CLOSED: {} states, {} transitions",
            ex.state_count(),
            ex.transitions
        ),
        Some(Truncation::Horizon) => println!(
            "TRUNCATED at horizon {}: {} states, {} transitions (reachability results are lower bounds)",
            cfg.horizon,
            ex.state_count(),
            ex.transitions
        ),
        Some(Truncation::StateCap) => println!(
            "TRUNCATED at state cap {}: {} transitions (reachability results are lower bounds)",
            cfg.max_states, ex.transitions
        ),
    }
    println!(
        "agreement states: {} of {}{}",
        an.agreed_count,
        ex.state_count(),
        an.first_agreed
            .map(|s| format!(" (earliest at depth {})", ex.depth_of(s)))
            .unwrap_or_default()
    );

    let mut code = 0;
    for v in ex.violations.iter().take(3) {
        println!(
            "INVARIANT VIOLATION from state {} (depth {}): {}",
            v.parent,
            ex.depth_of(v.parent),
            v.message
        );
        println!("{}", fmt_round(ex.depth_of(v.parent) as usize, &v.schedule));
        code = 1;
    }
    if ex.violations.len() > 3 {
        println!("... and {} more violations", ex.violations.len() - 3);
    }

    if ex.closed {
        match an.max_agreement_distance {
            Some(d) if an.agreed_count > 0 => {
                println!("liveness: every non-doomed state reaches agreement within {d} rounds");
            }
            _ => {}
        }
        if an.doomed > 0 {
            let s = an.first_doomed.expect("doomed count nonzero");
            println!(
                "SAFETY: {} doomed states (agreement unreachable); earliest at depth {}",
                an.doomed,
                ex.depth_of(s)
            );
            code = code.max(1);
        }
        if let Some(s) = an.first_deadlock {
            println!(
                "DEADLOCK: {} absorbing non-agreed states; minimal witness ({} rounds) to the earliest:",
                an.deadlocks,
                ex.depth_of(s)
            );
            let witness = ex.witness(s);
            for (i, rs) in witness.iter().enumerate() {
                println!("{}", fmt_round(i, rs));
            }
            println!("  wedged state: {}", spec.summarize(ex.nodes_of(s)));
            match replay_state(spec, graph, &ex, s) {
                Ok(out) => match out.fingerprint {
                    Some(fp) => println!(
                        "  engine replay confirms: {} scripted rounds reach the same stuck state (fingerprint {fp:#018x})",
                        out.rounds
                    ),
                    None => println!(
                        "  engine replay confirms: {} scripted rounds reach the same stuck state (word-for-word)",
                        out.rounds
                    ),
                },
                Err(e) => {
                    println!("  ENGINE REPLAY DIVERGED: {e}");
                    return 1;
                }
            }
            return 3;
        }
        if code == 0 {
            println!("certified: no doomed state, no deadlock, no invariant violation");
        }
    } else {
        println!("(doom/deadlock analysis skipped: exploration did not close)");
        if an.first_agreed.is_none() {
            println!("WARNING: no agreement state reached within the explored horizon");
            code = code.max(1);
        }
    }
    // Cross-validate the deepest state's schedule even on clean runs.
    if ex.state_count() > 1 {
        let target = u32::try_from(ex.state_count() - 1).expect("state index fits u32");
        match replay_state(spec, graph, &ex, target) {
            Ok(_) => println!(
                "engine replay cross-check: deepest state (depth {}) reproduced exactly",
                ex.depth_of(target)
            ),
            Err(e) => {
                println!("ENGINE REPLAY DIVERGED: {e}");
                code = code.max(1);
            }
        }
    }
    code
}

fn run_certify() -> i32 {
    println!("n=4 certification matrix: every protocol x all 38 connected 4-node topologies");
    println!(
        "{:<18} {:>6} {:>7} {:>9} {:>11} {:>7} {:>9} {:>10} {:>9} {:>10}",
        "protocol",
        "graphs",
        "closed",
        "states",
        "transitions",
        "doomed",
        "deadlocks",
        "violations",
        "max-dist",
        "certified"
    );
    let rows = certification_matrix();
    let mut ok = true;
    for r in &rows {
        ok &= r.certified;
        println!(
            "{:<18} {:>6} {:>7} {:>9} {:>11} {:>7} {:>9} {:>10} {:>9} {:>10}",
            r.protocol,
            r.graphs,
            r.closed,
            r.total_states,
            r.transitions,
            r.doomed,
            r.deadlocks,
            r.violations,
            r.max_agreement_distance,
            if r.certified { "yes" } else { "NO" }
        );
    }
    if ok {
        println!("certification matrix: PASS");
        0
    } else {
        println!("certification matrix: FAIL");
        1
    }
}

/// Adversarial default tag assignment: collide the two smallest UIDs on the
/// minimum tag, spread the rest. The checker is an adversary; when the user
/// specifies β but not the hash outcomes, it picks the worst ones.
fn adversarial_tags(n: usize, k: u32) -> Vec<u64> {
    let max_tag = (1u64 << k) - 1;
    (0..n).map(|u| u64::try_from(u.saturating_sub(1)).expect("n <= 6").min(max_tag)).collect()
}

fn sampled_tags(n: usize, k: u32, seed: u64) -> Vec<u64> {
    use rand::Rng;
    let mut rng = mtm_graph::rng::stream_rng(seed, 0);
    (0..n).map(|_| rng.gen_range(0..(1u64 << k))).collect()
}

/// Entry point of `mtm check`; `args` follow the subcommand.
pub fn run(args: &[String]) -> i32 {
    let Some(opts) = parse_opts(args) else {
        return usage();
    };
    if opts.certify {
        return run_certify();
    }
    if opts.protocol.is_empty() {
        eprintln!("error: --protocol (or --certify) is required");
        return usage();
    }
    let Some(graph) = parse_topology(&opts.topology) else {
        return 2;
    };
    let n = graph.node_count();
    let uids = opts.uids.clone().unwrap_or_else(|| (1..=n as u64).collect());
    if uids.len() != n {
        eprintln!("error: --uids must list exactly {n} values");
        return 2;
    }

    let mut protocol = opts.protocol.clone();
    if protocol == "blind-gossip" && (opts.beta.is_some() || opts.k.is_some()) {
        println!(
            "note: blind gossip with hashed beta-bit tags is bit convergence (paper §VII); \
             checking bit-convergence"
        );
        protocol = "bit-convergence".to_string();
    }

    let rumor = matches!(protocol.as_str(), "push-pull" | "ppush" | "push-only" | "pull-only");
    if rumor && !(1..=n).contains(&opts.sources) {
        eprintln!("error: --sources must be between 1 and {n} (got {})", opts.sources);
        return 2;
    }

    match protocol.as_str() {
        "blind-gossip" | "blind" => run_spec(&BlindGossipSpec { uids }, &graph, &opts.cfg),
        "bit-convergence" | "nonsync" => {
            let beta = opts.beta.unwrap_or(3.0);
            if beta.is_nan() || beta < 1.0 {
                eprintln!("error: --beta must be at least 1 (got {beta})");
                return 2;
            }
            let max_deg =
                (0..n).map(|u| graph.neighbors(mtm_graph::nid(u)).len()).max().unwrap_or(1);
            let mut config = TagConfig::new(n.max(2), beta, max_deg.max(2));
            if let Some(k) = opts.k {
                config.k = k.clamp(1, 63);
            }
            let tags = match (&opts.tags, opts.tag_seed) {
                (Some(t), _) => t.clone(),
                (None, Some(seed)) => {
                    let t = sampled_tags(n, config.k, seed);
                    println!("tags sampled with seed {seed}: {t:?}");
                    t
                }
                (None, None) => {
                    let t = adversarial_tags(n, config.k);
                    println!(
                        "tags not specified: using adversarial assignment {t:?} \
                         (minimum-tag collision between the two smallest UIDs)"
                    );
                    t
                }
            };
            if tags.len() != n {
                eprintln!("error: --tags must list exactly {n} values");
                return 2;
            }
            let max_tag = (1u64 << config.k) - 1;
            if let Some(&bad) = tags.iter().find(|&&t| t > max_tag) {
                eprintln!("error: tag {bad} does not fit k={} bits", config.k);
                return 2;
            }
            println!(
                "tag geometry: k={} bits, group_len={}, phase_len={}",
                config.k,
                config.group_len,
                config.phase_len()
            );
            if protocol == "nonsync" {
                run_spec(&NonSyncSpec { uids, tags, config }, &graph, &opts.cfg)
            } else {
                run_spec(&BitConvergenceSpec { uids, tags, config }, &graph, &opts.cfg)
            }
        }
        "push-pull" => run_spec(&RumorSpec::push_pull(n, opts.sources), &graph, &opts.cfg),
        "ppush" => run_spec(&RumorSpec::ppush(n, opts.sources), &graph, &opts.cfg),
        "push-only" => run_spec(&RumorSpec::push_only(n, opts.sources), &graph, &opts.cfg),
        "pull-only" => run_spec(&RumorSpec::pull_only(n, opts.sources), &graph, &opts.cfg),
        "maintained-gossip" | "maintained" => {
            if opts.timeout < 2 {
                eprintln!("error: --timeout must be >= 2");
                return 2;
            }
            run_spec(&MaintainedGossipSpec { uids, timeout: opts.timeout }, &graph, &opts.cfg)
        }
        other => {
            eprintln!("error: unknown protocol '{other}'");
            usage()
        }
    }
}
