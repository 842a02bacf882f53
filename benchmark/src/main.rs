//! `benchmark` — end-to-end and per-layer measurements of leader election,
//! service and event-backend runs. See `README.md` for the workloads and
//! the metric glossary.
//!
//! * `benchmark --workload W --seed S --seconds T --trace 0|1 [--quick]
//!   [--trace-out PATH]` — one run of one workload (see [`run`]).
//! * `benchmark set --out PATH` — every workload at seeds 1–10, one child
//!   process per run, summarized into a results file (see [`set`]).
//! * `benchmark compare A.json B.json` — medians, quartiles and bound
//!   checks between two results files (see [`compare`]).

mod compare;
mod probe;
mod run;
mod set;
mod stats;
mod trace;
mod workload;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("set") => set::main(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        _ => run::main(&args),
    };
    std::process::exit(code);
}
