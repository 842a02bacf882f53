//! Shared helpers for the benchmark targets.
//!
//! [`throughput`] is the engine throughput ledger behind the
//! `engine_throughput` binary, which records `BENCH_engine.json`; engine
//! microbenchmarks live in `benches/engine_micro.rs`. The cost of
//! regenerating each experiment is covered by `regen --check --quick`.
//!
//! [`harness`] provides the timing loop: a small wall-clock harness with
//! named targets and an optional substring filter from the command line.

pub mod harness;
pub use mtm_analysis::json;
pub mod throughput;
