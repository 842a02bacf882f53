//! [`throughput`] is the engine throughput ledger behind the
//! `engine_throughput` binary, which records `BENCH_engine.json`. The cost
//! of regenerating each experiment is covered by `regen --check --quick`.

pub use mtm_analysis::json;
pub mod throughput;
