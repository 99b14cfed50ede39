//! Benchmark harness regenerating every table and figure of the
//! LittleTable paper's evaluation (§5).
//!
//! One binary runs them by name (`cargo run -p littletable-bench
//! --release --bin figures -- fig2`), printing the regenerated series
//! alongside the paper's reference numbers and writing JSON to
//! `target/figures/`; `figures all` runs the full set. Pass `--quick` for
//! a reduced, CI-sized run.
//!
//! Methodology: the real engine runs against the simulated spinning disk
//! of `littletable-vfs` (seeks, transfers, and readahead measured in
//! virtual time) plus an explicit CPU-cost model calibrated once against
//! the paper's headline throughput numbers — see the `env` module.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![allow(clippy::field_reassign_with_default)]

pub mod env;
pub mod figures;
pub mod report;

/// True when `--quick` was passed on the command line.
pub fn quick_flag() -> bool {
    std::env::args().any(|a| a == "--quick")
}
