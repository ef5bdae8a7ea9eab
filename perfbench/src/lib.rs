//! End-to-end and per-layer benchmark of the `dsv` figure grids.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! builds the workload's grids from the public config types, times
//! closed-loop passes of them through the program's `Runner`, checks
//! every outcome, and prints its metrics with a JSON summary as the last
//! line. See `README.md` beside this crate for the workloads and metrics.

pub mod grid;
pub mod outside;
pub mod pass;
pub mod recorded;
