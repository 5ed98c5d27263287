//! # dc-bench
//!
//! The experiment harness: one module (and one binary) per table/figure of
//! the δ-cluster paper's evaluation section, plus the head-to-head
//! `baselines` comparison. Performance is measured by `perfbench/`, not
//! here.
//!
//! Every experiment:
//!
//! * prints the same rows/series the paper reports, through
//!   [`dc_eval::Table`];
//! * writes its raw numbers as JSON under `target/experiments/` so
//!   EXPERIMENTS.md is regenerable and diffable;
//! * runs at a scaled-down default and accepts `--full` for the paper's
//!   exact sizes (absolute times differ from a 333 MHz AIX box anyway — the
//!   *shape* of each result is the reproduction target).
//!
//! Run everything with `cargo run -p dc-bench --release --bin
//! all_experiments`.

pub mod experiments;
pub mod opts;
pub mod publish;

pub use opts::Opts;
