//! # nebula-bench
//!
//! Experiment harness regenerating every table and figure of the NEBULA
//! paper's evaluation. Each artifact has a dedicated binary
//! (`cargo run --release -p nebula-bench --bin <id>`); see `DESIGN.md`
//! for the experiment index and `EXPERIMENTS.md` for recorded results.
//!
//! The [`table`] module renders aligned text tables; [`setup`] trains the
//! scaled workload models the accuracy experiments share; [`par`] fans
//! independent per-workload computations out across scoped threads;
//! [`measure`] holds the timing and comparison helpers the bench
//! binaries share.

#![warn(missing_docs)]

pub mod measure;
pub mod par;
pub mod setup;
pub mod table;

pub use par::{par_map, par_map_with_workers};
pub use setup::{trained, Trained, Workload};
pub use table::{print_table, Row};
