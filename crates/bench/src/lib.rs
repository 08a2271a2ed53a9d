//! Experiment harness regenerating every table and figure of the paper.
//!
//! [`experiments`] holds one function per table/figure; each returns its
//! rows as JSON-serializable records and pretty-prints the same series
//! the paper reports. The `figures` binary drives them
//! (`cargo run --release -p nfc-bench --bin figures -- all`), writing
//! machine-readable results under `results/`.

pub mod experiments;
pub mod util;
