#![warn(missing_docs)]

//! # avdb-bench
//!
//! The benchmark subsystem: a seeded, deterministic workload-matrix
//! harness plus the criterion-style micro-benchmark targets.
//!
//! The harness ([`matrix`] → [`run`] → [`report`]) expands a matrix of
//! {transport, site count, delay/immediate mix, AV split, zipf skew,
//! fault profile} cells into oracle-checked runs and distills each run's
//! telemetry export into registry-sourced statistics: throughput, commit
//! latency percentiles (p50/p95/p99), message amplification, and
//! AV-shortage rates. The `avdb-bench` binary writes the results as
//! machine-readable `results/BENCH_<label>.json` plus a human table:
//!
//! ```sh
//! cargo run --release --bin avdb-bench -- run --label local
//! cargo run --release --bin avdb-bench -- compare \
//!     results/BENCH_baseline.json results/BENCH_local.json
//! ```
//!
//! Micro-benchmark targets (plain `harness = false` binaries, run with
//! `cargo bench -p avdb-bench --bench <name>`): `micro` times storage,
//! escrow, RNG, event-queue and end-to-end kernels; `hotpath` times the
//! shortage path's per-message helpers. The paper's experiments are not
//! bench targets: `avdb fig6|table1|ablations|faults|report` regenerate
//! them from `avdb_sim::EXPERIMENTS`.

pub mod matrix;
pub mod report;
pub mod run;

pub use matrix::{FaultProfile, ScenarioSpec, TransportKind};
pub use report::{BenchReport, Percentiles, ScenarioResult, ScenarioStats, WallStats};
pub use run::{run_scenario, run_scenario_with_flight_dir, RunArtifacts};

/// Seed shared by the micro-benchmarks.
pub const SEED: u64 = 1;
