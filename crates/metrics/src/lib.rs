#![warn(missing_docs)]

//! # avdb-metrics
//!
//! Measurement and reporting for the avdb experiments.
//!
//! The paper's evaluation is built on one metric — the number of
//! correspondences (2 messages = 1) as a function of the number of
//! updates, system-wide (Fig. 6) and per site (Table 1). This crate
//! provides:
//!
//! * [`stats`] — streaming summary statistics (Welford);
//! * [`series`] — sampled time series of `(updates, correspondences)`
//!   pairs, the exact data behind Fig. 6;
//! * [`run`] — [`RunMetrics`]: everything one experiment run records,
//!   serializable for EXPERIMENTS.md regeneration;
//! * [`report`] — aligned-text tables used by the example binaries and
//!   the bench harness.

pub mod chart;
pub mod report;
pub mod run;
pub mod series;
pub mod stats;

pub use chart::render_ascii_chart;
pub use report::render_table;
pub use run::{RunMetrics, SiteStats};
pub use series::Series;
pub use stats::OnlineStats;
