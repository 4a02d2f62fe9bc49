#![warn(missing_docs)]

//! # avdb-sim
//!
//! The experiment harness: builds the paper's evaluation scenario, drives
//! the proposed system and the conventional baseline over identical
//! workloads, and regenerates every table and figure:
//!
//! * [`experiments::fig6`] — Fig. 6, updates vs correspondences, proposal
//!   vs conventional;
//! * [`experiments::table1`] — Table 1, per-site correspondences at
//!   update-count checkpoints;
//! * [`experiments::ablations`] — A1/A2/A6/A7/A8 strategy and workload
//!   sweeps;
//! * [`experiments::scaling`] — A3, site-count scaling;
//! * [`experiments::mix`] — A4, Delay/Immediate product mixes;
//! * [`experiments::faults`] — A5, crash/recovery behaviour of both
//!   systems;
//! * [`experiments::circulation`] — A9, proactive AV push;
//! * [`experiments::freshness`] — A10, propagation batching.
//!
//! [`report::EXPERIMENTS`] lists every experiment with its id, heading and
//! sweep points; the `avdb` binary prints and writes from that list
//! alone. Everything is deterministic per `(scenario, seed)`.

pub mod experiments;
pub mod report;
pub mod runner;
pub mod scenarios;

pub use report::{generate_report, ReportScale, EXPERIMENTS};
pub use runner::{run_conventional, run_lock_everything, run_proposal, RunOutput};
pub use scenarios::{paper_config, paper_scenario, PAPER_N_PRODUCTS, PAPER_STOCK};
