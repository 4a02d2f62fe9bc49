#![warn(missing_docs)]

//! # avdb-types
//!
//! Shared vocabulary for the `avdb` workspace — the reproduction of
//! Hanamura, Kaji & Mori, *"Autonomous Consistency Technique in Distributed
//! Database with Heterogeneous Requirements"* (IPPS 2000).
//!
//! This crate deliberately has no dependencies beyond `serde` so every other
//! crate (network substrate, storage engine, escrow manager, protocol core,
//! workload generator, metrics) can share one set of identifiers, quantities
//! and error codes without pulling in each other.
//!
//! The central notions:
//!
//! * [`SiteId`] — a participant in the integrated distributed database.
//!   By convention site 0 is the *maker* holding the base (primary-copy) DB;
//!   the rest are *retailers* (see [`SiteKind`]).
//! * [`ProductId`] / [`ProductClass`] — catalog entries. `Regular` products
//!   carry an Allowable Volume and take the Delay Update path; `NonRegular`
//!   products have no AV row and take the Immediate Update path.
//! * [`Volume`] — the numeric quantity used for both stock levels and
//!   Allowable Volume, a checked signed integral newtype.
//! * [`UpdateRequest`] / [`UpdateOutcome`] — what a user submits to a site's
//!   accelerator and what comes back.

pub mod config;
pub mod error;
pub mod hash;
pub mod ids;
pub mod product;
pub mod request;
pub mod time;
pub mod volume;

pub use config::{
    AvAllocation, DecideStrategyKind, LatencyModel, SelectStrategyKind, SystemConfig,
    SystemConfigBuilder,
};
pub use error::{AvdbError, Result};
pub use hash::{FastBuildHasher, FastHasher, FastMap, FastSet};
pub use ids::{SiteId, SiteKind, TxnId};
pub use product::{CatalogEntry, ProductClass, ProductId};
pub use request::{AbortReason, UpdateKind, UpdateOutcome, UpdateRequest};
pub use time::VirtualTime;
pub use volume::Volume;
