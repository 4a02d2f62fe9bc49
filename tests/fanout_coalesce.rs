//! System-level properties of the shortage-path fast lane: parallel AV
//! fan-out (with over-grant return and grant timeouts) must conserve the
//! system-wide AV per product — clean and under message loss.

mod common;

use avdb::prelude::*;
use avdb::simnet::DetRng;
use avdb::types::AvAllocation;
use common::{assert_oracle_sim, settle_sim, Submissions};

/// A seeded shortage-heavy schedule: mostly retailer decrements spread
/// over every site, plus maker increments at the base to keep stock
/// above the escrow floor.
fn schedule(seed: u64, n_sites: usize, n_products: u32, n: usize) -> Vec<(VirtualTime, UpdateRequest)> {
    let mut rng = DetRng::new(seed).derive(0xFA57);
    (0..n)
        .map(|i| {
            let site = SiteId(rng.gen_range(n_sites as u64) as u32);
            let product = ProductId(rng.gen_range(n_products as u64) as u32);
            let delta = if site == SiteId::BASE && rng.gen_f64() < 0.5 {
                Volume(rng.gen_i64_inclusive(4, 12))
            } else {
                Volume(-rng.gen_i64_inclusive(1, 9))
            };
            (VirtualTime(i as u64 * 6), UpdateRequest::new(site, product, delta))
        })
        .collect()
}

fn run(cfg: SystemConfig, sched: &[(VirtualTime, UpdateRequest)]) -> DistributedSystem {
    let mut sys = DistributedSystem::new(cfg);
    let mut subs = Submissions::new();
    for (at, req) in sched {
        subs.submit_at(&mut sys, *at, *req);
    }
    sys.run_until_quiescent();
    settle_sim(&mut sys);
    let outcomes = sys.drain_outcomes();
    assert_oracle_sim(&sys, subs, outcomes, "fast-lane run conforms");
    sys
}

#[test]
fn fanout_conserves_system_av_on_clean_links() {
    const SITES: usize = 5;
    const PRODUCTS: u32 = 2;
    for seed in 0..20u64 {
        // All AV starts at the base, so every remote decrement opens a
        // shortage and the fan-out burst path carries the run.
        let cfg = SystemConfig::builder()
            .sites(SITES)
            .regular_products(PRODUCTS as usize, Volume(60 * SITES as i64))
            .av_allocation(AvAllocation::AllAtBase)
            .shortage_fanout(3)
            .seed(seed)
            .build()
            .unwrap();
        let sys = run(cfg, &schedule(seed, SITES, PRODUCTS, 50));
        for p in 0..PRODUCTS {
            if let Err((expected, actual)) = sys.check_av_conservation(ProductId(p)) {
                panic!("seed {seed} product{p}: expected AV {expected}, got {actual}");
            }
        }
    }
}

#[test]
fn fanout_never_mints_av_under_loss_and_rebalancing() {
    const SITES: usize = 4;
    const PRODUCTS: u32 = 2;
    for seed in 0..20u64 {
        let cfg = SystemConfig::builder()
            .sites(SITES)
            .regular_products(PRODUCTS as usize, Volume(50 * SITES as i64))
            .av_allocation(AvAllocation::AllAtBase)
            .shortage_fanout(4)
            .rebalance_horizon_ticks(200)
            .propagation_batch(3)
            .drop_probability(0.05)
            .seed(seed)
            .build()
            .unwrap();
        // A dropped grant or rebalancing push destroys in-flight AV (the
        // sender withdrew, the receiver never saw it) — the protocol's
        // documented loss semantics. What must NEVER happen, no matter
        // how grants, timeouts, stragglers, and pushes interleave, is AV
        // creation: the system total may only fall below the conserved
        // amount, never rise above it. (The oracle inside `run` applies
        // the same rule.)
        let sys = run(cfg, &schedule(seed, SITES, PRODUCTS, 50));
        for p in 0..PRODUCTS {
            if let Err((expected, actual)) = sys.check_av_conservation(ProductId(p)) {
                assert!(
                    actual <= expected,
                    "seed {seed} product{p}: loss minted AV: expected {expected}, got {actual}"
                );
            }
        }
    }
}

#[test]
fn fanout_handles_extreme_volumes_without_overflow() {
    // i64-edge shortage shares: a huge decrement against a huge stock
    // forces partition_shortage and grant accounting through values far
    // beyond any realistic workload.
    let big = i64::MAX / 8;
    let cfg = SystemConfig::builder()
        .sites(3)
        .regular_products(1, Volume(big))
        .av_allocation(AvAllocation::AllAtBase)
        .shortage_fanout(2)
        .seed(7)
        .build()
        .unwrap();
    let mut sys = DistributedSystem::new(cfg);
    let mut subs = Submissions::new();
    // A remote site asks for nearly half the system AV in one update.
    subs.submit_at(
        &mut sys,
        VirtualTime(0),
        UpdateRequest::new(SiteId(1), ProductId(0), Volume(-(big / 2))),
    );
    subs.submit_at(
        &mut sys,
        VirtualTime(10),
        UpdateRequest::new(SiteId(2), ProductId(0), Volume(-(big / 4))),
    );
    sys.run_until_quiescent();
    settle_sim(&mut sys);
    let outcomes = sys.drain_outcomes();
    assert_oracle_sim(&sys, subs, outcomes, "extreme-volume run conforms");
    if let Err((expected, actual)) = sys.check_av_conservation(ProductId(0)) {
        panic!("expected AV {expected}, got {actual}");
    }
}
