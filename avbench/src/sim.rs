//! The simulator workloads, `sim-shortage` and `sim-balanced`.
//!
//! One repetition ("rep") sets a cluster up from the workload's
//! [`ScenarioSpec`], submits the whole schedule, runs to quiescence and
//! anti-entropies until every replica agrees. The first rep is checked
//! by the conformance oracle; every later rep must reproduce its
//! outcomes, message counts and event count exactly, so each measured
//! rep is as correct as the checked one.
//!
//! The traced run hosts each [`Accelerator`] inside [`Timed`], a
//! transparent [`Actor`] that times every handler call from outside.

use crate::report::{median, ms, pct, peak_rss_mb, percentile, ratio, Ledger, Metrics};
use crate::{cpu, Options, Outcome};
use avdb_bench::{FaultProfile, ScenarioSpec, TransportKind};
use avdb_core::{outcome_line, Accelerator, Input, Msg, TracedMsg};
use avdb_oracle::{check, Observation, SiteObservation, SubmittedRequest};
use avdb_simnet::{Actor, Ctx, MsgInfo, RegistrySnapshot, Simulator, SimulatorBuilder};
use avdb_telemetry::RunExport;
use avdb_types::{
    AbortReason, AvAllocation, ProductId, SiteId, SystemConfig, UpdateKind, UpdateOutcome,
    UpdateRequest, VirtualTime,
};
use std::time::{Duration, Instant};

/// Which simulator workload.
#[derive(Clone, Copy)]
pub enum Shape {
    /// 32 sites, zipf 0.9, paper deltas: most Delay updates run short of
    /// AV, so AV transfer and knowledge digests dominate.
    Shortage,
    /// 16 sites, uniform popularity, supply matching drain: most updates
    /// commit locally, so the commit path, replication and 2PC dominate.
    Balanced,
}

/// Updates per rep. Sized so a rep takes about a second on a 2-core
/// machine, which leaves room for several measured reps per run.
const SHORTAGE_UPDATES: usize = 8_000;
const BALANCED_UPDATES: usize = 20_000;

/// Updates in the small runs of the seed self-check.
const SEED_CHECK_UPDATES: usize = 1_000;

/// Anti-entropy rounds allowed before a rep counts as not converged.
const CONVERGE_ROUNDS: usize = 50;

impl Shape {
    pub fn spec(self, seed: u64) -> ScenarioSpec {
        let mut spec = ScenarioSpec::base();
        spec.transport = TransportKind::Sim;
        spec.fault = FaultProfile::Clean;
        spec.allocation = AvAllocation::Uniform;
        spec.seed = seed;
        spec.propagation_batch = 4;
        spec.shortage_fanout = 2;
        spec.coalesce_propagation = true;
        match self {
            Shape::Shortage => {
                spec.sites = 32;
                spec.updates = SHORTAGE_UPDATES;
                spec.regular_products = 6;
                spec.non_regular_products = 2;
                spec.initial_stock = 120_000;
                spec.zipf_milli = 900;
                spec.maker_pct = 20;
                spec.retailer_pct = 10;
            }
            Shape::Balanced => {
                spec.sites = 16;
                spec.updates = BALANCED_UPDATES;
                spec.regular_products = 36;
                spec.non_regular_products = 4;
                spec.initial_stock = 1_200_000;
                spec.zipf_milli = 0;
                spec.retailer_pct = 1;
                spec.maker_pct = (spec.sites - 1) as u32;
            }
        }
        spec
    }
}

/// What the simulator needs from a hosted site: the accelerator's own
/// actor interface, plus read access to the accelerator for the oracle
/// and the convergence check.
pub trait Site: Actor<Msg = TracedMsg, Input = Input, Output = UpdateOutcome> {
    fn accelerator(&self) -> &Accelerator;
}

impl Site for Accelerator {
    fn accelerator(&self) -> &Accelerator {
        self
    }
}

/// Message kinds the accelerator speaks, in the order the per-kind
/// layer metrics are printed.
const KINDS: [&str; 10] = [
    "av-request",
    "av-grant",
    "av-push",
    "av-push-ack",
    "propagate",
    "propagate-ack",
    "imm-prepare",
    "imm-vote",
    "imm-decision",
    "imm-done",
];

/// Handler slots: inputs, timers, then one per message kind.
const SLOT_INPUT: usize = 0;
const SLOT_TIMER: usize = 1;
const SLOTS: usize = 2 + KINDS.len();

fn kind_slot(kind: &str) -> usize {
    2 + KINDS.iter().position(|k| *k == kind).unwrap_or_else(|| {
        panic!("message kind {kind:?} is unknown to the benchmark; add it to KINDS")
    })
}

/// Handler timings and payload counts one [`Timed`] site collected.
#[derive(Clone, Default)]
pub struct Tally {
    calls: [u64; SLOTS],
    busy_ns: [u64; SLOTS],
    zero_grants: u64,
    no_votes: u64,
    frame_deltas: u64,
    frame_covers: u64,
    knowledge_rows: u64,
}

impl Tally {
    fn merge(&mut self, other: &Tally) {
        for i in 0..SLOTS {
            self.calls[i] += other.calls[i];
            self.busy_ns[i] += other.busy_ns[i];
        }
        self.zero_grants += other.zero_grants;
        self.no_votes += other.no_votes;
        self.frame_deltas += other.frame_deltas;
        self.frame_covers += other.frame_covers;
        self.knowledge_rows += other.knowledge_rows;
    }

    fn busy_total(&self) -> u64 {
        self.busy_ns.iter().sum()
    }
}

/// An [`Accelerator`] that times every handler call and counts what the
/// messages it receives carry, without changing what the handlers see.
pub struct Timed {
    inner: Accelerator,
    tally: Tally,
}

impl Timed {
    fn time<R>(&mut self, slot: usize, f: impl FnOnce(&mut Accelerator) -> R) -> R {
        let started = Instant::now();
        let out = f(&mut self.inner);
        self.tally.busy_ns[slot] += started.elapsed().as_nanos() as u64;
        self.tally.calls[slot] += 1;
        out
    }
}

impl Actor for Timed {
    type Msg = TracedMsg;
    type Input = Input;
    type Output = UpdateOutcome;

    fn on_start(&mut self, ctx: &mut Ctx<'_, TracedMsg, UpdateOutcome>) {
        self.inner.on_start(ctx);
    }

    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_, TracedMsg, UpdateOutcome>,
        from: SiteId,
        msg: TracedMsg,
    ) {
        match &msg.msg {
            Msg::AvGrant { amount, .. } if !amount.is_positive() => self.tally.zero_grants += 1,
            Msg::ImmVote { ready: false, .. } => self.tally.no_votes += 1,
            Msg::Propagate {
                deltas,
                covers,
                knowledge,
                ..
            } => {
                self.tally.frame_deltas += deltas.len() as u64;
                self.tally.frame_covers += covers;
                self.tally.knowledge_rows += knowledge.len() as u64;
            }
            _ => {}
        }
        let slot = kind_slot(msg.kind());
        self.time(slot, |a| a.on_message(ctx, from, msg));
    }

    fn on_input(&mut self, ctx: &mut Ctx<'_, TracedMsg, UpdateOutcome>, input: Input) {
        self.time(SLOT_INPUT, |a| a.on_input(ctx, input));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, TracedMsg, UpdateOutcome>, token: u64) {
        self.time(SLOT_TIMER, |a| a.on_timer(ctx, token));
    }

    fn on_crash(&mut self) {
        self.inner.on_crash();
    }

    fn on_recover(&mut self, ctx: &mut Ctx<'_, TracedMsg, UpdateOutcome>) {
        self.inner.on_recover(ctx);
    }
}

impl Site for Timed {
    fn accelerator(&self) -> &Accelerator {
        &self.inner
    }
}

/// Everything a rep decides that must not depend on timing. Two reps of
/// one seed must produce equal `Facts`; a traced rep must produce the
/// untraced rep's `Facts`.
#[derive(PartialEq)]
struct Facts {
    outcomes: Vec<(VirtualTime, SiteId, UpdateOutcome)>,
    network: RegistrySnapshot,
    events: u64,
    end: VirtualTime,
}

/// One finished rep.
struct Rep<A: Site> {
    cfg: SystemConfig,
    schedule: Vec<(VirtualTime, UpdateRequest)>,
    sim: Simulator<A>,
    facts: Facts,
    gen: Duration,
    setup: Duration,
    drive: Duration,
}

fn run_rep<A: Site>(
    spec: &ScenarioSpec,
    host: impl Fn(Accelerator) -> A,
) -> Result<Rep<A>, String> {
    let started = Instant::now();
    let cfg = spec.config()?;
    let schedule = spec.schedule();
    let gen = started.elapsed();
    let actors = SiteId::all(cfg.n_sites)
        .map(|s| host(Accelerator::new(s, &cfg)))
        .collect();
    // Built exactly as `DistributedSystem::from_actors` builds its
    // simulator, so the untraced rep measures what the program runs.
    let mut sim = SimulatorBuilder::new()
        .latency(cfg.latency)
        .seed(cfg.seed)
        .drop_probability(cfg.drop_probability)
        .build(actors);
    let setup = started.elapsed();

    let started = Instant::now();
    for (at, req) in &schedule {
        sim.inject_at(*at, req.site, Input::Update(*req));
    }
    sim.run_until_quiescent();
    let mut converged = false;
    for _ in 0..CONVERGE_ROUNDS {
        for site in SiteId::all(cfg.n_sites) {
            sim.inject_now(site, Input::FlushPropagation);
        }
        sim.run_until_quiescent();
        if diverged(&cfg, &sim).is_none() {
            converged = true;
            break;
        }
    }
    let drive = started.elapsed();
    if !converged {
        return Err(format!(
            "{}: no convergence: {}",
            spec.label(),
            diverged(&cfg, &sim).unwrap_or_default()
        ));
    }
    let facts = Facts {
        outcomes: sim.drain_outputs(),
        network: sim.counters().registry().snapshot(),
        events: sim.events_processed(),
        end: sim.now(),
    };
    Ok(Rep {
        cfg,
        schedule,
        sim,
        facts,
        gen,
        setup,
        drive,
    })
}

/// The first product whose replicas disagree, if any.
fn diverged<A: Site>(cfg: &SystemConfig, sim: &Simulator<A>) -> Option<String> {
    let stock = |s: SiteId, p: ProductId| sim.actor(s).accelerator().db().stock(p).ok();
    ProductId::all(cfg.n_products()).find_map(|p| {
        let base = stock(SiteId::BASE, p);
        SiteId::all(cfg.n_sites)
            .find(|s| stock(*s, p) != base)
            .map(|s| format!("{p} at {s} is {:?}, base has {base:?}", stock(s, p)))
    })
}

/// Runs the conformance oracle over a finished rep.
fn oracle<A: Site>(rep: &Rep<A>) -> Result<(), String> {
    let submitted = rep
        .schedule
        .iter()
        .map(|(at, req)| SubmittedRequest::single(*at, req))
        .collect();
    let obs = Observation {
        cfg: rep.cfg.clone(),
        submitted,
        outcomes: rep.facts.outcomes.clone(),
        sites: SiteId::all(rep.cfg.n_sites)
            .map(|s| SiteObservation::capture(&rep.cfg, rep.sim.actor(s).accelerator()))
            .collect(),
        network: rep.sim.counters().snapshot(),
        trace: Vec::new(),
        lost_inputs: Some(rep.sim.lost_input_log().to_vec()),
        reclassified: false,
    };
    let report = check(&obs);
    if report.is_ok() {
        Ok(())
    } else {
        Err(format!("oracle violations: {report}"))
    }
}

/// Assembles the run's telemetry export the way the program does for a
/// simulated run: per-site spans and registries, network counters,
/// outcomes, and the critical-path profile.
fn export<A: Site>(rep: &Rep<A>) -> RunExport {
    let mut export = RunExport::default();
    for site in SiteId::all(rep.cfg.n_sites) {
        let acc = rep.sim.actor(site).accelerator();
        export.add_spans(acc.spans().records());
        export.add_registry(&format!("site{}", site.0), acc.registry().snapshot());
    }
    export.add_registry("network", rep.sim.counters().registry().snapshot());
    for (at, site, outcome) in &rep.facts.outcomes {
        export.outcomes.push(outcome_line(*at, *site, outcome));
    }
    export.profile = Some(avdb_telemetry::profile_export(&export));
    export
}

fn abort_name(reason: &AbortReason) -> &'static str {
    match reason {
        AbortReason::InsufficientAv { .. } => "insufficient-av",
        AbortReason::PrepareFailed { .. } => "prepare-failed",
        AbortReason::SiteUnavailable { .. } => "site-unavailable",
        AbortReason::NegativeStock => "negative-stock",
        AbortReason::UnknownProduct => "unknown-product",
        AbortReason::NotDelayEligible => "not-delay-eligible",
        AbortReason::RolledBack => "rolled-back",
    }
}

/// Fates of every submitted update. The workloads inject no faults, so
/// an update without an outcome never resolved.
fn ledger<A: Site>(rep: &Rep<A>) -> Ledger {
    let mut ledger = Ledger {
        submitted: rep.schedule.len() as u64,
        ..Ledger::default()
    };
    for (_, _, outcome) in &rep.facts.outcomes {
        match outcome {
            UpdateOutcome::Committed { .. } => ledger.committed += 1,
            UpdateOutcome::Aborted { reason, .. } => ledger.abort(abort_name(reason)),
        }
    }
    for _ in rep.facts.outcomes.len() as u64..ledger.submitted {
        ledger.fail("unresolved");
    }
    ledger
}

/// Virtual ticks from submission to commit, ascending. The k-th update
/// submitted at a site carries that site's k-th transaction id.
fn commit_ticks<A: Site>(rep: &Rep<A>) -> Result<Vec<u64>, String> {
    let mut submitted_at: Vec<Vec<VirtualTime>> = vec![Vec::new(); rep.cfg.n_sites];
    for (at, req) in &rep.schedule {
        submitted_at[req.site.index()].push(*at);
    }
    let mut ticks = Vec::with_capacity(rep.facts.outcomes.len());
    for (_, _, outcome) in &rep.facts.outcomes {
        if let UpdateOutcome::Committed {
            txn, completed_at, ..
        } = outcome
        {
            let tick = submitted_at[txn.origin().index()]
                .get(txn.seq() as usize)
                .and_then(|at| completed_at.ticks().checked_sub(at.ticks()))
                .ok_or_else(|| format!("{txn:?} does not match a submitted update"))?;
            ticks.push(tick);
        }
    }
    ticks.sort_unstable();
    Ok(ticks)
}

/// Metrics fixed by the seed: they repeat exactly across reps.
fn deterministic_metrics<A: Site>(rep: &Rep<A>, m: &mut Metrics) -> Result<(), String> {
    let outcomes = &rep.facts.outcomes;
    let committed = outcomes.iter().filter(|(_, _, o)| o.is_committed()).count() as u64;
    let local = outcomes
        .iter()
        .filter(|(_, _, o)| {
            matches!(
                o,
                UpdateOutcome::Committed {
                    kind: UpdateKind::Delay,
                    correspondences: 0,
                    ..
                }
            )
        })
        .count() as u64;
    let submitted = rep.schedule.len() as u64;
    m.put("commit_pct", pct(committed, submitted), "%");
    m.put("local_pct", pct(local, committed), "%");
    m.put(
        "msgs_per_update",
        ratio(rep.sim.counters().total_messages(), submitted),
        "count",
    );
    let ticks = commit_ticks(rep)?;
    m.put("commit_ticks_p50", percentile(&ticks, 0.50) as f64, "ticks");
    m.put("commit_ticks_p99", percentile(&ticks, 0.99) as f64, "ticks");
    Ok(())
}

pub fn run(shape: Shape, opts: &Options) -> Result<Outcome, String> {
    let spec = shape.spec(opts.seed);
    let budget = Duration::from_secs(opts.seconds);

    // The first rep warms caches and the allocator and is the one the
    // oracle checks; it is not timed into the throughput figure.
    let first = run_rep(&spec, |a| a)?;
    let started = Instant::now();
    oracle(&first)?;
    let oracle_ms = ms(started.elapsed());
    let ledger = ledger(&first);
    ledger.check_balanced()?;
    check_seed_sensitivity(shape, opts.seed)?;

    // Fixed by the seed, so the checked rep speaks for every rep.
    let mut m = Metrics::default();
    deterministic_metrics(&first, &mut m)?;
    m.put(
        "fail_pct",
        pct(ledger.failed_total(), ledger.attempted()),
        "%",
    );
    let mut gens = vec![ms(first.gen)];
    let mut setups = vec![first.setup.as_secs_f64()];
    if !opts.trace {
        // One rep per core per round (see `cpu`); a round's rate is its
        // updates over its summed drive time.
        let cores = cpu::allowed();
        let mut rates = Vec::new();
        let started = Instant::now();
        while started.elapsed() < budget || rates.len() < 3 {
            let mut drive = Duration::ZERO;
            for core in &cores {
                cpu::pin(&[*core]);
                let rep = run_rep(&spec, |a| a)?;
                same_facts(&first.facts, &rep.facts, "a repeated rep")?;
                gens.push(ms(rep.gen));
                setups.push(rep.setup.as_secs_f64());
                drive += rep.drive;
            }
            rates.push((cores.len() * spec.updates) as f64 / drive.as_secs_f64());
        }
        cpu::pin(&cores);
        println!("{}", spread_line("drive rate per round, updates/s", &rates));
        m.put("setup_s", median(&setups), "s");
        m.put("updates_per_s", median(&rates), "1/s");
        m.put("peak_rss_mb", peak_rss_mb()?, "MB");
    } else {
        // Untraced and traced reps alternate on one core at a time,
        // cycling over the cores, so both see the same machine; the
        // traced reps' layer figures are summed and divided by their
        // count.
        let host = |a: Accelerator| Timed {
            inner: a,
            tally: Tally::default(),
        };
        let mut plain = Vec::new();
        let mut traced = Vec::new();
        let mut tally = Tally::default();
        let mut self_ns = 0u64;
        let mut export_ms = Vec::new();
        let mut last = None;
        let cores = cpu::allowed();
        let started = Instant::now();
        while started.elapsed() < budget || traced.len() < 2 {
            cpu::pin(&[cores[traced.len() % cores.len()]]);
            let rep = run_rep(&spec, |a| a)?;
            same_facts(&first.facts, &rep.facts, "a repeated rep")?;
            plain.push(ms(rep.drive));
            gens.push(ms(rep.gen));

            let rep = run_rep(&spec, host)?;
            same_facts(&first.facts, &rep.facts, "the traced rep")?;
            traced.push(ms(rep.drive));
            let mut rep_tally = Tally::default();
            for site in SiteId::all(rep.cfg.n_sites) {
                rep_tally.merge(&rep.sim.actor(site).tally);
            }
            self_ns += (rep.drive.as_nanos() as u64).saturating_sub(rep_tally.busy_total());
            tally.merge(&rep_tally);
            let t = Instant::now();
            std::hint::black_box(export(&rep));
            export_ms.push(ms(t.elapsed()));
            last = Some(rep);
        }
        cpu::pin(&cores);
        let rep = last.expect("at least one traced rep");
        let reps = traced.len() as u64;
        layer_metrics(&rep, &tally, self_ns, reps, &mut m);
        m.put(
            "trace.overhead_pct",
            (median(&traced) / median(&plain) - 1.0) * 100.0,
            "%",
        );
        m.put("telemetry.export_ms", median(&export_ms), "ms");
    }
    m.put("workload.gen_ms", median(&gens), "ms");
    m.put("oracle.check_ms", oracle_ms, "ms");
    Ok(Outcome { metrics: m, ledger })
}

/// `what: n rounds, min .. median .. max`, for people reading the log.
fn spread_line(what: &str, v: &[f64]) -> String {
    let min = v.iter().copied().fold(f64::INFINITY, f64::min);
    let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!(
        "{what}: {} rounds, min {min:.1}, median {:.1}, max {max:.1}",
        v.len(),
        median(v)
    )
}

fn same_facts(want: &Facts, got: &Facts, what: &str) -> Result<(), String> {
    if want == got {
        return Ok(());
    }
    let mut diff = Vec::new();
    if want.outcomes != got.outcomes {
        diff.push("outcomes");
    }
    if want.network != got.network {
        diff.push("per-kind message counts");
    }
    if want.events != got.events {
        diff.push("event count");
    }
    if want.end != got.end {
        diff.push("final virtual time");
    }
    Err(format!(
        "{what} differs from the checked rep in: {}",
        diff.join(", ")
    ))
}

/// The determinism self-check: a small run of the same shape gives equal
/// facts under one seed and different facts under the next seed. Without
/// the second half a seed that is ignored would pass the first.
fn check_seed_sensitivity(shape: Shape, seed: u64) -> Result<(), String> {
    let small = |seed| {
        let mut spec = shape.spec(seed);
        spec.updates = SEED_CHECK_UPDATES;
        run_rep(&spec, |a| a).map(|r| r.facts)
    };
    let a = small(seed)?;
    same_facts(&a, &small(seed)?, "a second run of the same seed")?;
    if a == small(seed.wrapping_add(1))? {
        return Err("seeds differ but the runs are identical: the seed is ignored".into());
    }
    Ok(())
}

fn layer_metrics(rep: &Rep<Timed>, tally: &Tally, self_ns: u64, reps: u64, m: &mut Metrics) {
    let per_rep = |v: u64| v as f64 / reps as f64;
    let events = rep.facts.events;
    m.put("simnet.events", events as f64, "count");
    m.put("simnet.self_ms", per_rep(self_ns) / 1e6, "ms");
    m.put(
        "simnet.ns_per_event",
        per_rep(self_ns) / events.max(1) as f64,
        "ns",
    );
    let slot = |name: &str| match name {
        "input" => SLOT_INPUT,
        "timer" => SLOT_TIMER,
        kind => kind_slot(kind),
    };
    for (name, n_key, busy_key) in LAYER_SLOTS {
        let i = slot(name);
        m.put(n_key, per_rep(tally.calls[i]), "count");
        m.put(busy_key, per_rep(tally.busy_ns[i]) / 1e6, "ms");
    }
    let calls = |kind: &str| tally.calls[kind_slot(kind)];
    let mut registry = RegistrySnapshot::default();
    for site in SiteId::all(rep.cfg.n_sites) {
        registry.merge(&rep.sim.actor(site).accelerator().registry().snapshot());
    }
    m.put(
        "escrow.zero_grant_pct",
        pct(tally.zero_grants, calls("av-grant")),
        "%",
    );
    m.put(
        "escrow.requests_per_shortage",
        ratio(
            calls("av-request"),
            reps * registry.counter("slo.delay.shortage"),
        ),
        "count",
    );
    let frames = calls("propagate");
    m.put(
        "repl.deltas_per_frame",
        ratio(tally.frame_deltas, frames),
        "count",
    );
    m.put(
        "repl.covers_per_frame",
        ratio(tally.frame_covers, frames),
        "count",
    );
    m.put("knowledge.rows", per_rep(tally.knowledge_rows), "count");
    m.put(
        "knowledge.rows_per_frame",
        ratio(tally.knowledge_rows, frames),
        "count",
    );
    m.put(
        "imm.no_vote_pct",
        pct(tally.no_votes, calls("imm-vote")),
        "%",
    );
}

/// `(handler, count metric, busy metric)` for every timed handler slot.
pub const LAYER_SLOTS: [(&str, &str, &str); SLOTS] = [
    ("input", "accel.input.n", "accel.input.busy_ms"),
    ("timer", "accel.timer.n", "accel.timer.busy_ms"),
    (
        "av-request",
        "accel.av-request.n",
        "accel.av-request.busy_ms",
    ),
    ("av-grant", "accel.av-grant.n", "accel.av-grant.busy_ms"),
    ("av-push", "accel.av-push.n", "accel.av-push.busy_ms"),
    (
        "av-push-ack",
        "accel.av-push-ack.n",
        "accel.av-push-ack.busy_ms",
    ),
    ("propagate", "accel.propagate.n", "accel.propagate.busy_ms"),
    (
        "propagate-ack",
        "accel.propagate-ack.n",
        "accel.propagate-ack.busy_ms",
    ),
    (
        "imm-prepare",
        "accel.imm-prepare.n",
        "accel.imm-prepare.busy_ms",
    ),
    ("imm-vote", "accel.imm-vote.n", "accel.imm-vote.busy_ms"),
    (
        "imm-decision",
        "accel.imm-decision.n",
        "accel.imm-decision.busy_ms",
    ),
    ("imm-done", "accel.imm-done.n", "accel.imm-done.busy_ms"),
];
