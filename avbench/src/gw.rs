//! The gateway workload, `gw-open`: a live 3-site TCP cluster behind the
//! [`Gateway`], driven through the wire protocol.
//!
//! One thread generates all load over two connections, one on the maker
//! (site 0) and one on a retailer (site 1), so the generator never needs
//! more threads or connections than a 2-core machine has.
//!
//! A run has up to three phases:
//!
//! - **steady**, for the whole `--seconds`: open loop at [`STEADY_RATE`].
//!   Each request is due at a fixed time and its latency counts from
//!   then, so a stall in the generator, gateway or cluster shows in every
//!   request it delays. `updates_per_s` is the updates answered within
//!   [`SLO`] per second of this phase (goodput at the fixed offered
//!   load); the latency percentiles come from it too.
//! - **saturation** (with `--trace 1`, in the untraced run): a fixed
//!   number of requests kept outstanding, which measures the most updates
//!   per second the cluster completes (`gw.saturation_per_s`).
//! - **knee search** (likewise): open-loop probes that bisect the rate
//!   between the steady rate and [`MAX_RATE`] for the highest rate whose
//!   p99 stays within [`SLO`] with nothing failed and no growing backlog,
//!   then interpolate across the final bracket (`knee_per_s`).
//!
//! On a shared 2-core machine the saturation rate and the knee moved by
//! up to a fifth from run to run with other tenants' load, too much for
//! an end-to-end bound, so they are per-layer figures. The traced run
//! that follows the untraced one runs only the steady phase, timing the
//! generator's own codec calls.

use crate::cpu;
use crate::net::{tighten_timer_slack, wait, Conn};
use crate::report::{median, ms, pct, peak_rss_mb, percentile, ratio, Ledger, Metrics};
use crate::{Options, Outcome};
use avdb_bench::ScenarioSpec;
use avdb_core::{export_from_accelerators, Accelerator, Input};
use avdb_gateway::{Gateway, GatewayConfig, GatewayStats};
use avdb_oracle::{check, Observation};
use avdb_simnet::{DetRng, RegistrySnapshot, TcpMesh};
use avdb_types::{SiteId, SystemConfig, UpdateOutcome, VirtualTime};
use avdb_wire::{encode_request, AbortCode, CommitKind, ErrorCode, Request, Response};
use bytes::BytesMut;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SITES: usize = 3;
/// Sites the generator connects to: the maker and one retailer.
const CONN_SITES: [usize; 2] = [0, 1];
/// Requests (updates and reads) per second in the steady phase; also
/// the lower end of the knee search.
const STEADY_RATE: f64 = 8_000.0;
/// Upper end of the knee search.
const MAX_RATE: f64 = 8.0 * STEADY_RATE;
/// Probes of the knee search; each halves the bracket on a log scale.
const PROBES: usize = 5;
/// The latency limit of the knee search.
const SLO: Duration = Duration::from_millis(10);
/// Requests kept outstanding in the saturation phase.
const SATURATION_OUTSTANDING: usize = 256;
/// Saturation slices per core; see [`Run::saturation_per_s`].
const SLICES_PER_CORE: usize = 2;
/// Most requests the generator keeps outstanding in an open-loop phase;
/// beyond it, due requests wait and count as backlog. This bounds the
/// memory an overloaded probe can pile up in the cluster.
const OPEN_OUTSTANDING: usize = 4096;
/// Reads per thousand requests.
const READ_PERMILLE: u64 = 100;
/// Requests in the seeded pool the phases draw from, cyclically.
const POOL: usize = 1 << 17;
/// Cluster set-ups per core per run; `setup_s` is their median.
const SETUPS_PER_CORE: usize = 10;
/// How long shutdown waits for the gateway's threads to release the mesh.
const MESH_WAIT: Duration = Duration::from_secs(5);
/// How long a phase waits for its last replies before counting them lost.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);
/// Pause before each phase, so replication work left over from the
/// previous phase does not count against the next one.
const SETTLE: Duration = Duration::from_millis(100);
/// In-flight window per connection: above anything the generator keeps
/// outstanding, so the gateway never refuses work.
const WINDOW: usize = 2 * OPEN_OUTSTANDING;

/// One request: the connection it goes out on and what it asks.
type Planned = (usize, Request);

/// The workload's cluster: the balanced product mix on 3 sites. The
/// update count only decides the telemetry level; it is set past the
/// full-telemetry ceiling, as for the repository's scale-up cells, so
/// the cluster samples traces instead of keeping every span.
fn cluster_spec(seed: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::base();
    spec.sites = SITES;
    spec.updates = POOL;
    spec.regular_products = 36;
    spec.non_regular_products = 4;
    spec.initial_stock = 1_200_000;
    spec.zipf_milli = 0;
    spec.propagation_batch = 4;
    spec.shortage_fanout = 2;
    spec.coalesce_propagation = true;
    spec.seed = seed;
    spec
}

/// The seeded request pool. Updates come from the repository's workload
/// generator over the two connected sites with balanced deltas (maker up
/// to +1 %, retailer up to −1 % of stock); a seeded tenth of the
/// requests are reads.
fn pool(seed: u64) -> Vec<Planned> {
    let mut spec = cluster_spec(seed);
    spec.sites = CONN_SITES.len();
    spec.maker_pct = 1;
    spec.retailer_pct = 1;
    let products = (spec.regular_products + spec.non_regular_products) as u64;
    let mut rng = DetRng::new(seed ^ 0x5EAD_5EAD);
    spec.schedule()
        .into_iter()
        .map(|(_, u)| {
            let req = if rng.gen_range(1000) < READ_PERMILLE {
                Request::Read {
                    product: rng.gen_range(products) as u32,
                }
            } else {
                Request::Update {
                    product: u.product.0,
                    delta: u.delta.get(),
                }
            };
            (u.site.index(), req)
        })
        .collect()
}

// ---- the cluster ----------------------------------------------------

struct Cluster {
    cfg: SystemConfig,
    mesh: Arc<TcpMesh<Accelerator>>,
    gateway: Gateway,
    conns: Vec<Conn>,
}

fn set_up(seed: u64) -> Result<Cluster, String> {
    let cfg = cluster_spec(seed).config()?;
    let actors = SiteId::all(SITES)
        .map(|s| Accelerator::new(s, &cfg))
        .collect();
    let (mesh, _http) = TcpMesh::spawn_with_http(actors, cfg.seed);
    let mesh = Arc::new(mesh);
    let gateway = Gateway::spawn(
        Arc::clone(&mesh),
        SITES,
        GatewayConfig {
            max_connections: 1,
            max_in_flight: WINDOW,
            shed_after: 1,
            queue_slack: 1024,
        },
    );
    let conns = CONN_SITES
        .iter()
        .map(|s| Conn::connect(gateway.addrs()[*s]))
        .collect::<Result<_, _>>()?;
    Ok(Cluster {
        cfg,
        mesh,
        gateway,
        conns,
    })
}

/// What shutdown hands back for checking.
struct Finished {
    actors: Vec<Accelerator>,
    observation: Observation,
    stats: GatewayStats,
    messages: u64,
    network: RegistrySnapshot,
    outcomes: Vec<(VirtualTime, SiteId, UpdateOutcome)>,
    mesh_waits: u64,
}

/// Lets replication settle (when any update was accepted), closes the
/// clients, stops the gateway and the mesh. The gateway does not join
/// its per-connection threads, so the mesh can still be referenced for a
/// moment after `finish`; this waits for it, counting the waits, and
/// fails the run after [`MESH_WAIT`].
fn shut_down(cluster: Cluster) -> Result<Finished, String> {
    let Cluster {
        cfg,
        mesh,
        gateway,
        conns,
    } = cluster;
    let deadline = Instant::now() + DRAIN_TIMEOUT;
    while gateway.outcome_count() < gateway.stats().updates {
        if Instant::now() > deadline {
            return Err(format!(
                "{} of {} accepted updates never resolved",
                gateway.stats().updates - gateway.outcome_count(),
                gateway.stats().updates
            ));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let flush_rounds = if gateway.stats().updates > 0 { 3 } else { 0 };
    for _ in 0..flush_rounds {
        for site in SiteId::all(SITES) {
            mesh.inject(site, Input::FlushPropagation);
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    drop(conns);
    let (submissions, mut outcomes, stats) = gateway.finish();
    let mut mesh = mesh;
    let mut mesh_waits = 0;
    let waited = Instant::now();
    let mesh = loop {
        match Arc::try_unwrap(mesh) {
            Ok(m) => break m,
            Err(still_shared) => {
                if waited.elapsed() > MESH_WAIT {
                    return Err(format!(
                        "mesh still referenced {MESH_WAIT:?} after gateway shutdown ({mesh_waits} waits)"
                    ));
                }
                mesh_waits += 1;
                mesh = still_shared;
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    };
    let (actors, counters, leftovers) = mesh.shutdown();
    outcomes.extend(leftovers);
    let observation = Observation::from_accelerators(
        cfg,
        &actors,
        submissions,
        outcomes.clone(),
        counters.snapshot(),
    );
    Ok(Finished {
        actors,
        observation,
        stats,
        messages: counters.total_messages(),
        network: counters.registry().snapshot(),
        outcomes,
        mesh_waits,
    })
}

// ---- driving a phase -------------------------------------------------

/// How a phase paces its requests.
#[derive(Clone, Copy)]
enum Pace {
    /// `n` requests, the i-th due `i / rate` seconds after the start.
    Open { rate: f64, n: usize },
    /// `n` requests, sent as fast as `outstanding` in flight allow.
    Closed { outstanding: usize, n: usize },
}

/// Wire-codec timings, taken only in the traced run.
#[derive(Default)]
struct WireClock {
    encode_ns: u64,
    encoded: u64,
    decode_ns: u64,
    decoded: u64,
}

/// What one phase measured.
#[derive(Default)]
struct PhaseResult {
    /// Latency of every resolved update, from its due time.
    update_ns: Vec<u64>,
    /// Latency of every answered read, from its due time.
    read_ns: Vec<u64>,
    /// How late each open-loop request was handed to its socket.
    late_ns: Vec<u64>,
    /// Most requests due but not yet written to a socket at once.
    backlog_max: usize,
    /// Updates and reads sent.
    sent: u64,
    failed: u64,
    elapsed: Duration,
}

impl PhaseResult {
    fn p99(&self) -> Duration {
        let mut all = self.update_ns.clone();
        all.extend(&self.read_ns);
        all.sort_unstable();
        Duration::from_nanos(percentile(&all, 0.99))
    }

    /// A knee probe passes when p99 meets the limit, nothing failed, and
    /// the backlog never held more than the limit's worth of requests.
    fn passes(&self, rate: f64) -> bool {
        self.p99() <= SLO
            && self.failed == 0
            && self.backlog_max as f64 <= (rate * SLO.as_secs_f64()).max(1.0)
    }

    fn summary(&self, name: &str) -> String {
        let mut lat = self.update_ns.clone();
        lat.sort_unstable();
        format!(
            "{name}: {} requests in {:.2} s, update p50 {:.0} us, p99 {:.0} us, failed {}, backlog max {}",
            self.sent,
            self.elapsed.as_secs_f64(),
            percentile(&lat, 0.5) as f64 / 1e3,
            self.p99().as_secs_f64() * 1e6,
            self.failed,
            self.backlog_max,
        )
    }
}

/// Replies over the whole run.
#[derive(Default)]
struct Replies {
    ledger: Ledger,
    delay_local: u64,
}

fn abort_name(code: AbortCode) -> &'static str {
    match code {
        AbortCode::Other => "other",
        AbortCode::InsufficientAv => "insufficient-av",
        AbortCode::PrepareFailed => "prepare-failed",
        AbortCode::SiteUnavailable => "site-unavailable",
        AbortCode::NegativeStock => "negative-stock",
        AbortCode::UnknownProduct => "unknown-product",
        AbortCode::NotDelayEligible => "not-delay-eligible",
        AbortCode::RolledBack => "rolled-back",
    }
}

fn error_name(code: ErrorCode) -> &'static str {
    match code {
        ErrorCode::Malformed => "malformed",
        ErrorCode::UnsupportedVersion => "unsupported-version",
        ErrorCode::UnsupportedKind => "unsupported-kind",
        ErrorCode::AdmissionRefused => "refused",
        ErrorCode::OverWindow => "over-window",
        ErrorCode::Shed => "shed",
        ErrorCode::Unavailable => "unavailable",
    }
}

/// The generator: the connections, the request pool it cycles through,
/// and the tallies kept across phases.
struct Generator {
    conns: Vec<Conn>,
    pool: Vec<Planned>,
    next_req: usize,
    next_id: u64,
    replies: Replies,
    /// Set in the traced run.
    wire: Option<WireClock>,
}

impl Generator {
    /// Runs one phase and collects every reply to it.
    fn phase(&mut self, name: &str, pace: Pace) -> Result<PhaseResult, String> {
        std::thread::sleep(SETTLE);
        let mut out = PhaseResult::default();
        // req id → (due ns, is read)
        let mut pending: HashMap<u64, (u64, bool)> = HashMap::with_capacity(1024);
        let mut frame = BytesMut::new();
        let mut chunk = vec![0u8; 64 * 1024];
        let start = Instant::now();
        let mut sent = 0usize;
        let mut last_send = Duration::ZERO;
        loop {
            let now = start.elapsed().as_nanos() as u64;
            // Requests due by now, and when the next one falls due.
            let (due_by_now, next_due, cap) = match pace {
                Pace::Open { rate, n } => {
                    let due = |i: usize| (i as f64 * 1e9 / rate) as u64;
                    let by_now = ((now as f64 * rate / 1e9) as usize + 1).min(n);
                    (by_now, (by_now < n).then(|| due(by_now)), OPEN_OUTSTANDING)
                }
                Pace::Closed { outstanding, n } => {
                    let by_now = (sent + outstanding.saturating_sub(pending.len())).min(n);
                    (by_now, (by_now < n).then_some(now), outstanding)
                }
            };
            while sent < due_by_now && pending.len() < cap {
                let due_ns = match pace {
                    Pace::Open { rate, .. } => (sent as f64 * 1e9 / rate) as u64,
                    Pace::Closed { .. } => now,
                };
                let (conn, req) = &self.pool[self.next_req];
                self.next_req = (self.next_req + 1) % self.pool.len();
                let id = self.next_id;
                self.next_id += 1;
                frame.clear();
                match self.wire.as_mut() {
                    Some(w) => {
                        let t = Instant::now();
                        encode_request(id, req, &mut frame);
                        w.encode_ns += t.elapsed().as_nanos() as u64;
                        w.encoded += 1;
                    }
                    None => encode_request(id, req, &mut frame),
                }
                self.conns[*conn].queue(&frame);
                let is_read = matches!(req, Request::Read { .. });
                if is_read {
                    self.replies.ledger.reads += 1;
                } else {
                    self.replies.ledger.submitted += 1;
                }
                pending.insert(id, (due_ns, is_read));
                if let Pace::Open { .. } = pace {
                    out.late_ns.push(now.saturating_sub(due_ns));
                }
                sent += 1;
                last_send = start.elapsed();
            }
            for c in self.conns.iter_mut() {
                c.flush()?;
            }
            let unsent: usize = self.conns.iter().map(Conn::unsent).sum();
            out.backlog_max = out.backlog_max.max(due_by_now - sent + unsent);

            for c in self.conns.iter_mut() {
                c.fill(&mut chunk)?;
                let arrived = start.elapsed().as_nanos() as u64;
                loop {
                    let decoded = match self.wire.as_mut() {
                        Some(w) => {
                            let t = Instant::now();
                            let r = c.dec.next_response();
                            if matches!(r, Ok(Some(_))) {
                                w.decode_ns += t.elapsed().as_nanos() as u64;
                                w.decoded += 1;
                            }
                            r
                        }
                        None => c.dec.next_response(),
                    };
                    let Some((id, resp)) = decoded.map_err(|e| format!("reply: {e}"))? else {
                        break;
                    };
                    let (due, is_read) = pending
                        .remove(&id)
                        .ok_or_else(|| format!("reply to unknown request {id}"))?;
                    let lat = arrived.saturating_sub(due);
                    let ledger = &mut self.replies.ledger;
                    match (is_read, resp) {
                        (
                            false,
                            Response::Committed {
                                kind,
                                correspondences,
                                ..
                            },
                        ) => {
                            ledger.committed += 1;
                            if kind == CommitKind::Delay && correspondences == 0 {
                                self.replies.delay_local += 1;
                            }
                            out.update_ns.push(lat);
                        }
                        (false, Response::Aborted { code, .. }) => {
                            ledger.abort(abort_name(code));
                            out.update_ns.push(lat);
                        }
                        (true, Response::ReadOk { .. }) => {
                            ledger.reads_ok += 1;
                            out.read_ns.push(lat);
                        }
                        (false, reply) => {
                            ledger.fail(reply_failure(&reply));
                            out.failed += 1;
                        }
                        (true, reply) => {
                            ledger.fail_read(reply_failure(&reply));
                            out.failed += 1;
                        }
                    }
                }
            }

            let now = start.elapsed().as_nanos() as u64;
            if next_due.is_none() && sent == due_by_now && pending.is_empty() {
                break;
            }
            if next_due.is_none() && start.elapsed() > last_send + DRAIN_TIMEOUT {
                for (_, is_read) in pending.values() {
                    if *is_read {
                        self.replies.ledger.fail_read("timeout");
                    } else {
                        self.replies.ledger.fail("timeout");
                    }
                    out.failed += 1;
                }
                break;
            }
            let timeout = match next_due {
                Some(due) if pending.len() < cap => Duration::from_nanos(due.saturating_sub(now)),
                _ => Duration::from_millis(1),
            };
            if !timeout.is_zero() {
                wait(&self.conns, timeout);
            }
        }
        out.elapsed = start.elapsed();
        out.sent = sent as u64;
        println!("{}", out.summary(name));
        Ok(out)
    }
}

/// The ledger's name for a reply that is neither a commit, an abort nor
/// a read result.
fn reply_failure(reply: &Response) -> &'static str {
    match reply {
        Response::Error { code, .. } => error_name(*code),
        _ => "wrong-reply",
    }
}

/// Interpolates the rate at which p99 crosses the limit, on a log-latency
/// scale, between the fastest probe that passed and the slowest that did
/// not. A probe that failed for another reason than latency, or no
/// failed probe at all, gives the passing rate.
fn knee(passed: (f64, Duration), failed: Option<(f64, &PhaseResult)>) -> f64 {
    let (r0, l0) = passed;
    match failed {
        Some((r1, res)) if res.failed == 0 && res.p99() > SLO => {
            let ln = |d: Duration| d.as_secs_f64().ln();
            let (l0, l1, slo) = (ln(l0), ln(res.p99()), ln(SLO));
            let f = if l1 > l0 {
                ((slo - l0) / (l1 - l0)).clamp(0.0, 1.0)
            } else {
                0.0
            };
            r0 + f * (r1 - r0)
        }
        _ => r0,
    }
}

// ---- one run -----------------------------------------------------------

/// One complete gateway run.
struct Run {
    setup_s: f64,
    gen_ms: f64,
    steady: PhaseResult,
    /// Updates answered within [`SLO`] of their due time, per second of
    /// the steady phase: what the open-loop clients get served in time.
    goodput: f64,
    /// Updates resolved per second of saturation, one core at a time:
    /// the whole process is pinned to one core per slice, cycling over
    /// the cores, and the rate is all updates over all slice time. Every
    /// core then weighs the same in every run; unpinned, the cluster's
    /// threads hand work across cores whose speed other tenants change
    /// independently, and the figure spread wider from run to run in
    /// trials on a shared 2-core machine.
    saturation_per_s: f64,
    /// Highest rate meeting the limit; 0 when the knee was not searched
    /// or the steady rate already missed it. Saturation and knee are
    /// measured only in an `extended` run.
    knee: f64,
    gen: Generator,
    finished: Finished,
    mesh_waits: u64,
    oracle_ms: f64,
}

/// Runs the steady phase for the whole `--seconds`; when `extended`, the
/// saturation phase and the knee search after it.
fn run_once(opts: &Options, traced: bool, extended: bool) -> Result<Run, String> {
    let mut setups = Vec::new();
    let mut gens = Vec::new();
    let mut mesh_waits = 0;
    let mut ready = None;
    // The request pool is built on each core in turn, as the simulator
    // workloads rotate their reps (see `cpu`). The cluster's threads
    // inherit the mask of the thread that starts them, so the mask is
    // widened again before the cluster starts.
    let cores = cpu::allowed();
    let setups_total = SETUPS_PER_CORE * cores.len();
    for i in 0..setups_total {
        let started = Instant::now();
        cpu::pin(&[cores[i % cores.len()]]);
        let pool = pool(opts.seed);
        cpu::pin(&cores);
        gens.push(ms(started.elapsed()));
        let cluster = set_up(opts.seed)?;
        setups.push(started.elapsed().as_secs_f64());
        if i + 1 < setups_total {
            mesh_waits += shut_down(cluster)?.mesh_waits;
        } else {
            ready = Some((cluster, pool));
        }
    }
    let (mut cluster, pool) = ready.expect("at least one set-up");

    tighten_timer_slack();
    let mut gen = Generator {
        conns: std::mem::take(&mut cluster.conns),
        pool,
        next_req: 0,
        next_id: 1,
        replies: Replies::default(),
        wire: traced.then(WireClock::default),
    };
    let secs = opts.seconds as f64;
    let steady = gen.phase(
        "steady",
        Pace::Open {
            rate: STEADY_RATE,
            n: (STEADY_RATE * secs) as usize,
        },
    )?;
    let in_time = steady
        .update_ns
        .iter()
        .filter(|ns| **ns <= SLO.as_nanos() as u64)
        .count();
    let goodput = in_time as f64 / steady.elapsed.as_secs_f64();
    // A fixed amount of work, so memory does not depend on speed.
    let slices = SLICES_PER_CORE * cores.len();
    let n = (STEADY_RATE * secs / slices as f64) as usize;
    let (mut updates, mut busy) = (0, Duration::ZERO);
    for i in (0..slices).filter(|_| extended) {
        let core = cores[i % cores.len()];
        cpu::pin_process(&[core]);
        let res = gen.phase(
            &format!("saturation on core {core}"),
            Pace::Closed {
                outstanding: SATURATION_OUTSTANDING,
                n,
            },
        )?;
        updates += res.update_ns.len();
        busy += res.elapsed;
    }
    cpu::pin_process(&cores);
    let saturation_per_s = ratio(updates as u64, busy.as_nanos() as u64) * 1e9;

    // Bisect the rate, on a log scale, between the steady rate (which
    // must pass) and MAX_RATE; then interpolate across the final bracket.
    let mut knee_rate = 0.0;
    if extended && steady.passes(STEADY_RATE) {
        let probe_s = secs / 2.0 / PROBES as f64;
        let mut pass = (STEADY_RATE, steady.p99());
        let mut fail: Option<(f64, PhaseResult)> = None;
        for _ in 0..PROBES {
            let hi = fail.as_ref().map_or(MAX_RATE, |(r, _)| *r);
            let rate = (pass.0 * hi).sqrt();
            let res = gen.phase(
                &format!("probe {rate:.0}/s"),
                Pace::Open {
                    rate,
                    n: (rate * probe_s) as usize,
                },
            )?;
            if res.passes(rate) {
                pass = (rate, res.p99());
            } else {
                fail = Some((rate, res));
            }
        }
        knee_rate = knee(pass, fail.as_ref().map(|(r, res)| (*r, res)));
    }

    cluster.conns = std::mem::take(&mut gen.conns);
    let finished = shut_down(cluster)?;
    mesh_waits += finished.mesh_waits;
    let started = Instant::now();
    let report = check(&finished.observation);
    let oracle_ms = ms(started.elapsed());
    if !report.is_ok() {
        return Err(format!("oracle violations: {report}"));
    }
    // The replies the client saw must match the outcomes the cluster
    // logged: every update the gateway accepted resolved exactly once.
    let ledger = &gen.replies.ledger;
    let logged = finished
        .outcomes
        .iter()
        .filter(|(_, _, o)| o.is_committed())
        .count() as u64;
    if ledger.failed.is_empty() && logged != ledger.committed {
        return Err(format!(
            "client saw {} commits, the cluster logged {logged}",
            ledger.committed
        ));
    }
    ledger.check_balanced()?;
    Ok(Run {
        setup_s: median(&setups),
        gen_ms: median(&gens),
        steady,
        goodput,
        saturation_per_s,
        knee: knee_rate,
        gen,
        finished,
        mesh_waits,
        oracle_ms,
    })
}

fn lat_us(sorted: &[u64], p: f64) -> f64 {
    percentile(sorted, p) as f64 / 1e3
}

/// Steady-phase latency percentiles in µs: updates p50, p99; reads p99.
fn steady_latency(steady: &PhaseResult) -> (f64, f64, f64) {
    let mut updates = steady.update_ns.clone();
    updates.sort_unstable();
    let mut reads = steady.read_ns.clone();
    reads.sort_unstable();
    (
        lat_us(&updates, 0.50),
        lat_us(&updates, 0.99),
        lat_us(&reads, 0.99),
    )
}

pub fn run(opts: &Options) -> Result<Outcome, String> {
    let mut m = Metrics::default();
    let plain = run_once(opts, false, opts.trace)?;
    let (p50, p99, read_p99) = steady_latency(&plain.steady);
    if !opts.trace {
        let ledger = &plain.gen.replies.ledger;
        m.put("setup_s", plain.setup_s, "s");
        m.put("updates_per_s", plain.goodput, "1/s");
        m.put("peak_rss_mb", peak_rss_mb()?, "MB");
        m.put("commit_pct", pct(ledger.committed, ledger.submitted), "%");
        m.put(
            "local_pct",
            pct(plain.gen.replies.delay_local, ledger.committed),
            "%",
        );
        m.put(
            "msgs_per_update",
            ratio(plain.finished.messages, plain.finished.stats.updates),
            "count",
        );
        m.put("lat_p50_us", p50, "us");
        m.put("lat_p99_us", p99, "us");
        m.put("read_p99_us", read_p99, "us");
        m.put(
            "fail_pct",
            pct(ledger.failed_total(), ledger.attempted()),
            "%",
        );
        m.put("gateway.shutdown_waits", plain.mesh_waits as f64, "count");
        return Ok(Outcome {
            metrics: m,
            ledger: plain.gen.replies.ledger,
        });
    }

    // The untraced run gives the latency, saturation and knee figures;
    // the traced run gives the codec clocks and the tracing overhead.
    m.put("lat_p50_us", p50, "us");
    m.put("lat_p99_us", p99, "us");
    m.put("read_p99_us", read_p99, "us");
    m.put("knee_per_s", plain.knee, "1/s");
    m.put("gw.saturation_per_s", plain.saturation_per_s, "1/s");
    let traced = run_once(opts, true, false)?;
    m.put(
        "trace.overhead_pct",
        (steady_latency(&traced.steady).0 / p50 - 1.0) * 100.0,
        "%",
    );

    let w = traced
        .gen
        .wire
        .as_ref()
        .expect("traced run keeps wire clocks");
    m.put("wire.encode_ns", ratio(w.encode_ns, w.encoded), "ns");
    m.put("wire.decode_ns", ratio(w.decode_ns, w.decoded), "ns");
    let stats = &traced.finished.stats;
    m.put("gateway.shed", stats.shed as f64, "count");
    m.put("gateway.over_window", stats.over_window as f64, "count");
    m.put("gateway.refused", stats.refused as f64, "count");
    m.put(
        "gateway.shutdown_waits",
        (plain.mesh_waits + traced.mesh_waits) as f64,
        "count",
    );
    m.put(
        "tcp.msgs_per_update",
        ratio(traced.finished.messages, stats.updates),
        "count",
    );
    // The generator's own lateness in the phase the latency comes from.
    let mut late = plain.steady.late_ns.clone();
    late.sort_unstable();
    m.put("gen.late_p99_us", lat_us(&late, 0.99), "us");
    m.put(
        "gen.late_max_us",
        late.last().copied().unwrap_or(0) as f64 / 1e3,
        "us",
    );
    m.put("gen.backlog_max", plain.steady.backlog_max as f64, "count");

    // The accelerators' own counters: messages each handler received.
    let mut registry = RegistrySnapshot::default();
    for acc in &traced.finished.actors {
        registry.merge(&acc.registry().snapshot());
    }
    for (_, n_key, _) in crate::sim::LAYER_SLOTS.iter().skip(2) {
        let kind = &n_key["accel.".len()..n_key.len() - ".n".len()];
        m.put(
            n_key,
            registry.counter(&format!("msg.recv.{kind}")) as f64,
            "count",
        );
    }
    m.put("accel.input.n", stats.updates as f64, "count");
    m.put(
        "escrow.requests_per_shortage",
        ratio(
            registry.counter("msg.recv.av-request"),
            registry.counter("slo.delay.shortage"),
        ),
        "count",
    );
    let finished = &traced.finished;
    let started = Instant::now();
    std::hint::black_box(export_from_accelerators(
        "tcp",
        &finished.observation.cfg,
        &finished.actors,
        &[],
        finished.network.clone(),
        &finished.outcomes,
    ));
    m.put("telemetry.export_ms", ms(started.elapsed()), "ms");
    m.put("workload.gen_ms", traced.gen_ms, "ms");
    m.put("oracle.check_ms", traced.oracle_ms, "ms");
    let ledger = &traced.gen.replies.ledger;
    m.put(
        "fail_pct",
        pct(ledger.failed_total(), ledger.attempted()),
        "%",
    );
    Ok(Outcome {
        metrics: m,
        ledger: traced.gen.replies.ledger,
    })
}
