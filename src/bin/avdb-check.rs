//! `avdb-check` — seed-sweep conformance fuzzer for the AV escrow protocol.
//!
//! Sweeps seeds × site counts × fault schedules through a full
//! [`DistributedSystem`] run, settles propagation, and verifies every
//! invariant the conformance oracle knows about. On a violation the
//! workload is binary-search minimized to the shortest request prefix
//! that still fails, and the minimal repro `(seed, fault, sites,
//! requests)` is printed.
//!
//! ```text
//! cargo run --bin avdb-check -- --seeds 0..500 --faults all
//! cargo run --bin avdb-check -- --seeds 0..100 --faults crash,loss --sites 3,5 --requests 60
//! ```
//!
//! Fault schedules:
//!
//! * `clean`     — reliable network, mixed Delay + Immediate traffic
//! * `crash`     — fail-stop crashes + recoveries at random times
//! * `partition` — a random two-group partition installed and healed mid-run
//! * `loss`      — every message dropped with 5% probability
//!
//! The fault schedules drive Delay (regular-product) traffic only: the
//! Immediate path is classic presumed-abort 2PC, which assumes reliable
//! delivery of the decision round (see DESIGN.md, "Oracle & invariants").

use avdb::chaos::{self, ChaosCase, Scenario};
use avdb::core::DistributedSystem;
use avdb::oracle::{self, Observation, Report, SubmittedRequest};
use avdb::simnet::{DetRng, LinkFilter, RegistrySnapshot};
use avdb::types::{ProductId, SiteId, SystemConfig, UpdateRequest, VirtualTime, Volume};
use std::ops::Range;
use std::process::ExitCode;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Fault {
    Clean,
    Crash,
    Partition,
    Loss,
}

impl Fault {
    const ALL: [Fault; 4] = [Fault::Clean, Fault::Crash, Fault::Partition, Fault::Loss];

    fn name(self) -> &'static str {
        match self {
            Fault::Clean => "clean",
            Fault::Crash => "crash",
            Fault::Partition => "partition",
            Fault::Loss => "loss",
        }
    }

    fn parse(s: &str) -> Option<Fault> {
        Fault::ALL.into_iter().find(|f| f.name() == s)
    }
}

struct Sweep {
    seeds: Range<u64>,
    faults: Vec<Fault>,
    sites: Vec<usize>,
    fanouts: Vec<usize>,
    /// Non-empty switches the run to the chaos-scenario sweep mode.
    scenarios: Vec<Scenario>,
    requests: usize,
    /// Scenario mode only: submit just the first N requests of the full
    /// schedule (fault timing stays keyed to the full span, so a printed
    /// minimal repro replays bit-identically).
    prefix: Option<usize>,
    verbose: bool,
    stats: bool,
}

#[derive(Clone, Copy)]
struct Case {
    seed: u64,
    fault: Fault,
    n_sites: usize,
    /// Shortage fan-out width (0 = the paper's serial request loop).
    fanout: usize,
}

const TICKS_PER_REQUEST: u64 = 4;

fn usage() -> ! {
    eprintln!(
        "usage: avdb-check [--seeds A..B] [--faults all|clean,crash,partition,loss] \
         [--sites N,M] [--fanout 0,2] \
         [--scenario all|flash-sale,kill-the-granter,...] [--requests N] \
         [--prefix N] [--verbose] [--stats]"
    );
    std::process::exit(2);
}

fn parse_args() -> Sweep {
    let mut sweep = Sweep {
        seeds: 0..100,
        faults: Fault::ALL.to_vec(),
        sites: vec![3, 5],
        fanouts: vec![0],
        scenarios: Vec::new(),
        requests: 40,
        prefix: None,
        verbose: false,
        stats: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |n: &str| args.next().unwrap_or_else(|| panic!("{n} needs a value"));
        match flag.as_str() {
            "--seeds" => {
                let v = value("--seeds");
                let Some((a, b)) = v.split_once("..") else { usage() };
                let (Ok(a), Ok(b)) = (a.parse(), b.parse()) else { usage() };
                sweep.seeds = a..b;
            }
            "--faults" => {
                let v = value("--faults");
                sweep.faults = if v == "all" {
                    Fault::ALL.to_vec()
                } else {
                    v.split(',').map(|s| Fault::parse(s).unwrap_or_else(|| usage())).collect()
                };
            }
            "--sites" => {
                let v = value("--sites");
                sweep.sites =
                    v.split(',').map(|s| s.parse().unwrap_or_else(|_| usage())).collect();
            }
            "--fanout" => {
                let v = value("--fanout");
                sweep.fanouts =
                    v.split(',').map(|s| s.parse().unwrap_or_else(|_| usage())).collect();
            }
            "--scenario" | "--scenarios" => {
                let v = value("--scenario");
                sweep.scenarios = if v == "all" {
                    Scenario::ALL.to_vec()
                } else {
                    v.split(',')
                        .map(|s| Scenario::parse(s).unwrap_or_else(|| usage()))
                        .collect()
                };
            }
            "--requests" => {
                sweep.requests = value("--requests").parse().unwrap_or_else(|_| usage());
            }
            "--prefix" => {
                sweep.prefix = Some(value("--prefix").parse().unwrap_or_else(|_| usage()));
            }
            "--verbose" => sweep.verbose = true,
            "--stats" => sweep.stats = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    if sweep.seeds.is_empty()
        || sweep.faults.is_empty()
        || sweep.sites.is_empty()
        || sweep.fanouts.is_empty()
    {
        usage();
    }
    if sweep.sites.contains(&0) {
        usage();
    }
    sweep
}

fn config(case: Case) -> SystemConfig {
    let mut builder = SystemConfig::builder()
        .sites(case.n_sites)
        // Enough system-wide AV that most Delay traffic commits, little
        // enough that shortages force request/grant negotiation.
        .regular_products(2, Volume(40 * case.n_sites as i64))
        .non_regular_products(1, Volume(50))
        .shortage_fanout(case.fanout)
        .seed(case.seed);
    if case.fault == Fault::Loss {
        builder = builder.drop_probability(0.05);
    }
    builder.build().expect("sweep config is valid")
}

/// The full request schedule for a case. Minimization replays a prefix,
/// so the stream for a given case never depends on the request count.
fn workload(case: Case, requests: usize) -> Vec<(VirtualTime, UpdateRequest)> {
    let mut rng = DetRng::new(case.seed).derive(case.fault as u64 + 1);
    // Fault schedules stay on the AV-managed (Delay) products; Immediate
    // 2PC presumes reliable decision delivery, which faults break by design.
    let products = if case.fault == Fault::Clean { 3 } else { 2 };
    (0..requests)
        .map(|i| {
            let site = SiteId(rng.gen_range(case.n_sites as u64) as u32);
            let product = ProductId(rng.gen_range(products) as u32);
            let delta = if rng.gen_f64() < 0.65 {
                -rng.gen_i64_inclusive(1, 12)
            } else {
                rng.gen_i64_inclusive(1, 15)
            };
            (
                VirtualTime(i as u64 * TICKS_PER_REQUEST),
                UpdateRequest::new(site, product, Volume(delta)),
            )
        })
        .collect()
}

/// Prints the merged per-site registry summary for one run: message
/// counts by kind and the AV shortage-depth histogram.
fn print_stats(reg: &RegistrySnapshot) {
    println!("  registry: messages sent by kind:");
    let mut any = false;
    for (key, n) in &reg.counters {
        if let Some(kind) = key.strip_prefix("msg.sent.") {
            println!("    {kind:<16} {n}");
            any = true;
        }
    }
    if !any {
        println!("    (none)");
    }
    match reg.histograms.get("delay.shortage") {
        Some(h) => {
            println!(
                "  registry: AV shortage depth ({} shortages, mean {:.1}, max {}):",
                h.count,
                h.mean(),
                h.max
            );
            print!("{}", h.render());
        }
        None => println!("  registry: no AV shortages"),
    }
}

/// Runs one case over the first `requests` entries of its workload and
/// returns the oracle's verdict, the merged per-site registry, and the
/// captured observation (whose flight-recorder rings a violation dumps).
fn run_case(case: Case, requests: usize, full: usize) -> (Report, RegistrySnapshot, Observation) {
    let cfg = config(case);
    let schedule: Vec<_> = workload(case, full).into_iter().take(requests).collect();
    let horizon = full as u64 * TICKS_PER_REQUEST + 10;
    let mut sys = DistributedSystem::new(cfg);
    for (at, req) in &schedule {
        sys.submit_at(*at, *req);
    }
    let mut rng = DetRng::new(case.seed).derive(0xFA017 + case.fault as u64);
    match case.fault {
        Fault::Clean | Fault::Loss => sys.run_until_quiescent(),
        Fault::Crash => {
            // One or two distinct sites fail-stop and later recover.
            let crashes = (1 + rng.gen_range(2) as usize).min(case.n_sites);
            let mut sites: Vec<u64> = (0..case.n_sites as u64).collect();
            for _ in 0..crashes {
                let site = SiteId(sites.remove(rng.gen_range(sites.len() as u64) as usize) as u32);
                let down = rng.gen_range(horizon);
                let outage = 20 + rng.gen_range(horizon / 2);
                sys.crash_at(VirtualTime(down), site);
                sys.recover_at(VirtualTime(down + outage), site);
            }
            sys.run_until_quiescent();
        }
        Fault::Partition => {
            // Split the sites into two random non-empty groups mid-run,
            // then heal and let anti-entropy repair the damage.
            if case.n_sites < 2 {
                // A single site cannot partition; run the case clean.
                sys.run_until_quiescent();
            } else {
                let installed = rng.gen_range(horizon * 2 / 3);
                let healed = installed + 30 + rng.gen_range(horizon);
                let cut = 1 + rng.gen_range(case.n_sites as u64 - 1) as u32;
                let (a, b): (Vec<SiteId>, Vec<SiteId>) =
                    SiteId::all(case.n_sites).partition(|s| s.0 < cut);
                sys.run_until(VirtualTime(installed));
                sys.set_partition(LinkFilter::partition(vec![a, b]));
                sys.run_until(VirtualTime(healed));
                sys.heal_partition();
                sys.run_until_quiescent();
            }
        }
    }
    // Settle: repeated retransmission rounds until replicas agree (one
    // round suffices on reliable links; loss can eat flush traffic too).
    for _ in 0..50 {
        sys.flush_all();
        sys.run_until_quiescent();
        if sys.check_convergence().is_ok() {
            break;
        }
    }
    let outcomes = sys.drain_outcomes();
    let submitted =
        schedule.iter().map(|(at, req)| SubmittedRequest::single(*at, req)).collect();
    let observation = Observation::from_system(&sys, submitted, outcomes);
    let report = oracle::check(&observation);
    (report, sys.merged_registry(), observation)
}

/// Binary-searches the shortest failing request prefix of a known-bad
/// case (assumes failures are prefix-monotone, the usual fuzzing bet).
fn minimize(case: Case, full: usize) -> (usize, Report, RegistrySnapshot, Observation) {
    if !run_case(case, 0, full).0.is_ok() {
        let (report, reg, obs) = run_case(case, 0, full);
        return (0, report, reg, obs);
    }
    let (mut lo, mut hi) = (0, full);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if run_case(case, mid, full).0.is_ok() {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let (report, reg, obs) = run_case(case, hi, full);
    (hi, report, reg, obs)
}

/// Writes the minimal repro's cluster-wide flight dump under
/// `results/flight/` so the protocol history leading to the violation
/// survives alongside the printed repro line. Returns the path written.
fn write_flight_dump(case: Case, min_requests: usize, obs: &Observation) -> Option<String> {
    let reason = format!(
        "oracle-violation: fault={} seed={} sites={} fanout={} requests={min_requests}",
        case.fault.name(),
        case.seed,
        case.n_sites,
        case.fanout,
    );
    let dump = obs.flight_dump(&reason);
    let dir = std::path::Path::new("results/flight");
    let path = dir.join(format!(
        "check-{}-seed{}-sites{}-fk{}.json",
        case.fault.name(),
        case.seed,
        case.n_sites,
        case.fanout,
    ));
    if std::fs::create_dir_all(dir).is_err() || std::fs::write(&path, dump.to_json()).is_err() {
        eprintln!("avdb-check: could not write flight dump to {}", path.display());
        return None;
    }
    Some(path.display().to_string())
}

/// Writes a chaos run's cluster-wide flight dump under `results/flight/`.
fn write_chaos_flight_dump(
    case: &ChaosCase,
    min_requests: usize,
    obs: &Observation,
) -> Option<String> {
    let reason = format!(
        "oracle-violation: scenario={} seed={} sites={} requests={min_requests}",
        case.scenario, case.seed, case.n_sites
    );
    let dump = obs.flight_dump(&reason);
    let dir = std::path::Path::new("results/flight");
    let path = dir.join(format!(
        "chaos-{}-seed{}-sites{}.json",
        case.scenario, case.seed, case.n_sites
    ));
    if std::fs::create_dir_all(dir).is_err() || std::fs::write(&path, dump.to_json()).is_err() {
        eprintln!("avdb-check: could not write flight dump to {}", path.display());
        return None;
    }
    Some(path.display().to_string())
}

/// The chaos-scenario sweep: every requested scenario × site count × seed
/// runs oracle-checked through the chaos runner; a violation is
/// binary-search minimized and its flight recorder dumped, exactly like
/// the fault sweep. Targeted scenarios must additionally fire their
/// nemesis at least once per (scenario, sites) group — a sweep where
/// kill-the-granter never kills anything proves nothing.
fn run_scenario_sweep(sweep: &Sweep) -> ExitCode {
    let started = std::time::Instant::now();
    println!(
        "avdb-check: scenarios [{}], seeds {}..{}, sites {:?}, {} requests/run",
        sweep.scenarios.iter().map(|s| s.name()).collect::<Vec<_>>().join(", "),
        sweep.seeds.start,
        sweep.seeds.end,
        sweep.sites,
        sweep.requests,
    );
    let mut runs = 0u64;
    let mut failures = 0u64;
    for &scenario in &sweep.scenarios {
        let mut scenario_runs = 0u64;
        let mut scenario_failures = 0u64;
        for &n_sites in &sweep.sites {
            let mut fired_total = 0u64;
            for seed in sweep.seeds.clone() {
                let case = ChaosCase { scenario, n_sites, updates: sweep.requests, seed };
                let verdict =
                    chaos::run_case(&case, sweep.prefix.unwrap_or(sweep.requests));
                scenario_runs += 1;
                fired_total += verdict.fired;
                if sweep.verbose {
                    println!(
                        "  {scenario} seed={seed} sites={n_sites}: {} (nemesis fired {}×)",
                        if verdict.report.is_ok() { "ok" } else { "VIOLATION" },
                        verdict.fired
                    );
                }
                if !verdict.report.is_ok() {
                    scenario_failures += 1;
                    println!(
                        "VIOLATION scenario={scenario} seed={seed} sites={n_sites} \
                         requests={}",
                        sweep.requests
                    );
                    print!("{}", verdict.report);
                    let (min_requests, min_verdict) = chaos::minimize(&case);
                    // `--requests` stays at the full count: minimization
                    // replays a prefix of the full schedule (fault timing
                    // is keyed to the full span), so only `--prefix`
                    // shrinks.
                    println!(
                        "  minimal repro: --scenario {scenario} --seeds {seed}..{} \
                         --sites {n_sites} --requests {} --prefix {min_requests}",
                        seed + 1,
                        sweep.requests
                    );
                    if let Some(path) =
                        write_chaos_flight_dump(&case, min_requests, &min_verdict.observation)
                    {
                        println!(
                            "  flight recorder dump: {path} (render with `avdb-trace flight`)"
                        );
                    }
                    print!("{}", min_verdict.report);
                }
            }
            if scenario.is_targeted() && fired_total == 0 {
                scenario_failures += 1;
                println!(
                    "VACUOUS scenario={scenario} sites={n_sites}: nemesis never fired \
                     across {} seed(s)",
                    sweep.seeds.end.saturating_sub(sweep.seeds.start)
                );
            }
        }
        runs += scenario_runs;
        failures += scenario_failures;
        println!(
            "  {:<22} {} runs, {} violation{}",
            scenario.name(),
            scenario_runs,
            scenario_failures,
            if scenario_failures == 1 { "" } else { "s" }
        );
    }
    let elapsed = started.elapsed();
    if failures == 0 {
        println!("all {runs} scenario runs conform ({elapsed:.1?})");
        ExitCode::SUCCESS
    } else {
        println!("{failures} of {runs} scenario runs violated invariants ({elapsed:.1?})");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let sweep = parse_args();
    if !sweep.scenarios.is_empty() {
        return run_scenario_sweep(&sweep);
    }
    let started = std::time::Instant::now();
    println!(
        "avdb-check: seeds {}..{}, faults [{}], sites {:?}, fanout {:?}, \
         {} requests/run",
        sweep.seeds.start,
        sweep.seeds.end,
        sweep.faults.iter().map(|f| f.name()).collect::<Vec<_>>().join(", "),
        sweep.sites,
        sweep.fanouts,
        sweep.requests,
    );
    let mut runs = 0u64;
    let mut failures = 0u64;
    // `--stats` on a single replayed case (one seed, fault, site count —
    // the shape of a printed minimal repro) summarizes that run directly;
    // on a sweep it fires only for the minimized failures.
    let single_case = sweep.seeds.end.saturating_sub(sweep.seeds.start) == 1
        && sweep.faults.len() == 1
        && sweep.sites.len() == 1
        && sweep.fanouts.len() == 1;
    for &fault in &sweep.faults {
        let mut fault_runs = 0u64;
        let mut fault_failures = 0u64;
        for &n_sites in &sweep.sites {
            for &fanout in &sweep.fanouts {
                for seed in sweep.seeds.clone() {
                    let case = Case { seed, fault, n_sites, fanout };
                    let (report, registry, _) = run_case(case, sweep.requests, sweep.requests);
                    fault_runs += 1;
                    if sweep.verbose {
                        println!(
                            "  {} seed={seed} sites={n_sites} fanout={fanout}: {}",
                            fault.name(),
                            if report.is_ok() { "ok" } else { "VIOLATION" }
                        );
                    }
                    if sweep.stats && single_case {
                        print_stats(&registry);
                    }
                    if !report.is_ok() {
                        fault_failures += 1;
                        println!(
                            "VIOLATION fault={} seed={seed} sites={n_sites} \
                             fanout={fanout} requests={}",
                            fault.name(),
                            sweep.requests
                        );
                        print!("{report}");
                        let (min_requests, min_report, min_registry, min_obs) =
                            minimize(case, sweep.requests);
                        println!(
                            "  minimal repro: --seeds {seed}..{} --faults {} \
                             --sites {n_sites} --fanout {fanout} --requests {min_requests}",
                            seed + 1,
                            fault.name(),
                        );
                        if let Some(path) = write_flight_dump(case, min_requests, &min_obs) {
                            println!(
                                "  flight recorder dump: {path} \
                                 (render with `avdb-trace flight`)"
                            );
                        }
                        print!("{min_report}");
                        if sweep.stats {
                            print_stats(&min_registry);
                        }
                    }
                }
            }
        }
        runs += fault_runs;
        failures += fault_failures;
        println!(
            "  {:<9} {} runs, {} violation{}",
            fault.name(),
            fault_runs,
            fault_failures,
            if fault_failures == 1 { "" } else { "s" }
        );
    }
    let elapsed = started.elapsed();
    if failures == 0 {
        println!("all {runs} runs conform ({elapsed:.1?})");
        ExitCode::SUCCESS
    } else {
        println!("{failures} of {runs} runs violated invariants ({elapsed:.1?})");
        ExitCode::FAILURE
    }
}
