//! avbench: the avdb benchmark.
//!
//! ```text
//! avbench --workload <sim-shortage|sim-balanced|gw-open> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds its inputs from the seed, measures for about `--seconds`,
//! checks every run with the conformance oracle and an outcome ledger,
//! and prints as its last line one JSON object: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. The exit
//! code is 0 only when the run was correct. See README.md.

mod cpu;
mod gw;
mod net;
mod report;
mod sim;

use report::{fingerprint, result_line, Metrics};

/// Metrics a user of the system sees, measured with tracing off. Every
/// workload reports each of them.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("updates_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("commit_pct", "%"),
    ("local_pct", "%"),
    ("msgs_per_update", "count"),
];

/// Metrics of single layers, measured by the traced run. A workload that
/// bypasses a layer reports 0 for it.
const PER_LAYER: [(&str, &str); 56] = [
    ("simnet.events", "count"),
    ("simnet.self_ms", "ms"),
    ("simnet.ns_per_event", "ns"),
    ("accel.input.n", "count"),
    ("accel.input.busy_ms", "ms"),
    ("accel.timer.n", "count"),
    ("accel.timer.busy_ms", "ms"),
    ("accel.av-request.n", "count"),
    ("accel.av-request.busy_ms", "ms"),
    ("accel.av-grant.n", "count"),
    ("accel.av-grant.busy_ms", "ms"),
    ("accel.av-push.n", "count"),
    ("accel.av-push.busy_ms", "ms"),
    ("accel.av-push-ack.n", "count"),
    ("accel.av-push-ack.busy_ms", "ms"),
    ("escrow.zero_grant_pct", "%"),
    ("escrow.requests_per_shortage", "count"),
    ("accel.propagate.n", "count"),
    ("accel.propagate.busy_ms", "ms"),
    ("accel.propagate-ack.n", "count"),
    ("accel.propagate-ack.busy_ms", "ms"),
    ("repl.deltas_per_frame", "count"),
    ("repl.covers_per_frame", "count"),
    ("knowledge.rows", "count"),
    ("knowledge.rows_per_frame", "count"),
    ("accel.imm-prepare.n", "count"),
    ("accel.imm-prepare.busy_ms", "ms"),
    ("accel.imm-vote.n", "count"),
    ("accel.imm-vote.busy_ms", "ms"),
    ("accel.imm-decision.n", "count"),
    ("accel.imm-decision.busy_ms", "ms"),
    ("accel.imm-done.n", "count"),
    ("accel.imm-done.busy_ms", "ms"),
    ("imm.no_vote_pct", "%"),
    ("wire.encode_ns", "ns"),
    ("wire.decode_ns", "ns"),
    ("gateway.shed", "count"),
    ("gateway.over_window", "count"),
    ("gateway.refused", "count"),
    ("gateway.shutdown_waits", "count"),
    ("tcp.msgs_per_update", "count"),
    ("gen.late_p99_us", "us"),
    ("gen.late_max_us", "us"),
    ("gen.backlog_max", "count"),
    ("workload.gen_ms", "ms"),
    ("oracle.check_ms", "ms"),
    ("telemetry.export_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("commit_ticks_p50", "ticks"),
    ("commit_ticks_p99", "ticks"),
    ("lat_p50_us", "us"),
    ("lat_p99_us", "us"),
    ("read_p99_us", "us"),
    ("fail_pct", "%"),
    ("knee_per_s", "1/s"),
    ("gw.saturation_per_s", "1/s"),
];

/// Parsed command line.
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Options, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=600"));
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Runs the workload and returns the result line, or why the run is not
/// correct.
fn run(opts: &Options) -> Result<String, String> {
    println!("{}", fingerprint());
    let outcome = match opts.workload.as_str() {
        "sim-shortage" => sim::run(sim::Shape::Shortage, opts)?,
        "sim-balanced" => sim::run(sim::Shape::Balanced, opts)?,
        "gw-open" => gw::run(opts)?,
        other => return Err(format!("unknown workload {other}")),
    };
    let mut metrics = outcome.metrics;
    let wanted: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    for (name, unit) in wanted {
        if opts.trace && metrics.get(name).is_none() {
            metrics.put(name, 0.0, unit);
        }
    }
    metrics.check_units(&END_TO_END, &PER_LAYER)?;
    println!("{}", outcome.ledger.render());
    outcome.ledger.check_balanced()?;
    let names: Vec<&str> = wanted.iter().map(|(n, _)| *n).collect();
    let selected = metrics.select(&names)?;
    print!("{}", metrics.render());
    result_line(
        outcome.ledger.attempted(),
        outcome.ledger.failed_total(),
        &selected,
    )
}

/// A workload's result before the metrics are selected for printing.
pub struct Outcome {
    pub metrics: Metrics,
    pub ledger: report::Ledger,
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("avbench: {e}");
            eprintln!(
                "usage: avbench --workload <sim-shortage|sim-balanced|gw-open> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    match run(&opts) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("avbench: {}: run is not correct: {e}", opts.workload);
            std::process::exit(1);
        }
    }
}
