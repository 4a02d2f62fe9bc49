//! What one run prints: named metrics with units, the outcome ledger, the
//! machine fingerprint, and the final one-line JSON result.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Metrics in the order they were recorded.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    /// Records `name = value unit`. Recording a name twice is a bug in
    /// the benchmark.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(
            self.0.iter().all(|(n, _, _)| *n != name),
            "metric {name} recorded twice"
        );
        self.0.push((name, value, unit));
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, v, _)| *v)
    }

    /// Keeps only the metrics named in `names`, in that order. Every name
    /// must have been recorded.
    pub fn select(&self, names: &[&str]) -> Result<Metrics, String> {
        let mut out = Metrics::default();
        for name in names {
            let (n, v, u) = self
                .0
                .iter()
                .find(|(n, _, _)| n == name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            out.0.push((n, *v, u));
        }
        Ok(out)
    }

    /// `Err` if a recorded metric is in neither list or has a unit other
    /// than the list gives it: a misspelt name would otherwise be
    /// replaced by a silent 0.
    pub fn check_units(&self, a: &[(&str, &str)], b: &[(&str, &str)]) -> Result<(), String> {
        for (name, _, unit) in &self.0 {
            match a.iter().chain(b).find(|(n, _)| n == name) {
                Some((_, u)) if u == unit => {}
                Some((_, u)) => {
                    return Err(format!("metric {name} has unit {unit}, listed as {u}"))
                }
                None => return Err(format!("metric {name} is not listed")),
            }
        }
        Ok(())
    }

    /// One `name value unit` line per metric, for people reading the log.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for (n, v, u) in &self.0 {
            let _ = writeln!(s, "  {n:<32} {v:>16.4} {u}");
        }
        s
    }

    /// The JSON object `{"name": {"value": v, "unit": "u"}, ...}`.
    fn json(&self) -> Result<String, String> {
        let mut s = String::from("{");
        for (i, (n, v, u)) in self.0.iter().enumerate() {
            if !v.is_finite() {
                return Err(format!("metric {n} is not a finite number ({v})"));
            }
            if i > 0 {
                s.push_str(", ");
            }
            // `{}` on f64 prints the shortest text that reads back to the
            // same value, so no measured digit is lost.
            let _ = write!(s, "\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}");
        }
        s.push('}');
        Ok(s)
    }
}

/// The result line: the last line the benchmark prints. Only a correct
/// run prints one; any failed check ends the run with an error instead.
pub fn result_line(attempted: u64, failed: u64, metrics: &Metrics) -> Result<String, String> {
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.json()?
    ))
}

/// Accounts for every submitted update: it committed, aborted for a
/// typed reason, or failed for a named reason. Reads are tallied beside
/// the updates.
#[derive(Default, Debug)]
pub struct Ledger {
    pub submitted: u64,
    pub committed: u64,
    pub aborted: BTreeMap<String, u64>,
    pub failed: BTreeMap<String, u64>,
    pub reads: u64,
    pub reads_ok: u64,
    pub reads_failed: BTreeMap<String, u64>,
}

impl Ledger {
    pub fn abort(&mut self, reason: impl Into<String>) {
        *self.aborted.entry(reason.into()).or_default() += 1;
    }

    pub fn fail(&mut self, reason: impl Into<String>) {
        *self.failed.entry(reason.into()).or_default() += 1;
    }

    pub fn fail_read(&mut self, reason: impl Into<String>) {
        *self.reads_failed.entry(reason.into()).or_default() += 1;
    }

    pub fn aborted_total(&self) -> u64 {
        self.aborted.values().sum()
    }

    /// Failed updates plus failed reads.
    pub fn failed_total(&self) -> u64 {
        self.failed.values().sum::<u64>() + self.reads_failed.values().sum::<u64>()
    }

    /// Updates plus reads.
    pub fn attempted(&self) -> u64 {
        self.submitted + self.reads
    }

    /// `Err` unless every update and every read has exactly one fate.
    pub fn check_balanced(&self) -> Result<(), String> {
        let updates = self.committed + self.aborted_total() + self.failed.values().sum::<u64>();
        let reads = self.reads_ok + self.reads_failed.values().sum::<u64>();
        if updates != self.submitted {
            return Err(format!(
                "ledger does not balance: {} updates submitted, {updates} accounted for",
                self.submitted
            ));
        }
        if reads != self.reads {
            return Err(format!(
                "ledger does not balance: {} reads sent, {reads} accounted for",
                self.reads
            ));
        }
        Ok(())
    }

    pub fn render(&self) -> String {
        format!(
            "ledger: submitted {} = committed {} + aborted {} {:?} + failed {} {:?}; reads {} = ok {} + failed {:?}",
            self.submitted,
            self.committed,
            self.aborted_total(),
            self.aborted,
            self.failed.values().sum::<u64>(),
            self.failed,
            self.reads,
            self.reads_ok,
            self.reads_failed,
        )
    }
}

/// The machine a result was measured on, printed with every result so
/// figures from two machines can be told apart.
pub fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "fingerprint: {{\"nproc\": {nproc}, \"rustc\": \"{}\", \"calib_ms\": {}}}",
        env!("AVBENCH_RUSTC"),
        ms(calibration())
    )
}

/// A fixed integer loop: its time tracks the core's single-thread speed
/// and how much of it other tenants leave to this process.
fn calibration() -> Duration {
    let started = Instant::now();
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..50_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    started.elapsed()
}

/// Peak resident set size of this process so far, in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (`0 < p <= 1`) of an ascending slice; 0 when
/// empty.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// `part / whole` as a percentage; 0 when `whole` is 0.
pub fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 * 100.0 / whole as f64
    }
}

/// `a / b`; 0 when `b` is 0.
pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}
