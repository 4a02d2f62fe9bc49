//! Windowed time-series plane: rolls a [`Registry`] into fixed-width
//! sim-tick windows and watches the windows for anomalies.
//!
//! A [`SeriesRecorder`] owns the previous window boundary's baseline and,
//! each time the owner's window timer fires, produces one window of
//! * counter **deltas** (non-zero only),
//! * gauge **last values** (every touched gauge), and
//! * histogram **delta snapshots** (mergeable: concatenating consecutive
//!   windows' deltas reproduces the full-range snapshot).
//!
//! Windows are held in a bounded ring whose evicted buffers are pooled
//! and reused, so steady-state rolling allocates nothing new.
//!
//! Windows are aligned to absolute tick boundaries (`end = k·width`) and
//! indexed `end/width − 1`; idle windows are never recorded, so the ring
//! may contain index gaps — each recorded window still covers exactly one
//! width and all deltas in it occurred inside it (the owner only lets the
//! timer lapse when nothing is happening).
//!
//! The [`Watchdog`] evaluates window-over-window rules on every recorded
//! window — replication queue-depth growth, knowledge staleness above a
//! bound, abort-rate spikes against the trailing mean — and reports a
//! firing exactly on each rule's false→true transition, so the owner can
//! dump the flight recorder *before* an invariant trips. Everything here
//! is integer arithmetic over the deterministic registry: same seed, same
//! series, same firings.

use crate::registry::{Histogram, HistogramSnapshot, MetricId, Registry};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};

/// Default bound on the per-site window ring.
pub const DEFAULT_SERIES_RING_CAPACITY: usize = 64;

/// One rolled window, dense-id keyed (names resolve at snapshot time).
#[derive(Clone, Debug, Default)]
struct WindowBuf {
    index: u64,
    start: u64,
    end: u64,
    /// `(counter id, delta)` for counters that moved this window.
    counters: Vec<(u32, u64)>,
    /// `(gauge id, last value)` for every touched gauge.
    gauges: Vec<(u32, i64)>,
    /// `(histogram id, delta)` for histograms that observed this window.
    histograms: Vec<(u32, HistogramSnapshot)>,
}

impl WindowBuf {
    fn reset(&mut self) {
        self.counters.clear();
        self.gauges.clear();
        self.histograms.clear();
    }
}

/// One window, resolved to metric names — the serializable view used by
/// `/status`, the JSONL `series` scope, and the renderers.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeriesWindowSnapshot {
    /// Window number: `end / window_ticks − 1`.
    pub index: u64,
    /// First tick covered (inclusive).
    pub start: u64,
    /// End boundary (exclusive).
    pub end: u64,
    /// Counter deltas over the window (non-zero only).
    pub counters: BTreeMap<String, u64>,
    /// Gauge values at the window's end (every touched gauge).
    pub gauges: BTreeMap<String, i64>,
    /// Histogram deltas over the window (non-empty only).
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

/// The whole ring, resolved to names.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeriesSnapshot {
    /// Window width in sim ticks.
    pub window_ticks: u64,
    /// Recorded windows, oldest first.
    pub windows: Vec<SeriesWindowSnapshot>,
}

impl SeriesSnapshot {
    /// The last `n` windows' deltas for one counter, oldest first
    /// (missing-in-window = 0). Sparkline feed.
    pub fn counter_tail(&self, name: &str, n: usize) -> Vec<u64> {
        let skip = self.windows.len().saturating_sub(n);
        self.windows
            .iter()
            .skip(skip)
            .map(|w| w.counters.get(name).copied().unwrap_or(0))
            .collect()
    }

    /// The last `n` windows' values for one gauge, oldest first
    /// (missing-in-window = 0).
    pub fn gauge_tail(&self, name: &str, n: usize) -> Vec<i64> {
        let skip = self.windows.len().saturating_sub(n);
        self.windows
            .iter()
            .skip(skip)
            .map(|w| w.gauges.get(name).copied().unwrap_or(0))
            .collect()
    }

    /// The most recent window, if any.
    pub fn latest(&self) -> Option<&SeriesWindowSnapshot> {
        self.windows.last()
    }
}

/// Unicode sparkline over `values` (one glyph per value, ▁..█ scaled to
/// the slice's peak; all-zero renders as a flat baseline).
pub fn sparkline(values: &[u64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let peak = values.iter().copied().max().unwrap_or(0);
    values
        .iter()
        .map(|v| BARS[(v * 7).checked_div(peak).unwrap_or(0) as usize])
        .collect()
}

/// Watchdog rule thresholds. All integer, all deterministic.
#[derive(Clone, Debug, PartialEq)]
pub struct WatchdogConfig {
    /// Gauge watched by the queue-growth rule.
    pub queue_gauge: String,
    /// Queue-growth fires after this many consecutive strictly-growing
    /// windows…
    pub queue_growth_windows: u32,
    /// …and only once the gauge is at least this deep.
    pub queue_depth_floor: i64,
    /// Gauge-name prefix scanned (max value wins) by the staleness rule.
    pub staleness_prefix: String,
    /// Staleness fires when the max gauge stays above this bound…
    pub staleness_bound: i64,
    /// …for this many consecutive recorded windows.
    pub staleness_windows: u32,
    /// Counter watched by the abort-spike rule.
    pub abort_counter: String,
    /// Spike = this window's delta ≥ factor × trailing-mean (rounded up).
    pub abort_spike_factor: u64,
    /// Spikes below this absolute delta never fire.
    pub abort_spike_min: u64,
    /// Trailing-mean horizon (recorded windows).
    pub abort_trailing_windows: usize,
}

impl WatchdogConfig {
    /// Defaults scaled to a window width: the staleness bound is four
    /// windows' worth of ticks (a replica whose knowledge of a peer is
    /// older than that, and stays that old, is trending away from its
    /// bound, not merely lagging one round-trip).
    pub fn for_window(window_ticks: u64) -> Self {
        WatchdogConfig {
            queue_gauge: "repl.queue.depth".to_string(),
            queue_growth_windows: 3,
            queue_depth_floor: 32,
            staleness_prefix: "knowledge.staleness.".to_string(),
            staleness_bound: (window_ticks.saturating_mul(4)).max(1) as i64,
            staleness_windows: 2,
            abort_counter: "update.aborted".to_string(),
            abort_spike_factor: 4,
            abort_spike_min: 8,
            abort_trailing_windows: 8,
        }
    }
}

/// One rule transition from quiet to firing.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WatchdogFiring {
    /// Rule name: `"queue-depth-growth"`, `"staleness-bound"`, or
    /// `"abort-spike"`.
    pub rule: String,
    /// Index of the window that tripped the rule.
    pub window: u64,
    /// Human-readable trigger values.
    pub detail: String,
}

/// Window-over-window anomaly rules with per-rule latching: a rule
/// reports once when its condition becomes true and re-arms only after
/// the condition clears.
#[derive(Clone, Debug)]
struct Watchdog {
    cfg: WatchdogConfig,
    queue_prev: Option<i64>,
    queue_streak: u32,
    queue_active: bool,
    staleness_streak: u32,
    staleness_active: bool,
    abort_history: VecDeque<u64>,
    abort_active: bool,
}

impl Watchdog {
    fn new(cfg: WatchdogConfig) -> Self {
        Watchdog {
            cfg,
            queue_prev: None,
            queue_streak: 0,
            queue_active: false,
            staleness_streak: 0,
            staleness_active: false,
            abort_history: VecDeque::new(),
            abort_active: false,
        }
    }

    fn evaluate(
        &mut self,
        window: u64,
        queue_depth: Option<i64>,
        staleness_max: Option<i64>,
        abort_delta: u64,
        out: &mut Vec<WatchdogFiring>,
    ) {
        // Queue-depth growth: strictly increasing for N windows, deep
        // enough to matter.
        if let Some(depth) = queue_depth {
            match self.queue_prev {
                Some(prev) if depth > prev => self.queue_streak += 1,
                _ => self.queue_streak = 0,
            }
            self.queue_prev = Some(depth);
            let firing = self.queue_streak >= self.cfg.queue_growth_windows
                && depth >= self.cfg.queue_depth_floor;
            if firing && !self.queue_active {
                out.push(WatchdogFiring {
                    rule: "queue-depth-growth".to_string(),
                    window,
                    detail: format!(
                        "{} grew {} consecutive windows to {depth}",
                        self.cfg.queue_gauge, self.queue_streak
                    ),
                });
            }
            self.queue_active = firing;
        }

        // Staleness trend: max staleness gauge above bound for N windows.
        if let Some(stale) = staleness_max {
            if stale > self.cfg.staleness_bound {
                self.staleness_streak += 1;
            } else {
                self.staleness_streak = 0;
            }
            let firing = self.staleness_streak >= self.cfg.staleness_windows;
            if firing && !self.staleness_active {
                out.push(WatchdogFiring {
                    rule: "staleness-bound".to_string(),
                    window,
                    detail: format!(
                        "max {}* = {stale} > bound {} for {} windows",
                        self.cfg.staleness_prefix,
                        self.cfg.staleness_bound,
                        self.staleness_streak
                    ),
                });
            }
            self.staleness_active = firing;
        }

        // Abort spike vs trailing mean (mean rounded up; an empty history
        // means any delta ≥ min is a spike).
        let trailing: u64 = self.abort_history.iter().sum();
        let mean_ceil = if self.abort_history.is_empty() {
            0
        } else {
            trailing.div_ceil(self.abort_history.len() as u64)
        };
        let firing = abort_delta >= self.cfg.abort_spike_min
            && abort_delta >= self.cfg.abort_spike_factor.saturating_mul(mean_ceil.max(1));
        if firing && !self.abort_active {
            out.push(WatchdogFiring {
                rule: "abort-spike".to_string(),
                window,
                detail: format!(
                    "{} +{abort_delta} this window vs trailing mean {mean_ceil}",
                    self.cfg.abort_counter
                ),
            });
        }
        self.abort_active = firing;
        self.abort_history.push_back(abort_delta);
        while self.abort_history.len() > self.cfg.abort_trailing_windows {
            self.abort_history.pop_front();
        }
    }
}

/// Result of one [`SeriesRecorder::roll`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RollOutcome {
    /// `true` when the window had content and was recorded.
    pub recorded: bool,
    /// Watchdog rules that transitioned to firing on this window.
    pub firings: Vec<WatchdogFiring>,
}

/// Watchdog metric ids resolved once per registry growth spurt, so the
/// per-window rule inputs cost id loads instead of name lookups.
#[derive(Clone, Debug, Default)]
struct WatchIds {
    gauges_seen: usize,
    counters_seen: usize,
    queue: Option<MetricId>,
    abort: Option<MetricId>,
    staleness: Vec<MetricId>,
}

/// Rolls a [`Registry`] into a bounded ring of fixed-width windows.
#[derive(Clone, Debug)]
pub struct SeriesRecorder {
    window_ticks: u64,
    capacity: usize,
    /// Counter values at the last recorded boundary, dense by id.
    prev_counters: Vec<u64>,
    /// Gauge values at the last recorded boundary, dense by id.
    prev_gauges: Vec<i64>,
    prev_gauge_touched: Vec<bool>,
    /// Full histogram state at the last recorded boundary, dense by id.
    prev_histograms: Vec<Histogram>,
    ring: VecDeque<WindowBuf>,
    /// Evicted buffers, kept to reuse their allocations.
    pool: Vec<WindowBuf>,
    /// Retired histogram deltas, kept to reuse their bucket allocations.
    snap_pool: Vec<HistogramSnapshot>,
    watchdog: Watchdog,
    watch_ids: WatchIds,
}

impl SeriesRecorder {
    /// A recorder with the default ring bound and watchdog thresholds
    /// scaled to `window_ticks` (which must be non-zero — a zero width
    /// means the series plane is off and no recorder should exist).
    pub fn new(window_ticks: u64) -> Self {
        Self::with_capacity(window_ticks, DEFAULT_SERIES_RING_CAPACITY)
    }

    /// A recorder with an explicit ring bound.
    pub fn with_capacity(window_ticks: u64, capacity: usize) -> Self {
        assert!(window_ticks > 0, "series window width must be non-zero");
        let watchdog = Watchdog::new(WatchdogConfig::for_window(window_ticks));
        SeriesRecorder {
            window_ticks,
            capacity: capacity.max(1),
            prev_counters: Vec::new(),
            prev_gauges: Vec::new(),
            prev_gauge_touched: Vec::new(),
            prev_histograms: Vec::new(),
            ring: VecDeque::new(),
            pool: Vec::new(),
            snap_pool: Vec::new(),
            watchdog,
            watch_ids: WatchIds::default(),
        }
    }

    /// Replaces the watchdog thresholds (resets rule state).
    pub fn set_watchdog(&mut self, cfg: WatchdogConfig) {
        self.watchdog = Watchdog::new(cfg);
        self.watch_ids = WatchIds::default();
    }

    /// Window width in ticks.
    pub fn window_ticks(&self) -> u64 {
        self.window_ticks
    }

    /// Number of windows currently held.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// `true` when no window has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// The next boundary strictly after `now` (where the owner should
    /// set its window timer).
    pub fn next_boundary(&self, now: u64) -> u64 {
        (now / self.window_ticks + 1) * self.window_ticks
    }

    /// Closes the window ending at the last boundary at or before `at`:
    /// drains the registry's dirty sets against the last recorded
    /// baseline, records a window if anything moved, and runs the
    /// watchdog over it. An idle window records nothing and leaves the
    /// watchdog untouched, so the owner can let its timer lapse.
    ///
    /// The recorder must be the registry's only drain consumer: a
    /// recorded window calls [`Registry::clear_dirty`] as it advances
    /// its baselines, so the roll visits only the metrics that moved
    /// since the previous recorded boundary — O(activity), not
    /// O(registered metrics) — and never clones an untouched histogram.
    ///
    /// Under the sim clock a window timer fires exactly at its boundary,
    /// so `at` IS the boundary. The live transports' virtual clocks can
    /// run past the armed boundary before the timer is serviced; the
    /// overshoot's deltas then land in the window holding `at`, which
    /// keeps boundaries aligned without mislabelling a window as earlier
    /// than the activity it records.
    pub fn roll(&mut self, at: u64, reg: &mut Registry) -> RollOutcome {
        let end = at - at % self.window_ticks;
        if end == 0 {
            return RollOutcome { recorded: false, firings: Vec::new() };
        }
        self.grow_baselines(reg);

        let mut buf = self.pool.pop().unwrap_or_default();
        buf.reset();
        buf.index = end / self.window_ticks - 1;
        buf.start = end - self.window_ticks;
        buf.end = end;

        let mut changed = false;
        for &i in reg.dirty_counter_ids() {
            let i = i as usize;
            let now = reg.counter_value(MetricId::from_index(i));
            let delta = now - self.prev_counters[i];
            if delta > 0 {
                buf.counters.push((i as u32, delta));
                changed = true;
            }
        }
        for i in 0..reg.gauges_len() {
            let id = MetricId::from_index(i);
            if !reg.gauge_touched(id) {
                continue;
            }
            let now = reg.gauge_value(id);
            if !self.prev_gauge_touched[i] || now != self.prev_gauges[i] {
                changed = true;
            }
            buf.gauges.push((i as u32, now));
        }
        for &i in reg.dirty_histogram_ids() {
            let i = i as usize;
            let now = reg.histogram_value(MetricId::from_index(i));
            if now.count() > self.prev_histograms[i].count() {
                let mut snap = self.snap_pool.pop().unwrap_or_default();
                now.delta_snapshot_into(&self.prev_histograms[i], &mut snap);
                buf.histograms.push((i as u32, snap));
                changed = true;
            }
        }

        if !changed {
            buf.reset();
            self.pool.push(buf);
            return RollOutcome { recorded: false, firings: Vec::new() };
        }

        // Advance the baseline to this boundary — only what moved (the
        // rest is untouched since the last recorded window by
        // construction) — then reset the dirty sets for the next window.
        for &(i, delta) in &buf.counters {
            self.prev_counters[i as usize] += delta;
        }
        for &(i, v) in &buf.gauges {
            self.prev_gauges[i as usize] = v;
            self.prev_gauge_touched[i as usize] = true;
        }
        for (i, delta) in &buf.histograms {
            self.prev_histograms[*i as usize].apply_delta(delta);
        }
        reg.clear_dirty();

        // Watchdog inputs, read off the window just built via cached ids.
        self.refresh_watch_ids(reg);
        let queue_depth = self
            .watch_ids
            .queue
            .filter(|id| reg.gauge_touched(*id))
            .map(|id| reg.gauge_value(id));
        let mut staleness_max: Option<i64> = None;
        for &id in &self.watch_ids.staleness {
            if reg.gauge_touched(id) {
                let v = reg.gauge_value(id);
                staleness_max = Some(staleness_max.map_or(v, |m| m.max(v)));
            }
        }
        let abort_delta = self
            .watch_ids
            .abort
            .and_then(|id| {
                buf.counters
                    .iter()
                    .find(|(i, _)| *i as usize == id.index())
                    .map(|(_, d)| *d)
            })
            .unwrap_or(0);

        let mut firings = Vec::new();
        self.watchdog
            .evaluate(buf.index, queue_depth, staleness_max, abort_delta, &mut firings);

        if self.ring.len() == self.capacity {
            let mut evicted = self.ring.pop_front().expect("ring non-empty at capacity");
            self.snap_pool.extend(evicted.histograms.drain(..).map(|(_, s)| s));
            evicted.reset();
            self.pool.push(evicted);
        }
        self.ring.push_back(buf);
        RollOutcome { recorded: true, firings }
    }

    /// Resolves the ring to metric names for serialization.
    pub fn snapshot(&self, reg: &Registry) -> SeriesSnapshot {
        SeriesSnapshot {
            window_ticks: self.window_ticks,
            windows: self.ring.iter().map(|w| Self::resolve(w, reg)).collect(),
        }
    }

    fn resolve(buf: &WindowBuf, reg: &Registry) -> SeriesWindowSnapshot {
        SeriesWindowSnapshot {
            index: buf.index,
            start: buf.start,
            end: buf.end,
            counters: buf
                .counters
                .iter()
                .map(|(i, d)| (reg.counter_name(MetricId::from_index(*i as usize)).to_string(), *d))
                .collect(),
            gauges: buf
                .gauges
                .iter()
                .map(|(i, v)| (reg.gauge_name(MetricId::from_index(*i as usize)).to_string(), *v))
                .collect(),
            histograms: buf
                .histograms
                .iter()
                .map(|(i, h)| {
                    (reg.histogram_name(MetricId::from_index(*i as usize)).to_string(), h.clone())
                })
                .collect(),
        }
    }

    /// Re-resolves the watchdog's metric ids when (and only when) the
    /// registry has registered new metrics since the last resolution —
    /// ids are dense and append-only, so existing ids never move.
    fn refresh_watch_ids(&mut self, reg: &Registry) {
        let cfg = &self.watchdog.cfg;
        if self.watch_ids.gauges_seen != reg.gauges_len() {
            self.watch_ids.gauges_seen = reg.gauges_len();
            self.watch_ids.queue = reg.find_gauge(&cfg.queue_gauge);
            self.watch_ids.staleness.clear();
            for i in 0..reg.gauges_len() {
                let id = MetricId::from_index(i);
                if reg.gauge_name(id).starts_with(&cfg.staleness_prefix) {
                    self.watch_ids.staleness.push(id);
                }
            }
        }
        if self.watch_ids.counters_seen != reg.counters_len() {
            self.watch_ids.counters_seen = reg.counters_len();
            self.watch_ids.abort = reg.find_counter(&cfg.abort_counter);
        }
    }

    fn grow_baselines(&mut self, reg: &Registry) {
        self.prev_counters.resize(reg.counters_len(), 0);
        self.prev_gauges.resize(reg.gauges_len(), 0);
        self.prev_gauge_touched.resize(reg.gauges_len(), false);
        self.prev_histograms.resize(reg.histograms_len(), Histogram::default());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg_with(counts: &[(&str, u64)]) -> Registry {
        let mut r = Registry::new();
        for (k, n) in counts {
            r.add(k, *n);
        }
        r
    }

    #[test]
    fn windows_hold_deltas_not_totals() {
        let mut reg = reg_with(&[("update.committed", 5)]);
        let mut rec = SeriesRecorder::new(100);
        assert!(rec.roll(100, &mut reg).recorded);
        reg.add("update.committed", 3);
        assert!(rec.roll(200, &mut reg).recorded);
        let snap = rec.snapshot(&reg);
        assert_eq!(snap.windows.len(), 2);
        assert_eq!(snap.windows[0].counters["update.committed"], 5);
        assert_eq!(snap.windows[1].counters["update.committed"], 3);
        assert_eq!(snap.windows[0].index, 0);
        assert_eq!(snap.windows[1].index, 1);
        assert_eq!(snap.counter_tail("update.committed", 8), vec![5, 3]);
    }

    #[test]
    fn idle_windows_are_skipped_and_gaps_allowed() {
        let mut reg = reg_with(&[("x", 1)]);
        let mut rec = SeriesRecorder::new(10);
        assert!(rec.roll(10, &mut reg).recorded);
        // Nothing moved: not recorded, baseline unchanged.
        assert!(!rec.roll(20, &mut reg).recorded);
        reg.add("x", 7);
        assert!(rec.roll(50, &mut reg).recorded);
        let snap = rec.snapshot(&reg);
        assert_eq!(snap.windows.len(), 2);
        assert_eq!(snap.windows[1].index, 4, "gap preserved");
        assert_eq!(snap.windows[1].counters["x"], 7);
    }

    #[test]
    fn ring_rolls_over_at_capacity() {
        let mut reg = Registry::new();
        let mut rec = SeriesRecorder::with_capacity(10, 3);
        for w in 1..=5u64 {
            reg.add("x", w);
            assert!(rec.roll(w * 10, &mut reg).recorded);
        }
        let snap = rec.snapshot(&reg);
        assert_eq!(snap.windows.len(), 3);
        let idx: Vec<u64> = snap.windows.iter().map(|w| w.index).collect();
        assert_eq!(idx, vec![2, 3, 4], "oldest evicted first");
        assert_eq!(snap.windows[2].counters["x"], 5);
    }

    #[test]
    fn gauges_record_last_value_every_window() {
        let mut reg = Registry::new();
        reg.set_gauge("depth", 4);
        let mut rec = SeriesRecorder::new(10);
        assert!(rec.roll(10, &mut reg).recorded);
        // Unchanged gauge alone isn't content…
        assert!(!rec.roll(20, &mut reg).recorded);
        // …but it rides along when something else moved.
        reg.inc("x");
        assert!(rec.roll(30, &mut reg).recorded);
        let snap = rec.snapshot(&reg);
        assert_eq!(snap.windows[1].gauges["depth"], 4);
        assert_eq!(snap.gauge_tail("depth", 2), vec![4, 4]);
    }

    #[test]
    fn histogram_window_merge_reproduces_total() {
        let mut reg = Registry::new();
        let mut rec = SeriesRecorder::new(10);
        reg.observe("lat", 3);
        reg.observe("lat", 900);
        rec.roll(10, &mut reg);
        reg.observe("lat", 7);
        rec.roll(20, &mut reg);
        reg.observe("lat", 31);
        reg.observe("lat", 5000);
        rec.roll(30, &mut reg);
        let snap = rec.snapshot(&reg);
        let mut merged = HistogramSnapshot::default();
        for w in &snap.windows {
            merged.merge(&w.histograms["lat"]);
        }
        assert_eq!(merged, reg.histogram("lat").unwrap().snapshot());
    }

    #[test]
    fn same_inputs_same_series() {
        let run = || {
            let mut reg = Registry::new();
            let mut rec = SeriesRecorder::new(10);
            for w in 1..=6u64 {
                reg.add("a", w);
                reg.set_gauge("g", w as i64 * 3);
                reg.observe("h", w * 10);
                rec.roll(w * 10, &mut reg);
            }
            serde_json::to_string(&rec.snapshot(&reg)).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn watchdog_queue_growth_fires_once_per_episode() {
        let mut reg = Registry::new();
        let mut rec = SeriesRecorder::new(10);
        let mut firings = Vec::new();
        for w in 1..=6u64 {
            reg.inc("tick");
            reg.set_gauge("repl.queue.depth", (w * 40) as i64);
            firings.extend(rec.roll(w * 10, &mut reg).firings);
        }
        let queue: Vec<_> =
            firings.iter().filter(|f| f.rule == "queue-depth-growth").collect();
        assert_eq!(queue.len(), 1, "latched after the transition: {firings:?}");
        assert_eq!(queue[0].window, 3, "3 growth windows after the first sample");
    }

    #[test]
    fn watchdog_staleness_fires_above_bound() {
        let mut reg = Registry::new();
        let mut rec = SeriesRecorder::new(10); // bound = 40
        let mut firings = Vec::new();
        for w in 1..=4u64 {
            reg.inc("tick");
            reg.set_gauge("knowledge.staleness.s2", 100 + w as i64);
            firings.extend(rec.roll(w * 10, &mut reg).firings);
        }
        let stale: Vec<_> = firings.iter().filter(|f| f.rule == "staleness-bound").collect();
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].window, 1, "two windows above bound");
    }

    #[test]
    fn watchdog_abort_spike_compares_to_trailing_mean() {
        let mut reg = Registry::new();
        let mut rec = SeriesRecorder::new(10);
        let mut firings = Vec::new();
        // Two quiet windows of 1 abort each, then a 20-abort burst.
        for (w, aborts) in [(1u64, 1u64), (2, 1), (3, 20)] {
            reg.add("update.aborted", aborts);
            firings.extend(rec.roll(w * 10, &mut reg).firings);
        }
        let spikes: Vec<_> = firings.iter().filter(|f| f.rule == "abort-spike").collect();
        assert_eq!(spikes.len(), 1, "{firings:?}");
        assert_eq!(spikes[0].window, 2);
    }

    #[test]
    fn watchdog_is_deterministic() {
        let run = || {
            let mut reg = Registry::new();
            let mut rec = SeriesRecorder::new(10);
            let mut all = Vec::new();
            for w in 1..=8u64 {
                reg.set_gauge("repl.queue.depth", (w as i64) * 50);
                reg.add("update.aborted", if w == 6 { 30 } else { 1 });
                reg.inc("tick");
                all.extend(rec.roll(w * 10, &mut reg).firings);
            }
            all
        };
        let a = run();
        assert_eq!(a, run());
        assert!(!a.is_empty());
    }

    #[test]
    fn sparkline_scales_to_peak() {
        assert_eq!(sparkline(&[0, 0, 0]), "▁▁▁");
        let s = sparkline(&[1, 4, 8]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.ends_with('█'));
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let mut reg = reg_with(&[("a", 2)]);
        reg.set_gauge("g", -3);
        reg.observe("h", 9);
        let mut rec = SeriesRecorder::new(10);
        rec.roll(10, &mut reg);
        let snap = rec.snapshot(&reg);
        let json = serde_json::to_string(&snap).unwrap();
        let back: SeriesSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snap, back);
    }
}
