//! Flight recorder: a fixed-size ring buffer of recent protocol events.
//!
//! Every site keeps one of these always on. Recording is cheap (a bounded
//! `VecDeque` push; integer-only events defer their formatting to read
//! time), so the ring can run in the hot path of a bench without skewing
//! results; it only becomes visible when something goes wrong — an
//! oracle invariant fires, a WAL recovery runs, or a 2PC round aborts — at
//! which point the last `capacity` events from every site are assembled
//! into a [`FlightDump`], written to disk as JSON, and pretty-printed by
//! `avdb-trace flight`.
//!
//! Events are stamped with the site's virtual time and Lamport clock, so a
//! dump from a deterministic sim run is itself deterministic and two dumps
//! from the same seed are byte-identical.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Default ring capacity per site: enough to cover several protocol rounds
/// without the dump becoming unreadable.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

/// One recorded protocol event.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlightEvent {
    /// Monotone per-site sequence number (never wraps; survives eviction,
    /// so gaps at the front of a dump reveal how much history was lost).
    pub seq: u64,
    /// Virtual-time ticks when the event was recorded.
    pub at: u64,
    /// The site's Lamport clock at recording time.
    pub clock: u64,
    /// Short event class, e.g. `"delay.commit"` or `"imm.abort"`.
    pub kind: String,
    /// Human-readable detail line (txn ids, products, volumes, peers).
    pub detail: String,
}

/// Renders a deferred event's detail line from its recorded fields.
pub type RenderDetail = fn(&mut String, &[u64; 4]);

/// How a retained event's detail is held until someone reads it.
#[derive(Clone, Debug)]
enum Detail {
    /// Formatted at record time (call sites with free text).
    Text(String),
    /// Formatted at read time: integer-only call sites store their
    /// fields and a renderer, so recording never touches a formatter.
    Fields(RenderDetail, [u64; 4]),
}

/// One ring slot: a [`FlightEvent`] whose detail may not be rendered yet.
#[derive(Clone, Debug)]
struct Slot {
    seq: u64,
    at: u64,
    clock: u64,
    kind: &'static str,
    detail: Detail,
}

impl Slot {
    fn render(&self) -> FlightEvent {
        let detail = match &self.detail {
            Detail::Text(text) => text.clone(),
            Detail::Fields(render, fields) => {
                let mut text = String::new();
                render(&mut text, fields);
                text
            }
        };
        FlightEvent { seq: self.seq, at: self.at, clock: self.clock, kind: self.kind.to_string(), detail }
    }
}

/// A bounded ring of [`FlightEvent`]s. Oldest events are evicted first.
///
/// Events are stored unrendered where the call site allows it
/// ([`FlightRecorder::record_fields`]) and become [`FlightEvent`]s only
/// when read, so the per-message cost of the always-on ring is a slot
/// write, not a `format!`.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    cap: usize,
    next_seq: u64,
    events: VecDeque<Slot>,
    /// Text buffers of evicted events, reused by the next text record.
    spare: Vec<String>,
}

impl FlightRecorder {
    /// A recorder holding at most `cap` events (`cap` ≥ 1).
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        FlightRecorder { cap, next_seq: 0, events: VecDeque::with_capacity(cap), spare: Vec::new() }
    }

    /// Evicts the oldest slot if the ring is full; an evicted text
    /// buffer goes to the spare pool.
    fn make_room(&mut self) {
        if self.events.len() == self.cap {
            if let Some(Slot { detail: Detail::Text(buf), .. }) = self.events.pop_front() {
                self.spare.push(buf);
            }
        }
    }

    /// Appends a slot, evicting the oldest if the ring is full.
    fn push(&mut self, at: u64, clock: u64, kind: &'static str, detail: Detail) {
        self.make_room();
        self.events.push_back(Slot { seq: self.next_seq, at, clock, kind, detail });
        self.next_seq += 1;
    }

    /// Appends an event, evicting the oldest if the ring is full.
    pub fn record(&mut self, at: u64, clock: u64, kind: &'static str, detail: String) {
        self.push(at, clock, kind, Detail::Text(detail));
    }

    /// [`FlightRecorder::record`] formatting `args` into an evicted
    /// event's buffer, so a saturated ring records text with no fresh
    /// allocation.
    pub fn record_args(
        &mut self,
        at: u64,
        clock: u64,
        kind: &'static str,
        args: std::fmt::Arguments<'_>,
    ) {
        use std::fmt::Write as _;
        // Evict first, so a saturated ring hands its oldest buffer over.
        self.make_room();
        let mut detail = self.spare.pop().unwrap_or_default();
        detail.clear();
        let _ = detail.write_fmt(args);
        self.push(at, clock, kind, Detail::Text(detail));
    }

    /// Appends an event whose detail `render` formats from `fields` only
    /// when the event is read ([`FlightRecorder::events`],
    /// [`FlightRecorder::snapshot`], a [`FlightDump`]). The rendered text
    /// is whatever the renderer writes, so a renderer that mirrors a
    /// former `format!` call site keeps dumps byte-identical.
    pub fn record_fields(
        &mut self,
        at: u64,
        clock: u64,
        kind: &'static str,
        render: RenderDetail,
        fields: [u64; 4],
    ) {
        self.push(at, clock, kind, Detail::Fields(render, fields));
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Total events ever recorded (retained + evicted).
    pub fn recorded(&self) -> u64 {
        self.next_seq
    }

    /// Virtual time of the newest retained event.
    pub fn last_at(&self) -> Option<u64> {
        self.events.back().map(|e| e.at)
    }

    /// The retained events, oldest first, each rendered as it is yielded.
    pub fn events(&self) -> impl Iterator<Item = FlightEvent> + '_ {
        self.events.iter().map(Slot::render)
    }

    /// Renders the retained events out, oldest first.
    pub fn snapshot(&self) -> Vec<FlightEvent> {
        self.events().collect()
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new(DEFAULT_FLIGHT_CAPACITY)
    }
}

/// One site's slice of a [`FlightDump`].
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SiteFlight {
    /// Site id.
    pub site: u32,
    /// Retained events, oldest first.
    pub events: Vec<FlightEvent>,
}

/// A cluster-wide flight-recorder dump: why it was taken plus every site's
/// recent events. Serialized as pretty JSON so a dump is diffable and
/// greppable without tooling; `avdb-trace flight` renders it as a merged
/// timeline.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlightDump {
    /// What triggered the dump (oracle violation, WAL recovery, 2PC abort).
    pub reason: String,
    /// Virtual-time ticks when the dump was taken (0 if unknown).
    pub at: u64,
    /// Per-site event rings.
    pub sites: Vec<SiteFlight>,
}

impl FlightDump {
    /// An empty dump with the given reason and timestamp.
    pub fn new(reason: impl Into<String>, at: u64) -> Self {
        FlightDump { reason: reason.into(), at, sites: Vec::new() }
    }

    /// Appends one site's recorder contents.
    pub fn push_site(&mut self, site: u32, recorder: &FlightRecorder) {
        self.sites.push(SiteFlight { site, events: recorder.snapshot() });
    }

    /// Serializes the dump as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("flight dump serializes")
    }

    /// Parses a dump previously written by [`FlightDump::to_json`].
    pub fn from_json(s: &str) -> Result<Self, String> {
        serde_json::from_str(s).map_err(|e| format!("invalid flight dump: {e}"))
    }

    /// Total events across all sites.
    pub fn total_events(&self) -> usize {
        self.sites.iter().map(|s| s.events.len()).sum()
    }

    /// Renders a human-readable report: header, then one merged timeline
    /// of every site's events ordered by (virtual time, site, seq).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "flight recorder dump — {}", self.reason);
        let _ = writeln!(out, "taken at t={} · {} site(s) · {} event(s)", self.at, self.sites.len(), self.total_events());
        for sf in &self.sites {
            let evicted = sf.events.first().map(|e| e.seq).unwrap_or(0);
            let _ = writeln!(
                out,
                "  site {}: {} event(s) retained, {} evicted",
                sf.site,
                sf.events.len(),
                evicted
            );
        }
        let mut merged: Vec<(&SiteFlight, &FlightEvent)> = self
            .sites
            .iter()
            .flat_map(|sf| sf.events.iter().map(move |e| (sf, e)))
            .collect();
        merged.sort_by_key(|(sf, e)| (e.at, sf.site, e.seq));
        let _ = writeln!(out);
        let _ = writeln!(out, "{:>8}  {:>6}  {:>6}  {:<24} detail", "t", "site", "clock", "kind");
        for (sf, e) in merged {
            let _ = writeln!(out, "{:>8}  {:>6}  {:>6}  {:<24} {}", e.at, sf.site, e.clock, e.kind, e.detail);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest_and_keeps_seq() {
        let mut r = FlightRecorder::new(3);
        for i in 0..5u64 {
            r.record(i, i, "tick", format!("event {i}"));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.recorded(), 5);
        let seqs: Vec<u64> = r.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
    }

    #[test]
    fn multiple_wraps_retain_only_the_newest_window() {
        let mut r = FlightRecorder::new(3);
        for i in 0..10u64 {
            r.record(i, i, "tick", format!("event {i}"));
        }
        // Three full wraps: only the newest `cap` events survive, oldest
        // first, with their original (never-renumbered) sequence numbers.
        assert_eq!(r.len(), 3);
        assert_eq!(r.recorded(), 10);
        let seqs: Vec<u64> = r.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9]);
        let details: Vec<String> = r.events().map(|e| e.detail).collect();
        assert_eq!(details, vec!["event 7", "event 8", "event 9"]);
    }

    #[test]
    fn mid_wrap_dump_is_byte_identical_across_identical_runs() {
        let run = || {
            let mut r = FlightRecorder::new(4);
            // 7 records into a 4-slot ring: the ring is mid-wrap (3 events
            // evicted, eviction pointer not at slot 0).
            for i in 0..7u64 {
                r.record(i * 3, i, "proto.step", format!("n{i}"));
            }
            let mut dump = FlightDump::new("mid-wrap", 21);
            dump.push_site(0, &r);
            dump
        };
        let a = run();
        let b = run();
        assert_eq!(a.to_json(), b.to_json(), "mid-wrap dumps diverge between identical runs");
        // The dump sees through the wrap: events come out oldest-first
        // with contiguous seqs, and the first seq tells how many were lost.
        let seqs: Vec<u64> = a.sites[0].events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![3, 4, 5, 6]);
        assert!(a.render().contains("3 evicted"));
    }

    #[test]
    fn dump_ordering_is_stable_under_wrap() {
        // Two sites wrap different amounts; the merged timeline must stay
        // sorted by (time, site, seq) regardless of ring state.
        let mut a = FlightRecorder::new(2);
        for i in 0..5u64 {
            a.record(10 + i, i, "a.step", format!("a{i}"));
        }
        let mut b = FlightRecorder::new(8);
        b.record(11, 0, "b.step", "b0".into());
        let mut dump = FlightDump::new("wrap order", 99);
        dump.push_site(0, &a);
        dump.push_site(1, &b);
        let text = dump.render();
        let pos = |needle: &str| text.find(needle).unwrap_or_else(|| panic!("{needle} missing"));
        assert!(pos("b0") < pos("a3"), "t=11 event must precede t=13:\n{text}");
        assert!(pos("a3") < pos("a4"), "same-site events must stay seq-ordered:\n{text}");
    }

    #[test]
    fn dump_round_trips_and_renders() {
        let mut r = FlightRecorder::new(8);
        r.record(10, 1, "delay.commit", "txn 3 product 0 delta -2".into());
        r.record(12, 2, "imm.abort", "txn 4".into());
        let mut dump = FlightDump::new("test trigger", 20);
        dump.push_site(0, &r);
        dump.push_site(1, &FlightRecorder::new(4));
        let json = dump.to_json();
        let parsed = FlightDump::from_json(&json).unwrap();
        assert_eq!(parsed, dump);
        let text = parsed.render();
        assert!(text.contains("test trigger"));
        assert!(text.contains("imm.abort"));
        assert!(text.contains("txn 3 product 0 delta -2"));
    }

    #[test]
    fn render_merges_sites_by_time() {
        let mut a = FlightRecorder::new(4);
        a.record(5, 1, "a.late", "late".into());
        let mut b = FlightRecorder::new(4);
        b.record(2, 1, "b.early", "early".into());
        let mut dump = FlightDump::new("merge", 6);
        dump.push_site(0, &a);
        dump.push_site(1, &b);
        let text = dump.render();
        let early = text.find("b.early").unwrap();
        let late = text.find("a.late").unwrap();
        assert!(early < late, "events are merged in time order:\n{text}");
    }

    fn render_pair(out: &mut String, f: &[u64; 4]) {
        use std::fmt::Write as _;
        let _ = write!(out, "event {} of {}", f[0], f[1]);
    }

    #[test]
    fn deferred_events_match_eager_ones_mid_wrap() {
        // The same event stream recorded eagerly (text) and deferred
        // (fields) must read back identically — seqs, eviction order,
        // recorded() — at every point of several wraps, including with
        // text and deferred events interleaved in one ring.
        let mut eager = FlightRecorder::new(4);
        let mut deferred = FlightRecorder::new(4);
        let mut mixed = FlightRecorder::new(4);
        for i in 0..11u64 {
            let fields = [i, u64::MAX - i, 0, 0];
            eager.record_args(i * 2, i, "proto.step", format_args!("event {} of {}", i, u64::MAX - i));
            deferred.record_fields(i * 2, i, "proto.step", render_pair, fields);
            if i % 3 == 0 {
                mixed.record(i * 2, i, "proto.step", format!("event {} of {}", i, u64::MAX - i));
            } else {
                mixed.record_fields(i * 2, i, "proto.step", render_pair, fields);
            }
            assert_eq!(deferred.recorded(), eager.recorded());
            assert_eq!(deferred.len(), eager.len());
            assert_eq!(deferred.last_at(), eager.last_at());
            assert_eq!(deferred.snapshot(), eager.snapshot(), "after {} records", i + 1);
            assert_eq!(mixed.snapshot(), eager.snapshot(), "after {} records", i + 1);
        }
        let seqs: Vec<u64> = deferred.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9, 10]);
        let mut a = FlightDump::new("wrap", 30);
        a.push_site(0, &eager);
        let mut b = FlightDump::new("wrap", 30);
        b.push_site(0, &deferred);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn text_buffers_are_reused_across_deferred_evictions() {
        // A ring cycling between text and deferred records never holds
        // more text buffers than it has slots.
        let mut r = FlightRecorder::new(3);
        for i in 0..50u64 {
            if i % 2 == 0 {
                r.record_args(i, i, "t", format_args!("text {i}"));
            } else {
                r.record_fields(i, i, "f", render_pair, [i, 0, 0, 0]);
            }
            let texts = r.events.iter().filter(|s| matches!(s.detail, Detail::Text(_))).count();
            assert!(texts + r.spare.len() <= r.capacity(), "buffers leak at record {i}");
        }
        assert_eq!(r.snapshot().last().unwrap().detail, "event 49 of 0");
    }

    #[test]
    fn rejects_garbage_json() {
        assert!(FlightDump::from_json("{nope").is_err());
    }
}
