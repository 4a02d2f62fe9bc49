//! The deterministic discrete-event simulator.

use crate::actor::{Actor, Ctx, MsgInfo};
use crate::counters::Counters;
use crate::event::{Event, EventQueue};
use crate::faults::{FaultPlan, FlapSchedule, LinkFilter};
use crate::hook::{FaultCtl, NetEvent, NetHook, SchedOp};
use crate::rng::DetRng;
use avdb_telemetry::MessageLog;
use avdb_types::{LatencyModel, SiteId, VirtualTime};

/// Configures and constructs a [`Simulator`].
#[derive(Clone, Debug)]
pub struct SimulatorBuilder {
    latency: LatencyModel,
    seed: u64,
    drop_probability: f64,
    max_events: u64,
}

impl Default for SimulatorBuilder {
    fn default() -> Self {
        SimulatorBuilder {
            latency: LatencyModel::default(),
            seed: 0,
            drop_probability: 0.0,
            max_events: u64::MAX,
        }
    }
}

impl SimulatorBuilder {
    /// Fresh builder with defaults (1-tick fixed latency, seed 0).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the link latency model.
    pub fn latency(mut self, l: LatencyModel) -> Self {
        self.latency = l;
        self
    }

    /// Sets the seed for jitter, drops and per-actor RNGs.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the probabilistic message-loss rate. Panics unless `p` is a
    /// probability in `[0, 1]` — a rate of `1.5` or `NaN` would silently
    /// skew every run built from the config.
    pub fn drop_probability(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "drop_probability must be a probability in [0, 1], got {p}"
        );
        self.drop_probability = p;
        self
    }

    /// Safety valve: abort after this many events (guards against
    /// livelocked protocols in tests).
    pub fn max_events(mut self, n: u64) -> Self {
        self.max_events = n;
        self
    }

    /// Builds a simulator hosting `actors` (one per site, index = site id).
    pub fn build<A: Actor>(self, actors: Vec<A>) -> Simulator<A> {
        let root = DetRng::new(self.seed);
        let n = actors.len();
        let rngs = (0..n).map(|i| root.derive(0x5174_0000 + i as u64)).collect();
        let mut faults = FaultPlan::none();
        faults.drop_probability = self.drop_probability;
        Simulator {
            actors,
            rngs,
            queue: EventQueue::new(),
            now: VirtualTime::ZERO,
            latency: self.latency,
            net_rng: root.derive(0xAE7),
            faults,
            counters: Counters::new(),
            outputs: Vec::new(),
            link_fifo: vec![VirtualTime::ZERO; n * n],
            parked: (0..n).map(|_| Vec::new()).collect(),
            sends_buf: Vec::new(),
            timers_buf: Vec::new(),
            outputs_buf: Vec::new(),
            started: false,
            processed: 0,
            max_events: self.max_events,
            lost_inputs: 0,
            lost_input_log: Vec::new(),
            trace: MessageLog::new(),
            hook: None,
        }
    }
}

/// Deterministic discrete-event runtime hosting one [`Actor`] per site.
///
/// Events are processed in `(virtual time, insertion order)` order; all
/// randomness flows from the builder seed; links are FIFO per direction.
pub struct Simulator<A: Actor> {
    actors: Vec<A>,
    rngs: Vec<DetRng>,
    queue: EventQueue<A::Msg, A::Input>,
    now: VirtualTime,
    latency: LatencyModel,
    net_rng: DetRng,
    faults: FaultPlan,
    counters: Counters,
    outputs: Vec<(VirtualTime, SiteId, A::Output)>,
    /// Last scheduled delivery time per directed link (flat, indexed by
    /// `from * n_sites + to`), to keep links FIFO even under latency
    /// jitter.
    link_fifo: Vec<VirtualTime>,
    /// Store-and-forward queue, indexed by site: messages addressed to a
    /// crashed site are held here and re-scheduled at its recovery (the
    /// transport is a durable message queue; a fail-stop site loses
    /// state, not mail).
    parked: Vec<Vec<(SiteId, A::Msg)>>,
    /// Pooled effect buffers threaded through [`Ctx`] so the steady-state
    /// event loop reuses the same three vectors for every handler call.
    sends_buf: Vec<(SiteId, A::Msg)>,
    timers_buf: Vec<(u64, u64)>,
    outputs_buf: Vec<A::Output>,
    started: bool,
    processed: u64,
    max_events: u64,
    lost_inputs: u64,
    /// `(time, site)` of each lost input, so a harness can reconstruct
    /// exactly which injected requests never reached their actor.
    lost_input_log: Vec<(VirtualTime, SiteId)>,
    trace: MessageLog,
    /// State-triggered fault hook (nemesis engine), fired on sends,
    /// deliveries, crashes, and recoveries.
    hook: Option<Box<dyn NetHook>>,
}

impl<A: Actor> Simulator<A> {
    /// Number of sites.
    pub fn n_sites(&self) -> usize {
        self.actors.len()
    }

    /// Current virtual time.
    pub fn now(&self) -> VirtualTime {
        self.now
    }

    /// Network traffic counters.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Inputs that were injected at crashed sites and therefore lost.
    pub fn lost_inputs(&self) -> u64 {
        self.lost_inputs
    }

    /// `(time, site)` of every lost input, in loss order.
    pub fn lost_input_log(&self) -> &[(VirtualTime, SiteId)] {
        &self.lost_input_log
    }

    /// Total events processed.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Shared access to a site's actor (assertions, state inspection).
    pub fn actor(&self, site: SiteId) -> &A {
        &self.actors[site.index()]
    }

    /// Mutable access to a site's actor (test setup only; mutating protocol
    /// state mid-run voids determinism guarantees).
    pub fn actor_mut(&mut self, site: SiteId) -> &mut A {
        &mut self.actors[site.index()]
    }

    /// Takes all outputs emitted since the last drain.
    pub fn drain_outputs(&mut self) -> Vec<(VirtualTime, SiteId, A::Output)> {
        std::mem::take(&mut self.outputs)
    }

    /// Schedules an external input for `site` at absolute time `at`.
    pub fn inject_at(&mut self, at: VirtualTime, site: SiteId, input: A::Input) {
        debug_assert!(at >= self.now, "cannot inject into the past");
        self.queue.push(at, Event::Input { site, input });
    }

    /// Schedules an input at the current time (processed after already
    /// queued same-time events).
    pub fn inject_now(&mut self, site: SiteId, input: A::Input) {
        self.queue.push(self.now, Event::Input { site, input });
    }

    /// Schedules a fail-stop crash.
    pub fn crash_at(&mut self, at: VirtualTime, site: SiteId) {
        self.queue.push(at, Event::Crash { site });
    }

    /// Schedules a recovery.
    pub fn recover_at(&mut self, at: VirtualTime, site: SiteId) {
        self.queue.push(at, Event::Recover { site });
    }

    /// Installs a network partition immediately.
    pub fn set_partition(&mut self, filter: LinkFilter) {
        self.faults.set_partition(filter);
    }

    /// Heals any partition immediately.
    pub fn heal_partition(&mut self) {
        self.faults.heal_partition();
    }

    /// Severs only the `from → to` direction (asymmetric link failure).
    pub fn sever_link(&mut self, from: SiteId, to: SiteId) {
        self.faults.sever_link(from, to);
    }

    /// Restores a directed cut.
    pub fn heal_link(&mut self, from: SiteId, to: SiteId) {
        self.faults.heal_link(from, to);
    }

    /// Installs a flap schedule on the `from → to` link.
    pub fn flap_link(&mut self, from: SiteId, to: SiteId, schedule: FlapSchedule) {
        self.faults.flap_link(from, to, schedule);
    }

    /// Adds `extra` ticks of latency to the `from → to` link (0 clears).
    pub fn inflate_link(&mut self, from: SiteId, to: SiteId, extra: u64) {
        self.faults.inflate_link(from, to, extra);
    }

    /// Installs a state-triggered fault hook (replacing any previous
    /// one). The hook sees every send, delivery, crash, and recovery in
    /// event-loop order and may mutate the fault plan at that instant.
    pub fn set_net_hook(&mut self, hook: Box<dyn NetHook>) {
        self.hook = Some(hook);
    }

    /// Fires the hook (if any) and applies its requested fault actions.
    /// Immediate crashes wipe volatile state exactly like scheduled ones.
    fn fire_hook(&mut self, ev: NetEvent) {
        let Some(mut hook) = self.hook.take() else { return };
        let mut ctl = FaultCtl::new(self.now, self.actors.len(), &mut self.faults);
        hook.on_event(&ev, &mut ctl);
        let FaultCtl { scheduled, crash_now, .. } = ctl;
        for site in crash_now {
            if !self.faults.is_crashed(site) {
                self.faults.crash(site);
                self.actors[site.index()].on_crash();
            }
        }
        for (at, op) in scheduled {
            match op {
                SchedOp::Crash(site) => self.queue.push(at, Event::Crash { site }),
                SchedOp::Recover(site) => self.queue.push(at, Event::Recover { site }),
            }
        }
        self.hook = hook.into();
    }

    /// `true` while `site` is crashed.
    pub fn is_crashed(&self, site: SiteId) -> bool {
        self.faults.is_crashed(site)
    }

    /// Starts recording a message-sequence trace (see
    /// [`avdb_telemetry::render_sequence`]).
    pub fn enable_trace(&mut self) {
        self.trace.enable();
    }

    /// The recorded message-sequence trace.
    pub fn trace(&self) -> &MessageLog {
        &self.trace
    }

    fn sample_latency(&mut self) -> u64 {
        match self.latency {
            LatencyModel::Fixed { ticks } => ticks,
            LatencyModel::Jittered { base, spread } => {
                base + self.net_rng.gen_range(spread + 1)
            }
        }
    }

    /// Runs a handler and applies its queued effects to the event queue.
    /// The effect vectors are pooled: taken from the simulator before the
    /// call, drained, and put back cleared — zero allocations once warm.
    fn with_ctx<F>(&mut self, site: SiteId, f: F)
    where
        F: FnOnce(&mut A, &mut Ctx<'_, A::Msg, A::Output>),
    {
        let idx = site.index();
        let mut rng = self.rngs[idx].clone();
        let mut ctx = Ctx::with_buffers(
            site,
            self.now,
            &mut rng,
            std::mem::take(&mut self.sends_buf),
            std::mem::take(&mut self.timers_buf),
            std::mem::take(&mut self.outputs_buf),
        );
        f(&mut self.actors[idx], &mut ctx);
        let Ctx { mut sends, mut timers, mut outputs, .. } = ctx;
        self.rngs[idx] = rng;
        for (to, msg) in sends.drain(..) {
            self.route(site, to, msg);
        }
        for (delay, token) in timers.drain(..) {
            self.queue.push(self.now.after(delay), Event::Timer { site, token });
        }
        for out in outputs.drain(..) {
            self.outputs.push((self.now, site, out));
        }
        self.sends_buf = sends;
        self.timers_buf = timers;
        self.outputs_buf = outputs;
    }

    /// Sends `msg` through the (possibly faulty) network.
    fn route(&mut self, from: SiteId, to: SiteId, msg: A::Msg) {
        let kind = msg.kind();
        self.counters.record_send(from, to, kind);
        // The hook fires before fault filtering: a nemesis severing the
        // link here kills this very message, and inflation applies to it.
        self.fire_hook(NetEvent::Send { from, to, kind });
        // A partition drops; a crashed *receiver* does not — the message
        // travels and parks at the receiver's durable queue on arrival.
        if self.faults.path_severed_at(self.now, from, to) {
            self.counters.record_drop();
            return;
        }
        if self.faults.drop_probability > 0.0
            && self.net_rng.gen_bool(self.faults.drop_probability)
        {
            self.counters.record_drop();
            return;
        }
        let mut deliver_at = self
            .now
            .after(self.sample_latency() + self.faults.link_extra_delay(from, to));
        // Per-link FIFO: never schedule a delivery before one already
        // scheduled on the same directed link.
        let link = from.index() * self.actors.len() + to.index();
        deliver_at = deliver_at.max(self.link_fifo[link]);
        self.link_fifo[link] = deliver_at;
        self.queue.push(deliver_at, Event::Deliver { from, to, msg });
    }

    /// Calls every actor's `on_start` exactly once; idempotent, invoked
    /// automatically by the run methods.
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.actors.len() {
            self.with_ctx(SiteId(i as u32), |a, ctx| a.on_start(ctx));
        }
    }

    /// Processes the next event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        self.start();
        let Some((at, event)) = self.queue.pop() else {
            return false;
        };
        assert!(
            self.processed < self.max_events,
            "simulator exceeded max_events={} — livelocked protocol?",
            self.max_events
        );
        self.processed += 1;
        debug_assert!(at >= self.now, "event queue went backwards");
        self.now = at;
        match event {
            Event::Deliver { from, to, msg } => {
                // The hook fires before the crash check: a nemesis calling
                // `crash_now(to)` here makes this very message park.
                self.fire_hook(NetEvent::Deliver { from, to, kind: msg.kind() });
                // A crash between send and delivery parks the message in
                // the transport's durable queue until recovery.
                if self.faults.is_crashed(to) {
                    self.counters.record_parked();
                    self.parked[to.index()].push((from, msg));
                } else {
                    self.counters.record_delivery(to);
                    self.trace.record(self.now, from, to, msg.kind(), msg.trace_context());
                    self.with_ctx(to, |a, ctx| a.on_message(ctx, from, msg));
                }
            }
            Event::Timer { site, token } => {
                // Timers die with the crash (volatile state).
                if !self.faults.is_crashed(site) {
                    self.with_ctx(site, |a, ctx| a.on_timer(ctx, token));
                }
            }
            Event::Input { site, input } => {
                if self.faults.is_crashed(site) {
                    self.lost_inputs += 1;
                    self.lost_input_log.push((self.now, site));
                } else {
                    self.with_ctx(site, |a, ctx| a.on_input(ctx, input));
                }
            }
            Event::Crash { site } => {
                // A repeated crash of an already-crashed site is a no-op
                // (and must not wipe state twice or re-fire the hook).
                if !self.faults.is_crashed(site) {
                    self.faults.crash(site);
                    self.actors[site.index()].on_crash();
                    self.fire_hook(NetEvent::Crash { site });
                }
            }
            Event::Recover { site } => {
                if self.faults.is_crashed(site) {
                    self.fire_hook(NetEvent::Recover { site });
                }
                self.faults.recover(site);
                self.with_ctx(site, |a, ctx| a.on_recover(ctx));
                // Deliver parked mail in arrival order, after the recovery
                // handler's own effects.
                for (from, msg) in std::mem::take(&mut self.parked[site.index()]) {
                    self.queue.push(self.now, Event::Deliver { from, to: site, msg });
                }
            }
        }
        true
    }

    /// Runs until no events remain.
    pub fn run_until_quiescent(&mut self) {
        while self.step() {}
    }

    /// Runs while the next event is at or before `deadline`; afterwards
    /// `now` is exactly `deadline` (time advances even with no events).
    pub fn run_until(&mut self, deadline: VirtualTime) {
        self.start();
        while let Some(t) = self.queue.peek_time() {
            if t > deadline {
                break;
            }
            self.step();
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::MsgInfo;

    /// Toy protocol: on input `n`, send `Ping(n)` to every other site; each
    /// receiver replies `Pong(n)`; origin emits when all pongs arrive.
    #[derive(Clone, Debug, PartialEq)]
    enum PingMsg {
        Ping(u64),
        Pong(u64),
    }

    impl MsgInfo for PingMsg {
        fn kind(&self) -> &'static str {
            match self {
                PingMsg::Ping(_) => "ping",
                PingMsg::Pong(_) => "pong",
            }
        }
    }

    #[derive(Default)]
    struct PingActor {
        n_sites: usize,
        pongs: std::collections::HashMap<u64, usize>,
        pings_seen: u64,
        recovered: bool,
    }

    impl PingActor {
        fn new(n_sites: usize) -> Self {
            PingActor { n_sites, ..Default::default() }
        }
    }

    impl Actor for PingActor {
        type Msg = PingMsg;
        type Input = u64;
        type Output = u64;

        fn on_input(&mut self, ctx: &mut Ctx<'_, PingMsg, u64>, n: u64) {
            for s in 0..self.n_sites as u32 {
                if SiteId(s) != ctx.me() {
                    ctx.send(SiteId(s), PingMsg::Ping(n));
                }
            }
            self.pongs.insert(n, 0);
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_, PingMsg, u64>, from: SiteId, msg: PingMsg) {
            match msg {
                PingMsg::Ping(n) => {
                    self.pings_seen += 1;
                    ctx.send(from, PingMsg::Pong(n));
                }
                PingMsg::Pong(n) => {
                    let c = self.pongs.entry(n).or_insert(0);
                    *c += 1;
                    if *c == self.n_sites - 1 {
                        ctx.emit(n);
                    }
                }
            }
        }

        fn on_recover(&mut self, _ctx: &mut Ctx<'_, PingMsg, u64>) {
            self.recovered = true;
        }
    }

    fn sim(n: usize) -> Simulator<PingActor> {
        SimulatorBuilder::new().build((0..n).map(|_| PingActor::new(n)).collect())
    }

    #[test]
    fn ping_pong_round_trip_counts_messages() {
        let mut sim = sim(3);
        sim.inject_at(VirtualTime(0), SiteId(1), 7);
        sim.run_until_quiescent();
        let out = sim.drain_outputs();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1, SiteId(1));
        assert_eq!(out[0].2, 7);
        // 2 pings + 2 pongs.
        assert_eq!(sim.counters().total_messages(), 4);
        assert_eq!(sim.counters().total_correspondences(), 2);
        assert_eq!(sim.counters().by_kind("ping"), 2);
        assert_eq!(sim.counters().sent_by(SiteId(1)), 2);
        // Fixed 1-tick latency: pings at t=1, pongs at t=2.
        assert_eq!(sim.now(), VirtualTime(2));
    }

    #[test]
    fn deterministic_repeat_runs() {
        let run = |seed| {
            let mut s = SimulatorBuilder::new()
                .seed(seed)
                .latency(LatencyModel::Jittered { base: 1, spread: 4 })
                .build((0..4).map(|_| PingActor::new(4)).collect());
            for i in 0..20 {
                s.inject_at(VirtualTime(i), SiteId((i % 4) as u32), i);
            }
            s.run_until_quiescent();
            (s.counters().snapshot(), s.now())
        };
        assert_eq!(run(99), run(99));
        assert_ne!(run(99).1, VirtualTime::ZERO);
    }

    #[test]
    fn crashed_site_parks_messages_and_loses_inputs() {
        let mut sim = sim(3);
        sim.crash_at(VirtualTime(0), SiteId(2));
        sim.inject_at(VirtualTime(1), SiteId(1), 3);
        sim.inject_at(VirtualTime(1), SiteId(2), 4); // lost input
        sim.run_until_quiescent();
        let out = sim.drain_outputs();
        // Site 1 never gets the pong from crashed site 2, so no output.
        assert!(out.is_empty());
        assert_eq!(sim.lost_inputs(), 1);
        // Ping to site 0 delivered and ponged; ping to site 2 parked in
        // the transport's durable queue (not dropped).
        assert_eq!(sim.counters().dropped_messages(), 0);
        assert_eq!(sim.counters().parked_messages(), 1);
        assert!(sim.is_crashed(SiteId(2)));
        assert_eq!(sim.actor(SiteId(2)).pings_seen, 0);
    }

    #[test]
    fn parked_messages_deliver_at_recovery() {
        let mut sim = sim(3);
        sim.crash_at(VirtualTime(0), SiteId(2));
        sim.inject_at(VirtualTime(1), SiteId(1), 3);
        sim.recover_at(VirtualTime(50), SiteId(2));
        sim.run_until_quiescent();
        // After recovery the parked ping is delivered, ponged, and the
        // round completes.
        let out = sim.drain_outputs();
        assert_eq!(out.len(), 1);
        assert_eq!(sim.actor(SiteId(2)).pings_seen, 1);
        assert!(out[0].0 >= VirtualTime(50), "completed only after recovery");
    }

    #[test]
    fn recovery_allows_later_traffic() {
        let mut sim = sim(3);
        sim.crash_at(VirtualTime(0), SiteId(2));
        sim.recover_at(VirtualTime(5), SiteId(2));
        sim.inject_at(VirtualTime(6), SiteId(1), 3);
        sim.run_until_quiescent();
        let out = sim.drain_outputs();
        assert_eq!(out.len(), 1, "after recovery the round completes");
        assert!(sim.actor(SiteId(2)).recovered);
        assert!(!sim.is_crashed(SiteId(2)));
    }

    #[test]
    fn partition_blocks_cross_group_traffic() {
        let mut sim = sim(3);
        sim.set_partition(LinkFilter::partition(vec![
            vec![SiteId(0), SiteId(1)],
            vec![SiteId(2)],
        ]));
        sim.inject_at(VirtualTime(0), SiteId(1), 1);
        sim.run_until_quiescent();
        assert!(sim.drain_outputs().is_empty());
        assert_eq!(sim.counters().dropped_messages(), 1);
        sim.heal_partition();
        sim.inject_at(sim.now(), SiteId(1), 2);
        sim.run_until_quiescent();
        assert_eq!(sim.drain_outputs().len(), 1);
    }

    #[test]
    fn drop_probability_loses_messages() {
        let mut sim = SimulatorBuilder::new()
            .seed(1)
            .drop_probability(1.0)
            .build((0..2).map(|_| PingActor::new(2)).collect());
        sim.inject_at(VirtualTime(0), SiteId(0), 1);
        sim.run_until_quiescent();
        assert_eq!(sim.counters().dropped_messages(), 1);
        assert!(sim.drain_outputs().is_empty());
    }

    #[test]
    fn run_until_advances_clock_without_events() {
        let mut sim = sim(2);
        sim.run_until(VirtualTime(50));
        assert_eq!(sim.now(), VirtualTime(50));
        sim.inject_at(VirtualTime(60), SiteId(0), 1);
        sim.run_until(VirtualTime(55));
        assert_eq!(sim.now(), VirtualTime(55));
        assert!(sim.drain_outputs().is_empty(), "future event not yet processed");
        sim.run_until(VirtualTime(100));
        assert_eq!(sim.drain_outputs().len(), 1);
    }

    #[test]
    fn fifo_per_link_under_jitter() {
        /// Actor that records the order of payloads it receives.
        struct Recorder {
            seen: Vec<u64>,
        }
        #[derive(Clone, Debug)]
        struct Seq(u64);
        impl MsgInfo for Seq {
            fn kind(&self) -> &'static str {
                "seq"
            }
        }
        impl Actor for Recorder {
            type Msg = Seq;
            type Input = u64;
            type Output = ();
            fn on_input(&mut self, ctx: &mut Ctx<'_, Seq, ()>, n: u64) {
                ctx.send(SiteId(1), Seq(n));
            }
            fn on_message(&mut self, _ctx: &mut Ctx<'_, Seq, ()>, _from: SiteId, msg: Seq) {
                self.seen.push(msg.0);
            }
        }
        let mut sim = SimulatorBuilder::new()
            .seed(3)
            .latency(LatencyModel::Jittered { base: 1, spread: 20 })
            .build(vec![Recorder { seen: vec![] }, Recorder { seen: vec![] }]);
        for i in 0..50 {
            sim.inject_at(VirtualTime(i), SiteId(0), i);
        }
        sim.run_until_quiescent();
        let seen = &sim.actor(SiteId(1)).seen;
        assert_eq!(seen.len(), 50);
        assert!(seen.windows(2).all(|w| w[0] < w[1]), "link must be FIFO: {seen:?}");
    }

    #[test]
    #[should_panic(expected = "drop_probability must be a probability in [0, 1]")]
    fn drop_probability_rejects_out_of_range() {
        let _ = SimulatorBuilder::new().drop_probability(1.5);
    }

    #[test]
    #[should_panic(expected = "drop_probability must be a probability in [0, 1]")]
    fn drop_probability_rejects_nan() {
        let _ = SimulatorBuilder::new().drop_probability(f64::NAN);
    }

    /// Hook that severs `0 → 1` the moment it sees the first ping leave
    /// site 0. The severing must kill that very message.
    struct SeverOnFirstPing {
        fired: std::rc::Rc<std::cell::Cell<u32>>,
    }
    impl NetHook for SeverOnFirstPing {
        fn on_event(&mut self, ev: &NetEvent, ctl: &mut FaultCtl<'_>) {
            if let NetEvent::Send { from, to, kind: "ping" } = *ev {
                if from == SiteId(0) && self.fired.get() == 0 {
                    self.fired.set(1);
                    ctl.sever_link(from, to);
                }
            }
        }
    }

    #[test]
    fn send_hook_can_kill_the_triggering_message() {
        let fired = std::rc::Rc::new(std::cell::Cell::new(0u32));
        let mut sim = sim(2);
        sim.set_net_hook(Box::new(SeverOnFirstPing { fired: fired.clone() }));
        sim.inject_at(VirtualTime(0), SiteId(0), 1);
        sim.run_until_quiescent();
        assert_eq!(fired.get(), 1, "hook saw the send");
        assert_eq!(sim.counters().dropped_messages(), 1, "triggering ping severed");
        assert!(sim.drain_outputs().is_empty());
    }

    /// Hook that crashes the receiver at the instant the first ping
    /// arrives: the triggering message must park, not deliver.
    struct CrashOnPingDeliver {
        done: bool,
    }
    impl NetHook for CrashOnPingDeliver {
        fn on_event(&mut self, ev: &NetEvent, ctl: &mut FaultCtl<'_>) {
            if let NetEvent::Deliver { to, kind: "ping", .. } = *ev {
                if !self.done {
                    self.done = true;
                    ctl.crash_now(to);
                    ctl.recover_after(10, to);
                }
            }
        }
    }

    #[test]
    fn deliver_hook_crash_now_parks_the_triggering_message() {
        let mut sim = sim(2);
        sim.set_net_hook(Box::new(CrashOnPingDeliver { done: false }));
        sim.inject_at(VirtualTime(0), SiteId(0), 1);
        sim.run_until_quiescent();
        // The ping parked at the crash, redelivered after recovery, then
        // ponged — the round still completes, with zero drops.
        assert_eq!(sim.counters().parked_messages(), 1);
        assert_eq!(sim.counters().dropped_messages(), 0);
        let out = sim.drain_outputs();
        assert_eq!(out.len(), 1);
        assert!(out[0].0 >= VirtualTime(11), "completed only after recovery");
    }

    #[test]
    fn flapping_link_drops_only_in_down_windows() {
        let mut sim = sim(2);
        // Up 5 ticks, down 5 ticks, starting at t=0.
        sim.flap_link(
            SiteId(0),
            SiteId(1),
            FlapSchedule { start: VirtualTime(0), up_ticks: 5, down_ticks: 5 },
        );
        sim.inject_at(VirtualTime(2), SiteId(0), 1); // up window → delivers
        sim.inject_at(VirtualTime(7), SiteId(0), 2); // down window → dropped
        sim.run_until_quiescent();
        assert_eq!(sim.counters().dropped_messages(), 1);
        assert_eq!(sim.drain_outputs().len(), 1);
    }

    #[test]
    fn link_inflation_delays_one_direction_only() {
        let mut sim = sim(2);
        sim.inflate_link(SiteId(0), SiteId(1), 40);
        sim.inject_at(VirtualTime(0), SiteId(0), 1);
        sim.run_until_quiescent();
        // Ping takes 1 + 40 ticks out, pong 1 tick back.
        assert_eq!(sim.drain_outputs().len(), 1);
        assert_eq!(sim.now(), VirtualTime(42));
    }

    #[test]
    #[should_panic(expected = "max_events")]
    fn max_events_guards_livelock() {
        /// Two actors bouncing a message forever.
        struct Bouncer;
        #[derive(Clone, Debug)]
        struct B;
        impl MsgInfo for B {
            fn kind(&self) -> &'static str {
                "b"
            }
        }
        impl Actor for Bouncer {
            type Msg = B;
            type Input = ();
            type Output = ();
            fn on_input(&mut self, ctx: &mut Ctx<'_, B, ()>, _: ()) {
                ctx.send(SiteId(1), B);
            }
            fn on_message(&mut self, ctx: &mut Ctx<'_, B, ()>, from: SiteId, _: B) {
                ctx.send(from, B);
            }
        }
        let mut sim = SimulatorBuilder::new()
            .max_events(100)
            .build(vec![Bouncer, Bouncer]);
        sim.inject_at(VirtualTime(0), SiteId(0), ());
        sim.run_until_quiescent();
    }
}
