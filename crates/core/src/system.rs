//! [`DistributedSystem`] — the whole integrated database under the
//! deterministic simulator, with invariant checks.
//!
//! This is the object the experiment harness, examples and integration
//! tests drive: it owns one [`Accelerator`] per site inside an
//! [`avdb_simnet::Simulator`] and exposes injection, fault, and
//! inspection APIs.

use crate::accelerator::Accelerator;
use crate::protocol::Input;
use avdb_simnet::{Counters, LinkFilter, Simulator, SimulatorBuilder};
use avdb_telemetry::{MetaLine, OutcomeLine, RunExport};
use avdb_types::{
    ProductClass, ProductId, SiteId, SystemConfig, UpdateOutcome, UpdateRequest, VirtualTime,
    Volume,
};

/// Converts one harness-drained outcome into its export line.
pub fn outcome_line(at: VirtualTime, site: SiteId, outcome: &UpdateOutcome) -> OutcomeLine {
    match outcome {
        UpdateOutcome::Committed { txn, kind, correspondences, .. } => OutcomeLine {
            txn: txn.0,
            site: site.0,
            committed: true,
            detail: format!("{kind:?}"),
            at: at.ticks(),
            correspondences: *correspondences,
        },
        UpdateOutcome::Aborted { txn, reason, correspondences, .. } => OutcomeLine {
            txn: txn.0,
            site: site.0,
            committed: false,
            detail: format!("{reason:?}"),
            at: at.ticks(),
            correspondences: *correspondences,
        },
    }
}

/// Assembles a telemetry export from a live-transport run: the actors
/// the transport returned at shutdown, its message log, and its network
/// counters. The sim-transport equivalent is
/// [`DistributedSystem::export_telemetry`].
pub fn export_from_accelerators(
    transport: &str,
    cfg: &SystemConfig,
    actors: &[Accelerator],
    messages: &[avdb_simnet::MessageEvent],
    network: avdb_simnet::RegistrySnapshot,
    outcomes: &[(VirtualTime, SiteId, UpdateOutcome)],
) -> RunExport {
    let mut export = RunExport {
        meta: Some(MetaLine {
            transport: transport.to_string(),
            sites: cfg.n_sites as u64,
            seed: cfg.seed,
        }),
        ..Default::default()
    };
    for acc in actors {
        export.add_spans(acc.spans().records());
        export.add_registry(&format!("site{}", acc.site().0), acc.registry().snapshot());
        if let Some(series) = acc.series_snapshot() {
            export.add_series(&format!("site{}", acc.site().0), &series);
        }
    }
    export.add_messages(messages);
    export.add_registry("network", network);
    for (at, site, outcome) in outcomes {
        export.outcomes.push(outcome_line(*at, *site, outcome));
    }
    attach_profile(&mut export);
    export
}

/// Computes the run's critical-path phase profile over the merged spans
/// and publishes it twice: as the export's `profile` line and as a
/// `"profile"`-scoped registry snapshot (so `/metrics`-style consumers
/// see the same histograms).
fn attach_profile(export: &mut RunExport) {
    let profile = avdb_telemetry::profile_export(export);
    if !profile.is_empty() {
        export.add_registry("profile", profile.to_registry_snapshot());
    }
    export.profile = Some(profile);
}

/// The proposed system: all sites, the network, and the virtual clock.
pub struct DistributedSystem {
    cfg: SystemConfig,
    sim: Simulator<Accelerator>,
}

impl DistributedSystem {
    /// Builds the system from a validated config.
    pub fn new(cfg: SystemConfig) -> Self {
        let actors = SiteId::all(cfg.n_sites).map(|s| Accelerator::new(s, &cfg)).collect();
        Self::from_actors(cfg, actors)
    }

    /// Builds the system around pre-constructed accelerators (e.g. sites
    /// reopened from disk via [`Accelerator::open_from_dir`]). Actor
    /// index must equal site id.
    pub fn from_actors(cfg: SystemConfig, actors: Vec<Accelerator>) -> Self {
        debug_assert_eq!(actors.len(), cfg.n_sites);
        let sim = SimulatorBuilder::new()
            .latency(cfg.latency)
            .seed(cfg.seed)
            .drop_probability(cfg.drop_probability)
            .build(actors);
        DistributedSystem { cfg, sim }
    }

    /// The configuration this system was built from.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Current virtual time.
    pub fn now(&self) -> VirtualTime {
        self.sim.now()
    }

    /// Network traffic counters.
    pub fn counters(&self) -> &Counters {
        self.sim.counters()
    }

    /// Starts recording a message-sequence trace (protocol-chart tests,
    /// debugging).
    pub fn enable_trace(&mut self) {
        self.sim.enable_trace();
    }

    /// The recorded message-sequence trace.
    pub fn trace(&self) -> &avdb_telemetry::MessageLog {
        self.sim.trace()
    }

    /// Inputs lost to crashed sites.
    pub fn lost_inputs(&self) -> u64 {
        self.sim.lost_inputs()
    }

    /// `(time, site)` of every lost input, in loss order.
    pub fn lost_input_log(&self) -> &[(VirtualTime, SiteId)] {
        self.sim.lost_input_log()
    }

    /// One site's accelerator.
    pub fn accelerator(&self, site: SiteId) -> &Accelerator {
        self.sim.actor(site)
    }

    // ---- driving -----------------------------------------------------------

    /// Schedules a user update at absolute time `at`.
    pub fn submit_at(&mut self, at: VirtualTime, req: UpdateRequest) {
        self.sim.inject_at(at, req.site, Input::Update(req));
    }

    /// Schedules a user update at the current time.
    pub fn submit_now(&mut self, req: UpdateRequest) {
        self.sim.inject_now(req.site, Input::Update(req));
    }

    /// Schedules an atomic multi-item Delay update at `site`.
    pub fn submit_multi_at(
        &mut self,
        at: VirtualTime,
        site: SiteId,
        items: Vec<(ProductId, Volume)>,
    ) {
        self.sim.inject_at(at, site, Input::MultiUpdate { items });
    }

    /// Runs until no events remain.
    pub fn run_until_quiescent(&mut self) {
        self.sim.run_until_quiescent();
    }

    /// Runs until `deadline`.
    pub fn run_until(&mut self, deadline: VirtualTime) {
        self.sim.run_until(deadline);
    }

    /// Processes one event.
    pub fn step(&mut self) -> bool {
        self.sim.step()
    }

    /// Takes all update outcomes emitted since the last drain.
    pub fn drain_outcomes(&mut self) -> Vec<(VirtualTime, SiteId, UpdateOutcome)> {
        self.sim.drain_outputs()
    }

    /// Asks every live site to retransmit unacknowledged replication
    /// entries (end-of-run convergence / anti-entropy after recovery).
    pub fn flush_all(&mut self) {
        for site in SiteId::all(self.cfg.n_sites) {
            self.sim.inject_now(site, Input::FlushPropagation);
        }
    }

    /// Reclassifies `product` at every site (the adaptation experiment).
    /// When switching to `Regular`, `system_av` is re-split per the
    /// configured allocation.
    pub fn reclassify_all(&mut self, product: ProductId, class: ProductClass, system_av: Volume) {
        let split = self.cfg.split_av(system_av);
        for site in SiteId::all(self.cfg.n_sites) {
            self.sim.inject_now(
                site,
                Input::Reclassify { product, class, local_av: split[site.index()] },
            );
        }
    }

    /// Checkpoints every site's WAL.
    pub fn checkpoint_all(&mut self) {
        for site in SiteId::all(self.cfg.n_sites) {
            self.sim.inject_now(site, Input::Checkpoint);
        }
    }

    // ---- faults -------------------------------------------------------------

    /// Schedules a fail-stop crash.
    pub fn crash_at(&mut self, at: VirtualTime, site: SiteId) {
        self.sim.crash_at(at, site);
    }

    /// Schedules a recovery (WAL replay).
    pub fn recover_at(&mut self, at: VirtualTime, site: SiteId) {
        self.sim.recover_at(at, site);
    }

    /// Installs a partition immediately.
    pub fn set_partition(&mut self, filter: LinkFilter) {
        self.sim.set_partition(filter);
    }

    /// Heals any partition.
    pub fn heal_partition(&mut self) {
        self.sim.heal_partition();
    }

    /// Severs only the `from → to` direction (asymmetric link failure).
    pub fn sever_link(&mut self, from: SiteId, to: SiteId) {
        self.sim.sever_link(from, to);
    }

    /// Restores a directed cut.
    pub fn heal_link(&mut self, from: SiteId, to: SiteId) {
        self.sim.heal_link(from, to);
    }

    /// Installs a flap schedule on the `from → to` link.
    pub fn flap_link(&mut self, from: SiteId, to: SiteId, schedule: avdb_simnet::FlapSchedule) {
        self.sim.flap_link(from, to, schedule);
    }

    /// Adds `extra` ticks of latency to the `from → to` link (0 clears).
    pub fn inflate_link(&mut self, from: SiteId, to: SiteId, extra: u64) {
        self.sim.inflate_link(from, to, extra);
    }

    /// Installs a state-triggered fault hook (nemesis engine) on the
    /// underlying simulator.
    pub fn set_net_hook(&mut self, hook: Box<dyn avdb_simnet::NetHook>) {
        self.sim.set_net_hook(hook);
    }

    // ---- inspection / invariants ---------------------------------------------

    /// Stock of `product` at `site`.
    pub fn stock(&self, site: SiteId, product: ProductId) -> Volume {
        self.accelerator(site).db().stock(product).expect("valid product")
    }

    /// Available (unheld) AV of `product` at `site`.
    pub fn av_available(&self, site: SiteId, product: ProductId) -> Volume {
        self.accelerator(site).av().available(product)
    }

    /// System-wide AV for `product`, counting in-flight holds.
    pub fn av_system_total(&self, product: ProductId) -> Volume {
        SiteId::all(self.cfg.n_sites)
            .map(|s| self.accelerator(s).av().total(product))
            .sum()
    }

    /// Checks that every replica of every product holds the same value.
    /// Call after [`Self::flush_all`] + quiescence.
    pub fn check_convergence(&self) -> Result<(), String> {
        for product in ProductId::all(self.cfg.n_products()) {
            let base = self.stock(SiteId::BASE, product);
            for site in SiteId::all(self.cfg.n_sites) {
                let here = self.stock(site, product);
                if here != base {
                    return Err(format!(
                        "{product} diverged: {site} has {here}, {} has {base}",
                        SiteId::BASE
                    ));
                }
            }
        }
        Ok(())
    }

    /// Checks the AV conservation invariant for one regular product:
    /// system-wide AV must equal system-wide initial AV plus all committed
    /// stock deltas at origins (increments mint AV, decrements consume it,
    /// transfers just move it).
    ///
    /// Call at quiescence *after convergence* (in-flight grants would be
    /// counted at neither site, and the committed delta is read off the
    /// base replica). Returns `(expected, actual)` on failure.
    pub fn check_av_conservation(&self, product: ProductId) -> Result<(), (Volume, Volume)> {
        let initial = self.cfg.initial_av_of(product);
        // Conservation:
        //   Σ_site av_total(product) == initial AV + Σ increments − Σ decrements
        // and the right-hand side's committed-delta term equals the
        // converged replica's stock movement.
        let replica_delta = self.stock(SiteId::BASE, product)
            - self.cfg.entry(product).expect("valid").initial_stock;
        let expected = initial + replica_delta;
        let actual = self.av_system_total(product);
        if expected == actual {
            Ok(())
        } else {
            Err((expected, actual))
        }
    }

    /// `true` when no site has in-flight protocol state.
    pub fn all_idle(&self) -> bool {
        SiteId::all(self.cfg.n_sites).all(|s| self.accelerator(s).is_idle())
    }

    // ---- telemetry ----------------------------------------------------------

    /// Prometheus text exposition for one site (the sim-transport analogue
    /// of the TCP mesh's `/metrics` endpoint).
    pub fn metrics_text(&self, site: SiteId) -> String {
        self.accelerator(site).metrics_text()
    }

    /// JSON-serialisable status snapshot for one site (the sim-transport
    /// analogue of the TCP mesh's `/status` endpoint).
    pub fn status(&self, site: SiteId) -> crate::StatusSnapshot {
        self.accelerator(site).status()
    }

    /// Assembles a flight-recorder dump spanning every site's ring buffer.
    /// Harnesses call this when an invariant fires to capture the recent
    /// protocol history cluster-wide.
    pub fn flight_dump(&self, reason: &str) -> avdb_telemetry::FlightDump {
        let mut dump = avdb_telemetry::FlightDump::new(reason, self.now().ticks());
        for site in SiteId::all(self.cfg.n_sites) {
            dump.push_site(site.0, self.accelerator(site).flight());
        }
        dump
    }

    /// Merged registry snapshot across every site's accelerator.
    pub fn merged_registry(&self) -> avdb_simnet::RegistrySnapshot {
        let mut merged = avdb_simnet::RegistrySnapshot::default();
        for site in SiteId::all(self.cfg.n_sites) {
            merged.merge(&self.accelerator(site).registry().snapshot());
        }
        merged
    }

    /// Assembles the run's full telemetry export: per-site spans and
    /// registries, the network message log (when tracing was enabled) and
    /// substrate counters, plus the harness-drained `outcomes`.
    pub fn export_telemetry(
        &self,
        outcomes: &[(VirtualTime, SiteId, UpdateOutcome)],
    ) -> RunExport {
        let mut export = RunExport {
            meta: Some(MetaLine {
                transport: "sim".to_string(),
                sites: self.cfg.n_sites as u64,
                seed: self.cfg.seed,
            }),
            ..Default::default()
        };
        for site in SiteId::all(self.cfg.n_sites) {
            let acc = self.accelerator(site);
            export.add_spans(acc.spans().records());
            export.add_registry(&format!("site{}", site.0), acc.registry().snapshot());
            if let Some(series) = acc.series_snapshot() {
                export.add_series(&format!("site{}", site.0), &series);
            }
        }
        export.add_messages(self.trace().events());
        export.add_registry("network", self.counters().registry().snapshot());
        for (at, site, outcome) in outcomes {
            export.outcomes.push(outcome_line(*at, *site, outcome));
        }
        attach_profile(&mut export);
        export
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avdb_types::request::AbortReason;
    use avdb_types::{AvAllocation, SelectStrategyKind, UpdateKind};

    fn paper_like_config() -> SystemConfig {
        SystemConfig::builder()
            .sites(3)
            .regular_products(1, Volume(90))
            .non_regular_products(1, Volume(30))
            .seed(7)
            .build()
            .unwrap()
    }

    fn system() -> DistributedSystem {
        DistributedSystem::new(paper_like_config())
    }

    const REG: ProductId = ProductId(0);
    const NONREG: ProductId = ProductId(1);

    fn committed(outcomes: &[(VirtualTime, SiteId, UpdateOutcome)]) -> usize {
        outcomes.iter().filter(|(_, _, o)| o.is_committed()).count()
    }

    #[test]
    fn delay_update_with_sufficient_av_is_free() {
        let mut sys = system();
        // Site 1 has 30 AV (uniform split of 90); decrement 20 is covered.
        sys.submit_at(VirtualTime(0), UpdateRequest::new(SiteId(1), REG, Volume(-20)));
        sys.run_until_quiescent();
        let outcomes = sys.drain_outcomes();
        assert_eq!(outcomes.len(), 1);
        let (t, site, outcome) = &outcomes[0];
        assert_eq!(*site, SiteId(1));
        assert_eq!(*t, VirtualTime(0), "completes instantly — the real-time property");
        match outcome {
            UpdateOutcome::Committed { kind, correspondences, .. } => {
                assert_eq!(*kind, UpdateKind::Delay);
                assert_eq!(*correspondences, 0);
            }
            other => panic!("expected commit, got {other:?}"),
        }
        assert_eq!(sys.stock(SiteId(1), REG), Volume(70));
        assert_eq!(sys.av_available(SiteId(1), REG), Volume(10));
        // Propagation (batch=1) reached the peers.
        assert_eq!(sys.stock(SiteId(0), REG), Volume(70));
        assert_eq!(sys.stock(SiteId(2), REG), Volume(70));
        // The only traffic was propagation (2 pairs: to site0 and site2).
        assert_eq!(sys.counters().by_kind("av-request"), 0);
        assert_eq!(sys.counters().by_kind("propagate"), 2);
        assert_eq!(sys.counters().by_kind("propagate-ack"), 2);
    }

    #[test]
    fn delay_update_increments_mint_av() {
        let mut sys = system();
        sys.submit_at(VirtualTime(0), UpdateRequest::new(SiteId(0), REG, Volume(15)));
        sys.run_until_quiescent();
        assert_eq!(committed(&sys.drain_outcomes()), 1);
        assert_eq!(sys.stock(SiteId(0), REG), Volume(105));
        assert_eq!(sys.av_available(SiteId(0), REG), Volume(45), "30 + 15 minted");
        assert_eq!(sys.av_system_total(REG), Volume(105));
        sys.flush_all();
        sys.run_until_quiescent();
        sys.check_convergence().unwrap();
        sys.check_av_conservation(REG).unwrap();
    }

    #[test]
    fn delay_update_fetches_av_on_shortage() {
        let mut sys = system();
        // Site 1 holds 30; needs 50 → shortage 20 → asks a peer (both
        // believed at 30; tie → site 0), grant-half gives 15, still short
        // 5 → asks site 2, gets ceil(30/2)=15, now covered.
        sys.submit_at(VirtualTime(0), UpdateRequest::new(SiteId(1), REG, Volume(-50)));
        sys.run_until_quiescent();
        let outcomes = sys.drain_outcomes();
        assert_eq!(outcomes.len(), 1);
        match &outcomes[0].2 {
            UpdateOutcome::Committed { kind, correspondences, .. } => {
                assert_eq!(*kind, UpdateKind::Delay);
                assert_eq!(*correspondences, 2, "two AV request/grant pairs");
            }
            other => panic!("expected commit, got {other:?}"),
        }
        assert_eq!(sys.stock(SiteId(1), REG), Volume(40));
        // AV: site1 had 30, received 15+15, consumed 50 → 10 remain.
        assert_eq!(sys.av_available(SiteId(1), REG), Volume(10));
        assert_eq!(sys.av_available(SiteId(0), REG), Volume(15));
        assert_eq!(sys.av_available(SiteId(2), REG), Volume(15));
        assert_eq!(sys.av_system_total(REG), Volume(40), "90 − 50 consumed");
        sys.flush_all();
        sys.run_until_quiescent();
        sys.check_convergence().unwrap();
        sys.check_av_conservation(REG).unwrap();
        // Ledger recorded both grants.
        let granted: i64 = SiteId::all(3)
            .map(|s| sys.accelerator(s).stats().av_volume_granted)
            .sum();
        assert_eq!(granted, 30);
    }

    #[test]
    fn delay_update_aborts_when_system_av_exhausted() {
        let mut sys = system();
        // 90 total AV; ask for 200.
        sys.submit_at(VirtualTime(0), UpdateRequest::new(SiteId(2), REG, Volume(-200)));
        sys.run_until_quiescent();
        let outcomes = sys.drain_outcomes();
        assert_eq!(outcomes.len(), 1);
        match &outcomes[0].2 {
            UpdateOutcome::Aborted { reason, correspondences, .. } => {
                assert!(matches!(reason, AbortReason::InsufficientAv { .. }));
                assert_eq!(*correspondences, 2, "asked both peers before giving up");
            }
            other => panic!("expected abort, got {other:?}"),
        }
        // Stock untouched everywhere; accumulated AV stays at site 2.
        assert_eq!(sys.stock(SiteId(2), REG), Volume(90));
        assert_eq!(sys.av_system_total(REG), Volume(90), "nothing consumed");
        assert!(
            sys.av_available(SiteId(2), REG) > Volume(30),
            "gathered AV retained locally: {}",
            sys.av_available(SiteId(2), REG)
        );
        sys.check_av_conservation(REG).unwrap();
    }

    #[test]
    fn immediate_update_commits_at_all_sites() {
        let mut sys = system();
        sys.submit_at(VirtualTime(0), UpdateRequest::new(SiteId(1), NONREG, Volume(-10)));
        sys.run_until_quiescent();
        let outcomes = sys.drain_outcomes();
        assert_eq!(outcomes.len(), 1);
        match &outcomes[0].2 {
            UpdateOutcome::Committed { kind, correspondences, completed_at, .. } => {
                assert_eq!(*kind, UpdateKind::Immediate);
                assert_eq!(*correspondences, 4, "2 prepare pairs + 2 decision pairs");
                assert!(
                    *completed_at >= VirtualTime(4),
                    "completion waits for the base site's done: {completed_at:?}"
                );
            }
            other => panic!("expected commit, got {other:?}"),
        }
        for site in SiteId::all(3) {
            assert_eq!(sys.stock(site, NONREG), Volume(20), "visible everywhere at once");
        }
        assert!(sys.all_idle());
        // Pairing check: messages = 2 × correspondences.
        assert_eq!(sys.counters().total_messages(), 8);
    }

    #[test]
    fn immediate_update_rejects_negative_stock() {
        let mut sys = system();
        sys.submit_at(VirtualTime(0), UpdateRequest::new(SiteId(2), NONREG, Volume(-31)));
        sys.run_until_quiescent();
        let outcomes = sys.drain_outcomes();
        match &outcomes[0].2 {
            UpdateOutcome::Aborted { reason, correspondences, .. } => {
                assert_eq!(*reason, AbortReason::NegativeStock);
                assert_eq!(*correspondences, 0, "local validation aborts before any message");
            }
            other => panic!("expected abort, got {other:?}"),
        }
        assert_eq!(sys.counters().total_messages(), 0);
        for site in SiteId::all(3) {
            assert_eq!(sys.stock(site, NONREG), Volume(30));
        }
    }

    #[test]
    fn concurrent_immediate_updates_conflict_via_locks() {
        let mut sys = system();
        // Two coordinators race on the same record.
        sys.submit_at(VirtualTime(0), UpdateRequest::new(SiteId(1), NONREG, Volume(-5)));
        sys.submit_at(VirtualTime(0), UpdateRequest::new(SiteId(2), NONREG, Volume(-5)));
        sys.run_until_quiescent();
        let outcomes = sys.drain_outcomes();
        assert_eq!(outcomes.len(), 2);
        let commits = committed(&outcomes);
        assert!(commits <= 1, "no-wait locking can commit at most one of the racers");
        // Whatever happened, replicas agree and no locks are stuck.
        let expected = Volume(30 - 5 * commits as i64);
        for site in SiteId::all(3) {
            assert_eq!(sys.stock(site, NONREG), expected);
        }
        assert!(sys.all_idle());
    }

    #[test]
    fn immediate_update_times_out_on_crashed_participant() {
        let mut sys = system();
        sys.crash_at(VirtualTime(0), SiteId(2));
        sys.submit_at(VirtualTime(1), UpdateRequest::new(SiteId(1), NONREG, Volume(-5)));
        sys.run_until_quiescent();
        let outcomes = sys.drain_outcomes();
        assert_eq!(outcomes.len(), 1);
        match &outcomes[0].2 {
            UpdateOutcome::Aborted { reason, .. } => {
                assert_eq!(*reason, AbortReason::SiteUnavailable { site: SiteId(2) });
            }
            other => panic!("expected abort, got {other:?}"),
        }
        // The live participant (site 0) rolled back; stock intact.
        assert_eq!(sys.stock(SiteId(0), NONREG), Volume(30));
        assert_eq!(sys.stock(SiteId(1), NONREG), Volume(30));
        assert!(sys.accelerator(SiteId(0)).is_idle());
        assert!(sys.accelerator(SiteId(1)).is_idle());
    }

    #[test]
    fn delay_updates_survive_peer_crash() {
        let mut sys = system();
        sys.crash_at(VirtualTime(0), SiteId(0));
        // Retailer keeps selling from its own AV with the maker down —
        // the fault-tolerance claim for Delay traffic.
        sys.submit_at(VirtualTime(1), UpdateRequest::new(SiteId(1), REG, Volume(-20)));
        sys.run_until_quiescent();
        let outcomes = sys.drain_outcomes();
        assert_eq!(committed(&outcomes), 1);
        assert_eq!(sys.stock(SiteId(1), REG), Volume(70));
        // After recovery + anti-entropy, the maker catches up.
        let now = sys.now();
        sys.recover_at(now.after(1), SiteId(0));
        sys.run_until_quiescent();
        sys.flush_all();
        sys.run_until_quiescent();
        sys.check_convergence().unwrap();
        assert_eq!(sys.accelerator(SiteId(0)).stats().recoveries, 1);
    }

    #[test]
    fn replicas_converge_under_mixed_load() {
        let mut sys = system();
        let updates = [
            (0u64, 0u32, 12i64),
            (3, 1, -9),
            (5, 2, -7),
            (9, 0, 20),
            (11, 1, -25),
            (15, 2, -40),
            (21, 0, 5),
        ];
        for (t, site, delta) in updates {
            sys.submit_at(VirtualTime(t), UpdateRequest::new(SiteId(site), REG, Volume(delta)));
        }
        sys.run_until_quiescent();
        sys.flush_all();
        sys.run_until_quiescent();
        sys.check_convergence().unwrap();
        sys.check_av_conservation(REG).unwrap();
        let outcomes = sys.drain_outcomes();
        assert_eq!(outcomes.len(), 7);
        assert_eq!(committed(&outcomes), 7, "90 initial AV + mints cover all decrements");
        // Committed deltas sum: +12−9−7+20−25−40+5 = −44 → stock 46.
        assert_eq!(sys.stock(SiteId(0), REG), Volume(46));
    }

    #[test]
    fn deterministic_runs_with_same_seed() {
        let run = |seed: u64| {
            let cfg = SystemConfig::builder()
                .sites(3)
                .regular_products(2, Volume(100))
                .seed(seed)
                .select(SelectStrategyKind::Random)
                .build()
                .unwrap();
            let mut sys = DistributedSystem::new(cfg);
            for i in 0..50u64 {
                let site = SiteId((i % 3) as u32);
                let delta = if site == SiteId::BASE { Volume(7) } else { Volume(-11) };
                sys.submit_at(VirtualTime(i * 3), UpdateRequest::new(site, REG, delta));
            }
            sys.run_until_quiescent();
            (
                sys.counters().snapshot(),
                sys.stock(SiteId(0), REG),
                sys.drain_outcomes().len(),
            )
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn reclassification_switches_protocol() {
        let mut sys = system();
        // REG is Delay at first; reclassify to non-regular → Immediate.
        sys.reclassify_all(REG, ProductClass::NonRegular, Volume::ZERO);
        sys.run_until_quiescent();
        sys.submit_now(UpdateRequest::new(SiteId(1), REG, Volume(-5)));
        sys.run_until_quiescent();
        let outcomes = sys.drain_outcomes();
        match &outcomes[0].2 {
            UpdateOutcome::Committed { kind, .. } => assert_eq!(*kind, UpdateKind::Immediate),
            other => panic!("expected commit, got {other:?}"),
        }
        // And back to regular with a fresh AV pool.
        sys.reclassify_all(REG, ProductClass::Regular, Volume(60));
        sys.run_until_quiescent();
        sys.submit_now(UpdateRequest::new(SiteId(2), REG, Volume(-5)));
        sys.run_until_quiescent();
        let outcomes = sys.drain_outcomes();
        match &outcomes[0].2 {
            UpdateOutcome::Committed { kind, correspondences, .. } => {
                assert_eq!(*kind, UpdateKind::Delay);
                assert_eq!(*correspondences, 0);
            }
            other => panic!("expected commit, got {other:?}"),
        }
    }

    #[test]
    fn all_at_base_allocation_forces_first_fetch() {
        let cfg = SystemConfig::builder()
            .sites(3)
            .regular_products(1, Volume(100))
            .av_allocation(AvAllocation::AllAtBase)
            .build()
            .unwrap();
        let mut sys = DistributedSystem::new(cfg);
        assert_eq!(sys.av_available(SiteId(1), REG), Volume::ZERO);
        sys.submit_at(VirtualTime(0), UpdateRequest::new(SiteId(1), REG, Volume(-10)));
        sys.run_until_quiescent();
        let outcomes = sys.drain_outcomes();
        match &outcomes[0].2 {
            UpdateOutcome::Committed { correspondences, .. } => {
                assert_eq!(*correspondences, 1, "one fetch from the base");
            }
            other => panic!("expected commit, got {other:?}"),
        }
        // Grant-half moved 50 to site 1; 10 consumed.
        assert_eq!(sys.av_available(SiteId(1), REG), Volume(40));
        assert_eq!(sys.av_available(SiteId(0), REG), Volume(50));
    }

    #[test]
    fn proactive_push_pre_positions_av() {
        let mut cfg = paper_like_config();
        cfg.proactive_push = true;
        let mut sys = DistributedSystem::new(cfg);
        // Drain retailer AV so the peers' believed mean is low, then have
        // the maker mint a large batch: the surplus must be pushed to the
        // believed-poorest peer without any request.
        sys.submit_at(VirtualTime(0), UpdateRequest::new(SiteId(1), REG, Volume(-30)));
        sys.submit_at(VirtualTime(5), UpdateRequest::new(SiteId(2), REG, Volume(-30)));
        sys.run_until_quiescent();
        sys.submit_now(UpdateRequest::new(SiteId(0), REG, Volume(200)));
        sys.run_until_quiescent();
        assert!(sys.counters().by_kind("av-push") >= 1, "surplus must be pushed");
        assert_eq!(
            sys.counters().by_kind("av-push"),
            sys.counters().by_kind("av-push-ack"),
            "pushes stay request/reply-paired"
        );
        // The pushed volume landed at a retailer, not vanished.
        sys.flush_all();
        sys.run_until_quiescent();
        sys.check_convergence().unwrap();
        sys.check_av_conservation(REG).unwrap();
        let retailer_av = sys.av_available(SiteId(1), REG) + sys.av_available(SiteId(2), REG);
        assert!(retailer_av > Volume::ZERO);
        let outcomes = sys.drain_outcomes();
        assert_eq!(outcomes.iter().filter(|(_, _, o)| o.is_committed()).count(), 3);
    }

    #[test]
    fn checkpointing_mid_run_preserves_recovery() {
        let mut sys = system();
        sys.submit_at(VirtualTime(0), UpdateRequest::new(SiteId(1), REG, Volume(-10)));
        sys.run_until_quiescent();
        sys.checkpoint_all();
        sys.run_until_quiescent();
        sys.submit_now(UpdateRequest::new(SiteId(1), REG, Volume(-5)));
        sys.run_until_quiescent();
        let t = sys.now();
        sys.crash_at(t.after(1), SiteId(1));
        sys.recover_at(t.after(2), SiteId(1));
        sys.run_until_quiescent();
        assert_eq!(sys.stock(SiteId(1), REG), Volume(75), "checkpoint + suffix replayed");
        sys.drain_outcomes();
    }
}
