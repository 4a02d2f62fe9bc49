//! The observation bundle: everything a finished run hands to the checker.

use avdb_core::{Accelerator, DistributedSystem};
use avdb_escrow::TransferRecord;
use avdb_simnet::{CountersSnapshot, RegistrySnapshot};
use avdb_telemetry::{FlightDump, FlightEvent, MessageEvent, SpanRecord};
use avdb_types::{
    ProductId, SiteId, SystemConfig, UpdateOutcome, UpdateRequest, VirtualTime, Volume,
};

/// One injected update, as the harness knows it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SubmittedRequest {
    /// Injection time (virtual for the simulator; a monotone label is
    /// enough for the live transports — only per-site order matters).
    pub at: VirtualTime,
    /// Origin site.
    pub site: SiteId,
    /// `(product, delta)` items; single-item updates are a vector of one.
    pub items: Vec<(ProductId, Volume)>,
}

impl SubmittedRequest {
    /// Records a single-item update.
    pub fn single(at: VirtualTime, req: &UpdateRequest) -> Self {
        SubmittedRequest { at, site: req.site, items: vec![(req.product, req.delta)] }
    }

    /// Records an atomic multi-item update.
    pub fn multi(at: VirtualTime, site: SiteId, items: Vec<(ProductId, Volume)>) -> Self {
        SubmittedRequest { at, site, items }
    }
}

/// One site's final state.
#[derive(Clone, Debug)]
pub struct SiteObservation {
    /// The site.
    pub site: SiteId,
    /// Final stock per product, densely indexed.
    pub stocks: Vec<Volume>,
    /// Final AV total per product (`None` = undefined row).
    pub av_total: Vec<Option<Volume>>,
    /// Final unheld AV per product.
    pub av_available: Vec<Volume>,
    /// The site's outbound transfer ledger (in-memory; a crash resets it).
    pub ledger: Vec<TransferRecord>,
    /// Crash recoveries this site performed.
    pub recoveries: u64,
    /// In-flight updates wiped by this site's crashes.
    pub wiped_in_flight: u64,
    /// Whether the site ended with no in-flight protocol state.
    pub idle: bool,
    /// The site's telemetry spans (the full causal record; survives
    /// simulated crashes by design).
    pub spans: Vec<SpanRecord>,
    /// The site's telemetry registry at the end of the run.
    pub registry: RegistrySnapshot,
    /// The site's flight-recorder ring at the end of the run (recent
    /// protocol events, oldest first).
    pub flight: Vec<FlightEvent>,
}

impl SiteObservation {
    /// Captures one accelerator's final state.
    pub fn capture(cfg: &SystemConfig, acc: &Accelerator) -> Self {
        let n = cfg.n_products();
        let products = ProductId::all(n);
        SiteObservation {
            site: acc.site(),
            stocks: products
                .clone()
                .map(|p| acc.db().stock(p).expect("catalog product"))
                .collect(),
            av_total: acc.av().snapshot().rows.clone(),
            av_available: products.map(|p| acc.av().available(p)).collect(),
            ledger: acc.ledger().records().to_vec(),
            recoveries: acc.stats().recoveries,
            wiped_in_flight: acc.stats().wiped_in_flight,
            idle: acc.is_idle(),
            spans: acc.spans().records().to_vec(),
            registry: acc.registry().snapshot(),
            flight: acc.flight().snapshot(),
        }
    }
}

/// A complete, transport-independent record of one finished run.
///
/// Build with [`Observation::from_system`] (deterministic simulator) or
/// [`Observation::from_accelerators`] (live / TCP transports, whose actors
/// are recovered at shutdown), then hand to [`crate::check`].
#[derive(Clone, Debug)]
pub struct Observation {
    /// The configuration the run was built from.
    pub cfg: SystemConfig,
    /// Every injected update, in injection order.
    pub submitted: Vec<SubmittedRequest>,
    /// Every drained outcome.
    pub outcomes: Vec<(VirtualTime, SiteId, UpdateOutcome)>,
    /// Final per-site state.
    pub sites: Vec<SiteObservation>,
    /// Network counters at the end of the run.
    pub network: CountersSnapshot,
    /// The message-sequence trace (empty unless recording was enabled;
    /// the live transports never record one).
    pub trace: Vec<MessageEvent>,
    /// `(time, site)` of inputs lost to crashed sites — `Some` on the
    /// simulator (even when empty), `None` on transports that cannot
    /// know.
    pub lost_inputs: Option<Vec<(VirtualTime, SiteId)>>,
    /// Set by harnesses that reclassified products mid-run: AV pools were
    /// redefined, so AV conservation/accounting no longer reach back to
    /// the initial allocation and those checks are skipped.
    pub reclassified: bool,
}

impl Observation {
    /// Captures a finished [`DistributedSystem`] run. Call at quiescence,
    /// after the harness has settled propagation and drained `outcomes`.
    pub fn from_system(
        sys: &DistributedSystem,
        submitted: Vec<SubmittedRequest>,
        outcomes: Vec<(VirtualTime, SiteId, UpdateOutcome)>,
    ) -> Self {
        let cfg = sys.config().clone();
        let sites = SiteId::all(cfg.n_sites)
            .map(|s| SiteObservation::capture(&cfg, sys.accelerator(s)))
            .collect();
        Observation {
            submitted,
            outcomes,
            sites,
            network: sys.counters().snapshot(),
            trace: sys.trace().events().to_vec(),
            lost_inputs: Some(sys.lost_input_log().to_vec()),
            reclassified: false,
            cfg,
        }
    }

    /// Captures a finished run on a live transport from the actors it
    /// returned at shutdown. Actor order must match site ids.
    pub fn from_accelerators(
        cfg: SystemConfig,
        actors: &[Accelerator],
        submitted: Vec<SubmittedRequest>,
        outcomes: Vec<(VirtualTime, SiteId, UpdateOutcome)>,
        network: CountersSnapshot,
    ) -> Self {
        let sites = actors.iter().map(|a| SiteObservation::capture(&cfg, a)).collect();
        Observation {
            cfg,
            submitted,
            outcomes,
            sites,
            network,
            trace: Vec::new(),
            lost_inputs: None,
            reclassified: false,
        }
    }

    /// Marks the run as having reclassified products mid-stream (skips
    /// the AV checks that assume a fixed initial allocation).
    pub fn with_reclassification(mut self) -> Self {
        self.reclassified = true;
        self
    }

    /// Assembles a cluster-wide flight-recorder dump from the captured
    /// per-site rings. Harnesses write this to disk when [`crate::check`]
    /// reports a violation, so the recent protocol history that led to the
    /// failure survives alongside the minimal repro.
    pub fn flight_dump(&self, reason: &str) -> FlightDump {
        let at = self.outcomes.iter().map(|(t, _, _)| t.ticks()).max().unwrap_or(0);
        let mut dump = FlightDump::new(reason, at);
        for site in &self.sites {
            dump.sites.push(avdb_telemetry::SiteFlight {
                site: site.site.0,
                events: site.flight.clone(),
            });
        }
        dump
    }
}
