//! The accelerator: one per site, owning the local DB and AV table and
//! implementing the checking / selecting / deciding functions plus the
//! Delay and Immediate Update protocols (paper §3.3–3.4).

use crate::flight_notes as notes;
use crate::knowledge::KnowledgeExchange;
use crate::protocol::{
    Input, Msg, PropagateDelta, TracedMsg, MSG_KIND_COUNT, RECV_COUNTER_KEYS, SENT_COUNTER_KEYS,
};
use crate::replication::Frame;
use crate::replication_drive::ReplicationDrive;
use avdb_escrow::{
    make_decide, make_select, partition_shortage_expected, AvTable, DecideStrategy, PeerKnowledge,
    PeerSet, SelectStrategy, TransferLedger, TransferRecord,
};
use avdb_simnet::{Actor, Ctx};
use avdb_storage::{LocalDb, LockMode};
use avdb_telemetry::{
    aux_trace_id, build_profile, evaluate_slo, FlightDump, FlightRecorder, MetricId, PhaseProfile,
    Registry, RenderDetail, SeriesRecorder, SeriesSnapshot, SloReport, SloSpec, SpanCollector,
    SpanView, TraceContext, TraceSampler, LANE_DELAY, LANE_IMM,
};
use avdb_types::{
    request::AbortReason, AvdbError, FastMap, ProductId, SiteId, SystemConfig, TxnId, UpdateKind,
    UpdateOutcome, UpdateRequest, VirtualTime, Volume,
};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::PathBuf;

/// Handler context shorthand: the accelerator's wire type is the traced
/// envelope so causal context rides every protocol message.
type ACtx<'a> = Ctx<'a, TracedMsg, UpdateOutcome>;

/// Static knobs of one accelerator, derived from [`SystemConfig`].
#[derive(Clone, Debug)]
pub struct AcceleratorConfig {
    /// Number of sites in the system.
    pub n_sites: usize,
    /// AV request rounds before a Delay Update gives up.
    pub max_av_rounds: usize,
    /// Commit count after which the propagation buffer flushes.
    pub propagation_batch: usize,
    /// Ticks an Immediate Update coordinator waits for votes before
    /// presuming a participant dead and aborting.
    pub imm_vote_timeout: u64,
    /// Ticks a prepared participant waits for the decision before
    /// unilaterally aborting (presumed abort — the paper does not specify
    /// blocking behaviour; see DESIGN.md).
    pub participant_timeout: u64,
    /// Ticks a Delay Update waits for an AV grant before treating the
    /// asked peer as dead (zero grant) and moving to the next one.
    pub av_grant_timeout: u64,
    /// Ticks between periodic anti-entropy retransmissions (`None`
    /// disables the timer).
    pub anti_entropy_interval: Option<u64>,
    /// Proactive AV circulation after increments (§3.4 extension).
    pub proactive_push: bool,
    /// Peers asked concurrently per shortage round (0 or 1 — the paper's
    /// serial loop; k ≥ 2 — parallel fan-out, see DESIGN.md §11).
    pub shortage_fanout: usize,
    /// Proactive rebalancing horizon in ticks (0 disables; also the
    /// rebalancer's tick period).
    pub rebalance_horizon_ticks: u64,
    /// Width of the windowed time-series plane's windows in sim ticks
    /// (0 disables the series recorder and its watchdog).
    pub series_window_ticks: u64,
}

impl AcceleratorConfig {
    /// Derives the per-site config from a system config.
    pub fn from_system(cfg: &SystemConfig) -> Self {
        AcceleratorConfig {
            n_sites: cfg.n_sites,
            max_av_rounds: cfg.max_av_rounds,
            propagation_batch: cfg.propagation_batch,
            imm_vote_timeout: 256,
            participant_timeout: 1024,
            av_grant_timeout: 64,
            anti_entropy_interval: (cfg.anti_entropy_interval > 0)
                .then_some(cfg.anti_entropy_interval),
            proactive_push: cfg.proactive_push,
            shortage_fanout: cfg.shortage_fanout,
            rebalance_horizon_ticks: cfg.rebalance_horizon_ticks,
            series_window_ticks: cfg.series_window_ticks,
        }
    }
}

/// Lifetime counters for one accelerator (inspection and reporting; the
/// authoritative experiment metrics come from emitted outcomes and the
/// network counters).
#[derive(Clone, Debug, Default, Serialize)]
pub struct AcceleratorStats {
    /// Delay Updates committed entirely locally (zero communication).
    pub delay_local_commits: u64,
    /// Delay Updates committed after AV transfers.
    pub delay_remote_commits: u64,
    /// Delay Updates aborted for insufficient AV.
    pub delay_aborts: u64,
    /// Immediate Updates committed (as coordinator).
    pub imm_commits: u64,
    /// Immediate Updates aborted (as coordinator).
    pub imm_aborts: u64,
    /// AV requests sent.
    pub av_requests_sent: u64,
    /// AV grants answered (including zero-volume denials).
    pub av_grants_answered: u64,
    /// Total AV volume received via transfers.
    pub av_volume_received: i64,
    /// Total AV volume granted away.
    pub av_volume_granted: i64,
    /// Propagation batches flushed to peers.
    pub propagation_batches_sent: u64,
    /// Remote committed deltas applied here.
    pub propagation_deltas_applied: u64,
    /// Proactive AV pushes sent.
    pub av_pushes_sent: u64,
    /// AV volume pushed away proactively.
    pub av_volume_pushed: i64,
    /// Crash recoveries performed.
    pub recoveries: u64,
    /// Updates that were in flight at this origin when it crashed: their
    /// volatile negotiation state died with the site, so they resolve to
    /// no outcome (the paper's fail-stop model; callers account for them
    /// alongside lost inputs).
    pub wiped_in_flight: u64,
}

/// One product row of a [`StatusSnapshot`].
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct StatusAvRow {
    /// Product id.
    pub product: u32,
    /// Local committed stock.
    pub stock: i64,
    /// Whether an AV row is defined here (regular product).
    pub av_defined: bool,
    /// Total AV held at this site (available + in-flight holds).
    pub av_total: i64,
    /// Unheld AV immediately available to new transactions.
    pub av_available: i64,
    /// Replica divergence: sum of committed deltas not yet acknowledged
    /// by every peer (local value minus the last fully-replicated value).
    pub divergence: i64,
}

/// One peer row of a [`StatusSnapshot`]: knowledge freshness.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct StatusPeerRow {
    /// Peer site id.
    pub peer: u32,
    /// Freshest tick at which any of the peer's AV figures was observed
    /// (`None` — never).
    pub refreshed_at: Option<u64>,
}

/// Point-in-time introspection snapshot served as JSON by the `/status`
/// endpoint and rendered by `avdb top`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct StatusSnapshot {
    /// Site id.
    pub site: u32,
    /// `"base"` (site 0, owns non-regular products) or `"retailer"`.
    pub role: String,
    /// Lamport clock.
    pub clock: u64,
    /// Updates committed at this site.
    pub committed: u64,
    /// Updates aborted at this site.
    pub aborted: u64,
    /// In-flight Delay negotiations (waiting on AV transfers).
    pub in_flight_delay: usize,
    /// In-flight Immediate rounds this site coordinates.
    pub in_flight_imm: usize,
    /// Remote Immediate transactions prepared here (participant role).
    pub prepared_remote: usize,
    /// Replication queue depth: retained unacknowledged deltas.
    pub repl_queue_depth: usize,
    /// Events the flight recorder has seen so far.
    pub flight_recorded: u64,
    /// Per-product stock / AV / divergence rows.
    pub av: Vec<StatusAvRow>,
    /// Per-peer AV-knowledge freshness.
    pub knowledge: Vec<StatusPeerRow>,
    /// Per-lane SLO evaluation of this site's registry.
    pub slo: SloReport,
    /// Critical-path phase profile over this site's retained committed
    /// traces (sampled plus promoted).
    pub profile: PhaseProfile,
    /// Windowed time-series ring (`None` when the series plane is off).
    /// Defaulted on deserialize so pre-series status payloads still parse.
    #[serde(default)]
    pub series: Option<SeriesSnapshot>,
}

/// One product's share of a (possibly multi-item) Delay transaction.
#[derive(Debug, Clone, Copy)]
struct DelayItem {
    product: ProductId,
    delta: Volume,
    /// AV that must be held before commit (|delta| for decrements, zero
    /// for increments, which mint AV instead of consuming it).
    need: Volume,
}

/// In-flight Delay Update waiting on AV transfers. Items are satisfied
/// sequentially; holds accumulate across items and all release together
/// on abort (the non-exclusive-hold semantics make partial holds safe to
/// keep while negotiating the next item).
#[derive(Debug)]
struct PendingDelay {
    items: Vec<DelayItem>,
    /// Index of the item currently being negotiated.
    current: usize,
    /// Peers already asked for the *current* item.
    asked: PeerSet,
    /// AV requests currently in flight: `(peer, product)` per request.
    /// The serial path keeps at most one entry; the fan-out path keeps
    /// one per burst member, and stragglers for an already-satisfied
    /// product simply bank their grant at this site.
    outstanding: Vec<(SiteId, ProductId)>,
    /// Correspondences spent so far (1 per AV request).
    correspondences: u64,
    /// Telemetry: the update's root span.
    root_span: u64,
    /// Telemetry: open "transfer" spans keyed like [`Self::outstanding`],
    /// each with its open time.
    transfer_spans: Vec<(SiteId, ProductId, u64, VirtualTime)>,
    /// When the update was submitted (latency accounting).
    started_at: VirtualTime,
    /// Whether the update ever entered the shortage path (asked a peer
    /// for AV). Feeds the Delay lane's SLO shortage rate and retroactive
    /// trace promotion.
    had_shortage: bool,
}

impl PendingDelay {
    fn current_item(&self) -> DelayItem {
        self.items[self.current]
    }
}

/// In-flight Immediate Update this site coordinates.
#[derive(Debug)]
struct PendingImm {
    votes: BTreeMap<SiteId, bool>,
    decided: Option<bool>,
    correspondences: u64,
    /// Product / delta of the update, kept so the decision message can
    /// repeat them (retransmitted decisions must be self-contained).
    product: ProductId,
    delta: Volume,
    /// Telemetry: the update's root span.
    root_span: u64,
    /// Telemetry: the open "prepare" span (vote collection).
    prepare_span: u64,
    /// Telemetry: the open "decide" span (decision distribution), once a
    /// decision is taken.
    decide_span: Option<u64>,
    /// When the update was submitted (latency accounting).
    started_at: VirtualTime,
}

/// Reusable buffers of [`Accelerator::request_more_av`].
#[derive(Debug, Default)]
struct NegotiationScratch {
    picks: Vec<SiteId>,
    expected: Vec<Volume>,
    shares: Vec<Volume>,
}

/// Why a timer was armed.
#[derive(Debug, Clone, Copy)]
enum TimerKind {
    /// Coordinator: give up waiting for Immediate votes.
    ImmVotes(TxnId),
    /// Participant: give up waiting for the Immediate decision.
    ImmDecision(TxnId),
    /// Requester: give up waiting for an AV grant from a peer (the
    /// product pins the timer to one fan-out burst member — the same peer
    /// may be asked again for a later item of the same transaction).
    AvGrant(TxnId, SiteId, ProductId),
    /// Periodic anti-entropy retransmission round.
    AntiEntropy,
    /// Proactive AV rebalancing tick (see DESIGN.md §11).
    Rebalance,
    /// Coordinator: give up waiting for the base site's completion ack
    /// (base crashed between vote and done; the commit already happened).
    ImmCompletion(TxnId),
    /// Coordinator: resend a commit decision to participants whose Done
    /// has not arrived yet.
    ImmRetransmit(TxnId),
    /// Window boundary of the time-series plane: roll the registry into
    /// the ring. Re-arms only when the window recorded something, mirroring
    /// the anti-entropy quiescence discipline.
    SeriesWindow,
}

/// A commit decision the coordinator keeps retransmitting until every
/// participant has acknowledged it. Without this, one lost commit
/// decision strands a presumed-abort participant on a divergent replica
/// — the classic 2PC hole — and the replication layer cannot repair it
/// because Immediate deltas never enter the propagation log.
#[derive(Debug)]
struct RetransmitImm {
    product: ProductId,
    delta: Volume,
    /// Participants whose Done has not arrived yet.
    missing: BTreeSet<SiteId>,
    /// Retransmission rounds left before giving up, so a peer that is
    /// gone for good cannot keep the run from quiescing.
    attempts_left: u32,
    /// Telemetry: spans retransmissions are attributed to.
    decide_span: u64,
    root_span: u64,
}

/// Retransmission rounds a coordinator attempts before presuming the
/// silent participant permanently dead.
const IMM_RETRANSMIT_ATTEMPTS: u32 = 8;

/// Outcomes the latency histogram must hold before an unsampled update
/// can be promoted as a p99 outlier (a cold histogram makes everything
/// look like an outlier).
const LATENCY_OUTLIER_MIN_COUNT: u64 = 100;

/// Salt xor'd into the seed of the anomaly-rescue sampler (rate
/// [`avdb_types::SystemConfig::anomaly_keep_rate`]) so its keep/drop
/// stream is independent of the head sampler's. The rescue decision is
/// a pure function of the trace id shared by every site: the 2PC
/// coordinator, its participants, and AV granters all keep or all drop
/// the same anomalous tree, so promotion can never manufacture a
/// retained child whose cross-site parent was dropped. (A per-site
/// promotion *budget* cannot give that guarantee — budget exhaustion
/// depends on local arrival order, and sites disagree.)
const ANOMALY_SEED_SALT: u64 = 0xA40_3A11E5;

/// One site's accelerator (see crate docs for the protocol overview).
pub struct Accelerator {
    me: SiteId,
    cfg: AcceleratorConfig,
    db: LocalDb,
    av: AvTable,
    knowledge: KnowledgeExchange,
    select: Box<dyn SelectStrategy>,
    decide: Box<dyn DecideStrategy>,
    ledger: TransferLedger,
    stats: AcceleratorStats,

    /// Monotone local sequence for txn ids (durable — ids never reuse).
    next_seq: u64,
    /// Gateway correlation tag of the client update currently entering
    /// `on_input`, consumed by the next `fresh_txn`.
    pending_client_tag: Option<u64>,
    /// Gateway correlation tags by transaction, stamped into the outcome
    /// at emit time. Volatile: a crash drops the tags, and the re-reported
    /// outcomes surface untagged (the gateway treats that as a timeout).
    client_tags: FastMap<TxnId, u64>,
    pending_delay: FastMap<TxnId, PendingDelay>,
    pending_imm: FastMap<TxnId, PendingImm>,
    /// Remote Immediate txns this site has prepared (participant role).
    prepared_remote: BTreeSet<TxnId>,
    /// Coordinator role: commit decisions not yet acknowledged by every
    /// participant, retransmitted on a timer (see [`RetransmitImm`]).
    retransmit_imm: FastMap<TxnId, RetransmitImm>,
    /// Coordinator role: Immediate txns durably decided commit (the WAL
    /// holds their commit record) whose outcome had not been reported
    /// when this site crashed. Survives the crash — the decision is
    /// derivable from the durable WAL, and the span/correspondence
    /// bookkeeping is the observer's record — and is reported to the
    /// client at recovery.
    unreported_imm: Vec<(TxnId, PendingImm)>,
    /// Participant role: Immediate txns whose decision this site already
    /// executed, so duplicate retransmissions are acknowledged without
    /// re-applying. Durable in this model — it is derivable from the
    /// WAL's committed/aborted txn ids, so it survives crashes.
    imm_finished: BTreeSet<TxnId>,
    /// Armed timers by token.
    timers: FastMap<u64, TimerKind>,
    next_timer: u64,
    /// Replication drive: log + per-peer cursors + checkpoint prefix plus
    /// the gauges derived from them. The log is durable — recomputable
    /// from the WAL suffix, so it survives crashes in this model.
    repl: ReplicationDrive,
    /// Whether the anti-entropy heartbeat is currently armed. The timer
    /// stops re-arming once every peer has acknowledged the whole log and
    /// restarts on the next local commit — so a finished system still
    /// quiesces (the event queue drains) with anti-entropy enabled.
    anti_entropy_armed: bool,
    /// Per-product consumption-rate EWMA `(volume per kilotick, last
    /// sample tick)`, fed by local Delay decrements and piggybacked on AV
    /// traffic so peers can project depletion horizons.
    consume_rate: Vec<(i64, VirtualTime)>,
    /// Whether the rebalancer tick is armed. Mirrors the anti-entropy
    /// quiescence discipline: the timer disarms on a tick that moves
    /// nothing and re-arms on the next local consumption.
    rebalance_armed: bool,

    /// Telemetry: per-site span sink. Deliberately survives crashes — the
    /// record of what happened before a fault is what post-mortems need.
    spans: SpanCollector,
    /// Telemetry: per-site counters / gauges / histograms.
    registry: Registry,
    /// Per-lane SLO targets evaluated by [`Accelerator::status`] and fed
    /// (as counters) at every outcome.
    slo: SloSpec,
    /// Committed trace ids whose full span tree was retained (sampled or
    /// retroactively promoted) — the deterministic input set for this
    /// site's critical-path profile.
    committed_traces: Vec<u64>,
    /// Cluster-agreed keep/drop decision for anomalous traces while
    /// sampling is active (rate `SystemConfig::anomaly_keep_rate`);
    /// every site derives the same sampler from the shared seed.
    anomaly_sampler: TraceSampler,
    /// Lamport clock, merged from every incoming traced message.
    clock: u64,
    /// Sequence for auxiliary (non-update) trace ids: replication batches
    /// and proactive pushes root their own small trees.
    aux_seq: u64,
    /// Scratch buffer for peer fan-outs — reused so the per-update hot
    /// paths (propagation, Immediate prepare/decide) never allocate a
    /// fresh peer list.
    peer_scratch: Vec<SiteId>,
    /// Scratch buffers for one shortage round (the burst's picks, their
    /// expected yields and request shares), reused across AV rounds the
    /// way [`Self::peer_scratch`] is.
    negotiation_scratch: NegotiationScratch,

    /// Always-on flight recorder: a bounded ring of recent protocol
    /// events. Like spans, it deliberately survives crashes — it is the
    /// observer's black box, and the events leading *into* a fault are
    /// exactly what a post-mortem needs.
    flight: FlightRecorder,
    /// Where flight dumps are written when a trigger fires (WAL recovery,
    /// 2PC abort). `None` — the default — records in memory but never
    /// touches disk, keeping sim runs hermetic.
    flight_dir: Option<PathBuf>,
    /// Interned ids for every hot-path instrument, resolved once at
    /// construction so per-event updates index dense registry arrays and
    /// never hash or format a key.
    ids: MetricIds,
    /// Windowed time-series recorder (`None` when `series_window_ticks`
    /// is zero).
    series: Option<SeriesRecorder>,
    /// Whether the series window timer is armed. Mirrors the anti-entropy
    /// quiescence discipline: an idle window lets the timer lapse, the
    /// next activity re-arms it at the following boundary.
    series_armed: bool,
}

/// Interned [`MetricId`]s for every instrument the protocol hot paths
/// touch. Registered once per accelerator; registration alone is
/// invisible in snapshots (touched flags), so pre-registering the full
/// set changes no exported bytes.
struct MetricIds {
    /// Send counters by [`Msg::kind_index`].
    msg_sent: [MetricId; MSG_KIND_COUNT],
    /// Receive counters by [`Msg::kind_index`].
    msg_recv: [MetricId; MSG_KIND_COUNT],
    /// `knowledge.staleness.s<N>` gauges, densely per site.
    staleness: Vec<MetricId>,
    update_committed: MetricId,
    update_aborted: MetricId,
    update_latency: MetricId,
    update_correspondences: MetricId,
    slo_imm_total: MetricId,
    slo_imm_latency: MetricId,
    slo_imm_breach: MetricId,
    slo_delay_total: MetricId,
    slo_delay_latency: MetricId,
    slo_delay_breach: MetricId,
    slo_delay_shortage: MetricId,
    delay_shortage: MetricId,
    delay_commit_local: MetricId,
    delay_commit_remote: MetricId,
    delay_abort_insufficient: MetricId,
    delay_grant_timeouts: MetricId,
    delay_fanout_bursts: MetricId,
    delay_fanout_requests: MetricId,
    delay_overgrant_volume: MetricId,
    select_staleness: MetricId,
    phase_transfer: MetricId,
    imm_commit: MetricId,
    imm_abort: MetricId,
    imm_abort_local: MetricId,
    imm_reapplied: MetricId,
    imm_rereported: MetricId,
    imm_decision_retransmits: MetricId,
    repl_convergence: MetricId,
    rebalance_transfers: MetricId,
    rebalance_volume: MetricId,
    flight_dumps: MetricId,
    flight_dump_errors: MetricId,
    site_crashes: MetricId,
    watchdog_fired: MetricId,
}

impl MetricIds {
    fn register(reg: &mut Registry, n_sites: usize) -> Self {
        MetricIds {
            msg_sent: std::array::from_fn(|i| reg.counter_id(SENT_COUNTER_KEYS[i])),
            msg_recv: std::array::from_fn(|i| reg.counter_id(RECV_COUNTER_KEYS[i])),
            staleness: (0..n_sites)
                .map(|s| reg.gauge_id(&format!("knowledge.staleness.s{s}")))
                .collect(),
            update_committed: reg.counter_id("update.committed"),
            update_aborted: reg.counter_id("update.aborted"),
            update_latency: reg.histogram_id("update.latency.ticks"),
            update_correspondences: reg.histogram_id("update.correspondences"),
            slo_imm_total: reg.counter_id("slo.imm.total"),
            slo_imm_latency: reg.histogram_id("slo.imm.latency.ticks"),
            slo_imm_breach: reg.counter_id("slo.imm.breach.latency"),
            slo_delay_total: reg.counter_id("slo.delay.total"),
            slo_delay_latency: reg.histogram_id("slo.delay.latency.ticks"),
            slo_delay_breach: reg.counter_id("slo.delay.breach.latency"),
            slo_delay_shortage: reg.counter_id("slo.delay.shortage"),
            delay_shortage: reg.histogram_id("delay.shortage"),
            delay_commit_local: reg.counter_id("delay.commit.local"),
            delay_commit_remote: reg.counter_id("delay.commit.remote"),
            delay_abort_insufficient: reg.counter_id("delay.abort.insufficient-av"),
            delay_grant_timeouts: reg.counter_id("delay.grant-timeouts"),
            delay_fanout_bursts: reg.counter_id("delay.fanout.bursts"),
            delay_fanout_requests: reg.counter_id("delay.fanout.requests"),
            delay_overgrant_volume: reg.counter_id("delay.overgrant.volume"),
            select_staleness: reg.histogram_id("select.staleness.ticks"),
            phase_transfer: reg.histogram_id("phase.transfer.ticks"),
            imm_commit: reg.counter_id("imm.commit"),
            imm_abort: reg.counter_id("imm.abort"),
            imm_abort_local: reg.counter_id("imm.abort.local"),
            imm_reapplied: reg.counter_id("imm.reapplied"),
            imm_rereported: reg.counter_id("imm.rereported"),
            imm_decision_retransmits: reg.counter_id("imm.decision-retransmits"),
            repl_convergence: reg.histogram_id("repl.convergence.ticks"),
            rebalance_transfers: reg.counter_id("rebalance.transfers"),
            rebalance_volume: reg.counter_id("rebalance.volume"),
            flight_dumps: reg.counter_id("flight.dumps"),
            flight_dump_errors: reg.counter_id("flight.dump.errors"),
            site_crashes: reg.counter_id("site.crashes"),
            watchdog_fired: reg.counter_id("series.watchdog.fired"),
        }
    }
}

impl Accelerator {
    /// Builds the accelerator for `me` from the system config, defining
    /// AV rows for every regular product with this site's share of the
    /// configured split.
    pub fn new(me: SiteId, cfg: &SystemConfig) -> Self {
        let mut av = AvTable::new(cfg.n_products());
        let mut knowledge = KnowledgeExchange::new(cfg.n_sites);
        for entry in &cfg.catalog {
            if entry.class.uses_av() {
                let split = cfg.split_av(cfg.initial_av_of(entry.id));
                av.define(entry.id, split[me.index()]).expect("dense catalog");
                knowledge.seed(entry.id, &split);
            }
        }
        let mut registry = Registry::new();
        let ids = MetricIds::register(&mut registry, cfg.n_sites);
        let repl = ReplicationDrive::new(me, cfg.n_sites, cfg.n_products(), &mut registry);
        let series =
            (cfg.series_window_ticks > 0).then(|| SeriesRecorder::new(cfg.series_window_ticks));
        let mut spans = SpanCollector::new(me);
        spans.set_sampler(TraceSampler::new(cfg.seed, cfg.trace_sampling()));
        // The collector drops unsampled spans that fail this same rescue
        // decision at mint, so the two samplers must stay in lockstep.
        spans.set_rescue(TraceSampler::new(cfg.seed ^ ANOMALY_SEED_SALT, cfg.anomaly_keep()));
        Accelerator {
            me,
            cfg: AcceleratorConfig::from_system(cfg),
            db: LocalDb::new(&cfg.catalog),
            av,
            knowledge,
            select: make_select(cfg.select),
            decide: make_decide(cfg.decide),
            ledger: TransferLedger::new(),
            stats: AcceleratorStats::default(),
            next_seq: 0,
            pending_client_tag: None,
            client_tags: FastMap::default(),
            pending_delay: FastMap::default(),
            pending_imm: FastMap::default(),
            prepared_remote: BTreeSet::new(),
            retransmit_imm: FastMap::default(),
            unreported_imm: Vec::new(),
            imm_finished: BTreeSet::new(),
            timers: FastMap::default(),
            next_timer: 0,
            repl,
            anti_entropy_armed: false,
            consume_rate: vec![(0, VirtualTime::ZERO); cfg.n_products()],
            rebalance_armed: false,
            spans,
            registry,
            slo: SloSpec::default(),
            committed_traces: Vec::new(),
            anomaly_sampler: TraceSampler::new(cfg.seed ^ ANOMALY_SEED_SALT, cfg.anomaly_keep()),
            clock: 0,
            aux_seq: 0,
            peer_scratch: Vec::new(),
            negotiation_scratch: NegotiationScratch::default(),
            flight: FlightRecorder::default(),
            flight_dir: None,
            ids,
            series,
            series_armed: false,
        }
    }

    // ---- accessors ---------------------------------------------------------

    /// This site's id.
    pub fn site(&self) -> SiteId {
        self.me
    }

    /// The local database.
    pub fn db(&self) -> &LocalDb {
        &self.db
    }

    /// The AV management table.
    pub fn av(&self) -> &AvTable {
        &self.av
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &AcceleratorStats {
        &self.stats
    }

    /// Peer-AV knowledge (tests).
    pub fn knowledge(&self) -> &PeerKnowledge {
        self.knowledge.table()
    }

    /// AV transfers this site granted.
    pub fn ledger(&self) -> &TransferLedger {
        &self.ledger
    }

    /// Telemetry: the spans this site recorded.
    pub fn spans(&self) -> &SpanCollector {
        &self.spans
    }

    /// Telemetry: this site's metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The always-on flight recorder (recent protocol events).
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Enables flight-dump-to-disk: when a trigger fires (WAL recovery,
    /// 2PC abort) this site writes its ring to `dir` as pretty JSON.
    /// Without this call the ring still records, but never touches disk.
    pub fn enable_flight_dump(&mut self, dir: PathBuf) {
        self.flight_dir = Some(dir);
    }

    /// This site's `/metrics` payload: the registry rendered in the
    /// Prometheus text exposition format, labelled with the site id, with
    /// the latest series window appended as `avdb_series_*` families when
    /// the time-series plane is on.
    pub fn metrics_text(&self) -> String {
        let labels = [("site", self.me.0.to_string())];
        let mut out = avdb_telemetry::render_prometheus(&self.registry.snapshot(), &labels);
        if let Some(rec) = &self.series {
            out.push_str(&avdb_telemetry::render_series_prometheus(
                &rec.snapshot(&self.registry),
                &labels,
            ));
        }
        out
    }

    /// The windowed time-series ring resolved to metric names, or `None`
    /// when the series plane is off.
    pub fn series_snapshot(&self) -> Option<SeriesSnapshot> {
        self.series.as_ref().map(|rec| rec.snapshot(&self.registry))
    }

    /// This site's `/status` payload: a point-in-time JSON snapshot of
    /// role, AV table, in-flight escrow negotiations and replication
    /// queue depth.
    pub fn status(&self) -> StatusSnapshot {
        let n_products = self.repl.n_products();
        let av = ProductId::all(n_products)
            .map(|p| StatusAvRow {
                product: p.0,
                stock: self.db.stock(p).map(|v| v.get()).unwrap_or(0),
                av_defined: self.av.is_defined(p),
                av_total: self.av.total(p).get(),
                av_available: self.av.available(p).get(),
                divergence: self.repl.divergence(p.index()),
            })
            .collect();
        let knowledge = self
            .peers()
            .map(|peer| StatusPeerRow {
                peer: peer.0,
                refreshed_at: self.knowledge.freshest(peer).map(|t| t.0),
            })
            .collect();
        StatusSnapshot {
            site: self.me.0,
            role: if self.me == SiteId::BASE { "base".into() } else { "retailer".into() },
            clock: self.clock,
            committed: self.registry.counter_value(self.ids.update_committed),
            aborted: self.registry.counter_value(self.ids.update_aborted),
            in_flight_delay: self.pending_delay.len(),
            in_flight_imm: self.pending_imm.len(),
            prepared_remote: self.prepared_remote.len(),
            repl_queue_depth: self.repl.retained(),
            flight_recorded: self.flight.recorded(),
            av,
            knowledge,
            slo: self.slo_report(),
            profile: self.local_profile(),
            series: self.series_snapshot(),
        }
    }

    /// Per-lane SLO targets in force here.
    pub fn slo_spec(&self) -> &SloSpec {
        &self.slo
    }

    /// Replaces the per-lane SLO targets.
    pub fn set_slo(&mut self, spec: SloSpec) {
        self.slo = spec;
    }

    /// Evaluates the SLO targets against this site's registry.
    pub fn slo_report(&self) -> SloReport {
        evaluate_slo(&self.slo, &self.registry.snapshot())
    }

    /// Critical-path phase profile over the committed traces whose full
    /// span tree this site retained (head-sampled plus promoted).
    pub fn local_profile(&self) -> PhaseProfile {
        let committed: BTreeSet<u64> = self.committed_traces.iter().copied().collect();
        build_profile(self.spans.records().iter().map(SpanView::from), &committed)
    }

    /// Current Lamport clock (merged from all traffic seen here).
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// `true` when no protocol activity is in flight here.
    pub fn is_idle(&self) -> bool {
        self.pending_delay.is_empty()
            && self.pending_imm.is_empty()
            && self.prepared_remote.is_empty()
            && self.retransmit_imm.is_empty()
    }

    /// Committed Delay deltas retained in the replication log (not yet
    /// acknowledged by every peer).
    pub fn unpropagated(&self) -> usize {
        self.repl.retained()
    }

    /// `true` when every peer acknowledged the whole replication log.
    pub fn fully_propagated(&self) -> bool {
        self.repl.fully_acked()
    }

    /// Snapshot of the replication state (persistence).
    pub fn replication_snapshot(&self) -> crate::replication::ReplicationSnapshot {
        self.repl.snapshot()
    }

    /// Overrides the replication log's retained-entry cap (tests, tuning).
    pub fn set_checkpoint_threshold(&mut self, n: usize) {
        self.repl.set_checkpoint_threshold(n);
    }

    /// Next transaction sequence number (persistence; monotone forever).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Rebuilds an accelerator from persisted parts: a recovered local DB
    /// plus the durable snapshot written by
    /// [`Accelerator::persist_to_dir`](crate::persist). Volatile protocol
    /// state starts empty; strategies and knowledge are rebuilt from the
    /// config (knowledge is a stale-cache anyway — it re-learns from
    /// traffic).
    pub fn from_parts(
        me: SiteId,
        cfg: &SystemConfig,
        db: LocalDb,
        snap: &crate::persist::AcceleratorSnapshot,
    ) -> Self {
        let mut knowledge = KnowledgeExchange::new(cfg.n_sites);
        for entry in &cfg.catalog {
            if entry.class.uses_av() {
                let split = cfg.split_av(cfg.initial_av_of(entry.id));
                knowledge.seed(entry.id, &split);
            }
        }
        let mut registry = Registry::new();
        let ids = MetricIds::register(&mut registry, cfg.n_sites);
        let repl = ReplicationDrive::from_snapshot(&snap.replication, cfg.n_products(), &mut registry);
        let series =
            (cfg.series_window_ticks > 0).then(|| SeriesRecorder::new(cfg.series_window_ticks));
        let mut spans = SpanCollector::new(me);
        spans.set_sampler(TraceSampler::new(cfg.seed, cfg.trace_sampling()));
        // The collector drops unsampled spans that fail this same rescue
        // decision at mint, so the two samplers must stay in lockstep.
        spans.set_rescue(TraceSampler::new(cfg.seed ^ ANOMALY_SEED_SALT, cfg.anomaly_keep()));
        let mut acc = Accelerator {
            me,
            cfg: AcceleratorConfig::from_system(cfg),
            db,
            av: AvTable::from_snapshot(&snap.av),
            knowledge,
            select: make_select(cfg.select),
            decide: make_decide(cfg.decide),
            ledger: TransferLedger::new(),
            stats: AcceleratorStats::default(),
            next_seq: snap.next_seq,
            pending_client_tag: None,
            client_tags: FastMap::default(),
            pending_delay: FastMap::default(),
            pending_imm: FastMap::default(),
            prepared_remote: BTreeSet::new(),
            retransmit_imm: FastMap::default(),
            unreported_imm: Vec::new(),
            imm_finished: BTreeSet::new(),
            timers: FastMap::default(),
            next_timer: 0,
            repl,
            anti_entropy_armed: false,
            consume_rate: vec![(0, VirtualTime::ZERO); cfg.n_products()],
            rebalance_armed: false,
            spans,
            registry,
            slo: SloSpec::default(),
            committed_traces: Vec::new(),
            anomaly_sampler: TraceSampler::new(cfg.seed ^ ANOMALY_SEED_SALT, cfg.anomaly_keep()),
            clock: 0,
            aux_seq: 0,
            peer_scratch: Vec::new(),
            negotiation_scratch: NegotiationScratch::default(),
            flight: FlightRecorder::default(),
            flight_dir: None,
            ids,
            series,
            series_armed: false,
        };
        // The recovered replication snapshot may retain unacknowledged
        // deltas; publish their divergence right away.
        acc.refresh_repl_gauges();
        acc
    }

    // ---- helpers -----------------------------------------------------------

    fn fresh_txn(&mut self) -> TxnId {
        let txn = TxnId::new(self.me, self.next_seq);
        self.next_seq += 1;
        if let Some(tag) = self.pending_client_tag.take() {
            self.client_tags.insert(txn, tag);
        }
        txn
    }

    fn peers(&self) -> impl Iterator<Item = SiteId> + '_ {
        SiteId::all(self.cfg.n_sites).filter(move |s| *s != self.me)
    }

    /// Borrows the reusable peer list for a fan-out loop that needs
    /// `&mut self` in its body; hand it back with [`Self::put_peers`].
    fn take_peers(&mut self) -> Vec<SiteId> {
        let mut peers = std::mem::take(&mut self.peer_scratch);
        peers.clear();
        peers.extend(self.peers());
        peers
    }

    fn put_peers(&mut self, peers: Vec<SiteId>) {
        self.peer_scratch = peers;
    }

    fn arm_timer(&mut self, ctx: &mut ACtx<'_>, delay: u64, kind: TimerKind) {
        let token = self.next_timer;
        self.next_timer += 1;
        self.timers.insert(token, kind);
        ctx.set_timer(delay, token);
    }

    // ---- telemetry helpers -------------------------------------------------

    /// Advances the Lamport clock for a locally-originated event.
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Sends `msg` stamped with causal context `(trace, parent)` and
    /// counts it in the registry. Registry send counts and the network
    /// substrate both count at send time, so their totals agree exactly
    /// even on lossy runs.
    fn send_traced(&mut self, ctx: &mut ACtx<'_>, to: SiteId, trace: u64, parent: u64, msg: Msg) {
        let clock = self.tick();
        self.registry.inc_id(self.ids.msg_sent[msg.kind_index()]);
        ctx.send(to, TracedMsg { ctx: Some(TraceContext::child(trace, parent, clock)), msg });
    }

    /// Sends `msg` without causal context (replies to untraced messages),
    /// still counting it in the registry.
    fn send_plain(&mut self, ctx: &mut ACtx<'_>, to: SiteId, msg: Msg) {
        self.tick();
        self.registry.inc_id(self.ids.msg_sent[msg.kind_index()]);
        ctx.send(to, TracedMsg::plain(msg));
    }

    /// Replies along an incoming context: stamps the reply into the same
    /// trace under `parent` when `incoming` carried one, plain otherwise.
    fn reply_along(
        &mut self,
        ctx: &mut ACtx<'_>,
        to: SiteId,
        incoming: Option<TraceContext>,
        parent: u64,
        msg: Msg,
    ) {
        match incoming {
            Some(c) => self.send_traced(ctx, to, c.trace_id, parent, msg),
            None => self.send_plain(ctx, to, msg),
        }
    }

    /// Mints a fresh auxiliary trace id (replication batches, pushes).
    fn fresh_aux_trace(&mut self) -> u64 {
        let id = aux_trace_id(self.me.0, self.aux_seq);
        self.aux_seq += 1;
        id
    }

    /// Records one protocol event in the always-on flight ring.
    fn flight_note(&mut self, at: VirtualTime, kind: &'static str, detail: String) {
        self.flight.record(at.0, self.clock, kind, detail);
    }

    /// [`Accelerator::flight_note`] formatting into the ring's recycled
    /// buffers — for per-frame / per-delta call sites where a fresh
    /// `String` per event would dominate the allocator at scale.
    fn flight_args(&mut self, at: VirtualTime, kind: &'static str, args: std::fmt::Arguments<'_>) {
        self.flight.record_args(at.0, self.clock, kind, args);
    }

    /// [`Accelerator::flight_note`] for integer-only details: the ring
    /// keeps `fields` and `render` formats them only when it is read.
    fn flight_fields(
        &mut self,
        at: VirtualTime,
        kind: &'static str,
        render: RenderDetail,
        fields: [u64; 4],
    ) {
        self.flight.record_fields(at.0, self.clock, kind, render, fields);
    }

    /// Promotes an anomalous trace (abort, shortage, latency outlier) out
    /// of the sampler's discard set, subject to the cluster-agreed
    /// anomaly-keep decision. Returns whether the trace is
    /// retained after the call. Without a sampler every trace is already
    /// retained. The keep/drop answer is a pure function of the trace id,
    /// so every site that observes the anomaly (coordinator, participant,
    /// granter) reaches the same verdict independently.
    fn promote_anomaly(&mut self, trace: u64) -> bool {
        if !self.spans.is_sampling() {
            return true;
        }
        if self.spans.trace_sampled(trace) {
            return true;
        }
        if !self.anomaly_sampler.sampled(trace) {
            return false;
        }
        self.spans.promote(trace);
        true
    }

    /// Writes this site's flight ring to the configured dump directory
    /// (no-op when none is configured). Returns the path written.
    fn write_flight_dump(&mut self, at: VirtualTime, reason: &str) -> Option<PathBuf> {
        let dir = self.flight_dir.clone()?;
        self.registry.inc_id(self.ids.flight_dumps);
        let n = self.registry.counter_value(self.ids.flight_dumps);
        let mut dump = FlightDump::new(reason, at.0);
        dump.push_site(self.me.0, &self.flight);
        let path = dir.join(format!("flight-s{}-{n}.json", self.me.0));
        if std::fs::create_dir_all(&dir).is_err()
            || std::fs::write(&path, dump.to_json()).is_err()
        {
            self.registry.inc_id(self.ids.flight_dump_errors);
            return None;
        }
        Some(path)
    }

    /// Republishes the replication gauges after the retained log changed
    /// (see [`ReplicationDrive::refresh_gauges`]).
    fn refresh_repl_gauges(&mut self) {
        self.repl.refresh_gauges(&mut self.registry);
    }

    // ---- consumption rate & rebalancing ------------------------------------

    /// Folds one local Delay decrement into the product's consumption-rate
    /// EWMA (volume per kilotick, α = 1/4 — integer math only so the
    /// figure is deterministic and cheap to piggyback).
    fn note_consumption(&mut self, product: ProductId, volume: Volume, now: VirtualTime) {
        let Some(slot) = self.consume_rate.get_mut(product.index()) else { return };
        let (rate, last) = *slot;
        let dt = now.since(last).max(1) as i64;
        let inst = volume.get().max(0).saturating_mul(1000) / dt;
        *slot = (rate + (inst - rate) / 4, now);
    }

    /// This site's consumption-rate EWMA for `product` (the figure
    /// piggybacked on outgoing AV traffic).
    fn local_rate(&self, product: ProductId) -> i64 {
        self.consume_rate.get(product.index()).map(|&(r, _)| r).unwrap_or(0)
    }

    /// Arms the rebalancer tick if enabled and not already armed.
    fn arm_rebalance(&mut self, ctx: &mut ACtx<'_>) {
        if self.cfg.rebalance_horizon_ticks > 0 && !self.rebalance_armed {
            self.rebalance_armed = true;
            let interval = self.cfg.rebalance_horizon_ticks;
            self.arm_timer(ctx, interval, TimerKind::Rebalance);
        }
    }

    /// One rebalancer tick: for each product where this site's AV runway
    /// is comfortable (> 2× the horizon at its own consumption rate), top
    /// up the believed-neediest peer whose projected depletion horizon
    /// falls below `rebalance_horizon_ticks`. The local knowledge update
    /// closes the believed deficit immediately, so repeated ticks against
    /// a silent peer converge instead of draining this site. Re-arms only
    /// when something moved — an idle system quiesces.
    fn on_rebalance(&mut self, ctx: &mut ACtx<'_>) {
        self.rebalance_armed = false;
        let h = self.cfg.rebalance_horizon_ticks as i64;
        if h <= 0 {
            return;
        }
        let n_products = self.repl.n_products();
        let mut sent_any = false;
        for product in ProductId::all(n_products) {
            if !self.av.is_defined(product) {
                continue;
            }
            let avail = self.av.available(product);
            if !avail.is_positive() {
                continue;
            }
            let own_rate = self.local_rate(product).max(0);
            if own_rate > 0 && avail.get().saturating_mul(1000) / own_rate <= 2 * h {
                continue;
            }
            // Believed-neediest peer strictly below the horizon. A peer
            // with no observed consumption has an infinite horizon and is
            // never rebalanced toward.
            let mut needy: Option<(SiteId, i64)> = None;
            for peer in SiteId::all(self.cfg.n_sites) {
                if peer == self.me {
                    continue;
                }
                let rate = self.knowledge.known_rate(peer, product);
                if rate <= 0 {
                    continue;
                }
                let known = self.knowledge.known(peer, product).get().max(0);
                let horizon = known.saturating_mul(1000) / rate;
                if horizon < h && !matches!(needy, Some((_, best)) if best <= horizon) {
                    needy = Some((peer, horizon));
                }
            }
            let Some((peer, _)) = needy else { continue };
            let rate = self.knowledge.known_rate(peer, product);
            let known = self.knowledge.known(peer, product).get().max(0);
            let deficit = (rate.saturating_mul(h) / 1000 - known).max(0);
            let amount = Volume(deficit.min(avail.get() / 2));
            if !amount.is_positive() {
                continue;
            }
            let sent = self.av.withdraw_up_to(product, amount).expect("≤ available");
            if !sent.is_positive() {
                continue;
            }
            self.ledger.record(TransferRecord {
                from: self.me,
                to: peer,
                product,
                amount: sent,
                at: ctx.now(),
            });
            self.stats.av_pushes_sent += 1;
            self.stats.av_volume_pushed += sent.get();
            self.registry.inc_id(self.ids.rebalance_transfers);
            self.registry.add_id(self.ids.rebalance_volume, sent.get().max(0) as u64);
            self.knowledge.update(peer, product, Volume(known) + sent, ctx.now());
            let pusher_av = self.av.available(product);
            let pusher_rate = self.local_rate(product);
            let trace = self.fresh_aux_trace();
            let clock = self.tick();
            // Aux root — same retain-or-skip rule as replication frames.
            let root = if self.spans.trace_sampled(trace) {
                self.spans.instant_args(
                    trace,
                    0,
                    "push",
                    ctx.now(),
                    clock,
                    format_args!("rebalance {} of P{} to s{}", sent.get(), product.0, peer.0),
                )
            } else {
                0
            };
            self.flight_fields(
                ctx.now(),
                "rebalance.push",
                notes::rebalance_push,
                [sent.get() as u64, u64::from(product.0), u64::from(peer.0), 0],
            );
            self.send_traced(
                ctx,
                peer,
                trace,
                root,
                Msg::AvPush { product, amount: sent, pusher_av, pusher_rate },
            );
            sent_any = true;
        }
        if sent_any {
            self.arm_rebalance(ctx);
        }
    }

    /// Finishes an update: closes the root span, records outcome and
    /// per-lane SLO metrics, retroactively promotes interesting traces
    /// out of the sampling ring, and emits to the harness.
    fn emit_outcome(
        &mut self,
        ctx: &mut ACtx<'_>,
        root_span: u64,
        started_at: VirtualTime,
        lane: &'static str,
        had_shortage: bool,
        outcome: UpdateOutcome,
    ) {
        let (txn, committed, correspondences) = match &outcome {
            UpdateOutcome::Committed { txn, correspondences, .. } => {
                (*txn, true, *correspondences)
            }
            UpdateOutcome::Aborted { txn, correspondences, .. } => {
                (*txn, false, *correspondences)
            }
        };
        let latency = ctx.now().since(started_at);

        // Retroactive promotion: even when head-based sampling dropped
        // this trace, an aborted, shortage-path or p99-outlier update is
        // exactly the one a post-mortem wants — pull its parked spans
        // back before the ring evicts them. The outlier test reads the
        // latency histogram *before* this update is folded in.
        let mut retained = self.spans.trace_sampled(txn.0);
        if !retained {
            // Short-circuit: the percentile walk only runs for clean
            // commits, so a saturated cell (every update shorting) never
            // pays it per outcome.
            let anomalous = !committed || had_shortage || {
                let h = self.registry.histogram_value(self.ids.update_latency);
                h.count() >= LATENCY_OUTLIER_MIN_COUNT && latency > h.percentile(0.99)
            };
            if anomalous {
                retained = self.promote_anomaly(txn.0);
            }
        }

        self.registry.inc_id(if committed {
            self.ids.update_committed
        } else {
            self.ids.update_aborted
        });
        self.registry.observe_id(self.ids.update_latency, latency);
        self.registry.observe_id(self.ids.update_correspondences, correspondences);

        // Per-lane SLO accounting (interned ids — this is the hot path).
        let (total_id, lat_id, breach_id, target) = if lane == LANE_IMM {
            (
                self.ids.slo_imm_total,
                self.ids.slo_imm_latency,
                self.ids.slo_imm_breach,
                self.slo.immediate.commit_p99_ticks,
            )
        } else {
            (
                self.ids.slo_delay_total,
                self.ids.slo_delay_latency,
                self.ids.slo_delay_breach,
                self.slo.delay.commit_p99_ticks,
            )
        };
        self.registry.inc_id(total_id);
        self.registry.observe_id(lat_id, latency);
        if target > 0 && latency > target {
            self.registry.inc_id(breach_id);
        }
        if had_shortage {
            self.registry.inc_id(self.ids.slo_delay_shortage);
        }

        self.spans.end(root_span, ctx.now());
        if committed && retained {
            self.committed_traces.push(txn.0);
        }
        // Stamp the gateway correlation tag (if any) so the outcome can
        // be routed back to the submitting connection.
        let client = self.client_tags.remove(&txn);
        ctx.emit(outcome.with_client(client));
    }

    // ---- replication -------------------------------------------------------

    fn buffer_propagation(
        &mut self,
        ctx: &mut ACtx<'_>,
        txn: TxnId,
        product: ProductId,
        delta: Volume,
        commit_span: u64,
    ) {
        self.repl.record(PropagateDelta {
            txn,
            product,
            delta,
            commit_span,
            // The origin's retain decision rides the delta so replicas
            // keep their apply spans for sampled/promoted traces.
            retained: self.spans.trace_sampled(txn.0),
            committed_at: ctx.now(),
        });
        self.refresh_repl_gauges();
        self.arm_anti_entropy(ctx);
        let batch = self.cfg.propagation_batch;
        if !self.repl.batch_ready(batch) {
            return;
        }
        let peers = self.take_peers();
        for &peer in &peers {
            if let Some(frame) = self.repl.take_batch(peer, batch) {
                self.send_propagate(ctx, peer, frame);
            }
        }
        self.put_peers(peers);
    }

    /// Explicit flush: retransmit everything a peer has not acknowledged
    /// (end-of-run convergence, post-crash anti-entropy).
    fn flush_propagation(&mut self, ctx: &mut ACtx<'_>) {
        let peers = self.take_peers();
        for &peer in &peers {
            if let Some(frame) = self.repl.take_unacked(peer) {
                self.send_propagate(ctx, peer, frame);
            }
        }
        self.put_peers(peers);
    }

    /// Sends one propagation frame under a fresh auxiliary trace whose
    /// root records the frame shape.
    fn send_propagate(&mut self, ctx: &mut ACtx<'_>, peer: SiteId, frame: Frame) {
        let Frame { offset, deltas, checkpoint } = frame;
        let covers = deltas.len() as u64;
        let trace = self.fresh_aux_trace();
        let clock = self.tick();
        // Replication roots are auxiliary traces with no outcome hanging
        // off them — nothing downstream (stats, oracle) reads an unsampled
        // one, so at scale the per-frame span and its detail are skipped
        // outright instead of retained-because-root.
        let root = if self.spans.trace_sampled(trace) {
            self.spans.instant_args(
                trace,
                0,
                "replicate",
                ctx.now(),
                clock,
                format_args!(
                    "to s{} offset {} ({} deltas covering {})",
                    peer.0,
                    offset,
                    deltas.len(),
                    covers,
                ),
            )
        } else {
            0
        };
        self.stats.propagation_batches_sent += 1;
        self.flight_fields(
            ctx.now(),
            "repl.send",
            notes::repl_send,
            [u64::from(peer.0), offset, deltas.len() as u64, covers],
        );
        let knowledge = self.knowledge.encode_digest_for(self.me, peer);
        self.send_traced(
            ctx,
            peer,
            trace,
            root,
            Msg::Propagate { offset, covers, deltas, checkpoint, knowledge },
        );
    }

    // ---- Delay Update (Figs. 3–4) -------------------------------------------

    fn start_delay(&mut self, ctx: &mut ACtx<'_>, req: UpdateRequest) {
        self.start_delay_multi(ctx, vec![(req.product, req.delta)]);
    }

    /// Begins a Delay transaction over one or more `(product, delta)`
    /// items, all of which must be AV-managed (regular). Commit is
    /// all-or-nothing: every decrement's AV must be held before anything
    /// applies; on failure every hold releases (stays at this site) and
    /// the transaction rolls back by opposite deltas.
    fn start_delay_multi(
        &mut self,
        ctx: &mut ACtx<'_>,
        raw_items: Vec<(ProductId, Volume)>,
    ) {
        let txn = self.fresh_txn();
        let clock = self.tick();
        let root_span = self.spans.start_args(
            txn.0,
            0,
            "update",
            ctx.now(),
            clock,
            format_args!("delay at s{}", self.me.0),
        );
        self.spans.instant_args(
            txn.0,
            root_span,
            "checking",
            ctx.now(),
            self.clock,
            format_args!("{} item(s) → Delay", raw_items.len()),
        );
        self.flight_fields(
            ctx.now(),
            "delay.begin",
            notes::delay_begin,
            [txn.0, raw_items.len() as u64, 0, 0],
        );
        self.db.begin(txn).expect("fresh txn id");
        // Merge repeated products to their net delta (first-appearance
        // order): the transaction applies atomically, so only the net
        // change matters, and AV holds pool per (txn, product) anyway.
        let mut order: Vec<ProductId> = Vec::new();
        let mut net: HashMap<ProductId, Volume> = HashMap::new();
        for (product, delta) in raw_items {
            if !net.contains_key(&product) {
                order.push(product);
            }
            *net.entry(product).or_insert(Volume::ZERO) += delta;
        }
        let items: Vec<DelayItem> = order
            .into_iter()
            .map(|product| {
                let delta = net[&product];
                DelayItem {
                    product,
                    delta,
                    need: if delta.is_negative() { delta.abs() } else { Volume::ZERO },
                }
            })
            .collect();
        // Hold phase: take whatever is locally available for every
        // decrement ("holds the necessary amount of AV in advance", and on
        // shortage "holds all the AV at the site").
        let mut fully_held = true;
        for item in &items {
            if item.need.is_positive() {
                let got =
                    self.av.hold_up_to(txn, item.product, item.need).expect("AV row defined");
                if got < item.need {
                    fully_held = false;
                }
            }
        }
        if fully_held {
            let pending = PendingDelay {
                items,
                current: 0,
                asked: PeerSet::new(),
                outstanding: Vec::new(),
                correspondences: 0,
                root_span,
                transfer_spans: Vec::new(),
                started_at: ctx.now(),
                had_shortage: false,
            };
            self.commit_delay(ctx, txn, pending);
            return;
        }
        let current = Self::first_unsatisfied(&self.av, txn, &items, 0)
            .expect("not fully held implies an unsatisfied item");
        let pending = PendingDelay {
            items,
            current,
            asked: PeerSet::new(),
            outstanding: Vec::new(),
            correspondences: 0,
            root_span,
            transfer_spans: Vec::new(),
            started_at: ctx.now(),
            had_shortage: false,
        };
        self.pending_delay.insert(txn, pending);
        self.request_more_av(ctx, txn);
    }

    /// Index of the first item at or after `from` whose AV hold is still
    /// short of its need.
    fn first_unsatisfied(
        av: &AvTable,
        txn: TxnId,
        items: &[DelayItem],
        from: usize,
    ) -> Option<usize> {
        items
            .iter()
            .enumerate()
            .skip(from)
            .find(|(_, item)| item.need.is_positive() && av.held_by(txn, item.product) < item.need)
            .map(|(i, _)| i)
    }

    /// One iteration of the selecting/deciding loop: pick the next peer
    /// (or, with `shortage_fanout ≥ 2`, the next burst of peers, each
    /// asked for its share of the shortage concurrently) and send the AV
    /// request(s), or give up if the round budget is spent.
    fn request_more_av(&mut self, ctx: &mut ACtx<'_>, txn: TxnId) {
        let Some(pending) = self.pending_delay.get(&txn) else { return };
        let item = pending.current_item();
        let root_span = pending.root_span;
        let held = self.av.held_by(txn, item.product);
        let shortage = item.need - held;
        debug_assert!(shortage.is_positive());
        let product = item.product;
        self.registry.observe_id(self.ids.delay_shortage, shortage.get().max(0) as u64);
        let budget = self.cfg.max_av_rounds.saturating_sub(pending.asked.len());
        // Fan-out width: the configured k, capped by the remaining peer
        // budget and by the shortage itself (never ask a peer for zero).
        let k = self
            .cfg
            .shortage_fanout
            .max(1)
            .min(budget)
            .min(usize::try_from(shortage.get().max(1)).unwrap_or(usize::MAX));
        let mut asked = {
            let pending = self.pending_delay.get_mut(&txn).expect("checked above");
            pending.had_shortage = true;
            std::mem::take(&mut pending.asked)
        };
        let NegotiationScratch { mut picks, mut expected, mut shares } =
            std::mem::take(&mut self.negotiation_scratch);
        picks.clear();
        if k <= 1 {
            if budget > 0 {
                if let Some(peer) = self.select.select(
                    self.me,
                    self.cfg.n_sites,
                    product,
                    self.knowledge.table(),
                    &asked,
                    ctx.now(),
                    ctx.rng(),
                ) {
                    asked.insert(peer);
                    picks.push(peer);
                }
            }
        } else {
            self.select.select_many(
                self.me,
                self.cfg.n_sites,
                product,
                self.knowledge.table(),
                &mut asked,
                ctx.now(),
                ctx.rng(),
                k,
                &mut picks,
            );
            // Adaptive trim: keep the minimal prefix whose believed
            // half-holdings (the expected GrantHalf yield) cover the
            // shortage — a shortage one peer plausibly covers degrades to
            // the serial ask, so easy cells pay no amplification.
            let mut covered: i64 = 0;
            let mut keep = picks.len();
            for (i, p) in picks.iter().enumerate() {
                covered = covered
                    .saturating_add(self.knowledge.known(*p, product).get().max(0) / 2);
                if covered >= shortage.get() {
                    keep = i + 1;
                    break;
                }
            }
            // Knowledge-driven width: peers believed to hold nothing sort
            // to the back of the ranking, and asking several of them in
            // parallel just multiplies the blind shots the serial path
            // spreads across rounds. Burst only at believed holders; when
            // nobody is believed to hold AV, degrade to one serial-style
            // probe (whose grant reply refreshes knowledge either way).
            let positive = picks
                .iter()
                .take_while(|p| self.knowledge.known(**p, product).is_positive())
                .count();
            let keep = keep.min(positive.max(1));
            for &dropped in &picks[keep..] {
                asked.remove(dropped);
            }
            picks.truncate(keep);
        }
        let pending = self.pending_delay.get_mut(&txn).expect("checked above");
        pending.asked = asked;
        if picks.is_empty() {
            // "Otherwise, all accumulated AV is stored in the local AV
            // table" — keep what we gathered (across every item), roll
            // back the txn.
            let mut pending = self.pending_delay.remove(&txn).expect("checked above");
            self.drain_transfer_spans(&mut pending, ctx.now(), "superseded");
            self.av.release_all(txn);
            self.db.rollback(txn).expect("txn active");
            self.stats.delay_aborts += 1;
            self.registry.inc_id(self.ids.delay_abort_insufficient);
            self.spans.note(root_span, "aborted: insufficient AV");
            self.flight_args(
                ctx.now(),
                "delay.abort",
                format_args!("txn {} insufficient AV (short {})", txn.0, shortage.get()),
            );
            self.emit_outcome(
                ctx,
                root_span,
                pending.started_at,
                LANE_DELAY,
                pending.had_shortage,
                UpdateOutcome::Aborted {
                    txn,
                    reason: AbortReason::InsufficientAv { shortfall: shortage },
                    correspondences: pending.correspondences,
                    client: None,
                },
            );
            self.negotiation_scratch = NegotiationScratch { picks, expected, shares };
            return;
        }
        if picks.len() >= 2 {
            self.registry.inc_id(self.ids.delay_fanout_bursts);
            self.registry.add_id(self.ids.delay_fanout_requests, picks.len() as u64);
        }
        // Shares follow the expected GrantHalf yield per pick: a peer
        // believed able to cover the whole shortage is asked for all of
        // it, not an even k-th (which would force a second round for the
        // remainder the mis-split left behind). Residue beliefs cannot
        // cover is spread evenly across the burst.
        expected.clear();
        expected.extend(
            picks.iter().map(|p| Volume(self.knowledge.known(*p, product).get().max(0) / 2)),
        );
        partition_shortage_expected(shortage, &expected, &mut shares);
        let requester_rate = self.local_rate(product);
        for (i, &peer) in picks.iter().enumerate() {
            let share = shares[i];
            // Selecting: how stale was the knowledge the candidate was
            // picked on?
            let staleness = self.knowledge.staleness(peer, product, ctx.now()).unwrap_or(0);
            self.registry.observe_id(self.ids.select_staleness, staleness);
            // Live gauge: how stale the knowledge *selecting* just
            // consumed for this peer was, in ticks.
            self.registry.set_gauge_id(self.ids.staleness[peer.index()], staleness as i64);
            self.flight_fields(
                ctx.now(),
                "delay.select",
                notes::delay_select,
                [txn.0, u64::from(peer.0), staleness, 0],
            );
            let clock = self.tick();
            self.spans.instant_args(
                txn.0,
                root_span,
                "selecting",
                ctx.now(),
                clock,
                format_args!("s{} (knowledge {} ticks old)", peer.0, staleness),
            );
            let amount = self.decide.request_amount(share);
            self.spans.instant_args(
                txn.0,
                root_span,
                "deciding",
                ctx.now(),
                self.clock,
                format_args!("request {} for shortage {}", amount.get(), shortage.get()),
            );
            let transfer = self.spans.start_args(
                txn.0,
                root_span,
                "transfer",
                ctx.now(),
                self.clock,
                format_args!("ask s{} for {}", peer.0, amount.get()),
            );
            let requester_av = self.av.available(product);
            let pending = self.pending_delay.get_mut(&txn).expect("checked above");
            pending.outstanding.push((peer, product));
            pending.correspondences += 1;
            pending.transfer_spans.push((peer, product, transfer, ctx.now()));
            self.stats.av_requests_sent += 1;
            self.send_traced(
                ctx,
                peer,
                txn.0,
                transfer,
                Msg::AvRequest { txn, product, amount, requester_av, requester_rate },
            );
            let timeout = self.cfg.av_grant_timeout;
            self.arm_timer(ctx, timeout, TimerKind::AvGrant(txn, peer, product));
        }
        self.negotiation_scratch = NegotiationScratch { picks, expected, shares };
    }

    /// Ends every still-open transfer span of a finished negotiation (the
    /// fan-out path can commit or abort with grants still in flight; their
    /// spans must close so the causal tree stays complete).
    fn drain_transfer_spans(
        &mut self,
        pending: &mut PendingDelay,
        now: VirtualTime,
        note: &'static str,
    ) {
        for (_, _, span, opened) in pending.transfer_spans.drain(..) {
            self.spans.note(span, note);
            self.spans.end(span, now);
            self.registry.observe_id(self.ids.phase_transfer, now.since(opened));
        }
        pending.outstanding.clear();
    }

    /// Applies and commits every item of a fully-held Delay transaction:
    /// decrements consume their held AV, increments mint AV, and each
    /// committed delta enters the replication log.
    fn commit_delay(&mut self, ctx: &mut ACtx<'_>, txn: TxnId, mut pending: PendingDelay) {
        // Fan-out can cover the shortage with grants still in flight;
        // close their spans (stragglers bank their volume on arrival).
        self.drain_transfer_spans(&mut pending, ctx.now(), "superseded: shortage covered");
        for item in &pending.items {
            if item.need.is_positive() {
                self.av.consume(txn, item.product, item.need).expect("hold covers need");
                self.note_consumption(item.product, item.need, ctx.now());
            }
            // Unchecked: AV bounds the *global* stock; this replica may lag
            // behind peers' increments whose minted AV already migrated
            // here.
            self.db
                .apply_unchecked(txn, item.product, item.delta)
                .expect("valid product");
            if item.delta.is_positive() {
                self.av.deposit(item.product, item.delta).expect("AV row defined");
            }
        }
        self.db.commit(txn).expect("txn active");
        if pending.correspondences == 0 {
            self.stats.delay_local_commits += 1;
            self.registry.inc_id(self.ids.delay_commit_local);
        } else {
            self.stats.delay_remote_commits += 1;
            self.registry.inc_id(self.ids.delay_commit_remote);
        }
        // Promote shortage-path traces *now*, before the commit span and
        // the propagation deltas are recorded: the sticky promotion keeps
        // both, and the retain bit on the deltas tells replicas to keep
        // their apply spans too. Budgeted — a cell where every update
        // shorts must not retain every trace.
        if pending.had_shortage {
            self.promote_anomaly(txn.0);
        }
        let clock = self.tick();
        let commit_span = self.spans.instant_args(
            txn.0,
            pending.root_span,
            "commit",
            ctx.now(),
            clock,
            format_args!("{} item(s)", pending.items.len()),
        );
        self.flight_fields(
            ctx.now(),
            "delay.commit",
            notes::delay_commit,
            [txn.0, pending.items.len() as u64, pending.correspondences, 0],
        );
        for item in &pending.items {
            self.buffer_propagation(ctx, txn, item.product, item.delta, commit_span);
        }
        self.emit_outcome(
            ctx,
            pending.root_span,
            pending.started_at,
            LANE_DELAY,
            pending.had_shortage,
            UpdateOutcome::Committed {
                txn,
                kind: UpdateKind::Delay,
                completed_at: ctx.now(),
                correspondences: pending.correspondences,
                client: None,
            },
        );
        if self.cfg.proactive_push {
            for item in &pending.items {
                if item.delta.is_positive() {
                    self.maybe_push_av(ctx, item.product);
                }
            }
        }
        // Local consumption moved the rate EWMAs; give the rebalancer a
        // chance to act on the new projection.
        self.arm_rebalance(ctx);
    }

    /// Circulation policy (A9): if this site's available AV for `product`
    /// exceeds twice the believed mean of its peers, push half the
    /// surplus to the believed-poorest peer.
    fn maybe_push_av(&mut self, ctx: &mut ACtx<'_>, product: ProductId) {
        let n_peers = self.cfg.n_sites.saturating_sub(1);
        if n_peers == 0 {
            return;
        }
        let ranked = self.knowledge.ranked_peers(self.me, self.cfg.n_sites, product, &[]);
        let mean_peer: i64 = ranked
            .iter()
            .map(|p| self.knowledge.known(*p, product).get())
            .sum::<i64>()
            / n_peers as i64;
        let available = self.av.available(product);
        if available.get() <= 2 * mean_peer.max(1) {
            return;
        }
        let surplus = available - Volume(mean_peer.max(0));
        let push = surplus.half();
        if !push.is_positive() {
            return;
        }
        let poorest = *ranked.last().expect("n_peers > 0");
        let pushed = self.av.withdraw_up_to(product, push).expect("push ≤ available");
        if !pushed.is_positive() {
            return;
        }
        self.ledger.record(TransferRecord {
            from: self.me,
            to: poorest,
            product,
            amount: pushed,
            at: ctx.now(),
        });
        self.stats.av_pushes_sent += 1;
        self.stats.av_volume_pushed += pushed.get();
        let pusher_av = self.av.available(product);
        self.knowledge.update(poorest, product, self.knowledge.known(poorest, product) + pushed, ctx.now());
        let trace = self.fresh_aux_trace();
        let clock = self.tick();
        // Aux root — same retain-or-skip rule as replication frames.
        let root = if self.spans.trace_sampled(trace) {
            self.spans.instant_args(
                trace,
                0,
                "push",
                ctx.now(),
                clock,
                format_args!("{} of P{} to s{}", pushed.get(), product.0, poorest.0),
            )
        } else {
            0
        };
        let pusher_rate = self.local_rate(product);
        self.send_traced(
            ctx,
            poorest,
            trace,
            root,
            Msg::AvPush { product, amount: pushed, pusher_av, pusher_rate },
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn on_av_request(
        &mut self,
        ctx: &mut ACtx<'_>,
        from: SiteId,
        incoming: Option<TraceContext>,
        txn: TxnId,
        product: ProductId,
        amount: Volume,
        requester_av: Volume,
        requester_rate: i64,
    ) {
        self.knowledge.update(from, product, requester_av, ctx.now());
        self.knowledge.update_rate(from, product, requester_rate, ctx.now());
        let grant = if self.av.is_defined(product) {
            let available = self.av.available(product);
            let g = self.decide.grant_amount(available, amount);
            self.av.withdraw_up_to(product, g).expect("grant ≤ available")
        } else {
            Volume::ZERO
        };
        if grant.is_positive() {
            self.ledger.record(TransferRecord {
                from: self.me,
                to: from,
                product,
                amount: grant,
                at: ctx.now(),
            });
            self.stats.av_volume_granted += grant.get();
        }
        self.stats.av_grants_answered += 1;
        // Being asked to grant marks the trace shortage-path; the
        // requester reaches the same anomaly-keep verdict at outcome
        // time, so promoting here keeps the grant chain
        // sampling-complete without coordination.
        self.promote_anomaly(incoming.map(|c| c.trace_id).unwrap_or(txn.0));
        // The grant decision attaches under the requester's transfer span
        // (piggybacked as the incoming parent), so the causal tree crosses
        // sites.
        let clock = self.tick();
        let grant_span = self.spans.instant_args(
            incoming.map(|c| c.trace_id).unwrap_or(txn.0),
            incoming.map(|c| c.parent_span).unwrap_or(0),
            "grant",
            ctx.now(),
            clock,
            format_args!("{} of {} asked", grant.get(), amount.get()),
        );
        let grantor_av = self.av.available(product);
        let grantor_rate = self.local_rate(product);
        self.reply_along(
            ctx,
            from,
            incoming,
            grant_span,
            Msg::AvGrant { txn, product, amount: grant, grantor_av, grantor_rate },
        );
    }

    #[allow(clippy::too_many_arguments)] // mirrors the AvGrant wire fields
    fn on_av_grant(
        &mut self,
        ctx: &mut ACtx<'_>,
        from: SiteId,
        txn: TxnId,
        product: ProductId,
        amount: Volume,
        grantor_av: Volume,
        grantor_rate: i64,
    ) {
        self.knowledge.update(from, product, grantor_av, ctx.now());
        self.knowledge.update_rate(from, product, grantor_rate, ctx.now());
        self.stats.av_volume_received += amount.get();
        // Deposit first so the volume is never lost, even if the requesting
        // transaction is gone (aborted by recovery, or already committed
        // by a concurrent fan-out grant): the AV simply stays at this
        // site. This is what keeps over-grants conservation-safe.
        if amount.is_positive() && self.av.is_defined(product) {
            self.av.deposit(product, amount).expect("defined row");
        }
        let Some(pending) = self.pending_delay.get_mut(&txn) else { return };
        let Some(pos) =
            pending.outstanding.iter().position(|&(p, pr)| p == from && pr == product)
        else {
            // A grant we already gave up on (timeout fired first): the
            // volume stays deposited here, but the negotiation has moved
            // on — do not double-drive it.
            return;
        };
        pending.outstanding.swap_remove(pos);
        if let Some(sp) = pending
            .transfer_spans
            .iter()
            .position(|&(p, pr, _, _)| p == from && pr == product)
        {
            let (_, _, span, opened) = pending.transfer_spans.swap_remove(sp);
            let waited = ctx.now().since(opened);
            self.spans.note_args(span, format_args!("granted {}", amount.get()));
            self.spans.end(span, ctx.now());
            self.registry.observe_id(self.ids.phase_transfer, waited);
        }
        let item = pending.current_item();
        if item.product != product {
            // Straggler for an item an earlier grant already satisfied:
            // the deposit above banked the volume (over-grant return);
            // the current item drives its own requests.
            return;
        }
        if amount.is_positive() {
            let held = self.av.held_by(txn, product);
            let want_more = item.need - held;
            let take = want_more.min(amount);
            if take.is_positive() {
                let got = self.av.hold_up_to(txn, product, take).expect("just deposited");
                debug_assert_eq!(got, take);
            }
            let over = amount - take.max(Volume::ZERO);
            if over.is_positive() {
                // Fan-out over-shoot: granted volume beyond the need stays
                // in this site's AV table.
                self.registry.add_id(self.ids.delay_overgrant_volume, over.get() as u64);
            }
        }
        let held = self.av.held_by(txn, product);
        if held >= item.need {
            // Current item satisfied; move to the next short item (its
            // own fresh round of peer selection) or commit everything —
            // without waiting for outstanding burst stragglers.
            let pending = self.pending_delay.get_mut(&txn).expect("present");
            let items = std::mem::take(&mut pending.items);
            let next = Self::first_unsatisfied(&self.av, txn, &items, pending.current + 1);
            let pending = self.pending_delay.get_mut(&txn).expect("present");
            pending.items = items;
            match next {
                Some(next) => {
                    pending.current = next;
                    pending.asked.clear();
                    self.request_more_av(ctx, txn);
                }
                None => {
                    let pending = self.pending_delay.remove(&txn).expect("present");
                    self.commit_delay(ctx, txn, pending);
                }
            }
        } else {
            // Still short: re-ask only once the whole burst has resolved,
            // so one stingy early grant does not double-ask while better
            // grants are still in flight.
            let burst_open = self
                .pending_delay
                .get(&txn)
                .map(|p| p.outstanding.iter().any(|&(_, pr)| pr == product))
                .unwrap_or(false);
            if !burst_open {
                self.request_more_av(ctx, txn);
            }
        }
    }

    // ---- Immediate Update (Fig. 5) ------------------------------------------

    fn start_immediate(&mut self, ctx: &mut ACtx<'_>, req: UpdateRequest) {
        let txn = self.fresh_txn();
        let clock = self.tick();
        let root_span = self.spans.start_args(
            txn.0,
            0,
            "update",
            ctx.now(),
            clock,
            format_args!("immediate at s{}", self.me.0),
        );
        self.spans.instant_args(
            txn.0,
            root_span,
            "checking",
            ctx.now(),
            self.clock,
            format_args!("P{} non-regular → Immediate", req.product.0),
        );
        self.db.begin(txn).expect("fresh txn id");
        // Local lock + apply first (the coordinator is also a participant).
        let local_ok = self
            .db
            .lock(txn, req.product, LockMode::Exclusive)
            .and_then(|()| self.db.apply(txn, req.product, req.delta).map(|_| ()));
        if let Err(e) = local_ok {
            self.db.rollback(txn).expect("txn active");
            self.stats.imm_aborts += 1;
            self.registry.inc_id(self.ids.imm_abort_local);
            let reason = match e {
                AvdbError::NegativeStock { .. } => AbortReason::NegativeStock,
                _ => AbortReason::PrepareFailed { site: self.me },
            };
            self.spans.note(root_span, "aborted locally");
            self.emit_outcome(
                ctx,
                root_span,
                ctx.now(),
                LANE_IMM,
                false,
                UpdateOutcome::Aborted { txn, reason, correspondences: 0, client: None },
            );
            return;
        }
        if self.cfg.n_sites == 1 {
            self.db.commit(txn).expect("txn active");
            self.stats.imm_commits += 1;
            self.registry.inc_id(self.ids.imm_commit);
            let clock = self.tick();
            self.spans.instant(txn.0, root_span, "commit", ctx.now(), clock);
            self.emit_outcome(
                ctx,
                root_span,
                ctx.now(),
                LANE_IMM,
                false,
                UpdateOutcome::Committed {
                    txn,
                    kind: UpdateKind::Immediate,
                    completed_at: ctx.now(),
                    correspondences: 0,
                    client: None,
                },
            );
            return;
        }
        let clock = self.tick();
        let prepare_span =
            self.spans.start(txn.0, root_span, "prepare", ctx.now(), clock);
        let mut correspondences = 0;
        let peers = self.take_peers();
        for &peer in &peers {
            self.send_traced(
                ctx,
                peer,
                txn.0,
                prepare_span,
                Msg::ImmPrepare { txn, product: req.product, delta: req.delta },
            );
            correspondences += 1;
        }
        self.put_peers(peers);
        self.pending_imm.insert(
            txn,
            PendingImm {
                votes: BTreeMap::new(),
                decided: None,
                correspondences,
                product: req.product,
                delta: req.delta,
                root_span,
                prepare_span,
                decide_span: None,
                started_at: ctx.now(),
            },
        );
        let timeout = self.cfg.imm_vote_timeout;
        self.arm_timer(ctx, timeout, TimerKind::ImmVotes(txn));
    }

    fn on_imm_prepare(
        &mut self,
        ctx: &mut ACtx<'_>,
        from: SiteId,
        incoming: Option<TraceContext>,
        txn: TxnId,
        product: ProductId,
        delta: Volume,
    ) {
        let ready = self
            .db
            .begin(txn)
            .and_then(|()| self.db.lock(txn, product, LockMode::Exclusive))
            .and_then(|()| self.db.apply(txn, product, delta).map(|_| ()))
            .and_then(|()| self.db.prepare(txn))
            .is_ok();
        if ready {
            self.prepared_remote.insert(txn);
            let timeout = self.cfg.participant_timeout;
            self.arm_timer(ctx, timeout, TimerKind::ImmDecision(txn));
        } else if self.db.txn_state(txn).is_some() {
            // Partial failure (e.g. lock acquired, apply rejected): undo.
            self.db.rollback(txn).expect("txn active");
        }
        let clock = self.tick();
        let span = self.spans.instant_args(
            incoming.map(|c| c.trace_id).unwrap_or(txn.0),
            incoming.map(|c| c.parent_span).unwrap_or(0),
            "imm-prepare",
            ctx.now(),
            clock,
            format_args!("ready={ready}"),
        );
        self.flight_fields(
            ctx.now(),
            "imm.prepare",
            notes::imm_prepare,
            [txn.0, u64::from(from.0), u64::from(ready), 0],
        );
        self.reply_along(ctx, from, incoming, span, Msg::ImmVote { txn, ready });
    }

    fn on_imm_vote(
        &mut self,
        ctx: &mut ACtx<'_>,
        from: SiteId,
        txn: TxnId,
        ready: bool,
    ) {
        let Some(pending) = self.pending_imm.get_mut(&txn) else { return };
        if pending.decided.is_some() {
            return; // late vote after a timeout decision
        }
        pending.votes.insert(from, ready);
        if !ready {
            self.decide_immediate(ctx, txn, false, AbortReason::PrepareFailed { site: from });
            return;
        }
        if pending.votes.len() == self.cfg.n_sites - 1
            && pending.votes.values().all(|v| *v)
        {
            self.decide_immediate(ctx, txn, true, AbortReason::RolledBack);
        }
    }

    /// Sends the decision to all participants and settles local state.
    fn decide_immediate(
        &mut self,
        ctx: &mut ACtx<'_>,
        txn: TxnId,
        commit: bool,
        abort_reason: AbortReason,
    ) {
        let peers = self.take_peers();
        let Some(pending) = self.pending_imm.get_mut(&txn) else {
            self.put_peers(peers);
            return;
        };
        pending.decided = Some(commit);
        pending.correspondences += peers.len() as u64;
        let root_span = pending.root_span;
        let prepare_span = pending.prepare_span;
        let correspondences = pending.correspondences;
        let (product, delta) = (pending.product, pending.delta);
        self.spans.end(prepare_span, ctx.now());
        let clock = self.tick();
        let decide_span = self.spans.start_args(
            txn.0,
            root_span,
            "decide",
            ctx.now(),
            clock,
            format_args!("commit={commit}"),
        );
        if let Some(pending) = self.pending_imm.get_mut(&txn) {
            pending.decide_span = Some(decide_span);
        }
        for &peer in &peers {
            self.send_traced(
                ctx,
                peer,
                txn.0,
                decide_span,
                Msg::ImmDecision { txn, commit, product, delta },
            );
        }
        if commit && !peers.is_empty() {
            // A lost commit decision must not strand a participant: keep
            // the decision until every participant acknowledges it,
            // resending on a timer. Abort decisions need no such care —
            // a participant that never hears one aborts unilaterally,
            // which is the same outcome.
            self.retransmit_imm.insert(
                txn,
                RetransmitImm {
                    product,
                    delta,
                    missing: peers.iter().copied().collect(),
                    attempts_left: IMM_RETRANSMIT_ATTEMPTS,
                    decide_span,
                    root_span,
                },
            );
            let timeout = self.cfg.imm_vote_timeout;
            self.arm_timer(ctx, timeout, TimerKind::ImmRetransmit(txn));
        }
        self.put_peers(peers);
        self.flight_fields(
            ctx.now(),
            "imm.decide",
            notes::imm_decide,
            [txn.0, u64::from(commit), 0, 0],
        );
        if commit {
            self.db.commit(txn).expect("txn active");
            self.stats.imm_commits += 1;
            self.registry.inc_id(self.ids.imm_commit);
            // Completion is judged by the base site's Done message; when
            // the coordinator *is* the base, completion is immediate.
            if self.me == SiteId::BASE {
                self.pending_imm.remove(&txn);
                self.finish_immediate(ctx, txn, root_span, decide_span, correspondences);
            } else {
                // If the base dies between its vote and its Done, fall back
                // to local completion after a timeout — the commit itself
                // is already decided and distributed.
                let timeout = self.cfg.imm_vote_timeout;
                self.arm_timer(ctx, timeout, TimerKind::ImmCompletion(txn));
            }
        } else {
            self.db.rollback(txn).expect("txn active");
            self.stats.imm_aborts += 1;
            self.registry.inc_id(self.ids.imm_abort);
            self.flight_args(
                ctx.now(),
                "imm.abort",
                format_args!("txn {} reason {abort_reason:?}", txn.0),
            );
            // A 2PC round aborting is a flight-recorder trigger.
            self.write_flight_dump(ctx.now(), "2pc-abort");
            let pending = self.pending_imm.remove(&txn).expect("fetched above");
            self.spans.end(decide_span, ctx.now());
            self.spans.note(root_span, "aborted");
            self.emit_outcome(
                ctx,
                root_span,
                pending.started_at,
                LANE_IMM,
                false,
                UpdateOutcome::Aborted { txn, reason: abort_reason, correspondences, client: None },
            );
        }
    }

    /// Telemetry + outcome for a completed Immediate commit: closes the
    /// decide span, stamps the commit instant and ends the root.
    fn finish_immediate(
        &mut self,
        ctx: &mut ACtx<'_>,
        txn: TxnId,
        root_span: u64,
        decide_span: u64,
        correspondences: u64,
    ) {
        self.spans.end(decide_span, ctx.now());
        let clock = self.tick();
        self.spans.instant(txn.0, root_span, "commit", ctx.now(), clock);
        // `started_at` is recovered from the root span rather than carried:
        // callers may have already dropped the pending entry.
        let started_at = self
            .spans
            .records()
            .iter()
            .rev()
            .find(|r| r.span == root_span)
            .map(|r| r.start)
            .unwrap_or_else(|| ctx.now());
        self.emit_outcome(
            ctx,
            root_span,
            started_at,
            LANE_IMM,
            false,
            UpdateOutcome::Committed {
                txn,
                kind: UpdateKind::Immediate,
                completed_at: ctx.now(),
                correspondences,
                client: None,
            },
        );
    }

    #[allow(clippy::too_many_arguments)] // mirrors the ImmDecision wire fields
    fn on_imm_decision(
        &mut self,
        ctx: &mut ACtx<'_>,
        from: SiteId,
        incoming: Option<TraceContext>,
        txn: TxnId,
        commit: bool,
        product: ProductId,
        delta: Volume,
    ) {
        if !commit {
            // Aborts are promotion-worthy; the coordinator promotes at
            // outcome time, so resurrecting this site's parked spans
            // (prepare, imm-apply) keeps the aborted tree whole. Budgeted
            // like every anomaly promotion.
            self.promote_anomaly(incoming.map(|c| c.trace_id).unwrap_or(txn.0));
        }
        let known = self.prepared_remote.remove(&txn);
        let mut detail = if known {
            if commit {
                "commit=true"
            } else {
                "commit=false"
            }
        } else {
            "unknown txn"
        };
        if known {
            if commit {
                self.db.commit(txn).expect("prepared txn");
            } else {
                self.db.rollback(txn).expect("prepared txn");
            }
            self.imm_finished.insert(txn);
        } else if self.imm_finished.contains(&txn) {
            // Duplicate retransmission of a decision this site already
            // executed: just re-acknowledge.
            detail = "duplicate decision";
        } else if commit {
            // A commit decision for a txn this site no longer holds
            // prepared: the participant timed out and unilaterally
            // aborted (or crashed and lost the prepared state). The
            // decision carries the write, so execute it now — this is
            // what makes the decision round loss-tolerant.
            let applied = self
                .db
                .begin(txn)
                .and_then(|()| self.db.lock(txn, product, LockMode::Exclusive))
                .and_then(|()| self.db.apply(txn, product, delta).map(|_| ()))
                .and_then(|()| self.db.commit(txn).map(|_| ()));
            match applied {
                Ok(()) => {
                    self.imm_finished.insert(txn);
                    self.registry.inc_id(self.ids.imm_reapplied);
                    detail = "re-applied after unilateral abort";
                }
                Err(_) => {
                    // Likely a lock conflict with another prepared txn.
                    // Do not acknowledge: the coordinator will retransmit
                    // and a later attempt will find the lock free.
                    if self.db.txn_state(txn).is_some() {
                        let _ = self.db.rollback(txn);
                    }
                    let clock = self.tick();
                    self.spans.instant_args(
                        incoming.map(|c| c.trace_id).unwrap_or(txn.0),
                        incoming.map(|c| c.parent_span).unwrap_or(0),
                        "imm-apply",
                        ctx.now(),
                        clock,
                        format_args!("re-apply deferred"),
                    );
                    return;
                }
            }
        }
        let clock = self.tick();
        let span = self.spans.instant_args(
            incoming.map(|c| c.trace_id).unwrap_or(txn.0),
            incoming.map(|c| c.parent_span).unwrap_or(0),
            "imm-apply",
            ctx.now(),
            clock,
            format_args!("{detail}"),
        );
        // Even an unknown abort decision is acknowledged so the
        // coordinator can finish.
        self.reply_along(ctx, from, incoming, span, Msg::ImmDone { txn });
    }

    fn on_imm_done(&mut self, ctx: &mut ACtx<'_>, from: SiteId, txn: TxnId) {
        // Retransmission bookkeeping first: this Done may be the ack of a
        // resent decision long after the outcome was reported.
        if let Some(entry) = self.retransmit_imm.get_mut(&txn) {
            entry.missing.remove(&from);
            if entry.missing.is_empty() {
                self.retransmit_imm.remove(&txn);
            }
        }
        if !self.pending_imm.contains_key(&txn) {
            return;
        }
        // "The requesting accelerator judges the completion of the update
        // with the message from the accelerator at the base DB."
        if self.pending_imm[&txn].decided == Some(true) && from == SiteId::BASE {
            let pending = self.pending_imm.remove(&txn).expect("checked above");
            self.finish_immediate(
                ctx,
                txn,
                pending.root_span,
                pending.decide_span.unwrap_or(pending.prepare_span),
                pending.correspondences,
            );
        }
    }

    fn on_imm_votes_timeout(&mut self, ctx: &mut ACtx<'_>, txn: TxnId) {
        let Some(pending) = self.pending_imm.get(&txn) else { return };
        if pending.decided.is_some() {
            return;
        }
        let missing = self
            .peers()
            .find(|p| !self.pending_imm[&txn].votes.contains_key(p))
            .unwrap_or(SiteId::BASE);
        self.decide_immediate(ctx, txn, false, AbortReason::SiteUnavailable { site: missing });
    }

    /// The asked peer never answered: presume it dead, remember it as
    /// holding nothing, and continue with the next candidate once the
    /// rest of its burst (if any) has also resolved.
    fn on_av_grant_timeout(
        &mut self,
        ctx: &mut ACtx<'_>,
        txn: TxnId,
        peer: SiteId,
        product: ProductId,
    ) {
        let Some(pending) = self.pending_delay.get_mut(&txn) else { return };
        let Some(pos) =
            pending.outstanding.iter().position(|&(p, pr)| p == peer && pr == product)
        else {
            return; // the grant arrived before the timeout
        };
        pending.outstanding.swap_remove(pos);
        if let Some(sp) = pending
            .transfer_spans
            .iter()
            .position(|&(p, pr, _, _)| p == peer && pr == product)
        {
            let (_, _, span, opened) = pending.transfer_spans.swap_remove(sp);
            let waited = ctx.now().since(opened);
            self.spans.note_args(span, format_args!("timeout: s{} presumed dead", peer.0));
            self.spans.end(span, ctx.now());
            self.registry.observe_id(self.ids.phase_transfer, waited);
            self.registry.inc_id(self.ids.delay_grant_timeouts);
        }
        self.knowledge.update(peer, product, Volume::ZERO, ctx.now());
        let pending = self.pending_delay.get(&txn).expect("present");
        let item = pending.current_item();
        if item.product != product {
            return; // straggler timeout for an already-satisfied item
        }
        let burst_open = pending.outstanding.iter().any(|&(_, pr)| pr == product);
        if burst_open {
            return; // other burst members may still cover the shortage
        }
        if self.av.held_by(txn, product) >= item.need {
            return; // a concurrent grant already satisfied the item
        }
        self.request_more_av(ctx, txn);
    }

    fn on_participant_timeout(&mut self, txn: TxnId) {
        // Presumed abort: the decision never arrived (coordinator crashed
        // or unreachable); release the lock and undo. If the decision was
        // a commit and merely lost, its retransmission re-applies the
        // write (see `on_imm_decision`), so this stays safe under loss.
        if self.prepared_remote.remove(&txn) {
            let _ = self.db.rollback(txn);
        }
    }

    /// Resends a commit decision to every participant that has not
    /// acknowledged it yet, then re-arms the timer. Attempts are bounded
    /// so a permanently dead peer cannot hold the run open forever.
    fn on_imm_retransmit(&mut self, ctx: &mut ACtx<'_>, txn: TxnId) {
        let Some(entry) = self.retransmit_imm.get_mut(&txn) else { return };
        if entry.attempts_left == 0 {
            let root_span = entry.root_span;
            self.retransmit_imm.remove(&txn);
            self.spans.note(root_span, "gave up retransmitting decision");
            return;
        }
        entry.attempts_left -= 1;
        let (product, delta, decide_span) = (entry.product, entry.delta, entry.decide_span);
        let missing: Vec<SiteId> = entry.missing.iter().copied().collect();
        self.registry.add_id(self.ids.imm_decision_retransmits, missing.len() as u64);
        for peer in missing {
            self.send_traced(
                ctx,
                peer,
                txn.0,
                decide_span,
                Msg::ImmDecision { txn, commit: true, product, delta },
            );
        }
        let timeout = self.cfg.imm_vote_timeout;
        self.arm_timer(ctx, timeout, TimerKind::ImmRetransmit(txn));
    }
}

impl Accelerator {
    fn arm_anti_entropy(&mut self, ctx: &mut ACtx<'_>) {
        if let Some(interval) = self.cfg.anti_entropy_interval {
            if !self.anti_entropy_armed {
                self.anti_entropy_armed = true;
                self.arm_timer(ctx, interval, TimerKind::AntiEntropy);
            }
        }
    }

    /// Arms the series window timer at the next absolute boundary. Called
    /// on every input and message, so the first activity after an idle
    /// (disarmed) stretch re-arms the very next boundary — which is what
    /// guarantees every recorded window's deltas occurred inside it.
    fn arm_series(&mut self, ctx: &mut ACtx<'_>) {
        if self.series_armed {
            return;
        }
        let Some(rec) = &self.series else { return };
        self.series_armed = true;
        let delay = rec.next_boundary(ctx.now().0) - ctx.now().0;
        self.arm_timer(ctx, delay, TimerKind::SeriesWindow);
    }

    /// One window boundary: roll the registry into the ring, dump the
    /// flight recorder for every watchdog rule that transitioned to
    /// firing, and re-arm only if the window recorded anything (an idle
    /// system lets the timer lapse, so quiescent runs still drain).
    fn on_series_window(&mut self, ctx: &mut ACtx<'_>) {
        self.series_armed = false;
        let now = ctx.now();
        let outcome = match self.series.as_mut() {
            Some(rec) => rec.roll(now.0, &mut self.registry),
            None => return,
        };
        for firing in &outcome.firings {
            self.registry.inc_id(self.ids.watchdog_fired);
            self.flight.record(
                now.0,
                self.clock,
                "series.watchdog",
                format!("{} at window {}: {}", firing.rule, firing.window, firing.detail),
            );
        }
        for firing in &outcome.firings {
            self.write_flight_dump(now, &format!("watchdog-{}", firing.rule));
        }
        if outcome.recorded {
            self.arm_series(ctx);
        }
    }
}

impl Actor for Accelerator {
    type Msg = TracedMsg;
    type Input = Input;
    type Output = UpdateOutcome;

    fn on_start(&mut self, ctx: &mut ACtx<'_>) {
        self.arm_anti_entropy(ctx);
        self.arm_rebalance(ctx);
        self.arm_series(ctx);
    }

    fn on_input(&mut self, ctx: &mut ACtx<'_>, input: Input) {
        self.arm_series(ctx);
        match input {
            Input::ClientUpdate { client, req } => {
                // Same path as a plain update; the pending tag is picked
                // up by `fresh_txn` and stamped into the outcome by
                // `emit_outcome`, whenever that happens.
                self.pending_client_tag = Some(client);
                self.on_input(ctx, Input::Update(req));
                self.pending_client_tag = None;
            }
            Input::Update(req) => {
                debug_assert_eq!(req.site, self.me, "update injected at wrong site");
                // The checking function: AV row defined → Delay, else
                // Immediate (paper §3.3).
                if self.db.class(req.product).is_err() {
                    let txn = self.fresh_txn();
                    let clock = self.tick();
                    let root = self.spans.start_with(
                        txn.0,
                        0,
                        "update",
                        ctx.now(),
                        clock,
                        format!("rejected at s{}", self.me.0),
                    );
                    self.spans.instant_with(
                        txn.0,
                        root,
                        "checking",
                        ctx.now(),
                        self.clock,
                        "unknown product".to_string(),
                    );
                    self.emit_outcome(
                        ctx,
                        root,
                        ctx.now(),
                        // Checking rejected the update before a lane was
                        // assigned; account it to the strict lane.
                        LANE_IMM,
                        false,
                        UpdateOutcome::Aborted {
                            txn,
                            reason: AbortReason::UnknownProduct,
                            correspondences: 0,
                            client: None,
                        },
                    );
                } else if self.av.is_defined(req.product) {
                    self.start_delay(ctx, req);
                } else {
                    self.start_immediate(ctx, req);
                }
            }
            Input::MultiUpdate { items } => {
                // The checking function applied to every item: all must be
                // Delay-eligible.
                let all_delay = !items.is_empty()
                    && items.iter().all(|(product, _)| {
                        self.db.class(*product).is_ok() && self.av.is_defined(*product)
                    });
                if all_delay {
                    self.start_delay_multi(ctx, items);
                } else {
                    let txn = self.fresh_txn();
                    let clock = self.tick();
                    let root = self.spans.start_with(
                        txn.0,
                        0,
                        "update",
                        ctx.now(),
                        clock,
                        format!("rejected at s{}", self.me.0),
                    );
                    self.spans.instant_with(
                        txn.0,
                        root,
                        "checking",
                        ctx.now(),
                        self.clock,
                        "multi-update not Delay-eligible".to_string(),
                    );
                    self.emit_outcome(
                        ctx,
                        root,
                        ctx.now(),
                        // A multi-update is a Delay-lane request even
                        // when checking rejects it.
                        LANE_DELAY,
                        false,
                        UpdateOutcome::Aborted {
                            txn,
                            reason: AbortReason::NotDelayEligible,
                            correspondences: 0,
                            client: None,
                        },
                    );
                }
            }
            Input::FlushPropagation => self.flush_propagation(ctx),
            Input::Reclassify { product, class, local_av } => {
                if class.uses_av() {
                    self.av.define(product, local_av).expect("valid product");
                } else if self.av.is_defined(product) {
                    self.av.undefine(product).expect("valid product");
                }
                self.db.reclassify(product, class).expect("valid product");
            }
            Input::Checkpoint => self.db.checkpoint(),
        }
    }

    fn on_message(&mut self, ctx: &mut ACtx<'_>, from: SiteId, msg: TracedMsg) {
        let TracedMsg { ctx: incoming, msg } = msg;
        // Lamport merge: every receipt advances past the sender's clock.
        if let Some(c) = incoming {
            self.clock = self.clock.max(c.clock);
        }
        self.clock += 1;
        self.registry.inc_id(self.ids.msg_recv[msg.kind_index()]);
        self.arm_series(ctx);
        match msg {
            Msg::AvRequest { txn, product, amount, requester_av, requester_rate } => self
                .on_av_request(
                    ctx,
                    from,
                    incoming,
                    txn,
                    product,
                    amount,
                    requester_av,
                    requester_rate,
                ),
            Msg::AvGrant { txn, product, amount, grantor_av, grantor_rate } => {
                self.on_av_grant(ctx, from, txn, product, amount, grantor_av, grantor_rate)
            }
            Msg::AvPush { product, amount, pusher_av, pusher_rate } => {
                self.knowledge.update(from, product, pusher_av, ctx.now());
                self.knowledge.update_rate(from, product, pusher_rate, ctx.now());
                if self.av.is_defined(product) {
                    self.av.deposit(product, amount).expect("defined row");
                }
                // If the product was reclassified here meanwhile the
                // volume is returned on the ack path implicitly by the
                // receiver_av report (the pusher learns we hold nothing);
                // conservation-wise the deposit above only skips when the
                // row is undefined everywhere, i.e. the product left the
                // Delay regime entirely.
                let receiver_av = self.av.available(product);
                let receiver_rate = self.local_rate(product);
                let span = incoming
                    .map(|c| {
                        let clock = self.tick();
                        self.spans.instant_args(
                            c.trace_id,
                            c.parent_span,
                            "push-recv",
                            ctx.now(),
                            clock,
                            format_args!("{} of P{}", amount.get(), product.0),
                        )
                    })
                    .unwrap_or(0);
                self.reply_along(
                    ctx,
                    from,
                    incoming,
                    span,
                    Msg::AvPushAck { product, receiver_av, receiver_rate },
                );
            }
            Msg::AvPushAck { product, receiver_av, receiver_rate } => {
                self.knowledge.update(from, product, receiver_av, ctx.now());
                self.knowledge.update_rate(from, product, receiver_rate, ctx.now());
            }
            Msg::Propagate { offset, deltas, checkpoint, knowledge, .. } => {
                self.knowledge.apply_digest(self.me, &knowledge);
                let mut ck_upto = 0;
                if let Some(ck) = &checkpoint {
                    let (upto, synth) = self.repl.apply_checkpoint(from, ck);
                    ck_upto = upto;
                    if !synth.is_empty() {
                        self.flight_args(
                            ctx.now(),
                            "repl.checkpoint",
                            format_args!(
                                "from s{}: folded prefix upto {upto}, {} products moved",
                                from.0,
                                synth.len()
                            ),
                        );
                    }
                    for d in synth {
                        self.db
                            .apply_committed(d.txn, d.product, d.delta)
                            .expect("catalog is identical at all sites");
                        self.stats.propagation_deltas_applied += 1;
                        self.registry
                            .observe_id(self.ids.repl_convergence, ctx.now().since(d.committed_at));
                    }
                }
                let (upto, fresh) = self.repl.apply_frame(from, offset, deltas);
                let upto = upto.max(ck_upto);
                let batch_span = incoming
                    .map(|c| {
                        let clock = self.tick();
                        self.spans.instant_args(
                            c.trace_id,
                            c.parent_span,
                            "apply-batch",
                            ctx.now(),
                            clock,
                            format_args!("from s{}: {} fresh", from.0, fresh.len()),
                        )
                    })
                    .unwrap_or(0);
                self.flight_fields(
                    ctx.now(),
                    "repl.apply",
                    notes::repl_apply,
                    [u64::from(from.0), fresh.len() as u64, upto, 0],
                );
                for d in &fresh {
                    self.db
                        .apply_committed(d.txn, d.product, d.delta)
                        .expect("catalog is identical at all sites");
                    self.stats.propagation_deltas_applied += 1;
                    // Time-to-convergence: how long this lazily propagated
                    // delta took from origin commit to landing here.
                    self.registry
                        .observe_id(self.ids.repl_convergence, ctx.now().since(d.committed_at));
                    // The remote apply joins the *update's* tree, under the
                    // origin's commit span carried by the delta. Honor the
                    // origin's retain decision first so a promoted
                    // (shortage/abort-adjacent) trace keeps this span.
                    if d.retained {
                        self.spans.promote(d.txn.0);
                    }
                    let clock = self.tick();
                    self.spans.instant_args(
                        d.txn.0,
                        d.commit_span,
                        "apply",
                        ctx.now(),
                        clock,
                        format_args!("P{} {:+} at s{}", d.product.0, d.delta.get(), self.me.0),
                    );
                }
                self.reply_along(ctx, from, incoming, batch_span, Msg::PropagateAck { upto });
            }
            Msg::PropagateAck { upto } => {
                self.repl.on_ack(from, upto);
                self.refresh_repl_gauges();
                if let Some(c) = incoming {
                    let clock = self.tick();
                    self.spans.instant_args(
                        c.trace_id,
                        c.parent_span,
                        "replicate-ack",
                        ctx.now(),
                        clock,
                        format_args!("s{} applied below {}", from.0, upto),
                    );
                }
            }
            Msg::ImmPrepare { txn, product, delta } => {
                self.on_imm_prepare(ctx, from, incoming, txn, product, delta)
            }
            Msg::ImmVote { txn, ready } => self.on_imm_vote(ctx, from, txn, ready),
            Msg::ImmDecision { txn, commit, product, delta } => {
                self.on_imm_decision(ctx, from, incoming, txn, commit, product, delta)
            }
            Msg::ImmDone { txn } => self.on_imm_done(ctx, from, txn),
        }
    }

    fn on_timer(&mut self, ctx: &mut ACtx<'_>, token: u64) {
        match self.timers.remove(&token) {
            Some(TimerKind::ImmVotes(txn)) => self.on_imm_votes_timeout(ctx, txn),
            Some(TimerKind::ImmDecision(txn)) => self.on_participant_timeout(txn),
            Some(TimerKind::AvGrant(txn, peer, product)) => {
                self.on_av_grant_timeout(ctx, txn, peer, product)
            }
            Some(TimerKind::Rebalance) => self.on_rebalance(ctx),
            Some(TimerKind::AntiEntropy) => {
                self.anti_entropy_armed = false;
                self.flush_propagation(ctx);
                // Keep beating only while some peer is behind; the next
                // local commit re-arms otherwise.
                if !self.repl.fully_acked() {
                    self.arm_anti_entropy(ctx);
                }
            }
            Some(TimerKind::ImmRetransmit(txn)) => self.on_imm_retransmit(ctx, txn),
            Some(TimerKind::SeriesWindow) => self.on_series_window(ctx),
            Some(TimerKind::ImmCompletion(txn)) => {
                if let Some(pending) = self.pending_imm.remove(&txn) {
                    debug_assert_eq!(pending.decided, Some(true));
                    self.spans.note(pending.root_span, "base Done timed out");
                    self.finish_immediate(
                        ctx,
                        txn,
                        pending.root_span,
                        pending.decide_span.unwrap_or(pending.prepare_span),
                        pending.correspondences,
                    );
                }
            }
            None => {}
        }
    }

    fn on_crash(&mut self) {
        // Fail-stop: volatile protocol state is gone. The WAL, AV ledger
        // and catalog are durable; the table is rebuilt on recover. The
        // span collector and registry survive deliberately: telemetry is
        // the observer's record, not the site's state, and spans of wiped
        // updates simply stay open (end = None marks the fault).
        self.registry.inc_id(self.ids.site_crashes);
        // No handler context here (the fault injector stops the site from
        // outside), so the crash event reuses the last recorded tick —
        // the crash happened at-or-after the last thing the ring saw.
        let last_at = self.flight.last_at().unwrap_or(0);
        let wiped = self.pending_delay.len() + self.pending_imm.len();
        self.flight
            .record(last_at, self.clock, "site.crash", format!("{wiped} in-flight wiped"));
        self.db.crash();
        self.stats.wiped_in_flight +=
            (self.pending_delay.len() + self.pending_imm.len()) as u64;
        // A commit decision already taken is durable (decide_immediate
        // wrote the WAL commit record before this crash), so the update
        // committed cluster-wide no matter what this site does next —
        // only its outcome report is outstanding. Park those entries for
        // re-report at recovery; everything else is genuinely wiped. The
        // wiped counter above still includes them so a never-recovered
        // site keeps the old accounting; re-reporting decrements it.
        let mut decided: Vec<TxnId> = self
            .pending_imm
            .iter()
            .filter(|(_, p)| p.decided == Some(true))
            .map(|(txn, _)| *txn)
            .collect();
        // Map order is arbitrary: re-report in txn order.
        decided.sort_unstable();
        for txn in decided {
            let pending = self.pending_imm.remove(&txn).expect("just listed");
            self.unreported_imm.push((txn, pending));
        }
        self.pending_delay.clear();
        self.pending_imm.clear();
        self.prepared_remote.clear();
        // Undelivered decisions die with the coordinator (2PC's inherent
        // coordinator-crash window); `imm_finished` survives — it is
        // derivable from the durable WAL.
        self.retransmit_imm.clear();
        self.timers.clear();
        self.anti_entropy_armed = false;
        self.rebalance_armed = false;
        self.series_armed = false;
        // Holds belonged to the in-flight transactions that just died.
        self.av.release_all_holds();
    }

    fn on_recover(&mut self, ctx: &mut ACtx<'_>) {
        self.db.recover().expect("WAL replay must succeed");
        self.stats.recoveries += 1;
        self.flight_note(
            ctx.now(),
            "wal.recover",
            format!("recovery #{}", self.stats.recoveries),
        );
        // A WAL recovery is a flight-recorder trigger.
        self.write_flight_dump(ctx.now(), "wal-recovery");
        // Timers are volatile; restart the anti-entropy heartbeat, the
        // rebalancer tick and the series window timer.
        self.arm_anti_entropy(ctx);
        self.arm_rebalance(ctx);
        self.arm_series(ctx);
        // Commits decided before the crash are in the replayed WAL and
        // already executed across the cluster; the client just never
        // heard. Report them now — late, but truthful — and give back
        // their wiped-in-flight slots.
        for (txn, pending) in std::mem::take(&mut self.unreported_imm) {
            self.stats.wiped_in_flight = self.stats.wiped_in_flight.saturating_sub(1);
            self.registry.inc_id(self.ids.imm_rereported);
            self.flight_note(
                ctx.now(),
                "imm.rereport",
                format!("txn {} decided before crash", txn.0),
            );
            self.finish_immediate(
                ctx,
                txn,
                pending.root_span,
                pending.decide_span.unwrap_or(pending.prepare_span),
                pending.correspondences,
            );
        }
    }
}

impl avdb_simnet::Introspect for Accelerator {
    fn metrics_text(&self) -> String {
        Accelerator::metrics_text(self)
    }
    fn status_json(&self) -> String {
        serde_json::to_string_pretty(&self.status()).expect("status serializes")
    }
    fn answer_path(&self, path: &str) -> Option<String> {
        // `/read/<product>`: one product's local stock + AV availability,
        // the gateway's Read request. Answered from the same event-loop
        // snapshot discipline as `/status`, so reads are consistent with
        // the site's own commit order.
        let product = path.strip_prefix("/read/")?.parse::<u32>().ok()?;
        let p = ProductId(product);
        let stock = self.db.stock(p).ok()?;
        let defined = self.av.is_defined(p);
        Some(format!(
            "{{\"product\":{},\"stock\":{},\"av_defined\":{},\"av_available\":{}}}",
            product,
            stock.get(),
            defined,
            if defined { self.av.available(p).get() } else { 0 },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> SystemConfig {
        SystemConfig::builder()
            .sites(3)
            .regular_products(2, Volume(90))
            .non_regular_products(1, Volume(30))
            .build()
            .unwrap()
    }

    #[test]
    fn constructor_defines_av_for_regular_products_only() {
        let cfg = config();
        let acc = Accelerator::new(SiteId(1), &cfg);
        assert!(acc.av().is_defined(ProductId(0)));
        assert!(acc.av().is_defined(ProductId(1)));
        assert!(!acc.av().is_defined(ProductId(2)));
        // Uniform split of 90 over 3 sites.
        assert_eq!(acc.av().available(ProductId(0)), Volume(30));
        assert!(acc.is_idle());
    }

    #[test]
    fn knowledge_seeded_from_initial_split() {
        let cfg = config();
        let acc = Accelerator::new(SiteId(2), &cfg);
        assert_eq!(acc.knowledge().known(SiteId(0), ProductId(0)), Volume(30));
        assert_eq!(acc.knowledge().known(SiteId(1), ProductId(0)), Volume(30));
    }

    #[test]
    fn config_derivation() {
        let cfg = config();
        let ac = AcceleratorConfig::from_system(&cfg);
        assert_eq!(ac.n_sites, 3);
        assert_eq!(ac.max_av_rounds, 2);
        assert_eq!(ac.propagation_batch, 1);
        assert!(ac.imm_vote_timeout > 0);
        assert!(ac.participant_timeout > ac.imm_vote_timeout);
        // Fast-lane knobs default to the paper's serial behaviour.
        assert_eq!(ac.shortage_fanout, 0);
        assert_eq!(ac.rebalance_horizon_ticks, 0);
    }

    #[test]
    fn fast_lane_knobs_thread_through() {
        let cfg = SystemConfig::builder()
            .sites(3)
            .regular_products(2, Volume(90))
            .shortage_fanout(4)
            .rebalance_horizon_ticks(512)
            .build()
            .unwrap();
        let ac = AcceleratorConfig::from_system(&cfg);
        assert_eq!(ac.shortage_fanout, 4);
        assert_eq!(ac.rebalance_horizon_ticks, 512);
    }

    #[test]
    fn consumption_rate_ewma_rises_with_use_and_is_piggybacked() {
        let cfg = config();
        let mut acc = Accelerator::new(SiteId(0), &cfg);
        assert_eq!(acc.local_rate(ProductId(0)), 0);
        acc.note_consumption(ProductId(0), Volume(10), VirtualTime(5));
        let first = acc.local_rate(ProductId(0));
        assert!(first > 0, "one decrement moves the EWMA off zero");
        acc.note_consumption(ProductId(0), Volume(10), VirtualTime(10));
        assert!(acc.local_rate(ProductId(0)) > first, "sustained use keeps raising it");
        // Untouched products stay at zero (infinite horizon).
        assert_eq!(acc.local_rate(ProductId(1)), 0);
    }
}
