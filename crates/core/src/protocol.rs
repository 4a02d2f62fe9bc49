//! Wire protocol of the autonomous-consistency mechanism.
//!
//! Every exchange is a request/reply pair so the paper's accounting
//! ("2 messages are counted as 1 correspondence") holds exactly:
//!
//! | request              | reply            | purpose                      |
//! |----------------------|------------------|------------------------------|
//! | [`Msg::AvRequest`]   | [`Msg::AvGrant`] | AV transfer (Delay, Fig. 4)  |
//! | [`Msg::Propagate`]   | [`Msg::PropagateAck`] | lazy replication        |
//! | [`Msg::ImmPrepare`]  | [`Msg::ImmVote`] | Immediate lock+apply (Fig. 5)|
//! | [`Msg::ImmDecision`] | [`Msg::ImmDone`] | Immediate commit/abort       |
//!
//! AV messages piggyback the sender's current available AV for the
//! product; that is the *only* way peer knowledge spreads (§4: the
//! selection information "is collected at the necessary communication for
//! AV management and may not be current data").

use avdb_simnet::{MsgInfo, TraceContext};
use avdb_types::{ProductClass, ProductId, TxnId, UpdateRequest, VirtualTime, Volume};
use serde::{Deserialize, Serialize};

/// One committed delta carried by a propagation batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PropagateDelta {
    /// Transaction that committed at the origin.
    pub txn: TxnId,
    /// Product updated.
    pub product: ProductId,
    /// Committed stock change.
    pub delta: Volume,
    /// Telemetry: the origin's "commit" span id, so the remote apply span
    /// attaches to the right place in the update's causal tree. `0` when
    /// unknown (e.g. state rebuilt outside a traced run); plain data, so
    /// it rides the replication snapshot through crash recovery.
    pub commit_span: u64,
    /// Telemetry: whether the origin retained this trace's spans (head
    /// sampled or promoted by commit time). Receivers promote the trace
    /// locally before recording their apply span, so a shortage-path
    /// update's tree stays complete across every replica even at low
    /// sample rates. Defaults to `false` for deltas persisted before the
    /// field existed.
    #[serde(default)]
    pub retained: bool,
    /// Virtual time at which the origin committed the delta. Receivers
    /// subtract it from their arrival time to observe the lazy-propagation
    /// convergence lag (`repl.convergence.ticks`); under the sim clock the
    /// lag is deterministic, under live transports it is wall-derived.
    pub committed_at: VirtualTime,
}

/// Checkpoint prefix of a propagation frame: the cumulative per-product
/// net volume of the origin's replication log below `upto`, carried when
/// the receiver's acknowledgement fell behind the origin's truncation
/// base (the raw entries were folded away). Application is idempotent:
/// the receiver subtracts its own per-origin applied nets, so any cursor
/// position — including mid-range after a crash — lands on the same
/// state, and duplicates apply as zero.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplCheckpoint {
    /// Absolute log offset the checkpoint covers up to (exclusive).
    pub upto: u64,
    /// Cumulative net volume per product over `[0..upto)`, indexed by
    /// product id (trailing zeros trimmed by construction is fine — the
    /// receiver treats a missing index as zero).
    pub nets: Vec<i64>,
    /// Commit time of the newest folded entry, so receivers can observe
    /// convergence lag for checkpoint applies without per-entry stamps.
    pub as_of: VirtualTime,
}

/// One row of a piggybacked peer-knowledge digest: what the sender
/// believes `site` holds for `product`, stamped with the observation
/// times. Receivers merge rows under the same freshness rule as direct
/// piggybacks, so relayed (third-party) knowledge can never regress a
/// fresher local view.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct KnowledgeRow {
    /// Site the belief is about.
    pub site: avdb_types::SiteId,
    /// Product the belief is about.
    pub product: ProductId,
    /// Believed available AV.
    pub av: Volume,
    /// When the AV belief was observed.
    pub at: VirtualTime,
    /// Believed consumption-rate EWMA (volume per kilotick).
    pub rate: i64,
    /// When the rate belief was observed.
    pub rate_at: VirtualTime,
}

/// Protocol messages exchanged between accelerators.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Msg {
    /// Delay path: ask a peer for AV.
    AvRequest {
        /// Requesting transaction (grants are matched back to it).
        txn: TxnId,
        /// Product whose AV is short.
        product: ProductId,
        /// Volume requested (the deciding function's request amount).
        amount: Volume,
        /// Requester's available AV after holding everything it has —
        /// piggybacked knowledge for the grantor's future selections.
        requester_av: Volume,
        /// Requester's per-product consumption-rate EWMA (volume per
        /// kilotick) — piggybacked for the grantor's proactive
        /// rebalancer, at zero wire cost beyond the field itself.
        #[serde(default)]
        requester_rate: i64,
    },
    /// Delay path: grant (possibly zero) AV back to a requester.
    AvGrant {
        /// The requesting transaction.
        txn: TxnId,
        /// Product granted.
        product: ProductId,
        /// Volume granted; zero means "have nothing to give".
        amount: Volume,
        /// Grantor's remaining available AV — piggybacked knowledge.
        grantor_av: Volume,
        /// Grantor's consumption-rate EWMA — piggybacked knowledge.
        #[serde(default)]
        grantor_rate: i64,
    },
    /// Lazy replication of committed Delay deltas. `offset` is the
    /// absolute index of `deltas[0]` in the origin's replication log;
    /// receivers deduplicate on it, making delivery idempotent (crash
    /// retransmissions are safe).
    Propagate {
        /// Absolute log offset of the first delta.
        offset: u64,
        /// Log entries this frame covers, starting at `offset`. Every
        /// sender sets it to `deltas.len()`; receivers derive the range
        /// from the payload and ignore it. It stays on the wire because
        /// the benchmark's message tally reads it.
        #[serde(default)]
        covers: u64,
        /// Deltas in origin commit order.
        deltas: Vec<PropagateDelta>,
        /// Checkpoint prefix, present when the receiver's ack fell below
        /// the origin's truncation base: cumulative per-product nets of
        /// the folded range `[0..checkpoint.upto)`, applied idempotently
        /// before `deltas`. Absent on frames from origins that still hold
        /// the raw entries (and on all pre-checkpoint wire traffic).
        #[serde(default)]
        checkpoint: Option<ReplCheckpoint>,
        /// Delta-compressed peer-knowledge digest: only the cells that
        /// advanced since the last frame this origin sent to this
        /// receiver. Empty (and absent on old wire traffic) when nothing
        /// changed — the digest rides for free on replication traffic,
        /// honoring §4's rule that knowledge spreads only on AV traffic.
        #[serde(default)]
        knowledge: Vec<KnowledgeRow>,
    },
    /// Cumulative acknowledgement of propagation (keeps pairing exact and
    /// lets the origin truncate its replication log).
    PropagateAck {
        /// The receiver has applied the origin's log below this offset.
        upto: u64,
    },
    /// Proactive circulation (§3.4 extension): a site pushes surplus AV
    /// to the peer it believes poorest, without waiting for a shortage.
    AvPush {
        /// Product whose AV is pushed.
        product: ProductId,
        /// Volume pushed (always positive).
        amount: Volume,
        /// Pusher's remaining available AV — piggybacked knowledge.
        pusher_av: Volume,
        /// Pusher's consumption-rate EWMA — piggybacked knowledge.
        #[serde(default)]
        pusher_rate: i64,
    },
    /// Acknowledges a push (keeps pairing exact) and reports the
    /// receiver's new AV level back.
    AvPushAck {
        /// Product acknowledged.
        product: ProductId,
        /// Receiver's available AV after the deposit.
        receiver_av: Volume,
        /// Receiver's consumption-rate EWMA — piggybacked knowledge.
        #[serde(default)]
        receiver_rate: i64,
    },
    /// Immediate path: coordinator asks a participant to lock and apply.
    ImmPrepare {
        /// The distributed transaction.
        txn: TxnId,
        /// Product updated.
        product: ProductId,
        /// Stock change.
        delta: Volume,
    },
    /// Immediate path: participant's vote ("ready and commitment messages
    /// are exchanged").
    ImmVote {
        /// The distributed transaction.
        txn: TxnId,
        /// `true` when locked, applied and prepared.
        ready: bool,
    },
    /// Immediate path: coordinator's decision.
    ImmDecision {
        /// The distributed transaction.
        txn: TxnId,
        /// Commit or abort.
        commit: bool,
        /// Product updated, repeated from the prepare: a retransmitted
        /// commit decision must be executable by a participant that
        /// already timed out and unilaterally aborted (or crashed), and
        /// such a participant no longer holds the prepared state.
        product: ProductId,
        /// Stock change, repeated from the prepare (see `product`).
        delta: Volume,
    },
    /// Immediate path: participant finished executing the decision. The
    /// coordinator "judges the completion of the update with the message
    /// from the accelerator at the base DB".
    ImmDone {
        /// The distributed transaction.
        txn: TxnId,
    },
}

impl MsgInfo for Msg {
    fn kind(&self) -> &'static str {
        match self {
            Msg::AvRequest { .. } => "av-request",
            Msg::AvGrant { .. } => "av-grant",
            Msg::AvPush { .. } => "av-push",
            Msg::AvPushAck { .. } => "av-push-ack",
            Msg::Propagate { .. } => "propagate",
            Msg::PropagateAck { .. } => "propagate-ack",
            Msg::ImmPrepare { .. } => "imm-prepare",
            Msg::ImmVote { .. } => "imm-vote",
            Msg::ImmDecision { .. } => "imm-decision",
            Msg::ImmDone { .. } => "imm-done",
        }
    }
}

/// Number of wire message kinds; [`Msg::kind_index`] is always below it.
pub const MSG_KIND_COUNT: usize = 10;

/// Send-counter names, indexed by [`Msg::kind_index`]. Kept as a table so
/// callers can intern every kind's counter id once at registration and
/// index it per message instead of hashing the name.
pub const SENT_COUNTER_KEYS: [&str; MSG_KIND_COUNT] = [
    "msg.sent.av-request",
    "msg.sent.av-grant",
    "msg.sent.av-push",
    "msg.sent.av-push-ack",
    "msg.sent.propagate",
    "msg.sent.propagate-ack",
    "msg.sent.imm-prepare",
    "msg.sent.imm-vote",
    "msg.sent.imm-decision",
    "msg.sent.imm-done",
];

/// Receive-counter names, indexed by [`Msg::kind_index`].
pub const RECV_COUNTER_KEYS: [&str; MSG_KIND_COUNT] = [
    "msg.recv.av-request",
    "msg.recv.av-grant",
    "msg.recv.av-push",
    "msg.recv.av-push-ack",
    "msg.recv.propagate",
    "msg.recv.propagate-ack",
    "msg.recv.imm-prepare",
    "msg.recv.imm-vote",
    "msg.recv.imm-decision",
    "msg.recv.imm-done",
];

impl Msg {
    /// Dense kind index into [`SENT_COUNTER_KEYS`] / [`RECV_COUNTER_KEYS`].
    pub fn kind_index(&self) -> usize {
        match self {
            Msg::AvRequest { .. } => 0,
            Msg::AvGrant { .. } => 1,
            Msg::AvPush { .. } => 2,
            Msg::AvPushAck { .. } => 3,
            Msg::Propagate { .. } => 4,
            Msg::PropagateAck { .. } => 5,
            Msg::ImmPrepare { .. } => 6,
            Msg::ImmVote { .. } => 7,
            Msg::ImmDecision { .. } => 8,
            Msg::ImmDone { .. } => 9,
        }
    }

    /// The registry counter bumped when this message is sent. Pre-baked
    /// so the per-message hot path never formats a key.
    pub fn sent_counter_key(&self) -> &'static str {
        SENT_COUNTER_KEYS[self.kind_index()]
    }

    /// The registry counter bumped when this message is received.
    pub fn recv_counter_key(&self) -> &'static str {
        RECV_COUNTER_KEYS[self.kind_index()]
    }
}

/// The wire envelope: a protocol message plus the piggybacked causal
/// context that lets telemetry stitch one update's spans across sites and
/// merge Lamport clocks. The context is optional so hand-built or
/// recovered messages stay valid; the accelerator stamps it on everything
/// it sends.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TracedMsg {
    /// Causal context of the sending operation (`None` = untraced).
    pub ctx: Option<TraceContext>,
    /// The protocol payload.
    pub msg: Msg,
}

impl TracedMsg {
    /// Wraps a message with no causal context.
    pub fn plain(msg: Msg) -> Self {
        TracedMsg { ctx: None, msg }
    }
}

impl From<Msg> for TracedMsg {
    fn from(msg: Msg) -> Self {
        TracedMsg::plain(msg)
    }
}

impl MsgInfo for TracedMsg {
    fn kind(&self) -> &'static str {
        self.msg.kind()
    }

    fn trace_context(&self) -> Option<TraceContext> {
        self.ctx
    }
}

/// External inputs the harness can inject into an accelerator.
#[derive(Clone, Debug, PartialEq)]
pub enum Input {
    /// A user update request (the normal case).
    Update(UpdateRequest),
    /// An update submitted through a client gateway. Identical to
    /// [`Input::Update`] except that the accelerator stamps `client`
    /// into the resulting [`avdb_types::UpdateOutcome`], letting the
    /// gateway route the outcome back to the submitting connection by
    /// tag rather than by guessing transaction ids.
    ClientUpdate {
        /// Gateway-chosen correlation tag (opaque to the accelerator).
        client: u64,
        /// The update itself.
        req: UpdateRequest,
    },
    /// A multi-item update: all `(product, delta)` pairs commit atomically
    /// through the Delay path. Every product must be regular (AV-managed);
    /// mixing in a non-regular product aborts the whole transaction — the
    /// Immediate path is single-record by the paper's Fig. 5 and combining
    /// regimes in one transaction is out of scope.
    MultiUpdate {
        /// Items in application order.
        items: Vec<(ProductId, Volume)>,
    },
    /// Force-flush the propagation buffer regardless of batch size
    /// (used at end of runs to reach replica convergence).
    FlushPropagation,
    /// Reclassify a product at runtime (adaptation experiments). The
    /// harness injects this at every site simultaneously.
    Reclassify {
        /// Product to reclassify.
        product: ProductId,
        /// New class.
        class: ProductClass,
        /// System-wide AV to define locally when switching to `Regular`
        /// (this site's share of the re-split).
        local_av: Volume,
    },
    /// Take a local checkpoint (WAL truncation).
    Checkpoint,
}

#[cfg(test)]
mod tests {
    use super::*;
    use avdb_types::SiteId;

    fn txn() -> TxnId {
        TxnId::new(SiteId(1), 9)
    }

    #[test]
    fn every_message_kind_is_distinct() {
        let msgs = vec![
            Msg::AvRequest { txn: txn(), product: ProductId(0), amount: Volume(1), requester_av: Volume(0), requester_rate: 0 },
            Msg::AvGrant { txn: txn(), product: ProductId(0), amount: Volume(1), grantor_av: Volume(0), grantor_rate: 0 },
            Msg::AvPush { product: ProductId(0), amount: Volume(1), pusher_av: Volume(0), pusher_rate: 0 },
            Msg::AvPushAck { product: ProductId(0), receiver_av: Volume(1), receiver_rate: 0 },
            Msg::Propagate { offset: 0, covers: 0, deltas: vec![], checkpoint: None, knowledge: vec![] },
            Msg::PropagateAck { upto: 0 },
            Msg::ImmPrepare { txn: txn(), product: ProductId(0), delta: Volume(1) },
            Msg::ImmVote { txn: txn(), ready: true },
            Msg::ImmDecision { txn: txn(), commit: true, product: ProductId(0), delta: Volume(1) },
            Msg::ImmDone { txn: txn() },
        ];
        let mut kinds: Vec<&str> = msgs.iter().map(|m| m.kind()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), msgs.len());
    }

    #[test]
    fn requests_and_replies_pair_by_name() {
        // The accounting relies on one reply per request; the names encode
        // the pairing for humans reading traces.
        assert_eq!(
            Msg::AvRequest { txn: txn(), product: ProductId(0), amount: Volume(1), requester_av: Volume(0), requester_rate: 0 }.kind(),
            "av-request"
        );
        assert_eq!(
            Msg::AvGrant { txn: txn(), product: ProductId(0), amount: Volume(0), grantor_av: Volume(0), grantor_rate: 0 }.kind(),
            "av-grant"
        );
        assert_eq!(
            Msg::Propagate { offset: 1, covers: 0, deltas: vec![], checkpoint: None, knowledge: vec![] }.kind(),
            "propagate"
        );
        assert_eq!(Msg::PropagateAck { upto: 1 }.kind(), "propagate-ack");
    }

    #[test]
    fn serde_round_trip() {
        let m = Msg::Propagate {
            offset: 3,
            covers: 1,
            deltas: vec![PropagateDelta {
                txn: txn(),
                product: ProductId(2),
                delta: Volume(-4),
                commit_span: 7,
                retained: true,
                committed_at: VirtualTime(11),
            }],
            checkpoint: Some(ReplCheckpoint {
                upto: 1,
                nets: vec![5, -2],
                as_of: VirtualTime(9),
            }),
            knowledge: vec![KnowledgeRow {
                site: SiteId(2),
                product: ProductId(0),
                av: Volume(12),
                at: VirtualTime(8),
                rate: 3,
                rate_at: VirtualTime(8),
            }],
        };
        let json = serde_json::to_string(&m).unwrap();
        assert_eq!(m, serde_json::from_str::<Msg>(&json).unwrap());
    }

    #[test]
    fn pre_fanout_wire_messages_still_parse() {
        // Frames and AV messages serialized before the fast-lane fields
        // existed must deserialize with the new fields defaulted.
        let old = r#"{"Propagate":{"offset":4,"deltas":[]}}"#;
        let m: Msg = serde_json::from_str(old).unwrap();
        assert_eq!(m, Msg::Propagate { offset: 4, covers: 0, deltas: vec![], checkpoint: None, knowledge: vec![] });
        let old = r#"{"AvPushAck":{"product":1,"receiver_av":9}}"#;
        let m: Msg = serde_json::from_str(old).unwrap();
        assert!(matches!(m, Msg::AvPushAck { receiver_rate: 0, .. }));
    }

    #[test]
    fn traced_envelope_round_trips_and_delegates_kind() {
        let inner = Msg::ImmVote { txn: txn(), ready: true };
        let plain = TracedMsg::plain(inner.clone());
        assert_eq!(plain.kind(), "imm-vote");
        assert_eq!(plain.trace_context(), None);
        let traced = TracedMsg {
            ctx: Some(TraceContext::child(txn().0, 42, 9)),
            msg: inner,
        };
        assert_eq!(traced.trace_context().unwrap().parent_span, 42);
        let json = serde_json::to_string(&traced).unwrap();
        assert_eq!(traced, serde_json::from_str::<TracedMsg>(&json).unwrap());
        let json = serde_json::to_string(&plain).unwrap();
        assert_eq!(plain, serde_json::from_str::<TracedMsg>(&json).unwrap());
    }
}
