//! The accelerator's replication drive: the durable
//! [`ReplicationState`] plus the gauges derived from it.
//!
//! Carved out of the accelerator so the replication state machine has an
//! explicit type of its own: the log/cursor/checkpoint mechanics live in
//! [`crate::replication`], and this wrapper owns what the *accelerator*
//! layers on top — the interned divergence and queue-depth gauges and
//! the last-published values that keep gauge writes change-driven.

use crate::protocol::{PropagateDelta, ReplCheckpoint};
use crate::replication::{Frame, ReplicationSnapshot, ReplicationState};
use avdb_telemetry::{MetricId, Registry};
use avdb_types::SiteId;

/// Replication state machine of one accelerator.
#[derive(Debug)]
pub struct ReplicationDrive {
    /// Log, per-peer cursors, checkpoint prefix, receiver dedup state.
    state: ReplicationState,
    /// `repl.queue.depth` gauge id.
    queue_depth: MetricId,
    /// `repl.divergence.p<N>` gauge ids, densely per product.
    divergence: Vec<MetricId>,
    /// Last published divergence per product, so a gauge that returns to
    /// zero is re-published as zero rather than left stale — and an
    /// unchanged gauge is not re-published at all.
    divergence_prev: Vec<i64>,
}

impl ReplicationDrive {
    /// Fresh drive for `me`, registering its gauges in `reg`.
    pub fn new(me: SiteId, n_sites: usize, n_products: usize, reg: &mut Registry) -> Self {
        Self::with_state(ReplicationState::new(me, n_sites), n_products, reg)
    }

    /// Rebuilds from a durable snapshot (crash recovery).
    pub fn from_snapshot(snap: &ReplicationSnapshot, n_products: usize, reg: &mut Registry) -> Self {
        Self::with_state(ReplicationState::from_snapshot(snap), n_products, reg)
    }

    fn with_state(state: ReplicationState, n_products: usize, reg: &mut Registry) -> Self {
        ReplicationDrive {
            state,
            queue_depth: reg.gauge_id("repl.queue.depth"),
            divergence: (0..n_products)
                .map(|p| reg.gauge_id(&format!("repl.divergence.p{p}")))
                .collect(),
            divergence_prev: vec![0; n_products],
        }
    }

    /// Number of products the divergence gauges cover.
    pub fn n_products(&self) -> usize {
        self.divergence.len()
    }

    /// Last published divergence for `product` (status snapshots).
    pub fn divergence(&self, product: usize) -> i64 {
        self.divergence_prev.get(product).copied().unwrap_or(0)
    }

    /// Republishes the replication gauges after the retained log changed:
    /// `repl.queue.depth` plus one `repl.divergence.p<N>` per product
    /// whose divergence moved (including moves back to zero). Reads the
    /// running per-product totals, so a stamp is O(products) no matter
    /// how long the retained log is.
    pub fn refresh_gauges(&mut self, reg: &mut Registry) {
        reg.set_gauge_id(self.queue_depth, self.state.retained() as i64);
        let nets = self.state.retained_nets();
        for (p, prev) in self.divergence_prev.iter_mut().enumerate() {
            let value = nets.get(p).copied().unwrap_or(0);
            if value != *prev {
                reg.set_gauge_id(self.divergence[p], value);
                *prev = value;
            }
        }
    }

    // ---- delegation to the underlying state ---------------------------------

    /// Appends a committed delta (see [`ReplicationState::record`]).
    pub fn record(&mut self, delta: PropagateDelta) {
        self.state.record(delta);
    }

    /// `true` when some peer's pending range reached `batch` deltas.
    pub fn batch_ready(&self, batch: usize) -> bool {
        self.state.batch_ready(batch)
    }

    /// Next batch frame for `peer`, if its range reached `batch`.
    pub fn take_batch(&mut self, peer: SiteId, batch: usize) -> Option<Frame> {
        self.state.take_batch(peer, batch)
    }

    /// Retransmission frame for `peer`: everything unacked, led by the
    /// checkpoint prefix when the peer's ack fell below the fold base.
    pub fn take_unacked(&mut self, peer: SiteId) -> Option<Frame> {
        self.state.take_unacked(peer)
    }

    /// Handles a cumulative acknowledgement from `peer`.
    pub fn on_ack(&mut self, peer: SiteId, upto: u64) {
        self.state.on_ack(peer, upto);
    }

    /// Receiver side of a frame (see [`ReplicationState::apply_frame`]).
    pub fn apply_frame(
        &mut self,
        origin: SiteId,
        offset: u64,
        deltas: Vec<PropagateDelta>,
    ) -> (u64, Vec<PropagateDelta>) {
        self.state.apply_frame(origin, offset, deltas)
    }

    /// Receiver side of a checkpoint prefix (see
    /// [`ReplicationState::apply_checkpoint`]).
    pub fn apply_checkpoint(
        &mut self,
        origin: SiteId,
        ckpt: &ReplCheckpoint,
    ) -> (u64, Vec<PropagateDelta>) {
        self.state.apply_checkpoint(origin, ckpt)
    }

    /// Retained (unacknowledged-somewhere) delta count.
    pub fn retained(&self) -> usize {
        self.state.retained()
    }

    /// `true` when every peer acknowledged the whole log.
    pub fn fully_acked(&self) -> bool {
        self.state.fully_acked()
    }

    /// Overrides the checkpoint fold threshold (tests and tuning).
    pub fn set_checkpoint_threshold(&mut self, n: usize) {
        self.state.set_checkpoint_threshold(n);
    }

    /// Durable snapshot of the replication state.
    pub fn snapshot(&self) -> ReplicationSnapshot {
        self.state.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avdb_types::{ProductId, TxnId, VirtualTime, Volume};

    fn d(seq: u64, product: u32, delta: i64) -> PropagateDelta {
        PropagateDelta {
            txn: TxnId::new(SiteId(0), seq),
            product: ProductId(product),
            delta: Volume(delta),
            commit_span: 0,
            retained: false,
            committed_at: VirtualTime(seq),
        }
    }

    #[test]
    fn gauges_publish_running_nets_and_return_to_zero() {
        let mut reg = Registry::new();
        let mut drive = ReplicationDrive::new(SiteId(0), 2, 2, &mut reg);
        drive.record(d(0, 0, -3));
        drive.record(d(1, 1, 4));
        drive.refresh_gauges(&mut reg);
        let snap = reg.snapshot();
        assert_eq!(snap.gauges.get("repl.divergence.p0"), Some(&-3));
        assert_eq!(snap.gauges.get("repl.divergence.p1"), Some(&4));
        assert_eq!(snap.gauges.get("repl.queue.depth"), Some(&2));
        assert_eq!(drive.divergence(0), -3);
        drive.on_ack(SiteId(1), 2);
        drive.refresh_gauges(&mut reg);
        let snap = reg.snapshot();
        assert_eq!(snap.gauges.get("repl.divergence.p0"), Some(&0), "drained back to zero");
        assert_eq!(snap.gauges.get("repl.queue.depth"), Some(&0));
    }
}
