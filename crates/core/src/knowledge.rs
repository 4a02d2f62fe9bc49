//! Incremental peer-knowledge exchange.
//!
//! The paper spreads peer-AV knowledge "at the necessary communication
//! for AV management" (§4) — piggybacked, never queried. At 32+ sites a
//! dense piggyback (every belief on every frame) is O(sites × products)
//! per message, almost all of it rows the receiver already has. This
//! module keeps a per-peer *version watermark* over the knowledge
//! table's monotone edit counter and ships only the cells that changed
//! since the last exchange with that peer — a delta digest. Applying
//! digests incrementally is observably identical to the dense exchange
//! (see `avdb_escrow::knowledge` property tests), so the staleness
//! gauges and the *selecting* function see byte-identical inputs.

use crate::protocol::KnowledgeRow;
use avdb_escrow::knowledge::KnowledgeDelta;
use avdb_escrow::PeerKnowledge;
use avdb_types::{ProductId, SiteId, VirtualTime, Volume};

/// The knowledge-exchange state machine of one accelerator: the belief
/// table plus the per-peer digest watermarks and encode scratch.
#[derive(Debug, Default)]
pub struct KnowledgeExchange {
    /// What this site believes about its peers' AV holdings.
    know: PeerKnowledge,
    /// Per-peer table version as of the last digest encoded for that
    /// peer (index = site id). Rows at or below the watermark are known
    /// to have been shipped already and are skipped by the next digest.
    sent_version: Vec<u64>,
    /// Reusable scratch for [`KnowledgeExchange::encode_digest_for`].
    scratch: Vec<KnowledgeDelta>,
}

impl KnowledgeExchange {
    /// Empty exchange state for a system of `n_sites`.
    pub fn new(n_sites: usize) -> Self {
        KnowledgeExchange {
            know: PeerKnowledge::new(),
            sent_version: vec![0; n_sites],
            scratch: Vec::new(),
        }
    }

    /// The underlying belief table (selecting-function input, tests).
    pub fn table(&self) -> &PeerKnowledge {
        &self.know
    }

    /// Seeds the boot-time AV split (shared knowledge; never digested).
    pub fn seed(&mut self, product: ProductId, split: &[Volume]) {
        self.know.seed(product, split);
    }

    /// Records a fresher AV observation (see [`PeerKnowledge::update`]).
    pub fn update(&mut self, peer: SiteId, product: ProductId, av: Volume, at: VirtualTime) {
        self.know.update(peer, product, av, at);
    }

    /// Records a fresher consumption-rate observation.
    pub fn update_rate(&mut self, peer: SiteId, product: ProductId, rate: i64, at: VirtualTime) {
        self.know.update_rate(peer, product, rate, at);
    }

    /// Last known AV of `peer` for `product`.
    pub fn known(&self, peer: SiteId, product: ProductId) -> Volume {
        self.know.known(peer, product)
    }

    /// Last known consumption rate of `peer` for `product`.
    pub fn known_rate(&self, peer: SiteId, product: ProductId) -> i64 {
        self.know.known_rate(peer, product)
    }

    /// Ticks since `peer`'s AV for `product` was last refreshed.
    pub fn staleness(&self, peer: SiteId, product: ProductId, now: VirtualTime) -> Option<u64> {
        self.know.staleness(peer, product, now)
    }

    /// Freshest observation timestamp across all products for `peer`.
    pub fn freshest(&self, peer: SiteId) -> Option<VirtualTime> {
        self.know.freshest(peer)
    }

    /// Peers ranked by descending believed AV (see
    /// [`PeerKnowledge::ranked_peers`]).
    pub fn ranked_peers(
        &self,
        me: SiteId,
        n_sites: usize,
        product: ProductId,
        exclude: &[SiteId],
    ) -> Vec<SiteId> {
        self.know.ranked_peers(me, n_sites, product, exclude)
    }

    /// Encodes the delta digest to piggyback on the next frame to
    /// `peer`: every belief cell that changed since the last digest
    /// encoded for that peer, minus rows the receiver knows better than
    /// anyone (its own) and rows about this sender (the receiver learns
    /// those from the direct piggybacks on the same traffic). Advances
    /// the peer's watermark to the current table version.
    pub fn encode_digest_for(&mut self, me: SiteId, peer: SiteId) -> Vec<KnowledgeRow> {
        if self.sent_version.len() <= peer.index() {
            self.sent_version.resize(peer.index() + 1, 0);
        }
        let since = self.sent_version[peer.index()];
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        let latest = self.know.changed_since(since, &mut scratch);
        let rows = scratch
            .iter()
            .filter(|d| d.site != peer && d.site != me)
            .map(|d| KnowledgeRow {
                site: d.site,
                product: d.product,
                av: d.av,
                at: d.at,
                rate: d.rate,
                rate_at: d.rate_at,
            })
            .collect();
        self.scratch = scratch;
        self.sent_version[peer.index()] = latest;
        rows
    }

    /// Applies an incoming digest. Rows merge under the standard
    /// freshness rule ([`PeerKnowledge::update`]), so stale gossip never
    /// clobbers a fresher direct observation; rows about this site are
    /// ignored (local truth lives in the AV table, not here). Accepted
    /// rows mark the table modified, so third-party knowledge keeps
    /// spreading transitively — and the no-op guard in `update` stops
    /// identical rows from ping-ponging between two peers forever.
    pub fn apply_digest(&mut self, me: SiteId, rows: &[KnowledgeRow]) {
        for r in rows {
            if r.site == me {
                continue;
            }
            self.know.update(r.site, r.product, r.av, r.at);
            if r.rate != 0 || r.rate_at != VirtualTime::ZERO {
                self.know.update_rate(r.site, r.product, r.rate, r.rate_at);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: ProductId = ProductId(0);

    #[test]
    fn digest_ships_only_rows_changed_since_last_exchange() {
        let me = SiteId(0);
        let mut x = KnowledgeExchange::new(4);
        x.update(SiteId(2), P, Volume(10), VirtualTime(5));
        x.update(SiteId(3), P, Volume(7), VirtualTime(5));
        let first = x.encode_digest_for(me, SiteId(1));
        assert_eq!(first.len(), 2, "both changed rows ship");
        // Nothing changed since: the next digest to the same peer is empty.
        assert!(x.encode_digest_for(me, SiteId(1)).is_empty());
        // A different peer still gets the full backlog (minus its own row).
        let to2 = x.encode_digest_for(me, SiteId(2));
        assert_eq!(to2.len(), 1);
        assert_eq!(to2[0].site, SiteId(3));
        // One more change: only that row ships next time.
        x.update(SiteId(3), P, Volume(6), VirtualTime(9));
        let second = x.encode_digest_for(me, SiteId(1));
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].av, Volume(6));
    }

    #[test]
    fn digest_skips_receiver_and_sender_rows() {
        let me = SiteId(0);
        let mut x = KnowledgeExchange::new(3);
        x.update(SiteId(1), P, Volume(4), VirtualTime(1));
        x.update(SiteId(2), P, Volume(5), VirtualTime(1));
        let rows = x.encode_digest_for(me, SiteId(1));
        assert_eq!(rows.len(), 1, "receiver's own row is dropped");
        assert_eq!(rows[0].site, SiteId(2));
    }

    #[test]
    fn apply_merges_under_freshness_and_ignores_self_rows() {
        let me = SiteId(1);
        let mut x = KnowledgeExchange::new(3);
        x.update(SiteId(2), P, Volume(50), VirtualTime(20));
        let rows = vec![
            // Stale gossip about site 2: must not clobber the fresher cell.
            KnowledgeRow { site: SiteId(2), product: P, av: Volume(1), at: VirtualTime(3), rate: 0, rate_at: VirtualTime::ZERO },
            // A row about this site itself: ignored.
            KnowledgeRow { site: me, product: P, av: Volume(99), at: VirtualTime(99), rate: 0, rate_at: VirtualTime::ZERO },
            // Fresh news about site 0, with a rate.
            KnowledgeRow { site: SiteId(0), product: P, av: Volume(8), at: VirtualTime(9), rate: 3, rate_at: VirtualTime(9) },
        ];
        x.apply_digest(me, &rows);
        assert_eq!(x.known(SiteId(2), P), Volume(50));
        assert_eq!(x.known(me, P), Volume::ZERO);
        assert_eq!(x.known(SiteId(0), P), Volume(8));
        assert_eq!(x.known_rate(SiteId(0), P), 3);
    }

    #[test]
    fn relayed_digest_does_not_ping_pong() {
        // A tells B about C; B's next digest to A re-ships C's row once
        // (B's table changed), A applies it as a no-op, and the exchange
        // goes quiet.
        let (a_id, b_id) = (SiteId(0), SiteId(1));
        let mut a = KnowledgeExchange::new(3);
        let mut b = KnowledgeExchange::new(3);
        a.update(SiteId(2), P, Volume(10), VirtualTime(5));
        let d1 = a.encode_digest_for(a_id, b_id);
        assert_eq!(d1.len(), 1);
        b.apply_digest(b_id, &d1);
        let back = b.encode_digest_for(b_id, a_id);
        assert_eq!(back.len(), 1, "B relays the news once");
        a.apply_digest(a_id, &back);
        assert!(a.encode_digest_for(a_id, b_id).is_empty(), "no-op apply bumped nothing");
        assert!(b.encode_digest_for(b_id, a_id).is_empty());
    }
}
