//! Executable reproductions of the paper's protocol diagrams: the
//! message-sequence charts of Fig. 3 (Delay Update), Fig. 4 (Delay Update
//! with AV transfer) and Fig. 5 (Immediate Update) are asserted message
//! for message against the implementation's trace.

use avdb::prelude::*;
use avdb::telemetry::render_sequence;

fn charted_system() -> DistributedSystem {
    let cfg = SystemConfig::builder()
        .sites(3)
        .regular_products(1, Volume(90)) // uniform AV split: 30 each
        .non_regular_products(1, Volume(30))
        // Large batch so propagation traffic stays out of the charts
        // (the paper's figures show only the protocol messages).
        .propagation_batch(1_000)
        .seed(1)
        .build()
        .unwrap();
    let mut sys = DistributedSystem::new(cfg);
    sys.enable_trace();
    sys
}

const REG: ProductId = ProductId(0);
const NONREG: ProductId = ProductId(1);

/// Fig. 3: Delay Update with sufficient local AV — the chart shows the
/// accelerator talking only to its local DB; *no* messages cross the
/// network before the update completes.
#[test]
fn fig3_delay_update_is_purely_local() {
    let mut sys = charted_system();
    sys.submit_at(VirtualTime(0), UpdateRequest::new(SiteId(1), REG, Volume(-20)));
    sys.run_until_quiescent();
    assert!(
        sys.trace().events().is_empty(),
        "Fig. 3 chart has no remote messages; got:\n{}",
        render_sequence(sys.trace())
    );
    let outcomes = sys.drain_outcomes();
    assert!(outcomes[0].2.is_committed());
    assert_eq!(outcomes[0].0, VirtualTime(0), "completes at submission time");
}

/// Fig. 4: Delay Update with AV transfer — the chart shows one
/// request/grant exchange with another site, then completion at the
/// local site.
#[test]
fn fig4_delay_update_with_av_transfer_chart() {
    let mut sys = charted_system();
    // Site 1 holds 30; −40 leaves a shortage of 10. Grant-half of the
    // richest peer's 30 is 15, so held 30 + 15 = 45 ≥ 40 — one exchange
    // suffices.
    sys.submit_at(VirtualTime(0), UpdateRequest::new(SiteId(1), REG, Volume(-40)));
    sys.run_until_quiescent();
    let seq = sys.trace().sequence();
    assert_eq!(
        seq,
        vec![
            (SiteId(1), SiteId(0), "av-request"),
            (SiteId(0), SiteId(1), "av-grant"),
        ],
        "Fig. 4 chart mismatch:\n{}",
        render_sequence(sys.trace())
    );
    let outcomes = sys.drain_outcomes();
    match &outcomes[0].2 {
        UpdateOutcome::Committed { kind: UpdateKind::Delay, correspondences: 1, .. } => {}
        other => panic!("expected Delay commit with 1 correspondence, got {other:?}"),
    }
}

/// Fig. 4 extended: when the first grant is insufficient, "It requests
/// again to other sites" — the chart gains a second request/grant pair.
#[test]
fn fig4_delay_update_requests_again_when_insufficient() {
    let mut sys = charted_system();
    // Need 60: hold 30, shortage 30 → site0 grants half of 30 = 15 →
    // still short 15 → site2 grants 15 → commit.
    sys.submit_at(VirtualTime(0), UpdateRequest::new(SiteId(1), REG, Volume(-60)));
    sys.run_until_quiescent();
    let seq = sys.trace().sequence();
    assert_eq!(
        seq,
        vec![
            (SiteId(1), SiteId(0), "av-request"),
            (SiteId(0), SiteId(1), "av-grant"),
            (SiteId(1), SiteId(2), "av-request"),
            (SiteId(2), SiteId(1), "av-grant"),
        ],
        "extended Fig. 4 chart mismatch:\n{}",
        render_sequence(sys.trace())
    );
}

/// Fig. 5: Immediate Update — "it locks the data at the local DB and it
/// also sends the lock request to the other accelerators simultaneously.
/// Then the operations for update are processed at all the sites and
/// ready and commitment messages are exchanged." The chart: prepare to
/// both peers, votes back, decision to both, done back — and the
/// coordinator "judges the completion … with the message from the
/// accelerator at the base DB".
#[test]
fn fig5_immediate_update_chart() {
    let mut sys = charted_system();
    sys.submit_at(VirtualTime(0), UpdateRequest::new(SiteId(1), NONREG, Volume(-5)));
    sys.run_until_quiescent();
    let seq = sys.trace().sequence();
    assert_eq!(
        seq,
        vec![
            // lock requests, simultaneously to all other accelerators
            (SiteId(1), SiteId(0), "imm-prepare"),
            (SiteId(1), SiteId(2), "imm-prepare"),
            // ready messages
            (SiteId(0), SiteId(1), "imm-vote"),
            (SiteId(2), SiteId(1), "imm-vote"),
            // commitment messages
            (SiteId(1), SiteId(0), "imm-decision"),
            (SiteId(1), SiteId(2), "imm-decision"),
            // completion acknowledgements (base first in site order)
            (SiteId(0), SiteId(1), "imm-done"),
            (SiteId(2), SiteId(1), "imm-done"),
        ],
        "Fig. 5 chart mismatch:\n{}",
        render_sequence(sys.trace())
    );
    let outcomes = sys.drain_outcomes();
    match &outcomes[0].2 {
        UpdateOutcome::Committed {
            kind: UpdateKind::Immediate,
            correspondences: 4,
            completed_at,
            ..
        } => {
            // Completion is judged by the base's done after four hops:
            // prepare t=1, vote t=2, decision t=3, done t=4.
            assert_eq!(*completed_at, VirtualTime(4));
        }
        other => panic!("expected Immediate commit, got {other:?}"),
    }
}

/// The charts above compose: a Delay and an Immediate update interleaved
/// keep their own charts (no cross-talk in the trace).
#[test]
fn charts_compose_without_crosstalk() {
    let mut sys = charted_system();
    sys.submit_at(VirtualTime(0), UpdateRequest::new(SiteId(1), REG, Volume(-20)));
    sys.submit_at(VirtualTime(0), UpdateRequest::new(SiteId(2), NONREG, Volume(-5)));
    sys.run_until_quiescent();
    let seq = sys.trace().sequence();
    // The Delay update contributes nothing; the Immediate chart is intact
    // with coordinator site 2.
    assert_eq!(seq.len(), 8);
    assert!(seq.iter().all(|(_, _, k)| k.starts_with("imm-")));
    let outcomes = sys.drain_outcomes();
    assert_eq!(outcomes.iter().filter(|(_, _, o)| o.is_committed()).count(), 2);
}
