//! Deferred flight-ring details for the accelerator's integer-only events.
//!
//! Each renderer writes the detail line its call site used to format
//! eagerly, from the fields packed into the ring slot
//! ([`avdb_telemetry::FlightRecorder::record_fields`]): signed values
//! travel as their two's-complement `u64`, booleans as 0/1. The tests
//! pin every renderer to the `format_args!` text it replaced, so flight
//! dumps stay byte-identical.

use std::fmt::Write as _;

/// `delay.select`: `[txn, peer, staleness]`.
pub(crate) fn delay_select(out: &mut String, f: &[u64; 4]) {
    let _ = write!(out, "txn {} asks s{} (knowledge {} ticks old)", f[0], f[1], f[2]);
}

/// `delay.begin`: `[txn, items]`.
pub(crate) fn delay_begin(out: &mut String, f: &[u64; 4]) {
    let _ = write!(out, "txn {} ({} item(s))", f[0], f[1]);
}

/// `delay.commit`: `[txn, items, correspondences]`.
pub(crate) fn delay_commit(out: &mut String, f: &[u64; 4]) {
    let _ = write!(out, "txn {} ({} item(s), {} correspondence(s))", f[0], f[1], f[2]);
}

/// `repl.send`: `[peer, offset, deltas, covers]`.
pub(crate) fn repl_send(out: &mut String, f: &[u64; 4]) {
    let _ = write!(out, "to s{} offset {} ({} deltas covering {})", f[0], f[1], f[2], f[3]);
}

/// `repl.apply`: `[from, fresh, upto]`.
pub(crate) fn repl_apply(out: &mut String, f: &[u64; 4]) {
    let _ = write!(out, "from s{}: {} fresh, ack upto {}", f[0], f[1], f[2]);
}

/// `rebalance.push`: `[volume as i64, product, peer]`.
pub(crate) fn rebalance_push(out: &mut String, f: &[u64; 4]) {
    let _ = write!(out, "{} of P{} to s{}", f[0] as i64, f[1], f[2]);
}

/// `imm.prepare`: `[txn, from, ready]`.
pub(crate) fn imm_prepare(out: &mut String, f: &[u64; 4]) {
    let _ = write!(out, "txn {} from s{} ready={}", f[0], f[1], f[2] != 0);
}

/// `imm.decide`: `[txn, commit]`.
pub(crate) fn imm_decide(out: &mut String, f: &[u64; 4]) {
    let _ = write!(out, "txn {} commit={}", f[0], f[1] != 0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use avdb_simnet::DetRng;

    fn render(r: avdb_telemetry::RenderDetail, f: [u64; 4]) -> String {
        let mut out = String::new();
        r(&mut out, &f);
        out
    }

    /// Random values of each field width, salted with the edges.
    fn samples(seed: u64) -> impl Iterator<Item = (u64, u32, usize, i64, bool)> {
        let edges = [
            (0, 0, 0, 0, false),
            (u64::MAX, u32::MAX, usize::MAX, i64::MAX, true),
            (1, 1, 1, i64::MIN, true),
            (u64::MAX, 0, 0, -1, false),
        ];
        let mut rng = DetRng::new(seed);
        let random = (0..500).map(move |_| {
            let x = rng.next_u64();
            (x, (x >> 7) as u32, (x >> 3) as usize, x.rotate_left(17) as i64, x & 1 == 1)
        });
        edges.into_iter().chain(random)
    }

    #[test]
    fn renderers_reproduce_the_eager_text() {
        for (a, site, n, signed, flag) in samples(7) {
            let b = a.rotate_left(29);
            let c = a ^ 0x5555;
            assert_eq!(
                render(delay_select, [a, u64::from(site), b, 0]),
                format!("{}", format_args!("txn {} asks s{} (knowledge {b} ticks old)", a, site)),
            );
            assert_eq!(
                render(delay_begin, [a, n as u64, 0, 0]),
                format!("{}", format_args!("txn {} ({} item(s))", a, n)),
            );
            assert_eq!(
                render(delay_commit, [a, n as u64, c, 0]),
                format!("{}", format_args!("txn {} ({} item(s), {} correspondence(s))", a, n, c)),
            );
            assert_eq!(
                render(repl_send, [u64::from(site), a, n as u64, c]),
                format!("{}", format_args!("to s{} offset {} ({} deltas covering {})", site, a, n, c)),
            );
            assert_eq!(
                render(repl_apply, [u64::from(site), n as u64, a, 0]),
                format!("{}", format_args!("from s{}: {} fresh, ack upto {a}", site, n)),
            );
            assert_eq!(
                render(rebalance_push, [signed as u64, u64::from(site), u64::from(site ^ 3), 0]),
                format!("{}", format_args!("{} of P{} to s{}", signed, site, site ^ 3)),
            );
            assert_eq!(
                render(imm_prepare, [a, u64::from(site), u64::from(flag), 0]),
                format!("{}", format_args!("txn {} from s{} ready={flag}", a, site)),
            );
            assert_eq!(
                render(imm_decide, [a, u64::from(flag), 0, 0]),
                format!("{}", format_args!("txn {} commit={flag}", a)),
            );
        }
    }
}
