//! Microbenchmarks of the shortage-path fast lane's hot helpers: peer
//! ranking (allocating vs. scratch-buffer reuse), burst selection over
//! the asked set, flight-ring recording (eager vs. deferred details),
//! knowledge digests and the event queue. All sit inside per-message
//! handlers, so their constant factors show up directly in simulated-run
//! wall time.

use avdb_core::KnowledgeExchange;
use avdb_escrow::{MostKnownAv, PeerKnowledge, PeerSet, SelectStrategy};
use avdb_simnet::{DetRng, Event, EventQueue};
use avdb_telemetry::FlightRecorder;
use avdb_types::{ProductId, SiteId, VirtualTime, Volume};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

/// Knowledge seeded with a distinct believed AV per (peer, product), so
/// ranking has real work to do at every site count.
fn knowledge(n_sites: usize, n_products: usize) -> PeerKnowledge {
    let mut k = PeerKnowledge::new();
    for s in 0..n_sites as u32 {
        for p in 0..n_products as u32 {
            k.update(
                SiteId(s),
                ProductId(p),
                Volume(((s as i64 * 31 + p as i64 * 7) % 97) * 10),
                VirtualTime(u64::from(s + p)),
            );
        }
    }
    k
}

fn bench_ranked_peers(c: &mut Criterion) {
    let mut group = c.benchmark_group("ranked_peers");
    group.throughput(Throughput::Elements(1));
    for &sites in &[8usize, 64] {
        let k = knowledge(sites, 4);
        let exclude = [SiteId(1)];
        group.bench_function(format!("alloc/{sites}_sites"), |b| {
            b.iter(|| {
                black_box(k.ranked_peers(SiteId(0), sites, ProductId(2), &exclude));
            })
        });
        group.bench_function(format!("scratch/{sites}_sites"), |b| {
            let mut out = Vec::with_capacity(sites);
            b.iter(|| {
                k.ranked_peers_into(SiteId(0), sites, ProductId(2), &exclude, &mut out);
                black_box(&out);
            })
        });
    }
    group.finish();
}

/// Operations per timed iteration in the batched groups below, so the
/// harness's per-iteration clock reads stay negligible next to the work.
const BATCH: u64 = 256;

fn bench_select_many(c: &mut Criterion) {
    let mut group = c.benchmark_group("select_many");
    group.sample_size(100).throughput(Throughput::Elements(BATCH));
    for &sites in &[8usize, 32, 64] {
        let k = knowledge(sites, 4);
        let me = SiteId(1);
        // Half full: every other peer was asked earlier in the
        // negotiation, as after a long run of zero grants.
        let half: PeerSet = SiteId::all(sites).filter(|s| s.0 % 2 == 0 && *s != me).collect();
        for (label, prior) in [("asked_empty", PeerSet::new()), ("asked_half", half)] {
            group.bench_function(format!("{sites}_sites/{label}"), |b| {
                let mut asked = prior.clone();
                let mut out = Vec::with_capacity(2);
                let mut rng = DetRng::new(1);
                b.iter(|| {
                    for _ in 0..BATCH {
                        MostKnownAv.select_many(
                            me,
                            sites,
                            ProductId(2),
                            &k,
                            &mut asked,
                            VirtualTime::ZERO,
                            &mut rng,
                            2,
                            &mut out,
                        );
                        // Undo the burst so every call sees the same set.
                        for &p in &out {
                            asked.remove(p);
                        }
                    }
                    black_box(&out);
                })
            });
        }
    }
    group.finish();
}

/// The `delay.select` detail line, rendered from its fields.
fn render_select(out: &mut String, f: &[u64; 4]) {
    use std::fmt::Write as _;
    let _ = write!(out, "txn {} asks s{} (knowledge {} ticks old)", f[0], f[1], f[2]);
}

fn bench_flight_record(c: &mut Criterion) {
    let mut group = c.benchmark_group("flight_record");
    group.sample_size(100).throughput(Throughput::Elements(BATCH));
    // A saturated ring, as in any run past its first 256 events.
    let saturated = || {
        let mut r = FlightRecorder::default();
        for i in 0..r.capacity() as u64 {
            r.record_args(i, i, "delay.select", format_args!("warm {i}"));
        }
        r
    };
    group.bench_function("eager", |b| {
        let mut r = saturated();
        let mut n = 0u64;
        b.iter(|| {
            for _ in 0..BATCH {
                n += 1;
                let (txn, peer, staleness) = ((7 << 40) | n, n % 32, n % 977);
                r.record_args(
                    n,
                    n,
                    "delay.select",
                    format_args!("txn {} asks s{} (knowledge {} ticks old)", txn, peer, staleness),
                );
            }
            black_box(r.recorded())
        })
    });
    group.bench_function("deferred", |b| {
        let mut r = saturated();
        let mut n = 0u64;
        b.iter(|| {
            for _ in 0..BATCH {
                n += 1;
                let (txn, peer, staleness) = ((7 << 40) | n, n % 32, n % 977);
                r.record_fields(n, n, "delay.select", render_select, [txn, peer, staleness, 0]);
            }
            black_box(r.recorded())
        })
    });
    group.finish();
}

/// A knowledge-exchange pair mid-run: the sender has observed one AV
/// per (peer, product) and already shipped a first digest, so encode is
/// measuring the watermarked steady state, not the boot backlog.
fn exchange_pair(sites: usize, products: u32) -> (KnowledgeExchange, KnowledgeExchange) {
    let mut tx = KnowledgeExchange::new(sites);
    let rx = KnowledgeExchange::new(sites);
    for s in 0..sites as u32 {
        for p in 0..products {
            tx.update(
                SiteId(s),
                ProductId(p),
                Volume(((s as i64 * 31 + p as i64 * 7) % 97) * 10),
                VirtualTime(u64::from(s + p) + 1),
            );
        }
    }
    (tx, rx)
}

fn bench_knowledge_exchange(c: &mut Criterion) {
    let mut group = c.benchmark_group("knowledge_exchange");
    group.throughput(Throughput::Elements(1));
    for &sites in &[8usize, 32, 64] {
        let products = 4u32;
        // Cold encode: everything since the boot watermark ships (the
        // dense worst case the delta digest replaced).
        group.bench_function(format!("encode_full/{sites}_sites"), |b| {
            let (mut tx, _) = exchange_pair(sites, products);
            b.iter(|| {
                // Fresh peer slot each round so the watermark never advances.
                let rows = tx.encode_digest_for(SiteId(0), SiteId(1));
                tx.rewind_digest_for(SiteId(1));
                black_box(rows);
            })
        });
        // Steady state: one observation lands, one single-row digest
        // rides the next frame, the receiver merges it.
        group.bench_function(format!("roundtrip_delta/{sites}_sites"), |b| {
            let (mut tx, mut rx) = exchange_pair(sites, products);
            let _ = tx.encode_digest_for(SiteId(0), SiteId(1));
            let mut now = 1_000u64;
            b.iter(|| {
                now += 1;
                tx.update(SiteId(2), ProductId(now as u32 % products), Volume(now as i64 % 97), VirtualTime(now));
                let rows = tx.encode_digest_for(SiteId(0), SiteId(1));
                rx.apply_digest(SiteId(1), &rows);
                black_box(&rx);
            })
        });
    }
    group.finish();
}

fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    for &sites in &[8usize, 32, 64] {
        // One all-to-all message wave: every site sends to every other
        // site with small staggered latencies — the calendar ring's
        // steady-state shape — then the wave drains in time order.
        let n = sites * (sites - 1);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_function(format!("push_pop_wave/{sites}_sites"), |b| {
            let mut q: EventQueue<u64, u64> = EventQueue::new();
            let mut tick = 0u64;
            b.iter(|| {
                for from in 0..sites as u32 {
                    for to in 0..sites as u32 {
                        if from == to {
                            continue;
                        }
                        let at = VirtualTime(tick + 1 + u64::from(from + to) % 7);
                        q.push(at, Event::Deliver { from: SiteId(from), to: SiteId(to), msg: tick });
                    }
                }
                while let Some((at, ev)) = q.pop() {
                    tick = tick.max(at.0);
                    black_box(ev);
                }
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_ranked_peers,
    bench_select_many,
    bench_flight_record,
    bench_knowledge_exchange,
    bench_event_queue
);
criterion_main!(benches);
