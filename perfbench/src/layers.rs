//! The per-layer ledger of a traced run (`--trace 1`).
//!
//! Two sources feed it. The probes time calls into one layer's public
//! functions from this file, with no other layer on the path; they run
//! the same way on every workload. The span ledger reads the flight
//! recorder of the workload's own traced rounds: the
//! `ClientSend → ServerAdmitNew → ServerDispatch → ServerReply →
//! ClientRecv` stamps of each call, joined by span id.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use oopp::frame::Frame;
use oopp::{join, ClusterBuilder, DoubleBlockClient, EventKind, Trace, TraceCtx};
use simnet::{Clock, ClusterConfig};
use wire::collections::{Bytes, F64s};
use wire::V64;
use workload::ServerAccount;

use crate::stats::{median, micros, peak_rss_kib, Rng, MIB};
use crate::{Report, Run};

/// Elements in one 2 MiB `F64s` range, the large-transfer unit of the probes.
const RANGE: usize = 1 << 18;

/// Timed batches per probe; each probe reports the median batch.
const BATCHES: usize = 7;

/// Median over `BATCHES` of `per(batch time)`.
fn batched(mut batch: impl FnMut(), per: impl Fn(Duration) -> f64) -> f64 {
    batch();
    let v: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            batch();
            per(t.elapsed())
        })
        .collect();
    median(&v)
}

pub fn probes(run: &Run, rep: &mut Report) {
    // First: RSS growth shows only while the allocator holds no spare
    // memory from earlier work in this process.
    dedup_probe(run.seed, rep);
    wire_probe(run.seed, rep);
    frame_probe(rep);
    clock_probe(rep);
    sched_probe(rep);
    virtual_clock_probe(run.seed, rep);
}

/// Peak-RSS growth per 2 MiB `read_range`, minus the growth per 2 MiB
/// `write_range`: what the server keeps of each reply after it is sent.
fn dedup_probe(seed: u64, rep: &mut Report) {
    const CALLS: usize = 64;
    let mut rng = Rng::new(seed ^ 0xDED0);
    let data: Vec<f64> = (0..RANGE).map(|_| rng.exact_f64()).collect();
    let (cluster, mut driver) = ClusterBuilder::new(2).build();
    let blocks: Vec<DoubleBlockClient> = (0..2)
        .filter_map(|m| rep.ops(1, DoubleBlockClient::new_on(&mut driver, m, RANGE)))
        .collect();
    if blocks.len() == 2 {
        // One warm-up call of each kind, so one-time buffers are not
        // charged to either side.
        for b in &blocks {
            rep.ops(1, b.write_range(&mut driver, 0, F64s(data.clone())));
            rep.ops(1, b.read_range(&mut driver, 0, RANGE));
        }
        let before = peak_rss_kib();
        for i in 0..CALLS {
            let payload = F64s(data.clone());
            rep.ops(1, blocks[i % 2].write_range(&mut driver, 0, payload));
        }
        let after_writes = peak_rss_kib();
        for i in 0..CALLS {
            if let Some(got) = rep.ops(1, blocks[i % 2].read_range(&mut driver, 0, RANGE)) {
                rep.check(got.0 == data, || "dedup probe: read_range mismatch".into());
            }
        }
        let after_reads = peak_rss_kib();
        let per_read = (after_reads - after_writes) / CALLS as f64;
        let per_write = (after_writes - before) / CALLS as f64;
        rep.metric("dedup.rss_kib_per_read", per_read - per_write, "KiB");
    } else {
        rep.check(false, || "dedup probe: block creation failed".into());
    }
    cluster.shutdown(driver);
}

fn wire_probe(seed: u64, rep: &mut Report) {
    const REPS: usize = 16;
    let mut rng = Rng::new(seed ^ 0x1717);
    let payload = F64s((0..RANGE).map(|_| rng.exact_f64()).collect());
    let mib = (REPS * RANGE * 8) as f64 / MIB;
    let enc = batched(
        || {
            for _ in 0..REPS {
                black_box(wire::to_bytes(black_box(&payload)));
            }
        },
        |d| mib / d.as_secs_f64(),
    );
    let encoded = wire::to_bytes(&payload);
    let dec = batched(
        || {
            for _ in 0..REPS {
                black_box(wire::from_bytes::<F64s>(black_box(&encoded)).expect("decode"));
            }
        },
        |d| mib / d.as_secs_f64(),
    );
    let back: F64s = wire::from_bytes(&encoded).expect("decode");
    rep.check(back == payload, || {
        "wire probe: F64s round trip changed".into()
    });
    rep.metric("wire.f64s_encode_mib_per_s", enc, "MiB/s");
    rep.metric("wire.f64s_decode_mib_per_s", dec, "MiB/s");
}

/// Encode + decode of the request frame of a small `get(7)` call.
fn frame_probe(rep: &mut Report) {
    const REPS: usize = 20_000;
    let mut w = wire::Writer::new();
    w.put_len_prefixed(b"get");
    wire::Wire::encode(&7usize, &mut w);
    let frame = Frame::Request {
        req_id: 4242,
        reply_to: 2,
        target: 17,
        payload: Bytes(w.into_bytes()),
        trace: TraceCtx::default(),
        epoch: 0,
        rs_epoch: V64(0),
        deadline: 0,
    };
    let ns = batched(
        || {
            for _ in 0..REPS {
                let bytes = wire::to_bytes(black_box(&frame));
                black_box(wire::from_bytes::<Frame>(&bytes).expect("decode"));
            }
        },
        |d| d.as_nanos() as f64 / REPS as f64,
    );
    let back: Frame = wire::from_bytes(&wire::to_bytes(&frame)).expect("decode");
    rep.check(back == frame, || {
        "frame probe: Request round trip changed".into()
    });
    rep.metric("frame.request_roundtrip_ns", ns, "ns");
}

/// A two-thread round trip through the real clock's receive: the
/// park/wake floor under every synchronous call, with no runtime code.
fn clock_probe(rep: &mut Report) {
    const TRIPS: u64 = 2_000;
    let clock = Clock::real(false);
    let (to_echo, echo_rx) = crossbeam::channel::unbounded::<u64>();
    let (to_main, main_rx) = crossbeam::channel::unbounded::<u64>();
    let us = std::thread::scope(|s| {
        let echo_clock = clock.clone();
        s.spawn(move || {
            while let Ok(v) = echo_clock.recv_any(&echo_rx, 1) {
                if to_main.send(v + 1).is_err() {
                    break;
                }
            }
        });
        let mut bad = 0u64;
        let us = batched(
            || {
                for i in 0..TRIPS {
                    to_echo.send(i).expect("echo thread alive");
                    let v = clock.recv_any(&main_rx, 0).expect("echo thread alive");
                    bad += u64::from(v != i + 1);
                }
            },
            |d| micros(d) / TRIPS as f64,
        );
        drop(to_echo);
        rep.check(bad == 0, || {
            format!("clock probe: {bad} echoes out of order")
        });
        us
    });
    rep.metric("clock.pingpong_us", us, "us");
}

fn sched_probe(rep: &mut Report) {
    const REPS: u64 = 100_000;
    let worker = sched::Worker::<u64>::new();
    let mut sum = 0u64;
    let ns = batched(
        || {
            for i in 0..REPS {
                worker.push(black_box(i));
                sum = sum.wrapping_add(worker.pop().unwrap_or(u64::MAX));
            }
        },
        |d| d.as_nanos() as f64 / REPS as f64,
    );
    let expect = (BATCHES as u64 + 1) * (REPS * (REPS - 1) / 2);
    rep.check(sum == expect, || {
        "sched probe: pop did not return the pushed task".into()
    });
    rep.metric("sched.push_pop_ns", ns, "ns");
}

/// Windows of async calls on a virtual-time cluster with worker lanes:
/// the discrete-event clock's event count and its events per wall second.
fn virtual_clock_probe(seed: u64, rep: &mut Report) {
    const BLOCKS: usize = 8;
    const WINDOW: usize = 32;
    const WINDOWS: usize = 64;
    let (cluster, mut driver) = ClusterBuilder::new(4)
        .sched_workers(2)
        .sim_config(ClusterConfig::zero_cost(0).with_virtual_time(seed))
        .build();
    let blocks: Vec<DoubleBlockClient> = (0..BLOCKS)
        .filter_map(|i| rep.ops(1, DoubleBlockClient::new_on(&mut driver, i % 4, 64)))
        .collect();
    let clock = cluster.sim().clock();
    let events = |c: &Clock| c.schedule().map_or(0, |s| s.events);
    let e0 = events(clock);
    let t = Instant::now();
    let mut rng = Rng::new(seed ^ 0x5151);
    for _ in 0..WINDOWS {
        let vals = (0..WINDOW)
            .map(|_| blocks[rng.below(blocks.len())].get_async(&mut driver, rng.below(64)))
            .collect::<Result<Vec<_>, _>>()
            .and_then(|p| join(&mut driver, p));
        if let Some(vals) = rep.ops(WINDOW as u64, vals) {
            rep.check(vals.iter().all(|&v| v == 0.0), || {
                "virtual probe: a fresh block read non-zero".into()
            });
        }
    }
    let wall = t.elapsed().as_secs_f64();
    let fired = (events(clock) - e0) as f64;
    cluster.shutdown(driver);
    rep.check(fired > 0.0, || "virtual probe: no events fired".into());
    rep.metric("clock.sim_events", fired, "count");
    rep.metric("clock.sim_events_per_s", fired / wall, "1/s");
}

/// The span ledger over the traced rounds of a workload, plus the
/// tracing overhead: how much lower `calls_per_s` ran with the recorder
/// on than with it off in the same process.
pub fn span_metrics(traces: &[Trace], overhead_pct: f64, rep: &mut Report) {
    let mut gaps: [Vec<f64>; 4] = Default::default();
    let (mut calls, mut bytes, mut frames) = (0u64, 0u64, 0u64);
    let mut account = ServerAccount::default();
    for trace in traces {
        rep.check(trace.dropped == 0, || {
            format!("flight recorder dropped {} events", trace.dropped)
        });
        let mut spans: HashMap<u64, [Option<u64>; 5]> = HashMap::new();
        for e in &trace.events {
            let slot = match e.kind {
                EventKind::ClientSend => 0,
                EventKind::ServerAdmitNew => 1,
                EventKind::ServerDispatch => 2,
                EventKind::ServerReply => 3,
                EventKind::ClientRecv => 4,
                EventKind::ClientRetransmit | EventKind::ClientForward => {
                    frames += 1;
                    continue;
                }
                _ => continue,
            };
            if matches!(slot, 0 | 3) {
                frames += 1;
            }
            if matches!(slot, 0 | 4) {
                bytes += u64::from(e.bytes);
            }
            if slot == 4 {
                calls += 1;
            }
            spans.entry(e.span_id).or_default()[slot].get_or_insert(e.at_nanos);
        }
        for stamps in spans.values() {
            if let [Some(a), Some(b), Some(c), Some(d), Some(e)] = *stamps {
                for (i, (from, to)) in [(a, b), (b, c), (c, d), (d, e)].into_iter().enumerate() {
                    gaps[i].push(to.saturating_sub(from) as f64 / 1e3);
                }
            }
        }
        let a = ServerAccount::from_trace(trace);
        account.replica_hits += a.replica_hits;
        account.replica_syncs += a.replica_syncs;
        account.migrate_commits += a.migrate_commits;
    }
    rep.check(!gaps[0].is_empty(), || {
        "no call carried all five stamps".into()
    });
    let per_call = |n: u64| n as f64 / calls.max(1) as f64;
    let per_round = |n: u64| n as f64 / traces.len().max(1) as f64;
    rep.metric("node.send_to_admit_us", median(&gaps[0]), "us");
    rep.metric("node.admit_to_dispatch_us", median(&gaps[1]), "us");
    rep.metric("node.dispatch_to_reply_us", median(&gaps[2]), "us");
    rep.metric("node.reply_to_recv_us", median(&gaps[3]), "us");
    rep.metric("network.bytes_per_call", per_call(bytes), "B");
    rep.metric("network.messages_per_call", per_call(frames), "count");
    rep.metric(
        "replica.read_hits",
        per_round(account.replica_hits),
        "count",
    );
    rep.metric("replica.syncs", per_round(account.replica_syncs), "count");
    rep.metric(
        "placement.moves",
        per_round(account.migrate_commits),
        "count",
    );
    rep.metric("trace.overhead_pct", overhead_pct, "%");
}
