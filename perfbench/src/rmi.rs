//! `rmi_small`: small-call cost on the real clock.
//!
//! Each round builds a two-machine cluster on the zero-cost substrate,
//! creates `OBJECTS` `DoubleBlock`s with `new_on` (the timed set-up), then
//! runs a closed loop of synchronous `get`/`set` calls from one thread and
//! a split-loop phase (paper §4): windows of async `set`s across both
//! machines, joined, then async `get`s of the same elements, joined. A
//! shadow copy kept here checks every value read.
//!
//! The process runs on one CPU (`main` pins it before any thread
//! starts). On two virtual CPUs of a shared host, a synchronous call
//! wakes a server thread on the other, idle CPU, and how soon the host
//! runs that CPU again set most of a call's time and changed from minute
//! to minute. On one CPU the hand-off is a local switch between the
//! caller and the machine threads, which is the runtime's own cost.
//!
//! Every round starts by reading the host gauge (`gauge.rs`), and the
//! round's figures are scaled by it.

use std::time::Instant;

use oopp::{join, ClusterBuilder, DoubleBlockClient, Trace};

use crate::gauge::{HostGauge, NOMINAL_US};
use crate::stats::{median, micros, quantile, Rng};
use crate::{layers, Report, Run};

const OBJECTS: usize = 512;
const ELEMS: usize = 64;
/// Synchronous calls per slice of a round's closed loop. A slice lasts
/// a few milliseconds, so it falls within one of the host's fast or slow
/// stretches, and its p99 has twenty calls beyond it (ten per verb).
const SLICE: usize = 2048;
const SLICES: usize = 3;
/// Calls in flight per split-loop window, each on a distinct object.
const WINDOW: usize = 64;
/// Split-loop windows per round; each issues `WINDOW` sets and `WINDOW`
/// gets. A round stays far below the flight recorder's ring capacity.
const WINDOWS: usize = 48;
/// Rounds a run makes at least, however short `--seconds` is.
const MIN_ROUNDS: usize = 20;

/// One round's own figures, scaled by the host gauge. Only these are
/// kept, so that the benchmark's memory does not grow with the number of
/// rounds a run fits in.
#[derive(Default)]
struct Round {
    /// The host gauge at the start of the round, microseconds, unscaled.
    gauge_us: f64,
    setup_s: f64,
    slices: Vec<Slice>,
    split_calls_per_s: f64,
}

/// One slice of the closed loop: its rate, and latency quantiles in
/// microseconds of every call and of each verb.
#[derive(Clone, Copy)]
struct Slice {
    calls_per_s: f64,
    p50_us: f64,
    p99_us: f64,
    get_p99_us: f64,
    set_p99_us: f64,
}

fn round(
    rng: &mut Rng,
    gauge: &HostGauge,
    tracing: bool,
    rep: &mut Report,
) -> (Round, Option<Trace>) {
    let mut r = Round {
        gauge_us: gauge.round_trip_us(rep),
        ..Round::default()
    };
    // Times are multiplied by `scale`, rates divided by it.
    let scale = NOMINAL_US / r.gauge_us;
    let t = Instant::now();
    let (cluster, mut driver) = ClusterBuilder::new(2).tracing(tracing).build();
    let blocks: Vec<DoubleBlockClient> = (0..OBJECTS)
        .filter_map(|i| rep.ops(1, DoubleBlockClient::new_on(&mut driver, i % 2, ELEMS)))
        .collect();
    r.setup_s = t.elapsed().as_secs_f64() * scale;
    let recorder = cluster.recorder();
    if blocks.len() < OBJECTS {
        rep.check(false, || "rmi_small: object creation failed".into());
        cluster.shutdown(driver);
        return (r, None);
    }
    let mut shadow = vec![0.0f64; OBJECTS * ELEMS];
    for _ in 0..SLICES {
        let (mut get_us, mut set_us) = (vec![], vec![]);
        let t_slice = Instant::now();
        for _ in 0..SLICE {
            let (o, i) = (rng.below(OBJECTS), rng.below(ELEMS));
            if rng.next_u64() & 1 == 0 {
                let t = Instant::now();
                let got = blocks[o].get(&mut driver, i);
                let us = micros(t.elapsed());
                if let Some(v) = rep.ops(1, got) {
                    get_us.push(us);
                    let want = shadow[o * ELEMS + i];
                    rep.check(v == want, || format!("get({o},{i}) = {v}, shadow {want}"));
                }
            } else {
                let v = rng.exact_f64();
                let t = Instant::now();
                let done = blocks[o].set(&mut driver, i, v);
                let us = micros(t.elapsed());
                if rep.ops(1, done).is_some() {
                    set_us.push(us);
                    shadow[o * ELEMS + i] = v;
                }
            }
        }
        let wall = t_slice.elapsed();
        let all: Vec<f64> = get_us.iter().chain(&set_us).copied().collect();
        r.slices.push(Slice {
            calls_per_s: all.len() as f64 / wall.as_secs_f64() / scale,
            p50_us: quantile(&all, 0.5) * scale,
            p99_us: quantile(&all, 0.99) * scale,
            get_p99_us: quantile(&get_us, 0.99) * scale,
            set_p99_us: quantile(&set_us, 0.99) * scale,
        });
    }

    let t_split = Instant::now();
    let mut split_calls = 0;
    for _ in 0..WINDOWS {
        let base = rng.below(OBJECTS);
        let picks: Vec<(usize, usize, f64)> = (0..WINDOW)
            .map(|k| ((base + k) % OBJECTS, rng.below(ELEMS), rng.exact_f64()))
            .collect();
        let sets = picks
            .iter()
            .map(|&(o, i, v)| blocks[o].set_async(&mut driver, i, v))
            .collect::<Result<Vec<_>, _>>()
            .and_then(|p| join(&mut driver, p));
        if rep.ops(WINDOW as u64, sets).is_some() {
            for &(o, i, v) in &picks {
                shadow[o * ELEMS + i] = v;
            }
        }
        let gets = picks
            .iter()
            .map(|&(o, i, _)| blocks[o].get_async(&mut driver, i))
            .collect::<Result<Vec<_>, _>>()
            .and_then(|p| join(&mut driver, p));
        if let Some(vals) = rep.ops(WINDOW as u64, gets) {
            for (&(o, i, _), v) in picks.iter().zip(vals) {
                let want = shadow[o * ELEMS + i];
                rep.check(v == want, || {
                    format!("joined get({o},{i}) = {v}, shadow {want}")
                });
            }
        }
        split_calls += 2 * WINDOW;
    }
    r.split_calls_per_s = split_calls as f64 / t_split.elapsed().as_secs_f64() / scale;

    cluster.shutdown(driver);
    (r, recorder.map(|rec| rec.merge()))
}

pub fn run(run: &Run, rep: &mut Report) {
    let mut rng = Rng::new(run.seed);
    let gauge = HostGauge::new();
    if run.trace {
        // Alternate traced and untraced rounds so both see the same
        // machine conditions; the gap is the recorder's overhead.
        let (mut traced, mut plain, mut traces) = (vec![], vec![], vec![]);
        run.rounds(4, |i| {
            let (r, trace) = round(&mut rng, &gauge, i % 2 == 0, rep);
            if let Some(trace) = trace {
                traced.push(r.split_calls_per_s);
                traces.push(trace);
            } else {
                plain.push(r.split_calls_per_s);
            }
        });
        let overhead = 100.0 * (1.0 - median(&traced) / median(&plain));
        layers::span_metrics(&traces, overhead, rep);
        return;
    }

    let mut rounds = Vec::new();
    run.rounds(MIN_ROUNDS, |_| {
        rounds.push(round(&mut rng, &gauge, false, rep).0)
    });
    let gauge_us: Vec<f64> = rounds.iter().map(|r| r.gauge_us).collect();
    let slices: Vec<Slice> = rounds
        .iter()
        .flat_map(|r| r.slices.iter().copied())
        .collect();
    // Each figure is the quartile of its rounds (slices) on the fast side.
    // The gauge is read at a round's start, so a slow moment later in the
    // round is left in the scaled figures, the tails most of all; such
    // moments only ever add time. Set-up time is the median.
    let rate = |v: Vec<f64>| quantile(&v, 0.75);
    let time = |v: Vec<f64>| quantile(&v, 0.25);
    let of_rounds = |f: fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<_>>();
    let of_slices = |f: fn(&Slice) -> f64| slices.iter().map(f).collect::<Vec<_>>();

    eprintln!(
        "rmi_small: host gauge {:.3} us (median of {} rounds; nominal {NOMINAL_US} us)",
        median(&gauge_us),
        rounds.len()
    );
    rep.metric(
        "calls_per_s",
        rate(of_rounds(|r| r.split_calls_per_s)),
        "1/s",
    );
    rep.metric("call_p50_us", time(of_slices(|s| s.p50_us)), "us");
    rep.metric("call_p99_us", time(of_slices(|s| s.p99_us)), "us");
    // The real clock is the cluster clock here, so the modeled figures are
    // the closed loop's own, split by verb.
    rep.metric(
        "modeled_read_p99_ms",
        time(of_slices(|s| s.get_p99_us)) / 1e3,
        "ms",
    );
    rep.metric(
        "modeled_write_p99_ms",
        time(of_slices(|s| s.set_p99_us)) / 1e3,
        "ms",
    );
    rep.metric(
        "modeled_calls_per_s",
        rate(of_slices(|s| s.calls_per_s)),
        "1/s",
    );
    rep.metric("setup_s", median(&of_rounds(|r| r.setup_s)), "s");
}
