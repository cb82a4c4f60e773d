//! `serve_virtual`: simulator throughput on the E16 serving scenario.
//!
//! A run cycles through `SCENARIOS` scenarios whose seeds derive from
//! `--seed`. Each runs the social-graph store through
//! `workload::runner::run` under virtual time, with the load-spike
//! episode of `reproduce e16`. The set-up is the same call
//! with zero requests: cluster build, deploy, replicate and shutdown.
//! The modeled figures pool the first pass over the scenarios; every
//! later pass repeats the same seeds and must reproduce them exactly.
//! The wall-clock figures (`calls_per_s`, `setup_s`) are scaled by the
//! host gauge read at the start of each round, as on `rmi_small`.

use std::time::Instant;

use workload::loadgen::ArrivalCurve;
use workload::runner;
use workload::{RunArtifacts, ScenarioSpec};

use crate::gauge::{HostGauge, NOMINAL_US};
use crate::stats::{median, mix, quantile, Rng};
use crate::{layers, Report, Run};

/// Scenarios per pass. Their pooled writes give a p99 with more than
/// ten samples beyond it.
const SCENARIOS: u64 = 4;

fn spec(seed: u64) -> ScenarioSpec {
    let mut rng = Rng::new(seed);
    ScenarioSpec {
        seed: rng.next_u64(),
        // E16 charges 120 µs per verb. Latencies are sums of service
        // times and the 2 ms spike, so a fixed service time would give
        // every seed the same percentiles.
        service_us: 115 + rng.below(11) as u64,
        requests: 2_400,
        curve: ArrivalCurve::Diurnal {
            period_ms: 400,
            trough: 0.4,
        },
        // The crash episode stays off: see README.md.
        crash_at_ms: 0,
        spike_at_ms: 30,
        spike_dur_ms: 10,
        spike_extra_ms: 2,
        ..ScenarioSpec::default()
    }
}

/// Latency of every ok request of `class`, virtual microseconds, from
/// the client ledger's CSV (`issued_nanos,done_nanos,class,outcome`).
fn ok_latencies_us<'a>(csv: &'a str, class: &'a str) -> impl Iterator<Item = f64> + 'a {
    csv.lines().skip(1).filter_map(move |line| {
        let f: Vec<&str> = line.split(',').collect();
        let (t0, t1) = (
            f.first()?.parse::<u64>().ok()?,
            f.get(1)?.parse::<u64>().ok()?,
        );
        (f.get(2) == Some(&class) && f.get(3) == Some(&"ok")).then(|| (t1 - t0) as f64 / 1e3)
    })
}

/// The output checks of one run, against values computed here.
fn check(spec: &ScenarioSpec, a: &RunArtifacts, rep: &mut Report) {
    let l = &a.ledger;
    let n = spec.requests as u64;
    rep.check(l.total_issued() == n, || {
        format!("issued {} of {n} requests", l.total_issued())
    });
    let ok = l.read.ok + l.write.ok;
    rep.check(ok == n, || format!("{ok} of {n} requests completed ok"));
    rep.check(a.account.dropped_events == 0, || {
        format!(
            "flight recorder dropped {} events",
            a.account.dropped_events
        )
    });
    let t = &a.trace_ledger;
    rep.check((t.read.ok, t.write.ok) == (l.read.ok, l.write.ok), || {
        format!(
            "client ledger ok {}/{} vs recorder ledger {}/{}",
            l.read.ok, l.write.ok, t.read.ok, t.write.ok
        )
    });
    // The write share must sit within four standard deviations of the
    // binomial mean the scenario asks for.
    let p = f64::from(spec.write_permille) / 1000.0;
    let sd = (n as f64 * p * (1.0 - p)).sqrt();
    let dev = (l.write.issued as f64 - n as f64 * p).abs();
    rep.check(dev <= 4.0 * sd, || {
        format!(
            "{} writes of {n}; expected {:.0} ± {:.0}",
            l.write.issued,
            n as f64 * p,
            4.0 * sd
        )
    });
    rep.check(a.promotions == 0, || {
        format!("{} promotions without a crash", a.promotions)
    });
    rep.check(a.report.passed(), || {
        format!("SLO verdicts failed:\n{}", a.report.render())
    });
}

/// What one scenario run reports on the virtual clock.
#[derive(PartialEq)]
struct Modeled {
    /// The client ledger as CSV: every request's virtual timestamps.
    csv: String,
    virtual_s: f64,
}

pub fn run(run: &Run, rep: &mut Report) {
    let specs: Vec<ScenarioSpec> = (0..SCENARIOS)
        .map(|i| spec(mix(run.seed ^ (i << 32))))
        .collect();
    let mut modeled: Vec<Modeled> = Vec::new();
    let (mut setup, mut calls_per_s, mut traces) = (vec![], vec![], vec![]);
    let gauge = HostGauge::new();
    let mut gauge_us = vec![];
    run.rounds(2 * SCENARIOS as usize, |i| {
        let spec = &specs[i % SCENARIOS as usize];
        gauge_us.push(gauge.round_trip_us(rep));
        let scale = NOMINAL_US / gauge_us[i];
        let t = Instant::now();
        drop(runner::run(&ScenarioSpec {
            requests: 0,
            ..spec.clone()
        }));
        setup.push(t.elapsed().as_secs_f64() * scale);

        let t = Instant::now();
        let a = runner::run(spec);
        let wall = t.elapsed().as_secs_f64();

        let ok = a.ledger.read.ok + a.ledger.write.ok;
        rep.attempted += a.ledger.total_issued();
        rep.failed += a.ledger.total_issued() - ok;
        check(spec, &a, rep);

        let m = Modeled {
            csv: a.ledger.to_csv(),
            virtual_s: (a.ledger.t1_nanos - a.ledger.t0_nanos) as f64 / 1e9,
        };
        match modeled.get(i % SCENARIOS as usize) {
            None => modeled.push(m),
            Some(first) => rep.check(*first == m, || {
                format!("scenario seed {:#x}: same-seed runs differ", spec.seed)
            }),
        }
        calls_per_s.push(ok as f64 / wall / scale);
        if run.trace {
            traces.push(a.trace);
        }
    });
    eprintln!(
        "serve_virtual: host gauge {:.3} us (median of {} rounds; nominal {NOMINAL_US} us)",
        median(&gauge_us),
        gauge_us.len()
    );
    if run.trace {
        // The runner always records: there is no untraced run to compare.
        layers::span_metrics(&traces, 0.0, rep);
        return;
    }
    let pooled = |class: &str| -> Vec<f64> {
        modeled
            .iter()
            .flat_map(|m| ok_latencies_us(&m.csv, class))
            .collect()
    };
    let (reads, writes) = (pooled("read"), pooled("write"));
    let all: Vec<f64> = reads.iter().chain(&writes).copied().collect();
    let virtual_s: f64 = modeled.iter().map(|m| m.virtual_s).sum();
    // As on rmi_small: the upper quartile of the scaled rates of the
    // scenario runs.
    rep.metric("calls_per_s", quantile(&calls_per_s, 0.75), "1/s");
    rep.metric("call_p50_us", quantile(&all, 0.5), "us");
    rep.metric("call_p99_us", quantile(&all, 0.99), "us");
    rep.metric("modeled_read_p99_ms", quantile(&reads, 0.99) / 1e3, "ms");
    rep.metric("modeled_write_p99_ms", quantile(&writes, 0.99) / 1e3, "ms");
    rep.metric("modeled_calls_per_s", all.len() as f64 / virtual_s, "1/s");
    rep.metric("setup_s", median(&setup), "s");
}
