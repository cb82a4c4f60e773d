//! The repository's benchmark: two workloads that drive the oopp
//! runtime through its public APIs, check every output against values
//! computed here, and print one JSON result line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload rmi_small --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ledger (see README.md for what each metric is and what it should move).

mod gauge;
mod layers;
mod rmi;
mod serve;
mod stats;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use oopp::RemoteResult;

const WORKLOADS: [&str; 2] = ["rmi_small", "serve_virtual"];

/// The command line, checked.
pub struct Run {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

impl Run {
    /// Repeat `round` until the run's time is spent and at least
    /// `min_rounds` rounds have run.
    pub fn rounds(&self, min_rounds: usize, mut round: impl FnMut(usize)) {
        let t0 = Instant::now();
        let mut i = 0;
        while i < min_rounds || t0.elapsed() < self.seconds {
            round(i);
            i += 1;
        }
    }
}

/// What a run attempted, what failed, which checks broke, and the
/// metrics it measured.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    errors: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// Record a correctness check; a broken one makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors += 1;
            if self.errors <= 10 {
                eprintln!("check failed: {}", what());
            }
        }
    }

    /// Count `n` attempted operations whose outcome is `r`; all `n`
    /// fail when `r` is an error.
    pub fn ops<T>(&mut self, n: u64, r: RemoteResult<T>) -> Option<T> {
        self.attempted += n;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += n;
                if self.failed <= 10 {
                    eprintln!("operation failed: {e}");
                }
                None
            }
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.check(value.is_finite(), || {
            format!("{name} is not finite: {value}")
        });
        self.metrics.push((name, value, unit));
    }

    fn correct(&self) -> bool {
        self.errors == 0
    }

    fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

fn parse_args() -> Result<(String, Run), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("--seconds {s}: expected 1..=600"));
                }
                seconds = Some(Duration::from_secs(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let run = Run {
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    };
    Ok((workload, run))
}

fn main() -> ExitCode {
    let (workload, run) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload {} --seed N --seconds S [--trace 0|1]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    // The serving scenario honours a SIMNET_SEED override; the benchmark's
    // inputs come from --seed alone.
    std::env::remove_var("SIMNET_SEED");
    // Every workload runs on one CPU (see rmi.rs), pinned before any
    // thread starts so that every thread of the run inherits it.
    stats::pin_to_one_cpu();

    let mut rep = Report::default();
    let started = Instant::now();
    if run.trace {
        layers::probes(&run, &mut rep);
    }
    // A traced run spends what the layer probes left of its time on the
    // workload itself.
    let run = Run {
        seconds: run.seconds.saturating_sub(started.elapsed()),
        ..run
    };
    match workload.as_str() {
        "rmi_small" => rmi::run(&run, &mut rep),
        _ => serve::run(&run, &mut rep),
    }
    if !run.trace {
        rep.metric("peak_rss_mib", stats::peak_rss_kib() / 1024.0, "MiB");
    }
    println!("{}", rep.to_json());
    if rep.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
