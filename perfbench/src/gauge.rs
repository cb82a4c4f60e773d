//! The host gauge: how fast the shared host runs this process at the
//! moment, timed with no code of the program on the path.
//!
//! Even with the process on one CPU, the host sets the pace of the
//! real-clock workloads: another tenant on the same physical core slowed
//! every call by up to half, in stretches from a second to minutes, so
//! whole 40-second runs ran at different speeds (steal time stayed 0, so
//! CPU time does not see it). A real-clock workload reads the gauge at
//! the start of every round, while no runtime thread is alive, and
//! scales the round's figures to a host on which the gauge reads its
//! nominal value: times by `nominal / gauge`, rates by the inverse. A
//! change to the program moves the calls and not the gauge, so it shows
//! in full. A runtime thread that outlived `shutdown` would slow the
//! gauge and flatter the figures; `shutdown` joins every machine thread.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::stats::{median, micros};
use crate::Report;

/// Round trips timed per reading.
const TRIPS: usize = 256;
/// The reading figures are scaled to, microseconds: about the gauge's
/// median reading on a 2-vCPU KVM guest with the process on one CPU, so
/// that scaled figures stay near measured ones.
pub const NOMINAL_US: f64 = 7.0;

/// An echo thread of this process.
pub struct HostGauge {
    to_echo: Option<Sender<u64>>,
    from_echo: Receiver<u64>,
    echo: Option<JoinHandle<()>>,
}

impl HostGauge {
    pub fn new() -> Self {
        let (to_echo, echo_rx) = channel::<u64>();
        let (to_main, from_echo) = channel::<u64>();
        let echo = std::thread::spawn(move || {
            while let Ok(v) = echo_rx.recv() {
                if to_main.send(v + 1).is_err() {
                    break;
                }
            }
        });
        HostGauge {
            to_echo: Some(to_echo),
            from_echo,
            echo: Some(echo),
        }
    }

    /// Median round trip to the echo thread through `std::sync::mpsc`,
    /// microseconds: a thread hand-off each way, as in a small call.
    pub fn round_trip_us(&self, rep: &mut Report) -> f64 {
        let to_echo = self.to_echo.as_ref().expect("gauge is live");
        let mut us = Vec::with_capacity(TRIPS);
        let mut bad = 0;
        for i in 0..TRIPS as u64 {
            let t = Instant::now();
            let back = to_echo
                .send(i)
                .ok()
                .and_then(|()| self.from_echo.recv().ok());
            us.push(micros(t.elapsed()));
            bad += usize::from(back != Some(i + 1));
        }
        rep.check(bad == 0, || {
            format!("host gauge: {bad} echoes lost or wrong")
        });
        median(&us)
    }
}

impl Drop for HostGauge {
    fn drop(&mut self) {
        drop(self.to_echo.take());
        if let Some(echo) = self.echo.take() {
            let _ = echo.join();
        }
    }
}
