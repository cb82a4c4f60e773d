//! Small statistics, the input generator, CPU pinning and peak memory.

use std::time::Duration;

/// splitmix64: the benchmark's own input generator. Every input a
/// workload hands the program comes from one of these, seeded from
/// `--seed`, so the same seed gives the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A value that is exact as an `f64` (a 53-bit integer), so a
    /// round trip through the wire compares with `==`.
    pub fn exact_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64
    }
}

/// The splitmix64 finalizer.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Nearest-rank `q`-quantile of an unsorted sample (0 when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

pub const MIB: f64 = 1024.0 * 1024.0;

/// `cpu_set_t`: a 1024-bit mask.
#[repr(C)]
struct CpuSet([u64; 16]);

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

#[cfg(not(target_os = "linux"))]
compile_error!("perfbench sets CPU affinity and reads /proc/self/status: Linux only");

/// Restrict the calling thread, and every thread it starts afterwards,
/// to the first CPU it may run on.
pub fn pin_to_one_cpu() {
    let mut set = CpuSet([0; 16]);
    // SAFETY: `set` is a live, writable `cpu_set_t` of the size passed,
    // and pid 0 is the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    assert_eq!(rc, 0, "sched_getaffinity on the calling thread");
    let cpu = (0..1024)
        .find(|&c| set.0[c / 64] >> (c % 64) & 1 == 1)
        .expect("a thread may run on at least one CPU");
    let mut one = CpuSet([0; 16]);
    one.0[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above; `one` names a CPU the thread may already use.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) };
    assert_eq!(rc, 0, "sched_setaffinity to an allowed CPU");
}

/// Peak resident set size of this process, KiB: `VmHWM` in
/// /proc/self/status. `getrusage`'s `ru_maxrss` would not do: it keeps
/// the peak of the image the process replaced at `exec`, so under
/// `cargo run` it reads cargo's own size until the benchmark outgrows it.
pub fn peak_rss_kib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status")
        .expect("/proc/self/status is readable on Linux");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("/proc/self/status has a VmHWM line in kB")
}
