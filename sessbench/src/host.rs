//! Host clocks and noise diagnostics.
//!
//! Wall time on a shared host drifts with stolen CPU and with the
//! host's own speed, so the benchmark reports an on-CPU figure beside
//! every wall figure and records how noisy the host was. The
//! diagnostics are context only: no metric is ever rescaled by them.

use sc_crypto::keccak256;
use std::hint::black_box;
use std::time::Instant;

/// Mirror of the C `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// Mirror of the C `struct rusage` on 64-bit Linux: two timevals
/// followed by fourteen `long` counters this module does not read.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// On-CPU nanoseconds of the whole process, user plus system, counting
/// threads that already exited (the chain's scoped ECDSA and root-fold
/// fan-outs live for one call each). The kernel derives it from the
/// scheduler's runtime accounting, so time stolen by the hypervisor is
/// not included.
pub fn process_cpu_ns() -> u128 {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, writable value laid out exactly as
    // the kernel's `struct rusage` on 64-bit Linux, and RUSAGE_SELF is a
    // valid `who`; getrusage writes only inside that struct.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with valid arguments"
    );
    let ns = |t: &Timeval| t.sec as u128 * 1_000_000_000 + t.usec as u128 * 1_000;
    ns(&usage.utime) + ns(&usage.stime)
}

/// Peak resident set size of the process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Steal ticks of all CPUs so far (`/proc/stat`, 8th field of `cpu`).
fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().find(|l| l.starts_with("cpu "))?;
    cpu.split_whitespace().nth(8)?.parse().ok()
}

/// Nanoseconds the process's live threads spent runnable but waiting
/// for a CPU (field 2 of `/proc/self/task/*/schedstat`).
fn runqueue_wait_ns() -> Option<u64> {
    let mut total = 0u64;
    for task in std::fs::read_dir("/proc/self/task").ok()? {
        let path = task.ok()?.path().join("schedstat");
        let Ok(text) = std::fs::read_to_string(path) else {
            continue; // the thread exited while we listed it
        };
        total += text.split_whitespace().nth(1)?.parse::<u64>().ok()?;
    }
    Some(total)
}

/// Milliseconds a fixed, benchmark-owned workload takes: 20 000
/// keccak-256 hashes of a 256-byte buffer. Run before and after each
/// workload; a slow or drifting host shows up as a slow or drifting
/// calibration, never as an adjustment to a metric.
pub fn calibration_ms() -> f64 {
    let mut buf = [0x5au8; 256];
    let start = Instant::now();
    for _ in 0..20_000 {
        let h = keccak256(black_box(&buf));
        buf[..32].copy_from_slice(&h.0);
    }
    black_box(buf);
    start.elapsed().as_secs_f64() * 1e3
}

/// Counter readings taken at the start of a run.
pub struct HostSnapshot {
    steal: Option<u64>,
    wait: Option<u64>,
}

impl HostSnapshot {
    /// Reads the counters now.
    pub fn now() -> HostSnapshot {
        HostSnapshot {
            steal: steal_ticks(),
            wait: runqueue_wait_ns(),
        }
    }

    /// `(name, value)` diagnostics for the interval since this snapshot.
    /// A counter the host does not expose reads as -1.
    pub fn diagnostics(&self) -> Vec<(&'static str, f64)> {
        let delta = |before: Option<u64>, after: Option<u64>| match (before, after) {
            (Some(b), Some(a)) => a.saturating_sub(b) as f64,
            _ => -1.0,
        };
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        let wait_ns = delta(self.wait, runqueue_wait_ns());
        vec![
            ("steal_ticks", delta(self.steal, steal_ticks())),
            (
                "runqueue_wait_ms",
                if wait_ns < 0.0 { -1.0 } else { wait_ns / 1e6 },
            ),
            ("nproc", nproc as f64),
        ]
    }
}
