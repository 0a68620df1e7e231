//! Host-side measurement helpers: order statistics, per-thread CPU
//! time, peak resident memory and the environment stamp.

use std::time::Duration;

/// Median of `xs` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (in `(0, 1]`) of `xs`, with the number
/// of samples above it; `(0, 0)` for an empty slice. Of 70 samples the
/// 85th percentile is rank 60, the highest with ten samples above it.
pub fn percentile(xs: &[f64], p: f64) -> (f64, usize) {
    let s = sorted(xs);
    let n = s.len();
    if n == 0 {
        return (0.0, 0);
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    (s[rank - 1], n - rank)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// CPU time (user + system) the calling thread has used so far, from
/// `clock_gettime(CLOCK_THREAD_CPUTIME_ID)`, which counts the running
/// time slice too (`/proc/thread-self/schedstat` lags by up to a
/// scheduler tick). Zero where the call fails.
#[cfg(all(target_os = "linux", target_env = "gnu", target_pointer_width = "64"))]
pub fn thread_cpu() -> Duration {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the whole call.
    if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) } != 0 {
        return Duration::ZERO;
    }
    Duration::new(ts.sec as u64, ts.nsec as u32)
}

/// CPU time the calling thread has used so far, from
/// `/proc/thread-self/schedstat`; zero where it is unavailable.
#[cfg(not(all(target_os = "linux", target_env = "gnu", target_pointer_width = "64")))]
pub fn thread_cpu() -> Duration {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .map(Duration::from_nanos)
        .unwrap_or_default()
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Reset the peak resident set size to the current one, so that
/// `peak_rss_mb` covers only what runs from now on. The allocator first
/// hands its free memory back to the kernel: otherwise how much freed
/// memory stays resident depends on heap layout, and the peak measured
/// after it ranged from 64 to 124 MB between runs of one workload. False where the kernel does
/// not allow the reset (writing "5" to `/proc/self/clear_refs`).
pub fn reset_peak_rss() -> bool {
    trim_heap();
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Return the allocator's free memory to the kernel (glibc's
/// `malloc_trim`).
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::ffi::c_int;
    }
    // SAFETY: `malloc_trim` takes no pointers and only releases free
    // pages of glibc's own heap, which this process allocates through.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn trim_heap() {}

/// One-line description of where and how a result was measured.
pub fn environment_stamp(seed: u64, workers: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    format!(
        "nproc={nproc} rustc=\"{}\" commit={commit} seed={seed} workers={workers} profile=release",
        env!("PERFBENCH_RUSTC")
    )
}

/// 64-bit FNV-1a, the digest of a simulation report.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn p85_of_seventy_leaves_ten_samples_above() {
        let xs: Vec<f64> = (1..=70).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.85), (60.0, 10));
        assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 0.85), (4.0, 0));
        assert_eq!(percentile(&[], 0.85), (0.0, 0));
    }

    #[test]
    fn thread_cpu_advances_with_work() {
        let before = thread_cpu();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(thread_cpu() > before || before == Duration::ZERO);
    }
}
