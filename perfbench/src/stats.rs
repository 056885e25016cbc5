//! Exact percentiles, the host fingerprint, the heap peak, and a flat JSON
//! writer.

use std::fmt::Write as _;

/// Exact nearest-rank percentile of `sorted` (ascending), `p` in `(0, 1]`.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a small set of measurements (mean of the middle pair).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no measurements");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Latency samples in nanoseconds, summarised in microseconds.
pub struct Latency {
    pub n: usize,
    pub p50_us: f64,
    pub p99_us: f64,
}

impl Latency {
    pub fn of(mut ns: Vec<u64>) -> Option<Self> {
        if ns.is_empty() {
            return None;
        }
        ns.sort_unstable();
        Some(Self {
            n: ns.len(),
            p50_us: percentile(&ns, 0.50) as f64 / 1e3,
            p99_us: percentile(&ns, 0.99) as f64 / 1e3,
        })
    }
}

/// Bytes the C allocator has handed out and not yet taken back, in MiB:
/// glibc's `mallinfo2`, in-use chunks plus mapped blocks. Unlike the
/// resident size, it does not move with how the allocator's per-thread
/// arenas happen to fragment. NaN where glibc is not the allocator.
pub fn heap_in_use_mb() -> f64 {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        #[repr(C)]
        struct MallInfo2 {
            arena: usize,
            ordblks: usize,
            smblks: usize,
            hblks: usize,
            hblkhd: usize,
            usmblks: usize,
            fsmblks: usize,
            uordblks: usize,
            fordblks: usize,
            keepcost: usize,
        }
        extern "C" {
            fn mallinfo2() -> MallInfo2;
        }
        // SAFETY: `mallinfo2` takes no arguments and returns a plain struct
        // by value; glibc 2.33 and later provide it.
        let m = unsafe { mallinfo2() };
        (m.uordblks + m.hblkhd) as f64 / (1u64 << 20) as f64
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    {
        f64::NAN
    }
}

/// The program's heap while it serves, without the benchmark's own: the
/// heap in use is read before set-up, when it holds only the benchmark's
/// inputs and buffers ([`HeapPeak::baseline`]), then sampled while the
/// program serves ([`HeapPeak::sample`]); the figure is the largest sample
/// minus the baseline.
pub struct HeapPeak {
    baseline_mb: f64,
    peak_mb: f64,
}

impl HeapPeak {
    pub fn baseline() -> Self {
        let baseline_mb = heap_in_use_mb();
        Self {
            baseline_mb,
            peak_mb: baseline_mb,
        }
    }

    pub fn sample(&mut self) {
        self.peak_mb = self.peak_mb.max(heap_in_use_mb());
    }

    /// Largest sample above the baseline, in MiB.
    pub fn grown_mb(&self) -> f64 {
        self.peak_mb - self.baseline_mb
    }
}

/// CPU time the hypervisor gave to other guests (`steal` in `/proc/stat`),
/// in clock ticks, summed over CPUs; 0 where the host does not report it.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// Host and toolchain facts recorded with every result.
pub fn fingerprint() -> Vec<(&'static str, String)> {
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let rustc =
        std::process::Command::new(std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()))
            .arg("--version")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into());
    vec![
        ("cores", cores.to_string()),
        ("cpu", cpu),
        ("kernel", kernel),
        ("rustc", rustc),
        ("rustflags", std::env::var("RUSTFLAGS").unwrap_or_default()),
    ]
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (which JSON cannot carry) become `null`.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

/// A JSON object from already-rendered values.
pub fn json_obj<'a>(fields: impl IntoIterator<Item = (&'a str, String)>) -> String {
    let body: Vec<String> = fields
        .into_iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Linux CPU affinity, without a libc crate: the C library is linked anyway.
mod affinity {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    const WORDS: usize = 16;

    /// The CPUs this process may run on.
    pub fn allowed() -> Vec<usize> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the size passed.
        if unsafe { sched_getaffinity(0, WORDS * 8, mask.as_mut_ptr()) } != 0 {
            return Vec::new();
        }
        (0..WORDS * 64)
            .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    }

    /// Restricts the calling thread (and threads it spawns later) to `cpu`.
    pub fn pin(cpu: usize) -> bool {
        let mut mask = [0u64; WORDS];
        mask[cpu / 64] |= 1 << (cpu % 64);
        // SAFETY: `mask` is a readable buffer of exactly the size passed.
        unsafe { sched_setaffinity(0, WORDS * 8, mask.as_ptr()) == 0 }
    }
}

/// Which side of the loopback a thread belongs to.
#[derive(Clone, Copy, Debug)]
pub enum Side {
    Server,
    Client,
}

/// Pins the calling thread to the first allowed CPU (the server's reactor)
/// or the second (the clients), when the host has two, so that clients never
/// share the server's core, as remote clients would not. Left to the OS,
/// the placement changed from run to run: over six paired `point-hot` runs
/// on a 2-vCPU host, unpinned p50s fell in two groups (22.5–23.4 µs and
/// 31.1–31.7 µs, spread 27% of the median) and pinned ones in one
/// (25.5–28.1 µs, spread 7%). Returns whether it pinned.
pub fn pin(side: Side) -> bool {
    let cpus = affinity::allowed();
    if cpus.len() < 2 {
        return false;
    }
    affinity::pin(match side {
        Side::Server => cpus[0],
        Side::Client => cpus[1],
    })
}
