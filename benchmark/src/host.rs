//! What the harness reads from the host: exact allocation counts, peak
//! resident memory, and a fingerprint of the machine the numbers came from.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator plus two counters. Allocation counts are a property
/// of the program, not of the machine: they repeat exactly between runs, so
/// they explain moves of `ops_per_s` and `peak_rss_mib` without noise.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are plain statistics (Relaxed: they
// publish no other data).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is the
        // caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// (allocation calls, bytes requested) since the process started.
pub fn alloc_counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let field = proc_field("/proc/self/status", "VmHWM")?;
    let kib: f64 = field.split_whitespace().next()?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The 1/5/15-minute load averages.
pub fn load_average() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|| "unknown".into())
}

/// `nproc` and the CPU model: wall-clock numbers mean nothing without them.
pub fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let model = proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into());
    format!("nproc={nproc} cpu=\"{model}\"")
}
