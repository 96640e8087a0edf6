//! What a result depends on besides the code: the host and build it was
//! measured on, the process's peak memory, and a counting allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The host and build a result was measured on. `.cargo/config.toml`
/// compiles for the build host's CPU (`target-cpu=native`), so results
/// from different stamps are never compared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostStamp {
    /// CPU model name, from `/proc/cpuinfo`.
    pub cpu: String,
    /// Threads available to the process.
    pub nproc: usize,
    /// `release` or `debug`.
    pub profile: &'static str,
    /// Vector extensions the benchmark was compiled with, `+`-joined.
    pub features: String,
}

impl HostStamp {
    /// The stamp of this process.
    pub fn current() -> HostStamp {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let features: Vec<&str> = [
            ("avx2", cfg!(target_feature = "avx2")),
            ("avx512f", cfg!(target_feature = "avx512f")),
            ("fma", cfg!(target_feature = "fma")),
        ]
        .into_iter()
        .filter_map(|(name, on)| on.then_some(name))
        .collect();
        HostStamp {
            cpu,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            features: if features.is_empty() {
                "none".into()
            } else {
                features.join("+")
            },
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc/self/status` does not report it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

/// A global allocator that counts allocations and allocated bytes, then
/// defers to the system allocator. Only the `e2e` binary installs it;
/// elsewhere [`allocation_totals`] stays at zero.
pub struct CountingAlloc;

fn count(bytes: usize) {
    // Statistics only: no other data is published through these.
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    ALLOCATED_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only
// atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's guarantees on `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` and `layout` come from this allocator, which got
        // them from `System`; the caller guarantees `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations and allocated bytes since the process started (a
/// reallocation counts as one allocation of its new size).
pub fn allocation_totals() -> (u64, u64) {
    (
        ALLOCATIONS.load(Ordering::Relaxed),
        ALLOCATED_BYTES.load(Ordering::Relaxed),
    )
}
