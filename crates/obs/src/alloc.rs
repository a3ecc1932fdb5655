//! Opt-in heap-allocation tracking (`track-alloc` feature).
//!
//! [`TrackingAlloc`] wraps the system allocator and maintains four
//! process-wide atomics: cumulative allocation count and bytes, current live
//! bytes, and the peak of live bytes. When the `track-alloc` feature is
//! enabled it is installed as the `#[global_allocator]`, and the span
//! machinery in [`crate::registry`] reads [`stats`] at every span open/close
//! to attribute per-span `*_allocs` / `*_bytes` counters and a
//! `*_peak_live_bytes` gauge.
//!
//! Determinism contract: on a single-threaded workload the allocation count
//! and byte totals between two program points are a pure function of the
//! code executed, so same-seed runs produce bit-identical counter values —
//! `obs-diff` relies on this (the per-span allocation counters are ordinary
//! counters, so their drift is breaking). The tracker itself never
//! allocates: all four cells are plain atomics updated with relaxed
//! operations.
//!
//! Without the feature nothing is installed, [`is_tracking`] is `false`
//! (a compile-time constant, so the span-path branches fold away), and
//! [`stats`] reports zeros.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

/// A [`GlobalAlloc`] that delegates to [`System`] and counts every
/// allocation. Safe to install from process start; it performs no
/// allocation, locking, or I/O of its own.
pub struct TrackingAlloc;

fn on_alloc(size: u64) {
    ALLOCS.fetch_add(1, Relaxed);
    ALLOC_BYTES.fetch_add(size, Relaxed);
    let live = LIVE_BYTES.fetch_add(size, Relaxed) + size;
    PEAK_LIVE_BYTES.fetch_max(live, Relaxed);
}

unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            on_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            on_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE_BYTES.fetch_sub(layout.size() as u64, Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // Counted as one new allocation of the new size plus a free of
            // the old block, mirroring what a manual alloc+copy+dealloc
            // would record.
            on_alloc(new_size as u64);
            LIVE_BYTES.fetch_sub(layout.size() as u64, Relaxed);
        }
        p
    }
}

#[cfg(feature = "track-alloc")]
#[global_allocator]
static GLOBAL_TRACKER: TrackingAlloc = TrackingAlloc;

/// Whether allocation tracking is compiled in. A `const fn` of a cfg flag,
/// so `is_tracking().then(..)` span-path captures cost nothing when off.
pub const fn is_tracking() -> bool {
    cfg!(feature = "track-alloc")
}

/// Point-in-time allocator totals. All-zero unless `track-alloc` is on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Cumulative number of allocations (allocs + reallocs) since start.
    pub allocs: u64,
    /// Cumulative bytes requested since start.
    pub bytes: u64,
    /// Bytes currently live (allocated minus freed).
    pub live_bytes: u64,
    /// Highest `live_bytes` ever observed.
    pub peak_live_bytes: u64,
}

impl AllocStats {
    /// Allocation activity between `earlier` and `self`: cumulative fields
    /// subtract; `live_bytes` and `peak_live_bytes` carry this snapshot's
    /// point-in-time values.
    pub fn delta_since(&self, earlier: &AllocStats) -> AllocStats {
        AllocStats {
            allocs: self.allocs.saturating_sub(earlier.allocs),
            bytes: self.bytes.saturating_sub(earlier.bytes),
            live_bytes: self.live_bytes,
            peak_live_bytes: self.peak_live_bytes,
        }
    }
}

/// Reads the current process-wide allocator totals.
pub fn stats() -> AllocStats {
    AllocStats {
        allocs: ALLOCS.load(Relaxed),
        bytes: ALLOC_BYTES.load(Relaxed),
        live_bytes: LIVE_BYTES.load(Relaxed),
        peak_live_bytes: PEAK_LIVE_BYTES.load(Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_subtracts_cumulative_fields() {
        let a = AllocStats {
            allocs: 10,
            bytes: 1000,
            live_bytes: 400,
            peak_live_bytes: 900,
        };
        let b = AllocStats {
            allocs: 25,
            bytes: 2500,
            live_bytes: 300,
            peak_live_bytes: 1200,
        };
        let d = b.delta_since(&a);
        assert_eq!(d.allocs, 15);
        assert_eq!(d.bytes, 1500);
        assert_eq!(d.live_bytes, 300);
        assert_eq!(d.peak_live_bytes, 1200);
    }

    #[cfg(feature = "track-alloc")]
    #[test]
    fn tracker_counts_a_real_allocation() {
        let before = stats();
        let v: Vec<u8> = Vec::with_capacity(4096);
        let after = stats();
        assert!(after.allocs > before.allocs);
        assert!(after.bytes >= before.bytes + 4096);
        drop(v);
        let freed = stats();
        assert!(freed.live_bytes <= after.live_bytes);
    }
}
