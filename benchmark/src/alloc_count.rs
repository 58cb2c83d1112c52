//! A counting global allocator: the source of every `*_allocs` metric.
//!
//! Compiled into the benchmark binary only — the workspace crates deny
//! `unsafe_code`, and this package sits outside that workspace.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Heap allocations (`alloc`, `alloc_zeroed` and `realloc` calls) since
/// process start. `Relaxed` suffices: the count is a statistic and
/// publishes no other data.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Forwards to the system allocator and counts each allocation.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is a
// relaxed counter increment, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations made so far by this process.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Allocations per call of `op`, over `ops` calls. Deterministic code
/// gives the same answer on every run, so these metrics repeat exactly.
pub fn allocs_per_op(ops: u64, mut op: impl FnMut()) -> f64 {
    let before = allocations();
    for _ in 0..ops {
        op();
    }
    (allocations() - before) as f64 / ops as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_one_allocation_per_box() {
        let per_op = allocs_per_op(100, || {
            std::hint::black_box(Box::new(7u64));
        });
        // Other test threads may allocate concurrently, so only a floor.
        assert!(per_op >= 1.0, "{per_op}");
    }
}
