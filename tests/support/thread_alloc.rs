//! Thread-tracking global allocator for the allocation-pin tests.
//!
//! Counts allocations and allocated bytes *by the current thread* only, so
//! a pin is immune to whatever the libtest harness thread and the other
//! tests in the same binary allocate concurrently. The counters live in a
//! const-initialised thread-local — no lazy init, so the allocator itself
//! never recurses into an allocation.
//!
//! Not a test target (Cargo only discovers `tests/*.rs`): each pin test
//! pulls it in with `#[path = "…/tests/support/thread_alloc.rs"] mod
//! thread_alloc;`, which also installs it as that binary's
//! `#[global_allocator]`.

// Each including test reads one of the two counters.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct ThreadTrackingAlloc;

fn count(bytes: usize) {
    let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
    let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
}

unsafe impl GlobalAlloc for ThreadTrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through the methods above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` through the methods above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: ThreadTrackingAlloc = ThreadTrackingAlloc;

/// Allocations (and reallocations) the calling thread has made so far.
pub fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Bytes the calling thread has requested from the allocator so far.
pub fn bytes() -> u64 {
    BYTES.with(Cell::get)
}
