//! Counting global allocator: live bytes, high-water mark, and cumulative
//! allocation count/bytes. Always on — the cost is identical on every
//! commit, so it never shows up as a difference between two of them.
//!
//! Each thread counts into its own cells and folds them into the shared
//! totals once it has moved 64 KiB or made 1 024 allocations, and when it
//! exits. Two worker threads hammering four shared atomics on every
//! allocation tripled the sharded workloads' wall time; batched, the
//! counters cost nothing measurable, and the high-water mark is off by at
//! most 64 KiB per thread against peaks of tens to hundreds of MiB.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

// Statistics only: no other data is published through these counters, so
// `Relaxed` is enough.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

const FLUSH_BYTES: i64 = 64 * 1024;
const FLUSH_COUNT: u64 = 1024;

/// One thread's not-yet-folded counts.
struct Local {
    live: Cell<i64>,
    count: Cell<u64>,
    bytes: Cell<u64>,
}

impl Local {
    fn flush(&self) {
        let delta = self.live.take();
        let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
        PEAK.fetch_max(live, Ordering::Relaxed);
        COUNT.fetch_add(self.count.take(), Ordering::Relaxed);
        BYTES.fetch_add(self.bytes.take(), Ordering::Relaxed);
    }

    fn record(&self, live_delta: i64, allocated: u64) {
        self.live.set(self.live.get() + live_delta);
        if allocated > 0 {
            self.count.set(self.count.get() + 1);
            self.bytes.set(self.bytes.get() + allocated);
        }
        if self.live.get().abs() >= FLUSH_BYTES || self.count.get() >= FLUSH_COUNT {
            self.flush();
        }
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    // Const-initialised: first use allocates nothing, so the allocator may
    // touch it. Its destructor folds a finished thread's remainder in.
    static LOCAL: Local = const {
        Local { live: Cell::new(0), count: Cell::new(0), bytes: Cell::new(0) }
    };
}

fn record(live_delta: i64, allocated: u64) {
    // While a thread's locals are being torn down `try_with` fails; those
    // few calls go straight to the shared totals.
    if LOCAL.try_with(|l| l.record(live_delta, allocated)).is_err() {
        let live = LIVE.fetch_add(live_delta, Ordering::Relaxed) + live_delta;
        PEAK.fetch_max(live, Ordering::Relaxed);
        if allocated > 0 {
            COUNT.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(allocated, Ordering::Relaxed);
        }
    }
}

pub struct Counting;

// SAFETY: every call forwards the caller's layout and pointer unchanged to
// `System`, which upholds the `GlobalAlloc` contract; the counters are
// side effects that never touch the returned memory and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size() as i64, layout.size() as u64);
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(-(layout.size() as i64), 0);
        // SAFETY: `ptr` came from `System.alloc` with this same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

fn flush_this_thread() {
    let _ = LOCAL.try_with(Local::flush);
}

/// Live heap bytes right now (other threads' unfolded remainders aside).
pub fn live() -> u64 {
    flush_this_thread();
    LIVE.load(Ordering::Relaxed).max(0) as u64
}

/// A window over the counters: opened at a point in time, read later.
pub struct Window {
    live0: i64,
    count0: u64,
    bytes0: u64,
}

/// What happened on the heap inside a [`Window`].
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// High-water mark above the live size at the window's start.
    pub peak_bytes: u64,
    /// Allocations made.
    pub count: u64,
    /// Bytes requested by those allocations.
    pub bytes: u64,
}

impl Window {
    /// Opens a window; the high-water mark restarts from the live size.
    pub fn open() -> Self {
        flush_this_thread();
        let live0 = LIVE.load(Ordering::Relaxed);
        PEAK.store(live0, Ordering::Relaxed);
        Window {
            live0,
            count0: COUNT.load(Ordering::Relaxed),
            bytes0: BYTES.load(Ordering::Relaxed),
        }
    }

    pub fn close(self) -> Usage {
        flush_this_thread();
        Usage {
            peak_bytes: (PEAK.load(Ordering::Relaxed) - self.live0).max(0) as u64,
            count: COUNT.load(Ordering::Relaxed) - self.count0,
            bytes: BYTES.load(Ordering::Relaxed) - self.bytes0,
        }
    }
}
