//! A counting global allocator, for the test and bench binaries that
//! gate how often a path allocates.
//!
//! [`Counting`] forwards every call to the system allocator and counts
//! each allocation and reallocation, with the bytes it asked for, both
//! on the calling thread and over every thread of the process. A binary
//! installs it with one line,
//!
//! ```ignore
//! #[global_allocator]
//! static GLOBAL: deeplake_obs::alloc::Counting = deeplake_obs::alloc::Counting;
//! ```
//!
//! and reads [`counted`] (this thread: tests running beside it do not
//! disturb the count) or [`Counting::total`] (every thread: a path that
//! hands work to other threads). Without the attribute nothing is
//! counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Allocations (reallocations included) and the bytes they asked for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub allocations: usize,
    pub bytes: usize,
}

impl Counts {
    /// What was counted between `before` and `self`.
    pub fn since(self, before: Counts) -> Counts {
        Counts {
            allocations: self.allocations - before.allocations,
            bytes: self.bytes - before.bytes,
        }
    }
}

thread_local! {
    // const-initialised and without a destructor: safe to touch from
    // inside the allocator
    static THREAD: Cell<Counts> = const {
        Cell::new(Counts {
            allocations: 0,
            bytes: 0,
        })
    };
}

// Relaxed: statistics, read after the threads they count are joined.
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

/// The counting allocator (see the module docs).
pub struct Counting;

impl Counting {
    /// What this thread has allocated so far.
    fn thread() -> Counts {
        THREAD.with(Cell::get)
    }

    /// What every thread of the process has allocated so far.
    pub fn total() -> Counts {
        Counts {
            allocations: ALLOCATIONS.load(Ordering::Relaxed),
            bytes: BYTES.load(Ordering::Relaxed),
        }
    }

    fn count(bytes: usize) {
        THREAD.with(|n| {
            let c = n.get();
            n.set(Counts {
                allocations: c.allocations + 1,
                bytes: c.bytes + bytes,
            })
        });
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counters are plain integers.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Counting::count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Counting::count(new_size);
        // SAFETY: as for `alloc` and `dealloc`
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// `f`'s result and what it allocated on this thread.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, Counts) {
    let before = Counting::thread();
    let out = f();
    (out, Counting::thread().since(before))
}
