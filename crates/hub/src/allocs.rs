//! A warmed-up cache hit answered on the event loop allocates nothing:
//! the request is decoded where it lies, the head is read under the memo
//! lock, the raw text's alias touches its entry by handle, and the stored
//! frame is queued as it is. Driven without a socket, as the driver
//! would: [`Conn::feed`] → [`dispatch::serve_frames`] → [`Conn::flush`].
//!
//! The counting allocator is global to this test binary but counts per
//! thread, so tests running beside this one do not disturb its count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::IoSlice;
use std::sync::Arc;

use deeplake_core::dataset::TensorOptions;
use deeplake_core::Dataset;
use deeplake_remote::proto::{self, Request};
use deeplake_storage::{DynProvider, MemoryProvider};
use deeplake_tensor::{Dtype, Htype, Sample};
use deeplake_tql::QueryOptions;

use crate::conn::{Conn, ConnShared};
use crate::dispatch;
use crate::hub::Shared;
use crate::Hub;

struct Counting;

thread_local! {
    // const-initialised and without a destructor: safe to touch from
    // inside the allocator
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a plain thread-local integer.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: as for `alloc` and `dealloc`
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A hub whose default mount holds one tensor `x` of 200 `u8` scalars.
fn hub() -> Arc<Shared> {
    let store: DynProvider = Arc::new(MemoryProvider::new());
    let mut ds = Dataset::create(store.clone(), "d").unwrap();
    let mut opts = TensorOptions::new(Htype::Generic);
    opts.dtype = Some(Dtype::U8);
    ds.create_tensor_opts("x", opts).unwrap();
    for row in 0..200u64 {
        ds.append_row(vec![("x", Sample::scalar(row as u8))])
            .unwrap();
    }
    ds.flush().unwrap();
    Hub::builder()
        .default_mount(store)
        .build(Vec::new())
        .unwrap()
}

/// One tagged `Query` frame as it arrives, length header included.
fn query_frame(id: u64, text: &str) -> Vec<u8> {
    let query = Request::Query {
        reference: "main".into(),
        text: text.into(),
        options: QueryOptions::default(),
    };
    let payload = proto::tag_request(id, &proto::encode_request(&query));
    let mut wire = (payload.len() as u32).to_le_bytes().to_vec();
    wire.extend_from_slice(&payload);
    wire
}

/// The loop's whole part in one request: feed the frame, serve it, and
/// write the answer to a peer that takes everything. Returns the bytes
/// written.
fn serve(shared: &Shared, conn: &mut Conn, frame: &[u8]) -> usize {
    conn.feed(frame);
    dispatch::serve_frames(shared, conn).unwrap();
    let mut wrote = 0;
    conn.flush(|iov: &[IoSlice<'_>]| {
        let n = iov.iter().map(|s| s.len()).sum();
        wrote += n;
        Ok(n)
    })
    .unwrap();
    wrote
}

#[test]
fn a_warmed_up_loop_side_hit_allocates_nothing() {
    const HITS: usize = 1_000;
    let shared = hub();
    let mut conn = Conn::new(ConnShared::new(7, 0), shared.opts.conn_buffer_bytes);
    conn.pipelined = true;
    let text = "SELECT * FROM d WHERE x > 100";
    let frame = query_frame(1, text);
    // the first arrival is a worker's: it executes, caches and records
    // the raw text
    conn.feed(&frame);
    dispatch::serve_frames(&shared, &mut conn).unwrap();
    assert_eq!(shared.sched.load().1, 1, "the first arrival is a job");
    dispatch::run_job(&shared, shared.sched.pop().unwrap());
    let answer = serve(&shared, &mut conn, &[]);
    assert!(answer > 12 + 8 * 99, "{answer} bytes: 99 row ids and more");
    // warm-up: buffers and instrument slots reach their working size
    for _ in 0..100 {
        assert_eq!(serve(&shared, &mut conn, &frame), answer);
    }
    let hits = shared.cache.stats().cache_hits();
    let before = ALLOCATIONS.with(Cell::get);
    for _ in 0..HITS {
        assert_eq!(serve(&shared, &mut conn, &frame), answer);
    }
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(shared.cache.stats().cache_hits() - hits, HITS as u64);
    assert_eq!(shared.sched.load().1, 0, "every one answered on the loop");
    assert_eq!(allocations, 0, "{allocations} allocations over {HITS} hits");
}
