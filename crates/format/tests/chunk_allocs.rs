//! `Chunk::parse` allocates a constant number of times, whatever the
//! record count. Its own test binary: the counting allocator is global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::Bytes;
use deeplake_codec::Compression;
use deeplake_format::Chunk;
use deeplake_tensor::{Dtype, Sample};

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

/// Allocations (and reallocations) one parse of `blob` makes on this thread.
fn parse_allocations(blob: &Bytes) -> usize {
    let blob = blob.clone();
    let before = ALLOCATIONS.with(Cell::get);
    let chunk = Chunk::parse(blob).expect("a serialized chunk");
    let count = ALLOCATIONS.with(Cell::get) - before;
    assert!(chunk.sample_count() > 0);
    count
}

fn chunk_of(n: usize, sample: impl Fn(usize) -> Sample) -> Chunk {
    let first = sample(0);
    let mut chunk = Chunk::new(first.dtype());
    for i in 0..n {
        chunk.append_sample(&sample(i), Compression::None).unwrap();
    }
    chunk
}

#[test]
fn parse_allocates_the_same_for_16_records_as_for_4096() {
    let vectors = |n| chunk_of(n, |i| Sample::from_slice([32], &[i as f32; 32]).unwrap());
    let scalars = |n| chunk_of(n, |i| Sample::scalar(i as i32));
    // shapes that keep changing, ranks 1..=3
    let ragged = |n| {
        chunk_of(n, |i| {
            let dims: Vec<u64> = (0..1 + i % 3).map(|a| 1 + ((i + a) % 3) as u64).collect();
            Sample::zeros(Dtype::U8, dims)
        })
    };
    type Build<'a> = &'a dyn Fn(usize) -> Chunk;
    let cases: [(&str, Build, Compression, usize); 5] = [
        // offsets + the one shared shape
        ("uniform vectors", &vectors, Compression::None, 2),
        // a scalar's shape is an empty `Vec`: offsets only
        ("scalars", &scalars, Compression::None, 1),
        // + the decoded payload buffer
        ("scalars, lz4 payload", &scalars, Compression::Lz4, 2),
        // offsets + per-record starts + flat dims
        ("ragged", &ragged, Compression::None, 3),
        ("ragged, rle payload", &ragged, Compression::Rle, 4),
    ];
    for (name, build, codec, expected) in cases {
        for n in [16, 256, 4096] {
            let blob = Bytes::from(build(n).serialize(codec));
            assert_eq!(parse_allocations(&blob), expected, "{name}, {n} records");
        }
    }
}
