//! `Chunk::parse` allocates a constant number of times, whatever the
//! record count. Its own test binary: the counting allocator is global.

use bytes::Bytes;
use deeplake_codec::Compression;
use deeplake_format::Chunk;
use deeplake_obs::alloc::{counted, Counting};
use deeplake_tensor::{Dtype, Sample};

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) one parse of `blob` makes on this thread.
fn parse_allocations(blob: &Bytes) -> usize {
    let blob = blob.clone();
    let (chunk, count) = counted(|| Chunk::parse(blob).expect("a serialized chunk"));
    assert!(chunk.sample_count() > 0);
    count.allocations
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
