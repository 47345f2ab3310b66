//! Turning a stored chunk blob into a readable [`Chunk`] — what every scan
//! and every top-k pays ~196 times per query on the cold path, and the
//! loader once per fetched chunk.
//!
//! Four chunks the benchmark's dataset is made of: 256 embeddings of
//! `[32]` f32, 256 f32 scalars (alone, and under the LZ4 payload codec
//! label tensors use), and 32 image-codec thumbnails. Each is parsed the
//! way `TensorStore` does it — from a `Bytes` it already holds — alone,
//! then followed by the view a scan or top-k kernel asks for, then by
//! one row read. Every iteration does 100 rounds, so one timing is long
//! enough for the clock: divide by 100 for one chunk.

use bytes::Bytes;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use deeplake_codec::Compression;
use deeplake_format::Chunk;
use deeplake_sim::datagen;
use deeplake_tensor::{Dtype, Sample};

const ROUNDS: usize = 100;

fn chunk_of(dtype: Dtype, codec: Compression, samples: impl Iterator<Item = Sample>) -> Chunk {
    let mut chunk = Chunk::new(dtype);
    for s in samples {
        chunk.append_sample(&s, codec).unwrap();
    }
    chunk
}

fn bench_chunk_parse(c: &mut Criterion) {
    let mut group = c.benchmark_group("chunk_parse");
    group.sample_size(30);

    let vectors = chunk_of(
        Dtype::F32,
        Compression::None,
        (0..256).map(|i| Sample::from_slice([32], &[i as f32 * 0.5; 32]).unwrap()),
    );
    let scalars = chunk_of(
        Dtype::F32,
        Compression::None,
        (0..256).map(|i| Sample::scalar(i as f32)),
    );
    let images = chunk_of(
        Dtype::U8,
        Compression::JPEG_LIKE,
        datagen::imagenet_like(32, 32, 16)
            .iter()
            .map(|img| Sample::from_slice([32, 32, 3], &img.pixels).unwrap()),
    );
    // the view a kernel would ask each chunk for, given its last record:
    // the scalar column, or the record a top-k reads (the images refuse)
    type Column = fn(&Chunk, usize) -> bool;
    let cases: [(&str, Vec<u8>, Column); 4] = [
        (
            "256x32_f32",
            vectors.serialize(Compression::None),
            |c, last| c.vector_at(last, 32).is_some(),
        ),
        (
            "256_f32_scalars",
            scalars.serialize(Compression::None),
            |c, _| c.scalar_column().is_some(),
        ),
        (
            "256_f32_scalars_lz4_payload",
            scalars.serialize(Compression::Lz4),
            |c, _| c.scalar_column().is_some(),
        ),
        (
            "32_images_32x32x3",
            images.serialize(Compression::None),
            |c, last| c.vector_at(last, 32 * 32 * 3).is_some(),
        ),
    ];
    for (name, blob, column) in cases {
        let blob = Bytes::from(blob);
        let last = Chunk::parse(blob.clone()).unwrap().sample_count() - 1;
        group.bench_function(format!("parse_{name}_x{ROUNDS}"), |b| {
            b.iter(|| {
                for _ in 0..ROUNDS {
                    black_box(Chunk::parse(black_box(blob.clone())).unwrap());
                }
            })
        });
        group.bench_function(format!("parse_column_{name}_x{ROUNDS}"), |b| {
            b.iter(|| {
                for _ in 0..ROUNDS {
                    let chunk = Chunk::parse(black_box(blob.clone())).unwrap();
                    black_box(column(&chunk, last));
                }
            })
        });
        group.bench_function(format!("parse_sample_{name}_x{ROUNDS}"), |b| {
            b.iter(|| {
                for _ in 0..ROUNDS {
                    let chunk = Chunk::parse(black_box(blob.clone())).unwrap();
                    black_box(chunk.sample(last).unwrap());
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_chunk_parse);
criterion_main!(benches);
