//! The codec layer on its own: what one worker pays to decode a sample
//! (§4.6 parallelizes exactly this) and what ingestion pays to encode one.
//!
//! Image rows run the framed image codec the way chunks call it, on the
//! benchmark's 32×32×3 thumbnails (the LZ4 stage sees a 3 KiB plane, so
//! the encoder's match table is the small one) and on 224×224×3 crops
//! (the 64 Ki-slot table). LZ4 rows run the raw block codec on a label
//! chunk's worth of clustered i32s at both table sizes, and on bytes that
//! do not compress. Every iteration handles a whole set, so one timing is
//! long enough for the clock; divide by the bytes in the row's name.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use deeplake_codec::{lz4, Compression};
use deeplake_sim::datagen;

/// Clustered labels as little-endian i32s, `bytes` long.
fn labels(bytes: usize) -> Vec<u8> {
    (0..(bytes / 4) as i32)
        .flat_map(|i| (i / 32).to_le_bytes())
        .collect()
}

fn noise(bytes: usize) -> Vec<u8> {
    let mut state = 0x1234_5678_9abc_def0u64;
    (0..bytes)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as u8
        })
        .collect()
}

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec");
    group.sample_size(30);

    let codec = Compression::JPEG_LIKE;
    for (side, count) in [(32u32, 64usize), (224, 4)] {
        let images = datagen::imagenet_like(count, side, 15);
        let encode = |pixels: &[u8]| codec.compress_image(pixels, side, side, 3).unwrap();
        let blobs: Vec<Vec<u8>> = images.iter().map(|img| encode(&img.pixels)).collect();
        let kib = images.iter().map(|img| img.pixels.len()).sum::<usize>() >> 10;
        group.bench_function(format!("image_encode_{side}x{side}x3_{kib}KiB"), |b| {
            b.iter(|| {
                for img in &images {
                    black_box(encode(black_box(&img.pixels)));
                }
            })
        });
        group.bench_function(format!("image_decode_{side}x{side}x3_{kib}KiB"), |b| {
            b.iter(|| {
                for blob in &blobs {
                    black_box(Compression::decompress_image(black_box(blob)).unwrap());
                }
            })
        });
    }

    // 16 rounds of the 4 KiB inputs per iteration, so both sizes time 64 KiB
    let inputs = [
        ("labels_4KiB", labels(4 << 10), 16),
        ("labels_64KiB", labels(64 << 10), 1),
        ("noise_4KiB", noise(4 << 10), 16),
        ("noise_64KiB", noise(64 << 10), 1),
    ];
    for (name, data, rounds) in &inputs {
        let packed = lz4::compress(data);
        group.bench_function(format!("lz4_encode_{name}_x{rounds}"), |b| {
            b.iter(|| {
                for _ in 0..*rounds {
                    black_box(lz4::compress(black_box(data)));
                }
            })
        });
        group.bench_function(format!("lz4_decode_{name}_x{rounds}"), |b| {
            b.iter(|| {
                for _ in 0..*rounds {
                    black_box(lz4::decompress(black_box(&packed), data.len()).unwrap());
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_codec);
criterion_main!(benches);
