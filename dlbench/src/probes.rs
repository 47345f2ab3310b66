//! Per-layer probes: one public function of one layer, called in a loop
//! on seeded samples and timed from outside. A probe reports the median
//! of its repetitions. Probes run only in traced runs, after the rounds.

use std::hint::black_box;
use std::time::Instant;

use bytes::Bytes;
use deeplake_codec::{lz4, Compression};
use deeplake_core::{Dataset, Metric, VectorIndex};
use deeplake_format::{Chunk, ChunkBuilder, ChunkSizePolicy, ChunkStats, ChunkStatsIndex};
use deeplake_remote::proto::{self, Request};
use deeplake_remote::RemoteProvider;
use deeplake_storage::{LocalProvider, StorageProvider};
use deeplake_tensor::Dtype;
use deeplake_tql::{QueryResult, QueryStats};

use crate::gen::{self, Rng, IMAGE_SIDE};
use crate::metrics::Metrics;
use crate::stats::median;
use crate::workloads::query::OPTIONS;

/// Median wall time of `reps` calls of `f`, nanoseconds.
fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

fn mb_per_s(bytes: usize, ns: f64) -> f64 {
    bytes as f64 / 1e6 / (ns / 1e9)
}

/// The probes that need nothing but the seed: `codec.*`, `format.*`
/// (except the chunk count), `tql.parse_us`, the two `remote.*_ns`, and
/// the `LocalProvider` pair (the one place a disk is touched, under
/// `scratch`).
pub fn standalone(seed: u64, scratch: &std::path::Path, out: &mut Metrics) {
    let mut rng = Rng::stream(seed, 0x9B0BE);
    let images: Vec<Vec<u8>> = (0..64).map(|_| gen::image(&mut rng)).collect();
    let side = IMAGE_SIDE as u32;
    let raw: usize = images.iter().map(Vec::len).sum();

    // codec: the image codec on the workloads' images, LZ4 on a label
    // chunk's worth of clustered i32s
    let codec = Compression::JPEG_LIKE;
    let encode = |img: &Vec<u8>| {
        codec
            .compress_image(img, side, side, 3)
            .expect("encode a 32x32x3 image")
    };
    let blobs: Vec<Vec<u8>> = images.iter().map(encode).collect();
    let ns = median_ns(20, || {
        for img in &images {
            black_box(encode(black_box(img)));
        }
    });
    out.set("codec.image_encode_mb_s", mb_per_s(raw, ns));
    let ns = median_ns(20, || {
        for blob in &blobs {
            black_box(Compression::decompress_image(black_box(blob)).expect("decode image"));
        }
    });
    out.set("codec.image_decode_mb_s", mb_per_s(raw, ns));
    let labels: Vec<u8> = (0..16_384i32)
        .flat_map(|i| (i / gen::ROWS_PER_LABEL as i32).to_le_bytes())
        .collect();
    let packed = lz4::compress(&labels);
    let ns = median_ns(50, || {
        black_box(lz4::compress(black_box(&labels)));
    });
    out.set("codec.lz4_encode_mb_s", mb_per_s(labels.len(), ns));
    let ns = median_ns(50, || {
        black_box(lz4::decompress(black_box(&packed), labels.len()).expect("lz4 decode"));
    });
    out.set("codec.lz4_decode_mb_s", mb_per_s(labels.len(), ns));

    // format: one chunk of 32 images, built, serialized, parsed, read
    let mut rng = Rng::stream(seed, 0xF0A);
    let samples: Vec<_> = (0..32).map(|_| gen::image_sample(&mut rng)).collect();
    let build = || {
        let mut b = ChunkBuilder::new(Dtype::U8, codec, ChunkSizePolicy::with_target(1 << 20));
        for s in &samples {
            b.push(s).expect("push sample");
        }
        b.finish()
            .expect("an open chunk")
            .serialize(Compression::None)
    };
    let serialized = build();
    out.set(
        "format.chunk_build_us",
        median_ns(20, || {
            black_box(build());
        }) / 1e3,
    );
    out.set(
        "format.chunk_parse_us",
        median_ns(50, || {
            black_box(Chunk::deserialize(black_box(&serialized)).expect("parse chunk"));
        }) / 1e3,
    );
    let chunk = Chunk::deserialize(&serialized).expect("parse chunk");
    out.set(
        "format.sample_decode_us",
        median_ns(50, || {
            for i in 0..chunk.sample_count() {
                black_box(chunk.sample(i).expect("decode sample"));
            }
        }) / 1e3
            / chunk.sample_count() as f64,
    );
    let mut index = ChunkStatsIndex::new();
    for id in 0..256u64 {
        let lo = ChunkStats::single(id as f64).expect("finite");
        let hi = ChunkStats::single(id as f64 + 15.0).expect("finite");
        index.insert(id, lo.merge(&hi));
    }
    let stats_bytes = index.serialize();
    out.set(
        "format.stats_index_decode_us",
        median_ns(50, || {
            black_box(ChunkStatsIndex::deserialize(black_box(&stats_bytes)).expect("parse stats"));
        }) / 1e3,
    );

    // tql: the parser alone, on a top-k text (the longest class)
    let text = gen::QueryTexts::new(seed, 4096).next(gen::QueryClass::TopK);
    out.set(
        "tql.parse_us",
        median_ns(200, || {
            black_box(deeplake_tql::parser::parse(black_box(&text)).expect("parse"));
        }) / 1e3,
    );

    // remote: framing cost of one query each way (a 16-row result)
    let request = Request::Query {
        reference: "main".to_string(),
        text,
        options: OPTIONS,
    };
    out.set(
        "remote.request_encode_ns",
        median_ns(200, || {
            black_box(proto::encode_request(black_box(&request)));
        }),
    );
    let response = proto::resp_query(&QueryResult {
        indices: (0..gen::ROWS_PER_LABEL).collect(),
        columns: Vec::new(),
        rows: None,
        dataset: None,
        version: None,
        stats: QueryStats::default(),
    });
    out.set(
        "remote.response_decode_ns",
        median_ns(200, || {
            black_box(proto::expect_query(black_box(&response)).expect("decode response"));
        }),
    );

    // storage: the only disk access in the benchmark, diagnostic only
    let dir = scratch.join("local-probe");
    let _ = std::fs::remove_dir_all(&dir);
    if let Ok(local) = LocalProvider::new(&dir) {
        let value = Bytes::from(serialized);
        let mut key = 0;
        let put_ns = median_ns(50, || {
            key += 1;
            local
                .put(&format!("probe/{key}"), value.clone())
                .expect("local put");
        });
        out.set("storage.local_put_us_p50", put_ns / 1e3);
        let mut key = 0;
        let get_ns = median_ns(50, || {
            key += 1;
            black_box(local.get(&format!("probe/{key}")).expect("local get"));
        });
        out.set("storage.local_get_us_p50", get_ns / 1e3);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Median `Health` round trip on an idle connection, microseconds.
pub fn ping_rtt_us(remote: &RemoteProvider) -> f64 {
    median_ns(200, || {
        black_box(remote.hub_health().expect("health probe"));
    }) / 1e3
}

/// Median `Dataset::get_rows_batch` of `n` consecutive rows at seeded
/// offsets, milliseconds. Each call reads rows no earlier call touched,
/// so the handle's decoded-chunk memo does not serve them.
pub fn get_rows_batch_ms(ds: &Dataset, tensors: &[&str], n: usize) -> f64 {
    let tensors: Vec<String> = tensors.iter().map(|t| t.to_string()).collect();
    let blocks = ds.len() / n as u64;
    let mut order = Rng::new(ds.len()).permutation(blocks);
    order.truncate(40);
    let mut next = order.into_iter();
    median_ns(next.len(), || {
        let block = next.next().expect("one block per repetition");
        let rows: Vec<u64> = (block * n as u64..(block + 1) * n as u64).collect();
        black_box(ds.get_rows_batch(&tensors, &rows).expect("batched read"));
    }) / 1e6
}

/// Median `VectorIndex::probe` with the workload's `nprobe`, microseconds.
pub fn index_probe_us(index: &VectorIndex) -> f64 {
    let emb = gen::Embeddings::new(1);
    let mut rng = Rng::new(2);
    let mut queries = (0..100)
        .map(|_| -> Vec<f64> { emb.vector(&mut rng).iter().map(|&x| f64::from(x)).collect() });
    median_ns(queries.len(), || {
        let q = queries.next().expect("one query per repetition");
        black_box(index.probe(&q, Metric::Cosine, OPTIONS.nprobe));
    }) / 1e3
}
