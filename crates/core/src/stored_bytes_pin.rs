//! The stored bytes of a fixed write, pinned: every chunk object and
//! chunk encoder of three tensors, by FNV-1a-64 digest. How an append
//! reaches the open chunk may change; where a chunk closes, what a tiled
//! sample's tiles hold and how a blob is framed may not.
//!
//! The fixture crosses a chunk-full boundary in every tensor, flushes in
//! the middle of a chunk, tiles an oversized image, appends a pre-encoded
//! blob and appends a row that lacks a tensor. `_ids` is left out: its
//! ids are seeded from the clock.

use std::sync::Arc;

use deeplake_codec::Compression;
use deeplake_storage::{MemoryProvider, StorageProvider};
use deeplake_tensor::{Htype, Sample, Shape};

use crate::dataset::TensorOptions;
use crate::sample_id::{self, ID_TENSOR};
use crate::{Dataset, Row};

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// splitmix64: the fixture's pixels and vectors.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A smooth 16×16×3 image (compresses to about a quarter).
fn image(i: u64) -> Sample {
    let pixels: Vec<u8> = (0..16u64 * 16 * 3)
        .map(|p| ((p / 3 % 16) * 3 + (p / 48) * 2 + (p % 3) * 40 + i * 7) as u8)
        .collect();
    Sample::from_slice([16, 16, 3], &pixels).unwrap()
}

/// A 64×64×3 image of noise: its blob is past the images tensor's
/// 8 KiB cap, so it is tiled.
fn noise_image(state: &mut u64) -> Sample {
    let pixels: Vec<u8> = (0..64 * 64 * 3).map(|_| next(state) as u8).collect();
    Sample::from_slice([64, 64, 3], &pixels).unwrap()
}

fn embedding(state: &mut u64) -> Sample {
    let v: Vec<f32> = (0..8)
        .map(|_| (next(state) % 1000) as f32 / 999.0)
        .collect();
    Sample::from_slice([8], &v).unwrap()
}

fn fixture() -> Arc<MemoryProvider> {
    let store = Arc::new(MemoryProvider::new());
    let mut ds = Dataset::create(store.clone(), "pin").unwrap();
    let opts = |htype, target| {
        let mut o = TensorOptions::new(htype);
        o.chunk_target_bytes = Some(target);
        o
    };
    ds.create_tensor_opts("images", opts(Htype::Image, 4096))
        .unwrap();
    ds.create_tensor_opts("labels", opts(Htype::ClassLabel, 64))
        .unwrap();
    ds.create_tensor_opts("emb", opts(Htype::Embedding, 256))
        .unwrap();
    let mut state = 46;
    let row = |i: u64, state: &mut u64| {
        Row::new()
            .with("images", image(i))
            .with("labels", Sample::scalar((i % 13) as i32))
            .with("emb", embedding(state))
    };
    ds.extend_rows((0..50).map(|i| row(i, &mut state))).unwrap();
    // mid-chunk in every tensor: the open chunks are sealed short
    ds.flush().unwrap();
    ds.extend_rows((50..70).map(|i| row(i, &mut state)))
        .unwrap();
    // a row that lacks a tensor stores the empty marker there
    let mut lacking = row(70, &mut state);
    lacking.take("emb");
    ds.extend_rows([lacking]).unwrap();
    let tiled = row(71, &mut state).with("images", noise_image(&mut state));
    ds.extend_rows([tiled]).unwrap();
    // a pre-encoded image, copied into the chunk as it is
    let blob = Compression::JPEG_LIKE
        .compress_image(image(72).bytes(), 16, 16, 3)
        .unwrap();
    ds.store_mut("images")
        .unwrap()
        .append_encoded(blob, Shape::from([16, 16, 3]))
        .unwrap();
    ds.store_mut("labels")
        .unwrap()
        .append(&Sample::scalar(72i32))
        .unwrap();
    let emb = embedding(&mut state);
    ds.store_mut("emb").unwrap().append(&emb).unwrap();
    ds.store_mut(ID_TENSOR)
        .unwrap()
        .append(&Sample::scalar(sample_id::generate()))
        .unwrap();
    ds.extend_rows((73..120).map(|i| row(i, &mut state)))
        .unwrap();
    ds.flush().unwrap();
    assert_eq!(ds.len(), 120);
    store
}

/// `<tensor>/<key>` and digest of every chunk object and chunk encoder
/// of the three tensors, sorted.
fn digests(store: &MemoryProvider) -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = store
        .list("")
        .unwrap()
        .into_iter()
        .filter_map(|key| {
            let mut parts = key.rsplitn(3, '/');
            let (last, dir, rest) = (parts.next()?, parts.next()?, parts.next()?);
            let (tensor, object) = if dir == "chunks" {
                (rest.rsplit('/').next()?, format!("chunks/{last}"))
            } else {
                (dir, last.to_string())
            };
            let named = ["images", "labels", "emb"].contains(&tensor);
            (named && (dir == "chunks" || last == "chunk_encoder")).then(|| {
                let digest = fnv1a(&store.get(&key).unwrap());
                (format!("{tensor}/{object}"), digest)
            })
        })
        .collect();
    out.sort();
    out
}

#[test]
fn a_fixed_write_stores_the_pinned_bytes() {
    let store = fixture();
    let got = digests(&store);
    let count = |tensor: &str| got.iter().filter(|(k, _)| k.starts_with(tensor)).count();
    // more chunks than the two flushes and one tiled row seal: each
    // tensor closed some chunk because it was full
    for tensor in ["images/chunks/", "labels/chunks/", "emb/chunks/"] {
        assert!(count(tensor) > 4, "{tensor}: {} chunks", count(tensor));
    }
    let ds = Dataset::open(store).unwrap();
    assert_eq!(
        ds.get_shape("images", 71).unwrap(),
        Shape::from([64, 64, 3])
    );
    assert_eq!(ds.get_shape("emb", 70).unwrap(), Shape::from([0]));
    let want: &[(&str, u64)] = &[
        ("emb/chunk_encoder", 0xb4d8b7625640fb66),
        ("emb/chunks/0000000000000000", 0xd070229e8e9735ac),
        ("emb/chunks/0000000000000001", 0xc135fa32795dc960),
        ("emb/chunks/0000000000000002", 0xa724fd43a727ea47),
        ("emb/chunks/0000000000000003", 0x69d1e01ba8e570f8),
        ("emb/chunks/0000000000000004", 0x1e3d38e78d990b98),
        ("emb/chunks/0000000000000005", 0x7de4fe11eeb4555b),
        ("emb/chunks/0000000000000006", 0xee45b92cc92d7a75),
        ("emb/chunks/0000000000000007", 0xaf1f84ae47c916d3),
        ("emb/chunks/0000000000000008", 0xabba6277c8cb0cf1),
        ("emb/chunks/0000000000000009", 0xb282c6685f468ad9),
        ("emb/chunks/000000000000000a", 0x8988895cf82b058d),
        ("emb/chunks/000000000000000b", 0x73349f71f4b796a8),
        ("emb/chunks/000000000000000c", 0x6bd8fad0a75d9505),
        ("emb/chunks/000000000000000d", 0x27a7c3992ea6b97d),
        ("emb/chunks/000000000000000e", 0xa3dd9962c26851fd),
        ("emb/chunks/000000000000000f", 0x9fdc4d0536417844),
        ("emb/chunks/0000000000000010", 0xcc3105b4a31909a9),
        ("emb/chunks/0000000000000011", 0xb717c112aacd9b38),
        ("images/chunk_encoder", 0xb838e64755bc1b79),
        ("images/chunks/0000000000000000", 0x5df2a413ebdc61ca),
        ("images/chunks/0000000000000001", 0x7e663e2a2a3a1309),
        ("images/chunks/0000000000000002", 0xf6638cc5c78cde1b),
        ("images/chunks/0000000000000003", 0x2a1f7a55745ddb5e),
        ("images/chunks/0000000000000004", 0xa4c239976f546e31),
        ("images/chunks/0000000000000005", 0xb858338b196dfd7d),
        ("images/chunks/0000000000000006", 0xf3925a342e3d9c9a),
        ("images/chunks/0000000000000007", 0x46f832fabfadfa63),
        ("images/chunks/0000000000000008", 0xd95a33b36948a6e2),
        ("images/chunks/0000000000000009", 0xa49395363122c924),
        ("images/chunks/000000000000000a", 0xbac2b79801ea6a5d),
        ("images/chunks/000000000000000b", 0x90cbb2652cd7d8a8),
        ("images/chunks/000000000000000c", 0xe38e5756eea4e66f),
        ("images/chunks/000000000000000d", 0xb1e6380ef90566cd),
        ("images/chunks/000000000000000e", 0x9d1fa1ad44b6c532),
        ("images/chunks/000000000000000f", 0xe245e8a277d3f1eb),
        ("labels/chunk_encoder", 0x44b0d5b1b2c84099),
        ("labels/chunks/0000000000000000", 0x67a551aa455d6b86),
        ("labels/chunks/0000000000000001", 0x4ca12e20caf841e2),
        ("labels/chunks/0000000000000002", 0xcb50ada4dd91f42a),
        ("labels/chunks/0000000000000003", 0xf433d960b25b85d9),
        ("labels/chunks/0000000000000004", 0xa05b88df47d37cad),
        ("labels/chunks/0000000000000005", 0xcb50ada4dd91f42a),
        ("labels/chunks/0000000000000006", 0xc7361ab165808704),
        ("labels/chunks/0000000000000007", 0xaee8b5c1c92ac002),
        ("labels/chunks/0000000000000008", 0xaf7bdf25e8fcb5ad),
        ("labels/chunks/0000000000000009", 0xaa04757e6ec7f52e),
        ("labels/chunks/000000000000000a", 0x9b58a5cdbca8b89d),
    ];
    let got: Vec<(&str, u64)> = got.iter().map(|(k, d)| (k.as_str(), *d)).collect();
    assert_eq!(got, want);
}
