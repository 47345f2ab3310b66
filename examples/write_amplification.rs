//! Where the write path's bytes go: every `put` of an ingest-shaped run
//! (64 batches of 256 rows of image + label + embedding, `extend_rows` +
//! `flush` per batch, one `commit`) recorded by key and totalled per
//! object kind — chunks, `commit_diff.json`, chunk encoder, chunk
//! statistics, chunk set, tensor meta, schema, version tree. The next
//! write-path cost is read off this table, not guessed.
//!
//! ```sh
//! cargo run --release --example write_amplification
//! ```
//!
//! `tests/write_amplification.rs` drives the same harness and asserts what
//! the table shows: a flush costs what was appended since the last one.

use std::sync::{Arc, Mutex};

use bytes::Bytes;
use deeplake::prelude::*;
use deeplake::storage::StorageError;

/// Batches written, one flush each.
pub const BATCHES: usize = 64;
/// Rows per batch.
pub const BATCH_ROWS: usize = 256;

/// A [`MemoryProvider`] that remembers every `put`: key and byte count,
/// in call order.
#[derive(Default)]
pub struct PutLog {
    inner: MemoryProvider,
    puts: Mutex<Vec<(String, u64)>>,
}

impl PutLog {
    /// The puts from call number `from` on.
    pub fn puts_since(&self, from: usize) -> Vec<(String, u64)> {
        self.puts.lock().expect("no holder panics")[from..].to_vec()
    }

    /// Number of puts so far.
    pub fn put_count(&self) -> usize {
        self.puts.lock().expect("no holder panics").len()
    }

    /// Bytes the store holds now.
    pub fn stored_bytes(&self) -> u64 {
        self.inner.total_bytes()
    }
}

impl StorageProvider for PutLog {
    fn get(&self, key: &str) -> Result<Bytes, StorageError> {
        self.inner.get(key)
    }
    fn get_range(&self, key: &str, start: u64, end: u64) -> Result<Bytes, StorageError> {
        self.inner.get_range(key, start, end)
    }
    fn put(&self, key: &str, value: Bytes) -> Result<(), StorageError> {
        self.puts
            .lock()
            .expect("no holder panics")
            .push((key.to_string(), value.len() as u64));
        self.inner.put(key, value)
    }
    fn delete(&self, key: &str) -> Result<(), StorageError> {
        self.inner.delete(key)
    }
    fn exists(&self, key: &str) -> Result<bool, StorageError> {
        self.inner.exists(key)
    }
    fn len_of(&self, key: &str) -> Result<u64, StorageError> {
        self.inner.len_of(key)
    }
    fn list(&self, prefix: &str) -> Result<Vec<String>, StorageError> {
        self.inner.list(prefix)
    }
    fn describe(&self) -> String {
        format!("put log over {}", self.inner.describe())
    }
}

/// The object kinds of the table, in print order.
pub const KINDS: [&str; 9] = [
    "chunks",
    "commit_diff.json",
    "chunk encoder",
    "chunk stats",
    "chunk set",
    "tensor meta",
    "schema",
    "version tree",
    "other",
];

/// The kind of object stored at `key`.
pub fn kind(key: &str) -> &'static str {
    let name = key.rsplit('/').next().unwrap_or(key);
    match name {
        _ if key.contains("/chunks/") => "chunks",
        "commit_diff.json" => "commit_diff.json",
        "chunk_encoder" => "chunk encoder",
        "chunk_stats" => "chunk stats",
        "chunk_set.json" => "chunk set",
        "meta.json" => "tensor meta",
        "schema.json" => "schema",
        "version_control_info.json" => "version tree",
        _ => "other",
    }
}

/// An empty three-tensor dataset on `store`.
pub fn create(store: &Arc<PutLog>) -> Dataset {
    let mut ds = Dataset::create(store.clone(), "write-amplification").expect("create");
    ds.create_tensor("images", Htype::Image, None)
        .expect("images");
    ds.create_tensor("labels", Htype::ClassLabel, None)
        .expect("labels");
    ds.create_tensor("emb", Htype::Embedding, None)
        .expect("emb");
    ds
}

/// Batch number `batch` of the run: deterministic, so two runs put the
/// same bytes.
pub fn rows(batch: usize) -> Vec<Row> {
    let mut state = (batch as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
    (0..BATCH_ROWS)
        .map(|_| {
            // a smooth ramp plus a little noise: compresses like a photo
            let base = next();
            let image: Vec<u8> = (0..16 * 16 * 3)
                .map(|i| (base as usize + i / 3 + (next() % 4) as usize) as u8)
                .collect();
            let emb: Vec<f32> = (0..32).map(|_| next() as f32 / u32::MAX as f32).collect();
            Row::new()
                .with(
                    "images",
                    Sample::from_slice([16, 16, 3], &image).expect("shape"),
                )
                .with("labels", Sample::scalar((next() % 1000) as i32))
                .with("emb", Sample::from_slice([32], &emb).expect("shape"))
        })
        .collect()
}

fn main() {
    let store = Arc::new(PutLog::default());
    let mut ds = create(&store);
    let mut user_bytes = 0u64;
    for batch in 0..BATCHES {
        let batch = rows(batch);
        user_bytes += batch.iter().map(|r| r.nbytes() as u64).sum::<u64>();
        ds.extend_rows(batch).expect("append");
        ds.flush().expect("flush");
    }
    ds.commit("all batches").expect("commit");

    let puts = store.puts_since(0);
    let written: u64 = puts.iter().map(|p| p.1).sum();
    println!(
        "{} rows in {BATCHES} flushes + 1 commit: {user_bytes} user bytes, {} puts, \
         {written} bytes written, {} bytes stored",
        ds.len(),
        puts.len(),
        store.stored_bytes(),
    );
    println!(
        "{:<18} {:>7} {:>12} {:>16}",
        "object kind", "puts", "bytes", "per user byte"
    );
    for name in KINDS {
        let of_kind = puts.iter().filter(|p| kind(&p.0) == name);
        let (count, bytes) = of_kind.fold((0u64, 0u64), |(n, b), p| (n + 1, b + p.1));
        println!(
            "{name:<18} {count:>7} {bytes:>12} {:>16.4}",
            bytes as f64 / user_bytes as f64
        );
    }
    println!(
        "{:<18} {:>7} {written:>12} {:>16.4}",
        "total",
        puts.len(),
        written as f64 / user_bytes as f64
    );
    println!(
        "bytes written / bytes stored: {:.3}",
        written as f64 / store.stored_bytes() as f64
    );
}
