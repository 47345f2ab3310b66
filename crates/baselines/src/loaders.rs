//! Baseline dataloaders (Fig. 7: "iteration speed of images against other
//! dataloaders"; Fig. 8 runs the same loaders over remote storage).
//!
//! Each loader reproduces its namesake's access pattern:
//!
//! * [`FilePerSampleLoader`] ("PyTorch") — one GET + one decode per
//!   sample. Pays per-object latency for every sample, which is why it
//!   collapses on object storage.
//! * [`TarStreamLoader`] ("WebDataset") — workers claim whole tar shards
//!   and stream them sequentially.
//! * [`BetonLoader`] ("FFCV") — one metadata read for the record table,
//!   then large range reads of contiguous record spans.
//! * [`MsgpackLoader`] ("Squirrel") — indexed shards streamed in
//!   parallel.
//!
//! All loaders decode every sample (enforced by [`DecodeCheck`]) and
//! parallelize across `workers` native threads.

use std::sync::atomic::{AtomicUsize, Ordering};

use deeplake_storage::{StorageError, StorageProvider};
use parking_lot::Mutex;

use crate::record::{EpochReport, RawImage};
use crate::tar::TarReader;
use crate::Result;

/// A full-epoch iterating dataloader.
pub trait Loader: Send + Sync {
    /// Short name used in benchmark tables.
    fn name(&self) -> &'static str;
    /// Decode every sample under `prefix` once, with `workers` threads.
    fn epoch(
        &self,
        store: &dyn StorageProvider,
        prefix: &str,
        workers: usize,
    ) -> Result<EpochReport>;
}

/// Run `task(i)` for `i in 0..n` on `workers` threads, merging per-worker
/// epoch reports.
fn parallel_epoch(
    n: usize,
    workers: usize,
    task: impl Fn(usize, &mut EpochReport) -> Result<()> + Sync,
) -> Result<EpochReport> {
    let next = AtomicUsize::new(0);
    let total = Mutex::new(EpochReport::default());
    let error: Mutex<Option<StorageError>> = Mutex::new(None);
    crossbeam::thread::scope(|scope| {
        for _ in 0..workers.max(1) {
            scope.spawn(|_| {
                let mut local = EpochReport::default();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n || error.lock().is_some() {
                        break;
                    }
                    if let Err(e) = task(i, &mut local) {
                        *error.lock() = Some(e);
                        break;
                    }
                }
                total.lock().merge(&local);
            });
        }
    })
    .map_err(|_| StorageError::Io("loader worker panicked".into()))?;
    if let Some(e) = error.into_inner() {
        return Err(e);
    }
    Ok(total.into_inner())
}

fn absorb(report: &mut EpochReport, img: &RawImage) {
    report.samples += 1;
    report.bytes += img.nbytes() as u64;
    report.check.absorb(img);
}

// ---------------------------------------------------------------------

/// "PyTorch"-style loading: one storage GET and one decode per sample.
pub struct FilePerSampleLoader;

impl Loader for FilePerSampleLoader {
    fn name(&self) -> &'static str {
        "pytorch"
    }

    fn epoch(
        &self,
        store: &dyn StorageProvider,
        prefix: &str,
        workers: usize,
    ) -> Result<EpochReport> {
        let labels = store.get(&format!("{prefix}/labels.bin"))?;
        let keys: Vec<String> = store
            .list(&format!("{prefix}/"))?
            .into_iter()
            .filter(|k| k.ends_with(".img"))
            .collect();
        parallel_epoch(keys.len(), workers, |i, report| {
            let blob = store.get(&keys[i])?;
            let label = i32::from_le_bytes(labels[i * 4..i * 4 + 4].try_into().unwrap());
            let img = RawImage::decode_any(&blob, label)
                .ok_or(StorageError::Io(format!("bad blob {}", keys[i])))?;
            absorb(report, &img);
            Ok(())
        })
    }
}

/// "WebDataset"-style loading: whole tar shards streamed sequentially,
/// one worker per shard at a time.
pub struct TarStreamLoader;

impl Loader for TarStreamLoader {
    fn name(&self) -> &'static str {
        "webdataset"
    }

    fn epoch(
        &self,
        store: &dyn StorageProvider,
        prefix: &str,
        workers: usize,
    ) -> Result<EpochReport> {
        let shards: Vec<String> = store
            .list(&format!("{prefix}/"))?
            .into_iter()
            .filter(|k| k.ends_with(".tar"))
            .collect();
        parallel_epoch(shards.len(), workers, |i, report| {
            let data = store.get(&shards[i])?;
            let mut pending_img: Option<Vec<u8>> = None;
            for (name, blob) in TarReader::new(data) {
                if name.ends_with(".img") {
                    pending_img = Some(blob.to_vec());
                } else if name.ends_with(".cls") {
                    let label = i32::from_le_bytes(blob[..4].try_into().unwrap());
                    if let Some(img_blob) = pending_img.take() {
                        let img = RawImage::decode_any(&img_blob, label)
                            .ok_or(StorageError::Io("bad tar blob".into()))?;
                        absorb(report, &img);
                    }
                }
            }
            Ok(())
        })
    }
}

/// "FFCV"-style loading: parse the record table once, then fetch
/// contiguous record spans with large range reads.
pub struct BetonLoader {
    /// Records fetched per range request.
    pub records_per_read: usize,
}

impl Default for BetonLoader {
    fn default() -> Self {
        BetonLoader {
            records_per_read: 64,
        }
    }
}

impl Loader for BetonLoader {
    fn name(&self) -> &'static str {
        "ffcv"
    }

    fn epoch(
        &self,
        store: &dyn StorageProvider,
        prefix: &str,
        workers: usize,
    ) -> Result<EpochReport> {
        let key = format!("{prefix}/data.beton");
        let head = store.get_range(&key, 0, 16)?;
        if &head[..8] != crate::formats::BETON_MAGIC {
            return Err(StorageError::Io("not a beton file".into()));
        }
        let n = u64::from_le_bytes(head[8..16].try_into().unwrap()) as usize;
        let table = store.get_range(&key, 16, 16 + n as u64 * 20)?;
        let records: Vec<(u64, u64, i32)> = (0..n)
            .map(|i| {
                let e = &table[i * 20..(i + 1) * 20];
                (
                    u64::from_le_bytes(e[0..8].try_into().unwrap()),
                    u64::from_le_bytes(e[8..16].try_into().unwrap()),
                    i32::from_le_bytes(e[16..20].try_into().unwrap()),
                )
            })
            .collect();
        let span = self.records_per_read.max(1);
        let groups: Vec<&[(u64, u64, i32)]> = records.chunks(span).collect();
        parallel_epoch(groups.len(), workers, |g, report| {
            let group = groups[g];
            let start = group[0].0;
            let last = group[group.len() - 1];
            let end = last.0 + last.1;
            let data = store.get_range(&key, start, end)?;
            for &(off, len, label) in group {
                let rel = (off - start) as usize;
                let img = RawImage::decode_any(&data[rel..rel + len as usize], label)
                    .ok_or(StorageError::Io("bad beton record".into()))?;
                absorb(report, &img);
            }
            Ok(())
        })
    }
}

/// "Squirrel"-style loading: read the shard index, then stream shards in
/// parallel and unpack msgpack-ish records.
pub struct MsgpackLoader;

impl Loader for MsgpackLoader {
    fn name(&self) -> &'static str {
        "squirrel"
    }

    fn epoch(
        &self,
        store: &dyn StorageProvider,
        prefix: &str,
        workers: usize,
    ) -> Result<EpochReport> {
        let index = store.get(&format!("{prefix}/index.txt"))?;
        let shards: Vec<String> = String::from_utf8_lossy(&index)
            .lines()
            .filter_map(|l| l.split(':').next().map(|s| format!("{prefix}/{s}")))
            .collect();
        parallel_epoch(shards.len(), workers, |i, report| {
            let data = store.get(&shards[i])?;
            let mut pos = 0usize;
            while pos + 9 <= data.len() {
                if data[pos] != 0x82 {
                    return Err(StorageError::Io("bad msgpack tag".into()));
                }
                let len = u32::from_le_bytes(data[pos + 1..pos + 5].try_into().unwrap()) as usize;
                let label = i32::from_le_bytes(data[pos + 5..pos + 9].try_into().unwrap());
                let blob = &data[pos + 9..pos + 9 + len];
                let img = RawImage::decode_any(blob, label)
                    .ok_or(StorageError::Io("bad msgpack record".into()))?;
                absorb(report, &img);
                pos += 9 + len;
            }
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formats::{
        BetonWriter, FormatWriter, JpegDirWriter, MsgpackShardWriter, TfRecordWriter,
        WebDatasetWriter,
    };
    use bytes::Bytes;
    use deeplake_storage::MemoryProvider;

    fn images(n: usize) -> Vec<RawImage> {
        (0..n)
            .map(|i| RawImage {
                pixels: Bytes::from(vec![(i % 200) as u8; 16 * 16 * 3]),
                h: 16,
                w: 16,
                c: 3,
                label: (i % 10) as i32,
            })
            .collect()
    }

    fn expected_label_sum(n: usize) -> i64 {
        (0..n).map(|i| (i % 10) as i64).sum()
    }

    #[test]
    fn every_loader_decodes_every_sample() {
        let imgs = images(60);
        let store = MemoryProvider::new();
        JpegDirWriter.write(&store, "pt", &imgs).unwrap();
        WebDatasetWriter {
            shard_bytes: 8192,
            raw: false,
        }
        .write(&store, "wd", &imgs)
        .unwrap();
        BetonWriter::default().write(&store, "ff", &imgs).unwrap();
        MsgpackShardWriter {
            records_per_shard: 16,
            raw: false,
        }
        .write(&store, "sq", &imgs)
        .unwrap();

        let loaders: Vec<(Box<dyn Loader>, &str)> = vec![
            (Box::new(FilePerSampleLoader), "pt"),
            (Box::new(TarStreamLoader), "wd"),
            (Box::new(BetonLoader::default()), "ff"),
            (Box::new(MsgpackLoader), "sq"),
        ];
        for (loader, prefix) in loaders {
            let report = loader.epoch(&store, prefix, 4).unwrap();
            assert_eq!(report.samples, 60, "{}", loader.name());
            assert_eq!(
                report.check.label_sum,
                expected_label_sum(60),
                "{}",
                loader.name()
            );
            assert_eq!(report.bytes, 60 * 16 * 16 * 3, "{}", loader.name());
        }
    }

    #[test]
    fn loaders_deterministic_across_worker_counts() {
        let imgs = images(30);
        let store = MemoryProvider::new();
        BetonWriter::default().write(&store, "ff", &imgs).unwrap();
        let a = BetonLoader::default().epoch(&store, "ff", 1).unwrap();
        let b = BetonLoader::default().epoch(&store, "ff", 8).unwrap();
        assert_eq!(a.check, b.check);
        assert_eq!(a.samples, b.samples);
    }

    #[test]
    fn beton_small_span_many_ranges() {
        let imgs = images(20);
        let store = MemoryProvider::new();
        BetonWriter::default().write(&store, "ff", &imgs).unwrap();
        let report = BetonLoader {
            records_per_read: 3,
        }
        .epoch(&store, "ff", 2)
        .unwrap();
        assert_eq!(report.samples, 20);
    }

    #[test]
    fn loader_errors_on_missing_data() {
        let store = MemoryProvider::new();
        assert!(FilePerSampleLoader.epoch(&store, "ghost", 2).is_err());
        assert!(BetonLoader::default().epoch(&store, "ghost", 2).is_err());
        assert!(MsgpackLoader.epoch(&store, "ghost", 2).is_err());
    }

    #[test]
    fn tfrecord_writes_are_readable_sequentially() {
        // tfrecord has no paper dataloader in Fig. 7, but the format must
        // roundtrip for Fig. 6's ingestion comparison
        let imgs = images(10);
        let store = MemoryProvider::new();
        TfRecordWriter {
            records_per_shard: 4,
            raw: false,
        }
        .write(&store, "tf", &imgs)
        .unwrap();
        let mut seen = 0;
        for key in store.list("tf/").unwrap() {
            let data = store.get(&key).unwrap();
            let mut pos = 0usize;
            while pos + 12 <= data.len() {
                let len = u64::from_le_bytes(data[pos..pos + 8].try_into().unwrap()) as usize;
                let label = i32::from_le_bytes(data[pos + 8..pos + 12].try_into().unwrap());
                let img = RawImage::decode_any(&data[pos + 12..pos + 12 + len], label).unwrap();
                assert_eq!((img.h, img.w), (16, 16));
                seen += 1;
                pos += 12 + len;
            }
        }
        assert_eq!(seen, 10);
    }

    #[test]
    fn file_per_sample_issues_one_get_per_sample() {
        use deeplake_storage::{NetworkProfile, SimulatedCloudProvider};
        let imgs = images(25);
        let sim =
            SimulatedCloudProvider::new("s3", MemoryProvider::new(), NetworkProfile::instant());
        JpegDirWriter.write(&sim, "pt", &imgs).unwrap();
        let before = sim.stats().snapshot();
        FilePerSampleLoader.epoch(&sim, "pt", 4).unwrap();
        // 25 image GETs + 1 labels GET
        let epoch = sim.stats().snapshot().delta_since(&before);
        assert_eq!(epoch.get_requests, 26);
    }

    #[test]
    fn webdataset_issues_one_get_per_shard() {
        use deeplake_storage::{NetworkProfile, SimulatedCloudProvider};
        let imgs = images(40);
        let sim =
            SimulatedCloudProvider::new("s3", MemoryProvider::new(), NetworkProfile::instant());
        WebDatasetWriter {
            shard_bytes: 16384,
            raw: false,
        }
        .write(&sim, "wd", &imgs)
        .unwrap();
        let shards = sim.inner().list("wd/").unwrap().len() as u64;
        let before = sim.stats().snapshot();
        TarStreamLoader.epoch(&sim, "wd", 4).unwrap();
        let epoch = sim.stats().snapshot().delta_since(&before);
        assert_eq!(epoch.get_requests, shards);
    }
}
