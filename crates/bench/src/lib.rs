//! # deeplake-bench
//!
//! Harness that regenerates every figure of the paper's evaluation (§6).
//! Each `fig*` binary prints the same rows/series the paper reports;
//! absolute numbers differ (our substrate is a simulator, see DESIGN.md)
//! but the *shape* — who wins, by roughly what factor, where crossovers
//! fall — is what EXPERIMENTS.md records.
//!
//! Binaries honour two environment knobs:
//! * `DL_BENCH_N` — sample count (scaled-down defaults per figure).
//! * `DL_BENCH_NET_SCALE` — multiplier on simulated network delays
//!   (default `0.05`, i.e. 20× faster than real time).

pub mod c10k;

use std::sync::Arc;
use std::time::{Duration, Instant};

use deeplake_baselines::RawImage;
use deeplake_codec::Compression;
use deeplake_core::dataset::{Dataset, TensorOptions};
use deeplake_loader::DataLoader;
use deeplake_storage::DynProvider;
use deeplake_tensor::{Htype, Sample, Shape};

/// Read an integer knob from the environment.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Read a float knob from the environment.
pub fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Network time scale for the simulated cloud (defaults to 20× fast).
pub fn net_scale() -> f64 {
    env_f64("DL_BENCH_NET_SCALE", 0.05)
}

/// Print a fixed-width results table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let widths: Vec<usize> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| {
            rows.iter()
                .map(|r| r.get(i).map(String::len).unwrap_or(0))
                .chain([h.len()])
                .max()
                .unwrap_or(h.len())
        })
        .collect();
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:<w$}  ", c, w = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for r in rows {
        line(r.clone());
    }
}

/// Ingest raw images into a fresh Deep Lake dataset on `provider`.
/// `compress` picks raw (Fig. 6 writes uncompressed arrays) vs JPEG-like
/// sample compression (Fig. 7's JPEG dataset).
pub fn build_deeplake_dataset(
    provider: DynProvider,
    images: &[RawImage],
    compress: bool,
    chunk_target: u64,
) -> Dataset {
    let mut ds = Dataset::create(provider, "bench").unwrap();
    ds.create_tensor_opts("images", {
        let mut o = TensorOptions::new(Htype::Image);
        o.sample_compression = Some(if compress {
            Compression::JPEG_LIKE
        } else {
            Compression::None
        });
        o.chunk_target_bytes = Some(chunk_target);
        o
    })
    .unwrap();
    ds.create_tensor("labels", Htype::ClassLabel, None).unwrap();
    for img in images {
        let sample = Sample::from_bytes(
            deeplake_tensor::Dtype::U8,
            Shape::from([img.h as u64, img.w as u64, img.c as u64]),
            img.pixels.clone(),
        )
        .unwrap();
        ds.append_row(vec![
            ("images", sample),
            ("labels", Sample::scalar(img.label)),
        ])
        .unwrap();
    }
    ds.flush().unwrap();
    ds
}

/// One full Deep Lake loader epoch; returns `(samples, decoded_bytes,
/// wall)`. Each worker task issues one coalesced storage call.
pub fn deeplake_epoch(
    ds: Arc<Dataset>,
    workers: usize,
    batch: usize,
    shuffle: bool,
) -> (u64, u64, Duration) {
    let mut builder = DataLoader::builder(ds)
        .batch_size(batch)
        .num_workers(workers)
        .prefetch(4);
    if shuffle {
        builder = builder.shuffle(7);
    }
    let loader = builder.build().unwrap();
    let start = Instant::now();
    let mut samples = 0u64;
    let mut bytes = 0u64;
    for b in loader.epoch() {
        let b = b.unwrap();
        samples += b.len() as u64;
        bytes += b.nbytes() as u64;
    }
    (samples, bytes, start.elapsed())
}

/// Mean images/s given samples and wall time.
pub fn images_per_sec(samples: u64, wall: Duration) -> f64 {
    if wall.is_zero() {
        0.0
    } else {
        samples as f64 / wall.as_secs_f64()
    }
}

/// Format a duration as seconds with 3 decimals.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Time a closure.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// A machine-readable benchmark record, written as `BENCH_<name>.json`
/// so the perf trajectory accumulates run over run instead of living
/// only in scrollback. Metrics are flat `key → number` pairs (ops/s,
/// round trips, bytes); the JSON is hand-rolled so the emission path has
/// zero serializer dependencies and a stable field order.
///
/// The output directory defaults to the current working directory and
/// can be redirected with `DL_BENCH_JSON_DIR`.
#[derive(Debug, Clone)]
pub struct BenchReport {
    name: String,
    metrics: Vec<(String, f64)>,
}

impl BenchReport {
    /// Start a record for `BENCH_<name>.json`.
    pub fn new(name: impl Into<String>) -> Self {
        BenchReport {
            name: name.into(),
            metrics: Vec::new(),
        }
    }

    /// Add one metric (insertion order is preserved in the JSON).
    pub fn metric(&mut self, key: impl Into<String>, value: f64) -> &mut Self {
        self.metrics.push((key.into(), value));
        self
    }

    /// Render the record as JSON.
    pub fn to_json(&self) -> String {
        fn escape(s: &str) -> String {
            s.chars()
                .flat_map(|c| match c {
                    '"' => vec!['\\', '"'],
                    '\\' => vec!['\\', '\\'],
                    c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
                    c => vec![c],
                })
                .collect()
        }
        fn number(v: f64) -> String {
            if v.is_finite() {
                format!("{v}")
            } else {
                "null".to_string() // JSON has no NaN/Infinity
            }
        }
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"name\": \"{}\",\n", escape(&self.name)));
        out.push_str("  \"metrics\": {\n");
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            let comma = if i + 1 < self.metrics.len() { "," } else { "" };
            out.push_str(&format!("    \"{}\": {}{comma}\n", escape(k), number(*v)));
        }
        out.push_str("  }\n}\n");
        out
    }

    /// Write `BENCH_<name>.json` and return its path.
    pub fn write(&self) -> std::io::Result<std::path::PathBuf> {
        let dir = std::env::var("DL_BENCH_JSON_DIR").unwrap_or_else(|_| ".".to_string());
        let path = std::path::Path::new(&dir).join(format!("BENCH_{}.json", self.name));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deeplake_sim::datagen;
    use deeplake_storage::MemoryProvider;

    #[test]
    fn harness_roundtrip() {
        let imgs = datagen::imagenet_like(20, 16, 1);
        let ds = build_deeplake_dataset(Arc::new(MemoryProvider::new()), &imgs, true, 1 << 18);
        assert_eq!(ds.len(), 20);
        let (samples, bytes, wall) = deeplake_epoch(Arc::new(ds), 2, 8, false);
        assert_eq!(samples, 20);
        assert!(bytes > 0);
        assert!(images_per_sec(samples, wall.max(Duration::from_nanos(1))) > 0.0);
    }

    #[test]
    fn env_knobs_default() {
        assert_eq!(env_usize("DL_NO_SUCH_VAR", 7), 7);
        assert_eq!(env_f64("DL_NO_SUCH_VAR", 0.5), 0.5);
    }

    #[test]
    fn bench_report_json_shape() {
        let mut r = BenchReport::new("unit");
        r.metric("ops_per_sec", 1234.5).metric("round_trips", 3.0);
        r.metric("weird \"key\"", f64::NAN);
        let json = r.to_json();
        assert!(json.contains("\"name\": \"unit\""));
        assert!(json.contains("\"ops_per_sec\": 1234.5,"));
        assert!(json.contains("\"round_trips\": 3,"));
        assert!(json.contains("\\\"key\\\"") && json.contains("null"));
        // last metric has no trailing comma (valid JSON)
        assert!(!json.contains("null,"));
    }
}
