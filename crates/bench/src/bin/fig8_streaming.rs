//! **Figure 8** — "Streaming from different data storage locations:
//! Local FileSystem, AWS S3, MinIO (lower better)".
//!
//! Same dataset as Fig. 7, but each loader runs over three storage
//! backends: local memory/fs, a simulated same-region S3, and a simulated
//! MinIO on a LAN (lower per-connection bandwidth — the reason both Deep
//! Lake *and* WebDataset slow down on MinIO in the paper). Expected
//! shape: Deep Lake's S3 time ≈ its local time; file-per-sample loading
//! collapses on any remote backend; everything degrades on MinIO.

use std::sync::Arc;

use deeplake_baselines::formats::{BetonWriter, FormatWriter, JpegDirWriter, WebDatasetWriter};
use deeplake_baselines::loaders::{BetonLoader, FilePerSampleLoader, Loader, TarStreamLoader};
use deeplake_bench::{
    build_deeplake_dataset, deeplake_epoch, env_usize, net_scale, print_table, secs,
};
use deeplake_sim::datagen;
use deeplake_storage::{DynProvider, MemoryProvider, NetworkProfile, SimulatedCloudProvider};

fn backends(scale: f64) -> Vec<(&'static str, NetworkProfile)> {
    vec![
        ("local", NetworkProfile::local_disk().scaled(scale)),
        ("sim-s3", NetworkProfile::s3().scaled(scale)),
        ("sim-minio", NetworkProfile::minio_lan().scaled(scale)),
    ]
}

fn main() {
    let n = env_usize("DL_BENCH_N", 800);
    let side = env_usize("DL_BENCH_SIDE", 96) as u32;
    let workers = env_usize("DL_BENCH_WORKERS", 8);
    let scale = net_scale();
    let images = datagen::imagenet_like(n, side, 8);
    println!(
        "fig8: one epoch over {n} jpeg-like {side}x{side}x3 images, {workers} workers, net scale {scale}"
    );

    let mut rows = Vec::new();
    for (loc, profile) in backends(scale) {
        // Deep Lake: 128 KB chunks give each 64-row task several chunks
        // to coalesce into its one round trip.
        let backing = Arc::new(MemoryProvider::new());
        let ds = build_deeplake_dataset(backing.clone(), &images, true, 1 << 17);
        drop(ds);
        let charged: DynProvider = Arc::new(SimulatedCloudProvider::new(loc, backing, profile));
        let ds = Arc::new(deeplake_core::Dataset::open(charged).unwrap());
        let (samples, _, wall) = deeplake_epoch(ds, workers, 64, false);
        assert_eq!(samples, n as u64);
        rows.push(vec!["deeplake".into(), loc.into(), secs(wall)]);
        // baselines over the same backend
        let cases: Vec<(Box<dyn FormatWriter>, Box<dyn Loader>)> = vec![
            (
                Box::new(WebDatasetWriter::jpeg(8 << 20)),
                Box::new(TarStreamLoader),
            ),
            (
                Box::new(BetonWriter::default()),
                Box::new(BetonLoader::default()),
            ),
            (Box::new(JpegDirWriter), Box::new(FilePerSampleLoader)),
        ];
        for (writer, loader) in cases {
            let backing = MemoryProvider::new();
            writer.write(&backing, "ds", &images).unwrap();
            let charged = SimulatedCloudProvider::new(loc, backing, profile);
            let start = std::time::Instant::now();
            let report = loader.epoch(&charged, "ds", workers).unwrap();
            let wall = start.elapsed();
            assert_eq!(report.samples, n as u64, "{} on {loc}", loader.name());
            rows.push(vec![loader.name().into(), loc.into(), secs(wall)]);
        }
    }

    print_table(
        "Fig 8: epoch time by storage location (lower better)",
        &["loader", "location", "epoch s"],
        &rows,
    );
}
