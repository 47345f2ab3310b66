//! Criterion counterpart of Fig. 8: the same epoch over local vs
//! simulated-remote storage. Every loader task issues one coalesced
//! storage call (the read-plan path), so the remote rows track the
//! backend's first-byte latency per *task*, not per chunk — the paper's
//! streaming claim.
//!
//! Each timed iteration re-opens the dataset so its chunk cache is cold —
//! otherwise every epoch after the first is served from memory.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use deeplake_bench::{build_deeplake_dataset, deeplake_epoch};
use deeplake_sim::datagen;
use deeplake_storage::{DynProvider, MemoryProvider, NetworkProfile, SimulatedCloudProvider};
use std::sync::Arc;

fn bench_streaming(c: &mut Criterion) {
    let images = datagen::imagenet_like(200, 48, 3);
    let mut group = c.benchmark_group("fig8_streaming");
    group.sample_size(10);

    let backends: Vec<(&str, NetworkProfile)> = vec![
        ("local", NetworkProfile::instant()),
        ("sim_s3", NetworkProfile::s3().scaled(0.01)),
        ("sim_minio", NetworkProfile::minio_lan().scaled(0.01)),
    ];
    for (name, profile) in backends {
        let backing = Arc::new(MemoryProvider::new());
        // 64 KB chunks → every 32-row task spans several chunks, which it
        // coalesces into one round trip
        let ds = build_deeplake_dataset(backing.clone(), &images, true, 1 << 16);
        drop(ds);
        let charged: DynProvider = Arc::new(SimulatedCloudProvider::new(name, backing, profile));
        group.bench_function(format!("deeplake_{name}"), |b| {
            b.iter_batched(
                || Arc::new(deeplake_core::Dataset::open(charged.clone()).unwrap()),
                |ds| {
                    let (samples, ..) = deeplake_epoch(ds, 4, 32, false);
                    assert_eq!(samples, 200);
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_streaming);
criterion_main!(benches);
