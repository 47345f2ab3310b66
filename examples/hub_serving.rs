//! One hub, many datasets, one cache: mount two datasets behind a
//! single listener, attach clients by name, and watch a repeated
//! version-pinned query collapse from a storage scan into a pure frame
//! copy. Prints the registry, isolation, and cache arithmetic.
//!
//! ```sh
//! cargo run --example hub_serving
//! ```

use std::sync::Arc;

use deeplake::hub::Hub;
use deeplake::prelude::*;
use deeplake::storage::{DynProvider, StorageStatsSnapshot};

fn build_dataset(provider: DynProvider, name: &str, offset: i32) {
    let mut ds = Dataset::create(provider, name).unwrap();
    ds.create_tensor_opts("labels", {
        let mut o = TensorOptions::new(Htype::ClassLabel);
        o.chunk_target_bytes = Some(256); // many small chunks: pruning matters
        o
    })
    .unwrap();
    for i in 0..5_000u64 {
        ds.append_row(vec![("labels", Sample::scalar(offset + (i / 100) as i32))])
            .unwrap();
    }
    ds.flush().unwrap();
    ds.commit("ready to serve").unwrap();
}

fn main() {
    // ---- two datasets on separately-metered sim-cloud storage ----
    let mnist = Arc::new(SimulatedCloudProvider::new(
        "s3",
        MemoryProvider::new(),
        NetworkProfile::instant(),
    ));
    let laion = Arc::new(SimulatedCloudProvider::new(
        "s3",
        MemoryProvider::new(),
        NetworkProfile::instant(),
    ));
    build_dataset(mnist.clone(), "mnist", 0);
    build_dataset(laion.clone(), "laion", 1_000);

    // ---- one hub serves both ----
    let hub = Hub::builder()
        .mount("mnist", mnist.clone())
        .mount("laion", laion.clone())
        .bind("127.0.0.1:0")
        .unwrap();
    println!("{}", hub.describe());

    // ---- clients attach by name; everything above storage is unchanged ----
    let a = RemoteProvider::connect(hub.addr()).unwrap();
    a.attach("mnist").unwrap();
    let b = RemoteProvider::connect(hub.addr()).unwrap();
    b.attach("laion").unwrap();
    println!("datasets mounted: {:?}", a.list_datasets().unwrap());

    // isolation: the same query text answers from each client's own dataset
    let text = "SELECT labels FROM d WHERE labels = 7";
    let ra = a.query(text, &QueryOptions::default()).unwrap();
    let rb = b.query(text, &QueryOptions::default()).unwrap();
    println!(
        "attach(\"mnist\"): {} rows for labels = 7; attach(\"laion\"): {} rows (its labels start at 1000)",
        ra.len(),
        rb.len()
    );

    // ---- the result cache: first execution vs repeats ----
    let text = "SELECT labels FROM d WHERE labels = 9";
    // storage round trips paid since an earlier reading of mnist's stats
    let trips_since =
        |before: &StorageStatsSnapshot| mnist.stats().snapshot().delta_since(before).round_trips;
    let before = mnist.stats().snapshot();
    let first = a.query(text, &QueryOptions::default()).unwrap();
    let first_rts = trips_since(&before);
    let before = mnist.stats().snapshot();
    for _ in 0..100 {
        let again = a.query(text, &QueryOptions::default()).unwrap();
        assert_eq!(again.indices, first.indices);
    }
    println!(
        "query offload: first execution paid {} storage round trips; 100 repeats paid {} \
         (cache hit ratio {:.2}, {} bytes cached)",
        first_rts,
        trips_since(&before),
        hub.cache().hit_ratio(),
        hub.cache().cached_bytes(),
    );

    // a formatting variant is the same canonical entry
    let before = mnist.stats().snapshot();
    a.query(
        "select   labels from d  where labels=9",
        &QueryOptions::default(),
    )
    .unwrap();
    println!(
        "a whitespace/case variant of the query hit the same cache entry \
         ({} storage round trips)",
        trips_since(&before)
    );

    // ---- writes invalidate; committed versions stay pinned ----
    {
        let mut ds = Dataset::open(Arc::new({
            let c = RemoteProvider::connect(hub.addr()).unwrap();
            c.attach("mnist").unwrap();
            c
        }))
        .unwrap();
        ds.append_row(vec![("labels", Sample::scalar(9i32))])
            .unwrap();
        ds.flush().unwrap();
    }
    let refreshed = a.query(text, &QueryOptions::default()).unwrap();
    println!(
        "after an append through the hub the head query re-executes: {} rows (was {})",
        refreshed.len(),
        first.len()
    );

    drop(hub); // graceful: drains in-flight requests
    println!("hub shut down cleanly");
}
