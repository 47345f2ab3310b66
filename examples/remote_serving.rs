//! Serve a dataset over loopback TCP and query it remotely — both ways:
//! pulling chunks through the remote provider, and offloading the query
//! text to the server. Prints the round-trip and byte arithmetic that
//! makes the serving tier worthwhile.
//!
//! ```sh
//! cargo run --example remote_serving
//! ```

use std::sync::Arc;

use deeplake::prelude::*;
use deeplake::remote::RemoteOptions;
use deeplake::storage::DynProvider;
use deeplake::tql;

fn main() {
    // ---- build a dataset on the provider the server will mount ----
    let mounted: DynProvider = Arc::new(MemoryProvider::new());
    {
        let mut ds = Dataset::create(mounted.clone(), "zoo").unwrap();
        ds.create_tensor_opts("labels", {
            let mut o = TensorOptions::new(Htype::ClassLabel);
            o.chunk_target_bytes = Some(256); // many small chunks: pruning matters
            o
        })
        .unwrap();
        for i in 0..5_000u64 {
            // sorted classes 0..49 → chunk statistics prune equality filters
            ds.append_row(vec![("labels", Sample::scalar((i / 100) as i32))])
                .unwrap();
        }
        ds.flush().unwrap();
    }

    // ---- serve it ----
    let server = Hub::builder()
        .default_mount(mounted)
        .bind("127.0.0.1:0")
        .unwrap();
    println!("{}", server.describe());

    // the sim-latency transport: every wire round trip charges an
    // S3-like cost (scaled down 50x so the demo is quick)
    let transport = RemoteOptions {
        latency: Some(NetworkProfile::s3().scaled(0.02)),
        ..RemoteOptions::default()
    };
    let text = "SELECT labels FROM zoo WHERE labels = 7";

    // ---- way 1: open the dataset remotely and pull chunks ----
    let t = std::time::Instant::now();
    let puller = Arc::new(RemoteProvider::connect_with(server.addr(), transport).unwrap());
    let ds = Dataset::open(puller.clone()).unwrap();
    let pulled = tql::query(&ds, text).unwrap();
    println!(
        "chunk pull: {} rows in {:?} — {} round trips, {} wire bytes \
         ({} chunks pruned server-agnostically on the client)",
        pulled.len(),
        t.elapsed(),
        puller.stats().round_trips(),
        puller.stats().bytes_read() + puller.stats().bytes_written(),
        pulled.stats.chunks_pruned,
    );

    // ---- way 2: offload the query text to the server ----
    let t = std::time::Instant::now();
    let offloader = RemoteProvider::connect_with(server.addr(), transport).unwrap();
    let offloaded = offloader.query(text, &QueryOptions::default()).unwrap();
    println!(
        "offloaded:  {} rows in {:?} — {} round trip, {} wire bytes \
         (pruning ran next to the data)",
        offloaded.len(),
        t.elapsed(),
        offloader.stats().round_trips(),
        offloader.stats().bytes_read() + offloader.stats().bytes_written(),
    );

    assert_eq!(pulled.indices, offloaded.indices);
    println!("results identical — the wire is the only difference");
}
