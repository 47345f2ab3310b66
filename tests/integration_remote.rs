//! End-to-end serving-tier integration: everything that works against a
//! local provider must work — byte-identically — against the same
//! provider mounted in a dataset server, and query offload must be
//! demonstrably cheaper than client-side chunk pulls.

use std::sync::Arc;

use deeplake::prelude::*;
use deeplake::remote::RemoteProvider;
use deeplake::storage::DynProvider;
use deeplake::tql;

const ROWS: u64 = 10_000;
const DIM: usize = 8;
const NLIST: usize = 16;

fn serve(mounted: DynProvider) -> HubHandle {
    Hub::builder()
        .default_mount(mounted)
        .bind("127.0.0.1:0")
        .unwrap()
}

/// Build the shared evaluation dataset on `provider`: sorted labels
/// (`i / 100` → 1%-selectivity equality predicates, prunable via chunk
/// stats) and clustered embeddings with an IVF index.
fn build_dataset(provider: DynProvider) {
    let mut ds = Dataset::create(provider, "remote_e2e").unwrap();
    ds.create_tensor_opts("labels", {
        let mut o = TensorOptions::new(Htype::ClassLabel);
        o.chunk_target_bytes = Some(256); // ~64 rows per chunk → many chunks
        o
    })
    .unwrap();
    ds.create_tensor_opts("emb", {
        let mut o = TensorOptions::new(Htype::Embedding);
        o.chunk_target_bytes = Some(2048);
        o
    })
    .unwrap();
    let mut v = [0.0f32; DIM];
    for i in 0..ROWS {
        let cluster = (i % NLIST as u64) as f32;
        v[0] = cluster * 25.0;
        v[1] = (i % 17) as f32 * 0.01;
        v[DIM - 1] = 1.0;
        ds.append_row(vec![
            ("labels", Sample::scalar((i / 100) as i32)),
            ("emb", Sample::from_slice([DIM as u64], &v).unwrap()),
        ])
        .unwrap();
    }
    ds.flush().unwrap();
    ds.build_vector_index(
        "emb",
        &IndexSpec {
            nlist: Some(NLIST),
            ..IndexSpec::default()
        },
    )
    .unwrap();
    ds.commit("evaluation dataset").unwrap();
}

fn ann_query_text() -> String {
    let mut q = [0.0f64; DIM];
    q[0] = 7.0 * 25.0; // dead-center of cluster 7
    q[DIM - 1] = 1.0;
    let parts: Vec<String> = q.iter().map(|x| format!("{x}")).collect();
    format!(
        "SELECT emb FROM remote_e2e ORDER BY L2_DISTANCE(emb, [{}]) LIMIT 10",
        parts.join(", ")
    )
}

/// TQL filter + vector top-k + loader streaming are byte-identical
/// whether the provider is mounted directly or served over loopback.
#[test]
fn remote_results_byte_identical_to_direct() {
    let mounted: DynProvider = Arc::new(MemoryProvider::new());
    build_dataset(mounted.clone());
    let server = serve(mounted.clone());
    let remote: DynProvider = Arc::new(RemoteProvider::connect(server.addr()).unwrap());

    let direct = Dataset::open(mounted.clone()).unwrap();
    let served = Dataset::open(remote.clone()).unwrap();
    assert_eq!(direct.len(), served.len());

    // raw sample reads agree bit for bit
    for row in [0u64, 99, 5_000, ROWS - 1] {
        assert_eq!(
            direct.get("labels", row).unwrap(),
            served.get("labels", row).unwrap()
        );
        assert_eq!(
            direct.get("emb", row).unwrap(),
            served.get("emb", row).unwrap()
        );
    }

    // pruned 1%-selectivity filter
    let filter = "SELECT labels FROM remote_e2e WHERE labels = 7";
    let a = tql::query(&direct, filter).unwrap();
    let b = tql::query(&served, filter).unwrap();
    assert_eq!(a.indices, b.indices);
    assert_eq!(a.rows, b.rows);
    assert_eq!(a.len(), 100);
    assert!(b.stats.chunks_pruned > 0, "served queries still prune");

    // ANN top-k through the served vector index
    let opts = QueryOptions {
        ann: true,
        nprobe: 2,
        ..QueryOptions::default()
    };
    let a = tql::query_opts(&direct, &ann_query_text(), &opts).unwrap();
    let b = tql::query_opts(&served, &ann_query_text(), &opts).unwrap();
    assert_eq!(a.indices, b.indices);
    assert_eq!(a.rows, b.rows);
    assert_eq!(a.len(), 10);
    assert!(b.stats.clusters_probed > 0, "the index worked remotely");

    // loader streaming of a query view delivers identical rows in order
    let collect = |ds: Arc<Dataset>, indices: Vec<u64>| -> Vec<f64> {
        let view_ds = ds.clone();
        let loader = DataLoader::builder(view_ds)
            .indices(indices)
            .batch_size(16)
            .num_workers(2)
            .tensors(["labels"])
            .build()
            .unwrap();
        let mut out = Vec::new();
        for batch in loader.epoch() {
            let b = batch.unwrap();
            let col = b.column("labels").unwrap();
            for i in 0..col.len() {
                out.push(col.get(i).unwrap().get_f64(0).unwrap());
            }
        }
        out
    };
    let direct_rows = collect(Arc::new(direct), a.indices.clone());
    let served_rows = collect(Arc::new(served), a.indices.clone());
    assert_eq!(direct_rows, served_rows);
    assert_eq!(direct_rows.len(), 10);
}

/// Dataset mutation through the remote provider: append + commit on the
/// client is visible to a direct mount of the same storage, bit for bit.
#[test]
fn writes_through_remote_land_in_mounted_storage() {
    let mounted: DynProvider = Arc::new(MemoryProvider::new());
    let server = serve(mounted.clone());
    let remote: DynProvider = Arc::new(RemoteProvider::connect(server.addr()).unwrap());

    let mut ds = Dataset::create(remote.clone(), "written_remotely").unwrap();
    ds.create_tensor("labels", Htype::ClassLabel, None).unwrap();
    for i in 0..10 {
        ds.append_row(vec![("labels", Sample::scalar(i))]).unwrap();
    }
    let commit = ds.commit("ten rows, over the wire").unwrap();
    ds.append_row(vec![("labels", Sample::scalar(99i32))])
        .unwrap();
    ds.flush().unwrap();

    // a direct mount of the server's storage sees exactly that state
    let direct = Dataset::open(mounted).unwrap();
    assert_eq!(direct.len(), 11);
    assert_eq!(direct.get("labels", 10).unwrap().get_f64(0).unwrap(), 99.0);
    let log = direct.log().unwrap();
    assert_eq!(log[0].0, commit);
}

/// The headline acceptance: on the sim-latency transport, an offloaded
/// 1%-selectivity pruned query and an offloaded ANN top-k each cost ≥5x
/// fewer network round trips — and fewer wire bytes — than running the
/// same query client-side over chunk pulls.
#[test]
fn offload_beats_chunk_pulls_by_5x() {
    let mounted: DynProvider = Arc::new(MemoryProvider::new());
    build_dataset(mounted.clone());
    let server = serve(mounted);
    // the sim-latency transport: a deterministic per-round-trip charge
    // (scaled down so the test stays fast; ratios are what matter)
    let transport = deeplake::remote::RemoteOptions {
        latency: Some(NetworkProfile::s3().scaled(0.01)),
        ..deeplake::remote::RemoteOptions::default()
    };

    let pruned_text = "SELECT labels FROM remote_e2e WHERE labels = 7";
    let ann_text = ann_query_text();
    let ann_opts = QueryOptions {
        ann: true,
        nprobe: 2,
        ..QueryOptions::default()
    };

    for (tag, text, opts) in [
        ("pruned", pruned_text, QueryOptions::default()),
        ("ann-topk", ann_text.as_str(), ann_opts),
    ] {
        // chunk-pull path: a fresh client opens the dataset over the
        // wire and executes locally (stats pruning and the IVF index
        // still work — they just cost round trips)
        let pull = RemoteProvider::connect_with(server.addr(), transport).unwrap();
        let pull = Arc::new(pull);
        let ds = Dataset::open(pull.clone()).unwrap();
        let pull_result = tql::query_opts(&ds, text, &opts).unwrap();
        let pull_rts = pull.stats().round_trips();
        let pull_bytes = pull.stats().bytes_read() + pull.stats().bytes_written();

        // offload path: a fresh client ships the query text
        let off = RemoteProvider::connect_with(server.addr(), transport).unwrap();
        let off_result = off.query(text, &opts).unwrap();
        let off_rts = off.stats().round_trips();
        let off_bytes = off.stats().bytes_read() + off.stats().bytes_written();

        assert_eq!(off_result.indices, pull_result.indices, "{tag}");
        assert_eq!(off_result.rows, pull_result.rows, "{tag}");
        assert_eq!(off_rts, 1, "{tag}: offload is one round trip");
        assert!(
            pull_rts >= 5 * off_rts,
            "{tag}: chunk pulls cost {pull_rts} round trips, offload {off_rts} — need ≥5x"
        );
        assert!(
            pull_bytes > off_bytes,
            "{tag}: chunk pulls moved {pull_bytes} B, offload {off_bytes} B — offload must move less"
        );
    }
}

/// `AT VERSION` queries offload too: the result names the version its
/// indices refer to, and matches direct execution at that version.
#[test]
fn at_version_queries_offload() {
    let mounted: DynProvider = Arc::new(MemoryProvider::new());
    let server = serve(mounted.clone());
    let remote = Arc::new(RemoteProvider::connect(server.addr()).unwrap());

    let mut ds = Dataset::create(remote.clone(), "versioned").unwrap();
    ds.create_tensor("labels", Htype::ClassLabel, None).unwrap();
    for i in 0..6 {
        ds.append_row(vec![("labels", Sample::scalar(i))]).unwrap();
    }
    let sealed = ds.commit("six rows").unwrap();
    ds.update("labels", 0, &Sample::scalar(50i32)).unwrap();
    ds.flush().unwrap();

    let text = format!("SELECT labels FROM versioned AT VERSION \"{sealed}\" WHERE labels < 10");
    let offloaded = remote.query(&text, &QueryOptions::default()).unwrap();
    let direct = tql::query(&Dataset::open(mounted).unwrap(), &text).unwrap();
    assert_eq!(offloaded.indices, direct.indices);
    assert_eq!(offloaded.rows, direct.rows);
    assert_eq!(
        offloaded.len(),
        6,
        "the historical version still has row 0 < 10"
    );
    assert_eq!(offloaded.version.as_deref(), direct.version.as_deref());
    assert!(offloaded.version.is_some());
}
