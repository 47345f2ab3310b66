//! Where a loader row's time goes, one stage at a time: the table a
//! loader optimisation is sized with before it is written.
//!
//! A `train_stream`-shaped dataset (32×32×3 images in 40 KiB chunks, a
//! label per row) is read twice — from a local provider, and from a hub
//! on loopback through `RemoteProvider` — and each reading prints:
//!
//! * the work itself, on ONE thread, block by block in the order of the
//!   loader's first epoch (drawn by `shuffle::epoch_plan`, as the loader
//!   draws it): `fetch` (the task's one storage call), `admit`
//!   (parsing the fetched chunks), `assemble` (decoding each sample out
//!   of its chunk into the row);
//! * the loader doing the same epoch (two workers, batch 32): wall time
//!   per row, its own stage totals per row — `collate` is only here, it
//!   has no entry point outside the loader — and, over the middle 80 %
//!   of the epoch, every thread's run time, run-queue wait and
//!   timeslices per row from `/proc/self/task/*/schedstat`.
//!
//! On one CPU (`taskset -c 0`) the loader's wall time per row less the
//! single-thread sum (plus collate) is what hand-offs, wake-ups and
//! waiting cost, and the per-thread rows say which thread pays it; with
//! more CPUs the workers overlap and wall time can be the smaller.
//! Stage totals are wall clock, so they include time a thread spent
//! descheduled inside the stage. Elsewhere than Linux the schedstat
//! table is empty.
//!
//! ```sh
//! cargo run --release --example loader_stages
//! DL_STAGES_ROWS=16384 taskset -c 0 cargo run --release --example loader_stages
//! ```

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use deeplake::loader::shuffle::{block_ends, epoch_plan};
use deeplake::loader::ShuffleConfig;
use deeplake::prelude::*;
use deeplake::sim::datagen::imagenet_like;

const SIDE: u64 = 32;
const BATCH: usize = 32;
const WORKERS: usize = 2;
const SEED: u64 = 7;

fn write_dataset(provider: DynProvider, rows: u64) {
    let mut ds = Dataset::create(provider, "stages").expect("create");
    for (name, htype, chunk_bytes) in [
        ("images", Htype::Image, 40 << 10),
        ("labels", Htype::ClassLabel, 4 << 10),
    ] {
        let mut opts = TensorOptions::new(htype);
        opts.chunk_target_bytes = Some(chunk_bytes);
        ds.create_tensor_opts(name, opts).expect("create tensor");
    }
    let images = imagenet_like(rows as usize, SIDE as u32, SEED);
    for (i, img) in images.into_iter().enumerate() {
        let image = Sample::from_bytes(Dtype::U8, Shape::from([SIDE, SIDE, 3]), img.pixels)
            .expect("pixel count matches the shape");
        ds.append_row(vec![
            ("images", image),
            ("labels", Sample::scalar(i as i32)),
        ])
        .expect("append");
    }
    ds.flush().expect("flush");
}

/// `(run ns, run-queue wait ns, timeslices)` of every thread of this
/// process, by thread id.
fn schedstat() -> BTreeMap<u64, (String, [u64; 3])> {
    let mut out = BTreeMap::new();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for task in tasks.flatten() {
        let dir = task.path();
        let Some(tid) = dir.file_name().and_then(|n| n.to_str()?.parse().ok()) else {
            continue;
        };
        let (Ok(stat), Ok(comm)) = (
            std::fs::read_to_string(dir.join("schedstat")),
            std::fs::read_to_string(dir.join("comm")),
        ) else {
            continue; // the thread exited between the listing and the read
        };
        let mut fields = stat.split_whitespace().map(|f| f.parse().unwrap_or(0));
        let stats = [(); 3].map(|()| fields.next().unwrap_or(0));
        out.insert(tid, (comm.trim().to_string(), stats));
    }
    out
}

/// The work of one epoch on this thread; prints µs per row per stage and
/// returns their sum.
fn single_thread(ds: &Dataset, rows: u64) -> f64 {
    let names = vec!["images".to_string(), "labels".to_string()];
    let indices: Vec<u64> = (0..rows).collect();
    let spans = ds.chunk_spans("images").expect("images tensor");
    let shuffle = ShuffleConfig {
        seed: SEED,
        ..ShuffleConfig::default()
    };
    let blocks = block_ends(&indices, &spans, shuffle.block_rows);
    // the blocks of the loader's first epoch, in its order
    let plan = epoch_plan(&indices, &blocks, Some(&shuffle), 0);
    let (order, ends) = (plan.order, plan.ends);
    let (mut fetch_ns, mut admit_ns, mut assemble_ns) = (0u64, 0u64, 0u64);
    let mut start = 0;
    for end in ends {
        let block = &order[start..end];
        let prefetched = ds.prefetch_chunks(&names, block).expect("prefetch");
        fetch_ns += prefetched.fetch_ns();
        admit_ns += prefetched.decode_ns();
        let t = Instant::now();
        for &row in block {
            let samples: Vec<Sample> = names
                .iter()
                .map(|name| prefetched.get(ds, name, row).expect("a stored sample"))
                .collect();
            std::hint::black_box(samples);
        }
        assemble_ns += t.elapsed().as_nanos() as u64;
        start = end;
    }
    let per_row = |ns: u64| ns as f64 / 1e3 / rows as f64;
    let sum = per_row(fetch_ns + admit_ns + assemble_ns);
    println!(
        "  one thread      fetch {:6.2}  admit {:6.2}  assemble {:6.2}  = {:6.2} us/row",
        per_row(fetch_ns),
        per_row(admit_ns),
        per_row(assemble_ns),
        sum
    );
    sum
}

/// One shuffled loader epoch; prints wall and stage µs per row and the
/// per-thread schedstat deltas over the middle of the epoch.
fn loader_epoch(ds: Arc<Dataset>, rows: u64, work_us: f64) {
    let loader = DataLoader::builder(ds)
        .batch_size(BATCH)
        .num_workers(WORKERS)
        .shuffle(SEED)
        .build()
        .expect("build loader");
    let batches = loader.len_batches();
    let (from, to) = (batches / 10, batches - batches / 10);
    let before_epoch = schedstat();
    let started = Instant::now();
    let mut epoch = loader.epoch();
    let (mut window, mut delivered) = (Vec::new(), 0u64);
    for (i, batch) in epoch.by_ref().enumerate() {
        delivered += batch.expect("a batch").len() as u64;
        if i + 1 == from || i + 1 == to {
            window.push((delivered, schedstat()));
        }
    }
    let wall_us = started.elapsed().as_secs_f64() * 1e6 / rows as f64;
    assert_eq!(delivered, rows);
    let report = epoch.report();
    drop(epoch);
    let per_row = |ns: u64| ns as f64 / 1e3 / rows as f64;
    println!(
        "  loader ({WORKERS} workers) wall {wall_us:6.2} us/row against {work_us:.2} of work; stage totals: \
         fetch {:.2}  decode {:.2}  collate {:.2}  queue_wait {:.2} us/row, {} tasks",
        per_row(report.fetch.total_ns),
        per_row(report.decode.total_ns),
        per_row(report.collate.total_ns),
        per_row(report.queue_wait.total_ns),
        report.fetch.count,
    );
    let [(rows_a, a), (rows_b, b)] = &window[..] else {
        return;
    };
    let window_rows = (rows_b - rows_a) as f64;
    println!("  per thread, batches {from}..{to}:   run us/row  wait us/row  timeslices/row");
    for (tid, (comm, end)) in b {
        let Some((_, begin)) = a.get(tid) else {
            continue;
        };
        let [run, wait, slices] = [0, 1, 2].map(|f| (end[f] - begin[f]) as f64 / window_rows);
        if slices == 0.0 {
            continue;
        }
        let role = if !before_epoch.contains_key(tid) {
            "loader worker"
        } else if *tid == std::process::id() as u64 {
            "consumer (main)"
        } else {
            comm.as_str()
        };
        println!(
            "    {tid:>8} {role:<18} {:10.2} {:12.2} {slices:15.3}",
            run / 1e3,
            wait / 1e3
        );
    }
}

fn main() {
    let rows: u64 = std::env::var("DL_STAGES_ROWS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8192);
    let store = Arc::new(MemoryProvider::new());
    write_dataset(store.clone(), rows);
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("{rows} rows, batch {BATCH}, seed {SEED}, {parallelism} CPUs available");

    // each reading opens the dataset afresh: no chunk is memoized
    println!("local (MemoryProvider):");
    let work = single_thread(&Dataset::open(store.clone()).expect("open"), rows);
    loader_epoch(
        Arc::new(Dataset::open(store.clone()).expect("open")),
        rows,
        work,
    );

    println!("served (hub on loopback, one pipelined socket):");
    let hub = Hub::builder()
        .default_mount(store)
        .bind("127.0.0.1:0")
        .expect("bind hub on loopback");
    let dial = || -> DynProvider {
        let options = RemoteOptions {
            pool_size: 1,
            tracing: false,
            ..RemoteOptions::default()
        };
        Arc::new(RemoteProvider::connect_with(hub.addr(), options).expect("dial hub"))
    };
    let work = single_thread(&Dataset::open(dial()).expect("open served"), rows);
    loader_epoch(
        Arc::new(Dataset::open(dial()).expect("open served")),
        rows,
        work,
    );
}
