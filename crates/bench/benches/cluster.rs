//! The cluster's two headline claims, measured: aggregate query
//! throughput scales from 1 to 4 nodes as far as the box's CPUs allow
//! (capacity, not cache luck — result caches are off), and killing a
//! replica-bearing node mid-run costs ZERO failed client requests. Emits
//! `BENCH_cluster.json` so the perf trajectory accumulates run over run.

use criterion::{criterion_group, criterion_main, Criterion};
use deeplake_bench::BenchReport;
use deeplake_cluster::Cluster;
use deeplake_sim::{run_cluster_queries, ClusterQueryConfig};
use deeplake_storage::{NetworkProfile, StorageProvider};
use std::sync::Arc;

/// The same offered load at every fleet size: only the capacity varies.
fn fleet_config(nodes: usize) -> ClusterQueryConfig {
    ClusterQueryConfig {
        nodes,
        replication: if nodes > 1 { 2 } else { 1 },
        datasets: 16,
        clients: 16,
        queries_per_client: 16,
        distinct_queries: 8,
        skew: 1.0,
        rows_per_dataset: 64,
        workers_per_node: 2,
        storage: NetworkProfile::minio_lan().scaled(0.25),
        kill_after: None,
        probe_interval: None,
        fault_ops: 0,
        seed: 11,
    }
}

fn bench_cluster(c: &mut Criterion) {
    // scaling: 1 → 2 → 4 nodes under identical offered load
    let mut throughputs = Vec::new();
    for nodes in [1usize, 2, 4] {
        let report = run_cluster_queries(&fleet_config(nodes));
        assert_eq!(report.failed_queries, 0, "no kill, no failures allowed");
        eprintln!(
            "cluster/scaling: {nodes} node(s) → {:.0} queries/s ({} queries in {:?}, per-node {:?})",
            report.queries_per_sec, report.total_queries, report.wall, report.per_node_requests
        );
        throughputs.push((nodes, report.queries_per_sec));
    }
    let qps_1 = throughputs[0].1;
    let qps_4 = throughputs[2].1;
    let scaling = qps_4 / qps_1;
    // every node of the fleet runs on this one box: four nodes can add
    // only the parallelism the box has, so that is what is asserted
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let floor = (0.6 * cpus.min(4) as f64).max(1.0);
    eprintln!("cluster/scaling: 4-node speedup over 1 node = {scaling:.2}x on {cpus} CPU(s)");
    assert!(
        scaling >= floor,
        "4 nodes on {cpus} CPU(s) must deliver ≥{floor:.1}x the aggregate queries/s of 1 node, \
         got {scaling:.2}x"
    );

    // failover: kill a replica-bearing node mid-run, lose nothing
    let killed = run_cluster_queries(&ClusterQueryConfig {
        kill_after: Some(64),
        ..fleet_config(3)
    });
    eprintln!(
        "cluster/failover: {} queries with a mid-run kill → {} failed, {} failovers, {} refreshes",
        killed.total_queries, killed.failed_queries, killed.failovers, killed.refreshes
    );
    assert_eq!(
        killed.failed_queries, 0,
        "a replicated dataset must survive one node kill"
    );

    let mut report = BenchReport::new("cluster");
    report
        .metric("queries_per_sec_1_node", qps_1)
        .metric("queries_per_sec_2_nodes", throughputs[1].1)
        .metric("queries_per_sec_4_nodes", qps_4)
        .metric("scaling_4_nodes_vs_1", scaling)
        .metric("failover_total_queries", killed.total_queries as f64)
        .metric("failover_failed_queries", killed.failed_queries as f64)
        .metric("failover_failovers", killed.failovers as f64)
        .metric("failover_refreshes", killed.refreshes as f64);
    let path = report.write().expect("write BENCH_cluster.json");
    eprintln!("cluster: wrote {}", path.display());

    // per-op routing overhead on a healthy fleet (no sim latency): what
    // the consistent-hash hop costs compared to a raw remote get
    let cluster = Cluster::builder()
        .nodes(3)
        .replication(2)
        .dataset("bench")
        .build()
        .unwrap();
    let mount = Arc::new(cluster.client().unwrap().open("bench").unwrap());
    mount
        .put("hot", bytes::Bytes::from_static(b"payload"))
        .unwrap();
    let mut group = c.benchmark_group("cluster_routing");
    group.sample_size(20);
    group.bench_function("routed_get", |b| {
        b.iter(|| {
            let v = mount.get("hot").unwrap();
            assert_eq!(&v[..], b"payload");
        })
    });
    group.finish();
}

criterion_group!(benches, bench_cluster);
criterion_main!(benches);
