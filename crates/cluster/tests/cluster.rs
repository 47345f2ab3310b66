//! End-to-end cluster tests: real TCP hub nodes on 127.0.0.1, a real
//! routing client, real kills.

use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

use bytes::Bytes;
use deeplake_cluster::{Cluster, ClusterClient};
use deeplake_remote::{proto, RemoteProvider};
use deeplake_storage::{contract, DynProvider, MemoryProvider, StorageError, StorageProvider};

fn seeded(keys: &[(&str, &[u8])]) -> DynProvider {
    let p = MemoryProvider::new();
    for (key, value) in keys {
        p.put(key, Bytes::copy_from_slice(value)).unwrap();
    }
    Arc::new(p)
}

/// The full storage-provider contract — the suite every local provider,
/// the PR-4 server and the PR-5 hub pass — against a replicated,
/// client-routed cluster mount.
#[test]
fn cluster_mount_passes_full_contract() {
    let cluster = Cluster::builder()
        .nodes(3)
        .replication(2)
        .dataset("contract-ds")
        .build()
        .unwrap();
    let mount = cluster.client().unwrap().open("contract-ds").unwrap();
    contract::check_provider_contract_arc("cluster(contract-ds)", Arc::new(mount));
}

/// Every replica starts byte-identical to the seed provider — chunk
/// layout, commit ids, everything.
#[test]
fn replicas_are_seeded_byte_identically() {
    let seed = seeded(&[("a/0", b"alpha"), ("b/1", b"beta"), ("c", b"\x00\xff")]);
    let cluster = Cluster::builder()
        .nodes(3)
        .replication(2)
        .dataset_from("mirrored", seed.clone())
        .build()
        .unwrap();
    let replicas = cluster.replica_nodes("mirrored");
    assert_eq!(replicas.len(), 2);
    for index in replicas {
        let store = cluster.store(index, "mirrored").unwrap();
        assert_eq!(store.list("").unwrap(), seed.list("").unwrap());
        for key in seed.list("").unwrap() {
            assert_eq!(store.get(&key).unwrap(), seed.get(&key).unwrap());
        }
    }
}

/// `WhereIs` placement answers: known datasets resolve on every node
/// (any seed can bootstrap a client), unknown names are a lossless
/// `NotFound`, and a hub outside any cluster says so in plain words.
#[test]
fn where_is_resolves_on_every_node_and_rejects_unknowns() {
    let cluster = Cluster::builder()
        .nodes(3)
        .replication(2)
        .dataset("known")
        .build()
        .unwrap();
    let mut placements = Vec::new();
    for addr in cluster.addrs() {
        let conn = RemoteProvider::connect(&*addr).unwrap();
        let (epoch, replicas) = conn.where_is("known").unwrap();
        assert_eq!(replicas.len(), 2);
        placements.push((epoch, replicas));
        let err = conn.where_is("never-mounted").unwrap_err();
        assert!(
            matches!(&err, StorageError::NotFound(msg) if msg.contains("never-mounted")),
            "unexpected {err:?}"
        );
    }
    // all nodes agree — same map, same epoch, same replica set
    assert!(placements.windows(2).all(|w| w[0] == w[1]));

    // a standalone hub has no placement to answer with
    let lone = deeplake_hub::Hub::builder()
        .mount("solo", Arc::new(MemoryProvider::new()))
        .bind("127.0.0.1:0")
        .unwrap();
    let conn = RemoteProvider::connect(lone.addr()).unwrap();
    let err = conn.where_is("solo").unwrap_err();
    assert!(
        err.to_string().contains("not part of a cluster"),
        "unexpected {err:?}"
    );
}

#[test]
fn open_unknown_dataset_is_not_found() {
    let cluster = Cluster::builder().nodes(2).dataset("real").build().unwrap();
    let err = match cluster.client().unwrap().open("imaginary") {
        Err(e) => e,
        Ok(_) => panic!("opening an unknown dataset must fail"),
    };
    assert!(matches!(err, StorageError::NotFound(_)), "{err:?}");
}

/// Writes go through to every replica (verified against the backing
/// stores directly), and after a replica dies mid-stream the surviving
/// one keeps serving reads *and* writes — read-your-writes holds.
#[test]
fn writes_replicate_and_survive_a_kill() {
    let mut cluster = Cluster::builder()
        .nodes(3)
        .replication(2)
        .dataset("wal")
        .build()
        .unwrap();
    let mount = cluster.client().unwrap().open("wal").unwrap();

    mount.put("k1", Bytes::from_static(b"v1")).unwrap();
    let replicas = cluster.replica_nodes("wal");
    assert_eq!(replicas.len(), 2);
    for &index in &replicas {
        let store = cluster.store(index, "wal").unwrap();
        assert_eq!(&store.get("k1").unwrap()[..], b"v1", "replica {index}");
    }

    // kill one owning node; the stale client placement still names it
    cluster.kill(replicas[0]);
    mount.put("k2", Bytes::from_static(b"v2")).unwrap();
    // the write acked on the survivor only; reads must see it
    assert_eq!(&mount.get("k2").unwrap()[..], b"v2");
    assert_eq!(&mount.get("k1").unwrap()[..], b"v1");
    let (_, routed) = mount.placement();
    assert_eq!(
        routed.len(),
        1,
        "degraded write narrows the read set to acked replicas"
    );
    let survivor = cluster.store(replicas[1], "wal").unwrap();
    assert_eq!(&survivor.get("k2").unwrap()[..], b"v2");
}

/// Kill an owning node while a client hammers reads: zero
/// client-visible failures, failover counted, and a refreshed placement
/// stops naming the corpse.
#[test]
fn reads_fail_over_with_zero_client_visible_failures() {
    let seed = seeded(&[("hot", b"data")]);
    let mut cluster = Cluster::builder()
        .nodes(3)
        .replication(2)
        .dataset_from("served", seed)
        .build()
        .unwrap();
    let mount = cluster.client().unwrap().open("served").unwrap();
    for _ in 0..10 {
        assert_eq!(&mount.get("hot").unwrap()[..], b"data");
    }

    let victim = cluster.replica_nodes("served")[0];
    cluster.kill(victim);

    // round-robin guarantees the dead address is tried within two ops;
    // every one of these must still succeed
    for _ in 0..20 {
        assert_eq!(&mount.get("hot").unwrap()[..], b"data");
    }
    assert!(
        mount.failovers() >= 1,
        "the dead replica was never routed to"
    );

    mount.refresh().unwrap();
    let (_, replicas) = mount.placement();
    assert_eq!(replicas.len(), 1, "refreshed placement drops the dead node");
    assert_eq!(mount.get("hot").unwrap(), Bytes::from_static(b"data"));
}

/// Batched reads (`get_many`) fail over as a unit — a dead node fails
/// the batch to the next replica instead of surfacing N dead-node
/// errors.
#[test]
fn batched_reads_fail_over_as_a_unit() {
    let seed = seeded(&[("x", b"1"), ("y", b"22"), ("z", b"333")]);
    let mut cluster = Cluster::builder()
        .nodes(3)
        .replication(2)
        .dataset_from("batched", seed)
        .build()
        .unwrap();
    let mount = cluster.client().unwrap().open("batched").unwrap();
    let victim = cluster.replica_nodes("batched")[0];
    cluster.kill(victim);
    for _ in 0..6 {
        let reqs = [
            deeplake_storage::ReadRequest::whole("x"),
            deeplake_storage::ReadRequest::range("z", 0, 2),
        ];
        let results = mount.get_many(&reqs);
        assert_eq!(&results[0].as_ref().unwrap()[..], b"1");
        assert_eq!(&results[1].as_ref().unwrap()[..], b"33");
    }
}

/// A fake node that speaks an older protocol generation: every client
/// handshake is rejected with the lossless version message, and the
/// routing client treats the node as dead — requests succeed on the
/// compatible replicas, nothing hangs, nothing desynchronizes.
#[test]
fn version_mismatched_node_is_skipped_not_hung() {
    // the impostor answers every Hello with the v1-server rejection
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let fake_addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { break };
            if proto::read_frame(&mut stream).ok().flatten().is_some() {
                let reject = proto::resp_proto_err(&format!(
                    "protocol version {} unsupported (server speaks 1)",
                    proto::PROTO_VERSION
                ));
                let _ = proto::write_frame(&mut stream, &reject);
                let _ = stream.flush();
            }
        }
    });

    // the mismatch is lossless on a direct dial
    let err = match RemoteProvider::connect(&*fake_addr) {
        Err(e) => e,
        Ok(_) => panic!("the impostor must reject the handshake"),
    };
    assert!(
        err.to_string().contains("protocol version"),
        "unexpected {err}"
    );

    // R=3 over 2 real nodes + the impostor puts it in every replica set
    let seed = seeded(&[("k", b"v")]);
    let cluster = Cluster::builder()
        .nodes(2)
        .replication(3)
        .external_node(&fake_addr)
        .dataset_from("mixed", seed)
        .build()
        .unwrap();
    let mount = cluster.client().unwrap().open("mixed").unwrap();
    let (_, replicas) = mount.placement();
    assert!(
        replicas.contains(&fake_addr),
        "impostor is in the placement"
    );
    for _ in 0..9 {
        assert_eq!(&mount.get("k").unwrap()[..], b"v");
    }
    assert!(
        mount.failovers() >= 1,
        "rotation must have tried the impostor and moved on"
    );
}

/// When every replica of a dataset is dead, the client reports one
/// clean error (after refreshing the map) instead of hanging or
/// panicking.
#[test]
fn losing_every_replica_is_a_clean_error() {
    let seed = seeded(&[("k", b"v")]);
    let mut cluster = Cluster::builder()
        .nodes(3)
        .replication(2)
        .dataset_from("doomed", seed)
        .build()
        .unwrap();
    let mount = cluster.client().unwrap().open("doomed").unwrap();
    assert!(mount.get("k").is_ok());
    for index in cluster.replica_nodes("doomed") {
        cluster.kill(index);
    }
    let err = mount.get("k").unwrap_err();
    assert!(matches!(err, StorageError::Io(_)), "{err:?}");
    assert!(
        mount.refreshes() >= 1,
        "the whole-set failure forced a refresh"
    );
}

/// The seed list only needs ONE live address: a client seeded with two
/// dead nodes and one live one still bootstraps.
#[test]
fn client_bootstraps_from_any_live_seed() {
    let mut cluster = Cluster::builder()
        .nodes(3)
        .replication(3)
        .dataset("everywhere")
        .build()
        .unwrap();
    cluster.kill(0);
    cluster.kill(1);
    let client = ClusterClient::connect(cluster.addrs()).unwrap();
    let mount = client.open("everywhere").unwrap();
    mount.put("k", Bytes::from_static(b"v")).unwrap();
    assert_eq!(&mount.get("k").unwrap()[..], b"v");
    assert_eq!(client.list_datasets().unwrap(), vec!["everywhere"]);
}

/// `list_datasets` must return the whole catalog, not one node's shard:
/// with R=1 over 3 nodes no single node mounts every dataset, so the
/// client has to union the answers of every reachable seed.
#[test]
fn list_datasets_unions_shards_across_the_fleet() {
    let names = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"];
    let mut builder = Cluster::builder().nodes(3).replication(1);
    for name in names {
        builder = builder.dataset(name);
    }
    let mut cluster = builder.build().unwrap();
    let client = cluster.client().unwrap();
    let mut want: Vec<String> = names.iter().map(|s| s.to_string()).collect();
    want.sort();
    assert_eq!(client.list_datasets().unwrap(), want);

    // a dead seed is skipped, not fatal — the union shrinks to what the
    // survivors mount (an honest partial catalog beats an error)
    cluster.kill(0);
    let listed = ClusterClient::connect(cluster.addrs())
        .unwrap()
        .list_datasets()
        .unwrap();
    assert!(!listed.is_empty() && listed.len() < names.len());
    assert!(listed.iter().all(|n| want.contains(n)));
}

/// The observability acceptance scenario: a single query through
/// `ClusterClient` → hub → storage produces a connected span tree on
/// whichever replica served it, retrievable over the wire via the
/// `Metrics` opcode, with the queue-wait, execute, and storage-RT
/// stages all non-zero.
#[test]
fn cluster_query_produces_connected_span_tree() {
    use deeplake_core::dataset::TensorOptions;
    use deeplake_core::Dataset;
    use deeplake_hub::HubOptions;
    use deeplake_tensor::{Htype, Sample};
    use deeplake_tql::QueryOptions;
    use std::time::Duration;

    let seed: DynProvider = Arc::new(MemoryProvider::new());
    let mut ds = Dataset::create(seed.clone(), "traced").unwrap();
    ds.create_tensor_opts("labels", {
        let mut o = TensorOptions::new(Htype::ClassLabel);
        o.chunk_target_bytes = Some(256);
        o
    })
    .unwrap();
    for i in 0..500u64 {
        ds.append_row(vec![("labels", Sample::scalar((i / 100) as i32))])
            .unwrap();
    }
    ds.flush().unwrap();

    let cluster = Cluster::builder()
        .nodes(3)
        .replication(2)
        .dataset_from("traced", seed)
        .hub_options(HubOptions {
            // log every query, however fast
            slow_query_threshold: Duration::ZERO,
            ..HubOptions::default()
        })
        .build()
        .unwrap();
    let mount = cluster.client().unwrap().open("traced").unwrap();
    let result = mount
        .query(
            "SELECT labels FROM traced WHERE labels = 3",
            &QueryOptions::default(),
        )
        .unwrap();
    assert_eq!(result.len(), 100);

    // one of the owning replicas served it — find the span tree through
    // the wire opcode, exactly as an operator would
    let addrs = cluster.addrs();
    let entry = cluster
        .replica_nodes("traced")
        .into_iter()
        .find_map(|index| {
            let probe = RemoteProvider::connect(&*addrs[index]).unwrap();
            let snap = probe.hub_metrics().unwrap();
            snap.slow_queries
                .iter()
                .find(|e| e.dataset == "traced" && e.text.contains("SELECT"))
                .cloned()
        })
        .expect("the traced query must be in one replica's slow-query log");

    // the client's trace context crossed the wire
    assert_ne!(entry.trace_id, 0);
    assert_ne!(
        entry.parent_span, 0,
        "hub tree must hang off the client span"
    );

    let span = |name: &str| {
        entry
            .spans
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("span {name} missing"))
    };
    assert_eq!(span("queue_wait").parent_span, entry.root_span);
    assert_eq!(span("execute").parent_span, entry.root_span);
    assert_eq!(span("storage").parent_span, span("execute").span_id);
    assert!(span("queue_wait").dur_ns > 0);
    assert!(span("execute").dur_ns > 0);
    assert!(span("storage").dur_ns > 0);
}

/// A small committed dataset seed for query traffic.
fn query_seed(name: &str) -> DynProvider {
    use deeplake_core::dataset::TensorOptions;
    use deeplake_core::Dataset;
    use deeplake_tensor::{Htype, Sample};

    let seed: DynProvider = Arc::new(MemoryProvider::new());
    let mut ds = Dataset::create(seed.clone(), name).unwrap();
    ds.create_tensor_opts("labels", {
        let mut o = TensorOptions::new(Htype::ClassLabel);
        o.chunk_target_bytes = Some(256);
        o
    })
    .unwrap();
    for i in 0..300u64 {
        ds.append_row(vec![("labels", Sample::scalar((i / 100) as i32))])
            .unwrap();
    }
    ds.flush().unwrap();
    seed
}

/// A query a replica answered with an error is that replica's verdict,
/// and every replica would repeat it: it runs once and never fails
/// over — even when the error's text says `busy`. Routing on the text
/// ran this query 4 times, with 4 failovers and a placement refresh.
#[test]
fn answered_query_error_runs_once_and_never_fails_over() {
    use deeplake_tql::QueryOptions;

    let cluster = Cluster::builder()
        .nodes(3)
        .replication(2)
        .dataset_from("answers", query_seed("answers"))
        .build()
        .unwrap();
    let mount = cluster.client().unwrap().open("answers").unwrap();
    let executed = || -> u64 {
        (0..3)
            .filter_map(|index| cluster.hub(index))
            .map(|hub| hub.stats().queries())
            .sum()
    };
    let before = executed();
    let err = mount
        .query(
            "SELECT * FROM answers WHERE busy = 1",
            &QueryOptions::default(),
        )
        .unwrap_err();
    assert!(err.to_string().contains("unknown column: busy"), "{err}");
    assert_eq!(
        (mount.failovers(), mount.refreshes(), executed() - before),
        (0, 0, 1),
        "(failovers, refreshes, executions)"
    );
}

/// A listener on 127.0.0.1 that hands every accepted connection to
/// `serve` on its own thread; returns its address.
fn fake_node(serve: fn(TcpStream)) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { break };
            std::thread::spawn(move || serve(stream));
        }
    });
    addr
}

/// Run `client`'s prober until every registered node was probed
/// `rounds` times, then stop it (stopping joins the last probe).
fn probe_rounds(cluster: &Cluster, client: &ClusterClient, rounds: u64) {
    use std::time::{Duration, Instant};

    let probes = rounds * cluster.addrs().len() as u64;
    assert!(client.start_prober(Duration::from_millis(20)));
    let deadline = Instant::now() + Duration::from_secs(10);
    while client
        .metrics()
        .counter("cluster.probe.probes")
        .unwrap_or(0)
        < probes
    {
        assert!(Instant::now() < deadline, "prober stalled");
        std::thread::sleep(Duration::from_millis(10));
    }
    client.stop_prober();
}

/// A node that completes the handshake and then refuses every request
/// with a protocol error is *answering*: the prober keeps it live.
#[test]
fn prober_keeps_a_refusing_node_live() {
    let refuser = fake_node(|mut stream| {
        // the untagged handshake, answered as a hub does: Hello, Pipeline
        for answer in [
            proto::hello_response(proto::PROTO_VERSION),
            proto::resp_unit(),
        ] {
            if proto::read_frame(&mut stream).ok().flatten().is_none() {
                return;
            }
            let _ = proto::write_frame(&mut stream, &answer);
        }
        while let Ok(Some(frame)) = proto::read_frame(&mut stream) {
            let (id, _) = proto::split_tagged(&frame).expect("a tagged request");
            let refusal = proto::resp_proto_err("refused");
            let _ = proto::write_tagged_frame(&mut stream, id, &refusal);
        }
    });
    let cluster = Cluster::builder()
        .nodes(2)
        .external_node(&refuser)
        .build()
        .unwrap();
    let client = cluster.client().unwrap();
    probe_rounds(&cluster, &client, 3);
    assert_eq!(client.metrics().counter("cluster.probe.deaths"), Some(0));
    assert!(cluster.map().read().live_addrs().contains(&refuser));
}

/// A node that accepts and hangs up never answers: the prober declares
/// it dead.
#[test]
fn prober_declares_a_hanging_up_node_dead() {
    let closer = fake_node(drop);
    let cluster = Cluster::builder()
        .nodes(2)
        .external_node(&closer)
        .build()
        .unwrap();
    let client = cluster.client().unwrap();
    probe_rounds(&cluster, &client, 2);
    assert_eq!(client.metrics().counter("cluster.probe.deaths"), Some(1));
    assert!(!cluster.map().read().live_addrs().contains(&closer));
}

/// The fleet-observability acceptance scenario, end to end:
///
/// 1. a node *crashes* — its hub dies but nobody tells the map (no
///    `kill`, no `mark_dead`);
/// 2. queries routed through the `ClusterClient` keep succeeding
///    through the death (client-side failover covers the window);
/// 3. the background health prober observes the death and flips the
///    map within a probe interval — fresh placements stop naming the
///    corpse, with zero manual intervention;
/// 4. `cluster_metrics()` merges every surviving node's snapshot so
///    each merged counter equals the sum of the per-node values, and
///    stitches the traced query's cross-node span tree;
/// 5. the surviving nodes' flight recorders contain the node-death
///    observation.
#[test]
fn prober_detects_unobserved_crash_and_fleet_metrics_merge() {
    use deeplake_hub::HubOptions;
    use deeplake_obs::FlightEvent;
    use deeplake_tql::QueryOptions;
    use std::time::{Duration, Instant};

    let mut cluster = Cluster::builder()
        .nodes(3)
        .replication(2)
        .dataset_from("probed", query_seed("probed"))
        .hub_options(HubOptions {
            // log every query so the trace lands in a slow-query ring
            slow_query_threshold: Duration::ZERO,
            ..HubOptions::default()
        })
        .build()
        .unwrap();
    let client = cluster.client().unwrap();
    let mount = client.open("probed").unwrap();
    let q = "SELECT labels FROM probed WHERE labels = 1";
    assert_eq!(mount.query(q, &QueryOptions::default()).unwrap().len(), 100);

    let victim_index = cluster.replica_nodes("probed")[0];
    let victim_addr = cluster.addrs()[victim_index].clone();
    let epoch_before = cluster.epoch();
    assert!(cluster.crash(victim_index), "crash kills the hub only");
    assert!(
        cluster.map().read().live_addrs().contains(&victim_addr),
        "nobody told the map: the corpse still resolves in placements"
    );

    assert!(
        client.start_prober(Duration::from_millis(50)),
        "the cluster-built client has the map attached"
    );
    assert!(
        !client.start_prober(Duration::from_millis(50)),
        "a second prober is refused"
    );

    // queries keep succeeding THROUGH the unobserved death
    for _ in 0..10 {
        assert_eq!(mount.query(q, &QueryOptions::default()).unwrap().len(), 100);
    }

    // within a probe interval (plus scheduling slack) the map flips
    let deadline = Instant::now() + Duration::from_secs(10);
    while cluster.map().read().live_addrs().contains(&victim_addr) {
        assert!(
            Instant::now() < deadline,
            "prober never marked the crashed node dead"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(cluster.epoch() > epoch_before, "the flip bumped the epoch");
    let (_, fresh) = client.open("probed").unwrap().placement();
    assert!(
        !fresh.contains(&victim_addr),
        "fresh placements must not name the corpse"
    );

    // the prober's decisions are themselves counted
    let probe_snap = client.metrics();
    assert!(probe_snap.counter("cluster.probe.probes").unwrap_or(0) >= 3);
    assert_eq!(probe_snap.counter("cluster.probe.deaths"), Some(1));

    // every surviving node's flight recorder observed the death
    for index in 0..3 {
        if index == victim_index {
            continue;
        }
        let events = cluster.hub(index).unwrap().flight_recorder().events();
        assert!(
            events
                .iter()
                .any(|e| e.kind == FlightEvent::NODE_DEAD && e.detail == victim_addr),
            "node {index} missed the death observation: {events:?}"
        );
    }

    // fleet aggregation over the survivors: merged == per-node sums
    let fleet = client.cluster_metrics().unwrap();
    assert_eq!(fleet.per_node.len(), 2, "two live nodes scraped");
    for (name, total) in &fleet.merged.counters {
        let sum: u64 = fleet
            .per_node
            .iter()
            .map(|(_, snap)| snap.counter(name).unwrap_or(0))
            .sum();
        assert_eq!(*total, sum, "merged counter {name} != per-node sum");
    }
    for (name, merged_hist) in &fleet.merged.histograms {
        let count_sum: u64 = fleet
            .per_node
            .iter()
            .filter_map(|(_, snap)| snap.histogram(name))
            .map(|h| h.count)
            .sum();
        assert_eq!(merged_hist.count, count_sum, "merged histogram {name}");
    }
    // the merged event timeline carries the fleet's accepts and the
    // death observations
    assert!(fleet
        .merged
        .events
        .iter()
        .any(|e| e.kind == FlightEvent::NODE_DEAD && e.detail == victim_addr));

    // the traced query's span tree stitches out of the fleet view
    let trace_id = fleet
        .merged
        .slow_queries
        .iter()
        .find(|e| e.dataset == "probed")
        .expect("the query landed in some node's slow log")
        .trace_id;
    assert_ne!(trace_id, 0);
    let tree = fleet.span_tree(trace_id);
    let root = tree
        .iter()
        .find(|s| s.name == "hub:probed")
        .expect("synthetic hub root span");
    assert!(
        tree.iter()
            .any(|s| s.name == "execute" && s.parent_span == root.span_id),
        "stage spans hang under the hub root"
    );
    // parents precede children
    let ids: std::collections::HashSet<u64> = tree.iter().map(|s| s.span_id).collect();
    let mut seen = std::collections::HashSet::new();
    for span in &tree {
        assert!(
            !ids.contains(&span.parent_span) || seen.contains(&span.parent_span),
            "span {} precedes its parent",
            span.name
        );
        seen.insert(span.span_id);
    }

    client.stop_prober();
    client.stop_prober(); // idempotent
}

/// The recovery direction: a healthy node falsely declared dead is
/// revived by the prober's next round, and the revival is observed in
/// the fleet's flight recorders.
#[test]
fn prober_revives_a_falsely_declared_node() {
    use deeplake_obs::FlightEvent;
    use std::time::{Duration, Instant};

    let cluster = Cluster::builder()
        .nodes(2)
        .replication(2)
        .dataset("steady")
        .build()
        .unwrap();
    let client = cluster.client().unwrap();
    let addr = cluster.addrs()[0].clone();
    assert!(cluster.map().write().mark_dead(&addr), "false declaration");
    assert!(!cluster.map().read().live_addrs().contains(&addr));

    assert!(client.start_prober(Duration::from_millis(30)));
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cluster.map().read().live_addrs().contains(&addr) {
        assert!(
            Instant::now() < deadline,
            "prober never revived the healthy node"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        client
            .metrics()
            .counter("cluster.probe.revivals")
            .unwrap_or(0)
            >= 1
    );
    let events = cluster.hub(1).unwrap().flight_recorder().events();
    assert!(
        events
            .iter()
            .any(|e| e.kind == FlightEvent::NODE_LIVE && e.detail == addr),
        "the revival must be observed: {events:?}"
    );
}
