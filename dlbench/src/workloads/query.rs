//! The two TQL workloads, on one dataset (clustered `labels` with chunk
//! statistics, unordered `score`, `emb` with an IVF index) served by an
//! in-process hub with a 4 MiB result cache.
//!
//! `query_hot` — the served fast path: 16 distinct texts repeated, so the
//! working set (16 result frames) fits the cache. One connection, driven
//! by this file's single-threaded pipelined client with a window of 8
//! requests in flight, so the hub's threads stay busy and the figure is
//! hub CPU per request, not thread wake-up latency. Latency unit: frame
//! written to verified response read. `hub` event loop, cache and
//! `remote::proto` framing work; `tql`, `storage`, `codec` do nothing.
//!
//! `query_cold` — interactive TQL: every text is new, so the cache never
//! hits and overflows. One caller of `RemoteProvider::query`, one request
//! in flight, cycling a pruned equality filter, an unprunable scan and an
//! ANN top-k. Latency unit: one query. `tql`, `index`, `core`, `storage`
//! work; `loader` does nothing.

use std::collections::HashMap;
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

use deeplake_core::{Dataset, IndexSpec};
use deeplake_hub::HubHandle;
use deeplake_remote::proto::{self, Request};
use deeplake_remote::RemoteProvider;
use deeplake_tensor::{Dtype, Htype};
use deeplake_tql::{QueryOptions, QueryResult};

use super::{
    create_dataset, dial, hub_layer_metrics, start_hub, write_rows, Counts, Inputs, Round,
    TensorSpec, Workload, WritePhase,
};
use crate::gen::{QueryClass, QueryTexts, QUERY_CLASSES};
use crate::metrics::Metrics;
use crate::spans::Tracer;
use crate::stats::median;
use crate::store::SpanProvider;

/// Distinct texts of `query_hot`.
const HOT_TEXTS: usize = 16;
/// Requests `query_hot` keeps in flight.
const HOT_WINDOW: usize = 8;
/// `query_hot` keeps the latency of every n-th request: two million
/// samples a run are 30 MB of the benchmark's own memory, more in a fast
/// run than in a slow one, and `peak_rss_mb` would follow that.
const HOT_LATENCY_EVERY: u64 = 8;
/// `query_cold` checks every filter answer and every n-th scan and top-k
/// answer: the in-process reference costs what the served query cost, so
/// checking all of them would double the run.
const COLD_CHECK_EVERY: usize = 4;

pub const OPTIONS: QueryOptions = QueryOptions {
    workers: 2,
    pruning: true,
    ann: true,
    nprobe: 4,
};

/// What both workloads stand on.
struct Served {
    tracer: Tracer,
    write_phase: WritePhase,
    index_build_ms: f64,
    /// In-process handle on the same store: the reference executor.
    reference: Dataset,
    // the hub is declared after its clients so it drops last
    store: Arc<SpanProvider>,
    hub: HubHandle,
}

impl Served {
    fn setup(inputs: &Inputs, tracer: &Tracer) -> Self {
        let rows = &inputs.rows;
        let store = SpanProvider::new(tracer);
        let tensors = [
            TensorSpec {
                name: "labels",
                htype: Htype::ClassLabel,
                dtype: None,
                chunk_target_bytes: 1 << 10,
            },
            TensorSpec {
                name: "score",
                htype: Htype::Generic,
                dtype: Some(Dtype::F32),
                chunk_target_bytes: 4 << 10,
            },
            TensorSpec {
                name: "emb",
                htype: Htype::Embedding,
                dtype: None,
                chunk_target_bytes: 64 << 10,
            },
        ];
        let mut ds = create_dataset(&store, &tensors, tracer);
        let failed = write_rows(&mut ds, rows, tracer, |_| ());
        assert_eq!(failed, 0, "writing the query dataset failed");
        let write_phase = WritePhase::of(&store, rows);
        let build = Instant::now();
        tracer.in_span("index", "build_vector_index", || {
            ds.build_vector_index(
                "emb",
                &IndexSpec {
                    seed: inputs.seed,
                    ..IndexSpec::default()
                },
            )
            .expect("build the IVF index")
        });
        let index_build_ms = build.elapsed().as_secs_f64() * 1e3;
        ds.flush().expect("flush the index");
        drop(ds);
        let reference = Dataset::open(store.dyn_provider()).expect("open the reference dataset");
        let hub = start_hub(&store);
        Served {
            tracer: tracer.clone(),
            write_phase,
            index_build_ms,
            reference,
            store,
            hub,
        }
    }

    fn reference(&self, text: &str) -> Vec<u64> {
        deeplake_tql::query_opts(&self.reference, text, &OPTIONS)
            .map(|r| r.indices)
            .unwrap_or_default()
    }

    fn busy_premise(&self, broken: &mut Vec<String>) {
        let busy = self.hub.stats().busy_rejections();
        if busy != 0 {
            broken.push(format!("hub answered Busy {busy} times"));
        }
    }

    /// `tql.*` and `index.*`: in-process executions of each class on the
    /// reference handle, the parser alone, and the index probe alone.
    fn tql_layer_metrics(&self, seed_texts: &mut QueryTexts, out: &mut Metrics) {
        const PER_CLASS: usize = 15;
        let mut stats = Vec::new();
        for (class, metric) in [
            (QueryClass::Filter, "tql.exec_filter_ms_p50"),
            (QueryClass::Scan, "tql.exec_scan_ms_p50"),
            (QueryClass::TopK, "tql.exec_topk_ms_p50"),
        ] {
            let mut ms = Vec::new();
            for _ in 0..PER_CLASS {
                let text = seed_texts.next(class);
                let start = Instant::now();
                let result = self.tracer.in_span("tql", "query_opts", || {
                    deeplake_tql::query_opts(&self.reference, &text, &OPTIONS)
                });
                ms.push(start.elapsed().as_secs_f64() * 1e3);
                if let Ok(r) = result {
                    stats.push((class, r.stats, r.indices.len() as u64));
                }
            }
            out.set(metric, median(&ms));
        }
        let of = |class: QueryClass| stats.iter().filter(move |(c, ..)| *c == class);
        let (pruned, spans) = of(QueryClass::Filter).fold((0, 0), |(p, t), (_, s, _)| {
            (
                p + s.chunks_pruned,
                t + s.chunks_pruned + s.chunks_matched + s.chunks_scanned,
            )
        });
        out.set(
            "tql.chunks_pruned_ratio",
            pruned as f64 / spans.max(1) as f64,
        );
        // rows a scan evaluates per row it returns: the scan class reads
        // every row of the dataset
        let examined = of(QueryClass::Scan).count() as u64 * self.reference.len();
        let returned: u64 = of(QueryClass::Scan).map(|(.., n)| *n).sum();
        out.set(
            "tql.rows_examined_per_result",
            examined as f64 / returned.max(1) as f64,
        );
        let trips: u64 = stats.iter().map(|(_, s, _)| s.round_trips).sum();
        out.set(
            "tql.round_trips_per_query",
            trips as f64 / stats.len().max(1) as f64,
        );
        let candidates: u64 = of(QueryClass::TopK)
            .map(|(_, s, _)| s.candidates_reranked)
            .sum();
        out.set(
            "index.candidates_per_query",
            candidates as f64 / of(QueryClass::TopK).count().max(1) as f64,
        );
        out.set("index.build_ms", self.index_build_ms);
        if let Some(index) = self.reference.vector_index("emb") {
            out.set("index.probe_us", crate::probes::index_probe_us(&index));
        }
        out.set(
            "core.get_rows_batch_ms_p50",
            crate::probes::get_rows_batch_ms(&self.reference, &["labels", "score", "emb"], 32),
        );
    }
}

// ---------------------------------------------------------------------
// query_hot
// ---------------------------------------------------------------------

/// A single-threaded pipelined protocol client: tagged frames on one
/// socket, responses matched by correlation id in completion order.
struct PipelinedClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: u64,
    sent: u64,
    received: u64,
    busy: u64,
}

impl PipelinedClient {
    fn connect(hub: &HubHandle) -> std::io::Result<Self> {
        let writer = TcpStream::connect(hub.addr())?;
        writer.set_nodelay(true)?;
        let mut client = PipelinedClient {
            reader: BufReader::new(writer.try_clone()?),
            writer,
            next_id: 1,
            sent: 0,
            received: 0,
            busy: 0,
        };
        for handshake in [
            Request::Hello {
                version: proto::PROTO_VERSION,
            },
            Request::Pipeline,
        ] {
            proto::write_frame(&mut client.writer, &proto::encode_request(&handshake))?;
            let ack = proto::read_frame(&mut client.reader)?.ok_or_else(closed)?;
            if ack.first() != Some(&proto::STATUS_OK) {
                return Err(std::io::Error::other(format!("hub refused {handshake:?}")));
            }
        }
        Ok(client)
    }

    fn send(&mut self, payload: &[u8]) -> std::io::Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        let frame = proto::tag_request(id, payload);
        self.sent += frame.len() as u64 + 4;
        proto::write_frame(&mut self.writer, &frame)?;
        Ok(id)
    }

    /// The next response frame in completion order (`[id][payload]`).
    fn receive(&mut self) -> std::io::Result<Vec<u8>> {
        let frame = proto::read_frame(&mut self.reader)?.ok_or_else(closed)?;
        self.received += frame.len() as u64 + 4;
        Ok(frame)
    }
}

fn closed() -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::UnexpectedEof,
        "hub closed the connection",
    )
}

pub struct QueryHot {
    requests_per_round: usize,
    /// Encoded `Query` requests and the reference row ids of each.
    requests: Vec<(Vec<u8>, Vec<u64>)>,
    texts: QueryTexts,
    store_trips_at_start: u64,
    client: PipelinedClient,
    served: Served,
}

impl QueryHot {
    pub fn setup(inputs: &Inputs, tracer: &Tracer) -> Self {
        let served = Served::setup(inputs, tracer);
        let mut texts = QueryTexts::new(inputs.seed, served.reference.len());
        let requests = (0..HOT_TEXTS)
            .map(|i| {
                let text = texts.next(QUERY_CLASSES[i % QUERY_CLASSES.len()]);
                let payload = proto::encode_request(&Request::Query {
                    reference: "main".to_string(),
                    text: text.clone(),
                    options: OPTIONS,
                });
                (payload, served.reference(&text))
            })
            .collect();
        let client = PipelinedClient::connect(&served.hub).expect("dial hub");
        let mut hot = QueryHot {
            requests_per_round: inputs.scale.hot_requests,
            requests,
            texts,
            store_trips_at_start: 0,
            client,
            served,
        };
        // fill the cache: one miss per text, not part of any round
        let fill = hot.drive(HOT_TEXTS, 1, &mut Vec::new());
        assert_eq!(fill.failed, 0, "query_hot cache fill returned wrong rows");
        hot.store_trips_at_start = hot.served.store.stats().round_trips;
        hot
    }

    /// Issue `n` requests, cycling the texts, `window` in flight.
    fn drive(&mut self, n: usize, window: usize, lat_ms: &mut Vec<f64>) -> Round {
        let tracer = self.served.tracer.clone();
        let _span = tracer.span("remote", "pipelined_round");
        let mut in_flight: HashMap<u64, (usize, Instant)> = HashMap::with_capacity(window);
        let (mut issued, mut failed) = (0usize, 0u64);
        while issued < n || !in_flight.is_empty() {
            while issued < n && in_flight.len() < window {
                let which = issued % self.requests.len();
                match self.client.send(&self.requests[which].0) {
                    Ok(id) => {
                        in_flight.insert(id, (which, Instant::now()));
                    }
                    Err(_) => failed += 1,
                }
                issued += 1;
            }
            if in_flight.is_empty() {
                break;
            }
            let Ok(frame) = self.client.receive() else {
                // the connection is gone: everything in flight is lost
                failed += in_flight.len() as u64 + (n - issued) as u64;
                break;
            };
            let Some((id, payload)) = proto::split_tagged(&frame) else {
                failed += 1;
                continue;
            };
            let Some((which, sent_at)) = in_flight.remove(&id) else {
                failed += 1;
                continue;
            };
            if payload.first() == Some(&proto::STATUS_BUSY) {
                self.client.busy += 1;
            }
            let ok = proto::expect_query(payload)
                .is_ok_and(|r: QueryResult| r.indices == self.requests[which].1);
            if id % HOT_LATENCY_EVERY == 0 {
                lat_ms.push(sent_at.elapsed().as_secs_f64() * 1e3);
            }
            if !ok {
                failed += 1;
            }
        }
        Round {
            items: n as u64,
            failed,
        }
    }
}

impl Workload for QueryHot {
    fn round(&mut self, lat_ms: &mut Vec<f64>) -> Round {
        self.drive(self.requests_per_round, HOT_WINDOW, lat_ms)
    }

    fn counts(&self) -> Counts {
        let store = self.served.store.stats();
        Counts {
            storage_round_trips: store.round_trips,
            storage_logical_reads: store.logical_reads,
            wire_bytes: self.client.sent + self.client.received,
        }
    }

    fn write_phase(&self) -> WritePhase {
        self.served.write_phase
    }

    fn premises(&mut self) -> Vec<String> {
        let mut broken = Vec::new();
        self.served.busy_premise(&mut broken);
        if self.client.busy != 0 {
            broken.push(format!("client read {} Busy frames", self.client.busy));
        }
        let ratio = self.served.hub.cache().hit_ratio();
        if ratio < 0.99 {
            broken.push(format!("cache hit ratio {ratio:.4} < 0.99"));
        }
        let trips = self.served.store.stats().round_trips - self.store_trips_at_start;
        if trips != 0 {
            broken.push(format!("{trips} backing round trips after the cache fill"));
        }
        broken
    }

    fn layer_metrics(&mut self, client_mean_ms: f64, out: &mut Metrics) {
        let mut w1 = Vec::new();
        self.drive(self.requests_per_round / 8, 1, &mut w1);
        out.set("e2e.lat_p50_w1_ms", median(&w1));
        out.set("remote.busy_retries", self.client.busy as f64);
        let remote = dial(&self.served.hub);
        out.set(
            "remote.ping_rtt_us_p50",
            crate::probes::ping_rtt_us(&remote),
        );
        // a hit spends no time in execute: everything the client sees
        // beyond queue + lookup + flush is wire, framing and wake-ups
        hub_layer_metrics(&self.served.hub, None, client_mean_ms, out);
        // with one request in flight, everything but the hub's own work
        // on a hit (lookup, flush) is wire, framing and thread hand-offs
        let snap = self.served.hub.metrics();
        let hub_us = super::hub_mean(&snap, "hub.cache_lookup_ns", 1e3)
            + super::hub_mean(&snap, "hub.flush_ns", 1e3);
        let w1_mean_us = w1.iter().sum::<f64>() / w1.len().max(1) as f64 * 1e3;
        out.set("remote.rtt_minus_hub_us_mean", w1_mean_us - hub_us);
        self.served.tql_layer_metrics(&mut self.texts, out);
    }
}

// ---------------------------------------------------------------------
// query_cold
// ---------------------------------------------------------------------

pub struct QueryCold {
    queries_per_round: usize,
    texts: QueryTexts,
    /// `(class, text, row ids the hub returned)` of the round just run.
    answers: Vec<(QueryClass, String, Vec<u64>)>,
    remote: RemoteProvider,
    served: Served,
}

impl QueryCold {
    pub fn setup(inputs: &Inputs, tracer: &Tracer) -> Self {
        let served = Served::setup(inputs, tracer);
        let remote = dial(&served.hub);
        QueryCold {
            queries_per_round: inputs.scale.cold_queries,
            texts: QueryTexts::new(inputs.seed, served.reference.len()),
            answers: Vec::new(),
            remote,
            served,
        }
    }
}

impl Workload for QueryCold {
    fn round(&mut self, lat_ms: &mut Vec<f64>) -> Round {
        self.answers.clear();
        let mut failed = 0;
        for i in 0..self.queries_per_round {
            let class = QUERY_CLASSES[i % QUERY_CLASSES.len()];
            if class == QueryClass::Filter && self.texts.filters_left() == 0 {
                // out of distinct filter values: the run was sized wrong
                failed += 1;
                continue;
            }
            let text = self.texts.next(class);
            let start = Instant::now();
            let result = self
                .served
                .tracer
                .in_span("remote", "query", || self.remote.query(&text, &OPTIONS));
            lat_ms.push(start.elapsed().as_secs_f64() * 1e3);
            match result {
                Ok(r) => self.answers.push((class, text, r.indices)),
                Err(_) => failed += 1,
            }
        }
        Round {
            items: self.queries_per_round as u64,
            failed,
        }
    }

    /// Answers against the in-process executor (see
    /// [`COLD_CHECK_EVERY`]).
    fn verify(&mut self) -> u64 {
        let mut wrong = 0;
        for (i, (class, text, indices)) in std::mem::take(&mut self.answers).into_iter().enumerate()
        {
            let checked = class == QueryClass::Filter
                || (i / QUERY_CLASSES.len()).is_multiple_of(COLD_CHECK_EVERY);
            if checked {
                let want = self.served.reference(&text);
                if want != indices {
                    println!("# WRONG ANSWER to {text}: hub {indices:?}, reference {want:?}");
                    wrong += 1;
                }
            }
        }
        wrong
    }

    fn counts(&self) -> Counts {
        let store = self.served.store.stats();
        let wire = self.remote.stats().snapshot();
        Counts {
            storage_round_trips: store.round_trips,
            storage_logical_reads: store.logical_reads,
            wire_bytes: wire.bytes_written + wire.bytes_read,
        }
    }

    fn write_phase(&self) -> WritePhase {
        self.served.write_phase
    }

    fn premises(&mut self) -> Vec<String> {
        let mut broken = Vec::new();
        self.served.busy_premise(&mut broken);
        let cache = self.served.hub.cache();
        if cache.hit_ratio() > 0.01 {
            broken.push(format!("cache hit ratio {:.4} > 0.01", cache.hit_ratio()));
        }
        if cache.evictions() == 0 {
            broken.push("the result cache never overflowed".to_string());
        }
        broken
    }

    fn layer_metrics(&mut self, client_mean_ms: f64, out: &mut Metrics) {
        out.set(
            "remote.busy_retries",
            self.served.hub.stats().busy_rejections() as f64,
        );
        out.set(
            "remote.ping_rtt_us_p50",
            crate::probes::ping_rtt_us(&self.remote),
        );
        hub_layer_metrics(
            &self.served.hub,
            Some("hub.execute_ns"),
            client_mean_ms,
            out,
        );
        // one request in flight: the client's mean latency minus the
        // hub's own mean for a query over the last minute (`hub.query_ns`,
        // queue wait included)
        let hub_us = super::hub_mean(&self.served.hub.metrics(), "hub.query_ns.w60", 1e3);
        out.set(
            "remote.rtt_minus_hub_us_mean",
            client_mean_ms * 1e3 - hub_us,
        );
        self.served.tql_layer_metrics(&mut self.texts, out);
    }
}
