//! The metric catalogue — every name the benchmark reports, with its unit
//! and which direction is better — and the value bag a run fills.
//! `BENCHMARK.json` declares exactly these (a test compares the two).

use serde_json::{Number, Value};

#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Regression and agreement threshold as a share of the median
    /// (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
    }
}

const fn lower(name: &'static str, unit: &'static str) -> Def {
    e2e(name, unit, "lower", 0.0)
}

const fn higher(name: &'static str, unit: &'static str) -> Def {
    e2e(name, unit, "higher", 0.0)
}

/// Reported by every workload in an untraced run.
pub const END_TO_END: &[Def] = &[
    e2e("items_per_s", "1/s", "higher", 0.25),
    e2e("lat_p50_ms", "ms", "lower", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.10),
    e2e("stored_bytes_per_user_byte", "ratio", "lower", 0.01),
];

/// Reported by every workload in a traced run; 0 where the workload does
/// not exercise the layer.
pub const PER_LAYER: &[Def] = &[
    higher("codec.image_encode_mb_s", "MB/s"),
    higher("codec.image_decode_mb_s", "MB/s"),
    higher("codec.lz4_encode_mb_s", "MB/s"),
    higher("codec.lz4_decode_mb_s", "MB/s"),
    lower("format.chunk_build_us", "us"),
    lower("format.chunk_parse_us", "us"),
    lower("format.sample_decode_us", "us"),
    lower("format.stats_index_decode_us", "us"),
    lower("format.chunks_per_krow", "ratio"),
    lower("storage.put_calls_per_krow", "ratio"),
    lower("storage.bytes_written_per_user_byte", "ratio"),
    lower("storage.get_calls_per_item", "ratio"),
    higher("storage.logical_reads_per_round_trip", "ratio"),
    lower("storage.self_ms_per_item", "ms"),
    lower("storage.local_put_us_p50", "us"),
    lower("storage.local_get_us_p50", "us"),
    lower("core.append_row_us_p50", "us"),
    lower("core.flush_ms_p50", "ms"),
    lower("core.commit_ms_p50", "ms"),
    lower("core.get_rows_batch_ms_p50", "ms"),
    lower("core.self_ms_per_item", "ms"),
    lower("tql.parse_us", "us"),
    lower("tql.exec_filter_ms_p50", "ms"),
    lower("tql.exec_scan_ms_p50", "ms"),
    lower("tql.exec_topk_ms_p50", "ms"),
    higher("tql.chunks_pruned_ratio", "ratio"),
    lower("tql.rows_examined_per_result", "ratio"),
    lower("tql.round_trips_per_query", "ratio"),
    lower("index.probe_us", "us"),
    lower("index.candidates_per_query", "count"),
    lower("index.build_ms", "ms"),
    lower("loader.fetch_ms_p50", "ms"),
    lower("loader.decode_ms_p50", "ms"),
    lower("loader.collate_ms_p50", "ms"),
    lower("loader.queue_wait_ms_p50", "ms"),
    lower("loader.consumer_gap_ms_p50", "ms"),
    higher("loader.worker_utilization", "ratio"),
    lower("loader.first_batch_ms", "ms"),
    lower("remote.request_encode_ns", "ns"),
    lower("remote.response_decode_ns", "ns"),
    lower("remote.ping_rtt_us_p50", "us"),
    lower("remote.rtt_minus_hub_us_mean", "us"),
    lower("remote.busy_retries", "count"),
    lower("hub.queue_wait_us_p50", "us"),
    lower("hub.cache_lookup_us_p50", "us"),
    lower("hub.execute_ms_p50", "ms"),
    lower("hub.storage_ms_p50", "ms"),
    lower("hub.flush_us_p50", "us"),
    higher("hub.cache_hit_ratio", "ratio"),
    lower("hub.cache_evictions", "count"),
    lower("hub.busy_rejections", "count"),
    lower("hub.unattributed_frac", "ratio"),
    lower("obs.trace_overhead_frac", "ratio"),
    lower("e2e.lat_p99_ms", "ms"),
    lower("e2e.lat_p50_w1_ms", "ms"),
    lower("e2e.cpu_ms_per_item", "ms"),
    lower("e2e.storage_round_trips_per_item", "ratio"),
    lower("e2e.wire_bytes_per_item", "B"),
    lower("bench.round_spread_frac", "ratio"),
    lower("bench.involuntary_ctx_switches_per_s", "1/s"),
    lower("bench.loadavg_1m", "ratio"),
    higher("bench.attributed_frac", "ratio"),
];

/// Values of one run, in catalogue order.
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(&'static Def, f64)>,
}

impl Metrics {
    /// Every metric of `defs` at 0.
    pub fn zeroed(defs: &'static [Def]) -> Self {
        Metrics {
            values: defs.iter().map(|d| (d, 0.0)).collect(),
        }
    }

    /// Set a catalogued metric; an uncatalogued name is a bug here.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .values
            .iter_mut()
            .find(|(d, _)| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in this run's catalogue"));
        // JSON has no NaN or infinity
        slot.1 = if value.is_finite() { value } else { 0.0 };
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static Def, f64)> + '_ {
        self.values.iter().copied()
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`.
    pub fn to_json(&self) -> Value {
        Value::Object(
            self.values
                .iter()
                .map(|(d, v)| {
                    let entry = Value::Object(vec![
                        ("value".to_string(), Value::Number(Number::F(*v))),
                        ("unit".to_string(), Value::String(d.unit.to_string())),
                    ]);
                    (d.name.to_string(), entry)
                })
                .collect(),
        )
    }
}
