//! Introspection: the `Metrics` and `Health` payloads — a
//! [`MetricsSnapshot`] and a [`HealthReport`] on the wire.

use super::*;

/// Encode a flight-event list (shared by the `Metrics` and `Health`
/// responses).
fn put_events(out: &mut Vec<u8>, events: &[FlightEvent]) {
    put_u32(out, events.len() as u32);
    for e in events {
        put_u64(out, e.at_unix_ms);
        put_u64(out, e.seq);
        put_str(out, &e.kind);
        put_u64(out, e.trace_id);
        put_str(out, &e.detail);
    }
}

/// Decode a flight-event list, count bounded before allocation.
fn take_events(r: &mut WireReader<'_>) -> Result<Vec<FlightEvent>, StorageError> {
    let n = r.u32().map_err(proto_err)? as usize;
    // each event costs at least two length headers plus three u64s
    bounded_count(r, n, 32, "event")?;
    let mut events = Vec::with_capacity(n);
    for _ in 0..n {
        events.push(FlightEvent {
            at_unix_ms: r.u64().map_err(proto_err)?,
            seq: r.u64().map_err(proto_err)?,
            kind: r.str().map_err(proto_err)?,
            trace_id: r.u64().map_err(proto_err)?,
            detail: r.str().map_err(proto_err)?,
        });
    }
    Ok(events)
}

/// `STATUS_OK` carrying a [`MetricsSnapshot`]: counters and gauges as
/// `(name, value)` pairs, histograms as exact `count`/`sum`/`max` plus
/// sparse non-empty buckets, the slow-query ring with each entry's
/// span breakdown, then the windowed-rate and flight-event sections.
/// Every section is required. Names travel sorted (the registry
/// snapshots them sorted), so diffing two responses is line-by-line.
pub fn resp_metrics(snap: &MetricsSnapshot) -> Vec<u8> {
    let mut out = vec![STATUS_OK];
    put_u32(&mut out, snap.counters.len() as u32);
    for (name, v) in &snap.counters {
        put_str(&mut out, name);
        put_u64(&mut out, *v);
    }
    put_u32(&mut out, snap.gauges.len() as u32);
    for (name, v) in &snap.gauges {
        put_str(&mut out, name);
        put_u64(&mut out, *v as u64);
    }
    put_u32(&mut out, snap.histograms.len() as u32);
    for (name, h) in &snap.histograms {
        put_str(&mut out, name);
        put_u64(&mut out, h.count);
        put_u64(&mut out, h.sum);
        put_u64(&mut out, h.max);
        put_u32(&mut out, h.buckets.len() as u32);
        for &(index, n) in &h.buckets {
            put_u32(&mut out, index);
            put_u64(&mut out, n);
        }
    }
    put_u32(&mut out, snap.slow_queries.len() as u32);
    for entry in &snap.slow_queries {
        put_u64(&mut out, entry.trace_id);
        put_u64(&mut out, entry.root_span);
        put_u64(&mut out, entry.parent_span);
        put_str(&mut out, &entry.dataset);
        put_str(&mut out, &entry.version);
        put_str(&mut out, &entry.text);
        put_u64(&mut out, entry.total_ns);
        put_u32(&mut out, entry.spans.len() as u32);
        for span in &entry.spans {
            put_str(&mut out, &span.name);
            put_u64(&mut out, span.span_id);
            put_u64(&mut out, span.parent_span);
            put_u64(&mut out, span.dur_ns);
        }
    }
    put_u32(&mut out, snap.rates.len() as u32);
    for (name, rate) in &snap.rates {
        put_str(&mut out, name);
        for &c in &rate.counts {
            put_u64(&mut out, c);
        }
    }
    put_events(&mut out, &snap.events);
    out
}

/// A hub's answer to [`Request::Health`]: enough state for a prober or
/// a `dltop`-style dashboard to judge liveness and load at a glance,
/// without the full instrument dump `Metrics` carries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HealthReport {
    /// Milliseconds since the hub bound its listener.
    pub uptime_ms: u64,
    /// Requests currently queued or executing across all connections.
    pub in_flight: u64,
    /// Jobs currently waiting in the worker queue.
    pub queue_depth: u64,
    /// The worker queue's capacity (`queue_depth == queue_cap` means
    /// new data-path work is being answered `Busy`).
    pub queue_cap: u64,
    /// Sorted names of every mounted dataset.
    pub datasets: Vec<String>,
    /// The [`PROTO_VERSION`] the hub speaks.
    pub proto_version: u8,
    /// Whether the hub understands the `Traced` envelope.
    pub tracing: bool,
    /// The flight recorder's newest events (a bounded tail, oldest
    /// first) — what just happened on this node.
    pub events: Vec<FlightEvent>,
}

/// `STATUS_OK` carrying a [`HealthReport`].
pub fn resp_health(report: &HealthReport) -> Vec<u8> {
    let mut out = vec![STATUS_OK];
    put_u64(&mut out, report.uptime_ms);
    put_u64(&mut out, report.in_flight);
    put_u64(&mut out, report.queue_depth);
    put_u64(&mut out, report.queue_cap);
    put_u32(&mut out, report.datasets.len() as u32);
    for name in &report.datasets {
        put_str(&mut out, name);
    }
    out.push(report.proto_version);
    out.push(report.tracing as u8);
    put_events(&mut out, &report.events);
    out
}

/// Decode a `Health` response.
pub fn expect_health(payload: &[u8]) -> Result<HealthReport, StorageError> {
    let mut r = open_response(payload)?;
    let uptime_ms = r.u64().map_err(proto_err)?;
    let in_flight = r.u64().map_err(proto_err)?;
    let queue_depth = r.u64().map_err(proto_err)?;
    let queue_cap = r.u64().map_err(proto_err)?;
    let n = r.u32().map_err(proto_err)? as usize;
    bounded_count(&r, n, 4, "dataset")?;
    let mut datasets = Vec::with_capacity(n);
    for _ in 0..n {
        datasets.push(r.str().map_err(proto_err)?);
    }
    let proto_version = r.u8().map_err(proto_err)?;
    let tracing = r.u8().map_err(proto_err)? != 0;
    let events = take_events(&mut r)?;
    r.finish().map_err(proto_err)?;
    Ok(HealthReport {
        uptime_ms,
        in_flight,
        queue_depth,
        queue_cap,
        datasets,
        proto_version,
        tracing,
        events,
    })
}

/// Decode a `Metrics` response into a [`MetricsSnapshot`]. Every count
/// is bounded against the remaining bytes before its vector is
/// allocated, matching the rest of the protocol's decode discipline.
pub fn expect_metrics(payload: &[u8]) -> Result<MetricsSnapshot, StorageError> {
    let mut r = open_response(payload)?;
    let n = r.u32().map_err(proto_err)? as usize;
    bounded_count(&r, n, 12, "counter")?;
    let mut counters = Vec::with_capacity(n);
    for _ in 0..n {
        counters.push((r.str().map_err(proto_err)?, r.u64().map_err(proto_err)?));
    }
    let n = r.u32().map_err(proto_err)? as usize;
    bounded_count(&r, n, 12, "gauge")?;
    let mut gauges = Vec::with_capacity(n);
    for _ in 0..n {
        gauges.push((
            r.str().map_err(proto_err)?,
            r.u64().map_err(proto_err)? as i64,
        ));
    }
    let n = r.u32().map_err(proto_err)? as usize;
    bounded_count(&r, n, 32, "histogram")?;
    let mut histograms = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.str().map_err(proto_err)?;
        let count = r.u64().map_err(proto_err)?;
        let sum = r.u64().map_err(proto_err)?;
        let max = r.u64().map_err(proto_err)?;
        let b = r.u32().map_err(proto_err)? as usize;
        bounded_count(&r, b, 12, "bucket")?;
        let mut buckets = Vec::with_capacity(b);
        for _ in 0..b {
            buckets.push((r.u32().map_err(proto_err)?, r.u64().map_err(proto_err)?));
        }
        histograms.push((
            name,
            HistogramSnapshot {
                count,
                sum,
                max,
                buckets,
            },
        ));
    }
    let n = r.u32().map_err(proto_err)? as usize;
    bounded_count(&r, n, 48, "slow-query")?;
    let mut slow_queries = Vec::with_capacity(n);
    for _ in 0..n {
        let trace_id = r.u64().map_err(proto_err)?;
        let root_span = r.u64().map_err(proto_err)?;
        let parent_span = r.u64().map_err(proto_err)?;
        let dataset = r.str().map_err(proto_err)?;
        let version = r.str().map_err(proto_err)?;
        let text = r.str().map_err(proto_err)?;
        let total_ns = r.u64().map_err(proto_err)?;
        let s = r.u32().map_err(proto_err)? as usize;
        bounded_count(&r, s, 28, "span")?;
        let mut spans = Vec::with_capacity(s);
        for _ in 0..s {
            spans.push(SpanRecord {
                name: r.str().map_err(proto_err)?,
                span_id: r.u64().map_err(proto_err)?,
                parent_span: r.u64().map_err(proto_err)?,
                dur_ns: r.u64().map_err(proto_err)?,
            });
        }
        slow_queries.push(SlowQueryEntry {
            trace_id,
            root_span,
            parent_span,
            dataset,
            version,
            text,
            total_ns,
            spans,
        });
    }
    let n = r.u32().map_err(proto_err)? as usize;
    // a name header plus three u64 window totals
    bounded_count(&r, n, 28, "rate")?;
    let mut rates = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.str().map_err(proto_err)?;
        let mut counts = [0u64; 3];
        for c in counts.iter_mut() {
            *c = r.u64().map_err(proto_err)?;
        }
        rates.push((name, RateSnapshot { counts }));
    }
    let events = take_events(&mut r)?;
    r.finish().map_err(proto_err)?;
    Ok(MetricsSnapshot {
        counters,
        gauges,
        histograms,
        rates,
        slow_queries,
        events,
    })
}
