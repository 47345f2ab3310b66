//! The benchmark's own spans: recorded around calls into each layer and
//! inside the storage wrapper, kept in memory, written out at exit.
//!
//! A span has an id, the id of the span that was open on the same thread
//! when it started (0 = none), a layer, a name, and start/end in
//! nanoseconds since the tracer was created. A layer's *self time* is a
//! span's duration minus the part of it its child spans cover.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    /// Small per-thread number (order of first use), not an OS id.
    pub thread: u64,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    /// Innermost open span on this thread.
    static CURRENT: Cell<u64> = const { Cell::new(0) };
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

/// This thread's number as spans record it.
pub fn thread_number() -> u64 {
    THREAD.with(|t| *t)
}

struct Inner {
    enabled: AtomicBool,
    next_id: AtomicU64,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

/// Cheap-clone handle; recording is off until [`Tracer::set_enabled`].
#[derive(Clone)]
pub struct Tracer(Arc<Inner>);

impl Tracer {
    pub fn new() -> Self {
        Tracer(Arc::new(Inner {
            enabled: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }))
    }

    pub fn set_enabled(&self, on: bool) {
        self.0.enabled.store(on, Ordering::Relaxed);
    }

    /// Open a span; it closes when the guard drops. One relaxed load and
    /// nothing else while recording is off.
    pub fn span(&self, layer: &'static str, name: &'static str) -> SpanGuard<'_> {
        if !self.0.enabled.load(Ordering::Relaxed) {
            return SpanGuard(None);
        }
        let id = self.0.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = CURRENT.with(|c| c.replace(id));
        SpanGuard(Some(Open {
            tracer: self,
            id,
            parent,
            layer,
            name,
            start_ns: self.0.epoch.elapsed().as_nanos() as u64,
        }))
    }

    /// Run `f` inside a span.
    pub fn in_span<T>(&self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _guard = self.span(layer, name);
        f()
    }

    /// Take every span recorded so far.
    pub fn drain(&self) -> Vec<Span> {
        std::mem::take(&mut *self.0.spans.lock().expect("span buffer lock"))
    }
}

struct Open<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: u64,
    layer: &'static str,
    name: &'static str,
    start_ns: u64,
}

pub struct SpanGuard<'a>(Option<Open<'a>>);

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(open) = self.0.take() else { return };
        let end_ns = open.tracer.0.epoch.elapsed().as_nanos() as u64;
        CURRENT.with(|c| c.set(open.parent));
        if let Ok(mut spans) = open.tracer.0.spans.lock() {
            spans.push(Span {
                id: open.id,
                parent: open.parent,
                thread: thread_number(),
                layer: open.layer,
                name: open.name,
                start_ns: open.start_ns,
                end_ns,
            });
        }
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
pub fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0, lo);
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Self time of every span, by span id.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.remove(&s.id).unwrap_or_default();
            (s.id, s.dur_ns() - covered(kids, s.start_ns, s.end_ns))
        })
        .collect()
}

/// Total self time per layer, nanoseconds.
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let selfs = self_times(spans);
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.layer).or_insert(0) += selfs[&s.id];
    }
    out
}

/// Durations in milliseconds of every span called `layer`/`name`.
pub fn durations_ms(spans: &[Span], layer: &str, name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.layer == layer && s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect()
}

/// One JSON object per line.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"thread\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.thread, s.layer, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, layer: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            thread: 1,
            layer,
            name: "x",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // root 0..100; children 10..40 and 30..60 overlap (union 50), a
        // grandchild 15..20 sits under the first child, and one child
        // overruns its parent's end (90..120 counts as 10)
        let spans = vec![
            span(1, 0, "core", 0, 100),
            span(2, 1, "storage", 10, 40),
            span(3, 1, "storage", 30, 60),
            span(4, 2, "codec", 15, 20),
            span(5, 1, "storage", 90, 120),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 50 - 10);
        assert_eq!(selfs[&2], 30 - 5);
        assert_eq!(selfs[&3], 30);
        assert_eq!(selfs[&4], 5);
        let layers = layer_self_ns(&spans);
        assert_eq!(layers["core"], 40);
        assert_eq!(layers["storage"], 25 + 30 + 30);
        assert_eq!(layers["codec"], 5);
    }

    #[test]
    fn guards_nest_per_thread_and_record_nothing_when_off() {
        let t = Tracer::new();
        drop(t.span("core", "off"));
        assert!(t.drain().is_empty());
        t.set_enabled(true);
        {
            let _outer = t.span("core", "outer");
            t.in_span("storage", "inner", || ());
        }
        let spans = t.drain();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.parent, outer.id);
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
    }
}
