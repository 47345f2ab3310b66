//! The backing store every timed path runs on: a `MemoryProvider` (no
//! disk, no flush policy to state) behind a wrapper that opens a
//! `storage` span around each call. Counts come from the
//! `MemoryProvider`'s own `StorageStats`.

use std::sync::Arc;

use bytes::Bytes;
use deeplake_storage::{
    DynProvider, MemoryProvider, ReadPlan, ReadRequest, ReadResult, Result, StorageProvider,
    StorageStatsSnapshot,
};

use crate::spans::Tracer;

pub struct SpanProvider {
    inner: Arc<MemoryProvider>,
    tracer: Tracer,
}

impl SpanProvider {
    pub fn new(tracer: &Tracer) -> Arc<Self> {
        Arc::new(SpanProvider {
            inner: Arc::new(MemoryProvider::new()),
            tracer: tracer.clone(),
        })
    }

    pub fn dyn_provider(self: &Arc<Self>) -> DynProvider {
        self.clone()
    }

    pub fn stats(&self) -> StorageStatsSnapshot {
        self.inner.stats().snapshot()
    }

    /// Bytes the store holds now.
    pub fn stored_bytes(&self) -> u64 {
        self.inner.total_bytes()
    }
}

impl StorageProvider for SpanProvider {
    fn get(&self, key: &str) -> Result<Bytes> {
        self.tracer
            .in_span("storage", "get", || self.inner.get(key))
    }

    fn get_range(&self, key: &str, start: u64, end: u64) -> Result<Bytes> {
        self.tracer.in_span("storage", "get_range", || {
            self.inner.get_range(key, start, end)
        })
    }

    fn put(&self, key: &str, value: Bytes) -> Result<()> {
        self.tracer
            .in_span("storage", "put", || self.inner.put(key, value))
    }

    fn delete(&self, key: &str) -> Result<()> {
        self.tracer
            .in_span("storage", "delete", || self.inner.delete(key))
    }

    fn exists(&self, key: &str) -> Result<bool> {
        self.tracer
            .in_span("storage", "exists", || self.inner.exists(key))
    }

    fn len_of(&self, key: &str) -> Result<u64> {
        self.tracer
            .in_span("storage", "len_of", || self.inner.len_of(key))
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        self.tracer
            .in_span("storage", "list", || self.inner.list(prefix))
    }

    fn describe(&self) -> String {
        format!("dlbench-spans({})", self.inner.describe())
    }

    fn get_many(&self, requests: &[ReadRequest]) -> Vec<Result<Bytes>> {
        self.tracer
            .in_span("storage", "get_many", || self.inner.get_many(requests))
    }

    fn execute(&self, plan: &ReadPlan) -> ReadResult {
        self.tracer
            .in_span("storage", "execute", || self.inner.execute(plan))
    }

    fn delete_prefix(&self, prefix: &str) -> Result<()> {
        self.tracer.in_span("storage", "delete_prefix", || {
            self.inner.delete_prefix(prefix)
        })
    }
}
