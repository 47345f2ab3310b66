//! Deterministic fault injection for any [`StorageProvider`].
//!
//! The serving stack's failure-handling claims — a dead replica fails
//! over, a slow replica times out, a transient drop retries — need
//! *reproducible* faults to be testable. [`FaultPlan`] describes a fault
//! schedule ("succeed N ops then fail forever", "fail the next K ops
//! then recover", "delay every op by D"), and [`FaultProvider`] applies
//! it in front of a wrapped provider: every provider call first consults
//! the plan, pays any injected delay, and either proceeds or surfaces
//! the plan's error without touching the backing store.
//!
//! Three fault shapes cover the cluster test matrix:
//!
//! * **N-then-fail** ([`FaultPlan::fail_after`]) — a node that serves
//!   traffic normally and then dies mid-run; the failure is permanent
//!   until [`FaultProvider::heal`].
//! * **Transient** ([`FaultPlan::fail_next`]) — K dropped requests that
//!   then recover; exercises bounded retry instead of failover.
//! * **Slow replica** ([`FaultPlan::delay`]) — every op sleeps first,
//!   so a client read timeout (or a latency-pick policy) can be driven
//!   deterministically.
//!
//! Plans can also be swapped at runtime ([`FaultProvider::set_plan`],
//! [`FaultProvider::trip`]) so a test can kill a healthy replica at a
//! chosen moment. Injected failures default to a [`StorageError::Io`]
//! naming the injection — the same shape a dropped connection produces —
//! so the layers above exercise their real transport-error paths.

use std::time::Duration;

use bytes::Bytes;
use deeplake_obs::{Counter, MetricsRegistry};

use crate::error::StorageError;
use crate::plan::{ReadPlan, ReadResult};
use crate::provider::StorageProvider;
use crate::{DynProvider, Result};

/// A deterministic fault schedule. Counters are per-[`FaultProvider`]
/// (each provider call is one "op"); the plan itself is immutable state
/// that can be swapped at runtime.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Ops that succeed before failures start (`None` = never trip).
    fail_after: Option<u64>,
    /// Failures injected once tripped (`None` = fail forever).
    fail_count: Option<u64>,
    /// Delay paid by every op, failing or not (a slow replica).
    delay: Duration,
    /// The error injected failures surface.
    error: StorageError,
}

impl FaultPlan {
    /// A healthy plan: no failures, no delay.
    pub fn none() -> Self {
        FaultPlan {
            fail_after: None,
            fail_count: None,
            delay: Duration::ZERO,
            error: Self::default_error(),
        }
    }

    /// Succeed `n` ops, then fail every later op until healed — the
    /// "node dies mid-run" schedule the failover tests kill replicas
    /// with.
    pub fn fail_after(n: u64) -> Self {
        FaultPlan {
            fail_after: Some(n),
            fail_count: None,
            ..Self::none()
        }
    }

    /// Fail the next `k` ops, then recover — a transient connection
    /// drop, exercising retry rather than failover.
    pub fn fail_next(k: u64) -> Self {
        FaultPlan {
            fail_after: Some(0),
            fail_count: Some(k),
            ..Self::none()
        }
    }

    /// Pay `delay` before every op (slow replica / injected timeout).
    /// Composes with the failure schedules.
    pub fn delay(mut self, delay: Duration) -> Self {
        self.delay = delay;
        self
    }

    /// Override the injected error (default: an I/O error naming the
    /// injection, the shape of a dropped connection).
    pub fn error(mut self, error: StorageError) -> Self {
        self.error = error;
        self
    }

    fn default_error() -> StorageError {
        StorageError::Io("injected fault: connection dropped".into())
    }

    /// Outcome for the op with zero-based index `op`: `Some(err)` =
    /// inject a failure.
    fn outcome(&self, op: u64) -> Option<StorageError> {
        let tripped_at = self.fail_after?;
        if op < tripped_at {
            return None;
        }
        match self.fail_count {
            Some(k) if op >= tripped_at + k => None, // recovered
            _ => Some(self.error.clone()),
        }
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

/// A [`StorageProvider`] that applies a [`FaultPlan`] in front of a
/// wrapped provider. Failing ops never reach the backing store.
pub struct FaultProvider {
    inner: DynProvider,
    /// The schedule and the op count at which it was installed: the
    /// plan's clock starts there, while `ops` itself only ever grows.
    plan: parking_lot::Mutex<(FaultPlan, u64)>,
    ops: Counter,
    injected: Counter,
    delay_ns: Counter,
}

impl FaultProvider {
    /// Wrap `inner` under `plan`.
    pub fn new(inner: DynProvider, plan: FaultPlan) -> Self {
        FaultProvider {
            inner,
            plan: parking_lot::Mutex::new((plan, 0)),
            ops: Counter::new(),
            injected: Counter::new(),
            delay_ns: Counter::new(),
        }
    }

    /// Attach the fault counters to `registry` under `<prefix>.*`
    /// (`ops`, `faults_injected`, `injected_delay_ns`) so sim runs can
    /// read "N faults injected" from the same snapshot that reports
    /// client-visible failures.
    pub fn register_into(&self, registry: &MetricsRegistry, prefix: &str) {
        registry.register_counter(&format!("{prefix}.ops"), &self.ops);
        registry.register_counter(&format!("{prefix}.faults_injected"), &self.injected);
        registry.register_counter(&format!("{prefix}.injected_delay_ns"), &self.delay_ns);
    }

    /// Replace the schedule. The new plan's clock starts here:
    /// `fail_after(n)` installed now counts `n` ops from this call.
    pub fn set_plan(&self, plan: FaultPlan) {
        let mut guard = self.plan.lock();
        *guard = (plan, self.ops.get());
    }

    /// Fail every op from now on — "pull the plug" on a healthy replica
    /// at a moment the test chooses.
    pub fn trip(&self) {
        self.set_plan(FaultPlan::fail_after(0));
    }

    /// Back to healthy.
    pub fn heal(&self) {
        self.set_plan(FaultPlan::none());
    }

    /// Ops that reached the provider (injected failures included).
    pub fn ops_seen(&self) -> u64 {
        self.ops.get()
    }

    /// Failures injected so far.
    pub fn faults_injected(&self) -> u64 {
        self.injected.get()
    }

    /// Total injected delay paid so far, in nanoseconds.
    pub fn injected_delay_ns(&self) -> u64 {
        self.delay_ns.get()
    }

    /// The wrapped provider (bypasses the plan — for test assertions).
    pub fn inner(&self) -> &DynProvider {
        &self.inner
    }

    /// Consult the plan for one op: pay the delay, then either pass or
    /// surface the injected error.
    fn gate(&self) -> Result<()> {
        let (delay, outcome) = {
            let guard = self.plan.lock();
            let (plan, installed_at) = &*guard;
            // the plan lock serializes gates, so read-then-add is one
            // atomic op-number draw
            let op = self.ops.get();
            self.ops.add(1);
            (plan.delay, plan.outcome(op - installed_at))
        };
        if !delay.is_zero() {
            self.delay_ns
                .add(delay.as_nanos().min(u64::MAX as u128) as u64);
            std::thread::sleep(delay);
        }
        match outcome {
            None => Ok(()),
            Some(err) => {
                self.injected.inc();
                Err(err)
            }
        }
    }
}

impl StorageProvider for FaultProvider {
    fn get(&self, key: &str) -> Result<Bytes> {
        self.gate()?;
        self.inner.get(key)
    }

    fn get_range(&self, key: &str, start: u64, end: u64) -> Result<Bytes> {
        self.gate()?;
        self.inner.get_range(key, start, end)
    }

    fn put(&self, key: &str, value: Bytes) -> Result<()> {
        self.gate()?;
        self.inner.put(key, value)
    }

    fn delete(&self, key: &str) -> Result<()> {
        self.gate()?;
        self.inner.delete(key)
    }

    fn exists(&self, key: &str) -> Result<bool> {
        self.gate()?;
        self.inner.exists(key)
    }

    fn len_of(&self, key: &str) -> Result<u64> {
        self.gate()?;
        self.inner.len_of(key)
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        self.gate()?;
        self.inner.list(prefix)
    }

    fn describe(&self) -> String {
        format!("faulted({})", self.inner.describe())
    }

    /// One batched call is one op: a tripped plan fails every slot (the
    /// connection died, not one object), matching the remote client's
    /// batch-wide transport-error behaviour.
    fn execute(&self, plan: &ReadPlan) -> ReadResult {
        match self.gate() {
            Ok(()) => self.inner.execute(plan),
            Err(e) => ReadResult {
                results: plan.requests().iter().map(|_| Err(e.clone())).collect(),
                fetches: 0,
            },
        }
    }

    fn delete_prefix(&self, prefix: &str) -> Result<()> {
        self.gate()?;
        self.inner.delete_prefix(prefix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MemoryProvider;
    use crate::plan::ReadRequest;
    use std::sync::Arc;
    use std::time::Instant;

    fn faulted(plan: FaultPlan) -> FaultProvider {
        let inner = MemoryProvider::new();
        inner.put("k", Bytes::from_static(b"v")).unwrap();
        FaultProvider::new(Arc::new(inner), plan)
    }

    #[test]
    fn healthy_plan_passes_everything_through() {
        let p = faulted(FaultPlan::none());
        for _ in 0..10 {
            assert_eq!(p.get("k").unwrap(), Bytes::from_static(b"v"));
        }
        assert_eq!(p.faults_injected(), 0);
        assert_eq!(p.ops_seen(), 10);
    }

    #[test]
    fn n_then_fail_is_permanent() {
        let p = faulted(FaultPlan::fail_after(3));
        for _ in 0..3 {
            assert!(p.get("k").is_ok());
        }
        for _ in 0..5 {
            assert!(matches!(p.get("k"), Err(StorageError::Io(_))));
        }
        assert_eq!(p.faults_injected(), 5);
        // writes are gated too, and never reach the backing store
        assert!(p.put("new", Bytes::from_static(b"x")).is_err());
        assert!(!p.inner().exists("new").unwrap());
    }

    #[test]
    fn transient_faults_recover() {
        let p = faulted(FaultPlan::fail_next(2));
        assert!(p.get("k").is_err());
        assert!(p.get("k").is_err());
        assert!(p.get("k").is_ok(), "plan recovers after k failures");
        assert_eq!(p.faults_injected(), 2);
    }

    #[test]
    fn batched_calls_fail_every_slot() {
        let p = faulted(FaultPlan::fail_after(0));
        let reqs = [ReadRequest::whole("k"), ReadRequest::range("k", 0, 1)];
        for slot in p.get_many(&reqs) {
            assert!(matches!(slot, Err(StorageError::Io(_))));
        }
        let mut plan = ReadPlan::new();
        plan.whole("k");
        let out = p.execute(&plan);
        assert_eq!(out.fetches, 0);
        assert!(out.results.iter().all(|r| r.is_err()));
    }

    #[test]
    fn delay_is_paid_even_on_success() {
        let p = faulted(FaultPlan::none().delay(Duration::from_millis(5)));
        let t = Instant::now();
        for _ in 0..4 {
            p.get("k").unwrap();
        }
        assert!(t.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn trip_and_heal_at_runtime() {
        let p = faulted(FaultPlan::none());
        assert!(p.get("k").is_ok());
        p.trip();
        assert!(p.get("k").is_err());
        p.heal();
        assert!(p.get("k").is_ok());
        assert_eq!(
            p.ops_seen(),
            3,
            "a new plan restarts its clock, not the count"
        );
    }

    #[test]
    fn custom_errors_surface_verbatim() {
        let p = faulted(FaultPlan::fail_after(0).error(StorageError::Busy("drowning".into())));
        assert_eq!(
            p.get("k").unwrap_err(),
            StorageError::Busy("drowning".into())
        );
    }
}
