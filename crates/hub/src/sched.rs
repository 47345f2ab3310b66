//! The scheduler: the bounded job queue between the event loops and the
//! worker pool, and the overload policy.
//!
//! **Owns:** the queue, the per-connection in-flight cap, both in-flight
//! counters (per connection and hub-wide — [`InFlight`] can only be moved
//! from this file), and the one place a `Busy` frame and its
//! flight-recorder event are built.
//!
//! **May not touch:** a connection's bytes or a socket. [`Shared::submit`]
//! is handed a [`Job`] and either queues it or hands back the reply that
//! takes the job's place.
//!
//! ## Overload is an answer, not a stall
//!
//! When a pipelined connection exceeds its in-flight cap, or the shared
//! queue is full, [`Shared::submit`] refuses the job with a `Busy`
//! reply instead of queueing it. The rejection takes the request's own
//! place in the stream (its correlation id, or the next frame of an
//! untagged connection) — the stream never desynchronizes, which is what
//! makes it *lossless*: the client sees exactly one response per request
//! and can back off and retry. A refused job moves neither counter.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use deeplake_obs::FlightEvent;
use deeplake_remote::proto;

use crate::conn::ConnShared;
use crate::dispatch::{DataOp, Reply};
use crate::hub::Shared;
use crate::registry::Mounted;

/// A count of requests queued or executing. Readable anywhere; moved
/// only by [`Shared::submit`] and [`Scheduler::finish`].
#[derive(Default)]
pub(crate) struct InFlight(AtomicUsize);

impl InFlight {
    pub(crate) fn get(&self) -> usize {
        self.0.load(Ordering::Acquire)
    }
}

/// One admitted data op on its way to a pool worker.
pub(crate) struct Job {
    pub(crate) conn: Arc<ConnShared>,
    /// Correlation id the response carries back (`None` on an untagged
    /// connection, where the response is simply the next frame).
    pub(crate) id: Option<u64>,
    pub(crate) request_len: u64,
    /// The namespace snapshot taken at admission, so an `Attach` later in
    /// the pipeline cannot retroactively change it.
    pub(crate) mount: Arc<Mounted>,
    pub(crate) op: DataOp,
    /// When the event loop admitted the job — the worker's pop time
    /// minus this is the queue-wait span.
    pub(crate) enqueued_at: Instant,
    /// `(trace_id, client span id)` when the request arrived wrapped in
    /// a `Traced` frame; `None` for legacy clients.
    pub(crate) trace: Option<(u64, u64)>,
}

/// Bounded MPMC queue with non-blocking submit (overload answers `Busy`
/// instead of blocking a loop) and untimed pop (workers park on the
/// condvar until a job or the drain signal arrives — no poll tick).
pub(crate) struct Scheduler {
    queue: Mutex<VecDeque<Job>>,
    ready: Condvar,
    queue_depth: usize,
    max_inflight_per_conn: usize,
    /// Data-path requests queued or executing across every connection —
    /// `Health` reports it so a dashboard (`dltop`) can tell a loaded
    /// node from an idle one; the fleet prober only needs an answer.
    in_flight: InFlight,
    /// Workers exit once the queue is empty (set after intake stopped).
    drain: AtomicBool,
}

impl Shared {
    /// Queue `job` for the pool, or refuse it with the `Busy` reply that
    /// takes its place in the stream: over the connection's cap
    /// (pipelined connections only — an untagged one is never sliced
    /// with a request in flight) or queue full.
    pub(crate) fn submit(&self, job: Job) -> Result<(), Reply> {
        let sched = &self.sched;
        let cap = sched.max_inflight_per_conn;
        let (event, hint) = if job.conn.in_flight.get() >= cap {
            (
                format!("conn {} over in-flight cap {cap}", job.conn.token),
                format!("connection has {cap} requests in flight; back off and retry"),
            )
        } else {
            let depth = sched.queue_depth;
            let mut queue = sched.queue.lock().expect("queue lock poisoned");
            if queue.len() < depth {
                // counted before a worker can see the job, so `finish`
                // never runs ahead of this
                job.conn.in_flight.0.fetch_add(1, Ordering::AcqRel);
                sched.in_flight.0.fetch_add(1, Ordering::AcqRel);
                queue.push_back(job);
                drop(queue);
                sched.ready.notify_one();
                return Ok(());
            }
            (
                format!("worker queue of {depth} full"),
                format!("worker queue of {depth} is full; back off and retry"),
            )
        };
        self.stats.busy_rejections.inc();
        let trace_id = job.trace.map_or(0, |(id, _)| id);
        self.obs.recorder.record(FlightEvent::BUSY, trace_id, event);
        Err(Reply::new(job.id, job.request_len, proto::resp_busy(&hint)))
    }
}

impl Scheduler {
    pub(crate) fn new(queue_depth: usize, max_inflight_per_conn: usize) -> Self {
        Scheduler {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            queue_depth: queue_depth.max(1),
            max_inflight_per_conn: max_inflight_per_conn.max(1),
            in_flight: InFlight::default(),
            drain: AtomicBool::new(false),
        }
    }

    /// A job of `conn`'s has its response deposited: release its
    /// in-flight slots. Called under `conn`'s write-queue lock, so a
    /// connection that reads zero in flight finds every response in its
    /// write queue once it takes that lock, and no flush sends a
    /// response before its slots are free.
    pub(crate) fn finish(&self, conn: &ConnShared) {
        conn.in_flight.0.fetch_sub(1, Ordering::AcqRel);
        self.in_flight.0.fetch_sub(1, Ordering::AcqRel);
    }

    /// Block until a job arrives; `None` once [`Scheduler::drain`] was
    /// called and the queue is empty (no new jobs can appear after
    /// intake stopped).
    pub(crate) fn pop(&self) -> Option<Job> {
        let mut queue = self.queue.lock().expect("queue lock poisoned");
        loop {
            if let Some(job) = queue.pop_front() {
                return Some(job);
            }
            if self.drain.load(Ordering::Acquire) {
                return None;
            }
            queue = self.ready.wait(queue).expect("queue lock poisoned");
        }
    }

    /// Intake is closed on every loop: workers exit on empty. Flagged
    /// under the queue lock, so a worker is either before its check of
    /// the flag or already parked where the notification reaches it.
    pub(crate) fn drain(&self) {
        let queue = self.queue.lock().expect("queue lock poisoned");
        self.drain.store(true, Ordering::Release);
        drop(queue);
        self.ready.notify_all();
    }

    /// `(in flight, queued, queue capacity)` — point-in-time readings for
    /// `Health`.
    pub(crate) fn load(&self) -> (usize, usize, usize) {
        let queued = self.queue.lock().expect("queue lock poisoned").len();
        (self.in_flight.get(), queued, self.queue_depth)
    }
}
