//! The dispatcher: what one request frame becomes.
//!
//! **Owns:** [`admit`] — decode a frame in the buffer it arrived in, peel
//! the trace envelope, and take the single `match` that classifies every
//! opcode:
//!
//! 1. a cheap, order-sensitive control op (`Hello`, `Attach`, registry
//!    management — [`control`]) is answered inline;
//! 2. a `Query` whose exact text the result cache already knows is
//!    answered inline too ([`query::cached_answer`]);
//! 3. every other data op becomes a [`Job`] for the pool.
//!
//! — the two places a response is committed: [`serve_frames`] (the
//! loop's admission path) and [`run_job`] (a worker's completion path) —
//! and the worker's side of the storage path: answering one [`DataOp`]
//! against the mount resolved at admission, invalidating what a routed
//! write makes stale, and the `hub.read_ns` / slow-log accounting of the
//! batched reads.
//!
//! **May not touch:** a socket or the poller. [`serve_frames`] moves a
//! [`Conn`]'s buffered frames through [`admit`] and the
//! scheduler ([`Shared::submit`]); the driver only feeds the
//! `Conn` bytes before and writes its queue out after, so a test drives
//! the whole request path with byte slices.
//!
//! Ten thousand idle connections cost ten thousand *registrations*
//! instead of ten thousand parked OS threads, and storage/query
//! concurrency never exceeds the pool size, because only branch 3 leaves
//! the loop.

pub(crate) mod control;
mod query;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use deeplake_obs::{sec_of, SpanTimer};
use deeplake_remote::proto::{self, Request};
use deeplake_storage::{
    ReadPlan, ReadRequest, ReadResult, StorageError, StorageProvider, TimingProvider,
};
use deeplake_tql::QueryOptions;

use crate::cache::Frame;
use crate::conn::{Conn, ConnShared, Fatal};
use crate::hub::Shared;
use crate::registry::Mounted;
use crate::sched::{Job, Scheduler};

/// One response on its way to a connection's write queue.
pub(crate) struct Reply {
    /// Correlation id (`None` on an untagged connection).
    pub(crate) id: Option<u64>,
    pub(crate) request_len: u64,
    pub(crate) frame: Frame,
    /// A data-path answer (cache hit or worker completion): its flush
    /// span, running since the answer was ready, closes when the deposit
    /// is done and is recorded into `hub.flush_ns`.
    flush: Option<SpanTimer>,
}

impl Reply {
    /// A loop-side answer that is not a query's: not timed.
    pub(crate) fn new(id: Option<u64>, request_len: u64, frame: Vec<u8>) -> Self {
        Reply {
            id,
            request_len,
            frame: frame.into(),
            flush: None,
        }
    }
}

/// A data op as a pool worker receives it: the requests [`admit`] sends
/// to the pool, and nothing else.
pub(crate) enum DataOp {
    /// `(reference, text, options)`.
    Query(String, String, QueryOptions),
    Get(String),
    GetRange(String, u64, u64),
    Put(String, Bytes),
    Delete(String),
    Exists(String),
    LenOf(String),
    List(String),
    DeletePrefix(String),
    Execute(u64, Vec<ReadRequest>),
}

/// What the loop does with one frame.
pub(crate) enum Admission {
    /// Answered on the loop; the reply takes the request's slot.
    Reply(Reply),
    /// A version-mismatched `Hello`: an incompatible client's later
    /// frames could decode to nonsense, so the lossless rejection is the
    /// last frame this connection gets.
    ReplyThenClose(Reply),
    /// `Pipeline`: the acknowledgement goes out untagged; every later
    /// frame both ways carries a correlation id.
    ReplyThenPipeline(Reply),
    /// A data op for the pool.
    Run(Job),
    /// A pipelined frame too short for its id cannot be answered under
    /// any id: fail the connection.
    Fatal,
}

/// Decide one complete frame. `payload` is decoded where it lies, so the
/// only bytes copied are the ones a queued [`Job`] must own: a `Query`'s
/// strings are borrowed from the frame ([`proto::borrow_query`]) and
/// copied only when it becomes a job.
pub(crate) fn admit(
    shared: &Shared,
    conn: &Arc<ConnShared>,
    pipelined: bool,
    payload: &[u8],
) -> Admission {
    let request_len = payload.len() as u64;
    let (id, body) = if pipelined {
        match proto::split_tagged(payload) {
            Some((id, body)) => (Some(id), body),
            None => return Admission::Fatal,
        }
    } else {
        (None, payload)
    };
    let reply = |frame: Vec<u8>| Reply::new(id, request_len, frame);
    let inline = |frame: Vec<u8>| Admission::Reply(reply(frame));
    if let Some(query) = proto::borrow_query(body) {
        let mount = match control::attached_mount(shared, conn) {
            Ok(mount) => mount,
            Err(refusal) => return inline(refusal),
        };
        // a query whose exact text a worker has canonicalized before is
        // answered here and now: no job, no queue, no worker, no wake-up,
        // no in-flight slot (so never `Busy`), no allocation
        if let Some((frame, flush)) = query::cached_answer(shared, &mount, &query) {
            return Admission::Reply(Reply {
                id,
                request_len,
                frame,
                flush: Some(flush),
            });
        }
        let op = DataOp::Query(query.reference.into(), query.text.into(), query.options);
        return Admission::Run(job(conn, id, request_len, mount, op, query.trace));
    }
    let request = match proto::decode_request(body) {
        Ok(r) => r,
        Err(e) => return inline(proto::resp_proto_err(&e.to_string())),
    };
    // peel the additive trace envelope: the inner request is dispatched
    // exactly as an untraced one, the ids ride along on the job
    let (trace, request) = match request {
        Request::Traced {
            trace_id,
            parent_span,
            inner,
        } => (Some((trace_id, parent_span)), *inner),
        other => (None, other),
    };
    let op = match request {
        Request::Ping => return inline(proto::resp_unit()),
        Request::Hello { version } if version == proto::PROTO_VERSION => {
            return inline(proto::hello_response(version))
        }
        Request::Hello { version } => {
            return Admission::ReplyThenClose(reply(proto::hello_response(version)))
        }
        Request::Pipeline => return Admission::ReplyThenPipeline(reply(proto::resp_unit())),
        Request::Attach { dataset } => return inline(control::attach(shared, conn, dataset)),
        Request::Mount { dataset } => {
            let outcome = control::wire_mount(shared, dataset);
            return inline(answer(outcome, |()| proto::resp_unit()));
        }
        Request::Unmount { dataset } => {
            control::unmount(shared, &dataset);
            return inline(proto::resp_unit());
        }
        Request::ListDatasets => return inline(proto::resp_list(&shared.registry.list())),
        Request::Describe => return inline(control::describe(shared, conn)),
        Request::WhereIs { dataset } => return inline(control::where_is(shared, &dataset)),
        Request::Metrics => return inline(proto::resp_metrics(&shared.obs.snapshot())),
        Request::Health => return inline(proto::resp_health(&control::health(shared))),
        // `decode_request` refuses an envelope inside an envelope
        Request::Traced { .. } => return inline(proto::resp_proto_err("nested traced frame")),
        Request::Query {
            reference,
            text,
            options,
        } => DataOp::Query(reference, text, options),
        Request::Get { key } => DataOp::Get(key),
        Request::GetRange { key, start, end } => DataOp::GetRange(key, start, end),
        Request::Put { key, value } => DataOp::Put(key, value),
        Request::Delete { key } => DataOp::Delete(key),
        Request::Exists { key } => DataOp::Exists(key),
        Request::LenOf { key } => DataOp::LenOf(key),
        Request::List { prefix } => DataOp::List(prefix),
        Request::DeletePrefix { prefix } => DataOp::DeletePrefix(prefix),
        Request::Execute {
            gap_tolerance,
            requests,
        } => DataOp::Execute(gap_tolerance, requests),
    };
    // a data op: resolve the namespace snapshot now, so an `Attach` later
    // in the pipeline cannot retroactively change it
    let mount = match control::attached_mount(shared, conn) {
        Ok(mount) => mount,
        Err(refusal) => return inline(refusal),
    };
    Admission::Run(job(conn, id, request_len, mount, op, trace))
}

/// A data op for the pool, stamped with its enqueue time.
fn job(
    conn: &Arc<ConnShared>,
    id: Option<u64>,
    request_len: u64,
    mount: Arc<Mounted>,
    op: DataOp,
    trace: Option<(u64, u64)>,
) -> Job {
    Job {
        conn: conn.clone(),
        id,
        request_len,
        mount,
        op,
        enqueued_at: Instant::now(),
        trace,
    }
}

impl Shared {
    /// Commit `reply` onto `conn`'s write queue and account it; a
    /// worker's reply also `release`s its job's in-flight slots. One
    /// clock reading, taken when the deposit is done, closes the flush
    /// span and files the bytes under its second.
    fn deposit(&self, conn: &ConnShared, reply: Reply, release: Option<&Scheduler>) {
        let deposited = conn.deposit(reply.id, reply.frame, release);
        let done = Instant::now();
        if let Some((wire_len, buffered)) = deposited {
            self.stats.peak_conn_buffered.record_max(buffered as u64);
            self.stats.requests.inc();
            self.obs
                .bytes_out_rate
                .add_at(wire_len as u64, sec_of(done));
            self.stats
                .wire
                .record_wire(reply.request_len + 4, wire_len as u64);
        }
        if let Some(flush) = reply.flush {
            flush.record_until(done, &self.obs.flush);
        }
    }
}

/// The loop's admission path: slice every frame `conn` holds and may
/// admit now, and answer or queue each. Returns whether any was sliced;
/// `Err` when the connection must be cut.
pub(crate) fn serve_frames(shared: &Shared, conn: &mut Conn) -> Result<bool, Fatal> {
    let mut sliced = false;
    while let Some(frame) = conn.next_frame()? {
        sliced = true;
        let admission = admit(shared, &conn.shared, conn.pipelined, conn.payload(frame));
        let reply = match admission {
            Admission::Fatal => return Err(Fatal),
            Admission::Run(job) => match shared.submit(job) {
                Ok(()) => continue,
                Err(busy) => busy,
            },
            Admission::ReplyThenClose(reply) => {
                conn.close_intake();
                reply
            }
            Admission::ReplyThenPipeline(reply) => {
                conn.pipelined = true;
                reply
            }
            Admission::Reply(reply) => reply,
        };
        shared.deposit(&conn.shared, reply, None);
    }
    Ok(sliced)
}

/// A worker's completion path: execute `job`, commit its response, then
/// release its in-flight slots. Returns the connection whose loop is
/// owed a flush wake-up. A job that panics (a provider's bug, say) is
/// answered with an error frame and counted in `hub.panics`; the worker
/// and the connection live on.
pub(crate) fn run_job(shared: &Shared, job: Job) -> Arc<ConnShared> {
    let queue_wait_ns = job.enqueued_at.elapsed().as_nanos() as u64;
    shared.obs.queue_wait.record(queue_wait_ns);
    let ctx = JobCtx {
        queue_wait_ns,
        trace: job.trace,
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| run(shared, &job.mount, job.op, &ctx)));
    let frame = outcome.unwrap_or_else(|panic| {
        shared.stats.panics.inc();
        let what = (panic.downcast_ref::<&str>().copied())
            .or(panic.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("a non-text payload");
        proto::resp_storage_err(&StorageError::Io(format!("request panicked: {what}"))).into()
    });
    let reply = Reply {
        id: job.id,
        request_len: job.request_len,
        frame,
        flush: Some(SpanTimer::start()),
    };
    shared.deposit(&job.conn, reply, Some(&shared.sched));
    job.conn
}

/// Per-job observability context a worker threads into the data path.
struct JobCtx {
    queue_wait_ns: u64,
    trace: Option<(u64, u64)>,
}

/// `ok`'s frame for a success, the lossless storage-error frame
/// otherwise.
fn answer<T>(outcome: Result<T, StorageError>, ok: impl FnOnce(T) -> Vec<u8>) -> Vec<u8> {
    match outcome {
        Ok(v) => ok(v),
        Err(e) => proto::resp_storage_err(&e),
    }
}

/// A write was routed into `mount` (whatever its outcome, a `put` or a
/// delete): forget head memos and handles (and after a delete renumber
/// the mount's parsed chunks), and drop cached results that were computed
/// against a mutable tip. Entries pinned to committed versions survive
/// (committed nodes are immutable).
fn written(shared: &Shared, mount: &Mounted, done: Result<(), StorageError>, put: bool) -> Vec<u8> {
    mount.written(put);
    shared.cache.invalidate_mutable(&mount.name);
    answer(done, |()| proto::resp_unit())
}

/// Answer a data op against the resolved mount, on a pool worker.
fn run(shared: &Shared, mount: &Arc<Mounted>, op: DataOp, ctx: &JobCtx) -> Frame {
    let p = &mount.provider;
    let response = match op {
        DataOp::Query(reference, text, options) => {
            return query::handle_query(shared, mount, &reference, &text, options, ctx)
        }
        DataOp::Get(key) => answer(p.get(&key), |data| proto::resp_bytes(&data)),
        DataOp::GetRange(key, start, end) => answer(p.get_range(&key, start, end), |data| {
            proto::resp_bytes(&data)
        }),
        DataOp::Put(key, value) => written(shared, mount, p.put(&key, value), true),
        DataOp::Delete(key) => written(shared, mount, p.delete(&key), false),
        DataOp::Exists(key) => answer(p.exists(&key), proto::resp_bool),
        DataOp::LenOf(key) => answer(p.len_of(&key), proto::resp_u64),
        DataOp::List(prefix) => answer(p.list(&prefix), |keys| proto::resp_list(&keys)),
        DataOp::DeletePrefix(prefix) => written(shared, mount, p.delete_prefix(&prefix), false),
        DataOp::Execute(gap_tolerance, requests) => {
            let mut plan = ReadPlan::with_gap_tolerance(gap_tolerance);
            for r in requests {
                plan.push(r);
            }
            let outcome = timed_execute(shared, mount, ctx, &plan);
            proto::resp_execute(outcome.fetches, &outcome.results)
        }
    };
    response.into()
}

/// Run one `Execute` against the mount and account it: service time
/// into `hub.read_ns`, and — when the op is over the slow threshold — a
/// slow-log entry shaped exactly like a query's (see
/// [`query::log_slow`]). This is what connects a loader worker's fetch
/// span to the hub stages that served it: the loader sends its fetch
/// `Execute` under an ambient trace context, and the entry's
/// `parent_span` is that fetch span's id.
fn timed_execute(
    shared: &Shared,
    mount: &Arc<Mounted>,
    ctx: &JobCtx,
    plan: &ReadPlan,
) -> ReadResult {
    let timed = TimingProvider::new(mount.provider.clone());
    let exec = SpanTimer::start();
    let out = timed.execute(plan);
    let execute_ns = exec.record(&shared.obs.read);
    let total_ns = ctx.queue_wait_ns + execute_ns;
    if total_ns >= shared.opts.slow_query_threshold.as_nanos() as u64 {
        let stages = [
            ("queue_wait", ctx.queue_wait_ns),
            ("execute", execute_ns),
            ("storage", timed.nanos()),
        ];
        let text = format!("EXECUTE {} ranges", plan.len());
        query::log_slow(shared, mount, ctx, String::new(), text, total_ns, &stages);
    }
    out
}
