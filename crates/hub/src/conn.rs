//! One connection as a pure state machine: bytes in → frames out,
//! responses in → unwritten slices out.
//!
//! **Owns:** the read accumulator and the frame slicer with its three
//! pauses, the switch to correlation-id framing, the one closed-intake
//! flag, the outbound queue ([`OutState`], [`OutFrame`],
//! [`ConnShared::deposit`]), and the three decisions the driver acts on:
//! which readiness to ask the poller for ([`Conn::interest`]), whether
//! the peer owes progress and until when ([`Conn::rearm`]), and whether
//! the connection is done ([`Conn::finished`]).
//!
//! **May not touch:** a socket, a poller or a clock — no `net`, no
//! readiness API, and time only as the `now` the driver passes in. The
//! driver feeds it the bytes it read and asks it what to write, so the
//! same code runs from a test with byte slices and a hand-advanced `now`.
//!
//! ## The three pauses
//!
//! [`Conn::next_frame`] slices nothing while any of these holds, however
//! many complete frames are buffered:
//!
//! 1. **Outbound back-pressure.** Workers never touch sockets: a finished
//!    response is deposited here and written by the owning loop, so a
//!    peer that stops draining can never pin a pool worker. Its queue is
//!    bounded instead: past `conn_buffer_bytes` of responses committed
//!    but unwritten no further request is admitted (so no further
//!    response accrues) and read interest is dropped.
//! 2. **Request/response order.** An untagged connection with a data op
//!    queued or executing waits for that response: admission order *is*
//!    response order, with nothing to reorder. Once bytes of a next
//!    request are buffered behind it read interest is dropped too — a
//!    request/response peer never sends those, and a peer that does is
//!    held back by TCP instead of by this process's memory. A connection
//!    switched to pipelined framing (`Request::Pipeline`) carries
//!    correlation ids instead and is never paused by this.
//! 3. **Intake closed** — by a clean EOF (frames already received are
//!    still served), or for good by [`Conn::close_intake`] (hub shutdown,
//!    a version-mismatch rejection): bytes a pause left unparsed are
//!    dropped, so no request is admitted after it.
//!
//! A connection is *stalled* while the peer owes progress — responses
//! partly written, or a frame partly read — but not while its next frame
//! waits on the hub's own answer; one that stays stalled for
//! `stall_timeout` without moving a byte is cut by the driver.

use std::collections::VecDeque;
use std::io::{ErrorKind, IoSlice};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use deeplake_remote::proto;
use parking_lot::Mutex;

use crate::cache::Frame;
use crate::sched::{InFlight, Scheduler};

/// One committed response as it goes on the wire: the `[len][id]` head
/// built at deposit time, then the response body — the very allocation
/// the result cache holds when the response is a cache hit.
pub(crate) struct OutFrame {
    head: [u8; 12],
    /// 4 on an untagged connection, 12 with a correlation id.
    head_len: usize,
    body: Frame,
}

impl OutFrame {
    pub(crate) fn new(id: Option<u64>, body: Frame) -> Self {
        let tag_len = if id.is_some() { 8 } else { 0 };
        let mut head = [0u8; 12];
        head[..4].copy_from_slice(&((body.len() + tag_len) as u32).to_le_bytes());
        head[4..].copy_from_slice(&id.unwrap_or(0).to_le_bytes());
        OutFrame {
            head,
            head_len: 4 + tag_len,
            body,
        }
    }

    fn len(&self) -> usize {
        self.head_len + self.body.len()
    }
}

/// Outbound side of one connection. Workers and the loop's own inline
/// answers deposit here; only the owning event loop performs socket
/// writes.
#[derive(Default)]
pub(crate) struct OutState {
    /// Committed responses not yet fully written to the socket.
    wbuf: VecDeque<OutFrame>,
    /// Bytes of `wbuf.front()` (head, then body) already written.
    woff: usize,
    /// Total unwritten bytes across `wbuf` — every response byte the
    /// connection holds in memory, and what admission and read interest
    /// are capped on.
    buffered: usize,
}

impl OutState {
    fn push(&mut self, frame: OutFrame) {
        self.buffered += frame.len();
        self.wbuf.push_back(frame);
    }

    /// Whether every committed byte has been written.
    pub(crate) fn is_empty(&self) -> bool {
        self.wbuf.is_empty()
    }

    /// The unwritten bytes, oldest first, as the slices they live in.
    fn unwritten(&self) -> impl Iterator<Item = &[u8]> {
        // only the front frame is partly written: `skip` runs out inside it
        let mut skip = self.woff;
        self.wbuf
            .iter()
            .flat_map(|f| [&f.head[..f.head_len], &f.body[..]])
            .filter_map(move |s| {
                let cut = skip.min(s.len());
                skip -= cut;
                (cut < s.len()).then(|| &s[cut..])
            })
    }

    /// Account `n` more bytes as written: drop the frames they complete
    /// and leave `woff` inside the new front frame.
    fn consume(&mut self, n: usize) {
        self.buffered -= n;
        let mut at = self.woff + n;
        while let Some(front) = self.wbuf.front() {
            if at < front.len() {
                break;
            }
            at -= front.len();
            self.wbuf.pop_front();
        }
        debug_assert!(at == 0 || !self.wbuf.is_empty(), "consumed past the queue");
        self.woff = at;
    }
}

/// The slice of connection state shared with pool workers. The socket
/// lives in the driver, the read side in the loop-private [`Conn`].
#[derive(Default)]
pub(crate) struct ConnShared {
    pub(crate) token: u64,
    /// Which event loop owns the socket (workers wake it to flush).
    pub(crate) loop_idx: usize,
    pub(crate) out: Mutex<OutState>,
    /// Requests queued or executing for this connection; moved only by
    /// the [`Scheduler`](crate::sched::Scheduler).
    pub(crate) in_flight: InFlight,
    /// Dataset this connection attached to (`None` = default mount).
    pub(crate) attached: Mutex<Option<String>>,
    /// Set when the loop disconnects; deposits become no-ops.
    dead: AtomicBool,
    /// Coalesces flush wakeups: at most one `Flush` message in flight.
    pub(crate) flush_queued: AtomicBool,
}

impl ConnShared {
    pub(crate) fn new(token: u64, loop_idx: usize) -> Arc<Self> {
        Arc::new(ConnShared {
            token,
            loop_idx,
            ..ConnShared::default()
        })
    }

    /// Commit one response onto the write queue — tagged with `id` on a
    /// pipelined connection. The body is queued as it is, never copied;
    /// the socket write happens later, on the owning event loop. Returns
    /// `(wire bytes of this response, bytes now buffered)`, or `None`
    /// when the connection is gone and the response was dropped.
    /// `release` frees a worker's in-flight slots under the lock a flush
    /// takes, so no peer reads an answer whose request still counts
    /// against the connection's cap.
    pub(crate) fn deposit(
        &self,
        id: Option<u64>,
        body: Frame,
        release: Option<&Scheduler>,
    ) -> Option<(usize, usize)> {
        let frame = OutFrame::new(id, body);
        let wire_len = frame.len();
        let mut out = self.out.lock();
        release.inspect(|sched| sched.finish(self));
        if self.dead.load(Ordering::Acquire) {
            return None;
        }
        out.push(frame);
        Some((wire_len, out.buffered))
    }

    /// The loop disconnected: drop what is queued and turn every later
    /// deposit into a no-op.
    pub(crate) fn kill(&self) {
        self.dead.store(true, Ordering::Release);
        *self.out.lock() = OutState::default();
    }
}

/// Most slices one flush hands to `writev` (head and body of 32 queued
/// responses); far below the kernel's `IOV_MAX` of 1024.
const FLUSH_IOV: usize = 64;

/// A violation the stream cannot recover from (a length header over
/// [`proto::MAX_FRAME`], a pipelined frame too short for its id, a
/// write the peer's socket refused): the connection is cut.
#[derive(Debug)]
pub(crate) struct Fatal;

/// Loop-private side of one connection: the read accumulator and the
/// framing state machine.
pub(crate) struct Conn {
    pub(crate) shared: Arc<ConnShared>,
    /// `HubOptions::conn_buffer_bytes`.
    buffer_cap: usize,
    /// Accumulated inbound bytes; complete frames are sliced off the
    /// front. Grows only with bytes actually received.
    rbuf: Vec<u8>,
    /// Slice offset into `rbuf` (compacted when a pass ends).
    rpos: usize,
    /// Switched to correlation-id framing via `Request::Pipeline`: every
    /// later frame, both ways, carries a correlation id.
    pub(crate) pipelined: bool,
    /// No further bytes will be read, and the connection is finished
    /// once every response it is owed has been written.
    intake_closed: bool,
    /// Intake was closed for good while the peer was mid-conversation —
    /// a request of its buffered, in flight or unanswered — so it may
    /// still be sending: the driver closes in stages ([`Conn::lingers`]).
    linger: bool,
    /// A byte moved (read, sliced or written) since the last `rearm`.
    progress: bool,
    /// Stall deadline currently held; progress re-arms it.
    armed: Option<Instant>,
}

impl Conn {
    pub(crate) fn new(shared: Arc<ConnShared>, buffer_cap: usize) -> Self {
        Conn {
            shared,
            buffer_cap,
            rbuf: Vec::new(),
            rpos: 0,
            pipelined: false,
            intake_closed: false,
            linger: false,
            progress: false,
            armed: None,
        }
    }

    /// Bytes the driver read off the socket. Once intake is closed they
    /// are dropped: nothing is admitted after that, whatever arrives.
    pub(crate) fn feed(&mut self, bytes: &[u8]) {
        if !self.intake_closed {
            self.rbuf.extend_from_slice(bytes);
            self.progress |= !bytes.is_empty();
        }
    }

    /// The peer is done sending: requests already received are still
    /// sliced and answered, then the connection is finished.
    pub(crate) fn eof(&mut self) {
        self.intake_closed = true;
    }

    /// Close intake for good: nothing further is admitted, and bytes
    /// already buffered but not yet sliced are dropped — a later pass
    /// must not admit them.
    pub(crate) fn close_intake(&mut self) {
        self.linger |= !self.intake_closed
            && (self.rpos < self.rbuf.len()
                || self.shared.in_flight.get() > 0
                || !self.shared.out.lock().is_empty());
        self.rbuf.clear();
        self.rpos = 0;
        self.intake_closed = true;
    }

    /// Whether a [`finished`](Self::finished) connection must close in
    /// stages (RFC 9112 §9.6): its intake was closed while the peer was
    /// mid-conversation, so request bytes may still be in flight towards
    /// us. Closing a socket with unread bytes makes the kernel send a
    /// reset, which can destroy answers the peer has received but not yet
    /// read; so the driver half-closes instead (the peer reads every
    /// answer, then EOF), reads and drops whatever still arrives until
    /// the peer's own EOF, a quiet spell or the stall deadline, and only
    /// then closes. A peer that was idle when intake closed has nothing
    /// in flight and is closed at once.
    pub(crate) fn lingers(&self) -> bool {
        self.linger
    }

    /// An untagged connection with a data op queued or executing: its
    /// next frame waits for that response.
    fn awaiting_response(&self) -> bool {
        !self.pipelined && self.shared.in_flight.get() > 0
    }

    /// The next complete frame's place in the accumulator
    /// ([`Conn::payload`] borrows it), or `None` when bytes run out or a
    /// pause holds — which also ends the pass: sliced bytes are compacted
    /// away and earlier ranges are void.
    pub(crate) fn next_frame(&mut self) -> Result<Option<Range<usize>>, Fatal> {
        let paused = self.shared.out.lock().buffered >= self.buffer_cap || self.awaiting_response();
        if let (false, Some(header)) = (paused, self.rbuf.get(self.rpos..self.rpos + 4)) {
            let len = u32::from_le_bytes(header.try_into().expect("4 bytes sliced")) as usize;
            if len > proto::MAX_FRAME {
                return Err(Fatal); // lying header: the stream cannot resync
            }
            let payload = self.rpos + 4..self.rpos + 4 + len;
            if payload.end <= self.rbuf.len() {
                self.rpos = payload.end;
                self.progress = true;
                return Ok(Some(payload));
            }
        }
        self.rbuf.drain(..self.rpos);
        self.rpos = 0;
        Ok(None)
    }

    /// The bytes of a frame [`Conn::next_frame`] just returned: the
    /// request is decoded from this borrow, in the buffer it arrived in.
    pub(crate) fn payload(&self, frame: Range<usize>) -> &[u8] {
        &self.rbuf[frame]
    }

    /// Hand the unwritten bytes to `write` (a nonblocking vectored write)
    /// until the queue is empty or it would block: everything queued (up
    /// to [`FLUSH_IOV`] slices a call) leaves in one call, so the
    /// responses of one pass cost one syscall, not one each. Returns
    /// whether any byte was written.
    pub(crate) fn flush(
        &mut self,
        mut write: impl FnMut(&[IoSlice<'_>]) -> std::io::Result<usize>,
    ) -> Result<bool, Fatal> {
        let mut out = self.shared.out.lock();
        let before = out.buffered;
        while !out.is_empty() {
            let mut iov = [IoSlice::new(&[]); FLUSH_IOV];
            let mut filled = 0;
            for (slot, bytes) in iov.iter_mut().zip(out.unwritten()) {
                *slot = IoSlice::new(bytes);
                filled += 1;
            }
            match write(&iov[..filled]) {
                Ok(0) => return Err(Fatal),
                Ok(n) => out.consume(n),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return Err(Fatal),
            }
        }
        let wrote = out.buffered < before;
        self.progress |= wrote;
        Ok(wrote)
    }

    /// `(readable, writable)` readiness to ask for: read while intake is
    /// open and neither pause holds, write while bytes are queued.
    pub(crate) fn interest(&self) -> (bool, bool) {
        let out = self.shared.out.lock();
        let held_back = self.awaiting_response() && !self.rbuf.is_empty();
        let readable = !self.intake_closed && out.buffered < self.buffer_cap && !held_back;
        (readable, !out.is_empty())
    }

    /// Intake is closed, nothing is in flight and every response is
    /// written: the driver closes the socket.
    pub(crate) fn finished(&self) -> bool {
        // in-flight first: a worker deposits before the scheduler
        // decrements, so a zero here means every response is already
        // counted in `buffered`
        self.intake_closed && self.shared.in_flight.get() == 0 && self.shared.out.lock().is_empty()
    }

    /// The stall deadline currently held.
    pub(crate) fn armed(&self) -> Option<Instant> {
        self.armed
    }

    /// The stall decision, taken after a service pass at time `now`:
    /// `None` while the peer owes nothing; a fresh `now + stall_timeout`
    /// when it owes progress and just made some (or nothing was armed);
    /// the deadline already held otherwise. The result is now held.
    pub(crate) fn rearm(&mut self, now: Instant, stall_timeout: Duration) -> Option<Instant> {
        let mid_frame = !self.rbuf.is_empty() && !self.intake_closed;
        let stalled =
            !self.shared.out.lock().is_empty() || (mid_frame && !self.awaiting_response());
        let progress = std::mem::take(&mut self.progress);
        self.armed = match self.armed {
            _ if !stalled => None,
            Some(held) if !progress => Some(held),
            _ => Some(now + stall_timeout),
        };
        self.armed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queued(frames: &[(Option<u64>, &[u8])]) -> OutState {
        let mut out = OutState::default();
        for &(id, body) in frames {
            let frame = OutFrame::new(id, Arc::new(body.to_vec()));
            out.buffered += frame.len();
            out.wbuf.push_back(frame);
        }
        out
    }

    fn wire(out: &OutState) -> Vec<u8> {
        out.unwritten().flatten().copied().collect()
    }

    /// The bytes a queued response puts on the wire, to the byte: the
    /// frame the previous `deposit` built by copying.
    #[test]
    fn queued_frames_are_the_golden_wire_bytes() {
        let tagged = queued(&[(Some(0x0102_0304_0506_0708), &[0, 7, 7])]);
        assert_eq!(
            wire(&tagged),
            [11, 0, 0, 0, 8, 7, 6, 5, 4, 3, 2, 1, 0, 7, 7],
            "[len = id + body][id][body]"
        );
        let untagged = queued(&[(None, &[0, 7, 7])]);
        assert_eq!(wire(&untagged), [3, 0, 0, 0, 0, 7, 7], "[len][body]");
        assert_eq!(untagged.buffered, 7);
    }

    /// `consume(n)` for every `n`, alone and as the first of two partial
    /// writes: what is left is exactly the unsent suffix, `buffered`
    /// counts it, and no slice handed to `writev` is empty.
    #[test]
    fn consume_splits_three_frames_at_every_byte() {
        let frames: [(Option<u64>, &[u8]); 3] = [
            (Some(7), b"first"),
            (None, b"2"),
            (Some(9), b"third response"),
        ];
        let all = wire(&queued(&frames));
        assert_eq!(all.len(), (12 + 5) + (4 + 1) + (12 + 14));
        for n in 0..=all.len() {
            let mut out = queued(&frames);
            out.consume(n);
            assert_eq!(wire(&out), all[n..], "after {n} bytes");
            assert_eq!(out.buffered, all.len() - n);
            assert!(out.unwritten().all(|s| !s.is_empty()));
            assert_eq!(out.wbuf.is_empty(), n == all.len());
            for m in 0..=all.len() - n {
                let mut again = queued(&frames);
                again.consume(n);
                again.consume(m);
                assert_eq!(wire(&again), all[n + m..], "after {n} + {m} bytes");
                assert_eq!(again.buffered, all.len() - n - m);
            }
        }
    }
}
