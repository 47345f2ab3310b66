//! The driver: the only part that holds sockets, a poller and a clock.
//!
//! **Owns:** the event-loop and worker threads; accept and adoption;
//! moving bytes — socket → [`Conn::feed`], [`Conn::flush`] → one
//! vectored write; registering the interest and the stall deadline each
//! [`Conn`] asks for; cutting what stalls or breaks framing; and the
//! loop's part in shutdown.
//!
//! **May not touch:** a frame's contents. What a request means and what
//! answers it is [`dispatch`]'s; when to pause, what to ask the poller
//! for and when a peer has stalled is [`Conn`]'s.
//!
//! Connections are multiplexed across a small, fixed set of event loops
//! (`HubOptions::reader_threads`) built on the `polling` readiness API
//! (epoll on Linux). Each loop owns its connections outright. Workers
//! never touch sockets: they deposit a response and wake the owning loop
//! through its poller ([`LoopMsg::Flush`]), which writes everything
//! queued in one vectored write with partial-write tracking.
//!
//! ## A frame's path
//!
//! `read` → [`Conn::feed`] → [`dispatch::serve_frames`] (`next_frame` →
//! `admit` → reply deposited, or `Scheduler::submit`) → [`Conn::flush`];
//! and for a queued job: [`worker_loop`] → [`dispatch::run_job`]
//! (deposit, `Scheduler::finish`) → `Flush` wake-up → [`Conn::flush`].
//!
//! ## Shutdown
//!
//! Graceful and fully event-driven — no poll ticks. `HubHandle::shutdown`
//! flags the hub and *wakes every loop through its poller*: the listener
//! closes, each loop serves the frames it already buffered and may
//! admit, then closes intake for good ([`Conn::close_intake`]) — so no
//! request can reach the queue once the loop has reported in; the
//! workers drain the queue; the loops flush every response owed (stalled
//! peers are cut at `stall_timeout`), close each connection as it
//! finishes, and exit.
//!
//! A connection whose peer was mid-conversation when intake closed
//! ([`Conn::lingers`]) may still have request bytes on the way, and
//! closing a socket with unread bytes makes the kernel answer with a
//! reset, which can destroy answers the peer has received but not yet
//! read. Such a connection closes in stages (RFC 9112 §9.6): every answer
//! written, then `shutdown(Write)` — the peer reads its answers, then
//! EOF — then whatever it still sends is read and dropped until its own
//! EOF, or until it has sent nothing for [`LINGER_QUIET`] (its bytes are
//! all read by then), or `stall_timeout` after the half-close, and only
//! then is the socket closed. An idle peer is closed at once.

use std::collections::{BTreeSet, HashMap};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use deeplake_obs::FlightEvent;
use parking_lot::Mutex;
use polling::{Event, Interest, Poller};

use crate::conn::{Conn, ConnShared, Fatal};
use crate::dispatch;
use crate::hub::Shared;

/// Poller key the accept listener is registered under on loop 0
/// (`u64::MAX` is the poller's own waker; connection tokens count up
/// from zero and can never reach either).
pub(crate) const LISTEN_KEY: u64 = u64::MAX - 1;

/// Most bytes one readable event may pull from a single connection
/// before yielding — level-triggered readiness re-fires for the rest,
/// so one firehose peer cannot starve the loop's other connections.
const READ_BURST: usize = 256 * 1024;

/// Cross-thread mailbox of one event loop. `send` enqueues and wakes
/// the loop through its poller — the explicit wakeup that replaced the
/// idle poll tick.
pub(crate) struct LoopShared {
    pub(crate) poller: Poller,
    inbox: Mutex<Vec<LoopMsg>>,
}

enum LoopMsg {
    /// A freshly accepted connection to adopt.
    Adopt(TcpStream),
    /// A deposit landed for this token; flush it.
    Flush(u64),
}

impl LoopShared {
    pub(crate) fn new() -> std::io::Result<Arc<Self>> {
        Ok(Arc::new(LoopShared {
            poller: Poller::new()?,
            inbox: Mutex::new(Vec::new()),
        }))
    }

    fn send(&self, msg: LoopMsg) {
        self.inbox.lock().push(msg);
        let _ = self.poller.notify();
    }
}

/// One connection as its loop holds it.
struct Peer {
    conn: Conn,
    stream: TcpStream,
    /// `(readable, writable)` interest registered with the poller.
    registered: (bool, bool),
    /// Half-closed (every answer written, then our FIN): what the peer
    /// still sends is read and dropped until its EOF or this deadline.
    closing: Option<Closing>,
}

/// The deadlines of a half-closed connection.
#[derive(Clone, Copy)]
struct Closing {
    /// `stall_timeout` after the half-close: a peer that never stops
    /// sending is cut here.
    cap: Instant,
    /// When the socket is closed if the peer sends nothing more:
    /// [`LINGER_QUIET`] after the half-close or its last byte, at most
    /// `cap`.
    due: Instant,
}

impl Peer {
    /// The deadline this connection is held to, if any.
    fn deadline(&self) -> Option<Instant> {
        self.closing.map(|c| c.due).or(self.conn.armed())
    }
}

/// How long a half-closed peer may stay silent before its socket is
/// closed without its EOF. A peer that was still sending when intake
/// closed reads our FIN and closes within microseconds on a LAN; one
/// that keeps its socket open and silent (it read its answers and the
/// EOF and is done) must not hold shutdown for `stall_timeout`. Once it
/// has been silent this long its bytes are all read, so the close is a
/// FIN, not a reset.
const LINGER_QUIET: Duration = Duration::from_millis(250);

/// What one loop thread owns.
struct Loop<'a> {
    shared: &'a Shared,
    me: Arc<LoopShared>,
    idx: usize,
    peers: HashMap<u64, Peer>,
    /// Stall deadlines held by connections, soonest first.
    deadlines: BTreeSet<(Instant, u64)>,
    scratch: Vec<u8>,
}

pub(crate) fn worker_loop(shared: &Shared) {
    while let Some(job) = shared.sched.pop() {
        let conn = dispatch::run_job(shared, job);
        // wake the owning loop to flush (coalesced: a wakeup already in
        // flight is enough)
        if !conn.flush_queued.swap(true, Ordering::AcqRel) {
            shared.loops[conn.loop_idx].send(LoopMsg::Flush(conn.token));
        }
    }
}

pub(crate) fn event_loop(shared: &Shared, idx: usize, mut listener: Option<TcpListener>) {
    let mut lp = Loop {
        shared,
        me: shared.loops[idx].clone(),
        idx,
        peers: HashMap::new(),
        deadlines: BTreeSet::new(),
        scratch: vec![0u8; 64 * 1024],
    };
    let mut events: Vec<Event> = Vec::new();
    // round-robin cursor distributing accepted sockets across loops
    let mut next_loop = 0usize;
    let mut intake_done = false;
    loop {
        let timeout = lp
            .deadlines
            .first()
            .map(|(t, _)| t.saturating_duration_since(Instant::now()));
        let _ = lp.me.poller.wait(&mut events, timeout);
        // the one clock reading of this turn: every deadline armed in it
        // counts from here
        let now = Instant::now();

        // cross-thread messages first, so a final Flush is always
        // serviced before the exit check below
        let msgs = std::mem::take(&mut *lp.me.inbox.lock());
        for msg in msgs {
            match msg {
                LoopMsg::Adopt(stream) if !intake_done => lp.adopt(stream),
                LoopMsg::Adopt(_) => {}
                LoopMsg::Flush(token) => lp.service(token, false, now),
            }
        }

        for &ev in &events {
            if ev.key == LISTEN_KEY {
                if let Some(l) = &listener {
                    lp.accept_burst(&mut next_loop, l);
                }
                continue;
            }
            lp.service(ev.key, ev.readable, now);
        }

        // stalled connections: no read/write progress before the
        // deadline means the peer is dead or malicious — cut it
        while let Some(&(t, token)) = lp.deadlines.first() {
            if t > now {
                break;
            }
            lp.deadlines.remove(&(t, token));
            let Some(peer) = lp.peers.get(&token) else {
                continue;
            };
            if peer.deadline() == Some(t) {
                // a half-closed peer that went quiet is closed, not cut
                let cut = match peer.closing {
                    Some(_) => FlightEvent::CONN_CUT,
                    None => FlightEvent::STALL_CUT,
                };
                lp.disconnect(token, cut);
            }
        }

        if !intake_done && shared.shutdown.load(Ordering::Acquire) {
            if let Some(l) = listener.take() {
                let _ = lp.me.poller.remove(l.as_raw_fd());
            }
            // requests already buffered are sliced and served where the
            // connection may admit them now; then intake closes for good,
            // because once this loop reports in below the pool may be gone
            // and a request admitted later would never be answered. A
            // connection that owes nothing more closes now, in stages if
            // its peer may still be sending.
            let tokens: Vec<u64> = lp.peers.keys().copied().collect();
            for token in tokens {
                lp.service(token, false, now);
                if let Some(peer) = lp.peers.get_mut(&token) {
                    peer.conn.close_intake();
                    lp.service(token, false, now);
                }
            }
            intake_done = true;
            *shared.intake_done.lock().expect("intake lock poisoned") += 1;
            shared.intake_cv.notify_all();
        }

        if intake_done && shared.drain_done.load(Ordering::Acquire) {
            // workers are gone: every response is deposited. Leave once
            // every outbound byte is flushed and every half-closed peer
            // has sent its EOF (deadlines bound the wait on peers that
            // stopped draining or never close).
            // (dropping the loop's peers closes their sockets)
            if lp
                .peers
                .values()
                .all(|p| p.closing.is_none() && p.conn.shared.out.lock().is_empty())
            {
                return;
            }
        }
    }
}

impl Loop<'_> {
    /// Accept until the listener would block, spreading connections
    /// round-robin across the loops.
    fn accept_burst(&mut self, next_loop: &mut usize, listener: &TcpListener) {
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    let target = *next_loop % self.shared.loops.len();
                    *next_loop += 1;
                    if target == self.idx {
                        self.adopt(stream);
                    } else {
                        self.shared.loops[target].send(LoopMsg::Adopt(stream));
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return, // would block, or the listener failed
            }
        }
    }

    /// Register a fresh connection with this loop.
    fn adopt(&mut self, stream: TcpStream) {
        let token = self.shared.next_token.fetch_add(1, Ordering::Relaxed);
        let poller = &self.me.poller;
        if stream.set_nonblocking(true).is_err()
            || stream.set_nodelay(true).is_err()
            || poller
                .add(stream.as_raw_fd(), token, Interest::READ)
                .is_err()
        {
            return;
        }
        let addr = stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_default();
        let detail = format!("conn {token} {addr}");
        self.shared
            .obs
            .recorder
            .record(FlightEvent::CONN_ACCEPT, 0, detail);
        let shared = ConnShared::new(token, self.idx);
        let peer = Peer {
            conn: Conn::new(shared, self.shared.opts.conn_buffer_bytes),
            stream,
            registered: (true, false),
            closing: None,
        };
        self.peers.insert(token, peer);
    }

    /// Tear a connection down: deregister, drop buffered responses, mark
    /// the shared state dead so late deposits become no-ops. `cut` names
    /// the flight-recorder event to log.
    fn disconnect(&mut self, token: u64, cut: &'static str) {
        let Some(peer) = self.peers.remove(&token) else {
            return;
        };
        let detail = format!("conn {token}");
        self.shared.obs.recorder.record(cut, 0, detail);
        if let Some(t) = peer.deadline() {
            self.deadlines.remove(&(t, token));
        }
        peer.conn.shared.kill();
        let _ = self.me.poller.remove(peer.stream.as_raw_fd());
        // socket closes when `peer.stream` drops here
    }

    /// Close a finished connection: at once, or — when [`Conn::lingers`]
    /// — in stages: FIN now (every answer is written), then only reads,
    /// dropped, until [`discard`] meets the peer's EOF or a deadline
    /// passes.
    fn close(&mut self, token: u64, now: Instant) {
        let Some(peer) = self.peers.get_mut(&token) else {
            return;
        };
        if !peer.conn.lingers() || peer.stream.shutdown(Shutdown::Write).is_err() {
            return self.disconnect(token, FlightEvent::CONN_CUT);
        }
        if let Some(t) = peer.conn.armed() {
            self.deadlines.remove(&(t, token));
        }
        let cap = now + self.shared.opts.stall_timeout;
        let due = cap.min(now + LINGER_QUIET);
        peer.closing = Some(Closing { cap, due });
        self.deadlines.insert((due, token));
        let reads = Interest {
            readable: true,
            writable: false,
        };
        if self
            .me
            .poller
            .modify(peer.stream.as_raw_fd(), token, reads)
            .is_ok()
        {
            peer.registered = (true, false);
        }
    }

    /// One service pass over a connection — the per-connection service
    /// call: pull inbound bytes (when the poller said `readable`), serve
    /// complete frames and flush outbound bytes until neither makes
    /// progress, then re-register interest and the stall deadline; a
    /// connection that broke framing is disconnected, and one that
    /// finished is closed — in stages when [`Conn::lingers`].
    fn service(&mut self, token: u64, readable: bool, now: Instant) {
        let Some(peer) = self.peers.get_mut(&token) else {
            return;
        };
        if let Some(closing) = peer.closing {
            match discard(peer, &mut self.scratch, readable) {
                Discarded::Done => self.disconnect(token, FlightEvent::CONN_CUT),
                Discarded::Bytes => {
                    let due = closing.cap.min(now + LINGER_QUIET);
                    self.deadlines.remove(&(closing.due, token));
                    self.deadlines.insert((due, token));
                    peer.closing = Some(Closing { due, ..closing });
                }
                Discarded::Nothing => {}
            }
            return;
        }
        if serve(self.shared, peer, &mut self.scratch, readable).is_err() {
            return self.disconnect(token, FlightEvent::CONN_CUT);
        }
        if peer.conn.finished() {
            return self.close(token, now);
        }
        update_interest(&self.me, peer);
        let held = peer.conn.armed();
        let want = peer.conn.rearm(now, self.shared.opts.stall_timeout);
        if want != held {
            if let Some(t) = held {
                self.deadlines.remove(&(t, token));
            }
            if let Some(t) = want {
                self.deadlines.insert((t, token));
            }
        }
    }
}

/// The byte-moving half of a service pass. `Err` when the connection
/// must be cut.
fn serve(
    shared: &Shared,
    peer: &mut Peer,
    scratch: &mut [u8],
    readable: bool,
) -> Result<(), Fatal> {
    let flush_queued = &peer.conn.shared.flush_queued;
    if flush_queued.load(Ordering::Relaxed) {
        // a swap, not a store: reading the worker's `true` is what orders
        // the scheduler's in-flight decrement before this pass, which
        // resumes a paused untagged connection only if it sees zero
        flush_queued.swap(false, Ordering::AcqRel);
    }
    if readable && peer.registered.0 {
        pull_bytes(peer, scratch)?;
    } else if readable {
        // read interest is off, so this can only be the poller reporting
        // an error/hang-up condition; peek to tell a benign half-close
        // from data we are not reading (backpressure) — and an error, or
        // nothing readable though the event fired, from a peer that is
        // gone and can be delivered nothing
        if peer.stream.peek(&mut [0u8; 1]).map_err(|_| Fatal)? == 0 {
            peer.conn.eof();
        }
    }
    // serve/flush until neither makes progress: flushing can drop the
    // queue below the cap, un-pausing complete frames that backpressure
    // left buffered with no readiness event pending to revisit them
    loop {
        let sliced = dispatch::serve_frames(shared, &mut peer.conn)?;
        let wrote = peer.conn.flush(|iov| peer.stream.write_vectored(iov))?;
        if !sliced && !wrote {
            return Ok(());
        }
    }
}

/// Read until the socket has no more (or the fairness burst is spent).
/// A read that comes back short emptied the socket's buffer, so the loop
/// stops there instead of paying one more `read` to be told `WouldBlock`:
/// the poller is level-triggered (`third_party/polling` registers plain
/// `EPOLLIN`), so bytes — or an EOF — that arrive after the short read
/// raise a fresh readiness event and nothing is lost.
fn pull_bytes(peer: &mut Peer, scratch: &mut [u8]) -> Result<(), Fatal> {
    let mut total = 0;
    loop {
        match peer.stream.read(scratch) {
            Ok(0) => {
                // clean EOF: the peer is done sending; responses for
                // requests already received still flush
                peer.conn.eof();
                return Ok(());
            }
            Ok(n) => {
                peer.conn.feed(&scratch[..n]);
                total += n;
                if n < scratch.len() || total >= READ_BURST {
                    return Ok(());
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Err(Fatal),
        }
    }
}

/// What a half-closed connection's pass found.
enum Discarded {
    /// The peer's EOF, or a failed socket: close it now, without a reset.
    Done,
    /// Bytes the peer still sent, read and dropped.
    Bytes,
    /// Nothing arrived.
    Nothing,
}

/// A half-closed connection's pass: read and drop what the peer still
/// sends.
fn discard(peer: &mut Peer, scratch: &mut [u8], readable: bool) -> Discarded {
    let mut total = 0;
    while readable && total < READ_BURST {
        match peer.stream.read(scratch) {
            Ok(0) => return Discarded::Done,
            Ok(n) => total += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(_) => return Discarded::Done,
        }
    }
    match total {
        0 => Discarded::Nothing,
        _ => Discarded::Bytes,
    }
}

/// Re-register poller interest with what the connection asks for now.
fn update_interest(me: &LoopShared, peer: &mut Peer) {
    let want = peer.conn.interest();
    if want != peer.registered {
        let interest = Interest {
            readable: want.0,
            writable: want.1,
        };
        let (fd, token) = (peer.stream.as_raw_fd(), peer.conn.shared.token);
        if me.poller.modify(fd, token, interest).is_ok() {
            peer.registered = want;
        }
    }
}
