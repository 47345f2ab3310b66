//! The waiter table of one pipelined connection, as a pure state machine.
//!
//! **Owns:** which correlation ids have a caller parked on them, the
//! response each is handed, the connection's first fatal error, which
//! caller reads the socket next, and the "has the server stopped
//! answering" decision.
//!
//! **May not touch:** a socket, a thread or a clock — callers poll it
//! under the connection's lock, the one holding the reader role feeds it
//! what it read, and time arrives as the `now` each passes in.
//!
//! A caller [`register`](Demux::register)s its id *before* writing the
//! request, so the response cannot slip past before anyone waits for it,
//! then asks [`next`](Demux::next) until it is handed a response or the
//! connection's error. Nobody reads the socket on the connection's
//! behalf: when a caller's response has not arrived and no other caller
//! is reading, `next` makes it the reader (leader/followers). It reads
//! one frame, reports it through [`read_done`](Demux::read_done) — which
//! routes it by the id it carries, in whatever order the server finished
//! them — and gives the role up, so a caller whose own response arrived
//! never stays behind to read for the others.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use crate::proto;

/// How long a request may wait for its response. Guards callers against
/// a hung server: when the oldest in-flight request on a connection
/// exceeds this, the connection fails and every caller parked on it
/// gets a transport error. Also the socket's write timeout, so a server
/// that stops draining cannot hang a caller either.
pub(crate) const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// One response as the reading caller took it off the socket:
/// `[correlation id][payload]`. Handed to its waiter whole — derefs to
/// the payload — so a response is never copied on its way between
/// callers.
#[derive(Debug)]
pub(crate) struct Response(Vec<u8>);

impl std::ops::Deref for Response {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0[8..]
    }
}

/// A caller's parking slot: filled when the response carrying its id
/// arrives.
struct Waiter {
    resp: Option<Response>,
    sent_at: Instant,
}

/// What a caller does next on its connection.
#[derive(Debug)]
pub(crate) enum Next {
    /// Its wait is over: its response, else the connection's error.
    Done(Result<Response, String>),
    /// It holds the reader role: read one frame off the socket, without
    /// the connection's lock, and report it through [`Demux::read_done`].
    Read,
    /// Another caller is reading: park until it reports.
    Wait,
}

#[derive(Default)]
pub(crate) struct Demux {
    waiting: HashMap<u64, Waiter>,
    /// First fatal error; set once, fails every current and future
    /// request on this connection.
    error: Option<String>,
    /// Whether some caller holds the reader role.
    reading: bool,
}

impl Demux {
    /// Park a caller on `id`, sent at `now`. `Err` with the connection's
    /// error when it has already failed.
    pub(crate) fn register(&mut self, id: u64, now: Instant) -> Result<(), String> {
        if let Some(msg) = &self.error {
            return Err(msg.clone());
        }
        let waiter = Waiter {
            resp: None,
            sent_at: now,
        };
        self.waiting.insert(id, waiter);
        Ok(())
    }

    /// Route one frame read off the socket to the caller whose id it
    /// carries; `Ok(false)` when nobody waits for it — a response to an
    /// abandoned request (its caller hit a write error): dropped. `Err`
    /// for a frame too short to carry an id, or a second response to an
    /// id whose first is still uncollected: either must fail the
    /// connection.
    pub(crate) fn deliver(&mut self, frame: Vec<u8>) -> Result<bool, &'static str> {
        let Some((id, _)) = proto::split_tagged(&frame) else {
            return Err("pipelined response shorter than its correlation id");
        };
        let Some(waiter) = self.waiting.get_mut(&id) else {
            return Ok(false);
        };
        if waiter.resp.is_some() {
            return Err("two pipelined responses carry one correlation id");
        }
        waiter.resp = Some(Response(frame));
        Ok(true)
    }

    /// What `id`'s caller does next: take its response or the
    /// connection's error when either is there, else read the socket
    /// when nobody else does, else wait for the reader.
    pub(crate) fn next(&mut self, id: u64) -> Next {
        if let Some(outcome) = self.poll(id) {
            return Next::Done(outcome);
        }
        if self.reading {
            return Next::Wait;
        }
        self.reading = true;
        Next::Read
    }

    /// The reader is back, at `now`, with one of: a frame (delivered),
    /// `Ok(None)` — the read timed out between frames, the tick that
    /// fails a connection the server stopped answering — or the read's
    /// error, which fails the connection. The reader role is free again
    /// either way: every parked caller must be woken, since one of them
    /// may have to take it.
    pub(crate) fn read_done(&mut self, read: Result<Option<Vec<u8>>, String>, now: Instant) {
        self.reading = false;
        let failed = match read {
            Ok(Some(frame)) => self.deliver(frame).err().map(String::from),
            Ok(None) => self
                .hung(now)
                .then(|| "server stopped responding (read timed out)".into()),
            Err(msg) => Some(msg),
        };
        if let Some(msg) = failed {
            self.fail(msg);
        }
    }

    /// What `id`'s caller has been handed: its response, else the
    /// connection's error, else `None` (keep waiting). Either answer
    /// ends the wait and frees the slot.
    pub(crate) fn poll(&mut self, id: u64) -> Option<Result<Response, String>> {
        let outcome = match self.waiting.get_mut(&id)?.resp.take() {
            Some(resp) => Ok(resp),
            None => Err(self.error.clone()?),
        };
        self.waiting.remove(&id);
        Some(outcome)
    }

    /// `id`'s caller gave up (its request was never fully written).
    pub(crate) fn abandon(&mut self, id: u64) {
        self.waiting.remove(&id);
    }

    /// Fail every in-flight and future request on this connection with
    /// `msg` — unless it has failed already: the first error is the one
    /// every caller sees.
    pub(crate) fn fail(&mut self, msg: String) {
        self.error.get_or_insert(msg);
    }

    /// Whether some request has gone unanswered for [`READ_TIMEOUT`]:
    /// the server stopped responding.
    pub(crate) fn hung(&self, now: Instant) -> bool {
        let mut unanswered = self.waiting.values().filter(|w| w.resp.is_none());
        unanswered.any(|w| now.saturating_duration_since(w.sent_at) >= READ_TIMEOUT)
    }
}
