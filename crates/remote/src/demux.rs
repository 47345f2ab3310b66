//! The waiter table of one pipelined connection, as a pure state machine.
//!
//! **Owns:** which correlation ids have a caller parked on them, the
//! response each is handed, the connection's first fatal error, and the
//! "has the server stopped answering" decision.
//!
//! **May not touch:** a socket, a thread or a clock — the connection's
//! demux thread feeds it the frames it read, callers poll it under the
//! connection's lock, and time arrives as the `now` either passes in.
//!
//! A caller [`register`](Demux::register)s its id *before* writing the
//! request, so the response cannot slip past before anyone waits for it,
//! then [`poll`](Demux::poll)s until it is handed a response or the
//! connection's error. Responses arrive in whatever order the server
//! finishes them and are routed by the id they carry.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use crate::proto;

/// How long a request may wait for its response. Guards callers against
/// a hung server: when the oldest in-flight request on a connection
/// exceeds this, the connection fails and every caller parked on it
/// gets a transport error. Also the socket's write timeout, so a server
/// that stops draining cannot hang a caller either.
pub(crate) const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// One response as the demux thread read it off the socket:
/// `[correlation id][payload]`. Handed to the waiter whole — derefs to
/// the payload — so a response is never copied between the two threads.
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

#[derive(Default)]
pub(crate) struct Demux {
    waiting: HashMap<u64, Waiter>,
    /// First fatal error; set once, fails every current and future
    /// request on this connection.
    error: Option<String>,
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
    /// for a frame too short to carry an id, which must fail the
    /// connection.
    pub(crate) fn deliver(&mut self, frame: Vec<u8>) -> Result<bool, &'static str> {
        let Some((id, _)) = proto::split_tagged(&frame) else {
            return Err("pipelined response shorter than its correlation id");
        };
        let waiter = self.waiting.get_mut(&id);
        Ok(waiter.map(|w| w.resp = Some(Response(frame))).is_some())
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
