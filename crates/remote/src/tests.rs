//! [`Demux`] driven without a socket or a thread, on a hand-advanced `now`.

use std::time::{Duration, Instant};

use crate::demux::{Demux, Next, READ_TIMEOUT};
use crate::proto;

fn response(id: u64, payload: &[u8]) -> Vec<u8> {
    proto::tag_request(id, payload)
}

#[test]
fn responses_reach_their_waiters_in_any_order() {
    let mut demux = Demux::default();
    let t0 = Instant::now();
    for id in [1, 2, 3] {
        demux.register(id, t0).unwrap();
    }
    assert!(demux.poll(2).is_none(), "nothing arrived yet");
    assert_eq!(demux.deliver(response(3, b"three")), Ok(true));
    assert_eq!(demux.deliver(response(1, b"one")), Ok(true));
    assert_eq!(&*demux.poll(1).unwrap().unwrap(), b"one");
    assert_eq!(&*demux.poll(3).unwrap().unwrap(), b"three");
    assert!(demux.poll(2).is_none());
    assert!(demux.poll(1).is_none(), "a response is handed over once");
}

#[test]
fn a_response_for_an_unregistered_id_is_dropped() {
    let mut demux = Demux::default();
    let t0 = Instant::now();
    assert_eq!(demux.deliver(response(9, b"stray")), Ok(false));
    // an abandoned request's late response is the same case
    demux.register(4, t0).unwrap();
    demux.abandon(4);
    assert_eq!(demux.deliver(response(4, b"late")), Ok(false));
    // and the id can be parked on again without seeing either
    demux.register(9, t0).unwrap();
    assert!(demux.poll(9).is_none());
    assert!(!demux.hung(t0 + READ_TIMEOUT / 2));
}

#[test]
fn a_frame_too_short_for_an_id_is_a_violation() {
    let mut demux = Demux::default();
    assert!(demux.deliver(vec![1, 2, 3]).is_err());
}

#[test]
fn fail_hands_every_waiter_the_first_error_once() {
    let mut demux = Demux::default();
    let t0 = Instant::now();
    demux.register(1, t0).unwrap();
    demux.register(2, t0).unwrap();
    demux.deliver(response(2, b"made it")).unwrap();
    demux.fail("server closed the connection".into());
    demux.fail("a later error".into());
    // a response that arrived before the failure still wins
    assert_eq!(&*demux.poll(2).unwrap().unwrap(), b"made it");
    let err = demux.poll(1).unwrap().unwrap_err();
    assert_eq!(err, "server closed the connection");
    assert!(demux.poll(1).is_none(), "each waiter is woken with it once");
    // and no request may follow
    assert_eq!(demux.register(3, t0).unwrap_err(), err);
}

#[test]
fn hung_is_true_only_past_the_timeout_for_an_unanswered_request() {
    let mut demux = Demux::default();
    let t0 = Instant::now();
    assert!(!demux.hung(t0 + READ_TIMEOUT * 2), "nothing in flight");
    demux.register(1, t0).unwrap();
    demux.register(2, t0 + READ_TIMEOUT / 2).unwrap();
    assert!(!demux.hung(t0));
    assert!(!demux.hung(t0 + READ_TIMEOUT - Duration::from_nanos(1)));
    assert!(demux.hung(t0 + READ_TIMEOUT));
    // answered but not yet collected does not count as hung
    demux.deliver(response(1, b"answered")).unwrap();
    assert!(!demux.hung(t0 + READ_TIMEOUT));
    assert!(demux.hung(t0 + READ_TIMEOUT + READ_TIMEOUT / 2));
    demux.poll(1).unwrap().unwrap();
    demux.abandon(2);
    assert!(!demux.hung(t0 + READ_TIMEOUT * 3));
}

#[test]
fn a_second_response_to_an_uncollected_id_is_a_violation() {
    let mut demux = Demux::default();
    let t0 = Instant::now();
    demux.register(5, t0).unwrap();
    assert_eq!(demux.deliver(response(5, b"first")), Ok(true));
    // the second frame must not replace the first under the caller
    assert!(demux.deliver(response(5, b"second")).is_err());
    assert_eq!(&*demux.poll(5).unwrap().unwrap(), b"first");
}

#[test]
fn a_reader_whose_frame_arrives_is_done_and_the_next_waiter_reads() {
    let mut demux = Demux::default();
    let t0 = Instant::now();
    for id in [1, 2, 3] {
        demux.register(id, t0).unwrap();
    }
    assert!(matches!(demux.next(1), Next::Read));
    assert!(matches!(demux.next(2), Next::Wait), "one reader at a time");
    assert!(matches!(demux.next(3), Next::Wait));
    demux.read_done(Ok(Some(response(1, b"mine"))), t0);
    match demux.next(1) {
        Next::Done(Ok(resp)) => assert_eq!(&*resp, b"mine"),
        other => panic!("the reader's own frame ends its wait, got {other:?}"),
    }
    // the role passed on: the first waiter to ask takes it
    assert!(matches!(demux.next(3), Next::Read));
    assert!(matches!(demux.next(2), Next::Wait));
}

#[test]
fn a_read_timeout_at_the_deadline_fails_every_waiter() {
    let mut demux = Demux::default();
    let t0 = Instant::now();
    for id in [1, 2, 3] {
        demux.register(id, t0).unwrap();
    }
    assert!(matches!(demux.next(2), Next::Read));
    // an idle tick before the deadline changes nothing but the role
    demux.read_done(Ok(None), t0 + READ_TIMEOUT / 2);
    assert!(matches!(demux.next(2), Next::Read));
    demux.read_done(Ok(None), t0 + READ_TIMEOUT);
    for id in [1, 2, 3] {
        match demux.next(id) {
            Next::Done(Err(msg)) => assert!(msg.contains("stopped responding"), "{msg}"),
            other => panic!("caller {id} must be failed, got {other:?}"),
        }
    }
}

/// Where one of the model's callers stands.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Caller {
    Unregistered,
    /// Registered and not yet `Done`; `delivered` once its frame was read.
    Waiting {
        delivered: bool,
    },
    Finished,
    Abandoned,
}

/// The model of one connection: the callers, who reads, and whether (and
/// with what) it failed.
struct Model {
    demux: Demux,
    callers: Vec<Caller>,
    reader: Option<u64>,
    failed: bool,
    first_error: Option<String>,
    t0: Instant,
}

impl Model {
    fn payload(id: u64) -> Vec<u8> {
        format!("payload of {id}").into_bytes()
    }

    fn unanswered(&self) -> Vec<u64> {
        if self.failed {
            return Vec::new();
        }
        let waiting = |c: &Caller| *c == Caller::Waiting { delivered: false };
        (0..self.callers.len() as u64)
            .filter(|&id| waiting(&self.callers[id as usize]))
            .collect()
    }

    /// A connection error as a caller saw it: the first one, every time.
    fn check_error(&mut self, msg: String) {
        assert!(self.failed, "an error before the connection failed: {msg}");
        let first = self.first_error.get_or_insert(msg.clone());
        assert_eq!(*first, msg, "every caller sees the first error");
    }

    /// `id` (registered, not reading) asks what to do; checked against
    /// what the model expects.
    fn next(&mut self, id: u64) -> Next {
        let Caller::Waiting { delivered } = self.callers[id as usize] else {
            unreachable!("only a waiting caller asks")
        };
        assert_ne!(
            self.reader,
            Some(id),
            "a reader reports before it asks again"
        );
        let next = self.demux.next(id);
        match &next {
            Next::Done(Ok(resp)) => {
                assert!(delivered, "caller {id} got an answer that never arrived");
                assert_eq!(
                    **resp,
                    Self::payload(id)[..],
                    "caller {id} got another's bytes"
                );
            }
            Next::Done(Err(msg)) => {
                assert!(!delivered, "an arrived response wins over the error");
                self.check_error(msg.clone());
            }
            Next::Read => {
                assert!(!delivered && !self.failed);
                assert!(self.reader.is_none(), "two readers at once");
                self.reader = Some(id);
            }
            Next::Wait => {
                assert!(!delivered && !self.failed);
                assert!(
                    self.reader.is_some(),
                    "caller {id} parked with nobody reading"
                );
            }
        }
        if let Next::Done(_) = next {
            self.callers[id as usize] = Caller::Finished;
            assert!(
                self.demux.poll(id).is_none(),
                "an answer is handed over once"
            );
        }
        next
    }

    /// The reader reports `read`; afterwards, the unanswered caller
    /// `pick` selects must be able to take the free role.
    fn read_done(&mut self, read: Result<Option<Vec<u8>>, String>, now: Instant, pick: usize) {
        assert!(self.reader.take().is_some(), "only a reader reports");
        match &read {
            Ok(Some(frame)) => {
                let (id, _) = proto::split_tagged(frame).unwrap();
                if let Some(Caller::Waiting { delivered }) = self.callers.get_mut(id as usize) {
                    // a second frame for an uncollected id fails it
                    self.failed |= *delivered;
                    *delivered = true;
                }
            }
            Ok(None) => {
                self.failed |= !self.unanswered().is_empty() && now >= self.t0 + READ_TIMEOUT
            }
            Err(msg) => {
                if !self.failed {
                    self.first_error = Some(msg.clone());
                }
                self.failed = true;
            }
        }
        self.demux.read_done(read, now);
        // no lost wake-up: an unanswered caller takes the free role
        let unanswered = self.unanswered();
        if !unanswered.is_empty() {
            let id = unanswered[pick % unanswered.len()];
            assert!(
                matches!(self.next(id), Next::Read),
                "caller {id} was left parked"
            );
        }
    }
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(512))]

    /// Up to six callers on one connection, in any interleaving of
    /// register, next, the reader's report and abandon: one reader at a
    /// time, nobody parked while the role is free, and every caller that
    /// stays registered ends with exactly one answer — its own bytes or
    /// the connection's first error.
    #[test]
    fn the_reader_role_is_handed_on_and_every_caller_is_answered_once(
        steps in proptest::collection::vec((0u8..8, 0u8..6, 0u8..6), 0..80),
    ) {
        let t0 = Instant::now();
        let mut m = Model {
            demux: Demux::default(),
            callers: vec![Caller::Unregistered; 6],
            reader: None,
            failed: false,
            first_error: None,
            t0,
        };
        for (op, arg, pick) in steps {
            let id = u64::from(arg);
            let caller = m.callers[arg as usize];
            let asks = matches!(caller, Caller::Waiting { .. }) && m.reader != Some(id);
            match op {
                0 | 1 if caller == Caller::Unregistered => match m.demux.register(id, t0) {
                    Ok(()) => {
                        assert!(!m.failed, "a failed connection took a request");
                        m.callers[arg as usize] = Caller::Waiting { delivered: false };
                    }
                    Err(msg) => m.check_error(msg),
                },
                2 | 3 if asks => drop(m.next(id)),
                4 if m.reader.is_some() => {
                    let frame = response(id, &Model::payload(id));
                    m.read_done(Ok(Some(frame)), t0, pick.into());
                }
                5 if m.reader.is_some() => {
                    let now = if pick % 2 == 0 { t0 + READ_TIMEOUT / 2 } else { t0 + READ_TIMEOUT };
                    m.read_done(Ok(None), now, pick.into());
                }
                6 if m.reader.is_some() && pick == 0 => {
                    m.read_done(Err(format!("read error {arg}")), t0, pick.into());
                }
                7 if asks && pick == 0 => {
                    m.demux.abandon(id);
                    m.callers[arg as usize] = Caller::Abandoned;
                }
                _ => {}
            }
        }
        // drain: the server answers everyone still waiting, in id order,
        // and every caller keeps asking until it is done; the model's
        // asserts stop a caller that would park with nobody reading
        while let Some(id) = m.callers.iter().position(|c| matches!(c, Caller::Waiting { .. })) {
            if m.reader.is_some() {
                let undelivered = Caller::Waiting { delivered: false };
                let to = m.callers.iter().position(|c| *c == undelivered).unwrap() as u64;
                m.read_done(Ok(Some(response(to, &Model::payload(to)))), t0, 0);
            } else {
                drop(m.next(id as u64));
            }
        }
    }
}
