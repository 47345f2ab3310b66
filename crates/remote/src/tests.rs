//! [`Demux`] driven without a socket or a thread, on a hand-advanced `now`.

use std::time::{Duration, Instant};

use crate::demux::{Demux, READ_TIMEOUT};
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
