//! Property tests for the wire protocol: framing and request/response
//! codecs must round-trip arbitrary data and reject arbitrary garbage
//! without ever panicking or allocating beyond what actually arrived.

use bytes::Bytes;
use deeplake_remote::proto::{
    self, decode_request, encode_request, read_frame, write_frame, Request,
};
use deeplake_storage::{ReadRequest, StorageError};
use deeplake_tql::wire::WireReader;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn frames_roundtrip_any_payload(payload in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        let mut cursor = std::io::Cursor::new(&wire);
        let back = read_frame(&mut cursor).unwrap().unwrap();
        prop_assert_eq!(back, payload);
        prop_assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn truncated_frames_error_cleanly(
        payload in proptest::collection::vec(any::<u8>(), 1..512),
        keep_fraction in 0u8..100,
    ) {
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        let keep = (wire.len() * keep_fraction as usize) / 100;
        prop_assume!(keep < wire.len());
        let mut cursor = std::io::Cursor::new(&wire[..keep]);
        match read_frame(&mut cursor) {
            Ok(None) => prop_assert_eq!(keep, 0, "Ok(None) only on clean EOF"),
            Ok(Some(_)) => prop_assert!(false, "truncated frame decoded"),
            Err(_) => {} // expected
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_frame_reader(
        garbage in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        // whatever happens, it must be Ok or Err — never a panic, and an
        // oversized length header must not OOM (the cap + incremental
        // read guarantee allocation ≤ received bytes)
        let _ = read_frame(&mut std::io::Cursor::new(&garbage));
    }

    #[test]
    fn requests_roundtrip(
        key in "[a-z0-9/._-]{0,40}",
        start in any::<u64>(),
        end in any::<u64>(),
        value in proptest::collection::vec(any::<u8>(), 0..512),
        whole_flags in proptest::collection::vec(any::<bool>(), 0..12),
    ) {
        let requests: Vec<ReadRequest> = whole_flags
            .iter()
            .enumerate()
            .map(|(i, &whole)| {
                let k = format!("{key}/{i}");
                if whole {
                    ReadRequest::whole(k)
                } else {
                    ReadRequest::range(k, start, end)
                }
            })
            .collect();
        for req in [
            Request::Get { key: key.clone() },
            Request::GetRange { key: key.clone(), start, end },
            Request::Put { key: key.clone(), value: Bytes::from(value.clone()) },
            Request::List { prefix: key.clone() },
            Request::Execute { gap_tolerance: start, requests },
        ] {
            let back = decode_request(&encode_request(&req)).unwrap();
            prop_assert_eq!(back, req);
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_request_decoder(
        garbage in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let _ = decode_request(&garbage);
    }

    #[test]
    fn truncated_requests_error(
        key in "[a-z0-9/]{1,20}",
        cut_fraction in 0u8..100,
    ) {
        let full = encode_request(&Request::GetRange { key, start: 3, end: 99 });
        let cut = (full.len() * cut_fraction as usize) / 100;
        prop_assume!(cut < full.len());
        prop_assert!(decode_request(&full[..cut]).is_err());
    }

    /// Version negotiation: every matching hello succeeds, every
    /// mismatching version byte is rejected with a LOSSLESS error that
    /// decodes to a message naming both generations — never a garbled
    /// frame, never a panic.
    #[test]
    fn hello_mismatch_rejected_losslessly(version in any::<u8>()) {
        // the request itself round-trips whatever the version byte is
        let req = Request::Hello { version };
        prop_assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);
        let resp = proto::hello_response(version);
        if version == proto::PROTO_VERSION {
            prop_assert_eq!(proto::expect_hello(&resp).unwrap(), proto::PROTO_VERSION);
        } else {
            let err = proto::expect_hello(&resp).unwrap_err();
            let msg = err.to_string();
            prop_assert!(msg.contains(&format!("version {version}")), "{}", msg);
            prop_assert!(msg.contains(&proto::PROTO_VERSION.to_string()), "{}", msg);
        }
    }

    /// The registry opcodes round-trip any dataset name the wire can
    /// carry, and expect_hello never panics on garbage.
    #[test]
    fn registry_requests_roundtrip(
        name in "[a-zA-Z0-9._-]{0,48}",
        garbage in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        for req in [
            Request::Attach { dataset: name.clone() },
            Request::Mount { dataset: name.clone() },
            Request::Unmount { dataset: name.clone() },
            Request::ListDatasets,
            Request::WhereIs { dataset: name.clone() },
        ] {
            prop_assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);
        }
        let _ = proto::expect_hello(&garbage);
    }

    /// Placement responses round-trip any epoch and address list, and the
    /// decoder never panics on garbage.
    #[test]
    fn placements_roundtrip(
        epoch in any::<u64>(),
        addrs in proptest::collection::vec("[a-z0-9.:]{0,24}", 0..8),
        garbage in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let (back_epoch, back_addrs) =
            proto::expect_placement(&proto::resp_placement(epoch, &addrs)).unwrap();
        prop_assert_eq!(back_epoch, epoch);
        prop_assert_eq!(back_addrs, addrs);
        let _ = proto::expect_placement(&garbage);
    }

    #[test]
    fn storage_errors_roundtrip(key in "[a-z0-9/ .]{0,64}", a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        for e in [
            StorageError::NotFound(key.clone()),
            StorageError::Io(key.clone()),
            StorageError::RangeOutOfBounds { start: a, end: b, len: c },
            StorageError::ReadOnly,
            StorageError::Busy(key.clone()),
        ] {
            let mut buf = Vec::new();
            proto::put_storage_err(&mut buf, &e);
            let back = proto::take_storage_err(&mut WireReader::new(&buf)).unwrap();
            prop_assert_eq!(back, e);
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic_response_decoders(
        garbage in proptest::collection::vec(any::<u8>(), 0..512),
        expected in 0usize..32,
    ) {
        let _ = proto::expect_unit(&garbage);
        let _ = proto::expect_bytes(&garbage);
        let _ = proto::expect_bool(&garbage);
        let _ = proto::expect_u64(&garbage);
        let _ = proto::expect_str(&garbage);
        let _ = proto::expect_list(&garbage);
        let _ = proto::expect_execute(&garbage, expected);
        let _ = proto::expect_query(&garbage);
    }
}

/// An oversized length header is rejected before any allocation — this
/// is the "never huge-alloc" guarantee, checked deterministically.
#[test]
fn oversized_length_header_rejected() {
    for len in [
        (proto::MAX_FRAME + 1) as u32,
        u32::MAX,
        (proto::MAX_FRAME as u32).wrapping_add(1000),
    ] {
        let mut wire = Vec::new();
        wire.extend_from_slice(&len.to_le_bytes());
        wire.extend_from_slice(&[0u8; 16]);
        let err = read_frame(&mut std::io::Cursor::new(&wire)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "len={len}");
    }
}
