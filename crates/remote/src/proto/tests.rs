use super::*;

fn roundtrip(req: &Request) -> Request {
    decode_request(&encode_request(req)).unwrap()
}

#[test]
fn requests_roundtrip() {
    for req in [
        Request::Ping,
        Request::Get { key: "a/b".into() },
        Request::GetRange {
            key: "k".into(),
            start: 3,
            end: 9,
        },
        Request::Put {
            key: "k".into(),
            value: Bytes::from_static(b"payload"),
        },
        Request::Delete { key: "k".into() },
        Request::Exists { key: "k".into() },
        Request::LenOf { key: "k".into() },
        Request::List {
            prefix: "t/".into(),
        },
        Request::DeletePrefix {
            prefix: "t/".into(),
        },
        Request::Execute {
            gap_tolerance: 4096,
            requests: vec![
                ReadRequest::range("c", 5, 5),
                ReadRequest::whole("a"),
                ReadRequest::range("b", 0, 10),
                ReadRequest::whole(""),
            ],
        },
        Request::Query {
            reference: "main".into(),
            text: "SELECT * FROM ds WHERE labels = 3".into(),
            options: QueryOptions::default(),
        },
        Request::Describe,
        Request::Hello {
            version: PROTO_VERSION,
        },
        Request::Hello { version: 0 },
        Request::Attach {
            dataset: "mnist".into(),
        },
        Request::Mount {
            dataset: "laion".into(),
        },
        Request::Unmount {
            dataset: "laion".into(),
        },
        Request::ListDatasets,
        Request::WhereIs {
            dataset: "mnist".into(),
        },
        Request::Pipeline,
        Request::Traced {
            trace_id: 0xDEAD_BEEF,
            parent_span: 42,
            inner: Box::new(Request::Query {
                reference: "main".into(),
                text: "SELECT * FROM ds".into(),
                options: QueryOptions::default(),
            }),
        },
        Request::Metrics,
        Request::Health,
    ] {
        let back = roundtrip(&req);
        assert_eq!(back, req);
    }
}

#[test]
fn nested_traced_frames_rejected() {
    let double = Request::Traced {
        trace_id: 1,
        parent_span: 2,
        inner: Box::new(Request::Traced {
            trace_id: 3,
            parent_span: 4,
            inner: Box::new(Request::Ping),
        }),
    };
    assert!(decode_request(&encode_request(&double)).is_err());
    // a frame of many repeated 17-byte Traced headers must be
    // rejected in O(1) stack. Before the peek-based check each
    // header cost one decode_request stack frame, so ~100k headers
    // (1.7 MB, well under MAX_FRAME) overflowed a 2 MiB thread
    // stack — aborting the process from one crafted frame
    let mut deep = Vec::with_capacity(100_000 * 17 + 1);
    for _ in 0..100_000 {
        deep.push(OP_TRACED);
        put_u64(&mut deep, 1);
        put_u64(&mut deep, 2);
    }
    deep.push(OP_PING);
    let err = decode_request(&deep).unwrap_err();
    assert!(err.to_string().contains("nested traced frame"));
    // a truncated traced frame errors cleanly at every cut
    let buf = encode_request(&Request::Traced {
        trace_id: 9,
        parent_span: 8,
        inner: Box::new(Request::Get { key: "k".into() }),
    });
    for cut in 0..buf.len() {
        assert!(decode_request(&buf[..cut]).is_err(), "cut at {cut}");
    }
}

/// A query borrowed from its frame is the query `decode_request` owns,
/// bare or traced; anything else — another opcode, a nested envelope, a
/// cut or padded query — is left to `decode_request`.
#[test]
fn a_borrowed_query_is_the_decoded_query() {
    let query = Request::Query {
        reference: "main".into(),
        text: "SELECT * WHERE score > 0.5".into(),
        options: QueryOptions {
            workers: 3,
            pruning: false,
            ann: true,
            nprobe: 9,
        },
    };
    let bare = encode_request(&query);
    let traced = trace_wrap(7, 11, &bare);
    for (payload, trace) in [(&bare, None), (&traced, Some((7, 11)))] {
        let borrowed = borrow_query(payload).expect("a well-formed query");
        assert_eq!(borrowed.trace, trace);
        let owned = Request::Query {
            reference: borrowed.reference.into(),
            text: borrowed.text.into(),
            options: borrowed.options,
        };
        let decoded = match decode_request(payload).unwrap() {
            Request::Traced { inner, .. } => *inner,
            other => other,
        };
        assert_eq!(owned, decoded);
    }
    let nested = trace_wrap(1, 2, &traced);
    let mut padded = bare.clone();
    padded.push(0);
    let ping = encode_request(&Request::Ping);
    let cuts = (0..bare.len()).map(|cut| &bare[..cut]);
    for payload in [&ping[..], &nested, &padded].into_iter().chain(cuts) {
        assert!(borrow_query(payload).is_none(), "{payload:?}");
    }
}

#[test]
fn trace_wrap_matches_traced_encoding() {
    let inner = Request::Query {
        reference: "main".into(),
        text: "SELECT * LIMIT 3".into(),
        options: QueryOptions::default(),
    };
    let wrapped = trace_wrap(7, 11, &encode_request(&inner));
    let full = encode_request(&Request::Traced {
        trace_id: 7,
        parent_span: 11,
        inner: Box::new(inner),
    });
    assert_eq!(wrapped, full);
}

#[test]
fn metrics_snapshots_roundtrip() {
    let snap = MetricsSnapshot {
        counters: vec![("hub.cache.hits".into(), 12), ("hub.requests".into(), 40)],
        gauges: vec![("hub.connections".into(), -3)],
        histograms: vec![(
            "hub.execute_ns".into(),
            HistogramSnapshot {
                count: 3,
                sum: 3_000_000,
                max: 2_000_000,
                buckets: vec![(80, 2), (84, 1)],
            },
        )],
        rates: vec![
            (
                "hub.bytes_out_rate".into(),
                RateSnapshot {
                    counts: [9, 90, 540],
                },
            ),
            (
                "hub.queries_rate".into(),
                RateSnapshot {
                    counts: [5, 40, 200],
                },
            ),
        ],
        slow_queries: vec![SlowQueryEntry {
            trace_id: 7,
            root_span: 8,
            parent_span: 9,
            dataset: "mnist".into(),
            version: "abc".into(),
            text: "SELECT * FROM ds WHERE labels = 3".into(),
            total_ns: 4_200_000,
            spans: vec![SpanRecord {
                name: "execute".into(),
                span_id: 10,
                parent_span: 8,
                dur_ns: 4_000_000,
            }],
        }],
        events: vec![FlightEvent {
            at_unix_ms: 1_700_000_000_123,
            seq: 4,
            kind: "conn.cut".into(),
            trace_id: 7,
            detail: "127.0.0.1:5555".into(),
        }],
    };
    let wire = resp_metrics(&snap);
    let back = expect_metrics(&wire).unwrap();
    assert_eq!(back, snap);

    // empty registry still decodes
    let empty = expect_metrics(&resp_metrics(&MetricsSnapshot::default())).unwrap();
    assert!(empty.counters.is_empty() && empty.slow_queries.is_empty());
    assert!(empty.rates.is_empty() && empty.events.is_empty());

    // every section is required: every truncation is refused (a frame
    // that ends after the slow queries included), lying counts rejected
    for cut in 0..wire.len() {
        assert!(expect_metrics(&wire[..cut]).is_err(), "cut at {cut}");
    }
    let mut lying = vec![STATUS_OK];
    put_u32(&mut lying, u32::MAX);
    assert!(expect_metrics(&lying).is_err());
}

#[test]
fn health_reports_roundtrip() {
    let report = HealthReport {
        uptime_ms: 123_456,
        in_flight: 7,
        queue_depth: 3,
        queue_cap: 256,
        datasets: vec!["laion".into(), "mnist".into()],
        proto_version: PROTO_VERSION,
        tracing: true,
        events: vec![
            FlightEvent {
                at_unix_ms: 1_700_000_000_000,
                seq: 0,
                kind: "conn.accept".into(),
                trace_id: 0,
                detail: "127.0.0.1:4242".into(),
            },
            FlightEvent {
                at_unix_ms: 1_700_000_000_050,
                seq: 1,
                kind: "node.dead".into(),
                trace_id: 99,
                detail: "127.0.0.1:9000".into(),
            },
        ],
    };
    let wire = resp_health(&report);
    assert_eq!(expect_health(&wire).unwrap(), report);

    // a bare hub (no datasets, no events) still roundtrips
    let bare = HealthReport {
        proto_version: PROTO_VERSION,
        ..Default::default()
    };
    assert_eq!(expect_health(&resp_health(&bare)).unwrap(), bare);

    // truncation errors cleanly at every cut
    for cut in 0..wire.len() {
        assert!(expect_health(&wire[..cut]).is_err(), "cut at {cut}");
    }
    // lying dataset count rejected before allocation
    let mut lying = vec![STATUS_OK];
    for _ in 0..4 {
        put_u64(&mut lying, 0);
    }
    put_u32(&mut lying, u32::MAX);
    assert!(expect_health(&lying).is_err());
    // an answered refusal decodes as a protocol error
    let err = expect_health(&resp_proto_err("unknown opcode 22")).unwrap_err();
    assert!(matches!(err, StorageError::Io(_)), "{err:?}");
}

#[test]
fn placement_roundtrips() {
    let replicas = vec!["127.0.0.1:4000".to_string(), "127.0.0.1:4001".to_string()];
    let (epoch, back) = expect_placement(&resp_placement(7, &replicas)).unwrap();
    assert_eq!(epoch, 7);
    assert_eq!(back, replicas);
    // empty placement (all replicas dead) still decodes
    let (_, none) = expect_placement(&resp_placement(0, &[])).unwrap();
    assert!(none.is_empty());
    // an unknown dataset decodes to the lossless NotFound the node sent
    let err = expect_placement(&resp_storage_err(&StorageError::NotFound("ds".into())));
    assert_eq!(err.unwrap_err(), StorageError::NotFound("ds".into()));
    // lying replica count is rejected
    let mut bad = vec![STATUS_OK];
    put_u64(&mut bad, 1);
    put_u32(&mut bad, u32::MAX);
    assert!(expect_placement(&bad).is_err());
}

#[test]
fn hello_negotiation_is_lossless() {
    // matching version: server answers its own version byte
    assert_eq!(
        expect_hello(&hello_response(PROTO_VERSION)).unwrap(),
        PROTO_VERSION
    );
    // any mismatch: a decodable error naming both generations
    for bad in [0u8, PROTO_VERSION + 1, u8::MAX] {
        let err = expect_hello(&hello_response(bad)).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains(&format!("version {bad}")) && msg.contains(&PROTO_VERSION.to_string()),
            "unexpected message {msg:?}"
        );
    }
    // generation 3 still had opcode 9: it is told so, not half-served
    let msg = expect_hello(&hello_response(3)).unwrap_err().to_string();
    assert!(
        msg.contains("version 3") && msg.contains("speaks 4"),
        "unexpected message {msg:?}"
    );
}

#[test]
fn busy_frames_decode_to_busy_errors() {
    let resp = resp_busy("queue full; retry");
    assert_eq!(
        expect_unit(&resp).unwrap_err(),
        StorageError::Busy("queue full; retry".into())
    );
    // and through the query decoder
    match expect_query(&resp).unwrap_err() {
        deeplake_tql::TqlError::Remote(msg) => assert!(msg.contains("busy"), "{msg:?}"),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn storage_errors_roundtrip_losslessly() {
    for e in [
        StorageError::NotFound("some/key".into()),
        StorageError::RangeOutOfBounds {
            start: 5,
            end: 10,
            len: 3,
        },
        StorageError::Io("disk on fire".into()),
        StorageError::ReadOnly,
        StorageError::Busy("32 in flight".into()),
    ] {
        let mut buf = Vec::new();
        put_storage_err(&mut buf, &e);
        let back = take_storage_err(&mut WireReader::new(&buf)).unwrap();
        assert_eq!(back, e);
        // and through a full response frame
        let resp = resp_storage_err(&e);
        assert_eq!(expect_unit(&resp).unwrap_err(), e);
    }
}

#[test]
fn response_decoders_roundtrip() {
    assert!(expect_unit(&resp_unit()).is_ok());
    assert_eq!(
        expect_bytes(&resp_bytes(b"hello")).unwrap(),
        Bytes::from_static(b"hello")
    );
    assert!(expect_bool(&resp_bool(true)).unwrap());
    assert_eq!(expect_u64(&resp_u64(42)).unwrap(), 42);
    assert_eq!(expect_str(&resp_str("desc")).unwrap(), "desc");
    assert_eq!(
        expect_list(&resp_list(&["a".into(), "b".into()])).unwrap(),
        vec!["a", "b"]
    );
    let slots = vec![
        Ok(Bytes::from_static(b"x")),
        Err(StorageError::NotFound("k".into())),
    ];
    let (back, fetches) = expect_execute(&resp_execute(7, &slots), 2).unwrap();
    assert_eq!(fetches, 7);
    assert_eq!(back[0].as_ref().unwrap(), &Bytes::from_static(b"x"));
    assert_eq!(
        back[1].clone().unwrap_err(),
        StorageError::NotFound("k".into())
    );
    // slot-count mismatch is a protocol error
    assert!(expect_execute(&resp_execute(7, &slots), 3).is_err());
}

#[test]
fn frames_roundtrip() {
    let mut wire = Vec::new();
    write_frame(&mut wire, b"alpha").unwrap();
    write_frame(&mut wire, b"").unwrap();
    write_frame(&mut wire, &[7u8; 100_000]).unwrap();
    let mut cursor = std::io::Cursor::new(wire);
    assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"alpha");
    assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"");
    assert_eq!(
        read_frame(&mut cursor).unwrap().unwrap(),
        vec![7u8; 100_000]
    );
    assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
}

/// The parent's `write_frame`: the reference the one-write form must
/// reproduce byte for byte.
fn two_write_alls(w: &mut impl std::io::Write, payload: &[u8]) {
    w.write_all(&(payload.len() as u32).to_le_bytes()).unwrap();
    w.write_all(payload).unwrap();
}

/// Accepts one byte per call and fails every other call with
/// `Interrupted`; counts its calls.
#[derive(Default)]
struct Grudging {
    wire: Vec<u8>,
    calls: usize,
}

impl std::io::Write for Grudging {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.calls += 1;
        if self.calls.is_multiple_of(2) {
            return Err(std::io::ErrorKind::Interrupted.into());
        }
        self.wire.extend_from_slice(&buf[..1]);
        Ok(1)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Takes whatever it is offered; counts calls per entry point.
#[derive(Default)]
struct Counting {
    wire: Vec<u8>,
    plain: usize,
    vectored: usize,
}

impl std::io::Write for Counting {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.plain += 1;
        self.wire.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn write_vectored(&mut self, bufs: &[std::io::IoSlice<'_>]) -> std::io::Result<usize> {
        self.vectored += 1;
        bufs.iter().for_each(|b| self.wire.extend_from_slice(b));
        Ok(bufs.iter().map(|b| b.len()).sum())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn a_frame_is_one_vectored_write_and_survives_a_grudging_writer() {
    let payloads: [&[u8]; 3] = [b"", b"q", &[7u8; 300]];
    for payload in payloads {
        let tagged = tag_request(0x0102_0304_0506_0708, payload);
        let (mut want, mut want_tagged) = (Vec::new(), Vec::new());
        two_write_alls(&mut want, payload);
        two_write_alls(&mut want_tagged, &tagged);

        let mut slow = Grudging::default();
        write_frame(&mut slow, payload).unwrap();
        assert_eq!(slow.wire, want);
        assert_eq!(slow.calls, 2 * want.len() - 1, "a byte every other call");
        let mut slow = Grudging::default();
        write_tagged_frame(&mut slow, 0x0102_0304_0506_0708, payload).unwrap();
        assert_eq!(slow.wire, want_tagged);

        let mut fast = Counting::default();
        write_frame(&mut fast, payload).unwrap();
        assert_eq!((fast.vectored, fast.plain), (1, 0));
        assert_eq!(fast.wire, want);
        let mut fast = Counting::default();
        write_tagged_frame(&mut fast, 0x0102_0304_0506_0708, payload).unwrap();
        assert_eq!((fast.vectored, fast.plain), (1, 0));
        assert_eq!(fast.wire, want_tagged);
    }
    // golden bytes: the wire format, not merely self-consistency
    let mut wire = Vec::new();
    write_tagged_frame(&mut wire, 0x0102_0304_0506_0708, &[OP_PING]).unwrap();
    assert_eq!(wire, [9, 0, 0, 0, 8, 7, 6, 5, 4, 3, 2, 1, OP_PING]);
    // a writer that stops accepting is an error, not a spin
    let mut full = std::io::Cursor::new([0u8; 6]);
    let err = write_frame(&mut full, b"four").unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::WriteZero);
}

/// A body that arrives a few bytes per `read` is assembled in place,
/// and the buffer never runs more than `READ_CHUNK` ahead of it.
#[test]
fn a_trickled_body_is_read_in_place() {
    struct Trickle(std::io::Cursor<Vec<u8>>, usize);
    impl std::io::Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.1 += 1;
            if self.1.is_multiple_of(3) {
                return Err(std::io::ErrorKind::Interrupted.into());
            }
            let n = buf.len().min(7);
            self.0.read(&mut buf[..n])
        }
    }
    let body: Vec<u8> = (0..3 * READ_CHUNK / 2).map(|i| i as u8).collect();
    let mut wire = Vec::new();
    write_frame(&mut wire, &body).unwrap();
    let mut r = Trickle(std::io::Cursor::new(wire), 0);
    let got = read_frame(&mut r).unwrap().unwrap();
    assert_eq!(got, body);
    assert_eq!(
        got.capacity(),
        body.len(),
        "reserved no further than the frame"
    );
    // a length that lies by 1 GiB costs one chunk, then the EOF error
    let mut wire = (MAX_FRAME as u32).to_le_bytes().to_vec();
    wire.extend_from_slice(b"only this");
    let err = read_frame(&mut Trickle(std::io::Cursor::new(wire), 0)).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    assert!(err.to_string().contains("(9/"), "{err}");
}

#[test]
fn oversized_length_rejected_without_allocation() {
    let mut wire = Vec::new();
    wire.extend_from_slice(&u32::MAX.to_le_bytes());
    let err = read_frame(&mut std::io::Cursor::new(wire)).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
}

#[test]
fn truncated_frames_error() {
    // torn header
    let err = read_frame(&mut std::io::Cursor::new(vec![1, 0])).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    // body shorter than the (in-bounds) claimed length: errors after
    // consuming what arrived, no up-front allocation of the claim
    let mut wire = Vec::new();
    wire.extend_from_slice(&(10_000_000u32).to_le_bytes());
    wire.extend_from_slice(b"only this");
    let err = read_frame(&mut std::io::Cursor::new(wire)).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
}

#[test]
fn tagged_frames_roundtrip() {
    let body = encode_request(&Request::Get { key: "k".into() });
    let tagged = tag_request(u64::MAX - 3, &body);
    let (id, back) = split_tagged(&tagged).unwrap();
    assert_eq!(id, u64::MAX - 3);
    assert_eq!(back, &body[..]);
    // an empty payload still carries its id
    let bare = tag_request(0, &[]);
    let (id, empty) = split_tagged(&bare).unwrap();
    assert_eq!((id, empty.len()), (0, 0));
    // too short to hold an id: protocol violation
    assert!(split_tagged(&[1, 2, 3]).is_none());
}

#[test]
fn corrupt_requests_rejected() {
    assert!(decode_request(&[]).is_err());
    assert!(decode_request(&[200]).is_err());
    // trailing garbage after a valid request
    let mut buf = encode_request(&Request::Ping);
    buf.push(0);
    assert!(decode_request(&buf).is_err());
    // lying request count
    let mut buf = encode_request(&Request::Execute {
        gap_tolerance: 0,
        requests: Vec::new(),
    });
    buf.truncate(buf.len() - 4);
    put_u32(&mut buf, u32::MAX);
    assert!(decode_request(&buf).is_err());
    // 9 was `GetMany` until generation 4: reserved, not reused
    let mut buf = vec![9];
    put_u32(&mut buf, 0);
    assert_eq!(decode_request(&buf).unwrap_err().0, "unknown opcode 9");
}
