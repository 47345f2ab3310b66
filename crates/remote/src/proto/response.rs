//! Responses: the status byte, the `resp_*` builders a server answers
//! with and the `expect_*` decoders a client reads them back through.

use super::*;

// response status bytes
/// Success; body is op-specific.
pub const STATUS_OK: u8 = 0;
/// A [`StorageError`] follows, losslessly encoded.
pub const STATUS_STORAGE_ERR: u8 = 1;
/// A query failed server-side; body is the rendered error message.
pub const STATUS_QUERY_ERR: u8 = 2;
/// The server could not understand the request; body is a message.
pub const STATUS_PROTO_ERR: u8 = 3;
/// The server is at capacity (worker queue full or per-connection
/// in-flight cap hit); body is a human-readable hint. The request was
/// NOT executed, and the response slot is preserved in order — the
/// stream stays synchronized, so the client can simply back off and
/// retry.
pub const STATUS_BUSY: u8 = 4;

// ---------------------------------------------------------------------
// response builders (server side)
// ---------------------------------------------------------------------

/// `STATUS_OK` with an empty body.
pub fn resp_unit() -> Vec<u8> {
    vec![STATUS_OK]
}

/// `STATUS_OK` carrying raw object bytes.
pub fn resp_bytes(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + 8 + data.len());
    out.push(STATUS_OK);
    put_bytes(&mut out, data);
    out
}

/// `STATUS_OK` carrying a boolean.
pub fn resp_bool(v: bool) -> Vec<u8> {
    vec![STATUS_OK, v as u8]
}

/// `STATUS_OK` carrying a `u64`.
pub fn resp_u64(v: u64) -> Vec<u8> {
    let mut out = vec![STATUS_OK];
    put_u64(&mut out, v);
    out
}

/// `STATUS_OK` carrying a string.
pub fn resp_str(s: &str) -> Vec<u8> {
    let mut out = vec![STATUS_OK];
    put_str(&mut out, s);
    out
}

/// `STATUS_OK` carrying a key listing.
pub fn resp_list(keys: &[String]) -> Vec<u8> {
    let mut out = vec![STATUS_OK];
    put_u32(&mut out, keys.len() as u32);
    for k in keys {
        put_str(&mut out, k);
    }
    out
}

/// `STATUS_OK` carrying an executed plan's outcome: the slot count, the
/// slots, then the fetch count, in a buffer sized once — per slot a flag
/// and a length header plus an `Ok` slot's bytes — so no slot is copied
/// again by a later one growing the buffer (an error slot's text is
/// short and may still grow it).
pub fn resp_execute(fetches: u64, results: &[Result<Bytes, StorageError>]) -> Vec<u8> {
    let slots: usize = results
        .iter()
        .map(|slot| 9 + slot.as_ref().map_or(0, Bytes::len))
        .sum();
    let mut out = Vec::with_capacity(1 + 4 + slots + 8);
    out.push(STATUS_OK);
    put_u32(&mut out, results.len() as u32);
    for slot in results {
        match slot {
            Ok(data) => {
                out.push(0);
                put_bytes(&mut out, data);
            }
            Err(e) => {
                out.push(1);
                put_storage_err(&mut out, e);
            }
        }
    }
    put_u64(&mut out, fetches);
    out
}

/// `STATUS_OK` carrying a cluster placement: the map epoch the answer
/// was computed under, then the addresses of the live replicas owning
/// the dataset (in ring order — clients rotate over them).
pub fn resp_placement(epoch: u64, replicas: &[String]) -> Vec<u8> {
    let mut out = vec![STATUS_OK];
    put_u64(&mut out, epoch);
    put_u32(&mut out, replicas.len() as u32);
    for addr in replicas {
        put_str(&mut out, addr);
    }
    out
}

/// `STATUS_OK` carrying an offloaded query's result.
pub fn resp_query(result: &QueryResult) -> Vec<u8> {
    let mut out = vec![STATUS_OK];
    encode_result(result, &mut out);
    out
}

/// `STATUS_STORAGE_ERR` carrying a lossless [`StorageError`].
pub fn resp_storage_err(e: &StorageError) -> Vec<u8> {
    let mut out = vec![STATUS_STORAGE_ERR];
    put_storage_err(&mut out, e);
    out
}

/// `STATUS_QUERY_ERR` carrying the rendered query error.
pub fn resp_query_err(message: &str) -> Vec<u8> {
    let mut out = vec![STATUS_QUERY_ERR];
    put_str(&mut out, message);
    out
}

/// `STATUS_PROTO_ERR` carrying a protocol violation message.
pub fn resp_proto_err(message: &str) -> Vec<u8> {
    let mut out = vec![STATUS_PROTO_ERR];
    put_str(&mut out, message);
    out
}

/// `STATUS_BUSY` carrying a back-off hint. The request this answers was
/// not executed; the response slot is preserved so the stream never
/// desynchronizes.
pub fn resp_busy(hint: &str) -> Vec<u8> {
    let mut out = vec![STATUS_BUSY];
    put_str(&mut out, hint);
    out
}

/// Answer a [`Request::Hello`]: the server's own version byte on a
/// match, a lossless protocol error naming both generations on a
/// mismatch. Shared by every server implementation so the negotiation
/// semantics cannot drift.
pub fn hello_response(client_version: u8) -> Vec<u8> {
    if client_version == PROTO_VERSION {
        vec![STATUS_OK, PROTO_VERSION]
    } else {
        resp_proto_err(&format!(
            "protocol version {client_version} unsupported (server speaks {PROTO_VERSION})"
        ))
    }
}

/// Decode a `Hello` response into the server's version byte. A mismatch
/// rejected by the server surfaces as the lossless error message
/// [`hello_response`] produced — never as a garbled decode of a
/// misunderstood frame.
pub fn expect_hello(payload: &[u8]) -> Result<u8, StorageError> {
    let mut r = open_response(payload)?;
    let version = r.u8().map_err(proto_err)?;
    r.finish().map_err(proto_err)?;
    Ok(version)
}

// ---------------------------------------------------------------------
// response decoders (client side)
// ---------------------------------------------------------------------

pub(super) fn proto_err(msg: impl std::fmt::Display) -> StorageError {
    StorageError::Io(format!("remote protocol: {msg}"))
}

/// Split a response into `Ok(body reader)` or the decoded error. The
/// storage-error status decodes losslessly; query/protocol statuses map
/// to [`StorageError::Io`] (they have no storage-level meaning).
pub(super) fn open_response(payload: &[u8]) -> Result<WireReader<'_>, StorageError> {
    let mut r = WireReader::new(payload);
    match r.u8().map_err(proto_err)? {
        STATUS_OK => Ok(r),
        STATUS_STORAGE_ERR => Err(take_storage_err(&mut r).map_err(proto_err)?),
        STATUS_QUERY_ERR => Err(proto_err(format!(
            "unexpected query error: {}",
            r.str().map_err(proto_err)?
        ))),
        STATUS_PROTO_ERR => Err(proto_err(r.str().map_err(proto_err)?)),
        STATUS_BUSY => Err(StorageError::Busy(r.str().map_err(proto_err)?)),
        other => Err(proto_err(format!("unknown status {other}"))),
    }
}

/// Decode an empty-body response.
pub fn expect_unit(payload: &[u8]) -> Result<(), StorageError> {
    open_response(payload)?.finish().map_err(proto_err)
}

/// Decode an object-bytes response.
pub fn expect_bytes(payload: &[u8]) -> Result<Bytes, StorageError> {
    let mut r = open_response(payload)?;
    let data = r.bytes().map_err(proto_err)?;
    r.finish().map_err(proto_err)?;
    Ok(data)
}

/// Decode a boolean response.
pub fn expect_bool(payload: &[u8]) -> Result<bool, StorageError> {
    let mut r = open_response(payload)?;
    let v = r.u8().map_err(proto_err)?;
    r.finish().map_err(proto_err)?;
    Ok(v != 0)
}

/// Decode a `u64` response.
pub fn expect_u64(payload: &[u8]) -> Result<u64, StorageError> {
    let mut r = open_response(payload)?;
    let v = r.u64().map_err(proto_err)?;
    r.finish().map_err(proto_err)?;
    Ok(v)
}

/// Decode a string response.
pub fn expect_str(payload: &[u8]) -> Result<String, StorageError> {
    let mut r = open_response(payload)?;
    let s = r.str().map_err(proto_err)?;
    r.finish().map_err(proto_err)?;
    Ok(s)
}

/// Decode a key-listing response.
pub fn expect_list(payload: &[u8]) -> Result<Vec<String>, StorageError> {
    let mut r = open_response(payload)?;
    let count = r.u32().map_err(proto_err)? as usize;
    if count > r.remaining() / 4 {
        return Err(proto_err("listing count exceeds frame"));
    }
    let mut keys = Vec::with_capacity(count);
    for _ in 0..count {
        keys.push(r.str().map_err(proto_err)?);
    }
    r.finish().map_err(proto_err)?;
    Ok(keys)
}

/// Decode a `WhereIs` response into `(map epoch, replica addresses)`.
/// An unknown dataset surfaces as the lossless [`StorageError::NotFound`]
/// the serving node produced; a non-clustered hub as a protocol error.
pub fn expect_placement(payload: &[u8]) -> Result<(u64, Vec<String>), StorageError> {
    let mut r = open_response(payload)?;
    let epoch = r.u64().map_err(proto_err)?;
    let count = r.u32().map_err(proto_err)? as usize;
    // each address costs at least a 4-byte length header
    if count > r.remaining() / 4 {
        return Err(proto_err("replica count exceeds frame"));
    }
    let mut replicas = Vec::with_capacity(count);
    for _ in 0..count {
        replicas.push(r.str().map_err(proto_err)?);
    }
    r.finish().map_err(proto_err)?;
    Ok((epoch, replicas))
}

/// Decode an `Execute` response (`expected` = requests sent): per-slot
/// outcomes plus the backend fetch count the mounted provider reported.
pub fn expect_execute(
    payload: &[u8],
    expected: usize,
) -> Result<(Vec<Result<Bytes, StorageError>>, u64), StorageError> {
    let mut r = open_response(payload)?;
    let count = r.u32().map_err(proto_err)? as usize;
    if count != expected {
        return Err(proto_err(format!(
            "server answered {count} slots for {expected} requests"
        )));
    }
    if count > r.remaining() {
        return Err(proto_err("slot count exceeds frame"));
    }
    let mut results = Vec::with_capacity(count);
    for _ in 0..count {
        match r.u8().map_err(proto_err)? {
            0 => results.push(Ok(r.bytes().map_err(proto_err)?)),
            1 => results.push(Err(take_storage_err(&mut r).map_err(proto_err)?)),
            other => return Err(proto_err(format!("bad slot flag {other}"))),
        }
    }
    let fetches = r.u64().map_err(proto_err)?;
    r.finish().map_err(proto_err)?;
    Ok((results, fetches))
}

/// Bound `count` against the bytes left in the frame, at `min_size`
/// bytes per element, before any allocation.
pub(super) fn bounded_count(
    r: &WireReader<'_>,
    count: usize,
    min_size: usize,
    what: &str,
) -> Result<(), StorageError> {
    if count > r.remaining() / min_size {
        return Err(proto_err(format!("{what} count {count} exceeds frame")));
    }
    Ok(())
}

/// Decode a `Query` response into the [`QueryResult`] the server
/// computed (query errors surface as [`deeplake_tql::TqlError::Remote`]).
pub fn expect_query(payload: &[u8]) -> deeplake_tql::Result<QueryResult> {
    let mut r = WireReader::new(payload);
    match r.u8()? {
        STATUS_OK => {
            let result = decode_result(&mut r)?;
            r.finish()?;
            Ok(result)
        }
        STATUS_QUERY_ERR => Err(deeplake_tql::TqlError::Remote(r.str()?)),
        STATUS_STORAGE_ERR => {
            let e = take_storage_err(&mut r)?;
            Err(deeplake_tql::TqlError::Remote(format!("storage: {e}")))
        }
        STATUS_PROTO_ERR => Err(deeplake_tql::TqlError::Remote(r.str()?)),
        STATUS_BUSY => Err(deeplake_tql::TqlError::Remote(format!(
            "server busy: {}",
            r.str()?
        ))),
        other => Err(deeplake_tql::TqlError::Remote(format!(
            "unknown status {other}"
        ))),
    }
}
