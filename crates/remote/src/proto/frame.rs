//! Framing: one length-prefixed frame per message, and the correlation-id
//! tag a pipelined connection puts in front of every payload.

use std::io::Read;

/// Hard upper bound on one frame's payload (1 GiB). Far above any chunk
/// batch the loader issues, far below an allocation that could take the
/// process down.
pub const MAX_FRAME: usize = 1 << 30;

/// Incremental read granularity while receiving a frame body (64 KiB):
/// memory grows with bytes received, not with the claimed length.
pub const READ_CHUNK: usize = 64 * 1024;

// ---------------------------------------------------------------------
// pipelined (correlation-id) framing
// ---------------------------------------------------------------------

/// Prefix `payload` with its 8-byte little-endian correlation id — the
/// frame body both directions use once a connection switched to
/// pipelined mode via [`Request::Pipeline`](super::Request::Pipeline).
pub fn tag_request(id: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&id.to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Split a pipelined frame body into `(correlation id, payload)`.
/// `None` means the frame is too short to carry an id — a protocol
/// violation that must fail the connection (the stream cannot be
/// resynchronized).
pub fn split_tagged(payload: &[u8]) -> Option<(u64, &[u8])> {
    if payload.len() < 8 {
        return None;
    }
    let id = u64::from_le_bytes(payload[..8].try_into().unwrap());
    Some((id, &payload[8..]))
}

// ---------------------------------------------------------------------
// framing
// ---------------------------------------------------------------------

/// Write one frame (length prefix + payload) and flush. A payload over
/// [`MAX_FRAME`] is refused up front — truncating the length header
/// would desynchronize the stream for every later frame. Header and
/// payload leave in one vectored write, so a frame is one syscall (and
/// one wake-up of the peer), not two.
pub fn write_frame(w: &mut impl std::io::Write, payload: &[u8]) -> std::io::Result<()> {
    let len = frame_len(payload.len())?;
    write_head_and_payload(w, &len.to_le_bytes(), payload)
}

/// Write one pipelined frame, `[len][id][payload]`, and flush: the bytes
/// of `write_frame(w, &tag_request(id, payload))` without building that
/// intermediate copy of the payload.
pub fn write_tagged_frame(
    w: &mut impl std::io::Write,
    id: u64,
    payload: &[u8],
) -> std::io::Result<()> {
    let len = frame_len(payload.len().saturating_add(8))?;
    let mut head = [0u8; 12];
    head[..4].copy_from_slice(&len.to_le_bytes());
    head[4..].copy_from_slice(&id.to_le_bytes());
    write_head_and_payload(w, &head, payload)
}

/// `len` as a length header, refused when over [`MAX_FRAME`].
fn frame_len(len: usize) -> std::io::Result<u32> {
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("payload of {len} bytes exceeds the {MAX_FRAME}-byte frame cap"),
        ));
    }
    Ok(len as u32)
}

/// `write_all` over two buffers: one `write_vectored` call when the
/// writer takes everything, resumed after a short write or `Interrupted`.
fn write_head_and_payload(
    w: &mut impl std::io::Write,
    mut head: &[u8],
    mut payload: &[u8],
) -> std::io::Result<()> {
    while !head.is_empty() || !payload.is_empty() {
        let bufs = [std::io::IoSlice::new(head), std::io::IoSlice::new(payload)];
        match w.write_vectored(&bufs) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "failed to write whole frame",
                ))
            }
            Ok(n) => {
                let of_head = n.min(head.len());
                head = &head[of_head..];
                payload = &payload[n - of_head..];
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// Read one frame's payload. Returns `Ok(None)` on a clean EOF at a
/// frame boundary (the peer closed between frames); any other shortfall
/// is an error. A length header beyond [`MAX_FRAME`] is rejected before
/// allocation, and the buffer grows in [`READ_CHUNK`] steps so memory
/// tracks bytes actually received.
pub fn read_frame(r: &mut impl std::io::Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut first = [0u8; 1];
    loop {
        match r.read(&mut first) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    read_frame_after(r, first[0]).map(Some)
}

/// Read the remainder of a frame whose first header byte has already
/// been consumed (see the server's idle/read-timeout handling: only the
/// wait for a frame's *first* byte may time out recoverably — once any
/// byte is consumed, a timeout must fail the connection, because the
/// partial read cannot be resumed without desynchronizing the stream).
pub fn read_frame_after(r: &mut impl std::io::Read, first: u8) -> std::io::Result<Vec<u8>> {
    let mut header = [first, 0, 0, 0];
    let mut filled = 1;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "eof inside frame header",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(header) as usize;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    // read straight into the payload's spare capacity, never zeroed
    // first: the buffer reserves at most READ_CHUNK beyond the bytes
    // already arrived, and only once every byte reserved before has
    // arrived, so a lying length cannot allocate ahead of the data
    let mut payload = Vec::new();
    while payload.len() < len {
        let step = (len - payload.len()).min(READ_CHUNK);
        payload.reserve_exact(step);
        if (&mut *r).take(step as u64).read_to_end(&mut payload)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                format!("eof inside frame body ({}/{len} bytes)", payload.len()),
            ));
        }
    }
    Ok(payload)
}
