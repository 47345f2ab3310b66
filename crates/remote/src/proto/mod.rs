//! The wire protocol shared by the remote client and the dataset server.
//!
//! **Framing.** Every message is one length-prefixed frame: a `u32`
//! little-endian payload length followed by that many payload bytes.
//! The decoder is hardened like the `DLVX` index reader: a length
//! beyond [`MAX_FRAME`] is rejected before any allocation, and the
//! payload buffer grows only as bytes actually arrive (in
//! [`READ_CHUNK`]-sized steps), so a lying length on a truncated or
//! malicious stream can never drive a huge allocation or a panic.
//! A frame is written with one vectored write (header and payload
//! together) and read straight into the buffer it is returned in.
//!
//! **Requests.** A request payload is `[opcode u8][body]`; see
//! [`Request`]. The batched opcodes are the point of the protocol: one
//! `Execute` frame carries an entire
//! [`ReadPlan`](deeplake_storage::ReadPlan)'s requests, so a loader task
//! or query scan that needs dozens of chunks pays ONE network round trip,
//! and one `Query` frame ships TQL text so a pruned or ANN query pays one
//! round trip *total*. Opcode 9 carried the same reads without a gap
//! tolerance (`GetMany`) through generation 3; it is reserved, never
//! reused, and decodes as any unknown opcode does.
//!
//! **Responses.** A response payload is `[status u8][body]`. Storage
//! errors serialize losslessly — a remote `NotFound` decodes into the
//! same [`NotFound`](deeplake_storage::StorageError::NotFound) (naming
//! the same key) the mounted provider would have returned locally.
//!
//! **Pipelined mode.** A connection starts *untagged*: plain
//! request/response. The server answers one request at a time, in the
//! order they were sent — a client may write several frames ahead, but
//! the next one is not looked at until the previous response is
//! committed, so nothing runs in parallel and nothing is ever reordered.
//! Sending [`Request::Pipeline`] switches the connection — the switch
//! response itself is still untagged — and from then on every frame in
//! both directions carries an 8-byte little-endian correlation id before
//! its payload ([`write_tagged_frame`], or [`tag_request`] for a caller
//! that wants the bytes; [`split_tagged`] to read one). Tagged requests run
//! concurrently (up to the server's per-connection in-flight cap, past
//! which it answers `Busy`) and responses arrive in *completion* order:
//! many callers share one socket, a demux reader routes each response to
//! its waiting request by id. The opcode is additive, so untagged peers
//! and hand-rolled test clients keep working unchanged and
//! [`PROTO_VERSION`] stays put.
//!
//! **Tracing.** A client that wants a request's server-side work
//! attributed to its trace wraps the payload in [`Request::Traced`]:
//! `[OP_TRACED][trace id u64][span id u64][inner request]`. The server
//! unwraps, records its spans under the client's ids, and answers the
//! inner request's normal response; a bare, unwrapped frame is served
//! the same way without a parent span. Every generation from 3 on
//! understands the envelope, so a peer that accepted the `Hello` accepts
//! the envelope and no further probing is needed.
//!
//! **Introspection.** [`Request::Metrics`] reads the hub's
//! observability registry back out: counters, gauges, sparse histogram
//! buckets, windowed rates, the slow-query ring and the flight
//! recorder, all machine-readable ([`resp_metrics`] /
//! [`expect_metrics`]); [`Request::Health`] is its lightweight
//! liveness sibling, answering a [`HealthReport`] (uptime, load,
//! mounts, capabilities, recent flight events) that health probers
//! poll without dragging full histograms over the wire. The
//! [`Request::Hello`] handshake is the only compatibility check: a
//! connection exists only after both ends agreed on [`PROTO_VERSION`],
//! so every section of both answers is required, and no decoder
//! tolerates an older layout.

use bytes::Bytes;
use deeplake_obs::{
    FlightEvent, HistogramSnapshot, MetricsSnapshot, RateSnapshot, SlowQueryEntry, SpanRecord,
};
use deeplake_storage::{ReadRequest, StorageError};
use deeplake_tql::wire::{decode_options, decode_result, encode_options, encode_result, WireError};
use deeplake_tql::wire::{put_bytes, put_str, put_u32, put_u64, WireReader, WireResult};
use deeplake_tql::{QueryOptions, QueryResult};

mod frame;
mod introspect;
mod request;
mod response;

pub use frame::*;
pub use introspect::*;
pub use request::*;
pub use response::*;

/// The protocol generation this build speaks. Negotiated by the
/// [`Request::Hello`] handshake: the client's first frame carries its
/// version byte, and a server that speaks a different generation answers
/// a lossless [`STATUS_PROTO_ERR`] naming both versions — instead of
/// silently mis-decoding frames whose layout changed between
/// generations. Bump on any wire-incompatible change. Generation 3 is
/// generation 2 plus the guarantee that the [`Request::Traced`] envelope
/// is understood; generation 4 is generation 3 minus opcode 9, whose
/// reads [`Request::Execute`] already carried.
pub const PROTO_VERSION: u8 = 4;

#[cfg(test)]
mod tests;
