//! # deeplake-hub
//!
//! The multi-dataset serving hub: one deployment serving many datasets
//! to many concurrent training jobs — the paper's lakehouse positioning
//! ("heavy traffic from millions of users") applied to the PR-4 serving
//! tier, which mounted exactly one dataset per server and spent one OS
//! thread per connection.
//!
//! Three subsystems, layered between storage and the wire:
//!
//! ```text
//!  clients (RemoteProvider)            deeplake-hub
//!        │  Hello/Attach       ┌──────────────────────────────┐
//!        ├────── frames ──────▶│ event loops (1-2 threads,    │
//!        │  (many conns per    │  epoll: ALL conns; framing,  │
//!        │   loop; pipelined   │  control ops, cache hits,    │
//!        │   ids or one by one)│  backpressure)               │
//!        │                     │     │ bounded job queue      │──Busy on overload
//!        │                     │     ▼                        │
//!        │                     │ worker pool (N threads)      │
//!        │                     │     │                        │
//!        │                     │ ┌───┴────────┐ ┌─────────┐   │
//!        ◀────── frames ───────│ │  registry  │ │ result  │   │
//!          (flushed by the     │ │ name→store │ │  cache  │   │
//!           owning loop, never │ └───┬────────┘ └────┬────┘   │
//!           by a pool worker)  └─────┼───────────────┼────────┘
//!                                mounted providers   └─ (dataset, version,
//!                               (PrefixProvider         canonical TQL,
//!                                namespaces, any        options) → encoded
//!                                backend)               response frame
//! ```
//!
//! * **[`registry`]** — named datasets behind one listener. Clients
//!   `Attach(name)` once per connection and then use every existing
//!   provider method, TQL offload and loader *unchanged*; unattached
//!   connections fall back to a default mount, which is how a
//!   single-dataset server is one call on the hub runtime
//!   (`Hub::builder().default_mount(p).bind(addr)`). A mount also holds
//!   one opened `Dataset` per queried reference, shared by every query
//!   (and pool worker) until a write through the hub, an explicit
//!   invalidation or an unmount drops it with the head memo.
//! * **[`hub`]** — the event-loop reader tier and the bounded worker
//!   pool: options, builder, handle and shutdown in `hub.rs`, the request
//!   path in four parts beside it — `conn.rs` (one connection as a pure
//!   state machine: no socket, no clock), `sched.rs` (bounded queue and
//!   the `Busy` policy), `dispatch/` (what a frame becomes: control op,
//!   loop-side cache hit, or pool job) and `driver.rs` (the only part
//!   that holds sockets, the poller and a clock).
//!   One or two reader threads multiplex *every* connection via
//!   readiness notification (epoll through the `polling` stand-in):
//!   they frame, decode, answer control ops and *result-cache hits*
//!   inline, and push every other data op onto one bounded queue that N
//!   pool workers drain — so 10 000 idle
//!   connections cost registrations, not parked OS threads, and
//!   storage/query concurrency is bounded by configuration, not by
//!   connection count. Overload is answered with a lossless `Busy`
//!   frame in the request's place in the stream — clients back off,
//!   streams never desynchronize. An untagged connection is served one
//!   request at a time, in order; a pipelined one by correlation id, in
//!   completion order — no fixed order: workers finish out of turn, and
//!   a cache hit overtakes a request still in the pool. Workers never
//!   touch sockets: responses are deposited into per-connection bounded
//!   write queues and flushed by the owning loop — everything queued in
//!   one vectored write — so a peer that stops draining pauses only its
//!   own reads, never a worker.
//! * **[`cache`]** — the version-pinned query-result cache. Keyed by
//!   `(dataset, resolved version, canonical TQL text, options)`, storing
//!   the already-encoded response frame behind an `Arc`. The first
//!   arrival of a text is parsed on a worker, which records `raw text →
//!   canonical key`; every later arrival is answered *on the event loop*
//!   — a head-memo probe, a hash probe of the raw bytes, the shared
//!   frame queued for one vectored write — with no parse, no worker
//!   hand-off and **zero** storage round trips. Writes routed through
//!   the hub invalidate mutable-tip entries (and the raw texts that
//!   point at them); results pinned to committed versions survive,
//!   because committed versions are immutable.
//!
//! ```no_run
//! use std::sync::Arc;
//! use deeplake_hub::Hub;
//! use deeplake_storage::MemoryProvider;
//!
//! let hub = Hub::builder()
//!     .mount("mnist", Arc::new(MemoryProvider::new()))
//!     .mount("laion", Arc::new(MemoryProvider::new()))
//!     .bind("127.0.0.1:0")
//!     .unwrap();
//! println!("{}", hub.describe());
//! // clients: RemoteProvider::connect(hub.addr()) then .attach("mnist")
//! drop(hub); // graceful: drains every in-flight request
//! ```

pub mod cache;
mod conn;
mod dispatch;
mod driver;
pub mod hub;
pub mod registry;
mod sched;

pub use cache::{CacheKey, Frame, ResultCache};
pub use hub::{Hub, HubBuilder, HubHandle, HubOptions, HubStats, PlacementFn};
pub use registry::{DatasetRegistry, Mounted};

#[cfg(test)]
mod allocs;
#[cfg(test)]
mod tests;
