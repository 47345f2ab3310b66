//! # deeplake-remote
//!
//! The client half of the Deep Lake serving tier. The paper positions
//! the format as a lakehouse feeding *many concurrent training clients*;
//! this crate (with its sibling `deeplake-hub`) turns the in-process
//! library into exactly that: a dataset mounted once on a server, served
//! to any number of loaders over a plain-TCP, length-prefixed binary
//! protocol ([`proto`]).
//!
//! [`RemoteProvider`] implements
//! [`StorageProvider`](deeplake_storage::StorageProvider), so a remote
//! dataset opens with the ordinary `Dataset::open(Arc::new(remote))` and
//! every layer above — TQL, the vector index, the dataloader —
//! works unchanged. Two properties make it fast rather than merely
//! correct:
//!
//! * **Batched frames.** The provider's batched methods (`execute`,
//!   `delete_prefix`) map onto single protocol frames, so a loader
//!   task's whole [`ReadPlan`](deeplake_storage::ReadPlan) — the PR-1
//!   scatter-gather path — stays ONE network round trip end to end,
//!   with the coalescing done server-side next to the data. `get_many`
//!   is the trait's provided spelling of `execute`, so it is the same
//!   one `Execute` frame.
//! * **Query offload.** [`RemoteProvider::query`] ships TQL text +
//!   [`QueryOptions`](deeplake_tql::QueryOptions) to the server, which
//!   runs the pruning/top-k executor against its mounted storage and
//!   returns only result rows: a pruned or ANN query costs O(results)
//!   wire traffic instead of O(chunks).
//!
//! [`RemoteOptions::latency`] injects the same deterministic network
//! cost model the simulated cloud provider uses, so benchmarks can show
//! the round-trip arithmetic as wall-clock time without a real WAN.

mod demux;
pub mod proto;
pub mod provider;

pub use provider::{RemoteOptions, RemoteProvider};

#[cfg(test)]
mod tests;
