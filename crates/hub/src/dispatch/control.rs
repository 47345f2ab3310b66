//! Control ops: cheap (no storage I/O) and order-sensitive (`Attach`
//! changes what later requests mean), so the loop answers them inline.
//!
//! **Owns:** one implementation per op — health report, mount, unmount,
//! invalidate, attached-or-default mount resolution — called by both
//! [`HubHandle`](crate::HubHandle) and the wire dispatcher, so the local
//! and the wire form of an op cannot drift.
//!
//! **May not touch:** a mounted provider's data (no storage I/O on the
//! event loop) or a connection's bytes.

use std::sync::Arc;

use deeplake_obs::FlightEvent;
use deeplake_remote::proto::{self, HealthReport};
use deeplake_storage::{DynProvider, PrefixProvider, StorageError};

use crate::conn::ConnShared;
use crate::hub::Shared;
use crate::registry::{DatasetRegistry, Mounted};

/// Key prefix wire-`Mount`ed datasets are namespaced under on the hub's
/// backing store.
const WIRE_MOUNT_PREFIX: &str = "datasets";

/// Uptime, load and the flight-recorder tail.
pub(crate) fn health(shared: &Shared) -> HealthReport {
    let (in_flight, queue_depth, queue_cap) = shared.sched.load();
    HealthReport {
        uptime_ms: shared.started.elapsed().as_millis() as u64,
        in_flight: in_flight as u64,
        queue_depth: queue_depth as u64,
        queue_cap: queue_cap as u64,
        datasets: shared.registry.list(),
        proto_version: proto::PROTO_VERSION,
        tracing: true,
        events: shared.obs.recorder.events(),
    }
}

/// Mount `provider` under `name`.
pub(crate) fn mount(shared: &Shared, name: &str, provider: DynProvider) -> Result<(), String> {
    shared.registry.mount(name, provider)?;
    shared.obs.recorder.record(FlightEvent::MOUNT, 0, name);
    Ok(())
}

/// The wire `Mount`: `dataset` becomes a [`PrefixProvider`] namespace on
/// the hub's backing store.
pub(crate) fn wire_mount(shared: &Shared, dataset: String) -> Result<(), StorageError> {
    let Some(backing) = &shared.backing else {
        return Err(StorageError::Io(
            "this hub has no backing store for wire mounts".into(),
        ));
    };
    DatasetRegistry::valid_name(&dataset).map_err(StorageError::Io)?;
    let scoped = Arc::new(PrefixProvider::new(
        backing.clone(),
        format!("{WIRE_MOUNT_PREFIX}/{dataset}"),
    ));
    match mount(shared, &dataset, scoped) {
        Ok(()) => {
            shared.wire_mounts.lock().insert(dataset);
            Ok(())
        }
        // two clients racing the same wire mount define the IDENTICAL
        // namespace (name → fixed prefix on the backing store), so the
        // loser's re-mount is success — but a name bound to some other
        // backend must not be silently aliased
        Err(_) if shared.wire_mounts.lock().contains(&dataset) => Ok(()),
        Err(e) => Err(StorageError::Io(e)),
    }
}

/// Unmount `name` (storage untouched), dropping its cached results and
/// head memos; returns whether it existed.
pub(crate) fn unmount(shared: &Shared, name: &str) -> bool {
    let Some(mounted) = shared.registry.unmount(name) else {
        return false;
    };
    shared.wire_mounts.lock().remove(name);
    shared.obs.recorder.record(FlightEvent::UNMOUNT, 0, name);
    drop_cached(shared, Some(&mounted), name);
    true
}

/// Drop every cached result and head memo for `name`.
pub(crate) fn invalidate(shared: &Shared, name: &str) {
    drop_cached(shared, shared.registry.get(name).as_deref(), name);
}

fn drop_cached(shared: &Shared, mounted: Option<&Mounted>, name: &str) {
    if let Some(mounted) = mounted {
        mounted.invalidate();
    }
    shared.cache.invalidate_dataset(name);
    shared
        .obs
        .recorder
        .record(FlightEvent::CACHE_INVALIDATE, 0, name);
}

/// The mount `conn`'s requests resolve against — the dataset it attached
/// to, else the default mount — or the frame that refuses a request
/// which has none.
pub(crate) fn attached_mount(shared: &Shared, conn: &ConnShared) -> Result<Arc<Mounted>, Vec<u8>> {
    match &*conn.attached.lock() {
        Some(name) => shared.registry.get(name).ok_or_else(|| not_mounted(name)),
        None => shared.registry.default_mount().ok_or_else(|| {
            proto::resp_proto_err(
                "no dataset attached and the hub has no default mount; send Attach",
            )
        }),
    }
}

fn not_mounted(name: &str) -> Vec<u8> {
    proto::resp_storage_err(&StorageError::NotFound(format!(
        "dataset {name:?} is not mounted"
    )))
}

pub(super) fn attach(shared: &Shared, conn: &ConnShared, dataset: String) -> Vec<u8> {
    if shared.registry.get(&dataset).is_none() {
        return not_mounted(&dataset);
    }
    *conn.attached.lock() = Some(dataset);
    proto::resp_unit()
}

pub(super) fn describe(shared: &Shared, conn: &ConnShared) -> Vec<u8> {
    match attached_mount(shared, conn) {
        Ok(mount) => proto::resp_str(&mount.provider.describe()),
        Err(_) if conn.attached.lock().is_none() => proto::resp_str(&format!(
            "hub({} datasets, no default)",
            shared.registry.len()
        )),
        Err(refusal) => refusal,
    }
}

pub(super) fn where_is(shared: &Shared, dataset: &str) -> Vec<u8> {
    match &shared.placement {
        Some(resolve) => super::answer(resolve(dataset), |(epoch, replicas)| {
            proto::resp_placement(epoch, &replicas)
        }),
        None => proto::resp_proto_err(
            "this hub is not part of a cluster; WhereIs has no placement to answer",
        ),
    }
}
