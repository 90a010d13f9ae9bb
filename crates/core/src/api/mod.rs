//! The three BitDew programming interfaces as first-class traits, with a
//! unified error model and the reactive session surface.
//!
//! The paper (§3.3) defines three APIs an application programs against:
//!
//! * [`BitDewApi`] — the data space: `create`/`put`/`get`/`search`/`delete`
//!   plus the attribute language (`create_attribute`);
//! * [`ActiveData`] — attribute-driven scheduling: `schedule`/`pin` and the
//!   data life-cycle events (filtered [`subscribe`](ActiveData::subscribe)
//!   subscriptions and [`add_handler`](ActiveData::add_handler) callbacks);
//! * [`TransferManager`] — non-blocking transfer control: waits, polls and
//!   barriers.
//!
//! The traits are **object-safe** and implemented by both deployments:
//! the threaded [`BitdewNode`](crate::runtime::BitdewNode) (wall-clock time,
//! real protocol transfers) and the virtual-time
//! [`SimNode`](crate::simdriver::SimNode) (discrete-event simulator,
//! flow-level transfers). Application code written against
//! `N: BitDewApi + ActiveData + TransferManager` — the master/worker
//! framework, the examples, scenario drivers — runs unchanged on either.
//!
//! Every operation returns [`Result`], whose error type [`BitdewError`]
//! unifies what used to be a mix of `TransportResult`, storage `DbError` and
//! bare `AttrError` leaking through the node surface. `From` impls exist for
//! each underlying error so service code propagates with `?`;
//! [`BitdewError::is_retryable`] classifies which failures a caller may
//! simply try again.
//!
//! ## The reactive session surface
//!
//! On top of the raw traits sit three pieces (submodules of this module)
//! that decouple submission from completion:
//!
//! * [`Session`] / [`OpFuture`] ([`pipeline`]) — every mutating op returns
//!   a future immediately; ops land in a per-node submission queue drained
//!   in batches (one catalog round-trip / one scheduler lock per batch via
//!   `put_many` / `schedule_many`), so a client keeps thousands of ops in
//!   flight against the sharded service plane;
//! * [`DataHandle`] ([`handle`]) — the paper's object-style bindings:
//!   `handle.put(bytes)`, `handle.schedule(attrs)`, `handle.get()`,
//!   `handle.on_copy(f)`;
//! * [`EventBus`] / [`EventFilter`] / [`EventSub`] ([`bus`]) — the
//!   subscription event bus replacing global event polling, with
//!   per-datum, per-name and per-kind routing to both drainable queues and
//!   [`ActiveDataEventHandler`](crate::events::ActiveDataEventHandler)
//!   callbacks, and explicit [`Backpressure`] modes (block the publisher,
//!   shed the newest, queue unboundedly) with per-subscription
//!   `dropped()`/`blocked()`/`deferred()` accounting. Node-side publishes
//!   (the heartbeat's synchronization round) never park on a full `Block`
//!   subscriber: the
//!   event goes to that subscriber's deferral queue and is retried on the
//!   next round, so one slow consumer cannot stall the sync plane.
//!
//! ## The executor pool and the async façade
//!
//! A threaded session turns on **background mode**
//! ([`Session::start_executor`]; on by default via
//! [`BitdewNode::session`](crate::BitdewNode::session)) by registering
//! with the process-shared [`ExecutorPool`] ([`pool`]): a fixed set of
//! worker threads — default [`std::thread::available_parallelism`], named
//! `bitdew-pool-{i}` — drains every background session of the process. A
//! submission marks its session *ready*; a worker claims the whole
//! session (a flag, not a lock held across round-trips), drains it
//! through the session's serialized flush path, and idle workers steal
//! ready sessions — never individual ops — from each other, so per-datum
//! program order and group-commit batching are exactly the
//! dedicated-thread semantics while the thread count stays flat from 1 to
//! 10k sessions. Batches drain fully asynchronously and futures resolve
//! with no caller-driven pump — batch round-trips overlap application
//! work. [`Session::start_executor_with`] pins the placement
//! ([`ExecutorConfig`]): a private pool with an exact worker count, or
//! the legacy dedicated per-session thread. The simulator keeps the
//! cooperative drain, so the discrete event order is unchanged.
//!
//! The same futures carry an **async façade** with zero runtime
//! dependency: [`OpFuture`] implements [`std::future::Future`] (waker
//! stored in the op slot, woken on resolve), [`EventSub::stream`] yields
//! an async [`EventStream`] of life-cycle events, and [`block_on`] is the
//! minimal park-based executor when the application has none of its own:
//!
//! ```
//! use std::sync::Arc;
//! use bitdew_core::api::block_on;
//! use bitdew_core::{BitdewNode, DataAttributes, RuntimeConfig, ServiceContainer};
//!
//! # fn main() -> bitdew_core::Result<()> {
//! let container = ServiceContainer::start(RuntimeConfig::default());
//! let node = BitdewNode::new_client(Arc::clone(&container));
//! // Background-executor session: the default-on threaded surface.
//! let session = node.session()?;
//! let handle = session.create("awaited", b"payload")?;
//! block_on(async {
//!     handle.put(b"payload").await?;
//!     handle.schedule(DataAttributes::default().with_replica(1)).await
//! })?;
//! # Ok(())
//! # }
//! ```
//!
//! End to end, on the threaded deployment (the same code runs on
//! [`SimNode`](crate::simdriver::SimNode) under virtual time):
//!
//! ```
//! use std::sync::Arc;
//! use std::time::Duration;
//! use bitdew_core::api::{join_all, ActiveData, DataEventKind, EventFilter, Session};
//! use bitdew_core::{BitdewNode, DataAttributes, RuntimeConfig, ServiceContainer};
//!
//! # fn main() -> bitdew_core::Result<()> {
//! let container = ServiceContainer::start(RuntimeConfig::default());
//! let session = Session::new(BitdewNode::new_client(Arc::clone(&container)));
//!
//! // A worker subscribes to copy events instead of polling globally.
//! let worker = BitdewNode::new(Arc::clone(&container));
//! let arrivals = worker.subscribe(EventFilter::kind(DataEventKind::Copy));
//!
//! // Pipelined submission: the puts and schedules all queue, resolve in
//! // batches, and report through their futures.
//! let mut futures = Vec::new();
//! let mut handles = Vec::new();
//! for i in 0..4 {
//!     let payload = vec![i as u8; 2_000];
//!     let handle = session.create(&format!("doc-{i}"), &payload)?;
//!     futures.push(handle.put(&payload));
//!     futures.push(handle.schedule(DataAttributes::default().with_replica(1)));
//!     handles.push(handle);
//! }
//! join_all(futures)?; // one flush: one catalog round-trip, one scheduler lock
//! assert!(session.batches_flushed() <= 2);
//!
//! // The worker reacts to arrivals as the reservoir cache changes.
//! let mut seen = 0;
//! while seen < 4 {
//!     let ev = arrivals
//!         .next_with(&worker, Duration::from_secs(30))?
//!         .expect("copies arrive");
//!     assert_eq!(ev.kind, DataEventKind::Copy);
//!     assert_eq!(ev.host, worker.uid); // events carry the observing host
//!     seen += 1;
//! }
//! # Ok(())
//! # }
//! ```

pub mod bus;
pub mod handle;
pub mod pipeline;
pub mod pool;

pub use bus::{Backpressure, EventBus, EventFilter, EventStream, EventSub, HandlerId, NextEvent};
pub use handle::{DataHandle, VersionUpdate};
pub use pipeline::{block_on, join_all, OpFuture, Session, DEFAULT_BATCH_LIMIT, ERROR_SINK_CAP};
pub use pool::{ExecutorConfig, ExecutorPool, PoolHandle};

use std::time::Duration;

use bitdew_storage::{CodecError, DbError};
use bitdew_transport::{StoreError, TransportError};

use crate::attr::DataAttributes;
use crate::attrparse::AttrError;
use crate::chunks::{ChunkHoldings, ChunkManifest};
use crate::data::{Data, DataId};
use crate::services::scheduler::HostUid;
use crate::services::transfer::{TransferId, TransferState};
use crate::versions::{GcReport, Snapshot, VersionedManifest};

/// Unified error type for every BitDew API operation.
#[derive(Debug)]
pub enum BitdewError {
    /// An out-of-band transfer or fabric operation failed.
    Transport(TransportError),
    /// The catalog's database engine failed.
    Storage(DbError),
    /// A local or repository content store failed.
    Store(StoreError),
    /// An attribute definition failed to parse or resolve.
    AttrParse(AttrError),
    /// A datum, locator or transfer the operation needs is not known.
    CatalogMiss {
        /// What was looked up and missed.
        what: String,
    },
    /// The Data Scheduler rejected or could not honor an operation.
    Scheduler {
        /// What went wrong.
        what: String,
    },
    /// A wait or barrier exceeded its deadline.
    Timeout {
        /// What was being waited for.
        what: String,
        /// How long the caller waited.
        waited: Duration,
    },
    /// A chunk failed verification against its manifest digest
    /// (the chunked data plane's per-chunk CRC32 check).
    ChunkDigest {
        /// Object the chunk belongs to.
        object: String,
        /// Index of the offending chunk.
        index: u32,
    },
    /// The OS refused a runtime resource the operation needs — a heartbeat
    /// or session-executor thread could not be spawned.
    Spawn {
        /// What failed to spawn, with the OS error.
        what: String,
    },
    /// A version commit lost the per-datum head CAS to an overlapping
    /// concurrent writer: a version committed after the writer's base
    /// changed at least one of the same chunks. Retryable — re-read the
    /// head and resubmit the update against it.
    VersionConflict {
        /// The head version the datum had when the commit was refused.
        head: u64,
        /// The stale base version the writer committed against.
        attempted: u64,
    },
}

impl std::fmt::Display for BitdewError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BitdewError::Transport(e) => write!(f, "transport: {e}"),
            BitdewError::Storage(e) => write!(f, "storage: {e}"),
            BitdewError::Store(e) => write!(f, "store: {e}"),
            BitdewError::AttrParse(e) => write!(f, "{e}"),
            BitdewError::CatalogMiss { what } => write!(f, "not in catalog: {what}"),
            BitdewError::Scheduler { what } => write!(f, "scheduler: {what}"),
            BitdewError::Timeout { what, waited } => {
                write!(f, "timed out after {waited:?} waiting for {what}")
            }
            BitdewError::ChunkDigest { object, index } => {
                write!(f, "chunk {index} of `{object}` failed digest verification")
            }
            BitdewError::Spawn { what } => write!(f, "failed to spawn {what}"),
            BitdewError::VersionConflict { head, attempted } => {
                write!(
                    f,
                    "version conflict: update against version {attempted} overlaps \
                     a chunk changed since (head is now {head}); re-read and retry"
                )
            }
        }
    }
}

impl BitdewError {
    /// Whether simply retrying the failed operation can plausibly succeed.
    ///
    /// Retryable: transport failures (the remote may come back, another
    /// locator may serve), timeouts (the wait can be re-issued), chunk
    /// digest mismatches (a re-fetch from another source heals them),
    /// catalog misses (content/locators often just haven't been `put`
    /// yet — the reservoir loop itself retries these every sync), spawn
    /// failures (thread exhaustion is transient) and version conflicts
    /// (re-reading the head and recomputing the update succeeds once the
    /// competing writer's commit is visible).
    ///
    /// Not retryable: attribute parse errors and scheduler refusals
    /// (deterministic rejections of the same input) and storage/store
    /// engine failures (a corrupt snapshot does not heal by re-reading).
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            BitdewError::Transport(_)
                | BitdewError::Timeout { .. }
                | BitdewError::ChunkDigest { .. }
                | BitdewError::CatalogMiss { .. }
                | BitdewError::Spawn { .. }
                | BitdewError::VersionConflict { .. }
        )
    }
}

impl std::error::Error for BitdewError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BitdewError::Transport(e) => Some(e),
            BitdewError::Storage(e) => Some(e),
            BitdewError::Store(e) => Some(e),
            BitdewError::AttrParse(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TransportError> for BitdewError {
    fn from(e: TransportError) -> BitdewError {
        BitdewError::Transport(e)
    }
}

impl From<DbError> for BitdewError {
    fn from(e: DbError) -> BitdewError {
        BitdewError::Storage(e)
    }
}

/// A stored record that does not decode is a storage failure.
impl From<CodecError> for BitdewError {
    fn from(e: CodecError) -> BitdewError {
        BitdewError::Storage(e.into())
    }
}

impl From<StoreError> for BitdewError {
    fn from(e: StoreError) -> BitdewError {
        BitdewError::Store(e)
    }
}

impl From<AttrError> for BitdewError {
    fn from(e: AttrError) -> BitdewError {
        BitdewError::AttrParse(e)
    }
}

/// Crate-wide result type: every public BitDew operation returns this.
pub type Result<T> = std::result::Result<T, BitdewError>;

/// A data life-cycle event observed on a node, as delivered through the
/// subscription bus ([`ActiveData::subscribe`], [`ActiveData::add_handler`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DataEvent {
    /// Which life-cycle transition happened.
    pub kind: DataEventKind,
    /// The datum concerned.
    pub data: Data,
    /// The attributes it was scheduled with.
    pub attrs: DataAttributes,
    /// The node whose cache observed the transition — so a handler
    /// aggregating several nodes' events (a master watching its workers)
    /// can tell whose reservoir changed.
    pub host: HostUid,
}

/// The three life-cycle transitions of §3.3's ActiveData events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataEventKind {
    /// The datum was scheduled into the data space (`onDataCreate`).
    Create,
    /// The datum finished copying into this node's cache (`onDataCopy`).
    Copy,
    /// The datum became obsolete and left this node's cache
    /// (`onDataDelete`).
    Delete,
}

/// The *BitDew* API (§3.3): explicit data-space management.
///
/// Object-safe; implemented by the threaded runtime and the simulator
/// adapter.
pub trait BitDewApi {
    /// Create a datum describing `content` and register it in the catalog.
    /// The content itself is not moved until [`BitDewApi::put`].
    fn create_data(&self, name: &str, content: &[u8]) -> Result<Data>;

    /// Create an empty slot of declared `size` (content produced later or
    /// remotely; a zero-size slot is a pure marker like §5's Collector).
    fn create_slot(&self, name: &str, size: u64) -> Result<Data>;

    /// Batched [`BitDewApi::create_data`]: register the whole batch with
    /// one catalog round-trip per shard (the `register_many` fan-out),
    /// returning the data in input order.
    fn create_many(&self, items: &[(&str, &[u8])]) -> Result<Vec<Data>>;

    /// Copy content into the data space and record locators for it.
    fn put(&self, data: &Data, content: &[u8]) -> Result<()>;

    /// Batched [`BitDewApi::put`]: one catalog round-trip for the whole
    /// batch instead of one per locator.
    fn put_many(&self, items: &[(Data, &[u8])]) -> Result<()>;

    /// Start copying a datum from the data space into this node's local
    /// store. Non-blocking: returns a transfer id for
    /// [`TransferManager::wait_for`].
    fn get(&self, data: &Data) -> Result<TransferId>;

    /// All catalog entries whose name equals `name` (`searchData`).
    fn search(&self, name: &str) -> Result<Vec<Data>>;

    /// Delete a datum everywhere: catalog, repository, scheduler. Reservoir
    /// caches purge it on their next synchronization.
    fn delete(&self, data: &Data) -> Result<()>;

    /// Parse an attribute definition (Listing 1 syntax), resolving symbolic
    /// names against the data space.
    fn create_attribute(&self, src: &str) -> Result<DataAttributes>;

    /// Read the content of a datum this node holds locally (after a
    /// completed `get` or a scheduled copy).
    fn read_local(&self, data: &Data) -> Result<Vec<u8>>;

    /// Write a byte range into a datum's data-space content (fine-grain
    /// update; the chunked plane's write face). The datum must have been
    /// `put` (or created as a slot with content) first.
    fn put_range(&self, data: &Data, offset: u64, content: &[u8]) -> Result<()>;

    /// Read a byte range of a datum straight from the data space, without
    /// copying the whole blob locally (fine-grain access; short only at
    /// EOF).
    fn get_range(&self, data: &Data, offset: u64, len: usize) -> Result<Vec<u8>>;

    /// [`BitDewApi::put`] plus a published
    /// [`ChunkManifest`] describing `content`
    /// as `chunk_size`-sized chunks — the entry point of the chunked data
    /// plane (and of the compute plane, which partitions
    /// [`MapOp`](crate::compute)s over the manifest).
    fn put_chunked(&self, data: &Data, content: &[u8], chunk_size: u64) -> Result<ChunkManifest>;

    /// The published chunk manifest of a datum, if it was
    /// [`put_chunked`](BitDewApi::put_chunked).
    fn chunk_manifest(&self, id: DataId) -> Result<Option<ChunkManifest>>;

    /// Chunk indices of `data` this node verifiably holds right now. A node
    /// whose cache holds the complete (or non-chunked) datum holds every
    /// chunk; a partial holder reports its exact subset.
    fn held_chunks(&self, data: &Data) -> Result<Vec<u32>>;

    /// Fetch the listed chunks of `data` this node is missing, from every
    /// known replica (the compute plane's `missing()`-driven fallback:
    /// a [`MultiSourceFetcher`](crate::chunks::MultiSourceFetcher)
    /// restricted to the requested subset on the threaded runtime, a
    /// flow-counted transfer under the simulator). Returns the bytes that
    /// actually moved — zero when everything requested was already held.
    fn fetch_chunks(&self, data: &Data, chunks: &[u32]) -> Result<u64>;

    /// The scheduler's chunk-holding picture of a datum: Ω full owners
    /// plus partial holders with their exact chunk sets.
    fn chunk_holdings(&self, id: DataId) -> Result<ChunkHoldings>;

    /// Read bytes `[offset, offset+len)` of a datum from this node's
    /// *local* verified chunk store — no network, unlike
    /// [`get_range`](BitDewApi::get_range) which reads from the data
    /// space. This is the compute plane's data-local read path.
    fn get_range_local(&self, data: &Data, offset: u64, len: usize) -> Result<Vec<u8>>;

    /// The current head version of a datum's chunk tree: `0` for data
    /// never [`put_chunked`](BitDewApi::put_chunked), `1` once the base
    /// manifest is published, incremented by every committed update.
    fn version_head(&self, id: DataId) -> Result<u64>;

    /// One row of the version chain: the base manifest read as version 1,
    /// or the `dc_version` delta row for versions ≥ 2. `Ok(None)` when the
    /// version does not exist.
    fn version_manifest(&self, id: DataId, version: u64) -> Result<Option<VersionedManifest>>;

    /// Commit `writes` (`(offset, bytes)` pairs) against version `base` of
    /// a chunked datum, re-digesting only the chunks touched. Succeeds
    /// with the new version id via the per-datum head CAS: if `base` is no
    /// longer the head the commit auto-rebases when its chunks are
    /// untouched since `base`, and fails with a retryable
    /// [`BitdewError::VersionConflict`] when they overlap a later
    /// version's. [`put_range`](BitDewApi::put_range) on chunked data is
    /// this with an internal read-head/retry loop.
    fn commit_update(&self, data: &Data, base: u64, writes: &[(u64, Vec<u8>)]) -> Result<u64>;

    /// Open a [`Snapshot`] pinned to the datum's current head version:
    /// reads through [`get_range_at`](BitDewApi::get_range_at) resolve
    /// every chunk through the version tree at that id, so versions
    /// committed after the snapshot opened stay invisible, and the pin
    /// shields the snapshot's pre-image chunks from
    /// [`gc_versions`](BitDewApi::gc_versions) until it drops.
    fn open_snapshot(&self, data: &Data) -> Result<Snapshot>;

    /// Read bytes `[offset, offset+len)` of a datum *as of* `snap`'s
    /// pinned version: chunks superseded since the snapshot come from
    /// their preserved pre-images, unchanged chunks from the shared
    /// canonical object.
    fn get_range_at(
        &self,
        data: &Data,
        snap: &Snapshot,
        offset: u64,
        len: usize,
    ) -> Result<Vec<u8>>;

    /// Reference-counted GC sweep over a datum's preserved pre-image
    /// chunks: reclaim every chunk unreachable from the head and from all
    /// open snapshots, and report what was freed.
    fn gc_versions(&self, data: &Data) -> Result<GcReport>;
}

/// The *ActiveData* API (§3.3): attribute-driven scheduling and life-cycle
/// events.
pub trait ActiveData {
    /// Put a datum under Data Scheduler management with `attrs`.
    fn schedule(&self, data: &Data, attrs: DataAttributes) -> Result<()>;

    /// Batched [`ActiveData::schedule`]: one scheduler lock acquisition and
    /// one catalog round-trip for the whole batch.
    fn schedule_many(&self, items: &[(Data, DataAttributes)]) -> Result<()>;

    /// Declare this node an owner of `data`, exempt from heartbeat
    /// eviction, and place the datum in the local cache so affinity
    /// dependencies resolve here (the master pins the Collector in §5).
    fn pin(&self, data: &Data, attrs: DataAttributes) -> Result<()>;

    /// Manifest-aware partial pin: declare that this node currently holds
    /// exactly the listed chunks of `data` (indices into its published
    /// [`ChunkManifest`]). Holding every
    /// chunk is a full [`ActiveData::pin`]; holding a subset registers the
    /// node as a *partial* holder, which the Data Scheduler keeps out of
    /// Ω(d) and targets with chunk-level repair instead of a re-download.
    fn pin_chunks(&self, data: &Data, attrs: DataAttributes, held: &[u32]) -> Result<()>;

    /// Open a subscription to this node's life-cycle events matching
    /// `filter` — per-datum, per-name, per-name-prefix and per-kind
    /// routing, lossless delivery, condvar wakeups under threads and
    /// virtual-time delivery under the simulator.
    fn subscribe(&self, filter: EventFilter) -> EventSub;

    /// [`ActiveData::subscribe`] with an explicit [`Backpressure`] mode
    /// governing how the subscription's queue treats a lagging consumer
    /// (block the publisher, shed the newest event, or queue unboundedly).
    fn subscribe_with(&self, filter: EventFilter, backpressure: Backpressure) -> EventSub;

    /// Install a filtered
    /// [`ActiveDataEventHandler`](crate::events::ActiveDataEventHandler)
    /// callback, invoked synchronously as matching events are published
    /// (the paper's `onDataCopyEvent`/`onDataDeleteEvent` registration).
    /// The handler stays attached until
    /// [`remove_handler`](ActiveData::remove_handler) is called with the
    /// returned id.
    fn add_handler(
        &self,
        filter: EventFilter,
        handler: Box<dyn crate::events::ActiveDataEventHandler>,
    ) -> HandlerId;

    /// Detach a handler installed by [`ActiveData::add_handler`], so
    /// per-datum callbacks don't accumulate on a long-running node.
    fn remove_handler(&self, id: HandlerId);

    /// This node's identity in the scheduler's host space.
    fn host_uid(&self) -> HostUid;
}

/// The *TransferManager* API (§3.3): non-blocking transfer control.
pub trait TransferManager {
    /// Block until the transfer is terminal. `Ok(state)` is `Complete` or
    /// `Failed`; unknown ids are a [`BitdewError::CatalogMiss`].
    fn wait_for(&self, id: TransferId) -> Result<TransferState>;

    /// Non-blocking probe: `Ok(None)` while the transfer is still active,
    /// `Ok(Some(state))` once terminal.
    fn try_wait(&self, id: TransferId) -> Result<Option<TransferState>>;

    /// Wait for every listed transfer; returns the terminal states in the
    /// same order. Transfers progress concurrently while the caller waits
    /// on each in turn (threads on the threaded runtime, one virtual clock
    /// under the simulator), so the total wait is the slowest transfer,
    /// not the sum.
    fn wait_all(&self, ids: &[TransferId]) -> Result<Vec<TransferState>> {
        ids.iter().map(|&id| self.wait_for(id)).collect()
    }

    /// Block until every pending scheduled download on this node finished,
    /// running synchronization rounds while waiting. Errors with
    /// [`BitdewError::Timeout`] if `timeout` elapses first (virtual time
    /// under the simulator).
    fn barrier(&self, timeout: Duration) -> Result<()>;

    /// Make one round of progress: synchronize with the Data Scheduler and
    /// advance transfers (one heartbeat of wall-clock or virtual time).
    fn pump(&self) -> Result<()>;

    /// Whether something other than the caller is driving this node's
    /// synchronization (a running heartbeat thread on the threaded
    /// runtime). Waiters use this to park instead of self-pumping —
    /// see [`EventSub::next_with`]. Defaults to `false` (the caller is
    /// the sole driver, as under the simulator).
    fn is_driven(&self) -> bool {
        false
    }

    /// Ids currently in the local cache, sorted.
    fn cached(&self) -> Vec<DataId>;

    /// Whether a datum is in the local cache.
    fn has_cached(&self, id: DataId) -> bool;
}

/// Implement the three API traits for a type by forwarding every method
/// to an existing implementation — the crate's one forwarding layer:
///
/// * `delegate_api!(deref for W)` — a reference or smart pointer `W` over
///   some `N: ?Sized` forwards through `**self`;
/// * `delegate_api!(inherent for T)` — a concrete type forwards to its own
///   inherent methods of the same names. `<T>::name(self, ..)` prefers an
///   inherent method over the trait's, so were one missing or renamed the
///   call would resolve to the trait method being defined and recurse; the
///   crate's `#![deny(unconditional_recursion)]` makes that a build error.
///
/// Of the provided methods only `is_driven` is forwarded (its answer is
/// the backend's); `wait_all` keeps its one default body, which runs over
/// the forwarded `wait_for`.
macro_rules! delegate_api {
    (deref for $wrapper:ty) => {
        delegate_api!(@impls [N] $wrapper, (deref));
    };
    (inherent for $ty:ty) => {
        delegate_api!(@impls [] $ty, (inherent $ty));
    };
    (@call (deref), $s:ident.$m:ident($($a:ident),*)) => {
        (**$s).$m($($a),*)
    };
    (@call (inherent $ty:ty), $s:ident.$m:ident($($a:ident),*)) => {
        <$ty>::$m($s $(, $a)*)
    };
    (@impls [$($n:ident)?] $ty:ty, $via:tt) => {
        impl<$($n: BitDewApi + ?Sized)?> BitDewApi for $ty {
            fn create_data(&self, name: &str, content: &[u8]) -> Result<Data> {
                delegate_api!(@call $via, self.create_data(name, content))
            }
            fn create_slot(&self, name: &str, size: u64) -> Result<Data> {
                delegate_api!(@call $via, self.create_slot(name, size))
            }
            fn create_many(&self, items: &[(&str, &[u8])]) -> Result<Vec<Data>> {
                delegate_api!(@call $via, self.create_many(items))
            }
            fn put(&self, data: &Data, content: &[u8]) -> Result<()> {
                delegate_api!(@call $via, self.put(data, content))
            }
            fn put_many(&self, items: &[(Data, &[u8])]) -> Result<()> {
                delegate_api!(@call $via, self.put_many(items))
            }
            fn get(&self, data: &Data) -> Result<TransferId> {
                delegate_api!(@call $via, self.get(data))
            }
            fn search(&self, name: &str) -> Result<Vec<Data>> {
                delegate_api!(@call $via, self.search(name))
            }
            fn delete(&self, data: &Data) -> Result<()> {
                delegate_api!(@call $via, self.delete(data))
            }
            fn create_attribute(&self, src: &str) -> Result<DataAttributes> {
                delegate_api!(@call $via, self.create_attribute(src))
            }
            fn read_local(&self, data: &Data) -> Result<Vec<u8>> {
                delegate_api!(@call $via, self.read_local(data))
            }
            fn put_range(&self, data: &Data, offset: u64, content: &[u8]) -> Result<()> {
                delegate_api!(@call $via, self.put_range(data, offset, content))
            }
            fn get_range(&self, data: &Data, offset: u64, len: usize) -> Result<Vec<u8>> {
                delegate_api!(@call $via, self.get_range(data, offset, len))
            }
            fn put_chunked(
                &self,
                data: &Data,
                content: &[u8],
                chunk_size: u64,
            ) -> Result<ChunkManifest> {
                delegate_api!(@call $via, self.put_chunked(data, content, chunk_size))
            }
            fn chunk_manifest(&self, id: DataId) -> Result<Option<ChunkManifest>> {
                delegate_api!(@call $via, self.chunk_manifest(id))
            }
            fn held_chunks(&self, data: &Data) -> Result<Vec<u32>> {
                delegate_api!(@call $via, self.held_chunks(data))
            }
            fn fetch_chunks(&self, data: &Data, chunks: &[u32]) -> Result<u64> {
                delegate_api!(@call $via, self.fetch_chunks(data, chunks))
            }
            fn chunk_holdings(&self, id: DataId) -> Result<ChunkHoldings> {
                delegate_api!(@call $via, self.chunk_holdings(id))
            }
            fn get_range_local(&self, data: &Data, offset: u64, len: usize) -> Result<Vec<u8>> {
                delegate_api!(@call $via, self.get_range_local(data, offset, len))
            }
            fn version_head(&self, id: DataId) -> Result<u64> {
                delegate_api!(@call $via, self.version_head(id))
            }
            fn version_manifest(
                &self,
                id: DataId,
                version: u64,
            ) -> Result<Option<VersionedManifest>> {
                delegate_api!(@call $via, self.version_manifest(id, version))
            }
            fn commit_update(
                &self,
                data: &Data,
                base: u64,
                writes: &[(u64, Vec<u8>)],
            ) -> Result<u64> {
                delegate_api!(@call $via, self.commit_update(data, base, writes))
            }
            fn open_snapshot(&self, data: &Data) -> Result<Snapshot> {
                delegate_api!(@call $via, self.open_snapshot(data))
            }
            fn get_range_at(
                &self,
                data: &Data,
                snap: &Snapshot,
                offset: u64,
                len: usize,
            ) -> Result<Vec<u8>> {
                delegate_api!(@call $via, self.get_range_at(data, snap, offset, len))
            }
            fn gc_versions(&self, data: &Data) -> Result<GcReport> {
                delegate_api!(@call $via, self.gc_versions(data))
            }
        }

        impl<$($n: ActiveData + ?Sized)?> ActiveData for $ty {
            fn schedule(&self, data: &Data, attrs: DataAttributes) -> Result<()> {
                delegate_api!(@call $via, self.schedule(data, attrs))
            }
            fn schedule_many(&self, items: &[(Data, DataAttributes)]) -> Result<()> {
                delegate_api!(@call $via, self.schedule_many(items))
            }
            fn pin(&self, data: &Data, attrs: DataAttributes) -> Result<()> {
                delegate_api!(@call $via, self.pin(data, attrs))
            }
            fn pin_chunks(&self, data: &Data, attrs: DataAttributes, held: &[u32]) -> Result<()> {
                delegate_api!(@call $via, self.pin_chunks(data, attrs, held))
            }
            fn subscribe(&self, filter: EventFilter) -> EventSub {
                delegate_api!(@call $via, self.subscribe(filter))
            }
            fn subscribe_with(&self, filter: EventFilter, backpressure: Backpressure) -> EventSub {
                delegate_api!(@call $via, self.subscribe_with(filter, backpressure))
            }
            fn add_handler(
                &self,
                filter: EventFilter,
                handler: Box<dyn crate::events::ActiveDataEventHandler>,
            ) -> HandlerId {
                delegate_api!(@call $via, self.add_handler(filter, handler))
            }
            fn remove_handler(&self, id: HandlerId) {
                delegate_api!(@call $via, self.remove_handler(id))
            }
            fn host_uid(&self) -> HostUid {
                delegate_api!(@call $via, self.host_uid())
            }
        }

        impl<$($n: TransferManager + ?Sized)?> TransferManager for $ty {
            fn wait_for(&self, id: TransferId) -> Result<TransferState> {
                delegate_api!(@call $via, self.wait_for(id))
            }
            fn try_wait(&self, id: TransferId) -> Result<Option<TransferState>> {
                delegate_api!(@call $via, self.try_wait(id))
            }
            fn barrier(&self, timeout: Duration) -> Result<()> {
                delegate_api!(@call $via, self.barrier(timeout))
            }
            fn pump(&self) -> Result<()> {
                delegate_api!(@call $via, self.pump())
            }
            fn is_driven(&self) -> bool {
                delegate_api!(@call $via, self.is_driven())
            }
            fn cached(&self) -> Vec<DataId> {
                delegate_api!(@call $via, self.cached())
            }
            fn has_cached(&self, id: DataId) -> bool {
                delegate_api!(@call $via, self.has_cached(id))
            }
        }
    };
}

delegate_api!(deref for &N);
delegate_api!(deref for std::sync::Arc<N>);
delegate_api!(inherent for crate::runtime::BitdewNode);

#[cfg(test)]
mod tests {
    use super::*;

    // The traits must stay object-safe: the whole point of the redesign is
    // that deployments are interchangeable behind a common surface.
    #[test]
    fn traits_are_object_safe() {
        fn _takes_bitdew(_: &dyn BitDewApi) {}
        fn _takes_active(_: &dyn ActiveData) {}
        fn _takes_transfer(_: &dyn TransferManager) {}
        fn _boxed(_: Box<dyn BitDewApi>, _: Box<dyn ActiveData>, _: Box<dyn TransferManager>) {}
        // Both backends, and the wrappers applications hold them through,
        // carry all three traits.
        fn _all_three<N: BitDewApi + ActiveData + TransferManager>() {}
        _all_three::<crate::runtime::BitdewNode>();
        _all_three::<&crate::runtime::BitdewNode>();
        _all_three::<std::sync::Arc<crate::runtime::BitdewNode>>();
        _all_three::<crate::simdriver::SimNode>();
    }

    #[test]
    fn from_conversions_preserve_sources() {
        let e: BitdewError = TransportError::ChecksumMismatch.into();
        assert!(matches!(
            e,
            BitdewError::Transport(TransportError::ChecksumMismatch)
        ));
        assert!(std::error::Error::source(&e).is_some());

        let e: BitdewError = DbError::CorruptSnapshot("magic").into();
        assert!(matches!(
            e,
            BitdewError::Storage(DbError::CorruptSnapshot("magic"))
        ));

        let e: BitdewError = AttrError {
            message: "bad".into(),
            offset: Some(3),
        }
        .into();
        match &e {
            BitdewError::AttrParse(inner) => {
                assert_eq!(inner.offset, Some(3));
                assert!(e.to_string().contains("bad"));
            }
            other => panic!("wrong variant {other:?}"),
        }

        let e: BitdewError = StoreError::NotFound("x".into()).into();
        assert!(matches!(e, BitdewError::Store(_)));
    }

    #[test]
    fn display_is_informative() {
        let e = BitdewError::Timeout {
            what: "barrier".into(),
            waited: Duration::from_secs(3),
        };
        let s = e.to_string();
        assert!(s.contains("barrier") && s.contains("3s"), "{s}");
        let e = BitdewError::CatalogMiss {
            what: "locator for d1".into(),
        };
        assert!(e.to_string().contains("locator for d1"));
        let e = BitdewError::Scheduler {
            what: "replica -7 out of range".into(),
        };
        assert!(e.to_string().contains("replica -7"));
    }
}
