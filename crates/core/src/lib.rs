//! # bitdew-core
//!
//! The BitDew programmable data-management environment (Fedak, He, Cappello
//! — SC'08), reimplemented in Rust.
//!
//! BitDew aggregates the storage of many volatile desktop-grid nodes into a
//! single data space, Tuple-Space style (§3.1). Programmers tag each datum
//! with five attributes — `replica`, `fault tolerance`, `lifetime`,
//! `affinity`, `transfer protocol` — and the runtime's four services keep
//! reality in line with the attributes.
//!
//! ## The three programming APIs
//!
//! The paper's programming surface is three interfaces, which this crate
//! exposes as the first-class, object-safe traits of [`api`]:
//!
//! * [`BitDewApi`] — explicit data-space management:
//!   `create_data`/`create_slot`/`create_many`, `put`/`put_many`,
//!   non-blocking `get`, `search`, `delete`, and `create_attribute` (the
//!   attribute language of [`attrparse`]).
//! * [`ActiveData`] — attribute-driven scheduling: `schedule`/
//!   `schedule_many`, `pin`, and the data life-cycle events, consumed
//!   through filtered [`subscribe`](ActiveData::subscribe) subscriptions
//!   and [`add_handler`](ActiveData::add_handler) callbacks.
//! * [`TransferManager`] — transfer control: `wait_for`, non-blocking
//!   `try_wait`, batched `wait_all`, `barrier`, and `pump` — waits park on
//!   condvars and wake on completion instead of spin-polling.
//!
//! Each trait method has one definition per backend: `SimNode` implements
//! the traits directly, while `BitdewNode`'s methods are inherent and
//! `api`'s forwarding macro generates its trait impls along with those of
//! `&N` and `Arc<N>`.
//!
//! On top of the traits sits the **reactive session surface** of [`api`]:
//! [`Session`] queues every mutating op and drains in batches (one catalog
//! round-trip / one scheduler lock per batch), each op reporting through
//! an [`OpFuture`]; [`DataHandle`] is the paper's object-style binding
//! (`handle.put(bytes)`, `handle.schedule(attrs)`, `handle.on_copy(f)`);
//! [`EventBus`]/[`EventFilter`]/[`EventSub`] route life-cycle events per
//! datum, per name and per kind, with explicit [`Backpressure`] modes for
//! lagging consumers. Threaded sessions drain on a dedicated **background
//! executor thread** (`Session::start_executor` /
//! [`runtime::BitdewNode::session`]), overlapping batch round-trips with
//! application work; the same tickets expose an async façade —
//! `OpFuture` implements `Future`, [`EventStream`] awaits life-cycle
//! events, [`block_on`] runs either with zero runtime dependency.
//!
//! Two deployments implement all of it:
//!
//! * [`runtime::BitdewNode`] — the threaded runtime: wall-clock heartbeats,
//!   real FTP/HTTP/BitTorrent transfers over the in-process fabric,
//!   condvar event delivery across threads.
//! * [`simdriver::SimNode`] — the discrete-event adapter: virtual-time
//!   heartbeats, max-min-fair flow transfers under `bitdew-sim`, events
//!   delivered as virtual time advances.
//!
//! Application code generic over
//! `N: BitDewApi + ActiveData + TransferManager` (the `bitdew-mw`
//! master/worker framework, the examples, the bench scenario drivers) runs
//! unchanged on either deployment.
//!
//! ## The error model
//!
//! Every public operation returns [`Result`], failing with [`BitdewError`]:
//! one enum covering transport failures, storage-engine failures, content
//! store failures, attribute parse/resolve errors, catalog misses,
//! scheduler refusals, timeouts, and exhausted transfer retries. `From`
//! conversions exist for each wrapped error type
//! (`TransportError`/`DbError`/`StoreError`/`AttrError`), so service
//! plumbing propagates with `?` and callers match one type.
//!
//! ## The D* services and the sharded service plane
//!
//! Behind the APIs sit the four services of §3.4, plain state machines in
//! [`services`]:
//!
//! * **Data Catalog** ([`services::catalog`]) — persistent metadata and
//!   locators; replica locations on volatile hosts live in the DHT-backed
//!   Distributed Data Catalog (`bitdew-dht`).
//! * **Data Repository** ([`services::repository`]) — storage with remote
//!   access behind FTP/HTTP/BitTorrent endpoints.
//! * **Data Transfer** ([`services::transfer`]) — reliable out-of-band
//!   transfer management: monitoring, resume, integrity.
//! * **Data Scheduler** ([`services::scheduler`]) — Algorithm 1: reservoir
//!   hosts heartbeat their cache, the scheduler returns the new cache,
//!   resolving lifetime, affinity, replication and fault tolerance.
//!
//! The paper hosts DC/DR/DS/DT in one service process; this crate goes one
//! step further: the metadata/placement plane (DC + DS) is **horizontally
//! partitioned** by the [`shard`] module. [`shard::ShardRouter`] maps every
//! [`DataId`] onto one of N shards by splitting `bitdew-dht`'s 2^64 ring
//! into equal consistent-hash arcs; [`shard::ShardedPlane`] owns N
//! `(DataCatalog, DataScheduler)` pairs, each with its own database and its
//! own lock, so shards never contend. A reservoir synchronization is
//! fan-out/merge — the host's cache Δk splits by shard, Algorithm 1's two
//! steps run per shard (cross-shard affinity chains and relative lifetimes
//! resolve through a shared registry), and one *global* `MaxDataSchedule`
//! budget is threaded through the shards deterministically, so an N-shard
//! plane converges to the same placements as the paper's monolith
//! (`shards = 1`, the [`RuntimeConfig`] default). Both deployments build
//! the plane: the threaded [`ServiceContainer`] from
//! `RuntimeConfig::shards`, the simulator via
//! [`simdriver::SimBitdew::with_shards`] — where per-shard service latency
//! is charged on parallel shard queues, making the plane's horizontal
//! scaling measurable in virtual time (the `shard_scale` bench).
//!
//! ## The five planes
//!
//! The crate stacks **five planes**, each with its own contract and its
//! own transport posture:
//!
//! 1. **Command plane** — the attribute/scheduler machinery above: sessions
//!    queue ops, Algorithm 1 decides where data should be, life-cycle
//!    events flow back through the bus. Reliable, catalog-backed,
//!    TCP-shaped (the fabric's connection-oriented side).
//! 2. **Data plane** ([`chunks`]) — moves the bytes: every datum can
//!    publish a [`ChunkManifest`] (fixed-size chunk descriptors with CRC32
//!    digests, stored in the catalog beside the locators), nodes store
//!    content through a chunk-granular [`ChunkStore`], and downloads run
//!    as a [`MultiSourceFetcher`] that work-steals chunk ranges across the
//!    repository *and* every announced peer replica, with per-source
//!    pipelining, per-chunk digest verification, and re-queue of chunks
//!    from sources that die mid-transfer. The Data Scheduler is
//!    chunk-aware: a host joins Ω(d) only once it holds every chunk, and a
//!    partially lost replica receives a *repair* order that moves only the
//!    missing chunks. The simulator models the same plane as per-chunk
//!    flows (the `chunk_scale` bench pins multi-source scaling against
//!    single-source FTP and the BitTorrent fluid model).
//! 3. **Compute plane** ([`compute`]) — brings the computation to wherever
//!    the first two planes already put the bytes. A [`MapOp`] — a named
//!    UDF over chunk ranges, registered with [`compute::register`] — is
//!    published as a small `compute.op.*` datum whose attributes carry
//!    `affinity = input` plus the reserved `compute` attribute; Algorithm 1
//!    lands it on the input's holders, where a [`ComputeRunner`] partitions
//!    the chunk universe by ownership, reads its share via
//!    `get_range_local`, and publishes outputs as new catalog data whose
//!    attributes drive the shuffle (the `map_local` bench pins data-local
//!    execution against fetch-then-compute).
//! 4. **Discovery plane** ([`announce`]) — catalog-free liveness and
//!    replica discovery over the fabric's *datagram* side. Hosts emit one
//!    compact BEP-15-style announce per held datum (host uid, data auid,
//!    chunk bitmap, TTL) alongside — then instead of — the TCP catalog
//!    sync; the service-side [`AnnounceServer`] aggregates them into a
//!    TTL-expiring [`HostCache`] feeding the scheduler's Ω/partial-holder
//!    bookkeeping, and peers [`scrape`](AnnounceClient::scrape) each
//!    other's replica lists to find fetch sources without a catalog query.
//!    Best-effort by design: on datagram loss or a disabled UDP plane
//!    everything degrades to the TCP path (the `announce_scale` bench pins
//!    the sync-bytes saving and the 100k-host churn scenario).
//! 5. **Version plane** ([`versions`]) — MVCC on top of the data plane:
//!    a chunked datum's updates commit as an immutable
//!    [`VersionedManifest`] chain (parent id + copy-on-write changed
//!    chunk descriptors, persisted in the `dc_version` catalog table
//!    chained from `dc_manifest`), serialized per datum by a
//!    version-head CAS that lets concurrent **non-overlapping**
//!    `put_range`/`commit_update` writers commit independently
//!    (auto-rebase) while overlapping writers get a retryable
//!    [`BitdewError::VersionConflict`]. Readers open a [`Snapshot`]
//!    pinned to a version id — `get_range_at` and the
//!    [`ComputeRunner`]'s data-local reads resolve every chunk through
//!    the version tree, so in-flight writes are invisible — with
//!    structural sharing of unchanged chunks, `(object, version)`-keyed
//!    pre-image preservation for superseded ones, and a
//!    reference-counted GC sweep ([`gc_versions`](BitDewApi::gc_versions))
//!    reclaiming chunks unreachable from the head and every open
//!    snapshot. The announce plane carries the holder's version id so a
//!    stale-version holder is a repair target, never a counted head
//!    replica (the `version_mutate` bench pins concurrent-writer
//!    throughput against serialized whole-blob republish).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// `delegate_api!(inherent for ..)` resolves `<T>::name(self, ..)` to the trait
// method itself when the inherent method is missing; make that recursion a
// build error rather than a stack overflow at run time.
#![deny(unconditional_recursion)]

pub(crate) mod agent;
pub mod announce;
pub mod api;
pub mod attr;
pub mod attrparse;
pub mod chunks;
pub mod compute;
pub mod data;
pub mod events;
pub mod runtime;
pub mod services;
pub mod shard;
pub mod simdriver;
pub mod versions;

pub use announce::{
    AnnounceClient, AnnounceMsg, AnnounceServer, AnnounceStats, HostCache, ANNOUNCE_ENDPOINT,
    FLAG_COMPLETE, FLAG_SERVING,
};
pub use api::{
    block_on, join_all, ActiveData, Backpressure, BitDewApi, BitdewError, DataEvent, DataEventKind,
    DataHandle, EventBus, EventFilter, EventStream, EventSub, ExecutorConfig, ExecutorPool,
    HandlerId, OpFuture, Result, Session, TransferManager, VersionUpdate,
};
pub use attr::{Attribute, DataAttributes, Lifetime, REPLICA_ALL};
pub use attrparse::{parse_attributes, parse_single, AttrDef, AttrError, ResolveCtx};
pub use chunks::{ChunkDescriptor, ChunkHoldings, ChunkManifest, ChunkStore, MultiSourceFetcher};
pub use compute::{
    op_outputs, ComputeRunner, ComputeStats, MapFn, MapOp, MapPart, MapSpec, COMPUTE_OP_PREFIX,
    COMPUTE_OUT_PREFIX,
};
pub use data::{Data, DataFlags, DataId, Locator, LocatorRef};
pub use events::{ActiveDataEventHandler, CallbackHandler};
pub use runtime::{
    AnnounceConfig, BitdewNode, NodeHandle, RuntimeConfig, ServiceContainer, SyncSummary,
};
pub use services::{DataCatalog, DataRepository, DataScheduler, DataTransfer};
pub use shard::{ShardRouter, ShardedPlane, ShardedScheduler};
pub use versions::{
    GcReport, ResolvedVersion, Snapshot, VersionState, VersionedManifest, VERSION_MAGIC,
};
