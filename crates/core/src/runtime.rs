//! The threaded BitDew runtime: service container + volatile nodes.
//!
//! This is the deployment the paper's Listing 1 sketches: a service host
//! runs the four D* services; volatile nodes attach with `ComWorld`-style
//! setup, obtain the three APIs, and reservoir agents heartbeat the Data
//! Scheduler, pulling data per Algorithm 1.
//!
//! * [`ServiceContainer`] — the stable node: the sharded DC + DS plane
//!   ([`crate::shard::ShardedPlane`], `RuntimeConfig::shards` partitions;
//!   1 = the paper's monolithic service node) plus DR + DT over the
//!   in-process fabric, with the protocol-dispatching transfer builder.
//! * [`BitdewNode`] — a volatile client/reservoir: local store, cache,
//!   life-cycle event handlers, and the synchronization loop
//!   ([`BitdewNode::sync_once`] / [`BitdewNode::start_heartbeat`]).
//!
//! [`BitdewNode`] implements the three API traits of [`crate::api`] —
//! [`BitDewApi`](crate::api::BitDewApi) (`create_data`/`put`/`get`/
//! `search`/`delete`/`create_attribute`),
//! [`ActiveData`](crate::api::ActiveData) (`schedule`/`pin`/events) and
//! [`TransferManager`](crate::api::TransferManager) (`wait_for`/`try_wait`/
//! `wait_all`/`barrier`) — so application code generic over those traits
//! runs on this threaded deployment or on the simulator adapter unchanged.
//! Every operation returns [`crate::Result`].

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use bitdew_storage::{ConnectionPool, DewDb, EmbeddedDriver};
use bitdew_transport::bittorrent::{self, BtPeer, BtTransfer, LeechConfig};
use bitdew_transport::ftp::{Direction, FtpTransfer};
use bitdew_transport::http::{HttpMethod, HttpTransfer};
use bitdew_transport::oob::{OobTransfer, TransferSpec, TransferStatus};
use bitdew_transport::{Fabric, FileStore, MemStore, ProtocolId, TransportError};
use bitdew_util::Auid;

use bitdew_transport::ftp::{FtpRangeClient, FtpServer};

use crate::agent::{self, Cadence, Holding};
use crate::announce::{AnnounceClient, AnnounceServer, AnnounceStats, FLAG_SERVING, LIVENESS_PING};
use crate::api::{
    Backpressure, BitdewError, DataEvent, DataEventKind, EventBus, EventFilter, EventSub,
    HandlerId, Result, Session,
};
use crate::attr::DataAttributes;
use crate::attrparse;
use crate::chunks::{ChunkHoldings, ChunkManifest, ChunkStore, MultiSourceFetcher};
use crate::data::{Data, DataId, Locator, LocatorRef};
use crate::events::ActiveDataEventHandler;
use crate::services::catalog::DbAccess;
use crate::services::repository::DataRepository;
use crate::services::scheduler::{HostUid, SyncRole};
use crate::services::transfer::{DataTransfer, TransferBuilder, TransferId, TransferState};
use crate::shard::{ShardedPlane, SyncProfile};
use crate::versions::{check_republish, GcReport, Snapshot, VersionPlane, VersionedManifest};

/// Discovery-plane (UDP announce) tuning — see [`crate::announce`].
#[derive(Debug, Clone)]
pub struct AnnounceConfig {
    /// Run the datagram announce plane (`false` = TCP catalog sync only).
    pub enabled: bool,
    /// Announce TTL = `ttl_factor` × heartbeat: how long a claim stays
    /// live in the announce server's host cache without a refresh (0
    /// counts as 1: a claim survives at least one heartbeat). Keep it
    /// above `detector_factor` so announces alone keep a host alive.
    pub ttl_factor: u32,
    /// Every nth heartbeat runs a full TCP catalog sync even while the
    /// announce plane is healthy; the rounds in between send compact
    /// datagrams only (0 and 1 = full sync every round, announce
    /// additive).
    pub full_sync_every: u32,
    /// Listener threads the service container's announce server spawns
    /// (`bitdew-announce-{i}`).
    pub listener_threads: usize,
}

impl Default for AnnounceConfig {
    fn default() -> Self {
        AnnounceConfig {
            enabled: true,
            ttl_factor: 16,
            full_sync_every: 8,
            listener_threads: 2,
        }
    }
}

/// Runtime tuning parameters.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Reservoir heartbeat / DS synchronization period.
    pub heartbeat: Duration,
    /// Failure-detector timeout = `detector_factor` × heartbeat (§4.4: 3×).
    pub detector_factor: u32,
    /// Algorithm 1's `MaxDataSchedule` cap — global across all shards.
    pub max_data_schedule: usize,
    /// DT retry budget per transfer.
    pub max_retries: u32,
    /// Per-node cap on download *sessions* in flight (the TransferManager
    /// "level of transfers concurrency", §3.1). A per-datum transfer is one
    /// session; so is a batch — every whole-object FTP datum one
    /// synchronization round assigns from one source, moved over one
    /// pipelined connection — however many data it carries.
    pub max_concurrent_downloads: usize,
    /// Service-plane shards: the DC + DS are partitioned over this many
    /// consistent-hash shards, each with its own database and its own lock
    /// (see [`crate::shard`]). `1` reproduces the paper's monolithic
    /// service node.
    pub shards: NonZeroUsize,
    /// Discovery-plane (UDP announce) tuning.
    pub announce: AnnounceConfig,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            heartbeat: Duration::from_millis(50),
            detector_factor: 3,
            max_data_schedule: 64,
            max_retries: 3,
            max_concurrent_downloads: 8,
            shards: NonZeroUsize::MIN,
            announce: AnnounceConfig::default(),
        }
    }
}

/// The stable service host.
pub struct ServiceContainer {
    /// The in-process network.
    pub fabric: Fabric,
    /// The sharded DC + DS service plane (N = `config.shards`; one
    /// catalog database and one scheduler lock per shard).
    pub plane: Arc<ShardedPlane>,
    /// Data Repository.
    pub repository: Arc<DataRepository>,
    /// Data Transfer.
    pub transfer: Arc<DataTransfer>,
    config: RuntimeConfig,
    epoch: Instant,
    /// The discovery plane's service side: listener threads draining
    /// announce datagrams into the scheduler (`None` when disabled or
    /// when the OS refused the listener threads — TCP-only then).
    announce: Mutex<Option<AnnounceServer>>,
}

impl ServiceContainer {
    /// Start a container with an in-memory repository store and embedded
    /// pooled databases, one per shard (the common case; Table 2's other
    /// combinations are exercised directly by the bench harness).
    pub fn start(config: RuntimeConfig) -> Arc<ServiceContainer> {
        let fabric = Fabric::new();
        Self::start_on(fabric, MemStore::new(), config)
    }

    /// Start a container on an existing fabric and repository store, with
    /// the default catalog engine (embedded in-memory DewDB behind a
    /// connection pool, one database per shard).
    pub fn start_on(
        fabric: Fabric,
        repo_store: Arc<dyn FileStore>,
        config: RuntimeConfig,
    ) -> Arc<ServiceContainer> {
        Self::start_with_db(fabric, repo_store, config, |_shard| {
            let driver = Arc::new(EmbeddedDriver::new(DewDb::in_memory()));
            DbAccess::Pooled(ConnectionPool::new(driver, 8))
        })
    }

    /// [`ServiceContainer::start_on`] with an explicit per-shard catalog
    /// database factory — how the bench harness runs the service plane on
    /// Table 2's other engine/pooling combinations (e.g. the networked
    /// MySQL-analog engine, where every catalog operation pays a real wire
    /// round trip and batching is measurable).
    pub fn start_with_db(
        fabric: Fabric,
        repo_store: Arc<dyn FileStore>,
        config: RuntimeConfig,
        make_db: impl Fn(usize) -> DbAccess,
    ) -> Arc<ServiceContainer> {
        let timeout = config.heartbeat.as_nanos() as u64 * config.detector_factor as u64;
        let plane = Arc::new(ShardedPlane::new(
            config.shards,
            timeout,
            config.max_data_schedule,
            make_db,
        ));
        let repository = Arc::new(DataRepository::start(&fabric, "dr", repo_store));

        let builder = Self::make_builder(fabric.clone(), Arc::clone(&repository));
        let transfer = DataTransfer::new(builder, config.max_retries);

        let epoch = Instant::now();
        let announce = if config.announce.enabled {
            // The listener shares the failure detector's clock so announce
            // liveness and TTL expiry live on the same timeline. Spawn
            // failure degrades to TCP-only rather than failing startup.
            let clock: Arc<dyn Fn() -> u64 + Send + Sync> =
                Arc::new(move || epoch.elapsed().as_nanos() as u64);
            AnnounceServer::start(
                &fabric,
                Arc::clone(&plane),
                clock,
                config.announce.listener_threads,
            )
            .ok()
        } else {
            None
        };

        Arc::new(ServiceContainer {
            fabric,
            plane,
            repository,
            transfer,
            config,
            epoch,
            announce: Mutex::new(announce),
        })
    }

    /// Nanoseconds since the container started (the runtime clock).
    pub fn now_nanos(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runtime configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// Run the heartbeat failure detector once; returns hosts declared dead.
    pub fn detect_failures(&self) -> Vec<HostUid> {
        let now = self.now_nanos();
        self.plane.scheduler().detect_failures(now)
    }

    /// Current owner set Ω(d) in the Data Scheduler.
    pub fn owners_of(&self, id: DataId) -> Vec<HostUid> {
        self.plane.scheduler().owners_of(id)
    }

    /// The announce server's lifetime counters, when the discovery plane
    /// is running.
    pub fn announce_stats(&self) -> Option<Arc<AnnounceStats>> {
        self.announce.lock().as_ref().map(|s| Arc::clone(s.stats()))
    }

    /// The announce server's TTL-cache view of who currently claims
    /// `data` (empty when the discovery plane is disabled).
    pub fn announce_holders(&self, id: DataId) -> Vec<(HostUid, u8)> {
        let now = self.now_nanos();
        self.announce
            .lock()
            .as_ref()
            .map(|s| {
                s.holders(id, now)
                    .into_iter()
                    .map(|(h, f, _)| (h, f))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Live claims in the announce server's host cache (0 when disabled).
    pub fn announce_cached_claims(&self) -> usize {
        self.announce
            .lock()
            .as_ref()
            .map(|s| s.cached_claims())
            .unwrap_or(0)
    }

    /// Stop the announce listener threads (the discovery plane goes away;
    /// nodes degrade to pure TCP catalog sync). Mainly for tests modeling
    /// a dead tracker.
    pub fn stop_announce(&self) {
        *self.announce.lock() = None;
    }

    /// The protocol-dispatching transfer builder: FTP and HTTP pull from the
    /// locator's endpoint; BitTorrent joins the repository's swarm with a
    /// per-transfer leecher peer (which serves pieces as they arrive).
    fn make_builder(fabric: Fabric, repository: Arc<DataRepository>) -> TransferBuilder {
        let counter = Arc::new(AtomicU64::new(0));
        Arc::new(
            move |data: &Data, locator: &Locator, local: Arc<dyn FileStore>| {
                let spec = transfer_spec(data, locator);
                if locator.protocol == ProtocolId::ftp() {
                    Ok(Box::new(FtpTransfer::new(
                        fabric.clone(),
                        spec,
                        local,
                        Direction::Download,
                    )) as Box<dyn OobTransfer + Send>)
                } else if locator.protocol == ProtocolId::http() {
                    Ok(Box::new(HttpTransfer::new(
                        fabric.clone(),
                        spec,
                        local,
                        HttpMethod::Get,
                    )) as Box<dyn OobTransfer + Send>)
                } else if locator.protocol == ProtocolId::bittorrent() {
                    let torrent = repository.torrent_for(data).ok_or_else(|| {
                        BitdewError::Transport(TransportError::Protocol(format!(
                            "no torrent registered for {}",
                            data.name
                        )))
                    })?;
                    let n = counter.fetch_add(1, Ordering::Relaxed);
                    let listener = format!("bt.leech.{}.{}", data.id.to_canonical(), n);
                    let have = bittorrent::empty_have(&torrent);
                    let peer = BtPeer::start(
                        &fabric,
                        &listener,
                        torrent.clone(),
                        Arc::clone(&local),
                        Arc::clone(&have),
                        8,
                    );
                    let inner = BtTransfer::new(
                        fabric.clone(),
                        torrent,
                        local,
                        have,
                        listener,
                        LeechConfig {
                            seed: n,
                            ..Default::default()
                        },
                    );
                    Ok(Box::new(LeechGuard { _peer: peer, inner }) as Box<dyn OobTransfer + Send>)
                } else {
                    Err(BitdewError::Transport(TransportError::Protocol(format!(
                        "unsupported protocol {}",
                        locator.protocol
                    ))))
                }
            },
        )
    }
}

/// What a protocol transfer of `data` from `locator` moves.
fn transfer_spec(data: &Data, locator: &Locator) -> TransferSpec {
    TransferSpec {
        name: locator.object.clone(),
        bytes: data.size,
        checksum: data.has_checksum().then_some(data.checksum),
        remote: locator.remote.clone(),
    }
}

/// The fabric listener name of `host`'s peer range server.
fn peer_endpoint(host: HostUid) -> String {
    format!("peer.{}.ftp", host.to_canonical())
}

/// The host whose peer range server listens on `remote`, if it is one.
fn peer_of(remote: &str) -> Option<HostUid> {
    Auid::parse_canonical(remote.strip_prefix("peer.")?.strip_suffix(".ftp")?)
}

/// Keeps the leecher's serving daemon alive for the duration of a BitTorrent
/// transfer; delegates the OOB contract to the inner transfer. (The
/// `OobTransfer` trait speaks the transport layer's result type; core's own
/// surface is all [`crate::Result`].)
struct LeechGuard {
    _peer: BtPeer,
    inner: BtTransfer,
}

impl OobTransfer for LeechGuard {
    fn connect(&mut self) -> bitdew_transport::TransportResult<()> {
        self.inner.connect()
    }
    fn disconnect(&mut self) -> bitdew_transport::TransportResult<()> {
        self.inner.disconnect()
    }
    fn probe(&mut self) -> bitdew_transport::TransportResult<TransferStatus> {
        self.inner.probe()
    }
    fn send(&mut self) -> bitdew_transport::TransportResult<()> {
        self.inner.send()
    }
    fn receive(&mut self) -> bitdew_transport::TransportResult<()> {
        self.inner.receive()
    }
}

/// Summary of one reservoir synchronization round.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SyncSummary {
    /// Data whose download just completed (now in cache).
    pub completed: Vec<DataId>,
    /// Data whose download started this round.
    pub started: Vec<DataId>,
    /// Data deleted from the cache this round.
    pub deleted: Vec<DataId>,
}

/// A scheduled download in flight on a node.
struct PendingFetch {
    tid: TransferId,
    /// The download session it travels in: a batch's first member's id,
    /// or its own id when it moves alone.
    session: TransferId,
    data: Data,
    attrs: DataAttributes,
}

/// A volatile node (client or reservoir host).
pub struct BitdewNode {
    /// This node's identity.
    pub uid: HostUid,
    container: Arc<ServiceContainer>,
    local: Arc<dyn FileStore>,
    /// Chunk-granular view of `local` (presence tracking + verified range
    /// admission) — the node's face of the chunked data plane.
    chunk_store: Arc<ChunkStore>,
    cache: Mutex<HashMap<DataId, (Data, DataAttributes)>>,
    pending: Mutex<HashMap<DataId, PendingFetch>>,
    /// In-flight chunk-level repairs (datum stays cached while missing
    /// chunks are re-fetched).
    repairing: Mutex<HashMap<DataId, TransferId>>,
    /// Manifests this node has seen (fetched from the catalog or produced
    /// by `put_chunked`).
    manifests: Mutex<HashMap<DataId, ChunkManifest>>,
    /// Range server over `local` when this node serves its replicas to
    /// peers (see [`BitdewNode::enable_serving`]).
    peer_server: Mutex<Option<FtpServer>>,
    /// The subscription event bus: every life-cycle transition this node
    /// observes is published here, routed to filtered subscriptions and
    /// handler callbacks.
    bus: EventBus,
    /// Signaled when a synchronization round leaves no pending downloads
    /// (barrier waiters park on this instead of spinning).
    idle: Condvar,
    role: SyncRole,
    stop: AtomicBool,
    /// Pairs with `stop_cv`: the heartbeat loop parks here between syncs,
    /// so a stop request interrupts the inter-sync sleep immediately
    /// instead of waiting out the period.
    stop_mu: Mutex<bool>,
    stop_cv: Condvar,
    /// Running drivers of this node's synchronization (heartbeat threads);
    /// waiters park instead of self-pumping while this is non-zero.
    drivers: AtomicUsize,
    /// Work profile of the most recent synchronization round, including
    /// how many events its publish path deferred for full `Block`
    /// subscribers (see [`BitdewNode::last_sync_profile`]).
    last_profile: Mutex<SyncProfile>,
    /// The node's announce socket (lazily handshaken; dropped and redone
    /// when the datagram plane goes down and comes back).
    announce_client: Mutex<Option<AnnounceClient>>,
    /// The announce TTL and full-sync cadence, from the container's
    /// [`AnnounceConfig`].
    cadence: Cadence,
    /// Heartbeat rounds run so far — drives the full-sync-every-nth
    /// cadence and the per-round jitter draw.
    hb_rounds: AtomicU64,
    /// Set when a synchronization round did real work (downloads started
    /// or finished, data deleted): the next heartbeat runs a full sync
    /// instead of a compact announce, keeping convergence prompt while a
    /// workload is active.
    recent_work: AtomicBool,
    /// Announce rounds that degraded to a full TCP sync because the
    /// datagram plane was down or the handshake failed.
    fallback_syncs: AtomicU64,
    /// When each held datum was last announced — holdings re-announce
    /// past the TTL half-life, not every round.
    announced_at: Mutex<HashMap<DataId, u64>>,
    /// The version this node's locally held bytes of each datum correspond
    /// to (recorded when the node publishes, commits, repairs or pins).
    /// Announced alongside the chunk bitmap so the scheduler can demote a
    /// holder whose replica predates the head.
    held_versions: Mutex<HashMap<DataId, u64>>,
}

impl BitdewNode {
    /// Attach a reservoir node (offers storage) with an in-memory store.
    pub fn new(container: Arc<ServiceContainer>) -> Arc<BitdewNode> {
        Self::with_store_role(container, MemStore::new(), SyncRole::Reservoir)
    }

    /// Attach a client node (consumes storage; receives affinity-routed data
    /// such as results, but is skipped by replica placement).
    pub fn new_client(container: Arc<ServiceContainer>) -> Arc<BitdewNode> {
        Self::with_store_role(container, MemStore::new(), SyncRole::Client)
    }

    /// Attach a reservoir node with the given local store.
    pub fn with_store(
        container: Arc<ServiceContainer>,
        local: Arc<dyn FileStore>,
    ) -> Arc<BitdewNode> {
        Self::with_store_role(container, local, SyncRole::Reservoir)
    }

    /// Attach a node with explicit store and role.
    pub fn with_store_role(
        container: Arc<ServiceContainer>,
        local: Arc<dyn FileStore>,
        role: SyncRole,
    ) -> Arc<BitdewNode> {
        let (hb, a) = (&container.config.heartbeat, &container.config.announce);
        let cadence = Cadence::new(hb.as_nanos() as u64, a.ttl_factor, a.full_sync_every);
        Arc::new(BitdewNode {
            uid: Auid::random(),
            container,
            chunk_store: ChunkStore::new(Arc::clone(&local)),
            local,
            cache: Mutex::new(HashMap::new()),
            pending: Mutex::new(HashMap::new()),
            repairing: Mutex::new(HashMap::new()),
            manifests: Mutex::new(HashMap::new()),
            peer_server: Mutex::new(None),
            bus: EventBus::new(),
            idle: Condvar::new(),
            role,
            stop: AtomicBool::new(false),
            stop_mu: Mutex::new(false),
            stop_cv: Condvar::new(),
            drivers: AtomicUsize::new(0),
            last_profile: Mutex::new(SyncProfile::default()),
            announce_client: Mutex::new(None),
            cadence,
            hb_rounds: AtomicU64::new(0),
            recent_work: AtomicBool::new(false),
            fallback_syncs: AtomicU64::new(0),
            announced_at: Mutex::new(HashMap::new()),
            held_versions: Mutex::new(HashMap::new()),
        })
    }

    /// A pipelined [`Session`] over this node in background mode (the
    /// threaded deployment's default-on reactive surface): the session is
    /// registered with the process-shared
    /// [`ExecutorPool`](crate::api::pool::ExecutorPool), submissions mark
    /// it ready for the pool's workers, batches drain asynchronously, and
    /// op futures resolve — and `.await` — without any caller-driven
    /// pump.
    pub fn session(self: &Arc<Self>) -> Result<Session<Arc<BitdewNode>>> {
        Session::background(Arc::clone(self))
    }

    /// The node's local content store.
    pub fn local_store(&self) -> Arc<dyn FileStore> {
        Arc::clone(&self.local)
    }

    /// The container this node is attached to.
    pub fn container(&self) -> &Arc<ServiceContainer> {
        &self.container
    }

    // --- BitDew API -------------------------------------------------------

    /// Create a datum describing `content` and register it in the DC.
    pub fn create_data(&self, name: &str, content: &[u8]) -> Result<Data> {
        let data = Data::from_bytes(Auid::random(), name, content);
        self.container.plane.register(&data)?;
        Ok(data)
    }

    /// Create an empty slot (content put later or produced remotely).
    pub fn create_slot(&self, name: &str, size: u64) -> Result<Data> {
        let data = Data::slot(Auid::random(), name, size);
        self.container.plane.register(&data)?;
        Ok(data)
    }

    /// Batched [`BitdewNode::create_data`]: the whole batch registers with
    /// one catalog round-trip per shard instead of one per datum.
    pub fn create_many(&self, items: &[(&str, &[u8])]) -> Result<Vec<Data>> {
        let data: Vec<Data> = items
            .iter()
            .map(|(name, content)| Data::from_bytes(Auid::random(), *name, content))
            .collect();
        self.container.plane.register_many(&data)?;
        Ok(data)
    }

    /// Copy content into the data space (the repository) and record FTP and
    /// HTTP locators for it.
    pub fn put(&self, data: &Data, content: &[u8]) -> Result<()> {
        self.put_many(&[(data.clone(), content)])
    }

    /// Batched [`BitdewNode::put`]: stores every payload, then records all
    /// locators through one catalog round-trip instead of one per locator.
    ///
    /// Each datum's object name is built once: it names the verified store
    /// write and both locator rows, which borrow it and the repository's
    /// endpoints. The rows need no presence check of their own — the
    /// content they point at is what this call just wrote.
    pub fn put_many(&self, items: &[(Data, &[u8])]) -> Result<()> {
        let repository = &self.container.repository;
        let mut objects = Vec::with_capacity(items.len());
        for (data, content) in items {
            let object = data.object_name();
            repository.put_object(data, &object, content)?;
            objects.push(object);
        }
        let served = [ProtocolId::ftp(), ProtocolId::http()].map(|protocol| {
            let remote = repository
                .endpoint(&protocol)
                .expect("the repository serves FTP and HTTP");
            (protocol, remote)
        });
        let locators: Vec<LocatorRef> = items
            .iter()
            .zip(&objects)
            .flat_map(|((data, _), object)| {
                served.iter().map(move |(protocol, remote)| LocatorRef {
                    data: data.id,
                    protocol: &protocol.0,
                    remote,
                    object,
                })
            })
            .collect();
        self.container.plane.add_locators(&locators)?;
        Ok(())
    }

    /// Start copying a datum from the data space into this node's local
    /// store; wait with [`BitdewNode::wait_for`].
    pub fn get(&self, data: &Data) -> Result<TransferId> {
        let locator = self.locator_for(data, &ProtocolId::ftp())?;
        self.container
            .transfer
            .submit(data.clone(), locator, Arc::clone(&self.local))
    }

    /// Search the DC by exact name.
    pub fn search(&self, name: &str) -> Result<Vec<Data>> {
        self.container.plane.search(name)
    }

    /// Delete a datum everywhere: catalog, repository, scheduler. Reservoir
    /// caches purge it on their next synchronization.
    pub fn delete(&self, data: &Data) -> Result<()> {
        self.versions().delete(data)?;
        self.manifests.lock().remove(&data.id);
        self.held_versions.lock().remove(&data.id);
        let _ = self.container.repository.remove(data);
        self.container.plane.scheduler().delete_data(data.id);
        Ok(())
    }

    /// Parse an attribute definition (Listing 1 syntax). Symbolic names
    /// resolve against the DC's name index.
    pub fn create_attribute(&self, src: &str) -> Result<DataAttributes> {
        attrparse::parse_single_resolving(src, self.container.now_nanos(), &|name| {
            self.container
                .plane
                .search(name)
                .ok()
                .and_then(|hits| hits.first().map(|d| d.id))
        })
    }

    /// Read the locally cached content of `data` (after a completed `get`
    /// or a scheduled copy).
    pub fn read_local(&self, data: &Data) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        self.local
            .read_into(&data.object_name(), 0, data.size as usize, &mut out)?;
        Ok(out)
    }

    // --- Chunked data plane -----------------------------------------------

    /// This node's chunk-granular local store.
    pub fn chunk_store(&self) -> &Arc<ChunkStore> {
        &self.chunk_store
    }

    /// [`BitdewNode::put`] plus a published [`ChunkManifest`]: the content
    /// lands in the repository, FTP/HTTP locators are recorded, and the
    /// chunk map (per-chunk CRC32 digests at `chunk_size`, 0 = default) is
    /// published through the catalog plane so any host can run a
    /// multi-source range fetch or chunk-level repair against it.
    /// Once a version committed on top of the base, content other than the
    /// head's is refused before any byte moves (see
    /// [`crate::versions::check_republish`]).
    pub fn put_chunked(
        &self,
        data: &Data,
        content: &[u8],
        chunk_size: u64,
    ) -> Result<ChunkManifest> {
        let plane = &self.container.plane;
        let manifest = ChunkManifest::describe(data.id, chunk_size, content);
        check_republish(&manifest, plane.head(data.id)?.as_deref())?;
        self.put(data, content)?;
        plane.put_manifest(&manifest)?;
        self.manifests.lock().insert(data.id, manifest.clone());
        self.note_held_version(data.id);
        Ok(manifest)
    }

    /// The chunk manifest of a datum, if one was published (cached locally
    /// after the first catalog hit). Once the datum has committed versions
    /// the local cache is bypassed and the *head* resolution is
    /// materialized instead, so repair, announce and compute always key on
    /// the head's per-chunk digests — a holder whose bytes predate the
    /// head fails digest verification and becomes a repair target.
    pub fn chunk_manifest(&self, id: DataId) -> Result<Option<ChunkManifest>> {
        if self.container.plane.version_head(id)? > 1 {
            return self.container.plane.materialized_manifest(id);
        }
        if let Some(m) = self.manifests.lock().get(&id) {
            return Ok(Some(m.clone()));
        }
        let m = self.container.plane.manifest(id)?;
        if let Some(m) = &m {
            self.manifests.lock().insert(id, m.clone());
        }
        Ok(m)
    }

    /// Chunk indices of `data` this node verifiably holds right now.
    /// Content that arrived whole (a completed whole-blob download, a
    /// `put_chunked` on this node) is absorbed against the manifest first,
    /// so a full cache reports every chunk. Data without a published
    /// manifest report empty — they are not chunk-tracked.
    pub fn held_chunks(&self, data: &Data) -> Result<Vec<u32>> {
        let Some(manifest) = self.chunk_manifest(data.id)? else {
            return Ok(Vec::new());
        };
        let object = data.object_name();
        if self.has_cached(data.id) {
            self.chunk_store.absorb(&object, &manifest);
        }
        Ok(self.chunk_store.held_set(&object))
    }

    /// Fetch the listed chunks this node is missing through a
    /// [`MultiSourceFetcher`] restricted to that subset (the compute
    /// plane's `missing()`-driven fallback). Blocks until the subset is
    /// verified locally; returns the bytes that actually moved.
    pub fn fetch_chunks(&self, data: &Data, chunks: &[u32]) -> Result<u64> {
        let manifest = self
            .chunk_manifest(data.id)?
            .ok_or_else(|| no_manifest(data))?;
        let object = data.object_name();
        let missing: Vec<u32> = chunks
            .iter()
            .copied()
            .filter(|&i| i < manifest.chunk_count() && !self.chunk_store.has_chunk(&object, i))
            .collect();
        if missing.is_empty() {
            return Ok(0);
        }
        let sources = self.range_sources(data, 1)?;
        let moved = manifest.bytes_of(missing.iter().copied());
        let mut fetch = MultiSourceFetcher::new(
            self.container.fabric.clone(),
            data,
            manifest,
            sources,
            Arc::clone(&self.chunk_store),
        )
        .with_chunks(&missing);
        fetch.connect()?;
        fetch.receive()?;
        let status = bitdew_transport::oob::NonBlockingOobTransfer::wait(
            &mut fetch,
            Duration::from_millis(2),
        )?;
        fetch.disconnect()?;
        if status.outcome != Some(bitdew_transport::oob::TransferVerdict::Complete) {
            return Err(BitdewError::Transport(TransportError::Protocol(format!(
                "chunk fetch of `{}` interrupted",
                data.name
            ))));
        }
        // The fetch verified against the head manifest's digests, so the
        // local bytes now correspond to the head version.
        self.note_held_version(data.id);
        Ok(moved)
    }

    /// The scheduler's chunk-holding picture of a datum: Ω full owners plus
    /// partial holders with their exact chunk sets.
    pub fn chunk_holdings(&self, id: DataId) -> Result<ChunkHoldings> {
        Ok(self.container.plane.scheduler().chunk_holdings(id))
    }

    /// Read bytes `[offset, offset+len)` of `data` from this node's local
    /// verified chunk store — the compute plane's data-local read path
    /// (no network; contrast [`BitdewNode::get_range`]).
    pub fn get_range_local(&self, data: &Data, offset: u64, len: usize) -> Result<Vec<u8>> {
        self.chunk_store.get_range(&data.object_name(), offset, len)
    }

    /// Start serving this node's local store to peers over the FTP range
    /// protocol. Once enabled, every manifest-backed datum this node
    /// finishes downloading is announced with a peer locator, so other
    /// hosts' multi-source fetches can pull chunks from here — the
    /// scheduler's Ω owner set becomes a real source set.
    pub fn enable_serving(&self) {
        let mut server = self.peer_server.lock();
        if server.is_none() {
            *server = Some(FtpServer::start(
                &self.container.fabric,
                &peer_endpoint(self.uid),
                Arc::clone(&self.local),
            ));
        }
    }

    /// Announce this node as a source for `data` (serving must be enabled).
    fn announce_replica(&self, data: &Data) -> Result<()> {
        self.container.plane.add_locators(&[LocatorRef {
            data: data.id,
            protocol: &ProtocolId::ftp().0,
            remote: &peer_endpoint(self.uid),
            object: &data.object_name(),
        }])?;
        Ok(())
    }

    /// Every range-capable source for a datum, in [`agent::source_order`]:
    /// the repository's FTP/HTTP endpoints, then peer replicas — the
    /// catalog's announced ones and, when the discovery plane is up, the
    /// serving hosts a scrape finds without a catalog query. Fewer than
    /// `at_least` sources (or none) is a catalog miss.
    fn range_sources(&self, data: &Data, at_least: usize) -> Result<Vec<Locator>> {
        let mut endpoints = Vec::new();
        let mut peers = Vec::new();
        for l in self.container.plane.locators(data.id)? {
            if l.protocol != ProtocolId::ftp() && l.protocol != ProtocolId::http() {
                continue;
            }
            match peer_of(&l.remote) {
                Some(host) => peers.push((host, l)),
                None => endpoints.push(l),
            }
        }
        // A datum with no locator at all has no fetchable content yet.
        if !(endpoints.is_empty() && peers.is_empty()) {
            let scraped = self
                .with_announce_client(|c| c.scrape(data.id, Duration::from_millis(25)))
                .flatten()
                .unwrap_or_default();
            for (host, flags) in scraped {
                if flags & FLAG_SERVING != 0 {
                    let locator = Locator::new(data, ProtocolId::ftp(), peer_endpoint(host));
                    peers.push((host, locator));
                }
            }
        }
        let sources = agent::source_order(&self.uid, endpoints, peers);
        if sources.len() < at_least.max(1) {
            return Err(BitdewError::CatalogMiss {
                what: format!("range-capable locator for `{}`", data.name),
            });
        }
        Ok(sources)
    }

    /// Submit the work-stealing fetcher of `data` over at least
    /// `at_least` of its [range sources](BitdewNode::range_sources)
    /// (`sources[0]` doubles as the locator DT retries rebuild from).
    fn submit_multi_fetch(
        &self,
        data: &Data,
        manifest: ChunkManifest,
        at_least: usize,
    ) -> Result<TransferId> {
        let sources = self.range_sources(data, at_least)?;
        let primary = sources[0].clone();
        let fetcher = MultiSourceFetcher::new(
            self.container.fabric.clone(),
            data,
            manifest,
            sources,
            Arc::clone(&self.chunk_store),
        );
        self.container.transfer.submit_built(
            data.clone(),
            primary,
            Arc::clone(&self.local),
            Box::new(fetcher),
        )
    }

    /// Start a multi-source chunked download of `data`: the manifest is
    /// fetched from the catalog and every range-capable locator (repository
    /// endpoints plus announced peer replicas) becomes a work-stealing
    /// source. Chunks already verified locally are skipped, so the same
    /// call performs chunk-level repair of a partially lost replica.
    pub fn get_multi(&self, data: &Data) -> Result<TransferId> {
        let manifest = self
            .chunk_manifest(data.id)?
            .ok_or_else(|| no_manifest(data))?;
        self.submit_multi_fetch(data, manifest, 1)
    }

    /// Fetch one byte range of `data` from the data space without caching
    /// the blob: served over the FTP range verb or an HTTP bounded range,
    /// whichever a locator offers first.
    pub fn get_range(&self, data: &Data, offset: u64, len: usize) -> Result<Vec<u8>> {
        let locators = self.container.plane.locators(data.id)?;
        let locator = locators
            .iter()
            .find(|l| l.protocol == ProtocolId::ftp())
            .or_else(|| locators.iter().find(|l| l.protocol == ProtocolId::http()))
            .ok_or_else(|| BitdewError::CatalogMiss {
                what: format!("range-capable locator for `{}`", data.name),
            })?;
        let fabric = &self.container.fabric;
        if locator.protocol == ProtocolId::ftp() {
            let client = FtpRangeClient::connect(fabric, &locator.remote)?;
            client.request(&locator.object, offset, len as u32)?;
            Ok(client.read_reply()?.to_vec())
        } else {
            Ok(bitdew_transport::http::fetch_range(
                fabric,
                &locator.remote,
                &locator.object,
                offset,
                len as u32,
            )?
            .to_vec())
        }
    }

    /// Write a byte range into a datum's data-space content. On a datum
    /// without a published manifest this is the raw repository range write
    /// (see [`DataRepository::put_range`] for the integrity contract). On
    /// a *chunked* datum it is version-creating: the write commits through
    /// [`BitdewNode::commit_update`] against the current head, retrying
    /// internally on [`BitdewError::VersionConflict`] — concurrent
    /// non-overlapping writers commit independently, overlapping writers
    /// serialize last-writer-wins.
    pub fn put_range(&self, data: &Data, offset: u64, content: &[u8]) -> Result<()> {
        if self.container.plane.version_head(data.id)? == 0 {
            return self.container.repository.put_range(data, offset, content);
        }
        loop {
            let base = self.container.plane.version_head(data.id)?;
            match self.commit_update(data, base, &[(offset, content.to_vec())]) {
                Ok(_) => return Ok(()),
                Err(BitdewError::VersionConflict { .. }) => continue,
                Err(e) => return Err(e),
            }
        }
    }

    // --- Version plane ----------------------------------------------------

    /// The datum's current head version (0 = never chunked, 1 = base
    /// manifest only). See [`crate::versions`].
    pub fn version_head(&self, id: DataId) -> Result<u64> {
        self.container.plane.version_head(id)
    }

    /// One row of the datum's version chain (1 = the base manifest).
    pub fn version_manifest(&self, id: DataId, version: u64) -> Result<Option<VersionedManifest>> {
        self.container.plane.version_manifest(id, version)
    }

    /// Record that this node's local bytes of `id` now correspond to the
    /// current head version (after a publish, commit, pin or repair).
    fn note_held_version(&self, id: DataId) {
        if let Ok(head) = self.container.plane.version_head(id) {
            if head > 0 {
                self.held_versions.lock().insert(id, head);
            }
        }
    }

    /// Commit `writes` against version `base` of a chunked datum — the
    /// version plane's write face (see [`crate::versions`] for the
    /// protocol). Returns the committed version id; a retryable
    /// [`BitdewError::VersionConflict`] means a concurrent writer touched
    /// one of the same chunks first.
    pub fn commit_update(&self, data: &Data, base: u64, writes: &[(u64, Vec<u8>)]) -> Result<u64> {
        let committed = self.versions().commit(data, base, writes)?;
        self.manifests.lock().remove(&data.id);
        self.held_versions.lock().insert(data.id, committed.version);
        Ok(committed.version)
    }

    /// Open a [`Snapshot`] pinned to the datum's current head version:
    /// [`BitdewNode::get_range_at`] reads through it see the datum as of
    /// this call no matter how many versions commit afterwards, and the
    /// pin keeps the snapshot's pre-image chunks from
    /// [`BitdewNode::gc_versions`] until it drops.
    pub fn open_snapshot(&self, data: &Data) -> Result<Snapshot> {
        self.versions().open_snapshot(data)
    }

    /// Read bytes `[offset, offset+len)` of `data` *as of* `snap`'s pinned
    /// version (short only at EOF): a chunk superseded since the snapshot
    /// reads from its preserved pre-image object, an unchanged chunk from
    /// the canonical object.
    pub fn get_range_at(
        &self,
        data: &Data,
        snap: &Snapshot,
        offset: u64,
        len: usize,
    ) -> Result<Vec<u8>> {
        self.versions().get_range_at(data, snap, offset, len)
    }

    /// Reference-counted GC sweep over the datum's preserved pre-image
    /// chunks: everything unreachable from the head and from every open
    /// snapshot is reclaimed, and each reclaimed chunk's pre-image object
    /// is removed from the repository store.
    pub fn gc_versions(&self, data: &Data) -> Result<GcReport> {
        self.versions().gc(data)
    }

    /// The version plane over the container's catalog and repository store.
    fn versions(&self) -> VersionPlane<'_> {
        VersionPlane {
            plane: &self.container.plane,
            store: self.container.repository.store().as_ref(),
        }
    }

    /// Manifest-aware partial pin: verify which of the claimed chunk
    /// indices are actually intact in the local store, mark them in the
    /// chunk store, and report the holding to the Data Scheduler. Complete
    /// holdings become a full [`BitdewNode::pin`]; partial holdings enter
    /// the cache as repair candidates — the next synchronization returns a
    /// repair order and only the missing chunks move.
    pub fn pin_chunks(&self, data: &Data, attrs: DataAttributes, held: &[u32]) -> Result<()> {
        let manifest = self
            .chunk_manifest(data.id)?
            .ok_or_else(|| no_manifest(data))?;
        let object = data.object_name();
        // Trust but verify: only chunks whose local bytes match the
        // manifest digest count as held (put_range runs the digest check
        // and rejects mismatched claims).
        for &idx in held {
            if let Some(desc) = manifest.descriptor(idx) {
                if let Ok(bytes) =
                    self.local
                        .read_at(&object, manifest.offset_of(idx), desc.len as usize)
                {
                    let _ = self.chunk_store.put_range(&object, &manifest, idx, &bytes);
                }
            }
        }
        let verified = self.chunk_store.held_set(&object);
        self.note_held_version(data.id);
        let scheduler = self.container.plane.scheduler();
        scheduler.set_chunk_total(data.id, manifest.chunk_count());
        if verified.len() as u32 >= manifest.chunk_count() {
            self.pin(data, attrs)?;
        } else {
            // Report the exact chunk set, not just a count: the compute
            // plane partitions MapOps over these sets, and repair targets
            // precisely what is missing.
            scheduler.report_chunk_set(self.uid, data.id, &verified);
            self.cache.lock().insert(data.id, (data.clone(), attrs));
        }
        Ok(())
    }

    // --- ActiveData API ---------------------------------------------------

    /// Put a datum under scheduler management with `attrs`, making sure a
    /// locator exists for the chosen protocol (starting a seeder for
    /// BitTorrent).
    pub fn schedule(&self, data: &Data, attrs: DataAttributes) -> Result<()> {
        self.schedule_many(&[(data.clone(), attrs)])
    }

    /// Batched [`BitdewNode::schedule`]: registers all locators in one
    /// catalog round-trip and takes the scheduler lock once for the whole
    /// batch.
    ///
    /// A datum whose content the repository holds gets a locator row for
    /// its protocol, checked with one object name and one presence test:
    /// FTP and HTTP rows borrow the repository's endpoint; any other
    /// protocol (BitTorrent) goes through [`DataRepository::locator_for`],
    /// which starts its seeder. After a `put` the FTP row is already there
    /// and rewriting it changes nothing; it is what gives content written
    /// only through `put_range` its locator.
    pub fn schedule_many(&self, items: &[(Data, DataAttributes)]) -> Result<()> {
        for (data, attrs) in items {
            validate_attrs(data, attrs)?;
        }
        let repository = &self.container.repository;
        let mut rows = Vec::with_capacity(items.len());
        for (data, attrs) in items {
            let object = data.object_name();
            if !repository.store().exists(&object) {
                continue;
            }
            let remote = match repository.endpoint(&attrs.protocol) {
                Some(remote) => Cow::Borrowed(remote),
                None => Cow::Owned(repository.locator_for(data, &attrs.protocol)?.remote),
            };
            rows.push((data.id, attrs.protocol.0.as_str(), remote, object));
        }
        let locators: Vec<LocatorRef> = rows
            .iter()
            .map(|(data, protocol, remote, object)| LocatorRef {
                data: *data,
                protocol,
                remote,
                object,
            })
            .collect();
        self.container.plane.add_locators(&locators)?;
        for (data, attrs) in items {
            self.fire(DataEventKind::Create, data, attrs);
        }
        self.container
            .plane
            .scheduler()
            .schedule_many(items.iter().cloned());
        Ok(())
    }

    /// Declare this node an owner of `data` (the datum also enters the local
    /// cache so affinity dependencies resolve here — the master pins the
    /// Collector in §5).
    pub fn pin(&self, data: &Data, attrs: DataAttributes) -> Result<()> {
        self.container.plane.scheduler().pin(data.id, self.uid);
        self.cache.lock().insert(data.id, (data.clone(), attrs));
        Ok(())
    }

    /// Install a life-cycle handler invoked for events matching `filter`;
    /// detach it again with [`BitdewNode::remove_handler`].
    pub fn add_handler(
        &self,
        filter: EventFilter,
        handler: Box<dyn ActiveDataEventHandler>,
    ) -> HandlerId {
        self.bus.attach(filter, handler)
    }

    /// Detach a handler installed by [`BitdewNode::add_handler`].
    pub fn remove_handler(&self, id: HandlerId) {
        self.bus.detach(id);
    }

    /// Open a lossless subscription to this node's life-cycle events
    /// matching `filter`. Subscribers on other threads wake through the
    /// queue's condvar the moment the synchronization loop publishes.
    pub fn subscribe(&self, filter: EventFilter) -> EventSub {
        self.bus.subscribe(filter)
    }

    /// This node's event bus (publish statistics, ad-hoc subscriptions).
    pub fn event_bus(&self) -> &EventBus {
        &self.bus
    }

    /// This node's identity in the scheduler's host space.
    pub fn host_uid(&self) -> HostUid {
        self.uid
    }

    // --- TransferManager API ----------------------------------------------

    /// Block until the transfer is terminal; unknown ids error.
    pub fn wait_for(&self, id: TransferId) -> Result<TransferState> {
        match self.container.transfer.wait(id, Duration::from_millis(2)) {
            Some(state) => Ok(state),
            None => Err(BitdewError::CatalogMiss {
                what: format!("transfer {id:?}"),
            }),
        }
    }

    /// Non-blocking probe of a transfer's state (`None` while active).
    pub fn try_wait(&self, id: TransferId) -> Result<Option<TransferState>> {
        self.container.transfer.tick();
        match self.container.transfer.report(id) {
            Some(r) if r.state == TransferState::Active => Ok(None),
            Some(r) => Ok(Some(r.state)),
            None => Err(BitdewError::CatalogMiss {
                what: format!("transfer {id:?}"),
            }),
        }
    }

    /// Block until every pending scheduled download on this node finished
    /// (a transfer barrier). Runs synchronization rounds while waiting;
    /// between rounds the wait parks on the node's idle condvar, waking
    /// immediately when a concurrent synchronization (the heartbeat
    /// thread's, another client's) empties the pending set.
    pub fn barrier(&self, timeout: Duration) -> Result<()> {
        let start = Instant::now();
        loop {
            self.sync_once();
            {
                let mut pending = self.pending.lock();
                if pending.is_empty() {
                    return Ok(());
                }
                if start.elapsed() > timeout {
                    return Err(BitdewError::Timeout {
                        what: format!("{} pending downloads", pending.len()),
                        waited: start.elapsed(),
                    });
                }
                self.idle.wait_for(&mut pending, Duration::from_millis(2));
            }
        }
    }

    /// Run one synchronization round ([`BitdewNode::sync_once`]).
    pub fn pump(&self) -> Result<()> {
        self.sync_once();
        Ok(())
    }

    /// Ids currently in the local cache.
    pub fn cached(&self) -> Vec<DataId> {
        let mut v: Vec<DataId> = self.cache.lock().keys().copied().collect();
        v.sort();
        v
    }

    /// Whether a datum is in the local cache.
    pub fn has_cached(&self, id: DataId) -> bool {
        self.cache.lock().contains_key(&id)
    }

    // --- Discovery plane (announce / scrape) -------------------------------

    /// The fabric address of this node's announce socket.
    fn announce_addr(&self) -> String {
        format!("peer.{}.udp", self.uid.to_canonical())
    }

    /// Run `f` against the node's announce client, handshaking lazily.
    /// `None` when the discovery plane is disabled, the datagram plane is
    /// down, or the handshake datagrams were lost — every caller treats
    /// that as "use the TCP path".
    fn with_announce_client<R>(&self, f: impl FnOnce(&AnnounceClient) -> R) -> Option<R> {
        if !self.container.config.announce.enabled {
            return None;
        }
        let mut guard = self.announce_client.lock();
        if self.container.fabric.udp().is_down() {
            // Drop the socket so a revived plane gets a fresh handshake.
            *guard = None;
            return None;
        }
        if guard.is_none() {
            *guard = AnnounceClient::connect(
                &self.container.fabric,
                &self.announce_addr(),
                Duration::from_millis(50),
            );
        }
        guard.as_ref().map(f)
    }

    /// One compact announce round: a liveness ping (keeps this host out
    /// of the failure detector's reach without a catalog round-trip) plus
    /// one datagram per held datum whose claim is past its TTL half-life
    /// — complete holdings as `FLAG_COMPLETE`, chunk-tracked partials as
    /// a bitmap. Returns `false` when the datagram plane refused a send
    /// (the fall-back-to-TCP signal); in-flight loss is silent and healed
    /// by the next refresh.
    fn announce_once(&self) -> bool {
        let ttl = self.cadence.ttl();
        let now = self.container.now_nanos();
        let serving = if self.peer_server.lock().is_some() {
            FLAG_SERVING
        } else {
            0
        };
        let snapshot: Vec<(DataId, String)> = self
            .cache
            .lock()
            .iter()
            .map(|(&id, (d, _))| (id, d.object_name()))
            .collect();
        self.with_announce_client(|client| {
            if !client.announce(self.uid, LIVENESS_PING, 0, ttl, serving, Vec::new()) {
                return false;
            }
            let live: std::collections::HashSet<DataId> =
                snapshot.iter().map(|(id, _)| *id).collect();
            let mut announced = self.announced_at.lock();
            announced.retain(|id, _| live.contains(id));
            for (id, object) in &snapshot {
                if !self.cadence.claim_due(announced.get(id).copied(), now) {
                    continue;
                }
                // The version the local bytes correspond to: recorded at
                // publish/commit/download/repair time, defaulting to the
                // current head for data that predate version tracking.
                let version = {
                    let held = self.held_versions.lock().get(id).copied();
                    held.unwrap_or_else(|| self.container.plane.version_head(*id).unwrap_or(0))
                };
                // Only chunk-tracked partials claim a bitmap: a whole-blob
                // download has no presence marks and holds every chunk.
                let chunks = self.manifests.lock().get(id).map_or(0, |m| m.chunk_count());
                let held = self.chunk_store.held_set(object);
                let holding = if held.is_empty() || held.len() as u32 >= chunks {
                    Holding::Complete
                } else {
                    Holding::Partial(&held)
                };
                let Some(claim) = agent::claim(holding, chunks, serving) else {
                    continue;
                };
                if !client.announce(self.uid, *id, version, ttl, claim.flags, claim.bitmap) {
                    return false;
                }
                announced.insert(*id, now);
            }
            true
        })
        .unwrap_or(false)
    }

    /// One heartbeat tick. Runs a full TCP synchronization round when one
    /// is due — the discovery plane disabled, the periodic every-nth
    /// round, or work recently in flight — and a compact announce round
    /// otherwise, degrading to a full sync when the datagram plane is
    /// down. Full rounds announce *alongside* the sync so the discovery
    /// cache stays warm; the rounds between announce *instead of* it.
    /// Returns the sync summary when a full round ran.
    pub fn heartbeat_round(&self) -> Option<SyncSummary> {
        let round = self.hb_rounds.fetch_add(1, Ordering::Relaxed);
        let busy = self.recent_work.swap(false, Ordering::Relaxed)
            || !self.pending.lock().is_empty()
            || !self.repairing.lock().is_empty();
        if !self.container.config.announce.enabled || self.cadence.full_due(round, busy) {
            let summary = self.sync_once();
            let _ = self.announce_once();
            Some(summary)
        } else if self.announce_once() {
            None
        } else {
            self.fallback_syncs.fetch_add(1, Ordering::Relaxed);
            Some(self.sync_once())
        }
    }

    /// Heartbeat rounds run so far (full syncs and announce rounds both).
    pub fn heartbeat_rounds(&self) -> u64 {
        self.hb_rounds.load(Ordering::Relaxed)
    }

    /// Announce rounds that degraded to a full TCP sync because the
    /// datagram plane was down or the handshake failed.
    pub fn fallback_syncs(&self) -> u64 {
        self.fallback_syncs.load(Ordering::Relaxed)
    }

    // --- Reservoir loop ----------------------------------------------------

    /// One synchronization round: reap finished downloads, sync with the DS
    /// (Algorithm 1), delete obsolete data, start newly assigned downloads.
    pub fn sync_once(&self) -> SyncSummary {
        let mut summary = SyncSummary::default();
        // 0. Re-deliver events deferred for full `Block` subscribers in
        // earlier rounds — the retry half of the deferral contract (one
        // slow subscriber slows only itself, never this round).
        self.bus.retry_deferred();
        let deferred_before = self.bus.deferred_events();

        // 1. Reap finished transfers in admission order (ascending
        // `TransferId`). A batch's members finish in order, but one DT
        // monitor step can see member i+1's verdict before member i's, so
        // a completed member also waits for every earlier member of its
        // session still active: a batch's Copy events fire in the order
        // its members were admitted.
        self.container.transfer.tick();
        let mut completed_data: Vec<Data> = Vec::new();
        {
            let mut pending = self.pending.lock();
            let mut order: Vec<(TransferId, TransferId, DataId)> = pending
                .iter()
                .map(|(&id, p)| (p.tid, p.session, id))
                .collect();
            order.sort_unstable();
            let mut held_back: Vec<TransferId> = Vec::new();
            for (tid, session, id) in order {
                match self.container.transfer.report(tid).map(|r| r.state) {
                    Some(TransferState::Complete) if !held_back.contains(&session) => {
                        // The entry is present: `order` was snapshotted
                        // under this same lock and nothing else removes
                        // entries.
                        let Some(PendingFetch { data, attrs, .. }) = pending.remove(&id) else {
                            continue;
                        };
                        self.container.transfer.reap(tid);
                        self.cache.lock().insert(id, (data.clone(), attrs.clone()));
                        // The bytes are the head's. (A chunked datum's head
                        // was loaded when its download launched.)
                        if let Some(head) = self.container.plane.version_state().head(id) {
                            self.held_versions.lock().insert(id, head.version);
                        }
                        summary.completed.push(id);
                        completed_data.push(data.clone());
                        self.fire(DataEventKind::Copy, &data, &attrs);
                    }
                    Some(TransferState::Complete) => {}
                    Some(TransferState::Failed) | None => {
                        // Next sync re-assigns if the data is still wanted.
                        pending.remove(&id);
                        self.container.transfer.reap(tid);
                    }
                    Some(TransferState::Active) => held_back.push(session),
                }
            }
        }
        // 1b. Reap finished chunk-level repairs: a repaired datum is whole
        // again, so report full holdings (restoring Ω membership).
        {
            let mut repairing = self.repairing.lock();
            let ids: Vec<(DataId, TransferId)> =
                repairing.iter().map(|(&id, &tid)| (id, tid)).collect();
            for (id, tid) in ids {
                match self.container.transfer.report(tid).map(|r| r.state) {
                    Some(TransferState::Complete) => {
                        repairing.remove(&id);
                        self.container.transfer.reap(tid);
                        self.note_held_version(id);
                        if let Ok(Some(m)) = self.chunk_manifest(id) {
                            self.container.plane.scheduler().report_chunks(
                                self.uid,
                                id,
                                m.chunk_count(),
                            );
                        }
                        summary.completed.push(id);
                    }
                    Some(TransferState::Failed) | None => {
                        // Retried on a later sync's repair order.
                        repairing.remove(&id);
                        self.container.transfer.reap(tid);
                    }
                    Some(TransferState::Active) => {}
                }
            }
        }
        // 1c. Serving nodes announce replicas they just completed, so other
        // hosts' multi-source fetches can steal chunks from here.
        if self.peer_server.lock().is_some() {
            for data in &completed_data {
                if self.manifests.lock().contains_key(&data.id) {
                    let _ = self.announce_replica(data);
                }
            }
        }

        // 2. Report partial holdings of manifest-backed cached data (the
        // chunk-aware replica validation's input), then synchronize with
        // the Data Scheduler.
        let cache_ids: Vec<DataId> = self.cache.lock().keys().copied().collect();
        {
            // Lock order matches step 1b: repairing before manifests.
            let repairing = self.repairing.lock();
            let manifests = self.manifests.lock();
            for id in &cache_ids {
                let Some(m) = manifests.get(id) else { continue };
                if repairing.contains_key(id) {
                    continue; // repair already running; holdings in flux
                }
                let held = {
                    let cache = self.cache.lock();
                    let Some((data, _)) = cache.get(id) else {
                        continue;
                    };
                    self.chunk_store.held_set(&data.object_name())
                };
                // Only chunk-tracked data report: a whole-blob download has
                // no presence marks and stays under whole-blob semantics.
                if !held.is_empty() && (held.len() as u32) < m.chunk_count() {
                    self.container
                        .plane
                        .scheduler()
                        .report_chunk_set(self.uid, *id, &held);
                }
            }
        }
        // Data whose download is in flight are reported as held: the host
        // is committed to them. Left out, step 1 of the sync would take
        // them out of Ω and step 2 put them back — and another host's
        // synchronization running between the two (the sharded plane
        // locks a shard per step) could be assigned them as well.
        let mut held = cache_ids;
        held.extend(self.pending.lock().keys().copied());
        let now = self.container.now_nanos();
        let (reply, mut profile) = self
            .container
            .plane
            .scheduler()
            .sync_profiled(self.uid, &held, now, self.role);

        // 3–5 act on what `agent::triage` keeps of the reply, with the
        // in-flight maps locked so that a concurrent round cannot launch
        // the same datum twice. Delete and Copy events fire once the locks
        // are released: a handler may call back into this node.
        let cap = self.container.config.max_concurrent_downloads;
        let mut deleted: Vec<(Data, DataAttributes)> = Vec::new();
        let mut markers: Vec<(Data, DataAttributes)> = Vec::new();
        {
            let mut pending = self.pending.lock();
            let mut repairing = self.repairing.lock();
            let reply = agent::triage(
                reply,
                |id| self.cache.lock().contains_key(&id),
                |id| pending.contains_key(&id),
                |id| repairing.contains_key(&id),
            );

            // 3. Purge obsolete data — bytes, chunk presence marks AND the
            // cached manifest. Stale presence would make a later re-download
            // of the same datum a zero-byte no-op (every chunk "already
            // held").
            for id in reply.delete {
                if let Some((data, attrs)) = self.cache.lock().remove(&id) {
                    let _ = self.local.remove(&data.object_name());
                    self.chunk_store.forget(&data.object_name());
                    self.manifests.lock().remove(&id);
                    summary.deleted.push(id);
                    deleted.push((data, attrs));
                }
            }

            // 4. Launch newly assigned downloads, at most
            // `max_concurrent_downloads` sessions in flight. Whole-object FTP
            // data move in one pipelined batch per source; manifest-backed
            // data (the multi-source chunk fetcher when there are two
            // range-capable sources), BitTorrent data and HTTP locators move
            // one transfer each. Data without a locator yet (content not put)
            // wait for a later round.
            let mut sessions = pending
                .values()
                .map(|p| p.session)
                .collect::<HashSet<_>>()
                .len();
            let mut batches: Vec<Vec<(Data, DataAttributes, Locator)>> = Vec::new();
            for (data, attrs) in reply.download {
                // Zero-sized slots (pure markers like the Collector) need
                // no transfer: they are cached directly.
                if data.size == 0 {
                    markers.push((data, attrs));
                    continue;
                }
                if sessions >= cap && batches.is_empty() {
                    continue; // nothing can start: spare the catalog lookups
                }
                let manifest = match attrs.protocol == ProtocolId::bittorrent() {
                    true => None,
                    false => self.chunk_manifest(data.id).ok().flatten(),
                };
                let Ok(locator) = self.locator_for(&data, &attrs.protocol) else {
                    continue;
                };
                if manifest.is_none() && locator.protocol == ProtocolId::ftp() {
                    match batches.iter_mut().find(|b| b[0].2.remote == locator.remote) {
                        Some(batch) => batch.push((data, attrs, locator)),
                        None if sessions < cap => {
                            sessions += 1;
                            batches.push(vec![(data, attrs, locator)]);
                        }
                        None => {}
                    }
                    continue;
                }
                if sessions >= cap {
                    continue;
                }
                // Two range-capable sources make a multi-source fetch.
                let tid = manifest
                    .and_then(|m| self.submit_multi_fetch(&data, m, 2).ok())
                    .or_else(|| {
                        let local = Arc::clone(&self.local);
                        self.container
                            .transfer
                            .submit(data.clone(), locator, local)
                            .ok()
                    });
                if let Some(tid) = tid {
                    sessions += 1;
                    summary.started.push(data.id);
                    let fetch = PendingFetch {
                        tid,
                        session: tid,
                        data,
                        attrs,
                    };
                    pending.insert(fetch.data.id, fetch);
                }
            }
            for batch in batches {
                self.submit_batch(batch, &mut pending, &mut summary);
            }
            drop(pending);

            // 5. Launch chunk-level repairs: the datum stays cached, only the
            // missing chunks move (the multi-source fetcher skips verified
            // ones). A holder behind the head still marks the chunks later
            // versions rewrote: its bytes are re-verified against the head's
            // digests first, so the repair moves those too.
            for (data, _attrs) in reply.repair {
                let held = self.held_versions.lock().get(&data.id).copied();
                if held.is_some_and(|v| v < self.version_head(data.id).unwrap_or(0)) {
                    if let Ok(Some(m)) = self.chunk_manifest(data.id) {
                        self.chunk_store.forget(&data.object_name());
                        self.chunk_store.absorb(&data.object_name(), &m);
                    }
                }
                if let Ok(tid) = self.get_multi(&data) {
                    summary.started.push(data.id);
                    repairing.insert(data.id, tid);
                }
            }
        }
        for (data, attrs) in &deleted {
            self.fire(DataEventKind::Delete, data, attrs);
        }
        for (data, attrs) in markers {
            self.cache
                .lock()
                .insert(data.id, (data.clone(), attrs.clone()));
            summary.completed.push(data.id);
            self.fire(DataEventKind::Copy, &data, &attrs);
        }
        // Wake barrier waiters the moment the node has nothing in flight.
        if self.pending.lock().is_empty() {
            self.idle.notify_all();
        }
        // Record the round's work profile, charging it with the events
        // this round's publishes deferred instead of parking on. The
        // discovery-plane counters are container-lifetime totals (the
        // announce server serves every node), fallback_syncs this node's.
        profile.deferred_events = self.bus.deferred_events() - deferred_before;
        if let Some(stats) = self.container.announce_stats() {
            profile.announces_rx = stats.announces_rx();
            profile.scrapes_served = stats.scrapes_served();
            profile.cache_evictions = stats.cache_evictions();
        }
        profile.fallback_syncs = self.fallback_syncs.load(Ordering::Relaxed);
        *self.last_profile.lock() = profile;
        if !(summary.completed.is_empty()
            && summary.started.is_empty()
            && summary.deleted.is_empty())
        {
            self.recent_work.store(true, Ordering::Relaxed);
        }
        summary
    }

    /// The work profile of the most recent synchronization round: per-shard
    /// items examined plus how many events the round's publish path
    /// deferred for full [`Backpressure::Block`] subscribers (zero when
    /// every subscriber kept pace).
    pub fn last_sync_profile(&self) -> SyncProfile {
        self.last_profile.lock().clone()
    }

    /// Register a batch — whole-object FTP data from one source — as one
    /// DT transfer per datum, every one a view on the same pipelined
    /// session (see [`FtpTransfer::download_batch`]).
    fn submit_batch(
        &self,
        batch: Vec<(Data, DataAttributes, Locator)>,
        pending: &mut HashMap<DataId, PendingFetch>,
        summary: &mut SyncSummary,
    ) {
        let specs = batch.iter().map(|(d, _, l)| transfer_spec(d, l)).collect();
        let members = FtpTransfer::download_batch(
            self.container.fabric.clone(),
            specs,
            Arc::clone(&self.local),
        );
        let mut session = None;
        for (member, (data, attrs, locator)) in members.into_iter().zip(batch) {
            let submitted = self.container.transfer.submit_built(
                data.clone(),
                locator,
                Arc::clone(&self.local),
                Box::new(member),
            );
            let Ok(tid) = submitted else { continue };
            summary.started.push(data.id);
            let fetch = PendingFetch {
                tid,
                session: *session.get_or_insert(tid),
                data,
                attrs,
            };
            pending.insert(fetch.data.id, fetch);
        }
    }

    /// Spawn the heartbeat thread; returns a guard that stops it on drop.
    ///
    /// # Panics
    /// If the OS refuses to spawn a thread (resource exhaustion) — use
    /// [`BitdewNode::try_start_heartbeat`] to handle that as an error
    /// instead.
    pub fn start_heartbeat(self: &Arc<Self>, period: Duration) -> NodeHandle {
        self.try_start_heartbeat(period)
            .expect("OS refused to spawn the reservoir heartbeat thread")
    }

    /// Fallible [`BitdewNode::start_heartbeat`]: spawn the reservoir loop,
    /// reporting thread-spawn failure as [`BitdewError::Spawn`]. Between
    /// synchronizations the loop parks on a condvar signaled by
    /// [`NodeHandle::stop`], so shutdown is prompt (well under the period)
    /// rather than waiting out a full heartbeat sleep.
    pub fn try_start_heartbeat(self: &Arc<Self>, period: Duration) -> Result<NodeHandle> {
        /// Deregisters the driver when the heartbeat thread exits — by
        /// stop, or by a panic in `sync_once` — so `is_driven` never lies
        /// and event waiters fall back to self-pumping.
        struct DriverGuard(Arc<BitdewNode>);
        impl Drop for DriverGuard {
            fn drop(&mut self) {
                self.0.drivers.fetch_sub(1, Ordering::AcqRel);
            }
        }
        let node = Arc::clone(self);
        node.stop.store(false, Ordering::Relaxed);
        *node.stop_mu.lock() = false;
        // Registered before the spawn (and rolled back on spawn failure)
        // so the count can never go negative.
        node.drivers.fetch_add(1, Ordering::AcqRel);
        let guard = DriverGuard(Arc::clone(&node));
        let n2 = Arc::clone(&node);
        let thread = std::thread::Builder::new()
            .name("bitdew-heartbeat".into())
            .spawn(move || {
                let _guard = guard;
                let seed = n2.uid.fold64();
                while !n2.stop.load(Ordering::Relaxed) {
                    n2.heartbeat_round();
                    let mut stopped = n2.stop_mu.lock();
                    if !*stopped {
                        // ±10% deterministic jitter: a fleet sharing one
                        // period spreads its rounds instead of thundering
                        // at the service plane in phase.
                        let round = n2.hb_rounds.load(Ordering::Relaxed);
                        n2.stop_cv
                            .wait_for(&mut stopped, jittered(period, seed, round));
                    }
                }
            })
            .map_err(|e| BitdewError::Spawn {
                what: format!("reservoir heartbeat thread: {e}"),
            })?;
        Ok(NodeHandle {
            node,
            thread: Some(thread),
        })
    }

    /// Whether a heartbeat thread currently drives this node's
    /// synchronization (see
    /// [`TransferManager::is_driven`](crate::api::TransferManager::is_driven)).
    pub fn is_driven(&self) -> bool {
        self.drivers.load(Ordering::Acquire) > 0
    }

    /// Open a subscription with an explicit [`Backpressure`] mode — see
    /// [`ActiveData::subscribe_with`](crate::api::ActiveData::subscribe_with).
    pub fn subscribe_with(&self, filter: EventFilter, backpressure: Backpressure) -> EventSub {
        self.bus.subscribe_with(filter, backpressure)
    }

    fn locator_for(&self, data: &Data, protocol: &ProtocolId) -> Result<Locator> {
        let locs = self.container.plane.locators(data.id)?;
        locs.iter()
            .find(|l| l.protocol == *protocol)
            .or_else(|| locs.first())
            .cloned()
            .ok_or_else(|| BitdewError::CatalogMiss {
                what: format!("locator for `{}`", data.name),
            })
    }

    fn fire(&self, kind: DataEventKind, data: &Data, attrs: &DataAttributes) {
        // One publish reaches every consumer: filtered subscriptions, then
        // handler callbacks — the bus
        // runs handlers with its lock released, so a handler calling back
        // into this node (a worker's onDataCopy schedules its result,
        // which fires onDataCreate) cannot deadlock. The *deferring*
        // publish: a full `Block` subscriber defers this event to its
        // retry queue rather than parking the synchronization round (or a
        // client's schedule_many) on one slow consumer.
        self.bus.publish_deferring(&DataEvent {
            kind,
            data: data.clone(),
            attrs: attrs.clone(),
            host: self.uid,
        });
    }
}

// The three API trait impls are generated by `delegate_api!(inherent for ..)` in
// `crate::api`, each method forwarding to the inherent method of the same
// name above; `Arc<BitdewNode>` and `&BitdewNode` get theirs from the same
// macro's smart-pointer arm.

/// Apply ±10% deterministic jitter to a period: the factor is a
/// splitmix64 draw over `(seed, round)`, so a node's sequence is
/// reproducible while a fleet of nodes sharing one configured heartbeat
/// spreads its synchronization rounds instead of arriving in phase.
pub(crate) fn jittered(period: Duration, seed: u64, round: u64) -> Duration {
    let mut z = seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let unit = (z >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
    period.mul_f64(0.9 + 0.2 * unit)
}

/// Validate an attribute set before it reaches the Data Scheduler — shared
/// by the threaded node and the simulator adapter so both backends reject
/// the same inputs.
pub(crate) fn validate_attrs(data: &Data, attrs: &DataAttributes) -> Result<()> {
    if attrs.replica < crate::attr::REPLICA_ALL {
        return Err(BitdewError::Scheduler {
            what: format!(
                "replica {} out of range for `{}` (use -1 for all nodes, 0 for pinned-only, \
                 or a positive count)",
                attrs.replica, data.name
            ),
        });
    }
    if attrs.affinity == Some(data.id) {
        return Err(BitdewError::Scheduler {
            what: format!("`{}` cannot have affinity to itself", data.name),
        });
    }
    if attrs.compute.as_deref() == Some("") {
        return Err(BitdewError::Scheduler {
            what: format!("`{}` has an empty compute-function name", data.name),
        });
    }
    Ok(())
}

/// The catalog miss of a datum without a chunk manifest — shared by the
/// threaded node and the simulator adapter so both fail alike.
pub(crate) fn no_manifest(data: &Data) -> BitdewError {
    BitdewError::CatalogMiss {
        what: format!("chunk manifest for `{}`", data.name),
    }
}

/// Guard for a running reservoir heartbeat; stops the loop when dropped.
pub struct NodeHandle {
    node: Arc<BitdewNode>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl NodeHandle {
    /// The node being driven.
    pub fn node(&self) -> &Arc<BitdewNode> {
        &self.node
    }

    /// Stop the heartbeat and join the thread.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        self.node.stop.store(true, Ordering::Relaxed);
        // Interrupt the inter-sync park so shutdown is prompt even with a
        // long heartbeat period.
        *self.node.stop_mu.lock() = true;
        self.node.stop_cv.notify_all();
        if let Some(t) = self.thread.take() {
            // The thread's own exit guard deregisters it from `drivers`
            // (covering panics too); joining just makes that visible.
            let _ = t.join();
        }
    }
}

impl Drop for NodeHandle {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::{Lifetime, REPLICA_ALL};

    fn quick_container() -> Arc<ServiceContainer> {
        ServiceContainer::start(RuntimeConfig::default())
    }

    fn pump(nodes: &[&Arc<BitdewNode>], rounds: usize) {
        for _ in 0..rounds {
            for n in nodes {
                n.sync_once();
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn create_put_get_roundtrip() {
        let c = quick_container();
        let client = BitdewNode::new(Arc::clone(&c));
        let content: Vec<u8> = (0..120_000u32).map(|i| (i % 251) as u8).collect();
        let data = client.create_data("payload", &content).unwrap();
        client.put(&data, &content).unwrap();

        let worker = BitdewNode::new(Arc::clone(&c));
        let tid = worker.get(&data).unwrap();
        assert_eq!(worker.wait_for(tid).unwrap(), TransferState::Complete);
        let got = worker
            .local_store()
            .read_at(&data.object_name(), 0, content.len())
            .unwrap();
        assert_eq!(&got[..], &content[..]);
    }

    #[test]
    fn search_finds_registered_data() {
        let c = quick_container();
        let client = BitdewNode::new(Arc::clone(&c));
        let d = client.create_data("needle", b"x").unwrap();
        let hits = client.search("needle").unwrap();
        assert_eq!(hits, vec![d]);
        assert!(client.search("haystack").unwrap().is_empty());
    }

    #[test]
    fn scheduled_data_reaches_workers() {
        let c = quick_container();
        let client = BitdewNode::new(Arc::clone(&c));
        let content = vec![9u8; 80_000];
        let data = client.create_data("shared", &content).unwrap();
        client.put(&data, &content).unwrap();
        client
            .schedule(&data, DataAttributes::default().with_replica(REPLICA_ALL))
            .unwrap();

        let w1 = BitdewNode::new(Arc::clone(&c));
        let w2 = BitdewNode::new(Arc::clone(&c));
        pump(&[&w1, &w2], 50);
        assert!(w1.has_cached(data.id), "w1 got the datum");
        assert!(w2.has_cached(data.id), "w2 got the datum");
        assert!(w1.local_store().exists(&data.object_name()));
    }

    #[test]
    fn replica_one_goes_to_single_worker() {
        let c = quick_container();
        let client = BitdewNode::new(Arc::clone(&c));
        let data = client.create_data("solo", &vec![1u8; 10_000]).unwrap();
        client.put(&data, &vec![1u8; 10_000]).unwrap();
        client
            .schedule(&data, DataAttributes::default().with_replica(1))
            .unwrap();
        let w1 = BitdewNode::new(Arc::clone(&c));
        let w2 = BitdewNode::new(Arc::clone(&c));
        pump(&[&w1, &w2], 40);
        let owners = [w1.has_cached(data.id), w2.has_cached(data.id)];
        assert_eq!(
            owners.iter().filter(|&&b| b).count(),
            1,
            "exactly one owner"
        );
    }

    #[test]
    fn events_fire_on_copy_and_delete() {
        use std::sync::atomic::AtomicU32;
        let c = quick_container();
        let client = BitdewNode::new(Arc::clone(&c));
        let data = client.create_data("ev", &vec![5u8; 5_000]).unwrap();
        client.put(&data, &vec![5u8; 5_000]).unwrap();

        let copies = Arc::new(AtomicU32::new(0));
        let deletes = Arc::new(AtomicU32::new(0));
        let worker = BitdewNode::new(Arc::clone(&c));
        let (c2, d2) = (Arc::clone(&copies), Arc::clone(&deletes));
        worker.add_handler(
            EventFilter::any(),
            Box::new(
                crate::events::CallbackHandler::new()
                    .on_copy(move |_, _| {
                        c2.fetch_add(1, Ordering::Relaxed);
                    })
                    .on_delete(move |_, _| {
                        d2.fetch_add(1, Ordering::Relaxed);
                    }),
            ),
        );
        client
            .schedule(&data, DataAttributes::default().with_replica(1))
            .unwrap();
        pump(&[&worker], 40);
        assert!(worker.has_cached(data.id));
        assert_eq!(copies.load(Ordering::Relaxed), 1);

        // Delete the datum; the worker purges it on the next syncs.
        client.delete(&data).unwrap();
        pump(&[&worker], 10);
        assert!(!worker.has_cached(data.id));
        assert_eq!(deletes.load(Ordering::Relaxed), 1);
        assert!(!worker.local_store().exists(&data.object_name()));
    }

    #[test]
    fn affinity_routes_results_to_pinned_collector() {
        // The §5 result-collection idiom.
        let c = quick_container();
        let master = BitdewNode::new(Arc::clone(&c));
        let collector = master.create_slot("collector", 0).unwrap();
        master
            .schedule(&collector, DataAttributes::default().with_replica(0))
            .unwrap();
        master.pin(&collector, DataAttributes::default()).unwrap();

        // A worker produces a result with affinity to the collector.
        let worker = BitdewNode::new(Arc::clone(&c));
        let result = worker.create_data("result", b"answer=42").unwrap();
        worker.put(&result, b"answer=42").unwrap();
        worker
            .schedule(
                &result,
                DataAttributes::default().with_affinity(collector.id),
            )
            .unwrap();

        pump(&[&master, &worker], 50);
        assert!(master.has_cached(result.id), "result reached the master");
        let got = master
            .local_store()
            .read_at(&result.object_name(), 0, 9)
            .unwrap();
        assert_eq!(&got[..], b"answer=42");
    }

    #[test]
    fn lifetime_expiry_purges_cache() {
        let c = quick_container();
        let client = BitdewNode::new(Arc::clone(&c));
        let data = client.create_data("ttl", &vec![3u8; 2_000]).unwrap();
        client.put(&data, &vec![3u8; 2_000]).unwrap();
        let expiry = c.now_nanos() + 200_000_000; // 200 ms
        client
            .schedule(
                &data,
                DataAttributes::default()
                    .with_replica(1)
                    .with_lifetime(Lifetime::Absolute(expiry)),
            )
            .unwrap();
        let worker = BitdewNode::new(Arc::clone(&c));
        pump(&[&worker], 30);
        assert!(worker.has_cached(data.id));
        std::thread::sleep(Duration::from_millis(220));
        pump(&[&worker], 5);
        assert!(!worker.has_cached(data.id), "expired datum purged");
    }

    #[test]
    fn heartbeat_thread_drives_sync() {
        let c = quick_container();
        let client = BitdewNode::new(Arc::clone(&c));
        let data = client.create_data("hb", &vec![8u8; 30_000]).unwrap();
        client.put(&data, &vec![8u8; 30_000]).unwrap();
        client
            .schedule(&data, DataAttributes::default().with_replica(1))
            .unwrap();

        let worker = BitdewNode::new(Arc::clone(&c));
        let handle = worker.start_heartbeat(Duration::from_millis(5));
        let deadline = Instant::now() + Duration::from_secs(5);
        while !worker.has_cached(data.id) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        handle.stop();
        assert!(worker.has_cached(data.id));
    }

    #[test]
    fn heartbeat_stop_is_prompt_with_long_period() {
        // Regression: the reservoir loop used to `sleep(period)`
        // unconditionally, so stop/drop blocked up to a full period. It
        // now parks on a condvar signaled by stop.
        let c = quick_container();
        let worker = BitdewNode::new(Arc::clone(&c));
        let handle = worker
            .try_start_heartbeat(Duration::from_secs(5))
            .expect("spawn heartbeat");
        assert!(worker.is_driven(), "driver registered while running");
        // Let the first sync round run so the thread is parked in the
        // inter-sync wait when stop arrives.
        std::thread::sleep(Duration::from_millis(30));
        let started = Instant::now();
        handle.stop();
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_millis(100),
            "stop with a 5s period must return promptly, took {elapsed:?}"
        );
        assert!(!worker.is_driven(), "driver deregistered after stop");
    }

    #[test]
    fn heartbeat_restarts_after_stop() {
        // try_start_heartbeat resets the stop latch, so a stopped node can
        // be driven again (and the drop path also deregisters).
        let c = quick_container();
        let worker = BitdewNode::new(Arc::clone(&c));
        worker
            .try_start_heartbeat(Duration::from_millis(5))
            .expect("first heartbeat")
            .stop();
        let handle = worker
            .try_start_heartbeat(Duration::from_millis(5))
            .expect("second heartbeat");
        assert!(worker.is_driven());
        drop(handle);
        assert!(!worker.is_driven());
    }

    #[test]
    fn bittorrent_scheduled_distribution() {
        let c = quick_container();
        let client = BitdewNode::new(Arc::clone(&c));
        let content: Vec<u8> = (0..600_000u32).map(|i| (i % 251) as u8).collect();
        let data = client.create_data("big", &content).unwrap();
        client.put(&data, &content).unwrap();
        client
            .schedule(
                &data,
                DataAttributes::default()
                    .with_replica(REPLICA_ALL)
                    .with_protocol(ProtocolId::bittorrent()),
            )
            .unwrap();
        let workers: Vec<Arc<BitdewNode>> =
            (0..3).map(|_| BitdewNode::new(Arc::clone(&c))).collect();
        let refs: Vec<&Arc<BitdewNode>> = workers.iter().collect();
        pump(&refs, 120);
        for w in &workers {
            assert!(w.has_cached(data.id), "worker got the torrent payload");
            let got = w
                .local_store()
                .read_at(&data.object_name(), 0, content.len())
                .unwrap();
            assert_eq!(&got[..], &content[..]);
        }
    }

    #[test]
    fn barrier_waits_for_pending_downloads() {
        let c = quick_container();
        let client = BitdewNode::new(Arc::clone(&c));
        let data = client.create_data("bar", &vec![2u8; 150_000]).unwrap();
        client.put(&data, &vec![2u8; 150_000]).unwrap();
        client
            .schedule(&data, DataAttributes::default().with_replica(1))
            .unwrap();
        let worker = BitdewNode::new(Arc::clone(&c));
        worker.barrier(Duration::from_secs(10)).unwrap();
        assert!(worker.has_cached(data.id));
    }

    #[test]
    fn jitter_pinned_to_ten_percent_and_varies() {
        // Regression for the heartbeat jitter contract: every draw stays
        // inside ±10% of the configured period, and the draws actually
        // spread (a constant factor would re-synchronize the fleet).
        let period = Duration::from_millis(100);
        let lo = Duration::from_millis(90);
        let hi = Duration::from_millis(110);
        let mut distinct = std::collections::HashSet::new();
        for seed in [1u64, 42, 0xDEAD_BEEF, u64::MAX] {
            for round in 0..500u64 {
                let j = jittered(period, seed, round);
                assert!(j >= lo && j <= hi, "{j:?} outside ±10% of {period:?}");
                distinct.insert(j.as_nanos());
            }
        }
        assert!(
            distinct.len() > 200,
            "jitter varies across seeds and rounds"
        );
    }

    #[test]
    fn announce_rounds_replace_tcp_sync_between_full_rounds() {
        // With the discovery plane up, only every nth heartbeat round is
        // a full catalog sync; the rounds between are datagram-only and
        // still keep the host alive in the failure detector.
        let c = quick_container();
        let worker = BitdewNode::new(Arc::clone(&c));
        let every = c.config().announce.full_sync_every as u64;
        let mut full = 0;
        for _ in 0..(2 * every) {
            if worker.heartbeat_round().is_some() {
                full += 1;
            }
        }
        assert_eq!(full, 2, "one full sync per {every} rounds when idle");
        assert_eq!(worker.fallback_syncs(), 0);
        // The listener drains datagrams asynchronously; give it a moment.
        let stats = c.announce_stats().expect("announce plane running");
        let deadline = Instant::now() + Duration::from_secs(5);
        while stats.announces_rx() < 2 * every - 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(
            stats.announces_rx() >= 2 * every - 2,
            "liveness pings flowed on announce rounds"
        );
    }

    #[test]
    fn announce_degrades_to_tcp_when_datagram_plane_dies() {
        let c = quick_container();
        let worker = BitdewNode::new(Arc::clone(&c));
        worker.heartbeat_round(); // round 0: full sync, client handshakes
        c.fabric.udp().set_down(true);
        let mut full = 0;
        for _ in 0..4 {
            if worker.heartbeat_round().is_some() {
                full += 1;
            }
        }
        assert_eq!(full, 4, "every round falls back to TCP while down");
        assert!(worker.fallback_syncs() >= 1);
        // Revive: announce rounds resume (fresh handshake under the hood).
        c.fabric.udp().set_down(false);
        let before = worker.fallback_syncs();
        let mut announce_only = 0;
        for _ in 0..8 {
            if worker.heartbeat_round().is_none() {
                announce_only += 1;
            }
        }
        assert!(announce_only > 0, "datagram rounds resumed after revival");
        assert_eq!(worker.fallback_syncs(), before);
    }

    #[test]
    fn attribute_parsing_with_catalog_names() {
        let c = quick_container();
        let node = BitdewNode::new(Arc::clone(&c));
        let anchor = node.create_data("Anchor", b"a").unwrap();
        let attrs = node
            .create_attribute("attr x = { replica = 2, affinity = Anchor, oob = http }")
            .unwrap();
        assert_eq!(attrs.replica, 2);
        assert_eq!(attrs.affinity, Some(anchor.id));
        assert_eq!(attrs.protocol, ProtocolId::http());
    }
}
