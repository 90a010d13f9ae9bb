//! Virtual-time driver: the BitDew services under the simulator.
//!
//! The simulator runs the *real* service plane: the same
//! [`ShardedPlane`] the threaded runtime's container holds — Data Catalog
//! on one in-memory DewDB per shard, the sharded Data Scheduler
//! (Algorithm 1), and the version plane's operations
//! ([`crate::versions`]) over a [`MemStore`] standing in for the
//! repository — and the *same* host-agent decisions (the `agent` module:
//! cadence, claims and their effect, fetch-source order, sync-reply
//! triage). What it simulates is time, flows, churn and cost. Reservoir
//! heartbeats are virtual-clock events, downloads are max-min-fair flows
//! on a [`FlowNet`], announces are byte counters, and host churn comes
//! from a scripted plan. This is how the paper's testbed experiments are
//! regenerated without the testbed — most directly Fig. 4 (the DSL-Lab
//! fault-tolerance scenario), whose waiting times are produced by the
//! genuine failure-detector/heartbeat machinery below, not by a
//! closed-form model.
//!
//! [`SimBitdew::with_shards`] partitions the plane over N consistent-hash
//! shards and charges per-shard service latency (a queue per shard, slices
//! processed in parallel), so the service plane's horizontal scaling is
//! measurable in virtual time.
//!
//! [`SimBitdew`] is the scenario-scripting face (hosts, churn, traces).
//! [`SimNode`] wraps one simulated host behind the three API traits of
//! [`crate::api`] — [`BitDewApi`], [`ActiveData`], [`TransferManager`] — so
//! application code generic over those traits runs under virtual time
//! exactly as it runs on the threaded [`BitdewNode`](crate::BitdewNode):
//! waits and barriers advance the discrete-event clock instead of sleeping.
//!
//! Sessions over a [`SimNode`] always drain **cooperatively**: the node is
//! single-threaded (`Rc`-based, `!Send`), so registration with the shared
//! [`ExecutorPool`](crate::api::pool::ExecutorPool) is not even
//! expressible for it — `Session::start_executor` requires `Send + Sync`
//! — and every queue drain happens inside a wait, in discrete-event
//! order. The pool is therefore a no-op concept under the simulator: the
//! same generic application code runs, with the drain driven by the
//! virtual clock instead of worker threads. Likewise the bus's `Block`
//! backpressure degrades to lossless here (a single thread can never park
//! on itself), so the threaded runtime's publish-deferral machinery has
//! nothing to defer in virtual time.

use std::cell::{Ref, RefCell};
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::num::NonZeroUsize;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use bitdew_sim::{
    every, FlowNet, FlowOutcome, HostId, Sim, SimDuration, SimTime, Trace, TraceEvent,
};
use bitdew_storage::codec::Encode;
use bitdew_storage::{ConnectionPool, DewDb, EmbeddedDriver};
use bitdew_transport::{FileStore, MemStore, StoreError};
use bitdew_util::{Auid, IdMap};

use crate::agent::{self, Cadence, Holding, InFlight};
use crate::announce::{HostCache, FLAG_SERVING};
use crate::api::{
    ActiveData, Backpressure, BitDewApi, BitdewError, DataEvent, DataEventKind, EventBus,
    EventFilter, EventSub, HandlerId, Result, TransferManager,
};
use crate::attr::DataAttributes;
use crate::attrparse;
use crate::chunks::{ChunkHoldings, ChunkManifest};
use crate::data::{Data, DataId};
use crate::events::ActiveDataEventHandler;
use crate::runtime::no_manifest;
use crate::services::catalog::DbAccess;
use crate::services::scheduler::{HostUid, SyncRole};
use crate::services::transfer::{TransferId, TransferState};
use crate::shard::ShardedPlane;
use crate::versions::{
    check_republish, GcReport, ResolvedVersion, Snapshot, VersionPlane, VersionedManifest,
};

/// A served sync's transfer orders: downloads, then chunk repairs.
type Orders = (Vec<(Data, DataAttributes)>, Vec<(Data, DataAttributes)>);

/// Called when a node finishes downloading a datum.
pub type CopyHook = Box<dyn FnMut(&mut Sim, HostUid, &Data)>;

/// Nominal rate (bytes/s) of a synchronous compute-plane fallback fetch —
/// a 1 Gb/s NIC, matching the flow model's default link class.
const SIM_FETCH_RATE: f64 = 125_000_000.0;

// --- Discovery-plane cost model -------------------------------------------
//
// Announce/scrape datagrams are *not* simulated as flows: they are tiny,
// fire-and-forget, and at 100k hosts per-datagram flow events would
// dominate the event loop. Each datagram instead charges the byte counters
// below, sized by the real codec's wire layout (pinned by a unit test
// against `AnnounceMsg`'s actual encoding). The TCP sync model follows the
// paper's web-service transport (§4.1, Table 2 measures DC operations over
// SOAP): each synchronization is a SOAP request/response envelope pair
// plus per-item XML-serialized payload — which is exactly why the paper's
// service host tops out where Fig. 3 shows it, and what the compact binary
// datagrams are up against.

/// Wire bytes of one announce datagram with an empty bitmap: magic(4) +
/// kind(1) + conn_id(8) + host(16) + data(16) + version(8) + ttl(8) +
/// flags(1) + bitmap length prefix(4). A chunk bitmap adds its byte
/// length.
pub const SIM_ANNOUNCE_WIRE: u64 = 66;
/// Wire bytes of a scrape request: magic(4) + kind(1) + conn_id(8) +
/// txid(8) + data(16).
pub const SIM_SCRAPE_WIRE: u64 = 37;
/// Fixed wire bytes of a scrape reply: magic(4) + kind(1) + txid(8) +
/// data(16) + host count(4); each listed host adds
/// [`SIM_SCRAPE_HOST_WIRE`].
pub const SIM_SCRAPE_REPLY_WIRE: u64 = 33;
/// Per-host entry in a scrape reply: uid(16) + flags(1).
pub const SIM_SCRAPE_HOST_WIRE: u64 = 17;
/// IP + UDP header overhead charged per datagram.
pub const SIM_UDP_OVERHEAD: u64 = 28;
/// Fixed bytes of one TCP catalog synchronization: the SOAP request and
/// response envelopes (HTTP headers + XML envelope/body framing both
/// ways) of the paper's web-service DS endpoint.
pub const SIM_SYNC_BASE_BYTES: u64 = 1200;
/// Per cached-datum cost in a sync request: one uid XML-serialized with
/// its element tags in the SOAP body.
pub const SIM_SYNC_ID_BYTES: u64 = 24;
/// Per transfer-order entry in a sync reply (datum uid, name, attribute
/// summary, locator reference — XML-serialized).
pub const SIM_SYNC_REPLY_ENTRY_BYTES: u64 = 64;

/// Byte/datagram counters of the simulated synchronization planes —
/// TCP catalog syncs on one side, announce/scrape datagrams on the other
/// (the `announce_scale` bench's measurement surface).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SimSyncStats {
    /// Full TCP catalog synchronizations served.
    pub tcp_syncs: u64,
    /// Bytes those syncs moved (SOAP model — see the module constants).
    pub tcp_bytes: u64,
    /// Announce datagrams sent (liveness pings + holdings refreshes).
    pub announce_datagrams: u64,
    /// Bytes those datagrams moved, UDP/IP overhead included.
    pub announce_bytes: u64,
    /// Scrape request/reply exchanges.
    pub scrapes: u64,
    /// Bytes those exchanges moved, overhead included.
    pub scrape_bytes: u64,
    /// Announce rounds that degraded to a full TCP sync because the
    /// datagram plane was down.
    pub fallback_syncs: u64,
    /// Claims the TTL sweep evicted from the host cache.
    pub cache_evictions: u64,
    /// Version-plane CAS publications ([`crate::api::BitDewApi::commit_update`] commits).
    pub version_publishes: u64,
    /// Bytes those publications moved: the encoded [`VersionedManifest`]
    /// row inside one SOAP envelope pair (version publication is a small
    /// metadata flow, not a data flow).
    pub version_bytes: u64,
}

/// Virtual-time state of the announce plane: the same TTL-expiring
/// [`HostCache`] the threaded announce server aggregates into, plus the
/// plane's health switch. Each host's claim clock is in its
/// [`HostState`](agent::HostState).
struct AnnounceSimState {
    /// `false` models a dead datagram path: every node's announce rounds
    /// degrade to full TCP syncs until revived.
    up: bool,
    cache: HostCache,
    stats: SimSyncStats,
}

/// Shared state of one in-flight per-chunk multi-source fetch.
struct SimChunkFetch {
    data: Data,
    idx: HostIdx,
    dest: HostId,
    /// Chunk repair (datum stays cached; no Copy hook on completion).
    repair: bool,
    /// Chunk indices not yet claimed by any source.
    queue: VecDeque<usize>,
    /// Per-chunk byte counts.
    lens: Vec<f64>,
    /// Chunks not yet delivered.
    remaining: usize,
    /// Sources that failed a flow mid-fetch.
    dead: HashSet<HostId>,
    sources: Vec<HostId>,
    failed: bool,
    /// Round-robin cursor for re-assigning a dead source's chunks.
    rr: usize,
    started: SimTime,
    /// Bytes delivered.
    moved: f64,
}

impl SimChunkFetch {
    /// The next surviving source, round-robin; `None` when all are dead.
    fn next_alive(&mut self) -> Option<HostId> {
        for _ in 0..self.sources.len() {
            let s = self.sources[self.rr % self.sources.len()];
            self.rr += 1;
            if !self.dead.contains(&s) {
                return Some(s);
            }
        }
        None
    }
}

/// A host's slot in [`DriverState::hosts`]. Heartbeat timers, flow
/// callbacks and [`SimNode`]s name their host by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HostIdx(u32);

/// What a simulated host knows (see [`agent::HostState`]). Its cache
/// entries and transfers carry no record of their own; the backend-only
/// fact is a partial holder's exact chunk set, for the chunk-level repair
/// loop and the compute plane's locality checks.
type HostFacts = agent::HostState<(), (), (), BTreeSet<u32>>;

struct SimHost {
    uid: HostUid,
    host: HostId,
    alive: bool,
    role: SyncRole,
    state: HostFacts,
}

/// Why a catalog call on the simulator's plane does not fail: its shards
/// are in-memory DewDBs holding only rows this process encoded.
const IN_MEMORY: &str = "the simulated catalog is in memory";

struct DriverState {
    /// The service plane: catalog, scheduler and version state.
    plane: ShardedPlane,
    /// The data space's content (the threaded runtime's repository store):
    /// `put` bytes and version pre-images.
    store: MemStore,
    /// Every host attached, dead ones included, in attach order.
    hosts: Vec<SimHost>,
    /// Host lookup for API callers, who name a host by its uid…
    by_uid: IdMap<HostUid, HostIdx>,
    /// …or by its simulator host.
    by_host: HashMap<HostId, HostIdx>,
    /// Heartbeat timing: a full sync every round until
    /// [`SimBitdew::enable_announce`] sets the announce plane's cadence.
    cadence: Cadence,
    copy_hook: Option<CopyHook>,
    /// Monotonic ids for direct (`get`) transfers.
    next_transfer: u64,
    /// Per-shard service cost charged per synchronization item (cache
    /// slice entries + candidate scans). Zero = the plane is free, the
    /// pre-sharding behavior.
    service_cost_per_item: SimDuration,
    /// Fixed per-shard cost per synchronization request.
    service_cost_base: SimDuration,
    /// Each shard's service queue: the instant it becomes free.
    shard_busy: Vec<SimTime>,
    /// Synchronizations fully served (their shard work finished).
    syncs_served: u64,
    /// Chunk flows started from a peer replica (vs the service host) —
    /// the multi-source data plane's utilization counter.
    peer_chunk_flows: u64,
    /// The announce plane, when [`SimBitdew::enable_announce`]d.
    announce: Option<AnnounceSimState>,
    /// TCP sync counters while announce is disabled (the baseline a
    /// TCP-only run measures; with announce enabled the counters live in
    /// [`AnnounceSimState::stats`]).
    tcp_stats: SimSyncStats,
    /// Control traffic competes for real link capacity: sync replies move
    /// as flows through the service host's links, announce datagrams hold
    /// an aggregate downlink reservation, and version publications flow
    /// upstream. Off (the default) reproduces the counter-only model.
    control_contention: bool,
    /// Live node count, maintained O(1) for the announce-plane downlink
    /// reservation.
    alive_nodes: usize,
}

impl DriverState {
    /// The datum's resolved head; `None` when it was never chunked.
    fn head(&self, id: DataId) -> Option<Arc<ResolvedVersion>> {
        self.plane.head(id).expect(IN_MEMORY)
    }

    /// The live sync counters: the announce plane's when it is enabled,
    /// the TCP-only baseline's otherwise.
    fn stats_mut(&mut self) -> &mut SimSyncStats {
        match self.announce.as_mut() {
            Some(a) => &mut a.stats,
            None => &mut self.tcp_stats,
        }
    }

    fn host(&self, idx: HostIdx) -> &SimHost {
        &self.hosts[idx.0 as usize]
    }

    fn host_mut(&mut self, idx: HostIdx) -> &mut SimHost {
        &mut self.hosts[idx.0 as usize]
    }

    /// Record that host `idx`'s bytes of `id` are the head's (a chunked
    /// datum only).
    fn note_held_version(&mut self, idx: HostIdx, id: DataId) {
        let version = self.head(id).map_or(0, |h| h.version);
        self.host_mut(idx).state.note_held_version(id, version);
    }

    /// Where a chunked fetch of `data` towards `dest` pulls from, in
    /// [`agent::source_order`]: the service host, then every live node
    /// caching a complete replica (partial holders are repairing, not
    /// serving).
    fn chunk_sources(&self, service_host: HostId, dest: HostId, data: DataId) -> Vec<HostId> {
        let peers: Vec<(HostId, HostId)> = self
            .hosts
            .iter()
            .filter(|n| {
                n.alive
                    && n.state
                        .get(data)
                        .is_some_and(|f| f.cached.is_some() && f.extra.is_none())
            })
            .map(|n| (n.host, n.host))
            .collect();
        agent::source_order(&dest, vec![service_host], peers)
    }

    /// The exact chunk set host `idx` verifiably holds of a
    /// manifest-backed datum: the partial set when one is tracked, every
    /// chunk when the datum is fully cached, empty otherwise.
    fn held_chunks(&self, idx: HostIdx, data: DataId) -> Vec<u32> {
        let facts = self.host(idx).state.get(data);
        if let Some(set) = facts.and_then(|f| f.extra.as_ref()) {
            return set.iter().copied().collect();
        }
        match self.head(data) {
            Some(head) if facts.is_some_and(|f| f.cached.is_some()) => {
                (0..head.chunk_count()).collect()
            }
            _ => Vec::new(),
        }
    }
}

/// The virtual-time BitDew control plane.
#[derive(Clone)]
pub struct SimBitdew {
    state: Rc<RefCell<DriverState>>,
    net: FlowNet,
    service_host: HostId,
    heartbeat: SimDuration,
    /// Per-transfer startup latency (DC/DR/DT setup, §4.3).
    setup_latency: SimDuration,
    trace: Trace,
}

impl SimBitdew {
    /// Create the control plane on `net`, serving data from `service_host`,
    /// with the monolithic (1-shard) service plane.
    /// The failure-detector timeout is 3 × `heartbeat` (§4.4).
    pub fn new(
        net: FlowNet,
        service_host: HostId,
        heartbeat: SimDuration,
        trace: Trace,
    ) -> SimBitdew {
        Self::with_shards(net, service_host, heartbeat, trace, NonZeroUsize::MIN)
    }

    /// [`SimBitdew::new`] with the DC+DS plane partitioned over `shards`
    /// consistent-hash shards (see [`crate::shard`]). Shard service queues
    /// drain in parallel, so with a non-zero service cost
    /// ([`SimBitdew::set_service_cost`]) the plane's sync capacity grows
    /// with the shard count.
    pub fn with_shards(
        net: FlowNet,
        service_host: HostId,
        heartbeat: SimDuration,
        trace: Trace,
        shards: NonZeroUsize,
    ) -> SimBitdew {
        let timeout = heartbeat.as_nanos().saturating_mul(3);
        let plane = ShardedPlane::new(shards, timeout, 64, |_| {
            let driver = Arc::new(EmbeddedDriver::new(DewDb::in_memory()));
            DbAccess::Pooled(ConnectionPool::new(driver, 1))
        });
        SimBitdew {
            state: Rc::new(RefCell::new(DriverState {
                plane,
                store: MemStore::default(),
                hosts: Vec::new(),
                by_uid: IdMap::default(),
                by_host: HashMap::new(),
                cadence: Cadence::new(heartbeat.as_nanos(), 1, 1),
                copy_hook: None,
                next_transfer: 1,
                service_cost_per_item: SimDuration::ZERO,
                service_cost_base: SimDuration::ZERO,
                shard_busy: vec![SimTime::ZERO; shards.get()],
                syncs_served: 0,
                peer_chunk_flows: 0,
                announce: None,
                tcp_stats: SimSyncStats::default(),
                control_contention: false,
                alive_nodes: 0,
            })),
            net,
            service_host,
            heartbeat,
            setup_latency: SimDuration::from_millis(150),
            trace,
        }
    }

    /// Charge each shard `base + per_item × items` of service time per
    /// synchronization, where `items` is the shard's share of the work
    /// (its slice of the host cache plus its candidate scan). Requests
    /// queue per shard; shards serve in parallel.
    pub fn set_service_cost(&self, base: SimDuration, per_item: SimDuration) {
        let mut st = self.state.borrow_mut();
        st.service_cost_base = base;
        st.service_cost_per_item = per_item;
    }

    /// Synchronizations whose service-plane work has completed.
    pub fn syncs_served(&self) -> u64 {
        self.state.borrow().syncs_served
    }

    /// Turn on the announce plane: only every `full_sync_every`th
    /// heartbeat of each node runs a full TCP catalog sync; the rounds
    /// between send compact announce datagrams whose claims live
    /// `ttl_factor` × heartbeat in the host cache. The two factors mean
    /// what they mean in [`crate::runtime::AnnounceConfig`] (0 counts as
    /// 1).
    pub fn enable_announce(&self, ttl_factor: u32, full_sync_every: u32) {
        let mut st = self.state.borrow_mut();
        st.cadence = Cadence::new(self.heartbeat.as_nanos(), ttl_factor, full_sync_every);
        st.announce = Some(AnnounceSimState {
            up: true,
            cache: HostCache::new(),
            stats: SimSyncStats::default(),
        });
    }

    /// Route the control plane through the service host's *actual links*
    /// instead of only incrementing the [`SimSyncStats`] counters: full
    /// TCP sync replies become real flows on the service uplink (a node
    /// that dies mid-sync loses its transfer orders with the usual
    /// flow-failure semantics), the announce datagram stream holds an
    /// aggregate service-downlink reservation sized by the live node
    /// count, and version publications flow node → service. The counters
    /// keep counting either way; only *durations* change. Off by default —
    /// enable after `enable_announce` when congestion-honest timing is
    /// wanted.
    pub fn set_contended_control(&self, sim: &mut Sim, on: bool) {
        self.state.borrow_mut().control_contention = on;
        self.refresh_control_reservation(sim);
    }

    /// Re-derive the announce-plane's aggregate service-downlink
    /// reservation: every live node emits one liveness datagram per
    /// heartbeat, and those bytes/second occupy the service's inbound pipe
    /// before any payload flow gets a share.
    fn refresh_control_reservation(&self, sim: &mut Sim) {
        let (on, announce_on, alive) = {
            let st = self.state.borrow();
            (st.control_contention, st.announce.is_some(), st.alive_nodes)
        };
        let rate = if on && announce_on {
            alive as f64 * (SIM_ANNOUNCE_WIRE + SIM_UDP_OVERHEAD) as f64
                / self.heartbeat.as_secs_f64().max(1e-9)
        } else {
            0.0
        };
        self.net.reserve_down(sim, self.service_host, rate);
    }

    /// Kill or revive the datagram path. While down, every node's
    /// announce rounds degrade to full TCP syncs (counted as
    /// [`SimSyncStats::fallback_syncs`]), so liveness and replica
    /// bookkeeping survive on the reliable plane.
    pub fn set_udp_up(&self, up: bool) {
        if let Some(a) = self.state.borrow_mut().announce.as_mut() {
            a.up = up;
        }
    }

    /// The synchronization planes' byte/datagram counters. TCP counters
    /// accumulate with announce disabled too, so a TCP-only run measures
    /// the baseline the announce plane is compared against.
    pub fn sync_stats(&self) -> SimSyncStats {
        let st = self.state.borrow();
        st.announce
            .as_ref()
            .map_or(&st.tcp_stats, |a| &a.stats)
            .clone()
    }

    /// Live claims in the announce host cache (0 with announce disabled).
    pub fn announce_claims(&self) -> usize {
        self.state
            .borrow()
            .announce
            .as_ref()
            .map(|a| a.cache.len())
            .unwrap_or(0)
    }

    /// Hosts with a live announce claim on `data` at the current virtual
    /// time, with their flags.
    pub fn announce_holders(&self, sim: &Sim, data: DataId) -> Vec<(HostUid, u8)> {
        self.state
            .borrow()
            .announce
            .as_ref()
            .map(|a| {
                a.cache
                    .holders(data, sim.now().as_nanos())
                    .into_iter()
                    .map(|(h, f, _)| (h, f))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Number of service-plane shards.
    pub fn shard_count(&self) -> usize {
        self.state.borrow().plane.shard_count()
    }

    /// Install a hook fired on every completed copy (the MW workloads use
    /// this to chain computation onto data arrival).
    pub fn set_copy_hook(&self, hook: CopyHook) {
        self.state.borrow_mut().copy_hook = Some(hook);
    }

    /// The trace being written.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Schedule a datum (the ActiveData `schedule` call), registering it
    /// in the catalog first when it is not there yet.
    pub fn schedule_data(&self, data: Data, attrs: DataAttributes) {
        let st = self.state.borrow();
        if st.plane.get(data.id).expect(IN_MEMORY).is_none() {
            st.plane.register(&data).expect(IN_MEMORY);
        }
        st.plane.scheduler().schedule(data, attrs);
    }

    /// Register (or overwrite) a datum in the catalog without scheduling
    /// it (the BitDew `createData` call).
    pub fn register_data(&self, data: &Data) {
        self.state.borrow().plane.register(data).expect(IN_MEMORY);
    }

    /// Metadata and scheduling attributes of a datum, when known.
    fn lookup(&self, id: DataId) -> Option<(Data, DataAttributes)> {
        let st = self.state.borrow();
        let data = st.plane.get(id).expect(IN_MEMORY)?;
        let attrs = st.plane.scheduler().attributes_of(id).unwrap_or_default();
        Some((data, attrs))
    }

    /// Bytes `[offset, offset + len)` of `data`'s content, short at EOF. A
    /// datum never `put` models its `size` bytes as zeros without storing
    /// them, so a manifest-only blob stays metadata.
    fn read_content(&self, data: &Data, size: u64, offset: u64, len: usize) -> Result<Vec<u8>> {
        let st = self.state.borrow();
        let object = data.object_name();
        if !st.store.exists(&object) {
            return Ok(vec![0; len.min(size.saturating_sub(offset) as usize)]);
        }
        let end = st.store.size(&object)?;
        let mut out = Vec::new();
        st.store
            .read_into(&object, offset.min(end), len, &mut out)?;
        Ok(out)
    }

    /// Store the `size` modeled zero bytes of a datum never `put`, so a
    /// write can patch them.
    fn materialize(&self, data: &Data, size: u64) -> Result<()> {
        let st = self.state.borrow();
        let object = data.object_name();
        if !st.store.exists(&object) {
            st.store.write_at(&object, 0, &vec![0; size as usize])?;
        }
        Ok(())
    }

    /// The slot of the host `uid` names, when it is attached.
    fn idx_of(&self, uid: HostUid) -> Option<HostIdx> {
        self.state.borrow().by_uid.get(&uid).copied()
    }

    /// Scheduled downloads and repairs in flight towards host `idx`.
    fn in_flight_of(&self, idx: HostIdx) -> usize {
        self.state.borrow().host(idx).state.in_flight()
    }

    /// Pin a datum to a node (the ActiveData `pin` call).
    pub fn pin(&self, data: DataId, uid: HostUid) {
        if let Some(idx) = self.idx_of(uid) {
            self.pin_at(idx, data);
        }
    }

    /// [`SimBitdew::pin`] on host `idx`.
    fn pin_at(&self, idx: HostIdx, data: DataId) {
        let mut st = self.state.borrow_mut();
        let uid = st.host(idx).uid;
        st.plane.scheduler().pin(data, uid);
        st.note_held_version(idx, data);
        st.host_mut(idx).state.cache(data, ());
    }

    /// Publish a chunk manifest through the catalog: the datum's transfers
    /// become per-chunk flows work-stolen across the service host and every
    /// live replica owner, its replica validation becomes chunk-aware, and
    /// the manifest becomes its version 1 and head.
    ///
    /// # Panics
    /// When the datum has committed versions and `manifest` is not its
    /// head's chunk map (see [`check_republish`]).
    pub fn put_manifest(&self, manifest: &ChunkManifest) {
        let st = self.state.borrow();
        st.plane
            .put_manifest(manifest)
            .expect("a base manifest under no committed version");
    }

    /// Chunk flows served by peer replicas (rather than the service host)
    /// since the start of the simulation.
    pub fn peer_chunk_flows(&self) -> u64 {
        self.state.borrow().peer_chunk_flows
    }

    /// Model partial replica loss: node `uid` forgets `lost` chunks of a
    /// manifest-backed datum it holds. The scheduler drops it from Ω and
    /// its next synchronization returns a chunk-level repair order that
    /// moves only the missing chunks.
    pub fn lose_chunks(&self, uid: HostUid, data: DataId, lost: u32) {
        let Some(idx) = self.idx_of(uid) else { return };
        let mut st = self.state.borrow_mut();
        let Some(total) = st.head(data).map(|h| h.chunk_count()) else {
            return;
        };
        let held: BTreeSet<u32> = (0..total.saturating_sub(lost)).collect();
        let report: Vec<u32> = held.iter().copied().collect();
        st.host_mut(idx)
            .state
            .update(data, |f| f.extra = Some(held));
        st.plane.scheduler().report_chunk_set(uid, data, &report);
    }

    /// Register a *partial* pin: `uid` holds the first `held` of the
    /// datum's chunks. Full holdings are an ordinary pin.
    pub fn pin_partial(&self, data: DataId, uid: HostUid, held: u32) {
        let set: Vec<u32> = (0..held).collect();
        self.pin_partial_set(data, uid, &set);
    }

    /// Register a *partial* pin with the exact chunk indices `uid` holds
    /// (the SimNode face of `pin_chunks`). A full complement is an
    /// ordinary pin.
    pub fn pin_partial_set(&self, data: DataId, uid: HostUid, held: &[u32]) {
        if let Some(idx) = self.idx_of(uid) {
            self.pin_partial_at(idx, data, held);
        }
    }

    /// [`SimBitdew::pin_partial_set`] on host `idx`.
    fn pin_partial_at(&self, idx: HostIdx, data: DataId, held: &[u32]) {
        let total = self.state.borrow().head(data).map(|h| h.chunk_count());
        let Some(total) = total else { return };
        let set: BTreeSet<u32> = held.iter().copied().filter(|&i| i < total).collect();
        if set.len() as u32 >= total {
            self.pin_at(idx, data);
            return;
        }
        let report: Vec<u32> = set.iter().copied().collect();
        let mut st = self.state.borrow_mut();
        let uid = st.host(idx).uid;
        st.plane.scheduler().report_chunk_set(uid, data, &report);
        st.note_held_version(idx, data);
        st.host_mut(idx).state.update(data, |f| {
            f.extra = Some(set);
            f.cached = Some(());
        });
    }

    /// The exact chunk set `uid` verifiably holds of a manifest-backed
    /// datum: the partial set when one is tracked, every chunk when the
    /// datum is fully cached, empty otherwise.
    pub fn held_chunk_set(&self, uid: HostUid, data: DataId) -> Vec<u32> {
        self.idx_of(uid)
            .map_or_else(Vec::new, |idx| self.state.borrow().held_chunks(idx, data))
    }

    /// Record that host `idx` acquired `chunks` of a datum (a compute-plane
    /// fallback fetch). Keeps the held set exact without promoting the
    /// datum into the node's cache — the scheduler learns the new set at
    /// the node's next heartbeat, as it would on the threaded runtime.
    fn absorb_chunks(&self, idx: HostIdx, data: DataId, chunks: &[u32]) {
        let mut st = self.state.borrow_mut();
        let Some(total) = st.head(data).map(|h| h.chunk_count()) else {
            return;
        };
        let host = &mut st.host_mut(idx).state;
        let already_full = host
            .get(data)
            .is_some_and(|f| f.cached.is_some() && f.extra.is_none());
        if already_full {
            return;
        }
        host.update(data, |f| {
            let set = f.extra.get_or_insert_with(BTreeSet::new);
            set.extend(chunks.iter().copied().filter(|&i| i < total));
        });
    }

    /// Current owner set of a datum.
    pub fn owners_of(&self, data: DataId) -> Vec<HostUid> {
        self.state.borrow().plane.scheduler().owners_of(data)
    }

    /// Node's cache contents.
    pub fn cache_of(&self, uid: HostUid) -> Vec<DataId> {
        self.idx_of(uid)
            .map_or_else(Vec::new, |idx| self.cached_at(idx))
    }

    /// [`SimBitdew::cache_of`] host `idx`.
    fn cached_at(&self, idx: HostIdx) -> Vec<DataId> {
        self.state.borrow().host(idx).state.cached_ids().collect()
    }

    /// Attach a reservoir node on simulator host `host`, heartbeating from
    /// `start_at`. Returns its BitDew identity.
    pub fn add_node(&self, sim: &mut Sim, host: HostId, start_at: SimTime) -> HostUid {
        self.add_node_with_role(sim, host, start_at, SyncRole::Reservoir)
    }

    /// [`SimBitdew::add_node`] with an explicit role: clients receive only
    /// affinity-driven placements, mirroring the threaded runtime's
    /// client/reservoir split.
    pub fn add_node_with_role(
        &self,
        sim: &mut Sim,
        host: HostId,
        start_at: SimTime,
        role: SyncRole,
    ) -> HostUid {
        self.attach_host(sim, host, start_at, role).0
    }

    /// [`SimBitdew::add_node_with_role`], also returning the host's slot.
    fn attach_host(
        &self,
        sim: &mut Sim,
        host: HostId,
        start_at: SimTime,
        role: SyncRole,
    ) -> (HostUid, HostIdx) {
        let uid = Auid::generate(sim.now().as_nanos().max(1), &mut sim.rng);
        let idx = {
            let mut st = self.state.borrow_mut();
            let idx = HostIdx(st.hosts.len() as u32);
            st.hosts.push(SimHost {
                uid,
                host,
                alive: true,
                role,
                state: HostFacts::default(),
            });
            st.by_uid.insert(uid, idx);
            st.by_host.insert(host, idx);
            st.alive_nodes += 1;
            idx
        };
        self.refresh_control_reservation(sim);
        self.trace
            .push(start_at.max(sim.now()), TraceEvent::HostUp { host });
        let driver = self.clone();
        every(sim, start_at, self.heartbeat, move |sim| {
            driver.heartbeat_step(sim, idx)
        });
        (uid, idx)
    }

    /// Kill the node on `host` (heartbeats stop; its flows are failed by the
    /// caller flipping the FlowNet host state — `ChurnDriver` does both).
    pub fn kill_host(&self, sim: &mut Sim, host: HostId) {
        let mut st = self.state.borrow_mut();
        if let Some(idx) = st.by_host.get(&host).copied() {
            let n = st.host_mut(idx);
            let died = std::mem::replace(&mut n.alive, false);
            n.state.abandon_transfers();
            if died {
                st.alive_nodes = st.alive_nodes.saturating_sub(1);
            }
        }
        drop(st);
        self.refresh_control_reservation(sim);
        self.trace.push(sim.now(), TraceEvent::HostDown { host });
    }

    /// Run the failure detector periodically (every heartbeat period).
    pub fn start_failure_detector(&self, sim: &mut Sim, start_at: SimTime) {
        let driver = self.clone();
        every(sim, start_at, self.heartbeat, move |sim| {
            let now = sim.now().as_nanos();
            driver.state.borrow().plane.scheduler().detect_failures(now);
            true
        });
    }

    /// One compact announce round for host `idx`: a liveness ping plus a
    /// claim per cached datum that is due, each charged to the byte
    /// counters and landed in the host cache. Claims are never encoded:
    /// their effect on the scheduler is applied directly.
    fn announce_refresh(st: &mut DriverState, idx: HostIdx, now: u64) {
        let DriverState {
            plane,
            hosts,
            announce,
            cadence,
            ..
        } = st;
        let Some(a) = announce.as_mut() else {
            return;
        };
        let node = &mut hosts[idx.0 as usize];
        let uid = node.uid;
        plane.scheduler_mut().touch_host_mut(uid, now);
        a.stats.announce_datagrams += 1;
        a.stats.announce_bytes += SIM_ANNOUNCE_WIRE + SIM_UDP_OVERHEAD;
        let due: Vec<(DataId, Option<Vec<u32>>, Option<u64>)> = node
            .state
            .claims_due(cadence, now)
            .map(|(d, f)| {
                let partial = f.extra.as_ref().map(|s| s.iter().copied().collect());
                (d, partial, f.held_version)
            })
            .collect();
        for (d, partial, held_version) in due {
            let holding = partial
                .as_deref()
                .map_or(Holding::Complete, Holding::Partial);
            let head = plane.head(d).expect(IN_MEMORY);
            let chunks = head.as_ref().map_or(0, |h| h.chunk_count());
            let Some(claim) = agent::claim(holding, chunks, FLAG_SERVING) else {
                continue;
            };
            let head_v = head.as_ref().map_or(0, |h| h.version);
            let held_v = held_version.unwrap_or(head_v);
            let effect = agent::claim_effect(&claim, held_v, head_v, || head.as_deref().cloned());
            plane.scheduler().apply_claim(uid, d, effect);
            let expires = now.saturating_add(cadence.ttl());
            a.cache.insert(uid, d, expires, claim.flags, held_v);
            node.state.note_announced(d, now);
            a.stats.announce_datagrams += 1;
            a.stats.announce_bytes +=
                SIM_ANNOUNCE_WIRE + SIM_UDP_OVERHEAD + claim.bitmap.len() as u64;
        }
    }

    /// One heartbeat for host `idx`: sync with the sharded scheduler, purge
    /// obsolete data, start flows for new assignments once the service
    /// plane has processed the request (per-shard queues, drained in
    /// parallel; free when no service cost is configured). With the
    /// announce plane up, only every nth round is that full TCP sync; the
    /// rounds between send compact datagrams only. Returns false
    /// (stopping the recurring timer) when the node is dead.
    fn heartbeat_step(&self, sim: &mut Sim, idx: HostIdx) -> bool {
        let now = sim.now().as_nanos();
        let (orders, served_at, sync_bytes, contended) = {
            let mut st = self.state.borrow_mut();
            let st = &mut *st;
            let cadence = st.cadence;
            let node = st.host_mut(idx);
            if !node.alive {
                return false;
            }
            let round = node.state.next_round(&cadence);
            // TTL sweep (O(1) when nothing expired): claims of silently
            // dead hosts leave the scheduler's replica view here, exactly
            // as the threaded announce server's sweep drops them.
            if let Some(a) = st.announce.as_mut() {
                let evicted = a.cache.sweep(now);
                a.stats.cache_evictions += evicted.len() as u64;
                for (h, d) in evicted {
                    st.plane.scheduler().drop_host_holding(h, d);
                }
            }
            let up = st.announce.as_ref().map(|a| a.up);
            if up == Some(true) {
                Self::announce_refresh(st, idx, now);
            }
            // Without a live datagram plane every round is a full sync;
            // with one, work in flight makes the host busy.
            if up == Some(true) && !round.full() {
                if cfg!(debug_assertions) {
                    st.host(idx).state.check();
                }
                return true; // datagram-only round
            }
            let fallback = up == Some(false) && !round.periodic;
            let node = &st.hosts[idx.0 as usize];
            let cache: Vec<DataId> = node.state.cached_ids().collect();
            // Report exact partial chunk sets before synchronizing, as the
            // threaded node does each pump — chunks acquired out of band
            // (compute-plane fallback fetches) become visible to the
            // scheduler's partial-holder tracking here.
            for (d, f) in node.state.iter() {
                if let Some(set) = &f.extra {
                    let held: Vec<u32> = set.iter().copied().collect();
                    st.plane.scheduler().report_chunk_set(node.uid, d, &held);
                }
            }
            let (reply, profile) = st
                .plane
                .scheduler()
                .sync_profiled(node.uid, &cache, now, node.role);
            // Charge the sync's wire cost under the SOAP transport model
            // (see the discovery-plane cost model constants above).
            let reply_entries =
                (reply.download.len() + reply.delete.len() + reply.repair.len()) as u64;
            let sync_bytes = SIM_SYNC_BASE_BYTES
                + SIM_SYNC_ID_BYTES * cache.len() as u64
                + SIM_SYNC_REPLY_ENTRY_BYTES * reply_entries;
            let stats = st.stats_mut();
            stats.tcp_syncs += 1;
            stats.tcp_bytes += sync_bytes;
            stats.fallback_syncs += fallback as u64;
            // Charge each shard's queue its share of the work; the sync is
            // served when the slowest shard finishes.
            let mut served_at = sim.now();
            if st.service_cost_base > SimDuration::ZERO
                || st.service_cost_per_item > SimDuration::ZERO
            {
                for (i, &items) in profile.per_shard.iter().enumerate() {
                    let cost = st.service_cost_base
                        + st.service_cost_per_item.saturating_mul(items as u64);
                    let start = st.shard_busy[i].max(sim.now());
                    let done = start.saturating_add(cost);
                    st.shard_busy[i] = done;
                    served_at = served_at.max(done);
                }
            }
            let host = &mut st.host_mut(idx).state;
            let reply = host.triage(reply);
            for &d in &reply.delete {
                host.forget(d);
            }
            for (d, _) in &reply.download {
                host.update(d.id, |f| f.in_flight = Some(InFlight::Download(())));
            }
            for (d, _) in &reply.repair {
                host.update(d.id, |f| f.in_flight = Some(InFlight::Repair(())));
            }
            if cfg!(debug_assertions) {
                host.check();
            }
            // Only the transfer orders travel with the reply.
            let orders = (reply.download, reply.repair);
            (orders, served_at, sync_bytes, st.control_contention)
        };
        if contended {
            // The reply is a real flow on the service host's links: its
            // duration reflects whatever else is crowding them, and a node
            // that dies mid-sync loses its transfer orders the way any
            // failed flow loses its bytes.
            let driver = self.clone();
            let start_reply = move |sim: &mut Sim| {
                let done = driver.clone();
                let host = driver.state.borrow().host(idx).host;
                driver.net.start_flow(
                    sim,
                    driver.service_host,
                    host,
                    sync_bytes as f64,
                    SimDuration::ZERO,
                    Box::new(move |sim, out| {
                        if matches!(out, FlowOutcome::Completed { .. }) {
                            done.deliver_sync_reply(sim, idx, orders);
                        }
                    }),
                );
            };
            if served_at <= sim.now() {
                start_reply(sim);
            } else {
                sim.schedule_at(served_at, start_reply);
            }
        } else if served_at <= sim.now() {
            self.deliver_sync_reply(sim, idx, orders);
        } else {
            // The reply (and its transfer orders) arrives when the busiest
            // shard has drained this request from its queue.
            let driver = self.clone();
            sim.schedule_at(served_at, move |sim| {
                driver.deliver_sync_reply(sim, idx, orders);
            });
        }
        true
    }

    /// Account a served synchronization and start its transfer orders
    /// (dropped when the node died while the reply was in flight).
    fn deliver_sync_reply(&self, sim: &mut Sim, idx: HostIdx, orders: Orders) {
        let (alive, host) = {
            let mut st = self.state.borrow_mut();
            st.syncs_served += 1;
            let node = st.host(idx);
            (node.alive, node.host)
        };
        if alive {
            self.start_assigned_flows(sim, idx, host, orders.0);
            self.start_repairs(sim, idx, host, orders.1);
        }
    }

    /// Start the flows for a served synchronization's transfer orders:
    /// per-chunk multi-source flows for manifest-backed data, one
    /// whole-blob flow from the service host otherwise.
    fn start_assigned_flows(
        &self,
        sim: &mut Sim,
        idx: HostIdx,
        host: HostId,
        downloads: Vec<(Data, DataAttributes)>,
    ) {
        for (data, _attrs) in downloads {
            let name = data.name.clone();
            self.trace.push(
                sim.now(),
                TraceEvent::DataScheduled {
                    host,
                    data: name.clone(),
                },
            );
            self.trace.push(
                sim.now(),
                TraceEvent::TransferStarted {
                    from: self.service_host,
                    to: host,
                    data: name.clone(),
                    bytes: data.size as f64,
                },
            );
            let head = self.state.borrow().head(data.id);
            match head.filter(|h| h.chunk_count() > 0) {
                Some(h) => self.start_chunked_fetch(sim, idx, host, data, &h, None),
                None => {
                    let driver = self.clone();
                    self.net.start_flow(
                        sim,
                        self.service_host,
                        host,
                        data.size as f64,
                        self.setup_latency,
                        Box::new(move |sim, outcome| match outcome {
                            FlowOutcome::Completed { avg_rate, .. } => {
                                driver.finish_download(sim, idx, host, &data, false, avg_rate)
                            }
                            FlowOutcome::Failed { .. } => {
                                driver.fail_download(sim, idx, host, &data, false)
                            }
                        }),
                    );
                }
            }
        }
    }

    /// Start chunk-level repairs: only the missing chunks move, stolen
    /// across the live sources like any chunked fetch.
    fn start_repairs(
        &self,
        sim: &mut Sim,
        idx: HostIdx,
        host: HostId,
        repairs: Vec<(Data, DataAttributes)>,
    ) {
        for (data, _attrs) in repairs {
            let (head, held) = {
                let st = self.state.borrow();
                let facts = st.host(idx).state.get(data.id);
                let held = facts.and_then(|f| f.extra.as_ref()).map_or(0, |s| s.len());
                (st.head(data.id), held as u32)
            };
            let Some(m) = head else {
                let mut st = self.state.borrow_mut();
                st.host_mut(idx)
                    .state
                    .update(data.id, |f| f.in_flight = None);
                continue;
            };
            let missing = m.chunk_count().saturating_sub(held);
            self.trace.push(
                sim.now(),
                TraceEvent::TransferStarted {
                    from: self.service_host,
                    to: host,
                    data: format!("{}#repair", data.name),
                    bytes: missing as f64 * m.chunk_size as f64,
                },
            );
            self.start_chunked_fetch(sim, idx, host, data, &m, Some(missing));
        }
    }

    /// The per-chunk multi-source engine: a queue of chunk indices is
    /// work-stolen by every source (the service host plus each live replica
    /// owner), each source keeping a small window of chunk flows in flight.
    /// A source that dies fails its flows; their chunks are re-queued onto
    /// the survivors. `only` limits the fetch to that many chunks (repair).
    fn start_chunked_fetch(
        &self,
        sim: &mut Sim,
        idx: HostIdx,
        dest: HostId,
        data: Data,
        head: &ResolvedVersion,
        only: Option<u32>,
    ) {
        let take = only.unwrap_or(head.chunk_count()).min(head.chunk_count());
        let repair = only.is_some();
        let sources = {
            let mut st = self.state.borrow_mut();
            let sources = st.chunk_sources(self.service_host, dest, data.id);
            // With the announce plane up, peer discovery is one scrape
            // exchange instead of a catalog locator query.
            let n_sources = sources.len() as u64;
            if let Some(a) = st.announce.as_mut() {
                if a.up {
                    a.stats.scrapes += 1;
                    a.stats.scrape_bytes += SIM_SCRAPE_WIRE
                        + SIM_UDP_OVERHEAD
                        + SIM_SCRAPE_REPLY_WIRE
                        + SIM_UDP_OVERHEAD
                        + SIM_SCRAPE_HOST_WIRE * n_sources;
                }
            }
            sources
        };
        let lens: Vec<f64> = head
            .chunks
            .iter()
            .take(take as usize)
            .map(|(c, _)| c.len as f64)
            .collect();
        if lens.is_empty() {
            self.finish_download(sim, idx, dest, &data, repair, 0.0);
            return;
        }
        let fetch = Rc::new(RefCell::new(SimChunkFetch {
            data: data.clone(),
            idx,
            dest,
            repair,
            queue: (0..lens.len()).collect(),
            lens,
            remaining: take as usize,
            dead: HashSet::new(),
            sources: sources.clone(),
            failed: false,
            rr: 0,
            started: sim.now(),
            moved: 0.0,
        }));
        // Initial windows: each source pulls up to the pipeline depth of
        // chunks; refills (in the flow callbacks) are work-stealing.
        for src in sources {
            for _ in 0..crate::chunks::PIPELINE_DEPTH {
                let next = fetch.borrow_mut().queue.pop_front();
                match next {
                    Some(idx) => self.start_chunk_flow(sim, &fetch, src, idx, self.setup_latency),
                    None => break,
                }
            }
        }
    }

    /// One chunk flow; its callback refills the source's window from the
    /// shared queue, or re-queues on failure.
    fn start_chunk_flow(
        &self,
        sim: &mut Sim,
        fetch: &Rc<RefCell<SimChunkFetch>>,
        src: HostId,
        idx: usize,
        latency: SimDuration,
    ) {
        let (bytes, dest) = {
            let f = fetch.borrow();
            (f.lens[idx], f.dest)
        };
        if src != self.service_host {
            self.state.borrow_mut().peer_chunk_flows += 1;
        }
        let driver = self.clone();
        let fetch_rc = Rc::clone(fetch);
        self.net.start_flow(
            sim,
            src,
            dest,
            bytes,
            latency,
            Box::new(move |sim, outcome| {
                driver.on_chunk_flow_done(sim, &fetch_rc, src, idx, outcome);
            }),
        );
    }

    fn on_chunk_flow_done(
        &self,
        sim: &mut Sim,
        fetch: &Rc<RefCell<SimChunkFetch>>,
        src: HostId,
        idx: usize,
        outcome: FlowOutcome,
    ) {
        // Decide the next action with the borrow held, act after releasing
        // it (starting a flow can fail immediately and re-enter).
        enum Next {
            Flow(HostId, usize),
            Done(HostIdx, HostId, Data, bool, f64),
            Fail(HostIdx, HostId, Data, bool),
            Nothing,
        }
        let next = {
            let mut f = fetch.borrow_mut();
            if f.failed {
                Next::Nothing
            } else {
                match outcome {
                    FlowOutcome::Completed { .. } => {
                        f.moved += f.lens[idx];
                        f.remaining -= 1;
                        if f.remaining == 0 {
                            let elapsed = sim.now().since(f.started).as_secs_f64();
                            let rate = if elapsed > 0.0 {
                                f.moved / elapsed
                            } else {
                                0.0
                            };
                            Next::Done(f.idx, f.dest, f.data.clone(), f.repair, rate)
                        } else {
                            match f.queue.pop_front() {
                                Some(next_idx) => Next::Flow(src, next_idx),
                                None => Next::Nothing,
                            }
                        }
                    }
                    FlowOutcome::Failed { reason, .. } => {
                        if reason == bitdew_sim::FlowFailure::DestinationDown {
                            f.failed = true;
                            Next::Fail(f.idx, f.dest, f.data.clone(), f.repair)
                        } else {
                            // Source died: its chunk goes back on the queue
                            // and a survivor picks it up right away.
                            f.dead.insert(src);
                            match f.next_alive() {
                                Some(alt) => Next::Flow(alt, idx),
                                None => {
                                    f.failed = true;
                                    Next::Fail(f.idx, f.dest, f.data.clone(), f.repair)
                                }
                            }
                        }
                    }
                }
            }
        };
        match next {
            Next::Flow(source, chunk) => {
                self.start_chunk_flow(sim, fetch, source, chunk, SimDuration::ZERO)
            }
            Next::Done(idx, dest, data, repair, rate) => {
                self.finish_download(sim, idx, dest, &data, repair, rate)
            }
            Next::Fail(idx, dest, data, repair) => {
                self.fail_download(sim, idx, dest, &data, repair)
            }
            Next::Nothing => {}
        }
    }

    /// A download (or a chunk repair, which leaves the cache as it was)
    /// delivered every byte to host `idx`.
    fn finish_download(
        &self,
        sim: &mut Sim,
        idx: HostIdx,
        host: HostId,
        data: &Data,
        repair: bool,
        avg_rate: f64,
    ) {
        let (uid, hook) = {
            let mut st = self.state.borrow_mut();
            let uid = st.host(idx).uid;
            st.host_mut(idx).state.update(data.id, |f| {
                f.in_flight = None;
                f.cached = Some(());
                if repair {
                    f.extra = None;
                }
            });
            st.note_held_version(idx, data.id);
            if repair {
                let total = st.head(data.id).map_or(0, |h| h.chunk_count());
                st.plane.scheduler().report_chunks(uid, data.id, total);
            }
            self.trace.push(
                sim.now(),
                TraceEvent::TransferCompleted {
                    to: host,
                    data: data.name.clone(),
                    avg_rate,
                },
            );
            (uid, if repair { None } else { st.copy_hook.take() })
        };
        if let Some(mut h) = hook {
            h(sim, uid, data);
            let mut st = self.state.borrow_mut();
            if st.copy_hook.is_none() {
                st.copy_hook = Some(h);
            }
        }
    }

    /// A download (or chunk repair) of `data` towards host `idx` failed:
    /// the next sync re-assigns it if it is still wanted. A failed repair
    /// drops the datum from the cache, and with it the claim's clock.
    fn fail_download(&self, sim: &mut Sim, idx: HostIdx, host: HostId, data: &Data, repair: bool) {
        let mut st = self.state.borrow_mut();
        st.host_mut(idx).state.update(data.id, |f| {
            f.in_flight = None;
            if repair {
                f.cached = None;
                f.announced_at = None;
            }
        });
        drop(st);
        self.trace.push(
            sim.now(),
            TraceEvent::TransferFailed {
                to: host,
                data: data.name.clone(),
            },
        );
    }
}

/// One simulated host behind the three API traits.
///
/// Holds the simulation clock (`Rc<RefCell<Sim>>`) so blocking operations —
/// `wait_for`, `wait_all`, `barrier` — advance *virtual* time, and `pump`
/// runs one heartbeat of it. Everything else keeps the threaded
/// [`BitdewNode`](crate::BitdewNode)'s contract over the simulated data
/// space, so a scenario written as `fn scenario<N: BitDewApi + ActiveData +
/// TransferManager>(...)` runs unchanged on either.
///
/// `SimNode` is cheaply cloneable (clones share the node's state and event
/// bus), so sessions, handles and subscriptions hold owned copies exactly
/// as they hold `Arc<BitdewNode>` on the threaded deployment.
#[derive(Clone)]
pub struct SimNode {
    sim: Rc<RefCell<Sim>>,
    driver: SimBitdew,
    uid: HostUid,
    idx: HostIdx,
    host: HostId,
    shared: Rc<SimNodeShared>,
}

/// Per-node state shared by every clone of a [`SimNode`].
struct SimNodeShared {
    /// Data seen in this node's cache at the last refresh, with the
    /// attributes they were scheduled under (for Delete events).
    seen: RefCell<HashMap<DataId, (Data, DataAttributes)>>,
    /// The subscription event bus; [`SimNode::refresh`] publishes into it
    /// as virtual time advances (virtual-time delivery).
    bus: EventBus,
    /// Direct (`get`) transfers: outcome slot plus the datum they carry.
    transfers: RefCell<HashMap<TransferId, (DataId, TransferSlot)>>,
    /// Data whose direct transfer completed (O(1) `read_local` checks).
    arrived: RefCell<HashSet<DataId>>,
    /// Direct transfers not yet terminal (O(1) `barrier` checks).
    unresolved: std::cell::Cell<usize>,
}

/// Shared cell a flow-completion callback resolves a transfer state into.
type TransferSlot = Rc<RefCell<Option<TransferState>>>;

impl SimNode {
    /// Attach a node on simulator `host`, heartbeating from `start_at`.
    pub fn attach(
        sim: &Rc<RefCell<Sim>>,
        driver: &SimBitdew,
        host: HostId,
        start_at: SimTime,
    ) -> SimNode {
        Self::attach_with_role(sim, driver, host, start_at, SyncRole::Reservoir)
    }

    /// Attach a *client* node: pins and receives affinity-routed data but is
    /// skipped by replica placement (a §5 master).
    pub fn attach_client(
        sim: &Rc<RefCell<Sim>>,
        driver: &SimBitdew,
        host: HostId,
        start_at: SimTime,
    ) -> SimNode {
        Self::attach_with_role(sim, driver, host, start_at, SyncRole::Client)
    }

    /// Attach a node with an explicit scheduler role.
    pub fn attach_with_role(
        sim: &Rc<RefCell<Sim>>,
        driver: &SimBitdew,
        host: HostId,
        start_at: SimTime,
        role: SyncRole,
    ) -> SimNode {
        let (uid, idx) = driver.attach_host(&mut sim.borrow_mut(), host, start_at, role);
        SimNode {
            sim: Rc::clone(sim),
            driver: driver.clone(),
            uid,
            idx,
            host,
            shared: Rc::new(SimNodeShared {
                seen: RefCell::new(HashMap::new()),
                bus: EventBus::new(),
                transfers: RefCell::new(HashMap::new()),
                arrived: RefCell::new(HashSet::new()),
                unresolved: std::cell::Cell::new(0),
            }),
        }
    }

    /// The underlying scenario driver.
    pub fn driver(&self) -> &SimBitdew {
        &self.driver
    }

    /// The simulator host this node lives on.
    pub fn host(&self) -> HostId {
        self.host
    }

    /// Advance virtual time by one heartbeat period.
    fn advance_one(&self) {
        let mut sim = self.sim.borrow_mut();
        let deadline = sim.now().saturating_add(self.driver.heartbeat);
        sim.run_until(deadline);
        drop(sim);
        self.refresh();
    }

    /// Diff the scheduler-driven cache against the last refresh, publishing
    /// Copy/Delete life-cycle events on the node's bus (virtual-time
    /// delivery: subscriptions fill as pumps and waits advance the clock).
    fn refresh(&self) {
        let current: HashSet<DataId> = self.driver.cached_at(self.idx).into_iter().collect();
        let mut fired: Vec<DataEvent> = Vec::new();
        {
            let mut seen = self.shared.seen.borrow_mut();
            let mut arrivals: Vec<DataId> = current
                .iter()
                .copied()
                .filter(|id| !seen.contains_key(id))
                .collect();
            arrivals.sort();
            for id in arrivals {
                if let Some((data, attrs)) = self.driver.lookup(id) {
                    fired.push(DataEvent {
                        kind: DataEventKind::Copy,
                        data: data.clone(),
                        attrs: attrs.clone(),
                        host: self.uid,
                    });
                    seen.insert(id, (data, attrs));
                }
            }
            let gone: Vec<DataId> = seen
                .keys()
                .copied()
                .filter(|id| !current.contains(id))
                .collect();
            for id in gone {
                // seen only holds keys we inserted; `gone` came from it.
                let Some((data, attrs)) = seen.remove(&id) else {
                    continue;
                };
                fired.push(DataEvent {
                    kind: DataEventKind::Delete,
                    data,
                    attrs,
                    host: self.uid,
                });
            }
        }
        // Publish with the `seen` borrow released: a handler may call back
        // into this node (pin, schedule), which re-borrows.
        for ev in &fired {
            self.shared.bus.publish(ev);
        }
    }

    /// A fresh datum id drawn from the simulation's seeded RNG.
    fn mint_id(&self) -> DataId {
        let mut sim = self.sim.borrow_mut();
        let entropy = sim.now().as_nanos().max(1);
        Auid::generate(entropy, &mut sim.rng)
    }

    fn virtual_deadline(&self, timeout: Duration) -> SimTime {
        self.sim
            .borrow()
            .now()
            .saturating_add(SimDuration::from_secs_f64(timeout.as_secs_f64()))
    }

    /// The driver's service plane.
    fn plane(&self) -> Ref<'_, ShardedPlane> {
        Ref::map(self.driver.state.borrow(), |st| &st.plane)
    }

    /// Run `op` on the version plane over the driver's plane and store.
    fn with_versions<R>(&self, op: impl FnOnce(VersionPlane<'_>) -> R) -> R {
        let st = self.driver.state.borrow();
        op(VersionPlane {
            plane: &st.plane,
            store: &st.store,
        })
    }

    /// The datum as the catalog registered it.
    fn registered(&self, id: DataId) -> Result<Data> {
        self.plane()
            .get(id)?
            .ok_or_else(|| BitdewError::CatalogMiss {
                what: format!("data {id}"),
            })
    }
}

impl BitDewApi for SimNode {
    fn create_data(&self, name: &str, content: &[u8]) -> Result<Data> {
        let data = Data::from_bytes(self.mint_id(), name, content);
        self.driver.register_data(&data);
        Ok(data)
    }

    fn create_slot(&self, name: &str, size: u64) -> Result<Data> {
        let data = Data::slot(self.mint_id(), name, size);
        self.driver.register_data(&data);
        Ok(data)
    }

    fn create_many(&self, items: &[(&str, &[u8])]) -> Result<Vec<Data>> {
        // The simulated data space has no per-registration round-trip to
        // amortize; batching is a loop for surface parity.
        items
            .iter()
            .map(|(name, content)| self.create_data(name, content))
            .collect()
    }

    fn put(&self, data: &Data, content: &[u8]) -> Result<()> {
        if data.has_checksum() && bitdew_util::md5::md5(content) != data.checksum {
            return Err(bitdew_transport::TransportError::ChecksumMismatch.into());
        }
        self.registered(data.id)?;
        let st = self.driver.state.borrow();
        st.store.put(&data.object_name(), content);
        Ok(())
    }

    fn put_many(&self, items: &[(Data, &[u8])]) -> Result<()> {
        for (data, content) in items {
            self.put(data, content)?;
        }
        Ok(())
    }

    fn get(&self, data: &Data) -> Result<TransferId> {
        // Parity with the threaded runtime: a datum that was registered but
        // never `put` has no locator, so fetching it is a catalog miss.
        // (Metadata-only modeling still works: `put` an empty payload — a
        // slot has no checksum to violate — and the flow moves `data.size`
        // modeled bytes regardless.)
        if !self.driver.state.borrow().store.exists(&data.object_name()) {
            return Err(BitdewError::CatalogMiss {
                what: format!("locator for `{}`", data.name),
            });
        }
        let tid = {
            let mut st = self.driver.state.borrow_mut();
            st.next_transfer += 1;
            TransferId(st.next_transfer - 1)
        };
        let slot: TransferSlot = Rc::new(RefCell::new(None));
        let slot2 = Rc::clone(&slot);
        let shared = Rc::clone(&self.shared);
        let data_id = data.id;
        self.shared.unresolved.set(self.shared.unresolved.get() + 1);
        let mut sim = self.sim.borrow_mut();
        self.driver.net.start_flow(
            &mut sim,
            self.driver.service_host,
            self.host,
            data.size as f64,
            self.driver.setup_latency,
            Box::new(move |_sim, outcome| {
                let state = match outcome {
                    FlowOutcome::Completed { .. } => TransferState::Complete,
                    FlowOutcome::Failed { .. } => TransferState::Failed,
                };
                if state == TransferState::Complete {
                    shared.arrived.borrow_mut().insert(data_id);
                }
                shared
                    .unresolved
                    .set(shared.unresolved.get().saturating_sub(1));
                *slot2.borrow_mut() = Some(state);
            }),
        );
        drop(sim);
        self.shared
            .transfers
            .borrow_mut()
            .insert(tid, (data.id, slot));
        Ok(tid)
    }

    fn search(&self, name: &str) -> Result<Vec<Data>> {
        self.plane().search(name)
    }

    fn delete(&self, data: &Data) -> Result<()> {
        self.with_versions(|v| v.delete(data))?;
        let mut st = self.driver.state.borrow_mut();
        st.store.remove(&data.object_name())?;
        st.host_mut(self.idx).state.update(data.id, |f| {
            f.extra = None;
            f.held_version = None;
        });
        st.plane.scheduler().delete_data(data.id);
        Ok(())
    }

    fn create_attribute(&self, src: &str) -> Result<DataAttributes> {
        attrparse::parse_single_resolving(src, self.sim.borrow().now().as_nanos(), &|name| {
            let hits = self.plane().search(name).ok()?;
            hits.first().map(|d| d.id)
        })
    }

    fn read_local(&self, data: &Data) -> Result<Vec<u8>> {
        let arrived = self.has_cached(data.id) || self.shared.arrived.borrow().contains(&data.id);
        if !arrived {
            return Err(BitdewError::CatalogMiss {
                what: format!("local copy of `{}`", data.name),
            });
        }
        self.driver.read_content(data, data.size, 0, usize::MAX)
    }

    fn put_range(&self, data: &Data, offset: u64, content: &[u8]) -> Result<()> {
        // Chunked data mutates through the version plane: each in-place
        // write becomes a copy-on-write child of the current head. Only
        // un-chunked (legacy) data is patched directly.
        let head = self.plane().version_head(data.id)?;
        if head > 0 {
            return self
                .commit_update(data, head, &[(offset, content.to_vec())])
                .map(|_| ());
        }
        let size = self.registered(data.id)?.size;
        offset
            .checked_add(content.len() as u64)
            .ok_or(StoreError::OutOfRange)?;
        // A metadata-only datum models as `size` zero bytes (read_local /
        // get_range agree); materialize that before patching, or the write
        // would silently truncate everything past it.
        self.driver.materialize(data, size)?;
        let st = self.driver.state.borrow();
        Ok(st.store.write_at(&data.object_name(), offset, content)?)
    }

    fn get_range(&self, data: &Data, offset: u64, len: usize) -> Result<Vec<u8>> {
        let size = self.registered(data.id)?.size;
        self.driver.read_content(data, size, offset, len)
    }

    fn put_chunked(&self, data: &Data, content: &[u8], chunk_size: u64) -> Result<ChunkManifest> {
        let manifest = ChunkManifest::describe(data.id, chunk_size, content);
        check_republish(&manifest, self.plane().head(data.id)?.as_deref())?;
        self.put(data, content)?;
        self.plane().put_manifest(&manifest)?;
        let mut st = self.driver.state.borrow_mut();
        st.note_held_version(self.idx, data.id);
        Ok(manifest)
    }

    fn chunk_manifest(&self, id: DataId) -> Result<Option<ChunkManifest>> {
        // The head's digests, as on the threaded node.
        self.plane().materialized_manifest(id)
    }

    fn held_chunks(&self, data: &Data) -> Result<Vec<u32>> {
        Ok(self.driver.state.borrow().held_chunks(self.idx, data.id))
    }

    fn fetch_chunks(&self, data: &Data, chunks: &[u32]) -> Result<u64> {
        let manifest = self
            .chunk_manifest(data.id)?
            .ok_or_else(|| no_manifest(data))?;
        let held: BTreeSet<u32> = self.held_chunks(data)?.into_iter().collect();
        let missing: Vec<u32> = chunks
            .iter()
            .copied()
            .filter(|&i| i < manifest.chunk_count() && !held.contains(&i))
            .collect::<BTreeSet<u32>>()
            .into_iter()
            .collect();
        if missing.is_empty() {
            return Ok(0);
        }
        let moved = manifest.bytes_of(missing.iter().copied());
        // Each missing chunk is one flow served by a peer replica — the
        // same counter the flow-level chunked-fetch engine charges.
        self.driver.state.borrow_mut().peer_chunk_flows += missing.len() as u64;
        self.driver.absorb_chunks(self.idx, data.id, &missing);
        // The threaded fallback blocks on one multi-source fetch; model it
        // as the setup latency plus the bytes at the nominal NIC rate.
        {
            let mut sim = self.sim.borrow_mut();
            let deadline = sim
                .now()
                .saturating_add(self.driver.setup_latency)
                .saturating_add(SimDuration::from_secs_f64(moved as f64 / SIM_FETCH_RATE));
            sim.run_until(deadline);
        }
        self.refresh();
        Ok(moved)
    }

    fn chunk_holdings(&self, id: DataId) -> Result<ChunkHoldings> {
        Ok(self.plane().scheduler().chunk_holdings(id))
    }

    fn get_range_local(&self, data: &Data, offset: u64, len: usize) -> Result<Vec<u8>> {
        // "Local" means the covering chunks are verifiably held here (the
        // threaded node reads its chunk store); a miss is an error, not a
        // silent network read.
        if let Some(m) = self.chunk_manifest(data.id)? {
            if len > 0 && m.chunk_size > 0 && m.chunk_count() > 0 {
                let held: BTreeSet<u32> = self.held_chunks(data)?.into_iter().collect();
                let first = offset / m.chunk_size;
                let last = offset.saturating_add(len as u64 - 1) / m.chunk_size;
                for i in first as u32..=last.min(m.chunk_count() as u64 - 1) as u32 {
                    if !held.contains(&i) {
                        return Err(BitdewError::CatalogMiss {
                            what: format!("local chunk {i} of `{}`", data.name),
                        });
                    }
                }
            }
        } else {
            let arrived =
                self.has_cached(data.id) || self.shared.arrived.borrow().contains(&data.id);
            if !arrived {
                return Err(BitdewError::CatalogMiss {
                    what: format!("local copy of `{}`", data.name),
                });
            }
        }
        self.get_range(data, offset, len)
    }

    fn version_head(&self, id: DataId) -> Result<u64> {
        self.plane().version_head(id)
    }

    fn version_manifest(&self, id: DataId, version: u64) -> Result<Option<VersionedManifest>> {
        self.plane().version_manifest(id, version)
    }

    fn commit_update(&self, data: &Data, base: u64, writes: &[(u64, Vec<u8>)]) -> Result<u64> {
        if let Some(head) = self.plane().head(data.id)? {
            self.driver.materialize(data, head.total)?;
        }
        let row = self.with_versions(|v| v.commit(data, base, writes))?;
        // Version publication is a small metadata flow: the encoded delta
        // row inside one SOAP envelope pair.
        let wire = SIM_SYNC_BASE_BYTES + row.to_bytes().len() as u64;
        let contended = {
            let mut st = self.driver.state.borrow_mut();
            let stats = st.stats_mut();
            stats.version_publishes += 1;
            stats.version_bytes += wire;
            st.host_mut(self.idx)
                .state
                .note_held_version(data.id, row.version);
            st.control_contention
        };
        if contended {
            // Under contended control the publication's bytes travel the
            // writer's uplink and the service downlink for real —
            // fire-and-forget, but occupying link shares while in flight.
            let mut sim = self.sim.borrow_mut();
            self.driver.net.start_flow(
                &mut sim,
                self.host,
                self.driver.service_host,
                wire as f64,
                SimDuration::ZERO,
                Box::new(|_, _| {}),
            );
        }
        Ok(row.version)
    }

    fn open_snapshot(&self, data: &Data) -> Result<Snapshot> {
        self.with_versions(|v| v.open_snapshot(data))
    }

    fn get_range_at(
        &self,
        data: &Data,
        snap: &Snapshot,
        offset: u64,
        len: usize,
    ) -> Result<Vec<u8>> {
        if self.driver.state.borrow().store.exists(&data.object_name()) {
            return self.with_versions(|v| v.get_range_at(data, snap, offset, len));
        }
        // A manifest-only datum reads as zeros at every version.
        self.driver
            .read_content(data, snap.resolved().total, offset, len)
    }

    fn gc_versions(&self, data: &Data) -> Result<GcReport> {
        self.with_versions(|v| v.gc(data))
    }
}

impl ActiveData for SimNode {
    fn schedule(&self, data: &Data, attrs: DataAttributes) -> Result<()> {
        crate::runtime::validate_attrs(data, &attrs)?;
        self.driver.schedule_data(data.clone(), attrs.clone());
        self.shared.bus.publish(&DataEvent {
            kind: DataEventKind::Create,
            data: data.clone(),
            attrs,
            host: self.uid,
        });
        Ok(())
    }

    fn schedule_many(&self, items: &[(Data, DataAttributes)]) -> Result<()> {
        for (data, attrs) in items {
            self.schedule(data, attrs.clone())?;
        }
        Ok(())
    }

    fn pin(&self, data: &Data, attrs: DataAttributes) -> Result<()> {
        self.driver.pin_at(self.idx, data.id);
        self.shared
            .seen
            .borrow_mut()
            .insert(data.id, (data.clone(), attrs));
        Ok(())
    }

    fn pin_chunks(&self, data: &Data, attrs: DataAttributes, held: &[u32]) -> Result<()> {
        let manifest = self
            .chunk_manifest(data.id)?
            .ok_or_else(|| no_manifest(data))?;
        // Keep unique, in-range indices — mirroring the threaded node,
        // which verifies every claimed index (duplicates or out-of-range
        // claims must not add up to a full pin).
        let held: BTreeSet<u32> = held
            .iter()
            .copied()
            .filter(|&i| i < manifest.chunk_count())
            .collect();
        if held.len() as u32 >= manifest.chunk_count() {
            return self.pin(data, attrs);
        }
        let held: Vec<u32> = held.into_iter().collect();
        self.driver.pin_partial_at(self.idx, data.id, &held);
        self.shared
            .seen
            .borrow_mut()
            .insert(data.id, (data.clone(), attrs));
        Ok(())
    }

    fn subscribe(&self, filter: EventFilter) -> EventSub {
        self.shared.bus.subscribe(filter)
    }

    fn subscribe_with(&self, filter: EventFilter, backpressure: Backpressure) -> EventSub {
        // `Block` cannot apply backpressure on the single-threaded
        // simulator — the publisher and the only possible consumer share
        // the thread, so parking for space would never be released. It
        // degrades to `Lossless`, which preserves the mode's no-loss
        // guarantee (only the pacing is lost, and virtual time has none).
        let backpressure = match backpressure {
            Backpressure::Block(_) => Backpressure::Lossless,
            other => other,
        };
        self.shared.bus.subscribe_with(filter, backpressure)
    }

    fn add_handler(
        &self,
        filter: EventFilter,
        handler: Box<dyn ActiveDataEventHandler>,
    ) -> HandlerId {
        self.shared.bus.attach(filter, handler)
    }

    fn remove_handler(&self, id: HandlerId) {
        self.shared.bus.detach(id);
    }

    fn host_uid(&self) -> HostUid {
        self.uid
    }
}

impl TransferManager for SimNode {
    fn wait_for(&self, id: TransferId) -> Result<TransferState> {
        let started = self.sim.borrow().now();
        loop {
            match self.try_wait(id)? {
                Some(state) => return Ok(state),
                None => {
                    let drained = {
                        let mut sim = self.sim.borrow_mut();
                        let deadline = sim.now().saturating_add(self.driver.heartbeat);
                        sim.run_until(deadline);
                        sim.events_pending() == 0
                    };
                    self.refresh();
                    if drained && self.try_wait(id)?.is_none() {
                        let waited = self.sim.borrow().now().since(started);
                        return Err(BitdewError::Timeout {
                            what: format!("transfer {id:?} (simulation drained)"),
                            waited: Duration::from_nanos(waited.as_nanos()),
                        });
                    }
                }
            }
        }
    }

    fn try_wait(&self, id: TransferId) -> Result<Option<TransferState>> {
        match self.shared.transfers.borrow().get(&id) {
            Some((_, slot)) => Ok(*slot.borrow()),
            None => Err(BitdewError::CatalogMiss {
                what: format!("transfer {id:?}"),
            }),
        }
    }

    fn barrier(&self, timeout: Duration) -> Result<()> {
        let started = self.sim.borrow().now();
        let deadline = self.virtual_deadline(timeout);
        loop {
            self.advance_one();
            if self.driver.in_flight_of(self.idx) == 0 && self.shared.unresolved.get() == 0 {
                return Ok(());
            }
            if self.sim.borrow().now() >= deadline {
                let waited = self.sim.borrow().now().since(started);
                return Err(BitdewError::Timeout {
                    what: format!("{} pending downloads", self.driver.in_flight_of(self.idx)),
                    waited: Duration::from_nanos(waited.as_nanos()),
                });
            }
        }
    }

    fn pump(&self) -> Result<()> {
        self.advance_one();
        Ok(())
    }

    fn cached(&self) -> Vec<DataId> {
        let mut v = self.driver.cached_at(self.idx);
        v.sort();
        v
    }

    fn has_cached(&self, id: DataId) -> bool {
        let st = self.driver.state.borrow();
        st.host(self.idx).state.cached(id).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::DataAttributes;
    use bitdew_sim::topology;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn datum(name: &str, size: u64) -> Data {
        let mut rng = SmallRng::seed_from_u64(name.len() as u64 + size);
        Data::slot(Auid::generate(size.max(1), &mut rng), name, size)
    }

    #[test]
    fn replicated_data_spreads_under_virtual_time() {
        let topo = topology::gdx_cluster(5);
        let mut sim = Sim::new(1);
        let trace = Trace::new();
        let bd = SimBitdew::new(
            topo.net.clone(),
            topo.service,
            SimDuration::from_secs(1),
            trace.clone(),
        );
        let data = datum("shared", 10_000_000); // 10 MB
        bd.schedule_data(data.clone(), DataAttributes::default().with_replica(3));
        for &w in &topo.workers {
            bd.add_node(&mut sim, w, SimTime::ZERO);
        }
        sim.run_until(SimTime::from_secs(30));
        assert_eq!(bd.owners_of(data.id).len(), 3);
        let completions = trace
            .records()
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::TransferCompleted { .. }))
            .count();
        assert_eq!(completions, 3);
    }

    #[test]
    fn chunk_sources_are_the_service_host_then_peers_by_host_id() {
        let topo = topology::gdx_cluster(16);
        let mut sim = Sim::new(7);
        let bd = SimBitdew::new(
            topo.net.clone(),
            topo.service,
            SimDuration::from_secs(1),
            Trace::new(),
        );
        let content = vec![5u8; 4096];
        let data = Data::from_bytes(Auid(77), "blob", &content);
        bd.put_manifest(&ChunkManifest::describe(data.id, 1024, &content));
        let uids: Vec<HostUid> = topo
            .workers
            .iter()
            .map(|&w| bd.add_node(&mut sim, w, SimTime::ZERO))
            .collect();
        // Workers 1.. hold the blob; 2 only partially, and 3 is dead.
        for &uid in &uids[1..] {
            bd.pin(data.id, uid);
        }
        bd.pin_partial(data.id, uids[2], 2);
        bd.kill_host(&mut sim, topo.workers[3]);
        let sources = bd
            .state
            .borrow()
            .chunk_sources(topo.service, topo.workers[4], data.id);
        let mut peers: Vec<HostId> = topo.workers[5..].to_vec();
        peers.push(topo.workers[1]);
        peers.sort_unstable();
        assert_eq!(sources[0], topo.service);
        assert_eq!(sources[1..], peers[..]);
    }

    #[test]
    fn fault_tolerant_replica_is_restored_after_crash() {
        // A miniature Fig. 4: replica=1, ft=true; the owner dies; a second
        // node inherits the datum after the 3-heartbeat detection delay.
        let topo = topology::gdx_cluster(2);
        let mut sim = Sim::new(2);
        let trace = Trace::new();
        let bd = SimBitdew::new(
            topo.net.clone(),
            topo.service,
            SimDuration::from_secs(1),
            trace.clone(),
        );
        let data = datum("precious", 1_000_000);
        bd.schedule_data(
            data.clone(),
            DataAttributes::default()
                .with_replica(1)
                .with_fault_tolerance(true),
        );
        bd.start_failure_detector(&mut sim, SimTime::ZERO);
        let n1 = bd.add_node(&mut sim, topo.workers[0], SimTime::ZERO);
        // Second node arrives later so the first certainly wins the datum.
        let _n2 = bd.add_node(&mut sim, topo.workers[1], SimTime::from_secs(5));
        // Kill node 1 at t=10 s.
        let bd2 = bd.clone();
        let net = topo.net.clone();
        let victim = topo.workers[0];
        sim.schedule_at(SimTime::from_secs(10), move |sim| {
            bd2.kill_host(sim, victim);
            net.set_host_enabled(sim, victim, false);
        });
        sim.run_until(SimTime::from_secs(30));
        let owners = bd.owners_of(data.id);
        assert_eq!(owners.len(), 1);
        assert_ne!(owners[0], n1, "replica moved off the dead node");
        // Detection delay: re-schedule strictly after crash + timeout (3 s).
        let resched = trace
            .records()
            .iter()
            .filter(|r| matches!(&r.event, TraceEvent::DataScheduled { host, .. } if *host == topo.workers[1]))
            .map(|r| r.at.as_secs_f64())
            .next()
            .expect("second node was scheduled the datum");
        assert!(
            resched >= 13.0,
            "waited for the failure detector, got {resched}"
        );
    }

    #[test]
    fn copy_hook_fires_on_completion() {
        let topo = topology::gdx_cluster(1);
        let mut sim = Sim::new(3);
        let bd = SimBitdew::new(
            topo.net.clone(),
            topo.service,
            SimDuration::from_secs(1),
            Trace::new(),
        );
        let copies = Rc::new(RefCell::new(0));
        let c2 = Rc::clone(&copies);
        bd.set_copy_hook(Box::new(move |_sim, _uid, _data| {
            *c2.borrow_mut() += 1;
        }));
        let data = datum("hooked", 1_000);
        bd.schedule_data(data, DataAttributes::default().with_replica(1));
        bd.add_node(&mut sim, topo.workers[0], SimTime::ZERO);
        sim.run_until(SimTime::from_secs(10));
        assert_eq!(*copies.borrow(), 1);
    }

    #[test]
    fn contended_sync_replies_ride_the_real_links() {
        // With contended control the full-sync reply is a flow on the
        // service's (here, deliberately slow) uplink: the transfer orders
        // arrive only after ~1264 wire bytes crawl through 1 kB/s, so the
        // datum lands measurably later than in the counter-only run —
        // while the sync *counters* stay identical.
        let run = |contended: bool| -> (f64, SimSyncStats) {
            let net = FlowNet::new();
            let service = HostId(0);
            let worker = HostId(1);
            net.add_host(service, 1_000.0, 1_000.0);
            net.add_host(worker, 1.0e6, 1.0e6);
            let mut sim = Sim::new(9);
            let trace = Trace::new();
            let bd = SimBitdew::new(net, service, SimDuration::from_secs(10), trace.clone());
            if contended {
                bd.set_contended_control(&mut sim, true);
            }
            bd.schedule_data(
                datum("slow", 2_000),
                DataAttributes::default().with_replica(1),
            );
            bd.add_node(&mut sim, worker, SimTime::ZERO);
            sim.run_until(SimTime::from_secs(9)); // one heartbeat round only
            let done = trace
                .records()
                .iter()
                .filter(|r| matches!(r.event, TraceEvent::TransferCompleted { .. }))
                .map(|r| r.at.as_secs_f64())
                .next_back();
            (done.expect("transfer completed"), bd.sync_stats())
        };
        let (plain_t, plain_stats) = run(false);
        let (cont_t, cont_stats) = run(true);
        assert!(
            cont_t > plain_t + 1.0,
            "contended orders delayed by the reply flow: {cont_t} vs {plain_t}"
        );
        assert_eq!(plain_stats, cont_stats, "counters unaffected by contention");
    }

    #[test]
    fn announce_reservation_tracks_alive_nodes() {
        let topo = topology::gdx_cluster(3);
        let mut sim = Sim::new(10);
        let bd = SimBitdew::new(
            topo.net.clone(),
            topo.service,
            SimDuration::from_secs(1),
            Trace::new(),
        );
        bd.enable_announce(8, 16);
        bd.set_contended_control(&mut sim, true);
        for &w in &topo.workers {
            bd.add_node(&mut sim, w, SimTime::ZERO);
        }
        let (_, down) = topo.net.host_links(topo.service).expect("registered");
        let per = (SIM_ANNOUNCE_WIRE + SIM_UDP_OVERHEAD) as f64;
        assert!((topo.net.link_reserved(down) - 3.0 * per).abs() < 1e-6);
        bd.kill_host(&mut sim, topo.workers[0]);
        assert!((topo.net.link_reserved(down) - 2.0 * per).abs() < 1e-6);
        bd.set_contended_control(&mut sim, false);
        assert_eq!(topo.net.link_reserved(down), 0.0);
    }

    #[test]
    fn contended_version_publish_is_a_real_flow() {
        let topo = topology::gdx_cluster(1);
        let sim = Rc::new(RefCell::new(Sim::new(31)));
        let bd = SimBitdew::new(
            topo.net.clone(),
            topo.service,
            SimDuration::from_secs(1),
            Trace::new(),
        );
        bd.set_contended_control(&mut sim.borrow_mut(), true);
        let node = SimNode::attach(&sim, &bd, topo.workers[0], SimTime::ZERO);
        let content = vec![7u8; 4096];
        let data = node.create_data("vflow", &content).unwrap();
        node.put_chunked(&data, &content, 1024).unwrap();
        assert_eq!(node.version_head(data.id).unwrap(), 1);
        let flows_before = topo.net.active_flows();
        node.commit_update(&data, 1, &[(0, vec![1u8; 64])]).unwrap();
        assert_eq!(
            topo.net.active_flows(),
            flows_before + 1,
            "publication rides the writer's uplink as a real flow"
        );
    }

    #[test]
    fn manifest_only_datum_reads_as_zeros_and_commits_over_them() {
        let topo = topology::gdx_cluster(1);
        let sim = Rc::new(RefCell::new(Sim::new(33)));
        let bd = SimBitdew::new(
            topo.net.clone(),
            topo.service,
            SimDuration::from_secs(1),
            Trace::new(),
        );
        let node = SimNode::attach(&sim, &bd, topo.workers[0], SimTime::ZERO);
        let data = node.create_slot("modeled", 4096).unwrap();
        bd.put_manifest(&ChunkManifest::describe(data.id, 1024, &[0u8; 4096]));
        assert!(node.get(&data).is_err(), "never put: no locator");
        let snap = node.open_snapshot(&data).unwrap();
        assert_eq!(node.get_range(&data, 1000, 100).unwrap(), vec![0; 100]);
        assert_eq!(
            node.get_range_at(&data, &snap, 4000, 500).unwrap(),
            vec![0; 96]
        );
        node.commit_update(&data, 1, &[(1024, vec![9; 8])]).unwrap();
        let patched = [vec![0; 4], vec![9; 8], vec![0; 4]].concat();
        assert_eq!(node.get_range(&data, 1020, 16).unwrap(), patched);
        assert_eq!(
            node.get_range_at(&data, &snap, 1020, 16).unwrap(),
            vec![0; 16],
            "the snapshot still reads the modeled zeros"
        );
    }

    #[test]
    fn dead_node_stops_heartbeating() {
        let topo = topology::gdx_cluster(1);
        let mut sim = Sim::new(4);
        let bd = SimBitdew::new(
            topo.net.clone(),
            topo.service,
            SimDuration::from_secs(1),
            Trace::new(),
        );
        bd.add_node(&mut sim, topo.workers[0], SimTime::ZERO);
        let bd2 = bd.clone();
        let victim = topo.workers[0];
        sim.schedule_at(SimTime::from_secs(5), move |sim| {
            bd2.kill_host(sim, victim);
        });
        sim.run();
        // The recurring heartbeat returned false; the queue drained, so the
        // sim terminated (rather than ticking forever).
        assert!(sim.now() < SimTime::from_secs(60));
    }

    fn harness(workers: usize, seed: u64) -> (Rc<RefCell<Sim>>, SimBitdew, Vec<SimNode>) {
        let topo = topology::gdx_cluster(workers);
        let sim = Rc::new(RefCell::new(Sim::new(seed)));
        let bd = SimBitdew::new(
            topo.net.clone(),
            topo.service,
            SimDuration::from_secs(1),
            Trace::new(),
        );
        let nodes = topo
            .workers
            .iter()
            .map(|&w| SimNode::attach(&sim, &bd, w, SimTime::ZERO))
            .collect();
        (sim, bd, nodes)
    }

    #[test]
    fn sim_node_schedule_barrier_and_events() {
        let (_sim, _bd, nodes) = harness(2, 21);
        let client = &nodes[0];
        let client_events = client.subscribe(EventFilter::any());
        let worker_events = nodes[1].subscribe(EventFilter::any());
        let content = vec![5u8; 1_000_000];
        let data = client.create_data("spread", &content).unwrap();
        client.put(&data, &content).unwrap();
        client
            .schedule(&data, DataAttributes::default().with_replica(2))
            .unwrap();
        // The scheduling node sees a Create event immediately.
        let kinds: Vec<DataEventKind> = client_events.drain().iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec![DataEventKind::Create]);

        // Barrier advances virtual time until both replicas landed.
        nodes[0].barrier(Duration::from_secs(60)).unwrap();
        nodes[1].barrier(Duration::from_secs(60)).unwrap();
        assert!(nodes.iter().all(|n| n.has_cached(data.id)));
        // Arrival surfaced as a Copy event with the real content readable.
        let evs = worker_events.drain();
        assert!(evs
            .iter()
            .any(|e| e.kind == DataEventKind::Copy && e.data.id == data.id));
        assert_eq!(nodes[1].read_local(&data).unwrap(), content);

        // Deletion propagates and surfaces as a Delete event.
        client.delete(&data).unwrap();
        for _ in 0..5 {
            nodes[1].pump().unwrap();
        }
        assert!(!nodes[1].has_cached(data.id));
        assert!(worker_events
            .drain()
            .iter()
            .any(|e| e.kind == DataEventKind::Delete && e.data.id == data.id));
    }

    #[test]
    fn sim_node_direct_get_and_wait_all() {
        let (_sim, _bd, nodes) = harness(1, 22);
        let node = &nodes[0];
        let mut ids = Vec::new();
        for i in 0..3 {
            let content = vec![i as u8; 2_000_000];
            let d = node.create_data(&format!("blob-{i}"), &content).unwrap();
            node.put(&d, &content).unwrap();
            ids.push(node.get(&d).unwrap());
        }
        let states = node.wait_all(&ids).unwrap();
        assert!(states.iter().all(|s| *s == TransferState::Complete));
    }

    #[test]
    fn sim_node_attribute_language_resolves_space_names() {
        let (_sim, _bd, nodes) = harness(1, 23);
        let node = &nodes[0];
        let anchor = node.create_data("Anchor", b"a").unwrap();
        let attrs = node
            .create_attribute("attr x = { replica = 2, affinity = Anchor, oob = http }")
            .unwrap();
        assert_eq!(attrs.replica, 2);
        assert_eq!(attrs.affinity, Some(anchor.id));
        assert_eq!(node.search("Anchor").unwrap(), vec![anchor]);
    }

    #[test]
    fn sim_wire_constants_match_real_codec() {
        // The discovery-plane byte model is only honest if its constants
        // equal the real codec's wire sizes. Pin them here: a codec layout
        // change must update the SIM_* constants in the same commit.
        use crate::announce::AnnounceMsg;
        use bitdew_storage::codec::Encode;
        let announce = AnnounceMsg::Announce {
            conn_id: 1,
            host: Auid(7),
            data: Auid(8),
            version: 1,
            ttl_nanos: 1_000_000_000,
            flags: FLAG_SERVING,
            bitmap: Vec::new(),
        };
        assert_eq!(announce.to_bytes().len() as u64, SIM_ANNOUNCE_WIRE);
        let scrape = AnnounceMsg::Scrape {
            conn_id: 1,
            txid: 2,
            data: Auid(8),
        };
        assert_eq!(scrape.to_bytes().len() as u64, SIM_SCRAPE_WIRE);
        let empty_reply = AnnounceMsg::ScrapeReply {
            txid: 2,
            data: Auid(8),
            hosts: Vec::new(),
        };
        assert_eq!(empty_reply.to_bytes().len() as u64, SIM_SCRAPE_REPLY_WIRE);
        let full_reply = AnnounceMsg::ScrapeReply {
            txid: 2,
            data: Auid(8),
            hosts: vec![(Auid(1), 0), (Auid(2), FLAG_SERVING), (Auid(3), 3)],
        };
        assert_eq!(
            full_reply.to_bytes().len() as u64,
            SIM_SCRAPE_REPLY_WIRE + 3 * SIM_SCRAPE_HOST_WIRE
        );
    }

    fn sync_plane_run(announce: bool, seconds: u64) -> (SimSyncStats, Vec<usize>) {
        let topo = topology::gdx_cluster(8);
        let mut sim = Sim::new(31);
        let bd = SimBitdew::new(
            topo.net.clone(),
            topo.service,
            SimDuration::from_secs(1),
            Trace::new(),
        );
        if announce {
            bd.enable_announce(16, 8);
        }
        let data: Vec<Data> = (0..2)
            .map(|i| datum(&format!("spread-{i}"), 500_000))
            .collect();
        for d in &data {
            bd.schedule_data(
                d.clone(),
                DataAttributes::default()
                    .with_replica(4)
                    .with_fault_tolerance(true),
            );
        }
        for &w in &topo.workers {
            bd.add_node(&mut sim, w, SimTime::ZERO);
        }
        sim.run_until(SimTime::from_secs(seconds));
        let owners = data.iter().map(|d| bd.owners_of(d.id).len()).collect();
        (bd.sync_stats(), owners)
    }

    #[test]
    fn announce_mode_cuts_sync_bytes_and_keeps_placement() {
        // Identical 8-host / 2-datum scenario, TCP-only vs discovery plane
        // on: announce datagrams replace 7 of every 8 catalog syncs and
        // the placements converge identically.
        let (tcp, tcp_owners) = sync_plane_run(false, 120);
        let (udp, udp_owners) = sync_plane_run(true, 120);
        assert_eq!(tcp_owners, vec![4, 4]);
        assert_eq!(udp_owners, vec![4, 4]);
        assert_eq!(udp.fallback_syncs, 0);
        assert!(udp.announce_datagrams > 0);
        assert!(
            udp.tcp_syncs * 4 < tcp.tcp_syncs,
            "catalog syncs shrank: {} vs {}",
            udp.tcp_syncs,
            tcp.tcp_syncs
        );
        let udp_total = udp.tcp_bytes + udp.announce_bytes + udp.scrape_bytes;
        assert!(
            udp_total * 3 < tcp.tcp_bytes,
            "sync bytes shrank: {} vs {}",
            udp_total,
            tcp.tcp_bytes
        );
    }

    #[test]
    fn announce_ttl_evicts_silent_host_and_repair_regenerates() {
        // Satellite of the discovery plane: NO failure detector runs —
        // only the host cache's TTL sweep can notice the dead host. Its
        // claim expires one TTL after its last announce, the sweep drops
        // it from the replica view, and the next full sync re-replicates.
        let topo = topology::gdx_cluster(2);
        let mut sim = Sim::new(32);
        let bd = SimBitdew::new(
            topo.net.clone(),
            topo.service,
            SimDuration::from_secs(1),
            Trace::new(),
        );
        bd.enable_announce(4, 4);
        let data = datum("precious", 1_000_000);
        bd.schedule_data(
            data.clone(),
            DataAttributes::default()
                .with_replica(1)
                .with_fault_tolerance(true),
        );
        let n1 = bd.add_node(&mut sim, topo.workers[0], SimTime::ZERO);
        let n2 = bd.add_node(&mut sim, topo.workers[1], SimTime::from_secs(2));
        let bd2 = bd.clone();
        let net = topo.net.clone();
        let victim = topo.workers[0];
        sim.schedule_at(SimTime::from_secs(10), move |sim| {
            bd2.kill_host(sim, victim);
            net.set_host_enabled(sim, victim, false);
        });
        sim.run_until(SimTime::from_secs(40));
        let owners = bd.owners_of(data.id);
        assert_eq!(owners, vec![n2], "replica regenerated off the dead node");
        assert!(bd.sync_stats().cache_evictions >= 1);
        let holders = bd.announce_holders(&sim, data.id);
        assert!(holders.iter().any(|(h, _)| *h == n2));
        assert!(!holders.iter().any(|(h, _)| *h == n1));
    }

    #[test]
    fn stale_version_announcer_is_demoted_to_repair_target() {
        // A replica whose bytes predate the head version must stop counting
        // as a serving replica: its announce carries its held version, the
        // announce refresh credits only the still-valid chunks, the
        // scheduler demotes it to a repair target, and repair promotes it
        // back once the changed chunks land.
        let (_sim, bd, nodes) = harness(2, 24);
        bd.enable_announce(4, 2);
        let client = &nodes[0];
        let content: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        let data = client.create_data("mvcc", &content).unwrap();
        client.put_chunked(&data, &content, 1024).unwrap();
        client
            .schedule(
                &data,
                DataAttributes::default()
                    .with_replica(2)
                    .with_fault_tolerance(true),
            )
            .unwrap();
        nodes[0].barrier(Duration::from_secs(60)).unwrap();
        nodes[1].barrier(Duration::from_secs(60)).unwrap();
        assert_eq!(bd.owners_of(data.id).len(), 2);

        let head = client.version_head(data.id).unwrap();
        assert_eq!(head, 1);
        client
            .commit_update(&data, head, &[(0, vec![0xEE; 512])])
            .unwrap();
        assert_eq!(client.version_head(data.id).unwrap(), 2);

        // nodes[1] still holds version-1 bytes: it must leave the owner set
        // (demotion) and rejoin only after chunk repair catches it up.
        let stale = nodes[1].uid;
        let mut demoted = false;
        let mut repromoted = false;
        for _ in 0..120 {
            nodes[0].pump().unwrap();
            nodes[1].pump().unwrap();
            let owners = bd.owners_of(data.id);
            if !owners.contains(&stale) {
                demoted = true;
            } else if demoted {
                repromoted = true;
                break;
            }
        }
        assert!(demoted, "stale holder left the serving-replica set");
        assert!(repromoted, "repair restored the holder at the head");
        let stats = bd.sync_stats();
        assert!(stats.version_publishes >= 1);
        assert!(stats.version_bytes > 0);
    }

    #[test]
    fn zero_cadence_factors_mean_one_heartbeat_ttl_and_every_round_full() {
        let topo = topology::gdx_cluster(1);
        let mut sim = Sim::new(34);
        let bd = SimBitdew::new(
            topo.net.clone(),
            topo.service,
            SimDuration::from_secs(1),
            Trace::new(),
        );
        bd.enable_announce(0, 0);
        let data = datum("edge", 1_000);
        bd.schedule_data(data.clone(), DataAttributes::default().with_replica(1));
        let n = bd.add_node(&mut sim, topo.workers[0], SimTime::ZERO);
        sim.run_until(SimTime::from_millis(10_500));
        // full_sync_every = 0: each of the 11 rounds (t = 0..=10 s) synced.
        let stats = bd.sync_stats();
        assert_eq!(stats.tcp_syncs, 11);
        assert_eq!(stats.fallback_syncs, 0);
        // ttl_factor = 0: half a heartbeat after its last refresh, the
        // claim is still live.
        let holders = bd.announce_holders(&sim, data.id);
        assert!(holders.iter().any(|(h, _)| *h == n), "{holders:?}");
    }

    #[test]
    fn udp_outage_falls_back_to_tcp_sync_and_recovers() {
        let topo = topology::gdx_cluster(4);
        let mut sim = Sim::new(33);
        let bd = SimBitdew::new(
            topo.net.clone(),
            topo.service,
            SimDuration::from_secs(1),
            Trace::new(),
        );
        bd.enable_announce(16, 8);
        let data = datum("durable", 200_000);
        bd.schedule_data(
            data.clone(),
            DataAttributes::default()
                .with_replica(2)
                .with_fault_tolerance(true),
        );
        for &w in &topo.workers {
            bd.add_node(&mut sim, w, SimTime::ZERO);
        }
        sim.run_until(SimTime::from_secs(20));
        let before = bd.sync_stats();
        assert_eq!(before.fallback_syncs, 0);
        // Kill the datagram path: every announce round degrades to a full
        // TCP sync, so liveness and replication survive the outage.
        bd.set_udp_up(false);
        sim.run_until(SimTime::from_secs(40));
        let during = bd.sync_stats();
        assert!(
            during.fallback_syncs >= 60,
            "announce rounds fell back to TCP, got {}",
            during.fallback_syncs
        );
        assert_eq!(during.announce_datagrams, before.announce_datagrams);
        // Revive: announce rounds resume, fallbacks stop accumulating.
        bd.set_udp_up(true);
        sim.run_until(SimTime::from_secs(60));
        let after = bd.sync_stats();
        assert_eq!(after.fallback_syncs, during.fallback_syncs);
        assert!(after.announce_datagrams > during.announce_datagrams);
        assert_eq!(bd.owners_of(data.id).len(), 2);
    }

    #[test]
    fn a_purged_datum_repinned_within_the_ttl_half_life_is_claimed_at_once() {
        // TTL 16 s (half-life 8 s), a full sync every other round.
        let topo = topology::gdx_cluster(1);
        let mut sim = Sim::new(35);
        let bd = SimBitdew::new(
            topo.net.clone(),
            topo.service,
            SimDuration::from_secs(1),
            Trace::new(),
        );
        bd.enable_announce(16, 2);
        let data = datum("expiring", 4_000);
        bd.put_manifest(&ChunkManifest::describe(data.id, 1_000, &[0; 4_000]));
        let expires = SimTime::from_millis(1_500).as_nanos();
        bd.schedule_data(
            data.clone(),
            DataAttributes::default()
                .with_replica(0)
                .with_lifetime(crate::attr::Lifetime::Absolute(expires)),
        );
        let n = bd.add_node(&mut sim, topo.workers[0], SimTime::ZERO);
        bd.pin(data.id, n);
        // t = 0: a complete claim. t = 2 s: the full sync purges the
        // expired datum.
        sim.run_until(SimTime::from_millis(2_500));
        assert!(bd.cache_of(n).is_empty(), "the lifetime purged the datum");
        assert_eq!(
            bd.announce_holders(&sim, data.id),
            vec![(n, FLAG_SERVING | crate::announce::FLAG_COMPLETE)]
        );
        // Re-pinned as a partial 2.5 s after its last claim: the purge
        // forgot the claim's clock, so t = 3 s announces the new holding.
        bd.pin_partial_set(data.id, n, &[0]);
        sim.run_until(SimTime::from_millis(3_500));
        assert_eq!(bd.announce_holders(&sim, data.id), vec![(n, FLAG_SERVING)]);
    }
}
