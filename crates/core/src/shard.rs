//! The sharded service plane: a consistent-hash partitioned Data Catalog +
//! Data Scheduler.
//!
//! The paper's service node (§3.3) hosts DC/DR/DS/DT as one process, and the
//! original `ServiceContainer` reproduced that monolith: every `put`,
//! `schedule` and reservoir synchronization funnelled through a single
//! scheduler mutex and a single DewDB-backed catalog. This module extends
//! the paper's own DDC idea (§3.4.1 — replica records partitioned over the
//! `bitdew-dht` key space) to the full DC+DS plane:
//!
//! * [`ShardRouter`] — maps [`DataId`]s onto N shards by partitioning the
//!   2^64 DHT ring ([`bitdew_dht::id::key_for_auid`] /
//!   [`bitdew_dht::id::RingPos`]) into N equal clockwise arcs.
//! * [`ShardedScheduler`] — N independent [`DataScheduler`]s, one lock each.
//!   A reservoir synchronization becomes **fan-out/merge**: the host's cache
//!   Δk is split by shard, each shard runs Algorithm 1's step 1 on its
//!   slice, and step 2 iterates over the shards to a fixed point so
//!   cross-shard affinity chains resolve in the same round. A *global*
//!   `MaxDataSchedule` budget is threaded through the per-shard calls in
//!   deterministic shard order, so sharded and unsharded deployments
//!   converge to the same placements.
//! * [`ShardedPlane`] — N `(DataCatalog, DataScheduler)` pairs, each catalog
//!   on its own database (own DewDB/pool), so catalog traffic for different
//!   shards never contends. Name search fans out and merges; everything
//!   keyed by id routes to exactly one shard.
//!
//! Cross-shard lifetime semantics live in shared state: a read-mostly
//! `RwLock` union of managed ids (so `RelativeTo` references resolve across
//! shards without serializing concurrent syncs) and a mutex-guarded
//! reverse-dependency registry (so deleting or expiring a reference
//! cascades to dependents on other shards).
//!
//! Lock hierarchy: shard → registry → live set; a later lock may be taken
//! while holding an earlier one, never the reverse, and multi-shard loops
//! acquire shard locks one at a time (ascending order, never nested). The
//! sync-path alive oracle takes only a brief `live` read lock per
//! relative-lifetime check.

use std::collections::BTreeSet;
use std::num::NonZeroUsize;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use bitdew_dht::id::{key_for_auid, RingPos};
use bitdew_util::{IdMap, IdSet};

use crate::agent::ClaimEffect;
use crate::api::Result;
use crate::attr::{DataAttributes, Lifetime};
use crate::chunks::{ChunkHoldings, ChunkManifest};
use crate::data::{Data, DataId, Locator, LocatorRef};
use crate::services::catalog::{DataCatalog, DbAccess};
use crate::services::scheduler::{DataScheduler, HostUid, SyncReply, SyncRole};
use crate::versions::{
    check_republish, commit_version, ResolvedVersion, VersionState, VersionedManifest,
};

/// Maps data identifiers onto shards by partitioning the DHT ring.
///
/// Shard `i` owns the clockwise arc `[i·2^64/N, (i+1)·2^64/N)` of the ring;
/// a datum lands on the shard whose arc contains
/// [`key_for_auid`]`(id)`. Because the key is a uniform hash of the AUID,
/// shards stay balanced regardless of id allocation patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouter {
    shards: usize,
}

impl ShardRouter {
    /// Router over `shards` partitions of the ring.
    pub fn new(shards: NonZeroUsize) -> ShardRouter {
        ShardRouter {
            shards: shards.get(),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The datum's position on the 2^64 ring.
    pub fn ring_pos(&self, id: DataId) -> RingPos {
        key_for_auid(id)
    }

    /// The shard owning `id`: the index of the equal-width ring arc that
    /// contains the datum's key. Computed as `⌊key · N / 2^64⌋`, which is
    /// exact in 128-bit arithmetic.
    pub fn shard_of(&self, id: DataId) -> usize {
        ((self.ring_pos(id).0 as u128 * self.shards as u128) >> 64) as usize
    }

    /// Split a batch of ids into per-shard slices in one routing pass. A
    /// one-shard plane has one slice and hashes nothing to find it.
    pub fn split(&self, ids: &[DataId]) -> Vec<Vec<DataId>> {
        if self.shards == 1 {
            return vec![ids.to_vec()];
        }
        let mut slices: Vec<Vec<DataId>> = vec![Vec::new(); self.shards];
        for &id in ids {
            slices[self.shard_of(id)].push(id);
        }
        slices
    }
}

/// The shared cross-shard dependency registry (see module docs).
#[derive(Default)]
struct RefRegistry {
    /// Reference → dependents with `Lifetime::RelativeTo(reference)`,
    /// across all shards.
    rdeps: IdMap<DataId, BTreeSet<DataId>>,
    /// Dependent → its current reference (the inverse edge), so the edge
    /// under `rdeps` can be dropped exactly when the dependent dies or is
    /// re-scheduled with a different lifetime — a stale edge would later
    /// cascade-delete a datum that no longer depends on the reference.
    ref_of: IdMap<DataId, DataId>,
}

impl RefRegistry {
    /// Drop `id`'s dependency edge (if any): both directions.
    fn unlink(&mut self, id: DataId) {
        if let Some(r0) = self.ref_of.remove(&id) {
            if let Some(deps) = self.rdeps.get_mut(&r0) {
                deps.remove(&id);
                if deps.is_empty() {
                    self.rdeps.remove(&r0);
                }
            }
        }
    }

    /// Record `dep` as depending on `reference`: both directions.
    fn link(&mut self, dep: DataId, reference: DataId) {
        self.ref_of.insert(dep, reference);
        self.rdeps.entry(reference).or_default().insert(dep);
    }
}

/// Per-shard work profile of one fan-out synchronization: how many items
/// each shard is *charged* — its cache-slice entries, plus |Θ_shard| per
/// step-2 pass it took part in. The simulator turns the count into virtual
/// service time ([`SimBitdew::set_service_cost`](crate::simdriver::SimBitdew::set_service_cost)),
/// so this is a cost model, not a measurement: the indexed scheduler
/// examines far fewer entries than it is charged for
/// ([`DataScheduler::theta_visits`] counts those), and the charge stays as
/// defined so that virtual-time results do not move with the
/// implementation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SyncProfile {
    /// Items charged per shard.
    pub per_shard: Vec<usize>,
    /// Events the synchronization round that consumed this profile
    /// deferred for full [`Backpressure::Block`](crate::Backpressure)
    /// subscribers instead of parking its publish path. The scheduler
    /// itself publishes nothing — the driving runtime fills this in after
    /// its publish phase (the threaded heartbeat does; the single-threaded
    /// simulator never defers, so it stays 0 there).
    pub deferred_events: u64,
    /// Announce datagrams the discovery plane's server has accepted so far
    /// (verified connection-id, counted once per datagram). Filled by the
    /// driving runtime from its [`AnnounceServer`](crate::AnnounceServer)
    /// stats; 0 when the UDP plane is disabled.
    pub announces_rx: u64,
    /// Scrape requests the discovery plane's server has answered so far.
    pub scrapes_served: u64,
    /// Announce-cache entries the TTL sweep has expired so far (each one a
    /// holding forgotten without waiting for catalog sync).
    pub cache_evictions: u64,
    /// Heartbeat rounds this host downgraded from UDP announce to a full
    /// TCP catalog sync because the datagram path was down or the handshake
    /// failed — the graceful-degradation counter.
    pub fallback_syncs: u64,
}

impl SyncProfile {
    /// The busiest shard's item count (the critical path when shards
    /// process their slices in parallel).
    pub fn max_items(&self) -> usize {
        self.per_shard.iter().copied().max().unwrap_or(0)
    }
}

/// Merge one shard's part of a reply into the whole. The first non-empty
/// part — the only one on a single-shard plane — is adopted as is rather
/// than copied.
fn append<T>(whole: &mut Vec<T>, mut part: Vec<T>) {
    if whole.is_empty() {
        *whole = part;
    } else {
        whole.append(&mut part);
    }
}

/// N independent Data Schedulers behind one fan-out/merge face.
///
/// Every method routes by [`ShardRouter`] and takes at most one shard lock
/// at a time, so synchronizations against different shards run concurrently
/// — the single scheduler mutex of the monolithic plane is gone.
pub struct ShardedScheduler {
    router: ShardRouter,
    shards: Vec<Mutex<DataScheduler>>,
    /// Union of managed ids across every shard — read-mostly (the sync
    /// path's alive oracle), hence an `RwLock` rather than the registry
    /// mutex.
    live: RwLock<IdSet<DataId>>,
    refs: Mutex<RefRegistry>,
    max_data_schedule: usize,
}

impl ShardedScheduler {
    /// Build `shards` schedulers with the given failure-detection timeout
    /// and a **global** per-sync download cap (split across shards).
    pub fn new(shards: NonZeroUsize, timeout_nanos: u64, max_data_schedule: usize) -> Self {
        let router = ShardRouter::new(shards);
        ShardedScheduler {
            router,
            shards: (0..shards.get())
                .map(|_| Mutex::new(DataScheduler::new(timeout_nanos, max_data_schedule)))
                .collect(),
            live: RwLock::new(IdSet::default()),
            refs: Mutex::new(RefRegistry::default()),
            max_data_schedule: max_data_schedule.max(1),
        }
    }

    /// The same plane over shards that run the retained whole-Θ
    /// transcription of Algorithm 1 — the differential tests' oracle.
    #[cfg(test)]
    fn new_oracle(shards: NonZeroUsize, timeout_nanos: u64, max_data_schedule: usize) -> Self {
        let plane = ShardedScheduler::new(shards, timeout_nanos, max_data_schedule);
        for shard in &plane.shards {
            *shard.lock() = DataScheduler::new_oracle(timeout_nanos, max_data_schedule);
        }
        plane
    }

    /// The router this plane partitions with.
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_for(&self, id: DataId) -> &Mutex<DataScheduler> {
        &self.shards[self.router.shard_of(id)]
    }

    /// `ActiveData::schedule` — put a datum under management on its shard.
    pub fn schedule(&self, data: Data, attrs: DataAttributes) {
        self.schedule_many(std::iter::once((data, attrs)));
    }

    /// Batched schedule: one routing pass, one lock acquisition per touched
    /// shard.
    ///
    /// Relative-lifetime references resolve against the plane's *global*
    /// live set, so a dependent may land on a different shard than its
    /// reference. A datum whose reference is not managed anywhere is dead
    /// on arrival, mirroring [`DataScheduler::schedule`].
    pub fn schedule_many(&self, items: impl IntoIterator<Item = (Data, DataAttributes)>) {
        // Registry pass first, in INPUT order — a dependent may ride in the
        // same batch as its reference, and the monolithic scheduler decides
        // dead-on-arrival sequentially, so the per-shard fan-out below must
        // not reorder that decision. (No shard lock is held here.)
        let mut per_shard: Vec<Vec<(Data, DataAttributes)>> =
            (0..self.shards.len()).map(|_| Vec::new()).collect();
        let mut batch_ids: Vec<DataId> = Vec::new();
        {
            let mut refs = self.refs.lock();
            let mut live = self.live.write();
            for (data, attrs) in items {
                // Keep the registry consistent under re-scheduling: drop a
                // previous dependency edge before recording the new
                // lifetime. Dead-on-arrival data (reference managed
                // nowhere) are left out of the live set; the reconciliation
                // below expires them.
                refs.unlink(data.id);
                match attrs.lifetime {
                    Lifetime::RelativeTo(r) if !live.contains(&r) => {
                        live.remove(&data.id);
                    }
                    lt => {
                        live.insert(data.id);
                        if let Lifetime::RelativeTo(r) = lt {
                            refs.link(data.id, r);
                        }
                    }
                }
                batch_ids.push(data.id);
                per_shard[self.router.shard_of(data.id)].push((data, attrs));
            }
        }
        for (i, batch) in per_shard.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            let mut shard = self.shards[i].lock();
            for (data, attrs) in batch {
                // The shard-local dead-on-arrival check is skipped: the
                // reference may legitimately live on another shard.
                shard.schedule_unchecked(data, attrs);
            }
        }
        // Reconcile: any batch id no longer in the live set — dead on
        // arrival, or consumed by a concurrent delete/expiry cascade racing
        // the shard pass above — must leave Θ too, or it would linger as an
        // unmanaged-but-listed zombie. Cascades run with no shard lock held.
        let stale: Vec<DataId> = {
            let live = self.live.read();
            batch_ids
                .into_iter()
                .filter(|id| !live.contains(id))
                .collect()
        };
        for id in stale {
            self.delete_data(id);
        }
    }

    /// `ActiveData::pin` — declare `host` an owner of `data` on its shard.
    pub fn pin(&self, data: DataId, host: HostUid) {
        self.shard_for(data).lock().pin(data, host);
    }

    /// Record a datum's chunk count on its shard (chunk-aware ownership).
    pub fn set_chunk_total(&self, data: DataId, total: u32) {
        self.shard_for(data).lock().set_chunk_total(data, total);
    }

    /// The registered chunk count of a datum, if known.
    pub fn chunk_total(&self, data: DataId) -> Option<u32> {
        self.shard_for(data).lock().chunk_total(data)
    }

    /// Route a host's chunk-holding report to the datum's shard.
    pub fn report_chunks(&self, host: HostUid, data: DataId, held: u32) {
        self.shard_for(data).lock().report_chunks(host, data, held);
    }

    /// Route a host's exact chunk-set report to the datum's shard (the
    /// compute plane's partial-holder bookkeeping).
    pub fn report_chunk_set(&self, host: HostUid, data: DataId, held: &[u32]) {
        self.shard_for(data)
            .lock()
            .report_chunk_set(host, data, held);
    }

    /// Partial holders of a datum on its shard.
    pub fn partial_holders(&self, data: DataId) -> Vec<(HostUid, u32)> {
        self.shard_for(data).lock().partial_holders(data)
    }

    /// Partial holders of a datum with their exact chunk sets, sorted by
    /// host.
    pub fn partial_chunk_sets(&self, data: DataId) -> Vec<(HostUid, Vec<u32>)> {
        self.shard_for(data).lock().partial_chunk_sets(data)
    }

    /// The chunk-holding picture of a datum: Ω's full owners, sorted, plus
    /// the partial holders with their exact chunk sets.
    pub(crate) fn chunk_holdings(&self, data: DataId) -> ChunkHoldings {
        let mut full = self.owners_of(data);
        full.sort();
        let partial = self.partial_chunk_sets(data);
        ChunkHoldings { full, partial }
    }

    /// Remove a datum from management, cascading across shards to its
    /// relative-lifetime dependents.
    pub fn delete_data(&self, id: DataId) {
        let mut stack = vec![id];
        while let Some(d) = stack.pop() {
            // Shard-local delete first (it cascades to same-shard deps and
            // reports everything that left Θ there)…
            let removed = self.shard_for(d).lock().delete_data(d);
            // …then follow the global dependency edges for cross-shard deps.
            let mut refs = self.refs.lock();
            let mut live = self.live.write();
            let mut follow: Vec<DataId> = Vec::new();
            live.remove(&d);
            refs.unlink(d);
            if let Some(deps) = refs.rdeps.remove(&d) {
                follow.extend(deps);
            }
            for r in &removed {
                if *r != d {
                    live.remove(r);
                    refs.unlink(*r);
                    if let Some(deps) = refs.rdeps.remove(r) {
                        follow.extend(deps);
                    }
                }
            }
            stack.extend(follow.into_iter().filter(|x| live.contains(x)));
        }
    }

    /// Handle ids a shard's expiry sweep removed: clean the registry and
    /// cascade to dependents on other shards. Must be called with no shard
    /// lock held.
    fn propagate_expiry(&self, expired: &[DataId]) {
        let mut follow: Vec<DataId> = Vec::new();
        {
            let mut refs = self.refs.lock();
            let mut live = self.live.write();
            for e in expired {
                live.remove(e);
                refs.unlink(*e);
                if let Some(deps) = refs.rdeps.remove(e) {
                    follow.extend(deps.iter().copied().filter(|x| live.contains(x)));
                }
            }
        }
        for dep in follow {
            self.delete_data(dep);
        }
    }

    /// Whether a datum is currently managed on any shard.
    pub fn is_managed(&self, id: DataId) -> bool {
        self.shard_for(id).lock().is_managed(id)
    }

    /// Total managed data |Θ| across shards.
    pub fn managed_count(&self) -> usize {
        self.shards.iter().map(|s| s.lock().managed_count()).sum()
    }

    /// Current owner set Ω(d).
    pub fn owners_of(&self, d: DataId) -> Vec<HostUid> {
        self.shard_for(d).lock().owners_of(d)
    }

    /// Attribute lookup for a managed datum (cloned out of its shard).
    pub fn attributes_of(&self, d: DataId) -> Option<DataAttributes> {
        self.shard_for(d).lock().attributes_of(d).cloned()
    }

    /// Hosts that have synchronized and not been declared dead, across all
    /// shards.
    pub fn known_hosts(&self) -> Vec<HostUid> {
        let mut v: Vec<HostUid> = Vec::new();
        for s in &self.shards {
            v.extend(s.lock().known_hosts());
        }
        v.sort();
        v.dedup();
        v
    }

    /// Algorithm 1 over the sharded plane (reservoir role).
    pub fn sync(&self, host: HostUid, delta_k: &[DataId], now: u64) -> SyncReply {
        self.sync_as(host, delta_k, now, SyncRole::Reservoir)
    }

    /// Algorithm 1 over the sharded plane with an explicit host role.
    pub fn sync_as(
        &self,
        host: HostUid,
        delta_k: &[DataId],
        now: u64,
        role: SyncRole,
    ) -> SyncReply {
        self.sync_profiled(host, delta_k, now, role).0
    }

    /// [`ShardedScheduler::sync_as`] returning the per-shard work profile.
    ///
    /// Fan-out/merge: step 1 (cache validation) runs on every shard against
    /// that shard's slice of Δk; step 2 then iterates the shards to a fixed
    /// point, passing each the host's full holdings so cross-shard affinity
    /// chains resolve in the same synchronization. The global
    /// `MaxDataSchedule` budget shrinks as shards assign, in ascending shard
    /// order — deterministic, and equal to the unsharded placements at the
    /// fixed point.
    pub fn sync_profiled(
        &self,
        host: HostUid,
        delta_k: &[DataId],
        now: u64,
        role: SyncRole,
    ) -> (SyncReply, SyncProfile) {
        let n = self.shards.len();
        let slices = self.router.split(delta_k);
        let mut profile = SyncProfile {
            per_shard: vec![0; n],
            ..SyncProfile::default()
        };
        // The oracle takes a brief `live` read lock per RelativeTo-lifetime
        // check; concurrent syncs share it without blocking each other, so
        // the per-shard parallelism sharding exists for is preserved. With
        // a single shard its own Θ *is* the global view, so no oracle at
        // all (`ext = None`) — the default `shards = 1` deployment pays
        // nothing here.
        let alive = |r: DataId| self.live.read().contains(&r);
        let ext: crate::services::scheduler::AliveOracle<'_> =
            if n > 1 { Some(&alive) } else { None };

        // ---- Step 1 on every shard ------------------------------------
        let mut merged = SyncReply::default();
        let mut holds: BTreeSet<DataId> = BTreeSet::new();
        for (i, slice) in slices.iter().enumerate() {
            let (v, repair_entries) = {
                let mut sh = self.shards[i].lock();
                let v = sh.validate_cache(host, slice, now, ext);
                // Repair targets stay held (the host keeps its verified
                // chunks) but are not owned; materialize the orders while
                // the shard lock is held.
                let entries: Vec<(Data, DataAttributes)> =
                    v.repair.iter().filter_map(|id| sh.entry_of(*id)).collect();
                (v, entries)
            };
            profile.per_shard[i] += slice.len();
            holds.extend(v.keep.iter().copied());
            holds.extend(v.repair.iter().copied());
            append(&mut merged.keep, v.keep);
            append(&mut merged.delete, v.delete);
            append(&mut merged.repair, repair_entries);
            if !v.expired.is_empty() {
                self.propagate_expiry(&v.expired);
            }
        }

        // ---- Step 2, fanned out to a cross-shard fixed point -----------
        let mut budget = self.max_data_schedule;
        loop {
            let mut progress = false;
            for (i, shard) in self.shards.iter().enumerate() {
                if budget == 0 {
                    break;
                }
                let mut sh = shard.lock();
                // The modelled charge of a step-2 pass (see `SyncProfile`),
                // not what `assign_new` examines.
                profile.per_shard[i] += sh.managed_count();
                let dl = sh.assign_new(host, &holds, now, role, budget, ext);
                drop(sh);
                budget -= dl.len();
                for (d, _) in &dl {
                    holds.insert(d.id);
                }
                progress |= !dl.is_empty();
                append(&mut merged.download, dl);
            }
            if !progress || budget == 0 {
                break;
            }
        }
        (merged, profile)
    }

    /// Catalog-free liveness refresh on every shard (a full sync touches
    /// each shard's `last_seen`, so the datagram path must too — otherwise
    /// the shard-local failure detectors would disagree about the host).
    pub fn touch_host(&self, host: HostUid, now: u64) {
        for s in &self.shards {
            s.lock().touch_host(host, now);
        }
    }

    /// [`ShardedScheduler::touch_host`] through exclusive access, taking no
    /// shard lock. The simulator owns its plane and touches every host every
    /// heartbeat; there a lock's atomic read-modify-write would order the
    /// heartbeat's cache misses one after another.
    pub(crate) fn touch_host_mut(&mut self, host: HostUid, now: u64) {
        for s in &mut self.shards {
            s.get_mut().touch_host(host, now);
        }
    }

    /// Route an announce-plane complete-replica report to the datum's
    /// shard. See [`DataScheduler::announce_owner`].
    pub fn announce_owner(&self, host: HostUid, data: DataId) -> bool {
        self.shard_for(data).lock().announce_owner(host, data)
    }

    /// Carry out what `host`'s claim on `data` means (see
    /// [`crate::agent::claim_effect`]).
    pub(crate) fn apply_claim(&self, host: HostUid, data: DataId, effect: ClaimEffect) {
        match effect {
            ClaimEffect::Owner => {
                self.announce_owner(host, data);
            }
            ClaimEffect::Chunks(held) => self.report_chunk_set(host, data, &held),
        }
    }

    /// Route an announce-cache TTL eviction to the datum's shard. See
    /// [`DataScheduler::drop_host_holding`].
    pub fn drop_host_holding(&self, host: HostUid, data: DataId) -> bool {
        self.shard_for(data).lock().drop_host_holding(host, data)
    }

    /// Heartbeat failure detection across every shard; returns the union of
    /// hosts declared dead, sorted and deduplicated.
    pub fn detect_failures(&self, now: u64) -> Vec<HostUid> {
        let mut dead: Vec<HostUid> = Vec::new();
        for s in &self.shards {
            dead.extend(s.lock().detect_failures(now));
        }
        dead.sort();
        dead.dedup();
        dead
    }
}

/// The full sharded service plane: per-shard Data Catalogs (each on its own
/// database) plus the [`ShardedScheduler`] and the version plane's shared
/// mutable state ([`VersionState`]: resolved heads, snapshot pins, pre-image
/// preservation ledger).
pub struct ShardedPlane {
    router: ShardRouter,
    catalogs: Vec<DataCatalog>,
    scheduler: ShardedScheduler,
    versions: VersionState,
}

impl ShardedPlane {
    /// Build the plane. `make_db` is called once per shard so every catalog
    /// gets its own database access path (its own DewDB/pool).
    pub fn new(
        shards: NonZeroUsize,
        timeout_nanos: u64,
        max_data_schedule: usize,
        mut make_db: impl FnMut(usize) -> DbAccess,
    ) -> ShardedPlane {
        let router = ShardRouter::new(shards);
        ShardedPlane {
            router,
            catalogs: (0..shards.get())
                .map(|i| DataCatalog::new(make_db(i)))
                .collect(),
            scheduler: ShardedScheduler::new(shards, timeout_nanos, max_data_schedule),
            versions: VersionState::new(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.catalogs.len()
    }

    /// The routing function shared by catalog and scheduler.
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// The sharded Data Scheduler.
    pub fn scheduler(&self) -> &ShardedScheduler {
        &self.scheduler
    }

    /// The scheduler through exclusive access, for
    /// [`ShardedScheduler::touch_host_mut`].
    pub(crate) fn scheduler_mut(&mut self) -> &mut ShardedScheduler {
        &mut self.scheduler
    }

    /// The catalog shard owning `id`.
    pub fn catalog_for(&self, id: DataId) -> &DataCatalog {
        &self.catalogs[self.router.shard_of(id)]
    }

    /// Register (or overwrite) a datum on its catalog shard.
    pub fn register(&self, data: &Data) -> Result<()> {
        self.catalog_for(data.id).register(data)
    }

    /// `items` grouped by the catalog shard owning each one's id, in one
    /// routing pass, by reference.
    fn route<'a, T>(&self, items: &'a [T], id: impl Fn(&T) -> DataId) -> Vec<Vec<&'a T>> {
        let mut per_shard = vec![Vec::new(); self.catalogs.len()];
        for item in items {
            per_shard[self.router.shard_of(id(item))].push(item);
        }
        per_shard
    }

    /// Register a batch of data, grouped per shard in one routing pass so
    /// each shard sees one batched database round-trip (the batch-creation
    /// face of the pipelined command plane).
    pub fn register_many(&self, data: &[Data]) -> Result<()> {
        if self.catalogs.len() == 1 {
            return self.catalogs[0].register_many(data);
        }
        for (catalog, batch) in self.catalogs.iter().zip(self.route(data, |d| d.id)) {
            catalog.register_many(batch)?;
        }
        Ok(())
    }

    /// Fetch a datum by id from its catalog shard.
    pub fn get(&self, id: DataId) -> Result<Option<Data>> {
        self.catalog_for(id).get(id)
    }

    /// `searchData` by exact name: fan out to every catalog shard and merge
    /// (sorted by id for deterministic order).
    pub fn search(&self, name: &str) -> Result<Vec<Data>> {
        let mut out = Vec::new();
        for c in &self.catalogs {
            out.extend(c.search(name)?);
        }
        out.sort_by_key(|d| d.id);
        Ok(out)
    }

    /// Attach a batch of borrowed locator rows, grouped per shard in one
    /// routing pass so each shard sees one batched database round-trip.
    pub fn add_locators(&self, locs: &[LocatorRef]) -> Result<()> {
        if self.catalogs.len() == 1 {
            return self.catalogs[0].add_locators(locs);
        }
        for (catalog, batch) in self.catalogs.iter().zip(self.route(locs, |l| l.data)) {
            catalog.add_locators(batch)?;
        }
        Ok(())
    }

    /// All locators for a datum.
    pub fn locators(&self, id: DataId) -> Result<Vec<Locator>> {
        self.catalog_for(id).locators(id)
    }

    /// Publish a chunk manifest on its catalog shard, and record the chunk
    /// count with the owning scheduler shard so replica validation becomes
    /// chunk-aware (a host counts as owner only once it holds every chunk).
    /// The manifest becomes the datum's version 1 and its head. Once a
    /// version committed on top of the base, only the head's own chunk map
    /// is accepted, as a no-op; anything else is a non-retryable error
    /// ([`check_republish`]).
    pub fn put_manifest(&self, manifest: &crate::chunks::ChunkManifest) -> Result<()> {
        let _commit = self.versions.commit_lock();
        if !check_republish(manifest, self.head(manifest.data)?.as_deref())? {
            return Ok(());
        }
        self.catalog_for(manifest.data).put_manifest(manifest)?;
        self.scheduler
            .set_chunk_total(manifest.data, manifest.chunk_count());
        self.versions
            .replace_head(ResolvedVersion::resolve(manifest, &[], 1));
        Ok(())
    }

    /// The published chunk manifest of a datum, if any.
    pub fn manifest(&self, id: DataId) -> Result<Option<crate::chunks::ChunkManifest>> {
        self.catalog_for(id).manifest(id)
    }

    /// The version plane's shared mutable state (resolved heads, snapshot
    /// pins, preservation ledger).
    pub fn version_state(&self) -> &VersionState {
        &self.versions
    }

    /// The datum's resolved head, `None` with no published manifest. Held
    /// in memory once loaded; a cold load is one manifest get plus one
    /// `dc_version` scan (see [`crate::versions`]).
    pub fn head(&self, id: DataId) -> Result<Option<Arc<ResolvedVersion>>> {
        if let Some(head) = self.versions.head(id) {
            return Ok(Some(head));
        }
        let generation = self.versions.generation();
        Ok(self
            .cold_head(id)?
            .map(|head| self.versions.install_head(head, generation)))
    }

    /// The datum's base manifest and delta rows, read from its catalog
    /// shard; `None` with no published manifest.
    fn chain(&self, id: DataId) -> Result<Option<(ChunkManifest, Vec<VersionedManifest>)>> {
        let catalog = self.catalog_for(id);
        let Some(base) = catalog.manifest(id)? else {
            return Ok(None);
        };
        Ok(Some((base, catalog.versions(id)?)))
    }

    /// The datum's head resolved from its catalog rows alone.
    fn cold_head(&self, id: DataId) -> Result<Option<ResolvedVersion>> {
        Ok(self.chain(id)?.map(|(base, rows)| {
            let head = rows.last().map_or(1, |r| r.version);
            ResolvedVersion::resolve(&base, &rows, head)
        }))
    }

    /// The datum's current head version: 0 with no published manifest,
    /// 1 with only the base, `1 + max(dc_version)` once deltas committed.
    pub fn version_head(&self, id: DataId) -> Result<u64> {
        Ok(self.head(id)?.map_or(0, |head| head.version))
    }

    /// One row of a datum's version chain (1 = the base manifest).
    pub fn version_manifest(&self, id: DataId, version: u64) -> Result<Option<VersionedManifest>> {
        self.catalog_for(id).version(id, version)
    }

    /// Resolve each of `versions` (ascending) of a datum: the head from
    /// memory, any older version through the chain, loaded at most once.
    /// Empty when the datum has no manifest.
    pub fn resolve_versions(&self, id: DataId, versions: &[u64]) -> Result<Vec<ResolvedVersion>> {
        let Some(head) = self.head(id)? else {
            return Ok(Vec::new());
        };
        let mut chain = None;
        let mut out = Vec::with_capacity(versions.len());
        for &version in versions {
            if version == head.version {
                out.push((*head).clone());
                continue;
            }
            if chain.is_none() {
                chain = self.chain(id)?;
            }
            if let Some((base, rows)) = &chain {
                out.push(ResolvedVersion::resolve(base, rows, version));
            }
        }
        Ok(out)
    }

    /// The datum's chunk manifest *at the head version*: the base when no
    /// deltas committed, otherwise the resolved head materialized — the
    /// digests repair, announce and compute must key on.
    pub fn materialized_manifest(
        &self,
        id: DataId,
    ) -> Result<Option<crate::chunks::ChunkManifest>> {
        Ok(self.head(id)?.map(|head| head.to_manifest()))
    }

    /// The per-datum version-head CAS, the only writer of `dc_version`
    /// rows. `row.version` is advisory (the id is assigned here); `parent`
    /// is the base the writer resolved against. Under the plane-wide
    /// commit lock: run [`commit_version`] against the resolved head's
    /// chunk births (fast path / auto-rebase /
    /// [`VersionConflict`](crate::BitdewError::VersionConflict)), persist
    /// the row, then advance the head by it. Returns the committed row
    /// with its assigned version id and effective parent.
    pub fn publish_version(&self, row: &VersionedManifest) -> Result<VersionedManifest> {
        let _commit = self.versions.commit_lock();
        let Some(head) = self.head(row.data)? else {
            return Err(crate::BitdewError::CatalogMiss {
                what: format!("version {} to commit against (head 0)", row.parent),
            });
        };
        let version = commit_version(&head, row.parent, &row.changed_indices())?;
        let committed = VersionedManifest {
            version,
            parent: head.version,
            ..row.clone()
        };
        self.catalog_for(row.data).put_version(&committed)?;
        self.versions.advance_head(&committed);
        #[cfg(debug_assertions)]
        if let Some(held) = self.versions.head(row.data) {
            assert_eq!(
                Some(&*held),
                self.cold_head(row.data)?.as_ref(),
                "the advanced head must equal the catalog's chain"
            );
        }
        Ok(committed)
    }

    /// Remove a datum and its locators from its catalog shard, and forget
    /// its version-plane state (after the rows are gone, so no cold load
    /// can bring them back).
    pub fn delete_catalog(&self, id: DataId) -> Result<bool> {
        let deleted = self.catalog_for(id).delete(id);
        self.versions.forget(id);
        deleted
    }

    /// Successful registrations across every catalog shard.
    pub fn registrations(&self) -> u64 {
        self.catalogs.iter().map(|c| c.registrations()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::REPLICA_ALL;
    use bitdew_storage::{ConnectionPool, DewDb, EmbeddedDriver};
    use bitdew_util::Auid;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::collections::HashSet;
    use std::sync::Arc;

    const SEC: u64 = 1_000_000_000;

    fn nz(n: usize) -> NonZeroUsize {
        NonZeroUsize::new(n).expect("nonzero")
    }

    fn ids(reply: &SyncReply) -> Vec<DataId> {
        let mut v: Vec<DataId> = reply.download.iter().map(|(d, _)| d.id).collect();
        v.sort();
        v
    }

    struct Fixture {
        rng: SmallRng,
    }

    impl Fixture {
        fn new(seed: u64) -> Fixture {
            Fixture {
                rng: SmallRng::seed_from_u64(seed),
            }
        }
        fn id(&mut self) -> Auid {
            Auid::generate(1, &mut self.rng)
        }
        fn datum(&mut self, name: &str) -> Data {
            let id = self.id();
            Data::from_bytes(id, name, name.as_bytes())
        }
    }

    #[test]
    fn router_is_total_and_balanced() {
        let router = ShardRouter::new(nz(4));
        let mut f = Fixture::new(7);
        let mut counts = [0usize; 4];
        for _ in 0..4000 {
            let s = router.shard_of(f.id());
            assert!(s < 4);
            counts[s] += 1;
        }
        for &c in &counts {
            // Uniform hash: each shard holds ~1000 of 4000; allow wide slack.
            assert!((600..1400).contains(&c), "unbalanced shards: {counts:?}");
        }
    }

    #[test]
    fn router_single_shard_takes_everything() {
        let router = ShardRouter::new(nz(1));
        let mut f = Fixture::new(8);
        for _ in 0..100 {
            assert_eq!(router.shard_of(f.id()), 0);
        }
        let ids: Vec<DataId> = (0..10).map(|_| f.id()).collect();
        assert_eq!(router.split(&ids), vec![ids]);
    }

    #[test]
    fn split_preserves_membership_and_order() {
        let router = ShardRouter::new(nz(3));
        let mut f = Fixture::new(9);
        let ids: Vec<DataId> = (0..50).map(|_| f.id()).collect();
        let slices = router.split(&ids);
        assert_eq!(slices.len(), 3);
        let total: usize = slices.iter().map(Vec::len).sum();
        assert_eq!(total, ids.len());
        for (i, slice) in slices.iter().enumerate() {
            for id in slice {
                assert_eq!(router.shard_of(*id), i);
            }
        }
    }

    proptest! {
        #[test]
        fn shard_arcs_partition_the_ring(raw in any::<u128>(), n in 1usize..16) {
            let router = ShardRouter::new(NonZeroUsize::new(n).unwrap());
            let id = Auid(raw);
            let s = router.shard_of(id);
            prop_assert!(s < n);
            // The key really lies inside shard s's clockwise arc
            // [s·2^64/n, (s+1)·2^64/n).
            let key = router.ring_pos(id).0 as u128;
            let lo = (s as u128) << 64;
            prop_assert!(key * (n as u128) >= lo);
            prop_assert!(key * (n as u128) < lo + (1u128 << 64));
        }
    }

    fn sharded(n: usize, cap: usize) -> ShardedScheduler {
        ShardedScheduler::new(nz(n), 3 * SEC, cap)
    }

    #[test]
    fn sharded_replication_matches_unsharded_fixed_point() {
        // The same workload against N=1 and N=4 must converge to the same
        // owner sets with the same sync sequence.
        let mut f = Fixture::new(11);
        let data: Vec<Data> = (0..12).map(|i| f.datum(&format!("d{i}"))).collect();
        let hosts: Vec<HostUid> = (0..3).map(|_| f.id()).collect();

        let run = |n: usize| -> Vec<Vec<HostUid>> {
            let ds = sharded(n, 64);
            for (i, d) in data.iter().enumerate() {
                ds.schedule(
                    d.clone(),
                    DataAttributes::default().with_replica((i % 3) as i64),
                );
            }
            let mut caches: Vec<Vec<DataId>> = vec![Vec::new(); hosts.len()];
            for round in 0..4u64 {
                for (h, host) in hosts.iter().enumerate() {
                    let reply = ds.sync(*host, &caches[h], round * SEC);
                    let mut cache: BTreeSet<DataId> = reply.keep.iter().copied().collect();
                    cache.extend(reply.download.iter().map(|(d, _)| d.id));
                    caches[h] = cache.into_iter().collect();
                }
            }
            data.iter().map(|d| ds.owners_of(d.id)).collect()
        };

        assert_eq!(run(1), run(4));
    }

    #[test]
    fn cross_shard_affinity_resolves_in_one_sync() {
        // Find an anchor/follower pair living on different shards, then
        // check the follower lands with the anchor in the same fan-out.
        let mut f = Fixture::new(13);
        let ds = sharded(4, 64);
        let (anchor, follower) = loop {
            let a = f.datum("anchor");
            let b = f.datum("follower");
            if ds.router().shard_of(a.id) != ds.router().shard_of(b.id) {
                break (a, b);
            }
        };
        ds.schedule(anchor.clone(), DataAttributes::default().with_replica(1));
        ds.schedule(
            follower.clone(),
            DataAttributes::default().with_affinity(anchor.id),
        );
        let host = f.id();
        let got = ids(&ds.sync(host, &[], 0));
        let mut want = vec![anchor.id, follower.id];
        want.sort();
        assert_eq!(got, want, "follower crossed the shard boundary");
    }

    #[test]
    fn global_budget_caps_downloads_across_shards() {
        let mut f = Fixture::new(17);
        let ds = sharded(4, 5);
        for i in 0..20 {
            ds.schedule(f.datum(&format!("d{i}")), DataAttributes::default());
        }
        let host = f.id();
        let r1 = ds.sync(host, &[], 0);
        assert_eq!(r1.download.len(), 5, "global MaxDataSchedule respected");
        let cache = ids(&r1);
        let r2 = ds.sync(host, &cache, SEC);
        assert_eq!(r2.download.len(), 5, "next sync fetches the next slice");
    }

    #[test]
    fn cross_shard_relative_lifetime_cascades() {
        let mut f = Fixture::new(19);
        let ds = sharded(4, 64);
        let (anchor, dependent) = loop {
            let a = f.datum("anchor");
            let b = f.datum("dependent");
            if ds.router().shard_of(a.id) != ds.router().shard_of(b.id) {
                break (a, b);
            }
        };
        ds.schedule(anchor.clone(), DataAttributes::default());
        ds.schedule(
            dependent.clone(),
            DataAttributes::default().with_lifetime(Lifetime::RelativeTo(anchor.id)),
        );
        let host = f.id();
        let r = ds.sync(host, &[], 0);
        assert_eq!(r.download.len(), 2);
        // Deleting the anchor obsoletes the dependent on its other shard.
        ds.delete_data(anchor.id);
        assert!(!ds.is_managed(dependent.id), "cascade crossed shards");
        let r2 = ds.sync(host, &[anchor.id, dependent.id], SEC);
        let mut gone = r2.delete.clone();
        gone.sort();
        let mut want = vec![anchor.id, dependent.id];
        want.sort();
        assert_eq!(gone, want);
    }

    #[test]
    fn reschedule_after_delete_drops_stale_dependency_edge() {
        // delete(d) then re-schedule(d, Unbounded) must not leave an edge
        // under d's old reference: deleting that reference later must not
        // take the re-scheduled datum with it.
        let mut f = Fixture::new(41);
        let ds = sharded(4, 64);
        let anchor = f.datum("anchor");
        let d = f.datum("reborn");
        ds.schedule(anchor.clone(), DataAttributes::default());
        ds.schedule(
            d.clone(),
            DataAttributes::default().with_lifetime(Lifetime::RelativeTo(anchor.id)),
        );
        ds.delete_data(d.id);
        assert!(!ds.is_managed(d.id));
        ds.schedule(d.clone(), DataAttributes::default());
        assert!(ds.is_managed(d.id));
        ds.delete_data(anchor.id);
        assert!(
            ds.is_managed(d.id),
            "unbounded incarnation survives its old anchor's deletion"
        );
    }

    #[test]
    fn same_batch_dependency_survives_shard_reordering() {
        // A dependent and its reference scheduled in ONE batch, with the
        // dependent living on a lower-numbered shard: the dead-on-arrival
        // decision must follow input order, not shard order.
        let mut f = Fixture::new(47);
        let ds = sharded(4, 64);
        let (reference, dependent) = loop {
            let r = f.datum("batch-ref");
            let d = f.datum("batch-dep");
            if ds.router().shard_of(d.id) < ds.router().shard_of(r.id) {
                break (r, d);
            }
        };
        ds.schedule_many([
            (reference.clone(), DataAttributes::default()),
            (
                dependent.clone(),
                DataAttributes::default().with_lifetime(Lifetime::RelativeTo(reference.id)),
            ),
        ]);
        assert!(ds.is_managed(reference.id));
        assert!(
            ds.is_managed(dependent.id),
            "same-batch dependent must not be declared dead on arrival"
        );
        let host = f.id();
        assert_eq!(ds.sync(host, &[], 0).download.len(), 2);
    }

    #[test]
    fn dead_on_arrival_reference_expires_on_the_sharded_plane() {
        let mut f = Fixture::new(43);
        let ds = sharded(4, 64);
        let ghost = f.id();
        let orphan = f.datum("orphan");
        ds.schedule(
            orphan.clone(),
            DataAttributes::default().with_lifetime(Lifetime::RelativeTo(ghost)),
        );
        assert!(!ds.is_managed(orphan.id), "dead on arrival across shards");
        let host = f.id();
        assert!(ds.sync(host, &[], 0).download.is_empty());
        assert_eq!(ds.managed_count(), 0);
    }

    #[test]
    fn expiry_on_one_shard_cascades_to_dependents_elsewhere() {
        let mut f = Fixture::new(23);
        let ds = sharded(4, 64);
        let (anchor, dependent) = loop {
            let a = f.datum("ttl-anchor");
            let b = f.datum("ttl-dependent");
            if ds.router().shard_of(a.id) != ds.router().shard_of(b.id) {
                break (a, b);
            }
        };
        ds.schedule(
            anchor.clone(),
            DataAttributes::default().with_lifetime(Lifetime::Absolute(2 * SEC)),
        );
        ds.schedule(
            dependent.clone(),
            DataAttributes::default().with_lifetime(Lifetime::RelativeTo(anchor.id)),
        );
        let host = f.id();
        assert_eq!(ds.sync(host, &[], 0).download.len(), 2);
        // Past the anchor's deadline the sweep fires on the anchor's shard
        // and the dependent leaves management on its own shard too.
        let r = ds.sync(host, &[anchor.id, dependent.id], 5 * SEC);
        assert!(r.delete.contains(&anchor.id));
        assert!(!ds.is_managed(anchor.id));
        assert!(!ds.is_managed(dependent.id));
        // The dependent's cached copy is purged in the same sync when its
        // shard validates after the anchor's, and one sync later otherwise
        // — the same one-sync lag the monolithic sweep had.
        let r2 = ds.sync(host, &r.keep, 6 * SEC);
        assert!(r.delete.contains(&dependent.id) || r2.delete.contains(&dependent.id));
        assert!(r2.keep.is_empty());
    }

    #[test]
    fn failure_detection_spans_shards() {
        let mut f = Fixture::new(29);
        let ds = sharded(4, 64);
        // Enough data that (with overwhelming probability) several shards
        // are populated.
        for i in 0..16 {
            ds.schedule(
                f.datum(&format!("ft{i}")),
                DataAttributes::default()
                    .with_replica(1)
                    .with_fault_tolerance(true),
            );
        }
        let h1 = f.id();
        let r = ds.sync(h1, &[], 0);
        let cache = ids(&r);
        ds.sync(h1, &cache, SEC);
        let dead = ds.detect_failures(SEC + 4 * SEC);
        assert_eq!(dead, vec![h1], "declared dead exactly once");
        for d in &cache {
            assert!(ds.owners_of(*d).is_empty(), "ft owners evicted everywhere");
        }
    }

    #[test]
    fn replica_all_spreads_regardless_of_shard() {
        let mut f = Fixture::new(31);
        let ds = sharded(8, 64);
        let d = f.datum("everywhere");
        ds.schedule(
            d.clone(),
            DataAttributes::default().with_replica(REPLICA_ALL),
        );
        for _ in 0..6 {
            let h = f.id();
            assert_eq!(ids(&ds.sync(h, &[], 0)), vec![d.id]);
        }
        assert_eq!(ds.owners_of(d.id).len(), 6);
    }

    #[test]
    fn chunk_repair_flows_through_the_sharded_plane() {
        let mut f = Fixture::new(53);
        let ds = sharded(4, 64);
        let d = f.datum("sharded-chunks");
        ds.schedule(d.clone(), DataAttributes::default().with_replica(1));
        ds.set_chunk_total(d.id, 6);
        assert_eq!(ds.chunk_total(d.id), Some(6));
        let h = f.id();
        assert_eq!(ids(&ds.sync(h, &[], 0)), vec![d.id]);
        ds.report_chunks(h, d.id, 6);
        assert_eq!(ds.owners_of(d.id), vec![h]);
        // Partial loss → repair order through the fan-out sync, no delete,
        // no duplicate download.
        ds.report_chunks(h, d.id, 4);
        assert_eq!(ds.partial_holders(d.id), vec![(h, 4)]);
        let r = ds.sync(h, &[d.id], SEC);
        assert!(r.keep.is_empty() && r.delete.is_empty());
        assert_eq!(r.repair.len(), 1);
        assert_eq!(r.repair[0].0.id, d.id);
        assert!(r.download.is_empty());
        // Repair completes → ownership restored.
        ds.report_chunks(h, d.id, 6);
        assert_eq!(ds.owners_of(d.id), vec![h]);
        assert_eq!(ds.sync(h, &[d.id], 2 * SEC).keep, vec![d.id]);
    }

    /// Everything the two planes of a differential run must agree on after
    /// an operation: Θ membership, Ω and the partial-holder records of
    /// every pool datum, and the hosts believed alive.
    #[allow(clippy::type_complexity)]
    fn observable(
        ds: &ShardedScheduler,
        pool: &[Data],
    ) -> (
        usize,
        Vec<HostUid>,
        Vec<(bool, Vec<HostUid>, Vec<(HostUid, Vec<u32>)>)>,
    ) {
        (
            ds.managed_count(),
            ds.known_hosts(),
            pool.iter()
                .map(|d| {
                    (
                        ds.is_managed(d.id),
                        ds.owners_of(d.id),
                        ds.partial_chunk_sets(d.id),
                    )
                })
                .collect(),
        )
    }

    /// Drive the indexed plane and the whole-Θ oracle plane through one
    /// seeded operation sequence, holding them to equal replies (contents
    /// and order), equal work profiles and equal observable state after
    /// every operation, and the indexed plane's indexes to their
    /// definitions.
    fn run_differential(seed: u64, shards: usize) {
        use rand::Rng;
        const POOL: usize = 12;
        const HOSTS: usize = 4;
        const OPS: usize = 160;
        let mut rng = SmallRng::seed_from_u64(seed);
        let cap = rng.gen_range(1usize..6);
        let indexed = ShardedScheduler::new(nz(shards), 3 * SEC, cap);
        let oracle = ShardedScheduler::new_oracle(nz(shards), 3 * SEC, cap);
        let pool: Vec<Data> = (0..POOL)
            .map(|i| Data::slot(Auid::generate(1, &mut rng), format!("p{i}"), 64))
            .collect();
        let hosts: Vec<HostUid> = (0..HOSTS).map(|_| Auid::generate(2, &mut rng)).collect();
        let mut caches: Vec<BTreeSet<DataId>> = vec![BTreeSet::new(); HOSTS];
        let mut now = 0u64;

        for step in 0..OPS {
            now += rng.gen_range(0..SEC);
            let d = pool[rng.gen_range(0..POOL)].clone();
            let other = pool[rng.gen_range(0..POOL)].id;
            let h = rng.gen_range(0..HOSTS);
            let host = hosts[h];
            let op = rng.gen_range(0u32..20);
            let what = match op {
                0..=4 => {
                    let mut attrs = DataAttributes::default()
                        .with_replica(rng.gen_range(-1i64..4))
                        .with_fault_tolerance(rng.gen());
                    // Affinity chains, in both id orders and onto unmanaged
                    // or self targets.
                    if rng.gen_range(0..3) == 0 {
                        attrs = attrs.with_affinity(other);
                    }
                    attrs = match rng.gen_range(0..6) {
                        0 => {
                            attrs.with_lifetime(Lifetime::Absolute(now + rng.gen_range(0..4 * SEC)))
                        }
                        1 => attrs
                            .with_lifetime(Lifetime::RelativeTo(pool[rng.gen_range(0..POOL)].id)),
                        _ => attrs,
                    };
                    indexed.schedule(d.clone(), attrs.clone());
                    oracle.schedule(d.clone(), attrs.clone());
                    format!("schedule {} {attrs:?}", d.name)
                }
                5 => {
                    indexed.pin(d.id, host);
                    oracle.pin(d.id, host);
                    format!("pin {} on host {h}", d.name)
                }
                6 => {
                    indexed.delete_data(d.id);
                    oracle.delete_data(d.id);
                    format!("delete {}", d.name)
                }
                7 => {
                    let total = rng.gen_range(1u32..4);
                    indexed.set_chunk_total(d.id, total);
                    oracle.set_chunk_total(d.id, total);
                    format!("chunk total {} = {total}", d.name)
                }
                8 | 9 => {
                    let held: Vec<u32> = (0..3).filter(|_| rng.gen()).collect();
                    indexed.report_chunk_set(host, d.id, &held);
                    oracle.report_chunk_set(host, d.id, &held);
                    format!("host {h} reports chunks {held:?} of {}", d.name)
                }
                10 => {
                    let (a, b) = (
                        indexed.announce_owner(host, d.id),
                        oracle.announce_owner(host, d.id),
                    );
                    assert_eq!(a, b, "seed {seed} step {step}: announce_owner");
                    format!("host {h} announces {}", d.name)
                }
                11 => {
                    let (a, b) = (
                        indexed.drop_host_holding(host, d.id),
                        oracle.drop_host_holding(host, d.id),
                    );
                    assert_eq!(a, b, "seed {seed} step {step}: drop_host_holding");
                    format!("host {h}'s claim on {} lapses", d.name)
                }
                12 => {
                    now += rng.gen_range(0..3 * SEC);
                    let (a, b) = (indexed.detect_failures(now), oracle.detect_failures(now));
                    assert_eq!(a, b, "seed {seed} step {step}: detect_failures");
                    format!("detect failures → {} dead", a.len())
                }
                _ => {
                    // The host presents its model cache, perturbed: some
                    // entries purged, some it was never sent (possibly
                    // unmanaged, possibly repeated).
                    let mut delta: Vec<DataId> = caches[h]
                        .iter()
                        .copied()
                        .filter(|_| rng.gen_range(0..5) != 0)
                        .collect();
                    for _ in 0..rng.gen_range(0..3) {
                        delta.push(pool[rng.gen_range(0..POOL)].id);
                    }
                    let role = if rng.gen_range(0..4) == 0 {
                        SyncRole::Client
                    } else {
                        SyncRole::Reservoir
                    };
                    let a = indexed.sync_profiled(host, &delta, now, role);
                    let b = oracle.sync_profiled(host, &delta, now, role);
                    assert_eq!(
                        a, b,
                        "seed {seed} step {step}: sync of host {h}, Δk {delta:?}"
                    );
                    let reply = a.0;
                    caches[h] = reply
                        .keep
                        .iter()
                        .copied()
                        .chain(reply.download.iter().map(|(d, _)| d.id))
                        .chain(reply.repair.iter().map(|(d, _)| d.id))
                        .collect();
                    format!("sync host {h} as {role:?}")
                }
            };
            assert_eq!(
                observable(&indexed, &pool),
                observable(&oracle, &pool),
                "seed {seed} step {step}: state after `{what}`"
            );
            for shard in &indexed.shards {
                if let Err(e) = shard.lock().check_indexes() {
                    panic!("seed {seed} step {step}: after `{what}`: {e}");
                }
            }
        }
    }

    proptest! {
        #[test]
        fn indexed_sync_matches_the_whole_theta_oracle(seed in any::<u64>()) {
            run_differential(seed, 1);
            run_differential(seed, 4);
        }
    }

    #[test]
    fn plane_catalog_routes_and_merges_search() {
        let plane = ShardedPlane::new(nz(4), 3 * SEC, 64, |_| {
            let driver = Arc::new(EmbeddedDriver::new(DewDb::in_memory()));
            DbAccess::Pooled(ConnectionPool::new(driver, 2))
        });
        let mut f = Fixture::new(37);
        let data: Vec<Data> = (0..16).map(|_| f.datum("same-name")).collect();
        for d in &data {
            plane.register(d).unwrap();
        }
        assert_eq!(plane.registrations(), 16);
        // Shards really are used: at least two catalogs hold something.
        let used = (0..16)
            .map(|i| plane.router().shard_of(data[i].id))
            .collect::<HashSet<_>>();
        assert!(used.len() > 1, "ids all hashed to one shard");
        // Fan-out search finds every instance, sorted by id.
        let hits = plane.search("same-name").unwrap();
        assert_eq!(hits.len(), 16);
        assert!(hits.windows(2).all(|w| w[0].id < w[1].id));
        // Id-keyed paths route to the owning shard.
        for d in &data {
            assert_eq!(plane.get(d.id).unwrap().as_ref(), Some(d));
        }
        assert!(plane.delete_catalog(data[0].id).unwrap());
        assert_eq!(plane.get(data[0].id).unwrap(), None);
        assert_eq!(plane.search("same-name").unwrap().len(), 15);
    }

    fn version_plane() -> ShardedPlane {
        ShardedPlane::new(nz(2), 3 * SEC, 64, |_| {
            let driver = Arc::new(EmbeddedDriver::new(DewDb::in_memory()));
            DbAccess::Pooled(ConnectionPool::new(driver, 2))
        })
    }

    fn delta_row(
        base: &crate::chunks::ChunkManifest,
        parent: u64,
        idxs: &[u32],
    ) -> VersionedManifest {
        VersionedManifest {
            data: base.data,
            version: parent + 1,
            parent,
            chunk_size: base.chunk_size,
            total: base.total,
            changed: idxs.iter().map(|&i| base.chunks[i as usize]).collect(),
        }
    }

    #[test]
    fn plane_version_cas_commits_rebases_and_conflicts() {
        let plane = version_plane();
        let mut f = Fixture::new(91);
        let d = f.datum("mvcc");
        plane.register(&d).unwrap();
        assert_eq!(plane.version_head(d.id).unwrap(), 0, "no manifest yet");
        let base = crate::chunks::ChunkManifest::describe(d.id, 64, &vec![9u8; 512]);
        plane.put_manifest(&base).unwrap();
        assert_eq!(plane.version_head(d.id).unwrap(), 1);
        // Fast path: commit against the head.
        let v2 = plane
            .publish_version(&delta_row(&base, 1, &[0, 1]))
            .unwrap();
        assert_eq!((v2.version, v2.parent), (2, 1));
        // Auto-rebase: a second writer still based on 1, touching only
        // chunks untouched since, lands as version 3 with parent 2.
        let v3 = plane.publish_version(&delta_row(&base, 1, &[5])).unwrap();
        assert_eq!((v3.version, v3.parent), (3, 2));
        // Overlap: a third writer based on 1 touching chunk 1 conflicts.
        let err = plane
            .publish_version(&delta_row(&base, 1, &[1, 6]))
            .unwrap_err();
        assert!(matches!(
            err,
            crate::BitdewError::VersionConflict {
                head: 3,
                attempted: 1
            }
        ));
        assert!(err.is_retryable());
        // Retried against the head it lands.
        let v4 = plane
            .publish_version(&delta_row(&base, 3, &[1, 6]))
            .unwrap();
        assert_eq!((v4.version, v4.parent), (4, 3));
        assert_eq!(plane.version_head(d.id).unwrap(), 4);
        // The chain persisted linearly and resolution stamps births.
        let rows = plane.catalog_for(d.id).versions(d.id).unwrap();
        assert_eq!(
            rows.iter().map(|r| r.version).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        let head = plane.resolve_versions(d.id, &[4]).unwrap().remove(0);
        assert_eq!(head.birth_of(0), Some(2));
        assert_eq!(head.birth_of(1), Some(4));
        assert_eq!(head.birth_of(5), Some(3));
        assert_eq!(head.birth_of(7), Some(1));
        // The materialized head manifest matches the resolution.
        let m = plane.materialized_manifest(d.id).unwrap().unwrap();
        assert_eq!(m.chunks, head.to_manifest().chunks);
        // Deleting the datum forgets plane-side version state.
        plane.delete_catalog(d.id).unwrap();
        assert_eq!(plane.version_head(d.id).unwrap(), 0);
    }

    #[test]
    fn plane_version_head_cold_loads_from_catalog() {
        let plane = version_plane();
        let mut f = Fixture::new(92);
        let d = f.datum("reload");
        plane.register(&d).unwrap();
        let base = crate::chunks::ChunkManifest::describe(d.id, 64, &vec![4u8; 256]);
        plane.put_manifest(&base).unwrap();
        plane.publish_version(&delta_row(&base, 1, &[2])).unwrap();
        // A fresh VersionState (simulating service restart on the same
        // databases) must rediscover head 2 from the dc_version scan.
        plane.version_state().forget(d.id);
        assert_eq!(plane.version_head(d.id).unwrap(), 2);
    }

    #[test]
    fn undecodable_catalog_rows_fail_the_cold_load() {
        let driver = Arc::new(EmbeddedDriver::new(DewDb::in_memory()));
        let fresh_plane = || {
            ShardedPlane::new(nz(1), 3 * SEC, 64, |_| {
                DbAccess::Pooled(ConnectionPool::new(driver.clone(), 2))
            })
        };
        let plane = fresh_plane();
        let mut f = Fixture::new(94);
        let d = f.datum("corrupt");
        plane.register(&d).unwrap();
        let base = crate::chunks::ChunkManifest::describe(d.id, 64, &vec![5u8; 256]);
        plane.put_manifest(&base).unwrap();
        for (parent, chunk) in [(1, 0), (2, 1), (3, 2)] {
            plane
                .publish_version(&delta_row(&base, parent, &[chunk]))
                .unwrap();
        }
        let garbage = b"not a catalog row";
        // Version 3 sits between the valid rows 2 and 4: skipping it
        // would resolve a head with chunk 1's digest missing.
        let key = crate::services::catalog::version_key(d.id, 3);
        driver.db().lock().put("dc_version", &key, garbage).unwrap();
        assert!(fresh_plane().head(d.id).is_err(), "a hole in the chain");
        // An undecodable manifest is an error, not "never chunked".
        let key = d.id.0.to_le_bytes();
        driver
            .db()
            .lock()
            .put("dc_manifest", &key, garbage)
            .unwrap();
        assert!(fresh_plane().version_head(d.id).is_err());
        assert!(fresh_plane().manifest(d.id).is_err());
    }

    #[test]
    fn plane_version_cas_is_linear_under_contention() {
        let plane = Arc::new(version_plane());
        let mut f = Fixture::new(93);
        let d = f.datum("contended");
        plane.register(&d).unwrap();
        // 8 chunks, 4 writers each owning two disjoint chunks; every
        // writer commits 5 times from whatever base it last saw.
        let base = crate::chunks::ChunkManifest::describe(d.id, 64, &vec![1u8; 512]);
        plane.put_manifest(&base).unwrap();
        let mut threads = Vec::new();
        for w in 0..4u32 {
            let plane = Arc::clone(&plane);
            let base = base.clone();
            threads.push(std::thread::spawn(move || {
                let mut parent = 1u64;
                for _ in 0..5 {
                    loop {
                        match plane.publish_version(&delta_row(&base, parent, &[2 * w, 2 * w + 1]))
                        {
                            Ok(row) => {
                                parent = row.version;
                                break;
                            }
                            Err(crate::BitdewError::VersionConflict { head, .. }) => {
                                // Cannot happen for disjoint writers, but a
                                // retry from the head would be the protocol.
                                parent = head;
                            }
                            Err(e) => panic!("unexpected: {e}"),
                        }
                    }
                }
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        // 20 commits → head 21, chain strictly linear.
        assert_eq!(plane.version_head(d.id).unwrap(), 21);
        let rows = plane.catalog_for(d.id).versions(d.id).unwrap();
        assert_eq!(
            rows.iter().map(|r| r.version).collect::<Vec<_>>(),
            (2..=21).collect::<Vec<u64>>()
        );
        assert!(rows.windows(2).all(|w| w[1].parent == w[0].version));
    }
}
