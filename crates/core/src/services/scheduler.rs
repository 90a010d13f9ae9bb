//! The Data Scheduler (DS) service — Algorithm 1 of the paper.
//!
//! "The role of the DS service is to generate transfer orders according to
//! the hosts' activity and data attributes" (§3.4.3). Reservoir hosts
//! periodically synchronize, presenting their cache Δk; the scheduler
//! returns the new cache Ψk. The host then deletes `Δk \ Ψk`, keeps
//! `Δk ∩ Ψk`, and downloads `Ψk \ Δk`.
//!
//! This implements Algorithm 1 with the paper's semantics:
//!
//! * **Step 1** (cache validation): keep cached data that are still managed
//!   (`∈ Θ`), whose absolute lifetime has not passed, and whose relative
//!   lifetime reference still exists; refresh the owner set Ω for kept data.
//! * **Step 2** (new assignments): first resolve affinity dependencies
//!   (placement follows data already in the cache — and affinity "is
//!   stronger than replica", §3.2), then fill missing replicas
//!   (`replica = −1` means every host), stopping once `|Ψk \ Δk|` reaches
//!   `MaxDataSchedule`.
//!
//!   (The paper's line 21 reads `Dj.replica < |Ω(Dj)|`, which would stop
//!   replicating as soon as the first owner appears; from the surrounding
//!   prose — "the runtime environment will schedule new data transfers to
//!   hosts if the number of owners is less than the number of replica" —
//!   the intended test is `|Ω(Dj)| < Dj.replica`, which is what we
//!   implement.)
//!
//! Fault tolerance (§3.4.3 last paragraph): owner liveness is tracked by
//! heartbeat timeouts (3 × the heartbeat period in §4.4). When an owner of
//! *fault-tolerant* data dies it is removed from Ω, so the next synchronizing
//! host picks the replica up; owners of non-fault-tolerant data stay listed
//! ("the replica will be unavailable as long as the host is down").
//!
//! # Indexes
//!
//! Every reservoir calls [`DataScheduler::sync`] on every heartbeat, so a
//! synchronization must cost O(|Δk| + assignments), not O(|Θ|). Three
//! indexes, each maintained at the single points where Θ, Ω or the
//! attributes mutate, answer what the algorithm would otherwise find by
//! scanning Θ or Ω (the literal scans survive as the test-only oracle in
//! `scheduler_oracle.rs`, which the differential proptest in `shard.rs`
//! holds this implementation to, reply for reply):
//!
//! * **`owned`** — reverse Ω: `d ∈ owned[h]  ⇔  h ∈ Ω(d)`, each list
//!   ascending. A host gets an entry when it first owns something — not
//!   when it first synchronizes — and keeps it, possibly empty, until it
//!   is declared dead owning nothing: a host whose download is in flight
//!   and not reported (the simulator reports completed downloads only;
//!   the threaded runtime reports in-flight ones too) leaves and re-enters
//!   Ω on every heartbeat, and must not pay for an entry each time. Step
//!   1's reconciliation and the failure detector's per-host eviction walk
//!   `owned[h]` only. Pins need no reverse map:
//!   both walks test the forward `pinned[d]`.
//! * **`open`** — the affinity-free data whose demand is unmet:
//!   `d ∈ open  ⇔  d ∈ Θ ∧ affinity(d) = ∅ ∧ (replica(d) = −1 ∨
//!   |Ω(d)| < replica(d))`, ordered by id. Step 2's replica pass walks
//!   `open ∖ holds`.
//! * **`followers`** — reverse affinity: `f ∈ followers[t]  ⇔  f ∈ Θ ∧
//!   affinity(f) = t`, with no empty sets; `t` itself need not be managed
//!   here (or anywhere). Step 2's affinity pass walks the followers of
//!   what the host holds and of what this synchronization assigns.
//!
//! [`DataScheduler::theta_visits`] counts the Θ entries a synchronization
//! examines, which pins the cost model in tests.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use bitdew_util::{Auid, IdMap};

use crate::attr::{DataAttributes, Lifetime};
use crate::data::{Data, DataId};

/// Identity of a reservoir/client host in the BitDew layer.
pub type HostUid = Auid;

/// How a synchronizing host participates in placement. The architecture
/// splits volatile nodes into *clients* (ask for storage) and *reservoirs*
/// (offer their local storage) — §3.1. Replica-driven placement only targets
/// reservoirs; affinity-driven placement follows data wherever they are
/// (results still flow to a client that pins the Collector).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncRole {
    /// Offers storage: receives replica- and affinity-driven assignments.
    Reservoir,
    /// Consumes storage: receives only affinity-driven assignments.
    Client,
}

/// A datum under management, with its attribute set.
#[derive(Debug, Clone)]
pub struct ScheduledData {
    /// The datum.
    pub data: Data,
    /// Its driving attributes.
    pub attrs: DataAttributes,
}

/// Reply to a reservoir synchronization: the new cache Ψk, split the way the
/// host consumes it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SyncReply {
    /// Δk ∩ Ψk — cached data the host keeps.
    pub keep: Vec<DataId>,
    /// Δk \ Ψk — obsolete data the host can safely delete.
    pub delete: Vec<DataId>,
    /// Ψk \ Δk — new data the host must download.
    pub download: Vec<(Data, DataAttributes)>,
    /// Cached data the host holds only partially (some chunks missing): it
    /// keeps the verified chunks and re-fetches the rest — chunk-level
    /// repair instead of delete + whole-blob re-download.
    pub repair: Vec<(Data, DataAttributes)>,
}

/// Result of Algorithm 1's step 1 ([`DataScheduler::validate_cache`]): the
/// host-facing keep/delete split plus the data the expiry sweep removed from
/// management (a sharded plane uses the latter to propagate lifetime
/// cascades across shards).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheValidation {
    /// Cached data the host keeps.
    pub keep: Vec<DataId>,
    /// Obsolete cached data the host deletes.
    pub delete: Vec<DataId>,
    /// Data that left Θ during this validation's expiry sweep (including
    /// relative-lifetime dependents removed by the cascade).
    pub expired: Vec<DataId>,
    /// Cached data the host reported holding only partially (chunk-level
    /// repair candidates: still managed and alive, but not ownership).
    pub repair: Vec<DataId>,
}

/// Oracle answering "is this datum still managed somewhere?" for lifetime
/// checks. `None` means "consult this scheduler's own Θ" (the unsharded
/// deployment); a sharded plane passes a closure over its global live set so
/// relative lifetimes resolve across shard boundaries.
pub type AliveOracle<'a> = Option<&'a dyn Fn(DataId) -> bool>;

/// The Data Scheduler state machine. Pure: time comes in through arguments,
/// so the same code runs under the threaded clock and the simulator.
pub struct DataScheduler {
    /// Θ — managed data.
    theta: BTreeMap<DataId, ScheduledData>,
    /// Ω — owner sets (hosts believed to hold each datum).
    owners: HashMap<DataId, BTreeSet<HostUid>>,
    /// Pinned owners: host-declared ownership exempt from heartbeat eviction
    /// (`ActiveData::pin`, §3.3).
    pinned: HashMap<DataId, BTreeSet<HostUid>>,
    /// Last synchronization instant per host (nanos). Written on every
    /// heartbeat, so hashed by [`IdMap`]'s fast keyed hasher.
    last_seen: IdMap<HostUid, u64>,
    /// Failure detection timeout (nanos) — 3 × heartbeat period in §4.4.
    timeout: u64,
    /// Cap on |Ψk \ Δk| per synchronization.
    max_data_schedule: usize,
    /// Absolute-lifetime deadline index: `(deadline, id)` ordered by
    /// deadline, so the expiry sweep visits only actually-expired data
    /// instead of walking all of Θ on every synchronization.
    expiries: BTreeSet<(u64, DataId)>,
    /// Reverse relative-lifetime dependencies: reference → dependents
    /// managed *by this scheduler*. Deleting (or expiring) the reference
    /// cascades to the dependents immediately.
    rdeps: HashMap<DataId, BTreeSet<DataId>>,
    /// How many Θ entries expiry sweeps have visited (each visit is an
    /// actual expiry — the sweep never touches live data).
    sweep_visits: u64,
    /// Chunk counts of manifest-backed data: ownership of these is
    /// chunk-aware (a host joins Ω only once it holds every chunk).
    chunk_totals: HashMap<DataId, u32>,
    /// Partial holders: hosts that reported holding some but not all chunks
    /// of a datum, with the exact held chunk indices. Kept out of Ω and
    /// sent repair orders instead of deletes — but *schedulable*: the
    /// compute plane reads these sets through
    /// [`DataScheduler::partial_chunk_sets`] to run a restricted
    /// [`MapOp`](crate::compute::MapOp) over exactly the chunks a partial
    /// holder actually has, and affinity followers (a compute order with
    /// `affinity = data`) reach partial holders because `sync_as` counts
    /// repair targets as held.
    partials: HashMap<DataId, HashMap<HostUid, BTreeSet<u32>>>,
    /// Reverse Ω (see the module docs' *Indexes*): host → the data it
    /// owns, ascending.
    owned: HashMap<HostUid, Vec<DataId>>,
    /// Affinity-free managed data whose replica demand is unmet, by id.
    open: BTreeSet<DataId>,
    /// Reverse affinity: target → managed data that follow it.
    followers: HashMap<DataId, BTreeSet<DataId>>,
    /// How many Θ entries synchronizations have examined (cache-slice
    /// validations plus step-2 candidates).
    theta_visits: u64,
    /// Run the retained whole-Θ transcription instead of the indexes.
    #[cfg(test)]
    oracle: bool,
}

/// The `open` predicate: an affinity-free datum that wants a replica on
/// every host, or more owners than it has. (Affinity-carrying data place
/// only through their target.)
fn demand_unmet(attrs: &DataAttributes, owner_count: usize) -> bool {
    attrs.affinity.is_none()
        && (attrs.replicate_everywhere() || (owner_count as i64) < attrs.replica)
}

/// Under `debug_assertions` every mutating call re-derives the indexes and
/// compares, while Θ and the hosts with an `owned` entry are at most this
/// many each (the check walks all of Θ and Ω, so on larger states it would
/// make debug runs quadratic).
#[cfg(debug_assertions)]
const DEBUG_CHECK_MAX: usize = 32;

impl DataScheduler {
    /// Scheduler with the given failure-detection timeout and per-sync
    /// download cap.
    pub fn new(timeout_nanos: u64, max_data_schedule: usize) -> DataScheduler {
        DataScheduler {
            theta: BTreeMap::new(),
            owners: HashMap::new(),
            pinned: HashMap::new(),
            last_seen: IdMap::default(),
            timeout: timeout_nanos,
            max_data_schedule: max_data_schedule.max(1),
            expiries: BTreeSet::new(),
            rdeps: HashMap::new(),
            sweep_visits: 0,
            chunk_totals: HashMap::new(),
            partials: HashMap::new(),
            owned: HashMap::new(),
            open: BTreeSet::new(),
            followers: HashMap::new(),
            theta_visits: 0,
            #[cfg(test)]
            oracle: false,
        }
    }

    /// Add `host` to Ω(`d`), keeping `owned` and `open` in step. Returns
    /// whether the host was new to the set.
    fn omega_insert(&mut self, d: DataId, host: HostUid) -> bool {
        let owners = self.owners.entry(d).or_default();
        if !owners.insert(host) {
            return false;
        }
        let owner_count = owners.len();
        let held = self.owned.entry(host).or_default();
        if let Err(at) = held.binary_search(&d) {
            held.insert(at, d);
        }
        self.refresh_open(d, owner_count);
        true
    }

    /// Remove `host` from Ω(`d`), keeping `owned` and `open` in step.
    /// Returns whether the host was in the set.
    fn omega_remove(&mut self, d: DataId, host: HostUid) -> bool {
        if !self.omega_unlist(d, host) {
            return false;
        }
        self.unlink_owned(host, d);
        true
    }

    /// The Ω and `open` half of [`Self::omega_remove`]: the caller drops
    /// `d` from `owned[host]` itself.
    fn omega_unlist(&mut self, d: DataId, host: HostUid) -> bool {
        let Some(owners) = self.owners.get_mut(&d) else {
            return false;
        };
        if !owners.remove(&host) {
            return false;
        }
        let owner_count = owners.len();
        self.refresh_open(d, owner_count);
        true
    }

    /// Drop `d` from `owned[host]`.
    fn unlink_owned(&mut self, host: HostUid, d: DataId) {
        if let Some(held) = self.owned.get_mut(&host) {
            if let Ok(at) = held.binary_search(&d) {
                held.remove(at);
            }
        }
    }

    /// Take `host` out of Ω(`d`) for every datum it owns that `evict`
    /// selects — one in-place pass over `owned[host]`.
    fn evict_owned(&mut self, host: HostUid, evict: impl Fn(&DataScheduler, DataId) -> bool) {
        let Some(slot) = self.owned.get_mut(&host) else {
            return;
        };
        let mut held = std::mem::take(slot);
        held.retain(|&d| !(evict(self, d) && self.omega_unlist(d, host)));
        if let Some(slot) = self.owned.get_mut(&host) {
            *slot = held;
        }
    }

    /// Re-derive `d`'s membership of `open` now that |Ω(`d`)| is
    /// `owner_count`.
    fn refresh_open(&mut self, d: DataId, owner_count: usize) {
        let unmet = self
            .theta
            .get(&d)
            .is_some_and(|sd| demand_unmet(&sd.attrs, owner_count));
        self.set_open(d, unmet);
    }

    /// Put `d` in `open` or take it out.
    fn set_open(&mut self, d: DataId, unmet: bool) {
        if unmet {
            self.open.insert(d);
        } else {
            self.open.remove(&d);
        }
    }

    /// Whether `host` pinned `d`.
    fn is_pinned(&self, d: DataId, host: HostUid) -> bool {
        self.pinned.get(&d).is_some_and(|p| p.contains(&host))
    }

    /// Whether `d` is managed and fault tolerant.
    fn is_fault_tolerant(&self, d: DataId) -> bool {
        self.theta.get(&d).is_some_and(|sd| sd.attrs.fault_tolerant)
    }

    /// Forget `host`'s partial holding of `d`. Returns whether it had one.
    fn clear_partial(&mut self, d: DataId, host: HostUid) -> bool {
        let Some(p) = self.partials.get_mut(&d) else {
            return false;
        };
        let had = p.remove(&host).is_some();
        if p.is_empty() {
            self.partials.remove(&d);
        }
        had
    }

    /// Record that `data` is chunked into `total` pieces (its manifest was
    /// published). From now on replica validation is chunk-aware for it.
    pub fn set_chunk_total(&mut self, data: DataId, total: u32) {
        self.chunk_totals.insert(data, total);
    }

    /// The registered chunk count of a datum, if its manifest is known.
    pub fn chunk_total(&self, data: DataId) -> Option<u32> {
        self.chunk_totals.get(&data).copied()
    }

    /// A host reports how many verified chunks of `data` it holds, as a
    /// *prefix count* (chunks `0..held`). Compatibility entry point over
    /// [`DataScheduler::report_chunk_set`] for callers that only track a
    /// count.
    pub fn report_chunks(&mut self, host: HostUid, data: DataId, held: u32) {
        let prefix: Vec<u32> = (0..held).collect();
        self.report_chunk_set(host, data, &prefix);
    }

    /// A host reports exactly which verified chunks of `data` it holds.
    /// Holding every chunk makes it a full owner (enters Ω); anything less
    /// records it as a partial holder — out of Ω, so replica counting
    /// still sees the replica as missing, and its next synchronization
    /// returns a repair order for the datum. The exact index set is kept
    /// so the compute plane can schedule chunk-restricted work on the
    /// holder (see [`DataScheduler::partial_chunk_sets`]).
    pub fn report_chunk_set(&mut self, host: HostUid, data: DataId, held: &[u32]) {
        // No manifest registered: chunk reports are meaningless.
        let Some(t) = self.chunk_totals.get(&data).copied() else {
            return;
        };
        let set: BTreeSet<u32> = held.iter().copied().filter(|&c| c < t).collect();
        if set.len() as u32 >= t {
            self.clear_partial(data, host);
            self.omega_insert(data, host);
        } else {
            self.partials.entry(data).or_default().insert(host, set);
            self.omega_remove(data, host);
        }
        self.debug_check();
    }

    /// Hosts currently recorded as partial holders of `data`, with their
    /// held chunk counts (sorted by host for determinism).
    pub fn partial_holders(&self, data: DataId) -> Vec<(HostUid, u32)> {
        let mut v: Vec<(HostUid, u32)> = self
            .partials
            .get(&data)
            .map(|m| m.iter().map(|(&h, s)| (h, s.len() as u32)).collect())
            .unwrap_or_default();
        v.sort();
        v
    }

    /// Hosts currently recorded as partial holders of `data`, with the
    /// exact chunk indices each holds (sorted by host for determinism).
    /// The compute plane partitions chunk-restricted MapOps over these
    /// sets, so a partial holder is schedulable for the chunks it actually
    /// has instead of being excluded from placement wholesale.
    pub fn partial_chunk_sets(&self, data: DataId) -> Vec<(HostUid, Vec<u32>)> {
        let mut v: Vec<(HostUid, Vec<u32>)> = self
            .partials
            .get(&data)
            .map(|m| {
                m.iter()
                    .map(|(&h, s)| (h, s.iter().copied().collect()))
                    .collect()
            })
            .unwrap_or_default();
        v.sort();
        v
    }

    /// The managed datum and its attributes, cloned (the sharded plane uses
    /// this to materialize cross-shard repair orders).
    pub fn entry_of(&self, id: DataId) -> Option<(Data, DataAttributes)> {
        self.theta
            .get(&id)
            .map(|sd| (sd.data.clone(), sd.attrs.clone()))
    }

    /// `ActiveData::schedule` — put a datum under management.
    ///
    /// A datum whose `RelativeTo` lifetime references a datum that is not
    /// currently managed is dead on arrival and expires immediately (the
    /// pre-index expiry sweep removed it at the next synchronization; the
    /// deadline index never scans relative lifetimes, so the check moved
    /// here).
    pub fn schedule(&mut self, data: Data, attrs: DataAttributes) {
        let id = data.id;
        let lt = attrs.lifetime;
        self.schedule_unchecked(data, attrs);
        if let Lifetime::RelativeTo(r) = lt {
            if !self.theta.contains_key(&r) {
                self.delete_data(id);
            }
        }
    }

    /// [`DataScheduler::schedule`] without the dead-on-arrival check on
    /// relative lifetimes — for a sharded plane, which resolves references
    /// against its global live set rather than this shard's Θ.
    pub fn schedule_unchecked(&mut self, data: Data, attrs: DataAttributes) {
        let id = data.id;
        let owner_count = self.owners.get(&id).map_or(0, BTreeSet::len);
        // Re-scheduling may change the lifetime or the affinity: drop stale
        // index entries before recording the new ones.
        self.unindex_attrs(id);
        match attrs.lifetime {
            Lifetime::Absolute(t) => {
                self.expiries.insert((t, id));
            }
            Lifetime::RelativeTo(r) => {
                self.rdeps.entry(r).or_default().insert(id);
            }
            Lifetime::Unbounded => {}
        }
        if let Some(target) = attrs.affinity {
            self.followers.entry(target).or_default().insert(id);
        }
        self.set_open(id, demand_unmet(&attrs, owner_count));
        self.theta.insert(id, ScheduledData { data, attrs });
        self.debug_check();
    }

    /// Remove the index entries derived from `id`'s attributes (deadline
    /// index, reverse-dep registration, follower edge), using the
    /// attributes currently recorded in Θ.
    fn unindex_attrs(&mut self, id: DataId) {
        let Some(sd) = self.theta.get(&id) else {
            return;
        };
        if let Some(target) = sd.attrs.affinity {
            if let Some(fs) = self.followers.get_mut(&target) {
                fs.remove(&id);
                if fs.is_empty() {
                    self.followers.remove(&target);
                }
            }
        }
        match sd.attrs.lifetime {
            Lifetime::Absolute(t) => {
                self.expiries.remove(&(t, id));
            }
            Lifetime::RelativeTo(r) => {
                if let Some(deps) = self.rdeps.get_mut(&r) {
                    deps.remove(&id);
                    if deps.is_empty() {
                        self.rdeps.remove(&r);
                    }
                }
            }
            Lifetime::Unbounded => {}
        }
    }

    /// `ActiveData::pin` — declare that `host` owns `data` (e.g. the master
    /// pinning the Collector, §5). Pinned owners are never evicted by the
    /// failure detector.
    pub fn pin(&mut self, data: DataId, host: HostUid) {
        self.pinned.entry(data).or_default().insert(host);
        self.omega_insert(data, host);
        self.debug_check();
    }

    /// Remove a datum from management, cascading to its relative-lifetime
    /// dependents (which become obsolete with it). Owners purge their cached
    /// copies on their next synchronization. Returns every id that left Θ —
    /// a sharded plane uses the list to propagate the cascade to dependents
    /// living on other shards.
    pub fn delete_data(&mut self, id: DataId) -> Vec<DataId> {
        let mut removed = Vec::new();
        let mut stack = vec![id];
        while let Some(d) = stack.pop() {
            self.unindex_attrs(d);
            if self.theta.remove(&d).is_some() {
                removed.push(d);
            }
            self.open.remove(&d);
            for host in self.owners.remove(&d).unwrap_or_default() {
                self.unlink_owned(host, d);
            }
            self.pinned.remove(&d);
            self.chunk_totals.remove(&d);
            self.partials.remove(&d);
            if let Some(deps) = self.rdeps.remove(&d) {
                stack.extend(deps.into_iter().filter(|x| self.theta.contains_key(x)));
            }
        }
        self.debug_check();
        removed
    }

    /// Whether a datum is currently managed.
    pub fn is_managed(&self, id: DataId) -> bool {
        self.theta.contains_key(&id)
    }

    /// The managed data count |Θ|.
    pub fn managed_count(&self) -> usize {
        self.theta.len()
    }

    /// Current owner set Ω(d).
    pub fn owners_of(&self, d: DataId) -> Vec<HostUid> {
        self.owners
            .get(&d)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Hosts that have synchronized and not been declared dead.
    pub fn known_hosts(&self) -> Vec<HostUid> {
        let mut v: Vec<HostUid> = self.last_seen.keys().copied().collect();
        v.sort();
        v
    }

    /// Attribute lookup for a managed datum.
    pub fn attributes_of(&self, d: DataId) -> Option<&DataAttributes> {
        self.theta.get(&d).map(|s| &s.attrs)
    }

    /// The per-synchronization download cap this scheduler was built with.
    pub fn max_data_schedule(&self) -> usize {
        self.max_data_schedule
    }

    /// Total Θ entries expiry sweeps have visited. Every visit is an actual
    /// expiry: the deadline index means a sweep never examines live data, so
    /// this counter pins the sweep's cost model in tests.
    pub fn sweep_visits(&self) -> u64 {
        self.sweep_visits
    }

    /// Total Θ entries synchronizations have examined: one per distinct
    /// entry of a presented cache slice (step 1) plus one per step-2
    /// candidate — followers of held or newly assigned data, and open data
    /// the host does not hold. A steady-state synchronization with every
    /// replica floor met examines |Δk| entries whatever |Θ| is.
    pub fn theta_visits(&self) -> u64 {
        self.theta_visits
    }

    /// Entries currently in the absolute-deadline expiry index.
    pub fn expiry_index_len(&self) -> usize {
        self.expiries.len()
    }

    /// Whether `lt` still holds at `now`, resolving relative references
    /// through `ext` when provided (else through this scheduler's Θ).
    fn lifetime_live(&self, lt: Lifetime, now: u64, ext: AliveOracle<'_>) -> bool {
        let alive = |r: DataId| match ext {
            Some(f) => f(r),
            None => self.theta.contains_key(&r),
        };
        !lt.is_expired(now, alive)
    }

    /// Expiry sweep over the deadline index: remove from Θ every datum whose
    /// absolute lifetime lapsed before `now` (each removal cascades to
    /// relative-lifetime dependents). Only actually-expired entries are
    /// visited — O(expired · log |Θ|), not O(|Θ|). Returns everything that
    /// left Θ.
    fn sweep_expired(&mut self, now: u64) -> Vec<DataId> {
        let mut removed = Vec::new();
        while let Some(&(t, id)) = self.expiries.iter().next() {
            // Absolute lifetimes expire strictly after their deadline
            // (`now > t`), so an entry at exactly `now` stays.
            if t >= now {
                break;
            }
            self.sweep_visits += 1;
            // delete_data unindexes the entry we just looked at, so the
            // loop always makes progress.
            removed.extend(self.delete_data(id));
        }
        removed
    }

    /// Algorithm 1: synchronize reservoir `host` presenting cache `delta_k`.
    pub fn sync(&mut self, host: HostUid, delta_k: &[DataId], now: u64) -> SyncReply {
        self.sync_as(host, delta_k, now, SyncRole::Reservoir)
    }

    /// [`DataScheduler::sync`] with an explicit host role. Composes the two
    /// steps ([`DataScheduler::validate_cache`] then
    /// [`DataScheduler::assign_new`]) over this scheduler's whole Θ.
    pub fn sync_as(
        &mut self,
        host: HostUid,
        delta_k: &[DataId],
        now: u64,
        role: SyncRole,
    ) -> SyncReply {
        let v = self.validate_cache(host, delta_k, now, None);
        // Repair targets count as held: the host keeps its verified chunks,
        // so step 2 must not re-assign the datum as a fresh download.
        let holds: BTreeSet<DataId> = v.keep.iter().chain(v.repair.iter()).copied().collect();
        let download = self.assign_new(host, &holds, now, role, self.max_data_schedule, None);
        let repair = v
            .repair
            .iter()
            .filter_map(|id| self.entry_of(*id))
            .collect();
        SyncReply {
            keep: v.keep,
            delete: v.delete,
            download,
            repair,
        }
    }

    /// Algorithm 1, step 1: run the expiry sweep, reconcile Ω with the
    /// host's report, and split the presented cache slice into keep/delete.
    /// `ext_alive` resolves relative-lifetime references that may be managed
    /// outside this scheduler (the sharded plane); `None` consults local Θ.
    pub fn validate_cache(
        &mut self,
        host: HostUid,
        delta_k: &[DataId],
        now: u64,
        ext_alive: AliveOracle<'_>,
    ) -> CacheValidation {
        #[cfg(test)]
        if self.oracle {
            return self.validate_cache_oracle(host, delta_k, now, ext_alive);
        }
        self.last_seen.insert(host, now);
        let mut delta: Vec<DataId> = delta_k.to_vec();
        delta.sort_unstable();
        delta.dedup();

        // Expiry sweep: lapsed data leave Θ entirely so step 2 can never
        // re-schedule them (their cache copies are then swept out by the
        // membership check below at each host's next sync).
        let expired = self.sweep_expired(now);

        // Reconcile Ω with the report: the host no longer holds data missing
        // from its cache (unless pinned). Step 2 may legitimately re-assign.
        self.evict_owned(host, |ds, d| {
            delta.binary_search(&d).is_err() && !ds.is_pinned(d, host)
        });

        let mut v = CacheValidation {
            expired,
            ..CacheValidation::default()
        };
        self.theta_visits += delta.len() as u64;
        for d in delta {
            let keep = match self.theta.get(&d) {
                None => false,
                Some(sd) => {
                    let lt = sd.attrs.lifetime;
                    self.lifetime_live(lt, now, ext_alive)
                }
            };
            if keep {
                // Chunk-aware ownership: a host recorded as a *partial*
                // holder keeps its verified chunks but is not an owner —
                // it gets a repair order instead, and Ω is not refreshed,
                // so replica counting still sees the replica as missing.
                let partial = self.partials.get(&d).is_some_and(|p| p.contains_key(&host));
                if partial {
                    v.repair.push(d);
                } else {
                    v.keep.push(d);
                    // Refresh Ω for kept data (the algorithm does so for
                    // fault-tolerant data; refreshing unconditionally is the
                    // same steady state since non-ft owner sets are only
                    // pruned by the report reconciliation above).
                    self.omega_insert(d, host);
                }
            } else {
                v.delete.push(d);
            }
        }
        self.debug_check();
        v
    }

    /// Algorithm 1, step 2: add new data to the host's cache. `holds` is
    /// everything the host already has after step 1 — across *all* shards
    /// when called by a sharded plane, so affinity targets resolve over the
    /// host's whole cache. At most `budget` new assignments are made
    /// (a sharded plane splits one global `MaxDataSchedule` across the
    /// per-shard calls).
    ///
    /// Algorithm 1 runs one affinity pass (against Δk) and one replica
    /// pass. We iterate to the fixed point so that a datum assigned by the
    /// replica pass pulls its affinity-dependents in the *same*
    /// synchronization instead of the next heartbeat — identical steady
    /// state, one round sooner. Each pass assigns in ascending id order,
    /// exactly as a walk over all of Θ would: the affinity pass visits the
    /// followers of `holds` and of data assigned so far (a follower with a
    /// larger id than its just-assigned target joins the running pass, one
    /// with a smaller id waits for the next), the replica pass visits
    /// `open ∖ holds` — once, since nothing this synchronization does can
    /// re-open a datum.
    pub fn assign_new(
        &mut self,
        host: HostUid,
        holds: &BTreeSet<DataId>,
        now: u64,
        role: SyncRole,
        budget: usize,
        ext_alive: AliveOracle<'_>,
    ) -> Vec<(Data, DataAttributes)> {
        #[cfg(test)]
        if self.oracle {
            return self.assign_new_oracle(host, holds, now, role, budget, ext_alive);
        }
        let mut downloads: Vec<(Data, DataAttributes)> = Vec::new();
        let mut frontier = self.followers_of_held(holds);
        let mut replica_pass_due = role == SyncRole::Reservoir;
        loop {
            let before = downloads.len();
            let mut next: BTreeSet<DataId> = BTreeSet::new();

            // Affinity resolution first — affinity is stronger than replica.
            while downloads.len() < budget {
                let Some(dj) = frontier.pop_first() else {
                    break;
                };
                if holds.contains(&dj) {
                    continue;
                }
                self.theta_visits += 1;
                let sd = &self.theta[&dj];
                if !self.lifetime_live(sd.attrs.lifetime, now, ext_alive) {
                    continue;
                }
                downloads.push((sd.data.clone(), sd.attrs.clone()));
                self.omega_insert(dj, host);
                for &f in self.followers.get(&dj).into_iter().flatten() {
                    if f > dj {
                        frontier.insert(f);
                    } else {
                        next.insert(f);
                    }
                }
            }

            // Replica scheduling (reservoir hosts only). Selection reads
            // only each candidate's own state, so the orders are written
            // first and Ω updated after.
            if std::mem::take(&mut replica_pass_due) {
                let first = downloads.len();
                let mut visited = 0;
                for &dj in &self.open {
                    if downloads.len() >= budget {
                        break;
                    }
                    if holds.contains(&dj) {
                        continue;
                    }
                    visited += 1;
                    let sd = &self.theta[&dj];
                    if self.lifetime_live(sd.attrs.lifetime, now, ext_alive) {
                        downloads.push((sd.data.clone(), sd.attrs.clone()));
                    }
                }
                self.theta_visits += visited;
                for (data, _) in &downloads[first..] {
                    let dj = data.id;
                    self.omega_insert(dj, host);
                    if let Some(fs) = self.followers.get(&dj) {
                        next.extend(fs.iter().copied());
                    }
                }
            }

            if downloads.len() == before || downloads.len() >= budget {
                break;
            }
            frontier = next;
        }
        self.debug_check();
        downloads
    }

    /// The affinity pass's starting candidates: managed followers of what
    /// the host holds, minus what it already holds — found from whichever
    /// of `holds` and the follower index is smaller.
    fn followers_of_held(&self, holds: &BTreeSet<DataId>) -> BTreeSet<DataId> {
        let mut out = BTreeSet::new();
        let mut add = |fs: &BTreeSet<DataId>| {
            out.extend(fs.iter().copied().filter(|f| !holds.contains(f)));
        };
        if holds.len() <= self.followers.len() {
            holds
                .iter()
                .filter_map(|t| self.followers.get(t))
                .for_each(&mut add);
        } else {
            self.followers
                .iter()
                .filter(|(t, _)| holds.contains(t))
                .for_each(|(_, fs)| add(fs));
        }
        out
    }

    /// Catalog-free liveness: refresh a host's last-seen instant without a
    /// full synchronization. The announce plane calls this for every
    /// verified datagram, so a host whose heartbeats ride on UDP announces
    /// is never declared dead by [`DataScheduler::detect_failures`] even
    /// though it skips most TCP catalog syncs.
    pub fn touch_host(&mut self, host: HostUid, now: u64) {
        self.last_seen.insert(host, now);
    }

    /// The announce plane's complete-replica report: record `host` in
    /// Ω(`data`). Ignored when the datum is not managed here (a stale or
    /// foreign announce must not create ghost entries). Any partial-holder
    /// record is cleared — a complete announce supersedes it.
    pub fn announce_owner(&mut self, host: HostUid, data: DataId) -> bool {
        if !self.theta.contains_key(&data) {
            return false;
        }
        self.clear_partial(data, host);
        let added = self.omega_insert(data, host);
        self.debug_check();
        added
    }

    /// TTL expiry of an announce-cache entry: forget `host`'s claimed
    /// holding of `data`. Mirrors [`DataScheduler::detect_failures`]'s
    /// eviction semantics — Ω entries are dropped only for fault-tolerant,
    /// non-pinned data (so the replica gets re-placed), while partial
    /// records always go. Returns whether any state changed.
    pub fn drop_host_holding(&mut self, host: HostUid, data: DataId) -> bool {
        let mut changed = self.clear_partial(data, host);
        if self.is_fault_tolerant(data) && !self.is_pinned(data, host) {
            changed |= self.omega_remove(data, host);
        }
        self.debug_check();
        changed
    }

    /// Heartbeat failure detection: hosts silent for longer than the timeout
    /// are declared dead. Owners of fault-tolerant data are evicted from Ω
    /// (so replicas get rescheduled); non-fault-tolerant owner entries stay.
    /// Returns the hosts declared dead.
    pub fn detect_failures(&mut self, now: u64) -> Vec<HostUid> {
        #[cfg(test)]
        if self.oracle {
            return self.detect_failures_oracle(now);
        }
        let dead: Vec<HostUid> = self
            .last_seen
            .iter()
            .filter(|(_, &seen)| now.saturating_sub(seen) > self.timeout)
            .map(|(&h, _)| h)
            .collect();
        for &h in &dead {
            self.last_seen.remove(&h);
            self.evict_owned(h, |ds, d| ds.is_fault_tolerant(d) && !ds.is_pinned(d, h));
            // An owner of nothing needs no entry; a dead one will not come
            // back for it.
            if self.owned.get(&h).is_some_and(Vec::is_empty) {
                self.owned.remove(&h);
            }
        }
        // Dead hosts' partial holdings are gone with them.
        if !dead.is_empty() && !self.partials.is_empty() {
            let gone: HashSet<HostUid> = dead.iter().copied().collect();
            self.partials.retain(|_, hosts| {
                hosts.retain(|h, _| !gone.contains(h));
                !hosts.is_empty()
            });
        }
        self.debug_check();
        dead
    }

    /// Under `debug_assertions`, hold the indexes to their definitions
    /// after a mutation (small states only — see [`DEBUG_CHECK_MAX`]).
    #[inline]
    fn debug_check(&self) {
        #[cfg(test)]
        if self.oracle {
            return;
        }
        #[cfg(debug_assertions)]
        if self.theta.len() <= DEBUG_CHECK_MAX && self.owned.len() <= DEBUG_CHECK_MAX {
            if let Err(e) = self.check_indexes() {
                panic!("scheduler index out of step: {e}");
            }
        }
    }

    /// Recompute the three indexes from Θ, Ω and the attributes and compare
    /// them with the maintained ones (see the module docs' *Indexes*).
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn check_indexes(&self) -> std::result::Result<(), String> {
        let mut owned: HashMap<HostUid, Vec<DataId>> = HashMap::new();
        for (&d, hosts) in &self.owners {
            for &h in hosts {
                owned.entry(h).or_default().push(d);
            }
        }
        owned.values_mut().for_each(|held| held.sort_unstable());
        let mut listed = self.owned.clone();
        listed.retain(|_, held| !held.is_empty());
        if listed != owned {
            return Err(format!("owned is {listed:?}, Ω gives {owned:?}"));
        }
        let mut open: BTreeSet<DataId> = BTreeSet::new();
        let mut followers: HashMap<DataId, BTreeSet<DataId>> = HashMap::new();
        for (&d, sd) in &self.theta {
            if let Some(target) = sd.attrs.affinity {
                followers.entry(target).or_default().insert(d);
            }
            if demand_unmet(&sd.attrs, self.owners.get(&d).map_or(0, |o| o.len())) {
                open.insert(d);
            }
        }
        if open != self.open {
            return Err(format!("open is {:?}, Θ/Ω give {open:?}", self.open));
        }
        if followers != self.followers {
            return Err(format!(
                "followers is {:?}, Θ gives {followers:?}",
                self.followers
            ));
        }
        Ok(())
    }

    /// A scheduler that runs the retained whole-Θ transcription of
    /// Algorithm 1 (`scheduler_oracle.rs`) — what the differential tests
    /// compare the indexed implementation with.
    #[cfg(test)]
    pub(crate) fn new_oracle(timeout_nanos: u64, max_data_schedule: usize) -> DataScheduler {
        DataScheduler {
            oracle: true,
            ..DataScheduler::new(timeout_nanos, max_data_schedule)
        }
    }
}

#[cfg(test)]
#[path = "scheduler_oracle.rs"]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::Lifetime;
    use bitdew_transport::ProtocolId;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    const SEC: u64 = 1_000_000_000;

    struct Fixture {
        rng: SmallRng,
        ds: DataScheduler,
    }

    impl Fixture {
        fn new() -> Fixture {
            Fixture {
                rng: SmallRng::seed_from_u64(99),
                // 3 s timeout (3 × 1 s heartbeat), schedule cap 16.
                ds: DataScheduler::new(3 * SEC, 16),
            }
        }

        fn id(&mut self) -> Auid {
            Auid::generate(1, &mut self.rng)
        }

        fn datum(&mut self, name: &str) -> Data {
            let id = self.id();
            Data::from_bytes(id, name, name.as_bytes())
        }

        fn host(&mut self) -> HostUid {
            self.id()
        }
    }

    fn ids(reply: &SyncReply) -> Vec<DataId> {
        reply.download.iter().map(|(d, _)| d.id).collect()
    }

    #[test]
    fn empty_scheduler_returns_empty_reply() {
        let mut f = Fixture::new();
        let h = f.host();
        let reply = f.ds.sync(h, &[], 0);
        assert_eq!(reply, SyncReply::default());
    }

    #[test]
    fn replica_counts_are_respected() {
        let mut f = Fixture::new();
        let d = f.datum("twice");
        f.ds.schedule(d.clone(), DataAttributes::default().with_replica(2));
        let (h1, h2, h3) = (f.host(), f.host(), f.host());
        assert_eq!(ids(&f.ds.sync(h1, &[], 0)), vec![d.id]);
        assert_eq!(ids(&f.ds.sync(h2, &[], 0)), vec![d.id]);
        // Third host: two owners already assigned.
        assert!(ids(&f.ds.sync(h3, &[], 0)).is_empty());
        assert_eq!(f.ds.owners_of(d.id).len(), 2);
    }

    #[test]
    fn replica_all_goes_everywhere() {
        let mut f = Fixture::new();
        let d = f.datum("app");
        f.ds.schedule(
            d.clone(),
            DataAttributes::default().with_replica(crate::attr::REPLICA_ALL),
        );
        for _ in 0..10 {
            let h = f.host();
            assert_eq!(ids(&f.ds.sync(h, &[], 0)), vec![d.id]);
        }
        assert_eq!(f.ds.owners_of(d.id).len(), 10);
    }

    #[test]
    fn cached_data_is_kept_and_not_redownloaded() {
        let mut f = Fixture::new();
        let d = f.datum("keep");
        f.ds.schedule(d.clone(), DataAttributes::default());
        let h = f.host();
        let first = f.ds.sync(h, &[], 0);
        assert_eq!(ids(&first), vec![d.id]);
        let second = f.ds.sync(h, &[d.id], SEC);
        assert_eq!(second.keep, vec![d.id]);
        assert!(second.download.is_empty());
        assert!(second.delete.is_empty());
    }

    #[test]
    fn unmanaged_cache_entries_are_deleted() {
        let mut f = Fixture::new();
        let ghost = f.id();
        let h = f.host();
        let reply = f.ds.sync(h, &[ghost], 0);
        assert_eq!(reply.delete, vec![ghost]);
    }

    #[test]
    fn absolute_lifetime_expires_data() {
        let mut f = Fixture::new();
        let d = f.datum("ttl");
        f.ds.schedule(
            d.clone(),
            DataAttributes::default().with_lifetime(Lifetime::Absolute(10 * SEC)),
        );
        let h = f.host();
        assert_eq!(ids(&f.ds.sync(h, &[], 0)), vec![d.id]);
        // Before expiry: kept. After: deleted.
        assert_eq!(f.ds.sync(h, &[d.id], 5 * SEC).keep, vec![d.id]);
        let after = f.ds.sync(h, &[d.id], 11 * SEC);
        assert_eq!(after.delete, vec![d.id]);
        assert!(after.keep.is_empty());
    }

    #[test]
    fn relative_lifetime_follows_reference() {
        // The §5 idiom: everything lives relative to the Collector; deleting
        // the Collector obsoletes the remaining data.
        let mut f = Fixture::new();
        let collector = f.datum("collector");
        let genebase = f.datum("genebase");
        f.ds.schedule(collector.clone(), DataAttributes::default());
        f.ds.schedule(
            genebase.clone(),
            DataAttributes::default().with_lifetime(Lifetime::RelativeTo(collector.id)),
        );
        let h = f.host();
        let r = f.ds.sync(h, &[], 0);
        assert_eq!(r.download.len(), 2);
        // Collector deleted → genebase expires at next sync.
        f.ds.delete_data(collector.id);
        let r2 = f.ds.sync(h, &[collector.id, genebase.id], SEC);
        assert!(r2.delete.contains(&collector.id));
        assert!(r2.delete.contains(&genebase.id));
    }

    #[test]
    fn affinity_places_data_with_dependency() {
        let mut f = Fixture::new();
        let seq = f.datum("sequence");
        let gene = f.datum("genebase");
        f.ds.schedule(seq.clone(), DataAttributes::default().with_replica(1));
        f.ds.schedule(
            gene.clone(),
            // replica=1 but affinity overrides: follows sequence everywhere.
            DataAttributes::default()
                .with_replica(1)
                .with_affinity(seq.id),
        );
        let h1 = f.host();
        let r1 = f.ds.sync(h1, &[], 0);
        // Host gets the sequence (replica) AND the genebase (affinity).
        let got = ids(&r1);
        assert!(got.contains(&seq.id));
        assert!(got.contains(&gene.id));
        // A host without the sequence gets neither.
        let h2 = f.host();
        assert!(ids(&f.ds.sync(h2, &[], 0)).is_empty());
    }

    #[test]
    fn affinity_is_stronger_than_replica() {
        // §3.2: if B has affinity to A (replicated on rn nodes), B follows to
        // all rn nodes regardless of B's replica value.
        let mut f = Fixture::new();
        let a = f.datum("a");
        let b = f.datum("b");
        f.ds.schedule(a.clone(), DataAttributes::default().with_replica(3));
        f.ds.schedule(
            b.clone(),
            DataAttributes::default()
                .with_replica(1)
                .with_affinity(a.id),
        );
        let hosts: Vec<HostUid> = (0..3).map(|_| f.host()).collect();
        for &h in &hosts {
            let got = ids(&f.ds.sync(h, &[], 0));
            assert!(
                got.contains(&a.id) && got.contains(&b.id),
                "b follows a to {h}"
            );
        }
        assert_eq!(f.ds.owners_of(b.id).len(), 3);
    }

    #[test]
    fn max_data_schedule_caps_downloads() {
        let mut f = Fixture::new();
        f.ds = DataScheduler::new(3 * SEC, 4);
        for i in 0..10 {
            let d = f.datum(&format!("d{i}"));
            f.ds.schedule(d, DataAttributes::default());
        }
        let h = f.host();
        let r = f.ds.sync(h, &[], 0);
        assert_eq!(r.download.len(), 4, "capped at MaxDataSchedule");
        // Next sync fetches more.
        let cache: Vec<DataId> = ids(&r);
        let r2 = f.ds.sync(h, &cache, SEC);
        assert_eq!(r2.download.len(), 4);
    }

    #[test]
    fn fault_tolerant_data_is_rescheduled_after_owner_death() {
        let mut f = Fixture::new();
        let d = f.datum("resilient");
        f.ds.schedule(
            d.clone(),
            DataAttributes::default()
                .with_replica(1)
                .with_fault_tolerance(true),
        );
        let h1 = f.host();
        assert_eq!(ids(&f.ds.sync(h1, &[], 0)), vec![d.id]);
        f.ds.sync(h1, &[d.id], SEC); // h1 confirms ownership
                                     // h1 goes silent; detector fires after 3 s.
        let dead = f.ds.detect_failures(SEC + 4 * SEC);
        assert_eq!(dead, vec![h1]);
        assert!(f.ds.owners_of(d.id).is_empty());
        // A fresh host picks the replica up.
        let h2 = f.host();
        assert_eq!(ids(&f.ds.sync(h2, &[], 6 * SEC)), vec![d.id]);
    }

    #[test]
    fn non_fault_tolerant_data_is_not_rescheduled() {
        let mut f = Fixture::new();
        let d = f.datum("fragile");
        f.ds.schedule(d.clone(), DataAttributes::default().with_replica(1));
        let h1 = f.host();
        f.ds.sync(h1, &[], 0);
        f.ds.sync(h1, &[d.id], SEC);
        let dead = f.ds.detect_failures(10 * SEC);
        assert_eq!(dead, vec![h1]);
        // Owner list unchanged → no second replica is scheduled.
        assert_eq!(f.ds.owners_of(d.id), vec![h1]);
        let h2 = f.host();
        assert!(ids(&f.ds.sync(h2, &[], 11 * SEC)).is_empty());
    }

    #[test]
    fn live_hosts_are_not_declared_dead() {
        let mut f = Fixture::new();
        let (h1, h2) = (f.host(), f.host());
        f.ds.sync(h1, &[], 0);
        f.ds.sync(h2, &[], 0);
        f.ds.sync(h1, &[], 3 * SEC); // h1 heartbeats again
        let dead = f.ds.detect_failures(4 * SEC);
        assert_eq!(dead, vec![h2]);
        assert_eq!(f.ds.known_hosts(), vec![h1]);
    }

    #[test]
    fn pinned_data_survives_failure_detection() {
        let mut f = Fixture::new();
        let collector = f.datum("collector");
        f.ds.schedule(
            collector.clone(),
            DataAttributes::default()
                .with_replica(0)
                .with_fault_tolerance(true),
        );
        let master = f.host();
        f.ds.pin(collector.id, master);
        assert_eq!(f.ds.owners_of(collector.id), vec![master]);
        f.ds.sync(master, &[collector.id], 0);
        f.ds.detect_failures(100 * SEC);
        // Pinned ownership survives even though the master timed out.
        assert_eq!(f.ds.owners_of(collector.id), vec![master]);
    }

    #[test]
    fn host_dropping_data_releases_ownership() {
        let mut f = Fixture::new();
        let d = f.datum("dropped");
        f.ds.schedule(d.clone(), DataAttributes::default().with_replica(1));
        let h = f.host();
        f.ds.sync(h, &[], 0);
        f.ds.sync(h, &[d.id], SEC);
        assert_eq!(f.ds.owners_of(d.id), vec![h]);
        // Host reports an empty cache (it purged the datum): Ω reconciles,
        // and the same sync immediately re-assigns (replica unmet).
        let r = f.ds.sync(h, &[], 2 * SEC);
        assert_eq!(ids(&r), vec![d.id]);
    }

    #[test]
    fn delete_data_removes_from_management() {
        let mut f = Fixture::new();
        let d = f.datum("gone");
        f.ds.schedule(d.clone(), DataAttributes::default());
        assert!(f.ds.is_managed(d.id));
        f.ds.delete_data(d.id);
        assert!(!f.ds.is_managed(d.id));
        assert_eq!(f.ds.managed_count(), 0);
        let h = f.host();
        let r = f.ds.sync(h, &[d.id], 0);
        assert_eq!(r.delete, vec![d.id]);
    }

    #[test]
    fn client_hosts_receive_affinity_but_not_replicas() {
        let mut f = Fixture::new();
        let anchor = f.datum("anchor");
        let follower = f.datum("follower");
        let loose = f.datum("loose");
        f.ds.schedule(anchor.clone(), DataAttributes::default().with_replica(1));
        f.ds.schedule(
            follower.clone(),
            DataAttributes::default().with_affinity(anchor.id),
        );
        f.ds.schedule(loose.clone(), DataAttributes::default().with_replica(5));
        let client = f.host();
        // Pin the anchor on the client so the affinity chain applies there.
        f.ds.pin(anchor.id, client);
        let r = f.ds.sync_as(client, &[anchor.id], 0, SyncRole::Client);
        let got = ids(&r);
        assert!(
            got.contains(&follower.id),
            "affinity still flows to clients"
        );
        assert!(!got.contains(&loose.id), "replica data skips clients");
    }

    #[test]
    fn relative_lifetime_dead_on_arrival_expires_immediately() {
        // With the lazy full-Θ sweep gone, a datum referencing a
        // never-managed (or already-dead) datum must be expired eagerly at
        // schedule time — and so must anything chained through it.
        let mut f = Fixture::new();
        let ghost = f.id();
        let a = f.datum("orphan");
        f.ds.schedule(
            a.clone(),
            DataAttributes::default().with_lifetime(Lifetime::RelativeTo(ghost)),
        );
        assert!(!f.ds.is_managed(a.id), "orphan is dead on arrival");
        let b = f.datum("chained");
        f.ds.schedule(
            b.clone(),
            DataAttributes::default().with_lifetime(Lifetime::RelativeTo(a.id)),
        );
        assert!(!f.ds.is_managed(b.id), "chained dependent dies with it");
        let h = f.host();
        assert!(f.ds.sync(h, &[], 0).download.is_empty());
        assert_eq!(f.ds.managed_count(), 0, "no leak in Θ");
    }

    #[test]
    fn expiry_sweep_visits_only_expired_data() {
        // The deadline index means a sync's sweep touches expired entries
        // only — never the (large) live remainder of Θ.
        let mut f = Fixture::new();
        for i in 0..200 {
            let d = f.datum(&format!("live{i}"));
            f.ds.schedule(d, DataAttributes::default()); // unbounded
        }
        let short = f.datum("short");
        let mid = f.datum("mid");
        let long = f.datum("long");
        f.ds.schedule(
            short.clone(),
            DataAttributes::default().with_lifetime(Lifetime::Absolute(SEC)),
        );
        f.ds.schedule(
            mid.clone(),
            DataAttributes::default().with_lifetime(Lifetime::Absolute(2 * SEC)),
        );
        f.ds.schedule(
            long.clone(),
            DataAttributes::default().with_lifetime(Lifetime::Absolute(1000 * SEC)),
        );
        assert_eq!(f.ds.expiry_index_len(), 3);

        let h = f.host();
        // Nothing expired yet: the sweep visits nothing despite |Θ| = 203.
        f.ds.sync(h, &[], SEC);
        assert_eq!(f.ds.sweep_visits(), 0);
        // Two deadlines lapse: exactly two visits, index keeps the rest.
        f.ds.sync(h, &[], 5 * SEC);
        assert_eq!(f.ds.sweep_visits(), 2);
        assert_eq!(f.ds.expiry_index_len(), 1);
        assert!(!f.ds.is_managed(short.id));
        assert!(!f.ds.is_managed(mid.id));
        assert!(f.ds.is_managed(long.id));
        // Every further sync is free — no re-scanning of Θ.
        for t in 6..30 {
            f.ds.sync(h, &[], t * SEC);
        }
        assert_eq!(f.ds.sweep_visits(), 2);
    }

    #[test]
    fn sync_examines_the_cache_slice_and_open_data_not_theta() {
        // The indexes mean a synchronization's Θ lookups are bounded by
        // |Δk| plus the open data it is offered, at any |Θ|.
        const THETA: usize = 10_000;
        const CACHED: usize = 50;
        let mut f = Fixture::new();
        let (h, elsewhere) = (f.host(), f.host());
        let mut cache: Vec<DataId> = Vec::new();
        for i in 0..THETA {
            let d = f.datum(&format!("d{i}"));
            f.ds.schedule(d.clone(), DataAttributes::default().with_replica(1));
            if i < CACHED {
                f.ds.pin(d.id, h);
                cache.push(d.id);
            } else {
                f.ds.pin(d.id, elsewhere);
            }
        }
        // Every floor met: only the presented slice is examined.
        let before = f.ds.theta_visits();
        let r = f.ds.sync(h, &cache, SEC);
        assert_eq!(r.keep.len(), CACHED);
        assert!(r.download.is_empty());
        assert!(f.ds.theta_visits() - before <= CACHED as u64);

        // m open data (one of them pulling a follower along): |Δk| + m + 1.
        const OPEN: usize = 7;
        let mut fresh: Vec<DataId> = Vec::new();
        for i in 0..OPEN {
            let d = f.datum(&format!("open{i}"));
            f.ds.schedule(d.clone(), DataAttributes::default().with_replica(1));
            fresh.push(d.id);
        }
        let follower = f.datum("follower");
        f.ds.schedule(
            follower.clone(),
            DataAttributes::default().with_affinity(fresh[0]),
        );
        let before = f.ds.theta_visits();
        let r = f.ds.sync(h, &cache, 2 * SEC);
        assert_eq!(ids(&r).len(), OPEN + 1);
        assert!(ids(&r).contains(&follower.id));
        assert!(f.ds.theta_visits() - before <= (CACHED + OPEN + 1) as u64);

        // A host holding nothing, with nothing open, examines nothing.
        let idle = f.host();
        let before = f.ds.theta_visits();
        assert_eq!(f.ds.sync(idle, &[], 3 * SEC), SyncReply::default());
        assert_eq!(f.ds.theta_visits(), before);
    }

    #[test]
    fn rescheduling_replaces_expiry_index_entry() {
        let mut f = Fixture::new();
        let d = f.datum("renewed");
        f.ds.schedule(
            d.clone(),
            DataAttributes::default().with_lifetime(Lifetime::Absolute(SEC)),
        );
        assert_eq!(f.ds.expiry_index_len(), 1);
        // Re-schedule with a later deadline: the stale entry is dropped, so
        // the old deadline passing must not expire the datum.
        f.ds.schedule(
            d.clone(),
            DataAttributes::default().with_lifetime(Lifetime::Absolute(10 * SEC)),
        );
        assert_eq!(f.ds.expiry_index_len(), 1);
        let h = f.host();
        let r = f.ds.sync(h, &[d.id], 5 * SEC);
        assert_eq!(r.keep, vec![d.id], "renewed lifetime honored");
        assert_eq!(f.ds.sweep_visits(), 0);
        // Switching to unbounded empties the index entirely.
        f.ds.schedule(d.clone(), DataAttributes::default());
        assert_eq!(f.ds.expiry_index_len(), 0);
        // And a delete cleans up without waiting for any sweep.
        let e = f.datum("expiring");
        f.ds.schedule(
            e.clone(),
            DataAttributes::default().with_lifetime(Lifetime::Absolute(3 * SEC)),
        );
        assert_eq!(f.ds.expiry_index_len(), 1);
        f.ds.delete_data(e.id);
        assert_eq!(f.ds.expiry_index_len(), 0);
    }

    #[test]
    fn partial_holder_leaves_omega_and_gets_repair_order() {
        let mut f = Fixture::new();
        let d = f.datum("chunked");
        f.ds.schedule(d.clone(), DataAttributes::default().with_replica(1));
        f.ds.set_chunk_total(d.id, 4);
        assert_eq!(f.ds.chunk_total(d.id), Some(4));
        let h = f.host();
        assert_eq!(ids(&f.ds.sync(h, &[], 0)), vec![d.id]);
        // Full holdings: the host is a real owner.
        f.ds.report_chunks(h, d.id, 4);
        assert_eq!(f.ds.owners_of(d.id), vec![h]);
        let r = f.ds.sync(h, &[d.id], SEC);
        assert_eq!(r.keep, vec![d.id]);
        assert!(r.repair.is_empty());

        // The host loses two chunks: it reports partial holdings.
        f.ds.report_chunks(h, d.id, 2);
        assert!(
            f.ds.owners_of(d.id).is_empty(),
            "partial holder is not an owner"
        );
        assert_eq!(f.ds.partial_holders(d.id), vec![(h, 2)]);
        let r = f.ds.sync(h, &[d.id], 2 * SEC);
        assert!(r.keep.is_empty());
        assert!(r.delete.is_empty(), "partial content is kept, not purged");
        assert_eq!(r.repair.len(), 1, "repair order issued");
        assert_eq!(r.repair[0].0.id, d.id);
        assert!(
            !r.download.iter().any(|(dd, _)| dd.id == d.id),
            "repair target is not also re-assigned as a download"
        );

        // Repair done: full ownership is restored.
        f.ds.report_chunks(h, d.id, 4);
        assert_eq!(f.ds.owners_of(d.id), vec![h]);
        assert!(f.ds.partial_holders(d.id).is_empty());
        let r = f.ds.sync(h, &[d.id], 3 * SEC);
        assert_eq!(r.keep, vec![d.id]);
        assert!(r.repair.is_empty());
    }

    #[test]
    fn unmet_replica_from_partial_holder_is_rescheduled_elsewhere() {
        // replica = 1 and the only holder is partial: the replica is
        // missing in Ω's eyes, so another reservoir picks up a full copy
        // while the partial holder repairs.
        let mut f = Fixture::new();
        let d = f.datum("halfway");
        f.ds.schedule(d.clone(), DataAttributes::default().with_replica(1));
        f.ds.set_chunk_total(d.id, 8);
        let h1 = f.host();
        f.ds.sync(h1, &[], 0);
        f.ds.report_chunks(h1, d.id, 3);
        let h2 = f.host();
        assert_eq!(
            ids(&f.ds.sync(h2, &[], SEC)),
            vec![d.id],
            "replica re-placed while the partial holder repairs"
        );
    }

    #[test]
    fn dead_partial_holder_is_forgotten() {
        let mut f = Fixture::new();
        let d = f.datum("c");
        f.ds.schedule(d.clone(), DataAttributes::default().with_replica(1));
        f.ds.set_chunk_total(d.id, 2);
        let h = f.host();
        f.ds.sync(h, &[], 0);
        f.ds.report_chunks(h, d.id, 1);
        assert_eq!(f.ds.partial_holders(d.id).len(), 1);
        f.ds.detect_failures(100 * SEC);
        assert!(f.ds.partial_holders(d.id).is_empty());
    }

    #[test]
    fn partial_holder_chunk_sets_are_tracked_and_schedulable() {
        // The compute-plane bugfix: a partial holder's exact chunk indices
        // are kept (not just a count), and an affinity follower — a MapOp
        // restricted to the chunks the host actually has — still reaches
        // the partial holder through sync.
        let mut f = Fixture::new();
        let d = f.datum("sparse");
        f.ds.schedule(d.clone(), DataAttributes::default().with_replica(1));
        f.ds.set_chunk_total(d.id, 8);
        let h = f.host();
        f.ds.sync(h, &[], 0);
        // Non-contiguous holdings, with an out-of-range claim rejected.
        f.ds.report_chunk_set(h, d.id, &[0, 2, 5, 99]);
        assert_eq!(f.ds.partial_holders(d.id), vec![(h, 3)]);
        assert_eq!(f.ds.partial_chunk_sets(d.id), vec![(h, vec![0, 2, 5])]);
        assert!(f.ds.owners_of(d.id).is_empty());

        // A compute order scheduled with affinity to the datum lands on the
        // partial holder: repair targets count as held in sync_as, so the
        // follower flows there even though the host is outside Ω.
        let op = f.datum("compute.op.scan");
        f.ds.schedule(
            op.clone(),
            DataAttributes::default()
                .with_affinity(d.id)
                .with_compute("scan"),
        );
        let r = f.ds.sync(h, &[d.id], SEC);
        assert!(
            ids(&r).contains(&op.id),
            "affinity compute order reaches the partial holder: {r:?}"
        );

        // Reporting the complement completes the set → full owner.
        f.ds.report_chunk_set(h, d.id, &[0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(f.ds.owners_of(d.id), vec![h]);
        assert!(f.ds.partial_chunk_sets(d.id).is_empty());
    }

    #[test]
    fn chunk_reports_without_manifest_are_ignored() {
        let mut f = Fixture::new();
        let d = f.datum("plain");
        f.ds.schedule(d.clone(), DataAttributes::default());
        let h = f.host();
        f.ds.report_chunks(h, d.id, 3);
        assert!(f.ds.partial_holders(d.id).is_empty());
        assert!(f.ds.owners_of(d.id).is_empty());
    }

    #[test]
    fn attributes_accessible() {
        let mut f = Fixture::new();
        let d = f.datum("q");
        f.ds.schedule(
            d.clone(),
            DataAttributes::default().with_protocol(ProtocolId::bittorrent()),
        );
        assert_eq!(
            f.ds.attributes_of(d.id).unwrap().protocol,
            ProtocolId::bittorrent()
        );
        let missing = f.id();
        assert!(f.ds.attributes_of(missing).is_none());
    }
}
