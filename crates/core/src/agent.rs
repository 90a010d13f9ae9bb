//! The host agent, defined once for both backends: what a host knows, and
//! the decisions that read it.
//!
//! Every reservoir host runs the paper's agent loop: heartbeat,
//! synchronize with the Data Scheduler (Algorithm 1), purge, download. The
//! threaded [`BitdewNode`](crate::BitdewNode) and the simulator's
//! [`SimBitdew`](crate::simdriver::SimBitdew) each run that loop over one
//! [`HostState`] per host: the node behind one lock, the simulator as one
//! slot of a dense vector of hosts.
//!
//! A [`HostState`] keeps one [`Facts`] entry per datum the host knows
//! anything of — the cache entry, the transfer in flight ([`InFlight`]: a
//! download, or a chunk repair of a cached datum), the version the host's
//! bytes correspond to, when it last announced its claim, and one fact only
//! one backend keeps — plus its heartbeat count and whether its last sync
//! did work. An entry disappears once it holds nothing. The decisions that
//! read those facts are its methods:
//!
//! - [`HostState::next_round`]: whether a heartbeat runs a full sync.
//! - [`HostState::claims_due`]: which cached data announce this round.
//! - [`HostState::triage`]: which entries of a sync reply the host acts on.
//! - [`HostState::forget`]: a purge, which leaves only a repair in flight.
//! - [`HostState::note_held_version`]: the version a claim is made at.
//! - [`HostState::check`]: the invariants, which both backends assert
//!   after every heartbeat in debug builds.
//!
//! The decisions that read no per-host fact are free functions over plain
//! data: [`Cadence`] (the announce TTL and full-sync period), [`claim`]
//! (what a held datum announces), [`claim_effect`] (what a claim means for
//! the scheduler, also applied by the [`AnnounceServer`](crate::AnnounceServer)
//! to claims off the wire) and [`source_order`] (where a chunked fetch
//! pulls from). Nothing here locks, reads a clock or does I/O: a backend
//! gathers the inputs and carries out the answer. A host whose held version
//! of a datum is unknown claims the head version, on both backends.
//!
//! The backends still differ in these ways:
//! - The backend-only fact: the threaded node caches each datum's chunk
//!   manifest; the simulator keeps a partial holder's chunk set. The
//!   threaded node reads partial chunk sets from its `ChunkStore`'s
//!   presence marks instead.
//! - The simulator never sets `recent_work`, so only transfers in flight
//!   make its host busy.
//! - The simulator counts a repair as pending: `SimNode::barrier` waits for
//!   repairs too, where `BitdewNode::barrier` waits for downloads only.
//! - A failed repair drops the datum from the simulator's cache; the
//!   threaded node keeps it cached until a later repair order.
//! - The threaded node reports its downloads in flight as held when it
//!   syncs; the simulator reports its cache only.

use bitdew_util::IdMap;

use crate::announce::{bitmap_indices, chunk_bitmap, FLAG_COMPLETE};
use crate::data::DataId;
use crate::services::scheduler::SyncReply;
use crate::versions::{head_valid_subset, ResolvedVersion};

/// The announce plane's timing, from
/// [`AnnounceConfig`](crate::AnnounceConfig)'s two factors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cadence {
    ttl: u64,
    full_sync_every: u64,
}

impl Cadence {
    /// A claim lives `ttl_factor` heartbeats, and every
    /// `full_sync_every`th round is a full sync. Both factors are at
    /// least 1: a 0 counts as 1.
    pub fn new(heartbeat_nanos: u64, ttl_factor: u32, full_sync_every: u32) -> Cadence {
        Cadence {
            ttl: heartbeat_nanos.saturating_mul(ttl_factor.max(1) as u64),
            full_sync_every: full_sync_every.max(1) as u64,
        }
    }

    /// Nanoseconds a claim stays live without a refresh.
    pub fn ttl(&self) -> u64 {
        self.ttl
    }

    /// Whether heartbeat `round` is the periodic full sync.
    pub fn periodic(&self, round: u64) -> bool {
        round.is_multiple_of(self.full_sync_every)
    }

    /// Whether a claim last announced at `last` (`None`: never) is due
    /// again at `now`: past its TTL half-life.
    pub fn claim_due(&self, last: Option<u64>, now: u64) -> bool {
        last.is_none_or(|t| now.saturating_sub(t) >= self.ttl / 2)
    }
}

/// What a host holds of a datum when it announces it.
pub enum Holding<'a> {
    /// Every chunk, or an unchunked datum.
    Complete,
    /// Exactly these chunk indices.
    Partial(&'a [u32]),
}

/// One claim on a datum, as an announce datagram carries it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Claim {
    /// [`FLAG_SERVING`](crate::FLAG_SERVING) | [`FLAG_COMPLETE`].
    pub flags: u8,
    /// The held-chunk bitmap of a partial holding; empty otherwise.
    pub bitmap: Vec<u8>,
}

/// The claim for `holding` of a datum cut into `chunks`
/// chunks, `serving` being 0 or [`FLAG_SERVING`](crate::FLAG_SERVING).
/// `None` when the bitmap would exceed
/// [`MAX_BITMAP_BYTES`](crate::announce::MAX_BITMAP_BYTES): the periodic
/// full sync reports that holding instead.
pub fn claim(holding: Holding, chunks: u32, serving: u8) -> Option<Claim> {
    Some(match holding {
        Holding::Complete => Claim {
            flags: serving | FLAG_COMPLETE,
            bitmap: Vec::new(),
        },
        Holding::Partial(held) => Claim {
            flags: serving,
            bitmap: chunk_bitmap(held, chunks)?,
        },
    })
}

/// What a claim means for the scheduler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClaimEffect {
    /// A complete replica of the head: the host joins Ω.
    Owner,
    /// The host holds exactly these chunks at the head, possibly none: it
    /// is a partial holder, out of Ω and a repair target.
    Chunks(Vec<u32>),
}

/// The effect of `claim`, made at `version`, on a datum whose
/// head is `head`. A claim behind a mutated datum's head (`head > 1`) is
/// stale: it never puts the host in Ω, and only the chunks no later
/// version rewrote count. `head_at` resolves the head; it is called only
/// for a stale claim.
pub fn claim_effect(
    claim: &Claim,
    version: u64,
    head: u64,
    head_at: impl FnOnce() -> Option<ResolvedVersion>,
) -> ClaimEffect {
    let complete = claim.flags & FLAG_COMPLETE != 0;
    let stale = head > 1 && version < head;
    if complete && !stale {
        return ClaimEffect::Owner;
    }
    let held = bitmap_indices(&claim.bitmap);
    if !stale {
        return ClaimEffect::Chunks(held);
    }
    let Some(rv) = head_at() else {
        return ClaimEffect::Chunks(held);
    };
    let held = if complete {
        (0..rv.chunk_count()).collect()
    } else {
        held
    };
    ClaimEffect::Chunks(head_valid_subset(&rv, &held, version))
}

/// The sources a chunked fetch by host `me` pulls from, in
/// the order its chunk queue is work-stolen — the service or repository
/// `endpoints` first, in published order, then the complete serving
/// `peers` in ascending host id. `me` and duplicates are left out.
pub fn source_order<K: Ord, S: PartialEq>(
    me: &K,
    endpoints: Vec<S>,
    mut peers: Vec<(K, S)>,
) -> Vec<S> {
    peers.sort_by(|a, b| a.0.cmp(&b.0));
    peers.dedup_by(|a, b| a.0 == b.0);
    let mut order: Vec<S> = Vec::with_capacity(endpoints.len() + peers.len());
    for s in endpoints {
        if !order.contains(&s) {
            order.push(s);
        }
    }
    let published = order.len();
    for (k, s) in peers {
        if k != *me && !order[..published].contains(&s) {
            order.push(s);
        }
    }
    order
}

/// A transfer in flight towards a host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InFlight<D, R> {
    /// A download of a datum the host does not cache.
    Download(D),
    /// A chunk repair of a datum the host caches: only its missing chunks
    /// move.
    Repair(R),
}

/// What one host knows of one datum. `C` is the cache entry, `D` and `R`
/// a download's and a repair's record, and `X` the fact only one backend
/// keeps (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Facts<C, D, R, X> {
    /// The host holds the datum: whole, or as a partial holder.
    pub cached: Option<C>,
    /// The transfer towards the host, if one is in flight.
    pub in_flight: Option<InFlight<D, R>>,
    /// The version the host's bytes correspond to; a claim behind the
    /// head is stale.
    pub held_version: Option<u64>,
    /// When the host last announced its claim on the cached datum.
    pub announced_at: Option<u64>,
    /// The backend-only fact.
    pub extra: Option<X>,
}

impl<C, D, R, X> Default for Facts<C, D, R, X> {
    fn default() -> Self {
        Facts {
            cached: None,
            in_flight: None,
            held_version: None,
            announced_at: None,
            extra: None,
        }
    }
}

impl<C, D, R, X> Facts<C, D, R, X> {
    fn is_empty(&self) -> bool {
        self.cached.is_none()
            && self.in_flight.is_none()
            && self.held_version.is_none()
            && self.announced_at.is_none()
            && self.extra.is_none()
    }

    /// Whether a download (not a repair) is in flight.
    pub fn downloading(&self) -> bool {
        matches!(self.in_flight, Some(InFlight::Download(_)))
    }

    fn repairing(&self) -> bool {
        matches!(self.in_flight, Some(InFlight::Repair(_)))
    }
}

/// One heartbeat round, as [`HostState::next_round`] counts it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Round {
    /// The cadence's every-nth full sync.
    pub periodic: bool,
    /// A transfer in flight, or work done by the last sync: a busy host
    /// syncs every round.
    pub busy: bool,
}

impl Round {
    /// Whether the round runs a full sync.
    pub fn full(self) -> bool {
        self.periodic || self.busy
    }
}

/// Everything one host knows: one [`Facts`] entry per datum, its heartbeat
/// count and its busy flag. See the module docs.
#[derive(Debug, Clone)]
pub struct HostState<C, D, R, X> {
    facts: IdMap<DataId, Facts<C, D, R, X>>,
    rounds: u64,
    recent_work: bool,
    downloads: u32,
    repairs: u32,
}

impl<C, D, R, X> Default for HostState<C, D, R, X> {
    fn default() -> Self {
        HostState {
            facts: IdMap::default(),
            rounds: 0,
            recent_work: false,
            downloads: 0,
            repairs: 0,
        }
    }
}

impl<C, D, R, X> HostState<C, D, R, X> {
    /// The facts on `id`, if the host knows anything of it.
    pub fn get(&self, id: DataId) -> Option<&Facts<C, D, R, X>> {
        self.facts.get(&id)
    }

    /// Every datum the host knows anything of, in no fixed order.
    pub fn iter(&self) -> impl Iterator<Item = (DataId, &Facts<C, D, R, X>)> {
        self.facts.iter().map(|(&id, f)| (id, f))
    }

    /// Change the facts on `id` through `f`. The entry is made when
    /// missing and dropped when `f` leaves it empty.
    pub fn update<T>(&mut self, id: DataId, f: impl FnOnce(&mut Facts<C, D, R, X>) -> T) -> T {
        let facts = self.facts.entry(id).or_default();
        let before = (facts.downloading(), facts.repairing());
        let out = f(facts);
        let after = (facts.downloading(), facts.repairing());
        let empty = facts.is_empty();
        self.downloads = self.downloads + after.0 as u32 - before.0 as u32;
        self.repairs = self.repairs + after.1 as u32 - before.1 as u32;
        if empty {
            self.facts.remove(&id);
        }
        out
    }

    /// The cache entry of `id`.
    pub fn cached(&self, id: DataId) -> Option<&C> {
        self.facts.get(&id)?.cached.as_ref()
    }

    /// The cached data, in no fixed order.
    pub fn cached_ids(&self) -> impl Iterator<Item = DataId> + '_ {
        self.facts
            .iter()
            .filter(|(_, f)| f.cached.is_some())
            .map(|(&id, _)| id)
    }

    /// Enter `id` into the cache.
    pub fn cache(&mut self, id: DataId, entry: C) {
        self.update(id, |f| f.cached = Some(entry));
    }

    /// Purge `id`: drop everything the host knows of it but the transfer
    /// in flight (a repair: a cached datum downloads nothing), which is
    /// still reaped. Returns the cache entry.
    pub fn forget(&mut self, id: DataId) -> Option<C> {
        self.facts.get(&id)?;
        self.update(id, |f| {
            f.held_version = None;
            f.announced_at = None;
            f.extra = None;
            f.cached.take()
        })
    }

    /// The host's bytes of `id` now correspond to `version`; 0 (a datum
    /// never chunked) records nothing.
    pub fn note_held_version(&mut self, id: DataId, version: u64) {
        if version > 0 {
            self.update(id, |f| f.held_version = Some(version));
        }
    }

    /// The version the host's bytes of `id` correspond to, when known.
    pub fn held_version(&self, id: DataId) -> Option<u64> {
        self.facts.get(&id)?.held_version
    }

    /// The cached data whose claim is due at `now`: never announced, or
    /// past the TTL half-life since.
    pub fn claims_due<'a>(
        &'a self,
        cadence: &'a Cadence,
        now: u64,
    ) -> impl Iterator<Item = (DataId, &'a Facts<C, D, R, X>)> + 'a {
        self.facts
            .iter()
            .filter(move |(_, f)| f.cached.is_some() && cadence.claim_due(f.announced_at, now))
            .map(|(&id, f)| (id, f))
    }

    /// The host announced its claim on `id` at `now`. A datum purged while
    /// the claim was on its way keeps no announce time.
    pub fn note_announced(&mut self, id: DataId, now: u64) {
        if let Some(f) = self.facts.get_mut(&id).filter(|f| f.cached.is_some()) {
            f.announced_at = Some(now);
        }
    }

    /// The entries of a sync `reply` the host acts on: it purges what it
    /// caches, downloads what it neither caches nor has in flight, and
    /// repairs what it has nothing in flight for.
    pub fn triage(&self, mut reply: SyncReply) -> SyncReply {
        let facts = |id| self.facts.get(&id);
        reply
            .delete
            .retain(|&id| facts(id).is_some_and(|f| f.cached.is_some()));
        reply.download.retain(|(d, _)| {
            facts(d.id).is_none_or(|f| f.cached.is_none() && f.in_flight.is_none())
        });
        reply
            .repair
            .retain(|(d, _)| facts(d.id).is_none_or(|f| f.in_flight.is_none()));
        reply
    }

    /// Start the next heartbeat round. It is busy when a transfer is in
    /// flight or the last sync did work (which this clears).
    pub fn next_round(&mut self, cadence: &Cadence) -> Round {
        let round = self.rounds;
        self.rounds += 1;
        let busy = std::mem::take(&mut self.recent_work) || self.in_flight() > 0;
        Round {
            periodic: cadence.periodic(round),
            busy,
        }
    }

    /// The last sync did work: the next round is busy.
    pub fn note_work(&mut self) {
        self.recent_work = true;
    }

    /// Heartbeat rounds started so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Downloads in flight.
    pub fn downloads(&self) -> usize {
        self.downloads as usize
    }

    /// Downloads and repairs in flight.
    pub fn in_flight(&self) -> usize {
        (self.downloads + self.repairs) as usize
    }

    /// The host died: none of its transfers will arrive.
    pub fn abandon_transfers(&mut self) {
        self.facts.retain(|_, f| {
            f.in_flight = None;
            !f.is_empty()
        });
        self.downloads = 0;
        self.repairs = 0;
    }

    /// Assert the invariants: no entry is empty, no cached datum is also
    /// downloading, only cached data have an announce time, and the
    /// in-flight counts match the entries.
    ///
    /// # Panics
    /// When one fails.
    pub fn check(&self) {
        let (mut downloads, mut repairs) = (0, 0);
        for (id, f) in &self.facts {
            assert!(!f.is_empty(), "{id}: an empty entry");
            assert!(
                !(f.cached.is_some() && f.downloading()),
                "{id}: cached and downloading"
            );
            assert!(
                f.announced_at.is_none() || f.cached.is_some(),
                "{id}: an announce time without a cache entry"
            );
            downloads += f.downloading() as u32;
            repairs += f.repairing() as u32;
        }
        assert_eq!((downloads, repairs), (self.downloads, self.repairs));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::announce::{AnnounceMsg, FLAG_SERVING, MAX_BITMAP_BYTES};
    use crate::attr::DataAttributes;
    use crate::chunks::{ChunkDescriptor, ChunkManifest};
    use crate::data::Data;
    use crate::shard::ShardedScheduler;
    use crate::versions::VersionedManifest;
    use bitdew_storage::codec::{Decode, Encode};
    use bitdew_util::Auid;
    use proptest::prelude::*;
    use std::num::NonZeroUsize;

    #[test]
    fn cadence_clamps_zero_factors_and_saturates() {
        let c = Cadence::new(10, 0, 0);
        assert_eq!(c.ttl(), 10, "a claim lives at least one heartbeat");
        assert!((0..5).all(|round| c.periodic(round)));
        assert_eq!(Cadence::new(u64::MAX, 2, 1).ttl(), u64::MAX);

        let c = Cadence::new(10, 2, 8);
        assert!(c.periodic(0) && c.periodic(16) && !c.periodic(9));
        assert!(c.claim_due(None, 0));
        assert!(!c.claim_due(Some(100), 109));
        assert!(c.claim_due(Some(100), 110));
        assert!(!c.claim_due(Some(100), 50), "a clock behind the claim");
    }

    #[test]
    fn claims_carry_flags_and_bitmap_up_to_the_cap() {
        let full = claim(Holding::Complete, 9, FLAG_SERVING).unwrap();
        assert_eq!(full.flags, FLAG_SERVING | FLAG_COMPLETE);
        assert!(full.bitmap.is_empty());
        let part = claim(Holding::Partial(&[0, 8]), 9, 0).unwrap();
        assert_eq!((part.flags, part.bitmap), (0, vec![0b1, 0b1]));
        let wide = MAX_BITMAP_BYTES as u32 * 8 + 1;
        assert!(claim(Holding::Partial(&[0]), wide, 0).is_none());
        assert!(claim(Holding::Complete, wide, 0).is_some());
    }

    /// A `chunks`-chunk datum whose versions 2.. rewrote `rows[v - 2]`.
    fn chain(chunks: u32, rows: &[Vec<u32>]) -> (ChunkManifest, Vec<VersionedManifest>) {
        let desc = |index| ChunkDescriptor {
            index,
            len: 1,
            crc32: index,
        };
        let data = Auid(7);
        let base = ChunkManifest {
            data,
            chunk_size: 1,
            total: chunks as u64,
            chunks: (0..chunks).map(desc).collect(),
        };
        let rows = rows
            .iter()
            .zip(2u64..)
            .map(|(changed, version)| {
                let mut changed: Vec<u32> = changed.iter().map(|i| i % chunks).collect();
                changed.sort_unstable();
                changed.dedup();
                VersionedManifest {
                    data,
                    version,
                    parent: version - 1,
                    chunk_size: 1,
                    total: chunks as u64,
                    changed: changed.into_iter().map(desc).collect(),
                }
            })
            .collect();
        (base, rows)
    }

    #[test]
    fn a_fully_rewritten_stale_replica_holds_nothing_and_resolves_once() {
        let (base, rows) = chain(2, &[vec![0, 1]]);
        let head = ResolvedVersion::resolve(&base, &rows, 2);
        let complete = claim(Holding::Complete, 2, FLAG_SERVING).unwrap();
        let mut calls = 0;
        let effect = claim_effect(&complete, 1, 2, || {
            calls += 1;
            Some(head.clone())
        });
        assert_eq!((effect, calls), (ClaimEffect::Chunks(Vec::new()), 1));
        // Current claims never resolve the head.
        let at_head = claim_effect(&complete, 2, 2, || unreachable!("not stale"));
        assert_eq!(at_head, ClaimEffect::Owner);
        let unversioned = claim_effect(&complete, 0, 1, || unreachable!("head ≤ 1"));
        assert_eq!(unversioned, ClaimEffect::Owner);
    }

    #[test]
    fn sources_are_endpoints_then_peers_by_id_without_self_or_duplicates() {
        let order = source_order(
            &3,
            vec!["repo.ftp", "repo.http", "repo.ftp"],
            vec![
                (5, "p5"),
                (3, "me"),
                (1, "p1"),
                (5, "p5.again"),
                (2, "repo.http"),
            ],
        );
        assert_eq!(order, vec!["repo.ftp", "repo.http", "p1", "p5"]);
    }

    /// The simulator's instance: no cache entry, download or repair record
    /// of its own, and a partial chunk set as the backend-only fact.
    type Host = HostState<(), (), (), Vec<u32>>;

    #[test]
    fn triage_skips_held_in_flight_and_repairing_data() {
        let datum = |n: u128| (Data::slot(Auid(n), "d", 1), DataAttributes::default());
        let mut host = Host::default();
        host.cache(Auid(1), ());
        host.update(Auid(3), |f| f.in_flight = Some(InFlight::Download(())));
        host.update(Auid(6), |f| f.in_flight = Some(InFlight::Repair(())));
        host.note_held_version(Auid(2), 4);
        let reply = SyncReply {
            keep: vec![Auid(9)],
            delete: vec![Auid(1), Auid(2)],
            download: vec![datum(1), datum(3), datum(4), datum(6)],
            repair: vec![datum(3), datum(5), datum(6)],
        };
        let kept = host.triage(reply);
        let ids = |v: &[(Data, DataAttributes)]| v.iter().map(|(d, _)| d.id).collect::<Vec<_>>();
        assert_eq!(kept.keep, vec![Auid(9)]);
        assert_eq!(kept.delete, vec![Auid(1)]);
        assert_eq!(ids(&kept.download), vec![Auid(4)]);
        assert_eq!(ids(&kept.repair), vec![Auid(5)]);
        host.check();
    }

    #[test]
    fn forget_keeps_only_a_repair_and_drops_empty_entries() {
        let mut host = Host::default();
        let cadence = Cadence::new(10, 2, 8);
        for id in [Auid(1), Auid(2)] {
            host.cache(id, ());
            host.note_held_version(id, 3);
            host.update(id, |f| f.extra = Some(vec![0]));
            host.note_announced(id, 5);
        }
        host.update(Auid(2), |f| f.in_flight = Some(InFlight::Repair(())));
        assert_eq!(host.forget(Auid(1)), Some(()));
        assert_eq!(host.forget(Auid(2)), Some(()));
        assert_eq!(host.forget(Auid(7)), None);
        assert!(host.get(Auid(1)).is_none(), "nothing left of a purge");
        let repair = host.get(Auid(2)).expect("the repair is still reaped");
        assert_eq!(repair.in_flight, Some(InFlight::Repair(())));
        assert_eq!((repair.cached, repair.extra.as_ref()), (None, None));
        assert_eq!((host.in_flight(), host.downloads()), (1, 0));
        host.check();

        // Re-cached within the TTL half-life, the claim is due at once.
        host.cache(Auid(1), ());
        let due: Vec<DataId> = host.claims_due(&cadence, 6).map(|(id, _)| id).collect();
        assert_eq!(due, vec![Auid(1)]);
        host.note_announced(Auid(1), 6);
        assert_eq!(host.claims_due(&cadence, 10).count(), 0);
        assert_eq!(host.claims_due(&cadence, 16).count(), 1);
        // An announce that lands after its datum's purge leaves no time.
        host.note_announced(Auid(9), 6);
        assert!(host.get(Auid(9)).is_none());

        host.update(Auid(2), |f| f.in_flight = None);
        assert!(host.get(Auid(2)).is_none());
        assert_eq!(host.in_flight(), 0);
    }

    #[test]
    fn rounds_are_busy_while_work_is_in_flight_or_just_done() {
        let cadence = Cadence::new(10, 2, 4);
        let mut host = Host::default();
        let kinds: Vec<(bool, bool)> = (0..5)
            .map(|_| host.next_round(&cadence))
            .map(|r| (r.periodic, r.busy))
            .collect();
        assert_eq!(
            kinds,
            [
                (true, false),
                (false, false),
                (false, false),
                (false, false),
                (true, false)
            ]
        );
        host.note_work();
        assert!(host.next_round(&cadence).full(), "work was done");
        assert!(!host.next_round(&cadence).full(), "the flag is spent");
        host.update(Auid(1), |f| f.in_flight = Some(InFlight::Download(())));
        assert!(host.next_round(&cadence).busy);
        host.abandon_transfers();
        assert!(!host.next_round(&cadence).busy);
        assert_eq!(host.rounds(), 9);
        host.check();
    }

    #[test]
    #[should_panic(expected = "cached and downloading")]
    fn check_refuses_a_cached_download() {
        let mut host = Host::default();
        host.update(Auid(1), |f| f.in_flight = Some(InFlight::Download(())));
        host.cache(Auid(1), ());
        host.check();
    }

    /// A scheduler managing the chain's datum, cut into `chunks` chunks.
    fn scheduler(chunks: u32) -> ShardedScheduler {
        let s = ShardedScheduler::new(NonZeroUsize::MIN, 1_000, 64);
        s.schedule(
            Data::slot(Auid(7), "d", chunks as u64),
            DataAttributes::default(),
        );
        s.set_chunk_total(Auid(7), chunks);
        s
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The threaded path (claim → datagram bytes → decode → effect)
        /// and the simulator's (claim → effect) leave the scheduler with
        /// the same Ω and partial holders — the ones the rule predicts.
        #[test]
        fn prop_claim_over_the_wire_matches_the_direct_path(
            chunks in 1u32..65,
            near_cap in any::<bool>(),
            complete in any::<bool>(),
            raw_held in proptest::collection::vec(any::<u32>(), 0..48),
            rows in proptest::collection::vec(proptest::collection::vec(any::<u32>(), 0..8), 0..4),
            behind in 0u64..4,
            serving in any::<bool>(),
        ) {
            // Half the cases straddle the bitmap cap of 4096 chunks.
            let cap = MAX_BITMAP_BYTES as u32 * 8;
            let chunks = if near_cap { cap - 32 + chunks } else { chunks };
            let (base, rows) = chain(chunks, &rows);
            let head = 1 + rows.len() as u64;
            let version = head.saturating_sub(behind);
            let head_rv = ResolvedVersion::resolve(&base, &rows, head);
            let mut held: Vec<u32> = raw_held.iter().map(|i| i % chunks).collect();
            held.sort_unstable();
            held.dedup();
            let holding = if complete { Holding::Complete } else { Holding::Partial(&held) };
            let serving = if serving { FLAG_SERVING } else { 0 };
            let Some(direct) = claim(holding, chunks, serving) else {
                prop_assert!(!complete && chunks as usize > MAX_BITMAP_BYTES * 8);
                return;
            };

            let wire = AnnounceMsg::Announce {
                conn_id: 1,
                host: Auid(2),
                data: Auid(7),
                version,
                ttl_nanos: 1,
                flags: direct.flags,
                bitmap: direct.bitmap.clone(),
            };
            let AnnounceMsg::Announce { version: wire_version, flags, bitmap, .. } =
                AnnounceMsg::from_bytes(&wire.to_bytes()).unwrap()
            else {
                panic!("an announce decodes as an announce");
            };
            let decoded = Claim { flags, bitmap };

            let (sim, threaded) = (scheduler(chunks), scheduler(chunks));
            let host = Auid(2);
            sim.apply_claim(host, Auid(7), claim_effect(&direct, version, head, || Some(head_rv.clone())));
            threaded.apply_claim(
                host,
                Auid(7),
                claim_effect(&decoded, wire_version, head, || Some(head_rv.clone())),
            );
            prop_assert_eq!(sim.owners_of(Auid(7)), threaded.owners_of(Auid(7)));
            prop_assert_eq!(sim.partial_chunk_sets(Auid(7)), threaded.partial_chunk_sets(Auid(7)));

            let stale = head > 1 && version < head;
            let all: Vec<u32> = (0..chunks).collect();
            let expected: Vec<u32> = if complete { &all } else { &held }
                .iter()
                .copied()
                .filter(|&i| !stale || head_rv.birth_of(i).is_some_and(|b| b <= version))
                .collect();
            if (complete && !stale) || expected.len() as u32 == chunks {
                prop_assert_eq!(sim.owners_of(Auid(7)), vec![host]);
                prop_assert!(sim.partial_chunk_sets(Auid(7)).is_empty());
            } else {
                prop_assert!(sim.owners_of(Auid(7)).is_empty());
                prop_assert_eq!(sim.partial_chunk_sets(Auid(7)), vec![(host, expected)]);
            }
        }
    }
}
