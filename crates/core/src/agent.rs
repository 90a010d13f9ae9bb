//! The host agent's decisions, defined once for both backends.
//!
//! Every reservoir host runs the paper's agent loop: heartbeat,
//! synchronize with the Data Scheduler (Algorithm 1), purge, download. The
//! threaded [`BitdewNode`](crate::BitdewNode) and the simulator's
//! [`SimBitdew`](crate::simdriver::SimBitdew) each run that loop over their
//! own state; the choices inside it are the functions below — pure, over
//! plain data, with no locks, no clock and no I/O. A backend gathers the
//! inputs and carries out the answer.
//!
//! 1. [`Cadence`] — the announce TTL, which heartbeat rounds run a full
//!    sync, and when a held datum's claim is due again. Callers:
//!    `BitdewNode::heartbeat_round` and `announce_once`,
//!    `SimBitdew::heartbeat_step` and `announce_refresh`.
//! 2. [`claim`] — what a held datum announces: flags and chunk bitmap.
//!    Callers: `BitdewNode::announce_once`, `SimBitdew::announce_refresh`.
//! 3. [`claim_effect`] — what a claim means for the scheduler: a place in
//!    Ω, or the chunks still valid at the head. Callers: the
//!    [`AnnounceServer`](crate::AnnounceServer) for claims off the wire,
//!    `SimBitdew::announce_refresh` for claims it never encodes.
//! 4. [`source_order`] — where a chunked fetch pulls from. Callers:
//!    `BitdewNode::range_sources`, `SimBitdew::start_chunked_fetch`.
//! 5. [`triage`] — which entries of a sync reply the host acts on.
//!    Callers: `BitdewNode::sync_once`, `SimBitdew::heartbeat_step`.
//!
//! A host whose held version of a datum is unknown claims the head
//! version, on both backends.

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

    /// Whether heartbeat `round` runs a full sync: the periodic round, or
    /// any round while the host is `busy`.
    pub fn full_due(&self, round: u64, busy: bool) -> bool {
        busy || round.is_multiple_of(self.full_sync_every)
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

/// Decision 2: the claim for `holding` of a datum cut into `chunks`
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

/// Decision 3: the effect of `claim`, made at `version`, on a datum whose
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

/// Decision 4: the sources a chunked fetch by host `me` pulls from, in
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

/// Decision 5: the entries of a sync `reply` the host acts on — it purges
/// what it `holds`, fetches a download it neither holds nor is already
/// `fetching`, and repairs a datum it is not already `repairing`.
pub fn triage(
    mut reply: SyncReply,
    holds: impl Fn(DataId) -> bool,
    fetching: impl Fn(DataId) -> bool,
    repairing: impl Fn(DataId) -> bool,
) -> SyncReply {
    reply.delete.retain(|&id| holds(id));
    reply
        .download
        .retain(|(d, _)| !holds(d.id) && !fetching(d.id));
    reply.repair.retain(|(d, _)| !repairing(d.id));
    reply
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
        assert!((0..5).all(|round| c.full_due(round, false)));
        assert_eq!(Cadence::new(u64::MAX, 2, 1).ttl(), u64::MAX);

        let c = Cadence::new(10, 2, 8);
        assert!(c.full_due(0, false) && c.full_due(16, false));
        assert!(!c.full_due(9, false) && c.full_due(9, true));
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

    #[test]
    fn triage_skips_held_in_flight_and_repairing_data() {
        let datum = |n: u128| (Data::slot(Auid(n), "d", 1), DataAttributes::default());
        let reply = SyncReply {
            keep: vec![Auid(9)],
            delete: vec![Auid(1), Auid(2)],
            download: vec![datum(1), datum(3), datum(4)],
            repair: vec![datum(5), datum(6)],
        };
        let kept = triage(
            reply,
            |id| id == Auid(1),
            |id| id == Auid(3),
            |id| id == Auid(6),
        );
        let ids = |v: &[(Data, DataAttributes)]| v.iter().map(|(d, _)| d.id).collect::<Vec<_>>();
        assert_eq!(kept.keep, vec![Auid(9)]);
        assert_eq!(kept.delete, vec![Auid(1)]);
        assert_eq!(ids(&kept.download), vec![Auid(4)]);
        assert_eq!(ids(&kept.repair), vec![Auid(5)]);
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
