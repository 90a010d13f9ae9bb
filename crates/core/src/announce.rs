//! The discovery plane: compact UDP announce, TTL host cache, peer scrape.
//!
//! BitDew's DC/DR services learn about replicas and liveness through full
//! catalog round-trips on every heartbeat — the fan-out bottleneck on the
//! road to millions of reservoir hosts. BEP-15 (the UDP tracker protocol)
//! shows the proven alternative shape: one connectionless binary datagram
//! carries everything a scheduler needs — identity, what you hold, and a
//! TTL — and peers scrape each other's replica lists without touching the
//! authoritative store. This module is that plane:
//!
//! * [`AnnounceMsg`] — the fixed-layout binary codec (magic + kind byte +
//!   little-endian fields via the [`bitdew_storage`] codec). Five messages:
//!   `Connect`/`ConnectReply` (the BEP-15 connection-id handshake, so
//!   replies only ever go to verified source addresses), `Announce` (host
//!   uid, data auid, datum version, chunk bitmap, TTL), and
//!   `Scrape`/`ScrapeReply` (peer lists per datum). Decoding arbitrary
//!   bytes returns `Err` — never panics, never over-reads, never
//!   allocates past the wire caps.
//!
//! Since the version plane (see [`crate::versions`]), every announce also
//! carries the datum version the claim is for: a holder announcing an
//! older version than the current head is a *stale-version holder* — the
//! server credits it only with the chunks unchanged since its version
//! (`agent::claim_effect`, the rule the simulator applies too), keeps it
//! out of Ω, and drops it from scrape replies, so it reads as a repair
//! target instead of a serving replica.
//! * [`HostCache`] — the TTL-expiring aggregation of received announces.
//!   Entries age out on a deadline index instead of waiting for catalog
//!   sync; the sweep feeds evictions back into the scheduler's Ω /
//!   partial-holder bookkeeping.
//! * [`AnnounceServer`] — per-service listener threads
//!   (`bitdew-announce-{i}`) draining the shared socket: handshakes,
//!   verified announces into the cache + scheduler
//!   ([`touch_host`](crate::ShardedScheduler::touch_host) for liveness,
//!   [`announce_owner`](crate::ShardedScheduler::announce_owner) for
//!   complete replicas, chunk-set reports for partial bitmaps), and scrape
//!   service. Counters land in [`SyncProfile`](crate::shard::SyncProfile).
//! * [`AnnounceClient`] — a node-side socket that handshakes once, then
//!   emits one datagram per held datum alongside — then instead of — the
//!   TCP catalog sync (see `BitdewNode`'s heartbeat), and scrapes peers to
//!   discover fetch sources without a catalog query.
//!
//! Everything degrades: a down datagram plane fails the client's sends
//! fast, and the runtime falls back to the TCP catalog sync with nothing
//! lost but efficiency.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use bytes::{Bytes, BytesMut};
use parking_lot::Mutex;

use bitdew_storage::codec::{decode_vec, encode_vec, CodecError, Decode, Encode};
use bitdew_transport::{Fabric, UdpSocket};
use bitdew_util::Auid;

use crate::agent::{self, Claim};
use crate::api::{BitdewError, Result};
use crate::data::DataId;
use crate::services::scheduler::HostUid;
use crate::shard::ShardedPlane;

/// The well-known datagram address every announce server listens on.
pub const ANNOUNCE_ENDPOINT: &str = "announce.udp";

/// Magic prefix of every announce-plane datagram; anything else is noise
/// and is dropped before further parsing.
pub const ANNOUNCE_MAGIC: u32 = 0xB17D_EE08;

/// Wire cap on the chunk bitmap (512 bytes = 4096 chunks). Data chunked
/// finer than this announce without a bitmap (complete replicas only);
/// decode rejects larger claims as corrupt before allocating.
pub const MAX_BITMAP_BYTES: usize = 512;

/// Wire cap on hosts per scrape reply (keeps the reply in one comfortable
/// datagram; BEP-15 replies are similarly bounded by packet size).
pub const MAX_SCRAPE_HOSTS: usize = 64;

/// `Announce.flags` bit: the host serves peer range requests (its FTP
/// endpoint is up), so scrapers may fetch from it.
pub const FLAG_SERVING: u8 = 1;

/// `Announce.flags` bit: the host holds every chunk of the datum (a
/// complete replica — enters Ω). Without it the bitmap says which chunks.
pub const FLAG_COMPLETE: u8 = 2;

/// The nil data id: an announce for it is a pure liveness ping (refreshes
/// `last_seen` without claiming any holding).
pub const LIVENESS_PING: DataId = Auid(0);

const KIND_CONNECT: u8 = 0;
const KIND_CONNECT_REPLY: u8 = 1;
const KIND_ANNOUNCE: u8 = 2;
const KIND_SCRAPE: u8 = 3;
const KIND_SCRAPE_REPLY: u8 = 4;

/// One announce-plane datagram. See the module docs for the roles; the
/// wire layout is `magic:u32 | kind:u8 | fields…`, all little-endian via
/// the storage codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnnounceMsg {
    /// Handshake request: "give me a connection id".
    Connect {
        /// Caller-chosen transaction id echoed in the reply.
        txid: u64,
    },
    /// Handshake reply carrying the connection id bound to the requester's
    /// source address.
    ConnectReply {
        /// Echo of the request's transaction id.
        txid: u64,
        /// The id to present in subsequent `Announce`/`Scrape` datagrams.
        conn_id: u64,
    },
    /// "Host `host` holds (some of) `data` for the next `ttl_nanos`."
    Announce {
        /// The connection id from the handshake (verified against the
        /// datagram's source address).
        conn_id: u64,
        /// The announcing host.
        host: HostUid,
        /// The datum announced, or [`LIVENESS_PING`] for a bare liveness
        /// refresh.
        data: DataId,
        /// The datum version the held chunks belong to (0 for unversioned
        /// data and liveness pings). A holder announcing an old version is
        /// a repair target, not a serving replica for the head.
        version: u64,
        /// How long the claim stays fresh without a re-announce.
        ttl_nanos: u64,
        /// [`FLAG_SERVING`] | [`FLAG_COMPLETE`].
        flags: u8,
        /// Held-chunk bitmap (LSB-first within each byte), empty for
        /// complete replicas and unchunked data. At most
        /// [`MAX_BITMAP_BYTES`].
        bitmap: Vec<u8>,
    },
    /// "Who holds `data`?"
    Scrape {
        /// The connection id from the handshake.
        conn_id: u64,
        /// Caller-chosen transaction id echoed in the reply.
        txid: u64,
        /// The datum asked about.
        data: DataId,
    },
    /// The hosts currently announcing `data`, with their flags.
    ScrapeReply {
        /// Echo of the request's transaction id.
        txid: u64,
        /// The datum asked about.
        data: DataId,
        /// `(host, flags)` per live cache entry, at most
        /// [`MAX_SCRAPE_HOSTS`].
        hosts: Vec<(HostUid, u8)>,
    },
}

impl Encode for AnnounceMsg {
    fn encode(&self, buf: &mut BytesMut) {
        ANNOUNCE_MAGIC.encode(buf);
        match self {
            AnnounceMsg::Connect { txid } => {
                KIND_CONNECT.encode(buf);
                txid.encode(buf);
            }
            AnnounceMsg::ConnectReply { txid, conn_id } => {
                KIND_CONNECT_REPLY.encode(buf);
                txid.encode(buf);
                conn_id.encode(buf);
            }
            AnnounceMsg::Announce {
                conn_id,
                host,
                data,
                version,
                ttl_nanos,
                flags,
                bitmap,
            } => {
                KIND_ANNOUNCE.encode(buf);
                conn_id.encode(buf);
                host.encode(buf);
                data.encode(buf);
                version.encode(buf);
                ttl_nanos.encode(buf);
                flags.encode(buf);
                // The wire cap holds by construction for protocol-built
                // messages; enforce it for hand-built ones too, so every
                // encoded datagram round-trips.
                let cut = bitmap.len().min(MAX_BITMAP_BYTES);
                bitmap[..cut].to_vec().encode(buf);
            }
            AnnounceMsg::Scrape {
                conn_id,
                txid,
                data,
            } => {
                KIND_SCRAPE.encode(buf);
                conn_id.encode(buf);
                txid.encode(buf);
                data.encode(buf);
            }
            AnnounceMsg::ScrapeReply { txid, data, hosts } => {
                KIND_SCRAPE_REPLY.encode(buf);
                txid.encode(buf);
                data.encode(buf);
                let cut = hosts.len().min(MAX_SCRAPE_HOSTS);
                encode_vec(&hosts[..cut], buf);
            }
        }
    }
}

impl Decode for AnnounceMsg {
    fn decode(buf: &mut Bytes) -> std::result::Result<Self, CodecError> {
        if u32::decode(buf)? != ANNOUNCE_MAGIC {
            return Err(CodecError::Corrupt("announce magic"));
        }
        match u8::decode(buf)? {
            KIND_CONNECT => Ok(AnnounceMsg::Connect {
                txid: u64::decode(buf)?,
            }),
            KIND_CONNECT_REPLY => Ok(AnnounceMsg::ConnectReply {
                txid: u64::decode(buf)?,
                conn_id: u64::decode(buf)?,
            }),
            KIND_ANNOUNCE => {
                let conn_id = u64::decode(buf)?;
                let host = Auid::decode(buf)?;
                let data = Auid::decode(buf)?;
                let version = u64::decode(buf)?;
                let ttl_nanos = u64::decode(buf)?;
                let flags = u8::decode(buf)?;
                let bitmap = Vec::<u8>::decode(buf)?;
                if bitmap.len() > MAX_BITMAP_BYTES {
                    return Err(CodecError::Corrupt("announce bitmap too large"));
                }
                Ok(AnnounceMsg::Announce {
                    conn_id,
                    host,
                    data,
                    version,
                    ttl_nanos,
                    flags,
                    bitmap,
                })
            }
            KIND_SCRAPE => Ok(AnnounceMsg::Scrape {
                conn_id: u64::decode(buf)?,
                txid: u64::decode(buf)?,
                data: Auid::decode(buf)?,
            }),
            KIND_SCRAPE_REPLY => {
                let txid = u64::decode(buf)?;
                let data = Auid::decode(buf)?;
                let hosts: Vec<(Auid, u8)> = decode_vec(buf)?;
                if hosts.len() > MAX_SCRAPE_HOSTS {
                    return Err(CodecError::Corrupt("scrape reply too large"));
                }
                Ok(AnnounceMsg::ScrapeReply { txid, data, hosts })
            }
            _ => Err(CodecError::Corrupt("announce kind")),
        }
    }
}

/// Pack held chunk indices into an LSB-first bitmap of `total` chunks.
/// `None` when the datum is chunked finer than the wire cap — such data
/// announce complete replicas only.
pub fn chunk_bitmap(held: &[u32], total: u32) -> Option<Vec<u8>> {
    let bytes = (total as usize).div_ceil(8);
    if bytes > MAX_BITMAP_BYTES {
        return None;
    }
    let mut v = vec![0u8; bytes];
    for &c in held {
        if c < total {
            v[(c / 8) as usize] |= 1 << (c % 8);
        }
    }
    Some(v)
}

/// The chunk indices set in a bitmap (inverse of [`chunk_bitmap`]).
pub fn bitmap_indices(bitmap: &[u8]) -> Vec<u32> {
    let mut v = Vec::new();
    for (i, byte) in bitmap.iter().enumerate() {
        for bit in 0..8 {
            if byte & (1 << bit) != 0 {
                v.push((i * 8 + bit) as u32);
            }
        }
    }
    v
}

/// FNV-1a over the source address, keyed by the server's boot secret: the
/// connection id a source must echo for its announces to count. Spoofing a
/// victim's address gains nothing — the reply carrying the id goes to the
/// real address, exactly the BEP-15 argument.
fn conn_id_for(secret: u64, addr: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ secret;
    for b in addr.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// One live claim in the [`HostCache`].
#[derive(Debug, Clone, Copy)]
struct CacheEntry {
    expires: u64,
    flags: u8,
    version: u64,
}

/// TTL-expiring aggregation of received announces: who claims to hold
/// what, for how much longer. A deadline index makes the sweep visit only
/// actually-expired entries, so 100k announcing hosts cost nothing per
/// sweep in the steady state.
#[derive(Default)]
pub struct HostCache {
    entries: HashMap<(HostUid, DataId), CacheEntry>,
    by_data: HashMap<DataId, BTreeSet<HostUid>>,
    expiry: BTreeSet<(u64, HostUid, DataId)>,
}

impl HostCache {
    /// A fresh, empty cache.
    pub fn new() -> HostCache {
        HostCache::default()
    }

    /// Record (or refresh) `host`'s claim on `data` until `expires`.
    /// `version` is the datum version the claim is for (0 = unversioned).
    pub fn insert(&mut self, host: HostUid, data: DataId, expires: u64, flags: u8, version: u64) {
        if let Some(old) = self.entries.insert(
            (host, data),
            CacheEntry {
                expires,
                flags,
                version,
            },
        ) {
            self.expiry.remove(&(old.expires, host, data));
        }
        self.expiry.insert((expires, host, data));
        self.by_data.entry(data).or_default().insert(host);
    }

    /// Expire every claim whose deadline passed; returns the evicted
    /// `(host, data)` pairs so the caller can feed the scheduler.
    pub fn sweep(&mut self, now: u64) -> Vec<(HostUid, DataId)> {
        let mut evicted = Vec::new();
        while let Some(&(t, host, data)) = self.expiry.iter().next() {
            if t >= now {
                break;
            }
            self.expiry.remove(&(t, host, data));
            self.entries.remove(&(host, data));
            if let Some(hs) = self.by_data.get_mut(&data) {
                hs.remove(&host);
                if hs.is_empty() {
                    self.by_data.remove(&data);
                }
            }
            evicted.push((host, data));
        }
        evicted
    }

    /// The hosts with a live claim on `data` at `now`, with their announce
    /// flags and announced version (sorted by host for determinism).
    pub fn holders(&self, data: DataId, now: u64) -> Vec<(HostUid, u8, u64)> {
        self.by_data
            .get(&data)
            .map(|hs| {
                hs.iter()
                    .filter_map(|&h| {
                        let e = self.entries.get(&(h, data))?;
                        (e.expires >= now).then_some((h, e.flags, e.version))
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    /// The hosts whose live claim on `data` is current for version `head`:
    /// claims announcing an older version than a mutated datum's head
    /// (`head > 1`) are stale-version holders — repair targets, never
    /// serving replicas — and are excluded.
    pub fn head_holders(&self, data: DataId, now: u64, head: u64) -> Vec<(HostUid, u8)> {
        self.holders(data, now)
            .into_iter()
            .filter_map(|(h, flags, version)| (head <= 1 || version >= head).then_some((h, flags)))
            .collect()
    }

    /// Live claims currently cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no claim is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Monotonic counters of one [`AnnounceServer`]'s lifetime, mirrored into
/// [`SyncProfile`](crate::shard::SyncProfile) by the driving runtime.
#[derive(Default)]
pub struct AnnounceStats {
    announces_rx: AtomicU64,
    scrapes_served: AtomicU64,
    cache_evictions: AtomicU64,
}

impl AnnounceStats {
    /// Verified announce datagrams accepted.
    pub fn announces_rx(&self) -> u64 {
        self.announces_rx.load(Ordering::Relaxed)
    }

    /// Scrape requests answered.
    pub fn scrapes_served(&self) -> u64 {
        self.scrapes_served.load(Ordering::Relaxed)
    }

    /// Cache entries the TTL sweep expired.
    pub fn cache_evictions(&self) -> u64 {
        self.cache_evictions.load(Ordering::Relaxed)
    }
}

/// The service-side announce plane: listener threads aggregating datagrams
/// into the [`HostCache`] and the scheduler's Ω/partial bookkeeping.
/// Stopped (threads joined) on drop.
pub struct AnnounceServer {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    stats: Arc<AnnounceStats>,
    cache: Arc<Mutex<HostCache>>,
}

impl AnnounceServer {
    /// Bind [`ANNOUNCE_ENDPOINT`] on the fabric's datagram plane and spawn
    /// `listeners` threads (`bitdew-announce-{i}`) draining it into
    /// `plane`'s scheduler. `clock` supplies the same nanosecond timeline
    /// the failure detector uses. Thread-spawn failure is reported as
    /// [`BitdewError::Spawn`]; already-spawned listeners are stopped.
    pub fn start(
        fabric: &Fabric,
        plane: Arc<ShardedPlane>,
        clock: Arc<dyn Fn() -> u64 + Send + Sync>,
        listeners: usize,
    ) -> Result<AnnounceServer> {
        let socket = Arc::new(fabric.udp().bind(ANNOUNCE_ENDPOINT));
        let secret = Auid::random().fold64();
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(AnnounceStats::default());
        let cache = Arc::new(Mutex::new(HostCache::new()));
        let mut threads = Vec::new();
        for i in 0..listeners.max(1) {
            let socket = Arc::clone(&socket);
            let plane = Arc::clone(&plane);
            let clock = Arc::clone(&clock);
            let stop2 = Arc::clone(&stop);
            let stats = Arc::clone(&stats);
            let cache = Arc::clone(&cache);
            let spawned = std::thread::Builder::new()
                .name(format!("bitdew-announce-{i}"))
                .spawn(move || {
                    while !stop2.load(Ordering::Acquire) {
                        let dg = socket.recv_timeout(Duration::from_millis(10));
                        let now = clock();
                        if let Some(dg) = dg {
                            Self::handle(&socket, &plane, &stats, &cache, secret, now, dg);
                        }
                        // TTL sweep: O(1) when nothing expired (deadline
                        // index), so running it every wake-up is free.
                        let evicted = cache.lock().sweep(now);
                        for (host, data) in evicted {
                            stats.cache_evictions.fetch_add(1, Ordering::Relaxed);
                            plane.scheduler().drop_host_holding(host, data);
                        }
                    }
                })
                .map_err(|e| BitdewError::Spawn {
                    what: format!("bitdew-announce-{i}: {e}"),
                });
            match spawned {
                Ok(h) => threads.push(h),
                Err(e) => {
                    stop.store(true, Ordering::Release);
                    for h in threads {
                        let _ = h.join();
                    }
                    return Err(e);
                }
            }
        }
        Ok(AnnounceServer {
            stop,
            threads,
            stats,
            cache,
        })
    }

    fn handle(
        socket: &UdpSocket,
        plane: &ShardedPlane,
        stats: &AnnounceStats,
        cache: &Mutex<HostCache>,
        secret: u64,
        now: u64,
        dg: bitdew_transport::Datagram,
    ) {
        // Noise, truncation, corruption: drop, never panic (the codec
        // bounds every read).
        let Ok(msg) = AnnounceMsg::from_bytes(&dg.payload) else {
            return;
        };
        let expected = conn_id_for(secret, &dg.from);
        match msg {
            AnnounceMsg::Connect { txid } => {
                let reply = AnnounceMsg::ConnectReply {
                    txid,
                    conn_id: expected,
                };
                socket.send_to(&dg.from, reply.to_bytes());
            }
            AnnounceMsg::Announce {
                conn_id,
                host,
                data,
                version,
                ttl_nanos,
                flags,
                bitmap,
            } => {
                if conn_id != expected {
                    return;
                }
                stats.announces_rx.fetch_add(1, Ordering::Relaxed);
                let scheduler = plane.scheduler();
                scheduler.touch_host(host, now);
                if data == LIVENESS_PING {
                    return;
                }
                let expires = now.saturating_add(ttl_nanos);
                cache.lock().insert(host, data, expires, flags, version);
                let head_rv = plane.head(data).ok().flatten();
                let head = head_rv.as_ref().map_or(0, |h| h.version);
                let effect = agent::claim_effect(&Claim { flags, bitmap }, version, head, || {
                    head_rv.map(|h| (*h).clone())
                });
                scheduler.apply_claim(host, data, effect);
            }
            AnnounceMsg::Scrape {
                conn_id,
                txid,
                data,
            } => {
                if conn_id != expected {
                    return;
                }
                stats.scrapes_served.fetch_add(1, Ordering::Relaxed);
                // Scrapers want fetch sources for the head version: a
                // stale-version holder would serve superseded bytes, so it
                // never makes the reply.
                let head = plane.version_head(data).unwrap_or(0);
                let mut hosts = cache.lock().head_holders(data, now, head);
                hosts.truncate(MAX_SCRAPE_HOSTS);
                let reply = AnnounceMsg::ScrapeReply { txid, data, hosts };
                socket.send_to(&dg.from, reply.to_bytes());
            }
            // Reply kinds are client-bound; a server ignores them.
            AnnounceMsg::ConnectReply { .. } | AnnounceMsg::ScrapeReply { .. } => {}
        }
    }

    /// The server's lifetime counters.
    pub fn stats(&self) -> &Arc<AnnounceStats> {
        &self.stats
    }

    /// Live claims currently cached (test/diagnostic visibility).
    pub fn cached_claims(&self) -> usize {
        self.cache.lock().len()
    }

    /// The hosts with a live claim on `data` at `now`, with flags and
    /// announced version (serving-side cache view; a scrape additionally
    /// filters stale-version holders against the head).
    pub fn holders(&self, data: DataId, now: u64) -> Vec<(HostUid, u8, u64)> {
        self.cache.lock().holders(data, now)
    }

    /// Signal the listener threads and join them.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Release);
        for h in self.threads.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for AnnounceServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The node-side announce socket: one BEP-15 handshake at construction,
/// then fire-and-forget announces and blocking scrapes.
pub struct AnnounceClient {
    socket: UdpSocket,
    conn_id: u64,
    txid: AtomicU64,
}

impl AnnounceClient {
    /// Bind `addr` on the fabric's datagram plane and handshake with the
    /// announce server. `None` when the plane is down or the handshake
    /// datagrams were lost within `timeout` — the caller falls back to the
    /// TCP path and may retry on a later heartbeat.
    pub fn connect(fabric: &Fabric, addr: &str, timeout: Duration) -> Option<AnnounceClient> {
        let socket = fabric.udp().bind(addr);
        let txid = Auid::random().fold64();
        let req = AnnounceMsg::Connect { txid };
        if !socket.send_to(ANNOUNCE_ENDPOINT, req.to_bytes()) {
            return None;
        }
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let left = deadline.checked_duration_since(std::time::Instant::now())?;
            let dg = socket.recv_timeout(left)?;
            if let Ok(AnnounceMsg::ConnectReply { txid: t, conn_id }) =
                AnnounceMsg::from_bytes(&dg.payload)
            {
                if t == txid {
                    return Some(AnnounceClient {
                        socket,
                        conn_id,
                        txid: AtomicU64::new(txid),
                    });
                }
            }
        }
    }

    /// Fire one announce datagram claiming (chunks of) `data` at
    /// `version` (0 for unversioned data and liveness pings). Returns
    /// `false` only when the datagram plane is down (the
    /// fall-back-to-TCP signal); in-flight loss is silent, like UDP.
    pub fn announce(
        &self,
        host: HostUid,
        data: DataId,
        version: u64,
        ttl_nanos: u64,
        flags: u8,
        bitmap: Vec<u8>,
    ) -> bool {
        let msg = AnnounceMsg::Announce {
            conn_id: self.conn_id,
            host,
            data,
            version,
            ttl_nanos,
            flags,
            bitmap,
        };
        self.socket.send_to(ANNOUNCE_ENDPOINT, msg.to_bytes())
    }

    /// Ask the server who holds `data`; `None` on datagram loss or
    /// timeout (the caller keeps its catalog-derived sources).
    pub fn scrape(&self, data: DataId, timeout: Duration) -> Option<Vec<(HostUid, u8)>> {
        let txid = self.txid.fetch_add(1, Ordering::Relaxed).wrapping_add(1);
        let req = AnnounceMsg::Scrape {
            conn_id: self.conn_id,
            txid,
            data,
        };
        if !self.socket.send_to(ANNOUNCE_ENDPOINT, req.to_bytes()) {
            return None;
        }
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let left = deadline.checked_duration_since(std::time::Instant::now())?;
            let dg = self.socket.recv_timeout(left)?;
            if let Ok(AnnounceMsg::ScrapeReply {
                txid: t,
                data: d,
                hosts,
            }) = AnnounceMsg::from_bytes(&dg.payload)
            {
                if t == txid && d == data {
                    return Some(hosts);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(msg: AnnounceMsg) {
        let bytes = msg.to_bytes();
        assert_eq!(AnnounceMsg::from_bytes(&bytes).expect("decode"), msg);
    }

    #[test]
    fn codec_roundtrips_every_kind() {
        roundtrip(AnnounceMsg::Connect { txid: 7 });
        roundtrip(AnnounceMsg::ConnectReply {
            txid: 7,
            conn_id: u64::MAX,
        });
        roundtrip(AnnounceMsg::Announce {
            conn_id: 1,
            host: Auid(42),
            data: Auid(43),
            version: 3,
            ttl_nanos: 1_000_000_000,
            flags: FLAG_SERVING | FLAG_COMPLETE,
            bitmap: vec![0b1010_0101, 0xff],
        });
        roundtrip(AnnounceMsg::Scrape {
            conn_id: 2,
            txid: 9,
            data: Auid(44),
        });
        roundtrip(AnnounceMsg::ScrapeReply {
            txid: 9,
            data: Auid(44),
            hosts: vec![(Auid(1), FLAG_SERVING), (Auid(2), 0)],
        });
    }

    #[test]
    fn decode_rejects_wrong_magic_kind_and_caps() {
        let mut bytes = AnnounceMsg::Connect { txid: 1 }.to_bytes().to_vec();
        bytes[0] ^= 0xff;
        assert!(AnnounceMsg::from_bytes(&bytes).is_err(), "magic");

        let mut bytes = AnnounceMsg::Connect { txid: 1 }.to_bytes().to_vec();
        bytes[4] = 250;
        assert!(AnnounceMsg::from_bytes(&bytes).is_err(), "kind");

        // A hand-built datagram claiming a bitmap past the wire cap: the
        // length prefix alone must reject it before any allocation.
        let mut buf = BytesMut::new();
        ANNOUNCE_MAGIC.encode(&mut buf);
        KIND_ANNOUNCE.encode(&mut buf);
        1u64.encode(&mut buf);
        Auid(1).encode(&mut buf);
        Auid(2).encode(&mut buf);
        1u64.encode(&mut buf);
        1u64.encode(&mut buf);
        0u8.encode(&mut buf);
        vec![0u8; MAX_BITMAP_BYTES + 1].encode(&mut buf);
        assert!(AnnounceMsg::from_bytes(&buf).is_err(), "bitmap cap");
    }

    #[test]
    fn encode_caps_oversized_fields() {
        // Hand-built oversized messages still encode to decodable wire
        // bytes (truncated at the cap) — the codec never emits a datagram
        // it would itself reject.
        let msg = AnnounceMsg::Announce {
            conn_id: 1,
            host: Auid(1),
            data: Auid(2),
            version: 0,
            ttl_nanos: 1,
            flags: 0,
            bitmap: vec![0xAA; MAX_BITMAP_BYTES + 100],
        };
        match AnnounceMsg::from_bytes(&msg.to_bytes()).expect("decode") {
            AnnounceMsg::Announce { bitmap, .. } => assert_eq!(bitmap.len(), MAX_BITMAP_BYTES),
            other => panic!("wrong kind: {other:?}"),
        }
        let msg = AnnounceMsg::ScrapeReply {
            txid: 1,
            data: Auid(2),
            hosts: vec![(Auid(9), 0); MAX_SCRAPE_HOSTS + 5],
        };
        match AnnounceMsg::from_bytes(&msg.to_bytes()).expect("decode") {
            AnnounceMsg::ScrapeReply { hosts, .. } => assert_eq!(hosts.len(), MAX_SCRAPE_HOSTS),
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn bitmap_helpers_invert() {
        let held = vec![0, 3, 8, 15, 30];
        let bm = chunk_bitmap(&held, 31).expect("fits");
        assert_eq!(bm.len(), 4);
        assert_eq!(bitmap_indices(&bm), held);
        // Out-of-range indices are dropped, finer-than-cap data refused.
        let bm = chunk_bitmap(&[2, 99], 8).expect("fits");
        assert_eq!(bitmap_indices(&bm), vec![2]);
        assert!(chunk_bitmap(&[0], MAX_BITMAP_BYTES as u32 * 8 + 1).is_none());
    }

    #[test]
    fn host_cache_refresh_and_sweep() {
        let mut cache = HostCache::new();
        let (h1, h2, d) = (Auid(1), Auid(2), Auid(10));
        cache.insert(h1, d, 100, FLAG_SERVING, 1);
        cache.insert(h2, d, 200, FLAG_COMPLETE, 1);
        assert_eq!(cache.len(), 2);
        assert_eq!(
            cache.holders(d, 50),
            vec![(h1, FLAG_SERVING, 1), (h2, FLAG_COMPLETE, 1)]
        );
        // Refresh moves the deadline — no double expiry entry.
        cache.insert(h1, d, 300, FLAG_SERVING | FLAG_COMPLETE, 2);
        assert!(cache.sweep(150).is_empty(), "refreshed entry survives");
        assert_eq!(cache.sweep(250), vec![(h2, d)]);
        assert_eq!(
            cache.holders(d, 250),
            vec![(h1, FLAG_SERVING | FLAG_COMPLETE, 2)]
        );
        assert_eq!(cache.sweep(1000), vec![(h1, d)]);
        assert!(cache.is_empty());
    }

    #[test]
    fn head_holders_excludes_stale_version_claims() {
        let mut cache = HostCache::new();
        let (fresh, stale, unversioned, d) = (Auid(1), Auid(2), Auid(3), Auid(10));
        cache.insert(fresh, d, 100, FLAG_COMPLETE | FLAG_SERVING, 3);
        cache.insert(stale, d, 100, FLAG_COMPLETE | FLAG_SERVING, 2);
        cache.insert(unversioned, d, 100, FLAG_SERVING, 0);
        // Mutated datum (head 3): only the head-version claim serves.
        assert_eq!(
            cache.head_holders(d, 50, 3),
            vec![(fresh, FLAG_COMPLETE | FLAG_SERVING)]
        );
        // Unmutated datum (head ≤ 1): versions don't exist yet, nothing
        // is demoted.
        assert_eq!(cache.head_holders(d, 50, 1).len(), 3);
        assert_eq!(cache.head_holders(d, 50, 0).len(), 3);
    }

    #[test]
    fn conn_id_is_address_bound() {
        let secret = 0xDEAD_BEEF;
        assert_eq!(conn_id_for(secret, "peer.a"), conn_id_for(secret, "peer.a"));
        assert_ne!(conn_id_for(secret, "peer.a"), conn_id_for(secret, "peer.b"));
        assert_ne!(conn_id_for(secret, "peer.a"), conn_id_for(1, "peer.a"));
    }

    proptest! {
        #[test]
        fn prop_codec_roundtrip_announce(
            conn_id in any::<u64>(),
            host in any::<u128>(),
            data in any::<u128>(),
            version in any::<u64>(),
            ttl in any::<u64>(),
            flags in any::<u8>(),
            bitmap in proptest::collection::vec(any::<u8>(), 0..MAX_BITMAP_BYTES),
        ) {
            roundtrip(AnnounceMsg::Announce {
                conn_id,
                host: Auid(host),
                data: Auid(data),
                version,
                ttl_nanos: ttl,
                flags,
                bitmap,
            });
        }

        #[test]
        fn prop_codec_roundtrip_control(
            txid in any::<u64>(),
            conn_id in any::<u64>(),
            data in any::<u128>(),
            hosts in proptest::collection::vec((any::<u128>(), any::<u8>()), 0..MAX_SCRAPE_HOSTS),
        ) {
            roundtrip(AnnounceMsg::Connect { txid });
            roundtrip(AnnounceMsg::ConnectReply { txid, conn_id });
            roundtrip(AnnounceMsg::Scrape { conn_id, txid, data: Auid(data) });
            roundtrip(AnnounceMsg::ScrapeReply {
                txid,
                data: Auid(data),
                hosts: hosts.into_iter().map(|(h, f)| (Auid(h), f)).collect(),
            });
        }

        #[test]
        fn prop_decode_garbage_never_panics(v in proptest::collection::vec(any::<u8>(), 0..256)) {
            // Arbitrary datagrams: Ok or Err, never a panic, never an
            // over-read (the codec bounds-checks), never a huge allocation
            // (length caps).
            let _ = AnnounceMsg::from_bytes(&v);
        }

        #[test]
        fn prop_decode_truncation_errors(
            txid in any::<u64>(),
            data in any::<u128>(),
            cut in 1usize..16,
        ) {
            // Truncating any valid datagram makes it decode to Err — the
            // codec never fabricates a message from a partial read.
            let full = AnnounceMsg::Scrape { conn_id: 1, txid, data: Auid(data) }.to_bytes();
            let cut = cut.min(full.len());
            prop_assert!(AnnounceMsg::from_bytes(&full[..full.len() - cut]).is_err());
        }

        #[test]
        fn prop_bitmap_roundtrip(
            raw in proptest::collection::vec(0u32..4096, 0..64),
            extra in 0u32..64,
        ) {
            let held: Vec<u32> = raw
                .into_iter()
                .collect::<std::collections::BTreeSet<u32>>()
                .into_iter()
                .collect();
            let total = held.iter().max().copied().unwrap_or(0) + extra + 1;
            if let Some(bm) = chunk_bitmap(&held, total) {
                prop_assert_eq!(bitmap_indices(&bm), held);
            }
        }
    }
}
