//! BitTorrent-like collaborative distribution for the threaded runtime.
//!
//! The original BitDew drove real BitTorrent (Azureus as a library, BTPD as
//! a daemon, §3.4.2). This module rebuilds the protocol's load-bearing core
//! in-process:
//!
//! * a [`Torrent`] descriptor with per-piece MD5 hashes (the .torrent file);
//! * a [`Tracker`] daemon handing out peer lists;
//! * [`BtPeer`] daemons that *serve* pieces they hold — seeders and leechers
//!   alike, so replicas multiply the swarm's aggregate upload capacity;
//! * a leecher engine with **rarest-first piece selection**, a configurable
//!   number of parallel request workers, per-piece hash verification, and
//!   retry-on-choke — the mechanisms behind BitTorrent's near-flat scaling
//!   in Fig. 3a/5;
//! * upload-slot limiting (choking): peers refuse requests beyond
//!   `max_upload_slots`, the paper's observed BitTorrent politeness.
//!
//! Deliberate simplifications: peer wire messages
//! ride one fabric connection per request instead of a persistent stream,
//! and optimistic-unchoke rotation is replaced by random peer choice among
//! holders — neither affects the properties the evaluation measures.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use bitdew_util::md5::{md5, Md5Digest};

use crate::fabric::{Fabric, FabricError};
use crate::oob::{
    DaemonConnector, NonBlockingOobTransfer, OobTransfer, TransferStatus, TransferVerdict,
    TransportError, TransportResult,
};
use crate::store::FileStore;

/// Default piece size: 256 KiB (the BitTorrent classic).
pub const DEFAULT_PIECE: u64 = 256 * 1024;

/// Torrent metadata — the `.torrent` equivalent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Torrent {
    /// Content name (also the object name in stores).
    pub name: String,
    /// Total bytes.
    pub size: u64,
    /// Piece length in bytes (last piece may be shorter).
    pub piece_size: u64,
    /// MD5 of each piece, in order.
    pub piece_hashes: Vec<Md5Digest>,
    /// Tracker listener name on the fabric.
    pub tracker: String,
}

impl Torrent {
    /// Build a torrent for `name` in `store`.
    pub fn describe(
        store: &dyn FileStore,
        name: &str,
        piece_size: u64,
        tracker: &str,
    ) -> TransportResult<Torrent> {
        assert!(piece_size > 0, "piece size must be positive");
        let size = store.size(name)?;
        let mut hashes = Vec::new();
        let mut off = 0u64;
        while off < size {
            let len = piece_size.min(size - off) as usize;
            let piece = store.read_at(name, off, len)?;
            hashes.push(md5(&piece));
            off += len as u64;
        }
        if size == 0 {
            hashes.clear();
        }
        Ok(Torrent {
            name: name.to_string(),
            size,
            piece_size,
            piece_hashes: hashes,
            tracker: tracker.to_string(),
        })
    }

    /// Number of pieces.
    pub fn pieces(&self) -> usize {
        self.piece_hashes.len()
    }

    /// Byte range `[start, end)` of piece `idx`.
    pub fn piece_range(&self, idx: usize) -> (u64, u64) {
        let start = idx as u64 * self.piece_size;
        (start, (start + self.piece_size).min(self.size))
    }
}

// ---------------------------------------------------------------------------
// Tracker
// ---------------------------------------------------------------------------

/// Tracker daemon: peers announce themselves per torrent and receive the
/// current peer set.
pub struct Tracker {
    shutdown: Arc<AtomicBool>,
    fabric: Fabric,
    name: String,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Tracker {
    /// Start a tracker on fabric listener `name`.
    pub fn start(fabric: &Fabric, name: &str) -> Tracker {
        let listener = fabric.listen(name);
        let shutdown = Arc::new(AtomicBool::new(false));
        let shutdown2 = Arc::clone(&shutdown);
        let peers: Arc<Mutex<HashMap<String, Vec<String>>>> = Arc::new(Mutex::new(HashMap::new()));
        let thread = std::thread::Builder::new()
            .name(format!("tracker-{name}"))
            .spawn(move || {
                while !shutdown2.load(Ordering::Relaxed) {
                    let conn = match listener.accept_timeout(std::time::Duration::from_millis(50)) {
                        Ok(c) => c,
                        Err(FabricError::Timeout) => continue,
                        Err(_) => break,
                    };
                    let Ok(req) = conn.recv() else { continue };
                    let text = String::from_utf8_lossy(&req).to_string();
                    let mut parts = text.split_whitespace();
                    if let (Some("ANNOUNCE"), Some(torrent), Some(peer)) =
                        (parts.next(), parts.next(), parts.next())
                    {
                        let mut map = peers.lock();
                        let list = map.entry(torrent.to_string()).or_default();
                        if !list.iter().any(|p| p == peer) {
                            list.push(peer.to_string());
                        }
                        let reply = list.join(",");
                        let _ = conn.send(Bytes::from(format!("PEERS {reply}")));
                    }
                }
            })
            .expect("spawn tracker");
        Tracker {
            shutdown,
            fabric: fabric.clone(),
            name: name.to_string(),
            thread: Some(thread),
        }
    }

    fn stop_inner(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        self.fabric.unlisten(&self.name);
        if let Some(h) = self.thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Tracker {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

/// Announce to a tracker; returns the peer listener names for `torrent`.
pub fn announce(
    fabric: &Fabric,
    tracker: &str,
    torrent: &str,
    self_listener: &str,
) -> TransportResult<Vec<String>> {
    let conn = fabric
        .connect(tracker)
        .map_err(|e| TransportError::ConnectFailed(e.to_string()))?;
    conn.send(Bytes::from(format!("ANNOUNCE {torrent} {self_listener}")))
        .map_err(|e| TransportError::Interrupted(e.to_string()))?;
    let reply = conn
        .recv()
        .map_err(|e| TransportError::Interrupted(e.to_string()))?;
    let text = String::from_utf8_lossy(&reply).to_string();
    let list = text
        .strip_prefix("PEERS ")
        .ok_or_else(|| TransportError::Protocol("bad tracker reply".into()))?;
    Ok(list
        .split(',')
        .filter(|s| !s.is_empty() && *s != self_listener)
        .map(|s| s.to_string())
        .collect())
}

// ---------------------------------------------------------------------------
// Peer daemon
// ---------------------------------------------------------------------------

/// Shared have-set: which pieces this peer can serve.
pub type HaveSet = Arc<Mutex<Vec<bool>>>;

/// A peer daemon serving pieces of one torrent from a store.
pub struct BtPeer {
    shutdown: Arc<AtomicBool>,
    fabric: Fabric,
    listener_name: String,
    thread: Option<std::thread::JoinHandle<()>>,
    have: HaveSet,
    uploads: Arc<AtomicUsize>,
    choked_requests: Arc<AtomicU64>,
}

impl BtPeer {
    /// Start a peer daemon named `listener_name`, serving `torrent` pieces
    /// present in `have` from `store`, with at most `max_upload_slots`
    /// concurrent uploads (the unchoke window).
    pub fn start(
        fabric: &Fabric,
        listener_name: &str,
        torrent: Torrent,
        store: Arc<dyn FileStore>,
        have: HaveSet,
        max_upload_slots: usize,
    ) -> BtPeer {
        let listener = fabric.listen(listener_name);
        let shutdown = Arc::new(AtomicBool::new(false));
        let shutdown2 = Arc::clone(&shutdown);
        let have2 = Arc::clone(&have);
        let uploads = Arc::new(AtomicUsize::new(0));
        let uploads2 = Arc::clone(&uploads);
        let choked = Arc::new(AtomicU64::new(0));
        let choked2 = Arc::clone(&choked);
        let thread = std::thread::Builder::new()
            .name(format!("btpeer-{listener_name}"))
            .spawn(move || {
                while !shutdown2.load(Ordering::Relaxed) {
                    let conn = match listener.accept_timeout(std::time::Duration::from_millis(50)) {
                        Ok(c) => c,
                        Err(FabricError::Timeout) => continue,
                        Err(_) => break,
                    };
                    let store = Arc::clone(&store);
                    let have = Arc::clone(&have2);
                    let uploads = Arc::clone(&uploads2);
                    let choked = Arc::clone(&choked2);
                    let torrent = torrent.clone();
                    std::thread::spawn(move || {
                        let Ok(req) = conn.recv() else { return };
                        let text = String::from_utf8_lossy(&req).to_string();
                        let mut parts = text.split_whitespace();
                        match parts.next() {
                            Some("BITFIELD") => {
                                let bits: Vec<u8> = have.lock().iter().map(|&b| b as u8).collect();
                                let _ = conn.send(Bytes::from(bits));
                            }
                            Some("REQ") => {
                                let Some(idx) = parts.nth(1).and_then(|s| s.parse::<usize>().ok())
                                else {
                                    let _ = conn.send(Bytes::from_static(b"MISSING"));
                                    return;
                                };
                                let holds = have.lock().get(idx).copied().unwrap_or(false);
                                if !holds {
                                    let _ = conn.send(Bytes::from_static(b"MISSING"));
                                    return;
                                }
                                // Unchoke window.
                                let active = uploads.fetch_add(1, Ordering::AcqRel);
                                if active >= max_upload_slots {
                                    uploads.fetch_sub(1, Ordering::AcqRel);
                                    choked.fetch_add(1, Ordering::Relaxed);
                                    let _ = conn.send(Bytes::from_static(b"CHOKE"));
                                    return;
                                }
                                let (start, end) = torrent.piece_range(idx);
                                let piece =
                                    store.read_at(&torrent.name, start, (end - start) as usize);
                                match piece {
                                    Ok(data) => {
                                        let _ = conn.send(Bytes::from(format!("PIECE {idx}")));
                                        let _ = conn.send(data);
                                    }
                                    Err(_) => {
                                        let _ = conn.send(Bytes::from_static(b"MISSING"));
                                    }
                                }
                                uploads.fetch_sub(1, Ordering::AcqRel);
                            }
                            _ => {
                                let _ = conn.send(Bytes::from_static(b"MISSING"));
                            }
                        }
                    });
                }
            })
            .expect("spawn bt peer");
        BtPeer {
            shutdown,
            fabric: fabric.clone(),
            listener_name: listener_name.to_string(),
            thread: Some(thread),
            have,
            uploads,
            choked_requests: choked,
        }
    }

    /// Listener name other peers use to reach this daemon.
    pub fn listener_name(&self) -> &str {
        &self.listener_name
    }

    /// This peer's have-set handle.
    pub fn have(&self) -> HaveSet {
        Arc::clone(&self.have)
    }

    /// Requests refused because the unchoke window was full.
    pub fn choked_requests(&self) -> u64 {
        self.choked_requests.load(Ordering::Relaxed)
    }

    /// Uploads currently in flight.
    pub fn active_uploads(&self) -> usize {
        self.uploads.load(Ordering::Relaxed)
    }

    fn stop_inner(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        self.fabric.unlisten(&self.listener_name);
        if let Some(h) = self.thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for BtPeer {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

impl DaemonConnector for BtPeer {
    fn daemon_start(&mut self) -> TransportResult<()> {
        Ok(())
    }
    fn daemon_stop(&mut self) -> TransportResult<()> {
        self.stop_inner();
        Ok(())
    }
    fn daemon_running(&self) -> bool {
        !self.shutdown.load(Ordering::Relaxed)
    }
}

/// A fully seeded have-set for `torrent`.
pub fn full_have(torrent: &Torrent) -> HaveSet {
    Arc::new(Mutex::new(vec![true; torrent.pieces()]))
}

/// An empty have-set for `torrent`.
pub fn empty_have(torrent: &Torrent) -> HaveSet {
    Arc::new(Mutex::new(vec![false; torrent.pieces()]))
}

// ---------------------------------------------------------------------------
// Leecher engine
// ---------------------------------------------------------------------------

/// Leecher tuning knobs.
#[derive(Debug, Clone)]
pub struct LeechConfig {
    /// Parallel request workers (pipeline width).
    pub workers: usize,
    /// RNG seed for peer choice (deterministic tests).
    pub seed: u64,
    /// Back-off when choked or peers lack needed pieces.
    pub backoff: std::time::Duration,
    /// Give up after this many consecutive fruitless rounds per worker.
    pub max_stalls: u32,
}

impl Default for LeechConfig {
    fn default() -> Self {
        LeechConfig {
            workers: 4,
            seed: 0,
            backoff: std::time::Duration::from_millis(2),
            max_stalls: 2000,
        }
    }
}

struct LeechState {
    /// Piece status: 0 = needed, 1 = in flight, 2 = done.
    status: Vec<u8>,
    /// Availability counts per piece across known peers (for rarest-first).
    avail: Vec<u32>,
    /// Known peer listeners and their bitfields.
    peer_bits: HashMap<String, Vec<bool>>,
}

/// Download `torrent` into `local`, joining the swarm via the tracker.
/// `self_listener` is this node's own peer daemon (may already be serving
/// partial content — its have-set is updated as pieces verify).
#[allow(clippy::too_many_arguments)]
pub fn leech(
    fabric: &Fabric,
    torrent: &Torrent,
    local: Arc<dyn FileStore>,
    have: HaveSet,
    self_listener: &str,
    config: &LeechConfig,
    progress: Option<Arc<AtomicU64>>,
) -> TransportResult<()> {
    let npieces = torrent.pieces();
    if npieces == 0 {
        return Ok(());
    }
    let peers = announce(fabric, &torrent.tracker, &torrent.name, self_listener)?;
    if peers.is_empty() {
        return Err(TransportError::ConnectFailed("no peers in swarm".into()));
    }
    let mut state = LeechState {
        status: {
            let have = have.lock();
            (0..npieces)
                .map(|i| {
                    if have.get(i).copied().unwrap_or(false) {
                        2
                    } else {
                        0
                    }
                })
                .collect()
        },
        avail: vec![0; npieces],
        peer_bits: HashMap::new(),
    };
    // Fetch bitfields.
    for peer in &peers {
        if let Ok(bits) = fetch_bitfield(fabric, peer, &torrent.name) {
            for (i, &b) in bits.iter().enumerate().take(npieces) {
                if b {
                    state.avail[i] += 1;
                }
            }
            state.peer_bits.insert(peer.clone(), bits);
        }
    }
    if state.peer_bits.is_empty() {
        return Err(TransportError::ConnectFailed("no reachable peers".into()));
    }
    let state = Arc::new(Mutex::new(state));
    let torrent = torrent.clone();
    let failed: Arc<Mutex<Option<TransportError>>> = Arc::new(Mutex::new(None));

    std::thread::scope(|scope| {
        for w in 0..config.workers {
            let state = Arc::clone(&state);
            let have = Arc::clone(&have);
            let local = Arc::clone(&local);
            let torrent = &torrent;
            let fabric = fabric.clone();
            let failed = Arc::clone(&failed);
            let progress = progress.clone();
            let config = config.clone();
            scope.spawn(move || {
                let mut rng = rand::rngs::SmallRng::seed_from_u64(config.seed ^ (w as u64) << 32);
                let mut stalls = 0u32;
                loop {
                    // Pick the rarest needed piece with a live holder.
                    let pick = {
                        let mut st = state.lock();
                        let mut best: Option<(usize, u32)> = None;
                        for i in 0..st.status.len() {
                            if st.status[i] == 0 && st.avail[i] > 0 {
                                match best {
                                    Some((_, a)) if st.avail[i] >= a => {}
                                    _ => best = Some((i, st.avail[i])),
                                }
                            }
                        }
                        if let Some((idx, _)) = best {
                            st.status[idx] = 1;
                            // Choose a random holder (stands in for optimistic
                            // unchoke rotation).
                            let holders: Vec<String> = st
                                .peer_bits
                                .iter()
                                .filter(|(_, bits)| bits.get(idx).copied().unwrap_or(false))
                                .map(|(p, _)| p.clone())
                                .collect();
                            let peer = holders.choose(&mut rng).cloned();
                            Some((idx, peer))
                        } else if st.status.contains(&1) {
                            None // others still fetching; wait
                        } else {
                            return; // all done or unavailable
                        }
                    };
                    let Some((idx, peer)) = pick else {
                        stalls += 1;
                        if stalls > config.max_stalls {
                            return;
                        }
                        std::thread::sleep(config.backoff);
                        continue;
                    };
                    let Some(peer) = peer else {
                        state.lock().status[idx] = 0;
                        std::thread::sleep(config.backoff);
                        continue;
                    };
                    match fetch_piece(&fabric, &peer, torrent, idx, local.as_ref()) {
                        Ok(true) => {
                            stalls = 0;
                            {
                                let mut st = state.lock();
                                st.status[idx] = 2;
                            }
                            {
                                let mut h = have.lock();
                                if idx < h.len() {
                                    h[idx] = true;
                                }
                            }
                            if let Some(p) = &progress {
                                let (s, e) = torrent.piece_range(idx);
                                p.fetch_add(e - s, Ordering::Relaxed);
                            }
                        }
                        Ok(false) => {
                            // Choked or missing: release and retry later.
                            state.lock().status[idx] = 0;
                            stalls += 1;
                            if stalls > config.max_stalls {
                                *failed.lock() =
                                    Some(TransportError::Interrupted("swarm starved".into()));
                                return;
                            }
                            std::thread::sleep(config.backoff);
                        }
                        Err(e) => {
                            // Peer unreachable: drop it from the view.
                            let mut st = state.lock();
                            if let Some(bits) = st.peer_bits.remove(&peer) {
                                for (i, &b) in bits.iter().enumerate() {
                                    if b && i < st.avail.len() {
                                        st.avail[i] -= 1;
                                    }
                                }
                            }
                            st.status[idx] = 0;
                            if st.peer_bits.is_empty() {
                                *failed.lock() = Some(e);
                                return;
                            }
                        }
                    }
                }
            });
        }
    });

    if let Some(e) = failed.lock().take() {
        return Err(e);
    }
    let st = state.lock();
    if st.status.iter().all(|&s| s == 2) {
        Ok(())
    } else {
        Err(TransportError::Interrupted(
            "incomplete swarm download".into(),
        ))
    }
}

fn fetch_bitfield(fabric: &Fabric, peer: &str, torrent: &str) -> TransportResult<Vec<bool>> {
    let conn = fabric
        .connect(peer)
        .map_err(|e| TransportError::ConnectFailed(e.to_string()))?;
    conn.send(Bytes::from(format!("BITFIELD {torrent}")))
        .map_err(|e| TransportError::Interrupted(e.to_string()))?;
    let bits = conn
        .recv()
        .map_err(|e| TransportError::Interrupted(e.to_string()))?;
    Ok(bits.iter().map(|&b| b != 0).collect())
}

/// Fetch and verify one piece. `Ok(false)` = choked/missing (retryable).
fn fetch_piece(
    fabric: &Fabric,
    peer: &str,
    torrent: &Torrent,
    idx: usize,
    local: &dyn FileStore,
) -> TransportResult<bool> {
    let conn = fabric
        .connect(peer)
        .map_err(|e| TransportError::ConnectFailed(e.to_string()))?;
    conn.send(Bytes::from(format!("REQ {} {}", torrent.name, idx)))
        .map_err(|e| TransportError::Interrupted(e.to_string()))?;
    let head = conn
        .recv()
        .map_err(|e| TransportError::Interrupted(e.to_string()))?;
    if head.starts_with(b"CHOKE") || head.starts_with(b"MISSING") {
        return Ok(false);
    }
    if !head.starts_with(b"PIECE") {
        return Err(TransportError::Protocol("bad piece reply".into()));
    }
    let data = conn
        .recv()
        .map_err(|e| TransportError::Interrupted(e.to_string()))?;
    if md5(&data) != torrent.piece_hashes[idx] {
        // Sabotage tolerance: a bad piece is rejected, not stored (§2.2).
        return Ok(false);
    }
    let (start, _) = torrent.piece_range(idx);
    local.write_at(&torrent.name, start, &data)?;
    Ok(true)
}

// ---------------------------------------------------------------------------
// OobTransfer adapter
// ---------------------------------------------------------------------------

/// BitTorrent download as an [`OobTransfer`], symmetric with the FTP/HTTP
/// adapters so the Data Transfer service can schedule any of the three.
pub struct BtTransfer {
    fabric: Fabric,
    torrent: Torrent,
    local: Arc<dyn FileStore>,
    have: HaveSet,
    self_listener: String,
    config: LeechConfig,
    progress: Arc<AtomicU64>,
    verdict: Arc<Mutex<Option<TransferVerdict>>>,
    worker: Option<std::thread::JoinHandle<()>>,
}

impl BtTransfer {
    /// Prepare a swarm download of `torrent` into `local`. `self_listener`
    /// must be a running [`BtPeer`] sharing `have` (the leecher serves what
    /// it gets).
    pub fn new(
        fabric: Fabric,
        torrent: Torrent,
        local: Arc<dyn FileStore>,
        have: HaveSet,
        self_listener: String,
        config: LeechConfig,
    ) -> BtTransfer {
        BtTransfer {
            fabric,
            torrent,
            local,
            have,
            self_listener,
            config,
            progress: Arc::new(AtomicU64::new(0)),
            verdict: Arc::new(Mutex::new(None)),
            worker: None,
        }
    }
}

impl OobTransfer for BtTransfer {
    fn connect(&mut self) -> TransportResult<()> {
        self.fabric
            .connect(&self.torrent.tracker)
            .map_err(|e| TransportError::ConnectFailed(e.to_string()))?;
        Ok(())
    }

    fn disconnect(&mut self) -> TransportResult<()> {
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
        Ok(())
    }

    fn probe(&mut self) -> TransportResult<TransferStatus> {
        Ok(TransferStatus {
            bytes_done: self.progress.load(Ordering::Relaxed),
            bytes_total: self.torrent.size,
            outcome: *self.verdict.lock(),
        })
    }

    fn send(&mut self) -> TransportResult<()> {
        // Seeding is the peer daemon's job; sending is a no-op success.
        Ok(())
    }

    fn receive(&mut self) -> TransportResult<()> {
        let fabric = self.fabric.clone();
        let torrent = self.torrent.clone();
        let local = Arc::clone(&self.local);
        let have = Arc::clone(&self.have);
        let listener = self.self_listener.clone();
        let config = self.config.clone();
        let progress = Arc::clone(&self.progress);
        let verdict = Arc::clone(&self.verdict);
        self.worker = Some(std::thread::spawn(move || {
            let result = leech(
                &fabric,
                &torrent,
                local,
                have,
                &listener,
                &config,
                Some(progress),
            );
            *verdict.lock() = Some(match result {
                Ok(()) => TransferVerdict::Complete,
                Err(_) => TransferVerdict::Interrupted,
            });
        }));
        Ok(())
    }
}

impl NonBlockingOobTransfer for BtTransfer {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;
    use std::time::Duration;

    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 13 % 251) as u8).collect()
    }

    /// Swarm harness: a tracker, one seeder, and `n` leechers that download
    /// concurrently (and, because every leecher serves, from each other).
    fn run_swarm(n: usize, bytes: usize, piece: u64) -> Vec<Arc<MemStore>> {
        let fabric = Fabric::new();
        let _tracker = Tracker::start(&fabric, "tracker");
        let seed_store = MemStore::new();
        let data = payload(bytes);
        seed_store.put("blob", &data);
        let torrent = Torrent::describe(seed_store.as_ref(), "blob", piece, "tracker").unwrap();
        let seed_have = full_have(&torrent);
        let _seeder = BtPeer::start(
            &fabric,
            "peer-seed",
            torrent.clone(),
            seed_store,
            seed_have,
            8,
        );
        announce(&fabric, "tracker", "blob", "peer-seed").unwrap();

        let mut stores = Vec::new();
        let mut handles = Vec::new();
        let mut peers = Vec::new();
        for i in 0..n {
            let store = MemStore::new();
            let have = empty_have(&torrent);
            let name = format!("peer-{i}");
            let peer = BtPeer::start(
                &fabric,
                &name,
                torrent.clone(),
                Arc::clone(&store) as _,
                Arc::clone(&have),
                8,
            );
            stores.push(Arc::clone(&store));
            let fabric2 = fabric.clone();
            let torrent2 = torrent.clone();
            let config = LeechConfig {
                seed: i as u64,
                ..Default::default()
            };
            handles.push(std::thread::spawn(move || {
                leech(
                    &fabric2,
                    &torrent2,
                    store as _,
                    have,
                    &format!("peer-{i}"),
                    &config,
                    None,
                )
            }));
            peers.push(peer);
        }
        for h in handles {
            h.join().unwrap().unwrap();
        }
        // Verify all content.
        for s in &stores {
            assert_eq!(&s.read_at("blob", 0, bytes).unwrap()[..], &data[..]);
        }
        stores
    }

    #[test]
    fn torrent_describe_hashes_pieces() {
        let store = MemStore::new();
        let data = payload(1000);
        store.put("f", &data);
        let t = Torrent::describe(store.as_ref(), "f", 256, "trk").unwrap();
        assert_eq!(t.pieces(), 4); // 256*3 + 232
        assert_eq!(t.piece_range(3), (768, 1000));
        assert_eq!(t.piece_hashes[0], md5(&data[..256]));
        assert_eq!(t.piece_hashes[3], md5(&data[768..]));
    }

    #[test]
    fn tracker_accumulates_peers() {
        let fabric = Fabric::new();
        let _tracker = Tracker::start(&fabric, "trk");
        assert_eq!(
            announce(&fabric, "trk", "t1", "a").unwrap(),
            Vec::<String>::new()
        );
        assert_eq!(
            announce(&fabric, "trk", "t1", "b").unwrap(),
            vec!["a".to_string()]
        );
        let peers = announce(&fabric, "trk", "t1", "c").unwrap();
        assert_eq!(peers, vec!["a".to_string(), "b".to_string()]);
        // Torrents are independent.
        assert_eq!(
            announce(&fabric, "trk", "t2", "x").unwrap(),
            Vec::<String>::new()
        );
    }

    #[test]
    fn single_leecher_downloads_from_seed() {
        run_swarm(1, 300_000, 64 * 1024);
    }

    #[test]
    fn swarm_of_five_completes() {
        run_swarm(5, 200_000, 32 * 1024);
    }

    #[test]
    fn leechers_serve_each_other() {
        // With only 1 upload slot at the seeder, a 4-peer swarm can only
        // finish in reasonable time if leechers exchange pieces.
        let fabric = Fabric::new();
        let _tracker = Tracker::start(&fabric, "tracker");
        let seed_store = MemStore::new();
        let data = payload(256 * 1024);
        seed_store.put("blob", &data);
        let torrent = Torrent::describe(seed_store.as_ref(), "blob", 16 * 1024, "tracker").unwrap();
        let _seeder = BtPeer::start(
            &fabric,
            "peer-seed",
            torrent.clone(),
            seed_store,
            full_have(&torrent),
            1,
        );
        announce(&fabric, "tracker", "blob", "peer-seed").unwrap();
        let mut handles = Vec::new();
        let mut peer_handles = Vec::new();
        for i in 0..4 {
            let store = MemStore::new();
            let have = empty_have(&torrent);
            let peer = BtPeer::start(
                &fabric,
                &format!("peer-{i}"),
                torrent.clone(),
                Arc::clone(&store) as _,
                Arc::clone(&have),
                8,
            );
            let fabric2 = fabric.clone();
            let torrent2 = torrent.clone();
            handles.push(std::thread::spawn(move || {
                leech(
                    &fabric2,
                    &torrent2,
                    store as _,
                    have,
                    &format!("peer-{i}"),
                    &LeechConfig {
                        seed: 7 + i as u64,
                        ..Default::default()
                    },
                    None,
                )
            }));
            peer_handles.push(peer);
        }
        for h in handles {
            h.join().unwrap().unwrap();
        }
    }

    #[test]
    fn bt_transfer_oob_adapter() {
        let fabric = Fabric::new();
        let _tracker = Tracker::start(&fabric, "tracker");
        let seed_store = MemStore::new();
        let data = payload(128 * 1024);
        seed_store.put("blob", &data);
        let torrent = Torrent::describe(seed_store.as_ref(), "blob", 16 * 1024, "tracker").unwrap();
        let _seeder = BtPeer::start(
            &fabric,
            "peer-seed",
            torrent.clone(),
            seed_store,
            full_have(&torrent),
            4,
        );
        announce(&fabric, "tracker", "blob", "peer-seed").unwrap();

        let store = MemStore::new();
        let have = empty_have(&torrent);
        let _me = BtPeer::start(
            &fabric,
            "peer-me",
            torrent.clone(),
            Arc::clone(&store) as _,
            Arc::clone(&have),
            4,
        );
        let mut t = BtTransfer::new(
            fabric,
            torrent,
            store as _,
            have,
            "peer-me".into(),
            LeechConfig::default(),
        );
        t.connect().unwrap();
        t.receive().unwrap();
        let status = t.wait(Duration::from_millis(5)).unwrap();
        assert_eq!(status.outcome, Some(TransferVerdict::Complete));
        assert_eq!(status.bytes_done, 128 * 1024);
        t.disconnect().unwrap();
    }

    #[test]
    fn no_peers_fails() {
        let fabric = Fabric::new();
        let _tracker = Tracker::start(&fabric, "tracker");
        let store = MemStore::new();
        store.put("x", b"abc");
        let torrent = Torrent::describe(store.as_ref(), "x", 2, "tracker").unwrap();
        let err = leech(
            &fabric,
            &torrent,
            Arc::clone(&store) as _,
            empty_have(&torrent),
            "peer-lonely",
            &LeechConfig::default(),
            None,
        );
        assert!(err.is_err());
    }

    #[test]
    fn empty_torrent_is_trivially_complete() {
        let store = MemStore::new();
        store.put("empty", b"");
        let t = Torrent::describe(store.as_ref(), "empty", 16, "trk").unwrap();
        assert_eq!(t.pieces(), 0);
        let fabric = Fabric::new();
        assert!(leech(
            &fabric,
            &t,
            Arc::clone(&store) as _,
            empty_have(&t),
            "p",
            &LeechConfig::default(),
            None
        )
        .is_ok());
    }
}
