//! The chunked multi-source data plane.
//!
//! The paper's distribution experiments (§5, Fig. 5/6) move large blobs to
//! many hosts, but its out-of-band transfers (§3.4.2) are whole-blob: one
//! file streams from one locator, and only BitTorrent exploits several
//! sources at once. Fine-grain data access schemes (Nicolae et al.'s
//! BlobSeer-style chunk metadata, Sector/Sphere's striping) show what the
//! whole-blob plane leaves on the table: once a datum is described as a list
//! of fixed-size chunks with per-chunk digests, *any* protocol that can
//! serve a byte range becomes a multi-source protocol, and a replica that
//! lost part of its content can be repaired chunk-by-chunk instead of being
//! re-fetched whole.
//!
//! This module is that plane, sitting between the attribute/scheduler layer
//! (§3.2/§3.4.3) and the transport protocols:
//!
//! * [`ChunkManifest`] — the per-datum chunk map: fixed-size descriptors
//!   ([`ChunkDescriptor`]) with CRC32 digests, encoded with the storage
//!   codec and published through the `DataCatalog` / `ShardedPlane` next to
//!   the datum's locators.
//! * [`ChunkStore`] — chunk-granular storage over any
//!   [`FileStore`]: `put_range` verifies a chunk against the manifest
//!   before admitting it, `has_chunk`/`missing` answer presence queries,
//!   and `absorb` back-fills presence from already-complete content.
//! * [`MultiSourceFetcher`] — the transfer-service workhorse: given the
//!   manifest and every known locator (the repository plus peer replicas
//!   from the scheduler's Ω owner sets), it work-steals chunk indices from
//!   one shared queue across per-source worker sessions ([`RangeSource`]),
//!   pipelining several requests per source, verifying each chunk's digest
//!   on arrival, and re-queueing the chunks of any source that dies
//!   mid-transfer so the survivors finish the job. It implements the Fig. 2
//!   [`OobTransfer`] contract, so the Data Transfer service monitors it like
//!   any single-source protocol.
//!
//! The scheduler side of the plane lives in
//! [`crate::services::scheduler`]: a host only counts as a member of Ω(d)
//! once it holds *all* of d's chunks, and a partial holder is sent a
//! `repair` order instead of a delete — the chunk-level repair loop.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use bytes::{Bytes, BytesMut};
use parking_lot::Mutex;

use bitdew_storage::codec::{decode_vec, encode_vec, CodecError, Decode, Encode};
use bitdew_storage::crc32::crc32;
use bitdew_transport::ftp::FtpRangeClient;
use bitdew_transport::oob::{
    OobTransfer, TransferStatus, TransferVerdict, TransportError, TransportResult,
};
use bitdew_transport::{Fabric, FileStore, ProtocolId};
use bitdew_util::Auid;

use crate::api::{BitdewError, Result};
use crate::data::{Data, DataId, Locator};

/// Default chunk size: 256 KiB, a few fabric frames per chunk — small enough
/// that work-stealing balances sources, large enough that per-chunk command
/// overhead stays negligible.
pub const DEFAULT_CHUNK_SIZE: u64 = 256 * 1024;

/// How many range requests each source keeps in flight (per-source
/// pipelining depth).
pub const PIPELINE_DEPTH: usize = 4;

/// One fixed-size chunk of a datum: its position and CRC32 digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkDescriptor {
    /// Chunk index within the datum (offset = index × chunk_size).
    pub index: u32,
    /// Chunk length in bytes (the final chunk may be short).
    pub len: u32,
    /// CRC32 (IEEE) of the chunk's content.
    pub crc32: u32,
}

impl Encode for ChunkDescriptor {
    fn encode(&self, buf: &mut BytesMut) {
        self.index.encode(buf);
        self.len.encode(buf);
        self.crc32.encode(buf);
    }
}

impl Decode for ChunkDescriptor {
    fn decode(buf: &mut Bytes) -> std::result::Result<Self, CodecError> {
        Ok(ChunkDescriptor {
            index: u32::decode(buf)?,
            len: u32::decode(buf)?,
            crc32: u32::decode(buf)?,
        })
    }
}

/// The chunk map of one datum: fixed-size chunks with CRC32 digests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkManifest {
    /// The datum this manifest describes.
    pub data: DataId,
    /// Nominal chunk size in bytes (every chunk but the last has this size).
    pub chunk_size: u64,
    /// Total content length (= sum of chunk lengths).
    pub total: u64,
    /// Per-chunk descriptors, ordered by index.
    pub chunks: Vec<ChunkDescriptor>,
}

impl ChunkManifest {
    /// Describe `content` as `chunk_size`-sized chunks.
    ///
    /// A zero `chunk_size` is clamped to [`DEFAULT_CHUNK_SIZE`]; empty
    /// content yields an empty (trivially complete) manifest.
    pub fn describe(data: DataId, chunk_size: u64, content: &[u8]) -> ChunkManifest {
        let chunk_size = if chunk_size == 0 {
            DEFAULT_CHUNK_SIZE
        } else {
            chunk_size
        };
        let chunks = content
            .chunks(chunk_size as usize)
            .enumerate()
            .map(|(i, c)| ChunkDescriptor {
                index: i as u32,
                len: c.len() as u32,
                crc32: crc32(c),
            })
            .collect();
        ChunkManifest {
            data,
            chunk_size,
            total: content.len() as u64,
            chunks,
        }
    }

    /// Number of chunks.
    pub fn chunk_count(&self) -> u32 {
        self.chunks.len() as u32
    }

    /// Byte offset of chunk `index`.
    pub fn offset_of(&self, index: u32) -> u64 {
        index as u64 * self.chunk_size
    }

    /// Descriptor of chunk `index`, if in range.
    pub fn descriptor(&self, index: u32) -> Option<&ChunkDescriptor> {
        self.chunks.get(index as usize)
    }

    /// Total bytes of the listed chunks (an index out of range counts 0).
    pub(crate) fn bytes_of(&self, indices: impl IntoIterator<Item = u32>) -> u64 {
        indices
            .into_iter()
            .filter_map(|i| self.descriptor(i))
            .map(|c| c.len as u64)
            .sum()
    }

    /// Verify `bytes` against chunk `index`'s declared length and digest.
    pub fn verify(&self, index: u32, bytes: &[u8]) -> bool {
        self.descriptor(index)
            .is_some_and(|d| d.len as usize == bytes.len() && d.crc32 == crc32(bytes))
    }
}

impl Encode for ChunkManifest {
    fn encode(&self, buf: &mut BytesMut) {
        self.data.encode(buf);
        self.chunk_size.encode(buf);
        self.total.encode(buf);
        encode_vec(&self.chunks, buf);
    }
}

impl Decode for ChunkManifest {
    fn decode(buf: &mut Bytes) -> std::result::Result<Self, CodecError> {
        Ok(ChunkManifest {
            data: bitdew_util::Auid::decode(buf)?,
            chunk_size: u64::decode(buf)?,
            total: u64::decode(buf)?,
            chunks: decode_vec(buf)?,
        })
    }
}

/// The scheduler-side chunk-holding picture of one datum: Ω full owners
/// plus partial holders with the exact chunk indices they hold.
///
/// This is what the compute plane partitions a [`MapOp`](crate::compute)
/// over: every chunk is executed on a host that already holds it when one
/// exists, so bytes only move for chunks nobody local has.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChunkHoldings {
    /// Hosts holding every chunk (the Ω owner set), sorted.
    pub full: Vec<Auid>,
    /// Hosts holding a strict subset, with the sorted indices they hold.
    pub partial: Vec<(Auid, Vec<u32>)>,
}

impl ChunkHoldings {
    /// Every host that holds at least one chunk, sorted and deduplicated.
    pub fn participants(&self) -> Vec<Auid> {
        let mut all: Vec<Auid> = self
            .full
            .iter()
            .copied()
            .chain(self.partial.iter().map(|(h, _)| *h))
            .collect();
        all.sort();
        all.dedup();
        all
    }

    /// Hosts holding chunk `index`, sorted (full owners hold everything).
    pub fn holders_of(&self, index: u32) -> Vec<Auid> {
        let mut hosts: Vec<Auid> = self
            .full
            .iter()
            .copied()
            .chain(
                self.partial
                    .iter()
                    .filter(|(_, set)| set.binary_search(&index).is_ok())
                    .map(|(h, _)| *h),
            )
            .collect();
        hosts.sort();
        hosts.dedup();
        hosts
    }
}

/// Chunk-granular storage over a [`FileStore`]: ranges are admitted only
/// after verifying against the manifest, and per-object presence sets answer
/// `has_chunk`/`missing` without re-hashing.
pub struct ChunkStore {
    inner: Arc<dyn FileStore>,
    /// Verified chunks per object name.
    present: Mutex<std::collections::HashMap<String, std::collections::HashSet<u32>>>,
}

impl ChunkStore {
    /// Chunk view over `inner`.
    pub fn new(inner: Arc<dyn FileStore>) -> Arc<ChunkStore> {
        Arc::new(ChunkStore {
            inner,
            present: Mutex::new(std::collections::HashMap::new()),
        })
    }

    /// The wrapped byte store.
    pub fn store(&self) -> Arc<dyn FileStore> {
        Arc::clone(&self.inner)
    }

    /// Write chunk `index` of `object`, verifying length and CRC32 against
    /// `manifest` first. A mismatch is rejected with
    /// [`BitdewError::ChunkDigest`] and nothing is written.
    pub fn put_range(
        &self,
        object: &str,
        manifest: &ChunkManifest,
        index: u32,
        bytes: &[u8],
    ) -> Result<()> {
        if !manifest.verify(index, bytes) {
            return Err(BitdewError::ChunkDigest {
                object: object.to_string(),
                index,
            });
        }
        self.inner
            .write_at(object, manifest.offset_of(index), bytes)?;
        self.present
            .lock()
            .entry(object.to_string())
            .or_default()
            .insert(index);
        Ok(())
    }

    /// Read bytes `[offset, offset+len)` of `object` (short only at EOF).
    pub fn get_range(&self, object: &str, offset: u64, len: usize) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        self.inner.read_into(object, offset, len, &mut out)?;
        Ok(out)
    }

    /// Whether chunk `index` of `object` has been verified into the store.
    pub fn has_chunk(&self, object: &str, index: u32) -> bool {
        self.present
            .lock()
            .get(object)
            .is_some_and(|s| s.contains(&index))
    }

    /// Indices of `manifest`'s chunks not yet verified for `object`.
    pub fn missing(&self, object: &str, manifest: &ChunkManifest) -> Vec<u32> {
        let present = self.present.lock();
        let held = present.get(object);
        manifest
            .chunks
            .iter()
            .map(|c| c.index)
            .filter(|i| !held.is_some_and(|s| s.contains(i)))
            .collect()
    }

    /// Sorted indices of verified chunks for `object`.
    pub fn held_set(&self, object: &str) -> Vec<u32> {
        let mut v: Vec<u32> = self
            .present
            .lock()
            .get(object)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        v.sort_unstable();
        v
    }

    /// Verified chunk count for `object`.
    pub fn held_count(&self, object: &str) -> u32 {
        self.present
            .lock()
            .get(object)
            .map(|s| s.len() as u32)
            .unwrap_or(0)
    }

    /// Whether every chunk of `manifest` is verified for `object`.
    pub fn is_complete(&self, object: &str, manifest: &ChunkManifest) -> bool {
        self.held_count(object) == manifest.chunk_count()
    }

    /// Back-fill presence from content already in the store (a whole-blob
    /// `put` or a completed legacy transfer): each chunk of `manifest` found
    /// intact is marked present. Returns the number of verified chunks.
    /// Every chunk is read into one reused buffer.
    pub fn absorb(&self, object: &str, manifest: &ChunkManifest) -> u32 {
        let mut verified = 0u32;
        let mut buf = Vec::new();
        for c in &manifest.chunks {
            if self.has_chunk(object, c.index) {
                verified += 1;
                continue;
            }
            buf.clear();
            let ok = self
                .inner
                .read_into(
                    object,
                    manifest.offset_of(c.index),
                    c.len as usize,
                    &mut buf,
                )
                .is_ok_and(|_| manifest.verify(c.index, &buf));
            if ok {
                self.present
                    .lock()
                    .entry(object.to_string())
                    .or_default()
                    .insert(c.index);
                verified += 1;
            }
        }
        verified
    }

    /// Drop chunk `index` from `object`'s presence set (the content bytes
    /// stay; used to model partial replica loss and in repair tests).
    pub fn invalidate_chunk(&self, object: &str, index: u32) {
        if let Some(s) = self.present.lock().get_mut(object) {
            s.remove(&index);
        }
    }

    /// Forget everything known about `object` (presence only).
    pub fn forget(&self, object: &str) {
        self.present.lock().remove(object);
    }
}

// ---------------------------------------------------------------------------
// Range sources
// ---------------------------------------------------------------------------

/// A per-source range session the fetcher drives: queue up to the pipeline
/// depth of requests, then read replies back in request order.
pub trait RangeSource: Send {
    /// Queue a range request (non-blocking where the protocol allows).
    fn request(&mut self, object: &str, offset: u64, len: u32) -> TransportResult<()>;
    /// Read the next reply, in request order.
    fn read_reply(&mut self) -> TransportResult<Bytes>;
}

/// Pipelined FTP command session (the `RANGE` verb).
struct FtpSource {
    client: FtpRangeClient,
}

impl RangeSource for FtpSource {
    fn request(&mut self, object: &str, offset: u64, len: u32) -> TransportResult<()> {
        self.client.request(object, offset, len)
    }
    fn read_reply(&mut self) -> TransportResult<Bytes> {
        self.client.read_reply()
    }
}

/// HTTP bounded-range source: one request per connection (the protocol's
/// stateless style), so "pipelining" degenerates to eager fetches buffered
/// in request order.
struct HttpSource {
    fabric: Fabric,
    remote: String,
    replies: VecDeque<TransportResult<Bytes>>,
}

impl RangeSource for HttpSource {
    fn request(&mut self, object: &str, offset: u64, len: u32) -> TransportResult<()> {
        self.replies.push_back(bitdew_transport::http::fetch_range(
            &self.fabric,
            &self.remote,
            object,
            offset,
            len,
        ));
        Ok(())
    }
    fn read_reply(&mut self) -> TransportResult<Bytes> {
        self.replies
            .pop_front()
            .unwrap_or_else(|| Err(TransportError::Protocol("reply without request".into())))
    }
}

/// Open a range session for `locator` on `fabric`. FTP and HTTP locators are
/// range-capable; other protocols (BitTorrent is already multi-source) are
/// refused.
pub fn open_range_source(
    fabric: &Fabric,
    locator: &Locator,
) -> TransportResult<Box<dyn RangeSource>> {
    if locator.protocol == ProtocolId::ftp() {
        Ok(Box::new(FtpSource {
            client: FtpRangeClient::connect(fabric, &locator.remote)?,
        }))
    } else if locator.protocol == ProtocolId::http() {
        // Validate the endpoint now so a dead source fails fast.
        if !fabric.listener_names().iter().any(|n| n == &locator.remote) {
            return Err(TransportError::ConnectFailed(format!(
                "no listener {}",
                locator.remote
            )));
        }
        Ok(Box::new(HttpSource {
            fabric: fabric.clone(),
            remote: locator.remote.clone(),
            replies: VecDeque::new(),
        }))
    } else {
        Err(TransportError::Protocol(format!(
            "{} is not range-capable",
            locator.protocol
        )))
    }
}

// ---------------------------------------------------------------------------
// Multi-source fetcher
// ---------------------------------------------------------------------------

/// Consecutive failed/corrupt replies after which a source is abandoned.
const SOURCE_STRIKES: u32 = 3;

struct FetchShared {
    /// Chunk indices still to be fetched (the work-stealing queue).
    queue: Mutex<VecDeque<u32>>,
    /// Bytes verified into the destination so far.
    bytes_done: AtomicU64,
    /// Chunks verified so far (monotonic).
    chunks_done: AtomicUsize,
    /// Sources still alive.
    live_sources: AtomicUsize,
    /// Chunks re-queued after a source died or served corrupt bytes.
    requeued: AtomicU64,
    /// Terminal verdict, set exactly once.
    verdict: Mutex<Option<TransferVerdict>>,
}

/// Snapshot of a multi-source fetch for diagnostics and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchStats {
    /// Sources the fetch started with.
    pub sources_total: usize,
    /// Sources still serving.
    pub sources_live: usize,
    /// Chunks verified so far.
    pub chunks_done: usize,
    /// Chunks re-queued from dead or corrupt sources.
    pub requeued: u64,
}

/// Work-stealing chunked download from every known replica of a datum.
///
/// One worker session per source pops chunk indices off a shared queue,
/// keeps up to [`PIPELINE_DEPTH`] range requests in flight, verifies each
/// reply against the [`ChunkManifest`] and admits it through the
/// [`ChunkStore`]. A source that errors mid-transfer (or keeps serving
/// corrupt chunks) is dropped and its in-flight chunks go back on the queue
/// for the survivors. The fetch completes when every chunk is verified and
/// fails (`Interrupted`, resumable — verified chunks are kept) when the last
/// source dies first.
pub struct MultiSourceFetcher {
    fabric: Fabric,
    manifest: ChunkManifest,
    object: String,
    sources: Vec<Locator>,
    dest: Arc<ChunkStore>,
    pipeline: usize,
    shared: Arc<FetchShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl MultiSourceFetcher {
    /// Prepare a fetch of `data` into `dest` from `sources` (no I/O yet).
    /// Chunks `dest` already verified are skipped — which is also how a
    /// repair fetches only what a partial replica lost.
    pub fn new(
        fabric: Fabric,
        data: &Data,
        manifest: ChunkManifest,
        sources: Vec<Locator>,
        dest: Arc<ChunkStore>,
    ) -> MultiSourceFetcher {
        let object = data.object_name();
        let missing = dest.missing(&object, &manifest);
        let done = manifest.chunk_count() as usize - missing.len();
        let missing_bytes = manifest.bytes_of(missing.iter().copied());
        let bytes_done = manifest.total - missing_bytes;
        MultiSourceFetcher {
            fabric,
            manifest,
            object,
            sources,
            dest,
            pipeline: PIPELINE_DEPTH,
            shared: Arc::new(FetchShared {
                queue: Mutex::new(missing.into_iter().collect()),
                bytes_done: AtomicU64::new(bytes_done),
                chunks_done: AtomicUsize::new(done),
                live_sources: AtomicUsize::new(0),
                requeued: AtomicU64::new(0),
                verdict: Mutex::new(None),
            }),
            workers: Vec::new(),
        }
    }

    /// Override the per-source pipeline depth (min 1).
    pub fn with_pipeline(mut self, depth: usize) -> MultiSourceFetcher {
        self.pipeline = depth.max(1);
        self
    }

    /// Restrict the fetch to `subset` (intersected with the chunks still
    /// missing from the destination). Chunks outside the subset count as
    /// satisfied for the completion verdict — this is the compute plane's
    /// `missing()`-driven fallback, which moves only the chunks a
    /// [`MapOp`](crate::compute) actually needs on this host.
    pub fn with_chunks(self, subset: &[u32]) -> MultiSourceFetcher {
        let want: std::collections::HashSet<u32> = subset.iter().copied().collect();
        let queued_bytes;
        let done;
        {
            let mut queue = self.shared.queue.lock();
            queue.retain(|i| want.contains(i));
            queued_bytes = self.manifest.bytes_of(queue.iter().copied());
            done = self.manifest.chunk_count() as usize - queue.len();
        }
        self.shared
            .bytes_done
            .store(self.manifest.total - queued_bytes, Ordering::Relaxed);
        self.shared.chunks_done.store(done, Ordering::Relaxed);
        self
    }

    /// Progress and source-health snapshot.
    pub fn stats(&self) -> FetchStats {
        FetchStats {
            sources_total: self.sources.len(),
            sources_live: self.shared.live_sources.load(Ordering::Relaxed),
            chunks_done: self.shared.chunks_done.load(Ordering::Relaxed),
            requeued: self.shared.requeued.load(Ordering::Relaxed),
        }
    }

    fn finishup(shared: &FetchShared, manifest: &ChunkManifest) {
        // Called by each worker on exit: the last one decides the verdict.
        let done = shared.chunks_done.load(Ordering::Relaxed) == manifest.chunk_count() as usize;
        let mut verdict = shared.verdict.lock();
        if verdict.is_some() {
            return;
        }
        if done {
            *verdict = Some(TransferVerdict::Complete);
        } else if shared.live_sources.load(Ordering::Relaxed) == 0 {
            *verdict = Some(TransferVerdict::Interrupted);
        }
    }

    /// One source's session: steal work, pipeline requests, verify replies.
    fn run_source(
        fabric: Fabric,
        locator: Locator,
        manifest: ChunkManifest,
        object: String,
        dest: Arc<ChunkStore>,
        shared: Arc<FetchShared>,
        pipeline: usize,
    ) {
        let mut source = match open_range_source(&fabric, &locator) {
            Ok(s) => s,
            Err(_) => {
                shared.live_sources.fetch_sub(1, Ordering::SeqCst);
                Self::finishup(&shared, &manifest);
                return;
            }
        };
        let mut inflight: VecDeque<u32> = VecDeque::new();
        let mut strikes = 0u32;
        'session: loop {
            // Refill the pipeline from the shared queue.
            while inflight.len() < pipeline {
                let next = shared.queue.lock().pop_front();
                let Some(idx) = next else { break };
                let Some(desc) = manifest.descriptor(idx) else {
                    continue;
                };
                match source.request(&object, manifest.offset_of(idx), desc.len) {
                    Ok(()) => inflight.push_back(idx),
                    Err(_) => {
                        // Connection gone: give everything back and die.
                        let mut q = shared.queue.lock();
                        q.push_back(idx);
                        for i in inflight.drain(..) {
                            shared.requeued.fetch_add(1, Ordering::Relaxed);
                            q.push_back(i);
                        }
                        break 'session;
                    }
                }
            }
            let Some(idx) = inflight.pop_front() else {
                // Nothing in flight and the queue was empty. Another source
                // may still fail and re-queue its chunks; keep helping until
                // the whole fetch is decided.
                if shared.chunks_done.load(Ordering::Relaxed) == manifest.chunk_count() as usize
                    || shared.verdict.lock().is_some()
                {
                    break 'session;
                }
                if shared.queue.lock().is_empty() {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
                continue;
            };
            match source.read_reply() {
                Ok(bytes) => {
                    if dest.put_range(&object, &manifest, idx, &bytes).is_ok() {
                        strikes = 0;
                        shared
                            .bytes_done
                            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
                        shared.chunks_done.fetch_add(1, Ordering::Relaxed);
                    } else {
                        // Digest mismatch: the source served corrupt bytes.
                        strikes += 1;
                        shared.requeued.fetch_add(1, Ordering::Relaxed);
                        shared.queue.lock().push_back(idx);
                        if strikes >= SOURCE_STRIKES {
                            Self::requeue_all(&shared, &mut inflight);
                            break 'session;
                        }
                    }
                }
                Err(_) => {
                    // Source died mid-transfer: re-queue this chunk and all
                    // in-flight ones, then leave the session.
                    shared.requeued.fetch_add(1, Ordering::Relaxed);
                    shared.queue.lock().push_back(idx);
                    Self::requeue_all(&shared, &mut inflight);
                    break 'session;
                }
            }
        }
        shared.live_sources.fetch_sub(1, Ordering::SeqCst);
        Self::finishup(&shared, &manifest);
    }

    fn requeue_all(shared: &FetchShared, inflight: &mut VecDeque<u32>) {
        let mut q = shared.queue.lock();
        for i in inflight.drain(..) {
            shared.requeued.fetch_add(1, Ordering::Relaxed);
            q.push_back(i);
        }
    }
}

impl OobTransfer for MultiSourceFetcher {
    fn connect(&mut self) -> TransportResult<()> {
        if self.sources.is_empty() {
            return Err(TransportError::ConnectFailed(
                "no sources for multi-source fetch".into(),
            ));
        }
        // At least one source endpoint must exist now; individual dead
        // sources are tolerated at receive time.
        let names = self.fabric.listener_names();
        if !self
            .sources
            .iter()
            .any(|l| names.iter().any(|n| n == &l.remote))
        {
            return Err(TransportError::ConnectFailed(format!(
                "none of {} source endpoints listening",
                self.sources.len()
            )));
        }
        Ok(())
    }

    fn disconnect(&mut self) -> TransportResult<()> {
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        Ok(())
    }

    fn probe(&mut self) -> TransportResult<TransferStatus> {
        // Nothing to fetch (empty manifest or all chunks already held) is
        // immediately complete even before receive().
        if self.shared.chunks_done.load(Ordering::Relaxed) == self.manifest.chunk_count() as usize {
            let mut verdict = self.shared.verdict.lock();
            if verdict.is_none() {
                *verdict = Some(TransferVerdict::Complete);
            }
        }
        Ok(TransferStatus {
            bytes_done: self.shared.bytes_done.load(Ordering::Relaxed),
            bytes_total: self.manifest.total,
            outcome: *self.shared.verdict.lock(),
        })
    }

    fn send(&mut self) -> TransportResult<()> {
        Err(TransportError::Protocol(
            "multi-source fetch is receive-only".into(),
        ))
    }

    fn receive(&mut self) -> TransportResult<()> {
        self.shared
            .live_sources
            .store(self.sources.len(), Ordering::SeqCst);
        for (i, locator) in self.sources.clone().into_iter().enumerate() {
            let fabric = self.fabric.clone();
            let manifest = self.manifest.clone();
            let object = self.object.clone();
            let dest = Arc::clone(&self.dest);
            let shared = Arc::clone(&self.shared);
            let pipeline = self.pipeline;
            let handle = std::thread::Builder::new()
                .name(format!("bitdew-fetch-{i}"))
                .spawn(move || {
                    Self::run_source(fabric, locator, manifest, object, dest, shared, pipeline);
                })
                .map_err(|e| {
                    TransportError::Protocol(format!("spawn multi-source fetch worker {i}: {e}"))
                })?;
            self.workers.push(handle);
        }
        Ok(())
    }
}

impl bitdew_transport::oob::NonBlockingOobTransfer for MultiSourceFetcher {}

#[cfg(test)]
mod tests {
    use super::*;
    use bitdew_transport::ftp::FtpServer;
    use bitdew_transport::http::HttpServer;
    use bitdew_transport::MemStore;
    use bitdew_util::Auid;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::time::Duration;

    fn an_id(n: u64) -> DataId {
        let mut rng = SmallRng::seed_from_u64(n);
        Auid::generate(n.max(1), &mut rng)
    }

    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 131 % 251) as u8).collect()
    }

    #[test]
    fn manifest_describes_content() {
        let content = payload(1000);
        let id = an_id(1);
        let m = ChunkManifest::describe(id, 256, &content);
        assert_eq!(m.chunk_count(), 4);
        assert_eq!(m.total, 1000);
        assert_eq!(m.chunks[3].len, 232);
        for (i, c) in content.chunks(256).enumerate() {
            assert!(m.verify(i as u32, c));
        }
        assert!(!m.verify(0, &content[1..257]));
        assert!(!m.verify(9, &content[..256]));
    }

    #[test]
    fn empty_content_is_trivially_complete() {
        let m = ChunkManifest::describe(an_id(2), 256, b"");
        assert_eq!(m.chunk_count(), 0);
        let dest = ChunkStore::new(MemStore::new());
        assert!(dest.is_complete("x", &m));
        assert!(dest.missing("x", &m).is_empty());
    }

    proptest! {
        #[test]
        fn prop_manifest_codec_roundtrip(
            len in 0usize..4096,
            chunk in 1u64..700,
            seed in any::<u64>(),
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let content: Vec<u8> = (0..len).map(|_| rand::Rng::gen(&mut rng)).collect();
            let m = ChunkManifest::describe(an_id(seed), chunk, &content);
            let bytes = m.to_bytes();
            let back = ChunkManifest::from_bytes(&bytes).expect("decode");
            prop_assert_eq!(back, m);
        }

        #[test]
        fn prop_manifest_decode_garbage_never_panics(
            v in proptest::collection::vec(any::<u8>(), 0..128)
        ) {
            let _ = ChunkManifest::from_bytes(&v);
        }

        #[test]
        fn prop_digest_mismatch_surfaces_as_bitdew_error(
            len in 1usize..2048,
            chunk in 16u64..512,
            flip in any::<usize>(),
        ) {
            let content = payload(len);
            let m = ChunkManifest::describe(an_id(7), chunk, &content);
            let dest = ChunkStore::new(MemStore::new());
            // Corrupt one byte of chunk 0's window and try to admit it.
            let w = (m.chunk_size as usize).min(len);
            let mut bad = content[..w].to_vec();
            bad[flip % w] ^= 0x5A;
            let err = dest.put_range("obj", &m, 0, &bad).unwrap_err();
            prop_assert!(matches!(err, BitdewError::ChunkDigest { index: 0, .. }));
            prop_assert!(!dest.has_chunk("obj", 0));
            // The pristine chunk is admitted.
            dest.put_range("obj", &m, 0, &content[..w]).unwrap();
            prop_assert!(dest.has_chunk("obj", 0));
        }
    }

    #[test]
    fn chunk_store_tracks_presence_and_absorbs() {
        let content = payload(10_000);
        let m = ChunkManifest::describe(an_id(3), 1024, &content);
        let dest = ChunkStore::new(MemStore::new());
        assert_eq!(dest.missing("obj", &m).len(), 10);
        // Admit chunks out of order.
        for idx in [3u32, 0, 9] {
            let off = m.offset_of(idx) as usize;
            let end = (off + m.chunk_size as usize).min(content.len());
            dest.put_range("obj", &m, idx, &content[off..end]).unwrap();
        }
        assert!(dest.has_chunk("obj", 3));
        assert!(!dest.has_chunk("obj", 1));
        assert_eq!(dest.held_count("obj"), 3);
        assert_eq!(dest.missing("obj", &m).len(), 7);
        // A store holding the full object absorbs every chunk.
        let full = ChunkStore::new(MemStore::new());
        full.store().write_at("obj", 0, &content).unwrap();
        assert_eq!(full.absorb("obj", &m), 10);
        assert!(full.is_complete("obj", &m));
        // Invalidation models partial loss.
        full.invalidate_chunk("obj", 5);
        assert_eq!(full.missing("obj", &m), vec![5]);
        // A store whose middle chunk is corrupt absorbs the others, its
        // neighbours read through the same buffer included.
        let torn = ChunkStore::new(MemStore::new());
        let mut bad = content.clone();
        bad[m.offset_of(4) as usize + 100] ^= 0x5A;
        torn.store().write_at("obj", 0, &bad).unwrap();
        assert_eq!(torn.absorb("obj", &m), 9);
        assert_eq!(torn.missing("obj", &m), vec![4]);
    }

    fn locator_for(data: &Data, proto: ProtocolId, remote: &str) -> Locator {
        Locator::new(data, proto, remote)
    }

    #[test]
    fn multi_source_fetch_completes_from_mixed_protocols() {
        let fabric = Fabric::new();
        let content = payload(800_000);
        let data = Data::from_bytes(an_id(4), "blob", &content);
        let manifest = ChunkManifest::describe(data.id, 64 * 1024, &content);
        // Three sources: two FTP, one HTTP, all holding the full object.
        let mut servers: Vec<Box<dyn std::any::Any>> = Vec::new();
        for i in 0..2 {
            let s = MemStore::new();
            s.put(&data.object_name(), &content);
            servers.push(Box::new(FtpServer::start(
                &fabric,
                &format!("src{i}.ftp"),
                s,
            )));
        }
        let hs = MemStore::new();
        hs.put(&data.object_name(), &content);
        servers.push(Box::new(HttpServer::start(&fabric, "src2.http", hs)));

        let sources = vec![
            locator_for(&data, ProtocolId::ftp(), "src0.ftp"),
            locator_for(&data, ProtocolId::ftp(), "src1.ftp"),
            locator_for(&data, ProtocolId::http(), "src2.http"),
        ];
        let dest = ChunkStore::new(MemStore::new());
        let mut fetch =
            MultiSourceFetcher::new(fabric, &data, manifest.clone(), sources, Arc::clone(&dest));
        fetch.connect().unwrap();
        fetch.receive().unwrap();
        let status = bitdew_transport::oob::NonBlockingOobTransfer::wait(
            &mut fetch,
            Duration::from_millis(2),
        )
        .unwrap();
        assert_eq!(status.outcome, Some(TransferVerdict::Complete));
        assert_eq!(status.bytes_done, content.len() as u64);
        assert!(dest.is_complete(&data.object_name(), &manifest));
        let got = dest
            .get_range(&data.object_name(), 0, content.len())
            .unwrap();
        assert_eq!(&got[..], &content[..]);
        fetch.disconnect().unwrap();
    }

    #[test]
    fn source_death_mid_fetch_requeues_to_survivors() {
        let fabric = Fabric::new();
        let content = payload(1_200_000);
        let data = Data::from_bytes(an_id(5), "big", &content);
        let manifest = ChunkManifest::describe(data.id, 64 * 1024, &content);
        let mut servers = Vec::new();
        for i in 0..3 {
            let s = MemStore::new();
            s.put(&data.object_name(), &content);
            servers.push(FtpServer::start(&fabric, &format!("s{i}.ftp"), s));
        }
        // Source 0 dies after ~128 KiB of payload.
        servers[0].inject_drop_after(128 * 1024);
        let sources: Vec<Locator> = (0..3)
            .map(|i| locator_for(&data, ProtocolId::ftp(), &format!("s{i}.ftp")))
            .collect();
        let dest = ChunkStore::new(MemStore::new());
        let mut fetch =
            MultiSourceFetcher::new(fabric, &data, manifest.clone(), sources, Arc::clone(&dest));
        fetch.connect().unwrap();
        fetch.receive().unwrap();
        let status = bitdew_transport::oob::NonBlockingOobTransfer::wait(
            &mut fetch,
            Duration::from_millis(2),
        )
        .unwrap();
        assert_eq!(status.outcome, Some(TransferVerdict::Complete));
        let stats = fetch.stats();
        assert!(stats.requeued >= 1, "dead source's chunks were re-queued");
        assert!(stats.sources_live <= 2, "the dead source was dropped");
        let got = dest
            .get_range(&data.object_name(), 0, content.len())
            .unwrap();
        assert_eq!(&got[..], &content[..]);
        fetch.disconnect().unwrap();
    }

    #[test]
    fn chunk_holdings_partition_helpers() {
        let (a, b, c) = (an_id(10), an_id(11), an_id(12));
        let h = ChunkHoldings {
            full: vec![a],
            partial: vec![(b, vec![0, 2]), (c, vec![2, 3])],
        };
        let mut want = vec![a, b, c];
        want.sort();
        assert_eq!(h.participants(), want);
        let mut h0 = vec![a, b];
        h0.sort();
        assert_eq!(h.holders_of(0), h0);
        let mut h2 = vec![a, b, c];
        h2.sort();
        assert_eq!(h.holders_of(2), h2);
        assert_eq!(h.holders_of(7), vec![a]);
    }

    #[test]
    fn with_chunks_fetches_only_the_requested_subset() {
        let fabric = Fabric::new();
        let content = payload(10_000);
        let data = Data::from_bytes(an_id(8), "sub", &content);
        let manifest = ChunkManifest::describe(data.id, 1024, &content);
        let s = MemStore::new();
        s.put(&data.object_name(), &content);
        let _server = FtpServer::start(&fabric, "sub.ftp", s);
        let sources = vec![locator_for(&data, ProtocolId::ftp(), "sub.ftp")];
        let dest = ChunkStore::new(MemStore::new());
        let mut fetch =
            MultiSourceFetcher::new(fabric, &data, manifest.clone(), sources, Arc::clone(&dest))
                .with_chunks(&[1, 3, 7]);
        fetch.connect().unwrap();
        fetch.receive().unwrap();
        let status = bitdew_transport::oob::NonBlockingOobTransfer::wait(
            &mut fetch,
            Duration::from_millis(2),
        )
        .unwrap();
        assert_eq!(status.outcome, Some(TransferVerdict::Complete));
        fetch.disconnect().unwrap();
        for idx in [1u32, 3, 7] {
            assert!(dest.has_chunk(&data.object_name(), idx));
        }
        for idx in [0u32, 2, 4, 5, 6, 8, 9] {
            assert!(!dest.has_chunk(&data.object_name(), idx), "chunk {idx}");
        }
    }

    #[test]
    fn all_sources_dead_interrupts_resumably() {
        let fabric = Fabric::new();
        let content = payload(400_000);
        let data = Data::from_bytes(an_id(6), "doomed", &content);
        let manifest = ChunkManifest::describe(data.id, 64 * 1024, &content);
        let s = MemStore::new();
        s.put(&data.object_name(), &content);
        let server = FtpServer::start(&fabric, "only.ftp", s);
        server.inject_drop_after(128 * 1024);
        let sources = vec![locator_for(&data, ProtocolId::ftp(), "only.ftp")];
        let dest = ChunkStore::new(MemStore::new());
        let mut fetch = MultiSourceFetcher::new(
            fabric.clone(),
            &data,
            manifest.clone(),
            sources.clone(),
            Arc::clone(&dest),
        );
        fetch.connect().unwrap();
        fetch.receive().unwrap();
        drop(server); // no listener left for reconnects
        let status = bitdew_transport::oob::NonBlockingOobTransfer::wait(
            &mut fetch,
            Duration::from_millis(2),
        )
        .unwrap();
        assert_eq!(status.outcome, Some(TransferVerdict::Interrupted));
        fetch.disconnect().unwrap();
        let held = dest.held_count(&data.object_name());
        assert!(held < manifest.chunk_count());

        // Resume against a fresh server: only the missing chunks move.
        let s2 = MemStore::new();
        s2.put(&data.object_name(), &content);
        let _server2 = FtpServer::start(&fabric, "only.ftp", s2);
        let mut resume = MultiSourceFetcher::new(fabric, &data, manifest.clone(), sources, dest);
        let before = resume.stats().chunks_done;
        assert_eq!(before as u32, held, "verified chunks are kept");
        resume.connect().unwrap();
        resume.receive().unwrap();
        let status = bitdew_transport::oob::NonBlockingOobTransfer::wait(
            &mut resume,
            Duration::from_millis(2),
        )
        .unwrap();
        assert_eq!(status.outcome, Some(TransferVerdict::Complete));
        resume.disconnect().unwrap();
    }
}
