//! The versioned mutation plane: MVCC chunk trees, snapshot reads and
//! concurrent non-overlapping writers.
//!
//! PR 3's chunked data plane made a datum's content *describable* — a
//! [`ChunkManifest`] of fixed-size CRC32-digested chunks — but left it
//! write-once: any update meant republishing the whole blob under a fresh
//! manifest. Nicolae et al.'s fine-grain access scheme (BlobSeer) shows
//! the unlock this module reproduces: **immutable versioned chunk
//! metadata trees**. A writer publishes only the chunk descriptors it
//! changed plus a new root ([`VersionedManifest`]: parent version id +
//! copy-on-write changed set); readers resolve any version by walking the
//! chain from the base manifest and get lock-free snapshot isolation.
//!
//! The pieces, from the wire up:
//!
//! * [`VersionedManifest`] — one immutable version row: `parent` id plus
//!   the descriptors of exactly the chunks this version re-digested.
//!   Storage-codec encoded with a leading magic; decoding a PR 3
//!   [`ChunkManifest`] row (no magic) yields **version 1**, so pre-MVCC
//!   catalog rows read back unchanged. Rows ≥ 2 persist in the
//!   `dc_version` catalog table, chained from the `dc_manifest` base row.
//! * [`ResolvedVersion`] — the materialized chunk map of one version:
//!   every chunk's current descriptor plus its **birth version** (the
//!   version that last wrote it). Unchanged chunks share their descriptor
//!   with every later version — the structural sharing that makes a
//!   version O(changed), not O(total).
//! * **The head is held resolved.** Each datum's head lives in memory as
//!   one `Arc<ResolvedVersion>` ([`VersionState::head`]). It is loaded
//!   cold once — one manifest get and one `dc_version` scan, replayed by
//!   [`ResolvedVersion::resolve`] — and a commit then
//!   [`advance`](ResolvedVersion::advance)s it by its own delta, O(changed).
//!   Commits, snapshots at the head and the head manifest read it from
//!   memory; only older versions (the GC's pinned set) are resolved cold.
//!   Rows are still persisted first and stay the source of truth: a
//!   restarted plane rebuilds the same head from them.
//! * [`commit_version`] — the per-datum version-head CAS: a writer whose
//!   `parent` still equals the head commits as `head + 1`; a writer whose
//!   base went stale **auto-rebases** when none of its chunks was
//!   rewritten since — every changed chunk's **birth** in the head is
//!   still ≤ its base (concurrent non-overlapping `put_range` writers all
//!   land); overlapping writers get a retryable
//!   [`BitdewError::VersionConflict`]. Comparing births needs only the
//!   head, not the rows committed since the base.
//! * [`Snapshot`] — a reader pinned to a version id. The pin is
//!   reference-counted in a shared [`PinRegistry`] and released on drop,
//!   so the GC sweep ([`gc_plan`]) never reclaims a pre-image an open
//!   snapshot can still reach. Pre-images live under per-chunk
//!   [`versioned_object`] names keyed by *birth* version and chunk
//!   index — the `(object, version)` presence keying of the chunk store.
//! * [`gc_plan`] — the reference-counting sweep: a preserved pre-image
//!   chunk `(birth b, index i)` is live iff some live version (the head
//!   or a pinned snapshot) still resolves chunk `i` to birth `b`;
//!   everything else is reclaimed.
//!
//! `VersionPlane` carries out the operations — commit, snapshot, read at a
//! version, GC sweep, delete — over one service plane and content store.
//! A commit's bytes cost what it changes, plus one pre-image: per touched
//! chunk it reads the chunk once if it is the first to supersede that
//! chunk's birth (and copies it to the pre-image object), otherwise only
//! the patched window; it digests only the window, patching the head
//! descriptor's CRC-32 by linearity ([`crc32_patch`]); and it writes only
//! the window back into the canonical object, which stays the head's bytes
//! for every other reader (chunk serving, repair, `get_range`).
//! Both backends call the same operations: the threaded
//! [`BitdewNode`](crate::BitdewNode) over its container's catalog and
//! repository store, the simulator over a `MemStore` and in-memory DewDB
//! (it adds only the cost of a publication, as a small metadata flow). The
//! proptest suite in `tests/version_plane.rs` runs the same interleavings
//! against both.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use bytes::{Bytes, BytesMut};
use parking_lot::Mutex;

use bitdew_storage::codec::{decode_vec, encode_vec, CodecError, Decode, Encode};
use bitdew_storage::crc32::crc32_patch;
use bitdew_transport::{FileStore, StoreError};

use crate::api::{BitdewError, Result};
use crate::chunks::{ChunkDescriptor, ChunkManifest};
use crate::data::{Data, DataId};
use crate::runtime::no_manifest;
use crate::shard::ShardedPlane;

/// Magic prefix of a [`VersionedManifest`] row. A PR 3 [`ChunkManifest`]
/// row starts with a raw [`DataId`] instead, which is how
/// [`VersionedManifest::decode`] tells the generations apart.
pub const VERSION_MAGIC: u32 = 0xB17D_EE09;

/// Name of a chunk's pre-image preservation object: chunk `index` whose
/// birth version is `version` keeps its superseded bytes under
/// `versioned_object(object, version, index)`, chunk bytes at offset 0.
/// This is how chunk-store presence becomes `(object, version)`-keyed
/// while unchanged chunks stay structurally shared in the canonical
/// object. Per-chunk objects keep preservation O(chunk) — a shared
/// per-birth object would have to span up to the chunk's canonical
/// offset, zero-filling blob-sized holes for every commit.
pub fn versioned_object(object: &str, version: u64, index: u32) -> String {
    format!("{object}@v{version}.c{index}")
}

/// One immutable version of a datum's chunk tree: the parent version plus
/// the copy-on-write set of chunk descriptors this version re-digested.
///
/// Version 1 is the base [`ChunkManifest`] itself (every chunk
/// "changed"); versions ≥ 2 are deltas persisted in the `dc_version`
/// catalog table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionedManifest {
    /// The datum this version belongs to.
    pub data: DataId,
    /// This version's id (1 = the base manifest).
    pub version: u64,
    /// The version this one was derived from (0 for the base).
    pub parent: u64,
    /// Nominal chunk size, invariant across the chain.
    pub chunk_size: u64,
    /// Total content length, invariant across the chain.
    pub total: u64,
    /// Descriptors of exactly the chunks this version changed, ordered by
    /// index.
    pub changed: Vec<ChunkDescriptor>,
}

impl VersionedManifest {
    /// The base version (1) of a published [`ChunkManifest`]: parent 0,
    /// every chunk in the changed set.
    pub fn from_base(manifest: &ChunkManifest) -> VersionedManifest {
        VersionedManifest {
            data: manifest.data,
            version: 1,
            parent: 0,
            chunk_size: manifest.chunk_size,
            total: manifest.total,
            changed: manifest.chunks.clone(),
        }
    }

    /// Sorted indices of the chunks this version changed.
    pub fn changed_indices(&self) -> Vec<u32> {
        self.changed.iter().map(|c| c.index).collect()
    }
}

impl Encode for VersionedManifest {
    fn encode(&self, buf: &mut BytesMut) {
        VERSION_MAGIC.encode(buf);
        self.data.encode(buf);
        self.version.encode(buf);
        self.parent.encode(buf);
        self.chunk_size.encode(buf);
        self.total.encode(buf);
        encode_vec(&self.changed, buf);
    }
}

impl Decode for VersionedManifest {
    fn decode(buf: &mut Bytes) -> std::result::Result<Self, CodecError> {
        // Peek the magic on a cheap refcounted clone: a row written by the
        // pre-MVCC chunk plane starts with the datum's raw id instead and
        // must keep decoding as a legacy ChunkManifest read as version 1.
        let mut probe = buf.clone();
        if u32::decode(&mut probe)? == VERSION_MAGIC {
            *buf = probe;
            let vm = VersionedManifest {
                data: DataId::decode(buf)?,
                version: u64::decode(buf)?,
                parent: u64::decode(buf)?,
                chunk_size: u64::decode(buf)?,
                total: u64::decode(buf)?,
                changed: decode_vec(buf)?,
            };
            if vm.version == 0 || vm.parent >= vm.version {
                return Err(CodecError::Corrupt("version chain order"));
            }
            Ok(vm)
        } else {
            Ok(VersionedManifest::from_base(&ChunkManifest::decode(buf)?))
        }
    }
}

/// The fully materialized chunk map of one version: every chunk's current
/// descriptor plus the **birth version** that last wrote it. Built by
/// [`ResolvedVersion::resolve`] from the base manifest and the delta rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolvedVersion {
    /// The datum.
    pub data: DataId,
    /// The version this resolution materializes.
    pub version: u64,
    /// Nominal chunk size.
    pub chunk_size: u64,
    /// Total content length.
    pub total: u64,
    /// Per-chunk `(descriptor, birth version)`, ordered by index.
    pub chunks: Vec<(ChunkDescriptor, u64)>,
}

impl ResolvedVersion {
    /// Walk the chain: start from `base` (every chunk born at version 1)
    /// and apply each delta row with `row.version <= version` in ascending
    /// order, stamping changed chunks with the writing version.
    pub fn resolve(
        base: &ChunkManifest,
        rows: &[VersionedManifest],
        version: u64,
    ) -> ResolvedVersion {
        let mut rv = ResolvedVersion {
            data: base.data,
            version: 1,
            chunk_size: base.chunk_size,
            total: base.total,
            chunks: base.chunks.iter().map(|c| (*c, 1)).collect(),
        };
        for row in rows.iter().filter(|r| r.version <= version) {
            rv.advance(row);
        }
        rv.version = version;
        rv
    }

    /// Apply one committed delta row: stamp every changed chunk with
    /// `row.version` and move this resolution to that version. O(changed);
    /// applying the same row twice is a no-op.
    pub fn advance(&mut self, row: &VersionedManifest) {
        for d in &row.changed {
            if let Some(slot) = self.chunks.get_mut(d.index as usize) {
                *slot = (*d, row.version);
            }
        }
        self.version = row.version;
    }

    /// Number of chunks.
    pub fn chunk_count(&self) -> u32 {
        self.chunks.len() as u32
    }

    /// The version that last wrote chunk `index`, if in range.
    pub fn birth_of(&self, index: u32) -> Option<u64> {
        self.chunks.get(index as usize).map(|(_, b)| *b)
    }

    /// The chunk descriptor at `index`, if in range.
    pub fn descriptor(&self, index: u32) -> Option<&ChunkDescriptor> {
        self.chunks.get(index as usize).map(|(d, _)| d)
    }

    /// `(index, birth)` of every chunk overlapping bytes
    /// `[offset, offset + len)`, in index order.
    pub fn overlapping(&self, offset: u64, len: usize) -> Vec<(u32, u64)> {
        if len == 0 || self.chunk_size == 0 {
            return Vec::new();
        }
        let first = (offset / self.chunk_size) as u32;
        let last = ((offset + len as u64 - 1) / self.chunk_size) as u32;
        (first..=last)
            .filter_map(|i| self.birth_of(i).map(|b| (i, b)))
            .collect()
    }

    /// The pieces a read of bytes `[offset, offset + len)` of this version
    /// takes, clipped to the content: one per overlapping chunk, in index
    /// order.
    pub(crate) fn pieces(&self, offset: u64, len: usize) -> Vec<Piece> {
        let len = len.min(self.total.saturating_sub(offset) as usize);
        let end = offset + len as u64;
        self.overlapping(offset, len)
            .into_iter()
            .filter_map(|(index, birth)| {
                let chunk_start = index as u64 * self.chunk_size;
                let start = offset.max(chunk_start);
                let stop = end.min(chunk_start + self.descriptor(index)?.len as u64);
                Some(Piece {
                    index,
                    birth,
                    start,
                    within: start - chunk_start,
                    len: (stop - start) as usize,
                })
            })
            .collect()
    }

    /// Materialize this version as a plain [`ChunkManifest`] — what the
    /// repair/announce/compute planes key digests on.
    pub fn to_manifest(&self) -> ChunkManifest {
        ChunkManifest {
            data: self.data,
            chunk_size: self.chunk_size,
            total: self.total,
            chunks: self.chunks.iter().map(|(d, _)| *d).collect(),
        }
    }
}

/// The per-datum version-head CAS, run under the commit lock by
/// [`ShardedPlane::publish_version`].
///
/// `head` is the datum's resolved head, `parent` the base the writer
/// resolved against and `changed` its changed chunk indices. Returns the
/// version id the writer commits as:
///
/// * `parent == head` — the fast path: commit as `head + 1`.
/// * `parent < head` and every changed chunk's birth in the head is
///   ≤ `parent` — **auto-rebase**: no version in `(parent, head]` rewrote
///   the writer's chunks, so its patch applies to the head verbatim;
///   commit as `head + 1`.
/// * some changed chunk born after `parent` —
///   [`BitdewError::VersionConflict`], retryable: re-read the head and
///   resubmit.
///
/// A version in `(parent, head]` rewrote chunk `i` exactly when the head's
/// birth of `i` is later than `parent`, so this decides the same as
/// intersecting `changed` with every intervening row's changed set, from
/// the head alone.
pub fn commit_version(head: &ResolvedVersion, parent: u64, changed: &[u32]) -> Result<u64> {
    if parent == 0 || parent > head.version {
        return Err(BitdewError::CatalogMiss {
            what: format!("version {parent} to commit against (head {})", head.version),
        });
    }
    if changed
        .iter()
        .any(|&i| head.birth_of(i).is_some_and(|birth| birth > parent))
    {
        return Err(BitdewError::VersionConflict {
            head: head.version,
            attempted: parent,
        });
    }
    Ok(head.version + 1)
}

/// Whether publishing `manifest` as a datum's base must write it, given
/// the datum's resolved `head`; shared by both backends.
///
/// * No head, or head ≤ 1 — `true`: the base may be (re)published until a
///   version commits on top of it.
/// * Head > 1 and `manifest` is the head's own chunk map — `false`: the
///   content is the head's, so there is nothing to publish.
/// * Head > 1 otherwise — a non-retryable error. The delta rows would
///   replay over the new base, and resetting the chain would orphan pinned
///   snapshots and preserved pre-images; versioned content is replaced by
///   a full-range commit.
pub fn check_republish(manifest: &ChunkManifest, head: Option<&ResolvedVersion>) -> Result<bool> {
    let Some(head) = head.filter(|h| h.version > 1) else {
        return Ok(true);
    };
    let same = head.chunk_size == manifest.chunk_size
        && head.total == manifest.total
        && head.chunks.iter().map(|(d, _)| d).eq(&manifest.chunks);
    if same {
        return Ok(false);
    }
    Err(BitdewError::Scheduler {
        what: format!(
            "data {} is at version {}: replace versioned content with a \
             full-range commit_update, not a new base manifest",
            manifest.data, head.version
        ),
    })
}

/// Of the chunks a stale-version holder announced (`held`, head indices),
/// the subset still byte-identical at the head: chunks whose birth in the
/// head's resolution is ≤ the holder's `announced` version. The announce
/// plane feeds this to the scheduler so a stale holder is demoted to a
/// partial holder (a repair target) instead of being counted a serving
/// replica for the head.
pub fn head_valid_subset(head: &ResolvedVersion, held: &[u32], announced: u64) -> Vec<u32> {
    held.iter()
        .copied()
        .filter(|&i| head.birth_of(i).is_some_and(|b| b <= announced))
        .collect()
}

/// One chunk's share of a versioned range read (see
/// [`ResolvedVersion::pieces`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Piece {
    /// The chunk.
    pub index: u32,
    /// The version that last wrote the chunk, as of the resolved version.
    pub birth: u64,
    /// Byte offset of the piece within the datum.
    pub start: u64,
    /// Byte offset of the piece within its chunk.
    pub within: u64,
    /// Piece length.
    pub len: usize,
}

/// One contiguous segment of a write, clipped to a single chunk — what
/// [`split_writes`] hands a backend to patch chunk bytes with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteSegment {
    /// Byte offset within the chunk where this segment lands.
    pub chunk_offset: usize,
    /// Index into the commit's write list.
    pub write: usize,
    /// Start of the segment within that write's bytes.
    pub start: usize,
    /// End (exclusive) of the segment within that write's bytes.
    pub end: usize,
}

/// Validate a commit's writes against the chain's fixed geometry and split
/// them into per-chunk segments: map of chunk index → segments in write
/// order (later writes of one commit overwrite earlier ones). A write
/// reaching past `total` is a [`BitdewError::CatalogMiss`] — the version
/// plane mutates in place, it does not grow the blob.
pub fn split_writes(
    chunk_size: u64,
    total: u64,
    writes: &[(u64, Vec<u8>)],
) -> Result<BTreeMap<u32, Vec<WriteSegment>>> {
    if writes.is_empty() || writes.iter().all(|(_, b)| b.is_empty()) {
        return Err(BitdewError::Scheduler {
            what: "empty version commit".into(),
        });
    }
    let mut by_chunk: BTreeMap<u32, Vec<WriteSegment>> = BTreeMap::new();
    for (w, (offset, bytes)) in writes.iter().enumerate() {
        if bytes.is_empty() {
            continue;
        }
        let end = offset.saturating_add(bytes.len() as u64);
        if end > total {
            return Err(BitdewError::CatalogMiss {
                what: format!(
                    "chunk covering offset {} (content is {total} bytes)",
                    end - 1
                ),
            });
        }
        let mut cursor = *offset;
        while cursor < end {
            let chunk = (cursor / chunk_size) as u32;
            let chunk_end = (chunk as u64 + 1) * chunk_size;
            let seg_end = end.min(chunk_end);
            by_chunk.entry(chunk).or_default().push(WriteSegment {
                chunk_offset: (cursor % chunk_size) as usize,
                write: w,
                start: (cursor - offset) as usize,
                end: (seg_end - offset) as usize,
            });
            cursor = seg_end;
        }
    }
    Ok(by_chunk)
}

/// What a GC sweep reclaimed and what it kept alive.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Preserved pre-image chunks reclaimed.
    pub chunks_reclaimed: u32,
    /// Bytes those chunks occupied.
    pub bytes_reclaimed: u64,
    /// Pre-image objects (`object@v{b}.c{i}`, one per preserved chunk)
    /// removed from the store.
    pub objects_removed: u32,
    /// The versions the sweep had to keep: the head plus every version an
    /// open [`Snapshot`] pins, ascending.
    pub live_versions: Vec<u64>,
}

/// The reference-counting sweep: of the preserved pre-image chunks
/// `(birth, index, len)`, return those unreachable from every live
/// resolution — no live version still resolves that chunk index to that
/// birth. The caller deletes the returned entries from its store.
pub fn gc_plan(live: &[ResolvedVersion], preserved: &[(u64, u32, u32)]) -> Vec<(u64, u32, u32)> {
    preserved
        .iter()
        .copied()
        .filter(|&(birth, index, _)| !live.iter().any(|rv| rv.birth_of(index) == Some(birth)))
        .collect()
}

/// The shared registry of open snapshot pins: `(datum, version)` →
/// open-snapshot count, which the GC sweep consults.
pub type PinRegistry = Arc<Mutex<HashMap<(DataId, u64), usize>>>;

/// A reference-counted hold on one version, released on drop. Carried by
/// every [`Snapshot`] so the GC cannot reclaim pre-images under an open
/// reader.
#[derive(Debug)]
pub struct SnapshotPin {
    registry: PinRegistry,
    key: (DataId, u64),
}

impl SnapshotPin {
    /// Register a pin on `(data, version)` in `registry`.
    pub fn new(registry: PinRegistry, data: DataId, version: u64) -> SnapshotPin {
        *registry.lock().entry((data, version)).or_insert(0) += 1;
        SnapshotPin {
            registry,
            key: (data, version),
        }
    }
}

impl Drop for SnapshotPin {
    fn drop(&mut self) {
        let mut pins = self.registry.lock();
        if let Some(n) = pins.get_mut(&self.key) {
            *n -= 1;
            if *n == 0 {
                pins.remove(&self.key);
            }
        }
    }
}

/// A reader pinned to one version of a datum: resolves every chunk through
/// the version tree, so writes committed after the snapshot opened are
/// invisible to it. Dropping the snapshot releases its GC pin.
#[derive(Debug)]
pub struct Snapshot {
    resolved: Arc<ResolvedVersion>,
    _pin: SnapshotPin,
}

impl Snapshot {
    /// Pair a resolution with its registry pin (the version plane's
    /// `open_snapshot` shares the in-memory head's `Arc`).
    pub fn new(resolved: impl Into<Arc<ResolvedVersion>>, pin: SnapshotPin) -> Snapshot {
        Snapshot {
            resolved: resolved.into(),
            _pin: pin,
        }
    }

    /// The datum this snapshot reads.
    pub fn data(&self) -> DataId {
        self.resolved.data
    }

    /// The pinned version id.
    pub fn version(&self) -> u64 {
        self.resolved.version
    }

    /// The snapshot's resolved chunk map.
    pub fn resolved(&self) -> &ResolvedVersion {
        &self.resolved
    }

    /// The snapshot's chunk map as a plain manifest (per-chunk digests at
    /// the pinned version).
    pub fn manifest(&self) -> ChunkManifest {
        self.resolved.to_manifest()
    }
}

/// Tracks a pre-image chunk's length and whether its copy has landed.
#[derive(Debug, Clone, Copy)]
struct Preserved {
    len: u32,
    ready: bool,
}

/// Per-datum preservation ledger: birth version → chunk index → claim.
type PreservedLedger = HashMap<DataId, HashMap<u64, HashMap<u32, Preserved>>>;

/// Per-chunk commit locks, allocated on first touch.
type ChunkLocks = HashMap<(DataId, u32), Arc<Mutex<()>>>;

/// The in-memory resolved heads, and a generation that moves whenever a
/// change leaves a datum with no head held (a delete, a commit to an
/// unloaded head), so a cold load that read the catalog before that change
/// cannot install what it read.
#[derive(Default)]
struct Heads {
    by_data: HashMap<DataId, Arc<ResolvedVersion>>,
    generation: u64,
}

/// The mutable version-plane state a deployment shares across its nodes:
/// each datum's resolved head, the snapshot [`PinRegistry`], and the
/// claim/ready ledger of preserved pre-image chunks.
///
/// The head is the one in-memory representation of where a datum's chain
/// stands. The plane loads it cold from the catalog
/// ([`install_head`](VersionState::install_head): one manifest get and one
/// row scan, kept only if nothing newer landed meanwhile), replaces it
/// when a base manifest is published
/// ([`replace_head`](VersionState::replace_head)) and, under the commit
/// lock, advances it by each committed row
/// ([`advance_head`](VersionState::advance_head)) after the row persisted.
/// Snapshots share the head's `Arc`; an advance copies the chunk map only
/// while a snapshot still holds the old one.
///
/// The preservation protocol is first-claimer-copies: a committing writer
/// [`claim_preserve`](VersionState::claim_preserve)s every chunk it is
/// about to overwrite; the winner copies the canonical bytes into the
/// birth version's preservation object and
/// [`mark_preserved`](VersionState::mark_preserved)s it, a loser (a
/// concurrent overlapping writer — one of them will conflict at the CAS)
/// waits for `ready` instead of copying, so a pre-image is never
/// re-copied after the canonical bytes moved on.
#[derive(Default)]
pub struct VersionState {
    commit: Mutex<()>,
    heads: Mutex<Heads>,
    pins: PinRegistry,
    preserved: Mutex<PreservedLedger>,
    settled: Mutex<HashMap<DataId, HashMap<u32, u64>>>,
    chunk_locks: Mutex<ChunkLocks>,
}

impl VersionState {
    /// Fresh state (heads load lazily from the catalog).
    pub fn new() -> VersionState {
        VersionState::default()
    }

    /// The resolved head of `id`, if loaded.
    pub fn head(&self, id: DataId) -> Option<Arc<ResolvedVersion>> {
        self.heads.lock().by_data.get(&id).cloned()
    }

    /// The generation a cold load must read *before* it reads the
    /// catalog, and hand back to [`install_head`](VersionState::install_head).
    pub fn generation(&self) -> u64 {
        self.heads.lock().generation
    }

    /// Install a head loaded cold from the catalog, unless one is already
    /// held (it is at least as new) or a datum was forgotten since
    /// `generation` was read (the load may predate a delete). Returns the
    /// head to use.
    pub fn install_head(&self, head: ResolvedVersion, generation: u64) -> Arc<ResolvedVersion> {
        let mut heads = self.heads.lock();
        if let Some(held) = heads.by_data.get(&head.data) {
            return Arc::clone(held);
        }
        let head = Arc::new(head);
        if heads.generation == generation {
            heads.by_data.insert(head.data, Arc::clone(&head));
        }
        head
    }

    /// Replace the head of `head.data` outright (a base manifest was
    /// published; called under the commit lock).
    pub fn replace_head(&self, head: ResolvedVersion) {
        self.heads.lock().by_data.insert(head.data, Arc::new(head));
    }

    /// Advance the held head of `row.data` by the committed `row` (called
    /// under the commit lock, after the row persisted). With no head held
    /// the generation moves instead, so a cold load that read the chain
    /// before this row cannot install it; the next read loads the row.
    pub fn advance_head(&self, row: &VersionedManifest) {
        let mut heads = self.heads.lock();
        match heads.by_data.get_mut(&row.data) {
            Some(head) => Arc::make_mut(head).advance(row),
            None => heads.generation += 1,
        }
    }

    /// Serialize a CAS commit: held across read-head / check / persist /
    /// advance so two writers cannot both commit the same successor.
    pub fn commit_lock(&self) -> parking_lot::MutexGuard<'_, ()> {
        self.commit.lock()
    }

    /// Open a pin on `(id, version)`.
    pub fn pin(&self, id: DataId, version: u64) -> SnapshotPin {
        SnapshotPin::new(Arc::clone(&self.pins), id, version)
    }

    /// Versions of `id` open snapshots currently pin, ascending.
    pub fn pinned(&self, id: DataId) -> Vec<u64> {
        let pins = self.pins.lock();
        let mut v: Vec<u64> = pins
            .keys()
            .filter(|(d, _)| *d == id)
            .map(|(_, ver)| *ver)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Claim the pre-image copy of chunk `index` at birth `version`:
    /// `true` means the caller must copy the canonical bytes and then
    /// [`mark_preserved`](VersionState::mark_preserved); `false` means
    /// another writer holds (or completed) the copy.
    pub fn claim_preserve(&self, id: DataId, version: u64, index: u32, len: u32) -> bool {
        let mut preserved = self.preserved.lock();
        let slot = preserved.entry(id).or_default().entry(version).or_default();
        match slot.entry(index) {
            std::collections::hash_map::Entry::Occupied(_) => false,
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(Preserved { len, ready: false });
                true
            }
        }
    }

    /// Declare a claimed pre-image copy landed and readable.
    pub fn mark_preserved(&self, id: DataId, version: u64, index: u32) {
        if let Some(p) = self
            .preserved
            .lock()
            .get_mut(&id)
            .and_then(|v| v.get_mut(&version))
            .and_then(|s| s.get_mut(&index))
        {
            p.ready = true;
        }
    }

    /// Whether chunk `index`'s pre-image at birth `version` is readable.
    pub fn is_preserved(&self, id: DataId, version: u64, index: u32) -> bool {
        self.preserved
            .lock()
            .get(&id)
            .and_then(|v| v.get(&version))
            .and_then(|s| s.get(&index))
            .is_some_and(|p| p.ready)
    }

    /// Every ready preserved pre-image chunk of `id` as
    /// `(birth, index, len)` — the GC sweep's inventory.
    pub fn preserved_inventory(&self, id: DataId) -> Vec<(u64, u32, u32)> {
        let preserved = self.preserved.lock();
        let mut out = Vec::new();
        if let Some(by_version) = preserved.get(&id) {
            for (&version, set) in by_version {
                for (&index, p) in set {
                    if p.ready {
                        out.push((version, index, p.len));
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Drop a reclaimed pre-image chunk from the ledger; returns `true`
    /// when birth `version` has no preserved chunks left (its preservation
    /// object can be removed from the store).
    pub fn reclaim(&self, id: DataId, version: u64, index: u32) -> bool {
        let mut preserved = self.preserved.lock();
        let Some(by_version) = preserved.get_mut(&id) else {
            return false;
        };
        let emptied = by_version
            .get_mut(&version)
            .map(|s| {
                s.remove(&index);
                s.is_empty()
            })
            .unwrap_or(false);
        if emptied {
            by_version.remove(&version);
            if by_version.is_empty() {
                preserved.remove(&id);
            }
        }
        emptied
    }

    /// The per-chunk commit lock: a writer holds the locks of
    /// every chunk it patches (acquired in ascending index order) across
    /// read-current / preserve / CAS / write-canonical, so disjoint
    /// writers run fully parallel while same-chunk writers serialize and
    /// the loser observes a settled birth newer than its base (→ conflict)
    /// instead of torn bytes.
    pub fn chunk_lock(&self, id: DataId, index: u32) -> Arc<Mutex<()>> {
        Arc::clone(
            self.chunk_locks
                .lock()
                .entry((id, index))
                .or_insert_with(|| Arc::new(Mutex::new(()))),
        )
    }

    /// The birth version whose bytes chunk `index` of the *canonical*
    /// object currently holds (1 until a committed writer rewrites it).
    /// Only meaningful under the chunk's [`chunk_lock`](VersionState::chunk_lock).
    pub fn settled_birth(&self, id: DataId, index: u32) -> u64 {
        self.settled
            .lock()
            .get(&id)
            .and_then(|s| s.get(&index).copied())
            .unwrap_or(1)
    }

    /// Record that chunk `index`'s canonical bytes now carry `version`
    /// (called by a committed writer after its canonical write lands,
    /// still under the chunk lock).
    pub fn settle(&self, id: DataId, index: u32, version: u64) {
        self.settled
            .lock()
            .entry(id)
            .or_default()
            .insert(index, version);
    }

    /// Forget every trace of `id` (the delete path).
    pub fn forget(&self, id: DataId) {
        {
            let mut heads = self.heads.lock();
            heads.by_data.remove(&id);
            heads.generation += 1;
        }
        self.preserved.lock().remove(&id);
        self.settled.lock().remove(&id);
        self.chunk_locks.lock().retain(|(d, _), _| *d != id);
        self.pins.lock().retain(|(d, _), _| *d != id);
    }
}

/// The version plane's operations over one deployment: `plane` holds the
/// rows, the resolved heads, the pins and the preservation ledger, `store`
/// the canonical objects and their per-chunk pre-image objects.
pub(crate) struct VersionPlane<'a> {
    pub plane: &'a ShardedPlane,
    pub store: &'a dyn FileStore,
}

impl VersionPlane<'_> {
    /// Commit `writes` against version `base` of a chunked datum. Per
    /// touched chunk, only the window `[lo, hi)` its segments span is
    /// patched, digested and written back:
    ///
    /// * **read** — the whole chunk once when this writer wins the
    ///   pre-image claim (it copies the chunk under its per-chunk
    ///   [`versioned_object`] name and patches from that read), otherwise
    ///   only the window;
    /// * **digest** — the new descriptor's CRC is the head descriptor's
    ///   patched by [`crc32_patch`] over the window, O(window);
    /// * **write** — after the head CAS publishes the new row, only the
    ///   patched window lands in the canonical object, which therefore
    ///   always holds the head's bytes.
    ///
    /// Returns the committed row; a retryable
    /// [`BitdewError::VersionConflict`] means a concurrent writer touched
    /// one of the same chunks first.
    pub fn commit(
        &self,
        data: &Data,
        base: u64,
        writes: &[(u64, Vec<u8>)],
    ) -> Result<VersionedManifest> {
        let head = match self.plane.head(data.id)? {
            Some(head) if base != 0 && base <= head.version => head,
            head => {
                let head = head.map_or(0, |h| h.version);
                return Err(BitdewError::CatalogMiss {
                    what: format!("version {base} of `{}` (head {head})", data.name),
                });
            }
        };
        let by_chunk = split_writes(head.chunk_size, head.total, writes)?;
        let state = self.plane.version_state();
        let object = data.object_name();

        // Take the per-chunk commit locks in ascending index order:
        // disjoint writers proceed in parallel, same-chunk writers
        // serialize here instead of racing the byte I/O.
        let locks: Vec<_> = by_chunk
            .keys()
            .map(|&i| state.chunk_lock(data.id, i))
            .collect();
        let _guards: Vec<_> = locks.iter().map(|l| l.lock()).collect();

        // A chunk the head says was born after `base` was rewritten since:
        // the head CAS would refuse this write, so conflict now. Otherwise
        // its birth is the one `base` resolves too. Under the locks the
        // canonical bytes of every touched chunk are settled; a settled
        // birth other than the head's means a later version rewrote the
        // chunk after `head` was read — conflict too, before any byte
        // moves.
        for &index in by_chunk.keys() {
            let birth = head
                .birth_of(index)
                .ok_or_else(|| BitdewError::CatalogMiss {
                    what: format!("chunk {index} of `{}`", data.name),
                })?;
            if birth > base || state.settled_birth(data.id, index) != birth {
                return Err(BitdewError::VersionConflict {
                    head: head.version,
                    attempted: base,
                });
            }
        }

        // A canonical object shorter than its manifest is out of range, not
        // a short chunk.
        let read_exact = |offset: u64, len: usize| -> Result<Bytes> {
            let bytes = self.store.read_at(&object, offset, len)?;
            if bytes.len() != len {
                return Err(StoreError::OutOfRange.into());
            }
            Ok(bytes)
        };
        let mut changed = Vec::with_capacity(by_chunk.len());
        let mut patched_windows = Vec::with_capacity(by_chunk.len());
        for (&index, segments) in &by_chunk {
            let desc = *head.descriptor(index).expect("checked above");
            let birth = head.birth_of(index).expect("checked above");
            let chunk_off = index as u64 * head.chunk_size;
            // The window `[lo, hi)` of the chunk the segments span.
            let lo = segments.iter().map(|s| s.chunk_offset).min().unwrap_or(0);
            let hi = segments
                .iter()
                .map(|s| s.chunk_offset + (s.end - s.start))
                .max()
                .unwrap_or(lo);
            // Preserve the pre-image before anything overwrites it. The
            // claim is idempotent: if an earlier (conflicted or committed)
            // writer already copied birth's bytes, that copy is still
            // valid — canonical chunk bytes only move under this lock. The
            // winner reads the whole chunk once and patches from it; a
            // loser reads only the window.
            let old = if state.claim_preserve(data.id, birth, index, desc.len) {
                let current = read_exact(chunk_off, desc.len as usize)?;
                #[cfg(debug_assertions)]
                assert_eq!(
                    bitdew_storage::crc32::crc32(&current),
                    desc.crc32,
                    "the head's descriptor must describe the canonical chunk {index}"
                );
                self.store
                    .write_at(&versioned_object(&object, birth, index), 0, &current)?;
                state.mark_preserved(data.id, birth, index);
                current.slice(lo..hi)
            } else {
                read_exact(chunk_off + lo as u64, hi - lo)?
            };
            let mut patched = old.to_vec();
            for seg in segments {
                let (_, bytes) = &writes[seg.write];
                let at = seg.chunk_offset - lo;
                patched[at..at + (seg.end - seg.start)].copy_from_slice(&bytes[seg.start..seg.end]);
            }
            changed.push(ChunkDescriptor {
                index,
                len: desc.len,
                crc32: crc32_patch(desc.crc32, desc.len as u64, lo as u64, &old, &patched),
            });
            patched_windows.push((index, chunk_off + lo as u64, patched));
        }

        // Publish through the head CAS. With the chunk locks held this can
        // only conflict against a writer that bypassed this plane.
        let row = VersionedManifest {
            data: data.id,
            version: base + 1,
            parent: base,
            chunk_size: head.chunk_size,
            total: head.total,
            changed,
        };
        // Unshared unless a snapshot holds it, the head advances in place.
        drop(head);
        let committed = self.plane.publish_version(&row)?;

        // Only a committed writer moves the canonical bytes, and only the
        // patched windows; settle each chunk at the new version before the
        // locks release.
        for (index, window_off, bytes) in patched_windows {
            self.store.write_at(&object, window_off, &bytes)?;
            state.settle(data.id, index, committed.version);
        }
        Ok(committed)
    }

    /// Open a [`Snapshot`] pinned to the datum's current head version.
    pub fn open_snapshot(&self, data: &Data) -> Result<Snapshot> {
        let head = self.plane.head(data.id)?.ok_or_else(|| no_manifest(data))?;
        let pin = self.plane.version_state().pin(data.id, head.version);
        Ok(Snapshot::new(head, pin))
    }

    /// Read bytes `[offset, offset+len)` of `data` as of `snap`'s version
    /// (short only at EOF), copying each byte once: every piece is read
    /// straight into the returned buffer. A chunk superseded since the
    /// snapshot reads from its preserved pre-image object, an unchanged
    /// chunk from the canonical object — with a preserve re-check after the
    /// canonical read, so a commit racing this read can never leak
    /// post-snapshot bytes.
    pub fn get_range_at(
        &self,
        data: &Data,
        snap: &Snapshot,
        offset: u64,
        len: usize,
    ) -> Result<Vec<u8>> {
        let state = self.plane.version_state();
        let object = data.object_name();
        let pieces = snap.resolved().pieces(offset, len);
        let mut out = Vec::with_capacity(pieces.iter().map(|p| p.len).sum());
        for p in pieces {
            // Pre-image objects hold only their chunk's bytes, offset 0.
            let preserved = |out: &mut Vec<u8>| {
                self.store.read_into(
                    &versioned_object(&object, p.birth, p.index),
                    p.within,
                    p.len,
                    out,
                )
            };
            if state.is_preserved(data.id, p.birth, p.index) {
                preserved(&mut out)?;
                continue;
            }
            let mark = out.len();
            self.store.read_into(&object, p.start, p.len, &mut out)?;
            if state.is_preserved(data.id, p.birth, p.index) {
                // A commit preserved (and possibly overwrote) the chunk
                // while we read it — drop what we read, the pre-image is
                // authoritative.
                out.truncate(mark);
                preserved(&mut out)?;
            }
        }
        Ok(out)
    }

    /// Reference-counted GC sweep over the datum's preserved pre-image
    /// chunks: everything unreachable from the head and from every open
    /// snapshot is reclaimed, its pre-image object removed from the store.
    /// A pre-image whose object the store fails to remove stays in the
    /// ledger, uncounted, for the next sweep.
    pub fn gc(&self, data: &Data) -> Result<GcReport> {
        let state = self.plane.version_state();
        // No commits move the head (or preserve new chunks) mid-sweep.
        let _commit = state.commit_lock();
        let head = self.plane.version_head(data.id)?;
        let mut live_versions: Vec<u64> = state.pinned(data.id);
        if head > 0 && !live_versions.contains(&head) {
            live_versions.push(head);
            live_versions.sort_unstable();
        }
        let live = self.plane.resolve_versions(data.id, &live_versions)?;
        let object = data.object_name();
        let mut report = GcReport {
            live_versions,
            ..GcReport::default()
        };
        for (birth, index, len) in gc_plan(&live, &state.preserved_inventory(data.id)) {
            // The ledger is the only index of pre-image objects: drop an
            // entry only once its object is gone, so a failed remove is
            // retried by the next sweep instead of leaking the object.
            if self
                .store
                .remove(&versioned_object(&object, birth, index))
                .is_err()
            {
                continue;
            }
            state.reclaim(data.id, birth, index);
            report.chunks_reclaimed += 1;
            report.bytes_reclaimed += len as u64;
            report.objects_removed += 1;
        }
        Ok(report)
    }

    /// Remove the datum's pre-image objects, then its catalog rows and
    /// version state (the sweep needs the ledger the catalog delete
    /// forgets).
    pub fn delete(&self, data: &Data) -> Result<()> {
        let object = data.object_name();
        for (birth, index, _) in self.plane.version_state().preserved_inventory(data.id) {
            let _ = self.store.remove(&versioned_object(&object, birth, index));
        }
        self.plane.delete_catalog(data.id)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::services::catalog::DbAccess;
    use bitdew_storage::{ConnectionPool, DewDb, EmbeddedDriver};
    use bitdew_util::Auid;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

    fn an_id(n: u64) -> DataId {
        let mut rng = SmallRng::seed_from_u64(n);
        Auid::generate(n.max(1), &mut rng)
    }

    fn base_manifest(id: DataId, chunks: u32, chunk: u64) -> ChunkManifest {
        let content: Vec<u8> = (0..(chunks as u64 * chunk) as usize)
            .map(|i| (i % 251) as u8)
            .collect();
        ChunkManifest::describe(id, chunk, &content)
    }

    fn delta(
        id: DataId,
        version: u64,
        parent: u64,
        base: &ChunkManifest,
        idxs: &[u32],
    ) -> VersionedManifest {
        VersionedManifest {
            data: id,
            version,
            parent,
            chunk_size: base.chunk_size,
            total: base.total,
            changed: idxs
                .iter()
                .map(|&i| ChunkDescriptor {
                    index: i,
                    len: base.chunks[i as usize].len,
                    crc32: 0xC0DE_0000 ^ (version as u32) ^ i,
                })
                .collect(),
        }
    }

    #[test]
    fn legacy_manifest_rows_decode_as_version_one() {
        let id = an_id(1);
        let m = base_manifest(id, 6, 128);
        let vm = VersionedManifest::from_bytes(&m.to_bytes()).expect("legacy decode");
        assert_eq!(vm.version, 1);
        assert_eq!(vm.parent, 0);
        assert_eq!(vm.data, id);
        assert_eq!(vm.changed, m.chunks);
        assert_eq!(vm.total, m.total);
    }

    #[test]
    fn resolve_walks_the_chain_and_stamps_births() {
        let id = an_id(2);
        let base = base_manifest(id, 8, 64);
        let rows = vec![
            delta(id, 2, 1, &base, &[0, 1]),
            delta(id, 3, 2, &base, &[1, 7]),
        ];
        let head = ResolvedVersion::resolve(&base, &rows, 3);
        assert_eq!(head.birth_of(0), Some(2));
        assert_eq!(head.birth_of(1), Some(3));
        assert_eq!(head.birth_of(7), Some(3));
        assert_eq!(head.birth_of(4), Some(1));
        assert_eq!(head.descriptor(1).unwrap().crc32, 0xC0DE_0000 ^ 3 ^ 1);
        // A snapshot at 2 sees version 2's chunk 1, not version 3's.
        let at2 = ResolvedVersion::resolve(&base, &rows, 2);
        assert_eq!(at2.birth_of(1), Some(2));
        assert_eq!(at2.descriptor(1).unwrap().crc32, 0xC0DE_0000 ^ 2 ^ 1);
        // Materializing keeps geometry and descriptors.
        let m = head.to_manifest();
        assert_eq!(m.chunk_count(), 8);
        assert_eq!(m.total, base.total);
    }

    #[test]
    fn overlapping_maps_ranges_to_chunks() {
        let id = an_id(3);
        let base = base_manifest(id, 4, 100);
        let rv = ResolvedVersion::resolve(&base, &[], 1);
        assert_eq!(rv.overlapping(0, 1), vec![(0, 1)]);
        assert_eq!(rv.overlapping(99, 2), vec![(0, 1), (1, 1)]);
        assert_eq!(rv.overlapping(250, 100), vec![(2, 1), (3, 1)]);
        assert!(rv.overlapping(10, 0).is_empty());
    }

    /// The CAS as it was decided before heads were held resolved: intersect
    /// `changed` (sorted) with the changed set of every version in
    /// `(parent, head]`. Kept verbatim as the oracle the birth-based
    /// [`commit_version`] is held to.
    fn commit_version_oracle(
        head: u64,
        parent: u64,
        changed: &[u32],
        intervening: impl IntoIterator<Item = Vec<u32>>,
    ) -> Result<u64> {
        if parent == 0 || parent > head {
            return Err(BitdewError::CatalogMiss {
                what: format!("version {parent} to commit against (head {head})"),
            });
        }
        if parent < head {
            for set in intervening {
                if set.iter().any(|i| changed.binary_search(i).is_ok()) {
                    return Err(BitdewError::VersionConflict {
                        head,
                        attempted: parent,
                    });
                }
            }
        }
        Ok(head + 1)
    }

    /// A chain of `1 + deltas.len()` versions over `base`: version `k + 2`
    /// rewrites `deltas[k]`.
    fn chain(id: DataId, base: &ChunkManifest, deltas: &[&[u32]]) -> Vec<VersionedManifest> {
        deltas
            .iter()
            .enumerate()
            .map(|(k, idxs)| delta(id, k as u64 + 2, k as u64 + 1, base, idxs))
            .collect()
    }

    #[test]
    fn commit_version_cas_semantics() {
        let id = an_id(8);
        let base = base_manifest(id, 8, 64);
        let rows = chain(id, &base, &[&[7], &[0], &[1, 2]]);
        let head = ResolvedVersion::resolve(&base, &rows, 4);
        // Fast path.
        assert_eq!(commit_version(&head, 4, &[1]).unwrap(), 5);
        // Auto-rebase: no chunk rewritten since the base.
        assert_eq!(commit_version(&head, 2, &[5, 6]).unwrap(), 5);
        // Overlap → retryable conflict.
        let err = commit_version(&head, 2, &[1, 5]).unwrap_err();
        assert!(matches!(
            err,
            BitdewError::VersionConflict {
                head: 4,
                attempted: 2
            }
        ));
        assert!(err.is_retryable());
        // A stale parent beyond the head is a miss, not a conflict.
        let at2 = ResolvedVersion::resolve(&base, &rows, 2);
        assert!(matches!(
            commit_version(&at2, 5, &[0]),
            Err(BitdewError::CatalogMiss { .. })
        ));
    }

    #[test]
    fn advancing_the_head_matches_a_cold_resolution() {
        let id = an_id(9);
        let base = base_manifest(id, 6, 64);
        let rows = chain(id, &base, &[&[0, 5], &[1], &[0, 3]]);
        let mut head = ResolvedVersion::resolve(&base, &[], 1);
        for row in &rows {
            head.advance(row);
            assert_eq!(head, ResolvedVersion::resolve(&base, &rows, row.version));
        }
        // Re-applying a row is a no-op.
        head.advance(&rows[2]);
        assert_eq!(head, ResolvedVersion::resolve(&base, &rows, 4));
    }

    #[test]
    fn head_valid_subset_demotes_stale_chunks() {
        let id = an_id(4);
        let base = base_manifest(id, 6, 64);
        let rows = vec![delta(id, 2, 1, &base, &[2, 3])];
        let head = ResolvedVersion::resolve(&base, &rows, 2);
        // A holder complete at version 1: chunks 2 and 3 went stale.
        let valid = head_valid_subset(&head, &[0, 1, 2, 3, 4, 5], 1);
        assert_eq!(valid, vec![0, 1, 4, 5]);
        // A holder at the head keeps everything.
        assert_eq!(
            head_valid_subset(&head, &[0, 1, 2, 3, 4, 5], 2),
            vec![0, 1, 2, 3, 4, 5]
        );
    }

    #[test]
    fn split_writes_validates_and_segments() {
        // 3 chunks of 100 over 250 bytes total.
        let by_chunk =
            split_writes(100, 250, &[(95, vec![7u8; 10]), (200, vec![1u8; 50])]).unwrap();
        assert_eq!(by_chunk.keys().copied().collect::<Vec<_>>(), vec![0, 1, 2]);
        let c0 = &by_chunk[&0];
        assert_eq!(
            c0,
            &vec![WriteSegment {
                chunk_offset: 95,
                write: 0,
                start: 0,
                end: 5
            }]
        );
        let c1 = &by_chunk[&1];
        assert_eq!(
            c1,
            &vec![WriteSegment {
                chunk_offset: 0,
                write: 0,
                start: 5,
                end: 10
            }]
        );
        // Past the end → CatalogMiss; empty commit → Scheduler.
        assert!(matches!(
            split_writes(100, 250, &[(240, vec![0u8; 20])]),
            Err(BitdewError::CatalogMiss { .. })
        ));
        assert!(matches!(
            split_writes(100, 250, &[]),
            Err(BitdewError::Scheduler { .. })
        ));
    }

    #[test]
    fn gc_plan_keeps_only_reachable_preimages() {
        let id = an_id(5);
        let base = base_manifest(id, 4, 64);
        let rows = vec![
            delta(id, 2, 1, &base, &[0]),
            delta(id, 3, 2, &base, &[0, 1]),
        ];
        let head = ResolvedVersion::resolve(&base, &rows, 3);
        // Preserved: chunk 0 at births 1 and 2 (superseded twice), chunk 1
        // at birth 1.
        let preserved = vec![(1u64, 0u32, 64u32), (2, 0, 64), (1, 1, 64)];
        // Only the head live: every pre-image is unreachable.
        let plan = gc_plan(std::slice::from_ref(&head), &preserved);
        assert_eq!(plan.len(), 3);
        // Pin version 2: chunk 0@2 and chunk 1@1 become reachable again
        // (version 2 resolves chunk 0 to birth 2, chunk 1 to birth 1).
        let at2 = ResolvedVersion::resolve(&base, &rows, 2);
        let plan = gc_plan(&[head, at2], &preserved);
        assert_eq!(plan, vec![(1, 0, 64)]);
    }

    #[test]
    fn pin_registry_counts_and_releases() {
        let state = VersionState::new();
        let id = an_id(6);
        assert!(state.pinned(id).is_empty());
        let p1 = state.pin(id, 2);
        let p2 = state.pin(id, 2);
        let p3 = state.pin(id, 5);
        assert_eq!(state.pinned(id), vec![2, 5]);
        drop(p2);
        assert_eq!(state.pinned(id), vec![2, 5]);
        drop(p1);
        assert_eq!(state.pinned(id), vec![5]);
        drop(p3);
        assert!(state.pinned(id).is_empty());
    }

    #[test]
    fn preserve_claims_are_first_writer_wins() {
        let state = VersionState::new();
        let id = an_id(7);
        assert!(state.claim_preserve(id, 1, 3, 64));
        assert!(!state.claim_preserve(id, 1, 3, 64), "second claim loses");
        assert!(!state.is_preserved(id, 1, 3), "not readable until marked");
        state.mark_preserved(id, 1, 3);
        assert!(state.is_preserved(id, 1, 3));
        assert_eq!(state.preserved_inventory(id), vec![(1, 3, 64)]);
        assert!(state.reclaim(id, 1, 3), "last chunk empties the version");
        assert!(state.preserved_inventory(id).is_empty());
        state.forget(id);
    }

    /// A [`MemStore`](bitdew_transport::MemStore) that counts the bytes
    /// read and written through it and fails the next `fail_removes`
    /// removes.
    #[derive(Default)]
    struct ProbeStore {
        inner: bitdew_transport::MemStore,
        read: AtomicU64,
        written: AtomicU64,
        fail_removes: AtomicU32,
    }

    impl ProbeStore {
        /// `(bytes read, bytes written)` since the last call.
        fn take_io(&self) -> (u64, u64) {
            (
                self.read.swap(0, Ordering::Relaxed),
                self.written.swap(0, Ordering::Relaxed),
            )
        }
    }

    type StoreResult<T> = std::result::Result<T, StoreError>;

    impl FileStore for ProbeStore {
        fn read_at(&self, name: &str, offset: u64, len: usize) -> StoreResult<Bytes> {
            let bytes = self.inner.read_at(name, offset, len)?;
            self.read.fetch_add(bytes.len() as u64, Ordering::Relaxed);
            Ok(bytes)
        }
        fn write_at(&self, name: &str, offset: u64, data: &[u8]) -> StoreResult<()> {
            self.written.fetch_add(data.len() as u64, Ordering::Relaxed);
            self.inner.write_at(name, offset, data)
        }
        fn size(&self, name: &str) -> StoreResult<u64> {
            self.inner.size(name)
        }
        fn exists(&self, name: &str) -> bool {
            self.inner.exists(name)
        }
        fn remove(&self, name: &str) -> StoreResult<()> {
            let failing =
                self.fail_removes
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1));
            if failing.is_ok() {
                return Err(StoreError::Io(std::io::Error::other("injected")));
            }
            self.inner.remove(name)
        }
        fn list(&self) -> Vec<String> {
            self.inner.list()
        }
    }

    /// A store over a [`ProbeStore`] whose first `read_at` of `object` at
    /// `race_at` runs `race` before reading: a commit that lands while the
    /// canonical read is in flight, so the read returns post-commit bytes.
    /// `read_into` keeps the trait default, which reads through `read_at`.
    struct RacingStore<'a> {
        inner: &'a ProbeStore,
        object: String,
        race_at: u64,
        race: Mutex<Option<Box<dyn FnOnce() + Send + 'a>>>,
    }

    impl FileStore for RacingStore<'_> {
        fn read_at(&self, name: &str, offset: u64, len: usize) -> StoreResult<Bytes> {
            if name == self.object && offset == self.race_at {
                if let Some(race) = self.race.lock().take() {
                    race();
                }
            }
            self.inner.read_at(name, offset, len)
        }
        fn write_at(&self, name: &str, offset: u64, data: &[u8]) -> StoreResult<()> {
            self.inner.write_at(name, offset, data)
        }
        fn size(&self, name: &str) -> StoreResult<u64> {
            self.inner.size(name)
        }
        fn exists(&self, name: &str) -> bool {
            self.inner.exists(name)
        }
        fn remove(&self, name: &str) -> StoreResult<()> {
            self.inner.remove(name)
        }
        fn list(&self) -> Vec<String> {
            self.inner.list()
        }
    }

    const CHUNK: u64 = 256 * 1024;

    /// A published `chunks`-chunk datum of `CHUNK`-byte chunks (the last
    /// one `short` bytes short) in `store`, I/O counters reset.
    fn published(store: &ProbeStore, seed: u64, chunks: u64, short: u64) -> (ShardedPlane, Data) {
        let plane = ShardedPlane::new(std::num::NonZeroUsize::MIN, 3_000_000_000, 64, |_| {
            let driver = Arc::new(EmbeddedDriver::new(DewDb::in_memory()));
            DbAccess::Pooled(ConnectionPool::new(driver, 1))
        });
        let content: Vec<u8> = (0..chunks * CHUNK - short)
            .map(|i| (i % 251) as u8)
            .collect();
        let data = Data::from_bytes(an_id(seed), "probe", &content);
        store.write_at(&data.object_name(), 0, &content).unwrap();
        plane
            .put_manifest(&ChunkManifest::describe(data.id, CHUNK, &content))
            .unwrap();
        store.take_io();
        (plane, data)
    }

    /// The head's chunk map equals a fresh describe of the canonical object.
    fn assert_head_describes_store(plane: &ShardedPlane, store: &ProbeStore, data: &Data) {
        let object = data.object_name();
        let content = store.read_at(&object, 0, usize::MAX).unwrap();
        let head = plane.head(data.id).unwrap().unwrap();
        assert_eq!(
            head.to_manifest(),
            ChunkManifest::describe(data.id, CHUNK, &content)
        );
        store.take_io();
    }

    #[test]
    fn a_commit_moves_one_pre_image_and_the_patched_window() {
        let store = ProbeStore::default();
        let (plane, data) = published(&store, 21, 3, 1000);
        let vp = VersionPlane {
            plane: &plane,
            store: &store,
        };
        // 4 KiB inside chunk 1: the chunk is read once, copied to its
        // pre-image, and only the 4 KiB go back.
        vp.commit(&data, 1, &[(CHUNK + 1000, vec![0xAB; 4096])])
            .unwrap();
        assert_eq!(store.take_io(), (CHUNK, CHUNK + 4096));
        assert_head_describes_store(&plane, &store, &data);
        // 4 KiB straddling chunks 0 and 1: two chunk reads, two pre-images.
        vp.commit(&data, 2, &[(CHUNK - 2048, vec![0xCD; 4096])])
            .unwrap();
        assert_eq!(store.take_io(), (2 * CHUNK, 2 * CHUNK + 4096));
        assert_head_describes_store(&plane, &store, &data);
        // A writer whose pre-image another writer already claimed (one that
        // then lost the CAS) reads only its window: here two writes into
        // the short last chunk, spanning 100..5000.
        let last = 2 * CHUNK;
        let state = plane.version_state();
        assert!(state.claim_preserve(data.id, 1, 2, (CHUNK - 1000) as u32));
        vp.commit(
            &data,
            3,
            &[(last + 100, vec![1; 900]), (last + 4000, vec![2; 1000])],
        )
        .unwrap();
        assert_eq!(store.take_io(), (4900, 4900));
        assert_head_describes_store(&plane, &store, &data);
    }

    #[test]
    fn a_snapshot_read_racing_a_commit_returns_the_pre_image() {
        let probe = ProbeStore::default();
        let (plane, data) = published(&probe, 23, 3, 0);
        let original = |at: u64| (at % 251) as u8;
        // A read spanning chunks 0 and 1; the race hits the second piece,
        // whose canonical read starts at `CHUNK`.
        let (offset, len) = (CHUNK - 1000, 3000);
        let racing = RacingStore {
            inner: &probe,
            object: data.object_name(),
            race_at: CHUNK,
            race: Mutex::new(None),
        };
        let reader = VersionPlane {
            plane: &plane,
            store: &racing,
        };
        let snap = reader.open_snapshot(&data).unwrap();
        let writer = VersionPlane {
            plane: &plane,
            store: &probe,
        };
        let race_data = data.clone();
        *racing.race.lock() = Some(Box::new(move || {
            writer
                .commit(&race_data, 1, &[(CHUNK + 500, vec![0xEE; 1000])])
                .unwrap();
        }));

        let got = reader.get_range_at(&data, &snap, offset, len).unwrap();
        assert!(racing.race.lock().is_none(), "the commit raced the read");
        assert_eq!(got.len(), len, "no stale prefix, no short read");
        let want: Vec<u8> = (offset..offset + len as u64).map(original).collect();
        assert!(got == want, "the snapshot reads its own version's bytes");

        // The commit landed: the head reads the patch.
        let head = reader.open_snapshot(&data).unwrap();
        assert_eq!(head.version(), 2);
        let now = reader.get_range_at(&data, &head, CHUNK, 2000).unwrap();
        assert_eq!(&now[..500], &want[1000..1500]);
        assert_eq!(&now[500..1500], &[0xEE; 1000][..]);
    }

    #[test]
    fn gc_keeps_a_pre_image_whose_remove_failed_until_a_sweep_removes_it() {
        let store = ProbeStore::default();
        let (plane, data) = published(&store, 22, 2, 0);
        let vp = VersionPlane {
            plane: &plane,
            store: &store,
        };
        vp.commit(&data, 1, &[(10, vec![9; 64])]).unwrap();
        let pre_image = versioned_object(&data.object_name(), 1, 0);
        assert!(store.exists(&pre_image));

        store.fail_removes.store(1, Ordering::Relaxed);
        let first = vp.gc(&data).unwrap();
        assert_eq!((first.chunks_reclaimed, first.objects_removed), (0, 0));
        assert_eq!(
            plane.version_state().preserved_inventory(data.id),
            vec![(1, 0, CHUNK as u32)],
            "the failed remove keeps its ledger entry"
        );
        assert!(store.exists(&pre_image));

        let second = vp.gc(&data).unwrap();
        assert_eq!((second.chunks_reclaimed, second.objects_removed), (1, 1));
        assert_eq!(second.bytes_reclaimed, CHUNK);
        assert!(plane
            .version_state()
            .preserved_inventory(data.id)
            .is_empty());
        assert!(!store.list().iter().any(|name| name.contains("@v")));
    }

    proptest! {
        // Satellite: round-trip identity for version chains plus
        // backward-compat decode of pre-MVCC ChunkManifest rows.
        #[test]
        fn prop_version_chain_codec_roundtrip(
            seed in any::<u64>(),
            chunks in 1u32..32,
            versions in 1u64..8,
        ) {
            let id = an_id(seed);
            let base = base_manifest(id, chunks, 64);
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED);
            for v in 2..=(1 + versions) {
                let n = 1 + (rand::Rng::gen::<u32>(&mut rng) % chunks);
                let mut idxs: Vec<u32> =
                    (0..n).map(|_| rand::Rng::gen::<u32>(&mut rng) % chunks).collect();
                idxs.sort_unstable();
                idxs.dedup();
                let row = delta(id, v, v - 1, &base, &idxs);
                let back = VersionedManifest::from_bytes(&row.to_bytes()).expect("roundtrip");
                prop_assert_eq!(back, row);
            }
        }

        #[test]
        fn prop_legacy_rows_always_read_as_version_one(
            seed in any::<u64>(),
            len in 0usize..2048,
            chunk in 1u64..300,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let content: Vec<u8> = (0..len).map(|_| rand::Rng::gen(&mut rng)).collect();
            let m = ChunkManifest::describe(an_id(seed), chunk, &content);
            let vm = VersionedManifest::from_bytes(&m.to_bytes()).expect("legacy");
            prop_assert_eq!(vm.version, 1);
            prop_assert_eq!(vm.parent, 0);
            prop_assert_eq!(&vm.changed, &m.chunks);
            // And the versioned re-encoding of the same row round-trips.
            let back = VersionedManifest::from_bytes(&vm.to_bytes()).expect("rt");
            prop_assert_eq!(back, vm);
        }

        #[test]
        fn prop_decode_garbage_never_panics(
            v in proptest::collection::vec(any::<u8>(), 0..192)
        ) {
            let _ = VersionedManifest::from_bytes(&v);
        }

        #[test]
        fn prop_commit_version_is_linear(
            head in 1u64..20,
            disjoint in any::<bool>(),
        ) {
            // Whatever the interleaving, a successful commit is exactly
            // head + 1 — the chain can never fork or skip.
            let id = an_id(head);
            let base = base_manifest(id, 4, 64);
            let changed = vec![1u32, 3];
            // Every version after 1 rewrites chunk 0 or 2; the last one
            // also rewrites chunk 3 unless the writer is disjoint.
            let rows: Vec<VersionedManifest> = (2..=head)
                .map(|v| {
                    let idxs: &[u32] = match (v == head, disjoint, v % 2) {
                        (true, false, _) => &[3],
                        (_, _, 0) => &[0],
                        _ => &[2],
                    };
                    delta(id, v, v - 1, &base, idxs)
                })
                .collect();
            let rv = ResolvedVersion::resolve(&base, &rows, head);
            let parent = 1u64;
            match commit_version(&rv, parent, &changed) {
                Ok(v) => prop_assert_eq!(v, head + 1),
                Err(e) => {
                    prop_assert!(head > parent && !disjoint, "conflict only on overlap: {e}");
                }
            }
        }

        // The birth comparison decides exactly what intersecting the
        // intervening rows' changed sets decided, on any chain.
        #[test]
        fn prop_birth_cas_matches_the_intervening_sets_oracle(
            seed in any::<u64>(),
            chunks in 1u32..65,
            deltas in 0u64..200,
            parent_pick in any::<u64>(),
            raw_changed in proptest::collection::vec(any::<u32>(), 1..8),
        ) {
            let id = an_id(seed);
            let base = base_manifest(id, chunks, 64);
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xCA5);
            let rows: Vec<VersionedManifest> = (2..=1 + deltas)
                .map(|v| {
                    let n = 1 + rand::Rng::gen::<u32>(&mut rng) % chunks.min(4);
                    let mut idxs: Vec<u32> =
                        (0..n).map(|_| rand::Rng::gen::<u32>(&mut rng) % chunks).collect();
                    idxs.sort_unstable();
                    idxs.dedup();
                    delta(id, v, v - 1, &base, &idxs)
                })
                .collect();
            let head = 1 + deltas;
            let rv = ResolvedVersion::resolve(&base, &rows, head);
            let parent = 1 + parent_pick % head;
            let mut changed: Vec<u32> = raw_changed.iter().map(|i| i % chunks).collect();
            changed.sort_unstable();
            changed.dedup();
            let intervening = rows
                .iter()
                .filter(|r| r.version > parent && r.version <= head)
                .map(|r| r.changed_indices());
            let got = commit_version(&rv, parent, &changed);
            let want = commit_version_oracle(head, parent, &changed, intervening);
            match (got, want) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
                (
                    Err(BitdewError::VersionConflict { head: h1, attempted: a1 }),
                    Err(BitdewError::VersionConflict { head: h2, attempted: a2 }),
                ) => prop_assert_eq!((h1, a1), (h2, a2)),
                (got, want) => prop_assert!(false, "birth CAS {got:?} vs oracle {want:?}"),
            }
        }
    }
}
