//! The versioned mutation plane, end to end on both backends.
//!
//! Exercises the MVCC chunk trees the PR introduces: copy-on-write
//! `commit_update` against a base version, auto-rebase of disjoint
//! writers, retryable `VersionConflict` on overlap, snapshot-pinned reads
//! that stay byte-identical while the head moves, truly concurrent
//! non-overlapping writers on the threaded backend (no lost update), and
//! the reference-counted GC sweep that reclaims pre-image chunks once no
//! live version or open snapshot resolves them.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use bitdew::core::api::BitDewApi;
use bitdew::core::services::DbAccess;
use bitdew::core::simdriver::{SimBitdew, SimNode};
use bitdew::core::versions::Snapshot;
use bitdew::core::{
    BitdewError, BitdewNode, ChunkManifest, Data, ResolvedVersion, RuntimeConfig, ServiceContainer,
    ShardedPlane,
};
use bitdew::sim::{topology, Sim, SimDuration, SimTime, Trace};
use bitdew::storage::{
    ConnectionPool, DbConnection, DbDriver, DbOp, DbReply, DbResult, DewDb, EmbeddedDriver,
};
use bitdew::transport::{Fabric, MemStore};

const CHUNK: u64 = 16 * 1024;
const TOTAL: usize = 8 * CHUNK as usize; // 8 chunks

fn payload(n: usize) -> Vec<u8> {
    (0..n).map(|i| (i * 31 % 251) as u8).collect()
}

fn apply_model(model: &mut [u8], writes: &[(u64, Vec<u8>)]) {
    for (off, bytes) in writes {
        model[*off as usize..*off as usize + bytes.len()].copy_from_slice(bytes);
    }
}

/// Commit `writes` with the documented optimistic retry loop: re-read the
/// head on `VersionConflict` and resubmit. Returns the committed version.
fn commit_retrying<N: BitDewApi + ?Sized>(node: &N, data: &Data, writes: &[(u64, Vec<u8>)]) -> u64 {
    let mut base = node.version_head(data.id).expect("head");
    loop {
        match node.commit_update(data, base, writes) {
            Ok(v) => return v,
            Err(BitdewError::VersionConflict { head, .. }) => base = head,
            Err(e) => panic!("commit failed: {e}"),
        }
    }
}

/// The whole mutation story, generic over the backend: publish → update →
/// snapshot isolation → conflict/rebase → GC. `data` must be a published
/// chunked slot whose content equals `content`.
fn mutation_scenario<N: BitDewApi + ?Sized>(node: &N, data: &Data, content: &[u8]) {
    assert_eq!(node.version_head(data.id).unwrap(), 1, "manifest is v1");
    let mut model = content.to_vec();

    // Pin a snapshot of v1, then move the head under it.
    let snap1 = node.open_snapshot(data).unwrap();
    assert_eq!(snap1.version(), 1);

    // A boundary-spanning write (chunks 1 and 2) commits as v2.
    let w1 = vec![(2 * CHUNK - 100, vec![0xA1u8; 200])];
    let v2 = node.commit_update(data, 1, &w1).unwrap();
    assert_eq!(v2, 2);
    apply_model(&mut model, &w1);
    assert_eq!(node.get_range(data, 0, TOTAL).unwrap(), model, "head moved");

    // Disjoint writer still based on v1 (chunk 5): auto-rebase commits v3.
    let w2 = vec![(5 * CHUNK + 10, vec![0xB2u8; 64])];
    let v3 = node.commit_update(data, 1, &w2).unwrap();
    assert_eq!(v3, 3, "disjoint stale-base writer rebased onto the head");
    apply_model(&mut model, &w2);

    // Overlapping writer based on v1 (chunk 1 again): retryable conflict.
    let w3 = vec![(CHUNK + 5, vec![0xC3u8; 32])];
    match node.commit_update(data, 1, &w3) {
        Err(BitdewError::VersionConflict { head, attempted }) => {
            assert_eq!(head, 3);
            assert_eq!(attempted, 1);
        }
        other => panic!("expected VersionConflict, got {other:?}"),
    }
    let v4 = commit_retrying(node, data, &w3);
    assert_eq!(v4, 4);
    apply_model(&mut model, &w3);
    assert_eq!(node.get_range(data, 0, TOTAL).unwrap(), model);

    // Snapshot isolation: snap1 still reads the original bytes, while a
    // fresh snapshot sees the head.
    assert_eq!(
        node.get_range_at(data, &snap1, 0, TOTAL).unwrap(),
        content,
        "v1 snapshot is byte-identical under 3 committed updates"
    );
    let snap4 = node.open_snapshot(data).unwrap();
    assert_eq!(snap4.version(), 4);
    assert_eq!(node.get_range_at(data, &snap4, 0, TOTAL).unwrap(), model);

    // The chain is linear and fully materializable.
    assert_eq!(node.version_head(data.id).unwrap(), 4);
    for v in 1..=4u64 {
        let row = node
            .version_manifest(data.id, v)
            .unwrap()
            .unwrap_or_else(|| {
                panic!("version {v} resolvable");
            });
        assert_eq!(row.version, v);
        assert!(row.parent < v);
    }
    assert!(node.version_manifest(data.id, 9).unwrap().is_none());

    // GC with snap1 open keeps its pre-images alive…
    let kept = node.gc_versions(data).unwrap();
    assert!(kept.live_versions.contains(&1));
    assert_eq!(
        node.get_range_at(data, &snap1, 0, TOTAL).unwrap(),
        content,
        "pinned snapshot survives a sweep"
    );
    // …dropping every snapshot frees everything but the head.
    drop(snap1);
    drop(snap4);
    let report = node.gc_versions(data).unwrap();
    assert_eq!(report.live_versions, vec![4]);
    assert!(report.chunks_reclaimed > 0, "unreachable pre-images freed");
    let again = node.gc_versions(data).unwrap();
    assert_eq!(again.chunks_reclaimed, 0, "sweep converged");
    assert_eq!(node.get_range(data, 0, TOTAL).unwrap(), model);
}

#[test]
fn threaded_mutation_snapshots_and_gc() {
    let c = ServiceContainer::start(RuntimeConfig::default());
    let client = BitdewNode::new_client(Arc::clone(&c));
    let content = payload(TOTAL);
    let data = client.create_slot("mvcc-blob", TOTAL as u64).unwrap();
    client.put_chunked(&data, &content, CHUNK).unwrap();
    mutation_scenario(client.as_ref(), &data, &content);
}

#[test]
fn sim_mutation_snapshots_and_gc() {
    let topo = topology::gdx_cluster(1);
    let sim = Rc::new(RefCell::new(Sim::new(51)));
    let driver = SimBitdew::new(
        topo.net.clone(),
        topo.service,
        SimDuration::from_secs(1),
        Trace::new(),
    );
    let node = SimNode::attach_client(&sim, &driver, topo.workers[0], SimTime::ZERO);
    let content = payload(TOTAL);
    let data = node.create_slot("mvcc-blob", TOTAL as u64).unwrap();
    node.put_chunked(&data, &content, CHUNK).unwrap();
    mutation_scenario(&node, &data, &content);
}

#[test]
fn threaded_concurrent_disjoint_writers_lose_no_update() {
    // Four writers, each owning two chunks, hammer the same datum
    // concurrently from the stalest possible base. Every commit must land
    // (auto-rebase, never a lost update) and the final bytes must equal
    // the serial reference model.
    const WRITERS: usize = 4;
    const ROUNDS: u64 = 8;
    let c = ServiceContainer::start(RuntimeConfig::default());
    let client = BitdewNode::new_client(Arc::clone(&c));
    let content = payload(TOTAL);
    let data = client.create_slot("hammered", TOTAL as u64).unwrap();
    client.put_chunked(&data, &content, CHUNK).unwrap();

    let mut handles = Vec::new();
    for w in 0..WRITERS {
        let node = BitdewNode::new_client(Arc::clone(&c));
        let data = data.clone();
        handles.push(std::thread::spawn(move || {
            // Writer w owns chunks [2w, 2w+1]: all writers disjoint.
            let base_off = (2 * w) as u64 * CHUNK;
            for round in 0..ROUNDS {
                let fill = (w * 16 + round as usize) as u8;
                let writes = vec![
                    (base_off + round * 7, vec![fill; 512]),
                    (base_off + CHUNK + round * 3, vec![fill ^ 0xFF; 256]),
                ];
                commit_retrying(node.as_ref(), &data, &writes);
            }
        }));
    }
    for h in handles {
        h.join().expect("writer thread");
    }

    // Every commit landed: the head advanced once per commit.
    assert_eq!(
        client.version_head(data.id).unwrap(),
        1 + WRITERS as u64 * ROUNDS,
        "no lost update"
    );
    // The final bytes equal the serial model (disjoint writes commute).
    let mut model = content.clone();
    for w in 0..WRITERS {
        let base_off = (2 * w) as u64 * CHUNK;
        for round in 0..ROUNDS {
            let fill = (w * 16 + round as usize) as u8;
            apply_model(
                &mut model,
                &[
                    (base_off + round * 7, vec![fill; 512]),
                    (base_off + CHUNK + round * 3, vec![fill ^ 0xFF; 256]),
                ],
            );
        }
    }
    assert_eq!(client.get_range(&data, 0, TOTAL).unwrap(), model);

    // Churn left pre-images behind; one sweep drains them all.
    let report = client.gc_versions(&data).unwrap();
    assert!(report.chunks_reclaimed > 0);
    assert_eq!(client.gc_versions(&data).unwrap().chunks_reclaimed, 0);
}

#[test]
fn handle_surface_exposes_versions_without_node_internals() {
    // Satellite: manifest, chunk completion, versions, snapshots and the
    // VersionUpdate builder all reachable from the DataHandle alone.
    let c = ServiceContainer::start(RuntimeConfig::default());
    let client = BitdewNode::new_client(Arc::clone(&c));
    let session = bitdew::core::Session::new(client);
    let content = payload(TOTAL);
    let handle = session.create_slot("held", TOTAL as u64).unwrap();
    session
        .node()
        .put_chunked(handle.data(), &content, CHUNK)
        .unwrap();

    let manifest = handle.manifest().unwrap().expect("chunked");
    assert_eq!(manifest.chunk_count(), 8);
    let (held, total) = handle.chunk_completion().unwrap().expect("chunked");
    assert_eq!(total, 8);
    assert!(held <= total);
    assert_eq!(handle.version().unwrap(), 1);

    let snap = handle.snapshot().unwrap();
    let v2 = handle
        .update()
        .unwrap()
        .write(0, vec![7u8; 64])
        .write(3 * CHUNK, vec![9u8; 64])
        .commit()
        .unwrap();
    assert_eq!(v2, 2);
    assert_eq!(handle.version().unwrap(), 2);
    assert_eq!(handle.read_at(&snap, 0, 64).unwrap(), &content[..64]);

    // A stale builder conflicts; rebuilding from the head commits.
    let stale = handle.update_from(1).write(10, vec![1u8; 8]);
    assert!(matches!(
        stale.commit(),
        Err(BitdewError::VersionConflict {
            head: 2,
            attempted: 1
        })
    ));
    let v3 = handle
        .update()
        .unwrap()
        .write(10, vec![1u8; 8])
        .commit()
        .unwrap();
    assert_eq!(v3, 3);

    drop(snap);
    assert!(handle.gc_versions().unwrap().chunks_reclaimed > 0);
}

// ---------------------------------------------------------------------------
// Property: random write batches — commit-vs-model equivalence plus
// snapshot consistency, on both backends.
// ---------------------------------------------------------------------------

/// A batch of 1–3 in-range writes, each a filled run of 1–3000 bytes.
fn write_batches() -> impl Strategy<Value = Vec<Vec<(u64, Vec<u8>)>>> {
    let write = (0u64..(TOTAL as u64 - 3000), 1usize..3000, any::<u8>())
        .prop_map(|(off, len, fill)| (off, vec![fill; len]));
    proptest::collection::vec(proptest::collection::vec(write, 1..4), 1..6)
}

/// Apply every batch through `commit_update` (with retry) against a model,
/// pinning a snapshot before batch `snap_at`; check head reads, snapshot
/// stability, and a convergent GC sweep.
fn random_batches_scenario<N: BitDewApi + ?Sized>(
    node: &N,
    data: &Data,
    content: &[u8],
    batches: &[Vec<(u64, Vec<u8>)>],
    snap_at: usize,
) {
    let mut model = content.to_vec();
    let mut pinned: Option<(Snapshot, Vec<u8>)> = None;
    for (i, batch) in batches.iter().enumerate() {
        if i == snap_at % batches.len() {
            pinned = Some((node.open_snapshot(data).unwrap(), model.clone()));
        }
        commit_retrying(node, data, batch);
        apply_model(&mut model, batch);
        assert_eq!(node.get_range(data, 0, TOTAL).unwrap(), model);
    }
    if let Some((snap, expect)) = &pinned {
        assert_eq!(&node.get_range_at(data, snap, 0, TOTAL).unwrap(), expect);
        // The sweep with the pin held must not disturb the snapshot.
        node.gc_versions(data).unwrap();
        assert_eq!(&node.get_range_at(data, snap, 0, TOTAL).unwrap(), expect);
    }
    drop(pinned);
    node.gc_versions(data).unwrap();
    assert_eq!(
        node.gc_versions(data).unwrap().chunks_reclaimed,
        0,
        "sweep converged"
    );
    assert_eq!(node.get_range(data, 0, TOTAL).unwrap(), model);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6 })]

    #[test]
    fn prop_threaded_commits_match_model(batches in write_batches(), snap_at in 0usize..6) {
        let c = ServiceContainer::start(RuntimeConfig::default());
        let client = BitdewNode::new_client(Arc::clone(&c));
        let content = payload(TOTAL);
        let data = client.create_slot("prop-blob", TOTAL as u64).unwrap();
        client.put_chunked(&data, &content, CHUNK).unwrap();
        random_batches_scenario(client.as_ref(), &data, &content, &batches, snap_at);
    }

    #[test]
    fn prop_sim_commits_match_model(batches in write_batches(), snap_at in 0usize..6) {
        let topo = topology::gdx_cluster(1);
        let sim = Rc::new(RefCell::new(Sim::new(52)));
        let driver = SimBitdew::new(
            topo.net.clone(),
            topo.service,
            SimDuration::from_secs(1),
            Trace::new(),
        );
        let node = SimNode::attach_client(&sim, &driver, topo.workers[0], SimTime::ZERO);
        let content = payload(TOTAL);
        let data = node.create_slot("prop-blob", TOTAL as u64).unwrap();
        node.put_chunked(&data, &content, CHUNK).unwrap();
        random_batches_scenario(&node, &data, &content, &batches, snap_at);
    }
}

// ---------------------------------------------------------------------------
// Republishing: a new base manifest under committed versions is refused.
// ---------------------------------------------------------------------------

/// Re-put at head 1 replaces the base. Once a version committed, a new
/// base is refused (its delta rows would replay over it) and nothing
/// moves; re-putting the head's own bytes changes nothing; a full-range
/// commit is the versioned way to replace content.
fn republish_scenario<N: BitDewApi + ?Sized>(node: &N, data: &Data, content: &[u8]) {
    let second: Vec<u8> = content.iter().map(|b| b ^ 0x5A).collect();
    node.put_chunked(data, &second, CHUNK).unwrap();
    assert_eq!(node.version_head(data.id).unwrap(), 1, "re-put at head 1");
    let mut model = second;
    let w = vec![(CHUNK + 7, vec![0xEEu8; 100])];
    assert_eq!(node.commit_update(data, 1, &w).unwrap(), 2);
    apply_model(&mut model, &w);

    let third: Vec<u8> = content.iter().rev().copied().collect();
    let err = node.put_chunked(data, &third, CHUNK).unwrap_err();
    assert!(!err.is_retryable(), "refusal is final: {err}");
    assert_eq!(node.version_head(data.id).unwrap(), 2);
    assert_eq!(node.get_range(data, 0, TOTAL).unwrap(), model);
    let head_manifest = ChunkManifest::describe(data.id, CHUNK, &model);
    assert_eq!(
        node.chunk_manifest(data.id).unwrap(),
        Some(head_manifest.clone()),
        "the head manifest digests the head's bytes"
    );
    assert_eq!(
        node.put_chunked(data, &model, CHUNK).unwrap(),
        head_manifest
    );
    assert_eq!(
        node.version_head(data.id).unwrap(),
        2,
        "the head's own bytes"
    );

    assert_eq!(commit_retrying(node, data, &[(0, third.clone())]), 3);
    assert_eq!(node.get_range(data, 0, TOTAL).unwrap(), third);
    assert_eq!(
        node.chunk_manifest(data.id).unwrap(),
        Some(ChunkManifest::describe(data.id, CHUNK, &third))
    );
}

#[test]
fn threaded_republish_of_a_versioned_datum_is_refused() {
    let c = ServiceContainer::start(RuntimeConfig::default());
    let client = BitdewNode::new_client(Arc::clone(&c));
    let content = payload(TOTAL);
    let data = client.create_slot("republished", TOTAL as u64).unwrap();
    client.put_chunked(&data, &content, CHUNK).unwrap();
    republish_scenario(client.as_ref(), &data, &content);
}

#[test]
fn sim_republish_of_a_versioned_datum_is_refused() {
    let topo = topology::gdx_cluster(1);
    let sim = Rc::new(RefCell::new(Sim::new(53)));
    let driver = SimBitdew::new(
        topo.net.clone(),
        topo.service,
        SimDuration::from_secs(1),
        Trace::new(),
    );
    let node = SimNode::attach_client(&sim, &driver, topo.workers[0], SimTime::ZERO);
    let content = payload(TOTAL);
    let data = node.create_slot("republished", TOTAL as u64).unwrap();
    node.put_chunked(&data, &content, CHUNK).unwrap();
    republish_scenario(&node, &data, &content);
}

// ---------------------------------------------------------------------------
// Coherence: the in-memory head always equals the catalog's chain.
// ---------------------------------------------------------------------------

/// Per-shard embedded databases that a container, and then a fresh plane
/// (a restart on the same catalog), can be opened over.
struct Restartable {
    shards: NonZeroUsize,
    dbs: Vec<Arc<EmbeddedDriver>>,
}

impl Restartable {
    fn new(shards: usize) -> Restartable {
        Restartable {
            shards: NonZeroUsize::new(shards).expect("shards > 0"),
            dbs: (0..shards)
                .map(|_| Arc::new(EmbeddedDriver::new(DewDb::in_memory())))
                .collect(),
        }
    }

    fn access(&self, shard: usize) -> DbAccess {
        let driver: Arc<dyn DbDriver> = self.dbs[shard].clone();
        DbAccess::Pooled(ConnectionPool::new(driver, 2))
    }

    fn container(&self) -> Arc<ServiceContainer> {
        let config = RuntimeConfig {
            shards: self.shards,
            ..RuntimeConfig::default()
        };
        ServiceContainer::start_with_db(Fabric::new(), MemStore::new(), config, |i| self.access(i))
    }

    fn fresh_plane(&self) -> ShardedPlane {
        ShardedPlane::new(self.shards, 1_000_000_000, 64, |i| self.access(i))
    }
}

/// The head held in memory equals the head resolved from the catalog's
/// rows, and a fresh plane over the same databases loads it cold.
fn assert_coherent(env: &Restartable, plane: &ShardedPlane, data: &Data) {
    let catalog = plane.catalog_for(data.id);
    let cold = catalog.manifest(data.id).unwrap().map(|base| {
        let rows = catalog.versions(data.id).unwrap();
        ResolvedVersion::resolve(&base, &rows, rows.last().map_or(1, |r| r.version))
    });
    let held = plane.version_state().head(data.id);
    assert_eq!(held.as_deref(), cold.as_ref(), "held head vs catalog chain");
    let restarted = env.fresh_plane().head(data.id).unwrap();
    assert_eq!(
        restarted.as_deref(),
        cold.as_ref(),
        "cold load after restart"
    );
}

/// Random version-plane traffic, one datum at a time: commits from the
/// head or a stale base (fast path, rebase or conflict), snapshots opened
/// and dropped, GC sweeps, re-puts (accepted only at head 1) and deletes,
/// with the coherence check after every operation.
fn coherence_scenario(shards: usize, ops: &[(u8, u32)]) {
    let env = Restartable::new(shards);
    let c = env.container();
    let client = BitdewNode::new_client(Arc::clone(&c));
    let fresh_slot = |n: usize| {
        let data = client
            .create_slot(&format!("coherent-{n}"), TOTAL as u64)
            .unwrap();
        client.put_chunked(&data, &payload(TOTAL), CHUNK).unwrap();
        data
    };
    let mut data = fresh_slot(0);
    let mut model = payload(TOTAL);
    let mut snaps: Vec<Snapshot> = Vec::new();
    assert_coherent(&env, &c.plane, &data);
    for (n, &(kind, arg)) in ops.iter().enumerate() {
        let head = client.version_head(data.id).unwrap();
        match kind % 6 {
            0 | 1 => {
                let chunk = (arg % 8) as u64;
                let base = head.saturating_sub(((arg >> 8) % 3) as u64).max(1);
                let offset = chunk * CHUNK + (arg >> 16) as u64 % 1000;
                let writes = vec![(offset, vec![arg as u8; 64])];
                match client.commit_update(&data, base, &writes) {
                    Ok(v) => {
                        assert_eq!(v, head + 1);
                        apply_model(&mut model, &writes);
                    }
                    Err(BitdewError::VersionConflict { .. }) => assert!(base < head),
                    Err(e) => panic!("commit: {e}"),
                }
            }
            2 => {
                snaps.push(client.open_snapshot(&data).unwrap());
                if snaps.len() > 4 {
                    snaps.remove(0);
                }
            }
            3 => {
                if !snaps.is_empty() {
                    snaps.remove(0);
                }
                client.gc_versions(&data).unwrap();
            }
            4 => {
                let content = vec![arg as u8; TOTAL];
                match client.put_chunked(&data, &content, CHUNK) {
                    Ok(_) => {
                        assert!(head <= 1 || content == model, "re-put at head {head}");
                        model = content;
                    }
                    Err(e) => assert!(head > 1 && !e.is_retryable(), "re-put: {e}"),
                }
            }
            _ => {
                snaps.clear();
                client.delete(&data).unwrap();
                assert_coherent(&env, &c.plane, &data);
                data = fresh_slot(n + 1);
                model = payload(TOTAL);
            }
        }
        assert_coherent(&env, &c.plane, &data);
        assert_eq!(client.get_range(&data, 0, TOTAL).unwrap(), model);
    }
}

fn ops() -> impl Strategy<Value = Vec<(u8, u32)>> {
    proptest::collection::vec((any::<u8>(), any::<u32>()), 1..40)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8 })]

    #[test]
    fn prop_held_head_matches_the_catalog_on_one_shard(ops in ops()) {
        coherence_scenario(1, &ops);
    }

    #[test]
    fn prop_held_head_matches_the_catalog_on_four_shards(ops in ops()) {
        coherence_scenario(4, &ops);
    }
}

// ---------------------------------------------------------------------------
// Catalog traffic: a commit's cost does not grow with the chain.
// ---------------------------------------------------------------------------

/// Catalog operations by (kind, table), counted at the driver seam.
#[derive(Default)]
struct OpCounts(Mutex<BTreeMap<(&'static str, String), u64>>);

impl OpCounts {
    fn note(&self, op: &DbOp) {
        let key = match op {
            DbOp::Put { table, .. } => ("put", table.to_string()),
            DbOp::Get { table, .. } => ("get", table.to_string()),
            DbOp::Delete { table, .. } => ("delete", table.to_string()),
            DbOp::ScanPrefix { table, .. } => ("scan", table.to_string()),
        };
        *self.0.lock().unwrap().entry(key).or_insert(0) += 1;
    }

    fn take(&self) -> BTreeMap<(&'static str, String), u64> {
        std::mem::take(&mut *self.0.lock().unwrap())
    }
}

/// A `DbDriver` whose connections count what they execute.
struct CountingDriver {
    inner: Arc<dyn DbDriver>,
    counts: Arc<OpCounts>,
}

impl DbDriver for CountingDriver {
    fn connect(&self) -> DbResult<Box<dyn DbConnection>> {
        Ok(Box::new(CountingConnection {
            inner: self.inner.connect()?,
            counts: Arc::clone(&self.counts),
        }))
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

struct CountingConnection {
    inner: Box<dyn DbConnection>,
    counts: Arc<OpCounts>,
}

impl DbConnection for CountingConnection {
    fn exec(&mut self, op: DbOp) -> DbResult<DbReply> {
        self.counts.note(&op);
        self.inner.exec(op)
    }

    fn exec_batch(&mut self, ops: Vec<DbOp>) -> DbResult<Vec<DbReply>> {
        for op in &ops {
            self.counts.note(op);
        }
        self.inner.exec_batch(ops)
    }
}

#[test]
fn commit_and_snapshot_catalog_traffic_does_not_grow_with_the_chain() {
    const SMALL: u64 = 1024;
    const ROWS: u64 = 2_000;
    let counts = Arc::new(OpCounts::default());
    let driver: Arc<dyn DbDriver> = Arc::new(CountingDriver {
        inner: Arc::new(EmbeddedDriver::new(DewDb::in_memory())),
        counts: Arc::clone(&counts),
    });
    let c = ServiceContainer::start_with_db(
        Fabric::new(),
        MemStore::new(),
        RuntimeConfig::default(),
        |_| DbAccess::PerOperation(Arc::clone(&driver)),
    );
    let client = BitdewNode::new_client(Arc::clone(&c));
    let content = payload(8 * SMALL as usize);
    let data = client
        .create_slot("long-chain", content.len() as u64)
        .unwrap();
    client.put_chunked(&data, &content, SMALL).unwrap();
    for v in 1..=ROWS {
        let writes = [((v % 8) * SMALL + v % 100, vec![v as u8; 16])];
        assert_eq!(client.commit_update(&data, v, &writes).unwrap(), v + 1);
        if v % 500 == 0 {
            client.gc_versions(&data).unwrap();
        }
    }
    let rows = c.plane.catalog_for(data.id).versions(data.id).unwrap();
    assert_eq!(rows.len(), ROWS as usize);

    counts.take();
    let head = client.version_head(data.id).unwrap();
    client
        .commit_update(&data, head, &[(3, vec![0xABu8; 32])])
        .unwrap();
    let mut expected = BTreeMap::from([(("put", "dc_version".to_string()), 1)]);
    if cfg!(debug_assertions) {
        // `publish_version` checks the advanced head against the chain.
        expected.insert(("get", "dc_manifest".to_string()), 1);
        expected.insert(("scan", "dc_version".to_string()), 1);
    }
    assert_eq!(counts.take(), expected, "one commit at a {ROWS}-row chain");

    let snap = client.open_snapshot(&data).unwrap();
    assert_eq!(snap.version(), ROWS + 2);
    assert!(
        counts.take().is_empty(),
        "open_snapshot reads no catalog row"
    );
}
