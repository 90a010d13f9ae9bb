//! Small data move in batches: every whole-object FTP datum one
//! synchronization round assigns from one source travels over one
//! pipelined session, while each datum keeps its own transfer — its own
//! verdict, its own retries, its own Copy event, in admission order. And a
//! pipelined `put` + `schedule` of a small datum costs the catalog its
//! rows and nothing more.

use std::collections::HashSet;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bitdew::core::api::{DataEventKind, EventFilter};
use bitdew::core::services::DbAccess;
use bitdew::core::{
    join_all, BitdewNode, Data, DataAttributes, DataId, Locator, RuntimeConfig, ServiceContainer,
    Session,
};
use bitdew::storage::{
    ConnectionPool, DbConnection, DbDriver, DbOp, DbReply, DbResult, DewDb, EmbeddedDriver,
};
use bitdew::transport::{Fabric, MemStore, ProtocolId};

const ITEM: usize = 256;

/// A container whose failure detector never fires during a test (the
/// nodes are pumped by hand or heartbeat far faster), a client, and one
/// reservoir.
fn cluster(cap: usize) -> (Arc<ServiceContainer>, Arc<BitdewNode>, Arc<BitdewNode>) {
    let c = ServiceContainer::start(RuntimeConfig {
        heartbeat: Duration::from_secs(2),
        max_concurrent_downloads: cap,
        ..RuntimeConfig::default()
    });
    let client = BitdewNode::new_client(Arc::clone(&c));
    let worker = BitdewNode::new(Arc::clone(&c));
    (c, client, worker)
}

/// Create, put and schedule `n` small data at `replica = 1`.
fn publish(client: &BitdewNode, n: usize, attrs: DataAttributes) -> Vec<(Data, Vec<u8>)> {
    let bytes: Vec<Vec<u8>> = (0..n)
        .map(|i| (0..ITEM).map(|j| (i * 7 + j * 31) as u8).collect())
        .collect();
    let names: Vec<String> = (0..n).map(|i| format!("small.{i}")).collect();
    let items: Vec<(&str, &[u8])> = names
        .iter()
        .zip(&bytes)
        .map(|(n, b)| (n.as_str(), b.as_slice()))
        .collect();
    let data = client.create_many(&items).unwrap();
    let puts: Vec<(Data, &[u8])> = data
        .iter()
        .cloned()
        .zip(bytes.iter().map(Vec::as_slice))
        .collect();
    client.put_many(&puts).unwrap();
    let scheduled: Vec<(Data, DataAttributes)> =
        data.iter().map(|d| (d.clone(), attrs.clone())).collect();
    client.schedule_many(&scheduled).unwrap();
    data.into_iter().zip(bytes).collect()
}

fn replica_one() -> DataAttributes {
    DataAttributes::default().with_replica(1)
}

fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn pump_until_cached(worker: &BitdewNode, data: &[(Data, Vec<u8>)]) {
    wait_until("every datum cached", || {
        worker.sync_once();
        data.iter().all(|(d, _)| worker.has_cached(d.id))
    });
}

fn assert_bytes(worker: &BitdewNode, data: &[(Data, Vec<u8>)]) {
    for (d, bytes) in data {
        assert_eq!(&worker.read_local(d).unwrap(), bytes, "{}", d.name);
    }
}

#[test]
fn one_sync_moves_sixty_four_data_over_one_session() {
    let (c, client, worker) = cluster(1);
    let data = publish(&client, 64, replica_one());
    let ftp = c.repository.ftp_server();
    let before = ftp.sessions_accepted();
    assert_eq!(worker.sync_once().started.len(), 64, "cap 1 admits a batch");
    pump_until_cached(&worker, &data);
    assert_eq!(ftp.sessions_accepted() - before, 1);
    assert_bytes(&worker, &data);
    assert_eq!(c.transfer.completed_count(), 64);
    assert_eq!(c.transfer.retry_count(), 0);
}

#[test]
fn per_datum_protocols_still_take_one_session_each() {
    // HTTP locators keep the per-datum path, so cap 1 admits one datum.
    let (c, client, worker) = cluster(1);
    let http = replica_one().with_protocol(ProtocolId::http());
    let data = publish(&client, 3, http);
    assert_eq!(worker.sync_once().started.len(), 1);
    pump_until_cached(&worker, &data);
    assert_bytes(&worker, &data);
    assert_eq!(c.repository.ftp_server().sessions_accepted(), 0);
}

#[test]
fn copy_events_fire_in_admission_order() {
    let (_c, client, worker) = cluster(1);
    let copies = worker.subscribe(EventFilter::kind(DataEventKind::Copy));
    let data = publish(&client, 64, replica_one());
    let admitted = worker.sync_once().started;
    assert_eq!(admitted.len(), 64);
    pump_until_cached(&worker, &data);
    let fired: Vec<DataId> = copies.drain().iter().map(|e| e.data.id).collect();
    assert_eq!(fired, admitted);
}

#[test]
fn a_member_missing_from_the_repository_fails_and_retries_alone() {
    let (c, client, worker) = cluster(1);
    let data = publish(&client, 64, replica_one());
    let (victim, victim_bytes) = &data[17];
    let repo = c.repository.store();
    repo.remove(&victim.object_name()).unwrap();
    let ftp = c.repository.ftp_server();
    let before = ftp.sessions_accepted();
    assert_eq!(worker.sync_once().started.len(), 64);
    // The batch runs to its end without a monitor step: the other 63
    // arrive, the victim's `RETR` is answered `ERR`.
    let local = worker.local_store();
    wait_until("the rest of the batch", || {
        data.iter()
            .filter(|(d, _)| d.id != victim.id)
            .all(|(d, b)| local.size(&d.object_name()).ok() == Some(b.len() as u64))
    });
    assert!(!local.exists(&victim.object_name()));
    c.repository.put_bytes(victim, victim_bytes).unwrap();
    pump_until_cached(&worker, &data);
    assert_bytes(&worker, &data);
    assert_eq!(c.transfer.retry_count(), 1, "only the victim retried");
    assert_eq!(c.transfer.completed_count(), 64);
    assert_eq!(
        ftp.sessions_accepted() - before,
        2,
        "the batch, then the victim alone"
    );
}

#[test]
fn a_dropped_batch_session_completes_every_member_through_retries() {
    let (c, client, worker) = cluster(1);
    let copies = worker.subscribe(EventFilter::kind(DataEventKind::Copy));
    let data = publish(&client, 64, replica_one());
    // The session dies right after member 9's payload, before its `END`.
    c.repository
        .ftp_server()
        .inject_drop_after(10 * ITEM as u64);
    let admitted = worker.sync_once().started;
    assert_eq!(admitted.len(), 64);
    pump_until_cached(&worker, &data);
    assert_bytes(&worker, &data);
    assert_eq!(c.transfer.completed_count(), 64);
    assert_eq!(
        c.transfer.retry_count(),
        64 - 9,
        "member 9 and every later one"
    );
    // The retries finish in any order; the Copy events do not.
    let fired: Vec<DataId> = copies.drain().iter().map(|e| e.data.id).collect();
    assert_eq!(
        fired, admitted,
        "one Copy event per datum, in admission order"
    );
}

#[test]
fn two_heartbeating_workers_place_each_datum_exactly_once() {
    let (c, client, w1) = cluster(RuntimeConfig::default().max_concurrent_downloads);
    let w2 = BitdewNode::new(Arc::clone(&c));
    let workers = [&w1, &w2];
    let subs: Vec<_> = workers
        .iter()
        .map(|w| w.subscribe(EventFilter::kind(DataEventKind::Copy)))
        .collect();
    let data = publish(&client, 400, replica_one());
    let beats: Vec<_> = workers
        .iter()
        .map(|w| w.start_heartbeat(Duration::from_millis(2)))
        .collect();
    wait_until("400 placements", || {
        workers.iter().map(|w| w.cached().len()).sum::<usize>() >= data.len()
    });
    drop(beats);
    for (d, bytes) in &data {
        let holders: Vec<_> = workers.iter().filter(|w| w.has_cached(d.id)).collect();
        assert_eq!(holders.len(), 1, "{} on exactly one worker", d.name);
        assert_eq!(c.owners_of(d.id), vec![holders[0].uid]);
        assert_eq!(&holders[0].read_local(d).unwrap(), bytes);
    }
    for (w, sub) in workers.iter().zip(&subs) {
        let fired: Vec<DataId> = sub.drain().iter().map(|e| e.data.id).collect();
        let distinct: HashSet<DataId> = fired.iter().copied().collect();
        assert_eq!(distinct.len(), fired.len(), "no Copy event twice");
        assert_eq!(distinct, w.cached().into_iter().collect::<HashSet<_>>());
    }
}

/// A [`DbDriver`] that counts the rows its sessions send to DewDB — every
/// `Put`, whether or not the engine finds it a no-op.
struct RowCounting {
    inner: Arc<EmbeddedDriver>,
    rows: Arc<AtomicU64>,
}

struct RowCountingConnection {
    inner: Box<dyn DbConnection>,
    rows: Arc<AtomicU64>,
}

impl RowCountingConnection {
    fn count(&self, op: &DbOp) {
        if matches!(op, DbOp::Put { .. }) {
            self.rows.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl DbConnection for RowCountingConnection {
    fn exec(&mut self, op: DbOp) -> DbResult<DbReply> {
        self.count(&op);
        self.inner.exec(op)
    }

    fn exec_batch(&mut self, ops: Vec<DbOp>) -> DbResult<Vec<DbReply>> {
        ops.iter().for_each(|op| self.count(op));
        self.inner.exec_batch(ops)
    }
}

impl DbDriver for RowCounting {
    fn connect(&self) -> DbResult<Box<dyn DbConnection>> {
        Ok(Box::new(RowCountingConnection {
            inner: self.inner.connect()?,
            rows: Arc::clone(&self.rows),
        }))
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// A 4-shard container over embedded DewDB catalogs, with each shard's
/// database handle kept for its mutation count and one counter of the rows
/// sent to all four.
fn counted_cluster() -> (
    Arc<ServiceContainer>,
    Arc<BitdewNode>,
    Vec<Arc<EmbeddedDriver>>,
    Arc<AtomicU64>,
) {
    let drivers: Vec<Arc<EmbeddedDriver>> = (0..4)
        .map(|_| Arc::new(EmbeddedDriver::new(DewDb::in_memory())))
        .collect();
    let rows = Arc::new(AtomicU64::new(0));
    let config = RuntimeConfig {
        shards: NonZeroUsize::new(4).unwrap(),
        ..RuntimeConfig::default()
    };
    let c = ServiceContainer::start_with_db(Fabric::new(), MemStore::new(), config, |i| {
        let driver: Arc<dyn DbDriver> = Arc::new(RowCounting {
            inner: Arc::clone(&drivers[i]),
            rows: Arc::clone(&rows),
        });
        DbAccess::Pooled(ConnectionPool::new(driver, 2))
    });
    let client = BitdewNode::new_client(Arc::clone(&c));
    (c, client, drivers, rows)
}

fn mutations(drivers: &[Arc<EmbeddedDriver>]) -> u64 {
    drivers.iter().map(|d| d.db().lock().mutations()).sum()
}

fn sorted_locators(c: &ServiceContainer, d: &Data) -> Vec<Locator> {
    let mut got = c.plane.locators(d.id).unwrap();
    got.sort_by(|a, b| a.protocol.0.cmp(&b.protocol.0));
    got
}

fn served(d: &Data) -> [Locator; 2] {
    [
        Locator::new(d, ProtocolId::ftp(), "dr.ftp"),
        Locator::new(d, ProtocolId::http(), "dr.http"),
    ]
}

#[test]
fn a_pipelined_put_and_schedule_costs_four_catalog_rows_per_datum() {
    const N: usize = 300;
    let (c, client, drivers, rows) = counted_cluster();
    let bytes: Vec<Vec<u8>> = (0..N).map(|i| vec![i as u8; ITEM]).collect();
    let names: Vec<String> = (0..N).map(|i| format!("rows.{i}")).collect();
    let items: Vec<(&str, &[u8])> = names
        .iter()
        .zip(&bytes)
        .map(|(n, b)| (n.as_str(), b.as_slice()))
        .collect();
    let data = client.create_many(&items).unwrap();
    let session = Session::with_batch_limit(Arc::clone(&client), 64);
    let mut futures = Vec::with_capacity(2 * N);
    for (d, b) in data.iter().zip(&bytes) {
        futures.push(session.put(d, b));
        futures.push(session.schedule(d, replica_one()));
    }
    join_all(futures).unwrap();

    // A data row and a name row from `create_many`, an FTP and an HTTP
    // locator row from `put`, and nothing from `schedule`: four rows sent
    // and four mutations per datum.
    assert_eq!(rows.load(Ordering::Relaxed), 4 * N as u64);
    assert_eq!(mutations(&drivers), 4 * N as u64);
    for d in &data {
        assert_eq!(sorted_locators(&c, d), served(d), "{}", d.name);
    }
    assert_eq!(c.plane.scheduler().managed_count(), N);
    let sent = rows.load(Ordering::Relaxed);
    join_all(data.iter().map(|d| session.schedule(d, replica_one()))).unwrap();
    assert_eq!(
        rows.load(Ordering::Relaxed),
        sent,
        "a schedule sends no row"
    );

    // Content written only through a raw range write gets its FTP and
    // HTTP locators from the write itself; `schedule` adds none.
    let raw = client.create_slot("raw", ITEM as u64).unwrap();
    assert!(c.plane.locators(raw.id).unwrap().is_empty());
    client.put_range(&raw, 0, &[7u8; ITEM]).unwrap();
    assert_eq!(sorted_locators(&c, &raw), served(&raw));
    client.schedule(&raw, replica_one()).unwrap();
    assert_eq!(sorted_locators(&c, &raw), served(&raw));

    // A BitTorrent schedule still starts the datum's seeder and adds its
    // tracker locator beside the two.
    let bt = &data[0];
    assert!(c.repository.torrent_for(bt).is_none());
    client
        .schedule(bt, replica_one().with_protocol(ProtocolId::bittorrent()))
        .unwrap();
    assert!(c.repository.torrent_for(bt).is_some());
    let [ftp, http] = served(bt);
    assert_eq!(
        sorted_locators(&c, bt),
        [
            Locator::new(bt, ProtocolId::bittorrent(), "dr.tracker"),
            ftp,
            http
        ]
    );
}
