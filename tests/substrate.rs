//! Substrate-level integration: persistence across restarts, DHT behaviour
//! under sustained churn, and simulator determinism — the properties the
//! paper's §2.3 feature list promises (fault tolerance, scalability,
//! reliability) exercised across crate boundaries.

use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::sync::Arc;

use bitdew::core::services::DbAccess;
use bitdew::core::{
    join_all, BitdewNode, Data, DataAttributes, RuntimeConfig, ServiceContainer, Session,
};
use bitdew::dht::{build_overlay, DhtConfig, RingPos};
use bitdew::sim::{topology, Sim, SimDuration};
use bitdew::storage::crc32::crc32;
use bitdew::storage::testutil::TempDir;
use bitdew::storage::wal::{self, LogRecord, WalWriter};
use bitdew::storage::{
    ConnectionPool, DbDriver, DbOp, DbReply, DewDb, EmbeddedDriver, Encode, SyncPolicy,
};
use bitdew::transport::simproto::run_ftp_star;
use bitdew::transport::{Fabric, MemStore, ProtocolId};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

#[test]
fn catalog_metadata_survives_restart() {
    // "Meta-data information are serialized using a traditional SQL
    // database" — kill the process (drop the DB), reopen, everything is
    // still there, including through a checkpoint.
    let dir = TempDir::new("persist");
    let key = |i: u32| i.to_le_bytes().to_vec();
    {
        let mut db = DewDb::open(dir.path(), SyncPolicy::EveryAppend).unwrap();
        for i in 0..500u32 {
            db.put("dc_data", &key(i), format!("datum-{i}").as_bytes())
                .unwrap();
        }
        db.checkpoint().unwrap();
        for i in 500..700u32 {
            db.put("dc_data", &key(i), format!("datum-{i}").as_bytes())
                .unwrap();
        }
        for i in 0..100u32 {
            db.delete("dc_data", &key(i)).unwrap();
        }
    } // process "crash"
    let db = DewDb::open(dir.path(), SyncPolicy::EveryAppend).unwrap();
    assert_eq!(db.table_len("dc_data"), 600);
    assert_eq!(db.get("dc_data", &key(50)), None);
    assert_eq!(db.get("dc_data", &key(650)), Some(&b"datum-650"[..]));
}

const TABLES: [&str; 3] = ["dc_data", "dc_name", "dc_locator"];

/// The log `records` make in the framing the per-record writer has always
/// used: `[len u32][crc32 u32][LogRecord::encode]` each.
fn framed(records: &[LogRecord]) -> Vec<u8> {
    let mut out = Vec::new();
    for rec in records {
        let payload = rec.to_bytes();
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One random history of puts and deletes, written three ways —
    /// group-committed batches through the embedded engine, DewDB's
    /// per-call `put`/`delete`, and `WalWriter::append` of the records a
    /// model says change something — leaves three byte-identical logs in
    /// the old framing, which replay to those records.
    #[test]
    fn prop_every_writer_frames_the_same_log(
        history in proptest::collection::vec(
            (0u8..3, 0usize..3, 0u8..6, proptest::collection::vec(0u8..2, 0..3)),
            0..64,
        ),
        batch in 1usize..9,
    ) {
        let mut model: BTreeMap<(&str, Vec<u8>), Vec<u8>> = BTreeMap::new();
        let (mut ops, mut replies, mut records) = (Vec::new(), Vec::new(), Vec::new());
        for (kind, t, k, value) in history {
            let (table, key) = (TABLES[t], vec![k]);
            if kind == 0 {
                let prev = model.remove(&(table, key.clone()));
                if prev.is_some() {
                    records.push(LogRecord::Delete { table: table.into(), key: key.clone() });
                }
                replies.push(DbReply::Previous(prev));
                ops.push(DbOp::Delete { table, key });
            } else {
                let prev = model.insert((table, key.clone()), value.clone());
                if prev.as_ref() != Some(&value) {
                    records.push(LogRecord::Put {
                        table: table.into(),
                        key: key.clone(),
                        value: value.clone(),
                    });
                }
                replies.push(DbReply::Previous(prev));
                ops.push(DbOp::Put { table, key, value });
            }
        }
        let dir = TempDir::new("prop-frame");
        let open = |name: &str| DewDb::open(dir.path().join(name), SyncPolicy::EveryAppend).unwrap();
        {
            let driver = EmbeddedDriver::new(open("engine"));
            let mut conn = driver.connect().unwrap();
            let mut got = Vec::new();
            for chunk in ops.chunks(batch) {
                got.extend(conn.exec_batch(chunk.to_vec()).unwrap());
            }
            prop_assert_eq!(got, replies);
        }
        {
            let mut db = open("db");
            for op in &ops {
                match op {
                    DbOp::Put { table, key, value } => db.put(table, key, value).unwrap(),
                    DbOp::Delete { table, key } => db.delete(table, key).unwrap(),
                    _ => unreachable!("the history only writes"),
                };
            }
        }
        {
            std::fs::create_dir_all(dir.path().join("wal")).unwrap();
            let mut w = WalWriter::open(dir.path().join("wal/wal.log"), SyncPolicy::EveryAppend)
                .unwrap();
            for rec in &records {
                w.append(rec).unwrap();
            }
        }
        let want = framed(&records);
        for name in ["engine", "db", "wal"] {
            let log = dir.path().join(name).join("wal.log");
            prop_assert_eq!(&std::fs::read(&log).unwrap(), &want, "{}", name);
            let replayed = wal::replay(&log).unwrap();
            prop_assert!(!replayed.truncated_tail);
            prop_assert_eq!(&replayed.records, &records);
        }
        let reopened = open("engine");
        for ((table, key), value) in &model {
            prop_assert_eq!(reopened.get(table, key), Some(&value[..]));
        }
        let rows: usize = TABLES.iter().map(|t| reopened.table_len(t)).sum();
        prop_assert_eq!(rows, model.len());
    }
}

/// Every `dc_data`, `dc_name` and `dc_locator` row of `data` read back from
/// the shard databases on disk equals what the live plane acknowledged.
fn assert_rows_on_disk(dirs: &[PathBuf], data: &[(Data, usize, Vec<Vec<u8>>)]) {
    let dbs: Vec<DewDb> = dirs
        .iter()
        .map(|d| DewDb::open(d, SyncPolicy::EveryAppend).unwrap())
        .collect();
    for (d, shard, locators) in data {
        let db = &dbs[*shard];
        let id = d.id.0.to_le_bytes();
        assert_eq!(
            db.get("dc_data", &id),
            Some(&d.encode_to_vec()[..]),
            "{}",
            d.name
        );
        let mut name = d.name.as_bytes().to_vec();
        name.push(0);
        name.extend_from_slice(&id);
        assert_eq!(db.get("dc_name", &name), Some(&id[..]), "{}", d.name);
        let rows: Vec<Vec<u8>> = db
            .scan_prefix("dc_locator", &id)
            .into_iter()
            .map(|(_, v)| v)
            .collect();
        assert_eq!(&rows, locators, "{}", d.name);
    }
    for (table, per_datum) in [("dc_data", 1), ("dc_name", 1), ("dc_locator", 2)] {
        let rows: usize = dbs.iter().map(|db| db.table_len(table)).sum();
        assert_eq!(rows, per_datum * data.len(), "{table}");
    }
}

#[test]
fn batched_command_plane_survives_restart() {
    // The `small_files` command storm in miniature, on 4 on-disk catalog
    // shards: `create_many`, then pipelined `put` + `schedule` through a
    // session. Every acknowledged row is on disk before the container goes
    // away, and a repeated `schedule_many` logs nothing.
    const N: usize = 512;
    let dir = TempDir::new("plane-restart");
    let dirs: Vec<PathBuf> = (0..4)
        .map(|i| dir.path().join(format!("shard{i}")))
        .collect();
    let wal_lens = || -> Vec<u64> {
        dirs.iter()
            .map(|d| std::fs::metadata(d.join("wal.log")).unwrap().len())
            .collect()
    };
    let config = RuntimeConfig {
        shards: NonZeroUsize::new(4).unwrap(),
        ..RuntimeConfig::default()
    };
    let container = ServiceContainer::start_with_db(Fabric::new(), MemStore::new(), config, |i| {
        let db = DewDb::open(&dirs[i], SyncPolicy::EveryAppend).unwrap();
        let driver: Arc<dyn DbDriver> = Arc::new(EmbeddedDriver::new(db));
        DbAccess::Pooled(ConnectionPool::new(driver, 2))
    });
    let client = Arc::new(BitdewNode::new_client(Arc::clone(&container)));
    let names: Vec<String> = (0..N).map(|i| format!("restart.{i}")).collect();
    let payloads: Vec<Vec<u8>> = (0..N).map(|i| vec![i as u8; 64 + i % 7]).collect();
    let items: Vec<(&str, &[u8])> = names
        .iter()
        .zip(&payloads)
        .map(|(n, p)| (n.as_str(), p.as_slice()))
        .collect();
    let session = Session::with_batch_limit(Arc::clone(&client), 64);
    let mut handles = Vec::new();
    for batch in items.chunks(128) {
        handles.extend(session.create_many(batch).unwrap());
    }
    let attrs = DataAttributes::default().with_replica(1);
    let mut futures = Vec::new();
    for (h, p) in handles.iter().zip(&payloads) {
        futures.push(h.put(p));
        futures.push(h.schedule(attrs.clone()));
    }
    join_all(futures).unwrap();

    // What was acknowledged: each datum, its shard, and its FTP and HTTP
    // locator rows (built by the repository, without a catalog call: any
    // catalog call would commit what an unfinished batch left staged).
    let plane = &container.plane;
    let written: Vec<(Data, usize, Vec<Vec<u8>>)> = handles
        .iter()
        .map(|h| {
            let d = h.data().clone();
            let locators = [ProtocolId::ftp(), ProtocolId::http()]
                .iter()
                .map(|p| container.repository.locator_for(&d, p).unwrap())
                .map(|l| l.encode_to_vec())
                .collect();
            let shard = plane.router().shard_of(d.id);
            (d, shard, locators)
        })
        .collect();
    // Acknowledged means logged: the files hold every row while the
    // databases are still open.
    assert_rows_on_disk(&dirs, &written);
    for (d, _, locators) in &written {
        let live: Vec<Vec<u8>> = plane
            .locators(d.id)
            .unwrap()
            .iter()
            .map(Encode::encode_to_vec)
            .collect();
        assert_eq!(&live, locators, "{}", d.name);
    }

    // Scheduling the same data again re-puts identical locator rows.
    let lens = wal_lens();
    let again: Vec<(Data, DataAttributes)> = written
        .iter()
        .map(|(d, _, _)| (d.clone(), attrs.clone()))
        .collect();
    client.schedule_many(&again).unwrap();
    assert_eq!(wal_lens(), lens, "an unchanged row is not logged again");

    drop((handles, session, client, container));
    assert_rows_on_disk(&dirs, &written);
}

#[test]
fn dht_under_sustained_churn_keeps_replicated_keys() {
    // 40-node overlay, f = 4; repeatedly crash a random node (abrupt, store
    // lost) and heal. Keys must remain readable throughout — "DHTs are
    // inherently fault-tolerant" (§3.4.1) is a property we must actually
    // provide, not assume.
    let mut rng = SmallRng::seed_from_u64(77);
    let mut overlay = build_overlay(
        DhtConfig {
            arity: 4,
            replication: 4,
        },
        40,
        &mut rng,
    );
    let origin0 = overlay.members()[0];
    let keys: Vec<RingPos> = (0..120).map(|_| RingPos(rng.gen())).collect();
    for (i, &k) in keys.iter().enumerate() {
        overlay
            .put(origin0, k, (i as u32).to_le_bytes().to_vec())
            .unwrap();
    }
    for round in 0..10 {
        let members = overlay.members();
        let victim = members[rng.gen_range(0..members.len())];
        overlay.crash(victim);
        // Reads still served by replicas before the heal.
        let survivor = overlay.members()[0];
        for (i, &k) in keys.iter().enumerate().step_by(7) {
            let got = overlay.get(survivor, k).unwrap();
            assert!(
                got.value.contains(&(i as u32).to_le_bytes().to_vec()),
                "round {round}: key {i} lost before heal"
            );
        }
        overlay.heal();
    }
    assert_eq!(overlay.len(), 30);
    let origin = overlay.members()[0];
    for (i, &k) in keys.iter().enumerate() {
        let got = overlay.get(origin, k).unwrap();
        assert!(
            got.value.contains(&(i as u32).to_le_bytes().to_vec()),
            "key {i} lost after 10 crashes"
        );
    }
}

#[test]
fn simulator_runs_are_bit_deterministic() {
    // Same seed → identical completion schedule, event counts and byte
    // accounting; different seed → same physics (homogeneous star), so the
    // makespan matches but the RNG streams differ.
    let run = |seed: u64| -> (f64, u64, f64) {
        let topo = topology::gdx_cluster(25);
        let mut sim = Sim::new(seed);
        let out = run_ftp_star(
            &mut sim,
            &topo.net,
            topo.service,
            &topo.workers,
            77.7e6,
            SimDuration::from_millis(100),
        );
        sim.run();
        let makespan = out.borrow().makespan().as_secs_f64();
        (makespan, sim.events_executed(), topo.net.bytes_delivered())
    };
    let a = run(1);
    let b = run(1);
    assert_eq!(a, b, "identical seeds replay identically");
    let c = run(2);
    assert!((a.0 - c.0).abs() < 1e-9, "physics independent of seed");
    assert!(
        (a.2 - 25.0 * 77.7e6).abs() / a.2 < 1e-6,
        "all bytes accounted"
    );
}

#[test]
fn attribute_language_to_scheduler_pipeline() {
    // Parse the paper's Listing 3 manifest and drive the scheduler with it:
    // the full path from text to placement decisions.
    use bitdew::core::services::scheduler::DataScheduler;
    use bitdew::core::{parse_attributes, Data, ResolveCtx};
    use bitdew::util::Auid;

    let mut rng = SmallRng::seed_from_u64(3);
    let collector = Data::slot(Auid::generate(1, &mut rng), "Collector", 0);
    let sequence = Data::slot(Auid::generate(2, &mut rng), "Sequence", 100_000);
    let genebase = Data::slot(Auid::generate(3, &mut rng), "Genebase", 2_680_000_000);

    let mut ctx = ResolveCtx::default();
    ctx.names.insert("Collector".into(), collector.id);
    ctx.names.insert("Sequence".into(), sequence.id);
    ctx.vars.insert("x".into(), 1);
    let defs = parse_attributes(
        r#"
        attribute Genebase = { protocol = "BitTorrent", lifetime = Collector,
                               affinity = Sequence }
        attribute Sequence = { fault tolerance = true, protocol = "http",
                               lifetime = Collector, replication = x }
        attribute Collector = { }
        "#,
    )
    .unwrap();
    let gene_attrs = defs[0].resolve(&ctx).unwrap();
    let seq_attrs = defs[1].resolve(&ctx).unwrap();
    let col_attrs = defs[2].resolve(&ctx).unwrap().with_replica(0);

    let mut ds = DataScheduler::new(u64::MAX, 16);
    ds.schedule(collector.clone(), col_attrs);
    ds.schedule(sequence.clone(), seq_attrs);
    ds.schedule(genebase.clone(), gene_attrs);

    // One worker syncs: gets the sequence (replica) and the genebase
    // (affinity); a second worker gets nothing (replication = x = 1).
    let w1 = Auid::generate(10, &mut rng);
    let w2 = Auid::generate(11, &mut rng);
    let r1 = ds.sync(w1, &[], 0);
    let names: Vec<&str> = r1.download.iter().map(|(d, _)| d.name.as_str()).collect();
    assert!(names.contains(&"Sequence") && names.contains(&"Genebase"));
    assert!(ds.sync(w2, &[], 0).download.is_empty());

    // Deleting the Collector obsoletes both on the next sync (Listing 3's
    // cleanup idiom).
    ds.delete_data(collector.id);
    let r3 = ds.sync(w1, &[sequence.id, genebase.id], 1);
    assert_eq!(r3.delete.len(), 2);
}
