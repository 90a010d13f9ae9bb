//! Probes: one layer's public functions called in isolation, on inputs
//! shaped like the workload that leans on the layer. Each reports the
//! median of a few repetitions. A traced run adds the probes of the layers
//! its workload exercises; an untraced run never runs one.

use std::hint::black_box;
use std::num::NonZeroUsize;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bitdew_core::announce::{AnnounceMsg, HostCache, FLAG_COMPLETE};
use bitdew_core::chunks::{ChunkDescriptor, ChunkManifest, ChunkStore, MultiSourceFetcher};
use bitdew_core::services::catalog::{DataCatalog, DbAccess};
use bitdew_core::services::scheduler::{DataScheduler, SyncRole};
use bitdew_core::versions::{ResolvedVersion, VersionedManifest};
use bitdew_core::{Data, DataAttributes, Locator, ShardedScheduler};
use bitdew_sim::{FlowNet, HostId, Link, LinkTopology, Sim, SimDuration, SimTime};
use bitdew_storage::wal::{LogRecord, WalWriter};
use bitdew_storage::{
    crc32::crc32, ConnectionPool, Decode, DewDb, EmbeddedDriver, Encode, SyncPolicy,
};
use bitdew_transport::ftp::{Direction, FtpRangeClient, FtpServer, FtpTransfer};
use bitdew_transport::http::{fetch_range, HttpServer};
use bitdew_transport::oob::{NonBlockingOobTransfer, OobTransfer, TransferSpec, TransferVerdict};
use bitdew_transport::{Fabric, MemStore, ProtocolId};
use bitdew_util::md5::md5;
use bitdew_util::Auid;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::stats::median;
use crate::workloads::{small, versions, SplitMix};

pub type Readings = Vec<(&'static str, f64)>;

const REPS: usize = 5;
const MB: f64 = 1.0e6;
const GBE: f64 = 125.0e6;

/// Median over `REPS` of the seconds `f` reports for one repetition.
fn reps(mut f: impl FnMut() -> f64) -> f64 {
    median(&(0..REPS).map(|_| f()).collect::<Vec<_>>())
}

fn secs(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

fn ids(n: usize, seed: u64) -> Vec<Auid> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|i| Auid::generate(i as u64 + 1, &mut rng))
        .collect()
}

/// The probes a workload's traced run adds.
pub fn for_workload(workload: &str, seed: u64, scratch: &Path) -> Result<Readings, String> {
    let mut out = Readings::new();
    match workload {
        "bulk_distribute" => {
            out.extend(digests(seed));
            out.extend(chunks(seed)?);
            out.extend(transport(seed)?);
        }
        "small_files" => {
            out.extend(storage(seed, scratch)?);
            out.extend(control(seed, scratch, small::PLACE_ITEMS)?);
            out.push(("transport.fabric.rtt_us", fabric_rtt_us()?));
        }
        "version_mix" => {
            out.extend(storage(seed, scratch)?);
            out.extend(digests(seed));
            out.push((
                "core.versions.resolve_us",
                resolve_us(seed, versions::ITERATIONS),
            ));
        }
        "sim_churn" => {
            out.extend(announce(seed));
            out.extend(simulator());
        }
        "sim_fanout" => out.extend(simulator()),
        _ => {}
    }
    Ok(out)
}

/// CRC32 at the two chunk sizes the workloads use, and MD5.
fn digests(seed: u64) -> Readings {
    let buf = SplitMix::new(seed, 1).bytes(8 << 20);
    let rate = |chunk: usize| {
        reps(|| {
            secs(|| {
                for c in buf.chunks(chunk) {
                    black_box(crc32(black_box(c)));
                }
            })
        })
    };
    let (big, small) = (rate(1 << 20), rate(256 << 10));
    let md5_s = reps(|| {
        secs(|| {
            black_box(md5(black_box(&buf)));
        })
    });
    let mb = buf.len() as f64 / MB;
    vec![
        ("storage.crc32_MBps_1m", mb / big),
        ("storage.crc32_MBps_256k", mb / small),
        ("util.md5_MBps", mb / md5_s),
    ]
}

/// WAL append under both flush policies, DewDB point operations, pool
/// checkout, and the catalog row codec — on rows the size of a `Data`.
fn storage(seed: u64, scratch: &Path) -> Result<Readings, String> {
    const OPS: usize = 20_000;
    let io = |e: std::io::Error| format!("storage probe: {e}");
    let keys: Vec<Vec<u8>> = ids(OPS, seed)
        .iter()
        .map(|id| id.to_canonical().into_bytes())
        .collect();
    let row = Data::from_bytes(ids(1, seed)[0], "probe.row", b"probe").to_bytes();
    let dir = scratch.join("probe.wal");
    std::fs::create_dir_all(&dir).map_err(io)?;
    let append_us = |policy: SyncPolicy, name: &str| -> Result<f64, String> {
        let mut samples = Vec::new();
        for rep in 0..REPS {
            let mut wal = WalWriter::open(dir.join(format!("{name}.{rep}")), policy).map_err(io)?;
            let start = Instant::now();
            for key in &keys {
                wal.append(&LogRecord::Put {
                    table: "data".into(),
                    key: key.clone(),
                    value: row.to_vec(),
                })
                .map_err(io)?;
            }
            wal.flush().map_err(io)?;
            samples.push(start.elapsed().as_secs_f64());
        }
        Ok(median(&samples) / OPS as f64 * 1e6)
    };
    let never = append_us(SyncPolicy::Never, "never")?;
    let every = append_us(SyncPolicy::EveryAppend, "every")?;
    std::fs::remove_dir_all(&dir).map_err(io)?;

    let mut db = DewDb::in_memory();
    let put_s = reps(|| {
        secs(|| {
            for key in &keys {
                db.put("data", key, &row).expect("in-memory put");
            }
        })
    });
    let get_s = reps(|| {
        secs(|| {
            for key in &keys {
                black_box(db.get("data", key));
            }
        })
    });
    let pool = ConnectionPool::new(Arc::new(EmbeddedDriver::new(DewDb::in_memory())), 8);
    let checkout_s = reps(|| {
        secs(|| {
            for _ in 0..OPS {
                drop(black_box(pool.checkout().expect("pool checkout")));
            }
        })
    });
    let codec_s = reps(|| {
        secs(|| {
            for _ in 0..OPS {
                let data = <Data as Decode>::from_bytes(black_box(&row)).expect("own encoding");
                black_box(data.to_bytes());
            }
        })
    });
    let per_op = OPS as f64;
    Ok(vec![
        ("storage.wal.append_us_never", never),
        ("storage.wal.append_us_everyappend", every),
        ("storage.db.put_us", put_s / per_op * 1e6),
        ("storage.db.get_us", get_s / per_op * 1e6),
        ("storage.pool.checkout_us", checkout_s / per_op * 1e6),
        ("storage.codec_ns", codec_s / per_op * 1e9),
    ])
}

/// One synchronization at the midpoint of `small_files` phase B — |Θ| =
/// `theta`, the host holding half of it, nothing left to assign — through
/// the 4-shard plane and through one unsharded scheduler; one `schedule`;
/// one catalog registration on the on-disk engine.
fn control(seed: u64, scratch: &Path, theta: usize) -> Result<Readings, String> {
    const SYNCS: usize = 50;
    let uids = ids(theta + 2, seed);
    let (host, other, data_ids) = (uids[0], uids[1], &uids[2..]);
    let data: Vec<Data> = data_ids
        .iter()
        .enumerate()
        .map(|(i, &id)| Data::slot(id, format!("p{i}"), 256))
        .collect();
    let attrs = DataAttributes::default().with_replica(1);
    let mine: Vec<Auid> = data_ids.iter().step_by(2).copied().collect();

    let shards = NonZeroUsize::new(4).expect("4 > 0");
    let sharded = ShardedScheduler::new(shards, u64::MAX, 64);
    let mut single = DataScheduler::new(u64::MAX, 64);
    let schedule_s = secs(|| {
        for d in &data {
            single.schedule(d.clone(), attrs.clone());
        }
    });
    for (i, d) in data.iter().enumerate() {
        let owner = if i % 2 == 0 { host } else { other };
        sharded.schedule(d.clone(), attrs.clone());
        sharded.pin(d.id, owner);
        single.pin(d.id, owner);
    }
    let sharded_s = reps(|| {
        secs(|| {
            for now in 0..SYNCS as u64 {
                black_box(sharded.sync_profiled(host, &mine, now + 1, SyncRole::Reservoir));
            }
        })
    });
    let single_s = reps(|| {
        secs(|| {
            for now in 0..SYNCS as u64 {
                black_box(single.sync(host, &mine, now + 1));
            }
        })
    });

    let dir = scratch.join("probe.catalog");
    let db = DewDb::open(&dir, SyncPolicy::EveryAppend).map_err(|e| format!("open: {e}"))?;
    let catalog = DataCatalog::new(DbAccess::Pooled(ConnectionPool::new(
        Arc::new(EmbeddedDriver::new(db)),
        8,
    )));
    let mut failed = None;
    let register_s = secs(|| {
        for d in &data {
            if let Err(e) = catalog.register(d) {
                failed = Some(format!("register: {e}"));
                return;
            }
        }
    });
    drop(catalog);
    std::fs::remove_dir_all(&dir).map_err(|e| format!("remove: {e}"))?;
    if let Some(e) = failed {
        return Err(e);
    }
    let (per_sync, per_datum) = (SYNCS as f64, theta as f64);
    Ok(vec![
        ("core.shard.sync_profiled_us", sharded_s / per_sync * 1e6),
        ("core.scheduler.sync_us", single_s / per_sync * 1e6),
        ("core.scheduler.schedule_us", schedule_s / per_datum * 1e6),
        ("core.catalog.register_us", register_s / per_datum * 1e6),
    ])
}

/// The chunk layer on one `bulk_distribute` blob: describing it, admitting
/// its chunks, and fetching it from one and from two FTP sources.
fn chunks(seed: u64) -> Result<Readings, String> {
    const BLOB: usize = 8 << 20;
    const CHUNK: u64 = 1 << 20;
    let content = SplitMix::new(seed, 2).bytes(BLOB);
    let data = Data::from_bytes(ids(1, seed)[0], "probe.blob", &content);
    let object = data.object_name();
    let mb = BLOB as f64 / MB;

    let describe_s = reps(|| {
        secs(|| {
            drop(black_box(ChunkManifest::describe(
                data.id,
                CHUNK,
                black_box(&content),
            )))
        })
    });
    let manifest = ChunkManifest::describe(data.id, CHUNK, &content);
    let mut failed = None;
    let put_s = reps(|| {
        let store = ChunkStore::new(MemStore::new());
        secs(|| {
            for (c, bytes) in manifest.chunks.iter().zip(content.chunks(CHUNK as usize)) {
                if let Err(e) = store.put_range(&object, &manifest, c.index, bytes) {
                    failed = Some(format!("put_range: {e}"));
                }
            }
        })
    });
    if let Some(e) = failed {
        return Err(e);
    }

    let mut requeued = 0;
    let mut fetch_mbps = |sources: usize| -> Result<f64, String> {
        let fabric = Fabric::new();
        let mut servers = Vec::new();
        let mut locators = Vec::new();
        for i in 0..sources {
            let store = MemStore::new();
            store.put(&object, &content);
            let name = format!("probe{i}.ftp");
            servers.push(FtpServer::start(&fabric, &name, store));
            locators.push(Locator::new(&data, ProtocolId::ftp(), name));
        }
        let mut samples = Vec::new();
        for _ in 0..REPS {
            let dest = ChunkStore::new(MemStore::new());
            let mut fetch = MultiSourceFetcher::new(
                fabric.clone(),
                &data,
                manifest.clone(),
                locators.clone(),
                Arc::clone(&dest),
            );
            let start = Instant::now();
            let status = fetch
                .connect()
                .and_then(|()| fetch.receive())
                .and_then(|()| fetch.wait(Duration::from_micros(200)))
                .map_err(|e| format!("multi-source fetch: {e}"))?;
            samples.push(start.elapsed().as_secs_f64());
            requeued += fetch.stats().requeued;
            fetch.disconnect().map_err(|e| format!("disconnect: {e}"))?;
            let got = dest
                .get_range(&object, 0, BLOB)
                .map_err(|e| format!("get_range: {e}"))?;
            if status.outcome != Some(TransferVerdict::Complete) || got[..] != content[..] {
                return Err("probe fetch delivered wrong bytes".into());
            }
        }
        drop(servers);
        Ok(mb / median(&samples))
    };
    let one = fetch_mbps(1)?;
    let two = fetch_mbps(2)?;
    Ok(vec![
        ("core.chunks.describe_MBps", mb / describe_s),
        ("core.chunks.put_range_MBps", mb / put_s),
        ("core.chunks.fetch_MBps_1src", one),
        ("core.chunks.fetch_MBps_2src", two),
        ("core.chunks.requeued", requeued as f64),
    ])
}

/// One frame there and back over a fabric connection.
fn fabric_rtt_us() -> Result<f64, String> {
    const PINGS: usize = 5_000;
    let fabric = Fabric::new();
    let listener = fabric.listen("probe.echo");
    let echo = std::thread::spawn(move || {
        if let Ok(conn) = listener.accept() {
            while let Ok(frame) = conn.recv() {
                if conn.send(frame).is_err() {
                    break;
                }
            }
        }
    });
    let conn = fabric
        .connect("probe.echo")
        .map_err(|e| format!("connect: {e}"))?;
    let ping = SplitMix::new(0, 0).bytes(64);
    let mut failed = false;
    let rtt = reps(|| {
        secs(|| {
            for _ in 0..PINGS {
                failed |= conn.send(ping.clone().into()).is_err() || conn.recv().is_err();
            }
        })
    });
    drop(conn);
    echo.join().map_err(|_| "echo thread panicked")?;
    if failed {
        return Err("fabric echo failed".into());
    }
    Ok(rtt / PINGS as f64 * 1e6)
}

/// Range and whole-object throughput of the FTP and HTTP servers on one
/// `bulk_distribute` blob, and the fabric round trip under them.
fn transport(seed: u64) -> Result<Readings, String> {
    const BLOB: usize = 8 << 20;
    const RANGE: u32 = 1 << 20;
    let content = SplitMix::new(seed, 3).bytes(BLOB);
    let fabric = Fabric::new();
    let store = MemStore::new();
    store.put("probe.obj", &content);
    let ftp = FtpServer::start(&fabric, "probe.ftp", store.clone());
    let http = HttpServer::start(&fabric, "probe.http", store);
    let mb = BLOB as f64 / MB;
    let offsets = || (0..BLOB as u64).step_by(RANGE as usize);
    let t = |e: bitdew_transport::TransportError| format!("transport probe: {e}");

    let client = FtpRangeClient::connect(&fabric, "probe.ftp").map_err(t)?;
    let mut bytes = 0;
    let mut failed = None;
    let ftp_range_s = reps(|| {
        secs(|| {
            for offset in offsets() {
                match client
                    .request("probe.obj", offset, RANGE)
                    .and_then(|()| client.read_reply())
                {
                    Ok(reply) => bytes += reply.len(),
                    Err(e) => failed = Some(t(e)),
                }
            }
        })
    });
    let http_range_s = reps(|| {
        secs(|| {
            for offset in offsets() {
                match fetch_range(&fabric, "probe.http", "probe.obj", offset, RANGE) {
                    Ok(reply) => bytes += reply.len(),
                    Err(e) => failed = Some(t(e)),
                }
            }
        })
    });
    if let Some(e) = failed {
        return Err(e);
    }
    if bytes != 2 * REPS * BLOB {
        return Err(format!("range probes moved {bytes} bytes"));
    }

    let mut retr = Vec::new();
    for _ in 0..REPS {
        let spec = TransferSpec {
            name: "probe.obj".into(),
            bytes: BLOB as u64,
            checksum: None,
            remote: "probe.ftp".into(),
        };
        let local = MemStore::new();
        let mut xfer = FtpTransfer::new(fabric.clone(), spec, local, Direction::Download);
        let start = Instant::now();
        let status = xfer
            .connect()
            .and_then(|()| xfer.receive())
            .and_then(|()| xfer.wait(Duration::from_micros(200)))
            .map_err(t)?;
        retr.push(start.elapsed().as_secs_f64());
        xfer.disconnect().map_err(t)?;
        if status.outcome != Some(TransferVerdict::Complete) {
            return Err("probe RETR did not complete".into());
        }
    }
    drop((client, ftp, http));
    Ok(vec![
        ("transport.fabric.rtt_us", fabric_rtt_us()?),
        ("transport.ftp.range_MBps", mb / ftp_range_s),
        ("transport.http.range_MBps", mb / http_range_s),
        ("transport.ftp.retr_MBps", mb / median(&retr)),
    ])
}

/// Resolving the head of a version chain `rows` commits long, one changed
/// chunk a row — what every `commit_update` and `open_snapshot` pays.
fn resolve_us(seed: u64, rows: usize) -> f64 {
    const CHUNKS: u32 = 64;
    const CHUNK: u64 = 256 << 10;
    let id = ids(1, seed)[0];
    let descriptor = |index: u32, crc32: u32| ChunkDescriptor {
        index,
        len: CHUNK as u32,
        crc32,
    };
    let base = ChunkManifest {
        data: id,
        chunk_size: CHUNK,
        total: CHUNKS as u64 * CHUNK,
        chunks: (0..CHUNKS).map(|i| descriptor(i, i)).collect(),
    };
    let mut rng = SplitMix::new(seed, 4);
    let chain: Vec<VersionedManifest> = (0..rows as u64)
        .map(|v| VersionedManifest {
            data: id,
            version: v + 2,
            parent: v + 1,
            chunk_size: CHUNK,
            total: base.total,
            changed: vec![descriptor(rng.below(CHUNKS as u64) as u32, v as u32)],
        })
        .collect();
    let head = rows as u64 + 1;
    const CALLS: usize = 50;
    reps(|| {
        secs(|| {
            for _ in 0..CALLS {
                black_box(ResolvedVersion::resolve(&base, black_box(&chain), head));
            }
        })
    }) / CALLS as f64
        * 1e6
}

/// The announce datagram codec, and a host-cache sweep that expires 1 000
/// of 100 000 claims.
fn announce(seed: u64) -> Readings {
    const MSGS: usize = 100_000;
    const CLAIMS: usize = 100_000;
    const EXPIRING: usize = 1_000;
    let uids = ids(CLAIMS + 1, seed);
    let msg = AnnounceMsg::Announce {
        conn_id: 7,
        host: uids[0],
        data: uids[1],
        version: 1,
        ttl_nanos: 32_000_000_000,
        flags: FLAG_COMPLETE,
        bitmap: Vec::new(),
    };
    let codec_s = reps(|| {
        secs(|| {
            for _ in 0..MSGS {
                let wire = black_box(&msg).to_bytes();
                black_box(AnnounceMsg::from_bytes(&wire).expect("own encoding"));
            }
        })
    });
    let sweep_s = reps(|| {
        let mut cache = HostCache::new();
        for (i, &host) in uids[1..].iter().enumerate() {
            // The first `EXPIRING` claims lapse at t = 1, the rest later.
            let expires = if i < EXPIRING { 1 } else { 1_000 + i as u64 };
            cache.insert(host, uids[0], expires, FLAG_COMPLETE, 0);
        }
        secs(|| drop(black_box(cache.sweep(2))))
    });
    vec![
        ("core.announce.codec_ns", codec_s / MSGS as f64 * 1e9),
        ("core.announce.hostcache_sweep_us", sweep_s * 1e6),
    ]
}

/// The event kernel on empty events, and what one flow arrival costs the
/// `FlowNet` allocator at three shapes (flows × shared links).
fn simulator() -> Readings {
    const EVENTS: u64 = 1_000_000;
    let empty_s = reps(|| {
        let mut sim = Sim::new(1);
        for i in 0..EVENTS {
            sim.schedule_at(SimTime::from_secs_f64(i as f64 * 1e-6), |_| {});
        }
        secs(|| {
            black_box(sim.run());
        })
    });
    let isp = || LinkTopology::volunteer_wan(Link::new(GBE), Link::new(GBE));
    vec![
        ("sim.engine.empty_event_ns", empty_s / EVENTS as f64 * 1e9),
        ("sim.net.settle_us_at_100x1", settle_us(isp(), 100, None)),
        ("sim.net.settle_us_at_10kx1", settle_us(isp(), 10_000, None)),
        (
            "sim.net.settle_us_at_400x16",
            settle_us(LinkTopology::datacenter(16, Link::new(GBE)), 400, Some(16)),
        ),
    ]
}

/// Microseconds for `FlowNet` to settle after one more flow joins `flows`
/// long-lived ones. With `racks`, flow f runs from rack f to rack f + 1 and
/// shares their aggregation links; without, every host is in the default
/// zone and every flow crosses its one shared pipe.
fn settle_us(topo: LinkTopology, flows: u32, racks: Option<u32>) -> f64 {
    let net = FlowNet::with_topology(topo);
    let mut sim = Sim::new(1);
    for f in 0..=flows {
        for (host, rack) in [(2 * f, f), (2 * f + 1, f + 1)] {
            match racks {
                Some(n) => net.add_host_in_zone(HostId(host), GBE, GBE, rack % n),
                None => net.add_host(HostId(host), GBE, GBE),
            }
        }
    }
    let start = |sim: &mut Sim, f: u32| {
        net.start_flow(
            sim,
            HostId(2 * f),
            HostId(2 * f + 1),
            1.0e15,
            SimDuration::ZERO,
            Box::new(|_, _| {}),
        )
    };
    for f in 0..flows {
        start(&mut sim, f);
    }
    let mut clock = SimTime::from_secs(1);
    sim.run_until(clock);
    let tick = SimDuration::from_millis(1);
    reps(|| {
        clock += tick;
        let mut extra = None;
        let arrival = secs(|| {
            extra = Some(start(&mut sim, flows));
            sim.run_until(clock);
        });
        // The departure settles too, untimed: every repetition starts alike.
        net.cancel_flow(&mut sim, extra.expect("started above"));
        clock += tick;
        sim.run_until(clock);
        arrival
    }) * 1e6
}
