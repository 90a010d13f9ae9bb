//! The Data Catalog (DC) service.
//!
//! "The data's meta-information are stored both locally on the
//! client/reservoir node and persistently on the Data Catalog service node"
//! (§3.4.1). The DC indexes [`Data`] objects and their [`Locator`]s in a
//! database engine (DewDB here; MySQL/HsqlDB in the original) and answers
//! `searchData` by name. Replica locations on *volatile* hosts are not the
//! DC's business — they live in the Distributed Data Catalog
//! ([`bitdew_dht::DistributedCatalog`]) so the centralized path stays short.
//!
//! Database access goes through either a connection pool (DBCP analog) or a
//! fresh connection per operation — exactly the axis Table 2 measures.

use std::sync::Arc;

use bitdew_storage::codec::{Decode, Encode};
use bitdew_storage::{ConnectionPool, DbDriver, DbOp, DbReply, DbResult};
use bitdew_transport::ProtocolId;

use crate::api::Result;
use crate::chunks::ChunkManifest;
use crate::data::{Data, DataId, Locator};
use crate::versions::VersionedManifest;

const T_DATA: &str = "dc_data";
const T_LOCATOR: &str = "dc_locator";
const T_NAME: &str = "dc_name";
const T_MANIFEST: &str = "dc_manifest";
const T_VERSION: &str = "dc_version";

/// Key of a `dc_version` row: the datum id (little-endian, the scan
/// prefix) followed by the version id big-endian so `ScanPrefix` returns
/// the chain in ascending version order.
pub(crate) fn version_key(id: DataId, version: u64) -> Vec<u8> {
    let mut key = id.0.to_le_bytes().to_vec();
    key.extend_from_slice(&version.to_be_bytes());
    key
}

/// Key of a `dc_name` row: `<name>\0<id>`, so same-named data coexist.
fn name_key(name: &str, id: DataId) -> Vec<u8> {
    let id = id.0.to_le_bytes();
    let mut key = Vec::with_capacity(name.len() + 1 + id.len());
    key.extend_from_slice(name.as_bytes());
    key.push(0);
    key.extend_from_slice(&id);
    key
}

/// Key of a `dc_locator` row: data id + protocol name, so one locator per
/// (data, protocol).
fn locator_key(id: DataId, protocol: &ProtocolId) -> Vec<u8> {
    let id = id.0.to_le_bytes();
    let mut key = Vec::with_capacity(id.len() + protocol.0.len());
    key.extend_from_slice(&id);
    key.extend_from_slice(protocol.0.as_bytes());
    key
}

/// A datum's two rows: `dc_data` (id → datum) and the `dc_name` index
/// (name key → id).
fn register_ops(data: &Data) -> [DbOp; 2] {
    let id = data.id.0.to_le_bytes().to_vec();
    [
        DbOp::Put {
            table: T_DATA,
            key: id.clone(),
            value: data.encode_to_vec(),
        },
        DbOp::Put {
            table: T_NAME,
            key: name_key(&data.name, data.id),
            value: id,
        },
    ]
}

/// How the DC reaches its database (Table 2's pooling axis).
pub enum DbAccess {
    /// Reuse pooled connections (with DBCP).
    Pooled(Arc<ConnectionPool>),
    /// Open a fresh connection per operation (without DBCP).
    PerOperation(Arc<dyn DbDriver>),
}

impl DbAccess {
    fn exec(&self, op: DbOp) -> DbResult<DbReply> {
        match self {
            DbAccess::Pooled(pool) => pool.checkout()?.exec(op),
            DbAccess::PerOperation(driver) => driver.connect()?.exec(op),
        }
    }

    /// Run a batch of operations as one unit over a single checked-out
    /// connection — the amortization behind the batched API entry points
    /// (`put_many`, `schedule_many`, `register_many`): one pool checkout
    /// (or one fresh connection) and one engine batch round (a single
    /// store lock on the embedded engine, a single wire round trip on the
    /// networked one) instead of one per operation.
    fn exec_many(&self, ops: Vec<DbOp>) -> DbResult<()> {
        match self {
            DbAccess::Pooled(pool) => {
                pool.checkout()?.exec_batch(ops)?;
            }
            DbAccess::PerOperation(driver) => {
                driver.connect()?.exec_batch(ops)?;
            }
        }
        Ok(())
    }
}

/// The Data Catalog service.
pub struct DataCatalog {
    db: DbAccess,
    registered: std::sync::atomic::AtomicU64,
}

impl DataCatalog {
    /// DC over the given database access path.
    pub fn new(db: DbAccess) -> DataCatalog {
        DataCatalog {
            db,
            registered: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Register (or overwrite) a datum. This is the "data slot creation"
    /// operation Table 2 benchmarks.
    pub fn register(&self, data: &Data) -> Result<()> {
        let [row, name] = register_ops(data);
        self.db.exec(row)?;
        self.db.exec(name)?;
        self.registered
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Ok(())
    }

    /// Batched [`DataCatalog::register`]: the whole batch (data rows plus
    /// name-index rows) goes through one database round-trip.
    pub fn register_many<'a>(&self, data: impl IntoIterator<Item = &'a Data>) -> Result<()> {
        let mut n = 0;
        let ops: Vec<DbOp> = data
            .into_iter()
            .flat_map(|d| {
                n += 1;
                register_ops(d)
            })
            .collect();
        if ops.is_empty() {
            return Ok(());
        }
        self.db.exec_many(ops)?;
        self.registered
            .fetch_add(n, std::sync::atomic::Ordering::Relaxed);
        Ok(())
    }

    /// Fetch a datum by id.
    pub fn get(&self, id: DataId) -> Result<Option<Data>> {
        match self.db.exec(DbOp::Get {
            table: T_DATA,
            key: id.0.to_le_bytes().to_vec(),
        })? {
            DbReply::Value(Some(bytes)) => Ok(<Data as Decode>::from_bytes(&bytes).ok()),
            _ => Ok(None),
        }
    }

    /// All data whose name equals `name` (the `searchData` API, §3.3).
    pub fn search(&self, name: &str) -> Result<Vec<Data>> {
        let mut prefix = name.as_bytes().to_vec();
        prefix.push(0);
        let rows = match self.db.exec(DbOp::ScanPrefix {
            table: T_NAME,
            prefix,
        })? {
            DbReply::Rows(rows) => rows,
            _ => Vec::new(),
        };
        let mut out = Vec::new();
        for (_, idbytes) in rows {
            if let Ok(arr) = <[u8; 16]>::try_from(idbytes.as_slice()) {
                let id = bitdew_util::Auid(u128::from_le_bytes(arr));
                if let Some(d) = self.get(id)? {
                    out.push(d);
                }
            }
        }
        Ok(out)
    }

    /// Attach a locator to a datum.
    pub fn add_locator(&self, loc: &Locator) -> Result<()> {
        self.add_locators([loc])
    }

    /// Attach a batch of locators over one database connection.
    pub fn add_locators<'a>(&self, locs: impl IntoIterator<Item = &'a Locator>) -> Result<()> {
        let ops: Vec<DbOp> = locs
            .into_iter()
            .map(|loc| DbOp::Put {
                table: T_LOCATOR,
                key: locator_key(loc.data, &loc.protocol),
                value: loc.encode_to_vec(),
            })
            .collect();
        if ops.is_empty() {
            return Ok(());
        }
        self.db.exec_many(ops)?;
        Ok(())
    }

    /// All locators for a datum.
    pub fn locators(&self, id: DataId) -> Result<Vec<Locator>> {
        let rows = match self.db.exec(DbOp::ScanPrefix {
            table: T_LOCATOR,
            prefix: id.0.to_le_bytes().to_vec(),
        })? {
            DbReply::Rows(rows) => rows,
            _ => Vec::new(),
        };
        Ok(rows
            .into_iter()
            .filter_map(|(_, v)| Locator::from_bytes(&v).ok())
            .collect())
    }

    /// Publish (or overwrite) a datum's chunk manifest — the chunked data
    /// plane's metadata, persisted next to the locators so any host can
    /// plan a multi-source range fetch.
    pub fn put_manifest(&self, manifest: &ChunkManifest) -> Result<()> {
        self.db.exec(DbOp::Put {
            table: T_MANIFEST,
            key: manifest.data.0.to_le_bytes().to_vec(),
            value: manifest.encode_to_vec(),
        })?;
        Ok(())
    }

    /// The published chunk manifest of a datum, if any. A row that does
    /// not decode is an error, not "never chunked".
    pub fn manifest(&self, id: DataId) -> Result<Option<ChunkManifest>> {
        match self.db.exec(DbOp::Get {
            table: T_MANIFEST,
            key: id.0.to_le_bytes().to_vec(),
        })? {
            DbReply::Value(Some(bytes)) => Ok(Some(ChunkManifest::from_bytes(&bytes)?)),
            _ => Ok(None),
        }
    }

    /// Persist one version row of a datum's chunk tree (versions ≥ 2; the
    /// base version 1 *is* the `dc_manifest` row). Rows are immutable —
    /// a version id is written once by the head CAS and never rewritten.
    pub fn put_version(&self, row: &VersionedManifest) -> Result<()> {
        self.db.exec(DbOp::Put {
            table: T_VERSION,
            key: version_key(row.data, row.version),
            value: row.encode_to_vec(),
        })?;
        Ok(())
    }

    /// One version row of a datum, if persisted. Version 1 reads from the
    /// base manifest (decoded through the legacy-compat path), later
    /// versions from `dc_version`.
    pub fn version(&self, id: DataId, version: u64) -> Result<Option<VersionedManifest>> {
        if version == 1 {
            return Ok(self.manifest(id)?.map(|m| VersionedManifest::from_base(&m)));
        }
        match self.db.exec(DbOp::Get {
            table: T_VERSION,
            key: version_key(id, version),
        })? {
            DbReply::Value(Some(bytes)) => Ok(Some(VersionedManifest::from_bytes(&bytes)?)),
            _ => Ok(None),
        }
    }

    /// Every persisted delta row of a datum's chain (versions ≥ 2),
    /// ascending by version. One row that does not decode fails the whole
    /// read: a chain with a hole would resolve to wrong digests.
    pub fn versions(&self, id: DataId) -> Result<Vec<VersionedManifest>> {
        let rows = match self.db.exec(DbOp::ScanPrefix {
            table: T_VERSION,
            prefix: id.0.to_le_bytes().to_vec(),
        })? {
            DbReply::Rows(rows) => rows,
            _ => Vec::new(),
        };
        let mut out = rows
            .into_iter()
            .map(|(_, v)| VersionedManifest::from_bytes(&v))
            .collect::<std::result::Result<Vec<_>, _>>()?;
        out.sort_by_key(|r| r.version);
        Ok(out)
    }

    /// Remove a datum and its locators ("data deletion implies both local
    /// and remote deletion", §3.3).
    pub fn delete(&self, id: DataId) -> Result<bool> {
        let existing = self.get(id)?;
        let Some(data) = existing else {
            return Ok(false);
        };
        self.db.exec(DbOp::Delete {
            table: T_DATA,
            key: id.0.to_le_bytes().to_vec(),
        })?;
        self.db.exec(DbOp::Delete {
            table: T_NAME,
            key: name_key(&data.name, id),
        })?;
        for l in self.locators(id)? {
            self.db.exec(DbOp::Delete {
                table: T_LOCATOR,
                key: locator_key(id, &l.protocol),
            })?;
        }
        self.db.exec(DbOp::Delete {
            table: T_MANIFEST,
            key: id.0.to_le_bytes().to_vec(),
        })?;
        for row in self.versions(id)? {
            self.db.exec(DbOp::Delete {
                table: T_VERSION,
                key: version_key(id, row.version),
            })?;
        }
        Ok(true)
    }

    /// Number of successful registrations through this handle.
    pub fn registrations(&self) -> u64 {
        self.registered.load(std::sync::atomic::Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitdew_storage::{DewDb, EmbeddedDriver};
    use bitdew_transport::ProtocolId;
    use bitdew_util::Auid;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn dc_pooled() -> DataCatalog {
        let driver = Arc::new(EmbeddedDriver::new(DewDb::in_memory()));
        DataCatalog::new(DbAccess::Pooled(ConnectionPool::new(driver, 4)))
    }

    fn dc_unpooled() -> DataCatalog {
        let driver: Arc<dyn DbDriver> = Arc::new(EmbeddedDriver::new(DewDb::in_memory()));
        DataCatalog::new(DbAccess::PerOperation(driver))
    }

    fn datum(rng: &mut SmallRng, name: &str) -> Data {
        Data::from_bytes(Auid::generate(0, rng), name, name.as_bytes())
    }

    fn exercise(dc: &DataCatalog) {
        let mut rng = SmallRng::seed_from_u64(5);
        let d1 = datum(&mut rng, "genome");
        let d2 = datum(&mut rng, "genome"); // same name, distinct id
        let d3 = datum(&mut rng, "sequence");
        dc.register(&d1).unwrap();
        dc.register(&d2).unwrap();
        dc.register(&d3).unwrap();
        assert_eq!(dc.registrations(), 3);

        assert_eq!(dc.get(d1.id).unwrap(), Some(d1.clone()));
        assert_eq!(dc.get(Auid(777)).unwrap(), None);

        let hits = dc.search("genome").unwrap();
        assert_eq!(hits.len(), 2);
        assert!(dc.search("nope").unwrap().is_empty());
        // Prefix of a name must not match (search is exact-name).
        assert!(dc.search("gen").unwrap().is_empty());

        let l1 = Locator::new(&d1, ProtocolId::ftp(), "dr-1");
        let l2 = Locator::new(&d1, ProtocolId::bittorrent(), "tracker-1");
        dc.add_locator(&l1).unwrap();
        dc.add_locator(&l2).unwrap();
        let locs = dc.locators(d1.id).unwrap();
        assert_eq!(locs.len(), 2);

        assert!(dc.delete(d1.id).unwrap());
        assert!(!dc.delete(d1.id).unwrap());
        assert_eq!(dc.get(d1.id).unwrap(), None);
        assert!(dc.locators(d1.id).unwrap().is_empty());
        assert_eq!(dc.search("genome").unwrap().len(), 1);
    }

    #[test]
    fn pooled_catalog_contract() {
        exercise(&dc_pooled());
    }

    #[test]
    fn per_operation_catalog_contract() {
        exercise(&dc_unpooled());
    }

    #[test]
    fn manifest_publication_roundtrip() {
        let dc = dc_pooled();
        let mut rng = SmallRng::seed_from_u64(11);
        let d = datum(&mut rng, "chunked");
        dc.register(&d).unwrap();
        assert_eq!(dc.manifest(d.id).unwrap(), None);
        let m = crate::chunks::ChunkManifest::describe(d.id, 64, &vec![7u8; 500]);
        dc.put_manifest(&m).unwrap();
        assert_eq!(dc.manifest(d.id).unwrap(), Some(m));
        // Deleting the datum drops its manifest too.
        dc.delete(d.id).unwrap();
        assert_eq!(dc.manifest(d.id).unwrap(), None);
    }

    #[test]
    fn version_chain_persists_in_order_and_dies_with_the_datum() {
        let dc = dc_pooled();
        let mut rng = SmallRng::seed_from_u64(13);
        let d = datum(&mut rng, "versioned");
        dc.register(&d).unwrap();
        let m = crate::chunks::ChunkManifest::describe(d.id, 64, &vec![3u8; 400]);
        dc.put_manifest(&m).unwrap();
        // Version 1 is the base manifest, read through the compat path.
        let v1 = dc.version(d.id, 1).unwrap().expect("base as version 1");
        assert_eq!(v1.version, 1);
        assert_eq!(v1.changed, m.chunks);
        assert!(dc.versions(d.id).unwrap().is_empty(), "no deltas yet");
        // Persist deltas out of order; the scan returns them ascending.
        for v in [3u64, 2, 4] {
            dc.put_version(&VersionedManifest {
                data: d.id,
                version: v,
                parent: v - 1,
                chunk_size: m.chunk_size,
                total: m.total,
                changed: vec![m.chunks[(v % m.chunk_count() as u64) as usize]],
            })
            .unwrap();
        }
        let chain = dc.versions(d.id).unwrap();
        assert_eq!(
            chain.iter().map(|r| r.version).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        assert_eq!(dc.version(d.id, 3).unwrap().unwrap().parent, 2);
        assert_eq!(dc.version(d.id, 9).unwrap(), None);
        dc.delete(d.id).unwrap();
        assert!(dc.versions(d.id).unwrap().is_empty());
        assert_eq!(dc.version(d.id, 1).unwrap(), None);
    }

    #[test]
    fn concurrent_registrations() {
        let driver = Arc::new(EmbeddedDriver::new(DewDb::in_memory()));
        let dc = Arc::new(DataCatalog::new(DbAccess::Pooled(ConnectionPool::new(
            driver, 4,
        ))));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let dc = Arc::clone(&dc);
            handles.push(std::thread::spawn(move || {
                let mut rng = SmallRng::seed_from_u64(t);
                for i in 0..50 {
                    let d =
                        Data::from_bytes(Auid::generate(i, &mut rng), format!("d{t}-{i}"), b"x");
                    dc.register(&d).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(dc.registrations(), 200);
    }
}
