//! DewDB — the embedded object store.
//!
//! This is the workspace's stand-in for the relational back-ends the paper
//! plugs underneath its services ("Meta-data information are serialized
//! using a traditional SQL database", §3.1; MySQL and HsqlDB in §3.5). The
//! services only ever use key→record access per table plus prefix scans, so
//! DewDB is a multi-table ordered KV store:
//!
//! * in-memory `BTreeMap` per table (ordered, so prefix scans are ranges);
//! * optional durability: a [WAL](crate::wal) replayed on open plus a
//!   snapshot-and-truncate checkpoint;
//! * the torn-tail recovery semantics come from the WAL layer.
//!
//! A write finds its table by `&str` (allocating a name only for a new
//! table), searches the row map once (`entry`), frames its WAL record from
//! borrowed bytes, and moves the owned key and value into the map. A write
//! that changes nothing — a put of the bytes the row already holds, a
//! delete of an absent row — is a no-op: no record, no mutation, the same
//! reply. [`DewDb::mutations`] counts real changes. Public
//! [`DewDb::put`]/[`DewDb::delete`] commit the WAL per call; the engines
//! stage a whole batch and commit it once (group commit).

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use crate::codec::CodecError;
use crate::crc32::crc32;
use crate::wal::{self, LogRecord, SyncPolicy, WalWriter};

/// Database error.
#[derive(Debug)]
pub enum DbError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Snapshot file failed validation.
    CorruptSnapshot(&'static str),
    /// A stored record failed to decode.
    Codec(CodecError),
}

impl From<std::io::Error> for DbError {
    fn from(e: std::io::Error) -> Self {
        DbError::Io(e)
    }
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbError::Io(e) => write!(f, "i/o error: {e}"),
            DbError::CorruptSnapshot(w) => write!(f, "corrupt snapshot: {w}"),
            DbError::Codec(e) => write!(f, "undecodable record: {e}"),
        }
    }
}

impl std::error::Error for DbError {}

impl From<CodecError> for DbError {
    fn from(e: CodecError) -> Self {
        DbError::Codec(e)
    }
}

/// Convenience alias.
pub type DbResult<T> = Result<T, DbError>;

const SNAPSHOT_MAGIC: &[u8; 8] = b"DEWDB\0v1";

struct Durability {
    dir: PathBuf,
    wal: WalWriter,
    policy: SyncPolicy,
    ops_since_checkpoint: u64,
    /// Checkpoint automatically after this many mutations (0 = manual only).
    auto_checkpoint: u64,
}

/// The in-memory table map a snapshot (de)serializes.
type Tables = BTreeMap<String, BTreeMap<Vec<u8>, Vec<u8>>>;

/// The embedded store.
pub struct DewDb {
    tables: Tables,
    durability: Option<Durability>,
    mutations: u64,
}

impl DewDb {
    /// Pure in-memory database (no files). Used by the simulator benches
    /// where virtual time makes real disk cost meaningless.
    pub fn in_memory() -> DewDb {
        DewDb {
            tables: BTreeMap::new(),
            durability: None,
            mutations: 0,
        }
    }

    /// Open (or create) a durable database in `dir`, replaying snapshot+WAL.
    pub fn open(dir: impl AsRef<Path>, policy: SyncPolicy) -> DbResult<DewDb> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let mut tables = Self::load_snapshot(&dir.join("snapshot.db"))?;
        let replayed = wal::replay(dir.join("wal.log"))?;
        for rec in replayed.records {
            match rec {
                LogRecord::Put { table, key, value } => {
                    tables.entry(table).or_default().insert(key, value);
                }
                LogRecord::Delete { table, key } => {
                    if let Some(t) = tables.get_mut(&table) {
                        t.remove(&key);
                    }
                }
            }
        }
        let wal = WalWriter::open(dir.join("wal.log"), policy)?;
        Ok(DewDb {
            tables,
            durability: Some(Durability {
                dir,
                wal,
                policy,
                ops_since_checkpoint: 0,
                auto_checkpoint: 0,
            }),
            mutations: 0,
        })
    }

    /// Enable automatic checkpointing after every `n` mutations (0 disables).
    pub fn set_auto_checkpoint(&mut self, n: u64) {
        if let Some(d) = &mut self.durability {
            d.auto_checkpoint = n;
        }
    }

    /// Insert or overwrite. Returns the previous value if any. A value
    /// the WAL refuses (over [`crate::wal::MAX_RECORD_BYTES`]) is an error
    /// and leaves the database unchanged.
    pub fn put(&mut self, table: &str, key: &[u8], value: &[u8]) -> DbResult<Option<Vec<u8>>> {
        let prev = self.put_staged(table, key.to_vec(), value.to_vec());
        self.committed(prev)
    }

    /// Fetch a value.
    pub fn get(&self, table: &str, key: &[u8]) -> Option<&[u8]> {
        self.tables.get(table)?.get(key).map(|v| v.as_slice())
    }

    /// Remove a key. Returns the removed value if any.
    pub fn delete(&mut self, table: &str, key: &[u8]) -> DbResult<Option<Vec<u8>>> {
        let prev = self.delete_staged(table, key.to_vec());
        self.committed(prev)
    }

    /// [`DewDb::put`] with owned bytes and the WAL record staged, not
    /// committed: the caller commits once per batch ([`DewDb::committed`]).
    pub(crate) fn put_staged(
        &mut self,
        table: &str,
        key: Vec<u8>,
        value: Vec<u8>,
    ) -> DbResult<Option<Vec<u8>>> {
        let mut wal = self.durability.as_mut().map(|d| &mut d.wal);
        let mut log = |key: &[u8], value: &[u8]| match &mut wal {
            Some(wal) => wal.stage(table, key, Some(value)),
            None => Ok(()),
        };
        let prev = match self.tables.get_mut(table) {
            Some(rows) => match rows.entry(key) {
                Entry::Occupied(row) if *row.get() == value => return Ok(Some(value)),
                Entry::Occupied(mut row) => {
                    log(row.key(), &value)?;
                    Some(std::mem::replace(row.get_mut(), value))
                }
                Entry::Vacant(row) => {
                    log(row.key(), &value)?;
                    row.insert(value);
                    None
                }
            },
            None => {
                log(&key, &value)?;
                self.tables
                    .insert(table.to_owned(), BTreeMap::from([(key, value)]));
                None
            }
        };
        self.after_mutation()?;
        Ok(prev)
    }

    /// [`DewDb::delete`] with the WAL record staged, not committed.
    pub(crate) fn delete_staged(&mut self, table: &str, key: Vec<u8>) -> DbResult<Option<Vec<u8>>> {
        let Some(Entry::Occupied(row)) = self.tables.get_mut(table).map(|rows| rows.entry(key))
        else {
            return Ok(None);
        };
        if let Some(d) = &mut self.durability {
            d.wal.stage(table, row.key(), None)?;
        }
        let prev = row.remove();
        self.after_mutation()?;
        Ok(Some(prev))
    }

    /// Apply the [`SyncPolicy`] once to every WAL record staged since the
    /// last commit (free when nothing was staged), then return `result` —
    /// or the commit's error. Commits on the error path too, so the records
    /// staged before a failure reach the log with the same guarantee as a
    /// success.
    pub(crate) fn committed<T>(&mut self, result: DbResult<T>) -> DbResult<T> {
        let commit = match &mut self.durability {
            Some(d) => d.wal.commit(),
            None => Ok(()),
        };
        let value = result?;
        commit?;
        Ok(value)
    }

    /// All `(key, value)` pairs in `table` whose key starts with `prefix`.
    pub fn scan_prefix(&self, table: &str, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        match self.tables.get(table) {
            None => Vec::new(),
            Some(t) => t
                .range(prefix.to_vec()..)
                .take_while(|(k, _)| k.starts_with(prefix))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        }
    }

    /// Number of rows in `table`.
    pub fn table_len(&self, table: &str) -> usize {
        self.tables.get(table).map(|t| t.len()).unwrap_or(0)
    }

    /// Names of all tables that currently hold rows.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.keys().cloned().collect()
    }

    /// Real changes made through this handle; a write that changes
    /// nothing is not counted.
    pub fn mutations(&self) -> u64 {
        self.mutations
    }

    fn after_mutation(&mut self) -> DbResult<()> {
        self.mutations += 1;
        let should_checkpoint = match &mut self.durability {
            Some(d) if d.auto_checkpoint > 0 => {
                d.ops_since_checkpoint += 1;
                d.ops_since_checkpoint >= d.auto_checkpoint
            }
            _ => false,
        };
        if should_checkpoint {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Write a full snapshot and truncate the WAL. No-op for in-memory DBs.
    pub fn checkpoint(&mut self) -> DbResult<()> {
        let Some(d) = &mut self.durability else {
            return Ok(());
        };
        let tmp = d.dir.join("snapshot.tmp");
        let dst = d.dir.join("snapshot.db");
        {
            let mut w = BufWriter::new(File::create(&tmp)?);
            w.write_all(SNAPSHOT_MAGIC)?;
            let mut body = Vec::new();
            body.extend_from_slice(&(self.tables.len() as u32).to_le_bytes());
            for (name, rows) in &self.tables {
                body.extend_from_slice(&(name.len() as u32).to_le_bytes());
                body.extend_from_slice(name.as_bytes());
                body.extend_from_slice(&(rows.len() as u64).to_le_bytes());
                for (k, v) in rows {
                    body.extend_from_slice(&(k.len() as u32).to_le_bytes());
                    body.extend_from_slice(k);
                    body.extend_from_slice(&(v.len() as u32).to_le_bytes());
                    body.extend_from_slice(v);
                }
            }
            w.write_all(&crc32(&body).to_le_bytes())?;
            w.write_all(&(body.len() as u64).to_le_bytes())?;
            w.write_all(&body)?;
            w.flush()?;
            if d.policy == SyncPolicy::Fsync {
                w.get_ref().sync_data()?;
            }
        }
        std::fs::rename(&tmp, &dst)?;
        if d.policy == SyncPolicy::Fsync {
            // The rename is a directory entry: durable only once the
            // directory itself is synced.
            File::open(&d.dir)?.sync_all()?;
        }
        d.wal.truncate()?;
        d.ops_since_checkpoint = 0;
        Ok(())
    }

    fn load_snapshot(path: &Path) -> DbResult<Tables> {
        let file = match File::open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(BTreeMap::new());
            }
            Err(e) => return Err(e.into()),
        };
        let mut r = BufReader::new(file);
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != SNAPSHOT_MAGIC {
            return Err(DbError::CorruptSnapshot("magic"));
        }
        let mut head = [0u8; 12];
        r.read_exact(&mut head)?;
        let crc = u32::from_le_bytes(head[0..4].try_into().expect("4"));
        let len = u64::from_le_bytes(head[4..12].try_into().expect("8"));
        // Bound the header's length by the bytes the file holds before
        // allocating for it.
        let header = (SNAPSHOT_MAGIC.len() + head.len()) as u64;
        let remaining = r.get_ref().metadata()?.len().saturating_sub(header);
        let len = usize::try_from(len)
            .ok()
            .filter(|_| len <= remaining)
            .ok_or(DbError::CorruptSnapshot("length"))?;
        let mut body = vec![0u8; len];
        r.read_exact(&mut body)?;
        if crc32(&body) != crc {
            return Err(DbError::CorruptSnapshot("crc"));
        }
        // Parse the body.
        let mut off = 0usize;
        let take = |off: &mut usize, n: usize| -> Result<&[u8], DbError> {
            if *off + n > body.len() {
                return Err(DbError::CorruptSnapshot("length"));
            }
            let s = &body[*off..*off + n];
            *off += n;
            Ok(s)
        };
        let ntables = u32::from_le_bytes(take(&mut off, 4)?.try_into().expect("4")) as usize;
        let mut tables = BTreeMap::new();
        for _ in 0..ntables {
            let nlen = u32::from_le_bytes(take(&mut off, 4)?.try_into().expect("4")) as usize;
            let name = String::from_utf8(take(&mut off, nlen)?.to_vec())
                .map_err(|_| DbError::CorruptSnapshot("table name"))?;
            let rows = u64::from_le_bytes(take(&mut off, 8)?.try_into().expect("8")) as usize;
            let mut map = BTreeMap::new();
            for _ in 0..rows {
                let klen = u32::from_le_bytes(take(&mut off, 4)?.try_into().expect("4")) as usize;
                let k = take(&mut off, klen)?.to_vec();
                let vlen = u32::from_le_bytes(take(&mut off, 4)?.try_into().expect("4")) as usize;
                let v = take(&mut off, vlen)?.to_vec();
                map.insert(k, v);
            }
            tables.insert(name, map);
        }
        Ok(tables)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempDir;

    #[test]
    fn in_memory_crud() {
        let mut db = DewDb::in_memory();
        assert_eq!(db.put("t", b"a", b"1").unwrap(), None);
        assert_eq!(db.put("t", b"a", b"2").unwrap(), Some(b"1".to_vec()));
        assert_eq!(db.get("t", b"a"), Some(&b"2"[..]));
        assert_eq!(db.get("t", b"missing"), None);
        assert_eq!(db.get("other", b"a"), None);
        assert_eq!(db.delete("t", b"a").unwrap(), Some(b"2".to_vec()));
        assert_eq!(db.get("t", b"a"), None);
        assert_eq!(db.mutations(), 3);
    }

    #[test]
    fn prefix_scan_is_ordered_and_bounded() {
        let mut db = DewDb::in_memory();
        for k in ["ab", "aa", "ac", "b", "a"] {
            db.put("t", k.as_bytes(), k.as_bytes()).unwrap();
        }
        let hits = db.scan_prefix("t", b"a");
        let keys: Vec<&[u8]> = hits.iter().map(|(k, _)| k.as_slice()).collect();
        assert_eq!(keys, vec![&b"a"[..], b"aa", b"ab", b"ac"]);
        assert!(db.scan_prefix("t", b"zz").is_empty());
        assert!(db.scan_prefix("missing", b"").is_empty());
    }

    #[test]
    fn durable_reopen_replays_wal() {
        let dir = TempDir::new("db-reopen");
        {
            let mut db = DewDb::open(dir.path(), SyncPolicy::EveryAppend).unwrap();
            db.put("data", b"k1", b"v1").unwrap();
            db.put("data", b"k2", b"v2").unwrap();
            db.delete("data", b"k1").unwrap();
        }
        let db = DewDb::open(dir.path(), SyncPolicy::EveryAppend).unwrap();
        assert_eq!(db.get("data", b"k1"), None);
        assert_eq!(db.get("data", b"k2"), Some(&b"v2"[..]));
        assert_eq!(db.table_len("data"), 1);
    }

    #[test]
    fn checkpoint_then_reopen() {
        let dir = TempDir::new("db-ckpt");
        {
            let mut db = DewDb::open(dir.path(), SyncPolicy::EveryAppend).unwrap();
            for i in 0..100u32 {
                db.put("t", &i.to_le_bytes(), &(i * 2).to_le_bytes())
                    .unwrap();
            }
            db.checkpoint().unwrap();
            // Post-checkpoint mutations land in the (fresh) WAL.
            db.put("t", b"extra", b"x").unwrap();
        }
        let db = DewDb::open(dir.path(), SyncPolicy::EveryAppend).unwrap();
        assert_eq!(db.table_len("t"), 101);
        assert_eq!(db.get("t", b"extra"), Some(&b"x"[..]));
        assert_eq!(
            db.get("t", &7u32.to_le_bytes()),
            Some(&14u32.to_le_bytes()[..])
        );
    }

    #[test]
    fn auto_checkpoint_truncates_wal() {
        let dir = TempDir::new("db-auto");
        {
            let mut db = DewDb::open(dir.path(), SyncPolicy::EveryAppend).unwrap();
            db.set_auto_checkpoint(10);
            for i in 0..25u32 {
                db.put("t", &i.to_le_bytes(), b"v").unwrap();
            }
        }
        // After 25 ops with checkpoint-every-10, the WAL holds ≤ 5 records.
        let replayed = wal::replay(dir.path().join("wal.log")).unwrap();
        assert!(
            replayed.records.len() <= 5,
            "wal has {}",
            replayed.records.len()
        );
        let db = DewDb::open(dir.path(), SyncPolicy::EveryAppend).unwrap();
        assert_eq!(db.table_len("t"), 25);
    }

    #[test]
    fn corrupt_snapshot_is_detected() {
        let dir = TempDir::new("db-corrupt");
        {
            let mut db = DewDb::open(dir.path(), SyncPolicy::EveryAppend).unwrap();
            db.put("t", b"a", b"1").unwrap();
            db.checkpoint().unwrap();
        }
        let snap = dir.path().join("snapshot.db");
        let mut bytes = std::fs::read(&snap).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&snap, &bytes).unwrap();
        match DewDb::open(dir.path(), SyncPolicy::EveryAppend) {
            Err(DbError::CorruptSnapshot(_)) => {}
            Err(other) => panic!("expected corrupt snapshot, got {other:?}"),
            Ok(_) => panic!("expected corrupt snapshot, got a database"),
        }
    }

    #[test]
    fn corrupt_snapshot_length_is_an_error_not_an_abort() {
        let dir = TempDir::new("db-snaplen");
        {
            let mut db = DewDb::open(dir.path(), SyncPolicy::EveryAppend).unwrap();
            db.put("t", b"a", b"1").unwrap();
            db.checkpoint().unwrap();
        }
        let snap = dir.path().join("snapshot.db");
        let good = std::fs::read(&snap).unwrap();
        // Bytes 12..20 hold the body length; the body is the rest.
        let body = (good.len() - 20) as u64;
        for len in [u64::MAX / 2, u64::MAX, body + 1] {
            let mut bytes = good.clone();
            bytes[12..20].copy_from_slice(&len.to_le_bytes());
            std::fs::write(&snap, &bytes).unwrap();
            match DewDb::open(dir.path(), SyncPolicy::EveryAppend) {
                Err(DbError::CorruptSnapshot("length")) => {}
                Err(other) => panic!("length {len}: expected a length error, got {other:?}"),
                Ok(_) => panic!("length {len}: expected a length error, got a database"),
            }
        }
        std::fs::write(&snap, &good).unwrap();
        let db = DewDb::open(dir.path(), SyncPolicy::EveryAppend).unwrap();
        assert_eq!(db.get("t", b"a"), Some(&b"1"[..]));
    }

    #[test]
    fn oversize_put_is_refused_and_later_writes_survive() {
        let dir = TempDir::new("db-oversize");
        let big = vec![7u8; 65 << 20];
        {
            let mut db = DewDb::open(dir.path(), SyncPolicy::EveryAppend).unwrap();
            db.put("t", b"before", b"1").unwrap();
            for table in ["t", "new"] {
                match db.put(table, b"big", &big) {
                    Err(DbError::Io(e)) if e.kind() == std::io::ErrorKind::InvalidInput => {}
                    other => panic!("expected the WAL to refuse the row, got {other:?}"),
                }
                assert_eq!(db.get(table, b"big"), None);
            }
            assert_eq!(db.table_names(), ["t"], "no table made for a refused row");
            assert_eq!(db.mutations(), 1);
            db.put("t", b"after", b"2").unwrap();
        }
        let db = DewDb::open(dir.path(), SyncPolicy::EveryAppend).unwrap();
        assert_eq!(db.get("t", b"before"), Some(&b"1"[..]));
        assert_eq!(db.get("t", b"after"), Some(&b"2"[..]));
        assert_eq!(db.get("t", b"big"), None);
    }

    #[test]
    fn unchanged_rows_are_not_logged_again() {
        let dir = TempDir::new("db-noop");
        let mut db = DewDb::open(dir.path(), SyncPolicy::EveryAppend).unwrap();
        let appended = |db: &DewDb| db.durability.as_ref().map(|d| d.wal.appended());
        db.put("t", b"k", b"v").unwrap();
        assert_eq!((appended(&db), db.mutations()), (Some(1), 1));
        // Same bytes again, a delete of an absent row, a missing table:
        // the same replies, and nothing logged or counted.
        assert_eq!(db.put("t", b"k", b"v").unwrap(), Some(b"v".to_vec()));
        assert_eq!(db.delete("t", b"absent").unwrap(), None);
        assert_eq!(db.delete("none", b"k").unwrap(), None);
        assert_eq!((appended(&db), db.mutations()), (Some(1), 1));
        // A changed value is a real change.
        assert_eq!(db.put("t", b"k", b"w").unwrap(), Some(b"v".to_vec()));
        assert_eq!((appended(&db), db.mutations()), (Some(2), 2));
        assert_eq!(
            wal::replay(dir.path().join("wal.log"))
                .unwrap()
                .records
                .len(),
            2
        );
    }

    #[test]
    fn a_log_and_snapshot_in_the_old_framing_open_unchanged() {
        // The snapshot comes from `checkpoint`, whose format is unchanged;
        // the log tail is framed the way the per-record writer always
        // framed it: `[len][crc32][LogRecord::encode]`.
        use crate::codec::Encode;
        let dir = TempDir::new("db-compat");
        {
            let mut db = DewDb::open(dir.path(), SyncPolicy::EveryAppend).unwrap();
            db.put("dc_data", b"a", b"1").unwrap();
            db.put("dc_name", b"n\0a", b"a").unwrap();
            db.checkpoint().unwrap();
        }
        let tail = [
            LogRecord::Put {
                table: "dc_data".into(),
                key: b"b".to_vec(),
                value: b"2".to_vec(),
            },
            LogRecord::Delete {
                table: "dc_data".into(),
                key: b"a".to_vec(),
            },
            LogRecord::Put {
                table: "dc_locator".into(),
                key: b"bftp".to_vec(),
                value: vec![9; 40],
            },
        ];
        let mut old = Vec::new();
        for rec in &tail {
            let payload = rec.to_bytes();
            old.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            old.extend_from_slice(&crc32(&payload).to_le_bytes());
            old.extend_from_slice(&payload);
        }
        let wal_path = dir.path().join("wal.log");
        let mut w = WalWriter::open(&wal_path, SyncPolicy::EveryAppend).unwrap();
        for rec in &tail {
            w.append(rec).unwrap();
        }
        drop(w);
        assert_eq!(std::fs::read(&wal_path).unwrap(), old);

        let db = DewDb::open(dir.path(), SyncPolicy::EveryAppend).unwrap();
        let rows = |t: &str| db.scan_prefix(t, b"");
        assert_eq!(rows("dc_data"), [(b"b".to_vec(), b"2".to_vec())]);
        assert_eq!(rows("dc_name"), [(b"n\0a".to_vec(), b"a".to_vec())]);
        assert_eq!(rows("dc_locator"), [(b"bftp".to_vec(), vec![9; 40])]);
        assert_eq!(db.table_names(), ["dc_data", "dc_locator", "dc_name"]);
    }

    #[test]
    fn files_digested_by_the_table_kernel_open_through_the_dispatcher() {
        // A snapshot and a log written byte by byte with every CRC from
        // slice-by-16 (`fold_tables`, the only kernel before the carry-less
        // one) open and replay through `crc32`, which sends each body and
        // every record from `CLMUL_MIN` bytes up to the carry-less kernel
        // where the CPU has it.
        use crate::codec::Encode;
        use crate::crc32::fold_tables;
        let table_crc = |bytes: &[u8]| !fold_tables(!0, bytes);
        let lens = [
            0usize, 1, 15, 16, 17, 47, 63, 64, 65, 127, 128, 129, 1000, 70_000,
        ];
        let value = |len: usize| -> Vec<u8> { (0..len).map(|i| (i * 7 + len) as u8).collect() };

        let dir = TempDir::new("db-table-crc");
        let mut body = Vec::new();
        body.extend_from_slice(&1u32.to_le_bytes());
        body.extend_from_slice(&4u32.to_le_bytes());
        body.extend_from_slice(b"snap");
        body.extend_from_slice(&(lens.len() as u64).to_le_bytes());
        for (i, &len) in lens.iter().enumerate() {
            let key = (i as u32).to_be_bytes();
            body.extend_from_slice(&(key.len() as u32).to_le_bytes());
            body.extend_from_slice(&key);
            body.extend_from_slice(&(len as u32).to_le_bytes());
            body.extend_from_slice(&value(len));
        }
        let mut snap = SNAPSHOT_MAGIC.to_vec();
        snap.extend_from_slice(&table_crc(&body).to_le_bytes());
        snap.extend_from_slice(&(body.len() as u64).to_le_bytes());
        snap.extend_from_slice(&body);
        std::fs::write(dir.path().join("snapshot.db"), snap).unwrap();

        let mut log = Vec::new();
        let mut records: Vec<LogRecord> = lens
            .iter()
            .map(|&len| LogRecord::Put {
                table: "log".into(),
                key: (len as u32).to_be_bytes().to_vec(),
                value: value(len),
            })
            .collect();
        records.push(LogRecord::Delete {
            table: "snap".into(),
            key: 0u32.to_be_bytes().to_vec(),
        });
        for rec in &records {
            let payload = rec.to_bytes();
            log.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            log.extend_from_slice(&table_crc(&payload).to_le_bytes());
            log.extend_from_slice(&payload);
        }
        std::fs::write(dir.path().join("wal.log"), log).unwrap();

        let replayed = wal::replay(dir.path().join("wal.log")).unwrap();
        assert_eq!(replayed.records, records, "every record replays");
        assert!(!replayed.truncated_tail);
        let db = DewDb::open(dir.path(), SyncPolicy::EveryAppend).unwrap();
        for (i, &len) in lens.iter().enumerate() {
            let want = (i > 0).then(|| value(len));
            assert_eq!(db.get("snap", &(i as u32).to_be_bytes()), want.as_deref());
            assert_eq!(
                db.get("log", &(len as u32).to_be_bytes()),
                Some(&value(len)[..]),
                "log record of {len} bytes"
            );
        }
    }

    #[test]
    fn torn_wal_tail_recovers_prefix() {
        let dir = TempDir::new("db-torn");
        {
            let mut db = DewDb::open(dir.path(), SyncPolicy::EveryAppend).unwrap();
            for i in 0..10u32 {
                db.put("t", &i.to_le_bytes(), b"v").unwrap();
            }
        }
        let wal_path = dir.path().join("wal.log");
        let bytes = std::fs::read(&wal_path).unwrap();
        std::fs::write(&wal_path, &bytes[..bytes.len() - 3]).unwrap();
        let db = DewDb::open(dir.path(), SyncPolicy::EveryAppend).unwrap();
        assert_eq!(db.table_len("t"), 9);
    }

    #[test]
    fn tables_are_isolated() {
        let mut db = DewDb::in_memory();
        db.put("a", b"k", b"in-a").unwrap();
        db.put("b", b"k", b"in-b").unwrap();
        assert_eq!(db.get("a", b"k"), Some(&b"in-a"[..]));
        assert_eq!(db.get("b", b"k"), Some(&b"in-b"[..]));
        assert_eq!(db.table_names(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn empty_db_checkpoint_roundtrip() {
        let dir = TempDir::new("db-empty");
        {
            let mut db = DewDb::open(dir.path(), SyncPolicy::EveryAppend).unwrap();
            db.checkpoint().unwrap();
        }
        let db = DewDb::open(dir.path(), SyncPolicy::EveryAppend).unwrap();
        assert_eq!(db.table_names().len(), 0);
    }
}
