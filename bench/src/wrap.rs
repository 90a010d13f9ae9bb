//! Counting wrappers the traced run injects at public trait seams: an
//! `Arc<dyn FileStore>` and a `DbDriver`. They count calls, bytes and busy
//! time and forward everything else untouched.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use bitdew_storage::{DbConnection, DbDriver, DbOp, DbReply, DbResult};
use bitdew_transport::{FileStore, StoreError};
use bitdew_util::Md5Digest;
use bytes::Bytes;

#[derive(Default)]
pub struct StoreCounters {
    pub read_calls: AtomicU64,
    pub read_bytes: AtomicU64,
    pub read_busy_ns: AtomicU64,
    pub write_calls: AtomicU64,
    pub write_bytes: AtomicU64,
    pub write_busy_ns: AtomicU64,
}

/// A `FileStore` that counts reads and writes into shared counters (one
/// set per run, shared by every store of the cluster).
pub struct CountingStore {
    inner: Arc<dyn FileStore>,
    counters: Arc<StoreCounters>,
}

impl CountingStore {
    pub fn wrap(inner: Arc<dyn FileStore>, counters: &Arc<StoreCounters>) -> Arc<dyn FileStore> {
        Arc::new(CountingStore {
            inner,
            counters: Arc::clone(counters),
        })
    }
}

impl FileStore for CountingStore {
    fn read_at(&self, name: &str, offset: u64, len: usize) -> Result<Bytes, StoreError> {
        let start = Instant::now();
        let out = self.inner.read_at(name, offset, len);
        let c = &self.counters;
        c.read_busy_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Relaxed);
        c.read_calls.fetch_add(1, Relaxed);
        if let Ok(bytes) = &out {
            c.read_bytes.fetch_add(bytes.len() as u64, Relaxed);
        }
        out
    }

    fn write_at(&self, name: &str, offset: u64, data: &[u8]) -> Result<(), StoreError> {
        let start = Instant::now();
        let out = self.inner.write_at(name, offset, data);
        let c = &self.counters;
        c.write_busy_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Relaxed);
        c.write_calls.fetch_add(1, Relaxed);
        c.write_bytes.fetch_add(data.len() as u64, Relaxed);
        out
    }

    fn size(&self, name: &str) -> Result<u64, StoreError> {
        self.inner.size(name)
    }

    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }

    fn remove(&self, name: &str) -> Result<(), StoreError> {
        self.inner.remove(name)
    }

    // Forwarded so the inner store's own checksum path (not the trait's
    // read_at loop) runs, as it does untraced.
    fn checksum(&self, name: &str) -> Result<Md5Digest, StoreError> {
        self.inner.checksum(name)
    }

    fn list(&self) -> Vec<String> {
        self.inner.list()
    }
}

#[derive(Default)]
pub struct DbCounters {
    /// `exec` + `exec_batch` calls.
    pub exec_calls: AtomicU64,
    /// Operations those calls carried.
    pub ops: AtomicU64,
    pub busy_ns: AtomicU64,
}

/// A `DbDriver` whose connections count what they execute.
pub struct CountingDriver {
    inner: Arc<dyn DbDriver>,
    counters: Arc<DbCounters>,
}

impl CountingDriver {
    pub fn wrap(inner: Arc<dyn DbDriver>, counters: &Arc<DbCounters>) -> Arc<dyn DbDriver> {
        Arc::new(CountingDriver {
            inner,
            counters: Arc::clone(counters),
        })
    }
}

impl DbDriver for CountingDriver {
    fn connect(&self) -> DbResult<Box<dyn DbConnection>> {
        Ok(Box::new(CountingConnection {
            inner: self.inner.connect()?,
            counters: Arc::clone(&self.counters),
        }))
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

struct CountingConnection {
    inner: Box<dyn DbConnection>,
    counters: Arc<DbCounters>,
}

impl CountingConnection {
    fn count<R>(&mut self, ops: u64, f: impl FnOnce(&mut dyn DbConnection) -> R) -> R {
        let start = Instant::now();
        let out = f(self.inner.as_mut());
        let c = &self.counters;
        c.busy_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Relaxed);
        c.exec_calls.fetch_add(1, Relaxed);
        c.ops.fetch_add(ops, Relaxed);
        out
    }
}

impl DbConnection for CountingConnection {
    fn exec(&mut self, op: DbOp) -> DbResult<DbReply> {
        self.count(1, |c| c.exec(op))
    }

    fn exec_batch(&mut self, ops: Vec<DbOp>) -> DbResult<Vec<DbReply>> {
        self.count(ops.len() as u64, |c| c.exec_batch(ops))
    }
}
