//! Connection pooling — the Commons-DBCP analog.
//!
//! §3.5: "Jakarta Commons-DBCP provides database connection pooling services,
//! which avoids opening new connection for every database transaction."
//! Table 2 shows the pool is worth 6–7× on the networked engine and ~35% on
//! the embedded one. [`ConnectionPool`] keeps up to `max_size` live sessions;
//! checkouts block when the pool is exhausted, and returned sessions are
//! reused in LIFO order (warm path first).

use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::db::{DbError, DbResult};
use crate::engine::{DbConnection, DbDriver, DbOp, DbReply};

struct PoolState {
    idle: Vec<Box<dyn DbConnection>>,
    live: usize,
}

/// A bounded pool of database sessions over any [`DbDriver`].
pub struct ConnectionPool {
    driver: Arc<dyn DbDriver>,
    max_size: usize,
    state: Mutex<PoolState>,
    available: Condvar,
}

impl ConnectionPool {
    /// Pool over `driver` with at most `max_size` concurrent sessions.
    ///
    /// # Panics
    /// Panics if `max_size` is zero.
    pub fn new(driver: Arc<dyn DbDriver>, max_size: usize) -> Arc<ConnectionPool> {
        assert!(max_size > 0, "pool must allow at least one connection");
        Arc::new(ConnectionPool {
            driver,
            max_size,
            state: Mutex::new(PoolState {
                idle: Vec::new(),
                live: 0,
            }),
            available: Condvar::new(),
        })
    }

    /// Borrow a session, opening one if the pool is below capacity, blocking
    /// otherwise until a session is returned.
    pub fn checkout(self: &Arc<Self>) -> DbResult<PooledConnection> {
        self.checkout_inner(None)
    }

    /// Borrow with a deadline; returns `Err` on timeout.
    pub fn checkout_timeout(self: &Arc<Self>, timeout: Duration) -> DbResult<PooledConnection> {
        self.checkout_inner(Some(timeout))
    }

    fn checkout_inner(self: &Arc<Self>, timeout: Option<Duration>) -> DbResult<PooledConnection> {
        let mut state = self.state.lock();
        loop {
            if let Some(conn) = state.idle.pop() {
                return Ok(PooledConnection {
                    pool: Arc::clone(self),
                    conn: Some(conn),
                });
            }
            if state.live < self.max_size {
                state.live += 1;
                drop(state);
                // Open outside the lock; on failure release the slot.
                match self.driver.connect() {
                    Ok(conn) => {
                        return Ok(PooledConnection {
                            pool: Arc::clone(self),
                            conn: Some(conn),
                        })
                    }
                    Err(e) => {
                        let mut state = self.state.lock();
                        state.live -= 1;
                        self.available.notify_one();
                        return Err(e);
                    }
                }
            }
            match timeout {
                None => self.available.wait(&mut state),
                Some(t) => {
                    if self.available.wait_for(&mut state, t).timed_out() {
                        return Err(DbError::Io(std::io::Error::new(
                            std::io::ErrorKind::TimedOut,
                            "pool exhausted",
                        )));
                    }
                }
            }
        }
    }

    /// Sessions currently open (idle + checked out).
    pub fn live(&self) -> usize {
        self.state.lock().live
    }

    /// Sessions currently idle in the pool.
    pub fn idle(&self) -> usize {
        self.state.lock().idle.len()
    }

    /// Maximum concurrent sessions.
    pub fn capacity(&self) -> usize {
        self.max_size
    }

    fn give_back(&self, conn: Box<dyn DbConnection>) {
        let mut state = self.state.lock();
        state.idle.push(conn);
        drop(state);
        self.available.notify_one();
    }

    fn discard(&self) {
        let mut state = self.state.lock();
        state.live -= 1;
        drop(state);
        self.available.notify_one();
    }
}

/// A session on loan from the pool; returned automatically on drop.
pub struct PooledConnection {
    pool: Arc<ConnectionPool>,
    conn: Option<Box<dyn DbConnection>>,
}

impl PooledConnection {
    /// Execute one operation on the borrowed session.
    pub fn exec(&mut self, op: DbOp) -> DbResult<DbReply> {
        self.conn
            .as_mut()
            .expect("connection present until drop")
            .exec(op)
    }

    /// Execute a batch as one unit on the borrowed session (one store
    /// lock on the embedded engine, one wire round trip on the networked
    /// one).
    pub fn exec_batch(&mut self, ops: Vec<DbOp>) -> DbResult<Vec<DbReply>> {
        self.conn
            .as_mut()
            .expect("connection present until drop")
            .exec_batch(ops)
    }

    /// Drop the session instead of returning it (e.g. after an error), so
    /// the pool will open a fresh one for the next borrower.
    pub fn invalidate(mut self) {
        self.conn = None;
        self.pool.discard();
        std::mem::forget(self); // Drop would double-account
    }
}

impl Drop for PooledConnection {
    fn drop(&mut self) {
        match self.conn.take() {
            Some(conn) => self.pool.give_back(conn),
            None => self.pool.discard(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::DewDb;
    use crate::engine::EmbeddedDriver;

    fn pool(max: usize) -> Arc<ConnectionPool> {
        ConnectionPool::new(Arc::new(EmbeddedDriver::new(DewDb::in_memory())), max)
    }

    #[test]
    fn checkout_reuses_connections() {
        let p = pool(2);
        {
            let mut c = p.checkout().unwrap();
            c.exec(DbOp::Put {
                table: "t",
                key: b"k".to_vec(),
                value: b"v".to_vec(),
            })
            .unwrap();
        }
        assert_eq!(p.live(), 1);
        assert_eq!(p.idle(), 1);
        {
            let _c = p.checkout().unwrap();
            assert_eq!(p.live(), 1, "reused the idle session");
            assert_eq!(p.idle(), 0);
        }
    }

    #[test]
    fn pool_grows_to_capacity() {
        let p = pool(3);
        let a = p.checkout().unwrap();
        let b = p.checkout().unwrap();
        let c = p.checkout().unwrap();
        assert_eq!(p.live(), 3);
        drop((a, b, c));
        assert_eq!(p.idle(), 3);
    }

    #[test]
    fn exhausted_pool_blocks_until_return() {
        let p = pool(1);
        let held = p.checkout().unwrap();
        let p2 = Arc::clone(&p);
        let waiter = std::thread::spawn(move || {
            let mut c = p2.checkout().unwrap();
            c.exec(DbOp::Get {
                table: "t",
                key: b"k".to_vec(),
            })
            .unwrap()
        });
        std::thread::sleep(Duration::from_millis(50));
        drop(held);
        let reply = waiter.join().unwrap();
        assert_eq!(reply, DbReply::Value(None));
        assert_eq!(p.live(), 1);
    }

    #[test]
    fn timeout_on_exhausted_pool() {
        let p = pool(1);
        let _held = p.checkout().unwrap();
        let err = p.checkout_timeout(Duration::from_millis(30));
        assert!(err.is_err());
    }

    #[test]
    fn invalidate_releases_slot() {
        let p = pool(1);
        let c = p.checkout().unwrap();
        c.invalidate();
        assert_eq!(p.live(), 0);
        // A fresh connection can now be opened.
        let _c2 = p.checkout().unwrap();
        assert_eq!(p.live(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one connection")]
    fn zero_capacity_rejected() {
        let _ = pool(0);
    }

    #[test]
    fn concurrent_checkouts_share_fairly() {
        let p = pool(4);
        let mut handles = Vec::new();
        for t in 0..8u32 {
            let p2 = Arc::clone(&p);
            handles.push(std::thread::spawn(move || {
                for i in 0..25u32 {
                    let mut c = p2.checkout().unwrap();
                    c.exec(DbOp::Put {
                        table: "t",
                        key: (t * 100 + i).to_le_bytes().to_vec(),
                        value: b"v".to_vec(),
                    })
                    .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(p.live() <= 4);
        let mut c = p.checkout().unwrap();
        match c
            .exec(DbOp::ScanPrefix {
                table: "t",
                prefix: vec![],
            })
            .unwrap()
        {
            DbReply::Rows(rows) => assert_eq!(rows.len(), 200),
            other => panic!("unexpected {other:?}"),
        }
    }
}
