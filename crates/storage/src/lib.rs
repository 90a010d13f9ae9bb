//! # bitdew-storage
//!
//! "DewDB" — the persistent-storage substrate of the BitDew reproduction.
//!
//! The original system serialized service metadata "using a traditional SQL
//! database" through JPOX/JDO, benchmarked two engines (networked MySQL vs.
//! embedded HsqlDB) and the Commons-DBCP connection pool (§3.5, Table 2).
//! This crate rebuilds the whole stack from scratch:
//!
//! * [`db::DewDb`] — an embedded multi-table ordered KV store with a
//!   write-ahead log, torn-tail crash recovery and snapshot checkpoints.
//! * [`codec`] — the explicit binary row codec the services persist with
//!   (the JDO object-mapping replacement).
//! * [`engine`] — [`engine::EmbeddedDriver`] (HsqlDB analog: in-process) and
//!   [`engine::NetworkedDriver`] (MySQL analog: a server thread, one real
//!   round trip per op, 3-round-trip connection handshake).
//! * [`pool::ConnectionPool`] — the DBCP analog.
//! * [`wal`] — durability internals.
//! * [`crc32`] — the record digest of the WAL and, above this crate, the
//!   per-chunk digest of the chunked data plane (a carry-less-multiply
//!   kernel chosen at run time, slice-by-16 otherwise). It holds the
//!   workspace's one `unsafe` block: the kernel's call behind CPU-feature
//!   detection.
//!
//! Table 2's four-way comparison (engine × pooling) is regenerated by
//! `bitdew-bench --bin table2` directly on top of these types.

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod codec;
pub mod crc32;
pub mod db;
pub mod engine;
pub mod pool;
pub mod testutil;
pub mod wal;

pub use codec::{CodecError, Decode, Encode};
pub use db::{DbError, DbResult, DewDb};
pub use engine::{DbConnection, DbDriver, DbOp, DbReply, EmbeddedDriver, NetworkedDriver};
pub use pool::{ConnectionPool, PooledConnection};
pub use wal::SyncPolicy;
