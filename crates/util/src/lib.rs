//! # bitdew-util
//!
//! Shared substrate utilities for the BitDew reproduction.
//!
//! The original BitDew (Fedak, He, Cappello — INRIA RR-6427 / SC'08) leaned on
//! the Java standard library and third-party components for a handful of
//! low-level facilities. This crate rebuilds them from scratch so the rest of
//! the workspace has no hidden dependencies:
//!
//! * [`md5`] — the MD5 message digest (RFC 1321). BitDew stores an MD5
//!   signature in every [`Data`](../bitdew_core) object and uses it both for
//!   transfer-integrity checks (receiver-driven transfer, §3.4.2) and for the
//!   checkpoint-signature sabotage-tolerance scheme discussed in §2.2.
//! * [`auid`] — AUID unique identifiers, "a variant of the DCE UID" (§3.5),
//!   used to name every data, attribute, host and transfer in the system.
//! * [`idhash`] — a fast keyed hasher ([`IdMap`]) for the maps hot paths
//!   key by AUIDs.
//! * [`hex`] — hexadecimal encoding/decoding for digests and identifiers.
//! * [`stats`] — streaming min/max/mean/standard-deviation accumulators used
//!   by the benchmark harness (Table 3 reports exactly these four columns).
//! * [`fmt`] — human-readable byte-size and duration formatting for the
//!   experiment reports.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod auid;
pub mod fmt;
pub mod hex;
pub mod idhash;
pub mod md5;
pub mod stats;

pub use auid::Auid;
pub use idhash::{IdMap, IdSet};
pub use md5::Md5Digest;
pub use stats::RunningStats;
