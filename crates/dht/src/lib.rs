//! # bitdew-dht
//!
//! A DKS/Chord-style distributed hash table — the substrate behind BitDew's
//! **Distributed Data Catalog** (DDC).
//!
//! The original system used DKS(N, k, f) [Alima et al. 2003]: a structured
//! overlay where lookups resolve one base-`k` digit per hop (`log_k N` hops)
//! and every key is replicated on `f` nodes. BitDew publishes a
//! `(dataID, hostID)` pair into the DHT for every replica held by a volatile
//! node, keeping the *centralized* Data Catalog small and fast while replica
//! location scales out (§3.4.1; Table 3 measures the resulting publish
//! rates).
//!
//! This crate rebuilds that stack:
//!
//! * [`id`] — 64-bit ring arithmetic and k-ary finger planning;
//! * [`node`] — per-node routing pointers and the replicated multi-value
//!   store;
//! * [`network::DhtOverlay`] — membership, iterative routing with dead-node
//!   avoidance, join/leave/crash, eager heal + replica repair;
//! * [`catalog::DistributedCatalog`] — the typed DDC facade used by
//!   `bitdew-core` and the benches.
//!
//! Routing is executed for real on every operation and reported as a hop
//! trace ([`network::Routed`]), which the simulator converts into virtual
//! latency — that is how Table 3's "DDC is ~15× slower than the centralized
//! DC" result is regenerated without a physical 50-node deployment.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod catalog;
pub mod id;
pub mod network;
pub mod node;

pub use catalog::DistributedCatalog;
pub use id::{key_for_auid, key_for_bytes, RingPos};
pub use network::{build_overlay, DhtConfig, DhtError, DhtOverlay, Routed};
pub use node::DhtNode;
