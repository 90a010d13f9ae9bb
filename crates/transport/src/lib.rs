//! # bitdew-transport
//!
//! BitDew's out-of-band transfer layer, rebuilt from scratch.
//!
//! "BitDew does not propose new protocol to transfer data from node to node;
//! instead, data are moved by out-of-band transfer" (§3.4.2). The framework
//! contract is Fig. 2 of the paper — seven methods
//! (connect/disconnect/probe + send/receive in blocking and non-blocking
//! flavours) plus a daemon connector — and the runtime shipped FTP, HTTP and
//! BitTorrent implementations. This crate provides:
//!
//! * [`oob`] — the Fig. 2 traits ([`OobTransfer`], [`BlockingOobTransfer`],
//!   [`NonBlockingOobTransfer`], [`DaemonConnector`]) and transfer status
//!   types with receiver-driven verification.
//! * [`fabric`] — an in-process connection-oriented "network" the threaded
//!   protocols run over (the reproduction's TCP).
//! * [`udp`] — the matching connectionless datagram plane (the
//!   reproduction's UDP), with best-effort delivery, bounded socket queues
//!   and first-class loss injection; the announce/discovery plane runs on
//!   it.
//! * [`store`] — content stores ([`MemStore`], [`DiskStore`]) with
//!   offset-addressed I/O, the basis of transfer *resume*.
//! * [`ftp`] / [`http`] — client/server protocols with chunked streaming,
//!   offset resume, MD5 verification (computed while the frames move, one
//!   shared loop per direction) and fault injection.
//! * [`bittorrent`] — a tracker + swarm with rarest-first piece selection,
//!   per-piece hashing and upload-slot choking.
//! * [`protocol`] — the pluggable-protocol registry behind the `transfer
//!   protocol` data attribute.
//! * [`simproto`] — flow-level FTP/BitTorrent models used by the benches to
//!   regenerate Fig. 3/5/6 at 10–400 node scale.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bittorrent;
pub mod fabric;
pub mod ftp;
pub mod http;
pub mod oob;
pub mod protocol;
pub mod simproto;
pub mod store;
mod stream;
pub mod udp;

pub use fabric::{Duplex, Fabric, FabricError, Listener};
pub use oob::{
    BlockingOobTransfer, DaemonConnector, NonBlockingOobTransfer, OobTransfer, TransferSpec,
    TransferStatus, TransferVerdict, TransportError, TransportResult,
};
pub use protocol::{ProtocolId, ProtocolRegistry, TransferFactory};
pub use store::{DiskStore, FileStore, MemStore, StoreError};
pub use udp::{Datagram, UdpNet, UdpSocket};
