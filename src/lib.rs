//! # bitdew — facade crate
//!
//! Re-exports every crate of the BitDew-rs workspace under one roof, the
//! way the original Java distribution shipped one jar.
//!
//! ## Where to start: the three trait APIs
//!
//! Applications program against the paper's three interfaces (§3.3),
//! exposed as object-safe traits in [`core::api`]:
//!
//! * `BitDewApi` — the data space: `create_data`/`create_slot`,
//!   `put`/`put_many`, non-blocking `get`, `search`, `delete`,
//!   `create_attribute`, plus the chunk and version faces (`put_chunked`,
//!   `get_range`, `commit_update`, `open_snapshot`, `gc_versions`);
//! * `ActiveData` — attribute-driven scheduling: `schedule`/
//!   `schedule_many`, `pin`, and life-cycle events through filtered
//!   `subscribe` subscriptions and `add_handler` callbacks;
//! * `TransferManager` — transfer control: `wait_for`, `try_wait`,
//!   `wait_all`, `barrier`, `pump`.
//!
//! Write code generic over `N: BitDewApi + ActiveData + TransferManager`
//! and run it on either backend:
//!
//! * [`core::runtime::BitdewNode`] — threads, wall-clock heartbeats, real
//!   FTP/HTTP/BitTorrent transfers over an in-process fabric;
//! * [`core::simdriver::SimNode`] — the discrete-event simulator, virtual
//!   time, flow-level transfers on link-contended topologies.
//!
//! Every operation returns `core::Result`, failing with the unified
//! `core::BitdewError`. A pipelined `Session` / `DataHandle` layer sits on
//! top of the traits for batched, future-returning submission.
//!
//! ## Five planes behind the APIs
//!
//! The `bitdew-core` crate doc describes each:
//!
//! 1. **command** — the catalog and Data Scheduler (Algorithm 1),
//!    partitioned into consistent-hash shards (`core::shard`);
//! 2. **data** — chunk manifests with CRC32 digests and multi-source,
//!    work-stealing range fetches (`core::chunks`);
//! 3. **compute** — map operations scheduled onto the hosts that already
//!    hold their input chunks (`core::compute`);
//! 4. **discovery** — datagram announce/scrape of replica holdings, with
//!    the TCP sync as fallback (`core::announce`);
//! 5. **version** — copy-on-write version chains, snapshots and GC over
//!    chunked data (`core::versions`).
//!
//! ## Measuring it
//!
//! Performance is measured with `ledger`, a package of its own under
//! `bench/`: five workloads (three threaded, two simulated), end-to-end
//! and per-layer metrics in one JSON schema, `compare` with per-metric
//! bounds. `bench/README.md` lists its verbs, e.g.
//! `cargo run --release --offline --manifest-path bench/Cargo.toml -- run small_files`.
//!
//! See the `examples/` directory for runnable walk-throughs — each is
//! written once against the three traits:
//!
//! * `quickstart` — create, tag, replicate a datum through a pipelined
//!   `Session`/`DataHandle`, reacting via per-datum subscriptions;
//! * `file_updater` — the paper's Listing 1/2 network-update program on
//!   the subscription event bus (name-filtered acks, per-datum copies);
//! * `blast_mw` — the §5 master/worker application on both backends,
//!   asserting identical results;
//! * `fault_tolerance` — an owner crash healed through the failure
//!   detector (the Fig. 4 machinery), the heir reacting to its inherited
//!   replica's Copy event.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use bitdew_core as core;
pub use bitdew_dht as dht;
pub use bitdew_mw as mw;
pub use bitdew_sim as sim;
pub use bitdew_storage as storage;
pub use bitdew_transport as transport;
pub use bitdew_util as util;
