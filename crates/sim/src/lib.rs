//! # bitdew-sim
//!
//! Deterministic discrete-event simulation substrate for the BitDew
//! reproduction.
//!
//! The paper's evaluation (§4) ran on three physical testbeds — the Grid
//! Explorer cluster, four Grid'5000 clusters totalling 544 CPUs (Table 1),
//! and the DSL-Lab broadband platform — moving files of 10 MB–2.68 GB to up
//! to 400 nodes. Re-running those experiments literally requires hardware we
//! do not have, so this crate provides the closest synthetic equivalent that
//! exercises the same code paths:
//!
//! * [`engine::Sim`] — a single-threaded discrete-event kernel with a virtual
//!   nanosecond clock, cancellable events, and a seeded RNG (deterministic
//!   replays).
//! * [`net::FlowNet`] — a flow-level network over **links and routes**: every
//!   host contributes two access links, a [`net::LinkTopology`] adds the
//!   shared links in between (oversubscribed aggregation uplinks, a shared
//!   ISP/backbone pipe), and concurrent transfers share *every* link on
//!   their path under max-min fairness (progressive filling), the standard
//!   fluid model for grid transfer studies. FTP's "N clients divide one
//!   server uplink", BitTorrent's server-offload behaviour, and
//!   backbone-capped volunteer swarms all emerge from this model.
//!   Allocations recompute only on flow arrival/departure/churn with
//!   same-instant batching, so the event loop stays fast at 100k–1M hosts.
//! * [`host`]/[`topology`] — host pools parameterised after Table 1
//!   (gdx/grelon/grillon/sagittaire) and the Fig. 4 DSL-Lab bandwidth
//!   profile, plus link-contended shapes the paper's testbeds could not
//!   build: [`topology::gdx_datacenter`] (two-tier fabric, oversubscribed
//!   aggregation) and [`topology::volunteer_wan`] (all homes behind one
//!   ISP pipe).
//! * [`churn`] — scripted and random volatility, the defining property of
//!   Desktop Grids (§2.1).
//! * [`trace`] — structured event records post-processed into the paper's
//!   Gantt charts and tables.
//!
//! Everything above the simulator (services, scheduler, transports) is
//! written against plain state-machine interfaces, so the same BitDew code
//! also runs on the threaded wall-clock runtime in `bitdew-core`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod churn;
pub mod engine;
pub mod host;
pub mod net;
pub mod time;
pub mod topology;
pub mod trace;

pub use engine::{every, EventToken, Sim};
pub use host::{Host, HostId, HostPool, HostRole, HostSpec, HostState};
pub use net::{FlowFailure, FlowId, FlowNet, FlowOutcome, Link, LinkId, LinkTopology};
pub use time::{SimDuration, SimTime};
pub use trace::{Trace, TraceEvent, TraceRecord};
