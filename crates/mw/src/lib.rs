//! # bitdew-mw
//!
//! Data-driven master/worker on top of BitDew — the paper's §5 application
//! layer.
//!
//! Two halves:
//!
//! * [`framework`] — the reusable threaded MW pattern: pinned Collector,
//!   fault-tolerant task inputs, results routed home by affinity, shared
//!   payloads with relative lifetimes (delete the Collector, everything
//!   cleans up). Runs on real [`bitdew_core::BitdewNode`]s.
//! * [`blast`] — the BLAST evaluation workload: Listing 3's attribute wiring
//!   (Application `replica = −1` over BitTorrent, the 2.68 GB Genebase,
//!   per-task Sequences over HTTP), with placement from the genuine
//!   Algorithm 1 scheduler and transfer phases from the flow-level protocol
//!   models. Regenerates Fig. 5 (total time vs. workers, FTP vs. BitTorrent)
//!   and Fig. 6 (per-cluster transfer/unzip/exec breakdown at 400 nodes).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod blast;
pub mod framework;

pub use blast::{fig5_point, run_blast, BigFileProtocol, BlastParams, BlastReport, PhaseBreakdown};
pub use framework::{pump_until, ComputeFn, MwMaster, MwWorker, RESULT_PREFIX, TASK_PREFIX};
