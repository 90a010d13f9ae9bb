//! The BLAST workload model (§5, Fig. 5 and Fig. 6).
//!
//! The paper's application: NCBI `blastn` queries GeneBank DNA sequences
//! against a protein database. Three data classes drive the distribution
//! (Listing 3): the **Application** binary (4.45 MB, `replica = −1`,
//! BitTorrent), the compressed **Genebase** archive (2.68 GB, BitTorrent,
//! affinity → Sequence), and per-task **Sequence** files (small, HTTP,
//! fault-tolerant). Results carry affinity to the pinned Collector.
//!
//! We cannot run NCBI BLAST on 400 Grid'5000 nodes, so the *computation* is
//! a calibrated black box — the paper itself only uses per-phase durations.
//! Placement comes from the real Data Scheduler (Algorithm 1): each worker
//! synchronizes and receives its sequence + the affinity-driven genebase +
//! the replica-everywhere application. Transfer times come from the
//! flow-level models in `bitdew-transport::simproto`; unzip and execution
//! scale with each cluster's compute factor (Table 1's CPU mix).
//!
//! Calibration constants (fields of [`BlastParams`]): real BitTorrent
//! deployments move data far below NIC line rate — the paper's own Fig. 5
//! shows ~2.68 GB delivered in ~1,000–2,000 s — so swarm peers are capped at
//! [`BlastParams::bt_peer_cap`] (BTPD-era client throughput), while FTP runs
//! at line rate and bottlenecks on the single server uplink.

use bitdew_sim::topology::{self, Topology};
use bitdew_sim::{Sim, SimDuration};
use bitdew_transport::simproto::{bt_fluid_completion, run_ftp_star, BtFluidParams, PeerLink};
use bitdew_transport::ProtocolId;
use bitdew_util::Auid;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use bitdew_core::services::scheduler::DataScheduler;
use bitdew_core::{Data, DataAttributes, Lifetime, REPLICA_ALL};

/// Which protocol distributes the big shared files (the Fig. 5 axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BigFileProtocol {
    /// Client/server from the single data repository.
    Ftp,
    /// Collaborative swarm seeded by the repository.
    BitTorrent,
}

impl BigFileProtocol {
    /// Label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            BigFileProtocol::Ftp => "ftp",
            BigFileProtocol::BitTorrent => "bt",
        }
    }
}

/// Workload parameters with the paper's published values as defaults.
#[derive(Debug, Clone)]
pub struct BlastParams {
    /// Application binary size (4.45 MB, §5).
    pub app_bytes: f64,
    /// Compressed genebase archive (2.68 GB, §5).
    pub genebase_bytes: f64,
    /// One query sequence file (small text, unique per task).
    pub sequence_bytes: f64,
    /// Uncompressed-to-archive processing rate for `unzip` on the reference
    /// CPU, bytes/second.
    pub unzip_rate: f64,
    /// BLAST execution seconds per task on the reference CPU.
    pub exec_secs: f64,
    /// Effective per-peer swarm throughput cap (client-bound, not NIC-bound).
    pub bt_peer_cap: f64,
    /// Fluid-swarm tuning.
    pub bt_params: BtFluidParams,
}

impl Default for BlastParams {
    fn default() -> Self {
        BlastParams {
            app_bytes: 4.45e6,
            genebase_bytes: 2.68e9,
            sequence_bytes: 100e3,
            unzip_rate: 12.0e6,
            exec_secs: 450.0,
            bt_peer_cap: 3.5e6,
            // Swarms of long-lived cluster peers exchange pieces more
            // effectively than the Internet-default 0.55 of the generic
            // model; 0.75 lands the Fig. 6 transfer gain near the paper's
            // "almost a factor 10".
            bt_params: BtFluidParams {
                efficiency: 0.75,
                ..BtFluidParams::default()
            },
        }
    }
}

/// Per-node phase durations (the Fig. 6 breakdown).
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseBreakdown {
    /// Seconds moving Application + Genebase + Sequence to the node.
    pub transfer_secs: f64,
    /// Seconds unpacking the genebase archive.
    pub unzip_secs: f64,
    /// Seconds of BLAST execution.
    pub exec_secs: f64,
}

impl PhaseBreakdown {
    /// Phase sum.
    pub fn total(&self) -> f64 {
        self.transfer_secs + self.unzip_secs + self.exec_secs
    }
}

/// Result of one simulated MW run.
#[derive(Debug, Clone)]
pub struct BlastReport {
    /// Per-worker breakdowns, in `Topology::workers` order.
    pub per_worker: Vec<PhaseBreakdown>,
    /// Cluster name per worker (for Fig. 6 grouping).
    pub clusters: Vec<String>,
    /// Number of sequences the scheduler placed (sanity: one per worker).
    pub placed_sequences: usize,
}

impl BlastReport {
    /// Makespan: the last worker's completion.
    pub fn total_secs(&self) -> f64 {
        self.per_worker
            .iter()
            .map(|p| p.total())
            .fold(0.0, f64::max)
    }

    /// Mean breakdown over a cluster's workers (`None` if the cluster has
    /// no workers). Pass `"*"` for the whole platform (the Fig. 6 "mean").
    pub fn cluster_mean(&self, cluster: &str) -> Option<PhaseBreakdown> {
        let rows: Vec<&PhaseBreakdown> = self
            .per_worker
            .iter()
            .zip(&self.clusters)
            .filter(|(_, c)| cluster == "*" || c.as_str() == cluster)
            .map(|(p, _)| p)
            .collect();
        if rows.is_empty() {
            return None;
        }
        let n = rows.len() as f64;
        Some(PhaseBreakdown {
            transfer_secs: rows.iter().map(|p| p.transfer_secs).sum::<f64>() / n,
            unzip_secs: rows.iter().map(|p| p.unzip_secs).sum::<f64>() / n,
            exec_secs: rows.iter().map(|p| p.exec_secs).sum::<f64>() / n,
        })
    }
}

/// Run the MW BLAST workload on `topo` with one sequence per worker.
///
/// Placement is produced by the real scheduler: Application (`replica = −1`),
/// Sequences (`replica = 1`, ft), Genebase (affinity → every sequence); each
/// worker heartbeats once and receives its assignment, exactly the Listing 3
/// wiring. Transfer times then come from the protocol models.
pub fn run_blast(topo: &Topology, proto: BigFileProtocol, params: &BlastParams) -> BlastReport {
    let n = topo.workers.len();
    let mut rng = SmallRng::seed_from_u64(2008);

    // --- Placement via Algorithm 1 -------------------------------------
    let mut ds = DataScheduler::new(3_000_000_000, 64);
    let mk = |rng: &mut SmallRng, name: &str, size: f64| {
        Data::slot(Auid::generate(1, rng), name, size as u64)
    };
    let collector = mk(&mut rng, "collector", 0.0);
    ds.schedule(collector.clone(), DataAttributes::default().with_replica(0));
    let app = mk(&mut rng, "application", params.app_bytes);
    ds.schedule(
        app.clone(),
        DataAttributes::default()
            .with_replica(REPLICA_ALL)
            .with_protocol(ProtocolId::bittorrent()),
    );
    let mut sequences = Vec::with_capacity(n);
    for i in 0..n {
        let seq = mk(&mut rng, &format!("sequence-{i}"), params.sequence_bytes);
        ds.schedule(
            seq.clone(),
            DataAttributes::default()
                .with_replica(1)
                .with_fault_tolerance(true)
                .with_protocol(ProtocolId::http())
                .with_lifetime(Lifetime::RelativeTo(collector.id)),
        );
        sequences.push(seq);
    }
    // One genebase datum per sequence-affinity (the paper defines affinity
    // Genebase→Sequence; a single genebase with affinity to any sequence).
    let genebase = mk(&mut rng, "genebase", params.genebase_bytes);
    // Affinity targets one sequence class; model: genebase follows the first
    // sequence present on a host. We emulate the class by scheduling the
    // genebase with affinity to each host's sequence at sync time — in
    // Algorithm 1 terms each worker's Ψ contains a sequence, so a genebase
    // with affinity to *its* sequence follows. Simplest faithful encoding:
    // replica = −1 limited to hosts owning a sequence is what affinity
    // produces; since every worker gets exactly one sequence, the genebase
    // reaches every worker either way.
    ds.schedule(
        genebase.clone(),
        DataAttributes::default()
            .with_replica(REPLICA_ALL)
            .with_protocol(ProtocolId::bittorrent())
            .with_lifetime(Lifetime::RelativeTo(collector.id)),
    );

    let mut placed = 0usize;
    let mut assignments: Vec<Vec<String>> = Vec::with_capacity(n);
    for _ in &topo.workers {
        let uid = Auid::generate(1, &mut rng);
        let reply = ds.sync(uid, &[], 0);
        let names: Vec<String> = reply.download.iter().map(|(d, _)| d.name.clone()).collect();
        placed += names
            .iter()
            .filter(|nm| nm.starts_with("sequence-"))
            .count();
        assignments.push(names);
    }

    // --- Transfer phase --------------------------------------------------
    // Shared files (app + genebase) move together over the chosen protocol;
    // sequences ride HTTP from the service node (tiny).
    let shared_bytes = params.app_bytes + params.genebase_bytes;
    let transfer_times: Vec<f64> = match proto {
        BigFileProtocol::Ftp => {
            let mut sim = Sim::new(42);
            let out = run_ftp_star(
                &mut sim,
                &topo.net,
                topo.service,
                &topo.workers,
                shared_bytes,
                SimDuration::from_millis(150),
            );
            sim.run();
            let mut by_host = vec![0.0; n];
            for (host, at) in &out.borrow().completions {
                if let Some(idx) = topo.workers.iter().position(|w| w == host) {
                    by_host[idx] = at.as_secs_f64();
                }
            }
            by_host
        }
        BigFileProtocol::BitTorrent => {
            let peers: Vec<PeerLink> = topo
                .workers
                .iter()
                .map(|&w| {
                    let spec = &topo.pool.get(w).spec;
                    PeerLink {
                        down: spec.down_bw.min(params.bt_peer_cap),
                        up: spec.up_bw.min(params.bt_peer_cap),
                    }
                })
                .collect();
            let seed_up = topo.pool.get(topo.service).spec.up_bw;
            bt_fluid_completion(shared_bytes, seed_up, &peers, &params.bt_params)
        }
    };
    let seq_transfer =
        params.sequence_bytes / topo.pool.get(topo.service).spec.up_bw.min(1e9) + 0.15; // HTTP fetch + control setup

    // --- Unzip + execution -------------------------------------------------
    let per_worker: Vec<PhaseBreakdown> = topo
        .workers
        .iter()
        .enumerate()
        .map(|(i, &w)| {
            let cf = topo.pool.get(w).spec.compute_factor.max(0.05);
            PhaseBreakdown {
                transfer_secs: transfer_times[i] + seq_transfer,
                unzip_secs: params.genebase_bytes / (params.unzip_rate * cf),
                exec_secs: params.exec_secs / cf,
            }
        })
        .collect();
    let clusters = topo
        .workers
        .iter()
        .map(|&w| topo.pool.get(w).spec.cluster.clone())
        .collect();

    BlastReport {
        per_worker,
        clusters,
        placed_sequences: placed,
    }
}

/// Convenience: the Fig. 5 sweep point — total time for `workers` workers.
pub fn fig5_point(workers: usize, proto: BigFileProtocol, params: &BlastParams) -> f64 {
    let topo = topology::gdx_cluster(workers);
    run_blast(&topo, proto, params).total_secs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduler_places_one_sequence_per_worker() {
        let topo = topology::gdx_cluster(20);
        let report = run_blast(&topo, BigFileProtocol::Ftp, &BlastParams::default());
        assert_eq!(report.placed_sequences, 20);
        assert_eq!(report.per_worker.len(), 20);
    }

    #[test]
    fn ftp_grows_with_workers_bt_stays_flat() {
        let params = BlastParams::default();
        let ftp10 = fig5_point(10, BigFileProtocol::Ftp, &params);
        let ftp250 = fig5_point(250, BigFileProtocol::Ftp, &params);
        let bt10 = fig5_point(10, BigFileProtocol::BitTorrent, &params);
        let bt250 = fig5_point(250, BigFileProtocol::BitTorrent, &params);
        assert!(
            ftp250 > ftp10 * 5.0,
            "FTP scales with N: {ftp10:.0} → {ftp250:.0}"
        );
        assert!(bt250 < bt10 * 2.0, "BT nearly flat: {bt10:.0} → {bt250:.0}");
    }

    #[test]
    fn crossover_matches_paper() {
        // Fig. 5: at 10–20 workers FTP beats BitTorrent; by 50 the order
        // flips and the FTP gap keeps widening.
        let params = BlastParams::default();
        let at = |n, p| fig5_point(n, p, &params);
        assert!(
            at(10, BigFileProtocol::Ftp) < at(10, BigFileProtocol::BitTorrent),
            "FTP wins at 10 workers"
        );
        assert!(
            at(250, BigFileProtocol::BitTorrent) < at(250, BigFileProtocol::Ftp),
            "BT wins at 250 workers"
        );
    }

    #[test]
    fn fig6_breakdown_sums_and_clusters() {
        let topo = topology::grid5000(100);
        let report = run_blast(&topo, BigFileProtocol::BitTorrent, &BlastParams::default());
        let mean = report.cluster_mean("*").unwrap();
        assert!(mean.transfer_secs > 0.0 && mean.unzip_secs > 0.0 && mean.exec_secs > 0.0);
        // Slower cluster (grelon, 1.6 GHz Xeon) must show longer exec than
        // the faster sagittaire.
        let grelon = report.cluster_mean("grelon").unwrap();
        let sagittaire = report.cluster_mean("sagittaire").unwrap();
        assert!(grelon.exec_secs > sagittaire.exec_secs);
        assert!(report.cluster_mean("nonexistent").is_none());
    }

    #[test]
    fn bt_transfer_gain_is_large_at_400_nodes() {
        // Fig. 6: "using BitTorrent … can gain almost a factor 10 of time
        // for delivering computing data".
        let topo = topology::grid5000(400);
        let params = BlastParams::default();
        let ftp = run_blast(&topo, BigFileProtocol::Ftp, &params);
        let bt = run_blast(&topo, BigFileProtocol::BitTorrent, &params);
        let ftp_t = ftp.cluster_mean("*").unwrap().transfer_secs;
        let bt_t = bt.cluster_mean("*").unwrap().transfer_secs;
        let gain = ftp_t / bt_t;
        assert!(
            gain > 5.0,
            "transfer gain {gain:.1}× (ftp {ftp_t:.0}s, bt {bt_t:.0}s)"
        );
        // Unzip/exec identical across protocols.
        let fu = ftp.cluster_mean("*").unwrap().unzip_secs;
        let bu = bt.cluster_mean("*").unwrap().unzip_secs;
        assert!((fu - bu).abs() < 1e-9);
    }
}
