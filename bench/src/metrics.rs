//! Every metric the ledger reports, in one table: `BENCHMARK.json` is this
//! table printed (`ledger manifest`), and a test holds the two together.

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: reported by every workload under one name, with
/// the share of the parent's median it may worsen by.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// What each end-to-end name measures per workload is the `alias` a run
/// reports beside it (see `bench/README.md` for the table).
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "round_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_2",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_ms_tail",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A per-layer metric. `exact` marks a count the program makes that must
/// repeat bit for bit on one seed, whatever the machine.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub exact: bool,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer {
        name,
        unit,
        better,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// A metric reads 0 on a workload that does not exercise its layer.
pub const PER_LAYER: [Layer; 85] = [
    // Spans and counters of the threaded runtime's driver.
    layer("core.runtime.sync_once_busy_s", "s", Lower),
    layer("core.runtime.sync_once_calls", "count", Lower),
    layer("core.runtime.sync_once_us_p50", "us", Lower),
    layer("core.runtime.sync_once_us_p99", "us", Lower),
    layer("core.runtime.pump_idle_s", "s", Lower),
    layer("core.runtime.create_data_s", "s", Lower),
    layer("core.runtime.put_chunked_s", "s", Lower),
    layer("core.runtime.schedule_s", "s", Lower),
    layer("core.runtime.delete_purge_s", "s", Lower),
    layer("core.api.create_many_s", "s", Lower),
    layer("core.api.session_submit_s", "s", Lower),
    layer("core.api.session_join_s", "s", Lower),
    layer("core.api.ops_per_batch", "count", Higher),
    layer("core.shard.sync_items_examined", "count", Lower),
    layer("core.shard.sync_profiled_us", "us", Lower),
    layer("core.scheduler.sync_us", "us", Lower),
    layer("core.scheduler.schedule_us", "us", Lower),
    layer("core.catalog.register_us", "us", Lower),
    layer("core.catalog.registrations", "count", Lower),
    layer("core.transfer.completed", "count", Higher),
    layer("core.transfer.retries", "count", Lower),
    // Wrappers at the DbDriver and FileStore seams.
    layer("storage.engine.exec_calls", "count", Lower),
    layer("storage.engine.exec_busy_s", "s", Lower),
    layer("storage.engine.ops_per_exec", "count", Higher),
    layer("transport.store.read_calls", "count", Lower),
    layer("transport.store.read_bytes", "B", Lower),
    layer("transport.store.read_busy_s", "s", Lower),
    layer("transport.store.write_calls", "count", Lower),
    layer("transport.store.write_bytes", "B", Lower),
    layer("transport.store.write_busy_s", "s", Lower),
    layer("transport.store.bytes_per_user_byte", "B/B", Lower),
    // Probes.
    layer("storage.wal.append_us_never", "us", Lower),
    layer("storage.wal.append_us_everyappend", "us", Lower),
    layer("storage.db.put_us", "us", Lower),
    layer("storage.db.get_us", "us", Lower),
    layer("storage.pool.checkout_us", "us", Lower),
    layer("storage.codec_ns", "ns", Lower),
    layer("storage.crc32_MBps_1m", "MB/s", Higher),
    layer("storage.crc32_MBps_256k", "MB/s", Higher),
    layer("util.md5_MBps", "MB/s", Higher),
    layer("core.chunks.describe_MBps", "MB/s", Higher),
    layer("core.chunks.put_range_MBps", "MB/s", Higher),
    layer("core.chunks.fetch_MBps_1src", "MB/s", Higher),
    layer("core.chunks.fetch_MBps_2src", "MB/s", Higher),
    layer("core.chunks.requeued", "count", Lower),
    layer("transport.fabric.rtt_us", "us", Lower),
    layer("transport.ftp.range_MBps", "MB/s", Higher),
    layer("transport.http.range_MBps", "MB/s", Higher),
    layer("transport.ftp.retr_MBps", "MB/s", Higher),
    // The version plane.
    layer("core.versions.commit_update_us_p50", "us", Lower),
    layer("core.versions.commit_update_us_p99", "us", Lower),
    layer("core.versions.open_snapshot_us_p50", "us", Lower),
    layer("core.versions.get_range_at_us_p50", "us", Lower),
    layer("core.versions.gc_s", "s", Lower),
    layer("core.versions.cas_retries", "count", Lower),
    layer("core.versions.resolve_us", "us", Lower),
    // The simulator.
    layer("core.announce.codec_ns", "ns", Lower),
    layer("core.announce.hostcache_sweep_us", "us", Lower),
    exact("sim.engine.events", "count"),
    layer("sim.engine.events_per_s", "1/s", Higher),
    layer("sim.engine.empty_event_ns", "ns", Lower),
    layer("sim.engine.wall_per_virtual_s_p50", "s", Lower),
    layer("sim.engine.wall_per_virtual_s_max", "s", Lower),
    layer("sim.net.settle_us_at_100x1", "us", Lower),
    layer("sim.net.settle_us_at_10kx1", "us", Lower),
    layer("sim.net.settle_us_at_400x16", "us", Lower),
    layer("sim.net.bytes_delivered", "B", Lower),
    exact("sim.net.active_flows_peak", "count"),
    exact("core.simdriver.tcp_syncs", "count"),
    exact("core.simdriver.fallback_syncs", "count"),
    exact("core.simdriver.announce_datagrams", "count"),
    exact("core.simdriver.syncs_served", "count"),
    exact("core.simdriver.peer_chunk_flows", "count"),
    layer("core.simdriver.add_node_s", "s", Lower),
    // What a simulator's user reads off a run; a speed-up must leave both
    // untouched.
    exact("sim.virtual_makespan_s", "s"),
    exact("sim.control_bytes_per_host_round", "B"),
    // The traced run itself.
    layer("trace.spans", "count", Lower),
    layer("trace.wall_s", "s", Lower),
    layer("trace.round_s", "s", Lower),
    layer("trace.coverage_share", "share", Higher),
    layer("trace.setup_self_s", "s", Lower),
    layer("trace.round_self_s", "s", Lower),
    layer("trace.verify_self_s", "s", Lower),
    layer("trace.probes_s", "s", Lower),
    layer("trace.peak_rss_mb", "MB", Lower),
];

pub struct WorkloadWhy {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadWhy; 5] = [
    WorkloadWhy {
        name: "bulk_distribute",
        why: "large blobs to every worker: the data plane (digests, chunks, FTP/HTTP, stores) does the work, catalog and scheduler idle",
    },
    WorkloadWhy {
        name: "small_files",
        why: "many 256 B data: the command plane (pipeline, catalog, WAL, shard sync, scheduler) does the work, bytes negligible",
    },
    WorkloadWhy {
        name: "version_mix",
        why: "commits beside snapshot reads on one chunked datum: the chunk and store layers of bulk_distribute used for writes",
    },
    WorkloadWhy {
        name: "sim_churn",
        why: "100k-host churn with a datagram outage: simulator control plane, one giant FlowNet component during the outage",
    },
    WorkloadWhy {
        name: "sim_fanout",
        why: "one blob to 400 hosts over 16:1 oversubscribed links: simulator data plane, few hosts and dense link sharing",
    },
];

pub const RUN_SECONDS: u64 = 15;

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub fn per_layer(name: &str) -> Option<&'static Layer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// `BENCHMARK.json`, from the tables above.
pub fn manifest() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "bench/Cargo.toml",
        "--",
        "bench",
    ];
    Json::obj(vec![
        (
            "command",
            Json::Arr(command.into_iter().map(Json::str).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("bench")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj(vec![("name", Json::str(w.name)), ("why", Json::str(w.why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A name as `BENCHMARK.json` allows it.
    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    #[test]
    fn tables_meet_the_manifest_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "every name is used once");
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(PER_LAYER.len() <= 128);
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for u in units {
            assert!(
                u.len() <= 16
                    && u.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        assert!(!valid_name("") && !valid_name("-x") && !valid_name("a b") && !valid_name("µs"));
    }

    #[test]
    fn committed_manifest_is_this_table() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            crate::json::parse(committed).expect("BENCHMARK.json parses"),
            manifest(),
            "regenerate with `ledger manifest > BENCHMARK.json`"
        );
        assert_eq!(
            WORKLOADS.map(|w| w.name),
            crate::workloads::NAMES,
            "the registry and the workload table agree"
        );
    }
}
