//! The five workloads and what they share: the round loop, seeded input
//! bytes, the threaded cluster and its pump.

pub mod bulk;
pub mod churn;
pub mod fanout;
pub mod pinned;
pub mod small;
pub mod versions;

use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bitdew_core::services::catalog::DbAccess;
use bitdew_core::{BitdewNode, DataId, RuntimeConfig, ServiceContainer};
use bitdew_storage::{ConnectionPool, DbDriver, DewDb, EmbeddedDriver};
use bitdew_transport::{Fabric, FileStore, MemStore};

use crate::stats;
use crate::trace::Tracer;
use crate::wrap::{CountingDriver, CountingStore, DbCounters, StoreCounters};

pub const NAMES: [&str; 5] = [
    "bulk_distribute",
    "small_files",
    "version_mix",
    "sim_churn",
    "sim_fanout",
];

pub type Run = fn(&Ctx) -> Result<Outcome, String>;

pub fn by_name(name: &str) -> Option<Run> {
    match name {
        "bulk_distribute" => Some(bulk::run),
        "small_files" => Some(small::run),
        "version_mix" => Some(versions::run),
        "sim_churn" => Some(churn::run),
        "sim_fanout" => Some(fanout::run),
        _ => None,
    }
}

/// What one run is given.
pub struct Ctx<'a> {
    pub seed: u64,
    /// How long to measure: rounds repeat until their timed regions add up
    /// to this.
    pub seconds: f64,
    pub tracer: &'a Tracer,
    /// A directory of this run's own for on-disk state (removed afterwards).
    pub scratch: PathBuf,
}

/// One end-to-end metric of one run: the name `BENCHMARK.json` gives it on
/// every workload, and what that name measures on this one.
pub struct E2e {
    pub name: &'static str,
    pub alias: &'static str,
    pub value: f64,
}

/// What one run reports. Every number is from runs whose outputs were
/// checked; a failed check is an `Err` instead.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub rounds: u64,
    /// One sample per set-up performed.
    pub setup_s: Vec<f64>,
    pub e2e: Vec<E2e>,
    /// Per-layer counters and span-derived numbers of this run.
    pub layer: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn e2e(&mut self, name: &'static str, alias: &'static str, value: f64) {
        self.e2e.push(E2e { name, alias, value });
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layer.push((name, value));
    }
}

/// The round loop: `round` runs one fixed unit of work and returns the
/// wall seconds of its timed region. Rounds repeat while the next one is
/// expected to fit in `seconds`, and at least `min_rounds` times.
pub fn run_rounds(
    seconds: f64,
    min_rounds: usize,
    mut round: impl FnMut(u64) -> Result<f64, String>,
) -> Result<Vec<f64>, String> {
    let mut timed = Vec::new();
    loop {
        timed.push(round(timed.len() as u64)?);
        let spent: f64 = timed.iter().sum();
        if timed.len() >= min_rounds && spent + stats::median(&timed) > seconds {
            return Ok(timed);
        }
    }
}

/// SplitMix64: the benchmark's only source of input bytes and schedules.
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream of its own for each `(seed, stream)` pair.
    pub fn new(seed: u64, stream: u64) -> SplitMix {
        let mut s = SplitMix(seed ^ stream.wrapping_mul(0xD605_BBB5_8C8A_BC2D));
        s.next();
        s
    }

    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        let mut chunks = out.chunks_exact_mut(8);
        for c in &mut chunks {
            c.copy_from_slice(&self.next().to_le_bytes());
        }
        let tail = self.next().to_le_bytes();
        let rest = chunks.into_remainder();
        rest.copy_from_slice(&tail[..rest.len()]);
        out
    }
}

/// The trait seams a traced run wraps with counters; an untraced run gets
/// the plain stores and drivers and reports nothing.
pub struct Seams {
    traced: bool,
    store: Arc<StoreCounters>,
    db: Arc<DbCounters>,
}

fn count(counter: &AtomicU64) -> f64 {
    counter.load(Relaxed) as f64
}

impl Seams {
    pub fn new(traced: bool) -> Seams {
        Seams {
            traced,
            store: Arc::default(),
            db: Arc::default(),
        }
    }

    fn store(&self) -> Arc<dyn FileStore> {
        let mem: Arc<dyn FileStore> = MemStore::new();
        if self.traced {
            CountingStore::wrap(mem, &self.store)
        } else {
            mem
        }
    }

    fn driver(&self, db: DewDb) -> Arc<dyn DbDriver> {
        let driver: Arc<dyn DbDriver> = Arc::new(EmbeddedDriver::new(db));
        if self.traced {
            CountingDriver::wrap(driver, &self.db)
        } else {
            driver
        }
    }

    /// `transport.store.*` of a traced run; `user_bytes` is what the
    /// workload's user asked to have stored.
    pub fn report_store(&self, out: &mut Outcome, user_bytes: u64) {
        if !self.traced {
            return;
        }
        let c = &self.store;
        out.layer("transport.store.read_calls", count(&c.read_calls));
        out.layer("transport.store.read_bytes", count(&c.read_bytes));
        out.layer("transport.store.read_busy_s", count(&c.read_busy_ns) / 1e9);
        out.layer("transport.store.write_calls", count(&c.write_calls));
        out.layer("transport.store.write_bytes", count(&c.write_bytes));
        out.layer(
            "transport.store.write_busy_s",
            count(&c.write_busy_ns) / 1e9,
        );
        out.layer(
            "transport.store.bytes_per_user_byte",
            count(&c.write_bytes) / user_bytes.max(1) as f64,
        );
    }

    /// `storage.engine.*` of a traced run.
    pub fn report_db(&self, out: &mut Outcome) {
        if !self.traced {
            return;
        }
        let c = &self.db;
        out.layer("storage.engine.exec_calls", count(&c.exec_calls));
        out.layer("storage.engine.exec_busy_s", count(&c.busy_ns) / 1e9);
        out.layer(
            "storage.engine.ops_per_exec",
            count(&c.ops) / count(&c.exec_calls).max(1.0),
        );
    }
}

/// How a cluster's catalog databases are opened.
pub enum Catalog {
    /// In-memory DewDB per shard (the runtime's default engine).
    InMemory,
    /// On-disk DewDB per shard under this directory, flushed every append.
    OnDisk(PathBuf),
}

/// One service container plus `workers` reservoir nodes and a client, all
/// in this process. Load shape for every threaded workload: the driver
/// thread pumps `sync_once` itself; `max_concurrent_downloads: 1` × 2
/// workers matches the box's cores, and the 2 s heartbeat only keeps the
/// 3×-heartbeat failure detector from declaring a pumped node dead.
pub struct Cluster {
    pub container: Arc<ServiceContainer>,
    pub client: Arc<BitdewNode>,
    pub workers: Vec<Arc<BitdewNode>>,
}

pub const WORKERS: usize = 2;

impl Cluster {
    pub fn start(
        shards: usize,
        workers: usize,
        catalog: Catalog,
        seams: &Seams,
    ) -> Result<Cluster, String> {
        let config = RuntimeConfig {
            heartbeat: Duration::from_secs(2),
            max_concurrent_downloads: 1,
            shards: NonZeroUsize::new(shards).ok_or("shards must be positive")?,
            ..RuntimeConfig::default()
        };
        // Opening a database can fail; the factory the container takes
        // cannot, so open first.
        let mut drivers: Vec<Arc<dyn DbDriver>> = Vec::new();
        for shard in 0..shards {
            let db = match &catalog {
                Catalog::InMemory => DewDb::in_memory(),
                Catalog::OnDisk(dir) => DewDb::open(
                    dir.join(format!("shard{shard}")),
                    bitdew_storage::SyncPolicy::EveryAppend,
                )
                .map_err(|e| format!("open catalog db: {e}"))?,
            };
            drivers.push(seams.driver(db));
        }
        let container =
            ServiceContainer::start_with_db(Fabric::new(), seams.store(), config, |shard| {
                DbAccess::Pooled(ConnectionPool::new(Arc::clone(&drivers[shard]), 8))
            });
        let client = BitdewNode::new_client(Arc::clone(&container));
        let workers = (0..workers)
            .map(|_| BitdewNode::with_store(Arc::clone(&container), seams.store()))
            .collect();
        Ok(Cluster {
            container,
            client,
            workers,
        })
    }

    /// Whether every worker holds `id` in its cache and is in Ω(`id`). Ω
    /// alone is not delivery: Algorithm 1 adds a host when it assigns the
    /// datum, before a byte has moved.
    pub fn all_hold(&self, id: DataId) -> bool {
        let owners = self.container.owners_of(id);
        self.workers
            .iter()
            .all(|w| w.has_cached(id) && owners.contains(&w.uid))
    }
}

/// The closed-loop pump: one `sync_once` on every worker, then `done`; a
/// short sleep when not done, so the fetch threads get the cores. Gives up
/// (`false`) at `deadline`.
pub struct Pump<'a> {
    tracer: &'a Tracer,
    sync_us: Vec<f64>,
    idle_s: f64,
    items_examined: u64,
}

impl<'a> Pump<'a> {
    pub fn new(tracer: &'a Tracer) -> Pump<'a> {
        Pump {
            tracer,
            sync_us: Vec::new(),
            idle_s: 0.0,
            items_examined: 0,
        }
    }

    pub fn until(
        &mut self,
        cluster: &Cluster,
        round: u64,
        deadline: Duration,
        mut done: impl FnMut() -> bool,
    ) -> bool {
        let start = Instant::now();
        loop {
            for w in &cluster.workers {
                let (_, secs) = self
                    .tracer
                    .time("core.runtime.sync_once", round, || w.sync_once());
                self.sync_us.push(secs * 1e6);
                // Reading the profile clones it: a traced run's cost only.
                if self.tracer.enabled() {
                    let examined: usize = w.last_sync_profile().per_shard.iter().sum();
                    self.items_examined += examined as u64;
                }
            }
            if done() {
                return true;
            }
            if start.elapsed() > deadline {
                return false;
            }
            let (_, secs) = self.tracer.time("core.runtime.pump_idle", round, || {
                std::thread::sleep(Duration::from_micros(500))
            });
            self.idle_s += secs;
        }
    }

    pub fn report(&self, out: &mut Outcome) {
        out.layer(
            "core.runtime.sync_once_busy_s",
            self.sync_us.iter().sum::<f64>() / 1e6,
        );
        out.layer("core.runtime.sync_once_calls", self.sync_us.len() as f64);
        out.layer(
            "core.runtime.sync_once_us_p50",
            stats::percentile(&self.sync_us, 50.0),
        );
        out.layer(
            "core.runtime.sync_once_us_p99",
            stats::percentile(&self.sync_us, 99.0),
        );
        out.layer("core.runtime.pump_idle_s", self.idle_s);
        out.layer("core.shard.sync_items_examined", self.items_examined as f64);
    }
}

/// Median and tail of a pooled latency sample, as the two latency slots
/// every workload fills. The tail's level is fixed per workload — the
/// highest its sample count is designed to support — and refused when the
/// sample has fewer than ten values beyond it.
pub fn latencies(
    out: &mut Outcome,
    samples_ms: &[f64],
    p50: &'static str,
    tail: &'static str,
    tail_level: f64,
) -> Result<(), String> {
    if stats::supported_level(samples_ms.len()) < tail_level {
        return Err(format!(
            "{tail} needs more than {} samples",
            samples_ms.len()
        ));
    }
    out.e2e("latency_ms_p50", p50, stats::percentile(samples_ms, 50.0));
    out.e2e(
        "latency_ms_tail",
        tail,
        stats::percentile(samples_ms, tail_level),
    );
    Ok(())
}

/// The counts both sim workloads read off the driver after a round.
pub fn driver_counts(
    sim: &bitdew_sim::Sim,
    bd: &bitdew_core::simdriver::SimBitdew,
    net: &bitdew_sim::FlowNet,
) -> Vec<(&'static str, f64)> {
    let stats = bd.sync_stats();
    vec![
        ("sim.engine.events", sim.events_executed() as f64),
        ("core.simdriver.tcp_syncs", stats.tcp_syncs as f64),
        ("core.simdriver.fallback_syncs", stats.fallback_syncs as f64),
        (
            "core.simdriver.announce_datagrams",
            stats.announce_datagrams as f64,
        ),
        ("core.simdriver.syncs_served", bd.syncs_served() as f64),
        (
            "core.simdriver.peer_chunk_flows",
            bd.peer_chunk_flows() as f64,
        ),
        ("sim.net.bytes_delivered", net.bytes_delivered()),
    ]
}

/// Set-ups each round of a sim workload times. The scenario is
/// deterministic, so every set-up builds the same one; all but the last
/// are dropped unused.
const SIM_SETUPS: usize = 3;
/// Slices of a round that count as its heaviest.
const HEAVIEST: usize = 5;

/// What the two sim workloads log the same way: the wall time of each
/// slice of virtual time stepped through, and each round's rates.
pub struct SimLog {
    slice: bitdew_sim::SimDuration,
    wall_ms: Vec<f64>,
    /// Each round's mean over its `HEAVIEST` heaviest slices.
    heaviest_ms: Vec<f64>,
    flows_peak: usize,
    event_rate: Vec<f64>,
    virtual_rate: Vec<f64>,
}

impl SimLog {
    pub fn new(slice_ms: u64) -> SimLog {
        SimLog {
            slice: bitdew_sim::SimDuration::from_millis(slice_ms),
            wall_ms: Vec::new(),
            heaviest_ms: Vec::new(),
            flows_peak: 0,
            event_rate: Vec::new(),
            virtual_rate: Vec::new(),
        }
    }

    /// Build the scenario, timing every set-up into `out.setup_s`.
    pub fn set_up<S>(
        &self,
        tracer: &Tracer,
        round: u64,
        out: &mut Outcome,
        set_up: impl Fn() -> S,
    ) -> S {
        let mut scenario = None;
        for _ in 0..SIM_SETUPS {
            drop(scenario.take());
            let (s, secs) = tracer.time("setup", round, &set_up);
            out.setup_s.push(secs);
            scenario = Some(s);
        }
        scenario.expect("at least one set-up")
    }

    /// One round: step `sim` slice by slice until `done`, timing each
    /// slice. Returns the round's wall seconds.
    pub fn run(
        &mut self,
        tracer: &Tracer,
        round: u64,
        sim: &mut bitdew_sim::Sim,
        net: &bitdew_sim::FlowNet,
        mut done: impl FnMut(&bitdew_sim::Sim) -> bool,
    ) -> f64 {
        let first = self.wall_ms.len();
        let (_, wall) = tracer.time("round", round, || {
            let mut n = 0;
            while !done(sim) {
                let until = sim.now() + self.slice;
                let (_, secs) = tracer.time("sim.engine.run_until", n, || sim.run_until(until));
                self.wall_ms.push(secs * 1e3);
                self.flows_peak = self.flows_peak.max(net.active_flows());
                n += 1;
            }
        });
        let mut slices = self.wall_ms[first..].to_vec();
        slices.sort_by(|a, b| b.total_cmp(a));
        slices.truncate(HEAVIEST);
        self.heaviest_ms
            .push(slices.iter().sum::<f64>() / slices.len().max(1) as f64);
        self.event_rate.push(sim.events_executed() as f64 / wall);
        self.virtual_rate.push(sim.now().as_secs_f64() / wall);
        wall
    }

    /// The end-to-end metrics and `sim.engine.*` numbers both workloads
    /// report. A slice is a fixed unit of deterministic work, not a draw
    /// from a distribution, and most are idle but for heartbeats: the two
    /// latency slots are the median slice and the mean of the `HEAVIEST`
    /// heaviest (in `sim_churn` the five seconds of the outage, in
    /// `sim_fanout` the seconds the downloaders start and finish in).
    pub fn report(&self, out: &mut Outcome, rounds: &[f64]) {
        let events_per_s = stats::median(&self.event_rate);
        out.rounds = rounds.len() as u64;
        out.e2e("round_s", "sim_wall_s", stats::median(rounds));
        out.e2e("throughput", "events_per_s", events_per_s);
        out.e2e(
            "throughput_2",
            "virtual_s_per_wall_s",
            stats::median(&self.virtual_rate),
        );
        out.e2e(
            "latency_ms_p50",
            "virtual_s_wall_ms_p50",
            stats::percentile(&self.wall_ms, 50.0),
        );
        out.e2e(
            "latency_ms_tail",
            "virtual_s_wall_ms_heaviest5",
            stats::median(&self.heaviest_ms),
        );
        let per_virtual_s = |ms: f64| ms / 1e3 / self.slice.as_secs_f64();
        out.layer("sim.engine.events_per_s", events_per_s);
        out.layer(
            "sim.engine.wall_per_virtual_s_p50",
            per_virtual_s(stats::percentile(&self.wall_ms, 50.0)),
        );
        out.layer(
            "sim.engine.wall_per_virtual_s_max",
            per_virtual_s(self.wall_ms.iter().copied().fold(0.0, f64::max)),
        );
        out.layer("sim.net.active_flows_peak", self.flows_peak as f64);
        let last_setup_s = out.setup_s.last().copied().unwrap_or(0.0);
        out.layer("core.simdriver.add_node_s", last_setup_s);
    }
}
