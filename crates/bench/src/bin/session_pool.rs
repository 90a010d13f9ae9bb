//! Shared executor pool scaling: per-op cost at 1 / 100 / 10 000 sessions.
//!
//! PR 5 gave every background `Session` a dedicated executor thread —
//! fine for tens of sessions, fatal for the million-session north star.
//! The PR 7 tentpole multiplexes every background session over one
//! fixed work-stealing worker set (`ExecutorPool`), so a process's
//! thread count stays flat no matter how many sessions register.
//!
//! The harness drives a burst workload against an in-process plane: each
//! session receives bursts of `K` slot `put`s (one group-commit batch),
//! sweeping the session count while the worker set stays fixed, then
//! re-runs the 1- and 100-session points on the PR 5 dedicated-thread
//! shape for comparison. Every point runs the same work: `K` puts to each
//! of as many slot data as the widest point has sessions, with the same
//! payload; only the number of sessions the puts are spread over changes
//! (one session takes the slots in turn, 10 000 sessions one slot each).
//! Two acceptance criteria (asserted in every mode):
//!
//! * **flat cost** — per-op cost at 10 000 pooled sessions stays within
//!   **2×** of the 1-session cost (the registration table, injector, and
//!   wakeup path must not degrade with registered-session count). The
//!   points share their data set so that the ratio reads the session
//!   count, not the difference between rewriting one hot datum and
//!   writing many cold ones;
//! * **no regression vs dedicated threads** — at 100 sessions the pool
//!   sustains **≥ 0.9×** the ops/sec of 100 dedicated executor threads.
//!
//! Results land in `BENCH_session_pool.json` beside the human-readable
//! table.
//!
//! Run with: `cargo run --release -p bitdew-bench --bin session_pool`
//! (`-- --smoke` for the CI-sized run).

use std::sync::Arc;
use std::time::Instant;

use bitdew_bench::{print_table, section};
use bitdew_core::api::{ExecutorConfig, ExecutorPool, Session};
use bitdew_core::{BitdewNode, Data, RuntimeConfig, ServiceContainer};

struct Params {
    /// Session counts swept on the shared pool. The widest sets the data
    /// set: one slot datum per session at that point.
    pool_scales: &'static [usize],
    /// Session counts re-run with dedicated per-session threads.
    dedicated_scales: &'static [usize],
    /// Ops per session per round — one group-commit burst — and puts per
    /// slot datum.
    burst: usize,
    /// Payload bytes per put.
    payload: usize,
}

impl Params {
    fn full() -> Params {
        Params {
            pool_scales: &[1, 100, 10_000],
            dedicated_scales: &[1, 100],
            burst: 16,
            payload: 64,
        }
    }

    fn smoke() -> Params {
        Params {
            pool_scales: &[1, 100, 10_000],
            dedicated_scales: &[1, 100],
            burst: 4,
            payload: 64,
        }
    }

    /// Slot data every point writes: one per session at the widest point.
    fn slots(&self) -> usize {
        self.pool_scales.iter().copied().max().unwrap_or(1)
    }
}

struct Measurement {
    sessions: usize,
    total_ops: usize,
    ops_per_sec: f64,
    per_op_us: f64,
    /// Worker threads serving the drain (pool size, or one per session).
    threads: usize,
}

/// The slot data of one point, so repeated puts are valid at any round
/// count and an order violation would be observable as a torn readback.
fn make_slots(node: &Arc<BitdewNode>, n: usize, len: u64, tag: &str) -> Vec<Data> {
    (0..n)
        .map(|i| {
            node.create_slot(&format!("sp.{tag}.{i}"), len)
                .expect("create_slot")
        })
        .collect()
}

/// Drive `burst` puts to each of [`Params::slots`] slot data over
/// `sessions` sessions and wait for every future; returns the measured
/// rates. Round `r` gives session `s` a burst on slot `r × sessions + s`,
/// so every point puts the same bytes to the same data set in the same
/// per-slot order.
fn run_scale(p: &Params, sessions: usize, config: &dyn Fn() -> ExecutorConfig) -> Measurement {
    let c = ServiceContainer::start(RuntimeConfig::default());
    let node = BitdewNode::new_client(Arc::clone(&c));
    let slots = make_slots(&node, p.slots(), p.payload as u64, &format!("s{sessions}"));
    let sxs: Vec<_> = (0..sessions)
        .map(|_| {
            let s = Session::with_batch_limit(Arc::clone(&node), p.burst.max(4));
            assert!(s.start_executor_with(config()).expect("executor"));
            s
        })
        .collect();

    assert_eq!(slots.len() % sessions, 0, "sessions divide the data set");
    let rounds = slots.len() / sessions;
    let total_ops = slots.len() * p.burst;
    let payload = vec![0x5a; p.payload];
    let mut futures = Vec::with_capacity(total_ops);
    let started = Instant::now();
    for round in 0..rounds {
        for (si, session) in sxs.iter().enumerate() {
            let slot = &slots[round * sessions + si];
            for _ in 0..p.burst {
                futures.push(session.put(slot, &payload));
            }
        }
    }
    for fut in futures {
        fut.wait().expect("pooled op resolved");
    }
    let elapsed = started.elapsed();

    let threads = match config() {
        ExecutorConfig::Pool(pool) => pool.workers(),
        _ => sessions,
    };
    for s in &sxs {
        s.stop_executor();
    }
    Measurement {
        sessions,
        total_ops,
        ops_per_sec: total_ops as f64 / elapsed.as_secs_f64(),
        per_op_us: elapsed.as_secs_f64() * 1e6 / total_ops as f64,
        threads,
    }
}

fn rows(ms: &[Measurement]) -> Vec<Vec<String>> {
    ms.iter()
        .map(|m| {
            vec![
                m.sessions.to_string(),
                m.threads.to_string(),
                m.total_ops.to_string(),
                format!("{:.0}", m.ops_per_sec),
                format!("{:.2}", m.per_op_us),
            ]
        })
        .collect()
}

fn json_entries(ms: &[Measurement]) -> String {
    let entries: Vec<String> = ms
        .iter()
        .map(|m| {
            format!(
                "{{\"sessions\":{},\"threads\":{},\"total_ops\":{},\
                 \"ops_per_sec\":{:.1},\"per_op_us\":{:.3}}}",
                m.sessions, m.threads, m.total_ops, m.ops_per_sec, m.per_op_us
            )
        })
        .collect();
    entries.join(",")
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let p = if smoke {
        Params::smoke()
    } else {
        Params::full()
    };
    println!(
        "# session_pool — shared executor pool vs dedicated threads{}",
        if smoke { " (smoke)" } else { "" }
    );

    let pool = ExecutorPool::with_workers(
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .max(2),
    )
    .expect("pool");
    println!(
        "\npool: {} workers, burst {} ops/session, {} slot data × {} puts per point",
        pool.workers(),
        p.burst,
        p.slots(),
        p.burst
    );

    section("shared pool, session-count sweep");
    let pooled: Vec<Measurement> = p
        .pool_scales
        .iter()
        .map(|&s| run_scale(&p, s, &|| ExecutorConfig::Pool(Arc::clone(&pool))))
        .collect();
    print_table(
        &["sessions", "threads", "ops", "ops/sec", "µs/op"],
        &rows(&pooled),
    );
    println!(
        "\npool counters: {} drains, {} steals across the sweep",
        pool.drains(),
        pool.steals()
    );

    section("dedicated thread per session (the PR 5 shape)");
    let dedicated: Vec<Measurement> = p
        .dedicated_scales
        .iter()
        .map(|&s| run_scale(&p, s, &|| ExecutorConfig::Dedicated))
        .collect();
    print_table(
        &["sessions", "threads", "ops", "ops/sec", "µs/op"],
        &rows(&dedicated),
    );

    // Criterion 1: per-op cost stays flat as registered sessions grow.
    let base = &pooled[0];
    let widest = pooled.last().expect("sweep non-empty");
    let cost_ratio = widest.per_op_us / base.per_op_us;
    println!(
        "\nper-op cost {} sessions vs 1: {:.2}× (criterion: ≤ 2×)",
        widest.sessions, cost_ratio
    );

    // Criterion 2: pooling costs ≤10% throughput vs dedicated threads at
    // the scale where dedicated threads are still viable.
    let pool_100 = pooled
        .iter()
        .find(|m| m.sessions == 100)
        .expect("100-session pool point");
    let ded_100 = dedicated
        .iter()
        .find(|m| m.sessions == 100)
        .expect("100-session dedicated point");
    let vs_dedicated = pool_100.ops_per_sec / ded_100.ops_per_sec;
    println!("pool vs dedicated at 100 sessions: {vs_dedicated:.2}× (criterion: ≥ 0.9×)");

    let json = format!(
        "{{\"bench\":\"session_pool\",\"smoke\":{},\"pool_workers\":{},\
         \"burst\":{},\"pooled\":[{}],\"dedicated\":[{}],\
         \"cost_ratio_widest_vs_1\":{:.3},\"pool_vs_dedicated_at_100\":{:.3}}}",
        smoke,
        pool.workers(),
        p.burst,
        json_entries(&pooled),
        json_entries(&dedicated),
        cost_ratio,
        vs_dedicated
    );
    std::fs::write("BENCH_session_pool.json", format!("{json}\n")).expect("write bench json");
    println!("\nwrote BENCH_session_pool.json");

    assert!(
        cost_ratio <= 2.0,
        "per-op cost must stay flat as sessions grow: {} sessions cost \
         {cost_ratio:.2}× the 1-session baseline (limit 2×)",
        widest.sessions
    );
    assert!(
        vs_dedicated >= 0.9,
        "the shared pool must not regress throughput vs dedicated threads: \
         got {vs_dedicated:.2}× at 100 sessions (floor 0.9×)"
    );
    println!("session_pool: PASS");
}
