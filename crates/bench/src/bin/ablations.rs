//! Ablations over four design choices:
//!
//! 1. **`MaxDataSchedule`** — Algorithm 1's per-sync download cap trades
//!    per-heartbeat burst size against convergence rounds.
//! 2. **DHT arity k** — DKS's k-ary search: higher arity, shorter routes,
//!    bigger routing tables.
//! 3. **Connection-pool size** — the DBCP axis beyond Table 2's on/off.
//! 4. **BitTorrent seed uplink** — the distinct-bytes frontier: a starved
//!    seed bounds the whole swarm.

use bitdew_bench::{print_table, section};
use bitdew_core::services::scheduler::DataScheduler;
use bitdew_core::{Data, DataAttributes};
use bitdew_dht::{build_overlay, DhtConfig, RingPos};
use bitdew_storage::{ConnectionPool, DbOp, DewDb, EmbeddedDriver};
use bitdew_transport::simproto::{bt_fluid_makespan, BtFluidParams, PeerLink};
use bitdew_util::Auid;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

fn ablate_max_data_schedule() {
    section("Ablation 1 — MaxDataSchedule: rounds to fill one reservoir with 64 data");
    let mut rows = Vec::new();
    for cap in [1usize, 4, 16, 64] {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut ds = DataScheduler::new(u64::MAX, cap);
        for i in 0..64 {
            let d = Data::slot(Auid::generate(i + 1, &mut rng), format!("d{i}"), 1);
            ds.schedule(d, DataAttributes::default());
        }
        let host = Auid::generate(1000, &mut rng);
        let mut cache: Vec<bitdew_core::DataId> = Vec::new();
        let mut rounds = 0;
        while cache.len() < 64 {
            let reply = ds.sync(host, &cache, rounds);
            for (d, _) in &reply.download {
                cache.push(d.id);
            }
            rounds += 1;
            assert!(rounds < 1000, "diverged");
        }
        rows.push(vec![cap.to_string(), rounds.to_string()]);
    }
    print_table(&["MaxDataSchedule", "sync rounds"], &rows);
}

fn ablate_dht_arity() {
    section("Ablation 2 — DKS arity k: mean route length, 512-node overlay");
    let mut rows = Vec::new();
    for arity in [2u32, 4, 8, 16] {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut overlay = build_overlay(
            DhtConfig {
                arity,
                replication: 2,
            },
            512,
            &mut rng,
        );
        let members = overlay.members();
        let mut hops = 0usize;
        let samples = 400;
        for _ in 0..samples {
            let origin = members[rng.gen_range(0..members.len())];
            let key = RingPos(rng.gen());
            hops += overlay.get(origin, key).expect("route").hops();
        }
        rows.push(vec![
            arity.to_string(),
            format!("{:.2}", hops as f64 / samples as f64),
        ]);
    }
    print_table(&["arity k", "mean hops"], &rows);
    println!("(log_k 512: k=2 → 9, k=4 → 4.5, k=8 → 3, k=16 → 2.25)");
}

fn ablate_pool_size() {
    section("Ablation 3 — connection pool size vs. throughput (8 client threads)");
    let mut rows = Vec::new();
    for size in [1usize, 2, 4, 8] {
        let driver = Arc::new(EmbeddedDriver::new(DewDb::in_memory()));
        let pool = ConnectionPool::new(driver, size);
        let start = Instant::now();
        std::thread::scope(|s| {
            for t in 0..8u32 {
                let pool = Arc::clone(&pool);
                s.spawn(move || {
                    for i in 0..2000u32 {
                        let mut c = pool.checkout().expect("checkout");
                        c.exec(DbOp::Put {
                            table: "t",
                            key: (t * 10_000 + i).to_le_bytes().to_vec(),
                            value: b"v".to_vec(),
                        })
                        .expect("put");
                    }
                });
            }
        });
        let secs = start.elapsed().as_secs_f64();
        rows.push(vec![size.to_string(), format!("{:.0} kop/s", 16.0 / secs)]);
    }
    print_table(&["pool size", "throughput"], &rows);
}

fn ablate_bt_seed_uplink() {
    section("Ablation 4 — BitTorrent seed uplink vs. swarm makespan (100 MB, 100 peers)");
    let peers = vec![
        PeerLink {
            down: 125.0e6,
            up: 125.0e6
        };
        100
    ];
    let params = BtFluidParams {
        startup_secs: 0.0,
        ..Default::default()
    };
    let mut rows = Vec::new();
    for seed_mbps in [1.0f64, 10.0, 100.0, 1000.0] {
        let t = bt_fluid_makespan(100.0e6, seed_mbps * 125_000.0, &peers, &params);
        rows.push(vec![format!("{seed_mbps:.0} Mbps"), format!("{t:.1} s")]);
    }
    print_table(&["seed uplink", "makespan"], &rows);
    println!("(the distinct-bytes frontier: the seed must upload one full copy)");
}

fn main() {
    ablate_max_data_schedule();
    ablate_dht_arity();
    ablate_pool_size();
    ablate_bt_seed_uplink();
}
