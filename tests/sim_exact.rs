//! The simulator's exact counts on two small deterministic scenarios.
//!
//! `ledger`'s `pinned.json` holds the 100k-host counts, but only the
//! benchmark checks them. This test holds the same kind of counts at a size
//! tier-1 runs in a debug build, so a refactor of the host side that moves
//! one heartbeat, one flow or one datagram fails here first.
//!
//! 1. `sim_churn`'s shape at 2 000 hosts: announce plane on, control
//!    traffic riding the service host's links, 1 % of the hosts dying
//!    silently at t = 40 s and the datagram path down t = 50..55 s.
//! 2. A small fan-out: one chunked blob pinned on a rack of seed hosts
//!    goes to every other host over 16:1 oversubscribed aggregation links.
//!
//! `Auid::generate` numbers the ids it mints from a process-wide counter,
//! so the counts hold only for scenarios built in this order, in a process
//! of their own: this file has one test.

use std::cell::RefCell;
use std::rc::Rc;

use bitdew::core::chunks::{ChunkDescriptor, ChunkManifest};
use bitdew::core::simdriver::{SimBitdew, SimSyncStats};
use bitdew::core::{Data, DataAttributes, REPLICA_ALL};
use bitdew::sim::{topology, HostId, Sim, SimDuration, SimTime, Trace};
use bitdew::util::Auid;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// What a scenario run leaves behind, compared whole.
#[derive(Debug, PartialEq, Eq)]
struct Counts {
    stats: SimSyncStats,
    syncs_served: u64,
    peer_chunk_flows: u64,
    events: u64,
    /// Virtual nanoseconds of the last copy (fan-out only).
    last_arrival_ns: u64,
    arrivals: usize,
}

fn counts(sim: &Sim, bd: &SimBitdew, last_arrival_ns: u64, arrivals: usize) -> Counts {
    Counts {
        stats: bd.sync_stats(),
        syncs_served: bd.syncs_served(),
        peer_chunk_flows: bd.peer_chunk_flows(),
        events: sim.events_executed(),
        last_arrival_ns,
        arrivals,
    }
}

fn churn(seed: u64) -> Counts {
    const HOSTS: usize = 2_000;
    const DATA: usize = 40;
    const REPLICA: i64 = 3;
    const DEATH_STRIDE: usize = 100;
    let topo = topology::gdx_datacenter(HOSTS, 40, 4.0);
    let mut sim = Sim::new(seed);
    let bd = SimBitdew::new(
        topo.net.clone(),
        topo.service,
        SimDuration::from_secs(1),
        Trace::new(),
    );
    bd.enable_announce(32, 128);
    bd.set_contended_control(&mut sim, true);
    let mut rng = SmallRng::seed_from_u64(seed);
    let data: Vec<Data> = (0..DATA)
        .map(|i| {
            Data::slot(
                Auid::generate(i as u64 + 1, &mut rng),
                format!("c{i}"),
                64_000,
            )
        })
        .collect();
    for d in &data {
        bd.schedule_data(
            d.clone(),
            DataAttributes::default()
                .with_replica(REPLICA)
                .with_fault_tolerance(true),
        );
    }
    for (i, &w) in topo.workers.iter().enumerate() {
        bd.add_node(&mut sim, w, SimTime::from_secs(i as u64 % 8));
    }
    let victims: Vec<HostId> = topo
        .workers
        .iter()
        .skip(seed as usize % DEATH_STRIDE)
        .step_by(DEATH_STRIDE)
        .copied()
        .collect();
    let (bd2, net) = (bd.clone(), topo.net.clone());
    sim.schedule_at(SimTime::from_secs(40), move |sim| {
        for &v in &victims {
            bd2.kill_host(sim, v);
            net.set_host_enabled(sim, v, false);
        }
    });
    let bd3 = bd.clone();
    sim.schedule_at(SimTime::from_secs(50), move |_| bd3.set_udp_up(false));
    let bd4 = bd.clone();
    sim.schedule_at(SimTime::from_secs(55), move |_| bd4.set_udp_up(true));
    sim.run_until(SimTime::from_secs(70));
    for d in &data {
        assert!(
            bd.owners_of(d.id).len() >= REPLICA as usize,
            "a fault-tolerant datum below its replica floor"
        );
    }
    counts(&sim, &bd, 0, 0)
}

fn fanout(seed: u64) -> Counts {
    const SEEDS: usize = 4;
    const DOWNLOADERS: usize = 40;
    const BLOB: u64 = 12_000_000;
    const CHUNK: u64 = 1_000_000;
    let topo = topology::gdx_datacenter(SEEDS + DOWNLOADERS, SEEDS, 16.0);
    let mut sim = Sim::new(seed);
    let bd = SimBitdew::new(
        topo.net.clone(),
        topo.service,
        SimDuration::from_secs(1),
        Trace::new(),
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    let data = Data::slot(Auid::generate(1, &mut rng), "blob", BLOB);
    bd.put_manifest(&ChunkManifest {
        data: data.id,
        chunk_size: CHUNK,
        total: BLOB,
        chunks: (0..BLOB.div_ceil(CHUNK))
            .map(|i| ChunkDescriptor {
                index: i as u32,
                len: CHUNK.min(BLOB - i * CHUNK) as u32,
                crc32: 0,
            })
            .collect(),
    });
    bd.schedule_data(
        data.clone(),
        DataAttributes::default().with_replica(REPLICA_ALL),
    );
    let arrivals = Rc::new(RefCell::new((0usize, SimTime::ZERO)));
    let seen = Rc::clone(&arrivals);
    bd.set_copy_hook(Box::new(move |sim, _, _| {
        let mut a = seen.borrow_mut();
        a.0 += 1;
        a.1 = sim.now();
    }));
    for (i, &w) in topo.workers.iter().enumerate() {
        if i < SEEDS {
            let uid = bd.add_node(&mut sim, w, SimTime::ZERO);
            bd.pin(data.id, uid);
        } else {
            bd.add_node(&mut sim, w, SimTime::from_millis(37 * i as u64 % 2_000));
        }
    }
    sim.run_until(SimTime::from_secs(60));
    let (count, last) = *arrivals.borrow();
    assert_eq!(count, DOWNLOADERS, "every downloader got the blob");
    counts(&sim, &bd, last.as_nanos(), count)
}

#[test]
fn simulator_counts_are_exact() {
    let churned = churn(1);
    let fanned = fanout(1);
    assert_eq!(
        churned,
        Counts {
            stats: SimSyncStats {
                tcp_syncs: 11_900,
                tcp_bytes: 14_302_080,
                announce_datagrams: 125_080,
                announce_bytes: 11_757_520,
                scrapes: 0,
                scrape_bytes: 0,
                fallback_syncs: 9_900,
                cache_evictions: 0,
                version_publishes: 0,
                version_bytes: 0,
            },
            syncs_served: 11_900,
            peer_chunk_flows: 0,
            events: 134_559,
            last_arrival_ns: 0,
            arrivals: 0,
        }
    );
    assert_eq!(
        fanned,
        Counts {
            stats: SimSyncStats {
                tcp_syncs: 2_628,
                tcp_bytes: 3_240_152,
                ..SimSyncStats::default()
            },
            syncs_served: 2_628,
            peer_chunk_flows: 320,
            events: 3_189,
            last_arrival_ns: 15_658_000_000,
            arrivals: 40,
        }
    );
}
