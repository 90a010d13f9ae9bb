//! `sim_churn`: the simulator's control plane at the north-star scale —
//! the `net_contention` churn scenario on 100 000 hosts. Nodes join over
//! 8 s, 1 % die silently at t = 40, the datagram path is down t = 50..55
//! (every announce round degrades to a TCP sync riding the service host's
//! links as a flow: one giant `FlowNet` component), horizon 70 virtual s.
//! Single-threaded by construction; one scenario is one round.

use bitdew_core::simdriver::SimBitdew;
use bitdew_core::{Data, DataAttributes};
use bitdew_sim::{topology, HostId, Sim, SimDuration, SimTime, Trace};
use bitdew_util::Auid;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use super::{driver_counts, pinned, run_rounds, Ctx, Outcome, SimLog};

const HOSTS: usize = 100_000;
const HOSTS_PER_RACK: usize = 40;
const OVERSUB: f64 = 4.0;
const DATA: usize = 200;
const DATA_BYTES: u64 = 64_000;
const REPLICA: i64 = 3;
const JOIN_SPREAD_S: u64 = 8;
const DEATHS_AT_S: u64 = 40;
/// One host in this many dies.
const DEATH_STRIDE: usize = 100;
const OUTAGE_S: (u64, u64) = (50, 55);
const HORIZON_S: u64 = 70;
/// Every host heartbeats on the whole second, so a virtual second is the
/// finest slice with work in it: 70 wall-time samples a scenario.
const SLICE_MS: u64 = 1_000;

struct Scenario {
    sim: Sim,
    bd: SimBitdew,
    net: bitdew_sim::FlowNet,
    data: Vec<Data>,
    victims: usize,
}

fn set_up(seed: u64) -> Scenario {
    let topo = topology::gdx_datacenter(HOSTS, HOSTS_PER_RACK, OVERSUB);
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
                DATA_BYTES,
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
        bd.add_node(&mut sim, w, SimTime::from_secs(i as u64 % JOIN_SPREAD_S));
    }
    // Which hosts die is the seed's choice.
    let victims: Vec<HostId> = topo
        .workers
        .iter()
        .skip(seed as usize % DEATH_STRIDE)
        .step_by(DEATH_STRIDE)
        .copied()
        .collect();
    let n_victims = victims.len();
    let (bd2, net) = (bd.clone(), topo.net.clone());
    sim.schedule_at(SimTime::from_secs(DEATHS_AT_S), move |sim| {
        for &v in &victims {
            bd2.kill_host(sim, v);
            net.set_host_enabled(sim, v, false);
        }
    });
    let bd3 = bd.clone();
    sim.schedule_at(SimTime::from_secs(OUTAGE_S.0), move |_| {
        bd3.set_udp_up(false)
    });
    let bd4 = bd.clone();
    sim.schedule_at(SimTime::from_secs(OUTAGE_S.1), move |_| {
        bd4.set_udp_up(true)
    });
    Scenario {
        sim,
        bd,
        net: topo.net,
        data,
        victims: n_victims,
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let t = ctx.tracer;
    let mut out = Outcome::default();
    let mut log = SimLog::new(SLICE_MS);

    let rounds = run_rounds(ctx.seconds, 1, |round| {
        let Scenario {
            mut sim,
            bd,
            net,
            data,
            victims,
        } = log.set_up(t, round, &mut out, || set_up(ctx.seed));
        let wall = log.run(t, round, &mut sim, &net, |sim| {
            sim.now() >= SimTime::from_secs(HORIZON_S)
        });

        // Every datum still owned; fault-tolerant data back at their
        // replica floor.
        let owners = |d: &Data| bd.owners_of(d.id).len();
        if data.iter().map(owners).min().unwrap_or(0) < 1 {
            return Err("a datum lost every owner".into());
        }
        let floor = REPLICA.min((HOSTS - victims) as i64);
        let below_floor = data.iter().filter(|d| (owners(d) as i64) < floor).count();
        let stats = bd.sync_stats();
        let control_bytes = stats.tcp_bytes + stats.announce_bytes + stats.scrape_bytes;
        let mut counts = driver_counts(&sim, &bd, &net);
        counts.push((
            "sim.control_bytes_per_host_round",
            control_bytes as f64 / HOSTS as f64 / HORIZON_S as f64,
        ));
        // Only a process's first scenario is reproducible (see `pinned`).
        if round == 0 {
            pinned::check("sim_churn", ctx.seed, &counts)?;
            out.attempted = DATA as u64;
            out.failed = below_floor as u64;
            out.layer.extend(counts);
        }
        t.time("teardown", round, || drop((sim, bd, net)));
        Ok(wall)
    })?;

    log.report(&mut out, &rounds);
    Ok(out)
}
