//! `sim_fanout`: the simulator's data plane. One 40 MB blob with a 1 MB
//! chunk manifest, pinned on 8 seed hosts, goes to 400 downloaders over a
//! datacenter fabric whose aggregation links are 16:1 oversubscribed:
//! per-chunk flows, work-stealing refills, hundreds of flows on a link.
//! `FlowNet` used the opposite way from the quiet phases of `sim_churn`
//! (few hosts, dense sharing).

use std::cell::RefCell;
use std::rc::Rc;

use bitdew_core::chunks::{ChunkDescriptor, ChunkManifest};
use bitdew_core::simdriver::SimBitdew;
use bitdew_core::{Data, DataAttributes, REPLICA_ALL};
use bitdew_sim::{topology, FlowNet, Sim, SimDuration, SimTime, Trace};
use bitdew_util::Auid;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use super::{driver_counts, pinned, run_rounds, Ctx, Outcome, SimLog, SplitMix};

const SEEDS: usize = 8;
const DOWNLOADERS: usize = 400;
const HOSTS_PER_RACK: usize = 8;
const OVERSUB: f64 = 16.0;
/// 40 chunks: every one of a downloader's 9 sources (the service host and
/// the 8 replicas) fills its first window of `PIPELINE_DEPTH` = 4 chunks
/// and 4 are left to steal. With fewer than 36 the source that goes short
/// is whichever the driver's `HashMap` lists last, and the event count
/// takes one of two values from process to process.
const BLOB_BYTES: u64 = 40_000_000;
const CHUNK: u64 = 1_000_000;
const SLICE_MS: u64 = 1_000;
const JOIN_SPREAD_MS: u64 = 2_000;
/// Virtual seconds after which an unfinished distribution has failed.
const GIVE_UP_S: u64 = 3_600;

#[derive(Default)]
struct Arrivals {
    count: usize,
    last: SimTime,
}

struct Scenario {
    sim: Sim,
    bd: SimBitdew,
    net: FlowNet,
    arrivals: Rc<RefCell<Arrivals>>,
}

fn set_up(seed: u64) -> Scenario {
    let topo = topology::gdx_datacenter(SEEDS + DOWNLOADERS, HOSTS_PER_RACK, OVERSUB);
    let mut sim = Sim::new(seed);
    let bd = SimBitdew::new(
        topo.net.clone(),
        topo.service,
        SimDuration::from_secs(1),
        Trace::new(),
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    let data = Data::slot(Auid::generate(1, &mut rng), "blob", BLOB_BYTES);
    // The simulator moves modelled bytes: the manifest is metadata only.
    let manifest = ChunkManifest {
        data: data.id,
        chunk_size: CHUNK,
        total: BLOB_BYTES,
        chunks: (0..BLOB_BYTES.div_ceil(CHUNK))
            .map(|i| ChunkDescriptor {
                index: i as u32,
                len: CHUNK.min(BLOB_BYTES - i * CHUNK) as u32,
                crc32: 0,
            })
            .collect(),
    };
    bd.put_manifest(&manifest);
    bd.schedule_data(
        data.clone(),
        DataAttributes::default().with_replica(REPLICA_ALL),
    );
    let arrivals = Rc::new(RefCell::new(Arrivals::default()));
    let seen = Rc::clone(&arrivals);
    bd.set_copy_hook(Box::new(move |sim, _, _| {
        let mut a = seen.borrow_mut();
        a.count += 1;
        a.last = sim.now();
    }));
    // The seed chooses which rack holds the replicas, and when within the
    // first two seconds each downloader joins.
    let replica_rack = seed as usize % (DOWNLOADERS / SEEDS);
    let mut joins = SplitMix::new(seed, 0);
    for (i, &w) in topo.workers.iter().enumerate() {
        if i / SEEDS == replica_rack {
            let uid = bd.add_node(&mut sim, w, SimTime::ZERO);
            bd.pin(data.id, uid);
        } else {
            bd.add_node(
                &mut sim,
                w,
                SimTime::from_millis(joins.below(JOIN_SPREAD_MS)),
            );
        }
    }
    Scenario {
        sim,
        bd,
        net: topo.net,
        arrivals,
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
            arrivals,
        } = log.set_up(t, round, &mut out, || set_up(ctx.seed));
        let wall = log.run(t, round, &mut sim, &net, |sim| {
            arrivals.borrow().count >= DOWNLOADERS || sim.now() >= SimTime::from_secs(GIVE_UP_S)
        });
        let arrived = arrivals.borrow().count;
        if arrived != DOWNLOADERS {
            return Err(format!("{arrived} of {DOWNLOADERS} downloaders finished"));
        }

        let mut counts = driver_counts(&sim, &bd, &net);
        counts.push((
            "sim.virtual_makespan_s",
            arrivals.borrow().last.as_secs_f64(),
        ));
        // Only a process's first scenario is reproducible (see `pinned`).
        if round == 0 {
            pinned::check("sim_fanout", ctx.seed, &counts)?;
            out.attempted = DOWNLOADERS as u64;
            out.layer.extend(counts);
        }
        t.time("teardown", round, || drop((sim, bd, net)));
        Ok(wall)
    })?;

    log.report(&mut out, &rounds);
    Ok(out)
}
