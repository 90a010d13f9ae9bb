//! `bulk_distribute`: the data plane does the work. Each round publishes
//! ten 16 MB blobs in 1 MB chunks, schedules them to every worker, pumps
//! until both workers own every blob, checks the bytes, deletes, and pumps
//! until the caches are purged. Catalog and scheduler are nearly idle.
//! A fresh cluster per round keeps the live payload under 256 MB.

use std::time::{Duration, Instant};

use bitdew_core::{Data, DataAttributes, REPLICA_ALL};

use super::{
    latencies, run_rounds, Catalog, Cluster, Ctx, Outcome, Pump, Seams, SplitMix, WORKERS,
};
use crate::stats;

const BLOBS: usize = 10;
const BLOB_BYTES: usize = 8 << 20;
const CHUNK: u64 = 1 << 20;
/// A round that has not converged by then never will.
const DEADLINE: Duration = Duration::from_secs(60);
const MB: f64 = 1.0e6;
/// Ten blobs a round: ten rounds give the p90 its hundred samples.
const MIN_ROUNDS: usize = 10;

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let seams = Seams::new(ctx.tracer.enabled());
    let mut out = Outcome::default();
    let mut pump = Pump::new(ctx.tracer);
    let mut latency_ms = Vec::new();
    let (mut publish_mbps, mut omega_mbps) = (Vec::new(), Vec::new());
    let (mut create_s, mut put_s, mut schedule_s, mut purge_s) = (0.0, 0.0, 0.0, 0.0);
    let (mut completed, mut retries) = (0u64, 0u64);

    let rounds = run_rounds(ctx.seconds, MIN_ROUNDS, |round| {
        let t = ctx.tracer;
        let (ready, setup_s) = t.time("setup", round, || {
            let cluster = Cluster::start(1, WORKERS, Catalog::InMemory, &seams)?;
            let blobs: Vec<Vec<u8>> = (0..BLOBS)
                .map(|i| SplitMix::new(ctx.seed, round << 16 | i as u64).bytes(BLOB_BYTES))
                .collect();
            Ok::<_, String>((cluster, blobs))
        });
        let (cluster, blobs) = ready?;
        out.setup_s.push(setup_s);

        let (distributed, _) = t.time("round", round, || {
            // Publish.
            let mut data: Vec<Data> = Vec::with_capacity(BLOBS);
            let mut publish = 0.0;
            for (i, content) in blobs.iter().enumerate() {
                let name = format!("bulk.r{round}.{i}");
                let (d, s) = t.time("core.runtime.create_data", i as u64, || {
                    cluster.client.create_data(&name, content)
                });
                let d = d.map_err(|e| format!("create_data: {e}"))?;
                create_s += s;
                publish += s;
                let (m, s) = t.time("core.runtime.put_chunked", i as u64, || {
                    cluster.client.put_chunked(&d, content, CHUNK)
                });
                m.map_err(|e| format!("put_chunked: {e}"))?;
                put_s += s;
                publish += s;
                data.push(d);
            }
            publish_mbps.push((BLOBS * BLOB_BYTES) as f64 / MB / publish);

            // Distribute: schedule → every worker in Ω.
            let attrs = DataAttributes::default().with_replica(REPLICA_ALL);
            let distribute = Instant::now();
            let mut scheduled = Vec::with_capacity(BLOBS);
            for (i, d) in data.iter().enumerate() {
                scheduled.push(Instant::now());
                let (r, s) = t.time("core.runtime.schedule", i as u64, || {
                    cluster.client.schedule(d, attrs.clone())
                });
                r.map_err(|e| format!("schedule: {e}"))?;
                schedule_s += s;
            }
            let mut latencies: Vec<Option<f64>> = vec![None; BLOBS];
            let converged = pump.until(&cluster, round, DEADLINE, || {
                for (i, d) in data.iter().enumerate() {
                    if latencies[i].is_none() && cluster.all_hold(d.id) {
                        latencies[i] = Some(scheduled[i].elapsed().as_secs_f64() * 1e3);
                    }
                }
                latencies.iter().all(Option::is_some)
            });
            if !converged {
                return Err(format!(
                    "round {round}: not every blob reached Ω on every worker"
                ));
            }
            let omega = distribute.elapsed().as_secs_f64();
            omega_mbps.push((WORKERS * BLOBS * BLOB_BYTES) as f64 / MB / omega);
            Ok::<_, String>((data, latencies, publish + omega))
        });
        let (data, latencies, timed) = distributed?;

        // Every delivered blob equals its seeded source, on every worker.
        let (checked, _) = t.time("verify", round, || {
            for w in &cluster.workers {
                for (d, content) in data.iter().zip(&blobs) {
                    let got = w.read_local(d).map_err(|e| format!("read_local: {e}"))?;
                    if got != *content {
                        return Err(format!("`{}` differs from its source on a worker", d.name));
                    }
                }
            }
            Ok::<_, String>(())
        });
        checked?;
        latency_ms.extend(latencies.into_iter().flatten());

        // Delete, then pump until every cache is purged.
        let (purged, s) = t.time("core.runtime.delete_purge", round, || {
            for d in &data {
                cluster
                    .client
                    .delete(d)
                    .map_err(|e| format!("delete: {e}"))?;
            }
            Ok::<_, String>(pump.until(&cluster, round, DEADLINE, || {
                cluster.workers.iter().all(|w| w.cached().is_empty())
            }))
        });
        if !purged? {
            return Err(format!("round {round}: deleted blobs were not purged"));
        }
        purge_s += s;
        completed += cluster.container.transfer.completed_count();
        retries += cluster.container.transfer.retry_count();
        t.time("teardown", round, || drop((cluster, blobs)));
        Ok(timed + s)
    })?;

    // Per blob: create, put, schedule, a delivery per worker, delete.
    out.rounds = rounds.len() as u64;
    out.attempted = out.rounds * (BLOBS * (4 + WORKERS)) as u64;
    out.failed = retries;
    out.e2e("round_s", "round_wall_s", stats::median(&rounds));
    out.e2e("throughput", "omega_MBps", stats::median(&omega_mbps));
    out.e2e("throughput_2", "publish_MBps", stats::median(&publish_mbps));
    latencies(
        &mut out,
        &latency_ms,
        "omega_latency_ms_p50",
        "omega_latency_ms_p90",
        90.0,
    )?;

    pump.report(&mut out);
    out.layer("core.runtime.create_data_s", create_s);
    out.layer("core.runtime.put_chunked_s", put_s);
    out.layer("core.runtime.schedule_s", schedule_s);
    out.layer("core.runtime.delete_purge_s", purge_s);
    out.layer("core.transfer.completed", completed as f64);
    out.layer("core.transfer.retries", retries as f64);
    let user_bytes = out.rounds * (BLOBS * BLOB_BYTES) as u64;
    seams.report_store(&mut out, user_bytes);
    Ok(out)
}
