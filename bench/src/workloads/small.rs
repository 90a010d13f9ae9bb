//! `small_files`: the command plane does the work and bytes are
//! negligible — the mirror image of `bulk_distribute`. Phase A is a command
//! storm against a 4-shard on-disk catalog with no workers: `create_many`
//! in batches, then pipelined `put` + `schedule`. Phase B places small
//! data one per host (`replica = 1`) on two pumped workers, so each
//! worker's cache report Δk and the scheduler's Θ scan grow with every
//! synchronization.

use std::sync::Arc;
use std::time::Duration;

use bitdew_core::{join_all, Data, DataAttributes, Session};

use super::{
    latencies, run_rounds, Catalog, Cluster, Ctx, Outcome, Pump, Seams, SplitMix, WORKERS,
};
use crate::stats;

/// Phase A data per round.
const COMMAND_ITEMS: usize = 32_000;
/// Phase B data per round.
pub const PLACE_ITEMS: usize = 1_600;
const ITEM_BYTES: usize = 256;
const CREATE_BATCH: usize = 256;
const SESSION_BATCH: usize = 64;
const SHARDS: usize = 4;
const DEADLINE: Duration = Duration::from_secs(120);
/// Phase A data whose catalog rows are read back and compared.
const READ_BACK: usize = 512;

fn payloads(seed: u64, stream: u64, n: usize) -> Vec<Vec<u8>> {
    let mut rng = SplitMix::new(seed, stream);
    (0..n).map(|_| rng.bytes(ITEM_BYTES)).collect()
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let t = ctx.tracer;
    let seams = Seams::new(t.enabled());
    let mut out = Outcome::default();
    let mut pump = Pump::new(t);
    let (mut command_rate, mut place_rate) = (Vec::new(), Vec::new());
    let mut create_ms = Vec::new();
    let (mut create_s, mut submit_s, mut join_s) = (0.0, 0.0, 0.0);
    let (mut ops, mut batches) = (0u64, 0u64);
    let (mut completed, mut retries, mut registrations) = (0u64, 0u64, 0u64);

    let rounds = run_rounds(ctx.seconds, 2, |round| {
        let dir = ctx.scratch.join(format!("small.r{round}"));
        let on_disk = |phase: &str| Catalog::OnDisk(dir.join(phase));

        // Set-up: both clusters, the inputs, and phase B's data published.
        let (ready, setup_s) = t.time("setup", round, || {
            let a = Cluster::start(SHARDS, 0, on_disk("a"), &seams)?;
            let b = Cluster::start(SHARDS, WORKERS, on_disk("b"), &seams)?;
            let a_bytes = payloads(ctx.seed, round << 1, COMMAND_ITEMS);
            let b_bytes = payloads(ctx.seed, round << 1 | 1, PLACE_ITEMS);
            let names: Vec<String> = (0..PLACE_ITEMS).map(|i| format!("place.{i}")).collect();
            let items: Vec<(&str, &[u8])> = names
                .iter()
                .zip(&b_bytes)
                .map(|(n, p)| (n.as_str(), p.as_slice()))
                .collect();
            let b_data = b
                .client
                .create_many(&items)
                .map_err(|e| format!("create_many: {e}"))?;
            let puts: Vec<(Data, &[u8])> = b_data
                .iter()
                .cloned()
                .zip(b_bytes.iter().map(Vec::as_slice))
                .collect();
            b.client
                .put_many(&puts)
                .map_err(|e| format!("put_many: {e}"))?;
            Ok::<_, String>((a, b, a_bytes, b_bytes, b_data))
        });
        let (a, b, a_bytes, b_bytes, b_data) = ready?;
        out.setup_s.push(setup_s);

        // Phase A: the command storm.
        let attrs = DataAttributes::default().with_replica(1);
        let (stormed, a_secs) = t.time("round.commands", round, || {
            let names: Vec<String> = (0..COMMAND_ITEMS).map(|i| format!("cmd.{i}")).collect();
            let mut data: Vec<Data> = Vec::with_capacity(COMMAND_ITEMS);
            for (batch, (ns, ps)) in names
                .chunks(CREATE_BATCH)
                .zip(a_bytes.chunks(CREATE_BATCH))
                .enumerate()
            {
                let items: Vec<(&str, &[u8])> = ns
                    .iter()
                    .zip(ps)
                    .map(|(n, p)| (n.as_str(), p.as_slice()))
                    .collect();
                let (made, s) = t.time("core.api.create_many", batch as u64, || {
                    a.client.create_many(&items)
                });
                data.extend(made.map_err(|e| format!("create_many: {e}"))?);
                create_s += s;
                create_ms.push(s * 1e3);
            }
            let session = Session::with_batch_limit(Arc::clone(&a.client), SESSION_BATCH);
            let (futures, s) = t.time("core.api.session_submit", round, || {
                let mut futures = Vec::with_capacity(COMMAND_ITEMS * 2);
                for (d, p) in data.iter().zip(&a_bytes) {
                    futures.push(session.put(d, p));
                    futures.push(session.schedule(d, attrs.clone()));
                }
                futures
            });
            submit_s += s;
            let (joined, s) = t.time("core.api.session_join", round, || join_all(futures));
            joined.map_err(|e| format!("pipelined op: {e}"))?;
            join_s += s;
            ops += session.ops_submitted();
            batches += session.batches_flushed();
            Ok::<_, String>(data)
        });
        let a_data = stormed?;
        command_rate.push((3 * COMMAND_ITEMS) as f64 / a_secs);

        // Phase B: placement.
        let (placed, b_secs) = t.time("round.place", round, || {
            let items: Vec<(Data, DataAttributes)> =
                b_data.iter().map(|d| (d.clone(), attrs.clone())).collect();
            let (r, _) = t.time("core.runtime.schedule", round, || {
                b.client.schedule_many(&items)
            });
            r.map_err(|e| format!("schedule_many: {e}"))?;
            Ok::<_, String>(pump.until(&b, round, DEADLINE, || {
                b.workers.iter().map(|w| w.cached().len()).sum::<usize>() >= PLACE_ITEMS
            }))
        });
        if !placed? {
            return Err(format!("round {round}: placement did not finish"));
        }
        place_rate.push(PLACE_ITEMS as f64 / b_secs);

        let (checked, _) = t.time("verify", round, || {
            // Phase A: every command landed, and sampled rows read back.
            let plane = &a.container.plane;
            if plane.registrations() != COMMAND_ITEMS as u64
                || plane.scheduler().managed_count() != COMMAND_ITEMS
            {
                return Err(format!(
                    "phase A: {} registered, {} scheduled, {COMMAND_ITEMS} expected",
                    plane.registrations(),
                    plane.scheduler().managed_count()
                ));
            }
            for d in a_data.iter().step_by(COMMAND_ITEMS / READ_BACK) {
                let row = plane.get(d.id).map_err(|e| format!("catalog get: {e}"))?;
                let locators = plane.locators(d.id).map_err(|e| format!("locators: {e}"))?;
                if row.as_ref() != Some(d) || locators.is_empty() {
                    return Err(format!("phase A: `{}` did not read back", d.name));
                }
            }
            // Phase B: each datum on exactly one worker, byte for byte.
            for (d, bytes) in b_data.iter().zip(&b_bytes) {
                let owners = b.container.owners_of(d.id);
                let holders: Vec<_> = b.workers.iter().filter(|w| w.has_cached(d.id)).collect();
                if holders.len() != 1 || owners != [holders[0].uid] {
                    return Err(format!(
                        "phase B: `{}` is not on exactly one worker",
                        d.name
                    ));
                }
                let got = holders[0]
                    .read_local(d)
                    .map_err(|e| format!("read_local: {e}"))?;
                if got != *bytes {
                    return Err(format!("phase B: `{}` differs from its source", d.name));
                }
            }
            Ok(())
        });
        checked?;
        registrations += a.container.plane.registrations() + b.container.plane.registrations();
        completed += b.container.transfer.completed_count();
        retries += b.container.transfer.retry_count();
        let (removed, _) = t.time("teardown", round, || {
            drop((a, b));
            std::fs::remove_dir_all(&dir)
        });
        removed.map_err(|e| format!("remove {}: {e}", dir.display()))?;
        Ok(a_secs + b_secs)
    })?;

    // Phase A: create + put + schedule per datum; phase B: one placement.
    out.rounds = rounds.len() as u64;
    out.attempted = out.rounds * (3 * COMMAND_ITEMS + PLACE_ITEMS) as u64;
    out.failed = retries;
    out.e2e("round_s", "round_wall_s", stats::median(&rounds));
    out.e2e(
        "throughput",
        "place_items_per_s",
        stats::median(&place_rate),
    );
    out.e2e(
        "throughput_2",
        "command_ops_per_s",
        stats::median(&command_rate),
    );
    latencies(
        &mut out,
        &create_ms,
        "create_many_ms_p50",
        "create_many_ms_p90",
        90.0,
    )?;

    pump.report(&mut out);
    out.layer("core.api.create_many_s", create_s);
    out.layer("core.api.session_submit_s", submit_s);
    out.layer("core.api.session_join_s", join_s);
    out.layer("core.api.ops_per_batch", ops as f64 / batches.max(1) as f64);
    out.layer("core.catalog.registrations", registrations as f64);
    out.layer("core.transfer.completed", completed as f64);
    out.layer("core.transfer.retries", retries as f64);
    seams.report_db(&mut out);
    Ok(out)
}
