//! `version_mix`: writes beside reads on one chunked datum. The same
//! chunk, store and catalog layers as `bulk_distribute`, used the other
//! way: a seeded schedule of small `commit_update`s, each followed by a
//! snapshot and four range reads through it, with a window of pinned
//! snapshots and a periodic `gc_versions`. Commit cost grows with the
//! version chain, so the iteration count per round is fixed.

use std::collections::VecDeque;

use bitdew_core::{BitdewError, Snapshot};

use super::{latencies, run_rounds, Catalog, Cluster, Ctx, Outcome, Seams, SplitMix};
use crate::stats;

const CHUNKS: u64 = 64;
const CHUNK: u64 = 256 << 10;
const TOTAL: usize = (CHUNKS * CHUNK) as usize;
pub const ITERATIONS: usize = 1_200;
const PATCH: usize = 4 << 10;
const READS: usize = 4;
const READ: usize = 64 << 10;
/// Snapshots that stay pinned behind the head.
const WINDOW: usize = 8;
const GC_EVERY: usize = 256;
const MB: f64 = 1.0e6;

/// A pinned snapshot and what was read through it when it was opened.
struct Pinned {
    snap: Snapshot,
    reads: Vec<(u64, Vec<u8>)>,
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let t = ctx.tracer;
    let seams = Seams::new(t.enabled());
    let mut out = Outcome::default();
    let (mut commit_us, mut open_us, mut read_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut update_rate, mut read_mbps) = (Vec::new(), Vec::new());
    let (mut gc_s, mut cas_retries) = (0.0, 0u64);

    let rounds = run_rounds(ctx.seconds, 2, |round| {
        let (ready, setup_s) = t.time("setup", round, || {
            let cluster = Cluster::start(1, 0, Catalog::InMemory, &seams)?;
            let content = SplitMix::new(ctx.seed, round << 1).bytes(TOTAL);
            let data = cluster
                .client
                .create_data("version_mix", &content)
                .map_err(|e| format!("create_data: {e}"))?;
            cluster
                .client
                .put_chunked(&data, &content, CHUNK)
                .map_err(|e| format!("put_chunked: {e}"))?;
            Ok::<_, String>((cluster, content, data))
        });
        // `model` is what the datum must read as after every commit so far.
        let (cluster, mut model, data) = ready?;
        out.setup_s.push(setup_s);
        let node = &cluster.client;
        let mut rng = SplitMix::new(ctx.seed, round << 1 | 1);
        let mut window: VecDeque<Pinned> = VecDeque::new();
        let (mut commit_s, mut reading_s) = (0.0, 0.0);

        let reread = |p: &Pinned| -> Result<(), String> {
            for (offset, bytes) in &p.reads {
                let again = node
                    .get_range_at(&data, &p.snap, *offset, READ)
                    .map_err(|e| format!("get_range_at: {e}"))?;
                if again != *bytes {
                    return Err(format!(
                        "snapshot v{} changed under later commits",
                        p.snap.version()
                    ));
                }
            }
            Ok(())
        };

        let (mixed, timed) = t.time("round", round, || {
            for i in 0..ITERATIONS {
                // One 4 KB patch somewhere inside one random chunk.
                let chunk = rng.below(CHUNKS);
                let offset = chunk * CHUNK + rng.below(CHUNK - PATCH as u64);
                let patch = rng.bytes(PATCH);
                model[offset as usize..offset as usize + PATCH].copy_from_slice(&patch);
                let writes = [(offset, patch)];
                let (committed, s) = t.time("core.versions.commit_update", i as u64, || {
                    // The documented optimistic loop: on a conflict re-read
                    // the head and resubmit.
                    let mut base = node.version_head(data.id)?;
                    loop {
                        match node.commit_update(&data, base, &writes) {
                            Err(BitdewError::VersionConflict { head, .. }) => {
                                base = head;
                                cas_retries += 1;
                            }
                            other => return other,
                        }
                    }
                });
                committed.map_err(|e| format!("commit_update: {e}"))?;
                commit_us.push(s * 1e6);
                commit_s += s;

                let (snap, s) = t.time("core.versions.open_snapshot", i as u64, || {
                    node.open_snapshot(&data)
                });
                let snap = snap.map_err(|e| format!("open_snapshot: {e}"))?;
                open_us.push(s * 1e6);
                reading_s += s;
                let mut reads = Vec::with_capacity(READS);
                for _ in 0..READS {
                    let offset = rng.below((TOTAL - READ) as u64);
                    let (bytes, s) = t.time("core.versions.get_range_at", i as u64, || {
                        node.get_range_at(&data, &snap, offset, READ)
                    });
                    let bytes = bytes.map_err(|e| format!("get_range_at: {e}"))?;
                    read_us.push(s * 1e6);
                    reading_s += s;
                    if bytes != model[offset as usize..offset as usize + READ] {
                        return Err(format!("snapshot v{} read wrong bytes", snap.version()));
                    }
                    reads.push((offset, bytes));
                }
                window.push_back(Pinned { snap, reads });
                if window.len() > WINDOW {
                    // WINDOW commits later, the oldest pin still reads the same.
                    let oldest = window.pop_front().expect("window is not empty");
                    t.time("verify", i as u64, || reread(&oldest)).0?;
                }
                if (i + 1) % GC_EVERY == 0 {
                    let (r, s) = t.time("core.versions.gc", i as u64, || node.gc_versions(&data));
                    r.map_err(|e| format!("gc_versions: {e}"))?;
                    gc_s += s;
                }
            }
            Ok::<_, String>(())
        });
        mixed?;

        t.time("verify", round, || {
            let head = node
                .version_head(data.id)
                .map_err(|e| format!("head: {e}"))?;
            if head != 1 + ITERATIONS as u64 {
                return Err(format!("head is {head} after {ITERATIONS} commits"));
            }
            for p in &window {
                reread(p)?;
            }
            let latest = node
                .open_snapshot(&data)
                .map_err(|e| format!("open_snapshot: {e}"))?;
            let whole = node
                .get_range_at(&data, &latest, 0, TOTAL)
                .map_err(|e| format!("get_range_at: {e}"))?;
            if whole != model {
                return Err("the head does not read as the sum of its commits".into());
            }
            drop(latest);
            window.clear();
            node.gc_versions(&data).map_err(|e| format!("gc: {e}"))?;
            let again = node.gc_versions(&data).map_err(|e| format!("gc: {e}"))?;
            if again.chunks_reclaimed != 0 {
                return Err(format!(
                    "a second gc reclaimed {} chunks",
                    again.chunks_reclaimed
                ));
            }
            Ok(())
        })
        .0?;
        t.time("teardown", round, || drop((window, cluster)));
        update_rate.push(ITERATIONS as f64 / commit_s);
        read_mbps.push((ITERATIONS * READS * READ) as f64 / MB / reading_s);
        Ok(timed)
    })?;

    // Per iteration: a commit, a snapshot, READS range reads.
    out.rounds = rounds.len() as u64;
    out.attempted = out.rounds * (ITERATIONS * (2 + READS)) as u64;
    out.failed = 0;
    out.e2e("round_s", "round_wall_s", stats::median(&rounds));
    out.e2e(
        "throughput",
        "update_ops_per_s",
        stats::median(&update_rate),
    );
    out.e2e(
        "throughput_2",
        "snapshot_read_MBps",
        stats::median(&read_mbps),
    );
    let commit_ms: Vec<f64> = commit_us.iter().map(|us| us / 1e3).collect();
    latencies(
        &mut out,
        &commit_ms,
        "commit_latency_ms_p50",
        "commit_latency_ms_p90",
        90.0,
    )?;

    out.layer(
        "core.versions.commit_update_us_p50",
        stats::percentile(&commit_us, 50.0),
    );
    out.layer(
        "core.versions.commit_update_us_p99",
        stats::percentile(&commit_us, 99.0),
    );
    out.layer(
        "core.versions.open_snapshot_us_p50",
        stats::percentile(&open_us, 50.0),
    );
    out.layer(
        "core.versions.get_range_at_us_p50",
        stats::percentile(&read_us, 50.0),
    );
    out.layer("core.versions.gc_s", gc_s);
    out.layer("core.versions.cas_retries", cas_retries as f64);
    let user_bytes = out.rounds * (TOTAL + ITERATIONS * PATCH) as u64;
    seams.report_store(&mut out, user_bytes);
    Ok(out)
}
