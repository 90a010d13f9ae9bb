//! `ledger`: the repo's benchmark. Five workloads, end-to-end and per-layer
//! metrics, one JSON schema. See `bench/README.md`.
//!
//! ```text
//! ledger run <workload> [--seed S] [--seconds N] [--json]   one untraced run, this process
//! ledger trace <workload> [--seed S] [--seconds N] [--json] the traced run: per-layer numbers + span file
//! ledger all [--runs K] [--seed S] [--seconds N] [--only W] [--out DIR]
//!                                                           K fresh-process runs + one traced, per workload
//! ledger compare A B                                        two result sets (files or directories) under the bounds
//! ledger manifest                                           BENCHMARK.json from the metric tables
//! ledger bench --workload W --seed S --seconds N --trace 0|1  the BENCHMARK.json command
//! ```

mod json;
mod metrics;
mod probes;
mod report;
mod stats;
mod trace;
mod workloads;
mod wrap;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use report::{ResultSet, RunRecord};

/// The seed every documented number uses.
const DEFAULT_SEED: u64 = 1;
const DEFAULT_OUT: &str = "bench/out";

struct Args(Vec<String>);

impl Args {
    /// The value after `--name`, parsed.
    fn opt<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.0.iter().position(|a| a == name) {
            None => Ok(None),
            Some(i) => self
                .0
                .get(i + 1)
                .and_then(|v| v.parse().ok())
                .map(Some)
                .ok_or_else(|| format!("`{name}` needs a value")),
        }
    }

    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    /// Positional arguments come first, before any option.
    fn positional(&self, index: usize) -> Option<&str> {
        self.0
            .get(index)
            .map(String::as_str)
            .filter(|a| !a.starts_with("--"))
    }
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| format!("VmHWM: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Run one workload in this process. A failed correctness check is an
/// `Err`: the run reports no number.
fn execute(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: &Path,
) -> Result<RunRecord, String> {
    let run = workloads::by_name(workload).ok_or_else(|| {
        format!(
            "unknown workload `{workload}` (one of {})",
            workloads::NAMES.join(", ")
        )
    })?;
    let scratch = out.join("tmp").join(std::process::id().to_string());
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let tracer = trace::Tracer::new(traced);
    let start = Instant::now();
    let outcome = run(&workloads::Ctx {
        seed,
        seconds,
        tracer: &tracer,
        scratch: scratch.clone(),
    });
    let wall_s = start.elapsed().as_secs_f64();
    let outcome = outcome.and_then(|mut o| {
        if traced {
            let probed = Instant::now();
            o.layer
                .extend(probes::for_workload(workload, seed, &scratch)?);
            o.layer("trace.probes_s", probed.elapsed().as_secs_f64());
        }
        Ok(o)
    });
    let _ = std::fs::remove_dir_all(&scratch);
    let outcome = outcome?;

    let mut e2e = vec![
        (
            "setup_s".to_string(),
            "setup_s".to_string(),
            stats::median(&outcome.setup_s),
        ),
        (
            "peak_rss_mb".to_string(),
            "VmHWM".to_string(),
            peak_rss_mb()?,
        ),
    ];
    e2e.extend(
        outcome
            .e2e
            .iter()
            .map(|m| (m.name.to_string(), m.alias.to_string(), m.value)),
    );
    // Every end-to-end metric, once, and never 0.
    for m in &metrics::END_TO_END {
        let found: Vec<f64> = e2e
            .iter()
            .filter(|(n, _, _)| n == m.name)
            .map(|(_, _, v)| *v)
            .collect();
        if found.len() != 1 || !(found[0].is_finite() && found[0] > 0.0) {
            return Err(format!("`{}` reads {found:?}", m.name));
        }
    }

    let mut layer: Vec<(String, f64)> = Vec::new();
    if traced {
        let spans = tracer.spans();
        let by_name = trace::summarize(&spans);
        let self_s = |prefix: &str| -> f64 {
            by_name
                .iter()
                .filter(|(name, _)| name.starts_with(prefix))
                .map(|(_, s)| s.self_s)
                .sum()
        };
        let round_s = e2e
            .iter()
            .find(|(n, _, _)| n == "round_s")
            .map_or(0.0, |m| m.2);
        layer.extend(outcome.layer.iter().map(|(n, v)| (n.to_string(), *v)));
        layer.extend([
            ("trace.spans".to_string(), spans.len() as f64),
            ("trace.wall_s".to_string(), wall_s),
            ("trace.round_s".to_string(), round_s),
            (
                "trace.coverage_share".to_string(),
                trace::coverage_share(&spans, wall_s),
            ),
            ("trace.setup_self_s".to_string(), self_s("setup")),
            ("trace.round_self_s".to_string(), self_s("round")),
            ("trace.verify_self_s".to_string(), self_s("verify")),
            ("trace.peak_rss_mb".to_string(), peak_rss_mb()?),
        ]);
        for (name, _) in &layer {
            if metrics::per_layer(name).is_none() {
                return Err(format!("`{name}` is not in the per-layer table"));
            }
        }
        let path = out.join(format!("{workload}.trace.json"));
        std::fs::write(&path, trace::to_json(workload, &spans).to_line())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(RunRecord {
        workload: workload.to_string(),
        seed,
        seconds,
        traced,
        attempted: outcome.attempted.max(1),
        failed: outcome.failed,
        rounds: outcome.rounds,
        wall_s,
        e2e,
        layer,
    })
}

/// One run in a fresh process of this same binary.
fn spawn_run(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: &Path,
) -> Result<RunRecord, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .arg(if traced { "trace" } else { "run" })
        .arg(workload)
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .arg("--json")
        .args(["--out".as_ref(), out.as_os_str()])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{workload} run failed: {}",
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("the run printed nothing")?;
    RunRecord::from_json(&json::parse(line)?)
}

fn all(args: &Args, out: &Path) -> Result<(), String> {
    let runs: usize = args.opt("--runs")?.unwrap_or(5);
    let seed = args.opt("--seed")?.unwrap_or(DEFAULT_SEED);
    let seconds = args
        .opt("--seconds")?
        .unwrap_or(metrics::RUN_SECONDS as f64);
    let only: Option<String> = args.opt("--only")?;
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    for workload in workloads::NAMES {
        if only.as_deref().is_some_and(|o| o != workload) {
            continue;
        }
        let untraced = (0..runs)
            .map(|_| spawn_run(workload, seed, seconds, false, out))
            .collect::<Result<Vec<_>, _>>()?;
        let traced = spawn_run(workload, seed, seconds, true, out)?;
        let set = ResultSet::aggregate(&untraced, &traced)?;
        set.print();
        let path = out.join(format!("{workload}.json"));
        std::fs::write(&path, set.to_json().to_pretty())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

/// Result sets under `path`: the file itself, or `<workload>.json` for
/// every workload when it is a directory.
fn sets_at(path: &Path) -> Result<Vec<ResultSet>, String> {
    if !path.is_dir() {
        return Ok(vec![ResultSet::read(path)?]);
    }
    workloads::NAMES
        .iter()
        .map(|w| path.join(format!("{w}.json")))
        .filter(|p| p.exists())
        .map(|p| ResultSet::read(&p))
        .collect()
}

fn compare(a: &Path, b: &Path) -> Result<usize, String> {
    let (sets_a, sets_b) = (sets_at(a)?, sets_at(b)?);
    let mut worse = 0;
    let mut compared = 0;
    for sa in &sets_a {
        if let Some(sb) = sets_b.iter().find(|s| s.workload == sa.workload) {
            worse += report::compare(sa, sb)?;
            compared += 1;
        }
    }
    if compared == 0 {
        return Err("the two sides share no workload".into());
    }
    println!("{worse} worse across {compared} workloads");
    Ok(worse)
}

fn dispatch(args: &Args) -> Result<ExitCode, String> {
    let out: PathBuf = args.opt("--out")?.unwrap_or_else(|| DEFAULT_OUT.into());
    let seed = args.opt("--seed")?.unwrap_or(DEFAULT_SEED);
    let seconds = args
        .opt("--seconds")?
        .unwrap_or(metrics::RUN_SECONDS as f64);
    match args.positional(0) {
        Some(verb @ ("run" | "trace")) => {
            let workload = args.positional(1).ok_or("which workload?")?;
            let record = execute(workload, seed, seconds, verb == "trace", &out)?;
            if args.flag("--json") {
                println!("{}", record.to_json().to_line());
            } else {
                record.print();
            }
        }
        Some("bench") => {
            let workload: String = args.opt("--workload")?.ok_or("`--workload` is required")?;
            let traced = args.opt::<u8>("--trace")?.unwrap_or(0) != 0;
            let record = execute(&workload, seed, seconds, traced, &out)?;
            println!("{}", record.contract_line());
        }
        Some("all") => all(args, &out)?,
        Some("compare") => {
            let (a, b) = args
                .positional(1)
                .zip(args.positional(2))
                .ok_or("compare needs two result files or directories")?;
            if compare(Path::new(a), Path::new(b))? > 0 {
                return Ok(ExitCode::FAILURE);
            }
        }
        Some("manifest") => print!("{}", metrics::manifest().to_pretty()),
        _ => {
            return Err(
                "usage: ledger run|trace|all|compare|manifest|bench … (see bench/README.md)".into(),
            )
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match dispatch(&Args(std::env::args().skip(1).collect())) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::FAILURE
        }
    }
}
