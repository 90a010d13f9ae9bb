//! The one schema: what a run records, what a set of runs aggregates to,
//! and how two sets compare under the benchmark's bounds.

use std::path::Path;

use crate::json::{self, Json};
use crate::metrics::{self, Better, END_TO_END, PER_LAYER};
use crate::stats;

pub const SCHEMA: &str = "bitdew-ledger/1";

/// One process's run of one workload.
pub struct RunRecord {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub rounds: u64,
    pub wall_s: f64,
    /// `(name, alias, value)` for every end-to-end metric.
    pub e2e: Vec<(String, String, f64)>,
    /// `(name, value)` for every per-layer metric (traced runs only).
    pub layer: Vec<(String, f64)>,
}

/// A field of a record, read with one of `Json`'s `as_*` accessors.
fn field<'a, T>(
    doc: &'a Json,
    key: &str,
    read: impl Fn(&'a Json) -> Option<T>,
) -> Result<T, String> {
    doc.get(key)
        .and_then(read)
        .ok_or_else(|| format!("the record lacks `{key}`"))
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

impl RunRecord {
    pub fn to_json(&self) -> Json {
        let e2e = self
            .e2e
            .iter()
            .map(|(name, alias, value)| {
                let unit = metrics::end_to_end(name).map_or("", |m| m.unit);
                (
                    name.clone(),
                    Json::obj(vec![
                        ("alias", Json::str(alias)),
                        ("value", Json::Num(*value)),
                        ("unit", Json::str(unit)),
                    ]),
                )
            })
            .collect();
        let layer = self
            .layer
            .iter()
            .map(|(name, value)| (name.clone(), Json::Num(*value)))
            .collect();
        Json::obj(vec![
            ("schema", Json::str(SCHEMA)),
            ("kind", Json::str("run")),
            ("workload", Json::str(&self.workload)),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds)),
            ("traced", Json::Bool(self.traced)),
            ("nproc", Json::Num(nproc() as f64)),
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("rounds", Json::Num(self.rounds as f64)),
            ("wall_s", Json::Num(self.wall_s)),
            ("end_to_end", Json::Obj(e2e)),
            ("per_layer", Json::Obj(layer)),
        ])
    }

    pub fn from_json(doc: &Json) -> Result<RunRecord, String> {
        let num = |key: &str| field(doc, key, Json::as_f64);
        let fields = |key: &str| field(doc, key, Json::as_obj);
        let mut e2e = Vec::new();
        for (name, m) in fields("end_to_end")? {
            let alias = m.get("alias").and_then(Json::as_str).unwrap_or(name);
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("`{name}` has no value"))?;
            e2e.push((name.clone(), alias.to_string(), value));
        }
        let layer = fields("per_layer")?
            .iter()
            .filter_map(|(name, v)| Some((name.clone(), v.as_f64()?)))
            .collect();
        Ok(RunRecord {
            workload: field(doc, "workload", Json::as_str)?.to_string(),
            seed: num("seed")? as u64,
            seconds: num("seconds")?,
            traced: doc.get("traced").and_then(Json::as_bool).unwrap_or(false),
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            rounds: num("rounds")? as u64,
            wall_s: num("wall_s")?,
            e2e,
            layer,
        })
    }

    /// Every metric by name, with its unit.
    pub fn print(&self) {
        println!(
            "{} seed {} — {} rounds in {:.2} s, {} of {} operations failed, outputs correct",
            self.workload, self.seed, self.rounds, self.wall_s, self.failed, self.attempted
        );
        for (name, alias, value) in &self.e2e {
            let unit = metrics::end_to_end(name).map_or("", |m| m.unit);
            println!("  {name:<16} {value:>14.4} {unit:<5} {alias}");
        }
        for (name, value) in &self.layer {
            let unit = metrics::per_layer(name).map_or("", |m| m.unit);
            println!("  {name:<40} {value:>16.4} {unit}");
        }
    }

    /// The one-line result the benchmark contract asks for: every
    /// end-to-end metric untraced, every per-layer metric traced.
    pub fn contract_line(&self) -> String {
        let value = |v: f64, unit: &str| {
            Json::obj(vec![("value", Json::Num(v)), ("unit", Json::str(unit))])
        };
        let metrics: Vec<(String, Json)> = if self.traced {
            PER_LAYER
                .iter()
                .map(|m| {
                    let v = self.layer.iter().find(|(n, _)| n == m.name);
                    (
                        m.name.to_string(),
                        value(v.map_or(0.0, |(_, v)| *v), m.unit),
                    )
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .filter_map(|m| {
                    let (_, _, v) = self.e2e.iter().find(|(n, _, _)| n == m.name)?;
                    Some((m.name.to_string(), value(*v, m.unit)))
                })
                .collect()
        };
        Json::obj(vec![
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .to_line()
    }
}

/// Median and quartiles of one end-to-end metric over a set's runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Spread {
    pub alias: String,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub values: Vec<f64>,
}

impl Spread {
    pub fn of(alias: &str, values: Vec<f64>) -> Spread {
        let (q1, q3) = stats::quartiles(&values);
        Spread {
            alias: alias.to_string(),
            median: stats::median(&values),
            q1,
            q3,
            values,
        }
    }

    /// Distance between the quartiles as a share of the median.
    pub fn share(&self) -> f64 {
        (self.q3 - self.q1).abs() / self.median.abs()
    }
}

/// `runs` fresh-process runs of one workload on one commit, plus the
/// per-layer block of one traced run.
pub struct ResultSet {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub runs: usize,
    pub nproc: usize,
    pub attempted: u64,
    pub failed: u64,
    pub e2e: Vec<(String, Spread)>,
    pub layer: Vec<(String, f64)>,
    /// Traced minus untraced `round_s`, as a share of the untraced.
    pub trace_overhead_share: f64,
}

impl ResultSet {
    pub fn aggregate(untraced: &[RunRecord], traced: &RunRecord) -> Result<ResultSet, String> {
        let first = untraced.first().ok_or("a set needs at least one run")?;
        let mut e2e = Vec::new();
        for m in &END_TO_END {
            let mut values = Vec::new();
            let mut alias = m.name;
            for run in untraced {
                let (_, a, v) = run
                    .e2e
                    .iter()
                    .find(|(n, _, _)| n == m.name)
                    .ok_or_else(|| format!("a run lacks `{}`", m.name))?;
                alias = a;
                values.push(*v);
            }
            e2e.push((m.name.to_string(), Spread::of(alias, values)));
        }
        let round = |e2e: &[(String, String, f64)]| {
            e2e.iter()
                .find(|(n, _, _)| n == "round_s")
                .map_or(f64::NAN, |(_, _, v)| *v)
        };
        let untraced_round =
            stats::median(&untraced.iter().map(|r| round(&r.e2e)).collect::<Vec<_>>());
        Ok(ResultSet {
            workload: first.workload.clone(),
            seed: first.seed,
            seconds: first.seconds,
            runs: untraced.len(),
            nproc: nproc(),
            attempted: untraced.iter().map(|r| r.attempted).sum(),
            failed: untraced.iter().map(|r| r.failed).sum(),
            e2e,
            layer: traced.layer.clone(),
            trace_overhead_share: (round(&traced.e2e) - untraced_round) / untraced_round,
        })
    }

    pub fn to_json(&self) -> Json {
        let e2e = self
            .e2e
            .iter()
            .map(|(name, s)| {
                let m = metrics::end_to_end(name);
                (
                    name.clone(),
                    Json::obj(vec![
                        ("alias", Json::str(&s.alias)),
                        ("unit", Json::str(m.map_or("", |m| m.unit))),
                        ("better", Json::str(m.map_or("", |m| m.better.as_str()))),
                        ("bound", Json::Num(m.map_or(0.0, |m| m.bound))),
                        ("median", Json::Num(s.median)),
                        ("q1", Json::Num(s.q1)),
                        ("q3", Json::Num(s.q3)),
                        ("n", Json::Num(s.values.len() as f64)),
                        (
                            "values",
                            Json::Arr(s.values.iter().map(|v| Json::Num(*v)).collect()),
                        ),
                    ]),
                )
            })
            .collect();
        let layer = self
            .layer
            .iter()
            .map(|(name, value)| {
                let m = metrics::per_layer(name);
                (
                    name.clone(),
                    Json::obj(vec![
                        ("value", Json::Num(*value)),
                        ("unit", Json::str(m.map_or("", |m| m.unit))),
                        ("exact", Json::Bool(m.is_some_and(|m| m.exact))),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("schema", Json::str(SCHEMA)),
            ("kind", Json::str("set")),
            ("workload", Json::str(&self.workload)),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds)),
            ("runs", Json::Num(self.runs as f64)),
            ("nproc", Json::Num(self.nproc as f64)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("trace_overhead_share", Json::Num(self.trace_overhead_share)),
            ("end_to_end", Json::Obj(e2e)),
            ("per_layer", Json::Obj(layer)),
        ])
    }

    pub fn from_json(doc: &Json) -> Result<ResultSet, String> {
        if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA)
            || doc.get("kind").and_then(Json::as_str) != Some("set")
        {
            return Err(format!("not a `{SCHEMA}` result set"));
        }
        let num = |key: &str| field(doc, key, Json::as_f64);
        let fields = |key: &str| field(doc, key, Json::as_obj);
        let mut e2e = Vec::new();
        for (name, m) in fields("end_to_end")? {
            let values: Vec<f64> = m
                .get("values")
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("`{name}` has no values"))?
                .iter()
                .filter_map(Json::as_f64)
                .collect();
            let alias = m.get("alias").and_then(Json::as_str).unwrap_or(name);
            e2e.push((name.clone(), Spread::of(alias, values)));
        }
        let layer = fields("per_layer")?
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect();
        Ok(ResultSet {
            workload: field(doc, "workload", Json::as_str)?.to_string(),
            seed: num("seed")? as u64,
            seconds: num("seconds")?,
            runs: num("runs")? as usize,
            nproc: num("nproc")? as usize,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            e2e,
            layer,
            trace_overhead_share: num("trace_overhead_share").unwrap_or(f64::NAN),
        })
    }

    pub fn read(path: &Path) -> Result<ResultSet, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        ResultSet::from_json(&json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?)
            .map_err(|e| format!("{}: {e}", path.display()))
    }

    pub fn print(&self) {
        println!(
            "{} — {} runs, seed {}, nproc {}, {} of {} operations failed",
            self.workload, self.runs, self.seed, self.nproc, self.failed, self.attempted
        );
        println!(
            "  {:<16} {:>12} {:>12} {:>12} {:>8} {:>6}  measures",
            "metric", "median", "q1", "q3", "spread", "bound"
        );
        for (name, s) in &self.e2e {
            let bound = metrics::end_to_end(name).map_or(0.0, |m| m.bound);
            println!(
                "  {name:<16} {:>12.4} {:>12.4} {:>12.4} {:>7.2}% {:>5.0}%  {}",
                s.median,
                s.q1,
                s.q3,
                s.share() * 100.0,
                bound * 100.0,
                s.alias
            );
        }
        println!(
            "  trace overhead {:+.2}% of round_s; {} per-layer metrics",
            self.trace_overhead_share * 100.0,
            self.layer.len()
        );
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    Better,
    Within,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One end-to-end metric of set `b` against the same metric of set `a`.
/// Worse: `b`'s median is worse than `a`'s by more than `bound`. Better:
/// better by more than the spread between `a`'s own runs. Where either
/// side's quartile spread exceeds the bound the medians do not resolve the
/// question — unless every run of `b` reads better than every run of `a`.
pub fn classify(a: &Spread, b: &Spread, better: Better, bound: f64) -> Verdict {
    // Positive = worse, as a share of a's median.
    let sign = match better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let worsening = sign * (b.median - a.median) / a.median.abs();
    if a.share().max(b.share()) > bound {
        let best_a = a
            .values
            .iter()
            .map(|v| sign * v)
            .fold(f64::INFINITY, f64::min);
        let worst_b = b
            .values
            .iter()
            .map(|v| sign * v)
            .fold(f64::NEG_INFINITY, f64::max);
        return if worst_b < best_a {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worsening > bound {
        Verdict::Worse
    } else if -worsening > a.share() {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// Compare two sets of one workload; prints a row per metric and returns
/// how many read worse.
pub fn compare(a: &ResultSet, b: &ResultSet) -> Result<usize, String> {
    if a.workload != b.workload {
        return Err(format!("{} against {}", a.workload, b.workload));
    }
    println!("{} (seed {} against seed {})", a.workload, a.seed, b.seed);
    let mut worse = 0;
    let mut row = |name: &str, left: String, right: String, change: String, verdict: Verdict| {
        println!(
            "  {name:<36} {left:>16} {right:>16} {change:>9}  {}",
            verdict.as_str()
        );
        worse += (verdict == Verdict::Worse) as usize;
    };
    for m in &END_TO_END {
        let find = |set: &ResultSet| {
            set.e2e
                .iter()
                .find(|(n, _)| n == m.name)
                .map(|(_, s)| s.clone())
        };
        let (Some(sa), Some(sb)) = (find(a), find(b)) else {
            return Err(format!("a set lacks `{}`", m.name));
        };
        row(
            m.name,
            format!("{:.4}", sa.median),
            format!("{:.4}", sb.median),
            format!("{:+.2}%", (sb.median - sa.median) / sa.median * 100.0),
            classify(&sa, &sb, m.better, m.bound),
        );
    }
    // Failures counted against attempts must not rise.
    let share = |s: &ResultSet| s.failed as f64 / s.attempted.max(1) as f64;
    let verdict = if share(b) > share(a) {
        Verdict::Worse
    } else {
        Verdict::Within
    };
    row(
        "failed_share",
        format!("{:.6}", share(a)),
        format!("{:.6}", share(b)),
        String::new(),
        verdict,
    );
    // Counts the program makes repeat exactly on one seed.
    if a.seed == b.seed {
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            let find = |s: &ResultSet| s.layer.iter().find(|(n, _)| n == m.name).map(|(_, v)| *v);
            if let (Some(va), Some(vb)) = (find(a), find(b)) {
                if va != 0.0 || vb != 0.0 {
                    let verdict = if va == vb {
                        Verdict::Within
                    } else {
                        Verdict::Worse
                    };
                    row(
                        m.name,
                        format!("{va}"),
                        format!("{vb}"),
                        "exact".into(),
                        verdict,
                    );
                }
            }
        }
    }
    Ok(worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, spread: f64) -> Spread {
        let values = (0..10)
            .map(|i| center * (1.0 + spread * (i as f64 - 4.5) / 4.5))
            .collect();
        Spread::of("synthetic", values)
    }

    #[test]
    fn compare_classifies_regression_improvement_and_noise() {
        let parent = around(100.0, 0.01);
        // Lower is better, bound 10 %.
        let v = |b: &Spread| classify(&parent, b, Better::Lower, 0.10);
        assert_eq!(v(&around(115.0, 0.01)), Verdict::Worse);
        assert_eq!(v(&around(90.0, 0.01)), Verdict::Better);
        assert_eq!(v(&around(100.4, 0.01)), Verdict::Within);
        assert_eq!(
            v(&around(104.0, 0.01)),
            Verdict::Within,
            "worse, inside the bound"
        );
        // A spread wider than the bound resolves nothing…
        assert_eq!(v(&around(103.0, 0.30)), Verdict::Unresolved);
        // …unless every run of the change beats every run of the parent.
        assert_eq!(v(&around(50.0, 0.30)), Verdict::Better);
        // Higher is better: the same numbers flip.
        let h = |b: &Spread| classify(&parent, b, Better::Higher, 0.10);
        assert_eq!(h(&around(115.0, 0.01)), Verdict::Better);
        assert_eq!(h(&around(85.0, 0.01)), Verdict::Worse);
    }

    #[test]
    fn sets_round_trip_through_their_file_form() {
        let run = |round_s: f64, traced: bool| RunRecord {
            workload: "sim_fanout".into(),
            seed: 1,
            seconds: 12.0,
            traced,
            attempted: 400,
            failed: 0,
            rounds: 3,
            wall_s: 13.5,
            e2e: END_TO_END
                .iter()
                .map(|m| (m.name.to_string(), format!("{}.alias", m.name), round_s))
                .collect(),
            layer: vec![("sim.engine.events".into(), 104_050.0)],
        };
        let again = RunRecord::from_json(&run(1.0, true).to_json()).expect("run parses");
        assert_eq!(again.layer, run(1.0, true).layer);
        assert_eq!(again.e2e, run(1.0, true).e2e);

        let set = ResultSet::aggregate(
            &[run(1.0, false), run(2.0, false), run(3.0, false)],
            &run(2.2, true),
        )
        .expect("aggregates");
        assert!((set.trace_overhead_share - 0.1).abs() < 1e-12);
        let text = set.to_json().to_pretty();
        let back = ResultSet::from_json(&json::parse(&text).expect("parses")).expect("a set");
        assert_eq!(back.e2e, set.e2e);
        assert_eq!(back.layer, set.layer);
        assert_eq!(back.e2e[0].1.median, 2.0);
        assert_eq!(compare(&set, &back), Ok(0));
    }
}
