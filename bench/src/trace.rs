//! Spans the driver records around its calls into a layer's public
//! functions. Kept in memory, written out when the run ends. The driver is
//! one thread, so the open-span stack gives each span its parent.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// The datum, round or slice the span belongs to.
    pub id: u64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

/// Per-name totals over a span list.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct NameSummary {
    pub calls: u64,
    pub total_s: f64,
    pub self_s: f64,
    pub durations_us: Vec<f64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f`, returning its result and its wall seconds. The timing is
    /// the harness's own and always taken; the span is recorded only on a
    /// traced run.
    pub fn time<R>(&self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> (R, f64) {
        let slot = self.enabled.then(|| {
            let mut spans = self.spans.borrow_mut();
            let mut open = self.open.borrow_mut();
            spans.push(Span {
                name,
                start_ns: self.epoch.elapsed().as_nanos() as u64,
                end_ns: 0,
                parent: open.last().copied(),
                id,
            });
            open.push(spans.len() - 1);
            spans.len() - 1
        });
        let start = Instant::now();
        let result = f();
        let secs = start.elapsed().as_secs_f64();
        if let Some(slot) = slot {
            self.spans.borrow_mut()[slot].end_ns = self.epoch.elapsed().as_nanos() as u64;
            self.open.borrow_mut().pop();
        }
        (result, secs)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Children that overlap each other (or stick out
/// of the parent) count once, and only inside the parent.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                if b > reach {
                    covered += b - a.max(reach);
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, NameSummary> {
    let selfs = self_times_ns(spans);
    let mut out: BTreeMap<&'static str, NameSummary> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        let dur = (s.end_ns - s.start_ns) as f64;
        e.calls += 1;
        e.total_s += dur / 1e9;
        e.self_s += self_ns as f64 / 1e9;
        e.durations_us.push(dur / 1e3);
    }
    out
}

/// Share of `wall_s` that top-level spans cover (the sum of every span's
/// self time equals the summed durations of the top-level ones).
pub fn coverage_share(spans: &[Span], wall_s: f64) -> f64 {
    let total: u64 = self_times_ns(spans).iter().sum();
    total as f64 / 1e9 / wall_s
}

/// The span file: names once, then `[name, start_ns, end_ns, parent, id]`
/// rows (`parent` is a row index, -1 at top level).
pub fn to_json(workload: &str, spans: &[Span]) -> Json {
    let mut names: Vec<&'static str> = Vec::new();
    let rows = spans
        .iter()
        .map(|s| {
            let idx = names.iter().position(|n| *n == s.name).unwrap_or_else(|| {
                names.push(s.name);
                names.len() - 1
            });
            Json::Arr(vec![
                Json::Num(idx as f64),
                Json::Num(s.start_ns as f64),
                Json::Num(s.end_ns as f64),
                Json::Num(s.parent.map_or(-1.0, |p| p as f64)),
                Json::Num(s.id as f64),
            ])
        })
        .collect();
    Json::obj(vec![
        ("workload", Json::str(workload)),
        ("columns", Json::str("name,start_ns,end_ns,parent,id")),
        (
            "names",
            Json::Arr(names.into_iter().map(Json::str).collect()),
        ),
        ("spans", Json::Arr(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let spans = vec![
            span("round", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),  // overlaps `a` on 30..40
            span("c", 90, 130, Some(0)), // sticks out of the parent
            span("a.inner", 15, 20, Some(1)),
        ];
        let selfs = self_times_ns(&spans);
        // Children cover 10..60 and 90..100 of the parent: 60 ns.
        assert_eq!(selfs[0], 40);
        assert_eq!(selfs[1], 25);
        assert_eq!(selfs[2], 30);
        assert_eq!(selfs[3], 40);
        assert_eq!(selfs[4], 5);
        let by_name = summarize(&spans);
        assert_eq!(by_name["round"].calls, 1);
        assert!((by_name["a"].self_s - 25e-9).abs() < 1e-15);
    }

    #[test]
    fn tracer_nests_by_call_order_and_stays_silent_when_off() {
        let t = Tracer::new(true);
        let ((), outer) = t.time("outer", 1, || {
            t.time("inner", 2, || ());
        });
        assert!(outer >= 0.0);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[1].end_ns <= spans[0].end_ns);

        let off = Tracer::new(false);
        let (v, _) = off.time("outer", 1, || 7);
        assert_eq!(v, 7);
        assert!(off.spans().is_empty());
    }
}
