//! In-memory spans recorded around the calls the benchmark makes into each
//! layer. Spans live in the benchmark's own code only; the simulator is not
//! instrumented. They are written out once, when the traced run ends.

use rlb_bench::json::Json;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The host clock. Every wall-clock read of the benchmark goes through here.
pub fn now() -> Instant {
    Instant::now() // lint:allow(wall-clock) the benchmark times the host, never a simulation
}

/// One recorded call: name, interval in ns since the tracer started, the
/// span that caused it, and the experiment point it belongs to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub point: Option<usize>,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span recorder poisoned").clone()
    }
}

/// Where a call sits: in an untraced run nothing is recorded; in a traced
/// run, new spans become children of `parent` and belong to `point`.
#[derive(Clone, Default)]
pub struct Scope {
    tracer: Option<Arc<Tracer>>,
    point: Option<usize>,
    parent: Option<usize>,
}

impl Scope {
    pub fn new(tracer: Option<Arc<Tracer>>) -> Scope {
        Scope {
            tracer,
            point: None,
            parent: None,
        }
    }

    pub fn for_point(&self, id: usize) -> Scope {
        Scope {
            point: Some(id),
            ..self.clone()
        }
    }

    /// Run `f`, recording it as span `name` when tracing.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce(&Scope) -> T) -> T {
        let Some(tr) = &self.tracer else {
            return f(self);
        };
        let id = {
            let mut spans = tr.spans.lock().expect("span recorder poisoned");
            spans.push(Span {
                name,
                point: self.point,
                parent: self.parent,
                start_ns: tr.now_ns(),
                end_ns: 0,
            });
            spans.len() - 1
        };
        let out = f(&Scope {
            parent: Some(id),
            ..self.clone()
        });
        let end = tr.now_ns();
        tr.spans.lock().expect("span recorder poisoned")[id].end_ns = end;
        out
    }
}

/// Self time per span name, in ns: each span's duration minus the part of
/// its interval that its children cover. Children may overlap (points run
/// on parallel workers), so the covered part is the union of their
/// intervals. A span left open by a panic counts as empty.
pub fn self_ns_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns.max(s.start_ns)));
        }
    }
    let mut out = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        let (lo, hi) = (s.start_ns, s.end_ns.max(s.start_ns));
        kids.sort_unstable();
        let mut covered = 0;
        let mut cursor = lo;
        for &(a, b) in kids.iter() {
            let (a, b) = (a.max(cursor), b.min(hi));
            if b > a {
                covered += b - a;
                cursor = b;
            }
        }
        *out.entry(s.name).or_insert(0) += (hi - lo).saturating_sub(covered);
    }
    out
}

pub fn spans_json(spans: &[Span]) -> Json {
    let opt = |v: Option<usize>| v.map_or(Json::Null, |v| Json::U64(v as u64));
    Json::Arr(
        spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("id", Json::U64(id as u64)),
                    ("name", Json::Str(s.name.to_string())),
                    ("point", opt(s.point)),
                    ("parent", opt(s.parent)),
                    ("start_ns", Json::U64(s.start_ns)),
                    ("end_ns", Json::U64(s.end_ns)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            point: None,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("batch", None, 0, 100),
            // Two overlapping children cover [10, 70).
            span("point", Some(0), 10, 60),
            span("point", Some(0), 20, 70),
            span("run", Some(1), 15, 55),
        ];
        let by = self_ns_by_name(&spans);
        assert_eq!(by["batch"], 40);
        assert_eq!(by["point"], (50 - 40) + 50);
        assert_eq!(by["run"], 40);
    }

    #[test]
    fn scope_records_nesting_and_points() {
        let tr = Arc::new(Tracer::new());
        let root = Scope::new(Some(tr.clone()));
        root.span("outer", |s| s.for_point(3).span("inner", |_| ()));
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].point, Some(3));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        // Untraced scopes record nothing and still run the call.
        assert_eq!(Scope::default().span("x", |_| 7), 7);
    }
}
