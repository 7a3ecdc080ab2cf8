//! The traced run's span recorder.
//!
//! The benchmark wraps its own calls into each layer's public functions
//! in spans (name, start, end, parent), keeps them in memory, and writes
//! them out as Chrome JSON when the run ends. Below
//! `EvalService::drain`, which the benchmark cannot enter, it imports the
//! spans the service already records through `muir_core::telemetry`.

use muir_core::telemetry::{self, SpanRec};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval. Times are nanoseconds from the recorder's
/// origin; `parent` indexes the enclosing span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified span name, e.g. `core.seal`.
    pub name: &'static str,
    /// Start, ns from the recorder origin.
    pub start_ns: u64,
    /// End, ns from the recorder origin.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<usize>,
}

/// In-memory span log with a stack of open spans.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the recorder origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one; returns its index.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Close span `idx` and any span still open inside it (one a panic
    /// unwound past).
    pub fn exit(&mut self, idx: usize) {
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == idx {
                break;
            }
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let idx = self.enter(name);
        let out = f();
        self.exit(idx);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans recorded from index `from` on.
    pub fn since(&self, from: usize) -> &[Span] {
        &self.spans[from..]
    }

    /// Attach the program's own telemetry spans named in `names` as
    /// children of the `parent_name` span that contains each one's
    /// midpoint. `tele_origin_ns` is when (on this recorder's clock) the
    /// telemetry timebase was reset. Child bounds are clipped to the
    /// parent, since the two clocks agree only to a microsecond. Returns
    /// how many spans found no parent (they are dropped).
    pub fn import(
        &mut self,
        recs: &[SpanRec],
        tele_origin_ns: u64,
        names: &[&'static str],
        parent_name: &'static str,
    ) -> usize {
        let parents: Vec<usize> = (0..self.spans.len())
            .filter(|&i| self.spans[i].name == parent_name)
            .collect();
        let mut orphans = 0;
        let mut sorted: Vec<&SpanRec> = recs.iter().filter(|r| names.contains(&r.name)).collect();
        sorted.sort_by_key(|r| r.start_us);
        for r in sorted {
            let name = names
                .iter()
                .copied()
                .find(|n| *n == r.name)
                .expect("filtered by name");
            let start = tele_origin_ns + r.start_us * 1000;
            let end = start + r.dur_us * 1000;
            let mid = start + (end - start) / 2;
            let found = parents.partition_point(|&p| self.spans[p].start_ns <= mid);
            let parent = found
                .checked_sub(1)
                .map(|k| parents[k])
                .filter(|&p| self.spans[p].end_ns >= mid);
            match parent {
                Some(p) => {
                    let (ps, pe) = (self.spans[p].start_ns, self.spans[p].end_ns);
                    self.spans.push(Span {
                        name,
                        start_ns: start.clamp(ps, pe),
                        end_ns: end.clamp(ps, pe),
                        parent: Some(p),
                    });
                }
                None => orphans += 1,
            }
        }
        orphans
    }

    /// Render every span as a Chrome/Perfetto trace document.
    pub fn chrome_json(&self) -> String {
        let recs: Vec<SpanRec> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| SpanRec {
                name: s.name,
                cat: s.name.split('.').next().unwrap_or(s.name),
                detail: String::new(),
                start_us: s.start_ns / 1000,
                dur_us: (s.end_ns - s.start_ns) / 1000,
                tid: 0,
                depth: depth(&self.spans, i),
            })
            .collect();
        let events = telemetry::chrome_span_events(&recs, 1);
        format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
    }
}

fn depth(spans: &[Span], mut i: usize) -> u32 {
    let mut d = 1;
    while let Some(p) = spans[i].parent {
        d += 1;
        i = p;
    }
    d
}

/// Self time of every span in `spans` (indices relative to the slice,
/// parents outside it are ignored): its duration minus the part of its
/// interval that its children cover.
pub fn self_times(spans: &[Span], base: usize) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.and_then(|p| p.checked_sub(base)) {
            if p < spans.len() {
                children[p].push((s.start_ns, s.end_ns));
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
                let (a, b) = (a.clamp(reach, s.end_ns), b.clamp(s.start_ns, s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Per span name: `(total self time, total duration)` in microseconds.
pub fn by_name(spans: &[Span], base: usize) -> BTreeMap<&'static str, (f64, f64)> {
    let selfs = self_times(spans, base);
    let mut out: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.0 += own as f64 / 1000.0;
        e.1 += (s.end_ns - s.start_ns) as f64 / 1000.0;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // root [0,100] > a [10,40] > a1 [15,25]; root > b [50,90] (sibling).
        let spans = vec![
            sp("root", 0, 100, None),
            sp("a", 10, 40, Some(0)),
            sp("a1", 15, 25, Some(1)),
            sp("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans, 0), vec![30, 20, 10, 40]);
        let named = by_name(&spans, 0);
        assert_eq!(named["root"], (0.03, 0.1));
        assert_eq!(named["b"], (0.04, 0.04));
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = vec![
            sp("p", 0, 100, None),
            sp("c", 10, 60, Some(0)),
            sp("c", 40, 80, Some(0)),
            sp("c", 90, 120, Some(0)), // pokes past the parent: clipped
        ];
        assert_eq!(self_times(&spans, 0)[0], 100 - 70 - 10);
    }

    #[test]
    fn self_times_respect_the_slice_base() {
        let spans = [
            sp("old", 0, 5, None),
            sp("p", 10, 30, None),
            sp("c", 12, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans[1..], 1), vec![12, 8]);
    }

    #[test]
    fn recorder_nests_by_open_order() {
        let mut r = Recorder::new();
        let root = r.enter("root");
        r.span("leaf", || ());
        let mid = r.enter("mid");
        r.span("leaf", || ());
        r.exit(mid);
        let dangling = r.enter("unwound");
        r.exit(root);
        assert_eq!(r.spans()[dangling].end_ns, r.spans()[root].end_ns);
        let parents: Vec<Option<usize>> = r.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), Some(2), Some(0)]);
        assert!(r.spans().iter().all(|s| s.end_ns >= s.start_ns));
        let json = r.chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 5);
    }

    #[test]
    fn import_attaches_by_midpoint_and_clips() {
        let mut r = Recorder::new();
        r.spans = vec![
            sp("drain", 1_000_000, 2_000_000, None),
            sp("drain", 3_000_000, 4_000_000, None),
        ];
        let rec = |name: &'static str, start_us: u64, dur_us: u64| SpanRec {
            name,
            cat: "service",
            detail: String::new(),
            start_us,
            dur_us,
            tid: 0,
            depth: 2,
        };
        let recs = vec![
            rec("service.simulate", 3_100, 500),
            rec("service.group", 999, 10), // 1µs early: clipped into drain 0
            rec("service.other", 1_100, 10),
            rec("service.group", 2_500, 10), // between drains: orphan
        ];
        let orphans = r.import(&recs, 0, &["service.group", "service.simulate"], "drain");
        assert_eq!(orphans, 1);
        assert_eq!(
            r.spans()[2],
            sp("service.group", 1_000_000, 1_009_000, Some(0))
        );
        assert_eq!(
            r.spans()[3],
            sp("service.simulate", 3_100_000, 3_600_000, Some(1))
        );
        assert_eq!(r.spans().len(), 4);
    }
}
