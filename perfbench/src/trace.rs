//! In-memory spans for the traced run.
//!
//! The benchmark opens a span around each call it makes into a layer's
//! public functions. A span records its name, start, end, parent, and the
//! request (one fragment or one page) it belongs to. Spans stay in memory
//! until the run ends; [`self_times`] then derives each span's own time as
//! its duration minus the part of it covered by its children.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `synth.search`.
    pub name: &'static str,
    /// The fragment or page this span belongs to.
    pub request: u64,
    /// The enclosing span's index, `None` for a request's root.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Length of the interval.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A single-threaded span recorder. Threads each own one and
/// [`merge`] them at the end.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    /// A tracer whose clock counts from `epoch`; tracers sharing an epoch
    /// produce comparable timestamps.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer { epoch, spans: Vec::new(), open: Vec::new(), request: 0 }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts a new request: spans opened from here on belong to it.
    ///
    /// # Panics
    ///
    /// Panics when a span of the previous request is still open.
    pub fn begin_request(&mut self, request: u64) {
        assert!(self.open.is_empty(), "request started inside an open span");
        self.request = request;
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str) -> usize {
        let start = self.now();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            request: self.request,
            parent: self.open.last().copied(),
            start_ns: start,
            end_ns: start,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, and with it any span still open inside it (one a
    /// caught panic left open).
    ///
    /// # Panics
    ///
    /// Panics when `id` is not open.
    pub fn close(&mut self, id: usize) {
        let now = self.now();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                return;
            }
        }
        panic!("span {id} is not open");
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.open(name);
        let out = f(self);
        self.close(id);
        out
    }

    /// Records a closed span under `parent` for work a layer reports only
    /// as a duration (verification inside the synthesis search, planning
    /// inside an execute). The interval is clipped to the parent's.
    pub fn record(&mut self, parent: usize, name: &'static str, start_ns: u64, end_ns: u64) {
        let p = &self.spans[parent];
        let start_ns = start_ns.clamp(p.start_ns, p.end_ns);
        let end_ns = end_ns.clamp(start_ns, p.end_ns);
        self.spans.push(Span {
            name,
            request: p.request,
            parent: Some(parent),
            start_ns,
            end_ns,
        });
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Consumes the tracer, returning its spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Concatenates per-thread span lists, re-basing parent indices.
pub fn merge(lists: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out = Vec::with_capacity(lists.iter().map(Vec::len).sum());
    for list in lists {
        let base = out.len();
        out.extend(list.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    out
}

/// Each span's self time: its duration minus the union of its children's
/// intervals, each clipped to the span's own interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start_ns);
            for (a, b) in kids {
                let (a, b) = (a.clamp(reach, s.end_ns), b.clamp(s.start_ns, s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Span indices grouped by request, in request order.
pub fn by_request(spans: &[Span]) -> BTreeMap<u64, Vec<usize>> {
    let mut out: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        out.entry(s.request).or_default().push(i);
    }
    out
}

/// Per request, the sum of its spans' self times over its root span's
/// duration: 1 when the layers' self times account for the whole request.
/// Requests whose root took no measurable time are skipped.
pub fn accounted_shares(spans: &[Span], selfs: &[u64]) -> Vec<f64> {
    by_request(spans)
        .values()
        .filter_map(|ids| {
            let root: u64 = ids
                .iter()
                .filter(|&&i| spans[i].parent.is_none())
                .map(|&i| spans[i].duration_ns())
                .sum();
            let own: u64 = ids.iter().map(|&i| selfs[i]).sum();
            (root > 0).then(|| own as f64 / root as f64)
        })
        .collect()
}

/// Self time summed per span name, in nanoseconds.
pub fn self_by_name(spans: &[Span], selfs: &[u64]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        *out.entry(s.name).or_default() += own;
    }
    out
}

/// Duration summed per span name, with the number of spans.
pub fn duration_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, usize)> {
    let mut out: BTreeMap<&'static str, (u64, usize)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.0 += s.duration_ns();
        e.1 += 1;
    }
    out
}

/// One line per span: `request parent name start_ns end_ns self_ns`, with
/// `-` for a root's parent.
pub fn render(spans: &[Span], selfs: &[u64]) -> String {
    let mut out = String::from("request\tid\tparent\tname\tstart_ns\tend_ns\tself_ns\n");
    for (i, (s, own)) in spans.iter().zip(selfs).enumerate() {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{}\t{i}\t{parent}\t{}\t{}\t{}\t{own}",
            s.request, s.name, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, request: u64, parent: Option<usize>, a: u64, b: u64) -> Span {
        Span { name, request, parent, start_ns: a, end_ns: b }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 1, None, 0, 100),
            span("a", 1, Some(0), 10, 40),
            // Overlaps `a`: the shared 30..40 is covered once.
            span("b", 1, Some(0), 30, 50),
            // Sticks out of the root: only 90..100 counts.
            span("c", 1, Some(0), 90, 130),
            span("a.inner", 1, Some(1), 15, 25),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![100 - 40 - 10, 30 - 10, 20, 40, 10]);
    }

    #[test]
    fn self_time_without_children_is_the_duration() {
        let spans = vec![span("solo", 7, None, 5, 9)];
        assert_eq!(self_times(&spans), vec![4]);
    }

    #[test]
    fn nested_spans_record_parents_and_requests() {
        let mut t = Tracer::new(Instant::now());
        t.begin_request(1);
        t.span("page", |t| {
            t.span("db.execute", |t| t.span("db.plan", |_| ()));
            let id = t.open("orm.fetch");
            t.close(id);
        });
        t.begin_request(2);
        t.span("page", |_| ());
        let spans = t.into_spans();
        let shape: Vec<_> = spans.iter().map(|s| (s.name, s.request, s.parent)).collect();
        assert_eq!(
            shape,
            vec![
                ("page", 1, None),
                ("db.execute", 1, Some(0)),
                ("db.plan", 1, Some(1)),
                ("orm.fetch", 1, Some(0)),
                ("page", 2, None),
            ]
        );
        for s in &spans {
            if let Some(p) = s.parent {
                assert!(spans[p].start_ns <= s.start_ns && s.end_ns <= spans[p].end_ns);
            }
        }
        let groups = by_request(&spans);
        assert_eq!(groups[&1], vec![0, 1, 2, 3]);
        assert_eq!(groups[&2], vec![4]);
    }

    #[test]
    fn recorded_spans_are_clipped_children() {
        let mut t = Tracer::new(Instant::now());
        t.begin_request(3);
        let id = t.open("synth.search");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.close(id);
        let (a, b) = (t.spans()[id].start_ns, t.spans()[id].end_ns);
        t.record(id, "verify.certify", b - 1_000, b + 5_000);
        let spans = t.into_spans();
        assert_eq!(spans[1].parent, Some(id));
        assert_eq!(spans[1].request, 3);
        assert_eq!((spans[1].start_ns, spans[1].end_ns), (b - 1_000, b));
        assert_eq!(self_times(&spans), vec![b - a - 1_000, 1_000]);
    }

    #[test]
    fn self_times_of_a_request_account_for_its_root() {
        let mut t = Tracer::new(Instant::now());
        for r in 0..3 {
            t.begin_request(r);
            t.span("fragment", |t| {
                t.span("front", |_| std::hint::black_box((0..1000).sum::<u64>()));
                t.span("synth", |t| t.span("verify", |_| ()));
            });
        }
        let spans = t.into_spans();
        let selfs = self_times(&spans);
        let shares = accounted_shares(&spans, &selfs);
        assert!(shares.iter().all(|&s| s == 1.0), "{shares:?}");
    }

    #[test]
    fn merging_rebases_parents() {
        let a = vec![span("x", 1, None, 0, 5), span("y", 1, Some(0), 1, 2)];
        let b = vec![span("x", 2, None, 0, 5), span("y", 2, Some(0), 1, 2)];
        let merged = merge(vec![a, b]);
        assert_eq!(merged[3].parent, Some(2));
        assert_eq!(self_by_name(&merged, &self_times(&merged))["x"], 8);
        assert_eq!(duration_by_name(&merged)["y"], (2, 2));
    }
}
