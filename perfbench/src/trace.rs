//! In-memory span tracing for the traced run.
//!
//! Spans are taken by the benchmark around its calls into the
//! workspace's public APIs; the program itself is not instrumented.
//! Each span records its name, start, end, parent span and the id of
//! the op it belongs to. Spans stay in memory until the run ends and
//! are then written out in one go ([`write_tsv`]).

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary name, e.g. `alg.collect`.
    pub name: &'static str,
    /// Start, ns since origin.
    pub start: u64,
    /// End, ns since origin.
    pub end: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<u32>,
    /// The op this span belongs to.
    pub op: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A per-thread span recorder. Open spans nest: a span begun while
/// another is open becomes its child.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Handle of an open span, returned by [`Tracer::begin`].
#[must_use = "a span must be ended"]
#[derive(Debug)]
pub struct Open(u32);

impl Tracer {
    /// A tracer whose clock starts at `origin` (share one origin across
    /// threads so their spans line up).
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span, child of the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: u64) -> Open {
        let idx = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(idx);
        Open(idx)
    }

    /// Closes the innermost open span (which must be `span`) and
    /// returns its duration in nanoseconds.
    pub fn end(&mut self, span: Open) -> u64 {
        let end = self.now();
        assert_eq!(
            self.open.pop(),
            Some(span.0),
            "spans must close innermost first"
        );
        let s = &mut self.spans[span.0 as usize];
        s.end = end;
        s.dur()
    }

    /// Runs `f` inside a span; returns its result and the span's
    /// duration in nanoseconds.
    pub fn time<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> (R, u64) {
        let open = self.begin(name, op);
        let r = f();
        let ns = self.end(open);
        (r, ns)
    }

    /// Closes every span still open (after an op panicked mid-span),
    /// so the next op's spans do not nest under the failed one.
    pub fn close_all(&mut self) {
        let end = self.now();
        for idx in self.open.drain(..) {
            self.spans[idx as usize].end = end;
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its
/// interval that its direct children cover (overlapping children are
/// counted once; children are clipped to the parent's interval).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
            if a < b {
                children[p as usize].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur() - covered
        })
        .collect()
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Spans with this name.
    pub count: u64,
    /// Summed wall duration, ns.
    pub total_ns: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
}

/// Aggregates spans by name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur();
        t.self_ns += own;
    }
    out
}

/// Wall durations, in nanoseconds, of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur() as f64)
        .collect()
}

/// Writes spans as tab-separated lines: `thread id name start_ns
/// end_ns self_ns parent op` (`parent` is `-` for a root span).
pub fn write_tsv(path: &std::path::Path, threads: &[&[Span]]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "thread\tid\tname\tstart_ns\tend_ns\tself_ns\tparent\top"
    )?;
    for (t, spans) in threads.iter().enumerate() {
        for (i, (s, own)) in spans.iter().zip(self_times(spans)).enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{t}\t{i}\t{}\t{}\t{}\t{own}\t{parent}\t{}",
                s.name, s.start, s.end, s.op
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_children() {
        // op [0, 100) with children collect [10, 40), two overlapping
        // cluster spans [30, 50) and [45, 60), and serialize [90, 120)
        // which overruns the parent and is clipped to [90, 100).
        // collect has a grandchild [15, 25) that only reduces collect.
        let spans = [
            span("op", 0, 100, None),
            span("collect", 10, 40, Some(0)),
            span("probe", 15, 25, Some(1)),
            span("cluster", 30, 50, Some(0)),
            span("cluster", 45, 60, Some(0)),
            span("serialize", 90, 120, Some(0)),
        ];
        // Covered in op: [10, 60) = 50 plus [90, 100) = 10.
        assert_eq!(self_times(&spans), vec![40, 20, 10, 20, 15, 30]);
        let t = totals(&spans);
        assert_eq!(
            t["cluster"],
            Totals {
                count: 2,
                total_ns: 35,
                self_ns: 35
            }
        );
        assert_eq!(t["op"].self_ns, 40);
    }

    #[test]
    fn tracer_nests_and_times() {
        let mut tr = Tracer::new(Instant::now());
        let outer = tr.begin("outer", 7);
        let ((), _) = tr.time("inner", 7, || std::hint::black_box(()));
        let total = tr.end(outer);
        let s = tr.spans();
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[0].parent, None);
        assert!(s[1].start >= s[0].start && s[1].end <= s[0].end);
        assert_eq!(total, s[0].dur());
        let own = self_times(s);
        assert_eq!(own[0] + s[1].dur(), s[0].dur());
    }
}
