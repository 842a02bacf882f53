//! In-memory span recorder.
//!
//! Spans are recorded from the benchmark's own code, around its calls into
//! `mtm-graph`, `mtm-core` and `mtm-engine`; nothing inside those crates is
//! instrumented. Every instance records its phase spans (`run`, `setup`,
//! the four set-up layers, `sim`) — eight clock reads, whatever the mode.
//! Per-round spans are recorded only when the tracer is `fine`, which is
//! what `--trace 1` means.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Span {
    /// The instance the span belongs to.
    pub(crate) run: u32,
    pub(crate) name: &'static str,
    pub(crate) start_ns: u64,
    pub(crate) end_ns: u64,
    /// Index of the enclosing span in the same recording.
    pub(crate) parent: Option<usize>,
}

impl Span {
    pub(crate) fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans against one monotonic origin.
pub(crate) struct Tracer {
    origin: Instant,
    fine: bool,
    run: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// `fine` turns on per-round spans.
    pub(crate) fn new(fine: bool) -> Tracer {
        // Wall-clock reads are the point of a benchmark; nothing here feeds
        // back into a simulation.
        #[allow(clippy::disallowed_methods)]
        let origin = Instant::now();
        Tracer { origin, fine, run: 0, spans: Vec::new(), open: Vec::new() }
    }

    pub(crate) fn fine(&self) -> bool {
        self.fine
    }

    /// Nanoseconds since the tracer was created.
    pub(crate) fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("benchmark runs for < 584 years")
    }

    /// Attribute the spans that follow to instance `run`.
    pub(crate) fn begin_run(&mut self, run: u32) {
        assert!(self.open.is_empty(), "instance {run} began inside an open span");
        self.run = run;
    }

    /// Open a span as a child of the innermost open one.
    pub(crate) fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            run: self.run,
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one.
    pub(crate) fn close(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Close every open span now. Used after a panic unwound through them,
    /// so they end where the instance stopped and the next one can begin.
    pub(crate) fn abandon(&mut self) {
        let now = self.now_ns();
        for id in self.open.drain(..) {
            self.spans[id].end_ns = now;
        }
    }

    /// Run `f` inside a span called `name`.
    pub(crate) fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Record an already measured interval as a child of the innermost open
    /// span (used where the interval ends inside a callback).
    pub(crate) fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            run: self.run,
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
        });
    }

    pub(crate) fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of instance `run`'s spans called `name`.
    pub(crate) fn total_ns(&self, run: u32, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.run == run && s.name == name).map(Span::duration_ns).sum()
    }

    /// One JSON object per span, one per line; `parent` is the line index
    /// of the enclosing span.
    pub(crate) fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"run\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.run, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Each span's self time: its duration minus the part of its interval that
/// its children cover.
pub(crate) fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut cover)| {
            cover.sort_unstable();
            let (mut covered, mut reach) = (0, s.start_ns);
            for (a, b) in cover {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { run: 0, name, start_ns, end_ns, parent }
    }

    #[test]
    fn self_time_subtracts_covered_interval_once() {
        let spans = [
            span("run", 0, 100, None),
            span("setup", 0, 40, Some(0)),
            span("graph.build", 5, 30, Some(1)),
            // Overlapping children cover [50, 90) once, not 55 ns.
            span("sim", 50, 80, Some(0)),
            span("sim", 60, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 40, 40 - 25, 25, 30, 30]);
    }

    #[test]
    fn nesting_and_jsonl() {
        let mut t = Tracer::new(true);
        t.begin_run(3);
        let run = t.open("run");
        let built = t.time("graph.build", || 7);
        let now = t.now_ns();
        t.record("engine.event_window", now, now + 5);
        t.close(run);
        assert_eq!(built, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.run == 3 && s.end_ns >= s.start_ns));
        assert_eq!(t.total_ns(3, "engine.event_window"), 5);
        let text = t.to_jsonl();
        assert_eq!(text.lines().count(), 3);
        for line in text.lines() {
            mtm_analysis::json::parse(line).expect("each trace line is JSON");
        }
    }

    #[test]
    fn abandon_closes_open_spans() {
        let mut t = Tracer::new(true);
        t.open("run");
        t.open("setup");
        t.abandon();
        t.begin_run(1);
        assert!(t.spans().iter().all(|s| s.end_ns >= s.start_ns));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
    }
}
