//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Nothing here reaches into the library: a span is opened in the
//! benchmark's own code, just outside a public function, and closed when
//! that function returns. Spans stay in memory until the run ends and are
//! then written out in one go. End-to-end numbers never come from a traced
//! run — [`Tracer::off`] makes every call here a branch and nothing else.

use std::time::Instant;

/// One recorded interval. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer or call name (`"store.record"`, `"svc.relay"`, …).
    pub name: &'static str,
    /// The unit of work (run, session, sweep, cycle) the span belongs to;
    /// spans of one unit share it.
    pub unit: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// How many calls the span stands for: 1 for an ordinary span, the
    /// call count for per-message calls accumulated into one span.
    pub calls: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Accumulated time of many short calls into one layer within one unit
/// (per-message `encode_body`, `inject`, …): timing each as its own span
/// would record two thousand spans per session.
#[derive(Debug, Clone, Copy, Default)]
pub struct CallAcc {
    pub ns: u64,
    pub calls: u64,
}

/// Runs `f`, adding its duration to `acc` when tracing.
#[inline]
pub fn timed<T>(acc: Option<&mut CallAcc>, f: impl FnOnce() -> T) -> T {
    match acc {
        None => f(),
        Some(acc) => {
            let start = Instant::now();
            let out = f();
            acc.ns += start.elapsed().as_nanos() as u64;
            acc.calls += 1;
            out
        }
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<usize>,
    /// Where the next accumulated span under each open span is laid out
    /// (parallel to `stack`): accumulated spans have a duration but no
    /// real position, so they are placed back to back from their parent's
    /// start and never overlap each other.
    acc_cursor: Vec<u64>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer::new(false)
    }

    pub fn on() -> Self {
        Tracer::new(true)
    }

    fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            acc_cursor: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn since_epoch(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span. `f` receives the tracer back so it can open children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        unit: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.since_epoch(Instant::now());
        self.spans.push(Span {
            name,
            unit,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            calls: 1,
        });
        self.stack.push(index);
        self.acc_cursor.push(start_ns);
        let out = f(self);
        self.stack.pop();
        self.acc_cursor.pop();
        self.spans[index].end_ns = self.since_epoch(Instant::now());
        out
    }

    /// Records an interval measured elsewhere — on another thread, say —
    /// as a child of the innermost open span.
    pub fn record(&mut self, name: &'static str, unit: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let span = Span {
            name,
            unit,
            start_ns: self.since_epoch(start),
            end_ns: self.since_epoch(end),
            parent: self.stack.last().copied(),
            calls: 1,
        };
        self.spans.push(span);
    }

    /// Records an accumulated span (see [`CallAcc`]) under the innermost
    /// open span.
    pub fn record_acc(&mut self, name: &'static str, unit: u64, acc: CallAcc) {
        if !self.enabled || acc.calls == 0 {
            return;
        }
        let start_ns = match self.acc_cursor.last_mut() {
            Some(cursor) => {
                let at = *cursor;
                *cursor += acc.ns;
                at
            }
            None => self.since_epoch(Instant::now()),
        };
        self.spans.push(Span {
            name,
            unit,
            start_ns,
            end_ns: start_ns + acc.ns,
            parent: self.stack.last().copied(),
            calls: acc.calls,
        });
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its direct children cover. Children may overlap each
    /// other (a relay thread's span beside the main thread's wait) and may
    /// stick out of the parent; only the union, clipped to the parent,
    /// counts.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for (start, end) in kids {
                    let start = start.max(reach);
                    let end = end.min(s.end_ns);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                s.duration_ns() - covered
            })
            .collect()
    }

    /// Per-name totals, in first-seen order, over the spans recorded since
    /// there were `first` of them (a span's parent is always recorded
    /// before it, so a suffix of the trace is a forest of whole trees).
    pub fn summary_from(&self, first: usize) -> Vec<NameTotals> {
        let selfs = self.self_times_ns();
        let mut out: Vec<NameTotals> = Vec::new();
        for (s, self_ns) in self.spans.iter().zip(selfs).skip(first) {
            let row = match out.iter_mut().find(|r| r.name == s.name) {
                Some(row) => row,
                None => {
                    out.push(NameTotals {
                        name: s.name,
                        depth: self.depth(s),
                        ..NameTotals::default()
                    });
                    out.last_mut().expect("just pushed")
                }
            };
            row.spans += 1;
            row.calls += s.calls;
            row.total_ns += s.duration_ns();
            row.self_ns += self_ns;
        }
        out
    }

    fn depth(&self, span: &Span) -> usize {
        let mut depth = 0;
        let mut at = span.parent;
        while let Some(p) = at {
            depth += 1;
            at = self.spans[p].parent;
        }
        depth
    }

    /// The whole trace as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "  {{\"id\": {i}, \"name\": \"{}\", \"unit\": {}, \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"calls\": {}}}{}\n",
                crate::json::escape(s.name),
                s.unit,
                s.start_ns,
                s.end_ns,
                s.calls,
                if i + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        out.push_str("]}\n");
        out
    }
}

/// One row of [`Tracer::summary_from`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameTotals {
    pub name: &'static str,
    /// Nesting depth of the first span of this name.
    pub depth: usize,
    pub spans: u64,
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracer holding exactly the given `(name, start, end, parent)` spans.
    fn tracer_with(spans: &[(&'static str, u64, u64, Option<usize>)]) -> Tracer {
        let mut t = Tracer::on();
        for &(name, start_ns, end_ns, parent) in spans {
            t.spans.push(Span {
                name,
                unit: 0,
                start_ns,
                end_ns,
                parent,
                calls: 1,
            });
        }
        t
    }

    #[test]
    fn self_time_subtracts_only_direct_children() {
        // unit [0,100) > a [10,60) > b [20,30); unit > c [70,90)
        let t = tracer_with(&[
            ("unit", 0, 100, None),
            ("a", 10, 60, Some(0)),
            ("b", 20, 30, Some(1)),
            ("c", 70, 90, Some(0)),
        ]);
        assert_eq!(t.self_times_ns(), vec![30, 40, 10, 20]);
        // Self times of a tree add up to the root's duration.
        assert_eq!(t.self_times_ns().iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_are_not_subtracted_twice() {
        // Two children overlapping on [30,50), one sticking out of the parent.
        let t = tracer_with(&[
            ("unit", 0, 100, None),
            ("relay", 10, 50, Some(0)),
            ("wait", 30, 80, Some(0)),
            ("late", 90, 130, Some(0)),
        ]);
        // Union clipped to the parent: [10,80) + [90,100) = 80.
        assert_eq!(t.self_times_ns()[0], 20);
    }

    #[test]
    fn a_child_inside_another_child_s_interval_adds_nothing() {
        let t = tracer_with(&[
            ("unit", 0, 100, None),
            ("outer", 10, 90, Some(0)),
            ("inner", 20, 30, Some(0)),
        ]);
        assert_eq!(t.self_times_ns()[0], 20);
    }

    #[test]
    fn live_spans_nest_and_accumulated_spans_lay_out_back_to_back() {
        let mut t = Tracer::on();
        t.span("unit", 7, |t| {
            t.span("inner", 7, |_| std::hint::black_box(1 + 1));
            t.record_acc("enc", 7, CallAcc { ns: 40, calls: 4 });
            t.record_acc("dec", 7, CallAcc { ns: 60, calls: 4 });
            t.record_acc("none", 7, CallAcc::default());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 4, "an empty accumulator records nothing");
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[2].start_ns, spans[0].start_ns);
        assert_eq!(spans[3].start_ns, spans[2].end_ns);
        assert_eq!(spans[3].calls, 4);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let rows = t.summary_from(0);
        assert_eq!(rows[0].name, "unit");
        assert_eq!(rows[1].depth, 1);
        assert_eq!(rows[2].total_ns, 40);
    }

    #[test]
    fn a_disabled_tracer_runs_the_closure_and_records_nothing() {
        let mut t = Tracer::off();
        let out = t.span("unit", 0, |t| {
            t.record_acc("x", 0, CallAcc { ns: 5, calls: 1 });
            t.record("y", 0, Instant::now(), Instant::now());
            41 + 1
        });
        assert_eq!(out, 42);
        assert!(t.spans().is_empty());
        let mut acc = CallAcc::default();
        assert_eq!(timed(None, || 3), 3);
        assert_eq!(timed(Some(&mut acc), || 4), 4);
        assert_eq!(acc.calls, 1);
    }

    #[test]
    fn trace_json_parses_back() {
        let t = tracer_with(&[("unit", 0, 10, None), ("a", 1, 2, Some(0))]);
        let doc = crate::json::Json::parse(&t.to_json()).unwrap();
        let spans = doc.get("spans").unwrap().as_arr();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].num("parent"), Ok(0.0));
        assert_eq!(spans[0].get("parent"), Some(&crate::json::Json::Null));
    }
}
