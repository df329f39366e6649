//! In-memory spans for the traced pass.
//!
//! One span per call into a layer (a crate of the workspace), recorded by
//! the benchmark around the call — nothing inside the measured crates is
//! instrumented. Callback layers (the adaptive router and the traffic
//! source, which the simulator calls back into millions of times) are not
//! one span per call: their decorators count calls and sum time, and the
//! total is attached to the calling span as one *aggregate* child.

use std::time::Instant;

use crate::json::Json;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `<crate>.<what>`, e.g. `flitsim.event.run`.
    pub name: String,
    /// Start, nanoseconds since the tracer was created. An aggregate has
    /// no interval of its own: its start is pinned to its parent's.
    pub start_ns: u64,
    /// End; for an aggregate, start plus the summed time of its calls.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Shared by every span of one traced pass.
    pub run_id: u64,
    /// Calls covered: 1 for a plain span, the call count of an aggregate.
    pub calls: u64,
    /// Whether this is a call-count + total-time aggregate.
    pub aggregate: bool,
}

impl Span {
    /// Length in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Why a span set is not a well-formed forest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpanError {
    /// `parent` does not name an earlier span.
    BadParent {
        /// Index of the offending span.
        span: usize,
    },
    /// A span ends before it starts.
    Negative {
        /// Index of the offending span.
        span: usize,
    },
    /// A child starts before or ends after its parent.
    ChildOutsideParent {
        /// Index of the child.
        child: usize,
        /// Index of its parent.
        parent: usize,
    },
    /// The children of a span cover more time than the span itself.
    ChildrenExceedParent {
        /// Index of the parent.
        parent: usize,
    },
}

/// Self time of every span: its duration minus what its children cover.
/// Children of one parent are sequential here (one thread records them),
/// so "cover" is the sum of their durations. Rejects a child that
/// outlives its parent instead of clamping: that is a recording bug, and
/// a clamped number would hide it.
pub fn self_times(spans: &[Span]) -> Result<Vec<u64>, SpanError> {
    let mut own: Vec<u64> = Vec::with_capacity(spans.len());
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            return Err(SpanError::Negative { span: i });
        }
        own.push(s.duration_ns());
    }
    for (i, s) in spans.iter().enumerate() {
        let Some(p) = s.parent else { continue };
        if p >= i {
            return Err(SpanError::BadParent { span: i });
        }
        let parent = &spans[p];
        if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
            return Err(SpanError::ChildOutsideParent {
                child: i,
                parent: p,
            });
        }
        own[p] = own[p]
            .checked_sub(s.duration_ns())
            .ok_or(SpanError::ChildrenExceedParent { parent: p })?;
    }
    Ok(own)
}

/// Records spans into memory; written out once, when the workload ends.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    run_id: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records.
    pub fn new() -> Tracer {
        Tracer {
            enabled: true,
            epoch: Instant::now(),
            run_id: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer whose [`Tracer::span`] only calls through: the untraced
    /// arms run the same code as the traced pass, without a clock read.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts the next pass: later spans carry a fresh `run_id`.
    pub fn next_run(&mut self) {
        self.run_id += 1;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span. `f` gets the tracer back so it can nest spans and attach
    /// aggregates.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            run_id: self.run_id,
            calls: 1,
            aggregate: false,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Attaches `calls` calls totalling `total_ns` to the innermost open
    /// span, as one aggregate child. The total is an extrapolation from
    /// sampled calls, so it is capped at the time the parent has been
    /// open: an estimate must not make the trace ill-formed.
    pub fn aggregate(&mut self, name: &str, calls: u64, total_ns: u64) {
        if !self.enabled {
            return;
        }
        let parent = *self.open.last().expect("an aggregate needs an open span");
        let start_ns = self.spans[parent].start_ns;
        let total_ns = total_ns.min(self.now_ns() - start_ns);
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns + total_ns,
            parent: Some(parent),
            run_id: self.run_id,
            calls,
            aggregate: true,
        });
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds spent in spans named `name`, one entry per pass that has
    /// any (summed within a pass).
    pub fn seconds(&self, name: &str) -> Vec<f64> {
        let mut per_run: Vec<(u64, u64)> = Vec::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            match per_run.last_mut() {
                Some((run, ns)) if *run == s.run_id => *ns += s.duration_ns(),
                _ => per_run.push((s.run_id, s.duration_ns())),
            }
        }
        per_run.iter().map(|&(_, ns)| ns as f64 * 1e-9).collect()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

/// The trace file: every span with its self time.
pub fn trace_to_json(spans: &[Span]) -> Result<Json, SpanError> {
    let own = self_times(spans)?;
    let rows = spans
        .iter()
        .zip(own)
        .map(|(s, self_ns)| {
            Json::obj()
                .with("name", s.name.as_str())
                .with("start_ns", s.start_ns)
                .with("end_ns", s.end_ns)
                .with(
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::from(p as u64)),
                )
                .with("run_id", s.run_id)
                .with("calls", s.calls)
                .with("aggregate", s.aggregate)
                .with("self_ns", self_ns)
        })
        .collect::<Vec<_>>();
    Ok(Json::obj().with("spans", rows))
}

/// Reads back what [`trace_to_json`] wrote.
pub fn trace_from_json(v: &Json) -> Result<Vec<Span>, String> {
    let rows = v
        .get("spans")
        .and_then(Json::as_arr)
        .ok_or("trace has no \"spans\" array")?;
    rows.iter()
        .enumerate()
        .map(|(i, r)| {
            let num = |k: &str| {
                r.get(k)
                    .and_then(Json::as_f64)
                    .map(|x| x as u64)
                    .ok_or(format!("span {i}: missing {k}"))
            };
            Ok(Span {
                name: r
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or(format!("span {i}: missing name"))?
                    .to_string(),
                start_ns: num("start_ns")?,
                end_ns: num("end_ns")?,
                parent: r.get("parent").and_then(Json::as_f64).map(|p| p as usize),
                run_id: num("run_id")?,
                calls: num("calls")?,
                aggregate: r.get("aggregate") == Some(&Json::Bool(true)),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t".into(),
            start_ns,
            end_ns,
            parent,
            run_id: 0,
            calls: 1,
            aggregate: false,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100 ⊃ a 10..60 ⊃ b 20..30, and root ⊃ c 70..90.
        let spans = [
            span(0, 100, None),
            span(10, 60, Some(0)),
            span(20, 30, Some(1)),
            span(70, 90, Some(0)),
        ];
        // root loses a and c (not b, which a already contains).
        assert_eq!(self_times(&spans), Ok(vec![30, 40, 10, 20]));
    }

    #[test]
    fn child_outliving_parent_is_rejected() {
        let spans = [span(0, 50, None), span(40, 60, Some(0))];
        assert_eq!(
            self_times(&spans),
            Err(SpanError::ChildOutsideParent {
                child: 1,
                parent: 0
            })
        );
        let spans = [span(10, 50, None), span(5, 20, Some(0))];
        assert!(self_times(&spans).is_err());
    }

    #[test]
    fn aggregates_larger_than_their_parent_are_rejected() {
        let mut agg = span(0, 30, Some(0));
        agg.aggregate = true;
        let spans = [span(0, 40, None), agg.clone(), agg];
        assert_eq!(
            self_times(&spans),
            Err(SpanError::ChildrenExceedParent { parent: 0 })
        );
        assert_eq!(
            self_times(&[span(0, 1, Some(0))]),
            Err(SpanError::BadParent { span: 0 })
        );
    }

    #[test]
    fn tracer_nests_spans_and_round_trips_through_json() {
        let mut t = Tracer::new();
        t.next_run();
        let x = t.span("outer", |t| {
            let y = t.span("inner", |_| 20);
            t.aggregate("callback", 7, 0);
            y + 1
        });
        assert_eq!(x, 21);
        let spans = t.spans().to_vec();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[2].parent, spans[2].calls), (Some(0), 7));
        assert!(spans.iter().all(|s| s.run_id == 1));
        assert_eq!(t.seconds("outer").len(), 1);
        let json = trace_to_json(&spans).unwrap();
        let back = trace_from_json(&Json::parse(&json.pretty()).unwrap()).unwrap();
        assert_eq!(back, spans);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        assert_eq!(t.span("x", |t| t.span("y", |_| 3)), 3);
        t.aggregate("z", 1, 1);
        assert!(t.spans().is_empty());
    }
}
