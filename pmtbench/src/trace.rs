//! In-memory spans around calls into the library's public functions.
//!
//! Spans are recorded from the benchmark's own code only — nothing
//! inside the program is instrumented. Each span has a name, start, end,
//! parent (the span open on the same thread when it began), an id
//! shared by the spans of one request or profile, and an optional work
//! count. A disabled tracer records nothing and costs one branch.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub id: u64,
    /// Work items the span covered (points, instructions, ...); 0 when
    /// the span is one call.
    pub count: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    on: AtomicBool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    /// Indices of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on: AtomicBool::new(on),
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Start or stop recording (spans already open still close).
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; it closes when the guard drops.
    pub fn span(&self, name: &'static str, id: u64) -> SpanGuard<'_> {
        if !self.is_on() {
            return SpanGuard {
                tracer: None,
                index: 0,
            };
        }
        let parent = OPEN.with(|open| open.borrow().last().copied());
        let start_ns = self.now_ns();
        let index = {
            let mut spans = self.spans.lock().expect("span buffer lock");
            spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                id,
                count: 0,
            });
            spans.len() - 1
        };
        OPEN.with(|open| open.borrow_mut().push(index));
        SpanGuard {
            tracer: Some(self),
            index,
        }
    }

    /// Time `f` under a span.
    pub fn time<R>(&self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        let _span = self.span(name, id);
        f()
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer lock").clone()
    }
}

pub struct SpanGuard<'t> {
    tracer: Option<&'t Tracer>,
    index: usize,
}

impl SpanGuard<'_> {
    /// Record how many work items this span covers.
    pub fn count(&mut self, n: u64) {
        if let Some(t) = self.tracer {
            if let Ok(mut spans) = t.spans.lock() {
                spans[self.index].count = n;
            }
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(t) = self.tracer else { return };
        let end = t.now_ns();
        if let Ok(mut spans) = t.spans.lock() {
            spans[self.index].end_ns = end;
        }
        OPEN.with(|open| {
            open.borrow_mut().pop();
        });
    }
}

/// Each span's self time: its duration minus the part of it that its
/// child spans cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.ns() - covered
        })
        .collect()
}

/// Aggregates over every span of one name.
pub struct Named {
    /// Span durations in nanoseconds, ascending.
    pub durations: Vec<u64>,
    pub total_ns: u64,
    pub count: u64,
}

pub fn by_name(spans: &[Span], name: &str) -> Named {
    let mut named = Named {
        durations: Vec::new(),
        total_ns: 0,
        count: 0,
    };
    for s in spans.iter().filter(|s| s.name == name) {
        named.durations.push(s.ns());
        named.total_ns += s.ns();
        named.count += s.count;
    }
    named.durations.sort_unstable();
    named
}

impl Named {
    /// Median span duration in `unit_ns` units (0 with no spans).
    pub fn median(&self, unit_ns: f64) -> f64 {
        match self.durations.len() {
            0 => 0.0,
            n => self.durations[n / 2] as f64 / unit_ns,
        }
    }

    /// Total duration per work item in `unit_ns` units (0 with no work).
    pub fn per_item(&self, unit_ns: f64) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / unit_ns
        }
    }
}
