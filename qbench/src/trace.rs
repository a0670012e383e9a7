//! The outside-in trace: spans recorded in memory around the calls the
//! benchmark makes into each layer's public functions, plus counters
//! recorded at the same call sites.
//!
//! Nothing here runs inside the library. A span is opened just before a
//! call and closed just after it; spans opened while another is open
//! become its children, and every span carries the id of the job it
//! belongs to. A layer's self time is its span's duration minus the time
//! its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call name, e.g. `qsim.lower`.
    pub name: &'static str,
    /// Nanoseconds since the trace origin.
    pub start: u64,
    /// Nanoseconds since the trace origin (`start` while still open).
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Job the call belongs to.
    pub job: u64,
}

/// An in-memory span and counter recorder (one per thread; merge with
/// [`Tracer::absorb`] when the threads end).
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: BTreeMap<&'static str, u64>,
}

impl Tracer {
    /// A recorder timing against `origin` (share one origin across the
    /// recorders of one run so their spans compare).
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; it becomes the parent of spans opened before its
    /// [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, job: u64) -> usize {
        let start = self.now();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            job,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (the innermost open one).
    pub fn end(&mut self, id: usize) {
        let end = self.now();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id].end = end;
    }

    /// Times `f` as one span.
    pub fn time<T>(&mut self, name: &'static str, job: u64, f: impl FnOnce() -> T) -> T {
        self.time_us(name, job, f).0
    }

    /// Times `f` as one span and also returns the span's duration in
    /// microseconds.
    pub fn time_us<T>(&mut self, name: &'static str, job: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.begin(name, job);
        let out = f();
        self.end(id);
        let span = &self.spans[id];
        (out, (span.end - span.start) as f64 / 1e3)
    }

    /// Records a span whose interval was measured elsewhere, ending now.
    pub fn record(&mut self, name: &'static str, job: u64, nanos: u64) {
        let end = self.now();
        self.spans.push(Span {
            name,
            start: end.saturating_sub(nanos),
            end,
            parent: self.open.last().copied(),
            job,
        });
    }

    /// Adds `n` to counter `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    /// The value of counter `name` (0 if never counted).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Counter `name` as a share of `total` (0 when `total` is 0).
    pub fn share(&self, name: &str, total: u64) -> f64 {
        self.counter(name) as f64 / total.max(1) as f64
    }

    /// Moves another recorder's spans and counters into this one.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
        for (name, n) in other.counters {
            self.count(name, n);
        }
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time in nanoseconds of every span named `name`: its duration
    /// minus the union of its children's intervals.
    pub fn self_times(&self, name: &str) -> Vec<u64> {
        let children = self.children();
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| {
                let covered = children.get(&i).map_or(0, |c| union_length(c));
                (s.end - s.start).saturating_sub(covered)
            })
            .collect()
    }

    /// Total self time of spans named `name`, in microseconds.
    pub fn total_us(&self, name: &str) -> f64 {
        self.self_times(name).iter().sum::<u64>() as f64 / 1e3
    }

    /// Mean self time per span named `name`, in microseconds (0 when no
    /// such span was recorded).
    pub fn mean_us(&self, name: &str) -> f64 {
        let times = self.self_times(name);
        if times.is_empty() {
            0.0
        } else {
            times.iter().sum::<u64>() as f64 / 1e3 / times.len() as f64
        }
    }

    /// The share of the time spent in spans named `root` that their
    /// child spans account for.
    pub fn coverage(&self, root: &str) -> f64 {
        let children = self.children();
        let (mut covered, mut total) = (0u64, 0u64);
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == root {
                covered += children.get(&i).map_or(0, |c| union_length(c));
                total += s.end - s.start;
            }
        }
        covered as f64 / total.max(1) as f64
    }

    /// Child intervals of every span that has children, by parent index.
    fn children(&self) -> BTreeMap<usize, Vec<(u64, u64)>> {
        let mut children: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start, s.end));
            }
        }
        children
    }
}

/// Length of the union of half-open intervals.
fn union_length(intervals: &[(u64, u64)]) -> u64 {
    let mut v = intervals.to_vec();
    v.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (start, end) in v {
        current = match current {
            Some((s, e)) if start <= e => Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    total + current.map_or(0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_length(&[]), 0);
        assert_eq!(union_length(&[(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_length(&[(20, 25), (0, 10)]), 15);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now());
        let outer = t.begin("outer", 1);
        t.record("inner", 1, 0);
        t.end(outer);
        t.spans[outer].start = 0;
        t.spans[outer].end = 100;
        t.spans[1].start = 10;
        t.spans[1].end = 40;
        assert_eq!(t.spans[1].parent, Some(outer));
        assert_eq!(t.self_times("outer"), vec![70]);
        assert_eq!(t.self_times("inner"), vec![30]);
    }

    #[test]
    fn absorb_reindexes_parents_and_sums_counters() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin);
        a.time("x", 0, || ());
        a.count("hits", 2);
        let mut b = Tracer::new(origin);
        let outer = b.begin("outer", 1);
        b.time("inner", 1, || ());
        b.end(outer);
        b.count("hits", 3);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.counter("hits"), 5);
    }
}
