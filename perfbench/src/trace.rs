//! A std-only span recorder for the traced run.
//!
//! Spans are recorded in memory — name, start, end, parent and the id of
//! the task or request they belong to — and written out once the run has
//! ended. One [`Recorder`] belongs to one thread (it is `!Sync`); a
//! multi-threaded phase gives each thread its own recorder on a shared
//! epoch and [`Recorder::absorb`]s them afterwards.
//!
//! The recorder never measures itself into the spans it records; instead
//! [`span_cost_ns`] times the recording machinery in isolation, so the
//! run can report its own overhead (`trace.overhead`).

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn ms(&self) -> f64 {
        self.ns() as f64 / 1e6
    }
}

/// Per-name totals: call count, summed duration, summed self time (the
/// duration minus the part covered by direct child spans).
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// An in-memory span recorder; disabled recorders time nothing.
pub struct Recorder {
    epoch: Instant,
    enabled: Cell<bool>,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            enabled: Cell::new(true),
            spans: RefCell::default(),
            open: RefCell::default(),
        }
    }

    /// A recorder that records nothing: `time` just runs the closure.
    pub fn disabled() -> Recorder {
        let rec = Recorder::new(Instant::now());
        rec.set_enabled(false);
        rec
    }

    pub fn enabled(&self) -> bool {
        self.enabled.get()
    }

    /// Pauses (`false`) or resumes recording.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.set(enabled);
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Runs `f` inside a span named `name` for operation `op`; spans
    /// opened inside `f` become its children.
    pub fn time<T>(&self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled.get() {
            return f();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span {
                name,
                op,
                start_ns: self.epoch.elapsed().as_nanos() as u64,
                end_ns: 0,
                parent,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[index].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// Moves every span of `other` (same epoch) into this recorder.
    pub fn absorb(&self, other: Recorder) {
        let mut spans = self.spans.borrow_mut();
        let offset = spans.len();
        spans.extend(other.spans.into_inner().into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Every span named `name`.
    pub fn named(&self, name: &str) -> Vec<Span> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .cloned()
            .collect()
    }

    /// Summed duration of the spans named `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.named(name).iter().map(Span::ms).sum()
    }

    /// Mean duration in milliseconds per distinct operation that recorded
    /// a `name` span (several spans of one operation add up); 0 when the
    /// layer never ran.
    pub fn per_op_ms(&self, name: &str) -> f64 {
        let mut per_op: BTreeMap<u64, f64> = BTreeMap::new();
        for s in self.named(name) {
            *per_op.entry(s.op).or_default() += s.ms();
        }
        if per_op.is_empty() {
            0.0
        } else {
            per_op.values().sum::<f64>() / per_op.len() as f64
        }
    }

    /// Per-name totals including self time.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, covered) in spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.total_ns += s.ns();
            t.self_ns += s.ns().saturating_sub(covered);
        }
        out
    }

    /// Writes every span as one JSON line (`name`, `op`, `start_ns`,
    /// `end_ns`, `parent`), then one `self` line per span name.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.borrow().iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns, parent
            )?;
        }
        for (name, t) in self.totals() {
            writeln!(
                out,
                "{{\"self\":\"{name}\",\"calls\":{},\"total_ns\":{},\"self_ns\":{}}}",
                t.calls, t.total_ns, t.self_ns
            )?;
        }
        out.flush()
    }
}

/// The recorder's own cost per span in nanoseconds: the mean over a
/// burst of empty nested spans recorded into a scratch recorder.
pub fn span_cost_ns() -> f64 {
    const SPANS: u64 = 200_000;
    let scratch = Recorder::new(Instant::now());
    let start = Instant::now();
    for op in 0..SPANS / 2 {
        scratch.time("outer", op, || scratch.time("inner", op, || ()));
    }
    start.elapsed().as_nanos() as f64 / SPANS as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_direct_children() {
        let rec = Recorder::new(Instant::now());
        rec.time("outer", 7, || {
            rec.time("inner", 7, || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let totals = rec.totals();
        let (outer, inner) = (totals["outer"], totals["inner"]);
        assert_eq!((outer.calls, inner.calls), (1, 1));
        assert!(outer.total_ns >= inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert_eq!(rec.named("inner")[0].parent, Some(0));
        assert!(rec.per_op_ms("inner") >= 5.0);
        assert_eq!(rec.per_op_ms("missing"), 0.0);
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let epoch = Instant::now();
        let (a, b) = (Recorder::new(epoch), Recorder::new(epoch));
        a.time("x", 1, || ());
        b.time("y", 2, || b.time("z", 2, || ()));
        a.absorb(b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.named("z")[0].parent, Some(1));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::disabled();
        assert_eq!(rec.time("x", 0, || 5), 5);
        assert_eq!(rec.len(), 0);
    }
}
