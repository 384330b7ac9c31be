//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A thread that called [`begin`] records a span for every [`span`] call made
//! on it until [`end`]; on any other thread, and in an untraced run, [`span`]
//! only runs the closure. Spans stay in the thread's memory until the phase
//! ends and are written out once, after all measuring is done.

use std::cell::RefCell;
use std::time::Instant;

/// Index of a span without a parent.
pub const ROOT: u32 = u32::MAX;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<operation>`.
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index (within the same span list) of the span that caused this one,
    /// or [`ROOT`].
    pub parent: u32,
    /// Spans of one request (or one embedded op) share this identifier.
    pub request: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u64,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on this thread; timestamps count from `epoch`.
pub fn begin(epoch: Instant) {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        })
    });
}

/// Stops recording on this thread and hands back its spans.
pub fn end() -> Vec<Span> {
    RECORDER.with(|r| r.borrow_mut().take().map(|r| r.spans).unwrap_or_default())
}

/// Sets the request identifier the following spans carry.
pub fn set_request(id: u64) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.request = id;
        }
    });
}

/// Runs `f` inside a span named `name`, child of the innermost span open on
/// this thread.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let slot = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut()?;
        let idx = rec.spans.len() as u32;
        let start_ns = rec.epoch.elapsed().as_nanos() as u64;
        rec.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: rec.open.last().copied().unwrap_or(ROOT),
            request: rec.request,
        });
        rec.open.push(idx);
        Some(idx)
    });
    let out = f();
    if let Some(idx) = slot {
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.spans[idx as usize].end_ns = rec.epoch.elapsed().as_nanos() as u64;
                rec.open.pop();
            }
        });
    }
    out
}

/// Joins per-thread span lists into one, keeping parent links valid.
pub fn merge(lists: Vec<Vec<Span>>) -> Vec<Span> {
    let mut all = Vec::with_capacity(lists.iter().map(Vec::len).sum());
    for list in lists {
        let base = all.len() as u32;
        all.extend(list.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += base;
            }
            s
        }));
    }
    all
}

/// Per-span self time: its duration minus the time its direct children took.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if s.parent != ROOT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Durations (ns) of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect()
}

/// What recording one span costs, in nanoseconds (mean over 10 000 empty
/// spans on a scratch recorder): the basis of the embedded workloads'
/// `trace.overhead_pct`. Call it outside any recording.
pub fn empty_span_ns() -> f64 {
    const N: usize = 10_000;
    begin(Instant::now());
    let t = Instant::now();
    for _ in 0..N {
        span("trace.empty", || ());
    }
    let ns = t.elapsed().as_nanos() as f64 / N as f64;
    end();
    ns
}

/// Most spans written to a trace file; metrics always use all of them.
pub const FILE_CAP: usize = 50_000;

/// Writes the spans as JSON (`name`, `start_ns`, `end_ns`, `parent`,
/// `request`), at most [`FILE_CAP`] of them.
pub fn write_json(path: &std::path::Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    let shown = spans.len().min(FILE_CAP);
    writeln!(
        w,
        "{{\"workload\":\"{workload}\",\"spans_recorded\":{},\"spans_written\":{shown},\"spans\":[",
        spans.len()
    )?;
    for (i, s) in spans[..shown].iter().enumerate() {
        // A parent beyond the cap would dangle; such spans are written as roots.
        let parent = if s.parent == ROOT || s.parent as usize >= shown {
            -1
        } else {
            i64::from(s.parent)
        };
        writeln!(
            w,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}{}",
            s.name,
            s.start_ns,
            s.end_ns,
            s.request,
            if i + 1 == shown { "" } else { "," }
        )?;
    }
    writeln!(w, "]}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untraced_thread_records_nothing() {
        assert_eq!(span("lake.x", || 3), 3);
        assert!(end().is_empty());
    }

    #[test]
    fn nesting_sets_parents_and_self_time() {
        begin(Instant::now());
        set_request(9);
        span("lake.ingest", || {
            span("fs.write", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            span("fs.fsync", || ());
        });
        let spans = end();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, ROOT);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 0);
        assert!(spans.iter().all(|s| s.request == 9));
        let own = self_times(&spans);
        assert_eq!(
            own[0],
            spans[0].dur_ns() - spans[1].dur_ns() - spans[2].dur_ns()
        );
        assert_eq!(durations(&spans, "fs.write").len(), 1);
        // Merging shifts the second list's parent links.
        let merged = merge(vec![spans.clone(), spans]);
        assert_eq!(merged[4].parent, 3);
        assert_eq!(merged[3].parent, ROOT);
    }
}
