//! The traced run's span recorder.
//!
//! The benchmark opens a span around each call it makes into a layer's
//! public functions and inside its own compute and observer closures.
//! Spans live in memory (name, start, end, parent, update id). When a
//! root span closes, its tree is folded into per-name aggregates (count,
//! total time, self time) and kept, up to a bound, for writing out at
//! exit. Recording is off unless [`set_enabled`] turned it on; the
//! untraced run pays one relaxed load per span site.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Spans kept for the output file; the aggregates cover every span.
const KEEP: usize = 200_000;

static ENABLED: AtomicBool = AtomicBool::new(false);

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub update: u64,
}

/// Self time of each span: its duration minus the part of it that its
/// direct children cover. Children may nest or overlap each other and
/// are clipped to their parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// What a traced segment recorded.
#[derive(Default)]
pub struct Summary {
    pub by_name: BTreeMap<&'static str, Agg>,
    /// Spans per (parent name, child name).
    pub children: BTreeMap<(&'static str, &'static str), u64>,
    /// Root spans: calls into the framework.
    pub roots: u64,
    /// Counts the benchmark adds beside the spans ([`count`]).
    pub counts: BTreeMap<&'static str, u64>,
    pub kept: Vec<Span>,
}

impl Summary {
    pub fn agg(&self, name: &str) -> Agg {
        self.by_name.get(name).copied().unwrap_or_default()
    }

    pub fn child_count(&self, parent: &'static str, child: &'static str) -> u64 {
        self.children.get(&(parent, child)).copied().unwrap_or(0)
    }

    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Folds one finished span tree (parents precede their children).
    fn fold(&mut self, tree: &mut Vec<Span>) {
        let selfs = self_times(tree);
        for (s, own) in tree.iter().zip(selfs) {
            let a = self.by_name.entry(s.name).or_default();
            a.count += 1;
            a.total_ns += s.end - s.start;
            a.self_ns += own;
            match s.parent {
                Some(p) => *self.children.entry((tree[p].name, s.name)).or_default() += 1,
                None => self.roots += 1,
            }
        }
        let room = KEEP.saturating_sub(self.kept.len());
        self.kept.extend(tree.drain(..).take(room));
        tree.clear();
    }

    /// Writes the kept spans as JSON lines.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.kept {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"update\":{}}}",
                s.name, s.start, s.end, parent, s.update
            )?;
        }
        out.flush()
    }
}

struct Recorder {
    origin: Instant,
    open: Vec<Span>,
    stack: Vec<usize>,
    update: u64,
    summary: Summary,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        origin: Instant::now(),
        open: Vec::new(),
        stack: Vec::new(),
        update: 0,
        summary: Summary::default(),
    });
}

pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Tags the spans opened from now on with a source-update id.
pub fn set_update(id: u64) {
    if ENABLED.load(Ordering::Relaxed) {
        REC.with(|r| r.borrow_mut().update = id);
    }
}

/// Closes its span when dropped.
#[must_use]
pub struct Guard(bool);

/// Opens a span named `name` under the innermost open span.
pub fn enter(name: &'static str) -> Guard {
    if !ENABLED.load(Ordering::Relaxed) {
        return Guard(false);
    }
    REC.with(|r| {
        let r = &mut *r.borrow_mut();
        let start = r.origin.elapsed().as_nanos() as u64;
        let parent = r.stack.last().copied();
        r.stack.push(r.open.len());
        r.open.push(Span {
            name,
            start,
            end: start,
            parent,
            update: r.update,
        });
    });
    Guard(true)
}

impl Drop for Guard {
    fn drop(&mut self) {
        if !self.0 {
            return;
        }
        REC.with(|r| {
            let r = &mut *r.borrow_mut();
            let end = r.origin.elapsed().as_nanos() as u64;
            let Some(i) = r.stack.pop() else { return };
            r.open[i].end = end;
            if r.stack.is_empty() {
                let mut tree = std::mem::take(&mut r.open);
                r.summary.fold(&mut tree);
                r.open = tree;
            }
        });
    }
}

/// Adds `n` to the benchmark-side count `name` (traced segments only).
pub fn count(name: &'static str, n: u64) {
    if ENABLED.load(Ordering::Relaxed) {
        REC.with(|r| *r.borrow_mut().summary.counts.entry(name).or_default() += n);
    }
}

/// Takes everything recorded so far on this thread.
pub fn take() -> Summary {
    REC.with(|r| std::mem::take(&mut r.borrow_mut().summary))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start,
            end,
            parent,
            update: 0,
        }
    }

    #[test]
    fn self_time_over_nested_children() {
        // root [0,100) > a [10,40) > a1 [20,30); root > b [50,60).
        let spans = [
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(20, 30, Some(1)),
            span(50, 60, Some(0)),
        ];
        // Grandchildren are not subtracted from the root, only from a.
        assert_eq!(self_times(&spans), vec![60, 20, 10, 10]);
    }

    #[test]
    fn self_time_over_overlapping_and_overhanging_children() {
        // Children [10,30) and [20,50) overlap on [20,30): covered [10,50).
        // A child overhanging the parent's end is clipped to [90,100).
        let spans = [
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(20, 50, Some(0)),
            span(90, 120, Some(0)),
            span(25, 28, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 40 - 10);
    }

    #[test]
    fn recorder_folds_trees_into_aggregates() {
        set_enabled(true);
        {
            let _root = enter("root");
            for _ in 0..3 {
                let _c = enter("child");
            }
            count("things", 2);
        }
        set_enabled(false);
        {
            let _ignored = enter("root");
        }
        let s = take();
        assert_eq!(s.roots, 1);
        assert_eq!(s.agg("root").count, 1);
        assert_eq!(s.agg("child").count, 3);
        assert_eq!(s.child_count("root", "child"), 3);
        assert_eq!(s.count("things"), 2);
        let root = s.agg("root");
        assert!(root.self_ns <= root.total_ns);
        assert_eq!(s.kept.len(), 4);
    }
}
