//! Span tracing: RAII guards building a hierarchical timing tree.
//!
//! The pipeline brackets each benchmark run with [`begin_capture`] /
//! [`end_capture`] (inside a [`scope`](crate::scope)); in between, any
//! layer may open a span:
//!
//! ```
//! dcatch_obs::trace::begin_capture("demo");
//! {
//!     let _g = dcatch_obs::span!("hb.build");
//!     // … work …
//! }
//! let tree = dcatch_obs::trace::end_capture();
//! assert_eq!(tree.children[0].name, "hb.build");
//! ```
//!
//! Outside a capture, [`span!`](crate::span!) returns a no-op guard whose
//! whole cost is one thread-local flag read — observability off by default
//! adds no measurable overhead. Sibling spans with the same name aggregate
//! (`count` increments, durations sum), so per-candidate loops don't
//! explode the tree.
//!
//! Span naming convention: `layer.verb` (`sim.run`, `hb.build`,
//! `detect.scan`, `prune.static`, `trigger.order`). See DESIGN.md.
//!
//! With [`set_verbose`] enabled, every span enter/exit also prints a line
//! to stderr (`dcatch detect … --verbose`).

use std::cell::RefCell;
use std::time::{Duration, Instant};

/// One node of the captured span tree.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanNode {
    /// Span name (`layer.verb`).
    pub name: String,
    /// Total time spent in all activations of this span at this position.
    pub total: Duration,
    /// Number of activations aggregated into this node.
    pub count: u64,
    /// Nested spans.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    fn new(name: &str) -> SpanNode {
        SpanNode {
            name: name.to_owned(),
            total: Duration::ZERO,
            count: 0,
            children: Vec::new(),
        }
    }

    /// Finds a direct child by name.
    pub fn child(&self, name: &str) -> Option<&SpanNode> {
        self.children.iter().find(|c| c.name == name)
    }

    /// Finds a node anywhere in the subtree by name (pre-order).
    pub fn find(&self, name: &str) -> Option<&SpanNode> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }

    /// Total duration of the named subtree node, or zero when absent.
    pub fn duration_of(&self, name: &str) -> Duration {
        self.find(name).map_or(Duration::ZERO, |n| n.total)
    }
}

struct Tracer {
    /// Root of the capture in progress; `None` when no capture is active.
    root: Option<SpanNode>,
    /// Path of child indices from the root to the currently open span.
    stack: Vec<usize>,
    verbose: bool,
    started: Option<Instant>,
}

thread_local! {
    static TRACER: RefCell<Tracer> = const {
        RefCell::new(Tracer {
            root: None,
            stack: Vec::new(),
            verbose: false,
            started: None,
        })
    };
}

/// One thread's capture in progress — everything but its verbosity — as
/// [`crate::isolated`] sets it aside.
#[derive(Default)]
pub(crate) struct Capture {
    root: Option<SpanNode>,
    stack: Vec<usize>,
    started: Option<Instant>,
}

/// Installs `with` as this thread's capture state and returns the state it
/// replaces. Verbosity stays as it is.
pub(crate) fn replace_capture(with: Capture) -> Capture {
    TRACER.with_borrow_mut(|t| Capture {
        root: std::mem::replace(&mut t.root, with.root),
        stack: std::mem::replace(&mut t.stack, with.stack),
        started: std::mem::replace(&mut t.started, with.started),
    })
}

/// Starts a capture on this thread, discarding any capture in progress.
pub fn begin_capture(label: &str) {
    TRACER.with_borrow_mut(|t| {
        let mut root = SpanNode::new(label);
        root.count = 1;
        t.root = Some(root);
        t.stack.clear();
        t.started = Some(Instant::now());
    });
}

/// Ends the capture and returns the finished timing tree. Open spans that
/// have not been dropped yet are left with their partial totals. Returns
/// an empty tree when no capture was active.
pub fn end_capture() -> SpanNode {
    TRACER.with_borrow_mut(|t| {
        let mut root = t.root.take().unwrap_or_else(|| SpanNode::new("(none)"));
        if let Some(started) = t.started.take() {
            root.total = started.elapsed();
        }
        t.stack.clear();
        root
    })
}

/// Merges a span tree captured in a [`scope`](crate::scope) — on this
/// thread or another — into the currently open span of this thread's
/// capture. Each *child* of `tree` is merged by name (find-or-create,
/// totals and counts add, grandchildren recurse) — the root of `tree`
/// itself is discarded, since it is the scope's capture wrapper rather
/// than a span anyone opened here. Grafting the same trees in the same
/// order therefore rebuilds exactly the tree the work would have produced
/// had it run inline. No-op outside a capture.
pub fn graft(tree: &SpanNode) {
    TRACER.with_borrow_mut(|t| {
        let Some(root) = t.root.as_mut() else {
            return;
        };
        let mut node = root;
        for &i in &t.stack {
            node = &mut node.children[i];
        }
        for child in &tree.children {
            merge_into(node, child);
        }
    });
}

fn merge_into(parent: &mut SpanNode, sub: &SpanNode) {
    let idx = match parent.children.iter().position(|c| c.name == sub.name) {
        Some(i) => i,
        None => {
            parent.children.push(SpanNode::new(&sub.name));
            parent.children.len() - 1
        }
    };
    let node = &mut parent.children[idx];
    node.total += sub.total;
    node.count += sub.count;
    for c in &sub.children {
        merge_into(node, c);
    }
}

/// Enables or disables printing of span enter/exit lines to stderr.
pub fn set_verbose(on: bool) {
    TRACER.with_borrow_mut(|t| t.verbose = on);
}

/// Whether verbose span printing is enabled on this thread. Verbosity is
/// thread-local, so code that fans work out to worker threads must read
/// it on the parent and re-apply it on each worker.
pub fn is_verbose() -> bool {
    TRACER.with_borrow(|t| t.verbose)
}

/// RAII guard for one span activation. Created by [`span`] or the
/// [`span!`](crate::span!) macro.
#[must_use = "a span guard measures until it is dropped"]
pub struct SpanGuard {
    /// `None` when no capture was active at entry (no-op guard).
    active: Option<ActiveSpan>,
}

struct ActiveSpan {
    name: &'static str,
    start: Instant,
    depth: usize,
}

/// Opens a span named `name`. No-op (one thread-local read) outside a
/// capture.
pub fn span(name: &'static str) -> SpanGuard {
    let active = TRACER.with_borrow_mut(|t| {
        let root = t.root.as_mut()?;
        // descend to the open node, then find-or-create the child
        let mut node = root;
        for &i in &t.stack {
            node = &mut node.children[i];
        }
        let idx = match node.children.iter().position(|c| c.name == name) {
            Some(i) => i,
            None => {
                node.children.push(SpanNode::new(name));
                node.children.len() - 1
            }
        };
        t.stack.push(idx);
        let depth = t.stack.len();
        if t.verbose {
            eprintln!("{:indent$}▶ {name}", "", indent = depth * 2);
        }
        Some(ActiveSpan {
            name,
            start: Instant::now(),
            depth,
        })
    });
    SpanGuard { active }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        let elapsed = active.start.elapsed();
        TRACER.with_borrow_mut(|t| {
            if t.verbose {
                eprintln!(
                    "{:indent$}◀ {} {:.3}ms",
                    "",
                    active.name,
                    elapsed.as_secs_f64() * 1000.0,
                    indent = active.depth * 2
                );
            }
            let Some(root) = t.root.as_mut() else {
                return; // capture ended while the span was open
            };
            // the guard may be dropped after inner spans already popped;
            // only pop when our frame is still the innermost one
            if t.stack.len() != active.depth {
                return;
            }
            let idx = t.stack.pop().expect("span stack");
            let mut node = root;
            for &i in &t.stack {
                node = &mut node.children[i];
            }
            let node = &mut node.children[idx];
            node.total += elapsed;
            node.count += 1;
        });
    }
}

/// Opens a span guard: `let _g = dcatch_obs::span!("hb.build");`
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::trace::span($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_build_a_tree() {
        begin_capture("run");
        {
            let _a = span("stage.a");
            {
                let _inner = span("stage.a.inner");
            }
        }
        {
            let _b = span("stage.b");
        }
        let tree = end_capture();
        assert_eq!(tree.name, "run");
        assert_eq!(tree.children.len(), 2);
        assert_eq!(tree.children[0].name, "stage.a");
        assert_eq!(tree.children[0].children[0].name, "stage.a.inner");
        assert_eq!(tree.children[1].name, "stage.b");
        assert!(tree.find("stage.a.inner").is_some());
    }

    #[test]
    fn sibling_spans_with_same_name_aggregate() {
        begin_capture("run");
        for _ in 0..3 {
            let _g = span("loop.iter");
        }
        let tree = end_capture();
        assert_eq!(tree.children.len(), 1);
        assert_eq!(tree.children[0].count, 3);
    }

    #[test]
    fn spans_outside_capture_are_noops() {
        assert!(TRACER.with_borrow(|t| t.root.is_none()));
        let g = span("orphan");
        drop(g);
        begin_capture("run");
        let tree = end_capture();
        assert!(tree.children.is_empty());
    }

    #[test]
    fn graft_merges_a_worker_tree_under_the_open_span() {
        // worker-side capture: job wrapper with two spans inside
        begin_capture("worker.job");
        {
            let _o = span("trigger.order");
            let _s = span("sim.run");
        }
        let job = end_capture();

        begin_capture("pipeline");
        {
            let _c = span("trigger.candidate");
            graft(&job);
            graft(&job); // same-name children aggregate, like siblings do
        }
        let tree = end_capture();
        let cand = tree.child("trigger.candidate").expect("candidate span");
        let order = cand.child("trigger.order").expect("grafted order span");
        assert_eq!(order.count, 2);
        assert_eq!(order.children[0].name, "sim.run");
        assert_eq!(order.children[0].count, 2);
        assert!(
            tree.child("worker.job").is_none(),
            "the worker capture wrapper is discarded"
        );
    }

    #[test]
    fn graft_outside_a_capture_is_a_noop() {
        assert!(TRACER.with_borrow(|t| t.root.is_none()));
        graft(&SpanNode::new("orphan"));
        begin_capture("run");
        let tree = end_capture();
        assert!(tree.children.is_empty());
    }

    #[test]
    fn capture_reset_discards_previous_tree() {
        begin_capture("first");
        let _g = span("x");
        begin_capture("second");
        let tree = end_capture();
        assert_eq!(tree.name, "second");
        assert!(tree.children.is_empty());
    }
}
