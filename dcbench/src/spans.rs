//! In-memory span recorder for the staged pass of a traced run.
//!
//! The benchmark opens a span around each call into a layer's public
//! function. Spans nest (the loop-sync analysis calls back into the
//! simulator), so a layer's cost is its *self* time: its own duration
//! minus the part its direct children cover. Allocation counts are taken
//! at the same boundaries, from the counting allocator.

use std::time::Instant;

use dcatch_obs::Json;

use crate::alloc;

/// One recorded span.
#[derive(Debug)]
pub struct Span {
    /// Layer boundary, e.g. `hb.build`.
    pub name: &'static str,
    /// Index of the unit (benchmark / scenario) the span belongs to.
    pub unit: u32,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Allocations made while the span was open, children included.
    pub allocs: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Totals over all spans sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotal {
    /// Σ (duration − direct children), ms.
    pub self_ms: f64,
    /// Σ duration, ms.
    pub total_ms: f64,
    /// Σ allocations, children included.
    pub total_allocs: u64,
}

/// The recorder.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Unit id stamped on spans opened from now on.
    pub unit: u32,
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            unit: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`. `f` receives the recorder so
    /// it can open child spans.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        self.time_ms(name, f).0
    }

    /// As [`time`](Spans::time), also returning the span's duration in ms.
    pub fn time_ms<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> (T, f64) {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            unit: self.unit,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            allocs: alloc::allocs(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.allocs = alloc::allocs() - span.allocs;
        (out, span.duration_ns() as f64 / 1e6)
    }

    /// Records an empty span for every name in `names` that has none, so
    /// a layer the workload never enters reads as the cost of doing
    /// nothing (tens of ns) measured the same way as every other layer.
    pub fn touch_missing(&mut self, names: &[&'static str]) {
        for &name in names {
            if !self.spans.iter().any(|s| s.name == name) {
                self.time(name, |_| ());
            }
        }
    }

    /// Totals over all spans called `name`.
    pub fn layer(&self, name: &str) -> LayerTotal {
        // per span: what its direct children cover
        let mut covered = vec![0u64; self.spans.len()];
        for child in &self.spans {
            if let Some(p) = child.parent {
                covered[p] += child.duration_ns();
            }
        }
        let mut t = LayerTotal::default();
        for (span, &child_ns) in self.spans.iter().zip(&covered) {
            if span.name != name {
                continue;
            }
            t.total_ms += span.duration_ns() as f64 / 1e6;
            t.self_ms += span.duration_ns().saturating_sub(child_ns) as f64 / 1e6;
            t.total_allocs += span.allocs;
        }
        t
    }

    /// The spans as a JSON array (`--trace-out`), in start order.
    pub fn to_json(&self) -> Json {
        let rows = self.spans.iter().enumerate().map(|(id, s)| {
            Json::obj([
                ("id", Json::UInt(id as u64)),
                ("name", Json::Str(s.name.to_owned())),
                ("unit", Json::UInt(u64::from(s.unit))),
                ("start_ns", Json::UInt(s.start_ns)),
                ("end_ns", Json::UInt(s.end_ns)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                ),
                ("allocs", Json::UInt(s.allocs)),
            ])
        });
        Json::Arr(rows.collect())
    }

    #[cfg(test)]
    fn push_raw(&mut self, name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) {
        self.spans.push(Span {
            name,
            unit: 0,
            start_ns,
            end_ns,
            parent,
            allocs: 0,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut s = Spans::new();
        // loopsync [0, 100) ── rerun [10, 30), rerun [40, 70) ── inner [45, 50)
        s.push_raw("detect.loopsync", 0, 100, None);
        s.push_raw("detect.loopsync_rerun", 10, 30, Some(0));
        s.push_raw("detect.loopsync_rerun", 40, 70, Some(0));
        s.push_raw("sim.inner", 45, 50, Some(2));
        // an unrelated sibling at top level
        s.push_raw("hb.build", 100, 160, None);

        let outer = s.layer("detect.loopsync");
        assert!((outer.total_ms - 100e-6).abs() < 1e-12);
        assert!((outer.self_ms - 50e-6).abs() < 1e-12, "100 − 20 − 30");

        let reruns = s.layer("detect.loopsync_rerun");
        assert!((reruns.total_ms - 50e-6).abs() < 1e-12);
        assert!(
            (reruns.self_ms - 45e-6).abs() < 1e-12,
            "grandchild counts once"
        );

        assert!((s.layer("hb.build").self_ms - 60e-6).abs() < 1e-12);
        assert_eq!(s.layer("absent"), LayerTotal::default());
    }

    #[test]
    fn time_nests_and_touch_missing_fills_gaps() {
        let mut s = Spans::new();
        s.unit = 3;
        let v = s.time("outer", |s| s.time("inner", |_| 7));
        assert_eq!(v, 7);
        assert_eq!(s.spans[1].parent, Some(0));
        assert_eq!(s.spans[0].parent, None);
        assert_eq!(s.spans[1].unit, 3);
        assert!(s.spans[0].end_ns >= s.spans[1].end_ns);

        s.touch_missing(&["outer", "trigger.farm"]);
        let named = |name| s.spans.iter().filter(|span| span.name == name).count();
        assert_eq!(named("outer"), 1, "present names are left alone");
        assert_eq!(named("trigger.farm"), 1);

        let doc = s.to_json();
        assert_eq!(doc.as_arr().unwrap().len(), 3);
        assert_eq!(doc.as_arr().unwrap()[1].get("parent"), Some(&Json::UInt(0)));
    }
}
