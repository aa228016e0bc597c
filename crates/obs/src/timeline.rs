//! Chrome/Perfetto trace-event timelines.
//!
//! The run reports (`dcatch detect --json`) answer *what* was detected;
//! this module answers *when*: it models the Trace Event Format consumed
//! by `chrome://tracing` and [Perfetto](https://ui.perfetto.dev) — the
//! `{"traceEvents": […]}` JSON documents — so both the simulated
//! distributed execution (`dcatch timeline <ID>`) and the pipeline's own
//! stages (`dcatch detect … --profile`) can be opened in a real trace
//! viewer.
//!
//! Four event families cover everything the exporters need:
//!
//! * **complete** (`ph:"X"`) — a duration slice on one lane (handler
//!   executions, pipeline stages);
//! * **instant** (`ph:"i"`) — a point marker (memory accesses, fault
//!   injections);
//! * **counter** (`ph:"C"`) — a sampled numeric track (candidate counts,
//!   index bytes);
//! * **flow** (`ph:"s"`/`ph:"f"`) — an arrow between two points on
//!   different lanes (message send → receive). Flows are emitted only as
//!   matched begin/end pairs via [`Timeline::flow`], so every `s` in a
//!   produced document has exactly one `f` by construction.
//!
//! Lanes follow the viewer's process/thread model: a `pid` groups related
//! `tid` tracks, and metadata events (`ph:"M"`) give both human names.
//!
//! **Determinism.** Timestamps are *logical* wherever the caller can make
//! them so (the simulator uses trace sequence numbers); serialization
//! orders events by `(ts, insertion ordinal)` with metadata lanes first,
//! sorted by `(pid, tid)`. Two timelines built from the same inputs
//! therefore serialize byte-identically, independent of map iteration or
//! worker interleaving (see `DESIGN.md` §9).

use crate::json::Json;

/// One trace event. Fields map 1:1 onto the Trace Event Format keys.
#[derive(Debug, Clone, PartialEq)]
struct Event {
    ph: char,
    name: String,
    cat: String,
    ts: u64,
    /// `X` events only.
    dur: Option<u64>,
    pid: u64,
    tid: u64,
    /// Flow events only: pairs an `s` with its `f`.
    id: Option<u64>,
    /// Instant events only: `t`hread, `p`rocess, or `g`lobal scope.
    scope: Option<char>,
    args: Vec<(String, Json)>,
}

impl Event {
    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("ph".to_owned(), Json::Str(self.ph.to_string())),
            ("name".to_owned(), Json::Str(self.name.clone())),
            ("ts".to_owned(), Json::UInt(self.ts)),
            ("pid".to_owned(), Json::UInt(self.pid)),
            ("tid".to_owned(), Json::UInt(self.tid)),
        ];
        if !self.cat.is_empty() {
            pairs.push(("cat".to_owned(), Json::Str(self.cat.clone())));
        }
        if let Some(dur) = self.dur {
            pairs.push(("dur".to_owned(), Json::UInt(dur)));
        }
        if let Some(id) = self.id {
            pairs.push(("id".to_owned(), Json::UInt(id)));
        }
        if let Some(scope) = self.scope {
            pairs.push(("s".to_owned(), Json::Str(scope.to_string())));
        }
        if self.ph == 'f' {
            // bind the arrow head to the enclosing slice, not the next one
            pairs.push(("bp".to_owned(), Json::Str("e".to_owned())));
        }
        if !self.args.is_empty() {
            pairs.push(("args".to_owned(), Json::Obj(self.args.clone())));
        }
        Json::Obj(pairs)
    }
}

/// `(pid, tid, name)`; `tid == None` names the process itself.
type Lane = (u64, Option<u64>, String);

/// Builder for one trace-event document.
#[derive(Debug, Default)]
pub struct Timeline {
    events: Vec<Event>,
    lanes: Vec<Lane>,
    next_flow_id: u64,
}

impl Timeline {
    /// An empty timeline.
    pub fn new() -> Timeline {
        Timeline::default()
    }

    /// Names a process lane (`pid`). Idempotent.
    pub fn process(&mut self, pid: u64, name: &str) {
        if !self.lanes.iter().any(|(p, t, _)| *p == pid && t.is_none()) {
            self.lanes.push((pid, None, name.to_owned()));
        }
    }

    /// Names a thread lane (`pid`,`tid`). Idempotent.
    pub fn thread(&mut self, pid: u64, tid: u64, name: &str) {
        if !self
            .lanes
            .iter()
            .any(|(p, t, _)| *p == pid && *t == Some(tid))
        {
            self.lanes.push((pid, Some(tid), name.to_owned()));
        }
    }

    /// Adds a complete (duration) event.
    pub fn complete(&mut self, pid: u64, tid: u64, cat: &str, name: &str, ts: u64, dur: u64) {
        self.complete_with(pid, tid, cat, name, ts, dur, Vec::new());
    }

    /// Adds a complete event carrying `args`.
    #[allow(clippy::too_many_arguments)]
    pub fn complete_with(
        &mut self,
        pid: u64,
        tid: u64,
        cat: &str,
        name: &str,
        ts: u64,
        dur: u64,
        args: Vec<(String, Json)>,
    ) {
        self.events.push(Event {
            ph: 'X',
            name: name.to_owned(),
            cat: cat.to_owned(),
            ts,
            dur: Some(dur),
            pid,
            tid,
            id: None,
            scope: None,
            args,
        });
    }

    /// Adds a thread-scoped instant marker.
    pub fn instant(&mut self, pid: u64, tid: u64, cat: &str, name: &str, ts: u64) {
        self.instant_scoped(pid, tid, cat, name, ts, 't');
    }

    /// Adds an instant marker with an explicit scope: `'t'`hread,
    /// `'p'`rocess (spans the whole process group in the viewer), or
    /// `'g'`lobal.
    pub fn instant_scoped(
        &mut self,
        pid: u64,
        tid: u64,
        cat: &str,
        name: &str,
        ts: u64,
        scope: char,
    ) {
        self.events.push(Event {
            ph: 'i',
            name: name.to_owned(),
            cat: cat.to_owned(),
            ts,
            dur: None,
            pid,
            tid,
            id: None,
            scope: Some(scope),
            args: Vec::new(),
        });
    }

    /// Samples a counter track. Each entry of `series` becomes one line of
    /// the stacked counter in the viewer.
    pub fn counter(&mut self, pid: u64, name: &str, ts: u64, series: &[(&str, u64)]) {
        self.events.push(Event {
            ph: 'C',
            name: name.to_owned(),
            cat: String::new(),
            ts,
            dur: None,
            pid,
            tid: 0,
            id: None,
            scope: None,
            args: series
                .iter()
                .map(|&(k, v)| (k.to_owned(), Json::UInt(v)))
                .collect(),
        });
    }

    /// Adds a flow arrow from `(pid, tid, ts)` to another such point.
    /// Begin and end are emitted together with a fresh id, so flows are
    /// matched by construction.
    pub fn flow(&mut self, cat: &str, name: &str, from: (u64, u64, u64), to: (u64, u64, u64)) {
        let id = self.next_flow_id;
        self.next_flow_id += 1;
        for (ph, (pid, tid, ts)) in [('s', from), ('f', to)] {
            self.events.push(Event {
                ph,
                name: name.to_owned(),
                cat: cat.to_owned(),
                ts,
                dur: None,
                pid,
                tid,
                id: Some(id),
                scope: None,
                args: Vec::new(),
            });
        }
    }

    /// Number of events recorded so far (excluding lane metadata).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Serializes to the trace-event JSON document.
    ///
    /// Metadata events come first (lanes sorted by `(pid, tid)`, each with
    /// a `sort_index` matching registration order so the viewer lays lanes
    /// out the way the exporter built them); payload events follow, stably
    /// sorted by `(ts, insertion order)` — the logical-time normalization
    /// that makes same-input timelines byte-identical.
    pub fn to_json(&self) -> Json {
        let mut out: Vec<Json> = Vec::with_capacity(self.lanes.len() * 2 + self.events.len());
        let mut lanes: Vec<(usize, &Lane)> = self.lanes.iter().enumerate().collect();
        lanes.sort_by_key(|(_, (pid, tid, _))| (*pid, *tid));
        for (order, (pid, tid, name)) in &lanes {
            let meta = |what: &str, arg: &str, value: Json| {
                Json::obj([
                    ("ph", Json::Str("M".to_owned())),
                    ("name", Json::Str(what.to_owned())),
                    ("ts", Json::UInt(0)),
                    ("pid", Json::UInt(*pid)),
                    ("tid", Json::UInt(tid.unwrap_or(0))),
                    ("args", Json::Obj(vec![(arg.to_owned(), value)])),
                ])
            };
            match tid {
                None => {
                    out.push(meta("process_name", "name", Json::Str(name.clone())));
                    out.push(meta(
                        "process_sort_index",
                        "sort_index",
                        Json::UInt(*order as u64),
                    ));
                }
                Some(_) => {
                    out.push(meta("thread_name", "name", Json::Str(name.clone())));
                    out.push(meta(
                        "thread_sort_index",
                        "sort_index",
                        Json::UInt(*order as u64),
                    ));
                }
            }
        }
        let mut ordered: Vec<(usize, &Event)> = self.events.iter().enumerate().collect();
        ordered.sort_by_key(|(ordinal, e)| (e.ts, *ordinal));
        out.extend(ordered.into_iter().map(|(_, e)| e.to_json()));
        Json::obj([
            ("traceEvents", Json::Arr(out)),
            ("displayTimeUnit", Json::Str("ms".to_owned())),
        ])
    }
}

/// Summary returned by [`validate`], for smoke-test output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelineSummary {
    /// Payload events (everything but lane metadata).
    pub events: usize,
    /// Matched flow arrows.
    pub flows: usize,
    /// Named lanes (process + thread metadata entries).
    pub lanes: usize,
}

/// Structurally validates a trace-event document: the `traceEvents` array
/// exists, every event carries the required `ph`/`ts`/`pid`/`tid` fields,
/// duration events carry `dur`, every flow begin (`s`) pairs with exactly
/// one flow end (`f`) of the same category and id, and no counter track
/// (`pid` + name) holds two samples at the same timestamp — overlapping
/// samples are ambiguous in the viewer (it keeps whichever sorts last),
/// and are what a counter emitted at an absolute time instead of its
/// lane's origin produces.
pub fn validate(doc: &Json) -> Result<TimelineSummary, String> {
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing `traceEvents` array")?;
    let mut begins: std::collections::BTreeMap<(String, u64), usize> = Default::default();
    let mut ends: std::collections::BTreeMap<(String, u64), usize> = Default::default();
    let mut counter_samples: std::collections::BTreeSet<(u64, String, u64)> = Default::default();
    let mut summary = TimelineSummary {
        events: 0,
        flows: 0,
        lanes: 0,
    };
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing `ph`"))?;
        for field in ["ts", "pid", "tid"] {
            if e.get(field).and_then(Json::as_u64).is_none() {
                return Err(format!("event {i} (ph `{ph}`): missing numeric `{field}`"));
            }
        }
        match ph {
            "M" => {
                if e.get("name").and_then(Json::as_str).is_none() {
                    return Err(format!("event {i}: metadata without `name`"));
                }
                summary.lanes += 1;
                continue;
            }
            "X" => {
                if e.get("dur").and_then(Json::as_u64).is_none() {
                    return Err(format!("event {i}: complete event without `dur`"));
                }
            }
            "i" => {
                if e.get("s").and_then(Json::as_str).is_none() {
                    return Err(format!("event {i}: instant without scope `s`"));
                }
            }
            "C" => {
                if !matches!(e.get("args"), Some(Json::Obj(a)) if !a.is_empty()) {
                    return Err(format!("event {i}: counter without samples"));
                }
                let pid = e.get("pid").and_then(Json::as_u64).unwrap_or(0);
                let ts = e.get("ts").and_then(Json::as_u64).unwrap_or(0);
                let name = e.get("name").and_then(Json::as_str).unwrap_or_default();
                if !counter_samples.insert((pid, name.to_owned(), ts)) {
                    return Err(format!(
                        "event {i}: counter `{name}` overlaps itself on pid {pid} at ts {ts}"
                    ));
                }
            }
            "s" | "f" => {
                let cat = e.get("cat").and_then(Json::as_str).unwrap_or_default();
                let id = e
                    .get("id")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("event {i}: flow without `id`"))?;
                let side = if ph == "s" { &mut begins } else { &mut ends };
                *side.entry((cat.to_owned(), id)).or_insert(0) += 1;
            }
            other => return Err(format!("event {i}: unsupported phase `{other}`")),
        }
        summary.events += 1;
    }
    if begins != ends {
        let unmatched = begins
            .keys()
            .filter(|k| begins.get(*k) != ends.get(*k))
            .chain(ends.keys().filter(|k| !begins.contains_key(k)))
            .count();
        return Err(format!("{unmatched} unmatched flow id(s)"));
    }
    if begins.values().any(|&n| n != 1) {
        return Err("duplicate flow id".to_owned());
    }
    summary.flows = begins.len();
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Timeline {
        let mut tl = Timeline::new();
        tl.process(1, "n0");
        tl.thread(1, 0, "n0.t0");
        tl.thread(2, 1, "n1.t1");
        tl.complete(1, 0, "handler", "eb e0", 10, 5);
        tl.instant(1, 0, "mem", "wr x", 12);
        tl.instant_scoped(2, 1, "fault", "CRASH n1", 14, 'p');
        tl.counter(1, "candidates", 15, &[("ta", 9), ("sp", 3)]);
        tl.flow("msg", "m0", (1, 0, 11), (2, 1, 13));
        tl
    }

    #[test]
    fn document_round_trips_and_validates() {
        let doc = small().to_json();
        let text = doc.to_pretty();
        let back = crate::json::parse(&text).expect("valid JSON");
        assert_eq!(back, doc);
        let summary = validate(&back).expect("valid timeline");
        assert_eq!(summary.events, 6, "4 payload + 2 flow halves");
        assert_eq!(summary.flows, 1);
        assert_eq!(summary.lanes, 6, "3 lanes × (name + sort_index)");
    }

    #[test]
    fn events_carry_required_fields() {
        let doc = small().to_json();
        for e in doc.get("traceEvents").unwrap().as_arr().unwrap() {
            for field in ["ph", "ts", "pid", "tid"] {
                assert!(e.get(field).is_some(), "missing `{field}` in {e}");
            }
        }
    }

    #[test]
    fn serialization_is_insertion_stable_at_equal_ts() {
        let mut tl = Timeline::new();
        tl.thread(1, 0, "lane");
        tl.instant(1, 0, "a", "first", 7);
        tl.instant(1, 0, "a", "second", 7);
        tl.instant(1, 0, "a", "earlier", 3);
        let events = tl.to_json();
        let names: Vec<String> = events
            .get("traceEvents")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("i"))
            .map(|e| e.get("name").unwrap().as_str().unwrap().to_owned())
            .collect();
        assert_eq!(names, ["earlier", "first", "second"]);
        // same inputs → byte-identical documents
        let again = {
            let mut tl = Timeline::new();
            tl.thread(1, 0, "lane");
            tl.instant(1, 0, "a", "first", 7);
            tl.instant(1, 0, "a", "second", 7);
            tl.instant(1, 0, "a", "earlier", 3);
            tl.to_json()
        };
        assert_eq!(events.to_pretty(), again.to_pretty());
    }

    #[test]
    fn lane_registration_is_idempotent() {
        let mut tl = Timeline::new();
        tl.process(1, "n0");
        tl.process(1, "n0-again");
        tl.thread(1, 2, "t");
        tl.thread(1, 2, "t-again");
        let summary = validate(&tl.to_json()).unwrap();
        assert_eq!(summary.lanes, 4, "2 lanes × (name + sort_index)");
    }

    #[test]
    fn validate_rejects_malformed_documents() {
        assert!(validate(&Json::obj([("x", Json::Null)])).is_err());
        let no_dur = Json::obj([(
            "traceEvents",
            Json::Arr(vec![Json::obj([
                ("ph", Json::Str("X".into())),
                ("name", Json::Str("a".into())),
                ("ts", Json::UInt(0)),
                ("pid", Json::UInt(1)),
                ("tid", Json::UInt(1)),
            ])]),
        )]);
        assert!(validate(&no_dur).unwrap_err().contains("dur"));
        let dangling_flow = Json::obj([(
            "traceEvents",
            Json::Arr(vec![Json::obj([
                ("ph", Json::Str("s".into())),
                ("name", Json::Str("m".into())),
                ("cat", Json::Str("msg".into())),
                ("id", Json::UInt(4)),
                ("ts", Json::UInt(0)),
                ("pid", Json::UInt(1)),
                ("tid", Json::UInt(1)),
            ])]),
        )]);
        assert!(validate(&dangling_flow).unwrap_err().contains("unmatched"));
    }

    /// Two samples of the same counter track at one timestamp are exactly
    /// what a counter emitted at an absolute time (instead of its lane's
    /// synthetic origin) produces — the viewer would silently keep one.
    #[test]
    fn validate_rejects_overlapping_counter_samples() {
        let mut tl = Timeline::new();
        tl.process(1, "lane");
        tl.counter(1, "window", 0, &[("entries", 0)]);
        tl.counter(1, "window", 0, &[("entries", 7)]);
        let err = validate(&tl.to_json()).unwrap_err();
        assert!(err.contains("overlaps"), "{err}");
        // distinct timestamps, or the same timestamp on another pid or
        // under another track name, are all fine
        let mut ok = Timeline::new();
        ok.process(1, "lane");
        ok.counter(1, "window", 0, &[("entries", 0)]);
        ok.counter(1, "window", 5, &[("entries", 7)]);
        ok.counter(1, "retired", 0, &[("records", 0)]);
        ok.counter(2, "window", 0, &[("entries", 0)]);
        assert!(validate(&ok.to_json()).is_ok());
    }
}
