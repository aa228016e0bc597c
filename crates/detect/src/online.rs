//! Streaming single-pass candidate detection.
//!
//! [`OnlineDetector`] is a [`TraceSink`]: plugged into
//! `World::run_streamed`, it consumes every record *as the simulator
//! emits it*, maintains the online happens-before frontier
//! ([`FrontierEngine`]), keeps only a bounded window of still-raceable
//! memory accesses, and emits candidate pairs incrementally. Resident
//! memory is `O(window)` — independent of trace length — while the
//! produced [`CandidateSet`] is exactly what
//! [`find_candidates`](crate::find_candidates) reports on the
//! materialized trace: that is the same scan replayed.
//!
//! Exactness hinges on two facts:
//!
//! * **One-sided concurrency test.** Every HB edge points from an
//!   earlier to a later record, so when record `j` arrives, an earlier
//!   record `i` can only be *covered by* `j`, never the reverse. `i` and
//!   `j` are concurrent iff `j`'s frontier clock does not reach `i`'s
//!   `(slot, pos)`. Per location the window is the one scan's cover of
//!   its entries by *HB-ordered* chains (`crate::scan`, DESIGN.md §4):
//!   one array look-up per chain whose tail `j` covers and one binary
//!   search per chain whose tail it does not — the covered entries are a
//!   prefix nobody visits.
//! * **Provable retirement.** [`FrontierEngine::lower_bound`] returns a
//!   clock every future record is guaranteed to cover. A window entry at
//!   or below the bound can never be concurrent with anything yet to
//!   come, so dropping it loses no candidate. Sweeps run every
//!   [`SWEEP_EVERY`] records.
//!
//! A hard [`window cap`](OnlineOptions::window_cap) (the governor's
//! memory-pressure rung) force-evicts the globally oldest entries when
//! provable retirement cannot keep up; forced evictions are counted and
//! surface as a pipeline degradation, because they *can* lose candidates.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use dcatch_hb::{ablate_record, Ablation, Arrival, FrontierEngine, FrontierOptions};
use dcatch_trace::{record_len, MemLoc, Names, Record, StreamControl, TraceSink, TraceStats};

use crate::candidates::CandidateSet;
use crate::loopsync::{occ_key, OccKey};
use crate::scan::{group, Access, Cover, Group, Pairs};

/// Sweep cadence: provable retirement (and gauge refresh) runs once per
/// this many records.
pub const SWEEP_EVERY: usize = 1024;

/// Configuration for one streaming detection pass.
#[derive(Debug, Clone)]
pub struct OnlineOptions {
    /// Hard cap on resident window entries; `None` relies on provable
    /// retirement alone. When the cap overflows, the globally oldest
    /// entries are force-evicted (lossy — counted in
    /// [`StreamOutcome::records_forced`]).
    pub window_cap: Option<usize>,
    /// Provable-retirement cadence, in records (default [`SWEEP_EVERY`]).
    pub sweep_every: usize,
    /// Options for the underlying frontier engine.
    pub engine: FrontierOptions,
    /// HB-rule ablation (Table 9) applied to every record on arrival —
    /// [`apply_ablation`](dcatch_hb::apply_ablation) for a stream. Demoted
    /// worker chains start unannounced, so an ablated pass never retires:
    /// [`OnlineDetector::new`] turns
    /// [`FrontierOptions::allow_retirement`] off for it.
    pub ablation: Ablation,
    /// Loop-sync second pass: occurrence-space `w* ⇒ LoopExit` edges
    /// from [`plan_loop_sync`](crate::plan_loop_sync), fired by
    /// occurrence counters as the matching records arrive.
    pub sync_edges: Vec<((OccKey, usize), (OccKey, usize))>,
    /// Loop-sync second pass: `Eserial` `(e1, e2)` pairs derived by the
    /// first pass, replayed verbatim (native derivation should be off in
    /// [`OnlineOptions::engine`] when this is non-empty).
    pub inject_eserial: Vec<(u64, u64)>,
}

impl Default for OnlineOptions {
    fn default() -> Self {
        OnlineOptions {
            window_cap: None,
            sweep_every: SWEEP_EVERY,
            engine: FrontierOptions::default(),
            ablation: Ablation::None,
            sync_edges: Vec::new(),
            inject_eserial: Vec::new(),
        }
    }
}

/// Everything one streaming pass produced.
#[derive(Debug, Clone)]
pub struct StreamOutcome {
    /// The candidate set — identical to `find_candidates` on the
    /// materialized trace.
    pub candidates: CandidateSet,
    /// Record-type breakdown of the run as emitted (before any
    /// ablation), folded incrementally.
    pub stats: TraceStats,
    /// Total trace size in the on-disk line format (what
    /// `TraceSet::byte_size` would report), accumulated per record.
    pub trace_bytes: usize,
    /// Total records analyzed (all of them unless an ablation drops some).
    pub records: usize,
    /// Peak resident window entries.
    pub window_peak: usize,
    /// Window entries dropped by provable retirement.
    pub records_retired: u64,
    /// Window entries force-evicted by the hard cap (lossy).
    pub records_forced: u64,
    /// Where the force-evicted accesses were: `space:node:object`, as a
    /// [`Location`](dcatch_trace::Location) displays without its key. A
    /// candidate the cap lost has an access on one of these; every other
    /// location was scanned exactly.
    pub lossy_locations: BTreeSet<String>,
    /// Peak resident-memory estimate (engine + window), in bytes,
    /// sampled at sweep boundaries.
    pub peak_bytes: usize,
    /// `Eserial` pairs the engine derived natively (input for the
    /// loop-sync second pass).
    pub eserial_edges: Vec<(u64, u64)>,
    /// Injected loop-sync edges that actually fired this pass.
    pub sync_edges_fired: usize,
}

/// A still-raceable memory access held in the bounded window, identified
/// by its engine `(slot, pos)`. It holds no heap memory.
#[derive(Debug, Clone, Copy)]
struct WindowEntry {
    slot: u32,
    pos: u32,
    access: Access,
}

impl WindowEntry {
    /// Whether `clock` — an arrival clock, or the retirement bound — covers
    /// the entry.
    fn under(&self, clock: &[u32]) -> bool {
        clock.get(self.slot as usize).copied().unwrap_or(0) >= self.pos
    }
}

/// The streaming detector. Feed it one run via [`TraceSink`], then call
/// [`finalize`](OnlineDetector::finalize).
#[derive(Debug)]
pub struct OnlineDetector {
    engine: FrontierEngine,
    /// The streamed run's name table, as far as the simulator has shown it.
    names: Names,
    ablation: Ablation,
    window_cap: Option<usize>,
    sweep_every: usize,
    /// Per location [`Group`] its [`Cover`]: what any clock covers of a
    /// chain is a prefix of it (clocks are transitively closed). No cover
    /// is ever empty.
    window: BTreeMap<Group, Cover<WindowEntry>>,
    window_len: usize,
    window_peak: usize,
    records_retired: u64,
    records_forced: u64,
    lossy_locations: BTreeSet<String>,
    peak_bytes: usize,
    pairs: Pairs,
    stats: TraceStats,
    trace_bytes: usize,
    records: usize,
    // --- loop-sync second pass (occurrence-fired injected edges) ---
    watched_keys: BTreeSet<OccKey>,
    occ_counters: BTreeMap<OccKey, usize>,
    watched_sources: BTreeSet<(OccKey, usize)>,
    targets: BTreeMap<(OccKey, usize), Vec<(OccKey, usize)>>,
    src_clocks: BTreeMap<(OccKey, usize), Vec<u32>>,
    sync_fired: usize,
}

impl OnlineDetector {
    /// Creates a detector for one streamed run.
    pub fn new(opts: OnlineOptions) -> OnlineDetector {
        let mut engine = FrontierEngine::new(FrontierOptions {
            allow_retirement: opts.engine.allow_retirement && opts.ablation == Ablation::None,
            ..opts.engine
        });
        engine.inject_eserial(&opts.inject_eserial);
        let mut watched_keys = BTreeSet::new();
        let mut watched_sources = BTreeSet::new();
        let mut targets: BTreeMap<(OccKey, usize), Vec<(OccKey, usize)>> = BTreeMap::new();
        for (src, dst) in opts.sync_edges {
            watched_keys.insert(src.0);
            watched_keys.insert(dst.0);
            watched_sources.insert(src);
            targets.entry(dst).or_default().push(src);
        }
        OnlineDetector {
            engine,
            names: Names::new(),
            ablation: opts.ablation,
            window_cap: opts.window_cap,
            sweep_every: opts.sweep_every.max(1),
            window: BTreeMap::new(),
            window_len: 0,
            window_peak: 0,
            records_retired: 0,
            records_forced: 0,
            lossy_locations: BTreeSet::new(),
            peak_bytes: 0,
            pairs: Pairs::default(),
            stats: TraceStats::default(),
            trace_bytes: 0,
            records: 0,
            watched_keys,
            occ_counters: BTreeMap::new(),
            watched_sources,
            targets,
            src_clocks: BTreeMap::new(),
            sync_fired: 0,
        }
    }

    /// Current resident window entries.
    pub fn window_len(&self) -> usize {
        self.window_len
    }

    /// Peak resident window entries so far.
    pub fn window_peak(&self) -> usize {
        self.window_peak
    }

    /// Records consumed so far.
    pub fn records(&self) -> usize {
        self.records
    }

    /// Resident-memory estimate, in bytes: the engine, the run's name
    /// table, the window's entries and chains, the aggregates in flight and
    /// the loop-sync source clocks.
    pub fn bytes(&self) -> usize {
        use std::mem::size_of;
        let mut b = self.engine.bytes() + self.names.bytes();
        b += self.window_len * size_of::<WindowEntry>() + self.pairs.bytes();
        for cover in self.window.values() {
            b += 64 + cover.chains() * size_of::<VecDeque<WindowEntry>>();
        }
        for c in self.src_clocks.values() {
            b += size_of::<(OccKey, usize, Vec<u32>)>() + 4 * c.len();
        }
        b
    }

    fn process(&mut self, r: &Record) {
        self.stats.add(r);
        self.trace_bytes += record_len(r, &self.names) + 1;
        let Some(r) = ablate_record(r, self.ablation) else {
            return;
        };
        let index = self.records;
        self.records += 1;
        let at = self.engine.record(&r, &self.names);
        if !self.watched_keys.is_empty() {
            self.fire_sync_edges(&r, at);
        }
        if let Some(access) = Access::at(index, &r, &self.names) {
            self.admit(at, access);
        }
        if self.records % self.sweep_every == 0 {
            self.sweep();
        }
    }

    /// Occurrence-counter firing of injected loop-sync edges: a target
    /// (`LoopExit`) joins its sources' snapshotted clocks; a source
    /// (`w*`) snapshots its clock after arrival. An occurrence that never
    /// arrives simply never fires — mirroring the batch path's dropped
    /// `to_original` translations.
    fn fire_sync_edges(&mut self, r: &Record, at: Arrival) {
        let Some(k) = occ_key(r, &self.names) else {
            return;
        };
        if !self.watched_keys.contains(&k) {
            return;
        }
        let ord = {
            let c = self.occ_counters.entry(k).or_insert(0);
            let this = *c;
            *c += 1;
            this
        };
        let id = (k, ord);
        if let Some(srcs) = self.targets.get(&id) {
            let joins: Vec<Vec<u32>> = srcs
                .iter()
                .filter_map(|s| self.src_clocks.get(s).cloned())
                .collect();
            for j in joins {
                self.engine.join(at, &j);
                self.sync_fired += 1;
            }
        }
        if self.watched_sources.contains(&id) {
            self.src_clocks
                .insert(id, self.engine.clock(at.chain).to_vec());
        }
    }

    /// Pairs the arriving access with the entries of its location group
    /// that its arrival clock does not cover — the one scan's cover
    /// (DESIGN.md §4) — and enters it in the window.
    fn admit(&mut self, at: Arrival, access: Access) {
        let clock = self.engine.clock(at.chain);
        let names = &self.names;
        let entry = WindowEntry {
            slot: at.slot,
            pos: at.pos,
            access,
        };
        self.window.entry(group(&access.loc)).or_default().admit(
            entry,
            |e| e.under(clock),
            &mut self.pairs,
            |pairs, e| pairs.add(names, e.access, access),
        );
        self.window_len += 1;
        self.window_peak = self.window_peak.max(self.window_len);
        if let Some(cap) = self.window_cap {
            while self.window_len > cap {
                self.evict_oldest();
            }
        }
    }

    /// Force-evicts the globally oldest window entry (hard-cap overflow;
    /// lossy).
    fn evict_oldest(&mut self) {
        let oldest = self.window.iter().filter_map(|(&group, cover)| {
            let (index, chain) = cover.oldest(|e| e.access.index)?;
            Some((index, chain, group))
        });
        let Some((_, chain, group)) = oldest.min() else {
            return;
        };
        let cover = self.window.get_mut(&group).expect("the group just found");
        let evicted = cover.pop_front(chain);
        if cover.chains() == 0 {
            self.window.remove(&group);
        }
        let location = self.names.location(&MemLoc {
            key: None,
            ..evicted.access.loc
        });
        self.lossy_locations.insert(location.to_string());
        self.window_len -= 1;
        self.records_forced += 1;
        dcatch_obs::counter!("stream_records_forced_total").inc();
    }

    /// Provable-retirement sweep plus gauge refresh. What the bound covers
    /// of a chain is a prefix, as for any clock: it is the minimum of
    /// transitively closed clocks.
    fn sweep(&mut self) {
        if let Some(bound) = self.engine.lower_bound() {
            let mut dropped = 0usize;
            self.window.retain(|_, cover| {
                dropped += cover.retire(|e| e.under(&bound));
                cover.chains() > 0
            });
            self.window_len -= dropped;
            self.records_retired += dropped as u64;
            dcatch_obs::counter!("stream_records_retired_total").add(dropped as u64);
            self.engine.retire(&bound);
        }
        self.peak_bytes = self.peak_bytes.max(self.bytes());
        self.refresh_gauges();
    }

    fn refresh_gauges(&self) {
        dcatch_obs::gauge!("stream_window_entries").set(self.window_len as u64);
        dcatch_obs::gauge!("stream_window_peak").set_max(self.window_peak as u64);
        dcatch_obs::gauge!("stream_clock_len_peak").set_max(self.engine.chains() as u64);
        dcatch_obs::gauge!("stream_live_chains_peak").set_max(self.engine.live_chains() as u64);
    }

    /// Closes the pass: materializes the candidate set, and returns
    /// everything measured along the way.
    pub fn finalize(mut self) -> StreamOutcome {
        let _span = dcatch_obs::span!("detect.stream_finalize");
        self.peak_bytes = self.peak_bytes.max(self.bytes());
        self.refresh_gauges();
        StreamOutcome {
            candidates: self.pairs.finish(&self.names),
            stats: self.stats,
            trace_bytes: self.trace_bytes,
            records: self.records,
            window_peak: self.window_peak,
            records_retired: self.records_retired,
            records_forced: self.records_forced,
            lossy_locations: self.lossy_locations,
            peak_bytes: self.peak_bytes,
            eserial_edges: self.engine.eserial_edges().to_vec(),
            sync_edges_fired: self.sync_fired,
        }
    }
}

impl TraceSink for OnlineDetector {
    fn record(&mut self, record: &Record) {
        self.process(record);
    }

    fn control(&mut self, control: StreamControl) {
        self.engine.control(&control);
    }

    fn names(&mut self, names: &Names) {
        self.names.extend_from(names);
    }
}

#[cfg(test)]
mod tests;
