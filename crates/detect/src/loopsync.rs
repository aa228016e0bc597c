//! Loop-based custom-synchronization analysis (paper §3.2.1, Rule-Mpull).
//!
//! Retry/polling loops are synchronization, not bugs: in MR-3274's
//! `while (!getTask(jID)) {}` the NM polls the AM until `jMap.put` makes
//! the RPC return non-null. The write that finally lets the loop exit
//! *happens before* everything after the loop — causality no generic HB
//! rule can see.
//!
//! Following the paper, the analysis:
//!
//! 1. statically finds candidate reads `r` that feed a retry-loop exit —
//!    either directly (local while-loop sync) or through the return value
//!    of an RPC function invoked inside a remote retry loop (pull-based
//!    distributed sync, Rule-Mpull);
//! 2. re-runs the system with focused value tracing on the polled objects
//!    ("tracing only such r's and all writes that touch the same object"),
//!    up to the traced run's last loop marker;
//! 3. for each dynamic loop exit, finds the last read instance before it
//!    and the write `w*` that provided its value, and infers
//!    `w* ⇒ LoopExit`;
//! 4. adds the inferred edges to the HB graph — beside its reachability
//!    index, which stays as built; a query composes the two
//!    ([`HbAnalysis::add_edges`]) — recomputes candidates in the location
//!    groups where the first scan found a race, the only ones an added
//!    edge can change ([`CandidateScan::refresh`]), and additionally drops
//!    the polling read/write pairs themselves (they are the
//!    synchronization idiom).

use std::collections::{BTreeMap, BTreeSet};

use dcatch_hb::HbAnalysis;
use dcatch_model::{DependenceAnalysis, FuncKind, LoopId, Program, Stmt, StmtId, StmtKind};
use dcatch_trace::{Names, OpKind, Record, TaskId, TraceSet};

use crate::candidates::{CandidateScan, CandidateSet};

/// Outcome of the loop-synchronization analysis.
#[derive(Debug, Clone, Default)]
pub struct LoopSyncResult {
    /// Inferred `w* ⇒ LoopExit` edges (original-trace indices).
    pub edges: Vec<(usize, usize)>,
    /// Candidate static pairs identified as the polling idiom itself.
    pub sync_pairs: BTreeSet<(StmtId, StmtId)>,
    /// Objects the focused re-run traced.
    pub focused_objects: BTreeSet<String>,
    /// Candidates pruned by this analysis (static-pair count).
    pub pruned_static_pairs: usize,
}

/// The run-independent product of the loop-sync scan: inferred
/// `w* ⇒ LoopExit` causality in *occurrence space* (see [`OccKey`]),
/// applicable both to the batch graph (translated to original-trace
/// indices) and to a streaming second pass (fired by occurrence
/// counters as records arrive).
#[derive(Debug, Clone, Default)]
pub struct SyncPlan {
    /// Inferred `w* ⇒ LoopExit` edges: `(source write, target exit)`.
    pub edges: Vec<((OccKey, usize), (OccKey, usize))>,
    /// Polling read → set of releasing writes (static pairs to drop).
    pub sync_write_stmts: BTreeMap<StmtId, BTreeSet<StmtId>>,
    /// Objects the focused re-run traced.
    pub focused_objects: BTreeSet<String>,
}

impl SyncPlan {
    /// The polling-idiom static pairs, canonically ordered.
    pub fn sync_pairs(&self) -> BTreeSet<(StmtId, StmtId)> {
        let mut pairs = BTreeSet::new();
        for (read, writes) in &self.sync_write_stmts {
            for w in writes {
                let key = if *read <= *w {
                    (*read, *w)
                } else {
                    (*w, *read)
                };
                pairs.insert(key);
            }
        }
        pairs
    }
}

/// A read statically identified as feeding a retry-loop exit.
#[derive(Debug, Clone)]
struct PolledRead {
    /// The read statement.
    read: StmtId,
    /// Object it polls.
    object: String,
    /// Loops whose exits it can release.
    loops: Vec<LoopId>,
}

/// Runs the full analysis. `rerun` must re-execute the same workload with
/// the same seed, tracing only the given objects with values (the
/// simulator's focused mode guarantees an identical schedule). It may stop
/// right after the traced run's last loop marker: nothing past it is read.
///
/// Returns the pruned candidate set and a description of what happened.
/// This is [`analyze_loop_sync_with`] with the program's dependence
/// analysis built here and the scan taken of `hb` before the edges go in.
pub fn analyze_loop_sync(
    program: &Program,
    hb: &mut HbAnalysis,
    candidates: CandidateSet,
    rerun: &mut dyn FnMut(&BTreeSet<String>) -> TraceSet,
) -> (CandidateSet, LoopSyncResult) {
    let deps = DependenceAnalysis::new(program);
    analyze_loop_sync_with(program, &deps, hb, None, candidates, rerun)
}

/// [`analyze_loop_sync`] with the program's dependence analysis `deps`
/// (its default failure specification's) and `scan`, the scan that found
/// `candidates` in `hb`'s trace before any loop-sync edge. The inferred
/// edges go into `hb` and the scan refreshes over them; without `scan`,
/// one is taken of `hb` first.
pub fn analyze_loop_sync_with(
    program: &Program,
    deps: &DependenceAnalysis,
    hb: &mut HbAnalysis,
    scan: Option<&CandidateScan>,
    candidates: CandidateSet,
    rerun: &mut dyn FnMut(&BTreeSet<String>) -> TraceSet,
) -> (CandidateSet, LoopSyncResult) {
    let _span = dcatch_obs::span!("detect.loopsync");
    let Some(plan) = plan_loop_sync(program, deps, &candidates, rerun) else {
        return (candidates, LoopSyncResult::default());
    };

    // translate occurrence-space causality into the original trace's
    // index space; an occurrence the original run never reached drops out
    let original = locate(hb.trace(), plan.edges.iter().flat_map(|(w, x)| [*w, *x]));
    let to_original = |occ: &(OccKey, usize)| original.get(occ).copied();
    let edges: Vec<(usize, usize)> = plan
        .edges
        .iter()
        .filter_map(|(w, exit)| Some((to_original(w)?, to_original(exit)?)))
        .collect();

    if edges.is_empty() && plan.sync_write_stmts.is_empty() {
        return (candidates, LoopSyncResult::default());
    }

    let taken;
    let scan = match scan {
        Some(scan) => scan,
        None => {
            taken = CandidateScan::new(hb).0;
            &taken
        }
    };
    hb.add_edges(&edges);
    let sync_pairs = plan.sync_pairs();
    let (updated, pruned) = settle_loop_sync(&candidates, scan.refresh(hb), &sync_pairs);
    dcatch_obs::counter!("detect_loopsync_edges_total").add(edges.len() as u64);
    let result = LoopSyncResult {
        edges,
        sync_pairs,
        focused_objects: plan.focused_objects,
        pruned_static_pairs: pruned,
    };
    (updated, result)
}

/// Drops the polling-idiom `sync_pairs` from `refreshed`, the candidates
/// found again once the plan's edges were in, and counts what loop-sync
/// pruned: the static pairs of `candidates`, its input, that the edges
/// ordered or that are the idiom. `refreshed` is not pruned again here,
/// so it may hold pairs that `candidates` lost before loop-sync; they are
/// not counted. Both detection modes settle here.
pub fn settle_loop_sync(
    candidates: &CandidateSet,
    mut refreshed: CandidateSet,
    sync_pairs: &BTreeSet<(StmtId, StmtId)>,
) -> (CandidateSet, usize) {
    refreshed.retain(|c| !sync_pairs.contains(&c.static_pair));
    let pruned = candidates
        .iter()
        .filter(|c| refreshed.find(c.static_pair.0, c.static_pair.1).is_none())
        .count();
    dcatch_obs::counter!("detect_loopsync_pruned_total").add(pruned as u64);
    (refreshed, pruned)
}

/// Runs the static polled-read identification over `deps`, the program's
/// dependence analysis, and the focused re-run scan, producing the
/// occurrence-space [`SyncPlan`] both detection modes share. Returns `None` when no read polls a retry loop or the focused
/// run surfaced no cross-task releasing write (nothing to add or prune).
pub fn plan_loop_sync(
    program: &Program,
    deps: &DependenceAnalysis,
    candidates: &CandidateSet,
    rerun: &mut dyn FnMut(&BTreeSet<String>) -> TraceSet,
) -> Option<SyncPlan> {
    let polled = find_polled_reads(program, deps, candidates);
    if polled.is_empty() {
        return None;
    }
    let focused_objects: BTreeSet<String> = polled.iter().map(|p| p.object.clone()).collect();
    let focused = rerun(&focused_objects);

    let mut edges: Vec<((OccKey, usize), (OccKey, usize))> = Vec::new();
    let mut sync_write_stmts: BTreeMap<StmtId, BTreeSet<StmtId>> = BTreeMap::new();

    let loops_of_interest: BTreeSet<LoopId> = polled
        .iter()
        .flat_map(|p| p.loops.iter().copied())
        .collect();
    let read_stmts: BTreeSet<StmtId> = polled.iter().map(|p| p.read).collect();

    let (records, names) = (focused.records(), focused.names());
    let mut focus_ordinals: BTreeMap<OccKey, usize> = BTreeMap::new();
    let mut keyed: Vec<Option<(OccKey, usize)>> = Vec::with_capacity(records.len());
    for r in records {
        match occ_key(r, names) {
            Some(k) => {
                let ord = focus_ordinals.entry(k).or_insert(0);
                let this = *ord;
                *ord += 1;
                keyed.push(Some((k, this)));
            }
            None => keyed.push(None),
        }
    }

    for (i, r) in records.iter().enumerate() {
        let OpKind::LoopExit { loop_id } = r.kind else {
            continue;
        };
        if !loops_of_interest.contains(&loop_id) {
            continue;
        }
        // last instance of a polled read before this exit (global order)
        let Some((read_idx, read_stmt, value)) =
            records[..i].iter().enumerate().rev().find_map(|(j, c)| {
                let stmt = names.leaf(c.stack)?;
                if !read_stmts.contains(&stmt) {
                    return None;
                }
                match c.kind {
                    OpKind::MemRead { value: Some(v), .. } => Some((j, stmt, v)),
                    _ => None,
                }
            })
        else {
            continue;
        };
        let read_loc = records[read_idx].kind.mem_loc().expect("mem read");
        // the write that provided that value
        let Some((w_idx, w_stmt, w_task)) =
            records[..read_idx]
                .iter()
                .enumerate()
                .rev()
                .find_map(|(j, c)| {
                    let OpKind::MemWrite {
                        loc,
                        value: Some(v),
                    } = &c.kind
                    else {
                        return None;
                    };
                    if loc.conflicts_with(read_loc) && *v == value {
                        Some((j, names.leaf(c.stack)?, c.task))
                    } else {
                        None
                    }
                })
        else {
            continue;
        };
        let read_task: TaskId = records[read_idx].task;
        if w_task == read_task {
            continue; // same-thread assignment is ordinary program order
        }
        // inferred causality, kept in occurrence space: both records carry
        // a stmt (checked above), so both are keyed
        if let (Some(w_occ), Some(exit_occ)) = (keyed[w_idx], keyed[i]) {
            edges.push((w_occ, exit_occ));
        }
        sync_write_stmts
            .entry(read_stmt)
            .or_default()
            .insert(w_stmt);
    }

    if edges.is_empty() && sync_write_stmts.is_empty() {
        return None;
    }
    Some(SyncPlan {
        edges,
        sync_write_stmts,
        focused_objects,
    })
}

// ---------------------------------------------------------------------------
// static identification of polled reads

/// Finds, for every candidate's read side, the retry loops its value can
/// release (paper §3.2.1's conditions 1–3, over the IR).
fn find_polled_reads(
    program: &Program,
    deps: &DependenceAnalysis,
    candidates: &CandidateSet,
) -> Vec<PolledRead> {
    // retry-While statements per function, with enclosure info
    let mut out = Vec::new();
    let mut candidate_reads: BTreeMap<StmtId, String> = BTreeMap::new();
    for c in candidates {
        for side in [&c.rep.0, &c.rep.1] {
            if !side.is_write {
                candidate_reads.insert(side.stmt, side.loc.object.clone());
            }
        }
    }
    for (read, object) in candidate_reads {
        let mut loops = Vec::new();
        // local while-loop sync: the read's influence closure reaches a
        // retry While in its own function
        let fd = deps.func(read.func);
        let closure = fd.closure_from_stmt(read);
        for_each_retry_while(program, read.func, |w_stmt, loop_id| {
            if closure.get(w_stmt.idx as usize).copied().unwrap_or(false) {
                loops.push(loop_id);
            }
        });
        // distributed pull-based sync: read inside an RPC function whose
        // return depends on it; remote retry loops polling that RPC
        let func = program.func(read.func);
        if func.kind == FuncKind::RpcHandler && fd.return_depends_on_stmt(read) {
            let rpc_name = func.name.clone();
            program.for_each_stmt(|fid, s| {
                if let StmtKind::RpcCall { func: callee, .. } = &s.kind {
                    if callee == &rpc_name {
                        let caller_deps = deps.func(fid);
                        let call_closure = caller_deps.closure_from_stmt(s.id);
                        for_each_retry_while(program, fid, |w_stmt, loop_id| {
                            if call_closure
                                .get(w_stmt.idx as usize)
                                .copied()
                                .unwrap_or(false)
                            {
                                loops.push(loop_id);
                            }
                        });
                    }
                }
            });
        }
        if !loops.is_empty() {
            loops.sort_unstable();
            loops.dedup();
            out.push(PolledRead {
                read,
                object,
                loops,
            });
        }
    }
    out
}

fn for_each_retry_while(
    program: &Program,
    func: dcatch_model::FuncId,
    mut f: impl FnMut(StmtId, LoopId),
) {
    fn walk(block: &[Stmt], f: &mut impl FnMut(StmtId, LoopId)) {
        for s in block {
            if let StmtKind::While {
                loop_id,
                retry: true,
                ..
            } = &s.kind
            {
                f(s.id, *loop_id);
            }
            for b in s.blocks() {
                walk(b, f);
            }
        }
    }
    walk(&program.func(func).body, &mut f);
}

// ---------------------------------------------------------------------------
// cross-run record correspondence

/// A run-stable identity for a dynamic record: task + op tag + static
/// location. The `k`-th record with a given key corresponds across runs of
/// the same seed because the focused run executes the identical schedule.
pub type OccKey = (TaskId, &'static str, StmtId);

/// The [`OccKey`] of one record, whose callstack `names` resolves, if it
/// carries a static location.
pub fn occ_key(r: &Record, names: &Names) -> Option<OccKey> {
    let stmt = names.leaf(r.stack)?;
    Some((r.task, r.kind.tag(), stmt))
}

/// The trace index of each `wanted` occurrence, walking `trace` only until
/// the last of them is found. Ordinals count from the trace's start, so
/// the prefix up to the plan's last loop exit translates as the whole
/// trace would; an occurrence the trace never reaches is absent.
fn locate(
    trace: &TraceSet,
    wanted: impl IntoIterator<Item = (OccKey, usize)>,
) -> BTreeMap<(OccKey, usize), usize> {
    let mut left: BTreeSet<(OccKey, usize)> = wanted.into_iter().collect();
    // occurrences seen so far, of the keys the plan names only
    let mut seen: BTreeMap<OccKey, usize> = left.iter().map(|&(k, _)| (k, 0)).collect();
    let mut found = BTreeMap::new();
    for (i, r) in trace.records().iter().enumerate() {
        if left.is_empty() {
            break;
        }
        let Some(k) = occ_key(r, trace.names()) else {
            continue;
        };
        let Some(count) = seen.get_mut(&k) else {
            continue;
        };
        if left.remove(&(k, *count)) {
            found.insert((k, *count), i);
        }
        *count += 1;
    }
    found
}

#[cfg(test)]
mod tests;
