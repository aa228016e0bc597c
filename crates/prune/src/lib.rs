//! Static pruning of DCbug candidates by failure-impact estimation
//! (paper §4).
//!
//! Not every concurrent conflicting access pair can cause a visible
//! failure — distributed systems contain redundancy and fault tolerance
//! that cure many intermediate errors (gossip anti-entropy, retries…).
//! Following the paper, a candidate `(s, t)` survives pruning only when
//! `s` or `t` can influence a *failure instruction* (abort/exit, severe
//! log, uncatchable throw, retry-loop exit; §4.1) through:
//!
//! * **local intra-procedural** control/data dependence;
//! * **one-level caller** dependence — via the function's return value or
//!   via heap objects, following the *reported call-stack* of the access;
//! * **one-level callee** dependence — via call arguments or heap objects;
//! * **distributed** dependence — if an RPC function appears on the
//!   access's callstack and the RPC's return value depends on the access,
//!   failure instructions in the remote caller that depend on the RPC
//!   result count too (§4.2, "Distributed impact analysis"). This is what
//!   keeps MR-3274: the NM-side retry loop (a hang site) depends on the
//!   AM-side `jMap` read through the `getTask` return value.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::BTreeSet;

use dcatch_detect::{AccessSite, Candidate, CandidateSet};
use dcatch_model::{
    CallGraph, DependenceAnalysis, EdgeKind, FailureInstr, FailureSpec, FuncId, FuncKind, Program,
    StmtKind,
};

/// Why an access was considered failure-impacting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Impact {
    /// A failure instruction in the access's own function depends on it.
    LocalIntra {
        /// The reachable failure instruction.
        failure: FailureInstr,
    },
    /// A failure instruction in the one-level caller (per the reported
    /// callstack) depends on the access via return value or heap.
    LocalCaller {
        /// Caller function.
        caller: FuncId,
        /// The reachable failure instruction.
        failure: FailureInstr,
    },
    /// A failure instruction in a one-level callee depends on the access
    /// via arguments or heap.
    LocalCallee {
        /// Callee function.
        callee: FuncId,
        /// The reachable failure instruction.
        failure: FailureInstr,
    },
    /// A failure instruction in some other function depends on the access
    /// through a shared heap object (one heap hop): the access (or its
    /// intra-procedural influence closure) writes an object whose readers
    /// can reach a failure instruction. This generalizes the paper's
    /// heap/global-object channel for caller/callee to arbitrary threads —
    /// in the IR, threads communicate exclusively through named shared
    /// objects, so the channel the paper models via object references must
    /// follow object names. This is what keeps local-hang bugs (ZK-1144
    /// style) whose failure site is a retry loop in a sibling thread.
    HeapMediated {
        /// Function containing the impacted reader.
        reader_func: FuncId,
        /// The reachable failure instruction.
        failure: FailureInstr,
    },
    /// A failure instruction on a *different node* depends on the access
    /// through an RPC return value.
    Distributed {
        /// The RPC function on the access's callstack.
        rpc: FuncId,
        /// The remote function invoking the RPC.
        caller: FuncId,
        /// The reachable failure instruction.
        failure: FailureInstr,
    },
}

impl Impact {
    /// The failure instruction this impact reaches.
    pub fn failure(&self) -> FailureInstr {
        match self {
            Impact::LocalIntra { failure }
            | Impact::LocalCaller { failure, .. }
            | Impact::LocalCallee { failure, .. }
            | Impact::HeapMediated { failure, .. }
            | Impact::Distributed { failure, .. } => *failure,
        }
    }
}

/// Outcome counts of one pruning pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// Static pairs before pruning.
    pub before_static: usize,
    /// Static pairs after pruning.
    pub after_static: usize,
    /// Callstack pairs before pruning.
    pub before_stacks: usize,
    /// Callstack pairs after pruning.
    pub after_stacks: usize,
}

/// The static pruning engine: owns the dependence and call-graph analyses
/// over one program.
pub struct Pruner<'p> {
    program: &'p Program,
    deps: DependenceAnalysis,
    callgraph: CallGraph,
}

impl<'p> Pruner<'p> {
    /// Prepares the analyses for `program` with the default failure
    /// specification.
    pub fn new(program: &'p Program) -> Pruner<'p> {
        Pruner::with_spec(program, &FailureSpec::default())
    }

    /// Prepares the analyses with a custom failure specification (§4.1:
    /// "this list is configurable, allowing future DCatch extension to
    /// detect DCbugs with different failures").
    pub fn with_spec(program: &'p Program, spec: &FailureSpec) -> Pruner<'p> {
        Pruner {
            program,
            deps: DependenceAnalysis::with_spec(program, spec),
            callgraph: CallGraph::build(program),
        }
    }

    /// The program's dependence analysis, under the pruner's failure
    /// specification.
    pub fn deps(&self) -> &DependenceAnalysis {
        &self.deps
    }

    /// All impacts of one access site.
    pub fn impact_of(&self, site: &AccessSite) -> Vec<Impact> {
        let mut impacts = Vec::new();
        self.local_intra(site, &mut impacts);
        self.local_caller(site, &mut impacts);
        self.local_callee(site, &mut impacts);
        self.heap_mediated(site, &mut impacts);
        self.distributed(site, &mut impacts);
        for imp in &impacts {
            match imp {
                Impact::LocalIntra { .. } => {
                    dcatch_obs::counter!("prune_impact_local_intra_total").inc()
                }
                Impact::LocalCaller { .. } => {
                    dcatch_obs::counter!("prune_impact_local_caller_total").inc()
                }
                Impact::LocalCallee { .. } => {
                    dcatch_obs::counter!("prune_impact_local_callee_total").inc()
                }
                Impact::HeapMediated { .. } => {
                    dcatch_obs::counter!("prune_impact_heap_mediated_total").inc()
                }
                Impact::Distributed { .. } => {
                    dcatch_obs::counter!("prune_impact_distributed_total").inc()
                }
            }
        }
        impacts
    }

    /// Whether either side of `candidate` has any failure impact.
    pub fn candidate_impacted(&self, candidate: &Candidate) -> bool {
        !self.impact_of(&candidate.rep.0).is_empty() || !self.impact_of(&candidate.rep.1).is_empty()
    }

    /// Prunes the candidate set, returning survivors, pruned candidates,
    /// and counts.
    pub fn prune(&self, candidates: CandidateSet) -> (CandidateSet, Vec<Candidate>, PruneStats) {
        let _span = dcatch_obs::span!("prune.static");
        let mut stats = PruneStats {
            before_static: candidates.static_pair_count(),
            before_stacks: candidates.callstack_pair_count(),
            ..PruneStats::default()
        };
        let (kept, pruned): (Vec<Candidate>, Vec<Candidate>) = candidates
            .into_iter()
            .partition(|c| self.candidate_impacted(c));
        let kept: CandidateSet = kept.into_iter().collect();
        stats.after_static = kept.static_pair_count();
        stats.after_stacks = kept.callstack_pair_count();
        dcatch_obs::counter!("prune_candidates_pruned_total").add(pruned.len() as u64);
        dcatch_obs::counter!("prune_candidates_kept_total").add(kept.static_pair_count() as u64);
        (kept, pruned, stats)
    }

    // -- the four analyses ---------------------------------------------------

    fn local_intra(&self, site: &AccessSite, out: &mut Vec<Impact>) {
        let fd = self.deps.func(site.stmt.func);
        for failure in fd.failures_from_stmt(site.stmt) {
            out.push(Impact::LocalIntra { failure });
        }
    }

    /// One-level caller via the reported callstack: return value and heap.
    fn local_caller(&self, site: &AccessSite, out: &mut Vec<Impact>) {
        // the frame above the leaf: second-to-last callstack entry
        let frames = &site.stack.0;
        if frames.len() < 2 {
            return;
        }
        let call_site = frames[frames.len() - 2];
        let caller = call_site.func;
        // only treat synchronous Call frames as callers (handler roots have
        // no meaningful "caller" function)
        let Some(stmt) = self.program.stmt(call_site) else {
            return;
        };
        if !matches!(stmt.kind, StmtKind::Call { .. }) {
            return;
        }
        let callee_fd = self.deps.func(site.stmt.func);
        let caller_fd = self.deps.func(caller);
        // via return value
        if callee_fd.return_depends_on_stmt(site.stmt) {
            for failure in caller_fd.failures_from_stmt(call_site) {
                out.push(Impact::LocalCaller { caller, failure });
            }
        }
        // via heap: the access writes an object the caller reads
        if site.is_write {
            for &r in caller_fd.reads_of_object(&site.loc.object) {
                let rid = dcatch_model::StmtId {
                    func: caller,
                    idx: r,
                };
                for failure in caller_fd.failures_from_stmt(rid) {
                    let imp = Impact::LocalCaller { caller, failure };
                    if !out.contains(&imp) {
                        out.push(imp);
                    }
                }
            }
        }
    }

    /// One-level callee: arguments whose expressions use the local the
    /// access defines, and heap objects the access writes.
    fn local_callee(&self, site: &AccessSite, out: &mut Vec<Impact>) {
        let func = self.program.func(site.stmt.func);
        let Some(access) = self.program.stmt(site.stmt) else {
            return;
        };
        let defined = access.def_local();
        // scan call statements of the same function
        let mut calls: Vec<(dcatch_model::StmtId, String, Vec<dcatch_model::Expr>)> = Vec::new();
        for s in collect_stmts(&func.body) {
            if let StmtKind::Call {
                func: callee, args, ..
            } = &s.kind
            {
                calls.push((s.id, callee.clone(), args.clone()));
            }
        }
        for (_, callee_name, args) in &calls {
            let Some((callee_id, callee)) = self.program.func_by_name(callee_name) else {
                continue;
            };
            let callee_fd = self.deps.func(callee_id);
            // via arguments
            if let Some(local) = defined {
                for (i, arg) in args.iter().enumerate() {
                    if arg.used_locals().contains(&local) {
                        if let Some(param) = callee.params.get(i) {
                            for failure in callee_fd.failures_from_local(param) {
                                let imp = Impact::LocalCallee {
                                    callee: callee_id,
                                    failure,
                                };
                                if !out.contains(&imp) {
                                    out.push(imp);
                                }
                            }
                        }
                    }
                }
            }
            // via heap
            if site.is_write {
                for &r in callee_fd.reads_of_object(&site.loc.object) {
                    let rid = dcatch_model::StmtId {
                        func: callee_id,
                        idx: r,
                    };
                    for failure in callee_fd.failures_from_stmt(rid) {
                        let imp = Impact::LocalCallee {
                            callee: callee_id,
                            failure,
                        };
                        if !out.contains(&imp) {
                            out.push(imp);
                        }
                    }
                }
            }
        }
    }

    /// One-heap-hop impact: objects the access (or its intra-procedural
    /// closure) writes, read elsewhere with failure dependence.
    fn heap_mediated(&self, site: &AccessSite, out: &mut Vec<Impact>) {
        let fd = self.deps.func(site.stmt.func);
        let closure = fd.closure_from_stmt(site.stmt);
        // objects written by the access itself or under its influence
        let mut written: BTreeSet<String> = BTreeSet::new();
        if site.is_write {
            written.insert(site.loc.object.clone());
        }
        let func = self.program.func(site.stmt.func);
        for s in collect_stmts(&func.body) {
            if closure.get(s.id.idx as usize).copied().unwrap_or(false) {
                if let Some(o) = s.writes_object() {
                    written.insert(o.to_owned());
                }
            }
        }
        for object in &written {
            for (gid, _) in self
                .program
                .funcs()
                .iter()
                .enumerate()
                .map(|(i, f)| (FuncId(i as u32), f))
            {
                let gfd = self.deps.func(gid);
                for &r in gfd.reads_of_object(object) {
                    let rid = dcatch_model::StmtId { func: gid, idx: r };
                    for failure in gfd.failures_from_stmt(rid) {
                        let imp = Impact::HeapMediated {
                            reader_func: gid,
                            failure,
                        };
                        if !out.contains(&imp) {
                            out.push(imp);
                        }
                    }
                }
            }
        }
    }

    /// Distributed impact through RPC return values (§4.2).
    fn distributed(&self, site: &AccessSite, out: &mut Vec<Impact>) {
        // compose return-value dependence from the leaf outward along the
        // reported callstack
        let frames = &site.stack.0;
        if frames.is_empty() {
            return;
        }
        let leaf_fd = self.deps.func(site.stmt.func);
        let mut depends = leaf_fd.return_depends_on_stmt(site.stmt);
        let mut level_func = site.stmt.func;
        // walk frames from innermost call site outwards
        let mut rpc_funcs: BTreeSet<FuncId> = BTreeSet::new();
        if depends && self.program.func(level_func).kind == FuncKind::RpcHandler {
            rpc_funcs.insert(level_func);
        }
        for frame in frames.iter().rev().skip(1) {
            if !depends {
                break;
            }
            let Some(stmt) = self.program.stmt(*frame) else {
                break;
            };
            if !matches!(stmt.kind, StmtKind::Call { .. }) {
                break; // reached a handler root
            }
            let fd = self.deps.func(frame.func);
            depends = fd.return_depends_on_stmt(*frame);
            level_func = frame.func;
            if depends && self.program.func(level_func).kind == FuncKind::RpcHandler {
                rpc_funcs.insert(level_func);
            }
        }
        // every remote caller invoking the RPC, with failures depending on
        // the call result
        for rpc in rpc_funcs {
            for (caller, kind) in self.callgraph.callers(rpc) {
                if kind != EdgeKind::Rpc {
                    continue;
                }
                let caller_fd = self.deps.func(caller);
                let caller_func = self.program.func(caller);
                for s in collect_stmts(&caller_func.body) {
                    let StmtKind::RpcCall { func: callee, .. } = &s.kind else {
                        continue;
                    };
                    if self.program.func_id(callee) != Some(rpc) {
                        continue;
                    }
                    for failure in caller_fd.failures_from_stmt(s.id) {
                        let imp = Impact::Distributed {
                            rpc,
                            caller,
                            failure,
                        };
                        if !out.contains(&imp) {
                            out.push(imp);
                        }
                    }
                }
            }
        }
    }
}

fn collect_stmts(block: &[dcatch_model::Stmt]) -> Vec<&dcatch_model::Stmt> {
    let mut out = Vec::new();
    fn walk<'a>(block: &'a [dcatch_model::Stmt], out: &mut Vec<&'a dcatch_model::Stmt>) {
        for s in block {
            out.push(s);
            for b in s.blocks() {
                walk(b, out);
            }
        }
    }
    walk(block, &mut out);
    out
}

#[cfg(test)]
mod tests;
