//! Selective tracing scope (paper §3.1.1).
//!
//! "DCatch traces all accesses to heap objects and static variables in the
//! following three types of functions and their callees: (1) RPC
//! functions; (2) functions that conduct socket operations; and (3)
//! event-handler functions."
//!
//! We additionally seed socket/ZooKeeper-watcher handlers (receive side)
//! and functions performing RPC calls, matching the paper's observation
//! that such functions "conduct many pre- and post-processing of socket
//! sending/receiving and RPC calls".

use std::collections::BTreeSet;

use dcatch_model::{CallGraph, FuncId, Program, StmtKind};

/// Memory-access tracing policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TracingMode {
    /// Paper §3.1.1: only communication-related functions and callees.
    #[default]
    Selective,
    /// Unselective full tracing — the Table 8 comparison baseline.
    Full,
}

/// The set of functions whose memory accesses are traced under
/// [`TracingMode::Selective`].
#[derive(Debug, Clone)]
pub struct TracedFunctions {
    /// Indexed by `FuncId`: the test is one load per traced access.
    traced: Vec<bool>,
}

impl TracedFunctions {
    /// Computes the traced set for `program`: handler functions plus
    /// functions performing RPC calls or socket sends, closed under
    /// synchronous callees.
    pub fn compute(program: &Program) -> TracedFunctions {
        let cg = CallGraph::build(program);
        let mut seeds: BTreeSet<FuncId> = BTreeSet::new();
        for (i, f) in program.funcs().iter().enumerate() {
            let fid = FuncId(i as u32);
            if f.kind.is_handler() {
                seeds.insert(fid);
            }
        }
        program.for_each_stmt(|fid, s| {
            if matches!(
                s.kind,
                StmtKind::RpcCall { .. } | StmtKind::SocketSend { .. }
            ) {
                seeds.insert(fid);
            }
        });
        let mut traced = vec![false; program.funcs().len()];
        for f in cg.call_closure(seeds) {
            traced[f.0 as usize] = true;
        }
        TracedFunctions { traced }
    }

    /// Whether memory accesses in `func` should be traced.
    pub fn contains(&self, func: FuncId) -> bool {
        self.traced.get(func.0 as usize).copied().unwrap_or(false)
    }

    /// Number of traced functions.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// Whether no function is traced.
    pub fn is_empty(&self) -> bool {
        !self.traced.contains(&true)
    }

    /// Iterates the traced function ids, in id order.
    pub fn iter(&self) -> impl Iterator<Item = FuncId> + '_ {
        let ids = (0..).map(FuncId);
        ids.zip(&self.traced).filter(|&(_, &t)| t).map(|(f, _)| f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcatch_model::{Expr, FuncKind, ProgramBuilder};

    fn program() -> Program {
        let mut pb = ProgramBuilder::new();
        // regular thread doing pure computation: NOT traced
        pb.func("compute", &[], FuncKind::Regular, |b| {
            b.write("local_counter", Expr::val(1));
        });
        // regular thread performing an RPC: traced (plus its callee)
        pb.func("submitter", &[], FuncKind::Regular, |b| {
            b.rpc_void(Expr::SelfNode, "serve", vec![]);
            b.call_void("shared_helper", vec![]);
        });
        pb.func("shared_helper", &[], FuncKind::Regular, |b| {
            b.write("meta", Expr::val(2));
        });
        pb.func("serve", &[], FuncKind::RpcHandler, |b| {
            b.read("x", "meta");
            b.ret(Expr::local("x"));
        });
        pb.func("on_event", &["p"], FuncKind::EventHandler, |b| {
            b.call_void("shared_helper", vec![]);
        });
        pb.build().unwrap()
    }

    #[test]
    fn handlers_and_rpc_callers_are_traced() {
        let p = program();
        let tf = TracedFunctions::compute(&p);
        assert!(tf.contains(p.func_id("serve").unwrap()));
        assert!(tf.contains(p.func_id("on_event").unwrap()));
        assert!(tf.contains(p.func_id("submitter").unwrap()));
    }

    #[test]
    fn callees_of_traced_functions_are_traced() {
        let p = program();
        let tf = TracedFunctions::compute(&p);
        assert!(tf.contains(p.func_id("shared_helper").unwrap()));
    }

    #[test]
    fn pure_computation_is_not_traced() {
        let p = program();
        let tf = TracedFunctions::compute(&p);
        assert!(!tf.contains(p.func_id("compute").unwrap()));
        assert_eq!(tf.len(), 4);
    }
}
