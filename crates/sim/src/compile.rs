//! Compilation of the statement tree into a flat, name-free instruction
//! stream.
//!
//! Structured control flow (`If`, `While`) becomes branch/jump
//! instructions so the interpreter can execute exactly one instruction per
//! scheduler step with a plain program counter — the granularity at which
//! interleavings (and therefore races) are explored.
//!
//! Every name is resolved here, once, so a step never hashes, compares or
//! copies a string: locals become slot indices into their function's
//! frame, heap objects, locks and event queues become program-wide ids
//! that index per-node vectors, and expressions are rebuilt over slots.
//! The name tables are kept only for what leaves the simulator — trace
//! locations, failure messages and queue registrations.

use std::collections::BTreeMap;
use std::fmt;

use dcatch_model::{
    BinOp, Expr, Func, FuncId, FuncKind, LoopId, Program, Stmt, StmtId, StmtKind, UnOp, Value,
};

/// Index of a local in its function's frame ([`CompiledFunc::locals`]).
pub type Slot = usize;
/// Program-wide id of a heap object name ([`CompiledProgram::objects`]).
pub type ObjId = usize;
/// Program-wide id of a lock name ([`CompiledProgram::locks`]).
pub type LockId = usize;
/// Program-wide id of an event-queue name ([`CompiledProgram::queues`]).
pub type QueueId = usize;

/// An [`Expr`] with every local resolved to its frame slot.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variants mirror Expr, documented there
pub enum SlotExpr {
    Const(Value),
    Local(Slot),
    SelfNode,
    Unary(UnOp, Box<SlotExpr>),
    Binary(BinOp, Box<SlotExpr>, Box<SlotExpr>),
}

/// One flat instruction: the operation plus the source statement it came
/// from (trace records carry the statement id).
#[derive(Debug, Clone, PartialEq)]
pub struct Instr {
    /// Source statement.
    pub stmt: StmtId,
    /// Operation.
    pub op: Op,
}

/// Flattened operations. Most mirror [`StmtKind`] 1:1 with names replaced
/// by slots and ids; control flow is lowered to [`Op::LoopHead`],
/// [`Op::Branch`], and [`Op::Jump`].
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // fields mirror StmtKind, documented there
pub enum Op {
    Assign {
        local: Slot,
        expr: SlotExpr,
    },
    Read {
        local: Slot,
        object: ObjId,
    },
    Write {
        object: ObjId,
        value: SlotExpr,
    },
    MapPut {
        map: ObjId,
        key: SlotExpr,
        value: SlotExpr,
    },
    MapGet {
        local: Slot,
        map: ObjId,
        key: SlotExpr,
    },
    MapRemove {
        map: ObjId,
        key: SlotExpr,
    },
    MapContains {
        local: Slot,
        map: ObjId,
        key: SlotExpr,
    },
    ListAdd {
        list: ObjId,
        value: SlotExpr,
    },
    ListRemove {
        list: ObjId,
        value: SlotExpr,
    },
    ListIsEmpty {
        local: Slot,
        list: ObjId,
    },
    ListContains {
        local: Slot,
        list: ObjId,
        value: SlotExpr,
    },

    /// Jump to `target` when `cond` is falsy (compiled `If`).
    Branch {
        cond: SlotExpr,
        target: usize,
    },
    /// Unconditional jump.
    Jump {
        target: usize,
    },
    /// Marks entry into a loop activation (resets its iteration counter).
    LoopEnter {
        loop_id: LoopId,
        retry: bool,
    },
    /// Evaluates the loop condition: falsy ⇒ jump to `exit` (which holds
    /// the [`Op::LoopExit`]); truthy ⇒ fall through into the body, after
    /// bumping the iteration counter against the retry budget.
    LoopHead {
        loop_id: LoopId,
        retry: bool,
        cond: SlotExpr,
        exit: usize,
    },
    /// Marks loop exit (anchor for inferred loop-synchronization HB edges).
    LoopExit {
        loop_id: LoopId,
        retry: bool,
    },

    Call {
        local: Option<Slot>,
        func: FuncId,
        args: Vec<SlotExpr>,
    },
    Return {
        expr: Option<SlotExpr>,
    },

    Spawn {
        local: Option<Slot>,
        func: FuncId,
        args: Vec<SlotExpr>,
    },
    Join {
        handle: SlotExpr,
    },
    Enqueue {
        queue: QueueId,
        func: FuncId,
        args: Vec<SlotExpr>,
    },
    Lock {
        lock: LockId,
    },
    Unlock {
        lock: LockId,
    },

    RpcCall {
        local: Option<Slot>,
        node: SlotExpr,
        func: FuncId,
        args: Vec<SlotExpr>,
    },
    SocketSend {
        node: SlotExpr,
        func: FuncId,
        args: Vec<SlotExpr>,
    },
    ZkCreate {
        path: SlotExpr,
        data: SlotExpr,
        exclusive: bool,
    },
    ZkSetData {
        path: SlotExpr,
        data: SlotExpr,
    },
    ZkDelete {
        path: SlotExpr,
    },
    ZkGetData {
        local: Slot,
        path: SlotExpr,
    },
    ZkExists {
        local: Slot,
        path: SlotExpr,
    },

    Abort {
        msg: String,
    },
    LogFatal {
        msg: String,
    },
    LogWarn {
        msg: String,
    },
    Throw {
        kind: String,
    },

    Sleep {
        ticks: SlotExpr,
    },
    Yield,
    Nop,
}

/// A compiled function.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledFunc {
    /// Slot of each parameter, in declaration order.
    pub params: Vec<Slot>,
    /// Name of every local, by slot (for "undefined local" messages); its
    /// length is the frame size.
    pub locals: Vec<String>,
    /// Function role.
    pub kind: FuncKind,
    /// Flat instruction stream.
    pub instrs: Vec<Instr>,
}

/// A compiled program: all functions flattened, indexable by [`FuncId`],
/// plus the name behind every id.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledProgram {
    funcs: Vec<CompiledFunc>,
    /// Heap object names, by [`ObjId`].
    pub objects: Vec<String>,
    /// Lock names, by [`LockId`].
    pub locks: Vec<String>,
    /// Event-queue names, by [`QueueId`]: those the program enqueues to,
    /// then those only the topology declares ([`Self::intern_queue`]).
    pub queues: Vec<String>,
}

/// Compilation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError {
    /// Description.
    pub message: String,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "compile error: {}", self.message)
    }
}

impl std::error::Error for CompileError {}

/// Assigns dense ids to names in first-seen order.
#[derive(Default)]
struct Interner<'p>(BTreeMap<&'p str, usize>);

impl<'p> Interner<'p> {
    fn id(&mut self, name: &'p str) -> usize {
        let next = self.0.len();
        *self.0.entry(name).or_insert(next)
    }

    /// The interned names, indexed by id.
    fn into_names(self) -> Vec<String> {
        let mut names = vec![String::new(); self.0.len()];
        for (name, id) in self.0 {
            names[id] = name.to_owned();
        }
        names
    }
}

/// The program-wide name spaces.
#[derive(Default)]
struct Names<'p> {
    objects: Interner<'p>,
    locks: Interner<'p>,
    queues: Interner<'p>,
}

impl CompiledProgram {
    /// Compiles every function of `program`.
    pub fn compile(program: &Program) -> Result<CompiledProgram, CompileError> {
        let mut names = Names::default();
        let funcs = program
            .funcs()
            .iter()
            .map(|f| compile_func(program, &mut names, f))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(CompiledProgram {
            funcs,
            objects: names.objects.into_names(),
            locks: names.locks.into_names(),
            queues: names.queues.into_names(),
        })
    }

    /// The id of queue `name`, assigning the next one to a queue only the
    /// topology declares (no statement enqueues to it, but its workers
    /// still need an id).
    pub fn intern_queue(&mut self, name: &str) -> QueueId {
        self.queues
            .iter()
            .position(|q| q == name)
            .unwrap_or_else(|| {
                self.queues.push(name.to_owned());
                self.queues.len() - 1
            })
    }

    /// The compiled form of `func`.
    pub fn func(&self, func: FuncId) -> &CompiledFunc {
        &self.funcs[func.index()]
    }
}

fn compile_func<'p>(
    program: &'p Program,
    names: &mut Names<'p>,
    f: &'p Func,
) -> Result<CompiledFunc, CompileError> {
    let mut lower = Lowering {
        program,
        names,
        locals: Interner::default(),
        out: Vec::new(),
    };
    let params = f.params.iter().map(|p| lower.locals.id(p)).collect();
    lower.block(&f.body)?;
    // implicit unit return at end
    let end_stmt = lower.out.last().map(|i| i.stmt).unwrap_or_else(|| StmtId {
        func: program.func_id(&f.name).unwrap_or_else(|| {
            panic!(
                "function `{}` being compiled is not registered in its own program",
                f.name
            )
        }),
        idx: 0,
    });
    lower.push(end_stmt, Op::Return { expr: None });
    Ok(CompiledFunc {
        params,
        locals: lower.locals.into_names(),
        kind: f.kind,
        instrs: lower.out,
    })
}

/// Lowers one function body: resolves its names and flattens its control
/// flow into `out`.
struct Lowering<'a, 'p> {
    program: &'p Program,
    names: &'a mut Names<'p>,
    locals: Interner<'p>,
    out: Vec<Instr>,
}

impl<'p> Lowering<'_, 'p> {
    fn push(&mut self, stmt: StmtId, op: Op) {
        self.out.push(Instr { stmt, op });
    }

    fn func(&self, name: &str) -> Result<FuncId, CompileError> {
        self.program.func_id(name).ok_or_else(|| CompileError {
            message: format!("unresolved function `{name}`"),
        })
    }

    fn slot(&mut self, local: &'p str) -> Slot {
        self.locals.id(local)
    }

    fn object(&mut self, name: &'p str) -> ObjId {
        self.names.objects.id(name)
    }

    fn expr(&mut self, e: &'p Expr) -> SlotExpr {
        match e {
            Expr::Const(v) => SlotExpr::Const(v.clone()),
            Expr::Local(name) => SlotExpr::Local(self.slot(name)),
            Expr::SelfNode => SlotExpr::SelfNode,
            Expr::Unary(op, a) => SlotExpr::Unary(*op, Box::new(self.expr(a))),
            Expr::Binary(op, a, b) => {
                SlotExpr::Binary(*op, Box::new(self.expr(a)), Box::new(self.expr(b)))
            }
        }
    }

    fn exprs(&mut self, args: &'p [Expr]) -> Vec<SlotExpr> {
        args.iter().map(|a| self.expr(a)).collect()
    }

    fn block(&mut self, block: &'p [Stmt]) -> Result<(), CompileError> {
        block.iter().try_for_each(|s| self.stmt(s))
    }

    fn stmt(&mut self, s: &'p Stmt) -> Result<(), CompileError> {
        let op = match &s.kind {
            StmtKind::Assign { local, expr } => Op::Assign {
                local: self.slot(local),
                expr: self.expr(expr),
            },
            StmtKind::Read { local, object } => Op::Read {
                local: self.slot(local),
                object: self.object(object),
            },
            StmtKind::Write { object, value } => Op::Write {
                object: self.object(object),
                value: self.expr(value),
            },
            StmtKind::MapPut { map, key, value } => Op::MapPut {
                map: self.object(map),
                key: self.expr(key),
                value: self.expr(value),
            },
            StmtKind::MapGet { local, map, key } => Op::MapGet {
                local: self.slot(local),
                map: self.object(map),
                key: self.expr(key),
            },
            StmtKind::MapRemove { map, key } => Op::MapRemove {
                map: self.object(map),
                key: self.expr(key),
            },
            StmtKind::MapContains { local, map, key } => Op::MapContains {
                local: self.slot(local),
                map: self.object(map),
                key: self.expr(key),
            },
            StmtKind::ListAdd { list, value } => Op::ListAdd {
                list: self.object(list),
                value: self.expr(value),
            },
            StmtKind::ListRemove { list, value } => Op::ListRemove {
                list: self.object(list),
                value: self.expr(value),
            },
            StmtKind::ListIsEmpty { local, list } => Op::ListIsEmpty {
                local: self.slot(local),
                list: self.object(list),
            },
            StmtKind::ListContains { local, list, value } => Op::ListContains {
                local: self.slot(local),
                list: self.object(list),
                value: self.expr(value),
            },
            StmtKind::If {
                cond,
                then_body,
                else_body,
            } => {
                let cond = self.expr(cond);
                let branch_at = self.out.len();
                self.push(s.id, Op::Nop); // placeholder for Branch
                self.block(then_body)?;
                let mut target = self.out.len();
                if !else_body.is_empty() {
                    let jump_at = self.out.len();
                    self.push(s.id, Op::Nop); // placeholder for Jump over else
                    target = self.out.len();
                    self.block(else_body)?;
                    self.out[jump_at].op = Op::Jump {
                        target: self.out.len(),
                    };
                }
                self.out[branch_at].op = Op::Branch { cond, target };
                return Ok(());
            }
            StmtKind::While {
                loop_id,
                cond,
                body,
                retry,
                backoff,
            } => {
                let (loop_id, retry) = (*loop_id, *retry);
                let cond = self.expr(cond);
                self.push(s.id, Op::LoopEnter { loop_id, retry });
                let head_at = self.out.len();
                self.push(s.id, Op::Nop); // placeholder for LoopHead
                self.block(body)?;
                if let Some(ticks) = backoff {
                    // sleep between iterations, after the body and before the
                    // condition re-check
                    let ticks = SlotExpr::Const(Value::Int(i64::from(*ticks)));
                    self.push(s.id, Op::Sleep { ticks });
                }
                self.push(s.id, Op::Jump { target: head_at });
                self.out[head_at].op = Op::LoopHead {
                    loop_id,
                    retry,
                    cond,
                    exit: self.out.len(),
                };
                Op::LoopExit { loop_id, retry }
            }
            StmtKind::Call { local, func, args } => Op::Call {
                local: local.as_ref().map(|l| self.slot(l)),
                func: self.func(func)?,
                args: self.exprs(args),
            },
            StmtKind::Return { expr } => Op::Return {
                expr: expr.as_ref().map(|e| self.expr(e)),
            },
            StmtKind::Spawn { local, func, args } => Op::Spawn {
                local: local.as_ref().map(|l| self.slot(l)),
                func: self.func(func)?,
                args: self.exprs(args),
            },
            StmtKind::Join { handle } => Op::Join {
                handle: self.expr(handle),
            },
            StmtKind::Enqueue { queue, func, args } => Op::Enqueue {
                queue: self.names.queues.id(queue),
                func: self.func(func)?,
                args: self.exprs(args),
            },
            StmtKind::Lock { lock } => Op::Lock {
                lock: self.names.locks.id(lock),
            },
            StmtKind::Unlock { lock } => Op::Unlock {
                lock: self.names.locks.id(lock),
            },
            StmtKind::RpcCall {
                local,
                node,
                func,
                args,
            } => Op::RpcCall {
                local: local.as_ref().map(|l| self.slot(l)),
                node: self.expr(node),
                func: self.func(func)?,
                args: self.exprs(args),
            },
            StmtKind::SocketSend { node, func, args } => Op::SocketSend {
                node: self.expr(node),
                func: self.func(func)?,
                args: self.exprs(args),
            },
            StmtKind::ZkCreate {
                path,
                data,
                exclusive,
            } => Op::ZkCreate {
                path: self.expr(path),
                data: self.expr(data),
                exclusive: *exclusive,
            },
            StmtKind::ZkSetData { path, data } => Op::ZkSetData {
                path: self.expr(path),
                data: self.expr(data),
            },
            StmtKind::ZkDelete { path } => Op::ZkDelete {
                path: self.expr(path),
            },
            StmtKind::ZkGetData { local, path } => Op::ZkGetData {
                local: self.slot(local),
                path: self.expr(path),
            },
            StmtKind::ZkExists { local, path } => Op::ZkExists {
                local: self.slot(local),
                path: self.expr(path),
            },
            StmtKind::Abort { msg } => Op::Abort { msg: msg.clone() },
            StmtKind::LogFatal { msg } => Op::LogFatal { msg: msg.clone() },
            StmtKind::LogWarn { msg } => Op::LogWarn { msg: msg.clone() },
            StmtKind::Throw { kind } => Op::Throw { kind: kind.clone() },
            StmtKind::Sleep { ticks } => Op::Sleep {
                ticks: self.expr(ticks),
            },
            StmtKind::Yield => Op::Yield,
            StmtKind::Nop => Op::Nop,
        };
        self.push(s.id, op);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcatch_model::ProgramBuilder;

    #[test]
    fn if_else_targets_are_correct() {
        let mut pb = ProgramBuilder::new();
        pb.func("f", &[], FuncKind::Regular, |b| {
            b.if_else(
                Expr::local("c"),
                |b| {
                    b.assign("x", Expr::val(1));
                },
                |b| {
                    b.assign("x", Expr::val(2));
                },
            );
            b.assign("y", Expr::val(3));
        });
        let p = pb.build().unwrap();
        let cp = CompiledProgram::compile(&p).unwrap();
        let f = cp.func(p.func_id("f").unwrap());
        // 0: Branch(c, else_start) 1: x=1 2: Jump(end) 3: x=2 4: y=3 5: Return
        match &f.instrs[0].op {
            Op::Branch { target, .. } => assert_eq!(*target, 3),
            other => panic!("expected branch, got {other:?}"),
        }
        match &f.instrs[2].op {
            Op::Jump { target } => assert_eq!(*target, 4),
            other => panic!("expected jump, got {other:?}"),
        }
        assert!(matches!(f.instrs[5].op, Op::Return { .. }));
    }

    #[test]
    fn while_loop_structure() {
        let mut pb = ProgramBuilder::new();
        pb.func("f", &[], FuncKind::Regular, |b| {
            b.retry_while(Expr::local("go"), |b| {
                b.yield_();
            });
        });
        let p = pb.build().unwrap();
        let cp = CompiledProgram::compile(&p).unwrap();
        let f = cp.func(p.func_id("f").unwrap());
        // 0: LoopEnter 1: LoopHead(exit=4) 2: Yield 3: Jump(1) 4: LoopExit 5: Return
        assert!(matches!(f.instrs[0].op, Op::LoopEnter { retry: true, .. }));
        match &f.instrs[1].op {
            Op::LoopHead { exit, .. } => assert_eq!(*exit, 4),
            other => panic!("expected loop head, got {other:?}"),
        }
        assert!(matches!(f.instrs[3].op, Op::Jump { target: 1 }));
        assert!(matches!(f.instrs[4].op, Op::LoopExit { .. }));
    }

    #[test]
    fn empty_function_still_returns() {
        let mut pb = ProgramBuilder::new();
        pb.func("f", &[], FuncKind::Regular, |_| {});
        let p = pb.build().unwrap();
        let cp = CompiledProgram::compile(&p).unwrap();
        let f = cp.func(p.func_id("f").unwrap());
        assert_eq!(f.instrs.len(), 1);
        assert!(matches!(f.instrs[0].op, Op::Return { expr: None }));
    }
}
