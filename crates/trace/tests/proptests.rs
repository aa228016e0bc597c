//! Property tests for the trace record format: `parse ∘ format = id` for
//! randomly generated records, and one line per record whatever the names
//! hold.
//!
//! The generators are driven by the in-repo deterministic PRNG
//! (`dcatch_obs::SmallRng`) — the build environment is offline, so there
//! is no external property-testing framework. Every test runs a fixed
//! number of seeded iterations; a failure message includes the iteration
//! seed so the case can be replayed exactly.

use dcatch_model::{FuncId, LoopId, NodeId, StmtId};
use dcatch_obs::SmallRng;
use dcatch_trace::{
    format_record, parse_record, record_len, EventId, ExecCtx, HandlerKind, Key, LockRef, MemLoc,
    MemSpace, MsgId, Names, OpKind, Record, RpcId, StackId, TaskId, TraceSet,
};

const ITERS: u64 = 512;

/// A name from the clean alphabet the simulator itself uses (names are
/// sanitized on write — separators and line ends replaced), or with `dirty`
/// from one that also holds them.
fn arb_text(rng: &mut SmallRng, dirty: bool) -> String {
    const FIRST: &[u8] = b"abcXYZ_/";
    const REST: &[u8] = b"abcXYZ09_./-";
    const DIRTY: &[u8] = b"abcXYZ09_./- |\n\r";
    let rest = if dirty { DIRTY } else { REST };
    let len = rng.gen_range(13);
    let mut s = String::new();
    s.push(FIRST[rng.gen_range(FIRST.len())] as char);
    for _ in 0..len {
        s.push(rest[rng.gen_range(rest.len())] as char);
    }
    s
}

/// Interns generated names into the table the record will be written with.
struct Gen<'a> {
    rng: &'a mut SmallRng,
    names: &'a mut Names,
    dirty: bool,
}

impl Gen<'_> {
    fn name(&mut self) -> dcatch_trace::NameId {
        let text = arb_text(self.rng, self.dirty);
        self.names.intern(&text)
    }

    fn opt_name(&mut self) -> Option<dcatch_trace::NameId> {
        self.rng.gen_bool().then(|| self.name())
    }

    fn key(&mut self) -> Option<Key> {
        match self.rng.gen_range(3) {
            0 => None,
            1 => Some(Key::Int(
                self.rng.next_u64() as i64 >> self.rng.gen_range(64),
            )),
            _ => {
                let text = arb_text(self.rng, self.dirty);
                Some(self.names.key(&text))
            }
        }
    }

    fn loc(&mut self) -> MemLoc {
        MemLoc {
            space: if self.rng.gen_bool() {
                MemSpace::Heap
            } else {
                MemSpace::Zk
            },
            node: NodeId(self.rng.gen_range(4) as u32),
            object: self.name(),
            key: self.key(),
        }
    }

    fn lock(&mut self) -> LockRef {
        LockRef {
            node: NodeId(self.rng.gen_range(4) as u32),
            name: self.name(),
        }
    }

    /// `min..=max` frames.
    fn stack(&mut self, min: usize, max: usize) -> StackId {
        let len = min + self.rng.gen_range(max - min + 1);
        let stmts: Vec<StmtId> = (0..len)
            .map(|_| StmtId {
                func: FuncId(self.rng.gen_range(16) as u32),
                idx: self.rng.gen_range(64) as u32,
            })
            .collect();
        self.names.stack_of(&stmts)
    }

    fn kind(&mut self) -> OpKind {
        arb_kind(self)
    }

    fn record(&mut self, min_frames: usize, max_frames: usize) -> Record {
        Record {
            seq: self.rng.next_u64(),
            task: arb_task(self.rng),
            ctx: arb_ctx(self.rng),
            kind: self.kind(),
            stack: self.stack(min_frames, max_frames),
        }
    }
}

fn arb_task(rng: &mut SmallRng) -> TaskId {
    TaskId {
        node: NodeId(rng.gen_range(4) as u32),
        index: rng.gen_range(32) as u32,
    }
}

fn arb_ctx(rng: &mut SmallRng) -> ExecCtx {
    if rng.gen_bool() {
        ExecCtx::Regular
    } else {
        let kind = match rng.gen_range(4) {
            0 => HandlerKind::Event,
            1 => HandlerKind::Rpc,
            2 => HandlerKind::Socket,
            _ => HandlerKind::ZkWatcher,
        };
        ExecCtx::Handler {
            kind,
            instance: rng.next_u64(),
        }
    }
}

fn arb_kind(g: &mut Gen<'_>) -> OpKind {
    match g.rng.gen_range(21) {
        0 => OpKind::MemRead {
            loc: g.loc(),
            value: g.opt_name(),
        },
        1 => OpKind::MemWrite {
            loc: g.loc(),
            value: g.opt_name(),
        },
        2 => OpKind::ThreadCreate {
            child: arb_task(g.rng),
        },
        3 => OpKind::ThreadBegin,
        4 => OpKind::ThreadEnd,
        5 => OpKind::ThreadJoin {
            child: arb_task(g.rng),
        },
        6 => OpKind::EventCreate {
            event: EventId(g.rng.next_u64()),
        },
        7 => OpKind::EventBegin {
            event: EventId(g.rng.next_u64()),
        },
        8 => OpKind::EventEnd {
            event: EventId(g.rng.next_u64()),
        },
        9 => OpKind::RpcCreate {
            rpc: RpcId(g.rng.next_u64()),
        },
        10 => OpKind::RpcBegin {
            rpc: RpcId(g.rng.next_u64()),
        },
        11 => OpKind::RpcEnd {
            rpc: RpcId(g.rng.next_u64()),
        },
        12 => OpKind::RpcJoin {
            rpc: RpcId(g.rng.next_u64()),
        },
        13 => OpKind::SocketSend {
            msg: MsgId(g.rng.next_u64()),
        },
        14 => OpKind::SocketRecv {
            msg: MsgId(g.rng.next_u64()),
        },
        15 => OpKind::ZkUpdate {
            path: g.name(),
            version: g.rng.next_u64(),
        },
        16 => OpKind::ZkPushed {
            path: g.name(),
            version: g.rng.next_u64(),
        },
        17 => OpKind::LockAcquire { lock: g.lock() },
        18 => OpKind::LockRelease { lock: g.lock() },
        19 => OpKind::LoopEnter {
            loop_id: LoopId(g.rng.gen_range(64) as u32),
        },
        _ => OpKind::LoopExit {
            loop_id: LoopId(g.rng.gen_range(64) as u32),
        },
    }
}

fn gen<'a>(rng: &'a mut SmallRng, names: &'a mut Names, dirty: bool) -> Gen<'a> {
    Gen { rng, names, dirty }
}

#[test]
fn format_roundtrips() {
    for seed in 0..ITERS {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut names = Names::new();
        let rec = gen(&mut rng, &mut names, false).record(0, 4);
        let line = format_record(&rec, &names);
        assert_eq!(record_len(&rec, &names), line.len(), "seed {seed}");
        let back = parse_record(&line, &mut names).expect("parses back");
        assert_eq!(back, rec, "seed {seed}, line: {line}");
    }
}

#[test]
fn parse_never_panics_on_arbitrary_input() {
    // printable-ish garbage, plus mutations of a valid line
    for seed in 0..ITERS {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut names = Names::new();
        let len = rng.gen_range(61);
        let garbage: String = (0..len)
            .map(|_| char::from_u32(0x20 + rng.gen_range(0x5e) as u32).expect("printable"))
            .collect();
        let _ = parse_record(&garbage, &mut names);

        let mut rec_rng = SmallRng::seed_from_u64(seed);
        let rec = gen(&mut rec_rng, &mut names, false).record(0, 4);
        let mut line = format_record(&rec, &names);
        if !line.is_empty() {
            line.truncate(rng.gen_range(line.len()));
        }
        let _ = parse_record(&line, &mut names);
    }
}

/// Whatever a name holds — spaces, pipes, line ends — a record is one line
/// of the length `record_len` says, and `byte_size` is the length of the
/// trace's text (the governor counts a trace by it).
#[test]
fn any_name_keeps_one_record_per_line() {
    for seed in 0..ITERS / 8 {
        let mut rng = SmallRng::seed_from_u64(0x11E5 ^ seed);
        let mut trace = TraceSet::new();
        let count = 1 + rng.gen_range(24);
        let mut records: Vec<Record> = (0..count)
            .map(|_| gen(&mut rng, trace.names_mut(), true).record(1, 6))
            .collect();
        records.sort_by_key(|r| r.seq);
        trace.extend(records);
        for r in trace.records() {
            let line = format_record(r, trace.names());
            assert_eq!(
                record_len(r, trace.names()),
                line.len(),
                "seed {seed}: {line:?}"
            );
            assert!(!line.contains(['\n', '\r']), "seed {seed}: {line:?}");
        }
        let lines = trace.to_lines();
        assert_eq!(lines.lines().count(), trace.len(), "seed {seed}");
        assert_eq!(trace.byte_size(), lines.len(), "seed {seed}");
    }
}

#[test]
fn conflict_relation_is_symmetric() {
    for seed in 0..ITERS {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut names = Names::new();
        let mut g = gen(&mut rng, &mut names, false);
        let a = g.loc();
        let b = g.loc();
        assert_eq!(
            a.conflicts_with(&b),
            b.conflicts_with(&a),
            "seed {seed}: {a:?} vs {b:?}"
        );
    }
}

#[test]
fn conflict_relation_is_reflexive() {
    for seed in 0..ITERS {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut names = Names::new();
        let a = gen(&mut rng, &mut names, false).loc();
        assert!(a.conflicts_with(&a), "seed {seed}: {a:?}");
    }
}
