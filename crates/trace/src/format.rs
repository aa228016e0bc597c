//! Line-based on-disk format for trace records.
//!
//! The original DCatch writes one trace file per thread; Tables 6 and 8
//! report trace *sizes*, so the reproduction needs a concrete byte format.
//! One record per line, pipe-separated:
//!
//! ```text
//! seq|task|ctx|tag|payload…|stack
//! ```
//!
//! Names and callstacks are rendered from the run's [`Names`] here, and
//! interned back into a table on parse. The format is self-inverse:
//! [`parse_record`] ∘ [`format_record`] is the identity (property-tested
//! in this crate's integration tests and below).

use std::fmt;

use dcatch_model::{FuncId, LoopId, NodeId, StmtId};

use crate::ids::{
    EventId, ExecCtx, HandlerKind, Key, LockRef, MemLoc, MemSpace, MsgId, RpcId, TaskId,
};
use crate::names::{Names, StackId};
use crate::record::{OpKind, Record};

/// Error from [`parse_record`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FormatError {
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed trace line: {}", self.message)
    }
}

impl std::error::Error for FormatError {}

fn err(msg: impl Into<String>) -> FormatError {
    FormatError {
        message: msg.into(),
    }
}

/// What [`write_record`] writes a line into: the line itself (`String`) or
/// only its length ([`record_len`]). Neither goes through `core::fmt`.
pub(crate) trait LineSink {
    fn str(&mut self, s: &str);
    fn u64(&mut self, v: u64);
    /// The format uses spaces and pipes as separators and newlines as
    /// terminators; object names, keys, values and paths are sanitized on
    /// write — byte for byte, so the length is preserved.
    fn sanitized(&mut self, s: &str);
    /// A callstack, `f:i` entries outermost first, comma-separated.
    fn stack(&mut self, names: &Names, stack: StackId);
}

impl LineSink for String {
    fn str(&mut self, s: &str) {
        self.push_str(s);
    }

    fn u64(&mut self, mut v: u64) {
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        self.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
    }

    fn sanitized(&mut self, s: &str) {
        for (i, clean) in s.split([' ', '|', '\n', '\r']).enumerate() {
            if i > 0 {
                self.push('_');
            }
            self.push_str(clean);
        }
    }

    fn stack(&mut self, names: &Names, stack: StackId) {
        // the call tree is walked innermost first, so each entry is written
        // into its place counted back from the end of the path's known
        // length — no recursion, however deep a parsed stack is
        let len = names.stack_len(stack);
        let mut end = self.len() + len;
        self.extend(std::iter::repeat_n(',', len));
        let mut at = stack;
        let mut buf = [0u8; 21];
        while let Some(stmt) = names.leaf(at) {
            let entry = stack_entry(&mut buf, stmt);
            self.replace_range(end - entry.len()..end, entry);
            // the `,` before it is already in place
            end -= entry.len() + 1;
            at = names.parent(at);
        }
    }
}

/// One stack entry, `func:idx`, rendered into `buf`.
fn stack_entry(buf: &mut [u8; 21], stmt: StmtId) -> &str {
    let mut at = buf.len();
    for (i, mut v) in [stmt.idx, stmt.func.0].into_iter().enumerate() {
        if i > 0 {
            at -= 1;
            buf[at] = b':';
        }
        loop {
            at -= 1;
            buf[at] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
    }
    std::str::from_utf8(&buf[at..]).expect("ASCII digits")
}

struct ByteCount(usize);

impl LineSink for ByteCount {
    fn str(&mut self, s: &str) {
        self.0 += s.len();
    }

    fn u64(&mut self, v: u64) {
        self.0 += 1 + v.checked_ilog10().unwrap_or(0) as usize;
    }

    fn sanitized(&mut self, s: &str) {
        self.0 += s.len();
    }

    fn stack(&mut self, names: &Names, stack: StackId) {
        self.0 += names.stack_len(stack);
    }
}

fn write_key(out: &mut impl LineSink, names: &Names, key: Key) {
    match key {
        Key::Int(i) => {
            if i < 0 {
                out.str("-");
            }
            out.u64(i.unsigned_abs());
        }
        Key::Str(id) => out.sanitized(names.name(id)),
    }
}

fn write_ctx(out: &mut impl LineSink, ctx: &ExecCtx) {
    match ctx {
        ExecCtx::Regular => out.str("reg"),
        ExecCtx::Handler { kind, instance } => {
            out.str(match kind {
                HandlerKind::Event => "h:ev:",
                HandlerKind::Rpc => "h:rpc:",
                HandlerKind::Socket => "h:soc:",
                HandlerKind::ZkWatcher => "h:zkw:",
            });
            out.u64(*instance);
        }
    }
}

fn parse_ctx(s: &str) -> Result<ExecCtx, FormatError> {
    if s == "reg" {
        return Ok(ExecCtx::Regular);
    }
    let mut parts = s.split(':');
    let (h, k, i) = (parts.next(), parts.next(), parts.next());
    match (h, k, i) {
        (Some("h"), Some(k), Some(i)) => {
            let kind = match k {
                "ev" => HandlerKind::Event,
                "rpc" => HandlerKind::Rpc,
                "soc" => HandlerKind::Socket,
                "zkw" => HandlerKind::ZkWatcher,
                _ => return Err(err(format!("unknown handler kind `{k}`"))),
            };
            let instance = i.parse().map_err(|_| err("bad handler instance"))?;
            Ok(ExecCtx::Handler { kind, instance })
        }
        _ => Err(err(format!("unknown ctx `{s}`"))),
    }
}

fn parse_loc(parts: &[&str], names: &mut Names) -> Result<MemLoc, FormatError> {
    if parts.len() != 4 {
        return Err(err("memory location needs 4 fields"));
    }
    let space = match parts[0] {
        "heap" => MemSpace::Heap,
        "zk" => MemSpace::Zk,
        other => return Err(err(format!("unknown space `{other}`"))),
    };
    let node = NodeId(parts[1].parse().map_err(|_| err("bad node id"))?);
    let object = names.intern(parts[2]);
    let key = if parts[3] == "-" {
        None
    } else {
        Some(names.key(parts[3]))
    };
    Ok(MemLoc {
        space,
        node,
        object,
        key,
    })
}

fn write_payload(out: &mut impl LineSink, names: &Names, kind: &OpKind) {
    match kind {
        OpKind::MemRead { loc, value } | OpKind::MemWrite { loc, value } => {
            out.str(match loc.space {
                MemSpace::Heap => "heap ",
                MemSpace::Zk => "zk ",
            });
            out.u64(loc.node.0.into());
            out.str(" ");
            out.sanitized(names.name(loc.object));
            out.str(" ");
            match loc.key {
                Some(key) => write_key(out, names, key),
                None => out.str("-"),
            }
            out.str(" ");
            match value {
                Some(v) => out.sanitized(names.name(*v)),
                None => out.str("-"),
            }
        }
        OpKind::ThreadCreate { child } | OpKind::ThreadJoin { child } => {
            out.u64(child.node.0.into());
            out.str(" ");
            out.u64(child.index.into());
        }
        OpKind::ThreadBegin | OpKind::ThreadEnd => {}
        OpKind::EventCreate { event }
        | OpKind::EventBegin { event }
        | OpKind::EventEnd { event } => out.u64(event.0),
        OpKind::RpcCreate { rpc }
        | OpKind::RpcBegin { rpc }
        | OpKind::RpcEnd { rpc }
        | OpKind::RpcJoin { rpc }
        | OpKind::RpcTimeout { rpc } => out.u64(rpc.0),
        OpKind::SocketSend { msg } | OpKind::SocketRecv { msg } => out.u64(msg.0),
        OpKind::ZkUpdate { path, version } | OpKind::ZkPushed { path, version } => {
            out.sanitized(names.name(*path));
            out.str(" ");
            out.u64(*version);
        }
        OpKind::LockAcquire { lock } | OpKind::LockRelease { lock } => {
            out.u64(lock.node.0.into());
            out.str(" ");
            out.sanitized(names.name(lock.name));
        }
        OpKind::LoopEnter { loop_id } | OpKind::LoopExit { loop_id } => {
            out.u64(loop_id.0.into());
        }
        OpKind::NodeCrash { node } | OpKind::NodeRestart { node } => out.u64(node.0.into()),
    }
}

fn parse_payload(tag: &str, parts: &[&str], names: &mut Names) -> Result<OpKind, FormatError> {
    let num = |i: usize| -> Result<u64, FormatError> {
        parts
            .get(i)
            .ok_or_else(|| err("missing payload field"))?
            .parse()
            .map_err(|_| err("bad numeric payload"))
    };
    let task = || -> Result<TaskId, FormatError> {
        Ok(TaskId {
            node: NodeId(num(0)? as u32),
            index: num(1)? as u32,
        })
    };
    Ok(match tag {
        "rd" | "wr" => {
            let loc = parse_loc(
                parts.get(0..4).ok_or_else(|| err("short mem payload"))?,
                names,
            )?;
            let value = match parts.get(4) {
                Some(&"-") | None => None,
                Some(v) => Some(names.intern(v)),
            };
            if tag == "rd" {
                OpKind::MemRead { loc, value }
            } else {
                OpKind::MemWrite { loc, value }
            }
        }
        "tc" => OpKind::ThreadCreate { child: task()? },
        "tj" => OpKind::ThreadJoin { child: task()? },
        "tb" => OpKind::ThreadBegin,
        "te" => OpKind::ThreadEnd,
        "ec" => OpKind::EventCreate {
            event: EventId(num(0)?),
        },
        "eb" => OpKind::EventBegin {
            event: EventId(num(0)?),
        },
        "ee" => OpKind::EventEnd {
            event: EventId(num(0)?),
        },
        "rc" => OpKind::RpcCreate {
            rpc: RpcId(num(0)?),
        },
        "rb" => OpKind::RpcBegin {
            rpc: RpcId(num(0)?),
        },
        "re" => OpKind::RpcEnd {
            rpc: RpcId(num(0)?),
        },
        "rj" => OpKind::RpcJoin {
            rpc: RpcId(num(0)?),
        },
        "ss" => OpKind::SocketSend {
            msg: MsgId(num(0)?),
        },
        "sr" => OpKind::SocketRecv {
            msg: MsgId(num(0)?),
        },
        "zu" | "zp" => {
            let version = num(1)?;
            let path = names.intern(parts.first().ok_or_else(|| err("missing zk path"))?);
            if tag == "zu" {
                OpKind::ZkUpdate { path, version }
            } else {
                OpKind::ZkPushed { path, version }
            }
        }
        "la" | "lr" => {
            let node = NodeId(num(0)? as u32);
            let name = names.intern(parts.get(1).ok_or_else(|| err("missing lock name"))?);
            let lock = LockRef { node, name };
            if tag == "la" {
                OpKind::LockAcquire { lock }
            } else {
                OpKind::LockRelease { lock }
            }
        }
        "ln" => OpKind::LoopEnter {
            loop_id: LoopId(num(0)? as u32),
        },
        "lx" => OpKind::LoopExit {
            loop_id: LoopId(num(0)? as u32),
        },
        "nc" => OpKind::NodeCrash {
            node: NodeId(num(0)? as u32),
        },
        "nr" => OpKind::NodeRestart {
            node: NodeId(num(0)? as u32),
        },
        "rt" => OpKind::RpcTimeout {
            rpc: RpcId(num(0)?),
        },
        other => return Err(err(format!("unknown tag `{other}`"))),
    })
}

/// Writes one record's line form (without trailing newline) to `out`,
/// allocating nothing: the one serializer behind [`format_record`],
/// [`record_len`] and the trace files.
pub(crate) fn write_record(out: &mut impl LineSink, r: &Record, names: &Names) {
    out.u64(r.seq);
    out.str("|");
    out.u64(r.task.node.0.into());
    out.str(" ");
    out.u64(r.task.index.into());
    out.str("|");
    write_ctx(out, &r.ctx);
    out.str("|");
    out.str(r.kind.tag());
    out.str("|");
    write_payload(out, names, &r.kind);
    out.str("|");
    out.stack(names, r.stack);
}

/// Serializes one record to its line form (without trailing newline),
/// rendering its ids from `names`, the table of its run.
pub fn format_record(r: &Record, names: &Names) -> String {
    let mut line = String::new();
    write_record(&mut line, r, names);
    line
}

/// Length in bytes of [`format_record`]'s line, computed without building it.
pub fn record_len(r: &Record, names: &Names) -> usize {
    let mut count = ByteCount(0);
    write_record(&mut count, r, names);
    count.0
}

/// Parses one line produced by [`format_record`], interning its names and
/// callstack into `names`.
pub fn parse_record(line: &str, names: &mut Names) -> Result<Record, FormatError> {
    let fields: Vec<&str> = line.split('|').collect();
    if fields.len() != 6 {
        return Err(err(format!("expected 6 fields, got {}", fields.len())));
    }
    let seq: u64 = fields[0].parse().map_err(|_| err("bad seq"))?;
    let mut task_parts = fields[1].split(' ');
    let node: u32 = task_parts
        .next()
        .ok_or_else(|| err("missing task node"))?
        .parse()
        .map_err(|_| err("bad task node"))?;
    let index: u32 = task_parts
        .next()
        .ok_or_else(|| err("missing task index"))?
        .parse()
        .map_err(|_| err("bad task index"))?;
    let ctx = parse_ctx(fields[2])?;
    let payload: Vec<&str> = if fields[4].is_empty() {
        Vec::new()
    } else {
        fields[4].split(' ').collect()
    };
    let kind = parse_payload(fields[3], &payload, names)?;
    let mut stack = StackId::EMPTY;
    if !fields[5].is_empty() {
        for part in fields[5].split(',') {
            let (f, i) = part.split_once(':').ok_or_else(|| err("bad stack frame"))?;
            let stmt = StmtId {
                func: FuncId(f.parse().map_err(|_| err("bad stack func"))?),
                idx: i.parse().map_err(|_| err("bad stack idx"))?,
            };
            stack = names.frame(stack, stmt);
        }
    }
    Ok(Record {
        seq,
        task: TaskId {
            node: NodeId(node),
            index,
        },
        ctx,
        kind,
        stack,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(r: &Record, names: &mut Names) {
        let line = format_record(r, names);
        assert_eq!(record_len(r, names), line.len(), "line was: {line}");
        let back = parse_record(&line, names).unwrap_or_else(|e| panic!("{e}: {line}"));
        assert_eq!(&back, r, "line was: {line}");
    }

    fn base(kind: OpKind, names: &mut Names) -> Record {
        let stack = names.stack_of(&[
            StmtId {
                func: FuncId(2),
                idx: 5,
            },
            StmtId {
                func: FuncId(9),
                idx: 0,
            },
        ]);
        Record {
            seq: 42,
            task: TaskId {
                node: NodeId(1),
                index: 3,
            },
            ctx: ExecCtx::Handler {
                kind: HandlerKind::Rpc,
                instance: 17,
            },
            kind,
            stack,
        }
    }

    #[test]
    fn roundtrips_every_kind() {
        let mut names = Names::new();
        let loc = MemLoc {
            space: MemSpace::Heap,
            node: NodeId(0),
            object: names.intern("jMap"),
            key: Some(names.key("job_1")),
        };
        let zloc = MemLoc {
            space: MemSpace::Zk,
            node: NodeId(2),
            object: names.intern("/region/r1"),
            key: None,
        };
        let ikey = MemLoc {
            key: Some(Key::Int(-12)),
            ..loc
        };
        let child = TaskId {
            node: NodeId(0),
            index: 9,
        };
        let lock = LockRef {
            node: NodeId(1),
            name: names.intern("master"),
        };
        let path = names.intern("/p/q");
        let kinds = vec![
            OpKind::MemRead { loc, value: None },
            OpKind::MemWrite {
                loc: zloc,
                value: Some(names.intern("OPENED")),
            },
            OpKind::MemWrite {
                loc: ikey,
                value: None,
            },
            OpKind::ThreadCreate { child },
            OpKind::ThreadBegin,
            OpKind::ThreadEnd,
            OpKind::ThreadJoin { child },
            OpKind::EventCreate { event: EventId(5) },
            OpKind::EventBegin { event: EventId(5) },
            OpKind::EventEnd { event: EventId(5) },
            OpKind::RpcCreate { rpc: RpcId(8) },
            OpKind::RpcBegin { rpc: RpcId(8) },
            OpKind::RpcEnd { rpc: RpcId(8) },
            OpKind::RpcJoin { rpc: RpcId(8) },
            OpKind::SocketSend { msg: MsgId(3) },
            OpKind::SocketRecv { msg: MsgId(3) },
            OpKind::ZkUpdate { path, version: 2 },
            OpKind::ZkPushed { path, version: 2 },
            OpKind::LockAcquire { lock },
            OpKind::LockRelease { lock },
            OpKind::LoopEnter { loop_id: LoopId(1) },
            OpKind::LoopExit { loop_id: LoopId(1) },
            OpKind::NodeCrash { node: NodeId(2) },
            OpKind::NodeRestart { node: NodeId(2) },
            OpKind::RpcTimeout { rpc: RpcId(8) },
        ];
        for k in kinds {
            let r = base(k, &mut names);
            roundtrip(&r, &mut names);
        }
    }

    #[test]
    fn regular_ctx_and_empty_stack() {
        let mut names = Names::new();
        let mut r = base(OpKind::ThreadBegin, &mut names);
        r.ctx = ExecCtx::Regular;
        r.stack = StackId::EMPTY;
        roundtrip(&r, &mut names);
    }

    #[test]
    fn separators_in_names_are_sanitized_byte_for_byte() {
        let mut names = Names::new();
        let loc = MemLoc {
            space: MemSpace::Heap,
            node: NodeId(0),
            object: names.intern("a b|c"),
            key: Some(names.key(" k|")),
        };
        let value = Some(names.intern("é |\n"));
        let r = base(OpKind::MemWrite { loc, value }, &mut names);
        let line = format_record(&r, &names);
        assert!(line.contains("heap 0 a_b_c _k_ é___|"), "{line}");
        assert_eq!(record_len(&r, &names), line.len());
        assert_eq!(parse_record(&line, &mut names).unwrap().stack, r.stack);
    }

    #[test]
    fn numbers_at_every_digit_boundary() {
        let mut names = Names::new();
        let mut seqs = vec![0, u64::MAX];
        for digits in 1..20 {
            seqs.extend([10u64.pow(digits) - 1, 10u64.pow(digits)]);
        }
        for seq in seqs {
            let mut r = base(
                OpKind::EventCreate {
                    event: EventId(seq),
                },
                &mut names,
            );
            r.seq = seq;
            assert!(format_record(&r, &names).starts_with(&format!("{seq}|1 3|")));
            roundtrip(&r, &mut names);
        }
        for key in [i64::MIN, -1, 0, 9, i64::MAX] {
            let loc = MemLoc {
                space: MemSpace::Heap,
                node: NodeId(0),
                object: names.intern("m"),
                key: Some(Key::Int(key)),
            };
            let r = base(OpKind::MemRead { loc, value: None }, &mut names);
            assert!(format_record(&r, &names).contains(&format!(" m {key} -|")));
            roundtrip(&r, &mut names);
        }
    }

    #[test]
    fn a_deep_stack_is_written_without_recursion() {
        let mut names = Names::new();
        let stmts: Vec<StmtId> = (0..200_000)
            .map(|i| StmtId {
                func: FuncId(i % 7),
                idx: i,
            })
            .collect();
        let mut r = base(OpKind::ThreadBegin, &mut names);
        r.stack = names.stack_of(&stmts);
        let line = format_record(&r, &names);
        let stack = line.rsplit('|').next().expect("six fields");
        assert!(stack.starts_with("0:0,1:1,2:2,"), "{}", &stack[..20]);
        assert!(stack.ends_with(",1:199998,2:199999"));
        roundtrip(&r, &mut names);
    }

    #[test]
    fn rejects_garbage() {
        let mut names = Names::new();
        assert!(parse_record("not a record", &mut names).is_err());
        assert!(parse_record("1|0 0|reg|??||", &mut names).is_err());
        assert!(parse_record("x|0 0|reg|tb||", &mut names).is_err());
    }
}
