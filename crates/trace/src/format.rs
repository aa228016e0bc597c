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
//! The format is self-inverse: [`parse_record`] ∘ [`format_record`] is the
//! identity (property-tested in `dcatch-hb`'s integration tests and below).

use std::fmt;

use dcatch_model::{FuncId, LoopId, NodeId, StmtId};

use crate::ids::{EventId, ExecCtx, HandlerKind, LockRef, MemLoc, MemSpace, MsgId, RpcId, TaskId};
use crate::record::{CallStack, OpKind, Record};

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
    /// The format uses spaces and pipes as separators; object names, keys
    /// and paths are sanitized on write — byte for byte, so the length is
    /// preserved.
    fn sanitized(&mut self, s: &str);
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
        for (i, clean) in s.split([' ', '|']).enumerate() {
            if i > 0 {
                self.push('_');
            }
            self.push_str(clean);
        }
    }
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

fn parse_loc(parts: &[&str]) -> Result<MemLoc, FormatError> {
    if parts.len() != 4 {
        return Err(err("memory location needs 4 fields"));
    }
    let space = match parts[0] {
        "heap" => MemSpace::Heap,
        "zk" => MemSpace::Zk,
        other => return Err(err(format!("unknown space `{other}`"))),
    };
    let node = NodeId(parts[1].parse().map_err(|_| err("bad node id"))?);
    let object = parts[2].to_owned();
    let key = if parts[3] == "-" {
        None
    } else {
        Some(parts[3].to_owned())
    };
    Ok(MemLoc {
        space,
        node,
        object,
        key,
    })
}

fn write_payload(out: &mut impl LineSink, kind: &OpKind) {
    match kind {
        OpKind::MemRead { loc, value } | OpKind::MemWrite { loc, value } => {
            out.str(match loc.space {
                MemSpace::Heap => "heap ",
                MemSpace::Zk => "zk ",
            });
            out.u64(loc.node.0.into());
            for field in [
                &loc.object,
                loc.key.as_deref().unwrap_or("-"),
                value.as_deref().unwrap_or("-"),
            ] {
                out.str(" ");
                out.sanitized(field);
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
            out.sanitized(path);
            out.str(" ");
            out.u64(*version);
        }
        OpKind::LockAcquire { lock } | OpKind::LockRelease { lock } => {
            out.u64(lock.node.0.into());
            out.str(" ");
            out.sanitized(&lock.name);
        }
        OpKind::LoopEnter { loop_id } | OpKind::LoopExit { loop_id } => {
            out.u64(loop_id.0.into());
        }
        OpKind::NodeCrash { node } | OpKind::NodeRestart { node } => out.u64(node.0.into()),
    }
}

fn parse_payload(tag: &str, parts: &[&str]) -> Result<OpKind, FormatError> {
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
            let loc = parse_loc(parts.get(0..4).ok_or_else(|| err("short mem payload"))?)?;
            let value = match parts.get(4) {
                Some(&"-") | None => None,
                Some(v) => Some((*v).to_owned()),
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
            let path = (*parts.first().ok_or_else(|| err("missing zk path"))?).to_owned();
            let version = num(1)?;
            if tag == "zu" {
                OpKind::ZkUpdate { path, version }
            } else {
                OpKind::ZkPushed { path, version }
            }
        }
        "la" | "lr" => {
            let lock = LockRef {
                node: NodeId(num(0)? as u32),
                name: (*parts.get(1).ok_or_else(|| err("missing lock name"))?).to_owned(),
            };
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
pub(crate) fn write_record(out: &mut impl LineSink, r: &Record) {
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
    write_payload(out, &r.kind);
    out.str("|");
    for (i, s) in r.stack.0.iter().enumerate() {
        if i > 0 {
            out.str(",");
        }
        out.u64(s.func.0.into());
        out.str(":");
        out.u64(s.idx.into());
    }
}

/// Serializes one record to its line form (without trailing newline).
pub fn format_record(r: &Record) -> String {
    let mut line = String::new();
    write_record(&mut line, r);
    line
}

/// Length in bytes of [`format_record`]'s line, computed without building it.
pub fn record_len(r: &Record) -> usize {
    let mut count = ByteCount(0);
    write_record(&mut count, r);
    count.0
}

/// Parses one line produced by [`format_record`].
pub fn parse_record(line: &str) -> Result<Record, FormatError> {
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
    let kind = parse_payload(fields[3], &payload)?;
    let stack = if fields[5].is_empty() {
        CallStack::default()
    } else {
        let mut ids = Vec::new();
        for part in fields[5].split(',') {
            let (f, i) = part.split_once(':').ok_or_else(|| err("bad stack frame"))?;
            ids.push(StmtId {
                func: FuncId(f.parse().map_err(|_| err("bad stack func"))?),
                idx: i.parse().map_err(|_| err("bad stack idx"))?,
            });
        }
        CallStack(ids)
    };
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

    fn roundtrip(r: &Record) {
        let line = format_record(r);
        assert_eq!(record_len(r), line.len(), "line was: {line}");
        let back = parse_record(&line).unwrap_or_else(|e| panic!("{e}: {line}"));
        assert_eq!(&back, r, "line was: {line}");
    }

    fn base(kind: OpKind) -> Record {
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
            stack: CallStack(vec![
                StmtId {
                    func: FuncId(2),
                    idx: 5,
                },
                StmtId {
                    func: FuncId(9),
                    idx: 0,
                },
            ]),
        }
    }

    #[test]
    fn roundtrips_every_kind() {
        let loc = MemLoc {
            space: MemSpace::Heap,
            node: NodeId(0),
            object: "jMap".into(),
            key: Some("job_1".into()),
        };
        let zloc = MemLoc {
            space: MemSpace::Zk,
            node: NodeId(2),
            object: "/region/r1".into(),
            key: None,
        };
        let child = TaskId {
            node: NodeId(0),
            index: 9,
        };
        let lock = LockRef {
            node: NodeId(1),
            name: "master".into(),
        };
        let kinds = vec![
            OpKind::MemRead {
                loc: loc.clone(),
                value: None,
            },
            OpKind::MemWrite {
                loc: zloc,
                value: Some("OPENED".into()),
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
            OpKind::ZkUpdate {
                path: "/p/q".into(),
                version: 2,
            },
            OpKind::ZkPushed {
                path: "/p/q".into(),
                version: 2,
            },
            OpKind::LockAcquire { lock: lock.clone() },
            OpKind::LockRelease { lock },
            OpKind::LoopEnter { loop_id: LoopId(1) },
            OpKind::LoopExit { loop_id: LoopId(1) },
            OpKind::NodeCrash { node: NodeId(2) },
            OpKind::NodeRestart { node: NodeId(2) },
            OpKind::RpcTimeout { rpc: RpcId(8) },
        ];
        for k in kinds {
            roundtrip(&base(k));
        }
    }

    #[test]
    fn regular_ctx_and_empty_stack() {
        let mut r = base(OpKind::ThreadBegin);
        r.ctx = ExecCtx::Regular;
        r.stack = CallStack::default();
        roundtrip(&r);
    }

    #[test]
    fn separators_in_names_are_sanitized_byte_for_byte() {
        let r = base(OpKind::MemWrite {
            loc: MemLoc {
                space: MemSpace::Heap,
                node: NodeId(0),
                object: "a b|c".into(),
                key: Some(" k|".into()),
            },
            value: Some("é |".into()),
        });
        let line = format_record(&r);
        assert!(line.contains("heap 0 a_b_c _k_ é__|"), "{line}");
        assert_eq!(record_len(&r), line.len());
        assert_eq!(parse_record(&line).unwrap().stack, r.stack);
    }

    #[test]
    fn numbers_at_every_digit_boundary() {
        let mut seqs = vec![0, u64::MAX];
        for digits in 1..20 {
            seqs.extend([10u64.pow(digits) - 1, 10u64.pow(digits)]);
        }
        for seq in seqs {
            let mut r = base(OpKind::EventCreate {
                event: EventId(seq),
            });
            r.seq = seq;
            assert!(format_record(&r).starts_with(&format!("{seq}|1 3|")));
            roundtrip(&r);
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_record("not a record").is_err());
        assert!(parse_record("1|0 0|reg|??||").is_err());
        assert!(parse_record("x|0 0|reg|tb||").is_err());
    }
}
