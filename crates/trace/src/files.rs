//! Per-thread trace files.
//!
//! "DCatch produces a trace file for every thread of a target distributed
//! system at run time" (paper §3.1). [`write_per_task_files`] materializes
//! a [`TraceSet`] the same way — one file per task, named
//! `n<node>.t<index>.trace` — plus a `queues.meta` side file carrying the
//! queue-consumer metadata the `Eserial` rule needs. The lines carry the
//! run's names as text; [`read_per_task_files`] interns them into a fresh
//! table as it reassembles the `TraceSet`, merging by sequence number; the
//! round trip is lossless.

use std::fs;
use std::io::{self, Write};
use std::path::Path;

use dcatch_model::NodeId;

use crate::format::{parse_record, write_record};
use crate::names::Names;
use crate::set::{QueueInfo, TraceSet};

/// Writes one trace file per task plus queue metadata into `dir`
/// (created if absent). Returns the number of files written.
pub fn write_per_task_files(trace: &TraceSet, dir: &Path) -> io::Result<usize> {
    fs::create_dir_all(dir)?;
    let mut files = 0usize;
    for task in trace.tasks() {
        let path = dir.join(format!("{task}.trace"));
        let mut lines = String::new();
        for &i in &trace.task_records(task) {
            write_record(&mut lines, &trace.records()[i], trace.names());
            lines.push('\n');
        }
        fs::write(path, lines)?;
        files += 1;
    }
    let mut meta = fs::File::create(dir.join("queues.meta"))?;
    for ((node, name), info) in trace.queues() {
        writeln!(meta, "queue|{}|{}|{}", node.0, name, info.consumers)?;
    }
    let mut events = fs::File::create(dir.join("events.meta"))?;
    for (event, node, queue) in trace.event_queue_entries() {
        writeln!(events, "event|{event}|{}|{queue}", node.0)?;
    }
    Ok(files)
}

/// Reads a directory written by [`write_per_task_files`] back into a
/// [`TraceSet`].
pub fn read_per_task_files(dir: &Path) -> io::Result<TraceSet> {
    let mut records = Vec::new();
    let mut names = Names::new();
    let mut queues: Vec<(NodeId, String, QueueInfo)> = Vec::new();
    let mut events: Vec<(u64, NodeId, String)> = Vec::new();
    // in name order, so a directory interns its names in one order
    let mut entries = fs::read_dir(dir)?.collect::<io::Result<Vec<_>>>()?;
    entries.sort_by_key(fs::DirEntry::file_name);
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        let content = fs::read_to_string(&path)?;
        if name.ends_with(".trace") {
            for (lineno, line) in content.lines().enumerate() {
                let rec = parse_record(line, &mut names).map_err(|e| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("{name}:{}: {e}", lineno + 1),
                    )
                })?;
                records.push(rec);
            }
        } else if name == "queues.meta" {
            for line in content.lines() {
                let parts: Vec<&str> = line.split('|').collect();
                if let ["queue", node, qname, consumers] = parts.as_slice() {
                    queues.push((
                        NodeId(node.parse().map_err(bad)?),
                        (*qname).to_owned(),
                        QueueInfo {
                            consumers: consumers.parse().map_err(bad)?,
                        },
                    ));
                }
            }
        } else if name == "events.meta" {
            for line in content.lines() {
                let parts: Vec<&str> = line.split('|').collect();
                if let ["event", event, node, qname] = parts.as_slice() {
                    events.push((
                        event.parse().map_err(bad)?,
                        NodeId(node.parse().map_err(bad)?),
                        (*qname).to_owned(),
                    ));
                }
            }
        }
    }
    records.sort_by_key(|r| r.seq);
    let mut trace = TraceSet::with_names(names);
    trace.extend(records);
    for (node, name, info) in queues {
        trace.register_queue(node, name, info);
    }
    for (event, node, queue) in events {
        trace.register_event(event, node, queue);
    }
    Ok(trace)
}

fn bad<E: std::fmt::Display>(e: E) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ExecCtx, MemLoc, MemSpace, TaskId};
    use crate::record::{OpKind, Record};
    use dcatch_model::{FuncId, StmtId};

    fn sample_trace() -> TraceSet {
        let mut trace = TraceSet::new();
        for seq in 0..6u64 {
            let task = TaskId {
                node: NodeId((seq % 2) as u32),
                index: (seq % 3) as u32,
            };
            let object = trace.names_mut().intern(&format!("obj{seq}"));
            let stack = trace.names_mut().stack_of(&[StmtId {
                func: FuncId(0),
                idx: seq as u32,
            }]);
            trace.push(Record {
                seq,
                task,
                ctx: ExecCtx::Regular,
                kind: OpKind::MemWrite {
                    loc: MemLoc {
                        space: MemSpace::Heap,
                        node: task.node,
                        object,
                        key: None,
                    },
                    value: None,
                },
                stack,
            });
        }
        trace.register_queue(NodeId(0), "dispatch", QueueInfo { consumers: 1 });
        trace.register_event(42, NodeId(0), "dispatch");
        trace
    }

    #[test]
    fn per_task_files_roundtrip() {
        let dir = std::env::temp_dir().join(format!("dcatch-trace-test-{}", std::process::id()));
        let trace = sample_trace();
        let files = write_per_task_files(&trace, &dir).unwrap();
        assert!(files >= 4, "one file per task");
        let back = read_per_task_files(&dir).unwrap();
        assert_eq!(back.to_lines(), trace.to_lines());
        assert!(back
            .queue_info(NodeId(0), "dispatch")
            .unwrap()
            .is_single_consumer());
        let (n, q) = back.event_queue(42).unwrap();
        assert_eq!((*n, q), (NodeId(0), "dispatch"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_trace_file_is_reported_with_location() {
        let dir = std::env::temp_dir().join(format!("dcatch-trace-corrupt-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("n0.t0.trace"), "not a record\n").unwrap();
        let err = read_per_task_files(&dir).unwrap_err();
        assert!(err.to_string().contains("n0.t0.trace:1"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }
}
