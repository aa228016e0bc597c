//! A complete trace of one execution, plus the queue metadata the
//! `Eserial` rule needs.

use std::collections::BTreeMap;

use dcatch_model::NodeId;

use crate::format::{record_len, write_record};
use crate::ids::TaskId;
use crate::names::Names;
use crate::record::Record;
use crate::stats::TraceStats;

/// Metadata about one event queue, captured at run time. `Eserial` only
/// applies to single-consumer FIFO queues (paper §2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueInfo {
    /// Number of handler threads consuming the queue.
    pub consumers: u32,
}

impl QueueInfo {
    /// Whether handler executions from this queue are serialized.
    pub fn is_single_consumer(self) -> bool {
        self.consumers == 1
    }
}

/// All records of one run, in execution (sequence) order, together with the
/// run's name table and the side tables the analyses need.
#[derive(Debug, Clone, Default)]
pub struct TraceSet {
    records: Vec<Record>,
    /// What the records' ids name.
    names: Names,
    /// Queue metadata: (node, queue name) → info.
    queues: BTreeMap<(NodeId, String), QueueInfo>,
    /// Which queue each event was enqueued on: event id → (node, queue).
    event_queue: BTreeMap<u64, (NodeId, String)>,
}

impl TraceSet {
    /// Creates an empty trace with an empty name table.
    pub fn new() -> TraceSet {
        TraceSet::default()
    }

    /// Creates an empty trace whose records will name ids of `names`.
    pub fn with_names(names: Names) -> TraceSet {
        TraceSet {
            names,
            ..TraceSet::default()
        }
    }

    /// The table the records' ids refer to.
    pub fn names(&self) -> &Names {
        &self.names
    }

    /// The table, for interning what records about to be pushed name.
    pub fn names_mut(&mut self) -> &mut Names {
        &mut self.names
    }

    /// Appends a record. Records must arrive in nondecreasing `seq` order.
    pub fn push(&mut self, record: Record) {
        debug_assert!(
            self.records.last().is_none_or(|r| r.seq <= record.seq),
            "records must be appended in sequence order"
        );
        self.records.push(record);
    }

    /// Registers an event queue's consumer count.
    pub fn register_queue(&mut self, node: NodeId, name: impl Into<String>, info: QueueInfo) {
        self.queues.insert((node, name.into()), info);
    }

    /// Associates an event with the queue it was enqueued on.
    pub fn register_event(&mut self, event: u64, node: NodeId, queue: impl Into<String>) {
        self.event_queue.insert(event, (node, queue.into()));
    }

    /// All records in sequence order.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Queue metadata for `(node, name)`.
    pub fn queue_info(&self, node: NodeId, name: &str) -> Option<QueueInfo> {
        self.queues.get(&(node, name.to_owned())).copied()
    }

    /// The queue an event was placed on.
    pub fn event_queue(&self, event: u64) -> Option<(&NodeId, &str)> {
        self.event_queue.get(&event).map(|(n, q)| (n, q.as_str()))
    }

    /// Iterates over all registered queues.
    pub fn queues(&self) -> impl Iterator<Item = (&(NodeId, String), &QueueInfo)> {
        self.queues.iter()
    }

    /// Iterates over all event→queue associations: `(event id, node, queue)`.
    pub fn event_queue_entries(&self) -> impl Iterator<Item = (u64, NodeId, &str)> {
        self.event_queue
            .iter()
            .map(|(e, (n, q))| (*e, *n, q.as_str()))
    }

    /// All distinct tasks appearing in the trace, ordered.
    pub fn tasks(&self) -> Vec<TaskId> {
        let mut tasks: Vec<TaskId> = self.records.iter().map(|r| r.task).collect();
        tasks.sort_unstable();
        tasks.dedup();
        tasks
    }

    /// Indices of memory-access records.
    pub fn mem_access_indices(&self) -> Vec<usize> {
        self.records
            .iter()
            .enumerate()
            .filter(|(_, r)| r.kind.is_mem())
            .map(|(i, _)| i)
            .collect()
    }

    /// Record-type breakdown (paper Table 7).
    pub fn stats(&self) -> TraceStats {
        TraceStats::of(&self.records)
    }

    /// The size of the trace in its on-disk line format, in bytes
    /// (paper Tables 6 and 8 report trace sizes).
    pub fn byte_size(&self) -> usize {
        self.records
            .iter()
            .map(|r| record_len(r, &self.names) + 1)
            .sum()
    }

    /// Serializes the whole trace to the line format.
    pub fn to_lines(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            write_record(&mut out, r, &self.names);
            out.push('\n');
        }
        out
    }

    /// Retains only records satisfying `keep`, preserving order. Used by
    /// the HB-rule ablation experiments (paper Table 9: "some trace records
    /// are ignored by analyzer").
    pub fn filtered(&self, mut keep: impl FnMut(&Record) -> bool) -> TraceSet {
        TraceSet {
            records: self.records.iter().filter(|r| keep(r)).copied().collect(),
            names: self.names.clone(),
            queues: self.queues.clone(),
            event_queue: self.event_queue.clone(),
        }
    }

    /// Applies a per-record transformation, preserving order. Used by
    /// ablations that demote handler contexts to regular program order.
    pub fn mapped(&self, mut f: impl FnMut(Record) -> Record) -> TraceSet {
        TraceSet {
            records: self.records.iter().copied().map(&mut f).collect(),
            names: self.names.clone(),
            queues: self.queues.clone(),
            event_queue: self.event_queue.clone(),
        }
    }

    /// Looks up the first record index matching a predicate.
    pub fn find(&self, pred: impl FnMut(&Record) -> bool) -> Option<usize> {
        self.records.iter().position(pred)
    }

    /// Counts records matching a predicate.
    pub fn count(&self, mut pred: impl FnMut(&Record) -> bool) -> usize {
        self.records.iter().filter(|r| pred(r)).count()
    }

    /// Counts records whose kind matches the given tag (see
    /// [`OpKind::tag`]).
    pub fn count_tag(&self, tag: &str) -> usize {
        self.count(|r| r.kind.tag() == tag)
    }
}

/// Appends records (in sequence order), e.g. the ones a test built against
/// [`names_mut`](TraceSet::names_mut).
impl Extend<Record> for TraceSet {
    fn extend<T: IntoIterator<Item = Record>>(&mut self, iter: T) {
        for r in iter {
            self.push(r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ExecCtx, MemLoc, MemSpace};
    use crate::names::StackId;
    use crate::record::OpKind;
    use dcatch_model::{FuncId, StmtId};

    fn rec(names: &mut Names, seq: u64, node: u32, task: u32, kind: OpKind) -> Record {
        Record {
            seq,
            task: TaskId {
                node: NodeId(node),
                index: task,
            },
            ctx: ExecCtx::Regular,
            kind,
            stack: names.frame(
                StackId::EMPTY,
                StmtId {
                    func: FuncId(0),
                    idx: seq as u32,
                },
            ),
        }
    }

    fn mem(names: &mut Names, seq: u64, node: u32, task: u32, object: &str, write: bool) -> Record {
        let loc = MemLoc {
            space: MemSpace::Heap,
            node: NodeId(node),
            object: names.intern(object),
            key: None,
        };
        let kind = if write {
            OpKind::MemWrite { loc, value: None }
        } else {
            OpKind::MemRead { loc, value: None }
        };
        rec(names, seq, node, task, kind)
    }

    /// A trace of `build`'s records, interned into its own table.
    fn trace(build: impl FnOnce(&mut Names) -> Vec<Record>) -> TraceSet {
        let mut ts = TraceSet::new();
        let records = build(ts.names_mut());
        ts.extend(records);
        ts
    }

    #[test]
    fn push_and_query() {
        let ts = trace(|n| {
            vec![
                mem(n, 0, 0, 0, "a", true),
                mem(n, 1, 0, 1, "a", false),
                rec(n, 2, 1, 0, OpKind::ThreadBegin),
            ]
        });
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.mem_access_indices(), vec![0, 1]);
        assert_eq!(ts.tasks().len(), 3);
        assert_eq!(ts.count_tag("wr"), 1);
    }

    #[test]
    fn queue_registration() {
        let mut ts = TraceSet::new();
        ts.register_queue(NodeId(0), "dispatch", QueueInfo { consumers: 1 });
        ts.register_event(7, NodeId(0), "dispatch");
        assert!(ts
            .queue_info(NodeId(0), "dispatch")
            .unwrap()
            .is_single_consumer());
        assert!(ts.queue_info(NodeId(0), "other").is_none());
        let (n, q) = ts.event_queue(7).unwrap();
        assert_eq!((*n, q), (NodeId(0), "dispatch"));
    }

    #[test]
    fn filtered_and_mapped_preserve_side_tables() {
        let mut ts = trace(|n| {
            vec![
                mem(n, 0, 0, 0, "a", true),
                rec(n, 1, 0, 0, OpKind::ThreadEnd),
            ]
        });
        ts.register_queue(NodeId(0), "q", QueueInfo { consumers: 2 });
        let only_mem = ts.filtered(|r| r.kind.is_mem());
        assert_eq!(only_mem.len(), 1);
        assert!(only_mem.queue_info(NodeId(0), "q").is_some());
        assert_eq!(only_mem.to_lines(), "0|0 0|reg|wr|heap 0 a - -|0:0\n");
        let bumped = ts.mapped(|mut r| {
            r.seq += 10;
            r
        });
        assert_eq!(bumped.records()[0].seq, 10);
    }

    #[test]
    fn byte_size_matches_serialized_length() {
        let ts = trace(|n| vec![mem(n, 0, 0, 0, "a", true)]);
        assert_eq!(ts.byte_size(), ts.to_lines().len());
    }
}
