//! Conflicting concurrent access pairs: the [`CandidateSet`] both modes
//! report, and [`find_candidates`], the stored trace's replay of the one
//! scan (`crate::scan`), with the [`CandidateScan`] that refreshes it once
//! loop-sync edges grow the index.

use std::collections::{BTreeMap, BTreeSet};

use dcatch_hb::HbAnalysis;
use dcatch_model::StmtId;
use dcatch_obs::FxMap;
use dcatch_trace::{CallStack, ExecCtx, Location, OpKind, StackId, TaskId};

use crate::facts::{Anchor, Fact, Facts, NONE};
use crate::scan::{group, Access, Cover, Group, Pairs};

/// One dynamic access participating in a candidate, its callstack and
/// location resolved to text: what prune, trigger and the reports read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessSite {
    /// Index of the record in the analyzed trace.
    pub index: usize,
    /// Static instruction.
    pub stmt: StmtId,
    /// Callstack.
    pub stack: CallStack,
    /// Executing task.
    pub task: TaskId,
    /// Execution context.
    pub ctx: ExecCtx,
    /// Accessed location.
    pub loc: Location,
    /// Whether this side is a write.
    pub is_write: bool,
    /// Where §5.2's placement may put this side's request point: at the
    /// access, or at what its task held or what caused its context.
    pub anchor: Anchor,
}

/// A DCbug candidate: a unique *static instruction pair* with all its
/// observed callstack pairs and one representative dynamic pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate {
    /// Canonically ordered static pair (smaller `StmtId` first).
    pub static_pair: (StmtId, StmtId),
    /// Unique callstack pairs observed for this static pair: unordered
    /// pairs of ids in the analyzed run's table, smaller id first.
    pub stack_pairs: BTreeSet<(StackId, StackId)>,
    /// First observed dynamic pair (ordered like `static_pair`).
    pub rep: (AccessSite, AccessSite),
    /// Number of dynamic pairs observed.
    pub dynamic_count: usize,
}

impl Candidate {
    /// The object name both sides access.
    pub fn object(&self) -> &str {
        &self.rep.0.loc.object
    }
}

/// All candidates of one analysis, with the paper's two counting
/// granularities. Backed by a map keyed on the canonical static pair, so
/// lookups and dedup during merging are O(log n) instead of linear scans;
/// iteration order is the canonical static-pair order.
#[derive(Debug, Clone, Default)]
pub struct CandidateSet {
    by_pair: BTreeMap<(StmtId, StmtId), Candidate>,
}
impl CandidateSet {
    /// Number of unique static instruction pairs (Table 4 left half).
    pub fn static_pair_count(&self) -> usize {
        self.by_pair.len()
    }

    /// Number of unique callstack pairs (Table 4 right half).
    pub fn callstack_pair_count(&self) -> usize {
        self.iter().map(|c| c.stack_pairs.len()).sum()
    }

    /// Iterates candidates in canonical static-pair order.
    pub fn iter(&self) -> impl Iterator<Item = &Candidate> {
        self.by_pair.values()
    }

    /// Retains only candidates satisfying `keep`.
    pub fn retain(&mut self, mut keep: impl FnMut(&Candidate) -> bool) {
        self.by_pair.retain(|_, c| keep(c));
    }

    /// Looks up a candidate by its static pair (in either order).
    pub fn find(&self, a: StmtId, b: StmtId) -> Option<&Candidate> {
        self.by_pair.get(&(a.min(b), a.max(b)))
    }

    /// Merges one candidate in: a new static pair is inserted, an existing
    /// one absorbs the dynamic count and callstack pairs (keeping the
    /// established representative pair).
    pub fn merge(&mut self, c: Candidate) {
        match self.by_pair.entry(c.static_pair) {
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(c);
            }
            std::collections::btree_map::Entry::Occupied(e) => {
                let m = e.into_mut();
                m.dynamic_count += c.dynamic_count;
                m.stack_pairs.extend(c.stack_pairs);
            }
        }
    }
}

impl IntoIterator for CandidateSet {
    type Item = Candidate;
    type IntoIter = std::collections::btree_map::IntoValues<(StmtId, StmtId), Candidate>;

    fn into_iter(self) -> Self::IntoIter {
        self.by_pair.into_values()
    }
}

impl<'a> IntoIterator for &'a CandidateSet {
    type Item = &'a Candidate;
    type IntoIter = std::collections::btree_map::Values<'a, (StmtId, StmtId), Candidate>;

    fn into_iter(self) -> Self::IntoIter {
        self.by_pair.values()
    }
}

impl FromIterator<Candidate> for CandidateSet {
    fn from_iter<I: IntoIterator<Item = Candidate>>(iter: I) -> CandidateSet {
        let mut set = CandidateSet::default();
        for c in iter {
            set.merge(c);
        }
        set
    }
}

/// Enumerates all conflicting concurrent access pairs of `hb`'s trace.
///
/// Two accesses form a *dynamic pair* when they touch conflicting
/// locations, at least one writes, and the HB graph orders them in neither
/// direction (which rules out two accesses of one program-order group).
///
/// This is the stored trace replayed through the one scan, as
/// `OnlineDetector` runs it on arrival (DESIGN.md §4): see
/// [`CandidateScan::new`], which also keeps what a refresh needs.
pub fn find_candidates(hb: &HbAnalysis) -> CandidateSet {
    CandidateScan::new(hb).1
}

/// What a stored trace's scan keeps for [`CandidateScan::refresh`]: the
/// run's placement facts, which grow with the program, not the trace, and
/// the accesses of the location groups in which the cover met a concurrent
/// pair. Edges added to the index only order pairs, so no other group can
/// hold one afterwards (DESIGN.md §4).
#[derive(Debug)]
pub struct CandidateScan {
    facts: Facts,
    /// Each kept group's accesses, in trace order, with their facts.
    racy: Vec<Vec<(u32, Fact)>>,
    /// Records of the scanned trace.
    records: usize,
}

impl CandidateScan {
    /// Scans `hb`'s trace: its candidates, and what a refresh needs.
    ///
    /// The accesses are indexed by location group as record indices, and
    /// each group goes in trace order through a fresh chain cover that
    /// asks the index whether an earlier access happens before the
    /// arriving one. No ordered pair is visited; the cost is O(accesses ×
    /// chains of the location + concurrent pairs). The placement facts are
    /// taken in by the forward pass that indexes the accesses, the trace's
    /// side tables first.
    pub fn new(hb: &HbAnalysis) -> (CandidateScan, CandidateSet) {
        let _span = dcatch_obs::span!("detect.scan");
        let (records, names) = (hb.trace().records(), hb.trace().names());
        let mut facts = Facts::default();
        for control in hb.trace().controls() {
            facts.control(&control);
        }
        // the groups' order is no output's: a static pair's representative
        // is its pair of least rank, whichever group meets it first
        let mut groups: FxMap<Group, Vec<(u32, Fact)>> = FxMap::default();
        // the site of each record the engine tagged
        let mut tags = vec![NONE; records.len()];
        let n = u32::try_from(records.len()).expect("the HB graph numbers its vertices in u32");
        for (i, r) in (0..n).zip(records) {
            let begun = hb.cause(i as usize);
            let tag = |tags: &[u32]| begun.map_or(NONE, |c| tags[c]);
            // the engine tags every source, and a thread's begin only when
            // no source began it
            if begun == Some(i as usize) || r.kind != OpKind::ThreadBegin {
                tags[i as usize] = facts.cause(r, names, tag(&tags));
            }
            let fact = facts.record(r, names, tag(&tags));
            if let Some(a) = Access::at(i as usize, r, names, fact) {
                groups.entry(group(&a.loc)).or_default().push((i, a.fact));
            }
        }
        let mut pairs = Pairs::default();
        let racy = groups
            .into_values()
            .filter(|accesses| cover(hb, accesses, &mut pairs))
            .collect();
        let set = pairs.finish(names, &facts);
        let records = records.len();
        (
            CandidateScan {
                facts,
                racy,
                records,
            },
            set,
        )
    }

    /// The candidates of the scanned trace under `hb`, the index the scan
    /// read grown by edges since: the kept groups covered again, which
    /// gives what a whole scan of `hb` gives.
    pub fn refresh(&self, hb: &HbAnalysis) -> CandidateSet {
        let _span = dcatch_obs::span!("detect.scan");
        debug_assert_eq!(self.records, hb.vertex_count(), "another trace");
        let mut pairs = Pairs::default();
        for accesses in &self.racy {
            cover(hb, accesses, &mut pairs);
        }
        pairs.finish(hb.trace().names(), &self.facts)
    }

    /// How many accesses the scan keeps for a refresh.
    pub fn kept_accesses(&self) -> usize {
        self.racy.iter().map(Vec::len).sum()
    }
}

/// Runs one group's `accesses` through a fresh cover into `pairs`;
/// returns whether it met a concurrent pair.
fn cover(hb: &HbAnalysis, accesses: &[(u32, Fact)], pairs: &mut Pairs) -> bool {
    let (records, names) = (hb.trace().records(), hb.trace().names());
    let access = |(i, fact): (u32, Fact)| {
        Access::at(i as usize, &records[i as usize], names, fact).expect("indexed")
    };
    let mut racy = false;
    let mut cover = Cover::default();
    for &j in accesses {
        cover.admit(
            j,
            |&(i, _)| hb.happens_before(i as usize, j.0 as usize),
            pairs,
            |pairs, &i| {
                racy = true;
                pairs.add(names, access(i), access(j));
            },
        );
    }
    racy
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcatch_hb::{HbAnalysis, HbConfig};
    use dcatch_model::{Expr, FuncId, FuncKind, NodeId, ProgramBuilder};
    use dcatch_sim::{SimConfig, Topology, World};
    use dcatch_trace::{MemLoc, MemSpace, Record, TraceSet};

    /// Two threads racing on a cell, plus a properly fork/join-ordered
    /// access that must NOT be reported.
    #[test]
    fn reports_racing_pair_but_not_ordered_pair() {
        let mut pb = ProgramBuilder::new();
        pb.func("main", &[], FuncKind::Regular, |b| {
            b.write("cell", Expr::val(0)); // ordered before both (fork)
            b.spawn("a", "racer", vec![]);
            b.spawn("c", "racer2", vec![]);
            b.join(Expr::local("a"));
            b.join(Expr::local("c"));
            b.read("v", "cell"); // ordered after both (join)
        });
        pb.func("racer", &[], FuncKind::Regular, |b| {
            b.write("cell", Expr::val(1));
        });
        pb.func("racer2", &[], FuncKind::Regular, |b| {
            b.write("cell", Expr::val(2));
        });
        let p = pb.build().unwrap();
        let mut topo = Topology::new();
        topo.node("n").entry("main", vec![]);
        let run = World::run_once(&p, &topo, SimConfig::default().with_full_tracing()).unwrap();
        let hb = HbAnalysis::build(run.trace, &HbConfig::default()).unwrap();
        let cs = find_candidates(&hb);
        assert_eq!(cs.static_pair_count(), 1, "{cs:#?}");
        let c = cs.iter().next().unwrap();
        assert_eq!(c.object(), "cell");
        assert!(c.rep.0.is_write && c.rep.1.is_write);
        assert_eq!(cs.callstack_pair_count(), 1);
    }

    #[test]
    fn find_accepts_either_argument_order() {
        let mut pb = ProgramBuilder::new();
        pb.func("main", &[], FuncKind::Regular, |b| {
            b.spawn_detached("w", vec![]);
            b.read("x", "cell");
        });
        pb.func("w", &[], FuncKind::Regular, |b| {
            b.write("cell", Expr::val(1));
        });
        let p = pb.build().unwrap();
        let mut topo = Topology::new();
        topo.node("n").entry("main", vec![]);
        let run = World::run_once(&p, &topo, SimConfig::default().with_full_tracing()).unwrap();
        let hb = HbAnalysis::build(run.trace, &HbConfig::default()).unwrap();
        let cs = find_candidates(&hb);
        let c = cs.iter().next().expect("one candidate");
        let (a, b) = c.static_pair;
        assert_ne!(a, b);
        assert!(std::ptr::eq(cs.find(a, b).unwrap(), c));
        assert!(std::ptr::eq(cs.find(b, a).unwrap(), c), "reversed order");
        assert!(cs.find(a, a).is_none());
    }

    #[test]
    fn read_read_pairs_are_not_conflicts() {
        let mut pb = ProgramBuilder::new();
        pb.func("main", &[], FuncKind::Regular, |b| {
            b.spawn_detached("r1", vec![]);
            b.spawn_detached("r2", vec![]);
        });
        pb.func("r1", &[], FuncKind::Regular, |b| {
            b.read("x", "cell");
        });
        pb.func("r2", &[], FuncKind::Regular, |b| {
            b.read("x", "cell");
        });
        let p = pb.build().unwrap();
        let mut topo = Topology::new();
        topo.node("n").entry("main", vec![]);
        let run = World::run_once(&p, &topo, SimConfig::default().with_full_tracing()).unwrap();
        let hb = HbAnalysis::build(run.trace, &HbConfig::default()).unwrap();
        assert_eq!(find_candidates(&hb).static_pair_count(), 0);
    }

    #[test]
    fn map_accesses_conflict_only_on_matching_keys() {
        let mut pb = ProgramBuilder::new();
        pb.func("main", &[], FuncKind::Regular, |b| {
            b.spawn_detached("w1", vec![]);
            b.spawn_detached("w2", vec![]);
            b.spawn_detached("w3", vec![]);
        });
        pb.func("w1", &[], FuncKind::Regular, |b| {
            b.map_put("m", Expr::val("k1"), Expr::val(1));
        });
        pb.func("w2", &[], FuncKind::Regular, |b| {
            b.map_put("m", Expr::val("k2"), Expr::val(2));
        });
        pb.func("w3", &[], FuncKind::Regular, |b| {
            b.map_get("x", "m", Expr::val("k1"));
        });
        let p = pb.build().unwrap();
        let mut topo = Topology::new();
        topo.node("n").entry("main", vec![]);
        let run = World::run_once(&p, &topo, SimConfig::default().with_full_tracing()).unwrap();
        let hb = HbAnalysis::build(run.trace, &HbConfig::default()).unwrap();
        let cs = find_candidates(&hb);
        // k1-put vs k1-get conflict; k2-put conflicts with neither
        assert_eq!(cs.static_pair_count(), 1, "{cs:#?}");
    }

    #[test]
    fn dynamic_instances_aggregate_under_one_static_pair() {
        let mut pb = ProgramBuilder::new();
        pb.func("main", &[], FuncKind::Regular, |b| {
            b.assign("i", Expr::val(0));
            b.while_(Expr::local("i").lt(Expr::val(3)), |b| {
                b.spawn_detached("w", vec![]);
                b.assign("i", Expr::local("i").add(Expr::val(1)));
            });
            b.read("x", "cell");
        });
        pb.func("w", &[], FuncKind::Regular, |b| {
            b.write("cell", Expr::val(1));
        });
        let p = pb.build().unwrap();
        let mut topo = Topology::new();
        topo.node("n").entry("main", vec![]);
        let run = World::run_once(&p, &topo, SimConfig::default().with_full_tracing()).unwrap();
        let hb = HbAnalysis::build(run.trace, &HbConfig::default()).unwrap();
        let cs = find_candidates(&hb);
        // 3 writer instances race with each other and with the final read,
        // but static pairs collapse: (w-write, w-write) and (w-write, read)
        assert_eq!(cs.static_pair_count(), 2, "{cs:#?}");
        let ww = cs
            .iter()
            .find(|c| c.rep.0.is_write && c.rep.1.is_write)
            .unwrap();
        assert_eq!(ww.dynamic_count, 3); // 3 choose 2
    }

    /// One static pair raced on in two location groups — object `x` of
    /// node 1, then of node 0, the reverse of the groups' key order: the
    /// representative is the pair of least rank (object name, then record
    /// indices), node 1's, whatever order the groups are scanned in.
    #[test]
    fn representative_does_not_follow_group_order() {
        let mut trace = TraceSet::new();
        let names = trace.names_mut();
        let object = names.intern("x");
        let stacks = [1, 2].map(|idx| {
            names.stack_of(&[StmtId {
                func: FuncId(0),
                idx,
            }])
        });
        for (seq, (node, side)) in [(1, 0), (1, 1), (0, 0), (0, 1)].into_iter().enumerate() {
            let loc = MemLoc {
                space: MemSpace::Heap,
                node: NodeId(node),
                object,
                key: None,
            };
            trace.push(Record {
                seq: seq as u64,
                task: TaskId {
                    node: NodeId(node),
                    index: side,
                },
                ctx: ExecCtx::Regular,
                kind: OpKind::MemWrite { loc, value: None },
                stack: stacks[side as usize],
            });
        }
        let hb = HbAnalysis::build(trace, &HbConfig::default()).unwrap();
        let cs = find_candidates(&hb);
        assert_eq!(cs.static_pair_count(), 1, "{cs:#?}");
        let c = cs.iter().next().unwrap();
        assert_eq!(c.dynamic_count, 2);
        assert_eq!((c.rep.0.index, c.rep.1.index), (0, 1));
        assert_eq!(c.rep.0.loc.node, NodeId(1));
    }
}
