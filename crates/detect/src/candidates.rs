//! Conflicting concurrent access pairs: the [`CandidateSet`] both modes
//! report, and [`find_candidates`], the stored trace's replay of the one
//! scan (`crate::scan`).

use std::collections::{BTreeMap, BTreeSet};

use dcatch_hb::HbAnalysis;
use dcatch_model::StmtId;
use dcatch_trace::{CallStack, ExecCtx, Location, StackId, TaskId};

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
/// `OnlineDetector` runs it on arrival (DESIGN.md §4): the accesses are
/// indexed by location group as record indices, and each group goes in
/// trace order through a fresh chain cover that asks the index whether an
/// earlier access happens before the arriving one. No ordered pair is
/// visited; the cost is O(accesses × chains of the location + concurrent
/// pairs).
pub fn find_candidates(hb: &HbAnalysis) -> CandidateSet {
    let _span = dcatch_obs::span!("detect.scan");
    let (records, names) = (hb.trace().records(), hb.trace().names());
    let access = |i: u32| Access::at(i as usize, &records[i as usize], names);
    let mut groups: BTreeMap<Group, Vec<u32>> = BTreeMap::new();
    let n = u32::try_from(records.len()).expect("the HB graph numbers its vertices in u32");
    for i in 0..n {
        if let Some(a) = access(i) {
            groups.entry(group(&a.loc)).or_default().push(i);
        }
    }
    let mut pairs = Pairs::default();
    for indices in groups.values() {
        let mut cover = Cover::default();
        for &j in indices {
            cover.admit(
                j,
                |&i| hb.happens_before(i as usize, j as usize),
                &mut pairs,
                |pairs, &i| {
                    let (a, b) = (access(i), access(j));
                    pairs.add(names, a.expect("indexed"), b.expect("indexed"));
                },
            );
        }
    }
    pairs.finish(names)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcatch_hb::{HbAnalysis, HbConfig};
    use dcatch_model::{Expr, FuncKind, ProgramBuilder};
    use dcatch_sim::{SimConfig, Topology, World};

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
}
