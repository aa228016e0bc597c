//! Conflicting concurrent access pair enumeration.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};

use dcatch_hb::HbAnalysis;
use dcatch_model::StmtId;
use dcatch_trace::{
    CallStack, ExecCtx, Location, MemLoc, MemSpace, NameId, Names, Record, StackId, TaskId,
};

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

/// A dynamic access as the scans hold it while they aggregate: ids only,
/// resolved into an [`AccessSite`] once per reported candidate side.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Access {
    pub index: usize,
    pub stmt: StmtId,
    pub stack: StackId,
    pub task: TaskId,
    pub ctx: ExecCtx,
    pub loc: MemLoc,
    pub is_write: bool,
}

impl Access {
    /// The access record `r` (at `index`, of statement `stmt`) makes on `loc`.
    pub fn of(index: usize, r: &Record, loc: MemLoc, stmt: StmtId) -> Access {
        Access {
            index,
            stmt,
            stack: r.stack,
            task: r.task,
            ctx: r.ctx,
            loc,
            is_write: r.kind.is_write(),
        }
    }

    /// The access with its names rendered from the run's table.
    pub fn site(&self, names: &Names) -> AccessSite {
        AccessSite {
            index: self.index,
            stmt: self.stmt,
            stack: names.stack(self.stack),
            task: self.task,
            ctx: self.ctx,
            loc: names.location(&self.loc),
            is_write: self.is_write,
        }
    }
}

/// A dynamic pair's place in the all-pairs encounter order — `(zk, object,
/// i, j)` with `i < j` — whose minimum names a static pair's
/// representative, in the batch scan and in `OnlineDetector` alike.
pub(crate) type Rank = (bool, NameId, usize, usize);

/// Whether rank `a` comes before `b`. Objects compare by name, as the
/// all-pairs scan meets them; the ids only decide that two are the same.
pub(crate) fn ranks_before(names: &Names, a: Rank, b: Rank) -> bool {
    let object = if a.1 == b.1 {
        Ordering::Equal
    } else {
        names.name(a.1).cmp(names.name(b.1))
    };
    let order = a.0.cmp(&b.0).then(object).then((a.2, a.3).cmp(&(b.2, b.3)));
    order == Ordering::Less
}

/// The unordered pair of two callstacks.
pub(crate) fn stack_pair(a: StackId, b: StackId) -> (StackId, StackId) {
    (a.min(b), a.max(b))
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
        self.by_pair.get(&canonical(a, b))
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

fn canonical(a: StmtId, b: StmtId) -> (StmtId, StmtId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Enumerates all conflicting concurrent access pairs of `hb`'s trace.
///
/// Two accesses form a *dynamic pair* when they touch conflicting
/// locations, at least one writes, and the HB graph orders them in neither
/// direction (which rules out two accesses of one program-order group).
///
/// No ordered pair is ever visited (DESIGN.md §4). Per location, the
/// accesses are covered greedily by *HB-ordered chains*; for an access `x`
/// of chain A, the accesses of another chain B concurrent with `x` are
/// exactly a window `B[lo..hi)` — `B[..lo]` happen before `x`, `x` happens
/// before `B[hi..]` — and both bounds only move forward as `x` moves down
/// A. The cost is O(accesses × chains of the location + concurrent pairs).
pub fn find_candidates(hb: &HbAnalysis) -> CandidateSet {
    let _span = dcatch_obs::span!("detect.scan");
    let (records, names) = (hb.trace().records(), hb.trace().names());
    // index record indices by location — heap objects per node, zknodes
    // cluster-wide — under integer keys
    let mut groups: BTreeMap<(bool, u32, NameId), Vec<usize>> = BTreeMap::new();
    for (idx, r) in records.iter().enumerate() {
        if let Some(loc) = r.kind.mem_loc() {
            let zk = loc.space == MemSpace::Zk;
            let node = if zk { 0 } else { loc.node.0 };
            groups.entry((zk, node, loc.object)).or_default().push(idx);
        }
    }

    // Aggregation state is ids and record indices: a dynamic pair costs a
    // set insert at most. Owned `Candidate`s are materialized once per
    // unique static pair after the scan. `rank` is the all-pairs encounter
    // order ([`Rank`]), as in `OnlineDetector`.
    struct Agg {
        stack_pairs: BTreeSet<(StackId, StackId)>,
        rank: Rank,
        rep: (usize, usize),
        dynamic_count: usize,
    }
    let mut agg: BTreeMap<(StmtId, StmtId), Agg> = BTreeMap::new();
    let (mut queries, mut examined, mut chain_total) = (0u64, 0u64, 0u64);
    // every HB edge points forward in trace order, so only `a < b` can
    // hold `a ⇒ b`: the index test saves the query
    let mut before = |a: usize, b: usize| {
        a < b && {
            queries += 1;
            hb.happens_before(a, b)
        }
    };
    for (&(zk, _, object), indices) in &groups {
        // greedy cover: an access extends the chain its own program-order
        // group last extended if that chain's tail happens before it, else
        // the first chain whose tail does, else it opens a new chain
        let mut chains: Vec<Vec<usize>> = Vec::new();
        let mut own: BTreeMap<(TaskId, ExecCtx), usize> = BTreeMap::new();
        for &x in indices {
            let group = (records[x].task, records[x].ctx);
            let mut extends = |c: &Vec<usize>| before(c[c.len() - 1], x);
            let home = match own.get(&group) {
                Some(&c) if extends(&chains[c]) => c,
                _ => chains.iter().position(extends).unwrap_or(chains.len()),
            };
            if home == chains.len() {
                chains.push(Vec::new());
            }
            chains[home].push(x);
            own.insert(group, home);
        }
        chain_total += chains.len() as u64;
        for (a, chain_a) in chains.iter().enumerate() {
            for chain_b in &chains[a + 1..] {
                let (mut lo, mut hi) = (0, 0);
                for &x in chain_a {
                    while lo < chain_b.len() && before(chain_b[lo], x) {
                        lo += 1;
                    }
                    hi = hi.max(lo);
                    while hi < chain_b.len() && !before(x, chain_b[hi]) {
                        hi += 1;
                    }
                    for &y in &chain_b[lo..hi] {
                        examined += 1;
                        let (i, j) = (x.min(y), x.max(y));
                        let (ri, rj) = (&records[i], &records[j]);
                        if !ri.kind.is_write() && !rj.kind.is_write() {
                            continue;
                        }
                        let (Some(li), Some(lj)) = (ri.kind.mem_loc(), rj.kind.mem_loc()) else {
                            continue;
                        };
                        if !li.conflicts_with(lj) {
                            continue;
                        }
                        let (Some(si), Some(sj)) = (names.leaf(ri.stack), names.leaf(rj.stack))
                        else {
                            continue;
                        };
                        let rep = if (si, i) <= (sj, j) { (i, j) } else { (j, i) };
                        let rank = (zk, object, i, j);
                        let c = agg.entry(canonical(si, sj)).or_insert(Agg {
                            stack_pairs: BTreeSet::new(),
                            rank,
                            rep,
                            dynamic_count: 0,
                        });
                        c.dynamic_count += 1;
                        c.stack_pairs.insert(stack_pair(ri.stack, rj.stack));
                        if ranks_before(names, rank, c.rank) {
                            (c.rank, c.rep) = (rank, rep);
                        }
                    }
                }
            }
        }
    }
    dcatch_obs::counter!("detect_scan_hb_queries_total").add(queries);
    dcatch_obs::counter!("detect_scan_pairs_examined_total").add(examined);
    dcatch_obs::counter!("detect_scan_chains_total").add(chain_total);
    let site = |idx: usize| {
        let r = &records[idx];
        let (Some(&loc), Some(stmt)) = (r.kind.mem_loc(), names.leaf(r.stack)) else {
            unreachable!("representative accesses were admitted with a location and a stmt");
        };
        Access::of(idx, r, loc, stmt).site(names)
    };
    let by_pair = agg
        .into_iter()
        .map(|(key, a)| {
            let c = Candidate {
                static_pair: key,
                stack_pairs: a.stack_pairs,
                rep: (site(a.rep.0), site(a.rep.1)),
                dynamic_count: a.dynamic_count,
            };
            (key, c)
        })
        .collect();
    let set = CandidateSet { by_pair };
    dcatch_obs::counter!("detect_candidates_found_total").add(set.static_pair_count() as u64);
    dcatch_obs::counter!("detect_stack_pairs_found_total").add(set.callstack_pair_count() as u64);
    set
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
