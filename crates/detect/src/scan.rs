//! The one candidate scan (DESIGN.md §4), shared by
//! [`find_candidates`](crate::find_candidates), which replays it over a
//! stored trace, and [`OnlineDetector`](crate::OnlineDetector), which runs
//! it as records arrive: per location group a [`Cover`] of the accesses by
//! HB-ordered chains, and one [`Pairs`] aggregation the concurrent
//! conflicting pairs feed. The modes differ only in who answers whether an
//! earlier access happens before the arriving one — the reachability
//! index, or the engine's arrival clock.

use std::cmp::Ordering;
use std::collections::{btree_map::Entry, BTreeMap, BTreeSet, VecDeque};

use dcatch_model::StmtId;
use dcatch_trace::{ExecCtx, MemLoc, MemSpace, NameId, Names, Record, StackId, TaskId};

use crate::candidates::{AccessSite, Candidate, CandidateSet};

/// A location group: zk or not, the heap object's node (0 for a zknode,
/// which is cluster-wide), the object.
pub(crate) type Group = (bool, u32, NameId);

/// The group of an access to `loc`.
pub(crate) fn group(loc: &MemLoc) -> Group {
    let zk = loc.space == MemSpace::Zk;
    (zk, if zk { 0 } else { loc.node.0 }, loc.object)
}

/// A dynamic access as the scan holds it: ids only, resolved into an
/// [`AccessSite`] once per reported candidate side.
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
    /// The access record `r`, at `index`, makes — if it accesses memory
    /// and its callstack, resolved in `names`, ends in a statement.
    pub fn at(index: usize, r: &Record, names: &Names) -> Option<Access> {
        let loc = *r.kind.mem_loc()?;
        Some(Access {
            index,
            stmt: names.leaf(r.stack)?,
            stack: r.stack,
            task: r.task,
            ctx: r.ctx,
            loc,
            is_write: r.kind.is_write(),
        })
    }

    /// The access with its names rendered from the run's table.
    fn site(&self, names: &Names) -> AccessSite {
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

/// One location group's accesses, covered by HB-ordered chains, each in
/// arrival order. No chain is empty. What happens before a later access,
/// of a chain, is a prefix of it: happens-before is transitive.
#[derive(Debug)]
pub(crate) struct Cover<E> {
    chains: Vec<VecDeque<E>>,
}

impl<E> Default for Cover<E> {
    fn default() -> Self {
        Cover { chains: Vec::new() }
    }
}

impl<E: Copy> Cover<E> {
    /// Admits `e`, which arrived after every entry. Each chain is asked
    /// once whether `covers` accepts its tail — then `e` is ordered after
    /// all of it; if not, the entries `covers` rejects are a suffix, all
    /// concurrent with `e`, and each goes to `concurrent`. `e` then
    /// extends the first chain whose tail it covers, or opens one.
    pub fn admit(
        &mut self,
        e: E,
        covers: impl Fn(&E) -> bool,
        pairs: &mut Pairs,
        mut concurrent: impl FnMut(&mut Pairs, &E),
    ) {
        let mut home = None;
        for (c, chain) in self.chains.iter().enumerate() {
            pairs.work[0] += 1;
            if chain.back().is_some_and(&covers) {
                home = home.or(Some(c));
                continue;
            }
            for x in chain.range(chain.partition_point(&covers)..) {
                pairs.work[1] += 1;
                concurrent(pairs, x);
            }
        }
        match home {
            Some(c) => self.chains[c].push_back(e),
            None => {
                pairs.work[2] += 1;
                let mut chain = VecDeque::new();
                chain.push_back(e);
                self.chains.push(chain);
            }
        }
    }

    /// Drops the prefix of every chain that `covered` accepts, and the
    /// chains that leaves empty; returns how many entries went.
    pub fn retire(&mut self, covered: impl Fn(&E) -> bool) -> usize {
        let mut dropped = 0;
        for chain in &mut self.chains {
            let n = chain.partition_point(&covered);
            chain.drain(..n);
            dropped += n;
        }
        self.chains.retain(|chain| !chain.is_empty());
        dropped
    }

    /// The earliest `arrival` of a chain's front — the oldest entry, the
    /// chains being in arrival order — and that chain.
    pub fn oldest(&self, arrival: impl Fn(&E) -> usize) -> Option<(usize, usize)> {
        let fronts = self.chains.iter().map(|chain| arrival(&chain[0]));
        fronts.zip(0..).min()
    }

    /// Pops the front of chain `c`, dropping the chain if that empties it.
    pub fn pop_front(&mut self, c: usize) -> E {
        let e = self.chains[c].pop_front().expect("no chain is empty");
        if self.chains[c].is_empty() {
            self.chains.remove(c);
        }
        e
    }

    /// How many chains the cover holds.
    pub fn chains(&self) -> usize {
        self.chains.len()
    }
}

/// A dynamic pair's place in the all-pairs encounter order — `(zk, object,
/// i, j)` with `i < j` — whose minimum names a static pair's
/// representative.
type Rank = (bool, NameId, usize, usize);

/// Whether rank `a` comes before `b`. Objects compare by name, as the
/// all-pairs scan meets them; the ids only decide that two are the same.
fn ranks_before(names: &Names, a: Rank, b: Rank) -> bool {
    let object = if a.1 == b.1 {
        Ordering::Equal
    } else {
        names.name(a.1).cmp(names.name(b.1))
    };
    let order = a.0.cmp(&b.0).then(object).then((a.2, a.3).cmp(&(b.2, b.3)));
    order == Ordering::Less
}

/// One static pair in flight: its representative is the dynamic pair of
/// minimal [`Rank`], its sides ordered like the static pair.
#[derive(Debug)]
struct Agg {
    rank: Rank,
    rep: (Access, Access),
    stack_pairs: BTreeSet<(StackId, StackId)>,
    dynamic_count: usize,
}

/// The per-static-pair aggregation of one scan, and its work:
/// `detect_scan_{hb_queries,pairs_examined,chains}_total`.
#[derive(Debug, Default)]
pub(crate) struct Pairs {
    by_pair: BTreeMap<(StmtId, StmtId), Agg>,
    work: [u64; 3],
}

impl Pairs {
    /// Counts `a` and the later access `b` of its group, which the cover
    /// found concurrent, if they conflict: one writes and the keys alias.
    pub fn add(&mut self, names: &Names, a: Access, b: Access) {
        let conflict = (a.is_write || b.is_write) && MemLoc::keys_alias(a.loc.key, b.loc.key);
        if !conflict {
            return;
        }
        let rank = (a.loc.space == MemSpace::Zk, a.loc.object, a.index, b.index);
        let rep = if (a.stmt, a.index) <= (b.stmt, b.index) {
            (a, b)
        } else {
            (b, a)
        };
        let stacks = (a.stack.min(b.stack), a.stack.max(b.stack));
        match self.by_pair.entry((rep.0.stmt, rep.1.stmt)) {
            Entry::Occupied(mut o) => {
                let agg = o.get_mut();
                agg.dynamic_count += 1;
                agg.stack_pairs.insert(stacks);
                if ranks_before(names, rank, agg.rank) {
                    (agg.rank, agg.rep) = (rank, rep);
                }
            }
            Entry::Vacant(v) => {
                v.insert(Agg {
                    rank,
                    rep,
                    stack_pairs: BTreeSet::from([stacks]),
                    dynamic_count: 1,
                });
            }
        }
    }

    /// Resident bytes of the aggregates in flight.
    pub fn bytes(&self) -> usize {
        let stack_pair = std::mem::size_of::<(StackId, StackId)>();
        let agg = |a: &Agg| std::mem::size_of::<Agg>() + a.stack_pairs.len() * stack_pair;
        self.by_pair.values().map(agg).sum()
    }

    /// Closes the scan: renders the candidates — the one place it renders
    /// names — and counts them and the scan's work.
    pub fn finish(self, names: &Names) -> CandidateSet {
        let set: CandidateSet = self
            .by_pair
            .into_iter()
            .map(|(static_pair, a)| Candidate {
                static_pair,
                stack_pairs: a.stack_pairs,
                rep: (a.rep.0.site(names), a.rep.1.site(names)),
                dynamic_count: a.dynamic_count,
            })
            .collect();
        let [queries, examined, chains] = self.work;
        dcatch_obs::counter!("detect_candidates_found_total").add(set.static_pair_count() as u64);
        dcatch_obs::counter!("detect_stack_pairs_found_total")
            .add(set.callstack_pair_count() as u64);
        dcatch_obs::counter!("detect_scan_hb_queries_total").add(queries);
        dcatch_obs::counter!("detect_scan_pairs_examined_total").add(examined);
        dcatch_obs::counter!("detect_scan_chains_total").add(chains);
        set
    }
}
