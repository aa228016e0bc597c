//! The DCatch happens-before model and graph (paper §2 and §3.2).
//!
//! This crate turns a `dcatch-trace` [`TraceSet`](dcatch_trace::TraceSet)
//! into a happens-before DAG and answers concurrency queries on it. The
//! edges implement the full MTEP rule set:
//!
//! | rule | causality |
//! |------|-----------|
//! | `Mrpc`    | `Create(r,n1) ⇒ Begin(r,n2)`, `End(r,n2) ⇒ Join(r,n1)` |
//! | `Msoc`    | `Send(m,n1) ⇒ Recv(m,n2)` |
//! | `Mpush`   | `Update(s,n1) ⇒ Pushed(s,n2)` (ZooKeeper watchers) |
//! | `Tfork`   | `Create(t) ⇒ Begin(t)` |
//! | `Tjoin`   | `End(t) ⇒ Join(t)` |
//! | `Eenq`    | `Create(e) ⇒ Begin(e)` |
//! | `Eserial` | `End(e1) ⇒ Begin(e2)` for single-consumer FIFO queues when `Create(e1) ⇒ Create(e2)` (the paper's fixed point, decided when `Begin(e2)` arrives) |
//! | `Preg`    | program order in regular threads |
//! | `Pnreg`   | program order *within* one handler instance only |
//!
//! (`Mpull`, the pull-based custom synchronization rule, needs program
//! analysis plus a focused second run and lives in `dcatch-detect`; it
//! feeds extra edges back into this graph via [`HbAnalysis::add_edges`],
//! which keeps them beside the index rather than folding them in.)
//!
//! Every HB edge points from a smaller to a larger sequence number, so
//! the model is one forward pass: when a record arrives all of its edge
//! sources are behind it, and its *ancestor* summary — the join of theirs
//! — is final. That pass is written once, as the online [`FrontierEngine`]
//! (with the private `rules` table of keyed rules and the `slots` rule
//! that gives a record its clock dimension). [`HbAnalysis::build`] holds no
//! rule: it feeds a materialized trace to an engine that never retires and
//! keeps what the engine reports per record — the predecessors as edges,
//! the summary as a row.
//!
//! The rows have two interchangeable representations behind
//! [`HbConfig::reachability`]:
//!
//! * [`BitMatrix`] — the bit-array algorithm DCatch borrows from
//!   event-driven race detection (§3.2.2): row `v` is the set of records
//!   that happen before `v`, and concurrency checks become constant-time
//!   bit lookups. The memory this takes is quadratic
//!   in the trace length — which is exactly why DCatch's *selective*
//!   tracing matters, and why the unselective baseline of Table 8 runs
//!   out of memory ([`HbError::OutOfMemory`]).
//! * [`ChainClocks`] — chain-decomposition vector clocks: one u32 frontier
//!   per *HB-ordered* chain ("slot"), with `G ≪ n` slots — the one slot
//!   rule folds handler instances into the chain that causes them — in a
//!   row per record that joins another chain and a shared row for every
//!   record ordered after its program-order predecessor alone; exact for
//!   arbitrary HB DAGs. This is what
//!   lets *full-trace* detection keep running at the unselective Table 8
//!   scale where the matrix blows the budget.
//!
//! The default [`ReachabilityMode::Auto`] ends with whichever index is
//! smaller for the trace at hand, by measurement: [`HbAnalysis::build`]
//! keeps the clock rows for as long as they are smaller than the matrix.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod ablation;
mod bitmatrix;
mod chainclocks;
mod graph;
mod rules;
mod slots;
mod streaming;

pub use ablation::{ablate_record, apply_ablation, Ablation};
pub use bitmatrix::BitMatrix;
pub use chainclocks::ChainClocks;
pub use graph::{EdgeRule, HbAnalysis, HbConfig, HbError, ReachabilityMode};
pub use streaming::{Arrival, FrontierEngine, FrontierOptions};
