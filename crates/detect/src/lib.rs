//! DCbug candidate detection (paper §3.2).
//!
//! Given the HB graph built by `dcatch-hb`, this crate enumerates every
//! pair of memory accesses that is **conflicting** (same location, at
//! least one write) and **concurrent** (no happens-before relationship)
//! and aggregates the dynamic pairs into the two report granularities the
//! paper counts: unique *static instruction pairs* and unique *callstack
//! pairs* (Table 4). There is one scan (`scan`): [`OnlineDetector`] runs it
//! as a streamed run's records arrive, and [`find_candidates`] replays it
//! over a stored trace, asking the reachability index what the streamed
//! pass asks its frontier clock.
//!
//! It also implements the loop-based custom-synchronization analysis of
//! §3.2.1 — the `Mpull` rule plus local while-loop synchronization. That
//! analysis statically finds reads that feed retry-loop exit conditions
//! (directly, or through the return value of an RPC polled by a remote
//! loop), re-runs the system with focused value tracing to learn which
//! write provided the loop-exiting value, adds the inferred
//! `w* ⇒ LoopExit` edges back into the HB graph, and prunes candidates
//! that the enriched graph now orders (plus the polling read/write pairs
//! themselves, which are synchronization rather than bugs).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod candidates;
mod loopsync;
mod online;
mod scan;

pub use candidates::{find_candidates, AccessSite, Candidate, CandidateSet};
pub use loopsync::{analyze_loop_sync, occ_key, plan_loop_sync, LoopSyncResult, OccKey, SyncPlan};
pub use online::{OnlineDetector, OnlineOptions, StreamOutcome, SWEEP_EVERY};
