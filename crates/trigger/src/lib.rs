//! DCbug triggering and validation (paper §5).
//!
//! A DCatch bug report `(s, t)` may still be wrong for two reasons: the
//! two accesses may not actually be concurrent (unidentified custom
//! synchronization), or their concurrent execution may be harmless. The
//! triggering module settles both questions *experimentally*: it re-runs
//! the system under a timing controller and forces `s` right before `t`,
//! then `t` right before `s`, watching for failures.
//!
//! The controller of §5.1 (client-side `request`/`confirm` APIs plus a
//! message-controller server) is realized as a [`ControllerGate`]
//! installed into the simulator: tasks about to execute a *request point*
//! are held; once both parties have requested, one is released, its racing
//! access execution is the `confirm`, and then the other party proceeds.
//!
//! Placement of request points follows the analysis of §5.2
//! ([`plan_candidate`]): naive placement right before the racing accesses
//! can deadlock the system (single-consumer event handlers, RPC handlers
//! sharing a worker, lock critical sections) or drown the controller in
//! dynamic instances — the plan moves request points to enqueue sites, RPC
//! callers, critical-section entries, or remote causal ancestors, reading
//! only the facts the candidate scan kept of each side.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod controller;
mod driver;
mod farm;
mod placement;

pub use controller::{ControllerGate, Evidence, Phase, SideSpec};
pub use driver::{run_both_orders, trigger_candidate, OrderRun, TriggerReport, Verdict};
pub use farm::{run_farm, run_farm_prepared, steal_map, ConfirmFn, FarmSpec, ORDERINGS};
pub use placement::{plan_candidate, PlacementRule, TriggerPlan};
