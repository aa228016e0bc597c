//! Run-time trace model for DCatch-RS.
//!
//! The original DCatch produces "a trace file for every thread of a target
//! distributed system" (paper §3.1) using Javassist instrumentation. In
//! this reproduction the simulator (`dcatch-sim`) emits the same records
//! through the types defined here:
//!
//! * **memory accesses** to shared heap objects and zknodes, with callstack
//!   and location id (§3.1.2);
//! * **HB-related operations** — the thread / event / RPC / socket /
//!   ZooKeeper-push operations of Table 2;
//! * **lock operations**, which are not part of the HB model but are needed
//!   by the triggering module's placement analysis (§5.2);
//! * **loop markers**, which feed the pull-based/loop custom
//!   synchronization analysis (§3.2.1).
//!
//! A [`Record`] is `Copy`: names and callstacks are ids into the run's
//! [`Names`] table, rendered only by the line format and for a reported
//! candidate's sites.
//!
//! The crate also implements the *selective tracing* policy of §3.1.1
//! ([`TracedFunctions`]): only accesses inside RPC functions, socket-using
//! functions, event handlers, and their callees are recorded, which is what
//! lets the analysis scale (paper Table 8 shows full tracing exploding).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod format;
mod ids;
mod names;
mod record;
mod scope;
mod set;
mod stats;
mod stream;

pub use format::{format_record, parse_record, record_len, FormatError};
pub use ids::{
    EventId, ExecCtx, HandlerKind, Key, Location, LockRef, MemLoc, MemSpace, MsgId, RpcId, TaskId,
};
pub use names::{NameId, Names, StackId};
pub use record::{CallStack, OpKind, Record};
pub use scope::{TracedFunctions, TracingMode};
pub use set::{QueueInfo, TraceSet};
pub use stats::TraceStats;
pub use stream::{CauseKey, CollectSink, StreamControl, TraceSink};
