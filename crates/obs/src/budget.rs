//! Resource-budget governor: graceful degradation under pressure.
//!
//! The paper names tracing and analysis cost as DCatch's deployment
//! blocker (§6, Tables 6/8), and the pipeline's historical answers to
//! resource pressure were binary — an `OutOfMemory` outcome or a watchdog
//! kill. The governor replaces that cliff with a *ladder*: each pipeline
//! stage consults the installed budgets at its boundaries and, instead of
//! aborting, steps down to a cheaper strategy (full → rate-sampled memory
//! tracing, HB graph → streaming window, triggering → cancelled),
//! recording every step as a
//! first-class [`DegradationEvent`] that lands in the run report.
//!
//! The governor is **thread-local**, exactly like the metrics registry:
//! the pipeline runs every benchmark on a dedicated thread, so installing
//! a governor there scopes its budget accounting and harvested events to
//! that one run — concurrent benchmarks never see each other's state.
//! Farm worker threads spawned *below* a governed run do not inherit it;
//! the pipeline reads [`deadline`] on its own thread and passes the plain
//! `Instant` down instead.
//!
//! **Determinism.** Memory-driven rungs decide from deterministic
//! quantities (trace byte sizes, reachability-index estimates), so the
//! same inputs and budgets always degrade the same way and the reports
//! stay byte-comparable. Time-driven rungs are inherently wall-clock
//! dependent and are documented as such; events deliberately carry no
//! timestamps so a report that degraded identically serializes
//! identically.

use std::cell::RefCell;
use std::time::{Duration, Instant};

/// Resource budgets for one governed run. `None` means unlimited.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Budget {
    /// Memory ceiling in bytes, covering the dominant per-run footprints
    /// (the trace and the reachability index).
    pub mem_bytes: Option<usize>,
    /// Wall-clock ceiling for the whole run.
    pub time: Option<Duration>,
}

impl Budget {
    /// Whether any ceiling is set.
    pub fn is_bounded(&self) -> bool {
        self.mem_bytes.is_some() || self.time.is_some()
    }
}

/// One rung-step the governor took, reported first-class in the run
/// report (schema v5). Carries no wall-clock readings: two runs that
/// degrade identically must serialize identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradationEvent {
    /// Pipeline stage that degraded (`tracing`, `trace_analysis`,
    /// `loop_sync`, `triggering`).
    pub stage: String,
    /// Strategy the stage would have used.
    pub from: String,
    /// Strategy it stepped down to.
    pub to: String,
    /// Why (which budget, and the deterministic quantities that tripped
    /// it).
    pub reason: String,
}

struct Governor {
    mem_bytes: Option<usize>,
    deadline: Option<Instant>,
    events: Vec<DegradationEvent>,
}

thread_local! {
    static GOVERNOR: RefCell<Option<Governor>> = const { RefCell::new(None) };
}

/// Installs a governor on this thread. A budget with no ceilings installs
/// nothing — every query then reports the governor as absent (pressure
/// surfaces as the hard outcomes: OOM reports, watchdog kills). Replaces
/// any previously installed governor.
pub fn install(budget: Budget) {
    GOVERNOR.with_borrow_mut(|g| {
        *g = budget.is_bounded().then(|| Governor {
            mem_bytes: budget.mem_bytes,
            deadline: budget.time.map(|t| Instant::now() + t),
            events: Vec::new(),
        });
    });
}

/// Removes this thread's governor and returns the degradation events it
/// recorded (empty when none was installed).
pub fn uninstall() -> Vec<DegradationEvent> {
    GOVERNOR.with_borrow_mut(|g| g.take().map(|g| g.events).unwrap_or_default())
}

/// Whether a governor is installed on this thread.
pub fn active() -> bool {
    GOVERNOR.with_borrow(|g| g.is_some())
}

/// The installed memory ceiling, if any.
pub fn mem_budget() -> Option<usize> {
    GOVERNOR.with_borrow(|g| g.as_ref().and_then(|g| g.mem_bytes))
}

/// The installed wall-clock deadline, if any. Stage code passes this down
/// to worker pools (worker threads do not see this thread's governor).
pub fn deadline() -> Option<Instant> {
    GOVERNOR.with_borrow(|g| g.as_ref().and_then(|g| g.deadline))
}

/// Whether the wall-clock budget has run out.
pub fn time_expired() -> bool {
    deadline().is_some_and(|d| Instant::now() >= d)
}

/// Records one ladder step against this thread's governor (and the
/// `governor_degradations_total` counter). A no-op when no governor is
/// installed — stages may call it unconditionally.
pub fn record(event: DegradationEvent) {
    GOVERNOR.with_borrow_mut(|g| {
        if let Some(g) = g.as_mut() {
            crate::counter!("governor_degradations_total").inc();
            g.events.push(event);
        }
    });
}

/// Parses a byte count with an optional `k`/`m`/`g` suffix (powers of
/// 1024, case-insensitive): `65536`, `64k`, `64M`, `1g`.
pub fn parse_bytes(s: &str) -> Result<usize, String> {
    let t = s.trim();
    let (digits, shift) = match t.chars().last() {
        Some('k' | 'K') => (&t[..t.len() - 1], 10),
        Some('m' | 'M') => (&t[..t.len() - 1], 20),
        Some('g' | 'G') => (&t[..t.len() - 1], 30),
        _ => (t, 0),
    };
    let n: usize = digits
        .parse()
        .map_err(|_| format!("invalid byte count `{s}` (expected e.g. 65536, 64k, 64m, 1g)"))?;
    n.checked_shl(shift)
        .filter(|&v| v >> shift == n)
        .ok_or_else(|| format!("byte count `{s}` overflows"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_and_harvest_are_thread_local() {
        install(Budget {
            mem_bytes: Some(1024),
            time: None,
        });
        assert!(active());
        assert_eq!(mem_budget(), Some(1024));
        record(DegradationEvent {
            stage: "tracing".into(),
            from: "full".into(),
            to: "sampled".into(),
            reason: "test".into(),
        });
        let other = std::thread::spawn(|| (active(), mem_budget()))
            .join()
            .expect("probe thread");
        assert_eq!(
            other,
            (false, None),
            "governor must not leak across threads"
        );
        let events = uninstall();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].stage, "tracing");
        assert!(!active());
        assert!(uninstall().is_empty(), "second harvest is empty");
    }

    #[test]
    fn off_mode_and_empty_budgets_install_nothing() {
        // no ceilings is the governor's only "off" state
        install(Budget::default());
        assert!(!active());
        record(DegradationEvent {
            stage: "x".into(),
            from: "a".into(),
            to: "b".into(),
            reason: "ignored".into(),
        });
        assert!(uninstall().is_empty());
    }

    #[test]
    fn time_budget_expires() {
        install(Budget {
            mem_bytes: None,
            time: Some(Duration::ZERO),
        });
        assert!(active());
        assert!(time_expired());
        uninstall();
        assert!(!time_expired(), "no governor, no deadline");
    }

    #[test]
    fn parse_bytes_accepts_suffixes() {
        assert_eq!(parse_bytes("65536"), Ok(65536));
        assert_eq!(parse_bytes("64k"), Ok(64 << 10));
        assert_eq!(parse_bytes("64M"), Ok(64 << 20));
        assert_eq!(parse_bytes("1g"), Ok(1 << 30));
        assert!(parse_bytes("").is_err());
        assert!(parse_bytes("64q").is_err());
        assert!(parse_bytes("k").is_err());
    }
}
