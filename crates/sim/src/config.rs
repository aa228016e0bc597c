//! Simulation configuration.

use std::collections::BTreeSet;

use dcatch_trace::TracingMode;

use crate::fault::FaultPlan;

/// Focused value-tracing configuration for the loop-synchronization
/// analysis' second run (paper §3.2.1: "we will then run the targeted
/// software again, tracing only such `r`s and all writes that touch the
/// same object").
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FocusConfig {
    /// Shared object names whose accesses are traced *with values*.
    /// All other memory accesses are dropped from the focused trace.
    pub objects: BTreeSet<String>,
    /// Where the run stops: right after the step that emits its n-th loop
    /// marker (a retry loop's `LoopEnter` or `LoopExit` record); `Some(0)`
    /// stops it before its first step. `None` runs it to the end.
    pub stop_after_loop_markers: Option<usize>,
}

impl FocusConfig {
    /// Focus on the given object names, for the whole run.
    pub fn on(objects: impl IntoIterator<Item = impl Into<String>>) -> FocusConfig {
        FocusConfig {
            objects: objects.into_iter().map(Into::into).collect(),
            stop_after_loop_markers: None,
        }
    }

    /// The same focus, stopping the run right after its `markers`-th loop
    /// marker.
    pub fn stop_after(self, markers: usize) -> FocusConfig {
        FocusConfig {
            stop_after_loop_markers: Some(markers),
            ..self
        }
    }
}

/// Knobs of one simulated execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimConfig {
    /// Scheduler seed; same seed ⇒ identical execution and trace.
    pub seed: u64,
    /// Memory-access tracing policy (paper §3.1.1 vs Table 8 baseline).
    pub tracing: TracingMode,
    /// Whether to produce a trace at all (triggering re-runs may disable).
    pub trace_enabled: bool,
    /// Focused value-tracing (second run of loop-sync analysis).
    pub focus: Option<FocusConfig>,
    /// Global step budget; exceeding it reports a hang.
    pub max_steps: u64,
    /// Iterations a single retry-loop activation may spin before the run
    /// declares a livelock hang (the MR-3274 `getTask` loop).
    pub retry_loop_budget: u32,
    /// Deterministic fault-injection plan. The default (empty) plan is a
    /// strict no-op: the run is byte-identical to one without it.
    pub faults: FaultPlan,
    /// Memory-access trace sampling: keep every `mem_sample_rate`-th
    /// traceable memory access (1 = keep all). Sampling never touches
    /// HB-related records — the graph stays exact — and never perturbs the
    /// execution itself: the schedule, and therefore every kept record, is
    /// byte-identical to the unsampled run. The governor's tracing rung
    /// re-runs with a rate > 1 when the full trace exceeds its memory
    /// budget. Focused runs (loop-sync value tracing) ignore the rate.
    pub mem_sample_rate: u32,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            seed: 0xDCA7C4,
            tracing: TracingMode::Selective,
            trace_enabled: true,
            focus: None,
            max_steps: 2_000_000,
            retry_loop_budget: 200,
            faults: FaultPlan::default(),
            mem_sample_rate: 1,
        }
    }
}

impl SimConfig {
    /// Same configuration with a different seed.
    pub fn with_seed(mut self, seed: u64) -> SimConfig {
        self.seed = seed;
        self
    }

    /// Same configuration with full (unselective) memory tracing.
    pub fn with_full_tracing(mut self) -> SimConfig {
        self.tracing = TracingMode::Full;
        self
    }

    /// Same configuration with focused value tracing enabled.
    pub fn with_focus(mut self, focus: FocusConfig) -> SimConfig {
        self.focus = Some(focus);
        self
    }

    /// Same configuration with a fault-injection plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> SimConfig {
        self.faults = faults;
        self
    }

    /// Same configuration with memory-access trace sampling (keep every
    /// `rate`-th access; rates below 1 are clamped to 1).
    pub fn with_mem_sample_rate(mut self, rate: u32) -> SimConfig {
        self.mem_sample_rate = rate.max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let c = SimConfig::default()
            .with_seed(7)
            .with_full_tracing()
            .with_focus(FocusConfig::on(["jMap"]));
        assert_eq!(c.seed, 7);
        assert_eq!(c.tracing, TracingMode::Full);
        assert!(c.focus.unwrap().objects.contains("jMap"));
    }
}
