//! Live progress for long multi-item runs (`detect all --jobs N`,
//! `dcatch faults all`).
//!
//! Each item walks a small state machine — *queued → running → done* (or
//! *degraded* when it ends in a structured error) — and the reporter
//! repaints a single stderr status line with the tallies, the currently
//! running items, and an ETA extrapolated from the **median** duration of
//! completed items (medians survive one outlier benchmark; means do not).
//!
//! The reporter is deliberately boring where it matters:
//!
//! * **rate-limited** — repaints at most every 100 ms (state changes are
//!   tracked regardless; the next repaint catches up), so thousands of
//!   items cannot melt the terminal;
//! * **TTY-gated** — writes nothing when stderr is not a terminal
//!   (redirected logs stay clean). `DCATCH_PROGRESS=1`/`0` forces it on or
//!   off, which is how tests and the smoke scripts exercise it;
//! * **thread-safe** — state sits behind a mutex; pipeline workers report
//!   transitions from any thread.
//!
//! The status line is plain `\r`-rewritten text, cleared on [`Progress::
//! finish`], so it composes with ordinary println-style output around it.

use std::io::{IsTerminal, Write};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Lifecycle of one tracked item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemState {
    /// Not started yet.
    Queued,
    /// Currently running.
    Running,
    /// Finished cleanly.
    Done,
    /// Finished in a structured error (panic, watchdog, failed run).
    Degraded,
}

#[derive(Debug)]
struct Item {
    label: String,
    state: ItemState,
    started: Option<Instant>,
    elapsed: Option<Duration>,
}

#[derive(Debug)]
struct State {
    items: Vec<Item>,
    last_paint: Option<Instant>,
    /// Length of the last painted line, for clean `\r` overwrites.
    painted_width: usize,
}

/// A single-line stderr progress reporter. See the module docs.
#[derive(Debug)]
pub struct Progress {
    label: String,
    enabled: bool,
    state: Mutex<State>,
}

/// Minimum interval between repaints.
const PAINT_INTERVAL: Duration = Duration::from_millis(100);

/// Whether progress lines should be written at all: the
/// `DCATCH_PROGRESS` override when set (`1`/`0`), else whether stderr is
/// a terminal.
pub fn stderr_wants_progress() -> bool {
    match std::env::var("DCATCH_PROGRESS") {
        Ok(v) if v == "1" => true,
        Ok(v) if v == "0" => false,
        _ => std::io::stderr().is_terminal(),
    }
}

impl Progress {
    /// A reporter over `labels.len()` queued items. `label` prefixes the
    /// status line (`detect`, `faults`…); `enabled` is usually
    /// [`stderr_wants_progress`].
    pub fn with_enabled(
        label: &str,
        labels: impl IntoIterator<Item = String>,
        enabled: bool,
    ) -> Progress {
        Progress {
            label: label.to_owned(),
            enabled,
            state: Mutex::new(State {
                items: labels
                    .into_iter()
                    .map(|label| Item {
                        label,
                        state: ItemState::Queued,
                        started: None,
                        elapsed: None,
                    })
                    .collect(),
                last_paint: None,
                painted_width: 0,
            }),
        }
    }

    /// Marks item `index` running.
    pub fn start(&self, index: usize) {
        self.transition(index, ItemState::Running);
    }

    /// Marks item `index` finished; `degraded` records a structured error
    /// instead of a clean completion.
    pub fn complete(&self, index: usize, degraded: bool) {
        self.transition(
            index,
            if degraded {
                ItemState::Degraded
            } else {
                ItemState::Done
            },
        );
    }

    /// Clears the status line and prints a final one-line summary (always
    /// newline-terminated). A no-op when reporting is disabled.
    pub fn finish(&self) {
        if !self.enabled {
            return;
        }
        let mut s = self.state.lock().expect("progress state");
        let line = render_line(&self.label, &s.items, None);
        let width = s.painted_width.max(line.chars().count());
        let mut err = std::io::stderr().lock();
        let _ = write!(err, "\r{:<width$}\r{line}\n", "");
        let _ = err.flush();
        s.painted_width = 0;
    }

    fn transition(&self, index: usize, to: ItemState) {
        let mut s = self.state.lock().expect("progress state");
        let now = Instant::now();
        {
            let item = &mut s.items[index];
            match to {
                ItemState::Running => item.started = Some(now),
                ItemState::Done | ItemState::Degraded => {
                    item.elapsed = item.started.map(|t| now - t);
                }
                ItemState::Queued => {}
            }
            item.state = to;
        }
        if !self.enabled {
            return;
        }
        // rate limit: skip the repaint when the last one was <100ms ago;
        // the state above is already updated, so the next paint catches up
        if s.last_paint.is_some_and(|t| now - t < PAINT_INTERVAL) {
            return;
        }
        s.last_paint = Some(now);
        let eta = eta(&s.items, now);
        let line = render_line(&self.label, &s.items, eta);
        let width = line.chars().count();
        let pad = s.painted_width.saturating_sub(width);
        s.painted_width = width;
        let mut err = std::io::stderr().lock();
        let _ = write!(err, "\r{line}{:<pad$}", "");
        let _ = err.flush();
    }
}

/// ETA from the median completed duration: `median × remaining ÷
/// parallelism`, where parallelism is estimated as the number of items
/// currently running (≥1). `None` until at least one item completed.
fn eta(items: &[Item], now: Instant) -> Option<Duration> {
    let mut completed: Vec<Duration> = items.iter().filter_map(|i| i.elapsed).collect();
    if completed.is_empty() {
        return None;
    }
    completed.sort_unstable();
    let median = completed[completed.len() / 2];
    let running: Vec<&Item> = items
        .iter()
        .filter(|i| i.state == ItemState::Running)
        .collect();
    let queued = items
        .iter()
        .filter(|i| i.state == ItemState::Queued)
        .count();
    if running.is_empty() && queued == 0 {
        return Some(Duration::ZERO);
    }
    // running items get credit for the time they have already spent
    let outstanding: Duration = running
        .iter()
        .map(|i| {
            let spent = i.started.map_or(Duration::ZERO, |t| now - t);
            median.saturating_sub(spent)
        })
        .sum::<Duration>()
        + median * queued as u32;
    Some(outstanding / running.len().max(1) as u32)
}

/// Renders the status line. Pure, for tests.
fn render_line(label: &str, items: &[Item], eta: Option<Duration>) -> String {
    use std::fmt::Write as _;
    let count = |s: ItemState| items.iter().filter(|i| i.state == s).count();
    let (done, degraded, running) = (
        count(ItemState::Done),
        count(ItemState::Degraded),
        count(ItemState::Running),
    );
    let mut line = format!("[{label}] {}/{} done", done + degraded, items.len());
    if degraded > 0 {
        let _ = write!(line, ", {degraded} degraded");
    }
    if running > 0 {
        let names: Vec<&str> = items
            .iter()
            .filter(|i| i.state == ItemState::Running)
            .take(3)
            .map(|i| i.label.as_str())
            .collect();
        let more = running.saturating_sub(names.len());
        let _ = write!(line, ", {running} running ({}", names.join(" "));
        if more > 0 {
            let _ = write!(line, " +{more}");
        }
        line.push(')');
    }
    match eta {
        Some(d) if done + degraded < items.len() => {
            let _ = write!(line, ", ETA ~{:.1}s", d.as_secs_f64());
        }
        _ => {}
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(label: &str, state: ItemState, elapsed_ms: Option<u64>) -> Item {
        Item {
            label: label.to_owned(),
            state,
            started: None,
            elapsed: elapsed_ms.map(Duration::from_millis),
        }
    }

    #[test]
    fn state_machine_transitions() {
        let p = Progress::with_enabled("t", ["a".to_owned(), "b".to_owned()], false);
        let state_of = |p: &Progress, i: usize| p.state.lock().expect("state").items[i].state;
        assert_eq!(state_of(&p, 0), ItemState::Queued);
        p.start(0);
        assert_eq!(state_of(&p, 0), ItemState::Running);
        p.complete(0, false);
        assert_eq!(state_of(&p, 0), ItemState::Done);
        p.start(1);
        p.complete(1, true);
        assert_eq!(state_of(&p, 1), ItemState::Degraded);
        p.finish(); // disabled: must not write or panic
    }

    #[test]
    fn eta_uses_median_of_completed() {
        let now = Instant::now();
        // completed durations 10ms / 20ms / 500ms → median 20ms; one
        // queued item, nothing running → 20ms outstanding
        let items = vec![
            item("a", ItemState::Done, Some(10)),
            item("b", ItemState::Done, Some(20)),
            item("c", ItemState::Degraded, Some(500)),
            item("d", ItemState::Queued, None),
        ];
        assert_eq!(eta(&items, now), Some(Duration::from_millis(20)));
        assert_eq!(
            eta(&[item("a", ItemState::Queued, None)], now),
            None,
            "no ETA before the first completion"
        );
    }

    #[test]
    fn render_counts_and_labels() {
        let items = vec![
            item("MR-3274", ItemState::Done, Some(5)),
            item("ZK-1144", ItemState::Running, None),
            item("HB-4729", ItemState::Degraded, Some(9)),
            item("CA-6025", ItemState::Queued, None),
        ];
        let line = render_line("detect", &items, Some(Duration::from_millis(1500)));
        assert!(line.contains("[detect] 2/4 done"), "{line}");
        assert!(line.contains("1 degraded"), "{line}");
        assert!(line.contains("1 running (ZK-1144)"), "{line}");
        assert!(line.contains("ETA ~1.5s"), "{line}");
        // finished run: no ETA tail
        let done = vec![item("a", ItemState::Done, Some(5))];
        let line = render_line("detect", &done, Some(Duration::ZERO));
        assert!(!line.contains("ETA"), "{line}");
    }
}
