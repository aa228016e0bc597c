//! The scheduler's ready list, kept across steps instead of rebuilt.
//!
//! The seeded pick indexes one ordered list: ready tasks by task index,
//! then deliverable messages by network index. [`ReadyList`] holds it as
//! two sorted vectors and changes them in place. Whatever changes a task's
//! state marks the task ([`ReadyList::mark`]); whatever makes a work source
//! empty or non-empty — the inbox of `world/net.rs` — marks the idle
//! workers that wait on it ([`ReadyList::mark_source`]). Before the next pick the world asks the
//! readiness predicate again for the marked tasks only
//! ([`ReadyList::take_mark`], [`ReadyList::set_ready`]). A message enters
//! the list when it is sent and leaves it when it is delivered. Time alone
//! changes readiness in two ways, a sleeper's wake-up and a delayed
//! message's delivery step; both are timers in one min-heap, so a wake-up
//! and a quiescent clock jump read the earliest timer instead of scanning.
//!
//! Invariant: once the marks are settled, the list is what a full scan of
//! the world gives. A debug build checks that before every pick the list
//! was not rebuilt for.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One entry of the pick list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Action {
    RunTask(usize),
    Deliver(usize),
}

/// What a timer does when its step comes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(super) enum Timer {
    /// Task `t`, sleeping until the timer's step, wakes — if it still
    /// sleeps until then (a crash ends a sleep early).
    Wake(usize),
    /// A delayed message becomes deliverable.
    Delivery,
}

#[derive(Debug, Default, Clone)]
pub(super) struct ReadyList {
    /// Ready tasks, ascending.
    tasks: Vec<usize>,
    /// Network indices of deliverable messages, ascending.
    msgs: Vec<usize>,
    /// `listed[t]`: `t` is in `tasks`.
    listed: Vec<bool>,
    /// `marked[t]`: `t` is in `dirty`.
    marked: Vec<bool>,
    /// Tasks whose readiness must be asked again before the next pick.
    dirty: Vec<usize>,
    /// Workers by the work source they wait on, when idle.
    workers: Vec<Vec<usize>>,
    timers: BinaryHeap<Reverse<(u64, Timer)>>,
}

impl ReadyList {
    pub(super) fn len(&self) -> usize {
        self.tasks.len() + self.msgs.len()
    }

    pub(super) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entry `pick` of the list.
    pub(super) fn get(&self, pick: usize) -> Action {
        match self.tasks.get(pick) {
            Some(&t) => Action::RunTask(t),
            None => Action::Deliver(self.msgs[pick - self.tasks.len()]),
        }
    }

    /// The list, in pick order.
    #[cfg(any(test, debug_assertions))]
    pub(super) fn iter(&self) -> impl Iterator<Item = Action> + '_ {
        let tasks = self.tasks.iter().map(|&t| Action::RunTask(t));
        tasks.chain(self.msgs.iter().map(|&m| Action::Deliver(m)))
    }

    // -- full scan --------------------------------------------------------

    /// Empties the list and drops every mark, for a full scan to refill
    /// with [`push`](Self::push). Timers and workers stay.
    pub(super) fn clear(&mut self) {
        self.tasks.clear();
        self.msgs.clear();
        self.listed.fill(false);
        for t in self.dirty.drain(..) {
            self.marked[t] = false;
        }
    }

    /// Appends `a`; a full scan pushes in pick order.
    pub(super) fn push(&mut self, a: Action) {
        match a {
            Action::RunTask(t) => {
                debug_assert!(self.tasks.last().is_none_or(|&last| last < t));
                self.grow(t);
                self.listed[t] = true;
                self.tasks.push(t);
            }
            Action::Deliver(m) => self.msgs.push(m),
        }
    }

    // -- tasks --------------------------------------------------------------

    fn grow(&mut self, t: usize) {
        if t >= self.listed.len() {
            self.listed.resize(t + 1, false);
            self.marked.resize(t + 1, false);
        }
    }

    /// Notes that task `t`'s readiness may have changed.
    pub(super) fn mark(&mut self, t: usize) {
        self.grow(t);
        if !self.marked[t] {
            self.marked[t] = true;
            self.dirty.push(t);
        }
    }

    /// Registers `t` as a worker idling on work source `source`.
    pub(super) fn add_worker(&mut self, source: usize, t: usize) {
        self.grow(t);
        if source >= self.workers.len() {
            self.workers.resize_with(source + 1, Vec::new);
        }
        self.workers[source].push(t);
    }

    /// Marks every worker of `source`: it became empty or non-empty.
    pub(super) fn mark_source(&mut self, source: usize) {
        let Some(workers) = self.workers.get(source) else {
            return;
        };
        for &t in workers {
            if !self.marked[t] {
                self.marked[t] = true;
                self.dirty.push(t);
            }
        }
    }

    /// A marked task, unmarked; its readiness is then [`set_ready`](Self::set_ready).
    pub(super) fn take_mark(&mut self) -> Option<usize> {
        let t = self.dirty.pop()?;
        self.marked[t] = false;
        Some(t)
    }

    /// Lists task `t` when `ready`, unlists it otherwise.
    pub(super) fn set_ready(&mut self, t: usize, ready: bool) {
        if self.listed[t] == ready {
            return;
        }
        self.listed[t] = ready;
        match self.tasks.binary_search(&t) {
            Err(at) => self.tasks.insert(at, t),
            Ok(at) => {
                self.tasks.remove(at);
            }
        }
    }

    // -- messages -----------------------------------------------------------

    /// Message `m`, the network's last, is deliverable from the next pick.
    pub(super) fn sent(&mut self, m: usize) {
        debug_assert!(self.msgs.last().is_none_or(|&last| last < m));
        self.msgs.push(m);
    }

    /// Deliverable message `m` left the network: later ones shift down.
    pub(super) fn delivered(&mut self, m: usize) {
        let at = self
            .msgs
            .binary_search(&m)
            .expect("a delivered message was listed");
        self.msgs.remove(at);
        for later in &mut self.msgs[at..] {
            *later -= 1;
        }
    }

    /// Replaces the deliverable messages, after a delayed one came due.
    pub(super) fn set_messages(&mut self, msgs: impl Iterator<Item = usize>) {
        self.msgs.clear();
        self.msgs.extend(msgs);
    }

    // -- timers -------------------------------------------------------------

    pub(super) fn add_timer(&mut self, at: u64, timer: Timer) {
        self.timers.push(Reverse((at, timer)));
    }

    /// Removes and returns a timer due at or before `now`.
    pub(super) fn pop_due(&mut self, now: u64) -> Option<(u64, Timer)> {
        let &Reverse((at, _)) = self.timers.peek()?;
        if at > now {
            return None;
        }
        self.timers.pop().map(|Reverse(timer)| timer)
    }

    /// The earliest timer, left in place.
    pub(super) fn next_timer(&self) -> Option<(u64, Timer)> {
        self.timers.peek().map(|&Reverse(timer)| timer)
    }

    /// Drops the earliest timer (one that no longer applies).
    pub(super) fn drop_next_timer(&mut self) {
        self.timers.pop();
    }
}

#[cfg(test)]
mod tests {
    use dcatch_obs::rng::SmallRng;

    use super::*;

    /// The list a full scan would give for `ready` tasks and `net`
    /// messages, each `(sent, deliverable)`.
    fn scan(ready: &[bool], net: &[bool]) -> Vec<Action> {
        let tasks = (0..ready.len()).filter(|&t| ready[t]).map(Action::RunTask);
        let msgs = (0..net.len()).filter(|&m| net[m]).map(Action::Deliver);
        tasks.chain(msgs).collect()
    }

    /// Random state changes, each marked the way the world marks it,
    /// settled before every comparison: the kept list always equals the
    /// scan. Sources flip whole worker groups; a delayed message comes due
    /// by re-derivation, an undelayed one by `sent`.
    #[test]
    fn a_settled_list_equals_the_scan() {
        for seed in 0..40 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut list = ReadyList::default();
            // own readiness of each task, and the source (0..3) a worker
            // idles on with whether it has work
            let mut own: Vec<bool> = Vec::new();
            let mut source_of: Vec<Option<usize>> = Vec::new();
            let mut has_work = [false; 3];
            let mut net: Vec<bool> = Vec::new();
            let ready = |own: &[bool], source_of: &[Option<usize>], has_work: &[bool; 3]| {
                (0..own.len())
                    .map(|t| own[t] || source_of[t].is_some_and(|s| has_work[s]))
                    .collect::<Vec<bool>>()
            };
            for step in 0..400 {
                match rng.gen_range(7) {
                    0 => {
                        let worker = rng.gen_bool();
                        let t = own.len();
                        own.push(!worker && rng.gen_bool());
                        let source = worker.then(|| rng.gen_range(3));
                        source_of.push(source);
                        if let Some(s) = source {
                            list.add_worker(s, t);
                        }
                        list.mark(t);
                    }
                    1 | 2 if !own.is_empty() => {
                        let t = rng.gen_range(own.len());
                        own[t] = !own[t];
                        list.mark(t);
                    }
                    3 => {
                        let s = rng.gen_range(3);
                        has_work[s] = !has_work[s];
                        list.mark_source(s);
                    }
                    4 => {
                        net.push(true);
                        list.sent(net.len() - 1);
                    }
                    5 => net.push(false),
                    6 => {
                        let listed: Vec<usize> = (0..net.len()).filter(|&m| net[m]).collect();
                        if listed.is_empty() {
                            net.fill(true);
                            let due = (0..net.len()).filter(|&m| net[m]);
                            list.set_messages(due);
                        } else {
                            let m = listed[rng.gen_range(listed.len())];
                            net.remove(m);
                            list.delivered(m);
                        }
                    }
                    _ => {}
                }
                if rng.gen_range(3) == 0 {
                    while let Some(t) = list.take_mark() {
                        let r = ready(&own, &source_of, &has_work)[t];
                        list.set_ready(t, r);
                    }
                    let want = scan(&ready(&own, &source_of, &has_work), &net);
                    let kept: Vec<Action> = list.iter().collect();
                    assert_eq!(kept, want, "seed {seed} step {step}");
                    assert_eq!(list.len(), want.len());
                    for (pick, a) in want.iter().enumerate() {
                        assert_eq!(list.get(pick), *a);
                    }
                }
            }
        }
    }

    #[test]
    fn timers_come_due_in_step_order() {
        let mut list = ReadyList::default();
        list.add_timer(30, Timer::Delivery);
        list.add_timer(10, Timer::Wake(2));
        list.add_timer(10, Timer::Wake(1));
        list.add_timer(20, Timer::Wake(0));
        assert_eq!(list.next_timer(), Some((10, Timer::Wake(1))));
        assert_eq!(list.pop_due(9), None);
        assert_eq!(list.pop_due(10), Some((10, Timer::Wake(1))));
        assert_eq!(list.pop_due(10), Some((10, Timer::Wake(2))));
        assert_eq!(list.pop_due(10), None);
        list.drop_next_timer();
        assert_eq!(list.pop_due(100), Some((30, Timer::Delivery)));
        assert_eq!(list.next_timer(), None);
    }

    #[test]
    fn a_full_scan_drops_marks_and_refills() {
        let mut list = ReadyList::default();
        list.mark(3);
        list.push(Action::RunTask(3));
        list.sent(0);
        list.clear();
        assert!(list.is_empty());
        assert_eq!(list.take_mark(), None);
        list.push(Action::RunTask(1));
        list.push(Action::Deliver(4));
        assert_eq!(list.get(0), Action::RunTask(1));
        assert_eq!(list.get(1), Action::Deliver(4));
        // re-listing a listed task is a no-op
        list.set_ready(1, true);
        assert_eq!(list.len(), 2);
    }
}
