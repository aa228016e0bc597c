//! The two threads of a streamed run (DESIGN.md §14).
//!
//! [`Prepared::run_streamed`](crate::Prepared::run_streamed) steps the
//! simulator on a scoped thread of its own while the caller's sink
//! consumes what it emits on the caller's thread. The simulator's sink is
//! a [`Relay`]: it appends each record, control and step of the name
//! table's growth to a batch and hands full batches over a bounded
//! channel; the caller replays them into the real sink in order and sends
//! the emptied batches back for reuse. One producer, one FIFO channel and
//! a sink contract that returns nothing make the replay exact: the sink
//! sees the call sequence a sink on the simulator's thread would see, and
//! nothing it does can reach the simulator.

use std::panic::resume_unwind;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};

use dcatch_trace::{Growth, Names, NamesMark, Record, StreamControl, TraceSink};

use crate::world::RunResult;

/// Events per batch: large enough that a hand-over costs little per
/// record, small enough that the batches in flight stay a few pages.
const BATCH: usize = 256;

/// Every batch a run uses: one being filled, one being drained and two
/// more. The caller makes them all before the run starts, so the run
/// allocates none; when none is empty the simulator waits for the sink to
/// drain one, so memory stays bounded whatever the sink's pace.
const BATCHES: usize = 4;

/// One call the sink is to receive, or one step of the table it reads.
enum Event {
    Record(Record),
    Control(StreamControl),
    Grow(Growth),
    /// `TraceSink::names`, with the caller's copy of the table as it
    /// stands after the `Grow` steps before it.
    Names,
}

/// The streaming sink a `World` writes to: the simulator's half of the
/// relay.
pub(crate) struct Relay {
    batch: Vec<Event>,
    full: SyncSender<Vec<Event>>,
    empty: Receiver<Vec<Event>>,
    /// What of the run's table the caller's copy already holds.
    shown: NamesMark,
}

impl Relay {
    /// Sends `record` — after the growth of the run's table `names` since
    /// the last record and the `names` call showing it, when it grew.
    pub(crate) fn record(&mut self, names: &Names, record: &Record) {
        if names.grew_since(&self.shown) {
            let mut shown = self.shown;
            names.growth_since(&mut shown, |step| self.push(Event::Grow(step)));
            self.shown = shown;
            self.push(Event::Names);
        }
        self.push(Event::Record(*record));
    }

    pub(crate) fn control(&mut self, control: StreamControl) {
        self.push(Event::Control(control));
    }

    fn push(&mut self, event: Event) {
        self.batch.push(event);
        if self.batch.len() == BATCH {
            // an emptied batch, once the sink has drained one
            match self.empty.recv() {
                Ok(next) => self.hand_over(next),
                Err(_) => sink_gone(),
            }
        }
    }

    /// Sends the batch and goes on in `next`.
    fn hand_over(&mut self, next: Vec<Event>) {
        let batch = std::mem::replace(&mut self.batch, next);
        if self.full.send(batch).is_err() {
            sink_gone();
        }
    }
}

/// The sink unwound the caller and dropped its end of the relay: stops
/// the run, without a second panic message.
fn sink_gone() -> ! {
    resume_unwind(Box::new("the stream's sink is gone"))
}

/// Runs `run` on a thread of its own, its relay feeding `sink` on this
/// one; returns its result once the sink has seen everything it emitted.
///
/// The run is [`dcatch_obs::scope`]d: after the join its counters are
/// absorbed into this thread's and its spans grafted under the span open
/// here. A panic of the run is resumed here with its own payload once the
/// sink has drained what came before it; a panic of the sink drops the
/// channel, whose next hand-over stops the run.
pub(crate) fn relay(
    sink: &mut dyn TraceSink,
    run: impl FnOnce(&mut Relay) -> RunResult + Send,
) -> RunResult {
    // neither channel can fill: it holds at most the batches its sender
    // does not
    let (full_tx, full_rx) = sync_channel(BATCHES);
    let (empty_tx, empty_rx) = sync_channel(BATCHES);
    for _ in 1..BATCHES {
        let _ = empty_tx.send(Vec::with_capacity(BATCH));
    }
    let batch = Vec::with_capacity(BATCH);
    let verbose = dcatch_obs::trace::is_verbose();
    std::thread::scope(move |s| {
        let simulator = std::thread::Builder::new()
            .name("sim".to_owned())
            .spawn_scoped(s, move || {
                dcatch_obs::trace::set_verbose(verbose);
                dcatch_obs::scope("relay", || {
                    let mut relay = Relay {
                        batch,
                        full: full_tx,
                        empty: empty_rx,
                        shown: NamesMark::default(),
                    };
                    let result = run(&mut relay);
                    relay.hand_over(Vec::new());
                    result
                })
            })
            .expect("spawn the simulator thread");
        let mut names = Names::new();
        for mut batch in full_rx.iter() {
            for event in batch.drain(..) {
                match event {
                    Event::Record(record) => sink.record(&record),
                    Event::Control(control) => sink.control(control),
                    Event::Grow(step) => names.grow(step),
                    Event::Names => sink.names(&names),
                }
            }
            // fails only once the run is over and wants no batch back
            let _ = empty_tx.send(batch);
        }
        let (result, metrics, spans) = simulator.join().unwrap_or_else(|p| resume_unwind(p));
        dcatch_obs::metrics::absorb(&metrics);
        dcatch_obs::trace::graft(&spans);
        result
    })
}
