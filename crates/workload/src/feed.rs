//! Arrival prefetch: the flow sources of one run, drawn inline or ahead of
//! time on a helper thread.
//!
//! Every [`FlowSource`] is open loop: its arrival stream depends only on
//! its own state (seed, rate, activity window), never on what the network
//! did with earlier flows. So the stream can be drawn ahead of the
//! simulation on another thread and read back in the same order with the
//! same values. [`ArrivalFeed::prefetch`] moves the sources onto one
//! helper thread that serves all of them: per source it fills batches of
//! [`BATCH`] arrivals with at most [`DEPTH`] batches filled and not yet
//! handed back. Spent batches return to the helper and are refilled, so
//! the steady state allocates nothing. Until then (or if the helper cannot
//! be started) [`ArrivalFeed::next`] draws inline.
//!
//! The helper never waits on one source while the reader may be waiting
//! on another: it fills every source up to [`DEPTH`], breadth first, and
//! only then blocks, for any spent batch. An exhausted source's stream ends with an empty
//! batch. A source that panics sends the arrivals it drew before the
//! panic, then the panic, which the reader re-raises where an inline draw
//! would have panicked; the other sources carry on. A stream that closes
//! with neither means the helper itself died, and the reader re-raises
//! that panic too, never ending the stream early.

use crate::{FlowArrival, FlowSource};
use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::thread::JoinHandle;

/// Arrivals per prefetched batch.
pub const BATCH: usize = 1024;

/// Most batches of one source that are filled and not yet handed back
/// (the one being read included).
pub const DEPTH: usize = 2;

/// Arrivals in reverse order, so the reader pops them off the end.
type Batch = Vec<FlowArrival>;

/// What a source's stream carries: a batch, the empty batch that ends it,
/// or the panic that ended it.
type Filled = Result<Batch, Box<dyn Any + Send>>;

/// The flow sources of one run, read by index.
#[derive(Default)]
pub struct ArrivalFeed {
    mode: Mode,
}

enum Mode {
    Inline(Vec<Box<dyn FlowSource>>),
    Prefetch(Prefetch),
}

impl Default for Mode {
    fn default() -> Self {
        Mode::Inline(Vec::new())
    }
}

impl ArrivalFeed {
    /// A feed with no sources, drawing inline.
    pub fn new() -> Self {
        ArrivalFeed::default()
    }

    /// Add a source; its index is the number of sources added before it.
    ///
    /// # Panics
    ///
    /// Panics once the feed prefetches: the helper owns the sources then.
    pub fn push(&mut self, source: Box<dyn FlowSource>) {
        match &mut self.mode {
            Mode::Inline(sources) => sources.push(source),
            Mode::Prefetch(_) => panic!("source added to a prefetching arrival feed"),
        }
    }

    /// Number of sources.
    pub fn len(&self) -> usize {
        match &self.mode {
            Mode::Inline(sources) => sources.len(),
            Mode::Prefetch(p) => p.lanes.len(),
        }
    }

    /// True if the feed has no source.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True once a helper thread draws the arrivals.
    pub fn is_prefetching(&self) -> bool {
        matches!(self.mode, Mode::Prefetch(_))
    }

    /// Move the sources onto a helper thread that draws ahead of
    /// [`next`](Self::next). Returns whether the feed now prefetches: a
    /// feed without sources, or one whose helper the OS would not start,
    /// keeps drawing inline.
    pub fn prefetch(&mut self) -> bool {
        let sources = match &mut self.mode {
            Mode::Inline(sources) if !sources.is_empty() => std::mem::take(sources),
            Mode::Inline(_) => return false,
            Mode::Prefetch(_) => return true,
        };
        self.mode = match Prefetch::start(sources) {
            Ok(p) => Mode::Prefetch(p),
            Err(sources) => Mode::Inline(sources),
        };
        self.is_prefetching()
    }

    /// The next arrival of source `source`, or `None` once it is
    /// exhausted.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of a source whose next arrival the helper
    /// failed to draw, where an inline draw would have panicked.
    #[inline]
    pub fn next(&mut self, source: usize) -> Option<FlowArrival> {
        match &mut self.mode {
            Mode::Inline(sources) => sources[source].next_arrival(),
            Mode::Prefetch(p) => match p.lanes[source].batch.pop() {
                Some(arrival) => Some(arrival),
                None => p.refill(source),
            },
        }
    }
}

/// The reader's end of a prefetching feed.
struct Prefetch {
    lanes: Vec<Lane>,
    /// Spent batches back to the helper, tagged with their source. `None`
    /// only while dropping, so the helper sees the hang-up.
    spent: Option<SyncSender<(usize, Batch)>>,
    /// `None` once joined.
    helper: Option<JoinHandle<()>>,
}

/// One source's stream, as the reader sees it.
struct Lane {
    /// The batch being read (reversed).
    batch: Batch,
    filled: Receiver<Filled>,
    ended: bool,
}

impl Prefetch {
    /// Start the helper and hand it `sources`; gives them back if the
    /// thread cannot be started.
    fn start(sources: Vec<Box<dyn FlowSource>>) -> Result<Prefetch, Vec<Box<dyn FlowSource>>> {
        // The sources travel over a channel rather than in the closure, so
        // a failed spawn leaves them here.
        let (handoff, handed) = mpsc::sync_channel::<Producer>(1);
        let spawned = std::thread::Builder::new()
            .name("arrival-prefetch".into())
            .spawn(move || {
                if let Ok(producer) = handed.recv() {
                    producer.run();
                }
            });
        let Ok(helper) = spawned else {
            return Err(sources);
        };
        let n = sources.len();
        // Neither channel can fill up: a source has at most `DEPTH` batches
        // out plus its end marker, and at most `DEPTH` spent ones.
        let (spent, returns) = mpsc::sync_channel(n * DEPTH);
        let (lanes, outs) = (0..n)
            .map(|_| {
                let (out, filled) = mpsc::sync_channel(DEPTH + 1);
                let lane = Lane {
                    batch: Vec::new(),
                    filled,
                    ended: false,
                };
                let out = ProducerLane {
                    out: Some(out),
                    in_flight: 0,
                    spare: Vec::new(),
                };
                (lane, out)
            })
            .unzip();
        let producer = Producer {
            sources,
            lanes: outs,
            returns,
        };
        if let Err(mpsc::SendError(producer)) = handoff.send(producer) {
            return Err(producer.sources);
        }
        Ok(Prefetch {
            lanes,
            spent: Some(spent),
            helper: Some(helper),
        })
    }

    /// Hand back the spent batch of `source` and read its next one.
    #[cold]
    fn refill(&mut self, source: usize) -> Option<FlowArrival> {
        let lane = &mut self.lanes[source];
        if lane.ended {
            return None;
        }
        let spent = std::mem::take(&mut lane.batch);
        if spent.capacity() > 0 {
            if let Some(tx) = &self.spent {
                // Fails only once the helper is done with every source.
                let _ = tx.send((source, spent));
            }
        }
        match lane.filled.recv() {
            Ok(Ok(batch)) if batch.is_empty() => {
                lane.ended = true;
                None
            }
            Ok(Ok(batch)) => {
                lane.batch = batch;
                lane.batch.pop()
            }
            Ok(Err(source_panic)) => {
                lane.ended = true;
                panic::resume_unwind(source_panic)
            }
            Err(_) => self.reraise(),
        }
    }

    /// A stream closed without its end: the helper died outside a draw.
    /// Join it and continue its panic here.
    #[cold]
    fn reraise(&mut self) -> ! {
        let helper = self
            .helper
            .take()
            .expect("arrival prefetch helper joined twice");
        match helper.join() {
            Err(helper_panic) => panic::resume_unwind(helper_panic),
            Ok(()) => unreachable!("arrival prefetch helper closed a stream before its end"),
        }
    }
}

impl Drop for Prefetch {
    fn drop(&mut self) {
        // Hang up first, so a helper waiting for a spent batch or sending a
        // filled one stops, then wait for it.
        self.spent = None;
        self.lanes.clear();
        if let Some(helper) = self.helper.take() {
            // Source panics travel in their streams; one the reader never
            // met came from a draw past the last arrival it read, which the
            // inline path never makes.
            let _ = helper.join();
        }
    }
}

/// The helper's side: every source, and per source its channel state.
struct Producer {
    sources: Vec<Box<dyn FlowSource>>,
    lanes: Vec<ProducerLane>,
    returns: Receiver<(usize, Batch)>,
}

struct ProducerLane {
    /// `None` once the source's stream has ended.
    out: Option<SyncSender<Filled>>,
    /// Batches sent and not yet handed back.
    in_flight: usize,
    /// Handed-back batches, empty, to refill.
    spare: Vec<Batch>,
}

impl Producer {
    /// Fill the open sources breadth first, one batch per source per pass,
    /// until each has `DEPTH` out; then wait for a spent batch. Stop when
    /// every source has ended or the reader hangs up.
    fn run(mut self) {
        loop {
            let mut filled = false;
            for source in 0..self.lanes.len() {
                let lane = &self.lanes[source];
                if lane.out.is_some() && lane.in_flight < DEPTH {
                    if self.fill(source).is_err() {
                        return;
                    }
                    filled = true;
                }
            }
            if filled {
                continue;
            }
            if self.lanes.iter().all(|lane| lane.out.is_none()) {
                return;
            }
            let Ok((source, batch)) = self.returns.recv() else {
                return;
            };
            let lane = &mut self.lanes[source];
            lane.in_flight -= 1;
            lane.spare.push(batch);
        }
    }

    /// Draw one batch of `source` and send it, with the end of its stream
    /// if it ended. Fails once the reader hung up.
    fn fill(&mut self, source: usize) -> Result<(), mpsc::SendError<Filled>> {
        let lane = &mut self.lanes[source];
        let draw = &mut self.sources[source];
        let mut batch = lane
            .spare
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(BATCH));
        // A panicking source keeps the arrivals it drew before the panic;
        // it is never drawn again.
        let drawn = panic::catch_unwind(AssertUnwindSafe(|| {
            while batch.len() < BATCH {
                let Some(arrival) = draw.next_arrival() else {
                    return true;
                };
                batch.push(arrival);
            }
            false
        }));
        let out = lane.out.as_ref().expect("only open sources are filled");
        if !batch.is_empty() {
            batch.reverse();
            out.send(Ok(batch))?;
            lane.in_flight += 1;
        }
        let end = match drawn {
            Ok(false) => return Ok(()),
            Ok(true) => Ok(Vec::new()),
            Err(source_panic) => Err(source_panic),
        };
        out.send(end)?;
        lane.out = None;
        Ok(())
    }
}
