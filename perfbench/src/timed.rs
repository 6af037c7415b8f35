//! A [`Scheduler`] that wraps the program's [`DesScheduler`] and times
//! the program from outside: how long each dispatched event's handler
//! ran (from `pop_next` returning it to the next `pop_next` call), when
//! the first event was scheduled and popped, and, when traced, spans
//! around every call into the scheduler and every handler.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use notebookos_des::{DesScheduler, Scheduler, SimTime};

use crate::calib::Slices;
use crate::spans::{Layer, Spans};

/// How much a [`Timed`] scheduler measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Timing {
    /// Only the first schedule, first pop and last pop.
    Coarse,
    /// Also each handler's duration, for the observer.
    PerEvent,
    /// Also spans around every scheduler call and handler.
    Traced,
}

/// How much of a workload one repetition runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Run {
    /// Set-up only: the first pop ends the run.
    SetupOnly,
    /// All of it.
    Whole,
    /// All of it, in calibrated slices (see [`Timed::with_slices`]).
    Sliced,
}

/// Workload-specific view of the events a [`Timed`] scheduler dispatches.
pub trait Observer<E> {
    /// Event kinds, indexed by [`Observer::kind`].
    const KINDS: &'static [&'static str];

    fn kind(&self, event: &E) -> usize;

    /// The layer a handler of `kind` is charged to in the ledger.
    fn layer(&self, kind: usize) -> Layer;

    /// `event` was just popped (timing at least [`Timing::PerEvent`]).
    fn on_pop(&mut self, _event: &E) {}

    /// `event` is being scheduled; returns an operation id for the span
    /// of the handler that scheduled it, if the event names one.
    fn on_schedule(&mut self, _event: &E) -> Option<u64> {
        None
    }

    /// The handler of the last popped event, of `kind`, ran for `ns`.
    fn on_handled(&mut self, _kind: usize, _ns: u64) {}
}

#[derive(Debug, Clone, Copy)]
struct Running {
    kind: usize,
    start_ns: u64,
    span: u32,
}

/// The timing wrapper around [`DesScheduler`]; see the module docs.
pub struct Timed<E, O> {
    inner: DesScheduler<E>,
    pub obs: O,
    timing: Timing,
    epoch: Instant,
    /// When the workload call began; the span from here to the first
    /// schedule is charged to `setup_layer`.
    call_start_ns: u64,
    setup_layer: Layer,
    pub spans: Option<Spans>,
    running: Option<Running>,
    pub first_schedule_ns: Option<u64>,
    pub first_pop_ns: Option<u64>,
    pub last_pop_ns: u64,
    pub pops: u64,
    pub kind_count: Vec<u64>,
    pub kind_ns: Vec<u64>,
    /// Dispatch nothing: the first pop ends the run, so a repetition
    /// measures only its set-up.
    setup_only: bool,
    /// Slice boundaries: the first pop, then every `slice_every` pops of
    /// `slice_kind` (any kind if `None`).
    slice_kind: Option<usize>,
    slice_every: u64,
    slice_count: u64,
    pub slices: Slices,
}

impl<E: Eq, O: Observer<E>> Timed<E, O> {
    pub fn new(obs: O, timing: Timing, epoch: Instant, setup_layer: Layer) -> Self {
        let call_start_ns = epoch.elapsed().as_nanos() as u64;
        Timed {
            inner: DesScheduler::new(),
            obs,
            timing,
            epoch,
            call_start_ns,
            setup_layer,
            spans: (timing == Timing::Traced).then(|| Spans::new(epoch)),
            running: None,
            first_schedule_ns: None,
            first_pop_ns: None,
            last_pop_ns: 0,
            pops: 0,
            kind_count: vec![0; O::KINDS.len()],
            kind_ns: vec![0; O::KINDS.len()],
            setup_only: false,
            slice_kind: None,
            slice_every: u64::MAX,
            slice_count: 0,
            slices: Slices::default(),
        }
    }

    /// Makes the first pop end the run, so the repetition measures only
    /// its set-up.
    pub fn setup_only(mut self) -> Self {
        self.setup_only = true;
        self
    }

    /// Cuts the run into calibrated slices (see [`crate::calib`]) of
    /// `every` dispatched events of `kind` (any kind if `None`).
    pub fn with_slices(mut self, kind: Option<usize>, every: u64) -> Self {
        self.slice_kind = kind;
        self.slice_every = every;
        self
    }

    fn count_slice(&mut self, event: &E) {
        if self.slice_kind.is_none_or(|k| k == self.obs.kind(event)) {
            self.slice_count += 1;
            if self.slice_count.is_multiple_of(self.slice_every) {
                self.boundary();
            }
        }
    }

    /// A slice boundary, if this scheduler slices its run. Called between
    /// handlers, so no handler's time contains the calibration reading.
    fn boundary(&mut self) {
        if self.slice_every != u64::MAX {
            let epoch = self.epoch;
            self.slices.boundary(|| epoch.elapsed().as_nanos() as u64);
        }
    }

    /// Moves the start of the setup span to `ns` (for schedulers built
    /// after the workload call began).
    pub fn set_call_start(&mut self, ns: u64) {
        self.call_start_ns = ns;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn first_schedule(&mut self) {
        if self.first_schedule_ns.is_none() {
            let now = self.now();
            self.first_schedule_ns = Some(now);
            if let Some(spans) = self.spans.as_mut() {
                spans.record(self.setup_layer, self.call_start_ns, now, 0);
            }
        }
    }

    fn scheduled(&mut self, event: &E) {
        if self.timing == Timing::Coarse {
            return;
        }
        let op = self.obs.on_schedule(event);
        if let (Some(op), Some(running), Some(spans)) = (op, self.running, self.spans.as_mut()) {
            spans.set_op(running.span, op);
        }
    }

    fn close_handler(&mut self, now: u64) {
        if let Some(running) = self.running.take() {
            let ns = now - running.start_ns;
            self.kind_ns[running.kind] += ns;
            self.obs.on_handled(running.kind, ns);
            if let Some(spans) = self.spans.as_mut() {
                spans.end_at(running.span, now);
            }
        }
    }
}

impl<E: Eq, O: Observer<E>> Scheduler<E> for Timed<E, O> {
    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn schedule(&mut self, at: SimTime, event: E) {
        self.first_schedule();
        self.scheduled(&event);
        match self.spans.as_mut() {
            Some(spans) => {
                let span = spans.begin(Layer::Sched, 0);
                self.inner.schedule(at, event);
                spans.end(span);
            }
            None => self.inner.schedule(at, event),
        }
    }

    fn schedule_in(&mut self, delay: SimTime, event: E) {
        self.first_schedule();
        self.scheduled(&event);
        match self.spans.as_mut() {
            Some(spans) => {
                let span = spans.begin(Layer::Sched, 0);
                self.inner.schedule_in(delay, event);
                spans.end(span);
            }
            None => self.inner.schedule_in(delay, event),
        }
    }

    fn pop_next(&mut self) -> Option<(SimTime, E)> {
        if self.setup_only {
            let now = self.now();
            self.first_pop_ns.get_or_insert(now);
            self.last_pop_ns = now;
            return None;
        }
        if self.timing == Timing::Coarse {
            if self.first_pop_ns.is_none() {
                self.first_pop_ns = Some(self.now());
                self.boundary();
            }
            let popped = self.inner.pop_next();
            match &popped {
                Some((_, event)) => {
                    self.pops += 1;
                    self.count_slice(event);
                }
                None => self.last_pop_ns = self.now(),
            }
            return popped;
        }
        let t0 = self.now();
        self.close_handler(t0);
        if self.first_pop_ns.is_none() {
            self.first_pop_ns = Some(t0);
            self.boundary();
        }
        let pop_span = self.spans.as_mut().map(|s| s.begin_at(Layer::Sched, t0, 0));
        let popped = self.inner.pop_next();
        if let Some((_, event)) = &popped {
            self.count_slice(event);
        }
        let t1 = self.now();
        if let (Some(spans), Some(span)) = (self.spans.as_mut(), pop_span) {
            spans.end_at(span, t1);
        }
        match &popped {
            Some((_, event)) => {
                self.pops += 1;
                let kind = self.obs.kind(event);
                self.kind_count[kind] += 1;
                self.obs.on_pop(event);
                let layer = self.obs.layer(kind);
                let span = self.spans.as_mut().map_or(0, |s| s.begin_at(layer, t1, 0));
                self.running = Some(Running {
                    kind,
                    start_ns: t1,
                    span,
                });
            }
            None => self.last_pop_ns = t1,
        }
        popped
    }

    fn pop_next_until(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        match self.inner.peek_deadline() {
            Some(deadline) if deadline <= horizon => self.pop_next(),
            _ => {
                let now = self.now();
                if self.timing != Timing::Coarse {
                    self.close_handler(now);
                }
                self.last_pop_ns = now;
                None
            }
        }
    }

    fn peek_deadline(&self) -> Option<SimTime> {
        self.inner.peek_deadline()
    }

    fn pending(&self) -> usize {
        self.inner.pending()
    }

    fn scheduled_total(&self) -> u64 {
        self.inner.scheduled_total()
    }
}

/// Hands a scheduler to code that consumes it (`run_serve_sharded` drops
/// its shard schedulers on the shard thread) and puts it in `slot` when
/// dropped, so its measurements outlive the call. Dropping also adds the
/// shard thread's schedstat to the run record.
pub struct Handoff<S> {
    inner: Option<S>,
    slot: Arc<Mutex<Vec<S>>>,
}

impl<S> Handoff<S> {
    pub fn new(inner: S, slot: Arc<Mutex<Vec<S>>>) -> Self {
        Handoff {
            inner: Some(inner),
            slot,
        }
    }

    fn get(&mut self) -> &mut S {
        self.inner.as_mut().expect("present until dropped")
    }
}

impl<S> Drop for Handoff<S> {
    fn drop(&mut self) {
        crate::record::add_worker(crate::record::SchedStat::current_thread());
        if let (Some(inner), Ok(mut slot)) = (self.inner.take(), self.slot.lock()) {
            slot.push(inner);
        }
    }
}

impl<E, S: Scheduler<E>> Scheduler<E> for Handoff<S> {
    fn now(&self) -> SimTime {
        self.inner.as_ref().expect("present until dropped").now()
    }

    fn schedule(&mut self, at: SimTime, event: E) {
        self.get().schedule(at, event);
    }

    fn schedule_in(&mut self, delay: SimTime, event: E) {
        self.get().schedule_in(delay, event);
    }

    fn pop_next(&mut self) -> Option<(SimTime, E)> {
        self.get().pop_next()
    }

    fn pop_next_until(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        self.get().pop_next_until(horizon)
    }

    fn peek_deadline(&self) -> Option<SimTime> {
        self.inner
            .as_ref()
            .expect("present until dropped")
            .peek_deadline()
    }

    fn pending(&self) -> usize {
        self.inner
            .as_ref()
            .expect("present until dropped")
            .pending()
    }

    fn scheduled_total(&self) -> u64 {
        self.inner
            .as_ref()
            .expect("present until dropped")
            .scheduled_total()
    }
}
