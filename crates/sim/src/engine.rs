//! The discrete-event engine: a clock plus the pending-event set and a
//! run loop that dispatches events to a caller-supplied handler.
//!
//! The engine is deliberately generic over the event payload `E` and carries
//! no knowledge of radios, robots or packets — those live in the upper
//! crates. This mirrors how the paper's Glomosim separates its event kernel
//! from protocol models.

use crate::event::EventQueue;
use crate::time::{SimDuration, SimTime};

/// A deterministic discrete-event simulation engine.
///
/// Events of type `E` are scheduled at absolute times (or relative delays)
/// and delivered, in time order with FIFO tie-breaks, to the handler passed
/// to [`Engine::run`]. The handler may schedule further events and may stop
/// the run early with [`Engine::stop`].
///
/// # Examples
///
/// ```
/// use cocoa_sim::engine::Engine;
/// use cocoa_sim::time::{SimDuration, SimTime};
///
/// let mut engine: Engine<&str> = Engine::new(SimTime::from_secs(10));
/// engine.schedule_in(SimDuration::from_secs(1), "tick");
/// let mut seen = Vec::new();
/// engine.run(&mut seen, |eng, seen, event| {
///     seen.push((eng.now(), event));
///     if seen.len() < 3 {
///         eng.schedule_in(SimDuration::from_secs(1), "tick");
///     }
/// });
/// assert_eq!(seen.len(), 3);
/// assert_eq!(seen[2].0, SimTime::from_secs(3));
/// ```
pub struct Engine<E> {
    queue: EventQueue<E>,
    now: SimTime,
    horizon: SimTime,
    stopped: bool,
    processed: u64,
}

impl<E> Engine<E> {
    /// Creates an engine that will run until `horizon` (inclusive).
    ///
    /// Events scheduled after the horizon are accepted but never delivered.
    pub fn new(horizon: SimTime) -> Self {
        Engine {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            horizon,
            stopped: false,
            processed: 0,
        }
    }

    /// The current simulation time (the timestamp of the event being
    /// processed during dispatch).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The run horizon supplied at construction.
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Total number of events delivered so far.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Number of live pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// The highest number of events ever pending at once (queue high-water
    /// mark; a telemetry counter for sizing long runs).
    pub fn peak_pending(&self) -> usize {
        self.queue.peak_len()
    }

    /// The time of the earliest pending event, if any — whether or not it
    /// lies inside the horizon. Lets callers advance the run to an exact
    /// boundary ("process everything at or before T") before checkpointing.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Rebuilds an engine from checkpointed parts, continuing a run
    /// exactly where [`Engine::replace_queue`] and the accessors left it.
    pub fn from_parts(
        queue: EventQueue<E>,
        now: SimTime,
        horizon: SimTime,
        stopped: bool,
        processed: u64,
    ) -> Self {
        Engine {
            queue,
            now,
            horizon,
            stopped,
            processed,
        }
    }

    /// Swaps in a new pending-event queue and returns the old one.
    ///
    /// Checkpoint support: serializing the queue requires draining it
    /// ([`EventQueue::drain_sorted`] consumes), so the codec takes the
    /// queue out, drains it, and swaps a rebuilt copy back in.
    pub fn replace_queue(&mut self, queue: EventQueue<E>) -> EventQueue<E> {
        std::mem::replace(&mut self.queue, queue)
    }

    /// Schedules an event at an absolute time.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the current simulation time —
    /// scheduling into the past is always a model bug.
    pub fn schedule_at(&mut self, time: SimTime, event: E) {
        assert!(
            time >= self.now,
            "cannot schedule event into the past: now={}, requested={}",
            self.now,
            time
        );
        self.queue.push(time, event)
    }

    /// Schedules an event `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        let t = self.now + delay;
        self.queue.push(t, event)
    }

    /// Requests that the run loop stop after the current event.
    pub fn stop(&mut self) {
        self.stopped = true;
    }

    /// Whether [`Engine::stop`] has been called.
    pub fn is_stopped(&self) -> bool {
        self.stopped
    }

    /// Delivers the next event to `handler`, advancing the clock.
    ///
    /// Returns `false` when the queue is exhausted, the next event lies
    /// beyond the horizon, or the engine was stopped.
    pub fn step<S>(
        &mut self,
        state: &mut S,
        mut handler: impl FnMut(&mut Self, &mut S, E),
    ) -> bool {
        if self.stopped {
            return false;
        }
        match self.queue.peek_time() {
            Some(t) if t <= self.horizon => {
                let (t, e) = self.queue.pop().expect("peeked event must pop");
                self.now = t;
                self.processed = self.processed.wrapping_add(1);
                handler(self, state, e);
                true
            }
            Some(_) | None => {
                // Nothing left inside the horizon: advance the clock to the
                // horizon so callers observe a fully elapsed run.
                if self.now < self.horizon {
                    self.now = self.horizon;
                }
                false
            }
        }
    }

    /// Runs the event loop to completion (queue empty, horizon reached, or
    /// stopped), threading `state` through every dispatch.
    pub fn run<S>(&mut self, state: &mut S, mut handler: impl FnMut(&mut Self, &mut S, E)) {
        while self.step(state, &mut handler) {}
    }
}

impl<E> std::fmt::Debug for Engine<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.now)
            .field("horizon", &self.horizon)
            .field("pending", &self.queue.len())
            .field("processed", &self.processed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_in_order_and_advances_clock() {
        let mut eng: Engine<u32> = Engine::new(SimTime::from_secs(100));
        eng.schedule_at(SimTime::from_secs(5), 5);
        eng.schedule_at(SimTime::from_secs(1), 1);
        let mut seen = Vec::new();
        eng.run(&mut seen, |eng, seen, e| {
            seen.push((eng.now().as_secs(), e))
        });
        assert_eq!(seen, vec![(1, 1), (5, 5)]);
        assert_eq!(eng.events_processed(), 2);
    }

    #[test]
    fn horizon_cuts_off_late_events() {
        let mut eng: Engine<&str> = Engine::new(SimTime::from_secs(10));
        eng.schedule_at(SimTime::from_secs(9), "in");
        eng.schedule_at(SimTime::from_secs(11), "out");
        let mut seen: Vec<&str> = Vec::new();
        eng.run(&mut seen, |_, seen, e| seen.push(e));
        assert_eq!(seen, vec!["in"]);
        // clock parks at the horizon
        assert_eq!(eng.now(), SimTime::from_secs(10));
    }

    #[test]
    fn handler_can_reschedule() {
        let mut eng: Engine<u8> = Engine::new(SimTime::from_secs(5));
        eng.schedule_at(SimTime::from_secs(1), 0);
        let mut count = 0u32;
        eng.run(&mut count, |eng, count, _| {
            *count += 1;
            eng.schedule_in(SimDuration::from_secs(1), 0);
        });
        // t = 1,2,3,4,5 inclusive
        assert_eq!(count, 5);
    }

    #[test]
    fn stop_ends_run_early() {
        let mut eng: Engine<u8> = Engine::new(SimTime::from_secs(100));
        for i in 0..10 {
            eng.schedule_at(SimTime::from_secs(i), 0);
        }
        let mut count = 0u32;
        eng.run(&mut count, |eng, count, _| {
            *count += 1;
            if *count == 3 {
                eng.stop();
            }
        });
        assert_eq!(count, 3);
        assert!(eng.is_stopped());
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn scheduling_into_past_panics() {
        let mut eng: Engine<u8> = Engine::new(SimTime::from_secs(100));
        eng.schedule_at(SimTime::from_secs(5), 0);
        eng.run(&mut (), |eng, _, _| {
            eng.schedule_at(SimTime::from_secs(1), 0);
        });
    }

    #[test]
    fn checkpoint_round_trip_resumes_identically() {
        let run = |interrupt: bool| {
            let mut eng: Engine<u32> = Engine::new(SimTime::from_secs(6));
            eng.schedule_at(SimTime::from_secs(1), 0);
            let mut seen = Vec::new();
            let handler = |eng: &mut Engine<u32>, seen: &mut Vec<(u64, u32)>, e: u32| {
                seen.push((eng.now().as_secs(), e));
                eng.schedule_in(SimDuration::from_secs(1), e + 1);
            };
            if interrupt {
                // Run half-way, tear the engine apart, rebuild, continue.
                while eng
                    .next_event_time()
                    .is_some_and(|t| t <= SimTime::from_secs(3))
                {
                    eng.step(&mut seen, handler);
                }
                let (now, horizon, stopped, processed) = (
                    eng.now(),
                    eng.horizon(),
                    eng.is_stopped(),
                    eng.events_processed(),
                );
                let q = eng.replace_queue(EventQueue::new());
                let next_seq = q.next_seq();
                let peak = q.peak_len();
                let drained = q.drain_sorted();
                let rebuilt = EventQueue::from_parts(drained, next_seq, peak);
                eng = Engine::from_parts(rebuilt, now, horizon, stopped, processed);
            }
            eng.run(&mut seen, handler);
            (seen, eng.events_processed(), eng.now())
        };
        assert_eq!(run(false), run(true));
    }
}
