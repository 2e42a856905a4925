//! Exact spin-wait elision: sleeping spinners and executor fast-forward.
//!
//! A polling loop whose every iteration costs the same — a GPU thread
//! probing an L2-resident completion word, say — would cost one executor
//! event per load if it were stepped explicitly, although nothing it does
//! can change until some *other* party writes the polled memory. A model
//! that has proven its iteration constant parks the process instead
//! ([`Sim::sleep_on_grid`]): the spinner holds no timer, and the executor
//! keeps only its **step grid** (start time, per-step durations, period).
//! Every step boundary is an *event*; event `j` happens at
//! [`StepGrid::event_time`]`(j)`, and the model's `charge` callback applies
//! the side effects of any range of events in one call (counters,
//! histograms, link occupancy), so they stay current whenever someone
//! could observe them.
//!
//! # Exactness rule
//!
//! A sleeping spinner is *materialized* — its pending step is inserted as
//! a real timer and the process resumes explicit stepping at exactly the
//! step it is in — before any of these:
//!
//! * **(a)** a bus write overlapping a watched range ([`Sim::spin_write`]);
//! * **(b)** a timer scheduled, fast-forwarded or fired at a deadline that
//!   is one of its step boundaries. This is the only place the explicit
//!   `(time, seq)` tie order could differ: a timer that already existed
//!   when the spinner fell asleep precedes it at a shared instant, any
//!   later one follows it, and materializing at the first such timer
//!   gives the spinner exactly the sequence position it would have had;
//! * **(c)** another party touching state its iteration uses
//!   ([`Sim::spin_touch`]): an L2 insert or evict on its GPU, or a
//!   reservation on its PCIe link.
//!
//! When several sleepers are materialized with pending steps ending at the
//! same instant, their timers are inserted in the order the explicit run
//! would have scheduled them (see `precedes`). With no sleeper asleep every
//! check costs one branch.
//!
//! # Fast-forward
//!
//! The zero-iteration case of the same rule: a [`Sim::delay`] completes
//! inline — clock advanced, `last_event_time` updated, no timer — when
//! nothing else is runnable, no timer is due at or before its deadline and
//! the deadline is within the current [`Sim::run_until`] limit.
//!
//! Both run only while the trace recorder and the causal log are off
//! ([`Sim::elision_enabled`]), so traced and profiled runs step explicitly.

use std::cell::{Cell, RefCell};
use std::cmp::Ordering;
use std::future::Future;
use std::ops::Range;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use crate::executor::{ProcId, Sim};
use crate::queue::TimerRef;
use crate::time::Time;

/// The periodic step grid of a sleeping spinner: event 0 is the sleep
/// start, event `j >= 1` the end of step `j - 1` (which is also the start
/// of step `j`). Step `j` is step `j % steps()` of an iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepGrid {
    start: Time,
    /// Start offset of every step within one period (`offsets[0] == 0`).
    offsets: Vec<Time>,
    period: Time,
}

impl StepGrid {
    /// A grid starting at `start` whose iteration consists of steps of
    /// the given `durations` (non-empty, every duration positive).
    pub fn new(start: Time, durations: &[Time]) -> Self {
        assert!(
            !durations.is_empty() && durations.iter().all(|&d| d > 0),
            "a step grid needs at least one step and positive durations"
        );
        let mut offsets = Vec::with_capacity(durations.len());
        let mut period: Time = 0;
        for &d in durations {
            offsets.push(period);
            period += d;
        }
        StepGrid {
            start,
            offsets,
            period,
        }
    }

    /// Time of event 0 (the sleep start).
    pub fn start(&self) -> Time {
        self.start
    }

    /// Steps per iteration.
    pub fn steps(&self) -> usize {
        self.offsets.len()
    }

    /// Time of event `j`.
    pub fn event_time(&self, j: u64) -> Time {
        let n = self.offsets.len() as u64;
        self.start + (j / n) * self.period + self.offsets[(j % n) as usize]
    }

    /// Number of events at or before `t` (`inclusive`) or strictly
    /// before it.
    pub fn events_by(&self, t: Time, inclusive: bool) -> u64 {
        if t < self.start {
            return 0;
        }
        let e = t - self.start;
        let (k, r) = (e / self.period, e % self.period);
        let within = if inclusive {
            self.offsets.partition_point(|&o| o <= r)
        } else {
            self.offsets.partition_point(|&o| o < r)
        };
        k * self.offsets.len() as u64 + within as u64
    }

    /// Whether `t` is a step boundary (the time of an event `j >= 1`).
    pub fn is_boundary(&self, t: Time) -> bool {
        t > self.start
            && self
                .offsets
                .binary_search(&((t - self.start) % self.period))
                .is_ok()
    }
}

/// What a process hands the executor when it parks on a step grid.
pub struct SleepSpec {
    /// The spinner's step grid; its start must be the current time.
    pub grid: StepGrid,
    /// Physical address ranges its iteration loads: a bus write that
    /// overlaps one wakes it (rule (a)).
    pub watch: Vec<Range<u64>>,
    /// Opaque keys of shared state its iteration depends on (its GPU's
    /// L2, its PCIe link): [`Sim::spin_touch`] on one wakes it (rule (c)).
    pub keys: Vec<u64>,
    /// Apply the side effects of events `from..to`. Called by the
    /// executor (with its state borrowed), so it may only update model
    /// state — counters, histograms, link occupancy — never call back into
    /// the simulation.
    pub charge: Box<dyn FnMut(u64, u64)>,
    /// Human-readable description for [`Sim::stuck_dump`].
    pub label: String,
}

/// Executor-side state shared with the parked process's [`Sleep`].
pub(crate) struct SleepCell {
    /// The real timer of the pending step, once materialized.
    pub(crate) timer: RefCell<Option<TimerRef>>,
    /// Index of the event that timer completes.
    pub(crate) event: Cell<u64>,
    /// Still parked in the executor's sleeper table.
    pub(crate) asleep: Cell<bool>,
}

/// A parked spinner in the executor's sleeper table.
pub(crate) struct Sleeper {
    pub(crate) pid: ProcId,
    pub(crate) spec: SleepSpec,
    /// Events whose side effects have been charged.
    pub(crate) applied: u64,
    /// Time of event `applied`, the first one not yet charged.
    pub(crate) next: Time,
    /// Registration order, for spinners parked in the same instant.
    pub(crate) reg_seq: u64,
    pub(crate) cell: Rc<SleepCell>,
}

impl Sleeper {
    /// Charge every event up to `t` (at `t` itself when `inclusive`).
    pub(crate) fn flush(&mut self, t: Time, inclusive: bool) {
        if t < self.next || (t == self.next && !inclusive) {
            return;
        }
        let to = self.spec.grid.events_by(t, inclusive);
        (self.spec.charge)(self.applied, to);
        self.applied = to;
        self.next = self.spec.grid.event_time(to);
    }

    /// Whether `t` is one of the step boundaries still ahead: every event
    /// before `next` has happened, so only times from `next` on qualify.
    pub(crate) fn has_boundary(&self, t: Time) -> bool {
        t >= self.next && self.spec.grid.is_boundary(t)
    }

    pub(crate) fn watches(&self, lo: u64, hi: u64) -> bool {
        self.spec.watch.iter().any(|r| r.start < hi && lo < r.end)
    }
}

/// Explicit-run order of two sleepers' pending events `ja` and `jb`,
/// which complete at the same instant: the one whose timer would have been
/// scheduled first goes first. Walk both grids back in lockstep; the first
/// differing event time decides (earlier scheduled, earlier fired). An
/// event 0 is a real registration: at a shared instant a sleeper that was
/// already asleep had its (complete) event first, and two registrations
/// keep their real order. Two periodic duration sequences that agree on
/// `na + nb` consecutive steps agree for good (Fine–Wilf), so the walk is
/// bounded.
pub(crate) fn precedes(a: &Sleeper, ja: u64, b: &Sleeper, jb: u64) -> Ordering {
    let (ga, gb) = (&a.spec.grid, &b.spec.grid);
    let bound = (ga.steps() + gb.steps()) as u64;
    let by_start = |ia: u64, ib: u64| match (ia, ib) {
        (0, 0) => a.reg_seq.cmp(&b.reg_seq),
        (0, _) => Ordering::Greater,
        (_, 0) => Ordering::Less,
        _ => Ordering::Equal,
    };
    for m in 1..=bound.min(ja).min(jb) {
        let (ia, ib) = (ja - m, jb - m);
        match ga.event_time(ia).cmp(&gb.event_time(ib)) {
            Ordering::Equal => match by_start(ia, ib) {
                Ordering::Equal => {}
                o => return o,
            },
            o => return o,
        }
    }
    // Identical histories back to the later of the two registrations:
    // the sleeper that reaches its event 0 first registered while the
    // other was already asleep.
    match ja.cmp(&jb) {
        Ordering::Equal => a.reg_seq.cmp(&b.reg_seq),
        o => o.reverse(),
    }
}

/// Future returned by [`Sim::sleep_on_grid`]: parks the process on its
/// first poll and resolves, after the spinner has been materialized and
/// its pending step's timer has fired, to the index of the event that
/// timer completes.
pub struct Sleep {
    sim: Sim,
    spec: Option<SleepSpec>,
    cell: Option<Rc<SleepCell>>,
}

impl Sleep {
    pub(crate) fn new(sim: Sim, spec: SleepSpec) -> Self {
        Sleep {
            sim,
            spec: Some(spec),
            cell: None,
        }
    }
}

impl Future for Sleep {
    type Output = u64;

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<u64> {
        let this = self.get_mut();
        if let Some(spec) = this.spec.take() {
            this.cell = Some(this.sim.park(spec));
            return Poll::Pending;
        }
        let cell = this.cell.as_ref().expect("sleep polled after completion");
        let fired = match &*cell.timer.borrow() {
            None => false,
            Some(TimerRef::Wheel(id)) => !this.sim.timer_pending(*id),
            Some(TimerRef::Heap(t)) => {
                if !t.fired.get() {
                    t.waiter.set(Some(this.sim.current_proc()));
                }
                t.fired.get()
            }
        };
        if fired {
            cell.timer.borrow_mut().take();
            Poll::Ready(cell.event.get())
        } else {
            Poll::Pending
        }
    }
}

impl Drop for Sleep {
    fn drop(&mut self) {
        if let Some(cell) = self.cell.take() {
            self.sim.unpark(&cell);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_events_and_boundaries() {
        // Steps of 3 and 5 ps from t=10: events at 10, 13, 18, 21, 26, ...
        let g = StepGrid::new(10, &[3, 5]);
        let times: Vec<Time> = (0..5).map(|j| g.event_time(j)).collect();
        assert_eq!(times, vec![10, 13, 18, 21, 26]);
        assert_eq!(g.events_by(9, true), 0);
        assert_eq!(g.events_by(10, false), 0);
        assert_eq!(g.events_by(10, true), 1);
        assert_eq!(g.events_by(18, false), 2);
        assert_eq!(g.events_by(18, true), 3);
        assert_eq!(g.events_by(20, true), 3);
        assert_eq!(g.events_by(26, true), 5);
        assert!(!g.is_boundary(10), "the sleep start is not a boundary");
        assert!(g.is_boundary(13) && g.is_boundary(18) && g.is_boundary(26));
        assert!(!g.is_boundary(14) && !g.is_boundary(5));
    }

    #[test]
    #[should_panic(expected = "positive durations")]
    fn zero_duration_steps_are_rejected() {
        StepGrid::new(0, &[3, 0]);
    }
}
