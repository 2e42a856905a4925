//! Host-time spans recorded from the benchmark's own code, around its
//! calls into the simulator's layers, and executor work counted from the
//! simulator's causal log.
//!
//! A [`Timed`] future adds the host time spent inside its own `poll` to a
//! [`Span`]. Nesting is allowed: a driver program's span contains the
//! spans of the `put`/`quiet`/`recv` calls it awaits, because those calls
//! run on the driver's stack.

use std::cell::Cell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};
use std::time::{Duration, Instant};

use tc_trace::causal::{CausalDump, Cause};

/// Process-name prefix of every driver program the benchmark spawns, so
/// the executor's poll log can tell driver polls from model polls.
pub const DRIVER_PREFIX: &str = "bench.";

/// Accumulated host time of one span kind, in nanoseconds.
#[derive(Default)]
pub struct Span(Cell<u64>);

impl Span {
    fn add(&self, d: Duration) {
        self.0.set(self.0.get() + d.as_nanos() as u64);
    }

    /// Accumulated seconds.
    pub fn secs(&self) -> f64 {
        self.0.get() as f64 * 1e-9
    }
}

/// The host-time spans of one simulation. Shared by every driver program
/// of that simulation; `None` when tracing is off.
#[derive(Default)]
pub struct Spans {
    /// Inside driver-program polls (includes `post` and `wait`).
    pub driver: Span,
    /// Inside awaited work-posting calls: `put`, `post_send`, `send`.
    pub post: Span,
    /// Inside awaited completion calls: `quiet`, `wait_arrival`, CQ
    /// waits, marker spins, `recv`.
    pub wait: Span,
}

/// The tracing handle a driver program carries.
pub type Probe = Option<Rc<Spans>>;

/// A future that charges the host time of its own polls to a span.
pub struct Timed<'p, F> {
    inner: Pin<Box<F>>,
    span: Option<&'p Span>,
}

impl<F: Future> Future for Timed<'_, F> {
    type Output = F::Output;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        match self.span {
            None => self.inner.as_mut().poll(cx),
            Some(span) => {
                let t = Instant::now();
                let out = self.inner.as_mut().poll(cx);
                span.add(t.elapsed());
                out
            }
        }
    }
}

/// Wrap `fut` so its polls are charged to `span` of `probe` (a no-op
/// wrapper when tracing is off).
pub fn timed<'p, F: Future>(
    probe: &'p Probe,
    span: impl FnOnce(&'p Spans) -> &'p Span,
    fut: F,
) -> Timed<'p, F> {
    Timed {
        inner: Box::pin(fut),
        span: probe.as_deref().map(span),
    }
}

/// A driver program whose polls are charged to `Spans::driver`. The
/// probe is moved in, so the returned future is `'static` like any
/// spawned process.
pub async fn driver<F: Future<Output = ()>>(probe: Probe, fut: F) {
    timed(&probe, |s| &s.driver, fut).await
}

/// Executor polls of one simulation, split by the polled process's layer
/// and by the scheduling cause the executor recorded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PollCounts {
    /// Every process poll.
    pub total: u64,
    /// Benchmark driver programs (`bench.*`).
    pub driver: u64,
    /// GPU-model processes (`gpu*`).
    pub gpu: u64,
    /// NIC engines (`extoll*`, `ib*`).
    pub nic: u64,
    /// Link propagation (`fabric*`).
    pub fabric: u64,
    /// Everything else (PCIe posted-write engines, ...).
    pub other: u64,
    /// Polls caused by a first scheduling after spawn.
    pub spawn: u64,
    /// Polls caused by a signal or channel wake.
    pub wake: u64,
    /// Polls caused by the process's own timer.
    pub timer: u64,
    /// Polls caused by a cross-shard envelope replay.
    pub import: u64,
}

impl PollCounts {
    /// Count the nodes of one causal dump.
    pub fn from_dump(dump: &CausalDump) -> Self {
        let mut c = PollCounts::default();
        for node in &dump.nodes {
            c.total += 1;
            let name = dump.names.get(&node.proc_key).map_or("", |s| s.as_str());
            let bucket = if name.starts_with(DRIVER_PREFIX) {
                &mut c.driver
            } else if name.starts_with("gpu") {
                &mut c.gpu
            } else if name.starts_with("extoll") || name.starts_with("ib") {
                &mut c.nic
            } else if name.starts_with("fabric") {
                &mut c.fabric
            } else {
                &mut c.other
            };
            *bucket += 1;
            match node.cause {
                Some(Cause::Spawn { .. }) => c.spawn += 1,
                Some(Cause::Wake { .. }) => c.wake += 1,
                Some(Cause::Timer { .. }) => c.timer += 1,
                Some(Cause::Import { .. }) => c.import += 1,
                None => {}
            }
        }
        c
    }

    /// Field-wise sum.
    pub fn add(&mut self, o: &PollCounts) {
        self.total += o.total;
        self.driver += o.driver;
        self.gpu += o.gpu;
        self.nic += o.nic;
        self.fabric += o.fabric;
        self.other += o.other;
        self.spawn += o.spawn;
        self.wake += o.wake;
        self.timer += o.timer;
        self.import += o.import;
    }
}
