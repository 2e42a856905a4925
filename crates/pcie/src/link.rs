//! Link occupancy tracking.

use std::cell::Cell;
use std::rc::Rc;

use tc_desim::{time::Time, Sim};

/// Tracks when a (half-duplex per direction) link becomes free. Transfers
/// serialize: a new transfer starts at `max(now, busy_until)` and the caller
/// is delayed until its end. This makes bandwidth sharing between concurrent
/// users (e.g. 32 RMA ports posting in parallel) emerge naturally.
#[derive(Clone)]
pub struct Link {
    inner: Rc<LinkInner>,
}

struct LinkInner {
    sim: Sim,
    busy_until: Cell<Time>,
    total_busy: Cell<Time>,
}

impl Link {
    /// A free link.
    pub fn new(sim: Sim) -> Self {
        Link {
            inner: Rc::new(LinkInner {
                sim,
                busy_until: Cell::new(0),
                total_busy: Cell::new(0),
            }),
        }
    }

    /// Reserve the link for `dur`; returns the completion time. Does not
    /// block the caller — combine with `Sim::delay` to wait. Wakes any
    /// elided spin-wait whose iteration uses this link first.
    pub fn reserve(&self, dur: Time) -> Time {
        self.inner.sim.spin_touch(self.key());
        let now = self.inner.sim.now();
        let start = now.max(self.inner.busy_until.get());
        let end = start + dur;
        self.inner.busy_until.set(end);
        self.inner.total_busy.set(self.inner.total_busy.get() + dur);
        end
    }

    /// Reserve the link for `dur` and wait until the reservation completes.
    pub async fn transfer(&self, dur: Time) {
        let end = self.reserve(dur);
        let now = self.inner.sim.now();
        self.inner.sim.delay(end - now).await;
    }

    /// Identity of this link for [`Sim::spin_touch`].
    pub fn key(&self) -> u64 {
        Rc::as_ptr(&self.inner) as usize as u64
    }

    /// Account for `n` reservations of `dur` that each found the link
    /// idle, the last one made at `last_start` — the state `n` such
    /// [`Link::reserve`] calls would have left (used by elided spin-waits).
    pub fn replay(&self, n: u64, dur: Time, last_start: Time) {
        if n > 0 {
            self.inner.busy_until.set(last_start + dur);
            self.inner
                .total_busy
                .set(self.inner.total_busy.get() + n * dur);
        }
    }

    /// Time at which the link next becomes idle.
    pub fn busy_until(&self) -> Time {
        self.inner.busy_until.get()
    }

    /// Cumulative reserved time (for utilization accounting).
    pub fn total_busy(&self) -> Time {
        self.inner.total_busy.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use tc_desim::time::ns;

    #[test]
    fn concurrent_transfers_serialize() {
        let sim = Sim::new();
        let link = Link::new(sim.clone());
        let ends = Rc::new(RefCell::new(Vec::new()));
        for i in 0..3 {
            let l = link.clone();
            let h = sim.clone();
            let e = ends.clone();
            sim.spawn(&format!("t{i}"), async move {
                l.transfer(ns(100)).await;
                e.borrow_mut().push((i, h.now()));
            });
        }
        sim.run();
        assert_eq!(
            *ends.borrow(),
            vec![(0, ns(100)), (1, ns(200)), (2, ns(300))]
        );
        assert_eq!(link.total_busy(), ns(300));
    }

    #[test]
    fn idle_gap_is_not_charged() {
        let sim = Sim::new();
        let link = Link::new(sim.clone());
        let h = sim.clone();
        let l = link.clone();
        sim.spawn("t", async move {
            l.transfer(ns(50)).await;
            h.delay(ns(1000)).await;
            l.transfer(ns(50)).await;
            assert_eq!(h.now(), ns(1100));
        });
        sim.run();
        assert_eq!(link.total_busy(), ns(100));
    }
}
