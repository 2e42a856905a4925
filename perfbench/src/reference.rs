//! The reference workload that converts host seconds into reference
//! seconds.
//!
//! The hosts this benchmark runs on are shared: their speed drifts by
//! ±25% over minutes as co-tenants come and go. A fixed, simulator-like
//! workload (a small discrete-event loop over boxed closures, a binary
//! heap, a hash map and short-lived allocations) runs right before and
//! right after every measured pass, one copy on each thread the pass
//! uses, so a co-tenant on any of the pass's cores shows in it.
//! Every reported time is scaled by [`NOMINAL_S`] ÷ the reference's
//! measured duration, so a slow phase of the host stretches both and
//! cancels out, while a change to the simulator moves only the pass.
//!
//! This code is the unit of every reported time: never change it, or
//! figures stop being comparable with earlier baselines. It deliberately
//! uses none of the simulator's crates, so simulator changes never move
//! it.

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::rc::Rc;
use std::time::Instant;

/// The reference's duration on a quiet phase of the 2-core host the
/// baseline was recorded on (one copy, or one copy per core): one
/// reference second is one host second at that speed.
pub const NOMINAL_S: f64 = 0.08;

/// One simulated process: advances its state, returns its next delay.
type Process = Box<dyn FnMut(&mut HashMap<u64, u64>, u64) -> u64>;

/// Events the reference simulates.
const EVENTS: u64 = 600_000;

/// Run one copy of the reference on each of `threads` threads at once;
/// return the mean host seconds of a copy.
pub fn run(threads: usize) -> f64 {
    let total: f64 = std::thread::scope(|s| {
        let copies: Vec<_> = (0..threads).map(|_| s.spawn(one)).collect();
        copies
            .into_iter()
            .map(|c| c.join().expect("the reference does not panic"))
            .sum()
    });
    total / threads as f64
}

fn one() -> f64 {
    let start = Instant::now();
    let hits = Rc::new(Cell::new(0u64));
    let mut procs: Vec<Process> = (0..64u64)
        .map(|p| {
            let hits = hits.clone();
            let mut x = p.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            Box::new(move |cache: &mut HashMap<u64, u64>, now: u64| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                match cache.get_mut(&((x >> 20) & 0xFFFF)) {
                    Some(v) => {
                        *v += 1;
                        hits.set(hits.get() + 1);
                    }
                    None => {
                        cache.insert((x >> 20) & 0xFFFF, now);
                    }
                }
                let frame = vec![x as u8; 24 + (x & 63) as usize];
                std::hint::black_box(&frame);
                1 + (x & 15)
            }) as Process
        })
        .collect();
    let mut cache = HashMap::new();
    let mut queue: BinaryHeap<Reverse<(u64, usize)>> =
        (0..procs.len()).map(|p| Reverse((0, p))).collect();
    for _ in 0..EVENTS {
        let Reverse((now, p)) = queue.pop().expect("every process is always queued");
        let delay = procs[p](&mut cache, now);
        queue.push(Reverse((now + delay, p)));
    }
    std::hint::black_box(hits.get());
    start.elapsed().as_secs_f64()
}
