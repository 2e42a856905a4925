//! Fast-forward and sleeping spinners against explicit stepping.
//!
//! Fast-forward completes a delay inline when the explicit run would have
//! fired nothing before it; these tests pin where it must *not* reach —
//! past a `run_until` limit or a sharded window end — and that the
//! clock, `last_event_time` and `next_event_time` come out exactly as an
//! explicit run leaves them (the recorder forces explicit stepping).
//!
//! The sleeper tests park a toy spinner on a step grid and compare it with
//! the same spinner stepping one timer per step, across randomized
//! writers whose timers land on the spinner's boundaries before, during
//! and at the instant of its elided steps.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use tc_desim::time::{ns, us, Time};
use tc_desim::{run_sharded, Outgoing, Sim, SleepSpec, StepGrid};
use tc_trace::rng::XorShift64;

fn sim(explicit: bool) -> Sim {
    let sim = Sim::new();
    if explicit {
        sim.recorder().enable();
    }
    sim
}

#[test]
fn lone_delays_fast_forward_and_keep_the_clock_exact() {
    for explicit in [false, true] {
        let sim = sim(explicit);
        let h = sim.clone();
        let seen = Rc::new(RefCell::new(Vec::new()));
        let s2 = seen.clone();
        sim.spawn("lone", async move {
            for d in [ns(5), ns(7), ns(11)] {
                h.delay(d).await;
                s2.borrow_mut().push((h.now(), h.last_event_time()));
            }
        });
        assert_eq!(sim.run(), ns(23));
        assert_eq!(sim.last_event_time(), ns(23));
        assert_eq!(
            *seen.borrow(),
            vec![(ns(5), ns(5)), (ns(12), ns(12)), (ns(23), ns(23))]
        );
        // Nothing was queued when the run ended.
        assert_eq!(sim.pending_timers(), 0);
        assert_eq!(sim.next_event_time(), None);
    }
}

#[test]
fn fast_forward_stops_at_the_run_until_limit() {
    for explicit in [false, true] {
        let sim = sim(explicit);
        let h = sim.clone();
        let log = Rc::new(RefCell::new(Vec::new()));
        let l2 = log.clone();
        sim.spawn("steps", async move {
            for _ in 0..4 {
                h.delay(ns(10)).await;
                l2.borrow_mut().push(h.now());
            }
        });
        // The limit is inclusive: the step due at 20 ns runs, the one
        // due at 30 ns must wait for the next call.
        assert_eq!(sim.run_until(ns(25)), ns(25));
        assert_eq!(*log.borrow(), vec![ns(10), ns(20)]);
        assert_eq!(sim.last_event_time(), ns(20));
        assert_eq!(sim.next_event_time(), Some(ns(30)));
        assert_eq!(sim.run_until(ns(30)), ns(30));
        assert_eq!(*log.borrow(), vec![ns(10), ns(20), ns(30)]);
        assert_eq!(sim.next_event_time(), Some(ns(40)));
        assert_eq!(sim.run(), ns(40));
        assert_eq!(sim.live_processes(), 0);
    }
}

#[test]
fn an_earlier_timer_or_a_runnable_peer_blocks_fast_forward() {
    for explicit in [false, true] {
        let sim = sim(explicit);
        let order = Rc::new(RefCell::new(Vec::new()));
        for (name, d) in [("late", 30u64), ("early", 10)] {
            let h = sim.clone();
            let o = order.clone();
            sim.spawn(name, async move {
                h.delay(ns(d)).await;
                o.borrow_mut().push((name, h.now()));
                h.delay(ns(d)).await;
                o.borrow_mut().push((name, h.now()));
            });
        }
        assert_eq!(sim.run(), ns(60));
        assert_eq!(
            *order.borrow(),
            vec![
                ("early", ns(10)),
                ("early", ns(20)),
                ("late", ns(30)),
                ("late", ns(60)),
            ]
        );
    }
}

#[test]
fn fast_forward_never_crosses_a_shard_window() {
    // Shard 0 steps alone in 3 ns hops; shard 1 sends it one envelope.
    // Every hop must stay inside its window, so both modes see the same
    // per-window horizons and the envelope lands at the same instant.
    let lookahead = ns(10);
    let run = |explicit: bool| {
        run_sharded::<u64, _, _>(2, lookahead, move |mut h| {
            let sim = sim(explicit);
            let me = h.index();
            let staged: Rc<RefCell<Vec<Outgoing<u64>>>> = Rc::default();
            let log: Rc<RefCell<Vec<(Time, u64)>>> = Rc::default();
            if me == 0 {
                let s = sim.clone();
                let l = log.clone();
                sim.spawn("hopper", async move {
                    for k in 0..20 {
                        s.delay(ns(3)).await;
                        l.borrow_mut().push((s.now(), k));
                    }
                });
            } else {
                let s = sim.clone();
                let st = staged.clone();
                sim.spawn("sender", async move {
                    s.delay(ns(4)).await;
                    st.borrow_mut().push(Outgoing {
                        dst_shard: 0,
                        deliver_at: s.now() + lookahead + ns(3),
                        msg: 99,
                    });
                });
            }
            let mut horizons = Vec::new();
            let drain = {
                let st = staged.clone();
                move || std::mem::take(&mut *st.borrow_mut())
            };
            let deliver = {
                let s = sim.clone();
                let l = log.clone();
                move |env: tc_desim::Envelope<u64>| {
                    let (s2, l2) = (s.clone(), l.clone());
                    s.spawn("deliver", async move {
                        s2.delay(env.deliver_at - s2.now()).await;
                        l2.borrow_mut().push((s2.now(), env.msg));
                    });
                }
            };
            let end = h.run_observed(&sim, drain, deliver, |w| {
                horizons.push((w.wstart, w.wend, sim.last_event_time()));
            });
            let log = log.borrow().clone();
            (end, log, horizons)
        })
    };
    let elided = run(false);
    let explicit = run(true);
    assert_eq!(elided, explicit);
    let (end, log, horizons) = &elided[0];
    assert_eq!(*end, ns(60));
    assert!(log.contains(&(ns(17), 99)), "{log:?}");
    for &(_, wend, horizon) in horizons {
        assert!(horizon < wend, "a hop crossed its window end");
    }
}

/// A toy spinner: every iteration loads a word (one step of `load`),
/// then computes (`instr`); it stops once the word is non-zero and
/// counts its steps. Elided, it parks on its grid and is charged.
struct Toy {
    word: Rc<Cell<u64>>,
    steps: Rc<Cell<u64>>,
    load: Time,
    instr: Time,
}

async fn toy_spin(sim: Sim, toy: Toy, exits: Rc<RefCell<Vec<(Time, u64)>>>) {
    toy_spin_counted(sim, toy, exits, Rc::default()).await;
}

/// [`toy_spin`], counting how often the toy parked in `parks`.
async fn toy_spin_counted(
    sim: Sim,
    toy: Toy,
    exits: Rc<RefCell<Vec<(Time, u64)>>>,
    parks: Rc<Cell<u64>>,
) {
    loop {
        // One explicit iteration.
        toy.steps.set(toy.steps.get() + 1);
        sim.delay(toy.load).await;
        let v = toy.word.get();
        toy.steps.set(toy.steps.get() + 1);
        sim.delay(toy.instr).await;
        if v != 0 {
            exits.borrow_mut().push((sim.now(), v));
            return;
        }
        // Elide only if the word still reads as the iteration saw it: a
        // write after the load but before the iteration ended would make
        // the next iteration differ.
        if !sim.elision_enabled() || toy.word.get() != 0 {
            continue;
        }
        // Park: event j starts step j % 2 (0 = load, 1 = instr).
        parks.set(parks.get() + 1);
        let steps = toy.steps.clone();
        let grid = StepGrid::new(sim.now(), &[toy.load, toy.instr]);
        let j = sim
            .sleep_on_grid(SleepSpec {
                grid,
                watch: std::iter::once(0x100..0x108).collect(),
                keys: vec![7],
                charge: Box::new(move |from, to| steps.set(steps.get() + (to - from))),
                label: "toy".into(),
            })
            .await;
        // The timer of step j - 1 fired: finish that iteration.
        let v = if (j - 1) % 2 == 0 {
            // The load step ended: it samples now.
            let v = toy.word.get();
            toy.steps.set(toy.steps.get() + 1);
            sim.delay(toy.instr).await;
            v
        } else {
            // The instruction step ended: the load sampled the old value.
            0
        };
        if v != 0 {
            exits.borrow_mut().push((sim.now(), v));
            return;
        }
    }
}

/// Everything a scenario lets one observe: end time, toy exits (time,
/// value) and per-toy step counts.
type Observed = (Time, Vec<(Time, u64)>, Vec<u64>);

/// One randomized scenario: one or two toys on their own words, writers
/// landing on their boundaries or in between, touches of the shared key.
/// Returns what it observed and how often a toy parked.
fn scenario(seed: u64, explicit: bool) -> (Observed, u64) {
    let mut rng = XorShift64::new(seed);
    let sim = sim(explicit);
    let exits = Rc::new(RefCell::new(Vec::new()));
    let (load, instr) = (ns(rng.range(1, 4)), ns(rng.range(1, 4)));
    let period = load + instr;
    let spinners = rng.range(1, 3) as usize;
    let mut words = Vec::new();
    let mut counts = Vec::new();
    let parks = Rc::new(Cell::new(0));
    for k in 0..spinners {
        let word = Rc::new(Cell::new(0u64));
        let steps = Rc::new(Cell::new(0u64));
        words.push(word.clone());
        counts.push(steps.clone());
        let toy = Toy {
            word,
            steps,
            load,
            instr,
        };
        let s = sim.clone();
        let e = exits.clone();
        let p = parks.clone();
        let start = ns(rng.below(3));
        sim.spawn(&format!("toy{k}"), async move {
            s.delay(start).await;
            toy_spin_counted(s.clone(), toy, e, p).await;
        });
    }
    // Writers: each hops 1-3 times, each hop to a boundary of the grid
    // (multiples of the period, or a period plus the load step) or to an
    // arbitrary time, then sets one word through the watch.
    // At least one writer per toy, so every explicit run terminates.
    for w in 0..rng.range(spinners as u64, 4) {
        let hops: Vec<Time> = (0..rng.range(1, 4))
            .map(|_| {
                let base = ns(rng.range(2, 40)) / period * period;
                match rng.below(3) {
                    0 => base,
                    1 => base + load,
                    _ => base + rng.range(1, period),
                }
            })
            .collect();
        let target = w as usize % spinners;
        let word = words[target].clone();
        let value = rng.range(1, 1000);
        let touch = rng.chance(1, 3);
        let s = sim.clone();
        sim.spawn(&format!("writer{w}"), async move {
            for at in hops {
                if at > s.now() {
                    s.delay(at - s.now()).await;
                }
                if touch {
                    s.spin_touch(7);
                }
            }
            word.set(value);
            // Every toy polls the watched range and uses key 7.
            s.spin_write(0x100, 0x108);
        });
    }
    let end = sim.run();
    let steps = counts.iter().map(|c| c.get()).collect();
    let exits = exits.borrow().clone();
    ((end, exits, steps), parks.get())
}

#[test]
fn sleeping_toys_match_explicit_stepping() {
    let mut parks = 0;
    for seed in 1..=400 {
        let (elided, p) = scenario(seed, false);
        let (explicit, none) = scenario(seed, true);
        assert_eq!(elided, explicit, "seed {seed} diverged");
        assert_eq!(none, 0, "recording must keep toys explicit");
        parks += p;
    }
    assert!(parks > 400, "toys parked only {parks} times");
}

#[test]
fn a_spinner_that_is_never_woken_ends_the_run_asleep() {
    let sim = Sim::new();
    let exits = Rc::new(RefCell::new(Vec::new()));
    let toy = Toy {
        word: Rc::new(Cell::new(0)),
        steps: Rc::new(Cell::new(0)),
        load: ns(2),
        instr: ns(3),
    };
    let steps = toy.steps.clone();
    let s = sim.clone();
    sim.spawn("forever", toy_spin(s, toy, exits.clone()));
    // A last event off the toy's grid (5 ns + multiples of {0, 2} + 5k).
    let s = sim.clone();
    sim.spawn("ticker", async move { s.delay(us(1) + 1).await });
    // Explicitly this run would never return; elided, it ends with the
    // last real event, the toy charged for every step started by then:
    // 2 explicit, then events at 5 + 5k and 7 + 5k ps up to 1001 ps.
    assert_eq!(sim.run(), us(1) + 1);
    assert_eq!(sim.sleeping_processes(), 1);
    assert_eq!(steps.get(), 2 + 200 + 199);
    let dump = sim.stuck_dump();
    assert!(
        dump.contains("forever: asleep in an elided spin-wait (toy) [0x100, 0x108)"),
        "{dump}"
    );
    assert!(exits.borrow().is_empty());
}
