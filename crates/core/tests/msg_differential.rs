//! Message layer: elided against explicit stepping.
//!
//! Random send/recv sequences run through a [`Messenger`] pair twice:
//! once as is (CPU completion waits may sleep and the executor may
//! fast-forward) and once with causal recording on, which forces every
//! wait to step explicitly. End time, the whole registry snapshot and
//! every delivered payload must be identical, and each payload must equal
//! what was sent. Sequences cover both fabrics, put and get rendezvous,
//! message sizes on both sides of the eager threshold (zero included) and
//! receivers that start late, so eager senders run out of credits.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use tc_putget::cluster::{Backend, Cluster};
use tc_putget::msg::{messenger_pair, MsgConfig, RendezvousMode};
use tc_putget::{time, Sim};
use tc_trace::rng::XorShift64;
use tc_trace::Snapshot;

const BUF_LEN: u64 = 64 << 10;

/// One phase: `from` sends every message of `sizes` to the other side,
/// which starts receiving `recv_after` into the phase.
struct Phase {
    from: usize,
    sizes: Vec<usize>,
    recv_after: time::Time,
}

struct Script {
    backend: Backend,
    cfg: MsgConfig,
    phases: Vec<Phase>,
}

fn script(seed: u64) -> Script {
    let mut rng = XorShift64::new(seed);
    let backend = if rng.chance(1, 2) {
        Backend::Extoll
    } else {
        Backend::Infiniband
    };
    let eager_threshold = [0, 56, 200, 256, 1024][rng.below(5) as usize];
    let rendezvous = if rng.chance(1, 2) {
        RendezvousMode::Put
    } else {
        RendezvousMode::Get
    };
    let t = eager_threshold as u64;
    let phases = (0..rng.range(1, 5))
        .map(|_| {
            let sizes = (0..rng.range(1, 12))
                .map(|_| match rng.below(6) {
                    0 => 0,
                    1 => rng.range(1, 64),
                    // Straddling the threshold.
                    2 | 3 => (t + rng.range(0, 3)).saturating_sub(1),
                    4 => rng.range(1, t.max(1) + 1),
                    _ => rng.range(t + 1, t + 6000),
                } as usize)
                .collect();
            // A late receiver lets an eager burst exhaust the credits.
            let recv_after = if rng.chance(1, 3) {
                time::us(rng.range(1, 40))
            } else {
                0
            };
            Phase {
                from: rng.below(2) as usize,
                sizes,
                recv_after,
            }
        })
        .collect();
    Script {
        backend,
        cfg: MsgConfig {
            eager_threshold,
            rendezvous,
        },
        phases,
    }
}

fn payload(phase: usize, k: usize, len: usize) -> Vec<u8> {
    (0..len).map(|i| (phase * 31 + k * 7 + i) as u8).collect()
}

#[derive(Debug, PartialEq)]
struct Observed {
    end: time::Time,
    registry: Snapshot,
    /// Per receiving side, every payload in arrival order.
    delivered: [Vec<Vec<u8>>; 2],
}

fn run(s: &Script, explicit: bool) -> Observed {
    let c = Cluster::new(s.backend);
    if explicit {
        c.causal_enable();
    }
    let (m0, m1) = messenger_pair(&c, BUF_LEN, s.cfg);
    let sides = [Rc::new(m0), Rc::new(m1)];
    let delivered: [Rc<RefCell<Vec<Vec<u8>>>>; 2] = Default::default();
    // Both sides prime their receive windows before either sends.
    let ready = Rc::new(Cell::new(0));
    let ready_sig = c.sim.signal();
    for me in 0..2 {
        let m = sides[me].clone();
        let cpu = c.nodes[me].cpu.clone();
        let sim: Sim = c.sim.clone();
        let got = delivered[me].clone();
        let (ready, ready_sig) = (ready.clone(), ready_sig.clone());
        let phases: Vec<(bool, Vec<usize>, time::Time)> = s
            .phases
            .iter()
            .map(|p| (p.from == me, p.sizes.clone(), p.recv_after))
            .collect();
        c.sim.spawn(&format!("side{me}"), async move {
            m.init(&cpu).await;
            ready.set(ready.get() + 1);
            ready_sig.notify_all();
            ready_sig.wait_until(|| ready.get() == 2).await;
            for (i, (sends, sizes, recv_after)) in phases.into_iter().enumerate() {
                if sends {
                    for (k, &len) in sizes.iter().enumerate() {
                        m.send(&cpu, &payload(i, k, len)).await.unwrap();
                    }
                } else {
                    sim.delay(recv_after).await;
                    for _ in &sizes {
                        let v = m.recv(&cpu).await.unwrap();
                        got.borrow_mut().push(v);
                    }
                }
            }
        });
    }
    let end = c.sim.run();
    let delivered = delivered.map(|d| d.take());
    Observed {
        end,
        registry: c.sim.registry().snapshot(),
        delivered,
    }
}

#[test]
fn elided_message_sequences_match_explicit_stepping() {
    let mut stalls = 0;
    for seed in 1..=100 {
        let s = script(seed);
        let elided = run(&s, false);
        // Every message arrives intact, in send order.
        for me in 0..2 {
            let want: Vec<Vec<u8>> = s
                .phases
                .iter()
                .enumerate()
                .filter(|(_, p)| p.from != me)
                .flat_map(|(i, p)| {
                    p.sizes
                        .iter()
                        .enumerate()
                        .map(move |(k, &l)| payload(i, k, l))
                })
                .collect();
            assert_eq!(
                elided.delivered[me], want,
                "seed {seed}: side {me} payloads"
            );
        }
        stalls += elided.registry.get("msg0.credit_stalls");
        let explicit = run(&s, true);
        assert_eq!(elided, explicit, "seed {seed} diverged");
    }
    assert!(stalls > 0, "no sequence exhausted its credits");
}
