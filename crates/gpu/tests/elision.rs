//! Elided against explicit GPU spin-waits.
//!
//! Each randomized scenario runs twice: once as is (GPU completion waits
//! may sleep and the executor may fast-forward) and once with the trace
//! recorder on, which forces explicit stepping. Final time, the whole
//! registry snapshot, every spinner's exit (time and value) and the
//! polled memory must be identical. Scenarios mix device-memory and
//! system-memory spinners, one or two at a time, writers that land on a
//! spinner's step boundaries (with timers scheduled before it fell
//! asleep, while it sleeps, and from an instant that is itself a
//! boundary), L2 evictions of the polled line, and traffic on the GPU's
//! own PCIe link.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use tc_desim::time::{ns, Time};
use tc_desim::Sim;
use tc_gpu::{Gpu, GpuConfig};
use tc_mem::{layout, Addr, Bus, RegionKind, SparseMem};
use tc_pcie::{spin_word, Pcie, PcieConfig, Processor, SpinOp};
use tc_trace::rng::XorShift64;
use tc_trace::Snapshot;

/// 16 lines of 128 B: a few dozen stores evict anything.
const L2_BYTES: u64 = 16 * 128;

struct World {
    sim: Sim,
    bus: Bus,
    gpu: Gpu,
    pcie: Pcie,
}

fn world(explicit: bool) -> World {
    let sim = Sim::new();
    if explicit {
        sim.recorder().enable();
    }
    let bus = Bus::new();
    bus.add_ram(
        Rc::new(SparseMem::new(layout::host_dram(0), 1 << 24)),
        RegionKind::HostDram { node: 0 },
    );
    let pcie = Pcie::new(sim.clone(), bus.clone(), PcieConfig::gen3_x8());
    let cfg = GpuConfig {
        l2_bytes: L2_BYTES,
        ..GpuConfig::kepler_k20()
    };
    let gpu = Gpu::new(&sim, 0, cfg, &bus, &pcie);
    World {
        sim,
        bus,
        gpu,
        pcie,
    }
}

/// What one run lets an observer see.
#[derive(Debug, PartialEq)]
struct Observed {
    end: Time,
    exits: Vec<(usize, Time, u64)>,
    words: Vec<u64>,
    registry: Snapshot,
}

struct Spinner {
    word: Addr,
    /// A second polled word (in the other memory), for two-load probes.
    other: Option<Addr>,
    instrs: u64,
    /// When the spinner process starts, and when its spin loop does
    /// (after warming its device words with a store each).
    lead: Time,
    start: Time,
    /// Nominal step durations of one iteration, for aiming writers.
    steps: Vec<Time>,
}

fn load_steps(w: &World, addr: Addr) -> Vec<Time> {
    let cfg = w.gpu.config();
    match w.bus.classify(addr) {
        RegionKind::HostDram { .. } => {
            vec![cfg.sysmem_read_extra, w.gpu.endpoint().read_cost(8)]
        }
        _ => vec![cfg.l2_hit_time()],
    }
}

/// A time on `s`'s nominal step grid (`m` periods in, at one of its step
/// boundaries), or just off it.
fn aim(rng: &mut XorShift64, s: &Spinner) -> Time {
    let period: Time = s.steps.iter().sum();
    let m = rng.range(1, 30);
    let k = rng.below(s.steps.len() as u64) as usize;
    let off: Time = s.steps[..k].iter().sum();
    let jitter = if rng.chance(1, 4) {
        rng.range(1, 50)
    } else {
        0
    };
    s.start + m * period + off + jitter
}

fn scenario(seed: u64, explicit: bool) -> Observed {
    let mut rng = XorShift64::new(seed);
    let w = world(explicit);
    let exits = Rc::new(RefCell::new(Vec::new()));
    let n = rng.range(1, 3) as usize;
    let mut spinners = Vec::new();
    for k in 0..n {
        let dev = rng.chance(1, 2);
        let word = if dev {
            w.gpu.alloc(64, 128)
        } else {
            layout::host_dram(0) + 0x1000 + 0x100 * k as u64
        };
        let other = rng.chance(1, 4).then(|| {
            if dev {
                layout::host_dram(0) + 0x8000 + 0x100 * k as u64
            } else {
                w.gpu.alloc(64, 128)
            }
        });
        // Device words are warmed by a store first (write-allocate).
        let warm = w.gpu.config().store_time();
        let lead = ns(rng.below(40));
        let start = lead + if other.is_some() || dev { warm } else { 0 };
        let instrs = rng.range(1, 8);
        let mut steps = load_steps(&w, word);
        if let Some(o) = other {
            steps.extend(load_steps(&w, o));
        }
        steps.push(w.gpu.config().instr_time(instrs));
        spinners.push(Spinner {
            word,
            other,
            instrs,
            lead,
            start,
            steps,
        });
    }
    for (k, s) in spinners.iter().enumerate() {
        let t = w.gpu.thread();
        let sim = w.sim.clone();
        let exits = exits.clone();
        let misses = w.sim.registry().counter(&format!("spin{k}.misses"));
        let (word, other, instrs, lead) = (s.word, s.other, s.instrs, s.lead);
        w.sim.spawn(&format!("spinner{k}"), async move {
            sim.delay(lead).await;
            for a in [Some(word), other].into_iter().flatten() {
                if !matches!(t.gpu().bus().classify(a), RegionKind::HostDram { .. }) {
                    t.st_u64(a, 0).await;
                }
            }
            let mut ops = vec![SpinOp::Load(word, 8)];
            if let Some(o) = other {
                ops.push(SpinOp::LoadState(o));
            }
            ops.push(SpinOp::Instr(instrs));
            let b = t
                .spin_until(&ops, Some(&misses), |b| spin_word(b, 0, 8) != 0)
                .await;
            exits.borrow_mut().push((k, sim.now(), spin_word(&b, 0, 8)));
        });
    }
    // Writers: at least one per spinner so every explicit run ends. Each
    // hops one to three times (every hop aimed at a spinner's boundary or
    // next to it), then writes its spinner's word one of three ways.
    let writers = rng.range(n as u64, 4) as usize;
    for wi in 0..writers {
        let target = wi % n;
        let hops: Vec<Time> = (0..rng.range(1, 4))
            .map(|_| {
                let aimed = rng.below(n as u64) as usize;
                aim(&mut rng, &spinners[aimed])
            })
            .collect();
        let word = spinners[target].word;
        let value = rng.range(1, 1 << 20);
        let how = rng.below(3);
        let sim = w.sim.clone();
        let bus = w.bus.clone();
        let t = w.gpu.thread();
        let nic = w.pcie.endpoint(&format!("nic{wi}"));
        w.sim.spawn(&format!("writer{wi}"), async move {
            for at in hops {
                if at > sim.now() {
                    sim.delay(at - sim.now()).await;
                }
            }
            match how {
                0 => bus.write_u64(word, value),
                // A GPU store: device memory through the L2, system
                // memory as a posted write over the GPU's own link.
                1 => t.st_u64(word, value).await,
                // Peer DMA landing at completion.
                _ => nic.dma_write_bulk(word, &value.to_le_bytes()).await,
            }
        });
    }
    // Disturbers: an L2 evictor storing to fresh lines, and traffic on
    // the GPU's link (system-memory reads and posted writes).
    if rng.chance(1, 2) {
        let at = aim(&mut rng, &spinners[0]);
        let lines = rng.range(4, 40);
        let base = w.gpu.alloc(lines * 128, 128);
        let (sim, t) = (w.sim.clone(), w.gpu.thread());
        w.sim.spawn("evictor", async move {
            sim.delay(at).await;
            for i in 0..lines {
                t.st_u64(base + i * 128, i).await;
            }
        });
    }
    if rng.chance(1, 2) {
        let at = aim(&mut rng, &spinners[n - 1]);
        let reads = rng.range(1, 4);
        let (sim, t) = (w.sim.clone(), w.gpu.thread());
        w.sim.spawn("link", async move {
            sim.delay(at).await;
            for i in 0..reads {
                let a = layout::host_dram(0) + 0x20000 + i * 64;
                let _ = t.ld_u64(a).await;
                t.st_u64(a + 8, i).await;
            }
        });
    }
    let end = w.sim.run();
    let words = spinners.iter().map(|s| w.bus.read_u64(s.word)).collect();
    let mut exits = exits.borrow().clone();
    exits.sort();
    Observed {
        end,
        exits,
        words,
        registry: w.sim.registry().snapshot(),
    }
}

#[test]
fn elided_spin_waits_match_explicit_stepping() {
    for seed in 1..=300 {
        let elided = scenario(seed, false);
        let explicit = scenario(seed, true);
        assert_eq!(elided, explicit, "seed {seed} diverged");
    }
}

#[test]
fn device_and_system_memory_spinners_sleep() {
    // The oracle above is only meaningful if waits really sleep: a lone
    // spinner of each kind must park between its writer's hops.
    for sysmem in [false, true] {
        let w = world(false);
        let word = if sysmem {
            layout::host_dram(0) + 0x40
        } else {
            w.gpu.alloc(64, 128)
        };
        let t = w.gpu.thread();
        let parked = Rc::new(Cell::new(0usize));
        let p = parked.clone();
        let sim = w.sim.clone();
        w.sim.spawn("spinner", async move {
            if !sysmem {
                t.st_u64(word, 0).await;
            }
            t.spin_until(&[SpinOp::Load(word, 8), SpinOp::Instr(4)], None, |b| {
                spin_word(b, 0, 8) != 0
            })
            .await;
        });
        let bus = w.bus.clone();
        w.sim.spawn("probe", async move {
            sim.delay(ns(50_000)).await;
            p.set(sim.sleeping_processes());
            bus.write_u64(word, 1);
        });
        w.sim.run();
        assert_eq!(parked.get(), 1, "sysmem={sysmem}: spinner not asleep");
        assert_eq!(w.sim.live_processes(), 0);
    }
}

#[test]
fn a_wait_that_never_completes_ends_the_run_and_names_its_range() {
    let w = world(false);
    let word = w.gpu.alloc(64, 128);
    let t = w.gpu.thread();
    w.sim.spawn("waiter", async move {
        t.st_u64(word, 0).await;
        t.spin_until(&[SpinOp::Load(word, 8), SpinOp::Instr(4)], None, |b| {
            spin_word(b, 0, 8) != 0
        })
        .await;
    });
    // Explicit stepping would spin forever; elided, the run returns.
    w.sim.run();
    assert_eq!(w.sim.sleeping_processes(), 1);
    let dump = w.sim.stuck_dump();
    let range = format!("[{:#x}, {:#x})", word, word + 8);
    assert!(
        dump.contains("waiter: asleep in an elided spin-wait") && dump.contains(&range),
        "{dump}"
    );
}
