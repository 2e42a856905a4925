//! Elided against explicit CPU spin-waits.
//!
//! Each randomized scenario runs twice: once as is (CPU and GPU completion
//! waits may sleep and the executor may fast-forward) and once with the
//! trace recorder on, which forces explicit stepping. Final time, the
//! whole registry snapshot, every spinner's exit (time and returned bytes)
//! and the polled memory must be identical. Probes mix cached state loads,
//! 4, 8 and 64 B host-DRAM loads, GPU-BAR loads (which cross PCIe and so
//! must step explicitly) and instruction runs of every length, zero
//! included. Writers are plain bus writes, CPU stores and NIC DMA or
//! posted writes, aimed at a spinner's step boundaries or just off them;
//! some scenarios put two CPU spinners and a GPU spinner on one word.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use tc_desim::time::{ns, Time};
use tc_desim::Sim;
use tc_gpu::{Gpu, GpuConfig};
use tc_mem::{layout, Addr, Bus, MmioDevice, RegionKind, SparseMem};
use tc_pcie::{spin_word, CpuConfig, CpuThread, Pcie, PcieConfig, Processor, SpinOp};
use tc_trace::rng::XorShift64;
use tc_trace::Snapshot;

struct World {
    sim: Sim,
    bus: Bus,
    pcie: Pcie,
    gpu: Gpu,
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
    let gpu = Gpu::new(&sim, 0, GpuConfig::kepler_k20(), &bus, &pcie);
    World {
        sim,
        bus,
        pcie,
        gpu,
    }
}

fn cpu(w: &World, name: &str) -> CpuThread {
    CpuThread::new(
        w.sim.clone(),
        0,
        CpuConfig::default(),
        w.pcie.endpoint(name),
    )
}

/// What one run lets an observer see.
#[derive(Debug, PartialEq)]
struct Observed {
    end: Time,
    exits: Vec<(usize, Time, Vec<u8>)>,
    words: Vec<u64>,
    registry: Snapshot,
}

struct Spinner {
    ops: Vec<SpinOp>,
    /// The polled word and the bytes loaded from it: the exit test
    /// accepts any nonzero byte of them.
    word: Addr,
    span: u64,
    /// A word the iteration may load that the exit test ignores.
    state: Addr,
    gpu: bool,
    start: Time,
    /// Nominal step durations of one iteration, for aiming writers.
    steps: Vec<Time>,
}

/// A time on `s`'s nominal step grid (`m` periods in, at one of its step
/// boundaries), or just off it.
fn aim(rng: &mut XorShift64, s: &Spinner) -> Time {
    let period: Time = s.steps.iter().sum::<Time>().max(1);
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

/// A random CPU probe polling `word` first, and its nominal step times.
fn cpu_probe(rng: &mut XorShift64, word: Addr, state: Addr) -> (Vec<SpinOp>, u64, Vec<Time>) {
    let cfg = CpuConfig::default();
    let bar = layout::gpu_bar(0) + 0x4000;
    let mut ops = Vec::new();
    let mut steps = Vec::new();
    let span = match rng.below(5) {
        0 => {
            ops.push(SpinOp::LoadState(word));
            steps.push(cfg.cached);
            8
        }
        k => {
            let len = [4, 8, 64, 8][k as usize - 1];
            ops.push(SpinOp::Load(word, len));
            steps.push(cfg.dram);
            len as u64
        }
    };
    match rng.below(4) {
        0 => {
            ops.insert(0, SpinOp::LoadState(state));
            steps.insert(0, cfg.cached);
        }
        1 => {
            ops.push(SpinOp::Load(state, 8));
            steps.push(cfg.dram);
        }
        // A GPU-BAR load: a PCIe round trip, never elided.
        2 if rng.chance(1, 4) => {
            ops.push(SpinOp::Load(bar, 8));
            steps.push(ns(600));
        }
        _ => {}
    }
    let n = if rng.chance(1, 6) {
        0
    } else {
        rng.range(1, 45)
    };
    ops.push(SpinOp::Instr(n));
    if n > 0 {
        steps.push(n * cfg.instr);
    }
    (ops, span, steps)
}

fn scenario(seed: u64, explicit: bool) -> Observed {
    let mut rng = XorShift64::new(seed);
    let w = world(explicit);
    let exits = Rc::new(RefCell::new(Vec::new()));
    let shared = rng.chance(1, 4);
    let n = if shared { 3 } else { rng.range(1, 3) as usize };
    let shared_word = layout::host_dram(0) + 0x1000;
    let mut spinners = Vec::new();
    for k in 0..n {
        let gpu = shared && k == 2;
        let word = if shared {
            shared_word
        } else {
            layout::host_dram(0) + 0x1000 + 0x100 * k as u64
        };
        let state = layout::host_dram(0) + 0x8000 + 0x100 * k as u64;
        let start = ns(rng.below(40));
        let (ops, span, steps) = if gpu {
            let cfg = w.gpu.config();
            let ops = vec![SpinOp::Load(word, 8), SpinOp::Instr(4)];
            let read = w.gpu.endpoint().read_cost(8);
            (ops, 8, vec![cfg.sysmem_read_extra, read, cfg.instr_time(4)])
        } else {
            cpu_probe(&mut rng, word, state)
        };
        spinners.push(Spinner {
            ops,
            word,
            span,
            state,
            gpu,
            start,
            steps,
        });
    }
    for (k, s) in spinners.iter().enumerate() {
        let sim = w.sim.clone();
        let exits = exits.clone();
        let misses = w.sim.registry().counter(&format!("spin{k}.misses"));
        let (ops, start, span) = (s.ops.clone(), s.start, s.span as usize);
        let pos = ops.iter().position(|op| op.addr() == Some(s.word)).unwrap();
        let off: usize = ops[..pos].iter().map(|op| op.bytes()).sum();
        let done = move |b: &[u8]| b[off..off + span].iter().any(|&x| x != 0);
        if s.gpu {
            let t = w.gpu.thread();
            w.sim.spawn(&format!("spinner{k}"), async move {
                sim.delay(start).await;
                let b = t.spin_until(&ops, Some(&misses), done).await;
                exits.borrow_mut().push((k, sim.now(), b));
            });
        } else {
            let t = cpu(&w, &format!("cpu.s{k}"));
            w.sim.spawn(&format!("spinner{k}"), async move {
                sim.delay(start).await;
                let b = t.spin_until(&ops, Some(&misses), done).await;
                exits.borrow_mut().push((k, sim.now(), b));
            });
        }
    }
    // Writers: at least one per spinner completes its wait. Extra ones
    // may instead write next to the polled word (inside a 64 B load's
    // span, which ends that wait, or just past a 4 or 8 B one, which must
    // not wake it) or the spinner's state word (which wakes it without
    // ending the wait). Each hops one to three times (every hop aimed at
    // a spinner's boundary or next to it), then writes one of four ways.
    let writers = rng.range(n as u64, 6) as usize;
    for wi in 0..writers {
        let target = wi % n;
        let hops: Vec<Time> = (0..rng.range(1, 4))
            .map(|_| {
                let aimed = rng.below(n as u64) as usize;
                aim(&mut rng, &spinners[aimed])
            })
            .collect();
        let s = &spinners[target];
        let value = rng.range(1, 1 << 20);
        let (addr, bytes) = match (wi >= n).then(|| rng.below(3)) {
            Some(0) => {
                let off = if s.span == 4 { 4 } else { 8 * rng.range(1, 9) };
                (s.word + off, value.to_le_bytes().to_vec())
            }
            Some(1) => (s.state, value.to_le_bytes().to_vec()),
            _ if s.span == 4 => (s.word, (value as u32).to_le_bytes().to_vec()),
            _ => (s.word, value.to_le_bytes().to_vec()),
        };
        let how = rng.below(4);
        let sim = w.sim.clone();
        let bus = w.bus.clone();
        let t = cpu(&w, &format!("cpu.w{wi}"));
        let nic = w.pcie.endpoint(&format!("nic{wi}"));
        w.sim.spawn(&format!("writer{wi}"), async move {
            for at in hops {
                if at > sim.now() {
                    sim.delay(at - sim.now()).await;
                }
            }
            match how {
                0 => bus.write(addr, &bytes),
                1 => t.st_bytes(addr, &bytes).await,
                2 => nic.dma_write_bulk(addr, &bytes).await,
                _ => nic.posted_write(addr, bytes).await,
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
fn elided_cpu_spin_waits_match_explicit_stepping() {
    for seed in 1..=300 {
        let elided = scenario(seed, false);
        let explicit = scenario(seed, true);
        assert_eq!(elided, explicit, "seed {seed} diverged");
    }
}

/// Run one CPU spinner on `ops` (polling the word at `word`) until a bus
/// write just after 50 µs (off every step grid here: a timer on a
/// boundary would wake the sleeper); returns how many processes were asleep just before
/// the write and the CPU's load count at the end.
fn lone_spinner(w: &World, ops: Vec<SpinOp>, word: Addr) -> (usize, u64) {
    let t = cpu(w, "cpu");
    let parked = Rc::new(Cell::new(0usize));
    let p = parked.clone();
    let sim = w.sim.clone();
    w.sim.spawn("spinner", async move {
        t.spin_until(&ops, None, |b| spin_word(b, 0, 8) != 0).await;
    });
    let bus = w.bus.clone();
    w.sim.spawn("probe", async move {
        sim.delay(ns(50_000) + 1).await;
        p.set(sim.sleeping_processes());
        bus.write_u64(word, 1);
    });
    w.sim.run();
    assert_eq!(w.sim.live_processes(), 0);
    (parked.get(), w.sim.registry().snapshot().get("cpu0.loads"))
}

#[test]
fn host_dram_and_state_spinners_sleep() {
    // The oracle above is only meaningful if waits really sleep.
    let word = layout::host_dram(0) + 0x40;
    for ops in [
        vec![SpinOp::Load(word, 8), SpinOp::Instr(6)],
        vec![SpinOp::LoadState(word), SpinOp::Instr(0)],
    ] {
        let w = world(false);
        let (parked, loads) = lone_spinner(&w, ops.clone(), word);
        assert_eq!(parked, 1, "{ops:?}: spinner not asleep");
        let x = world(true);
        assert_eq!(lone_spinner(&x, ops, word), (0, loads));
    }
}

/// A device register that reads as the last value written to it.
struct Register(Cell<u64>);

impl MmioDevice for Register {
    fn mmio_write(&self, _offset: u64, data: &[u8]) {
        self.0.set(spin_word(data, 0, 8));
    }

    fn mmio_read(&self, _offset: u64, buf: &mut [u8]) {
        buf.copy_from_slice(&self.0.get().to_le_bytes()[..buf.len()]);
    }
}

#[test]
fn mmio_probes_step_explicitly() {
    let mut seen = Vec::new();
    for explicit in [false, true] {
        let w = world(explicit);
        let reg = layout::extoll_bar(0);
        w.bus.add_mmio(
            reg,
            4096,
            Rc::new(Register(Cell::new(0))),
            RegionKind::Mmio { node: 0 },
        );
        for ops in [
            vec![SpinOp::Load(reg, 8), SpinOp::Instr(6)],
            vec![SpinOp::LoadState(reg), SpinOp::Instr(6)],
        ] {
            let (parked, loads) = lone_spinner(&w, ops, reg);
            assert_eq!(parked, 0, "an MMIO probe must not sleep");
            seen.push(loads);
        }
    }
    assert_eq!(seen[..2], seen[2..]);
}

#[test]
fn a_cpu_wait_that_never_completes_names_its_range() {
    let w = world(false);
    let word = layout::host_dram(0) + 0x80;
    let t = cpu(&w, "cpu");
    w.sim.spawn("waiter", async move {
        t.spin_until(&[SpinOp::Load(word, 8), SpinOp::Instr(6)], None, |b| {
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
        dump.contains("waiter: asleep in an elided spin-wait (cpu0 spin") && dump.contains(&range),
        "{dump}"
    );
}
