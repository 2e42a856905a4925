//! The three workloads, each a list of simulations built and driven
//! through the public APIs of the simulator's layers.
//!
//! Every simulation builds a fresh system, so the modelled GPU L2 starts
//! empty each time, as in the paper's kernels. Inputs (message sizes,
//! payload bytes, ring element count and values) come from the seed;
//! the simulator receives only the generated values.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::{Duration, Instant};

use tc_desim::time::Time;
use tc_extoll::WrFlags;
use tc_gpu::GpuThread;
use tc_ib::{Access, BufLoc, CqeStatus, IbvContext, SendOpcode, SendWr};
use tc_mem::{Addr, Bus};
use tc_putget::collectives::ring::{
    build_ring, build_ring_sharded, ring_allreduce_sum_u64, RingLayout,
};
use tc_putget::msg::apps::{self, AppKind};
use tc_putget::{
    create_pair, messenger_pair, Backend, Cluster, MsgConfig, QueueLoc, RendezvousMode,
};
use tc_trace::rng::XorShift64;
use tc_trace::Snapshot;

use crate::spans::{driver, timed, PollCounts, Probe, Spans, DRIVER_PREFIX};

/// The seed whose inputs are exactly the named sizes and whose outputs
/// are frozen in [`crate::frozen`].
pub const DEFAULT_SEED: u64 = 0;

/// Ping-pong iterations of every `gpu_poll` simulation.
const GPU_ITERS: u32 = 6;
/// Named ping-pong payload sizes of `gpu_poll`.
const GPU_SIZES: [u64; 2] = [1 << 20, 4 << 20];
/// Seeded size band of `gpu_poll`: up to this many 64 B steps either way.
const GPU_STEPS: i64 = 8;

/// Named message sizes of the forced-protocol `msg_protocol` cases.
const MSG_SIZES: [u64; 3] = [1024, 4096, 16384];
/// Named payload sizes of the application-pattern cases.
const APP_SIZES: [u64; 2] = [1024, 16384];
/// Seeded size band of `msg_protocol`: up to this many 64 B steps.
const MSG_STEPS: i64 = 2;
/// Symmetric buffer per messenger side (staging + landing halves hold
/// the largest message).
const MSG_BUF: u64 = 64 * 1024;

/// Ring size and shard count of `ring_sharded`.
const RING_NODES: usize = 256;
/// Worker threads of `ring_sharded`.
const RING_SHARDS: usize = 2;
/// Named element count of the ring all-reduce.
const RING_ELEMENTS: usize = 1024;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// GPU-controlled ping-pongs with three completion strategies.
    GpuPoll,
    /// CPU-driven messenger traffic on both fabrics.
    MsgProtocol,
    /// 256-node EXTOLL ring all-reduce on two shards.
    RingSharded,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::GpuPoll,
        Workload::MsgProtocol,
        Workload::RingSharded,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GpuPoll => "gpu_poll",
            Workload::MsgProtocol => "msg_protocol",
            Workload::RingSharded => "ring_sharded",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Host threads one pass uses.
    pub fn threads(self) -> usize {
        match self {
            Workload::RingSharded => RING_SHARDS,
            _ => 1,
        }
    }
}

/// GPU completion strategy of one `gpu_poll` simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// EXTOLL put with notifications, polled in system memory.
    ExtollNotif,
    /// EXTOLL put without notifications; the GPU polls the payload's
    /// tail marker in device memory.
    ExtollMarker,
    /// Infiniband RDMA write; the GPU polls a CQ in device memory, then
    /// the marker.
    IbCq,
}

impl Strategy {
    const ALL: [Strategy; 3] = [
        Strategy::ExtollNotif,
        Strategy::ExtollMarker,
        Strategy::IbCq,
    ];

    fn label(self) -> &'static str {
        match self {
            Strategy::ExtollNotif => "extoll_notif_sysmem",
            Strategy::ExtollMarker => "extoll_marker_devmem",
            Strategy::IbCq => "ib_cq_gpumem",
        }
    }
}

/// What a `msg_protocol` simulation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgCase {
    /// Payload-verified ping-pong plus a stream, every message forced
    /// eager (`true`) or rendezvous (`false`).
    Forced { eager: bool },
    /// An application pattern at the backend's default threshold.
    App(AppKind),
}

/// One simulation of a workload, with its generated inputs.
#[derive(Debug, Clone)]
pub enum Case {
    /// A `gpu_poll` ping-pong.
    Gpu {
        /// Completion strategy.
        strategy: Strategy,
        /// Payload bytes.
        size: u64,
        /// Seeded payload fill.
        fill: u64,
    },
    /// A `msg_protocol` messenger run.
    Msg {
        /// Fabric.
        backend: Backend,
        /// Protocol or pattern.
        case: MsgCase,
        /// Message bytes.
        size: u64,
        /// Seeded payload fill.
        fill: u64,
    },
    /// The `ring_sharded` all-reduce.
    Ring {
        /// Reduced u64 elements.
        elements: usize,
        /// Seeded initial-value salt.
        fill: u64,
    },
}

impl Case {
    /// Stable name: the key of the frozen outputs. Sizes are part of it,
    /// so a seed with other sizes never matches a frozen entry by chance.
    pub fn name(&self) -> String {
        match self {
            Case::Gpu { strategy, size, .. } => format!("{}/{size}", strategy.label()),
            Case::Msg {
                backend,
                case,
                size,
                ..
            } => {
                let fabric = match backend {
                    Backend::Extoll => "extoll",
                    Backend::Infiniband => "ib",
                };
                let what = match case {
                    MsgCase::Forced { eager: true } => "eager",
                    MsgCase::Forced { eager: false } => "rndv",
                    MsgCase::App(k) => k.label(),
                };
                format!("{fabric}/{what}/{size}")
            }
            Case::Ring { elements, .. } => format!("ring{RING_NODES}x{RING_SHARDS}/{elements}"),
        }
    }
}

/// The simulations of one pass of `w` for `seed`.
pub fn cases(w: Workload, seed: u64) -> Vec<Case> {
    let mut rng = XorShift64::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (w as u64 + 1));
    // A step offset in [-steps, steps] (0 for the default seed) and a
    // payload fill, drawn per simulation.
    let mut draw = |steps: i64| {
        let k = rng.range(0, 2 * steps as u64 + 1) as i64 - steps;
        let fill = rng.next_u64();
        (if seed == DEFAULT_SEED { 0 } else { k }, fill)
    };
    let sized = |named: u64, k: i64| (named as i64 + 64 * k) as u64;
    match w {
        Workload::GpuPoll => GPU_SIZES
            .iter()
            .flat_map(|&s| Strategy::ALL.map(|st| (st, s)))
            .map(|(strategy, s)| {
                let (k, fill) = draw(GPU_STEPS);
                Case::Gpu {
                    strategy,
                    size: sized(s, k),
                    fill,
                }
            })
            .collect(),
        Workload::MsgProtocol => {
            let mut out = Vec::new();
            for backend in [Backend::Extoll, Backend::Infiniband] {
                for eager in [true, false] {
                    for &s in &MSG_SIZES {
                        let (k, fill) = draw(MSG_STEPS);
                        let case = MsgCase::Forced { eager };
                        out.push(Case::Msg {
                            backend,
                            case,
                            size: sized(s, k),
                            fill,
                        });
                    }
                }
                for kind in AppKind::ALL {
                    for &s in &APP_SIZES {
                        let (k, fill) = draw(MSG_STEPS);
                        out.push(Case::Msg {
                            backend,
                            case: MsgCase::App(kind),
                            size: sized(s, k),
                            fill,
                        });
                    }
                }
            }
            out
        }
        Workload::RingSharded => {
            // The element count must divide over the ring: it varies in
            // steps of one element per rank.
            let (k, fill) = draw(1);
            let elements = (RING_ELEMENTS as i64 + k * RING_NODES as i64) as usize;
            vec![Case::Ring { elements, fill }]
        }
    }
}

/// How a pass runs its simulations.
#[derive(Debug, Clone, Copy)]
pub struct Mode {
    /// Record spans and the executor's causal log.
    pub traced: bool,
    /// Busy-wait this share of each simulation's set-up and run time
    /// inside the timed region: a deliberate slowdown that proves the
    /// bounds catch a regression without touching program code.
    pub inject: f64,
}

/// Everything measured and checked for one simulation.
#[derive(Debug, Clone, Default)]
pub struct SimRun {
    /// [`Case::name`].
    pub name: String,
    /// Host seconds constructing the cluster(s).
    pub cluster_s: f64,
    /// Host seconds for buffers, endpoints, messengers and drivers.
    pub endpoints_s: f64,
    /// Host wall seconds of the run phase.
    pub wall_s: f64,
    /// Host seconds inside run calls, summed over shards.
    pub run_s: f64,
    /// Host seconds taking registry snapshots and deltas.
    pub snapshot_s: f64,
    /// Simulated time of the last event.
    pub end_time: Time,
    /// Registry delta over the run (merged over shards).
    pub registry: Snapshot,
    /// Why the output check failed, if it did.
    pub failure: Option<String>,
    /// Executor polls (traced only).
    pub polls: PollCounts,
    /// Host seconds inside driver programs / post calls / wait calls
    /// (traced only).
    pub driver_s: f64,
    /// See `driver_s`.
    pub post_s: f64,
    /// See `driver_s`.
    pub wait_s: f64,
    /// Shard barrier windows (0 for serial simulations).
    pub windows: u64,
    /// Cross-shard envelopes exported.
    pub envelopes: u64,
}

impl SimRun {
    /// Scale every host time by `k` (host seconds to reference seconds).
    pub fn scale(&mut self, k: f64) {
        for t in [
            &mut self.cluster_s,
            &mut self.endpoints_s,
            &mut self.wall_s,
            &mut self.run_s,
            &mut self.snapshot_s,
            &mut self.driver_s,
            &mut self.post_s,
            &mut self.wait_s,
        ] {
            *t *= k;
        }
    }
}

/// Run one simulation. Inputs are generated before the set-up clock
/// starts: producing them is the benchmark's work, not the simulator's.
pub fn run_case(case: &Case, mode: Mode) -> SimRun {
    let mut r = match *case {
        Case::Gpu {
            strategy,
            size,
            fill,
        } => {
            let backend = match strategy {
                Strategy::IbCq => Backend::Infiniband,
                _ => Backend::Extoll,
            };
            let data = payloads(fill, size, 1);
            serial(backend, mode, |c, probe, failure| {
                gpu_pingpong(c, probe, failure, strategy, size, &data)
            })
        }
        Case::Msg {
            backend,
            case,
            size,
            fill,
        } => {
            let messages = match case {
                MsgCase::Forced { .. } => {
                    let (round_trips, stream, _) = msg_counts(backend);
                    round_trips + stream
                }
                MsgCase::App(_) => 1,
            };
            let data = payloads(fill, size, messages);
            serial(backend, mode, |c, probe, failure| {
                messenger(c, probe, failure, case, size, data)
            })
        }
        Case::Ring { elements, fill } => ring_sharded(elements, fill, mode),
    };
    r.name = case.name();
    r
}

/// Busy-wait `share` of `d` (the injected slowdown).
fn inject(share: f64, d: Duration) {
    if share > 0.0 {
        let until = Instant::now() + d.mul_f64(share);
        while Instant::now() < until {
            std::hint::spin_loop();
        }
    }
}

/// First failure seen by a driver program.
#[derive(Clone, Default)]
struct Failure(Rc<RefCell<Option<String>>>);

impl Failure {
    fn check(&self, ok: bool, what: impl FnOnce() -> String) {
        if !ok && self.0.borrow().is_none() {
            *self.0.borrow_mut() = Some(what());
        }
    }

    fn take(&self) -> Option<String> {
        self.0.borrow_mut().take()
    }
}

/// Post-run output check of a serial simulation.
type Check = Box<dyn FnOnce(&Cluster) -> Result<(), String>>;

/// Build a two-node `backend` system, let `setup` add buffers, endpoints
/// and driver programs, run it, and check its outputs.
fn serial(
    backend: Backend,
    mode: Mode,
    setup: impl FnOnce(&Cluster, &Probe, &Failure) -> Check,
) -> SimRun {
    let t0 = Instant::now();
    let c = Cluster::new(backend);
    let t1 = Instant::now();
    if mode.traced {
        c.sim.causal_enable();
    }
    let probe: Probe = mode.traced.then(|| Rc::new(Spans::default()));
    let failure = Failure::default();
    let check = setup(&c, &probe, &failure);
    inject(mode.inject, t0.elapsed());
    let t2 = Instant::now();

    let s0 = Instant::now();
    let before = c.sim.registry().snapshot();
    let mut snapshot = s0.elapsed();

    let t3 = Instant::now();
    let end_time = c.sim.run();
    inject(mode.inject, t3.elapsed());
    let wall = t3.elapsed();

    let s1 = Instant::now();
    let registry = c.sim.registry().snapshot().delta(&before);
    snapshot += s1.elapsed();

    let polls = if mode.traced {
        PollCounts::from_dump(&c.sim.causal_dump())
    } else {
        PollCounts::default()
    };
    let failure = failure.take().or_else(|| check(&c).err());
    let spans = probe.as_deref();
    SimRun {
        cluster_s: (t1 - t0).as_secs_f64(),
        endpoints_s: (t2 - t1).as_secs_f64(),
        wall_s: wall.as_secs_f64(),
        run_s: wall.as_secs_f64(),
        snapshot_s: snapshot.as_secs_f64(),
        end_time,
        registry,
        failure,
        polls,
        driver_s: spans.map_or(0.0, |s| s.driver.secs()),
        post_s: spans.map_or(0.0, |s| s.post.secs()),
        wait_s: spans.map_or(0.0, |s| s.wait.secs()),
        ..SimRun::default()
    }
}

/// Seeded payloads: `n` distinct `size`-byte messages per direction
/// (node 0 -> node 1, then node 1 -> node 0).
fn payloads(fill: u64, size: u64, n: usize) -> [Rc<Vec<Vec<u8>>>; 2] {
    let mut rng = XorShift64::new(fill);
    [0, 1].map(|_| {
        Rc::new(
            (0..n)
                .map(|_| {
                    let mut v = vec![0u8; size as usize];
                    rng.fill_bytes(&mut v);
                    v
                })
                .collect(),
        )
    })
}

fn read(bus: &Bus, addr: Addr, len: u64) -> Vec<u8> {
    let mut v = vec![0u8; len as usize];
    bus.read(addr, &mut v);
    v
}

/// Store the iteration marker into the payload's last word.
async fn write_marker(t: &GpuThread, buf: Addr, size: u64, v: u64) {
    t.st_u64(buf + size - 8, v).await;
}

/// Spin on the payload's last word until it reads `v`: the paper's
/// device-memory polling loop (load, compare, branch, recompute the
/// volatile pointer).
async fn spin_marker(t: &GpuThread, buf: Addr, size: u64, v: u64) {
    loop {
        let cur = t.ld_u64(buf + size - 8).await;
        t.instr(4).await;
        if cur == v {
            return;
        }
    }
}

/// A GPU-controlled ping-pong of `GPU_ITERS` round trips between node 0
/// (ping) and node 1 (pong). Both payloads live in device memory; the
/// strategy decides how each side learns that data arrived.
fn gpu_pingpong(
    c: &Cluster,
    probe: &Probe,
    failure: &Failure,
    strategy: Strategy,
    size: u64,
    data: &[Rc<Vec<Vec<u8>>>; 2],
) -> Check {
    let gpu0 = c.nodes[0].gpu.clone();
    let gpu1 = c.nodes[1].gpu.clone();
    let (tx0, rx0) = (gpu0.alloc(size, 256), gpu0.alloc(size, 256));
    let (tx1, rx1) = (gpu1.alloc(size, 256), gpu1.alloc(size, 256));
    c.bus.write(tx0, &data[0][0]);
    c.bus.write(tx1, &data[1][0]);
    let done = [Rc::new(Cell::new(0u32)), Rc::new(Cell::new(0u32))];
    let (d0, d1) = (done[0].clone(), done[1].clone());
    let (p0, p1) = (probe.clone(), probe.clone());
    let (f0, f1) = (failure.clone(), failure.clone());

    match strategy {
        Strategy::ExtollNotif => {
            // Pair "a" carries the ping (tx0 -> rx1), pair "b" the pong.
            let (a0, a1) = create_pair(c, tx0, rx1, size, QueueLoc::Host);
            let (b0, b1) = create_pair(c, rx0, tx1, size, QueueLoc::Host);
            let len = size as u32;
            c.sim.spawn(
                &format!("{DRIVER_PREFIX}pp0"),
                driver(probe.clone(), async move {
                    let t = gpu0.thread();
                    for i in 0..GPU_ITERS {
                        write_marker(&t, tx0, size, i as u64 + 1).await;
                        t.fence_system().await;
                        timed(&p0, |s| &s.post, a0.put(&t, 0, 0, len, true)).await;
                        let q = timed(&p0, |s| &s.wait, a0.quiet(&t)).await;
                        let n = timed(&p0, |s| &s.wait, b0.wait_arrival(&t)).await;
                        f0.check(q.is_ok() && n == Ok(len), || {
                            format!("ping {i}: quiet {q:?}, arrival {n:?}")
                        });
                        d0.set(d0.get() + 1);
                    }
                }),
            );
            c.sim.spawn(
                &format!("{DRIVER_PREFIX}pp1"),
                driver(probe.clone(), async move {
                    let t = gpu1.thread();
                    for i in 0..GPU_ITERS {
                        let n = timed(&p1, |s| &s.wait, a1.wait_arrival(&t)).await;
                        write_marker(&t, tx1, size, i as u64 + 1).await;
                        t.fence_system().await;
                        timed(&p1, |s| &s.post, b1.put(&t, 0, 0, len, true)).await;
                        let q = timed(&p1, |s| &s.wait, b1.quiet(&t)).await;
                        f1.check(q.is_ok() && n == Ok(len), || {
                            format!("pong {i}: quiet {q:?}, arrival {n:?}")
                        });
                        d1.set(d1.get() + 1);
                    }
                }),
            );
        }
        Strategy::ExtollMarker => {
            let (a0, a1) = create_pair(c, tx0, rx1, size, QueueLoc::Host);
            let (b0, b1) = create_pair(c, rx0, tx1, size, QueueLoc::Host);
            let (port0, port1) = (a0.extoll_port().clone(), b1.extoll_port().clone());
            let (peer0, peer1) = (a1.extoll_port().index(), b0.extoll_port().index());
            let (n0, n1) = (c.nodes[0].extoll(), c.nodes[1].extoll());
            let (nla_tx0, nla_rx1) = (n0.register_memory(tx0, size), n1.register_memory(rx1, size));
            let (nla_tx1, nla_rx0) = (n1.register_memory(tx1, size), n0.register_memory(rx0, size));
            let len = size as u32;
            c.sim.spawn(
                &format!("{DRIVER_PREFIX}pp0"),
                driver(probe.clone(), async move {
                    let t = gpu0.thread();
                    for i in 0..GPU_ITERS {
                        let marker = i as u64 + 1;
                        write_marker(&t, tx0, size, marker).await;
                        t.fence_system().await;
                        let post =
                            port0.post_put(&t, peer0, nla_tx0, nla_rx1, len, WrFlags::default());
                        timed(&p0, |s| &s.post, post).await;
                        timed(&p0, |s| &s.wait, spin_marker(&t, rx0, size, marker)).await;
                        d0.set(d0.get() + 1);
                    }
                }),
            );
            c.sim.spawn(
                &format!("{DRIVER_PREFIX}pp1"),
                driver(probe.clone(), async move {
                    let t = gpu1.thread();
                    for i in 0..GPU_ITERS {
                        let marker = i as u64 + 1;
                        timed(&p1, |s| &s.wait, spin_marker(&t, rx1, size, marker)).await;
                        write_marker(&t, tx1, size, marker).await;
                        t.fence_system().await;
                        let post =
                            port1.post_put(&t, peer1, nla_tx1, nla_rx0, len, WrFlags::default());
                        timed(&p1, |s| &s.post, post).await;
                        d1.set(d1.get() + 1);
                    }
                }),
            );
        }
        Strategy::IbCq => {
            // GPU-driven verbs: queues and software state in device memory.
            let ctx = |n: usize| {
                let node = &c.nodes[n];
                IbvContext::new(
                    node.ib().clone(),
                    node.host_heap.clone(),
                    Some(node.gpu.clone()),
                    BufLoc::Gpu,
                )
            };
            let (ctx0, ctx1) = (ctx(0), ctx(1));
            let (cq0, cq1) = (ctx0.create_cq(BufLoc::Gpu), ctx1.create_cq(BufLoc::Gpu));
            let qp0 = ctx0.create_qp(cq0.clone(), cq0.clone(), BufLoc::Gpu);
            let qp1 = ctx1.create_qp(cq1.clone(), cq1.clone(), BufLoc::Gpu);
            qp0.connect(qp1.qpn());
            qp1.connect(qp0.qpn());
            let (mr_tx0, mr_rx0) = (
                ctx0.reg_mr(tx0, size, Access::full()),
                ctx0.reg_mr(rx0, size, Access::full()),
            );
            let (mr_tx1, mr_rx1) = (
                ctx1.reg_mr(tx1, size, Access::full()),
                ctx1.reg_mr(rx1, size, Access::full()),
            );
            let write = |l: &tc_ib::MemoryRegion, r: &tc_ib::MemoryRegion| SendWr {
                opcode: SendOpcode::RdmaWrite,
                laddr: l.addr,
                lkey: l.lkey,
                raddr: r.addr,
                rkey: r.rkey,
                len: size as u32,
                imm: 0,
                signaled: true,
            };
            let (wr0, wr1) = (write(&mr_tx0, &mr_rx1), write(&mr_tx1, &mr_rx0));
            c.sim.spawn(
                &format!("{DRIVER_PREFIX}pp0"),
                driver(probe.clone(), async move {
                    let t = gpu0.thread();
                    for i in 0..GPU_ITERS {
                        let marker = i as u64 + 1;
                        write_marker(&t, tx0, size, marker).await;
                        t.fence_system().await;
                        timed(&p0, |s| &s.post, qp0.post_send(&t, &wr0)).await;
                        let wc = timed(&p0, |s| &s.wait, cq0.wait(&t)).await;
                        f0.check(wc.status == CqeStatus::Success, || {
                            format!("ping {i}: {:?}", wc.status)
                        });
                        timed(&p0, |s| &s.wait, spin_marker(&t, rx0, size, marker)).await;
                        d0.set(d0.get() + 1);
                    }
                }),
            );
            c.sim.spawn(
                &format!("{DRIVER_PREFIX}pp1"),
                driver(probe.clone(), async move {
                    let t = gpu1.thread();
                    for i in 0..GPU_ITERS {
                        let marker = i as u64 + 1;
                        timed(&p1, |s| &s.wait, spin_marker(&t, rx1, size, marker)).await;
                        write_marker(&t, tx1, size, marker).await;
                        t.fence_system().await;
                        timed(&p1, |s| &s.post, qp1.post_send(&t, &wr1)).await;
                        let wc = timed(&p1, |s| &s.wait, cq1.wait(&t)).await;
                        f1.check(wc.status == CqeStatus::Success, || {
                            format!("pong {i}: {:?}", wc.status)
                        });
                        d1.set(d1.get() + 1);
                    }
                }),
            );
        }
    }

    Box::new(move |c: &Cluster| {
        let (n0, n1) = (done[0].get(), done[1].get());
        if (n0, n1) != (GPU_ITERS, GPU_ITERS) {
            return Err(format!("finished {n0}/{n1} of {GPU_ITERS} iterations"));
        }
        // The last ping and pong carried the final payloads intact.
        if read(&c.bus, rx1, size) != read(&c.bus, tx0, size)
            || read(&c.bus, rx0, size) != read(&c.bus, tx1, size)
        {
            return Err("received payload differs from the sent one".into());
        }
        Ok(())
    })
}

/// Message counts of one `msg_protocol` simulation on `backend`:
/// forced-protocol round trips, the stream that follows them (closed by
/// a one-byte ack), and application-pattern iterations. Infiniband's
/// eager frames carry 8x fewer bytes than EXTOLL's, so it gets fewer
/// messages: neither fabric takes more than about two thirds of a pass.
fn msg_counts(backend: Backend) -> (usize, usize, usize) {
    match backend {
        Backend::Extoll => (12, 36, 32),
        Backend::Infiniband => (2, 6, 16),
    }
}

/// A CPU-driven messenger pair between node 0 and node 1.
fn messenger(
    c: &Cluster,
    probe: &Probe,
    failure: &Failure,
    case: MsgCase,
    size: u64,
    [ping, pong]: [Rc<Vec<Vec<u8>>>; 2],
) -> Check {
    let cfg = match case {
        MsgCase::Forced { eager } => MsgConfig {
            eager_threshold: if eager { usize::MAX } else { 0 },
            rendezvous: RendezvousMode::Put,
        },
        MsgCase::App(_) => MsgConfig::for_caps(&c.backend.transport_caps()),
    };
    let (m0, m1) = messenger_pair(c, MSG_BUF, cfg);
    let (cpu0, cpu1) = (c.nodes[0].cpu.clone(), c.nodes[1].cpu.clone());
    // Node 1 posts its receive window before node 0's first send.
    let ready = Rc::new(Cell::new(false));
    let ready_sig = c.sim.signal();
    let (r0, rs0) = (ready.clone(), ready_sig.clone());
    let done = [Rc::new(Cell::new(0usize)), Rc::new(Cell::new(0usize))];
    let (d0, d1) = (done[0].clone(), done[1].clone());
    let (p0, p1) = (probe.clone(), probe.clone());
    let (f0, f1) = (failure.clone(), failure.clone());
    let len = size as u32;
    let (round_trips, stream, app_iters) = msg_counts(c.backend);
    let expected_done;

    match case {
        MsgCase::Forced { .. } => {
            // Node 0 sends pings then the stream; node 1 answers each
            // ping with a pong. Every payload differs and is compared
            // byte for byte on arrival.
            let msgs = round_trips + stream;
            let (ping1, pong0) = (ping.clone(), pong.clone());
            expected_done = [msgs + 1, msgs + 1];
            c.sim.spawn(
                &format!("{DRIVER_PREFIX}msg0"),
                driver(probe.clone(), async move {
                    m0.init(&cpu0).await;
                    rs0.wait_until(|| r0.get()).await;
                    for i in 0..msgs {
                        let s = timed(&p0, |s| &s.post, m0.send(&cpu0, &ping[i])).await;
                        f0.check(s.is_ok(), || format!("send {i}: {s:?}"));
                        d0.set(d0.get() + 1);
                        if i < round_trips {
                            let got = timed(&p0, |s| &s.wait, m0.recv(&cpu0)).await;
                            f0.check(got.as_ref() == Ok(&pong0[i]), || {
                                format!("pong {i} payload differs")
                            });
                        }
                    }
                    let ack = timed(&p0, |s| &s.wait, m0.recv(&cpu0)).await;
                    f0.check(ack == Ok(vec![1]), || format!("ack {ack:?}"));
                    d0.set(d0.get() + 1);
                }),
            );
            c.sim.spawn(
                &format!("{DRIVER_PREFIX}msg1"),
                driver(probe.clone(), async move {
                    m1.init(&cpu1).await;
                    ready.set(true);
                    ready_sig.notify_all();
                    for i in 0..msgs {
                        let got = timed(&p1, |s| &s.wait, m1.recv(&cpu1)).await;
                        f1.check(got.as_ref() == Ok(&ping1[i]), || {
                            format!("ping {i} payload differs")
                        });
                        d1.set(d1.get() + 1);
                        if i < round_trips {
                            let s = timed(&p1, |s| &s.post, m1.send(&cpu1, &pong[i])).await;
                            f1.check(s.is_ok(), || format!("pong send {i}: {s:?}"));
                        }
                    }
                    let s = timed(&p1, |s| &s.post, m1.send(&cpu1, &[1])).await;
                    f1.check(s.is_ok(), || format!("ack send: {s:?}"));
                    d1.set(d1.get() + 1);
                }),
            );
        }
        MsgCase::App(kind) => {
            // Staged sends carry whatever sits in the staging region.
            m0.stage(&ping[0]);
            m1.stage(&pong[0]);
            let iters = app_iters;
            expected_done = [iters, iters];
            c.sim.spawn(
                &format!("{DRIVER_PREFIX}app0"),
                driver(probe.clone(), async move {
                    m0.init(&cpu0).await;
                    rs0.wait_until(|| r0.get()).await;
                    for i in 0..iters {
                        let r = match kind {
                            AppKind::Halo => apps::halo_iter(&m0, &cpu0, len)
                                .await
                                .map_err(|e| format!("{e:?}")),
                            AppKind::Allreduce => apps::allreduce_iter(&m0, &cpu0, len)
                                .await
                                .map_err(|e| format!("{e:?}")),
                            AppKind::Rpc => match apps::rpc_call(&m0, &cpu0, len).await {
                                Ok(n) if n == len as usize => Ok(()),
                                other => Err(format!("response {other:?}")),
                            },
                        };
                        f0.check(r.is_ok(), || {
                            format!("{} iteration {i}: {r:?}", kind.label())
                        });
                        d0.set(d0.get() + 1);
                    }
                }),
            );
            c.sim.spawn(
                &format!("{DRIVER_PREFIX}app1"),
                driver(probe.clone(), async move {
                    m1.init(&cpu1).await;
                    ready.set(true);
                    ready_sig.notify_all();
                    for i in 0..iters {
                        let r = match kind {
                            AppKind::Halo => apps::halo_iter(&m1, &cpu1, len).await,
                            AppKind::Allreduce => apps::allreduce_iter(&m1, &cpu1, len).await,
                            AppKind::Rpc => apps::rpc_serve_one(&m1, &cpu1).await,
                        };
                        f1.check(r.is_ok(), || format!("{} serve {i}: {r:?}", kind.label()));
                        d1.set(d1.get() + 1);
                    }
                }),
            );
        }
    }

    Box::new(move |c: &Cluster| {
        let got = [done[0].get(), done[1].get()];
        if got != expected_done {
            return Err(format!("finished {got:?} of {expected_done:?} steps"));
        }
        let snap = c.sim.registry().snapshot();
        let sent = layer_sum(&snap, "msg", "eager_sends") + layer_sum(&snap, "msg", "rndv_sends");
        let delivered = layer_sum(&snap, "msg", "delivered");
        if sent != delivered {
            return Err(format!(
                "messenger delivered {delivered} of {sent} messages"
            ));
        }
        Ok(())
    })
}

/// Sum of the counters `<layer><index>.<name>` over every indexed scope
/// of `layer` (e.g. `gpu0.mem_accesses + gpu1.mem_accesses`).
pub fn layer_sum(snap: &Snapshot, layer: &str, name: &str) -> u64 {
    snap.iter()
        .filter(|(n, _)| {
            n.strip_prefix(layer)
                .and_then(|rest| rest.split_once('.'))
                .is_some_and(|(idx, sub)| {
                    !idx.is_empty() && idx.bytes().all(|b| b.is_ascii_digit()) && sub == name
                })
        })
        .map(|(_, v)| v)
        .sum()
}

/// Initial value of element `i` on `rank`.
fn ring_value(fill: u64, rank: usize, i: usize) -> u64 {
    let mut x = fill ^ ((rank as u64) << 32) ^ i as u64;
    // splitmix64 finalizer: distinct, well-mixed values per element.
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn ring_reference(elements: usize, fill: u64) -> Vec<u64> {
    (0..elements)
        .map(|i| (0..RING_NODES).fold(0u64, |acc, r| acc.wrapping_add(ring_value(fill, r, i))))
        .collect()
}

fn ring_matches(bus: &Bus, bufs: &[Addr], reference: &[u64]) -> bool {
    bufs.iter().all(|&b| {
        reference
            .iter()
            .enumerate()
            .all(|(i, &want)| bus.read_u64(b + (i * 8) as u64) == want)
    })
}

/// One shard's share of a sharded ring pass.
struct ShardOut {
    entered: Instant,
    ready: Instant,
    run_start: Instant,
    run_end: Instant,
    end_time: Time,
    registry: Snapshot,
    snapshot_s: f64,
    polls: PollCounts,
    driver_s: f64,
    ok: bool,
    windows: u64,
    envelopes: u64,
}

/// The 256-node EXTOLL ring all-reduce on [`RING_SHARDS`] worker threads:
/// GPU-controlled chunk puts plus device-memory tag polls on every rank.
fn ring_sharded(elements: usize, fill: u64, mode: Mode) -> SimRun {
    let layout = RingLayout::for_u64(RING_NODES, elements);
    let reference = ring_reference(elements, fill);
    let reference = &reference;
    let start = Instant::now();
    let shards = Cluster::sharded(Backend::Extoll, RING_NODES, RING_SHARDS).run(|sc| {
        let entered = Instant::now();
        if mode.traced {
            sc.cluster.sim.causal_enable();
        }
        let probe: Probe = mode.traced.then(|| Rc::new(Spans::default()));
        let owned = sc.owned();
        let bufs: Vec<Addr> = owned
            .clone()
            .map(|r| sc.cluster.node(r).gpu.alloc(layout.buffer_bytes(), 256))
            .collect();
        for (j, rank) in owned.clone().enumerate() {
            for i in 0..elements {
                sc.cluster
                    .bus
                    .write_u64(bufs[j] + (i * 8) as u64, ring_value(fill, rank, i));
            }
        }
        let eps = build_ring_sharded(sc, &bufs, layout);
        for (j, ep) in eps.into_iter().enumerate() {
            let rank = owned.start + j;
            let gpu = sc.cluster.node(rank).gpu.clone();
            let buf = bufs[j];
            sc.cluster.sim.spawn(
                &format!("{DRIVER_PREFIX}rank{rank}"),
                driver(probe.clone(), async move {
                    ring_allreduce_sum_u64(&gpu.thread(), &ep, buf, rank, layout).await;
                }),
            );
        }
        inject(mode.inject, start.elapsed());
        let ready = Instant::now();
        let before = sc.cluster.sim.registry().snapshot();
        let mut snapshot = ready.elapsed();

        let (mut windows, mut envelopes) = (0, 0);
        let run_start = Instant::now();
        let end_time = sc.run_observed(|w| {
            windows += 1;
            envelopes += w.exported;
        });
        inject(mode.inject, run_start.elapsed());
        let run_end = Instant::now();

        let s = Instant::now();
        let registry = sc.cluster.sim.registry().snapshot().delta(&before);
        snapshot += s.elapsed();
        let polls = if mode.traced {
            PollCounts::from_dump(&sc.cluster.sim.causal_dump())
        } else {
            PollCounts::default()
        };
        ShardOut {
            entered,
            ready,
            run_start,
            run_end,
            end_time,
            registry,
            snapshot_s: snapshot.as_secs_f64(),
            polls,
            driver_s: probe.as_deref().map_or(0.0, |s| s.driver.secs()),
            ok: ring_matches(&sc.cluster.bus, &bufs, reference),
            windows,
            envelopes,
        }
    });

    let latest =
        |f: fn(&ShardOut) -> Instant| shards.iter().map(f).max().expect("at least one shard");
    let earliest_run = shards
        .iter()
        .map(|s| s.run_start)
        .min()
        .expect("at least one shard");
    let mut r = SimRun {
        cluster_s: (latest(|s| s.entered) - start).as_secs_f64(),
        endpoints_s: (latest(|s| s.ready) - latest(|s| s.entered)).as_secs_f64(),
        wall_s: (latest(|s| s.run_end) - earliest_run).as_secs_f64(),
        end_time: shards.iter().map(|s| s.end_time).max().unwrap_or(0),
        // Windows are global: every shard crosses the same barriers.
        windows: shards[0].windows,
        ..SimRun::default()
    };
    for s in &shards {
        r.run_s += (s.run_end - s.run_start).as_secs_f64();
        r.snapshot_s += s.snapshot_s;
        r.registry = r.registry.merge(&s.registry);
        r.polls.add(&s.polls);
        r.driver_s += s.driver_s;
        r.envelopes += s.envelopes;
    }
    if !shards.iter().all(|s| s.ok) {
        r.failure = Some("ring buffers differ from the reference sums".into());
    }
    r
}

/// The same ring all-reduce as one serial simulation, named
/// `<ring>/serial`. The traced pass uses it for the sharding speed-up; its
/// outputs must equal the sharded run's.
pub fn ring_serial(elements: usize, fill: u64) -> SimRun {
    let layout = RingLayout::for_u64(RING_NODES, elements);
    let c = Cluster::with_nodes(Backend::Extoll, RING_NODES);
    let bufs: Vec<Addr> = (0..RING_NODES)
        .map(|r| c.nodes[r].gpu.alloc(layout.buffer_bytes(), 256))
        .collect();
    for (rank, &buf) in bufs.iter().enumerate() {
        for i in 0..elements {
            c.bus
                .write_u64(buf + (i * 8) as u64, ring_value(fill, rank, i));
        }
    }
    for (rank, ep) in build_ring(&c, &bufs, layout).into_iter().enumerate() {
        let gpu = c.nodes[rank].gpu.clone();
        let buf = bufs[rank];
        c.sim
            .spawn(&format!("{DRIVER_PREFIX}rank{rank}"), async move {
                ring_allreduce_sum_u64(&gpu.thread(), &ep, buf, rank, layout).await;
            });
    }
    let before = c.sim.registry().snapshot();
    let t = Instant::now();
    let end_time = c.sim.run();
    let wall_s = t.elapsed().as_secs_f64();
    let ok = ring_matches(&c.bus, &bufs, &ring_reference(elements, fill));
    SimRun {
        name: format!("{}/serial", Case::Ring { elements, fill }.name()),
        wall_s,
        run_s: wall_s,
        end_time,
        registry: c.sim.registry().snapshot().delta(&before),
        failure: (!ok).then(|| "ring buffers differ from the reference sums".into()),
        ..SimRun::default()
    }
}
