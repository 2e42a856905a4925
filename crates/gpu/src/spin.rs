//! Exact spin-wait elision for GPU threads.
//!
//! The shared park loop, [`Processor::spin_until`], asks [`GpuThread`]
//! after every failed iteration whether it may park. It may when every
//! load was an L2-hit device-memory load or an uncontended system-memory
//! load over the GPU's own PCIe link. Nothing such an iteration does can
//! change until another party writes the polled memory, evicts the polled
//! lines or uses the link, so the thread then parks on its step grid
//! ([`tc_desim::spin`]) instead of stepping: the executor wakes it at
//! exactly the step it would be in when one of those happens, and
//! [`Charger`] charges every elided step's counters, link occupancy and
//! round-trip samples in one go.
//!
//! [`Processor::spin_until`]: tc_pcie::Processor::spin_until

use std::ops::Range;

use tc_desim::time::{ns, Time};
use tc_desim::{SleepSpec, StepGrid};
use tc_mem::{Addr, RegionKind};
use tc_pcie::spin::{loads_unchanged, spin_offsets, spin_watch_ready, Occurrences};
use tc_pcie::{spin_op, SpinOp};
use tc_trace::Counter;

use crate::counters::GpuCounters;
use crate::thread::{sectors, GpuThread};

/// One timed step of an elidable iteration: the part of an operation
/// between two timer boundaries.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// A device-memory load of `lines` L2 lines, all hits.
    DevLoad { op: usize, lines: u64 },
    /// A system-memory load's GPU-side stall before its PCIe read.
    SysStall { op: usize },
    /// A system-memory load's non-posted PCIe read.
    SysRead { op: usize },
    /// `n` dependent instructions.
    Instr { op: usize, n: u64 },
}

impl Step {
    fn op(self) -> usize {
        match self {
            Step::DevLoad { op, .. }
            | Step::SysStall { op }
            | Step::SysRead { op }
            | Step::Instr { op, .. } => op,
        }
    }
}

/// The step structure of an explicit iteration whose every operation
/// took exactly its uncontended, all-hit time.
pub struct Plan {
    steps: Vec<Step>,
    durations: Vec<Time>,
    /// Physical ranges the iteration loads.
    watch: Vec<Range<u64>>,
    /// Device-memory loads (as issued) whose lines must stay resident.
    dev: Vec<(Addr, u64)>,
}

impl Plan {
    /// The plan of an iteration of `ops` on thread `t` whose operations
    /// took `took`, or `None` if one of them missed the L2, waited for
    /// the link, took no time, or is not a plain memory load.
    pub(crate) fn of(t: &GpuThread, ops: &[SpinOp], took: &[Time]) -> Option<Plan> {
        let gpu = t.gpu();
        let cfg = gpu.config();
        let mut plan = Plan {
            steps: Vec::new(),
            durations: Vec::new(),
            watch: Vec::new(),
            dev: Vec::new(),
        };
        let mut ok = true;
        for (k, (&op, &took)) in ops.iter().zip(took).enumerate() {
            let mut push = |step: Step, dur: Time| {
                ok &= dur > 0;
                plan.steps.push(step);
                plan.durations.push(dur);
            };
            let (addr, len) = match op {
                SpinOp::Instr(0) => continue,
                SpinOp::Instr(n) => {
                    push(Step::Instr { op: k, n }, took);
                    ok &= took == cfg.instr_time(n);
                    continue;
                }
                SpinOp::Load(addr, len) => (addr, len as u64),
                SpinOp::LoadState(addr) => (addr, 8),
            };
            match gpu.bus().classify(addr) {
                RegionKind::GpuDram { node } | RegionKind::GpuBar { node }
                    if node == gpu.node() =>
                {
                    let lines = gpu.l2().lines(addr, len);
                    push(Step::DevLoad { op: k, lines }, took);
                    ok &= took == cfg.l2_hit_time() + (lines - 1) * ns(4);
                    plan.dev.push((addr, len));
                }
                RegionKind::HostDram { .. } => {
                    let read = gpu.endpoint().read_cost(len);
                    push(Step::SysStall { op: k }, cfg.sysmem_read_extra);
                    push(Step::SysRead { op: k }, read);
                    ok &= took == cfg.sysmem_read_extra + read;
                }
                _ => return None,
            }
            let phys = gpu.bus().resolve(addr);
            plan.watch.push(phys..phys + len);
        }
        (ok && !plan.steps.is_empty()).then_some(plan)
    }
}

/// Applies the side effects of a range of elided events: exactly what the
/// explicit steps would have charged.
struct Charger {
    t: GpuThread,
    grid: StepGrid,
    steps: Vec<Step>,
    ops: Vec<SpinOp>,
    misses: Option<Counter>,
}

fn op_len(op: SpinOp) -> u64 {
    op.bytes() as u64
}

fn op_addr(op: SpinOp) -> Addr {
    op.addr().expect("instructions load nothing")
}

impl Charger {
    /// Event `j` is step `j - 1`'s end (plus the iteration's exit test
    /// after the last step) and step `j`'s start.
    fn charge(&self, from: u64, to: u64) {
        let n = self.steps.len() as u64;
        let c: &GpuCounters = self.t.counters();
        let ep = self.t.gpu().endpoint();
        let started = Occurrences::new(from, to, n);
        let ended = Occurrences::ended(from, to, n);
        for (i, &step) in self.steps.iter().enumerate() {
            let i = i as u64;
            let (starts, ends) = (started.of(i), ended.of(i));
            match step {
                Step::DevLoad { op, lines } => {
                    let len = op_len(self.ops[op]);
                    c.instructions.add(starts);
                    c.mem_accesses.add(starts);
                    c.globmem64_reads.add(starts * len.div_ceil(8));
                    c.l2_read_requests.add(starts * lines);
                    c.l2_read_hits.add(starts * lines);
                }
                Step::SysStall { op } => {
                    let sectors = sectors(op_len(self.ops[op]));
                    c.instructions.add(starts);
                    c.mem_accesses.add(starts);
                    c.sysmem_reads.add(starts * sectors);
                    c.l2_read_requests.add(starts * sectors);
                    c.l2_read_misses.add(starts * sectors);
                }
                Step::SysRead { op } => {
                    let len = op_len(self.ops[op]);
                    if starts > 0 {
                        // The last event in range that started this step.
                        let r = started.last_rem(n);
                        let last = to - 1 - (r + n - i) % n;
                        ep.replay_read_issue(starts, len, self.grid.event_time(last));
                    }
                    ep.replay_read_done(ends, len);
                }
                Step::Instr { n: k, .. } => c.instructions.add(starts * k),
            }
            if i == n - 1 {
                if let Some(m) = &self.misses {
                    m.add(ends);
                }
            }
        }
    }
}

impl GpuThread {
    fn l2_key(&self) -> u64 {
        self.gpu().l2() as *const crate::l2::L2Model as usize as u64
    }

    /// The plan and sleep request for the iteration of `ops` that just
    /// failed, its operations having taken `took` and loaded `buf` — or
    /// `None` when it may not be elided: an operation missed the L2 or
    /// waited for the link, or the state it relied on (polled memory, L2
    /// residency, link occupancy) changed while it ran.
    pub(crate) fn park_spin(
        &self,
        ops: &[SpinOp],
        took: &[Time],
        buf: &[u8],
        misses: Option<&Counter>,
    ) -> Option<(Plan, SleepSpec)> {
        let plan = Plan::of(self, ops, took)?;
        let gpu = self.gpu();
        let now = gpu.sim().now();
        let grid = StepGrid::new(now, &plan.durations);
        let resident = plan
            .dev
            .iter()
            .all(|&(addr, len)| gpu.l2().all_resident(addr, len));
        let first_read = plan
            .steps
            .iter()
            .position(|s| matches!(s, Step::SysRead { .. }));
        let link = gpu.endpoint().link();
        let idle = first_read.is_none_or(|i| link.busy_until() <= grid.event_time(i as u64));
        if !resident
            || !idle
            || !spin_watch_ready(gpu.sim(), gpu.bus())
            || !loads_unchanged(gpu.bus(), ops, buf)
        {
            return None;
        }
        let mut keys = Vec::new();
        if !plan.dev.is_empty() {
            keys.push(self.l2_key());
        }
        if first_read.is_some() {
            // One sleeper per link: an elided reader assumes it is idle.
            gpu.sim().spin_touch(link.key());
            keys.push(link.key());
        }
        let charger = Charger {
            t: self.clone(),
            grid: grid.clone(),
            steps: plan.steps.clone(),
            ops: ops.to_vec(),
            misses: misses.cloned(),
        };
        let spec = SleepSpec {
            grid,
            watch: plan.watch.clone(),
            keys,
            charge: Box::new(move |from, to| charger.charge(from, to)),
            label: format!("gpu{} spin, {} steps", gpu.node(), plan.steps.len()),
        };
        Some((plan, spec))
    }

    /// Resume after a parked spin was materialized and its pending step's
    /// timer fired at event `j`: end that step exactly as the explicit
    /// operation would, then run the rest of the iteration explicitly.
    pub(crate) async fn resume_spin(&self, plan: &Plan, ops: &[SpinOp], j: u64, buf: &mut [u8]) {
        let gpu = self.gpu();
        let offs = spin_offsets(ops);
        let i = ((j - 1) % plan.steps.len() as u64) as usize;
        let step = plan.steps[i];
        let k = step.op();
        let range = offs[k]..offs[k] + ops[k].bytes();
        match step {
            Step::DevLoad { .. } => gpu.bus().read(op_addr(ops[k]), &mut buf[range]),
            Step::SysStall { .. } => gpu.endpoint().read(op_addr(ops[k]), &mut buf[range]).await,
            Step::SysRead { .. } => {
                let issued = gpu.sim().now() - plan.durations[i];
                gpu.endpoint()
                    .finish_read(op_addr(ops[k]), &mut buf[range], issued);
            }
            Step::Instr { .. } => {}
        }
        for (&op, &off) in ops.iter().zip(&offs).skip(k + 1) {
            spin_op(self, op, buf, off).await;
        }
    }
}
