//! The [`Processor`] abstraction and the host CPU cost model.
//!
//! The paper's central comparison is *the same API code path executed from
//! the CPU vs. from the GPU*. To make that literal in the reproduction, the
//! NIC APIs (`tc-extoll::api`, `tc-ib::verbs`) are written once against the
//! [`Processor`] trait; `tc-gpu`'s `GpuThread` and this module's
//! [`CpuThread`] provide the two cost engines. The *instructions executed*
//! are identical — what differs is what each instruction and memory access
//! costs, which is precisely the paper's point (§VI).

use std::rc::Rc;

use tc_desim::time::{self, Time};
use tc_desim::{Sim, SleepSpec, StepGrid};
use tc_mem::{Addr, RegionKind};
use tc_trace::Counter;

use crate::endpoint::Endpoint;
use crate::spin::{
    loads_unchanged, spin_buf, spin_offsets, spin_op, spin_watch_ready, Occurrences, SpinOp,
};

/// A processor that can execute API code against simulated memory.
///
/// Implementations charge their own timing and performance counters.
#[allow(async_fn_in_trait)]
pub trait Processor {
    /// What [`Processor::spin_park`] learned about an elidable iteration
    /// and [`Processor::spin_resume`] needs to finish it.
    type SpinPlan;

    /// The simulation handle.
    fn sim(&self) -> &Sim;
    /// Execute `n` dependent instructions.
    async fn instr(&self, n: u64);
    /// 64-bit load.
    async fn ld_u64(&self, addr: Addr) -> u64;
    /// 64-bit store.
    async fn st_u64(&self, addr: Addr, v: u64);
    /// 32-bit load.
    async fn ld_u32(&self, addr: Addr) -> u32;
    /// 32-bit store.
    async fn st_u32(&self, addr: Addr, v: u32);
    /// Bulk load.
    async fn ld_bytes(&self, addr: Addr, buf: &mut [u8]);
    /// Bulk store.
    async fn st_bytes(&self, addr: Addr, data: &[u8]);
    /// Order previous stores system-wide (sfence / `__threadfence_system`).
    async fn fence(&self);

    /// Load a cache-hot software-structure word (driver state). A CPU
    /// serves these from its L1; a GPU treats them like any global load
    /// (device-memory L2 for GPU-driven contexts). Default: plain load.
    async fn ld_state(&self, addr: Addr) -> u64 {
        self.ld_u64(addr).await
    }

    /// Store to a cache-hot software-structure word. Default: plain store.
    async fn st_state(&self, addr: Addr, v: u64) {
        self.st_u64(addr, v).await;
    }

    /// The elision hook of [`Processor::spin_until`]: the iteration of
    /// `ops` just failed, its operations took `took` and it loaded `buf`.
    /// Returns the plan and the sleep request to park on, or `None` when
    /// the iteration is not provably constant and the next one must run
    /// explicitly. Called only while [`Sim::elision_enabled`] holds.
    fn spin_park(
        &self,
        ops: &[SpinOp],
        took: &[Time],
        buf: &[u8],
        misses: Option<&Counter>,
    ) -> Option<(Self::SpinPlan, SleepSpec)>;

    /// Resume after a parked spin was materialized and its pending step's
    /// timer fired at grid event `j`: end that step exactly as the
    /// explicit operation would (storing what it loads into `buf`), then
    /// run the rest of the iteration explicitly.
    async fn spin_resume(&self, plan: &Self::SpinPlan, ops: &[SpinOp], j: u64, buf: &mut [u8]);

    /// The one polling primitive: repeat the iteration `ops` (run in
    /// program order) until `done` accepts the bytes it loaded (see
    /// [`spin_buf`]), bumping `misses` once per rejected iteration.
    /// Returns the loaded bytes of the accepting iteration.
    ///
    /// Every completion wait in the API layers goes through here. It runs
    /// iterations explicitly until one fails that
    /// [`Processor::spin_park`] can prove constant, then parks until a
    /// collision wakes it (see [`crate::spin`]). Simulated time, counters
    /// and memory come out exactly as explicit stepping would leave them.
    async fn spin_until(
        &self,
        ops: &[SpinOp],
        misses: Option<&Counter>,
        mut done: impl FnMut(&[u8]) -> bool,
    ) -> Vec<u8> {
        let sim = self.sim();
        let mut buf = spin_buf(ops);
        let mut took = vec![0; ops.len()];
        loop {
            let mut off = 0;
            for (k, &op) in ops.iter().enumerate() {
                let t = sim.now();
                spin_op(self, op, &mut buf, off).await;
                took[k] = sim.now() - t;
                off += op.bytes();
            }
            if done(&buf) {
                return buf;
            }
            if let Some(c) = misses {
                c.inc();
            }
            let Some((plan, spec)) = sim
                .elision_enabled()
                .then(|| self.spin_park(ops, &took, &buf, misses))
                .flatten()
            else {
                continue;
            };
            let j = sim.sleep_on_grid(spec).await;
            self.spin_resume(&plan, ops, j, &mut buf).await;
            if done(&buf) {
                return buf;
            }
            if let Some(c) = misses {
                c.inc();
            }
        }
    }
}

/// Host CPU timing parameters.
#[derive(Debug, Clone)]
pub struct CpuConfig {
    /// Cost of one dependent instruction (ps). A ~3 GHz Xeon retires
    /// dependent scalar ops every cycle or two.
    pub instr: Time,
    /// DRAM access latency from the CPU (ps). Cached accesses are cheaper,
    /// but API hot paths touch freshly DMA-written lines.
    pub dram: Time,
    /// Cached access latency (ps) — queue state the CPU itself maintains.
    pub cached: Time,
    /// Issue cost of an MMIO posted write (write-combining drain), ps.
    pub mmio_store_issue: Time,
    /// Cost of a store fence, ps.
    pub fence: Time,
}

impl Default for CpuConfig {
    fn default() -> Self {
        CpuConfig {
            instr: time::ps(400),
            dram: time::ns(75),
            cached: time::ns(4),
            mmio_store_issue: time::ns(90),
            fence: time::ns(25),
        }
    }
}

/// A host CPU hardware thread.
///
/// Loads/stores to host DRAM cost DRAM/cache latency; accesses that cross
/// PCIe (NIC BARs, GPU BAR apertures) go through the CPU's root-port
/// [`Endpoint`].
#[derive(Clone)]
pub struct CpuThread {
    sim: Sim,
    cfg: Rc<CpuConfig>,
    endpoint: Endpoint,
    node: usize,
    /// Registry counters under `cpu{node}` — the CPU-side mirror of the
    /// GPU's load/store accounting, so Table I/II-style comparisons can
    /// read both processors from one snapshot. Name-interning makes every
    /// `CpuThread` of a node share the same cells.
    loads: Counter,
    load_bytes: Counter,
    stores: Counter,
    store_bytes: Counter,
}

impl CpuThread {
    /// A CPU thread on `node` attached through `endpoint` (the root port).
    pub fn new(sim: Sim, node: usize, cfg: CpuConfig, endpoint: Endpoint) -> Self {
        let scope = sim.registry().scope_named(&format!("cpu{node}"));
        CpuThread {
            cfg: Rc::new(cfg),
            endpoint,
            node,
            loads: scope.counter("loads"),
            load_bytes: scope.counter("load_bytes"),
            stores: scope.counter("stores"),
            store_bytes: scope.counter("store_bytes"),
            sim,
        }
    }

    /// The node this CPU belongs to.
    pub fn node(&self) -> usize {
        self.node
    }

    /// The CPU's root-port endpoint.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    fn is_local_dram(&self, addr: Addr) -> bool {
        matches!(
            self.endpoint.bus().classify(addr),
            RegionKind::HostDram { node } if node == self.node
        )
    }

    /// The fixed cost of `op` in an elidable spin iteration, or `None` for
    /// a load that crosses PCIe (MMIO, the GPU BAR), whose cost depends on
    /// the link, and for a state load of a device register, which can
    /// change without a bus store.
    fn elidable_cost(&self, op: SpinOp) -> Option<Time> {
        match op {
            SpinOp::Load(addr, _) => self.is_local_dram(addr).then_some(self.cfg.dram),
            SpinOp::LoadState(addr) => {
                let mmio = matches!(self.endpoint.bus().classify(addr), RegionKind::Mmio { .. });
                (!mmio).then_some(self.cfg.cached)
            }
            SpinOp::Instr(n) => Some(n * self.cfg.instr),
        }
    }

    async fn load(&self, addr: Addr, buf: &mut [u8]) {
        self.loads.inc();
        self.load_bytes.add(buf.len() as u64);
        if self.is_local_dram(addr) {
            self.sim.delay(self.cfg.dram).await;
            self.endpoint.bus().read(addr, buf);
        } else {
            // MMIO / peer read: full PCIe round trip.
            self.endpoint.read(addr, buf).await;
        }
    }

    async fn store(&self, addr: Addr, data: &[u8]) {
        self.stores.inc();
        self.store_bytes.add(data.len() as u64);
        if self.is_local_dram(addr) {
            self.sim.delay(self.cfg.cached).await;
            self.endpoint.bus().write(addr, data);
        } else {
            self.sim.delay(self.cfg.mmio_store_issue).await;
            self.endpoint.posted_write(addr, data.to_vec()).await;
        }
    }
}

/// The step structure of an elidable CPU spin iteration: every operation
/// that takes time is one step.
pub struct CpuSpinPlan {
    /// The operation behind every step.
    steps: Vec<usize>,
}

impl Processor for CpuThread {
    type SpinPlan = CpuSpinPlan;

    fn sim(&self) -> &Sim {
        &self.sim
    }

    /// A CPU iteration may be elided when every load hits local host DRAM
    /// (or the L1, for software state), every operation took exactly its
    /// fixed cost, and the polled bytes still hold what it loaded: then
    /// only a store to them can change what the next iteration sees.
    fn spin_park(
        &self,
        ops: &[SpinOp],
        took: &[Time],
        buf: &[u8],
        misses: Option<&Counter>,
    ) -> Option<(CpuSpinPlan, SleepSpec)> {
        let bus = self.endpoint.bus();
        let (mut steps, mut durations, mut watch) = (Vec::new(), Vec::new(), Vec::new());
        for (k, (&op, &took)) in ops.iter().zip(took).enumerate() {
            let cost = self.elidable_cost(op)?;
            if took != cost {
                return None;
            }
            if cost == 0 {
                continue;
            }
            steps.push(k);
            durations.push(cost);
            if let Some(addr) = op.addr() {
                let phys = bus.resolve(addr);
                watch.push(phys..phys + op.bytes() as u64);
            }
        }
        if steps.is_empty() || !spin_watch_ready(&self.sim, bus) || !loads_unchanged(bus, ops, buf)
        {
            return None;
        }
        // The explicit load counts when it starts; the exit test follows
        // the last step's end.
        let n = steps.len() as u64;
        let loaded: Vec<(u64, u64)> = steps
            .iter()
            .enumerate()
            .map(|(i, &k)| (i as u64, ops[k].bytes() as u64))
            .filter(|&(_, len)| len > 0)
            .collect();
        let (loads, load_bytes) = (self.loads.clone(), self.load_bytes.clone());
        let misses = misses.cloned();
        let charge = move |from, to| {
            let started = Occurrences::new(from, to, n);
            for &(i, len) in &loaded {
                loads.add(started.of(i));
                load_bytes.add(started.of(i) * len);
            }
            if let Some(m) = &misses {
                m.add(Occurrences::ended(from, to, n).of(n - 1));
            }
        };
        let spec = SleepSpec {
            grid: StepGrid::new(self.sim.now(), &durations),
            watch,
            keys: Vec::new(),
            charge: Box::new(charge),
            label: format!("cpu{} spin, {n} steps", self.node),
        };
        Some((CpuSpinPlan { steps }, spec))
    }

    async fn spin_resume(&self, plan: &CpuSpinPlan, ops: &[SpinOp], j: u64, buf: &mut [u8]) {
        let offs = spin_offsets(ops);
        let k = plan.steps[((j - 1) % plan.steps.len() as u64) as usize];
        if let Some(addr) = ops[k].addr() {
            let range = offs[k]..offs[k] + ops[k].bytes();
            self.endpoint.bus().read(addr, &mut buf[range]);
        }
        for (&op, &off) in ops.iter().zip(&offs).skip(k + 1) {
            spin_op(self, op, buf, off).await;
        }
    }

    async fn instr(&self, n: u64) {
        self.sim.delay(n * self.cfg.instr).await;
    }

    async fn ld_u64(&self, addr: Addr) -> u64 {
        let mut b = [0u8; 8];
        self.load(addr, &mut b).await;
        u64::from_le_bytes(b)
    }

    async fn st_u64(&self, addr: Addr, v: u64) {
        self.store(addr, &v.to_le_bytes()).await;
    }

    async fn ld_u32(&self, addr: Addr) -> u32 {
        let mut b = [0u8; 4];
        self.load(addr, &mut b).await;
        u32::from_le_bytes(b)
    }

    async fn st_u32(&self, addr: Addr, v: u32) {
        self.store(addr, &v.to_le_bytes()).await;
    }

    async fn ld_bytes(&self, addr: Addr, buf: &mut [u8]) {
        self.load(addr, buf).await;
    }

    async fn st_bytes(&self, addr: Addr, data: &[u8]) {
        self.store(addr, data).await;
    }

    async fn fence(&self) {
        self.sim.delay(self.cfg.fence).await;
    }

    async fn ld_state(&self, addr: Addr) -> u64 {
        // Hot driver state lives in the L1.
        self.loads.inc();
        self.load_bytes.add(8);
        self.sim.delay(self.cfg.cached).await;
        let mut b = [0u8; 8];
        self.endpoint.bus().read(addr, &mut b);
        u64::from_le_bytes(b)
    }

    async fn st_state(&self, addr: Addr, v: u64) {
        self.stores.inc();
        self.store_bytes.add(8);
        self.sim.delay(self.cfg.cached).await;
        self.endpoint.bus().write(addr, &v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Pcie, PcieConfig};
    use std::cell::Cell;
    use tc_mem::{layout, Bus, RegionKind, SparseMem};

    fn setup() -> (Sim, Bus, CpuThread) {
        let sim = Sim::new();
        let bus = Bus::new();
        bus.add_ram(
            Rc::new(SparseMem::new(layout::host_dram(0), 1 << 24)),
            RegionKind::HostDram { node: 0 },
        );
        bus.add_ram(
            Rc::new(SparseMem::new(layout::gpu_dram(0), 1 << 24)),
            RegionKind::GpuDram { node: 0 },
        );
        bus.add_alias(
            layout::gpu_bar(0),
            1 << 24,
            layout::gpu_dram(0),
            RegionKind::GpuBar { node: 0 },
        );
        let pcie = Pcie::new(sim.clone(), bus.clone(), PcieConfig::gen3_x8());
        let cpu = CpuThread::new(sim.clone(), 0, CpuConfig::default(), pcie.endpoint("cpu0"));
        (sim, bus, cpu)
    }

    #[test]
    fn local_dram_access_is_fast() {
        let (sim, _bus, cpu) = setup();
        let t = Rc::new(Cell::new(0u64));
        let t2 = t.clone();
        let h = sim.clone();
        sim.spawn("cpu", async move {
            cpu.st_u64(layout::host_dram(0), 9).await;
            assert_eq!(cpu.ld_u64(layout::host_dram(0)).await, 9);
            t2.set(h.now());
        });
        sim.run();
        // Store (cached) + load (DRAM) well under a PCIe round trip.
        assert!(t.get() < time::ns(200), "took {}", t.get());
    }

    #[test]
    fn peer_access_crosses_pcie() {
        let (sim, bus, cpu) = setup();
        bus.write_u64(layout::gpu_dram(0) + 8, 5);
        let h = sim.clone();
        sim.spawn("cpu", async move {
            let t0 = h.now();
            let v = cpu.ld_u64(layout::gpu_bar(0) + 8).await;
            assert_eq!(v, 5);
            assert!(h.now() - t0 >= time::ns(600));
        });
        sim.run();
    }

    #[test]
    fn cpu_loads_and_stores_are_counted_in_the_registry() {
        let (sim, _bus, cpu) = setup();
        sim.spawn("cpu", async move {
            cpu.st_u64(layout::host_dram(0), 1).await;
            let _ = cpu.ld_u64(layout::host_dram(0)).await;
            let _ = cpu.ld_u32(layout::host_dram(0) + 8).await;
            cpu.st_state(layout::host_dram(0) + 16, 2).await;
        });
        sim.run();
        let s = sim.registry().snapshot();
        assert_eq!(s.get("cpu0.loads"), 2);
        assert_eq!(s.get("cpu0.load_bytes"), 12);
        assert_eq!(s.get("cpu0.stores"), 2);
        assert_eq!(s.get("cpu0.store_bytes"), 16);
    }

    #[test]
    fn instr_time_is_sub_ns_per_instr() {
        let (sim, _bus, cpu) = setup();
        let h = sim.clone();
        sim.spawn("cpu", async move {
            cpu.instr(1000).await;
            assert_eq!(h.now(), 1000 * CpuConfig::default().instr);
        });
        sim.run();
    }
}
