//! The fabric bus: routes reads/writes by address to RAM windows, MMIO
//! devices, or alias windows (e.g. the GPUDirect BAR aperture).

use std::cell::RefCell;
use std::rc::Rc;

use crate::sparse::SparseMem;
use crate::{layout, Addr};

/// What kind of resource an address resolves to. Timing models use this to
/// decide which cost to charge for an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionKind {
    /// Host (CPU) DRAM of `node`.
    HostDram {
        /// Owning node.
        node: usize,
    },
    /// GPU device memory of `node`.
    GpuDram {
        /// Owning node.
        node: usize,
    },
    /// GPUDirect BAR aperture of `node` (aliases that node's GPU DRAM).
    GpuBar {
        /// Owning node.
        node: usize,
    },
    /// Memory-mapped device registers of `node` (NIC BARs, doorbells).
    Mmio {
        /// Owning node.
        node: usize,
    },
}

impl RegionKind {
    /// The node that owns the resource.
    pub fn node(self) -> usize {
        match self {
            RegionKind::HostDram { node }
            | RegionKind::GpuDram { node }
            | RegionKind::GpuBar { node }
            | RegionKind::Mmio { node } => node,
        }
    }
}

/// A device with memory-mapped registers. `offset` is relative to the
/// region base the device was registered at.
///
/// MMIO writes are *posted*: side effects are applied immediately on the
/// data plane, and the device model is expected to hand actual work to a
/// simulation process through a channel.
pub trait MmioDevice {
    /// Handle a write of `data` at `offset`.
    fn mmio_write(&self, offset: u64, data: &[u8]);
    /// Handle a read of `buf.len()` bytes at `offset`.
    fn mmio_read(&self, offset: u64, buf: &mut [u8]);
}

/// One mapped window. Every region lies inside a single
/// [`layout::node_of`] window, which is how the bus decodes addresses.
struct Region {
    base: Addr,
    len: u64,
    kind: RegionKind,
    map: Map,
}

enum Map {
    Ram(Rc<SparseMem>),
    Mmio(Rc<dyn MmioDevice>),
    /// Redirects `base..base+len` to `target..target+len`.
    Alias(Addr),
}

impl Region {
    fn contains(&self, addr: Addr) -> bool {
        addr.wrapping_sub(self.base) < self.len
    }
}

/// Decode: index the node window of `addr`, then scan its few regions.
fn lookup(nodes: &[Vec<Region>], addr: Addr) -> Option<&Region> {
    nodes
        .get(layout::node_of(addr))?
        .iter()
        .find(|r| r.contains(addr))
}

/// Observer of data-plane RAM traffic: the causal profiler's
/// observed-write edges and the wake-up of elided GPU spin-waits both sit
/// behind this one seam. Callbacks fire *after* alias resolution, so a
/// store through a BAR window and a poll of the aliased DRAM meet at the
/// same physical address. Watches must not access the bus.
pub trait BusWatch {
    /// The `len` bytes at `addr..addr + len` (`len > 0`) were written.
    fn store(&self, addr: Addr, len: u64);
    /// A small (≤ 8 byte) read touched the 8-byte-aligned word at `addr`.
    fn load(&self, addr: Addr);
    /// Whether this watch wakes sleeping spin-waits on stores. A spinner
    /// only sleeps on a bus whose watch does (see [`Bus::watch`]).
    fn wakes_spinners(&self) -> bool {
        false
    }
}

/// The fabric bus. Cheap to clone (shared).
///
/// Every mapped region must lie inside one [`layout::node_of`] window;
/// mapping one that straddles two windows, or overlaps another, panics.
#[derive(Clone, Default)]
pub struct Bus {
    /// Slot `n` holds the regions inside node `n`'s window, sorted by base.
    nodes: Rc<RefCell<Vec<Vec<Region>>>>,
    /// Shared across clones so a watch installed after wiring is seen by
    /// every holder of the bus. `None` (the default) costs one borrow and
    /// branch per RAM access.
    watch: Rc<RefCell<Option<Rc<dyn BusWatch>>>>,
}

impl Bus {
    /// An empty bus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install (or clear) the data-plane watch.
    pub fn set_watch(&self, watch: Option<Rc<dyn BusWatch>>) {
        *self.watch.borrow_mut() = watch;
    }

    /// The installed data-plane watch, if any.
    pub fn watch(&self) -> Option<Rc<dyn BusWatch>> {
        self.watch.borrow().clone()
    }

    /// The physical address behind `addr`: alias windows (the GPUDirect
    /// BAR aperture) resolve to their target, everything else is itself.
    /// This is the address a [`BusWatch`] sees for accesses to `addr`.
    pub fn resolve(&self, addr: Addr) -> Addr {
        match self.with_region(addr, |r| match r.map {
            Map::Alias(target) => Some(target + (addr - r.base)),
            _ => None,
        }) {
            Some(t) => self.resolve(t),
            None => addr,
        }
    }

    fn insert(&self, r: Region) {
        let (b, l) = (r.base, r.len);
        let n = layout::node_of(b);
        assert!(
            l == 0 || layout::node_of(b + (l - 1)) == n,
            "region [{b:#x};{l:#x}) straddles node windows"
        );
        let mut nodes = self.nodes.borrow_mut();
        if nodes.len() <= n {
            nodes.resize_with(n + 1, Vec::new);
        }
        let slot = &mut nodes[n];
        for o in slot.iter() {
            assert!(
                b + l <= o.base || o.base + o.len <= b,
                "region [{b:#x};{l:#x}) overlaps existing [{:#x};{:#x})",
                o.base,
                o.len
            );
        }
        let at = slot.partition_point(|o| o.base < b);
        slot.insert(at, r);
    }

    /// Map a RAM window.
    pub fn add_ram(&self, mem: Rc<SparseMem>, kind: RegionKind) {
        self.insert(Region {
            base: mem.base(),
            len: mem.len(),
            kind,
            map: Map::Ram(mem),
        });
    }

    /// Map an MMIO device at `base..base+len`.
    pub fn add_mmio(&self, base: Addr, len: u64, dev: Rc<dyn MmioDevice>, kind: RegionKind) {
        self.insert(Region {
            base,
            len,
            kind,
            map: Map::Mmio(dev),
        });
    }

    /// Map an alias window redirecting to `target`.
    pub fn add_alias(&self, base: Addr, len: u64, target: Addr, kind: RegionKind) {
        self.insert(Region {
            base,
            len,
            kind,
            map: Map::Alias(target),
        });
    }

    fn with_region<R>(&self, addr: Addr, f: impl FnOnce(&Region) -> R) -> R {
        match lookup(&self.nodes.borrow(), addr) {
            Some(r) => f(r),
            None => panic!("bus access to unmapped address {addr:#x}"),
        }
    }

    /// Classify an address. Alias windows report their own kind (e.g.
    /// `GpuBar`), not the target's.
    pub fn classify(&self, addr: Addr) -> RegionKind {
        self.with_region(addr, |r| r.kind)
    }

    /// True if the address is mapped.
    pub fn is_mapped(&self, addr: Addr) -> bool {
        lookup(&self.nodes.borrow(), addr).is_some()
    }

    /// Data-plane read. Instantaneous; timing is charged by the caller.
    pub fn read(&self, addr: Addr, buf: &mut [u8]) {
        let redirect = self.with_region(addr, |r| match &r.map {
            Map::Ram(mem) => {
                mem.read(addr, buf);
                // Only word-sized reads are dependency-relevant (poll
                // loops); bulk DMA reads must not consume pending stores.
                if buf.len() <= 8 {
                    if let Some(w) = &*self.watch.borrow() {
                        w.load(addr & !7);
                    }
                }
                None
            }
            Map::Mmio(dev) => {
                dev.mmio_read(addr - r.base, buf);
                None
            }
            Map::Alias(target) => Some(target + (addr - r.base)),
        });
        if let Some(t) = redirect {
            self.read(t, buf);
        }
    }

    /// Data-plane write. Instantaneous; timing is charged by the caller.
    pub fn write(&self, addr: Addr, data: &[u8]) {
        let redirect = self.with_region(addr, |r| match &r.map {
            Map::Ram(mem) => {
                mem.write(addr, data);
                if !data.is_empty() {
                    if let Some(w) = &*self.watch.borrow() {
                        w.store(addr, data.len() as u64);
                    }
                }
                None
            }
            Map::Mmio(dev) => {
                dev.mmio_write(addr - r.base, data);
                None
            }
            Map::Alias(target) => Some(target + (addr - r.base)),
        });
        if let Some(t) = redirect {
            self.write(t, data);
        }
    }

    /// Read a little-endian `u64`.
    pub fn read_u64(&self, addr: Addr) -> u64 {
        let mut b = [0u8; 8];
        self.read(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Write a little-endian `u64`.
    pub fn write_u64(&self, addr: Addr, v: u64) {
        self.write(addr, &v.to_le_bytes());
    }

    /// Read a little-endian `u32`.
    pub fn read_u32(&self, addr: Addr) -> u32 {
        let mut b = [0u8; 4];
        self.read(addr, &mut b);
        u32::from_le_bytes(b)
    }

    /// Write a little-endian `u32`.
    pub fn write_u32(&self, addr: Addr, v: u32) {
        self.write(addr, &v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout;
    use std::cell::Cell;

    fn bus_with_ram() -> Bus {
        let bus = Bus::new();
        bus.add_ram(
            Rc::new(SparseMem::new(layout::host_dram(0), 1 << 20)),
            RegionKind::HostDram { node: 0 },
        );
        bus.add_ram(
            Rc::new(SparseMem::new(layout::gpu_dram(0), 1 << 20)),
            RegionKind::GpuDram { node: 0 },
        );
        bus
    }

    #[test]
    fn routes_by_address() {
        let bus = bus_with_ram();
        bus.write_u64(layout::host_dram(0) + 8, 1);
        bus.write_u64(layout::gpu_dram(0) + 8, 2);
        assert_eq!(bus.read_u64(layout::host_dram(0) + 8), 1);
        assert_eq!(bus.read_u64(layout::gpu_dram(0) + 8), 2);
        assert_eq!(
            bus.classify(layout::host_dram(0) + 8),
            RegionKind::HostDram { node: 0 }
        );
        assert_eq!(
            bus.classify(layout::gpu_dram(0) + 8),
            RegionKind::GpuDram { node: 0 }
        );
    }

    #[test]
    fn alias_window_redirects_and_classifies_as_itself() {
        let bus = bus_with_ram();
        bus.add_alias(
            layout::gpu_bar(0),
            1 << 20,
            layout::gpu_dram(0),
            RegionKind::GpuBar { node: 0 },
        );
        // Write via BAR, read via DRAM (and vice versa).
        bus.write_u64(layout::gpu_bar(0) + 0x40, 0xABCD);
        assert_eq!(bus.read_u64(layout::gpu_dram(0) + 0x40), 0xABCD);
        bus.write_u64(layout::gpu_dram(0) + 0x80, 77);
        assert_eq!(bus.read_u64(layout::gpu_bar(0) + 0x80), 77);
        assert_eq!(
            bus.classify(layout::gpu_bar(0) + 0x40),
            RegionKind::GpuBar { node: 0 }
        );
    }

    struct Doorbell {
        hits: Cell<u32>,
        last: Cell<u64>,
    }
    impl MmioDevice for Doorbell {
        fn mmio_write(&self, offset: u64, data: &[u8]) {
            self.hits.set(self.hits.get() + 1);
            let mut b = [0u8; 8];
            b[..data.len().min(8)].copy_from_slice(&data[..data.len().min(8)]);
            self.last.set(u64::from_le_bytes(b) + offset);
        }
        fn mmio_read(&self, _offset: u64, buf: &mut [u8]) {
            buf.fill(0xFF);
        }
    }

    #[test]
    fn mmio_write_reaches_device_with_offset() {
        let bus = bus_with_ram();
        let db = Rc::new(Doorbell {
            hits: Cell::new(0),
            last: Cell::new(0),
        });
        bus.add_mmio(
            layout::ib_uar(0),
            4096,
            db.clone(),
            RegionKind::Mmio { node: 0 },
        );
        bus.write_u64(layout::ib_uar(0) + 0x18, 100);
        assert_eq!(db.hits.get(), 1);
        assert_eq!(db.last.get(), 100 + 0x18);
        let mut b = [0u8; 4];
        bus.read(layout::ib_uar(0), &mut b);
        assert_eq!(b, [0xFF; 4]);
    }

    #[derive(Default)]
    struct RecWatch {
        ops: RefCell<Vec<(char, Addr)>>,
    }
    impl BusWatch for RecWatch {
        fn store(&self, addr: Addr, len: u64) {
            self.ops.borrow_mut().push(('s', addr));
            self.ops.borrow_mut().push(('n', len));
        }
        fn load(&self, addr: Addr) {
            self.ops.borrow_mut().push(('l', addr));
        }
    }

    #[test]
    fn watch_sees_store_ranges_and_word_loads_after_aliasing() {
        let bus = bus_with_ram();
        bus.add_alias(
            layout::gpu_bar(0),
            1 << 20,
            layout::gpu_dram(0),
            RegionKind::GpuBar { node: 0 },
        );
        let w = Rc::new(RecWatch::default());
        bus.set_watch(Some(w.clone()));

        let base = layout::host_dram(0);
        // A word write notes its range, a word read its aligned word.
        bus.write_u64(base + 0x10, 1);
        assert_eq!(bus.read_u64(base + 0x10), 1);
        // A bulk write notes its whole (unaligned) range.
        bus.write(base + 0x104, &[0u8; 60]);
        // Bulk read is not dependency-relevant.
        let mut big = [0u8; 64];
        bus.read(base + 0x100, &mut big);
        // A store through the BAR alias lands on the aliased DRAM word,
        // where a direct poll of the DRAM address observes it.
        bus.write_u64(layout::gpu_bar(0) + 0x40, 2);
        assert_eq!(bus.read_u64(layout::gpu_dram(0) + 0x40), 2);

        assert_eq!(
            *w.ops.borrow(),
            vec![
                ('s', base + 0x10),
                ('n', 8),
                ('l', base + 0x10),
                ('s', base + 0x104),
                ('n', 60),
                ('s', layout::gpu_dram(0) + 0x40),
                ('n', 8),
                ('l', layout::gpu_dram(0) + 0x40),
            ]
        );
        assert!(!w.wakes_spinners());
        assert!(bus.watch().is_some());

        // Clearing the watch stops observation.
        bus.set_watch(None);
        bus.write_u64(base + 0x10, 3);
        assert_eq!(w.ops.borrow().len(), 8);
        assert!(bus.watch().is_none());
    }

    #[test]
    fn resolve_follows_alias_windows() {
        let bus = bus_with_ram();
        bus.add_alias(
            layout::gpu_bar(0),
            1 << 20,
            layout::gpu_dram(0),
            RegionKind::GpuBar { node: 0 },
        );
        assert_eq!(
            bus.resolve(layout::gpu_bar(0) + 0x48),
            layout::gpu_dram(0) + 0x48
        );
        assert_eq!(
            bus.resolve(layout::host_dram(0) + 8),
            layout::host_dram(0) + 8
        );
    }

    #[test]
    #[should_panic(expected = "unmapped address")]
    fn unmapped_access_panics() {
        let bus = bus_with_ram();
        bus.read_u64(layout::host_dram(3));
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlapping_regions_rejected() {
        let bus = bus_with_ram();
        bus.add_ram(
            Rc::new(SparseMem::new(layout::host_dram(0) + 0x100, 0x100)),
            RegionKind::HostDram { node: 0 },
        );
    }
}
