//! Differential test of the bus's address decode. Random maps of layout
//! windows on sparse node sets (some starting at node 128, as a shard's
//! node subset does) are mapped on a [`Bus`] and described to a reference
//! model that decodes by a linear scan over every region. Probes at region
//! bases, last bytes, ends, gaps and past the last node must classify,
//! resolve and move data identically. Generated with the in-tree
//! [`XorShift64`]; failure messages include the case seed.

use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

use tc_mem::{layout, Addr, Bus, MmioDevice, RegionKind, SparseMem};
use tc_trace::rng::XorShift64;

const CASES: u64 = 200;

/// Reads return a pattern of (device id, offset); writes are logged.
struct Device {
    id: u8,
    writes: RefCell<Vec<(u64, Vec<u8>)>>,
}

impl Device {
    fn pattern(&self, offset: u64, len: usize) -> Vec<u8> {
        (0..len as u64)
            .map(|i| self.id ^ (offset + i) as u8)
            .collect()
    }
}

impl MmioDevice for Device {
    fn mmio_write(&self, offset: u64, data: &[u8]) {
        self.writes.borrow_mut().push((offset, data.to_vec()));
    }
    fn mmio_read(&self, offset: u64, buf: &mut [u8]) {
        buf.copy_from_slice(&self.pattern(offset, buf.len()));
    }
}

enum Target {
    Ram,
    Mmio(Rc<Device>),
    Alias(Addr),
}

/// The reference model of one mapped region.
struct Mapped {
    base: Addr,
    len: u64,
    kind: RegionKind,
    target: Target,
}

/// Reference decode: a linear scan over every region.
fn find(map: &[Mapped], addr: Addr) -> Option<&Mapped> {
    map.iter().find(|r| addr >= r.base && addr - r.base < r.len)
}

fn resolve(map: &[Mapped], addr: Addr) -> Addr {
    match find(map, addr) {
        Some(Mapped {
            base,
            target: Target::Alias(t),
            ..
        }) => resolve(map, t + (addr - base)),
        _ => addr,
    }
}

/// A window length: tiny, page-ish, or the whole layout window.
fn window_len(rng: &mut XorShift64, max: u64) -> u64 {
    match rng.below(3) {
        0 => rng.range(1, 64),
        1 => rng.range(1, 1 << 20),
        _ => max,
    }
}

/// A random map on a sparse node set. Every third case uses only nodes
/// 128 and up, so the index has empty slots below.
fn random_map(seed: u64, rng: &mut XorShift64) -> Vec<Mapped> {
    let lo = if seed.is_multiple_of(3) { 128 } else { 0 };
    let mut nodes: Vec<usize> = (0..rng.range(1, 6))
        .map(|_| rng.range(lo, 300) as usize)
        .collect();
    nodes.sort_unstable();
    nodes.dedup();
    let mut map = Vec::new();
    let mut next_id = 0u8;
    let mut device = |map: &mut Vec<Mapped>, base: Addr, len: u64, node: usize| {
        next_id = next_id.wrapping_add(0x35);
        map.push(Mapped {
            base,
            len,
            kind: RegionKind::Mmio { node },
            target: Target::Mmio(Rc::new(Device {
                id: next_id,
                writes: RefCell::new(Vec::new()),
            })),
        });
    };
    for &n in &nodes {
        if rng.chance(3, 4) || map.is_empty() {
            map.push(Mapped {
                base: layout::host_dram(n),
                len: window_len(rng, layout::HOST_DRAM_LEN),
                kind: RegionKind::HostDram { node: n },
                target: Target::Ram,
            });
        }
        if rng.chance(3, 4) {
            let len = window_len(rng, layout::GPU_DRAM_LEN);
            map.push(Mapped {
                base: layout::gpu_dram(n),
                len,
                kind: RegionKind::GpuDram { node: n },
                target: Target::Ram,
            });
            if rng.chance(2, 3) {
                map.push(Mapped {
                    base: layout::gpu_bar(n),
                    len: rng.range(1, len + 1),
                    kind: RegionKind::GpuBar { node: n },
                    target: Target::Alias(layout::gpu_dram(n)),
                });
            }
        }
        if rng.chance(1, 2) {
            // EXTOLL requester pages and the VELO pages above them.
            let len = rng.range(1, 8) << 12;
            device(&mut map, layout::extoll_bar(n), len, n);
            device(&mut map, layout::extoll_bar(n) + (8 << 20), len, n);
        } else if rng.chance(1, 2) {
            device(&mut map, layout::ib_uar(n), 4096, n);
        }
    }
    // The bus must not depend on insertion order.
    for i in (1..map.len()).rev() {
        map.swap(i, rng.below(i as u64 + 1) as usize);
    }
    map
}

fn install(bus: &Bus, r: &Mapped) {
    match &r.target {
        Target::Ram => bus.add_ram(Rc::new(SparseMem::new(r.base, r.len)), r.kind),
        Target::Mmio(dev) => bus.add_mmio(r.base, r.len, dev.clone(), r.kind),
        Target::Alias(t) => bus.add_alias(r.base, r.len, *t, r.kind),
    }
}

/// Base, last byte, end, the byte below, and one inside of every region;
/// random offsets in every window of each mapped node and its neighbours;
/// addresses past the last node. The map must not be empty.
fn probes(map: &[Mapped], rng: &mut XorShift64) -> Vec<Addr> {
    let mut out = Vec::new();
    for r in map {
        out.extend([
            r.base,
            r.base + r.len - 1,
            r.base + r.len,
            r.base.wrapping_sub(1),
        ]);
        out.push(r.base + rng.below(r.len));
    }
    let mut nodes: Vec<usize> = map.iter().map(|r| layout::node_of(r.base)).collect();
    nodes.sort_unstable();
    nodes.dedup();
    let last = nodes[nodes.len() - 1];
    for n in nodes {
        for m in [n.saturating_sub(1), n, n + 1] {
            for off in [
                layout::HOST_DRAM_OFF,
                layout::GPU_DRAM_OFF,
                layout::GPU_BAR_OFF,
                layout::EXTOLL_BAR_OFF,
                layout::IB_UAR_OFF,
            ] {
                out.push(layout::node_base(m) + off + rng.below(1 << 21));
            }
            out.push(layout::node_base(m) + rng.below(1 << layout::NODE_SHIFT));
        }
    }
    out.push(layout::node_base(last + 1));
    out.push(layout::node_base(last + 1 + rng.below(1 << 10) as usize) + rng.below(1 << 40));
    out.push(u64::MAX);
    out
}

fn panic_message(f: impl FnOnce()) -> String {
    let err = catch_unwind(AssertUnwindSafe(f)).expect_err("expected a panic");
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

#[test]
fn decode_matches_linear_scan_reference() {
    for seed in 1..=CASES {
        let mut rng = XorShift64::new(seed);
        let map = random_map(seed, &mut rng);
        let bus = Bus::new();
        for r in &map {
            install(&bus, r);
        }
        // Physical bytes written so far, for the final read-back.
        let mut ram: HashMap<Addr, u8> = HashMap::new();
        for (i, addr) in probes(&map, &mut rng).into_iter().enumerate() {
            let ctx = format!("seed {seed}, addr {addr:#x}");
            let Some(r) = find(&map, addr) else {
                assert!(!bus.is_mapped(addr), "{ctx}: mapped on the bus");
                // Each unmapped probe tries one accessor, in turn.
                let msg = panic_message(|| match i % 4 {
                    0 => {
                        bus.classify(addr);
                    }
                    1 => {
                        bus.resolve(addr);
                    }
                    2 => {
                        bus.read_u32(addr);
                    }
                    _ => bus.write(addr, &[1]),
                });
                assert!(
                    msg.contains("bus access to unmapped address"),
                    "{ctx}: {msg}"
                );
                continue;
            };
            assert!(bus.is_mapped(addr), "{ctx}: unmapped on the bus");
            assert_eq!(bus.classify(addr), r.kind, "{ctx}");
            let phys = resolve(&map, addr);
            assert_eq!(bus.resolve(addr), phys, "{ctx}");
            // Stay inside the region for multi-byte accesses.
            let n = (r.base + r.len - addr).min(8) as usize;
            let mut data = vec![0u8; n];
            rng.fill_bytes(&mut data);
            match &r.target {
                Target::Mmio(dev) => {
                    let mut buf = vec![0u8; n];
                    bus.read(addr, &mut buf);
                    assert_eq!(buf, dev.pattern(addr - r.base, n), "{ctx}");
                    bus.write(addr, &data);
                    let last = dev.writes.borrow().last().cloned();
                    assert_eq!(last, Some((addr - r.base, data)), "{ctx}");
                }
                Target::Ram | Target::Alias(_) => {
                    bus.write(addr, &data);
                    for (i, b) in data.iter().enumerate() {
                        ram.insert(phys + i as u64, *b);
                    }
                    for at in [addr, phys] {
                        let mut buf = vec![0u8; n];
                        bus.read(at, &mut buf);
                        assert_eq!(buf, data, "{ctx}: read back at {at:#x}");
                    }
                }
            }
        }
        // No write leaked into another region.
        for (&a, &b) in &ram {
            let mut buf = [0u8];
            bus.read(a, &mut buf);
            assert_eq!(buf[0], b, "seed {seed}: final read-back at {a:#x}");
        }
    }
}

#[test]
fn overlapping_inserts_are_rejected_and_leave_the_map_intact() {
    for seed in 1..=CASES {
        let mut rng = XorShift64::new(seed);
        let map = random_map(seed, &mut rng);
        let bus = Bus::new();
        for r in &map {
            install(&bus, r);
        }
        // A window that starts inside, ends inside, or covers a region,
        // without leaving the region's node window.
        let r = &map[rng.below(map.len() as u64) as usize];
        let below = |k: u64| {
            let floor = layout::node_base(layout::node_of(r.base));
            r.base.saturating_sub(k).max(floor)
        };
        let (base, len) = match rng.below(3) {
            0 => (r.base + rng.below(r.len), r.len),
            1 => (below(rng.range(1, 64)), rng.range(65, 128)),
            _ => (below(8), r.len + 16),
        };
        let kind = RegionKind::HostDram {
            node: layout::node_of(base),
        };
        let msg = panic_message(|| bus.add_ram(Rc::new(SparseMem::new(base, len)), kind));
        assert!(
            msg.contains("overlaps existing"),
            "seed {seed}: [{base:#x};{len:#x}): {msg}"
        );
        assert_eq!(bus.classify(r.base), r.kind, "seed {seed}");
        assert_eq!(bus.resolve(r.base), resolve(&map, r.base), "seed {seed}");
    }
}

#[test]
fn regions_must_lie_inside_one_node_window() {
    let bus = Bus::new();
    let kind = RegionKind::HostDram { node: 3 };
    // Ending exactly at the window's end is fine.
    let top = layout::node_base(4);
    bus.add_ram(Rc::new(SparseMem::new(top - 4096, 4096)), kind);
    bus.write_u64(top - 8, 7);
    assert_eq!(bus.read_u64(top - 8), 7);
    assert!(!bus.is_mapped(top));
    // One byte further straddles nodes 3 and 4: rejected, nothing mapped.
    for (base, len) in [(top - 8192, 8193), (top - 1, 2)] {
        let msg = panic_message(|| {
            bus.add_alias(
                base,
                len,
                layout::gpu_dram(0),
                RegionKind::GpuBar { node: 3 },
            )
        });
        assert!(msg.contains("straddles node windows"), "{msg}");
    }
    assert!(!bus.is_mapped(top - 8192));
    assert!(!bus.is_mapped(top));
}
