//! Sparse page-backed simulated RAM.

use std::cell::RefCell;

use tc_trace::fx::FxHashMap;

use crate::Addr;

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// A sparse byte store covering `len` bytes starting at fabric address
/// `base`. Pages are materialized on first write; reads of untouched pages
/// yield zeros, like freshly-mapped memory.
pub struct SparseMem {
    base: Addr,
    len: u64,
    pages: RefCell<FxHashMap<u64, Box<[u8; PAGE_SIZE]>>>,
}

impl SparseMem {
    /// A memory window of `len` bytes at `base`.
    pub fn new(base: Addr, len: u64) -> Self {
        SparseMem {
            base,
            len,
            pages: RefCell::new(FxHashMap::default()),
        }
    }

    /// Base fabric address.
    pub fn base(&self) -> Addr {
        self.base
    }

    /// Window length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True if the window is zero-sized.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True if `addr..addr+n` lies inside this window.
    pub fn contains(&self, addr: Addr, n: u64) -> bool {
        addr >= self.base && addr.saturating_add(n) <= self.base + self.len
    }

    /// Number of pages actually materialized (for footprint assertions).
    pub fn resident_pages(&self) -> usize {
        self.pages.borrow().len()
    }

    fn check(&self, addr: Addr, n: usize) {
        assert!(
            self.contains(addr, n as u64),
            "access [{:#x}; {}) outside window [{:#x}; {:#x})",
            addr,
            n,
            self.base,
            self.base + self.len
        );
    }

    /// Copy `buf.len()` bytes at `addr` into `buf`.
    pub fn read(&self, addr: Addr, buf: &mut [u8]) {
        self.check(addr, buf.len());
        let pages = self.pages.borrow();
        let mut off = addr - self.base;
        let mut done = 0usize;
        while done < buf.len() {
            let page = off >> PAGE_SHIFT;
            let in_page = (off & (PAGE_SIZE as u64 - 1)) as usize;
            let chunk = (PAGE_SIZE - in_page).min(buf.len() - done);
            match pages.get(&page) {
                Some(p) => buf[done..done + chunk].copy_from_slice(&p[in_page..in_page + chunk]),
                None => buf[done..done + chunk].fill(0),
            }
            done += chunk;
            off += chunk as u64;
        }
    }

    /// Write `buf` at `addr`.
    pub fn write(&self, addr: Addr, buf: &[u8]) {
        self.check(addr, buf.len());
        let mut pages = self.pages.borrow_mut();
        let mut off = addr - self.base;
        let mut done = 0usize;
        while done < buf.len() {
            let page = off >> PAGE_SHIFT;
            let in_page = (off & (PAGE_SIZE as u64 - 1)) as usize;
            let chunk = (PAGE_SIZE - in_page).min(buf.len() - done);
            let p = pages
                .entry(page)
                .or_insert_with(|| Box::new([0u8; PAGE_SIZE]));
            p[in_page..in_page + chunk].copy_from_slice(&buf[done..done + chunk]);
            done += chunk;
            off += chunk as u64;
        }
    }

    /// Read a little-endian `u64` at `addr`.
    pub fn read_u64(&self, addr: Addr) -> u64 {
        let mut b = [0u8; 8];
        self.read(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Write a little-endian `u64` at `addr`.
    pub fn write_u64(&self, addr: Addr, v: u64) {
        self.write(addr, &v.to_le_bytes());
    }

    /// Read a little-endian `u32` at `addr`.
    pub fn read_u32(&self, addr: Addr) -> u32 {
        let mut b = [0u8; 4];
        self.read(addr, &mut b);
        u32::from_le_bytes(b)
    }

    /// Write a little-endian `u32` at `addr`.
    pub fn write_u32(&self, addr: Addr, v: u32) {
        self.write(addr, &v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill_semantics() {
        let m = SparseMem::new(0x1000, 0x10000);
        let mut b = [0xAAu8; 16];
        m.read(0x1800, &mut b);
        assert_eq!(b, [0u8; 16]);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn round_trip_within_page() {
        let m = SparseMem::new(0, 1 << 20);
        m.write(0x10, b"hello world");
        let mut b = [0u8; 11];
        m.read(0x10, &mut b);
        assert_eq!(&b, b"hello world");
    }

    #[test]
    fn round_trip_across_page_boundary() {
        let m = SparseMem::new(0, 1 << 20);
        let data: Vec<u8> = (0..=255).collect();
        let addr = 4096 - 100;
        m.write(addr, &data);
        let mut b = vec![0u8; 256];
        m.read(addr, &mut b);
        assert_eq!(b, data);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn u64_helpers_little_endian() {
        let m = SparseMem::new(0, 4096);
        m.write_u64(8, 0x1122_3344_5566_7788);
        let mut b = [0u8; 8];
        m.read(8, &mut b);
        assert_eq!(b, [0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11]);
        assert_eq!(m.read_u64(8), 0x1122_3344_5566_7788);
        m.write_u32(16, 0xDEAD_BEEF);
        assert_eq!(m.read_u32(16), 0xDEAD_BEEF);
    }

    #[test]
    fn sparse_footprint_stays_small() {
        // Touch 3 pages of a 64 GiB window; only 3 pages materialize.
        let m = SparseMem::new(0, 64 << 30);
        m.write_u64(0, 1);
        m.write_u64(32 << 30, 2);
        m.write_u64((64 << 30) - 8, 3);
        assert_eq!(m.resident_pages(), 3);
        assert_eq!(m.read_u64(32 << 30), 2);
    }

    #[test]
    #[should_panic(expected = "outside window")]
    fn out_of_range_panics() {
        let m = SparseMem::new(0x1000, 0x100);
        m.write_u64(0x1100 - 4, 0); // straddles the end
    }
}
