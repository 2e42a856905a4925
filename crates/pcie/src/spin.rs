//! Spin-loop iterations and the exact spin-wait elision every processor
//! shares.
//!
//! [`Processor::spin_until`] is the one polling primitive. It runs
//! iterations of a probe ([`SpinOp`]s in program order) explicitly, timing
//! each operation. After one fails, the processor's
//! [`Processor::spin_park`] hook may prove the iteration constant: each
//! operation took exactly its fixed cost, and nothing it reads can change
//! until another party writes the polled memory (or touches state the
//! processor names by key). The process then parks on its step grid
//! ([`tc_desim::spin`]) instead of stepping; the executor wakes it at
//! exactly the step it would be in, having charged every elided step
//! through the sleep request, and [`Processor::spin_resume`] finishes the
//! pending step and the rest of that iteration explicitly.
//!
//! The pieces both processor models use live here: the `SpinWatch` that
//! turns bus stores into wake-ups, the check that the polled bytes still
//! hold what the iteration loaded, and [`Occurrences`], the per-step
//! event count a charge callback multiplies its counters by.

use std::rc::Rc;

use tc_desim::Sim;
use tc_mem::{Addr, Bus, BusWatch};

use crate::proc::Processor;

/// One operation of a spin-loop iteration (see [`Processor::spin_until`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpinOp {
    /// A plain global load of `len` bytes at the address
    /// ([`Processor::ld_bytes`]).
    Load(Addr, u32),
    /// A load of a cache-hot software-state word ([`Processor::ld_state`]).
    LoadState(Addr),
    /// `n` dependent instructions (compare, branch, loop bookkeeping).
    Instr(u64),
}

impl SpinOp {
    /// Bytes this operation loads.
    pub fn bytes(self) -> usize {
        match self {
            SpinOp::Load(_, len) => len as usize,
            SpinOp::LoadState(_) => 8,
            SpinOp::Instr(_) => 0,
        }
    }

    /// The address this operation loads from, if it loads.
    pub fn addr(self) -> Option<Addr> {
        match self {
            SpinOp::Load(addr, _) | SpinOp::LoadState(addr) => Some(addr),
            SpinOp::Instr(_) => None,
        }
    }
}

/// A zeroed buffer for the bytes one iteration of `ops` loads: every
/// load's bytes, concatenated in program order.
pub fn spin_buf(ops: &[SpinOp]) -> Vec<u8> {
    vec![0u8; ops.iter().map(|op| op.bytes()).sum()]
}

/// The offset in a spin buffer (see [`spin_buf`]) of every operation's
/// loaded bytes.
pub fn spin_offsets(ops: &[SpinOp]) -> Vec<usize> {
    ops.iter()
        .scan(0, |off, op| {
            let at = *off;
            *off += op.bytes();
            Some(at)
        })
        .collect()
}

/// The little-endian word of up to eight loaded bytes at `off` of a spin
/// buffer (see [`spin_buf`]); `len` selects a 4- or 8-byte load.
pub fn spin_word(buf: &[u8], off: usize, len: usize) -> u64 {
    let mut b = [0u8; 8];
    b[..len].copy_from_slice(&buf[off..off + len]);
    u64::from_le_bytes(b)
}

/// Run one spin-iteration operation on `p`, storing what it loads at byte
/// `off` of `buf`.
pub async fn spin_op<P: Processor + ?Sized>(p: &P, op: SpinOp, buf: &mut [u8], off: usize) {
    match op {
        SpinOp::Load(addr, len) => p.ld_bytes(addr, &mut buf[off..off + len as usize]).await,
        SpinOp::LoadState(addr) => {
            let v = p.ld_state(addr).await;
            buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
        }
        SpinOp::Instr(n) => p.instr(n).await,
    }
}

/// Spin on one word: load `len` (4 or 8) bytes at `addr`, run `instrs`
/// instructions (compare, branch, recompute the volatile pointer), and
/// repeat until `done` accepts the value, which is returned. The
/// single-word form of [`Processor::spin_until`].
pub async fn spin_on_word<P: Processor>(
    p: &P,
    addr: Addr,
    len: u32,
    instrs: u64,
    mut done: impl FnMut(u64) -> bool,
) -> u64 {
    let probe = [SpinOp::Load(addr, len), SpinOp::Instr(instrs)];
    let b = p
        .spin_until(&probe, None, |b| done(spin_word(b, 0, len as usize)))
        .await;
    spin_word(&b, 0, len as usize)
}

/// Bus watch that wakes sleeping spinners on overlapping stores (rule (a)
/// of [`tc_desim::spin`]). Installed on a bus the first time a spinner
/// parks there.
struct SpinWatch {
    sim: Sim,
}

impl BusWatch for SpinWatch {
    fn store(&self, addr: Addr, len: u64) {
        self.sim.spin_write(addr, addr + len);
    }

    fn load(&self, _addr: Addr) {}

    fn wakes_spinners(&self) -> bool {
        true
    }
}

/// Whether stores on `bus` wake sleeping spinners of `sim`, installing
/// the wake-up watch if the bus has none. A spinner may only park when
/// this holds (the causal profiler's watch, say, does not wake them).
pub fn spin_watch_ready(sim: &Sim, bus: &Bus) -> bool {
    match bus.watch() {
        Some(w) => w.wakes_spinners(),
        None => {
            bus.set_watch(Some(Rc::new(SpinWatch { sim: sim.clone() })));
            true
        }
    }
}

/// Whether every load of `ops` would still read what the iteration that
/// filled `buf` loaded. A write that landed after its load but before the
/// iteration ended is already visible, so the next iteration would
/// differ and may not be elided.
pub fn loads_unchanged(bus: &Bus, ops: &[SpinOp], buf: &[u8]) -> bool {
    let mut now_holds = Vec::new();
    ops.iter().zip(spin_offsets(ops)).all(|(&op, off)| {
        let Some(addr) = op.addr() else { return true };
        now_holds.resize(op.bytes(), 0);
        bus.read(addr, &mut now_holds);
        now_holds == buf[off..off + op.bytes()]
    })
}

/// Per-step occurrence counts of `j % n` over `j` in `from..to`: how many
/// of a range of grid events start (or end) each step of an iteration.
pub struct Occurrences {
    full: u64,
    from_rem: u64,
    to_rem: u64,
}

impl Occurrences {
    /// The counts for events `from..to` of an `n`-step grid (an empty
    /// range when `from >= to`).
    pub fn new(from: u64, to: u64, n: u64) -> Self {
        let from = from.min(to);
        Occurrences {
            full: to / n - from / n,
            from_rem: from % n,
            to_rem: to % n,
        }
    }

    /// The counts of the steps that *end* at events `from..to`: event `j`
    /// ends step `j - 1`, and event 0 ends none.
    pub fn ended(from: u64, to: u64, n: u64) -> Self {
        Self::new(from.max(1) - 1, to.max(1) - 1, n)
    }

    /// How many `j` in the range have `j % n == i`.
    pub fn of(&self, i: u64) -> u64 {
        self.full + u64::from(self.to_rem > i) - u64::from(self.from_rem > i)
    }

    /// `j % n` of the last `j` in the range (which must not be empty).
    pub fn last_rem(&self, n: u64) -> u64 {
        self.to_rem.checked_sub(1).unwrap_or(n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occurrence_counts_match_enumeration() {
        for n in 1..5u64 {
            for from in 0..12u64 {
                for to in from..14 {
                    let occ = Occurrences::new(from, to, n);
                    let ended = Occurrences::ended(from, to, n);
                    for i in 0..n {
                        let want = (from..to).filter(|j| j % n == i).count() as u64;
                        assert_eq!(occ.of(i), want, "n={n} {from}..{to} i={i}");
                        let want = (from..to).filter(|&j| j >= 1 && (j - 1) % n == i).count();
                        assert_eq!(ended.of(i), want as u64, "ended n={n} {from}..{to} i={i}");
                    }
                    if to > from {
                        assert_eq!(occ.last_rem(n), (to - 1) % n);
                    }
                }
            }
        }
    }

    #[test]
    fn offsets_follow_program_order() {
        let ops = [
            SpinOp::LoadState(0),
            SpinOp::Instr(3),
            SpinOp::Load(8, 64),
            SpinOp::Load(80, 4),
        ];
        assert_eq!(spin_offsets(&ops), vec![0, 8, 8, 72]);
        assert_eq!(spin_buf(&ops).len(), 76);
    }
}
