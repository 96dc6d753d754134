//! Per-processor translation lookaside buffer model.
//!
//! The C-VAX requires a full TLB invalidation on every context switch; each
//! subsequent miss adds about 0.9 µs to a memory reference, and the paper
//! estimates 43 misses during a Null LRPC — roughly 25 % of its 157 µs.
//!
//! The model tracks which pages are resident per CPU so the miss count
//! *emerges* from the pages the call path actually touches. Miss counts are
//! reported through the [`crate::meter::Meter`]; the charged per-phase cost
//! constants in [`crate::cost::CostModel`] are calibrated *inclusive* of
//! miss time (that is how the paper measured them), so misses are not
//! double-charged. The tagged-TLB ablation (Section 3.4: "The high cost of
//! frequent domain crossing can also be reduced by using a TLB that
//! includes a process tag") uses the difference in emergent miss counts to
//! credit back the avoided refill time.
//!
//! A steady Null call makes 44 touches, each a set lookup and most an
//! insert, so the resident set is hashed with [`crate::idhash::IdHasher`]
//! rather than the std default SipHash. That is sound here: the keys are
//! context and page ids the simulator generates, never outside input, so
//! collision resistance protects nothing; and a set's membership does not
//! depend on its hasher, so every hit, miss, FIFO eviction and invalidation
//! — and every virtual charge derived from them — is the same under either.

use std::collections::VecDeque;

use crate::idhash::IdHashSet;
use crate::mem::PageId;
use crate::vm::ContextId;

/// Replacement/invalidation behaviour of the TLB.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TlbMode {
    /// Untagged entries; a context switch invalidates everything (C-VAX).
    InvalidateOnSwitch,
    /// Entries carry a context tag and survive switches (the ablation of
    /// Section 3.4).
    Tagged,
}

/// One CPU's TLB.
#[derive(Debug)]
pub struct Tlb {
    mode: TlbMode,
    capacity: usize,
    /// Resident (context, page) pairs; in untagged mode the context is the
    /// currently loaded one for every entry.
    resident: IdHashSet<(ContextId, PageId)>,
    /// FIFO of resident entries for eviction order.
    order: VecDeque<(ContextId, PageId)>,
    hits: u64,
    misses: u64,
    invalidations: u64,
}

impl Tlb {
    /// Creates a TLB with the given entry capacity.
    ///
    /// The C-VAX translation buffer holds a few hundred entries; 256 is
    /// used as the default via [`Tlb::cvax`].
    pub fn new(mode: TlbMode, capacity: usize) -> Tlb {
        Tlb {
            mode,
            capacity: capacity.max(1),
            resident: IdHashSet::default(),
            order: VecDeque::new(),
            hits: 0,
            misses: 0,
            invalidations: 0,
        }
    }

    /// A C-VAX-like TLB: 256 untagged entries, invalidated on switch.
    pub fn cvax() -> Tlb {
        Tlb::new(TlbMode::InvalidateOnSwitch, 256)
    }

    /// The TLB's mode.
    pub fn mode(&self) -> TlbMode {
        self.mode
    }

    /// References one page in `ctx`; returns `true` on a miss (and installs
    /// the entry).
    pub fn touch(&mut self, ctx: ContextId, page: PageId) -> bool {
        let key = (ctx, page);
        if self.resident.contains(&key) {
            self.hits += 1;
            return false;
        }
        self.misses += 1;
        if self.resident.len() >= self.capacity {
            if let Some(victim) = self.order.pop_front() {
                self.resident.remove(&victim);
            }
        }
        self.resident.insert(key);
        self.order.push_back(key);
        true
    }

    /// Notifies the TLB of a context switch. In untagged mode this
    /// invalidates every entry; in tagged mode it is free.
    pub fn on_context_switch(&mut self) {
        if self.mode == TlbMode::InvalidateOnSwitch {
            self.resident.clear();
            self.order.clear();
            self.invalidations += 1;
        }
    }

    /// Unconditionally flushes the TLB (e.g. after an unmap).
    pub fn flush(&mut self) {
        self.resident.clear();
        self.order.clear();
        self.invalidations += 1;
    }

    /// Total misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Total hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total invalidations so far.
    pub fn invalidations(&self) -> u64 {
        self.invalidations
    }

    /// Resets the hit/miss/invalidation counters (residency is preserved so
    /// steady-state measurements can follow a warm-up).
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
        self.invalidations = 0;
    }

    /// Number of currently resident entries.
    pub fn resident_count(&self) -> usize {
        self.resident.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::RegionId;

    fn page(n: u64) -> PageId {
        PageId::of(RegionId(1), n as usize * crate::mem::PAGE_SIZE)
    }

    const CTX: ContextId = ContextId(5);
    const OTHER: ContextId = ContextId(6);

    #[test]
    fn first_touch_misses_second_hits() {
        let mut tlb = Tlb::cvax();
        assert!(tlb.touch(CTX, page(0)));
        assert!(!tlb.touch(CTX, page(0)));
        assert_eq!(tlb.misses(), 1);
        assert_eq!(tlb.hits(), 1);
    }

    #[test]
    fn context_switch_invalidates_untagged() {
        let mut tlb = Tlb::cvax();
        tlb.touch(CTX, page(0));
        tlb.on_context_switch();
        assert_eq!(tlb.resident_count(), 0);
        assert!(
            tlb.touch(CTX, page(0)),
            "entry must be gone after invalidation"
        );
        assert_eq!(tlb.invalidations(), 1);
    }

    #[test]
    fn tagged_entries_survive_switches() {
        let mut tlb = Tlb::new(TlbMode::Tagged, 64);
        tlb.touch(CTX, page(0));
        tlb.on_context_switch();
        assert!(
            !tlb.touch(CTX, page(0)),
            "tagged entry must survive the switch"
        );
        // A different context still misses on the same page.
        assert!(tlb.touch(OTHER, page(0)));
    }

    #[test]
    fn capacity_evicts_fifo() {
        let mut tlb = Tlb::new(TlbMode::InvalidateOnSwitch, 2);
        tlb.touch(CTX, page(0));
        tlb.touch(CTX, page(1));
        tlb.touch(CTX, page(2)); // Evicts page 0.
        assert!(tlb.touch(CTX, page(0)), "page 0 must have been evicted");
        assert!(!tlb.touch(CTX, page(2)));
    }

    #[test]
    fn reset_stats_preserves_residency() {
        let mut tlb = Tlb::cvax();
        tlb.touch(CTX, page(0));
        tlb.reset_stats();
        assert_eq!(tlb.misses(), 0);
        assert!(!tlb.touch(CTX, page(0)), "residency survives a stats reset");
    }
}
