//! Property tests for the hardware substrate.

use std::collections::{HashSet, VecDeque};

use firefly::contention::{simulate_throughput, CallProfile, ResourceId, Seg};
use firefly::cost::CostModel;
use firefly::cpu::Machine;
use firefly::error::MemFault;
use firefly::mem::{PageId, PhysMem, RegionId, PAGE_SIZE};
use firefly::meter::Meter;
use firefly::time::Nanos;
use firefly::tlb::{Tlb, TlbMode};
use firefly::vm::ContextId;
use proptest::prelude::*;

proptest! {
    // ------------------------------------------------------------------
    // Nanos arithmetic laws.
    // ------------------------------------------------------------------

    #[test]
    fn nanos_addition_is_commutative_and_associative(a in 0u64..1u64<<40,
                                                     b in 0u64..1u64<<40,
                                                     c in 0u64..1u64<<40) {
        let (a, b, c) = (Nanos::from_nanos(a), Nanos::from_nanos(b), Nanos::from_nanos(c));
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!((a + b) + c, a + (b + c));
    }

    #[test]
    fn nanos_subtraction_saturates_and_roundtrips(a in 0u64..1u64<<40, b in 0u64..1u64<<40) {
        let (na, nb) = (Nanos::from_nanos(a), Nanos::from_nanos(b));
        if a >= b {
            prop_assert_eq!((na - nb) + nb, na);
        } else {
            prop_assert_eq!(na - nb, Nanos::ZERO);
        }
    }

    #[test]
    fn micros_conversion_roundtrips(us in 0u64..1u64<<30) {
        prop_assert_eq!(Nanos::from_micros(us).as_nanos(), us * 1000);
        let back = Nanos::from_micros_f64(Nanos::from_micros(us).as_micros_f64());
        prop_assert_eq!(back, Nanos::from_micros(us));
    }

    // ------------------------------------------------------------------
    // Page identity.
    // ------------------------------------------------------------------

    #[test]
    fn page_ids_are_injective_within_bounds(r1 in 1u64..1000, r2 in 1u64..1000,
                                            o1 in 0usize..512*1024, o2 in 0usize..512*1024) {
        let p1 = PageId::of(RegionId(r1), o1);
        let p2 = PageId::of(RegionId(r2), o2);
        let same = r1 == r2 && o1 / PAGE_SIZE == o2 / PAGE_SIZE;
        prop_assert_eq!(p1 == p2, same);
    }

    // ------------------------------------------------------------------
    // Demand-zero regions.
    // ------------------------------------------------------------------

    #[test]
    fn region_agrees_with_a_flat_byte_vector(
        len in prop_oneof![
            (1usize..=4).prop_map(|p| p * PAGE_SIZE),
            1usize..=4 * PAGE_SIZE + 7,
        ],
        ops in proptest::collection::vec(
            (0u8..11, 0u8..3, any::<u64>(), 0u8..3, any::<u64>(), any::<u8>()),
            1..60,
        ),
    ) {
        // Each op draws an offset (0: at a page boundary ±3, 1: anywhere up
        // to a page past the end, 2: within 8 of usize::MAX) and a length
        // (0: 0..=8, 1: up to two pages and a bit, 2: up to the region's
        // length plus a page), then writes (kinds 0..4), reads through
        // `read_raw` (4..7) or `read_vec` (7..9), or fills with zero (9)
        // or a nonzero byte (10).
        let mem = PhysMem::new();
        let region = mem.alloc("differential", len);
        let mut flat = vec![0u8; len];
        for (i, &(kind, off_mode, off_draw, len_mode, len_draw, byte)) in ops.iter().enumerate() {
            let offset = match off_mode {
                0 => {
                    let boundary = (off_draw as usize % (len / PAGE_SIZE + 2)) * PAGE_SIZE;
                    (boundary + (off_draw >> 32) as usize % 7).saturating_sub(3)
                }
                1 => off_draw as usize % (len + PAGE_SIZE + 1),
                _ => usize::MAX - off_draw as usize % 9,
            };
            let n = match len_mode {
                0 => len_draw as usize % 9,
                1 => len_draw as usize % (2 * PAGE_SIZE + 4),
                _ => len_draw as usize % (len + PAGE_SIZE + 1),
            };
            let in_range = offset.checked_add(n).is_some_and(|end| end <= len);
            let fault = MemFault::OutOfRange { region: region.id(), offset, len: n };
            let expected = if in_range { Ok(()) } else { Err(fault) };
            match kind {
                0..=3 => {
                    let data: Vec<u8> = (0..n).map(|j| byte.wrapping_add(j as u8)).collect();
                    prop_assert_eq!(region.write_raw(offset, &data), expected, "op {}", i);
                    if in_range {
                        flat[offset..offset + n].copy_from_slice(&data);
                    }
                }
                4..=6 => {
                    let mut buf = vec![byte; n];
                    prop_assert_eq!(region.read_raw(offset, &mut buf), expected, "op {}", i);
                    if in_range {
                        prop_assert_eq!(&buf[..], &flat[offset..offset + n], "op {}", i);
                    }
                }
                7 | 8 => {
                    let want = expected.map(|()| flat[offset..offset + n].to_vec());
                    prop_assert_eq!(region.read_vec(offset, n), want, "op {}", i);
                }
                9 => {
                    region.fill(0);
                    flat.fill(0);
                    prop_assert_eq!(region.resident_pages(), 0, "op {}", i);
                }
                _ => {
                    let b = byte.max(1);
                    region.fill(b);
                    flat.fill(b);
                    prop_assert_eq!(region.resident_pages(), region.page_count(), "op {}", i);
                }
            }
            prop_assert_eq!(region.read_vec(0, len), Ok(flat.clone()), "op {}", i);
            prop_assert!(region.resident_pages() <= region.page_count());
        }
        prop_assert_eq!(region.len(), len);
        prop_assert_eq!(mem.resident_bytes(), region.resident_pages() * PAGE_SIZE);
    }

    // ------------------------------------------------------------------
    // TLB invariants.
    // ------------------------------------------------------------------

    #[test]
    fn tlb_hits_plus_misses_equals_touches(pages in proptest::collection::vec(0u64..64, 1..200),
                                           capacity in 1usize..64) {
        let mut tlb = Tlb::new(TlbMode::InvalidateOnSwitch, capacity);
        let ctx = ContextId(1);
        for &p in &pages {
            tlb.touch(ctx, PageId::of(RegionId(1), p as usize * PAGE_SIZE));
        }
        prop_assert_eq!(tlb.hits() + tlb.misses(), pages.len() as u64);
        prop_assert!(tlb.resident_count() <= capacity);
    }

    #[test]
    fn tlb_second_touch_hits_if_capacity_allows(pages in proptest::collection::vec(0u64..16, 1..16)) {
        // Working set fits: re-touching the same sequence produces no new
        // misses.
        let mut tlb = Tlb::new(TlbMode::InvalidateOnSwitch, 64);
        let ctx = ContextId(1);
        for &p in &pages {
            tlb.touch(ctx, PageId::of(RegionId(1), p as usize * PAGE_SIZE));
        }
        let misses_before = tlb.misses();
        for &p in &pages {
            tlb.touch(ctx, PageId::of(RegionId(1), p as usize * PAGE_SIZE));
        }
        prop_assert_eq!(tlb.misses(), misses_before, "warm touches must all hit");
    }

    #[test]
    fn invalidation_forces_full_remiss(pages in proptest::collection::hash_set(0u64..32, 1..32)) {
        let mut tlb = Tlb::new(TlbMode::InvalidateOnSwitch, 64);
        let ctx = ContextId(1);
        for &p in &pages {
            tlb.touch(ctx, PageId::of(RegionId(1), p as usize * PAGE_SIZE));
        }
        tlb.on_context_switch();
        let before = tlb.misses();
        for &p in &pages {
            tlb.touch(ctx, PageId::of(RegionId(1), p as usize * PAGE_SIZE));
        }
        prop_assert_eq!(tlb.misses() - before, pages.len() as u64);
    }

    #[test]
    fn tlb_agrees_with_a_std_hashed_reference_model(
        tagged in 0u8..2,
        capacity in prop_oneof![Just(256usize), 1usize..=300],
        span in 1u64..=400,
        ops in proptest::collection::vec((0u8..20, 0u64..4, 1u64..=3, 0u64..400), 1..1500),
    ) {
        // Kinds 0..16 touch page `page % span` of a region in one of four
        // contexts; 16..18 switch context, 18 flushes, 19 resets stats.
        let mode = if tagged == 1 { TlbMode::Tagged } else { TlbMode::InvalidateOnSwitch };
        let mut tlb = Tlb::new(mode, capacity);
        let mut reference = RefTlb::new(mode, capacity);
        for (i, &(kind, ctx, region, page)) in ops.iter().enumerate() {
            match kind {
                0..=15 => {
                    let (ctx, page) = (
                        ContextId(ctx),
                        PageId::of(RegionId(region), (page % span) as usize * PAGE_SIZE),
                    );
                    prop_assert_eq!(tlb.touch(ctx, page), reference.touch(ctx, page), "op {}", i);
                }
                16 | 17 => {
                    tlb.on_context_switch();
                    reference.on_context_switch();
                }
                18 => {
                    tlb.flush();
                    reference.flush();
                }
                _ => {
                    tlb.reset_stats();
                    reference.reset_stats();
                }
            }
            prop_assert_eq!(
                (tlb.hits(), tlb.misses(), tlb.invalidations(), tlb.resident_count()),
                (reference.hits, reference.misses, reference.invalidations, reference.resident.len()),
                "op {}", i
            );
        }
    }

    // ------------------------------------------------------------------
    // Contention conservation.
    // ------------------------------------------------------------------

    #[test]
    fn per_cpu_calls_are_within_one_of_each_other_for_identical_profiles(
        compute_us in 50u64..400,
        cpus in 2usize..5,
    ) {
        // Identical pure-compute profiles must finish in lockstep.
        let profile = CallProfile::new(vec![Seg::Compute(Nanos::from_micros(compute_us))]);
        let report = simulate_throughput(&vec![profile; cpus], 0, Nanos::from_millis(100));
        let min = report.per_cpu_calls.iter().min().copied().unwrap_or(0);
        let max = report.per_cpu_calls.iter().max().copied().unwrap_or(0);
        prop_assert!(max - min <= 1, "{:?}", report.per_cpu_calls);
    }

    #[test]
    fn fair_fifo_resource_sharing(hold_us in 5u64..100, cpus in 2usize..5) {
        // A pure-contention profile shares the resource round-robin; no
        // CPU can starve under virtual-time FIFO.
        let profile = CallProfile::new(vec![Seg::Use {
            res: ResourceId(0),
            hold: Nanos::from_micros(hold_us),
        }]);
        let report = simulate_throughput(&vec![profile; cpus], 1, Nanos::from_millis(50));
        let min = report.per_cpu_calls.iter().min().copied().unwrap_or(0);
        let max = report.per_cpu_calls.iter().max().copied().unwrap_or(0);
        prop_assert!(max - min <= 1, "{:?}", report.per_cpu_calls);
    }
}

/// Reference model of [`Tlb`]: its resident set and FIFO eviction logic
/// over a std `HashSet` with the default (SipHash) hasher. `Tlb` hashes
/// with `firefly::idhash`; set semantics must not depend on the hasher.
struct RefTlb {
    mode: TlbMode,
    capacity: usize,
    resident: HashSet<(ContextId, PageId)>,
    order: VecDeque<(ContextId, PageId)>,
    hits: u64,
    misses: u64,
    invalidations: u64,
}

impl RefTlb {
    fn new(mode: TlbMode, capacity: usize) -> RefTlb {
        RefTlb {
            mode,
            capacity: capacity.max(1),
            resident: HashSet::new(),
            order: VecDeque::new(),
            hits: 0,
            misses: 0,
            invalidations: 0,
        }
    }

    fn touch(&mut self, ctx: ContextId, page: PageId) -> bool {
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

    fn on_context_switch(&mut self) {
        if self.mode == TlbMode::InvalidateOnSwitch {
            self.flush();
        }
    }

    fn flush(&mut self) {
        self.resident.clear();
        self.order.clear();
        self.invalidations += 1;
    }

    fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
        self.invalidations = 0;
    }
}

// ----------------------------------------------------------------------
// Non-proptest integration checks of the machine.
// ----------------------------------------------------------------------

#[test]
fn charged_time_equals_metered_time_on_a_scripted_sequence() {
    let machine = Machine::new(1, CostModel::cvax_firefly());
    let cpu = machine.cpu(0);
    let mut meter = Meter::enabled();
    let cost = machine.cost();
    kernel_path(cpu, cost, &mut meter);
    assert_eq!(Nanos::from_nanos(cpu.now().as_nanos()), meter.total());

    fn kernel_path(cpu: &firefly::cpu::Cpu, cost: &CostModel, meter: &mut Meter) {
        use firefly::meter::Phase;
        for (phase, amount) in [
            (Phase::ProcedureCall, cost.hw.procedure_call),
            (Phase::Trap, cost.hw.kernel_trap),
            (Phase::KernelTransfer, cost.kernel_transfer_call),
            (Phase::Trap, cost.hw.kernel_trap),
        ] {
            cpu.charge(amount);
            meter.record(phase, amount);
        }
    }
}

#[test]
fn context_ids_are_never_reused() {
    let machine = Machine::new(1, CostModel::cvax_firefly());
    let mut seen = std::collections::HashSet::new();
    for _ in 0..100 {
        let ctx = machine.create_context();
        assert!(seen.insert(ctx.id()), "context id reuse");
        machine.destroy_context(ctx.id());
    }
}

#[test]
fn kernel_context_survives_destruction_attempts() {
    let machine = Machine::new(1, CostModel::cvax_firefly());
    machine.destroy_context(ContextId::KERNEL);
    assert!(machine.context(ContextId::KERNEL).is_some());
}

#[test]
fn concurrent_idle_claims_hand_out_each_cpu_once() {
    // The idle-processor probe must be atomic: when many callers race for
    // the CPUs idling in a context, each CPU is claimed exactly once.
    let machine = Machine::new(8, CostModel::cvax_firefly());
    let ctx = machine.create_context();
    for i in 2..8 {
        machine.cpu(i).set_idle_in(Some(ctx.id()));
    }
    let claimed = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..8 {
            s.spawn(|| {
                while let Some(id) = machine.claim_idle_cpu_in(ctx.id()) {
                    claimed.lock().unwrap().push(id);
                }
            });
        }
    });
    let mut got = claimed.into_inner().unwrap();
    got.sort_unstable();
    assert_eq!(
        got,
        vec![2, 3, 4, 5, 6, 7],
        "each idle CPU claimed exactly once"
    );
    assert_eq!(machine.claim_idle_cpu_in(ctx.id()), None);
}
