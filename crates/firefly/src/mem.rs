//! Simulated physical memory.
//!
//! Memory is modeled as a set of named *regions* — contiguous byte ranges
//! allocated by the kernel and mapped into zero or more virtual-memory
//! contexts (see [`crate::vm`]). The byte contents are real, so data
//! transfer through A-stacks and message buffers is functional, not just
//! accounted for.
//!
//! Pages are 512 bytes, matching the VAX architecture of the C-VAX Firefly;
//! page identities feed the per-CPU TLB model.
//!
//! Regions are *demand-zero*, as a real VM backs a fresh mapping: a region
//! holds a table of its pages behind one lock, and a page's bytes are
//! allocated, zero-filled, only when something first writes to it. A page
//! nobody has written reads as zeros — exactly what an eagerly zeroed
//! buffer would hold — so every reader sees the same bytes either way and
//! only host memory differs. That matters at bind time: an import
//! allocates a touch plan's working-set regions, which exist only to give
//! the TLB model page ids and are never read or written, plus A-stacks, a
//! call ring and 16 KB E-stacks of which a call writes a few bytes.
//! Nothing here feeds the virtual clock: lengths, page ids, bounds checks
//! and the protection checks of [`crate::vm`] do not depend on which pages
//! are resident.

use core::fmt;
use core::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::error::MemFault;
use crate::idhash::IdHashMap;

/// The VAX page size in bytes.
pub const PAGE_SIZE: usize = 512;

/// Identifier of a physical memory region.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegionId(pub u64);

impl fmt::Debug for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "region#{}", self.0)
    }
}

/// Identity of one page of one region, as seen by the TLB.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PageId(pub u64);

impl PageId {
    /// The page covering byte `offset` of region `region`.
    pub fn of(region: RegionId, offset: usize) -> PageId {
        PageId(region.0 << 20 | (offset / PAGE_SIZE) as u64)
    }

    /// The region the page belongs to.
    pub fn region(self) -> RegionId {
        RegionId(self.0 >> 20)
    }
}

/// One resident page's bytes.
type Page = Box<[u8; PAGE_SIZE]>;

fn zero_page() -> Page {
    Box::new([0; PAGE_SIZE])
}

/// Splits the byte range `offset..offset + len` at page boundaries,
/// yielding for each piece its page index, its byte range within that
/// page, and its byte range within a `len`-byte buffer.
fn page_spans(
    offset: usize,
    len: usize,
) -> impl Iterator<Item = (usize, Range<usize>, Range<usize>)> {
    let mut done = 0;
    core::iter::from_fn(move || {
        (done < len).then(|| {
            let at = offset + done;
            let within = at % PAGE_SIZE;
            let n = (len - done).min(PAGE_SIZE - within);
            let span = (at / PAGE_SIZE, within..within + n, done..done + n);
            done += n;
            span
        })
    })
}

/// A contiguous region of simulated physical memory.
pub struct Region {
    id: RegionId,
    label: String,
    len: usize,
    /// One slot per page; `None` until the page is first written.
    pages: RwLock<Vec<Option<Page>>>,
}

impl Region {
    /// The region's identifier.
    pub fn id(&self) -> RegionId {
        self.id
    }

    /// The diagnostic label given at allocation time.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The region's length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the region has zero length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of pages spanned by the region.
    pub fn page_count(&self) -> usize {
        self.len.div_ceil(PAGE_SIZE)
    }

    /// The pages covering the byte range `offset..offset + len`.
    ///
    /// Returns an empty iterator for a zero-length range.
    pub fn pages_for(&self, offset: usize, len: usize) -> impl Iterator<Item = PageId> + '_ {
        let first = offset / PAGE_SIZE;
        let last = if len == 0 {
            first // Empty range: yield nothing via the range below.
        } else {
            (offset + len - 1) / PAGE_SIZE + 1
        };
        let id = self.id;
        (first..last).map(move |p| PageId(id.0 << 20 | p as u64))
    }

    /// Fails with [`MemFault::OutOfRange`] unless `offset..offset + len`
    /// lies within the region.
    fn check_range(&self, offset: usize, len: usize) -> Result<(), MemFault> {
        match offset.checked_add(len) {
            Some(end) if end <= self.len => Ok(()),
            _ => Err(MemFault::OutOfRange {
                region: self.id,
                offset,
                len,
            }),
        }
    }

    /// Copies `data` into the region at `offset`, without any protection
    /// check (the check belongs to [`crate::cpu::Machine`], which knows
    /// the accessing context). A page written for the first time is
    /// allocated zero-filled.
    ///
    /// Fails with [`MemFault::OutOfRange`] if the write would exceed the
    /// region.
    pub fn write_raw(&self, offset: usize, data: &[u8]) -> Result<(), MemFault> {
        self.check_range(offset, data.len())?;
        let mut pages = self.pages.write();
        for (page, within, from) in page_spans(offset, data.len()) {
            pages[page].get_or_insert_with(zero_page)[within].copy_from_slice(&data[from]);
        }
        Ok(())
    }

    /// Copies `buf.len()` bytes out of the region at `offset` into `buf`,
    /// without any protection check. Pages never written read as zeros.
    pub fn read_raw(&self, offset: usize, buf: &mut [u8]) -> Result<(), MemFault> {
        self.check_range(offset, buf.len())?;
        let pages = self.pages.read();
        for (page, within, to) in page_spans(offset, buf.len()) {
            match &pages[page] {
                Some(bytes) => buf[to].copy_from_slice(&bytes[within]),
                None => buf[to].fill(0),
            }
        }
        Ok(())
    }

    /// Reads `len` bytes at `offset` into a fresh vector.
    pub fn read_vec(&self, offset: usize, len: usize) -> Result<Vec<u8>, MemFault> {
        let mut buf = vec![0u8; len];
        self.read_raw(offset, &mut buf)?;
        Ok(buf)
    }

    /// Fills the whole region with `byte`. Filling with zero returns every
    /// page to the demand-zero state; any other byte makes every page
    /// resident.
    pub fn fill(&self, byte: u8) {
        let mut pages = self.pages.write();
        if byte == 0 {
            pages.fill(None);
        } else {
            for page in pages.iter_mut() {
                page.get_or_insert_with(zero_page).fill(byte);
            }
        }
    }

    /// Number of pages holding host memory: those written at least once
    /// and not since released by a zero [`Region::fill`].
    ///
    /// Walks the page table; meant for accounting, not the call path.
    pub fn resident_pages(&self) -> usize {
        self.pages.read().iter().filter(|p| p.is_some()).count()
    }
}

impl fmt::Debug for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Region")
            .field("id", &self.id)
            .field("label", &self.label)
            .field("len", &self.len)
            .finish()
    }
}

/// The machine's physical memory: an allocator and table of regions.
///
/// The region table is a process-global lock, so its acquisitions are
/// reported to [`crate::meter::note_global_lock`]. None of them are on the
/// LRPC fast path: calls address their A-stack and E-stack through `Arc`s
/// captured at bind/associate time. Per-region page-table locks in
/// [`Region`] are per-object and uncounted.
pub struct PhysMem {
    next_id: AtomicU64,
    regions: Mutex<IdHashMap<RegionId, Arc<Region>>>,
}

impl PhysMem {
    /// Creates an empty physical memory.
    pub fn new() -> PhysMem {
        PhysMem {
            next_id: AtomicU64::new(1),
            regions: Mutex::new(IdHashMap::default()),
        }
    }

    /// Allocates a zero-filled region of `len` bytes. No page holds host
    /// memory until it is first written.
    pub fn alloc(&self, label: impl Into<String>, len: usize) -> Arc<Region> {
        let id = RegionId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let region = Arc::new(Region {
            id,
            label: label.into(),
            len,
            pages: RwLock::new(vec![None; len.div_ceil(PAGE_SIZE)]),
        });
        crate::meter::note_global_lock();
        self.regions.lock().insert(id, Arc::clone(&region));
        region
    }

    /// Looks up a region by id.
    pub fn get(&self, id: RegionId) -> Option<Arc<Region>> {
        crate::meter::note_global_lock();
        self.regions.lock().get(&id).cloned()
    }

    /// Releases a region from the table (outstanding `Arc`s keep the bytes
    /// alive; the region simply stops being addressable).
    pub fn free(&self, id: RegionId) {
        crate::meter::note_global_lock();
        self.regions.lock().remove(&id);
    }

    /// Total bytes currently allocated.
    pub fn allocated_bytes(&self) -> usize {
        crate::meter::note_global_lock();
        self.regions.lock().values().map(|r| r.len).sum()
    }

    /// Host bytes backing the live regions' resident pages
    /// ([`Region::resident_pages`] × [`PAGE_SIZE`], summed).
    ///
    /// Walks every live region's page table; meant for accounting and
    /// tests, not the call path.
    pub fn resident_bytes(&self) -> usize {
        crate::meter::note_global_lock();
        let pages: usize = self
            .regions
            .lock()
            .values()
            .map(|r| r.resident_pages())
            .sum();
        pages * PAGE_SIZE
    }

    /// Number of live regions.
    pub fn region_count(&self) -> usize {
        crate::meter::note_global_lock();
        self.regions.lock().len()
    }
}

impl Default for PhysMem {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_read_write_roundtrip() {
        let mem = PhysMem::new();
        let r = mem.alloc("astack", 1024);
        r.write_raw(100, &[1, 2, 3, 4]).unwrap();
        assert_eq!(r.read_vec(100, 4).unwrap(), vec![1, 2, 3, 4]);
        assert_eq!(r.read_vec(99, 1).unwrap(), vec![0]);
    }

    #[test]
    fn out_of_range_accesses_fault() {
        let mem = PhysMem::new();
        let r = mem.alloc("small", 8);
        assert!(matches!(
            r.write_raw(6, &[0; 4]),
            Err(MemFault::OutOfRange { .. })
        ));
        assert!(matches!(
            r.read_raw(8, &mut [0; 1]),
            Err(MemFault::OutOfRange { .. })
        ));
        // Boundary case: a write ending exactly at the region end is fine.
        assert!(r.write_raw(4, &[9; 4]).is_ok());
        // Offset overflow must not panic.
        assert!(r.write_raw(usize::MAX, &[1]).is_err());
    }

    #[test]
    fn page_count_and_page_ids() {
        let mem = PhysMem::new();
        let r = mem.alloc("pages", PAGE_SIZE * 2 + 1);
        assert_eq!(r.page_count(), 3);
        let pages: Vec<_> = r.pages_for(0, PAGE_SIZE + 1).collect();
        assert_eq!(pages.len(), 2);
        let pages: Vec<_> = r.pages_for(PAGE_SIZE - 1, 2).collect();
        assert_eq!(pages.len(), 2);
        let pages: Vec<_> = r.pages_for(10, 0).collect();
        assert!(pages.is_empty());
    }

    #[test]
    fn page_ids_distinct_across_regions() {
        let mem = PhysMem::new();
        let a = mem.alloc("a", PAGE_SIZE);
        let b = mem.alloc("b", PAGE_SIZE);
        assert_ne!(PageId::of(a.id(), 0), PageId::of(b.id(), 0));
    }

    #[test]
    fn free_removes_from_table() {
        let mem = PhysMem::new();
        let r = mem.alloc("gone", 64);
        assert!(mem.get(r.id()).is_some());
        mem.free(r.id());
        assert!(mem.get(r.id()).is_none());
        assert_eq!(mem.region_count(), 0);
    }

    #[test]
    fn pages_become_resident_only_when_written() {
        let mem = PhysMem::new();
        let r = mem.alloc("lazy", PAGE_SIZE * 3);
        assert_eq!(r.resident_pages(), 0);
        // Reads never make a page resident.
        assert_eq!(
            r.read_vec(0, PAGE_SIZE * 3).unwrap(),
            vec![0; PAGE_SIZE * 3]
        );
        assert_eq!(mem.resident_bytes(), 0);
        // A write straddling the first boundary makes exactly two pages
        // resident; the third stays demand-zero.
        r.write_raw(PAGE_SIZE - 2, &[7; 4]).unwrap();
        assert_eq!(r.resident_pages(), 2);
        assert_eq!(mem.resident_bytes(), 2 * PAGE_SIZE);
        assert_eq!(
            r.read_vec(PAGE_SIZE - 3, 6).unwrap(),
            vec![0, 7, 7, 7, 7, 0]
        );
        // An empty write at the end is in range and touches nothing.
        r.write_raw(PAGE_SIZE * 3, &[]).unwrap();
        assert_eq!(r.resident_pages(), 2);
    }

    #[test]
    fn freed_regions_leave_the_resident_total() {
        let mem = PhysMem::new();
        let a = mem.alloc("a", PAGE_SIZE);
        let b = mem.alloc("b", PAGE_SIZE);
        a.write_raw(0, &[1]).unwrap();
        b.write_raw(0, &[1]).unwrap();
        assert_eq!(mem.resident_bytes(), 2 * PAGE_SIZE);
        mem.free(a.id());
        assert_eq!(mem.resident_bytes(), PAGE_SIZE);
        assert_eq!(mem.allocated_bytes(), PAGE_SIZE);
        assert_eq!(mem.get(b.id()).unwrap().id(), b.id());
    }
}
