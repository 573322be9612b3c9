//! A single-level virtual machine: guest physical memory backed by host
//! frames, with a real host page table (the EPT/NPT analog) whose
//! last-level entries live in a host TEA.
//!
//! The hypervisor "typically creates one VMA to represent the guest
//! physical memory" (§4.5); [`Vm::new`] builds exactly that — one
//! hVMA-to-hTEA mapping covering the whole guest physical space, with the
//! hPT's leaf tables being the hTEA's pages. The same physical entries
//! therefore serve the hardware 2D walker (which walks the hPT) and the
//! DMT fetcher (which indexes the hTEA).

use crate::VirtError;
use dmt_core::vtmap::VmaTeaMapping;
use dmt_mem::buddy::FrameKind;
use dmt_mem::{FastMap, MemoryOps, PageSize, Pfn, PhysAddr, PhysMemory, VirtAddr};
use dmt_pgtable::pte::PteFlags;
use dmt_pgtable::RadixPageTable;

/// A frame-number map from one physical space into the next one down,
/// kept at the granularity the lower level maps it with: one entry per
/// host-page chunk (head frame → head frame) below `ram_frames`, and one
/// entry per 4 KiB frame for the pages inserted above it (pvDMT TEA
/// pages, which the host maps at 4 KiB).
#[derive(Debug)]
pub(crate) struct BackingMap {
    chunks: FastMap<u64, u64>,
    inserted: FastMap<u64, u64>,
    ram_frames: u64,
    chunk: PageSize,
    chunk_mask: u64,
}

impl BackingMap {
    /// An empty map over `ram_frames` frames backed in `chunk`-sized
    /// pieces.
    pub(crate) fn new(ram_frames: u64, chunk: PageSize) -> Self {
        BackingMap {
            chunks: FastMap::default(),
            inserted: FastMap::default(),
            ram_frames,
            chunk,
            chunk_mask: chunk.base_pages() - 1,
        }
    }

    /// The frame backing `frame`, if any.
    #[inline]
    pub(crate) fn get(&self, frame: u64) -> Option<u64> {
        if frame < self.ram_frames {
            let off = frame & self.chunk_mask;
            Some(self.chunks.get(&(frame - off))? + off)
        } else {
            self.inserted.get(&frame).copied()
        }
    }

    /// The head frame of the chunk holding RAM frame `frame`, or `None`
    /// if that chunk is already backed.
    pub(crate) fn unbacked_head(&self, frame: u64) -> Option<u64> {
        let head = frame & !self.chunk_mask;
        (!self.chunks.contains_key(&head)).then_some(head)
    }

    /// Record that the chunk at `head` is backed from `lower_head` on.
    pub(crate) fn insert_chunk(&mut self, head: u64, lower_head: u64) {
        self.chunks.insert(head, lower_head);
    }

    /// Record one 4 KiB page inserted above RAM.
    pub(crate) fn insert_page(&mut self, frame: u64, lower: u64) {
        debug_assert!(frame >= self.ram_frames, "inserted pages live above RAM");
        self.inserted.insert(frame, lower);
    }

    /// Backed pieces sorted by address: `(address, lower address,
    /// size)`, chunks at the chunk size and inserted pages at 4 KiB.
    fn pieces(&self) -> Vec<(PhysAddr, PhysAddr, PageSize)> {
        let mut v: Vec<_> = self
            .chunks
            .iter()
            .map(|(&f, &l)| (f, l, self.chunk))
            .chain(
                self.inserted
                    .iter()
                    .map(|(&f, &l)| (f, l, PageSize::Size4K)),
            )
            .map(|(f, l, size)| (PhysAddr(f << 12), PhysAddr(l << 12), size))
            .collect();
        v.sort_unstable_by_key(|p| p.0);
        v
    }
}

/// One guest: its physical-memory backing, host page table, and host TEA.
#[derive(Debug)]
pub struct Vm {
    /// Host page table mapping gPA → hPA.
    hpt: RadixPageTable,
    /// The hVMA-to-hTEA mapping covering guest physical memory.
    host_mapping: VmaTeaMapping,
    /// gframe → hframe, per host page, for the software view.
    backing: BackingMap,
    /// Guest-frame allocator (guest physical address space).
    guest_buddy: dmt_mem::BuddyAllocator,
    guest_frames: u64,
    host_page_size: PageSize,
    /// LCG cursor for spread allocation.
    spread: u64,
}

impl Vm {
    /// Create a guest with `guest_bytes` of physical memory, eagerly
    /// backed by host frames and mapped in the hPT at `host_page_size`
    /// granularity (4 KiB normally, 2 MiB when the host runs THP).
    ///
    /// # Errors
    ///
    /// Propagates host allocation failures.
    ///
    /// # Panics
    ///
    /// Panics if `guest_bytes` is not a multiple of `host_page_size` or
    /// `host_page_size` is 1 GiB (not modeled for guest backing).
    pub fn new(
        pm: &mut PhysMemory,
        guest_bytes: u64,
        host_page_size: PageSize,
    ) -> Result<Self, VirtError> {
        assert!(
            guest_bytes.is_multiple_of(host_page_size.bytes()),
            "guest size must be host-page aligned"
        );
        assert!(
            host_page_size != PageSize::Size1G,
            "1 GiB guest backing not modeled"
        );
        let mut hpt = RadixPageTable::new(pm, 4)?;
        // One host TEA covering the whole guest physical space.
        let proto = VmaTeaMapping::new(VirtAddr(0), guest_bytes, host_page_size, Pfn(0));
        let htea = pm.alloc_contig(proto.tea_frames(), FrameKind::Tea)?;
        let host_mapping = VmaTeaMapping::new(VirtAddr(0), guest_bytes, host_page_size, htea);
        // Install the hTEA pages as the hPT's leaf tables.
        let span = 512u64 << host_page_size.shift();
        for i in 0..host_mapping.tea_frames() {
            hpt.install_table(
                pm,
                VirtAddr(i * span),
                host_page_size.leaf_level(),
                Pfn(htea.0 + i),
            )?;
        }
        // Guest pages are backed lazily on first allocation: setup cost
        // scales with the pages a workload actually touches, letting the
        // simulated guests reach the paper's multi-GiB regime (where the
        // MMU caches stop covering the footprint) at negligible cost.
        Ok(Vm {
            hpt,
            host_mapping,
            backing: BackingMap::new(guest_bytes >> 12, host_page_size),
            guest_buddy: dmt_mem::BuddyAllocator::new(guest_bytes >> 12),
            guest_frames: guest_bytes >> 12,
            host_page_size,
            spread: 0x5eed_1234,
        })
    }

    /// Ensure the host-page-sized chunk containing guest frame `gframe`
    /// is backed by host memory and mapped in the hPT; returns the host
    /// frame backing `gframe`.
    fn ensure_backed(&mut self, pm: &mut PhysMemory, gframe: u64) -> Result<Pfn, VirtError> {
        let Some(head) = self.backing.unbacked_head(gframe) else {
            return Ok(Pfn(self.backing.get(gframe).expect("chunk is backed")));
        };
        let gpa = VirtAddr(head << 12);
        let hframe = match self.host_page_size {
            PageSize::Size4K => pm.alloc_frame(FrameKind::Data)?,
            _ => pm.buddy_mut().alloc_order(9, FrameKind::HugeData)?,
        };
        self.hpt.map(
            pm,
            gpa,
            PhysAddr::from_pfn(hframe),
            self.host_page_size,
            PteFlags::WRITABLE | PteFlags::USER,
        )?;
        self.backing.insert_chunk(head, hframe.0);
        Ok(Pfn(hframe.0 + (gframe - head)))
    }

    /// Back guest frames `[g, g + frames)` chunk by chunk and zero them.
    fn back_and_zero(&mut self, pm: &mut PhysMemory, g: Pfn, frames: u64) -> Result<(), VirtError> {
        let end = g.0 + frames;
        let mut f = g.0;
        while f < end {
            let h = self.ensure_backed(pm, f)?;
            let next = ((f | self.backing.chunk_mask) + 1).min(end);
            for k in 0..next - f {
                pm.zero_frame(Pfn(h.0 + k));
            }
            f = next;
        }
        Ok(())
    }

    /// The backed guest-physical memory as `(gPA, hPA, size)`, sorted by
    /// gPA — what a host-side table builder must map. Guest RAM comes in
    /// host pages (2 MiB chunks under a THP host); pages inserted above
    /// RAM come at 4 KiB, as the hPT maps them.
    pub fn backed_chunks(&self) -> Vec<(PhysAddr, PhysAddr, PageSize)> {
        self.backing.pieces()
    }

    /// The host page table (for hardware 2D walks).
    pub fn hpt(&self) -> &RadixPageTable {
        &self.hpt
    }

    /// The hVMA-to-hTEA mapping (for the host DMT registers).
    pub fn host_mapping(&self) -> VmaTeaMapping {
        self.host_mapping
    }

    /// Guest physical memory size in frames.
    pub fn guest_frames(&self) -> u64 {
        self.guest_frames
    }

    /// Host page size backing the guest.
    pub fn host_page_size(&self) -> PageSize {
        self.host_page_size
    }

    /// Translate a guest physical address to host physical (software
    /// path, no cycles).
    pub fn gpa_to_hpa(&self, gpa: PhysAddr) -> Option<PhysAddr> {
        let hframe = self.backing.get(gpa.raw() >> 12)?;
        Some(PhysAddr((hframe << 12) | gpa.page_offset()))
    }

    /// Allocate a guest frame (guest-physical space).
    ///
    /// # Errors
    ///
    /// Propagates guest allocator exhaustion.
    pub fn alloc_guest_frame(&mut self, pm: &mut PhysMemory, kind: FrameKind) -> Result<Pfn, VirtError> {
        let mut cur = self.spread;
        let g = self.guest_buddy.alloc_single_spread(kind, &mut cur)?;
        self.spread = cur;
        // Fresh guest frames read as zero.
        self.back_and_zero(pm, g, 1)?;
        Ok(g)
    }

    /// Allocate guest-physically contiguous frames (for non-pv gTEAs,
    /// which must be contiguous in *guest* physical memory).
    ///
    /// # Errors
    ///
    /// Propagates guest allocator fragmentation failures.
    pub fn alloc_guest_contig(
        &mut self,
        pm: &mut PhysMemory,
        frames: u64,
        kind: FrameKind,
    ) -> Result<Pfn, VirtError> {
        let g = self.guest_buddy.alloc_contig(frames, kind)?;
        self.back_and_zero(pm, g, frames)?;
        Ok(g)
    }

    /// Allocate a naturally aligned 2 MiB guest block (guest THP data).
    ///
    /// # Errors
    ///
    /// Propagates guest allocator exhaustion.
    pub fn alloc_guest_huge(
        &mut self,
        pm: &mut PhysMemory,
        kind: FrameKind,
    ) -> Result<Pfn, VirtError> {
        let mut cur = self.spread;
        let g = self.guest_buddy.alloc_block_spread(9, kind, &mut cur)?;
        self.spread = cur;
        self.back_and_zero(pm, g, PageSize::Size2M.base_pages())?;
        Ok(g)
    }

    /// Map extra host frames into the guest physical space at fresh gPAs
    /// — the `vm_insert_pages` path pvDMT uses to expose host-allocated
    /// gTEAs to the guest (§4.6.2). Returns the base gPA.
    ///
    /// # Errors
    ///
    /// Fails if the guest has no room or the hPT mapping fails.
    pub fn insert_host_pages(
        &mut self,
        pm: &mut PhysMemory,
        host_base: Pfn,
        frames: u64,
    ) -> Result<PhysAddr, VirtError> {
        // Extend the guest physical space upward (fresh gPAs above RAM).
        let base_gframe = self.guest_frames;
        self.guest_frames += frames;
        for i in 0..frames {
            let gpa = VirtAddr((base_gframe + i) << 12);
            self.hpt.map(
                pm,
                gpa,
                PhysAddr::from_pfn(Pfn(host_base.0 + i)),
                PageSize::Size4K,
                PteFlags::WRITABLE | PteFlags::USER,
            )?;
            self.backing.insert_page(base_gframe + i, host_base.0 + i);
        }
        Ok(PhysAddr(base_gframe << 12))
    }

    /// A [`MemoryOps`] view of guest physical memory, for building guest
    /// page tables with the ordinary radix code.
    pub fn guest_view<'a>(&'a mut self, pm: &'a mut PhysMemory) -> GuestView<'a> {
        GuestView { vm: self, pm }
    }

    /// A read-only guest-physical view (software walks / translations).
    pub fn guest_view_ref<'a>(&'a self, pm: &'a PhysMemory) -> GuestViewRef<'a> {
        GuestViewRef { vm: self, pm }
    }
}

/// Read-only guest-physical view; write and allocation operations panic.
#[derive(Debug)]
pub struct GuestViewRef<'a> {
    vm: &'a Vm,
    pm: &'a PhysMemory,
}

impl MemoryOps for GuestViewRef<'_> {
    fn read_word(&self, addr: PhysAddr) -> u64 {
        let h = self
            .vm
            .gpa_to_hpa(addr)
            .unwrap_or_else(|| panic!("unbacked guest physical address {addr}"));
        self.pm.read_word(h)
    }
    fn write_word(&mut self, _addr: PhysAddr, _value: u64) {
        unreachable!("read-only view")
    }
    fn alloc_zeroed_frame(&mut self, _kind: FrameKind) -> dmt_mem::Result<Pfn> {
        unreachable!("read-only view")
    }
    fn free_frame(&mut self, _pfn: Pfn) -> dmt_mem::Result<()> {
        unreachable!("read-only view")
    }
    fn copy_frame(&mut self, _src: Pfn, _dst: Pfn) {
        unreachable!("read-only view")
    }
}

/// Guest-physical view of memory: word accesses are redirected through
/// the backing map; frame allocation draws from the guest's own buddy.
#[derive(Debug)]
pub struct GuestView<'a> {
    vm: &'a mut Vm,
    pm: &'a mut PhysMemory,
}

impl GuestView<'_> {
    /// Allocate guest-physically contiguous frames through the view
    /// (see [`Vm::alloc_guest_contig`]).
    ///
    /// # Errors
    ///
    /// Propagates guest allocator fragmentation failures.
    pub fn alloc_contig(&mut self, frames: u64, kind: FrameKind) -> Result<Pfn, VirtError> {
        self.vm.alloc_guest_contig(self.pm, frames, kind)
    }

    fn redirect(&self, addr: PhysAddr) -> PhysAddr {
        self.vm
            .gpa_to_hpa(addr)
            .unwrap_or_else(|| panic!("unbacked guest physical address {addr}"))
    }
}

impl MemoryOps for GuestView<'_> {
    fn read_word(&self, addr: PhysAddr) -> u64 {
        self.pm.read_word(self.redirect(addr))
    }
    fn write_word(&mut self, addr: PhysAddr, value: u64) {
        let h = self.redirect(addr);
        self.pm.write_word(h, value);
    }
    fn alloc_zeroed_frame(&mut self, kind: FrameKind) -> dmt_mem::Result<Pfn> {
        let mut cur = self.vm.spread;
        let g = self.vm.guest_buddy.alloc_single_spread(kind, &mut cur)?;
        self.vm.spread = cur;
        self.vm
            .back_and_zero(self.pm, g, 1)
            .map_err(|_| dmt_mem::MemError::OutOfMemory)?;
        Ok(g)
    }
    fn free_frame(&mut self, pfn: Pfn) -> dmt_mem::Result<()> {
        self.vm.guest_buddy.free_order(pfn, 0)
    }
    fn copy_frame(&mut self, src: Pfn, dst: Pfn) {
        let s = self.redirect(PhysAddr::from_pfn(src)).pfn();
        let d = self.redirect(PhysAddr::from_pfn(dst)).pfn();
        self.pm.copy_frame(s, d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backing_is_lazy_but_consistent() {
        let mut pm = PhysMemory::new_bytes(64 << 20);
        let mut vm = Vm::new(&mut pm, 8 << 20, PageSize::Size4K).unwrap();
        // Untouched guest pages are unbacked (lazy).
        assert!(vm.gpa_to_hpa(PhysAddr(4 << 20)).is_none());
        // Allocation backs them and the hPT agrees with the map.
        let g = vm.alloc_guest_frame(&mut pm, FrameKind::Data).unwrap();
        let gpa = PhysAddr(g.0 << 12);
        let via_map = vm.gpa_to_hpa(gpa).unwrap();
        let via_pt = vm.hpt().translate(&pm, VirtAddr(gpa.raw())).unwrap().0;
        assert_eq!(via_map, via_pt);
        assert_eq!(vm.backed_chunks(), vec![(gpa, via_map, PageSize::Size4K)]);
    }

    #[test]
    fn host_tea_serves_as_hpt_leaf_tables() {
        let mut pm = PhysMemory::new_bytes(64 << 20);
        let vm = Vm::new(&mut pm, 8 << 20, PageSize::Size4K).unwrap();
        let hm = vm.host_mapping();
        for i in 0..hm.tea_frames() {
            let gpa = VirtAddr(i * (2 << 20));
            assert_eq!(
                vm.hpt().table_frame(&pm, gpa, 1),
                Some(Pfn(hm.tea_base().0 + i))
            );
        }
    }

    #[test]
    fn huge_host_backing() {
        let mut pm = PhysMemory::new_bytes(128 << 20);
        let mut vm = Vm::new(&mut pm, 16 << 20, PageSize::Size2M).unwrap();
        // Touch something in the second 2 MiB chunk to back it.
        let g = vm.alloc_guest_huge(&mut pm, FrameKind::HugeData).unwrap();
        let probe = VirtAddr((g.0 << 12) + 0x1234);
        let (hpa, size) = vm.hpt().translate(&pm, probe).unwrap();
        assert_eq!(size, PageSize::Size2M);
        assert_eq!(vm.gpa_to_hpa(PhysAddr(probe.raw())), Some(hpa));
    }

    #[test]
    fn guest_view_builds_guest_page_tables() {
        let mut pm = PhysMemory::new_bytes(64 << 20);
        let mut vm = Vm::new(&mut pm, 8 << 20, PageSize::Size4K).unwrap();
        let gpt = {
            let mut view = vm.guest_view(&mut pm);
            let mut gpt = RadixPageTable::new(&mut view, 4).unwrap();
            gpt.map(
                &mut view,
                VirtAddr(0x7f00_0000_0000),
                PhysAddr(0x30_0000),
                PageSize::Size4K,
                PteFlags::WRITABLE,
            )
            .unwrap();
            gpt
        };
        // Software translation through the view agrees.
        let view = vm.guest_view(&mut pm);
        assert_eq!(
            gpt.translate(&view, VirtAddr(0x7f00_0000_0000)),
            Some((PhysAddr(0x30_0000), PageSize::Size4K))
        );
    }

    #[test]
    fn guest_contig_is_contiguous_in_gpa_not_hpa() {
        let mut pm = PhysMemory::new_bytes(64 << 20);
        let mut vm = Vm::new(&mut pm, 8 << 20, PageSize::Size4K).unwrap();
        let g = vm.alloc_guest_contig(&mut pm, 4, FrameKind::Tea).unwrap();
        // Contiguous in guest space by construction; host backing need
        // not be (it happens to be here because backing was allocated in
        // order — the property that matters is gPA contiguity).
        for i in 1..4u64 {
            assert!(vm.gpa_to_hpa(PhysAddr((g.0 + i) << 12)).is_some());
        }
    }

    #[test]
    fn thp_backing_with_pages_above_ram_agrees_with_hpt() {
        let mut pm = PhysMemory::new_bytes(64 << 20);
        let mut vm = Vm::new(&mut pm, 8 << 20, PageSize::Size2M).unwrap();
        let g = vm.alloc_guest_huge(&mut pm, FrameKind::HugeData).unwrap();
        let host = pm.alloc_contig(3, FrameKind::Tea).unwrap();
        let above = vm.insert_host_pages(&mut pm, host, 3).unwrap();
        assert_eq!(above, PhysAddr(8 << 20), "appended above guest RAM");
        let frames = (g.0..g.0 + 512).chain(above.pfn().0..above.pfn().0 + 3);
        for f in frames {
            let gpa = PhysAddr((f << 12) + 0x18);
            let via_pt = vm.hpt().translate(&pm, VirtAddr(gpa.raw())).unwrap().0;
            assert_eq!(vm.gpa_to_hpa(gpa), Some(via_pt), "gframe {f:#x}");
        }
        // One 2 MiB piece for the chunk, then the inserted run at 4 KiB.
        let head_hpa = vm.gpa_to_hpa(PhysAddr(g.0 << 12)).unwrap();
        let mut want = vec![(PhysAddr(g.0 << 12), head_hpa, PageSize::Size2M)];
        want.extend((0..3).map(|i| {
            (above + (i << 12), PhysAddr((host.0 + i) << 12), PageSize::Size4K)
        }));
        assert_eq!(vm.backed_chunks(), want);
        // Guest RAM outside the chunk stays unbacked.
        let other = if g.0 == 0 { 512 } else { 0 };
        assert!(vm.gpa_to_hpa(PhysAddr(other << 12)).is_none());
    }

    #[test]
    fn insert_host_pages_extends_guest_space() {
        let mut pm = PhysMemory::new_bytes(64 << 20);
        let mut vm = Vm::new(&mut pm, 4 << 20, PageSize::Size4K).unwrap();
        let host = pm.alloc_contig(4, FrameKind::Tea).unwrap();
        let gpa = vm.insert_host_pages(&mut pm, host, 4).unwrap();
        assert_eq!(gpa, PhysAddr(4 << 20), "appended above guest RAM");
        assert_eq!(
            vm.gpa_to_hpa(gpa + 4096),
            Some(PhysAddr((host.0 + 1) << 12))
        );
        // The hPT also knows the new range (hardware walks reach it).
        assert_eq!(
            vm.hpt().translate(&pm, VirtAddr(gpa.raw())).unwrap().0,
            PhysAddr(host.0 << 12)
        );
    }
}
