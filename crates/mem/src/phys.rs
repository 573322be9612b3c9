//! Word-addressable physical memory built on the buddy allocator.
//!
//! Page tables, TEAs and hash-based page tables (ECPT) all live *in*
//! simulated physical memory: every PTE has a real physical address, which
//! is what lets the cache hierarchy decide whether a given PTE fetch hits
//! in L2, LLC, or goes to DRAM. [`PhysMemory`] provides 8-byte word
//! reads/writes keyed by [`PhysAddr`] with lazily materialized frame
//! contents (frames that never hold translation data cost nothing).

use crate::addr::{Pfn, PhysAddr, ENTRIES_PER_TABLE, PAGE_SHIFT};
use crate::buddy::{BuddyAllocator, FrameKind};
use crate::hash::FastMap;
use crate::Result;

/// Word-level access plus frame allocation: the interface page tables are
/// built against.
///
/// [`PhysMemory`] implements it directly (host physical memory); the
/// virtualization layer implements it for guest-physical views, so the
/// same radix page-table code can build guest page tables whose
/// storage is transparently redirected through the host mapping.
pub trait MemoryOps {
    /// Read the 8-byte word at `addr` (must be 8-byte aligned).
    fn read_word(&self, addr: PhysAddr) -> u64;
    /// Write the 8-byte word at `addr` (must be 8-byte aligned).
    fn write_word(&mut self, addr: PhysAddr, value: u64);
    /// Read the word at `addr` and, if the closure returns a new value,
    /// write it back. Implementations may fuse the two into a single
    /// page lookup; the provided default composes [`MemoryOps::read_word`]
    /// and [`MemoryOps::write_word`]. Returns the value read.
    fn rmw_word(&mut self, addr: PhysAddr, f: impl FnOnce(u64) -> Option<u64>) -> u64
    where
        Self: Sized,
    {
        let old = self.read_word(addr);
        if let Some(new) = f(old) {
            self.write_word(addr, new);
        }
        old
    }
    /// Allocate one zeroed frame for the given purpose.
    ///
    /// # Errors
    ///
    /// Returns an allocator error when memory is exhausted.
    fn alloc_zeroed_frame(&mut self, kind: FrameKind) -> Result<Pfn>;
    /// Free one frame.
    ///
    /// # Errors
    ///
    /// Returns an allocator error on invalid frees.
    fn free_frame(&mut self, pfn: Pfn) -> Result<()>;
    /// Copy a frame's full contents.
    fn copy_frame(&mut self, src: Pfn, dst: Pfn);
}

impl MemoryOps for PhysMemory {
    fn read_word(&self, addr: PhysAddr) -> u64 {
        PhysMemory::read_word(self, addr)
    }
    fn write_word(&mut self, addr: PhysAddr, value: u64) {
        PhysMemory::write_word(self, addr, value)
    }
    fn rmw_word(&mut self, addr: PhysAddr, f: impl FnOnce(u64) -> Option<u64>) -> u64 {
        PhysMemory::rmw_word(self, addr, f)
    }
    fn alloc_zeroed_frame(&mut self, kind: FrameKind) -> Result<Pfn> {
        PhysMemory::alloc_zeroed_frame(self, kind)
    }
    fn free_frame(&mut self, pfn: Pfn) -> Result<()> {
        PhysMemory::free_frame(self, pfn)
    }
    fn copy_frame(&mut self, src: Pfn, dst: Pfn) {
        PhysMemory::copy_frame(self, src, dst)
    }
}

/// Physical memory: a buddy allocator plus sparse 8-byte-word contents.
///
/// # Examples
///
/// ```
/// use dmt_mem::phys::PhysMemory;
/// use dmt_mem::buddy::FrameKind;
/// use dmt_mem::addr::PhysAddr;
/// # fn main() -> Result<(), dmt_mem::MemError> {
/// let mut pm = PhysMemory::new_frames(1024);
/// let frame = pm.alloc_frame(FrameKind::PageTable)?;
/// let slot = PhysAddr::from_pfn(frame) + 8 * 42;
/// pm.write_word(slot, 0xdead_beef);
/// assert_eq!(pm.read_word(slot), 0xdead_beef);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PhysMemory {
    buddy: BuddyAllocator,
    /// pfn -> 512 words of frame content, materialized on first write.
    words: FastMap<u64, Box<[u64; ENTRIES_PER_TABLE as usize]>>,
}

impl PhysMemory {
    /// Create physical memory with the given number of 4 KiB frames.
    pub fn new_frames(frames: u64) -> Self {
        PhysMemory {
            buddy: BuddyAllocator::new(frames),
            words: FastMap::default(),
        }
    }

    /// Create physical memory of the given byte size (rounded down to
    /// frames).
    pub fn new_bytes(bytes: u64) -> Self {
        Self::new_frames(bytes >> PAGE_SHIFT)
    }

    /// The underlying buddy allocator.
    pub fn buddy(&self) -> &BuddyAllocator {
        &self.buddy
    }

    /// Mutable access to the underlying buddy allocator.
    pub fn buddy_mut(&mut self) -> &mut BuddyAllocator {
        &mut self.buddy
    }

    /// Allocate one frame.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::MemError::OutOfMemory`].
    pub fn alloc_frame(&mut self, kind: FrameKind) -> Result<Pfn> {
        self.buddy.alloc_order(0, kind)
    }

    /// Allocate a zeroed frame (used for fresh page-table pages).
    ///
    /// # Errors
    ///
    /// Propagates [`crate::MemError::OutOfMemory`].
    pub fn alloc_zeroed_frame(&mut self, kind: FrameKind) -> Result<Pfn> {
        let pfn = self.buddy.alloc_order(0, kind)?;
        self.words.remove(&pfn.0);
        Ok(pfn)
    }

    /// Allocate `n` contiguous frames (the `alloc_contig_pages` analog).
    ///
    /// # Errors
    ///
    /// Propagates [`crate::MemError::NoContiguousRun`].
    pub fn alloc_contig(&mut self, n: u64, kind: FrameKind) -> Result<Pfn> {
        self.buddy.alloc_contig(n, kind)
    }

    /// Free one frame, dropping its contents.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::MemError::InvalidFree`].
    pub fn free_frame(&mut self, pfn: Pfn) -> Result<()> {
        self.buddy.free_order(pfn, 0)?;
        self.words.remove(&pfn.0);
        Ok(())
    }

    /// Free `n` contiguous frames, dropping their contents.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::MemError::InvalidFree`].
    pub fn free_contig(&mut self, pfn: Pfn, n: u64) -> Result<()> {
        self.buddy.free_contig(pfn, n)?;
        for f in pfn.0..pfn.0 + n {
            self.words.remove(&f);
        }
        Ok(())
    }

    /// Read the 8-byte word at a physical address (must be 8-byte aligned).
    ///
    /// Unwritten words read as zero, like freshly zeroed memory.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 8-byte aligned.
    pub fn read_word(&self, addr: PhysAddr) -> u64 {
        assert_eq!(addr.0 % 8, 0, "unaligned word read at {addr}");
        let pfn = addr.pfn().0;
        let idx = (addr.page_offset() / 8) as usize;
        self.words.get(&pfn).map_or(0, |w| w[idx])
    }

    /// Write the 8-byte word at a physical address (must be 8-byte aligned).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 8-byte aligned.
    pub fn write_word(&mut self, addr: PhysAddr, value: u64) {
        assert_eq!(addr.0 % 8, 0, "unaligned word write at {addr}");
        let pfn = addr.pfn().0;
        let idx = (addr.page_offset() / 8) as usize;
        self.words
            .entry(pfn)
            .or_insert_with(|| Box::new([0u64; ENTRIES_PER_TABLE as usize]))[idx] = value;
    }

    /// Fused read-modify-write: one page lookup serves both the read
    /// and (when the closure asks for it) the write-back — half the
    /// hashing of a `read_word` + `write_word` pair on the same slot.
    /// Returns the value read; unwritten words read as zero.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 8-byte aligned.
    pub fn rmw_word(&mut self, addr: PhysAddr, f: impl FnOnce(u64) -> Option<u64>) -> u64 {
        assert_eq!(addr.0 % 8, 0, "unaligned word rmw at {addr}");
        let pfn = addr.pfn().0;
        let idx = (addr.page_offset() / 8) as usize;
        match self.words.get_mut(&pfn) {
            Some(w) => {
                let old = w[idx];
                if let Some(new) = f(old) {
                    w[idx] = new;
                }
                old
            }
            None => {
                if let Some(new) = f(0) {
                    self.words
                        .entry(pfn)
                        .or_insert_with(|| Box::new([0u64; ENTRIES_PER_TABLE as usize]))[idx] = new;
                }
                0
            }
        }
    }

    /// Zero a frame's contents (e.g. when recycling a guest frame whose
    /// backing host frame stays allocated).
    pub fn zero_frame(&mut self, pfn: Pfn) {
        self.words.remove(&pfn.0);
    }

    /// Copy the full contents of one frame to another (TEA migration,
    /// compaction).
    pub fn copy_frame(&mut self, src: Pfn, dst: Pfn) {
        match self.words.get(&src.0).cloned() {
            Some(content) => {
                self.words.insert(dst.0, content);
            }
            None => {
                self.words.remove(&dst.0);
            }
        }
    }

    /// Bytes of physical memory currently allocated for the given kind.
    pub fn bytes_of_kind(&self, kind: FrameKind) -> u64 {
        self.buddy.allocated_of_kind(kind) << PAGE_SHIFT
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PhysAddr;

    #[test]
    fn words_default_to_zero() {
        let mut pm = PhysMemory::new_frames(16);
        let f = pm.alloc_frame(FrameKind::PageTable).unwrap();
        assert_eq!(pm.read_word(PhysAddr::from_pfn(f)), 0);
    }

    #[test]
    fn read_back_what_was_written() {
        let mut pm = PhysMemory::new_frames(16);
        let f = pm.alloc_frame(FrameKind::PageTable).unwrap();
        let base = PhysAddr::from_pfn(f);
        for i in 0..512u64 {
            pm.write_word(base + i * 8, i * 3);
        }
        for i in 0..512u64 {
            assert_eq!(pm.read_word(base + i * 8), i * 3);
        }
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_read_panics() {
        let pm = PhysMemory::new_frames(16);
        pm.read_word(PhysAddr(4));
    }

    #[test]
    fn freeing_drops_contents() {
        let mut pm = PhysMemory::new_frames(16);
        let f = pm.alloc_frame(FrameKind::PageTable).unwrap();
        let base = PhysAddr::from_pfn(f);
        pm.write_word(base, 99);
        pm.free_frame(f).unwrap();
        let f2 = pm.alloc_frame(FrameKind::PageTable).unwrap();
        // The recycled frame must read as zero.
        assert_eq!(pm.read_word(PhysAddr::from_pfn(f2)), 0);
    }

    #[test]
    fn copy_frame_duplicates_contents() {
        let mut pm = PhysMemory::new_frames(16);
        let a = pm.alloc_frame(FrameKind::Tea).unwrap();
        let b = pm.alloc_frame(FrameKind::Tea).unwrap();
        pm.write_word(PhysAddr::from_pfn(a) + 16, 7);
        pm.copy_frame(a, b);
        assert_eq!(pm.read_word(PhysAddr::from_pfn(b) + 16), 7);
        // Copying an empty frame clears the destination.
        let c = pm.alloc_frame(FrameKind::Tea).unwrap();
        pm.copy_frame(c, b);
        assert_eq!(pm.read_word(PhysAddr::from_pfn(b) + 16), 0);
    }

    #[test]
    fn kind_byte_accounting() {
        let mut pm = PhysMemory::new_bytes(1 << 20); // 256 frames
        pm.alloc_contig(10, FrameKind::Tea).unwrap();
        pm.alloc_frame(FrameKind::PageTable).unwrap();
        assert_eq!(pm.bytes_of_kind(FrameKind::Tea), 10 * 4096);
        assert_eq!(pm.bytes_of_kind(FrameKind::PageTable), 4096);
    }
}
