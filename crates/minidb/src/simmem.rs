//! The simulated flat memory image.
//!
//! All engine data lives in one growable byte array addressed by
//! [`Addr`]. Access goes through [`Env`](crate::Env), which records trace
//! ops; this module is the raw, unrecorded storage (also used by the
//! loader, which populates the database without recording).

use tls_trace::Addr;

/// A growable, byte-addressed memory image with a bump allocator.
///
/// Addresses start at 64 so that 0 can serve as a null page id / null
/// pointer in on-"disk" structures.
///
/// The image reserves 64 MiB of capacity (`RESERVE`) on its first
/// allocation: only the pages it has written are resident, and it never
/// moves while it grows within the reservation. A clone keeps the
/// reservation.
#[derive(Debug)]
pub struct SimMemory {
    data: Vec<u8>,
    brk: u64,
}

const BASE: u64 = 64;

/// Capacity an image reserves on its first allocation: 64 MiB, above the
/// 32 MiB ceiling of glibc's dynamic mmap threshold, so the allocator
/// always serves it with a fresh anonymous mapping and unmaps it on drop.
/// An image that grew by doubling inside a worker thread's malloc arena
/// would leave freed multi-megabyte blocks there, and how much of them
/// stays resident depends on which thread recorded which trace: peak RSS
/// would vary by several MB between identical runs. Images larger than
/// the reservation (paper-scale TPC-C, ~92 MB) double from it.
const RESERVE: usize = 64 << 20;

impl SimMemory {
    /// An empty memory image.
    pub fn new() -> Self {
        SimMemory { data: Vec::new(), brk: BASE }
    }

    /// Allocates `size` bytes aligned to `align` (a power of two).
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two.
    pub fn alloc(&mut self, size: u64, align: u64) -> Addr {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let addr = (self.brk + align - 1) & !(align - 1);
        self.brk = addr + size;
        self.ensure(self.brk);
        Addr(addr)
    }

    fn ensure(&mut self, end: u64) {
        if (self.data.len() as u64) < end {
            if self.data.capacity() == 0 {
                self.data.reserve_exact(RESERVE);
            }
            self.data.resize(end as usize, 0);
        }
    }

    /// Bytes allocated so far.
    pub fn allocated(&self) -> u64 {
        self.brk - BASE
    }

    /// Extends the image so addresses below `end` are valid — used by
    /// recovery, which rebuilds a memory image from a disk snapshot at
    /// the original addresses instead of re-running the allocator.
    pub fn grow(&mut self, end: u64) {
        self.brk = self.brk.max(end);
        self.ensure(self.brk);
    }

    /// Diagnosable bounds check shared by [`Self::bytes`] and
    /// [`Self::write_bytes`]: chaos failures (a faulted pointer chased
    /// off a corrupt page) must name the access, not die in a bare
    /// slice index.
    #[track_caller]
    fn check_range(&self, what: &str, addr: Addr, len: usize) {
        let end = (addr.0 as usize).saturating_add(len);
        if addr.0 < BASE || end > self.data.len() {
            panic!(
                "simulated memory {what} out of range: addr {:#x} len {} \
                 (allocated {:#x}..{:#x}, {} bytes)",
                addr.0,
                len,
                BASE,
                self.brk,
                self.allocated()
            );
        }
    }

    /// Reads `N` bytes at `addr` (little-endian helpers below build on
    /// this).
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds access — the engine never reads memory it
    /// did not allocate — naming the address, length and allocated
    /// extent.
    #[track_caller]
    pub fn bytes(&self, addr: Addr, len: usize) -> &[u8] {
        self.check_range("read", addr, len);
        let start = addr.0 as usize;
        &self.data[start..start + len]
    }

    /// Writes `src` at `addr`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds access, naming the address, length and
    /// allocated extent.
    #[track_caller]
    pub fn write_bytes(&mut self, addr: Addr, src: &[u8]) {
        self.check_range("write", addr, src.len());
        let start = addr.0 as usize;
        self.data[start..start + src.len()].copy_from_slice(src);
    }

    /// Reads a little-endian u64.
    pub fn peek_u64(&self, addr: Addr) -> u64 {
        u64::from_le_bytes(self.bytes(addr, 8).try_into().expect("8 bytes"))
    }

    /// Writes a little-endian u64.
    pub fn poke_u64(&mut self, addr: Addr, v: u64) {
        self.write_bytes(addr, &v.to_le_bytes());
    }

    /// Reads a little-endian u32.
    pub fn peek_u32(&self, addr: Addr) -> u32 {
        u32::from_le_bytes(self.bytes(addr, 4).try_into().expect("4 bytes"))
    }

    /// Writes a little-endian u32.
    pub fn poke_u32(&mut self, addr: Addr, v: u32) {
        self.write_bytes(addr, &v.to_le_bytes());
    }

    /// Reads a little-endian u16.
    pub fn peek_u16(&self, addr: Addr) -> u16 {
        u16::from_le_bytes(self.bytes(addr, 2).try_into().expect("2 bytes"))
    }

    /// Writes a little-endian u16.
    pub fn poke_u16(&mut self, addr: Addr, v: u16) {
        self.write_bytes(addr, &v.to_le_bytes());
    }
}

impl Clone for SimMemory {
    /// Copies the image into a fresh reservation of `max(RESERVE, len)`
    /// bytes, so a clone is served by its own mapping like the original
    /// (a derived clone would allocate exactly `len` bytes, in the
    /// cloning thread's malloc arena).
    fn clone(&self) -> Self {
        let mut data = Vec::new();
        if !self.data.is_empty() {
            data.reserve_exact(RESERVE.max(self.data.len()));
            data.extend_from_slice(&self.data);
        }
        SimMemory { data, brk: self.brk }
    }
}

impl Default for SimMemory {
    fn default() -> Self {
        SimMemory::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_respects_alignment() {
        let mut m = SimMemory::new();
        let a = m.alloc(10, 8);
        assert_eq!(a.0 % 8, 0);
        let b = m.alloc(10, 64);
        assert_eq!(b.0 % 64, 0);
        assert!(b.0 >= a.0 + 10);
    }

    #[test]
    fn null_address_is_never_allocated() {
        let mut m = SimMemory::new();
        let a = m.alloc(1, 1);
        assert!(a.0 >= 64);
    }

    #[test]
    fn scalar_round_trips() {
        let mut m = SimMemory::new();
        let a = m.alloc(32, 8);
        m.poke_u64(a, 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(m.peek_u64(a), 0xDEAD_BEEF_CAFE_F00D);
        m.poke_u32(a.offset(8), 42);
        assert_eq!(m.peek_u32(a.offset(8)), 42);
        m.poke_u16(a.offset(12), 7);
        assert_eq!(m.peek_u16(a.offset(12)), 7);
        // Independent slots do not clobber each other.
        assert_eq!(m.peek_u64(a), 0xDEAD_BEEF_CAFE_F00D);
    }

    #[test]
    fn byte_slices_round_trip() {
        let mut m = SimMemory::new();
        let a = m.alloc(16, 1);
        m.write_bytes(a, b"hello world!");
        assert_eq!(m.bytes(a, 12), b"hello world!");
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_read_panics() {
        let m = SimMemory::new();
        let _ = m.peek_u64(Addr(1 << 40));
    }

    #[test]
    #[should_panic(expected = "read out of range: addr 0x10000000000 len 8")]
    fn out_of_bounds_read_names_the_access() {
        let m = SimMemory::new();
        let _ = m.peek_u64(Addr(1 << 40));
    }

    #[test]
    #[should_panic(expected = "write out of range")]
    fn out_of_bounds_write_names_the_access() {
        let mut m = SimMemory::new();
        m.alloc(16, 8);
        m.write_bytes(Addr(80), &[0u8; 16]);
    }

    #[test]
    fn oob_panic_reports_the_allocated_extent() {
        let mut m = SimMemory::new();
        m.alloc(100, 8);
        let err = std::panic::catch_unwind(|| {
            let _ = m.bytes(Addr(200), 8);
        })
        .expect_err("must panic");
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("allocated 0x40..0xa4"), "{msg}");
        assert!(msg.contains("100 bytes"), "{msg}");
    }

    #[test]
    fn clones_keep_the_reservation_and_the_bytes() {
        let mut m = SimMemory::new();
        let a = m.alloc(100, 8);
        m.write_bytes(a, b"image");
        let c = m.clone();
        assert_eq!(c.data.capacity(), RESERVE);
        assert_eq!(c.data, m.data);
        assert_eq!(c.allocated(), m.allocated());

        // An empty image reserves nothing until its first allocation.
        assert_eq!(SimMemory::new().clone().data.capacity(), 0);
    }

    #[test]
    fn grow_extends_the_addressable_image() {
        let mut m = SimMemory::new();
        m.grow(4096);
        m.write_bytes(Addr(4000), b"tail");
        assert_eq!(m.bytes(Addr(4000), 4), b"tail");
        // grow never shrinks.
        m.alloc(64, 8);
        m.grow(10);
        assert!(m.allocated() >= 4096 - 64);
    }
}
