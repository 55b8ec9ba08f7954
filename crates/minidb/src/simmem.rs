//! The simulated flat memory image.
//!
//! All engine data lives in one growable byte image addressed by
//! [`Addr`]. Access goes through [`Env`](crate::Env), which records trace
//! ops; this module is the raw, unrecorded storage (also used by the
//! loader, which populates the database without recording).
//!
//! The image is copy-on-write. It is held as fixed-size chunks, and
//! [`SimMemory::fork`] shares every chunk between the image and its
//! fork at the cost of one reference count per chunk. The first write
//! to a shared chunk copies that chunk alone; later writes to it go in
//! place. This is what lets one populated TPC-C database be forked per
//! recording: a recording copies only the chunks it writes, and a write
//! to a fork never shows in its parent or its siblings. An access may
//! cross a chunk boundary, so reads copy out ([`SimMemory::read`],
//! [`SimMemory::bytes`]) instead of lending a slice of the image.

use std::ops::Range;
use std::sync::{Arc, LazyLock};
use tls_trace::Addr;

/// log2 of the chunk size. 64 KiB chunks: a paper-scale image (~92 MB)
/// is ~1400 of them, so a fork takes microseconds. Sizes from 16 KiB to
/// 1 MiB recorded the Figure-5 pairs equally fast; 64 KiB had the
/// lowest peak RSS (DESIGN §9.7).
const CHUNK_SHIFT: u32 = 16;

/// Bytes per chunk: the unit a fork shares and a write copies.
const CHUNK: usize = 1 << CHUNK_SHIFT;

type Bytes = [u8; CHUNK];

/// A shared chunk. The box stays inside the `Arc` so that sharing an
/// owned chunk moves a pointer: `Arc::from(Box)` would copy 64 KiB into
/// a new allocation.
#[allow(clippy::redundant_allocation)]
type Shared = Arc<Box<Bytes>>;

/// One chunk of an image.
#[derive(Debug)]
enum Chunk {
    /// Written only through this image: written in place, with no
    /// reference count to check.
    Own(Box<Bytes>),
    /// Shared with forks (or the zero chunk): copied on its first write.
    Shared(Shared),
}

impl Chunk {
    #[inline]
    fn bytes(&self) -> &Bytes {
        match self {
            Chunk::Own(own) => own,
            Chunk::Shared(shared) => shared,
        }
    }

    /// The chunk's bytes for writing. A shared chunk becomes owned
    /// first: moved out if no other image holds it any more, else
    /// copied.
    #[inline]
    fn bytes_mut(&mut self) -> &mut Bytes {
        if let Chunk::Shared(shared) = self {
            *self = Chunk::Own(Self::unshare(shared));
        }
        match self {
            Chunk::Own(own) => own,
            Chunk::Shared(_) => unreachable!("owned above"),
        }
    }

    #[cold]
    fn unshare(shared: &mut Shared) -> Box<Bytes> {
        Arc::unwrap_or_clone(std::mem::replace(shared, ZERO.clone()))
    }

    fn into_shared(self) -> Shared {
        match self {
            Chunk::Own(own) => Arc::new(own),
            Chunk::Shared(shared) => shared,
        }
    }
}

/// The all-zero chunk every image grows by: untouched memory is shared,
/// and the first write to it copies it like any shared chunk.
static ZERO: LazyLock<Shared> = LazyLock::new(|| {
    Arc::new(vec![0; CHUNK].into_boxed_slice().try_into().expect("one chunk of zeros"))
});

/// A growable, byte-addressed, copy-on-write memory image with a bump
/// allocator.
///
/// Addresses start at 64 so that 0 can serve as a null page id / null
/// pointer in on-"disk" structures. Addresses below the break are valid.
#[derive(Debug)]
pub struct SimMemory {
    chunks: Vec<Chunk>,
    brk: u64,
}

const BASE: u64 = 64;

/// The chunk `addr` falls in and its offset there.
#[inline]
fn split(addr: Addr) -> (usize, usize) {
    ((addr.0 >> CHUNK_SHIFT) as usize, addr.0 as usize & (CHUNK - 1))
}

/// The pieces of the access `addr..addr + len`, one per chunk it
/// touches: (chunk index, range within the chunk, range within the
/// caller's buffer).
fn pieces(addr: Addr, len: usize) -> impl Iterator<Item = (usize, Range<usize>, Range<usize>)> {
    let mut done = 0;
    std::iter::from_fn(move || {
        if done == len {
            return None;
        }
        let (chunk, off) = split(addr.offset(done as u64));
        let n = (len - done).min(CHUNK - off);
        let piece = (chunk, off..off + n, done..done + n);
        done += n;
        Some(piece)
    })
}

impl SimMemory {
    /// An empty memory image.
    pub fn new() -> Self {
        SimMemory { chunks: Vec::new(), brk: BASE }
    }

    /// A copy-on-write copy of the image: both share every chunk until
    /// either writes it.
    pub fn fork(&mut self) -> SimMemory {
        let shared: Vec<_> =
            std::mem::take(&mut self.chunks).into_iter().map(Chunk::into_shared).collect();
        self.chunks = shared.iter().cloned().map(Chunk::Shared).collect();
        SimMemory { chunks: shared.into_iter().map(Chunk::Shared).collect(), brk: self.brk }
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
        self.ensure();
        Addr(addr)
    }

    /// Adds zero chunks until the image covers every address below the
    /// break.
    fn ensure(&mut self) {
        let chunks = (self.brk as usize).div_ceil(CHUNK);
        if self.chunks.len() < chunks {
            self.chunks.resize_with(chunks, || Chunk::Shared(ZERO.clone()));
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
        self.ensure();
    }

    /// Diagnosable bounds check shared by every access: chaos failures
    /// (a faulted pointer chased off a corrupt page) must name the
    /// access, not die in a bare slice index.
    #[inline]
    #[track_caller]
    fn check_range(&self, what: &str, addr: Addr, len: usize) {
        if addr.0 < BASE || addr.0.saturating_add(len as u64) > self.brk {
            self.out_of_range(what, addr, len);
        }
    }

    #[cold]
    #[track_caller]
    fn out_of_range(&self, what: &str, addr: Addr, len: usize) -> ! {
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

    /// Reads `buf.len()` bytes at `addr` into `buf` (the little-endian
    /// helpers below build on this).
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds access — the engine never reads memory it
    /// did not allocate — naming the address, length and allocated
    /// extent.
    #[inline]
    #[track_caller]
    pub fn read(&self, addr: Addr, buf: &mut [u8]) {
        self.check_range("read", addr, buf.len());
        let (chunk, off) = split(addr);
        match self.chunks.get(chunk).and_then(|c| c.bytes().get(off..off + buf.len())) {
            Some(within) => buf.copy_from_slice(within),
            None => self.read_across(addr, buf),
        }
    }

    /// [`Self::read`] of a range that crosses a chunk boundary (or is
    /// empty).
    #[inline(never)]
    fn read_across(&self, addr: Addr, buf: &mut [u8]) {
        for (chunk, within, out) in pieces(addr, buf.len()) {
            buf[out].copy_from_slice(&self.chunks[chunk].bytes()[within]);
        }
    }

    /// A copy of the `len` bytes at `addr`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds access, as [`Self::read`] does.
    #[track_caller]
    pub fn bytes(&self, addr: Addr, len: usize) -> Vec<u8> {
        let mut out = vec![0; len];
        self.read(addr, &mut out);
        out
    }

    /// Writes `src` at `addr`, copying each chunk it touches that is
    /// shared.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds access, naming the address, length and
    /// allocated extent.
    #[inline]
    #[track_caller]
    pub fn write_bytes(&mut self, addr: Addr, src: &[u8]) {
        self.check_range("write", addr, src.len());
        let (chunk, off) = split(addr);
        match self.chunks.get_mut(chunk).and_then(|c| c.bytes_mut().get_mut(off..off + src.len())) {
            Some(within) => within.copy_from_slice(src),
            None => self.write_across(addr, src),
        }
    }

    /// [`Self::write_bytes`] of a range that crosses a chunk boundary (or
    /// is empty).
    #[inline(never)]
    fn write_across(&mut self, addr: Addr, src: &[u8]) {
        for (chunk, within, from) in pieces(addr, src.len()) {
            self.chunks[chunk].bytes_mut()[within].copy_from_slice(&src[from]);
        }
    }

    /// Copies `len` bytes from `src` to `dst`; the ranges may overlap,
    /// as in `memmove`.
    ///
    /// # Panics
    ///
    /// Panics if either range is out of bounds.
    #[track_caller]
    pub fn copy_within(&mut self, src: Addr, dst: Addr, len: u64) {
        self.check_range("read", src, len as usize);
        self.check_range("write", dst, len as usize);
        let mut buf = [0; 256];
        let step = buf.len() as u64;
        let steps = len.div_ceil(step);
        for k in 0..steps {
            // Walk away from the overlap so no byte is overwritten before
            // it is read: front to back when moving down, back to front
            // when moving up.
            let off = step * if dst.0 <= src.0 { k } else { steps - 1 - k };
            let n = (len - off).min(step) as usize;
            self.read(src.offset(off), &mut buf[..n]);
            self.write_bytes(dst.offset(off), &buf[..n]);
        }
    }

    #[inline]
    #[track_caller]
    fn peek<const N: usize>(&self, addr: Addr) -> [u8; N] {
        let mut out = [0; N];
        self.read(addr, &mut out);
        out
    }

    /// Reads a little-endian u64.
    #[inline]
    #[track_caller]
    pub fn peek_u64(&self, addr: Addr) -> u64 {
        u64::from_le_bytes(self.peek(addr))
    }

    /// Writes a little-endian u64.
    #[inline]
    #[track_caller]
    pub fn poke_u64(&mut self, addr: Addr, v: u64) {
        self.write_bytes(addr, &v.to_le_bytes());
    }

    /// Reads a little-endian u32.
    #[inline]
    #[track_caller]
    pub fn peek_u32(&self, addr: Addr) -> u32 {
        u32::from_le_bytes(self.peek(addr))
    }

    /// Writes a little-endian u32.
    #[inline]
    #[track_caller]
    pub fn poke_u32(&mut self, addr: Addr, v: u32) {
        self.write_bytes(addr, &v.to_le_bytes());
    }

    /// Reads a little-endian u16.
    #[inline]
    #[track_caller]
    pub fn peek_u16(&self, addr: Addr) -> u16 {
        u16::from_le_bytes(self.peek(addr))
    }

    /// Writes a little-endian u16.
    #[inline]
    #[track_caller]
    pub fn poke_u16(&mut self, addr: Addr, v: u16) {
        self.write_bytes(addr, &v.to_le_bytes());
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
    use proptest::prelude::*;

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
    fn accesses_cross_chunk_boundaries() {
        let mut m = SimMemory::new();
        m.grow(3 * CHUNK as u64);
        let edge = Addr(CHUNK as u64 - 3);
        m.poke_u64(edge, 0x0807_0605_0403_0201);
        assert_eq!(m.peek_u64(edge), 0x0807_0605_0403_0201);
        assert_eq!(m.bytes(Addr(CHUNK as u64), 5), [4, 5, 6, 7, 8]);
        // One write spanning a whole chunk and both its neighbours.
        let span: Vec<u8> = (0..CHUNK + 20).map(|i| i as u8).collect();
        m.write_bytes(Addr(CHUNK as u64 - 10), &span);
        assert_eq!(m.bytes(Addr(CHUNK as u64 - 10), span.len()), span);
    }

    #[test]
    fn forks_share_chunks_until_written() {
        let shared = |a: &SimMemory, b: &SimMemory| {
            let same = |(x, y): (&Chunk, &Chunk)| std::ptr::eq(x.bytes(), y.bytes());
            a.chunks.iter().zip(&b.chunks).filter(|&p| same(p)).count()
        };
        let mut m = SimMemory::new();
        m.grow(4 * CHUNK as u64);
        let at = Addr(CHUNK as u64);
        m.poke_u64(at, 1);
        let mut c = m.fork();
        assert_eq!(shared(&m, &c), 4);
        c.poke_u64(at, 2);
        assert_eq!(shared(&m, &c), 3, "a write copies the one chunk it touches");
        assert_eq!((m.peek_u64(at), c.peek_u64(at)), (1, 2));
        m.poke_u64(at.offset(8), 3);
        assert_eq!((m.peek_u64(at.offset(8)), c.peek_u64(at.offset(8))), (3, 0));
    }

    #[test]
    fn copy_within_moves_overlapping_ranges_like_memmove() {
        let mut m = SimMemory::new();
        m.grow(2 * CHUNK as u64);
        let base = CHUNK as u64 - 700;
        let data: Vec<u8> = (0..1000).map(|i| (i * 7) as u8).collect();
        for (src, dst) in [(base, base + 300), (base + 300, base), (base, base + 1000)] {
            m.write_bytes(Addr(src), &data);
            m.copy_within(Addr(src), Addr(dst), data.len() as u64);
            assert_eq!(m.bytes(Addr(dst), data.len()), data, "{src:#x} -> {dst:#x}");
        }
    }

    /// Where an access lands: anywhere in the image, or straddling one
    /// of its chunk boundaries.
    #[derive(Debug, Clone, Copy)]
    struct Place {
        edge: bool,
        pos: u32,
    }

    #[derive(Debug, Clone)]
    enum Op {
        Alloc { size: u32, align_log: u8 },
        Grow { by: u32 },
        Write { at: Place, len: u32, fill: u8 },
        Copy { from: Place, to: Place, len: u16 },
        Fork,
        Drop,
    }

    fn place() -> impl Strategy<Value = Place> {
        (any::<bool>(), any::<u32>()).prop_map(|(edge, pos)| Place { edge, pos })
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            2 => (0u32..40_000, 0u8..8).prop_map(|(size, align_log)| Op::Alloc { size, align_log }),
            1 => (0u32..(3 * CHUNK as u32)).prop_map(|by| Op::Grow { by }),
            // Lengths up to just over a chunk, so one write can span a
            // whole chunk and both its neighbours.
            6 => (place(), 1u32..(CHUNK as u32 + 600), any::<u8>())
                .prop_map(|(at, len, fill)| Op::Write { at, len, fill }),
            2 => (place(), place(), 1u16..3000).prop_map(|(from, to, len)| Op::Copy { from, to, len }),
            2 => Just(Op::Fork),
            1 => Just(Op::Drop),
        ]
    }

    /// The address of a `len`-byte access at `p` in an image whose
    /// break is `end`, if the image has room for it.
    fn resolve(p: Place, len: u64, end: u64) -> Option<u64> {
        let room = end.checked_sub(BASE + len)?;
        let boundaries = end / CHUNK as u64;
        let addr = if p.edge && boundaries > 0 {
            let boundary = (1 + p.pos as u64 % boundaries) * CHUNK as u64;
            boundary.saturating_sub(1 + (p.pos as u64 >> 8) % len.max(1))
        } else {
            BASE + p.pos as u64 % (room + 1)
        };
        Some(addr.clamp(BASE, end - len))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Copy-on-write images against flat byte-vector models: after
        /// every step each live image reads exactly as its model does, so
        /// a write to a fork never shows in its parent or its siblings.
        #[test]
        fn forked_images_match_flat_models(
            steps in proptest::collection::vec((any::<u8>(), op()), 1..40)
        ) {
            let mut live: Vec<(SimMemory, Vec<u8>)> = vec![(SimMemory::new(), vec![0; BASE as usize])];
            for (pick, op) in steps {
                let i = pick as usize % live.len();
                let (image, model) = &mut live[i];
                let end = model.len() as u64;
                match op {
                    Op::Alloc { size, align_log } => {
                        let align = 1u64 << align_log;
                        let want = end.next_multiple_of(align);
                        prop_assert_eq!(image.alloc(size as u64, align).0, want);
                        model.resize((want + size as u64) as usize, 0);
                    }
                    Op::Grow { by } => {
                        image.grow(end + by as u64);
                        model.resize((end + by as u64) as usize, 0);
                    }
                    Op::Write { at, len, fill } => {
                        if let Some(addr) = resolve(at, len as u64, end) {
                            let data: Vec<u8> =
                                (0..len).map(|k| fill.wrapping_add((k % 251) as u8)).collect();
                            image.write_bytes(Addr(addr), &data);
                            model[addr as usize..][..data.len()].copy_from_slice(&data);
                        }
                    }
                    Op::Copy { from, to, len } => {
                        let len = len as u64;
                        if let (Some(src), Some(dst)) = (resolve(from, len, end), resolve(to, len, end)) {
                            image.copy_within(Addr(src), Addr(dst), len);
                            let (src, len) = (src as usize, len as usize);
                            model.copy_within(src..src + len, dst as usize);
                        }
                    }
                    Op::Fork => {
                        let fork = (image.fork(), model.clone());
                        live.push(fork);
                    }
                    Op::Drop => {
                        if live.len() > 1 {
                            live.swap_remove(i);
                        }
                    }
                }
                for (image, model) in &live {
                    prop_assert_eq!(image.allocated() + BASE, model.len() as u64);
                    let len = model.len() - BASE as usize;
                    prop_assert!(image.bytes(Addr(BASE), len) == model[BASE as usize..]);
                }
            }
        }
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
