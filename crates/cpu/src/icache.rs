//! The instruction cache (Table 1: 32 KB, 4-way, 32-byte lines).
//!
//! Trace PCs are synthetic *(module, site)* identifiers rather than laid
//! out code, so instruction fetch is modeled by mapping each static site
//! to a 16-byte code block in a dedicated address region: sites of the
//! same module pack into shared cache lines, like the basic blocks of one
//! compiled function. Misses stall the front end for the L2 round trip.
//!
//! With the workloads' few hundred static sites the steady-state is
//! nearly all hits — instruction fetch is not where database transactions
//! spend their time — but cold misses and post-violation refills are
//! modeled, completing the Table 1 machine.

use tls_trace::Pc;

/// Bytes of "code" each static site occupies.
const BYTES_PER_SITE: u64 = 16;
/// Line size (matches the data hierarchy).
const LINE_BYTES: u64 = 32;

/// A set-associative instruction cache over synthesized code addresses.
#[derive(Debug, Clone)]
pub struct ICache {
    /// `tags[set * ways + way]` = line tag + 1 (0 = invalid).
    tags: Vec<u64>,
    /// LRU stamps parallel to `tags`.
    stamps: Vec<u64>,
    sets: usize,
    ways: usize,
    tick: u64,
    last_line: u64,
    accesses: u64,
    misses: u64,
}

impl ICache {
    /// An instruction cache of `size_bytes` with `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics unless the resulting set count is a nonzero power of two.
    pub fn new(size_bytes: usize, ways: usize) -> Self {
        let sets = size_bytes / (ways * LINE_BYTES as usize);
        assert!(sets > 0 && sets.is_power_of_two(), "icache sets must be a power of two");
        ICache {
            tags: vec![0; sets * ways],
            stamps: vec![0; sets * ways],
            sets,
            ways,
            tick: 0,
            last_line: u64::MAX,
            accesses: 0,
            misses: 0,
        }
    }

    fn line_of(pc: Pc) -> u64 {
        (pc.0 as u64 * BYTES_PER_SITE) / LINE_BYTES
    }

    /// Fetches the instruction at `pc`. Returns true if the fetch hit
    /// (or stayed within the currently-streaming line).
    #[inline]
    pub fn fetch(&mut self, pc: Pc) -> bool {
        let line = Self::line_of(pc);
        if line == self.last_line {
            return true; // same line as the previous fetch: streamed
        }
        self.last_line = line;
        self.accesses += 1;
        self.tick += 1;
        let set = (line as usize) & (self.sets - 1);
        let base = set * self.ways;
        let tag = line + 1;
        for w in 0..self.ways {
            if self.tags[base + w] == tag {
                self.stamps[base + w] = self.tick;
                return true;
            }
        }
        // Miss: fill over the LRU way.
        self.misses += 1;
        let lru = (0..self.ways).min_by_key(|&w| self.stamps[base + w]).expect("ways > 0");
        self.tags[base + lru] = tag;
        self.stamps[base + lru] = self.tick;
        false
    }

    /// Forgets the streaming state (pipeline flush / thread switch).
    pub fn redirect(&mut self) {
        self.last_line = u64::MAX;
    }

    /// Line-granular fetches issued (excluding same-line streaming).
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Fetch misses.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_misses_then_hits() {
        let mut c = ICache::new(32 * 1024, 4);
        let pc = Pc::new(1, 0);
        assert!(!c.fetch(pc));
        c.redirect();
        assert!(c.fetch(pc));
    }

    #[test]
    fn same_line_streaming_is_free() {
        let mut c = ICache::new(32 * 1024, 4);
        // Sites 0 and 1 of a module share a 32-byte line (16 B each).
        assert!(!c.fetch(Pc::new(1, 0)));
        assert!(c.fetch(Pc::new(1, 1)));
        assert_eq!(c.accesses(), 1, "streaming fetches are not re-probed");
    }

    #[test]
    fn distinct_modules_use_distinct_lines() {
        let mut c = ICache::new(32 * 1024, 4);
        assert!(!c.fetch(Pc::new(1, 0)));
        assert!(!c.fetch(Pc::new(2, 0)));
        c.redirect();
        assert!(c.fetch(Pc::new(1, 0)));
    }

    #[test]
    fn conflict_misses_evict_lru() {
        let mut c = ICache::new(4 * 32 * 4, 4); // 4 sets, 4 ways
                                                // Five lines mapping to the same set (stride = sets * line).
        let stride_sites = (4 * LINE_BYTES / BYTES_PER_SITE) as u16;
        for i in 0..5u16 {
            let _ = c.fetch(Pc::new(0, i * stride_sites));
        }
        c.redirect();
        // The oldest is gone, the newest four are resident.
        assert!(!c.fetch(Pc::new(0, 0)));
        c.redirect();
        assert!(c.fetch(Pc::new(0, 4 * stride_sites)));
    }

    #[test]
    fn miss_ratio_settles_for_small_footprints() {
        let mut c = ICache::new(32 * 1024, 4);
        for round in 0..10 {
            for site in 0..100u16 {
                let hit = c.fetch(Pc::new(3, site * 2));
                if round > 0 {
                    assert!(hit, "steady state must hit (site {site})");
                }
            }
            c.redirect();
        }
    }
}
