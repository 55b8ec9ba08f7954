//! Functional-unit issue ports.
//!
//! Each port accepts one new operation per cycle (fully pipelined). The
//! long dividers are the exception: an integer or FP divide occupies its
//! port for its whole latency, matching the unpipelined divide units of
//! the R10000 the paper models.

/// A group of identical, pipelined issue ports.
#[derive(Debug, Clone)]
pub struct FuPorts {
    next_free: Vec<u64>,
    booked: u64,
}

impl FuPorts {
    /// `n` ports, all free at cycle 0.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "need at least one port");
        FuPorts { next_free: vec![0; n], booked: 0 }
    }

    /// Books the earliest-available port for an op that is ready at
    /// `ready` and occupies the port for `occupancy` cycles. Returns the
    /// cycle execution starts.
    #[inline]
    pub fn book(&mut self, ready: u64, occupancy: u64) -> u64 {
        let port =
            self.next_free.iter_mut().min_by_key(|c| **c).expect("port group is never empty");
        let start = ready.max(*port);
        *port = start + occupancy.max(1);
        self.booked += 1;
        start
    }

    /// Total operations booked.
    pub fn booked(&self) -> u64 {
        self.booked
    }

    /// Releases all ports (pipeline flush).
    pub fn flush(&mut self) {
        self.next_free.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipelined_port_accepts_one_per_cycle() {
        let mut p = FuPorts::new(1);
        assert_eq!(p.book(10, 1), 10);
        assert_eq!(p.book(10, 1), 11);
        assert_eq!(p.book(10, 1), 12);
    }

    #[test]
    fn two_ports_double_throughput() {
        let mut p = FuPorts::new(2);
        assert_eq!(p.book(5, 1), 5);
        assert_eq!(p.book(5, 1), 5);
        assert_eq!(p.book(5, 1), 6);
    }

    #[test]
    fn unpipelined_occupancy_blocks_the_port() {
        let mut p = FuPorts::new(1);
        assert_eq!(p.book(0, 76), 0); // integer divide
        assert_eq!(p.book(1, 1), 76);
    }

    #[test]
    fn flush_frees_ports() {
        let mut p = FuPorts::new(1);
        p.book(0, 100);
        p.flush();
        assert_eq!(p.book(0, 1), 0);
    }
}
