//! Programs, regions and epochs.

use crate::stats::TraceStats;
use crate::TraceOp;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The position of an epoch in the original sequential execution.
///
/// Epoch ids are assigned globally across the whole program (sequential
/// regions count as single-epoch regions), so `EpochId` order *is* logical
/// (commit) order: an epoch may only violate a dependence of a
/// strictly-earlier epoch.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct EpochId(pub u32);

impl fmt::Display for EpochId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// One speculative thread: the dynamic instructions of one iteration of a
/// parallelized loop.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Epoch {
    /// The recorded dynamic instructions, in program order.
    pub ops: Vec<TraceOp>,
}

impl Epoch {
    /// An epoch with the given ops.
    pub fn new(ops: Vec<TraceOp>) -> Self {
        Epoch { ops }
    }

    /// Number of dynamic instructions.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if the epoch records no instructions.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// A maximal single-mode section of the program.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Region {
    /// Code outside any parallelized loop; runs non-speculatively on one
    /// CPU while the others idle (this is where TLS coverage is lost).
    Sequential(Epoch),
    /// A parallelized loop: each epoch is one iteration, in iteration
    /// order.
    Parallel(Vec<Epoch>),
}

impl Region {
    /// Total dynamic instructions in the region.
    pub fn ops(&self) -> usize {
        match self {
            Region::Sequential(e) => e.len(),
            Region::Parallel(es) => es.iter().map(Epoch::len).sum(),
        }
    }

    /// Number of epochs (1 for sequential regions).
    pub fn epochs(&self) -> usize {
        match self {
            Region::Sequential(_) => 1,
            Region::Parallel(es) => es.len(),
        }
    }
}

/// A complete recorded execution: the input to the CMP simulator.
///
/// ```
/// use tls_trace::{ProgramBuilder, OpSink, Pc};
/// let mut b = ProgramBuilder::new("tiny");
/// b.int_ops(Pc::new(0, 0), 3);
/// let p = b.finish();
/// assert_eq!(p.name, "tiny");
/// assert_eq!(p.total_ops(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceProgram {
    /// Human-readable benchmark name (e.g. `"new_order"`).
    pub name: String,
    /// The regions, in execution order.
    pub regions: Vec<Region>,
}

impl TraceProgram {
    /// A program with the given name and regions. Empty regions are kept;
    /// they simply contribute nothing.
    pub fn new(name: impl Into<String>, regions: Vec<Region>) -> Self {
        TraceProgram { name: name.into(), regions }
    }

    /// Total dynamic instructions across all regions.
    pub fn total_ops(&self) -> usize {
        self.regions.iter().map(Region::ops).sum()
    }

    /// Computes the Table-2 style static statistics of this program.
    pub fn stats(&self) -> TraceStats {
        TraceStats::of(self)
    }

    /// Counts the parallel epochs attributed to `module` — epochs whose
    /// first op's PC carries that module — and their total dynamic
    /// instructions. The simulator uses this with
    /// [`SCAN_LOOP_MODULE`](crate::SCAN_LOOP_MODULE) to report scan-loop
    /// epoch accounting separately from the rest of the program.
    pub fn epochs_of_module(&self, module: u16) -> (u64, u64) {
        let mut epochs = 0u64;
        let mut ops = 0u64;
        for r in &self.regions {
            if let Region::Parallel(es) = r {
                for e in es {
                    if e.ops.first().is_some_and(|o| o.pc().module() == module) {
                        epochs += 1;
                        ops += e.len() as u64;
                    }
                }
            }
        }
        (epochs, ops)
    }

    /// A borrowed [`ProgramView`](crate::ProgramView) of this program —
    /// the form the simulator consumes, shared with the harness store's
    /// memory-mapped traces.
    pub fn view(&self) -> crate::ProgramView<'_> {
        crate::ProgramView {
            name: &self.name,
            regions: self
                .regions
                .iter()
                .map(|r| match r {
                    Region::Sequential(e) => crate::RegionView::Sequential(e.ops.as_slice()),
                    Region::Parallel(es) => {
                        crate::RegionView::Parallel(es.iter().map(|e| e.ops.as_slice()).collect())
                    }
                })
                .collect(),
        }
    }

    /// Iterates over all ops in sequential execution order (useful for
    /// building reference memory images and for tests).
    pub fn iter_ops(&self) -> impl Iterator<Item = &TraceOp> + '_ {
        self.regions
            .iter()
            .flat_map(|r| match r {
                Region::Sequential(e) => std::slice::from_ref(e).iter(),
                Region::Parallel(es) => es.as_slice().iter(),
            })
            .flat_map(|e| e.ops.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Addr, Pc};

    fn ops(n: usize) -> Vec<TraceOp> {
        (0..n).map(|i| TraceOp::load(Pc::new(0, i as u16), Addr(i as u64 * 8), 8)).collect()
    }

    #[test]
    fn region_counts() {
        let seq = Region::Sequential(Epoch::new(ops(5)));
        assert_eq!(seq.ops(), 5);
        assert_eq!(seq.epochs(), 1);
        let par = Region::Parallel(vec![Epoch::new(ops(3)), Epoch::new(ops(4))]);
        assert_eq!(par.ops(), 7);
        assert_eq!(par.epochs(), 2);
    }

    #[test]
    fn program_totals_and_iter() {
        let p = TraceProgram::new(
            "t",
            vec![
                Region::Sequential(Epoch::new(ops(2))),
                Region::Parallel(vec![Epoch::new(ops(3)), Epoch::new(ops(1))]),
            ],
        );
        assert_eq!(p.total_ops(), 6);
        assert_eq!(p.iter_ops().count(), 6);
    }

    #[test]
    fn epoch_id_orders_by_position() {
        assert!(EpochId(3) < EpochId(10));
        assert_eq!(format!("{}", EpochId(4)), "e4");
    }

    #[test]
    fn empty_epoch() {
        let e = Epoch::default();
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
    }
}
