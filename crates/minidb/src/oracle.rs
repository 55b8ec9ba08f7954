//! The recovery oracle: a seeded, shadowed workload whose full logical
//! contents can be checked against REDO recovery at **every** crash
//! point.
//!
//! The workload runs batches of inserts, updates and deletes over two
//! B-trees through an attached [`Pager`], one mini-transaction per
//! batch, while a host-side shadow journal records the same operations
//! logically. After a simulated crash at any durable-log LSN `k`,
//! [`OracleWorkload::check_crash_point`] recovers the world from the
//! crashed disk image plus log prefix, replays the shadow journal for
//! exactly the mini-transactions whose commits survived, and diffs the
//! full recovered tree contents byte-for-byte. Because write-ahead
//! guarantees a committed full-page image precedes every disk write,
//! the oracle must come back green at every `k` under any
//! [`DiskFaultPlan`] — torn writes, lost writes and bit flips included.

use crate::pager::Pager;
use crate::{BTree, Env, PageAlloc, RecoveredWorld};
use std::collections::BTreeMap;
use tls_core::DiskFaultPlan;
use tls_trace::{Addr, Pc};

const TREE_SPECS: [(u16, u16); 2] = [(16, 0x30), (40, 0x31)]; // (value_size, module)
/// The secondary-index tree of the indexed workload: 8-byte entries
/// mapping `index_key(k)` back to `k` for every row of tree 0.
const INDEX_SPEC: (u16, u16) = (8, 0x32);
const UPDATE_PC: Pc = Pc::new(0x3F, 0);
const OPS_PER_MTR: usize = 8;
const INITIAL_ROWS: u64 = 1500;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn row(tree: usize, bits: u64) -> Vec<u8> {
    let len = TREE_SPECS[tree].0 as usize;
    bits.to_le_bytes().iter().cycle().take(len).copied().collect()
}

/// The index key of base key `k`: an odd-multiplier bijection, so index
/// order is unrelated to base order and index leaves churn independently.
fn index_key(k: u64) -> u64 {
    k.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// One logical operation of the shadow journal.
#[derive(Debug, Clone)]
enum ShadowOp {
    Insert(usize, u64, Vec<u8>),
    Update(usize, u64, Vec<u8>),
    Delete(usize, u64),
}

/// A finished oracle run: the live environment (pager attached) plus
/// everything needed to check any crash point.
pub struct OracleWorkload {
    /// The environment after the workload, pager still attached.
    pub env: Env,
    trees: Vec<BTree>,
    /// `(meta, value_size, module)` for re-opening trees in a recovered
    /// world.
    tree_meta: Vec<(Addr, u16, u16)>,
    /// Logical contents at the bootstrap checkpoint.
    initial: BTreeMap<(usize, u64), Vec<u8>>,
    /// One batch of shadow ops per mini-transaction, in commit order.
    shadow: Vec<Vec<ShadowOp>>,
}

/// Runs the shadowed workload: `mtrs` mini-transactions of seeded
/// operations over two trees, through a pool of `frames` frames whose
/// disk applies `plan`. The initial load is sized so the working set
/// comfortably exceeds small pools, forcing real eviction/flush traffic.
pub fn run_workload(
    seed: u64,
    mtrs: usize,
    frames: usize,
    plan: DiskFaultPlan,
    observe: bool,
) -> OracleWorkload {
    run_with_index(seed, mtrs, frames, plan, observe, false)
}

/// The indexed variant of [`run_workload`]: a third tree acts as a
/// secondary index over tree 0 (`index_key(k) → k`), maintained in the
/// same mini-transaction as every base insert and delete. Its entries
/// join the shadow journal, so every crash-point check diffs REDO replay
/// *including* the recovered secondary-index contents.
pub fn run_indexed_workload(
    seed: u64,
    mtrs: usize,
    frames: usize,
    plan: DiskFaultPlan,
    observe: bool,
) -> OracleWorkload {
    run_with_index(seed, mtrs, frames, plan, observe, true)
}

fn run_with_index(
    seed: u64,
    mtrs: usize,
    frames: usize,
    plan: DiskFaultPlan,
    observe: bool,
    indexed: bool,
) -> OracleWorkload {
    let mut env = Env::new();
    let alloc = PageAlloc::new(&mut env, 0x2F);
    let mut specs: Vec<(u16, u16)> = TREE_SPECS.to_vec();
    if indexed {
        specs.push(INDEX_SPEC);
    }
    let trees: Vec<BTree> =
        specs.iter().map(|&(vs, m)| BTree::create(&mut env, &alloc, vs, m)).collect();
    let tree_meta: Vec<(Addr, u16, u16)> =
        trees.iter().zip(&specs).map(|(t, &(vs, m))| (t.meta_region().0, vs, m)).collect();
    // Random operations target the base trees only; the index (when
    // present) is maintained, never targeted. Keeping the draw modulus at
    // the base count keeps the unindexed workload byte-identical to what
    // it recorded before the index existed.
    let base = TREE_SPECS.len();
    let idx = indexed.then(|| trees[base]);

    // Initial load (direct mode: becomes the bootstrap checkpoint).
    let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x0AC1_E0FF_5EED_0001;
    let mut model: BTreeMap<(usize, u64), Vec<u8>> = BTreeMap::new();
    for i in 0..INITIAL_ROWS {
        for (ti, tree) in trees.iter().take(base).enumerate() {
            let key = i * 7 + ti as u64;
            let val = row(ti, splitmix64(&mut rng));
            assert!(tree.insert(&mut env, &alloc, key, &val));
            model.insert((ti, key), val);
            if ti == 0 {
                if let Some(ix) = &idx {
                    let entry = key.to_le_bytes().to_vec();
                    assert!(ix.insert(&mut env, &alloc, index_key(key), &entry));
                    model.insert((base, index_key(key)), entry);
                }
            }
        }
    }
    let initial = model.clone();

    // Attach the pool; everything after this is logged and crashable.
    let permanents: Vec<(Addr, u64)> = trees.iter().map(|t| t.meta_region()).collect();
    let pager = Box::new(Pager::new(&mut env, frames, plan, observe));
    env.attach_pager(pager, &permanents);

    let mut shadow = Vec::with_capacity(mtrs);
    for _ in 0..mtrs {
        env.mtr_begin();
        let mut batch = Vec::with_capacity(OPS_PER_MTR);
        for _ in 0..OPS_PER_MTR {
            let ti = (splitmix64(&mut rng) % base as u64) as usize;
            let tree = trees[ti];
            let kind = splitmix64(&mut rng) % 10;
            if kind < 5 {
                // Insert a fresh key (fall back to update on collision).
                let key = splitmix64(&mut rng) % 4096;
                let val = row(ti, splitmix64(&mut rng));
                if model.insert((ti, key), val.clone()).is_some() {
                    let addr = tree.get_addr(&mut env, key).expect("modeled key exists");
                    env.write_from(UPDATE_PC, addr, &val);
                    batch.push(ShadowOp::Update(ti, key, val));
                } else {
                    assert!(tree.insert(&mut env, &alloc, key, &val));
                    batch.push(ShadowOp::Insert(ti, key, val));
                    if ti == 0 {
                        if let Some(ix) = &idx {
                            let entry = key.to_le_bytes().to_vec();
                            assert!(ix.insert(&mut env, &alloc, index_key(key), &entry));
                            model.insert((base, index_key(key)), entry.clone());
                            batch.push(ShadowOp::Insert(base, index_key(key), entry));
                        }
                    }
                }
            } else if kind < 8 {
                // Update an existing key of this tree.
                let keys: Vec<u64> =
                    model.range((ti, 0)..(ti + 1, 0)).map(|((_, k), _)| *k).collect();
                if keys.is_empty() {
                    continue;
                }
                let key = keys[(splitmix64(&mut rng) % keys.len() as u64) as usize];
                let val = row(ti, splitmix64(&mut rng));
                let addr = tree.get_addr(&mut env, key).expect("modeled key exists");
                env.write_from(UPDATE_PC, addr, &val);
                model.insert((ti, key), val.clone());
                batch.push(ShadowOp::Update(ti, key, val));
            } else {
                // Delete an existing key.
                let keys: Vec<u64> =
                    model.range((ti, 0)..(ti + 1, 0)).map(|((_, k), _)| *k).collect();
                if keys.is_empty() {
                    continue;
                }
                let key = keys[(splitmix64(&mut rng) % keys.len() as u64) as usize];
                assert!(tree.delete(&mut env, key));
                model.remove(&(ti, key));
                batch.push(ShadowOp::Delete(ti, key));
                if ti == 0 {
                    if let Some(ix) = &idx {
                        assert!(ix.delete(&mut env, index_key(key)));
                        model.remove(&(base, index_key(key)));
                        batch.push(ShadowOp::Delete(base, index_key(key)));
                    }
                }
            }
        }
        env.mtr_end();
        shadow.push(batch);
    }

    OracleWorkload { env, trees, tree_meta, initial, shadow }
}

impl OracleWorkload {
    /// The pager (always attached after [`run_workload`]).
    pub fn pager(&self) -> &Pager {
        self.env.pager().expect("oracle runs paged")
    }

    /// Upper bound of the crash grid: every `k` in `0..=last_lsn()` is a
    /// distinct crash point.
    pub fn last_lsn(&self) -> u64 {
        self.pager().last_lsn()
    }

    /// The trees of the live (non-recovered) world, for direct checks.
    pub fn trees(&self) -> &[BTree] {
        &self.trees
    }

    /// The expected logical contents after `durable_mtrs` committed
    /// batches: the initial load with that shadow prefix replayed.
    fn expected_contents(&self, durable_mtrs: u64) -> BTreeMap<(usize, u64), Vec<u8>> {
        let mut m = self.initial.clone();
        for batch in self.shadow.iter().take(durable_mtrs as usize) {
            for op in batch {
                match op {
                    ShadowOp::Insert(t, k, v) | ShadowOp::Update(t, k, v) => {
                        m.insert((*t, *k), v.clone());
                    }
                    ShadowOp::Delete(t, k) => {
                        m.remove(&(*t, *k));
                    }
                }
            }
        }
        m
    }

    /// Full logical contents of a recovered world, scanned through the
    /// recovered trees (no pager: scans are direct).
    fn recovered_contents(&self, world: RecoveredWorld) -> BTreeMap<(usize, u64), Vec<u8>> {
        let mut renv = Env::new();
        renv.mem = world.mem;
        let mut out = BTreeMap::new();
        for (ti, &(meta, vs, module)) in self.tree_meta.iter().enumerate() {
            let tree = BTree::open_existing(meta, vs, module);
            tree.scan_from(&mut renv, 0, |env, k, addr| {
                out.insert((ti, k), env.mem.bytes(addr, vs as usize));
                true
            });
        }
        out
    }

    /// Crash at durable-log LSN `k`, recover, and diff the full logical
    /// contents against the shadow journal. `Ok` carries the recovery
    /// audit; `Err` describes the first divergence (or any quarantined
    /// page — under the standard fault grid quarantine is unreachable,
    /// because write-ahead puts a committed full-page image before every
    /// disk write).
    pub fn check_crash_point(&self, k: u64) -> Result<RecoveredWorld, String> {
        let world = self.pager().crash_point(k);
        if !world.quarantined.is_empty() {
            return Err(format!(
                "crash at lsn {k}: {} page(s) quarantined: {}",
                world.quarantined.len(),
                world
                    .quarantined
                    .iter()
                    .map(|q| format!("{:#x} ({})", q.region, q.reason))
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        }
        let expected = self.expected_contents(world.durable_mtrs);
        let audit =
            (world.durable_mtrs, world.durable_lsn, world.images_applied, world.deltas_applied);
        let actual = self.recovered_contents(world);
        if actual != expected {
            let missing: Vec<_> =
                expected.keys().filter(|k| !actual.contains_key(k)).take(5).collect();
            let extra: Vec<_> =
                actual.keys().filter(|k| !expected.contains_key(k)).take(5).collect();
            let differing: Vec<_> = expected
                .iter()
                .filter(|(k, v)| actual.get(k).is_some_and(|a| a != *v))
                .map(|(k, _)| k)
                .take(5)
                .collect();
            return Err(format!(
                "crash at lsn {k} ({} durable mtrs): recovered contents diverge — \
                 {} expected rows vs {} recovered; missing {missing:?}, extra {extra:?}, \
                 differing {differing:?}",
                audit.0,
                expected.len(),
                actual.len()
            ));
        }
        // Re-materialize for the caller (RecoveredWorld is consumed by
        // the scan above).
        Ok(self.pager().crash_point(k))
    }

    /// Checks every crash point `0..=last_lsn()`, returning the first
    /// failure.
    pub fn check_all_crash_points(&self) -> Result<u64, String> {
        let last = self.last_lsn();
        for k in 0..=last {
            self.check_crash_point(k)?;
        }
        Ok(last + 1)
    }
}
