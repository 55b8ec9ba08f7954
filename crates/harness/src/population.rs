//! Populated TPC-C databases shared by the recordings in flight.
//!
//! Population is a function of the workload's scale and seed alone: it
//! never reads the engine options (DESIGN §9.7). So every recording of
//! one (scale, seed) can start from one populated image, forked per
//! half, instead of populating a database per half.
//!
//! A recording holds a [`Lease`] on its image until it is done with
//! its output. The first lease to need the image populates it; leases
//! that overlap it wait for that and then fork it. The memo keeps an image only while
//! some lease on it is live, so at most one image per key in flight is
//! resident, and none is left behind once the recordings end. A lease
//! that is alone when it asks for its last database takes the image
//! itself instead of a fork.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use tls_minidb::{OptLevel, Tpcc, TpccConfig};

/// One image's cell: empty until a lease populates it, and again after
/// a sole lease takes it.
type Image = Arc<Mutex<Option<Tpcc>>>;

/// The memo: one image per population key, with its live leases.
#[derive(Default)]
pub(crate) struct Populations {
    slots: Mutex<HashMap<TpccConfig, (usize, Image)>>,
}

impl Populations {
    fn slots(&self) -> MutexGuard<'_, HashMap<TpccConfig, (usize, Image)>> {
        self.slots.lock().expect("population memo poisoned")
    }

    /// A lease on the population of `cfg`, counting each population it
    /// runs in `counter`.
    pub(crate) fn lease<'a>(&'a self, cfg: &TpccConfig, counter: &'a AtomicU64) -> Lease<'a> {
        let key = TpccConfig { opts: OptLevel::none(), ..cfg.clone() };
        let image = {
            let mut slots = self.slots();
            let (users, image) = slots.entry(key.clone()).or_default();
            *users += 1;
            image.clone()
        };
        Lease { memo: self, counter, key, image, attached: true }
    }
}

/// One recording's claim on a populated image.
pub(crate) struct Lease<'a> {
    memo: &'a Populations,
    /// Counts the populations this lease runs.
    counter: &'a AtomicU64,
    key: TpccConfig,
    image: Image,
    /// Whether the lease still counts as a user of the memo's slot.
    attached: bool,
}

impl Lease<'_> {
    fn image(&self) -> MutexGuard<'_, Option<Tpcc>> {
        self.image.lock().expect("population image poisoned")
    }

    fn populate(&self, image: &mut Option<Tpcc>) {
        if image.is_none() {
            self.counter.fetch_add(1, Ordering::Relaxed);
            *image = Some(Tpcc::new(self.key.clone()));
        }
    }

    /// A fork of the populated image that runs the engine with `opts`.
    pub(crate) fn fork(&self, opts: OptLevel) -> Tpcc {
        let mut image = self.image();
        self.populate(&mut image);
        image.as_ref().expect("populated").fork(opts)
    }

    /// The lease's last database, running the engine with `opts`: the
    /// image itself when no other lease on it is live, else a fork.
    ///
    /// # Panics
    ///
    /// Panics if the lease has already taken its image.
    pub(crate) fn take(&mut self, opts: OptLevel) -> Tpcc {
        assert!(self.attached, "the lease already took its image");
        // The image's lock is taken before the memo's (as `fork` and
        // `lease` never hold both), so a lease that finds itself alone
        // cannot race a fork of the image it takes.
        let cell = self.image.clone();
        let mut image = cell.lock().expect("population image poisoned");
        self.populate(&mut image);
        let sole = {
            let mut slots = self.memo.slots();
            let sole = slots[&self.key].0 == 1;
            if sole {
                slots.remove(&self.key);
            }
            sole
        };
        if !sole {
            return image.as_ref().expect("populated").fork(opts);
        }
        self.attached = false;
        let mut db = image.take().expect("populated");
        db.set_opts(opts);
        db
    }
}

impl Drop for Lease<'_> {
    fn drop(&mut self) {
        if !self.attached {
            return;
        }
        let mut slots = self.memo.slots();
        let users = &mut slots.get_mut(&self.key).expect("leased slot").0;
        *users -= 1;
        if *users == 0 {
            slots.remove(&self.key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::program_bytes;
    use tls_minidb::Transaction;

    fn resident(memo: &Populations) -> usize {
        memo.slots().len()
    }

    #[test]
    fn overlapping_leases_populate_once_and_free_the_image_with_the_last() {
        let (memo, populations) = (Populations::default(), AtomicU64::new(0));
        let cfg = TpccConfig::test();
        let a = memo.lease(&cfg, &populations);
        // Engine options do not split the key.
        let mut b = memo.lease(&TpccConfig { opts: OptLevel::none(), ..cfg.clone() }, &populations);
        let _plain_a = a.fork(OptLevel::none());
        let _plain_b = b.fork(OptLevel::none());
        let _tls_b = b.take(cfg.opts);
        assert_eq!(populations.load(Ordering::Relaxed), 1);
        assert_eq!(resident(&memo), 1, "a live lease keeps the image");
        drop(b);
        assert_eq!(resident(&memo), 1);
        drop(a);
        assert_eq!(resident(&memo), 0, "the last lease frees the image");

        let _ = memo.lease(&cfg, &populations).fork(OptLevel::none());
        assert_eq!(populations.load(Ordering::Relaxed), 2, "a later lease populates again");
    }

    #[test]
    fn concurrent_misses_wait_for_one_population() {
        let (memo, populations) = (Populations::default(), AtomicU64::new(0));
        let leased = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let mut lease = memo.lease(&TpccConfig::test(), &populations);
                    leased.wait();
                    let _ = lease.fork(OptLevel::none());
                    let _ = lease.take(OptLevel::fully_optimized());
                });
            }
        });
        assert_eq!(populations.load(Ordering::Relaxed), 1);
        assert_eq!(resident(&memo), 0);
    }

    #[test]
    fn a_sole_lease_takes_the_image_instead_of_forking_it() {
        let (memo, populations) = (Populations::default(), AtomicU64::new(0));
        let mut cfg = TpccConfig::test();
        cfg.opts = OptLevel::tuning_steps()[1].1;
        let mut lease = memo.lease(&cfg, &populations);
        let plain = lease.fork(OptLevel::none()).record_plain(Transaction::Payment, 2);
        let tls = lease.take(cfg.opts).record(Transaction::Payment, 2);
        assert_eq!(resident(&memo), 0, "the image left the memo: it was taken, not copied");
        drop(lease);
        assert_eq!(populations.load(Ordering::Relaxed), 1);
        let (want_plain, want_tls) = Tpcc::record_pair(&cfg, Transaction::Payment, 2);
        assert_eq!(program_bytes(&plain), program_bytes(&want_plain));
        assert_eq!(program_bytes(&tls), program_bytes(&want_tls));
    }
}
