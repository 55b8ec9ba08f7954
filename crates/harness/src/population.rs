//! Populated TPC-C databases shared by the recordings in flight.
//!
//! Population is a function of the workload's scale and seed alone: it
//! never reads the engine options (DESIGN §9.7). So every recording of
//! one (scale, seed) can start from one populated image, forked per
//! half, instead of populating a database per half. A fork shares the
//! image copy-on-write: it costs microseconds and copies only the
//! chunks its recording writes.
//!
//! A recording holds a [`Lease`] on its image until it is done with
//! its output. The first lease to need the image populates it; leases
//! that overlap it wait for that and then fork it. The memo keeps an
//! image only while some lease on it is live, so at most one image per
//! key in flight is resident, and none is left behind once the
//! recordings end.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use tls_minidb::{OptLevel, Tpcc, TpccConfig};

/// One image's cell: empty until a lease populates it.
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
        Lease { memo: self, counter, key, image }
    }
}

/// One recording's claim on a populated image.
pub(crate) struct Lease<'a> {
    memo: &'a Populations,
    /// Counts the populations this lease runs.
    counter: &'a AtomicU64,
    key: TpccConfig,
    image: Image,
}

impl Lease<'_> {
    /// A fork of the populated image that runs the engine with `opts`.
    /// The image's lock is held while the image is populated, so an
    /// overlapping lease waits for that population instead of running
    /// its own, and for the fork itself, which takes microseconds.
    pub(crate) fn fork(&self, opts: OptLevel) -> Tpcc {
        let mut image = self.image.lock().expect("population image poisoned");
        let db = image.get_or_insert_with(|| {
            self.counter.fetch_add(1, Ordering::Relaxed);
            Tpcc::new(self.key.clone())
        });
        db.fork(opts)
    }
}

impl Drop for Lease<'_> {
    fn drop(&mut self) {
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
        let b = memo.lease(&TpccConfig { opts: OptLevel::none(), ..cfg.clone() }, &populations);
        let _plain_a = a.fork(OptLevel::none());
        let _plain_b = b.fork(OptLevel::none());
        let _tls_b = b.fork(cfg.opts);
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
                    let lease = memo.lease(&TpccConfig::test(), &populations);
                    leased.wait();
                    let _ = lease.fork(OptLevel::none());
                    let _ = lease.fork(OptLevel::fully_optimized());
                });
            }
        });
        assert_eq!(populations.load(Ordering::Relaxed), 1);
        assert_eq!(resident(&memo), 0);
    }

    #[test]
    fn overlapping_forks_record_what_fresh_populations_do() {
        let (memo, populations) = (Populations::default(), AtomicU64::new(0));
        let mut cfg = TpccConfig::test();
        cfg.opts = OptLevel::tuning_steps()[1].1;
        let (want_plain, want_tls) = Tpcc::record_pair(&cfg, Transaction::Payment, 2);
        let (a, b) = (memo.lease(&cfg, &populations), memo.lease(&cfg, &populations));
        // Live forks of one image, each recording in turn: a fork's
        // writes must show in neither the image nor its siblings.
        let mut forks = [a.fork(OptLevel::none()), b.fork(cfg.opts), a.fork(cfg.opts)];
        let plain = forks[0].record_plain(Transaction::Payment, 2);
        let tls =
            [forks[1].record(Transaction::Payment, 2), forks[2].record(Transaction::Payment, 2)];
        assert!(plain == want_plain, "the plain fork's recording");
        for t in &tls {
            assert!(*t == want_tls, "a TLS fork's recording");
        }
        // A fork taken after its siblings recorded still starts from the
        // populated image.
        drop(forks);
        assert!(b.fork(cfg.opts).record(Transaction::Payment, 2) == want_tls, "a late fork");
        assert_eq!(populations.load(Ordering::Relaxed), 1);
    }
}
