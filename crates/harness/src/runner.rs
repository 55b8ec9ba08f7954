//! The deterministic parallel runner and the hardened job-failure path.
//!
//! [`JobPool::run`] fans a vector of independent jobs across scoped host
//! threads and returns their results **in submission order**, whatever
//! the worker count or completion interleaving. Determinism therefore
//! reduces to the jobs themselves being pure functions — which simulator
//! runs are — so `suite --jobs 8` is byte-identical to `--jobs 1`.
//!
//! Work is distributed by an atomic take-a-number counter rather than
//! pre-partitioning, so a pool never idles while one long simulation
//! (NEW ORDER 150 at paper scale dwarfs PAYMENT) monopolizes a stripe of
//! the plan.
//!
//! Beside the pool sits the **quarantine engine**: panic capture
//! ([`capture`], used by the chaos binary's survival cells) and, on top
//! of it, deadline watchdogs and retry-with-backoff ([`run_protected`],
//! the suite driver's per-plan execution). A failing job becomes a
//! structured [`JobFailure`] instead of tearing the process down, so a
//! long campaign completes its healthy work and reports the casualties
//! at the end.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How a protected job failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The job panicked; [`JobFailure::message`] carries the payload.
    Panicked,
    /// The job ran past its deadline. Host threads cannot be killed, so
    /// the overrun is detected when the attempt eventually returns (a
    /// watchdog thread reports the overrun on stderr while it is still
    /// in flight); the late result is discarded.
    TimedOut,
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FailureKind::Panicked => "panicked",
            FailureKind::TimedOut => "timed out",
        })
    }
}

/// A structured record of one quarantined job: what failed, how, with
/// what payload, and how long it ran. This is what the suite reports in
/// `BENCH_suite.json` instead of crashing.
#[derive(Debug, Clone)]
pub struct JobFailure {
    /// The job's key (a plan name, a chaos cell, …).
    pub key: String,
    /// Panic or deadline overrun.
    pub kind: FailureKind,
    /// The panic payload, or a timeout description.
    pub message: String,
    /// Wall time of the final attempt, in seconds.
    pub duration_s: f64,
    /// Attempts made (1 = failed first try with no retry budget left).
    pub attempts: u32,
}

impl std::fmt::Display for JobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {} after {:.3}s (attempt {}): {}",
            self.key, self.kind, self.duration_s, self.attempts, self.message
        )
    }
}

/// Retry and deadline policy for the quarantine engine.
#[derive(Debug, Clone, Copy)]
pub struct Protection {
    /// Deadline per attempt; `None` disables the watchdog.
    pub timeout: Option<Duration>,
    /// Extra attempts after the first failure (default 1: one retry,
    /// then quarantine).
    pub retries: u32,
    /// Pause before each retry, doubling per attempt.
    pub backoff: Duration,
}

impl Default for Protection {
    fn default() -> Self {
        Protection { timeout: None, retries: 1, backoff: Duration::from_millis(50) }
    }
}

/// Renders a panic payload as text (the common `&str` / `String` cases;
/// anything else gets a placeholder).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `job` once, converting a panic into a [`JobFailure`]. The shared
/// capture primitive behind every hardened runner in the workspace.
pub fn capture<T>(key: &str, job: impl FnOnce() -> T) -> Result<T, JobFailure> {
    let start = Instant::now();
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)) {
        Ok(value) => Ok(value),
        Err(payload) => Err(JobFailure {
            key: key.to_string(),
            kind: FailureKind::Panicked,
            message: panic_message(payload.as_ref()),
            duration_s: start.elapsed().as_secs_f64(),
            attempts: 1,
        }),
    }
}

/// Runs `job` under the full quarantine policy: panic capture, a
/// deadline watchdog, and retry-with-backoff. Returns the first
/// successful result, or the *last* attempt's failure once the retry
/// budget is spent.
///
/// The watchdog is an observer, not an executioner: a host thread
/// cannot be killed safely, so an attempt that overruns its deadline is
/// reported on stderr while in flight and its (late) result is
/// discarded when it returns. A hung job therefore still hangs its
/// caller — but a *slow* job is quarantined instead of silently
/// poisoning a campaign's timing.
pub fn run_protected<T>(
    key: &str,
    policy: Protection,
    job: impl Fn() -> T,
) -> Result<T, JobFailure> {
    let mut failure: Option<JobFailure> = None;
    for attempt in 0..=policy.retries {
        if attempt > 0 {
            std::thread::sleep(policy.backoff * (1u32 << (attempt - 1).min(8)));
        }
        let start = Instant::now();
        let _watchdog = policy.timeout.map(|t| Watchdog::arm(key, attempt + 1, t));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(&job));
        let duration_s = start.elapsed().as_secs_f64();
        let fail = match result {
            Ok(value) => match policy.timeout {
                Some(t) if start.elapsed() > t => JobFailure {
                    key: key.to_string(),
                    kind: FailureKind::TimedOut,
                    message: format!(
                        "deadline {:.3}s exceeded; late result discarded",
                        t.as_secs_f64()
                    ),
                    duration_s,
                    attempts: attempt + 1,
                },
                _ => return Ok(value),
            },
            Err(payload) => JobFailure {
                key: key.to_string(),
                kind: FailureKind::Panicked,
                message: panic_message(payload.as_ref()),
                duration_s,
                attempts: attempt + 1,
            },
        };
        eprintln!(
            "warning: job {fail}{}",
            if attempt < policy.retries { "; retrying" } else { "" }
        );
        failure = Some(fail);
    }
    Err(failure.expect("at least one attempt ran"))
}

/// Background deadline reporter for one attempt: sleeps until the
/// deadline and prints a warning if the attempt is still running.
/// Dropping it (the attempt returned) stands the thread down.
struct Watchdog {
    done: Arc<AtomicBool>,
}

impl Watchdog {
    fn arm(key: &str, attempt: u32, timeout: Duration) -> Watchdog {
        let done = Arc::new(AtomicBool::new(false));
        let flag = done.clone();
        let key = key.to_string();
        std::thread::spawn(move || {
            // Poll in slices so a finished attempt releases the thread
            // promptly instead of holding it for the full deadline.
            let deadline = Instant::now() + timeout;
            while Instant::now() < deadline {
                if flag.load(Ordering::Relaxed) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(25).min(timeout));
            }
            if !flag.load(Ordering::Relaxed) {
                eprintln!(
                    "warning: job {key} (attempt {attempt}) exceeded its {:.3}s deadline \
                     and is still running",
                    timeout.as_secs_f64()
                );
            }
        });
        Watchdog { done }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.done.store(true, Ordering::Relaxed);
    }
}

/// A fixed-width pool of scoped worker threads.
#[derive(Debug, Clone, Copy)]
pub struct JobPool {
    workers: usize,
}

impl JobPool {
    /// A pool of `workers` threads (0 is clamped to 1).
    pub fn new(workers: usize) -> Self {
        JobPool { workers: workers.max(1) }
    }

    /// The host's available parallelism (the `--jobs` default).
    pub fn available() -> usize {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs every job and returns the results in submission order.
    ///
    /// A single-worker pool (or a single job) runs inline on the calling
    /// thread — the `--jobs 1` reference execution has no thread
    /// machinery at all. Panics quarantine nothing here: every job still
    /// runs (a panic in one does not discard the others' work), and
    /// afterwards a single panic is re-raised with its original payload
    /// while multiple panics are aggregated into one report naming each
    /// — never the old silent first-panic-wins.
    pub fn run<'env, T: Send>(&self, jobs: Vec<Box<dyn FnOnce() -> T + Send + 'env>>) -> Vec<T> {
        let workers = self.workers.min(jobs.len());
        let total = jobs.len();
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<T>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
        let panics: Mutex<Vec<(usize, Box<dyn std::any::Any + Send>)>> = Mutex::new(Vec::new());
        type JobSlot<'env, T> = Mutex<Option<Box<dyn FnOnce() -> T + Send + 'env>>>;
        let jobs: Vec<JobSlot<'env, T>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
        let work = |_worker: usize| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= total {
                break;
            }
            let job = jobs[i]
                .lock()
                .expect("job slot poisoned")
                .take()
                .expect("each job taken exactly once");
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)) {
                Ok(result) => *slots[i].lock().expect("result slot poisoned") = Some(result),
                Err(p) => panics.lock().expect("panic list poisoned").push((i, p)),
            }
        };
        if workers <= 1 {
            work(0);
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers).map(|w| scope.spawn(move || work(w))).collect();
                for handle in handles {
                    // Workers capture every job panic themselves; a join
                    // error would be a bug in the pool, not in a job.
                    handle.join().expect("pool worker panicked outside a job");
                }
            });
        }
        let mut panics = panics.into_inner().expect("panic list poisoned");
        match panics.len() {
            0 => {}
            1 => std::panic::resume_unwind(panics.pop().expect("nonempty").1),
            n => {
                panics.sort_by_key(|(i, _)| *i);
                let lines: Vec<String> = panics
                    .iter()
                    .map(|(i, p)| format!("  job {i}: {}", panic_message(p.as_ref())))
                    .collect();
                panic!("{n} of {total} jobs panicked:\n{}", lines.join("\n"));
            }
        }
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("every slot filled after join")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn boxed<T, F: FnOnce() -> T + Send + 'static>(f: F) -> Box<dyn FnOnce() -> T + Send> {
        Box::new(f)
    }

    #[test]
    fn results_come_back_in_submission_order() {
        for workers in [1, 2, 8, 32] {
            let pool = JobPool::new(workers);
            let jobs: Vec<_> = (0..50u64)
                .map(|i| {
                    boxed(move || {
                        // Stagger completion: later jobs finish sooner.
                        std::thread::sleep(std::time::Duration::from_micros(50 - i));
                        i * i
                    })
                })
                .collect();
            let out = pool.run(jobs);
            assert_eq!(out, (0..50u64).map(|i| i * i).collect::<Vec<_>>(), "workers={workers}");
        }
    }

    #[test]
    fn empty_and_single_job_vectors_work() {
        let pool = JobPool::new(8);
        assert_eq!(pool.run(Vec::<Box<dyn FnOnce() -> u32 + Send>>::new()), vec![]);
        assert_eq!(pool.run(vec![boxed(|| 7u32)]), vec![7]);
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        assert_eq!(JobPool::new(0).workers(), 1);
    }

    #[test]
    fn panics_propagate() {
        let pool = JobPool::new(4);
        let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> = (0..8)
            .map(|i| boxed(move || if i == 5 { panic!("job 5 exploded") } else { i }))
            .collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pool.run(jobs)));
        let payload = result.expect_err("panic must propagate");
        assert_eq!(panic_message(payload.as_ref()), "job 5 exploded", "payload preserved");
    }

    #[test]
    fn every_panic_is_reported_not_just_the_first() {
        for workers in [1, 4] {
            let pool = JobPool::new(workers);
            let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> = (0..8)
                .map(|i| {
                    boxed(move || match i {
                        2 => panic!("job 2 exploded"),
                        6 => panic!("job 6 exploded"),
                        _ => i,
                    })
                })
                .collect();
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pool.run(jobs)));
            let msg = panic_message(result.expect_err("panics propagate").as_ref());
            assert!(msg.contains("job 2 exploded"), "workers={workers}: {msg}");
            assert!(msg.contains("job 6 exploded"), "workers={workers}: {msg}");
            assert!(msg.contains("2 of 8 jobs panicked"), "workers={workers}: {msg}");
        }
    }

    #[test]
    fn capture_returns_ok_or_structured_failure() {
        assert_eq!(capture("fine", || 42).expect("ok"), 42);
        let f = capture("boom", || -> u32 { panic!("kapow") }).expect_err("failure");
        assert_eq!(f.key, "boom");
        assert_eq!(f.kind, FailureKind::Panicked);
        assert_eq!(f.message, "kapow");
        assert_eq!(f.attempts, 1);
    }

    #[test]
    fn run_protected_retries_once_then_quarantines() {
        let calls = AtomicUsize::new(0);
        // Fails on the first attempt, succeeds on the retry.
        let flaky = || {
            if calls.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("transient");
            }
            11u32
        };
        let policy = Protection { backoff: Duration::from_millis(1), ..Protection::default() };
        assert_eq!(run_protected("flaky", policy, flaky).expect("retry succeeds"), 11);
        assert_eq!(calls.load(Ordering::SeqCst), 2);

        // Always fails: the retry budget spends, then quarantine.
        let calls = AtomicUsize::new(0);
        let doomed = || -> u32 {
            calls.fetch_add(1, Ordering::SeqCst);
            panic!("permanent")
        };
        let f = run_protected("doomed", policy, doomed).expect_err("quarantined");
        assert_eq!(calls.load(Ordering::SeqCst), 2, "one retry, then give up");
        assert_eq!(f.attempts, 2);
        assert_eq!(f.message, "permanent");
    }

    #[test]
    fn run_protected_flags_deadline_overruns() {
        let policy = Protection {
            timeout: Some(Duration::from_millis(5)),
            retries: 0,
            backoff: Duration::ZERO,
        };
        let f = run_protected("slow", policy, || {
            std::thread::sleep(Duration::from_millis(30));
            1u32
        })
        .expect_err("late result is discarded");
        assert_eq!(f.kind, FailureKind::TimedOut);
        assert_eq!(f.key, "slow");

        // A fast job under the same policy is untouched.
        assert_eq!(run_protected("fast", policy, || 2u32).expect("ok"), 2);
    }
}
