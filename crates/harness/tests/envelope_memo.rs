//! The envelope memo answers a report only where simulating would have
//! given the same bytes.
//!
//! The committed CI grid and a STOCK LEVEL grid whose spacing and context
//! axes do change reports run point by point through a memo store and
//! through an uncached one; every row's report must be byte-identical.
//! Both memo rules must answer points: a run that attempted no sub-thread
//! answers larger spacings and any contexts, and a run whose attempts
//! never found the contexts full answers more contexts.

use std::sync::atomic::Ordering;
use tls_core::SimReport;
use tls_harness::store::HarnessStore;
use tls_harness::sweep::{SweepPlan, SweepSpec};
use tls_harness::Scale;

/// Points answered by each rule, by the answer's sub-thread starts: a run
/// with no attempt started none, and a run whose attempts never found its
/// contexts full had at least two contexts, so each attempt started one.
#[derive(Debug, Default)]
struct Answered {
    no_attempt: usize,
    never_full: usize,
}

fn check_grid(spec: &str, answered: &mut Answered) -> (u64, u64) {
    let plan = SweepPlan::new(SweepSpec::parse(spec).expect("grid parses"), Scale::Test);
    let memo = HarnessStore::new(None, true);
    let bare = HarnessStore::uncached();
    for (ci, point) in plan.selected(None) {
        let key = plan.trace_key(point.seed);
        let (cfg, cfg_json) = plan.config(ci);
        let hits = memo.stats.envelope_hits.load(Ordering::Relaxed);
        let got = memo.report_json(&memo.programs(&key).tls, cfg, cfg_json);
        let want = bare.report_json(&bare.programs(&key).tls, cfg, cfg_json);
        assert_eq!(got.json, want.json, "{} {}: memo answer differs", plan.spec.name, point.key());
        if memo.stats.envelope_hits.load(Ordering::Relaxed) > hits {
            let report: SimReport = serde_json::from_str(&got.json).expect("report decodes");
            match report.subthreads_started {
                0 => answered.no_attempt += 1,
                _ => answered.never_full += 1,
            }
        }
    }
    let stats = memo.stats.snapshot();
    assert_eq!(stats[5] + stats[13], plan.spec.total_points() as u64);
    (stats[5], stats[13])
}

#[test]
fn ci_grid_memo_answers_match_simulations() {
    let mut answered = Answered::default();
    let (sims, hits) = check_grid(include_str!("../specs/sweep_grid.json"), &mut answered);
    assert_eq!((sims, hits), (20, 980), "the CI grid's 1000 points hold 20 distinct runs");
    assert_eq!(answered.no_attempt, 980, "{answered:?}");
}

#[test]
fn stock_level_grid_memo_answers_match_simulations() {
    let mut answered = Answered::default();
    let (sims, hits) = check_grid(include_str!("../specs/sweep_stock_level.json"), &mut answered);
    assert_eq!(sims + hits, 144);
    assert!(answered.no_attempt > 0 && answered.never_full > 0, "{answered:?}");
}
