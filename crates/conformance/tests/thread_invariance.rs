//! Executor determinism: the smoke tier must replay identically at
//! every thread count.
//!
//! `run_scenario` already asserts byte-exact engine-vs-oracle result
//! equality internally, so replaying the suite under `exec::with_threads`
//! checks the result side for free; this test additionally pins the
//! accumulated hardware-counter totals to each other across thread
//! counts and to the checked-in `budgets.json` — which must pass at
//! every thread count *without re-blessing* (the work-stealing executor
//! may not change what the simulated device does, only how fast the
//! host walks it).

use conformance::{check_budgets, run_scenario, smoke_suite, RunOutcome};
use rtcore::RayStats;

type Summary = (&'static str, usize, u64, RayStats, RayStats);

fn summarize(o: &RunOutcome) -> Summary {
    (o.name, o.query_ops, o.pairs_checked, o.totals, o.totals3)
}

#[test]
fn smoke_suite_replays_identically_at_every_thread_count() {
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut counts = vec![1usize, 4, cpus];
    counts.sort_unstable();
    counts.dedup();

    let mut reference: Option<(usize, Vec<Summary>)> = None;
    let mut obs_reference: Option<(usize, obs::Snapshot)> = None;
    for &n in &counts {
        let before = exec::with_threads(n, obs::snapshot);
        let outcomes: Vec<RunOutcome> =
            exec::with_threads(n, || smoke_suite().iter().map(run_scenario).collect());
        let stable = exec::with_threads(n, obs::snapshot)
            .delta_since(&before)
            .stable_only();

        let violations = check_budgets(&outcomes).expect("baseline readable");
        assert!(
            violations.is_empty(),
            "budgets.json violated at {n} threads (budgets must hold at \
             every thread count without re-blessing):\n  {}",
            violations.join("\n  ")
        );

        let summary: Vec<Summary> = outcomes.iter().map(summarize).collect();
        match &reference {
            None => reference = Some((n, summary)),
            Some((n0, want)) => assert_eq!(
                &summary, want,
                "counter totals diverge between {n0} and {n} threads"
            ),
        }

        // The metrics layer must be just as deterministic: every
        // Stable-class metric (logical device work — ray counts, AABB
        // tests, IS invocations, span call counts, launch-shape
        // histograms) is byte-identical at any thread count. Host-class
        // metrics (wall clock, pool stealing) are excluded by
        // `stable_only`.
        let scenario_rays: u64 = outcomes
            .iter()
            .map(|o| o.totals.rays + o.totals3.rays)
            .sum();
        let obs_rays = stable
            .counter("rtcore.rays")
            .expect("rtcore launch counters registered");
        assert!(
            obs_rays >= scenario_rays,
            "obs saw {obs_rays} rays but the scenarios alone cast \
             {scenario_rays} (obs also counts baseline-engine launches, \
             so it can only be >=)"
        );
        match &obs_reference {
            None => obs_reference = Some((n, stable)),
            Some((n0, want)) => assert_eq!(
                &stable, want,
                "stable metrics diverge between {n0} and {n} threads"
            ),
        }
    }
}
