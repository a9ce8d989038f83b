//! Deadline thread invariance, in its own test binary: the test writes
//! the process-global `obs` registry, so sharing a process with
//! `thread_invariance.rs` would land its writes inside that binary's
//! Stable-metric snapshot window and make the comparison flaky.

use geom::Rect;
use librts::{deadline, CollectingHandler, IndexError, IndexOptions, Predicate, RTSIndex};

/// Deadline budgets are denominated in modeled device time (a Stable
/// quantity), so the same budget must trip with the same typed error —
/// byte-identical `budget_ns`/`spent_ns` — at every thread count.
#[test]
fn deadline_overruns_are_thread_invariant() {
    let rects: Vec<Rect<f32, 2>> = (0..256)
        .map(|i| {
            let x = (i % 16) as f32 * 2.0;
            let y = (i / 16) as f32 * 2.0;
            Rect::xyxy(x, y, x + 1.5, y + 1.5)
        })
        .collect();
    let qs: Vec<Rect<f32, 2>> = (0..64)
        .map(|i| {
            let x = (i % 8) as f32 * 4.0 + 0.5;
            let y = (i / 8) as f32 * 4.0 + 0.5;
            Rect::xyxy(x, y, x + 2.0, y + 2.0)
        })
        .collect();
    let index = RTSIndex::with_rects(&rects, IndexOptions::default()).unwrap();
    let h = CollectingHandler::new();
    let total = index
        .try_range_query(Predicate::Intersects, &qs, &h)
        .expect("no deadline installed")
        .breakdown
        .total()
        .device
        .as_nanos() as u64;
    let budget = total / 2;

    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut counts = vec![1usize, 4, cpus];
    counts.sort_unstable();
    counts.dedup();

    let mut reference: Option<(usize, IndexError)> = None;
    for &n in &counts {
        let h = CollectingHandler::new();
        let err = exec::with_threads(n, || {
            deadline::with_deadline(std::time::Duration::from_nanos(budget), || {
                index.try_range_query(Predicate::Intersects, &qs, &h)
            })
        })
        .expect_err("half the modeled cost must exceed the budget");
        assert!(
            matches!(err, IndexError::DeadlineExceeded { budget_ns, .. } if budget_ns == budget)
        );
        match &reference {
            None => reference = Some((n, err)),
            Some((n0, want)) => assert_eq!(
                &err, want,
                "deadline overruns diverge between {n0} and {n} threads"
            ),
        }
    }
}
