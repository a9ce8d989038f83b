//! Quickstart: build a LibRTS index, run every query type, mutate it.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use geom::{Point, Rect};
use librts::{CollectingHandler, CountingHandler, Predicate, RTSIndex};

fn main() {
    // --- Build -----------------------------------------------------------
    // Index a few building footprints (the §2.1 flood-zone example).
    let buildings = vec![
        Rect::xyxy(0.0f32, 0.0, 10.0, 8.0), // warehouse
        Rect::xyxy(12.0, 2.0, 18.0, 9.0),   // office
        Rect::xyxy(25.0, 25.0, 30.0, 32.0), // depot on the hill
        Rect::xyxy(3.0, 14.0, 9.0, 20.0),   // riverside flats
    ];
    let mut index = RTSIndex::<f32>::new(Default::default());
    let ids = index.insert(&buildings).expect("valid rectangles");
    println!("indexed {} buildings (ids {:?})", index.len(), ids);

    // --- Point query (§3.1) ----------------------------------------------
    let sensors = vec![
        Point::xy(5.0, 5.0),
        Point::xy(26.0, 30.0),
        Point::xy(50.0, 50.0),
    ];
    let hits = index.collect_point_query(&sensors);
    println!("point query: {hits:?}  // (building_id, sensor_id)");
    assert_eq!(hits, vec![(0, 0), (2, 1)]);

    // --- Range-Intersects (§3.3): which buildings does the flood touch? ---
    let flood_zones = vec![Rect::xyxy(-5.0f32, -5.0, 14.0, 16.0)];
    let flooded = index.collect_range_query(Predicate::Intersects, &flood_zones);
    println!("flood intersects buildings: {flooded:?}");
    assert_eq!(flooded, vec![(0, 0), (1, 0), (3, 0)]);

    // --- Range-Contains (§3.2) --------------------------------------------
    let parcel = vec![Rect::xyxy(1.0f32, 1.0, 4.0, 4.0)];
    let containing = index.collect_range_query(Predicate::Contains, &parcel);
    println!("buildings containing the parcel: {containing:?}");
    assert_eq!(containing, vec![(0, 0)]);

    // --- Mutations (§4) -----------------------------------------------------
    // The depot is demolished; a new tower goes up; the office grows.
    index.delete(&[2]).unwrap();
    index.insert(&[Rect::xyxy(40.0, 40.0, 45.0, 48.0)]).unwrap();
    index
        .update(&[1], &[Rect::xyxy(12.0, 2.0, 22.0, 9.0)])
        .unwrap();
    println!(
        "after churn: {} live buildings in {} insert batches",
        index.len(),
        index.batch_count()
    );

    // Count results without materializing them (the Counting Handler, §5).
    let counter = CountingHandler::new();
    index.point_query(&[Point::xy(20.0, 5.0), Point::xy(42.0, 44.0)], &counter);
    println!("containment hits after churn: {}", counter.count());
    assert_eq!(counter.count(), 2);

    // Or collect them with the Collecting Handler.
    let collector = CollectingHandler::new();
    let report = index.point_query(&[Point::xy(20.0, 5.0)], &collector);
    println!(
        "query cast {} rays, visited {} BVH nodes, simulated device time {:?}",
        report.launch.totals.rays,
        report.launch.totals.wide_nodes_visited,
        report.device_time()
    );
    println!("results: {:?}", collector.into_sorted_vec());
}
