//! 3-D airspace monitoring with `RTSIndex3` — the `N_DIMS = 3`
//! instantiation of the paper's API (§5). Restricted airspace volumes
//! (3-D boxes) are indexed; drone positions are point-queried, and
//! flight corridors are checked with Range-Intersects.
//!
//! ```sh
//! cargo run --release --example airspace_3d
//! ```

use geom::{Point, Rect};
use librts::{CountingHandler, RTSIndex3};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let mut rng = StdRng::seed_from_u64(7);

    // Restricted volumes: no-fly zones of different heights across a
    // 100 km × 100 km region, altitudes up to 2 km.
    let zones: Vec<Rect<f32, 3>> = (0..20_000)
        .map(|_| {
            let x = rng.gen::<f32>() * 100_000.0;
            let y = rng.gen::<f32>() * 100_000.0;
            let z = rng.gen::<f32>() * 1_500.0;
            let w = 50.0 + rng.gen::<f32>() * 800.0;
            let d = 50.0 + rng.gen::<f32>() * 800.0;
            let h = 30.0 + rng.gen::<f32>() * 400.0;
            Rect::xyzxyz(x, y, z, x + w, y + d, z + h)
        })
        .collect();
    let index = RTSIndex3::build(&zones, Default::default()).unwrap();
    println!("indexed {} restricted airspace volumes", index.len());

    // Live drone fixes: which drones are inside a restricted volume?
    let drones: Vec<Point<f32, 3>> = (0..50_000)
        .map(|_| {
            Point::xyz(
                rng.gen::<f32>() * 100_000.0,
                rng.gen::<f32>() * 100_000.0,
                rng.gen::<f32>() * 2_000.0,
            )
        })
        .collect();
    let h = CountingHandler::new();
    let report = index.point_query(&drones, &h);
    println!(
        "point query: {} (zone, drone) violations across {} fixes; \
         {} BVH nodes visited, simulated device time {:?}",
        h.count(),
        drones.len(),
        report.launch.totals.wide_nodes_visited,
        report.device_time()
    );

    // Verify a sample against brute force.
    let sample = &drones[..500];
    let got: Vec<_> = index.collect_point_query(sample).into_iter().collect();
    let mut want = vec![];
    for (zi, z) in zones.iter().enumerate() {
        for (di, p) in sample.iter().enumerate() {
            if z.contains_point(p) {
                want.push((zi as u32, di as u32));
            }
        }
    }
    assert_eq!(got, want);
    println!("sample cross-check against brute force passed ✓");

    // Flight corridors (boxes): which restricted volumes does each
    // corridor clip? 3-D Range-Intersects via the Minkowski
    // center-probe formulation (Theorem 1 is 2-D only — see the module
    // docs of librts::index3d).
    let corridors: Vec<Rect<f32, 3>> = (0..1_000)
        .map(|_| {
            let x = rng.gen::<f32>() * 90_000.0;
            let y = rng.gen::<f32>() * 90_000.0;
            let z = rng.gen::<f32>() * 1_200.0;
            Rect::xyzxyz(x, y, z, x + 8_000.0, y + 300.0, z + 120.0)
        })
        .collect();
    let hits = index.collect_intersects(&corridors);
    println!(
        "{} corridor/zone conflicts across {} corridors",
        hits.len(),
        corridors.len()
    );

    // Spot check one corridor against brute force.
    let c0 = &corridors[0];
    let want0: Vec<u32> = (0..zones.len() as u32)
        .filter(|&i| zones[i as usize].intersects(c0))
        .collect();
    let got0: Vec<u32> = hits
        .iter()
        .filter(|&&(_, q)| q == 0)
        .map(|&(r, _)| r)
        .collect();
    assert_eq!(got0, want0);
    println!("corridor cross-check passed ✓");
}
