//! Property tests for the simulated acceleration structures: traversal
//! completeness, refit soundness, wide-walk equivalence to the binary
//! reference traversal, and IAS/GAS equivalence on arbitrary scenes.

use geom::{Point, Ray, Rect};
use proptest::prelude::*;
use rtcore::{
    BuildOptions, BuildQuality, Bvh, Bvh4, Control, Gas, HitContext, Ias, Instance, IsResult,
    RayStats, RtProgram,
};
use std::sync::Arc;

fn arb_box() -> impl Strategy<Value = Rect<f32, 3>> {
    (-50.0f32..50.0, -50.0f32..50.0, 0.0f32..10.0, 0.0f32..10.0)
        .prop_map(|(x, y, w, h)| Rect::xyzxyz(x, y, 0.0, x + w, y + h, 0.0))
}

fn arb_ray() -> impl Strategy<Value = Ray<f32, 3>> {
    (
        -60.0f32..60.0,
        -60.0f32..60.0,
        -1.0f32..1.0,
        -1.0f32..1.0,
        0.1f32..200.0,
    )
        .prop_map(|(x, y, dx, dy, tmax)| {
            let dir = if dx == 0.0 && dy == 0.0 {
                Point::xyz(1.0, 0.0, 0.0)
            } else {
                Point::xyz(dx, dy, 0.0)
            };
            Ray::new(Point::xyz(x, y, 0.0), dir, 0.0, tmax)
        })
}

/// The wide walk launches use must be the binary reference traversal
/// reshaped: the same primitive set, as many primitive box tests, and
/// no more node pops.
fn check_wide_matches_binary(
    bvh: &Bvh<f32>,
    wide: &Bvh4<f32>,
    boxes: &[Rect<f32, 3>],
    ray: &Ray<f32, 3>,
) -> TestCaseResult {
    let mut bin = RayStats::default();
    let mut bin_prims = vec![];
    bvh.traverse(ray, boxes, &mut bin, |p, _| {
        bin_prims.push(p);
        Control::Continue
    });
    let mut w = RayStats::default();
    let mut wide_prims = vec![];
    wide.traverse(ray, boxes, &mut w, |p, _| {
        wide_prims.push(p);
        Control::Continue
    });
    bin_prims.sort_unstable();
    wide_prims.sort_unstable();
    prop_assert_eq!(wide_prims, bin_prims);
    prop_assert_eq!(w.wide_prim_tests, bin.prim_tests);
    prop_assert!(
        w.wide_nodes_visited <= bin.nodes_visited,
        "wide pops {} exceed binary pops {}",
        w.wide_nodes_visited,
        bin.nodes_visited
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Traversal must report a superset of the exact brute-force hit set
    /// (conservative box tests may add grazes, never drop true hits),
    /// and every extra must be within the conservative inflation.
    #[test]
    fn traversal_complete(
        boxes in prop::collection::vec(arb_box(), 1..120),
        ray in arb_ray(),
        quality in prop::sample::select(vec![
            BuildQuality::PreferFastTrace,
            BuildQuality::PreferFastBuild,
        ]),
    ) {
        let bvh = Bvh::build(&boxes, quality, 4);
        bvh.validate(&boxes).unwrap();
        let mut got = vec![];
        bvh.traverse(&ray, &boxes, &mut RayStats::default(), |p, _| {
            got.push(p);
            Control::Continue
        });
        got.sort_unstable();
        let want: Vec<u32> = (0..boxes.len() as u32)
            .filter(|&i| ray.hits_aabb(&boxes[i as usize]))
            .collect();
        // Superset check.
        for w in &want {
            prop_assert!(got.contains(w), "missing exact hit {w}");
        }
        // Soundness of extras: each reported prim passes the padded test.
        for g in &got {
            prop_assert!(
                ray.hits_aabb_conservative(&boxes[*g as usize]),
                "reported prim {g} fails even the conservative test"
            );
        }
        let wide = Bvh4::collapse(&bvh);
        wide.validate(&bvh).unwrap();
        check_wide_matches_binary(&bvh, &wide, &boxes, &ray)?;
    }

    /// After refitting to arbitrary new coordinates, the BVH is still
    /// valid and traversal is still complete.
    #[test]
    fn refit_preserves_completeness(
        boxes in prop::collection::vec(arb_box(), 1..80),
        moved in prop::collection::vec(arb_box(), 1..80),
        ray in arb_ray(),
    ) {
        let n = boxes.len().min(moved.len());
        let boxes = &boxes[..n];
        let mut new_boxes = boxes.to_vec();
        new_boxes[..n].copy_from_slice(&moved[..n]);

        let mut bvh = Bvh::build(boxes, BuildQuality::PreferFastTrace, 4);
        let mut wide = Bvh4::collapse(&bvh);
        bvh.refit(&new_boxes);
        bvh.validate(&new_boxes).unwrap();
        // The wide tree keeps its topology and re-syncs its bounds, as
        // `Gas::refit` does.
        wide.refit_from(&bvh);
        wide.validate(&bvh).unwrap();
        check_wide_matches_binary(&bvh, &wide, &new_boxes, &ray)?;

        let mut got = vec![];
        bvh.traverse(&ray, &new_boxes, &mut RayStats::default(), |p, _| {
            got.push(p);
            Control::Continue
        });
        for i in 0..n as u32 {
            if ray.hits_aabb(&new_boxes[i as usize]) {
                prop_assert!(got.contains(&i), "refit lost hit {i}");
            }
        }
    }

    /// An IAS over chunked identity instances sees exactly the hits of a
    /// monolithic GAS over the same primitives.
    #[test]
    fn ias_equals_monolithic_gas(
        boxes in prop::collection::vec(arb_box(), 4..100),
        ray in arb_ray(),
        chunks in 1usize..6,
    ) {
        struct Collect;
        impl RtProgram<f32> for Collect {
            type Payload = Vec<(u32, u32)>;
            fn intersection(
                &self,
                ctx: &HitContext<'_, f32>,
                out: &mut Self::Payload,
            ) -> IsResult<f32> {
                out.push((ctx.instance_id, ctx.primitive_index));
                IsResult::Ignore
            }
        }
        let mono = Gas::build(boxes.clone(), BuildOptions::default()).unwrap();
        let chunk_size = boxes.len().div_ceil(chunks);
        let mut offsets = vec![];
        let instances: Vec<Instance<f32>> = boxes
            .chunks(chunk_size)
            .enumerate()
            .map(|(i, c)| {
                offsets.push(i * chunk_size);
                Instance::identity(
                    Arc::new(Gas::build(c.to_vec(), BuildOptions::default()).unwrap()),
                    i as u32,
                )
            })
            .collect();
        let ias = Ias::build(&instances).unwrap();

        let device = rtcore::Device::new();
        let collect = |handle: u8| {
            let out = parking_lot::Mutex::new(Vec::new());
            device.launch::<f32, _>(1, |_, session| {
                let mut payload = Vec::new();
                if handle == 0 {
                    session.trace(&mono, &Collect, &ray, &mut payload);
                } else {
                    session.trace(&ias, &Collect, &ray, &mut payload);
                }
                out.lock().extend(payload);
            });
            out.into_inner()
        };
        let mut mono_hits: Vec<u32> = collect(0).into_iter().map(|(_, p)| p).collect();
        let mut ias_hits: Vec<u32> = collect(1)
            .into_iter()
            .map(|(inst, p)| (offsets[inst as usize] + p as usize) as u32)
            .collect();
        mono_hits.sort_unstable();
        ias_hits.sort_unstable();
        prop_assert_eq!(mono_hits, ias_hits);
    }

    /// SAH trees never lose primitives regardless of leaf size.
    #[test]
    fn build_retains_all_prims(
        boxes in prop::collection::vec(arb_box(), 1..200),
        leaf in 1usize..16,
    ) {
        let bvh = Bvh::build(&boxes, BuildQuality::PreferFastTrace, leaf);
        prop_assert_eq!(bvh.len(), boxes.len());
        bvh.validate(&boxes).unwrap();
    }
}
