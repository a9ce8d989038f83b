//! Rays and ray–AABB intersection semantics matching §2.2 of the paper.
//!
//! A ray is `R(t) = O + t·d` with a search interval `[t_min, t_max]`
//! (Equation 1). Two cases qualify as ray–AABB intersections (Figure 1):
//! Case 1 — the ray crosses the box boundary at some `t_hit ∈ [t_min,
//! t_max]`; Case 2 — the origin lies inside the box, regardless of where
//! the boundary crossing falls.

use crate::coord::Coord;
use crate::point::Point;
use crate::rect::Rect;
use crate::segment::Segment;

/// A ray with a parametric search interval, mirroring `optixTrace`'s
/// `(origin, direction, tmin, tmax)` arguments.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Ray<C: Coord, const D: usize> {
    /// Origin `O`.
    pub origin: Point<C, D>,
    /// Direction `d` (not necessarily unit length; LibRTS uses `p2 - p1`).
    pub dir: Point<C, D>,
    /// Lower bound of the search interval.
    pub tmin: C,
    /// Upper bound of the search interval.
    pub tmax: C,
}

/// 2-D `f32` ray.
pub type Ray2f = Ray<f32, 2>;
/// 3-D `f32` ray.
pub type Ray3f = Ray<f32, 3>;

/// How a ray intersected an AABB — the two valid cases of Figure 1.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HitKind {
    /// Case 1: origin outside, boundary crossed within `[tmin, tmax]`.
    Boundary,
    /// Case 2: origin inside the box.
    OriginInside,
}

impl<C: Coord, const D: usize> Ray<C, D> {
    /// Creates a ray from its components.
    #[inline]
    pub const fn new(origin: Point<C, D>, dir: Point<C, D>, tmin: C, tmax: C) -> Self {
        Self {
            origin,
            dir,
            tmin,
            tmax,
        }
    }

    /// The paper's point-query ray (§3.1): origin at the query point,
    /// arbitrary direction (unit x here), `t_max = FLT_MIN` so that
    /// Case-1 false positives are confined to boxes whose boundary is
    /// within the smallest representable distance.
    #[inline]
    pub fn point_probe(p: Point<C, D>) -> Self {
        let mut dir = Point::origin();
        dir.coords[0] = C::ONE;
        Self {
            origin: p,
            dir,
            tmin: C::ZERO,
            tmax: C::TINY,
        }
    }

    /// A ray simulating the segment `p1 → p2` (paper Equation 2):
    /// `O = p1`, `d = p2 - p1`, `t ∈ [0, 1]`.
    #[inline]
    pub fn from_segment(seg: &Segment<C, D>) -> Self {
        Self {
            origin: seg.a,
            dir: seg.dir(),
            tmin: C::ZERO,
            tmax: C::ONE,
        }
    }

    /// Point on the ray at parameter `t`.
    #[inline]
    pub fn at(&self, t: C) -> Point<C, D> {
        let mut p = self.origin;
        for d in 0..D {
            p.coords[d] = self.dir.coords[d].mul_add_c(t, p.coords[d]);
        }
        p
    }

    /// `true` if all components are finite and the interval is ordered.
    #[inline]
    pub fn is_valid(&self) -> bool {
        self.origin.is_finite()
            && self.dir.is_finite()
            && self.tmin.is_finite()
            && self.tmax.is_finite()
            && self.tmin <= self.tmax
    }

    /// Bounding box of the ray segment `[tmin, tmax]` (used to cull rays
    /// against scene bounds).
    #[inline]
    pub fn bounds(&self) -> Rect<C, D> {
        Rect::from_corners(self.at(self.tmin), self.at(self.tmax))
    }

    /// Ray–AABB intersection per §2.2: returns the hit kind, or `None` on
    /// a miss. This is the semantic the RT core implements in hardware;
    /// `rtcore` calls it for every BVH node and primitive.
    ///
    /// Implementation: slab clip of the *infinite* line, then intersect
    /// the resulting `[t_enter, t_exit]` with `[tmin, tmax]`. Case 2 is
    /// recognized by `t_enter <= tmin` (the origin point at `tmin`≈0 is
    /// already inside every slab).
    pub fn intersect_aabb(&self, r: &Rect<C, D>) -> Option<HitKind> {
        let mut t0 = self.tmin;
        let mut t1 = self.tmax;
        let mut entered_after_tmin = false;
        for d in 0..D {
            let o = self.origin.coords[d];
            let dv = self.dir.coords[d];
            if dv == C::ZERO {
                if o < r.min.coords[d] || o > r.max.coords[d] {
                    return None;
                }
            } else {
                let inv = C::ONE / dv;
                let mut ta = (r.min.coords[d] - o) * inv;
                let mut tb = (r.max.coords[d] - o) * inv;
                if ta > tb {
                    std::mem::swap(&mut ta, &mut tb);
                }
                if ta > t0 {
                    t0 = ta;
                    entered_after_tmin = true;
                }
                t1 = t1.min_c(tb);
                if t0 > t1 {
                    return None;
                }
            }
        }
        if entered_after_tmin {
            Some(HitKind::Boundary)
        } else {
            // The ray was inside every slab at t = tmin: origin inside.
            Some(HitKind::OriginInside)
        }
    }

    /// Boolean form of [`Ray::intersect_aabb`].
    #[inline]
    pub fn hits_aabb(&self, r: &Rect<C, D>) -> bool {
        self.intersect_aabb(r).is_some()
    }

    /// *Conservative* ray–AABB test: the box is inflated by a few dozen
    /// ulps of its coordinate magnitude before the slab test.
    ///
    /// Real RT hardware performs watertight, conservative box tests —
    /// it may report rays that graze a box (which is exactly why the IS
    /// shader must re-check, footnote 2 of the paper) but must never
    /// miss a true intersection. A bit-exact slab test does not have
    /// that property in f32: a ray passing mathematically through a
    /// degenerate (zero-area) box can miss it by one ulp. `rtcore` uses
    /// this test for all hardware-side box tests; exactness is restored
    /// by the IS-shader predicate filters.
    #[inline]
    pub fn hits_aabb_conservative(&self, r: &Rect<C, D>) -> bool {
        self.entry_t_conservative(r).is_some()
    }

    /// Conservative ray–AABB test returning the clipped entry parameter
    /// `t_enter` on a hit (`tmin` for a Case-2 origin-inside hit).
    ///
    /// Uses the exact same box inflation as
    /// [`Ray::hits_aabb_conservative`], so the hit/miss verdicts of the
    /// two functions are identical bit for bit — the wide-BVH traversal
    /// relies on this to order children near-to-far without
    /// changing which subtrees are visited.
    #[inline]
    pub fn entry_t_conservative(&self, r: &Rect<C, D>) -> Option<C> {
        self.entry_t(&r.inflated_conservative())
    }

    /// Slab-clip of the ray against `r`, returning the entry parameter
    /// `t_enter ∈ [tmin, tmax]` on a hit. The hit/miss verdict is
    /// identical to [`Ray::intersect_aabb`]; the returned value is
    /// `tmin` exactly when that function reports
    /// [`HitKind::OriginInside`].
    #[inline]
    pub fn entry_t(&self, r: &Rect<C, D>) -> Option<C> {
        let mut t0 = self.tmin;
        let mut t1 = self.tmax;
        for d in 0..D {
            let o = self.origin.coords[d];
            let dv = self.dir.coords[d];
            if dv == C::ZERO {
                if o < r.min.coords[d] || o > r.max.coords[d] {
                    return None;
                }
            } else {
                let inv = C::ONE / dv;
                let mut ta = (r.min.coords[d] - o) * inv;
                let mut tb = (r.max.coords[d] - o) * inv;
                if ta > tb {
                    std::mem::swap(&mut ta, &mut tb);
                }
                t0 = t0.max_c(ta);
                t1 = t1.min_c(tb);
                if t0 > t1 {
                    return None;
                }
            }
        }
        Some(t0)
    }
}

impl<C: Coord> Ray<C, 2> {
    /// Embeds a 2-D ray into 3-D at `z = 0` with zero z direction, the way
    /// `rtcore` lowers 2-D launches (OptiX is natively 3-D, §3.1).
    #[inline]
    pub fn lift(&self) -> Ray<C, 3> {
        Ray {
            origin: self.origin.lift(C::ZERO),
            dir: self.dir.lift(C::ZERO),
            tmin: self.tmin,
            tmax: self.tmax,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rect::Rect2f;
    use crate::segment::diagonal;

    fn r(a: f32, b: f32, c: f32, d: f32) -> Rect2f {
        Rect2f::xyxy(a, b, c, d)
    }

    #[test]
    fn case1_boundary_hit() {
        let ray = Ray2f::new(Point::xy(-1.0, 0.5), Point::xy(1.0, 0.0), 0.0, 10.0);
        assert_eq!(
            ray.intersect_aabb(&r(0.0, 0.0, 1.0, 1.0)),
            Some(HitKind::Boundary)
        );
    }

    #[test]
    fn case2_origin_inside() {
        let ray = Ray2f::new(Point::xy(0.5, 0.5), Point::xy(1.0, 0.0), 0.0, 10.0);
        assert_eq!(
            ray.intersect_aabb(&r(0.0, 0.0, 1.0, 1.0)),
            Some(HitKind::OriginInside)
        );
        // Case 2 holds even when tmax is tiny (the point-probe setting).
        let probe = Ray2f::point_probe(Point::xy(0.5, 0.5));
        assert_eq!(
            probe.intersect_aabb(&r(0.0, 0.0, 1.0, 1.0)),
            Some(HitKind::OriginInside)
        );
    }

    #[test]
    fn miss_outside_interval() {
        // Box is ahead of the ray but beyond tmax.
        let ray = Ray2f::new(Point::xy(-5.0, 0.5), Point::xy(1.0, 0.0), 0.0, 1.0);
        assert_eq!(ray.intersect_aabb(&r(0.0, 0.0, 1.0, 1.0)), None);
        // Box is behind the ray.
        let ray2 = Ray2f::new(Point::xy(5.0, 0.5), Point::xy(1.0, 0.0), 0.0, 10.0);
        assert_eq!(ray2.intersect_aabb(&r(0.0, 0.0, 1.0, 1.0)), None);
    }

    #[test]
    fn point_probe_false_positive_confinement() {
        // Origin outside the box: a probe ray must miss unless the box
        // boundary is within FLT_MIN — i.e. effectively touching.
        let probe = Ray2f::point_probe(Point::xy(2.0, 0.5));
        assert_eq!(probe.intersect_aabb(&r(0.0, 0.0, 1.0, 1.0)), None);
        // Origin exactly on the boundary counts as inside (closed box).
        let on_edge = Ray2f::point_probe(Point::xy(1.0, 0.5));
        assert_eq!(
            on_edge.intersect_aabb(&r(0.0, 0.0, 1.0, 1.0)),
            Some(HitKind::OriginInside)
        );
    }

    #[test]
    fn segment_ray_equivalence() {
        // A ray built from a segment hits exactly the boxes the segment
        // intersects.
        let x = r(0.0, 0.0, 2.0, 2.0);
        let seg = diagonal(&r(1.0, 1.0, 3.0, 3.0));
        let ray = Ray2f::from_segment(&seg);
        assert_eq!(seg.intersects_rect(&x), ray.hits_aabb(&x));
        let far = diagonal(&r(5.0, 5.0, 6.0, 6.0));
        assert_eq!(
            far.intersects_rect(&x),
            Ray2f::from_segment(&far).hits_aabb(&x)
        );
    }

    #[test]
    fn ray_at_and_bounds() {
        let ray = Ray2f::new(Point::xy(0.0, 0.0), Point::xy(2.0, 2.0), 0.0, 1.0);
        assert_eq!(ray.at(0.5), Point::xy(1.0, 1.0));
        assert_eq!(ray.bounds(), r(0.0, 0.0, 2.0, 2.0));
    }

    #[test]
    fn degenerate_box_unhittable_by_probe_elsewhere() {
        // Deletion trick (§4.2): zero-extent boxes are only hit by rays
        // whose origin coincides with them.
        let deg = r(1.0, 1.0, 1.0, 1.0);
        assert!(deg.is_degenerate());
        let probe = Ray2f::point_probe(Point::xy(0.5, 0.5));
        assert_eq!(probe.intersect_aabb(&deg), None);
    }

    #[test]
    fn axis_parallel_ray_on_slab_boundary() {
        let ray = Ray2f::new(Point::xy(0.0, 1.0), Point::xy(1.0, 0.0), 0.0, 10.0);
        // Ray travels exactly along the top edge of the box: closed-box
        // semantics count it as intersecting.
        assert!(ray.hits_aabb(&r(0.0, 0.0, 1.0, 1.0)));
    }

    #[test]
    fn validity() {
        assert!(Ray2f::point_probe(Point::xy(0.0, 0.0)).is_valid());
        let bad = Ray2f::new(Point::xy(f32::NAN, 0.0), Point::xy(1.0, 0.0), 0.0, 1.0);
        assert!(!bad.is_valid());
        let inverted = Ray2f::new(Point::xy(0.0, 0.0), Point::xy(1.0, 0.0), 1.0, 0.0);
        assert!(!inverted.is_valid());
    }

    #[test]
    fn entry_t_agrees_with_boolean_test() {
        // entry_t_conservative must give the exact same hit/miss verdict
        // as hits_aabb_conservative, and its t is ordered front-to-back.
        let ray = Ray2f::new(Point::xy(-1.0, 0.5), Point::xy(1.0, 0.0), 0.0, 100.0);
        let near = r(0.0, 0.0, 1.0, 1.0);
        let far = r(5.0, 0.0, 6.0, 1.0);
        let miss = r(0.0, 5.0, 1.0, 6.0);
        let t_near = ray.entry_t_conservative(&near).unwrap();
        let t_far = ray.entry_t_conservative(&far).unwrap();
        assert!(t_near < t_far);
        assert_eq!(ray.entry_t_conservative(&miss), None);
        // Case-2 origin-inside clips to tmin.
        let inside = Ray2f::new(Point::xy(0.5, 0.5), Point::xy(1.0, 0.0), 0.0, 10.0);
        assert_eq!(inside.entry_t(&near), Some(0.0));
        // Degenerate box grazing: conservative variants agree.
        let deg = r(1.0, 1.0, 1.0, 1.0);
        let probe = Ray2f::point_probe(Point::xy(1.0, 1.0));
        assert_eq!(
            probe.hits_aabb_conservative(&deg),
            probe.entry_t_conservative(&deg).is_some()
        );
    }

    #[test]
    fn lift_to_3d() {
        let ray = Ray2f::new(Point::xy(1.0, 2.0), Point::xy(3.0, 4.0), 0.0, 1.0);
        let l = ray.lift();
        assert_eq!(l.origin.z(), 0.0);
        assert_eq!(l.dir.z(), 0.0);
        assert_eq!(l.tmax, 1.0);
    }
}
