//! Axis-aligned rectangles / boxes and the spatial predicates of the paper.
//!
//! `Rect<C, D>` doubles as the user-facing geometry (the `rect_t` of the
//! paper's API) and as the AABB primitive handed to the RT runtime.

use crate::coord::Coord;
use crate::point::Point;

/// An axis-aligned box in `D` dimensions, defined by its minimum and
/// maximum corners (Figure 1 of the paper).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Rect<C: Coord, const D: usize> {
    /// Minimum corner.
    pub min: Point<C, D>,
    /// Maximum corner.
    pub max: Point<C, D>,
}

/// 2-D `f32` rectangle, the common case in the paper's evaluation.
pub type Rect2f = Rect<f32, 2>;
/// 3-D `f32` box.
pub type Rect3f = Rect<f32, 3>;
/// 2-D `f64` rectangle.
pub type Rect2d = Rect<f64, 2>;

impl<C: Coord, const D: usize> Default for Rect<C, D> {
    /// The *empty* rectangle: min = +MAX, max = -MAX, so that unioning any
    /// rectangle into it yields that rectangle.
    fn default() -> Self {
        Self::empty()
    }
}

impl<C: Coord, const D: usize> Rect<C, D> {
    /// Creates a rect from corner points. Debug-asserts `min <= max` per
    /// dimension; use [`Rect::from_corners`] for unordered input.
    #[inline]
    pub fn new(min: Point<C, D>, max: Point<C, D>) -> Self {
        debug_assert!(
            (0..D).all(|d| min.coords[d] <= max.coords[d]),
            "Rect::new requires min <= max; got {min:?} > {max:?}"
        );
        Self { min, max }
    }

    /// Creates a rect from two arbitrary corner points, ordering each axis.
    #[inline]
    pub fn from_corners(a: Point<C, D>, b: Point<C, D>) -> Self {
        Self {
            min: a.min(&b),
            max: a.max(&b),
        }
    }

    /// The empty rectangle (identity for [`Rect::union`]).
    #[inline]
    pub fn empty() -> Self {
        Self {
            min: Point::splat(C::MAX),
            max: Point::splat(C::MIN),
        }
    }

    /// A degenerate rectangle covering exactly one point.
    #[inline]
    pub fn point(p: Point<C, D>) -> Self {
        Self { min: p, max: p }
    }

    /// `true` when the rectangle encloses no point (some `min > max`).
    #[inline]
    pub fn is_empty(&self) -> bool {
        (0..D).any(|d| self.min.coords[d] > self.max.coords[d])
    }

    /// `true` when every coordinate is finite and `min <= max`.
    #[inline]
    pub fn is_valid(&self) -> bool {
        self.min.is_finite() && self.max.is_finite() && !self.is_empty()
    }

    /// `true` when the rectangle has zero extent on at least one axis.
    /// Deletion in LibRTS marks rectangles degenerate (§4.2) so that refit
    /// keeps them but rays can no longer hit them.
    #[inline]
    pub fn is_degenerate(&self) -> bool {
        (0..D).any(|d| self.min.coords[d] >= self.max.coords[d])
    }

    /// The center point (used by the Range-Contains reduction, §3.2).
    #[inline]
    pub fn center(&self) -> Point<C, D> {
        self.min.midpoint(&self.max)
    }

    /// Extent along dimension `d`.
    #[inline]
    pub fn extent(&self, d: usize) -> C {
        self.max.coords[d] - self.min.coords[d]
    }

    /// Product of all extents (area in 2-D, volume in 3-D).
    #[inline]
    pub fn area(&self) -> C {
        let mut a = C::ONE;
        for d in 0..D {
            let e = self.extent(d);
            if e < C::ZERO {
                return C::ZERO;
            }
            a = a * e;
        }
        a
    }

    /// Half the surface measure: perimeter/2 in 2-D, surface-area/2 in 3-D.
    /// This is the standard SAH weight used by BVH builders.
    #[inline]
    pub fn half_perimeter(&self) -> C {
        if self.is_empty() {
            return C::ZERO;
        }
        match D {
            2 => self.extent(0) + self.extent(1),
            3 => {
                let (x, y, z) = (self.extent(0), self.extent(1), self.extent(2));
                x * y + y * z + z * x
            }
            _ => (0..D).map(|d| self.extent(d)).sum(),
        }
    }

    /// Point-containment predicate `Contains(r, p)` (Definition 1):
    /// inclusive on all boundaries.
    #[inline]
    pub fn contains_point(&self, p: &Point<C, D>) -> bool {
        (0..D).all(|d| self.min.coords[d] <= p.coords[d] && p.coords[d] <= self.max.coords[d])
    }

    /// Rectangle-containment predicate `Contains(r1, r2)` (Definition 2):
    /// `r2` lies inside `self`, and `r2` is non-degenerate on every axis
    /// (the definition requires `r2.min < r2.max` strictly).
    #[inline]
    pub fn contains_rect(&self, r2: &Self) -> bool {
        (0..D).all(|d| {
            self.min.coords[d] <= r2.min.coords[d]
                && r2.min.coords[d] < r2.max.coords[d]
                && r2.max.coords[d] <= self.max.coords[d]
        })
    }

    /// Rectangle-intersection predicate `Intersects(r1, r2)`
    /// (Definition 3): inclusive — touching boundaries intersect.
    #[inline]
    pub fn intersects(&self, r2: &Self) -> bool {
        (0..D).all(|d| {
            self.min.coords[d] <= r2.max.coords[d] && self.max.coords[d] >= r2.min.coords[d]
        })
    }

    /// Smallest rectangle enclosing both operands.
    #[inline]
    pub fn union(&self, other: &Self) -> Self {
        Self {
            min: self.min.min(&other.min),
            max: self.max.max(&other.max),
        }
    }

    /// Grows the rectangle to enclose `p`.
    #[inline]
    pub fn expand_point(&mut self, p: &Point<C, D>) {
        self.min = self.min.min(p);
        self.max = self.max.max(p);
    }

    /// Grows the rectangle to enclose `other`.
    #[inline]
    pub fn expand(&mut self, other: &Self) {
        self.min = self.min.min(&other.min);
        self.max = self.max.max(&other.max);
    }

    /// The overlap region, or `None` when disjoint.
    #[inline]
    pub fn intersection(&self, other: &Self) -> Option<Self> {
        let min = self.min.max(&other.min);
        let max = self.max.min(&other.max);
        if (0..D).all(|d| min.coords[d] <= max.coords[d]) {
            Some(Self { min, max })
        } else {
            None
        }
    }

    /// Area of overlap with `other` (zero when disjoint).
    #[inline]
    pub fn overlap_area(&self, other: &Self) -> C {
        match self.intersection(other) {
            Some(r) => r.area(),
            None => C::ZERO,
        }
    }

    /// Uniformly scales and translates so that the reference frame `frame`
    /// maps to the unit box `[0,1]^D`. Used by Ray Multicast (§3.4), which
    /// normalizes coordinates before assigning sub-space offsets.
    #[inline]
    pub fn normalize_within(&self, frame: &Self) -> Self {
        let mut out = *self;
        for d in 0..D {
            let lo = frame.min.coords[d];
            let ext = frame.max.coords[d] - frame.min.coords[d];
            let inv = if ext > C::ZERO { C::ONE / ext } else { C::ZERO };
            out.min.coords[d] = (self.min.coords[d] - lo) * inv;
            out.max.coords[d] = (self.max.coords[d] - lo) * inv;
        }
        out
    }

    /// Translates by `offset`.
    #[inline]
    pub fn translated(&self, offset: &Point<C, D>) -> Self {
        Self {
            min: self.min + *offset,
            max: self.max + *offset,
        }
    }

    /// Scales both corners about the origin.
    #[inline]
    pub fn scaled(&self, s: C) -> Self {
        Self::from_corners(self.min * s, self.max * s)
    }

    /// Scales about the center, preserving the center point. `s = 1` is a
    /// no-op, `s > 1` enlarges, `s < 1` shrinks (§6.7 grow/shrink updates).
    #[inline]
    pub fn scaled_about_center(&self, s: C) -> Self {
        let c = self.center();
        let half = (self.max - self.min) * (s * C::HALF);
        Self::from_corners(c - half, c + half)
    }

    /// Collapses the rectangle on every axis to its minimum corner — the
    /// paper's deletion trick (§4.2): zero-extent AABBs cannot be hit.
    #[inline]
    pub fn degenerated(&self) -> Self {
        Self {
            min: self.min,
            max: self.min,
        }
    }

    /// The conservatively inflated box the simulated RT core actually
    /// slab-tests: each axis padded by a few dozen ulps of its
    /// coordinate magnitude (see [`crate::Ray::hits_aabb_conservative`]
    /// for why the hardware test must be conservative).
    ///
    /// This is the *exact* inflation applied by
    /// [`crate::Ray::entry_t_conservative`] — the wide-BVH traversal
    /// bakes it into its stored slot bounds at collapse/refit time so
    /// its inner loop runs the plain slab test, and the hit/miss
    /// verdicts stay bit-identical to the binary walk's.
    #[inline]
    pub fn inflated_conservative(&self) -> Self {
        let scale = C::from_f64(64.0) * C::EPSILON;
        let mut infl = *self;
        for d in 0..D {
            let mag = self.min.coords[d]
                .abs()
                .max_c(self.max.coords[d].abs())
                .max_c(C::ONE);
            let pad = mag * scale;
            infl.min.coords[d] -= pad;
            infl.max.coords[d] += pad;
        }
        infl
    }

    /// Converts corners to `f64`.
    #[inline]
    pub fn to_f64(&self) -> Rect<f64, D> {
        Rect {
            min: self.min.to_f64(),
            max: self.max.to_f64(),
        }
    }

    /// Builds from `f64` corners.
    #[inline]
    pub fn from_f64(r: &Rect<f64, D>) -> Self {
        Self {
            min: Point::from_f64(&r.min),
            max: Point::from_f64(&r.max),
        }
    }

    /// Bounding box of an iterator of rects (empty rect for an empty
    /// iterator).
    pub fn bounding_all<'a>(rects: impl IntoIterator<Item = &'a Self>) -> Self
    where
        C: 'a,
    {
        let mut out = Self::empty();
        for r in rects {
            out.expand(r);
        }
        out
    }
}

impl<C: Coord> Rect<C, 2> {
    /// Shorthand 2-D constructor from scalar corner coordinates.
    #[inline]
    pub fn xyxy(xmin: C, ymin: C, xmax: C, ymax: C) -> Self {
        Self::new(Point::xy(xmin, ymin), Point::xy(xmax, ymax))
    }

    /// The four corner points in CCW order starting at the min corner.
    #[inline]
    pub fn corners(&self) -> [Point<C, 2>; 4] {
        [
            Point::xy(self.min.x(), self.min.y()),
            Point::xy(self.max.x(), self.min.y()),
            Point::xy(self.max.x(), self.max.y()),
            Point::xy(self.min.x(), self.max.y()),
        ]
    }

    /// Embeds into 3-D as a slab `[zmin, zmax]` on the z axis.
    #[inline]
    pub fn lift(&self, zmin: C, zmax: C) -> Rect<C, 3> {
        Rect {
            min: self.min.lift(zmin),
            max: self.max.lift(zmax),
        }
    }
}

impl<C: Coord> Rect<C, 3> {
    /// Shorthand 3-D constructor from scalar corner coordinates.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn xyzxyz(xmin: C, ymin: C, zmin: C, xmax: C, ymax: C, zmax: C) -> Self {
        Self::new(Point::xyz(xmin, ymin, zmin), Point::xyz(xmax, ymax, zmax))
    }

    /// Projects to 2-D by dropping the z axis.
    #[inline]
    pub fn drop_z(&self) -> Rect<C, 2> {
        Rect {
            min: self.min.drop_z(),
            max: self.max.drop_z(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(a: f32, b: f32, c: f32, d: f32) -> Rect2f {
        Rect2f::xyxy(a, b, c, d)
    }

    #[test]
    fn empty_identity_for_union() {
        let e = Rect2f::empty();
        assert!(e.is_empty());
        let x = r(0.0, 0.0, 1.0, 1.0);
        assert_eq!(e.union(&x), x);
        assert_eq!(x.union(&e), x);
    }

    #[test]
    fn contains_point_inclusive_boundaries() {
        let x = r(0.0, 0.0, 2.0, 2.0);
        assert!(x.contains_point(&Point::xy(1.0, 1.0)));
        assert!(x.contains_point(&Point::xy(0.0, 0.0)));
        assert!(x.contains_point(&Point::xy(2.0, 2.0)));
        assert!(x.contains_point(&Point::xy(0.0, 2.0)));
        assert!(!x.contains_point(&Point::xy(2.0001, 1.0)));
        assert!(!x.contains_point(&Point::xy(-0.0001, 1.0)));
    }

    #[test]
    fn contains_rect_definition2() {
        let outer = r(0.0, 0.0, 10.0, 10.0);
        assert!(outer.contains_rect(&r(1.0, 1.0, 2.0, 2.0)));
        // Touching the outer boundary still counts (<=).
        assert!(outer.contains_rect(&r(0.0, 0.0, 10.0, 10.0)));
        // Inner must be strictly non-degenerate (min < max).
        assert!(!outer.contains_rect(&r(5.0, 5.0, 5.0, 6.0)));
        // Partially outside.
        assert!(!outer.contains_rect(&r(9.0, 9.0, 11.0, 11.0)));
    }

    #[test]
    fn intersects_definition3() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        assert!(a.intersects(&r(1.0, 1.0, 3.0, 3.0)));
        // Touching edges intersect (inclusive comparisons).
        assert!(a.intersects(&r(2.0, 0.0, 4.0, 2.0)));
        // Touching corner.
        assert!(a.intersects(&r(2.0, 2.0, 3.0, 3.0)));
        assert!(!a.intersects(&r(2.1, 0.0, 4.0, 2.0)));
        // Containment is a special case of intersection.
        assert!(a.intersects(&r(0.5, 0.5, 1.5, 1.5)));
        assert!(r(0.5, 0.5, 1.5, 1.5).intersects(&a));
    }

    #[test]
    fn intersects_is_symmetric() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        let b = r(1.0, -1.0, 3.0, 1.0);
        assert_eq!(a.intersects(&b), b.intersects(&a));
    }

    #[test]
    fn center_and_area() {
        let x = r(0.0, 0.0, 4.0, 2.0);
        assert_eq!(x.center(), Point::xy(2.0, 1.0));
        assert_eq!(x.area(), 8.0);
        assert_eq!(x.half_perimeter(), 6.0);
    }

    #[test]
    fn intersection_and_overlap() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        let b = r(1.0, 1.0, 3.0, 3.0);
        assert_eq!(a.intersection(&b), Some(r(1.0, 1.0, 2.0, 2.0)));
        assert_eq!(a.overlap_area(&b), 1.0);
        assert_eq!(a.intersection(&r(5.0, 5.0, 6.0, 6.0)), None);
        assert_eq!(a.overlap_area(&r(5.0, 5.0, 6.0, 6.0)), 0.0);
    }

    #[test]
    fn normalize_within_unit_frame() {
        let frame = r(0.0, 0.0, 10.0, 20.0);
        let x = r(5.0, 10.0, 10.0, 20.0);
        let n = x.normalize_within(&frame);
        assert_eq!(n, r(0.5, 0.5, 1.0, 1.0));
    }

    #[test]
    fn degenerate_deletion_trick() {
        let x = r(1.0, 1.0, 2.0, 2.0);
        let d = x.degenerated();
        assert!(d.is_degenerate());
        assert_eq!(d.min, d.max);
        // The degenerate rect still "contains" its own corner point, but
        // contains_rect (Definition 2) can never be true for it as the
        // inner operand.
        assert!(!r(0.0, 0.0, 5.0, 5.0).contains_rect(&d));
    }

    #[test]
    fn scale_about_center() {
        let x = r(0.0, 0.0, 2.0, 2.0);
        let g = x.scaled_about_center(2.0);
        assert_eq!(g, r(-1.0, -1.0, 3.0, 3.0));
        assert_eq!(g.center(), x.center());
        let s = x.scaled_about_center(0.0);
        assert!(s.is_degenerate());
        assert_eq!(s.center(), x.center());
    }

    #[test]
    fn corners_ccw() {
        let x = r(0.0, 0.0, 1.0, 2.0);
        let c = x.corners();
        assert_eq!(c[0], Point::xy(0.0, 0.0));
        assert_eq!(c[2], Point::xy(1.0, 2.0));
        // CCW orientation: positive doubled area via the shoelace formula.
        let mut area2 = 0.0f32;
        for i in 0..4 {
            let j = (i + 1) % 4;
            area2 += c[i].x() * c[j].y() - c[j].x() * c[i].y();
        }
        assert!(area2 > 0.0);
    }

    #[test]
    fn lift_and_drop() {
        let x = r(0.0, 1.0, 2.0, 3.0);
        let l = x.lift(-0.5, 0.5);
        assert_eq!(l.min.z(), -0.5);
        assert_eq!(l.drop_z(), x);
    }

    #[test]
    fn validity_checks() {
        assert!(r(0.0, 0.0, 1.0, 1.0).is_valid());
        assert!(!Rect2f::empty().is_valid());
        let nan = Rect2f {
            min: Point::xy(f32::NAN, 0.0),
            max: Point::xy(1.0, 1.0),
        };
        assert!(!nan.is_valid());
    }

    #[test]
    fn bounding_all_of_rects() {
        let rs = [r(0.0, 0.0, 1.0, 1.0), r(2.0, -1.0, 3.0, 0.5)];
        assert_eq!(Rect2f::bounding_all(rs.iter()), r(0.0, -1.0, 3.0, 1.0));
        assert!(Rect2f::bounding_all([].iter()).is_empty());
    }
}
