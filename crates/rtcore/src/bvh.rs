//! Bounding Volume Hierarchy over AABB primitives.
//!
//! This is the opaque acceleration structure OptiX builds on the device
//! (§2.3). Two build paths are provided: a binned-SAH builder (the
//! quality path — closest to what the driver's default build produces)
//! and a Morton-ordered fast build (the `PREFER_FAST_BUILD` path, also
//! the algorithm of the LBVH baseline [28]). Refit updates node bounds
//! bottom-up without restructuring, exactly like OptiX BVH refitting.

use std::sync::Mutex;

use geom::{Coord, Ray, Rect};

use crate::stats::RayStats;

/// Number of SAH bins per axis in the binned builder.
const SAH_BINS: usize = 16;

/// Primitive count below which a subtree is built sequentially as one
/// task; also the gate for engaging the parallel builder at all.
const PAR_TASK_MIN: usize = 2048;

/// Depth cap for the sequential spine; below this the remainder becomes
/// one task (the task recursion then matches the sequential builder).
const SPINE_MAX_DEPTH: usize = 32;

/// One BVH node. Nodes are stored in pre-order: an internal node's left
/// child is `self + 1` and its right child index is stored explicitly, so
/// every child index is strictly greater than its parent's — which makes
/// reverse-index iteration a valid bottom-up order for refit.
#[derive(Clone, Copy, Debug)]
pub struct Node<C: Coord> {
    /// Bounds enclosing the entire subtree.
    pub bounds: Rect<C, 3>,
    /// Internal: right-child index. Leaf: first index into `prim_order`.
    pub right_or_first: u32,
    /// 0 for internal nodes; number of primitives for leaves.
    pub count: u32,
}

impl<C: Coord> Node<C> {
    /// `true` if this node is a leaf.
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.count > 0
    }
}

/// Build-quality selector, mirroring OptiX build flags.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum BuildQuality {
    /// Binned SAH — better traversal, slower build (`PREFER_FAST_TRACE`).
    #[default]
    PreferFastTrace,
    /// Morton-ordered median split (`PREFER_FAST_BUILD`); same algorithm
    /// family as LBVH [28].
    PreferFastBuild,
}

/// A BVH over a set of AABB primitives.
///
/// `prim_order[i]` maps the i-th leaf slot back to the user's primitive
/// index (what `optixGetPrimitiveIndex` reports).
#[derive(Clone, Debug)]
pub struct Bvh<C: Coord> {
    /// Flat pre-order node array; `nodes[0]` is the root.
    pub nodes: Vec<Node<C>>,
    /// Leaf-slot → user primitive index permutation.
    pub prim_order: Vec<u32>,
    /// Max primitives per leaf used at build time.
    pub leaf_size: usize,
}

/// Traversal control returned by the per-primitive callback.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Control {
    /// Keep traversing.
    Continue,
    /// Stop the whole traversal (e.g. any-hit satisfied).
    Terminate,
}

impl<C: Coord> Bvh<C> {
    /// Builds a BVH over `aabbs` with the given quality and leaf size.
    /// Degenerate (zero-extent) boxes are allowed — the §4.2 deletion
    /// trick depends on them being retained but unhittable by real rays.
    pub fn build(aabbs: &[Rect<C, 3>], quality: BuildQuality, leaf_size: usize) -> Self {
        assert!(leaf_size >= 1);
        let n = aabbs.len();
        if n == 0 {
            return Self {
                nodes: Vec::new(),
                prim_order: Vec::new(),
                leaf_size,
            };
        }
        let mut order: Vec<u32> = (0..n as u32).collect();
        let centers: Vec<[f64; 3]> = aabbs
            .iter()
            .map(|r| {
                let c = r.center();
                [c.x().to_f64(), c.y().to_f64(), c.z().to_f64()]
            })
            .collect();

        if quality == BuildQuality::PreferFastBuild {
            // Morton-order the primitives once; splits become range halving.
            let frame = Rect::bounding_all(aabbs.iter());
            let frame64 = frame.to_f64();
            let mut keyed: Vec<(u64, u32)> = order
                .iter()
                .map(|&i| {
                    let c = centers[i as usize];
                    let p = geom::Point::xyz(c[0], c[1], c[2]);
                    (geom::morton::morton_of_point_3d(&p, &frame64), i)
                })
                .collect();
            // Stable parallel radix sort: tie order is the input order, so
            // the permutation is a pure function of the keys — identical at
            // any thread count (an unstable parallel sort would not be).
            exec::radix::par_sort_by_u64_key(&mut keyed);
            for (slot, &(_, i)) in keyed.iter().enumerate() {
                order[slot] = i;
            }
        }

        let builder = Builder {
            aabbs,
            centers: &centers,
            quality,
            leaf_size,
        };
        // Upper bound on node count for a binary tree with >=1 prim leaves.
        let mut nodes = Vec::with_capacity(2 * n);
        if exec::current_threads() > 1 && n > PAR_TASK_MIN {
            builder.build_parallel(&mut nodes, &mut order);
        } else {
            builder.build_node(&mut nodes, &mut order, 0);
        }
        Self {
            nodes,
            prim_order: order,
            leaf_size,
        }
    }

    /// `true` when the BVH indexes no primitives.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of primitives indexed.
    #[inline]
    pub fn len(&self) -> usize {
        self.prim_order.len()
    }

    /// Root bounds (empty rect when the BVH is empty).
    #[inline]
    pub fn root_bounds(&self) -> Rect<C, 3> {
        self.nodes.first().map_or_else(Rect::empty, |n| n.bounds)
    }

    /// Refits node bounds to the (updated) primitive AABBs without
    /// restructuring — OptiX BVH refitting (§2.4, §4.2). O(nodes); the
    /// tree topology and `prim_order` are unchanged, so quality can
    /// degrade if primitives moved far (§6.7).
    pub fn refit(&mut self, aabbs: &[Rect<C, 3>]) {
        debug_assert_eq!(aabbs.len(), self.prim_order.len());
        for i in (0..self.nodes.len()).rev() {
            let node = self.nodes[i];
            let bounds = if node.is_leaf() {
                let first = node.right_or_first as usize;
                let mut b = Rect::empty();
                for slot in first..first + node.count as usize {
                    b.expand(&aabbs[self.prim_order[slot] as usize]);
                }
                b
            } else {
                let left = self.nodes[i + 1].bounds;
                let right = self.nodes[node.right_or_first as usize].bounds;
                left.union(&right)
            };
            self.nodes[i].bounds = bounds;
        }
    }

    /// Core single-ray traversal with an explicit stack. Invokes
    /// `on_prim(user_prim_index)` for every primitive whose AABB the ray
    /// hits (the "potential hit" that triggers the IS shader). Counters
    /// model the hardware: one `nodes_visited` per node popped, one
    /// `prim_tests` per primitive box test, `is_calls` counted by the
    /// caller when it actually invokes the shader.
    pub fn traverse<F>(
        &self,
        ray: &Ray<C, 3>,
        aabbs: &[Rect<C, 3>],
        stats: &mut RayStats,
        mut on_prim: F,
    ) -> Control
    where
        F: FnMut(u32, &mut RayStats) -> Control,
    {
        if self.nodes.is_empty() {
            return Control::Continue;
        }
        // Stack of node indices: a fixed inline array covers every sanely
        // balanced tree without allocating; adversarially deep trees spill
        // to the heap instead of silently corrupting traversal.
        let mut stack = TraversalStack::new();
        stack.push(0);
        while let Some(idx) = stack.pop() {
            let idx = idx as usize;
            let node = &self.nodes[idx];
            stats.nodes_visited += 1;
            if !ray.hits_aabb_conservative(&node.bounds) {
                continue;
            }
            if node.is_leaf() {
                let first = node.right_or_first as usize;
                for slot in first..first + node.count as usize {
                    let prim = self.prim_order[slot];
                    stats.prim_tests += 1;
                    if ray.hits_aabb_conservative(&aabbs[prim as usize])
                        && on_prim(prim, stats) == Control::Terminate
                    {
                        return Control::Terminate;
                    }
                }
            } else {
                stack.push(node.right_or_first);
                stack.push(idx as u32 + 1);
            }
        }
        Control::Continue
    }

    /// Structural validation: every primitive appears exactly once, every
    /// node's bounds enclose its subtree, children follow parents. Used
    /// by tests and debug assertions.
    pub fn validate(&self, aabbs: &[Rect<C, 3>]) -> Result<(), String> {
        if self.nodes.is_empty() {
            return if self.prim_order.is_empty() {
                Ok(())
            } else {
                Err("empty nodes but non-empty prim_order".into())
            };
        }
        let mut seen = vec![false; self.prim_order.len()];
        for &p in &self.prim_order {
            let p = p as usize;
            if p >= seen.len() || seen[p] {
                return Err(format!("primitive {p} duplicated or out of range"));
            }
            seen[p] = true;
        }
        if !seen.iter().all(|&s| s) {
            return Err("some primitive missing from prim_order".into());
        }
        for (i, node) in self.nodes.iter().enumerate() {
            if node.is_leaf() {
                let first = node.right_or_first as usize;
                let end = first + node.count as usize;
                if end > self.prim_order.len() {
                    return Err(format!("leaf {i} range {first}..{end} out of bounds"));
                }
                for slot in first..end {
                    let b = &aabbs[self.prim_order[slot] as usize];
                    if !enclose(&node.bounds, b) {
                        return Err(format!("leaf {i} does not enclose prim slot {slot}"));
                    }
                }
            } else {
                let l = i + 1;
                let r = node.right_or_first as usize;
                if l >= self.nodes.len() || r >= self.nodes.len() || r <= i {
                    return Err(format!("internal {i} has bad children {l},{r}"));
                }
                if !enclose(&node.bounds, &self.nodes[l].bounds)
                    || !enclose(&node.bounds, &self.nodes[r].bounds)
                {
                    return Err(format!("internal {i} does not enclose children"));
                }
            }
        }
        Ok(())
    }
}

/// LIFO of node indices with a fixed inline segment and a heap spill
/// drawn from the per-worker scratch arena. The inline segment covers
/// every balanced tree (depth 62 would need more than 2⁶² nodes) with
/// zero allocation; deeper, adversarially skewed trees overflow into a
/// pooled `Vec` whose capacity is reused across rays and launches
/// ([`crate::scratch`]), so even the spilling path allocates at most
/// once per worker thread. Shared by the binary and wide (BVH4)
/// walks. Invariant: `spill` is non-empty only while the
/// inline segment is full, so popping `spill` first preserves LIFO
/// order.
pub(crate) struct TraversalStack {
    inline: [u32; 64],
    sp: usize,
    spill: Vec<u32>,
}

impl TraversalStack {
    #[inline]
    pub(crate) fn new() -> Self {
        Self {
            inline: [0; 64],
            sp: 0,
            spill: crate::scratch::take_spill(),
        }
    }

    #[inline]
    pub(crate) fn push(&mut self, v: u32) {
        if self.sp < self.inline.len() {
            self.inline[self.sp] = v;
            self.sp += 1;
        } else {
            self.spill.push(v);
        }
    }

    #[inline]
    pub(crate) fn pop(&mut self) -> Option<u32> {
        if let Some(v) = self.spill.pop() {
            Some(v)
        } else if self.sp > 0 {
            self.sp -= 1;
            Some(self.inline[self.sp])
        } else {
            None
        }
    }
}

impl Drop for TraversalStack {
    fn drop(&mut self) {
        crate::scratch::put_spill(std::mem::take(&mut self.spill));
    }
}

#[inline]
fn enclose<C: Coord>(outer: &Rect<C, 3>, inner: &Rect<C, 3>) -> bool {
    if inner.is_empty() {
        return true;
    }
    (0..3).all(|d| {
        outer.min.coords[d] <= inner.min.coords[d] && inner.max.coords[d] <= outer.max.coords[d]
    })
}

struct Builder<'a, C: Coord> {
    aabbs: &'a [Rect<C, 3>],
    centers: &'a [[f64; 3]],
    quality: BuildQuality,
    leaf_size: usize,
}

/// Sequential spine of the parallel build: the top of the tree, split
/// with exactly the same decisions the sequential builder would make,
/// with subtrees below the task threshold left as frontier task ids.
enum Spine<C: Coord> {
    Internal {
        bounds: Rect<C, 3>,
        left: Box<Spine<C>>,
        right: Box<Spine<C>>,
    },
    Task(usize),
}

impl<C: Coord> Builder<'_, C> {
    /// Recursively builds the subtree over `order` (a sub-slice of the
    /// permutation), appending nodes in pre-order. `first` is the offset
    /// of `order` within the full permutation.
    fn build_node(&self, nodes: &mut Vec<Node<C>>, order: &mut [u32], first: u32) -> u32 {
        let my_idx = nodes.len() as u32;
        let mut bounds = Rect::empty();
        for &i in order.iter() {
            bounds.expand(&self.aabbs[i as usize]);
        }
        if order.len() <= self.leaf_size {
            nodes.push(Node {
                bounds,
                right_or_first: first,
                count: order.len() as u32,
            });
            return my_idx;
        }
        let mid = match self.quality {
            BuildQuality::PreferFastBuild => order.len() / 2,
            BuildQuality::PreferFastTrace => self.sah_split(order, &bounds),
        };
        nodes.push(Node {
            bounds,
            right_or_first: 0, // patched after the left subtree is built
            count: 0,
        });
        let (left, right) = order.split_at_mut(mid);
        self.build_node(nodes, left, first);
        let right_idx = self.build_node(nodes, right, first + mid as u32);
        nodes[my_idx as usize].right_or_first = right_idx;
        my_idx
    }

    /// Parallel build producing a node array **byte-identical** to
    /// [`Builder::build_node`] at any thread count: the spine is split
    /// sequentially (same decisions, same `order` mutations), frontier
    /// subtrees are built in parallel into task-local vectors, and
    /// [`Builder::emit`] splices them back in exact pre-order, patching
    /// internal child indices by each task's base offset.
    fn build_parallel(&self, nodes: &mut Vec<Node<C>>, order: &mut [u32]) {
        // Aim for ~8 tasks per thread so stealing can smooth skew, but
        // never fork below PAR_TASK_MIN (task overhead) or leaf_size.
        let task_min = (order.len() / (exec::current_threads() * 8))
            .max(PAR_TASK_MIN)
            .max(self.leaf_size);
        let mut tasks: Vec<Mutex<(&mut [u32], u32)>> = Vec::new();
        let spine = self.split_spine(order, 0, task_min, 0, &mut tasks);
        let built: Vec<Option<Vec<Node<C>>>> = exec::map_collect(tasks.len(), 1, |t| {
            // Each task is claimed exactly once; the Mutex only exists to
            // hand the `&mut` sub-slice across the fan-out.
            let mut guard = tasks[t].lock().unwrap();
            let (slice, first) = &mut *guard;
            let mut sub = Vec::with_capacity(2 * slice.len());
            self.build_node(&mut sub, slice, *first);
            Some(sub)
        });
        let mut built = built;
        self.emit(nodes, spine, &mut built);
    }

    /// Splits the top of the tree sequentially, pushing sub-slices at or
    /// below `task_min` primitives as frontier tasks. Split decisions and
    /// `order` mutations are exactly those of the sequential builder
    /// (each decision reads only its own sub-slice).
    fn split_spine<'o>(
        &self,
        order: &'o mut [u32],
        first: u32,
        task_min: usize,
        depth: usize,
        tasks: &mut Vec<Mutex<(&'o mut [u32], u32)>>,
    ) -> Spine<C> {
        if order.len() <= task_min || depth >= SPINE_MAX_DEPTH {
            tasks.push(Mutex::new((order, first)));
            return Spine::Task(tasks.len() - 1);
        }
        let mut bounds = Rect::empty();
        for &i in order.iter() {
            bounds.expand(&self.aabbs[i as usize]);
        }
        // len > task_min ≥ leaf_size, so the sequential builder would also
        // make this an internal node with this exact split.
        let mid = match self.quality {
            BuildQuality::PreferFastBuild => order.len() / 2,
            BuildQuality::PreferFastTrace => self.sah_split(order, &bounds),
        };
        let (left, right) = order.split_at_mut(mid);
        let left = self.split_spine(left, first, task_min, depth + 1, tasks);
        let right = self.split_spine(right, first + mid as u32, task_min, depth + 1, tasks);
        Spine::Internal {
            bounds,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// Splices spine nodes and task-local subtrees into the final pre-order
    /// array. Leaf `right_or_first` values are absolute already (tasks get
    /// their absolute `first`); internal ones are task-local and shift by
    /// the task's base index.
    fn emit(
        &self,
        nodes: &mut Vec<Node<C>>,
        spine: Spine<C>,
        built: &mut [Option<Vec<Node<C>>>],
    ) -> u32 {
        match spine {
            Spine::Task(id) => {
                let base = nodes.len() as u32;
                for mut node in built[id].take().expect("task emitted once") {
                    if !node.is_leaf() {
                        node.right_or_first += base;
                    }
                    nodes.push(node);
                }
                base
            }
            Spine::Internal {
                bounds,
                left,
                right,
            } => {
                let my_idx = nodes.len() as u32;
                nodes.push(Node {
                    bounds,
                    right_or_first: 0, // patched below
                    count: 0,
                });
                self.emit(nodes, *left, built);
                let right_idx = self.emit(nodes, *right, built);
                nodes[my_idx as usize].right_or_first = right_idx;
                my_idx
            }
        }
    }

    /// Binned SAH split: picks the axis/bin boundary minimizing
    /// `SA(L)·|L| + SA(R)·|R|`, then partitions `order`. Returns the
    /// split position (guaranteed in `1..len`).
    fn sah_split(&self, order: &mut [u32], _bounds: &Rect<C, 3>) -> usize {
        let n = order.len();
        // Centroid bounds decide the binning frame.
        let mut cmin = [f64::MAX; 3];
        let mut cmax = [f64::MIN; 3];
        for &i in order.iter() {
            let c = self.centers[i as usize];
            for d in 0..3 {
                cmin[d] = cmin[d].min(c[d]);
                cmax[d] = cmax[d].max(c[d]);
            }
        }
        let mut best: Option<(usize, f64, f64)> = None; // (axis, threshold, cost)
        for axis in 0..3 {
            let span = cmax[axis] - cmin[axis];
            if span <= 0.0 {
                continue;
            }
            let inv = SAH_BINS as f64 / span;
            let mut bin_bounds = [Rect::<C, 3>::empty(); SAH_BINS];
            let mut bin_count = [0usize; SAH_BINS];
            for &i in order.iter() {
                let b = (((self.centers[i as usize][axis] - cmin[axis]) * inv) as usize)
                    .min(SAH_BINS - 1);
                bin_bounds[b].expand(&self.aabbs[i as usize]);
                bin_count[b] += 1;
            }
            // Sweep: suffix areas then prefix scan.
            let mut right_area = [0.0f64; SAH_BINS];
            let mut acc = Rect::<C, 3>::empty();
            for b in (1..SAH_BINS).rev() {
                acc.expand(&bin_bounds[b]);
                right_area[b] = acc.half_perimeter().to_f64();
            }
            let mut left = Rect::<C, 3>::empty();
            let mut left_count = 0usize;
            for b in 0..SAH_BINS - 1 {
                left.expand(&bin_bounds[b]);
                left_count += bin_count[b];
                if left_count == 0 || left_count == n {
                    continue;
                }
                let cost = left.half_perimeter().to_f64() * left_count as f64
                    + right_area[b + 1] * (n - left_count) as f64;
                if best.is_none_or(|(_, _, c)| cost < c) {
                    let threshold = cmin[axis] + (b + 1) as f64 / inv;
                    best = Some((axis, threshold, cost));
                }
            }
        }
        match best {
            Some((axis, threshold, _)) => {
                let mid = partition(order, |i| self.centers[i as usize][axis] < threshold);
                if mid == 0 || mid == n {
                    // All centroids landed in one bin half; fall back to a
                    // median split to guarantee progress.
                    self.median_split(order)
                } else {
                    mid
                }
            }
            // All centroids coincide on every axis: arbitrary halving.
            None => n / 2,
        }
    }

    fn median_split(&self, order: &mut [u32]) -> usize {
        // Split on the widest centroid axis at the median element.
        let mut cmin = [f64::MAX; 3];
        let mut cmax = [f64::MIN; 3];
        for &i in order.iter() {
            let c = self.centers[i as usize];
            for d in 0..3 {
                cmin[d] = cmin[d].min(c[d]);
                cmax[d] = cmax[d].max(c[d]);
            }
        }
        let axis = (0..3)
            .max_by(|&a, &b| {
                (cmax[a] - cmin[a])
                    .partial_cmp(&(cmax[b] - cmin[b]))
                    .unwrap()
            })
            .unwrap();
        let mid = order.len() / 2;
        order.select_nth_unstable_by(mid, |&a, &b| {
            self.centers[a as usize][axis]
                .partial_cmp(&self.centers[b as usize][axis])
                .unwrap()
        });
        mid
    }
}

/// In-place stable-enough partition: moves elements satisfying `pred` to
/// the front, returns the boundary.
fn partition<T: Copy, F: Fn(T) -> bool>(xs: &mut [T], pred: F) -> usize {
    let mut i = 0;
    for j in 0..xs.len() {
        if pred(xs[j]) {
            xs.swap(i, j);
            i += 1;
        }
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;
    use geom::Point;

    fn boxes(n: usize) -> Vec<Rect<f32, 3>> {
        // Deterministic pseudo-random layout.
        let mut state = 0x9E3779B9u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / 2f64.powi(31)) as f32
        };
        (0..n)
            .map(|_| {
                let x = next() * 100.0;
                let y = next() * 100.0;
                let w = next() + 0.01;
                let h = next() + 0.01;
                Rect::xyzxyz(x, y, 0.0, x + w, y + h, 0.0)
            })
            .collect()
    }

    fn probe(p: [f32; 3]) -> Ray<f32, 3> {
        Ray::point_probe(Point::xyz(p[0], p[1], p[2]))
    }

    #[test]
    fn empty_build() {
        let bvh = Bvh::<f32>::build(&[], BuildQuality::PreferFastTrace, 4);
        assert!(bvh.is_empty());
        assert!(bvh.validate(&[]).is_ok());
        let mut s = RayStats::default();
        assert_eq!(
            bvh.traverse(&probe([0.0, 0.0, 0.0]), &[], &mut s, |_, _| {
                Control::Continue
            }),
            Control::Continue
        );
    }

    #[test]
    fn single_primitive() {
        let bs = vec![Rect::xyzxyz(0.0f32, 0.0, 0.0, 1.0, 1.0, 0.0)];
        let bvh = Bvh::build(&bs, BuildQuality::PreferFastTrace, 4);
        bvh.validate(&bs).unwrap();
        let mut hits = vec![];
        let mut s = RayStats::default();
        bvh.traverse(&probe([0.5, 0.5, 0.0]), &bs, &mut s, |p, _| {
            hits.push(p);
            Control::Continue
        });
        assert_eq!(hits, vec![0]);
        assert!(s.nodes_visited >= 1);
        assert_eq!(s.prim_tests, 1);
    }

    #[test]
    fn both_builders_valid_and_complete() {
        let bs = boxes(500);
        for q in [BuildQuality::PreferFastTrace, BuildQuality::PreferFastBuild] {
            let bvh = Bvh::build(&bs, q, 4);
            bvh.validate(&bs).unwrap();
            assert_eq!(bvh.len(), 500);
        }
    }

    #[test]
    fn traversal_matches_brute_force() {
        let bs = boxes(300);
        let bvh = Bvh::build(&bs, BuildQuality::PreferFastTrace, 4);
        for probe_pt in [[10.0f32, 10.0, 0.0], [50.0, 50.0, 0.0], [99.0, 1.0, 0.0]] {
            let ray = probe(probe_pt);
            let mut got: Vec<u32> = vec![];
            let mut s = RayStats::default();
            bvh.traverse(&ray, &bs, &mut s, |p, _| {
                got.push(p);
                Control::Continue
            });
            got.sort_unstable();
            let mut want: Vec<u32> = (0..bs.len() as u32)
                .filter(|&i| ray.hits_aabb(&bs[i as usize]))
                .collect();
            want.sort_unstable();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn traversal_prunes() {
        // BVH should visit far fewer nodes than a linear scan would test.
        let bs = boxes(4096);
        let bvh = Bvh::build(&bs, BuildQuality::PreferFastTrace, 4);
        let mut s = RayStats::default();
        bvh.traverse(&probe([1.0, 1.0, 0.0]), &bs, &mut s, |_, _| {
            Control::Continue
        });
        assert!(
            s.prim_tests < 512,
            "expected pruning, tested {} prims",
            s.prim_tests
        );
    }

    #[test]
    fn terminate_stops_early() {
        let bs = boxes(300);
        let bvh = Bvh::build(&bs, BuildQuality::PreferFastTrace, 4);
        // A long diagonal ray across the whole scene.
        let ray = Ray::new(
            Point::xyz(0.0f32, 0.0, 0.0),
            Point::xyz(100.0, 100.0, 0.0),
            0.0,
            1.0,
        );
        let mut count = 0;
        let r = bvh.traverse(&ray, &bs, &mut RayStats::default(), |_, _| {
            count += 1;
            Control::Terminate
        });
        assert_eq!(r, Control::Terminate);
        assert_eq!(count, 1);
    }

    #[test]
    fn refit_after_moves() {
        let mut bs = boxes(200);
        let mut bvh = Bvh::build(&bs, BuildQuality::PreferFastTrace, 4);
        // Move every box by a big offset and refit.
        for b in bs.iter_mut() {
            *b = b.translated(&Point::xyz(500.0, 500.0, 0.0));
        }
        bvh.refit(&bs);
        bvh.validate(&bs).unwrap();
        // Old location misses, new location hits.
        let mut hits_old = 0;
        bvh.traverse(
            &probe([50.0, 50.0, 0.0]),
            &bs,
            &mut RayStats::default(),
            |_, _| {
                hits_old += 1;
                Control::Continue
            },
        );
        assert_eq!(hits_old, 0);
        let mut hits_new = 0;
        bvh.traverse(
            &probe([550.0, 550.0, 0.0]),
            &bs,
            &mut RayStats::default(),
            |_, _| {
                hits_new += 1;
                Control::Continue
            },
        );
        let ray = probe([550.0, 550.0, 0.0]);
        let want = bs.iter().filter(|b| ray.hits_aabb(b)).count();
        assert_eq!(hits_new, want);
    }

    #[test]
    fn refit_with_degenerate_deletion() {
        let mut bs = boxes(100);
        let mut bvh = Bvh::build(&bs, BuildQuality::PreferFastTrace, 4);
        // "Delete" box 0 by degenerating it (§4.2), then refit.
        let victim_center = bs[0].center();
        bs[0] = bs[0].degenerated();
        bvh.refit(&bs);
        bvh.validate(&bs).unwrap();
        let ray = probe([victim_center.x(), victim_center.y(), 0.0]);
        let mut hit_victim = false;
        bvh.traverse(&ray, &bs, &mut RayStats::default(), |p, _| {
            if p == 0 {
                hit_victim = true;
            }
            Control::Continue
        });
        assert!(!hit_victim, "degenerated primitive must be unhittable");
    }

    #[test]
    fn duplicate_coincident_boxes() {
        // All primitives identical: SAH has no split; builder must still
        // terminate and produce a valid tree.
        let bs = vec![Rect::xyzxyz(0.0f32, 0.0, 0.0, 1.0, 1.0, 0.0); 64];
        let bvh = Bvh::build(&bs, BuildQuality::PreferFastTrace, 4);
        bvh.validate(&bs).unwrap();
        let mut n = 0;
        bvh.traverse(
            &probe([0.5, 0.5, 0.0]),
            &bs,
            &mut RayStats::default(),
            |_, _| {
                n += 1;
                Control::Continue
            },
        );
        assert_eq!(n, 64);
    }

    #[test]
    fn sah_beats_fast_build_on_node_visits() {
        let bs = boxes(8192);
        let sah = Bvh::build(&bs, BuildQuality::PreferFastTrace, 4);
        let fast = Bvh::build(&bs, BuildQuality::PreferFastBuild, 4);
        let ray = Ray::new(
            Point::xyz(0.0f32, 0.0, 0.0),
            Point::xyz(100.0, 100.0, 0.0),
            0.0,
            1.0,
        );
        let mut s_sah = RayStats::default();
        sah.traverse(&ray, &bs, &mut s_sah, |_, _| Control::Continue);
        let mut s_fast = RayStats::default();
        fast.traverse(&ray, &bs, &mut s_fast, |_, _| Control::Continue);
        // Not a strict theorem, but holds for random data with margin.
        assert!(
            s_sah.nodes_visited as f64 <= s_fast.nodes_visited as f64 * 1.5,
            "SAH {} vs fast {}",
            s_sah.nodes_visited,
            s_fast.nodes_visited
        );
    }

    /// Comparable projection of a node array (Node has no PartialEq).
    fn fingerprint(bvh: &Bvh<f32>) -> Vec<([f32; 3], [f32; 3], u32, u32)> {
        bvh.nodes
            .iter()
            .map(|n| {
                (
                    n.bounds.min.coords,
                    n.bounds.max.coords,
                    n.right_or_first,
                    n.count,
                )
            })
            .collect()
    }

    #[test]
    fn parallel_build_is_byte_identical_to_sequential() {
        // Above PAR_TASK_MIN so the parallel spine/frontier path engages.
        let bs = boxes(3 * PAR_TASK_MIN);
        for q in [BuildQuality::PreferFastTrace, BuildQuality::PreferFastBuild] {
            let seq = exec::with_threads(1, || Bvh::build(&bs, q, 4));
            for threads in [2, 4, 9] {
                let par = exec::with_threads(threads, || Bvh::build(&bs, q, 4));
                par.validate(&bs).unwrap();
                assert_eq!(par.prim_order, seq.prim_order, "{q:?} threads={threads}");
                assert_eq!(
                    fingerprint(&par),
                    fingerprint(&seq),
                    "{q:?} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn deep_tree_traversal_spills_stack() {
        // A left-deep chain of depth 100 (> the 64-slot inline stack):
        // internal node i has left child i+1 and right child 2D-i (a leaf);
        // node D is the bottom-left leaf. Probing a point inside all boxes
        // forces the full descent, accumulating one pending right child per
        // level — the silent-corruption case the heap spill guards against.
        const D: usize = 100;
        let unit = Rect::xyzxyz(0.0f32, 0.0, 0.0, 1.0, 1.0, 0.0);
        let mut nodes = Vec::with_capacity(2 * D + 1);
        for i in 0..D {
            nodes.push(Node {
                bounds: unit,
                right_or_first: (2 * D - i) as u32,
                count: 0,
            });
        }
        // Bottom-left leaf, then the right leaves in reverse spine order.
        for k in 0..=D {
            nodes.push(Node {
                bounds: unit,
                right_or_first: k as u32,
                count: 1,
            });
        }
        let bvh = Bvh {
            nodes,
            prim_order: (0..=D as u32).collect(),
            leaf_size: 1,
        };
        let bs = vec![unit; D + 1];
        bvh.validate(&bs).unwrap();
        let mut hits = 0u32;
        let mut s = RayStats::default();
        bvh.traverse(&probe([0.5, 0.5, 0.0]), &bs, &mut s, |_, _| {
            hits += 1;
            Control::Continue
        });
        assert_eq!(hits as usize, D + 1, "every leaf must be reached");
        assert_eq!(s.nodes_visited as usize, 2 * D + 1);
    }

    #[test]
    fn leaf_size_one() {
        let bs = boxes(33);
        let bvh = Bvh::build(&bs, BuildQuality::PreferFastTrace, 1);
        bvh.validate(&bs).unwrap();
        for node in &bvh.nodes {
            if node.is_leaf() {
                assert_eq!(node.count, 1);
            }
        }
    }
}
