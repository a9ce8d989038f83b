//! Per-layer attribution, measured from outside the program: the
//! `QueryReport`s that calls return, direct timing of each layer's
//! public functions, and deltas of the `obs` registry.

use std::time::{Duration, Instant};

use geom::Rect;
use librts::multicast::MulticastLayout;
use librts::{IndexOptions, QueryReport};
use rtcore::{BuildOptions, BuildQuality, Gas, GasCache};

use crate::inputs::{Rect2, Rect3};
use crate::report::{median, ms, Metrics};
use crate::Outcome;

/// Host counter the program bumps on every query-GAS cache hit.
pub fn cache_hits() -> u64 {
    obs::host_counter("rtcore.gas_cache_hits").value()
}

fn is_valid<const D: usize>(q: &Rect<f32, D>) -> bool {
    q.min.is_finite() && q.max.is_finite() && !q.is_empty()
}

/// Bounds of the live rectangles: the fixed part of the multicast frame.
pub fn live_bounds(live: &[Rect2]) -> Rect2 {
    let mut frame = Rect::empty();
    for r in live {
        frame.expand(r);
    }
    frame
}

/// The query-side build of one Range-Intersects batch, re-executed
/// outside the program the way `bvh_build` runs it: placement into the
/// multicast layout, then the GAS build, and a fresh `GasCache` timed on
/// a miss and on a hit.
struct BuildProbe {
    placement: Duration,
    build: Duration,
    miss: Duration,
    hit: Duration,
}

fn probe_build(live_frame: Rect2, queries: &[Rect2], k: usize, opts: &IndexOptions) -> BuildProbe {
    let t = Instant::now();
    let mut frame = live_frame;
    for q in queries.iter().filter(|q| is_valid(*q)) {
        frame.expand(q);
    }
    let layout = MulticastLayout::with_axis(k, frame, opts.multicast.axis);
    let placed: Vec<Rect3> = (0..queries.len())
        .filter(|&i| is_valid(&queries[i]))
        .map(|i| {
            let z = layout.z_of(layout.subspace_of(i));
            layout.place_rect(i, &queries[i]).lift(z, z)
        })
        .collect();
    let placement = t.elapsed();
    let build_opts = BuildOptions {
        allow_update: false,
        quality: opts.quality,
        leaf_size: opts.leaf_size,
    };
    let (build, miss, hit) = probe_cache(&placed, build_opts);
    BuildProbe {
        placement,
        build,
        miss,
        hit,
    }
}

/// Times `Gas::build` (with the copy the cache's miss path makes) and a
/// fresh `GasCache::get_or_build` on a miss, then on a hit.
fn probe_cache(aabbs: &[Rect3], opts: BuildOptions) -> (Duration, Duration, Duration) {
    let t = Instant::now();
    let gas = Gas::build(aabbs.to_vec(), opts).expect("finite query boxes");
    let build = t.elapsed();
    drop(std::hint::black_box(gas));
    let cache = GasCache::new();
    let t = Instant::now();
    drop(std::hint::black_box(cache.get_or_build(aabbs, opts)));
    let miss = t.elapsed();
    let t = Instant::now();
    drop(std::hint::black_box(cache.get_or_build(aabbs, opts)));
    let hit = t.elapsed();
    (build, miss, hit)
}

/// Largest share of the median `bvh_build` wall that the outside split
/// of the query-side build may leave unexplained. The split re-executes
/// each part, so it never sums exactly; in traced runs of every workload
/// the median residual stayed within 4 % of the wall.
pub const SPLIT_TOLERANCE: f64 = 0.25;

/// Wall over modelled device time (0 when nothing was modelled).
fn ratio(wall: Duration, model: Duration) -> f64 {
    if model.is_zero() {
        0.0
    } else {
        wall.as_secs_f64() / model.as_secs_f64()
    }
}

/// Per-layer figures of the read path, gathered on traced rounds.
#[derive(Default)]
pub struct ReadLayers {
    k_pred_ms: Vec<f64>,
    chosen_k: Vec<f64>,
    prediction_error: Vec<f64>,
    bvh_build_ms: Vec<f64>,
    placement_ms: Vec<f64>,
    query_build_ms: Vec<f64>,
    lookup_ms: Vec<f64>,
    lookup_hit_ms: Vec<f64>,
    lookup_miss_ms: Vec<f64>,
    split_residual_ms: Vec<f64>,
    forward_ms: Vec<f64>,
    backward_ms: Vec<f64>,
    unattributed_ms: Vec<f64>,
    max_is: Vec<f64>,
    build_wall: Duration,
    build_model: Duration,
    forward_wall: Duration,
    forward_model: Duration,
    backward_wall: Duration,
    backward_model: Duration,
    cache_lookups: u64,
    cache_hits: u64,
    read_batches: u64,
    rays: u64,
    wide_nodes: u64,
    wide_prim_tests: u64,
    is_calls: u64,
    results: u64,
    idx3_build_ms: Vec<f64>,
    idx3_cast_ms: Vec<f64>,
    idx3_nodes_per_ray: Vec<f64>,
    read_wall: Duration,
    exec_busy_ns: u64,
    exec_steals: u64,
    /// Range-Intersects batch walls with tracing on and off.
    traced_ms: Vec<f64>,
    untraced_ms: Vec<f64>,
}

impl ReadLayers {
    pub fn untraced_intersects(&mut self, wall: Duration) {
        self.untraced_ms.push(ms(wall));
    }

    /// Any traced read batch: launch counters and the batch wall that
    /// exec utilization is measured against.
    pub fn launch(&mut self, rep: &QueryReport, wall: Duration, results: u64) {
        let t = &rep.launch.totals;
        self.read_batches += 1;
        self.rays += t.rays;
        self.wide_nodes += t.wide_nodes_visited;
        self.wide_prim_tests += t.wide_prim_tests;
        self.is_calls += t.is_calls;
        self.results += results;
        self.read_wall += wall;
    }

    /// One traced 2-D Range-Intersects batch. `hits` is the program's
    /// cache-hit counter delta over the call; `live_frame` the bounds of
    /// the rectangles the batch ran against.
    #[allow(clippy::too_many_arguments)]
    pub fn intersects(
        &mut self,
        rep: &QueryReport,
        wall: Duration,
        hits: u64,
        queries: &[Rect2],
        live_frame: Rect2,
        opts: &IndexOptions,
        records: &[obs::QueryTrace],
    ) {
        let b = &rep.breakdown;
        self.traced_ms.push(ms(wall));
        let phases = b.k_prediction.wall + b.bvh_build.wall + b.forward.wall + b.backward.wall;
        self.unattributed_ms.push(ms(wall.saturating_sub(phases)));
        self.k_pred_ms.push(ms(b.k_prediction.wall));
        self.chosen_k.push(rep.chosen_k as f64);
        if let Some(err) = records
            .iter()
            .rev()
            .find(|r| r.kind == "range_intersects")
            .and_then(|r| r.prediction_error())
        {
            self.prediction_error.push(err);
        }
        self.bvh_build_ms.push(ms(b.bvh_build.wall));
        self.forward_ms.push(ms(b.forward.wall));
        self.backward_ms.push(ms(b.backward.wall));
        self.max_is.push(rep.max_is_per_thread() as f64);
        self.build_wall += b.bvh_build.wall;
        self.build_model += b.bvh_build.device;
        self.forward_wall += b.forward.wall;
        self.forward_model += b.forward.device;
        self.backward_wall += b.backward.wall;
        self.backward_model += b.backward.device;
        self.cache_lookups += 1;
        self.cache_hits += hits.min(1);

        let p = probe_build(live_frame, queries, rep.chosen_k, opts);
        let miss_overhead = ms(p.miss) - ms(p.build);
        // The lookup cost on the path this batch took.
        let (lookup, built) = if hits > 0 {
            (ms(p.hit), 0.0)
        } else {
            (miss_overhead, ms(p.build))
        };
        self.placement_ms.push(ms(p.placement));
        self.query_build_ms.push(built);
        self.lookup_hit_ms.push(ms(p.hit));
        self.lookup_miss_ms.push(miss_overhead);
        self.lookup_ms.push(lookup);
        self.split_residual_ms
            .push(ms(b.bvh_build.wall) - ms(p.placement) - lookup - built);
    }

    /// One traced 3-D intersects batch; `max_half` is the index-wide
    /// largest data half-extent the engine expands queries by, `hits`
    /// the program's cache-hit counter delta over the call.
    pub fn intersects3d(
        &mut self,
        rep: &QueryReport,
        queries: &[Rect3],
        max_half: [f32; 3],
        hits: u64,
    ) {
        self.cache_lookups += 1;
        self.cache_hits += hits.min(1);
        self.idx3_cast_ms.push(ms(rep.breakdown.forward.wall));
        self.idx3_nodes_per_ray.push(rep.nodes_per_ray());
        if hits > 0 {
            // The program reused a cached query GAS: no build on its path.
            self.idx3_build_ms.push(0.0);
            return;
        }
        let expanded: Vec<Rect3> = queries
            .iter()
            .filter(|q| is_valid(*q))
            .map(|q| {
                let mut e = *q;
                for (d, h) in max_half.iter().enumerate() {
                    e.min.coords[d] -= h;
                    e.max.coords[d] += h;
                }
                e
            })
            .collect();
        let opts = BuildOptions {
            allow_update: false,
            quality: BuildQuality::PreferFastTrace,
            leaf_size: 4,
        };
        let t = Instant::now();
        drop(std::hint::black_box(
            Gas::build(expanded, opts).expect("finite query boxes"),
        ));
        self.idx3_build_ms.push(ms(t.elapsed()));
    }

    /// Pool counters over the traced read batches.
    pub fn exec(&mut self, delta: &obs::Snapshot) {
        self.exec_busy_ns += delta.counter("exec.busy_ns").unwrap_or(0);
        self.exec_steals += delta.counter("exec.steals").unwrap_or(0);
    }

    /// Adds the per-layer metrics to `out`, and a problem when the
    /// attribution check failed: the outside split of `bvh_build`
    /// (placement, cache lookup, GAS build) must account for its median
    /// wall to within [`SPLIT_TOLERANCE`].
    pub fn emit(&self, out: &mut Outcome, width: usize) {
        let build_ms = median(&self.bvh_build_ms);
        let residual_share = if build_ms > 0.0 {
            median(&self.split_residual_ms) / build_ms
        } else {
            0.0
        };
        if residual_share.abs() > SPLIT_TOLERANCE {
            out.problems.push(format!(
                "attribution: placement + cache lookup + GAS build leave {:.0} % of the \
                 median bvh_build wall ({build_ms:.3} ms) unexplained; the limit is {:.0} %",
                residual_share * 100.0,
                SPLIT_TOLERANCE * 100.0
            ));
        }
        let m = &mut out.layers;
        let per = |x: u64, of: u64| if of == 0 { 0.0 } else { x as f64 / of as f64 };
        m.put("multicast.k_pred_ms", median(&self.k_pred_ms), "ms");
        m.put("multicast.chosen_k", median(&self.chosen_k), "count");
        m.put(
            "multicast.prediction_error",
            median(&self.prediction_error),
            "ratio",
        );
        m.put("cache.lookup_ms", median(&self.lookup_ms), "ms");
        m.put("cache.lookup_hit_ms", median(&self.lookup_hit_ms), "ms");
        m.put("cache.lookup_miss_ms", median(&self.lookup_miss_ms), "ms");
        m.put(
            "cache.hit_ratio",
            per(self.cache_hits, self.cache_lookups),
            "ratio",
        );
        m.put("gas.query_build_ms", median(&self.query_build_ms), "ms");
        m.put("bvh_build.wall_ms", median(&self.bvh_build_ms), "ms");
        m.put("bvh_build.placement_ms", median(&self.placement_ms), "ms");
        m.put(
            "bvh_build.split_residual_ms",
            median(&self.split_residual_ms),
            "ms",
        );
        m.put("bvh_build.split_residual_share", residual_share, "ratio");
        m.put(
            "bvh_build.wall_over_model",
            ratio(self.build_wall, self.build_model),
            "ratio",
        );
        m.put("forward.wall_ms", median(&self.forward_ms), "ms");
        m.put(
            "forward.wall_over_model",
            ratio(self.forward_wall, self.forward_model),
            "ratio",
        );
        m.put("backward.wall_ms", median(&self.backward_ms), "ms");
        m.put(
            "backward.wall_over_model",
            ratio(self.backward_wall, self.backward_model),
            "ratio",
        );
        m.put("query.unattributed_ms", median(&self.unattributed_ms), "ms");
        m.put("launch.rays", per(self.rays, self.read_batches), "count");
        m.put(
            "bvh4.nodes_per_ray",
            per(self.wide_nodes, self.rays),
            "count",
        );
        m.put(
            "bvh4.prim_tests_per_ray",
            per(self.wide_prim_tests, self.rays),
            "count",
        );
        m.put(
            "launch.is_precision",
            per(self.results, self.is_calls),
            "ratio",
        );
        m.put("launch.max_is_per_thread", median(&self.max_is), "count");
        m.put("index3d.query_build_ms", median(&self.idx3_build_ms), "ms");
        m.put("index3d.cast_ms", median(&self.idx3_cast_ms), "ms");
        m.put(
            "index3d.nodes_per_ray",
            median(&self.idx3_nodes_per_ray),
            "count",
        );
        let busy_ms = self.exec_busy_ns as f64 / 1e6;
        m.put(
            "exec.busy_ms",
            if self.read_batches == 0 {
                0.0
            } else {
                busy_ms / self.read_batches as f64
            },
            "ms",
        );
        m.put("exec.steals", self.exec_steals as f64, "count");
        let capacity_ms = ms(self.read_wall) * width as f64;
        m.put(
            "exec.utilization",
            if capacity_ms > 0.0 {
                busy_ms / capacity_ms
            } else {
                0.0
            },
            "ratio",
        );
        let off = median(&self.untraced_ms);
        m.put(
            "trace.overhead_share",
            if off > 0.0 {
                median(&self.traced_ms) / off - 1.0
            } else {
                0.0
            },
            "ratio",
        );
    }
}

/// Write-path figures of `serve_churn` (all zero on the read-only
/// workloads, where these layers are bypassed).
#[derive(Default)]
pub struct WriteLayers {
    pub publish_ms: Vec<f64>,
    pub pin_us: Vec<f64>,
    /// Registry delta over the timed phase.
    pub delta: Option<obs::Snapshot>,
    /// Writer-side Stable delta over the fixed prefix.
    pub prefix: Option<obs::Snapshot>,
    pub worst_sah_drift: f64,
    pub dead_fraction: f64,
}

impl WriteLayers {
    pub fn emit(&self, m: &mut Metrics) {
        let c = |s: &Option<obs::Snapshot>, name: &str| {
            s.as_ref().and_then(|s| s.counter(name)).unwrap_or(0)
        };
        let d = &self.delta;
        let per_call = |span: &str| {
            let calls = c(d, &format!("span.{span}.calls"));
            if calls == 0 {
                0.0
            } else {
                c(d, &format!("span.{span}.wall_ns")) as f64 / 1e6 / calls as f64
            }
        };
        let applies = self.publish_ms.len() as f64;
        let per_apply = |x: u64| {
            if applies == 0.0 {
                0.0
            } else {
                x as f64 / applies
            }
        };
        m.put("index.insert_ms", per_call("index.insert"), "ms");
        m.put("index.update_ms", per_call("index.update"), "ms");
        m.put("index.delete_ms", per_call("index.delete"), "ms");
        let p = &self.prefix;
        m.put(
            "rtcore.ias_builds",
            c(p, "rtcore.ias_builds") as f64,
            "count",
        );
        m.put(
            "rtcore.gas_refit_prims",
            c(p, "rtcore.gas_refit_prims") as f64,
            "count",
        );
        m.put(
            "concurrent.publish_ms",
            per_call("concurrent.publish"),
            "ms",
        );
        m.put("concurrent.publish_p50_ms", median(&self.publish_ms), "ms");
        m.put(
            "concurrent.publish_tail_ms",
            crate::report::tail(&self.publish_ms),
            "ms",
        );
        m.put("concurrent.pin_us", median(&self.pin_us), "us");
        m.put(
            "concurrent.publish_retries",
            c(d, "concurrent.publish_retries") as f64,
            "count",
        );
        let snaps = c(d, "concurrent.reader_snapshots");
        m.put(
            "concurrent.stale_read_ratio",
            if snaps == 0 {
                0.0
            } else {
                c(d, "concurrent.stale_reads") as f64 / snaps as f64
            },
            "ratio",
        );
        m.put(
            "maintenance.ms",
            per_apply(c(d, "span.index.maintain.wall_ns")) / 1e6,
            "ms",
        );
        for kind in ["compacts", "rebuilds", "refits", "deferred"] {
            let name = format!("maintenance.{kind}");
            m.put(&name, c(p, &name) as f64, "count");
        }
        m.put("maintenance.worst_sah_drift", self.worst_sah_drift, "ratio");
        m.put("maintenance.dead_fraction", self.dead_fraction, "ratio");
        m.put(
            "admission.shed_reads",
            c(d, "admission.shed_reads") as f64,
            "count",
        );
        m.put(
            "admission.rejected_writes",
            c(d, "admission.rejected_writes") as f64,
            "count",
        );
    }
}

/// Stable-class counters the writer alone drives in `serve_churn`.
const WRITER_SIDE: &[&str] = &[
    "index.",
    "maintenance.",
    "concurrent.publishes",
    "concurrent.failed_publishes",
    "concurrent.publish_retries",
    "concurrent.backoff_virtual_ns",
    "admission.rejected_writes",
    "rtcore.ias_",
    "rtcore.gas_refit",
    "span.index.",
    "span.concurrent.publish.",
];

/// Deterministic text of the Stable-class part of `delta`: one
/// `name value` line per metric that moved, sorted by name. With
/// `writer_only`, only the counters the writer alone drives.
pub fn stable_text(delta: &obs::Snapshot, writer_only: bool) -> String {
    let mut out = String::new();
    for e in delta.stable_only().entries() {
        if writer_only && !WRITER_SIDE.iter().any(|p| e.name.starts_with(p)) {
            continue;
        }
        let line = match &e.value {
            obs::Value::Counter(0) => continue,
            obs::Value::Counter(v) => format!("{v}"),
            obs::Value::Histogram { count: 0, .. } => continue,
            obs::Value::Histogram {
                count,
                sum,
                buckets,
            } => format!("count={count} sum={sum} buckets={buckets:?}"),
            obs::Value::Gauge(g) => format!("{g}"),
        };
        out.push_str(&format!("{} {line}\n", e.name));
    }
    out
}
