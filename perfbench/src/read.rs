//! `cold_read` and `warm_repeat`: one caller thread issuing batches of
//! every read kind against a static 2-D and 3-D index, at exec width
//! [`READ_WIDTH`] (the traced `cold_read` run: the default width).

use std::time::{Duration, Instant};

use librts::{IndexOptions, Predicate, QueryReport, RTSIndex, RTSIndex3};

use crate::inputs::{self, Batches, Inputs, PerQuery, Rect2, Rect3, Rng};
use crate::layers::{self, ReadLayers, WriteLayers};
use crate::report::{median, ms};
use crate::{Config, Outcome, Samples, SETUP_REPS};

/// Exec width of the read workloads' untraced runs. On a small shared
/// host a batch fanned out over every CPU takes as long as its slowest
/// half, and the run-to-run spread of its time grows several-fold (see
/// README.md), so the caller runs its fan-outs inline. The traced
/// `cold_read` run, whose metrics carry no bound, runs at the default
/// width instead, so the exec layer's figures describe the real pool.
pub const READ_WIDTH: usize = 1;

/// Fixed batches `warm_repeat` cycles through: the `rtcore::cache`
/// capacity, so after the first pass every query GAS is a cache hit.
const POOL: u64 = 4;
/// Rounds of the fixed prefix whose Stable counter deltas must repeat.
const PREFIX_ROUNDS: u64 = 4;
/// Stream offset keeping `cold_read`'s prefix batches apart from the
/// timed ones.
const PREFIX_STREAM: u64 = 1 << 32;

/// The four read batches of one round, as issued.
pub struct Round {
    pub walls: [Duration; 4],
    pub reports: [QueryReport; 4],
    pub sinks: [PerQuery; 4],
    /// Program cache hits during the 2-D and the 3-D intersects call.
    pub hits: [u64; 2],
    /// Query trace records of the 2-D intersects batch (traced only).
    pub records: Vec<obs::QueryTrace>,
}

fn timed(f: impl FnOnce() -> QueryReport) -> (QueryReport, Duration) {
    let t = Instant::now();
    let rep = f();
    (rep, t.elapsed())
}

/// Issues one batch of each kind, in a fixed order, timing each call.
pub fn issue(idx2: &RTSIndex<f32>, idx3: &RTSIndex3<f32>, b: &Batches) -> Round {
    let sinks = [
        PerQuery::new(b.intersects.len()),
        PerQuery::new(b.points.len()),
        PerQuery::new(b.contains.len()),
        PerQuery::new(b.intersects3d.len()),
    ];
    let mark = obs::trace::next_query_seq();
    let h0 = layers::cache_hits();
    let (r0, w0) = timed(|| idx2.range_query(Predicate::Intersects, &b.intersects, &sinks[0]));
    let h1 = layers::cache_hits();
    let records = if obs::trace::queries_enabled() {
        obs::trace::query_records_since(mark)
    } else {
        Vec::new()
    };
    let (r1, w1) = timed(|| idx2.point_query(&b.points, &sinks[1]));
    let (r2, w2) = timed(|| idx2.range_query(Predicate::Contains, &b.contains, &sinks[2]));
    let h2 = layers::cache_hits();
    let (r3, w3) = timed(|| idx3.intersects_query(&b.intersects3d, &sinks[3]));
    let h3 = layers::cache_hits();
    Round {
        walls: [w0, w1, w2, w3],
        reports: [r0, r1, r2, r3],
        sinks,
        hits: [h1 - h0, h3 - h2],
        records,
    }
}

/// Checks a seeded sample of every batch of `round` against a
/// brute-force scan of `live` / `boxes`; returns the wrong batches.
pub fn check(round: &Round, b: &Batches, live: &[Rect2], boxes: &[Rect3], rng: &mut Rng) -> u64 {
    let s = &round.sinks;
    let wrong = [
        inputs::check_sample(&s[0], &b.intersects, live, rng, |r, q| r.intersects(q)),
        inputs::check_sample(&s[1], &b.points, live, rng, |r, p| r.contains_point(p)),
        inputs::check_sample(&s[2], &b.contains, live, rng, |r, q| r.contains_rect(q)),
        inputs::check_sample(&s[3], &b.intersects3d, boxes, rng, |r, q| r.intersects(q)),
    ];
    wrong.iter().filter(|&&w| w > 0).count() as u64
}

/// Adds a round's batch walls to the end-to-end samples.
pub fn sample(samples: &mut Samples, round: &Round, b: &Batches) {
    samples.intersects.push(ms(round.walls[0]));
    samples.point.push(ms(round.walls[1]));
    samples.contains.push(ms(round.walls[2]));
    samples.intersects3d.push(ms(round.walls[3]));
    samples.queries += b.total_queries() as u64;
    samples.batch_time += round.walls.iter().sum::<Duration>();
}

/// Feeds a traced round into the per-layer figures.
pub fn attribute(
    layers: &mut ReadLayers,
    round: &Round,
    b: &Batches,
    live_frame: Rect2,
    opts: &IndexOptions,
    max_half: [f32; 3],
) {
    for i in 0..4 {
        layers.launch(&round.reports[i], round.walls[i], round.sinks[i].total());
    }
    layers.intersects(
        &round.reports[0],
        round.walls[0],
        round.hits[0],
        &b.intersects,
        live_frame,
        opts,
        &round.records,
    );
    layers.intersects3d(&round.reports[3], &b.intersects3d, max_half, round.hits[1]);
}

/// Largest half-extent per axis: what `RTSIndex3` expands queries by.
pub fn max_half(boxes: &[Rect3]) -> [f32; 3] {
    let mut h = [0.0f32; 3];
    for b in boxes {
        for (d, hd) in h.iter_mut().enumerate() {
            *hd = hd.max(b.extent(d) * 0.5);
        }
    }
    h
}

pub fn run(cfg: &Config, warm: bool) -> Outcome {
    // The Stable-only replay runs at the width of the traced run it is
    // compared with.
    let width = if (cfg.trace || cfg.stable_only) && !warm {
        exec::current_threads()
    } else {
        READ_WIDTH
    };
    let mut out = exec::with_threads(width, || run_at_width(cfg, warm));
    out.width = width;
    out
}

fn run_at_width(cfg: &Config, warm: bool) -> Outcome {
    let inp = Inputs::new(cfg.seed);
    let (rects, boxes) = (&inp.rects, &inp.boxes);
    let opts = IndexOptions::default();
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let t = Instant::now();
        let idx2 = RTSIndex::with_rects(rects, opts.clone()).expect("generated rects are valid");
        let idx3 = RTSIndex3::build(boxes, opts.clone()).expect("generated boxes are valid");
        setup_s.push(t.elapsed().as_secs_f64());
        built = Some((idx2, idx3));
    }
    let (idx2, idx3) = built.expect("at least one setup");

    let pool: Vec<Batches> = if warm {
        (0..POOL).map(|r| inp.batches(rects, r, 1)).collect()
    } else {
        Vec::new()
    };
    let prefix_batches = |r: u64| {
        if warm {
            pool[(r % POOL) as usize].clone()
        } else {
            inp.batches(rects, PREFIX_STREAM + r, 1)
        }
    };
    let run_prefix = || {
        let before = obs::snapshot();
        for r in 0..PREFIX_ROUNDS {
            issue(&idx2, &idx3, &prefix_batches(r));
        }
        layers::stable_text(&obs::snapshot().delta_since(&before), false)
    };
    let mut out = Outcome::new(cfg);
    if cfg.trace || cfg.stable_only {
        out.stable = Some(run_prefix());
        if cfg.stable_only {
            return out;
        }
    }

    // Warm-up: fault in the index and (warm_repeat) fill the query-GAS
    // cache with the whole pool.
    for r in 0..POOL {
        issue(&idx2, &idx3, &prefix_batches(r));
    }

    let live_frame = layers::live_bounds(rects);
    let half = max_half(boxes);
    let mut samples = Samples::default();
    let mut read_layers = ReadLayers::default();
    let mut check_rng = Rng::new(cfg.seed, 0xC4EC);
    crate::alloc::reset_peak();
    let faults = crate::alloc::minor_faults();
    let deadline = Instant::now() + Duration::from_secs(cfg.seconds);
    let mut round = 0u64;
    while Instant::now() < deadline || round < crate::MIN_ROUNDS {
        let fresh;
        let b = if warm {
            &pool[(round % POOL) as usize]
        } else {
            fresh = inp.batches(rects, round, 1);
            &fresh
        };
        // Traced runs alternate untraced and traced rounds, so the
        // tracing overhead is measured within one process.
        let traced = cfg.trace && round % 2 == 1;
        if traced {
            obs::trace::enable_full();
        }
        let before = traced.then(obs::snapshot);
        let done = issue(&idx2, &idx3, b);
        let after = traced.then(obs::snapshot);
        obs::trace::disable();
        out.attempted += 4;
        out.failed += check(&done, b, rects, boxes, &mut check_rng);
        sample(&mut samples, &done, b);
        if let (Some(before), Some(after)) = (before, after) {
            read_layers.exec(&after.delta_since(&before));
            attribute(&mut read_layers, &done, b, live_frame, &opts, half);
        } else if cfg.trace {
            read_layers.untraced_intersects(done.walls[0]);
        }
        round += 1;
    }
    let peak = crate::alloc::peak_bytes();
    out.faults_per_round = (crate::alloc::minor_faults() - faults) as f64 / round as f64;

    out.e2e_common(&samples, median(&setup_s), peak);
    out.e2e.put(
        "index_bytes_per_rect",
        idx2.memory_bytes() as f64 / idx2.len() as f64,
        "B/rect",
    );
    if cfg.trace {
        read_layers.emit(&mut out, exec::current_threads());
        WriteLayers::default().emit(&mut out.layers);
        out.write_chrome();
    }
    out.sizes = format!("{} rounds={round}", inp.describe(1));
    out
}
