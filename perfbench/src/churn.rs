//! `serve_churn`: a writer thread applying closed-loop insert / update /
//! delete batches to a `ConcurrentIndex` under the default maintenance
//! policy, while a reader thread issues new read batches against pinned
//! snapshots. Each thread runs at exec width 1.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use librts::{BatchOp, ConcurrentIndex, ConcurrentIndex3, IndexOptions, MaintenancePolicy};

use crate::inputs::{Inputs, Rect2, Rect3, Rng};
use crate::layers::{self, ReadLayers, WriteLayers};
use crate::read;
use crate::report::{median, ms};
use crate::{Config, Outcome, Samples, SETUP_REPS};

/// Rectangles inserted, deleted and updated by each `apply` batch.
const INSERTS: usize = 64;
const DELETES: usize = 64;
const UPDATES: usize = 64;
/// Largest offset of an inserted copy from the data rect it copies.
const INSERT_JITTER: f32 = 20.0;
/// Largest offset of an updated rect from its home position, in world
/// units (the world is 10 000 wide): enough to make refit quality drift.
const UPDATE_MOVE: f32 = 200.0;
/// The writer compacts (and remaps its ids) after this many batches,
/// which bounds the id space and so the index's size over a run. It is
/// above the default policy's `max_batches`, so maintenance repacks
/// batches on its own first.
const COMPACT_EVERY: u64 = 100;
/// Writer batches of the fixed prefix whose writer-side Stable counter
/// deltas must repeat (spans a maintenance repack).
const PREFIX_APPLIES: u64 = 80;
/// Reader batches are this fraction of the full batch size: the reader
/// runs at width 1 against a churned index, and needs enough batches
/// per run for a steady median and tail.
const READ_DIV: usize = 5;
/// Writer batches over which `index_bytes_per_rect` is sampled: a fixed
/// stretch of the seeded op sequence, so the figure repeats.
const BYTES_APPLIES: u64 = 100;
/// Stream offset keeping the prefix reader's batches apart.
const PREFIX_STREAM: u64 = 1 << 32;

/// The writer's seeded op generator and its mirror of the live ids.
///
/// Every id has a home: the data rect it copies. Inserts copy data rects
/// drawn uniformly (so each insert batch is scattered over the data and
/// its GAS spans the world), deletes are uniform, and an update places a
/// rect near its home. The live set therefore keeps the data's spatial
/// distribution for the whole run. No paper or trace fixes this op mix;
/// it is an assumption, recorded in README.md.
struct Writer<'a> {
    rng: Rng,
    source: &'a [Rect2],
    /// Live ids, in no particular order.
    live: Vec<u32>,
    /// Home of every id (stale for deleted ids).
    home: Vec<Rect2>,
    /// Homes of the batch in flight's inserts, appended on success.
    pending: Vec<Rect2>,
}

impl<'a> Writer<'a> {
    fn new(source: &'a [Rect2], seed: u64) -> Self {
        Writer {
            rng: Rng::new(seed, 0x57),
            source,
            live: (0..source.len() as u32).collect(),
            home: source.to_vec(),
            pending: Vec::new(),
        }
    }

    fn jitter(&mut self, r: &Rect2, by: f32) -> Rect2 {
        let dx = (self.rng.unit() - 0.5) * 2.0 * by;
        let dy = (self.rng.unit() - 0.5) * 2.0 * by;
        Rect2::xyxy(
            r.min.x() + dx,
            r.min.y() + dy,
            r.max.x() + dx,
            r.max.y() + dy,
        )
    }

    fn next_ops(&mut self) -> Vec<BatchOp<f32>> {
        self.pending = (0..INSERTS)
            .map(|_| self.source[self.rng.below(self.source.len())])
            .collect();
        let inserts: Vec<Rect2> = (0..INSERTS)
            .map(|k| {
                let home = self.pending[k];
                self.jitter(&home, INSERT_JITTER)
            })
            .collect();
        let deletes: Vec<u32> = (0..DELETES)
            .map(|_| {
                let i = self.rng.below(self.live.len());
                self.live.swap_remove(i)
            })
            .collect();
        let n = self.live.len();
        for i in 0..UPDATES {
            let j = i + self.rng.below(n - i);
            self.live.swap(i, j);
        }
        let ids: Vec<u32> = self.live[..UPDATES].to_vec();
        let moved: Vec<Rect2> = ids
            .iter()
            .map(|&id| {
                let home = self.home[id as usize];
                self.jitter(&home, UPDATE_MOVE)
            })
            .collect();
        vec![
            BatchOp::Insert(inserts),
            BatchOp::Delete(deletes),
            BatchOp::Update { ids, rects: moved },
        ]
    }

    /// The batch published: its inserts got the next contiguous ids.
    fn applied(&mut self) {
        let first = self.home.len() as u32;
        self.live.extend(first..first + self.pending.len() as u32);
        self.home.append(&mut self.pending);
    }

    fn remap(&mut self, remap: &[u32]) {
        let mut home = vec![Rect2::empty(); self.live.len()];
        for id in &mut self.live {
            let new = remap[*id as usize];
            home[new as usize] = self.home[*id as usize];
            *id = new;
        }
        self.home = home;
    }
}

/// What the writer thread saw.
#[derive(Default)]
struct WriterLog {
    applies: u64,
    failed: u64,
    errors: Vec<String>,
    publish_ms: Vec<f64>,
    bytes_per_rect: Vec<f64>,
}

fn writer_loop(
    index: &ConcurrentIndex<f32>,
    source: &[Rect2],
    seed: u64,
    limit: u64,
    stop: &AtomicBool,
    applies: &AtomicU64,
) -> WriterLog {
    let mut w = Writer::new(source, seed);
    let mut log = WriterLog::default();
    while log.applies < limit && !(stop.load(Ordering::SeqCst) && log.applies >= BYTES_APPLIES) {
        let ops = w.next_ops();
        let t = Instant::now();
        let res = index.apply(&ops);
        let wall = t.elapsed();
        log.applies += 1;
        applies.store(log.applies, Ordering::SeqCst);
        match res {
            Ok(_) => {
                w.applied();
                log.publish_ms.push(ms(wall));
            }
            Err(e) => {
                // The run fails; stop writing rather than guess the
                // rolled-back state.
                log.failed += 1;
                log.errors.push(e.to_string());
                break;
            }
        }
        if log.applies <= BYTES_APPLIES {
            log.bytes_per_rect
                .push(index.memory_bytes() as f64 / index.len() as f64);
        }
        if log.applies % COMPACT_EVERY == 0 {
            match index.compact() {
                Ok(remap) => w.remap(&remap),
                Err(e) => {
                    log.failed += 1;
                    log.errors.push(e.to_string());
                }
            }
        }
    }
    log
}

fn build(rects: &[Rect2], boxes: &[Rect3]) -> (ConcurrentIndex<f32>, ConcurrentIndex3<f32>) {
    let opts = IndexOptions::default();
    let idx2 = ConcurrentIndex::with_rects(rects, opts.clone())
        .expect("generated rects are valid")
        .with_policy(MaintenancePolicy::default());
    let idx3 = ConcurrentIndex3::build(boxes, opts).expect("generated boxes are valid");
    (idx2, idx3)
}

/// Runs the fixed writer prefix on a fresh index with a racing reader;
/// returns the writer-side Stable delta and the drift it left.
fn prefix(inp: &Inputs) -> (String, obs::Snapshot, f64, f64) {
    let (idx2, idx3) = build(&inp.rects, &inp.boxes);
    let stop = AtomicBool::new(false);
    let applies = AtomicU64::new(0);
    let before = obs::snapshot();
    std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let log = exec::with_threads(1, || {
                writer_loop(&idx2, &inp.rects, inp.seed, PREFIX_APPLIES, &stop, &applies)
            });
            stop.store(true, Ordering::SeqCst);
            log
        });
        exec::with_threads(1, || {
            let mut round = 0;
            while !stop.load(Ordering::SeqCst) {
                let b = inp.batches(&inp.rects, PREFIX_STREAM + round, READ_DIV);
                read::issue(&idx2.snapshot(), &idx3.snapshot(), &b);
                round += 1;
            }
        });
        writer.join().expect("prefix writer panicked");
    });
    let delta = obs::snapshot().delta_since(&before);
    let report = idx2.maintenance_report();
    (
        layers::stable_text(&delta, true),
        delta,
        report.worst_sah_drift(),
        report.dead_fraction,
    )
}

pub fn run(cfg: &Config) -> Outcome {
    let inp = Inputs::new(cfg.seed);
    let (rects, boxes) = (&inp.rects, &inp.boxes);
    let mut out = Outcome::new(cfg);
    let mut write_layers = WriteLayers::default();
    if cfg.trace || cfg.stable_only {
        let (text, delta, drift, dead) = prefix(&inp);
        out.stable = Some(text);
        write_layers.prefix = Some(delta);
        write_layers.worst_sah_drift = drift;
        write_layers.dead_fraction = dead;
        if cfg.stable_only {
            return out;
        }
    }

    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let t = Instant::now();
        let pair = build(rects, boxes);
        setup_s.push(t.elapsed().as_secs_f64());
        built = Some(pair);
    }
    let (idx2, idx3) = built.expect("at least one setup");
    // Warm-up: one read round before anything is timed.
    let warm = inp.batches(rects, PREFIX_STREAM, READ_DIV);
    read::issue(&idx2.snapshot(), &idx3.snapshot(), &warm);

    let opts = IndexOptions::default();
    let half = read::max_half(boxes);
    let stop = AtomicBool::new(false);
    let applies = AtomicU64::new(0);
    let mut samples = Samples::default();
    let mut read_layers = ReadLayers::default();
    let mut check_rng = Rng::new(cfg.seed, 0xC4EC);
    crate::alloc::reset_peak();
    let faults = crate::alloc::minor_faults();
    let before = obs::snapshot();
    let deadline = Instant::now() + Duration::from_secs(cfg.seconds);
    let mut round = 0u64;
    let log = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            exec::with_threads(1, || {
                writer_loop(&idx2, rects, cfg.seed, u64::MAX, &stop, &applies)
            })
        });
        exec::with_threads(1, || {
            while Instant::now() < deadline
                || round < crate::MIN_ROUNDS
                || (applies.load(Ordering::SeqCst) < BYTES_APPLIES && !writer.is_finished())
            {
                let t = Instant::now();
                let snap2 = idx2.snapshot();
                let pin = t.elapsed();
                let snap3 = idx3.snapshot();
                let live: Vec<Rect2> = (0..snap2.capacity_ids() as u32)
                    .filter_map(|id| snap2.get(id))
                    .collect();
                let b = inp.batches(&live, round, READ_DIV);
                let traced = cfg.trace && round % 2 == 1;
                if traced {
                    obs::trace::enable_full();
                }
                let snap_before = traced.then(obs::snapshot);
                let done = read::issue(&snap2, &snap3, &b);
                let snap_after = traced.then(obs::snapshot);
                obs::trace::disable();
                out.attempted += 4;
                out.failed += read::check(&done, &b, &live, boxes, &mut check_rng);
                read::sample(&mut samples, &done, &b);
                write_layers.pin_us.push(pin.as_secs_f64() * 1e6);
                if let (Some(x), Some(y)) = (snap_before, snap_after) {
                    read_layers.exec(&y.delta_since(&x));
                    let frame = layers::live_bounds(&live);
                    read::attribute(&mut read_layers, &done, &b, frame, &opts, half);
                } else if cfg.trace {
                    read_layers.untraced_intersects(done.walls[0]);
                }
                round += 1;
            }
        });
        stop.store(true, Ordering::SeqCst);
        writer.join().expect("writer thread panicked")
    });
    let peak = crate::alloc::peak_bytes();
    out.faults_per_round = (crate::alloc::minor_faults() - faults) as f64 / round as f64;
    let delta = obs::snapshot().delta_since(&before);

    out.attempted += log.applies + log.applies / COMPACT_EVERY;
    out.failed += log.failed;
    out.problems
        .extend(log.errors.iter().map(|e| format!("writer: {e}")));
    out.e2e_common(&samples, median(&setup_s), peak);
    out.e2e.put(
        "index_bytes_per_rect",
        median(&log.bytes_per_rect),
        "B/rect",
    );
    if cfg.trace {
        read_layers.emit(&mut out, 1);
        write_layers.publish_ms = log.publish_ms;
        write_layers.delta = Some(delta);
        write_layers.emit(&mut out.layers);
        out.write_chrome();
    }
    out.sizes = format!(
        "{} apply: inserts={INSERTS} deletes={DELETES} updates={UPDATES} compact_every={COMPACT_EVERY} writer_batches={} reader_rounds={round}",
        inp.describe(READ_DIV),
        log.applies,
    );
    out
}
