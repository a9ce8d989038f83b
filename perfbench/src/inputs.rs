//! Inputs and the reference answers they are checked against.
//!
//! Everything the program under test receives is generated here. The
//! indexed data is one fixed instance of its profile; `--seed` drives
//! every query batch and writer op, so the same seed gives byte-identical
//! inputs.

use std::sync::atomic::{AtomicU32, Ordering};

use datasets::Dataset;
use geom::{Point, Rect};
use librts::QueryHandler;

pub type Rect2 = Rect<f32, 2>;
pub type Rect3 = Rect<f32, 3>;
pub type Point2 = Point<f32, 2>;

/// Dataset profile and scale of the 2-D index: heavy-tailed extents,
/// so the multicast `k` and IS-load imbalance matter (28 975 rects).
pub const DATASET: Dataset = Dataset::UsWater;
pub const SCALE: usize = 16;
/// Generator seed of the indexed data (2-D and 3-D). The data is fixed
/// across `--seed`s: with a dataset per seed, the calibrated query side
/// and so the multicast `k` differed from seed to seed, and with only
/// four batches `warm_repeat`'s median moved by a fifth between seeds.
const DATA_SEED: u64 = 1;
/// Boxes in the 3-D index.
pub const BOXES_3D: usize = 20_000;
/// Queries per batch, by kind.
pub const INTERSECTS_BATCH: usize = 10_000;
pub const POINT_BATCH: usize = 10_000;
pub const CONTAINS_BATCH: usize = 10_000;
pub const INTERSECTS3D_BATCH: usize = 5_000;
/// Range-Intersects selectivity the query side is calibrated to.
pub const SELECTIVITY: f64 = 0.00055;
/// Queries of each batch answered again by the brute-force reference.
pub const CHECK_SAMPLE: usize = 32;

/// splitmix64: small, seedable, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A stream id per (round, kind), so every batch is independent of how
/// many batches of other kinds ran before it.
pub fn stream(round: u64, kind: u64) -> u64 {
    round.wrapping_mul(16).wrapping_add(kind).wrapping_add(1)
}

/// Independent calibrations whose median fixes the query side.
const CALIBRATIONS: u64 = 15;

/// Everything a run's batches are drawn from.
pub struct Inputs {
    pub seed: u64,
    pub rects: Vec<Rect2>,
    pub boxes: Vec<Rect3>,
    /// Side of the square Range-Intersects queries: the median of
    /// several independent calibrations to [`SELECTIVITY`], fixed so that
    /// every batch asks for about the same work (one calibration per
    /// batch varies the result count by tens of percent).
    pub side: f32,
}

impl Inputs {
    pub fn new(seed: u64) -> Self {
        let rects = DATASET.generate(SCALE, DATA_SEED);
        let mut sides: Vec<f32> = (0..CALIBRATIONS)
            .map(|i| {
                let s = Rng::new(DATA_SEED, 0x51DE + i).next_u64();
                datasets::queries::intersects_queries(&rects, 1, SELECTIVITY, s)[0].extent(0)
            })
            .collect();
        sides.sort_by(f32::total_cmp);
        Inputs {
            seed,
            boxes: boxes_3d(DATA_SEED),
            side: sides[sides.len() / 2],
            rects,
        }
    }

    /// The batches of round `round`, each `1/div` of the full batch
    /// size, anchored on `anchors` (the data the batches will run
    /// against, so a churned index sees the same selectivity).
    pub fn batches(&self, anchors: &[Rect2], round: u64, div: usize) -> Batches {
        let s = |kind| Rng::new(self.seed, stream(round, kind)).next_u64();
        Batches {
            intersects: self.intersects(anchors, INTERSECTS_BATCH / div, s(0)),
            points: datasets::queries::point_queries(anchors, POINT_BATCH / div, s(1)),
            contains: datasets::queries::contains_queries(anchors, CONTAINS_BATCH / div, s(2)),
            intersects3d: queries_3d(&self.boxes, INTERSECTS3D_BATCH / div, s(3)),
        }
    }

    /// Squares of side [`Inputs::side`] centred near random anchor
    /// centres (jittered by up to a quarter side), as
    /// `datasets::queries::intersects_queries` places them.
    fn intersects(&self, anchors: &[Rect2], n: usize, seed: u64) -> Vec<Rect2> {
        let mut rng = Rng::new(seed, 0x1A7);
        let (side, half) = (self.side, self.side * 0.5);
        (0..n)
            .map(|_| {
                let c = anchors[rng.below(anchors.len())].center();
                let x = c.x() + (rng.unit() * 2.0 - 1.0) * side * 0.25;
                let y = c.y() + (rng.unit() * 2.0 - 1.0) * side * 0.25;
                Rect::xyxy(x - half, y - half, x + half, y + half)
            })
            .collect()
    }

    /// Input sizes for the run metadata.
    pub fn describe(&self, div: usize) -> String {
        format!(
            "rects_2d={} boxes_3d={} batch: intersects={} point={} contains={} intersects3d={} selectivity={} side={}",
            self.rects.len(),
            self.boxes.len(),
            INTERSECTS_BATCH / div,
            POINT_BATCH / div,
            CONTAINS_BATCH / div,
            INTERSECTS3D_BATCH / div,
            SELECTIVITY,
            self.side,
        )
    }
}

/// 3-D boxes spread over a 10 000 × 10 000 × 1 000 world.
fn boxes_3d(seed: u64) -> Vec<Rect3> {
    let mut rng = Rng::new(seed, 0x3D);
    (0..BOXES_3D)
        .map(|_| {
            let x = rng.unit() * 10_000.0;
            let y = rng.unit() * 10_000.0;
            let z = rng.unit() * 1_000.0;
            let w = 10.0 + rng.unit() * 100.0;
            let d = 10.0 + rng.unit() * 100.0;
            let h = 5.0 + rng.unit() * 50.0;
            Rect::xyzxyz(x, y, z, x + w, y + d, z + h)
        })
        .collect()
}

/// One batch of each query kind.
#[derive(Clone)]
pub struct Batches {
    pub intersects: Vec<Rect2>,
    pub points: Vec<Point2>,
    pub contains: Vec<Rect2>,
    pub intersects3d: Vec<Rect3>,
}

impl Batches {
    pub fn total_queries(&self) -> usize {
        self.intersects.len() + self.points.len() + self.contains.len() + self.intersects3d.len()
    }
}

/// 3-D query boxes of 200 × 200 × 100 around random data-box centers.
fn queries_3d(boxes: &[Rect3], n: usize, seed: u64) -> Vec<Rect3> {
    let mut rng = Rng::new(seed, 0x3D0);
    (0..n)
        .map(|_| {
            let c = boxes[rng.below(boxes.len())].center();
            let (x, y, z) = (c.coords[0], c.coords[1], c.coords[2]);
            Rect::xyzxyz(
                x - 100.0,
                y - 100.0,
                z - 50.0,
                x + 100.0,
                y + 100.0,
                z + 50.0,
            )
        })
        .collect()
}

/// Result sink counting results per query id.
pub struct PerQuery {
    counts: Vec<AtomicU32>,
}

impl PerQuery {
    pub fn new(queries: usize) -> Self {
        PerQuery {
            counts: (0..queries).map(|_| AtomicU32::new(0)).collect(),
        }
    }

    pub fn count(&self, query: usize) -> u32 {
        self.counts[query].load(Ordering::Relaxed)
    }

    pub fn total(&self) -> u64 {
        self.counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed) as u64)
            .sum()
    }
}

impl QueryHandler for PerQuery {
    #[inline]
    fn handle(&self, _rect_id: u32, query_id: u32) {
        self.counts[query_id as usize].fetch_add(1, Ordering::Relaxed);
    }
}

/// Compares the engine's per-query counts with a brute-force scan over
/// `data` for a seeded sample of the batch; returns the mismatches.
pub fn check_sample<T, Q>(
    got: &PerQuery,
    queries: &[Q],
    data: &[T],
    rng: &mut Rng,
    hit: impl Fn(&T, &Q) -> bool,
) -> u64 {
    let mut wrong = 0;
    for _ in 0..CHECK_SAMPLE.min(queries.len()) {
        let q = rng.below(queries.len());
        let want = data.iter().filter(|r| hit(r, &queries[q])).count() as u32;
        if got.count(q) != want {
            wrong += 1;
        }
    }
    wrong
}
