//! Machine-readable performance artifact: `BENCH_perf.json`.
//!
//! Both `runme` and `paper_eval` funnel their figure runs through
//! [`PerfReport`], which records per-figure host wall-clock plus the
//! aggregated LibRTS simulated-device (model) time the figure spent
//! (drained from [`figures::take_model_time`]), alongside the executor
//! thread count and workload scale. The flagship entry is
//! [`PerfReport::intersects_scaling`]: a Fig. 8-style Range-Intersects
//! batch (50K queries) run at `LIBRTS_THREADS=1` and again at the
//! session thread count, recording the measured wall-clock speedup of
//! the work-stealing executor. Result counts and modelled device time
//! are asserted identical across the two runs — the determinism
//! contract of `crates/exec` made observable.
//!
//! The JSON is hand-rolled (the offline workspace carries no serde);
//! the schema is flat and stable so CI and notebooks can parse it with
//! anything.

use std::time::{Duration, Instant};

use datasets::{queries as qgen, Dataset};
use librts::{CountingHandler, IndexOptions, Predicate, RTSIndex};

use crate::config::EvalConfig;
use crate::figures;
use crate::table::{fmt_dur, fmt_x};

/// Query count of the scaling study (the paper's Fig. 8 batch size).
pub const SCALING_QUERIES: usize = 50_000;

/// Wall-clock and model time of one figure/table runner.
#[derive(Clone, Debug)]
pub struct FigureRecord {
    /// Figure name as passed to [`PerfReport::record`] (e.g. `"fig8"`).
    pub name: String,
    /// Host wall-clock of the whole runner (builds + queries + checks).
    pub wall: Duration,
    /// Aggregated LibRTS simulated-device time inside the runner.
    pub model: Duration,
    /// Stable-class metric deltas accumulated during the runner: rays
    /// cast, AABB tests, IS invocations, span call counts — the logical
    /// device work, byte-identical at any `LIBRTS_THREADS`.
    pub counters: obs::Snapshot,
    /// Per-query latency and cost-model stats over the trace records the
    /// runner emitted (`None` when query tracing is off or the runner
    /// issued no queries).
    pub queries: Option<QueryStats>,
}

/// Latency and prediction-quality aggregates over one figure's
/// per-query trace records ([`obs::trace::query_records_since`]).
#[derive(Clone, Debug)]
pub struct QueryStats {
    /// Query batches recorded in the window.
    pub batches: u64,
    /// Exact median of per-batch host wall time.
    pub p50_wall_ns: u64,
    /// Exact p99 (upper) of per-batch host wall time.
    pub p99_wall_ns: u64,
    /// Mean cost-model prediction error `|predicted − actual| /
    /// max(actual, 1)` over batches where the model sampled a
    /// selectivity (`None` when it never ran).
    pub mean_prediction_error: Option<f64>,
}

impl QueryStats {
    /// Aggregates trace records; `None` for an empty window.
    pub fn from_records(records: &[obs::QueryTrace]) -> Option<Self> {
        if records.is_empty() {
            return None;
        }
        let mut walls: Vec<u64> = records.iter().map(|r| r.wall_ns).collect();
        walls.sort_unstable();
        let errors: Vec<f64> = records
            .iter()
            .filter_map(|r| r.prediction_error())
            .collect();
        Some(Self {
            batches: records.len() as u64,
            p50_wall_ns: exact_quantile(&walls, 0.50),
            p99_wall_ns: exact_quantile(&walls, 0.99),
            mean_prediction_error: if errors.is_empty() {
                None
            } else {
                Some(errors.iter().sum::<f64>() / errors.len() as f64)
            },
        })
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"batches\": {}, \"p50_wall_ns\": {}, \"p99_wall_ns\": {}, \"mean_prediction_error\": {}}}",
            self.batches,
            self.p50_wall_ns,
            self.p99_wall_ns,
            match self.mean_prediction_error {
                Some(e) if e.is_finite() => format!("{e}"),
                _ => "null".to_string(),
            }
        )
    }
}

/// Exact `q`-quantile (upper) of a sorted sample: the `⌈q·n⌉`-th
/// smallest value.
pub(crate) fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The executor scaling study: one Range-Intersects batch, two thread
/// counts, identical results.
///
/// Measurement protocol (the ISSUE-6 baseline fix): the old study
/// measured the 1-thread baseline exactly once, immediately after a
/// warm-up at the parallel thread count and in the same accumulated
/// metrics state as the parallel run — so the recorded speedup mostly
/// reflected measurement ordering, not the executor. Now each
/// configuration is measured [`SCALING_SAMPLES`] times, *interleaved*
/// (baseline, parallel, baseline, parallel, …) so drift hits both
/// equally, each sample inside its own fresh metrics epoch (a private
/// snapshot-delta window), and [`wall_baseline`](Self::wall_baseline) /
/// [`wall`](Self::wall) are the per-configuration minima. All raw
/// samples are kept in the artifact so a suspicious speedup can be
/// audited.
#[derive(Clone, Debug)]
pub struct ScalingRecord {
    /// Number of Range-Intersects queries in the batch.
    pub queries: usize,
    /// Number of indexed rectangles.
    pub rects: usize,
    /// Thread count of the baseline run (always 1).
    pub threads_baseline: usize,
    /// Thread count of the parallel run.
    pub threads: usize,
    /// Interleaved samples per configuration.
    pub samples: usize,
    /// Best (minimum) wall-clock of the single-threaded samples.
    pub wall_baseline: Duration,
    /// Best (minimum) wall-clock of the parallel samples.
    pub wall: Duration,
    /// All single-threaded samples, in measurement order.
    pub wall_baseline_samples: Vec<Duration>,
    /// All parallel samples, in measurement order.
    pub wall_samples: Vec<Duration>,
    /// Simulated-device time (identical at both thread counts).
    pub model: Duration,
    /// Total result count (identical at both thread counts).
    pub results: u64,
    /// `wall_baseline / wall` (best over best).
    pub speedup: f64,
}

/// Collector for the `BENCH_perf.json` artifact.
#[derive(Clone, Debug)]
pub struct PerfReport {
    generated_by: &'static str,
    threads: usize,
    host_cpus: usize,
    scale: usize,
    query_div: usize,
    seed: u64,
    figures: Vec<FigureRecord>,
    scaling: Option<ScalingRecord>,
    concurrency: Vec<crate::concurrency::ConcurrencyRecord>,
    maintenance: Option<crate::maintenance::MaintenanceRecord>,
    serving_obs: Option<crate::serving_obs::ServingObsRecord>,
    chaos: Option<crate::chaos::ChaosRecord>,
    explain: Option<obs::QueryPlan>,
}

impl PerfReport {
    /// New empty report; `generated_by` names the emitting binary.
    pub fn new(generated_by: &'static str, cfg: &EvalConfig) -> Self {
        Self {
            generated_by,
            threads: exec::current_threads(),
            host_cpus: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            scale: cfg.scale,
            query_div: cfg.query_div,
            seed: cfg.seed,
            figures: Vec::new(),
            scaling: None,
            concurrency: Vec::new(),
            maintenance: None,
            serving_obs: None,
            chaos: None,
            explain: None,
        }
    }

    /// Runs one figure/table runner, recording its wall-clock and the
    /// LibRTS model time it accumulated. Returns the runner's output.
    pub fn record<R>(&mut self, name: &str, run: impl FnOnce() -> R) -> R {
        figures::take_model_time(); // drop anything a caller leaked
        let before = obs::snapshot();
        let mark = obs::trace::next_query_seq();
        let t0 = Instant::now();
        let out = run();
        let wall = t0.elapsed();
        self.figures.push(FigureRecord {
            name: name.to_string(),
            wall,
            model: figures::take_model_time(),
            counters: obs::snapshot().delta_since(&before).stable_only(),
            queries: QueryStats::from_records(&obs::trace::query_records_since(mark)),
        });
        out
    }

    /// Runs one representative Range-Intersects batch through
    /// `RTSIndex::explain_intersects` and embeds the full cost-model
    /// decision trace (predicted vs measured `C_R`/`C_I`, prediction
    /// error) in the artifact.
    pub fn record_explain(&mut self, cfg: &EvalConfig) {
        let rects = Dataset::UsCensus.generate(cfg.scale, cfg.seed);
        let qs = qgen::intersects_queries(&rects, 200, 0.001, cfg.seed + 7);
        let index =
            RTSIndex::with_rects(&rects, IndexOptions::default()).expect("generated data is valid");
        let h = CountingHandler::new();
        let plan = index.explain_intersects(&qs, &h);
        println!(
            "\n== EXPLAIN range_intersects: {} queries over {} rects ==\n\
             mode {}  s {}  chosen k {}  predicted pairs {}  actual {}  prediction error {}",
            qs.len(),
            rects.len(),
            plan.mode,
            plan.selectivity
                .map_or_else(|| "-".into(), |s| format!("{s:.6}")),
            plan.chosen_k,
            plan.predicted_pairs
                .map_or_else(|| "-".into(), |p| format!("{p:.0}")),
            plan.actual_pairs,
            plan.prediction_error()
                .map_or_else(|| "-".into(), |e| format!("{e:.4}")),
        );
        self.explain = Some(plan);
    }

    /// Runs the executor scaling study at the paper's Fig. 8 batch size
    /// ([`SCALING_QUERIES`]), records it, and prints a one-line summary.
    pub fn intersects_scaling(&mut self, cfg: &EvalConfig) {
        let r = run_intersects_scaling(cfg, SCALING_QUERIES);
        println!(
            "\n== Executor scaling: Range-Intersects, {} queries over {} rects ==\n\
             1 thread: {}   {} thread(s): {}   speedup {}   (device model {}, identical at both)",
            r.queries,
            r.rects,
            fmt_dur(r.wall_baseline),
            r.threads,
            fmt_dur(r.wall),
            fmt_x(r.speedup),
            fmt_dur(r.model),
        );
        self.scaling = Some(r);
    }

    /// Runs the concurrent-serving study (reader throughput vs writer
    /// churn, see [`crate::concurrency`]) at every reader count in
    /// [`crate::concurrency::READER_COUNTS`], records the rows and
    /// prints a summary table.
    pub fn concurrency_study(&mut self, cfg: &EvalConfig) {
        use crate::concurrency::{run_concurrency_study, CHURN_PUBLISHES, READER_COUNTS};
        let queries_per_batch = cfg.queries(2_000);
        println!("\n== Concurrent serving: reader throughput vs writer churn ==");
        for &readers in READER_COUNTS {
            let r = run_concurrency_study(cfg, readers, CHURN_PUBLISHES, queries_per_batch);
            println!(
                "{:>2} reader(s): {:>7.1} batches/s ({} batches of {} queries), \
                 writer {:>6.1} publishes/s, max staleness {}",
                r.readers,
                r.reader_batches_per_sec,
                r.reader_batches,
                r.queries_per_batch,
                r.publishes_per_sec,
                r.max_staleness,
            );
            self.concurrency.push(r);
        }
    }

    /// Runs the maintenance churn study (policy on vs off over the same
    /// deterministic churn stream, see [`crate::maintenance`]), records
    /// it, and prints a one-line summary.
    pub fn maintenance_study(&mut self, cfg: &EvalConfig) {
        let r = crate::maintenance::run_maintenance_study(cfg);
        println!(
            "\n== Maintenance: {} rounds of churn over {} rects, {} probes/round ==\n\
             policy on:  device p99 {}  final sah drift {:.3}  overlap drift {:.3}  v{}\n\
             policy off: device p99 {}  final sah drift {:.3}  overlap drift {:.3}  v{}",
            r.rounds,
            r.rects,
            r.queries,
            fmt_dur(r.on.device_p99),
            r.on.final_sah_drift,
            r.on.final_overlap_drift,
            r.on.final_version,
            fmt_dur(r.off.device_p99),
            r.off.final_sah_drift,
            r.off.final_overlap_drift,
            r.off.final_version,
        );
        self.maintenance = Some(r);
    }

    /// Runs the serving-observability overhead study (writer churn with
    /// the live plane off vs on, see [`crate::serving_obs`]), records
    /// it, and prints a one-line summary.
    pub fn serving_obs_study(&mut self, cfg: &EvalConfig) {
        use crate::serving_obs::{run_serving_obs_study, SERVING_PUBLISHES};
        let r = run_serving_obs_study(cfg, SERVING_PUBLISHES);
        println!(
            "\n== Serving observability: {} publishes over {} rects, plane off vs on ==\n\
             off: {}   on: {}   overhead {:.2}%   {} scrapes (p50 {}, p99 {})",
            r.publishes,
            r.rects,
            fmt_dur(r.wall_off),
            fmt_dur(r.wall_on),
            r.overhead_percent,
            r.scrapes,
            fmt_dur(r.scrape_p50),
            fmt_dur(r.scrape_p99),
        );
        self.serving_obs = Some(r);
    }

    /// Runs the chaos resilience study (faulted writer churn under the
    /// seeded schedule, see [`crate::chaos`]), records it, and prints a
    /// one-line summary.
    pub fn chaos_study(&mut self, cfg: &EvalConfig) {
        use crate::chaos::{run_chaos_study, CHAOS_ROUNDS};
        let r = run_chaos_study(cfg, CHAOS_ROUNDS);
        println!(
            "\n== Chaos resilience: {} faulted publishes over {} rects ==\n\
             {} injected faults, {} absorbed, {} publish retries   \
             availability {:.1}%   recovery p50 {} p99 {}   converged: {}",
            r.rounds,
            r.rects,
            r.injected_faults,
            r.absorbed_errors,
            r.publish_retries,
            r.availability_percent,
            fmt_dur(r.recovery_p50),
            fmt_dur(r.recovery_p99),
            r.converged,
        );
        self.chaos = Some(r);
    }

    /// Serializes the report as JSON.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"artifact\": \"BENCH_perf\",\n");
        s.push_str(&format!(
            "  \"generated_by\": {},\n",
            json_str(self.generated_by)
        ));
        s.push_str(&format!("  \"threads\": {},\n", self.threads));
        s.push_str(&format!("  \"host_cpus\": {},\n", self.host_cpus));
        s.push_str(&format!("  \"scale\": {},\n", self.scale));
        s.push_str(&format!("  \"query_div\": {},\n", self.query_div));
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str("  \"figures\": [\n");
        for (i, f) in self.figures.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"name\": {}, \"wall_ns\": {}, \"model_ns\": {}, \"query_stats\": {}, \"counters\": {}}}{}\n",
                json_str(&f.name),
                ns(f.wall),
                ns(f.model),
                f.queries
                    .as_ref()
                    .map_or_else(|| "null".to_string(), |q| q.to_json()),
                f.counters.to_json(0),
                if i + 1 < self.figures.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
        s.push_str(&format!(
            "  \"explain\": {},\n",
            self.explain
                .as_ref()
                .map_or_else(|| "null".to_string(), |p| p.to_json())
        ));
        // Queries that crossed LIBRTS_SLOW_QUERY_MS (empty unless the
        // threshold is armed; newest-kept, capped retention).
        s.push_str("  \"slow_queries\": [");
        let slow = obs::trace::slow_queries();
        for (i, q) in slow.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&q.to_json());
        }
        s.push_str("],\n");
        // Full process-wide metrics state (all classes, including
        // Host-class wall times and executor pool stats) at export time.
        s.push_str(&format!("  \"metrics\": {},\n", obs::snapshot().to_json(0)));
        // Concurrent-serving study rows (reader throughput vs writer
        // churn at each reader count); empty when the study didn't run.
        s.push_str("  \"concurrency\": [\n");
        for (i, r) in self.concurrency.iter().enumerate() {
            s.push_str(&format!(
                "    {}{}\n",
                r.to_json(),
                if i + 1 < self.concurrency.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        s.push_str("  ],\n");
        // Maintenance churn study (policy on vs off, ISSUE 8).
        match &self.maintenance {
            None => s.push_str("  \"maintenance\": null,\n"),
            Some(r) => {
                s.push_str("  \"maintenance\": {\n");
                s.push_str(&format!("    \"rects\": {},\n", r.rects));
                s.push_str(&format!("    \"queries\": {},\n", r.queries));
                s.push_str(&format!("    \"rounds\": {},\n", r.rounds));
                s.push_str(&format!("    \"results\": {},\n", r.results));
                s.push_str(&format!("    \"max_sah_drift\": {:.6},\n", r.max_sah_drift));
                s.push_str(&format!(
                    "    \"max_overlap_drift\": {:.6},\n",
                    r.max_overlap_drift
                ));
                s.push_str(&format!("    \"policy_on\": {},\n", r.on.to_json()));
                s.push_str(&format!("    \"policy_off\": {}\n", r.off.to_json()));
                s.push_str("  },\n");
            }
        }
        // Serving-observability overhead study (live plane off vs on,
        // ISSUE 9); the CI serving-obs job gates overhead_percent < 2.
        match &self.serving_obs {
            None => s.push_str("  \"serving_obs\": null,\n"),
            Some(r) => s.push_str(&format!("  \"serving_obs\": {},\n", r.to_json())),
        }
        // Chaos resilience study (faulted churn under the seeded
        // schedule, ISSUE 10); the CI chaos job gates convergence and
        // availability via `trace_check chaos`.
        match &self.chaos {
            None => s.push_str("  \"chaos\": null,\n"),
            Some(r) => s.push_str(&format!("  \"chaos\": {},\n", r.to_json())),
        }
        match &self.scaling {
            None => s.push_str("  \"scaling\": null\n"),
            Some(r) => {
                let ns_list = |ds: &[Duration]| {
                    ds.iter()
                        .map(|d| ns(*d).to_string())
                        .collect::<Vec<_>>()
                        .join(", ")
                };
                s.push_str("  \"scaling\": {\n");
                s.push_str(&format!("    \"queries\": {},\n", r.queries));
                s.push_str(&format!("    \"rects\": {},\n", r.rects));
                s.push_str(&format!(
                    "    \"threads_baseline\": {},\n",
                    r.threads_baseline
                ));
                s.push_str(&format!("    \"threads\": {},\n", r.threads));
                s.push_str(&format!("    \"samples\": {},\n", r.samples));
                s.push_str(&format!(
                    "    \"wall_baseline_ns\": {},\n",
                    ns(r.wall_baseline)
                ));
                s.push_str(&format!("    \"wall_ns\": {},\n", ns(r.wall)));
                s.push_str(&format!(
                    "    \"wall_baseline_samples_ns\": [{}],\n",
                    ns_list(&r.wall_baseline_samples)
                ));
                s.push_str(&format!(
                    "    \"wall_samples_ns\": [{}],\n",
                    ns_list(&r.wall_samples)
                ));
                s.push_str(&format!("    \"model_ns\": {},\n", ns(r.model)));
                s.push_str(&format!("    \"results\": {},\n", r.results));
                s.push_str(&format!("    \"speedup\": {:.4}\n", r.speedup));
                s.push_str("  }\n");
            }
        }
        s.push('}');
        s.push('\n');
        s
    }

    /// Writes the JSON artifact to `path` and reports where it went.
    pub fn write(&self, path: &str) {
        match std::fs::write(path, self.to_json()) {
            Ok(()) => println!("\nwrote {path}"),
            Err(e) => eprintln!("\nfailed to write {path}: {e}"),
        }
    }
}

/// Interleaved samples per configuration in the scaling study.
pub const SCALING_SAMPLES: usize = 3;

/// The scaling study body, parameterized over query count so tests can
/// run a miniature version. See [`ScalingRecord`] for the measurement
/// protocol.
pub fn run_intersects_scaling(cfg: &EvalConfig, n_queries: usize) -> ScalingRecord {
    let rects = Dataset::UsCensus.generate(cfg.scale, cfg.seed);
    let qs = qgen::intersects_queries(&rects, n_queries, 0.001, cfg.seed + 12);
    let index =
        RTSIndex::with_rects(&rects, IndexOptions::default()).expect("generated data is valid");

    // One timed measurement in a fresh metrics epoch: a private
    // snapshot-delta window, so the sample never inherits the
    // accumulated metrics state of earlier figures or samples.
    let measure = || {
        let epoch = obs::snapshot();
        let h = CountingHandler::new();
        let t0 = Instant::now();
        let r = index.range_query(Predicate::Intersects, &qs, &h);
        let wall = t0.elapsed();
        let _delta = obs::snapshot().delta_since(&epoch); // epoch closed
        (wall, h.count(), r.device_time())
    };

    // Warm-up at *both* thread counts: fault in the index, spin up the
    // pool, and populate every per-thread cache before anything is
    // timed (the old study warmed only once, then timed the baseline
    // first — flattering whichever configuration ran second).
    exec::with_threads(1, || {
        let h = CountingHandler::new();
        index.range_query(Predicate::Intersects, &qs, &h);
    });
    let h = CountingHandler::new();
    index.range_query(Predicate::Intersects, &qs, &h);

    let threads = exec::current_threads();
    let mut wall_baseline_samples = Vec::with_capacity(SCALING_SAMPLES);
    let mut wall_samples = Vec::with_capacity(SCALING_SAMPLES);
    let mut base_results = 0u64;
    let mut base_model = Duration::ZERO;
    for sample in 0..SCALING_SAMPLES {
        // Interleave so host drift (thermal, background load) hits both
        // configurations symmetrically instead of biasing one.
        let (wb, rb, mb) = exec::with_threads(1, measure);
        let (wp, rp, mp) = measure();
        if sample == 0 {
            (base_results, base_model) = (rb, mb);
        }
        for (r, m) in [(rb, mb), (rp, mp)] {
            assert_eq!(r, base_results, "thread count changed the result count");
            assert_eq!(
                m, base_model,
                "thread count changed the modelled device time"
            );
        }
        wall_baseline_samples.push(wb);
        wall_samples.push(wp);
    }
    let wall_baseline = *wall_baseline_samples.iter().min().expect("samples >= 1");
    let wall = *wall_samples.iter().min().expect("samples >= 1");

    ScalingRecord {
        queries: qs.len(),
        rects: rects.len(),
        threads_baseline: 1,
        threads,
        samples: SCALING_SAMPLES,
        wall_baseline,
        wall,
        wall_baseline_samples,
        wall_samples,
        model: base_model,
        results: base_results,
        speedup: wall_baseline.as_secs_f64() / wall.as_secs_f64().max(1e-12),
    }
}

pub(crate) fn ns(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape() {
        let cfg = EvalConfig::smoke();
        let mut rep = PerfReport::new("test", &cfg);
        let out = rep.record("fig\"x\"", || 42);
        assert_eq!(out, 42);
        rep.scaling = Some(ScalingRecord {
            queries: 10,
            rects: 20,
            threads_baseline: 1,
            threads: 4,
            samples: 2,
            wall_baseline: Duration::from_micros(400),
            wall: Duration::from_micros(100),
            wall_baseline_samples: vec![Duration::from_micros(400), Duration::from_micros(410)],
            wall_samples: vec![Duration::from_micros(110), Duration::from_micros(100)],
            model: Duration::from_micros(7),
            results: 33,
            speedup: 4.0,
        });
        rep.concurrency.push(crate::concurrency::ConcurrencyRecord {
            readers: 4,
            publishes: 24,
            queries_per_batch: 200,
            rects: 20,
            reader_batches: 12,
            result_pairs: 99,
            max_staleness: 2,
            wall: Duration::from_micros(500),
            writer_wall: Duration::from_micros(300),
            reader_batches_per_sec: 24000.0,
            publishes_per_sec: 80000.0,
            final_version: 24,
        });
        rep.serving_obs = Some(crate::serving_obs::ServingObsRecord {
            rects: 20,
            publishes: 24,
            samples: 3,
            sampler_interval_ms: 25,
            wall_off: Duration::from_micros(800),
            wall_on: Duration::from_micros(810),
            wall_off_samples: vec![Duration::from_micros(800), Duration::from_micros(820)],
            wall_on_samples: vec![Duration::from_micros(830), Duration::from_micros(810)],
            overhead_percent: 1.25,
            scrapes: 15,
            scrape_errors: 0,
            scrape_p50: Duration::from_micros(90),
            scrape_p99: Duration::from_micros(400),
        });
        rep.chaos = Some(crate::chaos::ChaosRecord {
            rects: 20,
            rounds: 24,
            ops: 24,
            attempts: 26,
            injected_faults: 4,
            absorbed_errors: 2,
            publish_retries: 2,
            backoff_virtual_ns: 3 << 20,
            recoveries: 2,
            recovery_p50: Duration::from_micros(50),
            recovery_p99: Duration::from_micros(120),
            reader_batches: 40,
            reader_failures: 0,
            availability_percent: 92.3077,
            converged: true,
        });
        let j = rep.to_json();
        assert!(j.contains("\"artifact\": \"BENCH_perf\""));
        assert!(j.contains("\"serving_obs\": {"));
        assert!(j.contains("\"overhead_percent\": 1.2500"));
        assert!(j.contains("\"wall_off_samples_ns\": [800000, 820000]"));
        assert!(j.contains("\"scrape_p99_ns\": 400000"));
        assert!(j.contains("\"chaos\": {"));
        assert!(j.contains("\"availability_percent\": 92.3077"));
        assert!(j.contains("\"converged\": true"));
        assert!(j.contains("\"recovery_p99_ns\": 120000"));
        assert!(j.contains("\"fig\\\"x\\\"")); // escaped name
        assert!(j.contains("\"counters\": {")); // per-figure stable deltas
        assert!(j.contains("\"metrics\": {")); // process-wide snapshot
        assert!(j.contains("\"wall_baseline_ns\": 400000"));
        assert!(j.contains("\"samples\": 2"));
        assert!(j.contains("\"wall_baseline_samples_ns\": [400000, 410000]"));
        assert!(j.contains("\"wall_samples_ns\": [110000, 100000]"));
        assert!(j.contains("\"speedup\": 4.0000"));
        assert!(j.contains("\"concurrency\": [")); // concurrent-serving rows
        assert!(j.contains("\"reader_batches\": 12"));
        assert!(j.ends_with("}\n"));
    }

    #[test]
    fn recorded_figures_carry_stable_counters() {
        let cfg = EvalConfig::smoke();
        let mut rep = PerfReport::new("test", &cfg);
        rep.record("probe", || {
            let rects = vec![
                geom::Rect::xyxy(0.0f32, 0.0, 1.0, 1.0),
                geom::Rect::xyxy(2.0, 2.0, 3.0, 3.0),
            ];
            let index = RTSIndex::with_rects(&rects, IndexOptions::default()).unwrap();
            let h = CountingHandler::new();
            index.point_query(&[geom::Point::xy(0.5f32, 0.5)], &h);
            h.count()
        });
        let f = &rep.figures[0];
        assert!(
            f.counters.counter("rtcore.rays").unwrap_or(0) >= 1,
            "a figure that casts rays must record them"
        );
        // Host-class metrics are excluded from per-figure deltas.
        assert!(f.counters.counter("rtcore.wall_ns").is_none());
    }

    #[test]
    fn miniature_scaling_study_is_thread_invariant() {
        // The full 50K-query study runs inside runme/paper_eval; here a
        // tiny batch exercises the same code path — the asserts inside
        // run_intersects_scaling fail if thread count changes results
        // or modelled device time.
        let cfg = EvalConfig::smoke();
        let rec = run_intersects_scaling(&cfg, 200);
        assert_eq!(rec.queries, 200);
        assert_eq!(rec.threads_baseline, 1);
        assert!(rec.speedup > 0.0);
    }
}
