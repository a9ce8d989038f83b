//! The repository benchmark. One process runs one workload for a fixed
//! time through the public API of `librts` and `rtcore`, checks a seeded
//! sample of every batch against a brute-force reference, and prints
//! every metric by name; the last line of standard output is the JSON
//! result. See `README.md` in this directory.
//!
//! ```text
//! perfbench --workload <cold_read|warm_repeat|serve_churn> --seed <n>
//!           --seconds <s> --trace <0|1> [--rev <rev>] [--stable-only]
//!           [--stable-expect <file>]
//!
//! Outputs (Chrome trace, Stable counter deltas) go to [`OUT_DIR`].
//! ```

mod alloc;
mod churn;
mod inputs;
mod layers;
mod read;
mod report;

use std::path::PathBuf;
use std::time::Duration;

use report::{median, tail, Metrics, TAIL_PERCENTILE};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Where outputs go, relative to the checkout root the benchmark runs in.
pub const OUT_DIR: &str = "perfbench/out";
/// Index set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;
/// Rounds a run always completes, so every tail has ten samples beyond it.
pub const MIN_ROUNDS: u64 = 100;

pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub rev: String,
    /// Run only the fixed prefix and write its Stable counter deltas.
    pub stable_only: bool,
    /// Stable deltas of another process with the same seed, to compare.
    pub stable_expect: Option<PathBuf>,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <cold_read|warm_repeat|serve_churn> --seed <n> \
         --seconds <s> --trace <0|1> [--rev <rev>] [--stable-only] \
         [--stable-expect <file>]"
    );
    std::process::exit(2)
}

fn parse_args() -> Config {
    let mut cfg = Config {
        workload: String::new(),
        seed: 0,
        seconds: 0,
        trace: false,
        rev: "unknown".into(),
        stable_only: false,
        stable_expect: None,
    };
    let mut args = std::env::args().skip(1);
    let mut seen_seed = false;
    while let Some(a) = args.next() {
        let mut val = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{a} needs a value")))
        };
        let int = |v: String| {
            v.parse::<u64>()
                .unwrap_or_else(|_| usage(&format!("{a}: not an integer: {v}")))
        };
        match a.as_str() {
            "--workload" => cfg.workload = val(),
            "--seed" => {
                cfg.seed = int(val());
                seen_seed = true;
            }
            "--seconds" => cfg.seconds = int(val()),
            "--trace" => {
                cfg.trace = match val().as_str() {
                    "0" => false,
                    "1" => true,
                    v => usage(&format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--rev" => cfg.rev = val(),
            "--stable-only" => cfg.stable_only = true,
            "--stable-expect" => cfg.stable_expect = Some(PathBuf::from(val())),
            _ => usage(&format!("unknown argument {a}")),
        }
    }
    if !["cold_read", "warm_repeat", "serve_churn"].contains(&cfg.workload.as_str()) {
        usage("--workload must be cold_read, warm_repeat or serve_churn");
    }
    if !seen_seed {
        usage("--seed is required");
    }
    if cfg.seconds == 0 && !cfg.stable_only {
        usage("--seconds must be at least 1");
    }
    cfg
}

/// End-to-end batch walls of a run.
#[derive(Default)]
pub struct Samples {
    pub intersects: Vec<f64>,
    pub point: Vec<f64>,
    pub contains: Vec<f64>,
    pub intersects3d: Vec<f64>,
    pub queries: u64,
    pub batch_time: Duration,
}

pub struct Outcome {
    workload: String,
    seed: u64,
    pub e2e: Metrics,
    pub layers: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// Stable deltas of the fixed prefix.
    pub stable: Option<String>,
    pub sizes: String,
    /// Exec width the timed loop ran at.
    pub width: usize,
    /// Minor page faults of the process per timed round.
    pub faults_per_round: f64,
}

impl Outcome {
    pub fn new(cfg: &Config) -> Self {
        Outcome {
            workload: cfg.workload.clone(),
            seed: cfg.seed,
            e2e: Metrics::default(),
            layers: Metrics::default(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            stable: None,
            sizes: String::new(),
            width: 1,
            faults_per_round: 0.0,
        }
    }

    /// The end-to-end metrics every workload shares.
    pub fn e2e_common(&mut self, s: &Samples, setup_s: f64, peak_bytes: usize) {
        let m = &mut self.e2e;
        m.put("setup_s", setup_s, "s");
        m.put("intersects_batch_p50_ms", median(&s.intersects), "ms");
        m.put("intersects_batch_tail_ms", tail(&s.intersects), "ms");
        m.put("point_batch_p50_ms", median(&s.point), "ms");
        m.put("contains_batch_p50_ms", median(&s.contains), "ms");
        m.put("intersects3d_batch_p50_ms", median(&s.intersects3d), "ms");
        m.put(
            "queries_per_s",
            s.queries as f64 / s.batch_time.as_secs_f64(),
            "1/s",
        );
        m.put("peak_heap_mb", peak_bytes as f64 / 1e6, "MB");
    }

    fn path(&self, what: &str) -> PathBuf {
        PathBuf::from(OUT_DIR).join(format!("{}-seed{}.{what}", self.workload, self.seed))
    }

    /// Writes the Chrome trace of the traced rounds.
    pub fn write_chrome(&mut self) {
        if let Err(e) = obs::chrome::write(self.path("trace.json")) {
            self.problems.push(format!("writing the Chrome trace: {e}"));
        }
    }
}

/// FNV-1a of a text, to name a Stable delta on one line.
fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

fn main() {
    let cfg = parse_args();
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {e}");
        std::process::exit(2);
    }
    let mut out = match cfg.workload.as_str() {
        "cold_read" => read::run(&cfg, false),
        "warm_repeat" => read::run(&cfg, true),
        _ => churn::run(&cfg),
    };
    let stable = out.stable.take().unwrap_or_default();
    if cfg.stable_only {
        let path = out.path("replay.txt");
        if let Err(e) = std::fs::write(&path, &stable) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        println!(
            "stable deltas: {:016x} -> {}",
            digest(&stable),
            path.display()
        );
        return;
    }
    if cfg.trace {
        let path = out.path("stable.txt");
        if let Err(e) = std::fs::write(&path, &stable) {
            out.problems
                .push(format!("writing {}: {e}", path.display()));
        }
        if let Some(expect) = &cfg.stable_expect {
            match std::fs::read_to_string(expect) {
                Ok(other) if other == stable => {}
                Ok(_) => out.problems.push(format!(
                    "Stable deltas differ from {} (same seed, another process)",
                    expect.display()
                )),
                Err(e) => out
                    .problems
                    .push(format!("reading {}: {e}", expect.display())),
            }
        }
        println!(
            "stable deltas: {:016x} -> {}",
            digest(&stable),
            path.display()
        );
    }
    out.layers.put(
        "alloc.minor_faults_per_round",
        out.faults_per_round,
        "count",
    );
    let ok_share = 1.0 - out.failed as f64 / out.attempted.max(1) as f64;
    out.e2e.put("ok_op_share", ok_share, "ratio");

    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "{{\"meta\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"rev\": \"{}\", \"host_cpus\": {host_cpus}, \"exec_width\": {}, \
         \"inputs\": \"{}\", \"tail_percentile\": {TAIL_PERCENTILE}, \
         \"minor_faults_per_round\": {:.1}}}}}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        cfg.trace,
        cfg.rev,
        out.width,
        out.sizes,
        out.faults_per_round
    );
    if host_cpus <= 2 {
        println!(
            "scaling: skipped (host_cpus={host_cpus}; multi-thread scaling needs more than 2 CPUs)"
        );
    } else {
        println!("scaling: not measured by this benchmark (host_cpus={host_cpus})");
    }
    println!(
        "end-to-end ({}):",
        if cfg.trace {
            "traced run, not reported"
        } else {
            "untraced"
        }
    );
    out.e2e.print_table();
    if cfg.trace {
        println!("per-layer:");
        out.layers.print_table();
    }
    for p in &out.problems {
        println!("PROBLEM: {p}");
    }
    if out.failed > 0 {
        println!(
            "PROBLEM: {} of {} operations failed or returned wrong results",
            out.failed, out.attempted
        );
    }
    let correct = out.failed == 0 && out.problems.is_empty();
    let metrics = if cfg.trace { &out.layers } else { &out.e2e };
    println!(
        "{}",
        metrics.result_line(correct, out.attempted, out.failed)
    );
    std::process::exit(if correct { 0 } else { 1 });
}
