//! `paper_eval` — regenerates every table and figure of the LibRTS
//! evaluation (§6) as text tables.
//!
//! ```sh
//! cargo run --release -p bench --bin paper_eval -- all
//! cargo run --release -p bench --bin paper_eval -- fig8 --scale 32 --queries 5
//! ```
//!
//! Experiments: `table1 table2 fig6a fig6b fig7a fig7b fig8 fig8d fig9a
//! fig9b fig10a fig10b fig10c fig11 fig12 scaling concurrency maintenance
//! serving_obs chaos all`.
//!
//! Flags: `--scale N` divides dataset cardinalities (default 64),
//! `--queries N` divides query counts (default 10), `--seed N`,
//! `--full` restores paper scale.
//!
//! Every run also writes `BENCH_perf.json`: per-figure wall-clock and
//! simulated-device model time, the executor thread count
//! (`LIBRTS_THREADS`), the workload scale, and — when the `scaling`
//! experiment runs — the work-stealing-executor speedup on a Fig. 8
//! Range-Intersects batch (50K queries) vs a single thread.

use bench::figures;
use bench::{EvalConfig, PerfReport};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = EvalConfig::default();
    let mut experiments: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                cfg.scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--scale takes a positive integer");
            }
            "--queries" => {
                cfg.query_div = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--queries takes a positive integer");
            }
            "--seed" => {
                cfg.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed takes an integer");
            }
            "--full" => cfg = EvalConfig::full(),
            other => experiments.push(other.to_string()),
        }
    }
    if experiments.is_empty() {
        experiments.push("all".into());
    }

    println!(
        "LibRTS reproduction harness — scale 1/{}, queries 1/{}, seed {}, {} executor threads",
        cfg.scale,
        cfg.query_div,
        cfg.seed,
        exec::current_threads()
    );
    println!("(*) = simulated RT-device time from the SIMT cost model; other columns are host wall time.");

    let mut perf = PerfReport::new("paper_eval", &cfg);
    for exp in &experiments {
        run(exp, &cfg, &mut perf);
    }
    perf.write("BENCH_perf.json");
}

fn run(exp: &str, cfg: &EvalConfig, perf: &mut PerfReport) {
    match exp {
        "table1" => perf.record(exp, figures::table1).print(),
        "table2" => perf.record(exp, || figures::table2(cfg)).print(),
        "fig6a" => perf.record(exp, || figures::fig6a(cfg)).print(),
        "fig6b" => perf.record(exp, || figures::fig6b(cfg)).print(),
        "fig7a" => perf.record(exp, || figures::fig7a(cfg)).print(),
        "fig7b" => perf.record(exp, || figures::fig7b(cfg)).print(),
        "fig8" => {
            for t in perf.record(exp, || figures::fig8(cfg)) {
                t.print();
            }
        }
        "fig8d" => perf.record(exp, || figures::fig8d(cfg)).print(),
        "fig9a" => perf.record(exp, || figures::fig9a(cfg)).print(),
        "fig9b" => perf.record(exp, || figures::fig9b(cfg)).print(),
        "fig10a" => perf.record(exp, || figures::fig10a(cfg)).print(),
        "fig10b" => perf.record(exp, || figures::fig10b(cfg)).print(),
        "fig10c" => perf.record(exp, || figures::fig10c(cfg)).print(),
        "fig11" => perf.record(exp, || figures::fig11(cfg)).print(),
        "fig12" => perf.record(exp, || figures::fig12(cfg)).print(),
        "scaling" => {
            perf.intersects_scaling(cfg);
        }
        "concurrency" => {
            perf.concurrency_study(cfg);
        }
        "maintenance" => {
            perf.maintenance_study(cfg);
        }
        "serving_obs" => {
            perf.serving_obs_study(cfg);
        }
        "chaos" => {
            perf.chaos_study(cfg);
        }
        "all" => {
            for e in [
                "table1",
                "table2",
                "fig6a",
                "fig6b",
                "fig7a",
                "fig7b",
                "fig8",
                "fig8d",
                "fig9a",
                "fig9b",
                "fig10a",
                "fig10b",
                "fig10c",
                "fig11",
                "fig12",
                "scaling",
                "concurrency",
                "maintenance",
                "serving_obs",
                "chaos",
            ] {
                run(e, cfg, perf);
            }
        }
        other => eprintln!("unknown experiment '{other}' (see --help text in the source)"),
    }
}
