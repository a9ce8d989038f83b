//! `runme` — the artifact-evaluation entry point, mirroring the paper's
//! Appendix A (`./runme.sh`): checks the environment, runs a smoke
//! verification of every engine, then regenerates all tables and
//! figures at the configured scale.
//!
//! ```sh
//! cargo run --release -p bench --bin runme            # smoke + full eval
//! cargo run --release -p bench --bin runme -- --smoke-only
//! cargo run --release -p bench --bin runme -- --seed 7   # replayable run
//! cargo run --release -p bench --bin runme -- --trace            # target/trace.json
//! cargo run --release -p bench --bin runme -- --trace my.json
//! cargo run --release -p bench --bin runme -- --serve 127.0.0.1:9000
//! ```
//!
//! `--seed N` pins every workload generator, making the whole run
//! byte-for-byte replayable; the default is the paper's seed 42.
//!
//! `--trace [PATH]` additionally records the full span/launch/query
//! timeline and exports it as a Chrome Trace Format file loadable in
//! Perfetto (`ui.perfetto.dev`) or `chrome://tracing`; the default
//! path is `target/trace.json` so the export never dirties the
//! checkout. Query-level trace records (per-batch latency, chosen `k`,
//! prediction error) are always collected and aggregated into
//! `BENCH_perf.json`; slow-query capture is armed via
//! `LIBRTS_SLOW_QUERY_MS`.
//!
//! `--serve ADDR` brings up the live observability plane for the
//! duration of the run: the HTTP introspection server on `ADDR`
//! (`/metrics`, `/health`, `/index`, …), the time-series sampler, the
//! default SLO health rules, and a flight-recorder panic hook writing
//! `target/flight.json`. Point `curl` or a browser at the printed URL
//! while the figures run. Everything shuts down when the run ends.

use std::time::{Duration, Instant};

use baselines::{lbvh::Lbvh, rtree::RTree};
use bench::{figures, EvalConfig, PerfReport};
use datasets::{queries, Dataset};
use librts::{CountingHandler, Predicate, RTSIndex};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke_only = args.iter().any(|a| a == "--smoke-only");
    let mut seed: Option<u64> = None;
    let mut trace_path: Option<String> = None;
    let mut serve_addr: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke-only" => {}
            "--seed" => {
                i += 1;
                seed = Some(
                    args.get(i)
                        .and_then(|v| v.parse().ok())
                        .expect("--seed takes an integer"),
                );
            }
            "--trace" => {
                // The path is optional: a bare `--trace` exports to
                // target/trace.json, keeping the checkout clean.
                if args.get(i + 1).is_some_and(|v| !v.starts_with("--")) {
                    i += 1;
                    trace_path = Some(args[i].clone());
                } else {
                    trace_path = Some("target/trace.json".to_string());
                }
            }
            "--serve" => {
                i += 1;
                serve_addr = Some(
                    args.get(i)
                        .expect("--serve takes an address, e.g. 127.0.0.1:9000")
                        .clone(),
                );
            }
            other => panic!("unknown argument {other:?}"),
        }
        i += 1;
    }
    // Per-query records always on (they feed the per-figure latency and
    // prediction-error stats in BENCH_perf.json); the full span/launch
    // timeline only when it will be exported.
    if trace_path.is_some() {
        obs::trace::enable_full();
    } else {
        obs::trace::enable_queries();
    }
    // The live plane, opt-in via --serve: HTTP introspection server,
    // time-series sampler, default SLO rules behind /health, and a
    // flight-recorder panic hook for post-mortems.
    let server = serve_addr.as_deref().map(|addr| {
        obs::health::install(obs::HealthEngine::new(obs::health::default_rules(40)));
        obs::flight::install_panic_hook("target/flight.json");
        assert!(
            obs::timeseries::start(Duration::from_millis(250)),
            "time-series sampler already running"
        );
        let handle = obs::server::start(addr, 4)
            .unwrap_or_else(|e| panic!("--serve: cannot bind {addr}: {e}"));
        println!(
            "live plane: http://{}/  (endpoints: /metrics /metrics.json /timeseries \
             /traces /slow /explain /health /flight /index)\n",
            handle.addr()
        );
        handle
    });
    println!("LibRTS reproduction — artifact evaluation runner");
    println!(
        "host: {} logical CPUs, {} executor threads (LIBRTS_THREADS), simulated RT device (see DESIGN.md §2)\n",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        exec::current_threads(),
    );

    // ---- Stage 1: smoke verification -----------------------------------
    // A miniature end-to-end run with result cross-checking; failure here
    // means the installation is broken, as runme.sh's early steps would.
    let t = Instant::now();
    let mut cfg = EvalConfig::smoke();
    if let Some(s) = seed {
        cfg.seed = s;
    }
    // The perf collector exists from the start so the smoke stage itself
    // lands in `figures` — `--smoke-only` used to emit an artifact with
    // an empty figure list, which CI could not sanity-check.
    let mut perf = PerfReport::new("runme", &cfg);
    let (n_rects, n_pts, n_iqs) = perf.record("smoke", || {
        let rects = Dataset::UsCensus.generate(cfg.scale, cfg.seed);
        let pts = queries::point_queries(&rects, 500, cfg.seed);
        let iqs = queries::intersects_queries(&rects, 200, 0.001, cfg.seed);

        let index = RTSIndex::with_rects(&rects, Default::default()).expect("index build");
        let rtree = RTree::bulk_load(&rects);
        let lbvh = Lbvh::build(&rects);

        let h = CountingHandler::new();
        index.point_query(&pts, &h);
        let rt = rtree.batch_point_query(&pts);
        let lb = lbvh.batch_point_query(&pts);
        assert_eq!(h.count(), rt.results, "point query: LibRTS vs RTree");
        assert_eq!(h.count(), lb.results, "point query: LibRTS vs LBVH");

        let h = CountingHandler::new();
        index.range_query(Predicate::Intersects, &iqs, &h);
        let rt = rtree.batch_intersects(&iqs);
        assert_eq!(h.count(), rt.results, "intersects: LibRTS vs RTree");

        (rects.len(), pts.len(), iqs.len())
    });

    println!(
        "smoke verification passed in {:?} ({n_rects} rects, {n_pts} point / {n_iqs} range queries, all engines agree)\n",
        t.elapsed(),
    );
    if smoke_only {
        // The artifact carries the smoke figure (with its counter
        // deltas) plus the executor scaling and concurrent-serving
        // studies at smoke scale, so CI gets a non-empty
        // BENCH_perf.json from every mode.
        perf.intersects_scaling(&cfg);
        perf.concurrency_study(&cfg);
        perf.maintenance_study(&cfg);
        perf.serving_obs_study(&cfg);
        perf.chaos_study(&cfg);
        perf.record_explain(&cfg);
        perf.write("BENCH_perf.json");
        export_trace(trace_path.as_deref());
        shutdown_live_plane(server);
        return;
    }

    // ---- Stage 2: the full evaluation -----------------------------------
    let mut cfg = EvalConfig::default();
    if let Some(s) = seed {
        cfg.seed = s;
    }
    println!(
        "regenerating all tables and figures (scale 1/{}, queries 1/{}, seed {})...",
        cfg.scale, cfg.query_div, cfg.seed
    );
    let mut perf = PerfReport::new("runme", &cfg);
    perf.record("table1", figures::table1).print();
    perf.record("table2", || figures::table2(&cfg)).print();
    perf.record("fig6a", || figures::fig6a(&cfg)).print();
    perf.record("fig6b", || figures::fig6b(&cfg)).print();
    perf.record("fig7a", || figures::fig7a(&cfg)).print();
    perf.record("fig7b", || figures::fig7b(&cfg)).print();
    for t in perf.record("fig8", || figures::fig8(&cfg)) {
        t.print();
    }
    perf.record("fig8d", || figures::fig8d(&cfg)).print();
    perf.record("fig9a", || figures::fig9a(&cfg)).print();
    perf.record("fig9b", || figures::fig9b(&cfg)).print();
    perf.record("fig10a", || figures::fig10a(&cfg)).print();
    perf.record("fig10b", || figures::fig10b(&cfg)).print();
    perf.record("fig10c", || figures::fig10c(&cfg)).print();
    perf.record("fig11", || figures::fig11(&cfg)).print();
    perf.record("fig12", || figures::fig12(&cfg)).print();
    perf.intersects_scaling(&cfg);
    perf.concurrency_study(&cfg);
    perf.maintenance_study(&cfg);
    perf.serving_obs_study(&cfg);
    perf.chaos_study(&cfg);
    perf.record_explain(&cfg);
    perf.write("BENCH_perf.json");
    export_trace(trace_path.as_deref());
    shutdown_live_plane(server);
    println!("\nall experiments completed; see EXPERIMENTS.md for interpretation.");
}

/// Tears down everything `--serve` started (no-op without it).
fn shutdown_live_plane(server: Option<obs::server::ServerHandle>) {
    let Some(handle) = server else { return };
    obs::timeseries::stop();
    handle.shutdown();
    println!("\nlive plane shut down");
}

/// Writes the Chrome Trace Format export when `--trace` was given.
fn export_trace(path: Option<&str>) {
    let Some(path) = path else { return };
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(dir);
        }
    }
    match obs::chrome::write(path) {
        Ok(()) => {
            let dropped = obs::trace::dropped_events();
            println!(
                "wrote {path} (Chrome Trace Format; open in ui.perfetto.dev){}",
                if dropped > 0 {
                    format!(" — {dropped} events dropped by the bounded ring")
                } else {
                    String::new()
                }
            );
        }
        Err(e) => eprintln!("failed to write {path}: {e}"),
    }
}
