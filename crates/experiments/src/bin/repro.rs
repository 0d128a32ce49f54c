//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [--seed N] [--jobs N] [--resume] [--no-cache] [--quiet | -v]
//!       [--sweep-secs N] [--trace-secs N] [--optgap-secs N]
//!       [--fault-plan SPEC] [--metrics-addr HOST:PORT]
//!       [--baseline FILE] [--bench-tolerance PCT] [--bench-iters N]
//!       [--devices N] [--device-secs N] [--fidelity full|summary]
//!       [all | fig3 fig4 fig5 fig6 fig7 fig8 fig9
//!        table1 table2 table3 battery sa2 cost
//!        sweep sweep-full deadline ablation govil elastic
//!        tracedriven timescale summary oracle memprobe modern spectrum
//!        optgap trace bench fleet]
//! ```
//!
//! Results are printed (tables + ASCII charts) and saved as CSV under
//! `results/` (override with `REPRO_RESULTS_DIR`). An argument that is
//! neither a flag above nor an experiment exits 2, naming it, before
//! anything runs or is written.
//!
//! Observability:
//!
//! - `--quiet` silences engine chatter on stderr (errors still print);
//!   `-v` turns on per-job debug records.
//! - `--metrics-addr HOST:PORT` serves live run telemetry as a
//!   Prometheus text endpoint at `http://HOST:PORT/metrics` for the
//!   whole invocation (port `0` picks a free port; the bound address is
//!   logged, and written to the file named by `REPRO_METRICS_ADDR_FILE`
//!   when that variable is set). The exporter also arms the per-worker
//!   stall watchdog (threshold `REPRO_STALL_MS` ms, default 5000). The
//!   telemetry plane is wall-clock observation only — every
//!   deterministic artifact is byte-identical with it on or off.
//! - engine-backed experiments write a `metrics.json` rollup next to
//!   their results and print a one-line summary.
//! - `trace` exports the structured event stream of the paper's key
//!   scenarios (`fig3`, `fig8`, `avgn`) as CSV and Chrome
//!   `trace_event` JSON under `results/trace/`. The bytes are a pure
//!   function of `--seed`: independent of `--jobs`, cache state, and
//!   wall-clock. `--trace-secs N` shortens each traced run for smoke
//!   tests.
//!
//! The grid experiments (`sweep`, `sweep-full`, `govil`, `ablation`)
//! run on the execution engine:
//!
//! - `--jobs N` — worker threads (default: one per core). Results are
//!   bit-identical whatever `N` is.
//! - completed cells persist in `results/cache/`; a re-run only
//!   simulates cells whose configuration changed. `--no-cache` turns
//!   the cache off for this invocation.
//! - `--resume` — replay the journal an interrupted run left behind
//!   instead of re-simulating its completed cells.
//! - `--sweep-secs N` — override seconds simulated per sweep cell
//!   (shrinks `sweep` for smoke tests, stretches it for studies).
//! - `--optgap-secs N` — seconds of work trace recorded per benchmark
//!   for the `optgap` optimality-gap experiment (default 30). Like
//!   `trace`, optgap's whole output — `metrics.json` included — is a
//!   pure function of `--seed`.
//! - `--fault-plan SPEC` — run the batch under deterministic fault
//!   injection (see EXPERIMENTS.md). `SPEC` is either the preset
//!   `chaos:<seed>` or explicit `key=value` pairs, e.g.
//!   `seed=7,corrupt=0.25,torn=0.25,panic=0.25,max_panics=2`.
//!   The same spec replays the same faults, whatever `--jobs` is.
//!
//! `fleet` is the streaming population simulation (see EXPERIMENTS.md):
//! `--devices N` devices (default 1000) are generated lazily from
//! `--seed`, each a hardware/workload/charge variation of the stock
//! Itsy, simulated for `--device-secs` (default 1) simulated seconds,
//! and folded into mergeable sketches at bounded memory. It writes
//! `results/fleet/population_summary.txt` — canonical bytes that are
//! identical for any `--jobs` and any cache state — plus a `fleet.csv`
//! digest, a `fleet_timeline.csv` windowed timeline (energy, deadline
//! misses, utilization and battery drain over simulated time, same
//! determinism guarantee) and the usual `metrics.json` (including
//! `peak_rss_bytes`).
//! Devices simulate at summary fidelity by default (uniform spans are
//! committed in closed form); `--fidelity full` runs the historical
//! tick-by-tick arithmetic. Neither records per-tick series.
//!
//! `bench` is the performance-regression harness (see EXPERIMENTS.md)
//! for the paths perfbench has no workload for: it times a
//! single-thread simulator hot loop (at full and summary fidelity), a
//! trace export and the optgap suite, then writes `BENCH_<n>.json` and
//! `BENCH_latest.json` into the current directory. `--baseline FILE`
//! compares the new gate against a previous report and exits 1 on a
//! regression beyond `--bench-tolerance` percent (default 30);
//! `--bench-iters N` sets the hot-loop iteration count.

use std::time::Instant;

use engine::{BatchStats, Engine, EngineConfig, FaultPlan};
use experiments::plot;
use experiments::*;

/// Consumes `--flag <value>` from `args`; `None` if absent.
fn take_value_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let pos = args.iter().position(|a| a == flag)?;
    if pos + 1 >= args.len() {
        eprintln!("{flag} needs a value");
        std::process::exit(2);
    }
    let value = args[pos + 1].clone();
    args.drain(pos..=pos + 1);
    Some(value)
}

/// Consumes `--flag <value>` from `args` and parses it; `None` if
/// absent. A value that does not parse exits 2, naming the flag.
fn take_parsed<T: std::str::FromStr>(args: &mut Vec<String>, flag: &str) -> Option<T>
where
    T::Err: std::fmt::Display,
{
    take_value_flag(args, flag).map(|v| {
        v.parse().unwrap_or_else(|e| {
            eprintln!("bad {flag} value: {e}");
            std::process::exit(2);
        })
    })
}

/// Consumes `--flag <seconds>` from `args`; `None` if absent. A count
/// that does not parse, or whose microseconds overflow the simulated
/// clock, exits 2 before anything runs.
fn take_secs(args: &mut Vec<String>, flag: &str) -> Option<u64> {
    take_parsed(args, flag).inspect(|&secs| {
        if sim_core::SimDuration::checked_from_secs(secs).is_none() {
            eprintln!(
                "bad {flag} value: {secs} s overflows the simulated clock \
                 (at most {} s)",
                u64::MAX / 1_000_000
            );
            std::process::exit(2);
        }
    })
}

/// Consumes a bare `--flag` from `args`; true if present.
fn take_bool_flag(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        Some(pos) => {
            args.remove(pos);
            true
        }
        None => false,
    }
}

/// What `all` runs, in order.
const ALL: [&str; 26] = [
    "table3",
    "sa2",
    "battery",
    "cost",
    "fig5",
    "table1",
    "fig6",
    "fig7",
    "fig3",
    "fig4",
    "fig8",
    "fig9",
    "table2",
    "deadline",
    "ablation",
    "govil",
    "elastic",
    "tracedriven",
    "timescale",
    "summary",
    "oracle",
    "memprobe",
    "modern",
    "spectrum",
    "optgap",
    "sweep",
];

/// Experiments that run only when named.
const NAMED_ONLY: [&str; 4] = ["sweep-full", "trace", "bench", "fleet"];

fn print_stats(stats: &BatchStats) {
    let mut line = format!(
        "    engine: {} cells, {} simulated on {} worker(s), {} cache hit(s), {} journal hit(s)",
        stats.total, stats.executed, stats.workers, stats.cache_hits, stats.journal_hits
    );
    if stats.quarantined > 0 {
        line.push_str(&format!(", {} quarantined", stats.quarantined));
    }
    if stats.failed > 0 {
        line.push_str(&format!(", {} FAILED", stats.failed));
    }
    println!("{line}");
}

fn print_metrics(metrics: &obs::RunMetrics) {
    println!("    {}", metrics.summary_line());
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let seed: u64 = take_parsed(&mut args, "--seed").unwrap_or(1);
    let jobs: usize = take_parsed(&mut args, "--jobs").unwrap_or(0);
    let sweep_secs = take_secs(&mut args, "--sweep-secs");
    let trace_secs = take_secs(&mut args, "--trace-secs");
    let optgap_secs = take_secs(&mut args, "--optgap-secs");
    let devices: Option<u64> = take_parsed(&mut args, "--devices");
    let device_secs = take_secs(&mut args, "--device-secs");
    let fidelity: Option<sim_core::SimFidelity> =
        take_value_flag(&mut args, "--fidelity").map(|v| {
            sim_core::SimFidelity::parse(&v).unwrap_or_else(|| {
                eprintln!("bad --fidelity value: {v} (expected full or summary)");
                std::process::exit(2);
            })
        });
    if take_bool_flag(&mut args, "--quiet") {
        obs::set_verbosity(obs::Level::Error);
    } else if take_bool_flag(&mut args, "-v") {
        obs::set_verbosity(obs::Level::Debug);
    }
    let metrics_addr = take_value_flag(&mut args, "--metrics-addr");
    let baseline: Option<String> = take_value_flag(&mut args, "--baseline");
    let bench_tolerance: f64 = take_parsed(&mut args, "--bench-tolerance").unwrap_or(30.0);
    let bench_iters: Option<u32> = take_parsed(&mut args, "--bench-iters");
    let faults: Option<FaultPlan> = take_value_flag(&mut args, "--fault-plan").map(|v| {
        let parsed = match v.strip_prefix("chaos:") {
            Some(seed) => seed
                .parse::<u64>()
                .map(FaultPlan::chaos)
                .map_err(|e| format!("bad chaos seed: {e}")),
            None => FaultPlan::parse(&v),
        };
        parsed.unwrap_or_else(|e| {
            eprintln!("bad --fault-plan: {e}");
            std::process::exit(2);
        })
    });
    let use_cache = !take_bool_flag(&mut args, "--no-cache");
    let resume = take_bool_flag(&mut args, "--resume");
    // Every flag is taken by now, so whatever is left must name
    // experiments.
    let known = |a: &str| a == "all" || ALL.contains(&a) || NAMED_ONLY.contains(&a);
    if let Some(bad) = args.iter().find(|a| !known(a)) {
        let kind = if bad.starts_with('-') {
            "option"
        } else {
            "experiment"
        };
        eprintln!("unknown {kind}: {bad}");
        std::process::exit(2);
    }
    if let Some(addr) = metrics_addr {
        let stall_ms = obs::exporter::stall_threshold_ms();
        let bound = obs::exporter::start(&addr, stall_ms, engine::render_prometheus)
            .unwrap_or_else(|e| {
                eprintln!("cannot serve --metrics-addr {addr}: {e}");
                std::process::exit(2);
            });
        obs::info!("repro: metrics exporter listening on http://{bound}/metrics");
        if let Ok(path) = std::env::var("REPRO_METRICS_ADDR_FILE") {
            std::fs::write(&path, bound.to_string()).unwrap_or_else(|e| {
                eprintln!("cannot write metrics address to {path}: {e}");
                std::process::exit(2);
            });
        }
    }
    let engine = Engine::new(EngineConfig {
        jobs,
        use_cache,
        resume,
        faults,
        progress: true,
        write_metrics: true,
        ..EngineConfig::default()
    });
    let mut cells_failed = 0usize;
    let mut gate_failed = false;
    #[allow(non_snake_case)]
    let SEED = seed;
    let want: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        ALL.to_vec()
    } else {
        args.iter().map(|s| s.as_str()).collect()
    };

    for id in want {
        let t0 = Instant::now();
        println!("==> {id}");
        match id {
            "fig3" => {
                let r = fig3::run(SEED);
                r.save().expect("save fig3");
                println!("{r}");
                for (b, s) in &r.series {
                    let w = fig3::plot_window(s);
                    println!("{} (10ms quanta, first 30s):", b.name());
                    println!(
                        "{}",
                        plot::ascii_chart_bounds(&w, 100, 10, Some((0.0, 1.0)))
                    );
                }
            }
            "fig4" => {
                let r = fig4::run(SEED);
                r.save().expect("save fig4");
                println!("{r}");
                for (b, s) in &r.ma100 {
                    println!("{} (100ms moving average, first 30s):", b.name());
                    let w = s.window(sim_core::SimTime::ZERO, sim_core::SimTime::from_secs(30));
                    println!("{}", plot::ascii_chart_bounds(&w, 100, 8, Some((0.0, 1.0))));
                }
            }
            "fig5" => {
                let r = fig5::run();
                r.save().expect("save fig5");
                println!("{r}");
            }
            "fig6" => {
                let r = fig6::run(3);
                r.save().expect("save fig6");
                println!("{r}");
            }
            "fig7" => {
                let r = fig7::run();
                r.save().expect("save fig7");
                println!("{r}");
                println!(
                    "{}",
                    plot::ascii_chart_bounds(&r.analytic, 100, 12, Some((0.0, 1.0)))
                );
            }
            "fig8" => {
                let r = fig8::run(SEED);
                r.save().expect("save fig8");
                println!("{r}");
                println!(
                    "{}",
                    plot::ascii_chart_bounds(&r.freq_mhz, 100, 12, Some((50.0, 210.0)))
                );
            }
            "fig9" => {
                let r = fig9::run(SEED);
                r.save().expect("save fig9");
                println!("{r}");
                let mut curve = sim_core::TimeSeries::new("decode_util_vs_mhz");
                for p in &r.points {
                    curve.push(
                        sim_core::SimTime::from_micros((p.mhz * 1000.0) as u64),
                        p.decode_utilization,
                    );
                }
                println!(
                    "{}",
                    plot::ascii_chart_bounds(&curve, 80, 12, Some((0.7, 1.0)))
                );
            }
            "table1" => {
                let r = table1::run();
                r.save().expect("save table1");
                println!("{r}");
            }
            "table2" => {
                let r = table2::run(SEED);
                r.save().expect("save table2");
                println!("{r}");
            }
            "table3" => {
                let r = table3::run();
                r.save().expect("save table3");
                println!("{r}");
            }
            "battery" => {
                let r = battery_exp::run();
                r.save().expect("save battery");
                println!("{r}");
            }
            "sa2" => {
                let r = sa2::run();
                r.save().expect("save sa2");
                println!("{r}");
            }
            "cost" => {
                let r = switch_cost::run();
                r.save().expect("save cost");
                println!("{r}");
            }
            "sweep" => {
                let mut config = sweep::SweepConfig::quick();
                if let Some(secs) = sweep_secs {
                    config.secs = secs;
                }
                let (r, stats, metrics) = sweep::run_with(&engine, &config, SEED);
                r.save().expect("save sweep");
                println!("{r}");
                print_stats(&stats);
                print_metrics(&metrics);
                cells_failed += stats.failed;
            }
            "sweep-full" => {
                let mut config = sweep::SweepConfig::full();
                if let Some(secs) = sweep_secs {
                    config.secs = secs;
                }
                let (r, stats, metrics) = sweep::run_with(&engine, &config, SEED);
                r.save().expect("save sweep");
                println!("{r}");
                print_stats(&stats);
                print_metrics(&metrics);
                cells_failed += stats.failed;
            }
            "deadline" => {
                let r = deadline_exp::run();
                r.save().expect("save deadline");
                println!("{r}");
            }
            "spectrum" => {
                let r = spectrum::run(SEED);
                r.save().expect("save spectrum");
                println!("{r}");
            }
            "modern" => {
                let r = modern::run(SEED);
                r.save().expect("save modern");
                println!("{r}");
            }
            "memprobe" => {
                let r = memprobe::run();
                r.save().expect("save memprobe");
                println!("{r}");
            }
            "oracle" => {
                let r = oracle_exp::run(SEED);
                r.save().expect("save oracle");
                println!("{r}");
            }
            "optgap" => {
                let mut cfg = optgap_cmd::OptgapConfig {
                    seed: SEED,
                    ..optgap_cmd::OptgapConfig::default()
                };
                if let Some(secs) = optgap_secs {
                    cfg.secs = secs;
                }
                let r = optgap_cmd::run(&cfg);
                r.save().expect("save optgap");
                println!("{r}");
                print_metrics(&r.metrics);
            }
            "summary" => {
                let r = summary::run(SEED);
                r.save().expect("save summary");
                println!("{r}");
            }
            "timescale" => {
                let r = timescale::run(SEED);
                r.save().expect("save timescale");
                println!("{r}");
            }
            "tracedriven" => {
                let r = tracedriven::run(SEED);
                r.save().expect("save tracedriven");
                println!("{r}");
            }
            "govil" => {
                let (r, stats, metrics) = govil_exp::run_with(&engine, SEED);
                r.save().expect("save govil");
                println!("{r}");
                print_stats(&stats);
                print_metrics(&metrics);
                cells_failed += stats.failed;
            }
            "elastic" => {
                let r = elastic::run(SEED);
                r.save().expect("save elastic");
                println!("{r}");
            }
            "ablation" => {
                let a = ablation::interval_length_with(&engine, SEED);
                a.save().expect("save ablation");
                println!("{a}");
                let v = ablation::vscale_threshold_with(&engine, SEED);
                v.save().expect("save ablation");
                println!("{v}");
                let (without, with) = ablation::java_poller_with(&engine, SEED);
                println!("Ablation: Kaffe 30ms poller (Web, AVG_3 one-one)");
                println!(
                    "  without poller: {} switches, {:.1} MHz mean, {:.1} J",
                    without.switches, without.mean_mhz, without.energy_j
                );
                println!(
                    "  with poller   : {} switches, {:.1} MHz mean, {:.1} J\n",
                    with.switches, with.mean_mhz, with.energy_j
                );
            }
            "trace" => {
                for scenario in trace_exp::SCENARIOS {
                    let out = trace_exp::export(scenario, SEED, trace_secs)
                        .expect("known trace scenario");
                    let (csv, json) = out.save().expect("save trace");
                    println!(
                        "    {scenario}: {} events from {} run(s) -> {}, {}",
                        out.events,
                        out.runs,
                        csv.display(),
                        json.display()
                    );
                }
            }
            "fleet" => {
                let mut population = fleet::PopulationConfig::new(devices.unwrap_or(1_000), SEED);
                if let Some(secs) = device_secs {
                    population.device_secs = secs;
                }
                if let Some(f) = fidelity {
                    population.fidelity = f;
                }
                // The fleet run always carries the windowed timeline;
                // it is derived observation, so the other artifacts
                // are unchanged by it.
                let fleet_engine = Engine::new(EngineConfig {
                    timeline_windows: fleet::TIMELINE_WINDOWS,
                    ..engine.config().clone()
                });
                let artifacts =
                    fleet_cmd::run_with(&fleet_engine, &population).expect("save fleet");
                let stats = &artifacts.outcome.stats;
                print!("{}", fleet::digest(&artifacts.outcome.acc.summary));
                println!(
                    "    engine: {} devices streamed on {} worker(s), {} failed -> {:.0} devices/s",
                    stats.total,
                    stats.workers,
                    stats.failed,
                    stats.devices_per_sec()
                );
                print_metrics(&artifacts.outcome.metrics);
                println!(
                    "    wrote {} (and {}, {})",
                    artifacts.summary_path.display(),
                    artifacts.csv_path.display(),
                    artifacts.timeline_path.display()
                );
                cells_failed += stats.failed as usize;
            }
            "bench" => {
                let mut cfg = bench_cmd::BenchConfig {
                    seed: SEED,
                    ..bench_cmd::BenchConfig::default()
                };
                if let Some(secs) = trace_secs {
                    cfg.trace_secs = secs;
                }
                if let Some(iters) = bench_iters {
                    cfg.hot_iters = iters;
                }
                // Read the baseline gate before saving: saving
                // rewrites BENCH_latest.json, which is a perfectly
                // good --baseline argument.
                let base_gate = baseline.as_ref().map(|path| {
                    std::fs::read_to_string(path)
                        .ok()
                        .and_then(|doc| bench_cmd::parse_gate(&doc))
                });
                let report = bench_cmd::run(&cfg);
                print!("{}", report.summary);
                let (numbered, latest) = report
                    .save(std::path::Path::new("."))
                    .expect("write BENCH report");
                println!(
                    "    wrote {} (and {})",
                    numbered.display(),
                    latest.display()
                );
                if let (Some(path), Some(base)) = (&baseline, base_gate) {
                    match base {
                        Some(base) => {
                            let failures = bench_cmd::compare(&report.gate, &base, bench_tolerance);
                            if failures.is_empty() {
                                println!("    gate holds vs {path} (tolerance {bench_tolerance}%)");
                            } else {
                                for failure in &failures {
                                    eprintln!("    REGRESSION {failure}");
                                }
                                gate_failed = true;
                            }
                        }
                        None => {
                            eprintln!("    no gate object readable from {path}");
                            gate_failed = true;
                        }
                    }
                }
            }
            other => unreachable!("`{other}` was checked before anything ran"),
        }
        println!("    ({:.2}s)\n", t0.elapsed().as_secs_f64());
    }
    if cells_failed > 0 {
        eprintln!(
            "{cells_failed} cell(s) produced no result; completed cells are \
             cached — re-run with --resume to retry the failures"
        );
        std::process::exit(1);
    }
    if gate_failed {
        eprintln!("bench gate failed; see REGRESSION lines above");
        std::process::exit(1);
    }
}
