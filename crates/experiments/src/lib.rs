//! Reproduction harness: every table and figure in the paper's
//! evaluation, regenerated from the simulator.
//!
//! Each module corresponds to one artifact and exposes a `run(...)`
//! function returning a typed result with a `Display` implementation
//! that prints the same rows/series the paper reports, plus CSV export.
//! The `repro` binary runs any or all of them:
//!
//! ```text
//! cargo run --release -p experiments --bin repro -- all
//! cargo run --release -p experiments --bin repro -- table2 fig9
//! ```
//!
//! | id | paper artifact |
//! |----|----------------|
//! | `fig3`   | per-quantum utilization vs time, four workloads @206.4 MHz |
//! | `fig4`   | the same under a 100 ms moving average |
//! | `fig5`   | the simple-averaging policy worked example |
//! | `table1` | AVG_9 weighted-average trace with scale actions |
//! | `fig6`   | Fourier transform of the decaying exponential |
//! | `fig7`   | AVG_3 filtering of the 9/1 rectangle wave |
//! | `fig8`   | clock frequency vs time, MPEG under the best policy |
//! | `table2` | MPEG energy, five configurations, 95 % CIs |
//! | `fig9`   | utilization vs clock frequency (memory plateau) |
//! | `table3` | memory access cycles per clock step |
//! | `battery`| idle battery lifetime at 59 vs 206.4 MHz |
//! | `sa2`    | the §2.1 StrongARM SA-2 energy/delay example |
//! | `cost`   | clock/voltage switch cost measurement |
//! | `sweep`  | the §5.3 policy parameter sweep |
//! | `deadline` | §6 future work: the deadline governor vs the heuristics |
//! | `ablation` | interval-length / memory-model / voltage-threshold ablations |
//! | `govil` | the Govil et al. predictor family on the workloads |
//! | `elastic` | Pering-style energy-vs-frame-rate trade-off |
//! | `tracedriven` | trace-driven vs live evaluation of the same policy |
//! | `timescale` | dominant utilization periods (frame time, 30 ms poll) |
//! | `summary` | best policy vs constant-speed oracle, all workloads |
//! | `oracle` | Weiser's OPT/FUTURE/PAST trio on recorded work traces |
//! | `memprobe` | lmbench-style validation of Table 3 through the execution path |
//! | `modern` | the paper's policy vs Linux cpufreq ondemand/conservative |
//! | `spectrum` | measured MPEG utilization spectrum: frame lines vs AVG_N |
//! | `optgap` | exact YDS optimum vs the online speed-scaling canon |
//! | `trace` | deterministic structured-event export (CSV + Chrome JSON) |
//!
//! Not a paper artifact but run the same way: `repro bench`
//! ([`bench_cmd`]) times the hot loop, trace export and optgap suite —
//! the paths `perfbench/` has no workload for — and writes
//! `BENCH_*.json` performance reports.

pub mod ablation;
pub mod battery_exp;
pub mod bench_cmd;
pub mod deadline_exp;
pub mod elastic;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod fleet_cmd;
pub mod govil_exp;
pub mod memprobe;
pub mod modern;
pub mod optgap_cmd;
pub mod oracle_exp;
pub mod plot;
pub mod report;
pub mod runner;
pub mod sa2;
pub mod spectrum;
pub mod summary;
pub mod sweep;
pub mod switch_cost;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod timescale;
pub mod trace_exp;
pub mod tracedriven;

pub use runner::{measure_energy, run_benchmark, RunSpec};
