//! `perfbench --workload W --seed N --seconds S --trace 0|1`: runs one
//! benchmark workload and prints its metrics as the last stdout line.
//! `--print-digest` instead prints `<seed> <digest>` for the workload's
//! reference table.

use perfbench::{fleet_wl, sweep_wl, Args, Workload};

fn main() {
    let args = Args::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    if args.print_digest {
        let digest = match args.workload {
            Workload::Fleet => fleet_wl::reference_digest(args.seed),
            Workload::SweepCold | Workload::SweepWarm => sweep_wl::reference_digest(args.seed),
        };
        match digest {
            Some(d) => println!("{} {d:016x}", args.seed),
            None => {
                eprintln!("perfbench: digests differ between 1 and all workers");
                std::process::exit(1);
            }
        }
        return;
    }
    println!(
        "host: cpu={:?} cores={} kernel={:?} workload={:?} seed={} seconds={} trace={}",
        obs::cpu_model().unwrap_or_default(),
        obs::core_count(),
        obs::kernel_version().unwrap_or_default(),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
    let outcome = match args.workload {
        Workload::Fleet => fleet_wl::run(&args),
        Workload::SweepCold | Workload::SweepWarm => sweep_wl::run(&args),
    };
    println!("{}", outcome.to_json());
}
