//! Simulator micro-benchmarks: the building blocks' raw throughput.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use analysis::{avg_n_response, dft_magnitudes, square_wave};
use daq::Daq;
use itsy_hw::{ClockTable, MemoryTiming, Work};
use kernel_sim::{Kernel, KernelConfig, Machine};
use policies::{AvgN, Predictor};
use sim_core::{Rng, SimDuration, SimTime, TimeSeries};
use workloads::Benchmark;

fn bench_rng(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulator");
    g.throughput(Throughput::Elements(1_000_000));
    g.bench_function("rng_1m_u64", |b| {
        let mut rng = Rng::new(1);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..1_000_000 {
                acc = acc.wrapping_add(rng.next_u64());
            }
            black_box(acc)
        })
    });
    g.finish();
}

fn bench_work_execution(c: &mut Criterion) {
    let table = ClockTable::sa1100();
    let mem = MemoryTiming::sa1100_edo();
    c.bench_function("work_execute_split_1k", |b| {
        let w = Work::new(5.0e6, 1.0e4, 8.0e4);
        b.iter(|| {
            let mut total = SimDuration::ZERO;
            for step in 0..11 {
                let f = table.freq(step);
                total += w.time_at(step, f, &mem);
            }
            black_box(total)
        })
    });
}

fn bench_kernel_throughput(c: &mut Criterion) {
    // How many simulated seconds per wall second the kernel achieves on
    // each workload.
    let mut g = c.benchmark_group("kernel_sim_seconds");
    g.sample_size(10);
    for b in Benchmark::ALL {
        g.bench_with_input(BenchmarkId::from_parameter(b.name()), &b, |bench, &b| {
            bench.iter(|| {
                let mut kernel = Kernel::new(
                    Machine::itsy(10, b.devices()),
                    KernelConfig {
                        duration: SimDuration::from_secs(10),
                        record_power: false,
                        log_sched: false,
                        ..KernelConfig::default()
                    },
                );
                b.spawn_into(&mut kernel, 1);
                black_box(kernel.run())
            })
        });
    }
    g.finish();
}

fn bench_avg_n(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulator");
    g.throughput(Throughput::Elements(100_000));
    g.bench_function("avg9_100k_intervals", |b| {
        b.iter(|| {
            let mut p = AvgN::new(9);
            let mut acc = 0.0;
            for i in 0..100_000u64 {
                acc += p.observe(((i % 10) < 9) as u8 as f64);
            }
            black_box(acc)
        })
    });
    g.finish();
}

fn bench_daq_capture(c: &mut Criterion) {
    // Resampling a 60 s power trace at 5 kHz (300k samples).
    let mut trace = TimeSeries::new("watts");
    for i in 0..6_000u64 {
        trace.push(SimTime::from_millis(i * 10), 1.0 + (i % 7) as f64 * 0.1);
    }
    let mut g = c.benchmark_group("simulator");
    g.throughput(Throughput::Elements(300_000));
    g.bench_function("daq_capture_60s_at_5khz", |b| {
        let daq = Daq::default();
        b.iter(|| {
            let mut rng = Rng::new(3);
            black_box(daq.capture(&trace, SimTime::ZERO, SimTime::from_secs(60), &mut rng))
        })
    });
    g.finish();
}

fn bench_fft(c: &mut Criterion) {
    let sig = square_wave(9, 1, 4096);
    c.bench_function("fft_4096", |b| b.iter(|| black_box(dft_magnitudes(&sig))));
    c.bench_function("avg3_filter_4096", |b| {
        b.iter(|| black_box(avg_n_response(3, &sig)))
    });
}

criterion_group!(
    simulator,
    bench_rng,
    bench_work_execution,
    bench_kernel_throughput,
    bench_avg_n,
    bench_daq_capture,
    bench_fft
);
criterion_main!(simulator);
