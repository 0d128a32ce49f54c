//! Deterministic lazy device-population generation.
//!
//! A population is described by a [`PopulationConfig`] — how many
//! devices, a seed, per-device run length, the workload mix and the
//! policy under test — and realized as a [`DevicePopulation`]: a lazy
//! iterator of [`JobSpec`]s that is never materialized. A million-device
//! population costs a few dozen bytes until a worker pulls from it.
//!
//! # Determinism
//!
//! Every device's spec is a pure function of `(config, device_id)`:
//! the per-device generator is seeded by mixing the population seed
//! with the device id ([`PopulationConfig::spec_for`]), not by sharing
//! one sequential stream. That makes generation order- and
//! partition-independent — any subset of devices, generated in any
//! order on any thread, yields exactly the specs the full sequential
//! walk would. Combined with the engine's order-independent sketch
//! fold, this is what makes fleet summaries byte-identical at any
//! `--jobs`.
//!
//! All hardware draws are integer-granular ([`HwSpec`] is ppm/mWh/%),
//! so a device's hardware is exactly representable in its job key and
//! stable across platforms.

use engine::{HwSpec, JobSpec, WorkloadSpec};
use policies::PolicyDesc;
use sim_core::{Rng, SimFidelity};
use workloads::WorkloadMix;

/// SplitMix64 finalizer: mixes the population seed with a device id
/// into an independent per-device seed. Consecutive ids land in
/// unrelated states, so device streams never correlate.
fn device_seed(seed: u64, device: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(device.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Describes a simulated device population.
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationConfig {
    /// Number of devices.
    pub devices: u64,
    /// Population seed; every per-device draw derives from it.
    pub seed: u64,
    /// Simulated seconds each device runs.
    pub device_secs: u64,
    /// Workload mix the population draws from.
    pub mix: WorkloadMix,
    /// Clock policy every device runs.
    pub policy: PolicyDesc,
    /// Simulation fidelity for every device run. Fleet screening only
    /// consumes scalar summaries, so the default is
    /// [`SimFidelity::Summary`], which commits uniform spans in closed
    /// form; neither fidelity records per-tick series. The fidelity is
    /// part of each device's job key, so Summary and Full populations
    /// never share cache entries.
    pub fidelity: SimFidelity,
}

impl PopulationConfig {
    /// A population with the fleet defaults: 1-second device runs, the
    /// default handheld workload mix, the paper's best policy.
    ///
    /// One simulated second per device keeps a million-device screening
    /// run to minutes of wall clock; raise
    /// [`device_secs`](Self::device_secs) for longer per-device
    /// horizons.
    pub fn new(devices: u64, seed: u64) -> Self {
        PopulationConfig {
            devices,
            seed,
            device_secs: 1,
            mix: WorkloadMix::default_fleet(),
            policy: PolicyDesc::best_from_paper(),
            fidelity: SimFidelity::Summary,
        }
    }

    /// Overrides the per-device simulation fidelity.
    pub fn with_fidelity(mut self, fidelity: SimFidelity) -> Self {
        self.fidelity = fidelity;
        self
    }

    /// The spec for one device — a pure function of the config and the
    /// device id (see the module docs). `device` need not be below
    /// [`devices`](Self::devices); the id space is unbounded.
    pub fn spec_for(&self, device: u64) -> JobSpec {
        let mut rng = Rng::new(device_seed(self.seed, device));
        let workload = self.mix.pick(rng.next_u64());
        // Hardware spread around the stock Itsy, all integer-granular:
        // core silicon varies ±5 %, board/peripheral draw ±3 %. One
        // device in ten sits in a powered cradle (mains); the rest
        // carry a battery aged to 60–125 % of the stock 3.46 Wh pack
        // and start the run at 20–100 % charge.
        let core_ppm = (950_000 + rng.below(100_001)) as u32;
        let base_ppm = (970_000 + rng.below(60_001)) as u32;
        let mains = rng.below(10) == 0;
        let battery_mwh = if mains {
            0
        } else {
            (2_076 + rng.below(2_250)) as u32
        };
        let charge_pct = (20 + rng.below(81)) as u32;
        let hw = HwSpec {
            core_ppm,
            base_ppm,
            battery_mwh,
            charge_pct,
        };
        // The remaining draw seeds the workload's own trace jitter, so
        // two devices running the same benchmark still see different
        // arrival patterns.
        let trace_seed = rng.next_u64();
        JobSpec::new(
            WorkloadSpec::Benchmark(workload),
            self.policy,
            self.device_secs,
            trace_seed,
        )
        .with_hw(hw)
        .with_fidelity(self.fidelity)
    }

    /// The population as a lazy spec stream.
    pub fn stream(&self) -> DevicePopulation {
        DevicePopulation {
            config: self.clone(),
            next: 0,
        }
    }
}

/// Lazy iterator over a population's [`JobSpec`]s, in device-id order.
///
/// Holds only the config and a cursor — O(1) memory regardless of
/// population size.
#[derive(Debug, Clone)]
pub struct DevicePopulation {
    config: PopulationConfig,
    next: u64,
}

impl Iterator for DevicePopulation {
    type Item = JobSpec;

    fn next(&mut self) -> Option<JobSpec> {
        if self.next >= self.config.devices {
            return None;
        }
        let spec = self.config.spec_for(self.next);
        self.next += 1;
        Some(spec)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.config.devices - self.next) as usize;
        (left, Some(left))
    }
}

impl ExactSizeIterator for DevicePopulation {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn stream_matches_pointwise_generation() {
        let cfg = PopulationConfig::new(64, 7);
        for (id, spec) in cfg.stream().enumerate() {
            assert_eq!(spec, cfg.spec_for(id as u64), "device {id}");
        }
        assert_eq!(cfg.stream().count(), 64);
        assert_eq!(cfg.stream().len(), 64);
    }

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        let a = PopulationConfig::new(16, 1);
        let b = PopulationConfig::new(16, 1);
        assert!(a.stream().eq(b.stream()), "same seed, same population");
        let c = PopulationConfig::new(16, 2);
        let differing = a.stream().zip(c.stream()).filter(|(x, y)| x != y).count();
        assert!(differing > 12, "reseeding must move nearly every device");
    }

    #[test]
    fn hardware_draws_stay_in_their_advertised_ranges() {
        let cfg = PopulationConfig::new(500, 3);
        let mut mains = 0u64;
        let mut workloads = BTreeSet::new();
        for spec in cfg.stream() {
            assert!((950_000..=1_050_000).contains(&spec.hw.core_ppm));
            assert!((970_000..=1_030_000).contains(&spec.hw.base_ppm));
            assert!((20..=100).contains(&spec.hw.charge_pct));
            if spec.hw.battery_mwh == 0 {
                mains += 1;
            } else {
                assert!((2_076..=4_325).contains(&spec.hw.battery_mwh));
            }
            workloads.insert(spec.workload.canonical());
        }
        // ~10 % of 500 devices are mains-powered; allow a wide band.
        assert!((10..=120).contains(&mains), "mains fraction off: {mains}");
        assert_eq!(workloads.len(), 4, "all four benchmarks appear");
    }

    #[test]
    fn adjacent_devices_get_independent_seeds() {
        // A correlated generator would hand neighbors related trace
        // seeds; the mixed per-device seeding must not.
        let cfg = PopulationConfig::new(100, 0);
        let seeds: BTreeSet<u64> = cfg.stream().map(|s| s.seed).collect();
        assert_eq!(seeds.len(), 100, "trace seeds must all differ");
        assert_ne!(device_seed(0, 0), device_seed(0, 1));
        assert_ne!(device_seed(0, 0), device_seed(1, 0));
    }

    #[test]
    fn fleet_defaults_to_summary_fidelity() {
        let cfg = PopulationConfig::new(8, 9);
        assert_eq!(cfg.fidelity, SimFidelity::Summary);
        for spec in cfg.stream() {
            assert_eq!(spec.fidelity, SimFidelity::Summary);
            assert!(spec.canonical().starts_with("v4;"));
        }
        // Full-fidelity populations re-key every device under v3 but
        // leave all other draws untouched.
        let full = cfg.clone().with_fidelity(SimFidelity::Full);
        for (s, f) in cfg.stream().zip(full.stream()) {
            assert!(f.canonical().starts_with("v3;"));
            assert_ne!(s.key(), f.key());
            assert_eq!(s.hw, f.hw);
            assert_eq!(s.seed, f.seed);
            assert_eq!(s.workload, f.workload);
        }
    }

    #[test]
    fn device_ids_are_stable_under_population_resize() {
        // Growing the fleet must not reshuffle existing devices:
        // device 5 of a 10-device population is device 5 of a
        // 10 000-device population.
        let small = PopulationConfig::new(10, 42);
        let big = PopulationConfig {
            devices: 10_000,
            ..small.clone()
        };
        for id in 0..10 {
            assert_eq!(small.spec_for(id), big.spec_for(id));
        }
    }
}
