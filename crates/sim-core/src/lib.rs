//! Discrete-event simulation substrate and base quantity types.
//!
//! This crate provides the foundation every other `itsy-dvs` crate builds
//! on: a microsecond-resolution virtual clock ([`SimTime`]), physical
//! quantity newtypes ([`Frequency`], [`Voltage`], [`Energy`], [`Power`]),
//! a seedable pseudo-random number generator ([`Rng`]) and simple
//! time-series containers ([`TimeSeries`]).
//!
//! Nothing in this crate knows about CPUs, kernels or scheduling policies;
//! it is a generic substrate comparable to the core of any event-driven
//! systems simulator.
//!
//! # Determinism
//!
//! All randomness flows through [`Rng`], which is seeded explicitly. Two
//! simulations constructed with the same configuration and seed produce
//! bit-identical results; wall-clock time never enters the simulation.

pub mod digits;
pub mod fidelity;
pub mod histogram;
pub mod log_histogram;
pub mod quantity;
pub mod rng;
pub mod round;
pub mod series;
pub mod sketch;
pub mod stats;
pub mod time;

pub use fidelity::SimFidelity;
pub use histogram::Histogram;
pub use log_histogram::LogHistogram;
pub use quantity::{Energy, Frequency, Power, Voltage};
pub use rng::Rng;
pub use series::TimeSeries;
pub use sketch::FleetSummary;
pub use stats::{mean, rate_per_sec, student_t_975, ConfidenceInterval, KahanSum, RunStats};
pub use time::{SimDuration, SimTime};
