//! Time-series containers for simulation outputs.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use crate::time::SimTime;

/// A sequence of `(time, value)` samples in nondecreasing time order.
///
/// This is the interchange type between the simulator (which produces
/// utilization, frequency and power traces) and the analysis / experiment
/// crates (which filter, resample and plot them).
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    /// Short label used in CSV headers and printed tables.
    pub name: String,
    points: Vec<(u64, f64)>,
}

impl TimeSeries {
    /// Creates an empty series with the given label.
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Appends a sample.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the last appended sample.
    pub fn push(&mut self, at: SimTime, value: f64) {
        if let Some(&(last, _)) = self.points.last() {
            assert!(
                at.as_micros() >= last,
                "TimeSeries::push out of order: {} < {last}us",
                at
            );
        }
        self.points.push((at.as_micros(), value));
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if the series holds no samples.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Iterates over `(time, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.points
            .iter()
            .map(|&(t, v)| (SimTime::from_micros(t), v))
    }

    /// The raw values, ignoring timestamps.
    pub fn values(&self) -> Vec<f64> {
        self.points.iter().map(|&(_, v)| v).collect()
    }

    /// The sample timestamps in microseconds.
    pub fn times_us(&self) -> Vec<u64> {
        self.points.iter().map(|&(t, _)| t).collect()
    }

    /// Minimum value, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        self.points.iter().map(|&(_, v)| v).reduce(f64::min)
    }

    /// Maximum value, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        self.points.iter().map(|&(_, v)| v).reduce(f64::max)
    }

    /// Arithmetic mean of values, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.points.is_empty() {
            return None;
        }
        Some(self.points.iter().map(|&(_, v)| v).sum::<f64>() / self.points.len() as f64)
    }

    /// Restricts the series to samples with `start <= t < end`.
    pub fn window(&self, start: SimTime, end: SimTime) -> TimeSeries {
        TimeSeries {
            name: self.name.clone(),
            points: self
                .points
                .iter()
                .copied()
                .filter(|&(t, _)| t >= start.as_micros() && t < end.as_micros())
                .collect(),
        }
    }

    /// Renders the series as two-column CSV (`time_us,value`).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "time_us,{}", self.name);
        for &(t, v) in &self.points {
            let _ = writeln!(out, "{t},{v}");
        }
        out
    }

    /// Writes the CSV rendering to `path`, creating parent directories.
    pub fn write_csv(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_csv())
    }
}

impl FromIterator<(SimTime, f64)> for TimeSeries {
    fn from_iter<I: IntoIterator<Item = (SimTime, f64)>>(iter: I) -> Self {
        let mut s = TimeSeries::new("series");
        for (t, v) in iter {
            s.push(t, v);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TimeSeries {
        let mut s = TimeSeries::new("u");
        s.push(SimTime::from_micros(0), 0.5);
        s.push(SimTime::from_micros(10), 1.0);
        s.push(SimTime::from_micros(20), 0.0);
        s
    }

    #[test]
    fn basic_statistics() {
        let s = sample();
        assert_eq!(s.len(), 3);
        assert_eq!(s.min(), Some(0.0));
        assert_eq!(s.max(), Some(1.0));
        assert!((s.mean().unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_statistics_are_none() {
        let s = TimeSeries::new("e");
        assert!(s.is_empty());
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.mean(), None);
    }

    #[test]
    fn windowing_is_half_open() {
        let s = sample();
        let w = s.window(SimTime::from_micros(0), SimTime::from_micros(20));
        assert_eq!(w.len(), 2);
        assert_eq!(w.values(), vec![0.5, 1.0]);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn out_of_order_push_panics() {
        let mut s = sample();
        s.push(SimTime::from_micros(5), 0.1);
    }

    #[test]
    fn csv_rendering() {
        let s = sample();
        let csv = s.to_csv();
        assert!(csv.starts_with("time_us,u\n"));
        assert!(csv.contains("10,1\n"));
    }

    #[test]
    fn from_iterator_collects() {
        let s: TimeSeries = (0..5u64)
            .map(|i| (SimTime::from_micros(i * 10), i as f64))
            .collect();
        assert_eq!(s.len(), 5);
        assert_eq!(s.values(), vec![0.0, 1.0, 2.0, 3.0, 4.0]);
    }
}
