//! Summary statistics for repeated measurements.
//!
//! The paper reports each calibration data point as the average of 100
//! experiments with min/max error bars (Fig. 1); [`Summary`] captures
//! exactly that.

use crate::time::SimTime;

/// Summary of a set of scalar samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarizes a slice of samples. Returns `None` for an empty slice.
    pub fn from_samples(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n as f64;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &s in samples {
            min = min.min(s);
            max = max.max(s);
        }
        Some(Summary {
            n,
            mean,
            std_dev: var.sqrt(),
            min,
            max,
        })
    }

    /// Summarizes a slice of simulated times, in microseconds.
    pub fn from_times(times: &[SimTime]) -> Option<Summary> {
        let us: Vec<f64> = times.iter().map(|t| t.as_micros()).collect();
        Summary::from_samples(&us)
    }

    /// Half-width of the min–max error bar.
    pub fn spread(&self) -> f64 {
        (self.max - self.min) / 2.0
    }

    /// Coefficient of variation (`std_dev / mean`); 0 when the mean is 0.
    pub fn cv(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.std_dev / self.mean.abs()
        }
    }
}

/// Online mean/min/max accumulator, useful when samples are produced one at
/// a time by a long simulation and storing them all is wasteful.
#[derive(Clone, Copy, Debug, Default)]
pub struct Accumulator {
    n: usize,
    sum: f64,
    sum_sq: f64,
    min: f64,
    max: f64,
}

impl Accumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Accumulator {
            n: 0,
            sum: 0.0,
            sum_sq: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    pub fn push(&mut self, sample: f64) {
        self.n += 1;
        self.sum += sample;
        self.sum_sq += sample * sample;
        self.min = self.min.min(sample);
        self.max = self.max.max(sample);
    }

    /// Number of samples pushed so far.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` if nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Finalizes into a [`Summary`]; `None` if empty.
    pub fn summary(&self) -> Option<Summary> {
        if self.n == 0 {
            return None;
        }
        let n = self.n as f64;
        let mean = self.sum / n;
        let var = (self.sum_sq / n - mean * mean).max(0.0);
        Some(Summary {
            n: self.n,
            mean,
            std_dev: var.sqrt(),
            min: self.min,
            max: self.max,
        })
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests assert exact simulated values
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_samples() {
        let s = Summary::from_samples(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert_eq!(s.n, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.std_dev - 2.0).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert!((s.spread() - 3.5).abs() < 1e-12);
        assert!((s.cv() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn summary_empty_is_none() {
        assert!(Summary::from_samples(&[]).is_none());
        assert!(Summary::from_times(&[]).is_none());
    }

    #[test]
    fn summary_from_times_uses_micros() {
        let s =
            Summary::from_times(&[SimTime::from_millis(1.0), SimTime::from_millis(3.0)]).unwrap();
        assert!((s.mean - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn accumulator_matches_batch_summary() {
        let samples = [1.0, 2.0, 3.5, -4.0, 10.0, 0.25];
        let mut acc = Accumulator::new();
        assert!(acc.is_empty());
        for &s in &samples {
            acc.push(s);
        }
        let a = acc.summary().unwrap();
        let b = Summary::from_samples(&samples).unwrap();
        assert_eq!(a.n, b.n);
        assert!((a.mean - b.mean).abs() < 1e-12);
        assert!((a.std_dev - b.std_dev).abs() < 1e-9);
        assert_eq!(a.min, b.min);
        assert_eq!(a.max, b.max);
    }

    #[test]
    fn accumulator_empty_is_none() {
        assert!(Accumulator::new().summary().is_none());
    }

    #[test]
    fn cv_zero_mean() {
        let s = Summary::from_samples(&[-1.0, 1.0]).unwrap();
        assert!(s.cv().is_finite());
        let z = Summary::from_samples(&[0.0, 0.0]).unwrap();
        assert_eq!(z.cv(), 0.0);
    }
}
