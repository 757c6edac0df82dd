//! Replicate summaries: mean, sample standard deviation, and extremes of
//! a measurement taken across independent seeds, so tables can carry
//! uncertainty instead of single draws.

use serde::{Deserialize, Serialize};

/// Summary of replicated measurements.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Replicates {
    /// Number of replicates.
    pub n: usize,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for n ≤ 1).
    pub std_dev: f64,
    /// Minimum observed.
    pub min: f64,
    /// Maximum observed.
    pub max: f64,
}

impl Replicates {
    /// Summarize a slice of observations.
    pub fn from_values(values: &[f64]) -> Self {
        let n = values.len();
        if n == 0 {
            return Replicates {
                n: 0,
                mean: 0.0,
                std_dev: 0.0,
                min: 0.0,
                max: 0.0,
            };
        }
        let mean = values.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        Replicates {
            n,
            mean,
            std_dev: var.sqrt(),
            min: values.iter().cloned().fold(f64::INFINITY, f64::min),
            max: values.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    /// Render as `mean ± std` with 4 significant digits.
    pub fn display(&self) -> String {
        format!(
            "{} ± {}",
            crate::table::fnum(self.mean),
            crate::table::fnum(self.std_dev)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_statistics() {
        let r = Replicates::from_values(&[1.0, 2.0, 3.0]);
        assert_eq!(r.n, 3);
        assert!((r.mean - 2.0).abs() < 1e-12);
        assert!((r.std_dev - 1.0).abs() < 1e-12);
        assert_eq!(r.min, 1.0);
        assert_eq!(r.max, 3.0);
    }

    #[test]
    fn degenerate_inputs() {
        let empty = Replicates::from_values(&[]);
        assert_eq!(empty.n, 0);
        assert_eq!(empty.std_dev, 0.0);
        let single = Replicates::from_values(&[5.0]);
        assert_eq!(single.std_dev, 0.0);
        assert_eq!(single.mean, 5.0);
    }

    #[test]
    fn display_format() {
        let r = Replicates::from_values(&[2.0, 2.0]);
        assert_eq!(r.display(), "2.000 ± 0");
    }
}
