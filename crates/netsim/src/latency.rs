//! Latency models for simulated links.

use rand::rngs::StdRng;
use rand::Rng;
use std::time::Duration;

/// How a link's per-message delay is drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LatencyModel {
    /// Always exactly `micros`.
    Fixed { micros: u64 },
    /// Normal(mean, stddev), truncated at zero — the jittery wireless
    /// profile of the paper's experimental setup.
    Normal {
        mean_micros: f64,
        stddev_micros: f64,
    },
}

impl LatencyModel {
    /// Draw one delay sample.
    pub fn sample(&self, rng: &mut StdRng) -> Duration {
        match self {
            LatencyModel::Fixed { micros } => Duration::from_micros(*micros),
            LatencyModel::Normal {
                mean_micros,
                stddev_micros,
            } => {
                // Box–Muller; no external distribution crates.
                let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                let v = mean_micros + stddev_micros * z;
                Duration::from_micros(v.max(0.0) as u64)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn fixed_is_fixed() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = LatencyModel::Fixed { micros: 250 };
        for _ in 0..10 {
            assert_eq!(m.sample(&mut rng), Duration::from_micros(250));
        }
    }

    #[test]
    fn normal_is_roughly_centered_and_nonnegative() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = LatencyModel::Normal {
            mean_micros: 1000.0,
            stddev_micros: 200.0,
        };
        let n = 2000;
        let mut sum = 0u128;
        for _ in 0..n {
            sum += m.sample(&mut rng).as_micros();
        }
        let mean = sum as f64 / n as f64;
        assert!((900.0..1100.0).contains(&mean), "mean {mean}");
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let m = LatencyModel::Normal {
            mean_micros: 500.0,
            stddev_micros: 100.0,
        };
        let a: Vec<Duration> = {
            let mut rng = StdRng::seed_from_u64(42);
            (0..5).map(|_| m.sample(&mut rng)).collect()
        };
        let b: Vec<Duration> = {
            let mut rng = StdRng::seed_from_u64(42);
            (0..5).map(|_| m.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
