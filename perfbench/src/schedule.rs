//! Seeded randomness, the open-loop arrival schedule, and how one
//! request's latency and lateness are read off its timestamps.

use std::time::{Duration, Instant};

/// SplitMix64: a small, fixed generator, so a seed names the same
/// inputs no matter how the repository's own RNG evolves.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Arrival offsets (seconds from the start) of a Poisson process
/// conditioned on exactly `n` arrivals in `[0, seconds)`: `n + 1`
/// exponential gaps normalised by their sum. Fixing the count keeps
/// every request class's sample size, and so its tail percentile, the
/// same from run to run. Ascending; the same seed gives the same
/// schedule.
pub fn poisson_arrivals(n: usize, seconds: f64, rng: &mut Rng) -> Vec<f64> {
    let gaps: Vec<f64> = (0..=n).map(|_| -(1.0 - rng.unit()).ln()).collect();
    let total: f64 = gaps.iter().sum();
    let mut at = 0.0;
    gaps[..n]
        .iter()
        .map(|g| {
            at += g;
            seconds * at / total
        })
        .collect()
}

/// When one request was due, sent and answered.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// When the schedule said to send it (closed loops: when the
    /// sender became free, so it equals `sent`).
    pub due: Instant,
    /// When its bytes were handed to the socket.
    pub sent: Instant,
    /// When its response was decoded.
    pub done: Instant,
}

impl Timing {
    /// Latency as a user sees it: from when the request was due, so a
    /// stall that delays later sends is charged to them too.
    pub fn latency_ms(&self) -> f64 {
        ms(self.done.saturating_duration_since(self.due))
    }

    /// How late the generator sent it against its schedule.
    pub fn late_ms(&self) -> f64 {
        ms(self.sent.saturating_duration_since(self.due))
    }
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let a = poisson_arrivals(500, 20.0, &mut Rng::new(7));
        let b = poisson_arrivals(500, 20.0, &mut Rng::new(7));
        let c = poisson_arrivals(500, 20.0, &mut Rng::new(8));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn schedule_has_n_ascending_arrivals_inside_the_window() {
        let a = poisson_arrivals(1000, 20.0, &mut Rng::new(1));
        assert_eq!(a.len(), 1000);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a[0] > 0.0 && a[999] < 20.0);
        // Mean gap near 1/rate: exponential gaps, not a fixed grid.
        let gaps: Vec<f64> = a.windows(2).map(|w| w[1] - w[0]).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!((mean - 0.02).abs() < 0.002, "mean gap {mean}");
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        // An exponential's standard deviation equals its mean.
        assert!((var.sqrt() / mean - 1.0).abs() < 0.15);
    }

    #[test]
    fn latency_and_lateness_count_from_the_due_time() {
        let due = Instant::now();
        let t = Timing {
            due,
            sent: due + Duration::from_millis(3),
            done: due + Duration::from_millis(10),
        };
        assert!((t.late_ms() - 3.0).abs() < 1e-9);
        // 10 ms from due, not the 7 ms the wire round trip took.
        assert!((t.latency_ms() - 10.0).abs() < 1e-9);
        // A send ahead of its due time is not negative lateness.
        let early = Timing {
            due: due + Duration::from_millis(5),
            sent: due,
            done: due + Duration::from_millis(6),
        };
        assert_eq!(early.late_ms(), 0.0);
        assert!((early.latency_ms() - 1.0).abs() < 1e-9);
    }
}
