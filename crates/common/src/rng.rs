//! Deterministic random-number helpers.
//!
//! All randomized components in the workspace (workload generation,
//! population, load balancing tie-breaks) draw from seeded generators so
//! experiments are reproducible run to run.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Creates a deterministic generator from a 64-bit seed.
pub fn seeded(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

/// Derives an independent stream from a base seed and a stream index,
/// so each client/node thread gets its own deterministic sequence.
pub fn derive(seed: u64, stream: u64) -> SmallRng {
    // SplitMix64-style mix keeps streams well separated.
    let mut z = seed.wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    SmallRng::seed_from_u64(z)
}

/// Random ASCII alphanumeric string of length in `[min_len, max_len]`.
pub fn alnum_string<R: Rng>(rng: &mut R, min_len: usize, max_len: usize) -> String {
    const CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
    let len = rng.gen_range(min_len..=max_len);
    (0..len).map(|_| CHARS[rng.gen_range(0..CHARS.len())] as char).collect()
}

/// Deterministic capped equal-jitter exponential backoff.
///
/// `delay(attempt)` grows the window as `base · 2^(attempt-1)` up to
/// `cap`, then returns `window/2 + uniform(0, window/2)` clamped to
/// `[base, cap]` — the equal-jitter scheme: half the window is
/// guaranteed spacing (collided retriers cannot re-collide immediately
/// en masse), half is randomized to spread them out. All randomness
/// comes from the seeded stream, so a given `(seed, call sequence)`
/// yields the same delays on every run — the property deterministic
/// simulation testing depends on. The caller decides how to spend the
/// returned duration (e.g. `SimClock::sleep_paper`); this type never
/// sleeps itself.
#[derive(Debug, Clone)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    rng: SmallRng,
}

impl Backoff {
    /// A policy with the given bounds, drawing jitter from `seed`.
    /// `cap` is raised to `base` if the caller passes them inverted,
    /// and a zero `base` is bumped to 1µs so the bounds stay a
    /// non-degenerate interval.
    pub fn new(base: Duration, cap: Duration, seed: u64) -> Self {
        let base = base.max(Duration::from_micros(1));
        Backoff { base, cap: cap.max(base), rng: seeded(seed) }
    }

    /// The delay before retry number `attempt` (1-based; 0 is treated
    /// as 1). Always within `[base, cap]`.
    pub fn delay(&mut self, attempt: usize) -> Duration {
        let exp = attempt.clamp(1, 63) as u32 - 1;
        let window = self
            .base
            .checked_mul(2u32.saturating_pow(exp.min(31)))
            .unwrap_or(self.cap)
            .min(self.cap);
        let half = window / 2;
        let jitter = Duration::from_nanos(self.rng.gen_range(0..=half.as_nanos() as u64));
        (half + jitter).clamp(self.base, self.cap)
    }

    /// Lower bound of every delay.
    pub fn base(&self) -> Duration {
        self.base
    }

    /// Upper bound of every delay.
    pub fn cap(&self) -> Duration {
        self.cap
    }
}

/// Sample from a (truncated) negative exponential distribution with the
/// given mean — the TPC-W think-time distribution. The result is clamped
/// to `7 * mean` as the TPC-W specification requires.
pub fn neg_exp<R: Rng>(rng: &mut R, mean: f64) -> f64 {
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    (-mean * u.ln()).min(7.0 * mean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_is_deterministic() {
        let mut a = seeded(42);
        let mut b = seeded(42);
        for _ in 0..16 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn derived_streams_differ() {
        let mut a = derive(42, 0);
        let mut b = derive(42, 1);
        let va: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn alnum_string_length_bounds() {
        let mut r = seeded(1);
        for _ in 0..100 {
            let s = alnum_string(&mut r, 3, 10);
            assert!((3..=10).contains(&s.len()));
            assert!(s.chars().all(|c| c.is_ascii_alphanumeric()));
        }
    }

    #[test]
    fn backoff_stays_in_bounds_and_grows() {
        let base = Duration::from_micros(200);
        let cap = Duration::from_millis(5);
        let mut b = Backoff::new(base, cap, 42);
        for attempt in 1..=20 {
            let d = b.delay(attempt);
            assert!(d >= base && d <= cap, "attempt {attempt}: {d:?} outside [{base:?},{cap:?}]");
        }
    }

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let base = Duration::from_micros(100);
        let cap = Duration::from_millis(10);
        let mut a = Backoff::new(base, cap, 7);
        let mut b = Backoff::new(base, cap, 7);
        let va: Vec<Duration> = (1..=12).map(|i| a.delay(i)).collect();
        let vb: Vec<Duration> = (1..=12).map(|i| b.delay(i)).collect();
        assert_eq!(va, vb);
        let mut c = Backoff::new(base, cap, 8);
        let vc: Vec<Duration> = (1..=12).map(|i| c.delay(i)).collect();
        assert_ne!(va, vc, "different seeds should jitter differently");
    }

    #[test]
    fn backoff_normalizes_degenerate_bounds() {
        // Inverted bounds collapse to [base, base]; zero base is bumped.
        let mut b = Backoff::new(Duration::from_millis(2), Duration::from_micros(1), 1);
        assert_eq!(b.delay(5), Duration::from_millis(2));
        let mut z = Backoff::new(Duration::ZERO, Duration::ZERO, 1);
        assert_eq!(z.delay(1), Duration::from_micros(1));
    }

    #[test]
    fn neg_exp_mean_and_clamp() {
        let mut r = seeded(7);
        let mean = 2.0;
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| neg_exp(&mut r, mean)).collect();
        let avg = samples.iter().sum::<f64>() / n as f64;
        assert!((avg - mean).abs() < 0.1, "mean was {avg}");
        assert!(samples.iter().all(|&s| s <= 7.0 * mean + 1e-9));
        assert!(samples.iter().all(|&s| s >= 0.0));
    }
}
