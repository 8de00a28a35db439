//! The open-loop schedule for `rpc-echo`: independent callers whose
//! send times are fixed in advance from the run's seed, so a stalled
//! call cannot delay the calls due after it from being counted late.

use std::time::Duration;

use mockingbird_rng::StdRng;

/// Due offsets (from the start of the run) of a Poisson arrival stream
/// at `rate_per_s` over `span`, drawn from `seed`. The same seed gives
/// the same schedule.
pub fn poisson_schedule(seed: u64, rate_per_s: f64, span: Duration) -> Vec<Duration> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut due = Vec::with_capacity((rate_per_s * span.as_secs_f64() * 1.1) as usize + 1);
    let mut t = 0.0f64;
    loop {
        // A uniform draw in (0, 1]: 53 random bits, shifted off zero.
        let u = ((rng.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
        t += -u.ln() / rate_per_s;
        if t >= span.as_secs_f64() {
            return due;
        }
        due.push(Duration::from_secs_f64(t));
    }
}

/// The per-caller schedules of an open loop at `rate_per_s` in total,
/// split over `callers` independent Poisson streams (their superposition
/// is again Poisson at the full rate).
pub fn caller_schedules(
    seed: u64,
    rate_per_s: f64,
    callers: usize,
    span: Duration,
) -> Vec<Vec<Duration>> {
    (0..callers as u64)
        .map(|c| {
            poisson_schedule(
                seed ^ (c + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                rate_per_s / callers as f64,
                span,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_in_the_seed() {
        let span = Duration::from_secs(2);
        let a = caller_schedules(7, 1000.0, 2, span);
        let b = caller_schedules(7, 1000.0, 2, span);
        assert_eq!(a, b);
        let c = caller_schedules(8, 1000.0, 2, span);
        assert_ne!(a, c, "another seed gives another schedule");
        assert_ne!(a[0], a[1], "callers draw independent streams");
    }

    #[test]
    fn schedule_is_ordered_bounded_and_at_rate() {
        let span = Duration::from_secs(10);
        let due = poisson_schedule(3, 1000.0, span);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        assert!(due.last().copied().unwrap_or_default() < span);
        // 10 000 expected arrivals; a Poisson count's sd is 100.
        assert!((9_500..=10_500).contains(&due.len()), "{}", due.len());
    }
}
