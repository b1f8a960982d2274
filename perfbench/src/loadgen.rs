//! Seeded open-loop load generation: Poisson arrival schedules, the program
//! and deadline class of each request, and its input values — all derived
//! from the workload seed, so the program under test receives only the
//! generated inputs.

use std::time::Duration;

/// SplitMix64: a small, seedable, well-mixed generator. Implemented here so
/// the schedule depends on nothing but the seed and this file.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator whose stream is fixed by `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `(0, 1]` (never zero, so `ln` is finite).
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }

    /// A uniform draw from `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// Derives an independent sub-seed for one named stream of a workload.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    SplitMix64::new(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// When the request is due, from the start of its phase.
    pub at: Duration,
    /// Which of the workload's programs it calls.
    pub program: usize,
    /// `true` for the tight deadline class, `false` for the loose one.
    pub tight: bool,
    /// Seed of the request's input values.
    pub input_seed: u64,
}

/// The shape of one open-loop phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseSpec {
    /// Offered rate, requests per second, across all programs.
    pub rate_rps: f64,
    /// Length of the phase.
    pub length: Duration,
    /// Number of programs requests are spread over (evenly).
    pub programs: usize,
    /// Share of requests in the tight deadline class.
    pub tight_share: f64,
}

/// A Poisson arrival schedule for one phase: exponential inter-arrival gaps
/// at `spec.rate_rps`, cut at `spec.length`. Programs are assigned from a
/// seeded shuffle of an exactly balanced list, so every program receives the
/// same share of requests whatever the seed; deadline classes are drawn
/// independently per request.
pub fn poisson_schedule(seed: u64, spec: &PhaseSpec) -> Vec<Arrival> {
    let mut rng = SplitMix64::new(seed);
    let mut times = Vec::new();
    let mut t = 0.0;
    let horizon = spec.length.as_secs_f64();
    loop {
        t += -rng.unit().ln() / spec.rate_rps;
        if t >= horizon {
            break;
        }
        times.push(t);
    }
    let programs = spec.programs.max(1);
    let mut assignment: Vec<usize> = (0..times.len()).map(|i| i % programs).collect();
    for i in (1..assignment.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        assignment.swap(i, j);
    }
    times
        .into_iter()
        .zip(assignment)
        .map(|(at, program)| Arrival {
            at: Duration::from_secs_f64(at),
            program,
            tight: rng.unit() <= spec.tight_share,
            input_seed: rng.next_u64(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(rate_rps: f64, seconds: u64) -> PhaseSpec {
        PhaseSpec {
            rate_rps,
            length: Duration::from_secs(seconds),
            programs: 2,
            tight_share: 0.3,
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = poisson_schedule(7, &spec(50.0, 4));
        let b = poisson_schedule(7, &spec(50.0, 4));
        assert_eq!(a, b);
        let c = poisson_schedule(8, &spec(50.0, 4));
        assert_ne!(a, c);
    }

    #[test]
    fn mean_rate_within_tolerance() {
        // 40 s at 100 req/s: 4000 expected arrivals, standard deviation 63;
        // 5% is more than three standard deviations.
        for seed in 0..5 {
            let schedule = poisson_schedule(seed, &spec(100.0, 40));
            let observed = schedule.len() as f64 / 40.0;
            assert!(
                (observed - 100.0).abs() < 5.0,
                "seed {seed}: observed rate {observed}"
            );
            assert!(schedule.windows(2).all(|w| w[0].at <= w[1].at));
            assert!(schedule.last().unwrap().at < Duration::from_secs(40));
        }
    }

    #[test]
    fn programs_are_balanced_and_classes_drawn() {
        let schedule = poisson_schedule(3, &spec(100.0, 10));
        let first = schedule.iter().filter(|a| a.program == 0).count();
        let second = schedule.len() - first;
        assert!(first.abs_diff(second) <= 1);
        let tight = schedule.iter().filter(|a| a.tight).count() as f64 / schedule.len() as f64;
        assert!((tight - 0.3).abs() < 0.06, "tight share {tight}");
    }

    #[test]
    fn sub_seeds_differ_per_stream() {
        assert_ne!(sub_seed(1, 0), sub_seed(1, 1));
        assert_eq!(sub_seed(1, 2), sub_seed(1, 2));
    }
}
