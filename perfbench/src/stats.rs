//! Summary statistics of the benchmark: medians, geometric means, the
//! tail-percentile rule and the max-rate-at-SLO selection.

/// Median of `values` (the mean of the two middle values for an even count).
/// Returns `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Geometric mean of strictly positive `values`. Returns `None` for an empty
/// slice or a non-positive value.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0 || !v.is_finite()) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// The fastest of repeated timings of one deterministic piece of work.
///
/// A host shared with other tenants changes speed from moment to moment, so
/// the median of a few repeats flips between a fast and a slow mode from run
/// to run; the fastest repeat is the steadiest estimate of the work itself. Request latencies, which are distributions
/// and not repeats, are never summarized this way.
pub fn fastest(values: &[f64]) -> Option<f64> {
    values.iter().copied().reduce(f64::min)
}

/// Arithmetic mean; `None` for an empty slice.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// Minimum number of samples that must lie beyond a reported tail
/// percentile.
pub const TAIL_SAMPLES_BEYOND: usize = 10;

/// A tail latency: the highest percentile of the sample that still has at
/// least [`TAIL_SAMPLES_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, in `(0, 100)`.
    pub percentile: f64,
    /// The sample value at that percentile.
    pub value: f64,
    /// How many samples lie strictly beyond it.
    pub beyond: usize,
    /// The sample count.
    pub samples: usize,
}

/// The highest percentile with at least [`TAIL_SAMPLES_BEYOND`] samples
/// beyond it: with `n` sorted samples this is the sample at rank
/// `n - 10 - 1` (zero-based), i.e. percentile `100 (n - 10) / n`. Returns
/// `None` when the sample is too small to leave ten samples beyond anything.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n <= TAIL_SAMPLES_BEYOND {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = n - TAIL_SAMPLES_BEYOND - 1;
    Some(Tail {
        percentile: 100.0 * (n - TAIL_SAMPLES_BEYOND) as f64 / n as f64,
        value: sorted[rank],
        beyond: TAIL_SAMPLES_BEYOND,
        samples: n,
    })
}

/// The outcome of one fixed-rate open-loop phase, as far as the SLO rule
/// cares.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateOutcome {
    /// The phase's fixed offered rate.
    pub rate_rps: f64,
    /// Requests the generator sent.
    pub sent: usize,
    /// Requests that completed with correct output within their deadline.
    pub met: usize,
    /// Whether the backlog kept growing through the phase.
    pub backlog_grew: bool,
}

/// Share of sent requests that must meet their deadline for a rate to count
/// as sustained.
pub const SLO_SHARE: f64 = 0.99;

impl RateOutcome {
    /// Whether this phase meets the SLO: at least [`SLO_SHARE`] of sent
    /// requests correct within their deadline, and no growing backlog.
    pub fn meets_slo(&self) -> bool {
        self.sent > 0 && !self.backlog_grew && self.met as f64 >= SLO_SHARE * self.sent as f64
    }
}

/// The highest fixed rate whose phase meets the SLO, or `0.0` when none
/// does.
pub fn max_rate_at_slo(outcomes: &[RateOutcome]) -> f64 {
    outcomes
        .iter()
        .filter(|o| o.meets_slo())
        .map(|o| o.rate_rps)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        let g = geomean(&[1.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-9);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(fastest(&[3.0, 1.5, 2.0]), Some(1.5));
        assert_eq!(fastest(&[]), None);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail(&[1.0; 10]), None);
        // 11 samples: the lowest one is the only rank with ten beyond it.
        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        let t = tail(&eleven).unwrap();
        assert_eq!(t.value, 0.0);
        assert_eq!(t.beyond, 10);
        // 200 samples 1..=200: the 95th percentile is sample 190, and
        // exactly ten samples (191..=200) lie beyond it.
        let values: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let t = tail(&values).unwrap();
        assert_eq!(t.value, 190.0);
        assert!((t.percentile - 95.0).abs() < 1e-9);
        assert_eq!(values.iter().filter(|&&v| v > t.value).count(), 10);
        assert_eq!(t.samples, 200);
    }

    #[test]
    fn max_rate_picks_highest_sustained_rate() {
        let table = [
            RateOutcome {
                rate_rps: 10.0,
                sent: 100,
                met: 100,
                backlog_grew: false,
            },
            RateOutcome {
                rate_rps: 20.0,
                sent: 200,
                met: 198,
                backlog_grew: false,
            },
            // 98% met: misses the 99% rule.
            RateOutcome {
                rate_rps: 40.0,
                sent: 400,
                met: 392,
                backlog_grew: false,
            },
            // Every request met, but the queue kept growing.
            RateOutcome {
                rate_rps: 80.0,
                sent: 800,
                met: 800,
                backlog_grew: true,
            },
        ];
        assert_eq!(max_rate_at_slo(&table), 20.0);
        // A higher sustained rate wins even when a middle one failed.
        let mut gapped = table;
        gapped[3].backlog_grew = false;
        assert_eq!(max_rate_at_slo(&gapped), 80.0);
        assert_eq!(max_rate_at_slo(&table[2..3]), 0.0);
        assert_eq!(max_rate_at_slo(&[]), 0.0);
    }
}
