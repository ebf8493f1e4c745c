//! Timing summaries, failure accounting and seed derivation.

/// A percentile is reported only when at least this many samples lie
/// beyond it; below that the tail is a handful of outliers, not a
/// distribution.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile (`0 < q < 1`) of `samples` by nearest rank, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie above it.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "quantile {q} outside (0, 1)");
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    let beyond = sorted.len() - rank;
    (beyond >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Median of `samples` (mean of the middle pair for even counts); `None`
/// when empty. Medians need no tail, so the [`MIN_BEYOND`] rule does not
/// apply.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// Run `setup` `reps` times: its last result and the median time, s.
pub fn repeat_setup<T>(
    reps: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t0 = std::time::Instant::now();
        last = Some(setup()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    let setup_s = median(&times).ok_or("no set-up ran")?;
    Ok((last.ok_or("no set-up ran")?, setup_s))
}

/// Median and tail of one timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Samples taken.
    pub n: usize,
    /// Median, in the samples' unit.
    pub p50: f64,
    /// 90th percentile; `None` without [`MIN_BEYOND`] samples beyond it.
    pub p90: Option<f64>,
    /// 99th percentile; `None` without [`MIN_BEYOND`] samples beyond it.
    pub p99: Option<f64>,
}

impl Timing {
    /// Summarise `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Timing> {
        Some(Timing {
            n: samples.len(),
            p50: median(samples)?,
            p90: percentile(samples, 0.90),
            p99: percentile(samples, 0.99),
        })
    }
}

/// Operations attempted and failed. A refused, errored or timed-out
/// request is a failure: it counts against the attempts and yields no
/// latency sample.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations started.
    pub attempted: u64,
    /// Operations that did not complete correctly.
    pub failed: u64,
}

impl Tally {
    /// Count one operation and whether it succeeded.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Fold another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// splitmix64: derives independent, reproducible seeds from the run seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // p99 of 1000 samples has exactly 10 above it.
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        assert_eq!(percentile(&ramp(999), 0.99), None);
        // p90 needs 100 samples.
        assert_eq!(percentile(&ramp(100), 0.90), Some(90.0));
        assert_eq!(percentile(&ramp(99), 0.90), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v = ramp(200);
        v.reverse();
        assert_eq!(percentile(&v, 0.90), Some(180.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn timing_reports_only_supported_tails() {
        let t = Timing::of(&ramp(150)).unwrap();
        assert_eq!(t.n, 150);
        assert_eq!(t.p50, 75.5);
        assert_eq!(t.p90, Some(135.0));
        assert_eq!(t.p99, None);
        assert!(Timing::of(&[]).is_none());
    }

    #[test]
    fn failures_count_against_attempts() {
        let mut t = Tally::default();
        t.record(true);
        t.record(false); // refused
        t.record(false); // timed out
        t.record(true);
        assert_eq!((t.attempted, t.failed), (4, 2));
        assert_eq!(t.fail_ratio(), 0.5);
        let mut u = Tally::default();
        u.record(false);
        t.merge(u);
        assert_eq!((t.attempted, t.failed), (5, 3));
        assert_eq!(Tally::default().fail_ratio(), 0.0);
    }

    #[test]
    fn mix_separates_seeds_and_salts() {
        assert_eq!(mix(1, 2), mix(1, 2));
        assert_ne!(mix(1, 2), mix(2, 2));
        assert_ne!(mix(1, 2), mix(1, 3));
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        assert!(peak_rss_mib() > 0.0);
    }
}
