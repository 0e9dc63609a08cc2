//! Order statistics over measured samples, and the process's peak RSS.

/// A percentile is reported only when at least this many samples lie
/// beyond it; with fewer, the tail is a handful of outliers, not a
/// percentile.
pub const MIN_BEYOND: usize = 10;

/// Sorted samples of one measurement.
#[derive(Debug, Clone)]
pub struct Samples {
    sorted: Vec<f64>,
}

/// Why a percentile was refused.
#[derive(Debug, Clone, PartialEq)]
pub struct TooFewBeyond {
    pub q: f64,
    pub samples: usize,
    pub beyond: usize,
}

impl Samples {
    /// # Panics
    /// On an empty or non-finite sample set: every measurement the
    /// benchmark takes is a finite duration or rate.
    pub fn new(mut values: Vec<f64>) -> Samples {
        assert!(!values.is_empty(), "no samples");
        assert!(values.iter().all(|v| v.is_finite()), "non-finite sample");
        values.sort_by(f64::total_cmp);
        Samples { sorted: values }
    }

    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    pub fn sum(&self) -> f64 {
        self.sorted.iter().sum()
    }

    /// The middle sample, or the mean of the two middle samples.
    pub fn median(&self) -> f64 {
        let n = self.sorted.len();
        if n % 2 == 1 {
            self.sorted[n / 2]
        } else {
            (self.sorted[n / 2 - 1] + self.sorted[n / 2]) / 2.0
        }
    }

    /// Nearest-rank `q`-quantile (`0 < q < 1`), refused unless at least
    /// [`MIN_BEYOND`] samples lie strictly above its rank.
    pub fn percentile(&self, q: f64) -> Result<f64, TooFewBeyond> {
        assert!(q > 0.0 && q < 1.0, "percentile {q} outside (0, 1)");
        let n = self.sorted.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        let beyond = n - rank;
        if beyond < MIN_BEYOND {
            return Err(TooFewBeyond {
                q,
                samples: n,
                beyond,
            });
        }
        Ok(self.sorted[rank - 1])
    }
}

/// Peak resident set size in KiB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value = fields.next()?.parse().ok()?;
    (fields.next()? == "kB").then_some(value)
}

/// This process's peak resident set size in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib = parse_vm_hwm_kib(&status).expect("VmHWM line in /proc/self/status");
    kib as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_reports_count_and_refuses_a_thin_tail() {
        let samples = Samples::new((1..=200).map(f64::from).collect());
        assert_eq!(samples.count(), 200);
        assert_eq!(samples.median(), 100.5);
        assert_eq!(samples.percentile(0.5), Ok(100.0));
        // 200 × 0.95 = rank 190, with exactly ten samples above it.
        assert_eq!(samples.percentile(0.95), Ok(190.0));
        let refused = samples.percentile(0.96).unwrap_err();
        assert_eq!(
            refused,
            TooFewBeyond {
                q: 0.96,
                samples: 200,
                beyond: 8
            }
        );

        let thin = Samples::new((1..=199).map(f64::from).collect());
        assert_eq!(thin.percentile(0.95).unwrap_err().beyond, 9);
    }

    #[test]
    fn samples_sort_and_take_the_middle() {
        let samples = Samples::new(vec![3.0, 1.0, 2.0]);
        assert_eq!(samples.median(), 2.0);
        assert_eq!(samples.sum(), 6.0);
        assert_eq!(Samples::new(vec![4.0, 1.0]).median(), 2.5);
    }

    #[test]
    fn vm_hwm_is_parsed_in_kib() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  912344 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(204_800));
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t 1024 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t 12 MB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t lots kB\n"), None);
        assert!(peak_rss_mb() > 0.0);
    }
}
