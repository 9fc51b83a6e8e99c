//! Small numeric helpers: order statistics and the seeded generator
//! that fixes task order and job plans; and the thread CPU clock and
//! peak RSS the harness reads from the OS.

use std::ffi::{c_int, c_long};
use std::time::Duration;

/// Median of `values` (mean of the middle pair for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// Harrell–Davis estimate of quantile `q` (0–1): a weighted mean of
/// every order statistic, with the weights of a Beta((n+1)q, (n+1)(1-q))
/// distribution over the ranks. It moves smoothly as values change,
/// where a single order statistic jumps between neighbouring values,
/// and between clusters of values when the quantile falls in a gap.
/// 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let (a, b) = ((n + 1.0) * q, (n + 1.0) * (1.0 - q));
    let mut below = 0.0;
    let mut sum = 0.0;
    for (i, x) in v.iter().enumerate() {
        let upto = beta_inc(a, b, (i + 1) as f64 / n);
        sum += (upto - below) * x;
        below = upto;
    }
    sum
}

/// The regularized incomplete beta function `I_x(a, b)`, by its
/// continued fraction (Numerical Recipes, `betai`).
fn beta_inc(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cf(a, b, x) / a
    } else {
        1.0 - front * beta_cf(b, a, 1.0 - x) / b
    }
}

/// The continued fraction of `I_x(a, b)`, by Lentz's method.
fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let mut c = 1.0;
    let mut d = 1.0 - (a + b) * x / (a + 1.0);
    d = 1.0 / if d.abs() < TINY { TINY } else { d };
    let mut h = d;
    for m in 1..=1000 {
        let m = f64::from(m);
        for num in [
            m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0)),
        ] {
            d = 1.0 + num * d;
            d = 1.0 / if d.abs() < TINY { TINY } else { d };
            c = 1.0 + num / c;
            if c.abs() < TINY {
                c = TINY;
            }
            h *= d * c;
        }
        if (d * c - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h
}

/// `ln Γ(x)` for `x > 0` (Lanczos, g = 7).
fn ln_gamma(x: f64) -> f64 {
    const G: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        return ln_gamma(x + 1.0) - x.ln();
    }
    let x = x - 1.0;
    let t = x + 7.5;
    let series = G[1..]
        .iter()
        .enumerate()
        .fold(G[0], |acc, (i, g)| acc + g / (x + i as f64 + 1.0));
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + series.ln()
}

/// Smallest value; 0 for an empty slice.
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Geometric mean of positive `values`; 0 for an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// SplitMix64: a tiny, well-mixed deterministic generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// On-CPU time of the calling thread (`CLOCK_THREAD_CPUTIME_ID`). On a
/// VM with steal-time accounting it leaves out the time the hypervisor
/// gave this vCPU's core to other guests, which wall time includes.
pub fn thread_cpu() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable timespec for the whole call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// The process's peak resident set (`VmHWM`) in MiB, read from
/// `/proc/<pid>/status`.
pub fn peak_rss_mib(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| format!("no VmHWM line in {path}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_cpu_counts_work_not_sleep() {
        let t0 = thread_cpu();
        std::thread::sleep(Duration::from_millis(50));
        assert!(thread_cpu() - t0 < Duration::from_millis(20));
        let t1 = thread_cpu();
        let mut spins = 0u64;
        while thread_cpu() - t1 < Duration::from_millis(10) {
            spins = std::hint::black_box(spins + 1);
        }
        assert!(spins > 0);
    }

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[5.0], 0.99), 5.0);
    }

    #[test]
    fn harrell_davis_quantiles() {
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        // I_x(1, 1) = x; I_0.4(2, 3) = 0.5248 by the binomial sum.
        assert!(close(beta_inc(1.0, 1.0, 0.3), 0.3));
        assert!(close(beta_inc(2.0, 3.0, 0.4), 0.5248));
        assert!(close(ln_gamma(5.0), 24f64.ln()));
        assert!(close(ln_gamma(0.25), 3.625_609_908_221_908f64.ln()));
        // Symmetric data: the median is the centre, whatever the order.
        assert!(close(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0));
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!(close(quantile(&hundred, 0.5), 50.5));
        // The weights sum to 1: a constant sample is its own quantile.
        assert!(close(quantile(&[4.0; 1024], 0.99), 4.0));
        let p99 = quantile(&hundred, 0.99);
        assert!(p99 > 98.0 && p99 < 100.0, "p99 {p99}");
        // Moving one value moves the estimate a little, not a whole gap.
        let mut gap: Vec<f64> = vec![1.0; 50];
        gap.extend(vec![10.0; 50]);
        let base = quantile(&gap, 0.5);
        gap[49] = 10.0;
        let moved = quantile(&gap, 0.5);
        assert!(moved > base && moved - base < 2.0, "{base} -> {moved}");
    }

    #[test]
    fn shuffle_is_seeded() {
        let mut a: Vec<u32> = (0..20).collect();
        let mut b = a.clone();
        Rng::new(7).shuffle(&mut a);
        Rng::new(7).shuffle(&mut b);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    }
}
