//! Small helpers: a seeded generator, percentiles, process memory.

use std::time::Duration;

/// SplitMix64: every input the benchmark makes comes from one of these,
/// seeded from `--seed`, so a seed always reproduces the same inputs.
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose (`stream`) derived from the run seed,
    /// so adding a stream never shifts the values another stream draws.
    pub fn derive(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

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

    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    /// An exponential gap with mean `1 / rate` (Poisson arrivals).
    pub fn exp_gap(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Draws indices `0..n` with probability proportional to `1 / (i + 1)^s`.
pub struct ZipfPicker {
    cumulative: Vec<f64>,
}

impl ZipfPicker {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let cumulative = (1..=n)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(s);
                acc
            })
            .collect();
        ZipfPicker { cumulative }
    }

    pub fn pick(&self, rng: &mut Rng) -> usize {
        let total = *self.cumulative.last().expect("non-empty catalogue");
        let x = rng.unit() * total;
        self.cumulative
            .partition_point(|&c| c <= x)
            .min(self.cumulative.len() - 1)
    }
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of unsorted samples; 0 when
/// there are none.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `part / whole`, 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
