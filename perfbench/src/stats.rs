//! Small measurement helpers: a seeded generator, exact quantiles,
//! virtual-latency summaries, process memory, and the output checks.

use std::time::Instant;

use obs::latency::TailHistogram;

/// SplitMix64: the benchmark's only randomness, so one `--seed` fixes
/// every input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn int32(&mut self) -> i32 {
        (self.next_u64() >> 33) as i32
    }

    pub fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.next_u64() as u8).collect()
    }
}

/// Nearest-rank quantile (`ceil(q·n)`, like `obs::TailSnapshot`) of an
/// unsorted sample; 0 when empty.
pub fn quantile(sample: &[u64], q: f64) -> u64 {
    if sample.is_empty() {
        return 0;
    }
    let mut v = sample.to_vec();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    *v.select_nth_unstable(rank - 1).1
}

/// Nearest-rank quantile of an unsorted `f64` sample; 0 when empty.
pub fn quantile_f64(sample: &[f64], q: f64) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    let mut v = sample.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v[((q * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1]
}

pub fn median_f64(sample: &[f64]) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    let mut v = sample.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Virtual latency of every call in a pass: exact mean and
/// nearest-rank quantiles, plus the HDR-bucketed quantiles `bench --tail`
/// persists. Passes with the same seed must produce equal summaries.
#[derive(Clone, Debug, PartialEq)]
pub struct VirtStats {
    pub calls: u64,
    pub mean: f64,
    pub p50: u64,
    pub p99: u64,
    pub hdr_p50: u64,
    pub hdr_p99: u64,
}

impl VirtStats {
    pub fn of(latencies: &[u64]) -> VirtStats {
        let hdr = TailHistogram::new();
        for &l in latencies {
            hdr.observe(l);
        }
        let s = hdr.snapshot();
        VirtStats {
            calls: s.count,
            mean: s.mean(),
            p50: quantile(latencies, 0.50),
            p99: quantile(latencies, 0.99),
            hdr_p50: s.quantile(0.50).unwrap_or(0),
            hdr_p99: s.quantile(0.99).unwrap_or(0),
        }
    }
}

/// A `/proc/self/status` field in kB (0 where unavailable).
pub fn proc_status_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
        })
        .unwrap_or(0)
}

/// Failed output checks; any entry makes the run incorrect.
#[derive(Default)]
pub struct Checks(pub Vec<String>);

impl Checks {
    pub fn ensure(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok && self.0.len() < 64 {
            self.0.push(what());
        }
    }
}
