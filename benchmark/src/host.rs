//! What machine and what build produced a result: probes measured in the
//! same run (so every ratio has its base) and identifiers that make two
//! result sets from different hosts or inputs refusable.

use std::time::Instant;

/// Facts read, not measured.
#[derive(Debug, Clone)]
pub struct HostInfo {
    pub cpu_model: String,
    pub cores: usize,
    /// Private L2 of one core, KiB.
    pub l2_kib: u64,
    /// Last-level cache as the kernel reports it, KiB. On a virtual
    /// machine this is the socket's cache, shared with other guests.
    pub llc_kib: u64,
    pub kernel_f64: &'static str,
    pub kernel_f32: &'static str,
    pub git_commit: String,
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

/// `"2048K"` / `"260M"` -> KiB.
fn parse_cache_size(s: &str) -> Option<u64> {
    let (digits, unit) = s.split_at(s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len()));
    let n: u64 = digits.parse().ok()?;
    match unit {
        "K" | "" => Some(n),
        "M" => Some(n * 1024),
        "G" => Some(n * 1024 * 1024),
        _ => None,
    }
}

/// Size in KiB of cpu0's unified or data cache at `level`, from sysfs.
fn cache_kib(level: u32) -> u64 {
    (0..8)
        .filter_map(|i| {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            let lvl: u32 = read_trimmed(&format!("{dir}/level"))?.parse().ok()?;
            let kind = read_trimmed(&format!("{dir}/type"))?;
            (lvl == level && kind != "Instruction")
                .then(|| parse_cache_size(&read_trimmed(&format!("{dir}/size"))?))?
        })
        .max()
        .unwrap_or(0)
}

/// The commit of the checkout when it is a git repository (the driver's
/// checkout is not): read from `.git` directly, no subprocess.
fn git_commit() -> String {
    let head = match read_trimmed(".git/HEAD") {
        Some(h) => h,
        None => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => read_trimmed(&format!(".git/{r}")).unwrap_or_else(|| "unknown".to_string()),
        None => head,
    }
}

impl HostInfo {
    pub fn read() -> HostInfo {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let l2_kib = cache_kib(2);
        HostInfo {
            cpu_model,
            cores: adsala_blas3::ThreadPool::hardware_threads(),
            l2_kib,
            llc_kib: cache_kib(3).max(l2_kib),
            kernel_f64: <f64 as adsala_blas3::Float>::kernel().name,
            kernel_f32: <f32 as adsala_blas3::Float>::kernel().name,
            git_commit: git_commit(),
        }
    }
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

const FMA_CHAINS: usize = 10;
const FMA_ITERS: usize = 2_000_000;

/// Independent multiply-add chains, enough to fill the FMA pipes of one
/// core; returns flops per second.
macro_rules! fma_probe {
    ($name:ident, $feature:literal, $vec:ty, $set1:ident, $fmadd:ident, $store:ident, $lanes:expr) => {
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = $feature)]
        unsafe fn $name() -> f64 {
            use std::arch::x86_64::*;
            let (a, b) = ($set1(1.000_000_1), $set1(1e-9));
            let mut acc: [$vec; FMA_CHAINS] = [$set1(1.0); FMA_CHAINS];
            let t = Instant::now();
            for _ in 0..FMA_ITERS {
                for v in acc.iter_mut() {
                    *v = $fmadd(*v, a, b);
                }
            }
            let secs = t.elapsed().as_secs_f64();
            let mut sink = [0.0f64; $lanes];
            for v in acc {
                // SAFETY: `sink` holds exactly one vector of f64 lanes and
                // the unaligned store has no alignment requirement.
                unsafe { $store(sink.as_mut_ptr(), v) };
                std::hint::black_box(&sink);
            }
            (FMA_CHAINS * FMA_ITERS * $lanes * 2) as f64 / secs
        }
    };
}

fma_probe!(
    fma_avx512,
    "avx512f",
    __m512d,
    _mm512_set1_pd,
    _mm512_fmadd_pd,
    _mm512_storeu_pd,
    8
);
fma_probe!(
    fma_avx2,
    "avx2,fma",
    __m256d,
    _mm256_set1_pd,
    _mm256_fmadd_pd,
    _mm256_storeu_pd,
    4
);

fn fma_scalar() -> f64 {
    let mut acc = [1.0f64; FMA_CHAINS];
    let (a, b) = (
        std::hint::black_box(1.000_000_1f64),
        std::hint::black_box(1e-9f64),
    );
    let t = Instant::now();
    for _ in 0..FMA_ITERS {
        for v in acc.iter_mut() {
            *v = v.mul_add(a, b);
        }
    }
    let secs = t.elapsed().as_secs_f64();
    std::hint::black_box(acc);
    (FMA_CHAINS * FMA_ITERS * 2) as f64 / secs
}

/// Double-precision multiply-add peak of one core with the widest vectors
/// the CPU has, GFLOP/s: the base of `blas3.kernel.roofline_frac`. (The
/// default build's kernels stop at AVX2; the roofline is the machine's.)
pub fn peak_gflops_f64() -> f64 {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            // SAFETY: the feature was just detected on this CPU.
            return unsafe { fma_avx512() } / 1e9;
        }
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            // SAFETY: both features were just detected on this CPU.
            return unsafe { fma_avx2() } / 1e9;
        }
    }
    fma_scalar() / 1e9
}

const TRIAD_PASSES: usize = 5;

/// STREAM triad `a = b + s*c` on one core, GB/s of computed bytes (the
/// write-allocate read of `a` is not counted): three arrays of 4x the
/// private L2 each, so none fits in it. Median of five passes after one
/// that faults the pages in.
pub fn triad_gbps(l2_kib: u64) -> f64 {
    let n = (4 * l2_kib.max(256) as usize * 1024) / 8;
    let (mut a, b, c) = (vec![0.0f64; n], vec![1.0f64; n], vec![2.0f64; n]);
    let s = std::hint::black_box(3.0);
    let mut rates: Vec<f64> = (0..=TRIAD_PASSES)
        .map(|_| {
            let t = Instant::now();
            for ((x, y), z) in a.iter_mut().zip(&b).zip(&c) {
                *x = y + s * z;
            }
            std::hint::black_box(&mut a);
            (3 * n * 8) as f64 / t.elapsed().as_secs_f64() / 1e9
        })
        .skip(1)
        .collect();
    crate::stats::median(&mut rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_parse() {
        assert_eq!(parse_cache_size("2048K"), Some(2048));
        assert_eq!(parse_cache_size("260M"), Some(266_240));
        assert_eq!(parse_cache_size("48"), Some(48));
        assert_eq!(parse_cache_size("x"), None);
    }

    #[test]
    fn probes_return_plausible_rates() {
        let g = peak_gflops_f64();
        assert!(g > 0.1 && g < 10_000.0, "{g} GFLOP/s");
        let b = triad_gbps(256);
        assert!(b > 0.05 && b < 10_000.0, "{b} GB/s");
    }
}
