//! Small numeric helpers: order statistics, the report digest, and the
//! process's resident-memory high-water mark.

/// Nearest-rank quantile `q ∈ [0, 1]` of `samples` (sorted in place).
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    samples.sort_by(f64::total_cmp);
    let rank = ((samples.len() - 1) as f64 * q).round() as usize;
    samples[rank]
}

/// Median; the mean of the two middle samples for an even count.
pub fn median(samples: &mut [f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    (samples[(n - 1) / 2] + samples[n / 2]) / 2.0
}

/// FNV-1a over the report bytes, printed with the byte length so a
/// truncated report cannot collide with a complete one.
pub fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}-{}", bytes.len())
}

/// Peak resident set size of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_pick_nearest_rank() {
        let mut v: Vec<f64> = (1..=101).rev().map(f64::from).collect();
        assert_eq!(median(&mut v), 51.0);
        assert_eq!(median(&mut [4.0, 1.0]), 2.5);
        assert_eq!(quantile(&mut v, 0.99), 100.0);
        assert_eq!(quantile(&mut v, 1.0), 101.0);
    }

    #[test]
    fn digest_separates_prefixes() {
        assert_ne!(digest(b"abc"), digest(b"ab"));
        assert_eq!(digest(b"abc"), digest(b"abc"));
    }
}
