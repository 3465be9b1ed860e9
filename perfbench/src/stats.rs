//! Order statistics and process-level measurements.

/// The `q`-quantile of `v` by linear interpolation between order
/// statistics (`q = 0.5` is the median). Empty input reads as 0.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, frac) = (pos.floor() as usize, pos.fract());
    if lo + 1 < s.len() {
        s[lo] + frac * (s[lo + 1] - s[lo])
    } else {
        s[lo]
    }
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Arithmetic mean of `v` (0 when empty).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Peak resident set size of this process in bytes (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_bytes() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0)
}
