//! Small numeric helpers: medians, exact percentiles and FNV-1a
//! fingerprints.

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `word`'s little-endian bytes into an FNV-1a chain.
pub fn fnv_word(mut h: u64, word: u64) -> u64 {
    for b in word.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The exact `q`-quantile (nearest rank: the smallest sample with at least
/// `q` of the samples at or below it); 0 for no samples.  Reorders `samples`.
pub fn quantile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    *samples.select_nth_unstable(rank - 1).1
}

/// CPU seconds (user + system, every thread, live or exited) the process
/// has used, from `/proc/self/stat`; 0 where that file does not exist.  The
/// kernel reports them in clock ticks of 1/100 s, so only differences over
/// long intervals, or averages over many, are precise.  Unlike wall time,
/// this leaves out the time a hypervisor stole from the host's CPUs.
pub fn process_cpu_s() -> f64 {
    const TICKS_PER_S: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 / TICKS_PER_S
}

/// `num / den`, or 0 when `den` is 0 (keeps ratios finite in the JSON).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(quantile(&mut v, 0.99), 99);
        assert_eq!(quantile(&mut v, 0.5), 50);
        assert_eq!(quantile(&mut v, 1.0), 100);
        assert_eq!(quantile(&mut [7], 0.99), 7);
        assert_eq!(quantile(&mut [], 0.99), 0);
    }
}
